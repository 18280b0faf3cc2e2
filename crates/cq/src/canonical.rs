//! Canonical enumeration of valuations.
//!
//! By genericity of conjunctive queries (Claim C.4 of the paper), properties
//! such as minimality of a valuation or the containment condition (C2) only
//! depend on the *equality pattern* of a valuation, not on the concrete data
//! values. It therefore suffices to enumerate valuations up to isomorphism,
//! which this module does via *restricted growth strings* (canonical set
//! partitions): the i-th variable is assigned a class index that is at most
//! one larger than the maximum class index used so far.

use crate::atom::Variable;
use crate::valuation::Valuation;
use crate::value::Value;

/// The restricted-growth strings of length `n` in lexicographic order, one
/// at a time: the state is the current string and its prefix maxima, O(n),
/// however many of the `B_n` strings are ever asked for.
struct GrowthStrings {
    current: Vec<usize>,
    /// `maxima[i]` = the largest class among `current[..i]` (0 for `i = 0`).
    maxima: Vec<usize>,
    started: bool,
}

impl GrowthStrings {
    fn new(n: usize) -> GrowthStrings {
        GrowthStrings {
            current: vec![0; n],
            maxima: vec![0; n],
            started: false,
        }
    }

    /// Steps to the next string; `None` once all have been visited.
    fn advance(&mut self) -> Option<&[usize]> {
        if !self.started {
            self.started = true;
            return Some(&self.current);
        }
        // The successor bumps the rightmost class that may still grow and
        // resets everything after it; position 0 is pinned to class 0.
        let at = (1..self.current.len())
            .rev()
            .find(|&i| self.current[i] <= self.maxima[i])?;
        self.current[at] += 1;
        let max = self.maxima[at].max(self.current[at]);
        for i in at + 1..self.current.len() {
            self.current[i] = 0;
            self.maxima[i] = max;
        }
        Some(&self.current)
    }
}

/// All restricted-growth strings of length `n`.
///
/// Each string `a` encodes a set partition of `{0, …, n-1}`: positions with
/// equal entries are in the same class, and `a[0] = 0`,
/// `a[i] ≤ max(a[..i]) + 1`. The number of strings is the Bell number `B_n`,
/// so the table is for small `n` only; [`CanonicalValuations`] walks the
/// same sequence without ever holding it.
pub fn partition_assignments(n: usize) -> Vec<Vec<usize>> {
    let mut strings = GrowthStrings::new(n);
    let mut out = Vec::new();
    while let Some(string) = strings.advance() {
        out.push(string.to_vec());
    }
    out
}

/// All assignments of length `n` over a domain of size `domain_size`
/// (the full odometer enumeration, `domain_size^n` entries).
pub fn all_assignments(n: usize, domain_size: usize) -> Vec<Vec<usize>> {
    if domain_size == 0 {
        return if n == 0 { vec![Vec::new()] } else { Vec::new() };
    }
    let mut out = Vec::new();
    let mut current = vec![0usize; n];
    loop {
        out.push(current.clone());
        let mut pos = 0;
        loop {
            if pos == n {
                return out;
            }
            current[pos] += 1;
            if current[pos] == domain_size {
                current[pos] = 0;
                pos += 1;
            } else {
                break;
            }
        }
    }
}

/// Iterator over canonical valuations of a variable list.
///
/// Each emitted valuation corresponds to one set partition of the variables;
/// variables in the same class are mapped to the same synthetic [`Value`],
/// variables in different classes to different values. Every valuation over
/// the infinite domain **dom** is isomorphic (via a permutation of **dom**)
/// to exactly one canonical valuation.
pub struct CanonicalValuations {
    vars: Vec<Variable>,
    /// `values[c]` is the synthetic value of class `c`.
    values: Vec<Value>,
    strings: GrowthStrings,
}

impl CanonicalValuations {
    /// Creates the canonical enumeration for `vars`. Lazy: the next
    /// equality pattern is computed when it is asked for.
    pub fn new(vars: Vec<Variable>) -> CanonicalValuations {
        CanonicalValuations {
            values: (0..vars.len()).map(Value::synthetic).collect(),
            strings: GrowthStrings::new(vars.len()),
            vars,
        }
    }

    /// Number of canonical valuations: the Bell number of the variable
    /// count, by the Bell triangle (saturating at `usize::MAX`).
    pub fn count_for(n_vars: usize) -> usize {
        let mut row = vec![1usize];
        for _ in 0..n_vars {
            let mut next = Vec::with_capacity(row.len() + 1);
            next.push(*row.last().expect("rows are never empty"));
            for &above in &row {
                let left = *next.last().expect("just pushed");
                next.push(left.saturating_add(above));
            }
            row = next;
        }
        row[0]
    }
}

impl Iterator for CanonicalValuations {
    type Item = Valuation;

    fn next(&mut self) -> Option<Valuation> {
        let classes = self.strings.advance()?;
        Some(Valuation::from_pairs(
            self.vars
                .iter()
                .zip(classes)
                .map(|(&var, &class)| (var, self.values[class])),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_counts_are_bell_numbers() {
        // Bell numbers: 1, 1, 2, 5, 15, 52, 203
        assert_eq!(partition_assignments(0).len(), 1);
        assert_eq!(partition_assignments(1).len(), 1);
        assert_eq!(partition_assignments(2).len(), 2);
        assert_eq!(partition_assignments(3).len(), 5);
        assert_eq!(partition_assignments(4).len(), 15);
        assert_eq!(partition_assignments(5).len(), 52);
        assert_eq!(partition_assignments(6).len(), 203);
    }

    #[test]
    fn partitions_are_restricted_growth_strings() {
        for a in partition_assignments(5) {
            assert_eq!(a[0], 0);
            let mut max = 0;
            for i in 1..a.len() {
                assert!(a[i] <= max + 1, "not an RGS: {a:?}");
                max = max.max(a[i]);
            }
        }
    }

    #[test]
    fn all_assignments_is_the_full_odometer() {
        assert_eq!(all_assignments(3, 2).len(), 8);
        assert_eq!(all_assignments(0, 5).len(), 1);
        assert_eq!(all_assignments(2, 0).len(), 0);
        let assignments = all_assignments(2, 3);
        assert_eq!(assignments.len(), 9);
        // all distinct
        let set: std::collections::BTreeSet<_> = assignments.iter().cloned().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn canonical_valuations_cover_all_equality_patterns() {
        let vars = vec![Variable::new("x"), Variable::new("y"), Variable::new("z")];
        let vals: Vec<Valuation> = CanonicalValuations::new(vars.clone()).collect();
        assert_eq!(vals.len(), 5);
        // one of them maps all three to the same value
        assert!(vals
            .iter()
            .any(|v| { v.get(vars[0]) == v.get(vars[1]) && v.get(vars[1]) == v.get(vars[2]) }));
        // one of them is injective
        assert!(vals.iter().any(|v| v.is_injective()));
        // all of them are total
        assert!(vals.iter().all(|v| vars.iter().all(|&x| v.binds(x))));
    }

    #[test]
    fn canonical_count_helper_matches_enumeration() {
        assert_eq!(CanonicalValuations::count_for(4), 15);
        for n in 0..9 {
            assert_eq!(
                CanonicalValuations::count_for(n),
                partition_assignments(n).len(),
                "Bell({n})"
            );
        }
        assert_eq!(CanonicalValuations::count_for(24), 445_958_869_294_805_289);
        assert_eq!(CanonicalValuations::count_for(40), usize::MAX, "saturates");
    }

    #[test]
    fn growth_strings_come_in_lexicographic_order_without_repeats() {
        let strings = partition_assignments(7);
        assert_eq!(strings.len(), 877);
        assert!(strings.windows(2).all(|pair| pair[0] < pair[1]));
        assert_eq!(strings[0], vec![0; 7]);
        assert_eq!(strings[876], vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn enumeration_is_lazy_over_24_variables() {
        // Bell(24) ≈ 4.5 · 10¹⁷ patterns: only an enumeration with O(n)
        // state can hand out the first thousand.
        let vars: Vec<Variable> = (0..24).map(|i| Variable::indexed("x", i)).collect();
        let first: Vec<Valuation> = CanonicalValuations::new(vars.clone()).take(1000).collect();
        assert_eq!(first.len(), 1000);
        assert_eq!(first[0].image().len(), 1, "the all-equal pattern first");
        let distinct: std::collections::BTreeSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 1000);
        // Lexicographic order moves the last variables first.
        assert!(first
            .iter()
            .all(|v| v.get(vars[0]) == v.get(vars[16]) && v.len() == 24));
    }

    #[test]
    fn empty_variable_list_yields_the_empty_valuation() {
        let vals: Vec<Valuation> = CanonicalValuations::new(vec![]).collect();
        assert_eq!(vals.len(), 1);
        assert!(vals[0].is_empty());
    }
}
