//! Minimal valuations (Definition 3.3), strong minimality (Definition 4.4)
//! and the sufficient condition of Lemma 4.8.
//!
//! Every minimality question of a decision goes through one
//! [`MinimalityOracle`] per query:
//!
//! * **Equality types, not values.** A valuation `V'` with `V' <_Q V` maps
//!   every body atom onto one of the facts `V(body_Q)` and agrees with `V`
//!   on the head, so whether one exists depends only on which variables `V`
//!   identifies (genericity, Claim C.4). The oracle reduces a candidate to
//!   its *equality type* — the restricted-growth string of class ids over
//!   the query's variable slots — and searches over class ids: no
//!   [`Instance`], no index, no [`Valuation`], no allocation per ask.
//! * **The search** assigns the body atoms (head slots pre-bound, atoms in a
//!   static most-bound-first order) onto the candidate's distinct atom
//!   images and never takes the last unused image: what reaches a leaf uses
//!   a proper subset, i.e. is strictly smaller.
//! * **The memo.** Where types repeat — valuations enumerated over a fact
//!   universe, as (C0)/(C1) and [`for_each_minimal_valuation`] do —
//!   [`MinimalityOracle::is_minimal_by_type`] searches once per type (a
//!   4-variable query has 15). Canonical enumerations and the covering
//!   search of (C2) meet (almost) every type once and call the search,
//!   [`MinimalityOracle::is_minimal`], directly.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::ControlFlow;

use cq::{
    CanonicalValuations, CompiledQuery, ConjunctiveQuery, EvalOptions, Instance, Slots, Valuation,
    Value,
};
use delta::CacheStats;

/// How the minimality asks of a decision were answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimalityStats {
    /// Asks answered from the memo, by the candidate's equality type.
    pub by_type: u64,
    /// Asks that ran the search.
    pub searched: u64,
    /// Asks that found the candidate minimal.
    pub minimal: u64,
}

impl MinimalityStats {
    /// Pointwise sum with another oracle's counters.
    pub fn merge(self, other: MinimalityStats) -> MinimalityStats {
        MinimalityStats {
            by_type: self.by_type + other.by_type,
            searched: self.searched + other.searched,
            minimal: self.minimal + other.minimal,
        }
    }

    /// Leaves the counters in the trace and hands them to a decision report
    /// (`hits` by equality type, `misses` searched, their sum the candidates).
    pub(crate) fn record(self) -> CacheStats {
        obs::instant!(
            "minimality_stats",
            asks = self.by_type + self.searched,
            by_type = self.by_type,
            searched = self.searched,
            minimal = self.minimal
        );
        CacheStats {
            hits: self.by_type,
            misses: self.searched,
        }
    }
}

/// The class id of a slot the search has not bound yet.
const UNBOUND: u32 = u32::MAX;

/// Decides minimality (Definition 3.3) of one query's valuations ([how](self)).
pub struct MinimalityOracle<'q> {
    compiled: &'q CompiledQuery<'q>,
    /// The search's atom order: most-bound-first from the head slots.
    order: Vec<usize>,
    /// `peers[a]`: the body atoms over the relation of atom `a` (itself
    /// included), in body order — the only images `a` can be mapped onto.
    peers: Vec<Vec<usize>>,
    memo: HashMap<Box<[u32]>, bool>,
    stats: MinimalityStats,
    /// The candidate's equality type: the class id of each slot.
    classes: Vec<u32>,
    /// `values[c]`: the value the candidate gives to class `c`.
    values: Vec<Value>,
    /// `image_of[a]`: the first body atom with the same image as atom `a`;
    /// the atoms with `image_of[a] == a` stand for the distinct images.
    image_of: Vec<usize>,
    /// The smaller valuation under construction (class ids by slot), its trail.
    assigned: Vec<u32>,
    trail: Vec<usize>,
    /// `used[r]`: how many atoms are currently mapped onto the image of `r`.
    used: Vec<u32>,
}

impl<'q> MinimalityOracle<'q> {
    /// An oracle for the valuations of `compiled`'s query.
    pub fn new(compiled: &'q CompiledQuery<'q>) -> Self {
        let body = compiled.query().body();
        let atoms = compiled.atom_count();
        let same_relation = |a: usize, b: usize| body[a].relation == body[b].relation;
        let peers = (0..atoms)
            .map(|a| (0..atoms).filter(|&b| same_relation(a, b)).collect())
            .collect();
        // Greedy: the atom with the most bound argument positions next,
        // ties in body order.
        let mut bound = vec![false; compiled.variables().len()];
        for &slot in compiled.head() {
            bound[slot] = true;
        }
        let mut order = Vec::with_capacity(atoms);
        let mut remaining: Vec<usize> = (0..atoms).collect();
        while !remaining.is_empty() {
            let bound_args = |a: usize| compiled.atom(a).iter().filter(|&&s| bound[s]).count();
            let best = (0..remaining.len())
                .min_by_key(|&at| Reverse(bound_args(remaining[at])))
                .expect("remaining is not empty");
            let atom = remaining.remove(best);
            for &slot in compiled.atom(atom) {
                bound[slot] = true;
            }
            order.push(atom);
        }
        MinimalityOracle {
            compiled,
            order,
            peers,
            memo: HashMap::new(),
            stats: MinimalityStats::default(),
            classes: Vec::with_capacity(bound.len()),
            values: Vec::with_capacity(bound.len()),
            image_of: vec![0; atoms],
            assigned: vec![UNBOUND; bound.len()],
            trail: Vec::with_capacity(bound.len()),
            used: vec![0; atoms],
        }
    }

    /// Whether the total valuation in `slots` is minimal, by search.
    pub fn is_minimal(&mut self, slots: &Slots) -> bool {
        self.classify(slots);
        self.search()
    }

    /// [`MinimalityOracle::is_minimal`] through the memo: the search runs
    /// once per equality type.
    pub fn is_minimal_by_type(&mut self, slots: &Slots) -> bool {
        self.classify(slots);
        if let Some(&minimal) = self.memo.get(self.classes.as_slice()) {
            self.stats.by_type += 1;
            self.stats.minimal += u64::from(minimal);
            return minimal;
        }
        let minimal = self.search();
        self.memo.insert(self.classes.as_slice().into(), minimal);
        minimal
    }

    /// Whether `valuation` (total on the query variables) is minimal, by
    /// search.
    pub fn is_minimal_valuation(&mut self, valuation: &Valuation) -> bool {
        self.is_minimal(&self.compiled.bind(valuation))
    }

    /// How the asks so far were answered.
    pub fn stats(&self) -> MinimalityStats {
        self.stats
    }

    /// Reduces the candidate to its equality type.
    fn classify(&mut self, slots: &Slots) {
        self.classes.clear();
        self.values.clear();
        for value in slots {
            let value = value.expect("minimality is asked of total valuations");
            let known = self.values.iter().position(|&v| v == value);
            let class = known.unwrap_or_else(|| {
                self.values.push(value);
                self.values.len() - 1
            });
            self.classes.push(class as u32);
        }
    }

    /// Whether no valuation is strictly smaller than the classified one.
    fn search(&mut self) -> bool {
        self.stats.searched += 1;
        let compiled = self.compiled;
        let image = |a: usize| compiled.atom(a).iter().map(|&slot| self.classes[slot]);
        let mut distinct = 0;
        for atom in 0..self.image_of.len() {
            let earlier = self.peers[atom].iter().take_while(|&&peer| peer < atom);
            let same = earlier
                .copied()
                .find(|&peer| self.image_of[peer] == peer && image(peer).eq(image(atom)));
            self.image_of[atom] = same.unwrap_or(atom);
            distinct += usize::from(same.is_none());
        }
        self.assigned.fill(UNBOUND);
        for &slot in compiled.head() {
            self.assigned[slot] = self.classes[slot];
        }
        let minimal = !self.smaller_exists(0, distinct);
        self.stats.minimal += u64::from(minimal);
        minimal
    }

    /// Maps the atoms from `depth` on onto images, `spare` of which are not
    /// in use yet; a valuation using all of them is not smaller, so the last
    /// spare image is never taken.
    fn smaller_exists(&mut self, depth: usize, spare: usize) -> bool {
        let Some(&atom) = self.order.get(depth) else {
            return true;
        };
        for at in 0..self.peers[atom].len() {
            let onto = self.peers[atom][at];
            let unused = self.used[onto] == 0;
            if self.image_of[onto] != onto || (unused && spare == 1) {
                continue;
            }
            let mark = self.trail.len();
            if self.map_onto(atom, onto) {
                self.used[onto] += 1;
                let found = self.smaller_exists(depth + 1, spare - usize::from(unused));
                self.used[onto] -= 1;
                self.undo(mark);
                if found {
                    return true;
                }
            }
        }
        false
    }

    /// Extends the assignment so that `atom` maps onto the image of `onto`;
    /// on a clash nothing stays bound.
    fn map_onto(&mut self, atom: usize, onto: usize) -> bool {
        let mark = self.trail.len();
        let compiled = self.compiled;
        for (&slot, &source) in compiled.atom(atom).iter().zip(compiled.atom(onto)) {
            let class = self.classes[source];
            if self.assigned[slot] == UNBOUND {
                self.assigned[slot] = class;
                self.trail.push(slot);
            } else if self.assigned[slot] != class {
                self.undo(mark);
                return false;
            }
        }
        true
    }

    fn undo(&mut self, mark: usize) {
        for &slot in &self.trail[mark..] {
            self.assigned[slot] = UNBOUND;
        }
        self.trail.truncate(mark);
    }
}

/// Whether `valuation` is a *minimal* valuation for `query`
/// (Definition 3.3): there is no valuation `V'` with `V' <_Q V`.
///
/// Any counterexample `V'` satisfies `V'(body_Q) ⊊ V(body_Q)`, so it maps all
/// variables into the active domain of `V(body_Q)`; the search is therefore
/// finite. Callers with many valuations of one query keep a
/// [`MinimalityOracle`] instead.
pub fn is_minimal_valuation(query: &ConjunctiveQuery, valuation: &Valuation) -> bool {
    MinimalityOracle::new(&CompiledQuery::new(query)).is_minimal_valuation(valuation)
}

/// Enumerates the valuations of `query` that are satisfying on `facts` and
/// minimal, invoking `callback` for each.
pub fn for_each_minimal_valuation<F>(
    query: &ConjunctiveQuery,
    facts: &Instance,
    mut callback: F,
) -> ControlFlow<()>
where
    F: FnMut(&Valuation) -> ControlFlow<()>,
{
    let compiled = CompiledQuery::new(query);
    let mut oracle = MinimalityOracle::new(&compiled);
    compiled.for_each_satisfying(facts, &Valuation::new(), EvalOptions::default(), |slots| {
        if oracle.is_minimal_by_type(slots) {
            callback(&compiled.valuation(slots))
        } else {
            ControlFlow::Continue(())
        }
    })
}

/// The satisfying valuations of `query` on `facts` that are minimal.
pub fn minimal_valuations_over(query: &ConjunctiveQuery, facts: &Instance) -> Vec<Valuation> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let _ = for_each_minimal_valuation(query, facts, |v| {
        if seen.insert(v.clone()) {
            out.push(v.clone());
        }
        ControlFlow::Continue(())
    });
    out
}

/// A report on the strong minimality of a query.
#[derive(Clone, Debug)]
pub struct StrongMinimalityReport {
    /// Whether the query is strongly minimal.
    pub strongly_minimal: bool,
    /// Whether the sufficient syntactic condition of Lemma 4.8 holds.
    pub lemma_4_8: bool,
    /// Number of canonical valuations inspected by the complete check.
    pub valuations_checked: usize,
}

/// Whether `query` is *strongly minimal* (Definition 4.4): every valuation
/// for the query is minimal.
///
/// By genericity it suffices to check one representative valuation per
/// equality pattern of the query variables (canonical set partitions).
pub fn is_strongly_minimal(query: &ConjunctiveQuery) -> bool {
    strong_minimality_witness(query).is_none()
}

/// Searches for a witness of non-strong-minimality: a valuation of the query
/// that is not minimal. Returns `None` when the query is strongly minimal.
pub fn strong_minimality_witness(query: &ConjunctiveQuery) -> Option<Valuation> {
    // Fast path: the syntactic sufficient condition of Lemma 4.8.
    if satisfies_lemma_4_8(query) {
        return None;
    }
    first_non_minimal(query).0
}

/// The first canonical valuation of `query` that is not minimal, and how
/// many were checked to find it (all of them when there is none).
fn first_non_minimal(query: &ConjunctiveQuery) -> (Option<Valuation>, usize) {
    let compiled = CompiledQuery::new(query);
    let mut oracle = MinimalityOracle::new(&compiled);
    let witness =
        CanonicalValuations::new(query.variables()).find(|v| !oracle.is_minimal_valuation(v));
    (witness, oracle.stats().searched as usize)
}

/// Full report on strong minimality, including which path decided it.
pub fn strong_minimality_report(query: &ConjunctiveQuery) -> StrongMinimalityReport {
    let lemma_4_8 = satisfies_lemma_4_8(query);
    let (witness, valuations_checked) = if lemma_4_8 {
        (None, 0)
    } else {
        first_non_minimal(query)
    };
    StrongMinimalityReport {
        strongly_minimal: witness.is_none(),
        lemma_4_8,
        valuations_checked,
    }
}

/// The sufficient condition of Lemma 4.8: if a variable `x` occurs at a
/// position `i` in some self-join atom and not in the head of `Q`, then all
/// self-join atoms have `x` at position `i`.
///
/// In particular every full CQ and every CQ without self-joins satisfies the
/// condition. The condition is *not* necessary (Example 4.9).
pub fn satisfies_lemma_4_8(query: &ConjunctiveQuery) -> bool {
    let self_join_atoms = query.self_join_atoms();
    let head_vars = query.head_variables();
    for atom in &self_join_atoms {
        for (i, &var) in atom.args.iter().enumerate() {
            if head_vars.contains(&var) {
                continue;
            }
            // `var` occurs at position i of a self-join atom and is not a head
            // variable: all self-join atoms must have `var` at position i.
            for other in &self_join_atoms {
                if other.args.get(i) != Some(&var) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn example_3_5_minimal_and_non_minimal_valuations() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let v = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "a")]);
        let v_prime = Valuation::from_names([("x", "a"), ("y", "a"), ("z", "a")]);
        assert!(!is_minimal_valuation(&query, &v));
        assert!(is_minimal_valuation(&query, &v_prime));
    }

    #[test]
    fn injective_valuations_of_minimal_queries_are_minimal() {
        // Lemma 3.6 (one direction): for an injective valuation, minimality
        // of the valuation coincides with minimality of the query.
        let minimal_query = q("T(x) :- R(x, y), R(y, z).");
        let injective = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "c")]);
        assert!(is_minimal_valuation(&minimal_query, &injective));

        let non_minimal_query = q("T(x) :- R(x, y), R(x, z).");
        let injective2 = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "c")]);
        assert!(!is_minimal_valuation(&non_minimal_query, &injective2));
    }

    #[test]
    fn lemma_3_6_equivalence_on_sample_queries() {
        // For every sample query: Q minimal  <=>  its injective valuations are minimal.
        let samples = [
            "T(x) :- R(x, y), R(y, z).",
            "T(x) :- R(x, y), R(x, z).",
            "T(x, z) :- R(x, y), R(y, z), R(x, x).",
            "T() :- R(x, y), R(y, x).",
            "T() :- R(x, y), R(y, y), R(z, z), R(u, u).",
        ];
        for text in samples {
            let query = q(text);
            let vars = query.variables();
            let injective = Valuation::from_pairs(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, cq::Value::indexed("inj", i))),
            );
            assert_eq!(
                cq::is_minimal(&query),
                is_minimal_valuation(&query, &injective),
                "Lemma 3.6 violated for {text}"
            );
        }
    }

    #[test]
    fn minimal_valuations_over_an_instance() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let instance = cq::parse_instance("R(a, a). R(a, b). R(b, a).").unwrap();
        let minimal = minimal_valuations_over(&query, &instance);
        // The valuation x=a,y=b,z=a is satisfying but NOT minimal (x=y=z=a is
        // smaller); the all-a valuation is minimal; x=a,y=a|b,z=b requires
        // R(a,b),(R(a,a) or R(b,b)),… — check that every returned valuation
        // is indeed minimal and satisfying.
        assert!(!minimal.is_empty());
        for v in &minimal {
            assert!(v.satisfies(&query, &instance));
            assert!(is_minimal_valuation(&query, v));
        }
        // the non-minimal valuation is not in the list
        let non_minimal = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "a")]);
        assert!(!minimal.contains(&non_minimal));
    }

    #[test]
    fn example_4_5_strongly_minimal_queries() {
        // Q1 is full (the paper's Example 4.5 argues "by fullness of Q1";
        // we spell the head with all body variables); Q2 has no self-joins.
        let q1 = q("T(x1, x2, x3, x4) :- R(x1, x2), R(x2, x3), R(x3, x4).");
        let q2 = q("T() :- R1(x1, x2), R2(x2, x3), R3(x3, x4).");
        assert!(q1.is_full());
        assert!(satisfies_lemma_4_8(&q1));
        assert!(is_strongly_minimal(&q1));
        assert!(satisfies_lemma_4_8(&q2));
        assert!(is_strongly_minimal(&q2));
    }

    #[test]
    fn projected_chain_with_self_joins_is_not_strongly_minimal() {
        // The literal head of the paper's Example 4.5 (which omits x3) makes
        // the query non-strongly-minimal: collapsing x3 onto x2's value can
        // shrink the required facts while deriving the same head fact.
        let query = q("T(x1, x2, x2, x4) :- R(x1, x2), R(x2, x3), R(x3, x4).");
        assert!(!is_strongly_minimal(&query));
    }

    #[test]
    fn example_3_5_query_is_minimal_but_not_strongly_minimal() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        assert!(cq::is_minimal(&query));
        assert!(!is_strongly_minimal(&query));
        let witness = strong_minimality_witness(&query).expect("witness must exist");
        assert!(!is_minimal_valuation(&query, &witness));
    }

    #[test]
    fn example_4_9_strongly_minimal_without_lemma_4_8() {
        // T() :- R(x1, x2), R(x2, x1) is strongly minimal but fails the
        // sufficient condition of Lemma 4.8.
        let query = q("T() :- R(x1, x2), R(x2, x1).");
        assert!(!satisfies_lemma_4_8(&query));
        assert!(is_strongly_minimal(&query));
        let report = strong_minimality_report(&query);
        assert!(report.strongly_minimal);
        assert!(!report.lemma_4_8);
        assert!(report.valuations_checked >= 2);
    }

    #[test]
    fn full_queries_satisfy_lemma_4_8() {
        let query = q("T(x, y) :- R(x, y), R(y, x).");
        assert!(satisfies_lemma_4_8(&query));
        assert!(is_strongly_minimal(&query));
    }

    #[test]
    fn self_join_free_queries_satisfy_lemma_4_8() {
        let query = q("T(x) :- R(x, y), S(y, z), U(z, x).");
        assert!(satisfies_lemma_4_8(&query));
        assert!(is_strongly_minimal(&query));
    }

    #[test]
    fn strongly_minimal_implies_minimal() {
        // every strongly minimal CQ is minimal (the converse fails, see above)
        let samples = [
            "T() :- R(x1, x2), R(x2, x1).",
            "T(x1, x2) :- R(x1, x2), R(x2, x3).",
            "T() :- R1(x, y), R2(y, z).",
        ];
        for text in samples {
            let query = q(text);
            if is_strongly_minimal(&query) {
                assert!(
                    cq::is_minimal(&query),
                    "strongly minimal but not minimal: {text}"
                );
            }
        }
    }

    #[test]
    fn non_strongly_minimal_self_join_with_existential_variable() {
        // T(x) :- R(x, y), R(x, x): the valuation y ↦ x-value collapses.
        let query = q("T(x) :- R(x, y), R(x, x).");
        assert!(!satisfies_lemma_4_8(&query));
        assert!(!is_strongly_minimal(&query));
    }

    #[test]
    fn cached_minimality_agrees_with_scratch_on_canonical_valuations() {
        // The oracle — by search and through the memo — against the
        // evaluation-based reference, on every equality type of each query.
        let samples = [
            "T(x, z) :- R(x, y), R(y, z), R(x, x).",
            "T(x) :- R(x, y), R(x, z).",
            "T() :- R(x, y), R(y, x).",
            "T(x) :- E(x, y), E(y, z), E(z, x).",
            "T(x, x) :- R(x, y, y), R(y, x, z), S(z), R(z, z, x).",
        ];
        for text in samples {
            let query = q(text);
            let compiled = CompiledQuery::new(&query);
            let mut oracle = MinimalityOracle::new(&compiled);
            for v in CanonicalValuations::new(query.variables()) {
                let expected = crate::reference::is_minimal_valuation(&query, &v);
                assert_eq!(oracle.is_minimal_valuation(&v), expected, "{text} on {v:?}");
                for _ in 0..2 {
                    let by_type = oracle.is_minimal_by_type(&compiled.bind(&v));
                    assert_eq!(by_type, expected, "memo diverged for {text} on {v:?}");
                }
            }
            let types = CanonicalValuations::count_for(query.variables().len()) as u64;
            let stats = oracle.stats();
            assert_eq!(
                (stats.by_type, stats.searched),
                (types, 2 * types),
                "{text}"
            );
        }
    }

    #[test]
    fn chain3_over_k4_asks_256_times_and_searches_at_most_15() {
        // One ask per satisfying valuation, one search per equality type:
        // 4 variables have Bell(4) = 15 types, all realized over 4 values.
        let query = q("T(x, w) :- R(x, y), R(y, z), R(z, w).");
        let values = ["a", "b", "c", "d"];
        let mut universe = Instance::new();
        for x in values {
            for y in values {
                universe.insert(cq::Fact::from_names("R", &[x, y]));
            }
        }
        let network = distribution::Network::with_size(4);
        let policy = distribution::ExplicitPolicy::broadcast(&network, &universe);
        let report = crate::pc::check_parallel_correctness(&query, &policy);
        assert!(report.is_correct());
        let asks = report.cache_stats();
        assert_eq!(asks.hits + asks.misses, 256, "one ask per valuation");
        assert!(asks.misses <= 15, "searched {} times", asks.misses);
        assert_eq!(asks.misses, 15, "every type occurs over four values");
    }

    #[test]
    fn search_order_starts_from_the_head_and_follows_the_bindings() {
        // Head slots count as bound: the atoms on x and w go first (body
        // order on ties), the middle atom once both its variables are bound.
        let query = q("T(x, w) :- R(y, z), R(x, y), R(z, w).");
        let compiled = CompiledQuery::new(&query);
        assert_eq!(MinimalityOracle::new(&compiled).order, vec![1, 0, 2]);
    }
}
