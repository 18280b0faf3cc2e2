//! Substitutions, simplifications and foldings (Definition 2.1 of the paper).

use std::collections::BTreeMap;
use std::fmt;

use crate::atom::{Atom, Variable};
use crate::query::ConjunctiveQuery;

/// A substitution: a mapping from variables to variables.
///
/// Variables without an explicit image are mapped to themselves, so every
/// substitution is total. Substitutions are generalized to atoms and
/// conjunctive queries in the natural way ([`Substitution::apply_atom`],
/// [`Substitution::apply_query`]).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Substitution {
    map: BTreeMap<Variable, Variable>,
}

impl Substitution {
    /// The identity substitution.
    pub fn identity() -> Substitution {
        Substitution::default()
    }

    /// Builds a substitution from `(from, to)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Substitution
    where
        I: IntoIterator<Item = (Variable, Variable)>,
    {
        Substitution {
            map: pairs.into_iter().collect(),
        }
    }

    /// Builds a substitution from `(from, to)` string pairs.
    pub fn from_names<'a, I>(pairs: I) -> Substitution
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        Substitution {
            map: pairs
                .into_iter()
                .map(|(a, b)| (Variable::new(a), Variable::new(b)))
                .collect(),
        }
    }

    /// Maps `var` to `to`, overwriting any previous image.
    pub fn bind(&mut self, var: Variable, to: Variable) {
        self.map.insert(var, to);
    }

    /// Removes the explicit mapping of `var` (it becomes identity again).
    pub fn unbind(&mut self, var: Variable) {
        self.map.remove(&var);
    }

    /// The image of `var` (identity if not explicitly mapped).
    fn apply_var(&self, var: Variable) -> Variable {
        self.map.get(&var).copied().unwrap_or(var)
    }

    /// Whether `var` has an explicit image.
    pub fn binds(&self, var: Variable) -> bool {
        self.map.contains_key(&var)
    }

    /// The explicit image of `var`, if any.
    pub fn get(&self, var: Variable) -> Option<Variable> {
        self.map.get(&var).copied()
    }

    /// Iterates over the explicit bindings.
    pub fn bindings(&self) -> impl Iterator<Item = (Variable, Variable)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of explicit bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no explicit bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the substitution is (extensionally) the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().all(|(k, v)| k == v)
    }

    /// Applies the substitution to an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom {
            relation: atom.relation,
            args: atom.args.iter().map(|&v| self.apply_var(v)).collect(),
        }
    }

    /// Applies the substitution to a set of atoms, removing duplicates.
    pub fn apply_atoms(&self, atoms: &[Atom]) -> Vec<Atom> {
        let mut out: Vec<Atom> = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let img = self.apply_atom(atom);
            if !out.contains(&img) {
                out.push(img);
            }
        }
        out
    }

    /// Applies the substitution to a query, producing `θ(Q)`.
    ///
    /// The result is again a valid conjunctive query (head relation and
    /// safety are preserved by substitution).
    pub fn apply_query(&self, query: &ConjunctiveQuery) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            self.apply_atom(query.head()),
            self.apply_atoms(query.body()),
        )
        .expect("substitution images of valid queries are valid")
    }

    /// The composition `self ∘ other` (first `other`, then `self`), restricted
    /// to the union of both explicit domains.
    pub fn compose(&self, other: &Substitution) -> Substitution {
        let mut map = BTreeMap::new();
        for (var, mid) in other.bindings() {
            map.insert(var, self.apply_var(mid));
        }
        for (var, to) in self.bindings() {
            map.entry(var).or_insert(to);
        }
        Substitution { map }
    }

    /// Whether the substitution is a *simplification* of `query`
    /// (Definition 2.1): `θ(head_Q) = head_Q` and `θ(body_Q) ⊆ body_Q`.
    pub fn is_simplification_of(&self, query: &ConjunctiveQuery) -> bool {
        if &self.apply_atom(query.head()) != query.head() {
            return false;
        }
        let body = query.body();
        self.apply_atoms(body).iter().all(|a| body.contains(a))
    }
}

impl fmt::Debug for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (from, to)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{from} ↦ {to}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Variable, Variable)> for Substitution {
    fn from_iter<T: IntoIterator<Item = (Variable, Variable)>>(iter: T) -> Self {
        Substitution::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn example_2_2_first_query_simplifications() {
        // T(x) :- R(x,x), R(x,y), R(x,z) with θ1 = {z ↦ y}, θ2 = {y ↦ x, z ↦ x}.
        let query = q("T(x) :- R(x, x), R(x, y), R(x, z).");
        let theta1 = Substitution::from_names([("x", "x"), ("y", "y"), ("z", "y")]);
        let theta2 = Substitution::from_names([("x", "x"), ("y", "x"), ("z", "x")]);
        assert!(theta1.is_simplification_of(&query));
        assert!(theta2.is_simplification_of(&query));
    }

    #[test]
    fn example_2_2_second_query_simplifications_and_foldings() {
        // T(x) :- R(x,y), R(y,y), R(z,z), R(u,u)
        // θ3 = {z ↦ y, u ↦ z} is a simplification but not a folding;
        // θ4 = {z ↦ y, u ↦ y} is a folding.
        let query = q("T(x) :- R(x, y), R(y, y), R(z, z), R(u, u).");
        let theta3 = Substitution::from_names([("x", "x"), ("y", "y"), ("z", "y"), ("u", "z")]);
        let theta4 = Substitution::from_names([("x", "x"), ("y", "y"), ("z", "y"), ("u", "y")]);
        assert!(theta3.is_simplification_of(&query));
        assert!(theta4.is_simplification_of(&query));
    }

    #[test]
    fn example_2_2_third_query_has_only_identity_simplification() {
        // T(x) :- R(x,y), R(y,z): mapping y or z elsewhere breaks body containment.
        let query = q("T(x) :- R(x, y), R(y, z).");
        let candidates = [
            Substitution::from_names([("y", "x")]),
            Substitution::from_names([("z", "y")]),
            Substitution::from_names([("z", "x")]),
            Substitution::from_names([("y", "z")]),
        ];
        for c in candidates {
            assert!(!c.is_simplification_of(&query), "{c} should not simplify");
        }
        assert!(Substitution::identity().is_simplification_of(&query));
    }

    #[test]
    fn head_must_be_preserved() {
        let query = q("T(x) :- R(x, y).");
        let theta = Substitution::from_names([("x", "y")]);
        assert!(!theta.is_simplification_of(&query));
    }

    #[test]
    fn apply_query_deduplicates_collapsed_atoms() {
        let query = q("T(x) :- R(x, y), R(x, z).");
        let theta = Substitution::from_names([("z", "y")]);
        let image = theta.apply_query(&query);
        assert_eq!(image.body_size(), 1);
        assert_eq!(image.head(), query.head());
    }

    #[test]
    fn composition_applies_right_then_left() {
        let first = Substitution::from_names([("u", "z")]);
        let second = Substitution::from_names([("z", "y")]);
        let composed = second.compose(&first);
        assert_eq!(composed.apply_var(Variable::new("u")), Variable::new("y"));
        assert_eq!(composed.apply_var(Variable::new("z")), Variable::new("y"));
        assert_eq!(composed.apply_var(Variable::new("w")), Variable::new("w"));
    }

    #[test]
    fn identity_detection() {
        let mut s = Substitution::identity();
        assert!(s.is_identity());
        s.bind(Variable::new("x"), Variable::new("x"));
        assert!(s.is_identity());
        s.bind(Variable::new("x"), Variable::new("y"));
        assert!(!s.is_identity());
        s.unbind(Variable::new("x"));
        assert!(s.is_identity());
    }
}
