//! Valuations: total functions from query variables to data values.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::atom::{Atom, Variable};
use crate::fact::{Fact, Tuple};
use crate::instance::Instance;
use crate::query::ConjunctiveQuery;
use crate::value::Value;

/// A (possibly partial) mapping from variables to data values.
///
/// A valuation *for a query `Q`* in the sense of the paper is a total mapping
/// on `vars(Q)`; [`Valuation::is_total_for`] checks totality. Partial
/// valuations are used internally by the evaluation engine and by the
/// decision procedures (e.g. pre-binding head variables).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Valuation {
    map: BTreeMap<Variable, Value>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Valuation {
        Valuation::default()
    }

    /// Builds a valuation from `(variable, value)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Valuation
    where
        I: IntoIterator<Item = (Variable, Value)>,
    {
        Valuation {
            map: pairs.into_iter().collect(),
        }
    }

    /// Builds a valuation from `(name, value-name)` string pairs.
    pub fn from_names<'a, I>(pairs: I) -> Valuation
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        Valuation {
            map: pairs
                .into_iter()
                .map(|(x, v)| (Variable::new(x), Value::new(v)))
                .collect(),
        }
    }

    /// Binds `var` to `value`, overwriting any previous binding.
    pub fn bind(&mut self, var: Variable, value: Value) {
        self.map.insert(var, value);
    }

    /// Returns a copy with `var` bound to `value`.
    pub fn with(&self, var: Variable, value: Value) -> Valuation {
        let mut v = self.clone();
        v.bind(var, value);
        v
    }

    /// Removes the binding for `var`.
    pub fn unbind(&mut self, var: Variable) {
        self.map.remove(&var);
    }

    /// The value bound to `var`, if any.
    pub fn get(&self, var: Variable) -> Option<Value> {
        self.map.get(&var).copied()
    }

    /// Whether `var` is bound.
    pub fn binds(&self, var: Variable) -> bool {
        self.map.contains_key(&var)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the bindings in variable order.
    pub fn bindings(&self) -> impl Iterator<Item = (Variable, Value)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// The set of values in the image of the valuation.
    pub fn image(&self) -> BTreeSet<Value> {
        self.map.values().copied().collect()
    }

    /// Whether the valuation is injective on its domain.
    pub fn is_injective(&self) -> bool {
        self.image().len() == self.map.len()
    }

    /// Whether the valuation is total on `vars(Q)`.
    pub fn is_total_for(&self, query: &ConjunctiveQuery) -> bool {
        query.variables().iter().all(|&v| self.binds(v))
    }

    /// Applies the valuation to an atom, producing a fact.
    ///
    /// Returns `None` if some argument variable is unbound.
    pub fn apply_atom(&self, atom: &Atom) -> Option<Fact> {
        let values: Option<Tuple> = atom.args.iter().map(|&v| self.get(v)).collect();
        Some(Fact::new(atom.relation, values?))
    }

    /// The facts *required by* the valuation for `Q`, i.e. `V(body_Q)`.
    ///
    /// Panics if the valuation is not total on the body variables.
    pub fn required_facts(&self, query: &ConjunctiveQuery) -> Instance {
        Instance::from_facts(query.body().iter().map(|a| {
            self.apply_atom(a)
                .expect("valuation is not total on the query body")
        }))
    }

    /// The fact derived by the valuation, i.e. `V(head_Q)`.
    ///
    /// Panics if the valuation is not total on the head variables.
    pub fn derived_fact(&self, query: &ConjunctiveQuery) -> Fact {
        self.apply_atom(query.head())
            .expect("valuation is not total on the query head")
    }

    /// Whether the valuation is *satisfying* for `Q` on `instance`: all facts
    /// required by the valuation are present in the instance.
    pub fn satisfies(&self, query: &ConjunctiveQuery, instance: &Instance) -> bool {
        query.body().iter().all(|a| match self.apply_atom(a) {
            Some(f) => instance.contains(&f),
            None => false,
        })
    }

    /// `V₁ ≤_Q V₂`: same derived head fact and `V₁(body_Q) ⊆ V₂(body_Q)`.
    pub fn leq(&self, other: &Valuation, query: &ConjunctiveQuery) -> bool {
        self.derived_fact(query) == other.derived_fact(query)
            && other
                .required_facts(query)
                .contains_all(&self.required_facts(query))
    }

    /// `V₁ <_Q V₂`: `V₁ ≤_Q V₂` and `V₁(body_Q) ⊊ V₂(body_Q)`.
    pub fn lt(&self, other: &Valuation, query: &ConjunctiveQuery) -> bool {
        if self.derived_fact(query) != other.derived_fact(query) {
            return false;
        }
        let mine = self.required_facts(query);
        let theirs = other.required_facts(query);
        theirs.contains_all(&mine) && mine.len() < theirs.len()
    }

    /// Restricts the valuation to the given variables.
    pub fn restrict(&self, vars: &[Variable]) -> Valuation {
        Valuation {
            map: self
                .map
                .iter()
                .filter(|(k, _)| vars.contains(k))
                .map(|(&k, &v)| (k, v))
                .collect(),
        }
    }

    /// Extends the valuation with the bindings of `other`.
    ///
    /// Returns `false` and leaves `self` unchanged on a conflicting binding.
    pub fn try_extend(&mut self, other: &Valuation) -> bool {
        for (var, value) in other.bindings() {
            if let Some(existing) = self.get(var) {
                if existing != value {
                    return false;
                }
            }
        }
        for (var, value) in other.bindings() {
            self.bind(var, value);
        }
        true
    }
}

impl fmt::Debug for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (var, value)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{var} ↦ {value}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Variable, Value)> for Valuation {
    fn from_iter<T: IntoIterator<Item = (Variable, Value)>>(iter: T) -> Self {
        Valuation::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConjunctiveQuery;

    fn example_query() -> ConjunctiveQuery {
        // Example 3.5 of the paper.
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(x, x).").unwrap()
    }

    #[test]
    fn example_3_5_required_facts() {
        let q = example_query();
        let v = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "a")]);
        let required = v.required_facts(&q);
        assert_eq!(required.len(), 3);
        assert!(required.contains(&Fact::from_names("R", &["a", "b"])));
        assert!(required.contains(&Fact::from_names("R", &["b", "a"])));
        assert!(required.contains(&Fact::from_names("R", &["a", "a"])));

        let v2 = Valuation::from_names([("x", "a"), ("y", "a"), ("z", "a")]);
        let required2 = v2.required_facts(&q);
        assert_eq!(required2.len(), 1);
        assert!(required2.contains(&Fact::from_names("R", &["a", "a"])));
    }

    #[test]
    fn example_3_5_ordering_between_valuations() {
        let q = example_query();
        let v = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "a")]);
        let v2 = Valuation::from_names([("x", "a"), ("y", "a"), ("z", "a")]);
        // v2 requires strictly fewer facts and derives the same head fact.
        assert!(v2.lt(&v, &q));
        assert!(v2.leq(&v, &q));
        assert!(!v.lt(&v2, &q));
        assert!(v.leq(&v, &q));
        assert!(!v.lt(&v, &q));
    }

    #[test]
    fn satisfaction_checks_all_body_atoms() {
        let q = example_query();
        let v = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "a")]);
        let mut i = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["b", "a"]),
        ]);
        assert!(!v.satisfies(&q, &i));
        i.insert(Fact::from_names("R", &["a", "a"]));
        assert!(v.satisfies(&q, &i));
    }

    #[test]
    fn totality_and_injectivity() {
        let q = example_query();
        let partial = Valuation::from_names([("x", "a")]);
        assert!(!partial.is_total_for(&q));
        let total = Valuation::from_names([("x", "a"), ("y", "b"), ("z", "c")]);
        assert!(total.is_total_for(&q));
        assert!(total.is_injective());
        let not_inj = Valuation::from_names([("x", "a"), ("y", "a"), ("z", "c")]);
        assert!(!not_inj.is_injective());
    }

    #[test]
    fn try_extend_detects_conflicts() {
        let mut v = Valuation::from_names([("x", "a")]);
        let compatible = Valuation::from_names([("y", "b")]);
        assert!(v.try_extend(&compatible));
        assert_eq!(v.len(), 2);
        let conflicting = Valuation::from_names([("x", "z")]);
        assert!(!v.try_extend(&conflicting));
        assert_eq!(v.get(Variable::new("x")), Some(Value::new("a")));
    }

    #[test]
    fn restrict_keeps_only_requested_vars() {
        let v = Valuation::from_names([("x", "a"), ("y", "b")]);
        let r = v.restrict(&[Variable::new("x")]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(Variable::new("x")), Some(Value::new("a")));
    }

    #[test]
    fn apply_atom_requires_bound_variables() {
        let v = Valuation::from_names([("x", "a")]);
        let atom = Atom::from_names("R", &["x", "y"]);
        assert_eq!(v.apply_atom(&atom), None);
    }

    #[test]
    fn with_and_unbind() {
        let v = Valuation::new().with(Variable::new("x"), Value::new("a"));
        assert!(v.binds(Variable::new("x")));
        let mut v2 = v.clone();
        v2.unbind(Variable::new("x"));
        assert!(v2.is_empty());
    }
}
