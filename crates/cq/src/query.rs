//! Conjunctive queries.

use std::collections::BTreeSet;
use std::fmt;

use crate::atom::{Atom, Variable};
use crate::intern::Symbol;
use crate::parser;
use crate::schema::Schema;

/// Errors raised when constructing a [`ConjunctiveQuery`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A head variable does not occur in any body atom (safety violation).
    UnsafeHeadVariable(Variable),
    /// The head relation also occurs in the body (the paper requires the
    /// output relation `T` to be outside the input schema).
    HeadRelationInBody(Symbol),
    /// The body uses the same relation name with two different arities.
    InconsistentArity(Symbol),
    /// The body is empty; the paper's queries have at least one body atom.
    EmptyBody,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsafeHeadVariable(v) => {
                write!(f, "head variable {v} does not occur in the body")
            }
            QueryError::HeadRelationInBody(r) => {
                write!(f, "head relation {r} also occurs in the body")
            }
            QueryError::InconsistentArity(r) => {
                write!(f, "relation {r} is used with two different arities")
            }
            QueryError::EmptyBody => write!(f, "conjunctive query has an empty body"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A conjunctive query `T(x̄) ← R₁(ȳ₁), …, R_n(ȳ_n)`.
///
/// Invariants enforced by [`ConjunctiveQuery::new`]:
///
/// * safety: every head variable occurs in some body atom,
/// * the head relation does not occur in the body,
/// * every body relation is used with a single arity,
/// * the body is non-empty and duplicate atoms are removed (the body is a
///   *set* of atoms, as in the paper).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    head: Atom,
    body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Builds a conjunctive query, enforcing the invariants above.
    pub fn new(head: Atom, body: Vec<Atom>) -> Result<ConjunctiveQuery, QueryError> {
        if body.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        // Deduplicate body atoms, preserving first-occurrence order.
        let mut dedup: Vec<Atom> = Vec::with_capacity(body.len());
        for atom in body {
            if !dedup.contains(&atom) {
                dedup.push(atom);
            }
        }
        // Arity consistency and head-relation check.
        let mut schema = Schema::new();
        for atom in &dedup {
            match schema.arity(atom.relation) {
                Some(a) if a != atom.arity() => {
                    return Err(QueryError::InconsistentArity(atom.relation))
                }
                Some(_) => {}
                None => schema.add(atom.relation, atom.arity()),
            }
            if atom.relation == head.relation {
                return Err(QueryError::HeadRelationInBody(head.relation));
            }
        }
        // Safety.
        let body_vars: BTreeSet<Variable> =
            dedup.iter().flat_map(|a| a.args.iter().copied()).collect();
        for &v in &head.args {
            if !body_vars.contains(&v) {
                return Err(QueryError::UnsafeHeadVariable(v));
            }
        }
        Ok(ConjunctiveQuery { head, body: dedup })
    }

    /// Parses a query from its textual form, e.g.
    /// `"T(x, z) :- R(x, y), R(y, z), R(x, x)."`.
    pub fn parse(text: &str) -> Result<ConjunctiveQuery, crate::ParseError> {
        parser::parse_query(text)
    }

    /// The head atom `head_Q`.
    pub fn head(&self) -> &Atom {
        &self.head
    }

    /// The body atoms `body_Q` (as a duplicate-free list in source order).
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// All variables occurring in the query, in first-occurrence order
    /// (body first, then head — but safety makes head vars a subset of body vars).
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = Vec::new();
        for atom in self.body.iter().chain(std::iter::once(&self.head)) {
            for &v in &atom.args {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// The head variables, deduplicated, in order.
    pub fn head_variables(&self) -> Vec<Variable> {
        self.head.variables()
    }

    /// The set of variables that occur only in the body (existential variables).
    pub fn existential_variables(&self) -> Vec<Variable> {
        let head: BTreeSet<Variable> = self.head.args.iter().copied().collect();
        self.variables()
            .into_iter()
            .filter(|v| !head.contains(v))
            .collect()
    }

    /// The input schema induced by the body.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for atom in &self.body {
            schema.add(atom.relation, atom.arity());
        }
        schema
    }

    /// A query is *full* if every body variable also occurs in the head.
    pub fn is_full(&self) -> bool {
        let head: BTreeSet<Variable> = self.head.args.iter().copied().collect();
        self.body
            .iter()
            .all(|a| a.args.iter().all(|v| head.contains(v)))
    }

    /// A query is *Boolean* if the head has no variables.
    pub fn is_boolean(&self) -> bool {
        self.head.args.is_empty()
    }

    /// A query is *without self-joins* when every body atom has a distinct
    /// relation name.
    pub fn has_self_joins(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.body.iter().any(|a| !seen.insert(a.relation))
    }

    /// The *self-join atoms*: atoms whose relation name occurs more than once
    /// in the body (see Section 4 of the paper, before Lemma 4.8).
    pub fn self_join_atoms(&self) -> Vec<&Atom> {
        self.body
            .iter()
            .filter(|a| {
                self.body
                    .iter()
                    .filter(|b| b.relation == a.relation)
                    .count()
                    > 1
            })
            .collect()
    }

    /// Number of body atoms.
    pub fn body_size(&self) -> usize {
        self.body.len()
    }

    /// Returns a new query with the given body (same head). Used by the
    /// minimization machinery; enforces the same invariants as `new`.
    pub fn with_body(&self, body: Vec<Atom>) -> Result<ConjunctiveQuery, QueryError> {
        ConjunctiveQuery::new(self.head.clone(), body)
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, atom) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{atom}")?;
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn example_2_2_first_query_parses() {
        let query = q("T(x) :- R(x, x), R(x, y), R(x, z).");
        assert_eq!(query.body_size(), 3);
        assert_eq!(query.variables().len(), 3);
        assert!(!query.is_full());
        assert!(query.has_self_joins());
    }

    #[test]
    fn safety_is_enforced() {
        let head = Atom::from_names("T", &["x", "w"]);
        let body = vec![Atom::from_names("R", &["x", "y"])];
        let err = ConjunctiveQuery::new(head, body).unwrap_err();
        assert_eq!(err, QueryError::UnsafeHeadVariable(Variable::new("w")));
    }

    #[test]
    fn head_relation_cannot_occur_in_body() {
        let head = Atom::from_names("R", &["x"]);
        let body = vec![Atom::from_names("R", &["x", "y"])];
        let err = ConjunctiveQuery::new(head, body).unwrap_err();
        assert!(matches!(err, QueryError::HeadRelationInBody(_)));
    }

    #[test]
    fn inconsistent_arities_are_rejected() {
        let head = Atom::from_names("T", &["x"]);
        let body = vec![
            Atom::from_names("R", &["x", "y"]),
            Atom::from_names("R", &["x"]),
        ];
        let err = ConjunctiveQuery::new(head, body).unwrap_err();
        assert!(matches!(err, QueryError::InconsistentArity(_)));
    }

    #[test]
    fn empty_body_is_rejected() {
        let head = Atom::from_names("T", &[]);
        assert_eq!(
            ConjunctiveQuery::new(head, vec![]).unwrap_err(),
            QueryError::EmptyBody
        );
    }

    #[test]
    fn duplicate_body_atoms_are_removed() {
        let query = q("T(x) :- R(x, y), R(x, y).");
        assert_eq!(query.body_size(), 1);
    }

    #[test]
    fn fullness_and_booleanness() {
        let full = q("T(x1, x2, x3, x4) :- R(x1, x2), R(x2, x3), R(x3, x4).");
        assert!(full.is_full());
        assert!(!full.is_boolean());

        let boolean = q("T() :- R1(x1, x2), R2(x2, x3), R3(x3, x4).");
        assert!(boolean.is_boolean());
        assert!(!boolean.is_full());
        assert!(!boolean.has_self_joins());
    }

    #[test]
    fn self_join_atoms_are_detected() {
        let query = q("T() :- R(x1, x2), R(x2, x1), S(x1).");
        let sj = query.self_join_atoms();
        assert_eq!(sj.len(), 2);
        assert!(sj.iter().all(|a| a.relation == Symbol::new("R")));
    }

    #[test]
    fn existential_variables_are_the_non_head_ones() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        assert_eq!(query.existential_variables(), vec![Variable::new("y")]);
    }

    #[test]
    fn schema_extraction() {
        let query = q("T(x) :- R(x, y), S(y).");
        let schema = query.schema();
        assert_eq!(schema.arity(Symbol::new("R")), Some(2));
        assert_eq!(schema.arity(Symbol::new("S")), Some(1));
        assert!(!schema.contains(Symbol::new("T")));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let reparsed = ConjunctiveQuery::parse(&query.to_string()).unwrap();
        assert_eq!(query, reparsed);
    }
}
