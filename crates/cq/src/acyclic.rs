//! Hypergraphs of conjunctive queries and the GYO acyclicity test.
//!
//! The paper (Appendix D) uses the classical GYO reduction: a query is
//! acyclic when repeatedly (1) removing vertices that occur in only one
//! hyperedge and (2) removing hyperedges contained in other hyperedges
//! reduces the hypergraph to nothing.

use std::collections::BTreeSet;

use crate::atom::Variable;
use crate::query::ConjunctiveQuery;

/// The hypergraph of a conjunctive query: one vertex per variable, one
/// hyperedge per body atom (the set of variables of the atom).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hypergraph {
    edges: Vec<BTreeSet<Variable>>,
}

impl Hypergraph {
    /// Builds the hypergraph of the body of `query`.
    fn from_query(query: &ConjunctiveQuery) -> Hypergraph {
        let mut edges: Vec<BTreeSet<Variable>> = Vec::new();
        for atom in query.body() {
            let edge: BTreeSet<Variable> = atom.args.iter().copied().collect();
            if !edges.contains(&edge) {
                edges.push(edge);
            }
        }
        Hypergraph { edges }
    }

    /// Builds a hypergraph from explicit edges.
    pub fn from_edges(edges: Vec<BTreeSet<Variable>>) -> Hypergraph {
        Hypergraph { edges }
    }

    /// The current hyperedges.
    pub fn edges(&self) -> &[BTreeSet<Variable>] {
        &self.edges
    }

    /// Runs the GYO reduction and reports whether the hypergraph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        let mut edges = self.edges.clone();
        loop {
            let mut changed = false;

            // (1) Remove vertices that occur in exactly one hyperedge.
            let mut vertex_counts: std::collections::BTreeMap<Variable, usize> =
                std::collections::BTreeMap::new();
            for e in &edges {
                for &v in e {
                    *vertex_counts.entry(v).or_insert(0) += 1;
                }
            }
            for e in &mut edges {
                let before = e.len();
                e.retain(|v| vertex_counts.get(v).copied().unwrap_or(0) > 1);
                if e.len() != before {
                    changed = true;
                }
            }

            // (2) Remove empty hyperedges and hyperedges contained in another.
            let mut keep = vec![true; edges.len()];
            for i in 0..edges.len() {
                if edges[i].is_empty() {
                    keep[i] = false;
                    continue;
                }
                for j in 0..edges.len() {
                    if i != j && keep[j] && edges[i].is_subset(&edges[j]) {
                        // break ties so identical edges don't delete each other
                        if edges[i] != edges[j] || i > j {
                            keep[i] = false;
                            break;
                        }
                    }
                }
            }
            if keep.iter().any(|&k| !k) {
                changed = true;
                edges = edges
                    .into_iter()
                    .zip(keep)
                    .filter_map(|(e, k)| if k { Some(e) } else { None })
                    .collect();
            }

            if edges.is_empty() {
                return true;
            }
            if !changed {
                return false;
            }
        }
    }
}

/// Whether the conjunctive query is acyclic (GYO reduction succeeds).
pub fn is_acyclic(query: &ConjunctiveQuery) -> bool {
    Hypergraph::from_query(query).is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn single_atom_queries_are_acyclic() {
        assert!(is_acyclic(&q("T(x) :- R(x, y, z).")));
        assert!(is_acyclic(&q("T() :- R(x).")));
    }

    #[test]
    fn chain_queries_are_acyclic() {
        assert!(is_acyclic(&q("T(x, w) :- R(x, y), R(y, z), R(z, w).")));
    }

    #[test]
    fn star_queries_are_acyclic() {
        assert!(is_acyclic(&q("T(c) :- R(c, x), R(c, y), R(c, z).")));
    }

    #[test]
    fn triangle_query_is_cyclic() {
        assert!(!is_acyclic(&q("T() :- E(x, y), E(y, z), E(z, x).")));
    }

    #[test]
    fn square_cycle_is_cyclic() {
        assert!(!is_acyclic(&q(
            "T() :- E(x, y), E(y, z), E(z, w), E(w, x)."
        )));
    }

    #[test]
    fn cycle_with_covering_atom_is_acyclic() {
        // A single wide atom covering all variables makes any query acyclic
        // (Remark D.3 of the paper uses exactly this trick).
        assert!(is_acyclic(&q(
            "T() :- E(x, y), E(y, z), E(z, x), All(x, y, z)."
        )));
    }

    #[test]
    fn prop_d1_style_query_is_acyclic() {
        // Q from Proposition D.1: color atoms E(c,d) for all distinct pairs
        // plus Fix(r,g,b) — the Fix atom contains all variables.
        assert!(is_acyclic(&q(
            "T() :- E(r, g), E(g, r), E(r, b), E(b, r), E(g, b), E(b, g), Fix(r, g, b)."
        )));
    }

    #[test]
    fn duplicate_edges_do_not_break_gyo() {
        let g = Hypergraph::from_edges(vec![
            [Variable::new("x"), Variable::new("y")]
                .into_iter()
                .collect(),
            [Variable::new("x"), Variable::new("y")]
                .into_iter()
                .collect(),
        ]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn disconnected_acyclic_components() {
        assert!(is_acyclic(&q("T() :- R(x, y), S(u, v).")));
    }
}
