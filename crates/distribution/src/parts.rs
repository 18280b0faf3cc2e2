//! Atom parts: how a split round keeps apart the facts that arrived for
//! different body atoms.
//!
//! Under the Hypercube policy `P_H` of `Q` every valuation `V` has a *home
//! node* `(h₁(V(x₁)), …, h_k(V(x_k)))`, and all of `V(body_Q)` meets there
//! (Lemma 5.7, [`HypercubePolicy::node_for_valuation`]). A node that
//! evaluates `Q` over its plain chunk derives more than its home
//! valuations whenever `Q` repeats a relation: facts that arrived for
//! different atoms combine into valuations whose home is another node.
//!
//! A *split round* keeps the atoms apart. The fact `R(ā)` that rule `k`
//! (body atom `k`) sends to a node arrives there as the *part fact*
//! `R#k(ā)`, and the nodes evaluate the *split query*, in which atom `k`
//! ranges over `R#k`. A valuation of the split query at node `n` took the
//! fact of every atom from that atom's rule, so `n` agrees with the home of
//! `V` on every variable: each valuation is enumerated exactly once, at its
//! home. `#` cannot be written in the query grammar, so no relation a user
//! names is ever a part.
//!
//! A feedback run's delta rounds split the same way. A node's
//! [`DeltaNode`](crate::DeltaNode) accumulates the part facts of every
//! round, and the semi-naive step of the split query enumerates a valuation
//! through a new fact only where all of its atoms' facts arrived from their
//! own rules: at its home. So within a slot each valuation is derived once,
//! in the first round that has all of its facts, and a node ships only
//! home answers it has not shipped before. A re-shard resets the nodes and
//! ships the whole state under the new slot's policy, split if that policy
//! splits.
//!
//! A query `Q′` whose reshuffle is elided runs over the shards a split
//! round of `Q` left resident ([`Shipment::Resident`]), parts and all, and
//! reads them through a (C3) witness ([`AtomSplit::read`]). A `yes` claim
//! that `Q` transfers to `Q′` under `Q`'s Hypercube implies one
//! (Corollary 5.8): a simplification `θ` of `Q′` and a substitution `ρ` of
//! `Q` with `body_{θ(Q′)} ⊆ ρ(body_Q)`. So atom `i` of `θ(Q′)` is
//! `ρ(A_μ(i))` for an atom `μ(i)` of `Q`, and the nodes evaluate `θ(Q′)`,
//! which has `Q′`'s answers, with atom `i` over the part `R#μ(i)`. A
//! valuation `V′` then reads its facts where rule `μ(i)` sent them: at the
//! nodes that agree with the home of `V′ ∘ ρ` on every variable of `Q` an
//! atom `μ(i)` mentions. The other variables of `Q` are **pinned**: only
//! the nodes at bucket 0 in their dimensions take part, so each valuation
//! is again derived once, at one node.
//!
//! [`HypercubePolicy::node_for_valuation`]: crate::HypercubePolicy::node_for_valuation
//! [`Shipment::Resident`]: crate::Shipment::Resident

use cq::{c3_witness, Atom, C3Witness, ConjunctiveQuery, Symbol, Variable};

/// The split of a query that repeats a relation: one part relation per
/// body atom, and the query that reads them.
#[derive(Clone, Debug)]
pub(crate) struct AtomSplit {
    parts: Vec<Symbol>,
    query: ConjunctiveQuery,
}

impl AtomSplit {
    /// The split of `query`, or `None` when no relation repeats in its
    /// body (every valuation then already has its atoms' facts from one
    /// rule each).
    pub(crate) fn of(query: &ConjunctiveQuery) -> Option<AtomSplit> {
        if !query.has_self_joins() {
            return None;
        }
        let parts: Vec<Symbol> = query
            .body()
            .iter()
            .enumerate()
            .map(|(k, atom)| Symbol::new(&format!("{}#{k}", atom.relation)))
            .collect();
        let body = query
            .body()
            .iter()
            .zip(&parts)
            .map(|(atom, &part)| Atom::new(part, atom.args.clone()))
            .collect();
        let query = query.with_body(body).ok()?;
        Some(AtomSplit { parts, query })
    }

    /// The part relation of every body atom, in body order.
    pub(crate) fn parts(&self) -> &[Symbol] {
        &self.parts
    }

    /// The split query: atom `k` of the original ranges over `parts()[k]`.
    pub(crate) fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// How `query` reads the parts of this split of `anchor` (see the
    /// module docs): the query over the parts, the anchor atom `μ(i)` whose
    /// part its atom `i` reads, and the pinned variables of `anchor`. `None`
    /// when no (C3) witness from `anchor` to `query` exists.
    pub(crate) fn read(
        &self,
        anchor: &ConjunctiveQuery,
        query: &ConjunctiveQuery,
    ) -> Option<(ConjunctiveQuery, Vec<usize>, Vec<Variable>)> {
        let C3Witness { theta, rho } = c3_witness(anchor, query)?;
        let mut body: Vec<Atom> = Vec::new();
        for atom in theta.apply_atoms(query.body()) {
            if !body.contains(&atom) {
                body.push(atom);
            }
        }
        let mut atoms = Vec::with_capacity(body.len());
        for atom in &mut body {
            // Of the anchor atoms with this image, the one with the fewest
            // variables: its part is the smallest and leaves the most pinned.
            let images = anchor.body().iter().enumerate();
            let (k, _) = images
                .filter(|(_, source)| rho.apply_atom(source) == *atom)
                .min_by_key(|(_, source)| source.variables().len())?;
            atom.relation = self.parts[k];
            atoms.push(k);
        }
        let read = ConjunctiveQuery::new(query.head().clone(), body).ok()?;
        let mentioned = |v: Variable| atoms.iter().any(|&k| anchor.body()[k].contains(v));
        let pinned = anchor.variables().into_iter().filter(|&v| !mentioned(v));
        let pinned = pinned.collect();
        Some((read, atoms, pinned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_queries_that_repeat_a_relation_split() {
        let chain = ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap();
        assert!(AtomSplit::of(&chain).is_none());
        let path = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), S(z, z).").unwrap();
        let split = AtomSplit::of(&path).unwrap();
        let names: Vec<&str> = split.parts().iter().map(|p| p.as_str()).collect();
        assert_eq!(names, ["R#0", "R#1", "S#2"]);
        assert_eq!(
            split.query().to_string(),
            "T(x, z) :- R#0(x, y), R#1(y, z), S#2(z, z)."
        );
    }

    #[test]
    fn a_transferring_query_reads_the_parts_through_its_witness() {
        let anchor = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(y, y).").unwrap();
        let split = AtomSplit::of(&anchor).unwrap();
        let read = |text: &str| {
            let query = ConjunctiveQuery::parse(text).unwrap();
            split
                .read(&anchor, &query)
                .map(|(read, atoms, pinned)| (read.to_string(), atoms, pinned))
        };
        // The path query reads the parts of its own atoms: nothing pinned.
        let (path, atoms, pinned) = read("T(x, z) :- R(x, y), R(y, z).").unwrap();
        assert_eq!(path, "T(x, z) :- R#0(x, y), R#1(y, z).");
        assert_eq!((atoms, pinned), (vec![0, 1], vec![]));
        // A loop is the image of R(x, y) and of R(y, y); the loop's part
        // mentions y alone, so x and z are pinned.
        let (loops, atoms, pinned) = read("T(y) :- R(y, y).").unwrap();
        assert_eq!(loops, "T(y) :- R#2(y, y).");
        let names: Vec<&str> = pinned.iter().map(|v| v.as_str()).collect();
        assert_eq!((atoms, names), (vec![2], vec!["x", "z"]));
        // ρ maps R(y, y) to a loop, which the 3-chain lacks, and the other
        // two atoms cannot cover its three: no witness, no read.
        assert!(read("T(x, w) :- R(x, y), R(y, z), R(z, w).").is_none());
    }
}
