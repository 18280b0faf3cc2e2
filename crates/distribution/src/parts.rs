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
//! A shard that still holds parts when another query runs over it
//! ([`Shipment::Resident`](crate::Shipment::Resident)) is read with its
//! parts merged back into their relations: [`merged_parts`].
//!
//! [`HypercubePolicy::node_for_valuation`]: crate::HypercubePolicy::node_for_valuation

use cq::{Atom, ConjunctiveQuery, Fact, Instance, Symbol};

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
}

/// The relation a part relation `R#k` belongs to, or `None` when
/// `relation` is not a part.
fn whole(relation: Symbol) -> Option<Symbol> {
    let (name, atom) = relation.as_str().rsplit_once('#')?;
    atom.parse::<usize>().ok()?;
    Some(Symbol::new(name))
}

/// `shard` with every part fact `R#k(ā)` merged back into `R(ā)`, or `None`
/// when the shard holds no part. The merged shard is exactly the plain
/// chunk the same reshuffle would have built.
pub fn merged_parts(shard: &Instance) -> Option<Instance> {
    if !shard.relations().any(|relation| whole(relation).is_some()) {
        return None;
    }
    let merged = shard.facts().map(|fact| match whole(fact.relation) {
        Some(relation) => Fact::new(relation, fact.values.clone()),
        None => fact.clone(),
    });
    Some(Instance::from_facts(merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_instance;

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
    fn merging_parts_gives_back_the_plain_chunk() {
        let plain = parse_instance("R(a, b). R(b, c). S(c, c).").unwrap();
        assert!(merged_parts(&plain).is_none());
        let split = Instance::from_facts([
            Fact::from_names("R#0", &["a", "b"]),
            Fact::from_names("R#1", &["a", "b"]),
            Fact::from_names("R#1", &["b", "c"]),
            Fact::from_names("S", &["c", "c"]),
        ]);
        assert_eq!(merged_parts(&split).unwrap(), plain);
    }
}
