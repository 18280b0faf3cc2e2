//! The distribution-policy abstraction.

use std::collections::BTreeSet;

use cq::{Fact, Instance};

use crate::distribute::{reshuffle, Distribution};
use crate::hypercube::HypercubePolicy;
use crate::network::{Network, Node};

/// A distribution policy `P` for a database schema and a network: a total
/// function mapping facts to sets of nodes (Section 2 of the paper).
///
/// Policies may *skip* facts by mapping them to the empty set of nodes (as
/// Hypercube distributions do for facts irrelevant to their query).
///
/// A policy implements [`network`](Self::network) and the addressing
/// visitor [`for_each_node`](Self::for_each_node); the rest is provided.
///
/// Policies are required to be [`Sync`], so one policy can be shared by
/// engines and worker pools on several threads.
pub trait DistributionPolicy: Sync {
    /// The network the policy distributes over.
    fn network(&self) -> &Network;

    /// Visits `P(f)`, the nodes responsible for `fact`, the one way any
    /// layer asks for it: calls `visit(rule, node)` for each node, where
    /// `rule` is the Section 5.2 rule that sent the fact there, or `0` for
    /// a policy without rules. The reshuffle relies on this contract: every
    /// visited node is in [`network`](Self::network), and one rule names a
    /// node at most once (two rules may name the same node).
    fn for_each_node(&self, fact: &Fact, visit: &mut dyn FnMut(usize, Node));

    /// The set of nodes responsible for `fact` (`P(f)`): the visits of
    /// [`for_each_node`](Self::for_each_node), collected.
    fn nodes_for(&self, fact: &Fact) -> BTreeSet<Node> {
        let mut nodes = BTreeSet::new();
        self.for_each_node(fact, &mut |_, node| {
            nodes.insert(node);
        });
        nodes
    }

    /// The policy as a [`HypercubePolicy`], if it is one. A round of the
    /// Hypercube policy's own query, full or delta, ships its chunks split
    /// by body atom (see [`OneRoundEngine`](crate::OneRoundEngine)); every
    /// other policy keeps this default and ships plain chunks.
    fn as_hypercube(&self) -> Option<&HypercubePolicy> {
        None
    }

    /// Distributes an instance: computes `dist_P(I)`, the function mapping
    /// every node to its data chunk `{f ∈ I : node ∈ P(f)}`.
    fn distribute(&self, instance: &Instance) -> Distribution {
        let (chunks, _) = reshuffle(self, None, instance);
        let chunks = chunks.into_iter().map(|(node, chunk, _)| (node, chunk));
        Distribution {
            chunks: chunks.collect(),
        }
    }

    /// Whether all facts required by a set meet at some node:
    /// `⋂_{f ∈ facts} P(f) ≠ ∅`.
    fn facts_meet(&self, facts: &Instance) -> bool {
        self.meeting_nodes(facts).is_some_and(|s| !s.is_empty())
    }

    /// The nodes at which all `facts` meet, or `None` when `facts` is empty
    /// (in which case they trivially meet everywhere).
    fn meeting_nodes(&self, facts: &Instance) -> Option<BTreeSet<Node>> {
        let mut iter = facts.facts();
        let first = iter.next()?;
        let mut nodes = self.nodes_for(first);
        for fact in iter {
            if nodes.is_empty() {
                break;
            }
            let next = self.nodes_for(fact);
            nodes = nodes.intersection(&next).copied().collect();
        }
        Some(nodes)
    }
}

/// A distribution policy with a finite, known fact universe (`Pfin` in the
/// paper): `facts(P)` — the facts `f` with `P(f) ≠ ∅` — can be enumerated.
pub trait FinitePolicy: DistributionPolicy {
    /// The fact universe `facts(P)`.
    fn fact_universe(&self) -> Instance;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitPolicy;

    #[test]
    fn meeting_nodes_intersects_assignments() {
        let network = Network::with_size(3);
        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["b", "c"]);
        let mut policy = ExplicitPolicy::new(network);
        policy.assign(f1.clone(), [Node::numbered(0), Node::numbered(1)]);
        policy.assign(f2.clone(), [Node::numbered(1), Node::numbered(2)]);

        let both = Instance::from_facts([f1.clone(), f2.clone()]);
        let nodes = policy.meeting_nodes(&both).unwrap();
        assert_eq!(nodes, [Node::numbered(1)].into_iter().collect());
        assert!(policy.facts_meet(&both));

        let empty = Instance::new();
        assert!(policy.meeting_nodes(&empty).is_none());
    }

    #[test]
    fn distribute_builds_chunks_per_node() {
        let network = Network::with_size(2);
        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["b", "c"]);
        let mut policy = ExplicitPolicy::new(network);
        policy.assign(f1.clone(), [Node::numbered(0)]);
        policy.assign(f2.clone(), [Node::numbered(0), Node::numbered(1)]);

        let inst = Instance::from_facts([f1.clone(), f2.clone()]);
        let dist = policy.distribute(&inst);
        assert_eq!(dist.chunk(Node::numbered(0)).len(), 2);
        assert_eq!(dist.chunk(Node::numbered(1)).len(), 1);
        assert!(dist.chunk(Node::numbered(1)).contains(&f2));
    }
}
