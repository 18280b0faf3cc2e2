//! The distribution-policy abstraction.

use std::collections::BTreeSet;

use cq::{Fact, Instance};

use crate::distribute::{ChunkStream, Distribution};
use crate::network::{Network, Node};

/// A distribution policy `P` for a database schema and a network: a total
/// function mapping facts to sets of nodes (Section 2 of the paper).
///
/// Policies may *skip* facts by mapping them to the empty set of nodes (as
/// Hypercube distributions do for facts irrelevant to their query).
///
/// Policies are required to be [`Sync`]: the reshuffle phase shards
/// `nodes_for` calls across worker threads ([`distribute_parallel`]) and the
/// evaluation engine shares the policy with its worker pool.
///
/// [`distribute_parallel`]: DistributionPolicy::distribute_parallel
pub trait DistributionPolicy: Sync {
    /// The network the policy distributes over.
    fn network(&self) -> &Network;

    /// The set of nodes responsible for `fact` (`P(f)`).
    fn nodes_for(&self, fact: &Fact) -> BTreeSet<Node>;

    /// Distributes an instance: computes `dist_P(I)`, the function mapping
    /// every node to its data chunk.
    fn distribute(&self, instance: &Instance) -> Distribution {
        self.distribute_parallel(instance, 1)
    }

    /// Like [`DistributionPolicy::distribute`], but shards the input facts
    /// over up to `workers` scoped threads, each computing `nodes_for` for
    /// its contiguous shard. The resulting distribution is identical to the
    /// single-threaded one — both are the materialized [`ChunkStream`] —
    /// only the reshuffle wall-clock changes.
    fn distribute_parallel(&self, instance: &Instance, workers: usize) -> Distribution {
        self.distribute_stream(instance, workers).materialize()
    }

    /// Streaming reshuffle: computes `dist_P(I)` as borrowed per-node fact
    /// slices instead of owned chunks (see [`ChunkStream`]). With
    /// `workers > 1` the `nodes_for` calls are sharded over that many
    /// threads, as in [`DistributionPolicy::distribute_parallel`].
    fn distribute_stream<'a>(&self, instance: &'a Instance, workers: usize) -> ChunkStream<'a> {
        ChunkStream::build(self, instance, workers)
    }

    /// The data chunk of a single node, computed without materializing (or
    /// even visiting) any other node's chunk: the lazy counterpart of
    /// `distribute(instance).chunk(node)`.
    fn for_node_lazy(&self, instance: &Instance, node: Node) -> Instance {
        Instance::from_facts(
            instance
                .facts()
                .filter(|f| self.nodes_for(f).contains(&node))
                .cloned(),
        )
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
