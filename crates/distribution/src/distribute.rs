//! The reshuffle of an instance over a network, `dist_P(I)`, and its
//! [`Distribution`] of per-node chunks.

use std::collections::BTreeMap;
use std::fmt;

use cq::{Fact, Instance};

use crate::network::Node;
use crate::parts::AtomSplit;
use crate::policy::DistributionPolicy;

/// The result of reshuffling an instance under a policy: `dist_P(I)`, the
/// mapping from nodes to their data chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distribution {
    pub(crate) chunks: BTreeMap<Node, Instance>,
}

/// The one reshuffle, `dist_P(I)`, in one pass over
/// [`DistributionPolicy::for_each_node`]: every fact of `instance` goes
/// into the chunk of each node of `P(f)`. A plain round (`split` is
/// `None`) files the fact once per node; a split round (see
/// [`crate::parts`]) files the fact that rule `k` sent to a node under
/// part `k` of `split`, as a fact of that part's relation.
///
/// Returns every network node with its chunk and its load, in node order,
/// and how many facts reached at least one node, so a caller reads the
/// statistics off these counts in `O(nodes)` instead of
/// [`Distribution::stats`]' sort. A node's load counts the distinct facts
/// of `instance` it received, which is the size of its plain chunk, so a
/// split round has the loads and statistics of the plain one.
pub(crate) fn reshuffle<P: DistributionPolicy + ?Sized>(
    policy: &P,
    split: Option<&AtomSplit>,
    instance: &Instance,
) -> (Vec<(Node, Instance, usize)>, usize) {
    let nodes: Vec<Node> = policy.network().nodes().collect();
    let parts = split.map_or(1, |split| split.parts().len());
    // Node-major: the rows of node `i`'s part `k` are `rows[i * parts + k]`.
    // They stay borrowed until the node's chunk is built at its exact size.
    let mut rows: Vec<Vec<&Fact>> = vec![Vec::new(); nodes.len() * parts];
    let mut loads = vec![0usize; nodes.len()];
    // The position of the last fact counted into each node's load.
    let mut counted = vec![usize::MAX; nodes.len()];
    let mut distinct_assigned = 0;
    for (position, fact) in instance.facts().enumerate() {
        let mut assigned = false;
        policy.for_each_node(fact, &mut |rule, node| {
            let slot = nodes
                .binary_search(&node)
                .expect("a policy visits only nodes of its network");
            let fresh = counted[slot] != position;
            if fresh {
                counted[slot] = position;
                loads[slot] += 1;
            }
            if split.is_some() {
                rows[slot * parts + rule].push(fact);
            } else if fresh {
                rows[slot].push(fact);
            }
            assigned = true;
        });
        distinct_assigned += usize::from(assigned);
    }
    // Each row vector follows the instance's fact order — a part's rule
    // matches one relation — so every chunk is built from sorted runs.
    let mut rows = rows.into_iter();
    let chunks = nodes
        .into_iter()
        .zip(loads)
        .map(|(node, load)| {
            let mut node_rows = rows.by_ref().take(parts);
            let chunk = match split {
                None => {
                    let rows = node_rows.next().unwrap_or_default();
                    Instance::from_facts(rows.into_iter().cloned())
                }
                Some(split) => Instance::from_relations(
                    split
                        .parts()
                        .iter()
                        .zip(node_rows)
                        .filter(|(_, rows)| !rows.is_empty())
                        .map(|(&part, rows)| {
                            let facts = rows.iter().map(|f| Fact::new(part, f.values.clone()));
                            (part, facts.collect())
                        })
                        .collect(),
                ),
            };
            (node, chunk, load)
        })
        .collect();
    (chunks, distinct_assigned)
}

impl Distribution {
    /// The data chunk of `node` (empty if the node is unknown).
    pub fn chunk(&self, node: Node) -> &Instance {
        static EMPTY: std::sync::OnceLock<Instance> = std::sync::OnceLock::new();
        self.chunks
            .get(&node)
            .unwrap_or_else(|| EMPTY.get_or_init(Instance::new))
    }

    /// Iterates over `(node, chunk)` pairs in node order.
    pub fn chunks(&self) -> impl Iterator<Item = (Node, &Instance)> + '_ {
        self.chunks.iter().map(|(&n, i)| (n, i))
    }

    /// The nodes of the distribution.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.chunks.keys().copied()
    }

    /// The union of all chunks (the facts that were not skipped).
    pub fn union_of_chunks(&self) -> Instance {
        Instance::from_facts(self.chunks.values().flat_map(Instance::facts).cloned())
    }

    /// Communication and balance statistics of the distribution. The
    /// union of the chunks is counted, never built; `skipped` counts by
    /// membership, so the numbers stay well-defined even against an
    /// `original` the distribution was not built from.
    pub fn stats(&self, original: &Instance) -> DistributionStats {
        DistributionStats::tally(
            self.chunks.values().map(Instance::len),
            union_counts(self.chunks.values().flat_map(Instance::facts), original),
        )
    }
}

/// `(distinct facts among assigned, facts of original not among them)` —
/// the two statistics that need the union of the chunks — by sorting
/// borrowed facts instead of building that union. Chunks arrive as sorted
/// runs, which the merge sort exploits; `original` iterates in the same
/// order, so `skipped` is one merge walk.
fn union_counts<'f>(
    assigned: impl Iterator<Item = &'f Fact>,
    original: &Instance,
) -> (usize, usize) {
    let mut union: Vec<&Fact> = assigned.collect();
    union.sort();
    union.dedup();
    let mut rest = union.iter().peekable();
    let skipped = original
        .facts()
        .filter(|&fact| {
            while rest.next_if(|&&assigned| assigned < fact).is_some() {}
            rest.peek().is_none_or(|&&assigned| assigned != fact)
        })
        .count();
    (union.len(), skipped)
}

/// Load and communication statistics for one distribution of an instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistributionStats {
    /// Number of nodes in the network.
    pub nodes: usize,
    /// Total number of (fact, node) assignments — the communication volume.
    pub total_assigned: usize,
    /// Number of distinct facts that reached at least one node.
    pub distinct_assigned: usize,
    /// Size of the largest chunk — the bottleneck node's load.
    pub max_load: usize,
    /// Facts of the original instance that were skipped (sent nowhere).
    pub skipped: usize,
    /// `total_assigned / distinct_assigned`: average copies per distributed fact.
    pub replication_factor: f64,
}

impl DistributionStats {
    /// The statistics of chunks with the given `loads` whose union was
    /// counted as `(distinct_assigned, skipped)`.
    pub(crate) fn tally(
        loads: impl Iterator<Item = usize>,
        (distinct_assigned, skipped): (usize, usize),
    ) -> DistributionStats {
        let (mut nodes, mut total_assigned, mut max_load) = (0, 0, 0);
        for load in loads {
            nodes += 1;
            total_assigned += load;
            max_load = max_load.max(load);
        }
        DistributionStats {
            nodes,
            total_assigned,
            distinct_assigned,
            max_load,
            skipped,
            replication_factor: if distinct_assigned == 0 {
                0.0
            } else {
                total_assigned as f64 / distinct_assigned as f64
            },
        }
    }
}

impl fmt::Display for DistributionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} total={} distinct={} max_load={} skipped={} replication={:.2}",
            self.nodes,
            self.total_assigned,
            self.distinct_assigned,
            self.max_load,
            self.skipped,
            self.replication_factor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitPolicy;
    use crate::network::Network;

    fn fact(a: &str, b: &str) -> Fact {
        Fact::from_names("R", &[a, b])
    }

    /// `f` at node 0 and `g` at nodes 0 and 1 of a two-node network.
    fn policy(f: &Fact, g: &Fact) -> ExplicitPolicy {
        let mut policy = ExplicitPolicy::new(Network::with_size(2));
        policy.assign(f.clone(), [Node::numbered(0)]);
        policy.assign(g.clone(), [Node::numbered(0), Node::numbered(1)]);
        policy
    }

    #[test]
    fn assign_and_chunk() {
        let (f, g) = (fact("a", "b"), fact("b", "c"));
        let d = policy(&f, &g).distribute(&Instance::from_facts([f.clone()]));
        assert!(d.chunk(Node::numbered(0)).contains(&f));
        assert!(d.chunk(Node::numbered(1)).is_empty());
        assert!(d.chunk(Node::new("unknown")).is_empty());
    }

    #[test]
    fn union_of_chunks_deduplicates() {
        let (f, g) = (fact("a", "b"), fact("b", "c"));
        let d = policy(&f, &g).distribute(&Instance::from_facts([g.clone()]));
        assert_eq!(d.chunk(Node::numbered(0)).len(), 1);
        assert_eq!(d.chunk(Node::numbered(1)).len(), 1);
        assert_eq!(d.union_of_chunks().len(), 1);
    }

    #[test]
    fn stats_measure_replication_and_skipped() {
        let (f1, f2, f3) = (fact("a", "b"), fact("b", "c"), fact("c", "d"));
        let original = Instance::from_facts([f1.clone(), f2.clone(), f3]);
        // f2 at node 0 only, f1 at both nodes, f3 skipped
        let d = policy(&f2, &f1).distribute(&original);

        let stats = d.stats(&original);
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.total_assigned, 3);
        assert_eq!(stats.distinct_assigned, 2);
        assert_eq!(stats.max_load, 2);
        assert_eq!(stats.skipped, 1);
        assert!((stats.replication_factor - 1.5).abs() < 1e-9);
    }
}
