//! The reshuffle of an instance over a network, `dist_P(I)`, and its
//! [`Distribution`] of per-node chunks.

use std::collections::BTreeMap;
use std::fmt;

use cq::{Fact, Instance};

use crate::hypercube::HypercubePolicy;
use crate::network::Node;
use crate::parts::AtomSplit;
use crate::policy::DistributionPolicy;

/// The result of reshuffling an instance under a policy: `dist_P(I)`, the
/// mapping from nodes to their data chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distribution {
    chunks: BTreeMap<Node, Instance>,
}

/// The one reshuffle, `dist_P(I)`: every fact of `instance` goes into the
/// chunk of each node in `policy.nodes_for(fact)`. Every network node gets a
/// chunk, empty or not. Also returns how many facts reached at least one
/// node, so a caller reshuffling its own source reads the statistics off
/// that count in `O(nodes)` instead of [`Distribution::stats`]' sort.
pub(crate) fn reshuffle<P: DistributionPolicy + ?Sized>(
    policy: &P,
    instance: &Instance,
) -> (Distribution, usize) {
    let mut rows: BTreeMap<Node, Vec<&Fact>> =
        policy.network().nodes().map(|n| (n, Vec::new())).collect();
    let mut distinct_assigned = 0;
    for fact in instance.facts() {
        let nodes = policy.nodes_for(fact);
        distinct_assigned += usize::from(!nodes.is_empty());
        for node in nodes {
            rows.entry(node).or_default().push(fact);
        }
    }
    // Each node's rows follow the instance's fact order, so every chunk is
    // bulk-built from an already sorted run, cloned once into place.
    let chunks = rows
        .into_iter()
        .map(|(node, rows)| (node, Instance::from_facts(rows.into_iter().cloned())))
        .collect();
    (Distribution { chunks }, distinct_assigned)
}

/// The split reshuffle of a round (see [`crate::parts`]), in one pass: the
/// fact that rule `k` of `policy` — body atom `k` of its query — sends to a
/// node goes into that node's chunk as a fact of part `k` of `split`.
/// Returns every network node with its chunk and its load, in node order,
/// and how many facts reached at least one node. A node's load counts the
/// distinct facts of `instance` it received, which is exactly the size of
/// its plain chunk, so the statistics of a split round equal those of the
/// plain one.
pub(crate) fn reshuffle_by_atom(
    policy: &HypercubePolicy,
    split: &AtomSplit,
    instance: &Instance,
) -> (Vec<(Node, Instance, usize)>, usize) {
    let (policy, parts) = (policy.as_rules(), split.parts());
    let nodes = policy.network().len();
    // Node-major: the rows of node `n`'s part `k` are `rows[n * parts + k]`.
    let mut rows: Vec<Vec<Fact>> = vec![Vec::new(); nodes * parts.len()];
    let mut loads = vec![0usize; nodes];
    // The position of the last fact counted into each node's load.
    let mut counted = vec![usize::MAX; nodes];
    let mut distinct_assigned = 0;
    for (position, fact) in instance.facts().enumerate() {
        let mut assigned = false;
        policy.for_each_target(fact, |rule, node| {
            rows[node * parts.len() + rule].push(Fact::new(parts[rule], fact.values.clone()));
            if counted[node] != position {
                counted[node] = position;
                loads[node] += 1;
            }
            assigned = true;
        });
        distinct_assigned += usize::from(assigned);
    }
    // A rule matches one relation and visits it in the instance's order,
    // so every part's rows are ascending and move into the chunk as they
    // stand.
    let mut rows = rows.into_iter();
    let mut chunks: Vec<(Node, Instance, usize)> = loads
        .into_iter()
        .enumerate()
        .map(|(node, load)| {
            let blocks = parts
                .iter()
                .copied()
                .zip(rows.by_ref().take(parts.len()))
                .filter(|(_, rows)| !rows.is_empty())
                .collect();
            (
                policy.node_by_index(node),
                Instance::from_relations(blocks),
                load,
            )
        })
        .collect();
    chunks.sort_unstable_by_key(|&(node, ..)| node);
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

    /// Consumes the distribution into owned `(node, chunk)` pairs in node
    /// order — the shipping side of a round hands each chunk to a
    /// [`Transport`](crate::Transport) without re-cloning it.
    pub fn into_chunks(self) -> impl Iterator<Item = (Node, Instance)> {
        self.chunks.into_iter()
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
