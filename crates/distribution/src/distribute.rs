//! Results of distributing an instance over a network: the fully
//! materialized [`Distribution`] and the borrowed, streaming
//! [`ChunkStream`].

use std::collections::BTreeMap;
use std::fmt;

use cq::{Fact, Instance};

use crate::network::{Network, Node};
use crate::policy::DistributionPolicy;

/// The result of reshuffling an instance under a policy: `dist_P(I)`, the
/// mapping from nodes to their data chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distribution {
    chunks: BTreeMap<Node, Instance>,
}

impl Distribution {
    /// An empty distribution over `network` (every node gets an empty chunk).
    pub fn empty(network: &Network) -> Distribution {
        Distribution {
            chunks: network.nodes().map(|n| (n, Instance::new())).collect(),
        }
    }

    /// Assigns `fact` to `node` (adding the node if it was unknown).
    pub fn assign(&mut self, node: Node, fact: Fact) {
        self.chunks.entry(node).or_default().insert(fact);
    }

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

/// The result of reshuffling an instance under a policy **without**
/// materializing per-node [`Instance`] chunks: every node maps to a vector
/// of facts *borrowed* from the original instance.
///
/// A materialized [`Distribution`] clones every fact once per receiving
/// node, so its peak memory scales with `nodes × facts` (broadcast being the
/// worst case). A `ChunkStream` stores only references; an owned chunk for a
/// node is built on demand by [`ChunkStream::for_node_lazy`] and can be
/// dropped as soon as the node's local evaluation finishes, so with a
/// bounded worker pool the peak number of owned chunks is the pool size, not
/// the network size.
#[derive(Clone, Debug)]
pub struct ChunkStream<'a> {
    source: &'a Instance,
    assignments: BTreeMap<Node, Vec<&'a Fact>>,
    /// Facts of `source` the policy sent to at least one node, counted
    /// while reshuffling.
    distinct_assigned: usize,
}

impl<'a> ChunkStream<'a> {
    /// Reshuffles `instance` under `policy`, recording borrowed per-node
    /// fact slices. With `workers > 1` the `nodes_for` calls are sharded
    /// over that many scoped threads (bounded by the fact count); the result
    /// is identical to the sequential build because a single shard loop
    /// processes contiguous subranges of the instance's deterministic fact
    /// order and shards are merged in shard order (the one-shard case skips
    /// the thread spawn).
    pub fn build<P: DistributionPolicy + ?Sized>(
        policy: &P,
        instance: &'a Instance,
        workers: usize,
    ) -> ChunkStream<'a> {
        let mut assignments: BTreeMap<Node, Vec<&'a Fact>> =
            policy.network().nodes().map(|n| (n, Vec::new())).collect();
        let facts: Vec<&'a Fact> = instance.facts().collect();
        // One OS thread per shard: cap the shard count at twice the
        // machine's parallelism (CPU-bound work gains nothing beyond that,
        // and an oversized --distribute-workers must not exhaust OS thread
        // limits), and never more shards than facts.
        let hw_cap = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .saturating_mul(2);
        let workers = workers.min(hw_cap).clamp(1, facts.len().max(1));
        let assign_shard = |shard: &[&'a Fact]| {
            let mut part: BTreeMap<Node, Vec<&'a Fact>> = BTreeMap::new();
            let mut distinct = 0;
            for &fact in shard {
                let nodes = policy.nodes_for(fact);
                distinct += usize::from(!nodes.is_empty());
                for node in nodes {
                    part.entry(node).or_default().push(fact);
                }
            }
            (part, distinct)
        };
        let shard_len = facts.len().div_ceil(workers).max(1);
        let shards: Vec<&[&'a Fact]> = facts.chunks(shard_len).collect();
        let parts: Vec<(BTreeMap<Node, Vec<&'a Fact>>, usize)> = if shards.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| scope.spawn(move || assign_shard(shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("distribute shard panicked"))
                    .collect()
            })
        } else {
            shards.into_iter().map(assign_shard).collect()
        };
        let mut distinct_assigned = 0;
        for (part, distinct) in parts {
            distinct_assigned += distinct;
            for (node, mut refs) in part {
                assignments.entry(node).or_default().append(&mut refs);
            }
        }
        ChunkStream {
            source: instance,
            assignments,
            distinct_assigned,
        }
    }

    /// The nodes of the stream in node order (every network node, plus any
    /// node the policy assigned facts to).
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.assignments.keys().copied()
    }

    /// The borrowed facts assigned to `node` (empty if the node is unknown).
    pub fn facts_for(&self, node: Node) -> &[&'a Fact] {
        self.assignments
            .get(&node)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The load of `node` (its chunk size) without materializing the chunk.
    pub fn len_of(&self, node: Node) -> usize {
        self.facts_for(node).len()
    }

    /// Number of node entries in the stream.
    pub fn chunk_count(&self) -> usize {
        self.assignments.len()
    }

    /// Materializes the owned chunk of a single node on demand — the
    /// streaming counterpart of [`Distribution::chunk`]. The caller decides
    /// the chunk's lifetime, so a worker pool keeps at most one owned chunk
    /// alive per worker.
    pub fn for_node_lazy(&self, node: Node) -> Instance {
        Instance::from_facts(self.facts_for(node).iter().map(|&f| f.clone()))
    }

    /// Materializes the whole stream into a [`Distribution`]: every chunk
    /// is bulk-built from its (already ordered) slice, exactly as
    /// [`ChunkStream::for_node_lazy`] builds one.
    pub fn materialize(&self) -> Distribution {
        Distribution {
            chunks: self
                .nodes()
                .map(|node| (node, self.for_node_lazy(node)))
                .collect(),
        }
    }

    /// Communication and balance statistics, identical to the stats of the
    /// materialized [`Distribution`] of the same policy and instance.
    /// Against the instance the stream was built from — every engine's
    /// case — they are read off the reshuffle's own counters in `O(nodes)`;
    /// against any other `original`, `skipped` counts by membership,
    /// exactly like [`Distribution::stats`].
    pub fn stats(&self, original: &Instance) -> DistributionStats {
        let counts = if std::ptr::eq(original, self.source) {
            // The stream borrows its source, so it cannot have changed.
            let skipped = self.source.len() - self.distinct_assigned;
            (self.distinct_assigned, skipped)
        } else {
            union_counts(self.assignments.values().flatten().copied(), original)
        };
        DistributionStats::tally(self.assignments.values().map(Vec::len), counts)
    }
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
    fn tally(
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

    #[test]
    fn assign_and_chunk() {
        let network = Network::with_size(2);
        let mut d = Distribution::empty(&network);
        let f = Fact::from_names("R", &["a", "b"]);
        d.assign(Node::numbered(0), f.clone());
        assert!(d.chunk(Node::numbered(0)).contains(&f));
        assert!(d.chunk(Node::numbered(1)).is_empty());
        assert!(d.chunk(Node::new("unknown")).is_empty());
    }

    #[test]
    fn union_of_chunks_deduplicates() {
        let network = Network::with_size(2);
        let mut d = Distribution::empty(&network);
        let f = Fact::from_names("R", &["a", "b"]);
        d.assign(Node::numbered(0), f.clone());
        d.assign(Node::numbered(1), f.clone());
        assert_eq!(d.union_of_chunks().len(), 1);
    }

    #[test]
    fn stats_measure_replication_and_skipped() {
        let network = Network::with_size(2);
        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["b", "c"]);
        let f3 = Fact::from_names("R", &["c", "d"]);
        let original = Instance::from_facts([f1.clone(), f2.clone(), f3.clone()]);

        let mut d = Distribution::empty(&network);
        d.assign(Node::numbered(0), f1.clone());
        d.assign(Node::numbered(1), f1.clone());
        d.assign(Node::numbered(0), f2.clone());
        // f3 skipped

        let stats = d.stats(&original);
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.total_assigned, 3);
        assert_eq!(stats.distinct_assigned, 2);
        assert_eq!(stats.max_load, 2);
        assert_eq!(stats.skipped, 1);
        assert!((stats.replication_factor - 1.5).abs() < 1e-9);
    }
}
