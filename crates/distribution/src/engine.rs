//! The simulated one-round evaluation algorithm.
//!
//! Given a parallel-correct query/policy pair, the one-round algorithm of the
//! paper (Section 3) proceeds as: reshuffle the input according to the
//! policy, evaluate the query locally at every node without communication,
//! and take the union of the local results. This module simulates that
//! algorithm in memory and reports communication/load statistics and
//! per-node timings.
//!
//! Local evaluation runs either sequentially or on a **bounded worker pool**:
//! `workers` OS threads pull node chunks from a shared queue (an atomic
//! cursor over the chunk list), so a cluster of hundreds of simulated nodes
//! no longer spawns hundreds of threads, and a skewed node keeps only one
//! worker busy while the rest drain the remaining chunks.
//!
//! The reshuffle phase itself has two axes of configuration:
//! [`OneRoundEngine::distribute_workers`] shards the policy's `nodes_for`
//! calls over threads, and [`OneRoundEngine::streaming`] switches from the
//! fully materialized [`Distribution`](crate::Distribution) to a
//! [`ChunkStream`](crate::ChunkStream) of borrowed fact slices: each worker
//! materializes one node's chunk at a time and drops it after evaluating,
//! so the peak number of owned chunks is the pool size, not the network
//! size ([`OneRoundOutcome::peak_chunks`] reports the difference).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cq::{evaluate, evaluate_with, ConjunctiveQuery, EvalOptions, Instance};

use crate::distribute::{ChunkStream, Distribution, DistributionStats};
use crate::network::Node;
use crate::policy::DistributionPolicy;
use crate::transport::{drain_pool, InMemoryTransport, Transport, TransportError};

/// The outcome of a one-round evaluation.
#[derive(Clone, Debug)]
pub struct OneRoundOutcome {
    /// The union of the per-node results.
    pub result: Instance,
    /// Input chunk size at each node (the node's load).
    pub per_node_load: BTreeMap<Node, usize>,
    /// Output size at each node.
    pub per_node_output: BTreeMap<Node, usize>,
    /// Wall-clock time of the local evaluation at each node, so skew is
    /// observable: a straggler shows up as a per-node time far above the
    /// median even when loads look balanced.
    pub per_node_time: BTreeMap<Node, Duration>,
    /// Wall-clock time of the reshuffle (distribution) phase.
    pub distribute_time: Duration,
    /// Wall-clock time of the local-evaluation phase (all nodes).
    pub local_eval_time: Duration,
    /// Number of pool workers used for local evaluation (1 = sequential).
    pub workers: usize,
    /// Peak number of **owned** chunk instances alive at once during the
    /// round — the allocation proxy of the reshuffle path. Materialized
    /// distribution holds every chunk simultaneously (`= nodes`); in
    /// streaming mode this is the *observed* high-water mark of live
    /// chunks, at most one per pool worker.
    pub peak_chunks: usize,
    /// Whether the reshuffle streamed borrowed chunks instead of
    /// materializing a full [`Distribution`](crate::Distribution).
    pub streamed: bool,
    /// Bytes actually serialized onto a process boundary this round, in
    /// both directions (request frames plus the result frames they
    /// provoke), as counted by the transport
    /// ([`Transport::take_bytes_shipped`]) — `0` for in-process rounds,
    /// where nothing is serialized. This is the honest byte-level
    /// counterpart of `stats.total_assigned`, which counts `(fact, node)`
    /// assignments.
    pub comm_bytes: u64,
    /// Hits of the transport's shared index cache this round: how many node
    /// chunks reused another node's indexed instance instead of rebuilding
    /// hash indexes (nonzero only for replicating policies on transports
    /// that keep a cache; see [`Transport::index_cache_stats`]).
    pub index_cache_hits: u64,
    /// Misses of the transport's shared index cache this round (chunks that
    /// entered the cache without finding an equal resident).
    pub index_cache_misses: u64,
    /// Communication/load statistics of the reshuffle phase.
    pub stats: DistributionStats,
}

impl OneRoundOutcome {
    /// The largest per-node output size.
    pub fn max_node_output(&self) -> usize {
        self.per_node_output.values().copied().max().unwrap_or(0)
    }

    /// The longest per-node local evaluation time (the straggler).
    pub fn max_node_time(&self) -> Duration {
        self.per_node_time
            .values()
            .copied()
            .max()
            .unwrap_or_default()
    }

    /// Ratio of the slowest node's local evaluation time to the mean —
    /// `1.0` is perfectly balanced; large values mean one node dominates the
    /// round's makespan.
    pub fn time_skew(&self) -> f64 {
        if self.per_node_time.is_empty() {
            return 1.0;
        }
        let total: Duration = self.per_node_time.values().sum();
        let mean = total.as_secs_f64() / self.per_node_time.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.max_node_time().as_secs_f64() / mean
        }
    }
}

/// A simulated cluster executing the one-round algorithm for a policy.
pub struct OneRoundEngine<'a, P: DistributionPolicy + ?Sized> {
    policy: &'a P,
    workers: usize,
    distribute_workers: usize,
    streaming: bool,
    eval_options: EvalOptions,
}

impl<'a, P: DistributionPolicy + ?Sized> OneRoundEngine<'a, P> {
    /// Creates an engine over the given policy (sequential local evaluation,
    /// sequential materialized reshuffle).
    pub fn new(policy: &'a P) -> OneRoundEngine<'a, P> {
        OneRoundEngine {
            policy,
            workers: 1,
            distribute_workers: 1,
            streaming: false,
            eval_options: EvalOptions::default(),
        }
    }

    /// Sets the size of the worker pool evaluating node chunks. `1` (the
    /// default) evaluates sequentially on the calling thread; larger values
    /// spawn that many scoped OS threads which pull chunks from a shared
    /// queue. The pool is bounded by the chunk count, so asking for more
    /// workers than nodes costs nothing.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Evaluates the per-node chunks on a worker pool sized to the machine's
    /// available parallelism (`false` restores sequential evaluation).
    pub fn parallel(self, enabled: bool) -> Self {
        let workers = if enabled {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            1
        };
        self.workers(workers)
    }

    /// Sets the number of threads sharding the reshuffle phase itself
    /// (`nodes_for` calls). `1` (the default) keeps the reshuffle on the
    /// calling thread; the result is identical either way.
    pub fn distribute_workers(mut self, workers: usize) -> Self {
        self.distribute_workers = workers.max(1);
        self
    }

    /// Switches the reshuffle to streaming mode: chunks are handed to the
    /// evaluation workers as borrowed fact slices and materialized one at a
    /// time per worker, so peak memory stops scaling with `nodes × facts`.
    /// The outcome is identical to materialized mode except for
    /// [`OneRoundOutcome::peak_chunks`] and timings.
    pub fn streaming(mut self, enabled: bool) -> Self {
        self.streaming = enabled;
        self
    }

    /// Sets the [`EvalOptions`] every node's local evaluation runs with —
    /// notably the join strategy (`Binary`, `Multiway` or `Auto`). The
    /// options travel with [`Transport::begin_round`], so they apply on
    /// every path: in-process pools, streaming, and wire transports whose
    /// workers live in other processes.
    pub fn eval_options(mut self, options: EvalOptions) -> Self {
        self.eval_options = options;
        self
    }

    /// Runs the one-round algorithm for `query` on `instance`.
    pub fn evaluate(&self, query: &ConjunctiveQuery, instance: &Instance) -> OneRoundOutcome {
        if self.streaming {
            self.evaluate_streaming(query, instance)
        } else {
            self.evaluate_materialized(query, instance)
        }
    }

    /// The materialized path: reshuffle into owned chunks, then ship them
    /// through an [`InMemoryTransport`] whose barrier drains the same
    /// bounded worker pool this engine always used.
    fn evaluate_materialized(
        &self,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> OneRoundOutcome {
        let mut transport = InMemoryTransport::new(self.workers);
        self.evaluate_via(&mut transport, 0, query, instance)
            .expect("the in-memory transport is infallible")
    }

    /// Runs one round of the algorithm through an explicit [`Transport`]:
    /// reshuffle locally, ship every node's chunk, wait at the barrier,
    /// collect the per-node outputs. `round` tags the transport messages
    /// (multi-round runs number their rounds; standalone calls pass 0).
    ///
    /// This is the same algorithm as [`OneRoundEngine::evaluate`] — the
    /// default path is exactly `evaluate_via` over an [`InMemoryTransport`]
    /// — but the chunks may now cross a process boundary, so the call can
    /// fail with a [`TransportError`].
    pub fn evaluate_via(
        &self,
        transport: &mut dyn Transport,
        round: usize,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> Result<OneRoundOutcome, TransportError> {
        let _round_span = obs::span!("one_round", round = round, facts = instance.len());
        let (distribution, stats, distribute_time) = self.reshuffle(instance);

        let local_start = Instant::now();
        transport.begin_round(round, query, self.eval_options)?;
        let mut per_node_load = BTreeMap::new();
        let mut nodes = Vec::new();
        for (node, chunk) in distribution.into_chunks() {
            per_node_load.insert(node, chunk.len());
            nodes.push(node);
            transport.send_chunk(node, chunk)?;
        }
        transport.barrier()?;
        let mut local_results = Vec::with_capacity(nodes.len());
        for &node in &nodes {
            let result = transport.recv_chunk(node)?;
            local_results.push((node, result.output, result.eval_time));
        }
        let local_eval_time = local_start.elapsed();
        let comm_bytes = transport.take_bytes_shipped();
        let cache = transport.index_cache_stats();

        let workers = transport.parallelism().min(nodes.len()).max(1);
        Ok(self.assemble(
            local_results,
            per_node_load,
            distribute_time,
            local_eval_time,
            workers,
            nodes.len(),
            false,
            comm_bytes,
            cache,
            stats,
        ))
    }

    /// `dist_P(instance)` as borrowed per-node slices, with its statistics
    /// (read off the stream's own counters, so they cost `O(nodes)`).
    fn reshuffle_stream<'i>(&self, instance: &'i Instance) -> (ChunkStream<'i>, DistributionStats) {
        let stream = self
            .policy
            .distribute_stream(instance, self.distribute_workers);
        let _span = obs::span!("reshuffle_stats");
        let stats = stream.stats(instance);
        (stream, stats)
    }

    /// The reshuffle phase of a transport round: `dist_P(instance)` as owned
    /// chunks, its statistics, and the phase's wall-clock time.
    fn reshuffle(&self, instance: &Instance) -> (Distribution, DistributionStats, Duration) {
        let start = Instant::now();
        let _span = obs::span!("distribute", facts = instance.len());
        let (stream, stats) = self.reshuffle_stream(instance);
        (stream.materialize(), stats, start.elapsed())
    }

    /// One **incremental** round through a transport: `delta` holds only
    /// the facts that are new since the previous round, the reshuffle
    /// distributes just those, and the nodes — which keep their accumulated
    /// state inside the transport — answer with only their new derivations
    /// ([`Transport::send_delta`]/[`Transport::recv_delta`]).
    ///
    /// Round 0 must ship a (possibly empty) delta chunk to **every** node
    /// so the transport can reset per-node state; later rounds skip nodes
    /// whose delta chunk is empty — they could neither learn nor derive
    /// anything, which is exactly the late-round saving of semi-naive
    /// evaluation. The outcome's `result` is the union of the per-node
    /// *output deltas*, and `per_node_load`/`stats` describe the delta
    /// reshuffle (what was actually shipped), not the accumulated state.
    pub fn evaluate_delta_via(
        &self,
        transport: &mut dyn Transport,
        round: usize,
        query: &ConjunctiveQuery,
        delta: &Instance,
    ) -> Result<OneRoundOutcome, TransportError> {
        let _round_span = obs::span!("delta_round", round = round, delta_facts = delta.len());
        let (distribution, stats, distribute_time) = self.reshuffle(delta);

        let local_start = Instant::now();
        transport.begin_round(round, query, self.eval_options)?;
        let mut per_node_load = BTreeMap::new();
        let mut sent = Vec::new();
        let mut skipped = Vec::new();
        for (node, chunk) in distribution.into_chunks() {
            per_node_load.insert(node, chunk.len());
            if round > 0 && chunk.is_empty() {
                skipped.push(node);
                continue;
            }
            sent.push(node);
            transport.send_delta(node, chunk)?;
        }
        transport.barrier()?;
        let mut local_results = Vec::with_capacity(sent.len() + skipped.len());
        for &node in &sent {
            let result = transport.recv_delta(node)?;
            local_results.push((node, result.output, result.eval_time));
        }
        for node in skipped {
            local_results.push((node, Instance::new(), Duration::ZERO));
        }
        let local_eval_time = local_start.elapsed();
        let comm_bytes = transport.take_bytes_shipped();
        let cache = transport.index_cache_stats();

        let workers = transport.parallelism().min(sent.len()).max(1);
        let peak_chunks = sent.len();
        Ok(self.assemble(
            local_results,
            per_node_load,
            distribute_time,
            local_eval_time,
            workers,
            peak_chunks,
            false,
            comm_bytes,
            cache,
            stats,
        ))
    }

    /// The streaming path: reshuffle into borrowed fact slices, then have
    /// each worker materialize, evaluate and drop one chunk at a time. At
    /// most `workers` owned chunks are alive at any moment.
    fn evaluate_streaming(&self, query: &ConjunctiveQuery, instance: &Instance) -> OneRoundOutcome {
        let _round_span = obs::span!("one_round_streaming", facts = instance.len());
        let distribute_start = Instant::now();
        let (stream, stats) = self.reshuffle_stream(instance);
        let distribute_time = distribute_start.elapsed();
        let nodes: Vec<Node> = stream.nodes().collect();

        let workers = self.workers.min(nodes.len()).max(1);
        // Observed high-water mark of simultaneously-alive owned chunks —
        // measured, not derived from the pool size, so a future change that
        // accidentally keeps chunks alive longer shows up in `peak_chunks`.
        let live_chunks = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let local_start = Instant::now();
        let local_results = drain_pool(&nodes, workers, |&node| {
            let start = Instant::now();
            // Count the chunk as live before building it, so a chunk mid-
            // materialization on another worker is never missed by the peak.
            let alive = live_chunks.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(alive, Ordering::SeqCst);
            // The owned chunk lives only for this evaluation.
            let chunk = stream.for_node_lazy(node);
            let local = evaluate_with(query, &chunk, self.eval_options);
            drop(chunk);
            live_chunks.fetch_sub(1, Ordering::SeqCst);
            (node, local, start.elapsed())
        });
        let local_eval_time = local_start.elapsed();

        let per_node_load = nodes.iter().map(|&n| (n, stream.len_of(n))).collect();
        self.assemble(
            local_results,
            per_node_load,
            distribute_time,
            local_eval_time,
            workers,
            peak.load(Ordering::SeqCst),
            true,
            0,
            (0, 0),
            stats,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        local_results: Vec<(Node, Instance, Duration)>,
        per_node_load: BTreeMap<Node, usize>,
        distribute_time: Duration,
        local_eval_time: Duration,
        workers: usize,
        peak_chunks: usize,
        streamed: bool,
        comm_bytes: u64,
        index_cache: (u64, u64),
        stats: DistributionStats,
    ) -> OneRoundOutcome {
        let _span = obs::span!("merge_results", nodes = local_results.len());
        let mut per_node_output = BTreeMap::new();
        let mut per_node_time = BTreeMap::new();
        for (node, local, took) in &local_results {
            per_node_output.insert(*node, local.len());
            per_node_time.insert(*node, *took);
        }
        // The node outputs are owned: their facts move into the union.
        let result = local_results
            .into_iter()
            .flat_map(|(_, local, _)| local)
            .collect();
        OneRoundOutcome {
            result,
            per_node_load,
            per_node_output,
            per_node_time,
            distribute_time,
            local_eval_time,
            workers,
            peak_chunks,
            streamed,
            comm_bytes,
            index_cache_hits: index_cache.0,
            index_cache_misses: index_cache.1,
            stats,
        }
    }

    /// Whether the one-round result equals the centralized result on this
    /// instance (Definition 3.1: parallel-correctness *on* an instance).
    pub fn is_correct_on(&self, query: &ConjunctiveQuery, instance: &Instance) -> bool {
        self.evaluate(query, instance).result == evaluate(query, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitPolicy;
    use crate::hypercube::HypercubePolicy;
    use crate::network::Network;
    use cq::{parse_instance, Fact};

    fn chain_query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap()
    }

    #[test]
    fn broadcast_policy_is_always_correct() {
        let q = chain_query();
        let i = parse_instance("R(a, b). R(b, c). S(b, c). S(c, d).").unwrap();
        let network = Network::with_size(4);
        let p = ExplicitPolicy::broadcast(&network, &i);
        let engine = OneRoundEngine::new(&p);
        assert!(engine.is_correct_on(&q, &i));
        let outcome = engine.evaluate(&q, &i);
        assert_eq!(outcome.stats.replication_factor, 4.0);
    }

    #[test]
    fn round_robin_policy_loses_answers() {
        // Splitting joining facts over different nodes breaks the join.
        let q = chain_query();
        let i = parse_instance("R(a, b). S(b, c).").unwrap();
        let network = Network::with_size(2);
        let p = ExplicitPolicy::round_robin(&network, &i);
        let engine = OneRoundEngine::new(&p);
        let outcome = engine.evaluate(&q, &i);
        assert!(outcome.result.is_empty());
        assert!(!engine.is_correct_on(&q, &i));
    }

    #[test]
    fn hypercube_engine_matches_centralized_and_reports_stats() {
        let q = chain_query();
        let i = parse_instance(
            "R(a, b). R(b, c). R(c, d). R(d, e). S(b, x). S(c, y). S(d, z). S(e, w).",
        )
        .unwrap();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = OneRoundEngine::new(&p);
        let outcome = engine.evaluate(&q, &i);
        assert_eq!(outcome.result, cq::evaluate(&q, &i));
        assert_eq!(outcome.stats.skipped, 0);
        assert!(outcome.stats.max_load <= i.len());
        assert!(outcome.max_node_output() <= outcome.result.len());
    }

    #[test]
    fn worker_pool_and_sequential_execution_agree() {
        let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let i = parse_instance(
            "E(a, b). E(b, c). E(c, a). E(b, d). E(d, b). E(d, d). E(c, d). E(d, a). E(a, c).",
        )
        .unwrap();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let seq = OneRoundEngine::new(&p).evaluate(&q, &i);
        assert_eq!(seq.workers, 1);
        for workers in [2, 3, 16] {
            let par = OneRoundEngine::new(&p).workers(workers).evaluate(&q, &i);
            assert_eq!(seq.result, par.result);
            assert_eq!(seq.per_node_output, par.per_node_output);
            assert_eq!(seq.per_node_load, par.per_node_load);
            assert!(par.workers >= 2, "pool must actually engage");
        }
        let auto = OneRoundEngine::new(&p).parallel(true).evaluate(&q, &i);
        assert_eq!(seq.result, auto.result);
    }

    #[test]
    fn worker_pool_is_bounded_by_chunk_count() {
        let q = chain_query();
        let i = parse_instance("R(a, b). S(b, c).").unwrap();
        let network = Network::with_size(3);
        let p = ExplicitPolicy::broadcast(&network, &i);
        let outcome = OneRoundEngine::new(&p).workers(64).evaluate(&q, &i);
        assert_eq!(outcome.workers, 3, "64 requested, but only 3 chunks exist");
    }

    #[test]
    fn outcome_reports_per_node_load_and_time() {
        let q = chain_query();
        let i = parse_instance("R(a, b). S(b, c). R(c, b). S(b, a).").unwrap();
        let network = Network::with_size(3);
        let p = ExplicitPolicy::broadcast(&network, &i);
        for workers in [1, 2] {
            let outcome = OneRoundEngine::new(&p).workers(workers).evaluate(&q, &i);
            // broadcast: every node holds the full instance and full result
            assert_eq!(outcome.per_node_load.len(), 3);
            assert!(outcome.per_node_load.values().all(|&l| l == i.len()));
            let nodes: Vec<_> = outcome.per_node_output.keys().collect();
            let timed: Vec<_> = outcome.per_node_time.keys().collect();
            assert_eq!(nodes, timed, "every node must report a timing");
            assert!(outcome.local_eval_time >= outcome.max_node_time() / 2);
            assert!(outcome.time_skew() >= 1.0);
        }
    }

    #[test]
    fn streaming_engine_agrees_with_materialized_engine() {
        let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let i = parse_instance(
            "E(a, b). E(b, c). E(c, a). E(b, d). E(d, b). E(d, d). E(c, d). E(d, a). E(a, c).",
        )
        .unwrap();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let materialized = OneRoundEngine::new(&p).evaluate(&q, &i);
        for workers in [1, 2, 4] {
            let streamed = OneRoundEngine::new(&p)
                .workers(workers)
                .streaming(true)
                .evaluate(&q, &i);
            assert!(streamed.streamed);
            assert_eq!(streamed.result, materialized.result);
            assert_eq!(streamed.per_node_load, materialized.per_node_load);
            assert_eq!(streamed.per_node_output, materialized.per_node_output);
            assert_eq!(streamed.stats, materialized.stats);
            // the allocation proxy: at most one owned chunk per worker,
            // versus one per node for the materialized path
            assert!(streamed.peak_chunks <= workers);
            assert_eq!(materialized.peak_chunks, materialized.stats.nodes);
        }
    }

    #[test]
    fn parallel_reshuffle_agrees_with_sequential_reshuffle() {
        let q = chain_query();
        let i = parse_instance(
            "R(a, b). R(b, c). R(c, d). R(d, e). S(b, x). S(c, y). S(d, z). S(e, w).",
        )
        .unwrap();
        let p = HypercubePolicy::uniform(&q, 3).unwrap();
        let seq = OneRoundEngine::new(&p).evaluate(&q, &i);
        for dw in [2, 3, 8] {
            let par = OneRoundEngine::new(&p)
                .distribute_workers(dw)
                .evaluate(&q, &i);
            assert_eq!(seq.result, par.result);
            assert_eq!(seq.per_node_load, par.per_node_load);
            assert_eq!(seq.stats, par.stats);
        }
    }

    #[test]
    fn empty_network_run_is_safe_and_reports_neutral_skew() {
        // A policy over an empty network produces no chunks at all: the
        // outcome must be empty without panicking, and the derived metrics
        // must stay well-defined (no divide-by-zero).
        let q = chain_query();
        let i = parse_instance("R(a, b). S(b, c).").unwrap();
        let p = ExplicitPolicy::new(Network::default());
        for streaming in [false, true] {
            let outcome = OneRoundEngine::new(&p)
                .workers(4)
                .streaming(streaming)
                .evaluate(&q, &i);
            assert!(outcome.result.is_empty());
            assert!(outcome.per_node_time.is_empty());
            assert_eq!(outcome.max_node_output(), 0);
            assert_eq!(outcome.max_node_time(), Duration::ZERO);
            assert_eq!(outcome.time_skew(), 1.0, "empty network must report 1.0");
            assert_eq!(outcome.stats.nodes, 0);
            assert_eq!(outcome.stats.replication_factor, 0.0);
            assert_eq!(outcome.stats.skipped, i.len());
        }
    }

    #[test]
    fn zero_output_run_reports_zero_maxima_and_finite_skew() {
        // Round-robin on a 2-fact join loses every answer: outputs are all
        // zero, and per-node times may all be sub-resolution zeros — the
        // maxima and the skew ratio must still be well-defined.
        let q = chain_query();
        let i = parse_instance("R(a, b). S(b, c).").unwrap();
        let network = Network::with_size(2);
        let p = ExplicitPolicy::round_robin(&network, &i);
        let outcome = OneRoundEngine::new(&p).evaluate(&q, &i);
        assert!(outcome.result.is_empty());
        assert_eq!(outcome.max_node_output(), 0);
        assert!(outcome.per_node_output.values().all(|&o| o == 0));
        let skew = outcome.time_skew();
        assert!(skew.is_finite() && skew >= 1.0, "skew {skew} must be sane");
    }

    #[test]
    fn eval_options_strategies_agree_and_broadcast_reports_cache_hits() {
        use cq::JoinStrategy;
        let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let i = parse_instance(
            "E(a, b). E(b, c). E(c, a). E(b, d). E(d, b). E(c, d). E(d, a). E(a, c).",
        )
        .unwrap();
        let network = Network::with_size(3);
        let p = ExplicitPolicy::broadcast(&network, &i);
        let baseline = OneRoundEngine::new(&p).evaluate(&q, &i);
        for strategy in [
            JoinStrategy::Binary,
            JoinStrategy::Multiway,
            JoinStrategy::Auto,
        ] {
            let outcome = OneRoundEngine::new(&p)
                .eval_options(EvalOptions {
                    join_strategy: strategy,
                    ..EvalOptions::default()
                })
                .evaluate(&q, &i);
            assert_eq!(outcome.result, baseline.result, "{strategy:?}");
        }
        // Broadcast ships three equal chunks: the transport's shared index
        // cache admits one and reuses it twice, and the outcome surfaces it.
        assert_eq!(baseline.index_cache_misses, 1);
        assert_eq!(baseline.index_cache_hits, 2);
        // The streaming path keeps no shared cache and reports zeros.
        let streamed = OneRoundEngine::new(&p).streaming(true).evaluate(&q, &i);
        assert_eq!(streamed.result, baseline.result);
        assert_eq!(streamed.index_cache_hits, 0);
        assert_eq!(streamed.index_cache_misses, 0);
    }

    #[test]
    fn per_node_outputs_sum_to_at_least_the_result() {
        let q = chain_query();
        let i = parse_instance("R(a, b). S(b, c). R(c, b). S(b, a).").unwrap();
        let network = Network::with_size(3);
        let p = ExplicitPolicy::broadcast(&network, &i);
        let outcome = OneRoundEngine::new(&p).evaluate(&q, &i);
        let total: usize = outcome.per_node_output.values().sum();
        assert!(total >= outcome.result.len());
        assert!(outcome.per_node_output.keys().all(|n| network.contains(*n)));
        // sanity: broadcast gives every node the full result
        assert!(outcome
            .per_node_output
            .values()
            .all(|&c| c == outcome.result.len()));
        let _ = Fact::from_names("T", &["a", "c"]);
    }
}
