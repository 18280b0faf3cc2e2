//! The one-round evaluation algorithm.
//!
//! Given a parallel-correct query/policy pair, the one-round algorithm of the
//! paper (Section 3) proceeds as: reshuffle the input according to the
//! policy, evaluate the query locally at every node without communication,
//! and take the union of the local results. This module runs that
//! algorithm through a [`Transport`] and reports communication/load
//! statistics and per-node timings.
//!
//! There is one round driver, [`run_round`]: *plan the shipments → send →
//! barrier → recv → assemble*. What differs between the kinds of round is
//! only the [`RoundPlan`] it is fed — a full round ships every node its
//! chunk of `dist_P(I)`, a semi-naive round ships only the new facts, a
//! reshuffle-elided round ships nothing and has every node evaluate the
//! shard it already holds. [`OneRoundEngine::evaluate`] is a full round
//! over an [`InMemoryTransport`], whose barrier evaluates on a **bounded
//! worker pool**; [`OneRoundEngine::evaluate_via`] is the same round over
//! any transport. [`OneRoundEngine::distribute_workers`] shards the
//! reshuffle's `nodes_for` calls over threads.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cq::{evaluate, ConjunctiveQuery, EvalOptions, Instance};

use crate::distribute::DistributionStats;
use crate::network::Node;
use crate::policy::DistributionPolicy;
use crate::transport::{InMemoryTransport, Shipment, Transport, TransportError};

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

/// What one round sends where, plus the numbers of the reshuffle that
/// decided it.
pub(crate) struct RoundPlan {
    /// The shipment of every node that takes part in the round.
    shipments: Vec<(Node, Shipment)>,
    /// How many facts the round's reshuffle assigned to each node. Nodes
    /// listed here without a shipment sit the round out and are reported
    /// with an empty output.
    per_node_load: BTreeMap<Node, usize>,
    stats: DistributionStats,
    distribute_time: Duration,
}

impl RoundPlan {
    /// The plan of a reshuffle-free round: every node in `nodes` evaluates
    /// over the shard it already holds. Nothing is distributed, so the
    /// distribution side of the outcome is all zeros.
    pub(crate) fn resident(nodes: &[Node]) -> RoundPlan {
        RoundPlan {
            shipments: nodes.iter().map(|&n| (n, Shipment::Resident)).collect(),
            per_node_load: nodes.iter().map(|&n| (n, 0)).collect(),
            stats: DistributionStats {
                nodes: nodes.len(),
                total_assigned: 0,
                distinct_assigned: 0,
                max_load: 0,
                skipped: 0,
                replication_factor: 0.0,
            },
            distribute_time: Duration::ZERO,
        }
    }

    /// Drops the shipments that carry no facts: past round 0 a node whose
    /// delta chunk is empty can neither learn nor derive anything, which
    /// is exactly the late-round saving of semi-naive evaluation. (Round 0
    /// must reach **every** node so its state is reset.)
    pub(crate) fn skip_empty(&mut self) {
        self.shipments.retain(|(_, shipment)| !shipment.is_empty());
    }
}

/// The one round driver: announce the round, send the plan's shipments,
/// wait at the barrier, collect the per-node outputs and assemble the
/// outcome. `round` tags the transport messages.
pub(crate) fn run_round(
    transport: &mut dyn Transport,
    round: usize,
    query: &ConjunctiveQuery,
    options: EvalOptions,
    plan: RoundPlan,
) -> Result<OneRoundOutcome, TransportError> {
    let RoundPlan {
        shipments,
        per_node_load,
        stats,
        distribute_time,
    } = plan;
    let local_start = Instant::now();
    transport.begin_round(round, query, options)?;
    let mut nodes = Vec::with_capacity(shipments.len());
    for (node, shipment) in shipments {
        nodes.push(node);
        transport.send(node, shipment)?;
    }
    transport.barrier()?;
    let mut per_node_output: BTreeMap<Node, usize> =
        per_node_load.keys().map(|&n| (n, 0)).collect();
    let mut per_node_time: BTreeMap<Node, Duration> =
        per_node_load.keys().map(|&n| (n, Duration::ZERO)).collect();
    let mut outputs = Vec::with_capacity(nodes.len());
    for &node in &nodes {
        let reply = transport.recv(node)?;
        per_node_output.insert(node, reply.output.len());
        per_node_time.insert(node, reply.eval_time);
        outputs.push(reply.output);
    }
    let local_eval_time = local_start.elapsed();
    let comm_bytes = transport.take_bytes_shipped();
    let (index_cache_hits, index_cache_misses) = transport.index_cache_stats();
    let result = {
        let _span = obs::span!("merge_results", nodes = outputs.len());
        // The node outputs are owned: their facts move into the union.
        outputs.into_iter().flatten().collect()
    };
    Ok(OneRoundOutcome {
        result,
        per_node_load,
        per_node_output,
        per_node_time,
        distribute_time,
        local_eval_time,
        workers: transport.parallelism().min(nodes.len()).max(1),
        comm_bytes,
        index_cache_hits,
        index_cache_misses,
        stats,
    })
}

/// A simulated cluster executing the one-round algorithm for a policy.
pub struct OneRoundEngine<'a, P: DistributionPolicy + ?Sized> {
    policy: &'a P,
    workers: usize,
    distribute_workers: usize,
    eval_options: EvalOptions,
}

impl<'a, P: DistributionPolicy + ?Sized> OneRoundEngine<'a, P> {
    /// Creates an engine over the given policy (sequential local evaluation,
    /// sequential reshuffle).
    pub fn new(policy: &'a P) -> OneRoundEngine<'a, P> {
        OneRoundEngine {
            policy,
            workers: 1,
            distribute_workers: 1,
            eval_options: EvalOptions::default(),
        }
    }

    /// Sets the size of the worker pool [`OneRoundEngine::evaluate`]
    /// evaluates node chunks on. `1` (the default) evaluates sequentially
    /// on the calling thread; larger values spawn that many scoped OS
    /// threads which pull chunks from a shared queue. The pool is bounded
    /// by the chunk count, so asking for more workers than nodes costs
    /// nothing.
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

    /// Sets the [`EvalOptions`] every node's local evaluation runs with —
    /// the indexed kernel (the default) or the scan oracle. The
    /// options travel with [`Transport::begin_round`], so they apply on
    /// every transport: the in-process pool and wire workers that live in
    /// other processes.
    pub fn eval_options(mut self, options: EvalOptions) -> Self {
        self.eval_options = options;
        self
    }

    /// Runs the one-round algorithm for `query` on `instance`: exactly
    /// [`OneRoundEngine::evaluate_via`] over an [`InMemoryTransport`] with
    /// the configured worker pool.
    pub fn evaluate(&self, query: &ConjunctiveQuery, instance: &Instance) -> OneRoundOutcome {
        let mut transport = InMemoryTransport::new(self.workers);
        self.evaluate_via(&mut transport, 0, query, instance)
            .expect("the in-memory transport is infallible")
    }

    /// Runs one round of the algorithm through an explicit [`Transport`]:
    /// reshuffle locally, ship every node its full chunk, wait at the
    /// barrier, collect the per-node outputs. `round` tags the transport
    /// messages (multi-round runs number their rounds; standalone calls
    /// pass 0). The chunks may cross a process boundary, so the call can
    /// fail with a [`TransportError`].
    pub fn evaluate_via(
        &self,
        transport: &mut dyn Transport,
        round: usize,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> Result<OneRoundOutcome, TransportError> {
        let _round_span = obs::span!("one_round", round = round, facts = instance.len());
        let plan = self.plan(instance, Shipment::Full);
        run_round(transport, round, query, self.eval_options, plan)
    }

    /// The reshuffle phase of a round: `dist_P(facts)` as one `ship`-kind
    /// shipment per node, with the reshuffle's statistics (read off the
    /// stream's own counters, so they cost `O(nodes)`) and wall-clock
    /// time.
    pub(crate) fn plan(&self, facts: &Instance, ship: fn(Arc<Instance>) -> Shipment) -> RoundPlan {
        let start = Instant::now();
        let _span = obs::span!("distribute", facts = facts.len());
        let stream = self
            .policy
            .distribute_stream(facts, self.distribute_workers);
        let stats = {
            let _span = obs::span!("reshuffle_stats");
            stream.stats(facts)
        };
        let mut per_node_load = BTreeMap::new();
        let mut shipments = Vec::with_capacity(stats.nodes);
        for (node, chunk) in stream.materialize().into_chunks() {
            per_node_load.insert(node, chunk.len());
            shipments.push((node, ship(Arc::new(chunk))));
        }
        RoundPlan {
            shipments,
            per_node_load,
            stats,
            distribute_time: start.elapsed(),
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
        let outcome = OneRoundEngine::new(&p).workers(4).evaluate(&q, &i);
        assert!(outcome.result.is_empty());
        assert!(outcome.per_node_time.is_empty());
        assert_eq!(outcome.max_node_output(), 0);
        assert_eq!(outcome.max_node_time(), Duration::ZERO);
        assert_eq!(outcome.time_skew(), 1.0, "empty network must report 1.0");
        assert_eq!(outcome.stats.nodes, 0);
        assert_eq!(outcome.stats.replication_factor, 0.0);
        assert_eq!(outcome.stats.skipped, i.len());
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
    fn both_evaluators_agree_and_broadcast_reports_cache_hits() {
        let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let i = parse_instance(
            "E(a, b). E(b, c). E(c, a). E(b, d). E(d, b). E(c, d). E(d, a). E(a, c).",
        )
        .unwrap();
        let network = Network::with_size(3);
        let p = ExplicitPolicy::broadcast(&network, &i);
        let baseline = OneRoundEngine::new(&p).evaluate(&q, &i);
        for options in [EvalOptions::Triejoin, EvalOptions::ScanOracle] {
            let outcome = OneRoundEngine::new(&p)
                .eval_options(options)
                .evaluate(&q, &i);
            assert_eq!(outcome.result, baseline.result, "{options:?}");
        }
        // Broadcast ships three equal chunks: the transport's shared index
        // cache admits one and reuses it twice, and the outcome surfaces it.
        assert_eq!(baseline.index_cache_misses, 1);
        assert_eq!(baseline.index_cache_hits, 2);
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
