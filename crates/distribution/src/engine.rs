//! The one-round evaluation algorithm.
//!
//! Given a parallel-correct query/policy pair, the one-round algorithm of the
//! paper (Section 3) proceeds as: reshuffle the input according to the
//! policy, evaluate the query locally at every node without communication,
//! and take the union of the local results. This module holds the two
//! steps of one round that the round loop of [`crate::MultiRoundEngine`]
//! calls, and the outcome it reports each round in, with
//! communication/load statistics and per-node timings:
//!
//! * [`reshuffle_round`] — the reshuffle: `dist_P(facts)` as a
//!   [`RoundPlan`], one shipment per node;
//! * [`run_round`] — the one round driver: *send → barrier → recv →
//!   assemble* the shipments of one [`RoundPlan`]: full chunks, new facts,
//!   or nothing (the nodes evaluate the shard they hold).
//!
//! Which a round ships, and whether it splits by body atom, the run's
//! [`crate::RunPlan`] decides before the first round. [`OneRoundEngine`] is
//! that loop capped at one round.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cq::{ConjunctiveQuery, Instance};

use crate::distribute::{reshuffle, DistributionStats};
use crate::network::Node;
use crate::parts::AtomSplit;
use crate::plan::ResidentRead;
use crate::policy::DistributionPolicy;
use crate::rounds::{MultiRoundEngine, RoundSchedule};
use crate::transport::{Shipment, Transport, TransportError};

/// The outcome of a one-round evaluation.
#[derive(Clone, Debug)]
pub struct OneRoundOutcome {
    /// The union of the per-node results (shared with its run's result).
    pub result: Arc<Instance>,
    /// Input chunk size at each node (the node's load).
    pub per_node_load: BTreeMap<Node, usize>,
    /// Output size at each node: the distinct answers the node derived.
    /// In a split round (see [`OneRoundEngine`]) a node derives exactly the
    /// answers of the valuations whose home it is, so with a full head the
    /// outputs are disjoint and sum to the result size; in a plain round
    /// node `n` answers `Q(chunk_n)`.
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
    /// Communication/load statistics of the reshuffle phase.
    pub stats: DistributionStats,
}

impl OneRoundOutcome {
    /// Ratio of the slowest node's local evaluation time to the mean —
    /// `1.0` is perfectly balanced; large values mean one node dominates the
    /// round's makespan.
    pub fn time_skew(&self) -> f64 {
        if self.per_node_time.is_empty() {
            return 1.0;
        }
        let total: Duration = self.per_node_time.values().sum();
        let mean = total.as_secs_f64() / self.per_node_time.len() as f64;
        let max = self.per_node_time.values().max().copied();
        if mean == 0.0 {
            1.0
        } else {
            max.unwrap_or_default().as_secs_f64() / mean
        }
    }
}

/// What one round sends where, plus the numbers of the reshuffle that
/// decided it.
pub(crate) struct RoundPlan {
    /// The query the round announces in place of its own: the split query
    /// of a split round, whose chunks hold atom parts, or the read of a
    /// resident round.
    announce: Option<ConjunctiveQuery>,
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
    /// The plan of a reshuffle-free round: every node of the `read`
    /// evaluates its query over the shard it already holds. Nothing is
    /// distributed, so the distribution side of the outcome is all zeros.
    pub(crate) fn resident(read: &ResidentRead) -> RoundPlan {
        let nodes = &read.nodes;
        RoundPlan {
            announce: Some(read.query.clone()),
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

/// The reshuffle phase of a round: `dist_P(facts)` under `policy` as one
/// `ship`-kind shipment per node, with the reshuffle's statistics (read off
/// its own counts, so they cost `O(nodes)`) and wall-clock time. With the
/// `split` of the round's query every chunk is split by body atom and the
/// plan announces the split query; the loads and statistics are those of
/// the plain reshuffle all the same.
pub(crate) fn reshuffle_round(
    policy: &dyn DistributionPolicy,
    facts: &Instance,
    ship: fn(Arc<Instance>) -> Shipment,
    split: Option<&AtomSplit>,
) -> RoundPlan {
    let start = Instant::now();
    let parts = split.map_or(0, |split| split.parts().len());
    let _span = obs::span!("distribute", facts = facts.len(), parts = parts);
    let (chunks, distinct_assigned) = reshuffle(policy, split, facts);
    let stats = {
        let _span = obs::span!("reshuffle_stats");
        DistributionStats::tally(
            chunks.iter().map(|&(_, _, load)| load),
            (distinct_assigned, facts.len() - distinct_assigned),
        )
    };
    let mut per_node_load = BTreeMap::new();
    let mut shipments = Vec::with_capacity(stats.nodes);
    for (node, chunk, load) in chunks {
        per_node_load.insert(node, load);
        shipments.push((node, ship(Arc::new(chunk))));
    }
    RoundPlan {
        announce: split.map(|split| split.query().clone()),
        shipments,
        per_node_load,
        stats,
        distribute_time: start.elapsed(),
    }
}

/// The one round driver: announce the round, send the plan's shipments,
/// wait at the barrier, collect the per-node outputs and assemble the
/// outcome. `round` tags the transport messages.
pub(crate) fn run_round(
    transport: &mut dyn Transport,
    round: usize,
    query: &ConjunctiveQuery,
    plan: RoundPlan,
) -> Result<OneRoundOutcome, TransportError> {
    let RoundPlan {
        announce,
        shipments,
        per_node_load,
        stats,
        distribute_time,
    } = plan;
    let local_start = Instant::now();
    transport.begin_round(round, announce.as_ref().unwrap_or(query))?;
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
    let result = {
        let facts: usize = outputs.iter().map(Instance::len).sum();
        let mut span = obs::span!("merge_results", nodes = outputs.len(), facts = facts);
        // The node outputs are owned: each is freed as it is packed.
        let result = Instance::union_all(outputs);
        span.arg("distinct", result.len());
        Arc::new(result)
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
        stats,
    })
}

/// A simulated cluster executing the one-round algorithm for a policy: the
/// round loop of [`MultiRoundEngine`] capped at one round, in memory.
///
/// A round of the query a [`HypercubePolicy`] was built for is **split by
/// body atom** when that query repeats a relation and every hash of the
/// policy is total: the fact `R(ā)` that rule `k` sends to a node arrives
/// as `R#k(ā)`, and the nodes evaluate the query with atom `k` over `R#k`.
/// A valuation is then found only at its home node
/// ([`HypercubePolicy::node_for_valuation`]), once. Every other round ships
/// the plain chunks of [`DistributionPolicy::distribute`].
///
/// [`HypercubePolicy`]: crate::HypercubePolicy
/// [`HypercubePolicy::node_for_valuation`]: crate::HypercubePolicy::node_for_valuation
pub struct OneRoundEngine<'a> {
    policy: &'a dyn DistributionPolicy,
    workers: usize,
}

impl<'a> OneRoundEngine<'a> {
    /// Creates an engine over the given policy (sequential local
    /// evaluation).
    pub fn new(policy: &'a dyn DistributionPolicy) -> OneRoundEngine<'a> {
        OneRoundEngine { policy, workers: 1 }
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

    /// Runs the one-round algorithm for `query` on `instance`: exactly
    /// [`MultiRoundEngine::evaluate`] over the one-policy schedule, whose
    /// one round this returns. (Through another transport, call
    /// [`MultiRoundEngine::evaluate_via`].)
    pub fn evaluate(&self, query: &ConjunctiveQuery, instance: &Instance) -> OneRoundOutcome {
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(self.policy));
        let mut run = engine.workers(self.workers).evaluate(query, instance);
        run.rounds.pop().expect("a run takes at least one round")
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
        let outcome = OneRoundEngine::new(&p).evaluate(&q, &i);
        assert_eq!(*outcome.result, cq::evaluate(&q, &i));
        assert_eq!(outcome.stats.replication_factor, 4.0);
    }

    #[test]
    fn round_robin_policy_loses_answers() {
        // Splitting joining facts over different nodes breaks the join.
        let q = chain_query();
        let i = parse_instance("R(a, b). S(b, c).").unwrap();
        let network = Network::with_size(2);
        let p = ExplicitPolicy::round_robin(&network, &i);
        let outcome = OneRoundEngine::new(&p).evaluate(&q, &i);
        assert!(outcome.result.is_empty());
        assert_ne!(*outcome.result, cq::evaluate(&q, &i));
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
        assert_eq!(*outcome.result, cq::evaluate(&q, &i));
        assert_eq!(outcome.stats.skipped, 0);
        assert!(outcome.stats.max_load <= i.len());
        assert!(outcome.per_node_output.values().max() <= Some(&outcome.result.len()));
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
            let slowest = *outcome.per_node_time.values().max().unwrap();
            assert!(outcome.local_eval_time >= slowest / 2);
            assert!(outcome.time_skew() >= 1.0);
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
        assert_eq!(outcome.per_node_output.values().max().unwrap_or(&0), &0);
        assert_eq!(outcome.per_node_time.values().max(), None);
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
        assert_eq!(outcome.per_node_output.values().max().unwrap_or(&0), &0);
        assert!(outcome.per_node_output.values().all(|&o| o == 0));
        let skew = outcome.time_skew();
        assert!(skew.is_finite() && skew >= 1.0, "skew {skew} must be sane");
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
