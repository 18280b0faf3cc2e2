//! Multi-round (iterated one-round) evaluation.
//!
//! The paper studies parallel-correctness of a *single* communication round,
//! but its Massively Parallel Communication setting is inherently
//! multi-round: evaluate, reshuffle the outputs, evaluate again.
//! [`MultiRoundEngine`] simulates that loop, one round at a time through
//! the two steps of `engine.rs`: each round reshuffles the current instance
//! under the round's policy (a [`RoundSchedule`] may change policies between rounds),
//! evaluates locally at every node, and merges the round's outputs back into
//! the next round's instance, over any [`Transport`]. A query whose
//! parallel correctness transfers from its anchor, the last query that
//! reshuffled, runs as one reshuffle-free round on the shards the anchor
//! left resident ([`MultiRoundEngine::evaluate_queries_via`]); over shards
//! split into atom parts it reads them through a (C3) witness, so each of
//! its valuations too is derived at one node. A one-round run, the
//! [`OneRoundEngine`](crate::OneRoundEngine)'s included, is this loop
//! capped at one round.
//!
//! Because a conjunctive query's head relation must be outside its input
//! schema, iteration is expressed through an optional **feedback relation**:
//! with `feedback_into("R")`, every output fact `T(d̄)` of a round re-enters
//! the next round as `R(d̄)`. The transitive closure of `R` by repeated
//! squaring is then simply `T(x, z) :- R(x, y), R(y, z)` iterated with
//! feedback into `R`.
//!
//! With feedback, rounds stop at the **fixpoint** (a round adds nothing to
//! the carried state, so no future round can derive anything new) or at the
//! round cap, whichever comes first; [`MultiRoundOutcome::converged`]
//! records which. Since conjunctive queries cannot invent new data values,
//! the reachable states are finite and the centralized iterated evaluation
//! always terminates — [`MultiRoundEngine::reference_fixpoint`] computes
//! that *global* fixpoint, the correctness yardstick for the distributed
//! run (`pc_core::multi_round_correct_on`).
//!
//! **Without feedback** every round evaluates over the input itself, which
//! the loop borrows: the head relation is not in the body. A round's output
//! then depends on its policy alone, so a round on the schedule entry
//! before it would add nothing: the run takes at most one round per entry,
//! and stops converged after the last entry or after a round that added
//! nothing. The global fixpoint is one centralized evaluation.
//!
//! Every decision of a run is made before its first round, by
//! [`MultiRoundEngine::plan`] (see [`RunPlan`]); the loop carries it out.

use std::sync::Arc;
use std::time::Instant;

use cq::{evaluate, evaluate_seminaive_step, ConjunctiveQuery, Fact, Instance, Symbol};

use crate::engine::{reshuffle_round, run_round, OneRoundOutcome, RoundPlan};
use crate::node::absorbed;
use crate::plan::{split_of, Claim, QueryPlan, ResidentRead, RunPlan, Slot};
use crate::policy::DistributionPolicy;
use crate::transport::{InMemoryTransport, Shipment, Transport, TransportError};

/// Decides whether parallel-correctness transfers from the first query to
/// the second. The decision procedure itself (Section 4 of the paper)
/// lives *above* this crate — `pc_core::TransferCache` memoizes
/// `check_transfer` verdicts behind exactly this signature — so the
/// multi-query engine takes the oracle as an argument instead of
/// depending on it.
pub type TransferOracle<'o> = &'o mut dyn FnMut(&ConjunctiveQuery, &ConjunctiveQuery) -> bool;

/// A per-round policy schedule: round `r` uses the `r`-th policy, and the
/// last policy repeats once the schedule is exhausted (so a one-element
/// schedule is simply "the same policy every round").
pub struct RoundSchedule<'a> {
    pub(crate) policies: Vec<&'a dyn DistributionPolicy>,
}

impl<'a> RoundSchedule<'a> {
    /// A schedule repeating a single policy every round.
    pub fn repeat(policy: &'a dyn DistributionPolicy) -> RoundSchedule<'a> {
        RoundSchedule {
            policies: vec![policy],
        }
    }

    /// A schedule from an explicit policy sequence (the last one repeats).
    ///
    /// # Panics
    /// Panics when `policies` is empty: a run's first round needs a policy.
    pub fn of(policies: Vec<&'a dyn DistributionPolicy>) -> RoundSchedule<'a> {
        RoundSchedule::try_of(policies).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RoundSchedule::of`], rejecting an empty sequence with an error.
    fn try_of(policies: Vec<&'a dyn DistributionPolicy>) -> Result<RoundSchedule<'a>, String> {
        if policies.is_empty() {
            return Err("a round schedule needs at least one policy".to_string());
        }
        Ok(RoundSchedule { policies })
    }
}

/// The outcome of a multi-round evaluation.
#[derive(Clone, Debug)]
pub struct MultiRoundOutcome {
    /// The per-round one-round outcomes, in round order, up to the round
    /// that stopped the run (a round that would repeat the last is not run;
    /// see the module docs).
    pub rounds: Vec<OneRoundOutcome>,
    /// The union of all rounds' outputs (head-relation facts), sharing the
    /// rounds' own results instead of copying them.
    pub result: Arc<Instance>,
    /// Whether the run stopped by the stop rule of the module docs, before
    /// exhausting the round cap: no further round could derive anything new.
    pub converged: bool,
    /// How many reshuffles this run elided by evaluating directly on the
    /// shards resident from its anchor (`1` for a run that is a
    /// single resident round, `0` for a run that re-distributed normally).
    pub elided_reshuffles: usize,
    /// The rounds past 0 at which a feedback run re-shipped its whole state
    /// under a new schedule entry (a [`Slot`](crate::Slot)'s first round).
    /// Always empty without feedback, where every round ships its input.
    pub reshard_rounds: Vec<usize>,
}

impl MultiRoundOutcome {
    /// The number of rounds that actually ran.
    pub fn rounds_run(&self) -> usize {
        self.rounds.len()
    }

    /// Cumulative communication volume: total `(fact, node)` assignments
    /// shipped across all reshuffle phases. Each round's statistics
    /// describe what that round **actually distributed**: the input in a
    /// run without feedback; with feedback the whole carried state at
    /// round 0 and at each re-shard, and only the round's delta otherwise.
    pub fn total_comm_volume(&self) -> usize {
        self.rounds.iter().map(|r| r.stats.total_assigned).sum()
    }

    /// Cumulative bytes serialized onto a process boundary across all
    /// rounds, in both directions (requests and results), as counted by
    /// the transport. `0` for purely in-process runs (nothing was
    /// serialized — an honest zero, not an estimate).
    pub fn total_comm_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.comm_bytes).sum()
    }
}

/// The centralized reference for a multi-round run: the global fixpoint of
/// the iterated query, computed without any distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IteratedFixpoint {
    /// The union of all rounds' centralized outputs.
    pub result: Instance,
    /// Rounds needed to reach the fixpoint (including the converging one;
    /// 1 without feedback).
    pub rounds: usize,
}

/// The outcome of a multi-query run ([`MultiRoundEngine::evaluate_queries`]):
/// one [`MultiRoundOutcome`] per query, in input order, plus the transfer
/// bookkeeping of the elision decisions its plan took.
#[derive(Clone, Debug)]
pub struct MultiQueryOutcome {
    /// Per-query outcomes, in the order the queries were given.
    pub per_query: Vec<MultiRoundOutcome>,
    /// How many transferability checks the run's plan asked: one per
    /// elision claim ([`QueryPlan::elide`]).
    pub transfer_checks: usize,
}

impl MultiQueryOutcome {
    /// Total reshuffles elided across all queries: the number of queries
    /// that ran directly on the resident shards of their anchor.
    pub fn elided_reshuffles(&self) -> usize {
        self.per_query.iter().map(|o| o.elided_reshuffles).sum()
    }

    /// Cumulative `(fact, node)` assignments shipped across all queries.
    pub fn total_comm_volume(&self) -> usize {
        self.per_query.iter().map(|o| o.total_comm_volume()).sum()
    }

    /// Cumulative bytes serialized onto a process boundary across all
    /// queries, in both directions (cf.
    /// [`MultiRoundOutcome::total_comm_bytes`]).
    pub fn total_comm_bytes(&self) -> u64 {
        self.per_query.iter().map(|o| o.total_comm_bytes()).sum()
    }
}

/// A simulated cluster iterating the one-round algorithm under a
/// [`RoundSchedule`], with fixpoint detection and a round cap.
pub struct MultiRoundEngine<'a> {
    schedule: RoundSchedule<'a>,
    max_rounds: usize,
    feedback: Option<Symbol>,
    workers: usize,
    reshuffle_always: bool,
    /// The engine's metrics registry: `transfer_checks`, `transfer_hits`,
    /// `transfer_misses` (counted by [`MultiRoundEngine::plan`]) and
    /// `elided_reshuffles` accumulate here across every run.
    registry: std::sync::Arc<obs::Registry>,
}

impl<'a> MultiRoundEngine<'a> {
    /// Creates a single-round engine over `schedule`; raise the cap with
    /// [`MultiRoundEngine::rounds`]. Defaults mirror [`OneRoundEngine`](crate::OneRoundEngine):
    /// sequential evaluation, no feedback relation.
    pub fn new(schedule: RoundSchedule<'a>) -> MultiRoundEngine<'a> {
        MultiRoundEngine {
            schedule,
            max_rounds: 1,
            feedback: None,
            workers: 1,
            reshuffle_always: false,
            registry: std::sync::Arc::new(obs::Registry::new()),
        }
    }

    /// The engine's metrics registry (transfer-oracle and elision
    /// counters; see the field docs).
    pub fn registry(&self) -> std::sync::Arc<obs::Registry> {
        self.registry.clone()
    }

    /// Disables reshuffle elision in [`MultiRoundEngine::evaluate_queries`]:
    /// every query re-distributes from scratch even when transferability
    /// would allow running it on the resident shards. This is the baseline
    /// the comm-bytes saving of elision is measured against.
    pub fn reshuffle_always(mut self, always: bool) -> Self {
        self.reshuffle_always = always;
        self
    }

    /// Sets the round cap (at least 1). The engine stops earlier at the
    /// fixpoint.
    pub fn rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds.max(1);
        self
    }

    /// Renames every round's output facts into `relation` before merging
    /// them into the next round's instance, making the query effectively
    /// recursive (see the module docs).
    pub fn feedback_into(mut self, relation: &str) -> Self {
        self.feedback = Some(Symbol::new(relation));
        self
    }

    /// Pool size of the in-memory transport behind
    /// [`MultiRoundEngine::evaluate`] and
    /// [`MultiRoundEngine::evaluate_queries`] (cf.
    /// [`OneRoundEngine::workers`](crate::OneRoundEngine::workers)); an explicit transport owns its own
    /// parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Ignored: how a round ships follows from the feedback relation (see
    /// the module docs), so a feedback run always ships semi-naive deltas
    /// and any other run full chunks. Kept only because the benchmark
    /// harness calls it; the benchmark change that drops `--semi-naive`
    /// deletes it.
    pub fn semi_naive(self, _enabled: bool) -> Self {
        self
    }

    /// Runs up to the round cap ([`MultiRoundEngine::rounds`])
    /// distribute→local-eval cycles for `query` starting from `instance`:
    /// exactly [`MultiRoundEngine::evaluate_via`] over an
    /// [`InMemoryTransport`] with the configured worker pool.
    pub fn evaluate(&self, query: &ConjunctiveQuery, instance: &Instance) -> MultiRoundOutcome {
        let mut transport = InMemoryTransport::new(self.workers);
        self.evaluate_via(&mut transport, query, instance)
            .expect("in-memory rounds are infallible")
    }

    /// The round loop of one query through `transport`: the run of a
    /// one-query plan ([`MultiRoundEngine::plan`]).
    pub fn evaluate_via(
        &self,
        transport: &mut dyn Transport,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> Result<MultiRoundOutcome, TransportError> {
        // One query has no boundary to ask the oracle about.
        let plan = self.plan(std::slice::from_ref(query), &mut |_, _| false);
        self.run(transport, &plan, &plan.queries()[0], instance)
    }

    /// Carries out one query's slots — full chunks of the borrowed input,
    /// or deltas of the carried state the loop owns — until it converged.
    fn run(
        &self,
        transport: &mut dyn Transport,
        plan: &RunPlan<'_>,
        query: &QueryPlan<'_>,
        instance: &Instance,
    ) -> Result<MultiRoundOutcome, TransportError> {
        // With feedback: the relation, the carried state it grows, and what
        // the previous round added to that state.
        let mut carried = plan
            .feedback
            .map(|relation| (relation, instance.clone(), Instance::new()));
        let mut result = Arc::new(Instance::new());
        let mut rounds = Vec::new();
        let mut reshard_rounds = Vec::new();
        let mut converged = false;
        let round_latency = self.registry.histogram("round_latency_us");
        for round in 0..plan.rounds {
            let round_started = Instant::now();
            let facts = carried
                .as_ref()
                .map_or(instance, |(_, state, _)| state)
                .len();
            let _round_span = obs::span!("eval_round", round = round, facts = facts);
            let slot = query.slot(round);
            let outcome = match &mut carried {
                Some((relation, state, delta)) => {
                    // Delta rounds as numbered towards the transport: 0
                    // resets per-node state and ships the whole state.
                    let delta_round = round - slot.first_round;
                    if delta_round == 0 && round > 0 {
                        obs::instant!("reshard", round = round);
                        reshard_rounds.push(round);
                    }
                    let outcome = {
                        let new_facts = if delta_round == 0 { &*state } else { &*delta };
                        let _span = obs::span!(
                            "delta_round",
                            round = delta_round,
                            delta_facts = new_facts.len()
                        );
                        let mut plan =
                            reshuffle_round(slot.policy, new_facts, Shipment::Delta, slot.split);
                        if delta_round > 0 {
                            plan.skip_empty();
                        }
                        run_round(transport, delta_round, &query.query, plan)?
                    };
                    let _span = obs::span!("merge_round", round = round);
                    merge_output(&mut result, &outcome.result);
                    *delta = feed_back(*relation, &outcome.result, state);
                    converged = delta.is_empty();
                    outcome
                }
                None => {
                    let round_plan =
                        reshuffle_round(slot.policy, instance, Shipment::Full, slot.split);
                    let outcome = run_round(transport, round, &query.query, round_plan)?;
                    let _span = obs::span!("merge_round", round = round);
                    converged = !merge_output(&mut result, &outcome.result)
                        || (round + 1 == plan.rounds && plan.converges_at_cap);
                    outcome
                }
            };
            rounds.push(outcome);
            round_latency
                .record(u64::try_from(round_started.elapsed().as_micros()).unwrap_or(u64::MAX));
            if converged {
                break;
            }
        }
        Ok(MultiRoundOutcome {
            rounds,
            result,
            converged,
            elided_reshuffles: 0,
            reshard_rounds,
        })
    }

    /// Runs a **sequence of queries** over `instance`: where `transfer` says
    /// parallel correctness transfers from a query's anchor (the last query
    /// that reshuffled) to it, the query's reshuffle is **elided** and it
    /// evaluates on the shards the anchor left resident. In-memory convenience over
    /// [`MultiRoundEngine::evaluate_queries_via`].
    pub fn evaluate_queries(
        &self,
        queries: &[ConjunctiveQuery],
        instance: &Instance,
        transfer: TransferOracle<'_>,
    ) -> MultiQueryOutcome {
        let mut transport = InMemoryTransport::new(self.workers);
        self.evaluate_queries_via(&mut transport, queries, instance, transfer)
            .expect("in-memory rounds are infallible")
    }

    /// [`MultiRoundEngine::evaluate_queries`] through an explicit
    /// transport: [`MultiRoundEngine::plan`], then
    /// [`MultiRoundEngine::execute_via`].
    pub fn evaluate_queries_via(
        &self,
        transport: &mut dyn Transport,
        queries: &[ConjunctiveQuery],
        instance: &Instance,
        transfer: TransferOracle<'_>,
    ) -> Result<MultiQueryOutcome, TransportError> {
        let plan = self.plan(queries, transfer);
        self.execute_via(transport, &plan, instance)
    }

    /// The plan of running `queries` on this engine, with `transfer` asked
    /// about every query where elision is possible without data (see
    /// [`RunPlan`]), and about its anchor: the last query before it that
    /// the plan does not elide. A `yes` makes the query correct on *any*
    /// shards the anchor was correct on (paper §4), the resident ones
    /// included; by transitivity that is as sound as a chain of checks
    /// between consecutive queries, and it elides at least as much. Over
    /// shards split into atom parts, a `yes` also takes a (C3) witness
    /// (Corollary 5.8 says one exists); without one it is refused.
    pub fn plan(&self, queries: &[ConjunctiveQuery], transfer: TransferOracle<'_>) -> RunPlan<'a> {
        let _span = obs::span!("plan", queries = queries.len());
        let [checks, hits, misses] = ["transfer_checks", "transfer_hits", "transfer_misses"]
            .map(|name| self.registry.counter(name));
        let policies = &self.schedule.policies;
        let entries = self.max_rounds.min(policies.len());
        let elision = self.feedback.is_none() && !self.reshuffle_always;
        let mut plans: Vec<QueryPlan<'a>> = Vec::with_capacity(queries.len());
        for (index, query) in queries.iter().enumerate() {
            let anchor = plans.iter().rposition(|plan| !plan.elides());
            let elide = anchor.filter(|_| elision).map(|anchor| {
                let transfers = transfer(&queries[anchor], query);
                checks.inc();
                if transfers { &hits } else { &misses }.inc();
                obs::instant!(
                    "elision_claim",
                    query = index,
                    anchor = anchor,
                    transfers = transfers
                );
                let read = transfers.then(|| resident_read(&plans[anchor], query));
                Claim {
                    anchor,
                    transfers,
                    read: read.flatten(),
                }
            });
            let slots = policies[..entries].iter().enumerate();
            let slots = slots.map(|(first_round, &policy)| Slot {
                first_round,
                policy,
                split: split_of(policy, query),
            });
            plans.push(QueryPlan {
                query: query.clone(),
                elide,
                slots: slots.collect(),
            });
        }
        RunPlan {
            queries: plans,
            rounds: match self.feedback {
                Some(_) => self.max_rounds,
                None => entries,
            },
            converges_at_cap: self.max_rounds >= policies.len(),
            feedback: self.feedback,
        }
    }

    /// Carries out `plan` on `instance` through `transport`: a `yes` claim
    /// runs one reshuffle-free round over the shards its anchor left
    /// resident, if the anchor's run converged in its last slot and no
    /// query reshuffled since.
    pub fn execute_via(
        &self,
        transport: &mut dyn Transport,
        plan: &RunPlan<'_>,
        instance: &Instance,
    ) -> Result<MultiQueryOutcome, TransportError> {
        let elisions = self.registry.counter("elided_reshuffles");
        let mut per_query = Vec::with_capacity(plan.queries().len());
        // The query whose shards the nodes hold, where they hold a whole
        // converged run's last slot.
        let mut resident = None;
        for (index, query) in plan.queries().iter().enumerate() {
            let _query_span = obs::span!("query", index = index);
            let read = (query.elide.as_ref())
                .filter(|claim| resident == Some(claim.anchor))
                .and_then(|claim| claim.read.as_ref());
            let outcome = if let Some(read) = read {
                elisions.inc();
                obs::instant!("reshuffle_elided");
                // One reshuffle-free round: every node that takes part
                // evaluates over the shard it already holds. `comm_bytes`
                // still counts whatever result frames a wire transport
                // ships back.
                let nodes = read.nodes.len();
                let _span = obs::span!("resident_round", round = 0, nodes = nodes);
                let round = run_round(transport, 0, &query.query, RoundPlan::resident(read))?;
                MultiRoundOutcome {
                    result: Arc::clone(&round.result),
                    rounds: vec![round],
                    converged: true,
                    elided_reshuffles: 1,
                    reshard_rounds: Vec::new(),
                }
            } else {
                let outcome = self.run(transport, plan, query, instance)?;
                let last_slot = outcome.rounds_run() >= query.slots.len();
                resident = (outcome.converged && last_slot).then_some(index);
                outcome
            };
            per_query.push(outcome);
        }
        Ok(MultiQueryOutcome {
            per_query,
            transfer_checks: plan.transfer_checks(),
        })
    }

    /// The centralized reference: iterates `evaluate(query, ·)` with the
    /// same feedback semantics but **no round cap**, until the global
    /// fixpoint (a repeated state; without feedback, one evaluation).
    /// Terminates on every input because conjunctive queries cannot
    /// introduce new data values, so the set of reachable states over the
    /// input's active domain is finite.
    ///
    /// Semi-naive: round 1 evaluates the input, and every later round only
    /// the valuations through a fact of the last round's delta
    /// (`cq::evaluate_seminaive_step`), feeding back just the answers that
    /// are new. The state only grows, so `Q(Sₖ₊₁) = Q(Sₖ) ∪ step` and every
    /// earlier answer is already in `Sₖ₊₁` under the feedback relation:
    /// each round adds the delta a full re-evaluation of the state would
    /// add, and `result` and `rounds` are those of the naive iteration
    /// (`oracle::rounds::naive_fixpoint` in the test suite).
    pub fn reference_fixpoint(
        &self,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> IteratedFixpoint {
        let mut result = evaluate(query, instance);
        let Some(relation) = self.feedback else {
            return IteratedFixpoint { result, rounds: 1 };
        };
        let mut state = instance.clone();
        let mut delta = absorbed(&mut state, result.len(), |state| {
            feed_back(relation, &result, state)
        });
        let mut rounds = 1;
        while !delta.is_empty() {
            rounds += 1;
            let step = evaluate_seminaive_step(query, &state, &delta);
            let new = absorbed(&mut result, step.len(), |result| result.absorb(&step));
            delta = absorbed(&mut state, new.len(), |state| {
                feed_back(relation, &new, state)
            });
        }
        IteratedFixpoint { result, rounds }
    }
}

/// How `query` reads the shards `anchor`'s last slot leaves resident: as
/// they are when they are plain, through a (C3) witness when they hold
/// atom parts (`None` without one).
fn resident_read(anchor: &QueryPlan<'_>, query: &ConjunctiveQuery) -> Option<ResidentRead> {
    let last = anchor.slots.last()?;
    match last.split {
        Some(_) => last.policy.as_hypercube()?.read_parts(query),
        None => Some(ResidentRead {
            query: query.clone(),
            parts: Vec::new(),
            pinned: Vec::new(),
            nodes: last.policy.network().nodes().collect(),
        }),
    }
}

/// One feedback step shared by [`MultiRoundEngine::evaluate_via`] and
/// [`MultiRoundEngine::reference_fixpoint`], so the distributed run and its
/// centralized yardstick can never drift apart in their feedback/fixpoint
/// semantics: renames a round's `output` into `relation`, absorbs it into
/// the carried `state` and returns what that added — the next round's
/// delta. The state only grows, so an empty return means the state
/// repeated: the fixpoint, after which no round can produce a new fact.
fn feed_back(relation: Symbol, output: &Instance, state: &mut Instance) -> Instance {
    state.absorb(
        &output
            .facts()
            .map(|f| Fact::new(relation, f.values.clone()))
            .collect(),
    )
}

/// Merges a round's `output` into the run's `result`, sharing the first
/// output instead of copying it, and says whether it added a fact.
fn merge_output(result: &mut Arc<Instance>, output: &Arc<Instance>) -> bool {
    if result.is_empty() {
        *result = Arc::clone(output);
        return !output.is_empty();
    }
    !Arc::make_mut(result).absorb(output).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OneRoundEngine;
    use crate::explicit::ExplicitPolicy;
    use crate::hypercube::HypercubePolicy;
    use crate::network::Network;
    use cq::parse_instance;

    fn square_query() -> ConjunctiveQuery {
        // One squaring step of the transitive closure of R.
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
    }

    fn chain_instance(edges: usize) -> Instance {
        parse_instance(
            &(0..edges)
                .map(|i| format!("R(v{i}, v{}).", i + 1))
                .collect::<Vec<_>>()
                .join(" "),
        )
        .unwrap()
    }

    #[test]
    fn single_round_multi_round_matches_one_round_exactly() {
        // `OneRoundEngine` is this loop capped at one round, so the two
        // runs must report the same round; the query's own Hypercube is
        // parallel-correct, so that round answers `Q(I)`.
        let q = square_query();
        let i = chain_instance(5);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let one = OneRoundEngine::new(&p).evaluate(&q, &i);
        let multi = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(1)
            .evaluate(&q, &i);
        assert_eq!(*multi.result, evaluate(&q, &i));
        assert_eq!(multi.result.len(), 4);
        assert_eq!(multi.rounds_run(), 1);
        assert_eq!(multi.result, one.result);
        assert_eq!(multi.rounds[0].result, one.result);
        assert_eq!(multi.rounds[0].per_node_load, one.per_node_load);
        assert_eq!(multi.rounds[0].per_node_output, one.per_node_output);
        assert_eq!(multi.rounds[0].stats, one.stats);
        assert_eq!(multi.total_comm_volume(), one.stats.total_assigned);
        assert!(multi.converged, "a second round would repeat the first");
    }

    #[test]
    fn transitive_closure_converges_and_matches_the_reference() {
        let q = square_query();
        let i = chain_instance(8);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(16)
            .feedback_into("R");
        let outcome = engine.evaluate(&q, &i);
        assert!(
            outcome.converged,
            "8-edge chain closes well within 16 rounds"
        );
        assert!(
            outcome.rounds_run() < 16,
            "fixpoint must stop the loop early"
        );
        // Repeated squaring with carried input closes an 8-edge chain in
        // ceil(log2 8) = 3 productive rounds plus the converging round.
        assert_eq!(outcome.rounds_run(), 4);
        // The result is every pair at distance >= 2 (T is produced only for
        // composed paths): 0..=8 gives 9 vertices, distances 2..=8.
        let expected_pairs: usize = (2..=8).map(|d| 9 - d).sum();
        assert_eq!(outcome.result.len(), expected_pairs);
        let reference = engine.reference_fixpoint(&q, &i);
        assert_eq!(*outcome.result, reference.result);
        assert_eq!(outcome.rounds_run(), reference.rounds);
    }

    #[test]
    fn round_capped_run_reports_not_converged() {
        let q = square_query();
        let i = chain_instance(8);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let outcome = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(2)
            .feedback_into("R")
            .evaluate(&q, &i);
        assert!(!outcome.converged, "2 rounds cannot close an 8-edge chain");
        assert_eq!(outcome.rounds_run(), 2);
        let reference = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(2)
            .feedback_into("R")
            .reference_fixpoint(&q, &i);
        assert!(
            !reference.result.contains_all(&outcome.result)
                || outcome.result.len() < reference.result.len(),
            "the capped run must fall short of the global fixpoint"
        );
    }

    #[test]
    fn without_feedback_the_first_round_converges() {
        // Outputs keep their head relation, which the query does not read:
        // a second round under the same policy would reproduce the first
        // exactly, so the engine does not run it.
        let q = square_query();
        let i = chain_instance(4);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p)).rounds(10);
        let outcome = engine.evaluate(&q, &i);
        assert!(outcome.converged);
        assert_eq!(outcome.rounds_run(), 1);
        assert_eq!(engine.reference_fixpoint(&q, &i).rounds, 1);
        assert_eq!(*outcome.result, cq::evaluate(&q, &i));
    }

    #[test]
    fn schedule_switches_policies_between_rounds() {
        let q = square_query();
        let i = chain_instance(4);
        let network = Network::with_size(3);
        // Round 0 broadcasts (4 nodes of load = whole instance), later
        // rounds use a hypercube (different network size).
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        let hypercube = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::of(vec![&broadcast, &hypercube]))
            .rounds(8)
            .feedback_into("R");
        let outcome = engine.evaluate(&q, &i);
        assert!(outcome.converged);
        assert_eq!(outcome.rounds[0].stats.nodes, 3);
        assert!(outcome.rounds.len() > 1);
        assert_eq!(outcome.rounds[1].stats.nodes, hypercube.network().len());
        assert_eq!(*outcome.result, engine.reference_fixpoint(&q, &i).result);
    }

    #[test]
    fn round_schedule_repeats_its_last_policy() {
        let q = square_query();
        let a = HypercubePolicy::uniform(&q, 2).unwrap();
        let b = HypercubePolicy::uniform(&q, 3).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::of(vec![&a, &b])).rounds(8);
        let plan = engine.feedback_into("R").plan(&[q], &mut |_, _| false);
        let query = &plan.queries()[0];
        assert_eq!(query.slots.len(), 2);
        assert_eq!(query.slot(0).policy.network().len(), a.network().len());
        assert_eq!(query.slot(1).policy.network().len(), b.network().len());
        assert_eq!(query.slot(7).policy.network().len(), b.network().len());
        assert_eq!(query.slot(7).first_round, 1);
    }

    /// Runs `engine` and checks it against the engine-independent oracles:
    /// it converges on the reference fixpoint's answers, in the reference's
    /// rounds (every policy here is parallel-correct for the query).
    fn assert_matches_reference(
        engine: MultiRoundEngine<'_>,
        q: &ConjunctiveQuery,
        i: &Instance,
    ) -> MultiRoundOutcome {
        let outcome = engine.evaluate(q, i);
        let reference = engine.reference_fixpoint(q, i);
        assert!(outcome.converged, "the run did not converge");
        assert_eq!(*outcome.result, reference.result, "results diverged");
        assert_eq!(
            outcome.rounds_run(),
            reference.rounds,
            "round counts diverged"
        );
        outcome
    }

    /// What full rounds ship on the way to the fixpoint of `q` with feedback
    /// into `R`: round `r` reshuffles the whole state of the centralized
    /// iteration under round `r`'s policy (the last one repeats).
    fn full_round_volumes(
        policies: &[&dyn DistributionPolicy],
        q: &ConjunctiveQuery,
        i: &Instance,
    ) -> Vec<usize> {
        let mut state = i.clone();
        let mut volumes = Vec::new();
        loop {
            let policy = policies[volumes.len().min(policies.len() - 1)];
            volumes.push(policy.distribute(&state).stats(&state).total_assigned);
            let output: Instance = evaluate(q, &state)
                .facts()
                .map(|f| Fact::new(Symbol::new("R"), f.values.clone()))
                .collect();
            if state.absorb(&output).is_empty() {
                return volumes;
            }
        }
    }

    #[test]
    fn semi_naive_transitive_closure_matches_full_reevaluation() {
        let q = square_query();
        let i = chain_instance(8);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(16)
            .feedback_into("R")
            .workers(2);
        let semi = assert_matches_reference(engine, &q, &i);
        // The whole point: late rounds ship deltas, not the accumulated
        // state, so the cumulative fact-shipping volume must shrink.
        let full = full_round_volumes(&[&p], &q, &i);
        assert_eq!(semi.rounds_run(), full.len());
        assert!(
            semi.total_comm_volume() < full.iter().sum(),
            "semi-naive shipped {} fact-assignments, full rounds {full:?}",
            semi.total_comm_volume(),
        );
        // Round 0 ships the whole initial instance; every later round ships
        // a strict subset (the delta, not the accumulated state).
        assert_eq!(semi.rounds[0].stats.total_assigned, full[0]);
        for (r, (s, &f)) in semi.rounds.iter().zip(&full).enumerate().skip(1) {
            assert!(
                s.stats.total_assigned < f,
                "round {r}: semi shipped {} >= full {f}",
                s.stats.total_assigned,
            );
        }
    }

    #[test]
    fn semi_naive_round_one_delta_is_the_whole_input() {
        // Round 0 of a feedback run ships everything (every fact is new),
        // making it exactly a full evaluation.
        let q = square_query();
        let i = chain_instance(5);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let semi = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(1)
            .feedback_into("R")
            .evaluate(&q, &i);
        let one = OneRoundEngine::new(&p).evaluate(&q, &i);
        assert_eq!(semi.rounds[0].result, one.result);
        assert_eq!(semi.rounds[0].per_node_load, one.per_node_load);
        assert_eq!(semi.rounds[0].stats, one.stats);
    }

    #[test]
    fn semi_naive_empty_instance_converges_on_empty_round_one_deltas() {
        // Edge case: the very first delta is already empty. Every node
        // receives an empty round-0 chunk, derives nothing, and the run
        // converges after one round.
        let q = square_query();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(4)
            .feedback_into("R");
        let semi = assert_matches_reference(engine, &q, &Instance::new());
        assert_eq!(semi.rounds_run(), 1);
        assert!(semi.result.is_empty());
        assert!(semi.rounds[0].per_node_load.values().all(|&l| l == 0));
    }

    #[test]
    fn semi_naive_feedback_rederiving_only_known_facts_converges() {
        // Edge case: the feedback facts of the productive round are all
        // already present in the input (R(a, c) pre-exists), so the
        // incremental run must recognize quiescence even though the round
        // produced output.
        let q = square_query();
        let i = cq::parse_instance("R(a, b). R(b, c). R(a, c).").unwrap();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(8)
            .feedback_into("R");
        let semi = assert_matches_reference(engine, &q, &i);
        assert_eq!(semi.rounds_run(), 1, "nothing new ever enters the state");
        assert_eq!(*semi.result, cq::parse_instance("T(a, c).").unwrap());
    }

    #[test]
    fn semi_naive_round_cap_short_of_fixpoint_reports_not_converged() {
        // Edge case: the cap stops the run mid-closure, short of the
        // reference fixpoint and without having converged.
        let q = square_query();
        let i = chain_instance(8);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(2)
            .feedback_into("R");
        let semi = engine.evaluate(&q, &i);
        assert!(!semi.converged);
        assert_eq!(semi.rounds_run(), 2);
        let fixpoint = engine.reference_fixpoint(&q, &i);
        assert!(fixpoint.rounds > 2);
        assert!(fixpoint.result.contains_all(&semi.result));
        assert!(semi.result.len() < fixpoint.result.len());
    }

    #[test]
    fn semi_naive_without_feedback_converges_on_the_first_round() {
        // `semi_naive` is inert: without feedback every round is a full
        // round, split by body atom under the query's own Hypercube, with
        // or without it.
        let q = square_query();
        let i = chain_instance(4);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = || MultiRoundEngine::new(RoundSchedule::repeat(&p)).rounds(10);
        let full = engine().evaluate(&q, &i);
        let semi = engine().semi_naive(true).evaluate(&q, &i);
        assert!(semi.converged);
        assert_eq!(semi.rounds_run(), 1);
        assert_eq!(*semi.result, cq::evaluate(&q, &i));
        assert_eq!(semi.result, full.result);
        assert!(semi.reshard_rounds.is_empty());
        // On a chain every answer has one valuation, found at its home node.
        let split: usize = full.rounds[0].per_node_output.values().sum();
        assert_eq!(split, full.result.len());
        for (s, f) in semi.rounds.iter().zip(&full.rounds) {
            assert_eq!(s.stats, f.stats);
            assert_eq!(s.per_node_load, f.per_node_load);
            assert_eq!(s.per_node_output, f.per_node_output);
        }
    }

    #[test]
    fn round_schedule_try_of_rejects_an_empty_sequence() {
        // Regression: `RoundSchedule::of(vec![])` used to build fine and
        // then panic inside `policy_for` on the first round; emptiness is
        // now a construction-time error.
        let err = RoundSchedule::try_of(Vec::new()).err().unwrap();
        assert!(err.contains("at least one policy"), "{err}");
    }

    #[test]
    fn semi_naive_multi_policy_schedule_reshards_and_matches_full_mode() {
        // A schedule that switches policies runs via an explicit re-shard
        // round at the switch and must reach the reference fixpoint.
        let q = square_query();
        let i = chain_instance(8);
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(3));
        let hypercube = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::of(vec![&broadcast, &hypercube]))
            .rounds(16)
            .feedback_into("R");
        let semi = assert_matches_reference(engine, &q, &i);
        assert_eq!(
            semi.reshard_rounds,
            vec![1],
            "the policy switch at round 1 must re-shard"
        );
        // The re-shard round ships the full accumulated state under the
        // new policy, exactly like a full round.
        let full = full_round_volumes(&[&broadcast, &hypercube], &q, &i);
        assert_eq!(semi.rounds[1].stats.total_assigned, full[1]);
    }

    // ------------------------------------------------- multi-query elision

    fn loop_query() -> ConjunctiveQuery {
        // PC transfers from this query to `square_query` (paper §4).
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(y, y).").unwrap()
    }

    fn broadcast_engine<'a>(broadcast: &'a ExplicitPolicy) -> MultiRoundEngine<'a> {
        MultiRoundEngine::new(RoundSchedule::repeat(broadcast)).rounds(4)
    }

    #[test]
    fn transferable_query_sequences_elide_the_reshuffle() {
        let queries = [loop_query(), square_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, c).").unwrap();
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(2));
        let mut checked = Vec::new();
        let outcome = broadcast_engine(&broadcast).evaluate_queries(
            &queries,
            &i,
            &mut |p: &ConjunctiveQuery, q: &ConjunctiveQuery| {
                checked.push((p.clone(), q.clone()));
                true
            },
        );
        assert_eq!(outcome.transfer_checks, 1);
        assert_eq!(outcome.elided_reshuffles(), 1);
        assert_eq!(checked, vec![(queries[0].clone(), queries[1].clone())]);
        // The elided query's answers match a from-scratch evaluation...
        assert_eq!(*outcome.per_query[1].result, cq::evaluate(&queries[1], &i));
        // ...yet it shipped zero input facts.
        assert_eq!(outcome.per_query[1].total_comm_volume(), 0);
        assert!(outcome.per_query[0].total_comm_volume() > 0);
    }

    #[test]
    fn elision_claims_ask_about_the_anchor_that_left_the_shards() {
        // Three queries, all transferring: the shards never move, so the
        // second check is asked about (Q0, Q2), the query that left them,
        // not about (Q1, Q2) — transferability is transitive.
        let queries = [loop_query(), square_query(), loop_query()];
        let i = parse_instance("R(a, a). R(a, b).").unwrap();
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(2));
        let mut pairs = Vec::new();
        let outcome = broadcast_engine(&broadcast).evaluate_queries(
            &queries,
            &i,
            &mut |p: &ConjunctiveQuery, q: &ConjunctiveQuery| {
                pairs.push((p.clone(), q.clone()));
                true
            },
        );
        assert_eq!(outcome.elided_reshuffles(), 2);
        assert_eq!(
            pairs,
            vec![
                (queries[0].clone(), queries[1].clone()),
                (queries[0].clone(), queries[2].clone()),
            ]
        );
        let plan = broadcast_engine(&broadcast).plan(&queries, &mut |_, q| *q == queries[1]);
        let anchors: Vec<_> = plan.queries().iter().map(|q| q.elide.as_ref()).collect();
        let anchors: Vec<_> = anchors.iter().map(|c| c.map(|c| c.anchor)).collect();
        assert_eq!(anchors, [None, Some(0), Some(0)], "Q1 elides: no anchor");
        // A query that reshuffles is the next query's anchor.
        let plan = broadcast_engine(&broadcast).plan(&queries, &mut |_, q| *q == queries[2]);
        let anchors: Vec<_> = plan.queries().iter().map(|q| q.elide.as_ref()).collect();
        let anchors: Vec<_> = anchors.iter().map(|c| c.map(|c| c.anchor)).collect();
        assert_eq!(anchors, [None, Some(0), Some(1)]);
    }

    #[test]
    fn non_transferable_boundaries_reshard_from_scratch() {
        let queries = [square_query(), loop_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, c).").unwrap();
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(2));
        let outcome =
            broadcast_engine(&broadcast).evaluate_queries(&queries, &i, &mut |_, _| false);
        assert_eq!(outcome.transfer_checks, 1);
        assert_eq!(outcome.elided_reshuffles(), 0);
        assert_eq!(*outcome.per_query[1].result, cq::evaluate(&queries[1], &i));
        assert!(
            outcome.per_query[1].total_comm_volume() > 0,
            "a refused transfer must re-shard"
        );
    }

    #[test]
    fn registry_counters_agree_with_outcome_fields() {
        // The migration contract: the outcome's transfer/elision numbers
        // are derived from the engine's metrics registry, so the two views
        // can never drift.
        let queries = [loop_query(), square_query(), loop_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, c).").unwrap();
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(2));
        let engine = broadcast_engine(&broadcast);
        let registry = engine.registry();
        let mut verdicts = [true, false].iter().copied().cycle();
        let outcome = engine.evaluate_queries(&queries, &i, &mut |_, _| verdicts.next().unwrap());
        assert_eq!(
            registry.counter_value("transfer_checks") as usize,
            outcome.transfer_checks
        );
        assert_eq!(
            registry.counter_value("elided_reshuffles") as usize,
            outcome.elided_reshuffles()
        );
        assert_eq!(
            registry.counter_value("transfer_hits") + registry.counter_value("transfer_misses"),
            registry.counter_value("transfer_checks")
        );
        // A second run on the same engine accumulates in the registry but
        // still reports only its own checks in the outcome.
        let again = engine.evaluate_queries(&queries, &i, &mut |_, _| true);
        assert_eq!(again.transfer_checks, 2);
        assert_eq!(
            registry.counter_value("transfer_checks") as usize,
            outcome.transfer_checks + again.transfer_checks
        );
    }

    #[test]
    fn reshuffle_always_never_consults_the_oracle() {
        let queries = [loop_query(), square_query()];
        let i = parse_instance("R(a, a). R(a, b).").unwrap();
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(2));
        let outcome = broadcast_engine(&broadcast)
            .reshuffle_always(true)
            .evaluate_queries(&queries, &i, &mut |_, _| {
                panic!("the baseline must not check transferability")
            });
        assert_eq!(outcome.transfer_checks, 0);
        assert_eq!(outcome.elided_reshuffles(), 0);
    }

    #[test]
    fn unconverged_or_feedback_runs_leave_no_resident_shards() {
        let queries = [loop_query(), square_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, c).").unwrap();
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(2));
        // A two-entry schedule capped at one round: query 1 stops before
        // its second entry ran, so its shards are an intermediate state and
        // must not be reused. Whether a capped run converges is left to the
        // data, so the plan asks about the boundary all the same, and the
        // `yes` is not carried out.
        let capped = MultiRoundEngine::new(RoundSchedule::of(vec![&broadcast, &broadcast]))
            .rounds(1)
            .evaluate_queries(&queries, &i, &mut |_, _| true);
        assert_eq!(capped.transfer_checks, 1);
        assert_eq!(capped.elided_reshuffles(), 0);
        assert!(!capped.per_query[0].converged);
        // A feedback rewrite renames the resident facts, so they are not
        // the state either.
        let feedback = broadcast_engine(&broadcast)
            .rounds(8)
            .feedback_into("R")
            .evaluate_queries(&queries, &i, &mut |_, _| {
                panic!("no resident shards, no transfer check")
            });
        assert_eq!(feedback.transfer_checks, 0);
        assert_eq!(feedback.elided_reshuffles(), 0);
    }

    #[test]
    fn elided_and_resharded_multi_query_runs_agree() {
        // The elision is an optimization, never a semantics change: for a
        // transferring sequence, per-query results and convergence match
        // the reshuffle-always baseline — while
        // shipping strictly fewer fact-assignments. Capped at one round, a
        // query without feedback has converged all the same (a second round
        // would repeat the first), so its shards stay resident too.
        let queries = [loop_query(), square_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, c). R(c, a).").unwrap();
        let broadcast = ExplicitPolicy::total_broadcast(&Network::with_size(3));
        for rounds in [4, 1] {
            let engine = || broadcast_engine(&broadcast).rounds(rounds);
            let elided = engine().evaluate_queries(&queries, &i, &mut |_, _| true);
            let baseline =
                engine()
                    .reshuffle_always(true)
                    .evaluate_queries(&queries, &i, &mut |_, _| true);
            let row = format!("rounds {rounds}");
            assert_eq!(elided.elided_reshuffles(), 1, "{row}");
            assert_eq!(baseline.elided_reshuffles(), 0);
            for (e, b) in elided.per_query.iter().zip(&baseline.per_query) {
                assert_eq!(e.result, b.result, "{row}");
                assert!(e.converged && b.converged, "{row}");
                assert_eq!(e.rounds_run(), 1, "{row}");
            }
            assert!(
                elided.total_comm_volume() < baseline.total_comm_volume(),
                "{row}: elision must ship strictly less"
            );
        }
    }

    #[test]
    fn an_elided_query_runs_over_split_hypercube_shards() {
        // The relax sequence under a Hypercube policy of its first query:
        // the loop query's full rounds ship split chunks, and both later
        // queries transfer from it and run over those shards, reading the
        // atom parts through their (C3) witness: every valuation once.
        let queries = [loop_query(), square_query(), loop_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, b). R(b, c). R(c, a). R(c, c).").unwrap();
        let p = HypercubePolicy::uniform(&loop_query(), 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p)).rounds(4);
        let outcome = engine.evaluate_queries(&queries, &i, &mut |from, _| *from == loop_query());
        assert_eq!(outcome.transfer_checks, 2);
        assert_eq!(outcome.elided_reshuffles(), 2);
        for (query, run) in queries.iter().zip(&outcome.per_query) {
            assert_eq!(*run.result, cq::evaluate(query, &i), "{query}");
            // Each node answers for the valuations whose home it is (the
            // witnesses are the identity, so a valuation is its own V ∘ ρ).
            let homes: std::collections::BTreeSet<_> = cq::satisfying_valuations(query, &i)
                .into_iter()
                .map(|v| (p.node_for_valuation(&v).unwrap(), v.derived_fact(query)))
                .collect();
            let derived: usize = run.rounds[0].per_node_output.values().sum();
            assert_eq!(derived, homes.len(), "{query}");
        }
        let plan = engine.plan(&queries, &mut |_, _| true).to_string();
        assert!(
            plan.contains("elide: yes, transfers from query 0; reads parts 0→R#0 1→R#1\n"),
            "{plan}"
        );
        assert!(
            plan.contains("elide: yes, transfers from query 0; reads parts 0→R#0 1→R#1 2→R#2\n"),
            "{plan}"
        );
        // The elided queries' rounds are the fallback; only the anchor's run.
        let slots: Vec<&str> = plan
            .lines()
            .filter(|line| line.contains(": entry 0"))
            .collect();
        assert_eq!(
            slots,
            [
                "  round 0: entry 0 (8 nodes), full chunks split into 3 atom parts",
                "  if the anchor did not converge: round 0: entry 0 (8 nodes), full chunks",
                "  if the anchor did not converge: round 0: entry 0 (8 nodes), full chunks split into 3 atom parts",
            ],
            "{plan}"
        );
    }

    #[test]
    fn a_pinned_read_runs_on_the_nodes_at_bucket_zero() {
        // The loops are the image of R(y, y), which mentions y alone: the
        // nodes at bucket 0 in x and z take part, each loop found once.
        let loops = ConjunctiveQuery::parse("T(y) :- R(y, y).").unwrap();
        let queries = [loop_query(), loops];
        let i = parse_instance("R(a, a). R(a, b). R(b, b). R(b, c). R(c, c). R(d, d).").unwrap();
        let p = HypercubePolicy::uniform(&loop_query(), 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p));
        let plan = engine.plan(&queries, &mut |_, _| true);
        assert!(
            plan.to_string()
                .contains("elide: yes, transfers from query 0; reads parts 0→R#2; pins x, z at bucket 0: 2 of 8 nodes"),
            "{plan}"
        );
        let outcome = engine
            .execute_via(&mut InMemoryTransport::new(1), &plan, &i)
            .unwrap();
        assert_eq!(outcome.elided_reshuffles(), 1);
        let round = &outcome.per_query[1].rounds[0];
        assert_eq!(*round.result, cq::evaluate(&queries[1], &i));
        assert_eq!(round.per_node_output.len(), 2);
        assert_eq!(round.per_node_output.values().sum::<usize>(), 4);
    }

    #[test]
    fn a_yes_without_a_witness_over_split_shards_is_refused() {
        // A lying oracle: the loop query does not transfer to the 3-chain,
        // and no (C3) witness reads its parts. The plan refuses the claim
        // and the 3-chain reshuffles, correct all the same.
        let chain = ConjunctiveQuery::parse("T(x, w) :- R(x, y), R(y, z), R(z, w).").unwrap();
        let queries = [loop_query(), chain];
        let i = parse_instance("R(a, a). R(a, b). R(b, c). R(c, d). R(d, d).").unwrap();
        let p = HypercubePolicy::uniform(&loop_query(), 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&p));
        let plan = engine.plan(&queries, &mut |_, _| true);
        let text = plan.to_string();
        assert!(
            text.contains("elide: refused, transfers from query 0 but no (C3) witness"),
            "{text}"
        );
        assert!(!plan.queries()[1].elides());
        let outcome = engine
            .execute_via(&mut InMemoryTransport::new(1), &plan, &i)
            .unwrap();
        assert_eq!(
            (outcome.transfer_checks, outcome.elided_reshuffles()),
            (1, 0)
        );
        assert_eq!(*outcome.per_query[1].result, cq::evaluate(&queries[1], &i));
    }
}
