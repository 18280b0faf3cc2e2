//! Multi-round (iterated one-round) evaluation.
//!
//! The paper studies parallel-correctness of a *single* communication round,
//! but its Massively Parallel Communication setting is inherently
//! multi-round: evaluate, reshuffle the outputs, evaluate again.
//! [`MultiRoundEngine`] simulates that loop on top of
//! [`OneRoundEngine`]: each round reshuffles the current instance under the
//! round's policy (a [`RoundSchedule`] may change policies between rounds),
//! evaluates locally at every node, and merges the round's outputs back into
//! the next round's instance. There is one round loop
//! ([`MultiRoundEngine::evaluate_via`]) over any [`Transport`]: a full
//! round ships every node its whole chunk, a semi-naive round only the
//! facts the previous round added, and a query whose parallel correctness
//! transfers from its predecessor runs as one reshuffle-free round on the
//! shards already resident ([`MultiRoundEngine::evaluate_queries_via`]).
//!
//! Because a conjunctive query's head relation must be outside its input
//! schema, iteration is expressed through an optional **feedback relation**:
//! with `feedback_into("R")`, every output fact `T(d̄)` of a round re-enters
//! the next round as `R(d̄)`. The transitive closure of `R` by repeated
//! squaring is then simply `T(x, z) :- R(x, y), R(y, z)` iterated with
//! feedback into `R`.
//!
//! Rounds stop at the **fixpoint** (the next round instance repeats an
//! already-visited state, so no future round can derive anything new) or at
//! the round cap, whichever comes first; [`MultiRoundOutcome::converged`]
//! records which. Since conjunctive queries cannot invent new data values,
//! the reachable states are finite and the centralized iterated evaluation
//! always terminates — [`MultiRoundEngine::reference_fixpoint`] computes
//! that *global* fixpoint, the correctness yardstick for the distributed
//! run (`pc_core::multi_round_correct_on`).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use cq::{evaluate, ConjunctiveQuery, EvalOptions, Fact, Instance, Symbol};

use crate::engine::{run_round, OneRoundEngine, OneRoundOutcome, RoundPlan};
use crate::network::Node;
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
    policies: Vec<&'a dyn DistributionPolicy>,
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
    /// Panics when `policies` is empty; [`RoundSchedule::try_of`] returns
    /// the error instead.
    pub fn of(policies: Vec<&'a dyn DistributionPolicy>) -> RoundSchedule<'a> {
        RoundSchedule::try_of(policies).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A schedule from an explicit policy sequence (the last one repeats),
    /// rejecting an empty sequence with an error instead of panicking —
    /// [`RoundSchedule::policy_for`] would otherwise underflow its index
    /// on the first round.
    pub fn try_of(policies: Vec<&'a dyn DistributionPolicy>) -> Result<RoundSchedule<'a>, String> {
        if policies.is_empty() {
            return Err("a round schedule needs at least one policy".to_string());
        }
        Ok(RoundSchedule { policies })
    }

    /// The policy of round `round` (0-based; the last policy repeats).
    pub fn policy_for(&self, round: usize) -> &'a dyn DistributionPolicy {
        self.policies[self.policy_index(round)]
    }

    /// The schedule index of the policy used in round `round` — two rounds
    /// with equal indices run the *same* policy, which is what the
    /// semi-naive loop uses to detect a policy switch (a re-shard point).
    fn policy_index(&self, round: usize) -> usize {
        round.min(self.policies.len() - 1)
    }

    /// The number of explicitly scheduled policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Always `false`: schedules are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The outcome of a multi-round evaluation.
#[derive(Clone, Debug)]
pub struct MultiRoundOutcome {
    /// The per-round one-round outcomes, in round order (including the
    /// final, converging round when the run reached its fixpoint).
    pub rounds: Vec<OneRoundOutcome>,
    /// The union of all rounds' outputs (head-relation facts).
    pub result: Instance,
    /// Every fact the run has ever seen: the initial input plus every
    /// feedback fact produced by any round (in dataflow mode the rounds
    /// re-distribute only the latest feedback facts, but this set still
    /// accumulates — it is what the fixpoint test runs against).
    pub final_state: Instance,
    /// Whether the run reached its fixpoint (the next round instance
    /// repeated an already-visited state, so no future round could derive
    /// anything new) before exhausting the round cap.
    pub converged: bool,
    /// How many reshuffles this run elided by evaluating directly on the
    /// shards resident from a previous query (`1` for a run that is a
    /// single resident round, `0` for a run that re-distributed normally).
    pub elided_reshuffles: usize,
    /// Round indices that were explicit state-reset/re-shard rounds: a
    /// semi-naive run whose schedule switched policies re-ships the full
    /// accumulated state under the new policy at these rounds (their
    /// statistics describe that full re-shard, not a delta).
    pub reshard_rounds: Vec<usize>,
}

impl MultiRoundOutcome {
    /// The number of rounds that actually ran.
    pub fn rounds_run(&self) -> usize {
        self.rounds.len()
    }

    /// Cumulative communication volume: total `(fact, node)` assignments
    /// shipped across all reshuffle phases. Each round's statistics
    /// describe what that round **actually distributed** — the accumulated
    /// state in full re-evaluation mode, only the per-round delta in
    /// semi-naive mode — so the two modes report their genuinely different
    /// shipping honestly.
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

    /// Cumulative wall-clock time of all reshuffle phases.
    pub fn total_distribute_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.distribute_time).sum()
    }

    /// Cumulative wall-clock time of all local-evaluation phases.
    pub fn total_local_eval_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.local_eval_time).sum()
    }

    /// The largest per-round maximum node load (the bottleneck of the run).
    pub fn max_load(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.stats.max_load)
            .max()
            .unwrap_or(0)
    }
}

/// The centralized reference for a multi-round run: the global fixpoint of
/// the iterated query, computed without any distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IteratedFixpoint {
    /// The union of all rounds' centralized outputs.
    pub result: Instance,
    /// Rounds needed to reach the fixpoint (including the converging one).
    pub rounds: usize,
}

/// The outcome of a multi-query run ([`MultiRoundEngine::evaluate_queries`]):
/// one [`MultiRoundOutcome`] per query, in input order, plus the transfer
/// bookkeeping of the elision decisions taken between consecutive queries.
#[derive(Clone, Debug)]
pub struct MultiQueryOutcome {
    /// Per-query outcomes, in the order the queries were given.
    pub per_query: Vec<MultiRoundOutcome>,
    /// How many transferability checks the run performed (one per query
    /// boundary where shards were resident and elision was allowed).
    pub transfer_checks: usize,
}

impl MultiQueryOutcome {
    /// Total reshuffles elided across all queries: the number of queries
    /// that ran directly on the resident shards of their predecessor.
    pub fn elided_reshuffles(&self) -> usize {
        self.per_query.iter().map(|o| o.elided_reshuffles).sum()
    }

    /// Total explicit re-shard rounds shipped across all queries.
    pub fn reshard_rounds(&self) -> usize {
        self.per_query.iter().map(|o| o.reshard_rounds.len()).sum()
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

/// What a round loop carries from round to round.
enum RoundState {
    /// Carried input: one growing instance is the round instance and
    /// everything the run has seen; states grow monotonically, so "the
    /// state repeated" is "its size did not change".
    Carried(Instance),
    /// Dataflow: the round instance is the previous round's feedback only,
    /// so every state ever reached is kept for cycle detection, next to
    /// every fact ever seen (the reported `final_state`).
    Dataflow {
        current: Instance,
        seen: Instance,
        visited: BTreeSet<BTreeSet<Fact>>,
    },
}

impl RoundState {
    /// The instance the next round evaluates.
    fn current(&self) -> &Instance {
        match self {
            RoundState::Carried(current) | RoundState::Dataflow { current, .. } => current,
        }
    }

    /// Every fact the run has seen.
    fn into_seen(self) -> Instance {
        match self {
            RoundState::Carried(seen) | RoundState::Dataflow { seen, .. } => seen,
        }
    }
}

/// A simulated cluster iterating the one-round algorithm under a
/// [`RoundSchedule`], with fixpoint detection and a round cap.
pub struct MultiRoundEngine<'a> {
    schedule: RoundSchedule<'a>,
    max_rounds: usize,
    carry_input: bool,
    feedback: Option<Symbol>,
    workers: usize,
    distribute_workers: usize,
    semi_naive: bool,
    eval_options: EvalOptions,
    reshuffle_always: bool,
    /// The engine's metrics registry: `transfer_checks`, `transfer_hits`,
    /// `transfer_misses` and `elided_reshuffles` accumulate here across
    /// every run, and [`MultiQueryOutcome::transfer_checks`] is derived
    /// from the `transfer_checks` counter — the registry is the single
    /// source of truth, not a parallel tally.
    registry: std::sync::Arc<obs::Registry>,
}

impl<'a> MultiRoundEngine<'a> {
    /// Creates a single-round engine over `schedule`; raise the cap with
    /// [`MultiRoundEngine::rounds`]. Defaults mirror [`OneRoundEngine`]:
    /// sequential evaluation, sequential reshuffle, carried input, no
    /// feedback relation.
    pub fn new(schedule: RoundSchedule<'a>) -> MultiRoundEngine<'a> {
        MultiRoundEngine {
            schedule,
            max_rounds: 1,
            carry_input: true,
            feedback: None,
            workers: 1,
            distribute_workers: 1,
            semi_naive: false,
            eval_options: EvalOptions::default(),
            reshuffle_always: false,
            registry: std::sync::Arc::new(obs::Registry::new()),
        }
    }

    /// The engine's metrics registry (transfer-oracle and elision
    /// counters; see the field docs).
    pub fn registry(&self) -> std::sync::Arc<obs::Registry> {
        self.registry.clone()
    }

    /// Sets the [`EvalOptions`] every round's local evaluation runs with —
    /// the indexed kernel (the default) or the scan oracle. The options travel with the round
    /// over every transport (they are part of the wire protocol), so
    /// in-memory and cross-process rounds evaluate identically.
    pub fn eval_options(mut self, options: EvalOptions) -> Self {
        self.eval_options = options;
        self
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

    /// Whether each round re-distributes the accumulated instance (`true`,
    /// the default) or only the previous round's feedback facts (`false`) —
    /// the difference between stateful workers and a pure dataflow of
    /// reshuffled outputs.
    pub fn carry_input(mut self, carry: bool) -> Self {
        self.carry_input = carry;
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
    /// [`OneRoundEngine::workers`]); an explicit transport owns its own
    /// parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sizes the local-evaluation pool to the machine (cf.
    /// [`OneRoundEngine::parallel`]).
    pub fn parallel(self, enabled: bool) -> Self {
        let workers = if enabled {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            1
        };
        self.workers(workers)
    }

    /// Threads sharding each round's reshuffle phase (cf.
    /// [`OneRoundEngine::distribute_workers`]).
    pub fn distribute_workers(mut self, workers: usize) -> Self {
        self.distribute_workers = workers.max(1);
        self
    }

    /// Switches the run to **semi-naive incremental** rounds: each round
    /// reshuffles only the facts that are new since the previous round
    /// (round 0 ships everything), the nodes keep their accumulated state
    /// across rounds inside the transport ([`Shipment::Delta`]), and each
    /// node's local evaluation is one differential pass over its delta
    /// (`cq::evaluate_seminaive_step`) rather than a full re-evaluation.
    ///
    /// The final `result`, `converged` flag and round count are **provably
    /// identical** to full re-evaluation mode; per-round
    /// [`OneRoundOutcome`]s differ in the documented ways (each round's
    /// `result` holds only the *new* facts, and the loads/statistics
    /// describe the delta reshuffle). Requires carried input — checked at
    /// evaluation time — because in dataflow mode the round instance is
    /// not monotone, so there is no delta to ship. A schedule that
    /// switches policies between rounds is handled with an explicit
    /// **re-shard round**: the full accumulated state is re-shipped under
    /// the new policy as a fresh round-0 reset (recorded in
    /// [`MultiRoundOutcome::reshard_rounds`]), and delta shipping resumes
    /// from the rebuilt state.
    pub fn semi_naive(mut self, enabled: bool) -> Self {
        self.semi_naive = enabled;
        self
    }

    /// Whether the engine runs semi-naive incremental rounds.
    pub fn is_semi_naive(&self) -> bool {
        self.semi_naive
    }

    /// Panics unless the configuration combination supports incremental
    /// rounds (see [`MultiRoundEngine::semi_naive`]).
    fn check_semi_naive_config(&self) {
        assert!(
            self.carry_input,
            "semi-naive rounds require carried input: in dataflow mode the \
             round instance is not monotone, so there is no delta to ship"
        );
    }

    /// The configured round cap.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The configured feedback relation, if any.
    pub fn feedback(&self) -> Option<Symbol> {
        self.feedback
    }

    /// Whether rounds re-distribute the accumulated instance.
    pub fn carries_input(&self) -> bool {
        self.carry_input
    }

    /// The round's output facts as they re-enter the next round.
    fn feedback_facts(&self, output: &Instance) -> Instance {
        match self.feedback {
            Some(relation) => output
                .facts()
                .map(|f| Fact::new(relation, f.values.clone()))
                .collect(),
            None => output.clone(),
        }
    }

    /// The iteration state of a round loop starting from `instance`.
    fn initial_state(&self, instance: &Instance) -> RoundState {
        if self.carry_input {
            RoundState::Carried(instance.clone())
        } else {
            RoundState::Dataflow {
                current: instance.clone(),
                seen: instance.clone(),
                visited: BTreeSet::from([instance.to_set()]),
            }
        }
    }

    /// One iteration step shared by [`MultiRoundEngine::evaluate_via`] and
    /// [`MultiRoundEngine::reference_fixpoint`], so the distributed run and
    /// its centralized yardstick can never drift apart in their
    /// carry/feedback/fixpoint semantics. Merges a round's `output` into
    /// the accumulated `result` and advances `state`, reporting whether
    /// iteration has terminated: the next round instance repeats one
    /// already visited, so no future round can ever produce a new fact.
    /// A semi-naive run passes `fresh` and gets back exactly the facts this
    /// round added to the carried state — its next delta.
    ///
    /// Termination tests whole **states**, not individual facts. With
    /// carried input states grow monotonically, so a revisited state is
    /// exactly "this round contributed nothing new": the accumulated
    /// instance's absorb came back empty.
    /// In dataflow mode (`carry_input = false`) states need not grow, and a
    /// round whose facts are all individually stale can still be a *novel
    /// combination* whose evaluation derives new facts — only an exact
    /// state repeat (a cycle) guarantees the run is exhausted, so every
    /// visited state is kept.
    fn advance_round(
        &self,
        output: &Instance,
        result: &mut Instance,
        state: &mut RoundState,
        fresh: Option<&mut Instance>,
    ) -> bool {
        result.absorb(output);
        match state {
            RoundState::Carried(accumulated) => {
                let added = match self.feedback {
                    Some(_) => accumulated.absorb(&self.feedback_facts(output)),
                    None => accumulated.absorb(output),
                };
                let done = added.is_empty();
                if let Some(fresh) = fresh {
                    *fresh = added;
                }
                done
            }
            RoundState::Dataflow {
                current,
                seen,
                visited,
            } => {
                let next = self.feedback_facts(output);
                seen.absorb(&next);
                if !visited.insert(next.to_set()) {
                    return true;
                }
                *current = next;
                false
            }
        }
    }

    /// Runs up to [`MultiRoundEngine::max_rounds`] distribute→local-eval
    /// cycles for `query` starting from `instance`: exactly
    /// [`MultiRoundEngine::evaluate_via`] over an [`InMemoryTransport`]
    /// with the configured worker pool.
    pub fn evaluate(&self, query: &ConjunctiveQuery, instance: &Instance) -> MultiRoundOutcome {
        let mut transport = InMemoryTransport::new(self.workers);
        self.evaluate_via(&mut transport, query, instance)
            .expect("in-memory rounds are infallible")
    }

    /// The round loop: every round reshuffles under the schedule's policy
    /// and ships through `transport` — the rounds become genuinely
    /// cross-process when the transport is wire-backed — then
    /// `advance_round` merges the outputs and tests for the fixpoint.
    ///
    /// A full round ships every node the whole round instance
    /// ([`Shipment::Full`]). With [`MultiRoundEngine::semi_naive`] a round
    /// ships only the facts the previous round added
    /// ([`Shipment::Delta`]; round 0 ships everything), and a policy
    /// switch re-ships the whole state as a fresh round-0 reset. With
    /// carried input "the delta is empty" is exactly the repeated-state
    /// test, so the two modes converge on the same round with the same
    /// cumulative result (the differential suites pin this).
    pub fn evaluate_via(
        &self,
        transport: &mut dyn Transport,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> Result<MultiRoundOutcome, TransportError> {
        if self.semi_naive {
            self.check_semi_naive_config();
        }
        // States over a fixed active domain are finite, so a repeat — and
        // hence termination — is guaranteed even in dataflow mode.
        let mut state = self.initial_state(instance);
        let mut result = Instance::new();
        let mut rounds = Vec::new();
        let mut reshard_rounds = Vec::new();
        let mut converged = false;
        // Semi-naive only: what the next round ships — everything at
        // first, then whatever the previous round added to the state.
        let mut delta = self.semi_naive.then(|| instance.clone());
        // Delta rounds as numbered towards the transport: 0 resets
        // per-node state, so every re-shard restarts the count.
        let mut delta_round = 0;
        let mut active_policy = self.schedule.policy_index(0);
        let round_latency = self.registry.histogram("round_latency_us");
        for round in 0..self.max_rounds {
            let round_started = Instant::now();
            let _round_span =
                obs::span!("eval_round", round = round, facts = state.current().len());
            let policy_index = self.schedule.policy_index(round);
            let switched = policy_index != active_policy;
            active_policy = policy_index;
            let engine = OneRoundEngine::new(self.schedule.policy_for(round))
                .distribute_workers(self.distribute_workers)
                .eval_options(self.eval_options);
            let outcome = match &delta {
                None => engine.evaluate_via(transport, round, query, state.current())?,
                Some(delta) => {
                    let new_facts = if switched {
                        // A policy switch re-routes facts that were already
                        // shipped: reset the nodes and re-shard everything.
                        obs::instant!("reshard", round = round);
                        reshard_rounds.push(round);
                        delta_round = 0;
                        state.current()
                    } else {
                        delta
                    };
                    let _span = obs::span!(
                        "delta_round",
                        round = delta_round,
                        delta_facts = new_facts.len()
                    );
                    let mut plan = engine.plan(new_facts, Shipment::Delta);
                    if delta_round > 0 {
                        plan.skip_empty();
                    }
                    let outcome =
                        run_round(transport, delta_round, query, self.eval_options, plan)?;
                    delta_round += 1;
                    outcome
                }
            };
            let done = {
                let _span = obs::span!("merge_results", round = round);
                self.advance_round(&outcome.result, &mut result, &mut state, delta.as_mut())
            };
            rounds.push(outcome);
            round_latency
                .record(u64::try_from(round_started.elapsed().as_micros()).unwrap_or(u64::MAX));
            if done {
                converged = true;
                break;
            }
        }
        Ok(MultiRoundOutcome {
            rounds,
            result,
            final_state: state.into_seen(),
            converged,
            elided_reshuffles: 0,
            reshard_rounds,
        })
    }

    /// Runs a **sequence of queries** over `instance`, consulting
    /// `transfer` at each query boundary: when the oracle says parallel
    /// correctness transfers from the previous query to the next (and the
    /// previous run left its fixpoint resident at the nodes), the next
    /// query's reshuffle is **elided** — it evaluates directly on the
    /// resident shards, shipping zero input facts. Otherwise the query
    /// re-shards from scratch through the ordinary round loop.
    ///
    /// In-memory convenience over [`MultiRoundEngine::evaluate_queries_via`].
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
    /// transport. The elision decision per boundary is:
    ///
    /// 1. The previous query's run must have **converged with carried
    ///    input and no feedback rewrite** — only then is the fixpoint
    ///    state resident at the nodes, sharded by the last round's policy.
    /// 2. [`MultiRoundEngine::reshuffle_always`] must be off (the
    ///    baseline knob for measuring what elision saves).
    /// 3. The `transfer` oracle must confirm the previous query's parallel
    ///    correctness transfers to the next one (paper §4): the new query
    ///    is then correct on *any* shards the previous one was correct on
    ///    — including the resident ones. Transferability is transitive, so
    ///    checking consecutive pairs suffices across a chain of elisions.
    ///
    /// An elided query runs as a single reshuffle-free round and leaves
    /// the resident shards untouched; a re-sharding query replaces them
    /// with its own fixpoint.
    pub fn evaluate_queries_via(
        &self,
        transport: &mut dyn Transport,
        queries: &[ConjunctiveQuery],
        instance: &Instance,
        transfer: TransferOracle<'_>,
    ) -> Result<MultiQueryOutcome, TransportError> {
        let mut per_query = Vec::with_capacity(queries.len());
        let checks = self.registry.counter("transfer_checks");
        let check_hits = self.registry.counter("transfer_hits");
        let check_misses = self.registry.counter("transfer_misses");
        let elisions = self.registry.counter("elided_reshuffles");
        // The registry accumulates across runs; the outcome reports only
        // this run's checks, so count from the entry value.
        let checks_base = checks.get();
        // The query whose fixpoint is currently sharded across the nodes,
        // and which nodes hold a piece of it.
        let mut resident: Option<(ConjunctiveQuery, Vec<Node>)> = None;
        for (index, query) in queries.iter().enumerate() {
            let _query_span = obs::span!("query", index = index);
            let elide = match &resident {
                Some((prev, nodes)) if !self.reshuffle_always && !nodes.is_empty() => {
                    checks.inc();
                    let transferable = transfer(prev, query);
                    if transferable {
                        check_hits.inc();
                    } else {
                        check_misses.inc();
                    }
                    obs::instant!("transfer_check", transferable = transferable);
                    transferable
                }
                _ => false,
            };
            if elide {
                elisions.inc();
                obs::instant!("reshuffle_elided");
            }
            let outcome = if elide {
                // One reshuffle-free round: every node evaluates over the
                // shard it already holds. `comm_bytes` still counts whatever
                // result frames a wire transport ships back.
                let (_, nodes) = resident.as_ref().expect("elide implies resident shards");
                let _span = obs::span!("resident_round", nodes = nodes.len());
                let plan = RoundPlan::resident(nodes);
                let round = run_round(transport, 0, query, self.eval_options, plan)?;
                let result = round.result.clone();
                MultiRoundOutcome {
                    rounds: vec![round],
                    final_state: instance.union(&result),
                    result,
                    converged: true,
                    elided_reshuffles: 1,
                    reshard_rounds: Vec::new(),
                }
            } else {
                self.evaluate_via(transport, query, instance)?
            };
            if elide {
                // The shards are untouched, but the transferability chain
                // now hangs off this query (transitivity keeps it sound).
                if let Some((prev, _)) = resident.as_mut() {
                    *prev = query.clone();
                }
            } else {
                resident = self
                    .resident_nodes(&outcome)
                    .map(|nodes| (query.clone(), nodes));
            }
            per_query.push(outcome);
        }
        Ok(MultiQueryOutcome {
            per_query,
            transfer_checks: (checks.get() - checks_base) as usize,
        })
    }

    /// Which nodes hold the just-finished run's fixpoint, if any do:
    /// requires carried input (dataflow rounds drop state), no feedback
    /// rewrite (the resident facts would be renamed copies, not the
    /// state), and convergence (a round-capped run's nodes hold an
    /// intermediate state, not the fixpoint). The shards then sit exactly
    /// where the anchor round shipped them — the last round in full mode
    /// (each full round re-ships the whole state), the last reset round in
    /// semi-naive mode (later delta rounds only top nodes up).
    fn resident_nodes(&self, outcome: &MultiRoundOutcome) -> Option<Vec<Node>> {
        if !self.carry_input || self.feedback.is_some() || !outcome.converged {
            return None;
        }
        let anchor = if self.semi_naive {
            *outcome.reshard_rounds.last().unwrap_or(&0)
        } else {
            outcome.rounds.len().saturating_sub(1)
        };
        outcome
            .rounds
            .get(anchor)
            .map(|round| round.per_node_load.keys().copied().collect())
    }

    /// The centralized reference: iterates `evaluate(query, ·)` with the
    /// same carry/feedback semantics but **no round cap**, until the global
    /// fixpoint (a repeated state). Terminates on every input because
    /// conjunctive queries cannot introduce new data values, so the set of
    /// reachable states over the input's active domain is finite.
    pub fn reference_fixpoint(
        &self,
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> IteratedFixpoint {
        let mut state = self.initial_state(instance);
        let mut result = Instance::new();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let output = evaluate(query, state.current());
            if self.advance_round(&output, &mut result, &mut state, None) {
                break;
            }
        }
        IteratedFixpoint { result, rounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let q = square_query();
        let i = chain_instance(5);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let one = OneRoundEngine::new(&p).evaluate(&q, &i);
        let multi = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(1)
            .evaluate(&q, &i);
        assert_eq!(multi.rounds_run(), 1);
        assert_eq!(multi.result, one.result);
        assert_eq!(multi.rounds[0].result, one.result);
        assert_eq!(multi.rounds[0].per_node_load, one.per_node_load);
        assert_eq!(multi.rounds[0].per_node_output, one.per_node_output);
        assert_eq!(multi.rounds[0].stats, one.stats);
        assert_eq!(multi.total_comm_volume(), one.stats.total_assigned);
        assert!(!multi.converged, "new T-facts appeared, no fixpoint yet");
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
        assert_eq!(outcome.result, reference.result);
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
    fn without_feedback_the_second_round_converges() {
        // Outputs keep their head relation, which the query does not read:
        // round 2 reproduces round 1 exactly and the engine detects it.
        let q = square_query();
        let i = chain_instance(4);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let outcome = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(10)
            .evaluate(&q, &i);
        assert!(outcome.converged);
        assert_eq!(outcome.rounds_run(), 2);
        assert_eq!(outcome.result, cq::evaluate(&q, &i));
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
        assert_eq!(outcome.result, engine.reference_fixpoint(&q, &i).result);
    }

    #[test]
    fn dataflow_mode_redistributes_only_the_outputs() {
        // Without carried input, round 2's instance is only the feedback
        // facts of round 1 — loads must shrink accordingly on a broadcast
        // policy, and the seen-set still guarantees termination.
        let q = square_query();
        let i = chain_instance(4);
        let network = Network::with_size(2);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        let outcome = MultiRoundEngine::new(RoundSchedule::repeat(&broadcast))
            .rounds(10)
            .feedback_into("R")
            .carry_input(false)
            .evaluate(&q, &i);
        assert!(outcome.converged);
        assert!(outcome.rounds.len() >= 2);
        let first_load = outcome.rounds[0].stats.max_load;
        let second_load = outcome.rounds[1].stats.max_load;
        assert_eq!(first_load, i.len());
        assert!(second_load < first_load, "{second_load} !< {first_load}");
    }

    #[test]
    fn dataflow_mode_continues_past_individually_stale_rounds() {
        // Regression test for the dataflow fixpoint rule: here round 3's
        // feedback facts have all been seen in earlier rounds, yet they
        // form a NEW combination whose evaluation still derives new facts
        // (T(a, b) among them). A per-fact staleness test would stop early
        // and silently drop those answers; only an exact state repeat may
        // end the run.
        let q = square_query();
        let i = parse_instance("R(a, c). R(b, c). R(c, d). R(d, b). R(d, c).").unwrap();
        let network = Network::with_size(1);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&broadcast))
            .rounds(50)
            .feedback_into("R")
            .carry_input(false);
        let outcome = engine.evaluate(&q, &i);
        assert!(outcome.converged);
        for fact in ["T(a, b)", "T(b, b)"] {
            let fact = cq::parse_instance(&format!("{fact}.")).unwrap();
            assert!(
                outcome.result.contains_all(&fact),
                "dataflow run must still derive {fact} (got {})",
                outcome.result
            );
        }
        assert_eq!(outcome.result, engine.reference_fixpoint(&q, &i).result);
    }

    #[test]
    fn round_schedule_repeats_its_last_policy() {
        let q = square_query();
        let a = HypercubePolicy::uniform(&q, 2).unwrap();
        let b = HypercubePolicy::uniform(&q, 3).unwrap();
        let schedule = RoundSchedule::of(vec![&a, &b]);
        assert_eq!(schedule.len(), 2);
        assert!(!schedule.is_empty());
        assert_eq!(schedule.policy_for(0).network().len(), a.network().len());
        assert_eq!(schedule.policy_for(1).network().len(), b.network().len());
        assert_eq!(schedule.policy_for(7).network().len(), b.network().len());
    }

    /// Runs the same workload in full-re-evaluation and semi-naive modes
    /// and asserts the outcome-level contract: same cumulative result,
    /// same convergence verdict, same round count.
    fn assert_semi_naive_parity<'a>(
        engine: impl Fn() -> MultiRoundEngine<'a>,
        q: &ConjunctiveQuery,
        i: &Instance,
    ) -> (MultiRoundOutcome, MultiRoundOutcome) {
        let full = engine().evaluate(q, i);
        let semi = engine().semi_naive(true).evaluate(q, i);
        assert_eq!(semi.result, full.result, "results diverged");
        assert_eq!(semi.converged, full.converged, "convergence diverged");
        assert_eq!(
            semi.rounds_run(),
            full.rounds_run(),
            "round counts diverged"
        );
        assert_eq!(semi.final_state, full.final_state, "final states diverged");
        (full, semi)
    }

    #[test]
    fn semi_naive_transitive_closure_matches_full_reevaluation() {
        let q = square_query();
        let i = chain_instance(8);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = || {
            MultiRoundEngine::new(RoundSchedule::repeat(&p))
                .rounds(16)
                .feedback_into("R")
                .workers(2)
        };
        let (full, semi) = assert_semi_naive_parity(engine, &q, &i);
        assert!(semi.converged);
        assert_eq!(semi.result, engine().reference_fixpoint(&q, &i).result);
        // The whole point: late rounds ship deltas, not the accumulated
        // state, so the cumulative fact-shipping volume must shrink.
        assert!(
            semi.total_comm_volume() < full.total_comm_volume(),
            "semi-naive shipped {} fact-assignments, full mode {}",
            semi.total_comm_volume(),
            full.total_comm_volume()
        );
        // Round 0 ships the same initial instance in both modes; every
        // later round ships a strict subset (the delta, not the
        // accumulated state).
        assert_eq!(
            semi.rounds[0].stats.total_assigned,
            full.rounds[0].stats.total_assigned
        );
        for (r, (s, f)) in semi.rounds.iter().zip(&full.rounds).enumerate().skip(1) {
            assert!(
                s.stats.total_assigned < f.stats.total_assigned,
                "round {r}: semi shipped {} >= full {}",
                s.stats.total_assigned,
                f.stats.total_assigned
            );
        }
    }

    #[test]
    fn semi_naive_round_one_delta_is_the_whole_input() {
        // Round 0 of an incremental run ships everything (every fact is
        // new), making it exactly a full evaluation.
        let q = square_query();
        let i = chain_instance(5);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let semi = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(1)
            .semi_naive(true)
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
        // converges after one round — in both modes.
        let q = square_query();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = || {
            MultiRoundEngine::new(RoundSchedule::repeat(&p))
                .rounds(4)
                .feedback_into("R")
        };
        let (_, semi) = assert_semi_naive_parity(engine, &q, &Instance::new());
        assert!(semi.converged);
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
        let engine = || {
            MultiRoundEngine::new(RoundSchedule::repeat(&p))
                .rounds(8)
                .feedback_into("R")
        };
        let (_, semi) = assert_semi_naive_parity(engine, &q, &i);
        assert!(semi.converged);
        assert_eq!(semi.rounds_run(), 1, "nothing new ever enters the state");
        assert_eq!(semi.result, cq::parse_instance("T(a, c).").unwrap());
    }

    #[test]
    fn semi_naive_round_cap_short_of_fixpoint_reports_not_converged() {
        // Edge case: the cap stops the run mid-closure; both modes must
        // agree on the partial result and on not having converged.
        let q = square_query();
        let i = chain_instance(8);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = || {
            MultiRoundEngine::new(RoundSchedule::repeat(&p))
                .rounds(2)
                .feedback_into("R")
        };
        let (_, semi) = assert_semi_naive_parity(engine, &q, &i);
        assert!(!semi.converged);
        assert_eq!(semi.rounds_run(), 2);
        let fixpoint = engine().rounds(16).reference_fixpoint(&q, &i);
        assert!(semi.result.len() < fixpoint.result.len());
    }

    #[test]
    fn semi_naive_without_feedback_converges_on_the_second_round() {
        let q = square_query();
        let i = chain_instance(4);
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = || MultiRoundEngine::new(RoundSchedule::repeat(&p)).rounds(10);
        let (_, semi) = assert_semi_naive_parity(engine, &q, &i);
        assert!(semi.converged);
        assert_eq!(semi.rounds_run(), 2);
        assert!(semi.rounds[1].result.is_empty(), "round 2 is a pure probe");
    }

    #[test]
    #[should_panic(expected = "carried input")]
    fn semi_naive_rejects_dataflow_mode() {
        let q = square_query();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        let _ = MultiRoundEngine::new(RoundSchedule::repeat(&p))
            .rounds(4)
            .carry_input(false)
            .semi_naive(true)
            .evaluate(&q, &chain_instance(3));
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
        // A schedule that switches policies used to be rejected in
        // semi-naive mode; it now runs via an explicit re-shard round at
        // the switch and must agree with full re-evaluation exactly.
        let q = square_query();
        let i = chain_instance(8);
        let network = Network::with_size(3);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        let hypercube = HypercubePolicy::uniform(&q, 2).unwrap();
        let engine = || {
            MultiRoundEngine::new(RoundSchedule::of(vec![&broadcast, &hypercube]))
                .rounds(16)
                .feedback_into("R")
        };
        let (full, semi) = assert_semi_naive_parity(engine, &q, &i);
        assert!(semi.converged);
        assert_eq!(
            semi.reshard_rounds,
            vec![1],
            "the policy switch at round 1 must re-shard"
        );
        assert!(full.reshard_rounds.is_empty());
        assert_eq!(semi.result, engine().reference_fixpoint(&q, &i).result);
        // The re-shard round ships the full accumulated state under the
        // new policy, exactly like full mode's same round.
        assert_eq!(
            semi.rounds[1].stats.total_assigned,
            full.rounds[1].stats.total_assigned
        );
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
        let network = Network::with_size(2);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
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
        assert_eq!(outcome.per_query[1].result, cq::evaluate(&queries[1], &i));
        // ...yet it shipped zero input facts.
        assert_eq!(outcome.per_query[1].total_comm_volume(), 0);
        assert!(outcome.per_query[0].total_comm_volume() > 0);
    }

    #[test]
    fn elision_chains_update_the_transfer_anchor() {
        // Three queries, all transferring: the second check must be asked
        // about (Q2, Q3), not (Q1, Q3) — the resident anchor advances even
        // though the shards never move.
        let queries = [loop_query(), square_query(), loop_query()];
        let i = parse_instance("R(a, a). R(a, b).").unwrap();
        let network = Network::with_size(2);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
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
                (queries[1].clone(), queries[2].clone()),
            ]
        );
    }

    #[test]
    fn non_transferable_boundaries_reshard_from_scratch() {
        let queries = [square_query(), loop_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, c).").unwrap();
        let network = Network::with_size(2);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        let outcome =
            broadcast_engine(&broadcast).evaluate_queries(&queries, &i, &mut |_, _| false);
        assert_eq!(outcome.transfer_checks, 1);
        assert_eq!(outcome.elided_reshuffles(), 0);
        assert_eq!(outcome.per_query[1].result, cq::evaluate(&queries[1], &i));
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
        let network = Network::with_size(2);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
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
        let network = Network::with_size(2);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
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
        let network = Network::with_size(2);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        // Round cap 1: query 1 cannot converge, so its shards are an
        // intermediate state and must not be reused.
        let capped = MultiRoundEngine::new(RoundSchedule::repeat(&broadcast))
            .rounds(1)
            .evaluate_queries(&queries, &i, &mut |_, _| {
                panic!("no resident shards, no transfer check")
            });
        assert_eq!(capped.transfer_checks, 0);
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
        // transferring sequence, per-query results and final states match
        // the reshuffle-always baseline in both evaluation modes — while
        // shipping strictly fewer fact-assignments.
        let queries = [loop_query(), square_query()];
        let i = parse_instance("R(a, a). R(a, b). R(b, c). R(c, a).").unwrap();
        let network = Network::with_size(3);
        let broadcast = ExplicitPolicy::new(network.clone()).with_default(network.nodes());
        for semi in [false, true] {
            let engine = || broadcast_engine(&broadcast).semi_naive(semi);
            let elided = engine().evaluate_queries(&queries, &i, &mut |_, _| true);
            let baseline =
                engine()
                    .reshuffle_always(true)
                    .evaluate_queries(&queries, &i, &mut |_, _| true);
            assert_eq!(elided.elided_reshuffles(), 1, "semi={semi}");
            assert_eq!(baseline.elided_reshuffles(), 0);
            for (e, b) in elided.per_query.iter().zip(&baseline.per_query) {
                assert_eq!(e.result, b.result, "semi={semi}");
                assert_eq!(e.final_state, b.final_state, "semi={semi}");
                assert_eq!(e.converged, b.converged, "semi={semi}");
            }
            assert!(
                elided.total_comm_volume() < baseline.total_comm_volume(),
                "semi={semi}: elision must ship strictly less"
            );
        }
    }
}
