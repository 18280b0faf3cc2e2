//! Deciding parallel-correctness (Section 3 of the paper), and its
//! multi-round extension: comparing an iterated distributed run against the
//! global fixpoint of the iterated query.

use cq::{evaluate, evaluate_seminaive_step, ConjunctiveQuery, Fact, Instance};
use delta::{CacheStats, IndexCache};
use distribution::{
    DistributionPolicy, FinitePolicy, MultiRoundEngine, MultiRoundOutcome, OneRoundEngine,
};

use crate::conditions::{meet_violation, C1Violation};

/// A violation of parallel-correctness: a minimal valuation whose required
/// facts never meet, together with the concrete counterexample instance and
/// the fact that is lost (cf. the proof of Lemma 3.4).
#[derive(Clone, Debug)]
pub struct PcViolation {
    /// The minimal valuation whose facts do not meet under the policy.
    pub valuation: cq::Valuation,
    /// The counterexample instance `V(body_Q)`.
    pub counterexample_instance: Instance,
    /// The fact `V(head_Q)` that the distributed evaluation misses on the
    /// counterexample instance.
    pub lost_fact: cq::Fact,
}

/// The result of a parallel-correctness check over all instances.
#[derive(Clone, Debug)]
pub struct PcReport {
    /// Whether the query is parallel-correct under the policy.
    pub correct: bool,
    /// A violation witness when the query is not parallel-correct.
    pub violation: Option<PcViolation>,
    /// How the minimality asks were answered: `hits` by the candidate's
    /// equality type, `misses` by running the search; their sum is the
    /// number of candidate valuations.
    pub cache: CacheStats,
}

impl PcReport {
    /// Whether the query is parallel-correct.
    pub fn is_correct(&self) -> bool {
        self.correct
    }

    /// The minimality-ask counters accumulated while deciding the verdict.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }
}

/// The result of a parallel-correctness check on one instance (PCI).
#[derive(Clone, Debug)]
pub struct PcInstanceReport {
    /// Whether `Q(I) = ⋃_κ Q(dist_P(I)(κ))` on the given instance.
    pub correct: bool,
    /// The centralized result `Q(I)`.
    pub expected: Instance,
    /// The union of the per-node results.
    pub distributed: Instance,
    /// Facts of `Q(I)` missing from the distributed result.
    pub missing: Instance,
}

impl PcInstanceReport {
    /// Whether the evaluation is correct on the instance.
    pub fn is_correct(&self) -> bool {
        self.correct
    }
}

/// Decides parallel-correctness *on a given instance* (`PCI`,
/// Definition 3.1): compares the centralized evaluation with the union of
/// the per-node evaluations of the distributed instance.
pub fn check_parallel_correctness_on_instance<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    instance: &Instance,
) -> PcInstanceReport {
    let expected = evaluate(query, instance);
    let outcome = OneRoundEngine::new(policy).evaluate(query, instance);
    let distributed = outcome.result;
    let missing = expected.difference(&distributed);
    PcInstanceReport {
        correct: missing.is_empty() && distributed.contains_all(&expected),
        expected,
        distributed,
        missing,
    }
}

/// The result of a multi-round correctness check on one instance.
#[derive(Clone, Debug)]
pub struct MultiRoundInstanceReport {
    /// Whether the distributed multi-round result equals the global
    /// fixpoint of the centralized iterated query.
    pub correct: bool,
    /// The centralized global fixpoint `Q^∞(I)` (all rounds' outputs).
    pub expected: Instance,
    /// The full distributed multi-round outcome (capped at the engine's
    /// round limit).
    pub outcome: MultiRoundOutcome,
    /// Facts of the global fixpoint missing from the distributed result —
    /// non-empty when a round's policy loses answers *or* when the round
    /// cap stopped the run before its fixpoint.
    pub missing: Instance,
    /// Rounds the centralized reference needed to reach its fixpoint.
    pub reference_rounds: usize,
}

impl MultiRoundInstanceReport {
    /// Whether the multi-round evaluation is correct on the instance.
    pub fn is_correct(&self) -> bool {
        self.correct
    }

    /// Judges an already-computed distributed `outcome` against the global
    /// fixpoint of the centralized iterated query — the comparison behind
    /// [`multi_round_correct_on`], exposed separately so callers that need
    /// to time or instrument the distributed run can evaluate it themselves
    /// without re-implementing the verdict.
    pub fn from_outcome(
        query: &ConjunctiveQuery,
        engine: &MultiRoundEngine<'_>,
        instance: &Instance,
        outcome: MultiRoundOutcome,
    ) -> MultiRoundInstanceReport {
        let reference = engine.reference_fixpoint(query, instance);
        let missing = reference.result.difference(&outcome.result);
        MultiRoundInstanceReport {
            correct: missing.is_empty() && reference.result.contains_all(&outcome.result),
            expected: reference.result,
            outcome,
            missing,
            reference_rounds: reference.rounds,
        }
    }
}

/// Decides multi-round parallel-correctness *on a given instance*: runs the
/// engine's distribute→evaluate cycles and compares the accumulated result
/// against the **global fixpoint** of the centralized iterated query (same
/// carry/feedback semantics, no round cap — guaranteed to terminate because
/// conjunctive queries cannot invent new data values).
///
/// This is the multi-round analogue of Definition 3.1: correctness now
/// requires both that no round's reshuffle loses answers *and* that the
/// round cap suffices to reach the fixpoint.
pub fn multi_round_correct_on(
    query: &ConjunctiveQuery,
    engine: &MultiRoundEngine<'_>,
    instance: &Instance,
) -> MultiRoundInstanceReport {
    let outcome = engine.evaluate(query, instance);
    MultiRoundInstanceReport::from_outcome(query, engine, instance, outcome)
}

/// Decides parallel-correctness of `query` under a finite policy for **all**
/// instances `I ⊆ facts(P)` (`PC(Pfin)`, Theorem 3.8), using the
/// characterization by minimal valuations (condition (C1), Lemma 3.4 /
/// Lemma B.4).
pub fn check_parallel_correctness<P: FinitePolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
) -> PcReport {
    let universe = policy.fact_universe();
    check_parallel_correctness_bounded(query, policy, &universe)
}

/// Decides parallel-correctness restricted to instances over a finite fact
/// universe (the `Pⁿ` restriction used for black-box policies in the paper,
/// Section 3): the query is parallel-correct on every instance
/// `I ⊆ universe` if and only if every minimal valuation over `universe`
/// has its required facts meeting at some node.
pub fn check_parallel_correctness_bounded<P: DistributionPolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
    universe: &Instance,
) -> PcReport {
    let _span = obs::span!("pc_check", universe = universe.len());
    let (violation, stats) = meet_violation(query, policy, universe, true);
    let violation = violation.map(|found| {
        let C1Violation {
            valuation,
            required_facts,
        } = found;
        PcViolation {
            lost_fact: valuation.derived_fact(query),
            valuation,
            counterexample_instance: required_facts,
        }
    });
    PcReport {
        correct: violation.is_none(),
        violation,
        cache: stats.record(),
    }
}

/// Brute-force reference decision of `PC(Pfin)`: checks Definition 3.1 on
/// **every** subinstance of `facts(P)`.
///
/// Exponential in `|facts(P)|`; used to cross-validate
/// [`check_parallel_correctness`] in tests and benchmarks.
pub fn check_parallel_correctness_naive<P: FinitePolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
) -> bool {
    let universe = policy.fact_universe();
    universe
        .subsets()
        .iter()
        .all(|i| check_parallel_correctness_on_instance(query, policy, i).correct)
}

/// Statistics of the incremental brute-force search
/// ([`check_parallel_correctness_naive_incremental`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalPcStats {
    /// Candidate subinstances whose PCI verdict was checked (`2^|facts(P)|`).
    pub subsets_checked: u64,
    /// Semi-naive differential evaluation steps performed — one per
    /// (inserted fact, affected instance) pair, instead of one full
    /// evaluation per candidate instance and node.
    pub seminaive_steps: u64,
    /// Hit/miss counters of the [`IndexCache`] the candidate instances were
    /// warmed through.
    pub cache: CacheStats,
}

/// The result of the incremental brute-force `PC(Pfin)` decision.
#[derive(Clone, Debug)]
pub struct IncrementalPcReport {
    /// Whether the query is parallel-correct under the policy.
    pub correct: bool,
    /// A counterexample subinstance violating Definition 3.1, when not.
    pub counterexample: Option<Instance>,
    /// Search statistics.
    pub stats: IncrementalPcStats,
}

impl IncrementalPcReport {
    /// Whether the query is parallel-correct.
    pub fn is_correct(&self) -> bool {
        self.correct
    }

    /// The index-cache counters accumulated during the search.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats.cache
    }
}

/// Incremental brute-force decision of `PC(Pfin)`: checks Definition 3.1 on
/// every subinstance of `facts(P)` like
/// [`check_parallel_correctness_naive`], but walks the subset lattice
/// depth-first and re-evaluates only the **delta** between consecutive
/// candidate instances.
///
/// Including one fact `f` extends the running global instance and the
/// chunks of the nodes `f` is assigned to; each extension costs one
/// [`evaluate_seminaive_step`] (joining the single-fact delta against the
/// grown instance) instead of a from-scratch evaluation of every candidate
/// at every node. The candidate instances are warmed through a shared
/// [`IndexCache`], so replicated chunks (a broadcast node set, or a chunk
/// equal to the global instance) share one set of secondary indexes.
pub fn check_parallel_correctness_naive_incremental<P: FinitePolicy + ?Sized>(
    query: &ConjunctiveQuery,
    policy: &P,
) -> IncrementalPcReport {
    let universe = policy.fact_universe();
    let facts: Vec<Fact> = universe.facts().cloned().collect();
    let nodes: Vec<distribution::Node> = policy.network().nodes().collect();
    let mut search = IncrementalSearch {
        query,
        facts,
        full: Instance::new(),
        derived: Instance::new(),
        chunks: vec![Instance::new(); nodes.len()],
        node_derived: vec![Instance::new(); nodes.len()],
        cache: IndexCache::default(),
        stats: IncrementalPcStats::default(),
        counterexample: None,
    };
    let assigned: Vec<Vec<usize>> = search
        .facts
        .iter()
        .map(|f| {
            let at = policy.nodes_for(f);
            nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| at.contains(n))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    search.dfs(0, &assigned);
    let mut stats = search.stats;
    stats.cache = search.cache.stats();
    IncrementalPcReport {
        correct: search.counterexample.is_none(),
        counterexample: search.counterexample,
        stats,
    }
}

/// The mutable state of the depth-first subset-lattice walk.
struct IncrementalSearch<'a> {
    query: &'a ConjunctiveQuery,
    facts: Vec<Fact>,
    /// The candidate global instance for the current lattice position.
    full: Instance,
    /// `Q(full)`, maintained by differential steps.
    derived: Instance,
    /// Per-node chunk of `full` under the policy.
    chunks: Vec<Instance>,
    /// Per-node `Q(chunk)`, maintained by differential steps.
    node_derived: Vec<Instance>,
    cache: IndexCache,
    stats: IncrementalPcStats,
    counterexample: Option<Instance>,
}

impl IncrementalSearch<'_> {
    /// One differential step: inserts `fact` into `target`, derives what is
    /// new via a semi-naive step against the grown (cache-warmed) instance,
    /// merges it into `derived`, and returns the merged facts for undo.
    fn step(
        query: &ConjunctiveQuery,
        cache: &mut IndexCache,
        stats: &mut IncrementalPcStats,
        target: &mut Instance,
        derived: &mut Instance,
        fact: &Fact,
        delta: &Instance,
    ) -> Vec<Fact> {
        target.insert(fact.clone());
        let warmed = cache.warm(target);
        let new = evaluate_seminaive_step(query, &warmed, delta);
        stats.seminaive_steps += 1;
        let added: Vec<Fact> = new
            .facts()
            .filter(|g| !derived.contains(g))
            .cloned()
            .collect();
        for g in &added {
            derived.insert(g.clone());
        }
        added
    }

    fn dfs(&mut self, depth: usize, assigned: &[Vec<usize>]) {
        if self.counterexample.is_some() {
            return;
        }
        if depth == self.facts.len() {
            self.stats.subsets_checked += 1;
            // Q is monotone, so every node derives a subset of Q(full);
            // the verdict reduces to "does the union cover Q(full)?".
            let mut distributed = Instance::new();
            for nd in &self.node_derived {
                distributed = distributed.union(nd);
            }
            if !self.derived.difference(&distributed).is_empty() {
                self.counterexample = Some(self.full.clone());
            }
            return;
        }

        // Exclude facts[depth]: state is unchanged.
        self.dfs(depth + 1, assigned);
        if self.counterexample.is_some() {
            return;
        }

        // Include facts[depth]: one differential step per affected instance.
        let fact = self.facts[depth].clone();
        let delta = Instance::from_facts([fact.clone()]);
        let added_global = Self::step(
            self.query,
            &mut self.cache,
            &mut self.stats,
            &mut self.full,
            &mut self.derived,
            &fact,
            &delta,
        );
        let mut added_per_node = Vec::with_capacity(assigned[depth].len());
        for &node in &assigned[depth] {
            let added = Self::step(
                self.query,
                &mut self.cache,
                &mut self.stats,
                &mut self.chunks[node],
                &mut self.node_derived[node],
                &fact,
                &delta,
            );
            added_per_node.push((node, added));
        }

        self.dfs(depth + 1, assigned);

        // Undo the inclusion; a counterexample keeps its clone of `full`.
        for (node, added) in added_per_node {
            for g in &added {
                self.node_derived[node].remove(g);
            }
            self.chunks[node].remove(&fact);
        }
        for g in &added_global {
            self.derived.remove(g);
        }
        self.full.remove(&fact);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_instance, Fact};
    use distribution::{ExplicitPolicy, HypercubePolicy, Network, Node};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    fn all_r_facts(values: &[&str]) -> Instance {
        let mut out = Instance::new();
        for x in values {
            for y in values {
                out.insert(Fact::from_names("R", &[x, y]));
            }
        }
        out
    }

    fn example_3_5_policy(universe: &Instance) -> ExplicitPolicy {
        let r_ab = Fact::from_names("R", &["a", "b"]);
        let r_ba = Fact::from_names("R", &["b", "a"]);
        let mut policy = ExplicitPolicy::new(Network::with_size(2));
        for fact in universe.facts() {
            let mut nodes = Vec::new();
            if *fact != r_ab {
                nodes.push(Node::numbered(0));
            }
            if *fact != r_ba {
                nodes.push(Node::numbered(1));
            }
            policy.assign(fact.clone(), nodes);
        }
        policy
    }

    #[test]
    fn example_3_5_query_is_parallel_correct_under_its_policy() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let universe = all_r_facts(&["a", "b"]);
        let policy = example_3_5_policy(&universe);
        let report = check_parallel_correctness(&query, &policy);
        assert!(report.is_correct());
        assert!(report.violation.is_none());
        // agrees with the brute-force reference over all 2^4 subinstances
        assert!(check_parallel_correctness_naive(&query, &policy));
    }

    #[test]
    fn plain_path_query_is_not_parallel_correct_under_example_3_5_policy() {
        // Without the R(x,x) atom the valuation x=a,y=b,z=a is minimal and
        // requires R(a,b), R(b,a), which never meet.
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let universe = all_r_facts(&["a", "b"]);
        let policy = example_3_5_policy(&universe);
        let report = check_parallel_correctness(&query, &policy);
        assert!(!report.is_correct());
        let violation = report.violation.unwrap();
        assert_eq!(violation.counterexample_instance.len(), 2);
        assert!(!check_parallel_correctness_naive(&query, &policy));

        // The counterexample instance really does break Definition 3.1.
        let pci = check_parallel_correctness_on_instance(
            &query,
            &policy,
            &violation.counterexample_instance,
        );
        assert!(!pci.is_correct());
        assert!(pci.missing.contains(&violation.lost_fact));
    }

    #[test]
    fn broadcast_policies_are_always_parallel_correct() {
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let mut universe = parse_instance("R(a, b). R(b, c). S(b, d). S(c, e).").unwrap();
        universe.insert(Fact::from_names("S", &["d", "f"]));
        let policy = ExplicitPolicy::broadcast(&Network::with_size(3), &universe);
        assert!(check_parallel_correctness(&query, &policy).is_correct());
        assert!(check_parallel_correctness_naive(&query, &policy));
    }

    #[test]
    fn round_robin_splits_joins_and_fails() {
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let universe = parse_instance("R(a, b). S(b, c).").unwrap();
        let policy = ExplicitPolicy::round_robin(&Network::with_size(2), &universe);
        let report = check_parallel_correctness(&query, &policy);
        assert!(!report.is_correct());
        assert!(!check_parallel_correctness_naive(&query, &policy));
    }

    #[test]
    fn characterization_agrees_with_naive_on_many_small_policies() {
        // Cross-validation of Lemma 3.4 / Lemma B.4: the (C1)-based decision
        // agrees with the brute-force Definition 3.2 check for a collection
        // of small queries and policies.
        let queries = [
            q("T(x, z) :- R(x, y), R(y, z)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T(x) :- R(x, x)."),
            q("T() :- R(x, y), R(y, x)."),
        ];
        let universe = all_r_facts(&["a", "b"]);
        let facts: Vec<Fact> = universe.facts().cloned().collect();

        // A deterministic family of policies over two nodes: every subset of
        // facts goes to node 0, the complement to node 1 (plus broadcast and
        // skip variants).
        for mask in 0..(1u32 << facts.len()) {
            let mut policy = ExplicitPolicy::new(Network::with_size(2));
            for (i, fact) in facts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    policy.assign(fact.clone(), [Node::numbered(0)]);
                } else {
                    policy.assign(fact.clone(), [Node::numbered(1)]);
                }
            }
            for query in &queries {
                assert_eq!(
                    check_parallel_correctness(query, &policy).is_correct(),
                    check_parallel_correctness_naive(query, &policy),
                    "mismatch for {query} under mask {mask:b}"
                );
            }
        }
    }

    #[test]
    fn incremental_search_agrees_with_scratch_on_many_small_policies() {
        // The incremental subset-lattice walk must reach exactly the verdict
        // of the from-scratch brute force on the same policy family, and any
        // counterexample it reports must genuinely violate Definition 3.1.
        let queries = [
            q("T(x, z) :- R(x, y), R(y, z)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T(x) :- R(x, x)."),
            q("T() :- R(x, y), R(y, x)."),
        ];
        let universe = all_r_facts(&["a", "b"]);
        let facts: Vec<Fact> = universe.facts().cloned().collect();
        for mask in 0..(1u32 << facts.len()) {
            let mut policy = ExplicitPolicy::new(Network::with_size(2));
            for (i, fact) in facts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    policy.assign(fact.clone(), [Node::numbered(0)]);
                } else {
                    policy.assign(fact.clone(), [Node::numbered(1)]);
                }
            }
            for query in &queries {
                let scratch = check_parallel_correctness_naive(query, &policy);
                let report = check_parallel_correctness_naive_incremental(query, &policy);
                assert_eq!(
                    report.is_correct(),
                    scratch,
                    "incremental diverged for {query} under mask {mask:b}"
                );
                if report.is_correct() {
                    assert_eq!(report.stats.subsets_checked, 1 << facts.len());
                } else {
                    assert!(report.stats.subsets_checked <= 1 << facts.len());
                }
                if let Some(counterexample) = &report.counterexample {
                    let pci =
                        check_parallel_correctness_on_instance(query, &policy, counterexample);
                    assert!(!pci.is_correct(), "bogus counterexample for {query}");
                }
            }
        }
    }

    #[test]
    fn incremental_search_shares_indexes_on_replicated_chunks() {
        // Under a broadcast policy every node's chunk equals the global
        // instance, so warming the candidates through the cache must produce
        // hits (shared indexes) rather than per-node rebuilds.
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let universe = all_r_facts(&["a", "b"]);
        let policy = ExplicitPolicy::broadcast(&Network::with_size(3), &universe);
        let report = check_parallel_correctness_naive_incremental(&query, &policy);
        assert!(report.is_correct());
        assert!(
            report.cache_stats().hits > report.cache_stats().misses,
            "broadcast chunks must mostly hit the shared cache: {:?}",
            report.stats
        );
        assert!(report.stats.seminaive_steps > 0);
    }

    #[test]
    fn hypercube_policies_are_parallel_correct_for_their_query() {
        // Corollary of Lemma 5.7 (Q-generous ⇒ (C0) ⇒ (C1)).
        let queries = [
            q("T(x, z) :- R(x, y), S(y, z)."),
            q("T(x, y, z) :- E(x, y), E(y, z), E(z, x)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
        ];
        for query in &queries {
            let policy = HypercubePolicy::uniform(query, 2).unwrap();
            // bounded check over a small fact universe
            let mut universe = Instance::new();
            for rel in query.schema().relations() {
                for x in ["a", "b", "c"] {
                    for y in ["a", "b", "c"] {
                        universe.insert(Fact::new(rel.name, vec![x.into(), y.into()]));
                    }
                }
            }
            let report = check_parallel_correctness_bounded(query, &policy, &universe);
            assert!(report.is_correct(), "hypercube not PC for {query}");
        }
    }

    #[test]
    fn pci_report_lists_missing_facts() {
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let instance = parse_instance("R(a, b). S(b, c). R(c, b). S(b, a).").unwrap();
        let policy = ExplicitPolicy::round_robin(&Network::with_size(4), &instance);
        let report = check_parallel_correctness_on_instance(&query, &policy, &instance);
        assert!(!report.is_correct());
        assert_eq!(report.expected.len(), 4);
        assert!(!report.missing.is_empty());
        assert!(report.expected.contains_all(&report.distributed));
    }

    #[test]
    fn single_node_policies_are_always_parallel_correct() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(z, x).");
        let universe = all_r_facts(&["a", "b"]);
        let mut policy = ExplicitPolicy::new(Network::with_size(1));
        for fact in universe.facts() {
            policy.assign(fact.clone(), [Node::numbered(0)]);
        }
        assert!(check_parallel_correctness(&query, &policy).is_correct());
    }

    #[test]
    fn multi_round_hypercube_closure_matches_the_global_fixpoint() {
        // Hypercube policies are parallel-correct for their query on every
        // instance, so each round preserves the centralized semantics and
        // the iterated run must reach the exact global fixpoint.
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let instance =
            parse_instance("R(a, b). R(b, c). R(c, d). R(d, e). R(e, f). R(b, a).").unwrap();
        let policy = HypercubePolicy::uniform(&query, 2).unwrap();
        let engine = MultiRoundEngine::new(distribution::RoundSchedule::repeat(&policy))
            .rounds(16)
            .feedback_into("R");
        let report = multi_round_correct_on(&query, &engine, &instance);
        assert!(report.is_correct(), "missing: {}", report.missing);
        assert!(report.outcome.converged);
        assert!(report.missing.is_empty());
        assert_eq!(report.outcome.rounds_run(), report.reference_rounds);
        assert_eq!(report.outcome.result, report.expected);
    }

    #[test]
    fn round_capped_multi_round_run_is_reported_incorrect() {
        // Two rounds of squaring cannot close a 8-edge chain, so the capped
        // distributed run falls short of the global fixpoint.
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let text: String = (0..8).map(|i| format!("R(v{i}, v{}).", i + 1)).collect();
        let instance = parse_instance(&text).unwrap();
        let policy = HypercubePolicy::uniform(&query, 2).unwrap();
        let engine = MultiRoundEngine::new(distribution::RoundSchedule::repeat(&policy))
            .rounds(2)
            .feedback_into("R");
        let report = multi_round_correct_on(&query, &engine, &instance);
        assert!(!report.is_correct());
        assert!(!report.outcome.converged);
        assert!(!report.missing.is_empty());
        assert!(report.expected.contains_all(&report.outcome.result));
    }

    #[test]
    fn answer_losing_policy_is_caught_by_the_multi_round_check() {
        // Round-robin splits the joining facts, so even with a generous
        // round cap the distributed run misses fixpoint facts.
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let instance = parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
        let policy = ExplicitPolicy::round_robin(&Network::with_size(3), &instance);
        let engine = MultiRoundEngine::new(distribution::RoundSchedule::repeat(&policy))
            .rounds(8)
            .feedback_into("R");
        let report = multi_round_correct_on(&query, &engine, &instance);
        assert!(!report.is_correct());
        assert!(!report.missing.is_empty());
    }
}
