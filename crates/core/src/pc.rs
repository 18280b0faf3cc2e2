//! Deciding parallel-correctness (Section 3 of the paper), and its
//! multi-round extension: comparing an iterated distributed run against the
//! global fixpoint of the iterated query.

use cq::{evaluate, ConjunctiveQuery, Instance};
use distribution::{
    DistributionPolicy, FinitePolicy, IteratedFixpoint, MultiRoundEngine, MultiRoundOutcome,
    OneRoundEngine,
};

use crate::conditions::{meet_violation, C1Violation};
use crate::minimality::CacheStats;

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
    /// How many valuations over the fact universe the (C1) search visited.
    pub candidates: u64,
    /// How the minimality asks were answered: `hits` by the candidate's
    /// equality type, `misses` by running the search. Only a candidate whose
    /// facts do not meet is asked about.
    pub cache: CacheStats,
}

impl PcReport {
    /// Whether the query is parallel-correct.
    pub fn is_correct(&self) -> bool {
        self.correct
    }

    /// How many valuations the search visited.
    pub fn candidates(&self) -> u64 {
        self.candidates
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
pub fn check_parallel_correctness_on_instance(
    query: &ConjunctiveQuery,
    policy: &dyn DistributionPolicy,
    instance: &Instance,
) -> PcInstanceReport {
    let expected = evaluate(query, instance);
    let outcome = OneRoundEngine::new(policy).evaluate(query, instance);
    let distributed = std::sync::Arc::unwrap_or_clone(outcome.result);
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

    /// Judges `outcome` against an already-computed `reference`, the
    /// engine's [`MultiRoundEngine::reference_fixpoint`] for the outcome's
    /// query and instance: the verdict of [`multi_round_correct_on`], for
    /// callers that time or instrument the distributed run themselves, or
    /// run one query several times and compute its reference once.
    pub fn from_reference(
        outcome: MultiRoundOutcome,
        reference: IteratedFixpoint,
    ) -> MultiRoundInstanceReport {
        // One pass decides; `missing` is only computed when they differ.
        let correct = *outcome.result == reference.result;
        let missing = if correct {
            Instance::new()
        } else {
            reference.result.difference(&outcome.result)
        };
        MultiRoundInstanceReport {
            correct,
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
    let reference = engine.reference_fixpoint(query, instance);
    MultiRoundInstanceReport::from_reference(outcome, reference)
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
    let (violation, stats, candidates) = meet_violation(query, policy, universe, true);
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
        candidates,
        cache: stats.record(candidates),
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
        assert_eq!(*report.outcome.result, report.expected);
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
