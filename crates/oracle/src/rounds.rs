//! The iterated query's global fixpoint by full re-evaluation.

use cq::{ConjunctiveQuery, Fact, Instance, Symbol};
use distribution::IteratedFixpoint;

use crate::eval::evaluate;

/// The global fixpoint of `query` iterated with `feedback` (see
/// `distribution::MultiRoundEngine::feedback_into`), the naive way: every
/// round evaluates the whole carried state again, renames the answers into
/// `feedback` and stops at the first round that adds nothing to the state.
/// Without feedback it is one evaluation. The reference that
/// `MultiRoundEngine::reference_fixpoint`, which reads only each round's
/// delta, must equal on `result` and `rounds`.
pub fn naive_fixpoint(
    query: &ConjunctiveQuery,
    instance: &Instance,
    feedback: Option<&str>,
) -> IteratedFixpoint {
    let Some(relation) = feedback.map(Symbol::new) else {
        return IteratedFixpoint {
            result: evaluate(query, instance),
            rounds: 1,
        };
    };
    let mut state = instance.clone();
    let mut result = Instance::new();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let output = evaluate(query, &state);
        result.absorb(&output);
        let renamed: Instance = output
            .facts()
            .map(|f| Fact::new(relation, f.values.clone()))
            .collect();
        if state.absorb(&renamed).is_empty() {
            break;
        }
    }
    IteratedFixpoint { result, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_instance;
    use distribution::{HypercubePolicy, MultiRoundEngine, RoundSchedule};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `reference_fixpoint` of an engine with `feedback` against the naive
    /// iteration.
    fn assert_semi_naive_is_naive(query: &ConjunctiveQuery, instance: &Instance, feedback: &str) {
        let policy = HypercubePolicy::uniform(query, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy)).feedback_into(feedback);
        let naive = naive_fixpoint(query, instance, Some(feedback));
        assert_eq!(
            engine.reference_fixpoint(query, instance),
            naive,
            "{query} with feedback {feedback} on {instance}"
        );
    }

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// The path 0 → 1 → … → `len` over `R`.
    fn path(len: usize) -> Instance {
        let edges = (0..len).map(|i| format!("R(v{i}, v{}).", i + 1));
        parse_instance(&edges.collect::<Vec<_>>().join(" ")).unwrap()
    }

    #[test]
    fn without_feedback_the_fixpoint_is_one_evaluation() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let instance = path(4);
        let naive = naive_fixpoint(&query, &instance, None);
        assert_eq!(naive.rounds, 1);
        assert_eq!(naive.result, cq::evaluate(&query, &instance));
        let policy = HypercubePolicy::uniform(&query, 2).unwrap();
        let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy));
        assert_eq!(engine.reference_fixpoint(&query, &instance), naive);
    }

    #[test]
    fn the_closure_takes_a_round_per_squaring() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let naive = naive_fixpoint(&query, &path(8), Some("R"));
        // Path doubling closes 8 edges in 3 productive rounds, plus the
        // round that adds nothing: every pair at distance 2 to 8.
        assert_eq!(naive.rounds, 4);
        assert_eq!(naive.result.len(), (2..=8).map(|d| 9 - d).sum::<usize>());
        assert_semi_naive_is_naive(&query, &path(8), "R");
    }

    #[test]
    fn a_feedback_relation_the_body_does_not_read_takes_two_rounds() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        assert_eq!(naive_fixpoint(&query, &path(5), Some("S")).rounds, 2);
        assert_semi_naive_is_naive(&query, &path(5), "S");
    }

    #[test]
    fn shapes_the_semi_naive_step_must_get_right() {
        let cases = [
            // A projecting head: y and z do not reach the answer.
            (
                "T(x, w) :- R(x, y), R(y, z), S(z, w).",
                "R",
                "R(a, b). R(b, c). R(c, d). S(d, e). S(c, c). S(b, a).",
            ),
            // A repeated variable inside an atom.
            (
                "T(x, z) :- R(x, y), R(y, y), R(y, z).",
                "R",
                "R(a, a). R(a, b). R(b, b). R(b, c). R(c, c). R(c, d). R(d, d). R(d, e). R(e, e).",
            ),
            // Pairs with a common successor: an answer of round 3 joins a
            // fact of round 2's delta with one of round 1's, which a step
            // over only the input and the last delta misses.
            (
                "T(x, z) :- R(x, y), R(z, y).",
                "R",
                "R(a, a). R(d, f). R(e, a). R(e, d).",
            ),
            // An arity-3 feedback relation.
            (
                "T(x, w, y) :- R(x, y, z), R(z, w, y).",
                "R",
                "R(a, b, c). R(c, d, b). R(d, b, a). R(a, a, d). R(b, c, c).",
            ),
        ];
        for (query, feedback, instance) in cases {
            let (query, instance) = (q(query), parse_instance(instance).unwrap());
            let naive = naive_fixpoint(&query, &instance, Some(feedback));
            assert!(naive.rounds > 2, "{query} should iterate: {naive:?}");
            assert_semi_naive_is_naive(&query, &instance, feedback);
        }
    }

    #[test]
    fn the_empty_instance_is_its_own_fixpoint_in_one_round() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let naive = naive_fixpoint(&query, &Instance::new(), Some("R"));
        assert_eq!((naive.result.len(), naive.rounds), (0, 1));
        assert_semi_naive_is_naive(&query, &Instance::new(), "R");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On the workload generator's queries (two binary relations,
        /// self-joins and repeated variables allowed, a binary head) and
        /// instances, fed back into either relation.
        #[test]
        fn reference_fixpoint_equals_the_naive_iteration(
            qseed in 0u64..1000,
            iseed in 0u64..1000,
            atoms in 1usize..4,
            feedback in 0usize..2,
        ) {
            let params = workloads::QueryParams { atoms, ..Default::default() };
            let query = workloads::random_query(&mut StdRng::seed_from_u64(qseed), params);
            if query.head().arity() == 2 {
                let instance = workloads::random_instance(
                    &mut StdRng::seed_from_u64(iseed),
                    &query.schema(),
                    workloads::InstanceParams { domain_size: 4, facts_per_relation: 6 },
                );
                assert_semi_naive_is_naive(&query, &instance, ["R0", "R1"][feedback]);
            }
        }
    }
}
