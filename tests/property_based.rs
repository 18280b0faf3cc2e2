//! Property-based tests spanning the whole stack: parallel-correctness,
//! transferability and the Hypercube machinery on randomly generated
//! queries, instances and policies.

use pcq::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a random query from a seed using the workload generator (proptest
/// drives the seed and the shape parameters).
fn query_from(seed: u64, atoms: usize, variables: usize, head: usize) -> ConjunctiveQuery {
    workloads::random_query(
        &mut StdRng::seed_from_u64(seed),
        workloads::QueryParams {
            relations: 2,
            arity: 2,
            atoms,
            variables,
            head_variables: head,
            allow_self_joins: true,
        },
    )
}

fn instance_from(seed: u64, schema: &Schema, domain: usize, facts: usize) -> Instance {
    workloads::random_instance(
        &mut StdRng::seed_from_u64(seed),
        schema,
        workloads::InstanceParams {
            domain_size: domain,
            facts_per_relation: facts,
        },
    )
}

proptest! {
    // Bounded and explicitly seeded: 24 deterministic cases per property
    // (each case drives seeded StdRng workload generators below), so
    // `cargo test -q` is reproducible and fast.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x9C9_5EED))]

    /// (C0) implies (C1) implies parallel-correctness, and the (C1)-based
    /// decision agrees with the brute-force check over all subinstances of
    /// the (tiny) fact universe.
    #[test]
    fn condition_hierarchy_and_exactness(
        qseed in 0u64..1000,
        pseed in 0u64..1000,
        nodes in 2usize..4,
        replication in 1usize..3,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let universe = workloads::complete_binary_relation("R0", &["a", "b"])
            .union(&workloads::complete_binary_relation("R1", &["a", "b"]));
        let policy = workloads::random_explicit_policy(
            &mut StdRng::seed_from_u64(pseed),
            &universe,
            workloads::PolicyParams { nodes, replication, skip_probability: 0.0 },
        );
        let c0 = holds_c0(&query, &policy, &universe);
        let c1 = holds_c1(&query, &policy, &universe);
        let pc = check_parallel_correctness(&query, &policy).is_correct();
        prop_assert!(!c0 || c1, "C0 must imply C1");
        prop_assert_eq!(c1, pc, "C1 must characterize parallel-correctness");
        // brute force over every subinstance of an 8-fact universe
        let naive = pc_core::check_parallel_correctness_naive(&query, &policy);
        prop_assert_eq!(pc, naive);
    }

    /// Every query is parallel-correct under every member of its own
    /// Hypercube family, on arbitrary instances (Lemma 5.7).
    #[test]
    fn hypercube_members_are_parallel_correct(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        buckets in 1usize..4,
        domain in 2usize..7,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), domain, 20);
        let policy = HypercubePolicy::uniform(&query, buckets).unwrap();
        let outcome = OneRoundEngine::new(&policy).evaluate(&query, &instance);
        prop_assert_eq!(outcome.result, evaluate(&query, &instance));
    }

    /// Transferability is sound: if it holds from Q to Q', then Q' is
    /// parallel-correct under every sampled policy for which Q is.
    #[test]
    fn transfer_soundness_on_sampled_policies(
        from_seed in 0u64..300,
        to_seed in 0u64..300,
        pseed in 0u64..300,
    ) {
        let from = query_from(from_seed, 2, 3, 1);
        let to = query_from(to_seed, 2, 3, 1);
        let transfers = check_transfer(&from, &to).transfers();
        if transfers {
            let universe = workloads::complete_binary_relation("R0", &["a", "b"])
                .union(&workloads::complete_binary_relation("R1", &["a", "b"]));
            for k in 0..4u64 {
                let policy = workloads::random_explicit_policy(
                    &mut StdRng::seed_from_u64(pseed ^ (k.wrapping_mul(0x9E3779B9))),
                    &universe,
                    workloads::PolicyParams { nodes: 2 + (k as usize % 2), replication: 1, skip_probability: 0.0 },
                );
                if check_parallel_correctness(&from, &policy).is_correct() {
                    prop_assert!(
                        check_parallel_correctness(&to, &policy).is_correct(),
                        "transfer {from} => {to} is unsound for a sampled policy"
                    );
                }
            }
        }
    }

    /// The strongly-minimal fast path never disagrees with the general
    /// transfer decision when it applies, and Lemma 4.8 never misclassifies.
    #[test]
    fn strong_minimality_consistency(qseed in 0u64..1000, toseed in 0u64..1000) {
        let query = query_from(qseed, 3, 4, 2);
        if pc_core::satisfies_lemma_4_8(&query) {
            prop_assert!(is_strongly_minimal(&query));
        }
        if is_strongly_minimal(&query) {
            let to = query_from(toseed, 2, 3, 1);
            prop_assert_eq!(
                check_transfer(&query, &to).transfers(),
                check_transfer_strongly_minimal(&query, &to).transfers()
            );
        }
    }

    /// One-round evaluation under an explicit broadcast policy always equals
    /// the centralized result, and under a round-robin policy it never
    /// produces more answers than the centralized result (monotonicity).
    #[test]
    fn one_round_evaluation_bounds(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        nodes in 1usize..5,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), 4, 12);
        let expected = evaluate(&query, &instance);

        let network = Network::with_size(nodes);
        let broadcast = ExplicitPolicy::broadcast(&network, &instance);
        let b = OneRoundEngine::new(&broadcast).evaluate(&query, &instance);
        prop_assert_eq!(&b.result, &expected);

        let rr = ExplicitPolicy::round_robin(&network, &instance);
        let r = OneRoundEngine::new(&rr).evaluate(&query, &instance);
        prop_assert!(expected.contains_all(&r.result));
    }

    /// Differential: at the whole-stack level, a one-round-capped
    /// `MultiRoundEngine` agrees exactly with `OneRoundEngine` on random
    /// explicit policies (including skipping, replicating ones).
    #[test]
    fn multi_round_capped_at_one_agrees_with_one_round(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        pseed in 0u64..1000,
        nodes in 1usize..4,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), 3, 8);
        let policy = workloads::random_explicit_policy(
            &mut StdRng::seed_from_u64(pseed),
            &instance,
            workloads::PolicyParams { nodes, replication: 2, skip_probability: 0.25 },
        );
        let one = OneRoundEngine::new(&policy).evaluate(&query, &instance);
        let multi = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(1)
            .evaluate(&query, &instance);
        prop_assert_eq!(multi.rounds_run(), 1);
        prop_assert_eq!(&multi.result, &one.result);
        prop_assert_eq!(&multi.rounds[0].per_node_load, &one.per_node_load);
        prop_assert_eq!(&multi.rounds[0].per_node_output, &one.per_node_output);
        prop_assert_eq!(multi.rounds[0].stats, one.stats);
    }

    /// Multi-round evaluation under a query's own Hypercube policy with
    /// feedback reaches exactly the global fixpoint of the iterated query:
    /// each round is parallel-correct (Lemma 5.7), so the iteration must
    /// converge to the centralized reference.
    #[test]
    fn hypercube_multi_round_reaches_the_global_fixpoint(
        qseed in 0u64..1000,
        iseed in 0u64..1000,
        buckets in 1usize..3,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        // feedback requires the head arity to match the input relations
        if query.head().arity() == 2 {
            let instance = instance_from(iseed, &query.schema(), 4, 10);
            let policy = HypercubePolicy::uniform(&query, buckets).unwrap();
            let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                .rounds(40)
                .feedback_into("R0");
            let report = multi_round_correct_on(&query, &engine, &instance);
            prop_assert!(report.outcome.converged, "40 rounds over a 4-value domain must converge");
            prop_assert!(report.is_correct(), "missing: {}", report.missing);
            prop_assert_eq!(report.outcome.rounds_run(), report.reference_rounds);
        }
    }

    /// Streaming, parallel-reshuffle multi-round runs agree with the
    /// materialized engine round for round at the whole-stack level.
    #[test]
    fn streaming_multi_round_agrees_with_materialized(
        qseed in 0u64..500,
        iseed in 0u64..500,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        if query.head().arity() == 2 {
            let instance = instance_from(iseed, &query.schema(), 3, 8);
            let policy = HypercubePolicy::uniform(&query, 2).unwrap();
            let configure = || MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                .rounds(20)
                .feedback_into("R0");
            let base = configure().evaluate(&query, &instance);
            let streamed = configure()
                .streaming(true)
                .workers(3)
                .distribute_workers(2)
                .evaluate(&query, &instance);
            prop_assert_eq!(&base.result, &streamed.result);
            prop_assert_eq!(base.converged, streamed.converged);
            prop_assert_eq!(base.rounds_run(), streamed.rounds_run());
            for (m, s) in base.rounds.iter().zip(&streamed.rounds) {
                prop_assert_eq!(&m.result, &s.result);
                prop_assert_eq!(&m.per_node_load, &s.per_node_load);
                prop_assert_eq!(m.stats, s.stats);
            }
        }
    }

    /// The acceptance property of the incremental subsystem: semi-naive
    /// multi-round runs (delta shipping, stateful nodes, differential
    /// local evaluation) reach exactly the same fixpoint, in the same
    /// number of rounds, as full re-evaluation — on random queries and
    /// instances, with and without feedback.
    #[test]
    fn semi_naive_multi_round_equals_full_reevaluation(
        qseed in 0u64..500,
        iseed in 0u64..500,
        feedback in 0usize..2,
    ) {
        let query = query_from(qseed, 3, 4, 2);
        if query.head().arity() == 2 {
            let instance = instance_from(iseed, &query.schema(), 3, 8);
            let policy = HypercubePolicy::uniform(&query, 2).unwrap();
            let configure = || {
                let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy)).rounds(20);
                if feedback == 1 { engine.feedback_into("R0") } else { engine }
            };
            let full = configure().evaluate(&query, &instance);
            let semi = configure().semi_naive(true).workers(2).evaluate(&query, &instance);
            prop_assert_eq!(&semi.result, &full.result);
            prop_assert_eq!(semi.converged, full.converged);
            prop_assert_eq!(semi.rounds_run(), full.rounds_run());
            prop_assert_eq!(&semi.final_state, &full.final_state);
            // what the rounds shipped can only shrink
            prop_assert!(semi.total_comm_volume() <= full.total_comm_volume());
        }
    }

    /// Valuation minimality is decided consistently with its definition on
    /// small instances: a valuation is minimal iff no other satisfying
    /// valuation on its required facts derives the same fact from strictly
    /// fewer facts.
    #[test]
    fn valuation_minimality_matches_definition(qseed in 0u64..1000, iseed in 0u64..1000) {
        let query = query_from(qseed, 3, 4, 2);
        let instance = instance_from(iseed, &query.schema(), 3, 10);
        for v in cq::satisfying_valuations(&query, &instance).into_iter().take(10) {
            let required = v.required_facts(&query);
            let brute = cq::satisfying_valuations(&query, &required)
                .into_iter()
                .all(|w| {
                    w.derived_fact(&query) != v.derived_fact(&query)
                        || w.required_facts(&query).len() >= required.len()
                });
            prop_assert_eq!(pc_core::is_minimal_valuation(&query, &v), brute);
        }
    }
}

/// A query with more variables than a machine word has bits — the `from`
/// side of the Π₃ reduction over 27 distinct DNF terms — evaluates
/// identically through the slot kernel under every join, with the identity
/// valuation on its own frozen body among the answers. Guards any "one bit
/// per variable" shortcut in the compiled bindings.
#[test]
fn kernel_handles_queries_with_more_than_64_variables() {
    use pcq::logic::{Clause, Dnf, Literal, Pi3Qbf};
    use std::collections::BTreeSet;

    // Every variable triple of five variables under three sign patterns:
    // all terms differ, so a term atom matches one term fact.
    let mut terms = Vec::new();
    for a in 0..5 {
        for b in a + 1..5 {
            for c in b + 1..5 {
                for signs in [
                    [true, true, false],
                    [false, true, true],
                    [true, false, true],
                ] {
                    terms.push(Clause::new(
                        [a, b, c]
                            .iter()
                            .zip(signs)
                            .map(|(&var, positive)| Literal { var, positive })
                            .collect(),
                    ));
                }
            }
        }
    }
    terms.truncate(27);
    let qbf = Pi3Qbf::new(vec![0], vec![1], vec![2, 3, 4], Dnf::new(5, terms));
    let query = pcq::reductions::pi3_to_transfer(&qbf).from;
    let variables = query.variables();
    assert!(variables.len() > 64, "only {} variables", variables.len());

    let freeze = |v: &Variable| Value::new(v.as_str());
    let frozen_body = Instance::from_facts(
        query
            .body()
            .iter()
            .map(|atom| Fact::new(atom.relation, atom.args.iter().map(freeze).collect())),
    );
    let identity = Valuation::from_pairs(variables.iter().map(|v| (*v, freeze(v))));

    let valuations = |opts: EvalOptions| -> BTreeSet<Valuation> {
        cq::satisfying_valuations_with(&query, &frozen_body, &Valuation::new(), opts)
            .into_iter()
            .collect()
    };
    let oracle = valuations(EvalOptions::scan_naive());
    assert!(oracle.contains(&identity));
    for v in &oracle {
        assert!(v.is_total_for(&query) && v.satisfies(&query, &frozen_body));
    }
    let answers = cq::evaluate_with(&query, &frozen_body, EvalOptions::scan_naive());
    for strategy in [
        JoinStrategy::Binary,
        JoinStrategy::Multiway,
        JoinStrategy::Auto,
    ] {
        let opts = EvalOptions::default().with_join_strategy(strategy);
        assert_eq!(valuations(opts), oracle, "{strategy:?}");
        assert_eq!(
            cq::evaluate_with(&query, &frozen_body, opts),
            answers,
            "{strategy:?}"
        );
    }
}
