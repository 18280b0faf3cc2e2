//! Cross-crate integration tests for transferability and the family-level
//! results of Section 5.

use pcq::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The semantics of transferability (Definition 4.1), checked operationally:
/// if transfer holds from Q to Q', then for every (random, finite) policy
/// under which Q is parallel-correct, Q' is parallel-correct as well.
#[test]
fn transfer_guarantees_reuse_of_random_policies() {
    let mut rng = StdRng::seed_from_u64(10);
    let pairs = [
        // (from, to, expected transfer)
        (
            "T(x, z) :- R(x, y), R(y, z), R(y, y).",
            "U(x, z) :- R(x, y), R(y, z).",
            true,
        ),
        ("T(x, y) :- R(x, y).", "U(x) :- R(x, x).", true),
        (
            "T(x, z) :- R(x, y), R(y, z).",
            "U(x, z) :- R(x, y), R(y, z), R(y, y).",
            false,
        ),
        (
            "T(x, y, z) :- R(x, y), R(y, z), R(z, x).",
            "U(x, z) :- R(x, y), R(y, z).",
            true,
        ),
    ];
    let universe = workloads::complete_binary_relation("R", &["a", "b"]);
    for (from_text, to_text, expected) in pairs {
        let from = ConjunctiveQuery::parse(from_text).unwrap();
        let to = ConjunctiveQuery::parse(to_text).unwrap();
        let report = check_transfer(&from, &to);
        assert_eq!(report.transfers(), expected, "{from_text} => {to_text}");

        if report.transfers() {
            // Operational consequence on sampled policies.
            for trial in 0..10 {
                let policy = workloads::random_explicit_policy(
                    &mut rng,
                    &universe,
                    workloads::PolicyParams {
                        nodes: 2 + trial % 3,
                        replication: 1 + trial % 2,
                        skip_probability: 0.0,
                    },
                );
                if check_parallel_correctness(&from, &policy).is_correct() {
                    assert!(
                        check_parallel_correctness(&to, &policy).is_correct(),
                        "transfer promised reuse but {to_text} fails under a policy \
                         for which {from_text} is parallel-correct"
                    );
                }
            }
        }
    }
}

/// When transfer fails, the violation can be turned into a concrete
/// separating policy (the construction in the proof of Lemma 4.2).
#[test]
fn failed_transfers_produce_separating_policies() {
    let pairs = [
        (
            "T(x, z) :- R(x, y), R(y, z).",
            "U(x, z) :- R(x, y), R(y, z), R(y, y).",
        ),
        ("T(x, y) :- R(x, y).", "U(x) :- R(x, y), S(y, x)."),
        (
            "T(x, z) :- R(x, y), R(y, z), R(x, x).",
            "U(x, z) :- R(x, y), R(y, z).",
        ),
    ];
    for (from_text, to_text) in pairs {
        let from = ConjunctiveQuery::parse(from_text).unwrap();
        let to = ConjunctiveQuery::parse(to_text).unwrap();
        let report = check_transfer(&from, &to);
        assert!(!report.transfers());
        let violation = report.violation.expect("failed transfer carries a witness");
        assert!(
            oracle::violation_separates(&from, &to, &violation),
            "the Lemma 4.2 policy does not separate {from_text} from {to_text}"
        );
    }
}

/// For strongly minimal source queries condition (C3), the NP procedure of
/// Theorem 4.7, agrees with the general condition (C2) (Lemma 4.6) on
/// randomly generated query pairs.
#[test]
fn c2_and_c3_agree_for_strongly_minimal_sources() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut compared = 0;
    while compared < 25 {
        let from = workloads::random_query(
            &mut rng,
            workloads::QueryParams {
                relations: 2,
                arity: 2,
                atoms: 3,
                variables: 4,
                head_variables: 2,
                allow_self_joins: true,
            },
        );
        if !is_strongly_minimal(&from) {
            continue;
        }
        let to = workloads::random_query(
            &mut rng,
            workloads::QueryParams {
                relations: 2,
                arity: 2,
                atoms: 3,
                variables: 4,
                head_variables: 1,
                allow_self_joins: true,
            },
        );
        let general = holds_c2(&from, &to);
        let fast = holds_c3(&from, &to);
        assert_eq!(general, fast, "C2 vs C3 disagree for {from} => {to}");
        compared += 1;
    }
}

/// Corollary 5.8 operationally: if Q' is parallel-correct for the Hypercube
/// family of Q (decided via C3), then the one-round evaluation of Q' under
/// concrete members of the family is correct on random instances; and the
/// decision agrees between the acyclic-Q encoding of C3 instances produced by
/// the graph reduction and the direct graph 3-coloring oracle.
#[test]
fn hypercube_family_reuse_and_c3_reduction_agree() {
    let mut rng = StdRng::seed_from_u64(12);

    // Operational reuse.
    let anchor = ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), S(y, z).").unwrap();
    let reusable = ConjunctiveQuery::parse("U(y) :- R(x, y), S(y, z).").unwrap();
    let not_reusable = ConjunctiveQuery::parse("U(x, z) :- R(x, y), R(y, z).").unwrap();
    assert!(hypercube_parallel_correct(&anchor, &reusable).parallel_correct);
    assert!(!hypercube_parallel_correct(&anchor, &not_reusable).parallel_correct);

    let schema = Schema::from_relations([("R", 2), ("S", 2)]);
    for buckets in 1..=3 {
        let member = HypercubePolicy::uniform(&anchor, buckets).unwrap();
        for _ in 0..2 {
            let instance = workloads::random_instance(
                &mut rng,
                &schema,
                workloads::InstanceParams {
                    domain_size: 5,
                    facts_per_relation: 20,
                },
            );
            let outcome = OneRoundEngine::new(&member).evaluate(&reusable, &instance);
            assert_eq!(*outcome.result, evaluate(&reusable, &instance));
        }
    }

    // Reduction-vs-oracle agreement (Proposition D.1).
    for n in [4usize, 5] {
        let graph = reductions::Graph::random(&mut rng, n, 0.6);
        let red = reductions::three_col_to_c3_acyclic_q(&graph);
        assert_eq!(graph.is_three_colorable(), holds_c3(&red.from, &red.to));
    }
}

/// Strong minimality interacts with transferability as the paper describes:
/// full queries and self-join-free queries are strongly minimal (Lemma 4.8),
/// and the 3-SAT reduction produces strongly minimal queries exactly for
/// unsatisfiable formulas (Lemma C.9).
#[test]
fn strong_minimality_landscape() {
    // Lemma 4.8 families.
    for text in [
        "T(x, y, z) :- R(x, y), S(y, z).",
        "T(x, y) :- R(x, y), R(y, x).",
        "T() :- R1(x, y), R2(y, z), R3(z, x).",
    ] {
        let q = ConjunctiveQuery::parse(text).unwrap();
        assert!(pc_core::satisfies_lemma_4_8(&q), "{text}");
        assert!(is_strongly_minimal(&q), "{text}");
    }
    // Example 4.9: strongly minimal without the sufficient condition.
    let q49 = ConjunctiveQuery::parse("T() :- R(x1, x2), R(x2, x1).").unwrap();
    assert!(!pc_core::satisfies_lemma_4_8(&q49));
    assert!(is_strongly_minimal(&q49));

    // Lemma C.9 on a satisfiable and an unsatisfiable formula.
    use logic::{Clause, Cnf, Literal};
    let sat = Cnf::new(
        2,
        vec![Clause::new(vec![
            Literal::pos(0),
            Literal::pos(1),
            Literal::neg(0),
        ])],
    );
    let unsat = Cnf::new(
        1,
        vec![
            Clause::new(vec![Literal::pos(0), Literal::pos(0), Literal::pos(0)]),
            Clause::new(vec![Literal::neg(0), Literal::neg(0), Literal::neg(0)]),
        ],
    );
    assert!(logic::dpll_satisfiable(&sat));
    assert!(!logic::dpll_satisfiable(&unsat));
    assert!(!is_strongly_minimal(&reductions::sat_to_strong_minimality(
        &sat
    )));
    assert!(is_strongly_minimal(&reductions::sat_to_strong_minimality(
        &unsat
    )));
}
