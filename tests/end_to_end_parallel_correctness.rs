//! Cross-crate integration tests for parallel-correctness: the decision
//! procedures, the one-round engine and the characterizations of the paper
//! must tell a single consistent story.

use pcq::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// For finite policies, the (C1)-based decision (Lemma 3.4 / B.4) must agree
/// with running the one-round engine on every subinstance of the fact
/// universe (Definition 3.2 restricted to `facts(P)`).
#[test]
fn c1_decision_agrees_with_exhaustive_one_round_evaluation() {
    let mut rng = StdRng::seed_from_u64(1);
    let universe = workloads::complete_binary_relation("R", &["a", "b"]);
    let queries = [
        example_3_5_query(),
        chain_query(2),
        ConjunctiveQuery::parse("T(x) :- R(x, x).").unwrap(),
        ConjunctiveQuery::parse("T() :- R(x, y), R(y, x).").unwrap(),
        ConjunctiveQuery::parse("T(x) :- R(x, y), R(x, x).").unwrap(),
    ];
    for trial in 0..12 {
        let policy = workloads::random_explicit_policy(
            &mut rng,
            &universe,
            workloads::PolicyParams {
                nodes: 2 + trial % 3,
                replication: 1 + trial % 2,
                skip_probability: if trial % 4 == 0 { 0.25 } else { 0.0 },
            },
        );
        for query in &queries {
            let decided = check_parallel_correctness(query, &policy).is_correct();
            let exhaustive = oracle::check_parallel_correctness_naive(query, &policy);
            assert_eq!(
                decided, exhaustive,
                "C1 decision and exhaustive check disagree for {query} (trial {trial})"
            );
        }
    }
}

/// Condition (C0) is sufficient but not necessary: whenever it holds,
/// parallel-correctness must hold; the Example 3.5 policy witnesses that the
/// converse fails.
#[test]
fn c0_is_sufficient_but_not_necessary() {
    let mut rng = StdRng::seed_from_u64(2);
    let universe = workloads::complete_binary_relation("R", &["a", "b", "c"]);
    let query = example_3_5_query();
    let mut c0_held = 0;
    for trial in 0..10 {
        let policy = workloads::random_explicit_policy(
            &mut rng,
            &universe,
            workloads::PolicyParams {
                nodes: 3,
                replication: 1 + trial % 3,
                skip_probability: 0.0,
            },
        );
        let c0 = holds_c0(&query, &policy, &universe);
        let pc = check_parallel_correctness(&query, &policy).is_correct();
        if c0 {
            c0_held += 1;
            assert!(pc, "C0 held but the query is not parallel-correct");
        }
    }
    // With full replication some policies satisfy C0; the loop above must
    // have exercised the implication at least once.
    assert!(c0_held >= 1);

    // Not necessary: the two-node policy of Example 3.5.
    let r_ab = Fact::from_names("R", &["a", "b"]);
    let r_ba = Fact::from_names("R", &["b", "a"]);
    let universe2 = workloads::complete_binary_relation("R", &["a", "b"]);
    let mut policy = ExplicitPolicy::new(Network::with_size(2));
    for fact in universe2.facts() {
        let mut nodes = Vec::new();
        if *fact != r_ab {
            nodes.push(Node::numbered(0));
        }
        if *fact != r_ba {
            nodes.push(Node::numbered(1));
        }
        policy.assign(fact.clone(), nodes);
    }
    assert!(!holds_c0(&query, &policy, &universe2));
    assert!(check_parallel_correctness(&query, &policy).is_correct());
}

/// Hypercube distributions are parallel-correct for their query on arbitrary
/// instances (Lemma 5.7 via (C0)), for several query shapes and bucket
/// configurations, on uniform and on skewed (Zipf) data.
#[test]
fn hypercube_one_round_evaluation_is_always_correct() {
    let mut rng = StdRng::seed_from_u64(3);
    let queries = [
        chain_query(2),
        chain_query(3),
        triangle_query(),
        example_3_5_query(),
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap(),
    ];
    let params = workloads::InstanceParams {
        domain_size: 6,
        facts_per_relation: 25,
    };
    for query in &queries {
        let schema = query.schema();
        for trial in 0..4 {
            let instance = if trial < 3 {
                workloads::random_instance(&mut rng, &schema, params)
            } else {
                workloads::zipf_instance(&mut rng, &schema, params, 1.2)
            };
            for buckets in 1..=4 {
                let policy = HypercubePolicy::uniform(query, buckets).unwrap();
                let outcome = OneRoundEngine::new(&policy).evaluate(query, &instance);
                assert_eq!(
                    *outcome.result,
                    evaluate(query, &instance),
                    "hypercube evaluation incorrect for {query} with {buckets} buckets"
                );
            }
        }
    }
}

/// The violation returned by a failed parallel-correctness check is a real
/// counterexample: evaluating the query on the counterexample instance under
/// the policy loses the reported fact.
#[test]
fn pc_violations_are_executable_counterexamples() {
    let mut rng = StdRng::seed_from_u64(4);
    let universe = workloads::complete_binary_relation("R", &["a", "b", "c"]);
    let queries = [chain_query(2), example_3_5_query(), chain_query(3)];
    let mut violations_seen = 0;
    for trial in 0..15 {
        let policy = workloads::random_explicit_policy(
            &mut rng,
            &universe,
            workloads::PolicyParams {
                nodes: 3 + trial % 3,
                replication: 1,
                skip_probability: 0.0,
            },
        );
        for query in &queries {
            let report = check_parallel_correctness(query, &policy);
            if let Some(violation) = &report.violation {
                violations_seen += 1;
                assert!(pc_core::is_minimal_valuation(query, &violation.valuation));
                let pci = check_parallel_correctness_on_instance(
                    query,
                    &policy,
                    &violation.counterexample_instance,
                );
                assert!(!pci.is_correct());
                assert!(pci.missing.contains(&violation.lost_fact));
            }
        }
    }
    assert!(
        violations_seen > 0,
        "the random policies should produce at least one violation"
    );
}

/// The rule-based (declarative) specification of Hypercube policies from
/// Section 5.2 distributes facts exactly like the Hypercube policy object.
#[test]
fn declarative_hypercube_specification_matches_the_policy() {
    let query = triangle_query();
    let policy = HypercubePolicy::uniform(&query, 3).unwrap();
    let rules = policy.as_rules();
    // one rule per body atom, one dimension per variable
    assert_eq!(rules.rules().len(), query.body_size());
    assert_eq!(rules.schemes().len(), query.variables().len());

    let mut rng = StdRng::seed_from_u64(5);
    let instance = workloads::random_instance(
        &mut rng,
        &query.schema(),
        workloads::InstanceParams {
            domain_size: 8,
            facts_per_relation: 40,
        },
    );
    for fact in instance.facts() {
        assert_eq!(policy.nodes_for(fact), rules.nodes_for(fact));
    }
}
