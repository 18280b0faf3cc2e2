//! Tests of the total per-round policies (`HypercubePolicy::hash_join`,
//! `ExplicitPolicy::total_broadcast`) and of the mixed schedules built from
//! them, run through the engines.

use cq::{evaluate, parse_instance, ConjunctiveQuery, Fact, Instance};
use distribution::{
    DistributionPolicy, ExplicitPolicy, HypercubePolicy, MultiRoundEngine, Network, OneRoundEngine,
    RoundSchedule,
};

type Schedule = Vec<Box<dyn DistributionPolicy>>;

fn hash(query: &ConjunctiveQuery, buckets: usize) -> Box<dyn DistributionPolicy> {
    Box::new(HypercubePolicy::hash_join(query, buckets).unwrap())
}

fn cube(query: &ConjunctiveQuery, budget: usize) -> Box<dyn DistributionPolicy> {
    Box::new(HypercubePolicy::uniform(query, budget).unwrap())
}

fn broadcast(nodes: usize) -> Box<dyn DistributionPolicy> {
    Box::new(ExplicitPolicy::total_broadcast(&Network::with_size(nodes)))
}

fn two_hop() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap()
}

#[test]
fn hash_join_hashes_only_the_join_variable() {
    let q = two_hop();
    let p = HypercubePolicy::hash_join(&q, 4).unwrap();
    // one dimension with 4 buckets, two with 1 bucket: 4 nodes
    assert_eq!(p.network().len(), 4);
    // no replication: every fact goes to exactly one node
    for fact in [
        Fact::from_names("R", &["a", "b"]),
        Fact::from_names("S", &["b", "c"]),
    ] {
        assert_eq!(p.nodes_for(&fact).len(), 1, "{fact} must not replicate");
    }
    // joining facts meet: R(a,b) and S(b,c) share y=b
    let joining = parse_instance("R(a, b). S(b, c).").unwrap();
    assert!(p.facts_meet(&joining));
}

#[test]
fn hash_join_is_parallel_correct_for_its_query() {
    let q = two_hop();
    let i = parse_instance("R(a, b). R(b, c). R(c, d). S(b, x). S(c, y). S(d, z).").unwrap();
    let p = HypercubePolicy::hash_join(&q, 3).unwrap();
    let outcome = OneRoundEngine::new(&p).evaluate(&q, &i);
    assert_eq!(*outcome.result, evaluate(&q, &i));
}

#[test]
fn hash_join_rejects_variable_free_queries() {
    // The parser accepts nullary atoms, so this must be an error, not a
    // panic on an empty variable list.
    let q = ConjunctiveQuery::parse("T() :- R().").unwrap();
    assert!(HypercubePolicy::hash_join(&q, 2).is_err());
}

#[test]
fn total_broadcast_assigns_unseen_facts_everywhere() {
    let unseen = Fact::from_names("Z", &["q", "r"]);
    let p = ExplicitPolicy::total_broadcast(&Network::with_size(3));
    assert_eq!(p.nodes_for(&unseen).len(), 3);
    // An empty network has no node to send a fact to.
    let p = ExplicitPolicy::total_broadcast(&Network::default());
    assert!(p.nodes_for(&unseen).is_empty());
}

#[test]
fn scheduled_multi_round_closure_reaches_the_fixpoint() {
    // hash-join round first (cheap, no replication), hypercube after:
    // the mixed schedule still computes the exact transitive closure.
    let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let i = parse_instance("R(a, b). R(b, c). R(c, d). R(d, e).").unwrap();
    let boxed: Schedule = vec![hash(&q, 3), cube(&q, 2)];
    let refs: Vec<&dyn DistributionPolicy> = boxed.iter().map(Box::as_ref).collect();
    let engine = MultiRoundEngine::new(RoundSchedule::of(refs))
        .rounds(8)
        .feedback_into("R");
    let outcome = engine.evaluate(&q, &i);
    assert!(outcome.converged);
    assert_eq!(*outcome.result, engine.reference_fixpoint(&q, &i).result);
}

#[test]
fn carried_rounds_stop_where_the_whole_state_test_stops() {
    // With feedback the round loops stop on a size comparison. The test
    // it replaced — keep every visited round instance, stop at the
    // first repeat — must stop on the same round under every schedule
    // shape. Without feedback a run also stops before a round that
    // would repeat its schedule entry: per-round `distribute` and a
    // per-chunk evaluation give the rounds that rule runs. Either way
    // the answers are those of the whole-state iteration, and the run
    // ships at most what full rounds of the whole state would: deltas
    // with feedback, the input itself without.
    use std::collections::BTreeSet;
    let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let i =
        parse_instance("R(a, b). R(b, c). R(c, d). R(d, e). R(e, f). R(f, a). R(c, g).").unwrap();
    let schedules: [(&str, Schedule); 4] = [
        ("hypercube:2", vec![cube(&q, 2)]),
        ("broadcast:2", vec![broadcast(2)]),
        ("hash-join:3,hypercube:2", vec![hash(&q, 3), cube(&q, 2)]),
        (
            "hash-join:2,broadcast:3,hypercube:2",
            vec![hash(&q, 2), broadcast(3), cube(&q, 2)],
        ),
    ];
    for (spec, boxed) in &schedules {
        let policy_for = |round: usize| &boxed[round.min(boxed.len() - 1)];
        for feedback in [Some("R"), None] {
            let mut state = i.clone();
            let mut answers = Instance::new();
            let mut visited = BTreeSet::from([state.to_set()]);
            let mut whole_state_rounds = 0;
            // What full rounds of every visited state would ship.
            let mut full_volume = 0;
            loop {
                full_volume += policy_for(whole_state_rounds)
                    .distribute(&state)
                    .stats(&state)
                    .total_assigned;
                whole_state_rounds += 1;
                let output = evaluate(&q, &state);
                answers.absorb(&output);
                let next = state.union(&match feedback {
                    Some(relation) => output
                        .facts()
                        .map(|f| Fact::new(relation, f.values.clone()))
                        .collect(),
                    None => output,
                });
                if !visited.insert(next.to_set()) {
                    break;
                }
                state = next;
            }
            let (expected_rounds, reference_rounds) = match feedback {
                Some(_) => (whole_state_rounds, whole_state_rounds),
                None => {
                    // Each entry at most once: repeating the last one
                    // would derive its facts again.
                    let mut result = Instance::new();
                    let mut rounds = 0;
                    full_volume = 0;
                    for policy in boxed {
                        rounds += 1;
                        let chunks = policy.distribute(&i);
                        full_volume += chunks.stats(&i).total_assigned;
                        let output: Instance =
                            chunks.chunks().flat_map(|(_, c)| evaluate(&q, c)).collect();
                        if result.absorb(&output).is_empty() {
                            break;
                        }
                    }
                    (rounds, 1)
                }
            };

            let refs: Vec<&dyn DistributionPolicy> = boxed.iter().map(Box::as_ref).collect();
            let engine = MultiRoundEngine::new(RoundSchedule::of(refs)).rounds(32);
            let engine = match feedback {
                Some(relation) => engine.feedback_into(relation),
                None => engine,
            };
            let context = format!("{spec}, feedback {feedback:?}");
            let reference = engine.reference_fixpoint(&q, &i);
            assert_eq!(reference.rounds, reference_rounds, "{context}");
            assert_eq!(reference.result, answers, "{context}");
            let outcome = engine.evaluate(&q, &i);
            assert!(outcome.converged, "{context}");
            assert_eq!(outcome.rounds_run(), expected_rounds, "{context}");
            assert_eq!(*outcome.result, reference.result, "{context}");
            let volume = outcome.total_comm_volume();
            match feedback {
                Some(_) => assert!(volume <= full_volume, "{context}: {volume}"),
                None => assert_eq!(volume, full_volume, "{context}"),
            }
        }
    }
}
