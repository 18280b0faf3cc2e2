//! Policies for the rounds of a multi-round evaluation.
//!
//! The policies built here are **total over the query's schema** (hash-based,
//! or broadcast-by-default), so facts produced in later rounds — which an
//! explicit per-fact policy built from the initial instance could never have
//! listed — are still assigned somewhere. Naming them (`hash-join:4`,
//! `hypercube(2)`, …) is `wire::PolicySpec`'s job.

use cq::ConjunctiveQuery;
use distribution::{ExplicitPolicy, HypercubePolicy, Network};

/// The classic single-key hash partitioning, expressed as a degenerate
/// hypercube: the first variable shared by at least two body atoms (the
/// join variable) gets `buckets` hash buckets, every other dimension gets a
/// single bucket. Falls back to the query's first variable when no variable
/// is shared.
///
/// For `T(x, z) :- R(x, y), S(y, z)` this is exactly "hash both relations
/// on `y`": no replication, but the whole join key space lands on `buckets`
/// nodes.
pub fn hash_join_policy(
    query: &ConjunctiveQuery,
    buckets: usize,
) -> Result<HypercubePolicy, String> {
    if buckets == 0 {
        return Err("hash-join needs at least one bucket".to_string());
    }
    let variables = query.variables();
    let Some(&first) = variables.first() else {
        return Err(format!(
            "hash-join policy for {query}: the query has no variables to hash on"
        ));
    };
    let join_variable = variables
        .iter()
        .copied()
        .find(|&v| query.body().iter().filter(|atom| atom.contains(v)).count() >= 2)
        .unwrap_or(first);
    let dimension_buckets: Vec<usize> = variables
        .iter()
        .map(|&v| if v == join_variable { buckets } else { 1 })
        .collect();
    HypercubePolicy::with_buckets(query, &dimension_buckets)
        .map_err(|e| format!("hash-join policy for {query}: {e}"))
}

/// A total broadcast policy over `nodes` nodes: every fact — listed or not —
/// goes to every node. Unlike [`ExplicitPolicy::broadcast`], which
/// enumerates a concrete universe, this stays total when later rounds feed
/// new facts back in.
pub fn total_broadcast_policy(nodes: usize) -> Result<ExplicitPolicy, String> {
    if nodes == 0 {
        return Err("broadcast needs at least one node".to_string());
    }
    let network = Network::with_size(nodes);
    Ok(ExplicitPolicy::new(network.clone()).with_default(network.nodes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{evaluate, parse_instance, Fact};
    use distribution::{DistributionPolicy, MultiRoundEngine, OneRoundEngine, RoundSchedule};

    type Schedule = Vec<Box<dyn DistributionPolicy>>;

    fn hash(query: &ConjunctiveQuery, buckets: usize) -> Box<dyn DistributionPolicy> {
        Box::new(hash_join_policy(query, buckets).unwrap())
    }

    fn cube(query: &ConjunctiveQuery, budget: usize) -> Box<dyn DistributionPolicy> {
        Box::new(HypercubePolicy::uniform(query, budget).unwrap())
    }

    fn broadcast(nodes: usize) -> Box<dyn DistributionPolicy> {
        Box::new(total_broadcast_policy(nodes).unwrap())
    }

    fn two_hop() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap()
    }

    #[test]
    fn hash_join_hashes_only_the_join_variable() {
        let q = two_hop();
        let p = hash_join_policy(&q, 4).unwrap();
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
        let p = hash_join_policy(&q, 3).unwrap();
        let outcome = OneRoundEngine::new(&p).evaluate(&q, &i);
        assert_eq!(outcome.result, evaluate(&q, &i));
    }

    #[test]
    fn hash_join_rejects_variable_free_queries() {
        // The parser accepts nullary atoms, so this must be an error, not a
        // panic on an empty variable list.
        let q = ConjunctiveQuery::parse("T() :- R().").unwrap();
        assert!(hash_join_policy(&q, 2).is_err());
    }

    #[test]
    fn total_broadcast_assigns_unseen_facts_everywhere() {
        let p = total_broadcast_policy(3).unwrap();
        assert_eq!(p.nodes_for(&Fact::from_names("Z", &["q", "r"])).len(), 3);
        assert!(total_broadcast_policy(0).is_err());
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
        assert_eq!(outcome.result, engine.reference_fixpoint(&q, &i).result);
    }

    #[test]
    fn carried_rounds_stop_where_the_whole_state_test_stops() {
        // With carried input the round loops stop on a size comparison. The
        // test it replaced — keep every visited round instance, stop at the
        // first repeat — must stop on the same round under every schedule
        // shape, with and without a feedback relation.
        use std::collections::BTreeSet;
        let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let i = parse_instance("R(a, b). R(b, c). R(c, d). R(d, e). R(e, f). R(f, a). R(c, g).")
            .unwrap();
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
            for feedback in [Some("R"), None] {
                let mut state = i.clone();
                let mut visited = BTreeSet::from([state.to_set()]);
                let mut expected_rounds = 0;
                loop {
                    expected_rounds += 1;
                    let output = evaluate(&q, &state);
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

                let engine = |semi_naive: bool| {
                    let refs: Vec<&dyn DistributionPolicy> =
                        boxed.iter().map(Box::as_ref).collect();
                    let engine = MultiRoundEngine::new(RoundSchedule::of(refs))
                        .rounds(32)
                        .semi_naive(semi_naive);
                    match feedback {
                        Some(relation) => engine.feedback_into(relation),
                        None => engine,
                    }
                };
                let context = format!("{spec}, feedback {feedback:?}");
                assert_eq!(
                    engine(false).reference_fixpoint(&q, &i).rounds,
                    expected_rounds,
                    "{context}"
                );
                for semi_naive in [false, true] {
                    let outcome = engine(semi_naive).evaluate(&q, &i);
                    assert!(outcome.converged, "{context}");
                    assert_eq!(outcome.rounds_run(), expected_rounds, "{context}");
                    assert_eq!(outcome.final_state, state, "{context}");
                }
            }
        }
    }
}
