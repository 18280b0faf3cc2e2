//! Round-schedule specifications for multi-round evaluation.
//!
//! A schedule spec is a comma-separated list of per-round policy specs, e.g.
//! `hash-join:4,hypercube:2`: round 0 hash-partitions on the query's first
//! join variable, every later round uses a uniform hypercube. The policies
//! built here are **total over the query's schema** (hash-based, or
//! broadcast-by-default), so facts produced in later rounds — which an
//! explicit per-fact policy built from the initial instance could never have
//! listed — are still assigned somewhere.

use cq::ConjunctiveQuery;
use distribution::{DistributionPolicy, ExplicitPolicy, HypercubePolicy, Network};

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

/// Resolves a round-schedule spec into one boxed policy per scheduled round
/// (the caller repeats the last policy past the end of the schedule, as
/// `distribution::RoundSchedule` does).
///
/// Accepted per-round specs: `hypercube:<budget>`, `hash-join:<buckets>`,
/// `broadcast:<nodes>`.
pub fn named_schedule(
    spec: &str,
    query: &ConjunctiveQuery,
) -> Result<Vec<Box<dyn DistributionPolicy>>, String> {
    let mut policies: Vec<Box<dyn DistributionPolicy>> = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (name, param) = part
            .split_once(':')
            .ok_or(format!("schedule entry '{part}': expected <policy>:<n>"))?;
        let n: usize = param
            .parse()
            .map_err(|_| format!("schedule entry '{part}': '{param}' is not a number"))?;
        match name {
            "hypercube" => {
                let policy = HypercubePolicy::uniform(query, n)
                    .map_err(|e| format!("schedule entry '{part}': {e}"))?;
                policies.push(Box::new(policy));
            }
            "hash-join" => {
                let policy =
                    hash_join_policy(query, n).map_err(|e| format!("schedule entry '{part}': {e}"))?;
                policies.push(Box::new(policy));
            }
            "broadcast" => {
                let policy = total_broadcast_policy(n)
                    .map_err(|e| format!("schedule entry '{part}': {e}"))?;
                policies.push(Box::new(policy));
            }
            other => {
                return Err(format!(
                    "unknown schedule policy '{other}' (expected hypercube:<budget>, hash-join:<buckets> or broadcast:<nodes>)"
                ))
            }
        }
    }
    if policies.is_empty() {
        return Err("the schedule names no policies".to_string());
    }
    Ok(policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{evaluate, parse_instance, Fact};
    use distribution::{MultiRoundEngine, OneRoundEngine, RoundSchedule};

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
        assert!(named_schedule("hash-join:2", &q).is_err());
    }

    #[test]
    fn total_broadcast_assigns_unseen_facts_everywhere() {
        let p = total_broadcast_policy(3).unwrap();
        assert_eq!(p.nodes_for(&Fact::from_names("Z", &["q", "r"])).len(), 3);
        assert!(total_broadcast_policy(0).is_err());
    }

    #[test]
    fn named_schedules_resolve_and_reject_garbage() {
        let q = two_hop();
        let schedule = named_schedule("hash-join:4,hypercube:2", &q).unwrap();
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule[0].network().len(), 4);
        assert_eq!(schedule[1].network().len(), 8); // 2^3 variables

        assert!(named_schedule("", &q).is_err());
        assert!(named_schedule("hash-join", &q).is_err());
        assert!(named_schedule("hash-join:x", &q).is_err());
        assert!(named_schedule("hash-join:0", &q).is_err());
        assert!(named_schedule("frobnicate:3", &q).is_err());
        assert!(named_schedule("broadcast:0", &q).is_err());
    }

    #[test]
    fn scheduled_multi_round_closure_reaches_the_fixpoint() {
        // hash-join round first (cheap, no replication), hypercube after:
        // the mixed schedule still computes the exact transitive closure.
        let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let i = parse_instance("R(a, b). R(b, c). R(c, d). R(d, e).").unwrap();
        let boxed = named_schedule("hash-join:3,hypercube:2", &q).unwrap();
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
        for spec in [
            "hypercube:2",
            "broadcast:2",
            "hash-join:3,hypercube:2",
            "hash-join:2,broadcast:3,hypercube:2",
        ] {
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

                let boxed = named_schedule(spec, &q).unwrap();
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
