//! Parallel-correctness by its definition.

use cq::ConjunctiveQuery;
use distribution::FinitePolicy;
use pc_core::check_parallel_correctness_on_instance;

use crate::instance::subsets;

/// Brute-force reference decision of `PC(Pfin)`: checks Definition 3.1 on
/// **every** subinstance of `facts(P)`.
///
/// Exponential in `|facts(P)|`; the oracle that tests cross-validate
/// `pc_core::check_parallel_correctness` against.
pub fn check_parallel_correctness_naive<P: FinitePolicy>(
    query: &ConjunctiveQuery,
    policy: &P,
) -> bool {
    let universe = policy.fact_universe();
    subsets(&universe)
        .iter()
        .all(|i| check_parallel_correctness_on_instance(query, policy, i).correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_instance, Fact, Instance};
    use distribution::{ExplicitPolicy, Network, Node};
    use pc_core::check_parallel_correctness;

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
}
