//! Parallel-correctness for families of distribution policies (Section 5).
//!
//! For a family `F` that is `Q`-generous and `Q`-scattered, a query `Q'` is
//! parallel-correct for `F` if and only if condition (C3) holds for the pair
//! `(Q, Q')` (Lemma 5.2); deciding this is NP-complete (Theorem 5.3). The
//! Hypercube family `H_Q` is such a family (Lemma 5.7), which gives
//! Corollary 5.8.

use cq::{evaluate, ConjunctiveQuery, Instance};
use distribution::{DistributionPolicy, HypercubeFamily, HypercubePolicy};

use crate::conditions::c3_witness;

/// Report on whether a query is parallel-correct for the `Q`-generous and
/// `Q`-scattered families associated with a query `Q` (in particular, for
/// the Hypercube family `H_Q`).
#[derive(Clone, Debug)]
pub struct FamilyReport {
    /// Whether `Q'` is parallel-correct for every `Q`-generous,
    /// `Q`-scattered family of distribution policies.
    pub parallel_correct: bool,
    /// The (C3) witness when the answer is positive.
    pub witness: Option<crate::conditions::C3Witness>,
}

/// Decides whether `q_prime` is parallel-correct for the Hypercube family
/// `H_Q` of `query` (Corollary 5.8), via condition (C3).
///
/// By Theorem 5.3 the same answer applies to every `Q`-generous and
/// `Q`-scattered family, not just the Hypercube family.
pub fn hypercube_parallel_correct(
    query: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
) -> FamilyReport {
    let witness = c3_witness(query, q_prime);
    FamilyReport {
        parallel_correct: witness.is_some(),
        witness,
    }
}

/// Result of the randomized/structural validation of the Hypercube family
/// properties (Lemma 5.7) on concrete instances and members.
#[derive(Clone, Debug)]
pub struct FamilyValidation {
    /// Number of Hypercube members inspected.
    pub members_checked: usize,
    /// Number of (member, valuation) pairs for which generosity was verified.
    pub generous_checks: usize,
    /// Whether every inspected valuation had all its facts meet at a node.
    pub generous: bool,
    /// Whether the scattered member partitioned the instance so that every
    /// chunk is contained in the required facts of a single valuation.
    pub scattered: bool,
    /// Whether the one-round evaluation of `query` agreed with the
    /// centralized evaluation for every inspected member (parallel-correctness
    /// of `Q` for its own family, a consequence of generosity).
    pub self_parallel_correct: bool,
}

/// Validates the two properties of Lemma 5.7 — `H_Q` is `Q`-generous and
/// `Q`-scattered — on a concrete instance, for the uniform members with
/// `1..=max_buckets` buckets plus the scattered member.
pub fn validate_hypercube_family(
    query: &ConjunctiveQuery,
    instance: &Instance,
    max_buckets: usize,
) -> FamilyValidation {
    let family = HypercubeFamily::new(query);
    let members = family
        .representative_members(max_buckets)
        .expect("hypercube members must be constructible");

    let expected = evaluate(query, instance);
    let mut generous = true;
    let mut generous_checks = 0usize;
    let mut self_pc = true;

    for member in &members {
        // Generosity on every satisfying valuation of the instance.
        for valuation in cq::satisfying_valuations(query, instance) {
            generous_checks += 1;
            let required = valuation.required_facts(query);
            if !member.facts_meet(&required) {
                generous = false;
            }
        }
        // Parallel-correctness of Q itself on this instance.
        let outcome = distribution::OneRoundEngine::new(member).evaluate(query, instance);
        if *outcome.result != expected {
            self_pc = false;
        }
    }

    // Scatteredness of the identity-hash member.
    let scattered_member =
        HypercubePolicy::scattered_for(query, instance).expect("scattered member");
    let scattered = chunks_are_scattered(query, instance, &scattered_member);

    FamilyValidation {
        members_checked: members.len() + 1,
        generous_checks,
        generous,
        scattered,
        self_parallel_correct: self_pc,
    }
}

/// Whether every chunk of `policy`'s distribution of `instance` is contained
/// in `V(body_Q)` for some valuation `V` (the `(Q, I)`-scattered property).
fn chunks_are_scattered(
    query: &ConjunctiveQuery,
    instance: &Instance,
    policy: &HypercubePolicy,
) -> bool {
    let adom: Vec<cq::Value> = instance.adom().into_iter().collect();
    let vars = query.variables();
    let distribution = policy.distribute(instance);
    let scattered = distribution.chunks().all(|(_, chunk)| {
        if chunk.is_empty() {
            return true;
        }
        cq::all_assignments(vars.len(), adom.len())
            .into_iter()
            .any(|assignment| {
                let valuation = cq::Valuation::from_pairs(
                    vars.iter()
                        .zip(assignment.iter())
                        .map(|(&var, &i)| (var, adom[i])),
                );
                let required = valuation.required_facts(query);
                chunk.facts().all(|f| required.contains(f))
            })
    });
    scattered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::holds_c3;
    use cq::parse_instance;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn every_query_is_parallel_correct_for_its_own_hypercube_family() {
        let queries = [
            q("T(x, z) :- R(x, y), S(y, z)."),
            q("T(x, y, z) :- E(x, y), E(y, z), E(z, x)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T() :- R(x, y), R(y, x)."),
        ];
        for query in &queries {
            let report = hypercube_parallel_correct(query, query);
            assert!(report.parallel_correct, "C3 must hold for (Q, Q): {query}");
        }
    }

    #[test]
    fn lemma_5_7_validation_on_concrete_instances() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let instance =
            parse_instance("E(a, b). E(b, c). E(c, a). E(a, a). E(b, d). E(d, b). E(d, d).")
                .unwrap();
        let validation = validate_hypercube_family(&query, &instance, 3);
        assert!(validation.generous);
        assert!(validation.scattered);
        assert!(validation.self_parallel_correct);
        assert!(validation.generous_checks > 0);
        assert_eq!(validation.members_checked, 4);
    }

    #[test]
    fn hypercube_family_of_a_join_query_accepts_its_projections() {
        // Q' computes a sub-join of Q over the same relations: Q-generous
        // families gather all facts of a Q-valuation at a node, which also
        // contains everything a Q'-valuation needs (after simplification).
        let query = q("T(x, y, z) :- R(x, y), S(y, z).");
        let sub = q("U(x, y) :- R(x, y).");
        assert!(hypercube_parallel_correct(&query, &sub).parallel_correct);
        assert!(holds_c3(&query, &sub));
    }

    #[test]
    fn the_triangle_family_serves_its_sub_patterns_but_not_the_4_cycle() {
        // Corollary 5.8 on the triangle's family, decided by (C3): the edge,
        // the wedge and the self-loop are parallel-correct for every member,
        // the 4-cycle is not.
        let triangle = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        for (text, expected) in [
            ("U(x, y) :- E(x, y).", true),
            ("U(x, z) :- E(x, y), E(y, z).", true),
            ("U(x) :- E(x, x).", true),
            (
                "U(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x).",
                false,
            ),
        ] {
            assert_eq!(holds_c3(&triangle, &q(text)), expected, "{text}");
        }
    }

    #[test]
    fn hypercube_family_rejects_queries_over_missing_relations() {
        let query = q("T(x, y) :- R(x, y).");
        let other = q("U(x, y) :- S(x, y).");
        assert!(!hypercube_parallel_correct(&query, &other).parallel_correct);
    }

    #[test]
    fn family_answer_is_consistent_with_concrete_members() {
        // If C3 holds, Q' must evaluate correctly under concrete Hypercube
        // members of Q on concrete instances; if C3 fails, there must be a
        // member and an instance where the distributed evaluation loses facts
        // (we check the scattered member on the canonical counterexample).
        let query = q("T(x, y, z) :- R(x, y), S(y, z).");
        let good = q("U(x, y) :- R(x, y).");
        let bad = q("U(x, z) :- R(x, y), R(y, z).");

        let instance = parse_instance("R(a, b). R(b, c). S(b, d). S(c, e).").unwrap();

        assert!(hypercube_parallel_correct(&query, &good).parallel_correct);
        for buckets in 1..=3 {
            let member = HypercubePolicy::uniform(&query, buckets).unwrap();
            let outcome = distribution::OneRoundEngine::new(&member).evaluate(&good, &instance);
            assert_eq!(*outcome.result, evaluate(&good, &instance));
        }

        assert!(!hypercube_parallel_correct(&query, &bad).parallel_correct);
        // The R-R join of `bad` needs R(a,b) and R(b,c) at the same node; the
        // scattered member of Q separates them (they share no Q-valuation
        // whose required facts contain both), so the answer T(a,c) is lost.
        let scattered = HypercubePolicy::scattered_for(&query, &instance).unwrap();
        let outcome = distribution::OneRoundEngine::new(&scattered).evaluate(&bad, &instance);
        assert_ne!(*outcome.result, evaluate(&bad, &instance));
    }
}
