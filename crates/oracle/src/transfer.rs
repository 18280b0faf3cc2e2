//! Transferability by its definition's separating policy.

use cq::ConjunctiveQuery;
use distribution::ExplicitPolicy;
use pc_core::{check_parallel_correctness_on_instance, TransferViolation};

use crate::instance::subsets;

/// Brute-force cross-check: verifies the *only-if* direction of
/// transferability on the concrete separating policy built by Lemma 4.2's
/// proof. Given a transfer violation for `(from, to)`, returns `true` when
/// the constructed policy indeed witnesses non-transferability (i.e. `from`
/// is parallel-correct under it while `to` is not).
pub fn violation_separates(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    violation: &TransferViolation,
) -> bool {
    let facts: Vec<_> = violation.required_facts.facts().cloned().collect();
    if facts.is_empty() {
        return false;
    }
    let policy = if facts.len() == 1 {
        ExplicitPolicy::skip_one(&violation.required_facts, &facts[0])
    } else {
        ExplicitPolicy::all_but_one(&facts)
    };
    // `from` must stay parallel-correct on every instance over the facts of
    // the violation, while `to` must fail on the violation instance itself.
    let from_ok = subsets(&violation.required_facts)
        .iter()
        .all(|i| check_parallel_correctness_on_instance(from, &policy, i).correct);
    let to_fails =
        !check_parallel_correctness_on_instance(to, &policy, &violation.required_facts).correct;
    from_ok && to_fails
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_core::{check_transfer, satisfies_lemma_4_8};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// A seeded query over `R` and `S` with up to three atoms on four
    /// variables: self-join-free (`kind` 0), full (1) or either (2).
    fn random_query(rng: &mut rand::rngs::StdRng, kind: usize) -> ConjunctiveQuery {
        use rand::Rng;
        let atoms = if kind == 0 {
            rng.gen_range(1..3usize)
        } else {
            rng.gen_range(1..4usize)
        };
        let first = rng.gen_range(0..2usize);
        let (mut body, mut variables) = (Vec::new(), Vec::new());
        for atom in 0..atoms {
            let relation = match kind {
                0 => ["R", "S"][(first + atom) % 2],
                _ => ["R", "S"][rng.gen_range(0..2usize)],
            };
            let args: Vec<String> = (0..2)
                .map(|_| format!("x{}", rng.gen_range(0..4usize)))
                .collect();
            variables.extend(args.iter().cloned());
            body.push(format!("{relation}({})", args.join(", ")));
        }
        variables.sort();
        variables.dedup();
        if kind != 1 {
            variables.retain(|_| rng.gen_bool(0.5));
        }
        q(&format!(
            "T({}) :- {}.",
            variables.join(", "),
            body.join(", ")
        ))
    }

    #[test]
    fn every_no_witness_separates_its_pair_on_lemma_4_2s_policy() {
        // The pool of `pc_core`'s reference agreement test: every ordered
        // pair whose transfer fails has a witness that separates the pair.
        use rand::SeedableRng;
        let mut pool: Vec<ConjunctiveQuery> = [
            "T(x, y, z) :- R(x, y), S(y, z).",
            "U(x, y) :- R(x, y).",
            "U(x) :- S(x, x).",
            "T(x, y) :- R(x, y), R(y, x).",
            "T(x0, x1, x2, x3) :- R(x0, x1), R(x1, x2), R(x2, x3).",
            "T(x, y, z) :- R(x, y), R(y, z), R(z, x).",
            "T(x, y, z, w) :- R(x, y), R(y, z), R(z, w), R(w, x).",
            "T(x, z) :- R(x, y), R(y, z).",
            "T(x, w) :- R(x, y), R(y, z), R(z, w).",
            "T(x, z) :- R(x, y), R(y, z), R(y, y).",
            "T(x, z) :- R(x, y), R(y, z), R(x, x).",
        ]
        .map(q)
        .into();
        let mut rng = rand::rngs::StdRng::seed_from_u64(20150531);
        for at in 0..9 {
            pool.push(random_query(&mut rng, at % 3));
        }
        let mut refuted = 0;
        for from in &pool {
            for to in &pool {
                let report = check_transfer(from, to);
                if let Some(violation) = &report.violation {
                    assert!(violation_separates(from, to, violation), "{from} => {to}");
                    refuted += usize::from(satisfies_lemma_4_8(from));
                }
            }
        }
        assert!(refuted > 0, "a Lemma 4.8 source was refuted");
    }

    #[test]
    fn transfer_from_more_demanding_to_less_demanding_query() {
        // Q requires a path plus a self-loop on the middle; Q' only the path.
        // Every minimal valuation of Q' is covered by a minimal valuation of Q.
        let q_loop = q("T(x, z) :- R(x, y), R(y, z), R(y, y).");
        let q_path = q("T(x, z) :- R(x, y), R(y, z).");
        assert!(check_transfer(&q_loop, &q_path).transfers());
        // The converse fails.
        let report = check_transfer(&q_path, &q_loop);
        assert!(!report.transfers());
        let violation = report.violation.unwrap();
        // Lemma 4.2's proof: the violation yields a concrete separating policy.
        assert!(violation_separates(&q_path, &q_loop, &violation));
    }

    #[test]
    fn transfer_to_a_query_with_extra_relations_fails() {
        // Q' uses a relation S that Q never binds: its minimal valuations
        // require S-facts that no valuation of Q can provide.
        let from = q("T(x, y) :- R(x, y).");
        let to = q("U(x) :- R(x, y), S(y, x).");
        let report = check_transfer(&from, &to);
        assert!(!report.transfers());
        let violation = report.violation.unwrap();
        assert!(violation
            .required_facts
            .facts()
            .any(|f| f.relation == cq::Symbol::new("S")));
        assert!(violation_separates(&from, &to, &violation));
    }

    #[test]
    fn example_3_5_query_transfer_behaviour() {
        // The Example 3.5 query is minimal but not strongly minimal; the
        // general C2 check applies. Transfer to the plain path query fails:
        // the path valuation {x↦a, y↦b, z↦a} is minimal and requires
        // {R(a,b), R(b,a)}, but every valuation of the Example 3.5 query
        // whose required facts contain that pair also requires a self-loop
        // and is then *not* minimal (Example 3.5 itself), so no minimal
        // covering valuation exists.
        let q35 = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let path = q("T(x, z) :- R(x, y), R(y, z).");
        let report = check_transfer(&q35, &path);
        assert!(!report.transfers());
        let violation = report.violation.unwrap();
        assert_eq!(violation.required_facts.len(), 2);
        assert!(violation_separates(&q35, &path, &violation));

        // The converse also fails: minimal Q35-valuations can require three
        // facts, which no path valuation (at most two required facts) covers.
        let back = check_transfer(&path, &q35);
        assert!(!back.transfers());
        let violation = back.violation.unwrap();
        assert!(violation_separates(&path, &q35, &violation));
    }
}
