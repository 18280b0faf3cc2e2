//! Parallel-correctness transfer (Section 4 of the paper).

use std::collections::BTreeMap;

use cq::{ConjunctiveQuery, Instance, Valuation};
use delta::CacheStats;

use crate::conditions::{c2_search, c3_witness};
use crate::minimality::is_strongly_minimal;

/// A witness that parallel-correctness does **not** transfer: a minimal
/// valuation of `Q'` whose required facts are not contained in the required
/// facts of any minimal valuation of `Q`. The proof of Lemma 4.2 turns such
/// a valuation into a concrete policy separating the two queries; the
/// separating policy can be rebuilt with
/// [`distribution::ExplicitPolicy::all_but_one`] /
/// [`distribution::ExplicitPolicy::skip_one`] over
/// [`TransferViolation::required_facts`].
#[derive(Clone, Debug)]
pub struct TransferViolation {
    /// The minimal valuation of `Q'` that no minimal valuation of `Q` covers.
    pub valuation: Valuation,
    /// Its required facts `V'(body_{Q'})`.
    pub required_facts: Instance,
}

/// The result of a transferability check from `Q` to `Q'`.
#[derive(Clone, Debug)]
pub struct TransferReport {
    /// Whether parallel-correctness transfers from `Q` to `Q'`.
    pub transfers: bool,
    /// Which decision procedure was used (`"C2"` or `"C3"`).
    pub method: &'static str,
    /// A violation witness when transfer fails.
    pub violation: Option<TransferViolation>,
    /// How the minimality asks were answered: `hits` by the candidate's
    /// equality type, `misses` by running the search (the (C2) search visits
    /// almost every type once, so it asks the search directly); all zero for
    /// the syntactic C3 procedure.
    pub cache: CacheStats,
}

impl TransferReport {
    /// Whether parallel-correctness transfers.
    pub fn transfers(&self) -> bool {
        self.transfers
    }

    /// The minimality-ask counters accumulated while deciding the verdict.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }
}

/// Decides whether parallel-correctness transfers from `from` to `to`
/// (Definition 4.1) using the semantic characterization by condition (C2)
/// (Lemma 4.2). This is the general, ΠP3-complete problem (Theorem 4.3).
pub fn check_transfer(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> TransferReport {
    transfer_by_c2(from, to, false)
}

/// The (C2) decision, or with `no_skip` its relaxation (C2').
fn transfer_by_c2(from: &ConjunctiveQuery, to: &ConjunctiveQuery, no_skip: bool) -> TransferReport {
    let method = if no_skip { "C2'" } else { "C2" };
    let _span = obs::span!("transfer_check", method = method);
    let (violation, stats) = c2_search(from, to, no_skip);
    TransferReport {
        transfers: violation.is_none(),
        method,
        violation: violation.map(|valuation| TransferViolation {
            required_facts: valuation.required_facts(to),
            valuation,
        }),
        cache: stats.record(),
    }
}

/// Decides transferability from a **strongly minimal** query `from` to `to`
/// using condition (C3) (Lemma 4.6) — the NP procedure of Theorem 4.7.
///
/// # Panics
///
/// Panics (in debug builds) if `from` is not strongly minimal; the
/// characterization by (C3) is only valid for strongly minimal `from`.
pub fn check_transfer_strongly_minimal(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
) -> TransferReport {
    debug_assert!(
        is_strongly_minimal(from),
        "check_transfer_strongly_minimal requires a strongly minimal source query"
    );
    let transfers = c3_witness(from, to).is_some();
    TransferReport {
        transfers,
        method: "C3",
        violation: None,
        cache: CacheStats::default(),
    }
}

/// Decides transferability in the setting of Remark C.3 of the paper, where
/// distribution policies are **not allowed to skip facts** (every fact is
/// sent to at least one node).
///
/// In that setting the characterization (C2) relaxes to (C2'): a minimal
/// valuation `V'` of `Q'` that requires only a **single** fact never needs a
/// covering valuation of `Q`, because a non-skipping policy always places
/// that single fact somewhere.
pub fn check_transfer_no_skip(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> TransferReport {
    transfer_by_c2(from, to, true)
}

/// Memoizes [`check_transfer`] verdicts per `(from, to)` query pair — the
/// runtime face of the transfer decider.
///
/// The multi-query engine (`distribution::MultiRoundEngine::
/// evaluate_queries`) consults transferability at every query boundary
/// where shards are resident; a workload cycling through a handful of
/// queries would otherwise re-run the ΠP3-hard (C2) decision procedure for
/// the same pair over and over. The cache is keyed by the queries'
/// canonical printed form (equal queries print equally), stores only the
/// boolean verdict, and adapts directly to the engine's
/// `TransferOracle` signature:
///
/// ```ignore
/// let mut cache = TransferCache::new();
/// engine.evaluate_queries(&queries, &instance, &mut |p, q| cache.transfers(p, q));
/// ```
#[derive(Debug, Default)]
pub struct TransferCache {
    verdicts: BTreeMap<(String, String), bool>,
    hits: usize,
    misses: usize,
}

impl TransferCache {
    /// An empty cache.
    pub fn new() -> TransferCache {
        TransferCache::default()
    }

    /// Whether parallel-correctness transfers from `from` to `to`,
    /// deciding via [`check_transfer`] on the first ask and replaying the
    /// memoized verdict afterwards.
    pub fn transfers(&mut self, from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> bool {
        let key = (from.to_string(), to.to_string());
        if let Some(&verdict) = self.verdicts.get(&key) {
            self.hits += 1;
            return verdict;
        }
        self.misses += 1;
        let verdict = check_transfer(from, to).transfers();
        self.verdicts.insert(key, verdict);
        verdict
    }

    /// How many asks were answered from the memo.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// How many asks actually ran the decision procedure.
    pub fn misses(&self) -> usize {
        self.misses
    }
}

/// Brute-force cross-check used in tests: verifies the *only-if* direction of
/// transferability on the concrete separating policy built by Lemma 4.2's
/// proof. Given a transfer violation for `(from, to)`, returns `true` when
/// the constructed policy indeed witnesses non-transferability (i.e. `from`
/// is parallel-correct under it while `to` is not).
pub fn violation_separates(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    violation: &TransferViolation,
) -> bool {
    use distribution::ExplicitPolicy;

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
    let from_ok = violation
        .required_facts
        .subsets()
        .iter()
        .all(|i| crate::pc::check_parallel_correctness_on_instance(from, &policy, i).correct);
    let to_fails =
        !crate::pc::check_parallel_correctness_on_instance(to, &policy, &violation.required_facts)
            .correct;
    from_ok && to_fails
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn no_skip_transfer_is_implied_by_general_transfer() {
        // (C2) implies (C2'): whenever transfer holds for arbitrary policies
        // it holds for non-skipping ones; the converse can fail exactly on
        // single-fact requirements (Remark C.3).
        let pairs = [
            (
                "T(x, z) :- R(x, y), R(y, z), R(y, y).",
                "U(x, z) :- R(x, y), R(y, z).",
            ),
            ("T(x, y) :- R(x, y).", "U(x) :- R(x, x)."),
            (
                "T(x, z) :- R(x, y), R(y, z).",
                "U(x, z) :- R(x, y), R(y, z), R(y, y).",
            ),
            ("T(x, y) :- R(x, y).", "U(x) :- S(x, x)."),
        ];
        for (from_text, to_text) in pairs {
            let from = q(from_text);
            let to = q(to_text);
            let general = check_transfer(&from, &to).transfers();
            let no_skip = check_transfer_no_skip(&from, &to).transfers();
            assert!(!general || no_skip, "{from_text} => {to_text}");
        }
    }

    #[test]
    fn no_skip_transfer_differs_exactly_on_single_fact_requirements() {
        // Q' = U(x) :- S(x, x) requires a single S-fact; Q never touches S.
        // With skipping policies transfer fails (the policy can drop the
        // S-fact); with non-skipping policies it holds (Remark C.3).
        let from = q("T(x, y) :- R(x, y).");
        let to = q("U(x) :- S(x, x).");
        assert!(!check_transfer(&from, &to).transfers());
        assert!(check_transfer_no_skip(&from, &to).transfers());

        // A two-fact requirement over a foreign relation still fails in both
        // settings.
        let to2 = q("U(x, y) :- S(x, y), S(y, x).");
        assert!(!check_transfer(&from, &to2).transfers());
        let report = check_transfer_no_skip(&from, &to2);
        assert!(!report.transfers());
        assert_eq!(report.method, "C2'");
        assert!(report.violation.unwrap().required_facts.len() >= 2);
    }

    /// `report` against the reference (C2)/(C2') search: verdict, witness
    /// valuation and its required facts.
    fn assert_matches_reference(from: &ConjunctiveQuery, to: &ConjunctiveQuery, no_skip: bool) {
        let report = if no_skip {
            check_transfer_no_skip(from, to)
        } else {
            check_transfer(from, to)
        };
        let expected = crate::reference::c2_violation(from, to, no_skip);
        assert_eq!(report.method, if no_skip { "C2'" } else { "C2" });
        assert_eq!(report.transfers(), expected.is_none(), "{from} => {to}");
        match (report.violation, expected) {
            (None, None) => {}
            (Some(violation), Some(expected)) => {
                assert_eq!(violation.valuation, expected, "{from} => {to}");
                let required = expected.required_facts(to);
                assert_eq!(violation.required_facts, required, "{from} => {to}");
            }
            (got, want) => panic!("witness mismatch for {from} => {to}: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn shared_cache_transfer_reports_are_byte_identical_to_scratch() {
        // The slot-level covering search and the oracle must not change the
        // verdict, the witness valuation, or its required facts relative to
        // the reference search that materializes every candidate.
        let pairs = [
            (
                "T(x, z) :- R(x, y), R(y, z).",
                "T(x, z) :- R(x, y), R(y, z).",
            ),
            (
                "T(x, z) :- R(x, y), R(y, z).",
                "T(x, z) :- R(x, y), R(y, z), R(y, y).",
            ),
            (
                "T(x, z) :- R(x, y), R(y, z), R(y, y).",
                "T(x, z) :- R(x, y), R(y, z).",
            ),
            ("T(x, y) :- R(x, y).", "U(x) :- R(x, y), S(y, x)."),
            ("T(x, y) :- R(x, y).", "U(x) :- S(x, x)."),
            (
                "T(x, z) :- R(x, y), R(y, z), R(x, x).",
                "T(x, z) :- R(x, y), R(y, z).",
            ),
            (
                "T(x, z) :- R(x, y), R(y, z).",
                "T(x, z) :- R(x, y), R(y, z), R(x, x).",
            ),
        ];
        for (from_text, to_text) in pairs {
            for no_skip in [false, true] {
                assert_matches_reference(&q(from_text), &q(to_text), no_skip);
            }
        }
    }

    #[test]
    fn seeded_qbf_pairs_decide_like_the_reference() {
        // Π₃-QBF reductions (Theorem 4.3) in both directions: seeded random
        // formulas (false, as random ones almost always are), and the true
        // `∀x ∃y ∀z (x ∧ y) ∨ (¬x ∧ ¬y)`, whose search is exhaustive — so
        // the covering search's yes and its witness paths both run on
        // queries with 20+ atoms and 15+ variables.
        use logic::{Clause, Dnf, Literal, Pi3Qbf};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20150531);
        let mut formulas: Vec<Pi3Qbf> = (0..3)
            .map(|_| logic::random_pi3_qbf(&mut rng, 1, 1, 1, 1))
            .collect();
        let term = |positive: bool| {
            let literal = |var| Literal { var, positive };
            Clause::new(vec![literal(0), literal(1), literal(1)])
        };
        let equivalence = Dnf::new(3, vec![term(true), term(false)]);
        formulas.push(Pi3Qbf::new(vec![0], vec![1], vec![2], equivalence));
        let verdicts: Vec<bool> = formulas
            .iter()
            .map(|qbf| {
                let pair = reductions::pi3_to_transfer(qbf);
                assert_matches_reference(&pair.from, &pair.to, false);
                assert_matches_reference(&pair.to, &pair.from, false);
                let transfers = check_transfer(&pair.from, &pair.to).transfers();
                assert_eq!(transfers, qbf.is_true());
                transfers
            })
            .collect();
        assert_eq!(verdicts, [false, false, false, true]);
    }

    #[test]
    fn transfer_cache_memoizes_verdicts() {
        let q_loop = q("T(x, z) :- R(x, y), R(y, z), R(y, y).");
        let q_path = q("T(x, z) :- R(x, y), R(y, z).");
        let mut cache = TransferCache::new();
        // First asks decide; repeats replay.
        assert!(cache.transfers(&q_loop, &q_path));
        assert!(!cache.transfers(&q_path, &q_loop));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(cache.transfers(&q_loop, &q_path));
        assert!(!cache.transfers(&q_path, &q_loop));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // Direction matters in the key; verdicts agree with the decider.
        for (from, to) in [(&q_loop, &q_path), (&q_path, &q_loop)] {
            assert_eq!(
                cache.transfers(from, to),
                check_transfer(from, to).transfers()
            );
        }
    }

    #[test]
    fn transfer_is_reflexive() {
        let queries = [
            q("T(x, z) :- R(x, y), R(y, z)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T() :- R(x, y), R(y, x)."),
        ];
        for query in &queries {
            assert!(check_transfer(query, query).transfers(), "{query}");
        }
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
    fn strongly_minimal_path_queries_c3_agrees_with_c2() {
        // Both queries are full/self-join-free (strongly minimal), so the
        // C3-based NP procedure must agree with the general C2 procedure.
        let pairs = [
            (
                q("T(x, y, z) :- R(x, y), S(y, z)."),
                q("T(x, y, z) :- R(x, y), S(y, z)."),
            ),
            (
                q("T(x, y, z) :- R(x, y), S(y, z)."),
                q("U(x, y) :- R(x, y)."),
            ),
            (
                q("U(x, y) :- R(x, y)."),
                q("T(x, y, z) :- R(x, y), S(y, z)."),
            ),
            (
                q("T(x, y) :- R(x, y), S(y, x)."),
                q("U(x) :- R(x, x), S(x, x)."),
            ),
        ];
        for (from, to) in &pairs {
            assert!(is_strongly_minimal(from));
            let general = check_transfer(from, to).transfers();
            let fast = check_transfer_strongly_minimal(from, to).transfers();
            assert_eq!(general, fast, "C2 vs C3 disagree for {from} => {to}");
        }
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
    fn transfer_between_structurally_different_but_compatible_queries() {
        // Q covers single edges and Q' asks only for self-loops: every
        // minimal valuation of Q' (a self-loop fact) is covered by the
        // minimal valuation of Q mapping both variables to the same value.
        let from = q("T(x, y) :- R(x, y).");
        let to = q("U(x) :- R(x, x).");
        assert!(check_transfer(&from, &to).transfers());
        assert!(check_transfer_strongly_minimal(&from, &to).transfers());
    }

    #[test]
    fn self_join_free_queries_transfer_iff_relations_cover() {
        let from = q("T(x, y, z) :- R(x, y), S(y, z).");
        let to_subset = q("U(x, y) :- R(x, y).");
        let to_superset = q("U(x, y, z, w) :- R(x, y), S(y, z), V(z, w).");
        assert!(check_transfer(&from, &to_subset).transfers());
        assert!(!check_transfer(&from, &to_superset).transfers());
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
