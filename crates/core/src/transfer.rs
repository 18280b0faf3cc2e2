//! Parallel-correctness transfer (Section 4 of the paper).

use std::collections::BTreeMap;

use cq::{ConjunctiveQuery, Instance, Valuation};

use crate::conditions::{c2_search, holds_c3};
use crate::minimality::{satisfies_lemma_4_8, CacheStats, MinimalityStats};

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
    /// Which characterization decided: `"C3"` (a yes for a Lemma 4.8
    /// source), `"C2"`, or `"C2'"` for [`check_transfer_no_skip`].
    pub method: &'static str,
    /// A violation witness when transfer fails.
    pub violation: Option<TransferViolation>,
    /// How the minimality asks were answered: `hits` by the candidate's
    /// equality type, `misses` by running the search (the (C2) search visits
    /// almost every type once, so it asks the search directly); all zero
    /// when (C3) decided.
    pub cache: CacheStats,
}

impl TransferReport {
    /// Whether parallel-correctness transfers.
    pub fn transfers(&self) -> bool {
        self.transfers
    }

    /// How many valuations the search visited: (C2) asks about every one,
    /// so this is the number of asks.
    pub fn candidates(&self) -> u64 {
        self.cache.hits + self.cache.misses
    }

    /// The minimality-ask counters accumulated while deciding the verdict.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }
}

/// Decides whether parallel-correctness transfers from `from` to `to`
/// (Definition 4.1) under arbitrary policies, picking the characterization
/// from the source query:
///
/// * when `from` passes the syntactic test of Lemma 4.8 it is strongly
///   minimal, so condition (C3) decides (Lemma 4.6, the NP procedure of
///   Theorem 4.7); a (C3) witness answers yes with `method: "C3"`;
/// * every other case, every NO included, runs the (C2) search (Lemma 4.2,
///   ΠP3-complete by Theorem 4.3), so a NO always carries its
///   [`TransferViolation`].
///
/// Strong minimality itself is coNP-complete (Lemma 4.10) and is never
/// tested here: a source outside Lemma 4.8 goes to (C2).
pub fn check_transfer(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> TransferReport {
    decide(from, to, false)
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
    decide(from, to, true)
}

/// The one transfer decision: (C3) where Lemma 4.8 licenses it and it holds,
/// else (C2), or with `no_skip` its relaxation (C2').
fn decide(from: &ConjunctiveQuery, to: &ConjunctiveQuery, no_skip: bool) -> TransferReport {
    let mut span = obs::span!("transfer_check");
    let report = if !no_skip && satisfies_lemma_4_8(from) && holds_c3(from, to) {
        TransferReport {
            transfers: true,
            method: "C3",
            violation: None,
            cache: MinimalityStats::default().record(0),
        }
    } else {
        let (violation, stats) = c2_search(from, to, no_skip);
        TransferReport {
            transfers: violation.is_none(),
            method: if no_skip { "C2'" } else { "C2" },
            violation: violation.map(|valuation| TransferViolation {
                required_facts: valuation.required_facts(to),
                valuation,
            }),
            cache: stats.record(stats.asks()),
        }
    };
    span.arg("method", report.method);
    report
}

/// Memoizes [`check_transfer`] verdicts per `(from, to)` query pair — the
/// runtime face of the transfer decider.
///
/// The multi-query engine's plan (`distribution::MultiRoundEngine::plan`)
/// consults transferability at every query boundary where elision is
/// possible, before the first round; a workload cycling through a handful of
/// queries would otherwise re-run the decision, ΠP3-hard in general, for
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::holds_c2;
    use crate::minimality::is_strongly_minimal;

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
    /// valuation and its required facts. (C3) decides exactly the yes
    /// answers from a Lemma 4.8 source.
    fn assert_matches_reference(from: &ConjunctiveQuery, to: &ConjunctiveQuery, no_skip: bool) {
        let report = if no_skip {
            check_transfer_no_skip(from, to)
        } else {
            check_transfer(from, to)
        };
        let expected = crate::reference::c2_violation(from, to, no_skip);
        let method = if no_skip {
            "C2'"
        } else if expected.is_none() && satisfies_lemma_4_8(from) {
            "C3"
        } else {
            "C2"
        };
        assert_eq!(report.method, method, "{from} => {to}");
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
    fn check_transfer_takes_c3_for_lemma_4_8_sources_and_decides_like_the_reference() {
        // Every ordered pair over self-join-free and full queries, the chain
        // and cycle sources of Lemma 4.8, the `relax` workload, Example 3.5
        // and seeded queries of each kind: the verdict and the witness are
        // the reference (C2) search's, "C3" answers exactly the yes of a
        // Lemma 4.8 source, and the cache replays the decider. (That every NO witness
        // separates the pair on Lemma 4.2's policy is checked in the
        // `oracle` crate.)
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
        let mut cache = TransferCache::new();
        let mut routes = BTreeMap::new();
        for from in &pool {
            for to in &pool {
                assert_matches_reference(from, to, false);
                let report = check_transfer(from, to);
                assert_eq!(cache.transfers(from, to), report.transfers());
                let key = (satisfies_lemma_4_8(from), report.method);
                *routes.entry(key).or_insert(0) += 1;
            }
        }
        // Both routes ran, and Lemma 4.8 sources were refuted by (C2).
        for key in [(true, "C3"), (true, "C2"), (false, "C2")] {
            assert!(routes.get(&key).is_some_and(|&n| n > 0), "{routes:?}");
        }
        assert_eq!(routes.len(), 3, "{routes:?}");
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
    fn strongly_minimal_path_queries_c3_agrees_with_c2() {
        // Both queries are full/self-join-free (strongly minimal), so
        // condition (C3) must agree with the general (C2) (Lemma 4.6).
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
            let general = holds_c2(from, to);
            let fast = holds_c3(from, to);
            assert_eq!(general, fast, "C2 vs C3 disagree for {from} => {to}");
        }
    }

    #[test]
    fn chain_and_cycle_sources_are_strongly_minimal_and_c3_agrees_with_c2() {
        // Full chains, the triangle and the 4-cycle over one relation are
        // strongly minimal (Lemma 4.8), so condition (C3) characterizes
        // transfer from them and must reach the general (C2) verdict.
        let full3 = q("T(x0, x1, x2, x3) :- R(x0, x1), R(x1, x2), R(x2, x3).");
        let full4 = q("T(x0, x1, x2, x3, x4) :- R(x0, x1), R(x1, x2), R(x2, x3), R(x3, x4).");
        let triangle = q("T(x, y, z) :- R(x, y), R(y, z), R(z, x).");
        let cycle4 = q("T(x, y, z, w) :- R(x, y), R(y, z), R(z, w), R(w, x).");
        let chain2 = q("T(x, z) :- R(x, y), R(y, z).");
        let chain3 = q("T(x, w) :- R(x, y), R(y, z), R(z, w).");
        let pairs = [
            (&full3, &chain2),
            (&full4, &chain2),
            (&full4, &chain3),
            (&triangle, &chain2),
            (&cycle4, &chain2),
            (&full4, &cycle4),
        ];
        for (from, to) in pairs {
            assert!(is_strongly_minimal(from), "{from}");
            let general = holds_c2(from, to);
            let fast = holds_c3(from, to);
            assert_eq!(general, fast, "C2 vs C3 disagree for {from} => {to}");
            assert!(general, "{from} => {to}");
        }
    }

    #[test]
    fn transfer_between_structurally_different_but_compatible_queries() {
        // Q covers single edges and Q' asks only for self-loops: every
        // minimal valuation of Q' (a self-loop fact) is covered by the
        // minimal valuation of Q mapping both variables to the same value.
        let from = q("T(x, y) :- R(x, y).");
        let to = q("U(x) :- R(x, x).");
        let report = check_transfer(&from, &to);
        assert!(report.transfers());
        assert_eq!(report.method, "C3");
    }

    #[test]
    fn self_join_free_queries_transfer_iff_relations_cover() {
        let from = q("T(x, y, z) :- R(x, y), S(y, z).");
        let to_subset = q("U(x, y) :- R(x, y).");
        let to_superset = q("U(x, y, z, w) :- R(x, y), S(y, z), V(z, w).");
        assert!(check_transfer(&from, &to_subset).transfers());
        assert!(!check_transfer(&from, &to_superset).transfers());
    }
}
