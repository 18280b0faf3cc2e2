//! The reproduction's experiment tables, T1–T8, printed as markdown.
//!
//! The paper is a theory paper without measured tables or figures; its
//! results are characterizations and completeness theorems. Each table
//! exercises one of them end to end against an independent oracle and
//! reports the agreement next to wall-clock timings:
//!
//! * T1 — (C0) versus (C1) on random explicit policies (Lemma 3.4);
//! * T2 — PC / PCI versus a Π₂-QBF solver (Theorem 3.8);
//! * T3 — pc-transferability versus a Π₃-QBF solver (Theorem 4.3);
//! * T4 — the general (C2) procedure versus (C3) for strongly minimal
//!   sources (Theorem 4.7);
//! * T5 — strong minimality versus a 3-SAT solver, and the precision of the
//!   Lemma 4.8 sufficient condition;
//! * T6 — Hypercube families (Lemma 5.7, Corollary 5.8);
//! * T7 — condition (C3) versus graph 3-colorability (Proposition 5.4);
//! * T8 — one-round Hypercube evaluation: load, replication, correctness.
//!
//! Every table is seeded, so its verdict columns are the same on every run;
//! the agreement checks are pinned as unit tests in `crates/core` and
//! `crates/reductions`.
//!
//! ```text
//! cargo run --release --example experiments            # all tables
//! cargo run --release --example experiments -- T3 T7   # a subset
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cq::{ConjunctiveQuery, Instance, Schema};
use distribution::{DistributionPolicy, HypercubePolicy, OneRoundEngine};
use pc_core::{
    check_parallel_correctness, check_parallel_correctness_bounded,
    check_parallel_correctness_on_instance, check_transfer, holds_c0, holds_c2, holds_c3,
    is_strongly_minimal, validate_hypercube_family,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reductions::{
    pi2_to_pci, pi3_to_transfer, sat_to_strong_minimality, three_col_to_c3_acyclic_q, Graph,
};
use workloads::{
    chain_query, example_3_5_query, triangle_query, InstanceParams, PolicyParams, QueryParams,
};

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

/// T1 — condition (C0) versus condition (C1) on random explicit policies
/// (Lemma 3.4, Example 3.5): how often is the sufficient condition strictly
/// stronger than the exact characterization?
fn table_t1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## T1 — (C0) vs (C1) on random policies (Lemma 3.4)\n");
    let _ = writeln!(
        out,
        "| query | policies | C0 holds | PC holds | PC but not C0 |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(101);
    let universe = workloads::complete_binary_relation("R", &["a", "b"]);
    let queries = [
        ("example 3.5", example_3_5_query()),
        ("2-chain", chain_query(2)),
        ("loop", ConjunctiveQuery::parse("T(x) :- R(x, x).").unwrap()),
        (
            "2-cycle",
            ConjunctiveQuery::parse("T() :- R(x, y), R(y, x).").unwrap(),
        ),
    ];
    let trials = 200;
    for (name, query) in &queries {
        let mut c0_count = 0;
        let mut pc_count = 0;
        let mut gap = 0;
        for t in 0..trials {
            let policy = workloads::random_explicit_policy(
                &mut rng,
                &universe,
                PolicyParams {
                    nodes: 2 + t % 2,
                    replication: 1 + t % 3,
                    skip_probability: 0.0,
                },
            );
            let c0 = holds_c0(query, &policy, &universe);
            let pc = check_parallel_correctness_bounded(query, &policy, &universe).is_correct();
            assert!(!c0 || pc, "C0 must imply C1");
            if c0 {
                c0_count += 1;
            }
            if pc {
                pc_count += 1;
            }
            if pc && !c0 {
                gap += 1;
            }
        }
        let _ = writeln!(
            out,
            "| {name} | {trials} | {c0_count} | {pc_count} | {gap} |"
        );
    }
    out
}

/// T2 — deciding PCI / PC(Pfin) on Π₂-QBF-derived instances
/// (Theorem 3.8, Propositions B.7/B.8): agreement with the QBF oracle and
/// wall-clock time as the formula grows.
fn table_t2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## T2 — PC / PCI vs the Π₂-QBF oracle (Theorem 3.8)\n");
    let _ = writeln!(
        out,
        "| |x| | |y| | clauses | formulas | agree (PCI) | agree (PC) | avg QBF ms | avg PCI ms | avg PC ms |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(102);
    for &(nx, ny, k) in &[(1usize, 1usize, 2usize), (2, 2, 3), (3, 2, 4), (3, 3, 5)] {
        let formulas = 6;
        let mut agree_pci = 0;
        let mut agree_pc = 0;
        let mut qbf_time = Duration::ZERO;
        let mut pci_time = Duration::ZERO;
        let mut pc_time = Duration::ZERO;
        for _ in 0..formulas {
            let qbf = logic::random_pi2_qbf(&mut rng, nx, ny, k);
            let (expected, t0) = time(|| qbf.is_true());
            qbf_time += t0;
            let red = pi2_to_pci(&qbf);
            let (pci, t1) = time(|| {
                check_parallel_correctness_on_instance(&red.query, &red.policy, &red.instance)
                    .is_correct()
            });
            pci_time += t1;
            let (pc, t2) =
                time(|| check_parallel_correctness(&red.query, &red.policy).is_correct());
            pc_time += t2;
            if pci == expected {
                agree_pci += 1;
            }
            if pc == expected {
                agree_pc += 1;
            }
        }
        let _ = writeln!(
            out,
            "| {nx} | {ny} | {k} | {formulas} | {agree_pci}/{formulas} | {agree_pc}/{formulas} | {} | {} | {} |",
            ms(qbf_time / formulas as u32),
            ms(pci_time / formulas as u32),
            ms(pc_time / formulas as u32)
        );
    }
    out
}

/// T3 — deciding pc-trans on Π₃-QBF-derived query pairs (Theorem 4.3,
/// Proposition C.6).
fn table_t3() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## T3 — pc-trans vs the Π₃-QBF oracle (Theorem 4.3)\n");
    let _ = writeln!(
        out,
        "| |x| | |y| | |z| | terms | formulas | agree | avg QBF ms | avg pc-trans ms | |body Q| | |body Q'| |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(103);
    for &(nx, ny, nz, k) in &[(1usize, 1usize, 1usize, 1usize), (1, 1, 1, 2), (2, 1, 1, 2)] {
        let formulas = 4;
        let mut agree = 0;
        let mut qbf_time = Duration::ZERO;
        let mut trans_time = Duration::ZERO;
        let mut body_q = 0;
        let mut body_qp = 0;
        for _ in 0..formulas {
            let qbf = logic::random_pi3_qbf(&mut rng, nx, ny, nz, k);
            let (expected, t0) = time(|| qbf.is_true());
            qbf_time += t0;
            let red = pi3_to_transfer(&qbf);
            body_q = red.from.body_size();
            body_qp = red.to.body_size();
            let (transfers, t1) = time(|| check_transfer(&red.from, &red.to).transfers());
            trans_time += t1;
            if transfers == expected {
                agree += 1;
            }
        }
        let _ = writeln!(
            out,
            "| {nx} | {ny} | {nz} | {k} | {formulas} | {agree}/{formulas} | {} | {} | {body_q} | {body_qp} |",
            ms(qbf_time / formulas as u32),
            ms(trans_time / formulas as u32)
        );
    }
    out
}

/// T4 — the general condition (C2) versus condition (C3) for strongly
/// minimal sources (Lemma 4.6, Theorem 4.7): agreement and speed on
/// chain/cycle query families. `check_transfer` takes (C3) for these
/// sources whenever it holds.
fn table_t4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## T4 — C2 (general) vs C3 (strongly minimal) transfer (Theorem 4.7)\n"
    );
    let _ = writeln!(out, "| from | to | transfers | C2 ms | C3 ms | speedup |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    // Sources must be strongly minimal for the C3 procedure to apply
    // (Theorem 4.7); full chains and cycles are (Lemma 4.8).
    let pairs: Vec<(&str, ConjunctiveQuery, ConjunctiveQuery)> = vec![
        ("full 3-chain → 2-chain", full_chain(3), chain_query(2)),
        ("full 4-chain → 2-chain", full_chain(4), chain_query(2)),
        ("full 4-chain → 3-chain", full_chain(4), chain_query(3)),
        (
            "triangle → 2-chain",
            triangle_query_over_r(),
            chain_query(2),
        ),
        (
            "4-cycle → 2-chain",
            workloads::cycle_query(4),
            chain_query(2),
        ),
        (
            "full 4-chain → 4-cycle",
            full_chain(4),
            workloads::cycle_query(4),
        ),
    ];
    for (name, from, to) in pairs {
        assert!(
            is_strongly_minimal(&from),
            "{name}: source must be strongly minimal"
        );
        let (general, c2_t) = time(|| holds_c2(&from, &to));
        let (fast, c3_t) = time(|| holds_c3(&from, &to));
        assert_eq!(general, fast, "{name}: C2 and C3 disagree");
        let speedup = c2_t.as_secs_f64() / c3_t.as_secs_f64().max(1e-9);
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} | {} | {:.1}x |",
            to_short(&to),
            general,
            ms(c2_t),
            ms(c3_t),
            speedup
        );
    }
    out
}

fn to_short(q: &ConjunctiveQuery) -> String {
    format!("{} atoms", q.body_size())
}

fn triangle_query_over_r() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), R(y, z), R(z, x).").unwrap()
}

/// The *full* chain query of length `len`: like [`chain_query`] but with every
/// variable in the head, which makes it strongly minimal (Lemma 4.8).
fn full_chain(len: usize) -> ConjunctiveQuery {
    let var = |i: usize| cq::Variable::indexed("x", i);
    let body = (0..len)
        .map(|i| cq::Atom::new("R", vec![var(i), var(i + 1)]))
        .collect();
    let head_vars = (0..=len).map(var).collect();
    ConjunctiveQuery::new(cq::Atom::new("T", head_vars), body).expect("full chains are well-formed")
}

/// T5 — strong minimality: agreement with the 3-SAT oracle (Lemma C.9),
/// the precision of the Lemma 4.8 sufficient condition, and the fraction of
/// random CQs that are strongly minimal.
fn table_t5() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## T5 — strong minimality (Lemmas 4.8, 4.10, C.9)\n");
    let mut rng = StdRng::seed_from_u64(105);

    // Part A: SAT-reduction agreement.
    let _ = writeln!(
        out,
        "| formulas (2 vars, 3 clauses) | agree with SAT oracle | avg decision ms |"
    );
    let _ = writeln!(out, "|---|---|---|");
    let formulas = 6;
    let mut agree = 0;
    let mut total = Duration::ZERO;
    for _ in 0..formulas {
        let cnf = logic::random_3cnf(&mut rng, 2, 3);
        let sat = logic::dpll_satisfiable(&cnf);
        let query = sat_to_strong_minimality(&cnf);
        let (sm, t) = time(|| is_strongly_minimal(&query));
        total += t;
        if sm != sat {
            agree += 1;
        }
    }
    let _ = writeln!(
        out,
        "| {formulas} | {agree}/{formulas} | {} |",
        ms(total / formulas as u32)
    );

    // Part B: random CQs — how many are strongly minimal, and how precise is
    // the Lemma 4.8 sufficient condition?
    let _ = writeln!(
        out,
        "\n| random CQs | strongly minimal | satisfy Lemma 4.8 | strongly minimal but fail Lemma 4.8 |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    let samples = 200;
    let mut strongly = 0;
    let mut lemma = 0;
    let mut false_neg = 0;
    for _ in 0..samples {
        let q = workloads::random_query(
            &mut rng,
            QueryParams {
                relations: 2,
                arity: 2,
                atoms: 3,
                variables: 4,
                head_variables: 2,
                allow_self_joins: true,
            },
        );
        let sm = is_strongly_minimal(&q);
        let l48 = pc_core::satisfies_lemma_4_8(&q);
        assert!(!l48 || sm, "Lemma 4.8 must be sufficient");
        if sm {
            strongly += 1;
        }
        if l48 {
            lemma += 1;
        }
        if sm && !l48 {
            false_neg += 1;
        }
    }
    let _ = writeln!(out, "| {samples} | {strongly} | {lemma} | {false_neg} |");
    out
}

/// T6 — the Hypercube family (Lemma 5.7, Corollary 5.8): structural
/// validation of generosity/scatteredness and family-level
/// parallel-correctness answers for related queries.
fn table_t6() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## T6 — Hypercube families (Lemma 5.7, Corollary 5.8)\n"
    );
    let _ = writeln!(
        out,
        "| query | generous | scattered | self parallel-correct | members |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(106);
    let queries = [
        (
            "2-chain (R,S)",
            ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap(),
        ),
        ("triangle", triangle_query()),
        ("example 3.5", example_3_5_query()),
        ("3-chain", chain_query(3)),
    ];
    for (name, query) in &queries {
        let instance = workloads::random_instance(
            &mut rng,
            &query.schema(),
            InstanceParams {
                domain_size: 5,
                facts_per_relation: 15,
            },
        );
        let v = validate_hypercube_family(query, &instance, 3);
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} | {} |",
            v.generous, v.scattered, v.self_parallel_correct, v.members_checked
        );
    }

    let _ = writeln!(
        out,
        "\n| family of | candidate Q' | parallel-correct for the family (C3) |"
    );
    let _ = writeln!(out, "|---|---|---|");
    let anchor = triangle_query();
    let candidates = [
        ("edge projection", "U(x, y) :- E(x, y)."),
        ("wedge", "U(x, z) :- E(x, y), E(y, z)."),
        ("self-loop", "U(x) :- E(x, x)."),
        (
            "4-cycle",
            "U(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x).",
        ),
    ];
    for (name, text) in candidates {
        let q_prime = ConjunctiveQuery::parse(text).unwrap();
        let ok = holds_c3(&anchor, &q_prime);
        let _ = writeln!(out, "| triangle | {name} | {ok} |");
    }
    out
}

/// T7 — deciding condition (C3) on 3-colorability-derived instances
/// (Propositions 5.4 / D.1): agreement with the coloring oracle and timing
/// as the graph grows.
fn table_t7() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## T7 — condition (C3) vs graph 3-colorability (Prop. 5.4 / D.1)\n"
    );
    let _ = writeln!(
        out,
        "| vertices | edge prob. | graphs | agree | avg coloring ms | avg C3 ms |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(107);
    for &(n, p) in &[(4usize, 0.5), (5, 0.5), (6, 0.5), (7, 0.4), (8, 0.4)] {
        let graphs = 5;
        let mut agree = 0;
        let mut color_time = Duration::ZERO;
        let mut c3_time = Duration::ZERO;
        for _ in 0..graphs {
            let graph = Graph::random(&mut rng, n, p);
            let (colorable, t0) = time(|| graph.is_three_colorable());
            color_time += t0;
            let red = three_col_to_c3_acyclic_q(&graph);
            let (c3, t1) = time(|| holds_c3(&red.from, &red.to));
            c3_time += t1;
            if c3 == colorable {
                agree += 1;
            }
        }
        let _ = writeln!(
            out,
            "| {n} | {p} | {graphs} | {agree}/{graphs} | {} | {} |",
            ms(color_time / graphs as u32),
            ms(c3_time / graphs as u32)
        );
    }
    out
}

/// T8 — one-round Hypercube evaluation of the triangle and chain joins on
/// uniform and skewed data: communication volume, maximum node load,
/// replication and correctness as the cluster grows (the MPC cost picture
/// the paper builds on).
fn table_t8() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## T8 — one-round Hypercube evaluation (Sections 1 and 5.2)\n"
    );
    let _ = writeln!(
        out,
        "| query | data | buckets | nodes | comm (facts) | max load | replication | answers | correct | eval ms |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(108);
    let edge_schema = Schema::from_relations([("E", 2)]);
    let chain_schema = Schema::from_relations([("R", 2)]);
    let workloads_list: Vec<(&str, ConjunctiveQuery, &str, Instance)> = vec![
        (
            "triangle",
            triangle_query(),
            "uniform",
            workloads::random_instance(
                &mut rng,
                &edge_schema,
                InstanceParams {
                    domain_size: 30,
                    facts_per_relation: 400,
                },
            ),
        ),
        (
            "triangle",
            triangle_query(),
            "zipf(1.2)",
            workloads::zipf_instance(
                &mut rng,
                &edge_schema,
                InstanceParams {
                    domain_size: 30,
                    facts_per_relation: 400,
                },
                1.2,
            ),
        ),
        (
            "3-chain",
            chain_query(3),
            "uniform",
            workloads::random_instance(
                &mut rng,
                &chain_schema,
                InstanceParams {
                    domain_size: 30,
                    facts_per_relation: 400,
                },
            ),
        ),
        (
            "3-chain",
            chain_query(3),
            "zipf(1.2)",
            workloads::zipf_instance(
                &mut rng,
                &chain_schema,
                InstanceParams {
                    domain_size: 30,
                    facts_per_relation: 400,
                },
                1.2,
            ),
        ),
    ];
    for (qname, query, dname, instance) in &workloads_list {
        let expected = cq::evaluate(query, instance);
        for buckets in [1usize, 2, 3, 4] {
            let policy = HypercubePolicy::uniform(query, buckets).expect("policy");
            let engine = OneRoundEngine::new(&policy);
            let (outcome, t) = time(|| engine.evaluate(query, instance));
            let _ = writeln!(
                out,
                "| {qname} | {dname} | {buckets} | {} | {} | {} | {:.2} | {} | {} | {} |",
                policy.network().len(),
                outcome.stats.total_assigned,
                outcome.stats.max_load,
                outcome.stats.replication_factor,
                expected.len(),
                *outcome.result == expected,
                ms(t)
            );
        }
    }
    out
}

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).map(|a| a.to_uppercase()).collect();
    let run = |name: &str| requested.is_empty() || requested.iter().any(|r| r == name);

    println!("# Experiment tables — Parallel-Correctness and Transferability for CQs\n");
    println!(
        "Generated by `cargo run --release --example experiments`{}\n",
        if requested.is_empty() {
            String::new()
        } else {
            format!(" (subset: {})", requested.join(", "))
        }
    );

    let start = Instant::now();
    type TableFn = fn() -> String;
    let tables: [(&str, TableFn); 8] = [
        ("T1", table_t1),
        ("T2", table_t2),
        ("T3", table_t3),
        ("T4", table_t4),
        ("T5", table_t5),
        ("T6", table_t6),
        ("T7", table_t7),
        ("T8", table_t8),
    ];
    for (name, table) in tables {
        if run(name) {
            let t = Instant::now();
            print!("{}", table());
            println!("_generated in {:.2}s_\n", t.elapsed().as_secs_f64());
        }
    }
    eprintln!(
        "all requested tables generated in {:.2}s",
        start.elapsed().as_secs_f64()
    );
}
