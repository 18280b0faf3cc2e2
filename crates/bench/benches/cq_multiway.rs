//! The leapfrog triejoin versus the scan oracle on cyclic queries.
//!
//! The instances are "tripartite traps": `p` sources fan out densely onto
//! `k` middle vertices, the middles fan out densely onto `p` sinks, and a
//! single back edge closes the cycle. An atom-at-a-time join enumerates
//! every dense 2-path before discovering that almost none of them close —
//! `Θ(p²k)` partial matches, each a full scan for the oracle — while the
//! triejoin intersects sorted columns variable-at-a-time and touches only
//! the `Θ(k)` bindings that can still complete a cycle. All three query
//! shapes (triangle, chordal 4-cycle, 4-clique) are cyclic.
//!
//! The trap group evaluates one instance over and over, so the triejoin's
//! sorted column orders are built once and every timed iteration runs warm.
//! A one-round run is the opposite: every chunk is evaluated once. The
//! `dense` group covers that traffic — the triangle over a regular digraph
//! of the end-to-end benchmark's shape (200 values, in- and out-degree 30,
//! ≈ 25 000 triangles), on a fresh clone per iteration, so building the
//! orders is inside the timer.
//!
//! After the timed groups, the bench asserts that kernel and oracle agree on
//! the result and that the triejoin actually beats the scan on every trap —
//! the worst-case-optimality claim the evaluator rests on, pinned in CI.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cq::{evaluate, evaluate_with, ConjunctiveQuery, EvalOptions, Fact, Instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{chordal4_query, clique4_query, triangle_query};

/// The trap graph: sources `s*` → middles `m*` (dense), middles → sinks
/// `w*` (dense), plus the single closing edge `w0 → s0`. Every edge is in
/// relation `E`, so cardinality-based atom ordering cannot help an
/// atom-at-a-time join — all atoms look alike.
fn trap_instance(p: usize, k: usize) -> Instance {
    let mut instance = Instance::new();
    for a in 0..p {
        for i in 0..k {
            instance.insert(Fact::from_names("E", &[&format!("s{a}"), &format!("m{i}")]));
        }
    }
    for i in 0..k {
        for b in 0..p {
            instance.insert(Fact::from_names("E", &[&format!("m{i}"), &format!("w{b}")]));
        }
    }
    instance.insert(Fact::from_names("E", &["w0", "s0"]));
    instance
}

/// A digraph in which every vertex has in- and out-degree `degree` (less the
/// few edges two permutations share): the union of `degree` seeded random
/// permutations, as the end-to-end benchmark draws its triangle input.
fn regular_digraph(vertices: usize, degree: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(20150531);
    let mut targets: Vec<usize> = (0..vertices).collect();
    let mut facts = Vec::with_capacity(vertices * degree);
    for _ in 0..degree {
        for i in (1..vertices).rev() {
            targets.swap(i, rng.gen_range(0..i + 1));
        }
        let edges = targets.iter().enumerate();
        facts.extend(
            edges.map(|(a, b)| Fact::from_names("E", &[&format!("v{a}"), &format!("v{b}")])),
        );
    }
    Instance::from_facts(facts)
}

/// The scan oracle.
const SCAN: EvalOptions = EvalOptions::ScanOracle;

fn shapes() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        ("triangle", triangle_query()),
        ("chordal4", chordal4_query()),
        ("clique4", clique4_query()),
    ]
}

fn bench_multiway_vs_scan(c: &mut Criterion) {
    let instance = trap_instance(24, 24);
    let mut group = c.benchmark_group("cq_multiway");
    group.sample_size(10);
    for (name, query) in shapes() {
        group.bench_with_input(BenchmarkId::new("scan", name), &query, |b, q| {
            b.iter(|| evaluate_with(q, &instance, SCAN).len())
        });
        group.bench_with_input(BenchmarkId::new("multiway", name), &query, |b, q| {
            b.iter(|| evaluate(q, &instance).len())
        });
    }
    group.finish();

    let dense = regular_digraph(200, 30);
    let triangle = triangle_query();
    let mut group = c.benchmark_group("cq_multiway_dense");
    group.sample_size(10);
    group.bench_function("multiway/triangle", |b| {
        b.iter(|| evaluate(&triangle, &dense.clone()).len())
    });
    group.finish();
    let triangles = evaluate(&triangle, &dense);
    println!(
        "dense: {} edges, {} triangles",
        dense.len(),
        triangles.len()
    );

    // Outside the timing loops: identical answers, and the worst-case-
    // optimal join must win on the shapes the trap is built for.
    const ROUNDS: usize = 5;
    for (name, query) in shapes() {
        let scan = evaluate_with(&query, &instance, SCAN);
        let multiway = evaluate(&query, &instance);
        assert_eq!(scan, multiway, "{name}: kernel and oracle disagree");

        let start = Instant::now();
        for _ in 0..ROUNDS {
            evaluate_with(&query, &instance, SCAN);
        }
        let scan_time = start.elapsed();
        let start = Instant::now();
        for _ in 0..ROUNDS {
            evaluate(&query, &instance);
        }
        let multiway_time = start.elapsed();
        println!(
            "{name} x{ROUNDS}: scan={}µs multiway={}µs ({:.2}x)",
            scan_time.as_micros(),
            multiway_time.as_micros(),
            scan_time.as_secs_f64() / multiway_time.as_secs_f64().max(1e-9)
        );
        assert!(
            multiway_time < scan_time,
            "{name}: the triejoin must beat the scan on the trap instance: {}µs vs {}µs",
            multiway_time.as_micros(),
            scan_time.as_micros()
        );
    }
}

criterion_group!(benches, bench_multiway_vs_scan);
criterion_main!(benches);
