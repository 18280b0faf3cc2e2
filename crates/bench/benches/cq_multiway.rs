//! Binary versus worst-case-optimal multiway joins on cyclic queries.
//!
//! The instances are "tripartite traps": `p` sources fan out densely onto
//! `k` middle vertices, the middles fan out densely onto `p` sinks, and a
//! single back edge closes the cycle. The binary (atom-at-a-time) join
//! enumerates every dense 2-path before discovering that almost none of
//! them close — `Θ(p²k)` work — while the multiway join, a leapfrog
//! triejoin, intersects sorted columns variable-at-a-time and touches only
//! the `Θ(k)` bindings that can still complete a cycle. All three query
//! shapes (triangle, chordal 4-cycle, 4-clique) are cyclic, so `Auto` routes
//! them to the multiway join.
//!
//! The trap groups evaluate one instance over and over, so the multiway
//! join's sorted column orders (and the binary join's hash index) are built
//! once and every timed iteration runs warm. A one-round run is the
//! opposite: every chunk is evaluated once. The `dense` group covers that
//! traffic — the triangle over a regular digraph of the end-to-end
//! benchmark's shape (200 values, in- and out-degree 30, ≈ 25 000
//! triangles), on a fresh clone per iteration, so building the orders is
//! inside the timer.
//!
//! After the timed groups, the bench asserts that both strategies agree on
//! the result and that multiway actually beats binary on the triangle and
//! chordal shapes — the worst-case-optimality claim the evaluator rests on,
//! pinned in CI.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cq::{evaluate_with, ConjunctiveQuery, EvalOptions, Fact, Instance, JoinStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{chordal4_query, clique4_query, triangle_query};

/// The trap graph: sources `s*` → middles `m*` (dense), middles → sinks
/// `w*` (dense), plus the single closing edge `w0 → s0`. Every edge is in
/// relation `E`, so cardinality-based atom ordering cannot help the binary
/// join — all atoms look alike.
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

fn options(strategy: JoinStrategy) -> EvalOptions {
    EvalOptions {
        join_strategy: strategy,
        ..EvalOptions::default()
    }
}

fn shapes() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        ("triangle", triangle_query()),
        ("chordal4", chordal4_query()),
        ("clique4", clique4_query()),
    ]
}

fn bench_multiway_vs_binary(c: &mut Criterion) {
    let instance = trap_instance(24, 24);
    let mut group = c.benchmark_group("cq_multiway");
    group.sample_size(10);
    for (name, query) in shapes() {
        // Sanity inside the loop, outside the timers: the planner must
        // actually route these cyclic shapes to the multiway matcher.
        assert_eq!(
            options(JoinStrategy::Auto).resolved_strategy(&query),
            JoinStrategy::Multiway,
            "{name} must resolve Auto to multiway"
        );
        group.bench_with_input(BenchmarkId::new("binary", name), &query, |b, q| {
            b.iter(|| evaluate_with(q, &instance, options(JoinStrategy::Binary)).len())
        });
        group.bench_with_input(BenchmarkId::new("multiway", name), &query, |b, q| {
            b.iter(|| evaluate_with(q, &instance, options(JoinStrategy::Multiway)).len())
        });
    }
    group.finish();

    let dense = regular_digraph(200, 30);
    let triangle = triangle_query();
    let mut group = c.benchmark_group("cq_multiway_dense");
    group.sample_size(10);
    group.bench_function("multiway/triangle", |b| {
        b.iter(|| evaluate_with(&triangle, &dense.clone(), options(JoinStrategy::Multiway)).len())
    });
    group.finish();
    let triangles = evaluate_with(&triangle, &dense, options(JoinStrategy::Multiway));
    println!(
        "dense: {} edges, {} triangles",
        dense.len(),
        triangles.len()
    );
    assert_eq!(
        triangles,
        evaluate_with(&triangle, &dense, options(JoinStrategy::Binary)),
        "dense: strategies disagree"
    );

    // Outside the timing loops: identical answers, and the worst-case-
    // optimal join must win on the shapes the trap is built for.
    const ROUNDS: usize = 5;
    for (name, query) in shapes() {
        let binary = evaluate_with(&query, &instance, options(JoinStrategy::Binary));
        let multiway = evaluate_with(&query, &instance, options(JoinStrategy::Multiway));
        assert_eq!(binary, multiway, "{name}: strategies disagree");

        let start = Instant::now();
        for _ in 0..ROUNDS {
            evaluate_with(&query, &instance, options(JoinStrategy::Binary));
        }
        let binary_time = start.elapsed();
        let start = Instant::now();
        for _ in 0..ROUNDS {
            evaluate_with(&query, &instance, options(JoinStrategy::Multiway));
        }
        let multiway_time = start.elapsed();
        println!(
            "{name} x{ROUNDS}: binary={}µs multiway={}µs ({:.2}x)",
            binary_time.as_micros(),
            multiway_time.as_micros(),
            binary_time.as_secs_f64() / multiway_time.as_secs_f64().max(1e-9)
        );
        if matches!(name, "triangle" | "chordal4") {
            assert!(
                multiway_time < binary_time,
                "{name}: multiway must beat binary on the trap instance: {}µs vs {}µs",
                multiway_time.as_micros(),
                binary_time.as_micros()
            );
        }
    }
}

criterion_group!(benches, bench_multiway_vs_binary);
criterion_main!(benches);
