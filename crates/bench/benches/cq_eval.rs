//! Ablation — the conjunctive-query evaluator: the one indexed join (a
//! leapfrog triejoin over sorted column orders) versus the scan oracle's
//! full-relation scans, and core computation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::ops::ControlFlow;

use cq::{for_each_satisfying, ConjunctiveQuery, EvalOptions, Instance, Valuation};
use workloads::{chain_query, star_query, triangle_query, InstanceParams};

/// The four query shapes of the ablation: one cyclic, three acyclic.
fn shapes() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        ("triangle", triangle_query()),
        ("chain4", chain_query(4)),
        ("star4", star_query(4)),
        (
            "two_hop",
            ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap(),
        ),
    ]
}

fn instance_for(query: &ConjunctiveQuery, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    workloads::random_instance(
        &mut rng,
        &query.schema(),
        InstanceParams {
            domain_size: 20,
            facts_per_relation: 250,
        },
    )
}

/// Counts satisfying valuations through the streaming API, so the benchmark
/// times the backtracking search rather than valuation materialization.
fn count_valuations(query: &ConjunctiveQuery, instance: &Instance, opts: EvalOptions) -> usize {
    let mut count = 0usize;
    let _ = for_each_satisfying(query, instance, &Valuation::new(), opts, |_| {
        count += 1;
        ControlFlow::Continue(())
    });
    count
}

/// The triejoin (warm: the sorted orders are built by the first iteration)
/// versus the seed full-relation scan, on the large workload instances.
fn bench_eval_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_backend");
    group.sample_size(10);
    for (name, query) in &shapes() {
        let instance = instance_for(query, 11);
        group.bench_with_input(BenchmarkId::new("indexed", name), &instance, |b, i| {
            b.iter(|| count_valuations(query, i, EvalOptions::default()))
        });
        group.bench_with_input(BenchmarkId::new("scan", name), &instance, |b, i| {
            b.iter(|| count_valuations(query, i, EvalOptions::ScanOracle))
        });
    }
    group.finish();
}

fn bench_minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("cq_minimization");
    group.sample_size(20);
    let queries = [
        ("star5", workloads::star_query(5)),
        ("star8", workloads::star_query(8)),
        (
            "redundant_mix",
            ConjunctiveQuery::parse(
                "T(x) :- R(x, y), R(y, y), R(z, z), R(u, u), R(x, w), R(w, w).",
            )
            .unwrap(),
        ),
    ];
    for (name, query) in &queries {
        group.bench_with_input(BenchmarkId::new("minimize", *name), query, |b, q| {
            b.iter(|| cq::minimize(q).core.body_size())
        });
        group.bench_with_input(BenchmarkId::new("is_minimal", *name), query, |b, q| {
            b.iter(|| cq::is_minimal(q))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval_backend, bench_minimization);
criterion_main!(benches);
