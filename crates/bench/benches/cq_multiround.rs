//! Multi-round evaluation and the reshuffle-path ablation: materialized
//! versus parallel versus streaming distribute, and the iterated
//! (transitive-closure) engine end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cq::{ConjunctiveQuery, Fact, Instance, Value};
use distribution::{DistributionPolicy, HypercubePolicy, MultiRoundEngine, RoundSchedule};
use workloads::InstanceParams;

fn square_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
}

/// A chain with extra random chords: enough structure for several squaring
/// rounds, enough facts for the reshuffle phase to be measurable.
fn closure_instance(vertices: usize, extra: usize) -> Instance {
    let mut out = Instance::new();
    for i in 0..vertices - 1 {
        out.insert(Fact::new(
            "R",
            vec![Value::indexed("v", i), Value::indexed("v", i + 1)],
        ));
    }
    let mut rng = StdRng::seed_from_u64(42);
    let sample = workloads::random_instance(
        &mut rng,
        &square_query().schema(),
        InstanceParams {
            domain_size: vertices,
            facts_per_relation: extra,
        },
    );
    out.extend(sample.facts().cloned());
    out
}

/// How many threads the machine actually has: the parallel-reshuffle bench
/// compares against this pool size, so a single-core CI box degenerates to
/// the sequential path instead of paying for useless thread spawns.
fn machine_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn bench_distribute_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("distribute");
    group.sample_size(10);
    let q = square_query();
    let instance = closure_instance(40, 1500);
    let workers = machine_workers();
    for buckets in [4usize, 8] {
        let policy = HypercubePolicy::uniform(&q, buckets).unwrap();
        let name = format!("hypercube{buckets}");
        group.bench_with_input(
            BenchmarkId::new("materialized", &name),
            &instance,
            |b, i| b.iter(|| policy.distribute(i).stats(i).total_assigned),
        );
        group.bench_with_input(BenchmarkId::new("parallel", &name), &instance, |b, i| {
            b.iter(|| {
                policy
                    .distribute_parallel(i, workers)
                    .stats(i)
                    .total_assigned
            })
        });
        group.bench_with_input(BenchmarkId::new("streaming", &name), &instance, |b, i| {
            b.iter(|| policy.distribute_stream(i, 1).stats(i).total_assigned)
        });
    }
    group.finish();
}

fn bench_multi_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiround");
    group.sample_size(10);
    let q = square_query();
    let instance = closure_instance(48, 0); // pure chain: log-many rounds
    let policy = HypercubePolicy::uniform(&q, 2).unwrap();

    group.bench_with_input(
        BenchmarkId::new("closure", "hypercube2"),
        &instance,
        |b, i| {
            b.iter(|| {
                let outcome = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                    .rounds(12)
                    .feedback_into("R")
                    .evaluate(&q, i);
                assert!(outcome.converged);
                outcome.result.len()
            })
        },
    );
    group.finish();
}

/// The <2% disabled-overhead guard for the observability layer. With no
/// active trace every instrumentation site costs one relaxed atomic load
/// (arguments stay unevaluated), so the product
///
/// ```text
/// (cost of one disabled site) × (sites a traced closure run hits)
/// ```
///
/// must stay under 2% of the untraced closure run itself. The site count
/// is not guessed: a traced run records exactly one event per site hit,
/// so its event total *is* the per-run site count.
fn bench_disabled_tracing_overhead(c: &mut Criterion) {
    let q = square_query();
    let instance = closure_instance(48, 0);
    let policy = HypercubePolicy::uniform(&q, 2).unwrap();
    let run = || {
        let outcome = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(12)
            .feedback_into("R")
            .evaluate(&q, &instance);
        assert!(outcome.converged);
        outcome.result.len()
    };

    // Keep the disabled fast path itself on the bench-diff trajectory.
    let mut group = c.benchmark_group("multiround_obs");
    group.sample_size(10);
    group.bench_function("disabled_sites_x1000", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                let _ = std::hint::black_box(obs::span!("bench_site", i = i));
            }
        })
    });
    group.finish();

    assert!(
        !obs::enabled(),
        "no trace may be active while the overhead guard measures"
    );

    // Sites hit per run = events a traced run records.
    obs::start_trace();
    std::hint::black_box(run());
    let sites = obs::end_trace().len() as u64;
    assert!(sites > 0, "the closure run hits no instrumentation sites");

    // Per-site disabled cost, amortized over enough calls to resolve
    // (black_box keeps the guard from being optimized away; its own cost
    // only overestimates the overhead, never hides it).
    const CALLS: u64 = 1_000_000;
    let start = std::time::Instant::now();
    for i in 0..CALLS {
        let _ = std::hint::black_box(obs::span!("bench_site", i = i));
    }
    let per_site = start.elapsed().as_secs_f64() / CALLS as f64;

    // The untraced run: best of several to damp scheduler noise.
    let baseline = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(run());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min);

    let overhead = per_site * sites as f64 / baseline;
    println!(
        "disabled-tracing overhead: {} sites x {:.1}ns = {:.4}% of a {:.2}ms run",
        sites,
        per_site * 1e9,
        overhead * 100.0,
        baseline * 1e3,
    );
    assert!(
        overhead < 0.02,
        "disabled tracing costs {:.3}% of the cq_multiround closure run (limit 2%)",
        overhead * 100.0
    );
}

criterion_group!(
    benches,
    bench_distribute_modes,
    bench_multi_round,
    bench_disabled_tracing_overhead
);
criterion_main!(benches);
