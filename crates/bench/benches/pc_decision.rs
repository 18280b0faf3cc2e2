//! Experiment E1/E2 — deciding parallel-correctness.
//!
//! * `c0_vs_c1`: cost of the sufficient condition (C0) versus the exact
//!   characterization (C1) on random explicit policies (Lemma 3.4), and
//!   `c1_k16_chain3`, the shape of the benchmark's `decide_pc_transfer`:
//!   the 3-chain over the complete relation on 16 values (65 536 candidate
//!   valuations, 15 equality types) under a 4-node policy.
//! * `pci_qbf` / `pc_qbf`: cost of PCI and PC(Pfin) on Π₂-QBF-derived hard
//!   instances of growing size (Theorem 3.8).
//! * `minimal_valuation_pruning`: ablation — enumerating minimal valuations
//!   versus all satisfying valuations for the (C1) check.
//! * `pc_incremental`: the brute-force `PC(Pfin)` reference decision, from
//!   scratch versus the incremental subset-lattice walk that re-evaluates
//!   only the delta between consecutive candidates (asserts, after timing,
//!   that incremental wins and both agree).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use distribution::{ExplicitPolicy, Network};
use pc_core::{
    check_parallel_correctness, check_parallel_correctness_naive,
    check_parallel_correctness_naive_incremental, check_parallel_correctness_on_instance,
};
use reductions::pi2_to_pci;
use workloads::{example_3_5_query, PolicyParams};

fn bench_c0_vs_c1(c: &mut Criterion) {
    let mut group = c.benchmark_group("c0_vs_c1");
    group.sample_size(20);
    let universe = workloads::complete_binary_relation("R", &["a", "b", "c"]);
    let query = example_3_5_query();
    let mut rng = StdRng::seed_from_u64(1);
    let policies: Vec<_> = (0..8)
        .map(|i| {
            workloads::random_explicit_policy(
                &mut rng,
                &universe,
                PolicyParams {
                    nodes: 3,
                    replication: 1 + i % 3,
                    skip_probability: 0.0,
                },
            )
        })
        .collect();
    group.bench_function("c0", |b| {
        b.iter(|| {
            policies
                .iter()
                .filter(|p| pc_core::holds_c0(&query, *p, &universe))
                .count()
        })
    });
    group.bench_function("c1", |b| {
        b.iter(|| {
            policies
                .iter()
                .filter(|p| pc_core::holds_c1(&query, *p, &universe))
                .count()
        })
    });
    let chain = workloads::chain_query(3);
    let values: Vec<String> = (0..16).map(|i| format!("v{i}")).collect();
    let values: Vec<&str> = values.iter().map(String::as_str).collect();
    let k16 = workloads::complete_binary_relation("R", &values);
    let spread = ExplicitPolicy::broadcast(&Network::with_size(4), &k16);
    group.bench_function("c1_k16_chain3", |b| {
        b.iter(|| pc_core::holds_c1(&chain, &spread, &k16))
    });
    group.finish();
}

fn bench_qbf_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("pc_qbf");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    for (nx, ny, k) in [(1usize, 1usize, 2usize), (2, 2, 3), (3, 2, 4)] {
        let qbf = logic::random_pi2_qbf(&mut rng, nx, ny, k);
        let red = pi2_to_pci(&qbf);
        let label = format!("x{nx}_y{ny}_c{k}");
        group.bench_with_input(BenchmarkId::new("pci", &label), &red, |b, red| {
            b.iter(|| {
                check_parallel_correctness_on_instance(&red.query, &red.policy, &red.instance)
                    .is_correct()
            })
        });
        group.bench_with_input(BenchmarkId::new("pc", &label), &red, |b, red| {
            b.iter(|| check_parallel_correctness(&red.query, &red.policy).is_correct())
        });
        group.bench_with_input(BenchmarkId::new("qbf_oracle", &label), &qbf, |b, qbf| {
            b.iter(|| qbf.is_true())
        });
    }
    group.finish();
}

fn bench_minimal_valuation_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimal_valuation_enumeration");
    group.sample_size(20);
    let query = example_3_5_query();
    let universe = workloads::complete_binary_relation("R", &["a", "b", "c"]);
    group.bench_function("all_satisfying", |b| {
        b.iter(|| cq::satisfying_valuations(&query, &universe).len())
    });
    group.bench_function("minimal_only", |b| {
        b.iter(|| pc_core::minimal_valuations_over(&query, &universe).len())
    });
    group.finish();
}

fn bench_incremental_naive(c: &mut Criterion) {
    let query = example_3_5_query();
    // 9 facts → a full 2^9-subset lattice; broadcast is parallel-correct,
    // so neither search can early-exit and both walk every candidate.
    let universe = workloads::complete_binary_relation("R", &["a", "b", "c"]);
    let network = Network::with_size(3);
    let policy = ExplicitPolicy::broadcast(&network, &universe);

    let mut group = c.benchmark_group("pc_incremental");
    group.sample_size(10);
    group.bench_function("scratch", |b| {
        b.iter(|| check_parallel_correctness_naive(&query, &policy))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| check_parallel_correctness_naive_incremental(&query, &policy).is_correct())
    });
    group.finish();

    // Outside the timers: the searches must agree — on the broadcast and on
    // a spread of random policies with and without counterexamples.
    let incremental = check_parallel_correctness_naive_incremental(&query, &policy);
    assert!(incremental.is_correct(), "broadcast is parallel-correct");
    assert_eq!(
        incremental.stats.subsets_checked,
        1 << universe.len(),
        "a correct policy must be verified on the whole lattice"
    );
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..4 {
        let p = workloads::random_explicit_policy(
            &mut rng,
            &universe,
            PolicyParams {
                nodes: 2,
                replication: 1 + trial % 2,
                skip_probability: 0.0,
            },
        );
        assert_eq!(
            check_parallel_correctness_naive(&query, &p),
            check_parallel_correctness_naive_incremental(&query, &p).is_correct(),
            "trial {trial}: searches disagree"
        );
    }

    // The delta walk re-evaluates one single-fact step per lattice edge
    // instead of every candidate at every node from scratch — it must win.
    const ROUNDS: usize = 3;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        check_parallel_correctness_naive(&query, &policy);
    }
    let scratch_time = start.elapsed();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        check_parallel_correctness_naive_incremental(&query, &policy);
    }
    let incremental_time = start.elapsed();
    println!(
        "pc_naive x{ROUNDS}: scratch={}µs incremental={}µs ({:.2}x) cache={:?}",
        scratch_time.as_micros(),
        incremental_time.as_micros(),
        scratch_time.as_secs_f64() / incremental_time.as_secs_f64().max(1e-9),
        incremental.stats.cache
    );
    assert!(
        incremental_time < scratch_time,
        "the incremental lattice walk must beat from-scratch re-evaluation: {}µs vs {}µs",
        incremental_time.as_micros(),
        scratch_time.as_micros()
    );
}

criterion_group!(
    benches,
    bench_c0_vs_c1,
    bench_qbf_reductions,
    bench_minimal_valuation_pruning,
    bench_incremental_naive
);
criterion_main!(benches);
