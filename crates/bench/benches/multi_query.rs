//! Multi-query runs: transferability-driven reshuffle elision against the
//! reshuffle-always baseline.
//!
//! Criterion times the in-memory engine on every named query sequence in
//! both modes (the elision saves whole distribute phases, so `elide` must
//! not be slower). After the timing loops the same sequences run over a
//! real `WireTransport`, and the bench asserts the headline property:
//! the elided run ships **strictly fewer bytes** on the wire than the
//! reshuffle-always baseline while producing identical answers.
//!
//! Requires the `pcq-analyze` binary next to the bench profile's target
//! directory (`cargo build --release` first) for the comm-bytes gate;
//! skips that part with a note otherwise.

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cq::{ConjunctiveQuery, Instance};
use distribution::{MultiRoundEngine, RoundSchedule};
use pc_core::TransferCache;
use wire::WireTransport;
use workloads::{
    named_query_sequence, query_sequence_names, total_broadcast_policy, InstanceParams,
};

/// One instance covering every relation any query of the sequence reads:
/// the union of per-query generations under one seed, so shared relations
/// get identical facts.
fn instance_for(queries: &[ConjunctiveQuery]) -> Instance {
    let mut all = Instance::new();
    for query in queries {
        let mut rng = StdRng::seed_from_u64(29);
        all = all.union(&workloads::random_instance(
            &mut rng,
            &query.schema(),
            InstanceParams {
                domain_size: 12,
                facts_per_relation: 120,
            },
        ));
    }
    all
}

/// Locates the freshly built `pcq-analyze` by walking up from the bench
/// executable to the cargo target profile directory.
fn worker_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .map(|dir| dir.join("pcq-analyze"))
        .find(|candidate| candidate.exists())
}

fn bench_multi_query(c: &mut Criterion) {
    let policy = total_broadcast_policy(4).unwrap();

    let mut group = c.benchmark_group("multi_query");
    group.sample_size(10);
    for name in query_sequence_names() {
        let queries = named_query_sequence(name).unwrap();
        let instance = instance_for(&queries);
        for (label, always) in [("elide", false), ("reshuffle_always", true)] {
            group.bench_with_input(BenchmarkId::new(label, name), &queries, |b, queries| {
                b.iter(|| {
                    let mut cache = TransferCache::new();
                    MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                        .rounds(4)
                        .reshuffle_always(always)
                        .evaluate_queries(queries, &instance, &mut |p, q| cache.transfers(p, q))
                })
            });
        }
    }
    group.finish();

    // Outside the timing loops: on real wire frames the elided run must
    // ship strictly fewer bytes than the baseline, with identical answers.
    let Some(binary) = worker_binary() else {
        eprintln!(
            "multi_query bench: pcq-analyze binary not found; run `cargo build --release` \
             first — skipping the comm-bytes gate"
        );
        return;
    };
    for name in query_sequence_names() {
        let queries = named_query_sequence(name).unwrap();
        let instance = instance_for(&queries);
        let mut transport =
            WireTransport::spawn_pipes(&binary, &vec![vec!["worker".to_string()]; 2])
                .expect("cannot spawn workers");
        let mut cache = TransferCache::new();
        let mut run = |always: bool, transport: &mut WireTransport| {
            MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                .rounds(4)
                .reshuffle_always(always)
                .evaluate_queries_via(transport, &queries, &instance, &mut |p, q| {
                    cache.transfers(p, q)
                })
                .expect("wire multi-query run failed")
        };
        let baseline = run(true, &mut transport);
        let elided = run(false, &mut transport);
        assert!(
            elided.elided_reshuffles() >= 1,
            "{name}: no reshuffle was elided — the gate compares nothing"
        );
        for (b, e) in baseline.per_query.iter().zip(&elided.per_query) {
            assert_eq!(e.result, b.result, "{name}: elision changed the answers");
        }
        println!(
            "{name}: elide={} bytes, reshuffle-always={} bytes ({:.2}x)",
            elided.total_comm_bytes(),
            baseline.total_comm_bytes(),
            baseline.total_comm_bytes() as f64 / elided.total_comm_bytes().max(1) as f64
        );
        assert!(
            elided.total_comm_bytes() < baseline.total_comm_bytes(),
            "{name}: elided run shipped {} bytes, baseline {}",
            elided.total_comm_bytes(),
            baseline.total_comm_bytes()
        );
    }
}

criterion_group!(benches, bench_multi_query);
criterion_main!(benches);
