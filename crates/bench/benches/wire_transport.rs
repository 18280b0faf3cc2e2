//! Pipelined versus lock-step wire-transport rounds.
//!
//! `WireTransport` keeps a bounded window of eval jobs in flight per
//! worker; window 1 is write-one-read-one lock step. This bench drives the
//! transport seam directly (begin_round → send* → barrier → recv*)
//! on two shapes — many tiny chunks (latency-bound, where pipelining pays
//! most) and fewer fat chunks (bandwidth-bound) — on a 4-worker pool, and
//! asserts after timing that the pipelined fan-out round is faster than
//! lock step.
//!
//! Requires the `pcq-analyze` binary next to the bench profile's target
//! directory (`cargo build --release` first); skips with a note otherwise.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cq::{ConjunctiveQuery, Instance};
use distribution::{Node, Shipment, Transport};
use wire::WireTransport;
use workloads::InstanceParams;

/// Locates the freshly built `pcq-analyze` by walking up from the bench
/// executable to the cargo target profile directory.
fn worker_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .map(|dir| dir.join("pcq-analyze"))
        .find(|candidate| candidate.exists())
}

fn query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
}

/// One distinct chunk per node (distinct seeds keep the workers from
/// seeing identical bytes, like a real reshuffle).
fn chunks(nodes: usize, facts_per_chunk: usize) -> Vec<(Node, Arc<Instance>)> {
    let q = query();
    (0..nodes)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(1000 + i as u64);
            let chunk = workloads::random_instance(
                &mut rng,
                &q.schema(),
                InstanceParams {
                    domain_size: 12,
                    facts_per_relation: facts_per_chunk,
                },
            );
            (Node::numbered(i), Arc::new(chunk))
        })
        .collect()
}

/// One full transport round over pre-built chunks; returns the total
/// result size so the work cannot be optimized away.
fn drive_round(
    transport: &mut WireTransport,
    q: &ConjunctiveQuery,
    chunks: &[(Node, Arc<Instance>)],
) -> usize {
    transport
        .begin_round(0, q, cq::EvalOptions::default())
        .unwrap();
    for (node, chunk) in chunks {
        transport
            .send(*node, Shipment::Full(chunk.clone()))
            .unwrap();
    }
    transport.barrier().unwrap();
    let mut total = 0;
    for (node, _) in chunks {
        total += transport.recv(*node).unwrap().output.len();
    }
    let _ = transport.take_bytes_shipped();
    total
}

fn bench_wire_transport(c: &mut Criterion) {
    let Some(binary) = worker_binary() else {
        eprintln!("wire_transport bench: pcq-analyze binary not found; run `cargo build --release` first — skipping");
        return;
    };
    let spawn = |window: usize| {
        WireTransport::spawn_pipes(&binary, &vec![vec!["worker".to_string()]; 4])
            .expect("cannot spawn workers")
            .pipeline_window(window)
    };
    let q = query();
    // fanout64: 64 tiny chunks — 16 sequential round-trips per worker in
    // lock step, one streamed burst pipelined. broadcast16: 16 chunks of
    // ~200 facts — bandwidth-bound, pipelining matters less.
    let shapes = [("fanout64", 64usize, 4usize), ("broadcast16", 16, 200)];

    let mut group = c.benchmark_group("wire_transport");
    group.sample_size(10);
    for (name, nodes, facts) in shapes {
        let work = chunks(nodes, facts);
        let mut lockstep = spawn(1);
        group.bench_with_input(BenchmarkId::new("lockstep", name), &work, |b, work| {
            b.iter(|| drive_round(&mut lockstep, &q, work))
        });
        let mut pipelined = spawn(8);
        group.bench_with_input(BenchmarkId::new("pipelined", name), &work, |b, work| {
            b.iter(|| drive_round(&mut pipelined, &q, work))
        });
    }
    group.finish();

    // Outside the timing loops: the two drivers must agree on the answer,
    // and on the latency-bound shape the pipelined rounds must be faster.
    let work = chunks(64, 4);
    let mut lockstep = spawn(1);
    let mut pipelined = spawn(8);
    assert_eq!(
        drive_round(&mut lockstep, &q, &work),
        drive_round(&mut pipelined, &q, &work),
        "window size changed the round's result"
    );
    const ROUNDS: usize = 6;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        drive_round(&mut lockstep, &q, &work);
    }
    let lockstep_time = start.elapsed();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        drive_round(&mut pipelined, &q, &work);
    }
    let pipelined_time = start.elapsed();
    println!(
        "fanout64 x{ROUNDS}: lockstep={}µs pipelined={}µs ({:.2}x)",
        lockstep_time.as_micros(),
        pipelined_time.as_micros(),
        lockstep_time.as_secs_f64() / pipelined_time.as_secs_f64().max(1e-9)
    );
    assert!(
        pipelined_time < lockstep_time,
        "pipelining must beat lock step on 64 tiny chunks: {}µs vs {}µs",
        pipelined_time.as_micros(),
        lockstep_time.as_micros()
    );
}

criterion_group!(benches, bench_wire_transport);
criterion_main!(benches);
