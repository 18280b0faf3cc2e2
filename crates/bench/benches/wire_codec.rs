//! Throughput of the wire codec on the evaluator-benchmark instance
//! shapes: binary encode, binary decode, and the full framed round-trip
//! for instances and chunk-shipping messages, plus the textual scenario
//! parse/print pair. Appends to the `BENCH_results.json` trajectory like
//! every other bench group.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cq::{ConjunctiveQuery, Instance};
use distribution::{Node, Shipment};
use wire::{Message, Scenario};
use workloads::{chain_query, star_query, triangle_query, InstanceParams};

/// The `cq_eval` query shapes with their bench instances (domain 20, 250
/// facts per relation — the same sizing as the evaluator ablation).
fn shapes() -> Vec<(&'static str, ConjunctiveQuery, Instance)> {
    [
        ("triangle", triangle_query()),
        ("chain4", chain_query(4)),
        ("star4", star_query(4)),
    ]
    .into_iter()
    .map(|(name, query)| {
        let mut rng = StdRng::seed_from_u64(7);
        let instance = workloads::random_instance(
            &mut rng,
            &query.schema(),
            InstanceParams {
                domain_size: 20,
                facts_per_relation: 250,
            },
        );
        (name, query, instance)
    })
    .collect()
}

fn bench_encode_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(10);
    for (name, query, instance) in &shapes() {
        group.bench_with_input(BenchmarkId::new("encode", name), instance, |b, i| {
            b.iter(|| wire::encode_body(i));
        });
        let body = wire::encode_body(instance);
        group.bench_with_input(BenchmarkId::new("decode", name), &body, |b, body| {
            b.iter(|| wire::decode_body::<Instance>(body).unwrap());
        });
        let message = Message::Eval {
            query: query.clone(),
            options: cq::EvalOptions::default(),
            round: 0,
            node: Node::numbered(0),
            shipment: Shipment::Full(std::sync::Arc::new(instance.clone())),
            trace: wire::TraceContext::default(),
        };
        group.bench_with_input(
            BenchmarkId::new("frame_roundtrip", name),
            &message,
            |b, message| {
                b.iter(|| {
                    let frame = wire::encode_frame(message);
                    wire::decode_frame::<Message>(&frame).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_scenario_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(10);
    let (_, query, instance) = shapes().remove(1); // chain4: the largest schema
    let scenario = Scenario {
        queries: vec![query],
        instance,
        policy: None,
        schedule: vec![
            wire::PolicySpec::Hash { buckets: 4 },
            wire::PolicySpec::Hypercube { buckets: vec![2] },
        ],
        rounds: 8,
        feedback: None,
    };
    let text = scenario.to_string();
    group.bench_function("scenario_print", |b| b.iter(|| scenario.to_string()));
    group.bench_function("scenario_parse", |b| {
        b.iter(|| Scenario::parse(&text).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_encode_decode, bench_scenario_text);
criterion_main!(benches);
