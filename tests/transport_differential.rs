//! Differential test of the transport seam: cross-process rounds must
//! produce **byte-identical** query answers to the in-memory path — on
//! every named workload family, for single rounds and for iterated
//! (feedback) runs.
//!
//! Worker subprocesses are real spawns of the freshly built `pcq-analyze`
//! binary re-invoked as `worker`, so this exercises the whole stack:
//! reshuffle → binary encode → frame → pipe → decode → evaluate → reply.

use pcq::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pcq-analyze"))
}

/// One of the two `WireTransport` constructors: workers over stdio pipes
/// or over loopback sockets.
type Spawn = fn(&Path, &[Vec<String>]) -> Result<WireTransport, TransportError>;
const PIPES: Spawn = WireTransport::spawn_pipes;
const SOCKETS: Spawn = WireTransport::spawn_sockets;

fn spawn_workers(spawn: Spawn, workers: usize) -> WireTransport {
    spawn(&worker_binary(), &vec![vec!["worker".to_string()]; workers])
        .expect("cannot spawn worker subprocesses")
}

fn spawn_transport(workers: usize) -> WireTransport {
    spawn_workers(PIPES, workers)
}

/// The named workload families of `workloads::named_query`, with a
/// feedback relation for the iterated runs where one applies.
fn named_workloads() -> Vec<(&'static str, Option<&'static str>)> {
    vec![
        ("triangle", None),
        ("example3.5", Some("R")),
        ("chain:2", Some("R")),
        ("chain:4", None),
        ("star:3", None),
        ("cycle:3", None),
    ]
}

fn instance_for(query: &ConjunctiveQuery, seed: u64) -> Instance {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    random_instance(
        &mut rng,
        &query.schema(),
        InstanceParams {
            domain_size: 8,
            facts_per_relation: 30,
        },
    )
}

fn one_round_matches_memory(spawn: Spawn) {
    let mut transport = spawn_workers(spawn, 3);
    for (name, _) in named_workloads() {
        let query = named_query(name).unwrap();
        let instance = instance_for(&query, 11);
        let policy = HypercubePolicy::uniform(&query, 2).unwrap();
        let engine = OneRoundEngine::new(&policy).workers(2);

        let in_memory = engine.evaluate(&query, &instance);
        let on_wire = engine
            .evaluate_via(&mut transport, 0, &query, &instance)
            .unwrap_or_else(|e| panic!("{name}: wire transport failed: {e}"));

        assert_eq!(
            on_wire.result, in_memory.result,
            "{name}: cross-process result diverged"
        );
        // byte-identical: the rendered answers match exactly
        assert_eq!(
            on_wire.result.to_string(),
            in_memory.result.to_string(),
            "{name}: rendered answers diverged"
        );
        assert_eq!(on_wire.per_node_load, in_memory.per_node_load, "{name}");
        assert_eq!(on_wire.per_node_output, in_memory.per_node_output, "{name}");
        assert_eq!(on_wire.stats, in_memory.stats, "{name}");
    }
}

#[test]
fn one_round_process_transport_matches_in_memory_on_all_named_workloads() {
    one_round_matches_memory(PIPES);
}

#[test]
fn one_round_socket_transport_matches_memory_and_process_on_all_named_workloads() {
    one_round_matches_memory(SOCKETS);
}

fn multi_round_matches_memory(spawn: Spawn) {
    let mut transport = spawn_workers(spawn, 2);
    for (name, feedback) in named_workloads() {
        let query = named_query(name).unwrap();
        let instance = instance_for(&query, 23);
        let policy = HypercubePolicy::uniform(&query, 2).unwrap();

        let build_engine = || {
            let mut engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy)).rounds(5);
            if let Some(relation) = feedback {
                engine = engine.feedback_into(relation);
            }
            engine
        };

        let in_memory = build_engine().evaluate(&query, &instance);
        let on_wire = build_engine()
            .evaluate_via(&mut transport, &query, &instance)
            .unwrap_or_else(|e| panic!("{name}: wire transport failed: {e}"));

        assert_eq!(
            on_wire.result.to_string(),
            in_memory.result.to_string(),
            "{name}: multi-round answers diverged"
        );
        assert_eq!(on_wire.converged, in_memory.converged, "{name}");
        assert_eq!(on_wire.rounds_run(), in_memory.rounds_run(), "{name}");
        assert_eq!(on_wire.final_state, in_memory.final_state, "{name}");
        for (mem_round, wire_round) in in_memory.rounds.iter().zip(&on_wire.rounds) {
            assert_eq!(
                mem_round.result, wire_round.result,
                "{name}: a round diverged"
            );
            assert_eq!(mem_round.per_node_load, wire_round.per_node_load, "{name}");
            assert_eq!(mem_round.stats, wire_round.stats, "{name}");
        }
    }
}

#[test]
fn multi_round_process_transport_matches_in_memory_on_all_named_workloads() {
    multi_round_matches_memory(PIPES);
}

#[test]
fn multi_round_socket_transport_matches_memory_on_all_named_workloads() {
    multi_round_matches_memory(SOCKETS);
}

/// The acceptance differential: on every named workload, the incremental
/// run (deltas over the wire, per-node state in the workers, semi-naive
/// local evaluation) must produce byte-identical answers to the classic
/// full-chunk run — in memory and across processes.
fn semi_naive_matches_full_and_memory(spawn: Spawn) {
    let mut transport = spawn_workers(spawn, 2);
    for (name, feedback) in named_workloads() {
        let query = named_query(name).unwrap();
        let instance = instance_for(&query, 37);
        let policy = HypercubePolicy::uniform(&query, 2).unwrap();

        let build_engine = || {
            let mut engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy)).rounds(6);
            if let Some(relation) = feedback {
                engine = engine.feedback_into(relation);
            }
            engine
        };

        let full = build_engine().evaluate(&query, &instance);
        let semi_memory = build_engine().semi_naive(true).evaluate(&query, &instance);
        let semi_wire = build_engine()
            .semi_naive(true)
            .evaluate_via(&mut transport, &query, &instance)
            .unwrap_or_else(|e| panic!("{name}: semi-naive wire transport failed: {e}"));

        for (label, semi) in [("memory", &semi_memory), ("wire", &semi_wire)] {
            assert_eq!(
                semi.result.to_string(),
                full.result.to_string(),
                "{name}/{label}: semi-naive answers diverged from full re-evaluation"
            );
            assert_eq!(semi.converged, full.converged, "{name}/{label}");
            assert_eq!(semi.rounds_run(), full.rounds_run(), "{name}/{label}");
            assert_eq!(semi.final_state, full.final_state, "{name}/{label}");
        }
        // The two semi-naive paths must agree round by round, not just in
        // the end: same delta loads, same delta outputs.
        for (m, w) in semi_memory.rounds.iter().zip(&semi_wire.rounds) {
            assert_eq!(m.result, w.result, "{name}: a semi-naive round diverged");
            assert_eq!(m.per_node_load, w.per_node_load, "{name}");
            assert_eq!(m.stats, w.stats, "{name}");
        }
    }
}

#[test]
fn semi_naive_delta_shipping_matches_full_chunk_shipping_on_all_named_workloads() {
    semi_naive_matches_full_and_memory(PIPES);
}

#[test]
fn semi_naive_socket_transport_matches_memory_on_all_named_workloads() {
    semi_naive_matches_full_and_memory(SOCKETS);
}

#[test]
fn delta_shipping_moves_fewer_bytes_than_full_chunk_shipping() {
    // On a TC-style feedback workload the late rounds of a full-chunk run
    // re-ship the whole accumulated state; the incremental run ships only
    // deltas. The transport counts real serialized bytes, so the saving is
    // measured, not estimated.
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 23);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let build_engine = || {
        MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(8)
            .feedback_into("R")
    };

    let mut transport = spawn_transport(2);
    let full = build_engine()
        .evaluate_via(&mut transport, &query, &instance)
        .unwrap();
    let semi = build_engine()
        .semi_naive(true)
        .evaluate_via(&mut transport, &query, &instance)
        .unwrap();
    assert_eq!(semi.result, full.result);
    assert!(semi.rounds_run() > 1, "need late rounds for the claim");
    assert!(
        semi.total_comm_bytes() < full.total_comm_bytes(),
        "delta shipping moved {} bytes, full-chunk shipping {}",
        semi.total_comm_bytes(),
        full.total_comm_bytes()
    );
    // In-memory runs serialize nothing and must say so.
    assert_eq!(
        build_engine()
            .evaluate(&query, &instance)
            .total_comm_bytes(),
        0
    );
}

#[test]
fn one_process_transport_serves_consecutive_incremental_runs() {
    // Worker processes persist across runs; the round-0 reset must isolate
    // one incremental run from the next (stale per-node state would make
    // the second run's outputs disappear).
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 51);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let mut transport = spawn_transport(2);
    let reference = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
        .rounds(5)
        .feedback_into("R")
        .evaluate(&query, &instance);
    for run in 0..2 {
        let semi = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(5)
            .feedback_into("R")
            .semi_naive(true)
            .evaluate_via(&mut transport, &query, &instance)
            .unwrap();
        assert_eq!(semi.result, reference.result, "run {run} diverged");
        assert_eq!(semi.rounds_run(), reference.rounds_run(), "run {run}");
    }
}

#[test]
fn process_transport_survives_rounds_with_empty_and_skewed_chunks() {
    // Round-robin skips nothing but produces lopsided chunks; an explicit
    // skipping policy produces empty ones. Neither may wedge the pipes.
    let query = named_query("chain:2").unwrap();
    let instance = cq::parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
    let network = Network::with_size(4);
    let policy = ExplicitPolicy::round_robin(&network, &instance);
    let engine = OneRoundEngine::new(&policy);

    let mut transport = spawn_transport(2);
    let via_process = engine
        .evaluate_via(&mut transport, 0, &query, &instance)
        .unwrap();
    let in_memory = engine.evaluate(&query, &instance);
    assert_eq!(via_process.result, in_memory.result);
    assert_eq!(via_process.per_node_load, in_memory.per_node_load);
}

#[test]
fn scenario_files_drive_identical_runs_across_transports() {
    // The acceptance path end to end: a scenario written by the
    // pretty-printer re-parses to an equal value, builds its schedule, and
    // evaluates identically across both transports.
    let scenario = Scenario::parse(
        "query T(x, z) :- R(x, y), R(y, z).
         instance {
           R(v0, v1). R(v1, v2). R(v2, v3). R(v3, v4). R(v4, v0).
         }
         schedule hash(3), hypercube(2)
         rounds 6
         feedback R",
    )
    .unwrap();
    assert_eq!(
        Scenario::parse(&scenario.to_string()).unwrap(),
        scenario,
        "pretty-printed scenario must re-parse to an equal value"
    );

    let policies = scenario.build_schedule().unwrap();
    let refs: Vec<&dyn DistributionPolicy> = policies.iter().map(Box::as_ref).collect();
    fn build_engine<'a>(
        refs: Vec<&'a dyn DistributionPolicy>,
        scenario: &Scenario,
    ) -> MultiRoundEngine<'a> {
        MultiRoundEngine::new(RoundSchedule::of(refs))
            .rounds(scenario.rounds)
            .feedback_into(scenario.feedback.unwrap().as_str())
    }

    let in_memory =
        build_engine(refs.clone(), &scenario).evaluate(scenario.query(), &scenario.instance);
    let mut transport = spawn_transport(2);
    let cross_process = build_engine(refs, &scenario)
        .evaluate_via(&mut transport, scenario.query(), &scenario.instance)
        .unwrap();
    assert_eq!(
        cross_process.result.to_string(),
        in_memory.result.to_string()
    );
    assert!(in_memory.converged && cross_process.converged);
}

#[test]
fn named_values_go_in_and_named_values_come_out_on_every_transport() {
    // Workers never see a value's name — only the coordinator's ids — so
    // everything a name could get lost in is here at once: multi-byte
    // names, a relation of mixed arity, the empty tuple, a fact wide enough
    // to spill out of its inline tuple, and a semi-naive feedback run whose
    // accumulated state takes every round's facts in out of order.
    let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let names = ["αλφα", "ßeta", "日本", "ünï", "plain", "💡"];
    let mut facts: Vec<Fact> = names
        .windows(2)
        .map(|edge| Fact::from_names("R", edge))
        .collect();
    facts.push(Fact::from_names("R", &names[..1]));
    facts.push(Fact::from_names("Flag", &[]));
    facts.push(Fact::from_names("Wide", &names));
    let instance = Instance::from_facts(facts);
    // Every fact, first-round or fed back, goes to every node: the odd
    // ones really cross the wire.
    let network = Network::with_size(3);
    let policy = ExplicitPolicy::broadcast(&network, &instance).with_default(network.nodes());
    let build_engine = || {
        MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(6)
            .feedback_into("R")
            .semi_naive(true)
    };

    let in_memory = build_engine().evaluate(&query, &instance);
    assert!(in_memory.converged && in_memory.rounds_run() > 2);
    assert_eq!(
        in_memory.result,
        build_engine().reference_fixpoint(&query, &instance).result
    );
    let printed = in_memory.result.to_string();
    assert!(printed.contains("T(αλφα, 💡)"), "{printed}");
    for spawn in [PIPES, SOCKETS] {
        let mut transport = spawn_workers(spawn, 2);
        let on_wire = build_engine()
            .evaluate_via(&mut transport, &query, &instance)
            .unwrap();
        assert_eq!(on_wire.result.to_string(), printed);
        assert_eq!(
            on_wire.final_state.to_string(),
            in_memory.final_state.to_string()
        );
        assert!(!on_wire.final_state.to_string().contains('#'));
        assert_eq!(on_wire.rounds_run(), in_memory.rounds_run());
        for fact in instance.facts() {
            assert!(on_wire.final_state.contains(fact), "{fact} was lost");
        }
    }
}

// ---------------------------------------------------------------------------
// Byte accounting: comm_bytes must count worker→coordinator result frames,
// not just the requests.
// ---------------------------------------------------------------------------

#[test]
fn comm_bytes_exceed_request_frames_alone_on_both_wire_transports() {
    // Broadcast gives every node the full instance, so the request frames
    // are exactly reconstructible here: one eval frame per node carrying the
    // whole instance — its values the coordinator's ids, no names — the
    // four nodes dealt round-robin over the two workers' connections, and a
    // connection names each relation, variable and node once, so a worker's
    // second frame lists its node alone. A transport that only counted
    // requests (the old bug) would report exactly this sum; counting the
    // replies too must land strictly above it on a high-output round.
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let network = Network::with_size(4);
    let policy = ExplicitPolicy::broadcast(&network, &instance);
    let engine = OneRoundEngine::new(&policy);

    let mut connections = [(); 2].map(|()| pcq::wire::Encoder::connection());
    let chunk = Shipment::Full(Arc::new(instance.clone()));
    let request_bytes: u64 = network
        .nodes()
        .enumerate()
        .map(|(dealt, node)| {
            pcq::wire::encode_frame_with(
                &mut connections[dealt % 2],
                &pcq::wire::EvalRef {
                    query: &query,
                    options: EvalOptions::default(),
                    round: 0,
                    node,
                    shipment: &chunk,
                    trace: pcq::wire::TraceContext::default(),
                },
            )
            .len() as u64
        })
        .sum();
    assert!(request_bytes > 0);

    let mut process = spawn_transport(2);
    let via_process = engine
        .evaluate_via(&mut process, 0, &query, &instance)
        .unwrap();
    assert!(!via_process.result.is_empty(), "need real result frames");
    assert!(
        via_process.comm_bytes > request_bytes,
        "process transport reported {} comm bytes; the requests alone are {} — \
         result frames are not being counted",
        via_process.comm_bytes,
        request_bytes
    );

    let mut socket = spawn_workers(SOCKETS, 2);
    let via_socket = engine
        .evaluate_via(&mut socket, 0, &query, &instance)
        .unwrap();
    assert!(
        via_socket.comm_bytes > request_bytes,
        "socket transport reported {} comm bytes; the requests alone are {}",
        via_socket.comm_bytes,
        request_bytes
    );
    assert_eq!(via_socket.result, via_process.result);
    // Both transports put the same frames on their connections (the socket
    // handshake is a control frame and names nothing): the totals differ by
    // the replies' `eval_us` varints at most, one per node.
    assert!(
        via_socket.comm_bytes.abs_diff(via_process.comm_bytes) <= 4 * 9,
        "socket {} vs process {} comm bytes",
        via_socket.comm_bytes,
        via_process.comm_bytes
    );
}

// ---------------------------------------------------------------------------
// Shipped evaluation options: wire workers must honor the coordinator's
// EvalOptions instead of silently falling back to their own defaults.
// ---------------------------------------------------------------------------

#[test]
fn wire_workers_honor_the_coordinators_join_strategy() {
    // The options travel with every round since they joined the wire
    // protocol; with every node told to run the scan oracle, all three
    // transports must produce the answers the triejoin computes centrally,
    // on every family.
    let options = EvalOptions::ScanOracle;
    let mut process = spawn_transport(2);
    let mut socket = spawn_workers(SOCKETS, 2);
    for (name, _) in named_workloads() {
        let query = named_query(name).unwrap();
        let instance = instance_for(&query, 43);
        let policy = HypercubePolicy::uniform(&query, 2).unwrap();
        let engine = OneRoundEngine::new(&policy)
            .workers(2)
            .eval_options(options);

        let in_memory = engine.evaluate(&query, &instance);
        assert_eq!(
            in_memory.result,
            cq::evaluate(&query, &instance),
            "{name}: scan-oracle in-memory run lost answers"
        );
        let via_process = engine
            .evaluate_via(&mut process, 0, &query, &instance)
            .unwrap_or_else(|e| panic!("{name}: process transport failed: {e}"));
        let via_socket = engine
            .evaluate_via(&mut socket, 0, &query, &instance)
            .unwrap_or_else(|e| panic!("{name}: socket transport failed: {e}"));
        assert_eq!(
            via_process.result, in_memory.result,
            "{name}: process transport diverged under the scan oracle"
        );
        assert_eq!(
            via_socket.result, in_memory.result,
            "{name}: socket transport diverged under the scan oracle"
        );
    }
}

#[test]
fn multi_round_wire_runs_honor_the_coordinators_join_strategy() {
    // The multi-round engine forwards its options into every round's
    // transport calls — including delta rounds of an incremental run:
    // scan-oracle rounds on either transport, against the fixpoint the
    // triejoin computes centrally.
    let options = EvalOptions::ScanOracle;
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 43);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    for semi_naive in [false, true] {
        let build_engine = || {
            MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                .rounds(6)
                .feedback_into("R")
                .semi_naive(semi_naive)
                .eval_options(options)
        };
        let in_memory = build_engine().evaluate(&query, &instance);
        let mut process = spawn_transport(2);
        let via_process = build_engine()
            .evaluate_via(&mut process, &query, &instance)
            .unwrap();
        assert_eq!(
            via_process.result.to_string(),
            in_memory.result.to_string(),
            "semi_naive={semi_naive}: scan-oracle multi-round answers diverged"
        );
        assert_eq!(via_process.rounds_run(), in_memory.rounds_run());
        assert_eq!(
            in_memory.result,
            build_engine().reference_fixpoint(&query, &instance).result
        );
    }
}

// ---------------------------------------------------------------------------
// Multi-query runs: transferability-driven reshuffle elision must be
// answer-invisible against the reshuffle-always baseline, on every named
// query sequence, every transport, in full and semi-naive mode.
// ---------------------------------------------------------------------------

/// One instance covering every relation any query of the sequence reads:
/// the union of per-query generations under one seed, so shared relations
/// get identical facts.
fn instance_for_sequence(queries: &[ConjunctiveQuery], seed: u64) -> Instance {
    let mut all = Instance::new();
    for query in queries {
        all = all.union(&instance_for(query, seed));
    }
    all
}

#[test]
fn multi_query_elision_matches_reshuffle_always_on_all_sequences_and_transports() {
    let mut process = spawn_transport(2);
    let mut socket = spawn_workers(SOCKETS, 2);
    for name in query_sequence_names() {
        let queries = named_query_sequence(name).unwrap();
        let instance = instance_for_sequence(&queries, 19);
        let policy = workloads::total_broadcast_policy(3).unwrap();
        for semi_naive in [false, true] {
            let build = |reshuffle_always: bool| {
                MultiRoundEngine::new(RoundSchedule::repeat(&policy))
                    .rounds(4)
                    .semi_naive(semi_naive)
                    .reshuffle_always(reshuffle_always)
            };
            let mut cache = TransferCache::new();

            let baseline = build(true)
                .evaluate_queries(&queries, &instance, &mut |p, q| cache.transfers(p, q));
            let elided_memory = build(false)
                .evaluate_queries(&queries, &instance, &mut |p, q| cache.transfers(p, q));
            let baseline_process = build(true)
                .evaluate_queries_via(&mut process, &queries, &instance, &mut |p, q| {
                    cache.transfers(p, q)
                })
                .unwrap_or_else(|e| panic!("{name}: process baseline failed: {e}"));
            let elided_process = build(false)
                .evaluate_queries_via(&mut process, &queries, &instance, &mut |p, q| {
                    cache.transfers(p, q)
                })
                .unwrap_or_else(|e| panic!("{name}: process transport failed: {e}"));
            let elided_socket = build(false)
                .evaluate_queries_via(&mut socket, &queries, &instance, &mut |p, q| {
                    cache.transfers(p, q)
                })
                .unwrap_or_else(|e| panic!("{name}: socket transport failed: {e}"));

            // Every named sequence contains a transferring pair, so the
            // engine must actually elide — otherwise this differential
            // silently compares reshuffle-always to itself.
            assert_eq!(baseline.elided_reshuffles(), 0, "{name}");
            assert!(
                elided_memory.elided_reshuffles() >= 1,
                "{name} semi_naive={semi_naive}: no reshuffle was elided"
            );
            assert!(
                elided_memory.total_comm_volume() < baseline.total_comm_volume(),
                "{name} semi_naive={semi_naive}: elision did not reduce comm volume \
                 ({} vs {})",
                elided_memory.total_comm_volume(),
                baseline.total_comm_volume()
            );

            for (i, (b, e)) in baseline
                .per_query
                .iter()
                .zip(&elided_memory.per_query)
                .enumerate()
            {
                assert_eq!(
                    e.result.to_string(),
                    b.result.to_string(),
                    "{name}[{i}] semi_naive={semi_naive}: elided answers diverged"
                );
                assert_eq!(
                    e.final_state, b.final_state,
                    "{name}[{i}] semi_naive={semi_naive}"
                );
                assert_eq!(e.converged, b.converged, "{name}[{i}]");
            }
            for (label, run) in [("process", &elided_process), ("socket", &elided_socket)] {
                assert_eq!(
                    run.elided_reshuffles(),
                    elided_memory.elided_reshuffles(),
                    "{name}/{label} semi_naive={semi_naive}: elision decisions diverged"
                );
                assert_eq!(
                    run.transfer_checks, elided_memory.transfer_checks,
                    "{name}/{label}"
                );
                for (i, (m, w)) in elided_memory
                    .per_query
                    .iter()
                    .zip(&run.per_query)
                    .enumerate()
                {
                    assert_eq!(
                        w.result.to_string(),
                        m.result.to_string(),
                        "{name}[{i}]/{label} semi_naive={semi_naive}: wire answers diverged"
                    );
                }
            }
            // The headline saving, measured on real serialized frames: the
            // elided run ships strictly fewer bytes than the baseline.
            assert!(
                elided_process.total_comm_bytes() < baseline_process.total_comm_bytes(),
                "{name} semi_naive={semi_naive}: elision shipped {} bytes, baseline {}",
                elided_process.total_comm_bytes(),
                baseline_process.total_comm_bytes()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fault tolerance: a worker dying mid-round must not lose the round.
// ---------------------------------------------------------------------------

/// Argument lists for a pool whose worker 0 dies after `fail_after` eval
/// jobs (the others run normally).
fn faulty_argv(workers: usize, fail_after: u64) -> Vec<Vec<String>> {
    (0..workers)
        .map(|i| {
            if i == 0 {
                vec![
                    "worker".to_string(),
                    "--fail-after".to_string(),
                    fail_after.to_string(),
                ]
            } else {
                vec!["worker".to_string()]
            }
        })
        .collect()
}

#[test]
fn full_mode_round_survives_a_worker_dying_mid_round() {
    // Six round-robin nodes across three workers; worker 0 dies on its
    // second job. The round must complete via requeue with the result of a
    // healthy run, and the pool must visibly have lost a worker (proving
    // the fault fired rather than the test silently passing).
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let network = Network::with_size(6);
    let policy = ExplicitPolicy::round_robin(&network, &instance);
    let engine = OneRoundEngine::new(&policy);
    let in_memory = engine.evaluate(&query, &instance);

    for (label, spawn) in [("pipes", PIPES), ("sockets", SOCKETS)] {
        let mut t = spawn(&worker_binary(), &faulty_argv(3, 1)).unwrap();
        let before = t.alive_workers();
        let outcome = engine
            .evaluate_via(&mut t, 0, &query, &instance)
            .unwrap_or_else(|e| panic!("{label}: round did not survive: {e}"));
        assert_eq!(
            outcome.result, in_memory.result,
            "{label}: requeued round diverged"
        );
        assert_eq!(before, 3, "{label}");
        assert!(
            t.alive_workers() < before,
            "{label}: no worker died — the fault injection never fired"
        );
    }
}

#[test]
fn semi_naive_run_rebuilds_dead_workers_state_on_survivors() {
    // The hard path: the dead worker held per-node incremental state. The
    // coordinator must re-ship the node's full accumulated input as a
    // round-0 rebuild on a survivor, and the run must still converge to
    // the same fixpoint as the in-memory reference — including rounds
    // *after* the death, which exercise the needs_rebuild bookkeeping.
    let query = named_query("chain:2").unwrap();
    // A 12-edge path on top of the random edges keeps the closure going
    // for five rounds, so a worker can also die *after* round 1.
    let path: String = (0..12).map(|i| format!("R(p{i}, p{}). ", i + 1)).collect();
    let instance = instance_for(&query, 23).union(&pcq::cq::parse_instance(&path).unwrap());
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let build_engine = || {
        MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(8)
            .feedback_into("R")
            .semi_naive(true)
    };
    let reference = build_engine().evaluate(&query, &instance);
    assert!(reference.rounds_run() > 3, "need rounds after the death");

    // Worker 0 dies on its second job (mid round 0: the ledger holds only
    // the round-0 chunks it shares with the queued jobs), or on its ninth —
    // round 0 ships it four jobs and round 1 at most four more, so by then
    // a round-1 delta has extended the shared ledger entries in place and
    // the rebuild must ship that accumulated state.
    for (label, spawn) in [("pipes", PIPES), ("sockets", SOCKETS)] {
        for fail_after in [1, 8] {
            let mut t = spawn(&worker_binary(), &faulty_argv(2, fail_after)).unwrap();
            let label = format!("{label}, death on job {}", fail_after + 1);
            let outcome = build_engine()
                .evaluate_via(&mut t, &query, &instance)
                .unwrap_or_else(|e| panic!("{label}: run did not survive: {e}"));
            assert_eq!(
                outcome.result.to_string(),
                reference.result.to_string(),
                "{label}: post-fault fixpoint diverged"
            );
            assert_eq!(outcome.converged, reference.converged, "{label}");
            assert!(
                t.alive_workers() < t.worker_count(),
                "{label}: no worker died — the fault injection never fired"
            );
        }
    }
}

#[test]
fn with_fault_tolerance_off_a_worker_death_is_a_clean_error() {
    // No panic, no hang: the engine surfaces the first failure as a
    // TransportError and the transport still drops promptly.
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let network = Network::with_size(6);
    let policy = ExplicitPolicy::round_robin(&network, &instance);
    let engine = OneRoundEngine::new(&policy);

    for (label, spawn) in [("pipes", PIPES), ("sockets", SOCKETS)] {
        let mut t = spawn(&worker_binary(), &faulty_argv(2, 0))
            .unwrap()
            .fault_tolerance(false);
        let err = engine
            .evaluate_via(&mut t, 0, &query, &instance)
            .expect_err("a dead worker without fault tolerance must error");
        match err {
            TransportError::Io(_) | TransportError::Protocol(_) => {}
            other => panic!("{label}: unexpected error kind: {other:?}"),
        }
    }
}

#[test]
fn dropping_a_transport_with_a_wedged_worker_is_bounded() {
    // `sleep 30` never speaks the protocol and ignores Shutdown; the old
    // Drop would block in child.wait() for the full 30 seconds. The
    // bounded grace must kill it quickly instead.
    let transport = WireTransport::spawn_pipes(Path::new("sleep"), &[vec!["30".to_string()]])
        .unwrap()
        .shutdown_grace(std::time::Duration::from_millis(250));
    let start = std::time::Instant::now();
    drop(transport);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "drop took {:?} — the shutdown grace is not bounding the wait",
        start.elapsed()
    );
}

/// The fast twin of the test above: workers that do exit on `Shutdown` are
/// found gone by a poll schedule that starts at 100 µs, not after a fixed
/// 10 ms sleep — the drop sits on every wire run's blocking path (the CLI
/// drops its transport before the verify). Counted in polls, not wall time:
/// the schedule is pinned by `wire`'s `poll_backoff_…` unit test, under
/// which five sleeps total 3.1 ms.
#[test]
fn dropping_a_transport_whose_workers_exit_on_shutdown_polls_briefly() {
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 5);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    for spawn in [PIPES, SOCKETS] {
        // A busy test machine can hold up a worker's exit; the property is
        // the schedule's, so one undisturbed attempt shows it.
        let polls: Vec<u64> = (0..3)
            .map(|_| {
                let mut transport = spawn_workers(spawn, 2);
                OneRoundEngine::new(&policy)
                    .evaluate_via(&mut transport, 0, &query, &instance)
                    .expect("the workers serve a round before shutting down");
                let registry = transport.metrics_registry();
                drop(transport);
                registry.counter_value("shutdown_polls")
            })
            .collect();
        assert!(
            polls.iter().any(|&polls| polls <= 5),
            "reaping two exiting workers slept {polls:?} times"
        );
    }
}

// ---------------------------------------------------------------------------
// Shipment conformance: every transport hands its shipments to the one
// `NodeState::apply`, so the node-state rule must read the same through all
// of them.
// ---------------------------------------------------------------------------

#[test]
fn every_transport_applies_shipments_by_the_same_node_state_rule() {
    let two_hop = ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap();
    let facts = |text: &str| Arc::new(cq::parse_instance(text).unwrap());
    let full = |text: &str| Shipment::Full(facts(text));
    let delta = |text: &str| Shipment::Delta(facts(text));
    let (n0, n7) = (Node::numbered(0), Node::numbered(7));
    // (what the step shows, round, node, shipment, expected output)
    let script = [
        (
            "a full chunk is evaluated",
            0,
            n0,
            full("R(a, b). S(b, c)."),
            "T(a, c).",
        ),
        (
            "a resident round sees the same shard",
            0,
            n0,
            Shipment::Resident,
            "T(a, c).",
        ),
        (
            "a round-0 delta resets the node",
            0,
            n0,
            delta("R(a, b)."),
            "",
        ),
        (
            "a later delta joins against retained state",
            1,
            n0,
            delta("S(b, c)."),
            "T(a, c).",
        ),
        (
            "a re-announced delta derives nothing",
            2,
            n0,
            delta("R(a, b)."),
            "",
        ),
        (
            "a resident round sees the accumulated state",
            0,
            n0,
            Shipment::Resident,
            "T(a, c).",
        ),
        (
            "a full chunk supersedes the delta state",
            3,
            n0,
            full("R(a, b)."),
            "",
        ),
        (
            "the superseded state is gone",
            0,
            n0,
            Shipment::Resident,
            "",
        ),
        (
            "a never-shipped node holds nothing",
            0,
            n7,
            Shipment::Resident,
            "",
        ),
    ];
    let transports: [(&str, Box<dyn Transport>); 3] = [
        ("memory", Box::new(InMemoryTransport::new(2))),
        ("pipes", Box::new(spawn_workers(PIPES, 2))),
        ("sockets", Box::new(spawn_workers(SOCKETS, 2))),
    ];
    for (label, mut transport) in transports {
        assert!(
            matches!(transport.barrier(), Err(TransportError::Protocol(_))),
            "{label}: a barrier before begin_round is a protocol error"
        );
        for (what, round, node, shipment, expected) in script.clone() {
            transport
                .begin_round(round, &two_hop, EvalOptions::default())
                .unwrap();
            transport.send(node, shipment).unwrap();
            transport.barrier().unwrap();
            assert_eq!(
                transport.recv(node).unwrap().output,
                *facts(expected),
                "{label}: {what}"
            );
            assert!(
                matches!(transport.recv(node), Err(TransportError::UnknownNode(n)) if n == node),
                "{label}: a result can be received only once"
            );
        }
    }
}
