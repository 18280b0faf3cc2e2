//! Trace correctness across the whole stack: spans must nest, timelines
//! from coordinator and workers must merge into one coherent, time-ordered
//! trace on every transport (including a fault-injected run), the Chrome
//! export must round-trip, and the metrics registry must agree with what
//! the trace records.
//!
//! The span recorder is process-global, so every test that runs an engine in
//! this process serializes on [`TRACE_GATE`] — an untraced run's spans would
//! otherwise land in whichever trace is being recorded at the time.

use pcq::obs;
use pcq::prelude::*;
use pcq::wire::trace_export;
use std::path::PathBuf;
use std::sync::Mutex;

static TRACE_GATE: Mutex<()> = Mutex::new(());

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pcq-analyze"))
}

/// Argument lists for a worker pool whose worker 0 dies after
/// `fail_after` eval jobs.
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

/// Runs `f` under an active trace with a `"run"` root span and returns
/// its result together with the merged timeline.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<obs::TraceEvent>) {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::start_trace();
    let result = {
        let _root = obs::span!("run");
        f()
    };
    (result, obs::end_trace())
}

fn names(events: &[obs::TraceEvent]) -> Vec<&str> {
    events.iter().map(|e| e.name.as_str()).collect()
}

fn assert_time_ordered(events: &[obs::TraceEvent]) {
    assert!(
        events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
        "merged timeline is not time-ordered"
    );
}

#[test]
fn in_memory_trace_nests_rounds_under_the_root_span() {
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
        .rounds(6)
        .workers(2)
        .feedback_into("R");

    let (outcome, events) = traced(|| engine.evaluate(&query, &instance));
    assert!(outcome.converged);
    assert!(!events.is_empty(), "a traced run must record events");
    assert_time_ordered(&events);
    trace_export::check_well_formed(&events).unwrap();
    assert!(
        events.iter().all(|e| e.pid == 0),
        "an in-memory run has exactly one process lane"
    );

    let root = events.iter().find(|e| e.name == "run").expect("root span");
    let rounds: Vec<_> = events.iter().filter(|e| e.name == "eval_round").collect();
    assert!(rounds.len() >= 2, "feedback run must trace several rounds");
    for round in &rounds {
        assert_eq!(
            round.parent, root.id,
            "every round span nests directly under the root"
        );
    }
    let all = names(&events);
    for expected in ["distribute", "eval_chunk", "evaluate"] {
        assert!(all.contains(&expected), "missing {expected} span: {all:?}");
    }
}

#[test]
fn evaluate_done_reports_derivations_against_distinct_answers() {
    // The join layer's "useful outcomes per attempt": the two-path query
    // over the transitive tournament on 6 values has C(6, 3) = 20
    // satisfying valuations for 10 distinct answers; the differential step
    // with everything new derives each through both pivots.
    let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let instance = Instance::from_facts((0..6).flat_map(|i| {
        (i + 1..6)
            .map(move |j| Fact::new("R", vec![Value::indexed("v", i), Value::indexed("v", j)]))
    }));
    let (_, events) = traced(|| {
        let _ = cq::evaluate(&query, &instance);
        cq::evaluate_seminaive_step(&query, &instance, &instance)
    });
    let reported: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.name == "evaluate_done")
        .map(|e| {
            assert_eq!(e.kind, obs::EventKind::Instant);
            let arg = |key: &str| {
                let (_, value) = e.args.iter().find(|(k, _)| k == key).expect(key);
                value.parse().expect("a count")
            };
            (arg("valuations"), arg("answers"))
        })
        .collect();
    assert_eq!(reported, [(20, 10), (40, 10)]);
}

#[test]
fn join_spans_name_the_kernel_that_runs() {
    // One indexed kernel runs full evaluations and the differential passes
    // of a semi-naive round alike, cyclic query or not; the scan oracle is
    // named when it is asked for. `trace diff` attributes time by these
    // labels.
    let query = ConjunctiveQuery::parse("T(x, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let instance = cq::parse_instance("E(a,b). E(b,c). E(c,a). E(c,d). E(d,a).").unwrap();
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
        .rounds(3)
        .feedback_into("E")
        .semi_naive(true);
    let chain = ConjunctiveQuery::parse("T(x, z) :- E(x, y), E(y, z).").unwrap();
    let (_, events) = traced(|| {
        let _ = cq::evaluate(&query, &instance);
        let _ = cq::evaluate(&chain, &instance);
        let _ = cq::evaluate_with(&chain, &instance, EvalOptions::ScanOracle);
        engine.evaluate(&query, &instance)
    });
    let strategies = |span: &str| -> Vec<&str> {
        let spans = events.iter().filter(|e| e.name == span);
        spans
            .map(|e| {
                let (_, strategy) = e.args.iter().find(|(k, _)| k == "strategy").unwrap();
                strategy.as_str()
            })
            .collect()
    };
    assert_eq!(
        strategies("evaluate")[..3],
        ["multiway", "multiway", "binary"]
    );
    let steps = strategies("seminaive_step");
    assert!(!steps.is_empty() && steps.iter().all(|&strategy| strategy == "multiway"));
}

#[test]
fn decisions_trace_their_span_and_how_minimality_was_asked() {
    // `pc_check` / `transfer_check` bracket the two decision procedures, and
    // each leaves one `minimality_stats` instant inside its span: the
    // 2-path over the complete relation on 3 values has 27 candidate
    // valuations of Bell(3) = 5 equality types, all minimal; the (C2) search
    // never asks by type.
    let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let universe = workloads::complete_binary_relation("R", &["a", "b", "c"]);
    let policy = ExplicitPolicy::broadcast(&Network::with_size(2), &universe);
    let ((pc, transfer), events) = traced(|| {
        (
            pcq::pc_core::check_parallel_correctness(&query, &policy),
            pcq::pc_core::check_transfer(&query, &query),
        )
    });
    assert!(pc.is_correct() && transfer.transfers());
    trace_export::check_well_formed(&events).unwrap();

    let stats: Vec<_> = events
        .iter()
        .filter(|e| e.name == "minimality_stats")
        .map(|e| {
            assert_eq!(e.kind, obs::EventKind::Instant);
            let is_parent =
                |s: &&obs::TraceEvent| s.kind == obs::EventKind::Span && s.id == e.parent;
            let parent = events.iter().find(is_parent).expect("an enclosing span");
            let arg = |key: &str| -> u64 {
                let (_, value) = e.args.iter().find(|(k, _)| k == key).expect(key);
                value.parse().expect("a count")
            };
            let counts = ["asks", "by_type", "searched", "minimal"].map(arg);
            (parent.name.as_str(), counts)
        })
        .collect();
    let asked = transfer.cache_stats().misses;
    assert_eq!(stats[0], ("pc_check", [27, 22, 5, 27]));
    assert_eq!(stats[1].0, "transfer_check");
    assert_eq!(stats[1].1[..3], [asked, 0, asked]);
    assert_eq!(stats.len(), 2);

    // `trace summarize` rolls the spans up as phases and lists the instant.
    let summary = trace_export::TraceSummary::from_events(&events).to_string();
    for name in ["pc_check", "transfer_check", "minimality_stats"] {
        assert!(summary.contains(name), "{name} missing from:\n{summary}");
    }
}

#[test]
fn process_transport_merges_worker_timelines_into_the_coordinator_trace() {
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let build_engine = || {
        MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(6)
            .feedback_into("R")
    };
    let reference = build_engine().evaluate(&query, &instance);

    let healthy = vec![vec!["worker".to_string()]; 2];
    let mut transport = WireTransport::spawn_pipes(&worker_binary(), &healthy).unwrap();
    let (outcome, events) =
        traced(|| build_engine().evaluate_via(&mut transport, &query, &instance));
    let outcome = outcome.unwrap();
    assert_eq!(outcome.result, reference.result);

    assert_time_ordered(&events);
    trace_export::check_well_formed(&events).unwrap();
    let mut pids: Vec<u32> = events.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(
        pids,
        vec![0, 1, 2],
        "the merged trace must contain the coordinator and both workers"
    );
    // Worker lanes carry the worker-side evaluation spans, and each one
    // links back to a coordinator span (well-formedness already resolved
    // the parent; pin the cross-process shape explicitly).
    let coordinator_spans: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.pid == 0 && e.kind == obs::EventKind::Span)
        .map(|e| e.id)
        .collect();
    let worker_events: Vec<_> = events.iter().filter(|e| e.pid > 0).collect();
    assert!(!worker_events.is_empty());
    let mut cross_process_links = 0;
    for event in &worker_events {
        if coordinator_spans.contains(&event.parent) {
            // The top of each worker lane: the shipped trace context makes
            // the worker's decode and evaluation spans children of the
            // coordinator span that sent the job.
            assert!(
                event.name.starts_with("worker_eval") || event.name == "worker_decode",
                "unexpected worker-side root event {}",
                event.name
            );
            cross_process_links += 1;
        }
    }
    assert!(
        cross_process_links >= 2,
        "worker spans must link under coordinator spans across the process boundary"
    );
    // The codec is on the timeline too: one decode span per eval frame on
    // the workers — the first one included, though it was decoded before
    // the worker knew of the trace — saying what it decoded, and the
    // coordinator's encode and reply-decode spans around them.
    let named = |name: &str| events.iter().filter(|e| e.name == name).collect::<Vec<_>>();
    let evals = events
        .iter()
        .filter(|e| e.name.starts_with("worker_eval"))
        .count();
    let decodes = named("worker_decode");
    assert_eq!(decodes.len(), evals);
    for decode in &decodes {
        assert!(decode.pid > 0);
        let keys: Vec<&str> = decode.args.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["node", "facts", "bytes"]);
    }
    assert_eq!(named("wire_encode").len(), evals);
    assert!(named("wire_encode").iter().all(|e| e.pid == 0));
    assert!(named("reply_decode").len() >= evals);
}

#[test]
fn fault_injected_socket_trace_records_requeues_and_registry_agrees() {
    // Worker 0 dies after its first job; the trace must show the death
    // and the requeues, and the metrics registry — the single source of
    // truth behind those counters — must report exactly what the trace
    // recorded.
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let network = Network::with_size(6);
    let policy = ExplicitPolicy::round_robin(&network, &instance);
    let engine = OneRoundEngine::new(&policy);
    let reference = engine.evaluate(&query, &instance);

    let mut transport = WireTransport::spawn_sockets(&worker_binary(), &faulty_argv(3, 1)).unwrap();
    let (outcome, events) = traced(|| engine.evaluate_via(&mut transport, 0, &query, &instance));
    let outcome = outcome.expect("round must survive the death");
    assert_eq!(outcome.result, reference.result);
    assert!(transport.alive_workers() < 3, "the fault never fired");

    assert_time_ordered(&events);
    trace_export::check_well_formed(&events).unwrap();
    let deaths = events.iter().filter(|e| e.name == "worker_dead").count() as u64;
    let requeues = events.iter().filter(|e| e.name == "requeue").count() as u64;
    assert!(
        deaths >= 1,
        "no worker_dead instant in {:?}",
        names(&events)
    );
    assert!(requeues >= 1, "no requeue instant in {:?}", names(&events));

    let registry = transport.metrics_registry();
    assert_eq!(registry.counter_value("worker_deaths"), deaths);
    assert_eq!(registry.counter_value("driver_requeues"), requeues);
}

#[test]
fn chrome_export_of_a_live_run_round_trips_and_summarizes() {
    let query = named_query("triangle").unwrap();
    let instance = instance_for(&query, 7);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let engine = OneRoundEngine::new(&policy).workers(2);

    let (_, events) = traced(|| engine.evaluate(&query, &instance));
    let doc = trace_export::chrome_trace(&events).to_string();
    let parsed = trace_export::parse_chrome_trace(&doc).unwrap();
    assert_eq!(parsed, events, "Chrome export must round-trip losslessly");

    let summary = trace_export::TraceSummary::from_events(&events);
    assert_eq!(summary.events, events.len() as u64);
    let spans = events
        .iter()
        .filter(|e| e.kind == obs::EventKind::Span)
        .count() as u64;
    assert_eq!(
        summary.processes.values().map(|p| p.spans).sum::<u64>(),
        spans
    );
    assert_eq!(
        summary.rounds.len(),
        1,
        "one-round run, one critical-path row"
    );
}

#[test]
fn a_dead_workers_stderr_surfaces_in_the_transport_error() {
    // Without fault tolerance a death is a clean error — and since the
    // worker is a spawned child, its last words must ride along instead
    // of vanishing with the process.
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let network = Network::with_size(6);
    let policy = ExplicitPolicy::round_robin(&network, &instance);
    let engine = OneRoundEngine::new(&policy);

    for spawn in [WireTransport::spawn_pipes, WireTransport::spawn_sockets] {
        let mut transport = spawn(&worker_binary(), &faulty_argv(2, 0))
            .unwrap()
            .fault_tolerance(false);
        let err = engine
            .evaluate_via(&mut transport, 0, &query, &instance)
            .expect_err("a dead worker without fault tolerance must error")
            .to_string();
        assert!(err.contains("worker stderr"), "no stderr tail in: {err}");
        assert!(err.contains("injected fault"), "tail lost the cause: {err}");
    }
}

#[test]
fn round_latency_quantiles_in_the_export_match_the_registry_exactly() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
        .rounds(6)
        .feedback_into("R");
    let outcome = engine.evaluate(&query, &instance);
    assert!(outcome.rounds_run() >= 2, "need several rounds of latency");

    let registry = engine.registry();
    let snapshot = registry.histogram("round_latency_us").snapshot();
    assert_eq!(
        snapshot.count,
        outcome.rounds_run() as u64,
        "one latency sample per executed round"
    );
    assert!(snapshot.p50 <= snapshot.p90);
    assert!(snapshot.p90 <= snapshot.p99);
    assert!(snapshot.p99 <= snapshot.max);
    assert!(snapshot.min <= snapshot.p50);

    // The wire export must carry the registry's quantiles bit-for-bit —
    // the pinned contract behind the `counters` and `histograms` blocks of
    // `run --json`.
    let doc = pcq::wire::registry_json(&registry);
    let exported = doc
        .get("histograms")
        .and_then(|h| h.get("round_latency_us"))
        .expect("export must carry round_latency_us");
    for (key, value) in [
        ("count", snapshot.count),
        ("sum", snapshot.sum),
        ("min", snapshot.min),
        ("max", snapshot.max),
        ("p50", snapshot.p50),
        ("p90", snapshot.p90),
        ("p99", snapshot.p99),
    ] {
        assert_eq!(
            exported.get(key),
            Some(&JsonValue::from(value)),
            "exported {key} must equal the registry snapshot"
        );
    }
}

#[test]
fn cli_trace_diff_catches_an_injected_worker_slowdown() {
    // The acceptance scenario: trace the same process-transport run twice,
    // the second time with every worker slowed by 5ms per eval job.
    // `trace diff --threshold 25` must flag the slow run (exit 1) and name
    // the worker evaluation phase as the cause, while diffing a run
    // against itself stays clean (exit 0).
    use std::process::Command;

    let dir = std::env::temp_dir();
    let base = dir.join(format!("pcq-diff-base-{}.json", std::process::id()));
    let slow = dir.join(format!("pcq-diff-slow-{}.json", std::process::id()));
    let run = |trace: &PathBuf, extra: &[&str]| {
        let mut args = vec![
            "run",
            "T(x, z) :- R(x, y), R(y, z).",
            "hypercube:4",
            "random:20:300:7",
            "--workers",
            "2",
            "--transport",
            "process",
            "--trace",
            trace.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let output = Command::new(worker_binary()).args(&args).output().unwrap();
        assert!(
            output.status.success(),
            "traced run failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run(&base, &[]);
    run(&slow, &["--slow-eval-us", "5000"]);

    let diff = |a: &PathBuf, b: &PathBuf| {
        let output = Command::new(worker_binary())
            .args([
                "trace",
                "diff",
                a.to_str().unwrap(),
                b.to_str().unwrap(),
                "--threshold",
                "25",
            ])
            .output()
            .unwrap();
        (
            output.status.code().unwrap(),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        )
    };

    let (code, report) = diff(&base, &slow);
    assert_eq!(code, 1, "the slowed run must register as a regression");
    assert!(
        report.contains("worker_eval_chunk"),
        "the diff must name the slowed phase: {report}"
    );
    assert!(
        report.contains("REGRESSION"),
        "no regression line: {report}"
    );

    let (code, report) = diff(&base, &base);
    assert_eq!(code, 0, "a trace diffed against itself must be clean");
    assert!(report.contains("clean"), "no clean verdict: {report}");

    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(slow);
}

#[test]
fn cli_traced_socket_multi_query_run_produces_one_valid_merged_trace() {
    // The acceptance scenario end to end: a multi-query scenario over the
    // socket transport with --trace must yield a single Chrome-trace JSON
    // containing coordinator and every worker's spans, and `trace
    // summarize` must accept it.
    use std::process::Command;

    let dir = std::env::temp_dir();
    let scenario = dir.join(format!("pcq-trace-{}.pcq", std::process::id()));
    let trace = dir.join(format!("pcq-trace-{}.json", std::process::id()));
    std::fs::write(
        &scenario,
        "queries {\n  T(x, z) :- R(x, y), R(y, z).\n  T(x, z) :- R(x, y), R(y, z).\n}\n\
         instance { R(a, b). R(b, c). R(c, a). R(b, a). }\nschedule hash(2)\nrounds 3\n",
    )
    .unwrap();

    let run = Command::new(worker_binary())
        .args([
            "run",
            "--scenario",
            scenario.to_str().unwrap(),
            "--transport",
            "socket",
            "--workers",
            "2",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "traced run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let events = trace_export::parse_chrome_trace(&text).unwrap();
    trace_export::check_well_formed(&events).unwrap();
    let mut pids: Vec<u32> = events.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(
        pids,
        vec![0, 1, 2],
        "trace must merge the coordinator and both workers"
    );
    assert!(events.iter().any(|e| e.name == "query"));
    assert!(events.iter().any(|e| e.name == "transfer_check"));

    let summarize = Command::new(worker_binary())
        .args(["trace", "summarize", trace.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        summarize.status.success(),
        "summarize failed: {}",
        String::from_utf8_lossy(&summarize.stderr)
    );
    let doc = JsonValue::parse(&String::from_utf8_lossy(&summarize.stdout)).unwrap();
    assert!(doc.get("processes").is_some());

    let _ = std::fs::remove_file(scenario);
    let _ = std::fs::remove_file(trace);
}
