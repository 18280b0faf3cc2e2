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
use pcq::obs::trace_export;
use pcq::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static TRACE_GATE: Mutex<()> = Mutex::new(());

/// Held for a whole test, untraced reference runs included: a span such a
/// run opens while another test's trace is active and closes after it ends
/// would leave its children in that trace without their parent.
fn gate() -> MutexGuard<'static, ()> {
    TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

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
/// its result together with the merged timeline. The caller holds [`gate`].
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<obs::TraceEvent>) {
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
    let _gate = gate();
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
    // A feedback run's rounds ship deltas, and a node evaluates each by
    // one differential pass.
    for expected in ["distribute", "eval_delta", "seminaive_step"] {
        assert!(all.contains(&expected), "missing {expected} span: {all:?}");
    }
}

/// The value of `key` on the one span named `name` in `events`.
fn span_arg<'e>(events: &'e [obs::TraceEvent], name: &str, key: &str) -> &'e str {
    let spans: Vec<_> = events.iter().filter(|e| e.name == name).collect();
    assert_eq!(spans.len(), 1, "one {name} span");
    let (_, value) = spans[0].args.iter().find(|(k, _)| k == key).expect(key);
    value
}

#[test]
fn a_split_round_traces_its_parts_and_merges_only_home_answers() {
    let _gate = gate();
    // The triangle repeats `E`: its Hypercube round ships three atom parts,
    // and every answer is derived once, at its home node, so the merge
    // takes exactly the answers (the head is full).
    let triangle = named_query("triangle").unwrap();
    let instance = instance_for(&triangle, 5);
    let policy = HypercubePolicy::uniform(&triangle, 2).unwrap();
    let (outcome, events) = traced(|| OneRoundEngine::new(&policy).evaluate(&triangle, &instance));
    assert!(!outcome.result.is_empty());
    assert_eq!(span_arg(&events, "distribute", "parts"), "3");
    let merged = outcome.result.len().to_string();
    assert_eq!(span_arg(&events, "merge_results", "facts"), merged);
    assert_eq!(span_arg(&events, "merge_results", "distinct"), merged);
    // A self-join-free query's round stays plain.
    let join = ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), S(y, z).").unwrap();
    let instance = instance_for(&join, 5);
    let policy = HypercubePolicy::uniform(&join, 2).unwrap();
    let (outcome, events) = traced(|| OneRoundEngine::new(&policy).evaluate(&join, &instance));
    assert_eq!(span_arg(&events, "distribute", "parts"), "0");
    let answers: usize = outcome.per_node_output.values().sum();
    assert_eq!(
        span_arg(&events, "merge_results", "facts"),
        answers.to_string()
    );
    assert_eq!(
        span_arg(&events, "merge_results", "distinct"),
        outcome.result.len().to_string()
    );
}

/// What one `evaluate_done` reports.
#[derive(Debug)]
struct Done {
    valuations: u64,
    /// The runs of leaves the kernel handed over in one call.
    runs: u64,
    answers: u64,
    collector: String,
}

/// Every `evaluate_done` in `events`.
fn evaluations_done(events: &[obs::TraceEvent]) -> Vec<Done> {
    events
        .iter()
        .filter(|e| e.name == "evaluate_done")
        .map(|e| {
            assert_eq!(e.kind, obs::EventKind::Instant);
            let arg = |key: &str| {
                let (_, value) = e.args.iter().find(|(k, _)| k == key).expect(key);
                value.clone()
            };
            let count = |key: &str| arg(key).parse().expect("a count");
            Done {
                valuations: count("valuations"),
                runs: count("runs"),
                answers: count("answers"),
                collector: arg("collector"),
            }
        })
        .collect()
}

/// `instance` with every value replaced by the opaque value of its id, as
/// a worker holds it.
fn opaque(instance: &Instance) -> Instance {
    let opaque = |value: &Value| Value::opaque(value.id()).unwrap();
    instance
        .facts()
        .map(|fact| {
            Fact::new(
                fact.relation,
                fact.values.iter().map(opaque).collect::<Vec<_>>(),
            )
        })
        .collect()
}

#[test]
fn evaluate_done_reports_derivations_against_distinct_answers() {
    let _gate = gate();
    // The join layer's "useful outcomes per attempt": the two-path query
    // over the transitive tournament on 6 values has C(6, 3) = 20
    // satisfying valuations for 10 distinct answers; the differential step
    // with everything new derives each through both pivots. Six values
    // make a small id range, so both collect into a dense answer set. The
    // last variable is read straight off one atom's run, one run per
    // binding of the two before it: `(y, x)` with `y` in 1..=4 for the
    // whole search and for the pivot on `R(x, y)`, `(y, z)` for the pivot
    // on `R(y, z)`, ten each.
    let two_path = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let edges = |pairs: &mut dyn Iterator<Item = (usize, usize)>| {
        Instance::from_facts(
            pairs
                .map(|(i, j)| Fact::new("R", vec![Value::indexed("v", i), Value::indexed("v", j)])),
        )
    };
    let tournament = edges(&mut (0..6).flat_map(|i| (i + 1..6).map(move |j| (i, j))));
    let (_, events) = traced(|| {
        let _ = cq::evaluate(&two_path, &tournament);
        cq::evaluate_seminaive_step(&two_path, &tournament, &tournament)
    });
    let reported = evaluations_done(&events);
    let counts: Vec<(u64, u64, u64)> = reported
        .iter()
        .map(|done| (done.valuations, done.runs, done.answers))
        .collect();
    assert_eq!(counts, [(20, 10, 10), (40, 20, 10)]);
    assert!(
        reported.iter().all(|done| done.collector == "dense"),
        "{reported:?}"
    );

    // The benchmark's closure and relax inputs, in small: a path with
    // skip-one chords under the two-path query, evaluated whole and by a
    // differential step; and a digraph of out-degree 3 with every third
    // value looped, under the relax queries. Both have few values.
    let closure = edges(
        &mut (0..39)
            .map(|i| (i, i + 1))
            .chain((0..38).step_by(3).map(|i| (i, i + 2))),
    );
    let relax = edges(
        &mut (0..30)
            .flat_map(|i| (1..4).map(move |k| (i, (7 * i + k) % 30)))
            .chain((0..30).step_by(3).map(|i| (i, i))),
    );
    let loop_query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(y, y).").unwrap();
    let (_, events) = traced(|| {
        let _ = cq::evaluate(&two_path, &closure);
        let _ = cq::evaluate_seminaive_step(&two_path, &closure, &closure);
        let _ = cq::evaluate(&loop_query, &relax);
        cq::evaluate(&two_path, &relax)
    });
    let reported = evaluations_done(&events);
    assert_eq!(reported.len(), 4);
    for done in &reported {
        assert_eq!(done.collector, "dense", "{reported:?}");
        assert!(
            done.valuations >= done.answers && done.answers > 0 && done.runs > 0,
            "{reported:?}"
        );
    }

    // Runs whose variable is outside the head, the head's first value, its
    // second, both of its values, and one value of a full head (collected
    // with no set): on named and on opaque ids, whole and by every pivot of
    // a step, the answers are the scan oracle's and `valuations` is the
    // number of satisfying valuations the scan finds, summed over passes.
    let mut random = oracle::cases::Random(0x2015_0531);
    for text in [
        "T(y) :- R(x, y), R(y, z).",
        "T(z, x) :- R(x, y), R(y, z).",
        "T(x, z) :- R(x, y), R(y, z).",
        "T(y, y) :- R(x, y).",
        "T(y, x) :- R(x, y).",
    ] {
        let query = ConjunctiveQuery::parse(text).unwrap();
        let compiled = cq::CompiledQuery::new(&query);
        let mut facts = |count| {
            let text = oracle::cases::binary_facts(&mut random, false, count);
            cq::parse_instance(&text).unwrap()
        };
        let (old, delta) = (facts(300), facts(20));
        for (old, delta) in [(opaque(&old), opaque(&delta)), (old, delta)] {
            let full = old.union(&delta);
            let scanned = |pivot| {
                let mut leaves = 0;
                let _ = oracle::search(&compiled, &full, pivot, &Valuation::new(), |_| {
                    leaves += 1;
                    std::ops::ControlFlow::Continue(())
                });
                leaves
            };
            let pivots = 0..query.body_size();
            let step_valuations = pivots.map(|pivot| scanned(Some((pivot, &delta)))).sum();
            let ((whole, step), events) = traced(|| {
                let whole = cq::evaluate(&query, &full);
                (whole, cq::evaluate_seminaive_step(&query, &full, &delta))
            });
            assert_eq!(whole, oracle::evaluate(&query, &full), "{query}");
            assert_eq!(
                step,
                oracle::evaluate_seminaive_step(&query, &full, &delta),
                "{query}"
            );
            let reported = evaluations_done(&events);
            let counts: Vec<(u64, u64)> = reported
                .iter()
                .map(|done| (done.valuations, done.answers))
                .collect();
            let expected = [
                (scanned(None), whole.len() as u64),
                (step_valuations, step.len() as u64),
            ];
            assert_eq!(counts, expected, "{query} on {full}");
            assert!(reported.iter().all(|done| done.runs > 0), "{reported:?}");
        }
    }

    // 4 000 random facts over 50 000 values: the id range is far wider
    // than the rows, and the answers go through the hashed set.
    let sparse = named_instance("random:50000:4000:7", &two_path.schema()).unwrap();
    let (_, events) = traced(|| cq::evaluate(&two_path, &sparse));
    let reported = evaluations_done(&events);
    assert_eq!(reported.len(), 1);
    assert_eq!(reported[0].collector, "hashed", "{reported:?}");
}

#[test]
fn join_spans_name_the_kernel_that_runs() {
    let _gate = gate();
    // One indexed kernel runs full evaluations and the differential passes
    // of a semi-naive round alike, cyclic query or not, and the scan oracle
    // is not in the program: so no join span names a kernel.
    let query = ConjunctiveQuery::parse("T(x, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let instance = cq::parse_instance("E(a,b). E(b,c). E(c,a). E(c,d). E(d,a).").unwrap();
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
        .rounds(3)
        .feedback_into("E");
    let chain = ConjunctiveQuery::parse("T(x, z) :- E(x, y), E(y, z).").unwrap();
    let (_, events) = traced(|| {
        let _ = cq::evaluate(&query, &instance);
        let _ = cq::evaluate(&chain, &instance);
        engine.evaluate(&query, &instance)
    });
    for span in ["evaluate", "seminaive_step"] {
        let spans: Vec<_> = events.iter().filter(|e| e.name == span).collect();
        assert!(spans.len() >= 2, "{span}: {} spans", spans.len());
        for event in spans {
            let keys: Vec<&str> = event.args.iter().map(|(key, _)| key.as_str()).collect();
            assert!(
                !keys.contains(&"strategy"),
                "{span} names a kernel: {keys:?}"
            );
        }
    }
}

#[test]
fn decisions_trace_their_span_and_how_minimality_was_asked() {
    let _gate = gate();
    // `pc_check` / `transfer_check` bracket the two decision procedures, and
    // each leaves one `minimality_stats` instant inside its span: the
    // 2-path over the complete relation on 3 values has 27 candidate
    // valuations of Bell(3) = 5 equality types, all minimal. (C1) asks only
    // about candidates whose facts do not meet: none under broadcast; under
    // round-robin over 9 nodes the first candidate requires one fact and
    // meets, the second does not and is the witness. The (C2) search never
    // asks by type.
    let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let universe = workloads::complete_binary_relation("R", &["a", "b", "c"]);
    let broadcast = ExplicitPolicy::broadcast(&Network::with_size(2), &universe);
    let split = ExplicitPolicy::round_robin(&Network::with_size(9), &universe);
    let ((pc, pc_split, transfer), events) = traced(|| {
        (
            pcq::pc_core::check_parallel_correctness(&query, &broadcast),
            pcq::pc_core::check_parallel_correctness(&query, &split),
            pcq::pc_core::check_transfer(&query, &query),
        )
    });
    assert!(pc.is_correct() && !pc_split.is_correct() && transfer.transfers());
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
            let counts = ["candidates", "asks", "by_type", "searched", "minimal"].map(arg);
            (parent.name.as_str(), counts)
        })
        .collect();
    let asked = transfer.cache_stats().misses;
    assert_eq!(stats[0], ("pc_check", [27, 0, 0, 0, 0]));
    assert_eq!(stats[1], ("pc_check", [2, 1, 0, 1, 1]));
    assert_eq!(stats[2].0, "transfer_check");
    assert_eq!(stats[2].1[..4], [asked, asked, 0, asked]);
    assert_eq!(stats.len(), 3);

    // `trace summarize` rolls the spans up as phases and lists the instant.
    let summary = trace_export::TraceSummary::from_events(&events).to_string();
    for name in ["pc_check", "transfer_check", "minimality_stats"] {
        assert!(summary.contains(name), "{name} missing from:\n{summary}");
    }
}

#[test]
fn transfer_check_spans_name_the_characterization_that_decided() {
    let _gate = gate();
    // One `transfer_check` span per decision, its `method` arg set once the
    // decider knows it: (C3) for the yes of a full (Lemma 4.8) source, (C2)
    // for the plain 2-path, (C2') without skipping. Each leaves its
    // `minimality_stats` instant; (C3) asks nothing.
    let full = ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), R(y, z).").unwrap();
    let path = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let (methods, events) = traced(|| {
        [
            pcq::pc_core::check_transfer(&full, &path),
            pcq::pc_core::check_transfer(&path, &path),
            pcq::pc_core::check_transfer_no_skip(&path, &path),
        ]
        .map(|report| report.method)
    });
    assert_eq!(methods, ["C3", "C2", "C2'"]);
    trace_export::check_well_formed(&events).unwrap();
    let spans: Vec<&str> = events
        .iter()
        .filter(|e| e.name == "transfer_check")
        .map(|e| {
            let (_, method) = e.args.iter().find(|(k, _)| k == "method").expect("method");
            method.as_str()
        })
        .collect();
    assert_eq!(spans, methods);
    let asks: Vec<&str> = events
        .iter()
        .filter(|e| e.name == "minimality_stats")
        .map(|e| {
            e.args
                .iter()
                .find(|(k, _)| k == "asks")
                .expect("asks")
                .1
                .as_str()
        })
        .collect();
    assert_eq!(asks.len(), 3);
    assert_eq!(asks[0], "0");
}

#[test]
fn process_transport_merges_worker_timelines_into_the_coordinator_trace() {
    let _gate = gate();
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
    let _gate = gate();
    // Worker 0 dies after its first job; the trace must show the death
    // and the requeues, and the metrics registry — the single source of
    // truth behind those counters — must report exactly what the trace
    // recorded.
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let network = Network::with_size(6);
    let policy = ExplicitPolicy::round_robin(&network, &instance);
    let reference = OneRoundEngine::new(&policy).evaluate(&query, &instance);

    let mut transport = WireTransport::spawn_sockets(&worker_binary(), &faulty_argv(3, 1)).unwrap();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy));
    let (outcome, events) = traced(|| engine.evaluate_via(&mut transport, &query, &instance));
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
fn fault_injected_process_trace_records_the_chunks_and_facts_of_each_rebuild() {
    let _gate = gate();
    // A feedback run over worker processes whose rounds 0–4 ship all eight
    // nodes, four to each worker. Worker 0 dies on its seventeenth job, the
    // first of round 4: each of its four nodes is rebuilt on the survivor
    // from the five chunks its ledger kept (round 0's and four deltas),
    // and the survivor decodes exactly the facts the rebuild records.
    let query = named_query("chain:2").unwrap();
    let path: String = (0..80).map(|i| format!("R(p{i}, p{}). ", i + 1)).collect();
    let instance = instance_for(&query, 23).union(&cq::parse_instance(&path).unwrap());
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
        .rounds(12)
        .feedback_into("R");
    let reference = engine.evaluate(&query, &instance);
    for outcome in &reference.rounds[..5] {
        assert_eq!(
            outcome.per_node_load.values().filter(|&&l| l > 0).count(),
            8
        );
    }

    let mut transport = WireTransport::spawn_pipes(&worker_binary(), &faulty_argv(2, 16)).unwrap();
    let (outcome, events) = traced(|| engine.evaluate_via(&mut transport, &query, &instance));
    let outcome = outcome.expect("the run must survive the death");
    assert_eq!(outcome.result, reference.result);
    assert_eq!(transport.alive_workers(), 1, "the fault never fired");

    let arg = |event: &obs::TraceEvent, key: &str| -> String {
        let (_, value) = event.args.iter().find(|(k, _)| k == key).expect(key);
        value.clone()
    };
    let rebuilds: Vec<&obs::TraceEvent> = events
        .iter()
        .filter(|e| e.name == "state_rebuild")
        .collect();
    assert_eq!(
        rebuilds.len() as u64,
        transport.metrics_registry().counter_value("state_rebuilds")
    );
    assert_eq!(rebuilds.len(), 4, "one rebuild per node of worker 0");
    for rebuild in rebuilds {
        assert_eq!(rebuild.kind, obs::EventKind::Instant);
        let keys: Vec<&str> = rebuild.args.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["node", "chunks", "facts"]);
        assert_eq!(arg(rebuild, "chunks"), "5");
        let (node, facts) = (arg(rebuild, "node"), arg(rebuild, "facts"));
        assert!(facts.parse::<usize>().unwrap() > 0);
        let decoded = events.iter().any(|e| {
            e.name == "worker_decode" && arg(e, "node") == node && arg(e, "facts") == facts
        });
        assert!(decoded, "no survivor decoded {facts} facts for {node}");
    }
}

#[test]
fn chrome_export_of_a_live_run_round_trips_and_summarizes() {
    let _gate = gate();
    let query = named_query("triangle").unwrap();
    let instance = instance_for(&query, 7);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    // A one-round run as `run` executes it: the round loop capped at one.
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
        .rounds(1)
        .workers(2);

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
fn a_standalone_one_round_engine_run_summarizes_as_one_round() {
    let _gate = gate();
    // `OneRoundEngine::evaluate` is the round loop capped at one round, so
    // its trace reads like a one-round `run`: one `eval_round` span and one
    // critical-path row.
    let query = named_query("triangle").unwrap();
    let instance = instance_for(&query, 7);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let (outcome, events) = traced(|| OneRoundEngine::new(&policy).evaluate(&query, &instance));
    assert_eq!(*outcome.result, cq::evaluate(&query, &instance));
    let rounds = events.iter().filter(|e| e.name == "eval_round").count();
    assert_eq!(rounds, 1, "{:?}", names(&events));
    let summary = trace_export::TraceSummary::from_events(&events);
    assert_eq!(summary.rounds.len(), 1, "one critical-path row");
}

#[test]
fn a_dead_workers_stderr_surfaces_in_the_transport_error() {
    // With no survivor to requeue onto, a death is a clean error — and
    // since the worker is a spawned child, its last words must ride along
    // instead of vanishing with the process.
    let _gate = gate();
    let query = named_query("chain:2").unwrap();
    let instance = instance_for(&query, 11);
    let network = Network::with_size(6);
    let policy = ExplicitPolicy::round_robin(&network, &instance);
    let engine = MultiRoundEngine::new(RoundSchedule::repeat(&policy));

    for spawn in [WireTransport::spawn_pipes, WireTransport::spawn_sockets] {
        let mut transport = spawn(&worker_binary(), &faulty_argv(1, 0)).unwrap();
        let err = engine
            .evaluate_via(&mut transport, &query, &instance)
            .expect_err("a dead worker with no survivor must error")
            .to_string();
        assert!(err.contains("worker stderr"), "no stderr tail in: {err}");
        assert!(err.contains("injected fault"), "tail lost the cause: {err}");
    }
}

#[test]
fn round_latency_quantiles_in_the_export_match_the_registry_exactly() {
    let _gate = gate();
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

    // The registry export must carry the registry's quantiles bit-for-bit —
    // the pinned contract behind the `counters` and `histograms` blocks of
    // `run --json`.
    let doc = registry.to_json();
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
         instance { R(a, b). R(b, c). R(c, a). R(b, a). R(c, d). R(d, a). }\n\
         schedule hash(2)\nrounds 3\n",
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
    // `transfer_check` names the decider's span alone; the plan records its
    // verdict as an `elision_claim` instant inside the `plan` span, which
    // closes before the first round.
    let checks: Vec<_> = events
        .iter()
        .filter(|e| e.name == "transfer_check")
        .collect();
    assert!(!checks.is_empty());
    assert!(checks.iter().all(|e| e.kind == obs::EventKind::Span));
    let plan = events
        .iter()
        .find(|e| e.name == "plan")
        .expect("a plan span");
    let claim = events.iter().find(|e| e.name == "elision_claim");
    assert_eq!(claim.expect("an elision claim").parent, plan.id);
    let mut rounds = events.iter().filter(|e| e.name == "eval_round");
    assert!(rounds.all(|round| round.ts_us >= plan.ts_us + plan.dur_us));

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
    // One lane per process, each with its unattributed time; self time per
    // phase.
    let Some(JsonValue::Object(lanes)) = doc.get("processes") else {
        panic!("no processes in {doc}");
    };
    let names: Vec<&str> = lanes.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["coordinator", "worker 0", "worker 1"]);
    assert!(lanes
        .iter()
        .all(|(_, lane)| lane.get("unattributed_us").is_some()));
    let Some(JsonValue::Object(phases)) = doc.get("phases") else {
        panic!("no phases in {doc}");
    };
    assert!(!phases.is_empty());
    assert!(phases
        .iter()
        .all(|(_, phase)| phase.get("self_us").is_some()));
    let text = Command::new(worker_binary())
        .args(["trace", "summarize", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(text.status.success(), "{text:?}");

    let _ = std::fs::remove_file(scenario);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn a_cli_run_spans_its_lowering_transport_start_shutdown_and_report() {
    // The coordinator's work outside the engine: parsing the scenario,
    // building the policies and the engine, starting the workers (spawn and
    // Hello), stopping them, and building and printing the report. Each is one span, a child of `run`, on every
    // transport.
    use std::process::Command;

    let dir = std::env::temp_dir();
    let scenario = dir.join(format!("pcq-spans-{}.pcq", std::process::id()));
    std::fs::write(
        &scenario,
        "queries {\n  T(x, z) :- R(x, y), R(y, z), R(y, y).\n  T(x, z) :- R(x, y), R(y, z).\n}\n\
         instance { R(a, a). R(a, b). R(b, c). R(c, c). }\nschedule hypercube(2)\nrounds 1\n",
    )
    .unwrap();
    for transport in ["memory", "process", "socket"] {
        let trace = dir.join(format!("pcq-spans-{transport}-{}.json", std::process::id()));
        let run = Command::new(worker_binary())
            .args(["run", "--scenario", scenario.to_str().unwrap()])
            .args(["--transport", transport, "--workers", "2", "--json"])
            .args(["--trace", trace.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{transport}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let events =
            trace_export::parse_chrome_trace(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let coordinator = || events.iter().filter(|e| e.pid == 0);
        let root = coordinator().find(|e| e.name == "run").expect("a run span");
        for name in [
            "lower",
            "engine_setup",
            "open_transport",
            "shutdown",
            "report",
        ] {
            let spans: Vec<_> = coordinator().filter(|e| e.name == name).collect();
            assert_eq!(spans.len(), 1, "{transport}: {name}");
            assert_eq!(spans[0].kind, obs::EventKind::Span, "{transport}: {name}");
            assert_eq!(
                spans[0].parent, root.id,
                "{transport}: {name} is not under run"
            );
        }
        let _ = std::fs::remove_file(trace);
    }
    let _ = std::fs::remove_file(scenario);
}

#[test]
fn every_coordinator_span_but_run_has_a_coordinator_parent_on_every_transport() {
    // One parent rule: a span's parent is the innermost span open on the
    // thread that records it, and a thread that works for another thread's
    // span — the memory transport's pool, the wire driver's reader and
    // writer — enters that span first. So on every transport, a feedback
    // run's delta rounds and a run whose jobs are requeued included, the
    // coordinator lane has one root, `run`, and every span is where its
    // thread recorded it.
    use std::collections::BTreeMap;
    use std::process::Command;

    let dir = std::env::temp_dir();
    let cases: [(&str, &[&str]); 4] = [
        ("memory", &["--transport", "memory"]),
        (
            "process",
            &["--transport", "process", "--rounds", "3", "--feedback", "R"],
        ),
        ("socket", &["--transport", "socket"]),
        (
            "requeued",
            &["--transport", "process", "--fault-inject", "1"],
        ),
    ];
    for (case, flags) in cases {
        let trace = dir.join(format!("pcq-parents-{case}-{}.json", std::process::id()));
        let run = Command::new(worker_binary())
            .args(["run", "T(x, z) :- R(x, y), R(y, z).", "hypercube:4"])
            .args(["random:20:300:7", "--workers", "2"])
            .args(flags)
            .args(["--trace", trace.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{case}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let events =
            trace_export::parse_chrome_trace(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let _ = std::fs::remove_file(trace);
        trace_export::check_well_formed(&events).unwrap_or_else(|e| panic!("{case}: {e}"));

        let spans: BTreeMap<u64, &obs::TraceEvent> = events
            .iter()
            .filter(|e| e.pid == 0 && e.kind == obs::EventKind::Span)
            .map(|e| (e.id, e))
            .collect();
        let roots: Vec<&str> = spans
            .values()
            .filter(|e| !spans.contains_key(&e.parent))
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(roots, ["run"], "{case}: roots of the coordinator lane");
        // The spans recorded off the thread that opened their parent.
        let parent_of = |name: &str| -> Vec<&str> {
            let mut parents: Vec<&str> = spans
                .values()
                .filter(|e| e.name == name)
                .map(|e| spans[&e.parent].name.as_str())
                .collect();
            parents.sort_unstable();
            parents.dedup();
            parents
        };
        if case == "memory" {
            assert_eq!(parent_of("eval_chunk"), ["barrier"], "{case}");
            continue;
        }
        let round = if case == "process" {
            // The verify's feedback steps are spanned like a node's.
            assert_eq!(parent_of("absorb"), ["reference_fixpoint"], "{case}");
            // Each `absorb` names the sorted orders it merged new rows
            // into. The verify's state holds the two-path's two orders of
            // `R`, its `result` none; a worker's data holds its parts'.
            let absorbs = events.iter().filter(|e| e.name == "absorb");
            let mut merged = BTreeMap::<bool, Vec<u64>>::new();
            for e in absorbs {
                let arg = |key: &str| -> u64 {
                    let (_, value) = e.args.iter().find(|(k, _)| k == key).expect(key);
                    value.parse().expect("a count")
                };
                let (new, orders) = (arg("new"), arg("orders"));
                assert!(new > 0 || orders == 0, "{case}: {e:?}");
                merged.entry(e.pid == 0).or_default().push(orders);
            }
            let verify = &merged[&true];
            assert!(
                verify.iter().all(|&orders| orders == 0 || orders == 2),
                "{verify:?}"
            );
            assert!(verify.contains(&2), "{verify:?}");
            assert!(
                merged[&false].iter().any(|&orders| orders > 0),
                "{merged:?}"
            );
            "delta_round"
        } else {
            "eval_round"
        };
        for name in ["window_wait", "wire_encode", "reply_decode"] {
            assert_eq!(parent_of(name), [round], "{case}: {name}");
        }
        if case == "requeued" {
            assert!(
                events.iter().any(|e| e.name == "requeue"),
                "{case}: no job was requeued"
            );
        }
    }
}

#[test]
fn disabled_tracing_costs_under_two_percent_of_a_closure_run() {
    // With no active trace every instrumentation site costs one relaxed
    // load, its arguments unevaluated. The product (cost of one disabled
    // site) x (sites a closure run hits) must stay under 2 % of the untraced
    // run itself. The site count is not guessed: a traced run records one
    // event per site it hits. In an unoptimized build on two cores it is
    // about 0.015 % (217 sites x 35 ns of a 49 ms run), so the bound has
    // a hundredfold margin.
    let _gate = gate();
    let query = named_query("chain:2").unwrap();
    let chain: Vec<Fact> = (0..47)
        .map(|i| {
            Fact::new(
                "R",
                vec![Value::indexed("v", i), Value::indexed("v", i + 1)],
            )
        })
        .collect();
    let instance = Instance::from_facts(chain);
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let run = || {
        let outcome = MultiRoundEngine::new(RoundSchedule::repeat(&policy))
            .rounds(12)
            .feedback_into("R")
            .evaluate(&query, &instance);
        assert!(outcome.converged);
        std::hint::black_box(outcome.result.len());
    };

    obs::start_trace();
    run();
    let sites = obs::end_trace().len() as f64;
    assert!(sites > 0.0, "the closure run hits no instrumentation sites");
    assert!(!obs::enabled());

    // The fastest of several repetitions of each, so a loaded machine
    // inflates neither side.
    const CALLS: u32 = 100_000;
    let per_site = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            for i in 0..CALLS {
                let _ = std::hint::black_box(obs::span!("disabled_site", i = i));
            }
            start.elapsed().as_secs_f64() / f64::from(CALLS)
        })
        .fold(f64::MAX, f64::min);
    let untraced = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min);
    let overhead = per_site * sites / untraced;
    assert!(
        overhead < 0.02,
        "disabled tracing: {sites} sites x {:.1} ns = {:.3} % of a {:.2} ms closure run",
        per_site * 1e9,
        overhead * 100.0,
        untraced * 1e3
    );
}

/// One decision of a run: `(query, round, kind, value)`, with `round`
/// `None` outside a round of the query's own loop.
type Decision = (usize, Option<usize>, &'static str, usize);

/// The decisions the coordinator's trace recorded: the elision claims,
/// `distribute`'s `parts`, `delta_round`, `reshard`, `reshuffle_elided` and
/// the resident round's node count, each placed by its enclosing `query`
/// and `eval_round` spans.
fn recorded_decisions(events: &[obs::TraceEvent]) -> Vec<Decision> {
    let spans: std::collections::BTreeMap<u64, &obs::TraceEvent> = events
        .iter()
        .filter(|e| e.pid == 0 && e.kind == obs::EventKind::Span)
        .map(|e| (e.id, e))
        .collect();
    let arg = |e: &obs::TraceEvent, key: &str| -> usize {
        match e
            .args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
        {
            Some("true") => 1,
            Some("false") => 0,
            Some(v) => v.parse().expect("a count"),
            None => panic!("{} has no {key}", e.name),
        }
    };
    let mut decisions = Vec::new();
    for event in events.iter().filter(|e| e.pid == 0) {
        let span = event.kind == obs::EventKind::Span;
        let (kind, value) = match (event.name.as_str(), span) {
            ("elision_claim", false) => ("claim", arg(event, "transfers")),
            ("distribute", true) => ("parts", arg(event, "parts")),
            ("delta_round", true) => ("delta", arg(event, "round")),
            ("reshard", false) => ("reshard", arg(event, "round")),
            ("reshuffle_elided", false) => ("elided", 0),
            ("resident_round", true) => ("resident", arg(event, "nodes")),
            _ => continue,
        };
        let (mut query, mut round) = (None, None);
        let mut parent = if span { event.parent } else { event.id };
        while let Some(ancestor) = spans.get(&parent) {
            match ancestor.name.as_str() {
                "query" => query = query.or(Some(arg(ancestor, "index"))),
                "eval_round" => round = round.or(Some(arg(ancestor, "round"))),
                _ => {}
            }
            parent = ancestor.parent;
        }
        if kind == "claim" {
            query = Some(arg(event, "query"));
        }
        decisions.push((query.unwrap_or(0), round, kind, value));
    }
    decisions.sort();
    decisions
}

/// The decisions `plan` prescribes for the run that ended in `outcome`,
/// whose rounds and convergence — the guards the plan leaves to the data —
/// are read off the outcome: a `yes` is carried out on the nodes its read
/// names when its anchor's run converged in its last slot and no query ran
/// since.
fn planned_decisions(
    plan: &RunPlan<'_>,
    outcome: &MultiQueryOutcome,
    feedback: bool,
) -> Vec<Decision> {
    let mut decisions = Vec::new();
    let mut resident = None;
    for (index, (query, run)) in plan.queries().iter().zip(&outcome.per_query).enumerate() {
        if let Some(claim) = &query.elide {
            decisions.push((index, None, "claim", usize::from(claim.transfers)));
        }
        let claim = query.elide.as_ref().filter(|c| resident == Some(c.anchor));
        if let Some(read) = claim.and_then(|c| c.read.as_ref()) {
            decisions.push((index, None, "elided", 0));
            decisions.push((index, None, "resident", read.nodes.len()));
            continue;
        }
        for round in 0..run.rounds_run() {
            let slot = query.slot(round);
            decisions.push((index, Some(round), "parts", slot.parts()));
            if feedback {
                let delta = round - slot.first_round;
                decisions.push((index, Some(round), "delta", delta));
                if delta == 0 && round > 0 {
                    decisions.push((index, Some(round), "reshard", round));
                }
            }
        }
        let last_slot = run.rounds_run() >= query.slots.len();
        resident = (run.converged && last_slot).then_some(index);
    }
    decisions.sort();
    decisions
}

#[test]
fn every_run_shape_records_the_decisions_of_its_plan_on_every_transport() {
    // One small scenario shaped like each `run` workload of the benchmark:
    // a triangle under its Hypercube, one round (split rounds); a Zipf
    // two-atom join under a hash join (plain rounds); a closure with
    // feedback over a two-entry schedule (deltas and a re-shard); the relax
    // sequence (two `yes` claims about its first query, both carried out
    // over its atom parts). On every transport the trace records exactly
    // the plan's decisions.
    let _gate = gate();
    let triangle = named_query("triangle").unwrap();
    let join = ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), S(y, z).").unwrap();
    let closure = named_query("chain:2").unwrap();
    let relax = named_query_sequence("relax").unwrap();
    let zipf = named_instance("zipf:30:80:110:7", &join.schema()).unwrap();
    let relax_facts = "R(a, a). R(a, b). R(b, b). R(b, c). R(c, a). R(c, c). R(c, d).";
    let policies: Vec<Box<dyn DistributionPolicy>> = vec![
        Box::new(HypercubePolicy::uniform(&triangle, 2).unwrap()),
        Box::new(HypercubePolicy::hash_join(&join, 3).unwrap()),
        Box::new(HypercubePolicy::hash_join(&closure, 3).unwrap()),
        Box::new(HypercubePolicy::uniform(&closure, 2).unwrap()),
        Box::new(HypercubePolicy::uniform(&relax[0], 2).unwrap()),
    ];
    // (name, queries, instance, schedule entries, round cap, feedback)
    type Shape<'s> = (
        &'s str,
        Vec<ConjunctiveQuery>,
        Instance,
        &'s [usize],
        usize,
        bool,
    );
    let shapes: [Shape; 4] = [
        (
            "tri",
            vec![triangle.clone()],
            instance_for(&triangle, 3),
            &[0],
            1,
            false,
        ),
        ("sparse", vec![join], zipf, &[1], 1, false),
        (
            "closure",
            vec![closure.clone()],
            instance_for(&closure, 5),
            &[2, 3],
            8,
            true,
        ),
        (
            "relax",
            relax,
            cq::parse_instance(relax_facts).unwrap(),
            &[4],
            4,
            false,
        ),
    ];
    for (name, queries, instance, entries, rounds, feedback) in &shapes {
        let schedule = entries.iter().map(|&k| policies[k].as_ref()).collect();
        let mut engine = MultiRoundEngine::new(RoundSchedule::of(schedule)).rounds(*rounds);
        if *feedback {
            engine = engine.feedback_into("R");
        }
        let mut cache = TransferCache::new();
        let plan = engine.plan(queries, &mut |p, q| cache.transfers(p, q));
        let argv = vec![vec!["worker".to_string()]; 2];
        let transports: [(&str, Box<dyn Transport>); 3] = [
            ("memory", Box::new(InMemoryTransport::new(2))),
            (
                "process",
                Box::new(WireTransport::spawn_pipes(&worker_binary(), &argv).unwrap()),
            ),
            (
                "socket",
                Box::new(WireTransport::spawn_sockets(&worker_binary(), &argv).unwrap()),
            ),
        ];
        for (transport_name, mut transport) in transports {
            let (outcome, events) = traced(|| {
                engine.evaluate_queries_via(transport.as_mut(), queries, instance, &mut |p, q| {
                    cache.transfers(p, q)
                })
            });
            let outcome = outcome.unwrap();
            let context = format!("{name} on {transport_name}");
            let decisions = recorded_decisions(&events);
            assert_eq!(
                decisions,
                planned_decisions(&plan, &outcome, *feedback),
                "{context}"
            );
            let kinds = |kind: &str| decisions.iter().filter(|d| d.2 == kind).count();
            match *name {
                "tri" => assert_eq!(decisions, [(0, Some(0), "parts", 3)], "{context}"),
                "sparse" => assert_eq!(decisions, [(0, Some(0), "parts", 0)], "{context}"),
                "closure" => assert_eq!(kinds("reshard"), 1, "{context}: {decisions:?}"),
                _ => {
                    assert_eq!(kinds("elided"), 2, "{context}");
                    assert_eq!(outcome.transfer_checks, 2, "{context}");
                }
            }
            for (query, run) in queries.iter().zip(&outcome.per_query) {
                let reference = engine.reference_fixpoint(query, instance);
                assert_eq!(*run.result, reference.result, "{context}: {query}");
            }
        }
    }
}
