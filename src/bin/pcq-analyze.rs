//! `pcq-analyze` — command-line static analyzer for parallel-correctness and
//! transferability of conjunctive queries.
//!
//! ```text
//! USAGE:
//!   pcq-analyze analyze    <query>
//!   pcq-analyze pc         <query> <policy-file>
//!   pcq-analyze transfer   <query-from> <query-to> [--no-skip | --strongly-minimal]
//!   pcq-analyze hypercube  <query> <query-prime>
//!   pcq-analyze run        <query> <policy> <instance> [--workers N] [--json]
//!                          [--rounds N] [--schedule S] [--feedback R]
//!                          [--semi-naive] [--distribute-workers N]
//!                          [--transport memory|process|socket]
//!                          [--fault-inject N] [--trace FILE]
//!                          [--metrics FILE] [--slow-eval-us N]
//!   pcq-analyze run        --scenario <file.pcq> [--json] [--workers N]
//!                          [--rounds N] [--feedback R] [--semi-naive]
//!                          [--transport T] [--reshuffle-always]
//!                          [--trace FILE] [--metrics FILE]
//!   pcq-analyze trace      summarize <trace.json> [--json]
//!   pcq-analyze trace      diff <base.json> <new.json> [--json]
//!                          [--threshold PCT] [--min-us N]
//!   pcq-analyze encode     (query|instance|scenario) <spec>
//!   pcq-analyze decode
//!   pcq-analyze worker     [--connect host:port --token K] [--fail-after N]
//!                          [--slow-eval-us N]
//!   pcq-analyze bench-diff <trajectory-file> [--threshold-pct P]
//!                          [--min-ns N] [--window N] [--bench NAME]...
//!
//! ARGUMENTS:
//!   <query>        a named workload family (triangle, example3.5,
//!                  chain:<len>, star:<rays>, cycle:<len>), a file path, or a
//!                  literal query such as "T(x, z) :- R(x, y), R(y, z)."
//!   <policy-file>  a text file with one line per node:
//!                      n0: R(a, b) R(b, c)
//!                      n1: R(b, a)
//!                  an optional line `default: n0 n1` assigns unlisted facts.
//!   <policy>       hypercube:<budget>, broadcast:<nodes>,
//!                  round-robin:<nodes>, or a policy file as above.
//!   <instance>     random:<domain>:<facts>[:seed],
//!                  zipf:<domain>:<facts>:<exponent-percent>[:seed], a file
//!                  of facts, or literal facts such as "R(a, b). R(b, c)."
//!   <file.pcq>     a scenario file in the wire crate's textual format:
//!                  query (or a `queries { … }` sequence), instance,
//!                  schedule, rounds, feedback in one file.
//! ```
//!
//! `run` reshuffles the instance under the policy and evaluates the query
//! through the one-round engine, reporting result size, per-node load and
//! per-node timings (`--json` for machine-readable output, emitted through
//! the `wire::json` serializer). With `--rounds N` it iterates
//! distribute→evaluate cycles through the multi-round engine instead:
//! `--schedule` names per-round policies (`hash-join:<k>,hypercube:<b>,…`;
//! default: the `<policy>` argument every round), `--feedback R` renames
//! each round's outputs into relation `R` before the next reshuffle
//! (making the query effectively recursive), and the result is compared
//! against the global fixpoint of the centralized iterated query.
//! `--semi-naive` switches the rounds to incremental mode: only the facts
//! new since the previous round are reshuffled, nodes keep their
//! accumulated state across rounds, and each local evaluation is one
//! differential pass over the delta — the final result is identical to
//! full re-evaluation, the late-round work is not.
//! `--distribute-workers` shards the reshuffle phase. Every node runs the
//! one indexed join kernel, a leapfrog triejoin, on cyclic and acyclic
//! queries alike; no flag selects it. With
//! `--transport process` local evaluation leaves this process entirely:
//! chunks are binary-encoded and shipped over stdio pipes to `--workers N`
//! `pcq-analyze worker` subprocesses; `--transport socket` carries the
//! same protocol over TCP — the coordinator binds a loopback listener and
//! each worker connects back with `--connect host:port --token K`. Both
//! wire transports pipeline several jobs per worker and survive a worker
//! dying mid-round by requeueing its unanswered jobs onto the survivors;
//! `--fault-inject N` demonstrates that path by making worker 0 die after
//! N eval jobs (requires ≥ 2 workers and a wire transport). `--scenario
//! file.pcq` replaces the three positional specs with one scenario file.
//! A scenario may list several queries in a `queries { … }` block: the
//! engine runs them in sequence over the same instance and checks
//! **pc-transferability** between consecutive queries — when
//! parallel-correctness transfers, the next query's reshuffle is elided
//! and it evaluates directly on the shards resident from its predecessor;
//! when it does not transfer, the instance is re-distributed from
//! scratch. `--reshuffle-always` disables the elision (the baseline its
//! communication saving is measured against), and the JSON report gains
//! `transfer_checks` and `elided_reshuffles`.
//!
//! `--trace FILE` records a distributed trace of the whole run: engine
//! rounds, distribute/reshuffle phases, per-node joins, cache and
//! transfer-oracle decisions on the coordinator, plus every wire worker's
//! evaluation spans (shipped back at each barrier and merged onto the
//! coordinator's timeline). The output is Chrome trace-event JSON — open
//! it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`, or
//! roll it up with `pcq-analyze trace summarize FILE [--json]`: per-phase
//! aggregates, per-process totals, and the round-by-round critical path.
//! Tracing off (the default) costs nothing but one relaxed atomic load
//! per instrumentation site. If the per-thread trace buffers overflow,
//! the run warns on stderr and stamps `droppedEvents` into the trace file
//! (and `dropped_events` into `--json` output) so incomplete timelines
//! are never mistaken for complete ones.
//!
//! `trace diff` aligns two trace summaries — per-phase totals, per-round
//! durations, per-process wall clock — and reports the deltas *with
//! causes*: each regressed round names the phases that grew inside it.
//! Exit code 1 means at least one phase or round grew by more than
//! `--threshold` percent (default 25; `--min-us` filters noise, default
//! 1000µs) — point it at a stored baseline trace in CI to gate on
//! distributed-performance regressions, not just result correctness.
//!
//! `run --metrics FILE` writes the merged metrics registries (engine +
//! transport) as one JSON document: every counter, and for every
//! histogram (`round_latency_us`, `chunk_facts`, `window_wait_us`,
//! `frame_bytes`) the exact count/sum/min/max plus p50/p90/p99
//! nearest-rank quantiles over the most recent 4096 samples. The same
//! block appears under `"histograms"` in `run --json` output.
//! `--slow-eval-us N` makes every wire worker sleep N µs per eval job —
//! an injected-latency knob for exercising `trace diff` end to end.
//!
//! `encode` writes one binary frame (magic `PCQW`) for a query, an
//! instance or a scenario to stdout; `decode` reads one frame from stdin
//! and prints its textual form — `encode … | decode` is the identity.
//! `worker` runs the chunk-evaluation loop that `--transport process`
//! drives (over stdio) or, with `--connect`, the socket-transport variant
//! that dials the coordinator; it is not meant to be invoked
//! interactively.
//!
//! `bench-diff` compares the most recent entry per bench in a
//! `BENCH_results.json` trajectory against the **median of the previous
//! `--window` entries** (default 3; window 1 reproduces plain
//! latest-vs-previous) and fails (exit 1) when any benchmark regressed by
//! more than the threshold (default 25%, ignoring entries faster than
//! `--min-ns`, default 100µs) — the CI regression gate.
//!
//! Exit code 0 means the property holds (for `run`: the distributed result
//! equals the centralized reference; for `bench-diff`: no regression),
//! 1 means it does not, 2 means a usage or parse error.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use pcq::obs;
use pcq::prelude::*;
use pcq::wire;

/// `println!` for a stdout whose reader may leave early (`… | head`): see
/// [`emit`].
macro_rules! say {
    ($($line:tt)*) => {
        emit(format_args!("{}\n", format_args!($($line)*)))
    };
}

/// Writes `text` to stdout. The first write that finds the pipe closed ends
/// the output quietly, and the command runs on to its verdict and exit
/// status; any other failure panics as `print!` does.
fn emit(text: std::fmt::Arguments<'_>) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    // (the test harness captures what `print!` writes, and only that)
    if cfg!(test) {
        return print!("{text}");
    }
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(text) {
        Err(error) if error.kind() == std::io::ErrorKind::BrokenPipe => {
            CLOSED.store(true, Ordering::Relaxed)
        }
        result => result.expect("failed printing to stdout"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(holds) => {
            if holds {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            // A worker's runtime failure (protocol desync, injected fault)
            // is not a usage mistake; the usage text would only bury it.
            if !message.starts_with("worker failed:") {
                eprintln!();
                eprintln!("{}", usage());
            }
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  pcq-analyze analyze    <query>\n  pcq-analyze pc         <query> <policy-file>\n  pcq-analyze transfer   <query-from> <query-to> [--no-skip | --strongly-minimal]\n  pcq-analyze hypercube  <query> <query-prime>\n  pcq-analyze run        <query> <policy> <instance> [--workers N] [--json]\n                         [--rounds N] [--schedule S] [--feedback R]\n                         [--semi-naive] [--distribute-workers N]\n                         [--transport memory|process|socket]\n                         [--fault-inject N] [--trace FILE]\n                         [--metrics FILE] [--slow-eval-us N]\n  pcq-analyze run        --scenario <file.pcq> [--json] [--workers N]\n                         [--rounds N] [--feedback R] [--semi-naive]\n                         [--transport T] [--reshuffle-always]\n                         [--trace FILE] [--metrics FILE]\n  pcq-analyze trace      summarize <trace.json> [--json]\n  pcq-analyze trace      diff <base.json> <new.json> [--json]\n                         [--threshold PCT] [--min-us N]\n  pcq-analyze encode     (query|instance|scenario) <spec>\n  pcq-analyze decode\n  pcq-analyze worker     [--connect host:port --token K] [--fail-after N]\n                         [--slow-eval-us N]\n  pcq-analyze bench-diff <trajectory-file> [--threshold-pct P] [--min-ns N]\n                         [--window N] [--bench NAME]...\n\nrun specs:\n  <query>    triangle | example3.5 | chain:<len> | star:<rays> | cycle:<len> | file | literal\n  <policy>   hypercube:<budget> | broadcast:<nodes> | round-robin:<nodes> | policy-file\n  <instance> random:<domain>:<facts>[:seed] | zipf:<domain>:<facts>:<exp-percent>[:seed] | file | literal\n  <schedule> comma-separated per-round policies: hash-join:<k> | hypercube:<b> | broadcast:<n>\n  <file.pcq> a textual scenario file (see the README's wire-format section)"
}

fn run(args: &[String]) -> Result<bool, String> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "analyze" => {
            let query = load_query(args.get(1).ok_or("missing <query>")?)?;
            Ok(analyze(&query))
        }
        "pc" => {
            let query = load_query(args.get(1).ok_or("missing <query>")?)?;
            let policy = load_policy(args.get(2).ok_or("missing <policy-file>")?)?;
            Ok(parallel_correctness(&query, &policy))
        }
        "transfer" => {
            let from = load_query(args.get(1).ok_or("missing <query-from>")?)?;
            let to = load_query(args.get(2).ok_or("missing <query-to>")?)?;
            let mode = args.get(3).map(String::as_str);
            transfer(&from, &to, mode)
        }
        "hypercube" => {
            let query = load_query(args.get(1).ok_or("missing <query>")?)?;
            let prime = load_query(args.get(2).ok_or("missing <query-prime>")?)?;
            Ok(hypercube(&query, &prime))
        }
        "run" => run_command(&args[1..]),
        "trace" => trace_command(&args[1..]),
        "encode" => encode_command(&args[1..]),
        "decode" => decode_command(&args[1..]),
        "worker" => worker_command(&args[1..]),
        "bench-diff" => bench_diff(&args[1..]),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Reads `spec` as a file when one exists at that path, else treats the
/// spec itself as the literal text — the shared resolution rule for every
/// file-or-literal argument (queries, instances, scenarios).
fn read_spec_text(spec: &str) -> Result<String, String> {
    if std::path::Path::new(spec).exists() {
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))
    } else {
        Ok(spec.to_string())
    }
}

/// Loads a query from a file path, or parses the argument itself when it is
/// not an existing file.
fn load_query(arg: &str) -> Result<ConjunctiveQuery, String> {
    let text = read_spec_text(arg)?;
    ConjunctiveQuery::parse(text.trim()).map_err(|e| format!("cannot parse query '{arg}': {e}"))
}

/// Resolves a `run` query spec: a named workload family first, then the
/// file-or-literal fallback of [`load_query`].
fn load_run_query(arg: &str) -> Result<ConjunctiveQuery, String> {
    match workloads::named_query(arg) {
        Ok(q) => Ok(q),
        Err(named_err) => load_query(arg).map_err(|parse_err| {
            format!("cannot resolve query spec '{arg}': {named_err}; {parse_err}")
        }),
    }
}

/// Resolves a `run` instance spec: a named generator over the query's
/// schema, a file of facts, or literal facts.
fn load_run_instance(arg: &str, query: &ConjunctiveQuery) -> Result<Instance, String> {
    match workloads::named_instance(arg, &query.schema()) {
        Ok(i) => Ok(i),
        Err(named_err) => {
            let text = read_spec_text(arg)?;
            cq::parse_instance(text.trim()).map_err(|parse_err| {
                format!("cannot resolve instance spec '{arg}': {named_err}; {parse_err}")
            })
        }
    }
}

/// Resolves a `run` policy spec: `hypercube:<budget>`, `broadcast:<nodes>`,
/// `round-robin:<nodes>`, or a policy file. Boxed so single- and
/// multi-round paths can mix spec-named and schedule-named policies.
fn load_run_policy(
    arg: &str,
    query: &ConjunctiveQuery,
    instance: &Instance,
) -> Result<Box<dyn DistributionPolicy>, String> {
    let named_err = match arg.split_once(':') {
        Some(("hypercube", budget)) => {
            let budget: usize = budget
                .parse()
                .map_err(|_| format!("policy spec '{arg}': '{budget}' is not a number"))?;
            return HypercubePolicy::uniform(query, budget)
                .map(|p| Box::new(p) as Box<dyn DistributionPolicy>)
                .map_err(|e| format!("policy spec '{arg}': {e}"));
        }
        Some(("broadcast", nodes)) | Some(("round-robin", nodes)) => {
            let n: usize = nodes
                .parse()
                .map_err(|_| format!("policy spec '{arg}': '{nodes}' is not a number"))?;
            if n == 0 {
                return Err(format!("policy spec '{arg}': need at least one node"));
            }
            let network = Network::with_size(n);
            let policy = if arg.starts_with("broadcast") {
                ExplicitPolicy::broadcast(&network, instance)
            } else {
                ExplicitPolicy::round_robin(&network, instance)
            };
            return Ok(Box::new(policy));
        }
        _ => format!("'{arg}' is not hypercube:<budget>, broadcast:<nodes> or round-robin:<nodes>"),
    };
    if std::path::Path::new(arg).exists() {
        load_policy(arg).map(|p| Box::new(p) as Box<dyn DistributionPolicy>)
    } else {
        Err(format!(
            "cannot resolve policy spec: {named_err}, and no such policy file exists"
        ))
    }
}

/// Which side of the [`Transport`] seam evaluates node chunks.
enum TransportChoice {
    /// The classic simulated cluster: chunks evaluate on an in-process
    /// worker pool ([`InMemoryTransport`]).
    Memory,
    /// Chunks are binary-encoded and shipped to `pcq-analyze worker`
    /// subprocesses over stdio pipes ([`WireTransport::spawn_pipes`]).
    Process,
    /// The same worker protocol over TCP: the coordinator listens on
    /// loopback and spawned workers connect back
    /// ([`WireTransport::spawn_sockets`]).
    Socket,
}

impl TransportChoice {
    fn label(&self) -> &'static str {
        match self {
            TransportChoice::Memory => "memory",
            TransportChoice::Process => "process",
            TransportChoice::Socket => "socket",
        }
    }
}

/// Parsed flags of the `run` subcommand.
struct RunOptions {
    workers: usize,
    distribute_workers: usize,
    semi_naive: bool,
    json: bool,
    rounds: Option<usize>,
    schedule: Option<String>,
    feedback: Option<String>,
    scenario: Option<String>,
    transport: TransportChoice,
    /// `--fault-inject N`: worker 0 dies after N eval jobs, exercising the
    /// wire transports' mid-round requeue path.
    fault_inject: Option<usize>,
    /// `--reshuffle-always`: disable transferability-driven reshuffle
    /// elision in multi-query scenarios (the measurement baseline).
    reshuffle_always: bool,
    /// `--trace FILE`: record a distributed trace of the run — coordinator
    /// spans plus every worker's, merged onto one timeline — and write it
    /// as Chrome trace-event JSON (loadable in Perfetto, summarizable with
    /// `pcq-analyze trace summarize`).
    trace: Option<String>,
    /// `--metrics FILE`: write the merged metrics registries (counters +
    /// histogram quantiles) as a JSON document after the run.
    metrics: Option<String>,
    /// `--slow-eval-us N`: every worker sleeps N microseconds inside each
    /// eval span — an artificial latency regression for `trace diff`
    /// fixtures (requires a wire transport).
    slow_eval_us: Option<u64>,
}

/// Brackets a traced `run`: starts the process-wide trace recorder and the
/// root span before the selected arm executes, and on finish drains the
/// merged timeline and writes the Chrome trace-event file.
struct TraceSession {
    path: Option<String>,
    root: Option<obs::Span>,
}

impl TraceSession {
    fn begin(path: Option<&str>) -> TraceSession {
        let root = path.map(|_| {
            obs::start_trace();
            obs::span!("run")
        });
        TraceSession {
            path: path.map(str::to_string),
            root,
        }
    }

    fn finish(self, result: Result<bool, String>) -> Result<bool, String> {
        let Some(path) = self.path else {
            return result;
        };
        drop(self.root);
        let events = obs::end_trace();
        let dropped = obs::dropped_events();
        let mut doc = wire::trace_export::chrome_trace(&events);
        if dropped > 0 {
            eprintln!(
                "trace: WARNING: {dropped} events dropped (per-thread buffer full) — \
                 the timeline in {path} is incomplete"
            );
            doc.push("droppedEvents", JsonValue::from(dropped));
        }
        match std::fs::write(&path, format!("{doc}\n")) {
            // A failed run is the primary error; only surface a write
            // failure when it would otherwise be silently lost.
            Ok(()) => result,
            Err(e) => result.and(Err(format!("cannot write trace to {path}: {e}"))),
        }
    }
}

/// Loads a Chrome trace-event file into a summary, carrying the
/// document's `droppedEvents` marker along — shared by `trace summarize`
/// and `trace diff`. Malformed JSON and corrupted documents surface as
/// clean errors (exit 2), never a parser panic.
fn load_trace_summary(path: &str) -> Result<wire::TraceSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let events = wire::events_from_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
    wire::check_well_formed(&events).map_err(|e| format!("{path}: {e}"))?;
    let mut summary = wire::TraceSummary::from_events(&events);
    summary.dropped_events = wire::dropped_events_field(&doc);
    Ok(summary)
}

/// The `trace` subcommand: offline tooling over Chrome trace-event files
/// written by `run --trace`. `summarize` validates the document (parse,
/// reconstruction, span-nesting well-formedness) and prints per-phase,
/// per-process and per-round rollups (`--json` for machine-readable
/// output). `diff` compares two such files phase by phase and round by
/// round, failing (exit 1) when anything regressed past the threshold.
fn trace_command(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let mut json = false;
            let mut path: Option<&String> = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--json" => json = true,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag '{other}'"))
                    }
                    _ if path.is_none() => path = Some(arg),
                    other => return Err(format!("unexpected argument '{other}'")),
                }
            }
            let path = path.ok_or("trace summarize needs a trace file")?;
            let summary = load_trace_summary(path)?;
            if json {
                say!("{}", summary.to_json());
            } else {
                emit(format_args!("{summary}"));
            }
            Ok(true)
        }
        Some("diff") => {
            let mut json = false;
            let mut options = wire::DiffOptions::default();
            let mut paths: Vec<&String> = Vec::new();
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--threshold" => {
                        let value = iter.next().ok_or("--threshold needs a percentage")?;
                        options.threshold_pct = value
                            .parse::<f64>()
                            .ok()
                            .filter(|pct| pct.is_finite() && *pct >= 0.0)
                            .ok_or(format!(
                                "--threshold: '{value}' is not a non-negative percentage"
                            ))?;
                    }
                    "--min-us" => {
                        let value = iter.next().ok_or("--min-us needs a number")?;
                        options.min_us = value
                            .parse()
                            .map_err(|_| format!("--min-us: '{value}' is not a number"))?;
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag '{other}'"))
                    }
                    _ => paths.push(arg),
                }
            }
            let [base_path, new_path] = paths[..] else {
                return Err("trace diff needs <base.json> <new.json>".to_string());
            };
            let base = load_trace_summary(base_path)?;
            let new = load_trace_summary(new_path)?;
            let diff = wire::diff_summaries(&base, &new, options);
            if json {
                say!("{}", diff.to_json());
            } else {
                emit(format_args!("{diff}"));
            }
            Ok(diff.clean())
        }
        Some(other) => Err(format!("unknown trace subcommand '{other}'")),
        None => Err("trace needs a subcommand (summarize | diff)".to_string()),
    }
}

/// The per-worker `pcq-analyze worker …` argument lists for a wire
/// transport: with fault injection, worker 0 gets `--fail-after N`; with
/// latency injection, every worker gets `--slow-eval-us N`.
fn worker_argv(
    workers: usize,
    fault_inject: Option<usize>,
    slow_eval_us: Option<u64>,
) -> Vec<Vec<String>> {
    (0..workers)
        .map(|i| {
            let mut args = vec!["worker".to_string()];
            if i == 0 {
                if let Some(n) = fault_inject {
                    args.push("--fail-after".to_string());
                    args.push(n.to_string());
                }
            }
            if let Some(us) = slow_eval_us {
                args.push("--slow-eval-us".to_string());
                args.push(us.to_string());
            }
            args
        })
        .collect()
}

/// Turns `--transport` into the transport every `run` arm evaluates
/// through, paired with its metrics registry: the in-process pool, or
/// `--workers` subprocesses of this executable reached over pipes or
/// loopback sockets.
fn open_transport(
    opts: &RunOptions,
) -> Result<(Box<dyn Transport>, std::sync::Arc<obs::Registry>), String> {
    let spawn = match opts.transport {
        TransportChoice::Memory => {
            let transport = InMemoryTransport::new(opts.workers);
            let registry = transport.registry();
            return Ok((Box::new(transport), registry));
        }
        TransportChoice::Process => WireTransport::spawn_pipes,
        TransportChoice::Socket => WireTransport::spawn_sockets,
    };
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot find current executable: {e}"))?;
    let argv = worker_argv(opts.workers, opts.fault_inject, opts.slow_eval_us);
    let transport = spawn(&exe, &argv)
        .map_err(|e| format!("cannot start {} transport: {e}", opts.transport.label()))?;
    let registry = transport.metrics_registry();
    Ok((Box::new(transport), registry))
}

/// The `worker` subcommand: the far side of the wire transports. With no
/// flags it speaks the protocol on stdio (the process transport); with
/// `--connect host:port --token K` it dials a socket-transport
/// coordinator. `--fail-after N` injects a mid-round death for
/// fault-tolerance tests and smokes.
fn worker_command(args: &[String]) -> Result<bool, String> {
    let mut connect: Option<String> = None;
    let mut token: u64 = 0;
    let mut fail_after: Option<u64> = None;
    let mut slow_eval_us: u64 = 0;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--connect" => {
                connect = Some(iter.next().ok_or("--connect needs host:port")?.to_string())
            }
            "--token" => {
                let value = iter.next().ok_or("--token needs a number")?;
                token = value
                    .parse()
                    .map_err(|_| format!("--token: '{value}' is not a number"))?;
            }
            "--fail-after" => {
                let value = iter.next().ok_or("--fail-after needs a number")?;
                fail_after = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--fail-after: '{value}' is not a number"))?,
                );
            }
            "--slow-eval-us" => {
                let value = iter.next().ok_or("--slow-eval-us needs a number")?;
                slow_eval_us = value
                    .parse()
                    .map_err(|_| format!("--slow-eval-us: '{value}' is not a number"))?;
            }
            other => return Err(format!("unknown worker argument '{other}'")),
        }
    }
    match connect {
        Some(addr) => wire::run_worker_connect(&addr, token, fail_after, slow_eval_us),
        None => wire::run_worker(
            std::io::stdin().lock(),
            std::io::stdout().lock(),
            fail_after,
            slow_eval_us,
        ),
    }
    .map(|()| true)
    .map_err(|e| format!("worker failed: {e}"))
}

/// The `run` subcommand: one-round evaluation of a workload triple, or —
/// with `--rounds` or `--scenario` — the iterated multi-round evaluation.
///
/// Exit-code contract: 0 = the distributed result equals the centralized
/// reference (one-round result, or the global fixpoint of the iterated
/// query), 1 = answers lost or round cap too small.
fn run_command(args: &[String]) -> Result<bool, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut opts = RunOptions {
        workers: 1,
        distribute_workers: 1,
        semi_naive: false,
        json: false,
        rounds: None,
        schedule: None,
        feedback: None,
        scenario: None,
        transport: TransportChoice::Memory,
        fault_inject: None,
        reshuffle_always: false,
        trace: None,
        metrics: None,
        slow_eval_us: None,
    };
    let mut iter = args.iter();
    let parse_count = |flag: &str, value: Option<&String>| -> Result<usize, String> {
        let value = value.ok_or(format!("{flag} needs a number"))?;
        let n: usize = value
            .parse()
            .map_err(|_| format!("{flag}: '{value}' is not a number"))?;
        if n == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--reshuffle-always" => opts.reshuffle_always = true,
            "--semi-naive" => opts.semi_naive = true,
            "--workers" => opts.workers = parse_count("--workers", iter.next())?,
            "--distribute-workers" => {
                opts.distribute_workers = parse_count("--distribute-workers", iter.next())?
            }
            "--rounds" => opts.rounds = Some(parse_count("--rounds", iter.next())?),
            "--schedule" => {
                opts.schedule = Some(
                    iter.next()
                        .ok_or("--schedule needs a policy list")?
                        .to_string(),
                )
            }
            "--feedback" => {
                opts.feedback = Some(
                    iter.next()
                        .ok_or("--feedback needs a relation name")?
                        .to_string(),
                )
            }
            "--scenario" => {
                opts.scenario = Some(
                    iter.next()
                        .ok_or("--scenario needs a file path")?
                        .to_string(),
                )
            }
            "--transport" => {
                let name = iter.next().ok_or("--transport needs a name")?;
                opts.transport = match name.as_str() {
                    "memory" | "mem" => TransportChoice::Memory,
                    "process" => TransportChoice::Process,
                    "socket" => TransportChoice::Socket,
                    other => {
                        return Err(format!(
                            "--transport: '{other}' is not 'memory', 'process' or 'socket'"
                        ))
                    }
                };
            }
            "--fault-inject" => {
                opts.fault_inject = Some(parse_count("--fault-inject", iter.next())?)
            }
            "--trace" => {
                opts.trace = Some(
                    iter.next()
                        .ok_or("--trace needs an output file path")?
                        .to_string(),
                )
            }
            "--metrics" => {
                opts.metrics = Some(
                    iter.next()
                        .ok_or("--metrics needs an output file path")?
                        .to_string(),
                )
            }
            "--slow-eval-us" => {
                let value = iter.next().ok_or("--slow-eval-us needs a number")?;
                opts.slow_eval_us = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--slow-eval-us: '{value}' is not a number"))?,
                );
            }
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            _ => positional.push(arg),
        }
    }
    if opts.fault_inject.is_some() {
        if matches!(opts.transport, TransportChoice::Memory) {
            return Err(
                "--fault-inject needs a wire transport (--transport process|socket)".to_string(),
            );
        }
        if opts.workers < 2 {
            return Err(
                "--fault-inject needs --workers >= 2 (survivors must absorb the dead \
                 worker's jobs)"
                    .to_string(),
            );
        }
    }
    if opts.slow_eval_us.is_some() && matches!(opts.transport, TransportChoice::Memory) {
        // The sleep is injected on the worker side of the wire protocol;
        // in-memory evaluation has no worker process to slow down.
        return Err(
            "--slow-eval-us needs a wire transport (--transport process|socket)".to_string(),
        );
    }
    if opts.reshuffle_always && opts.scenario.is_none() {
        // Elision only ever happens between the queries of a multi-query
        // scenario; anywhere else the flag would silently do nothing.
        return Err(
            "--reshuffle-always requires --scenario (it disables the reshuffle \
                    elision between a scenario's queries)"
                .to_string(),
        );
    }
    if opts.semi_naive && opts.rounds.is_none() && opts.scenario.is_none() {
        return Err("--semi-naive requires --rounds (it is a multi-round mode)".to_string());
    }

    let session = TraceSession::begin(opts.trace.as_deref());
    session.finish(run_dispatch(&positional, &opts))
}

/// The selected `run` arm — multi-query scenario, single-query
/// multi-round, or plain one-round evaluation — after flag parsing and
/// validation. Split out of [`run_command`] so a [`TraceSession`] can
/// bracket every arm uniformly.
fn run_dispatch(positional: &[&String], opts: &RunOptions) -> Result<bool, String> {
    if let Some(path) = opts.scenario.clone() {
        if !positional.is_empty() {
            return Err(
                "--scenario replaces the positional <query> <policy> <instance> specs".to_string(),
            );
        }
        if opts.schedule.is_some() {
            return Err(
                "--schedule cannot be combined with --scenario (the file has its own schedule)"
                    .to_string(),
            );
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let scenario = Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let policies = scenario
            .build_schedule()
            .map_err(|e| format!("{path}: {e}"))?;
        let rounds = opts.rounds.unwrap_or(scenario.rounds);
        let feedback = opts
            .feedback
            .clone()
            .or_else(|| scenario.feedback.map(|f| f.to_string()));
        let schedule_label = scenario
            .schedule
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        if scenario.queries.len() > 1 {
            return run_multi_query(
                &scenario.queries,
                Some(schedule_label),
                &path,
                &scenario.instance,
                policies,
                rounds,
                feedback.as_deref(),
                opts,
            );
        }
        return run_multi_round(
            scenario.query(),
            &format!("scenario:{path}"),
            Some(schedule_label),
            &path,
            &scenario.instance,
            policies,
            rounds,
            feedback.as_deref(),
            opts,
        );
    }

    let [query_spec, policy_spec, instance_spec] = positional[..] else {
        return Err("run needs <query> <policy> <instance> (or --scenario <file>)".to_string());
    };

    if opts.rounds.is_none() {
        // These flags only mean something across rounds; silently running a
        // single round instead would misreport what the user asked for.
        if opts.schedule.is_some() {
            return Err("--schedule requires --rounds".to_string());
        }
        if opts.feedback.is_some() {
            return Err("--feedback requires --rounds".to_string());
        }
    }

    let query = load_run_query(query_spec)?;
    let instance = load_run_instance(instance_spec, &query)?;

    if let Some(rounds) = opts.rounds {
        // The <policy> positional is always resolved — a typo'd spec must
        // fail even when --schedule overrides which policies actually run;
        // without --schedule the single <policy> spec repeats every round.
        let positional_policy = load_run_policy(policy_spec, &query, &instance)?;
        let policies: Vec<Box<dyn DistributionPolicy>> = match &opts.schedule {
            Some(spec) => workloads::named_schedule(spec, &query)?,
            None => vec![positional_policy],
        };
        return run_multi_round(
            &query,
            policy_spec,
            opts.schedule.clone(),
            instance_spec,
            &instance,
            policies,
            rounds,
            opts.feedback.as_deref(),
            opts,
        );
    }

    let policy = load_run_policy(policy_spec, &query, &instance)?;
    let engine = OneRoundEngine::new(policy.as_ref())
        .workers(opts.workers)
        .distribute_workers(opts.distribute_workers);
    // `total` covers only the one-round run; the centralized evaluation
    // below is a correctness check, not part of the round being measured.
    let total_start = std::time::Instant::now();
    let (mut transport, transport_registry) = open_transport(opts)?;
    let outcome = engine
        .evaluate_via(transport.as_mut(), 0, &query, &instance)
        .map_err(|e| e.to_string())?;
    // Stop the workers and release the shipped chunks before the verify.
    drop(transport);
    let total = total_start.elapsed();
    let metrics = export_metrics(opts, &[transport_registry])?;
    let correct = {
        let _span = obs::span!("central_verify", facts = instance.len());
        outcome.result == cq::evaluate(&query, &instance)
    };

    if opts.json {
        let per_node = JsonValue::array(outcome.per_node_output.keys().map(|node| {
            JsonValue::object([
                ("node", JsonValue::from(node.as_str())),
                (
                    "load",
                    JsonValue::from(outcome.per_node_load.get(node).copied().unwrap_or(0)),
                ),
                (
                    "output",
                    JsonValue::from(outcome.per_node_output.get(node).copied().unwrap_or(0)),
                ),
                (
                    "time_us",
                    JsonValue::from(
                        outcome
                            .per_node_time
                            .get(node)
                            .copied()
                            .unwrap_or_default()
                            .as_micros(),
                    ),
                ),
            ])
        }));
        let doc = JsonValue::object([
            ("query", JsonValue::from(query.to_string())),
            ("policy", JsonValue::from(policy_spec.as_str())),
            ("instance", JsonValue::from(instance_spec.as_str())),
            ("instance_facts", JsonValue::from(instance.len())),
            ("workers", JsonValue::from(outcome.workers)),
            ("transport", JsonValue::from(opts.transport.label())),
            (
                "index_cache",
                JsonValue::object([
                    ("hits", JsonValue::from(outcome.index_cache_hits)),
                    ("misses", JsonValue::from(outcome.index_cache_misses)),
                ]),
            ),
            ("result_size", JsonValue::from(outcome.result.len())),
            ("parallel_correct", JsonValue::from(correct)),
            ("comm_bytes", JsonValue::from(outcome.comm_bytes)),
            (
                "stats",
                JsonValue::object([
                    ("nodes", JsonValue::from(outcome.stats.nodes)),
                    (
                        "total_assigned",
                        JsonValue::from(outcome.stats.total_assigned),
                    ),
                    (
                        "distinct_assigned",
                        JsonValue::from(outcome.stats.distinct_assigned),
                    ),
                    ("max_load", JsonValue::from(outcome.stats.max_load)),
                    ("skipped", JsonValue::from(outcome.stats.skipped)),
                    (
                        "replication_factor",
                        JsonValue::fixed(outcome.stats.replication_factor, 4),
                    ),
                ]),
            ),
            (
                "timings_us",
                JsonValue::object([
                    (
                        "distribute",
                        JsonValue::from(outcome.distribute_time.as_micros()),
                    ),
                    (
                        "local_eval",
                        JsonValue::from(outcome.local_eval_time.as_micros()),
                    ),
                    ("total", JsonValue::from(total.as_micros())),
                ]),
            ),
            ("per_node", per_node),
            ("histograms", histograms_block(&metrics)),
        ]);
        let doc = with_dropped_events(doc, opts);
        say!("{doc}");
    } else {
        say!("query:       {query}");
        say!("policy:      {policy_spec}");
        say!("instance:    {instance_spec} ({} facts)", instance.len());
        say!("workers:     {}", outcome.workers);
        say!("transport:   {}", opts.transport.label());
        say!(
            "index cache: {} hits / {} misses",
            outcome.index_cache_hits,
            outcome.index_cache_misses
        );
        say!("result size: {}", outcome.result.len());
        say!(
            "correct:     {}",
            if correct {
                "yes"
            } else {
                "NO (one-round result differs from centralized)"
            }
        );
        say!("distribution: {}", outcome.stats);
        say!("comm bytes:  {} on the wire", outcome.comm_bytes);
        say!(
            "timings:     distribute={}µs local_eval={}µs total={}µs skew={:.2}",
            outcome.distribute_time.as_micros(),
            outcome.local_eval_time.as_micros(),
            total.as_micros(),
            outcome.time_skew()
        );
        for (node, output) in &outcome.per_node_output {
            say!(
                "  {node}: load={} output={} time={}µs",
                outcome.per_node_load.get(node).copied().unwrap_or(0),
                output,
                outcome
                    .per_node_time
                    .get(node)
                    .copied()
                    .unwrap_or_default()
                    .as_micros()
            );
        }
    }
    Ok(correct)
}

/// Collects the run's metrics registries into one JSON document
/// (counters summed, histograms unioned), writing it to `--metrics` when
/// requested. Returns the document so the `--json` arms can lift its
/// `histograms` block into their reports.
fn export_metrics(
    opts: &RunOptions,
    registries: &[std::sync::Arc<obs::Registry>],
) -> Result<JsonValue, String> {
    let refs: Vec<&obs::Registry> = registries.iter().map(AsRef::as_ref).collect();
    let doc = wire::merged_registry_json(&refs);
    if let Some(path) = &opts.metrics {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    Ok(doc)
}

/// The `histograms` block of a metrics document — per-name count / sum /
/// min / max / mean / p50 / p90 / p99, identical to the `--metrics`
/// file's block.
fn histograms_block(metrics: &JsonValue) -> JsonValue {
    metrics
        .get("histograms")
        .cloned()
        .unwrap_or(JsonValue::Null)
}

/// Appends a `dropped_events` field to a traced run's JSON report: the
/// machine-readable counterpart of the stderr warning, so automation
/// learns the trace is incomplete without scraping stderr.
fn with_dropped_events(mut doc: JsonValue, opts: &RunOptions) -> JsonValue {
    if opts.trace.is_some() {
        doc.push("dropped_events", JsonValue::from(obs::dropped_events()));
    }
    doc
}

/// Rejects a `--feedback` relation the query never reads — or reads at a
/// different arity — which would make the recursion silently inert; the
/// user asked for iteration, so that is a usage error.
fn validate_feedback(query: &ConjunctiveQuery, feedback: &str) -> Result<(), String> {
    let head_arity = query.head().arity();
    match query.schema().arity(Symbol::new(feedback)) {
        Some(arity) if arity == head_arity => Ok(()),
        Some(arity) => Err(format!(
            "--feedback {feedback}: the query reads '{feedback}' with arity {arity}, but the head has arity {head_arity}"
        )),
        None => Err(format!(
            "--feedback {feedback}: the query does not read relation '{feedback}'"
        )),
    }
}

/// The multi-query arm of `run --scenario`: the queries run in sequence
/// over the same instance; between consecutive queries the engine checks
/// pc-transferability and elides the reshuffle when it holds (the next
/// query evaluates on the shards resident from its predecessor).
///
/// Exit-code contract: 0 = every query's distributed result equals the
/// global fixpoint of its centralized iterated form.
#[allow(clippy::too_many_arguments)]
fn run_multi_query(
    queries: &[ConjunctiveQuery],
    schedule_label: Option<String>,
    scenario_label: &str,
    instance: &Instance,
    policies: Vec<Box<dyn DistributionPolicy>>,
    rounds: usize,
    feedback: Option<&str>,
    opts: &RunOptions,
) -> Result<bool, String> {
    let refs: Vec<&dyn DistributionPolicy> = policies.iter().map(Box::as_ref).collect();
    let mut engine = MultiRoundEngine::new(RoundSchedule::of(refs))
        .rounds(rounds)
        .workers(opts.workers)
        .distribute_workers(opts.distribute_workers)
        .semi_naive(opts.semi_naive)
        .reshuffle_always(opts.reshuffle_always);
    if let Some(feedback) = feedback {
        for (i, query) in queries.iter().enumerate() {
            validate_feedback(query, feedback).map_err(|e| format!("query {i}: {e}"))?;
        }
        engine = engine.feedback_into(feedback);
    }

    // Memoized so repeated query pairs (common in alternating workloads)
    // pay for the containment checks once.
    let mut cache = TransferCache::new();
    let total_start = std::time::Instant::now();
    let (mut transport, transport_registry) = open_transport(opts)?;
    let outcome = engine
        .evaluate_queries_via(transport.as_mut(), queries, instance, &mut |p, q| {
            cache.transfers(p, q)
        })
        .map_err(|e| e.to_string())?;
    drop(transport);
    let total = total_start.elapsed();
    let metrics = export_metrics(opts, &[engine.registry(), transport_registry])?;

    let transfer_checks = outcome.transfer_checks;
    let elided = outcome.elided_reshuffles();
    let reshards = outcome.reshard_rounds();
    let comm_volume = outcome.total_comm_volume();
    let comm_bytes = outcome.total_comm_bytes();
    let reports: Vec<MultiRoundInstanceReport> = {
        let _span = obs::span!("central_verify", queries = queries.len());
        outcome
            .per_query
            .into_iter()
            .zip(queries)
            .map(|(o, query)| MultiRoundInstanceReport::from_outcome(query, &engine, instance, o))
            .collect()
    };
    let correct = reports.iter().all(|r| r.correct);

    if opts.json {
        let per_query = JsonValue::array(queries.iter().zip(&reports).map(|(query, report)| {
            let o = &report.outcome;
            JsonValue::object([
                ("query", JsonValue::from(query.to_string())),
                ("rounds_run", JsonValue::from(o.rounds_run())),
                ("converged", JsonValue::from(o.converged)),
                ("elided_reshuffles", JsonValue::from(o.elided_reshuffles)),
                ("reshard_rounds", JsonValue::from(o.reshard_rounds.len())),
                ("result_size", JsonValue::from(o.result.len())),
                ("correct", JsonValue::from(report.correct)),
                ("comm_volume", JsonValue::from(o.total_comm_volume())),
                ("comm_bytes", JsonValue::from(o.total_comm_bytes())),
            ])
        }));
        let doc = JsonValue::object([
            ("scenario", JsonValue::from(scenario_label)),
            ("schedule", JsonValue::from(schedule_label)),
            ("queries", JsonValue::from(queries.len())),
            ("instance_facts", JsonValue::from(instance.len())),
            ("workers", JsonValue::from(opts.workers)),
            ("semi_naive", JsonValue::from(opts.semi_naive)),
            ("transport", JsonValue::from(opts.transport.label())),
            ("reshuffle_always", JsonValue::from(opts.reshuffle_always)),
            ("rounds_requested", JsonValue::from(rounds)),
            ("transfer_checks", JsonValue::from(transfer_checks)),
            ("elided_reshuffles", JsonValue::from(elided)),
            ("reshard_rounds", JsonValue::from(reshards)),
            ("multi_round_correct", JsonValue::from(correct)),
            ("total_comm_volume", JsonValue::from(comm_volume)),
            ("total_comm_bytes", JsonValue::from(comm_bytes)),
            ("total_us", JsonValue::from(total.as_micros())),
            ("per_query", per_query),
            ("histograms", histograms_block(&metrics)),
        ]);
        let doc = with_dropped_events(doc, opts);
        say!("{doc}");
    } else {
        say!("scenario:    {scenario_label} ({} queries)", queries.len());
        if let Some(s) = &schedule_label {
            say!("schedule:    {s}");
        }
        if let Some(feedback) = feedback {
            say!("feedback:    outputs re-enter as {feedback}");
        }
        say!("instance:    {} facts", instance.len());
        say!("transport:   {}", opts.transport.label());
        if opts.semi_naive {
            say!("mode:        semi-naive (rounds ship deltas, nodes keep state)");
        }
        if opts.reshuffle_always {
            say!("mode:        reshuffle-always (transferability elision disabled)");
        }
        say!(
            "transfer:    {transfer_checks} check(s), {elided} reshuffle(s) elided, \
             {reshards} re-shard round(s)"
        );
        say!(
            "correct:     {}",
            if correct {
                "yes (every query equals its global fixpoint)"
            } else {
                "NO (some query's distributed result differs from its fixpoint)"
            }
        );
        say!(
            "comm volume: {comm_volume} fact-assignments over all queries \
             ({comm_bytes} bytes on the wire)"
        );
        say!("timings:     total={}µs", total.as_micros());
        for (i, (query, report)) in queries.iter().zip(&reports).enumerate() {
            let o = &report.outcome;
            say!(
                "  query {i}: {query} — {} round(s), {}, output={}{}",
                o.rounds_run(),
                if o.elided_reshuffles > 0 {
                    "elided (ran on resident shards)"
                } else {
                    "resharded"
                },
                o.result.len(),
                if report.correct { "" } else { " INCORRECT" },
            );
        }
    }
    Ok(correct)
}

/// The multi-round arm of `run`: iterated distribute→evaluate cycles under
/// a resolved policy schedule, compared against the global fixpoint of the
/// centralized iterated query.
#[allow(clippy::too_many_arguments)]
fn run_multi_round(
    query: &ConjunctiveQuery,
    policy_label: &str,
    schedule_label: Option<String>,
    instance_label: &str,
    instance: &Instance,
    policies: Vec<Box<dyn DistributionPolicy>>,
    rounds: usize,
    feedback: Option<&str>,
    opts: &RunOptions,
) -> Result<bool, String> {
    let refs: Vec<&dyn DistributionPolicy> = policies.iter().map(Box::as_ref).collect();
    let mut engine = MultiRoundEngine::new(RoundSchedule::of(refs))
        .rounds(rounds)
        .workers(opts.workers)
        .distribute_workers(opts.distribute_workers)
        .semi_naive(opts.semi_naive);
    if let Some(feedback) = feedback {
        validate_feedback(query, feedback)?;
        engine = engine.feedback_into(feedback);
    }

    // `total` covers only the distributed multi-round run (same contract as
    // the one-round arm); the centralized reference fixpoint inside the
    // report is a correctness check, not part of the rounds being measured.
    let total_start = std::time::Instant::now();
    let (mut transport, transport_registry) = open_transport(opts)?;
    let outcome = engine
        .evaluate_via(transport.as_mut(), query, instance)
        .map_err(|e| e.to_string())?;
    drop(transport);
    let total = total_start.elapsed();
    let metrics = export_metrics(opts, &[engine.registry(), transport_registry])?;
    let report = {
        let _span = obs::span!("central_verify", facts = instance.len());
        MultiRoundInstanceReport::from_outcome(query, &engine, instance, outcome)
    };
    let outcome = &report.outcome;

    if opts.json {
        let per_round = JsonValue::array(outcome.rounds.iter().enumerate().map(|(i, round)| {
            JsonValue::object([
                ("round", JsonValue::from(i)),
                ("result_size", JsonValue::from(round.result.len())),
                ("nodes", JsonValue::from(round.stats.nodes)),
                (
                    "total_assigned",
                    JsonValue::from(round.stats.total_assigned),
                ),
                ("max_load", JsonValue::from(round.stats.max_load)),
                ("skipped", JsonValue::from(round.stats.skipped)),
                (
                    "replication_factor",
                    JsonValue::fixed(round.stats.replication_factor, 4),
                ),
                ("comm_bytes", JsonValue::from(round.comm_bytes)),
                (
                    "distribute_us",
                    JsonValue::from(round.distribute_time.as_micros()),
                ),
                (
                    "local_eval_us",
                    JsonValue::from(round.local_eval_time.as_micros()),
                ),
            ])
        }));
        let doc = JsonValue::object([
            ("query", JsonValue::from(query.to_string())),
            ("policy", JsonValue::from(policy_label)),
            ("schedule", JsonValue::from(schedule_label)),
            ("instance", JsonValue::from(instance_label)),
            ("instance_facts", JsonValue::from(instance.len())),
            ("workers", JsonValue::from(opts.workers)),
            ("semi_naive", JsonValue::from(opts.semi_naive)),
            ("transport", JsonValue::from(opts.transport.label())),
            ("rounds_requested", JsonValue::from(rounds)),
            ("rounds_run", JsonValue::from(outcome.rounds_run())),
            ("reference_rounds", JsonValue::from(report.reference_rounds)),
            ("converged", JsonValue::from(outcome.converged)),
            ("multi_round_correct", JsonValue::from(report.correct)),
            ("result_size", JsonValue::from(outcome.result.len())),
            ("missing", JsonValue::from(report.missing.len())),
            (
                "total_comm_volume",
                JsonValue::from(outcome.total_comm_volume()),
            ),
            (
                "total_comm_bytes",
                JsonValue::from(outcome.total_comm_bytes()),
            ),
            (
                "timings_us",
                JsonValue::object([
                    (
                        "distribute",
                        JsonValue::from(outcome.total_distribute_time().as_micros()),
                    ),
                    (
                        "local_eval",
                        JsonValue::from(outcome.total_local_eval_time().as_micros()),
                    ),
                    ("total", JsonValue::from(total.as_micros())),
                ]),
            ),
            ("rounds", per_round),
            ("histograms", histograms_block(&metrics)),
        ]);
        let doc = with_dropped_events(doc, opts);
        say!("{doc}");
    } else {
        say!("query:       {query}");
        match &schedule_label {
            Some(s) => say!("schedule:    {s}"),
            None => say!("policy:      {policy_label} (every round)"),
        }
        if let Some(feedback) = feedback {
            say!("feedback:    outputs re-enter as {feedback}");
        }
        say!("instance:    {instance_label} ({} facts)", instance.len());
        say!("transport:   {}", opts.transport.label());
        if opts.semi_naive {
            say!("mode:        semi-naive (rounds ship deltas, nodes keep state)");
        }
        say!(
            "rounds:      {} run / {} requested (reference fixpoint: {})",
            outcome.rounds_run(),
            rounds,
            report.reference_rounds
        );
        say!("converged:   {}", outcome.converged);
        say!("result size: {}", outcome.result.len());
        say!(
            "correct:     {}",
            if report.correct {
                "yes (equals the global fixpoint)"
            } else {
                "NO (distributed result differs from the iterated fixpoint)"
            }
        );
        say!(
            "comm volume: {} fact-assignments over all rounds ({} bytes on the wire)",
            outcome.total_comm_volume(),
            outcome.total_comm_bytes()
        );
        say!(
            "timings:     distribute={}µs local_eval={}µs total={}µs",
            outcome.total_distribute_time().as_micros(),
            outcome.total_local_eval_time().as_micros(),
            total.as_micros()
        );
        for (i, round) in outcome.rounds.iter().enumerate() {
            say!(
                "  round {i}: output={} {} time={}µs",
                round.result.len(),
                round.stats,
                (round.distribute_time + round.local_eval_time).as_micros()
            );
        }
    }
    Ok(report.correct)
}

/// The `encode` subcommand: writes one binary frame for a query, an
/// instance or a scenario to stdout (pipe it to `pcq-analyze decode`, a
/// file, or another process).
fn encode_command(args: &[String]) -> Result<bool, String> {
    let kind = args
        .first()
        .ok_or("encode needs (query|instance|scenario)")?;
    let spec = args.get(1).ok_or("encode needs a <spec> after the kind")?;
    if args.len() > 2 {
        return Err(format!("unexpected argument '{}'", args[2]));
    }
    let message = match kind.as_str() {
        "query" => wire::Message::Query(load_run_query(spec)?),
        "instance" => {
            let text = read_spec_text(spec)?;
            let instance = cq::parse_instance(text.trim())
                .map_err(|e| format!("cannot parse instance '{spec}': {e}"))?;
            wire::Message::Instance(instance)
        }
        "scenario" => {
            let text = read_spec_text(spec)?;
            let scenario = Scenario::parse(&text)
                .map_err(|e| format!("cannot parse scenario '{spec}': {e}"))?;
            wire::Message::Scenario(scenario)
        }
        other => return Err(format!("cannot encode '{other}' (query|instance|scenario)")),
    };
    std::io::stdout()
        .write_all(&wire::encode_frame(&message))
        .map_err(|e| format!("cannot write frame: {e}"))?;
    Ok(true)
}

/// The `decode` subcommand: reads one binary frame from stdin and prints
/// its textual form (queries and facts in `cq` syntax, scenarios in the
/// scenario format) — the inverse of `encode`.
fn decode_command(args: &[String]) -> Result<bool, String> {
    if !args.is_empty() {
        return Err("decode reads a frame from stdin and takes no arguments".to_string());
    }
    use std::io::Read;
    let mut bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    let message: wire::Message =
        wire::decode_frame(&bytes).map_err(|e| format!("cannot decode frame: {e}"))?;
    match message {
        wire::Message::Query(query) => say!("{query}"),
        wire::Message::Instance(instance) => {
            for fact in instance.facts() {
                say!("{fact}.");
            }
        }
        wire::Message::Scenario(scenario) => emit(format_args!("{scenario}")),
        other => {
            // Protocol messages decode fine but have no canonical textual
            // source form; describe them instead of inventing one.
            say!("{}: {other:?}", other.kind());
        }
    }
    Ok(true)
}

/// One parsed trajectory record: a bench name and its `(id, mean_ns)` rows.
struct BenchRun {
    bench: String,
    results: Vec<(String, u128)>,
}

/// Parses one JSONL line of the trajectory format written by the vendored
/// criterion (`{"bench":…,"unix_ms":…,"results":[{"id":…,"mean_ns":…},…]}`).
/// Hand-rolled because the vendored serde is a no-op; the format is
/// machine-generated, so a scanning extractor is sufficient.
fn parse_bench_line(line: &str) -> Result<BenchRun, String> {
    /// Reads the JSON string following `key`, unescaping the `\"` and `\\`
    /// sequences criterion's `json_escape` emits (other escapes pass
    /// through verbatim — both runs go through this same parser, so ids
    /// still compare consistently). Returns the string and the offset just
    /// past its closing quote.
    fn string_after(text: &str, key: &str) -> Option<(String, usize)> {
        let start = text.find(key)? + key.len();
        let mut out = String::new();
        let mut escaped = false;
        for (offset, c) in text[start..].char_indices() {
            if escaped {
                match c {
                    '"' | '\\' => out.push(c),
                    other => {
                        out.push('\\');
                        out.push(other);
                    }
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Some((out, start + offset + 1));
            } else {
                out.push(c);
            }
        }
        None // unterminated string
    }
    let (bench, _) = string_after(line, "\"bench\":\"").ok_or("line has no \"bench\" field")?;
    let mut results = Vec::new();
    let mut rest = line;
    while let Some((id, consumed)) = string_after(rest, "\"id\":\"") {
        rest = &rest[consumed..];
        let mean_key = "\"mean_ns\":";
        let at = rest
            .find(mean_key)
            .ok_or(format!("id '{id}' has no mean_ns"))?;
        let digits: String = rest[at + mean_key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let mean_ns: u128 = digits
            .parse()
            .map_err(|_| format!("id '{id}': malformed mean_ns"))?;
        results.push((id, mean_ns));
    }
    if results.is_empty() {
        return Err(format!("bench '{bench}' record has no results"));
    }
    Ok(BenchRun { bench, results })
}

/// The `bench-diff` subcommand: the CI bench-regression gate. Compares,
/// for every bench (or only `--bench`-named ones), the most recent
/// trajectory record against the **median of the previous `--window`
/// records** (default 3; window 1 is plain latest-vs-previous); exits 1
/// when any benchmark slowed down by more than `--threshold-pct` (entries
/// below `--min-ns` in both runs are noise and are skipped).
fn bench_diff(args: &[String]) -> Result<bool, String> {
    let mut path: Option<&String> = None;
    let mut threshold_pct = 25.0f64;
    let mut min_ns = 100_000u128;
    let mut window = 3usize;
    let mut only: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold-pct" => {
                let value = iter.next().ok_or("--threshold-pct needs a number")?;
                threshold_pct = value
                    .parse()
                    .map_err(|_| format!("--threshold-pct: '{value}' is not a number"))?;
                if threshold_pct <= 0.0 {
                    return Err("--threshold-pct must be positive".to_string());
                }
            }
            "--min-ns" => {
                let value = iter.next().ok_or("--min-ns needs a number")?;
                min_ns = value
                    .parse()
                    .map_err(|_| format!("--min-ns: '{value}' is not a number"))?;
            }
            "--window" => {
                let value = iter.next().ok_or("--window needs a number")?;
                window = value
                    .parse()
                    .map_err(|_| format!("--window: '{value}' is not a number"))?;
                if window == 0 {
                    return Err("--window must be at least 1".to_string());
                }
            }
            "--bench" => only.push(iter.next().ok_or("--bench needs a name")?.to_string()),
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            _ if path.is_none() => path = Some(arg),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let path = path.ok_or("bench-diff needs a <trajectory-file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    // Latest-two records per bench name, in file (= chronological) order.
    let mut history: std::collections::BTreeMap<String, Vec<BenchRun>> =
        std::collections::BTreeMap::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let run = parse_bench_line(line)?;
        history.entry(run.bench.clone()).or_default().push(run);
    }
    if history.is_empty() {
        return Err(format!("{path} contains no bench records"));
    }
    for name in &only {
        if !history.contains_key(name) {
            return Err(format!("bench '{name}' does not appear in {path}"));
        }
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (bench, runs) in &history {
        if !only.is_empty() && !only.contains(bench) {
            continue;
        }
        let [baseline_runs @ .., latest] = &runs[..] else {
            unreachable!("history entries are created non-empty");
        };
        if baseline_runs.is_empty() {
            say!("bench-diff: {bench}: only one run recorded, nothing to compare");
            continue;
        }
        // Trend-aware baseline: per benchmark id, the median over the last
        // `window` runs before the latest — one noisy CI run can no longer
        // fake (or mask) a regression. Window 1 is plain latest-vs-previous.
        let tail = &baseline_runs[baseline_runs.len().saturating_sub(window)..];
        let mut baseline: std::collections::BTreeMap<&str, Vec<u128>> =
            std::collections::BTreeMap::new();
        for run in tail {
            for (id, ns) in &run.results {
                baseline.entry(id.as_str()).or_default().push(*ns);
            }
        }
        for (id, new_ns) in &latest.results {
            let Some(history_ns) = baseline.get_mut(id.as_str()) else {
                continue;
            };
            let old_ns = median(history_ns);
            if old_ns.max(*new_ns) < min_ns {
                continue; // sub-resolution noise
            }
            compared += 1;
            let change_pct = (*new_ns as f64 - old_ns as f64) / old_ns as f64 * 100.0;
            if change_pct > threshold_pct {
                regressions += 1;
                say!(
                    "REGRESSION {bench}/{id}: median({} run(s)) {old_ns}ns -> {new_ns}ns (+{change_pct:.1}% > {threshold_pct:.0}%)",
                    history_ns.len()
                );
            }
        }
    }
    say!(
        "bench-diff: {compared} benchmarks compared, {regressions} regression(s) above {threshold_pct:.0}% (window {window})"
    );
    Ok(regressions == 0)
}

/// The median of a non-empty sample (lower-middle for even sizes — the
/// conservative choice for a regression baseline: it never exceeds both
/// middle values). Sorts in place.
fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

/// Parses the policy-file format described in the module documentation
/// into a `wire::ExplicitSpec` and delegates the materialization — the
/// file format and the scenario `policy { … }` stanza share one
/// definition of what an explicit policy *means*.
fn parse_policy(text: &str) -> Result<ExplicitPolicy, String> {
    let mut spec = ExplicitSpec::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let (head, rest) = line
            .split_once(':')
            .ok_or(format!("line {}: expected 'node: facts…'", lineno + 1))?;
        let head = head.trim();
        if head == "default" {
            for name in rest.split_whitespace() {
                spec.default.push(Symbol::new(name));
            }
            continue;
        }
        // facts are separated by whitespace outside parentheses; reuse the
        // instance parser which accepts whitespace/comma/period separators.
        let facts = cq::parse_instance(rest).map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        spec.assignments
            .entry(Symbol::new(head))
            .or_default()
            .extend(facts.facts().cloned());
    }
    spec.build_policy()
}

fn load_policy(path: &str) -> Result<ExplicitPolicy, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_policy(&text)
}

fn analyze(query: &ConjunctiveQuery) -> bool {
    say!("query:             {query}");
    say!("input schema:      {}", query.schema());
    say!("full:              {}", query.is_full());
    say!("boolean:           {}", query.is_boolean());
    say!("self-joins:        {}", query.has_self_joins());
    say!("acyclic (GYO):     {}", cq::is_acyclic(query));
    say!("minimal:           {}", cq::is_minimal(query));
    let strongly = is_strongly_minimal(query);
    say!("strongly minimal:  {strongly}");
    say!("Lemma 4.8 applies: {}", pc_core::satisfies_lemma_4_8(query));
    let min = cq::minimize(query);
    if min.core.body_size() < query.body_size() {
        say!("core:              {}", min.core);
    }
    true
}

/// How the minimality asks of a `pc` / `transfer` decision were answered.
fn minimality_line(asks: CacheStats) -> String {
    format!(
        "minimality: {} candidates, {} by equality type, {} searched",
        asks.hits + asks.misses,
        asks.hits,
        asks.misses
    )
}

fn parallel_correctness(query: &ConjunctiveQuery, policy: &ExplicitPolicy) -> bool {
    say!("query:   {query}");
    say!("network: {}", policy.network());
    let report = check_parallel_correctness(query, policy);
    say!("{}", minimality_line(report.cache_stats()));
    if report.is_correct() {
        say!("parallel-correct: yes (every minimal valuation meets at some node)");
        true
    } else {
        say!("parallel-correct: NO");
        if let Some(violation) = &report.violation {
            say!("  minimal valuation:       {}", violation.valuation);
            say!(
                "  counterexample instance: {}",
                violation.counterexample_instance
            );
            say!("  lost fact:               {}", violation.lost_fact);
        }
        false
    }
}

fn transfer(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    mode: Option<&str>,
) -> Result<bool, String> {
    say!("from: {from}");
    say!("to:   {to}");
    let report = match mode {
        None => check_transfer(from, to),
        Some("--no-skip") => pc_core::check_transfer_no_skip(from, to),
        Some("--strongly-minimal") => {
            if !is_strongly_minimal(from) {
                return Err("--strongly-minimal requires a strongly minimal source query".into());
            }
            check_transfer_strongly_minimal(from, to)
        }
        Some(other) => return Err(format!("unknown flag '{other}'")),
    };
    say!("{}", minimality_line(report.cache_stats()));
    say!(
        "parallel-correctness transfers ({}): {}",
        report.method,
        if report.transfers { "yes" } else { "NO" }
    );
    if let Some(violation) = &report.violation {
        say!("  witness valuation of Q':  {}", violation.valuation);
        say!(
            "  facts no minimal valuation of Q covers: {}",
            violation.required_facts
        );
    }
    Ok(report.transfers)
}

fn hypercube(query: &ConjunctiveQuery, prime: &ConjunctiveQuery) -> bool {
    say!("family of: {query}");
    say!("candidate: {prime}");
    let report = hypercube_parallel_correct(query, prime);
    say!(
        "parallel-correct for the Hypercube family H_Q: {}",
        if report.parallel_correct { "yes" } else { "NO" }
    );
    report.parallel_correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use distribution::DistributionPolicy;

    #[test]
    fn policy_file_parsing() {
        let text = "
            # the Example 3.5 policy over {a, b}
            n0: R(a, a) R(b, a) R(b, b)
            n1: R(a, a), R(a, b), R(b, b)
        ";
        let policy = parse_policy(text).unwrap();
        assert_eq!(policy.network().len(), 2);
        assert_eq!(
            policy.nodes_for(&Fact::from_names("R", &["a", "a"])).len(),
            2
        );
        assert_eq!(
            policy.nodes_for(&Fact::from_names("R", &["a", "b"])).len(),
            1
        );
        assert!(policy
            .nodes_for(&Fact::from_names("R", &["c", "c"]))
            .is_empty());
    }

    #[test]
    fn policy_file_default_line() {
        let text = "default: n0 n1\nn0: R(a, b)";
        let policy = parse_policy(text).unwrap();
        assert_eq!(
            policy.nodes_for(&Fact::from_names("R", &["z", "z"])).len(),
            2
        );
    }

    #[test]
    fn bad_policy_files_are_rejected() {
        assert!(parse_policy("").is_err());
        assert!(parse_policy("n0 R(a,b)").is_err());
        assert!(parse_policy("n0: R(a,").is_err());
    }

    #[test]
    fn literal_queries_are_accepted() {
        let q = load_query("T(x) :- R(x, y).").unwrap();
        assert_eq!(q.body_size(), 1);
        assert!(load_query("not a query").is_err());
    }

    #[test]
    fn end_to_end_pc_command() {
        let query = load_query("T(x, z) :- R(x, y), R(y, z), R(x, x).").unwrap();
        let policy =
            parse_policy("n0: R(a, a) R(b, a) R(b, b)\nn1: R(a, a) R(a, b) R(b, b)").unwrap();
        assert!(parallel_correctness(&query, &policy));
        let path = load_query("T(x, z) :- R(x, y), R(y, z).").unwrap();
        assert!(!parallel_correctness(&path, &policy));
    }
}
