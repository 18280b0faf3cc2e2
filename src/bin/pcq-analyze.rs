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
//!                          [--slow-eval-us N]
//!   pcq-analyze run        --scenario <file.pcq> [--json] [--workers N]
//!                          [--rounds N] [--feedback R] [--semi-naive]
//!                          [--transport T] [--reshuffle-always]
//!                          [--trace FILE]
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
//!   <policy>       hypercube:<budget>, hash-join:<buckets>,
//!                  broadcast:<nodes>, round-robin:<nodes> — or any other
//!                  policy of the scenario grammar, `name:n` being its
//!                  `name(n)` — or a policy file as above.
//!   <instance>     random:<domain>:<facts>[:seed],
//!                  zipf:<domain>:<facts>:<exponent-percent>[:seed], a file
//!                  of facts, or literal facts such as "R(a, b). R(b, c)."
//!   <file.pcq>     a scenario file in the wire crate's textual format:
//!                  query (or a `queries { … }` sequence), instance,
//!                  schedule, rounds, feedback in one file.
//! ```
//!
//! `run` reshuffles the instance under the policy, evaluates the query
//! locally at every node and takes the union, reporting result size,
//! per-node load and per-node timings (`--json` for machine-readable
//! output, emitted through the `wire::json` serializer). Either grammar —
//! the positional specs or `--scenario` — lowers into one `wire::Scenario`,
//! which one executor runs and one report describes; what differs between
//! runs is what the answer is compared with. Without `--rounds` that is the
//! centralized answer (Definition 3.1). With `--rounds N` the run iterates
//! distribute→evaluate cycles: `--schedule` names per-round policies (a
//! comma-separated list of the `<policy>` names; default: the `<policy>`
//! argument every round), `--feedback R` renames each round's outputs into
//! relation `R` before the next reshuffle (making the query effectively
//! recursive), and the result is compared against the global fixpoint of
//! the centralized iterated query.
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
//! `run --json` carries the merged metrics registries (engine +
//! transport) under `"counters"` and `"histograms"`: every counter, and
//! for every histogram (`round_latency_us`, `chunk_facts`,
//! `window_wait_us`, `frame_bytes`) the exact count/sum/min/max plus
//! p50/p90/p99 nearest-rank quantiles over the most recent 4096 samples.
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

use distribution::{DistributionStats, OneRoundOutcome};
use pcq::obs;
use pcq::prelude::*;
use pcq::wire::{self, PolicySpec};

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
    "usage:\n  pcq-analyze analyze    <query>\n  pcq-analyze pc         <query> <policy-file>\n  pcq-analyze transfer   <query-from> <query-to> [--no-skip | --strongly-minimal]\n  pcq-analyze hypercube  <query> <query-prime>\n  pcq-analyze run        <query> <policy> <instance> [--workers N] [--json]\n                         [--rounds N] [--schedule S] [--feedback R]\n                         [--semi-naive] [--distribute-workers N]\n                         [--transport memory|process|socket]\n                         [--fault-inject N] [--trace FILE]\n                         [--slow-eval-us N]\n  pcq-analyze run        --scenario <file.pcq> [--json] [--workers N]\n                         [--rounds N] [--feedback R] [--semi-naive]\n                         [--transport T] [--reshuffle-always]\n                         [--trace FILE]\n  pcq-analyze trace      summarize <trace.json> [--json]\n  pcq-analyze trace      diff <base.json> <new.json> [--json]\n                         [--threshold PCT] [--min-us N]\n  pcq-analyze encode     (query|instance|scenario) <spec>\n  pcq-analyze decode\n  pcq-analyze worker     [--connect host:port --token K] [--fail-after N]\n                         [--slow-eval-us N]\n  pcq-analyze bench-diff <trajectory-file> [--threshold-pct P] [--min-ns N]\n                         [--window N] [--bench NAME]...\n\nrun specs:\n  <query>    triangle | example3.5 | chain:<len> | star:<rays> | cycle:<len> | file | literal\n  <policy>   hypercube:<budget> | hash-join:<buckets> | broadcast:<nodes> | round-robin:<nodes> | policy-file\n  <instance> random:<domain>:<facts>[:seed] | zipf:<domain>:<facts>:<exp-percent>[:seed] | file | literal\n  <schedule> comma-separated per-round policies, by the <policy> names\n  <file.pcq> a textual scenario file (see the README's wire-format section)"
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
    /// `--slow-eval-us N`: every worker sleeps N microseconds inside each
    /// eval span — an artificial latency regression for `trace diff`
    /// fixtures (requires a wire transport).
    slow_eval_us: Option<u64>,
}

/// Ends a traced `run`: drains the merged timeline and writes the Chrome
/// trace-event file, passing the run's `result` through.
fn write_trace(path: &str, result: Result<bool, String>) -> Result<bool, String> {
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
    match std::fs::write(path, format!("{doc}\n")) {
        // A failed run is the primary error; only surface a write
        // failure when it would otherwise be silently lost.
        Ok(()) => result,
        Err(e) => result.and(Err(format!("cannot write trace to {path}: {e}"))),
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

/// Turns `--transport` into the transport a run evaluates through, paired
/// with its metrics registry: the in-process pool, or
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

/// The `run` subcommand: reshuffle, evaluate locally, take the union — once,
/// or iterated with `--rounds` or a scenario — and compare the answer with
/// the centralized reference.
///
/// Exit-code contract: 0 = the distributed result equals the reference
/// (the centralized answer of a one-round run, else the global fixpoint of
/// every query's centralized iteration), 1 = answers lost or round cap too
/// small.
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
    let text = |flag: &str, what: &str, value: Option<&String>| -> Result<String, String> {
        value.cloned().ok_or(format!("{flag} needs {what}"))
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
            "--schedule" => opts.schedule = Some(text("--schedule", "a policy list", iter.next())?),
            "--feedback" => {
                opts.feedback = Some(text("--feedback", "a relation name", iter.next())?)
            }
            "--scenario" => opts.scenario = Some(text("--scenario", "a file path", iter.next())?),
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
            "--trace" => opts.trace = Some(text("--trace", "an output file path", iter.next())?),
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
    if opts.rounds.is_none() && opts.scenario.is_none() {
        // These flags only mean something across rounds; silently running a
        // single round instead would misreport what the user asked for.
        let across_rounds = [
            ("--schedule", opts.schedule.is_some()),
            ("--feedback", opts.feedback.is_some()),
            ("--semi-naive", opts.semi_naive),
        ];
        if let Some((flag, _)) = across_rounds.iter().find(|(_, given)| *given) {
            return Err(format!("{flag} requires --rounds"));
        }
    }

    // The trace recorder and the root span bracket the whole run, from the
    // lowering to the printed report.
    let root = opts.trace.as_ref().map(|_| {
        obs::start_trace();
        obs::span!("run")
    });
    let verdict = lower(&positional, &opts).and_then(|run| {
        let report = execute(&run, &opts)?;
        if opts.json {
            say!("{}", report.to_json());
        } else {
            report.print();
        }
        Ok(report.correct())
    });
    drop(root);
    match &opts.trace {
        Some(path) => write_trace(path, verdict),
        None => verdict,
    }
}

/// What the answer of a run is compared with — the one thing in which a
/// one-round run differs from the others.
#[derive(Clone, Copy, PartialEq)]
enum Reference {
    /// One centralized `cq::evaluate` (Definition 3.1, reported as
    /// `parallel_correct`): a run given without `--rounds`. It runs the
    /// one-round engine, which carries no state from round to round.
    OneRound,
    /// The global fixpoint of every query's centralized iteration
    /// (`multi_round_correct`).
    Fixpoint,
}

/// A run, lowered from either grammar: the positional specs with `--rounds`
/// / `--schedule` / `--feedback`, or a scenario file with the flags that
/// override its stanzas.
struct Run {
    scenario: Scenario,
    reference: Reference,
    /// How the report names the policy, the schedule and the instance: the
    /// specs as they were given.
    policy_label: String,
    schedule_label: Option<String>,
    instance_label: String,
}

/// Resolves the positional `<policy>`: one policy named in the schedule
/// grammar, or a policy file — the scenario's `policy` stanza, run by an
/// `explicit` schedule entry.
fn lower_policy(arg: &str) -> Result<(PolicySpec, Option<ExplicitSpec>), String> {
    match PolicySpec::parse_schedule(arg) {
        Ok(named) => match <[PolicySpec; 1]>::try_from(named) {
            Ok([policy]) => Ok((policy, None)),
            Err(_) => Err(format!(
                "policy spec '{arg}' names several policies (that is a --schedule)"
            )),
        },
        Err(_) if std::path::Path::new(arg).exists() => {
            Ok((PolicySpec::Explicit, Some(load_policy_spec(arg)?)))
        }
        Err(named_err) => Err(format!(
            "cannot resolve policy spec '{arg}': {named_err}, and no such policy file exists"
        )),
    }
}

fn lower(positional: &[&String], opts: &RunOptions) -> Result<Run, String> {
    let feedback = opts.feedback.as_deref().map(Symbol::new);
    if let Some(path) = &opts.scenario {
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
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut scenario = Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        scenario.rounds = opts.rounds.unwrap_or(scenario.rounds);
        scenario.feedback = feedback.or(scenario.feedback);
        let schedule: Vec<String> = scenario.schedule.iter().map(ToString::to_string).collect();
        return Ok(Run {
            scenario,
            reference: Reference::Fixpoint,
            policy_label: format!("scenario:{path}"),
            schedule_label: Some(schedule.join(", ")),
            instance_label: path.clone(),
        });
    }

    let [query_spec, policy_spec, instance_spec] = positional[..] else {
        return Err("run needs <query> <policy> <instance> (or --scenario <file>)".to_string());
    };
    let query = load_run_query(query_spec)?;
    let instance = load_run_instance(instance_spec, &query)?;
    // The <policy> positional is always resolved — a typo'd spec must fail
    // even when --schedule overrides which policies actually run; without
    // --schedule it repeats every round.
    let (named, policy) = lower_policy(policy_spec)?;
    let schedule = match &opts.schedule {
        Some(spec) => PolicySpec::parse_schedule(spec).map_err(|e| format!("--schedule: {e}"))?,
        None => vec![named],
    };
    Ok(Run {
        scenario: Scenario {
            queries: vec![query],
            instance,
            policy,
            schedule,
            rounds: opts.rounds.unwrap_or(1),
            feedback,
        },
        reference: match opts.rounds {
            Some(_) => Reference::Fixpoint,
            None => Reference::OneRound,
        },
        policy_label: policy_spec.to_string(),
        schedule_label: opts.schedule.clone(),
        instance_label: instance_spec.to_string(),
    })
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

/// What the transport phase of a run hands to the verify.
enum Answer {
    OneRound(Box<OneRoundOutcome>),
    Fixpoint(MultiQueryOutcome),
}

/// One query's part of a run: its rounds, and how its answer compared with
/// the reference.
struct QueryReport {
    query: String,
    rounds: Vec<OneRoundOutcome>,
    result_size: usize,
    converged: bool,
    elided_reshuffles: usize,
    reshard_rounds: usize,
    correct: bool,
    /// Facts of the reference the distributed answer lacks.
    missing: usize,
    reference_rounds: usize,
}

impl QueryReport {
    /// Definition 3.1: the one-round answer against the centralized one.
    fn one_round(
        query: &ConjunctiveQuery,
        instance: &Instance,
        outcome: OneRoundOutcome,
    ) -> QueryReport {
        let expected = cq::evaluate(query, instance);
        QueryReport {
            query: query.to_string(),
            result_size: outcome.result.len(),
            converged: true,
            elided_reshuffles: 0,
            reshard_rounds: 0,
            correct: outcome.result == expected,
            // (a query is monotone: a node derives only centralized answers)
            missing: expected.len().saturating_sub(outcome.result.len()),
            reference_rounds: 1,
            rounds: vec![outcome],
        }
    }

    /// The accumulated answer against the global fixpoint of the query's
    /// centralized iteration.
    fn fixpoint(
        query: &ConjunctiveQuery,
        engine: &MultiRoundEngine<'_>,
        instance: &Instance,
        outcome: MultiRoundOutcome,
    ) -> QueryReport {
        let report = MultiRoundInstanceReport::from_outcome(query, engine, instance, outcome);
        QueryReport {
            query: query.to_string(),
            result_size: report.outcome.result.len(),
            converged: report.outcome.converged,
            elided_reshuffles: report.outcome.elided_reshuffles,
            reshard_rounds: report.outcome.reshard_rounds.len(),
            correct: report.correct,
            missing: report.missing.len(),
            reference_rounds: report.reference_rounds,
            rounds: report.outcome.rounds,
        }
    }

    /// `(fact, node)` assignments shipped over all rounds.
    fn comm_volume(&self) -> usize {
        self.rounds.iter().map(|r| r.stats.total_assigned).sum()
    }

    /// Bytes serialized onto a process boundary over all rounds.
    fn comm_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.comm_bytes).sum()
    }

    /// `timings_us`: the reshuffle and local-evaluation phases summed over
    /// the rounds, next to the run's `total`.
    fn timings_json(&self, total: std::time::Duration) -> JsonValue {
        let distribute: std::time::Duration = self.rounds.iter().map(|r| r.distribute_time).sum();
        let local_eval: std::time::Duration = self.rounds.iter().map(|r| r.local_eval_time).sum();
        JsonValue::object([
            ("distribute", JsonValue::from(distribute.as_micros())),
            ("local_eval", JsonValue::from(local_eval.as_micros())),
            ("total", JsonValue::from(total.as_micros())),
        ])
    }
}

/// The members of a round's reshuffle statistics.
fn stats_json(stats: &DistributionStats) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("nodes", JsonValue::from(stats.nodes)),
        ("total_assigned", JsonValue::from(stats.total_assigned)),
        (
            "distinct_assigned",
            JsonValue::from(stats.distinct_assigned),
        ),
        ("max_load", JsonValue::from(stats.max_load)),
        ("skipped", JsonValue::from(stats.skipped)),
        (
            "replication_factor",
            JsonValue::fixed(stats.replication_factor, 4),
        ),
    ]
}

/// Everything a run reports, rendered once as text ([`RunReport::print`])
/// and once as JSON ([`RunReport::to_json`]).
struct RunReport<'a> {
    run: &'a Run,
    opts: &'a RunOptions,
    queries: Vec<QueryReport>,
    transfer_checks: usize,
    /// The distributed run alone: the centralized reference is a
    /// correctness check, not part of what is being measured.
    total: std::time::Duration,
    /// The merged engine and transport registries: `counters` and
    /// `histograms`.
    metrics: JsonValue,
}

/// The one executor: builds the scenario's policies, opens the transport,
/// runs, drops the transport, and verifies.
fn execute<'a>(run: &'a Run, opts: &'a RunOptions) -> Result<RunReport<'a>, String> {
    let Scenario {
        queries, instance, ..
    } = &run.scenario;
    let policies = run.scenario.build_schedule()?;
    let refs: Vec<&dyn DistributionPolicy> = policies.iter().map(Box::as_ref).collect();
    let first_policy = refs[0];
    let mut engine = MultiRoundEngine::new(RoundSchedule::of(refs))
        .rounds(run.scenario.rounds)
        .workers(opts.workers)
        .distribute_workers(opts.distribute_workers)
        .semi_naive(opts.semi_naive)
        .reshuffle_always(opts.reshuffle_always);
    if let Some(feedback) = run.scenario.feedback {
        for query in queries {
            validate_feedback(query, feedback.as_str()).map_err(|e| format!("{query}: {e}"))?;
        }
        engine = engine.feedback_into(feedback.as_str());
    }

    let total_start = std::time::Instant::now();
    let (mut transport, transport_registry) = open_transport(opts)?;
    let answer = match run.reference {
        Reference::OneRound => OneRoundEngine::new(first_policy)
            .workers(opts.workers)
            .distribute_workers(opts.distribute_workers)
            .evaluate_via(transport.as_mut(), 0, &queries[0], instance)
            .map(|outcome| Answer::OneRound(Box::new(outcome))),
        Reference::Fixpoint => {
            // Memoized so repeated query pairs (common in alternating
            // workloads) pay for the containment checks once.
            let mut cache = TransferCache::new();
            engine
                .evaluate_queries_via(transport.as_mut(), queries, instance, &mut |p, q| {
                    cache.transfers(p, q)
                })
                .map(Answer::Fixpoint)
        }
    }
    .map_err(|e| e.to_string())?;
    // Stop the workers and release the shipped chunks before the verify.
    drop(transport);
    let total = total_start.elapsed();
    let metrics = wire::merged_registry_json(&[&engine.registry(), &transport_registry]);

    let _span = obs::span!("central_verify", facts = instance.len());
    let (queries, transfer_checks) = match answer {
        Answer::OneRound(outcome) => {
            let report = QueryReport::one_round(&queries[0], instance, *outcome);
            (vec![report], 0)
        }
        Answer::Fixpoint(outcome) => {
            let reports = outcome.per_query.into_iter().zip(queries);
            let reports = reports.map(|(o, q)| QueryReport::fixpoint(q, &engine, instance, o));
            (reports.collect(), outcome.transfer_checks)
        }
    };
    Ok(RunReport {
        run,
        opts,
        queries,
        transfer_checks,
        total,
        metrics,
    })
}

impl RunReport<'_> {
    fn correct(&self) -> bool {
        self.queries.iter().all(|q| q.correct)
    }

    /// The sum of `count` over the queries.
    fn sum<T: std::iter::Sum<T>>(&self, count: impl Fn(&QueryReport) -> T) -> T {
        self.queries.iter().map(count).sum()
    }

    /// The `--json` document. A one-round run, a single-query run against
    /// the fixpoint and a multi-query run each keep the keys they have
    /// always printed.
    fn to_json(&self) -> JsonValue {
        let RunReport { run, opts, .. } = self;
        let (first, many) = (&self.queries[0], self.queries.len() > 1);
        let one_round = run.reference == Reference::OneRound;
        let mut doc = JsonValue::object::<&str>([]);
        let mut put = |key: &str, value: JsonValue| {
            doc.push(key, value);
        };
        if many {
            put("scenario", run.instance_label.as_str().into());
            put("schedule", run.schedule_label.clone().into());
            put("queries", self.queries.len().into());
        } else {
            put("query", first.query.as_str().into());
            put("policy", run.policy_label.as_str().into());
            if !one_round {
                put("schedule", run.schedule_label.clone().into());
            }
            put("instance", run.instance_label.as_str().into());
        }
        put("instance_facts", run.scenario.instance.len().into());
        put("transport", opts.transport.label().into());
        if one_round {
            let round = &first.rounds[0];
            put("workers", round.workers.into());
            let cache = [
                ("hits", round.index_cache_hits.into()),
                ("misses", round.index_cache_misses.into()),
            ];
            put("index_cache", JsonValue::object(cache));
            put("result_size", first.result_size.into());
            put("parallel_correct", first.correct.into());
            put("comm_bytes", round.comm_bytes.into());
            put("stats", JsonValue::object(stats_json(&round.stats)));
            put("timings_us", first.timings_json(self.total));
            let per_node = round.per_node_output.iter().map(|(node, &output)| {
                JsonValue::object([
                    ("node", JsonValue::from(node.as_str())),
                    ("load", round.per_node_load[node].into()),
                    ("output", output.into()),
                    ("time_us", round.per_node_time[node].as_micros().into()),
                ])
            });
            put("per_node", JsonValue::array(per_node));
        } else {
            put("workers", opts.workers.into());
            put("semi_naive", opts.semi_naive.into());
            put("rounds_requested", run.scenario.rounds.into());
            put("multi_round_correct", self.correct().into());
            put(
                "total_comm_volume",
                self.sum(QueryReport::comm_volume).into(),
            );
            put("total_comm_bytes", self.sum(QueryReport::comm_bytes).into());
        }
        if many {
            put("reshuffle_always", opts.reshuffle_always.into());
            put("transfer_checks", self.transfer_checks.into());
            put(
                "elided_reshuffles",
                self.sum(|q| q.elided_reshuffles).into(),
            );
            put("reshard_rounds", self.sum(|q| q.reshard_rounds).into());
            put("total_us", self.total.as_micros().into());
            let per_query = self.queries.iter().map(|q| {
                JsonValue::object([
                    ("query", JsonValue::from(q.query.as_str())),
                    ("rounds_run", q.rounds.len().into()),
                    ("converged", q.converged.into()),
                    ("elided_reshuffles", q.elided_reshuffles.into()),
                    ("reshard_rounds", q.reshard_rounds.into()),
                    ("result_size", q.result_size.into()),
                    ("correct", q.correct.into()),
                    ("comm_volume", q.comm_volume().into()),
                    ("comm_bytes", q.comm_bytes().into()),
                ])
            });
            put("per_query", JsonValue::array(per_query));
        } else if !one_round {
            put("rounds_run", first.rounds.len().into());
            put("reference_rounds", first.reference_rounds.into());
            put("converged", first.converged.into());
            put("result_size", first.result_size.into());
            put("missing", first.missing.into());
            put("timings_us", first.timings_json(self.total));
            let rounds = first.rounds.iter().enumerate().map(|(i, round)| {
                let mut entry = vec![
                    ("round", JsonValue::from(i)),
                    ("result_size", round.result.len().into()),
                ];
                entry.extend(stats_json(&round.stats));
                entry.extend([
                    ("comm_bytes", JsonValue::from(round.comm_bytes)),
                    ("distribute_us", round.distribute_time.as_micros().into()),
                    ("local_eval_us", round.local_eval_time.as_micros().into()),
                ]);
                JsonValue::object(entry)
            });
            put("rounds", JsonValue::array(rounds));
        }
        // `counters` and `histograms`, as the registries export them.
        if let JsonValue::Object(members) = &self.metrics {
            for (key, value) in members {
                put(key, value.clone());
            }
        }
        if opts.trace.is_some() {
            // The machine-readable counterpart of the stderr warning, so
            // automation learns the trace is incomplete without scraping it.
            put("dropped_events", obs::dropped_events().into());
        }
        doc
    }

    /// The human-readable report: the run, then every query with its
    /// rounds, then the verdict.
    fn print(&self) {
        let RunReport { run, opts, .. } = self;
        let scenario = &run.scenario;
        let many = self.queries.len() > 1;
        match &run.schedule_label {
            Some(schedule) => say!("schedule:    {schedule}"),
            None => say!("policy:      {}", run.policy_label),
        }
        if let Some(feedback) = scenario.feedback {
            say!("feedback:    outputs re-enter as {feedback}");
        }
        let facts = scenario.instance.len();
        say!("instance:    {} ({facts} facts)", run.instance_label);
        say!("transport:   {}", opts.transport.label());
        if opts.semi_naive {
            say!("mode:        semi-naive (rounds ship deltas, nodes keep state)");
        }
        if opts.reshuffle_always {
            say!("mode:        reshuffle-always (transferability elision disabled)");
        }
        for q in &self.queries {
            say!("query:       {}", q.query);
            if run.reference == Reference::Fixpoint {
                let (ran, cap, reference) = (q.rounds.len(), scenario.rounds, q.reference_rounds);
                say!("rounds:      {ran} run / {cap} requested (reference fixpoint: {reference})");
                say!("converged:   {}", q.converged);
            }
            if many {
                let shards = match q.elided_reshuffles {
                    0 => "resharded",
                    _ => "elided (ran on resident shards)",
                };
                say!("shards:      {shards}");
            }
            let verdict = if q.correct { "" } else { " INCORRECT" };
            say!("result size: {}{verdict}", q.result_size);
            for (i, round) in q.rounds.iter().enumerate() {
                let (output, stats, skew) = (round.result.len(), &round.stats, round.time_skew());
                let distribute = round.distribute_time.as_micros();
                let local_eval = round.local_eval_time.as_micros();
                say!(
                    "  round {i}: output={output} {stats} distribute={distribute}µs \
                     local_eval={local_eval}µs skew={skew:.2}"
                );
            }
        }
        if let (Reference::OneRound, [round]) = (run.reference, &self.queries[0].rounds[..]) {
            for (node, output) in &round.per_node_output {
                let time = round.per_node_time[node].as_micros();
                let load = round.per_node_load[node];
                say!("  {node}: load={load} output={output} time={time}µs");
            }
            let (hits, misses) = (round.index_cache_hits, round.index_cache_misses);
            say!("workers:     {}", round.workers);
            say!("index cache: {hits} hits / {misses} misses");
        }
        if many {
            let elided = self.sum(|q| q.elided_reshuffles);
            let reshards = self.sum(|q| q.reshard_rounds);
            let checks = self.transfer_checks;
            say!(
                "transfer:    {checks} check(s), {elided} reshuffle(s) elided, \
                 {reshards} re-shard round(s)"
            );
        }
        let reference = match run.reference {
            Reference::OneRound => "the centralized answer",
            Reference::Fixpoint => "the global fixpoint of every query",
        };
        if self.correct() {
            say!("correct:     yes (equals {reference})");
        } else {
            say!("correct:     NO (differs from {reference})");
        }
        let volume = self.sum(QueryReport::comm_volume);
        let bytes = self.sum(QueryReport::comm_bytes);
        say!("comm volume: {volume} fact-assignments ({bytes} bytes on the wire)");
        say!("timings:     total={}µs", self.total.as_micros());
    }
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
/// into a `wire::ExplicitSpec`, which materializes it — the file format
/// and the scenario `policy { … }` stanza share one definition of what an
/// explicit policy *means*.
fn parse_policy_spec(text: &str) -> Result<ExplicitSpec, String> {
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
    Ok(spec)
}

fn load_policy_spec(path: &str) -> Result<ExplicitSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_policy_spec(&text)
}

fn load_policy(path: &str) -> Result<ExplicitPolicy, String> {
    load_policy_spec(path)?.build_policy()
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

    fn parse_policy(text: &str) -> Result<ExplicitPolicy, String> {
        parse_policy_spec(text)?.build_policy()
    }

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
