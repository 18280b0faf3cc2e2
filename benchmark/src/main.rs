//! `pcq-benchmark`: the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! Run from the repository root. It builds `pcq-analyze`, generates the
//! workload's inputs from `--seed`, runs and checks ops for `--seconds`,
//! and prints every metric by name with its unit; the last line of stdout
//! is one JSON object `{correct, attempted, failed, metrics}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured from outside
//! the program with tracing off; with `--trace 1` they are the per-layer
//! ones from the traced run, whose spans go to `benchmark/out/trace.json`.
//! Without `--workload` every workload runs both ways, each in a child
//! harness, and the results also go to `benchmark/out/report.json`. See
//! README.md.

mod clock;
mod json;
mod metrics;
mod ops;
mod probes;
mod proc;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{Metric, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::{median, quartiles, quiet};
use workloads::{Sizes, Workload};

/// The seed the committed baseline was measured with. README.md names a
/// second seed that claims must also hold on.
const DEFAULT_SEED: u64 = 20150531;

const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups per run: `setup_s` is what they read on a quiet machine.
const SETUP_REPEATS: usize = 5;
/// Timed ops per run at the least, however short `--seconds` is.
const MIN_OPS: usize = 3;

const TRACE_FILE: &str = "trace.json";

const USAGE: &str = "usage: pcq-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick]   (run from the repository root)";

struct Options {
    /// `None`: every workload, untraced then traced, each in a child
    /// harness.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Internal: generate the workload's inputs, compute its plan, print
    /// it, exit (see [`Harness::untraced`]).
    prepare: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        prepare: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                let text = value()?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: bad number '{text}'"))?;
            }
            "--seconds" => {
                let text = value()?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: bad number '{text}'"))?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: '{other}' is not 0 or 1")),
                };
            }
            "--quick" => options.quick = true,
            "--prepare" => options.prepare = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if options.prepare && options.workload.is_none() {
        return Err("--prepare needs --workload".to_string());
    }
    Ok(options)
}

impl Options {
    /// The arguments that select the same inputs in a child harness.
    fn input_args(&self, workload: Workload) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if self.quick {
            args.push("--quick".to_string());
        }
        args
    }

    fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        }
    }
}

/// One run's result: what the last JSON line carries, plus the reasons of
/// any failed ops.
struct RunResult {
    workload: Workload,
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<(Metric, f64)>,
}

impl RunResult {
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, value)| {
                // a ratio over an empty input is no number JSON can carry
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    fn print(&self) {
        let name = self.workload.name();
        for (m, value) in &self.metrics {
            println!("{name} {} {value} {}", m.name, m.unit);
        }
        println!(
            "{name} ops {} failed_ops {}",
            self.attempted,
            self.failures.len()
        );
        for failure in &self.failures {
            eprintln!("{name}: FAILED op: {failure}");
        }
        println!("{}", self.json_line());
    }
}

struct Harness<'a> {
    options: &'a Options,
    binary: PathBuf,
    out_dir: PathBuf,
    /// The CPUs the timed work takes turns on; empty when pinning is not
    /// possible.
    cpus: Vec<usize>,
}

fn inputs_dir(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join("inputs").join(workload.name())
}

fn this_program() -> Result<String, String> {
    std::env::current_exe()
        .map(|path| path.to_string_lossy().into_owned())
        .map_err(|e| format!("cannot find the harness's own path: {e}"))
}

impl Harness<'_> {
    /// The end-to-end run: set up [`SETUP_REPEATS`] times (generate the
    /// inputs, compute the expected answers, one untimed warm-up op), then
    /// a closed loop of ops, one at a time, until `--seconds` have passed.
    ///
    /// Every set-up and op runs pinned to one CPU, the next one on the next
    /// CPU: the cores' neighbours on the host come and go independently, so
    /// a run that visits all of them finds quiet ops where a run on one
    /// core may find none. Times are brought to the reference clock
    /// (`clock`) and a metric is what they read on a quiet machine
    /// (`stats::quiet`), not their median.
    ///
    /// Generating and planning happen in a `--prepare` child, never here:
    /// a child's `ru_maxrss` starts at its parent's high-water mark, so the
    /// process that spawns the ops must stay smaller than any of them or
    /// `peak_rss_mb` would report the harness instead of the program.
    fn untraced(&self, workload: Workload) -> Result<RunResult, String> {
        let mut prepare = vec![this_program()?, "--prepare".to_string()];
        prepare.extend(self.options.input_args(workload));

        let mut turns = 0;
        let mut next_cpu = || {
            if let Some(cpu) = self.cpus.get(turns % self.cpus.len().max(1)) {
                // cannot fail: `run` pinned to each of them once already
                let _ = proc::pin_to(*cpu);
            }
            turns += 1;
        };

        let mut failures = Vec::new();
        let mut setups = Vec::new();
        let mut calls = Vec::new();
        for _ in 0..SETUP_REPEATS {
            next_cpu();
            let (outcome, to_reference) = clock::at_reference(|| {
                let start = Instant::now();
                let prepared = proc::run_child(&prepare, ops::OP_TIMEOUT)
                    .map_err(|e| format!("cannot run {}: {e}", prepare[0]))?;
                if prepared.exit_code != Some(0) {
                    return Err(format!("preparing {} failed", workload.name()));
                }
                let calls = ops::plan_from_json(prepared.stdout.trim())?;
                let warm_up = ops::run_op(&self.binary, &calls);
                Ok((calls, warm_up.failure, start.elapsed().as_secs_f64()))
            });
            let (plan, failure, seconds) = outcome?;
            calls = plan;
            failures.extend(failure);
            setups.push(seconds * to_reference);
        }

        let (mut timed, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while timed.len() < MIN_OPS || start.elapsed().as_secs_f64() < self.options.seconds {
            next_cpu();
            let (op, to_reference) = clock::at_reference(|| ops::run_op(&self.binary, &calls));
            walls.push(op.wall_s * to_reference);
            cpus.push(op.cpu_s * to_reference);
            timed.push(op);
        }
        // The disturbed times as they were measured, for the record.
        let measured: Vec<f64> = timed.iter().map(|op| op.wall_s).collect();
        let (q1, q3) = quartiles(&measured);
        eprintln!(
            "{}: {} timed ops, measured wall quartiles {q1:.4} / {:.4} / {q3:.4} s",
            workload.name(),
            timed.len(),
            median(&measured)
        );
        let rss: Vec<f64> = timed.iter().map(|op| op.peak_rss_mb).collect();
        let values = [quiet(&walls), quiet(&cpus), median(&rss), quiet(&setups)];
        failures.extend(timed.into_iter().filter_map(|op| op.failure));
        Ok(RunResult {
            workload,
            attempted: SETUP_REPEATS + walls.len(),
            failures,
            metrics: END_TO_END.iter().map(|(m, _)| *m).zip(values).collect(),
        })
    }

    /// The traced run: passes over the workload's probes until `--seconds`
    /// have passed (at least one); each metric is its median over passes.
    /// Its spans go to `trace.json`.
    fn traced(&self, workload: Workload) -> Result<RunResult, String> {
        let inputs_dir = inputs_dir(&self.out_dir, workload);
        let inputs = workloads::generate(
            workload,
            self.options.seed,
            &self.options.sizes(),
            &inputs_dir,
        )
        .and_then(|inputs| Ok((inputs, workloads::write_floor_scenario(&inputs_dir)?)))
        .map_err(|e| format!("cannot write inputs: {e}"));
        let (inputs, floor_scenario) = inputs?;
        let calls = ops::plan(&inputs)?;

        let mut recorder = Recorder::new();
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (mut cli_ops, mut failures, mut passes) = (0, Vec::new(), 0);
        let start = Instant::now();
        while passes == 0 || start.elapsed().as_secs_f64() < self.options.seconds {
            recorder.begin_pass(workload.name(), passes);
            let pass = probes::run_pass(
                &mut recorder,
                &self.binary,
                &inputs,
                &calls,
                &floor_scenario,
                &self.out_dir,
            )?;
            for (name, value) in pass.values {
                samples.entry(name).or_default().push(value);
            }
            cli_ops += pass.cli_ops;
            failures.extend(pass.failures);
            passes += 1;
        }
        let path = self.out_dir.join(TRACE_FILE);
        std::fs::write(&path, recorder.chrome_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

        samples.insert("probe.passes", vec![passes as f64]);
        samples.insert("probe.cli_ops", vec![cli_ops as f64]);
        samples.insert("probe.failed_cli_ops", vec![failures.len() as f64]);
        if let Some(unknown) = samples
            .keys()
            .find(|k| PER_LAYER.iter().all(|m| m.name != **k))
        {
            panic!("probe metric '{unknown}' is not declared in PER_LAYER");
        }
        Ok(RunResult {
            workload,
            attempted: cli_ops,
            failures,
            metrics: PER_LAYER
                .iter()
                .map(|m| (*m, samples.get(m.name).map_or(0.0, |s| median(s))))
                .collect(),
        })
    }
}

/// Builds `pcq-analyze` from the checkout's sources. Not part of any
/// metric: `setup_s` starts after it.
fn build_program() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("benchmark").is_dir() {
        return Err(format!(
            "the current directory is not the repository root\n{USAGE}"
        ));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--bin", "pcq-analyze"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building pcq-analyze failed".to_string());
    }
    let binary = ops::program_path();
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("cargo built no {}", binary.display()))
    }
}

/// `nproc`, the CPUs the timed work is pinned to in turn, and the CPU model:
/// results depend on all three, so every report carries them.
fn machine_json(cpus: &[usize]) -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = info.lines().filter(|l| l.starts_with("processor")).count();
    let model = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    format!(
        "{{\"nproc\": {nproc}, \"pinned_cpus\": {cpus:?}, \"cpu_model\": {}}}",
        json::quote(model)
    )
}

/// Every workload, untraced then traced, each run in a child harness of
/// its own: a run's numbers are then the same whether it was made alone
/// (as the driver does) or as part of the whole, and the memory a traced
/// run leaves behind cannot leak into the next run's `peak_rss_mb`.
/// Collects the children's result lines into `report.json` and their
/// spans into one `trace.json`.
fn run_all(options: &Options, out_dir: &Path, cpus: &[usize]) -> Result<bool, String> {
    let me = this_program()?;
    let mut all_correct = true;
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    for workload in workloads::ALL {
        for trace in ["0", "1"] {
            let output = Command::new(&me)
                .args(options.input_args(workload))
                .args(["--seconds", &options.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {me}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .filter(|line| {
                    output.status.code().is_some_and(|code| code < 2) && line.starts_with('{')
                })
                .ok_or_else(|| format!("the {} run printed no result", workload.name()))?;
            all_correct &= output.status.success();
            runs.push(format!(
                "  {{\"workload\": {}, \"trace\": {trace}, \"result\": {result}}}",
                json::quote(workload.name())
            ));
            if trace == "1" {
                let path = out_dir.join(TRACE_FILE);
                traces.push(
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
                );
            }
        }
    }
    let report = format!(
        "{{\"machine\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"runs\": [\n{}\n]}}\n",
        machine_json(cpus),
        options.seed,
        options.seconds,
        options.quick,
        runs.join(",\n")
    );
    for (file, text) in [
        ("report.json", report),
        (TRACE_FILE, spans::merge_traces(&traces)),
    ] {
        let path = out_dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn run(options: &Options) -> Result<bool, String> {
    let out_dir = PathBuf::from("benchmark").join("out");
    if let (true, Some(workload)) = (options.prepare, options.workload) {
        let dir = inputs_dir(&out_dir, workload);
        let inputs = workloads::generate(workload, options.seed, &options.sizes(), &dir)
            .map_err(|e| format!("cannot write inputs: {e}"))?;
        println!("{}", ops::plan_to_json(&ops::plan(&inputs)?));
        return Ok(true);
    }

    let binary = build_program()?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    let no_pinning = |e| {
        eprintln!("warning: cannot pin to one CPU ({e}); wall_s will depend on core count");
        Vec::new()
    };
    let cpus = proc::allowed_cpus().unwrap_or_else(no_pinning);
    let Some(workload) = options.workload else {
        // each run's child harness pins itself
        return run_all(options, &out_dir, &cpus);
    };
    // After the build, which may use every core; before anything is timed.
    // One pass over the CPUs shows that each can be pinned to, and leaves
    // this process on the last, where a traced run stays.
    let cpus = match cpus.iter().try_for_each(|cpu| proc::pin_to(*cpu)) {
        Ok(()) => cpus,
        Err(e) => no_pinning(e),
    };

    eprintln!("{}: {}", workload.name(), workload.why());
    let harness = Harness {
        options,
        binary,
        out_dir,
        cpus,
    };
    let result = if options.trace {
        harness.traced(workload)?
    } else {
        harness.untraced(workload)?
    };
    result.print();
    Ok(result.failures.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let options = parse_args(&args(&[
            "--workload",
            "closure_seminaive_proc",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workload, Some(Workload::ClosureSeminaiveProc));
        assert_eq!((options.seed, options.seconds), (7, 12.0));
        assert!(options.trace && !options.quick);

        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.workload, None);
        assert_eq!(defaults.seed, DEFAULT_SEED);
        assert!(!defaults.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_is_the_contract_object() {
        let result = RunResult {
            workload: Workload::TriOneroundMem,
            attempted: 12,
            failures: vec!["boom".to_string()],
            metrics: vec![(END_TO_END[0].0, 0.4125), (END_TO_END[3].0, 0.75)],
        };
        let doc = json::Json::parse(&result.json_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Json::Bool(false)));
        assert_eq!(doc.get("attempted"), Some(&json::Json::Number(12.0)));
        assert_eq!(doc.get("failed"), Some(&json::Json::Number(1.0)));
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value"), Some(&json::Json::Number(0.4125)));
        assert_eq!(wall.get("unit"), Some(&json::Json::String("s".to_string())));
    }
}
