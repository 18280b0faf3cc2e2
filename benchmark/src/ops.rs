//! One *op*: the CLI calls of a workload, run one after another as child
//! processes, measured from outside and checked against what the harness
//! expects. This is the only place that knows the program's command line
//! and `--json` keys (the frozen surface listed in README.md).

use std::path::{Path, PathBuf};
use std::time::Duration;

use pcq::cq::ConjunctiveQuery;
use pcq::distribution::{DistributionPolicy, MultiRoundEngine, RoundSchedule};
use pcq::wire::Scenario;

use crate::json::{quote, Json};
use crate::proc::{run_child, ChildRun};
use crate::workloads::{Inputs, WORKERS};

/// An op that runs longer than this is killed with its process tree and
/// counted as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// What a correct CLI call must report.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A `run --json` call: exit 0, the named correctness flag `true`, and
    /// these result sizes (`result_size`, or one per `per_query[]` entry).
    Run {
        flag: &'static str,
        result_sizes: Vec<usize>,
    },
    /// A `pc` / `transfer` call, whose verdict is its exit status: 0 when
    /// the property holds, 1 when it does not.
    Verdict(bool),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    /// Arguments after the program name.
    pub args: Vec<String>,
    pub expect: Expect,
}

/// Communication a `run --json` call reports, in the paper's two units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Comm {
    /// `total_comm_bytes` (wire scenario runs only; 0 elsewhere).
    pub bytes: f64,
    /// `total_comm_volume` (scenario path) or `stats.total_assigned`
    /// (one-round path).
    pub facts: f64,
}

/// The measured cost of one op: sums over its calls, except peak memory
/// which is the largest call's.
#[derive(Clone, Debug, Default)]
pub struct OpResult {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub comm: Comm,
    /// Why the op counts as failed, if it does.
    pub failure: Option<String>,
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

pub fn parse_query(path: &Path) -> Result<ConjunctiveQuery, String> {
    ConjunctiveQuery::parse(read(path)?.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `run` arguments of a one-round workload on `transport`.
fn one_round_args(query: &Path, budget: usize, facts: &Path, transport: &str) -> Vec<String> {
    [
        "run",
        &path_arg(query),
        &format!("hypercube:{budget}"),
        &path_arg(facts),
        "--workers",
        &WORKERS.to_string(),
        "--transport",
        transport,
        "--json",
    ]
    .map(String::from)
    .to_vec()
}

/// The `run --scenario` arguments of a scenario workload on `transport`.
pub fn scenario_args(scenario: &Path, transport: &str, semi_naive: bool) -> Vec<String> {
    let mut args = [
        "run",
        "--scenario",
        &path_arg(scenario),
        "--workers",
        &WORKERS.to_string(),
        "--transport",
        transport,
        "--json",
    ]
    .map(String::from)
    .to_vec();
    if semi_naive {
        args.push("--semi-naive".to_string());
    }
    args
}

/// The engine the CLI builds for a scenario run, so the harness's
/// reference fixpoint uses the same carry/feedback semantics.
pub fn scenario_engine<'a>(
    scenario: &Scenario,
    policies: &'a [Box<dyn DistributionPolicy>],
    semi_naive: bool,
) -> MultiRoundEngine<'a> {
    let engine = MultiRoundEngine::new(RoundSchedule::of(
        policies.iter().map(Box::as_ref).collect(),
    ))
    .rounds(scenario.rounds)
    .workers(WORKERS)
    .semi_naive(semi_naive);
    match scenario.feedback {
        Some(relation) => engine.feedback_into(relation.as_str()),
        None => engine,
    }
}

/// The calls of one op of a workload, with the result sizes the harness
/// computes itself through the library: `cq::evaluate` for one-round runs,
/// `reference_fixpoint` per query for scenario runs.
pub fn plan(inputs: &Inputs) -> Result<Vec<Call>, String> {
    match inputs {
        Inputs::OneRound {
            query,
            budget,
            facts,
            transport,
        } => {
            let parsed = parse_query(query)?;
            let instance = pcq::cq::parse_instance(&read(facts)?)
                .map_err(|e| format!("{}: {e}", facts.display()))?;
            Ok(vec![Call {
                args: one_round_args(query, *budget, facts, transport),
                expect: Expect::Run {
                    flag: "parallel_correct",
                    result_sizes: vec![pcq::cq::evaluate(&parsed, &instance).len()],
                },
            }])
        }
        Inputs::Scenario {
            scenario,
            transport,
            semi_naive,
        } => {
            let parsed = Scenario::parse(&read(scenario)?)
                .map_err(|e| format!("{}: {e}", scenario.display()))?;
            let policies = parsed.build_schedule()?;
            let engine = scenario_engine(&parsed, &policies, *semi_naive);
            let result_sizes = parsed
                .queries
                .iter()
                .map(|q| engine.reference_fixpoint(q, &parsed.instance).result.len())
                .collect();
            Ok(vec![Call {
                args: scenario_args(scenario, transport, *semi_naive),
                expect: Expect::Run {
                    flag: "multi_round_correct",
                    result_sizes,
                },
            }])
        }
        Inputs::Decide {
            query,
            policy_yes,
            policy_no,
            from,
            to,
            transfers,
        } => {
            let call = |args: [&str; 3], holds: bool| Call {
                args: args.map(String::from).to_vec(),
                expect: Expect::Verdict(holds),
            };
            Ok(vec![
                call(["pc", &path_arg(query), &path_arg(policy_yes)], true),
                call(["pc", &path_arg(query), &path_arg(policy_no)], false),
                call(["transfer", &path_arg(from), &path_arg(to)], *transfers),
            ])
        }
    }
}

/// Serializes a plan for the measuring process, which must not compute it
/// itself (see `main::Harness::untraced`).
pub fn plan_to_json(calls: &[Call]) -> String {
    let calls: Vec<String> = calls
        .iter()
        .map(|call| {
            let args: Vec<String> = call.args.iter().map(|a| quote(a)).collect();
            let expect = match &call.expect {
                Expect::Verdict(holds) => format!("\"holds\": {holds}"),
                Expect::Run { flag, result_sizes } => {
                    let sizes: Vec<String> = result_sizes.iter().map(usize::to_string).collect();
                    format!(
                        "\"flag\": {}, \"result_sizes\": [{}]",
                        quote(flag),
                        sizes.join(", ")
                    )
                }
            };
            format!("{{\"args\": [{}], {expect}}}", args.join(", "))
        })
        .collect();
    format!("[{}]", calls.join(", "))
}

/// The inverse of [`plan_to_json`].
pub fn plan_from_json(text: &str) -> Result<Vec<Call>, String> {
    let malformed = || format!("malformed plan: {text}");
    let doc = Json::parse(text).map_err(|e| format!("{}: {e}", malformed()))?;
    doc.as_array()
        .ok_or_else(malformed)?
        .iter()
        .map(|call| {
            let args = call.get("args").and_then(Json::as_array)?;
            let args: Option<Vec<String>> =
                args.iter().map(|a| a.as_str().map(String::from)).collect();
            let expect = match call.get("holds").and_then(Json::as_bool) {
                Some(holds) => Expect::Verdict(holds),
                None => Expect::Run {
                    flag: ["parallel_correct", "multi_round_correct"]
                        .into_iter()
                        .find(|f| call.get("flag").and_then(Json::as_str) == Some(f))?,
                    result_sizes: call
                        .get("result_sizes")
                        .and_then(Json::as_array)?
                        .iter()
                        .map(|n| n.as_f64().map(|n| n as usize))
                        .collect::<Option<_>>()?,
                },
            };
            Some(Call {
                args: args?,
                expect,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(malformed)
}

/// The same calls on the memory transport: the twin a wire workload's op
/// is compared against.
pub fn memory_twin(calls: &[Call]) -> Vec<Call> {
    let mut twin = calls.to_vec();
    for call in &mut twin {
        if let Some(at) = call.args.iter().position(|a| a == "--transport") {
            call.args[at + 1] = "memory".to_string();
        }
    }
    twin
}

/// Judges one finished call. `Ok` carries the communication it reported
/// (zero for calls that report none).
pub fn check(run: &ChildRun, expect: &Expect) -> Result<Comm, String> {
    if run.timed_out {
        return Err(format!("timed out after {} s", OP_TIMEOUT.as_secs()));
    }
    let code = run
        .exit_code
        .ok_or_else(|| "ended by a signal".to_string())?;
    match expect {
        Expect::Verdict(holds) => {
            let expected = if *holds { 0 } else { 1 };
            if code == expected {
                Ok(Comm::default())
            } else {
                Err(format!("verdict: exit status {code}, expected {expected}"))
            }
        }
        Expect::Run { flag, result_sizes } => {
            if code != 0 {
                return Err(format!("exit status {code}, expected 0"));
            }
            let doc = Json::parse(&run.stdout).map_err(|e| format!("output is not JSON: {e}"))?;
            if doc.get(flag).and_then(Json::as_bool) != Some(true) {
                return Err(format!("'{flag}' is missing or not true"));
            }
            let count = |value: Option<&Json>| value.and_then(Json::as_f64);
            let reported: Option<Vec<f64>> = match doc.get("per_query").and_then(Json::as_array) {
                Some(entries) => entries
                    .iter()
                    .map(|q| count(q.get("result_size")))
                    .collect(),
                None => count(doc.get("result_size")).map(|size| vec![size]),
            };
            let expected: Vec<f64> = result_sizes.iter().map(|&n| n as f64).collect();
            if reported.as_ref() != Some(&expected) {
                return Err(format!(
                    "result_size {reported:?}, the harness computed {expected:?}"
                ));
            }
            Ok(Comm {
                bytes: count(doc.get("total_comm_bytes")).unwrap_or(0.0),
                facts: count(doc.get("total_comm_volume"))
                    .or(count(doc.get("stats.total_assigned")))
                    .ok_or("neither total_comm_volume nor stats.total_assigned reported")?,
            })
        }
    }
}

/// Runs the calls of one op in order, closed loop, and adds them up. A
/// failed call fails the op but the remaining calls still run, so an op
/// always costs the same work.
pub fn run_op(binary: &Path, calls: &[Call]) -> OpResult {
    let mut op = OpResult::default();
    for call in calls {
        let mut argv = vec![path_arg(binary)];
        argv.extend(call.args.iter().cloned());
        let outcome = match run_child(&argv, OP_TIMEOUT) {
            Ok(run) => {
                op.wall_s += run.wall_s;
                op.cpu_s += run.cpu_s;
                op.peak_rss_mb = op.peak_rss_mb.max(run.peak_rss_mb);
                check(&run, &call.expect)
            }
            Err(e) => Err(format!("cannot run {}: {e}", binary.display())),
        };
        match outcome {
            Ok(comm) => {
                op.comm.bytes += comm.bytes;
                op.comm.facts += comm.facts;
            }
            Err(reason) => {
                op.failure
                    .get_or_insert(format!("`{}`: {reason}", call.args.join(" ")));
            }
        }
    }
    op
}

/// Where cargo puts `pcq-analyze`: under `CARGO_TARGET_DIR` when set (the
/// benchmark driver sets it), else the root workspace's `target/`.
pub fn program_path() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("release").join("pcq-analyze")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(exit_code: i32, stdout: &str) -> ChildRun {
        ChildRun {
            wall_s: 0.1,
            cpu_s: 0.1,
            peak_rss_mb: 10.0,
            exit_code: Some(exit_code),
            timed_out: false,
            stdout: stdout.to_string(),
        }
    }

    // Canned `run --json` outputs of the three run arms, cut down to a few
    // keys around the frozen ones.
    const ONE_ROUND: &str = r#"{"query":"T(x, y, z) :- E(x, y), E(y, z), E(z, x).","workers":2,
        "transport":"memory","index_cache":{"hits":0,"misses":64},"result_size":18963,
        "parallel_correct":true,"stats":{"nodes":64,"total_assigned":45510,"max_load":771,
        "replication_factor":11.3775},"timings_us":{"total":153319},"per_node":[],"histograms":{}}"#;
    const MULTI_ROUND: &str = r#"{"query":"T(x, z) :- R(x, y), R(y, z).","schedule":"hypercube(2)",
        "semi_naive":true,"transport":"process","rounds_run":7,"converged":true,
        "multi_round_correct":true,"result_size":12561,"missing":0,"total_comm_volume":44560,
        "total_comm_bytes":431358,"rounds":[{"round":0,"result_size":317}],"histograms":{}}"#;
    const MULTI_QUERY: &str = r#"{"scenario":"relax.pcq","queries":3,"transport":"socket",
        "transfer_checks":2,"elided_reshuffles":1,"multi_round_correct":true,
        "total_comm_volume":70568,"total_comm_bytes":1242106,"total_us":380459,
        "per_query":[{"result_size":11,"correct":true},{"result_size":22,"correct":true},
        {"result_size":11,"correct":true}],"histograms":{}}"#;

    fn run_expect(flag: &'static str, result_sizes: &[usize]) -> Expect {
        Expect::Run {
            flag,
            result_sizes: result_sizes.to_vec(),
        }
    }

    #[test]
    fn extracts_the_frozen_keys_from_all_three_run_arms() {
        assert_eq!(
            check(
                &finished(0, ONE_ROUND),
                &run_expect("parallel_correct", &[18963])
            ),
            Ok(Comm {
                bytes: 0.0,
                facts: 45510.0
            })
        );
        assert_eq!(
            check(
                &finished(0, MULTI_ROUND),
                &run_expect("multi_round_correct", &[12561])
            ),
            Ok(Comm {
                bytes: 431358.0,
                facts: 44560.0
            })
        );
        assert_eq!(
            check(
                &finished(0, MULTI_QUERY),
                &run_expect("multi_round_correct", &[11, 22, 11])
            ),
            Ok(Comm {
                bytes: 1242106.0,
                facts: 70568.0
            })
        );
    }

    #[test]
    fn a_falsified_result_size_fails_the_op() {
        let falsified = MULTI_ROUND.replace("\"result_size\":12561", "\"result_size\":12560");
        let err = check(
            &finished(0, &falsified),
            &run_expect("multi_round_correct", &[12561]),
        )
        .unwrap_err();
        assert!(err.contains("result_size"), "{err}");
        // one wrong entry of a multi-query run is enough
        assert!(check(
            &finished(0, MULTI_QUERY),
            &run_expect("multi_round_correct", &[11, 23, 11])
        )
        .is_err());
    }

    #[test]
    fn a_wrong_verdict_fails_the_op() {
        assert!(check(&finished(0, ""), &Expect::Verdict(true)).is_ok());
        // exit 1 is the *expected* status of a NO verdict ...
        assert!(check(&finished(1, ""), &Expect::Verdict(false)).is_ok());
        // ... and a failure where the property should hold, and vice versa
        assert!(check(&finished(1, ""), &Expect::Verdict(true)).is_err());
        assert!(check(&finished(0, ""), &Expect::Verdict(false)).is_err());
        // a usage error is never a verdict
        assert!(check(&finished(2, ""), &Expect::Verdict(false)).is_err());
    }

    #[test]
    fn wrong_status_missing_flag_garbage_and_timeouts_fail() {
        let expect = run_expect("parallel_correct", &[18963]);
        assert!(check(&finished(1, ONE_ROUND), &expect).is_err());
        let lying = ONE_ROUND.replace("\"parallel_correct\":true", "\"parallel_correct\":false");
        assert!(check(&finished(0, &lying), &expect).is_err());
        let silent = ONE_ROUND.replace("\"parallel_correct\":true,", "");
        assert!(check(&finished(0, &silent), &expect).is_err());
        assert!(check(&finished(0, "not json"), &expect).is_err());
        let mut wedged = finished(0, ONE_ROUND);
        wedged.timed_out = true;
        wedged.exit_code = None;
        assert!(check(&wedged, &expect).is_err());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = vec![
            Call {
                args: vec!["run".to_string(), "a \"b\".query".to_string()],
                expect: run_expect("multi_round_correct", &[3, 0, 12_345_678]),
            },
            Call {
                args: vec!["pc".to_string()],
                expect: Expect::Verdict(false),
            },
        ];
        assert_eq!(plan_from_json(&plan_to_json(&plan)), Ok(plan));
        assert_eq!(plan_from_json("[]"), Ok(Vec::new()));
        for bad in [
            "",
            "{}",
            "[{\"args\": [1]}]",
            "[{\"args\": [], \"flag\": \"x\", \"result_sizes\": []}]",
        ] {
            assert!(plan_from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn failed_calls_are_counted_not_fatal() {
        // `false` exits 1 where 0 is expected; `true` is then still run.
        let calls = [
            Call {
                args: Vec::new(),
                expect: Expect::Verdict(true),
            },
            Call {
                args: Vec::new(),
                expect: Expect::Verdict(false),
            },
        ];
        let op = run_op(Path::new("false"), &calls);
        assert!(op.failure.unwrap().contains("expected 0"));
        assert!(op.wall_s > 0.0);
        assert!(run_op(Path::new("false"), &calls[1..]).failure.is_none());
    }
}
