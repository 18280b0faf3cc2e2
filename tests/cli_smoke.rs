//! End-to-end smoke tests for the `pcq-analyze` CLI: every subcommand is
//! exercised through a real process spawn, checking the documented exit-code
//! contract (0 = property holds, 1 = it does not, 2 = usage/parse error).

use std::path::PathBuf;
use std::process::Command;

const TRIANGLE: &str = "T(x, y, z) :- E(x, y), E(y, z), E(z, x).";
const PATH_2: &str = "T(x, z) :- R(x, y), R(y, z).";
const PATH_2_WITH_LOOP: &str = "T(x, z) :- R(x, y), R(y, z), R(x, x).";

/// The Example 3.5 policy over domain {a, b}: parallel-correct for the
/// query with the R(x, x) loop, not parallel-correct for the plain 2-path.
const EXAMPLE_3_5_POLICY: &str = "n0: R(a, a) R(b, a) R(b, b)\nn1: R(a, a) R(a, b) R(b, b)\n";

fn pcq_analyze(args: &[&str]) -> i32 {
    pcq_analyze_output(args).0
}

fn pcq_analyze_output(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
        .args(args)
        .output()
        .expect("failed to spawn pcq-analyze");
    let code = output
        .status
        .code()
        .expect("pcq-analyze terminated by signal");
    (code, String::from_utf8_lossy(&output.stdout).into_owned())
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pcq-smoke-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("cannot write temp file");
    path
}

#[test]
fn analyze_accepts_a_literal_query() {
    assert_eq!(pcq_analyze(&["analyze", PATH_2]), 0);
}

#[test]
fn analyze_reads_a_query_from_a_file() {
    let path = write_temp("query.cq", TRIANGLE);
    assert_eq!(pcq_analyze(&["analyze", path.to_str().unwrap()]), 0);
    let _ = std::fs::remove_file(path);
}

#[test]
fn analyze_rejects_garbage_with_usage_error() {
    assert_eq!(pcq_analyze(&["analyze", "this is not a query"]), 2);
}

#[test]
fn missing_and_unknown_commands_are_usage_errors() {
    assert_eq!(pcq_analyze(&[]), 2);
    assert_eq!(pcq_analyze(&["frobnicate", PATH_2]), 2);
    assert_eq!(pcq_analyze(&["pc", PATH_2]), 2); // missing <policy-file>
}

#[test]
fn pc_distinguishes_correct_from_incorrect_policies() {
    let path = write_temp("policy.txt", EXAMPLE_3_5_POLICY);
    let policy = path.to_str().unwrap();
    // Example 3.5 of the paper: with the R(x, x) loop every minimal
    // valuation meets at a node, so the query is parallel-correct...
    assert_eq!(pcq_analyze(&["pc", PATH_2_WITH_LOOP, policy]), 0);
    // ...while the plain 2-path loses answers under the same policy.
    assert_eq!(pcq_analyze(&["pc", PATH_2, policy]), 1);
    let _ = std::fs::remove_file(path);
}

#[test]
fn pc_no_report_names_the_valuation_the_instance_and_the_lost_fact() {
    // The whole report of a NO verdict, as printed: the first minimal
    // valuation (in enumeration order: the triejoin binds `y`, then `x`,
    // then `z`, each ascending) whose facts do not meet, its required facts
    // as the counterexample instance, the fact the nodes lose — and how many
    // candidates it took.
    let path = write_temp("no-policy.txt", EXAMPLE_3_5_POLICY);
    let (code, stdout) = pcq_analyze_output(&["pc", PATH_2, path.to_str().unwrap()]);
    let _ = std::fs::remove_file(path);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(
        stdout,
        "query:   T(x, z) :- R(x, y), R(y, z).\n\
         network: {n0, n1}\n\
         minimality: 4 candidates, 0 by equality type, 4 searched\n\
         parallel-correct: NO\n\
         \x20 minimal valuation:       {x ↦ b, z ↦ b, y ↦ a}\n\
         \x20 counterexample instance: {R(a, b), R(b, a)}\n\
         \x20 lost fact:               T(b, b)\n"
    );
}

#[test]
fn pc_rejects_malformed_policy_files() {
    let path = write_temp("bad-policy.txt", "n0 R(a, b)\n");
    assert_eq!(pcq_analyze(&["pc", PATH_2, path.to_str().unwrap()]), 2);
    let _ = std::fs::remove_file(path);
}

#[test]
fn transfer_holds_reflexively_and_rejects_unknown_flags() {
    assert_eq!(pcq_analyze(&["transfer", PATH_2, PATH_2]), 0);
    assert_eq!(pcq_analyze(&["transfer", PATH_2, PATH_2, "--bogus"]), 2);
}

#[test]
fn transfer_strongly_minimal_fast_path_agrees() {
    // The full 2-path is strongly minimal, so the C3 fast path applies and
    // must agree with the general decision (exit 0 either way here).
    assert_eq!(
        pcq_analyze(&["transfer", PATH_2, PATH_2, "--strongly-minimal"]),
        0
    );
}

#[test]
fn run_hypercube_is_correct_and_reports_the_round() {
    let (code, stdout) = pcq_analyze_output(&["run", "chain:2", "hypercube:4", "random:10:60"]);
    assert_eq!(code, 0, "hypercube one-round must match centralized");
    assert!(stdout.contains("result size:"));
    assert!(stdout.contains("correct:     yes"));
    assert!(stdout.contains("load="));
}

#[test]
fn run_round_robin_loses_answers_and_exits_one() {
    // round-robin splits joining facts across nodes, so answers are lost
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "round-robin:4",
        "R(a, b). R(b, c). R(c, d). R(d, e).",
    ]);
    assert_eq!(code, 1);
    assert!(stdout.contains("NO"));
}

#[test]
fn run_json_output_is_a_single_json_object() {
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "triangle",
        "hypercube:8",
        "random:8:40",
        "--workers",
        "3",
        "--json",
    ]);
    assert_eq!(code, 0);
    let line = stdout.trim();
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not JSON: {line}"
    );
    assert_eq!(
        line.lines().count(),
        1,
        "--json must print exactly one line"
    );
    for key in [
        "\"query\":",
        "\"result_size\":",
        "\"parallel_correct\":true",
        "\"stats\":",
        "\"per_node\":[",
        "\"timings_us\":",
        "\"load\":",
        "\"time_us\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

#[test]
fn run_rejects_bad_specs_and_flags_with_usage_errors() {
    // missing positional arguments
    assert_eq!(pcq_analyze(&["run", "chain:2", "hypercube:4"]), 2);
    // unknown families
    assert_eq!(
        pcq_analyze(&["run", "nope:3", "hypercube:4", "random:5:10"]),
        2
    );
    assert_eq!(
        pcq_analyze(&["run", "chain:2", "bogus:4", "random:5:10"]),
        2
    );
    assert_eq!(
        pcq_analyze(&["run", "chain:2", "hypercube:4", "uniform:5:10"]),
        2
    );
    // malformed flags
    assert_eq!(
        pcq_analyze(&["run", "chain:2", "hypercube:4", "random:5:10", "--workers"]),
        2
    );
    assert_eq!(
        pcq_analyze(&[
            "run",
            "chain:2",
            "hypercube:4",
            "random:5:10",
            "--workers",
            "0"
        ]),
        2
    );
    assert_eq!(
        pcq_analyze(&[
            "run",
            "chain:2",
            "hypercube:4",
            "random:5:10",
            "--frobnicate"
        ]),
        2
    );
}

const CHAIN_FACTS: &str = "R(a, b). R(b, c). R(c, d). R(d, e).";

#[test]
fn run_multi_round_closure_converges_and_exits_zero() {
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        CHAIN_FACTS,
        "--rounds",
        "8",
        "--feedback",
        "R",
    ]);
    assert_eq!(
        code, 0,
        "converged closure must equal the fixpoint: {stdout}"
    );
    assert!(stdout.contains("converged:   true"));
    assert!(stdout.contains("correct:     yes"));
    assert!(stdout.contains("round 0:"), "per-round lines expected");
    assert!(stdout.contains("comm volume:"));
}

#[test]
fn run_multi_round_capped_below_fixpoint_exits_one() {
    // An 8-edge chain needs 3 squaring rounds; a 2-round cap falls short of
    // the global fixpoint and must exit 1.
    let long_chain = "R(a,b). R(b,c). R(c,d). R(d,e). R(e,f). R(f,g). R(g,h). R(h,i).";
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        long_chain,
        "--rounds",
        "2",
        "--feedback",
        "R",
    ]);
    assert_eq!(code, 1, "round-capped run must be incorrect: {stdout}");
    assert!(stdout.contains("converged:   false"));
}

#[test]
fn run_multi_round_json_has_the_per_round_shape() {
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        CHAIN_FACTS,
        "--rounds",
        "6",
        "--feedback",
        "R",
        "--distribute-workers",
        "2",
        "--workers",
        "2",
        "--json",
    ]);
    assert_eq!(code, 0, "{stdout}");
    let line = stdout.trim();
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not JSON: {line}"
    );
    assert_eq!(
        line.lines().count(),
        1,
        "--json must print exactly one line"
    );
    for key in [
        "\"rounds_requested\":6",
        "\"rounds_run\":",
        "\"reference_rounds\":",
        "\"converged\":true",
        "\"multi_round_correct\":true",
        "\"total_comm_volume\":",
        "\"rounds\":[{\"round\":0,",
        "\"distribute_us\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

#[test]
fn run_multi_round_accepts_schedules_and_rejects_bad_ones() {
    let (code, _) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        CHAIN_FACTS,
        "--rounds",
        "6",
        "--feedback",
        "R",
        "--schedule",
        "hash-join:3,hypercube:2",
    ]);
    assert_eq!(code, 0);
    // malformed schedules and flags are usage errors
    for bad in [
        vec![
            "run",
            "chain:2",
            "hypercube:2",
            CHAIN_FACTS,
            "--rounds",
            "2",
            "--schedule",
            "bogus:3",
        ],
        vec![
            "run",
            "chain:2",
            "hypercube:2",
            CHAIN_FACTS,
            "--rounds",
            "0",
        ],
        vec!["run", "chain:2", "hypercube:2", CHAIN_FACTS, "--rounds"],
        vec![
            "run",
            "chain:2",
            "hypercube:2",
            CHAIN_FACTS,
            "--rounds",
            "2",
            "--feedback",
        ],
    ] {
        assert_eq!(pcq_analyze(&bad), 2, "{bad:?} must be a usage error");
    }
}

#[test]
fn run_rejects_feedback_relations_the_query_cannot_read() {
    // Feeding outputs into a relation the query never reads (or reads at a
    // different arity) would make the recursion silently inert.
    let triangle_facts = "E(a, b). E(b, c). E(c, a).";
    for feedback in ["E", "Z"] {
        let code = pcq_analyze(&[
            "run",
            TRIANGLE,
            "hypercube:2",
            triangle_facts,
            "--rounds",
            "4",
            "--feedback",
            feedback,
        ]);
        assert_eq!(code, 2, "--feedback {feedback} on an arity-3-head query");
    }
}

#[test]
fn run_rejects_multi_round_flags_without_rounds() {
    // --schedule / --feedback mean nothing in a single-round run; silently
    // ignoring them would misreport what the user asked for.
    for flags in [["--feedback", "R"], ["--schedule", "hypercube:2"]] {
        let mut args = vec!["run", "chain:2", "hypercube:2", CHAIN_FACTS];
        args.extend(flags);
        assert_eq!(pcq_analyze(&args), 2, "{flags:?} without --rounds");
    }
}

/// Every `skipped=N` a multi-round text report prints, one per round.
fn skipped_per_round(stdout: &str) -> Vec<&str> {
    let rounds = stdout.lines().filter(|line| line.contains(" round "));
    let words = rounds.flat_map(str::split_whitespace);
    words.filter(|word| word.starts_with("skipped=")).collect()
}

#[test]
fn a_positional_broadcast_stays_total_when_feedback_adds_facts() {
    // A broadcast policy is parallel-correct for every query. The positional
    // resolver used to enumerate the input instance, so the facts fed back
    // in round 1 were skipped and the verdict was NO; it is the policy
    // `--schedule broadcast:3` and `schedule broadcast(3)` always named.
    let run = |policy: &str, extra: &[&str]| {
        let mut args = vec!["run", "chain:2", policy, CHAIN_FACTS, "--rounds", "6"];
        args.extend(["--feedback", "R"]);
        args.extend(extra);
        pcq_analyze_output(&args)
    };
    for (policy, extra) in [
        ("broadcast:3", &[][..]),
        ("hypercube:2", &["--schedule", "broadcast:3"]),
    ] {
        let (code, stdout) = run(policy, extra);
        assert_eq!(code, 0, "{policy} {extra:?}: {stdout}");
        assert!(stdout.contains("correct:     yes"), "{stdout}");
        assert_eq!(skipped_per_round(&stdout), ["skipped=0"; 3], "{stdout}");
    }
}

#[test]
fn one_resolver_names_the_policies_of_both_positions() {
    // Each resolver used to know a different subset: `hash-join` only in
    // `--schedule`, `round-robin` only as the positional policy.
    let run = |policy: &str, extra: &[&str]| {
        let mut args = vec!["run", "chain:2", policy, CHAIN_FACTS];
        args.extend(extra);
        pcq_analyze_output(&args)
    };
    let (code, stdout) = run("hash-join:3", &[]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("nodes=3 "), "{stdout}");
    let (code, stdout) = run("hash(3)", &["--rounds", "2"]);
    assert_eq!(code, 0, "{stdout}");
    // round-robin deals the input's facts and skips what later rounds add:
    // accepted and resolved, though it loses answers
    let schedule = ["--rounds", "2", "--schedule", "round-robin:2"];
    let (code, stdout) = run("hypercube:2", &schedule);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("schedule:    round-robin:2"), "{stdout}");
    // A typo in the positional policy still fails when --schedule overrides
    // which policies run, and so does a list where one policy belongs.
    let overridden = ["--rounds", "2", "--schedule", "hypercube:2"];
    for typo in ["hypercub:2", "hypercube:x", "hypercube:2,broadcast:2"] {
        assert_eq!(run(typo, &overridden).0, 2, "{typo}");
    }
}

/// The `run --json` fields both grammars must agree on: the verdict (the
/// exit status), `result_size`, `rounds_run`, and per round
/// `total_assigned`, whose sum is `total_comm_volume`.
fn run_digest(args: &[&str]) -> (i32, Vec<u64>) {
    use pcq::wire::json::JsonValue;
    let (code, stdout) = pcq_analyze_output(args);
    let doc = JsonValue::parse(stdout.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    let number = |doc: &JsonValue, key: &str| doc.get(key).and_then(JsonValue::as_u64);
    let mut digest = vec![number(&doc, "result_size").expect("result_size")];
    match doc.get("rounds").and_then(JsonValue::as_array) {
        Some(rounds) => {
            digest.push(number(&doc, "rounds_run").expect("rounds_run"));
            assert_eq!(rounds.len() as u64, digest[1]);
            let assigned = rounds.iter().map(|r| number(r, "total_assigned").unwrap());
            digest.extend(assigned);
            let volume = number(&doc, "total_comm_volume").expect("total_comm_volume");
            assert_eq!(digest[2..].iter().sum::<u64>(), volume);
        }
        // a one-round report: its one round's statistics
        None => {
            let stats = doc.get("stats").expect("a one-round report has stats");
            digest.extend([1, number(stats, "total_assigned").unwrap()]);
        }
    }
    (code, digest)
}

#[test]
fn a_positional_run_and_the_scenario_stating_the_same_report_the_same() {
    let facts = "R(a,b). R(b,c). R(c,d). R(d,e). R(e,f). R(f,a). R(c,g). R(g,g).";
    let policy_file = write_temp("same-policy.txt", "n0: R(a, b) R(b, c)\ndefault: n0 n1\n");
    let policy_file = policy_file.to_str().unwrap();
    let stanza = "policy { n0: R(a, b) R(b, c)\n default: n0 n1 }";
    let shapes: [(&str, &[&str], &str, &[&str]); 4] = [
        ("hypercube:4", &[], "schedule hypercube(4)", &[]),
        (
            "hypercube:2",
            &["--rounds", "6", "--feedback", "R"],
            "schedule hypercube(2)\nrounds 6\nfeedback R",
            &[],
        ),
        (
            "hypercube:2",
            &["--rounds", "6", "--schedule", "hash-join:3,hypercube:2"],
            "schedule hash(3), hypercube(2)\nrounds 6",
            &["--semi-naive"],
        ),
        (
            policy_file,
            &[],
            &format!("{stanza}\nschedule explicit"),
            &[],
        ),
    ];
    for (i, (policy, flags, stanzas, both)) in shapes.into_iter().enumerate() {
        let text = format!("query {PATH_2}\ninstance {{ {facts} }}\n{stanzas}\n");
        let scenario = write_temp(&format!("same-{i}.pcq"), &text);
        for transport in ["memory", "process"] {
            let common = [
                both,
                &["--transport", transport, "--workers", "2", "--json"],
            ]
            .concat();
            let positional = [&["run", PATH_2, policy, facts], flags, &common].concat();
            let file = [
                &["run", "--scenario", scenario.to_str().unwrap()],
                &common[..],
            ]
            .concat();
            let context = format!("{policy} {flags:?} on {transport}");
            let positional = run_digest(&positional);
            assert_eq!(
                positional.0, 0,
                "{context}: every shape is parallel-correct"
            );
            assert_eq!(positional, run_digest(&file), "{context}");
        }
        let _ = std::fs::remove_file(scenario);
    }
    let _ = std::fs::remove_file(policy_file);
}

#[test]
fn run_rejects_the_removed_join_strategy_flag() {
    // `--join-strategy` went with the join it selected: every query, cyclic
    // or not, runs the one indexed kernel. The flag is an ordinary unknown
    // flag now, whatever name follows it.
    for name in [&["auto"][..], &["binary"], &["multiway"], &[]] {
        let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args(["run", "triangle", "broadcast:2", CHAIN_FACTS])
            .arg("--join-strategy")
            .args(name)
            .output()
            .expect("failed to spawn pcq-analyze");
        assert_eq!(output.status.code(), Some(2), "{name:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with("error: unknown flag '--join-strategy'"),
            "{stderr}"
        );
    }
    // The reports name no strategy any more, cyclic or acyclic, and still
    // carry the transport's index-cache counters.
    for query in ["triangle", "chain:2"] {
        let facts = "E(a, b). E(b, c). E(c, a). E(a, c). R(a, b). R(b, c).";
        let (code, stdout) = pcq_analyze_output(&["run", query, "broadcast:2", facts]);
        assert_eq!(code, 0, "{query}: {stdout}");
        assert!(!stdout.contains("join:"), "{query}: {stdout}");
        assert!(
            stdout.contains("index cache: 1 hits / 1 misses"),
            "{stdout}"
        );
        let (code, stdout) = pcq_analyze_output(&["run", query, "broadcast:2", facts, "--json"]);
        assert_eq!(code, 0, "{query}: {stdout}");
        assert!(!stdout.contains("join_strategy"), "{query}: {stdout}");
        assert!(stdout.contains("\"parallel_correct\":true"), "{stdout}");
        let key = "\"index_cache\":{\"hits\":1,\"misses\":1}";
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn run_matches_only_facts_of_an_atoms_arity_on_every_transport() {
    // A fact matches atoms of its own arity only: the unary E(a) used to
    // panic the multiway join, and E(b, a, d) used to match E(y, z) there,
    // so the centralized verify disagreed with the run. One kernel runs on
    // both sides now; the cyclic and the acyclic query still have to agree
    // with the answers counted by hand, in memory and on workers.
    for instance in [
        "E(a,b). E(b,c). E(c,a). E(a).",
        "E(a,b). E(b,c). E(c,a). E(a,b,c). E(b,a,d). E(a,a,e).",
    ] {
        for (query, answers) in [(TRIANGLE, 3), ("T(x, z) :- E(x, y), E(y, z).", 3)] {
            for transport in ["memory", "process"] {
                let (code, stdout) = pcq_analyze_output(&[
                    "run",
                    query,
                    "hypercube:2",
                    instance,
                    "--transport",
                    transport,
                    "--json",
                ]);
                assert_eq!(code, 0, "{query} on {instance} ({transport}): {stdout}");
                assert!(
                    stdout.contains(&format!("\"result_size\":{answers}")),
                    "{query} on {instance} ({transport}): {stdout}"
                );
            }
        }
    }
}

#[test]
fn run_rejects_the_removed_streaming_flag() {
    // `--streaming` went with the engine path it selected; it is now an
    // ordinary unknown flag, on its own or next to a transport.
    for extra in [&[][..], &["--transport", "process"][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args([
                "run",
                "chain:2",
                "hypercube:4",
                "random:10:60",
                "--streaming",
            ])
            .args(extra)
            .output()
            .expect("failed to spawn pcq-analyze");
        assert_eq!(output.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with("error: unknown flag '--streaming'"),
            "{stderr}"
        );
    }
}

/// Two trajectory records for the same bench: the second regresses one
/// benchmark by 2x and improves another.
const REGRESSED_TRAJECTORY: &str = concat!(
    r#"{"bench":"cq_eval","unix_ms":1,"results":[{"id":"a/slow","mean_ns":1000000},{"id":"a/fast","mean_ns":2000000}]}"#,
    "\n",
    r#"{"bench":"cq_eval","unix_ms":2,"results":[{"id":"a/slow","mean_ns":2000000},{"id":"a/fast","mean_ns":1000000}]}"#,
    "\n",
);

const STABLE_TRAJECTORY: &str = concat!(
    r#"{"bench":"cq_eval","unix_ms":1,"results":[{"id":"a/x","mean_ns":1000000}]}"#,
    "\n",
    r#"{"bench":"cq_eval","unix_ms":2,"results":[{"id":"a/x","mean_ns":1100000}]}"#,
    "\n",
);

#[test]
fn bench_diff_fails_on_regression_and_names_it() {
    let path = write_temp("regressed.json", REGRESSED_TRAJECTORY);
    let (code, stdout) = pcq_analyze_output(&["bench-diff", path.to_str().unwrap()]);
    assert_eq!(code, 1, "a 2x regression must fail the gate: {stdout}");
    assert!(stdout.contains("REGRESSION cq_eval/a/slow"));
    assert!(
        !stdout.contains("REGRESSION cq_eval/a/fast"),
        "improvements pass"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn bench_diff_passes_within_threshold_and_respects_flags() {
    let path = write_temp("stable.json", STABLE_TRAJECTORY);
    let file = path.to_str().unwrap();
    // +10% is inside the default 25% threshold
    assert_eq!(pcq_analyze(&["bench-diff", file]), 0);
    // ...but outside a 5% threshold
    assert_eq!(
        pcq_analyze(&["bench-diff", file, "--threshold-pct", "5"]),
        1
    );
    // ...unless the whole entry is below the noise floor
    assert_eq!(
        pcq_analyze(&[
            "bench-diff",
            file,
            "--threshold-pct",
            "5",
            "--min-ns",
            "10000000",
        ]),
        0
    );
    // restricting to an unknown bench is a usage error
    assert_eq!(pcq_analyze(&["bench-diff", file, "--bench", "nope"]), 2);
    let _ = std::fs::remove_file(path);
}

#[test]
fn bench_diff_unescapes_quoted_benchmark_ids() {
    // criterion's json_escape writes ids containing quotes as \" — the
    // parser must unescape them so baseline lookups and reports match.
    let trajectory = concat!(
        r#"{"bench":"cq_eval","unix_ms":1,"results":[{"id":"a/\"quoted\"","mean_ns":1000000}]}"#,
        "\n",
        r#"{"bench":"cq_eval","unix_ms":2,"results":[{"id":"a/\"quoted\"","mean_ns":3000000}]}"#,
        "\n",
    );
    let path = write_temp("escaped.json", trajectory);
    let (code, stdout) = pcq_analyze_output(&["bench-diff", path.to_str().unwrap()]);
    assert_eq!(code, 1, "the escaped id must still be compared: {stdout}");
    assert!(
        stdout.contains("REGRESSION cq_eval/a/\"quoted\""),
        "{stdout}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn bench_diff_usage_and_parse_errors_exit_two() {
    assert_eq!(pcq_analyze(&["bench-diff"]), 2);
    assert_eq!(pcq_analyze(&["bench-diff", "/nonexistent/file.json"]), 2);
    let path = write_temp("garbage.json", "not json at all\n");
    assert_eq!(pcq_analyze(&["bench-diff", path.to_str().unwrap()]), 2);
    let _ = std::fs::remove_file(path);
}

#[test]
fn bench_diff_accepts_a_single_run_without_comparison() {
    let path = write_temp(
        "single.json",
        r#"{"bench":"cq_eval","unix_ms":1,"results":[{"id":"a/x","mean_ns":5}]}"#,
    );
    let (code, stdout) = pcq_analyze_output(&["bench-diff", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(stdout.contains("only one run recorded"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_accepts_policy_files_and_literal_instances() {
    let path = write_temp("run-policy.txt", EXAMPLE_3_5_POLICY);
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        PATH_2_WITH_LOOP,
        path.to_str().unwrap(),
        "R(a, a). R(a, b). R(b, b).",
    ]);
    assert_eq!(code, 0, "Example 3.5 policy is parallel-correct: {stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn hypercube_family_membership_answers_both_ways() {
    // The edge projection is parallel-correct for the triangle family...
    assert_eq!(
        pcq_analyze(&["hypercube", TRIANGLE, "U(x, y) :- E(x, y)."]),
        0
    );
    // ...the 4-cycle is not.
    assert_eq!(
        pcq_analyze(&[
            "hypercube",
            TRIANGLE,
            "U(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x).",
        ]),
        1
    );
}

// ------------------------------------------------------------ wire: encode /
// decode / scenarios / transports / bench-diff windows

/// Runs `pcq-analyze` with bytes piped to stdin, returning exit code,
/// stdout bytes and stderr text.
fn pcq_analyze_piped(args: &[&str], stdin_bytes: &[u8]) -> (i32, Vec<u8>) {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to spawn pcq-analyze");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin_bytes)
        .expect("cannot write to stdin");
    let output = child.wait_with_output().expect("wait failed");
    (
        output.status.code().expect("terminated by signal"),
        output.stdout,
    )
}

#[test]
fn a_closed_stdout_ends_the_output_quietly_and_keeps_the_verdict() {
    use std::io::Write;
    use std::process::Stdio;
    // `… | head`: the reader leaves before the program has printed
    // everything. That is not the program's failure: no panic text, and the
    // exit status is still the verdict's.
    let close_early = |args: &[&str], stdin: &[u8]| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn pcq-analyze");
        // The read end goes first, the input after it: a command that reads
        // stdin cannot have printed a byte by then.
        drop(child.stdout.take());
        let mut input = child.stdin.take().expect("stdin piped");
        input.write_all(stdin).expect("cannot write to stdin");
        drop(input);
        let output = child.wait_with_output().expect("wait failed");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.code(), stderr)
    };
    // decode prints a line per fact — after it has read its frame
    let facts: String = (0..2000).map(|i| format!("R(a{i}, b{i}). ")).collect();
    let (code, frame) = pcq_analyze_piped(&["encode", "instance", &facts], b"");
    assert_eq!(code, 0);
    assert_eq!(close_early(&["decode"], &frame), (Some(0), String::new()));
    // a run's report, text and JSON: correct, exit 0
    for json in [&[][..], &["--json"]] {
        let mut args = vec!["run", "chain:2", "hypercube:4", "random:10:60"];
        args.extend(json);
        assert_eq!(
            close_early(&args, b""),
            (Some(0), String::new()),
            "{json:?}"
        );
    }
    // a NO verdict stays exit 1
    let path = write_temp("closed-stdout-policy.txt", EXAMPLE_3_5_POLICY);
    let outcome = close_early(&["pc", PATH_2, path.to_str().unwrap()], b"");
    let _ = std::fs::remove_file(path);
    assert_eq!(outcome, (Some(1), String::new()));
}

#[test]
fn encode_decode_pipe_is_the_identity_for_instances() {
    let (code, frame) = pcq_analyze_piped(&["encode", "instance", "R(a, b). R(b, c)."], b"");
    assert_eq!(code, 0);
    assert_eq!(&frame[..4], b"PCQW", "frames open with the magic");
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    assert_eq!(String::from_utf8_lossy(&text), "R(a, b).\nR(b, c).\n");
}

#[test]
fn encode_decode_pipe_round_trips_queries_and_scenarios() {
    let (code, frame) = pcq_analyze_piped(&["encode", "query", PATH_2], b"");
    assert_eq!(code, 0);
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    assert_eq!(String::from_utf8_lossy(&text).trim(), PATH_2);

    let scenario = "query T(x, z) :- R(x, y), R(y, z).\n\
                    instance { R(a, b). R(b, c). }\n\
                    schedule hash(2), hypercube(2)\n\
                    rounds 4\n\
                    feedback R\n";
    let path = write_temp("scenario.pcq", scenario);
    let (code, frame) = pcq_analyze_piped(&["encode", "scenario", path.to_str().unwrap()], b"");
    assert_eq!(code, 0);
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    // decode prints the canonical pretty-printed form; encoding that text
    // again must produce the same frame (the formats are exact inverses)
    let text = String::from_utf8_lossy(&text).into_owned();
    let path2 = write_temp("scenario2.pcq", &text);
    let (code, frame2) = pcq_analyze_piped(&["encode", "scenario", path2.to_str().unwrap()], b"");
    assert_eq!(code, 0);
    assert_eq!(frame, frame2, "re-encoding the decoded text must agree");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(path2);
}

#[test]
fn encode_and_decode_reject_garbage_with_usage_errors() {
    assert_eq!(pcq_analyze(&["encode"]), 2);
    assert_eq!(pcq_analyze(&["encode", "frobnicate", "x"]), 2);
    assert_eq!(pcq_analyze(&["encode", "query", "not a query"]), 2);
    let (code, _) = pcq_analyze_piped(&["decode"], b"this is not a frame");
    assert_eq!(code, 2);
    let (code, _) = pcq_analyze_piped(&["decode"], b"");
    assert_eq!(code, 2);
    // decode takes no arguments
    let (code, _) = pcq_analyze_piped(&["decode", "extra"], b"");
    assert_eq!(code, 2);
}

#[test]
fn run_scenario_file_reaches_the_fixpoint() {
    let scenario = "query T(x, z) :- R(x, y), R(y, z).\n\
                    instance { R(v0, v1). R(v1, v2). R(v2, v3). R(v3, v4). }\n\
                    schedule hash(2), hypercube(2)\n\
                    rounds 8\n\
                    feedback R\n";
    let path = write_temp("run-scenario.pcq", scenario);
    let (code, stdout) =
        pcq_analyze_output(&["run", "--scenario", path.to_str().unwrap(), "--json"]);
    assert_eq!(code, 0, "{stdout}");
    for key in [
        "\"policy\":\"scenario:",
        "\"schedule\":\"hash(2), hypercube(2)\"",
        "\"converged\":true",
        "\"multi_round_correct\":true",
        "\"transport\":\"memory\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_semi_naive_matches_the_fixpoint_and_reports_itself() {
    let long_chain = "R(a,b). R(b,c). R(c,d). R(d,e). R(e,f). R(f,g). R(g,h). R(h,i).";
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        long_chain,
        "--rounds",
        "8",
        "--feedback",
        "R",
        "--semi-naive",
        "--workers",
        "2",
        "--json",
    ]);
    assert_eq!(code, 0, "{stdout}");
    for key in [
        "\"semi_naive\":true",
        "\"multi_round_correct\":true",
        "\"converged\":true",
        "\"total_comm_bytes\":0",
        "\"comm_bytes\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }

    // The human-readable arm announces the mode.
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        long_chain,
        "--rounds",
        "8",
        "--feedback",
        "R",
        "--semi-naive",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("mode:        semi-naive"));
    assert!(stdout.contains("correct:     yes"));
}

#[test]
fn run_semi_naive_flag_combinations_are_validated() {
    // --semi-naive is a multi-round mode.
    assert_eq!(
        pcq_analyze(&["run", "chain:2", "hypercube:2", CHAIN_FACTS, "--semi-naive"]),
        2
    );
}

#[test]
fn run_semi_naive_accepts_multi_policy_schedules() {
    // A policy switch now triggers an explicit re-shard round instead of
    // being rejected; the run must still match the fixpoint.
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        CHAIN_FACTS,
        "--rounds",
        "4",
        "--semi-naive",
        "--schedule",
        "broadcast:2,hypercube:2",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("correct:     yes"), "{stdout}");
}

#[test]
fn run_scenario_with_explicit_policy_stanza() {
    // The pc policy-file format embedded in a scenario: Example 3.5's
    // policy is parallel-correct for the query with the loop atom.
    let scenario = "query T(x, z) :- R(x, y), R(y, z), R(x, x).\n\
                    instance { R(a, a). R(a, b). R(b, a). R(b, b). }\n\
                    policy {\n\
                      n0: R(a, a) R(b, a) R(b, b)\n\
                      n1: R(a, a) R(a, b) R(b, b)\n\
                    }\n\
                    schedule explicit\n";
    let path = write_temp("explicit-policy.pcq", scenario);
    let (code, stdout) =
        pcq_analyze_output(&["run", "--scenario", path.to_str().unwrap(), "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"schedule\":\"explicit\""), "{stdout}");
    assert!(stdout.contains("\"multi_round_correct\":true"), "{stdout}");

    // a schedule that says explicit without the stanza is a parse error
    let bad = write_temp(
        "explicit-missing.pcq",
        "query T(x) :- R(x, y).\ninstance { R(a, b). }\nschedule explicit\n",
    );
    assert_eq!(
        pcq_analyze(&["run", "--scenario", bad.to_str().unwrap()]),
        2
    );
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(bad);
}

#[test]
fn encode_decode_round_trips_scenarios_with_policy_stanzas() {
    let scenario = "query T(x) :- R(x, y).\n\
                    instance { R(a, b). R(c, d). }\n\
                    policy {\n\
                      n0: R(a, b)\n\
                      default: n1\n\
                    }\n\
                    schedule explicit\n";
    let path = write_temp("encode-policy.pcq", scenario);
    let encoded = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
        .args(["encode", "scenario", path.to_str().unwrap()])
        .output()
        .expect("encode failed to spawn");
    assert!(encoded.status.success());
    use std::io::Write;
    let mut decode = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
        .arg("decode")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("decode failed to spawn");
    decode
        .stdin
        .take()
        .unwrap()
        .write_all(&encoded.stdout)
        .unwrap();
    let out = decode.wait_with_output().unwrap();
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout);
    assert!(printed.contains("policy {"), "{printed}");
    assert!(printed.contains("n0: R(a, b)"), "{printed}");
    assert!(printed.contains("default: n1"), "{printed}");
    assert!(printed.contains("schedule explicit"), "{printed}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_multi_round_semi_naive_process_transport_converges() {
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        "random:12:40",
        "--rounds",
        "6",
        "--feedback",
        "R",
        "--workers",
        "3",
        "--transport",
        "process",
        "--semi-naive",
        "--json",
    ]);
    assert_eq!(code, 0, "{stdout}");
    for key in [
        "\"transport\":\"process\"",
        "\"semi_naive\":true",
        "\"multi_round_correct\":true",
        "\"converged\":true",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // real bytes crossed the pipes
    assert!(!stdout.contains("\"total_comm_bytes\":0"), "{stdout}");
}

#[test]
fn run_scenario_conflicts_are_usage_errors() {
    let path = write_temp(
        "conflict.pcq",
        "query T(x) :- R(x, y).\ninstance { R(a, b). }\nschedule broadcast(2)\n",
    );
    let file = path.to_str().unwrap();
    // positionals and --scenario are mutually exclusive
    assert_eq!(
        pcq_analyze(&[
            "run",
            "triangle",
            "hypercube:2",
            "R(a, b).",
            "--scenario",
            file
        ]),
        2
    );
    // the scenario owns the schedule
    assert_eq!(
        pcq_analyze(&["run", "--scenario", file, "--schedule", "hypercube:2"]),
        2
    );
    assert_eq!(pcq_analyze(&["run", "--scenario", "/nonexistent.pcq"]), 2);
    let _ = std::fs::remove_file(path);
}

/// A transferring pair (loop → path, paper §4) followed by a
/// non-transferring boundary (path → loop): exactly one reshuffle can be
/// elided, and both boundaries must be checked.
const MULTI_QUERY_SCENARIO: &str = "queries {\n\
      T(x, z) :- R(x, y), R(y, z), R(y, y).\n\
      T(x, z) :- R(x, y), R(y, z).\n\
      T(x, z) :- R(x, y), R(y, z), R(y, y).\n\
    }\n\
    instance { R(a, b). R(b, c). R(b, b). R(c, d). }\n\
    schedule broadcast(2)\n\
    rounds 4\n";

#[test]
fn run_multi_query_scenario_elides_transferable_reshuffles() {
    let path = write_temp("multi-query.pcq", MULTI_QUERY_SCENARIO);
    let file = path.to_str().unwrap();
    let (code, stdout) = pcq_analyze_output(&["run", "--scenario", file, "--json"]);
    assert_eq!(code, 0, "{stdout}");
    for key in [
        "\"queries\":3",
        "\"transfer_checks\":2",
        "\"elided_reshuffles\":1",
        "\"multi_round_correct\":true",
        "\"reshuffle_always\":false",
        "\"per_query\":[{",
        "\"total_comm_volume\":",
        "\"total_comm_bytes\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }

    // The baseline disables the elision and consults no oracle.
    let (code, stdout) =
        pcq_analyze_output(&["run", "--scenario", file, "--reshuffle-always", "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"transfer_checks\":0"), "{stdout}");
    assert!(stdout.contains("\"elided_reshuffles\":0"), "{stdout}");
    assert!(stdout.contains("\"reshuffle_always\":true"), "{stdout}");

    // The human-readable arm names the elision decisions per query.
    let (code, stdout) = pcq_analyze_output(&["run", "--scenario", file]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("transfer:    2 check(s), 1 reshuffle(s) elided"),
        "{stdout}"
    );
    assert!(
        stdout.contains("elided (ran on resident shards)"),
        "{stdout}"
    );
    assert!(stdout.contains("resharded"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_multi_query_scenario_rides_wire_transports() {
    let path = write_temp("multi-query-wire.pcq", MULTI_QUERY_SCENARIO);
    let file = path.to_str().unwrap();
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "--scenario",
        file,
        "--transport",
        "process",
        "--workers",
        "2",
        "--json",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"elided_reshuffles\":1"), "{stdout}");
    assert!(stdout.contains("\"multi_round_correct\":true"), "{stdout}");
    // real bytes crossed the pipes
    assert!(!stdout.contains("\"total_comm_bytes\":0"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_reshuffle_always_and_malformed_query_blocks_are_usage_errors() {
    // --reshuffle-always only means something for a scenario's queries
    assert_eq!(
        pcq_analyze(&[
            "run",
            "chain:2",
            "hypercube:2",
            CHAIN_FACTS,
            "--reshuffle-always"
        ]),
        2
    );
    // an empty queries block is a parse error
    let path = write_temp(
        "empty-queries.pcq",
        "queries { }\ninstance { R(a, b). }\nschedule broadcast(2)\n",
    );
    assert_eq!(
        pcq_analyze(&["run", "--scenario", path.to_str().unwrap()]),
        2
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_process_transport_matches_memory_and_reports_itself() {
    use pcq::wire::json::JsonValue;
    let run = |transport: &str| {
        let (code, stdout) = pcq_analyze_output(&[
            "run",
            "chain:2",
            "hypercube:2",
            "random:10:30",
            "--workers",
            "2",
            "--transport",
            transport,
            "--json",
        ]);
        assert_eq!(code, 0, "{stdout}");
        let doc = JsonValue::parse(stdout.trim()).expect("run --json must stay valid JSON");
        let field = |key: &str| doc.get(key).cloned().unwrap_or(JsonValue::Null);
        assert_eq!(field("transport").as_str(), Some(transport), "{stdout}");
        assert!(stdout.contains("\"parallel_correct\":true"), "{stdout}");
        (field("result_size").as_u64(), field("comm_bytes").as_u64())
    };
    let (process_size, process_bytes) = run("process");
    let (memory_size, memory_bytes) = run("memory");
    assert_eq!(process_size, memory_size);
    // The one-round path reports the bytes its transport serialized:
    // request + result frames over the pipes, an honest zero in memory.
    assert!(
        process_bytes.is_some_and(|bytes| bytes > 0),
        "{process_bytes:?}"
    );
    assert_eq!(memory_bytes, Some(0));
}

#[test]
fn run_multi_round_process_transport_converges() {
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        "chain:2",
        "hypercube:2",
        "R(v0, v1). R(v1, v2). R(v2, v3). R(v3, v4).",
        "--rounds",
        "8",
        "--feedback",
        "R",
        "--workers",
        "2",
        "--transport",
        "process",
        "--json",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"transport\":\"process\""), "{stdout}");
    assert!(stdout.contains("\"converged\":true"), "{stdout}");
    assert!(stdout.contains("\"multi_round_correct\":true"), "{stdout}");
}

#[test]
fn run_transport_flag_is_validated() {
    let args = ["run", "chain:2", "hypercube:2", "R(a, b).", "--transport"];
    assert_eq!(pcq_analyze(&args), 2, "missing transport name");
    assert_eq!(
        pcq_analyze(&[
            "run",
            "chain:2",
            "hypercube:2",
            "R(a, b).",
            "--transport",
            "carrier-pigeon"
        ]),
        2
    );
    // worker takes no arguments
    assert_eq!(pcq_analyze(&["worker", "extra"]), 2);
}

/// Four runs of one bench: a noisy fast outlier right before a normal
/// latest run. Latest-vs-previous flags a bogus +44% regression; the
/// median over the default window of 3 absorbs the outlier.
const NOISY_TRAJECTORY: &str = concat!(
    r#"{"bench":"cq_eval","unix_ms":1,"results":[{"id":"a/x","mean_ns":1300000}]}"#,
    "\n",
    r#"{"bench":"cq_eval","unix_ms":2,"results":[{"id":"a/x","mean_ns":1300000}]}"#,
    "\n",
    r#"{"bench":"cq_eval","unix_ms":3,"results":[{"id":"a/x","mean_ns":900000}]}"#,
    "\n",
    r#"{"bench":"cq_eval","unix_ms":4,"results":[{"id":"a/x","mean_ns":1300000}]}"#,
    "\n",
);

#[test]
fn bench_diff_window_median_absorbs_noisy_outliers() {
    let path = write_temp("noisy.json", NOISY_TRAJECTORY);
    let file = path.to_str().unwrap();
    // window 1 = plain latest-vs-previous: the fast outlier makes the
    // normal latest run look like a +44% regression
    assert_eq!(pcq_analyze(&["bench-diff", file, "--window", "1"]), 1);
    // the default window of 3 takes the median of {1300000, 1300000,
    // 900000} = 1300000: no regression
    assert_eq!(pcq_analyze(&["bench-diff", file]), 0);
    assert_eq!(pcq_analyze(&["bench-diff", file, "--window", "3"]), 0);
    // window flag validation
    assert_eq!(pcq_analyze(&["bench-diff", file, "--window", "0"]), 2);
    assert_eq!(pcq_analyze(&["bench-diff", file, "--window", "x"]), 2);
    let _ = std::fs::remove_file(path);
}

/// A genuine slow regression must still fail whatever the window.
#[test]
fn bench_diff_window_still_catches_real_regressions() {
    let path = write_temp("real-regression.json", REGRESSED_TRAJECTORY);
    let file = path.to_str().unwrap();
    assert_eq!(pcq_analyze(&["bench-diff", file]), 1);
    assert_eq!(pcq_analyze(&["bench-diff", file, "--window", "3"]), 1);
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_json_carries_a_histograms_block_with_ordered_quantiles() {
    use pcq::wire::json::JsonValue;

    let args = [
        "run",
        PATH_2,
        "hypercube:4",
        "random:12:80",
        "--rounds",
        "4",
        "--feedback",
        "R",
        "--json",
    ];
    let (code, stdout) = pcq_analyze_output(&args);
    assert_eq!(code, 0);
    let doc = JsonValue::parse(stdout.trim()).expect("run --json must stay valid JSON");
    let latency = doc
        .get("histograms")
        .and_then(|h| h.get("round_latency_us"))
        .expect("multi-round run --json must report round_latency_us");
    let field = |key: &str| {
        latency
            .get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing {key} in {latency}"))
    };
    assert!(field("count") >= 2, "several rounds, several samples");
    assert!(field("min") <= field("p50"));
    assert!(field("p50") <= field("p90"));
    assert!(field("p90") <= field("p99"));
    assert!(field("p99") <= field("max"));

    // The registries' counters sit beside the histograms: the report is the
    // whole export, and the flag that wrote it to a second file is gone.
    let counters = doc
        .get("counters")
        .expect("run --json must report counters");
    let hits = counters.get("index_cache_hits").and_then(JsonValue::as_u64);
    let misses = counters
        .get("index_cache_misses")
        .and_then(JsonValue::as_u64);
    assert!(
        hits.is_some() && misses.is_some_and(|n| n > 0),
        "{counters}"
    );
    let mut with_flag = args.to_vec();
    with_flag.extend(["--metrics", "metrics.json"]);
    assert_eq!(pcq_analyze(&with_flag), 2, "--metrics is an unknown flag");
}

#[test]
fn trace_summarize_handles_degenerate_inputs_without_panicking() {
    // An empty trace, a process with zero spans, and a zero-duration round
    // are all summarizable; malformed JSON is a clean usage error.
    let empty = write_temp("empty-trace.json", r#"{"traceEvents":[]}"#);
    let (code, stdout) = pcq_analyze_output(&["trace", "summarize", empty.to_str().unwrap()]);
    assert_eq!(code, 0, "an empty trace summarizes cleanly");
    assert!(stdout.contains("events: 0"), "wrong summary: {stdout}");

    let degenerate = write_temp(
        "degenerate-trace.json",
        r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"idle"}},
            {"name":"eval_round","ph":"X","ts":10,"dur":0,"pid":0,"tid":1,
             "args":{"id":"1","parent":"0","round":"0"}}
        ]}"#,
    );
    let (code, stdout) = pcq_analyze_output(&["trace", "summarize", degenerate.to_str().unwrap()]);
    assert_eq!(code, 0, "zero-duration rounds must not divide by zero");
    assert!(stdout.contains("eval_round"), "missing phase: {stdout}");

    let garbage = write_temp("garbage-trace.json", "this is not json");
    assert_eq!(
        pcq_analyze(&["trace", "summarize", garbage.to_str().unwrap()]),
        2,
        "malformed JSON is a usage error, not a panic"
    );

    for path in [empty, degenerate, garbage] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn trace_diff_validates_its_arguments() {
    let empty = write_temp("diff-empty.json", r#"{"traceEvents":[]}"#);
    let file = empty.to_str().unwrap();
    // Two empty traces diff clean.
    assert_eq!(pcq_analyze(&["trace", "diff", file, file]), 0);
    // Missing operands, bad threshold, unreadable file: usage errors.
    assert_eq!(pcq_analyze(&["trace", "diff", file]), 2);
    assert_eq!(
        pcq_analyze(&["trace", "diff", file, file, "--threshold", "-5"]),
        2
    );
    assert_eq!(
        pcq_analyze(&["trace", "diff", file, file, "--threshold", "x"]),
        2
    );
    assert_eq!(
        pcq_analyze(&["trace", "diff", file, "/no/such/trace.json"]),
        2
    );
    assert_eq!(pcq_analyze(&["trace"]), 2);
    let _ = std::fs::remove_file(empty);
}

#[test]
fn slow_eval_needs_a_wire_transport() {
    assert_eq!(
        pcq_analyze(&[
            "run",
            PATH_2,
            "hypercube:4",
            "random:8:40",
            "--slow-eval-us",
            "100",
        ]),
        2,
        "--slow-eval-us on the in-memory transport is a usage error"
    );
}
