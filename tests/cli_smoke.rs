//! End-to-end smoke tests for the `pcq-analyze` CLI: every subcommand is
//! exercised through a real process spawn, checking the documented exit-code
//! contract (0 = property holds, 1 = it does not, 2 = usage/parse error).

use pcq::obs::json::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A directory of one test's files under the system temp directory,
/// removed with everything in it when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("pcq-smoke-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("cannot create a temp directory");
        TempDir(path)
    }

    /// The path of the file `name` in the directory.
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Writes `contents` to the file `name` in the directory; its path.
    fn write(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.path(name);
        std::fs::write(&path, contents).expect("cannot write a temp file");
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn analyze_accepts_a_literal_query() {
    assert_eq!(pcq_analyze(&["analyze", PATH_2]), 0);
}

#[test]
fn analyze_reads_a_query_from_a_file() {
    let dir = TempDir::new();
    let path = dir.write("query.cq", TRIANGLE);
    assert_eq!(pcq_analyze(&["analyze", path.to_str().unwrap()]), 0);
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
    let dir = TempDir::new();
    let path = dir.write("policy.txt", EXAMPLE_3_5_POLICY);
    let policy = path.to_str().unwrap();
    // Example 3.5 of the paper: with the R(x, x) loop every minimal
    // valuation meets at a node, so the query is parallel-correct...
    assert_eq!(pcq_analyze(&["pc", PATH_2_WITH_LOOP, policy]), 0);
    // ...while the plain 2-path loses answers under the same policy.
    assert_eq!(pcq_analyze(&["pc", PATH_2, policy]), 1);
}

#[test]
fn pc_no_report_names_the_valuation_the_instance_and_the_lost_fact() {
    let dir = TempDir::new();
    // The whole report of a NO verdict, as printed: the first minimal
    // valuation (in enumeration order: the triejoin binds `y`, then `x`,
    // then `z`, each ascending) whose facts do not meet, its required facts
    // as the counterexample instance, the fact the nodes lose — and how many
    // candidates it took. Only the candidates whose facts do not meet ask
    // about minimality: here the fourth, the witness.
    let path = dir.write("no-policy.txt", EXAMPLE_3_5_POLICY);
    let (code, stdout) = pcq_analyze_output(&["pc", PATH_2, path.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(
        stdout,
        "query:   T(x, z) :- R(x, y), R(y, z).\n\
         network: {n0, n1}\n\
         minimality: 4 candidates, 0 by equality type, 1 searched\n\
         parallel-correct: NO\n\
         \x20 minimal valuation:       {x ↦ b, z ↦ b, y ↦ a}\n\
         \x20 counterexample instance: {R(a, b), R(b, a)}\n\
         \x20 lost fact:               T(b, b)\n"
    );
}

#[test]
fn pc_rejects_malformed_policy_files() {
    let dir = TempDir::new();
    let path = dir.write("bad-policy.txt", "n0 R(a, b)\n");
    assert_eq!(pcq_analyze(&["pc", PATH_2, path.to_str().unwrap()]), 2);
}

#[test]
fn pc_and_run_reject_node_names_the_policy_stanza_rejects() {
    let dir = TempDir::new();
    // A space, parentheses and an empty name: each policy file exits 2 and
    // the message names the bad name.
    for (file, name) in [
        ("n 0: R(a, b)\n", "'n 0'"),
        ("n(0): R(a, b)\n", "'n(0)'"),
        (": R(a, b)\n", "''"),
    ] {
        let path = dir.write("bad-name-policy.txt", file);
        let policy = path.to_str().unwrap();
        for args in [
            &["pc", PATH_2, policy][..],
            &["run", PATH_2, policy, "R(a, b)."][..],
        ] {
            let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
                .args(args)
                .output()
                .expect("spawn pcq-analyze");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
            let named = format!("{name} is not a node name");
            assert!(stderr.contains(&named), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn policy_files_parse_as_the_policy_stanza_does() {
    let dir = TempDir::new();
    // A second `default:` entry is an error, as it is in a scenario.
    let path = dir.write(
        "two-defaults-policy.txt",
        "n0: R(a, b)\ndefault: n0\ndefault: n1\n",
    );
    let policy = path.to_str().unwrap();
    for args in [
        &["pc", PATH_2, policy][..],
        &["run", PATH_2, policy, "R(a, b)."][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args(args)
            .output()
            .expect("spawn pcq-analyze");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("duplicate 'default'"), "{args:?}: {stderr}");
    }
    // A `;` ends an entry, as it does in a scenario: two nodes, whose facts
    // R(a, b) and R(b, c) meet nowhere, so the 2-path loses T(a, c).
    let path = dir.write("semicolon-policy.txt", "n0: R(a, b); n1: R(b, c)\n");
    let policy = path.to_str().unwrap();
    assert_eq!(pcq_analyze(&["pc", PATH_2, policy]), 1);
    let (code, stdout) =
        pcq_analyze_output(&["run", PATH_2, policy, "R(a, b). R(b, c).", "--json"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("\"nodes\":2"), "{stdout}");
    assert!(stdout.contains("\"parallel_correct\":false"), "{stdout}");
}

#[test]
fn parse_errors_name_the_byte_of_the_file_as_written() {
    let dir = TempDir::new();
    // Leading blank lines count: the bad `.` is byte 17 of the facts file
    // and byte 19 of the query file.
    let facts = dir.write("blank-lines.facts", "\n\n\nR(a, b).\nR(a, .\n");
    let query = dir.write("blank-lines.cq", "\n\nT(x) :- R(x, y), .\n");
    let (facts, query) = (facts.to_str().unwrap(), query.to_str().unwrap());
    for (args, byte) in [
        (&["encode", "instance", facts][..], 17),
        (&["run", PATH_2, "hash-join:2", facts][..], 17),
        (&["analyze", query][..], 19),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args(args)
            .output()
            .expect("spawn pcq-analyze");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        let expected = format!("parse error at byte {byte}: expected an identifier");
        assert!(stderr.contains(&expected), "{args:?}: {stderr}");
    }
}

#[test]
fn transfer_holds_reflexively_and_rejects_unknown_flags() {
    assert_eq!(pcq_analyze(&["transfer", PATH_2, PATH_2]), 0);
    assert_eq!(pcq_analyze(&["transfer", PATH_2, PATH_2, "--bogus"]), 2);
}

#[test]
fn transfer_strongly_minimal_fast_path_agrees() {
    // `transfer` picks its characterization itself: the removed
    // `--strongly-minimal` flag is an unknown flag, a usage error.
    assert_eq!(
        pcq_analyze(&["transfer", PATH_2, PATH_2, "--strongly-minimal"]),
        2
    );
    // A full source passes Lemma 4.8, so (C3) decides its yes; the plain
    // 2-path and the 2-path with a loop do not, so (C2) decides.
    let full = "T(x, y, z) :- R(x, y), R(y, z).";
    let (code, stdout) = pcq_analyze_output(&["transfer", full, PATH_2]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("parallel-correctness transfers (C3): yes"),
        "{stdout}"
    );
    for source in [PATH_2, "T(x, z) :- R(x, y), R(y, z), R(y, y)."] {
        let (code, stdout) = pcq_analyze_output(&["transfer", source, PATH_2]);
        assert_eq!(code, 0, "{stdout}");
        assert!(
            stdout.contains("parallel-correctness transfers (C2): yes"),
            "{stdout}"
        );
    }
    // A Lemma 4.8 source whose answer is NO is refuted by (C2), witness
    // and all.
    let (code, stdout) =
        pcq_analyze_output(&["transfer", "T(x, y) :- R(x, y).", "U(x) :- S(x, x)."]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("parallel-correctness transfers (C2): NO"),
        "{stdout}"
    );
    assert!(stdout.contains("witness valuation of Q'"), "{stdout}");
    assert!(
        stdout.contains("facts no minimal valuation of Q covers"),
        "{stdout}"
    );
}

#[test]
fn decision_commands_reject_trailing_arguments() {
    let dir = TempDir::new();
    // Every positional subcommand takes exactly its arguments (and
    // `transfer` one optional flag): anything after them is a usage
    // error, never silently dropped.
    let path = dir.write("trailing-policy.txt", EXAMPLE_3_5_POLICY);
    let policy = path.to_str().unwrap();
    for args in [
        &["analyze", PATH_2, "extra"][..],
        &["pc", PATH_2_WITH_LOOP, policy, "extra"],
        &["transfer", PATH_2, PATH_2, "--no-skip", "--json"],
        &["transfer", PATH_2, PATH_2, "extra"],
        &["hypercube", TRIANGLE, "U(x, y) :- E(x, y).", "extra"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args(args)
            .output()
            .expect("spawn pcq-analyze");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    }
    // Without the trailing argument each of them decides.
    assert_eq!(pcq_analyze(&["analyze", PATH_2]), 0);
    assert_eq!(pcq_analyze(&["pc", PATH_2_WITH_LOOP, policy]), 0);
    assert_eq!(pcq_analyze(&["transfer", PATH_2, PATH_2, "--no-skip"]), 0);
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

/// `pcq-analyze args`, which must exit 0: its stdout, parsed as JSON.
fn json_of(args: &[&str]) -> JsonValue {
    let (code, stdout) = pcq_analyze_output(args);
    assert_eq!(code, 0, "{args:?}: {stdout}");
    JsonValue::parse(stdout.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}: {stdout}"))
}

/// The integer at `key` of a JSON object.
fn number(doc: &JsonValue, key: &str) -> u64 {
    let value = doc.get(key).and_then(JsonValue::as_u64);
    value.unwrap_or_else(|| panic!("no {key} in {doc}"))
}

/// The lines of a report's plan.
fn plan(doc: &JsonValue) -> Vec<&str> {
    let lines = doc.get("plan").and_then(JsonValue::as_array).unwrap();
    lines.iter().map(|line| line.as_str().unwrap()).collect()
}

/// The `run --json` fields every run of one workload must agree on, in
/// either grammar and on every transport: `result_size`, `rounds_run`, and
/// per round `total_assigned`, whose sum is `total_comm_volume`.
fn digest(doc: &JsonValue) -> Vec<u64> {
    let mut digest = vec![number(doc, "result_size")];
    match doc.get("rounds").and_then(JsonValue::as_array) {
        Some(rounds) => {
            digest.push(number(doc, "rounds_run"));
            assert_eq!(rounds.len() as u64, digest[1]);
            digest.extend(rounds.iter().map(|r| number(r, "total_assigned")));
            let volume = number(doc, "total_comm_volume");
            assert_eq!(digest[2..].iter().sum::<u64>(), volume);
        }
        // a one-round report: its one round's statistics
        None => {
            let stats = doc.get("stats").expect("a one-round report has stats");
            digest.extend([1, number(stats, "total_assigned")]);
        }
    }
    digest
}

/// The verdict (the exit status) and the [`digest`] of `run … --json`.
fn run_digest(args: &[&str]) -> (i32, Vec<u64>) {
    let (code, stdout) = pcq_analyze_output(args);
    let doc = JsonValue::parse(stdout.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    (code, digest(&doc))
}

#[test]
fn a_positional_run_and_the_scenario_stating_the_same_report_the_same() {
    let dir = TempDir::new();
    let facts = "R(a,b). R(b,c). R(c,d). R(d,e). R(e,f). R(f,a). R(c,g). R(g,g).";
    let policy_file = dir.write("same-policy.txt", "n0: R(a, b) R(b, c)\ndefault: n0 n1\n");
    let policy_file = policy_file.to_str().unwrap();
    let stanza = "policy { n0: R(a, b) R(b, c)\n default: n0 n1 }";
    let shapes: [(&str, &[&str], &str); 5] = [
        ("hypercube:4", &[], "schedule hypercube(4)"),
        (
            "hypercube:2",
            &["--rounds", "6", "--feedback", "R"],
            "schedule hypercube(2)\nrounds 6\nfeedback R",
        ),
        (
            "hypercube:2",
            &["--rounds", "6", "--schedule", "hash-join:3,hypercube:2"],
            "schedule hash(3), hypercube(2)\nrounds 6",
        ),
        (
            "hypercube:2",
            &[
                "--rounds",
                "6",
                "--schedule",
                "hash-join:3,hypercube:2",
                "--feedback",
                "R",
            ],
            "schedule hash(3), hypercube(2)\nrounds 6\nfeedback R",
        ),
        (policy_file, &[], &format!("{stanza}\nschedule explicit")),
    ];
    for (i, (policy, flags, stanzas)) in shapes.into_iter().enumerate() {
        let text = format!("query {PATH_2}\ninstance {{ {facts} }}\n{stanzas}\n");
        let scenario = dir.write(&format!("same-{i}.pcq"), &text);
        for transport in ["memory", "process"] {
            let common = ["--transport", transport, "--workers", "2", "--json"];
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
    }
}

/// The top-level keys of a one-round `run --json` report, in order.
const ONE_ROUND_KEYS: [&str; 15] = [
    "query",
    "policy",
    "instance",
    "instance_facts",
    "transport",
    "workers",
    "result_size",
    "parallel_correct",
    "comm_bytes",
    "stats",
    "timings_us",
    "per_node",
    "plan",
    "counters",
    "histograms",
];

#[test]
fn a_one_round_run_and_the_round_loop_capped_at_one_report_the_same() {
    // Both go through the one round loop: without feedback a second round
    // would repeat the first, so `--rounds 1` is the whole run, converged,
    // and only the report's shape differs.
    let number = |doc: &JsonValue, key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("no {key} in {doc}"))
    };
    for transport in ["memory", "process"] {
        let args = [
            "run",
            TRIANGLE,
            "hypercube:2",
            "random:30:300:7",
            "--workers",
            "2",
            "--transport",
            transport,
            "--json",
        ];
        let (code, one) = pcq_analyze_output(&args);
        assert_eq!(code, 0, "{one}");
        let (code, capped) = pcq_analyze_output(&[&args[..], &["--rounds", "1"]].concat());
        assert_eq!(code, 0, "{capped}");
        let one = JsonValue::parse(one.trim()).unwrap();
        let capped = JsonValue::parse(capped.trim()).unwrap();
        let JsonValue::Object(members) = &one else {
            panic!("not an object: {one}");
        };
        let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ONE_ROUND_KEYS, "{transport}");

        assert_eq!(number(&capped, "rounds_run"), 1, "{transport}");
        assert_eq!(number(&capped, "reference_rounds"), 1, "{transport}");
        assert!(
            capped.to_string().contains("\"converged\":true"),
            "{capped}"
        );
        assert_eq!(
            number(&one, "result_size"),
            number(&capped, "result_size"),
            "{transport}"
        );
        let stats = one.get("stats").unwrap();
        assert_eq!(
            number(stats, "total_assigned"),
            number(&capped, "total_comm_volume"),
            "{transport}"
        );
        let round = &capped.get("rounds").and_then(JsonValue::as_array).unwrap()[0];
        for key in ["nodes", "total_assigned", "distinct_assigned", "max_load"] {
            assert_eq!(number(stats, key), number(round, key), "{transport}: {key}");
        }
        let loads: Vec<u64> = one
            .get("per_node")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|node| number(node, "load"))
            .collect();
        assert_eq!(loads.len() as u64, number(round, "nodes"), "{transport}");
        assert_eq!(loads.iter().sum::<u64>(), number(round, "total_assigned"));
        assert_eq!(loads.iter().max().copied(), Some(number(round, "max_load")));
        // A node's reply carries its evaluation time as a varint, so the
        // bytes of two runs may differ by its width and by nothing else.
        let (bytes, capped_bytes) = (
            number(&one, "comm_bytes"),
            number(&capped, "total_comm_bytes"),
        );
        assert!(
            bytes.abs_diff(capped_bytes) <= 2 * loads.len() as u64,
            "{transport}: {bytes} vs {capped_bytes} bytes"
        );
        assert_eq!(
            bytes == 0,
            transport == "memory",
            "{transport}: {bytes} bytes"
        );
    }
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
    // The reports name no strategy any more, cyclic or acyclic, and no
    // index cache either: the in-memory transport keeps none.
    for query in ["triangle", "chain:2"] {
        let facts = "E(a, b). E(b, c). E(c, a). E(a, c). R(a, b). R(b, c).";
        let (code, stdout) = pcq_analyze_output(&["run", query, "broadcast:2", facts]);
        assert_eq!(code, 0, "{query}: {stdout}");
        assert!(!stdout.contains("join:"), "{query}: {stdout}");
        assert!(!stdout.contains("index cache"), "{stdout}");
        let (code, stdout) = pcq_analyze_output(&["run", query, "broadcast:2", facts, "--json"]);
        assert_eq!(code, 0, "{query}: {stdout}");
        assert!(!stdout.contains("join_strategy"), "{query}: {stdout}");
        assert!(stdout.contains("\"parallel_correct\":true"), "{stdout}");
        assert!(!stdout.contains("index_cache"), "{stdout}");
    }
}

#[test]
fn run_rejects_the_removed_distribute_workers_flag() {
    // The reshuffle is one sequential pass; no flag shards it any more. The
    // old flag is an unknown flag, a usage error, never silently ignored.
    for count in [&["2"][..], &["1"], &[]] {
        let output = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args(["run", "triangle", "hypercube:2", CHAIN_FACTS])
            .arg("--distribute-workers")
            .args(count)
            .output()
            .expect("failed to spawn pcq-analyze");
        assert_eq!(output.status.code(), Some(2), "{count:?}");
        assert!(
            output.stdout.is_empty(),
            "{count:?}: a rejected run prints no report"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with("error: unknown flag '--distribute-workers'"),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(!stderr.contains("--distribute-workers N"), "{stderr}");
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

#[test]
fn run_accepts_policy_files_and_literal_instances() {
    let dir = TempDir::new();
    let path = dir.write("run-policy.txt", EXAMPLE_3_5_POLICY);
    let (code, stdout) = pcq_analyze_output(&[
        "run",
        PATH_2_WITH_LOOP,
        path.to_str().unwrap(),
        "R(a, a). R(a, b). R(b, b).",
    ]);
    assert_eq!(code, 0, "Example 3.5 policy is parallel-correct: {stdout}");
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
// decode / scenarios / transports

/// Runs `pcq-analyze` with bytes piped to stdin, returning exit code and
/// stdout bytes.
fn pcq_analyze_piped(args: &[&str], stdin_bytes: &[u8]) -> (i32, Vec<u8>) {
    let (code, stdout, _) = pcq_analyze_with_stderr(args, stdin_bytes);
    (code, stdout)
}

/// [`pcq_analyze_piped`], also returning the stderr text.
fn pcq_analyze_with_stderr(args: &[&str], stdin_bytes: &[u8]) -> (i32, Vec<u8>, String) {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
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
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn only_usage_mistakes_print_the_usage_text() {
    let dir = TempDir::new();
    // A frame of another wire version, a file that does not parse: one
    // `error:` line, no usage text to bury it. An unknown flag, a missing
    // or extra operand: the error, then the usage. All exit 2.
    let (code, mut frame) = pcq_analyze_piped(&["encode", "query", PATH_2], b"");
    assert_eq!(code, 0);
    frame[4] = 5;
    let garbage = dir.write("usage-garbage.query", "T(x) :- R(x,");
    let errors: [(&[&str], &[u8]); 2] = [
        (&["decode"], &frame),
        (&["analyze", garbage.to_str().unwrap()], b""),
    ];
    for (args, stdin) in errors {
        let (code, _, stderr) = pcq_analyze_with_stderr(args, stdin);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let mistakes: [&[&str]; 4] = [
        &["run", "--no-such-flag"],
        &["decode", "extra"],
        &["pc", PATH_2],
        &["frobnicate"],
    ];
    for args in mistakes {
        let (code, _, stderr) = pcq_analyze_with_stderr(args, b"");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_ends_the_output_quietly_and_keeps_the_verdict() {
    let dir = TempDir::new();
    use std::io::{Read, Write};
    // `… | head`: the reader leaves before the program has printed
    // everything. That is not the program's failure: no panic text, and the
    // exit status is still the verdict's.
    let close_early = |args: &[&str], stdin: &[u8], take: usize| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("failed to spawn pcq-analyze");
        // A reader that takes nothing goes first, the input after it: a
        // command that reads stdin cannot have printed a byte by then.
        let reader = child.stdout.take().filter(|_| take > 0);
        let mut input = child.stdin.take().expect("stdin piped");
        input.write_all(stdin).expect("cannot write to stdin");
        drop(input);
        if let Some(mut reader) = reader {
            reader
                .read_exact(&mut vec![0; take])
                .expect("the first bytes");
        }
        let output = child.wait_with_output().expect("wait failed");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.code(), stderr)
    };
    // decode prints a line per fact — after it has read its frame
    let facts: String = (0..2000).map(|i| format!("R(a{i}, b{i}). ")).collect();
    let (code, frame) = pcq_analyze_piped(&["encode", "instance", &facts], b"");
    assert_eq!(code, 0);
    assert_eq!(
        close_early(&["decode"], &frame, 0),
        (Some(0), String::new())
    );
    // `decode | head -c 100` on a 20 000-line file's frame
    let facts: String = (1..=20_000).map(|i| format!("R(a{i}, b{i}).\n")).collect();
    let big = dir.write("big.facts", &facts);
    let big = big.to_str().unwrap();
    let (code, frame) = pcq_analyze_piped(&["encode", "instance", big], b"");
    assert_eq!(code, 0);
    assert_eq!(
        close_early(&["decode"], &frame, 100),
        (Some(0), String::new())
    );
    // a run's report, text and JSON: correct, exit 0
    for json in [&[][..], &["--json"]] {
        let mut args = vec!["run", "chain:2", "hypercube:4", "random:10:60"];
        args.extend(json);
        assert_eq!(
            close_early(&args, b"", 0),
            (Some(0), String::new()),
            "{json:?}"
        );
    }
    // a NO verdict stays exit 1
    let path = dir.write("closed-stdout-policy.txt", EXAMPLE_3_5_POLICY);
    let outcome = close_early(&["pc", PATH_2, path.to_str().unwrap()], b"", 0);
    assert_eq!(outcome, (Some(1), String::new()));
}

#[test]
fn usage_errors_exit_2_when_stderr_is_a_closed_pipe() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_pcq-analyze"))
        .arg("nope")
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("spawn pcq-analyze");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn encode_decode_pipe_is_the_identity_for_instances() {
    let (code, frame) = pcq_analyze_piped(&["encode", "instance", "R(a, b). R(b, c)."], b"");
    assert_eq!(code, 0);
    assert_eq!(&frame[..4], b"PCQW", "frames open with the magic");
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    assert_eq!(String::from_utf8_lossy(&text), "R(a, b).\nR(b, c).\n");
    // The text parser reads facts straight into packed relation runs: a file
    // with duplicates, shuffled order, comments, both separators, a nullary
    // and an arity-6 fact encodes to exactly its distinct facts.
    let dir = TempDir::new();
    let facts = dir.write(
        "parse.facts",
        "% shuffled, with repeats and both separators\nS(c, a), R(b, c).\n\
         R(a, b). # a comment\nZ()\nW(a, b, c, d, e, f).\nR(b, c), S(c, a).\n\
         R(a, b) Z().\nQ(a, b, c, d).\n",
    );
    let (code, frame) = pcq_analyze_piped(&["encode", "instance", facts.to_str().unwrap()], b"");
    assert_eq!(code, 0);
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    let text = String::from_utf8_lossy(&text);
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    let distinct = "Q(a, b, c, d).|R(a, b).|R(b, c).|S(c, a).|W(a, b, c, d, e, f).|Z().";
    assert_eq!(lines.join("|"), distinct);
}

#[test]
fn encode_decode_pipe_round_trips_queries_and_scenarios() {
    let dir = TempDir::new();
    let (code, frame) = pcq_analyze_piped(&["encode", "query", PATH_2], b"");
    assert_eq!(code, 0);
    assert_eq!(frame[4], 6, "byte 4 of a frame is the wire version");
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    assert_eq!(String::from_utf8_lossy(&text).trim(), PATH_2);
    // A frame of another version is refused with a typed error.
    let mut old = frame;
    old[4] = 5;
    let (code, _, stderr) = pcq_analyze_with_stderr(&["decode"], &old);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unsupported frame version 5"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let scenario = "query T(x, z) :- R(x, y), R(y, z).\n\
                    instance { R(a, b). R(b, c). }\n\
                    schedule hash(2), hypercube(2)\n\
                    rounds 4\n\
                    feedback R\n";
    let path = dir.write("scenario.pcq", scenario);
    let (code, frame) = pcq_analyze_piped(&["encode", "scenario", path.to_str().unwrap()], b"");
    assert_eq!(code, 0);
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    // decode prints the canonical pretty-printed form; encoding that text
    // again must produce the same frame (the formats are exact inverses)
    let text = String::from_utf8_lossy(&text).into_owned();
    let path2 = dir.write("scenario2.pcq", &text);
    let (code, frame2) = pcq_analyze_piped(&["encode", "scenario", path2.to_str().unwrap()], b"");
    assert_eq!(code, 0);
    assert_eq!(frame, frame2, "re-encoding the decoded text must agree");
    // A scenario frame carries the scenario's text: a file in canonical
    // form comes back byte for byte.
    let canonical = "% pcq scenario\nqueries {\n  T(x, z) :- R(x, y), R(y, z), R(y, y).\n  \
                     T(x, z) :- R(x, y), R(y, z).\n}\ninstance {\n  R(a, a).\n  R(a, b).\n  \
                     R(b, c).\n}\npolicy {\n  n0: R(a, a) R(a, b)\n  default: n1\n}\n\
                     schedule explicit, hypercube(2)\nrounds 3\nfeedback R\n";
    let path = dir.write("canonical.pcq", canonical);
    let (code, frame) = pcq_analyze_piped(&["encode", "scenario", path.to_str().unwrap()], b"");
    assert_eq!((code, frame[4]), (0, 6));
    let (code, text) = pcq_analyze_piped(&["decode"], &frame);
    assert_eq!(code, 0);
    assert_eq!(String::from_utf8_lossy(&text), canonical);
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
    let dir = TempDir::new();
    let scenario = "query T(x, z) :- R(x, y), R(y, z).\n\
                    instance { R(v0, v1). R(v1, v2). R(v2, v3). R(v3, v4). }\n\
                    schedule hash(2), hypercube(2)\n\
                    rounds 8\n\
                    feedback R\n";
    let path = dir.write("run-scenario.pcq", scenario);
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
}

#[test]
fn run_semi_naive_matches_the_fixpoint_and_reports_itself() {
    // A feedback run ships deltas, and its report says so.
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

/// Runs `args` with and without the inert `--semi-naive`, on memory and
/// on worker processes, and asserts the four runs report the same verdict,
/// `semi_naive` (`with_feedback`) and, at the top level and per query,
/// `result_size`, `rounds_run`, `converged`, `total_comm_volume` and
/// `reshard_rounds`.
fn assert_semi_naive_is_inert(args: &[&str], with_feedback: bool) {
    const KEYS: [&str; 5] = [
        "result_size",
        "rounds_run",
        "converged",
        "total_comm_volume",
        "reshard_rounds",
    ];
    let mut digests = Vec::new();
    for transport in ["memory", "process"] {
        for flag in [&[][..], &["--semi-naive"]] {
            let run = [args, flag, &["--transport", transport, "--json"]].concat();
            let (code, stdout) = pcq_analyze_output(&run);
            assert_eq!(code, 0, "{run:?}: {stdout}");
            let semi = format!("\"semi_naive\":{with_feedback}");
            assert!(stdout.contains(&semi), "{run:?}: {stdout}");
            let doc = JsonValue::parse(stdout.trim()).unwrap();
            let per_query = doc.get("per_query").and_then(JsonValue::as_array);
            let digest: Vec<String> = std::iter::once(&doc)
                .chain(per_query.unwrap_or_default())
                .flat_map(|d| KEYS.map(|key| format!("{key}={:?}", d.get(key))))
                .collect();
            assert!(doc.get("total_comm_volume").is_some(), "{run:?}");
            let rounds_run = digest.iter().any(|d| d.starts_with("rounds_run=Some"));
            assert!(rounds_run, "{run:?}");
            digests.push((run, digest));
        }
    }
    for (run, digest) in &digests[1..] {
        assert_eq!(digest, &digests[0].1, "{run:?} vs {:?}", digests[0].0);
    }
}

#[test]
fn run_semi_naive_accepts_multi_policy_schedules() {
    // Without feedback every round ships full chunks, flag or no flag; the
    // schedule's switch is no re-shard.
    let args = [
        "run",
        "chain:2",
        "hypercube:2",
        CHAIN_FACTS,
        "--rounds",
        "4",
        "--schedule",
        "broadcast:2,hypercube:2",
    ];
    assert_semi_naive_is_inert(&args, false);
}

#[test]
fn run_scenario_with_explicit_policy_stanza() {
    let dir = TempDir::new();
    // The pc policy-file format embedded in a scenario: Example 3.5's
    // policy is parallel-correct for the query with the loop atom.
    let scenario = "query T(x, z) :- R(x, y), R(y, z), R(x, x).\n\
                    instance { R(a, a). R(a, b). R(b, a). R(b, b). }\n\
                    policy {\n\
                      n0: R(a, a) R(b, a) R(b, b)\n\
                      n1: R(a, a) R(a, b) R(b, b)\n\
                    }\n\
                    schedule explicit\n";
    let path = dir.write("explicit-policy.pcq", scenario);
    let (code, stdout) =
        pcq_analyze_output(&["run", "--scenario", path.to_str().unwrap(), "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"schedule\":\"explicit\""), "{stdout}");
    assert!(stdout.contains("\"multi_round_correct\":true"), "{stdout}");

    // a schedule that says explicit without the stanza is a parse error
    let bad = dir.write(
        "explicit-missing.pcq",
        "query T(x) :- R(x, y).\ninstance { R(a, b). }\nschedule explicit\n",
    );
    assert_eq!(
        pcq_analyze(&["run", "--scenario", bad.to_str().unwrap()]),
        2
    );
}

#[test]
fn encode_decode_round_trips_scenarios_with_policy_stanzas() {
    let dir = TempDir::new();
    let scenario = "query T(x) :- R(x, y).\n\
                    instance { R(a, b). R(c, d). }\n\
                    policy {\n\
                      n0: R(a, b)\n\
                      default: n1\n\
                    }\n\
                    schedule explicit\n";
    let path = dir.write("encode-policy.pcq", scenario);
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
}

#[test]
fn run_multi_round_semi_naive_process_transport_converges() {
    let dir = TempDir::new();
    // A feedback run ships deltas, flag or no flag: as one query, and as a
    // two-query scenario whose schedule switch re-shards.
    let args = [
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
    ];
    assert_semi_naive_is_inert(&args, true);
    let (code, stdout) =
        pcq_analyze_output(&[&args[..], &["--transport", "process", "--json"]].concat());
    assert_eq!(code, 0, "{stdout}");
    for key in [
        "\"transport\":\"process\"",
        "\"multi_round_correct\":true",
        "\"converged\":true",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // real bytes crossed the pipes
    assert!(!stdout.contains("\"total_comm_bytes\":0"), "{stdout}");

    let scenario = dir.write(
        "inert-semi-naive.pcq",
        &format!(
            "queries {{\n{PATH_2}\n{PATH_2}\n}}\ninstance {{ {CHAIN_FACTS} }}\n\
             schedule broadcast(2), hypercube(2)\nrounds 6\nfeedback R\n"
        ),
    );
    let args = ["run", "--scenario", scenario.to_str().unwrap()];
    assert_semi_naive_is_inert(&args, true);
    let (_, stdout) = pcq_analyze_output(&[&args[..], &["--json"]].concat());
    assert!(stdout.contains("\"reshard_rounds\":2"), "{stdout}");
}

#[test]
fn run_scenario_conflicts_are_usage_errors() {
    let dir = TempDir::new();
    let path = dir.write(
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
}

/// The relax sequence: the loop query, then the path and the loop query
/// again, both asked about the loop query (their anchor: transferability
/// is transitive). Parallel-correctness transfers to both (paper §4), so
/// both reshuffles are elided, and two claims are checked.
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
    let dir = TempDir::new();
    let path = dir.write("multi-query.pcq", MULTI_QUERY_SCENARIO);
    let file = path.to_str().unwrap();
    let (code, stdout) = pcq_analyze_output(&["run", "--scenario", file, "--json"]);
    assert_eq!(code, 0, "{stdout}");
    for key in [
        "\"queries\":3",
        "\"transfer_checks\":2",
        "\"elided_reshuffles\":2",
        "\"multi_round_correct\":true",
        "\"reshuffle_always\":false",
        "\"per_query\":[{",
        "\"total_comm_volume\":",
        "\"total_comm_bytes\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // The plan prints an elided query's rounds as the fallback they are,
    // and the anchor's as the rounds that run.
    let fallback = "\"  if the anchor did not converge: round 0: entry 0 (2 nodes), full chunks\"";
    assert_eq!(stdout.matches(fallback).count(), 2, "{stdout}");
    assert_eq!(
        stdout
            .matches("\"  round 0: entry 0 (2 nodes), full chunks\"")
            .count(),
        1,
        "{stdout}"
    );

    // The baseline disables the elision and consults no oracle: every
    // query's rounds run.
    let (code, stdout) =
        pcq_analyze_output(&["run", "--scenario", file, "--reshuffle-always", "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"transfer_checks\":0"), "{stdout}");
    assert!(stdout.contains("\"elided_reshuffles\":0"), "{stdout}");
    assert!(stdout.contains("\"reshuffle_always\":true"), "{stdout}");
    assert!(
        !stdout.contains("if the anchor did not converge"),
        "{stdout}"
    );

    // The human-readable arm names the elision decisions per query.
    let (code, stdout) = pcq_analyze_output(&["run", "--scenario", file]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("transfer:    2 check(s), 2 reshuffle(s) elided"),
        "{stdout}"
    );
    assert!(
        stdout.contains("elided (ran on resident shards)"),
        "{stdout}"
    );
    assert!(stdout.contains("resharded"), "{stdout}");
}

#[test]
fn run_multi_query_scenario_rides_wire_transports() {
    let dir = TempDir::new();
    let path = dir.write("multi-query-wire.pcq", MULTI_QUERY_SCENARIO);
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
    assert!(stdout.contains("\"elided_reshuffles\":2"), "{stdout}");
    assert!(stdout.contains("\"multi_round_correct\":true"), "{stdout}");
    // real bytes crossed the pipes
    assert!(!stdout.contains("\"total_comm_bytes\":0"), "{stdout}");
}

/// The relax sequence of [`MULTI_QUERY_SCENARIO`] on one more fact, with
/// its schedule and round cap.
fn relax(schedule: &str, rounds: u32) -> String {
    let queries = &MULTI_QUERY_SCENARIO[..MULTI_QUERY_SCENARIO.find("instance").unwrap()];
    let instance = "instance { R(a, b). R(b, c). R(b, b). R(c, d). R(d, b). }";
    format!("{queries}{instance}\nschedule {schedule}\nrounds {rounds}\n")
}

/// The plan lines `{indent}round 0: entry 0 (N nodes)…`.
fn first_rounds(doc: &JsonValue, indent: &str) -> usize {
    let lines = plan(doc).into_iter();
    let rest = lines.filter_map(|line| {
        line.strip_prefix(indent)?
            .strip_prefix("round 0: entry 0 (")
    });
    let nodes = rest.map(|rest| rest.trim_start_matches(|c: char| c.is_ascii_digit()));
    nodes.filter(|rest| rest.starts_with(" nodes)")).count()
}

#[test]
fn multi_query_runs_on_wire_transports_elide_what_their_plans_claim() {
    // Both later queries of the relax sequence transfer from the loop
    // query, their anchor: the plan claims two elisions before the first
    // round, and the run ships fewer bytes than the `--reshuffle-always`
    // baseline. Capped at one round the queries have converged all the
    // same. Under a Hypercube of the loop query the elided queries read
    // its split shards through their (C3) witness, and print their rounds
    // as the fallback they are.
    let dir = TempDir::new();
    let run = |scenario: &str, transport: &str, flags: &[&str]| {
        let wire = ["--transport", transport, "--workers", "2", "--json"];
        json_of(&[&["run", "--scenario", scenario][..], &wire, flags].concat())
    };
    let claims = |doc: &JsonValue| -> Vec<String> {
        let lines = plan(doc)
            .into_iter()
            .filter_map(|l| l.split_once("elide: "));
        let words = lines.map(|(_, rest)| rest.split(|c: char| !c.is_ascii_lowercase()).next());
        words.map(|word| word.unwrap().to_owned()).collect()
    };
    let in_plan = |doc: &JsonValue, text: &str| plan(doc).iter().any(|l| l.contains(text));
    let correct = Some(&JsonValue::Bool(true));
    for (schedule, rounds, transport) in [
        ("broadcast(2)", 4, "process"),
        ("broadcast(2)", 1, "process"),
        ("hypercube(2)", 4, "socket"),
    ] {
        let scenario = dir.write("relax.pcq", &relax(schedule, rounds));
        let scenario = scenario.to_str().unwrap();
        let doc = run(scenario, transport, &[]);
        assert_eq!(number(&doc, "transfer_checks"), 2, "{doc}");
        assert_eq!(number(&doc, "elided_reshuffles"), 2, "{doc}");
        assert_eq!(doc.get("multi_round_correct"), correct, "{doc}");
        assert_eq!(claims(&doc), ["yes", "yes"], "{doc}");
        if rounds == 1 {
            continue;
        }
        let base = run(scenario, transport, &["--reshuffle-always"]);
        assert_eq!(number(&base, "elided_reshuffles"), 0, "{base}");
        let bytes = |doc: &JsonValue| number(doc, "total_comm_bytes");
        assert!(bytes(&doc) < bytes(&base), "{doc} vs {base}");
        if schedule.starts_with("hypercube") {
            assert!(in_plan(&doc, "reads parts 0→R#0 1→R#1"), "{doc}");
            let fallbacks = first_rounds(&doc, "  if the anchor did not converge: ");
            assert_eq!((fallbacks, first_rounds(&doc, "  ")), (2, 1), "{doc}");
        }
    }
    // A read that pins: the loops alone are the image of R(y, y), which
    // mentions y only, so the nodes at bucket 0 in x and z take part.
    let pinned = dir.write(
        "pinned.pcq",
        "queries {\n  T(x, z) :- R(x, y), R(y, z), R(y, y).\n  T(y) :- R(y, y).\n}\n\
         instance { R(a, a). R(a, b). R(b, b). R(b, c). R(c, c). R(c, d). R(d, d). }\n\
         schedule hypercube(2)\nrounds 1\n",
    );
    let doc = run(pinned.to_str().unwrap(), "socket", &[]);
    assert_eq!(number(&doc, "elided_reshuffles"), 1, "{doc}");
    assert_eq!(doc.get("multi_round_correct"), correct, "{doc}");
    assert!(
        in_plan(&doc, "pins x, z at bucket 0: 2 of 8 nodes"),
        "{doc}"
    );
    // The trace's critical path has one row per round that ran: the
    // anchor's `eval_round` and each elided query's `resident_round`.
    let scenario = dir.write("relax.pcq", &relax("broadcast(2)", 4));
    let trace = dir.path("relax.json");
    let trace = trace.to_str().unwrap();
    let doc = run(scenario.to_str().unwrap(), "socket", &["--trace", trace]);
    let per_query = doc.get("per_query").and_then(JsonValue::as_array).unwrap();
    let ran: u64 = per_query.iter().map(|q| number(q, "rounds_run")).sum();
    let summary = json_of(&["trace", "summarize", trace, "--json"]);
    let rows = summary.get("rounds").and_then(JsonValue::as_array).unwrap();
    assert!(ran > 0);
    assert_eq!(rows.len() as u64, ran, "{summary}");
}

#[test]
fn run_reshuffle_always_and_malformed_query_blocks_are_usage_errors() {
    let dir = TempDir::new();
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
    let path = dir.write(
        "empty-queries.pcq",
        "queries { }\ninstance { R(a, b). }\nschedule broadcast(2)\n",
    );
    assert_eq!(
        pcq_analyze(&["run", "--scenario", path.to_str().unwrap()]),
        2
    );
}

#[test]
fn run_process_transport_matches_memory_and_reports_itself() {
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

#[test]
fn run_json_carries_a_histograms_block_with_ordered_quantiles() {
    let dir = TempDir::new();
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
    assert!(matches!(counters, JsonValue::Object(_)), "{counters}");
    assert!(!counters.to_string().contains("index_cache"), "{counters}");
    let path = dir.write("counters-multi-query.pcq", MULTI_QUERY_SCENARIO);
    let (code, stdout) =
        pcq_analyze_output(&["run", "--scenario", path.to_str().unwrap(), "--json"]);
    assert_eq!(code, 0, "{stdout}");
    let doc = JsonValue::parse(stdout.trim()).expect("run --json must stay valid JSON");
    let checks = doc
        .get("counters")
        .and_then(|c| c.get("transfer_checks"))
        .and_then(JsonValue::as_u64);
    assert_eq!(checks, Some(2), "{doc}");
    let mut with_flag = args.to_vec();
    with_flag.extend(["--metrics", "metrics.json"]);
    assert_eq!(pcq_analyze(&with_flag), 2, "--metrics is an unknown flag");
}

#[test]
fn identical_process_runs_print_equal_counters() {
    // `counters` holds counts that identical runs repeat exactly. How often
    // dropping the transport slept waiting for its workers to exit is a
    // timing: it is the `shutdown_polls` histogram, one sample per worker.
    let args = [
        "run",
        PATH_2,
        "hypercube:4",
        "random:12:80",
        "--rounds",
        "4",
        "--feedback",
        "R",
        "--transport",
        "process",
        "--workers",
        "2",
        "--json",
    ];
    let run = || {
        let (code, stdout) = pcq_analyze_output(&args);
        assert_eq!(code, 0, "{stdout}");
        JsonValue::parse(stdout.trim()).expect("run --json must stay valid JSON")
    };
    let first = run();
    let counters = first.get("counters").expect("counters").to_string();
    assert!(!counters.contains("shutdown_polls"), "{counters}");
    let reaped = first
        .get("histograms")
        .and_then(|h| h.get("shutdown_polls"))
        .and_then(|h| h.get("count"))
        .and_then(JsonValue::as_u64);
    assert_eq!(reaped, Some(2), "one sample per reaped worker");
    for _ in 0..2 {
        let again = run();
        assert_eq!(again.get("counters").unwrap().to_string(), counters);
    }
}

#[test]
fn trace_summarize_handles_degenerate_inputs_without_panicking() {
    let dir = TempDir::new();
    // An empty trace, a process with zero spans, and a zero-duration round
    // are all summarizable; malformed JSON is a clean usage error.
    let empty = dir.write("empty-trace.json", r#"{"traceEvents":[]}"#);
    let (code, stdout) = pcq_analyze_output(&["trace", "summarize", empty.to_str().unwrap()]);
    assert_eq!(code, 0, "an empty trace summarizes cleanly");
    assert!(stdout.contains("events: 0"), "wrong summary: {stdout}");

    let degenerate = dir.write(
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

    let garbage = dir.write("garbage-trace.json", "this is not json");
    assert_eq!(
        pcq_analyze(&["trace", "summarize", garbage.to_str().unwrap()]),
        2,
        "malformed JSON is a usage error, not a panic"
    );
}

#[test]
fn trace_tools_read_the_dropped_events_a_trace_file_carries() {
    let dir = TempDir::new();
    let traced = dir.path("traced.json");
    let traced = traced.to_str().unwrap();
    let run = [
        "run",
        PATH_2,
        "hypercube:2",
        "random:8:40",
        "--trace",
        traced,
    ];
    assert_eq!(pcq_analyze(&run), 0);
    // A run whose buffers overflowed stamps the count into its trace file.
    let text = std::fs::read_to_string(traced).unwrap();
    let body = text.trim_end().strip_suffix('}').expect("one JSON object");
    let with_dropped = |count: u64| format!("{body},\"droppedEvents\":{count}}}\n");
    let seven = dir.write("seven.json", &with_dropped(7));
    let five = dir.write("five.json", &with_dropped(5));
    let (seven, five) = (seven.to_str().unwrap(), five.to_str().unwrap());

    let (code, stdout) = pcq_analyze_output(&["trace", "summarize", seven]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("WARNING: 7 events dropped"),
        "no warning: {stdout}"
    );
    let summary = json_of(&["trace", "summarize", seven, "--json"]);
    assert_eq!(number(&summary, "dropped_events"), 7);
    let diff = json_of(&["trace", "diff", seven, five, "--json"]);
    assert_eq!(
        number(&diff, "dropped_events"),
        12,
        "the sum of both inputs"
    );
}

#[test]
fn trace_diff_validates_its_arguments() {
    let dir = TempDir::new();
    let empty = dir.write("diff-empty.json", r#"{"traceEvents":[]}"#);
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

// ----------------------------------------------- one table: the same answer
// on memory, over worker processes and over sockets

/// What a case of [`transport_cases`] checks beyond what every case checks.
enum Check {
    /// A top-level key of the report, as JSON text.
    Field(&'static str, &'static str),
    /// The per-node outputs sum to `result_size`: a split round with a full
    /// head derives each answer at its home node only.
    OutputsSumToResult,
    /// A line of the plan ends so.
    PlanLine(&'static str),
    /// A one-round report lists this many nodes.
    Nodes(usize),
    /// `trace summarize --json` of a traced wire run lists the phase.
    Phase(&'static str),
    /// Every `collector` a traced wire run records names this one.
    Collector(&'static str),
    /// Some `evaluate_done` of a traced wire run handed a last-depth run to
    /// the answer set in one call.
    Runs,
    /// A traced wire run rebuilds a dead worker's nodes, each from at least
    /// this many ledger chunks.
    RebuiltFrom(u64),
}

use Check::*;

impl Check {
    fn reads_trace(&self) -> bool {
        matches!(self, Phase(_) | Collector(_) | Runs | RebuiltFrom(_))
    }
}

/// A `run` of the table: its operands and flags without `--transport` (a
/// `--fault-inject N` applies to the wire transports only), and its checks.
struct Case(Vec<String>, Vec<Check>);

/// A case from its `run` operands and flags in words: no query or instance
/// of the table holds a space.
fn case(run: &str, checks: impl IntoIterator<Item = Check>) -> Case {
    let words = run.split_whitespace().map(String::from).collect();
    Case(words, checks.into_iter().collect())
}

/// The table: the runs whose answers must agree on every transport.
fn transport_cases() -> Vec<Case> {
    let closure = "chain:2 hypercube:2 random:12:40 --feedback R";
    let random = "hypercube:2 random:30:300:7";
    let path: String = (0..80).map(|i| format!("R(p{i},p{}).", i + 1)).collect();
    let late_death = format!("chain:2 hypercube:2 {path} --rounds 12 --feedback R");
    let mut cases = vec![
        // One-round runs and closures.
        case("chain:2 hypercube:4 random:20:200 --workers 4", []),
        case(&format!("{closure} --rounds 8"), []),
        // Without feedback a round that would repeat the last round's
        // schedule entry is not run: one policy runs one round, against a
        // one-round reference; a two-entry schedule runs its two.
        case(
            "chain:2 hypercube:2 random:12:40 --rounds 4",
            [
                Field("rounds_run", "1"),
                Field("reference_rounds", "1"),
                Field("converged", "true"),
            ],
        ),
        case(
            "chain:2 hypercube:4 random:20:200 --rounds 4 --schedule round-robin:4,hypercube:4",
            [Field("rounds_run", "2")],
        ),
        // Delta rounds: the workers keep per-node state and absorb what
        // each round ships; the frozen `--semi-naive` changes nothing. The
        // plan, made before the first round, resets the nodes at round 0 and
        // splits every round by body atom (chain:2 repeats R under its own
        // Hypercube).
        case(
            &format!("{closure} --rounds 6 --semi-naive"),
            [Field("semi_naive", "true"), Phase("absorb")],
        ),
        case(
            &format!("{closure} --rounds 6 --workers 3 --semi-naive"),
            [Field("semi_naive", "true")],
        ),
        case(
            &format!("{closure} --rounds 6 --workers 2"),
            [PlanLine(concat!(
                "rounds 0-5: entry 0 (8 nodes), reset at round 0, ",
                "delta rounds 1-5, split into 2 atom parts"
            ))],
        ),
        case(&format!("{closure} --rounds 3 --workers 3"), []),
        // A worker killed mid-round: the survivors take its jobs, and the
        // delta rounds rebuild its nodes' state from the ledger. An 80-edge
        // path keeps the closure going for eight rounds with deltas for all
        // eight nodes through round 4, so worker 0 dies on its 13th job,
        // after three delta rounds, and each rebuild unions the chunks its
        // node was shipped since round 0.
        case(
            &format!("{closure} --rounds 3 --workers 3 --fault-inject 2"),
            [],
        ),
        case(
            &format!("{closure} --rounds 6 --workers 3 --semi-naive --fault-inject 2"),
            [],
        ),
        case(
            &format!("{late_death} --workers 3 --fault-inject 12"),
            [RebuiltFrom(3)],
        ),
        // One id space: workers hold the coordinator's value ids, never a
        // name, and decode them on the timeline.
        case(
            "chain:2 hypercube:2 zipf:2000:20000:110",
            [Phase("worker_decode")],
        ),
        // A head of one or two values over a small id range collects its
        // answers in a bitmap, one over a wide range in a hash set.
        case(&format!("chain:2 {random}"), [Collector("dense")]),
        case(
            "chain:2 hypercube:2 random:50000:4000:7",
            [Collector("hashed")],
        ),
        case(&format!("chain:2 {random} --rounds 6 --feedback R"), []),
        case(
            "chain:2 hypercube:2 random:50000:4000:7 --rounds 6 --feedback R",
            [],
        ),
        // One reshuffle builds every round's chunks. The triangle repeats
        // `E`, so its Hypercube round is split by body atom; the R-S join
        // repeats nothing, so its hash-join round ships plain chunks.
        case(&format!("triangle {random}"), [OutputsSumToResult]),
        case(
            "T(x,y,z):-R(x,y),S(y,z). hash-join:4 zipf:300:3000:110",
            [Nodes(4)],
        ),
        // The join kernel, on cyclic and acyclic shapes alike.
        case("triangle broadcast:3 E(a,b).E(b,c).E(c,a).E(a,c).", []),
        // Wide tuples: arity-7 facts spill out of the inline tuple (W(1,2)
        // and the arity-8 fact match no atom and are skipped).
        case(
            concat!(
                "T(a,g):-W(a,b,c,d,e,f,g),E(g,a). hypercube:2 ",
                "W(1,2,3,4,5,6,7).W(2,3,4,5,6,7,1).W(7,7,7,7,7,7,7).W(1,2).W(3,3,3,3,3,3,3,3).",
                "E(7,1).E(1,2).E(7,7).E(3,3). --workers 2",
            ),
            [Field("result_size", "3")],
        ),
        // The last variable of the triangle closes two atoms and that of the
        // 4-clique three: on a Zipf-skewed instance hub runs meet short ones.
        case("triangle hypercube:2 zipf:40:600:120:7", []),
        case("clique4 hypercube:2 zipf:40:600:120:7", []),
        // Projecting heads on both sides of the packed answer key: arity 3
        // and 4 pack into one integer (arity 5, which keeps a tuple set, has
        // a test of its own).
        case(&format!("T(x,z,w):-R(x,y),R(y,z),R(z,w). {random}"), []),
        case(
            &format!("T(x,y,w,v):-R(x,y),R(y,z),R(z,w),R(w,v). {random}"),
            [],
        ),
    ];
    for query in "chordal4 clique4 cycle:4 chain:3 star:3 example3.5".split(' ') {
        cases.push(case(&format!("{query} {random}"), []));
    }
    // Last-depth runs: each query ends in a variable read straight off one
    // atom's run, which is the head's first value, its second, outside the
    // head, or repeated in it (the head repeats another variable in the
    // last query). One round and a feedback run each.
    for query in [
        "T(z,x):-R(x,y),R(y,z).",
        "T(x,z):-R(x,y),R(y,z).",
        "T(x,y):-R(x,y),R(y,z).",
        "T(y,y):-R(x,y).",
        "T(x,x):-R(x,y).",
    ] {
        let runs = query.starts_with("T(z,x)").then_some(Runs);
        cases.push(case(&format!("{query} {random}"), runs));
        cases.push(case(
            &format!("{query} {random} --rounds 6 --feedback R"),
            [],
        ));
    }
    cases
}

/// Runs `case` on `transport` and checks what every case checks — exit 0
/// (the distributed answer is the centralized one) and a report that says
/// so, names its transport, names no join strategy or index cache, counts
/// wire bytes exactly when the workers are remote, and loses exactly one
/// worker to an injected fault — then the case's own checks. The report's
/// [`digest`], and a one-round report's per-node loads.
fn run_case(case: &Case, transport: &str, dir: &TempDir, tag: usize) -> Vec<u64> {
    let wire = transport != "memory";
    let mut args = vec!["run"];
    let mut operands = case.0.iter().map(String::as_str);
    let mut fault = false;
    while let Some(arg) = operands.next() {
        if arg == "--fault-inject" {
            fault = wire;
            if !wire {
                operands.next();
                continue;
            }
        }
        args.push(arg);
    }
    args.extend(["--transport", transport, "--json"]);
    let trace = dir.path(&format!("{tag}-{transport}.json"));
    let trace = trace.to_str().unwrap();
    let traced = wire && case.1.iter().any(Check::reads_trace);
    if traced {
        args.extend(["--trace", trace]);
    }
    let doc = json_of(&args);
    let text = doc.to_string();
    for gone in ["index_cache", "join_strategy"] {
        assert!(!text.contains(gone), "{args:?}: {text}");
    }
    assert_eq!(
        doc.get("transport").and_then(JsonValue::as_str),
        Some(transport)
    );
    let verdict = doc
        .get("parallel_correct")
        .or(doc.get("multi_round_correct"));
    assert_eq!(verdict, Some(&JsonValue::Bool(true)), "{args:?}: {text}");
    let bytes = doc.get("comm_bytes").or(doc.get("total_comm_bytes"));
    let bytes = bytes.and_then(JsonValue::as_u64).expect("comm bytes");
    assert_eq!(bytes > 0, wire, "{args:?}: {bytes} bytes");
    if fault {
        let counters = doc.get("counters").expect("counters");
        assert_eq!(number(counters, "worker_deaths"), 1, "{args:?}: {text}");
    }
    let events = traced.then(|| {
        let trace = std::fs::read_to_string(trace).expect("the trace file");
        pcq::obs::trace_export::parse_chrome_trace(&trace).expect("a Chrome trace")
    });
    let args_named = |event: &str, key: &str| -> Vec<String> {
        let events = events.iter().flatten().filter(|e| e.name == event);
        let args = events.flat_map(|e| e.args.iter().filter(|(k, _)| k == key));
        args.map(|(_, value)| value.clone()).collect()
    };
    for check in &case.1 {
        match *check {
            Field(key, json) => {
                let value = doc.get(key).map(JsonValue::to_string);
                assert_eq!(value.as_deref(), Some(json), "{args:?}: {key}");
            }
            OutputsSumToResult => {
                let nodes = doc.get("per_node").and_then(JsonValue::as_array).unwrap();
                let outputs: u64 = nodes.iter().map(|node| number(node, "output")).sum();
                assert_eq!(outputs, number(&doc, "result_size"), "{args:?}");
            }
            PlanLine(end) => {
                let lines = plan(&doc);
                assert!(
                    lines.iter().any(|line| line.ends_with(end)),
                    "{args:?}: {lines:?}"
                );
            }
            Nodes(count) => {
                let nodes = doc.get("per_node").and_then(JsonValue::as_array).unwrap();
                assert_eq!(nodes.len(), count, "{args:?}");
            }
            _ if !traced => {}
            Phase(name) => {
                let summary = json_of(&["trace", "summarize", trace, "--json"]);
                let phases = summary.get("phases").expect("phases");
                assert!(phases.get(name).is_some(), "{args:?}: {phases}");
            }
            Collector(name) => {
                let mut collectors = args_named("evaluate_done", "collector");
                collectors.sort_unstable();
                collectors.dedup();
                assert_eq!(collectors, [name], "{args:?}");
            }
            Runs => {
                let runs = args_named("evaluate_done", "runs");
                assert!(runs.iter().any(|n| n != "0"), "{args:?}: {runs:?}");
            }
            RebuiltFrom(chunks) => {
                let rebuilt = args_named("state_rebuild", "chunks");
                let fewest = rebuilt.iter().map(|n| n.parse::<u64>().unwrap()).min();
                assert!(fewest >= Some(chunks), "{args:?}: {rebuilt:?}");
            }
        }
    }
    let mut digest = digest(&doc);
    if let Some(nodes) = doc.get("per_node").and_then(JsonValue::as_array) {
        digest.extend(nodes.iter().map(|node| number(node, "load")));
    }
    digest
}

/// Runs each case on the three transports at once; their digests must be
/// equal.
fn assert_same_on_every_transport(cases: &[Case]) {
    let dir = &TempDir::new();
    for (tag, case) in cases.iter().enumerate() {
        let digests = std::thread::scope(|scope| {
            let runs = ["memory", "process", "socket"]
                .map(|transport| scope.spawn(move || run_case(case, transport, dir, tag)));
            runs.map(|run| run.join().expect("a run of the case failed"))
        });
        let same = digests.iter().all(|digest| digest == &digests[0]);
        assert!(same, "{:?}: {digests:?}", case.0);
    }
}

#[test]
fn every_case_gives_the_same_answer_on_every_transport() {
    assert_same_on_every_transport(&transport_cases());
}

/// A head of arity 5 does not pack into one integer and keeps a tuple set:
/// 568 769 answers here, 4.5 MB on the wire. An unoptimized build takes
/// seconds a run, so this case runs under `cargo test --release`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds a run unoptimized; runs under --release"
)]
fn a_head_of_arity_five_gives_the_same_answer_on_every_transport() {
    let run = "T(a,b,c,d,f):-R(a,b),R(b,c),R(c,d),R(d,e),R(e,f). hypercube:2 random:30:300:7";
    assert_same_on_every_transport(&[case(run, [Field("result_size", "568769")])]);
}
