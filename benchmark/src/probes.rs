//! The traced run: per-layer numbers taken from inside the harness
//! process. One *pass* loads the same generated files the CLI ops read and
//! calls each layer's public functions stage by stage, every call wrapped
//! in a harness-side span; a few CLI ops (floors, memory twins, a
//! `--trace` run) give the numbers only a whole process can.
//!
//! The library calls made here are the frozen surface listed in README.md:
//! a PR that must rename one needs a benchmark PR first.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use pcq::cq::{ConjunctiveQuery, EvalOptions, Instance, Symbol};
use pcq::delta::{DeltaNode, IndexCache};
use pcq::distribution::{
    Distribution, DistributionPolicy, ExplicitPolicy, HypercubePolicy, OneRoundEngine,
};
use pcq::pc_core::{check_parallel_correctness, TransferCache};
use pcq::wire::{ExplicitSpec, Scenario};

use crate::ops::{
    memory_twin, parse_query, read, run_op, scenario_args, scenario_engine, Call, Expect,
};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Inputs, WORKERS};

/// CLI ops behind every process-level probe: the median of three.
const CLI_REPEATS: usize = 3;

const TRANSPORTS: [&str; 3] = ["memory", "process", "socket"];

/// One pass's metric values by name, plus the bookkeeping of its CLI ops.
#[derive(Default)]
pub struct Pass {
    pub values: BTreeMap<&'static str, f64>,
    pub cli_ops: usize,
    pub failures: Vec<String>,
}

struct Probe<'a> {
    rec: &'a mut Recorder,
    binary: &'a Path,
    /// The calls of the workload's own op, as the untraced run makes them.
    calls: &'a [Call],
    pass: Pass,
}

/// Reads a `pc` policy file (`node: facts…` per line) the way the CLI
/// does: through `ExplicitSpec`.
fn load_policy(path: &Path) -> Result<ExplicitPolicy, String> {
    let mut spec = ExplicitSpec::default();
    for line in read(path)?.lines() {
        let (node, facts) = line
            .split_once(':')
            .ok_or_else(|| format!("{}: expected 'node: facts'", path.display()))?;
        let facts = pcq::cq::parse_instance(facts).map_err(|e| e.to_string())?;
        spec.assignments
            .entry(Symbol::new(node.trim()))
            .or_default()
            .extend(facts.facts().cloned());
    }
    spec.build_policy()
}

impl Probe<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.pass.values.insert(name, value);
    }

    /// Times one call into a layer and records it under `name`.
    fn timed<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> (T, f64) {
        // metric names end in `_s`; the span carries the bare layer name
        let (value, seconds) = self.rec.time(name.trim_end_matches("_s"), body);
        self.set(name, seconds);
        (value, seconds)
    }

    /// Median wall time of [`CLI_REPEATS`] ops of `calls`, and the last
    /// op's reported communication.
    fn cli(&mut self, span: &str, calls: &[Call]) -> (f64, crate::ops::Comm) {
        let mut walls = Vec::new();
        let mut comm = Default::default();
        for _ in 0..CLI_REPEATS {
            let (op, _) = self.rec.span(span, |_| run_op(self.binary, calls));
            self.pass.cli_ops += 1;
            self.pass.failures.extend(op.failure);
            walls.push(op.wall_s);
            comm = op.comm;
        }
        (median(&walls), comm)
    }

    /// `cli.floor_*`: a 1-fact scenario on each transport.
    fn floors(&mut self, floor_scenario: &Path) -> f64 {
        let names = [
            "cli.floor_memory_s",
            "cli.floor_process_s",
            "cli.floor_socket_s",
        ];
        let mut memory_floor = 0.0;
        for (transport, name) in TRANSPORTS.into_iter().zip(names) {
            let calls = [Call {
                args: scenario_args(floor_scenario, transport, false),
                expect: Expect::Run {
                    flag: "multi_round_correct",
                    result_sizes: vec![0],
                },
            }];
            let (wall, _) = self.cli(name.trim_end_matches("_s"), &calls);
            self.set(name, wall);
            if transport == "memory" {
                memory_floor = wall;
            }
        }
        memory_floor
    }

    /// The workload's own op, and — on a wire transport — its memory twin:
    /// the difference is what the wire costs end to end.
    fn op_and_wire_overhead(&mut self, transport: &str) -> (f64, f64) {
        let (wall, comm) = self.cli("cli.op", self.calls);
        self.set("cli.op_wall_s", wall);
        self.set("comm_bytes", comm.bytes);
        self.set("comm_facts", comm.facts);
        let name = match transport {
            "process" => "wire.overhead_process_s",
            "socket" => "wire.overhead_socket_s",
            _ => return (wall, 0.0),
        };
        let (twin, _) = self.cli("cli.op_memory_twin", &memory_twin(self.calls));
        self.set(name, wall - twin);
        (wall, wall - twin)
    }

    /// `distribution.*`: the reshuffle of `instance` under `policy`.
    fn distribute(&mut self, policy: &dyn DistributionPolicy, instance: &Instance) -> Distribution {
        let (distribution, _) =
            self.timed("distribution.distribute_s", || policy.distribute(instance));
        let ((), seconds) = self.rec.time("distribution.nodes_for", || {
            for fact in instance.facts() {
                black_box(policy.nodes_for(black_box(fact)));
            }
        });
        self.set(
            "distribution.nodes_for_ns_per_fact",
            seconds * 1e9 / instance.len() as f64,
        );
        let stats = distribution.stats(instance);
        self.set("distribution.facts_assigned", stats.total_assigned as f64);
        self.set("distribution.replication_factor", stats.replication_factor);
        self.set("distribution.max_load", stats.max_load as f64);
        self.set(
            "distribution.load_skew",
            stats.max_load as f64 * stats.nodes as f64 / stats.total_assigned as f64,
        );
        distribution
    }

    /// `wire.encode_*` / `wire.decode_*`: the codec over every chunk.
    fn codec(&mut self, distribution: &Distribution) {
        let (mut encode_s, mut decode_s, mut bytes, mut facts) = (0.0, 0.0, 0usize, 0usize);
        self.rec.span("wire.codec", |rec| {
            for (_, chunk) in distribution.chunks() {
                let (body, seconds) = rec.time("wire.encode", || pcq::wire::encode_body(chunk));
                encode_s += seconds;
                let (decoded, seconds) =
                    rec.time("wire.decode", || pcq::wire::decode_body::<Instance>(&body));
                decode_s += seconds;
                assert_eq!(
                    decoded.as_ref().map(Instance::len),
                    Ok(chunk.len()),
                    "the codec round trip lost facts"
                );
                bytes += body.len();
                facts += chunk.len();
            }
        });
        let facts = facts as f64;
        self.set("wire.encode_s", encode_s);
        self.set("wire.decode_s", decode_s);
        self.set("wire.encode_ns_per_fact", encode_s * 1e9 / facts);
        self.set("wire.decode_ns_per_fact", decode_s * 1e9 / facts);
        self.set("wire.bytes_per_fact", bytes as f64 / facts);
    }

    /// `delta.index_warm_s` and the cache counters: every chunk warmed
    /// twice, so the second ask of each is a hit.
    fn index_warm(&mut self, distribution: &Distribution) {
        let mut cache = IndexCache::new(distribution.nodes().count());
        self.timed("delta.index_warm_s", || {
            for _ in 0..2 {
                for (_, chunk) in distribution.chunks() {
                    black_box(cache.warm(chunk));
                }
            }
        });
        self.set("delta.cache_hits", cache.hits() as f64);
        self.set("delta.cache_misses", cache.misses() as f64);
    }

    /// `cq.local_eval_*`: the query on every chunk — the sum is CPU, the
    /// maximum is the slowest node.
    fn local_eval(&mut self, query: &ConjunctiveQuery, distribution: &Distribution) {
        let (mut sum, mut max, mut answers) = (0.0, 0.0f64, 0usize);
        self.rec.span("cq.local_eval_all", |rec| {
            for (_, chunk) in distribution.chunks() {
                let (result, seconds) = rec.time("cq.local_eval", || {
                    pcq::cq::evaluate_with(query, chunk, EvalOptions::default())
                });
                sum += seconds;
                max = max.max(seconds);
                answers += result.len();
            }
        });
        self.set("cq.local_eval_sum_s", sum);
        self.set("cq.local_eval_max_s", max);
        self.set("cq.local_eval_answers", answers as f64);
    }

    /// `cli.unattributed_pct`: the share of the op's wall time that no
    /// probe along its blocking path accounts for. Reported, not asserted.
    fn unattributed(&mut self, op_wall: f64, blocking_path: &[f64]) {
        let attributed: f64 = blocking_path.iter().sum();
        self.set(
            "cli.unattributed_pct",
            100.0 * (op_wall - attributed) / op_wall,
        );
    }

    fn one_round(
        &mut self,
        floor_scenario: &Path,
        query: &Path,
        budget: usize,
        facts: &Path,
        transport: &str,
    ) -> Result<(), String> {
        let floor = self.floors(floor_scenario);
        let (op_wall, overhead) = self.op_and_wire_overhead(transport);

        let text = read(facts)?;
        let (instance, parse_s) =
            self.timed("cq.parse_instance_s", || pcq::cq::parse_instance(&text));
        let instance = instance.map_err(|e| e.to_string())?;
        self.set("cq.parse_facts_per_s", instance.len() as f64 / parse_s);
        let query = parse_query(query)?;
        let policy = HypercubePolicy::uniform(&query, budget).map_err(|e| e.to_string())?;

        let distribution = self.distribute(&policy, &instance);
        if transport != "memory" {
            self.codec(&distribution);
        }
        self.index_warm(&distribution);
        self.local_eval(&query, &distribution);
        let (_, verify_s) =
            self.timed("cq.central_eval_s", || pcq::cq::evaluate(&query, &instance));
        let (_, engine_s) = self.timed("distribution.oneround_engine_s", || {
            OneRoundEngine::new(&policy)
                .workers(WORKERS)
                .evaluate(&query, &instance)
        });
        self.unattributed(op_wall, &[floor, parse_s, engine_s, verify_s, overhead]);
        Ok(())
    }

    fn scenario(
        &mut self,
        floor_scenario: &Path,
        out_dir: &Path,
        path: &Path,
        transport: &str,
        semi_naive: bool,
    ) -> Result<(), String> {
        let floor = self.floors(floor_scenario);
        let (op_wall, overhead) = self.op_and_wire_overhead(transport);

        let text = read(path)?;
        let (scenario, parse_s) = self.timed("wire.scenario_parse_s", || Scenario::parse(&text));
        let scenario = scenario.map_err(|e| e.to_string())?;
        let instance = &scenario.instance;
        self.set("wire.parse_facts_per_s", instance.len() as f64 / parse_s);
        let policies = scenario.build_schedule()?;

        let distribution = self.distribute(policies[0].as_ref(), instance);
        self.codec(&distribution);

        let engine = scenario_engine(&scenario, &policies, semi_naive);
        let engine_s = if scenario.queries.len() == 1 {
            let query = scenario.query();
            // The closure input fed to one resident node as 4 delta slices.
            let all: Vec<_> = instance.facts().cloned().collect();
            let slices: Vec<Instance> = all
                .chunks(all.len().div_ceil(4))
                .map(|slice| Instance::from_facts(slice.iter().cloned()))
                .collect();
            self.timed("delta.node_step_s", || {
                let mut node = DeltaNode::new();
                for slice in &slices {
                    black_box(node.step(query, slice));
                }
            });
            let (outcome, engine_s) = self.timed("distribution.rounds_engine_s", || {
                engine.evaluate(query, instance)
            });
            self.set("distribution.rounds_run", outcome.rounds_run() as f64);

            // The same op with `--trace`: what tracing costs end to end.
            let mut calls = self.calls.to_vec();
            let trace_file = out_dir.join("cli_trace.json");
            calls[0].args.extend([
                "--trace".to_string(),
                trace_file.to_string_lossy().into_owned(),
            ]);
            let (traced_wall, _) = self.cli("cli.op_traced", &calls);
            self.set(
                "obs.trace_on_overhead_pct",
                100.0 * (traced_wall - op_wall) / op_wall,
            );
            engine_s
        } else {
            let mut cache = TransferCache::new();
            let (outcome, engine_s) = self.timed("distribution.multiquery_engine_s", || {
                engine.evaluate_queries(&scenario.queries, instance, &mut |p, q| {
                    cache.transfers(p, q)
                })
            });
            self.set(
                "distribution.transfer_checks",
                outcome.transfer_checks as f64,
            );
            self.set(
                "distribution.elided_reshuffles",
                outcome.elided_reshuffles() as f64,
            );
            self.transfer_cache(&scenario.queries);
            engine_s
        };
        let (_, verify_s) = self.timed("distribution.reference_fixpoint_s", || {
            for query in &scenario.queries {
                black_box(engine.reference_fixpoint(query, instance));
            }
        });
        self.unattributed(op_wall, &[floor, parse_s, engine_s, verify_s, overhead]);
        Ok(())
    }

    /// `core.transfer_check_s` and `core.transfer_cache_hit_ratio`: every
    /// consecutive pair asked twice of a fresh `TransferCache` — the first
    /// ask runs `check_transfer`, the second must be a hit.
    fn transfer_cache(&mut self, queries: &[ConjunctiveQuery]) -> f64 {
        let mut cache = TransferCache::new();
        let ((), seconds) = self.timed("core.transfer_check_s", || {
            for pair in queries.windows(2) {
                black_box(cache.transfers(&pair[0], &pair[1]));
            }
        });
        for pair in queries.windows(2) {
            black_box(cache.transfers(&pair[0], &pair[1]));
        }
        self.set(
            "core.transfer_cache_hit_ratio",
            cache.hits() as f64 / (cache.hits() + cache.misses()) as f64,
        );
        seconds
    }

    fn decide(
        &mut self,
        [query, policy_yes, policy_no, from, to]: [&Path; 5],
    ) -> Result<(), String> {
        let (op_wall, _) = self.cli("cli.op", self.calls);
        self.set("cli.op_wall_s", op_wall);

        let query = parse_query(query)?;
        let (yes, no) = (load_policy(policy_yes)?, load_policy(policy_no)?);
        let (mut pc_s, mut candidates) = (0.0, 0u64);
        for policy in [&yes, &no] {
            let (report, seconds) = self.rec.time("core.pc_check", || {
                check_parallel_correctness(&query, policy)
            });
            pc_s += seconds;
            let cache = report.cache_stats();
            candidates += cache.hits + cache.misses;
        }
        self.set("core.pc_check_s", pc_s);
        self.set("core.pc_candidates", candidates as f64);

        let transfer_s = self.transfer_cache(&[parse_query(from)?, parse_query(to)?]);
        self.unattributed(op_wall, &[pc_s, transfer_s]);
        Ok(())
    }
}

/// Runs one pass of `inputs`' probes, every call inside a span under one
/// `pass` root.
pub fn run_pass(
    rec: &mut Recorder,
    binary: &Path,
    inputs: &Inputs,
    calls: &[Call],
    floor_scenario: &Path,
    out_dir: &Path,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let (outcome, root) = rec.span("pass", |rec| {
        let mut probe = Probe {
            rec,
            binary,
            calls,
            pass: Pass::default(),
        };
        let outcome = match inputs {
            Inputs::OneRound {
                query,
                budget,
                facts,
                transport,
            } => probe.one_round(floor_scenario, query, *budget, facts, transport),
            Inputs::Scenario {
                scenario,
                transport,
                semi_naive,
            } => probe.scenario(floor_scenario, out_dir, scenario, transport, *semi_naive),
            Inputs::Decide {
                query,
                policy_yes,
                policy_no,
                from,
                to,
                ..
            } => probe.decide([query, policy_yes, policy_no, from, to].map(|p| p.as_path())),
        };
        pass = probe.pass;
        outcome
    });
    outcome?;
    pass.values
        .insert("probe.pass_s", rec.duration(root).as_secs_f64());
    // What the pass spent outside every probe span: file reads, query
    // parsing, statistics — the harness's own overhead.
    pass.values
        .insert("probe.harness_self_s", rec.self_time(root).as_secs_f64());
    Ok(pass)
}
