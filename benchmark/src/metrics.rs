//! The names, units and directions of every reported metric — the same
//! tables `BENCHMARK.json` carries (a self-test keeps the two equal).

/// A metric's definition: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees, per workload, with the share of the
/// parent's median by which each may worsen before a change is refused.
/// The times are what the run's ops (`setup_s`: its set-ups) read at the
/// reference clock on a quiet machine (`clock`, `stats::quiet`);
/// `peak_rss_mb` is the median over the ops.
///
/// The time bounds are wider than the 10 % the issue asked for: the
/// reference VM shares its host, and ten runs with ten seeds spread
/// (interquartile range over median) 2-6 % in a good hour and up to 13 %
/// in a bad one; the contract refuses a spread beyond the bound and wants
/// it below a third of it.
pub const END_TO_END: [(Metric, f64); 4] = [
    // spawn -> exit of one op: parse, distribute, wire, local eval,
    // gather, centralized verify, JSON out
    (lower("wall_s", "s"), 0.25),
    // user+sys CPU of the op's process tree (coordinator + reaped workers)
    (lower("cpu_s", "s"), 0.25),
    // ru_maxrss of the largest process in the op's tree
    (lower("peak_rss_mb", "MB"), 0.10),
    // input generation + the harness's own expected answers + one
    // untimed warm-up op (cargo build excluded)
    (lower("setup_s", "s"), 0.25),
];

/// Single-layer numbers from the traced run. Layer = crate/module name.
/// A metric whose probe does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 49] = [
    // communication cost of one CLI op, in the paper's units; these
    // repeat (almost) exactly, so a claim may rest on them as counts
    lower("comm_bytes", "bytes"),
    lower("comm_facts", "facts"),
    lower("cli.op_wall_s", "s"),
    lower("cli.floor_memory_s", "s"),
    lower("cli.floor_process_s", "s"),
    lower("cli.floor_socket_s", "s"),
    lower("cli.unattributed_pct", "%"),
    lower("cq.parse_instance_s", "s"),
    higher("cq.parse_facts_per_s", "1/s"),
    lower("wire.scenario_parse_s", "s"),
    higher("wire.parse_facts_per_s", "1/s"),
    lower("distribution.distribute_s", "s"),
    lower("distribution.nodes_for_ns_per_fact", "ns"),
    lower("distribution.facts_assigned", "count"),
    lower("distribution.replication_factor", "ratio"),
    lower("distribution.max_load", "count"),
    lower("distribution.load_skew", "ratio"),
    lower("wire.encode_s", "s"),
    lower("wire.decode_s", "s"),
    lower("wire.encode_ns_per_fact", "ns"),
    lower("wire.decode_ns_per_fact", "ns"),
    lower("wire.bytes_per_fact", "bytes"),
    lower("wire.overhead_process_s", "s"),
    lower("wire.overhead_socket_s", "s"),
    lower("delta.index_warm_s", "s"),
    higher("delta.cache_hits", "count"),
    lower("delta.cache_misses", "count"),
    lower("cq.local_eval_sum_s", "s"),
    lower("cq.local_eval_max_s", "s"),
    lower("cq.local_eval_answers", "count"),
    lower("cq.central_eval_s", "s"),
    lower("delta.node_step_s", "s"),
    lower("distribution.oneround_engine_s", "s"),
    lower("distribution.rounds_engine_s", "s"),
    lower("distribution.rounds_run", "count"),
    lower("distribution.reference_fixpoint_s", "s"),
    lower("distribution.multiquery_engine_s", "s"),
    lower("distribution.transfer_checks", "count"),
    higher("distribution.elided_reshuffles", "count"),
    lower("core.pc_check_s", "s"),
    lower("core.pc_candidates", "count"),
    lower("core.transfer_check_s", "s"),
    higher("core.transfer_cache_hit_ratio", "ratio"),
    lower("obs.trace_on_overhead_pct", "%"),
    // bookkeeping of the traced run itself
    lower("probe.pass_s", "s"),
    lower("probe.harness_self_s", "s"),
    higher("probe.passes", "count"),
    lower("probe.cli_ops", "count"),
    lower("probe.failed_cli_ops", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::ALL;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        match entry.get(key) {
            Some(Json::String(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_reports() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        let declared: Vec<_> = workloads
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let reported: Vec<_> = ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(declared, reported);

        let end_to_end = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        let declared: Vec<_> = end_to_end
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let reported: Vec<_> = END_TO_END
            .iter()
            .map(|(m, bound)| (m.name, m.unit, m.better, *bound))
            .collect();
        assert_eq!(declared, reported);

        let per_layer = doc.get("per_layer").and_then(Json::as_array).unwrap();
        let declared: Vec<_> = per_layer
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let reported: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect();
        assert_eq!(declared, reported);
    }
}
