//! JSON export of [`obs::Registry`] metrics.
//!
//! A run touches several registries — the multi-round engine owns one
//! (transfer-cache counters, round latencies), each transport owns one
//! (index-cache counters, chunk sizes; the pipelined driver adds frame
//! bytes and window waits). A report merges them into a single document,
//! a metric named in several registries into one entry:
//!
//! ```json
//! {"counters": {"transfer_checks": 3},
//!  "histograms": {"round_latency_us": {"count": 4, "sum": 812, "min": 101,
//!                 "max": 402, "mean": 203, "p50": 150, "p90": 402, "p99": 402}}}
//! ```
//!
//! Quantiles follow [`obs::HistogramSnapshot`] semantics: nearest-rank
//! over the retained reservoir of recent samples (of every histogram of
//! the name), exact until a reservoir wraps.

use obs::{HistogramSnapshot, Registry};

use crate::json::JsonValue;

/// One histogram snapshot as a JSON object.
pub fn snapshot_json(snapshot: &HistogramSnapshot) -> JsonValue {
    JsonValue::object([
        ("count", JsonValue::from(snapshot.count)),
        ("sum", JsonValue::from(snapshot.sum)),
        ("min", JsonValue::from(snapshot.min)),
        ("max", JsonValue::from(snapshot.max)),
        ("mean", JsonValue::from(snapshot.mean())),
        ("p50", JsonValue::from(snapshot.p50)),
        ("p90", JsonValue::from(snapshot.p90)),
        ("p99", JsonValue::from(snapshot.p99)),
    ])
}

/// Renders one registry as `{"counters": {...}, "histograms": {...}}`.
pub fn registry_json(registry: &Registry) -> JsonValue {
    merged_registry_json(&[registry])
}

/// Renders several registries as one document. Counters appearing in
/// more than one registry are summed; histograms sharing a name are merged
/// — count, sum, min and max exactly, the quantiles over the union of their
/// reservoirs ([`Registry::merged_histograms`]).
pub fn merged_registry_json(registries: &[&Registry]) -> JsonValue {
    let mut counters: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for registry in registries {
        for (name, value) in registry.counters() {
            *counters.entry(name).or_default() += value;
        }
    }
    let histograms = Registry::merged_histograms(registries);
    JsonValue::object([
        (
            "counters",
            JsonValue::Object(
                counters
                    .into_iter()
                    .map(|(name, value)| (name, JsonValue::from(value)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            JsonValue::Object(
                histograms
                    .iter()
                    .map(|(name, snapshot)| (name.clone(), snapshot_json(snapshot)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_carries_counters_and_quantiles() {
        let registry = Registry::new();
        registry.counter("hits").add(3);
        let h = registry.histogram("lat_us");
        for value in [10, 20, 30, 40] {
            h.record(value);
        }
        let doc = registry_json(&registry);
        let text = doc.to_string();
        let reparsed = JsonValue::parse(&text).unwrap();
        let counters = reparsed.get("counters").unwrap();
        assert_eq!(counters.get("hits").and_then(JsonValue::as_u64), Some(3));
        let lat = reparsed.get("histograms").unwrap().get("lat_us").unwrap();
        let field = |k: &str| lat.get(k).and_then(JsonValue::as_u64).unwrap();
        assert_eq!(field("count"), 4);
        assert_eq!(field("sum"), 100);
        assert_eq!(field("mean"), 25);
        // Exported quantiles must equal the snapshot exactly.
        let snap = h.snapshot();
        assert_eq!(field("p50"), snap.p50);
        assert_eq!(field("p90"), snap.p90);
        assert_eq!(field("p99"), snap.p99);
        assert!(field("p50") <= field("p90") && field("p90") <= field("p99"));
    }

    #[test]
    fn merge_sums_counters_and_unions_histograms() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("shared").add(2);
        b.counter("shared").add(5);
        a.histogram("only_a").record(1);
        b.histogram("only_b").record(9);
        let doc = merged_registry_json(&[&a, &b]);
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("shared"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        let histograms = doc.get("histograms").unwrap();
        assert!(histograms.get("only_a").is_some());
        assert!(histograms.get("only_b").is_some());
    }

    #[test]
    fn same_named_histograms_of_two_registries_export_as_one() {
        let (a, b) = (Registry::new(), Registry::new());
        for value in [5, 1] {
            a.histogram("round_latency_us").record(value);
        }
        for value in [9, 3, 7] {
            b.histogram("round_latency_us").record(value);
        }
        let doc = merged_registry_json(&[&a, &b]);
        let reparsed = JsonValue::parse(&doc.to_string()).unwrap();
        let lat = reparsed
            .get("histograms")
            .and_then(|h| h.get("round_latency_us"))
            .unwrap();
        let field = |k: &str| lat.get(k).and_then(JsonValue::as_u64).unwrap();
        // not the first registry's (count 2, max 5): both, merged
        assert_eq!(
            ["count", "sum", "min", "max", "mean"].map(field),
            [5, 25, 1, 9, 5]
        );
        // nearest rank over 1 3 5 7 9
        assert_eq!(["p50", "p90", "p99"].map(field), [5, 7, 7]);
    }
}
