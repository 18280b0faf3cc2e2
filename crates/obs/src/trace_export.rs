//! The trace file: Chrome-trace-event export and trace summarization.
//!
//! A traced run ends with a flat `Vec<TraceEvent>` — coordinator spans
//! plus every worker's events merged onto one timeline. This module
//! owns the file that timeline is written to: [`render`] writes it in the
//! Chrome trace-event JSON format (loadable in Perfetto /
//! `chrome://tracing`), with a `droppedEvents` count when the recording
//! dropped events, and [`summarize`] reads it back into the rollups
//! behind `pcq-analyze trace summarize`: per-phase aggregates,
//! per-process totals, and a per-round critical-path breakdown.
//!
//! Mapping: spans become `"ph": "X"` (complete) events with `ts`/`dur`,
//! instants become `"ph": "i"` with thread scope, and each process lane
//! gets a `"ph": "M"` `process_name` metadata record (`coordinator`,
//! `worker 0`, …). Span ids and parent links ride in `args` so the file
//! round-trips losslessly through [`parse_chrome_trace`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::json::JsonValue;
use crate::trace::{process_label, EventKind, TraceEvent};

/// The trace file of a run: its events as a [`chrome_trace`] document on
/// one line, carrying `droppedEvents` when the recording dropped any
/// (complete timelines omit the field).
pub fn render(events: &[TraceEvent], dropped: u64) -> String {
    let mut doc = chrome_trace(events);
    if dropped > 0 {
        doc.push("droppedEvents", JsonValue::from(dropped));
    }
    format!("{doc}\n")
}

/// Reads a trace file written by [`render`] into its summary: its events,
/// checked by [`check_well_formed`], rolled up, and its `droppedEvents`.
/// Malformed JSON and corrupted documents are errors, never a panic.
pub fn summarize(text: &str) -> Result<TraceSummary, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = events_from_doc(&doc)?;
    check_well_formed(&events)?;
    Ok(TraceSummary {
        dropped_events: dropped_events_field(&doc),
        ..TraceSummary::from_events(&events)
    })
}

/// Renders recorded events as a Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn chrome_trace(events: &[TraceEvent]) -> JsonValue {
    let mut out = Vec::with_capacity(events.len() + 4);

    // One process_name metadata record per lane, so Perfetto labels the
    // tracks "coordinator" / "worker N" instead of bare pids.
    let mut pids: Vec<u32> = events.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        out.push(JsonValue::object([
            ("name", JsonValue::from("process_name")),
            ("ph", JsonValue::from("M")),
            ("pid", JsonValue::from(u64::from(pid))),
            ("tid", JsonValue::from(0u64)),
            (
                "args",
                JsonValue::object([("name", JsonValue::from(process_label(pid).as_str()))]),
            ),
        ]));
    }

    for event in events {
        let mut args = vec![
            ("id".to_string(), event.id.to_string().into()),
            ("parent".to_string(), event.parent.to_string().into()),
        ];
        for (key, value) in &event.args {
            args.push((key.clone(), JsonValue::from(value.as_str())));
        }
        let mut fields = vec![
            ("name".to_string(), JsonValue::from(event.name.as_str())),
            ("cat".to_string(), JsonValue::from("pcq")),
            ("ts".to_string(), JsonValue::from(event.ts_us)),
            ("pid".to_string(), JsonValue::from(u64::from(event.pid))),
            ("tid".to_string(), JsonValue::from(event.tid)),
        ];
        match event.kind {
            EventKind::Span => {
                fields.push(("ph".to_string(), JsonValue::from("X")));
                fields.push(("dur".to_string(), JsonValue::from(event.dur_us)));
            }
            EventKind::Instant => {
                fields.push(("ph".to_string(), JsonValue::from("i")));
                fields.push(("s".to_string(), JsonValue::from("t")));
            }
        }
        fields.push(("args".to_string(), JsonValue::Object(args)));
        out.push(JsonValue::Object(fields));
    }

    JsonValue::object([
        ("traceEvents", JsonValue::Array(out)),
        ("displayTimeUnit", JsonValue::from("ms")),
    ])
}

/// Parses a Chrome trace-event document (as written by [`chrome_trace`])
/// back into events. Metadata records are dropped; unknown phase types
/// are an error so corrupted files fail loudly rather than summarize
/// silently wrong.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    events_from_doc(&doc)
}

/// The `droppedEvents` count a trace document carries when the recording
/// session overflowed its per-thread buffers (0 when absent — complete
/// timelines omit the field).
fn dropped_events_field(doc: &JsonValue) -> u64 {
    doc.get("droppedEvents")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// Extracts events from an already-parsed trace document — the
/// building block behind [`parse_chrome_trace`] and [`summarize`], which
/// also reads the document-level `droppedEvents`.
fn events_from_doc(doc: &JsonValue) -> Result<Vec<TraceEvent>, String> {
    let items = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    let mut events = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let field = |key: &str| {
            item.get(key)
                .ok_or_else(|| format!("event {index}: missing \"{key}\""))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {index}: \"ph\" is not a string"))?;
        let kind = match ph {
            "M" => continue,
            "X" => EventKind::Span,
            "i" | "I" => EventKind::Instant,
            other => return Err(format!("event {index}: unsupported phase {other:?}")),
        };
        let uint = |key: &str| -> Result<u64, String> {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("event {index}: \"{key}\" is not an integer"))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {index}: \"name\" is not a string"))?
            .to_string();
        let mut id = 0u64;
        let mut parent = 0u64;
        let mut args = Vec::new();
        if let Some(JsonValue::Object(pairs)) = item.get("args") {
            for (key, value) in pairs {
                let text = value
                    .as_str()
                    .ok_or_else(|| format!("event {index}: arg \"{key}\" is not a string"))?;
                match key.as_str() {
                    "id" => {
                        id = text
                            .parse()
                            .map_err(|_| format!("event {index}: bad span id {text:?}"))?
                    }
                    "parent" => {
                        parent = text
                            .parse()
                            .map_err(|_| format!("event {index}: bad parent id {text:?}"))?
                    }
                    _ => args.push((key.clone(), text.to_string())),
                }
            }
        }
        events.push(TraceEvent {
            name,
            kind,
            ts_us: uint("ts")?,
            dur_us: match kind {
                EventKind::Span => uint("dur")?,
                EventKind::Instant => 0,
            },
            pid: u32::try_from(uint("pid")?)
                .map_err(|_| format!("event {index}: pid out of range"))?,
            tid: uint("tid")?,
            id,
            parent,
            args,
        });
    }
    Ok(events)
}

/// Structural invariants every merged timeline must satisfy: each
/// non-root parent reference resolves to a recorded span, and within a
/// single process lane children start no earlier and end no later than
/// their parent. Cross-process nesting is exempt from the temporal check
/// because worker clocks are aligned to the coordinator's only
/// approximately (via the offset shipped in the trace context).
pub fn check_well_formed(events: &[TraceEvent]) -> Result<(), String> {
    let spans: BTreeMap<u64, &TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| (e.id, e))
        .collect();
    for event in events {
        if event.parent == 0 {
            continue;
        }
        let parent = spans.get(&event.parent).ok_or_else(|| {
            format!(
                "{} (id {}) references unknown parent span {}",
                event.name, event.id, event.parent
            )
        })?;
        if parent.pid != event.pid {
            continue;
        }
        let parent_end = parent.ts_us + parent.dur_us;
        let end = event.ts_us + event.dur_us;
        if event.ts_us < parent.ts_us || end > parent_end {
            return Err(format!(
                "{} (id {}, {}..{}) escapes parent {} (id {}, {}..{})",
                event.name,
                event.id,
                event.ts_us,
                end,
                parent.name,
                parent.id,
                parent.ts_us,
                parent_end
            ));
        }
    }
    Ok(())
}

/// Aggregate statistics for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration across them, microseconds.
    pub total_us: u64,
    /// Shortest single span.
    pub min_us: u64,
    /// Longest single span.
    pub max_us: u64,
    /// Summed self time: each span's duration less the union of its
    /// children's intervals, each clipped to the span. A span's children
    /// are the spans of its own lane that name it as their parent.
    pub self_us: u64,
}

/// Aggregate statistics for one process lane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Spans recorded on this lane.
    pub spans: u64,
    /// Instants recorded on this lane.
    pub instants: u64,
    /// Summed span duration (inclusive — nested spans both count).
    pub total_span_us: u64,
    /// Wall-clock extent: last event end minus first event start.
    pub wall_us: u64,
    /// The self time of the lane's root spans — those whose parent is not
    /// a span of this lane: the time inside them that no other span of the
    /// lane accounts for.
    pub unattributed_us: u64,
}

/// One engine round on the coordinator's critical path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number (from the span's `round` argument, else ordinal).
    pub round: u64,
    /// The round span's duration.
    pub dur_us: u64,
}

/// The rollups behind `pcq-analyze trace summarize`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (spans + instants).
    pub events: u64,
    /// Per-span-name aggregates, ordered by name.
    pub phases: BTreeMap<String, PhaseStats>,
    /// Per-instant-name counts, ordered by name.
    pub instants: BTreeMap<String, u64>,
    /// Per-process-lane aggregates, keyed by pid.
    pub processes: BTreeMap<u32, ProcessStats>,
    /// Coordinator `eval_round` / `resident_round` spans in timeline order,
    /// one per round that ran: the round-by-round critical path.
    pub rounds: Vec<RoundStats>,
    /// Events the recording session dropped (per-thread buffer
    /// overflow): when nonzero the timeline is incomplete and every
    /// rollup above is a lower bound.
    pub dropped_events: u64,
}

impl TraceSummary {
    /// Computes the rollups from a merged timeline.
    pub fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut summary = TraceSummary {
            events: events.len() as u64,
            ..TraceSummary::default()
        };
        let mut lanes: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (event, (self_us, root)) in events.iter().zip(self_times(events)) {
            let process = summary.processes.entry(event.pid).or_default();
            let lane = lanes.entry(event.pid).or_insert((u64::MAX, 0));
            lane.0 = lane.0.min(event.ts_us);
            lane.1 = lane.1.max(event.ts_us + event.dur_us);
            match event.kind {
                EventKind::Span => {
                    process.spans += 1;
                    process.total_span_us += event.dur_us;
                    if root {
                        process.unattributed_us += self_us;
                    }
                    let phase = summary.phases.entry(event.name.clone()).or_default();
                    if phase.count == 0 {
                        phase.min_us = event.dur_us;
                    }
                    phase.count += 1;
                    phase.total_us += event.dur_us;
                    phase.self_us += self_us;
                    phase.min_us = phase.min_us.min(event.dur_us);
                    phase.max_us = phase.max_us.max(event.dur_us);
                    if event.pid == 0
                        && matches!(event.name.as_str(), "eval_round" | "resident_round")
                    {
                        let round = event
                            .args
                            .iter()
                            .find(|(k, _)| k == "round")
                            .and_then(|(_, v)| v.parse().ok())
                            .unwrap_or(summary.rounds.len() as u64);
                        summary.rounds.push(RoundStats {
                            round,
                            dur_us: event.dur_us,
                        });
                    }
                }
                EventKind::Instant => {
                    process.instants += 1;
                    *summary.instants.entry(event.name.clone()).or_default() += 1;
                }
            }
        }
        for (pid, (start, end)) in lanes {
            if let Some(process) = summary.processes.get_mut(&pid) {
                process.wall_us = end.saturating_sub(start);
            }
        }
        summary
    }

    /// Renders the summary as a JSON document (for `--json`).
    pub fn to_json(&self) -> JsonValue {
        let phases = self
            .phases
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    JsonValue::object([
                        ("count", JsonValue::from(s.count)),
                        ("total_us", JsonValue::from(s.total_us)),
                        ("min_us", JsonValue::from(s.min_us)),
                        ("max_us", JsonValue::from(s.max_us)),
                        ("self_us", JsonValue::from(s.self_us)),
                    ]),
                )
            })
            .collect();
        let instants = self
            .instants
            .iter()
            .map(|(name, count)| (name.clone(), JsonValue::from(*count)))
            .collect();
        let processes = self
            .processes
            .iter()
            .map(|(pid, s)| {
                (
                    process_label(*pid),
                    JsonValue::object([
                        ("spans", JsonValue::from(s.spans)),
                        ("instants", JsonValue::from(s.instants)),
                        ("total_span_us", JsonValue::from(s.total_span_us)),
                        ("wall_us", JsonValue::from(s.wall_us)),
                        ("unattributed_us", JsonValue::from(s.unattributed_us)),
                    ]),
                )
            })
            .collect();
        let rounds = self
            .rounds
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("round", JsonValue::from(r.round)),
                    ("dur_us", JsonValue::from(r.dur_us)),
                ])
            })
            .collect();
        JsonValue::object([
            ("events", JsonValue::from(self.events)),
            ("dropped_events", JsonValue::from(self.dropped_events)),
            ("phases", JsonValue::Object(phases)),
            ("instants", JsonValue::Object(instants)),
            ("processes", JsonValue::Object(processes)),
            ("rounds", JsonValue::Array(rounds)),
        ])
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events: {}", self.events)?;
        if self.dropped_events > 0 {
            writeln!(
                f,
                "WARNING: {} events dropped (per-thread buffer full) — totals are lower bounds",
                self.dropped_events
            )?;
        }
        if !self.processes.is_empty() {
            writeln!(f, "\nprocesses:")?;
            for (pid, s) in &self.processes {
                writeln!(
                    f,
                    "  {:<14} {:>6} spans  {:>6} instants  busy {:>10}  wall {:>10}  unattributed {:>10}",
                    process_label(*pid),
                    s.spans,
                    s.instants,
                    format_us(s.total_span_us),
                    format_us(s.wall_us),
                    format_us(s.unattributed_us),
                )?;
            }
        }
        if !self.phases.is_empty() {
            writeln!(f, "\nphases (by total time):")?;
            let mut phases: Vec<_> = self.phases.iter().collect();
            phases.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
            for (name, s) in phases {
                writeln!(
                    f,
                    "  {:<22} {:>6}x  total {:>10}  self {:>10}  min {:>10}  max {:>10}",
                    name,
                    s.count,
                    format_us(s.total_us),
                    format_us(s.self_us),
                    format_us(s.min_us),
                    format_us(s.max_us),
                )?;
            }
        }
        if !self.instants.is_empty() {
            writeln!(f, "\ninstants:")?;
            for (name, count) in &self.instants {
                writeln!(f, "  {name:<22} {count:>6}x")?;
            }
        }
        if !self.rounds.is_empty() {
            let total: u64 = self.rounds.iter().map(|r| r.dur_us).sum();
            writeln!(f, "\nrounds (critical path, {} total):", format_us(total))?;
            for r in &self.rounds {
                let share = if total == 0 {
                    0.0
                } else {
                    100.0 * r.dur_us as f64 / total as f64
                };
                writeln!(
                    f,
                    "  round {:<4} {:>10}  {:>5.1}%",
                    r.round,
                    format_us(r.dur_us),
                    share
                )?;
            }
        }
        Ok(())
    }
}

/// For every event, its self time and whether it is a root of its lane.
///
/// A span's children are the spans of its own process lane whose `parent`
/// is its `id` (a worker span under a coordinator round is a root of the
/// worker's lane, not a child of the round); a lane's roots are its spans
/// whose parent is no span of that lane. The parent is the one the recorder
/// wrote — the innermost span open on the recording thread — and no
/// timestamp is read to choose one. A span's self time is its duration
/// less the union of its children's intervals, each clipped to the span:
/// children that overlap (threads of one process) count once, and the
/// remainder is never negative. Instants get `(0, false)`.
fn self_times(events: &[TraceEvent]) -> Vec<(u64, bool)> {
    let spans = || events.iter().filter(|e| e.kind == EventKind::Span);
    let interval = |span: &TraceEvent| (span.ts_us, span.ts_us + span.dur_us);
    let mut children: HashMap<(u32, u64), Vec<(u64, u64)>> = HashMap::new();
    for span in spans() {
        children.entry((span.pid, span.id)).or_default();
    }
    for span in spans() {
        if let Some(siblings) = children.get_mut(&(span.pid, span.parent)) {
            siblings.push(interval(span));
        }
    }
    events
        .iter()
        .map(|event| {
            if event.kind != EventKind::Span {
                return (0, false);
            }
            let (start, end) = interval(event);
            let mut clipped: Vec<(u64, u64)> = children[&(event.pid, event.id)]
                .iter()
                .map(|&(a, b)| (a.clamp(start, end), b.clamp(start, end)))
                .collect();
            clipped.sort_unstable();
            let (mut covered, mut reach) = (0, start);
            for (a, b) in clipped {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let root = !children.contains_key(&(event.pid, event.parent));
            (event.dur_us - covered, root)
        })
        .collect()
}

/// Microseconds as a human-readable duration (`428us`, `1.204ms`, `3.50s`).
pub(crate) fn format_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.3}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: u64, dur: u64, pid: u32, id: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            kind: EventKind::Span,
            ts_us: ts,
            dur_us: dur,
            pid,
            tid: 1,
            id,
            parent,
            args: vec![("round".to_string(), "2".to_string())],
        }
    }

    fn instant(name: &str, ts: u64, pid: u32, parent: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            kind: EventKind::Instant,
            ts_us: ts,
            dur_us: 0,
            pid,
            tid: 1,
            id: parent,
            parent,
            args: Vec::new(),
        }
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            span("run", 0, 100, 0, 1, 0),
            span("eval_round", 10, 60, 0, 2, 1),
            span("worker_eval_chunk", 20, 30, 1, (1 << 40) | 1, 2),
            instant("requeue", 50, 0, 2),
        ]
    }

    #[test]
    fn export_round_trips_through_parse() {
        let events = sample();
        let doc = chrome_trace(&events);
        let parsed = parse_chrome_trace(&doc.to_string()).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn export_labels_every_process_lane() {
        let doc = chrome_trace(&sample()).to_string();
        assert!(doc.contains("\"coordinator\""));
        assert!(doc.contains("\"worker 0\""));
        assert!(doc.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn well_formedness_accepts_nesting_and_cross_process_links() {
        check_well_formed(&sample()).unwrap();
    }

    #[test]
    fn well_formedness_rejects_dangling_parent() {
        let mut events = sample();
        events[1].parent = 99;
        let err = check_well_formed(&events).unwrap_err();
        assert!(err.contains("unknown parent"), "{err}");
    }

    #[test]
    fn well_formedness_rejects_child_escaping_parent_in_same_process() {
        let mut events = sample();
        events[1].dur_us = 1_000; // ends after the enclosing "run" span
        let err = check_well_formed(&events).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn summary_rolls_up_phases_processes_and_rounds() {
        let summary = TraceSummary::from_events(&sample());
        assert_eq!(summary.events, 4);
        assert_eq!(summary.phases["eval_round"].count, 1);
        assert_eq!(summary.phases["eval_round"].total_us, 60);
        assert_eq!(summary.instants["requeue"], 1);
        assert_eq!(summary.processes[&0].spans, 2);
        assert_eq!(summary.processes[&0].wall_us, 100);
        assert_eq!(summary.processes[&1].spans, 1);
        assert_eq!(
            summary.rounds,
            vec![RoundStats {
                round: 2,
                dur_us: 60
            }]
        );
        // json rendering parses back
        JsonValue::parse(&summary.to_json().to_string()).unwrap();
    }

    #[test]
    fn self_time_is_the_span_less_the_union_of_its_children() {
        let (worker, second) = (1 << 40, 2 << 40);
        let events = vec![
            // The coordinator: two children that overlap (two threads of
            // one process), one of which has a child of its own.
            span("run", 0, 100, 0, 1, 0),
            span("a", 10, 30, 0, 2, 1),
            span("b", 30, 30, 0, 3, 1),
            span("c", 15, 5, 0, 4, 2),
            instant("note", 16, 0, 4),
            // A worker's span under a coordinator span is a root of the
            // worker's lane, and it has no child.
            span("w", 20, 30, 1, worker | 1, 2),
            // A child that overhangs its parent is clipped to it.
            span("r", 0, 10, 2, second | 1, 0),
            span("late", 5, 15, 2, second | 2, second | 1),
        ];
        let summary = TraceSummary::from_events(&events);
        let self_us = |name: &str| summary.phases[name].self_us;
        assert_eq!(
            ["run", "a", "b", "c", "w", "r", "late"].map(self_us),
            [50, 25, 30, 5, 30, 5, 15]
        );
        let unattributed = |pid: u32| summary.processes[&pid].unattributed_us;
        assert_eq!([0, 1, 2].map(unattributed), [50, 30, 5]);
        let json = summary.to_json().to_string();
        assert!(json.contains("\"self_us\":25"), "{json}");
        assert!(json.contains("\"unattributed_us\":50"), "{json}");
        let text = summary.to_string();
        assert!(
            text.contains("self") && text.contains("unattributed"),
            "{text}"
        );
    }

    #[test]
    fn a_summary_has_one_entry_per_round_that_ran() {
        // Two full rounds, each with the `distribute` it runs nested inside,
        // then a resident round; a worker's span never counts.
        let events = vec![
            span("run", 0, 100, 0, 1, 0),
            span("eval_round", 10, 20, 0, 2, 1),
            span("distribute", 11, 18, 0, 3, 2),
            span("eval_round", 40, 30, 0, 4, 1),
            span("distribute", 41, 28, 0, 5, 4),
            span("eval_round", 42, 5, 1, (1 << 40) | 1, 5),
            span("resident_round", 80, 10, 0, 6, 1),
        ];
        check_well_formed(&events).unwrap();
        let rounds = TraceSummary::from_events(&events).rounds;
        let durations: Vec<u64> = rounds.iter().map(|r| r.dur_us).collect();
        assert_eq!(durations, [20, 30, 10]);
    }

    #[test]
    fn dropped_events_round_trip_through_the_document() {
        let mut doc = chrome_trace(&sample());
        assert_eq!(dropped_events_field(&doc), 0);
        doc.push("droppedEvents", JsonValue::from(7u64));
        let reparsed = JsonValue::parse(&doc.to_string()).unwrap();
        assert_eq!(dropped_events_field(&reparsed), 7);
        let mut summary = TraceSummary::from_events(&events_from_doc(&reparsed).unwrap());
        summary.dropped_events = dropped_events_field(&reparsed);
        assert!(summary.to_string().contains("WARNING: 7 events dropped"));
        let json = summary.to_json();
        assert_eq!(
            json.get("dropped_events").and_then(JsonValue::as_u64),
            Some(7)
        );
    }

    #[test]
    fn empty_and_degenerate_timelines_summarize_cleanly() {
        // A trace with no events at all.
        let empty = parse_chrome_trace("{\"traceEvents\":[]}").unwrap();
        let summary = TraceSummary::from_events(&empty);
        assert_eq!(summary.events, 0);
        assert!(summary.to_string().contains("events: 0"));
        // Zero-duration rounds must not divide by zero in the share
        // column, and a process lane with only instants (zero spans)
        // must render.
        let degenerate = vec![
            span("eval_round", 0, 0, 0, 1, 0),
            instant("requeue", 0, 1, 0),
        ];
        let summary = TraceSummary::from_events(&degenerate);
        let text = summary.to_string();
        assert!(text.contains("round"), "{text}");
        assert_eq!(summary.processes[&1].spans, 0);
        JsonValue::parse(&summary.to_json().to_string()).unwrap();
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(
            parse_chrome_trace("{\"traceEvents\": [{\"ph\": \"?\", \"name\": \"x\"}]}").is_err()
        );
    }
}
