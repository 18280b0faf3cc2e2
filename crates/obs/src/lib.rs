//! Observability substrate for the `pcq` workspace: lightweight tracing
//! spans and a unified metrics registry, with **zero dependencies** so
//! every other crate — down to the innermost evaluator loops — can
//! depend on it without cycles or build-cost, and the files they are
//! read from and written to.
//!
//! ## Two halves
//!
//! * [`trace`] — a process-global span recorder. When a trace is active
//!   ([`start_trace`]), [`span!`] guards and [`instant!`] events are
//!   written to per-thread buffers with monotonic microsecond
//!   timestamps and collected into one timeline ([`end_trace`]). When no
//!   trace is active the entire API is a no-op behind a single relaxed
//!   atomic load — cheap enough to leave in the hottest seams.
//!   Cross-process runs adopt the coordinator's trace id and clock
//!   ([`adopt_trace`]), record locally, and ship their events back
//!   ([`take_events`] / [`submit_events`]).
//! * [`metrics`] — [`Registry`], [`Counter`] and [`Histogram`]: shared
//!   atomic handles registered under stable names. A registry instance
//!   (not a process global) is owned by each transport/engine so
//!   parallel tests never observe each other's counts;
//!   [`Registry::merged_json`] renders a run's registries as the
//!   `counters` / `histograms` blocks of `pcq-analyze run --json`.
//!
//! The span model is deliberately tiny: complete spans (name, start,
//! duration, id, parent id) and instant events, each with optional
//! string key/value arguments. That is exactly what the Chrome
//! trace-event format needs and what the `pcq-analyze trace` rollups
//! consume.
//!
//! ## Files
//!
//! [`json`] builds and parses the JSON of every document here and of the
//! `pcq-analyze run --json` report. [`trace_export`] writes a merged
//! timeline as a Chrome trace-event file and reads one back into the
//! rollups of `pcq-analyze trace summarize`; [`trace_diff`] compares two
//! such summaries for `pcq-analyze trace diff`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;
pub mod trace_diff;
pub mod trace_export;

pub use json::JsonValue;
pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry};
pub use trace::{
    adopt_trace, current_span, current_trace, dropped_events, enabled, end_trace, enter,
    instant_args, now_us, span, span_args, span_ended, start_trace, submit_events, take_events,
    Entered, EventKind, Span, TraceEvent,
};
