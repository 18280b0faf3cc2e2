//! Observability substrate for the `pcq` workspace: lightweight tracing
//! spans and a unified metrics registry, with **zero dependencies** so
//! every other crate — down to the innermost evaluator loops — can
//! depend on it without cycles or build-cost.
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
//!   parallel tests never observe each other's counts.
//!
//! The span model is deliberately tiny: complete spans (name, start,
//! duration, id, parent id) and instant events, each with optional
//! string key/value arguments. That is exactly what the Chrome
//! trace-event format needs and what the `pcq-analyze trace` rollups
//! consume; anything richer belongs in the exporter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry};
pub use trace::{
    adopt_trace, current_span, current_trace, dropped_events, enabled, end_trace, instant_args,
    now_us, span, span_args, span_ended, span_under, start_trace, submit_events, take_events,
    EventKind, Span, TraceEvent,
};
