//! # wire — serialization and cross-process transport
//!
//! Everything that crosses a process boundary (or a file boundary) in this
//! workspace is owned by this crate:
//!
//! * [`codec`] — the compact binary codec: varint lengths, a name
//!   dictionary (relation, variable and node names ship as small integers,
//!   and cross a connection once), data values as bare ids in one id space
//!   per worker connection — the coordinator's — and by name in
//!   self-contained bodies, relation-blocked instance bodies, and the
//!   [`Encode`] / [`Decode`] impls for instances, queries, shipments and
//!   round-control messages,
//! * [`frame`] — the framing layer: `PCQW` magic, version byte, varint
//!   body length; frames are self-delimiting so they concatenate on pipes,
//! * [`Message`] — the protocol vocabulary: `Eval` / `EvalResult` ship a
//!   node's `Shipment` and its answer, next to the `Barrier` /
//!   `BarrierAck` / `Shutdown` round-control messages,
//! * [`Scenario`] — the textual scenario format: one file describing
//!   query, instance, network/policy schedule, round cap and feedback
//!   relation, with a pretty-printer that is the parser's exact inverse;
//!   that text is also a scenario's wire form,
//! * [`json`] — the JSON emitter (and parser) behind `pcq-analyze run
//!   --json` and the Chrome-trace tooling,
//! * [`trace_export`] — Chrome-trace-event export of merged coordinator
//!   + worker timelines, plus the rollups behind `pcq-analyze trace
//!   summarize`,
//! * [`trace_diff`] — phase/process/round comparison of two trace
//!   summaries with cause attribution, behind `pcq-analyze trace diff`,
//! * [`metrics_export`] — JSON export of [`obs::Registry`] counters and
//!   histogram quantiles, behind the `counters` / `histograms` blocks of
//!   `pcq-analyze run --json`,
//! * [`WireTransport`] — the [`distribution::Transport`] that makes
//!   engine rounds genuinely cross-process: it ships binary-encoded
//!   shipments to `pcq-analyze worker` subprocesses, keeps a bounded
//!   window of jobs in flight per worker and requeues a dead worker's
//!   unanswered jobs onto the survivors. Two constructors pick the byte
//!   stream — [`WireTransport::spawn_pipes`] (the workers' stdio) and
//!   [`WireTransport::spawn_sockets`] (loopback TCP, workers connecting
//!   back with `--connect`); [`run_worker`] / [`run_worker_connect`] are
//!   the worker side of each.
//!
//! The vendored `serde` stub played no part here: the codec is
//! hand-rolled against the concrete types, dependency-free, and tested for
//! `decode(encode(x)) == x` plus never-panicking rejection of corrupted
//! and truncated input.
//!
//! ## Example
//!
//! ```
//! use wire::{Scenario, frame};
//!
//! let scenario = Scenario::parse(
//!     "query T(x, z) :- R(x, y), R(y, z).
//!      instance { R(a, b). R(b, c). }
//!      schedule hash(2), hypercube(2)
//!      rounds 4
//!      feedback R",
//! ).unwrap();
//!
//! // Textual round-trip: printing and re-parsing is the identity.
//! assert_eq!(Scenario::parse(&scenario.to_string()).unwrap(), scenario);
//!
//! // Wire round-trip: the frame carries the text and decodes to an equal value.
//! let bytes = frame::encode_frame(&scenario);
//! assert_eq!(frame::decode_frame::<Scenario>(&bytes).unwrap(), scenario);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod driver;
pub mod frame;
pub mod json;
mod message;
pub mod metrics_export;
mod process;
mod scenario;
mod socket;
pub mod trace_diff;
pub mod trace_export;

pub use codec::{
    decode_body, decode_body_with, encode_body, encode_body_with, Decode, DecodeError, Decoder,
    Dictionary, Encode, Encoder,
};
pub use driver::WireTransport;
pub use frame::{decode_frame, encode_frame, encode_frame_with, read_frame, write_frame};
pub use json::JsonValue;
pub use message::{EvalRef, Message, TraceContext};
pub use metrics_export::{merged_registry_json, registry_json};
pub use process::run_worker;
pub use scenario::{ExplicitSpec, NetworkSpec, PolicySpec, Scenario, ScenarioError};
pub use socket::run_worker_connect;
pub use trace_diff::{diff_summaries, DiffOptions, TraceDiff};
pub use trace_export::{
    check_well_formed, chrome_trace, dropped_events_field, events_from_doc, parse_chrome_trace,
    TraceSummary,
};
