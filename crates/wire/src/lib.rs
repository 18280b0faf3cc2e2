//! # wire — the worker protocol
//!
//! Everything that crosses a worker connection in this workspace is owned
//! by this crate, and so is the scenario file, whose text is also a
//! scenario's wire form:
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
//! The observability files — the run report, the trace file and the
//! metrics export — never cross a worker connection and live in `obs`,
//! beside the events and registries they render.
//!
//! The codec is hand-rolled against the concrete types, dependency-free,
//! and tested for `decode(encode(x)) == x` plus never-panicking rejection
//! of corrupted and truncated input.
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
mod message;
mod process;
mod scenario;
mod socket;

pub use codec::{
    decode_body, decode_body_with, encode_body, encode_body_with, Decode, DecodeError, Decoder,
    Dictionary, Encode, Encoder,
};
pub use driver::WireTransport;
pub use frame::{decode_frame, encode_frame, encode_frame_with, read_frame, write_frame};
pub use message::{EvalRef, Message, TraceContext};
pub use process::run_worker;
pub use scenario::{ExplicitSpec, NetworkSpec, PolicySpec, Scenario, ScenarioError};
pub use socket::run_worker_connect;
