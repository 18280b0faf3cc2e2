//! # delta — change as a first-class value
//!
//! The multi-round engines historically re-evaluated the full accumulated
//! instance every round. This crate owns the storage side of doing better:
//!
//! * [`DeltaInstance`] — an instance that tracks, next to its full fact
//!   set, the facts that are *new since the last round*. Growth is a merge
//!   that keeps the full instance's sorted column orders warm (it merges
//!   the new rows into them — see `cq::Instance::absorb`), so every round's
//!   evaluation reuses the index work of all earlier rounds.
//! * [`DeltaNode`] — the node-side state of a semi-naive distributed
//!   round: absorb the round's delta chunk, derive only what is new
//!   (`cq::evaluate_seminaive_step`), and ship back only the output facts
//!   this node has never produced before. Both the in-memory and the
//!   cross-process transports run their rounds through this one type, so
//!   their incremental semantics cannot drift apart.
//! * [`IndexCache`] — a small content-addressed cache of
//!   evaluation-ready instances for the many `evaluate` calls the engines
//!   and decision procedures make on *identical* instances (a broadcast
//!   round evaluates the same chunk at every node): repeated calls share
//!   one instance whose sorted column orders are built once.
//!
//! ## Example
//!
//! ```
//! use cq::{ConjunctiveQuery, parse_instance, evaluate};
//! use delta::DeltaInstance;
//!
//! let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
//! let mut acc = DeltaInstance::from_initial(parse_instance("R(a, b).").unwrap());
//!
//! // Round 1: everything is new, the differential step is a full evaluation.
//! assert_eq!(acc.evaluate_new(&q), evaluate(&q, acc.full()));
//! acc.take_delta();
//!
//! // Round 2: one new edge; only derivations touching it are recomputed.
//! acc.absorb(&parse_instance("R(b, c).").unwrap());
//! let new = acc.evaluate_new(&q);
//! assert_eq!(new, parse_instance("T(a, c).").unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod instance;
mod node;

pub use cache::{CacheStats, IndexCache};
pub use instance::DeltaInstance;
pub use node::DeltaNode;
