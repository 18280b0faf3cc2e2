//! # delta — the node side of semi-naive rounds
//!
//! A semi-naive run grows its state by `cq::Instance::absorb`, which
//! merges a run into the instance (and into its sorted column orders, so
//! the index work of one round is reused by every later one) and returns
//! the facts that were new: that return value *is* the round's delta. The
//! coordinator carries one plain `Instance`; this crate holds what a node
//! carries:
//!
//! * [`DeltaNode`] — the node-side state of a semi-naive distributed
//!   round: absorb the round's delta chunk, derive only what is new
//!   (`cq::evaluate_seminaive_step`), and ship back only the output facts
//!   this node has never produced before. Both the in-memory and the
//!   cross-process transports run their rounds through this one type, so
//!   their incremental semantics cannot drift apart.
//! * [`IndexCache`] — a content-addressed cache of equal instances that no
//!   runtime path uses any more; it is kept for the benchmark's frozen
//!   `index_warm` probe.
//!
//! ## Example
//!
//! ```
//! use cq::{ConjunctiveQuery, parse_instance};
//! use delta::DeltaNode;
//!
//! let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
//! let mut node = DeltaNode::new();
//!
//! // Round 1: everything is new, the differential step is a full evaluation.
//! let first = node.step(&q, &parse_instance("R(a, b).").unwrap());
//! assert!(first.is_empty());
//!
//! // Round 2: one new edge; only derivations touching it are recomputed.
//! let second = node.step(&q, &parse_instance("R(b, c).").unwrap());
//! assert_eq!(second, parse_instance("T(a, c).").unwrap());
//! assert_eq!(node.data().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod node;

pub use cache::IndexCache;
pub use node::DeltaNode;
