//! # distribution — distribution policies and one-round evaluation
//!
//! This crate implements the data-distribution side of
//! *"Parallel-Correctness and Transferability for Conjunctive Queries"*
//! (PODS 2015):
//!
//! * [`Node`]s and [`Network`]s of computing nodes,
//! * the [`DistributionPolicy`] trait — a total function mapping facts to
//!   sets of nodes (Section 2 of the paper), with finite, explicitly
//!   enumerated policies ([`ExplicitPolicy`], the class `Pfin`),
//! * the declarative, rule-based specification formalism of Section 5.2
//!   ([`RuleBasedPolicy`], [`DistributionRule`]) with `bucket`/`bucket*`
//!   predicates realized as [`HashScheme`]s,
//! * [`HypercubePolicy`] and [`HypercubeFamily`] — the Hypercube
//!   distributions of Section 5.2,
//! * [`Distribution`] — the result of reshuffling an instance
//!   (`dist_P(I)`), with load and replication statistics, and
//!   [`ChunkStream`] — the reshuffle itself: borrowed per-node fact
//!   slices built in one pass, from which the owned chunks are
//!   materialized,
//! * [`OneRoundEngine`] — the one-round evaluation algorithm: reshuffle
//!   (optionally sharded over threads), evaluate locally at every node,
//!   union the results,
//! * [`MultiRoundEngine`] — the iterated (MPC-style multi-round) algorithm:
//!   distribute→evaluate cycles under a per-round [`RoundSchedule`], with
//!   an optional feedback relation, fixpoint detection and a round cap;
//!   [`MultiRoundEngine::semi_naive`] switches the rounds to **incremental
//!   mode** — only the facts new since the previous round are reshuffled
//!   ([`Shipment::Delta`]), nodes keep their accumulated state across
//!   rounds, and local evaluation is one semi-naive differential pass
//!   instead of a full re-evaluation,
//! * [`Transport`] — the seam between the engines and wherever local
//!   evaluation happens: `begin_round` / `send(node, `[`Shipment`]`)` /
//!   `barrier` / `recv(node)`. [`InMemoryTransport`] evaluates on an
//!   in-process worker pool, `wire::WireTransport` ships binary-encoded
//!   frames to `pcq-analyze worker` subprocesses over pipes or sockets;
//!   both hand every shipment to the one [`NodeState::apply`].
//!
//! ## Example
//!
//! ```
//! use cq::{ConjunctiveQuery, parse_instance, evaluate};
//! use distribution::{HypercubePolicy, OneRoundEngine};
//!
//! let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
//! let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d). E(d, a).").unwrap();
//!
//! let policy = HypercubePolicy::uniform(&q, 2).unwrap();
//! let engine = OneRoundEngine::new(&policy);
//! let outcome = engine.evaluate(&q, &i);
//!
//! // Hypercube distributions are parallel-correct for their query:
//! assert_eq!(outcome.result, evaluate(&q, &i));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribute;
mod engine;
mod explicit;
mod hash;
mod hypercube;
mod network;
mod policy;
mod rounds;
mod rules;
mod transport;

pub use distribute::{ChunkStream, Distribution, DistributionStats};
pub use engine::{OneRoundEngine, OneRoundOutcome};
pub use explicit::ExplicitPolicy;
pub use hash::{fnv1a, HashScheme};
pub use hypercube::{HypercubeFamily, HypercubePolicy};
pub use network::{Network, Node};
pub use policy::{DistributionPolicy, FinitePolicy};
pub use rounds::{
    IteratedFixpoint, MultiQueryOutcome, MultiRoundEngine, MultiRoundOutcome, RoundSchedule,
    TransferOracle,
};
pub use rules::{AddressTerm, DistributionRule, RuleBasedPolicy, RulePolicyError};
pub use transport::{
    InMemoryTransport, NodeResult, NodeState, Shipment, Transport, TransportError,
};
