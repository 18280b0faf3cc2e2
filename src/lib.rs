//! # pcq — Parallel-Correctness and Transferability for Conjunctive Queries
//!
//! Facade crate re-exporting the full public API of the reproduction of
//! Ameloot, Geck, Ketsman, Neven, Schwentick,
//! *"Parallel-Correctness and Transferability for Conjunctive Queries"*
//! (PODS 2015).
//!
//! The individual crates can also be used directly:
//!
//! * [`cq`] — conjunctive-query substrate (schemas, instances, valuations,
//!   evaluation, homomorphisms, minimization).
//! * [`distribution`] — distribution policies, Hypercube distributions, the
//!   simulated round loop (a one-round run is that loop capped at one
//!   round) and the node side of semi-naive rounds (`DeltaNode`).
//! * [`pc_core`] — the paper's contribution: parallel-correctness,
//!   transferability, strong minimality, conditions C0–C3.
//! * [`logic`] — SAT / QBF solvers used as ground-truth oracles.
//! * [`obs`] — the observability substrate: distributed tracing spans and
//!   the unified metrics registry, zero-dependency and free when disabled,
//!   with the JSON, trace-file and metrics documents they render.
//! * [`reductions`] — the paper's hardness reductions as instance generators.
//! * [`wire`] — the worker protocol: binary codec and framing, textual
//!   scenario format and the cross-process `WireTransport` (worker
//!   subprocesses over pipes or sockets).
//! * [`workloads`] — random query / instance / policy generators.
//!
//! The `oracle` crate — the scan evaluator and the Definition-level deciders
//! the differential tests compare against — is a dev-dependency only, so
//! neither this facade nor `pcq-analyze` links it. The facade's own
//! [`delta`] module keeps the names the benchmark's frozen probes import:
//! `distribution::DeltaNode` and the unused [`delta::IndexCache`].
//!
//! ## Quick start
//!
//! ```
//! use pcq::prelude::*;
//!
//! // The triangle query, its Hypercube distribution family, and a check that
//! // the query is parallel-correct for that family (Corollary 5.8).
//! let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
//! assert!(hypercube_parallel_correct(&q, &q).parallel_correct);
//!
//! // A concrete member of the family evaluates the query in one round.
//! let policy = HypercubePolicy::uniform(&q, 2).unwrap();
//! let data = cq::parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
//! let outcome = OneRoundEngine::new(&policy).evaluate(&q, &data);
//! assert_eq!(*outcome.result, cq::evaluate(&q, &data));
//! ```

#![forbid(unsafe_code)]

pub use cq;
pub use distribution;
pub use logic;
pub use obs;
pub use pc_core;
pub use reductions;
pub use wire;
pub use workloads;

mod cache;

/// What the benchmark's frozen probes import under `pcq::delta`: the node
/// state of a semi-naive round, which lives in `distribution`, and an
/// instance cache that no runtime path uses.
pub mod delta {
    pub use crate::cache::IndexCache;
    pub use distribution::DeltaNode;
}

/// Convenience prelude bringing the most commonly used types and functions
/// into scope.
pub mod prelude {
    pub use cq::{
        evaluate, evaluate_seminaive_step, evaluate_with, parse_instance, Atom, ConjunctiveQuery,
        EvalOptions, Fact, Instance, Schema, Substitution, Symbol, Tuple, Valuation, Value,
        Variable,
    };
    pub use distribution::{
        DeltaNode, DistributionPolicy, ExplicitPolicy, FinitePolicy, HypercubeFamily,
        HypercubePolicy, InMemoryTransport, MultiQueryOutcome, MultiRoundEngine, MultiRoundOutcome,
        Network, Node, OneRoundEngine, RoundSchedule, RuleBasedPolicy, RunPlan, Shipment,
        Transport, TransportError,
    };
    pub use obs::JsonValue;
    pub use pc_core::{
        check_parallel_correctness, check_parallel_correctness_bounded,
        check_parallel_correctness_on_instance, check_transfer, holds_c0, holds_c2, holds_c3,
        hypercube_parallel_correct, is_minimal_valuation, is_strongly_minimal,
        multi_round_correct_on, validate_hypercube_family, CacheStats, MultiRoundInstanceReport,
        PcReport, TransferCache, TransferReport,
    };
    pub use wire::{ExplicitSpec, Scenario, WireTransport};
    pub use workloads::{
        chain_query, example_3_5_query, named_instance, named_query, named_query_sequence,
        query_sequence_names, random_instance, random_query, star_query, triangle_query,
        zipf_instance, InstanceParams, QueryParams,
    };
}
