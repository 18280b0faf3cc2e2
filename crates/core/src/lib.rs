//! # pc-core — parallel-correctness and transferability for conjunctive queries
//!
//! This crate implements the contributions of
//! *"Parallel-Correctness and Transferability for Conjunctive Queries"*
//! (Ameloot, Geck, Ketsman, Neven, Schwentick, PODS 2015):
//!
//! * **valuation minimality** (Definition 3.3) and **strong minimality**
//!   (Definition 4.4) together with the sufficient syntactic condition of
//!   Lemma 4.8 — module [`minimality`],
//! * the conditions **(C0)**, **(C1)** (Lemma 3.4), **(C2)** (Lemma 4.2) and
//!   **(C3)** (Lemma 4.6 / Lemma 5.2) — module [`conditions`],
//! * deciders for **parallel-correctness** on an instance (`PCI`,
//!   Definition 3.1) and for all instances over a finite policy (`PC(Pfin)`,
//!   Theorem 3.8) — module [`pc`],
//! * deciders for **parallel-correctness transfer** (`pc-trans`,
//!   Theorem 4.3) in the general case and the NP procedure for strongly
//!   minimal queries (Theorem 4.7) — module [`transfer`],
//! * parallel-correctness for **Q-generous / Q-scattered families** and in
//!   particular the Hypercube family (Lemma 5.2, Theorem 5.3, Lemma 5.7,
//!   Corollary 5.8) — module [`family`].
//!
//! All deciders return *reports* carrying witnesses or counterexamples, so
//! the examples and benches can show not only "yes/no" but also why.
//!
//! ## Example: the query and policy of Example 3.5
//!
//! ```
//! use cq::{ConjunctiveQuery, Fact, Instance};
//! use distribution::{ExplicitPolicy, Network, Node};
//! use pc_core::{check_parallel_correctness, conditions};
//!
//! let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(x, x).").unwrap();
//!
//! // Facts over {a, b}; every fact except R(a,b) goes to node 1, every fact
//! // except R(b,a) goes to node 2.
//! let r_ab = Fact::from_names("R", &["a", "b"]);
//! let r_ba = Fact::from_names("R", &["b", "a"]);
//! let mut universe = Instance::new();
//! for x in ["a", "b"] {
//!     for y in ["a", "b"] {
//!         universe.insert(Fact::from_names("R", &[x, y]));
//!     }
//! }
//! let mut policy = ExplicitPolicy::new(Network::with_size(2));
//! for fact in universe.facts() {
//!     let mut nodes = vec![];
//!     if *fact != r_ab { nodes.push(Node::numbered(0)); }
//!     if *fact != r_ba { nodes.push(Node::numbered(1)); }
//!     policy.assign(fact.clone(), nodes);
//! }
//!
//! // Condition (C0) fails (R(a,b) and R(b,a) never meet) …
//! assert!(!conditions::holds_c0(&q, &policy, &universe));
//! // … yet the query is parallel-correct under the policy (Lemma 3.4 / (C1)).
//! assert!(check_parallel_correctness(&q, &policy).is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditions;
pub mod family;
pub mod minimality;
pub mod pc;
#[cfg(test)]
mod reference;
pub mod transfer;

pub use conditions::{holds_c0, holds_c1, holds_c2, holds_c3, C1Violation, C3Witness};
pub use family::{
    hypercube_parallel_correct, validate_hypercube_family, FamilyReport, FamilyValidation,
};
pub use minimality::{
    is_minimal_valuation, is_strongly_minimal, minimal_valuations_over, satisfies_lemma_4_8,
    strong_minimality_witness, MinimalityOracle, MinimalityStats, StrongMinimalityReport,
};
pub use pc::{
    check_parallel_correctness, check_parallel_correctness_bounded,
    check_parallel_correctness_naive, check_parallel_correctness_naive_incremental,
    check_parallel_correctness_on_instance, multi_round_correct_on, IncrementalPcReport,
    IncrementalPcStats, MultiRoundInstanceReport, PcInstanceReport, PcReport, PcViolation,
};
pub use transfer::{
    check_transfer, check_transfer_no_skip, check_transfer_strongly_minimal, TransferCache,
    TransferReport, TransferViolation,
};
