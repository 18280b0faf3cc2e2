//! # workloads — query families, random queries, instances and policies
//!
//! Generators for the workloads used by the examples, the integration tests
//! and the benchmark harness of the reproduction: the named query families
//! that the paper's examples revolve around (paths, triangles, the query of
//! Example 3.5), random conjunctive queries with tunable shape, random and
//! skewed database instances and random explicit distribution policies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instances;
pub mod policies;
pub mod queries;

pub use instances::{
    complete_binary_relation, named_instance, random_instance, zipf_instance, InstanceParams,
};
pub use policies::{random_explicit_policy, PolicyParams};
pub use queries::{
    chain_query, chordal4_query, clique4_query, cycle_query, example_3_5_query, named_query,
    named_query_sequence, query_sequence_names, random_query, star_query, triangle_query,
    QueryParams,
};
