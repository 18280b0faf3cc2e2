//! # cq — conjunctive queries over relational instances
//!
//! This crate is the self-contained substrate for the reproduction of
//! *"Parallel-Correctness and Transferability for Conjunctive Queries"*
//! (Ameloot, Geck, Ketsman, Neven, Schwentick, PODS 2015). It provides the
//! data model of Section 2 of the paper:
//!
//! * interned [`Symbol`]s, data [`Value`]s and [`Variable`]s,
//! * database [`Schema`]s, [`Atom`]s, [`Fact`]s (over inline [`Tuple`]s) and
//!   [`Instance`]s,
//! * [`ConjunctiveQuery`] with the paper's safety conditions,
//! * [`Valuation`]s, satisfaction and query evaluation ([`evaluate`]),
//! * [`Substitution`]s, *simplifications* and *foldings* (Definition 2.1),
//! * homomorphisms, containment, equivalence and core computation
//!   (Chandra–Merlin minimization),
//! * hypergraph acyclicity via the GYO reduction,
//! * canonical (isomorphism-reduced) valuation enumeration used by the
//!   decision procedures of the `pc-core` crate.
//!
//! The crate has no opinion about distribution policies or
//! parallel-correctness; those live in the `distribution` and `pc-core`
//! crates.
//!
//! ## Example
//!
//! ```
//! use cq::{ConjunctiveQuery, Instance, evaluate};
//!
//! let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
//! let i: Instance = cq::parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
//! let result = evaluate(&q, &i);
//! assert_eq!(result.len(), 2); // T(a,c), T(b,d)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acyclic;
mod atom;
mod canonical;
mod eval;
mod fact;
mod hom;
mod instance;
mod intern;
mod minimize;
mod parser;
mod query;
mod schema;
mod substitution;
mod valuation;
mod value;

pub use acyclic::{is_acyclic, Hypergraph};
pub use atom::{Atom, Variable};
pub use canonical::{all_assignments, partition_assignments, CanonicalValuations};
pub use eval::{
    evaluate, evaluate_seminaive_step, evaluate_with, for_each_satisfying, satisfying_valuations,
    Bindings, CompiledQuery, EvalOptions, Slots,
};
pub use fact::{Fact, Tuple};
pub use hom::{
    c3_witness, contained_in, equivalent, find_cover, find_homomorphism, for_each_atom_mapping,
    C3Witness,
};
pub use instance::Instance;
pub use intern::{Symbol, SymbolHashBuilder, SymbolHasher, SymbolMap};
pub use minimize::{is_minimal, minimize, Minimization};
pub use parser::{parse_fact, parse_instance, parse_query, ParseError};
pub use query::{ConjunctiveQuery, QueryError};
pub use schema::{RelationSchema, Schema};
pub use substitution::Substitution;
pub use valuation::Valuation;
pub use value::Value;
