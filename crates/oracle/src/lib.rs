//! # oracle — the Definition-level references the production paths are
//! checked against
//!
//! Every module here but [`cases`] is the brute-force counterpart of the
//! production module of the same name, and nothing here runs in
//! `pcq-analyze`: the crate is only ever a dev-dependency.
//!
//! * [`cases`] — the random queries and instances, as text, that `cq`'s
//!   kernel test and the scan differential both walk;
//! * [`eval`] — the scan evaluator: an atom-at-a-time backtracking join
//!   that shares no search code with `cq`'s leapfrog triejoin, with the
//!   evaluate, semi-naive-step and satisfying-valuation entry points, and
//!   [`Evaluator`] to run one assertion over both;
//! * [`instance`] — every subinstance of an instance;
//! * [`pc`] — parallel-correctness by Definition 3.1 on every subinstance
//!   of `facts(P)`, the check Lemma 3.4's (C1) decider must agree with;
//! * [`rounds`] — the iterated query's global fixpoint by re-evaluating the
//!   whole state every round, which the semi-naive
//!   `MultiRoundEngine::reference_fixpoint` must equal;
//! * [`transfer`] — the separating policy of Lemma 4.2's proof, which every
//!   transfer violation must witness.
//!
//! ## Example
//!
//! ```
//! use cq::{parse_instance, ConjunctiveQuery, Valuation};
//! use oracle::Evaluator;
//!
//! let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
//! let i = parse_instance("R(a, b). R(b, c). R(c, a).").unwrap();
//! let [triejoin, scan] = Evaluator::BOTH.map(|e| e.evaluate(&q, &i));
//! assert_eq!(triejoin, scan);
//! assert_eq!(oracle::satisfying_valuations(&q, &i, &Valuation::new()).len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod eval;
pub mod instance;
pub mod pc;
pub mod rounds;
pub mod transfer;

pub use eval::{
    evaluate, evaluate_seminaive_step, for_each_satisfying, satisfying_valuations, search,
    Evaluator,
};
pub use instance::subsets;
pub use pc::check_parallel_correctness_naive;
pub use rounds::naive_fixpoint;
pub use transfer::violation_separates;
