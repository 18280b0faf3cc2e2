//! The node-side state of a semi-naive distributed round.
//!
//! A semi-naive run grows its state by `cq::Instance::absorb`, which merges
//! a run into the instance (and into its sorted column orders, so the index
//! work of one round is reused by every later one) and returns the facts
//! that were new: that return value *is* the round's delta. The coordinator
//! carries one plain `Instance`; a node carries a [`DeltaNode`], inside the
//! [`NodeState`](crate::NodeState) its [`Shipment::Delta`](crate::Shipment)
//! rounds build.

use cq::{evaluate_seminaive_step, ConjunctiveQuery, Instance};

/// One simulated node's persistent state across the rounds of an
/// incremental (delta-shipping) run: the accumulated local data and the
/// set of output facts the node has already shipped.
///
/// Every transport — in-memory pool worker or `pcq-analyze worker`
/// subprocess — drives its incremental rounds through
/// [`DeltaNode::step`] (from [`NodeState::apply`](crate::NodeState::apply)),
/// so the two paths share one definition of what a semi-naive round *is*:
///
/// 1. absorb the round's incoming delta chunk into the local data; what
///    the absorb adds is the round's local delta,
/// 2. derive the facts reachable through at least one fact of that delta
///    (the semi-naive differential step),
/// 3. ship back only the derivations this node has never produced before
///    (the *output* delta): what absorbing them into the shipped set adds.
///
/// Both growth steps are merges (`cq::Instance::absorb`), each traced as
/// an `absorb` span with args `facts` (the run) and `new` (what it added),
/// next to the step's `seminaive_step` span.
///
/// ```
/// use cq::{ConjunctiveQuery, parse_instance};
/// use distribution::DeltaNode;
///
/// let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
/// let mut node = DeltaNode::new();
///
/// // Round 1: everything is new, the differential step is a full evaluation.
/// let first = node.step(&q, &parse_instance("R(a, b).").unwrap());
/// assert!(first.is_empty());
///
/// // Round 2: one new edge; only derivations touching it are recomputed.
/// let second = node.step(&q, &parse_instance("R(b, c).").unwrap());
/// assert_eq!(second, parse_instance("T(a, c).").unwrap());
/// assert_eq!(node.data().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DeltaNode {
    data: Instance,
    derived: Instance,
}

/// Runs `absorb`, which merges `facts` facts into `into` and returns the
/// new ones, under an `absorb` span (args `facts`, `new`, and `orders`: the
/// sorted orders of `into` the new rows were merged into): a node's state
/// and the centralized reference fixpoint grow alike.
pub(crate) fn absorbed(
    into: &mut Instance,
    facts: usize,
    absorb: impl FnOnce(&mut Instance) -> Instance,
) -> Instance {
    let mut span = obs::span!("absorb", facts = facts);
    let new = absorb(into);
    span.arg("new", new.len());
    if obs::enabled() {
        let orders = new
            .relations()
            .map(|relation| into.cached_orders_of(relation));
        span.arg("orders", orders.sum::<usize>());
    }
    new
}

impl DeltaNode {
    /// A fresh node with no data and no shipped outputs.
    pub fn new() -> DeltaNode {
        DeltaNode::default()
    }

    /// Runs one incremental round: see the type docs for the three
    /// phases. Returns the node's output delta.
    pub fn step(&mut self, query: &ConjunctiveQuery, delta_chunk: &Instance) -> Instance {
        let fresh = absorbed(&mut self.data, delta_chunk.len(), |data| {
            data.absorb(delta_chunk)
        });
        let new = evaluate_seminaive_step(query, &self.data, &fresh);
        absorbed(&mut self.derived, new.len(), |derived| derived.absorb(&new))
    }

    /// The node's accumulated local data.
    pub fn data(&self) -> &Instance {
        &self.data
    }

    /// Every output fact the node has shipped so far.
    pub fn derived(&self) -> &Instance {
        &self.derived
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{evaluate, parse_instance};

    fn square() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
    }

    #[test]
    fn cumulative_steps_equal_full_local_evaluation() {
        let q = square();
        let chunks = [
            parse_instance("R(a, b). R(b, c).").unwrap(),
            parse_instance("R(c, d).").unwrap(),
            parse_instance("R(d, e). R(a, b).").unwrap(), // one re-announcement
        ];
        let mut node = DeltaNode::new();
        let mut shipped = Instance::new();
        let mut all = Instance::new();
        for chunk in &chunks {
            shipped.extend(node.step(&q, chunk).facts().cloned());
            all.extend(chunk.facts().cloned());
            assert_eq!(shipped, evaluate(&q, &all), "cumulative outputs diverged");
            assert_eq!(node.derived(), &shipped);
        }
        assert_eq!(node.data(), &all);
    }

    #[test]
    fn rederived_facts_are_never_shipped_twice() {
        // The second chunk adds a new path to an already-derived pair:
        // T(a, c) is re-derived through b' but must not ship again.
        let q = square();
        let mut node = DeltaNode::new();
        let first = node.step(&q, &parse_instance("R(a, b). R(b, c).").unwrap());
        assert_eq!(first, parse_instance("T(a, c).").unwrap());
        let second = node.step(&q, &parse_instance("R(a, b2). R(b2, c).").unwrap());
        assert!(
            second.is_empty(),
            "re-derivation of a shipped fact leaked: {second}"
        );
    }

    #[test]
    fn empty_chunks_are_free() {
        let q = square();
        let mut node = DeltaNode::new();
        let _ = node.step(&q, &parse_instance("R(a, b). R(b, c).").unwrap());
        let out = node.step(&q, &Instance::new());
        assert!(out.is_empty());
        assert_eq!(node.data().len(), 2);
    }
}
