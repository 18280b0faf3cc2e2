//! The node-side state of a semi-naive distributed round.

use cq::{ConjunctiveQuery, EvalOptions, Instance};

use crate::instance::DeltaInstance;

/// One simulated node's persistent state across the rounds of an
/// incremental (delta-shipping) run: the accumulated local data and the
/// set of output facts the node has already shipped.
///
/// Every transport — in-memory pool worker or `pcq-analyze worker`
/// subprocess — drives its incremental rounds through
/// [`DeltaNode::step`], so the two paths share one definition of what a
/// semi-naive round *is*:
///
/// 1. absorb the round's incoming delta chunk into the local data,
/// 2. derive the facts reachable through at least one new local fact
///    (the semi-naive differential step),
/// 3. ship back only the derivations this node has never produced before
///    (the *output* delta): what absorbing them into the shipped set adds.
///
/// Both growth steps are merges (`cq::Instance::absorb`), each traced as
/// an `absorb` span with args `facts` (the run) and `new` (what it added),
/// next to the step's `seminaive_step` span.
#[derive(Clone, Debug, Default)]
pub struct DeltaNode {
    data: DeltaInstance,
    derived: Instance,
}

impl DeltaNode {
    /// A fresh node with no data and no shipped outputs.
    pub fn new() -> DeltaNode {
        DeltaNode::default()
    }

    /// Runs one incremental round under the default [`EvalOptions`]: see
    /// the type docs for the three phases. Returns the node's output delta.
    pub fn step(&mut self, query: &ConjunctiveQuery, delta_chunk: &Instance) -> Instance {
        self.step_with(query, delta_chunk, EvalOptions::default())
    }

    /// [`DeltaNode::step`] under explicit [`EvalOptions`].
    pub fn step_with(
        &mut self,
        query: &ConjunctiveQuery,
        delta_chunk: &Instance,
        opts: EvalOptions,
    ) -> Instance {
        let mut span = obs::span!("absorb", facts = delta_chunk.len());
        let added = self.data.absorb(delta_chunk);
        span.arg("new", added);
        drop(span);
        let new = self.data.evaluate_new_with(query, opts);
        self.data.take_delta();
        let mut span = obs::span!("absorb", facts = new.len());
        let shipped = self.derived.absorb(&new);
        span.arg("new", shipped.len());
        shipped
    }

    /// The node's accumulated local data.
    pub fn data(&self) -> &DeltaInstance {
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
        assert_eq!(node.data().full(), &all);
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
