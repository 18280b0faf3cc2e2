//! The delta-tracking instance: full state plus the facts new since the
//! last round.

use cq::{evaluate_seminaive_step_with, ConjunctiveQuery, EvalOptions, Instance};

/// An instance that makes *change* observable: next to the full fact set it
/// keeps the set of facts added since the last [`DeltaInstance::take_delta`]
/// — the per-round delta of an iterated evaluation.
///
/// Two properties make it the storage layer of semi-naive rounds:
///
/// * **Absorption is differential** — [`DeltaInstance::absorb`] merges a
///   run into the full instance and records only the genuinely new facts in
///   the delta; re-announced facts are ignored, so the delta is exactly
///   `full_after \ full_before` accumulated since the last round boundary.
/// * **Indexes stay warm** — the full instance only ever grows, by
///   `cq::Instance::absorb`, which merges the new rows into its sorted
///   column orders on the spot: the index work of round `r` is reused by
///   every later round instead of being rebuilt from scratch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaInstance {
    full: Instance,
    delta: Instance,
}

impl DeltaInstance {
    /// An empty delta instance.
    pub fn new() -> DeltaInstance {
        DeltaInstance::default()
    }

    /// Starts from `instance`, with **every** initial fact counting as new:
    /// the first round of an iterated evaluation sees the whole input as
    /// its delta, which is what makes round one of a semi-naive run equal a
    /// full evaluation.
    pub fn from_initial(instance: Instance) -> DeltaInstance {
        DeltaInstance {
            delta: instance.clone(),
            full: instance,
        }
    }

    /// The full accumulated instance.
    pub fn full(&self) -> &Instance {
        &self.full
    }

    /// The facts added since the last [`DeltaInstance::take_delta`].
    pub fn delta(&self) -> &Instance {
        &self.delta
    }

    /// Merges `run` into the full instance; only the genuinely new facts
    /// enter the delta. A re-announced fact costs its step of one merge walk
    /// and no copy. Returns how many facts were new.
    pub fn absorb(&mut self, run: &Instance) -> usize {
        let new = self.full.absorb(run);
        let added = new.len();
        if self.delta.is_empty() {
            self.delta = new;
        } else {
            self.delta.absorb(&new);
        }
        added
    }

    /// Closes the current round: returns the accumulated delta and resets
    /// it to empty (the facts stay in the full instance).
    pub fn take_delta(&mut self) -> Instance {
        std::mem::take(&mut self.delta)
    }

    /// Whether nothing new has been absorbed since the last round boundary
    /// — the fixpoint test of an iterated run.
    pub fn is_quiescent(&self) -> bool {
        self.delta.is_empty()
    }

    /// Number of facts in the full instance.
    pub fn len(&self) -> usize {
        self.full.len()
    }

    /// Whether the full instance is empty.
    pub fn is_empty(&self) -> bool {
        self.full.is_empty()
    }

    /// One semi-naive differential step over the current (full, delta)
    /// pair: the facts `query` derives through at least one valuation using
    /// a delta fact. See `cq::evaluate_seminaive_step` for the contract.
    pub fn evaluate_new(&self, query: &ConjunctiveQuery) -> Instance {
        self.evaluate_new_with(query, EvalOptions::default())
    }

    /// [`DeltaInstance::evaluate_new`] under explicit [`EvalOptions`].
    pub fn evaluate_new_with(&self, query: &ConjunctiveQuery, opts: EvalOptions) -> Instance {
        evaluate_seminaive_step_with(query, &self.full, &self.delta, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{evaluate, parse_instance, Fact};

    fn square() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
    }

    #[test]
    fn initial_facts_all_count_as_delta() {
        let i = parse_instance("R(a, b). R(b, c).").unwrap();
        let acc = DeltaInstance::from_initial(i.clone());
        assert_eq!(acc.full(), &i);
        assert_eq!(acc.delta(), &i);
        assert!(!acc.is_quiescent());
        assert_eq!(acc.evaluate_new(&square()), evaluate(&square(), &i));
    }

    #[test]
    fn absorb_records_only_genuinely_new_facts() {
        let mut acc = DeltaInstance::from_initial(parse_instance("R(a, b).").unwrap());
        acc.take_delta();
        assert!(acc.is_quiescent());
        let run = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]), // already known
            Fact::from_names("R", &["b", "c"]), // new
            Fact::from_names("R", &["b", "c"]), // duplicate within the batch
        ]);
        assert_eq!(acc.absorb(&run), 1);
        assert_eq!(acc.delta(), &parse_instance("R(b, c).").unwrap());
        assert_eq!(acc.full().len(), 2);
    }

    #[test]
    fn take_delta_resets_the_delta_but_keeps_the_facts() {
        let mut acc = DeltaInstance::from_initial(parse_instance("R(a, b).").unwrap());
        let taken = acc.take_delta();
        assert_eq!(taken, parse_instance("R(a, b).").unwrap());
        assert!(acc.is_quiescent());
        assert_eq!(acc.len(), 1);
        assert!(!acc.is_empty());
    }

    #[test]
    fn round_by_round_equals_full_reevaluation() {
        // Drive a transitive-closure iteration by hand: at every round the
        // cumulative semi-naive output must equal evaluating the full
        // instance from scratch.
        let q = square();
        let mut acc =
            DeltaInstance::from_initial(parse_instance("R(a, b). R(b, c). R(c, d).").unwrap());
        let mut cumulative = Instance::new();
        for _ in 0..6 {
            let new = acc.evaluate_new(&q);
            acc.take_delta();
            cumulative.extend(new.facts().cloned());
            assert_eq!(cumulative, evaluate(&q, acc.full()));
            let feedback = new.facts().map(|f| Fact::new("R", f.values.clone()));
            if acc.absorb(&feedback.collect()) == 0 {
                break;
            }
        }
        assert!(acc.is_quiescent());
        // an 3-edge chain closes to all pairs at distance >= 2
        assert!(acc.full().contains(&Fact::from_names("R", &["a", "d"])));
    }

    #[test]
    fn growth_keeps_the_full_instances_indexes_warm() {
        let q = square();
        let mut acc = DeltaInstance::from_initial(parse_instance("R(a, b). R(b, c).").unwrap());
        let _ = acc.evaluate_new(&q); // builds the sorted orders
        acc.take_delta();
        let built = acc.full().cached_orders();
        assert!(built > 0);
        acc.absorb(&parse_instance("R(c, d).").unwrap());
        assert_eq!(
            acc.full().cached_orders(),
            built,
            "absorb must merge into the orders, not drop them"
        );
        let new = acc.evaluate_new(&q);
        assert!(new.contains(&Fact::from_names("T", &["b", "d"])));
        assert_eq!(acc.full().cached_orders(), built, "caught up, not rebuilt");
    }
}
