//! The scan evaluator: the reference `cq`'s triejoin is checked against.
//!
//! [`search`] is the seed evaluator's atom-at-a-time backtracking join, in
//! which every atom scans its whole relation, smallest estimated candidate
//! set first. It reads the rows themselves and builds no sorted order, so it
//! shares nothing with the triejoin but the compiled query and the bindings.
//! Both enumerate exactly the same valuations; only the order and shape of
//! the search differ. A fact only ever matches an atom of its own arity, so
//! ill-formed (mixed-arity) relations evaluate the same under both.
//!
//! [`Evaluator`] names the two side by side, so that one differential test
//! runs the same assertions over both.

use std::ops::ControlFlow;

use cq::{Bindings, CompiledQuery, ConjunctiveQuery, Fact, Instance, Slots, Valuation, Value};

/// The scan join. `scans[a]` is where body atom `a` draws its candidate
/// facts from: the same instance for every atom, or, in a differential
/// pass, the delta for the pivot atom and the full instance for the rest.
struct BinaryJoin<'a, L> {
    query: &'a CompiledQuery<'a>,
    scans: Vec<&'a [Fact]>,
    /// The atom processing order.
    order: Vec<usize>,
    bindings: Bindings,
    leaf: L,
}

impl<'a, L> BinaryJoin<'a, L>
where
    L: FnMut(&Slots) -> ControlFlow<()>,
{
    /// A planned join over `scans` starting from the pre-bound `slots`.
    ///
    /// With a `pivot`, that atom is forced to the front and its slots count
    /// as bound for the rest — the plan shape of a semi-naive differential
    /// pass: the pivot matches the (small) delta first, everything else
    /// joins against the full instance. The other atoms follow greedily,
    /// the one with the smallest estimated candidate set next (ties
    /// resolved in source order, so plans are deterministic and degrade to
    /// source order when the model cannot tell atoms apart).
    fn new(
        query: &'a CompiledQuery<'a>,
        scans: Vec<&'a [Fact]>,
        slots: Vec<Option<Value>>,
        pivot: Option<usize>,
        leaf: L,
    ) -> Self {
        let mut order: Vec<usize> = pivot.into_iter().collect();
        let mut remaining: Vec<usize> = (0..query.atom_count())
            .filter(|&atom| Some(atom) != pivot)
            .collect();
        let mut bound: Vec<bool> = slots.iter().map(Option::is_some).collect();
        for &slot in pivot.map_or(&[][..], |atom| query.atom(atom)) {
            bound[slot] = true;
        }
        while !remaining.is_empty() {
            // The relation size, of which each bound argument keeps about
            // a quarter: an estimate that reads no index.
            let estimate = |&atom: &usize| {
                let bound_args = query.atom(atom).iter().filter(|&&slot| bound[slot]);
                scans[atom].len() as f64 / 4f64.powi(bound_args.count() as i32)
            };
            let costs = remaining.iter().map(estimate).enumerate();
            let cheapest = costs.fold((0, f64::INFINITY), |best, (pos, cost)| {
                if cost < best.1 {
                    (pos, cost)
                } else {
                    best
                }
            });
            let best = remaining.remove(cheapest.0);
            order.push(best);
            for &slot in query.atom(best) {
                bound[slot] = true;
            }
        }
        BinaryJoin {
            query,
            scans,
            order,
            bindings: Bindings::new(slots),
            leaf,
        }
    }

    fn search(&mut self, depth: usize) -> ControlFlow<()> {
        if depth == self.order.len() {
            return (self.leaf)(self.bindings.slots());
        }
        let query = self.query;
        let atom = self.order[depth];
        for fact in self.scans[atom] {
            let mark = self.bindings.mark();
            if self.bindings.unify(query.atom(atom), fact) {
                let flow = self.search(depth + 1);
                self.bindings.undo(mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// The scan join's plan for one search: which instance each atom scans,
/// and the pre-bound slots.
fn plan<'a, L>(
    query: &'a CompiledQuery<'a>,
    full: &'a Instance,
    pivot: Option<(usize, &'a Instance)>,
    fixed: &Valuation,
    leaf: L,
) -> BinaryJoin<'a, L>
where
    L: FnMut(&Slots) -> ControlFlow<()>,
{
    let source = |atom: usize| match pivot {
        Some((pivoted, delta)) if pivoted == atom => delta,
        _ => full,
    };
    let body = query.query().body().iter().enumerate();
    let scans = body.map(|(atom, body_atom)| source(atom).facts_of(body_atom.relation));
    let scans = scans.collect();
    BinaryJoin::new(
        query,
        scans,
        query.bind(fixed),
        pivot.map(|(atom, _)| atom),
        leaf,
    )
}

/// Calls `leaf` with the slot array of every assignment extending `fixed`
/// under which every body atom of `query` matches a fact of `full` — or, for
/// the atom `pivot` names, a fact of the instance next to it: one
/// differential pass of a semi-naive step.
pub fn search<L>(
    query: &CompiledQuery<'_>,
    full: &Instance,
    pivot: Option<(usize, &Instance)>,
    fixed: &Valuation,
    leaf: L,
) -> ControlFlow<()>
where
    L: FnMut(&Slots) -> ControlFlow<()>,
{
    plan(query, full, pivot, fixed, leaf).search(0)
}

/// Calls `callback` with every satisfying valuation of `query` on
/// `instance` that extends `fixed`; `Break(())` when it stopped early.
pub fn for_each_satisfying<F>(
    query: &ConjunctiveQuery,
    instance: &Instance,
    fixed: &Valuation,
    mut callback: F,
) -> ControlFlow<()>
where
    F: FnMut(&Valuation) -> ControlFlow<()>,
{
    let compiled = CompiledQuery::new(query);
    search(&compiled, instance, None, fixed, |slots| {
        callback(&compiled.valuation(slots))
    })
}

/// All satisfying valuations of `query` on `instance` extending `fixed`.
pub fn satisfying_valuations(
    query: &ConjunctiveQuery,
    instance: &Instance,
    fixed: &Valuation,
) -> Vec<Valuation> {
    Evaluator::Scan.satisfying_valuations(query, instance, fixed)
}

/// The head facts of the leaves of the searches `passes` lists, as one
/// instance.
fn answers<'a>(
    query: &ConjunctiveQuery,
    full: &'a Instance,
    passes: impl IntoIterator<Item = Option<(usize, &'a Instance)>>,
) -> Instance {
    let compiled = CompiledQuery::new(query);
    let mut facts = Vec::new();
    for pivot in passes {
        let _ = search(&compiled, full, pivot, &Valuation::new(), |slots| {
            let head = compiled.head().iter().map(|&slot| slots[slot].unwrap());
            facts.push(Fact::new(query.head().relation, head.collect::<Vec<_>>()));
            ControlFlow::Continue(())
        });
    }
    Instance::from_facts(facts)
}

/// `Q(I)`: the head facts of every satisfying valuation.
pub fn evaluate(query: &ConjunctiveQuery, instance: &Instance) -> Instance {
    answers(query, instance, [None])
}

/// One semi-naive differential step: the facts `query` derives on `full`
/// through at least one valuation that uses a `delta` fact, found by one
/// pass per body atom whose relation has delta facts.
pub fn evaluate_seminaive_step(
    query: &ConjunctiveQuery,
    full: &Instance,
    delta: &Instance,
) -> Instance {
    let body = query.body().iter().enumerate();
    let pivots = body.filter(|(_, atom)| !delta.facts_of(atom.relation).is_empty());
    answers(query, full, pivots.map(|(pivot, _)| Some((pivot, delta))))
}

/// The two evaluators a differential test runs side by side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluator {
    /// The production kernel: `cq`'s leapfrog triejoin.
    Triejoin,
    /// The scan join of this module.
    Scan,
}

impl Evaluator {
    /// Both evaluators, the triejoin first.
    pub const BOTH: [Evaluator; 2] = [Evaluator::Triejoin, Evaluator::Scan];

    /// [`search`] through this evaluator; the triejoin's leaves come in its
    /// contractual order.
    pub fn search<L>(
        self,
        query: &CompiledQuery<'_>,
        full: &Instance,
        pivot: Option<(usize, &Instance)>,
        fixed: &Valuation,
        leaf: L,
    ) -> ControlFlow<()>
    where
        L: FnMut(&Slots) -> ControlFlow<()>,
    {
        match (self, pivot) {
            (Evaluator::Scan, _) => search(query, full, pivot, fixed, leaf),
            (Evaluator::Triejoin, None) => query.for_each_satisfying(full, fixed, leaf),
            (Evaluator::Triejoin, Some((atom, delta))) => {
                assert!(fixed.is_empty(), "a differential pass starts unbound");
                query.for_each_in_pass(full, atom, delta, leaf)
            }
        }
    }

    /// [`for_each_satisfying`] through this evaluator.
    pub fn for_each_satisfying<F>(
        self,
        query: &ConjunctiveQuery,
        instance: &Instance,
        fixed: &Valuation,
        callback: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&Valuation) -> ControlFlow<()>,
    {
        match self {
            Evaluator::Triejoin => cq::for_each_satisfying(query, instance, fixed, callback),
            Evaluator::Scan => for_each_satisfying(query, instance, fixed, callback),
        }
    }

    /// [`satisfying_valuations`] through this evaluator.
    pub fn satisfying_valuations(
        self,
        query: &ConjunctiveQuery,
        instance: &Instance,
        fixed: &Valuation,
    ) -> Vec<Valuation> {
        let mut out = Vec::new();
        let _ = self.for_each_satisfying(query, instance, fixed, |valuation| {
            out.push(valuation.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// [`evaluate`] through this evaluator.
    pub fn evaluate(self, query: &ConjunctiveQuery, instance: &Instance) -> Instance {
        match self {
            Evaluator::Triejoin => cq::evaluate(query, instance),
            Evaluator::Scan => evaluate(query, instance),
        }
    }

    /// [`evaluate_seminaive_step`] through this evaluator.
    pub fn evaluate_seminaive_step(
        self,
        query: &ConjunctiveQuery,
        full: &Instance,
        delta: &Instance,
    ) -> Instance {
        match self {
            Evaluator::Triejoin => cq::evaluate_seminaive_step(query, full, delta),
            Evaluator::Scan => evaluate_seminaive_step(query, full, delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{self, Random, CYCLIC_SHAPES, NARROW_HEADS};
    use cq::{parse_instance, Symbol, Variable};
    use std::collections::BTreeSet;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// The scan join's atom processing order, optionally with a forced
    /// first atom (the plan of a semi-naive pass pivoted there).
    fn atom_order(
        query: &ConjunctiveQuery,
        instance: &Instance,
        fixed: &Valuation,
        pivot: Option<usize>,
    ) -> Vec<usize> {
        let compiled = CompiledQuery::new(query);
        let pivot = pivot.map(|atom| (atom, instance));
        let leaf = |_: &Slots| ControlFlow::Continue(());
        plan(&compiled, instance, pivot, fixed, leaf).order
    }

    /// The leaves of one search — a full one, or the differential pass
    /// pivoted on an atom of `pivot`'s instance — in the order they come.
    fn leaves(
        query: &ConjunctiveQuery,
        full: &Instance,
        pivot: Option<(usize, &Instance)>,
        fixed: &Valuation,
        evaluator: Evaluator,
    ) -> Vec<Vec<Value>> {
        let compiled = CompiledQuery::new(query);
        let mut leaves = Vec::new();
        let _ = evaluator.search(&compiled, full, pivot, fixed, |slots| {
            leaves.push(slots.iter().map(|value| value.unwrap()).collect());
            ControlFlow::Continue(())
        });
        leaves
    }

    #[test]
    fn both_evaluators_respect_fixed_bindings() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let i = parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
        let fixed = Valuation::from_names([("x", "a")]);
        for evaluator in Evaluator::BOTH {
            let vals = evaluator.satisfying_valuations(&query, &i, &fixed);
            assert_eq!(vals.len(), 1);
            assert_eq!(vals[0].get(Variable::new("z")), Some(Value::new("c")));
        }
    }

    #[test]
    fn all_strategies_enumerate_the_same_valuations() {
        let queries = [
            q("T(x, w) :- R(x, y), S(y, z), R(z, w)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T() :- R(x, y), S(y, x)."),
        ];
        let i = parse_instance(
            "R(a, b). R(b, c). R(c, d). R(d, a). R(a, a). S(b, c). S(c, d). S(d, b). S(a, a).",
        )
        .unwrap();
        for query in &queries {
            let reference: BTreeSet<_> = satisfying_valuations(query, &i, &Valuation::new())
                .into_iter()
                .collect();
            assert!(!reference.is_empty() || query.body_size() > 1);
            for evaluator in Evaluator::BOTH {
                let got: BTreeSet<_> = evaluator
                    .satisfying_valuations(query, &i, &Valuation::new())
                    .into_iter()
                    .collect();
                assert_eq!(got, reference, "{evaluator:?} disagrees with scan/naive");
            }
        }
    }

    #[test]
    fn only_the_scan_oracle_builds_no_sorted_order() {
        // Cyclic or not, a query runs the triejoin — seen by the orders it
        // leaves on the instance — and the scan oracle leaves none,
        // whatever the query, in a full search and in a semi-naive step
        // alike.
        let edges = "E(a, b). E(b, c). E(c, a). E(a, d). E(b, a).";
        for (query, instance) in [
            ("T(x, y, z) :- E(x, y), E(y, z), E(z, x).", edges),
            ("T(x, z) :- E(x, y), E(y, z).", edges),
            (
                "T(x, z) :- R(x, y), S(y, z).",
                "R(a, b). R(b, c). S(b, c). S(c, d). S(c, a).",
            ),
        ] {
            let (query, i) = (q(query), parse_instance(instance).unwrap());
            let mut scanned = leaves(&query, &i, None, &Valuation::new(), Evaluator::Scan);
            let step = evaluate_seminaive_step(&query, &i, &i);
            assert_eq!(step, cq::evaluate(&query, &i.clone()), "{query}");
            assert_eq!(i.cached_orders(), 0, "{query}: the oracle builds no order");
            let mut walked = leaves(&query, &i, None, &Valuation::new(), Evaluator::Triejoin);
            assert_eq!(i.cached_orders(), 2, "{query}: the triejoin walks orders");
            assert!(walked.len() >= 3, "{query}");
            walked.sort();
            scanned.sort();
            assert_eq!(walked, scanned, "{query}");
        }
    }

    #[test]
    fn both_evaluators_project_every_valuation_onto_the_head() {
        // Opaque ids sort after every named one, and a packed key must keep
        // them there: heads of arity 0 to 5 — the last too wide to pack —
        // with repeated head variables, over values of both kinds.
        let named = ["a", "b", "c"].map(Value::new);
        let opaque = [3, 1 << 30, (1 << 31) - 1].map(|id| Value::opaque(id).unwrap());
        let values: Vec<Value> = named.into_iter().chain(opaque).collect();
        let r = Symbol::new("R");
        let edges = (0..values.len()).flat_map(|i| [(i, (i + 1) % 6), (i, (i * 5 + 2) % 6)]);
        let edge = |(i, j): (usize, usize)| Fact::new(r, vec![values[i], values[j]]);
        let full = Instance::from_facts(edges.map(edge));
        let opaque_value = |value: &Value| value.symbol().is_opaque();
        let from_opaque = full.facts().filter(|fact| opaque_value(&fact.values[0]));
        let delta: Instance = from_opaque.cloned().collect();
        for text in [
            "T() :- R(x, y), R(y, z).",
            "T(z) :- R(x, y), R(y, z).",
            "T(z, x) :- R(x, y), R(y, z).",
            "T(x, x, z) :- R(x, y), R(y, z).",
            "T(w, z, y, x) :- R(x, y), R(y, z), R(z, w), R(w, v).",
            "T(v, w, z, y, x) :- R(x, y), R(y, z), R(z, w), R(w, v), R(v, u).",
        ] {
            let query = q(text);
            // The head of every valuation on `full` that uses a fact of
            // `used`, one fact at a time: no answer set involved.
            let projected = |used: &Instance| -> Instance {
                let valuations = satisfying_valuations(&query, &full, &Valuation::new());
                let valuations = valuations.into_iter();
                let valuations = valuations.filter(|v| {
                    let required = v.required_facts(&query);
                    !required.intersection(used).is_empty()
                });
                valuations.map(|v| v.derived_fact(&query)).collect()
            };
            let (answers, derived_anew) = (projected(&full), projected(&delta));
            assert!(!derived_anew.is_empty(), "{query}");
            let mixed = answers
                .facts()
                .any(|fact| fact.values.iter().any(opaque_value));
            assert!(mixed || query.head().arity() == 0, "{query}");
            for evaluator in Evaluator::BOTH {
                let evaluated = evaluator.evaluate(&query, &full);
                assert_eq!(evaluated, answers, "{query}: {evaluator:?}");
                let step = evaluator.evaluate_seminaive_step(&query, &full, &delta);
                assert_eq!(step, derived_anew, "{query}: {evaluator:?}");
            }
        }
    }

    #[test]
    fn multiway_agrees_with_binary_on_cyclic_and_acyclic_queries() {
        let queries = [
            q("T(x, y, z) :- E(x, y), E(y, z), E(z, x)."), // cyclic
            q("T(x) :- E(x, y), E(y, z), E(z, w), E(w, x), E(x, z)."), // chordal 4-cycle
            q("T(x, w) :- R(x, y), S(y, z), R(z, w)."),    // acyclic chain
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),    // self-join
            q("T() :- R(x, y), S(y, x)."),                 // boolean
        ];
        let i = parse_instance(
            "R(a, b). R(b, c). R(c, d). R(d, a). R(a, a). S(b, c). S(c, d). S(d, b). S(a, a). \
             E(a, b). E(b, c). E(c, a). E(a, d). E(d, c). E(c, c). E(b, a).",
        )
        .unwrap();
        for query in &queries {
            let reference: BTreeSet<_> = satisfying_valuations(query, &i, &Valuation::new())
                .into_iter()
                .collect();
            for evaluator in Evaluator::BOTH {
                let got: BTreeSet<_> = evaluator
                    .satisfying_valuations(query, &i, &Valuation::new())
                    .into_iter()
                    .collect();
                assert_eq!(
                    got, reference,
                    "{query}: {evaluator:?} disagrees with scan/naive"
                );
            }
        }
    }

    #[test]
    fn cost_aware_order_prefers_selective_atoms() {
        // S is tiny compared to R, so the cost model must start at S.
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let mut text = String::new();
        for i in 0..50 {
            text.push_str(&format!("R(a{i}, b{i}). "));
        }
        text.push_str("S(b0, c0).");
        let i = parse_instance(&text).unwrap();
        let order = atom_order(&query, &i, &Valuation::new(), None);
        assert_eq!(order[0], 1, "the selective S atom must be matched first");
    }

    #[test]
    fn cost_aware_order_ties_break_to_source_order() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let i = parse_instance("R(a, b). R(b, c).").unwrap();
        let order = atom_order(&query, &i, &Valuation::new(), None);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn a_pre_bound_atom_is_scanned_first() {
        // The scan's planner has no index to ask: a known value counts as a
        // bound argument, which is enough to start at R.
        let query = q("T(x, z) :- S(y, z), R(x, y).");
        let names = (0..2000).map(|i| format!("R(a{i}, b{i}). S(b{i}, u{}).", i % 7));
        let i = parse_instance(&names.collect::<String>()).unwrap();
        let fixed = Valuation::from_names([("x", "a1234")]);
        let order = atom_order(&query, &i, &fixed, None);
        assert_eq!(order[0], 1, "the pre-bound R atom must be matched first");
        assert_eq!(leaves(&query, &i, None, &fixed, Evaluator::Scan).len(), 1);
    }

    /// Splits `facts` into (old, delta, full) instances at `split`.
    fn split_instance(text: &str, split: usize) -> (Instance, Instance, Instance) {
        let full = parse_instance(text).unwrap();
        let facts: Vec<_> = full.facts().cloned().collect();
        let old = Instance::from_facts(facts[..split].iter().cloned());
        let delta = Instance::from_facts(facts[split..].iter().cloned());
        (old, delta, full)
    }

    #[test]
    fn both_seminaive_steps_complete_the_old_evaluation() {
        let queries = [
            q("T(x, z) :- R(x, y), R(y, z)."),
            q("T(x, w) :- R(x, y), S(y, z), R(z, w)."),
            q("T() :- R(x, y), S(y, x)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
        ];
        let text =
            "R(a, b). R(b, c). R(c, d). R(d, a). R(a, a). S(b, c). S(c, d). S(d, b). S(a, a).";
        let full_count = parse_instance(text).unwrap().len();
        for query in &queries {
            for split in 0..=full_count {
                let (old, delta, full) = split_instance(text, split);
                for evaluator in Evaluator::BOTH {
                    let step = evaluator.evaluate_seminaive_step(query, &full, &delta);
                    let combined = evaluate(query, &old).union(&step);
                    assert_eq!(
                        combined,
                        evaluate(query, &full),
                        "query {query}, split {split}, {evaluator:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_differential_pass_of_the_triejoin_finds_the_scan_passs_leaves() {
        // The instance of `cq`'s pass-cost test: three relations of 3 000
        // rows each, chained one to one — except for a hub: 50 R-rows end in
        // `bh`, 50 Q-rows start at `ch`. One delta fact per relation, so
        // every pivot has a pass to run.
        let query = q("T(x, w) :- R(x, y), S(y, z), Q(z, w).");
        let mut text: String = (0..3000)
            .map(|i| format!("R(a{i}, b{i}). S(b{i}, c{i}). Q(c{i}, d{i}). "))
            .collect();
        text.extend((0..50).map(|i| format!("R(ha{i}, bh). Q(ch, hd{i}). ")));
        text.push_str("S(bh, ch).");
        let full = parse_instance(&text).unwrap();
        for (delta, matches) in [
            ("R(a5, b5). S(b9, c9). Q(c11, d11).", 1),
            ("R(ha7, bh). S(bh, ch). Q(ch, hd7).", 50 * 50),
        ] {
            let delta = parse_instance(delta).unwrap();
            assert!(full.contains_all(&delta));
            for pivot in 0..3 {
                let pass = Some((pivot, &delta));
                let scanned = leaves(&query, &full, pass, &Valuation::new(), Evaluator::Scan);
                let walked = leaves(&query, &full, pass, &Valuation::new(), Evaluator::Triejoin);
                assert!(walked.len() <= matches && !walked.is_empty());
                assert_eq!(
                    walked.iter().collect::<BTreeSet<_>>(),
                    scanned.iter().collect::<BTreeSet<_>>(),
                    "pivot {pivot}"
                );
            }
        }
    }

    fn instance(text: &str) -> Instance {
        parse_instance(text).unwrap()
    }

    /// The triejoin against the scan on one query over `old ∪ delta`: the
    /// same leaf set in a full search, free and under `fixed`, and in every
    /// differential pass over `delta`; and the step completes the scan's
    /// evaluation of `old`. How many of the searches and of the passes had
    /// a leaf.
    fn agree(
        query: &ConjunctiveQuery,
        old: &Instance,
        delta: &Instance,
        fixed: Valuation,
        context: &str,
    ) -> (usize, usize) {
        let full = old.union(delta);
        let (mut satisfied, mut stepped) = (0, 0);
        for fixed in [Valuation::new(), fixed] {
            let scanned = leaves(query, &full, None, &fixed, Evaluator::Scan);
            let walked = leaves(query, &full, None, &fixed, Evaluator::Triejoin);
            assert_eq!(
                walked.iter().collect::<BTreeSet<_>>(),
                scanned.iter().collect::<BTreeSet<_>>(),
                "{context}: {query} on {full} under {fixed}"
            );
            satisfied += usize::from(!walked.is_empty());
        }
        for pivot in 0..query.body_size() {
            let pass = Some((pivot, delta));
            let scanned = leaves(query, &full, pass, &Valuation::new(), Evaluator::Scan);
            let walked = leaves(query, &full, pass, &Valuation::new(), Evaluator::Triejoin);
            assert_eq!(
                walked.iter().collect::<BTreeSet<_>>(),
                scanned.iter().collect::<BTreeSet<_>>(),
                "{context}: {query}, pivot {pivot}, {delta} into {full}"
            );
            stepped += usize::from(!walked.is_empty());
        }
        let step = cq::evaluate_seminaive_step(query, &full, delta);
        assert_eq!(
            cq::evaluate(query, old).union(&step),
            evaluate(query, &full),
            "{context}: {query}, {delta} into {old}"
        );
        (satisfied, stepped)
    }

    /// A random valuation of some of `query`'s variables over `r0`–`r4`.
    fn random_fixed(random: &mut Random, query: &ConjunctiveQuery) -> Valuation {
        let variables = CompiledQuery::new(query).variables().to_vec();
        let binding = cases::random_binding(random, variables).into_iter();
        binding
            .map(|(var, value)| (var, Value::new(&value)))
            .collect()
    }

    #[test]
    fn triejoin_equals_the_scan_oracle_on_random_queries_and_instances() {
        let mut random = Random(0x5EED_2015);
        let (mut cyclic, mut satisfied, mut stepped) = (0, 0, 0);
        for round in 0..600 {
            let query = q(&cases::random_query(&mut random));
            cyclic += usize::from(!cq::is_acyclic(&query));
            let old = instance(&cases::random_facts(&mut random, 30));
            let delta = instance(&cases::random_facts(&mut random, 8));
            let fixed = random_fixed(&mut random, &query);
            let (searches, passes) = agree(&query, &old, &delta, fixed, &format!("round {round}"));
            satisfied += searches;
            stepped += passes;
        }
        assert!(
            cyclic > 20 && satisfied > 200 && stepped > 200,
            "{cyclic} cyclic queries, {satisfied} searches and {stepped} passes with a leaf"
        );
        for text in CYCLIC_SHAPES {
            let query = q(text);
            for skewed in [false, true] {
                let mut satisfied = 0;
                for round in 0..4 {
                    let old = instance(&cases::binary_facts(&mut random, skewed, 300));
                    let delta = instance(&cases::binary_facts(&mut random, skewed, 20));
                    let fixed = random_fixed(&mut random, &query);
                    let context = format!("skewed {skewed}, round {round}");
                    satisfied += agree(&query, &old, &delta, fixed, &context).0;
                }
                assert!(
                    satisfied > 2,
                    "{query}, skewed {skewed}: {satisfied} searches with a leaf"
                );
            }
        }
    }

    /// `instance` with every value `rK` of [`cases`] replaced by the opaque
    /// value of id `K`: the compact ids a worker holds.
    fn opaque(instance: &Instance) -> Instance {
        let id = |value: &Value| value.as_str()[1..].parse().expect("a value rK");
        Instance::from_facts(instance.facts().map(|fact| {
            let values = fact.values.iter().map(|v| Value::opaque(id(v)).unwrap());
            Fact::new(fact.relation, values.collect::<Vec<_>>())
        }))
    }

    #[test]
    fn narrow_heads_equal_the_scan_oracle_on_named_and_opaque_ids() {
        // Heads of one and two values, collected in the kernel's dense
        // answer set wherever its id range fits, against the scan's
        // projection: whole evaluations and semi-naive steps.
        let mut random = Random(0x0A05_2015);
        for text in NARROW_HEADS {
            let query = q(text);
            for skewed in [false, true] {
                let mut answered = 0;
                for round in 0..4 {
                    let old = instance(&cases::binary_facts(&mut random, skewed, 300));
                    let delta = instance(&cases::binary_facts(&mut random, skewed, 20));
                    for (old, delta) in
                        [(old.clone(), delta.clone()), (opaque(&old), opaque(&delta))]
                    {
                        let full = old.union(&delta);
                        let context = format!("{query}, skewed {skewed}, round {round}");
                        let whole = cq::evaluate(&query, &full);
                        assert_eq!(whole, evaluate(&query, &full), "{context}");
                        assert_eq!(
                            cq::evaluate_seminaive_step(&query, &full, &delta),
                            evaluate_seminaive_step(&query, &full, &delta),
                            "{context}"
                        );
                        answered += usize::from(!whole.is_empty());
                    }
                }
                assert_eq!(answered, 8, "{query}, skewed {skewed}");
            }
        }
    }

    #[test]
    fn forced_first_atom_order_is_a_permutation() {
        let query = q("T(x, w) :- R(x, y), S(y, z), R(z, w).");
        let i = parse_instance("R(a, b). S(b, c). R(c, d).").unwrap();
        for first in 0..query.body_size() {
            let order = atom_order(&query, &i, &Valuation::new(), Some(first));
            assert_eq!(order[0], first);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "{order:?} is not a permutation");
        }
    }
}
