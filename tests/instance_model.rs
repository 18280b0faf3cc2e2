//! `Instance` against a `BTreeSet<Fact>` model: whatever sequence of bulk
//! builds, in-order and out-of-order inserts, absorbed runs, extends and
//! removes produced an instance, everything observable depends on its fact
//! set alone — and the sorted orders the join kernel walks, carried forward
//! while it grows and dropped when rows move, hold what a fresh build would
//! sort.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

use oracle::Evaluator;
use pcq::cq::CompiledQuery;
use pcq::prelude::*;
use proptest::prelude::*;

const RELATIONS: usize = 3;
const VALUES: usize = 4;
/// Arity 7 spills out of the inline tuple; the others stay inline.
const ARITIES: [usize; 5] = [0, 1, 2, 3, 7];

fn relation(index: usize) -> Symbol {
    Symbol::new(&format!("M{index}"))
}

fn value(index: usize) -> Value {
    Value::indexed("m", index)
}

/// One fact of the pool: mixed arities inside every relation on purpose.
fn fact((rel, arity, seed): (usize, usize, usize)) -> Fact {
    let values = (0..ARITIES[arity]).map(|i| value((seed >> (2 * (i % 3))) % VALUES));
    Fact::new(relation(rel), values.collect::<Tuple>())
}

fn fact_strategy() -> impl Strategy<Value = Fact> {
    (0..RELATIONS, 0..ARITIES.len(), 0..64usize).prop_map(fact)
}

fn hash_of(instance: &Instance) -> u64 {
    let mut hasher = DefaultHasher::new();
    instance.hash(&mut hasher);
    hasher.finish()
}

/// Queries that between them walk every relation of the pool in permuted
/// column orders, at every arity, with a variable repeated inside an atom.
const PROBE_QUERIES: [&str; 4] = [
    "Q(x, y) :- M0(x, y), M1(y).",
    "Q(x, y, z) :- M1(x, y, z), M2(z, x), M0().",
    "Q(a, g) :- M2(a, b, c, d, e, f, g), M0(g, a), M1(c, c).",
    "Q(x, z) :- M0(x, y), M0(y, z), M2(z).",
];

/// The leaves of `query` on `instance`, in the order `evaluator` finds
/// them: the triejoin's are its view of the instance's sorted orders.
fn leaves(query: &ConjunctiveQuery, instance: &Instance, evaluator: Evaluator) -> Vec<Vec<Value>> {
    let mut leaves = Vec::new();
    let compiled = CompiledQuery::new(query);
    let _ = evaluator.search(&compiled, instance, None, &Valuation::new(), |slots| {
        leaves.push(slots.iter().map(|value| value.unwrap()).collect());
        ControlFlow::Continue(())
    });
    leaves
}

/// The sorted orders `instance` holds or builds now, against a fresh bulk
/// build of `model` — leaf for leaf, in order — and the scan oracle.
fn assert_orders_match_a_fresh_build(instance: &Instance, model: &BTreeSet<Fact>) {
    let fresh = Instance::from_facts(model.iter().cloned());
    for text in PROBE_QUERIES {
        let query = ConjunctiveQuery::parse(text).unwrap();
        let walked = leaves(&query, instance, Evaluator::Triejoin);
        assert_eq!(
            walked,
            leaves(&query, &fresh, Evaluator::Triejoin),
            "{text}"
        );
        let scanned = leaves(&query, &fresh, Evaluator::Scan);
        assert_eq!(
            walked.iter().collect::<BTreeSet<_>>(),
            scanned.iter().collect::<BTreeSet<_>>(),
            "{text}"
        );
        assert_eq!(walked.len(), scanned.len(), "{text}");
    }
}

/// Everything the instance lets a caller observe, against the model.
fn assert_matches_model(instance: &Instance, model: &BTreeSet<Fact>, probes: &[Fact]) {
    let in_order: Vec<Fact> = model.iter().cloned().collect();
    assert_eq!(instance.facts().cloned().collect::<Vec<_>>(), in_order);
    assert_eq!(
        instance.facts().size_hint(),
        (model.len(), Some(model.len()))
    );
    assert_eq!(instance.len(), model.len());
    assert_eq!(instance.is_empty(), model.is_empty());
    assert_eq!(instance.to_set(), *model);
    assert_eq!(instance.clone().into_iter().collect::<Vec<_>>(), in_order);
    for probe in probes.iter().chain(model) {
        assert_eq!(instance.contains(probe), model.contains(probe), "{probe}");
    }
    let rebuilt = Instance::from_facts(in_order.iter().cloned());
    assert!(instance.contains_all(&rebuilt) && rebuilt.contains_all(instance));
    assert_eq!(
        instance.contains_all(&Instance::from_facts(probes.iter().cloned())),
        probes.iter().all(|probe| model.contains(probe))
    );
    for rel in (0..RELATIONS).map(relation) {
        let rows = instance.facts_of(rel);
        let of_relation: BTreeSet<&Fact> = model.iter().filter(|f| f.relation == rel).collect();
        assert_eq!(rows.len(), of_relation.len(), "a row per fact, no more");
        assert_eq!(rows.iter().collect::<BTreeSet<_>>(), of_relation);
    }
    // A copy starts without sorted orders: built from rows in this
    // history's order, they hold what a bulk build's hold.
    assert_orders_match_a_fresh_build(&instance.clone(), model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x17_FAC7))]

    /// Random interleavings of every way to change an instance, with its
    /// sorted orders asked for after every step (so: carried forward by
    /// appends and absorbs, dropped and rebuilt when rows move).
    #[test]
    fn every_history_matches_the_ordered_set_model(
        steps in proptest::collection::vec(
            (0..8usize, proptest::collection::vec(fact_strategy(), 0..12)),
            1..14,
        ),
        probes in proptest::collection::vec(fact_strategy(), 8..9),
    ) {
        let mut instance = Instance::new();
        let mut model = BTreeSet::new();
        for (op, batch) in steps {
            match op {
                0 => {
                    instance = Instance::from_facts(batch.iter().cloned());
                    model = batch.iter().cloned().collect();
                }
                1 => for fact in &batch {
                    prop_assert_eq!(instance.insert(fact.clone()), model.insert(fact.clone()));
                },
                // a run merged in: what comes back is exactly `run \ before`
                2 => {
                    let run = Instance::from_facts(batch.iter().cloned());
                    let orders = instance.cached_orders();
                    let new = instance.absorb(&run);
                    let expected = run.facts().filter(|fact| !model.contains(*fact));
                    prop_assert!(new.facts().eq(expected), "{} absorbing {}", new, run);
                    prop_assert_eq!(instance.cached_orders(), orders, "absorb keeps the orders");
                    model.extend(batch.iter().cloned());
                }
                3 => {
                    instance.extend(batch.iter().cloned());
                    model.extend(batch.iter().cloned());
                }
                4 => {
                    instance.extend(batch.iter());
                    model.extend(batch.iter().cloned());
                }
                5 => for fact in batch.iter().chain(&probes).take(6) {
                    prop_assert_eq!(instance.remove(fact), model.remove(fact));
                },
                // descending: every new fact but the first lands below its
                // relation's last row, a positional insert
                6 => {
                    let mut descending = batch.clone();
                    descending.sort_by(|a, b| b.cmp(a));
                    for fact in descending {
                        prop_assert_eq!(instance.insert(fact.clone()), model.insert(fact));
                    }
                }
                // an evaluation builds the orders, or catches up the ones
                // the steps since the last have outgrown
                _ => {
                    assert_orders_match_a_fresh_build(&instance, &model);
                    prop_assert!(instance.cached_orders() > 0);
                }
            }
            assert_matches_model(&instance, &model, &probes);
            // and the instance's own orders, carried forward or rebuilt
            assert_orders_match_a_fresh_build(&instance, &model);
        }
    }

    /// Equal fact sets are equal instances, however they came about: bulk
    /// build, ascending inserts, shuffled inserts (the out-of-order path),
    /// runs absorbed one after another, and inserts followed by removes.
    #[test]
    fn build_history_is_unobservable(
        facts in proptest::collection::vec(fact_strategy(), 0..40),
        extra in proptest::collection::vec(fact_strategy(), 0..10),
    ) {
        let model: BTreeSet<Fact> = facts.iter().cloned().collect();
        let bulk = Instance::from_facts(facts.iter().cloned());
        let mut ascending = Instance::new();
        model.iter().for_each(|fact| { ascending.insert(fact.clone()); });
        let mut shuffled = Instance::new();
        facts.iter().for_each(|fact| { shuffled.insert(fact.clone()); });
        let mut absorbed = Instance::new();
        for run in facts.chunks(7) {
            absorbed.absorb(&Instance::from_facts(run.iter().cloned()));
        }
        let mut pruned = Instance::new();
        assert_orders_match_a_fresh_build(&pruned, &BTreeSet::new());
        extra.iter().chain(&facts).for_each(|fact| { pruned.insert(fact.clone()); });
        for fact in extra.iter().filter(|fact| !model.contains(fact)) {
            pruned.remove(fact);
        }

        let histories = [
            ("ascending", &ascending),
            ("shuffled", &shuffled),
            ("absorbed", &absorbed),
            ("pruned", &pruned),
        ];
        for (name, other) in histories {
            prop_assert_eq!(other, &bulk, "{}", name);
            prop_assert_eq!(other.cmp(&bulk), std::cmp::Ordering::Equal, "{}", name);
            prop_assert_eq!(hash_of(other), hash_of(&bulk), "{}", name);
            prop_assert_eq!(other.to_string(), bulk.to_string(), "{}", name);
            prop_assert_eq!(wire::encode_body(other), wire::encode_body(&bulk), "{}", name);
        }
        let decoded: Instance = wire::decode_body(&wire::encode_body(&shuffled)).unwrap();
        prop_assert_eq!(&decoded, &bulk);
    }
}

#[test]
fn twelve_rounds_of_growth_keep_one_order_per_relation_and_column_order() {
    // The 2-path walks `M0` in both column orders. Twelve rounds absorb a
    // batch each into the one accumulated instance and evaluate on it, the
    // differential step and in full: the two orders take the new rows in
    // round after round — never dropped, never piled up next to stale ones
    // — and hold at every round what a fresh build sorts.
    let query = ConjunctiveQuery::parse("Q(x, z) :- M0(x, y), M0(y, z).").unwrap();
    let edge = |i: usize| Fact::new(relation(0), vec![value(i * 7 % 40), value(i * 11 % 37)]);
    let mut data = Instance::new();
    let mut answers = Instance::new();
    for round in 0..12 {
        let delta = data.absorb(&(0..25).map(|i| edge(round * 25 + i)).collect());
        assert!(!delta.is_empty(), "round {round} grows the instance");
        answers.extend(evaluate_seminaive_step(&query, &data, &delta).facts());
        let fresh = Instance::from_facts(data.facts().cloned());
        assert_eq!(evaluate(&query, &data), answers, "round {round}");
        assert_eq!(answers, oracle::evaluate(&query, &fresh), "round {round}");
        assert_eq!(
            leaves(&query, &data, Evaluator::Triejoin),
            leaves(&query, &fresh, Evaluator::Triejoin),
            "round {round}"
        );
        assert_eq!(data.cached_orders(), 2, "round {round}");
    }
    assert!(answers.len() > 100);
    // a remove is what drops them
    let mut full = data.clone();
    let _ = evaluate(&query, &full);
    assert_eq!(full.cached_orders(), 2);
    assert!(full.remove(&edge(0)));
    assert_eq!(full.cached_orders(), 0);
}
