//! `Instance` against a `BTreeSet<Fact>` model: whatever sequence of bulk
//! builds, in-order and out-of-order inserts, extends and removes produced
//! an instance, everything observable depends on its fact set alone — and
//! the rows behind the posting lists stay consistent while it grows warm.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

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
        for position in 0..7 {
            for probed in (0..VALUES).map(value) {
                let posting = instance.posting(rel, position, probed);
                assert!(posting.is_sorted());
                assert!(posting
                    .iter()
                    .all(|&row| rows[row as usize].value_at(position) == Some(probed)));
                let expected = of_relation
                    .iter()
                    .filter(|f| f.value_at(position) == Some(probed));
                assert_eq!(posting.len(), expected.count());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x17_FAC7))]

    /// Random interleavings of every way to change an instance, with the
    /// secondary indexes probed (so: warm) in between.
    #[test]
    fn every_history_matches_the_ordered_set_model(
        steps in proptest::collection::vec(
            (0..7usize, proptest::collection::vec(fact_strategy(), 0..12)),
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
                2 => for fact in &batch {
                    prop_assert_eq!(instance.insert_cloned(fact), model.insert(fact.clone()));
                },
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
                // a probe warms the indexes: later steps grow them in place
                _ => {
                    let _ = instance.posting(relation(0), 0, value(0));
                    prop_assert!(instance.indexes_built());
                }
            }
            assert_matches_model(&instance, &model, &probes);
        }
    }

    /// Equal fact sets are equal instances, however they came about: bulk
    /// build, ascending inserts, shuffled inserts (the out-of-order path),
    /// and inserts followed by removes.
    #[test]
    fn build_history_is_unobservable(
        facts in proptest::collection::vec(fact_strategy(), 0..40),
        extra in proptest::collection::vec(fact_strategy(), 0..10),
    ) {
        let model: BTreeSet<Fact> = facts.iter().cloned().collect();
        let bulk = Instance::from_facts(facts.iter().cloned());
        let mut ascending = Instance::new();
        model.iter().for_each(|fact| { ascending.insert_cloned(fact); });
        let mut shuffled = Instance::new();
        facts.iter().for_each(|fact| { shuffled.insert_cloned(fact); });
        let mut pruned = Instance::new();
        let _ = pruned.posting(relation(0), 0, value(0));
        extra.iter().chain(&facts).for_each(|fact| { pruned.insert_cloned(fact); });
        for fact in extra.iter().filter(|fact| !model.contains(fact)) {
            pruned.remove(fact);
        }

        let mut cache = IndexCache::new(4);
        cache.warm(&bulk);
        for (name, other) in [("ascending", &ascending), ("shuffled", &shuffled), ("pruned", &pruned)] {
            prop_assert_eq!(other, &bulk, "{}", name);
            prop_assert_eq!(other.cmp(&bulk), std::cmp::Ordering::Equal, "{}", name);
            prop_assert_eq!(hash_of(other), hash_of(&bulk), "{}", name);
            prop_assert_eq!(other.to_string(), bulk.to_string(), "{}", name);
            prop_assert_eq!(wire::encode_body(other), wire::encode_body(&bulk), "{}", name);
            let hits = cache.hits();
            cache.warm(other);
            prop_assert_eq!(cache.hits(), hits + 1, "{} must be a cache hit", name);
        }
        let decoded: Instance = wire::decode_body(&wire::encode_body(&shuffled)).unwrap();
        prop_assert_eq!(&decoded, &bulk);
        prop_assert_eq!(cache.misses(), 1);
    }
}
