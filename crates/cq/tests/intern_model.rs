//! The interner against a `HashMap<String, u32>` model: whatever sequence
//! of `Symbol::new`, `Symbol::intern_all` and `Symbol::as_str` calls a
//! process makes, from however many threads, a name has exactly one id, an
//! id exactly one name, and the name reads back byte for byte — across
//! arena chunks, names too long for any chunk, and table growths.
//!
//! The interner is process-global and the tests of this binary run on
//! parallel threads, so a model records the ids it *observes*; which id a
//! name gets is not specified.

use std::collections::HashMap;
use std::sync::Barrier;

use cq::Symbol;
use proptest::prelude::*;

/// Names seen so far, both ways.
#[derive(Default)]
struct Model {
    ids: HashMap<String, u32>,
    names: HashMap<u32, String>,
}

impl Model {
    /// Checks `symbol`, the interner's answer for `name`, against everything
    /// observed before, and remembers it.
    fn observe(&mut self, name: &str, symbol: Symbol) {
        assert_eq!(symbol.as_str(), name);
        let id = *self.ids.entry(name.to_string()).or_insert(symbol.id());
        assert_eq!(symbol.id(), id, "{name:?} changed its id");
        let owner = self.names.entry(id).or_insert_with(|| name.to_string());
        assert_eq!(owner, name, "id {id} names two strings");
    }
}

/// The name pool of the interleaving test: the empty name, non-ASCII names,
/// names past the arena's own-block threshold, and one longer than any
/// arena chunk, among ordinary ones.
fn pooled_name(index: usize) -> String {
    match index % 8 {
        0 if index == 0 => String::new(),
        1 => format!("π{index}"),
        2 => format!("名前{index}é"),
        3 if index % 64 == 3 => format!("{}{index}", "L".repeat(70 << 10)),
        4 if index % 16 == 4 => format!("{}{index}", "m".repeat(300)),
        _ => format!("im_{index}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x18_1D5))]

    #[test]
    fn every_interleaving_matches_the_map_model(
        ops in proptest::collection::vec(
            (0..3usize, proptest::collection::vec(0..200usize, 0..12)),
            1..60,
        ),
    ) {
        let mut model = Model::default();
        for (op, indices) in ops {
            let names: Vec<String> = indices.into_iter().map(pooled_name).collect();
            match op {
                0 => {
                    for name in &names {
                        model.observe(name, Symbol::new(name));
                    }
                }
                1 => {
                    let batch = Symbol::intern_all(names.iter().map(String::as_str));
                    prop_assert_eq!(batch.len(), names.len());
                    for (name, symbol) in names.iter().zip(batch) {
                        model.observe(name, symbol);
                    }
                }
                _ => {
                    // names the model already holds read back unchanged,
                    // whatever was interned in between
                    for (name, &id) in &model.ids {
                        let symbol = Symbol::new(name);
                        prop_assert_eq!(symbol.id(), id);
                        prop_assert_eq!(symbol.as_str(), name.as_str());
                    }
                }
            }
        }
    }
}

#[test]
fn a_hundred_thousand_names_survive_every_growth() {
    const NAMES: usize = 100_000;
    let names: Vec<String> = (0..NAMES).map(|i| format!("bulk_{i}")).collect();
    let mut model = Model::default();
    // Alternate single interning with overlapping batches, so both entry
    // points meet known and new names while the table and the arena grow.
    for (block, chunk) in names.chunks(1000).enumerate() {
        if block % 2 == 0 {
            for name in chunk {
                model.observe(name, Symbol::new(name));
            }
        } else {
            let overlap = &names[block * 1000 - 100..(block + 1) * 1000];
            let batch = Symbol::intern_all(overlap.iter().map(String::as_str));
            assert_eq!(batch.len(), overlap.len());
            for (name, symbol) in overlap.iter().zip(batch) {
                model.observe(name, symbol);
            }
        }
    }
    assert_eq!(model.ids.len(), NAMES);
    assert_eq!(model.names.len(), NAMES, "one id per name");
    // Nothing written later disturbed a name stored earlier.
    for (name, &id) in &model.ids {
        let symbol = Symbol::new(name);
        assert_eq!(symbol.id(), id);
        assert_eq!(symbol.as_str(), name);
    }
}

#[test]
fn racing_threads_agree_on_one_id_per_name() {
    const THREADS: usize = 8;
    let barrier = Barrier::new(THREADS);
    // Thread t interns names t*300 .. t*300 + 1200 of a ring of 2400: every
    // name is raced for by four threads, half of them through batches.
    let name = |i: usize| format!("raced_{}", i % 2400);
    let observed: Vec<Vec<(String, Symbol)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let names: Vec<String> = (t * 300..t * 300 + 1200).map(name).collect();
                    barrier.wait();
                    let symbols: Vec<Symbol> = if t % 2 == 0 {
                        names.iter().map(|name| Symbol::new(name)).collect()
                    } else {
                        Symbol::intern_all(names.iter().map(String::as_str))
                    };
                    names.into_iter().zip(symbols).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("interning thread panicked"))
            .collect()
    });
    let mut model = Model::default();
    for (name, symbol) in observed.iter().flatten() {
        model.observe(name, *symbol);
    }
    assert_eq!(model.ids.len(), 2400);
    assert_eq!(model.names.len(), 2400);
}
