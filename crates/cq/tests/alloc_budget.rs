//! Allocation budgets of the storage layer and the join kernel.
//!
//! **Storage.** A fact of arity ≤ 5 owns no heap block and an instance
//! stores it once, so building, copying, parsing and growing an instance
//! allocate per *relation* (plus logarithmic vector growth), never per fact;
//! absorbing a run allocates a few blocks per relation and sorted order it
//! touches, whatever the run's size.
//! Before inline tuples and the single-copy `Instance`, `from_facts` over
//! the 10 000 facts below made 20 916 allocations, `clone` 20 913 (82
//! requested bytes per fact) and `parse_instance` 30 928.
//!
//! **Interner.** A new name is copied into a bump arena and hashed once, so
//! interning allocates for arena chunks and table growth — logarithmically —
//! never per name. While every name was a leaked `String` of its own,
//! 10 000 fresh names made over 10 000 allocations.
//!
//! **Join kernel.** Evaluating a query allocates in proportion to its
//! distinct *answers* at most — with inline head tuples, not even that —
//! and never to the valuations that derive them.
//!
//! The two-path query over the transitive tournament on 48 values has
//! C(48, 3) = 17 296 satisfying valuations but only 1 081 answers (the pairs
//! at distance ≥ 2), so a kernel that builds anything on the heap per
//! derivation — or per answer — blows a budget far below the answer count.
//!
//! The same kernel gets the same budget on the triangle over the
//! tournament plus its back edges (every one of the C(48, 3) vertex sets in
//! its six orders): it walks sorted column orders the instance caches, so a warm
//! evaluation allocates for its cursors and the growing answer list, and a
//! cold one a few blocks per distinct order on top — never per row, per
//! candidate value or per visited node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

use cq::{
    evaluate, evaluate_seminaive_step, parse_instance, CompiledQuery, ConjunctiveQuery, Fact,
    Instance, Symbol, Valuation, Value,
};

thread_local! {
    /// Heap allocations made by this thread (the test harness runs other
    /// threads, whose allocations must not count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = BYTES.try_with(|count| count.set(count.get() + bytes as u64));
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local `Cell`s
// with const initializers and no destructors, so touching them allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What a piece of code asked of the allocator.
#[derive(Debug)]
struct Heap {
    allocations: u64,
    bytes: u64,
}

/// Runs `f` and returns its result with the allocations it made.
fn counting<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let result = f();
    let heap = Heap {
        allocations: ALLOCATIONS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
    };
    (result, heap)
}

const FACTS: u64 = 10_000;

/// 10 000 binary facts, half in `BudgetA` and half in `BudgetB`, over 100
/// values, in an order that is neither sorted nor grouped by relation.
fn two_relations() -> Vec<Fact> {
    let values: Vec<Value> = (0..100).map(|i| Value::indexed("b", i)).collect();
    let relations = [Symbol::new("BudgetA"), Symbol::new("BudgetB")];
    (0..FACTS as usize)
        .map(|i| i * 7919 % FACTS as usize) // a permutation: 7919 is prime
        .map(|i| Fact::new(relations[i % 2], vec![values[i / 2 % 100], values[i / 200]]))
        .collect()
}

#[test]
fn building_copying_and_parsing_allocate_per_relation_not_per_fact() {
    let facts = two_relations();
    let text: String = facts.iter().map(|fact| format!("{fact}. ")).collect();

    let (instance, heap) = counting(|| Instance::from_facts(facts.iter().cloned()));
    assert_eq!(instance.len() as u64, FACTS);
    assert!(heap.allocations <= 16, "from_facts: {heap:?}");

    let (copy, heap) = counting(|| instance.clone());
    assert_eq!(copy, instance);
    assert!(heap.allocations <= 8, "clone: {heap:?}");
    assert!(heap.bytes <= 40 * FACTS, "clone: {heap:?}");

    // Every name is interned by now: what is left is the parser's own. It
    // grows its batch buffers once, asks for one symbol vector a batch, a
    // growing key vector a run and the rows at their exact size: 57
    // allocations and 1 620 376 bytes measured, against 17 and 1 688 768
    // while it collected a `Vec<Fact>` and sorted it.
    let (parsed, heap) = counting(|| parse_instance(&text).unwrap());
    assert_eq!(parsed, instance);
    assert!(heap.allocations <= 64, "parse_instance: {heap:?}");
    assert!(heap.bytes <= 200 * FACTS, "parse_instance: {heap:?}");
}

#[test]
fn interning_fresh_names_allocates_for_growth_not_per_name() {
    let names: Vec<String> = (0..FACTS).map(|i| format!("fresh_name_{i}")).collect();
    let (one_by_one, batched) = names.split_at(names.len() / 2);
    let (symbols, heap) = counting(|| {
        let mut symbols: Vec<Symbol> = Vec::with_capacity(names.len());
        symbols.extend(one_by_one.iter().map(|name| Symbol::new(name)));
        symbols.append(&mut Symbol::intern_all(batched.iter().map(String::as_str)));
        symbols
    });
    assert!(names
        .iter()
        .map(String::as_str)
        .eq(symbols.iter().map(|s| s.as_str())));
    // Arena chunks (4 KiB doubling: 6 for these 150 KB), the id table's
    // doublings (≤ 14), the id → name chunks (≤ 7) and the two result
    // vectors; other tests of this binary intern on their own threads.
    assert!(heap.allocations <= 64, "interning: {heap:?}");
}

#[test]
fn ascending_growth_of_a_warm_instance_allocates_for_growth_only() {
    let mut facts = two_relations();
    facts.sort();
    let join = ConjunctiveQuery::parse("T(x, z) :- BudgetA(x, y), BudgetB(y, z).").unwrap();
    let mut grown = Instance::from_facts(facts[..1].iter().cloned());
    let _ = evaluate(&join, &grown); // asks for the sorted orders
    let orders = grown.cached_orders();
    assert!(orders > 0);
    let ((), heap) = counting(|| {
        for fact in &facts {
            grown.insert(fact.clone());
        }
    });
    assert_eq!(grown.cached_orders(), orders, "growth keeps the orders");
    assert_eq!(grown.len() as u64, FACTS);
    // The two row vectors double as they fill; nothing is allocated per
    // fact, and nothing for the orders, which wait to be caught up.
    assert!(heap.allocations <= 64, "warm inserts: {heap:?}");
    // The rows are all there is to copy: two vectors.
    let (_, heap) = counting(|| grown.clone());
    assert!(heap.allocations <= 8, "clone after growth: {heap:?}");
    assert!(heap.bytes <= 40 * FACTS, "clone after growth: {heap:?}");
    // Catching an order up takes the fresh rows, their sort and the merged
    // block: a handful of blocks an order, none per row.
    let fresh = Instance::from_facts(facts.iter().cloned());
    let (answers, heap) = counting(|| evaluate(&join, &grown));
    assert_eq!(answers, evaluate(&join, &fresh));
    assert_eq!(grown.cached_orders(), fresh.cached_orders());
    assert!(heap.allocations <= 128, "catch-up and evaluate: {heap:?}");
}

#[test]
fn absorbing_a_run_allocates_per_relation_and_order_not_per_fact() {
    let mut facts = two_relations();
    facts.sort();
    let join = ConjunctiveQuery::parse("T(x, z) :- BudgetA(x, y), BudgetB(y, z).").unwrap();
    // Every other fact in, the rest — and a slice of the first half again —
    // as one run: the new rows land between all the old ones.
    let (evens, odds): (Vec<_>, Vec<_>) = facts
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let mut grown = Instance::from_facts(evens.into_iter().map(|(_, fact)| fact));
    let run = Instance::from_facts(
        odds.into_iter()
            .map(|(_, fact)| fact)
            .chain(facts[..100].iter().cloned()),
    );
    let _ = evaluate(&join, &grown); // builds the sorted orders
    let orders = grown.cached_orders() as u64;
    assert!(orders > 0);
    let (new, heap) = counting(|| grown.absorb(&run));
    assert_eq!(new.len() as u64, FACTS / 2);
    assert_eq!(grown.len() as u64, FACTS);
    assert_eq!(
        grown.cached_orders() as u64,
        orders,
        "absorb keeps the orders"
    );
    // Per relation: the new rows, their places, the rows' one growth, the
    // result's relation map; per order: the permuted new rows, their sort
    // (two blocks) and the values' one growth. Nothing per fact.
    let relations = 2;
    assert!(
        heap.allocations <= 4 * relations + 4 * orders + 2,
        "absorb of {} facts: {heap:?}",
        run.len()
    );
    // The orders took the rows in on the spot: evaluating now builds and
    // catches up nothing, and finds what a fresh build finds.
    let fresh = Instance::from_facts(facts.iter().cloned());
    assert_eq!(evaluate(&join, &grown), evaluate(&join, &fresh));
    assert_eq!(grown.cached_orders(), fresh.cached_orders());
}

const VALUES: usize = 48;
const VALUATIONS: u64 = (VALUES * (VALUES - 1) * (VALUES - 2) / 6) as u64;
const ANSWERS: u64 = (VALUES * (VALUES - 1) / 2 - (VALUES - 1)) as u64;

/// `R(vᵢ, vⱼ)` for every `i < j`.
fn transitive_tournament() -> Instance {
    let values: Vec<Value> = (0..VALUES).map(|i| Value::indexed("v", i)).collect();
    Instance::from_facts((0..VALUES).flat_map(|i| {
        let values = &values;
        (i + 1..VALUES).map(move |j| Fact::new("R", vec![values[i], values[j]]))
    }))
}

#[test]
fn evaluation_allocates_per_answer_not_per_valuation() {
    let two_path = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let tournament = transitive_tournament();
    assert_eq!(
        cq::satisfying_valuations(&two_path, &tournament).len() as u64,
        VALUATIONS
    );
    // The call above built the instance's sorted orders: from here on
    // an evaluation pays for its fixed-size scratch and for the answer
    // set's doubling — a binary head tuple is inline, so not even an answer
    // costs a block (40 allocations measured; 4 × ANSWERS was the budget
    // while every answer owned a `Vec`).
    let budget = 64;
    assert!(budget < ANSWERS / 8);

    let (answers, heap) = counting(|| evaluate(&two_path, &tournament));
    let allocations = heap.allocations;
    assert_eq!(answers.len() as u64, ANSWERS);
    assert!(
        allocations <= budget,
        "evaluate: {allocations} allocations for {ANSWERS} answers \
         ({VALUATIONS} valuations); budget {budget}"
    );

    // With everything new, both pivots of the differential step enumerate
    // every valuation: twice the derivations, the same answers.
    let (step, heap) = counting(|| evaluate_seminaive_step(&two_path, &tournament, &tournament));
    let allocations = heap.allocations;
    assert_eq!(step, answers);
    assert!(
        allocations <= budget,
        "evaluate_seminaive_step: {allocations} allocations for {ANSWERS} answers \
         ({} derivations); budget {budget}",
        2 * VALUATIONS
    );
}

/// `R(vᵢ, vⱼ)` for every `i ≠ j` below `values`.
fn complete_digraph(values: usize) -> Instance {
    let value = |i: usize| Value::indexed("v", i);
    Instance::from_facts((0..values).flat_map(|i| {
        let others = (0..values).filter(move |&j| j != i);
        others.map(move |j| Fact::new("R", vec![value(i), value(j)]))
    }))
}

#[test]
fn multiway_evaluation_allocates_per_atom_not_per_row_or_value() {
    let triangle = ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), R(y, z), R(z, x).").unwrap();
    let complete = complete_digraph(VALUES);
    let rows = complete.len() as u64;
    let budget = 64;
    assert!(budget < rows / 8 && budget < VALUATIONS / 8);

    // Cold: the two distinct column orders of the three atoms are built —
    // four blocks each (the cache node, the rows, the sort's index and
    // output).
    let (answers, cold) = counting(|| evaluate(&triangle, &complete));
    assert_eq!(answers.len() as u64, 6 * VALUATIONS);
    // Warm: the cursors and plan of three atoms, and the doublings of the
    // answer list.
    let (again, warm) = counting(|| evaluate(&triangle, &complete));
    assert_eq!(again, answers);
    assert!(
        warm.allocations <= budget,
        "warm multiway evaluate: {warm:?} for {rows} rows; budget {budget}"
    );
    assert!(
        cold.allocations <= warm.allocations + 16,
        "order building: cold {cold:?} against warm {warm:?}"
    );

    // The search itself — no answers collected — allocates for the query
    // alone: as much on 8 times the leaves as on 8 times fewer.
    let compiled = CompiledQuery::new(&triangle);
    let enumerate = |instance: &Instance| {
        let mut leaves = 0u64;
        let ((), heap) = counting(|| {
            let _ = compiled.for_each_satisfying(instance, &Valuation::new(), |_| {
                leaves += 1;
                ControlFlow::Continue(())
            });
        });
        (leaves, heap.allocations)
    };
    let small = complete_digraph(VALUES / 2);
    let _ = enumerate(&small); // warm its orders
    let (leaves, allocations) = enumerate(&complete);
    assert_eq!(leaves, 6 * VALUATIONS);
    assert_eq!(enumerate(&small).1, allocations);
    assert!(allocations <= 16, "{allocations} allocations");
}
