//! Allocation budget of the join kernel: evaluating a query allocates in
//! proportion to its distinct *answers*, not to the valuations that derive
//! them.
//!
//! The two-path query over the transitive tournament on 48 values has
//! C(48, 3) = 17 296 satisfying valuations but only 1 081 answers (the pairs
//! at distance ≥ 2), so a kernel that builds a fact — or anything else on
//! the heap — per derivation blows a budget that is a small multiple of the
//! answer count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cq::{evaluate, evaluate_seminaive_step, ConjunctiveQuery, Fact, Instance, Value};

thread_local! {
    /// Heap allocations made by this thread (the test harness runs other
    /// threads, whose allocations must not count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the number of allocations it made.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
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
    // The call above built the instance's secondary indexes: from here on
    // an evaluation pays for its answers and its own fixed-size scratch.
    let budget = 4 * ANSWERS;
    assert!(budget < VALUATIONS / 2);

    let (answers, allocations) = counting(|| evaluate(&two_path, &tournament));
    assert_eq!(answers.len() as u64, ANSWERS);
    assert!(
        allocations <= budget,
        "evaluate: {allocations} allocations for {ANSWERS} answers \
         ({VALUATIONS} valuations); budget {budget}"
    );

    // With everything new, both pivots of the differential step enumerate
    // every valuation: twice the derivations, the same answers.
    let (step, allocations) =
        counting(|| evaluate_seminaive_step(&two_path, &tournament, &tournament));
    assert_eq!(step, answers);
    assert!(
        allocations <= budget,
        "evaluate_seminaive_step: {allocations} allocations for {ANSWERS} answers \
         ({} derivations); budget {budget}",
        2 * VALUATIONS
    );
}
