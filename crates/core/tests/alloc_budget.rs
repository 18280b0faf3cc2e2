//! Allocation budget of the (C1) decision: `check_parallel_correctness`
//! allocates in proportion to the fact universe and the equality types of
//! the query's valuations, not to the valuations it examines.
//!
//! The 3-chain over the complete binary relation on 16 values — the shape of
//! the benchmark's `decide_pc_transfer` — has 16⁴ = 65 536 satisfying
//! valuations over a universe of 256 facts; a decision that builds an
//! instance — or anything else on the heap — per candidate blows a budget
//! that is a small multiple of the universe. Under the broadcast policy
//! below every valuation's facts meet, so the search visits all of them and
//! asks the minimality oracle about none. The decision makes 59
//! allocations here (315 while the meet table built a node set per
//! universe fact through `nodes_for`, 332 while it still asked the oracle
//! about every candidate and kept a memo key per equality type); before
//! the `MinimalityOracle` and the meet table it made 5 141 058. The budget
//! of 4 × 256 leaves room for fixed costs that grow with the universe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cq::{ConjunctiveQuery, Fact, Instance, Value};
use distribution::{ExplicitPolicy, Network};
use pc_core::check_parallel_correctness;

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

const VALUES: usize = 16;
const UNIVERSE: u64 = (VALUES * VALUES) as u64;
const VALUATIONS: u64 = UNIVERSE * UNIVERSE;

#[test]
fn pc_decision_allocates_per_universe_fact_not_per_valuation() {
    let chain = ConjunctiveQuery::parse("T(x, w) :- R(x, y), R(y, z), R(z, w).").unwrap();
    let values: Vec<Value> = (0..VALUES).map(|i| Value::indexed("v", i)).collect();
    let pairs = values
        .iter()
        .flat_map(|&x| values.iter().map(move |&y| [x, y]));
    let universe = Instance::from_facts(pairs.map(|pair| Fact::new("R", pair.to_vec())));
    let policy = ExplicitPolicy::broadcast(&Network::with_size(4), &universe);

    let budget = 4 * UNIVERSE;
    assert!(budget < VALUATIONS / 8);
    let (report, allocations) = counting(|| check_parallel_correctness(&chain, &policy));
    assert!(report.is_correct());
    assert_eq!(
        report.candidates(),
        VALUATIONS,
        "every valuation is visited"
    );
    // Under broadcast every valuation's facts meet: none is asked about.
    let asks = report.cache_stats();
    assert_eq!(asks.hits + asks.misses, 0, "no minimality ask");
    assert!(
        allocations <= budget,
        "check_parallel_correctness: {allocations} allocations over {UNIVERSE} facts \
         ({VALUATIONS} valuations); budget {budget}"
    );
}
