//! Allocation budgets on the worker's side of the wire: what decoding a
//! chunk, holding it and stepping a delta node over it ask of the heap.
//!
//! The harness is the one of `cq/tests/alloc_budget.rs` (a test binary has
//! one global allocator, so each binary carries its own copy).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cq::{ConjunctiveQuery, Fact, Instance, Symbol, Tuple, Value};
use delta::DeltaNode;
use distribution::{DistributionPolicy, HypercubePolicy};
use wire::{
    decode_body, decode_body_with, encode_body, encode_body_with, DecodeError, Dictionary, Encoder,
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

/// 10 000 binary facts, half in `WireA` and half in `WireB`, over 100 values.
fn chunk() -> Instance {
    let values: Vec<Value> = (0..100).map(|i| Value::indexed("w", i)).collect();
    let relations = [Symbol::new("WireA"), Symbol::new("WireB")];
    Instance::from_facts(
        (0..FACTS as usize)
            .map(|i| Fact::new(relations[i % 2], vec![values[i / 2 % 100], values[i / 200]])),
    )
}

/// A copy is the rows and nothing else: at most a block per relation plus
/// the map, 32 bytes a fact. An instance that remembered facts in its
/// out-of-order side set would have that set's tree nodes to copy as well.
fn assert_holds_every_fact_once(instance: &Instance, what: &str) {
    let (copy, heap) = counting(|| instance.clone());
    assert_eq!(&copy, instance);
    assert!(heap.allocations <= 8, "clone of {what}: {heap:?}");
    assert!(
        heap.bytes <= 40 * instance.len() as u64 + 1024,
        "clone of {what}: {heap:?}"
    );
}

#[test]
fn decoding_a_chunk_allocates_per_relation_not_per_fact() {
    let chunk = chunk();
    let body = encode_body(&chunk);
    // Every name of the body is interned already (this process encoded it),
    // so the symbol table costs its two vectors; the rest is each relation's
    // row vector growing past its capped reservation — the rows arrive
    // ascending and are moved into the instance as they are.
    // Before inline tuples this was two blocks per fact.
    let (decoded, heap) = counting(|| decode_body::<Instance>(&body));
    assert_eq!(decoded.as_ref(), Ok(&chunk));
    assert!(heap.allocations <= 32, "decode: {heap:?}");
    assert_holds_every_fact_once(&decoded.unwrap(), "a decoded chunk");
}

/// In a sequence of named bodies the second chunk over the same names is
/// indices only: its table is empty, so decoding it interns nothing, adds
/// nothing to the dictionary and allocates what the row vectors need.
#[test]
fn a_chunk_repeating_a_connections_names_adds_nothing_to_its_dictionary() {
    let chunk = chunk();
    let mut encoder = Encoder::new();
    let first = encode_body_with(&mut encoder, &chunk);
    let second = encode_body_with(&mut encoder, &chunk);
    assert_eq!(first, encode_body(&chunk));
    assert_eq!(second[0], 0, "no name crosses the connection twice");
    assert_eq!(second[1..], first[first.len() - (second.len() - 1)..]);

    let mut dictionary = Dictionary::new();
    assert_eq!(
        decode_body_with(&mut dictionary, &first).as_ref(),
        Ok(&chunk)
    );
    let names = dictionary.len();
    assert_eq!(names, encoder.dictionary_len());
    let (decoded, heap) = counting(|| decode_body_with::<Instance>(&mut dictionary, &second));
    assert_eq!(decoded.as_ref(), Ok(&chunk));
    assert_eq!(dictionary.len(), names);
    assert!(heap.allocations <= 32, "decode of a repeat chunk: {heap:?}");
}

#[test]
fn distributed_chunks_hold_every_fact_once() {
    let query = ConjunctiveQuery::parse("T(x, z) :- WireA(x, y), WireB(y, z).").unwrap();
    let policy = HypercubePolicy::uniform(&query, 2).unwrap();
    let distribution = policy.distribute(&chunk());
    assert!(distribution.chunks().count() > 1);
    for (node, chunk) in distribution.chunks() {
        assert!(!chunk.is_empty());
        assert_holds_every_fact_once(chunk, &format!("the chunk of {node}"));
    }
}

/// A run's row count is only known not to exceed the body's remaining
/// *bytes*; a fact is 32 bytes in memory. Reserving on the strength of the
/// count asked for 32 MiB here before looking at the first row — and up to
/// 32 GiB (an abort, not an error) for a frame at the 1 GiB body limit.
#[test]
fn a_corrupt_count_cannot_size_an_allocation() {
    let mut enc = Encoder::new();
    enc.symbol(Symbol::new("WireA")); // the table's only entry, index 0
    let mut body = enc.finish();
    body.pop(); // keep the table, drop the payload's reference to it
    let table = body.len();
    const MI: [u8; 3] = [0x80, 0x80, 0x40];
    body.extend_from_slice(&MI); // 1 Mi facts ...
    body.push(0); // ... of `WireA` ...
    body.push(1); // ... unary ...
    body.extend_from_slice(&MI); // ... 1 Mi rows in this run,
    body.push(9); // whose first value is name 9 of a 1-entry table
    body.resize(table + 9 + (1 << 20), 0); // and the bytes to back the count

    let (result, heap) = counting(|| decode_body::<Instance>(&body));
    assert_eq!(
        result,
        Err(DecodeError::SymbolIndexOutOfRange {
            index: 9,
            table_len: 1
        })
    );
    assert!(heap.bytes < 1 << 20, "decode of a corrupt count: {heap:?}");

    // A worker reads the same run as ids: the first one, 2^32 - 1, is none.
    body.truncate(table + 8);
    body.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
    body.resize(table + 9 + (1 << 20), 0);
    let worker = || decode_body_with::<Instance>(&mut Dictionary::worker(), &body);
    let (result, heap) = counting(worker);
    let id = u64::from(u32::MAX);
    assert_eq!(result, Err(DecodeError::UnknownValueId { id }));
    assert!(heap.bytes < 1 << 20, "decode on a worker: {heap:?}");
}

/// The worker's incremental round over a delta frame that announces only
/// facts the node already holds: a membership search per fact, and nothing
/// copied — the arity-7 facts, whose every copy is a heap block, show it.
/// (The step used to deep-copy every fact of every frame before testing
/// membership.)
#[test]
fn a_fully_reannounced_delta_frame_costs_no_copies() {
    let query = ConjunctiveQuery::parse("T(x, z) :- WireA(x, y), WireB(y, z).").unwrap();
    let mut chunk = chunk();
    chunk.extend((0..1000).map(|i| {
        let wide = (0..7).map(|position| Value::indexed("w", (i >> position) % 100));
        Fact::new("WireWide", wide.collect::<Tuple>())
    }));
    let mut node = DeltaNode::new();
    assert!(!node.step(&query, &chunk).is_empty());
    let (again, heap) = counting(|| node.step(&query, &chunk));
    assert!(again.is_empty());
    assert_eq!(node.data().len(), chunk.len());
    assert!(heap.allocations <= 32, "re-announced step: {heap:?}");
}
