//! Global string interner backing [`Symbol`].
//!
//! Relation names, variable names and data values are all short strings that
//! are compared and hashed extremely often by the search procedures in this
//! workspace. Interning turns those comparisons into integer comparisons and
//! makes all core types (`Atom`, `Fact`, `Valuation`, …) cheap to clone.
//!
//! Interned strings are leaked (they live for the duration of the process);
//! the set of distinct names appearing in queries, instances and generated
//! workloads is small and bounded, so this is an intentional trade-off.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use parking_lot::RwLock;

/// An interned string.
///
/// `Symbol` is a cheap (`Copy`) handle; two symbols are equal if and only if
/// the underlying strings are equal. Ordering is by interning order, which is
/// deterministic within a process run but carries no semantic meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// The `name → id` map; ids are handed out in interning order.
fn interner() -> &'static RwLock<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Chunk `k` of [`NAMES`] holds `1 << (FIRST_CHUNK_BITS + k)` names; small
/// enough that a process interning a few hundred names pays a few KB.
const FIRST_CHUNK_BITS: u32 = 8;

/// Chunks needed to cover every `u32` id.
const NAME_CHUNKS: usize = 33 - FIRST_CHUNK_BITS as usize;

/// The append-only `id → name` table, readable **without** the interner
/// lock: [`Symbol::as_str`] sits on the reshuffle and codec hot paths
/// (hash-partitioning a fact hashes its values' names), where a read-lock
/// round trip per value is measurable. Chunks double in size so a slot never
/// moves once written; slots are written under the interner's write lock,
/// strictly before the symbol that names them is handed out.
static NAMES: [OnceLock<Box<[OnceLock<&'static str>]>>; NAME_CHUNKS] =
    [const { OnceLock::new() }; NAME_CHUNKS];

/// The `(chunk, offset)` of symbol `id` in [`NAMES`].
fn name_slot(id: u32) -> (usize, usize) {
    let chunk = 31 - ((id >> FIRST_CHUNK_BITS) + 1).leading_zeros();
    let first_id = ((1u32 << chunk) - 1) << FIRST_CHUNK_BITS;
    (chunk as usize, (id - first_id) as usize)
}

/// Looks `name` up, interning it if it is new; the caller holds the write lock.
fn intern_locked(map: &mut HashMap<&'static str, u32>, name: &str) -> Symbol {
    if let Some(&id) = map.get(name) {
        return Symbol(id);
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let id = u32::try_from(map.len()).expect("interner overflow");
    let (chunk, offset) = name_slot(id);
    let slots = NAMES[chunk].get_or_init(|| {
        (0..1usize << (FIRST_CHUNK_BITS + chunk as u32))
            .map(|_| OnceLock::new())
            .collect()
    });
    slots[offset]
        .set(leaked)
        .expect("symbol ids are assigned once, under the write lock");
    map.insert(leaked, id);
    Symbol(id)
}

impl Symbol {
    /// See [`crate::Value::PAD`].
    pub(crate) const PAD: Symbol = Symbol(0);

    /// Interns `name` and returns its symbol.
    pub fn new(name: &str) -> Symbol {
        if let Some(&id) = interner().read().get(name) {
            return Symbol(id);
        }
        intern_locked(&mut interner().write(), name)
    }

    /// Interns every name of `names`, in order, taking the interner lock
    /// once per batch instead of once per name — a decoded message's whole
    /// symbol table goes through here. Known names resolve under the shared
    /// read lock; the write lock is taken from the first new name on.
    pub fn intern_all<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<Symbol> {
        let mut names = names.into_iter().peekable();
        let mut symbols = Vec::with_capacity(names.size_hint().0);
        {
            let known = interner().read();
            while let Some(&id) = names.peek().and_then(|name| known.get(name)) {
                symbols.push(Symbol(id));
                names.next();
            }
        }
        if names.peek().is_some() {
            let mut map = interner().write();
            symbols.extend(names.map(|name| intern_locked(&mut map, name)));
        }
        symbols
    }

    /// Returns the interned string. Lock-free: it reads the append-only
    /// name table, never the interner's map.
    pub fn as_str(self) -> &'static str {
        let (chunk, offset) = name_slot(self.0);
        NAMES[chunk]
            .get()
            .and_then(|slots| slots[offset].get())
            .expect("a symbol's name is stored before the symbol exists")
    }

    /// Numeric identity of the symbol (stable within a process run).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(value: &str) -> Self {
        Symbol::new(value)
    }
}

impl From<String> for Symbol {
    fn from(value: String) -> Self {
        Symbol::new(&value)
    }
}

/// A fast, deterministic hasher for symbol-backed keys (`Symbol`, `Value`,
/// `Variable` all hash through a single `u32` id).
///
/// The secondary indexes of [`crate::Instance`] key hash maps by data value
/// on the evaluator's hot path; SipHash (the `std` default) is overkill for
/// a 4-byte id, so this hasher applies one round of Fibonacci
/// multiply-and-xor-fold instead. It is *not* DoS-resistant — use it only
/// for keys derived from interned symbols.
#[derive(Clone, Copy, Debug, Default)]
pub struct SymbolHasher(u64);

impl Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        // Spread entropy into the low bits used for bucket selection.
        self.0 ^ (self.0 >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for composite keys; symbols take the write_u32 path.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// [`BuildHasher`] producing [`SymbolHasher`]s; plugs into `HashMap`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SymbolHashBuilder;

impl BuildHasher for SymbolHashBuilder {
    type Hasher = SymbolHasher;

    fn build_hasher(&self) -> SymbolHasher {
        SymbolHasher::default()
    }
}

/// A hash map keyed by interned-symbol-backed types, using [`SymbolHasher`].
pub type SymbolMap<K, V> = HashMap<K, V, SymbolHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("R");
        let b = Symbol::new("R");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "R");
    }

    #[test]
    fn batch_interning_equals_interning_one_by_one() {
        let known = Symbol::new("batch_known");
        let batch =
            Symbol::intern_all(["batch_known", "batch_new_1", "batch_known", "batch_new_2"]);
        assert_eq!(batch[0], known);
        assert_eq!(batch[2], known);
        assert_eq!(batch[1], Symbol::new("batch_new_1"));
        assert_eq!(batch[3], Symbol::new("batch_new_2"));
        let names: Vec<&str> = batch.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            ["batch_known", "batch_new_1", "batch_known", "batch_new_2"]
        );
        assert!(Symbol::intern_all([]).is_empty());
    }

    #[test]
    fn name_slots_tile_the_id_space_without_gaps() {
        // chunk k starts right after chunk k-1 and holds twice as many ids
        let first = 1u32 << FIRST_CHUNK_BITS;
        assert_eq!(name_slot(0), (0, 0));
        assert_eq!(name_slot(first - 1), (0, first as usize - 1));
        assert_eq!(name_slot(first), (1, 0));
        assert_eq!(name_slot(3 * first - 1), (1, 2 * first as usize - 1));
        assert_eq!(name_slot(3 * first), (2, 0));
        let (chunk, offset) = name_slot(u32::MAX);
        assert_eq!(chunk, NAME_CHUNKS - 1);
        assert!(offset < 1 << (FIRST_CHUNK_BITS as usize + chunk));
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::new("alpha");
        let b = Symbol::new("beta");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(b.as_str(), "beta");
    }

    #[test]
    fn display_matches_source_string() {
        let s = Symbol::new("Edge");
        assert_eq!(s.to_string(), "Edge");
        assert_eq!(format!("{s:?}"), "Symbol(\"Edge\")");
    }

    #[test]
    fn from_impls_intern() {
        let a: Symbol = "xyz".into();
        let b: Symbol = String::from("xyz").into();
        assert_eq!(a, b);
    }

    #[test]
    fn symbol_map_behaves_like_a_hash_map() {
        let mut map: SymbolMap<Symbol, usize> = SymbolMap::default();
        for i in 0..100 {
            map.insert(Symbol::new(&format!("k{i}")), i);
        }
        assert_eq!(map.len(), 100);
        for i in 0..100 {
            assert_eq!(map.get(&Symbol::new(&format!("k{i}"))), Some(&i));
        }
        assert_eq!(map.get(&Symbol::new("absent")), None);
    }

    #[test]
    fn symbol_hasher_distinguishes_ids() {
        use std::hash::{BuildHasher, Hash};
        let build = SymbolHashBuilder;
        let a = build.hash_one(Symbol::new("a"));
        let b = build.hash_one(Symbol::new("b"));
        assert_ne!(a, b);
        // hashing is deterministic
        let mut h = SymbolHasher::default();
        Symbol::new("a").hash(&mut h);
        assert_eq!(h.finish(), build.hash_one(Symbol::new("a")));
    }

    #[test]
    fn symbols_are_usable_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let sym = Symbol::new(&format!("T{}", i % 3));
                    sym.as_str().to_owned()
                })
            })
            .collect();
        for h in handles {
            let name = h.join().unwrap();
            assert!(name.starts_with('T'));
        }
    }
}
