//! Global string interner backing [`Symbol`].
//!
//! Relation names, variable names and data values are all short strings that
//! are compared and hashed extremely often by the search procedures in this
//! workspace. Interning turns those comparisons into integer comparisons and
//! makes all core types (`Atom`, `Fact`, `Valuation`, …) cheap to clone.
//!
//! Interned strings live for the duration of the process: the set of
//! distinct names appearing in queries, instances and generated workloads is
//! bounded by the input, so this is an intentional trade-off. They are not
//! leaked one heap block each, though — names are copied back to back into
//! a bump [`Arena`], and a name is hashed **once** per interning call: the
//! hash travels with the name through the read-locked probe, the
//! write-locked probe and the insert, and stays beside the entry so that a
//! growing table re-hashes no string either.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned string.
///
/// `Symbol` is a cheap (`Copy`) handle; two symbols are equal if and only if
/// the underlying strings are equal. Ordering is by interning order, which is
/// deterministic within a process run but carries no semantic meaning.
///
/// The interner hands out ids below 2³¹ only. The upper half of the id
/// space holds **opaque** symbols ([`Symbol::opaque`]): ids of *another*
/// process's interner, carried without their names — what a wire worker
/// holds for every data value. They compare, order and hash by id like any
/// symbol (so they keep their sender's order, after every interned symbol),
/// display as `#<id>`, and have no name here: [`Symbol::as_str`] answers a
/// placeholder, never another symbol's name and never a panic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// The first id the interner never hands out: the bit that marks an
/// [opaque](Symbol::opaque) symbol.
const OPAQUE: u32 = 1 << 31;

/// What [`Symbol::as_str`] answers for an opaque symbol.
const OPAQUE_NAME: &str = "#";

/// The id of the next interned name when `interned` names have one.
fn next_id(interned: usize) -> u32 {
    u32::try_from(interned)
        .ok()
        .filter(|&id| id < OPAQUE)
        .expect("interner overflow")
}

/// A name with its hash under the interner's process-keyed SipHash. As a
/// table key it compares the hash before touching the string and feeds the
/// table nothing but the hash.
#[derive(Clone, Copy)]
struct Hashed<'a> {
    hash: u64,
    name: &'a str,
}

impl PartialEq for Hashed<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.name == other.name
    }
}

impl Eq for Hashed<'_> {}

impl Hash for Hashed<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Forwards the hash a [`Hashed`] key already carries. The names come from
/// outside the program (instance files, wire frames), so the hash itself is
/// the keyed default — [`Interner::keys`] — and this only saves computing
/// it again.
#[derive(Default)]
struct ForwardedHash(u64);

impl Hasher for ForwardedHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a Hashed key hashes through write_u64 only");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The first [`Arena`] chunk: a process that interns a few hundred names
/// (every `pc` / `transfer` call) pays one page.
const FIRST_ARENA_CHUNK: usize = 4 << 10;

/// Arena chunks double up to this size.
const MAX_ARENA_CHUNK: usize = 256 << 10;

/// A name at least this long gets a heap block of its own instead of a
/// place in the arena, so what a chunk can waste at its end stays under
/// 1/16 of the smallest chunk.
const OWN_BLOCK_LEN: usize = FIRST_ARENA_CHUNK / 16;

/// Bump storage for interned names: leaked chunks, handed out front to back
/// by `split_at_mut`, never freed and never moved.
struct Arena {
    /// The unused tail of the newest chunk.
    free: &'static mut [u8],
    /// Size of the chunk to allocate when `free` runs out.
    next_chunk: usize,
}

impl Arena {
    /// Copies `name` into storage that lives as long as the process.
    fn store(&mut self, name: &str) -> &'static str {
        if name.len() >= OWN_BLOCK_LEN {
            return Box::leak(name.into());
        }
        if name.len() > self.free.len() {
            self.free = Box::leak(vec![0; self.next_chunk].into_boxed_slice());
            self.next_chunk = (2 * self.next_chunk).min(MAX_ARENA_CHUNK);
        }
        let (slot, free) = std::mem::take(&mut self.free).split_at_mut(name.len());
        self.free = free;
        slot.copy_from_slice(name.as_bytes());
        std::str::from_utf8(slot).expect("the bytes of a str are UTF-8")
    }
}

/// The `name → id` table with the storage behind its keys; ids are handed
/// out in interning order.
struct Table {
    ids: HashMap<Hashed<'static>, u32, BuildHasherDefault<ForwardedHash>>,
    arena: Arena,
}

impl Table {
    // `intern_all` is generic, so its loops are compiled in the caller's
    // crate: without the hints every name pays two calls back into this one.
    #[inline]
    fn get(&self, name: Hashed<'_>) -> Option<Symbol> {
        self.ids.get(&name).map(|&id| Symbol(id))
    }

    /// Looks `name` up, interning it if it is new.
    fn intern(&mut self, name: Hashed<'_>) -> Symbol {
        if let Some(symbol) = self.get(name) {
            return symbol;
        }
        let stored = self.arena.store(name.name);
        let id = next_id(self.ids.len());
        let (chunk, offset) = name_slot(id);
        let slots = NAMES[chunk].get_or_init(|| {
            (0..1usize << (FIRST_CHUNK_BITS + chunk as u32))
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[offset]
            .set(stored)
            .expect("symbol ids are assigned once, under the write lock");
        self.ids.insert(
            Hashed {
                hash: name.hash,
                name: stored,
            },
            id,
        );
        INTERNED.store(id + 1, Ordering::Release);
        Symbol(id)
    }
}

struct Interner {
    /// The per-process SipHash keys every name is hashed under.
    keys: RandomState,
    table: RwLock<Table>,
}

impl Interner {
    // A poisoned lock is recovered: a panic inside `Table::intern` happens
    // before the name is entered, so the table stays consistent, and one
    // failed intern must not fail every later one.
    #[inline]
    fn read(&self) -> RwLockReadGuard<'_, Table> {
        self.table.read().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    fn write(&self) -> RwLockWriteGuard<'_, Table> {
        self.table.write().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    fn hashed<'a>(&self, name: &'a str) -> Hashed<'a> {
        Hashed {
            hash: self.keys.hash_one(name),
            name,
        }
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        keys: RandomState::new(),
        table: RwLock::new(Table {
            ids: HashMap::default(),
            arena: Arena {
                free: &mut [],
                next_chunk: FIRST_ARENA_CHUNK,
            },
        }),
    })
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

/// How many names have been interned: every id below it is a symbol whose
/// name is in [`NAMES`]. Stored (`Release`) under the interner's write
/// lock, after the name; loaded (`Acquire`) without any lock by
/// [`Symbol::from_id`], which a reply decoder asks once per value — so a
/// thread that is told an id exists also sees its name.
static INTERNED: AtomicU32 = AtomicU32::new(0);

/// The `(chunk, offset)` of symbol `id` in [`NAMES`].
fn name_slot(id: u32) -> (usize, usize) {
    let chunk = 31 - ((id >> FIRST_CHUNK_BITS) + 1).leading_zeros();
    let first_id = ((1u32 << chunk) - 1) << FIRST_CHUNK_BITS;
    (chunk as usize, (id - first_id) as usize)
}

impl Symbol {
    /// See [`crate::Value::PAD`].
    pub(crate) const PAD: Symbol = Symbol(0);

    /// Interns `name` and returns its symbol.
    pub fn new(name: &str) -> Symbol {
        let interner = interner();
        let name = interner.hashed(name);
        if let Some(symbol) = interner.read().get(name) {
            return symbol;
        }
        interner.write().intern(name)
    }

    /// Interns every name of `names`, in order, taking the interner lock
    /// once per batch instead of once per name — a decoded message's whole
    /// symbol table goes through here. Known names resolve under the shared
    /// read lock; the write lock is taken from the first new name on.
    pub fn intern_all<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<Symbol> {
        let interner = interner();
        let mut names = names.into_iter().map(|name| interner.hashed(name));
        let mut symbols = Vec::with_capacity(names.size_hint().0);
        let mut first_new = None;
        {
            let table = interner.read();
            for name in names.by_ref() {
                match table.get(name) {
                    Some(symbol) => symbols.push(symbol),
                    None => {
                        first_new = Some(name);
                        break;
                    }
                }
            }
        }
        if let Some(first_new) = first_new {
            let mut table = interner.write();
            symbols.push(table.intern(first_new));
            symbols.extend(names.map(|name| table.intern(name)));
        }
        symbols
    }

    /// Returns the interned string — for an [opaque](Symbol::opaque)
    /// symbol, which has none, the placeholder `#`. Lock-free: it reads the
    /// append-only name table, never the interner's map.
    pub fn as_str(self) -> &'static str {
        if self.is_opaque() {
            return OPAQUE_NAME;
        }
        let (chunk, offset) = name_slot(self.0);
        NAMES[chunk]
            .get()
            .and_then(|slots| slots[offset].get())
            .expect("a symbol's name is stored before the symbol exists")
    }

    /// Numeric identity of the symbol (stable within a process run): for an
    /// interned symbol the id the interner gave it, for an opaque one the
    /// id it was [made](Symbol::opaque) from.
    pub fn id(self) -> u32 {
        self.0 & !OPAQUE
    }

    /// The symbol this process interned as `id`, or `None` if it never
    /// interned that many names — an id read off a wire is checked here,
    /// never trusted. Lock-free: one load of a counter.
    pub fn from_id(id: u32) -> Option<Symbol> {
        (id < INTERNED.load(Ordering::Acquire)).then_some(Symbol(id))
    }

    /// The nameless symbol standing for id `id` of another process's
    /// interner, or `None` for an id no interner hands out (≥ 2³¹).
    pub fn opaque(id: u32) -> Option<Symbol> {
        (id < OPAQUE).then_some(Symbol(id | OPAQUE))
    }

    /// Whether the symbol is [opaque](Symbol::opaque).
    pub fn is_opaque(self) -> bool {
        self.0 >= OPAQUE
    }

    /// The whole 32-bit id, opaque bit included: it orders as the symbol
    /// does, so packed side by side such ids order as the symbols would.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// The symbol whose [`Symbol::raw`] id is `raw`, unchecked: only ever
    /// given back what `raw` answered.
    pub(crate) fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_opaque() {
            return write!(f, "Symbol({self})");
        }
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_opaque() {
            return write!(f, "#{}", self.id());
        }
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
/// The evaluator's answer set and the tuple-keyed tables of the decision
/// procedures probe hash maps by data value on their hot paths; SipHash (the
/// `std` default) is overkill for a 4-byte id, so this hasher applies one
/// round of Fibonacci multiply-and-xor-fold per word instead — an id, the
/// length prefix of a tuple key, the evaluator's packed `u64` answer key or
/// either half of a `u128` one. It is *not* DoS-resistant — use it
/// only for keys derived from interned symbols.
#[derive(Clone, Copy, Debug, Default)]
pub struct SymbolHasher(u64);

impl SymbolHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        // Spread entropy into the low bits used for bucket selection.
        self.0 ^ (self.0 >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for composite keys; symbols and lengths take the word
        // paths below.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.fold(u64::from(id));
    }

    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    fn write_usize(&mut self, length: usize) {
        self.fold(length as u64);
    }

    /// A packed answer key: its high word, then its low word.
    fn write_u128(&mut self, key: u128) {
        self.fold((key >> 64) as u64);
        self.fold(key as u64);
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
    fn opaque_symbols_carry_an_id_and_no_name() {
        let seven = Symbol::opaque(7).unwrap();
        assert!(seven.is_opaque());
        assert_eq!(seven.id(), 7);
        assert_eq!(seven.to_string(), "#7");
        assert_eq!(format!("{seven:?}"), "Symbol(#7)");
        // no name, and no panic asking for one
        assert_eq!(seven.as_str(), "#");
        // the sender's order, after everything interned here
        assert!(seven < Symbol::opaque(8).unwrap());
        assert!(Symbol::new("opaque_neighbour") < Symbol::opaque(0).unwrap());
        assert_ne!(Symbol::opaque(0).unwrap(), Symbol::PAD);
        // the ids no interner hands out are no opaque ids either
        assert_eq!(Symbol::opaque((1 << 31) - 1).unwrap().id(), (1 << 31) - 1);
        assert_eq!(Symbol::opaque(1 << 31), None);
        assert_eq!(Symbol::opaque(u32::MAX), None);
    }

    #[test]
    fn from_id_resolves_only_what_was_interned() {
        let known = Symbol::new("from_id_known");
        assert!(!known.is_opaque());
        assert_eq!(Symbol::from_id(known.id()), Some(known));
        // far past anything a test process interns, but inside the range
        assert_eq!(Symbol::from_id((1 << 31) - 1), None);
        // an opaque id is nobody's interned id
        assert_eq!(Symbol::from_id(1 << 31), None);
        assert_eq!(Symbol::from_id(u32::MAX), None);
    }

    #[test]
    fn the_interner_hands_out_ids_below_the_opaque_range() {
        assert_eq!(next_id(0), 0);
        assert_eq!(next_id((1 << 31) - 1), (1 << 31) - 1);
    }

    #[test]
    #[should_panic(expected = "interner overflow")]
    fn the_interner_refuses_an_id_in_the_opaque_range() {
        next_id(1 << 31);
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
    fn a_tuple_key_hashes_in_one_step_per_word() {
        use std::hash::BuildHasher;
        // The length prefix of a slice is one fold like every id after it:
        // the byte-wise fallback would take eight dependent steps for it.
        let ids = ["a", "b", "c"].map(Symbol::new);
        let mut by_word = SymbolHasher::default();
        by_word.fold(ids.len() as u64);
        for id in ids {
            by_word.fold(u64::from(id.id()));
        }
        assert_eq!(SymbolHashBuilder.hash_one(&ids[..]), by_word.finish());
        assert_eq!(SymbolHashBuilder.hash_one(ids.to_vec()), by_word.finish());
        // …and the prefix still tells a tuple from its extension by id 0
        let mut longer = SymbolHasher::default();
        longer.write_usize(1);
        longer.write_u32(0);
        let mut shorter = SymbolHasher::default();
        shorter.write_usize(0);
        assert_ne!(longer.finish(), shorter.finish());
        let mut wide = SymbolHasher::default();
        wide.write_u64(u64::MAX);
        let mut narrow = SymbolHasher::default();
        narrow.write_u32(u32::MAX);
        assert_ne!(wide.finish(), narrow.finish());
        // A packed answer key is two folds, high word first — not the
        // sixteen steps of the byte-wise fallback.
        let key = u128::from(ids[0].raw()) << 96 | u128::from(Symbol::opaque(9).unwrap().raw());
        let mut halves = SymbolHasher::default();
        halves.fold((key >> 64) as u64);
        halves.fold(key as u64);
        assert_eq!(SymbolHashBuilder.hash_one(key), halves.finish());
        let mut bytes = SymbolHasher::default();
        bytes.write(&key.to_ne_bytes());
        assert_ne!(SymbolHashBuilder.hash_one(key), bytes.finish());
        let swapped = key.rotate_left(64);
        assert_ne!(SymbolHashBuilder.hash_one(swapped), halves.finish());
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
