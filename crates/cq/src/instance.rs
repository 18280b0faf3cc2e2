//! Database instances: finite sets of facts with per-relation indexes.

use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use crate::fact::{Fact, Tuple};
use crate::intern::{Symbol, SymbolMap};
use crate::schema::Schema;
use crate::value::Value;

/// Secondary hash index for one relation: for every argument position, a map
/// from data value to the (sorted, ascending) positions in the relation's
/// fact vector whose tuple carries that value at that position.
///
/// Facts shorter than a position simply do not appear in that position's
/// map, so mixed-arity (ill-formed) relations index safely; the evaluator
/// re-checks arity when matching.
#[derive(Debug, Default)]
struct RelationIndex {
    by_position: Vec<SymbolMap<Value, Vec<u32>>>,
}

impl RelationIndex {
    /// Appends one fact's postings for the row that is about to be pushed at
    /// the end of the relation's fact vector. Because `row` is larger than
    /// every row already indexed, pushing keeps the posting lists sorted —
    /// this is what makes insertion maintain the index instead of
    /// invalidating it.
    fn append(&mut self, row: u32, fact: &Fact) {
        if fact.arity() > self.by_position.len() {
            self.by_position
                .resize_with(fact.arity(), SymbolMap::default);
        }
        for (position, &value) in fact.values.iter().enumerate() {
            self.by_position[position]
                .entry(value)
                .or_default()
                .push(row);
        }
    }

    fn build(facts: &[Fact]) -> RelationIndex {
        let max_arity = facts.iter().map(Fact::arity).max().unwrap_or(0);
        let mut by_position: Vec<SymbolMap<Value, Vec<u32>>> = Vec::with_capacity(max_arity);
        by_position.resize_with(max_arity, SymbolMap::default);
        for (row, fact) in facts.iter().enumerate() {
            let row = u32::try_from(row).expect("relation larger than u32::MAX facts");
            for (position, &value) in fact.values.iter().enumerate() {
                by_position[position].entry(value).or_default().push(row);
            }
        }
        RelationIndex { by_position }
    }

    fn posting(&self, position: usize, value: Value) -> &[u32] {
        self.by_position
            .get(position)
            .and_then(|m| m.get(&value))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn distinct_values_at(&self, position: usize) -> usize {
        self.by_position.get(position).map_or(0, SymbolMap::len)
    }
}

/// One relation of an instance, resolved once: its rows and — on the first
/// probe — its secondary index. The join kernel takes one view per body atom,
/// so a posting lookup inside the search is a single hash probe instead of
/// the `OnceLock` → relation map → position map walk of
/// [`Instance::posting`]. The index is resolved lazily so an evaluation that
/// never probes (a single-atom scan, the pivot of a semi-naive pass) never
/// builds one.
pub(crate) struct RelationView<'a> {
    /// The relation's rows ([`Instance::facts_of`]).
    pub(crate) facts: &'a [Fact],
    /// Where the index comes from; `None` for index-free evaluation.
    source: Option<(&'a Instance, Symbol)>,
    index: Cell<Option<&'a RelationIndex>>,
}

impl<'a> RelationView<'a> {
    /// Whether the view may be probed; an unindexed view is scanned.
    pub(crate) fn is_indexed(&self) -> bool {
        self.source.is_some()
    }

    fn index(&self) -> Option<&'a RelationIndex> {
        if self.index.get().is_none() && !self.facts.is_empty() {
            if let Some((instance, relation)) = self.source {
                self.index.set(instance.indexes().get(&relation));
            }
        }
        self.index.get()
    }

    /// [`Instance::posting`] for this relation.
    pub(crate) fn posting(&self, position: usize, value: Value) -> &'a [u32] {
        self.index()
            .map_or(&[], |index| index.posting(position, value))
    }

    /// [`Instance::distinct_values_at`] for this relation.
    pub(crate) fn distinct_values_at(&self, position: usize) -> usize {
        self.index()
            .map_or(0, |index| index.distinct_values_at(position))
    }
}

/// One relation's rows of one arity, their columns permuted and the rows
/// sorted lexicographically, laid out flat and row-major: the trie the
/// multiway join walks. Column `c` holds argument position `columns[c]`, so
/// the rows agreeing on their first `c` columns are one contiguous range in
/// which column `c` ascends.
pub(crate) struct SortedOrder {
    relation: Symbol,
    columns: Box<[usize]>,
    /// Kept apart from `values`: a nullary row has none.
    rows: usize,
    values: Vec<Value>,
}

impl SortedOrder {
    fn build(relation: Symbol, columns: &[usize], facts: &[Fact]) -> SortedOrder {
        let arity = columns.len();
        let mut values = Vec::with_capacity(arity * facts.len());
        let mut rows = 0;
        // A fact only matches an atom of its own arity.
        for fact in facts.iter().filter(|fact| fact.arity() == arity) {
            values.extend(columns.iter().map(|&position| fact.values[position]));
            rows += 1;
        }
        // The identity order over bulk-built rows is sorted as it stands.
        if arity > 0 && !values.chunks_exact(arity).is_sorted() {
            let mut sorted: Vec<&[Value]> = values.chunks_exact(arity).collect();
            sorted.sort_unstable();
            values = sorted.concat();
        }
        SortedOrder {
            relation,
            columns: columns.into(),
            rows,
            values,
        }
    }

    /// The number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The rows, flat: row `r` is `values()[r * arity()..][..arity()]`.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }
}

/// One cached [`SortedOrder`] and the link to the next: an append-only list,
/// so an order handed out stays put while later ones are added through
/// `&self`.
struct OrderNode {
    order: SortedOrder,
    next: OnceLock<Box<OrderNode>>,
}

/// One relation's facts: the rows behind [`Instance::facts_of`].
#[derive(Clone, Default)]
struct Relation {
    /// Append-only between two `remove`s, so the row ids in the posting
    /// lists stay valid while the relation grows.
    rows: Vec<Fact>,
    /// `rows[..sorted]` is strictly ascending; the rows past it arrived out
    /// of order and are also in [`Instance::late`].
    sorted: usize,
}

/// A database instance: a finite set of facts.
///
/// Every fact is stored **once**, in its relation's row vector
/// ([`Instance::facts_of`]). A relation's rows are strictly ascending — all
/// of them when the instance was bulk-built ([`Instance::from_facts`], a
/// decode, a `distribute` chunk, an `Extend` into an empty instance) or
/// grown in ascending order — so membership is a binary search and
/// [`Instance::facts`] walks relation after relation. Only a fact inserted
/// *out of order into a non-empty relation* (an accumulator absorbing a
/// later round) is also remembered in a small ordered side set that
/// `facts()` merges in: iteration order, equality, ordering, hashing and the
/// wire bytes depend on the fact set alone, never on how it was built.
///
/// Per-relation secondary hash indexes keyed by `(argument position,
/// value)`, built lazily on first use, let the evaluator retrieve only the
/// candidate facts matching a partially bound atom. Insertion maintains
/// built indexes incrementally (appended row ids keep the posting lists
/// sorted); `remove` invalidates them, and they are rebuilt in one pass on
/// the next indexed lookup.
///
/// The multiway join reads neither: it walks *sorted column orders* — a
/// relation's rows of one arity with the columns permuted into the order
/// the search binds them, sorted, flat (4·arity bytes a row). Each asked-for
/// `(relation, column order)` is built once, on first use, and cached; any
/// change of the fact set — an `insert` that adds a fact, any `remove` —
/// drops every cached order, so none can be observed stale.
///
/// Both caches are invisible: clones start without them, and equality,
/// order, hash, `Display` and the wire codec read the fact set only.
#[derive(Default)]
pub struct Instance {
    relations: BTreeMap<Symbol, Relation>,
    /// The facts past their relation's ascending prefix, in order. Empty
    /// unless facts were inserted out of order.
    late: BTreeSet<Fact>,
    len: usize,
    indexes: OnceLock<BTreeMap<Symbol, RelationIndex>>,
    /// How many times the secondary indexes were built from scratch over
    /// this instance's lifetime — the regression counter behind
    /// [`Instance::index_builds`]. Atomic because lazily building through
    /// `&self` must stay `Sync`.
    index_builds: AtomicU64,
    /// The sorted column orders asked for since the fact set last changed.
    orders: OnceLock<Box<OrderNode>>,
}

// The secondary indexes and the sorted orders are caching layers: they are
// never cloned (the clone rebuilds lazily if and when it evaluates
// queries). The build counter restarts with the fresh cache.
impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            relations: self.relations.clone(),
            late: self.late.clone(),
            len: self.len,
            ..Instance::default()
        }
    }
}

// Equality, order and hash are on the fact set only: they read the one
// sorted `facts()` order, whatever the rows' insertion order.
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.facts().eq(other.facts())
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> Ordering {
        self.facts().cmp(other.facts())
    }
}

impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        self.facts().for_each(|fact| fact.hash(state));
    }
}

/// [`Instance::facts`]: the relations' ascending prefixes, one after the
/// other, merged with the out-of-order side set.
struct Facts<'a> {
    relations: std::collections::btree_map::Values<'a, Symbol, Relation>,
    run: std::slice::Iter<'a, Fact>,
    late: std::iter::Peekable<std::collections::btree_set::Iter<'a, Fact>>,
    remaining: usize,
}

impl<'a> Iterator for Facts<'a> {
    type Item = &'a Fact;

    fn next(&mut self) -> Option<&'a Fact> {
        self.remaining = self.remaining.saturating_sub(1);
        loop {
            let Some(next) = self.run.as_slice().first() else {
                match self.relations.next() {
                    Some(relation) => self.run = relation.rows[..relation.sorted].iter(),
                    None => return self.late.next(),
                }
                continue;
            };
            return match self.late.peek() {
                Some(&late) if late < next => self.late.next(),
                _ => self.run.next(),
            };
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from an iterator of facts (duplicates collapse).
    ///
    /// This is the bulk builder every reshuffle, decode and merge goes
    /// through: one sort + dedup, then the sorted run is cut into its
    /// relations' row vectors — facts are moved, never copied, and nothing
    /// else is built. The sort is a run-detecting merge sort, so input that
    /// is already sorted — a chunk cut out of another instance, or several
    /// such chunks concatenated — costs a linear pass. `facts_of(relation)`
    /// of the result is in [`Instance::facts`] order; the side set is empty.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(facts: I) -> Instance {
        let mut rows: Vec<Fact> = facts.into_iter().collect();
        rows.sort();
        rows.dedup();
        let len = rows.len();
        // `Fact` orders by relation first, so every relation is one run;
        // cutting them off the back moves each fact once.
        let mut relations = BTreeMap::new();
        while let Some(last) = rows.last() {
            let relation = last.relation;
            let start = rows.partition_point(|fact| fact.relation < relation);
            let run = if start == 0 {
                rows.shrink_to_fit();
                std::mem::take(&mut rows)
            } else {
                rows.split_off(start)
            };
            let sorted = run.len();
            relations.insert(relation, Relation { rows: run, sorted });
        }
        Instance {
            relations,
            len,
            ..Instance::default()
        }
    }

    /// The complete instance over `schema` with values drawn from `values`:
    /// every relation contains every possible tuple.
    ///
    /// This is the finite fact universe used when checking
    /// parallel-correctness of black-box policies over a bounded domain (the
    /// `Pⁿ` restriction of Section 3 of the paper). The size is
    /// `Σ_R |values|^{ar(R)}`, so keep `values` small.
    pub fn complete_over(schema: &Schema, values: &[Value]) -> Instance {
        let mut facts = Vec::new();
        for rel in schema.relations() {
            // every `arity`-digit number in base `|values|` (0⁰ = 1: the
            // nullary fact exists over an empty domain)
            let arity = u32::try_from(rel.arity).expect("arity fits u32");
            let tuples = values.len().checked_pow(arity).expect("universe too large");
            facts.extend((0..tuples).map(|mut digits| {
                let tuple = (0..rel.arity).map(|_| {
                    let digit = digits % values.len();
                    digits /= values.len();
                    values[digit]
                });
                Fact::new(rel.name, Tuple::from_iter(tuple))
            }));
        }
        Instance::from_facts(facts)
    }

    /// Inserts a fact. Returns `true` if the fact was not already present.
    ///
    /// One membership search decides: a fact above its relation's ascending
    /// rows is appended after a single comparison, anything else is looked up
    /// by binary search, and a fact that is already there — the common case
    /// when a round re-derives old facts — costs that search and no copy. A
    /// new fact that arrives out of order is appended all the same (rows
    /// never move) and remembered in the side set.
    ///
    /// If the secondary indexes are already built, they are **maintained
    /// incrementally**: the new fact is appended to the per-position posting
    /// lists (which stay sorted, because the new row id is the largest), so
    /// growing an instance — the hot path of delta-driven multi-round
    /// evaluation — never throws away index work. Only [`Instance::remove`]
    /// still invalidates. The sorted column orders of the multiway join are
    /// not maintained: a fact that is added drops them.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.insert_cow(Cow::Owned(fact))
    }

    /// [`Instance::insert`] for a borrowed fact: copies it only when it is
    /// not already present.
    pub fn insert_cloned(&mut self, fact: &Fact) -> bool {
        self.insert_cow(Cow::Borrowed(fact))
    }

    fn insert_cow(&mut self, fact: Cow<'_, Fact>) -> bool {
        let relation = self.relations.entry(fact.relation).or_default();
        let ascending = &relation.rows[..relation.sorted];
        let above = ascending.last().is_none_or(|last| *last < *fact);
        if above && relation.sorted == relation.rows.len() {
            relation.sorted += 1;
        } else if (!above && ascending.binary_search(&fact).is_ok())
            || !self.late.insert(Fact::clone(&fact))
        {
            return false;
        }
        if let Some(indexes) = self.indexes.get_mut() {
            let row = u32::try_from(relation.rows.len()).expect("relation larger than u32::MAX");
            indexes.entry(fact.relation).or_default().append(row, &fact);
        }
        relation.rows.push(fact.into_owned());
        self.len += 1;
        self.orders = OnceLock::new();
        true
    }

    /// Removes a fact. Returns `true` if it was present.
    ///
    /// Invalidates the secondary indexes (the rows behind it move up) and the
    /// sorted orders. The scan starts at the back, where an undo finds what
    /// it just inserted.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(relation) = self.relations.get_mut(&fact.relation) else {
            return false;
        };
        let Some(row) = relation.rows.iter().rposition(|row| row == fact) else {
            return false;
        };
        relation.rows.remove(row);
        if row < relation.sorted {
            relation.sorted -= 1;
        } else {
            self.late.remove(fact);
        }
        self.len -= 1;
        self.invalidate_indexes();
        self.orders = OnceLock::new();
        true
    }

    /// Drops the lazily built secondary indexes; the next indexed lookup
    /// rebuilds them from the current fact set.
    fn invalidate_indexes(&mut self) {
        self.indexes = OnceLock::new();
    }

    /// The secondary indexes, building them on first use.
    fn indexes(&self) -> &BTreeMap<Symbol, RelationIndex> {
        self.indexes.get_or_init(|| {
            self.index_builds.fetch_add(1, Relaxed);
            self.relations
                .iter()
                .map(|(&rel, relation)| (rel, RelationIndex::build(&relation.rows)))
                .collect()
        })
    }

    /// Whether the secondary indexes are currently built (test/diagnostic
    /// hook; lookups build them transparently).
    pub fn indexes_built(&self) -> bool {
        self.indexes.get().is_some()
    }

    /// How many times this instance built its secondary indexes from
    /// scratch (incremental insert maintenance does not count; `remove`
    /// invalidates, so the next lookup counts again). Regression tests pin
    /// this to catch code that rebuilds per candidate instead of reusing a
    /// warm instance; clones restart at 0.
    pub fn index_builds(&self) -> u64 {
        self.index_builds.load(Relaxed)
    }

    /// The sorted positions (into [`Instance::facts_of`]) of the facts of
    /// `relation` whose tuple has `value` at argument position `position`.
    ///
    /// Builds the secondary index for the instance on first use. Facts
    /// shorter than `position` never appear in the posting list.
    pub fn posting(&self, relation: Symbol, position: usize, value: Value) -> &[u32] {
        self.indexes()
            .get(&relation)
            .map(|idx| idx.posting(position, value))
            .unwrap_or(&[])
    }

    /// The rows of `relation` with (when `indexed`) lazy access to its
    /// secondary index, resolved once for a whole evaluation.
    pub(crate) fn view(&self, relation: Symbol, indexed: bool) -> RelationView<'_> {
        RelationView {
            facts: self.facts_of(relation),
            source: indexed.then_some((self, relation)),
            index: Cell::new(None),
        }
    }

    /// The rows of `relation` with as many values as `columns` has entries,
    /// column `c` holding argument position `columns[c]`, sorted — built on
    /// first use and shared by every later caller (from any thread) until
    /// the fact set changes.
    pub(crate) fn sorted_order(&self, relation: Symbol, columns: &[usize]) -> &SortedOrder {
        let mut link = &self.orders;
        loop {
            // Losing the race for the end of the list hands back the
            // winner's node, which is checked like any other.
            let node = link.get_or_init(|| {
                let order = SortedOrder::build(relation, columns, self.facts_of(relation));
                let next = OnceLock::new();
                Box::new(OrderNode { order, next })
            });
            if node.order.relation == relation && *node.order.columns == *columns {
                return &node.order;
            }
            link = &node.next;
        }
    }

    /// The number of facts of `relation` with `value` at `position`
    /// (posting-list length; exact, not an estimate).
    pub fn count_matching(&self, relation: Symbol, position: usize, value: Value) -> usize {
        self.posting(relation, position, value).len()
    }

    /// The number of distinct values occurring at argument position
    /// `position` of `relation`. Cost estimation uses this as the
    /// denominator of the average selectivity `|R| / distinct`.
    pub fn distinct_values_at(&self, relation: Symbol, position: usize) -> usize {
        self.indexes()
            .get(&relation)
            .map_or(0, |idx| idx.distinct_values_at(position))
    }

    /// Whether the instance contains `fact`: a binary search of its
    /// relation's ascending rows, then of the (usually empty) side set.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations.get(&fact.relation).is_some_and(|relation| {
            relation.rows[..relation.sorted].binary_search(fact).is_ok() || self.late.contains(fact)
        })
    }

    /// Whether `other` is a subset of this instance.
    pub fn contains_all(&self, other: &Instance) -> bool {
        other.len <= self.len && other.facts().all(|fact| self.contains(fact))
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all facts in ascending order — the one order equality,
    /// hashing, `Display` and the wire bytes are defined by.
    pub fn facts(&self) -> impl Iterator<Item = &Fact> + '_ {
        Facts {
            relations: self.relations.values(),
            run: [].iter(),
            late: self.late.iter().peekable(),
            remaining: self.len,
        }
    }

    /// The facts of relation `relation` (empty slice if none): the rows
    /// [`Instance::posting`] indexes into — ascending for a bulk-built
    /// instance, later inserts following in insertion order.
    pub fn facts_of(&self, relation: Symbol) -> &[Fact] {
        self.relations
            .get(&relation)
            .map_or(&[], |relation| &relation.rows)
    }

    /// The active domain: all data values occurring in the instance.
    pub fn adom(&self) -> BTreeSet<Value> {
        self.facts()
            .flat_map(|f| f.values.iter().copied())
            .collect()
    }

    /// The schema induced by the instance (each relation with the arity of
    /// its facts). Mixed arities for the same relation keep the first arity
    /// seen; [`Instance::is_well_formed`] reports such anomalies.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for f in self.facts() {
            if schema.arity(f.relation).is_none() {
                schema.add(f.relation, f.arity());
            }
        }
        schema
    }

    /// Checks that every relation is used with a single arity.
    pub fn is_well_formed(&self) -> bool {
        let schema = self.schema();
        self.facts().all(|f| schema.admits(f))
    }

    /// Set union.
    pub fn union(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.facts().chain(other.facts()).cloned())
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.facts().filter(|f| other.contains(f)).cloned())
    }

    /// Facts of `self` not in `other`.
    pub fn difference(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.facts().filter(|f| !other.contains(f)).cloned())
    }

    /// All subsets of this instance (used by brute-force cross-checks in
    /// tests; exponential, only call on tiny instances).
    pub fn subsets(&self) -> Vec<Instance> {
        let facts: Vec<&Fact> = self.facts().collect();
        assert!(
            facts.len() <= 20,
            "subsets() is exponential; instance too large ({} facts)",
            facts.len()
        );
        let mut out = Vec::with_capacity(1 << facts.len());
        for mask in 0..(1usize << facts.len()) {
            let mut inst = Instance::new();
            for (i, f) in facts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    inst.insert((*f).clone());
                }
            }
            out.push(inst);
        }
        out
    }

    /// Converts to a plain ordered set of facts.
    pub fn to_set(&self) -> BTreeSet<Fact> {
        self.facts().cloned().collect()
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        Instance::from_facts(iter)
    }
}

impl Extend<Fact> for Instance {
    /// Growing an empty instance is a bulk build ([`Instance::from_facts`]);
    /// growing a non-empty one inserts fact by fact, which keeps its
    /// secondary indexes warm.
    fn extend<T: IntoIterator<Item = Fact>>(&mut self, iter: T) {
        if self.is_empty() {
            *self = Instance::from_facts(iter);
        } else {
            for f in iter {
                self.insert(f);
            }
        }
    }
}

impl<'a> Extend<&'a Fact> for Instance {
    /// Grows the instance from borrowed facts, copying only the ones it
    /// does not hold yet — merging a round's output into an accumulated
    /// state costs nothing per re-derived fact.
    fn extend<T: IntoIterator<Item = &'a Fact>>(&mut self, iter: T) {
        if self.is_empty() {
            self.extend(iter.into_iter().cloned());
        } else {
            for fact in iter {
                self.insert_cloned(fact);
            }
        }
    }
}

impl IntoIterator for Instance {
    type Item = Fact;
    type IntoIter = std::vec::IntoIter<Fact>;

    /// The facts by value, in the order of [`Instance::facts`] — merging
    /// instances moves facts instead of cloning them.
    fn into_iter(self) -> Self::IntoIter {
        let mut facts = Vec::with_capacity(self.len);
        for mut relation in self.relations.into_values() {
            relation.rows.truncate(relation.sorted);
            facts.append(&mut relation.rows);
        }
        if !self.late.is_empty() {
            // two ascending runs: the stable sort merges them in one pass
            facts.extend(self.late);
            facts.sort();
        }
        facts.into_iter()
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.facts().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["b", "c"]),
            Fact::from_names("S", &["a"]),
        ])
    }

    /// The facts a posting list resolves to — row ids themselves are
    /// unspecified, so tests compare what the rows *are*.
    fn posted(i: &Instance, relation: &str, position: usize, value: &str) -> BTreeSet<Fact> {
        let relation = Symbol::new(relation);
        i.posting(relation, position, Value::new(value))
            .iter()
            .map(|&row| i.facts_of(relation)[row as usize].clone())
            .collect()
    }

    fn edge(a: &str, b: &str) -> Fact {
        Fact::from_names("R", &[a, b])
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut i = sample();
        assert_eq!(i.len(), 3);
        assert!(!i.insert(Fact::from_names("R", &["a", "b"])));
        assert_eq!(i.len(), 3);
        assert!(i.insert(Fact::from_names("R", &["c", "d"])));
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn remove_updates_index() {
        let mut i = sample();
        let f = Fact::from_names("R", &["a", "b"]);
        assert!(i.remove(&f));
        assert!(!i.contains(&f));
        assert_eq!(i.facts_of(Symbol::new("R")).len(), 1);
        assert!(!i.remove(&f));
    }

    #[test]
    fn facts_of_partitions_by_relation() {
        let i = sample();
        assert_eq!(i.facts_of(Symbol::new("R")).len(), 2);
        assert_eq!(i.facts_of(Symbol::new("S")).len(), 1);
        assert_eq!(i.facts_of(Symbol::new("T")).len(), 0);
    }

    #[test]
    fn adom_collects_all_values() {
        let i = sample();
        let adom = i.adom();
        assert_eq!(adom.len(), 3);
        assert!(adom.contains(&Value::new("a")));
        assert!(adom.contains(&Value::new("c")));
    }

    #[test]
    fn schema_and_well_formedness() {
        let i = sample();
        let schema = i.schema();
        assert_eq!(schema.arity(Symbol::new("R")), Some(2));
        assert_eq!(schema.arity(Symbol::new("S")), Some(1));
        assert!(i.is_well_formed());

        let mut bad = sample();
        bad.insert(Fact::from_names("R", &["x"]));
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn set_operations() {
        let i = sample();
        let j = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("T", &["z"]),
        ]);
        assert_eq!(i.union(&j).len(), 4);
        assert_eq!(i.intersection(&j).len(), 1);
        assert_eq!(i.difference(&j).len(), 2);
        assert!(i.union(&j).contains_all(&i));
    }

    #[test]
    fn subsets_enumerates_the_powerset() {
        let i = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("S", &["a"]),
        ]);
        let subs = i.subsets();
        assert_eq!(subs.len(), 4);
        assert!(subs.iter().any(|s| s.is_empty()));
        assert!(subs.iter().any(|s| s == &i));
    }

    #[test]
    fn complete_over_enumerates_all_tuples() {
        let schema = crate::Schema::from_relations([("R", 2), ("S", 1), ("B", 0)]);
        let values = [Value::new("a"), Value::new("b"), Value::new("c")];
        let inst = Instance::complete_over(&schema, &values);
        // 3^2 + 3 + 1 tuples
        assert_eq!(inst.len(), 9 + 3 + 1);
        assert!(inst.contains(&Fact::from_names("R", &["c", "a"])));
        assert!(inst.contains(&Fact::from_names("S", &["b"])));
        assert!(inst.contains(&Fact::from_names("B", &[])));
        assert!(inst.is_well_formed());
    }

    #[test]
    fn complete_over_with_empty_domain() {
        let schema = crate::Schema::from_relations([("R", 2), ("B", 0)]);
        let inst = Instance::complete_over(&schema, &[]);
        // only the nullary fact exists
        assert_eq!(inst.len(), 1);
        assert!(inst.contains(&Fact::from_names("B", &[])));
    }

    #[test]
    fn postings_select_matching_rows() {
        let i = sample();
        let r = Symbol::new("R");
        assert_eq!(posted(&i, "R", 0, "a"), BTreeSet::from([edge("a", "b")]));
        assert_eq!(posted(&i, "R", 0, "b"), BTreeSet::from([edge("b", "c")]));
        assert_eq!(posted(&i, "R", 1, "b"), BTreeSet::from([edge("a", "b")]));
        assert!(i.posting(r, 0, Value::new("z")).is_empty());
        assert!(i.posting(r, 7, Value::new("a")).is_empty());
        assert!(i
            .posting(Symbol::new("Missing"), 0, Value::new("a"))
            .is_empty());
        assert_eq!(i.count_matching(r, 0, Value::new("a")), 1);
        assert_eq!(i.distinct_values_at(r, 0), 2);
        assert_eq!(i.distinct_values_at(Symbol::new("S"), 0), 1);
    }

    #[test]
    fn insert_maintains_the_secondary_indexes_incrementally() {
        let mut i = sample();
        let r = Symbol::new("R");
        assert!(!i.indexes_built());
        assert_eq!(i.posting(r, 0, Value::new("a")).len(), 1);
        assert!(i.indexes_built());

        // a second fact with the same leading value must show up after
        // insert — without dropping the already-built index
        assert!(i.insert(Fact::from_names("R", &["a", "z"])));
        assert!(i.indexes_built(), "insert must keep the index warm");
        assert_eq!(
            posted(&i, "R", 0, "a"),
            BTreeSet::from([edge("a", "b"), edge("a", "z")])
        );
        let rows = i.posting(r, 0, Value::new("a"));
        assert!(rows.is_sorted(), "appended rows keep the posting sorted");

        // inserting a duplicate leaves the set — and the index — unchanged
        assert!(!i.insert(Fact::from_names("R", &["a", "z"])));
        assert_eq!(i.posting(r, 0, Value::new("a")).len(), 2);

        // a brand-new relation indexes through the same incremental path
        assert!(i.insert(Fact::from_names("W", &["a"])));
        assert!(i.indexes_built());
        assert_eq!(
            posted(&i, "W", 0, "a"),
            BTreeSet::from([Fact::from_names("W", &["a"])])
        );
    }

    #[test]
    fn incremental_insert_equals_a_fresh_rebuild() {
        // Growing an indexed instance fact by fact must leave postings that
        // resolve to exactly the facts a from-scratch bulk build finds.
        let facts = [
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["a", "c"]),
            Fact::from_names("S", &["b"]),
            Fact::from_names("R", &["b", "b"]),
            Fact::from_names("S", &["a"]),
        ];
        let mut grown = Instance::new();
        let _ = grown.posting(Symbol::new("R"), 0, Value::new("a")); // force-build
        for f in &facts {
            grown.insert(f.clone());
            assert!(grown.indexes_built());
        }
        let fresh = Instance::from_facts(facts.iter().cloned());
        for rel in ["R", "S"] {
            for position in 0..2 {
                for value in ["a", "b", "c"] {
                    assert_eq!(
                        posted(&grown, rel, position, value),
                        posted(&fresh, rel, position, value),
                        "postings diverged at {rel}/{position}/{value}"
                    );
                }
                let rel = Symbol::new(rel);
                assert_eq!(
                    grown.distinct_values_at(rel, position),
                    fresh.distinct_values_at(rel, position)
                );
            }
        }
    }

    #[test]
    fn remove_invalidates_the_secondary_indexes() {
        let mut i = sample();
        let r = Symbol::new("R");
        assert_eq!(i.posting(r, 0, Value::new("b")).len(), 1);
        assert!(i.remove(&Fact::from_names("R", &["b", "c"])));
        assert!(!i.indexes_built(), "remove must drop the index cache");
        assert!(i.posting(r, 0, Value::new("b")).is_empty());
        assert_eq!(posted(&i, "R", 0, "a"), BTreeSet::from([edge("a", "b")]));
    }

    #[test]
    fn postings_intersect_to_the_matching_rows() {
        let i = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["a", "c"]),
            Fact::from_names("R", &["b", "b"]),
        ]);
        let r = Symbol::new("R");
        // posting lists are sorted, so intersection by binary search works
        let first_a = i.posting(r, 0, Value::new("a"));
        let second_b = i.posting(r, 1, Value::new("b"));
        assert_eq!(first_a.len(), 2);
        assert_eq!(second_b.len(), 2);
        assert!(first_a.is_sorted() && second_b.is_sorted());
        let both: Vec<u32> = first_a
            .iter()
            .copied()
            .filter(|row| second_b.binary_search(row).is_ok())
            .collect();
        assert_eq!(both.len(), 1);
        assert_eq!(i.facts_of(r)[both[0] as usize], edge("a", "b"));
    }

    #[test]
    fn index_builds_counts_scratch_builds_only() {
        let mut i = sample();
        assert_eq!(i.index_builds(), 0);
        let _ = i.posting(Symbol::new("R"), 0, Value::new("a"));
        let _ = i.posting(Symbol::new("R"), 1, Value::new("b"));
        assert_eq!(i.index_builds(), 1, "repeated lookups reuse one build");
        // incremental insert maintenance is not a rebuild
        i.insert(Fact::from_names("R", &["x", "y"]));
        let _ = i.posting(Symbol::new("R"), 0, Value::new("x"));
        assert_eq!(i.index_builds(), 1);
        // remove invalidates; the next lookup builds again
        assert!(i.remove(&Fact::from_names("R", &["x", "y"])));
        let _ = i.posting(Symbol::new("R"), 0, Value::new("a"));
        assert_eq!(i.index_builds(), 2);
        // clones start over with a cold cache and a zero counter
        let j = i.clone();
        assert_eq!(j.index_builds(), 0);
    }

    #[test]
    fn clone_rebuilds_indexes_lazily() {
        let i = sample();
        let _ = i.posting(Symbol::new("R"), 0, Value::new("a"));
        let j = i.clone();
        assert!(!j.indexes_built());
        assert_eq!(posted(&j, "R", 0, "a"), BTreeSet::from([edge("a", "b")]));
        assert_eq!(i, j);
    }

    /// How many sorted orders `i` holds at the moment.
    fn cached_orders(i: &Instance) -> usize {
        std::iter::successors(i.orders.get(), |node| node.next.get()).count()
    }

    /// The rows of a sorted order, checked to be flat, complete and sorted.
    fn order_rows<'a>(i: &'a Instance, relation: &str, columns: &[usize]) -> Vec<&'a [Value]> {
        let order = i.sorted_order(Symbol::new(relation), columns);
        assert_eq!(order.arity(), columns.len());
        assert_eq!(order.values().len(), order.rows() * order.arity());
        let rows: Vec<&[Value]> = order.values().chunks(order.arity().max(1)).collect();
        assert!(rows.is_sorted(), "{rows:?}");
        rows
    }

    #[test]
    fn sorted_orders_permute_the_rows_of_one_arity() {
        let [a, b, c] = ["a", "b", "c"].map(Value::new);
        let mut i = sample();
        i.insert(Fact::from_names("R", &["a"]));
        i.insert(Fact::from_names("B", &[]));
        // (which of the two rows is first depends on the interning order)
        let swapped = order_rows(&i, "R", &[1, 0]);
        assert!(
            swapped.len() == 2 && swapped.contains(&&[b, a][..]) && swapped.contains(&&[c, b][..])
        );
        assert_eq!(order_rows(&i, "R", &[0, 1]).len(), 2);
        assert_eq!(order_rows(&i, "R", &[0]), [[a]]);
        assert!(order_rows(&i, "R", &[0, 1, 2]).is_empty());
        assert!(order_rows(&i, "Missing", &[0]).is_empty());
        // a nullary row has no values, but it is a row
        assert_eq!(i.sorted_order(Symbol::new("B"), &[]).rows(), 1);
        assert_eq!(i.sorted_order(Symbol::new("R"), &[]).rows(), 0);
        assert!(!i.indexes_built(), "sorted orders are not the hash index");
    }

    #[test]
    fn sorted_orders_are_built_once_and_dropped_with_the_fact_set() {
        let mut i = sample();
        let r = Symbol::new("R");
        let first: *const SortedOrder = i.sorted_order(r, &[1, 0]);
        let _ = i.sorted_order(r, &[0, 1]);
        assert!(std::ptr::eq(i.sorted_order(r, &[1, 0]), first));
        assert_eq!(cached_orders(&i), 2, "asked for twice, built once");

        // neither a fact that is already there nor one that is not there to
        // remove changes the fact set
        assert!(!i.insert(edge("a", "b")));
        assert!(!i.remove(&edge("x", "y")));
        assert_eq!(cached_orders(&i), 2);

        assert!(i.insert(edge("c", "d")));
        assert_eq!(cached_orders(&i), 0, "a new fact drops every order");
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 3);
        assert!(i.remove(&edge("c", "d")));
        assert_eq!(cached_orders(&i), 0, "so does a removed one");
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 2);

        // a clone starts cold, and the cache is no part of the value
        let j = i.clone();
        assert_eq!((cached_orders(&i), cached_orders(&j)), (1, 0));
        assert_eq!(i, j);
        assert_eq!(format!("{i}"), format!("{j}"));
    }

    #[test]
    fn mixed_arity_relations_index_safely() {
        let mut i = Instance::from_facts([Fact::from_names("R", &["a", "b"])]);
        i.insert(Fact::from_names("R", &["a"]));
        let r = Symbol::new("R");
        // both facts carry "a" at position 0; only the binary one has position 1
        assert_eq!(i.posting(r, 0, Value::new("a")).len(), 2);
        assert_eq!(i.posting(r, 1, Value::new("b")).len(), 1);

        // a fact wide enough to spill out of its inline tuple, inserted
        // into the warm index: positions 2..7 exist for it alone
        let wide = Fact::from_names("R", &["a", "b", "c", "d", "e", "f", "g"]);
        assert!(i.insert(wide.clone()));
        assert!(i.indexes_built());
        assert_eq!(i.posting(r, 0, Value::new("a")).len(), 3);
        assert_eq!(i.posting(r, 1, Value::new("b")).len(), 2);
        assert_eq!(posted(&i, "R", 6, "g"), BTreeSet::from([wide.clone()]));
        assert!(i.posting(r, 7, Value::new("g")).is_empty());
        // and the same after a rebuild from scratch
        let rebuilt = Instance::from_facts(i.facts().cloned());
        assert_eq!(posted(&rebuilt, "R", 6, "g"), BTreeSet::from([wide]));
        assert_eq!(rebuilt.posting(r, 0, Value::new("a")).len(), 3);
        assert!(!rebuilt.is_well_formed());
    }
}
