//! Database instances: finite sets of facts, each relation's rows strictly
//! ascending, grown by merging, with sorted column orders carried forward.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::fact::{Fact, Tuple};
use crate::intern::Symbol;
use crate::schema::Schema;
use crate::value::Value;

/// One relation's rows of one arity, their columns permuted and the rows
/// sorted lexicographically, laid out flat and row-major: the trie the
/// join kernel walks. Column `c` holds argument position `columns[c]`, so
/// the rows agreeing on their first `c` columns are one contiguous range in
/// which column `c` ascends.
#[derive(Clone)]
pub(crate) struct SortedOrder {
    relation: Symbol,
    columns: Box<[usize]>,
    /// How many of the relation's rows ([`Instance::facts_of`], of any
    /// arity) are in the order or were passed over; the rest were appended
    /// by in-order inserts since (an absorb merges its rows in on the spot).
    covered: usize,
    /// Kept apart from `values`: a nullary row has none.
    rows: usize,
    values: Vec<Value>,
}

impl SortedOrder {
    fn new(relation: Symbol, columns: &[usize]) -> SortedOrder {
        SortedOrder {
            relation,
            columns: columns.into(),
            covered: 0,
            rows: 0,
            values: Vec::new(),
        }
    }

    /// Takes in the rows of `facts` past the covered ones.
    fn catch_up(&mut self, facts: &[Fact]) {
        self.take_in(&facts[self.covered..]);
        self.covered = facts.len();
    }

    /// Takes in `facts`, none of which it holds: only they are sorted, and
    /// one pass from the back merges them in place.
    fn take_in(&mut self, facts: &[Fact]) {
        let arity = self.columns.len();
        let mut fresh = Vec::with_capacity(arity * facts.len());
        // A fact only matches an atom of its own arity.
        for fact in facts.iter().filter(|f| f.arity() == arity) {
            fresh.extend(self.columns.iter().map(|&position| fact.values[position]));
            self.rows += 1;
        }
        if arity == 0 || fresh.is_empty() {
            return;
        }
        // The identity order over ascending rows is sorted as it stands.
        if !fresh.chunks_exact(arity).is_sorted() {
            let mut sorted: Vec<&[Value]> = fresh.chunks_exact(arity).collect();
            sorted.sort_unstable();
            fresh = sorted.concat();
        }
        if self.values.is_empty() {
            self.values = fresh;
            return;
        }
        // `values[..old]` is still to merge, `values[merged..]` is final,
        // and the gap between them is as wide as the fresh rows still to
        // place. No two rows are equal: facts are distinct.
        let mut old = self.values.len();
        self.values.resize(old + fresh.len(), fresh[0]);
        let mut merged = self.values.len();
        for row in fresh.chunks_exact(arity).rev() {
            // The old rows above `row` move up as one block.
            let (mut lo, mut hi) = (0, old / arity);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.values[mid * arity..][..arity] < *row {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let above = lo * arity..old;
            merged -= above.len();
            old = above.start;
            self.values.copy_within(above, merged);
            merged -= arity;
            self.values[merged..][..arity].copy_from_slice(row);
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

/// Each of the ascending `rows` with its place among the ascending
/// `theirs`: how many of those are below it, and whether it is one of them.
/// One walk that gallops — a row landing `d` places past the previous one
/// costs O(log d) comparisons — so a small run against a large instance
/// costs a binary search a row, and two runs of equal size a merge.
fn placed<'a>(
    rows: &'a [Fact],
    theirs: &'a [Fact],
) -> impl Iterator<Item = (&'a Fact, usize, bool)> + 'a {
    let mut at = 0;
    rows.iter().map(move |fact| {
        let mut step = 1;
        while theirs.get(at + step).is_some_and(|row| row < fact) {
            at += step;
            step *= 2;
        }
        at += theirs[at..theirs.len().min(at + step)].partition_point(|row| row < fact);
        (fact, at, theirs.get(at) == Some(fact))
    })
}

/// Merges `fresh` (ascending, none of it in `rows`, and `slots[i]` of the
/// old rows below `fresh[i]`) into the ascending `rows` in place, from the
/// back: the vector grows once, by exactly `fresh.len()`, and every old row
/// moves at most once, straight to its final place.
fn merge_in(rows: &mut Vec<Fact>, fresh: &[Fact], slots: &[usize]) {
    let mut old = rows.len();
    // Nullary placeholders own no heap block; each is overwritten.
    let gap = Fact::new(fresh[0].relation, Tuple::from_iter([]));
    rows.resize(old + fresh.len(), gap);
    for (placed, (fact, &slot)) in fresh.iter().zip(slots).enumerate().rev() {
        // The old rows above `fact` jump the `placed + 1` gaps still open.
        for row in (slot..old).rev() {
            rows.swap(row, row + placed + 1);
        }
        rows[slot + placed] = fact.clone();
        old = slot;
    }
}

/// A database instance: a finite set of facts.
///
/// One invariant: every fact is stored **once**, in its relation's row
/// vector ([`Instance::facts_of`]), and a relation's rows are **strictly
/// ascending, always**. Membership is one binary search, [`Instance::facts`]
/// walks relation after relation, and iteration order, equality, ordering,
/// hashing and the wire bytes depend on the fact set alone.
///
/// **Growth is a merge.** Every bulk growth — a round's output, a delta,
/// `Extend` into a non-empty instance, `union` — is [`Instance::absorb`]:
/// the new rows are found by one walk and merged in place, from the back.
///
/// The join kernel does not read the rows: it walks *sorted column orders*
/// — a relation's rows of one arity with the columns permuted into the order
/// the search binds them, sorted, flat (4·arity bytes a row) — the one index
/// an instance has. Each asked-for `(relation, column order)` is built on
/// first use and **carried forward as the instance grows**: an absorb
/// merges its new rows into the orders of their relation, and rows an
/// in-order insert appended are merged in by the next evaluation, so the
/// index work of one round is reused by every later one. Only moving rows
/// — an out-of-order insert, a remove — drops a relation's orders.
///
/// The orders are invisible: clones start without them, and equality, order,
/// hash, `Display` and the wire codec read the fact set only.
#[derive(Default)]
pub struct Instance {
    /// Every relation's rows, strictly ascending.
    relations: BTreeMap<Symbol, Vec<Fact>>,
    len: usize,
    /// The sorted column orders asked for since their relation's rows last
    /// moved, one per `(relation, column order)`. Behind a lock because
    /// they are built and caught up through `&self`; an evaluation holds on
    /// to the ones it walks, and nothing can grow the instance while it does.
    orders: Mutex<Vec<Arc<SortedOrder>>>,
}

// The sorted orders are a caching layer: they are never cloned (the clone
// rebuilds lazily if and when it evaluates queries).
impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            relations: self.relations.clone(),
            len: self.len,
            ..Instance::default()
        }
    }
}

// Equality, order and hash are on the fact set only: they read the one
// sorted `facts()` order.
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

/// [`Instance::facts`]: the relations' rows, one after the other.
struct Facts<'a> {
    relations: std::collections::btree_map::Values<'a, Symbol, Vec<Fact>>,
    rows: std::slice::Iter<'a, Fact>,
    remaining: usize,
}

impl<'a> Iterator for Facts<'a> {
    type Item = &'a Fact;

    fn next(&mut self) -> Option<&'a Fact> {
        loop {
            if let Some(fact) = self.rows.next() {
                self.remaining -= 1;
                return Some(fact);
            }
            self.rows = self.relations.next()?.iter();
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
    /// such chunks concatenated — costs a linear pass.
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
            relations.insert(relation, run);
        }
        Instance {
            relations,
            len,
            ..Instance::default()
        }
    }

    /// Builds an instance from whole relations, each listed with its rows —
    /// what a wire body holds. Row vectors that are strictly ascending, one
    /// per relation, are **moved in as they stand**: no sort, no copy. That
    /// is what a peer reading [`Instance::facts`] in the same id space
    /// sends, but nothing rests on it: a row out of order or repeated, a
    /// relation listed twice or a row filed under another relation sends
    /// the lot through [`Instance::from_facts`] instead. The result depends
    /// on the fact set alone; only the speed depends on the order.
    pub fn from_relations(blocks: Vec<(Symbol, Vec<Fact>)>) -> Instance {
        let mut listed = BTreeSet::new();
        let ascending = blocks.iter().all(|(relation, rows)| {
            listed.insert(*relation)
                && rows.iter().all(|fact| fact.relation == *relation)
                && rows.is_sorted_by(|a, b| a.values < b.values)
        });
        if !ascending {
            return Instance::from_facts(blocks.into_iter().flat_map(|(_, rows)| rows));
        }
        let mut instance = Instance::default();
        for (relation, rows) in blocks {
            instance.len += rows.len();
            instance.relations.insert(relation, rows);
        }
        instance
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
    /// A fact above its relation's last row is appended, and the sorted
    /// orders stay, to be caught up by the next evaluation. Anything else
    /// is one binary search, and a new fact goes in at its place: that moves
    /// rows, so it drops the relation's orders, as [`Instance::remove`]
    /// does. Growth by more than a fact or two is [`Instance::absorb`]'s.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let relation = fact.relation;
        let rows = self.relations.entry(relation).or_default();
        if rows.last().is_none_or(|last| *last < fact) {
            rows.push(fact);
        } else {
            let Err(at) = rows.binary_search(&fact) else {
                return false;
            };
            rows.insert(at, fact);
            self.drop_orders(relation);
        }
        self.len += 1;
        true
    }

    /// Adds the facts of `run` and returns the ones that were new, in
    /// ascending order — `run \ self` before the call.
    ///
    /// Per relation, one galloping walk finds the new rows and where each
    /// goes, the row vector grows by exactly that many and merges them in
    /// place from the back, and every sorted order of the relation takes in
    /// just those rows (one someone still holds is copied first).
    pub fn absorb(&mut self, run: &Instance) -> Instance {
        let mut new = Instance::default();
        for (&relation, incoming) in &run.relations {
            let mut fresh = Vec::with_capacity(incoming.len());
            let mut slots = Vec::with_capacity(incoming.len());
            for (fact, slot, _) in placed(incoming, self.facts_of(relation)).filter(|p| !p.2) {
                fresh.push(fact.clone());
                slots.push(slot);
            }
            if fresh.is_empty() {
                continue;
            }
            fresh.shrink_to_fit();
            let rows = self.relations.entry(relation).or_default();
            let orders = self.orders.get_mut().expect("no order is left half built");
            for order in orders.iter_mut().filter(|order| order.relation == relation) {
                let order = Arc::make_mut(order);
                order.catch_up(rows);
                order.take_in(&fresh);
                order.covered += fresh.len();
            }
            merge_in(rows, &fresh, &slots);
            new.len += fresh.len();
            new.relations.insert(relation, fresh);
        }
        self.len += new.len;
        new
    }

    /// Removes a fact. Returns `true` if it was present.
    ///
    /// Drops its relation's sorted orders (the rows behind it move up).
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(rows) = self.relations.get_mut(&fact.relation) else {
            return false;
        };
        let Ok(at) = rows.binary_search(fact) else {
            return false;
        };
        rows.remove(at);
        self.len -= 1;
        self.drop_orders(fact.relation);
        true
    }

    /// Drops the sorted orders of `relation`: its rows moved.
    fn drop_orders(&mut self, relation: Symbol) {
        let orders = self.orders.get_mut().expect("no order is left half built");
        orders.retain(|order| order.relation != relation);
    }

    /// The rows of `relation` with as many values as `columns` has entries,
    /// column `c` holding argument position `columns[c]`, sorted: built on
    /// first use, caught up with the rows appended since the last, and
    /// shared by every caller (from any thread; the lock is held while an
    /// order is built, so it is built once).
    pub(crate) fn sorted_order(&self, relation: Symbol, columns: &[usize]) -> Arc<SortedOrder> {
        let facts = self.facts_of(relation);
        let mut orders = self.orders.lock().expect("no order is left half built");
        let cached = orders
            .iter()
            .position(|order| order.relation == relation && *order.columns == *columns);
        let at = cached.unwrap_or_else(|| {
            orders.push(Arc::new(SortedOrder::new(relation, columns)));
            orders.len() - 1
        });
        if orders[at].covered < facts.len() {
            // Whoever held the order before the instance grew is gone: this
            // changes it in place.
            Arc::make_mut(&mut orders[at]).catch_up(facts);
        }
        Arc::clone(&orders[at])
    }

    /// How many sorted column orders the instance holds at the moment
    /// (test/diagnostic hook; evaluation builds them transparently): one
    /// per `(relation, column order)` asked for since that relation's rows
    /// last moved, however much the instance has grown in between. Clones
    /// start at 0.
    pub fn cached_orders(&self) -> usize {
        let orders = self.orders.lock().expect("no order is left half built");
        orders.len()
    }

    /// Whether the instance contains `fact`: one binary search of its
    /// relation's rows.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.facts_of(fact.relation).binary_search(fact).is_ok()
    }

    /// Whether `other` is a subset of this instance: one walk per relation.
    pub fn contains_all(&self, other: &Instance) -> bool {
        other.len <= self.len
            && other.relations.iter().all(|(&relation, rows)| {
                placed(rows, self.facts_of(relation)).all(|(_, _, held)| held)
            })
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
            rows: [].iter(),
            remaining: self.len,
        }
    }

    /// The facts of relation `relation` (empty slice if none), ascending.
    pub fn facts_of(&self, relation: Symbol) -> &[Fact] {
        self.relations.get(&relation).map_or(&[], Vec::as_slice)
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

    /// Set union: the larger instance copied, absorbing the smaller.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut pair = [self, other];
        pair.sort_by_key(|instance| instance.len);
        let mut union = pair[1].clone();
        union.absorb(pair[0]);
        union
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Instance) -> Instance {
        self.filtered(other, true)
    }

    /// Facts of `self` not in `other`.
    pub fn difference(&self, other: &Instance) -> Instance {
        self.filtered(other, false)
    }

    /// The facts of `self` that `other` holds (`held`) or lacks (`!held`):
    /// one walk per relation, the kept rows ascending as they come.
    fn filtered(&self, other: &Instance, held: bool) -> Instance {
        let mut out = Instance::default();
        for (&relation, rows) in &self.relations {
            let kept: Vec<Fact> = placed(rows, other.facts_of(relation))
                .filter(|p| p.2 == held)
                .map(|p| p.0.clone())
                .collect();
            if !kept.is_empty() {
                out.len += kept.len();
                out.relations.insert(relation, kept);
            }
        }
        out
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
    /// growing a non-empty one bulk-builds the incoming facts and absorbs
    /// them ([`Instance::absorb`]), which keeps its sorted orders.
    fn extend<T: IntoIterator<Item = Fact>>(&mut self, iter: T) {
        let run = Instance::from_facts(iter);
        if self.is_empty() {
            *self = run;
        } else {
            self.absorb(&run);
        }
    }
}

impl<'a> Extend<&'a Fact> for Instance {
    /// Copies the facts, then grows as `Extend<Fact>` does.
    fn extend<T: IntoIterator<Item = &'a Fact>>(&mut self, iter: T) {
        self.extend(iter.into_iter().cloned());
    }
}

impl IntoIterator for Instance {
    type Item = Fact;
    type IntoIter = std::vec::IntoIter<Fact>;

    /// The facts by value, in the order of [`Instance::facts`] — merging
    /// instances moves facts instead of cloning them.
    fn into_iter(self) -> Self::IntoIter {
        let mut facts = Vec::with_capacity(self.len);
        for mut rows in self.relations.into_values() {
            facts.append(&mut rows);
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

    fn edge(a: &str, b: &str) -> Fact {
        Fact::from_names("R", &[a, b])
    }

    /// A value above every named one, ordered by `id` (named values order
    /// by interning, which other tests of the binary share).
    fn top(id: u32) -> Value {
        Value::opaque(id).unwrap()
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
    fn from_relations_is_from_facts_whatever_the_order() {
        let [r, s] = ["R", "S"].map(Symbol::new);
        let whole = Instance::from_facts([
            edge("a", "b"),
            edge("b", "c"),
            Fact::from_names("R", &["b"]),
            Fact::from_names("S", &["a"]),
        ]);
        let rows = |relation| whole.facts_of(relation).to_vec();
        // ascending rows, one block a relation (in any block order): moved in
        let moved = Instance::from_relations(vec![(s, rows(s)), (r, rows(r))]);
        assert_eq!(moved, whole);
        assert_eq!(moved.facts_of(r), whole.facts_of(r));
        assert!(moved.contains(&edge("b", "c")) && !moved.contains(&edge("c", "b")));

        // descending and repeated rows, a relation listed twice, a row filed
        // under the wrong relation: the same set, through the sort
        let mut reversed = rows(r);
        reversed.reverse();
        reversed.push(edge("a", "b"));
        let split = vec![
            (r, vec![edge("b", "c")]),
            (s, rows(s)),
            (r, reversed.clone()),
        ];
        let misfiled = vec![(s, [rows(s), rows(r)].concat())];
        for blocks in [vec![(r, reversed), (s, rows(s))], split, misfiled] {
            let built = Instance::from_relations(blocks);
            assert_eq!(built, whole);
            assert_eq!(built.facts_of(r), whole.facts_of(r));
        }
        assert_eq!(Instance::from_relations(vec![]), Instance::new());
        assert_eq!(Instance::from_relations(vec![(r, vec![])]), Instance::new());
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

    /// The rows of a sorted order, checked to be flat, complete and sorted.
    fn order_rows(i: &Instance, relation: &str, columns: &[usize]) -> Vec<Vec<Value>> {
        let order = i.sorted_order(Symbol::new(relation), columns);
        assert_eq!(order.arity(), columns.len());
        assert_eq!(order.values().len(), order.rows() * order.arity());
        let rows = order.values().chunks(order.arity().max(1));
        let rows: Vec<Vec<Value>> = rows.map(<[Value]>::to_vec).collect();
        assert!(rows.is_sorted(), "{rows:?}");
        rows
    }

    /// What a sorted order has to hold: the facts of the arity, permuted.
    fn expected_rows(i: &Instance, relation: &str, columns: &[usize]) -> Vec<Vec<Value>> {
        let facts = i
            .facts()
            .filter(|fact| fact.relation == Symbol::new(relation));
        let facts = facts.filter(|fact| fact.arity() == columns.len());
        let mut rows: Vec<Vec<Value>> = facts
            .map(|fact| columns.iter().map(|&c| fact.values[c]).collect())
            .collect();
        rows.sort();
        rows
    }

    /// Every column order the tests below ask binary `R` for.
    const ORDERS: [&[usize]; 2] = [&[0, 1], &[1, 0]];

    #[test]
    fn insert_catches_the_sorted_orders_up_in_place() {
        let mut i = sample();
        assert_eq!(i.cached_orders(), 0);
        for columns in ORDERS {
            assert_eq!(order_rows(&i, "R", columns).len(), 2);
        }
        assert_eq!(i.cached_orders(), 2);

        // a fact above the last row is appended: the orders stay, and the
        // next use catches them up in place
        let above = Fact::new("R", vec![top(1), Value::new("a")]);
        assert!(i.insert(above.clone()));
        assert_eq!(i.cached_orders(), 2, "an append must keep the orders");
        for columns in ORDERS {
            assert_eq!(
                order_rows(&i, "R", columns),
                expected_rows(&i, "R", columns)
            );
        }
        assert_eq!(i.cached_orders(), 2, "caught up in place, not rebuilt");

        // inserting a duplicate leaves the set — and the orders — unchanged
        assert!(!i.insert(above));
        assert!(!i.insert(edge("a", "b")));
        assert_eq!(order_rows(&i, "R", &[1, 0]).len(), 3);
        assert_eq!(i.cached_orders(), 2);

        // a new fact below the last row goes in at its place, which moves
        // rows: its relation's orders go, and only those
        assert_eq!(order_rows(&i, "S", &[0]).len(), 1);
        assert!(i.insert(edge("a", "z")));
        assert_eq!(i.cached_orders(), 1, "S keeps its order");
        for columns in ORDERS {
            assert_eq!(
                order_rows(&i, "R", columns),
                expected_rows(&i, "R", columns)
            );
        }

        // a brand-new relation gets its orders the same way
        assert!(i.insert(Fact::from_names("W", &["a"])));
        assert_eq!(order_rows(&i, "W", &[0]), [[Value::new("a")]]);
        assert_eq!(i.cached_orders(), 4);
    }

    #[test]
    fn absorb_merges_a_run_in_place_and_returns_what_was_new() {
        let v = |ids: [u32; 2]| ids.map(top).to_vec();
        let [r, s] = ["R", "S"].map(Symbol::new);
        let mut i = Instance::from_facts([10, 20, 30].map(|x| Fact::new(r, v([x, 0]))));
        for columns in ORDERS {
            assert_eq!(order_rows(&i, "R", columns).len(), 3);
        }
        // new rows at the front, in between, at the back; a known one; a
        // new relation; and another arity of `R`
        let run = Instance::from_facts([
            Fact::new(r, v([5, 1])),
            Fact::new(r, v([20, 0])),
            Fact::new(r, v([25, 9])),
            Fact::new(r, v([26, 0])),
            Fact::new(r, v([40, 2])),
            Fact::new(r, vec![top(1)]),
            Fact::new(s, v([1, 1])),
        ]);
        let before = i.to_set();
        let new = i.absorb(&run);
        let expected: BTreeSet<Fact> = run.to_set().difference(&before).cloned().collect();
        assert!(new.facts().eq(expected.iter()), "{new}");
        assert_eq!(i.to_set(), before.union(&run.to_set()).cloned().collect());
        assert_eq!((i.len(), new.len()), (9, 6));
        assert!(i.facts_of(r).is_sorted_by(|a, b| a < b));
        // the orders took the rows in on the spot: kept, and already right
        assert_eq!(i.cached_orders(), 2);
        for columns in ORDERS {
            assert_eq!(
                order_rows(&i, "R", columns),
                expected_rows(&i, "R", columns)
            );
        }
        assert_eq!(i.cached_orders(), 2);
        // absorbing it again adds nothing
        assert!(i.absorb(&run).is_empty());
        assert!(i.absorb(&Instance::new()).is_empty());
        assert_eq!(i.len(), 9);
    }

    #[test]
    fn an_order_held_across_an_absorb_keeps_its_rows() {
        let r = Symbol::new("R");
        let mut i = sample();
        let held = i.sorted_order(r, &[1, 0]);
        let new = i.absorb(&Instance::from_facts([edge("a", "c"), edge("a", "b")]));
        assert_eq!(new.len(), 1);
        // the instance's order took the new row in — a copy, since the
        // caller's is shared — and the caller's still has the old rows
        let now = i.sorted_order(r, &[1, 0]);
        assert!(!Arc::ptr_eq(&held, &now));
        assert_eq!((held.rows(), now.rows(), i.cached_orders()), (2, 3, 1));
        assert_eq!(
            order_rows(&i, "R", &[1, 0]),
            expected_rows(&i, "R", &[1, 0])
        );
        // nobody holds the new one: the next absorb changes it in place
        drop((held, now));
        let _ = i.absorb(&Instance::from_facts([edge("c", "a")]));
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 4);
    }

    #[test]
    fn incremental_insert_equals_a_fresh_rebuild() {
        // Growing an instance whose orders are built, a few facts at a time
        // and out of order — absorbed as a run one round, inserted one by
        // one the next — must leave orders that hold exactly the rows a
        // from-scratch bulk build sorts: merged at the front, in the middle
        // and at the back.
        let mut state = 0x5EED_2015u64;
        let mut random = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut grown = Instance::new();
        let _ = order_rows(&grown, "R", &[1, 0]); // asked for while empty
        for round in 0..40 {
            let mut batch = Vec::new();
            for _ in 0..random(6) {
                let values = [random(12), random(12)].map(|v| Value::indexed("m", v as usize));
                batch.push(Fact::new("R", values.to_vec()));
                // another arity and another relation in between
                batch.push(Fact::new("R", vec![values[0]]));
                batch.push(Fact::new("S", vec![values[1], values[0]]));
            }
            if round % 2 == 0 {
                let (before, orders) = (grown.to_set(), grown.cached_orders());
                let new = grown.absorb(&Instance::from_facts(batch.iter().cloned()));
                let batch: BTreeSet<Fact> = batch.into_iter().collect();
                assert_eq!(new.to_set(), &batch - &before, "round {round}");
                assert_eq!(grown.cached_orders(), orders, "absorb keeps the orders");
            } else {
                for fact in batch {
                    grown.insert(fact);
                }
            }
            let fresh = Instance::from_facts(grown.facts().cloned());
            for columns in ORDERS {
                let rows = order_rows(&grown, "R", columns);
                assert_eq!(rows, expected_rows(&grown, "R", columns), "round {round}");
                assert_eq!(rows, order_rows(&fresh, "R", columns), "round {round}");
            }
            if round % 3 == 0 {
                let rows = order_rows(&grown, "S", &[1, 0]);
                assert_eq!(rows, order_rows(&fresh, "S", &[1, 0]), "round {round}");
            }
            assert_eq!(order_rows(&grown, "R", &[0]), order_rows(&fresh, "R", &[0]));
        }
        assert!(grown.len() > 100);
        assert_eq!(grown.cached_orders(), 4, "one per (relation, column order)");
    }

    #[test]
    fn remove_drops_the_sorted_orders() {
        let mut i = sample();
        assert_eq!(order_rows(&i, "R", &[1, 0]).len(), 2);
        assert!(i.remove(&Fact::from_names("R", &["b", "c"])));
        assert_eq!(i.cached_orders(), 0, "remove must drop the orders");
        let [a, b] = ["a", "b"].map(Value::new);
        assert_eq!(order_rows(&i, "R", &[1, 0]), [[b, a]]);
    }

    #[test]
    fn a_clone_starts_without_orders_and_builds_its_own() {
        let i = sample();
        let rows = order_rows(&i, "R", &[1, 0]);
        let j = i.clone();
        assert_eq!((i.cached_orders(), j.cached_orders()), (1, 0));
        assert_eq!(order_rows(&j, "R", &[1, 0]), rows);
        assert_eq!(i, j);
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
            swapped.len() == 2 && swapped.contains(&vec![b, a]) && swapped.contains(&vec![c, b])
        );
        assert_eq!(order_rows(&i, "R", &[0, 1]).len(), 2);
        assert_eq!(order_rows(&i, "R", &[0]), [[a]]);
        assert!(order_rows(&i, "R", &[0, 1, 2]).is_empty());
        assert!(order_rows(&i, "Missing", &[0]).is_empty());
        // a nullary row has no values, but it is a row
        assert_eq!(i.sorted_order(Symbol::new("B"), &[]).rows(), 1);
        assert_eq!(i.sorted_order(Symbol::new("R"), &[]).rows(), 0);
    }

    #[test]
    fn sorted_orders_are_built_once_and_dropped_with_the_fact_set() {
        let mut i = sample();
        let r = Symbol::new("R");
        let first = i.sorted_order(r, &[1, 0]);
        let _ = i.sorted_order(r, &[0, 1]);
        assert!(Arc::ptr_eq(&i.sorted_order(r, &[1, 0]), &first));
        assert_eq!(i.cached_orders(), 2, "asked for twice, built once");
        drop(first);

        // neither a fact that is already there nor one that is not there to
        // remove changes the fact set
        assert!(!i.insert(edge("a", "b")));
        assert!(!i.remove(&edge("x", "y")));
        assert_eq!(i.cached_orders(), 2);

        // a new fact above the last row leaves the orders where they are,
        // to be caught up …
        let above = Fact::new(r, vec![top(2), top(3)]);
        assert!(i.insert(above.clone()));
        assert_eq!(i.cached_orders(), 2);
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 3);
        // … and a removed one drops them
        assert!(i.remove(&above));
        assert_eq!(
            i.cached_orders(),
            0,
            "a removed fact drops its relation's orders"
        );
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 2);

        // an order someone still holds is not changed under them
        let held = i.sorted_order(r, &[1, 0]);
        assert!(i.insert(above));
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 3);
        assert_eq!((held.rows(), i.cached_orders()), (2, 1));

        // a clone starts cold, and the cache is no part of the value
        let j = i.clone();
        assert_eq!((i.cached_orders(), j.cached_orders()), (1, 0));
        assert_eq!(i, j);
        assert_eq!(format!("{i}"), format!("{j}"));
    }

    #[test]
    fn mixed_arity_relations_index_safely() {
        let mut i = Instance::from_facts([Fact::from_names("R", &["a", "b"])]);
        i.insert(Fact::from_names("R", &["a"]));
        // each order holds the facts of its own arity only
        assert_eq!(order_rows(&i, "R", &[1, 0]).len(), 1);
        assert_eq!(order_rows(&i, "R", &[0]).len(), 1);

        // a fact wide enough to spill out of its inline tuple, inserted
        // next to the built orders: it enters none of them, and the order
        // of its own arity holds it alone
        let wide = Fact::from_names("R", &["a", "b", "c", "d", "e", "f", "g"]);
        assert!(i.insert(wide.clone()));
        assert_eq!(order_rows(&i, "R", &[1, 0]).len(), 1);
        assert_eq!(order_rows(&i, "R", &[0]).len(), 1);
        let reversed: Vec<usize> = (0..7).rev().collect();
        let mut values = wide.values.to_vec();
        values.reverse();
        assert_eq!(order_rows(&i, "R", &reversed), [values.clone()]);
        // and the same after a rebuild from scratch
        let rebuilt = Instance::from_facts(i.facts().cloned());
        assert_eq!(order_rows(&rebuilt, "R", &reversed), [values]);
        assert_eq!(order_rows(&rebuilt, "R", &[1, 0]).len(), 1);
        assert!(!rebuilt.is_well_formed());
    }
}
