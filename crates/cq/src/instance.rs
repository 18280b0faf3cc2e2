//! Database instances: finite sets of facts with per-relation sorted orders.

use std::borrow::Cow;
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
    /// arity) are in the order or were passed over: rows are only ever
    /// appended between two `remove`s, so the rest is what it lacks.
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

    /// Takes in the rows of `facts` past the covered ones: only they are
    /// sorted, and one pass from the back merges them in place.
    fn catch_up(&mut self, facts: &[Fact]) {
        let arity = self.columns.len();
        let mut fresh = Vec::with_capacity(arity * (facts.len() - self.covered));
        // A fact only matches an atom of its own arity.
        for fact in facts[self.covered..].iter().filter(|f| f.arity() == arity) {
            fresh.extend(self.columns.iter().map(|&position| fact.values[position]));
            self.rows += 1;
        }
        self.covered = facts.len();
        if arity == 0 || fresh.is_empty() {
            return;
        }
        // The identity order over bulk-built rows is sorted as it stands.
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

/// One relation's facts: the rows behind [`Instance::facts_of`].
#[derive(Clone, Default)]
struct Relation {
    /// Append-only between two `remove`s, so a sorted order that covers a
    /// prefix stays valid while the relation grows.
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
/// The join kernel does not read the rows: it walks *sorted column orders*
/// — a relation's rows of one arity with the columns permuted into the order
/// the search binds them, sorted, flat (4·arity bytes a row) — the one index
/// an instance has. Each asked-for `(relation, column order)` is built on
/// first use and **kept as the instance grows**: an order remembers how many
/// of its relation's rows it covers, and the next evaluation catches it up
/// by sorting only the rows added since and merging them in one pass, so
/// the index work of one round of an iterated evaluation is reused by every
/// later one. `remove` drops every order (the rows behind the removed one
/// move up); they are rebuilt on the next use.
///
/// The orders are invisible: clones start without them, and equality, order,
/// hash, `Display` and the wire codec read the fact set only.
#[derive(Default)]
pub struct Instance {
    relations: BTreeMap<Symbol, Relation>,
    /// The facts past their relation's ascending prefix, in order. Empty
    /// unless facts were inserted out of order.
    late: BTreeSet<Fact>,
    len: usize,
    /// The sorted column orders asked for since the last `remove`, one per
    /// `(relation, column order)`. Behind a lock because they are built and
    /// caught up through `&self`; an evaluation holds on to the ones it
    /// walks, and nothing can grow the instance while it does.
    orders: Mutex<Vec<Arc<SortedOrder>>>,
}

// The sorted orders are a caching layer: they are never cloned (the clone
// rebuilds lazily if and when it evaluates queries).
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
            let sorted = rows.len();
            instance.len += sorted;
            instance
                .relations
                .insert(relation, Relation { rows, sorted });
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
    /// One membership search decides: a fact above its relation's ascending
    /// rows is appended after a single comparison, anything else is looked up
    /// by binary search, and a fact that is already there — the common case
    /// when a round re-derives old facts — costs that search and no copy. A
    /// new fact that arrives out of order is appended all the same (rows
    /// never move) and remembered in the side set.
    ///
    /// The sorted column orders stay: rows are only ever appended, so an
    /// order built before the insert covers a prefix of them and is caught
    /// up by the next evaluation — growing an instance, the hot path of
    /// delta-driven multi-round evaluation, never throws away index work.
    /// Only [`Instance::remove`] drops them.
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
        relation.rows.push(fact.into_owned());
        self.len += 1;
        true
    }

    /// Removes a fact. Returns `true` if it was present.
    ///
    /// Drops the sorted orders (the rows behind the fact move up). The scan
    /// starts at the back, where an undo finds what it just inserted.
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
        self.orders = Mutex::default();
        true
    }

    /// The rows of `relation` with as many values as `columns` has entries,
    /// column `c` holding argument position `columns[c]`, sorted: built on
    /// first use, caught up with the rows added since the last, and shared
    /// by every caller (from any thread; the lock is held while an order is
    /// built, so it is built once).
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
    /// per `(relation, column order)` asked for since the last `remove`,
    /// however much the instance has grown in between. Clones start at 0.
    pub fn cached_orders(&self) -> usize {
        let orders = self.orders.lock().expect("no order is left half built");
        orders.len()
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

    /// The facts of relation `relation` (empty slice if none): ascending
    /// for a bulk-built instance, later inserts following in insertion
    /// order.
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
    /// growing a non-empty one inserts fact by fact, which keeps its sorted
    /// orders.
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
        assert_eq!(moved.late.len(), 0);
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
            assert_eq!(built.late.len(), 0);
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

        // a second fact with the same leading value must show up after
        // insert — without dropping the orders that are there
        assert!(i.insert(Fact::from_names("R", &["a", "z"])));
        assert_eq!(i.cached_orders(), 2, "insert must keep the orders");
        for columns in ORDERS {
            assert_eq!(
                order_rows(&i, "R", columns),
                expected_rows(&i, "R", columns)
            );
        }
        assert_eq!(i.cached_orders(), 2, "caught up in place, not rebuilt");

        // inserting a duplicate leaves the set — and the orders — unchanged
        assert!(!i.insert(Fact::from_names("R", &["a", "z"])));
        assert_eq!(order_rows(&i, "R", &[1, 0]).len(), 3);

        // a brand-new relation gets its orders the same way
        assert!(i.insert(Fact::from_names("W", &["a"])));
        assert_eq!(order_rows(&i, "W", &[0]), [[Value::new("a")]]);
        assert_eq!(i.cached_orders(), 3);
    }

    #[test]
    fn incremental_insert_equals_a_fresh_rebuild() {
        // Growing an instance whose orders are built, a few facts at a time
        // and out of order, must leave orders that hold exactly the rows a
        // from-scratch bulk build sorts — merged at the front, in the middle
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
            for _ in 0..random(6) {
                let values = [random(12), random(12)].map(|v| Value::indexed("m", v as usize));
                grown.insert(Fact::new("R", values.to_vec()));
                // another arity and another relation in between
                grown.insert(Fact::new("R", vec![values[0]]));
                grown.insert(Fact::new("S", vec![values[1], values[0]]));
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

        // a new fact leaves the orders where they are, to be caught up …
        assert!(i.insert(edge("c", "d")));
        assert_eq!(i.cached_orders(), 2);
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 3);
        // … and only a removed one drops them
        assert!(i.remove(&edge("c", "d")));
        assert_eq!(i.cached_orders(), 0, "a removed fact drops every order");
        assert_eq!(i.sorted_order(r, &[1, 0]).rows(), 2);

        // an order someone still holds is not changed under them
        let held = i.sorted_order(r, &[1, 0]);
        assert!(i.insert(edge("c", "d")));
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
