//! Database instances: finite sets of facts, each relation's rows strictly
//! ascending, grown by merging, with sorted column orders carried forward.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::fact::{self, Fact, Tuple, NARROW_ARITY, PACKED_ARITY};
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
    /// The least and greatest [`Value::raw`] id in `values`, recorded as
    /// rows are taken in (`least > greatest` while there is none): the
    /// range an evaluation sizes a dense answer set by, read without a
    /// pass over the rows.
    least: u32,
    greatest: u32,
}

impl SortedOrder {
    fn new(relation: Symbol, columns: &[usize]) -> SortedOrder {
        SortedOrder {
            relation,
            columns: columns.into(),
            covered: 0,
            rows: 0,
            values: Vec::new(),
            least: u32::MAX,
            greatest: 0,
        }
    }

    /// Takes in the rows of `facts` past the covered ones.
    fn catch_up(&mut self, facts: &[Fact]) {
        self.take_in(&facts[self.covered..]);
        self.covered = facts.len();
    }

    /// Takes in `facts`, none of which it holds: only they are sorted, and
    /// one pass from the back merges them in place, each fresh row placed
    /// by a gallop down the old rows still to merge.
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
        for value in &fresh {
            self.least = self.least.min(value.raw());
            self.greatest = self.greatest.max(value.raw());
        }
        // The identity order over ascending rows is sorted as it stands.
        if !fresh.chunks_exact(arity).is_sorted() {
            if arity <= PACKED_ARITY {
                sort_packed(&mut fresh, arity);
            } else {
                let mut sorted: Vec<&[Value]> = fresh.chunks_exact(arity).collect();
                sorted.sort_unstable();
                fresh = sorted.concat();
            }
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
            // The old rows above `row` move up as one block. Its start is
            // found galloping down from the top: rows `hi..` are above
            // `row`, and a row landing `d` old rows lower costs O(log d).
            let above_row = |at: usize| self.values[at * arity..][..arity] > *row;
            let mut hi = old / arity;
            let mut step = 1;
            while hi >= step && above_row(hi - step) {
                hi -= step;
                step *= 2;
            }
            let mut lo = (hi + 1).saturating_sub(step);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if above_row(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
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

    /// The least and greatest [`Value::raw`] id of any row, or `None` when
    /// there is no value (no row, or only nullary ones). Every value a
    /// search binds through this order lies between the two.
    pub(crate) fn range(&self) -> Option<(u32, u32)> {
        (self.least <= self.greatest).then_some((self.least, self.greatest))
    }
}

/// Sorts the flat rows of `values`, `arity` ≤ [`PACKED_ARITY`] values
/// each, as their [packed](fact::pack) keys (`u64`s up to
/// [`NARROW_ARITY`]).
fn sort_packed(values: &mut [Value], arity: usize) {
    let packed = values
        .chunks_exact(arity)
        .map(|row| fact::pack(row.iter().copied()));
    if arity <= NARROW_ARITY {
        let mut keys: Vec<u64> = packed.map(|key| key as u64).collect();
        keys.sort_unstable();
        unpack_into(values, arity, keys.into_iter().map(u128::from));
    } else {
        let mut keys: Vec<u128> = packed.collect();
        keys.sort_unstable();
        unpack_into(values, arity, keys);
    }
}

/// Overwrites the flat rows of `values`, `arity` values each, with the
/// rows [packed](fact::pack) into `keys`, in turn.
fn unpack_into(values: &mut [Value], arity: usize, keys: impl IntoIterator<Item = u128>) {
    for (row, key) in values.chunks_exact_mut(arity).zip(keys) {
        for (slot, value) in row.iter_mut().zip(fact::unpack(key, arity)) {
            *slot = value;
        }
    }
}

/// Facts filed one `(relation, arity)` run at a time — in any order, with
/// repeats — for an instance to be built from: a run of arity ≤
/// [`PACKED_ARITY`] holds one [packed](fact::pack) key a fact (a `u64` up to
/// [`NARROW_ARITY`]), a wider one the facts. The text parser and
/// [`Instance::union_all`] build this way.
#[derive(Default)]
pub(crate) struct Runs(BTreeMap<(Symbol, usize), Run>);

/// The facts of one relation and arity.
enum Run {
    Narrow(Vec<u64>),
    Packed(Vec<u128>),
    Wide(Vec<Fact>),
}

impl Runs {
    /// Files each fact, a relation with its values, in its run.
    pub(crate) fn extend<V>(&mut self, facts: impl IntoIterator<Item = (Symbol, V)>)
    where
        V: ExactSizeIterator<Item = Value>,
    {
        let mut last: Option<((Symbol, usize), &mut Run)> = None;
        for (relation, values) in facts {
            let key = (relation, values.len());
            if last.as_ref().is_none_or(|(last, _)| *last != key) {
                let run = self.0.entry(key).or_insert_with(|| match key.1 {
                    arity if arity <= NARROW_ARITY => Run::Narrow(Vec::new()),
                    arity if arity <= PACKED_ARITY => Run::Packed(Vec::new()),
                    _ => Run::Wide(Vec::new()),
                });
                last = Some((key, run));
            }
            let (_, run) = last.as_mut().expect("the fact's run was looked up");
            match run {
                Run::Narrow(keys) => keys.push(fact::pack(values) as u64),
                Run::Packed(keys) => keys.push(fact::pack(values)),
                Run::Wide(facts) => facts.push(Fact::new(relation, values.collect::<Tuple>())),
            }
        }
    }

    /// The instance of every run: packed runs sorted as integers and
    /// unpacked, wide ones sorted as facts, each deduplicated. A relation
    /// filed with several arities has several runs, which
    /// [`Instance::from_relations`] merges by its sorting fallback.
    pub(crate) fn finish(self) -> Instance {
        let blocks = self.0.into_iter().map(|((relation, arity), run)| {
            let rows = match run {
                Run::Narrow(keys) => fact::unpack_sorted(relation, arity, keys),
                Run::Packed(keys) => fact::unpack_sorted(relation, arity, keys),
                Run::Wide(mut facts) => {
                    facts.sort_unstable();
                    facts.dedup();
                    facts
                }
            };
            (relation, rows)
        });
        Instance::from_relations(blocks.collect())
    }
}

/// The sorted orders, locked. A panic while they were locked may have left
/// one half built and has poisoned the lock; the orders are a cache, rebuilt
/// on demand, so they are all dropped and the instance goes on without them.
fn lock(orders: &Mutex<Vec<Arc<SortedOrder>>>) -> MutexGuard<'_, Vec<Arc<SortedOrder>>> {
    orders.lock().unwrap_or_else(|poisoned| {
        orders.clear_poison();
        let mut orders = poisoned.into_inner();
        orders.clear();
        orders
    })
}

/// Each of the ascending `rows` with its place among the ascending
/// `theirs`, all of one relation: how many of those are below it, and
/// whether it is one of them. One walk that gallops — a row landing `d`
/// places past the previous one costs O(log d) comparisons — so a small run
/// against a large instance costs a binary search a row, and two runs of
/// equal size a merge. The relation is shared, so only values are compared.
fn placed<'a>(
    rows: &'a [Fact],
    theirs: &'a [Fact],
) -> impl Iterator<Item = (&'a Fact, usize, bool)> + 'a {
    let mut at = 0;
    rows.iter().map(move |fact| {
        let below = |row: &Fact| row.values < fact.values;
        let mut step = 1;
        while theirs.get(at + step).is_some_and(below) {
            at += step;
            step *= 2;
        }
        at += theirs[at..theirs.len().min(at + step)].partition_point(below);
        let held = theirs.get(at).is_some_and(|row| row.values == fact.values);
        (fact, at, held)
    })
}

/// Merges `fresh` (ascending, none of it in `rows`, and `slots[i]` of the
/// old rows below `fresh[i]`) into the ascending `rows`: one forward pass
/// into a vector of exactly the merged length, which moves every old row
/// once, block by block, and clones each fresh row into its place.
fn merge_in(rows: &mut Vec<Fact>, fresh: &[Fact], slots: &[usize]) {
    let mut merged = Vec::with_capacity(rows.len() + fresh.len());
    let mut old = std::mem::take(rows).into_iter();
    let mut moved = 0;
    for (fact, &slot) in fresh.iter().zip(slots) {
        merged.extend(old.by_ref().take(slot - moved));
        merged.push(fact.clone());
        moved = slot;
    }
    merged.extend(old);
    *rows = merged;
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
/// the new rows are found by one walk and merged in by one forward pass.
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

    /// The union of owned instances — a round's node outputs — built as
    /// the text parser builds: every relation's rows of arity ≤ 4 become
    /// packed integer keys (each value's 32-bit id), sorted and
    /// deduplicated once and unpacked into the ascending rows that move
    /// in, so no [`Fact`] is sorted. Each instance's rows are freed as
    /// they are packed. Wider rows, and a relation of several arities, are
    /// sorted as facts, as [`Instance::from_facts`] does.
    pub fn union_all(instances: impl IntoIterator<Item = Instance>) -> Instance {
        let mut runs = Runs::default();
        for instance in instances {
            for (relation, rows) in instance.relations {
                runs.extend(
                    rows.iter()
                        .map(|fact| (relation, fact.values.iter().copied())),
                );
            }
        }
        runs.finish()
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
    /// Per relation, one galloping walk over values finds the new rows and
    /// where each goes; one forward pass merges them into a row vector of
    /// exactly the new length, moving each old row once; and every sorted
    /// order of the relation takes in just those rows, each placed by a
    /// gallop down from the top of the order's old rows still to merge (an
    /// order someone still holds is copied first).
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
            let mut orders = lock(&self.orders);
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
        lock(&self.orders).retain(|order| order.relation != relation);
    }

    /// The rows of `relation` with as many values as `columns` has entries,
    /// column `c` holding argument position `columns[c]`, sorted: built on
    /// first use, caught up with the rows appended since the last, and
    /// shared by every caller (from any thread; the lock is held while an
    /// order is built, so it is built once).
    pub(crate) fn sorted_order(&self, relation: Symbol, columns: &[usize]) -> Arc<SortedOrder> {
        let facts = self.facts_of(relation);
        let mut orders = lock(&self.orders);
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
        lock(&self.orders).len()
    }

    /// How many of the [cached orders](Instance::cached_orders) are of
    /// `relation`: those an [`Instance::absorb`] that adds rows to it
    /// merges them into.
    pub fn cached_orders_of(&self, relation: Symbol) -> usize {
        let orders = lock(&self.orders);
        orders
            .iter()
            .filter(|order| order.relation == relation)
            .count()
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

    /// The relations with at least one fact, ascending.
    pub fn relations(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.relations
            .iter()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(&relation, _)| relation)
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
        let of = |relation| i.cached_orders_of(Symbol::new(relation));
        assert_eq!((of("R"), of("S")), (0, 1));
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
        assert_eq!(i.cached_orders_of(Symbol::new("R")), 2);
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
    fn a_sorted_order_records_its_range_as_it_takes_rows_in() {
        let raw = |id: u32| top(id).raw();
        let [r, s] = ["R", "S"].map(Symbol::new);
        let mut i = Instance::from_facts([
            Fact::new(r, vec![top(20), top(30)]),
            Fact::new(r, vec![top(25), top(40)]),
            // another arity: not in the binary orders, nor in their range
            Fact::new(r, vec![top(1)]),
            Fact::new(s, vec![top(0), top(99)]),
        ]);
        for columns in [&[0, 1][..], &[1, 0]] {
            assert_eq!(i.sorted_order(r, columns).range(), Some((raw(20), raw(40))));
        }
        assert_eq!(i.sorted_order(r, &[0]).range(), Some((raw(1), raw(1))));
        // An absorb takes its new rows into the orders, and their values
        // into the range; a known row changes nothing.
        let held = i.sorted_order(r, &[1, 0]);
        let _ = i.absorb(&Instance::from_facts([
            Fact::new(r, vec![top(20), top(30)]),
            Fact::new(r, vec![top(10), top(25)]),
            Fact::new(r, vec![top(25), top(50)]),
        ]));
        assert_eq!(
            held.range(),
            Some((raw(20), raw(40))),
            "a held order is copied"
        );
        assert_eq!(i.sorted_order(r, &[1, 0]).range(), Some((raw(10), raw(50))));
        // An in-order insert is taken in when the order catches up.
        assert!(i.insert(Fact::new(r, vec![top(60), top(61)])));
        assert_eq!(i.sorted_order(r, &[0, 1]).range(), Some((raw(10), raw(61))));
        // No row of the order's arity: no range. Nullary rows have no value.
        assert_eq!(i.sorted_order(s, &[0]).range(), None);
        let nullary = Instance::from_facts([Fact::new(s, Vec::new())]);
        let order = nullary.sorted_order(s, &[]);
        assert_eq!((order.rows(), order.range()), (1, None));
    }

    // An iterated evaluation carries one instance: each round's delta is
    // what that round's absorb returned.

    fn square() -> crate::ConjunctiveQuery {
        crate::ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
    }

    fn parsed(text: &str) -> Instance {
        crate::parse_instance(text).unwrap()
    }

    #[test]
    fn initial_facts_all_count_as_delta() {
        // The first absorb, into the empty state, returns the whole input,
        // so the first differential step is a full evaluation.
        let i = parsed("R(a, b). R(b, c).");
        let mut state = Instance::new();
        let delta = state.absorb(&i);
        assert_eq!((&state, &delta), (&i, &i));
        let step = crate::evaluate_seminaive_step(&square(), &state, &delta);
        assert_eq!(step, crate::evaluate(&square(), &i));
    }

    #[test]
    fn absorb_records_only_genuinely_new_facts() {
        let mut state = parsed("R(a, b).");
        let run = Instance::from_facts([
            edge("a", "b"), // already known
            edge("b", "c"), // new
            edge("b", "c"), // duplicate within the batch
        ]);
        assert_eq!(state.absorb(&run), parsed("R(b, c)."));
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn take_delta_resets_the_delta_but_keeps_the_facts() {
        // Each absorb's delta covers that absorb only; the facts stay.
        let mut state = Instance::new();
        assert_eq!(state.absorb(&parsed("R(a, b).")), parsed("R(a, b)."));
        let run = parsed("R(a, b). R(b, c).");
        assert_eq!(state.absorb(&run), parsed("R(b, c)."));
        assert!(state.absorb(&run).is_empty());
        assert_eq!(state, run);
    }

    #[test]
    fn round_by_round_equals_full_reevaluation() {
        // Drive a transitive-closure iteration by hand: at every round the
        // cumulative semi-naive output must equal evaluating the full
        // instance from scratch.
        let q = square();
        let mut state = Instance::new();
        let mut delta = state.absorb(&parsed("R(a, b). R(b, c). R(c, d)."));
        let mut cumulative = Instance::new();
        for _ in 0..6 {
            let new = crate::evaluate_seminaive_step(&q, &state, &delta);
            cumulative.absorb(&new);
            assert_eq!(cumulative, crate::evaluate(&q, &state));
            let feedback = new.facts().map(|f| Fact::new("R", f.values.clone()));
            delta = state.absorb(&feedback.collect());
            if delta.is_empty() {
                break;
            }
        }
        assert!(delta.is_empty());
        // a 3-edge chain closes to all pairs at distance >= 2
        assert!(state.contains(&edge("a", "d")));
    }

    #[test]
    fn growth_keeps_the_full_instances_indexes_warm() {
        let q = square();
        let mut state = Instance::new();
        let delta = state.absorb(&parsed("R(a, b). R(b, c)."));
        let _ = crate::evaluate_seminaive_step(&q, &state, &delta); // builds the orders
        let built = state.cached_orders();
        assert!(built > 0);
        let delta = state.absorb(&parsed("R(c, d)."));
        assert_eq!(
            state.cached_orders(),
            built,
            "absorb must merge into the orders, not drop them"
        );
        let new = crate::evaluate_seminaive_step(&q, &state, &delta);
        assert!(new.contains(&Fact::from_names("T", &["b", "d"])));
        assert_eq!(state.cached_orders(), built, "caught up, not rebuilt");
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

        // Large batches: about 200 facts at a time into a state of about
        // 2 000, lying wholly below the held rows, wholly above them, and
        // between them, so each fresh row's gallop runs long and short. The
        // state starts at 2¹¹ − 1 rows: the gallop of a row below them all
        // ends on a step that lands on row 0 exactly.
        let mut pool: Vec<Value> = (0..128).map(|v| Value::indexed("g", v)).collect();
        pool.sort();
        let edge = |a: u64, b: u64| Fact::new("R", vec![pool[a as usize], pool[b as usize]]);
        let held = (32..96).flat_map(|a| (0..32).map(move |b| (a, 2 * b)));
        let mut grown = Instance::from_facts(held.skip(1).map(|(a, b)| edge(a, b)));
        assert_eq!(grown.len(), 2047);
        for columns in ORDERS {
            let _ = order_rows(&grown, "R", columns);
        }
        for phase in ["below", "above", "between", "between"] {
            let batch: Vec<Fact> = (0..200)
                .map(|_| match phase {
                    "below" => edge(random(32), random(128)),
                    "above" => edge(96 + random(32), random(128)),
                    _ => edge(32 + random(64), 2 * random(64) + 1),
                })
                .collect();
            let (before, orders) = (grown.to_set(), grown.cached_orders());
            let new = grown.absorb(&Instance::from_facts(batch.iter().cloned()));
            let batch: BTreeSet<Fact> = batch.into_iter().collect();
            assert!(batch.len() > 150, "phase {phase}");
            assert_eq!(new.to_set(), &batch - &before, "phase {phase}");
            assert_eq!(grown.cached_orders(), orders, "absorb keeps the orders");
            let fresh = Instance::from_facts(grown.facts().cloned());
            for columns in ORDERS {
                let rows = order_rows(&grown, "R", columns);
                assert_eq!(rows, expected_rows(&grown, "R", columns), "phase {phase}");
                assert_eq!(rows, order_rows(&fresh, "R", columns), "phase {phase}");
            }
            assert_eq!(
                grown.facts_of(Symbol::new("R")),
                fresh.facts_of(Symbol::new("R"))
            );
        }
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
    fn a_panic_while_the_orders_are_locked_only_empties_the_cache() {
        // A panic in an order build leaves the lock poisoned. The orders are
        // a cache: the next use drops them and rebuilds, and every answer
        // stays the Definition's — each valuation over the active domain
        // whose body facts the instance holds, read off the rows alone.
        let query = crate::ConjunctiveQuery::parse("T(x, y, z) :- R(x, y), R(y, z), R(z, x).");
        let query = query.unwrap();
        let names = ["a", "b", "c", "d"];
        let pairs = (0..4).flat_map(|a| (0..4).map(move |b| (a, b)));
        let pairs = pairs.filter(|(a, b)| (a + 2 * b) % 3 != 0);
        let i = Instance::from_facts(pairs.map(|(a, b)| edge(names[a], names[b])));
        let adom: Vec<Value> = i.adom().into_iter().collect();
        let mut expected = Instance::new();
        for &x in &adom {
            for &y in &adom {
                for &z in &adom {
                    let v = crate::Valuation::from_iter(
                        ["x", "y", "z"]
                            .map(crate::Variable::new)
                            .into_iter()
                            .zip([x, y, z]),
                    );
                    if v.satisfies(&query, &i) {
                        expected.insert(v.derived_fact(&query));
                    }
                }
            }
        }
        assert!(!expected.is_empty());
        assert_eq!(crate::evaluate(&query, &i), expected);
        assert_eq!(i.cached_orders(), 2);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = i.orders.lock().unwrap();
            panic!("an order build fails half way");
        }));
        assert!(poisoned.is_err() && i.orders.is_poisoned());
        assert_eq!(i.cached_orders(), 0, "the cache is dropped");
        assert!(!i.orders.is_poisoned(), "and the lock recovered");
        assert_eq!(crate::evaluate(&query, &i), expected);
        assert_eq!(i.cached_orders(), 2, "rebuilt on demand");
        // `&mut` growth recovers the same way.
        let mut grown = i.clone();
        let _ = crate::evaluate(&query, &grown);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = grown.orders.lock().unwrap();
            panic!("an order build fails half way");
        }));
        assert_eq!(
            grown.absorb(&Instance::from_facts([edge("d", "a")])).len(),
            1
        );
        assert_eq!(
            crate::evaluate(&query, &grown),
            crate::evaluate(&query, &grown.clone())
        );
    }

    /// `union_all` of `outputs` checked against the bulk build of their
    /// facts, rows and all.
    fn assert_union_all_is_from_facts(outputs: Vec<Instance>) {
        let facts = outputs.iter().flat_map(Instance::facts).cloned();
        let built = Instance::from_facts(facts.collect::<Vec<_>>());
        let union = Instance::union_all(outputs);
        assert_eq!(union, built);
        assert_eq!(union.len(), built.len());
        for relation in built.relations() {
            assert_eq!(union.facts_of(relation), built.facts_of(relation));
        }
    }

    #[test]
    fn union_all_is_the_bulk_build_of_its_instances() {
        let [r, s] = ["R", "S"].map(Symbol::new);
        let row = |relation, ids: &[u32]| {
            Fact::new(relation, ids.iter().map(|&id| top(id)).collect::<Vec<_>>())
        };
        let of = |facts: Vec<Fact>| Instance::from_facts(facts);
        // disjoint outputs, and overlapping ones, of arities 0 to 4
        for arity in 0..=4 {
            let ids = |base: u32| -> Vec<u32> { (0..arity).map(|k| base + k).collect() };
            let disjoint = (0..4).map(|n| of((0..5).map(|k| row(r, &ids(10 * k + n))).collect()));
            assert_union_all_is_from_facts(disjoint.collect());
            let overlapping = (0..4).map(|n| of((n..n + 5).map(|k| row(r, &ids(k))).collect()));
            assert_union_all_is_from_facts(overlapping.collect());
        }
        // a relation of two arities — in one output, or one per output, the
        // packable arity first or second — and an arity-6 relation, which
        // spills out of the key
        let mixed = vec![row(r, &[1, 2]), row(r, &[3]), row(s, &[1, 2])];
        assert_union_all_is_from_facts(vec![of(mixed), of(vec![row(r, &[1, 2])])]);
        let binary = || of(vec![row(r, &[4, 5]), row(r, &[1, 1]), row(s, &[2, 2])]);
        let unary = || of(vec![row(r, &[7]), row(r, &[1]), row(s, &[2, 2])]);
        assert_union_all_is_from_facts(vec![binary(), unary(), binary()]);
        assert_union_all_is_from_facts(vec![unary(), binary()]);
        let wide = |base: u32| of((0..4).map(|k| row(r, &[base + k, 1, 2, 3, 4, 5])).collect());
        assert_union_all_is_from_facts(vec![wide(0), wide(2), of(vec![row(s, &[9])])]);
        assert_union_all_is_from_facts(vec![of(vec![row(r, &[1, 2, 3, 4, 5])]), wide(0)]);
        assert_union_all_is_from_facts(Vec::new());
        assert_union_all_is_from_facts(vec![Instance::new(), binary()]);
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
