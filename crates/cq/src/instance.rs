//! Database instances: finite sets of facts with per-relation indexes.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::fact::Fact;
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

/// Up to this many facts [`Instance::from_facts`] inserts one by one: the
/// decision procedures build tens of thousands of query-body-sized instances
/// (a valuation's required facts), where the bulk builder's sort buffer costs
/// more than it saves (3 facts: 170 ns inserted, 210 ns bulk; 6: equal).
const BULK_BUILD_MIN: usize = 4;

/// A database instance: a finite set of facts.
///
/// Facts are kept in a global ordered set (for deterministic iteration and
/// set semantics), in a per-relation vector used by the evaluation engine,
/// and — built lazily on first use — in per-relation secondary hash indexes
/// keyed by `(argument position, value)` that let the evaluator retrieve
/// only the candidate facts matching a partially bound atom. Insertion
/// maintains built indexes incrementally (appended rows keep the posting
/// lists sorted); `remove` invalidates them, and they are rebuilt in one
/// pass on the next indexed lookup.
#[derive(Default)]
pub struct Instance {
    facts: BTreeSet<Fact>,
    by_relation: BTreeMap<Symbol, Vec<Fact>>,
    indexes: OnceLock<BTreeMap<Symbol, RelationIndex>>,
    /// How many times the secondary indexes were built from scratch over
    /// this instance's lifetime — the regression counter behind
    /// [`Instance::index_builds`]. Atomic because lazily building through
    /// `&self` must stay `Sync`.
    index_builds: AtomicU64,
}

// The secondary indexes are a caching layer: they are never cloned (the
// clone rebuilds lazily if and when it evaluates queries). The build
// counter restarts with the fresh cache.
impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            facts: self.facts.clone(),
            by_relation: self.by_relation.clone(),
            indexes: OnceLock::new(),
            index_builds: AtomicU64::new(0),
        }
    }
}

// Equality is on the fact set only; the per-relation index is a cache whose
// internal ordering depends on insertion order.
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.facts == other.facts
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.facts.cmp(&other.facts)
    }
}

impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.facts.hash(state);
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
    /// through: one sort + dedup, then the ordered set is built bottom-up
    /// from the sorted run instead of by one tree search per fact (inputs
    /// known to hold a handful of facts are simply inserted). The sort
    /// is a run-detecting merge sort, so input that is already sorted — a
    /// chunk cut out of another instance, or several such chunks
    /// concatenated — costs a linear pass. The order of the rows behind
    /// [`Instance::facts_of`] (and hence the row ids in
    /// [`Instance::posting`]) is unspecified; callers must go through
    /// `facts_of(relation)[row]`.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(facts: I) -> Instance {
        let facts = facts.into_iter();
        if facts.size_hint().1.is_some_and(|n| n <= BULK_BUILD_MIN) {
            let mut tiny = Instance::new();
            facts.for_each(|fact| {
                tiny.insert(fact);
            });
            return tiny;
        }
        let mut sorted: Vec<Fact> = facts.collect();
        sorted.sort();
        sorted.dedup();
        // `Fact` orders by relation first, so every relation is one run.
        let mut by_relation = BTreeMap::new();
        for rows in sorted.chunk_by(|a, b| a.relation == b.relation) {
            by_relation.insert(rows[0].relation, rows.to_vec());
        }
        Instance {
            facts: sorted.into_iter().collect(),
            by_relation,
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
        let mut inst = Instance::new();
        for rel in schema.relations() {
            if values.is_empty() && rel.arity > 0 {
                continue;
            }
            let mut idx = vec![0usize; rel.arity];
            loop {
                inst.insert(Fact::new(
                    rel.name,
                    idx.iter().map(|&i| values[i]).collect(),
                ));
                // advance the odometer; stop after wrapping around
                let mut pos = 0;
                loop {
                    if pos == rel.arity {
                        break;
                    }
                    idx[pos] += 1;
                    if idx[pos] == values.len() {
                        idx[pos] = 0;
                        pos += 1;
                    } else {
                        break;
                    }
                }
                if pos == rel.arity {
                    break;
                }
            }
        }
        inst
    }

    /// Inserts a fact. Returns `true` if the fact was not already present.
    ///
    /// Membership is tested first, so a fact that is already there — the
    /// common case when a round re-derives old facts — costs a search and
    /// no copy.
    ///
    /// If the secondary indexes are already built, they are **maintained
    /// incrementally**: the new fact is appended to the per-position posting
    /// lists (which stay sorted, because the new row id is the largest), so
    /// growing an instance — the hot path of delta-driven multi-round
    /// evaluation — never throws away index work. Only [`Instance::remove`]
    /// still invalidates.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let new = !self.facts.contains(&fact);
        if new {
            self.push_new(fact);
        }
        new
    }

    /// [`Instance::insert`] for a borrowed fact: copies it only when it is
    /// not already present.
    pub fn insert_cloned(&mut self, fact: &Fact) -> bool {
        let new = !self.facts.contains(fact);
        if new {
            self.push_new(fact.clone());
        }
        new
    }

    /// Adds a fact known to be absent to the set, the relation's rows and
    /// the built indexes.
    fn push_new(&mut self, fact: Fact) {
        self.facts.insert(fact.clone());
        let rows = self.by_relation.entry(fact.relation).or_default();
        if let Some(indexes) = self.indexes.get_mut() {
            let row = u32::try_from(rows.len()).expect("relation larger than u32::MAX facts");
            indexes.entry(fact.relation).or_default().append(row, &fact);
        }
        rows.push(fact);
    }

    /// Removes a fact. Returns `true` if it was present.
    ///
    /// Invalidates the secondary indexes.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        if self.facts.remove(fact) {
            self.invalidate_indexes();
            if let Some(v) = self.by_relation.get_mut(&fact.relation) {
                v.retain(|f| f != fact);
            }
            true
        } else {
            false
        }
    }

    /// Drops the lazily built secondary indexes; the next indexed lookup
    /// rebuilds them from the current fact set.
    fn invalidate_indexes(&mut self) {
        self.indexes = OnceLock::new();
    }

    /// The secondary indexes, building them on first use.
    fn indexes(&self) -> &BTreeMap<Symbol, RelationIndex> {
        self.indexes.get_or_init(|| {
            self.index_builds.fetch_add(1, Ordering::Relaxed);
            self.by_relation
                .iter()
                .map(|(&rel, facts)| (rel, RelationIndex::build(facts)))
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
        self.index_builds.load(Ordering::Relaxed)
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

    /// Whether the instance contains `fact`.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }

    /// Whether `other` is a subset of this instance.
    pub fn contains_all(&self, other: &Instance) -> bool {
        other.facts.is_subset(&self.facts)
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Iterates over all facts in deterministic order.
    pub fn facts(&self) -> impl Iterator<Item = &Fact> + '_ {
        self.facts.iter()
    }

    /// The facts of relation `relation` (empty slice if none).
    pub fn facts_of(&self, relation: Symbol) -> &[Fact] {
        self.by_relation
            .get(&relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The active domain: all data values occurring in the instance.
    pub fn adom(&self) -> BTreeSet<Value> {
        self.facts
            .iter()
            .flat_map(|f| f.values.iter().copied())
            .collect()
    }

    /// The schema induced by the instance (each relation with the arity of
    /// its facts). Mixed arities for the same relation keep the first arity
    /// seen; [`Instance::is_well_formed`] reports such anomalies.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for f in &self.facts {
            if schema.arity(f.relation).is_none() {
                schema.add(f.relation, f.arity());
            }
        }
        schema
    }

    /// Checks that every relation is used with a single arity.
    pub fn is_well_formed(&self) -> bool {
        let schema = self.schema();
        self.facts.iter().all(|f| schema.admits(f))
    }

    /// Set union.
    pub fn union(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.facts().chain(other.facts()).cloned())
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.facts.intersection(&other.facts).cloned())
    }

    /// Facts of `self` not in `other`.
    pub fn difference(&self, other: &Instance) -> Instance {
        Instance::from_facts(self.facts.difference(&other.facts).cloned())
    }

    /// All subsets of this instance (used by brute-force cross-checks in
    /// tests; exponential, only call on tiny instances).
    pub fn subsets(&self) -> Vec<Instance> {
        let facts: Vec<&Fact> = self.facts.iter().collect();
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
        self.facts.clone()
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
            let built = Instance::from_facts(iter);
            self.facts = built.facts;
            self.by_relation = built.by_relation;
            self.invalidate_indexes();
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
    type IntoIter = std::collections::btree_set::IntoIter<Fact>;

    /// The facts by value, in the order of [`Instance::facts`] — merging
    /// instances moves facts instead of cloning them.
    fn into_iter(self) -> Self::IntoIter {
        self.facts.into_iter()
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
        for (i, fact) in self.facts.iter().enumerate() {
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

    #[test]
    fn mixed_arity_relations_index_safely() {
        let mut i = Instance::from_facts([Fact::from_names("R", &["a", "b"])]);
        i.insert(Fact::from_names("R", &["a"]));
        let r = Symbol::new("R");
        // both facts carry "a" at position 0; only the binary one has position 1
        assert_eq!(i.posting(r, 0, Value::new("a")).len(), 2);
        assert_eq!(i.posting(r, 1, Value::new("b")).len(), 1);
    }
}
