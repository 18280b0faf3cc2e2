//! Evaluation of conjunctive queries over instances.
//!
//! Every entry point — [`evaluate_with`], [`evaluate_seminaive_step_with`],
//! [`for_each_satisfying`] — runs the same **compiled kernel**:
//!
//! * **Slots, not maps.** A query is compiled once per call
//!   (`CompiledQuery`, one pass over its atoms) into dense variable
//!   *slots*: every body atom becomes a list of argument slots, the head a
//!   slot projection. The search binds a flat `[Option<Value>]` slot array
//!   and undoes through one shared trail, so a visited search node allocates
//!   nothing and touches no ordered map. For the binary join each atom's
//!   relation is resolved once into a `RelationView` (rows plus the lazily
//!   resolved secondary index), so a posting lookup inside the search is one
//!   hash probe; the multiway join resolves each atom to a sorted column
//!   order and probes nothing.
//! * **Answers before facts.** `evaluate*` project every satisfying
//!   assignment onto the head slots and collect the tuples with set
//!   semantics *before any [`Fact`] exists*: a hash probe on the projection,
//!   a [`Tuple`] only for one seen for the first time (inline, so no
//!   allocation, up to a head of arity 5), and one [`Instance::from_facts`]
//!   over the distinct set at the end. The work per derivation is a probe;
//!   the allocations are at most O(answers), never O(valuations).
//!   (`evaluate_done` in a trace carries both counts.) A full evaluation of
//!   a query whose head mentions every variable skips the set: each leaf of
//!   one enumeration is a new answer there, valuations = answers, and the
//!   bulk build's sort and dedup finish the job.
//! * **Valuations only at the boundary.** [`CompiledQuery`] is public:
//!   [`CompiledQuery::for_each_satisfying`] hands every leaf's slot array to
//!   the caller, which is what the decision procedures of `pc-core` loop
//!   over. [`for_each_satisfying`] keeps its `&Valuation` callback as a thin
//!   adapter that refills one reused [`Valuation`] from the slots at each
//!   leaf.
//!
//! [`EvalOptions`] selects among the kernel's strategies:
//!
//! * **Candidate retrieval** — by default an atom with at least one bound
//!   argument iterates the shortest posting list of its bound positions and
//!   skips rows absent from the others. `use_indexes: false` hands the
//!   kernel unindexed views instead: every atom scans its relation and the
//!   planner uses an index-free estimate, so no index is ever built. That
//!   is [`EvalOptions::scan_naive`], the oracle of the property suites —
//!   the same code path minus the index.
//! * **Join ordering** — by default atoms are ordered by a cost model that
//!   estimates each atom's candidate-set size from the index statistics
//!   (exact posting-list lengths for slots pre-bound to known values,
//!   average selectivity `|R| / distinct(position)` for slots bound by
//!   earlier atoms). [`JoinOrdering::Naive`] keeps source order.
//! * **Join strategy** — under [`JoinStrategy::Auto`] (the default) acyclic
//!   queries run the atom-at-a-time binary join, while queries whose join
//!   graph is cyclic (GYO reduction, [`crate::is_acyclic`]) switch to the
//!   *worst-case-optimal multiway join*, a leapfrog triejoin: one variable
//!   is bound at a time, and its values are the intersection of the columns
//!   it fills in every atom containing it, which avoids the
//!   intermediate-result blowup binary plans pay on triangles and other
//!   cycles. Each atom walks a *trie* — its relation's rows of the atom's
//!   arity, columns permuted into the order the search binds them, sorted,
//!   flat; built once per `(relation, column order)` and cached by the
//!   [`Instance`] — as a stack of row ranges: binding a variable is a
//!   galloping seek to the value's run in the next column, undoing it pops
//!   the range. No row set is materialised, nothing is hashed and nothing
//!   allocated inside the search, and the secondary hash indexes are never
//!   built. Variables are bound most-occurrences-first (ties by first
//!   occurrence) and each one's values ascend, so the leaves come out in
//!   lexicographic order of that variable order: **the leaf order is part of
//!   the contract** (first-violation witnesses and
//!   [`satisfying_valuations`] order rest on it). With `use_indexes: false`
//!   the evaluator still falls back to the binary scan join — not because
//!   the multiway join needs the hash indexes, but because
//!   [`EvalOptions::scan_naive`] is the oracle and must not share a kernel
//!   with what it checks.
//! * **Adaptive reordering** — with a nonzero `adaptive_factor`, the binary
//!   join compares each depth's observed candidate count against the
//!   planner's estimate and re-ranks the remaining atoms mid-search (using
//!   the now-concrete bindings as known values, i.e. exact posting counts)
//!   when observation exceeds the estimate by more than the factor, so one
//!   bad early estimate stops poisoning the rest of the search.
//!
//! All strategies enumerate exactly the same valuations; only the order and
//! shape of the backtracking search differ. A fact only ever matches an atom
//! of its own arity, so ill-formed (mixed-arity) relations evaluate the same
//! under every strategy.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;

use crate::atom::{Atom, Variable};
use crate::fact::{Fact, Tuple};
use crate::instance::{Instance, RelationView, SortedOrder};
use crate::intern::{Symbol, SymbolHashBuilder};
use crate::query::ConjunctiveQuery;
use crate::valuation::Valuation;
use crate::value::Value;

/// How the evaluator orders the body atoms before the backtracking search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinOrdering {
    /// Source order — the baseline for the join-ordering ablation.
    Naive,
    /// Cheapest-estimated-candidate-set-first, using index statistics.
    #[default]
    CostAware,
}

/// Which join algorithm the evaluator runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinStrategy {
    /// The classic atom-at-a-time backtracking join.
    Binary,
    /// The variable-at-a-time multiway join, a leapfrog triejoin over the
    /// instance's cached sorted column orders; its leaves come out in
    /// lexicographic order of its variable order. With `use_indexes: false`
    /// — the oracle configuration — the binary scan join runs instead.
    Multiway,
    /// Plan per query: multiway when the join graph is cyclic (GYO
    /// reduction), binary otherwise.
    #[default]
    Auto,
}

impl JoinStrategy {
    /// Parses a CLI-style strategy name.
    pub fn parse(name: &str) -> Option<JoinStrategy> {
        match name {
            "binary" => Some(JoinStrategy::Binary),
            "multiway" => Some(JoinStrategy::Multiway),
            "auto" => Some(JoinStrategy::Auto),
            _ => None,
        }
    }

    /// The CLI-style name of the strategy.
    pub fn label(&self) -> &'static str {
        match self {
            JoinStrategy::Binary => "binary",
            JoinStrategy::Multiway => "multiway",
            JoinStrategy::Auto => "auto",
        }
    }
}

/// Options controlling the evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Join-order selection strategy (default: cost-aware).
    pub ordering: JoinOrdering,
    /// Retrieve candidate facts through the secondary hash indexes
    /// (default). When `false`, every atom scans its whole relation.
    pub use_indexes: bool,
    /// Join algorithm selection (default: [`JoinStrategy::Auto`] — multiway
    /// on cyclic queries, binary otherwise).
    pub join_strategy: JoinStrategy,
    /// Adaptive mid-search reordering threshold for the binary join: when
    /// an atom's observed candidate count exceeds `adaptive_factor ×` its
    /// planned estimate, the remaining atoms are re-ranked with the current
    /// concrete bindings. `0` disables; only applies under
    /// [`JoinOrdering::CostAware`].
    pub adaptive_factor: u32,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            ordering: JoinOrdering::CostAware,
            use_indexes: true,
            join_strategy: JoinStrategy::Auto,
            adaptive_factor: 4,
        }
    }
}

impl EvalOptions {
    /// The seed evaluator: full-relation scans in source order.
    pub fn scan_naive() -> EvalOptions {
        EvalOptions {
            ordering: JoinOrdering::Naive,
            use_indexes: false,
            join_strategy: JoinStrategy::Binary,
            adaptive_factor: 0,
        }
    }

    /// Returns the options with the given join strategy.
    pub fn with_join_strategy(mut self, strategy: JoinStrategy) -> EvalOptions {
        self.join_strategy = strategy;
        self
    }

    /// The join algorithm these options select for `query`: the multiway
    /// join on an explicit [`JoinStrategy::Multiway`] or on
    /// [`JoinStrategy::Auto`] with a cyclic join graph — unless
    /// `use_indexes` is off: that is the oracle configuration
    /// ([`EvalOptions::scan_naive`]), which always runs the binary scan join
    /// so that it shares no kernel with what it is compared against.
    pub fn resolved_strategy(&self, query: &ConjunctiveQuery) -> JoinStrategy {
        if !self.use_indexes {
            return JoinStrategy::Binary;
        }
        match self.join_strategy {
            JoinStrategy::Binary => JoinStrategy::Binary,
            JoinStrategy::Multiway => JoinStrategy::Multiway,
            JoinStrategy::Auto => {
                if crate::acyclic::is_acyclic(query) {
                    JoinStrategy::Binary
                } else {
                    JoinStrategy::Multiway
                }
            }
        }
    }
}

/// The kernel's view of a partial valuation: slot `s` holds the value bound
/// to the `s`-th query variable, if any. At a leaf every slot is bound.
pub type Slots = [Option<Value>];

/// A query compiled to dense variable slots: slot `s` stands for
/// `variables()[s]`. Slots are numbered in first-occurrence order over the
/// body (safety makes the head variables a subset) — the order of
/// [`ConjunctiveQuery::variables`] — so compiling is one pass over the
/// atoms.
///
/// This is the kernel's public face: callers that visit many valuations
/// (the decision procedures of `pc-core`) compile once, enumerate through
/// [`CompiledQuery::for_each_satisfying`] and read the slot array at each
/// leaf instead of paying a [`Valuation`] per visit.
pub struct CompiledQuery<'q> {
    query: &'q ConjunctiveQuery,
    vars: Vec<Variable>,
    /// The body atoms' argument slots, flattened: atom `a` owns
    /// `args[starts[a]..starts[a + 1]]`.
    args: Vec<usize>,
    starts: Vec<usize>,
    /// The head projection: the slot of each head argument.
    head: Vec<usize>,
}

impl<'q> CompiledQuery<'q> {
    /// Compiles `query`.
    pub fn new(query: &'q ConjunctiveQuery) -> Self {
        let body = query.body();
        let mut vars: Vec<Variable> = Vec::new();
        let mut args = Vec::with_capacity(body.iter().map(Atom::arity).sum());
        let mut starts = Vec::with_capacity(body.len() + 1);
        for atom in body {
            starts.push(args.len());
            for &var in &atom.args {
                let slot = vars.iter().position(|&v| v == var).unwrap_or_else(|| {
                    vars.push(var);
                    vars.len() - 1
                });
                args.push(slot);
            }
        }
        starts.push(args.len());
        let head = query.head().args.iter();
        let head = head
            .map(|var| {
                vars.iter()
                    .position(|v| v == var)
                    .expect("head variables occur in the body")
            })
            .collect();
        CompiledQuery {
            query,
            vars,
            args,
            starts,
            head,
        }
    }

    /// The query this was compiled from.
    pub fn query(&self) -> &'q ConjunctiveQuery {
        self.query
    }

    /// The query variables in slot order.
    pub fn variables(&self) -> &[Variable] {
        &self.vars
    }

    /// The number of body atoms.
    pub fn atom_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The argument slots of body atom `atom`.
    pub fn atom(&self, atom: usize) -> &[usize] {
        &self.args[self.starts[atom]..self.starts[atom + 1]]
    }

    /// The slot of each head argument, in head order.
    pub fn head(&self) -> &[usize] {
        &self.head
    }

    fn slot(&self, var: Variable) -> Option<usize> {
        self.vars.iter().position(|&v| v == var)
    }

    /// The slot array with the bindings `fixed` makes on query variables;
    /// its bindings for other variables are harmless and dropped.
    pub fn bind(&self, fixed: &Valuation) -> Vec<Option<Value>> {
        let mut slots = vec![None; self.vars.len()];
        for (var, value) in fixed.bindings() {
            if let Some(slot) = self.slot(var) {
                slots[slot] = Some(value);
            }
        }
        slots
    }

    /// The valuation holding the bound slots of `slots`.
    pub fn valuation(&self, slots: &Slots) -> Valuation {
        let bound = self.vars.iter().zip(slots);
        bound
            .filter_map(|(&var, value)| Some((var, (*value)?)))
            .collect()
    }

    /// Calls `leaf` with the slot array of every satisfying assignment of
    /// the query on `instance` that extends `fixed`, through the join
    /// `opts` selects — [`for_each_satisfying`] without the [`Valuation`]
    /// per leaf, in the same order.
    pub fn for_each_satisfying<L>(
        &self,
        instance: &Instance,
        fixed: &Valuation,
        opts: EvalOptions,
        leaf: L,
    ) -> ControlFlow<()>
    where
        L: FnMut(&Slots) -> ControlFlow<()>,
    {
        let slots = self.bind(fixed);
        if opts.resolved_strategy(self.query) == JoinStrategy::Multiway {
            return match Leapfrog::new(self, instance, slots, leaf) {
                Some(mut join) => join.search(0),
                None => ControlFlow::Continue(()),
            };
        }
        let views = self.views(instance, opts.use_indexes);
        BinaryJoin::new(self, views, slots, opts, None, leaf).search(0)
    }

    /// One view per body atom over `instance`.
    fn views<'a>(&self, instance: &'a Instance, indexed: bool) -> Vec<RelationView<'a>> {
        self.query
            .body()
            .iter()
            .map(|atom| instance.view(atom.relation, indexed))
            .collect()
    }
}

/// The binding state of a search: the slot array plus the undo trail of the
/// slots bound since the search began. Public for searches over a
/// [`CompiledQuery`]'s slots outside the evaluator (the covering search of
/// `pc-core`), which bind and backtrack the same way.
pub struct Bindings {
    slots: Vec<Option<Value>>,
    trail: Vec<usize>,
}

impl Bindings {
    /// A search starting from the pre-bound `slots`, which no undo releases.
    pub fn new(slots: Vec<Option<Value>>) -> Bindings {
        Bindings {
            trail: Vec::with_capacity(slots.len()),
            slots,
        }
    }

    /// The slot array.
    pub fn slots(&self) -> &Slots {
        &self.slots
    }

    /// The trail position to [`Bindings::undo`] back to.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Binds the unbound `slot` to `value`.
    pub fn bind(&mut self, slot: usize, value: Value) {
        debug_assert!(self.slots[slot].is_none());
        self.slots[slot] = Some(value);
        self.trail.push(slot);
    }

    /// Extends the bindings so that the atom with argument slots `args`
    /// maps onto `fact`. On a clash — or a fact of another arity — nothing
    /// stays bound; on success the caller undoes to its trail mark.
    pub fn unify(&mut self, args: &[usize], fact: &Fact) -> bool {
        let values = fact.values.as_slice();
        if args.len() != values.len() {
            return false;
        }
        let mark = self.trail.len();
        for (&slot, &value) in args.iter().zip(values) {
            match self.slots[slot] {
                Some(bound) if bound == value => {}
                Some(_) => {
                    self.undo(mark);
                    return false;
                }
                None => self.bind(slot, value),
            }
        }
        true
    }

    /// Releases the slots bound since the trail was at `mark`.
    pub fn undo(&mut self, mark: usize) {
        for &slot in &self.trail[mark..] {
            self.slots[slot] = None;
        }
        self.trail.truncate(mark);
    }
}

/// The atom-at-a-time backtracking join: plan, bindings and per-depth
/// scratch space.
///
/// `views[a]` is where body atom `a` draws its candidate facts from. The
/// plain evaluator uses the same instance for every atom; the semi-naive
/// differential pass points its pivot atom at the delta instance and every
/// other atom at the full one.
struct BinaryJoin<'a, L> {
    query: &'a CompiledQuery<'a>,
    views: Vec<RelationView<'a>>,
    opts: EvalOptions,
    /// The atom processing order and the planner's per-depth candidate
    /// estimates; the adaptive reorderer compares the estimates against
    /// observed counts.
    order: Vec<usize>,
    estimates: Vec<f64>,
    /// Whether mid-search re-ranking is enabled: pivot-free searches under
    /// cost-aware ordering with a nonzero `adaptive_factor`.
    adaptive: bool,
    bindings: Bindings,
    /// One reusable buffer per search depth for the posting lists of the
    /// depth's bound argument positions.
    postings: Vec<Vec<&'a [u32]>>,
    leaf: L,
}

impl<'a, L> BinaryJoin<'a, L>
where
    L: FnMut(&Slots) -> ControlFlow<()>,
{
    /// A planned join over `views` starting from the pre-bound `slots`
    /// (see [`BinaryJoin::plan`] for `pivot`).
    fn new(
        query: &'a CompiledQuery<'a>,
        views: Vec<RelationView<'a>>,
        slots: Vec<Option<Value>>,
        opts: EvalOptions,
        pivot: Option<usize>,
        leaf: L,
    ) -> Self {
        let depths = query.atom_count();
        let mut join = BinaryJoin {
            query,
            views,
            opts,
            order: Vec::with_capacity(depths),
            estimates: Vec::with_capacity(depths),
            adaptive: false,
            bindings: Bindings::new(slots),
            postings: vec![Vec::new(); depths],
            leaf,
        };
        join.plan(pivot);
        join
    }

    /// Computes the atom processing order. Cost-aware ordering greedily
    /// picks the atom with the smallest estimated candidate set next;
    /// [`JoinOrdering::Naive`] keeps source order and never estimates.
    ///
    /// With a `pivot`, that atom is forced to the front and its slots count
    /// as bound for the rest — the plan shape of a semi-naive differential
    /// pass: the pivot matches the (small) delta first, everything else
    /// joins against the full instance. Such passes pin `views[pivot]`, so
    /// mid-search re-ranking (which permutes the tail) stays off for them.
    fn plan(&mut self, pivot: Option<usize>) {
        self.order.extend(pivot);
        self.estimates.extend(pivot.map(|_| f64::INFINITY));
        let remaining: Vec<usize> = (0..self.query.atom_count())
            .filter(|&atom| Some(atom) != pivot)
            .collect();
        if self.opts.ordering == JoinOrdering::Naive {
            self.estimates
                .extend(remaining.iter().map(|_| f64::INFINITY));
            self.order.extend(remaining);
            return;
        }
        self.adaptive = pivot.is_none() && self.opts.adaptive_factor > 0;
        let mut bound: Vec<bool> = self.bindings.slots.iter().map(Option::is_some).collect();
        for &slot in pivot.map_or(&[][..], |atom| self.query.atom(atom)) {
            bound[slot] = true;
        }
        self.rank(bound, remaining);
    }

    /// Appends `remaining` to the plan, greedily cheapest-estimate-first
    /// (ties resolved in the given order, so plans are deterministic and
    /// degrade to source order when the model cannot tell atoms apart).
    /// `bound` marks the slots earlier atoms bind — to values unknown at
    /// planning time, unless the slot array already holds them. Shared by
    /// the upfront planner and the adaptive mid-search re-ranking.
    fn rank(&mut self, mut bound: Vec<bool>, mut remaining: Vec<usize>) {
        while !remaining.is_empty() {
            let mut best_pos = 0;
            let mut best_cost = f64::INFINITY;
            for (pos, &atom) in remaining.iter().enumerate() {
                let cost = self.estimate(atom, &bound);
                if cost < best_cost {
                    best_cost = cost;
                    best_pos = pos;
                }
            }
            let best = remaining.remove(best_pos);
            self.order.push(best);
            self.estimates.push(best_cost);
            for &slot in self.query.atom(best) {
                bound[slot] = true;
            }
        }
    }

    /// Estimated number of candidate facts for `atom`: the relation size
    /// times one selectivity factor per bound argument position — the exact
    /// posting-list fraction when the slot's value is known, the average
    /// `1 / distinct(position)` when it is only `bound`. An unindexed view
    /// gets the index-free estimate instead (each bound argument keeps
    /// about a quarter of the candidates), so the scan configuration never
    /// builds an index, ordering included.
    fn estimate(&self, atom: usize, bound: &[bool]) -> f64 {
        let view = &self.views[atom];
        let args = self.query.atom(atom);
        let known = &self.bindings.slots;
        let n = view.facts.len() as f64;
        if !view.is_indexed() {
            let bound_args = args
                .iter()
                .filter(|&&slot| known[slot].is_some() || bound[slot])
                .count();
            return n / 4f64.powi(bound_args as i32);
        }
        if view.facts.is_empty() {
            return 0.0;
        }
        let mut estimate = n;
        for (position, &slot) in args.iter().enumerate() {
            if let Some(value) = known[slot] {
                estimate *= view.posting(position, value).len() as f64 / n;
            } else if bound[slot] {
                let distinct = view.distinct_values_at(position);
                if distinct > 0 {
                    estimate /= distinct as f64;
                }
            }
        }
        estimate
    }

    fn search(&mut self, depth: usize) -> ControlFlow<()> {
        if depth == self.order.len() {
            return (self.leaf)(&self.bindings.slots);
        }
        let query = self.query;
        // The posting lists of the atom's bound argument positions,
        // shortest first. An unindexed view has none and is scanned.
        let mut postings = std::mem::take(&mut self.postings[depth]);
        postings.clear();
        let view = &self.views[self.order[depth]];
        let facts = view.facts;
        if view.is_indexed() {
            for (position, &slot) in query.atom(self.order[depth]).iter().enumerate() {
                if let Some(value) = self.bindings.slots[slot] {
                    postings.push(view.posting(position, value));
                }
            }
        }
        if let Some(shortest) = (0..postings.len()).min_by_key(|&i| postings[i].len()) {
            postings.swap(0, shortest);
        }
        if self.adaptive && depth + 2 < self.order.len() {
            let observed = postings.first().map_or(facts.len(), |rows| rows.len());
            self.maybe_rerank_tail(depth, observed);
        }
        let args = query.atom(self.order[depth]);
        match postings.split_first() {
            None => {
                for fact in facts {
                    self.descend(depth, args, fact)?;
                }
            }
            // Rows absent from another bound position's list cannot match.
            Some((shortest, others)) => {
                for &row in *shortest {
                    if others.iter().all(|rows| rows.binary_search(&row).is_ok()) {
                        self.descend(depth, args, &facts[row as usize])?;
                    }
                }
            }
        }
        self.postings[depth] = postings;
        ControlFlow::Continue(())
    }

    /// Matches the atom at `depth` onto `fact` and searches on below it.
    fn descend(&mut self, depth: usize, args: &[usize], fact: &Fact) -> ControlFlow<()> {
        let mark = self.bindings.trail.len();
        if !self.bindings.unify(args, fact) {
            return ControlFlow::Continue(());
        }
        let flow = self.search(depth + 1);
        self.bindings.undo(mark);
        flow
    }

    /// The adaptive reorderer: when the candidate count observed at `depth`
    /// exceeds `adaptive_factor ×` the planner's estimate, the remaining
    /// atoms are re-ranked through the same cost model — but with the
    /// concrete bindings accumulated so far as known values, so the model
    /// now works from exact posting counts instead of planning-time
    /// averages. Re-ranking only permutes the tail of `order`; every
    /// subtree still covers all atoms, so the enumerated valuations are
    /// unchanged.
    fn maybe_rerank_tail(&mut self, depth: usize, observed: usize) {
        let factor = f64::from(self.opts.adaptive_factor);
        if (observed as f64) <= factor * self.estimates[depth].max(1.0) {
            return;
        }
        obs::instant!(
            "adaptive_reorder",
            depth = depth,
            observed = observed,
            estimate = self.estimates[depth]
        );
        // Remember the surprise so sibling subtrees with similar observed
        // counts do not replan over and over.
        self.estimates[depth] = observed as f64;
        let mut bound: Vec<bool> = self.bindings.slots.iter().map(Option::is_some).collect();
        for &slot in self.query.atom(self.order[depth]) {
            bound[slot] = true;
        }
        let remaining = self.order.split_off(depth + 1);
        self.estimates.truncate(depth + 1);
        self.rank(bound, remaining);
    }
}

/// The rows of a trie that agree with the columns bound so far.
#[derive(Clone, Copy)]
struct Run {
    start: usize,
    end: usize,
    /// How far the walk of the next column has come: `start..next` is
    /// passed.
    next: usize,
}

/// One body atom's position in its trie — the [`SortedOrder`] of the atom's
/// relation whose columns are in the order the search binds them.
struct TrieCursor<'a> {
    values: &'a [Value],
    arity: usize,
    /// `runs[c]` agrees with the `c` columns bound so far: binding a column
    /// pushes a run, undoing the binding pops it.
    runs: Vec<Run>,
}

impl<'a> TrieCursor<'a> {
    fn new(order: &'a SortedOrder) -> Self {
        let mut runs = Vec::with_capacity(order.arity() + 1);
        runs.push(Run {
            start: 0,
            end: order.rows(),
            next: 0,
        });
        TrieCursor {
            values: order.values(),
            arity: order.arity(),
            runs,
        }
    }

    /// The first of the rows `lo..hi` whose column `col` is no longer
    /// `below` (which must hold for a prefix of them), found by doubling
    /// steps from `lo`: O(log distance), which is what makes intersecting a
    /// short column with a long one cheap.
    fn gallop(&self, lo: usize, hi: usize, col: usize, below: impl Fn(Value) -> bool) -> usize {
        let below = |row: usize| below(self.values[row * self.arity + col]);
        if lo == hi || !below(lo) {
            return lo;
        }
        let (mut lo, mut step) = (lo, 1);
        while lo + step < hi && below(lo + step) {
            lo += step;
            step *= 2;
        }
        let mut hi = hi.min(lo + step);
        lo += 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The innermost run and the column that is next to bind in it.
    fn top(&self) -> (Run, usize) {
        let col = self.runs.len() - 1;
        (self.runs[col], col)
    }

    /// Starts the walk of the next unbound column over.
    fn rewind(&mut self) {
        let (run, col) = self.top();
        self.runs[col].next = run.start;
    }

    /// The next unbound column's value in the first row not yet passed.
    fn key(&self) -> Option<Value> {
        let (run, col) = self.top();
        (run.next < run.end).then(|| self.values[run.next * self.arity + col])
    }

    /// Passes the rows whose next unbound column is below `target`; the
    /// [`TrieCursor::key`] it arrives at.
    fn seek(&mut self, target: Value) -> Option<Value> {
        let (run, col) = self.top();
        self.runs[col].next = self.gallop(run.next, run.end, col, |value| value < target);
        self.key()
    }

    /// Binds the next unbound column to `value`: passes the rows up to and
    /// including the value's run and pushes that run. Whether it is
    /// non-empty; [`TrieCursor::close`] undoes the binding either way.
    fn open(&mut self, value: Value) -> bool {
        let (run, col) = self.top();
        let start = self.gallop(run.next, run.end, col, |other| other < value);
        let end = self.gallop(start, run.end, col, |other| other <= value);
        self.runs[col].next = end;
        let next = start;
        self.runs.push(Run { start, end, next });
        start < end
    }

    /// Unbinds the column bound last.
    fn close(&mut self) {
        self.runs.pop();
    }
}

/// The worst-case-optimal multiway join, a leapfrog triejoin (Veldhuizen,
/// ICDT 2014): binds one *variable* at a time instead of matching one atom
/// at a time.
///
/// Every body atom walks a trie — its relation's rows of the atom's arity,
/// columns permuted into the order the search binds them, sorted
/// ([`Instance::sorted_order`]; atoms with the same relation and column
/// order share one). The values a variable can take are the intersection of
/// the next column of every atom it occurs in, found by leapfrogging: each
/// cursor in turn gallops to the largest value any of them has reached until
/// all agree. Binding the value narrows each of those atoms to the value's
/// run of rows; a binary join's intermediate results (pairs that can never
/// close a cycle) are never materialized, and neither is anything else —
/// the search allocates nothing and hashes nothing. Once all variables are
/// bound, every atom is down to a non-empty run that agrees with the binding
/// in every column, so the binding satisfies the query.
///
/// Values are visited in ascending order at every depth, so the leaves come
/// out in lexicographic order of `var_order` — an order callers pin.
struct Leapfrog<'a, L> {
    /// The slot bound at each depth: most-constrained (most occurrences)
    /// first, ties in first-occurrence order.
    var_order: Vec<usize>,
    /// `participants[d]` = the atoms `var_order[d]` occurs in, in body
    /// order, each with the number of its columns the variable fills.
    participants: Vec<Vec<(usize, usize)>>,
    cursors: Vec<TrieCursor<'a>>,
    slots: Vec<Option<Value>>,
    leaf: L,
}

impl<'a, L> Leapfrog<'a, L>
where
    L: FnMut(&Slots) -> ControlFlow<()>,
{
    /// Orders the unbound slots, opens each atom's trie in the matching
    /// column order and binds the columns of the pre-bound slots. `None`
    /// when some atom cannot match at all (no row of its arity, or a
    /// pre-bound value that occurs nowhere): no valuations.
    fn new(
        query: &CompiledQuery<'_>,
        instance: &'a Instance,
        slots: Vec<Option<Value>>,
        leaf: L,
    ) -> Option<Self> {
        let mut occurrence_count = vec![0usize; slots.len()];
        for &slot in &query.args {
            occurrence_count[slot] += 1;
        }
        // Slot order is first-occurrence order; the sort is stable.
        let mut var_order: Vec<usize> = (0..slots.len())
            .filter(|&slot| slots[slot].is_none())
            .collect();
        var_order.sort_by_key(|&slot| Reverse(occurrence_count[slot]));
        // When a slot is bound: 0 for the pre-bound ones, then by depth.
        let mut bound_at = vec![0; slots.len()];
        for (depth, &slot) in var_order.iter().enumerate() {
            bound_at[slot] = depth + 1;
        }
        let mut participants = vec![Vec::new(); var_order.len()];
        let mut cursors = Vec::with_capacity(query.atom_count());
        let mut columns = Vec::new();
        for (atom, body_atom) in query.query.body().iter().enumerate() {
            let args = query.atom(atom);
            // A variable repeated in the atom fills adjacent columns.
            columns.clear();
            columns.extend(0..args.len());
            columns.sort_by_key(|&position| bound_at[args[position]]);
            let order = instance.sorted_order(body_atom.relation, &columns);
            if order.rows() == 0 {
                return None;
            }
            let mut cursor = TrieCursor::new(order);
            for &position in &columns {
                let slot = args[position];
                match slots[slot] {
                    Some(value) => {
                        if !cursor.open(value) {
                            return None;
                        }
                    }
                    None => {
                        let at_depth = &mut participants[bound_at[slot] - 1];
                        match at_depth.last_mut() {
                            Some((last, filled)) if *last == atom => *filled += 1,
                            _ => at_depth.push((atom, 1)),
                        }
                    }
                }
            }
            cursors.push(cursor);
        }
        Some(Leapfrog {
            var_order,
            participants,
            cursors,
            slots,
            leaf,
        })
    }

    /// Moves the cursors of `depth`'s atoms to the smallest value not yet
    /// passed that all of them carry in their next column, if there is one.
    fn next_common(&mut self, depth: usize) -> Option<Value> {
        let atoms = &self.participants[depth];
        let mut target = self.cursors[atoms[0].0].key()?;
        // `agreed` atoms in a row, ending at `at`, sit at `target`.
        let (mut agreed, mut at) = (1, 0);
        while agreed < atoms.len() {
            at = if at + 1 == atoms.len() { 0 } else { at + 1 };
            let key = self.cursors[atoms[at].0].seek(target)?;
            if key == target {
                agreed += 1;
            } else {
                (target, agreed) = (key, 1);
            }
        }
        Some(target)
    }

    fn search(&mut self, depth: usize) -> ControlFlow<()> {
        if depth == self.var_order.len() {
            return (self.leaf)(&self.slots);
        }
        let slot = self.var_order[depth];
        for &(atom, _) in &self.participants[depth] {
            self.cursors[atom].rewind();
        }
        while let Some(value) = self.next_common(depth) {
            // Only a variable repeated inside an atom can still fail here:
            // its later columns must carry the value too.
            let mut alive = true;
            for &(atom, filled) in &self.participants[depth] {
                for _ in 0..filled {
                    alive &= self.cursors[atom].open(value);
                }
            }
            let flow = if alive {
                self.slots[slot] = Some(value);
                let flow = self.search(depth + 1);
                self.slots[slot] = None;
                flow
            } else {
                ControlFlow::Continue(())
            };
            for &(atom, filled) in &self.participants[depth] {
                for _ in 0..filled {
                    self.cursors[atom].close();
                }
            }
            flow?;
        }
        ControlFlow::Continue(())
    }
}

/// Enumerates the satisfying valuations of `query` on `instance` that extend
/// the partial valuation `fixed`, invoking `callback` for each.
///
/// The callback receives a *total* valuation on the query variables and can
/// stop the enumeration early by returning [`ControlFlow::Break`]. The
/// function returns `Break(())` when the enumeration was stopped early.
pub fn for_each_satisfying<F>(
    query: &ConjunctiveQuery,
    instance: &Instance,
    fixed: &Valuation,
    opts: EvalOptions,
    mut callback: F,
) -> ControlFlow<()>
where
    F: FnMut(&Valuation) -> ControlFlow<()>,
{
    let compiled = CompiledQuery::new(query);
    // One valuation serves every leaf: rebinding a bound variable
    // overwrites in place.
    let mut valuation = Valuation::new();
    compiled.for_each_satisfying(instance, fixed, opts, |slots| {
        for (&var, value) in compiled.vars.iter().zip(slots) {
            valuation.bind(var, value.expect("every slot is bound at a leaf"));
        }
        callback(&valuation)
    })
}

/// The head tuples of an evaluation.
enum Collected {
    /// Set semantics *before any [`Fact`] exists*: the general case.
    Distinct(HashSet<Tuple, SymbolHashBuilder>),
    /// Every leaf is a new answer, so there is nothing to look up: the leaves
    /// of one enumeration are distinct valuations, and a head in which every
    /// variable occurs keeps them apart.
    Each(Vec<Fact>),
}

/// The answers of an evaluation: every leaf's projection onto the head.
struct Answers {
    relation: Symbol,
    /// The head projection: the slot of each head argument.
    head: Vec<usize>,
    /// The projection of the leaf at hand, reused across leaves.
    tuple: Vec<Value>,
    collected: Collected,
    valuations: u64,
}

impl Answers {
    /// `single_pass`: whether the leaves will come from one enumeration (a
    /// semi-naive step's pivoted passes derive one valuation several times).
    fn new(compiled: &CompiledQuery<'_>, single_pass: bool) -> Answers {
        let head = compiled.query.head();
        let full_head = (0..compiled.vars.len()).all(|slot| compiled.head.contains(&slot));
        Answers {
            relation: head.relation,
            head: compiled.head.clone(),
            tuple: Vec::with_capacity(head.arity()),
            collected: if single_pass && full_head {
                Collected::Each(Vec::new())
            } else {
                Collected::Distinct(HashSet::default())
            },
            valuations: 0,
        }
    }

    /// Records the head tuple of one satisfying assignment; copies it only
    /// when it is new (and allocates only if it is wider than 5 as well).
    fn collect(&mut self, slots: &Slots) -> ControlFlow<()> {
        self.valuations += 1;
        let head = self.head.iter();
        let mut values = head.map(|&slot| slots[slot].expect("every slot is bound at a leaf"));
        match &mut self.collected {
            Collected::Each(facts) => {
                facts.push(Fact::new(self.relation, Tuple::from_iter(values)))
            }
            Collected::Distinct(distinct) => {
                self.tuple.clear();
                self.tuple.extend(&mut values);
                if !distinct.contains(self.tuple.as_slice()) {
                    distinct.insert(self.tuple.iter().copied().collect());
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The answers as an instance: one bulk build, whose sort is a linear
    /// pass over answers that arrive ascending (as the multiway join's do
    /// when the head lists the variables in search order) and whose dedup
    /// keeps set semantics whatever the collection assumed.
    fn finish(self) -> Instance {
        let relation = self.relation;
        let facts: Vec<Fact> = match self.collected {
            Collected::Each(facts) => facts,
            Collected::Distinct(distinct) => {
                let distinct = distinct.into_iter();
                distinct.map(|values| Fact::new(relation, values)).collect()
            }
        };
        obs::instant!(
            "evaluate_done",
            valuations = self.valuations,
            answers = facts.len()
        );
        Instance::from_facts(facts)
    }
}

/// One semi-naive differential step: the facts `query` derives on `full`
/// through at least one valuation that uses a `delta` fact — evaluated
/// without re-joining the old instance against itself.
///
/// The contract (`full` must contain `delta`, i.e. `full = old ∪ delta`):
///
/// ```text
/// evaluate(Q, full)  =  evaluate(Q, old)  ∪  evaluate_seminaive_step(Q, full, delta)
/// ```
///
/// For each body atom in turn (the *pivot*), one differential pass
/// enumerates the valuations whose pivot atom matches inside `delta` while
/// every other atom matches the full instance. Any valuation using at
/// least one delta fact is found by the pass pivoted on that fact's atom,
/// so the union over passes covers every new derivation; valuations using
/// no delta fact are exactly the old ones. Passes whose pivot relation has
/// no delta facts are skipped entirely, which is what makes late rounds of
/// an iterated evaluation cheap: the work is proportional to the delta,
/// not to the accumulated instance.
///
/// Duplicate derivations across passes collapse by the output's set
/// semantics. Facts already derivable from `old` can reappear (a *new*
/// valuation may re-derive an *old* fact); callers tracking a derived-set
/// difference filter against their previous output.
pub fn evaluate_seminaive_step_with(
    query: &ConjunctiveQuery,
    full: &Instance,
    delta: &Instance,
    opts: EvalOptions,
) -> Instance {
    // Every differential pass is a pivoted binary join, whatever strategy
    // `opts` resolves to for a full evaluation of `query`.
    let _span = obs::span!(
        "seminaive_step",
        strategy = JoinStrategy::Binary.label(),
        delta_facts = delta.len()
    );
    let compiled = CompiledQuery::new(query);
    let mut answers = Answers::new(&compiled, false);
    for (pivot, atom) in query.body().iter().enumerate() {
        // The pivot is matched first, with nothing bound: a scan.
        let pivot_view = delta.view(atom.relation, false);
        if pivot_view.facts.is_empty() {
            continue;
        }
        let mut views = compiled.views(full, opts.use_indexes);
        views[pivot] = pivot_view;
        let slots = vec![None; compiled.vars.len()];
        let leaf = |slots: &Slots| answers.collect(slots);
        let _ = BinaryJoin::new(&compiled, views, slots, opts, Some(pivot), leaf).search(0);
    }
    answers.finish()
}

/// [`evaluate_seminaive_step_with`] under the default [`EvalOptions`].
pub fn evaluate_seminaive_step(
    query: &ConjunctiveQuery,
    full: &Instance,
    delta: &Instance,
) -> Instance {
    evaluate_seminaive_step_with(query, full, delta, EvalOptions::default())
}

/// All satisfying valuations of `query` on `instance`.
pub fn satisfying_valuations(query: &ConjunctiveQuery, instance: &Instance) -> Vec<Valuation> {
    satisfying_valuations_with(query, instance, &Valuation::new(), EvalOptions::default())
}

/// All satisfying valuations extending the partial valuation `fixed`.
pub fn satisfying_valuations_with(
    query: &ConjunctiveQuery,
    instance: &Instance,
    fixed: &Valuation,
    opts: EvalOptions,
) -> Vec<Valuation> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let _ = for_each_satisfying(query, instance, fixed, opts, |v| {
        if seen.insert(v.clone()) {
            out.push(v.clone());
        }
        ControlFlow::Continue(())
    });
    out
}

/// Evaluates `query` on `instance`: the set of facts derived by satisfying
/// valuations (`Q(I)` in the paper).
pub fn evaluate(query: &ConjunctiveQuery, instance: &Instance) -> Instance {
    evaluate_with(query, instance, EvalOptions::default())
}

/// Evaluates `query` on `instance` under explicit evaluation options.
pub fn evaluate_with(query: &ConjunctiveQuery, instance: &Instance, opts: EvalOptions) -> Instance {
    let _span = obs::span!(
        "evaluate",
        strategy = opts.resolved_strategy(query).label(),
        facts = instance.len()
    );
    let compiled = CompiledQuery::new(query);
    let mut answers = Answers::new(&compiled, true);
    let _ = compiled.for_each_satisfying(instance, &Valuation::new(), opts, |slots| {
        answers.collect(slots)
    });
    answers.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_instance;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// The binary join's atom processing order, optionally with a forced
    /// first atom (the plan of a semi-naive pass pivoted there).
    fn atom_order(
        query: &ConjunctiveQuery,
        instance: &Instance,
        fixed: &Valuation,
        opts: EvalOptions,
        pivot: Option<usize>,
    ) -> Vec<usize> {
        let compiled = CompiledQuery::new(query);
        let views = compiled.views(instance, opts.use_indexes);
        let slots = compiled.bind(fixed);
        let leaf = |_: &Slots| ControlFlow::Continue(());
        BinaryJoin::new(&compiled, views, slots, opts, pivot, leaf).order
    }

    /// The four strategy combinations the ablation axes span.
    fn all_options() -> [EvalOptions; 4] {
        [
            EvalOptions {
                ordering: JoinOrdering::CostAware,
                use_indexes: true,
                ..EvalOptions::default()
            },
            EvalOptions {
                ordering: JoinOrdering::CostAware,
                use_indexes: false,
                ..EvalOptions::default()
            },
            EvalOptions {
                ordering: JoinOrdering::Naive,
                use_indexes: true,
                ..EvalOptions::default()
            },
            EvalOptions::scan_naive(),
        ]
    }

    #[test]
    fn path_query_over_a_chain() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let i = parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
        let result = evaluate(&query, &i);
        assert_eq!(result.len(), 2);
        assert!(result.contains(&Fact::from_names("T", &["a", "c"])));
        assert!(result.contains(&Fact::from_names("T", &["b", "d"])));
    }

    #[test]
    fn triangle_query() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
        let result = evaluate(&query, &i);
        // the triangle a-b-c in all three rotations
        assert_eq!(result.len(), 3);
        assert!(result.contains(&Fact::from_names("T", &["a", "b", "c"])));
        assert!(result.contains(&Fact::from_names("T", &["b", "c", "a"])));
        assert!(result.contains(&Fact::from_names("T", &["c", "a", "b"])));
    }

    #[test]
    fn boolean_query_produces_nullary_fact() {
        let query = q("T() :- R(x, x).");
        let yes = parse_instance("R(a, a). R(a, b).").unwrap();
        let no = parse_instance("R(a, b). R(b, a).").unwrap();
        assert_eq!(evaluate(&query, &yes).len(), 1);
        assert!(evaluate(&query, &no).is_empty());
    }

    #[test]
    fn self_join_with_repeated_variable() {
        // Example 3.5 query.
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let i = parse_instance("R(a, b). R(b, a). R(a, a).").unwrap();
        let result = evaluate(&query, &i);
        assert!(result.contains(&Fact::from_names("T", &["a", "a"])));
        assert!(result.contains(&Fact::from_names("T", &["a", "b"])));
        // b has no self-loop, so nothing starts at b
        assert!(!result
            .facts()
            .any(|f| f.values[0] == crate::Value::new("b")));
    }

    #[test]
    fn empty_instance_yields_empty_result() {
        let query = q("T(x) :- R(x, y).");
        assert!(evaluate(&query, &Instance::new()).is_empty());
    }

    #[test]
    fn monotonicity_on_random_like_data() {
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let small = parse_instance("R(a, b). S(b, c).").unwrap();
        let big = parse_instance("R(a, b). S(b, c). R(b, b). S(c, a). R(c, a).").unwrap();
        let small_res = evaluate(&query, &small);
        let big_res = evaluate(&query, &big);
        assert!(big_res.contains_all(&small_res));
    }

    #[test]
    fn fixed_bindings_constrain_the_search() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let i = parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
        let fixed = Valuation::from_names([("x", "a")]);
        for opts in all_options() {
            let vals = satisfying_valuations_with(&query, &i, &fixed, opts);
            assert_eq!(vals.len(), 1);
            assert_eq!(
                vals[0].get(Variable::new("z")),
                Some(crate::Value::new("c"))
            );
        }
    }

    #[test]
    fn all_strategies_enumerate_the_same_valuations() {
        let queries = [
            q("T(x, w) :- R(x, y), S(y, z), R(z, w)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T() :- R(x, y), S(y, x)."),
        ];
        let i = parse_instance(
            "R(a, b). R(b, c). R(c, d). R(d, a). R(a, a). S(b, c). S(c, d). S(d, b). S(a, a).",
        )
        .unwrap();
        for query in &queries {
            let reference: BTreeSet<_> =
                satisfying_valuations_with(query, &i, &Valuation::new(), EvalOptions::scan_naive())
                    .into_iter()
                    .collect();
            assert!(!reference.is_empty() || query.body_size() > 1);
            for opts in all_options() {
                let got: BTreeSet<_> =
                    satisfying_valuations_with(query, &i, &Valuation::new(), opts)
                        .into_iter()
                        .collect();
                assert_eq!(got, reference, "options {opts:?} disagree with scan/naive");
            }
        }
    }

    #[test]
    fn scan_mode_never_builds_the_secondary_indexes() {
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let i = parse_instance("R(a, b). R(b, c). S(b, c). S(c, d).").unwrap();
        for ordering in [JoinOrdering::Naive, JoinOrdering::CostAware] {
            // even an explicit Multiway request must fall back to the scan
            // join rather than build the indexes it was told not to use
            for join_strategy in [
                JoinStrategy::Binary,
                JoinStrategy::Multiway,
                JoinStrategy::Auto,
            ] {
                let opts = EvalOptions {
                    ordering,
                    use_indexes: false,
                    join_strategy,
                    ..EvalOptions::default()
                };
                let vals = satisfying_valuations_with(&query, &i, &Valuation::new(), opts);
                assert!(!vals.is_empty());
                assert!(
                    !i.indexes_built(),
                    "{ordering:?}/{join_strategy:?} with use_indexes: false must not touch the indexes"
                );
            }
        }
    }

    #[test]
    fn multiway_never_builds_the_posting_index() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
        for ordering in [JoinOrdering::Naive, JoinOrdering::CostAware] {
            for join_strategy in [JoinStrategy::Multiway, JoinStrategy::Auto] {
                let opts = EvalOptions {
                    ordering,
                    join_strategy,
                    ..EvalOptions::default()
                };
                assert_eq!(opts.resolved_strategy(&query), JoinStrategy::Multiway);
                assert_eq!(evaluate_with(&query, &i, opts).len(), 3);
                assert!(!i.indexes_built(), "the multiway join walks sorted orders");
            }
        }
    }

    #[test]
    fn auto_strategy_resolves_by_cyclicity() {
        let triangle = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let chain = q("T(x, z) :- R(x, y), R(y, z).");
        let opts = EvalOptions::default();
        assert_eq!(opts.resolved_strategy(&triangle), JoinStrategy::Multiway);
        assert_eq!(opts.resolved_strategy(&chain), JoinStrategy::Binary);
        let forced = opts.with_join_strategy(JoinStrategy::Multiway);
        assert_eq!(forced.resolved_strategy(&chain), JoinStrategy::Multiway);
        let scan = EvalOptions::scan_naive().with_join_strategy(JoinStrategy::Multiway);
        assert_eq!(
            scan.resolved_strategy(&triangle),
            JoinStrategy::Binary,
            "the scan oracle never runs the multiway kernel"
        );
    }

    #[test]
    fn multiway_agrees_with_binary_on_cyclic_and_acyclic_queries() {
        let queries = [
            q("T(x, y, z) :- E(x, y), E(y, z), E(z, x)."), // cyclic
            q("T(x) :- E(x, y), E(y, z), E(z, w), E(w, x), E(x, z)."), // chordal 4-cycle
            q("T(x, w) :- R(x, y), S(y, z), R(z, w)."),    // acyclic chain
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),    // self-join
            q("T() :- R(x, y), S(y, x)."),                 // boolean
        ];
        let i = parse_instance(
            "R(a, b). R(b, c). R(c, d). R(d, a). R(a, a). S(b, c). S(c, d). S(d, b). S(a, a). \
             E(a, b). E(b, c). E(c, a). E(a, d). E(d, c). E(c, c). E(b, a).",
        )
        .unwrap();
        for query in &queries {
            let reference: BTreeSet<_> =
                satisfying_valuations_with(query, &i, &Valuation::new(), EvalOptions::scan_naive())
                    .into_iter()
                    .collect();
            for base in all_options() {
                for strategy in [
                    JoinStrategy::Binary,
                    JoinStrategy::Multiway,
                    JoinStrategy::Auto,
                ] {
                    let opts = base.with_join_strategy(strategy);
                    let got: BTreeSet<_> =
                        satisfying_valuations_with(query, &i, &Valuation::new(), opts)
                            .into_iter()
                            .collect();
                    assert_eq!(
                        got, reference,
                        "{query}: {opts:?} disagrees with scan/naive"
                    );
                }
            }
        }
    }

    #[test]
    fn multiway_respects_fixed_bindings() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
        let opts = EvalOptions::default().with_join_strategy(JoinStrategy::Multiway);
        let fixed = Valuation::from_names([("x", "a")]);
        let vals = satisfying_valuations_with(&query, &i, &fixed, opts);
        assert_eq!(vals.len(), 1);
        assert_eq!(
            vals[0].get(Variable::new("y")),
            Some(crate::Value::new("b"))
        );
        // a pre-bound value absent from the instance prunes everything
        let absent = Valuation::from_names([("x", "zzz")]);
        assert!(satisfying_valuations_with(&query, &i, &absent, opts).is_empty());
    }

    #[test]
    fn multiway_early_termination_stops_the_search() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a).").unwrap();
        let opts = EvalOptions::default().with_join_strategy(JoinStrategy::Multiway);
        let mut count = 0;
        let flow = for_each_satisfying(&query, &i, &Valuation::new(), opts, |_| {
            count += 1;
            ControlFlow::Break(())
        });
        assert_eq!(count, 1);
        assert_eq!(flow, ControlFlow::Break(()));
    }

    #[test]
    fn adaptive_reordering_matches_static_order_results() {
        let queries = [
            q("T(x, w) :- R(x, y), S(y, z), R(z, w)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
            q("T(x, y, z) :- E(x, y), E(y, z), E(z, x)."),
        ];
        let i = parse_instance(
            "R(a, b). R(b, c). R(c, d). R(d, a). R(a, a). S(b, c). S(c, d). S(d, b). S(a, a). \
             E(a, b). E(b, c). E(c, a). E(a, d).",
        )
        .unwrap();
        for query in &queries {
            for use_indexes in [true, false] {
                let bare = EvalOptions {
                    use_indexes,
                    adaptive_factor: 0,
                    join_strategy: JoinStrategy::Binary,
                    ..EvalOptions::default()
                };
                // factor 1 re-ranks on any divergence — the most aggressive
                // setting, and still only a permutation of the search
                let eager = EvalOptions {
                    adaptive_factor: 1,
                    ..bare
                };
                let static_vals: BTreeSet<_> =
                    satisfying_valuations_with(query, &i, &Valuation::new(), bare)
                        .into_iter()
                        .collect();
                let adaptive_vals: BTreeSet<_> =
                    satisfying_valuations_with(query, &i, &Valuation::new(), eager)
                        .into_iter()
                        .collect();
                assert_eq!(adaptive_vals, static_vals, "{query}: adaptive diverged");
            }
        }
    }

    #[test]
    fn cost_aware_order_prefers_selective_atoms() {
        // S is tiny compared to R, so the cost model must start at S.
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let mut text = String::new();
        for i in 0..50 {
            text.push_str(&format!("R(a{i}, b{i}). "));
        }
        text.push_str("S(b0, c0).");
        let i = parse_instance(&text).unwrap();
        let order = atom_order(&query, &i, &Valuation::new(), EvalOptions::default(), None);
        assert_eq!(order[0], 1, "the selective S atom must be matched first");
    }

    #[test]
    fn cost_aware_order_ties_break_to_source_order() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let i = parse_instance("R(a, b). R(b, c).").unwrap();
        let order = atom_order(&query, &i, &Valuation::new(), EvalOptions::default(), None);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn known_fixed_values_use_exact_posting_counts() {
        // With x pre-bound to a value that occurs once in R but S unbound,
        // the R atom becomes cheapest even though R is larger.
        let query = q("T(x, z) :- S(y, z), R(x, y).");
        let i = parse_instance(
            "R(a, b). R(c, d). R(e, f). S(b, u). S(d, u). S(f, u). S(g, u). S(h, u).",
        )
        .unwrap();
        let fixed = Valuation::from_names([("x", "a")]);
        let order = atom_order(&query, &i, &fixed, EvalOptions::default(), None);
        assert_eq!(order[0], 1, "the pre-bound R atom must be matched first");
    }

    #[test]
    fn early_termination_stops_the_search() {
        let query = q("T(x) :- R(x, y).");
        let i = parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
        let mut count = 0;
        let flow = for_each_satisfying(
            &query,
            &i,
            &Valuation::new(),
            EvalOptions::default(),
            |_| {
                count += 1;
                ControlFlow::Break(())
            },
        );
        assert_eq!(count, 1);
        assert_eq!(flow, ControlFlow::Break(()));
    }

    /// Splits `facts` into (old, delta, full) instances at `split`.
    fn split_instance(text: &str, split: usize) -> (Instance, Instance, Instance) {
        let full = parse_instance(text).unwrap();
        let facts: Vec<_> = full.facts().cloned().collect();
        let old = Instance::from_facts(facts[..split].iter().cloned());
        let delta = Instance::from_facts(facts[split..].iter().cloned());
        (old, delta, full)
    }

    #[test]
    fn seminaive_step_completes_the_old_evaluation() {
        let queries = [
            q("T(x, z) :- R(x, y), R(y, z)."),
            q("T(x, w) :- R(x, y), S(y, z), R(z, w)."),
            q("T() :- R(x, y), S(y, x)."),
            q("T(x, z) :- R(x, y), R(y, z), R(x, x)."),
        ];
        let text =
            "R(a, b). R(b, c). R(c, d). R(d, a). R(a, a). S(b, c). S(c, d). S(d, b). S(a, a).";
        let full_count = parse_instance(text).unwrap().len();
        for query in &queries {
            for split in 0..=full_count {
                let (old, delta, full) = split_instance(text, split);
                for opts in all_options() {
                    let step = evaluate_seminaive_step_with(query, &full, &delta, opts);
                    let combined = evaluate(query, &old).union(&step);
                    assert_eq!(
                        combined,
                        evaluate(query, &full),
                        "query {query}, split {split}, options {opts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn seminaive_step_with_empty_delta_is_empty() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let full = parse_instance("R(a, b). R(b, c).").unwrap();
        let step = evaluate_seminaive_step(&query, &full, &Instance::new());
        assert!(step.is_empty());
    }

    #[test]
    fn seminaive_step_with_full_delta_is_full_evaluation() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let full = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
        let step = evaluate_seminaive_step(&query, &full, &full);
        assert_eq!(step, evaluate(&query, &full));
    }

    #[test]
    fn seminaive_step_skips_pivots_without_delta_facts() {
        // The delta touches only S; derivations must still appear (via the
        // S pivot) while R pivots are skipped — observable through a delta
        // that, were R pivoted over it, would contribute nothing anyway.
        let query = q("T(x, z) :- R(x, y), S(y, z).");
        let full = parse_instance("R(a, b). R(c, b). S(b, d).").unwrap();
        let delta = parse_instance("S(b, d).").unwrap();
        let step = evaluate_seminaive_step(&query, &full, &delta);
        assert_eq!(step.len(), 2);
        assert!(step.contains(&Fact::from_names("T", &["a", "d"])));
        assert!(step.contains(&Fact::from_names("T", &["c", "d"])));
    }

    #[test]
    fn seminaive_step_finds_cross_derivations() {
        // The new derivation joins one old fact with one delta fact in both
        // orders — each direction is covered by a different pivot pass.
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let old = parse_instance("R(a, b). R(e, a).").unwrap();
        let delta = parse_instance("R(b, c). R(c, e).").unwrap();
        let full = old.union(&delta);
        let step = evaluate_seminaive_step(&query, &full, &delta);
        assert!(step.contains(&Fact::from_names("T", &["a", "c"]))); // old ⋈ delta
        assert!(step.contains(&Fact::from_names("T", &["c", "a"]))); // delta ⋈ old
        assert!(step.contains(&Fact::from_names("T", &["b", "e"]))); // delta ⋈ delta
                                                                     // old ⋈ old derivations use no delta fact and must not reappear
        assert!(!step.contains(&Fact::from_names("T", &["e", "b"])));
    }

    #[test]
    fn forced_first_atom_order_is_a_permutation() {
        let query = q("T(x, w) :- R(x, y), S(y, z), R(z, w).");
        let i = parse_instance("R(a, b). S(b, c). R(c, d).").unwrap();
        for opts in all_options() {
            for first in 0..query.body_size() {
                let order = atom_order(&query, &i, &Valuation::new(), opts, Some(first));
                assert_eq!(order[0], first);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2], "{order:?} is not a permutation");
            }
        }
    }

    #[test]
    fn satisfying_valuations_are_total_and_satisfying() {
        let query = q("T(x, z) :- R(x, y), R(y, z), R(x, x).");
        let i = parse_instance("R(a, b). R(b, a). R(a, a). R(b, b).").unwrap();
        let vals = satisfying_valuations(&query, &i);
        assert!(!vals.is_empty());
        for v in &vals {
            assert!(v.is_total_for(&query));
            assert!(v.satisfies(&query, &i));
        }
    }
}
