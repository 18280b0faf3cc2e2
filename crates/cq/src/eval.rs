//! Evaluation of conjunctive queries over instances.
//!
//! Every entry point — [`evaluate_with`], [`evaluate_seminaive_step_with`],
//! [`for_each_satisfying`] — compiles the query once per call and runs **one
//! indexed join kernel**, a leapfrog triejoin, for every query, cyclic or
//! not:
//!
//! * **Slots, not maps.** A query is compiled (`CompiledQuery`, one pass
//!   over its atoms) into dense variable *slots*: every body atom becomes a
//!   list of argument slots, the head a slot projection. The search binds a
//!   flat `[Option<Value>]` slot array, so a visited search node allocates
//!   nothing and touches no ordered map.
//! * **One variable at a time.** The kernel (Veldhuizen's leapfrog
//!   triejoin, ICDT 2014) binds one *variable* at a time; its values are the
//!   intersection of the columns it fills in every atom containing it, which
//!   avoids the intermediate-result blowup atom-at-a-time plans pay on
//!   triangles and other cycles, and costs an acyclic query no more than the
//!   rows it narrows to. Each atom walks a *trie* — its relation's rows of
//!   the atom's arity, columns permuted into the order the search binds
//!   them, sorted, flat; cached per `(relation, column order)` by the
//!   [`Instance`], which keeps its orders as it grows — as a stack of row
//!   ranges: binding a variable is a galloping seek to the value's run in
//!   the next column, undoing it pops the range. A variable that occurs in
//!   one atom only and fills that atom's last column is not intersected
//!   with anything: its values are read straight off the run. No row set is
//!   materialised, nothing is hashed and nothing allocated inside the
//!   search.
//! * **The variable order, and so the leaf order, is fixed by the query.**
//!   Pre-bound slots come first. Then, one at a time: a variable that shares
//!   an atom with a variable already bound goes before one that does not
//!   (so the search stays inside the rows it has narrowed to), the variable
//!   with the most occurrences in the body goes before one with fewer, and
//!   ties go to the first occurrence. Each variable's values ascend, so the
//!   leaves come out in lexicographic order of that variable order: **the
//!   leaf order is part of the contract** (first-violation witnesses and
//!   [`satisfying_valuations`] order rest on it).
//! * **Differential passes run the same kernel.** A pass of
//!   [`evaluate_seminaive_step_with`] points its pivot atom at the delta's
//!   sorted order and every other atom at the full instance's, and binds the
//!   pivot atom's variables first: a pass costs in proportion to the delta,
//!   not to the accumulated instance.
//! * **Answers as packed keys.** `evaluate*` project every satisfying
//!   assignment onto the head slots and collect the projections with set
//!   semantics *before any [`Fact`] exists*. A head of arity ≤ 4 — every
//!   projecting head the workloads use — packs into one `u128` key, each
//!   value's 32-bit symbol id with the first head value in the high bits, so
//!   a derivation costs one integer hash probe. The keys of one head order
//!   as its tuples do (an opaque id keeps its place after the named ones),
//!   so the distinct keys are sorted as integers and unpacked into ascending
//!   rows that [`Instance::from_relations`] moves in: no [`Fact`] is sorted.
//!   A wider head keeps a set of [`Tuple`]s and one [`Instance::from_facts`]
//!   at the end. Either way the work per derivation is a probe and the
//!   allocations are O(answers), never O(valuations). (`evaluate_done` in a
//!   trace carries both counts.) A full evaluation of a query whose head
//!   mentions every variable skips the set: each leaf of one enumeration is
//!   a new answer there, valuations = answers, and the bulk build's sort
//!   and dedup finish the job.
//! * **Valuations only at the boundary.** [`CompiledQuery`] is public:
//!   [`CompiledQuery::for_each_satisfying`] hands every leaf's slot array to
//!   the caller, which is what the decision procedures of `pc-core` loop
//!   over. [`for_each_satisfying`] keeps its `&Valuation` callback as a thin
//!   adapter that refills one reused [`Valuation`] from the slots at each
//!   leaf.
//!
//! **The oracle.** [`EvalOptions::ScanOracle`] runs the seed evaluator
//! instead: an atom-at-a-time backtracking join in which every atom scans
//! its whole relation, smallest-estimated-candidate-set-first. It builds no
//! sorted order and shares no search code with the triejoin — it is what
//! the property suites compare the kernel against, never a production
//! path.
//!
//! Both enumerate exactly the same valuations; only the order and shape of
//! the search differ. A fact only ever matches an atom of its own arity, so
//! ill-formed (mixed-arity) relations evaluate the same under both.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::atom::{Atom, Variable};
use crate::fact::{Fact, Tuple};
use crate::instance::{Instance, SortedOrder};
use crate::intern::{Symbol, SymbolHashBuilder};
use crate::query::ConjunctiveQuery;
use crate::valuation::Valuation;
use crate::value::Value;

/// Which evaluator runs: the production kernel, or the oracle the property
/// suites compare it against. It rides every eval frame of the wire
/// protocol, so a cross-process differential test can ask workers for the
/// oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalOptions {
    /// The leapfrog triejoin over the instance's sorted column orders.
    #[default]
    Triejoin,
    /// The scan oracle: every atom scans its whole relation and no order is
    /// built.
    ScanOracle,
}

impl EvalOptions {
    /// The join these options run, as trace spans name it: `"multiway"`
    /// (the triejoin) or `"binary"` (the scan oracle).
    fn kernel(&self) -> &'static str {
        match self {
            EvalOptions::Triejoin => "multiway",
            EvalOptions::ScanOracle => "binary",
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
        self.search(instance, None, self.bind(fixed), opts, leaf)
    }

    /// The one search behind every entry point: the assignments extending
    /// `slots` under which every body atom matches a fact of `full` — or,
    /// for the atom `pivot` names, a fact of the instance next to it (the
    /// shape of a semi-naive differential pass).
    fn search<L>(
        &self,
        full: &Instance,
        pivot: Option<(usize, &Instance)>,
        slots: Vec<Option<Value>>,
        opts: EvalOptions,
        leaf: L,
    ) -> ControlFlow<()>
    where
        L: FnMut(&Slots) -> ControlFlow<()>,
    {
        let source = |atom: usize| match pivot {
            Some((pivoted, delta)) if pivoted == atom => delta,
            _ => full,
        };
        let pivot = pivot.map(|(atom, _)| atom);
        let body = self.query.body().iter().enumerate();
        if opts == EvalOptions::ScanOracle {
            let scans = body.map(|(atom, body_atom)| source(atom).facts_of(body_atom.relation));
            let scans = scans.collect();
            return BinaryJoin::new(self, scans, slots, pivot, leaf).search(0);
        }
        let plan = TriePlan::new(self, &slots, pivot);
        // The orders are held here, outside the join whose cursors borrow
        // them, for as long as it runs.
        let mut orders: Vec<Arc<SortedOrder>> = Vec::with_capacity(self.atom_count());
        for (atom, body_atom) in body {
            let order = source(atom).sorted_order(body_atom.relation, plan.columns(self, atom));
            // No row of the atom's arity: nothing satisfies the query.
            if order.rows() == 0 {
                return ControlFlow::Continue(());
            }
            orders.push(order);
        }
        match Leapfrog::new(self, &plan, &orders, slots, leaf) {
            Some(mut join) => join.search(0),
            None => ControlFlow::Continue(()),
        }
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

/// The scan oracle: the atom-at-a-time backtracking join of the seed
/// evaluator, in which every atom scans its whole relation. It reads the
/// rows themselves and never a sorted order, so it shares nothing with the
/// triejoin it is compared against but the compiled query and the bindings.
///
/// `scans[a]` is where body atom `a` draws its candidate facts from. The
/// plain evaluator uses the same instance for every atom; the semi-naive
/// differential pass points its pivot atom at the delta instance and every
/// other atom at the full one.
struct BinaryJoin<'a, L> {
    query: &'a CompiledQuery<'a>,
    scans: Vec<&'a [Fact]>,
    /// The atom processing order.
    order: Vec<usize>,
    bindings: Bindings,
    leaf: L,
}

impl<'a, L> BinaryJoin<'a, L>
where
    L: FnMut(&Slots) -> ControlFlow<()>,
{
    /// A planned join over `scans` starting from the pre-bound `slots`.
    ///
    /// With a `pivot`, that atom is forced to the front and its slots count
    /// as bound for the rest — the plan shape of a semi-naive differential
    /// pass: the pivot matches the (small) delta first, everything else
    /// joins against the full instance. The other atoms follow greedily,
    /// the one with the smallest estimated candidate set next (ties
    /// resolved in source order, so plans are deterministic and degrade to
    /// source order when the model cannot tell atoms apart).
    fn new(
        query: &'a CompiledQuery<'a>,
        scans: Vec<&'a [Fact]>,
        slots: Vec<Option<Value>>,
        pivot: Option<usize>,
        leaf: L,
    ) -> Self {
        let mut order: Vec<usize> = pivot.into_iter().collect();
        let mut remaining: Vec<usize> = (0..query.atom_count())
            .filter(|&atom| Some(atom) != pivot)
            .collect();
        let mut bound: Vec<bool> = slots.iter().map(Option::is_some).collect();
        for &slot in pivot.map_or(&[][..], |atom| query.atom(atom)) {
            bound[slot] = true;
        }
        while !remaining.is_empty() {
            // The relation size, of which each bound argument keeps about
            // a quarter: an estimate that reads no index.
            let estimate = |&atom: &usize| {
                let bound_args = query.atom(atom).iter().filter(|&&slot| bound[slot]);
                scans[atom].len() as f64 / 4f64.powi(bound_args.count() as i32)
            };
            let costs = remaining.iter().map(estimate).enumerate();
            let cheapest = costs.fold((0, f64::INFINITY), |best, (pos, cost)| {
                if cost < best.1 {
                    (pos, cost)
                } else {
                    best
                }
            });
            let best = remaining.remove(cheapest.0);
            order.push(best);
            for &slot in query.atom(best) {
                bound[slot] = true;
            }
        }
        BinaryJoin {
            query,
            scans,
            order,
            bindings: Bindings::new(slots),
            leaf,
        }
    }

    fn search(&mut self, depth: usize) -> ControlFlow<()> {
        if depth == self.order.len() {
            return (self.leaf)(&self.bindings.slots);
        }
        let query = self.query;
        let atom = self.order[depth];
        for fact in self.scans[atom] {
            let mark = self.bindings.mark();
            if self.bindings.unify(query.atom(atom), fact) {
                let flow = self.search(depth + 1);
                self.bindings.undo(mark);
                flow?;
            }
        }
        ControlFlow::Continue(())
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

/// The rows of a [`SortedOrder`], flat.
#[derive(Clone, Copy)]
struct Rows<'a> {
    values: &'a [Value],
    arity: usize,
}

impl Rows<'_> {
    /// The value in column `col` of row `row`: every read of the search.
    #[inline]
    fn at(self, row: usize, col: usize) -> Value {
        #[cfg(test)]
        tests::VALUES_READ.with(|reads| reads.set(reads.get() + 1));
        self.values[row * self.arity + col]
    }
}

/// One body atom's position in its trie — the [`SortedOrder`] of the atom's
/// relation whose columns are in the order the search binds them.
struct TrieCursor<'a> {
    rows: Rows<'a>,
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
        let rows = Rows {
            values: order.values(),
            arity: order.arity(),
        };
        TrieCursor { rows, runs }
    }

    /// The first of the rows `lo..hi` whose column `col` is no longer
    /// `below` (which must hold for a prefix of them), found by doubling
    /// steps from `lo`: O(log distance), which is what makes intersecting a
    /// short column with a long one cheap.
    fn gallop(&self, lo: usize, hi: usize, col: usize, below: impl Fn(Value) -> bool) -> usize {
        let below = |row: usize| below(self.rows.at(row, col));
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
        (run.next < run.end).then(|| self.rows.at(run.next, col))
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

/// One depth of a triejoin: the slot it binds and where its values come
/// from.
struct Depth {
    slot: usize,
    /// The atoms the slot's variable occurs in, in body order, each with the
    /// number of its columns the variable fills.
    atoms: Vec<(usize, usize)>,
    /// The variable occurs once, in the last column of its one atom: its
    /// values are that atom's innermost run, read row by row.
    direct: bool,
}

/// The order a triejoin binds the unbound slots of one query in — see the
/// module docs for the rule — and with it the column order of every atom's
/// trie.
struct TriePlan {
    depths: Vec<Depth>,
    /// Every atom's argument positions in the order the search binds them,
    /// laid out like [`CompiledQuery::args`].
    columns: Vec<usize>,
}

impl TriePlan {
    /// Plans the search that starts from `slots`. With a `pivot` — a
    /// semi-naive differential pass — that atom's variables lead the order.
    fn new(query: &CompiledQuery<'_>, slots: &Slots, pivot: Option<usize>) -> TriePlan {
        let atoms = || (0..query.atom_count()).map(|atom| (atom, query.atom(atom)));
        let occurrences = |slot: usize| query.args.iter().filter(|&&s| s == slot).count();
        // When a slot is bound: 0 for the pre-bound ones, then by depth.
        let mut bound_at: Vec<Option<usize>> = slots.iter().map(|v| v.map(|_| 0)).collect();
        let unbound = bound_at.iter().filter(|at| at.is_none()).count();
        let mut depths = Vec::with_capacity(unbound);
        for depth in 0..unbound {
            // 2: in the pivot atom; 1: in an atom with a slot that is
            // bound by now; 0: in neither.
            let reach = |slot: usize| {
                let reach = atoms().filter(|(_, args)| args.contains(&slot));
                let reach = reach.map(|(atom, args)| {
                    if Some(atom) == pivot {
                        2
                    } else {
                        usize::from(args.iter().any(|&s| bound_at[s].is_some()))
                    }
                });
                reach.max()
            };
            // Slot order is first-occurrence order: the first of the best.
            let open = (0..slots.len()).rev().filter(|&s| bound_at[s].is_none());
            let slot = open
                .max_by_key(|&slot| (reach(slot), occurrences(slot)))
                .expect("one unbound slot a depth");
            bound_at[slot] = Some(depth + 1);
            let (atoms, direct) = (Vec::new(), false);
            depths.push(Depth {
                slot,
                atoms,
                direct,
            });
        }
        let mut plan = TriePlan {
            depths,
            columns: Vec::with_capacity(query.args.len()),
        };
        for (atom, args) in atoms() {
            // A variable repeated in the atom fills adjacent columns.
            let start = plan.columns.len();
            plan.columns.extend(0..args.len());
            plan.columns[start..].sort_by_key(|&position| bound_at[args[position]]);
            for &position in &plan.columns[start..] {
                // (pre-bound columns are opened before the search starts)
                if let Some(depth) = bound_at[args[position]].and_then(|at| at.checked_sub(1)) {
                    let at_depth = &mut plan.depths[depth].atoms;
                    match at_depth.last_mut() {
                        Some((last, filled)) if *last == atom => *filled += 1,
                        _ => at_depth.push((atom, 1)),
                    }
                }
            }
        }
        for depth in 0..plan.depths.len() {
            if let [(atom, 1)] = plan.depths[depth].atoms[..] {
                let last = *plan.columns(query, atom).last().expect("the slot's column");
                plan.depths[depth].direct = query.atom(atom)[last] == plan.depths[depth].slot;
            }
        }
        plan
    }

    /// The column order of body atom `atom`'s trie.
    fn columns(&self, query: &CompiledQuery<'_>, atom: usize) -> &[usize] {
        &self.columns[query.starts[atom]..query.starts[atom + 1]]
    }
}

/// The one indexed join, a leapfrog triejoin (Veldhuizen, ICDT 2014): binds
/// one *variable* at a time instead of matching one atom at a time.
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
/// out in lexicographic order of the plan's variable order — an order
/// callers pin.
struct Leapfrog<'a, L> {
    depths: &'a [Depth],
    cursors: Vec<TrieCursor<'a>>,
    slots: Vec<Option<Value>>,
    leaf: L,
}

impl<'a, L> Leapfrog<'a, L>
where
    L: FnMut(&Slots) -> ControlFlow<()>,
{
    /// Opens each atom's trie — `orders[atom]`, in the plan's column order —
    /// and binds the columns of the pre-bound slots, which come first in
    /// it. `None` when a pre-bound value occurs nowhere: no valuations.
    fn new(
        query: &CompiledQuery<'_>,
        plan: &'a TriePlan,
        orders: &'a [Arc<SortedOrder>],
        slots: Vec<Option<Value>>,
        leaf: L,
    ) -> Option<Self> {
        let mut cursors = Vec::with_capacity(orders.len());
        for (atom, order) in orders.iter().enumerate() {
            let mut cursor = TrieCursor::new(order);
            let columns = plan.columns(query, atom).iter();
            for value in columns.map_while(|&position| slots[query.atom(atom)[position]]) {
                if !cursor.open(value) {
                    return None;
                }
            }
            cursors.push(cursor);
        }
        Some(Leapfrog {
            depths: &plan.depths,
            cursors,
            slots,
            leaf,
        })
    }

    /// Moves the cursors of `depth`'s atoms to the smallest value not yet
    /// passed that all of them carry in their next column, if there is one.
    fn next_common(&mut self, depth: usize) -> Option<Value> {
        let atoms = &self.depths[depth].atoms;
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
        let depths = self.depths;
        let Some(Depth {
            slot,
            atoms,
            direct,
        }) = depths.get(depth)
        else {
            return (self.leaf)(&self.slots);
        };
        if *direct {
            // Distinct rows that agree everywhere else differ here: every
            // row of the run is one value, and no column is left to narrow.
            let cursor = &self.cursors[atoms[0].0];
            let ((run, col), rows) = (cursor.top(), cursor.rows);
            let mut flow = ControlFlow::Continue(());
            for row in run.start..run.end {
                self.slots[*slot] = Some(rows.at(row, col));
                flow = self.search(depth + 1);
                if flow.is_break() {
                    break;
                }
            }
            self.slots[*slot] = None;
            return flow;
        }
        for &(atom, _) in atoms {
            self.cursors[atom].rewind();
        }
        while let Some(value) = self.next_common(depth) {
            // Only a variable repeated inside an atom can still fail here:
            // its later columns must carry the value too.
            let mut alive = true;
            for &(atom, filled) in atoms {
                for _ in 0..filled {
                    alive &= self.cursors[atom].open(value);
                }
            }
            let flow = if alive {
                self.slots[*slot] = Some(value);
                let flow = self.search(depth + 1);
                self.slots[*slot] = None;
                flow
            } else {
                ControlFlow::Continue(())
            };
            for &(atom, filled) in atoms {
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

/// The widest head whose projection packs into one `u128` answer key: four
/// 32-bit ids.
const PACKED_ARITY: usize = 4;

/// The head tuples of an evaluation.
enum Collected {
    /// Set semantics over packed keys *before any [`Fact`] exists*, for a
    /// head of arity ≤ [`PACKED_ARITY`]: each head value's [`Value::raw`]
    /// id, the first in the high bits. The keys of one head order as its
    /// tuples do, so sorting the integers sorts the answers.
    Packed(HashSet<u128, SymbolHashBuilder>),
    /// Set semantics over tuples, for a head too wide to pack; `scratch`
    /// holds the projection of the leaf at hand.
    Tuples {
        distinct: HashSet<Tuple, SymbolHashBuilder>,
        scratch: Vec<Value>,
    },
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
    collected: Collected,
    valuations: u64,
}

impl Answers {
    /// `single_pass`: whether the leaves will come from one enumeration (a
    /// semi-naive step's pivoted passes derive one valuation several times).
    fn new(compiled: &CompiledQuery<'_>, single_pass: bool) -> Answers {
        let arity = compiled.head.len();
        let full_head = (0..compiled.vars.len()).all(|slot| compiled.head.contains(&slot));
        let collected = if single_pass && full_head {
            Collected::Each(Vec::new())
        } else if arity <= PACKED_ARITY {
            Collected::Packed(HashSet::default())
        } else {
            Collected::Tuples {
                distinct: HashSet::default(),
                scratch: Vec::with_capacity(arity),
            }
        };
        Answers {
            relation: compiled.query.head().relation,
            head: compiled.head.clone(),
            collected,
            valuations: 0,
        }
    }

    /// Records the head tuple of one satisfying assignment: one key probe
    /// for a packed head; a wide one is copied only when it is new.
    fn collect(&mut self, slots: &Slots) -> ControlFlow<()> {
        self.valuations += 1;
        let head = self.head.iter();
        let values = head.map(|&slot| slots[slot].expect("every slot is bound at a leaf"));
        match &mut self.collected {
            Collected::Packed(keys) => {
                keys.insert(values.fold(0, |key, value| key << 32 | u128::from(value.raw())));
            }
            Collected::Tuples { distinct, scratch } => {
                scratch.clear();
                scratch.extend(values);
                if !distinct.contains(scratch.as_slice()) {
                    distinct.insert(scratch.iter().copied().collect());
                }
            }
            Collected::Each(facts) => {
                facts.push(Fact::new(self.relation, Tuple::from_iter(values)))
            }
        }
        ControlFlow::Continue(())
    }

    /// The answers as an instance. Packed keys are sorted as integers and
    /// unpacked into ascending rows, which move in as they stand; the other
    /// collections go through the bulk build's sort and dedup.
    fn finish(self) -> Instance {
        let relation = self.relation;
        let arity = self.head.len();
        let answers = match self.collected {
            Collected::Packed(keys) => {
                let mut keys: Vec<u128> = keys.into_iter().collect();
                keys.sort_unstable();
                let unpack = |key: u128| {
                    let ids = (0..arity).rev().map(|at| (key >> (32 * at)) as u32);
                    Fact::new(relation, ids.map(Value::from_raw).collect::<Tuple>())
                };
                Instance::from_relations(vec![(relation, keys.into_iter().map(unpack).collect())])
            }
            Collected::Tuples { distinct, .. } => {
                let distinct = distinct.into_iter();
                Instance::from_facts(distinct.map(|values| Fact::new(relation, values)))
            }
            Collected::Each(facts) => Instance::from_facts(facts),
        };
        obs::instant!(
            "evaluate_done",
            valuations = self.valuations,
            answers = answers.len()
        );
        answers
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
    let _span = obs::span!(
        "seminaive_step",
        strategy = opts.kernel(),
        delta_facts = delta.len()
    );
    let compiled = CompiledQuery::new(query);
    let mut answers = Answers::new(&compiled, false);
    for (pivot, atom) in query.body().iter().enumerate() {
        if delta.facts_of(atom.relation).is_empty() {
            continue;
        }
        let slots = vec![None; compiled.vars.len()];
        let leaf = |slots: &Slots| answers.collect(slots);
        let _ = compiled.search(full, Some((pivot, delta)), slots, opts, leaf);
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

/// All satisfying valuations extending the partial valuation `fixed`, each
/// once: the leaves of one enumeration are distinct valuations.
pub fn satisfying_valuations_with(
    query: &ConjunctiveQuery,
    instance: &Instance,
    fixed: &Valuation,
    opts: EvalOptions,
) -> Vec<Valuation> {
    let mut out = Vec::new();
    let _ = for_each_satisfying(query, instance, fixed, opts, |v| {
        out.push(v.clone());
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
    let _span = obs::span!("evaluate", strategy = opts.kernel(), facts = instance.len());
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
    use std::collections::BTreeSet;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    thread_local! {
        /// How many values this thread's triejoin cursors have read.
        pub(super) static VALUES_READ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Runs `search` and returns how many values the triejoin read in it.
    fn values_read(search: impl FnOnce()) -> u64 {
        let before = VALUES_READ.get();
        search();
        VALUES_READ.get() - before
    }

    /// The scan oracle's atom processing order, optionally with a forced
    /// first atom (the plan of a semi-naive pass pivoted there).
    fn atom_order(
        query: &ConjunctiveQuery,
        instance: &Instance,
        fixed: &Valuation,
        pivot: Option<usize>,
    ) -> Vec<usize> {
        let compiled = CompiledQuery::new(query);
        let body = query.body().iter();
        let scans = body.map(|atom| instance.facts_of(atom.relation)).collect();
        let slots = compiled.bind(fixed);
        let leaf = |_: &Slots| ControlFlow::Continue(());
        BinaryJoin::new(&compiled, scans, slots, pivot, leaf).order
    }

    /// The leaves of one search — a full one, or the differential pass
    /// pivoted on an atom of `pivot`'s instance — in the order they come.
    fn leaves(
        query: &ConjunctiveQuery,
        full: &Instance,
        pivot: Option<(usize, &Instance)>,
        fixed: &Valuation,
        opts: EvalOptions,
    ) -> Vec<Vec<Value>> {
        let compiled = CompiledQuery::new(query);
        let mut leaves = Vec::new();
        let _ = compiled.search(full, pivot, compiled.bind(fixed), opts, |slots| {
            leaves.push(slots.iter().map(|value| value.unwrap()).collect());
            ControlFlow::Continue(())
        });
        leaves
    }

    /// Both evaluators.
    fn all_options() -> [EvalOptions; 2] {
        [EvalOptions::Triejoin, EvalOptions::ScanOracle]
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
                satisfying_valuations_with(query, &i, &Valuation::new(), EvalOptions::ScanOracle)
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
    fn the_triejoin_caches_one_order_per_column_order_it_walks() {
        // The sorted orders are all the kernel reads and all an instance
        // caches — one for `E(x, y)` and `E(y, z)`, one for `E(z, x)`,
        // whose `x` is bound first — and a second evaluation builds none.
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
        assert_eq!(evaluate(&query, &i).len(), 3);
        assert_eq!(evaluate(&query, &i).len(), 3);
        assert_eq!(i.cached_orders(), 2, "the triejoin walks sorted orders");
    }

    #[test]
    fn only_the_scan_oracle_builds_no_sorted_order() {
        // Cyclic or not, a query runs the triejoin — seen by the orders it
        // leaves on the instance — and `ScanOracle` alone selects the scan
        // oracle, which leaves none, whatever the query, in a full search
        // and in a semi-naive step alike.
        let edges = "E(a, b). E(b, c). E(c, a). E(a, d). E(b, a).";
        for (query, instance) in [
            ("T(x, y, z) :- E(x, y), E(y, z), E(z, x).", edges),
            ("T(x, z) :- E(x, y), E(y, z).", edges),
            (
                "T(x, z) :- R(x, y), S(y, z).",
                "R(a, b). R(b, c). S(b, c). S(c, d). S(c, a).",
            ),
        ] {
            let (query, i) = (q(query), parse_instance(instance).unwrap());
            let scan = EvalOptions::ScanOracle;
            assert_eq!(scan.kernel(), "binary");
            let mut scanned = leaves(&query, &i, None, &Valuation::new(), scan);
            let step = evaluate_seminaive_step_with(&query, &i, &i, scan);
            assert_eq!(step, evaluate(&query, &i.clone()), "{query}");
            assert_eq!(i.cached_orders(), 0, "{query}: the oracle builds no order");
            let indexed = EvalOptions::default();
            assert_eq!(indexed.kernel(), "multiway");
            let mut walked = leaves(&query, &i, None, &Valuation::new(), indexed);
            assert_eq!(i.cached_orders(), 2, "{query}: the triejoin walks orders");
            assert!(walked.len() >= 3, "{query}");
            walked.sort();
            scanned.sort();
            assert_eq!(walked, scanned, "{query}");
        }
    }

    #[test]
    fn projected_answers_are_the_projection_of_every_valuation() {
        // Opaque ids sort after every named one, and a packed key must keep
        // them there: heads of arity 0 to 5 — the last too wide to pack —
        // with repeated head variables, over values of both kinds.
        let named = ["a", "b", "c"].map(Value::new);
        let opaque = [3, 1 << 30, (1 << 31) - 1].map(|id| Value::opaque(id).unwrap());
        let values: Vec<Value> = named.into_iter().chain(opaque).collect();
        let r = Symbol::new("R");
        let edges = (0..values.len()).flat_map(|i| [(i, (i + 1) % 6), (i, (i * 5 + 2) % 6)]);
        let edge = |(i, j): (usize, usize)| Fact::new(r, vec![values[i], values[j]]);
        let full = Instance::from_facts(edges.map(edge));
        let opaque_value = |value: &Value| value.symbol().is_opaque();
        let from_opaque = full.facts().filter(|fact| opaque_value(&fact.values[0]));
        let delta: Instance = from_opaque.cloned().collect();
        for text in [
            "T() :- R(x, y), R(y, z).",
            "T(z) :- R(x, y), R(y, z).",
            "T(z, x) :- R(x, y), R(y, z).",
            "T(x, x, z) :- R(x, y), R(y, z).",
            "T(w, z, y, x) :- R(x, y), R(y, z), R(z, w), R(w, v).",
            "T(v, w, z, y, x) :- R(x, y), R(y, z), R(z, w), R(w, v), R(v, u).",
        ] {
            let query = q(text);
            // The head of every valuation on `full` that uses a fact of
            // `used`, one fact at a time: no answer set involved.
            let projected = |used: &Instance| -> Instance {
                let valuations = satisfying_valuations(&query, &full).into_iter();
                let valuations = valuations.filter(|v| {
                    let required = v.required_facts(&query);
                    !required.intersection(used).is_empty()
                });
                valuations.map(|v| v.derived_fact(&query)).collect()
            };
            let (answers, derived_anew) = (projected(&full), projected(&delta));
            assert!(!derived_anew.is_empty(), "{query}");
            let mixed = answers
                .facts()
                .any(|fact| fact.values.iter().any(opaque_value));
            assert!(mixed || query.head().arity() == 0, "{query}");
            for opts in all_options() {
                let evaluated = evaluate_with(&query, &full, opts);
                assert_eq!(evaluated, answers, "{query}: {opts:?}");
                let step = evaluate_seminaive_step_with(&query, &full, &delta, opts);
                assert_eq!(step, derived_anew, "{query}: {opts:?}");
            }
        }
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
                satisfying_valuations_with(query, &i, &Valuation::new(), EvalOptions::ScanOracle)
                    .into_iter()
                    .collect();
            for opts in all_options() {
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

    #[test]
    fn multiway_respects_fixed_bindings() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
        let opts = EvalOptions::default();
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
        let opts = EvalOptions::default();
        let mut count = 0;
        let flow = for_each_satisfying(&query, &i, &Valuation::new(), opts, |_| {
            count += 1;
            ControlFlow::Break(())
        });
        assert_eq!(count, 1);
        assert_eq!(flow, ControlFlow::Break(()));
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
        let order = atom_order(&query, &i, &Valuation::new(), None);
        assert_eq!(order[0], 1, "the selective S atom must be matched first");
    }

    #[test]
    fn cost_aware_order_ties_break_to_source_order() {
        let query = q("T(x, z) :- R(x, y), R(y, z).");
        let i = parse_instance("R(a, b). R(b, c).").unwrap();
        let order = atom_order(&query, &i, &Valuation::new(), None);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn a_pre_bound_value_narrows_the_search_to_its_run() {
        // The triejoin narrows the atoms that carry a pre-bound value to
        // that value's run in their sorted order before the search starts,
        // so the search reads what matches — here one R row of 2 000 and
        // its one S partner — and never the rest.
        let query = q("T(x, z) :- S(y, z), R(x, y).");
        let names = (0..2000).map(|i| format!("R(a{i}, b{i}). S(b{i}, u{}).", i % 7));
        let i = parse_instance(&names.collect::<String>()).unwrap();
        let fixed = Valuation::from_names([("x", "a1234")]);
        let _ = leaves(&query, &i, None, &fixed, EvalOptions::default()); // builds the orders
        let mut found = Vec::new();
        let reads = values_read(|| {
            found = leaves(&query, &i, None, &fixed, EvalOptions::default());
        });
        assert_eq!(found.len(), 1);
        assert!(reads < 200, "{reads} values read for one match among 2 000");
        // The scan oracle's planner has no index to ask: a known value
        // counts as a bound argument, which is enough to start at R.
        let order = atom_order(&query, &i, &fixed, None);
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
    fn a_differential_pass_costs_in_proportion_to_the_delta() {
        // Three relations of 3 000 rows each, chained one to one — except
        // for a hub: 50 R-rows end in `bh`, 50 Q-rows start at `ch`. One
        // delta fact per relation, so every pivot has a pass to run.
        let query = q("T(x, w) :- R(x, y), S(y, z), Q(z, w).");
        let mut text: String = (0..3000)
            .map(|i| format!("R(a{i}, b{i}). S(b{i}, c{i}). Q(c{i}, d{i}). "))
            .collect();
        text.extend((0..50).map(|i| format!("R(ha{i}, bh). Q(ch, hd{i}). ")));
        text.push_str("S(bh, ch).");
        let full = parse_instance(&text).unwrap();
        let opts = EvalOptions::default();
        for (delta, matches) in [
            ("R(a5, b5). S(b9, c9). Q(c11, d11).", 1),
            ("R(ha7, bh). S(bh, ch). Q(ch, hd7).", 50 * 50),
        ] {
            let delta = parse_instance(delta).unwrap();
            assert!(full.contains_all(&delta));
            for pivot in 0..3 {
                let pass = Some((pivot, &delta));
                let scanned = leaves(
                    &query,
                    &full,
                    pass,
                    &Valuation::new(),
                    EvalOptions::ScanOracle,
                );
                let mut walked = leaves(&query, &full, pass, &Valuation::new(), opts); // builds the orders
                let reads = values_read(|| {
                    walked = leaves(&query, &full, pass, &Valuation::new(), opts);
                });
                assert!(walked.len() <= matches && !walked.is_empty());
                assert_eq!(
                    walked.iter().collect::<BTreeSet<_>>(),
                    scanned.iter().collect::<BTreeSet<_>>(),
                    "pivot {pivot}"
                );
                // A few gallops of ≈ 2 log₂ 3 000 reads to find the delta
                // fact's partners, then about one read a leaf.
                let budget = 4 * walked.len() as u64 + 400;
                assert!(
                    reads <= budget,
                    "pivot {pivot}: {reads} values read for {} leaves over {} facts",
                    walked.len(),
                    full.len()
                );
            }
        }
    }

    /// xorshift64: the seeded source of the random differential below.
    struct Random(u64);

    impl Random {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// The relations of the random differential, by arity; the binary ones
    /// twice, for more cycles.
    const RELATIONS: [(&str, usize); 7] = [
        ("N", 0),
        ("U", 1),
        ("R", 2),
        ("S", 2),
        ("R", 2),
        ("S", 2),
        ("W", 3),
    ];

    /// A random safe query of 1 to 5 atoms over [`RELATIONS`] and 4
    /// variables: acyclic or cyclic, variables repeated inside atoms.
    fn random_query(random: &mut Random) -> ConjunctiveQuery {
        let vars = ["x", "y", "z", "w"];
        let mut used: Vec<&str> = Vec::new();
        let body: Vec<String> = (0..1 + random.below(5))
            .map(|_| {
                let (relation, arity) = RELATIONS[random.below(RELATIONS.len())];
                let args: Vec<&str> = (0..arity).map(|_| vars[random.below(4)]).collect();
                used.extend(&args);
                format!("{relation}({})", args.join(", "))
            })
            .collect();
        used.sort_unstable();
        used.dedup();
        used.retain(|_| random.below(3) > 0);
        q(&format!("T({}) :- {}.", used.join(", "), body.join(", ")))
    }

    /// Up to `facts` random facts over [`RELATIONS`] and 4 values, one in
    /// eight of another arity than its relation's.
    fn random_instance(random: &mut Random, facts: usize) -> Instance {
        Instance::from_facts((0..random.below(facts + 1)).map(|_| {
            let (relation, arity) = RELATIONS[random.below(RELATIONS.len())];
            let arity = if random.below(8) == 0 {
                random.below(4)
            } else {
                arity
            };
            let values = (0..arity).map(|_| Value::indexed("r", random.below(4)));
            Fact::new(relation, values.collect::<Vec<_>>())
        }))
    }

    #[test]
    fn triejoin_equals_the_scan_oracle_on_random_queries_and_instances() {
        let mut random = Random(0x5EED_2015);
        let (mut cyclic, mut satisfied, mut stepped) = (0, 0, 0);
        for round in 0..600 {
            let query = random_query(&mut random);
            cyclic += usize::from(!crate::is_acyclic(&query));
            let old = random_instance(&mut random, 30);
            let delta = random_instance(&mut random, 8);
            let full = old.union(&delta);
            // a full search, free and under a random pre-bound valuation
            let compiled = CompiledQuery::new(&query);
            let mut fixed = Valuation::new();
            for &var in compiled.variables() {
                if random.below(4) == 0 {
                    fixed.bind(var, Value::indexed("r", random.below(5)));
                }
            }
            for fixed in [Valuation::new(), fixed] {
                let scanned = leaves(&query, &full, None, &fixed, EvalOptions::ScanOracle);
                let walked = leaves(&query, &full, None, &fixed, EvalOptions::default());
                // lexicographically ascending in the plan's variable order
                let plan = TriePlan::new(&compiled, &compiled.bind(&fixed), None);
                let in_order = |leaf: &Vec<Value>| -> Vec<Value> {
                    plan.depths.iter().map(|depth| leaf[depth.slot]).collect()
                };
                let ordered: Vec<Vec<Value>> = walked.iter().map(in_order).collect();
                assert!(
                    ordered.windows(2).all(|pair| pair[0] < pair[1]),
                    "round {round}: {query} on {full} under {fixed}: {walked:?}"
                );
                assert_eq!(
                    walked.iter().collect::<BTreeSet<_>>(),
                    scanned.iter().collect::<BTreeSet<_>>(),
                    "round {round}: {query} on {full} under {fixed}"
                );
                satisfied += usize::from(!walked.is_empty());
            }
            // every pivot of a differential step, and the step's law
            for pivot in 0..query.body_size() {
                let pass = Some((pivot, &delta));
                let scanned = leaves(
                    &query,
                    &full,
                    pass,
                    &Valuation::new(),
                    EvalOptions::ScanOracle,
                );
                let walked = leaves(
                    &query,
                    &full,
                    pass,
                    &Valuation::new(),
                    EvalOptions::default(),
                );
                assert_eq!(
                    walked.len(),
                    walked.iter().collect::<BTreeSet<_>>().len(),
                    "round {round}: {query}, pivot {pivot}: a leaf twice"
                );
                assert_eq!(
                    walked.iter().collect::<BTreeSet<_>>(),
                    scanned.iter().collect::<BTreeSet<_>>(),
                    "round {round}: {query}, pivot {pivot}, {delta} into {full}"
                );
                stepped += usize::from(!walked.is_empty());
            }
            let step = evaluate_seminaive_step(&query, &full, &delta);
            assert_eq!(
                evaluate(&query, &old).union(&step),
                evaluate_with(&query, &full, EvalOptions::ScanOracle),
                "round {round}: {query}, {delta} into {old}"
            );
        }
        assert!(
            cyclic > 20 && satisfied > 200 && stepped > 200,
            "{cyclic} cyclic queries, {satisfied} searches and {stepped} passes with a leaf"
        );
    }

    #[test]
    fn forced_first_atom_order_is_a_permutation() {
        let query = q("T(x, w) :- R(x, y), S(y, z), R(z, w).");
        let i = parse_instance("R(a, b). S(b, c). R(c, d).").unwrap();
        for first in 0..query.body_size() {
            let order = atom_order(&query, &i, &Valuation::new(), Some(first));
            assert_eq!(order[0], first);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "{order:?} is not a permutation");
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
