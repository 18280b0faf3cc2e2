//! Evaluation of conjunctive queries over instances.
//!
//! Every entry point — [`evaluate`], [`evaluate_seminaive_step`],
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
//! * **The last variable opens no run.** At the plan's last depth, when
//!   the variable fills one column of each of two or more atoms — the
//!   triangle, the 4-cycle, the 4-clique — every other column is bound, so
//!   that column is each atom's last and a common value is exactly one row
//!   of each run. The runs are intersected without pushing a range: two
//!   runs of comparable length by one linear merge, which reads every row
//!   at most once; three, or two of which one is at least 16 times the
//!   other, by leapfrogging (a gallop through the long run per row of the
//!   short one) and stepping each cursor past its row. The values still
//!   ascend, so the leaf order is unchanged; each common value is one leaf
//!   call (`Bind::Last` hands over no run). A chain, a closure or a relax
//!   query ends instead in a variable of one atom (`Bind::Direct`), read
//!   straight off its run: the leaves of that run differ in that one slot
//!   only, and the search hands the whole run — the slot and one flat
//!   column of the atom's order — to the leaf callback in one call, instead
//!   of one recursion and one leaf call per row. A callback that takes
//!   leaves one at a time (the decision procedures, [`for_each_satisfying`])
//!   gets them by a default that loops over the run, in the same order and
//!   with the same early `Break`.
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
//!   [`evaluate_seminaive_step`] points its pivot atom at the delta's
//!   sorted order and every other atom at the full instance's, and binds the
//!   pivot atom's variables first: a pass costs in proportion to the delta,
//!   not to the accumulated instance.
//! * **Answers as packed keys.** `evaluate*` project every satisfying
//!   assignment onto the head slots and collect the projections with set
//!   semantics *before any [`Fact`] exists*. **A head of at most two
//!   values over a small id range collects into a bitmap**: every search
//!   of the evaluation is planned first, and each sorted order records the
//!   least and greatest raw id it holds, so the range of a head variable
//!   is read off the orders of its atoms — no pass over the facts. The
//!   bitmap spans the product of the head variables' ranges; it is chosen
//!   when its words are at most the rows the searches read (every atom's
//!   order for a whole evaluation, the pivot's delta order for a
//!   differential pass) or 4 096 (32 KB), whichever is more — never more
//!   than 8 bytes a row above the floor. A derivation sets one bit, and
//!   the set bits, walked in index order, are the answers in ascending
//!   order, built at their exact count: no key, no sort, no dedup. A head
//!   of at most two values over a wider range — a mixed opaque and named
//!   one spans 2³¹ ids — and a head of three or four values keep a hash
//!   set: the head packs into one `u128` key, each value's 32-bit symbol id
//!   with the first head value in the high bits, so a derivation costs one
//!   integer hash probe. The keys of one head order as its tuples do (an
//!   opaque id keeps its place after the named ones), so the distinct keys
//!   are sorted as integers and unpacked into ascending rows that
//!   [`Instance::from_relations`] moves in: no [`Fact`] is sorted.
//!   A wider head keeps a set of [`Tuple`]s and one [`Instance::from_facts`]
//!   at the end. Either way the work per derivation is a bit or a probe,
//!   and the allocations are O(answers), never O(valuations).
//!   A run handed over whole is collected as one: the dense set computes
//!   the bound head values' part of the bit index once and sets bit
//!   `base + (v − low) · stride` for each value `v`, a packed head ORs each
//!   value into one key prefix, and a run whose variable is outside the
//!   head is one head tuple, collected once; the valuations count grows by
//!   the run's length. (`evaluate_done` in a trace carries the valuations,
//!   the `runs` handed over whole, the answers and the `collector`:
//!   `dense`, `hashed` or `each`.) A full evaluation of a query whose head
//!   mentions every variable skips the set: each leaf of one enumeration is
//!   a new answer there, valuations = answers, so a packable head pushes
//!   its key onto a plain vector, sorted as integers at the end — one pass
//!   when the leaf order is the head order, as on the triangle — and only a
//!   head wider than 4 collects [`Fact`]s for the bulk build's sort.
//! * **Valuations only at the boundary.** [`CompiledQuery`] is public:
//!   [`CompiledQuery::for_each_satisfying`] hands every leaf's slot array to
//!   the caller, which is what the decision procedures of `pc-core` loop
//!   over. [`for_each_satisfying`] keeps its `&Valuation` callback as a thin
//!   adapter that refills one reused [`Valuation`] from the slots at each
//!   leaf.
//!
//! **The oracle.** The property suites compare the kernel against the seed
//! evaluator, an atom-at-a-time scan join that builds no sorted order and
//! shares no search code with the triejoin. It lives in the dev-only
//! `oracle` crate: no build of this crate can select it. A fact only ever
//! matches an atom of its own arity, so ill-formed (mixed-arity) relations
//! evaluate the same under both.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::atom::{Atom, Variable};
use crate::fact::{self, Fact, Tuple, NARROW_ARITY, PACKED_ARITY};
use crate::instance::{Instance, SortedOrder};
use crate::intern::{Symbol, SymbolHashBuilder};
use crate::query::ConjunctiveQuery;
use crate::valuation::Valuation;
use crate::value::Value;

/// The options of [`evaluate_with`]: there are none, since one kernel runs
/// every query. The unit type is kept only because the benchmark's frozen
/// probe calls `evaluate_with(.., EvalOptions::default())`; the benchmark
/// change that drops that call deletes it (as it does
/// `MultiRoundEngine::semi_naive`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalOptions;

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
    /// the query on `instance` that extends `fixed`, through the triejoin —
    /// [`for_each_satisfying`] without the [`Valuation`] per leaf, in the
    /// same order.
    pub fn for_each_satisfying<L>(
        &self,
        instance: &Instance,
        fixed: &Valuation,
        leaf: L,
    ) -> ControlFlow<()>
    where
        L: FnMut(&Slots) -> ControlFlow<()>,
    {
        self.search(instance, None, self.bind(fixed), leaf)
    }

    /// Calls `leaf` with the slot array of every assignment found by one
    /// differential pass of [`evaluate_seminaive_step`]: body atom `pivot`
    /// matches a fact of `delta`, every other atom a fact of `full`, and the
    /// pivot atom's variables are bound first.
    pub fn for_each_in_pass<L>(
        &self,
        full: &Instance,
        pivot: usize,
        delta: &Instance,
        leaf: L,
    ) -> ControlFlow<()>
    where
        L: FnMut(&Slots) -> ControlFlow<()>,
    {
        let slots = vec![None; self.vars.len()];
        self.search(full, Some((pivot, delta)), slots, leaf)
    }

    /// The one search behind every entry point: the assignments extending
    /// `slots` under which every body atom matches a fact of `full` — or,
    /// for the atom `pivot` names, a fact of the instance next to it (the
    /// shape of a semi-naive differential pass).
    fn search<L: Leaf>(
        &self,
        full: &Instance,
        pivot: Option<(usize, &Instance)>,
        slots: Vec<Option<Value>>,
        leaf: L,
    ) -> ControlFlow<()> {
        match self.prepare(full, pivot, &slots) {
            Some(pass) => self.run(&pass, slots, leaf),
            None => ControlFlow::Continue(()),
        }
    }

    /// The plan of [`CompiledQuery::search`] and the sorted orders its atoms
    /// walk; `None` when an atom has no row of its arity, so nothing
    /// satisfies the query.
    fn prepare(
        &self,
        full: &Instance,
        pivot: Option<(usize, &Instance)>,
        slots: &Slots,
    ) -> Option<Pass> {
        let source = |atom: usize| match pivot {
            Some((pivoted, delta)) if pivoted == atom => delta,
            _ => full,
        };
        let pivoted = pivot.map(|(atom, _)| atom);
        let plan = TriePlan::new(self, slots, pivoted);
        let body = self.query.body().iter().enumerate();
        let orders = body.map(|(atom, body_atom)| {
            let order = source(atom).sorted_order(body_atom.relation, plan.columns(self, atom));
            (order.rows() > 0).then_some(order)
        });
        let orders = orders.collect::<Option<Vec<_>>>()?;
        Some(Pass {
            plan,
            pivot: pivoted,
            orders,
        })
    }

    /// The [prepared](CompiledQuery::prepare) searches over `full` from no
    /// binding that `pivots` lists, leaving out those that find nothing.
    fn passes<'i>(
        &self,
        full: &Instance,
        pivots: impl IntoIterator<Item = Option<(usize, &'i Instance)>>,
    ) -> Vec<Pass> {
        let slots = vec![None; self.vars.len()];
        let pivots = pivots.into_iter();
        pivots
            .filter_map(|pivot| self.prepare(full, pivot, &slots))
            .collect()
    }

    /// Runs a [prepared](CompiledQuery::prepare) search from `slots`.
    fn run<L: Leaf>(&self, pass: &Pass, slots: Vec<Option<Value>>, leaf: L) -> ControlFlow<()> {
        match Leapfrog::new(self, &pass.plan, &pass.orders, slots, leaf) {
            Some(mut join) => join.search(0),
            None => ControlFlow::Continue(()),
        }
    }
}

/// One search, planned: the order it binds in and the sorted order each
/// atom walks, held here, outside the join whose cursors borrow them, for
/// as long as it runs.
struct Pass {
    plan: TriePlan,
    /// The atom that walks the delta in a differential pass.
    pivot: Option<usize>,
    orders: Vec<Arc<SortedOrder>>,
}

/// The binding state of a search: the slot array plus the undo trail of the
/// slots bound since the search began. Public for searches over a
/// [`CompiledQuery`]'s slots outside the evaluator (the covering search of
/// `pc-core`, the scan join of the test oracle), which bind and backtrack
/// the same way.
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

impl<'a> Rows<'a> {
    /// The value in column `col` of row `row`: one read of the search.
    #[inline]
    fn at(self, row: usize, col: usize) -> Value {
        #[cfg(test)]
        tests::VALUES_READ.with(|reads| reads.set(reads.get() + 1));
        self.values[row * self.arity + col]
    }

    /// Column `col` of the rows of `run`.
    fn column(self, run: Run, col: usize) -> Column<'a> {
        Column {
            rows: &self.values[run.start * self.arity..run.end * self.arity],
            col,
            arity: self.arity,
        }
    }

    /// The first of the rows `lo..hi` whose column `col` is no longer
    /// `below` (which must hold for a prefix of them), found by doubling
    /// steps from `lo`: O(log distance), which is what makes intersecting a
    /// short column with a long one cheap.
    fn gallop(self, lo: usize, hi: usize, col: usize, below: impl Fn(Value) -> bool) -> usize {
        let below = |row: usize| below(self.at(row, col));
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
}

/// One column of a run of rows, top to bottom: the values a
/// [`Bind::Direct`] depth binds, ascending.
#[derive(Clone, Copy)]
struct Column<'a> {
    /// The run's rows, flat.
    rows: &'a [Value],
    col: usize,
    arity: usize,
}

impl<'a> Column<'a> {
    /// The number of rows, each one value.
    fn len(self) -> usize {
        self.rows.len() / self.arity
    }

    /// The values, one read each.
    fn iter(self) -> impl Iterator<Item = Value> + 'a {
        let values = self.rows.iter().skip(self.col).step_by(self.arity);
        values.copied().inspect(|_| {
            #[cfg(test)]
            tests::VALUES_READ.with(|reads| reads.set(reads.get() + 1));
        })
    }
}

/// What the kernel hands the leaves of a search to: one call per leaf, and
/// one per run of leaves that differ in the last depth's slot only.
trait Leaf {
    /// One satisfying assignment; every slot is bound.
    fn leaf(&mut self, slots: &Slots) -> ControlFlow<()>;

    /// The leaves that bind `slot` to each of `values` in turn and every
    /// other slot as `slots` does: the run of a last depth bound by
    /// [`Bind::Direct`]. By default one [`Leaf::leaf`] call per value, in
    /// order, up to the first `Break`, so a caller that sees leaves one at
    /// a time sees them as if there were no runs.
    fn run(&mut self, slots: &mut Slots, slot: usize, values: Column<'_>) -> ControlFlow<()> {
        for value in values.iter() {
            slots[slot] = Some(value);
            self.leaf(slots)?;
        }
        ControlFlow::Continue(())
    }
}

impl<F: FnMut(&Slots) -> ControlFlow<()>> Leaf for F {
    fn leaf(&mut self, slots: &Slots) -> ControlFlow<()> {
        self(slots)
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
        self.runs[col].next = self
            .rows
            .gallop(run.next, run.end, col, |value| value < target);
        self.key()
    }

    /// Binds the next unbound column to `value`: passes the rows up to and
    /// including the value's run and pushes that run. Whether it is
    /// non-empty; [`TrieCursor::close`] undoes the binding either way.
    fn open(&mut self, value: Value) -> bool {
        let (run, col) = self.top();
        let start = self
            .rows
            .gallop(run.next, run.end, col, |other| other < value);
        let end = self
            .rows
            .gallop(start, run.end, col, |other| other <= value);
        self.runs[col].next = end;
        let next = start;
        self.runs.push(Run { start, end, next });
        start < end
    }

    /// Unbinds the column bound last.
    fn close(&mut self) {
        self.runs.pop();
    }

    /// Passes the row at [`TrieCursor::key`]: in a run whose next column is
    /// its last, a value is one row.
    fn step(&mut self) {
        let (run, col) = self.top();
        self.runs[col].next = run.next + 1;
    }
}

/// One depth of a triejoin: the slot it binds and where its values come
/// from.
struct Depth {
    slot: usize,
    /// The atoms the slot's variable occurs in, in body order, each with the
    /// number of its columns the variable fills.
    atoms: Vec<(usize, usize)>,
    bind: Bind,
}

/// How a depth finds its values.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bind {
    /// The variable occurs once, in the last column of its one atom: its
    /// values are that atom's innermost run, read row by row.
    Direct,
    /// The last depth, where every one of two or more atoms has the
    /// variable in one column, its last: the runs' last columns are
    /// intersected, and a common value is one row of each run, so no run
    /// is opened.
    Last,
    /// Any other depth: leapfrog to each common value and open its run in
    /// every atom before going deeper.
    Open,
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
            let (atoms, bind) = (Vec::new(), Bind::Open);
            depths.push(Depth { slot, atoms, bind });
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
        let last = plan.depths.len().checked_sub(1);
        for depth in 0..plan.depths.len() {
            let Depth { slot, atoms, .. } = &plan.depths[depth];
            let bind = if let [(atom, 1)] = atoms[..] {
                let column = *plan.columns(query, atom).last().expect("the slot's column");
                if query.atom(atom)[column] == *slot {
                    Bind::Direct
                } else {
                    Bind::Open
                }
            } else if Some(depth) == last && atoms.iter().all(|&(_, filled)| filled == 1) {
                // Every column is bound by now, so the slot's is each
                // atom's last.
                Bind::Last
            } else {
                Bind::Open
            };
            plan.depths[depth].bind = bind;
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

impl<'a, L: Leaf> Leapfrog<'a, L> {
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
        let Some(Depth { slot, atoms, bind }) = depths.get(depth) else {
            return self.leaf.leaf(&self.slots);
        };
        let slot = *slot;
        match bind {
            Bind::Direct => {
                // Distinct rows that agree everywhere else differ here:
                // every row of the run is one value, and no column is left
                // to narrow.
                let cursor = &self.cursors[atoms[0].0];
                let (run, col) = cursor.top();
                let values = cursor.rows.column(run, col);
                let flow = if depth + 1 == depths.len() {
                    // The run's leaves differ in this slot only: one call.
                    self.leaf.run(&mut self.slots, slot, values)
                } else {
                    let mut flow = ControlFlow::Continue(());
                    for value in values.iter() {
                        self.slots[slot] = Some(value);
                        flow = self.search(depth + 1);
                        if flow.is_break() {
                            break;
                        }
                    }
                    flow
                };
                self.slots[slot] = None;
                return flow;
            }
            Bind::Last => {
                let flow = match atoms[..] {
                    [(a, _), (b, _)] if !self.skewed([a, b]) => self.merge_last(slot, [a, b]),
                    _ => self.leapfrog_last(depth),
                };
                self.slots[slot] = None;
                return flow;
            }
            Bind::Open => {}
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
                self.slots[slot] = Some(value);
                let flow = self.search(depth + 1);
                self.slots[slot] = None;
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

    /// Whether one of two atoms' innermost runs is [`GALLOP_RATIO`] times
    /// the other's length or longer.
    fn skewed(&self, atoms: [usize; 2]) -> bool {
        let [a, b] = atoms.map(|atom| {
            let (run, _) = self.cursors[atom].top();
            run.end - run.start
        });
        a.max(b) >= GALLOP_RATIO * a.min(b)
    }

    /// The last depth over two atoms whose runs are of comparable length:
    /// the values both innermost runs carry in their last column, each one
    /// row of each, every one a leaf. One linear merge reads each row of
    /// either run at most once.
    fn merge_last(&mut self, slot: usize, atoms: [usize; 2]) -> ControlFlow<()> {
        // Each value is read once, when the walk comes to it.
        let [mut xs, mut ys] = atoms.map(|atom| {
            let cursor = &self.cursors[atom];
            let ((run, col), rows) = (cursor.top(), cursor.rows);
            (run.start..run.end).map(move |row| rows.at(row, col))
        });
        let (mut x, mut y) = (xs.next(), ys.next());
        while let (Some(a), Some(b)) = (x, y) {
            match a.cmp(&b) {
                Ordering::Less => x = xs.next(),
                Ordering::Greater => y = ys.next(),
                Ordering::Equal => {
                    self.slots[slot] = Some(a);
                    self.leaf.leaf(&self.slots)?;
                    (x, y) = (xs.next(), ys.next());
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The last depth over three or more atoms, or over two whose runs are
    /// [skewed](Self::skewed): leapfrog to each common value — a gallop
    /// through the long run per row of the short one — a leaf, and step
    /// every cursor past its one row.
    fn leapfrog_last(&mut self, depth: usize) -> ControlFlow<()> {
        let Depth { slot, atoms, .. } = &self.depths[depth];
        for &(atom, _) in atoms {
            self.cursors[atom].rewind();
        }
        while let Some(value) = self.next_common(depth) {
            for &(atom, _) in atoms {
                self.cursors[atom].step();
            }
            self.slots[*slot] = Some(value);
            self.leaf.leaf(&self.slots)?;
        }
        ControlFlow::Continue(())
    }
}

/// How many times longer than the other a run must be for the last depth
/// to gallop through it rather than merge: a seek costs about
/// 2·log₂(distance) + 2 reads, which at this ratio stays below the rows a
/// merge would read.
const GALLOP_RATIO: usize = 16;

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
    mut callback: F,
) -> ControlFlow<()>
where
    F: FnMut(&Valuation) -> ControlFlow<()>,
{
    let compiled = CompiledQuery::new(query);
    // One valuation serves every leaf: rebinding a bound variable
    // overwrites in place.
    let mut valuation = Valuation::new();
    compiled.for_each_satisfying(instance, fixed, |slots| {
        for (&var, value) in compiled.vars.iter().zip(slots) {
            valuation.bind(var, value.expect("every slot is bound at a leaf"));
        }
        callback(&valuation)
    })
}

/// The head tuples of an evaluation.
enum Collected {
    /// Set semantics over one bit per head tuple the searches can bind, for
    /// a head of at most [`NARROW_ARITY`] values over a small id range (see
    /// [`Dense`]): a derivation sets its bit, and the set bits, walked in
    /// index order, are the answers in ascending order.
    Dense(Dense),
    /// Set semantics over packed keys *before any [`Fact`] exists*, for a
    /// head of arity ≤ [`PACKED_ARITY`] (the key layout is
    /// [`fact::pack`]'s). The keys of one head order as its tuples do, so
    /// sorting the integers sorts the answers.
    Packed(HashSet<u128, SymbolHashBuilder>),
    /// Every leaf is a new answer, so there is nothing to look up: the leaves
    /// of one enumeration are distinct valuations, and a head in which every
    /// variable occurs keeps them apart. A packable head's keys.
    EachPacked(Vec<u128>),
    /// Set semantics over tuples, for a head too wide to pack; `scratch`
    /// holds the projection of the leaf at hand.
    Tuples {
        distinct: HashSet<Tuple, SymbolHashBuilder>,
        scratch: Vec<Value>,
    },
    /// Every leaf is a new answer (see [`Collected::EachPacked`]), for a
    /// head too wide to pack.
    Each(Vec<Fact>),
}

/// The fewest words a dense answer set may always take: 32 KB.
const DENSE_FLOOR_WORDS: usize = 4_096;

/// A bitmap over the product of the head values' [raw](Value::raw) id
/// ranges: the head tuple `(v₀, v₁)` is bit `(v₀ − low₀) · width₁ + (v₁ −
/// low₁)` (bit `v₀ − low₀` for a unary head, bit 0 for a nullary one), so
/// index order is the tuples' order.
struct Dense {
    lows: [u32; NARROW_ARITY],
    widths: [u64; NARROW_ARITY],
    bits: Vec<u64>,
}

impl Dense {
    /// The bitmap for the head of `compiled` over the searches `passes`,
    /// when there is one and it takes at most as many words as the passes
    /// read rows, or [`DENSE_FLOOR_WORDS`]. A whole search reads the rows
    /// of every atom's order, a differential pass those of its pivot's
    /// delta order: a step never walks a bitmap sized by the instance it
    /// grows.
    ///
    /// The ranges come from the orders, never from a fact: a head value is
    /// bound through every atom of its variable, so within one pass it lies
    /// in the intersection of those atoms' ranges, and over all passes in
    /// the union of those intersections. A mixed opaque and named range
    /// spans the opaque bit, 2³¹ ids: it fits no evaluation of fewer than
    /// 2²⁵ rows.
    fn fit(compiled: &CompiledQuery<'_>, passes: &[Pass]) -> Option<Dense> {
        let head = compiled.head();
        if head.len() > NARROW_ARITY || passes.is_empty() {
            return None;
        }
        // Empty while `low > high`.
        let mut ranges = [(u32::MAX, 0); NARROW_ARITY];
        let mut rows = 0;
        'passes: for pass in passes {
            rows += match pass.pivot {
                Some(atom) => pass.orders[atom].rows(),
                None => pass.orders.iter().map(|order| order.rows()).sum(),
            };
            let mut bounds = [(0, u32::MAX); NARROW_ARITY];
            for (bound, &slot) in bounds.iter_mut().zip(head) {
                let atoms =
                    (0..compiled.atom_count()).filter(|&a| compiled.atom(a).contains(&slot));
                for atom in atoms {
                    let (low, high) = pass.orders[atom].range().expect("a row binds the slot");
                    *bound = (bound.0.max(low), bound.1.min(high));
                }
                // No value is common to the slot's atoms: the pass binds none.
                if bound.0 > bound.1 {
                    continue 'passes;
                }
            }
            for (range, bound) in ranges.iter_mut().zip(bounds) {
                *range = (range.0.min(bound.0), range.1.max(bound.1));
            }
        }
        let (mut lows, mut widths) = ([0; NARROW_ARITY], [1; NARROW_ARITY]);
        for (at, &(low, high)) in ranges.iter().enumerate().take(head.len()) {
            if low > high {
                return None;
            }
            (lows[at], widths[at]) = (low, u64::from(high - low) + 1);
        }
        let bits: u128 = widths.iter().map(|&width| u128::from(width)).product();
        let words = bits.div_ceil(64);
        let fits = words <= rows.max(DENSE_FLOOR_WORDS) as u128;
        fits.then(|| Dense {
            lows,
            widths,
            bits: vec![0; words as usize],
        })
    }

    /// Sets the bit of one head tuple.
    #[inline]
    fn insert(&mut self, values: impl Iterator<Item = Value>) {
        let (lows, widths) = (self.lows.iter(), self.widths.iter());
        let mut index = 0;
        for ((&low, &width), value) in lows.zip(widths).zip(values) {
            index = index * width + u64::from(value.raw() - low);
        }
        self.set(index);
    }

    /// Sets the bits of the head tuples that `slot`, one of the `head`
    /// slots, takes each of `values` in: the other head slots' part of the
    /// index is computed once, so a value costs one multiply-add.
    fn insert_run(&mut self, head: &[usize], slots: &Slots, slot: usize, values: Column<'_>) {
        let (mut base, mut stride, mut low) = (0, 0, 0);
        let positions = head.iter().zip(self.lows).zip(self.widths);
        for ((&at, at_low), width) in positions {
            (base, stride) = (base * width, stride * width);
            match slots[at] {
                _ if at == slot => (stride, low) = (stride + 1, at_low),
                Some(value) => base += u64::from(value.raw() - at_low),
                None => unreachable!("every other slot is bound at a leaf"),
            }
        }
        for value in values.iter() {
            self.set(base + u64::from(value.raw() - low) * stride);
        }
    }

    #[inline]
    fn set(&mut self, index: u64) {
        self.bits[(index / 64) as usize] |= 1 << (index % 64);
    }

    /// The tuples of the set bits as facts of `relation`, ascending, in a
    /// vector of exactly their number.
    fn into_rows(self, relation: Symbol, arity: usize) -> Vec<Fact> {
        let count = self.bits.iter().map(|word| word.count_ones() as usize);
        let mut rows = Vec::with_capacity(count.sum());
        for (at, &word) in self.bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let mut index = at as u64 * 64 + u64::from(word.trailing_zeros());
                word &= word - 1;
                let mut values = [Value::PAD; NARROW_ARITY];
                for position in (0..arity).rev() {
                    let offset = (index % self.widths[position]) as u32;
                    values[position] = Value::from_raw(self.lows[position] + offset);
                    index /= self.widths[position];
                }
                rows.push(Fact::new(
                    relation,
                    Tuple::from_iter(values[..arity].iter().copied()),
                ));
            }
        }
        rows
    }
}

/// The answers of an evaluation: every leaf's projection onto the head.
struct Answers {
    relation: Symbol,
    /// The head projection: the slot of each head argument.
    head: Vec<usize>,
    collected: Collected,
    valuations: u64,
    /// How many runs of leaves came in one [`Leaf::run`] call.
    runs: u64,
}

impl Answers {
    /// The set for the leaves of `passes`. `single_pass`: whether they
    /// come from one enumeration (a semi-naive step's pivoted passes derive
    /// one valuation several times).
    fn new(compiled: &CompiledQuery<'_>, single_pass: bool, passes: &[Pass]) -> Answers {
        let arity = compiled.head.len();
        let full_head = (0..compiled.vars.len()).all(|slot| compiled.head.contains(&slot));
        let collected = match (arity <= PACKED_ARITY, single_pass && full_head) {
            (true, false) => match Dense::fit(compiled, passes) {
                Some(dense) => Collected::Dense(dense),
                None => Collected::Packed(HashSet::default()),
            },
            (true, true) => Collected::EachPacked(Vec::new()),
            (false, false) => Collected::Tuples {
                distinct: HashSet::default(),
                scratch: Vec::with_capacity(arity),
            },
            (false, true) => Collected::Each(Vec::new()),
        };
        Answers {
            relation: compiled.query.head().relation,
            head: compiled.head.clone(),
            collected,
            valuations: 0,
            runs: 0,
        }
    }

    /// Records the head tuple of one satisfying assignment: one bit set or
    /// one key probe for a packed head; a wide one is copied only when it is
    /// new. Reads the head slots only.
    fn insert(&mut self, slots: &Slots) {
        let head = self.head.iter();
        let values = head.map(|&slot| slots[slot].expect("every slot is bound at a leaf"));
        match &mut self.collected {
            Collected::Dense(dense) => dense.insert(values),
            Collected::Packed(keys) => {
                keys.insert(fact::pack(values));
            }
            Collected::EachPacked(keys) => keys.push(fact::pack(values)),
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
    }

    /// Collects the leaves of every search of `passes` and finishes.
    fn over(mut self, compiled: &CompiledQuery<'_>, passes: &[Pass]) -> Instance {
        for pass in passes {
            let slots = vec![None; compiled.vars.len()];
            let _ = compiled.run(pass, slots, &mut self);
        }
        self.finish()
    }

    /// The answers as an instance. A dense set's bits are walked into
    /// ascending rows, packed keys are sorted as integers and unpacked into
    /// them, and either moves in as it stands (keys that came in order cost
    /// one pass); the wider heads go through the bulk build's sort and
    /// dedup.
    fn finish(self) -> Instance {
        let relation = self.relation;
        let arity = self.head.len();
        let packed = |rows| Instance::from_relations(vec![(relation, rows)]);
        let (answers, collector) = match self.collected {
            Collected::Dense(dense) => (packed(dense.into_rows(relation, arity)), "dense"),
            Collected::Packed(keys) => {
                (packed(fact::unpack_sorted(relation, arity, keys)), "hashed")
            }
            Collected::EachPacked(keys) => {
                (packed(fact::unpack_sorted(relation, arity, keys)), "each")
            }
            Collected::Tuples { distinct, .. } => {
                let distinct = distinct.into_iter();
                let facts = distinct.map(|values| Fact::new(relation, values));
                (Instance::from_facts(facts), "hashed")
            }
            Collected::Each(facts) => (Instance::from_facts(facts), "each"),
        };
        obs::instant!(
            "evaluate_done",
            valuations = self.valuations,
            runs = self.runs,
            answers = answers.len(),
            collector = collector
        );
        answers
    }
}

impl Leaf for &mut Answers {
    fn leaf(&mut self, slots: &Slots) -> ControlFlow<()> {
        self.valuations += 1;
        self.insert(slots);
        ControlFlow::Continue(())
    }

    /// A run's leaves share every head value but the one `slot` binds, if
    /// `slot` is in the head at all: a dense set sets a bit per value at an
    /// index computed once, a packed head ORs each value into one key
    /// prefix, and a run outside the head is one tuple, recorded once.
    fn run(&mut self, slots: &mut Slots, slot: usize, values: Column<'_>) -> ControlFlow<()> {
        self.valuations += values.len() as u64;
        self.runs += 1;
        if values.len() == 0 {
            return ControlFlow::Continue(());
        }
        if !self.head.contains(&slot) {
            self.insert(slots);
            return ControlFlow::Continue(());
        }
        let head = &self.head;
        match &mut self.collected {
            Collected::Dense(dense) => dense.insert_run(head, slots, slot, values),
            Collected::Packed(set) => set.extend(run_keys(head, slots, slot, values)),
            Collected::EachPacked(pushed) => pushed.extend(run_keys(head, slots, slot, values)),
            Collected::Tuples { .. } | Collected::Each(_) => {
                for value in values.iter() {
                    slots[slot] = Some(value);
                    self.insert(slots);
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// The [packed](fact::pack) keys of the head tuples in which `slot`, one of
/// the `head` slots, takes each of `values` and every other head slot its
/// value in `slots`: the key with `slot`'s value left out is computed once,
/// and each value is ORed into it at every position it fills.
fn run_keys<'a>(
    head: &[usize],
    slots: &Slots,
    slot: usize,
    values: Column<'a>,
) -> impl Iterator<Item = u128> + 'a {
    // `unit` is the key of the value 1 at `slot`'s positions.
    let (mut prefix, mut unit) = (0u128, 0u128);
    for &at in head {
        (prefix, unit) = match slots[at] {
            _ if at == slot => (prefix << 32, unit << 32 | 1),
            Some(value) => (prefix << 32 | u128::from(value.raw()), unit << 32),
            None => unreachable!("every other slot is bound at a leaf"),
        };
    }
    let keys = values.iter();
    keys.map(move |value| prefix | (unit * u128::from(value.raw())))
}

/// The answers of the searches of `compiled` over `full` that `pivots`
/// lists — one whole search (`None`), or one differential pass per pivot
/// atom over the instance next to it — in one set. Every search is planned
/// before the first leaf, so the set is chosen knowing all of them.
fn answers<'i>(
    compiled: &CompiledQuery<'_>,
    full: &Instance,
    pivots: impl IntoIterator<Item = Option<(usize, &'i Instance)>>,
    single_pass: bool,
) -> Instance {
    let passes = compiled.passes(full, pivots);
    Answers::new(compiled, single_pass, &passes).over(compiled, &passes)
}

/// The differential passes of a semi-naive step: one per body atom whose
/// relation has `delta` facts.
fn pivots<'q, 'i>(
    query: &'q ConjunctiveQuery,
    delta: &'i Instance,
) -> impl Iterator<Item = Option<(usize, &'i Instance)>> + use<'q, 'i> {
    let body = query.body().iter().enumerate();
    let pivots = body.filter(|(_, atom)| !delta.facts_of(atom.relation).is_empty());
    pivots.map(move |(pivot, _)| Some((pivot, delta)))
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
pub fn evaluate_seminaive_step(
    query: &ConjunctiveQuery,
    full: &Instance,
    delta: &Instance,
) -> Instance {
    let _span = obs::span!("seminaive_step", delta_facts = delta.len());
    answers(
        &CompiledQuery::new(query),
        full,
        pivots(query, delta),
        false,
    )
}

/// All satisfying valuations of `query` on `instance`, each once: the
/// leaves of one enumeration are distinct valuations.
pub fn satisfying_valuations(query: &ConjunctiveQuery, instance: &Instance) -> Vec<Valuation> {
    let mut out = Vec::new();
    let _ = for_each_satisfying(query, instance, &Valuation::new(), |v| {
        out.push(v.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Evaluates `query` on `instance`: the set of facts derived by satisfying
/// valuations (`Q(I)` in the paper).
pub fn evaluate(query: &ConjunctiveQuery, instance: &Instance) -> Instance {
    let _span = obs::span!("evaluate", facts = instance.len());
    answers(&CompiledQuery::new(query), instance, [None], true)
}

/// [`evaluate`]; see [`EvalOptions`].
pub fn evaluate_with(query: &ConjunctiveQuery, instance: &Instance, _: EvalOptions) -> Instance {
    evaluate(query, instance)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_instance;
    use oracle::cases::{self, Random, CYCLIC_SHAPES, NARROW_HEADS};
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

    /// The leaves of one search — a full one, or the differential pass
    /// pivoted on an atom of `pivot`'s instance — in the order they come.
    fn leaves(
        query: &ConjunctiveQuery,
        full: &Instance,
        pivot: Option<(usize, &Instance)>,
        fixed: &Valuation,
    ) -> Vec<Vec<Value>> {
        let compiled = CompiledQuery::new(query);
        let mut leaves = Vec::new();
        let _ = compiled.search(full, pivot, compiled.bind(fixed), |slots: &Slots| {
            leaves.push(slots.iter().map(|value| value.unwrap()).collect());
            ControlFlow::Continue(())
        });
        leaves
    }

    /// All satisfying valuations extending `fixed`.
    fn satisfying(
        query: &ConjunctiveQuery,
        instance: &Instance,
        fixed: &Valuation,
    ) -> Vec<Valuation> {
        let mut out = Vec::new();
        let _ = for_each_satisfying(query, instance, fixed, |v| {
            out.push(v.clone());
            ControlFlow::Continue(())
        });
        out
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
        let vals = satisfying(&query, &i, &fixed);
        assert_eq!(vals.len(), 1);
        assert_eq!(
            vals[0].get(Variable::new("z")),
            Some(crate::Value::new("c"))
        );
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
            assert_eq!(evaluate(&query, &full), answers, "{query}");
            let step = evaluate_seminaive_step(&query, &full, &delta);
            assert_eq!(step, derived_anew, "{query}");
        }
    }

    #[test]
    fn multiway_respects_fixed_bindings() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d).").unwrap();
        let fixed = Valuation::from_names([("x", "a")]);
        let vals = satisfying(&query, &i, &fixed);
        assert_eq!(vals.len(), 1);
        assert_eq!(
            vals[0].get(Variable::new("y")),
            Some(crate::Value::new("b"))
        );
        // a pre-bound value absent from the instance prunes everything
        let absent = Valuation::from_names([("x", "zzz")]);
        assert!(satisfying(&query, &i, &absent).is_empty());
    }

    #[test]
    fn multiway_early_termination_stops_the_search() {
        let query = q("T(x, y, z) :- E(x, y), E(y, z), E(z, x).");
        let i = parse_instance("E(a, b). E(b, c). E(c, a).").unwrap();
        let mut count = 0;
        let flow = for_each_satisfying(&query, &i, &Valuation::new(), |_| {
            count += 1;
            ControlFlow::Break(())
        });
        assert_eq!(count, 1);
        assert_eq!(flow, ControlFlow::Break(()));
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
        let _ = leaves(&query, &i, None, &fixed); // builds the orders
        let mut found = Vec::new();
        let reads = values_read(|| {
            found = leaves(&query, &i, None, &fixed);
        });
        assert_eq!(found.len(), 1);
        assert!(reads < 200, "{reads} values read for one match among 2 000");
    }

    #[test]
    fn the_last_variable_of_a_triangle_reads_each_row_once() {
        // With `x` and `y` bound, `z` is the last variable and closes
        // `R(y, z)` and `R(z, x)`: each common value is one row of each
        // run, so the runs are merged — at most |run₁| + |run₂| reads, past
        // the seeks that open the pre-bound values — instead of opening
        // and closing a run per value.
        let query = q("T(x, y, z) :- R(x, y), R(y, z), R(z, x).");
        let n = 600;
        let mut text = String::new();
        for a in 0..4 {
            text += &format!("R(a{a}, b{a}). ");
            // b_a reaches every c_i with i ≡ a (mod 2), and the c_i with
            // i ≡ a (mod 3) reach a_a: runs of n/2 and n/3 rows
            text.extend(
                (0..n)
                    .filter(|i| i % 2 == a % 2)
                    .map(|i| format!("R(b{a}, c{i}). ")),
            );
            text.extend(
                (0..n)
                    .filter(|i| i % 3 == a % 3)
                    .map(|i| format!("R(c{i}, a{a}). ")),
            );
        }
        let i = parse_instance(&text).unwrap();
        let rows = i.len() as u64;
        // Four pre-bound columns, each opened by two gallops of about
        // 2·log₂(rows) + 2 reads.
        let open = 8 * (2 * u64::from(rows.ilog2()) + 2);
        for a in 0..4 {
            let fixed = Valuation::from_names([("x", &*format!("a{a}")), ("y", &*format!("b{a}"))]);
            let _ = leaves(&query, &i, None, &fixed); // builds the orders
            let mut found = Vec::new();
            let reads = values_read(|| found = leaves(&query, &i, None, &fixed));
            assert_eq!(found.len(), n / 6, "the c_i with i ≡ {a} (mod 6)");
            let runs = (n / 2 + n / 3) as u64;
            assert!(
                reads <= runs + open,
                "({a}): {reads} values read for runs of {runs} rows"
            );
        }
    }

    #[test]
    fn a_skewed_star_reads_no_more_than_opening_a_run_per_value() {
        // A hub with 1 000 spokes each way and a ring through the spokes:
        // at the last depth of most triangles one run is the hub's 1 000
        // rows and the other a spoke's 2, so the pair is leapfrogged, a
        // gallop through the long run per row of the short one, not merged.
        // It reads fewer values than the kernel that leapfrogged and opened
        // a run per common value, which read PARENT_READS here.
        const PARENT_READS: u64 = 148_386;
        let query = q("T(x, y, z) :- R(x, y), R(y, z), R(z, x).");
        let n = 1000;
        let mut text = String::new();
        for i in 0..n {
            text += &format!("R(h, s{i}). R(s{i}, h). R(s{i}, s{}). ", (i + 1) % n);
        }
        let i = parse_instance(&text).unwrap();
        assert_eq!(evaluate(&query, &i).len(), 3 * n); // builds the orders
        let reads =
            values_read(|| assert_eq!(leaves(&query, &i, None, &Valuation::new()).len(), 3 * n));
        assert!(
            reads <= PARENT_READS,
            "{reads} values read, {PARENT_READS} before"
        );
    }

    #[test]
    fn early_termination_stops_the_search() {
        let query = q("T(x) :- R(x, y).");
        let i = parse_instance("R(a, b). R(b, c). R(c, d).").unwrap();
        let mut count = 0;
        let flow = for_each_satisfying(&query, &i, &Valuation::new(), |_| {
            count += 1;
            ControlFlow::Break(())
        });
        assert_eq!(count, 1);
        assert_eq!(flow, ControlFlow::Break(()));
        // A chain's last depth reads `z` straight off the run of `R(y, z)`,
        // three rows under `y = b` for each of its three `x`: a break at any
        // leaf, in the middle of a run too, ends the enumeration after
        // exactly the leaves before it, in the order (y, x, z) gives them.
        let chain = q("T(x, z) :- R(x, y), R(y, z).");
        let compiled = CompiledQuery::new(&chain);
        let plan = TriePlan::new(&compiled, &vec![None; compiled.vars.len()], None);
        let order: Vec<Variable> = plan.depths.iter().map(|d| compiled.vars[d.slot]).collect();
        assert_eq!(order, ["y", "x", "z"].map(Variable::new));
        assert!(plan
            .depths
            .last()
            .is_some_and(|depth| depth.bind == Bind::Direct));
        let i = parse_instance("R(a, b). R(b, c). R(b, d). R(b, e). R(c, b). R(d, b).").unwrap();
        let all = satisfying(&chain, &i, &Valuation::new());
        let in_order = |v: &Valuation| -> Vec<Value> {
            order.iter().map(|&var| v.get(var).unwrap()).collect()
        };
        assert!(all.windows(2).all(|w| in_order(&w[0]) < in_order(&w[1])));
        assert_eq!(all.len(), 11);
        for k in 1..=all.len() {
            let mut seen = Vec::new();
            let flow = for_each_satisfying(&chain, &i, &Valuation::new(), |v| {
                seen.push(v.clone());
                match seen.len() == k {
                    true => ControlFlow::Break(()),
                    false => ControlFlow::Continue(()),
                }
            });
            assert_eq!(flow, ControlFlow::Break(()), "break at leaf {k}");
            assert_eq!(seen, all[..k], "break at leaf {k}");
        }
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
                let step = evaluate_seminaive_step(query, &full, &delta);
                let combined = evaluate(query, &old).union(&step);
                assert_eq!(
                    combined,
                    evaluate(query, &full),
                    "query {query}, split {split}"
                );
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
        for (delta, matches) in [
            ("R(a5, b5). S(b9, c9). Q(c11, d11).", 1),
            ("R(ha7, bh). S(bh, ch). Q(ch, hd7).", 50 * 50),
        ] {
            let delta = parse_instance(delta).unwrap();
            assert!(full.contains_all(&delta));
            for pivot in 0..3 {
                let pass = Some((pivot, &delta));
                let mut walked = leaves(&query, &full, pass, &Valuation::new()); // builds the orders
                let reads = values_read(|| {
                    walked = leaves(&query, &full, pass, &Valuation::new());
                });
                assert!(walked.len() <= matches && !walked.is_empty());
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

    fn instance(text: &str) -> Instance {
        parse_instance(text).unwrap()
    }

    /// The kernel's laws on one query over `old ∪ delta`: the leaves of a
    /// full search, free and under `fixed`, ascend in the plan's variable
    /// order; a differential pass over `delta` reaches no leaf twice; and
    /// the step completes the old evaluation. How many of the searches and
    /// of the passes had a leaf.
    fn kernel_laws(
        query: &ConjunctiveQuery,
        old: &Instance,
        delta: &Instance,
        fixed: Valuation,
        context: &str,
    ) -> (usize, usize) {
        let full = old.union(delta);
        let compiled = CompiledQuery::new(query);
        let (mut satisfied, mut stepped) = (0, 0);
        for fixed in [Valuation::new(), fixed] {
            let walked = leaves(query, &full, None, &fixed);
            let plan = TriePlan::new(&compiled, &compiled.bind(&fixed), None);
            let in_order = |leaf: &Vec<Value>| -> Vec<Value> {
                plan.depths.iter().map(|depth| leaf[depth.slot]).collect()
            };
            let ordered: Vec<Vec<Value>> = walked.iter().map(in_order).collect();
            assert!(
                ordered.windows(2).all(|pair| pair[0] < pair[1]),
                "{context}: {query} on {full} under {fixed}: {walked:?}"
            );
            satisfied += usize::from(!walked.is_empty());
        }
        for pivot in 0..query.body_size() {
            let walked = leaves(query, &full, Some((pivot, delta)), &Valuation::new());
            assert_eq!(
                walked.len(),
                walked.iter().collect::<BTreeSet<_>>().len(),
                "{context}: {query}, pivot {pivot}: a leaf twice"
            );
            stepped += usize::from(!walked.is_empty());
        }
        let step = evaluate_seminaive_step(query, &full, delta);
        assert_eq!(
            evaluate(query, old).union(&step),
            evaluate(query, &full),
            "{context}: {query}, {delta} into {old}"
        );
        (satisfied, stepped)
    }

    /// A random valuation of some of `query`'s variables over `r0`–`r4`.
    fn random_fixed(random: &mut Random, query: &ConjunctiveQuery) -> Valuation {
        let variables = CompiledQuery::new(query).variables().to_vec();
        let binding = cases::random_binding(random, variables).into_iter();
        binding
            .map(|(var, value)| (var, Value::new(&value)))
            .collect()
    }

    #[test]
    fn triejoin_leaves_ascend_once_each_on_random_queries_and_instances() {
        // The kernel's half of the random differential against the scan
        // oracle: `oracle::cases` hands both the same queries and instances.
        let mut random = Random(0x5EED_2015);
        let (mut cyclic, mut satisfied, mut stepped) = (0, 0, 0);
        for round in 0..600 {
            let query = q(&cases::random_query(&mut random));
            cyclic += usize::from(!crate::is_acyclic(&query));
            let old = instance(&cases::random_facts(&mut random, 30));
            let delta = instance(&cases::random_facts(&mut random, 8));
            let fixed = random_fixed(&mut random, &query);
            let (searches, passes) =
                kernel_laws(&query, &old, &delta, fixed, &format!("round {round}"));
            satisfied += searches;
            stepped += passes;
        }
        assert!(
            cyclic > 20 && satisfied > 200 && stepped > 200,
            "{cyclic} cyclic queries, {satisfied} searches and {stepped} passes with a leaf"
        );
        // The cyclic shapes whose last variable closes two or three atoms
        // at once, and one whose last variable repeats inside an atom, on
        // uniform and on skewed instances, where one last-depth run is
        // often many times the other.
        let mut last = BTreeSet::new();
        for text in CYCLIC_SHAPES {
            let query = q(text);
            for skewed in [false, true] {
                let mut satisfied = 0;
                for round in 0..8 {
                    let old = instance(&cases::binary_facts(&mut random, skewed, 300));
                    let delta = instance(&cases::binary_facts(&mut random, skewed, 20));
                    let fixed = random_fixed(&mut random, &query);
                    let context = format!("skewed {skewed}, round {round}");
                    satisfied += kernel_laws(&query, &old, &delta, fixed, &context).0;
                }
                assert!(
                    satisfied > 4,
                    "{query}, skewed {skewed}: {satisfied} searches with a leaf"
                );
            }
            let compiled = CompiledQuery::new(&query);
            let plan = TriePlan::new(&compiled, &vec![None; compiled.vars.len()], None);
            let depth = plan.depths.last().unwrap();
            last.insert((depth.bind == Bind::Last, depth.atoms.len()));
        }
        assert_eq!(
            last,
            BTreeSet::from([(true, 2), (true, 3), (false, 2)]),
            "the shapes close two atoms, three, and an atom twice"
        );
    }

    /// `instance` with every value replaced by an opaque one, as a worker
    /// holds it: `rK`, a value of `oracle::cases`, by id `K`, the id it has
    /// where it was interned first; any other value by its id here.
    fn opaque(instance: &Instance) -> Instance {
        let id = |value: &Value| match value.as_str().strip_prefix('r').map(str::parse) {
            Some(Ok(k)) => k,
            _ => value.id(),
        };
        Instance::from_facts(instance.facts().map(|fact| {
            let values = fact.values.iter().map(|v| Value::opaque(id(v)).unwrap());
            Fact::new(fact.relation, values.collect::<Tuple>())
        }))
    }

    /// The answers of `query` on `full` — a whole evaluation, or with a
    /// `delta` the semi-naive step — collected in a dense set where one
    /// fits and `dense` allows it, else in the hashed one; whether the
    /// dense set collected them; and how many valuations the set counted.
    fn collected(
        query: &ConjunctiveQuery,
        full: &Instance,
        delta: Option<&Instance>,
        dense: bool,
    ) -> (Instance, bool, u64) {
        let compiled = CompiledQuery::new(query);
        let passes = match delta {
            None => compiled.passes(full, [None]),
            Some(delta) => compiled.passes(full, pivots(query, delta)),
        };
        // Without passes to size it by, no dense set fits.
        let sized_by = if dense { &passes[..] } else { &[] };
        let mut answers = Answers::new(&compiled, delta.is_none(), sized_by);
        let ran = matches!(answers.collected, Collected::Dense(_));
        for pass in &passes {
            let _ = compiled.run(pass, vec![None; compiled.vars.len()], &mut answers);
        }
        let valuations = answers.valuations;
        (answers.finish(), ran, valuations)
    }

    /// The dense set's answers on `query` over `old ∪ delta`, whole and by
    /// the step, are the hashed set's, and both count the leaves the
    /// searches reach one at a time; how many of the two it collected.
    fn dense_is_hashed(query: &ConjunctiveQuery, old: &Instance, delta: &Instance) -> usize {
        let full = old.union(delta);
        let mut ran = 0;
        for delta in [None, Some(delta)] {
            let searches: Vec<_> = match delta {
                None => vec![None],
                Some(delta) => pivots(query, delta).collect(),
            };
            let reached = searches.into_iter().map(|pivot| {
                let leaves = leaves(query, &full, pivot, &Valuation::new());
                leaves.len() as u64
            });
            let reached = reached.sum();
            let (dense, was_dense, dense_count) = collected(query, &full, delta, true);
            let (hashed, was_hashed, hashed_count) = collected(query, &full, delta, false);
            assert!(!was_hashed);
            assert_eq!(dense, hashed, "{query} on {full}, delta {delta:?}");
            assert_eq!(
                (dense_count, hashed_count),
                (reached, reached),
                "{query} on {full}, delta {delta:?}"
            );
            ran += usize::from(was_dense);
        }
        assert_eq!(
            collected(query, &full, None, true).0,
            evaluate(query, &full)
        );
        ran
    }

    /// Where the last slot of `query`'s plan sits in its head, when the
    /// slot's values are read straight off a run: `outside`, the `first`
    /// head value, the `second` or `both`.
    fn last_run_in_head(query: &ConjunctiveQuery) -> Option<&'static str> {
        let compiled = CompiledQuery::new(query);
        let plan = TriePlan::new(&compiled, &vec![None; compiled.vars.len()], None);
        let depth = plan
            .depths
            .last()
            .filter(|depth| depth.bind == Bind::Direct)?;
        let head = compiled.head().iter();
        let at: Vec<bool> = head.map(|&slot| slot == depth.slot).collect();
        Some(match at[..] {
            [true] | [true, false] => "first",
            [false, true] => "second",
            [true, true] => "both",
            _ => "outside",
        })
    }

    #[test]
    fn dense_answer_sets_equal_hashed_ones_on_named_and_opaque_ids() {
        // Whether a named range fits depends on what else this process
        // interned in between; the opaque ids are as compact as a worker's.
        let mut random = Random(0xD0E5_2015);
        let mut ran = 0;
        for _ in 0..300 {
            let query = q(&cases::random_query(&mut random));
            let old = instance(&cases::random_facts(&mut random, 30));
            let delta = instance(&cases::random_facts(&mut random, 8));
            dense_is_hashed(&query, &old, &delta);
            ran += dense_is_hashed(&query, &opaque(&old), &opaque(&delta));
        }
        assert!(ran > 200, "the dense set collected {ran} times");
        let mut runs = BTreeSet::new();
        for text in NARROW_HEADS {
            let query = q(text);
            for skewed in [false, true] {
                let mut ran = 0;
                for _ in 0..4 {
                    let old = instance(&cases::binary_facts(&mut random, skewed, 300));
                    let delta = instance(&cases::binary_facts(&mut random, skewed, 20));
                    dense_is_hashed(&query, &old, &delta);
                    ran += dense_is_hashed(&query, &opaque(&old), &opaque(&delta));
                }
                assert_eq!(ran, 8, "{query}, skewed {skewed}");
            }
            runs.extend(last_run_in_head(&query));
        }
        assert_eq!(
            runs,
            BTreeSet::from(["both", "first", "outside", "second"]),
            "the heads a last-depth run lands in"
        );
    }

    /// The words of the dense set `query` gets on `instance`, if one fits.
    fn dense_words(query: &str, instance: &Instance) -> Option<usize> {
        let query = q(query);
        let compiled = CompiledQuery::new(&query);
        Dense::fit(&compiled, &compiled.passes(instance, [None])).map(|dense| dense.bits.len())
    }

    #[test]
    fn a_dense_set_fits_up_to_one_word_a_row_or_the_floor() {
        let id = |id: u32| Value::opaque(id).unwrap();
        let unary =
            |ids: &[u32]| Instance::from_facts(ids.iter().map(|&i| Fact::new("U", vec![id(i)])));
        // Two rows: the floor decides. A range of 64 · 4 096 ids is exactly
        // the floor; one id more takes a word more.
        let floor = 64 * DENSE_FLOOR_WORDS as u32;
        let at = unary(&[7, 7 + floor - 1]);
        assert_eq!(dense_words("T(x) :- U(x).", &at), Some(DENSE_FLOOR_WORDS));
        let past = unary(&[7, 7 + floor]);
        assert_eq!(dense_words("T(x) :- U(x).", &past), None);
        for instance in [at, past] {
            let (answers, ..) = collected(&q("T(x) :- U(x), U(x)."), &instance, None, true);
            assert_eq!(
                answers,
                instance
                    .facts()
                    .map(|f| Fact::new("T", f.values.clone()))
                    .collect()
            );
        }
        // 8 192 rows: as many words, whatever the floor. The order's range
        // spans both columns.
        let rows = 2 * DENSE_FLOOR_WORDS as u32;
        let edges = |last: u32| {
            let ids = (0..rows - 1).chain([last]);
            Instance::from_facts(ids.map(|i| Fact::new("R", vec![id(i), id(0)])))
        };
        let at = edges(64 * rows - 1);
        assert_eq!(dense_words("T(x) :- R(x, y).", &at), Some(rows as usize));
        let past = edges(64 * rows);
        assert_eq!(dense_words("T(x) :- R(x, y).", &past), None);
        for instance in [at, past] {
            let query = q("T(x) :- R(x, y).");
            assert_eq!(
                collected(&query, &instance, None, true).0,
                collected(&query, &instance, None, false).0
            );
        }
        // A binary head: the product of the two ranges.
        let square = Instance::from_facts((0..64).map(|i| Fact::new("R", vec![id(i), id(63 - i)])));
        assert_eq!(
            dense_words("T(y, x) :- R(x, y), R(y, x).", &square),
            Some(64)
        );
        // No head value: one bit, for the one answer there may be.
        assert_eq!(dense_words("T() :- R(x, y), R(y, x).", &square), Some(1));
    }

    #[test]
    fn a_mixed_opaque_and_named_range_keeps_the_hashed_set() {
        // Names no other test interns, parsed in one batch: consecutive ids.
        let named = instance("R(mix_a, mix_b). R(mix_b, mix_c). R(mix_c, mix_a). R(mix_a, mix_a).");
        let mixed = named.union(&opaque(&instance("R(mix_b, mix_c). R(mix_c, mix_d).")));
        let query = "T(x, z) :- R(x, y), R(y, z).";
        assert!(dense_words(query, &named).is_some());
        assert!(dense_words(query, &opaque(&named)).is_some());
        assert_eq!(dense_words(query, &mixed), None);
        let query = q(query);
        let (answers, dense, _) = collected(&query, &mixed, None, true);
        assert!(!dense);
        assert_eq!(answers, collected(&query, &mixed, None, false).0);
        assert!(answers
            .facts()
            .any(|f| f.values.iter().any(|v| v.symbol().is_opaque())));
    }

    #[test]
    fn a_one_fact_delta_over_a_large_instance_is_collected_by_its_own_rows() {
        // A step is bounded by the rows of its deltas, not of the instance
        // it grows: over 60 values the step's set fits the floor, over a
        // path through 3 000 values it does not, and either way the step
        // completes the old evaluation.
        let two_path = q("T(x, z) :- R(x, y), R(y, z).");
        let value = |i: usize| Value::opaque(i as u32).unwrap();
        let edge = |(i, j): (usize, usize)| Fact::new("R", vec![value(i), value(j)]);
        let dense_graph = (0..60).flat_map(|i| (1..30).map(move |k| (i, (i + k * k) % 60)));
        let path = (0..2_999).map(|i| (i, i + 1));
        for (old, new, dense) in [
            (Instance::from_facts(dense_graph.map(edge)), (59, 0), true),
            (Instance::from_facts(path.map(edge)), (2_999, 0), false),
        ] {
            let delta = Instance::from_facts([edge(new)]);
            let full = old.union(&delta);
            let (step, was_dense, _) = collected(&two_path, &full, Some(&delta), true);
            assert_eq!(was_dense, dense, "{} facts", old.len());
            assert_eq!(step, collected(&two_path, &full, Some(&delta), false).0);
            assert_eq!(step, evaluate_seminaive_step(&two_path, &full, &delta));
            assert_eq!(
                evaluate(&two_path, &old).union(&step),
                evaluate(&two_path, &full)
            );
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
