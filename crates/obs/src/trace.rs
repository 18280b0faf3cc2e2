//! The tracing half: a process-global span recorder with per-thread
//! buffers.
//!
//! ## Lifecycle
//!
//! The coordinator calls [`start_trace`], runs the workload, and calls
//! [`end_trace`] to collect the merged, time-sorted event list. Worker
//! processes never start a trace themselves: they call [`adopt_trace`]
//! with the trace id and coordinator clock carried in the wire
//! protocol's trace context, record spans locally, and hand their
//! buffered events back via [`take_events`] (the transport ships them in
//! a `TraceFlush` frame); the coordinator injects them with
//! [`submit_events`].
//!
//! ## Recording
//!
//! Each thread records into its own bounded buffer (a full buffer drops
//! new events and counts them in [`dropped_events`] rather than growing
//! without bound) and maintains its own stack of open spans, which is
//! what gives every event a parent id without cross-thread
//! coordination. That stack is the one parent rule: an event's parent is
//! the innermost span open on the thread that records it. A thread that
//! works for a span of another thread or process — a pool thread, a wire
//! driver thread, a worker process serving one frame — first [`enter`]s
//! that span, so the rule holds across the hand-off.
//!
//! The registry of buffers holds each one strongly, so draining reads
//! every thread's events, an exited thread's included, and
//! only then prunes the buffers whose threads are gone — it does *not*
//! depend on thread-exit destructors, which `std::thread::scope` is
//! allowed to leave running slightly past the join. The per-event cost
//! while enabled is one uncontended mutex lock on the thread's own
//! buffer.
//!
//! ## Disabled cost
//!
//! With no active trace, [`span`], [`instant_args`] and [`enter`] return
//! immediately after one relaxed atomic load, argument closures are never
//! invoked, and the returned guard's `Drop` is a branch on an id.
//! `tests/trace_observability.rs::disabled_tracing_costs_under_two_percent_of_a_closure_run`
//! pins this overhead below 2%.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a [`TraceEvent`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_us..ts_us + dur_us`.
    Span,
    /// A point-in-time event (`dur_us` is 0).
    Instant,
}

/// One recorded event: the unit the exporter and the summarizer consume,
/// and the unit `TraceFlush` frames carry across processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span or instant name (a static site name like `"eval_round"`).
    pub name: String,
    /// Span vs instant.
    pub kind: EventKind,
    /// Start timestamp, microseconds on the trace clock.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Process lane: 0 = coordinator; [`submit_events`] moves worker
    /// `k`'s events to lane `k + 1`.
    pub pid: u32,
    /// Thread lane within the process (assigned per thread, from 1).
    pub tid: u64,
    /// Span id (unique per process; instants reuse their parent's id).
    pub id: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    /// Optional key/value arguments.
    pub args: Vec<(String, String)>,
}

/// Active trace id; 0 means tracing is off — the whole fast path.
static TRACE_ID: AtomicU64 = AtomicU64::new(0);
/// Added to the local monotonic clock so worker timestamps land on the
/// coordinator's timeline (set by [`adopt_trace`]).
static CLOCK_OFFSET_US: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Events recorded elsewhere and handed in by [`submit_events`].
static COLLECTOR: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// Every thread's buffer, held strongly so draining never depends on
/// thread-exit timing: a buffer whose thread has exited is read by the
/// next drain and pruned after it.
static BUFFERS: Mutex<Vec<Arc<Mutex<BufInner>>>> = Mutex::new(Vec::new());

/// Per-thread buffer cap; beyond it new events are dropped (and counted)
/// instead of growing the buffer without bound.
const LOCAL_CAPACITY: usize = 1 << 16;

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Span ids must not collide between the coordinator and its worker
/// processes (events merge into one trace), so the per-process counter
/// is tagged with the OS process id in the high bits.
fn next_span_id() -> u64 {
    (u64::from(std::process::id()) << 40) | (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & 0xff_ffff)
}

/// The shareable half of a thread's recording state: the drainer locks
/// this from another thread, so it holds only what draining needs.
struct BufInner {
    /// The trace id these events belong to; a drainer for a different
    /// trace clears instead of collecting.
    trace: u64,
    events: Vec<TraceEvent>,
}

impl BufInner {
    fn push(&mut self, trace: u64, event: TraceEvent) {
        if self.trace != trace {
            // First event of a new trace: drop anything stale.
            self.trace = trace;
            self.events.clear();
        }
        if self.events.len() >= LOCAL_CAPACITY {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.events.push(event);
    }
}

/// The thread-local half: the open-span stack is owner-only, the inner
/// buffer is shared with drainers via [`BUFFERS`].
struct LocalBuf {
    inner: Arc<Mutex<BufInner>>,
    tid: u64,
    /// Trace id the stack belongs to (stale stacks reset on first use).
    stack_trace: u64,
    stack: Vec<u64>,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        let inner = Arc::new(Mutex::new(BufInner {
            trace: 0,
            events: Vec::new(),
        }));
        BUFFERS
            .lock()
            .expect("trace buffer registry poisoned")
            .push(inner.clone());
        LocalBuf {
            inner,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack_trace: 0,
            stack: Vec::new(),
        }
    }

    fn sync_stack(&mut self, trace: u64) {
        if self.stack_trace != trace {
            self.stack_trace = trace;
            self.stack.clear();
        }
    }

    /// Closes `id` on the stack; out-of-order drops (guards stored in
    /// structs) just unwind to the surviving ancestor.
    fn close(&mut self, id: u64) {
        if let Some(at) = self.stack.iter().rposition(|&open| open == id) {
            self.stack.truncate(at);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

/// Runs `f` on the thread's buffer; a no-op when the thread-local is
/// already torn down (guards dropped during thread destruction).
fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> Option<R> {
    LOCAL.try_with(|local| f(&mut local.borrow_mut())).ok()
}

/// True when a trace is active. One relaxed load — the entire cost of
/// every disabled span site.
#[inline]
pub fn enabled() -> bool {
    TRACE_ID.load(Ordering::Relaxed) != 0
}

/// The active trace id (0 = none): what the transports stamp into wire
/// trace contexts.
#[inline]
pub fn current_trace() -> u64 {
    TRACE_ID.load(Ordering::Relaxed)
}

/// Microseconds on the trace clock: monotonic within the process, offset
/// onto the coordinator's timeline in adopted (worker) processes.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64 + CLOCK_OFFSET_US.load(Ordering::Relaxed)
}

/// Starts a new trace and returns its (non-zero) id, clearing anything a
/// previous trace left in the collector.
pub fn start_trace() -> u64 {
    // splitmix64 over pid + elapsed nanos: unique enough across the
    // processes of one run without any randomness dependency.
    let seed = ((u64::from(std::process::id()) << 32) ^ epoch().elapsed().as_nanos() as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut id = seed;
    id = (id ^ (id >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    id = (id ^ (id >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    id ^= id >> 31;
    let id = id.max(1);
    COLLECTOR.lock().expect("trace collector poisoned").clear();
    DROPPED.store(0, Ordering::Relaxed);
    CLOCK_OFFSET_US.store(0, Ordering::Relaxed);
    TRACE_ID.store(id, Ordering::Relaxed);
    id
}

/// Joins a trace started by another process (the coordinator):
/// `clock_us` is the coordinator's [`now_us`] at send time, used to
/// offset this process's monotonic clock onto the shared timeline.
pub fn adopt_trace(trace_id: u64, clock_us: u64) {
    if trace_id == 0 {
        return;
    }
    let local_us = epoch().elapsed().as_micros() as u64;
    CLOCK_OFFSET_US.store(clock_us.saturating_sub(local_us), Ordering::Relaxed);
    COLLECTOR.lock().expect("trace collector poisoned").clear();
    DROPPED.store(0, Ordering::Relaxed);
    TRACE_ID.store(trace_id, Ordering::Relaxed);
}

/// Ends the active trace and returns every collected event, sorted by
/// timestamp. Subsequent span sites are no-ops again.
pub fn end_trace() -> Vec<TraceEvent> {
    let trace = TRACE_ID.swap(0, Ordering::Relaxed);
    let mut events = drain(trace);
    events.sort_by_key(|e| (e.ts_us, e.id));
    events
}

/// Drains everything recorded so far *without* ending the trace — the
/// worker side of a barrier flush.
pub fn take_events() -> Vec<TraceEvent> {
    drain(TRACE_ID.load(Ordering::Relaxed))
}

/// Collects the events of `trace` from every thread buffer plus the
/// collector, then prunes the buffers of exited threads: the registry's
/// is the last reference to them.
fn drain(trace: u64) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    if trace != 0 {
        let mut buffers = BUFFERS.lock().expect("trace buffer registry poisoned");
        buffers.retain(|buffer| {
            let mut inner = buffer.lock().expect("trace buffer poisoned");
            if inner.trace == trace {
                out.append(&mut inner.events);
            }
            Arc::strong_count(buffer) > 1
        });
    }
    let mut collector = COLLECTOR.lock().expect("trace collector poisoned");
    out.append(&mut collector);
    out
}

/// Injects the events worker `worker` flushed, recorded on lane 0, into
/// this process's collector on lane `worker + 1`, so [`end_trace`] returns
/// one merged timeline that keeps the processes apart.
pub fn submit_events(worker: usize, mut events: Vec<TraceEvent>) {
    if events.is_empty() {
        return;
    }
    let pid = (worker + 1) as u32;
    for event in &mut events {
        if event.pid == 0 {
            event.pid = pid;
        }
    }
    let mut collector = COLLECTOR.lock().expect("trace collector poisoned");
    collector.extend(events);
}

/// The display label for a process lane: lane 0 is the coordinator, lane
/// `k + 1` worker `k` (see [`submit_events`]).
pub(crate) fn process_label(pid: u32) -> String {
    match pid {
        0 => "coordinator".to_string(),
        lane => format!("worker {}", lane - 1),
    }
}

/// Events dropped because a thread buffer was full (0 in healthy runs).
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// The innermost open span id on the calling thread (0 when none is open
/// or tracing is off) — what a transport stamps into an outgoing trace
/// context as the remote parent.
pub fn current_span() -> u64 {
    let trace = TRACE_ID.load(Ordering::Relaxed);
    if trace == 0 {
        return 0;
    }
    with_local(|local| {
        local.sync_stack(trace);
        local.stack.last().copied().unwrap_or(0)
    })
    .unwrap_or(0)
}

/// An open span. Dropping it records the completed event; the guard from
/// a disabled site is inert.
#[must_use = "a span measures the scope holding it; dropping it immediately records nothing useful"]
pub struct Span {
    name: &'static str,
    trace: u64,
    id: u64,
    parent: u64,
    start_us: u64,
    args: Vec<(String, String)>,
}

impl Span {
    fn noop(name: &'static str) -> Span {
        Span {
            name,
            trace: 0,
            id: 0,
            parent: 0,
            start_us: 0,
            args: Vec::new(),
        }
    }

    /// The span id (0 when tracing is disabled) — what wire trace
    /// contexts carry as the remote parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds an argument only known once the work is done (how many facts
    /// a merge added); a disabled site's guard ignores it for free.
    pub fn arg(&mut self, key: &str, value: impl ToString) {
        if self.trace != 0 {
            self.args.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.trace == 0 || TRACE_ID.load(Ordering::Relaxed) != self.trace {
            return;
        }
        let dur_us = now_us().saturating_sub(self.start_us);
        with_local(|local| {
            local.sync_stack(self.trace);
            local.close(self.id);
            let event = TraceEvent {
                name: self.name.to_string(),
                kind: EventKind::Span,
                ts_us: self.start_us,
                dur_us,
                pid: 0,
                tid: local.tid,
                id: self.id,
                parent: self.parent,
                args: std::mem::take(&mut self.args),
            };
            let mut inner = local.inner.lock().expect("trace buffer poisoned");
            inner.push(self.trace, event);
        });
    }
}

/// Opens a span with no arguments. Prefer the [`span!`](crate::span!)
/// macro, which also skips argument construction when disabled.
pub fn span(name: &'static str) -> Span {
    span_args(name, Vec::new)
}

/// Opens a span whose arguments are built lazily — `args` runs only when
/// a trace is active.
pub fn span_args(name: &'static str, args: impl FnOnce() -> Vec<(String, String)>) -> Span {
    let trace = TRACE_ID.load(Ordering::Relaxed);
    if trace == 0 {
        return Span::noop(name);
    }
    let args = args();
    let id = next_span_id();
    let start_us = now_us();
    let parent = with_local(|local| {
        local.sync_stack(trace);
        let parent = local.stack.last().copied().unwrap_or(0);
        local.stack.push(id);
        parent
    })
    .unwrap_or(0);
    Span {
        name,
        trace,
        id,
        parent,
        start_us,
        args,
    }
}

/// Records a span that is already over: it took `elapsed` and ended just
/// now, under the calling thread's innermost span. For work done before the
/// process can know whether it is traced — a worker decodes the very frame
/// that carries the trace context. `args` runs only when a trace is active.
pub fn span_ended(
    name: &'static str,
    elapsed: std::time::Duration,
    args: impl FnOnce() -> Vec<(String, String)>,
) {
    let mut span = span_args(name, args);
    let elapsed = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    span.start_us = span.start_us.saturating_sub(elapsed);
}

/// The guard of [`enter`]; inert from a disabled site.
#[must_use = "the span is entered only while the guard lives"]
pub struct Entered(u64);

/// Makes `span`, open on the thread or in the process that handed this
/// thread its work, the innermost open span of the calling thread until
/// the guard drops: the parent of every span and instant the thread opens
/// meanwhile. With tracing off (or `span` 0) it costs one relaxed load.
pub fn enter(span: u64) -> Entered {
    let trace = TRACE_ID.load(Ordering::Relaxed);
    if trace == 0 || span == 0 {
        return Entered(0);
    }
    with_local(|local| {
        local.sync_stack(trace);
        local.stack.push(span);
    });
    Entered(span)
}

impl Drop for Entered {
    fn drop(&mut self) {
        if self.0 != 0 {
            with_local(|local| local.close(self.0));
        }
    }
}

/// Records a point-in-time event under the current span; `args` runs
/// only when a trace is active. Prefer the [`instant!`](crate::instant!)
/// macro.
pub fn instant_args(name: &'static str, args: impl FnOnce() -> Vec<(String, String)>) {
    let trace = TRACE_ID.load(Ordering::Relaxed);
    if trace == 0 {
        return;
    }
    let ts_us = now_us();
    let args = args();
    with_local(|local| {
        local.sync_stack(trace);
        let parent = local.stack.last().copied().unwrap_or(0);
        let event = TraceEvent {
            name: name.to_string(),
            kind: EventKind::Instant,
            ts_us,
            dur_us: 0,
            pid: 0,
            tid: local.tid,
            id: parent,
            parent,
            args,
        };
        let mut inner = local.inner.lock().expect("trace buffer poisoned");
        inner.push(trace, event);
    });
}

/// Opens a [`Span`] guard: `obs::span!("eval_round")` or
/// `obs::span!("eval_round", node = node, round = i)`. Argument
/// expressions are evaluated (via `ToString`) only while a trace is
/// active.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span_args($name, || {
            vec![$((stringify!($key).to_string(), $value.to_string())),+]
        })
    };
}

/// Records an instant event: `obs::instant!("requeue", node = node)`.
/// Argument expressions are evaluated only while a trace is active.
#[macro_export]
macro_rules! instant {
    ($name:expr) => {
        $crate::instant_args($name, Vec::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::instant_args($name, || {
            vec![$((stringify!($key).to_string(), $value.to_string())),+]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The recorder is process-global; tests that start traces must not
    /// overlap.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_sites_record_nothing_and_skip_args() {
        let _gate = serial();
        assert!(!enabled());
        let evaluated = std::cell::Cell::new(false);
        {
            let _span = span_args("quiet", || {
                evaluated.set(true);
                vec![]
            });
            crate::instant!("quiet_instant", x = 1);
            span("quiet_late").arg("new", 1);
            let _entered = enter(5);
            assert_eq!(current_span(), 0, "a disabled enter seeds nothing");
        }
        assert!(!evaluated.get(), "args must not be built when disabled");
        start_trace();
        assert!(end_trace().is_empty());
    }

    #[test]
    fn spans_nest_via_parent_ids_and_timestamps() {
        let _gate = serial();
        start_trace();
        {
            let outer = crate::span!("outer");
            let outer_id = outer.id();
            {
                let mut inner = crate::span!("inner", node = "n0");
                assert_ne!(inner.id(), outer_id);
                crate::instant!("tick");
                inner.arg("new", 3);
            }
        }
        let events = end_trace();
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let tick = events.iter().find(|e| e.name == "tick").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(tick.parent, inner.id);
        assert_eq!(tick.kind, EventKind::Instant);
        let args = [("node", "n0"), ("new", "3")].map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(inner.args, args);
        // Temporal containment: the inner span lies within the outer.
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
    }

    #[test]
    fn an_ended_span_is_recorded_backdated_under_its_parent() {
        let _gate = serial();
        let evaluated = std::cell::Cell::new(false);
        span_ended("late", std::time::Duration::from_millis(3), || {
            evaluated.set(true);
            vec![]
        });
        assert!(!evaluated.get(), "nothing is recorded while disabled");
        start_trace();
        std::thread::sleep(std::time::Duration::from_millis(4));
        let before = now_us();
        {
            let _entered = enter(7);
            span_ended("late", std::time::Duration::from_millis(3), || {
                vec![("facts".to_string(), "9".to_string())]
            });
            assert_eq!(current_span(), 7, "it leaves no span open");
        }
        let events = end_trace();
        assert_eq!(events.len(), 1);
        let late = &events[0];
        assert_eq!((late.name.as_str(), late.parent), ("late", 7));
        assert_eq!(late.args, vec![("facts".to_string(), "9".to_string())]);
        assert!(
            late.dur_us >= 3000 && late.ts_us <= before - 2900,
            "{late:?}"
        );
    }

    #[test]
    fn scoped_threads_are_drained_without_relying_on_tls_teardown() {
        let _gate = serial();
        start_trace();
        {
            let _s = crate::span!("main_side");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _s = crate::span!("thread_side");
                    });
                }
            });
        }
        let events = end_trace();
        assert_eq!(events.iter().filter(|e| e.name == "thread_side").count(), 2);
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "three threads, three lanes: {events:?}");
    }

    #[test]
    fn a_thread_that_enters_a_span_records_under_it_and_leaves_it() {
        let _gate = serial();
        start_trace();
        {
            let handed = crate::span!("handed");
            let id = handed.id();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    {
                        let _entered = enter(id);
                        assert_eq!(current_span(), id);
                        let _s = crate::span!("pooled");
                        crate::instant!("tick");
                    }
                    assert_eq!(current_span(), 0, "the guard leaves the stack as it was");
                    let _s = crate::span!("after");
                });
            });
        }
        let events = end_trace();
        let find = |name: &str| events.iter().find(|e| e.name == name).unwrap();
        let (handed, pooled) = (find("handed"), find("pooled"));
        assert_ne!(handed.tid, pooled.tid);
        assert_eq!(pooled.parent, handed.id);
        assert_eq!(find("tick").parent, pooled.id);
        assert_eq!(find("after").parent, 0);
    }

    #[test]
    fn adopted_traces_offset_onto_the_coordinator_clock() {
        let _gate = serial();
        // Pretend the coordinator clock is far ahead of ours.
        let far_ahead = now_us() + 5_000_000;
        adopt_trace(42, far_ahead);
        assert_eq!(current_trace(), 42);
        let worker_span = crate::span!("worker_side");
        drop(worker_span);
        let events = end_trace();
        assert!(events[0].ts_us >= far_ahead, "{events:?}");
        // Reset the offset for later tests.
        CLOCK_OFFSET_US.store(0, Ordering::Relaxed);
    }

    #[test]
    fn submitted_events_merge_time_sorted() {
        let _gate = serial();
        start_trace();
        {
            let _s = crate::span!("local");
        }
        let remote = TraceEvent {
            name: "remote".to_string(),
            kind: EventKind::Span,
            ts_us: 0,
            dur_us: 1,
            pid: 0,
            tid: 1,
            id: 7,
            parent: 0,
            args: vec![],
        };
        submit_events(1, vec![remote]);
        let events = end_trace();
        assert_eq!(events.first().map(|e| e.name.as_str()), Some("remote"));
        assert_eq!(events[0].pid, 2, "worker 1's events land on lane 2");
        assert_eq!(process_label(events[0].pid), "worker 1");
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn full_buffers_drop_and_count_instead_of_growing() {
        let _gate = serial();
        start_trace();
        for _ in 0..(LOCAL_CAPACITY + 10) {
            crate::instant!("flood");
        }
        assert_eq!(dropped_events(), 10);
        let events = end_trace();
        assert_eq!(events.len(), LOCAL_CAPACITY);
    }

    #[test]
    fn take_events_keeps_the_trace_alive() {
        let _gate = serial();
        start_trace();
        {
            let _s = crate::span!("first");
        }
        let first = take_events();
        assert_eq!(first.len(), 1);
        assert!(enabled(), "take_events must not end the trace");
        {
            let _s = crate::span!("second");
        }
        let rest = end_trace();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].name, "second");
    }

    #[test]
    fn span_ids_carry_the_process_tag() {
        let pid_tag = u64::from(std::process::id()) << 40;
        assert_eq!(next_span_id() & !0xff_ffff, pid_tag);
    }
}
