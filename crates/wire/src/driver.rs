//! The wire transport: one pipelined driver over worker endpoints.
//!
//! [`WireTransport`] is the crate's one [`distribution::Transport`]. How
//! its workers are reached — stdio pipes of spawned subprocesses
//! ([`WireTransport::spawn_pipes`]) or loopback TCP connections
//! ([`WireTransport::spawn_sockets`]) — is decided by the constructor and
//! invisible afterwards: an [`Endpoint`] is a writer/reader pair. The
//! transport owns the node→worker assignment map (dealt round-robin on
//! first sight from a **persistent** cursor, so nodes introduced in later
//! rounds keep spreading across the whole pool), the per-worker job
//! queues, and the barrier driver that keeps up to `window` eval jobs in
//! flight per worker:
//!
//! ```text
//!               writer thread                     reader (barrier thread)
//!   jobs ──▶ gate.acquire ──▶ frame ──▶ pipe ──▶ reply₀, reply₁, …  ──▶ gate.release
//!                 ▲                                (in job order)            │
//!                 └────────────── bounded window (backpressure) ◀───────────┘
//! ```
//!
//! The writer streams frames ahead of the replies instead of the old
//! write-one-read-one lock step; the window bounds how far ahead it may
//! run (window 1 reproduces lock step exactly). Replies arrive in job
//! order because every worker processes its stream sequentially, so the
//! reader can attribute them without sequence numbers. Both request and
//! reply payload frames are counted toward `bytes_shipped` — the honest
//! bidirectional communication volume (round-control frames are O(1) per
//! round and excluded).
//!
//! **One id space.** A data value crosses a worker connection as the
//! coordinator's [`cq::Symbol::id`], in both directions, and never by name
//! (see [`crate::codec`]): a request needs no earlier frame to be read, and
//! a reply's ids are checked against the coordinator's interner. The few
//! *names* a run has — relations, variables, nodes — go through the two
//! dictionary halves every [`Endpoint`] owns: the [`Encoder`] its request
//! frames are written through and the [`Dictionary`] its reply frames are
//! read through, so a name crosses a connection once per direction. A job
//! is encoded when it is written, against the dictionary of the worker it
//! is written to; the dictionaries die with the connection, so a requeued
//! job simply carries its names again on the survivor's, and a frame that
//! fails to decode leaves the endpoint dead like any other protocol error.
//!
//! **Fault tolerance.** When a worker dies mid-round (broken pipe, closed
//! socket, crash), the driver marks it dead, reaps its process, and
//! requeues the jobs the worker never answered onto the survivors via the
//! assignment map. Full chunks are stateless and requeue as-is; a delta
//! job's per-node state died with the worker, so the coordinator keeps a
//! ledger of every delta it shipped (`shipped_state`) and converts the
//! requeued job into a round-0 **state rebuild** carrying the node's full
//! accumulated input. The rebuilt node re-derives outputs it had already
//! shipped — harmless for the fixpoint (the engine unions results and
//! deduplicates deltas) — and later rounds go back to shipping plain
//! deltas. With fault tolerance off, the first worker failure surfaces as
//! the round's `TransportError`.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::Child;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cq::{ConjunctiveQuery, EvalOptions, Instance};
use distribution::{Node, NodeResult, Shipment, Transport, TransportError};
use obs::TraceEvent;

use crate::codec::{decode_body_with, DecodeError, Dictionary, Encoder};
use crate::frame::{encode_frame_with, read_body, write_frame};
use crate::message::{EvalRef, Message, TraceContext};

/// Default number of jobs the writer may run ahead of the replies.
const DEFAULT_WINDOW: usize = 8;

/// Default bound on how long `Drop` waits for a worker to exit after
/// `Shutdown` before killing it.
const DEFAULT_SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How many bytes of a worker's stderr the coordinator keeps (the tail —
/// the last lines are the ones that explain a crash).
const STDERR_TAIL_LIMIT: usize = 8 * 1024;

/// How long [`StderrTail::tail`] waits for the reader thread to hit EOF
/// before settling for whatever has arrived so far. A dead worker's
/// stderr pipe closes almost immediately after its stdout does, so this
/// bound only matters for protocol errors from a still-live worker.
const STDERR_TAIL_WAIT: Duration = Duration::from_millis(500);

struct StderrTailInner {
    buf: Mutex<String>,
    /// Set once the reader thread sees EOF (worker exited).
    done: std::sync::atomic::AtomicBool,
}

/// The bounded tail of one spawned worker's stderr stream, filled by a
/// detached reader thread. Without this, a worker that panics before its
/// first reply takes its diagnostics to the grave: `spawn` pipes stderr
/// into the coordinator, and nobody used to read it.
#[derive(Clone)]
pub(crate) struct StderrTail {
    inner: Arc<StderrTailInner>,
}

impl StderrTail {
    /// Spawns a detached thread that drains `stream` into a bounded
    /// buffer until EOF.
    pub(crate) fn capture(mut stream: impl Read + Send + 'static) -> StderrTail {
        let inner = Arc::new(StderrTailInner {
            buf: Mutex::new(String::new()),
            done: std::sync::atomic::AtomicBool::new(false),
        });
        let shared = inner.clone();
        std::thread::spawn(move || {
            let mut chunk = [0u8; 4096];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        let mut buf = shared.buf.lock().expect("stderr tail poisoned");
                        buf.push_str(&String::from_utf8_lossy(&chunk[..n]));
                        if buf.len() > STDERR_TAIL_LIMIT {
                            let cut = buf.len() - STDERR_TAIL_LIMIT;
                            let cut = (cut..buf.len())
                                .find(|&i| buf.is_char_boundary(i))
                                .unwrap_or(buf.len());
                            buf.drain(..cut);
                        }
                    }
                }
            }
            shared
                .done
                .store(true, std::sync::atomic::Ordering::Release);
        });
        StderrTail { inner }
    }

    /// The captured tail, waiting briefly for the stream to close so a
    /// crashing worker's final lines are included.
    fn tail(&self) -> String {
        let deadline = Instant::now() + STDERR_TAIL_WAIT;
        while !self.inner.done.load(std::sync::atomic::Ordering::Acquire)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.inner
            .buf
            .lock()
            .expect("stderr tail poisoned")
            .trim()
            .to_string()
    }
}

/// The doubling sleep schedule of a loop that has to poll — a child's exit
/// and a non-blocking listener have no wait-with-deadline in `std`. It
/// starts at 100 µs, because what is polled for usually happens within a
/// millisecond and the poll sits on the run's blocking path, and doubles up
/// to `cap`, so a long wait costs no more wake-ups than a fixed `cap`-sized
/// sleep would. It never yields a zero delay: a poll loop must not spin.
pub(crate) struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Backoff {
    const FIRST: Duration = Duration::from_micros(100);

    pub(crate) fn new(cap: Duration) -> Backoff {
        Backoff {
            next: Backoff::FIRST.min(cap),
            cap,
        }
    }

    /// The delay to sleep before the next poll.
    fn next_delay(&mut self) -> Duration {
        let delay = self.next;
        self.next = (2 * delay).min(self.cap);
        delay
    }

    pub(crate) fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

/// The longest sleep between two polls for a worker's exit after
/// `Shutdown`.
const REAP_POLL_CAP: Duration = Duration::from_millis(10);

/// One worker's connection: its two stream halves — for a subprocess its
/// stdin and stdout pipes, for a socket worker two clones of the TCP stream
/// — each with its half of that direction's symbol dictionary.
pub(crate) struct Endpoint {
    writer: BufWriter<Box<dyn Write + Send>>,
    /// Sender half of the coordinator → worker dictionary.
    encoder: Encoder,
    reader: BufReader<Box<dyn Read + Send>>,
    /// Receiver half of the worker → coordinator dictionary.
    dictionary: Dictionary,
}

impl Endpoint {
    /// Wraps a writer/reader pair in the buffered halves the driver uses.
    pub(crate) fn new(
        writer: impl Write + Send + 'static,
        reader: impl Read + Send + 'static,
    ) -> Endpoint {
        Endpoint {
            writer: BufWriter::new(Box::new(writer)),
            encoder: Encoder::connection(),
            reader: BufReader::new(Box::new(reader)),
            dictionary: Dictionary::coordinator(),
        }
    }

    /// Best-effort clean-shutdown frame (used on drop).
    fn send_shutdown(&mut self) {
        let _ = write_frame(&mut self.writer, &mut self.encoder, &Message::Shutdown);
    }
}

/// One unit of work queued for a worker this round. The shipment's facts
/// sit behind an `Arc` shared with the fault-tolerance ledger, so queueing,
/// requeueing and remembering a chunk never copy it.
#[derive(Clone)]
struct Job {
    /// The round stamped on the job itself — a requeued state rebuild
    /// carries round 0 even when the transport is mid-run, so replies are
    /// validated against this, not the transport's current round.
    round: u64,
    node: Node,
    work: Shipment,
}

impl Job {
    /// The job's request frame, as the next frame of the connection
    /// `encoder` writes.
    fn encode(
        &self,
        encoder: &mut Encoder,
        query: &ConjunctiveQuery,
        options: EvalOptions,
        trace: TraceContext,
    ) -> Vec<u8> {
        let frame = EvalRef {
            query,
            options,
            round: self.round,
            node: self.node,
            shipment: &self.work,
            trace,
        };
        encode_frame_with(encoder, &frame)
    }
}

/// The bounded in-flight window shared between one worker's writer thread
/// and the reply reader: the writer blocks in [`WindowGate::acquire`]
/// while `window` jobs are unanswered, the reader releases a slot per
/// reply, and a reader-side failure aborts the writer out of its wait.
struct WindowGate {
    /// `(in_flight, aborted)`.
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl WindowGate {
    fn new() -> WindowGate {
        WindowGate {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until fewer than `window` jobs are in flight. Returns
    /// `false` when the round was aborted instead.
    fn acquire(&self, window: usize) -> bool {
        let mut state = self.state.lock().expect("window gate poisoned");
        while state.0 >= window && !state.1 {
            state = self.cv.wait(state).expect("window gate poisoned");
        }
        if state.1 {
            return false;
        }
        state.0 += 1;
        true
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("window gate poisoned");
        state.0 = state.0.saturating_sub(1);
        self.cv.notify_all();
    }

    fn abort(&self) {
        self.state.lock().expect("window gate poisoned").1 = true;
        self.cv.notify_all();
    }
}

/// The per-worker outcome of one pipelined drive.
struct DriveReport {
    /// Results of the jobs the worker answered, in job order.
    results: Vec<(Node, NodeResult)>,
    /// Request + reply payload bytes that actually crossed the boundary.
    bytes: u64,
    /// The jobs the worker never answered (empty unless `error` is set).
    failed: Vec<Job>,
    /// The failure that ended the drive, if any.
    error: Option<TransportError>,
    /// Trace events the worker flushed during the drive (empty when
    /// tracing is off — untraced workers never send `TraceFlush`).
    events: Vec<TraceEvent>,
}

/// Reads the next frame of a worker's reply stream and decodes it, the
/// decode under a `reply_decode` span of its own: the wait for the bytes is
/// the worker's time, not the codec's.
fn read_message(
    reader: &mut BufReader<Box<dyn Read + Send>>,
    dictionary: &mut Dictionary,
) -> Result<Option<(Message, u64)>, DecodeError> {
    let Some((body, wire_len)) = read_body(reader)? else {
        return Ok(None);
    };
    let _span = obs::span!("reply_decode", bytes = body.len());
    decode_body_with(dictionary, &body).map(|message| Some((message, wire_len)))
}

/// Decodes one reply frame and validates it against the job it answers,
/// absorbing any `TraceFlush` frames the worker interleaved (their events
/// go into `events`). Returns the node's result plus the frames' total
/// wire length.
fn read_reply(
    reader: &mut BufReader<Box<dyn Read + Send>>,
    dictionary: &mut Dictionary,
    job: &Job,
    events: &mut Vec<TraceEvent>,
) -> Result<(Node, NodeResult, u64), TransportError> {
    let node = job.node;
    let mut total_bytes = 0u64;
    let (reply, reply_bytes) = loop {
        match read_message(reader, dictionary) {
            Ok(Some((Message::TraceFlush { events: flushed }, bytes))) => {
                total_bytes += bytes;
                events.extend(flushed);
            }
            Ok(Some(reply)) => break reply,
            Ok(None) => {
                return Err(TransportError::Io(
                    "worker closed its connection mid-round".to_string(),
                ))
            }
            Err(e) => return Err(TransportError::Protocol(e.to_string())),
        }
    };
    let reply_bytes = total_bytes + reply_bytes;
    let Message::EvalResult {
        round,
        node: answered_node,
        output,
        eval_us,
    } = reply
    else {
        return Err(TransportError::Protocol(format!(
            "expected an eval-result, worker sent {}",
            reply.kind()
        )));
    };
    if round != job.round || answered_node != node {
        return Err(TransportError::Protocol(format!(
            "worker answered round {round} node {answered_node} \
             to a round {} job for {node}",
            job.round
        )));
    }
    Ok((
        node,
        NodeResult {
            output,
            eval_time: Duration::from_micros(eval_us),
        },
        reply_bytes,
    ))
}

/// Histogram handles [`drive`] records into while streaming a round:
/// how long the writer blocked on the pipeline window, and how large the
/// request frames were. Cloned from the transport's registry per barrier (the
/// handles share the registry's storage), so every worker thread feeds
/// the same two histograms.
#[derive(Clone)]
struct DriveMetrics {
    window_wait_us: obs::Histogram,
    frame_bytes: obs::Histogram,
}

/// Drives one worker's queue with up to `window` jobs in flight: a scoped
/// writer thread streams request frames under the gate's backpressure
/// (then closes the round with `Barrier`), while the calling thread reads
/// the replies in job order and releases gate slots. Never deadlocks: the
/// reader drains the reply pipe concurrently, so the writer cannot wedge
/// on a full buffer, and a dead worker surfaces as a write error or a
/// read-side EOF, never a hang.
#[allow(clippy::too_many_arguments)] // one call site, in barrier()
fn drive(
    endpoint: &mut Endpoint,
    query: &ConjunctiveQuery,
    options: EvalOptions,
    barrier_round: u64,
    jobs: &[Job],
    window: usize,
    trace: TraceContext,
    metrics: &DriveMetrics,
) -> DriveReport {
    let window = window.max(1);
    let gate = WindowGate::new();
    let Endpoint {
        writer,
        encoder,
        reader,
        dictionary,
    } = endpoint;

    let (results, bytes, error, events) = std::thread::scope(|scope| {
        let gate = &gate;
        let writer_handle = scope.spawn(move || -> (u64, Option<TransportError>) {
            let mut sent = 0u64;
            for job in jobs {
                let wait_started = Instant::now();
                let acquired = {
                    let _wait = obs::span!("window_wait", node = job.node);
                    gate.acquire(window)
                };
                metrics
                    .window_wait_us
                    .record(u64::try_from(wait_started.elapsed().as_micros()).unwrap_or(u64::MAX));
                if !acquired {
                    // The reader failed and aborted the round; stop
                    // writing so the thread can be joined.
                    return (sent, None);
                }
                let frame = {
                    let _encode =
                        obs::span!("wire_encode", node = job.node, facts = job.work.len());
                    job.encode(encoder, query, options, trace)
                };
                metrics.frame_bytes.record(frame.len() as u64);
                sent += frame.len() as u64;
                if let Err(e) = writer.write_all(&frame).and_then(|()| writer.flush()) {
                    return (
                        sent,
                        Some(TransportError::Io(format!(
                            "sending work for {}: {e}",
                            job.node
                        ))),
                    );
                }
            }
            match write_frame(
                writer,
                encoder,
                &Message::Barrier {
                    round: barrier_round,
                },
            ) {
                Ok(()) => (sent, None),
                Err(e) => (
                    sent,
                    Some(TransportError::Io(format!("sending barrier: {e}"))),
                ),
            }
        });

        let mut results = Vec::with_capacity(jobs.len());
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut reply_bytes = 0u64;
        let mut error: Option<TransportError> = None;
        for job in jobs {
            match read_reply(reader, dictionary, job, &mut events) {
                Ok((node, result, bytes)) => {
                    reply_bytes += bytes;
                    results.push((node, result));
                    gate.release();
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if error.is_none() {
            // Workers flush their trace buffers right before acking the
            // barrier; absorb those frames here.
            error = loop {
                match read_message(reader, dictionary) {
                    Ok(Some((Message::TraceFlush { events: flushed }, bytes))) => {
                        reply_bytes += bytes;
                        events.extend(flushed);
                    }
                    Ok(Some((Message::BarrierAck { round }, _))) if round == barrier_round => {
                        break None
                    }
                    Ok(Some((other, _))) => {
                        break Some(TransportError::Protocol(format!(
                            "expected barrier-ack for round {barrier_round}, worker sent {}",
                            other.kind()
                        )))
                    }
                    Ok(None) => {
                        break Some(TransportError::Io(
                            "worker closed its connection at the barrier".to_string(),
                        ))
                    }
                    Err(e) => break Some(TransportError::Protocol(e.to_string())),
                }
            };
        }
        if error.is_some() {
            gate.abort();
        }
        let (request_bytes, write_error) =
            writer_handle.join().expect("worker writer thread panicked");
        if error.is_none() {
            error = write_error;
        }
        (results, request_bytes + reply_bytes, error, events)
    });

    let failed = if error.is_some() {
        jobs[results.len()..].to_vec()
    } else {
        Vec::new()
    };
    DriveReport {
        results,
        bytes,
        failed,
        error,
        events,
    }
}

/// A [`Transport`] whose nodes evaluate in `pcq-analyze worker` processes
/// at the far end of byte streams: worker endpoints with their child
/// processes, the persistent node→worker assignment, the per-round job
/// queues, and the fault-tolerance ledger (see the module docs). Built by
/// [`WireTransport::spawn_pipes`] or [`WireTransport::spawn_sockets`].
pub struct WireTransport {
    /// One slot per worker; `None` marks a worker that died.
    endpoints: Vec<Option<Endpoint>>,
    /// The spawned workers' processes (`None` once a dead one is reaped).
    children: Vec<Option<Child>>,
    query: Option<ConjunctiveQuery>,
    options: EvalOptions,
    round: u64,
    /// Per-worker job queues for the current round.
    jobs: Vec<Vec<Job>>,
    /// Stable node→worker assignment (dealt round-robin on first sight):
    /// incremental rounds keep per-node state inside the worker, so a node
    /// must keep talking to the same worker until that worker dies.
    worker_for: BTreeMap<Node, usize>,
    /// Persistent dealing cursor — intentionally **not** reset per round,
    /// so nodes first seen in later rounds keep spreading across the pool
    /// instead of piling onto worker 0.
    next_worker: usize,
    results: BTreeMap<Node, NodeResult>,
    /// Request + reply payload bytes since the last `take_bytes_shipped`.
    bytes_shipped: u64,
    window: usize,
    fault_tolerance: bool,
    /// Every node's shipped state this run (fault tolerance only): the
    /// accumulated deltas of an incremental run, or the last full chunk of
    /// a classic run — what to re-ship when the node's worker dies, and
    /// what a requeued resident job must fall back to. An entry shares its
    /// `Arc` with the job that shipped it; a later delta extends it
    /// copy-on-write, which is in place once that job has been answered.
    shipped_state: BTreeMap<Node, Arc<Instance>>,
    /// Nodes whose worker died after they were shipped state; their next
    /// delta becomes a round-0 rebuild on the new worker.
    needs_rebuild: BTreeSet<Node>,
    shutdown_grace: Duration,
    /// Trace context captured at `begin_round` and stamped on every eval
    /// frame, so worker spans parent under the coordinator's round span.
    trace: TraceContext,
    /// Unified metrics for the driver: `driver_requeues`, `worker_deaths`
    /// and `state_rebuilds` accumulate here over the transport's lifetime.
    registry: Arc<obs::Registry>,
    /// Captured stderr tails of the workers (`None` where stderr was not
    /// piped); appended to the error when a worker dies.
    stderr_tails: Vec<Option<StderrTail>>,
}

impl WireTransport {
    /// A transport over already-connected workers; `children` and
    /// `stderr_tails` are index-aligned with `endpoints`.
    pub(crate) fn new(
        endpoints: Vec<Endpoint>,
        children: Vec<Option<Child>>,
        stderr_tails: Vec<Option<StderrTail>>,
    ) -> WireTransport {
        let count = endpoints.len();
        debug_assert_eq!(count, children.len());
        debug_assert_eq!(count, stderr_tails.len());
        WireTransport {
            endpoints: endpoints.into_iter().map(Some).collect(),
            children,
            query: None,
            options: EvalOptions::default(),
            round: 0,
            jobs: vec![Vec::new(); count],
            worker_for: BTreeMap::new(),
            next_worker: 0,
            results: BTreeMap::new(),
            bytes_shipped: 0,
            window: DEFAULT_WINDOW,
            fault_tolerance: true,
            shipped_state: BTreeMap::new(),
            needs_rebuild: BTreeSet::new(),
            shutdown_grace: DEFAULT_SHUTDOWN_GRACE,
            trace: TraceContext::default(),
            registry: Arc::new(obs::Registry::new()),
            stderr_tails,
        }
    }

    /// The driver's metrics registry: `driver_requeues`, `worker_deaths`
    /// and `state_rebuilds` accumulate here over the transport's lifetime,
    /// next to the `chunk_facts`, `window_wait_us` and `frame_bytes`
    /// histograms; dropping the transport adds `shutdown_polls`, the
    /// number of times it slept waiting for a worker to exit.
    pub fn metrics_registry(&self) -> Arc<obs::Registry> {
        self.registry.clone()
    }

    /// Sets the pipelining window (jobs in flight per worker, default 8);
    /// 1 is write-one-read-one lock step. Returns `self` for builder-style
    /// construction.
    pub fn pipeline_window(mut self, window: usize) -> WireTransport {
        self.window = window.max(1);
        self
    }

    /// Enables (default) or disables mid-round worker-failure recovery;
    /// when off, the first worker failure surfaces as the round's
    /// [`TransportError`].
    pub fn fault_tolerance(mut self, enabled: bool) -> WireTransport {
        self.fault_tolerance = enabled;
        if !enabled {
            self.shipped_state.clear();
            self.needs_rebuild.clear();
        }
        self
    }

    /// Bounds how long `Drop` waits for a worker to exit after `Shutdown`
    /// before killing it (default 5 s).
    pub fn shutdown_grace(mut self, grace: Duration) -> WireTransport {
        self.shutdown_grace = grace;
        self
    }

    /// Number of workers in the pool, dead ones included.
    pub fn worker_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Workers still alive (diagnostics; fault tests assert a kill
    /// actually happened).
    pub fn alive_workers(&self) -> usize {
        self.endpoints.iter().filter(|e| e.is_some()).count()
    }

    /// The worker a node is currently assigned to, if any (diagnostics).
    #[cfg(test)]
    fn assignment_of(&self, node: Node) -> Option<usize> {
        self.worker_for.get(&node).copied()
    }

    /// Queues `job` on the worker that owns its node, assigning a live
    /// worker round-robin from the persistent cursor on first sight.
    fn enqueue(&mut self, job: Job) -> Result<(), TransportError> {
        let node = job.node;
        let worker = match self.worker_for.get(&node) {
            Some(&w) if self.endpoints[w].is_some() => w,
            _ => {
                let w = self.next_live_worker()?;
                self.worker_for.insert(node, w);
                w
            }
        };
        self.jobs[worker].push(job);
        Ok(())
    }

    fn next_live_worker(&mut self) -> Result<usize, TransportError> {
        let count = self.endpoints.len();
        for _ in 0..count {
            let w = self.next_worker;
            self.next_worker = (self.next_worker + 1) % count;
            if self.endpoints[w].is_some() {
                return Ok(w);
            }
        }
        Err(TransportError::Io(
            "no live workers left in the pool".to_string(),
        ))
    }

    /// Appends the tail of a spawned worker's captured stderr to the
    /// error that ended its drive, so a panic message or abort reason is
    /// not silently lost with the process.
    fn stderr_annotated(&self, worker: usize, error: TransportError) -> TransportError {
        let tail = match self.stderr_tails.get(worker).and_then(|t| t.as_ref()) {
            Some(tail) => tail.tail(),
            None => String::new(),
        };
        if tail.is_empty() {
            return error;
        }
        match error {
            TransportError::Io(msg) => TransportError::Io(format!("{msg}; worker stderr: {tail}")),
            TransportError::Protocol(msg) => {
                TransportError::Protocol(format!("{msg}; worker stderr: {tail}"))
            }
            other => other,
        }
    }

    /// Tears down a dead worker: closes its endpoint, reaps its process,
    /// and orphans its nodes so they get reassigned (and, for stateful
    /// delta nodes, rebuilt) on their next job.
    fn mark_dead(&mut self, worker: usize) {
        self.endpoints[worker] = None;
        if let Some(mut child) = self.children[worker].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let orphaned: Vec<Node> = self
            .worker_for
            .iter()
            .filter(|&(_, &w)| w == worker)
            .map(|(&node, _)| node)
            .collect();
        for node in orphaned {
            self.worker_for.remove(&node);
            self.needs_rebuild.insert(node);
        }
    }

    /// Brings the fault-tolerance ledger in step with a shipment about to
    /// be queued — the ledger must already hold what a rebuild of the node
    /// would have to re-ship — and returns the round and shipment to queue,
    /// which differ from the caller's when the node's worker has died since
    /// the node was last shipped state.
    fn ledgered(&mut self, node: Node, shipment: Shipment) -> (u64, Shipment) {
        let round = self.round;
        match shipment {
            Shipment::Delta(delta) if round > 0 => {
                let state = self.shipped_state.entry(node).or_default();
                Arc::make_mut(state).absorb(&delta);
                if self.needs_rebuild.remove(&node) {
                    // Ship the full accumulated state as a round-0 reset.
                    (0, Shipment::Delta(state.clone()))
                } else {
                    (round, Shipment::Delta(delta))
                }
            }
            // A full chunk, like a round-0 delta, replaces whatever the
            // node held before.
            Shipment::Full(ref facts) | Shipment::Delta(ref facts) => {
                self.shipped_state.insert(node, facts.clone());
                self.needs_rebuild.remove(&node);
                (round, shipment)
            }
            Shipment::Resident if self.needs_rebuild.remove(&node) => {
                // Re-ship the ledger copy as a full chunk instead of asking
                // a fresh worker for state it does not have.
                let shard = self.shipped_state.get(&node).cloned();
                (round, Shipment::Full(shard.unwrap_or_default()))
            }
            Shipment::Resident => (round, Shipment::Resident),
        }
    }

    /// Converts a job that died with its worker into the job to requeue on
    /// a survivor: full chunks are stateless and go as-is; a delta's per-node
    /// state is gone, so it becomes a round-0 rebuild carrying the node's
    /// full shipped state (which already includes this round's delta); a
    /// resident job's shard likewise died, so it becomes a full chunk
    /// carrying the ledger copy of that shard.
    fn requeued_job(&mut self, job: Job) -> Job {
        let Job { round, node, work } = job;
        if !matches!(work, Shipment::Full(_)) {
            self.registry.counter("state_rebuilds").inc();
            obs::instant!("state_rebuild", node = node);
            self.needs_rebuild.remove(&node);
        }
        let ledger = self.shipped_state.get(&node).cloned();
        let (round, work) = match work {
            Shipment::Full(chunk) => (round, Shipment::Full(chunk)),
            Shipment::Delta(delta) => (0, Shipment::Delta(ledger.unwrap_or(delta))),
            Shipment::Resident => (round, Shipment::Full(ledger.unwrap_or_default())),
        };
        Job { round, node, work }
    }
}

impl Transport for WireTransport {
    fn begin_round(
        &mut self,
        round: usize,
        query: &ConjunctiveQuery,
        options: EvalOptions,
    ) -> Result<(), TransportError> {
        self.query = Some(query.clone());
        self.options = options;
        self.round = round as u64;
        // Capture the active trace (if any) once per round: every frame
        // this round ships the same context, and workers parent their
        // spans under whatever span the engine has open right now.
        self.trace = TraceContext::capture(obs::current_span());
        for queue in &mut self.jobs {
            queue.clear();
        }
        self.results.clear();
        Ok(())
    }

    fn send(&mut self, node: Node, shipment: Shipment) -> Result<(), TransportError> {
        if !matches!(shipment, Shipment::Resident) {
            self.registry
                .histogram("chunk_facts")
                .record(shipment.len() as u64);
        }
        let (round, work) = if self.fault_tolerance {
            self.ledgered(node, shipment)
        } else {
            (self.round, shipment)
        };
        self.enqueue(Job { round, node, work })
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        let query = self
            .query
            .clone()
            .ok_or_else(|| TransportError::Protocol("barrier before begin_round".to_string()))?;
        let options = self.options;
        let round = self.round;
        let window = self.window;
        let trace = self.trace;
        let metrics = DriveMetrics {
            window_wait_us: self.registry.histogram("window_wait_us"),
            frame_bytes: self.registry.histogram("frame_bytes"),
        };
        loop {
            let count = self.endpoints.len();
            let jobs = std::mem::replace(&mut self.jobs, vec![Vec::new(); count]);
            if jobs.iter().all(|queue| queue.is_empty()) {
                return Ok(());
            }
            // One scoped thread per worker with jobs; each drives its own
            // endpoint so the workers evaluate concurrently.
            let reports: Vec<(usize, DriveReport)> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .endpoints
                    .iter_mut()
                    .enumerate()
                    .zip(&jobs)
                    .filter(|((_, endpoint), queue)| endpoint.is_some() && !queue.is_empty())
                    .map(|((i, endpoint), queue)| {
                        let query = &query;
                        let metrics = &metrics;
                        let endpoint = endpoint.as_mut().expect("filtered on live endpoints");
                        scope.spawn(move || {
                            (
                                i,
                                drive(
                                    endpoint, query, options, round, queue, window, trace, metrics,
                                ),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker driver thread panicked"))
                    .collect()
            });
            let mut requeue: Vec<Job> = Vec::new();
            // Jobs that landed on a worker that was already dead (cannot
            // happen through enqueue, but cheap to sweep defensively).
            for (i, queue) in jobs.into_iter().enumerate() {
                if self.endpoints[i].is_none() && !queue.is_empty() {
                    requeue.extend(queue);
                }
            }
            for (worker, report) in reports {
                self.bytes_shipped += report.bytes;
                self.results.extend(report.results);
                if !report.events.is_empty() {
                    // Worker events arrive with pid 0 (set at recording
                    // time by a process that does not know its index);
                    // stamp them with a stable per-worker pid so the
                    // merged timeline keeps the processes apart.
                    let pid = (worker + 1) as u32;
                    let mut events = report.events;
                    for event in &mut events {
                        if event.pid == 0 {
                            event.pid = pid;
                        }
                    }
                    obs::submit_events(events);
                }
                if let Some(error) = report.error {
                    let error = self.stderr_annotated(worker, error);
                    if !self.fault_tolerance {
                        return Err(error);
                    }
                    self.registry.counter("worker_deaths").inc();
                    obs::instant!("worker_dead", worker = worker, error = error);
                    self.mark_dead(worker);
                    requeue.extend(report.failed);
                }
            }
            if requeue.is_empty() {
                return Ok(());
            }
            if self.alive_workers() == 0 {
                return Err(TransportError::Io(format!(
                    "all {count} workers died; {} unanswered job(s) cannot be requeued",
                    requeue.len()
                )));
            }
            for job in requeue {
                self.registry.counter("driver_requeues").inc();
                obs::instant!("requeue", node = job.node);
                let job = self.requeued_job(job);
                self.enqueue(job)?;
            }
            // Loop: drive the requeued jobs on the survivors.
        }
    }

    fn recv(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        self.results
            .remove(&node)
            .ok_or(TransportError::UnknownNode(node))
    }

    fn take_bytes_shipped(&mut self) -> u64 {
        std::mem::take(&mut self.bytes_shipped)
    }

    fn parallelism(&self) -> usize {
        self.alive_workers().max(1)
    }
}

impl Drop for WireTransport {
    fn drop(&mut self) {
        for endpoint in self.endpoints.iter_mut().flatten() {
            endpoint.send_shutdown();
        }
        // Closing the endpoints (pipes / sockets) is the second shutdown
        // signal: a worker blocked in a read sees EOF and exits.
        self.endpoints.clear();
        // Bounded reaping: a wedged worker that ignores both signals is
        // killed after the grace period instead of hanging the drop.
        let deadline = Instant::now() + self.shutdown_grace;
        let polls = self.registry.counter("shutdown_polls");
        for child in self.children.iter_mut().flatten() {
            // A worker exits within a millisecond of `Shutdown`, and the
            // CLI drops its transport before the verify: every wire run
            // waits here.
            let mut backoff = Backoff::new(REAP_POLL_CAP);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        polls.inc();
                        backoff.sleep();
                    }
                    Err(_) => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport with `count` inert workers (writes vanish, reads see
    /// EOF) — enough to exercise assignment without subprocesses.
    fn inert_core(count: usize) -> WireTransport {
        let endpoints = (0..count)
            .map(|_| Endpoint::new(std::io::sink(), std::io::empty()))
            .collect();
        let children = (0..count).map(|_| None).collect();
        WireTransport::new(endpoints, children, vec![None; count])
    }

    fn empty_chunk() -> Shipment {
        Shipment::Full(Arc::default())
    }

    #[test]
    fn dealing_cursor_persists_across_rounds() {
        // Regression: `begin_round` used to reset the cursor to worker 0
        // every round, so nodes first seen in later rounds piled onto the
        // low-index workers. Two rounds introducing disjoint node sets
        // must spread across all three workers.
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let mut core = inert_core(3);

        core.begin_round(0, &query, EvalOptions::default()).unwrap();
        core.send(Node::numbered(0), empty_chunk()).unwrap();
        core.send(Node::numbered(1), empty_chunk()).unwrap();
        assert_eq!(core.assignment_of(Node::numbered(0)), Some(0));
        assert_eq!(core.assignment_of(Node::numbered(1)), Some(1));

        core.begin_round(1, &query, EvalOptions::default()).unwrap();
        core.send(Node::numbered(2), empty_chunk()).unwrap();
        core.send(Node::numbered(3), empty_chunk()).unwrap();
        assert_eq!(
            core.assignment_of(Node::numbered(2)),
            Some(2),
            "round 1's first new node must continue from the cursor, not worker 0"
        );
        assert_eq!(core.assignment_of(Node::numbered(3)), Some(0));

        let assigned: BTreeSet<usize> = (0..4)
            .filter_map(|i| core.assignment_of(Node::numbered(i)))
            .collect();
        assert_eq!(
            assigned,
            BTreeSet::from([0, 1, 2]),
            "disjoint node sets across two rounds must cover every worker"
        );
    }

    #[test]
    fn earlier_assignments_are_sticky() {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let mut core = inert_core(2);
        core.begin_round(0, &query, EvalOptions::default()).unwrap();
        core.send(Node::numbered(0), empty_chunk()).unwrap();
        core.begin_round(1, &query, EvalOptions::default()).unwrap();
        core.send(Node::numbered(0), empty_chunk()).unwrap();
        core.send(Node::numbered(1), empty_chunk()).unwrap();
        assert_eq!(core.assignment_of(Node::numbered(0)), Some(0));
        assert_eq!(
            core.assignment_of(Node::numbered(1)),
            Some(1),
            "a re-seen node must not advance the cursor"
        );
    }

    #[test]
    fn ledger_shares_shipped_facts_and_rebuilds_from_the_extended_state() {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let facts = |text| Arc::new(cq::parse_instance(text).unwrap());
        let node = Node::numbered(0);
        let mut core = inert_core(2);

        core.begin_round(0, &query, EvalOptions::default()).unwrap();
        core.send(node, Shipment::Delta(facts("R(a, b)."))).unwrap();
        let Shipment::Delta(delta) = &core.jobs[0][0].work else {
            panic!("a delta job was queued");
        };
        assert!(
            Arc::ptr_eq(delta, &core.shipped_state[&node]),
            "the ledger must share the queued delta, not copy it"
        );

        // Round 1 extends the ledger entry; the job ships only the delta.
        core.begin_round(1, &query, EvalOptions::default()).unwrap();
        core.send(node, Shipment::Delta(facts("R(b, c)."))).unwrap();
        assert_eq!(core.shipped_state[&node], facts("R(a, b). R(b, c)."));
        let job = core.jobs[0][0].clone();
        let Shipment::Delta(delta) = &job.work else {
            panic!("a delta job was queued");
        };
        assert_eq!((job.round, delta), (1, &facts("R(b, c).")));

        // The node's worker dies with the job unanswered: the requeued job
        // is a round-0 rebuild carrying the extended ledger state itself.
        core.mark_dead(0);
        let rebuild = core.requeued_job(job);
        let Shipment::Delta(delta) = rebuild.work else {
            panic!("a delta job requeues as a delta");
        };
        assert_eq!(rebuild.round, 0);
        assert!(Arc::ptr_eq(&delta, &core.shipped_state[&node]));
        assert_eq!(delta, facts("R(a, b). R(b, c)."));
    }

    #[test]
    fn a_requeued_job_carries_its_names_again_on_the_survivors_connection() {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let chunk = Arc::new(cq::parse_instance("R(dict_a, dict_b). R(dict_b, dict_c).").unwrap());
        let (options, trace) = (EvalOptions::default(), TraceContext::default());
        let mut core = inert_core(2);
        core.begin_round(0, &query, options).unwrap();
        core.send(Node::numbered(0), Shipment::Full(chunk.clone()))
            .unwrap();
        let job = core.jobs[0][0].clone();
        let encode_for = |core: &mut WireTransport, worker: usize, job: &Job| {
            let endpoint = core.endpoints[worker].as_mut().expect("a live endpoint");
            job.encode(&mut endpoint.encoder, &query, options, trace)
        };
        // What a worker makes of a frame, through its half of a connection.
        let read = |dictionary: &mut Dictionary, frame: &[u8]| {
            crate::frame::read_frame::<Message>(&mut std::io::Cursor::new(frame), dictionary)
        };
        let shipped = |message| match message {
            Ok(Some(Message::Eval {
                shipment: Shipment::Full(facts),
                ..
            })) => facts,
            other => panic!("expected a full eval, got {other:?}"),
        };
        // What a worker read is the chunk, nameless: every value prints as
        // an id, and sent back over the connection it is the chunk again.
        let is_the_chunk = |held: &Instance| {
            let body = crate::codec::encode_body_with(&mut Encoder::connection(), held);
            let home = decode_body_with::<Instance>(&mut Dictionary::coordinator(), &body);
            held.to_string().matches('#').count() == 4 && home.as_ref() == Ok(&*chunk)
        };

        // On worker 0's connection the names — relation, variables, node —
        // cross once: the same job written again lists none, and leans on
        // the frame before it for them.
        let first = encode_for(&mut core, 0, &job);
        let repeat = encode_for(&mut core, 0, &job);
        assert!(repeat.len() < first.len());
        let mut worker_0 = Dictionary::worker();
        assert!(is_the_chunk(&shipped(read(&mut worker_0, &first))));
        assert!(is_the_chunk(&shipped(read(&mut worker_0, &repeat))));
        assert!(read(&mut Dictionary::worker(), &repeat).is_err());

        // Worker 0 dies and its dictionary with it: on worker 1's
        // connection the requeued job is a first frame again, and the
        // survivor reads it with nothing before it. Its values never leaned
        // on a frame in the first place: they are the coordinator's ids.
        core.mark_dead(0);
        let requeued = core.requeued_job(job);
        let on_survivor = encode_for(&mut core, 1, &requeued);
        assert_eq!(on_survivor, first);
        let fresh = &mut Dictionary::worker();
        assert!(is_the_chunk(&shipped(read(fresh, &on_survivor))));
    }

    /// A writer that hands each flushed frame to `tamper` and writes what
    /// comes back: the wire between the coordinator and one worker, bent.
    struct Tampered<W, F> {
        wire: W,
        frame: Vec<u8>,
        tamper: F,
    }

    impl<W: Write, F: FnMut(Vec<u8>) -> Vec<u8>> Write for Tampered<W, F> {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.frame.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            let frame = (self.tamper)(std::mem::take(&mut self.frame));
            self.wire.write_all(&frame)?;
            self.wire.flush()
        }
    }

    /// A one-worker transport whose worker is [`crate::run_worker`] on a
    /// thread of this process behind OS pipes, its error printed to a
    /// captured "stderr" the way the `worker` subcommand prints it; every
    /// frame the coordinator flushes goes through `tamper` first.
    fn tampered_worker(
        tamper: impl FnMut(Vec<u8>) -> Vec<u8> + Send + 'static,
    ) -> (WireTransport, std::thread::JoinHandle<Result<(), String>>) {
        let (requests, to_worker) = std::io::pipe().unwrap();
        let (replies, from_worker) = std::io::pipe().unwrap();
        let (stderr, mut worker_stderr) = std::io::pipe().unwrap();
        let worker = std::thread::spawn(move || {
            let run = crate::run_worker(requests, from_worker, None, 0);
            if let Err(error) = &run {
                let _ = writeln!(worker_stderr, "pcq-analyze worker: {error}");
            }
            run
        });
        let wire = Tampered {
            wire: to_worker,
            frame: Vec::new(),
            tamper,
        };
        let transport = WireTransport::new(
            vec![Endpoint::new(wire, replies)],
            vec![None],
            vec![Some(StderrTail::capture(stderr))],
        );
        (transport.fault_tolerance(false), worker)
    }

    /// Ships one chunk a round for `rounds` rounds; the first error ends it.
    fn run_rounds(transport: &mut WireTransport, rounds: usize) -> Result<(), TransportError> {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let chunk = Arc::new(cq::parse_instance("R(a, b). R(b, c).").unwrap());
        for round in 0..rounds {
            transport.begin_round(round, &query, EvalOptions::default())?;
            transport.send(Node::numbered(0), Shipment::Full(chunk.clone()))?;
            transport.barrier()?;
            transport.recv(Node::numbered(0))?;
        }
        Ok(())
    }

    /// Runs `rounds` rounds against a worker behind `tamper` and returns the
    /// error the coordinator ends with and the worker's own verdict — both
    /// within a bound, whatever the tampering.
    fn outcome_of(
        rounds: usize,
        tamper: impl FnMut(Vec<u8>) -> Vec<u8> + Send + 'static,
    ) -> (String, Result<(), String>) {
        let started = Instant::now();
        let (mut transport, worker) = tampered_worker(tamper);
        let error = run_rounds(&mut transport, rounds).expect_err("the connection was bent");
        assert!(
            matches!(error, TransportError::Io(_) | TransportError::Protocol(_)),
            "{error:?}"
        );
        drop(transport);
        let verdict = worker.join().expect("the worker does not panic");
        assert!(started.elapsed() < Duration::from_secs(5), "not bounded");
        (error.to_string(), verdict)
    }

    #[test]
    fn a_replayed_eval_frame_ends_in_typed_errors_on_both_sides() {
        // The first eval frame names the query's symbols: read again, its
        // table would enter them twice and renumber the dictionary.
        let mut frames = 0;
        let (error, worker) = outcome_of(1, move |frame| {
            frames += 1;
            match frames {
                1 => [frame.clone(), frame].concat(),
                _ => frame,
            }
        });
        let refusal = worker.expect_err("the worker refuses the replay");
        assert!(refusal.contains("bad frame") && refusal.contains("already holds"));
        assert!(
            error.contains("worker stderr") && error.contains(&refusal),
            "{error}"
        );

        // A later eval frame names nothing and means the same read twice;
        // the worker answers twice, and the coordinator refuses the reply
        // nobody asked for.
        let mut frames = 0;
        let (error, worker) = outcome_of(2, move |frame| {
            frames += 1;
            match frames {
                // round 0: eval, barrier; round 1: eval
                3 => [frame.clone(), frame].concat(),
                _ => frame,
            }
        });
        assert!(error.contains("expected barrier-ack"), "{error}");
        assert_eq!(worker, Ok(()), "shut down when its connection closed");
    }

    #[test]
    fn a_frame_of_the_previous_version_ends_in_typed_errors_on_both_sides() {
        let (error, worker) = outcome_of(1, |mut frame| {
            assert_eq!(frame[4], crate::frame::VERSION);
            frame[4] = 3;
            frame
        });
        let refusal = worker.expect_err("the worker refuses the version");
        assert!(refusal.contains("unsupported frame version 3"), "{refusal}");
        assert!(
            error.contains("worker stderr") && error.contains(&refusal),
            "{error}"
        );
    }

    #[test]
    fn poll_backoff_starts_short_doubles_to_its_cap_and_never_spins() {
        let mut backoff = Backoff::new(Duration::from_millis(10));
        let delays: Vec<u64> = (0..10)
            .map(|_| backoff.next_delay().as_micros() as u64)
            .collect();
        assert_eq!(
            delays,
            [100, 200, 400, 800, 1600, 3200, 6400, 10_000, 10_000, 10_000]
        );
        // Seven polls — everything a worker that exits promptly needs —
        // sleep less in total than one poll of the fixed 10 ms schedule did.
        assert!(delays[..6].iter().sum::<u64>() < 10_000);
        // A cap below the first delay is honoured, and no delay is zero.
        let mut tight = Backoff::new(Duration::from_micros(30));
        assert_eq!(tight.next_delay(), Duration::from_micros(30));
        assert_eq!(tight.next_delay(), Duration::from_micros(30));
    }

    #[test]
    fn window_gate_blocks_at_capacity_and_aborts() {
        let gate = WindowGate::new();
        assert!(gate.acquire(2));
        assert!(gate.acquire(2));
        // A third acquire would block; abort from another thread unblocks.
        std::thread::scope(|scope| {
            let gate = &gate;
            let blocked = scope.spawn(move || gate.acquire(2));
            std::thread::sleep(Duration::from_millis(20));
            gate.abort();
            assert!(!blocked.join().unwrap(), "abort must unblock acquire");
        });
        // After abort, acquire always declines.
        gate.release();
        assert!(!gate.acquire(2));
    }
}
