//! The transport seam: how a round's shipments reach the nodes.
//!
//! [`Transport`] factors the *shipping* side of a round out of the
//! engines: the engine decides what every node is sent (a [`Shipment`]),
//! the transport gets it evaluated *somewhere* (in this process, in a
//! worker subprocess, on another machine), and the engine collects the
//! per-node results after a barrier. A round through a transport is always
//! the same four-step conversation:
//!
//! ```text
//! begin_round(r, Q)        announce the round and its query
//! send(node, shipment) …   at most one shipment per node
//! barrier()                wait until every node finished evaluating
//! recv(node) …             collect every node's local output, once
//! ```
//!
//! What a node does with a shipment is written down exactly once, in
//! [`NodeState::apply`]: a [`Shipment::Full`] chunk is evaluated and
//! becomes the node's shard (superseding whatever it held), a
//! [`Shipment::Delta`] is absorbed into persistent incremental state (a
//! [`DeltaNode`]; round 0 starts it from empty, so one transport
//! can serve several runs) and answered with only the facts derived for
//! the first time, and [`Shipment::Resident`] evaluates over the shard the
//! node already holds without receiving anything. A shard left by a split
//! round holds atom parts (`R#k`, see [`crate::parts`]) and keeps them: a
//! resident round's query reads the parts itself, which is how a
//! reshuffle-elided query runs over the split shards of its anchor, each of
//! its valuations at one node. [`InMemoryTransport`]
//! calls it from its pool drain; the wire worker loop
//! (`wire::run_worker`) calls it from its one eval arm — so in-process and
//! cross-process nodes cannot drift apart.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cq::{evaluate, ConjunctiveQuery, Instance};

use crate::network::Node;
use crate::node::DeltaNode;

/// Errors raised by a [`Transport`].
///
/// The in-memory transport never fails; process-backed transports surface
/// spawn, pipe and protocol failures through this type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// An I/O error talking to a worker (pipe closed, spawn failed, …).
    Io(String),
    /// The peer violated the wire protocol (unexpected message, bad frame).
    Protocol(String),
    /// A chunk was requested for a node the transport never received
    /// (or was asked for twice).
    UnknownNode(Node),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(detail) => write!(f, "transport I/O error: {detail}"),
            TransportError::Protocol(detail) => write!(f, "transport protocol error: {detail}"),
            TransportError::UnknownNode(node) => {
                write!(f, "transport has no result for node {node}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// What one round sends to one node. The facts sit behind an [`Arc`] so
/// queueing a shipment, remembering it for fault recovery and sharing one
/// broadcast chunk between nodes never copy it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shipment {
    /// The node's whole portion of `dist_P(I)`. It replaces whatever the
    /// node held before.
    Full(Arc<Instance>),
    /// Only the facts assigned to the node that are new since the previous
    /// round; the node keeps its accumulated state across rounds and
    /// answers with the facts it derived for the first time. A delta sent
    /// in round 0 starts the node from an empty state.
    Delta(Arc<Instance>),
    /// Nothing: the node evaluates the round's query over the shard it
    /// **already holds**, a split round's atom parts included. This is the
    /// reshuffle-elision primitive — when parallel correctness transfers
    /// from the query that produced the resident shards, the new query's
    /// answer is the union of these per-node results.
    Resident,
}

impl Shipment {
    /// How many facts the shipment carries (`0` for [`Shipment::Resident`]).
    pub fn len(&self) -> usize {
        match self {
            Shipment::Full(facts) | Shipment::Delta(facts) => facts.len(),
            Shipment::Resident => 0,
        }
    }

    /// Whether the shipment carries no facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The name of the span an in-process evaluation of this shipment runs
    /// under (trace tooling attributes compute time by these names).
    fn eval_span(&self) -> &'static str {
        match self {
            Shipment::Full(_) => "eval_chunk",
            Shipment::Delta(_) => "eval_delta",
            Shipment::Resident => "eval_resident",
        }
    }
}

/// What one node holds between rounds, and the one place that says what a
/// [`Shipment`] does to it.
#[derive(Debug, Default)]
pub enum NodeState {
    /// Never shipped anything: the node holds the empty shard.
    #[default]
    Empty,
    /// The last full chunk the node evaluated.
    Chunk(Arc<Instance>),
    /// The accumulated state of an incremental run (boxed: it is far
    /// larger than the other variants, and states move in and out of the
    /// node map every round).
    Incremental(Box<DeltaNode>),
}

impl NodeState {
    /// Applies `shipment` to the node and returns its local output for the
    /// round: the full local answer for [`Shipment::Full`] and
    /// [`Shipment::Resident`], only the first-time derivations for
    /// [`Shipment::Delta`]. `round` is the round as announced to the
    /// transport; it matters only to deltas, where `0` resets the node.
    pub fn apply(&mut self, round: u64, query: &ConjunctiveQuery, shipment: Shipment) -> Instance {
        match shipment {
            Shipment::Full(chunk) => {
                let output = evaluate(query, &chunk);
                *self = NodeState::Chunk(chunk);
                output
            }
            Shipment::Delta(delta) => {
                if round == 0 || !matches!(self, NodeState::Incremental(_)) {
                    *self = NodeState::Incremental(Box::default());
                }
                let NodeState::Incremental(state) = self else {
                    unreachable!("the node was just made incremental");
                };
                state.step(query, &delta)
            }
            Shipment::Resident => match self {
                NodeState::Empty => evaluate(query, &Instance::new()),
                NodeState::Chunk(chunk) => evaluate(query, chunk),
                NodeState::Incremental(state) => evaluate(query, state.data()),
            },
        }
    }
}

/// One node's local evaluation result, as returned by [`Transport::recv`].
#[derive(Clone, Debug)]
pub struct NodeResult {
    /// The node's local query output.
    pub output: Instance,
    /// Wall-clock time of the node's local evaluation (as measured by
    /// whoever evaluated the shipment — a pool worker or a subprocess).
    pub eval_time: Duration,
}

/// A pluggable mechanism for shipping a round's [`Shipment`]s to nodes and
/// collecting their local evaluation results (see the module docs for the
/// conversation).
///
/// Implementations may evaluate eagerly on `send` or lazily at the
/// `barrier`; callers must not read results before the barrier returns.
pub trait Transport {
    /// Announces a new round: `query` is what every node will evaluate.
    fn begin_round(&mut self, round: usize, query: &ConjunctiveQuery)
        -> Result<(), TransportError>;

    /// Ships `shipment` to `node` (at most one shipment per node per
    /// round); what the node does with it is [`NodeState::apply`].
    fn send(&mut self, node: Node, shipment: Shipment) -> Result<(), TransportError>;

    /// Blocks until every shipment sent this round has been evaluated.
    fn barrier(&mut self) -> Result<(), TransportError>;

    /// Collects `node`'s local output for the round. Each node's result can
    /// be received exactly once, after the [`Transport::barrier`].
    fn recv(&mut self, node: Node) -> Result<NodeResult, TransportError>;

    /// Bytes actually serialized onto a process boundary since the last
    /// call (taking resets the counter), in **both** directions: the wire
    /// transport counts coordinator→worker eval frames and the
    /// worker→coordinator result frames they provoke (round-control
    /// frames are O(1) per round and excluded). In-process transports
    /// ship no bytes and report 0 — the honest answer, not an estimate.
    fn take_bytes_shipped(&mut self) -> u64 {
        0
    }

    /// How many shipments the transport can evaluate concurrently (pool
    /// workers, subprocesses, …) — reporting only; `1` means sequential.
    fn parallelism(&self) -> usize {
        1
    }
}

/// Drains `items` through `f` on a bounded pool: `workers` scoped threads
/// steal the next unclaimed item index from a shared atomic cursor until
/// the queue is empty (`workers <= 1` runs on the calling thread).
/// Results arrive in completion order. The pool's threads work under the
/// span the caller has open.
fn drain_pool<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let parent = obs::current_span();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _entered = obs::enter(parent);
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        mine.push(f(item));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("local evaluation panicked"))
            .collect()
    })
}

/// The in-process [`Transport`]: buffers shipments as they are sent and
/// evaluates them at the barrier on a bounded worker pool of scoped OS
/// threads (`workers <= 1` evaluates sequentially on the calling thread).
/// It is infallible and allocates nothing beyond the chunks themselves.
pub struct InMemoryTransport {
    workers: usize,
    query: Option<ConjunctiveQuery>,
    round: u64,
    pending: Vec<(Node, Shipment)>,
    ready: BTreeMap<Node, NodeResult>,
    /// What every node holds between rounds.
    nodes: BTreeMap<Node, NodeState>,
    /// The transport's metrics registry (the `chunk_facts` histogram).
    registry: Arc<obs::Registry>,
}

impl InMemoryTransport {
    /// A transport evaluating on a pool of up to `workers` threads.
    pub fn new(workers: usize) -> InMemoryTransport {
        InMemoryTransport {
            workers: workers.max(1),
            query: None,
            round: 0,
            pending: Vec::new(),
            ready: BTreeMap::new(),
            nodes: BTreeMap::new(),
            registry: Arc::new(obs::Registry::new()),
        }
    }

    /// The transport's metrics registry.
    pub fn registry(&self) -> Arc<obs::Registry> {
        self.registry.clone()
    }
}

impl Transport for InMemoryTransport {
    fn begin_round(
        &mut self,
        round: usize,
        query: &ConjunctiveQuery,
    ) -> Result<(), TransportError> {
        self.query = Some(query.clone());
        self.round = round as u64;
        self.pending.clear();
        self.ready.clear();
        Ok(())
    }

    fn send(&mut self, node: Node, shipment: Shipment) -> Result<(), TransportError> {
        if !matches!(shipment, Shipment::Resident) {
            self.registry
                .histogram("chunk_facts")
                .record(shipment.len() as u64);
        }
        self.pending.push((node, shipment));
        Ok(())
    }

    /// Drains the round's shipments through [`NodeState::apply`] on the
    /// pool. Each node's state is taken out of the map for the duration of
    /// its job and reinstated with the result.
    fn barrier(&mut self) -> Result<(), TransportError> {
        let query = self
            .query
            .clone()
            .ok_or_else(|| TransportError::Protocol("barrier before begin_round".into()))?;
        let pending = std::mem::take(&mut self.pending);
        let _span = obs::span!("barrier", round = self.round, chunks = pending.len());
        let jobs: Vec<Mutex<Option<(Node, Shipment, NodeState)>>> = pending
            .into_iter()
            .map(|(node, shipment)| {
                let state = self.nodes.remove(&node).unwrap_or_default();
                Mutex::new(Some((node, shipment, state)))
            })
            .collect();
        // The pool is bounded by the job count: asking for more workers
        // than shipments costs nothing.
        let workers = self.workers.min(jobs.len()).max(1);
        let round = self.round;
        let done = drain_pool(&jobs, workers, |slot| {
            let (node, shipment, mut state) = slot
                .lock()
                .expect("a pool worker panicked holding its job")
                .take()
                .expect("each job is drained exactly once");
            let _span = obs::span!(shipment.eval_span(), node = node, facts = shipment.len());
            let start = Instant::now();
            let output = state.apply(round, &query, shipment);
            let eval_time = start.elapsed();
            (node, state, NodeResult { output, eval_time })
        });
        for (node, state, result) in done {
            self.nodes.insert(node, state);
            self.ready.insert(node, result);
        }
        Ok(())
    }

    fn recv(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        self.ready
            .remove(&node)
            .ok_or(TransportError::UnknownNode(node))
    }

    fn parallelism(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitPolicy;
    use crate::network::Network;
    use crate::policy::DistributionPolicy;
    use cq::parse_instance;

    fn two_hop() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap()
    }

    fn full(text: &str) -> Shipment {
        Shipment::Full(Arc::new(parse_instance(text).unwrap()))
    }

    fn delta(text: &str) -> Shipment {
        Shipment::Delta(Arc::new(parse_instance(text).unwrap()))
    }

    /// Applies `shipment` to `state` as round `round` of the two-hop query.
    fn apply(state: &mut NodeState, round: u64, shipment: Shipment) -> Instance {
        state.apply(round, &two_hop(), shipment)
    }

    /// One single-node round of the two-hop query through the transport.
    fn round(
        transport: &mut InMemoryTransport,
        round: usize,
        node: Node,
        shipment: Shipment,
    ) -> Instance {
        transport.begin_round(round, &two_hop()).unwrap();
        transport.send(node, shipment).unwrap();
        transport.barrier().unwrap();
        transport.recv(node).unwrap().output
    }

    #[test]
    fn in_memory_transport_round_trips_chunks() {
        let q = two_hop();
        let i = parse_instance("R(a, b). S(b, c). R(c, d). S(d, e).").unwrap();
        let network = Network::with_size(2);
        let policy = ExplicitPolicy::broadcast(&network, &i);
        let dist = policy.distribute(&i);

        for workers in [1, 3] {
            let mut transport = InMemoryTransport::new(workers);
            transport.begin_round(0, &q).unwrap();
            for (node, chunk) in dist.chunks() {
                transport
                    .send(node, Shipment::Full(Arc::new(chunk.clone())))
                    .unwrap();
            }
            transport.barrier().unwrap();
            for node in network.nodes() {
                let result = transport.recv(node).unwrap();
                assert_eq!(result.output, cq::evaluate(&q, &i));
            }
        }
    }

    #[test]
    fn recv_without_send_reports_unknown_node() {
        let mut transport = InMemoryTransport::new(1);
        transport.begin_round(0, &two_hop()).unwrap();
        transport.barrier().unwrap();
        let node = Node::numbered(9);
        assert!(matches!(
            transport.recv(node),
            Err(TransportError::UnknownNode(n)) if n == node
        ));
    }

    #[test]
    fn barrier_before_begin_round_is_a_protocol_error() {
        let mut transport = InMemoryTransport::new(1);
        assert!(matches!(
            transport.barrier(),
            Err(TransportError::Protocol(_))
        ));
    }

    #[test]
    fn delta_rounds_accumulate_state_across_rounds() {
        let mut state = NodeState::default();
        // Round 0: R only — no joins yet.
        assert!(apply(&mut state, 0, delta("R(a, b).")).is_empty());
        // Round 1: the S half arrives; the join closes against the state
        // retained from round 0.
        assert_eq!(
            apply(&mut state, 1, delta("S(b, c).")),
            parse_instance("T(a, c).").unwrap()
        );
        // Round 2: a re-announced fact derives nothing new.
        assert!(apply(&mut state, 2, delta("R(a, b).")).is_empty());
    }

    #[test]
    fn delta_round_zero_resets_per_node_state() {
        let mut state = NodeState::default();
        for _run in 0..2 {
            // If state leaked between runs, the second run's round-1 output
            // would be empty (T(a, c) already shipped by the first run).
            assert!(apply(&mut state, 0, delta("R(a, b).")).is_empty());
            assert_eq!(
                apply(&mut state, 1, delta("S(b, c).")),
                parse_instance("T(a, c).").unwrap()
            );
        }
    }

    #[test]
    fn resident_rounds_reuse_chunks_from_the_previous_query() {
        let loop_q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z), R(y, y).").unwrap();
        let path_q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let i = parse_instance("R(a, a). R(a, b). R(b, c).").unwrap();
        let mut state = NodeState::default();
        let first = state.apply(0, &loop_q, Shipment::Full(Arc::new(i.clone())));
        assert_eq!(first, cq::evaluate(&loop_q, &i));
        // The next query runs over the shard the chunk left behind — no
        // facts travel in this round.
        let second = state.apply(0, &path_q, Shipment::Resident);
        assert_eq!(second, cq::evaluate(&path_q, &i));
    }

    #[test]
    fn resident_rounds_prefer_accumulated_delta_state() {
        let mut state = NodeState::default();
        apply(&mut state, 0, full("S(b, c)."));
        // A round-0 delta supersedes the full chunk (and drops it) …
        apply(&mut state, 0, delta("R(a, b)."));
        assert!(apply(&mut state, 0, Shipment::Resident).is_empty());
        apply(&mut state, 1, delta("S(b, c)."));
        // … and the resident shard is the full accumulated state, not just
        // the last delta.
        assert_eq!(
            apply(&mut state, 0, Shipment::Resident),
            parse_instance("T(a, c).").unwrap()
        );
        // A full chunk in turn supersedes the incremental state.
        apply(&mut state, 5, full("R(a, b)."));
        assert!(matches!(state, NodeState::Chunk(_)));
        assert!(apply(&mut state, 0, Shipment::Resident).is_empty());
    }

    #[test]
    fn resident_round_on_an_unknown_node_yields_empty_output() {
        let mut transport = InMemoryTransport::new(1);
        let node = Node::numbered(7);
        assert!(round(&mut transport, 0, node, Shipment::Resident).is_empty());
    }

    #[test]
    fn node_result_eq_needs_no_derive() {
        // NodeResult intentionally has no PartialEq (durations differ run to
        // run); equality checks go through `.output`.
        let mut transport = InMemoryTransport::new(2);
        let node = Node::numbered(0);
        let chunk = full("R(a, b). S(b, c).");
        let out = round(&mut transport, 0, node, chunk);
        assert_eq!(out.len(), 1);
        // a second recv for the same node is an error (results are moved out)
        assert!(transport.recv(node).is_err());
    }
}
