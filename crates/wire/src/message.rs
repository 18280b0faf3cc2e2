//! The top-level message vocabulary of the wire protocol.
//!
//! Every frame on a wire stream carries one [`Message`]. `Eval` ships one
//! node's [`Shipment`] for one round to a worker — a full chunk, only the
//! facts new since the previous round (the worker keeps the node's
//! accumulated state), or nothing at all (the node evaluates over the shard
//! it already holds) — and `EvalResult` carries the node's local output
//! back; `Barrier`/`BarrierAck`/`Shutdown` are the round-control messages
//! the [`WireTransport`](crate::WireTransport) synchronizes rounds with;
//! the `Query`/`Instance`/`Scenario` variants are standalone payloads used
//! by `pcq-analyze encode`/`decode`.

use cq::{ConjunctiveQuery, EvalOptions, Instance, Symbol};
use distribution::{Node, Shipment};
use obs::{EventKind, TraceEvent};

use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use crate::scenario::Scenario;

/// The trace context an eval message carries across the process boundary:
/// enough for the worker to join the coordinator's trace and parent its
/// local spans under the span that shipped the work.
///
/// `trace_id == 0` means tracing is off — workers skip recording and the
/// other fields are meaningless (encoded as zeros).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// The coordinator's active trace id (0 = tracing off).
    pub trace_id: u64,
    /// The coordinator-side span the work item belongs to (0 = root).
    pub parent_span: u64,
    /// The coordinator's trace clock at send time, microseconds — the
    /// worker offsets its monotonic clock onto this timeline
    /// ([`obs::adopt_trace`]).
    pub clock_us: u64,
}

impl TraceContext {
    /// Captures the current trace (id + clock) with `parent_span` as the
    /// remote parent. All-zeros when tracing is off.
    pub fn capture(parent_span: u64) -> TraceContext {
        let trace_id = obs::current_trace();
        if trace_id == 0 {
            return TraceContext::default();
        }
        TraceContext {
            trace_id,
            parent_span,
            clock_us: obs::now_us(),
        }
    }

    /// Whether the context carries an active trace.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// Worker side: joins the carried trace (no-op when inactive).
    pub fn adopt(&self) {
        obs::adopt_trace(self.trace_id, self.clock_us);
    }
}

impl Encode for TraceContext {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.trace_id);
        enc.u64(self.parent_span);
        enc.u64(self.clock_us);
    }
}

impl Decode for TraceContext {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TraceContext {
            trace_id: dec.u64()?,
            parent_span: dec.u64()?,
            clock_us: dec.u64()?,
        })
    }
}

const KIND_SPAN: u8 = 0;
const KIND_INSTANT: u8 = 1;

/// Span names and argument keys are a small fixed vocabulary and go through
/// the symbol dictionary; argument *values* (`facts=4444`, counts, error
/// texts) hardly ever repeat, so they travel as inline strings and are
/// neither interned nor kept in a connection's dictionaries.
impl Encode for TraceEvent {
    fn encode(&self, enc: &mut Encoder) {
        enc.symbol(Symbol::new(&self.name));
        enc.byte(match self.kind {
            EventKind::Span => KIND_SPAN,
            EventKind::Instant => KIND_INSTANT,
        });
        enc.u64(self.ts_us);
        enc.u64(self.dur_us);
        enc.u64(u64::from(self.pid));
        enc.u64(self.tid);
        enc.u64(self.id);
        enc.u64(self.parent);
        enc.usize(self.args.len());
        for (key, value) in &self.args {
            enc.symbol(Symbol::new(key));
            enc.str(value);
        }
    }
}

impl Decode for TraceEvent {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let name = dec.symbol()?.as_str().to_string();
        let kind = match dec.byte()? {
            KIND_SPAN => EventKind::Span,
            KIND_INSTANT => EventKind::Instant,
            tag => {
                return Err(DecodeError::UnknownTag {
                    context: "EventKind",
                    tag,
                })
            }
        };
        let ts_us = dec.u64()?;
        let dur_us = dec.u64()?;
        let pid = u32::try_from(dec.u64()?)
            .map_err(|_| DecodeError::Invalid("trace event pid exceeds u32".to_string()))?;
        let tid = dec.u64()?;
        let id = dec.u64()?;
        let parent = dec.u64()?;
        let len = dec.usize()?;
        if len > dec.remaining() {
            return Err(DecodeError::Truncated);
        }
        let mut args = Vec::with_capacity(len);
        for _ in 0..len {
            let key = dec.symbol()?.as_str().to_string();
            let value = dec.str()?.to_string();
            args.push((key, value));
        }
        Ok(TraceEvent {
            name,
            kind,
            ts_us,
            dur_us,
            pid,
            tid,
            id,
            parent,
            args,
        })
    }
}

/// A complete wire message (the payload of one frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// A standalone conjunctive query.
    Query(ConjunctiveQuery),
    /// A standalone database instance.
    Instance(Instance),
    /// A standalone evaluation scenario.
    Scenario(Scenario),
    /// Coordinator → worker: apply `shipment` to `node` and evaluate
    /// `query` there (what each kind of shipment does to the node is
    /// `distribution::NodeState::apply`).
    Eval {
        /// The query to evaluate locally.
        query: ConjunctiveQuery,
        /// Which evaluator runs it — the worker must honor this exactly, so
        /// a wire round behaves identically to an in-process one.
        options: EvalOptions,
        /// The round the shipment belongs to (guards against stream
        /// desync). A delta of round 0 resets the node's accumulated state.
        round: u64,
        /// The node the shipment is addressed to.
        node: Node,
        /// What the node is sent this round.
        shipment: Shipment,
        /// The coordinator's trace context (all-zeros when tracing is off).
        trace: TraceContext,
    },
    /// Worker → coordinator: one node's local output for one `Eval`.
    EvalResult {
        /// The round of the `Eval` being answered.
        round: u64,
        /// The node answering.
        node: Node,
        /// The node's local output: its full local answer, or for a delta
        /// shipment only the facts it derived for the first time.
        output: Instance,
        /// Local evaluation wall-clock time, in microseconds.
        eval_us: u64,
    },
    /// Coordinator → worker: the round's shipments are all sent.
    Barrier {
        /// The round being closed.
        round: u64,
    },
    /// Worker → coordinator: all of the round's results are flushed.
    BarrierAck {
        /// The round being acknowledged.
        round: u64,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: the first frame on a freshly connected socket.
    /// `worker` echoes the spawn token the coordinator handed the worker on
    /// its command line, so the coordinator can map the anonymous TCP
    /// connection back to the worker slot (and child process) it belongs to.
    Hello {
        /// The worker's slot index in the coordinator's pool.
        worker: u64,
    },
    /// Worker → coordinator: the worker's locally recorded trace events,
    /// flushed just before each `BarrierAck` (and at shutdown). The
    /// coordinator stamps the events with the worker's lane and merges
    /// them into its own timeline. Workers send this only while a trace
    /// is active, so untraced runs pay nothing.
    TraceFlush {
        /// The worker's buffered events since its previous flush.
        events: Vec<TraceEvent>,
    },
}

const TAG_QUERY: u8 = 0;
const TAG_INSTANCE: u8 = 1;
const TAG_SCENARIO: u8 = 2;
const TAG_EVAL: u8 = 3;
const TAG_EVAL_RESULT: u8 = 4;
const TAG_BARRIER: u8 = 5;
const TAG_BARRIER_ACK: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_HELLO: u8 = 8;
const TAG_TRACE_FLUSH: u8 = 9;

impl Message {
    /// A short human-readable name for the message kind (log lines,
    /// protocol errors).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Query(_) => "query",
            Message::Instance(_) => "instance",
            Message::Scenario(_) => "scenario",
            Message::Eval { .. } => "eval",
            Message::EvalResult { .. } => "eval-result",
            Message::Barrier { .. } => "barrier",
            Message::BarrierAck { .. } => "barrier-ack",
            Message::Shutdown => "shutdown",
            Message::Hello { .. } => "hello",
            Message::TraceFlush { .. } => "trace-flush",
        }
    }
}

/// A borrowed view of [`Message::Eval`]: encodes the identical frame bytes
/// without cloning the query or the shipment. The transport ships one of
/// these per node per round, from the shipment it shares with its
/// fault-tolerance ledger.
pub struct EvalRef<'a> {
    /// The query the worker should evaluate.
    pub query: &'a ConjunctiveQuery,
    /// Which evaluator the worker must run.
    pub options: EvalOptions,
    /// The round the shipment belongs to.
    pub round: u64,
    /// The node the shipment is addressed to.
    pub node: Node,
    /// What the node is sent.
    pub shipment: &'a Shipment,
    /// The coordinator's trace context.
    pub trace: TraceContext,
}

impl Encode for EvalRef<'_> {
    fn encode(&self, enc: &mut Encoder) {
        enc.byte(TAG_EVAL);
        self.query.encode(enc);
        self.options.encode(enc);
        enc.u64(self.round);
        self.node.encode(enc);
        self.shipment.encode(enc);
        self.trace.encode(enc);
    }
}

impl Encode for Message {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Message::Query(query) => {
                enc.byte(TAG_QUERY);
                query.encode(enc);
            }
            Message::Instance(instance) => {
                enc.byte(TAG_INSTANCE);
                instance.encode(enc);
            }
            Message::Scenario(scenario) => {
                enc.byte(TAG_SCENARIO);
                scenario.encode(enc);
            }
            Message::Eval {
                query,
                options,
                round,
                node,
                shipment,
                trace,
            } => EvalRef {
                query,
                options: *options,
                round: *round,
                node: *node,
                shipment,
                trace: *trace,
            }
            .encode(enc),
            Message::EvalResult {
                round,
                node,
                output,
                eval_us,
            } => {
                enc.byte(TAG_EVAL_RESULT);
                enc.u64(*round);
                node.encode(enc);
                output.encode(enc);
                enc.u64(*eval_us);
            }
            Message::Barrier { round } => {
                enc.byte(TAG_BARRIER);
                enc.u64(*round);
            }
            Message::BarrierAck { round } => {
                enc.byte(TAG_BARRIER_ACK);
                enc.u64(*round);
            }
            Message::Shutdown => enc.byte(TAG_SHUTDOWN),
            Message::Hello { worker } => {
                enc.byte(TAG_HELLO);
                enc.u64(*worker);
            }
            Message::TraceFlush { events } => {
                enc.byte(TAG_TRACE_FLUSH);
                events.encode(enc);
            }
        }
    }
}

impl Decode for Message {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.byte()? {
            TAG_QUERY => Ok(Message::Query(ConjunctiveQuery::decode(dec)?)),
            TAG_INSTANCE => Ok(Message::Instance(Instance::decode(dec)?)),
            TAG_SCENARIO => Ok(Message::Scenario(Scenario::decode(dec)?)),
            TAG_EVAL => Ok(Message::Eval {
                query: ConjunctiveQuery::decode(dec)?,
                options: EvalOptions::decode(dec)?,
                round: dec.u64()?,
                node: Node::decode(dec)?,
                shipment: Shipment::decode(dec)?,
                trace: TraceContext::decode(dec)?,
            }),
            TAG_EVAL_RESULT => Ok(Message::EvalResult {
                round: dec.u64()?,
                node: Node::decode(dec)?,
                output: Instance::decode(dec)?,
                eval_us: dec.u64()?,
            }),
            TAG_BARRIER => Ok(Message::Barrier { round: dec.u64()? }),
            TAG_BARRIER_ACK => Ok(Message::BarrierAck { round: dec.u64()? }),
            TAG_SHUTDOWN => Ok(Message::Shutdown),
            TAG_HELLO => Ok(Message::Hello { worker: dec.u64()? }),
            TAG_TRACE_FLUSH => Ok(Message::TraceFlush {
                events: Vec::<TraceEvent>::decode(dec)?,
            }),
            tag => Err(DecodeError::UnknownTag {
                context: "Message",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};
    use cq::parse_instance;
    use std::sync::Arc;

    #[test]
    fn every_message_variant_round_trips() {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let instance = parse_instance("R(a, b). R(b, c).").unwrap();
        let eval = |round, node, options, shipment, trace| Message::Eval {
            query: query.clone(),
            options,
            round,
            node: Node::numbered(node),
            shipment,
            trace,
        };
        let traced = TraceContext {
            trace_id: 77,
            parent_span: 12,
            clock_us: 99_000,
        };
        let facts = Arc::new(instance.clone());
        let messages = [
            Message::Query(query.clone()),
            Message::Instance(instance.clone()),
            eval(
                3,
                1,
                EvalOptions::default(),
                Shipment::Full(facts.clone()),
                traced,
            ),
            eval(
                4,
                2,
                EvalOptions::ScanOracle,
                Shipment::Delta(facts),
                TraceContext::default(),
            ),
            eval(0, 4, EvalOptions::ScanOracle, Shipment::Resident, traced),
            Message::EvalResult {
                round: 4,
                node: Node::numbered(2),
                output: instance,
                eval_us: 1234,
            },
            Message::Barrier { round: 7 },
            Message::BarrierAck { round: 7 },
            Message::Shutdown,
            Message::Hello { worker: 3 },
            Message::TraceFlush {
                events: vec![
                    TraceEvent {
                        name: "eval_chunk".to_string(),
                        kind: EventKind::Span,
                        ts_us: 10,
                        dur_us: 25,
                        pid: 0,
                        tid: 2,
                        id: 9,
                        parent: 4,
                        args: vec![
                            ("node".to_string(), "n1".to_string()),
                            ("facts".to_string(), "4444".to_string()),
                            ("error".to_string(), "ошибка: ∅ → \"x\"".to_string()),
                            ("empty".to_string(), String::new()),
                            ("long".to_string(), "v".repeat(300)),
                        ],
                    },
                    TraceEvent {
                        name: "requeue".to_string(),
                        kind: EventKind::Instant,
                        ts_us: 40,
                        dur_us: 0,
                        pid: 3,
                        tid: 1,
                        id: 4,
                        parent: 0,
                        args: vec![],
                    },
                ],
            },
            Message::TraceFlush { events: vec![] },
        ];
        for message in &messages {
            let frame = encode_frame(message);
            let back: Message = decode_frame(&frame).unwrap();
            assert_eq!(&back, message, "{} failed to round-trip", message.kind());
        }
    }

    /// The borrowed and the owned eval frame of one shipment.
    fn borrowed_and_owned(shipment: Shipment) -> (Vec<u8>, Vec<u8>) {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let (options, round, node) = (EvalOptions::ScanOracle, 2, Node::numbered(3));
        let trace = TraceContext {
            trace_id: 3,
            parent_span: 8,
            clock_us: 500,
        };
        let borrowed = encode_frame(&EvalRef {
            query: &query,
            options,
            round,
            node,
            shipment: &shipment,
            trace,
        });
        let owned = encode_frame(&Message::Eval {
            query,
            options,
            round,
            node,
            shipment,
            trace,
        });
        (borrowed, owned)
    }

    #[test]
    fn borrowed_eval_chunk_encodes_the_identical_frame() {
        let chunk = Arc::new(parse_instance("R(a, b). R(b, c).").unwrap());
        let (borrowed, owned) = borrowed_and_owned(Shipment::Full(chunk));
        assert_eq!(borrowed, owned);
        // a resident request is that frame without its facts
        let (resident, owned) = borrowed_and_owned(Shipment::Resident);
        assert_eq!(resident, owned);
        assert!(resident.len() < borrowed.len());
    }

    #[test]
    fn borrowed_eval_delta_encodes_the_identical_frame() {
        let delta = Arc::new(parse_instance("R(a, b).").unwrap());
        let (borrowed, owned) = borrowed_and_owned(Shipment::Delta(delta.clone()));
        assert_eq!(borrowed, owned);
        // and differs from the full chunk of the same facts in its kind byte
        let (full, _) = borrowed_and_owned(Shipment::Full(delta));
        assert_eq!(borrowed.len(), full.len());
        assert_ne!(borrowed, full);
    }

    #[test]
    fn trace_argument_values_travel_inline_not_through_the_dictionary() {
        let event = |facts: u64| TraceEvent {
            name: "worker_eval_chunk".to_string(),
            kind: EventKind::Span,
            ts_us: 10,
            dur_us: 25,
            pid: 0,
            tid: 2,
            id: 9,
            parent: 4,
            args: vec![
                ("node".to_string(), format!("n{facts}")),
                ("facts".to_string(), facts.to_string()),
            ],
        };
        // One connection, two flushes: the span name and the two argument
        // keys enter the dictionaries once; no value ever does, so a long
        // traced run cannot grow them (or the receiver's interner).
        let mut encoder = Encoder::new();
        let mut dictionary = crate::codec::Dictionary::new();
        for flush in [
            vec![event(4444), event(4445)],
            vec![event(4446)],
            vec![event(u64::MAX)],
        ] {
            let message = Message::TraceFlush { events: flush };
            let body = crate::codec::encode_body_with(&mut encoder, &message);
            let back: Message = crate::codec::decode_body_with(&mut dictionary, &body).unwrap();
            assert_eq!(back, message);
            assert_eq!(encoder.dictionary_len(), 3);
            assert_eq!(dictionary.len(), 3);
        }
    }

    #[test]
    fn truncated_trace_flush_frames_error_without_panicking() {
        let flush = Message::TraceFlush {
            events: vec![TraceEvent {
                name: "eval_chunk".to_string(),
                kind: EventKind::Span,
                ts_us: 10,
                dur_us: 25,
                pid: 0,
                tid: 2,
                id: 9,
                parent: 4,
                args: vec![
                    ("node".to_string(), "n1".to_string()),
                    ("facts".to_string(), "4444".to_string()),
                ],
            }],
        };
        let frame = encode_frame(&flush);
        // Every proper prefix must decode to an error, never a panic.
        for cut in 0..frame.len() {
            assert!(
                decode_frame::<Message>(&frame[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
        // Corrupting the event-count varint to a huge value must be caught
        // by the remaining-bytes pre-check, not attempt a giant allocation.
        let mut enc = Encoder::new();
        enc.byte(super::TAG_TRACE_FLUSH);
        enc.usize(usize::MAX / 2);
        let body = enc.finish();
        let err = crate::codec::decode_body::<Message>(&body).unwrap_err();
        assert_eq!(err, DecodeError::Truncated);

        // The last argument value is the inline string `4444` at the very
        // end of the body: a length running past the payload and bytes
        // that are not UTF-8 are typed errors too.
        let body = crate::codec::encode_body(&flush);
        let (head, value) = body.split_at(body.len() - 5);
        assert_eq!(value, b"\x044444");
        let mut overlong = head.to_vec();
        overlong.extend_from_slice(b"\x054444");
        assert_eq!(
            crate::codec::decode_body::<Message>(&overlong),
            Err(DecodeError::Truncated)
        );
        let mut not_utf8 = head.to_vec();
        not_utf8.extend_from_slice(b"\x0444\xff\xfe");
        assert_eq!(
            crate::codec::decode_body::<Message>(&not_utf8),
            Err(DecodeError::InvalidUtf8)
        );
    }

    #[test]
    fn unknown_message_tags_error() {
        let mut enc = Encoder::new();
        enc.byte(200);
        let body = enc.finish();
        let err = crate::codec::decode_body::<Message>(&body).unwrap_err();
        assert_eq!(
            err,
            DecodeError::UnknownTag {
                context: "Message",
                tag: 200
            }
        );
    }
}
