//! Workers over stdio pipes, and the worker loop itself.
//!
//! [`WireTransport::spawn_pipes`] spawns a pool of worker subprocesses
//! (normally this same executable re-invoked as `pcq-analyze worker`) and
//! hands their stdin/stdout pipes to the pipelined driver (see
//! [`crate::driver`]), which ships binary-encoded [`Message`] frames:
//!
//! ```text
//! coordinator                        worker k
//!   Eval{query, shipment}    ──────▶  evaluate locally
//!   Eval{query, shipment}    ──────▶  (up to `window` in flight)
//!   …                        ◀──────  EvalResult{output, eval_us}
//!   Barrier{round}           ──────▶
//!                            ◀──────  BarrierAck{round}
//!   (Drop) Shutdown          ──────▶  exit 0
//! ```
//!
//! Workers persist across rounds — a multi-round run pays the spawn cost
//! once. [`run_worker`] is the other side: the read-eval-respond loop
//! behind the `pcq-analyze worker` subcommand, whichever byte stream it
//! is reached over. It owns the worker's halves of the connection's two
//! name dictionaries (see [`crate::codec`]) for as long as it runs: a
//! relation, variable or node name the coordinator has sent once, or the
//! worker has answered once, is an index from then on. Data values have no
//! part in that: a worker receives them as the coordinator's ids, holds
//! them opaque and sends the same ids back — it never learns a value's name.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use distribution::{Node, NodeState, Shipment, TransportError};

use crate::codec::{decode_body_with, Dictionary, Encoder};
use crate::driver::{Endpoint, StderrTail, WireTransport};
use crate::frame::{read_body, write_frame};
use crate::message::Message;

impl WireTransport {
    /// Spawns one subprocess of `program` per argument list and talks to
    /// each over its stdio pipes. Every worker normally gets `["worker"]`;
    /// separate lists let individual workers carry extra flags
    /// (fault-injection tests give one worker `--fail-after N`).
    pub fn spawn_pipes(
        program: &Path,
        per_worker_args: &[Vec<String>],
    ) -> Result<WireTransport, TransportError> {
        let mut endpoints = Vec::with_capacity(per_worker_args.len());
        let mut children = Vec::with_capacity(per_worker_args.len());
        let mut tails = Vec::with_capacity(per_worker_args.len());
        for args in per_worker_args {
            let mut child = Command::new(program)
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| {
                    TransportError::Io(format!("cannot spawn worker {}: {e}", program.display()))
                })?;
            let stdin = child
                .stdin
                .take()
                .ok_or_else(|| TransportError::Io("worker stdin not piped".to_string()))?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| TransportError::Io("worker stdout not piped".to_string()))?;
            // Keep the worker's stderr instead of inheriting it: the tail
            // is appended to the round error if the worker dies, so panic
            // messages are not lost with the process.
            tails.push(child.stderr.take().map(StderrTail::capture));
            endpoints.push(Endpoint::new(stdin, stdout));
            children.push(Some(child));
        }
        Ok(WireTransport::new(endpoints, children, tails))
    }
}

/// The worker side of the protocol: reads [`Message`] frames from `input`,
/// applies every `Eval` frame's [`Shipment`] to the addressed node's
/// [`NodeState`] (what each shipment does to the node is
/// [`NodeState::apply`], shared with the in-memory transport) and replies
/// with the node's output;
/// acknowledges `Barrier`s, and exits on `Shutdown` or a clean EOF.
/// Returns an error message on protocol or I/O failure (the CLI maps it to
/// a non-zero exit).
///
/// Two test knobs, exposed as `pcq-analyze worker --fail-after N` and
/// `--slow-eval-us N`: with `fail_after = Some(n)` the worker processes
/// `n` eval jobs normally and then dies on the next one — it returns an
/// error *without replying*, guaranteeing an unacknowledged job for the
/// coordinator's requeue path (barriers don't count, so the death point
/// is deterministic); `slow_eval_us > 0` sleeps that long inside every
/// eval span, so a deliberately slowed worker shows up in traces as grown
/// `worker_eval_*` phases — the fixture behind `trace diff`'s
/// regression-detection tests.
pub fn run_worker(
    input: impl Read,
    output: impl Write,
    fail_after: Option<u64>,
    slow_eval_us: u64,
) -> Result<(), String> {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);
    let mut dictionary = Dictionary::worker();
    let mut encoder = Encoder::connection();
    let mut nodes: BTreeMap<Node, NodeState> = BTreeMap::new();
    let mut evals_seen = 0u64;
    loop {
        let bad_frame = |e| format!("bad frame on worker stdin: {e}");
        let Some((body, _)) = read_body(&mut input).map_err(bad_frame)? else {
            return Ok(());
        };
        // Timed by hand: whether the run is traced is inside the frame.
        let decode_started = Instant::now();
        let message = decode_body_with::<Message>(&mut dictionary, &body).map_err(bad_frame)?;
        let decode_time = decode_started.elapsed();
        let (query, round, node, shipment, trace) = match message {
            Message::Eval {
                query,
                round,
                node,
                shipment,
                trace,
            } => (query, round, node, shipment, trace),
            Message::Barrier { round } => {
                // Flush this round's trace buffers to the coordinator
                // right before the ack — the driver absorbs `TraceFlush`
                // frames while waiting for the barrier.
                if obs::enabled() {
                    let events = obs::take_events();
                    if !events.is_empty() {
                        write_frame(&mut output, &mut encoder, &Message::TraceFlush { events })
                            .map_err(|e| e.to_string())?;
                    }
                }
                write_frame(&mut output, &mut encoder, &Message::BarrierAck { round })
                    .map_err(|e| e.to_string())?;
                continue;
            }
            Message::Shutdown => return Ok(()),
            other => return Err(format!("unexpected {} message on a worker", other.kind())),
        };
        evals_seen += 1;
        if fail_after.is_some_and(|limit| evals_seen > limit) {
            return Err(format!(
                "injected fault: worker dying on eval job {evals_seen}"
            ));
        }
        trace.adopt();
        // Everything this frame does is the work of the coordinator span
        // that shipped it.
        let _entered = obs::enter(trace.parent_span);
        obs::span_ended("worker_decode", decode_time, || {
            vec![
                ("node".to_string(), node.to_string()),
                ("facts".to_string(), shipment.len().to_string()),
                ("bytes".to_string(), body.len().to_string()),
            ]
        });
        let span_name = match shipment {
            Shipment::Full(_) => "worker_eval_chunk",
            Shipment::Delta(_) => "worker_eval_delta",
            Shipment::Resident => "worker_eval_resident",
        };
        let start = Instant::now();
        let span = obs::span!(
            span_name,
            node = node,
            round = round,
            facts = shipment.len()
        );
        if slow_eval_us > 0 {
            // Inside the span, so the injected latency is attributed to
            // the eval phase exactly like a genuinely slow eval.
            std::thread::sleep(std::time::Duration::from_micros(slow_eval_us));
        }
        let local = nodes
            .entry(node)
            .or_default()
            .apply(round, &query, shipment);
        drop(span);
        let reply = Message::EvalResult {
            round,
            node,
            output: local,
            eval_us: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        };
        write_frame(&mut output, &mut encoder, &reply).map_err(|e| e.to_string())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame_with, read_frame};
    use crate::message::TraceContext;
    use cq::{ConjunctiveQuery, Fact, Instance};
    use std::sync::Arc;

    /// Drives `run_worker` entirely in memory (no subprocess): feed it a
    /// frame script, collect its reply frames.
    fn worker_script(messages: &[Message]) -> Result<Vec<Message>, String> {
        worker_script_with_fault(messages, None).0
    }

    /// Like [`worker_script`] but with fault injection, and always
    /// returning whatever replies made it out before a failure. The script
    /// and the replies are one worker connection, this end the
    /// coordinator's: values cross as this process's ids, and each
    /// direction's names through one dictionary from its first frame to its
    /// last.
    fn worker_script_with_fault(
        messages: &[Message],
        fail_after: Option<u64>,
    ) -> (Result<Vec<Message>, String>, Vec<Message>) {
        let mut input = Vec::new();
        let mut encoder = Encoder::connection();
        for m in messages {
            input.extend(encode_frame_with(&mut encoder, m));
        }
        let mut output = Vec::new();
        let run = run_worker(std::io::Cursor::new(input), &mut output, fail_after, 0);
        let mut replies = Vec::new();
        let mut cursor = std::io::Cursor::new(output);
        let mut dictionary = Dictionary::coordinator();
        while let Ok(Some(m)) = read_frame::<Message>(&mut cursor, &mut dictionary) {
            replies.push(m);
        }
        (run.map(|()| replies.clone()), replies)
    }

    /// An untraced eval frame.
    fn eval(query: &ConjunctiveQuery, round: u64, node: Node, shipment: Shipment) -> Message {
        Message::Eval {
            query: query.clone(),
            round,
            node,
            shipment,
            trace: TraceContext::default(),
        }
    }

    fn full(text: &str) -> Shipment {
        Shipment::Full(Arc::new(cq::parse_instance(text).unwrap()))
    }

    /// The node and output of an eval result.
    fn result_of(message: &Message) -> (Node, &Instance) {
        match message {
            Message::EvalResult { node, output, .. } => (*node, output),
            other => panic!("expected an eval-result, got {}", other.kind()),
        }
    }

    #[test]
    fn worker_evaluates_chunks_and_acks_barriers() {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let chunk = cq::parse_instance("R(a, b). R(b, c).").unwrap();
        let replies = worker_script(&[
            eval(&query, 0, Node::numbered(0), full("R(a, b). R(b, c).")),
            Message::Barrier { round: 0 },
            Message::Shutdown,
        ])
        .unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(
            result_of(&replies[0]),
            (Node::numbered(0), &cq::evaluate(&query, &chunk))
        );
        assert_eq!(replies[1], Message::BarrierAck { round: 0 });
    }

    #[test]
    fn frame_lengths_do_not_depend_on_value_names() {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let varint_len = |value: u64| crate::codec::encode_body(&value).len() - 1;
        let id_bytes = |instance: &Instance| -> usize {
            let values = instance.facts().flat_map(|fact| fact.values.iter());
            values.map(|value| varint_len(value.id().into())).sum()
        };
        // The lengths of an eval frame and of its eval-result frame, less
        // the bytes of their value ids (two vocabularies cannot have the
        // same ids) and of the measured `eval_us`.
        let lengths = |suffix: &str| {
            let name = |i: usize| format!("nf{i}{suffix}");
            let chunk = Arc::new(Instance::from_facts(
                (0..40).map(|i| Fact::from_names("R", &[&name(i), &name(i + 1)])),
            ));
            let request = eval(&query, 0, Node::numbered(0), Shipment::Full(chunk.clone()));
            let frame = encode_frame_with(&mut Encoder::connection(), &request);
            assert!(!frame.windows(3).any(|bytes| bytes == b"nf1"));
            let mut output = Vec::new();
            run_worker(std::io::Cursor::new(&frame), &mut output, None, 0).unwrap();
            assert!(!output.windows(3).any(|bytes| bytes == b"nf1"));
            let reply = read_frame::<Message>(
                &mut std::io::Cursor::new(&output),
                &mut Dictionary::coordinator(),
            );
            let Ok(Some(Message::EvalResult {
                output: answers,
                eval_us,
                ..
            })) = reply
            else {
                panic!("expected an eval-result, got {reply:?}")
            };
            assert_eq!(answers, cq::evaluate(&query, &chunk));
            assert_eq!(answers.len(), 39);
            (
                frame.len() - id_bytes(&chunk),
                output.len() - id_bytes(&answers) - varint_len(eval_us),
            )
        };
        assert_eq!(lengths(""), lengths(&"x".repeat(100)));
    }

    #[test]
    fn an_opaque_value_round_trips_through_a_worker_reply() {
        // What a worker holds it can send back: the id, not a name.
        let held = Instance::from_facts([Fact::new(
            "Held",
            vec![
                cq::Value::opaque(7).unwrap(),
                cq::Value::opaque(300).unwrap(),
            ],
        )]);
        assert_eq!(held.to_string(), "{Held(#7, #300)}");
        let body = crate::codec::encode_body_with(&mut Encoder::connection(), &held);
        assert_eq!(body[body.len() - 3..], [7, 0xac, 0x02]);
        let back = crate::codec::decode_body_with::<Instance>(&mut Dictionary::worker(), &body);
        assert_eq!(back, Ok(held));
    }

    #[test]
    fn worker_exits_cleanly_on_eof() {
        assert_eq!(worker_script(&[]), Ok(vec![]));
    }

    #[test]
    fn worker_rejects_garbage_and_misdirected_messages() {
        let mut output = Vec::new();
        let garbage = std::io::Cursor::new(b"not a frame".to_vec());
        let err = run_worker(garbage, &mut output, None, 0).unwrap_err();
        assert!(err.contains("bad frame"), "{err}");

        let err = worker_script(&[Message::BarrierAck { round: 0 }]).unwrap_err();
        assert!(err.contains("unexpected"), "{err}");
    }

    #[test]
    fn fault_injection_dies_on_the_exact_eval_job_without_replying() {
        let query = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        let eval = |node| eval(&query, 0, Node::numbered(node), full("R(a, b). R(b, c)."));
        // Barriers must not count toward the limit: with fail-after 2 the
        // worker answers two evals (and the barrier between them), then
        // dies on the third eval without replying to it.
        let script = [
            eval(0),
            Message::Barrier { round: 0 },
            eval(1),
            eval(2),
            Message::Shutdown,
        ];
        let (run, replies) = worker_script_with_fault(&script, Some(2));
        let err = run.unwrap_err();
        assert!(err.contains("injected fault"), "{err}");
        assert_eq!(replies.len(), 3, "two results + one barrier-ack");
        assert!(matches!(replies[0], Message::EvalResult { .. }));
        assert_eq!(replies[1], Message::BarrierAck { round: 0 });
        assert!(matches!(replies[2], Message::EvalResult { .. }));

        // Without the fault flag the same script completes.
        let (run, _) = worker_script_with_fault(&script, None);
        assert_eq!(run.unwrap().len(), 4);
    }
}
