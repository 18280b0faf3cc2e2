//! Property-based round-trip laws of the wire subsystem:
//!
//! * binary: `decode(encode(x)) == x` for random instances, queries,
//!   shipments and scenarios, through both the bare codec body and the
//!   framed byte stream,
//! * textual: `parse(print(s)) == s` for random scenarios,
//! * robustness: corrupted and truncated frames return errors — decoding
//!   never panics, whatever the bytes,
//! * connection: any sequence of messages coded through one dictionary per
//!   side decodes to what self-contained frames decode to, names each
//!   symbol in exactly one frame, and fails with a typed error when a frame
//!   is cut short, cut loose from its connection or indexes past the
//!   dictionary.

use std::collections::BTreeSet;
use std::io::Cursor;
use std::sync::Arc;

use cq::{Atom, ConjunctiveQuery, Fact, Instance, Symbol, Tuple, Value, Variable};
use distribution::{Node, Shipment};
use obs::{EventKind, TraceEvent};
use proptest::prelude::*;
use wire::{
    decode_body_with, decode_frame, encode_frame, encode_frame_with, read_frame, DecodeError,
    Dictionary, Encoder, ExplicitSpec, Message, NetworkSpec, PolicySpec, Scenario, TraceContext,
};

// ---------------------------------------------------------------- strategies

/// Random facts over a pool of relations and values, mixed arities 0..=3.
fn fact_strategy() -> impl Strategy<Value = Fact> {
    (0..4usize, proptest::collection::vec(0..6usize, 0..4)).prop_map(|(rel, values)| {
        Fact::new(
            format!("R{rel}").as_str(),
            values
                .into_iter()
                .map(|v| Value::indexed("d", v))
                .collect::<Tuple>(),
        )
    })
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec(fact_strategy(), 0..30).prop_map(Instance::from_facts)
}

/// Random safe queries over binary relations (same shape as the cq
/// property suite's generator).
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (0..3usize, 0..4usize, 0..4usize);
    (proptest::collection::vec(atom, 1..5), 0..3usize).prop_map(|(atoms, head_arity)| {
        let var = |i: usize| Variable::indexed("x", i);
        let body: Vec<Atom> = atoms
            .iter()
            .map(|&(r, a, b)| Atom::new(format!("R{r}").as_str(), vec![var(a), var(b)]))
            .collect();
        let mut body_vars = Vec::new();
        for atom in &body {
            for &v in &atom.args {
                if !body_vars.contains(&v) {
                    body_vars.push(v);
                }
            }
        }
        let head_vars: Vec<Variable> = body_vars.into_iter().take(head_arity).collect();
        ConjunctiveQuery::new(Atom::new("T", head_vars), body).expect("generated query is safe")
    })
}

fn policy_spec_strategy() -> impl Strategy<Value = PolicySpec> {
    (
        0..5usize,
        1..5usize,
        proptest::collection::vec(1..4usize, 1..4),
    )
        .prop_map(|(kind, n, buckets)| match kind {
            0 => PolicySpec::Broadcast(NetworkSpec::Size(n)),
            1 => PolicySpec::RoundRobin(NetworkSpec::Named(
                (0..n)
                    .map(|i| cq::Symbol::new(&format!("host{i}")))
                    .collect(),
            )),
            2 => PolicySpec::Hash { buckets: n },
            3 => PolicySpec::Hypercube { buckets: vec![n] },
            _ => PolicySpec::Hypercube { buckets },
        })
}

/// A random explicit per-fact policy stanza: a few nodes with small fact
/// sets, optionally a default node list.
fn explicit_spec_strategy() -> impl Strategy<Value = ExplicitSpec> {
    (
        proptest::collection::vec(
            (0..4usize, proptest::collection::vec(fact_strategy(), 0..6)),
            1..4,
        ),
        proptest::collection::vec(0..4usize, 0..3),
    )
        .prop_map(|(entries, default)| {
            let mut assignments = std::collections::BTreeMap::new();
            for (n, facts) in entries {
                assignments
                    .entry(cq::Symbol::new(&format!("node{n}")))
                    .or_insert_with(Instance::new)
                    .extend(facts);
            }
            ExplicitSpec {
                assignments,
                default: default
                    .into_iter()
                    .map(|n| cq::Symbol::new(&format!("node{n}")))
                    .collect(),
            }
        })
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(query_strategy(), 1..4),
        instance_strategy(),
        proptest::collection::vec(policy_spec_strategy(), 1..4),
        1..9usize,
        0..2usize,
        // 0 = no policy stanza; 1 = stanza present but unused;
        // 2 = stanza present and an `explicit` entry in the schedule
        (0..3usize, explicit_spec_strategy()),
    )
        .prop_map(
            |(queries, instance, mut schedule, rounds, feedback, (policy_mode, spec))| {
                let policy = (policy_mode > 0).then_some(spec);
                // an `explicit` schedule entry is only well-formed alongside
                // a policy stanza
                if policy_mode == 2 {
                    schedule.push(PolicySpec::Explicit);
                }
                Scenario {
                    // feedback must be a relation the printer/parser can
                    // round-trip; any body relation name works (the parser
                    // does not re-validate against the query, the CLI does).
                    feedback: (feedback == 1).then(|| queries[0].body()[0].relation),
                    queries,
                    instance,
                    policy,
                    schedule,
                    rounds,
                }
            },
        )
}

/// An untraced eval message.
fn eval_message(query: ConjunctiveQuery, round: u64, node: usize, shipment: Shipment) -> Message {
    Message::Eval {
        query,
        round,
        node: Node::numbered(node),
        shipment,
        trace: TraceContext::default(),
    }
}

fn path_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
}

/// Every kind of message a connection carries, over the shared pools of
/// relation, value and variable names — so later frames of a sequence
/// repeat names of earlier ones.
fn message_strategy() -> impl Strategy<Value = Message> {
    (
        0..10usize,
        query_strategy(),
        instance_strategy(),
        0..5u64,
        0..8usize,
    )
        .prop_map(|(kind, query, facts, round, node)| {
            let eval = |query, shipment| eval_message(query, round, node, shipment);
            let node = Node::numbered(node);
            match kind {
                0 => eval(query, Shipment::Full(Arc::new(facts))),
                1 | 3 => Message::EvalResult {
                    round,
                    node,
                    output: facts,
                    eval_us: round,
                },
                2 => eval(query, Shipment::Delta(Arc::new(facts))),
                4 => eval(query, Shipment::Resident),
                5 => Message::Barrier { round },
                6 => Message::BarrierAck { round },
                7 => Message::Instance(facts),
                8 => Message::Query(query),
                _ => Message::TraceFlush {
                    events: vec![TraceEvent {
                        name: "worker_eval_chunk".to_string(),
                        kind: EventKind::Span,
                        ts_us: round,
                        dur_us: 3,
                        pid: 0,
                        tid: 1,
                        id: 2,
                        parent: 0,
                        args: vec![
                            ("node".to_string(), node.to_string()),
                            ("facts".to_string(), facts.len().to_string()),
                        ],
                    }],
                },
            }
        })
}

/// Reads a LEB128 varint off the front of `bytes` (the codec keeps its own
/// reader private).
fn varint(bytes: &[u8]) -> (u64, &[u8]) {
    let mut value = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return (value, &bytes[i + 1..]);
        }
    }
    panic!("unterminated varint");
}

/// The names listed by the symbol table of a frame.
fn symtab(frame: &[u8]) -> Vec<String> {
    let (body, rest) = wire::frame::split_frame(frame).unwrap();
    assert!(rest.is_empty());
    let (count, mut rest) = varint(body);
    (0..count)
        .map(|_| {
            let (len, tail) = varint(rest);
            let (name, tail) = tail.split_at(len as usize);
            rest = tail;
            String::from_utf8(name.to_vec()).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x18_D1C7))]

    /// One sender dictionary, one receiver dictionary, any sequence of
    /// messages: the connection is a compression of self-contained frames,
    /// never a different meaning.
    #[test]
    fn a_connection_decodes_like_self_contained_frames(
        messages in proptest::collection::vec(message_strategy(), 1..7),
    ) {
        let mut encoder = Encoder::new();
        let frames: Vec<Vec<u8>> = messages
            .iter()
            .map(|message| encode_frame_with(&mut encoder, message))
            .collect();
        let self_contained: Vec<Vec<u8>> = messages.iter().map(encode_frame).collect();
        prop_assert_eq!(&frames[0], &self_contained[0], "a first frame is self-contained");

        let stream = frames.concat();
        let mut cursor = Cursor::new(&stream);
        let mut dictionary = Dictionary::new();
        for (message, alone) in messages.iter().zip(&self_contained) {
            let back = read_frame::<Message>(&mut cursor, &mut dictionary).unwrap();
            prop_assert_eq!(back.as_ref(), Some(message));
            prop_assert_eq!(&decode_frame::<Message>(alone).unwrap(), message);
        }
        prop_assert_eq!(read_frame::<Message>(&mut cursor, &mut dictionary).unwrap(), None);
        prop_assert_eq!(dictionary.len(), encoder.dictionary_len());

        // A name is in exactly one frame's table — the first to use it —
        // and in every self-contained frame that uses it.
        let mut named = BTreeSet::new();
        for (frame, alone) in frames.iter().zip(&self_contained) {
            let names = symtab(frame);
            let all: BTreeSet<String> = symtab(alone).into_iter().collect();
            prop_assert!(frame.len() <= alone.len());
            for name in names {
                prop_assert!(all.contains(&name));
                prop_assert!(named.insert(name), "a name crossed the connection twice");
            }
            prop_assert!(all.is_subset(&named));
        }
        prop_assert_eq!(named.len(), dictionary.len());

        // An index is checked against the cumulative table: the last name
        // of the connection resolves, the one after it does not.
        let len = dictionary.len() as u8;
        prop_assert!(len < 0x80, "one varint byte");
        prop_assert_eq!(
            decode_body_with::<Symbol>(&mut dictionary, &[0, len]),
            Err(DecodeError::SymbolIndexOutOfRange { index: len.into(), table_len: len.into() })
        );
        if len > 0 {
            let last = decode_body_with::<Symbol>(&mut dictionary, &[0, len - 1]).unwrap();
            prop_assert!(named.contains(last.as_str()));
        }

        // A later frame replayed on a fresh dictionary either means what it
        // meant (it never leaned on an earlier frame, so it *is* the
        // self-contained frame) or is a typed error.
        for ((frame, alone), message) in frames.iter().zip(&self_contained).zip(&messages).skip(1) {
            match read_frame::<Message>(&mut Cursor::new(frame), &mut Dictionary::new()) {
                Ok(back) => {
                    prop_assert_eq!(frame, alone);
                    prop_assert_eq!(back.as_ref(), Some(message));
                }
                // Mostly `SymbolIndexOutOfRange`; indices that happen to
                // fall inside the frame's own table name the wrong things,
                // which query re-validation may catch first.
                Err(_) => prop_assert!(frame != alone),
            }
        }
    }

    /// Every truncation of every frame of a connection: the frames before
    /// the cut decode, the cut one is a typed error (or a clean end of
    /// stream at a frame boundary), and nothing panics.
    #[test]
    fn every_truncation_of_a_connection_errors_and_never_panics(
        messages in proptest::collection::vec(message_strategy(), 1..5),
    ) {
        let mut encoder = Encoder::new();
        let mut boundaries = vec![0];
        let mut stream = Vec::new();
        for message in &messages {
            stream.extend(encode_frame_with(&mut encoder, message));
            boundaries.push(stream.len());
        }
        for cut in 0..stream.len() {
            let whole = boundaries.iter().filter(|&&end| end != 0 && end <= cut).count();
            let mut cursor = Cursor::new(&stream[..cut]);
            let mut dictionary = Dictionary::new();
            for message in &messages[..whole] {
                let back = read_frame::<Message>(&mut cursor, &mut dictionary).unwrap();
                prop_assert_eq!(back.as_ref(), Some(message));
            }
            match read_frame::<Message>(&mut cursor, &mut dictionary) {
                Ok(None) => prop_assert!(boundaries.contains(&cut)),
                Ok(Some(message)) => prop_assert!(false, "cut {} decoded {}", cut, message.kind()),
                Err(_) => prop_assert!(!boundaries.contains(&cut)),
            }
        }
    }
}

#[test]
fn hello_adds_nothing_to_a_connections_dictionaries() {
    // The socket handshake codes `Hello` outside the connection's
    // dictionaries (the worker through a scratch encoder, the coordinator
    // through a scratch dictionary it requires to stay empty): sound
    // because `Hello` names nothing.
    let hello = Message::Hello { worker: 7 };
    let mut encoder = Encoder::new();
    let frame = encode_frame_with(&mut encoder, &hello);
    assert_eq!(encoder.dictionary_len(), 0);
    assert_eq!(frame, encode_frame(&hello));
    assert!(symtab(&frame).is_empty());
    let mut dictionary = Dictionary::new();
    let back = read_frame::<Message>(&mut Cursor::new(&frame), &mut dictionary).unwrap();
    assert_eq!(back, Some(hello));
    assert!(dictionary.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn instances_round_trip_through_the_codec(instance in instance_strategy()) {
        let framed = encode_frame(&instance);
        prop_assert_eq!(decode_frame::<Instance>(&framed).unwrap(), instance);
    }

    /// Both sides of the inline/spilled tuple boundary, mixed inside one
    /// relation: rows of arity 0..=12 round-trip as instance rows, and every
    /// truncation of them is a clean error.
    #[test]
    fn wide_tuples_round_trip_through_the_codec(
        rows in proptest::collection::vec(proptest::collection::vec(0..6usize, 0..13), 1..12),
        cut_permille in 0..1000usize,
    ) {
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|row| row.into_iter().map(|v| Value::indexed("d", v)).collect())
            .collect();
        let instance = Instance::from_facts(rows.iter().map(|row| Fact::new("Wide", row.clone())));
        let framed = encode_frame(&instance);
        prop_assert_eq!(decode_frame::<Instance>(&framed).unwrap(), instance);
        let cut = cut_permille * framed.len() / 1000;
        prop_assert!(decode_frame::<Instance>(&framed[..cut]).is_err());
    }

    #[test]
    fn queries_round_trip_through_the_codec(query in query_strategy()) {
        let framed = encode_frame(&query);
        prop_assert_eq!(decode_frame::<ConjunctiveQuery>(&framed).unwrap(), query);
    }

    #[test]
    fn chunk_batches_round_trip_through_the_codec(
        instance in instance_strategy(),
        round in 0..5u64,
        node in 0..8usize,
    ) {
        let shipment = Shipment::Full(Arc::new(instance));
        let framed = encode_frame(&shipment);
        prop_assert_eq!(decode_frame::<Shipment>(&framed).unwrap(), shipment.clone());
        // and inside the eval message that ships it
        let message = eval_message(path_query(), round, node, shipment);
        prop_assert_eq!(decode_frame::<Message>(&encode_frame(&message)).unwrap(), message);
    }

    #[test]
    fn delta_batches_round_trip_through_the_codec(
        instance in instance_strategy(),
        round in 0..5u64,
        node in 0..8usize,
    ) {
        let shipment = Shipment::Delta(Arc::new(instance.clone()));
        let framed = encode_frame(&shipment);
        prop_assert_eq!(decode_frame::<Shipment>(&framed).unwrap(), shipment.clone());
        // and as full protocol messages, there and back
        let message = eval_message(path_query(), round, node, shipment);
        prop_assert_eq!(decode_frame::<Message>(&encode_frame(&message)).unwrap(), message);
        let node = Node::numbered(node);
        let message = Message::EvalResult { round, node, output: instance, eval_us: 7 };
        prop_assert_eq!(decode_frame::<Message>(&encode_frame(&message)).unwrap(), message);
    }

    #[test]
    fn scenarios_round_trip_through_both_formats(scenario in scenario_strategy()) {
        // textual: the pretty-printer is the parser's exact inverse
        let text = scenario.to_string();
        let reparsed = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("printed scenario failed to parse: {e}\n{text}"));
        prop_assert_eq!(&reparsed, &scenario);

        // binary: framed bytes decode to an equal value
        let framed = encode_frame(&Message::Scenario(scenario.clone()));
        prop_assert_eq!(
            decode_frame::<Message>(&framed).unwrap(),
            Message::Scenario(scenario)
        );
    }

    #[test]
    fn truncated_frames_error_and_never_panic(
        instance in instance_strategy(),
        cut_permille in 0..1000usize,
    ) {
        let framed = encode_frame(&Message::Instance(instance));
        let cut = cut_permille * framed.len() / 1000;
        prop_assert!(cut < framed.len());
        prop_assert!(decode_frame::<Message>(&framed[..cut]).is_err());
    }

    #[test]
    fn corrupted_frames_never_panic(
        query in query_strategy(),
        instance in instance_strategy(),
        byte in 0..4096usize,
        flip in 1..255u8,
    ) {
        // Flip one byte anywhere in the frame: the decoder must return
        // *something* (an error, or — e.g. for a flipped value index that
        // stays in range — a structurally valid other message) without
        // panicking or over-allocating.
        let message = eval_message(query, 0, 0, Shipment::Full(Arc::new(instance)));
        let mut framed = encode_frame(&message);
        let at = byte % framed.len();
        framed[at] ^= flip;
        let _ = decode_frame::<Message>(&framed);
    }
}

#[test]
fn arbitrary_garbage_is_rejected() {
    for garbage in [
        &b""[..],
        b"PCQ",
        b"PCQX\x01\x00",
        b"not a frame at all",
        b"PCQW",
        b"PCQW\x03",
        b"PCQW\x02\x00",
        b"PCQW\x04\x00",
    ] {
        assert!(
            decode_frame::<Message>(garbage).is_err(),
            "{garbage:?} must not decode"
        );
    }
}
