//! The binary codec: varint primitives, the name dictionary, the three ways
//! a receiver resolves a data value, and the [`Encode`] / [`Decode`] traits
//! with impls for every shippable type.
//!
//! ## Layout
//!
//! A codec *body* (the payload of one [frame](crate::frame)) is:
//!
//! ```text
//! body     := symtab payload
//! symtab   := varint(count) { varint(len) utf8-bytes }*
//! payload  := type-specific, see the Encode impls
//!
//! instance := varint(facts) { run }*            -- runs until `facts` rows are read
//! run      := symbol varint(arity) varint(rows) { value-id × arity }*rows
//! ```
//!
//! **Vocabulary** — relation names, variables, node names, span names: a
//! few per run — is referenced from the payload by varint index into a
//! **dictionary**, and a body's `symtab` lists the names its payload is the
//! first to use. **Data values** are the bulk of what crosses a wire, and a
//! value in a payload is one bare varint, a *value id*; what that id means
//! is the receiver's business (below).
//!
//! An [`Instance`] is **relation-blocked**: its facts in
//! [`Instance::facts`] order, cut into *runs* of one relation and one arity
//! (a relation of a single arity is one run, its symbol written once), each
//! run a header and then nothing but value ids, row after row. The decoder
//! reads a run in one tight loop and hands the rows, relation by relation,
//! to [`Instance::from_relations`], which moves strictly ascending rows in
//! as they are and sorts only a body that is not ascending: correctness
//! never rests on the peer's order, only speed does.
//!
//! ## The three receivers
//!
//! How a receiver resolves a value id is fixed when its half of a
//! connection is made — by the constructor of its [`Dictionary`] — and is
//! the only thing that differs between the three receivers there are:
//!
//! * **A worker** ([`Dictionary::worker`]). A worker connection speaks one
//!   id space, the coordinator's: a value id is the coordinator's
//!   [`Symbol::id`]. The worker holds it as an *opaque* value
//!   ([`Value::opaque`]) — it interns nothing per value and keeps no
//!   per-value state, so its time and memory follow its load, not the
//!   vocabulary. A worker may join, deduplicate, order and ship back
//!   opaque values; it may not name them (they display as `#<id>`), hash
//!   their names, or put them into a self-contained body. An id ≥ 2³¹ is
//!   [`DecodeError::UnknownValueId`].
//! * **The coordinator reading replies** ([`Dictionary::coordinator`]).
//!   Replies carry the same ids back; each is resolved with the checked
//!   [`Symbol::from_id`], and an id this process never interned is
//!   [`DecodeError::UnknownValueId`], not a symbol.
//! * **A self-contained body** ([`Dictionary::new`]): [`encode_body`] /
//!   [`decode_body`], a file, the `encode` / `decode` CLI. Its reader may be
//!   another process with another interner, so values cross *by name*: the
//!   `symtab` lists the value names next to the vocabulary and a value id is
//!   the position of its name in it.
//!
//! Both ends of a worker connection write through [`Encoder::connection`]
//! (a value is its id, no name); [`Encoder::new`] writes self-contained
//! bodies.
//!
//! ## Dictionary scope
//!
//! The dictionary belongs to whoever codes a *sequence* of bodies: the
//! sender's half is the [`Encoder`] (symbol → index), the receiver's half a
//! [`Dictionary`] (index → symbol), and indices count from the first body
//! coded through them. A connection keeps one pair per direction for its
//! whole life, so a name crosses it once: later bodies refer to it by index
//! and list only names the dictionary does not hold yet — a `symtab` that
//! lists a name the dictionary already holds (a replayed frame) is a typed
//! error, not a silent renumbering. A *self-contained* body is the same
//! code over a fresh dictionary: exactly the first body of a sequence, its
//! `symtab` listing every name it uses. Both halves die with their
//! connection; nothing about them is negotiated, versioned or optional.
//!
//! Varints are LEB128: 7 payload bits per byte, high bit = continuation.
//!
//! Decoding never panics: every length is bounds-checked against the
//! remaining input, symbol references are checked against the dictionary,
//! value ids against their id space, and semantic invariants (e.g. query
//! safety) are re-validated on decode. A receiver's dictionary grows only
//! by `symtab` entries that were validated inside a body it was handed, and
//! a run reserves no more than a fixed few thousand rows on the
//! strength of its header, so memory follows received bytes, never a
//! length field.

use std::fmt;

use std::sync::Arc;

use cq::{Atom, ConjunctiveQuery, EvalOptions, Fact, Instance, Symbol, Tuple, Value, Variable};
use distribution::{Network, Node, Shipment};

/// Errors raised while decoding wire data. Corrupted, truncated or
/// malicious input surfaces here; decoding never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    Truncated,
    /// A varint ran over 10 bytes (no u64 needs more).
    VarintOverflow,
    /// The payload referenced a symbol index outside the dictionary.
    SymbolIndexOutOfRange {
        /// The out-of-range index.
        index: u64,
        /// Number of entries in the dictionary the body was decoded
        /// against: its own symbol table plus, on a connection, those of
        /// every body before it.
        table_len: usize,
    },
    /// A value id names no value in the receiver's id space: on a worker
    /// an id no interner hands out (≥ 2³¹), on the coordinator an id it
    /// never interned.
    UnknownValueId {
        /// The offending id.
        id: u64,
    },
    /// A symbol table entry or an inline string was not valid UTF-8.
    InvalidUtf8,
    /// An enum tag byte had no corresponding variant.
    UnknownTag {
        /// The type being decoded.
        context: &'static str,
        /// The unexpected tag byte.
        tag: u8,
    },
    /// Input remained after the value was fully decoded.
    TrailingBytes {
        /// Number of unread bytes.
        count: usize,
    },
    /// The bytes decoded structurally but violate a semantic invariant
    /// (e.g. an unsafe conjunctive query).
    Invalid(String),
    /// The frame header did not start with the `PCQW` magic.
    BadMagic([u8; 4]),
    /// The frame version is not one this build understands.
    UnsupportedVersion(u8),
    /// The frame declared a body longer than the sanity limit.
    FrameTooLarge {
        /// Declared body length.
        len: u64,
        /// The limit ([`crate::frame::MAX_BODY_LEN`]).
        limit: u64,
    },
    /// An I/O error while reading a frame from a stream.
    Io(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            DecodeError::SymbolIndexOutOfRange { index, table_len } => {
                write!(
                    f,
                    "symbol index {index} out of range (table has {table_len})"
                )
            }
            DecodeError::UnknownValueId { id } => {
                write!(f, "value id {id} names no value of this connection")
            }
            DecodeError::InvalidUtf8 => write!(f, "string is not valid UTF-8"),
            DecodeError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag} while decoding {context}")
            }
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after the value")
            }
            DecodeError::Invalid(detail) => write!(f, "decoded value is invalid: {detail}"),
            DecodeError::BadMagic(found) => {
                write!(f, "bad frame magic {found:?} (expected \"PCQW\")")
            }
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            DecodeError::FrameTooLarge { len, limit } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {limit}-byte limit"
                )
            }
            DecodeError::Io(detail) => write!(f, "I/O error: {detail}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `value` to `out` as a LEB128 varint.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `input`, returning the value
/// and the number of bytes consumed. Varints of up to three bytes — every
/// count, index and value id of an ordinary body — return before the loop.
#[inline]
pub(crate) fn read_varint(input: &[u8]) -> Result<(u64, usize), DecodeError> {
    let bits = |byte: u8, at: u32| u64::from(byte & 0x7f) << (7 * at);
    match *input {
        [a, ..] if a < 0x80 => Ok((u64::from(a), 1)),
        [a, b, ..] if b < 0x80 => Ok((bits(a, 0) | bits(b, 1), 2)),
        [a, b, c, ..] if c < 0x80 => Ok((bits(a, 0) | bits(b, 1) | bits(c, 2), 3)),
        _ => read_long_varint(input),
    }
}

fn read_long_varint(input: &[u8]) -> Result<(u64, usize), DecodeError> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= 10 {
            return Err(DecodeError::VarintOverflow);
        }
        let payload = u64::from(byte & 0x7f);
        value |= payload
            .checked_shl(7 * i as u32)
            .ok_or(DecodeError::VarintOverflow)?;
        if byte & 0x80 == 0 {
            // Overlong encodings (continuation past bit 63) are rejected by
            // the checked shift above; a 10th byte with payload > 1 is too.
            if i == 9 && byte > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            return Ok((value, i + 1));
        }
    }
    Err(DecodeError::Truncated)
}

/// The sending half of a symbol dictionary, with the body being written.
///
/// Values are [encoded](Encode) into the payload, which assigns every
/// symbol the dictionary does not hold yet the next index;
/// [`Encoder::finish_body`] then emits `symtab ++ payload` with those new
/// names as the `symtab` and keeps the dictionary for the next body.
/// [`Encoder::new`] followed by [`Encoder::finish`] codes a self-contained
/// body.
#[derive(Default)]
pub struct Encoder {
    /// Whether data values are written as bare ids (a worker connection)
    /// instead of going through the dictionary by name.
    bare_values: bool,
    /// By [`Symbol::id`]: one more than the dictionary index of every
    /// symbol sent so far, the body being written included; 0 = not sent.
    /// Symbol ids are dense, so next to a hash map this is a fraction of
    /// the memory (4 bytes per symbol the *process* knows, at most) and no
    /// hashing — a coordinator keeps one per worker for a whole run.
    sent: Vec<u32>,
    /// Number of symbols the dictionary holds.
    len: u32,
    /// The symbols this body is the first to use, in index order.
    new_symbols: Vec<Symbol>,
    payload: Vec<u8>,
}

impl Encoder {
    /// An encoder over an empty dictionary whose bodies are self-contained:
    /// data values cross by name, through the dictionary.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The sending half of either direction of a worker connection: a data
    /// value is written as its bare [`Value::id`] — the coordinator's id,
    /// whichever end writes it — and never enters the dictionary.
    pub fn connection() -> Encoder {
        Encoder {
            bare_values: true,
            ..Encoder::default()
        }
    }

    /// Writes a varint.
    pub fn u64(&mut self, value: u64) {
        write_varint(&mut self.payload, value);
    }

    /// Writes a `usize` as a varint.
    pub fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    /// Writes a raw byte (enum tags).
    pub fn byte(&mut self, value: u8) {
        self.payload.push(value);
    }

    /// Writes a bool as a byte.
    pub fn bool(&mut self, value: bool) {
        self.byte(u8::from(value));
    }

    /// Writes a symbol as its dictionary index, entering it into the
    /// dictionary on first occurrence.
    pub fn symbol(&mut self, symbol: Symbol) {
        assert!(
            !symbol.is_opaque(),
            "{symbol} is an opaque id: it has no name to put into a body"
        );
        let id = symbol.id() as usize;
        if id >= self.sent.len() {
            self.sent.resize(id + 1, 0);
        }
        let slot = &mut self.sent[id];
        if *slot == 0 {
            self.new_symbols.push(symbol);
            self.len = self.len.checked_add(1).expect("symbol ids fit in a u32");
            *slot = self.len;
        }
        write_varint(&mut self.payload, u64::from(*slot - 1));
    }

    /// Writes a data value as its value id: on a worker connection the bare
    /// id, in a self-contained body its name's dictionary index.
    #[inline]
    pub fn value(&mut self, value: Value) {
        if self.bare_values {
            write_varint(&mut self.payload, u64::from(value.id()));
        } else {
            self.symbol(value.symbol());
        }
    }

    /// Writes `value` as a varint `at` a position of the payload already
    /// passed: the count of what was written from there on.
    fn insert_usize(&mut self, at: usize, value: usize) {
        let mut varint = Vec::with_capacity(10);
        write_varint(&mut varint, value as u64);
        self.payload.splice(at..at, varint);
    }

    /// Writes a string inline (length, then bytes), bypassing the
    /// dictionary — for text that does not repeat, which would only grow
    /// the dictionaries and the receiver's interner.
    pub fn str(&mut self, value: &str) {
        self.usize(value.len());
        self.payload.extend_from_slice(value.as_bytes());
    }

    /// Number of symbols the dictionary holds.
    pub fn dictionary_len(&self) -> usize {
        self.len as usize
    }

    /// Finishes the body — the table of its new symbols, then the payload —
    /// and keeps the dictionary, so the next body continues the sequence.
    pub fn finish_body(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 16 * self.new_symbols.len() + 4);
        write_varint(&mut out, self.new_symbols.len() as u64);
        for symbol in self.new_symbols.drain(..) {
            let bytes = symbol.as_str().as_bytes();
            write_varint(&mut out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        out.append(&mut self.payload);
        out
    }

    /// Finishes the body and drops the dictionary with it.
    pub fn finish(mut self) -> Vec<u8> {
        self.finish_body()
    }
}

/// How a receiver resolves a value id (see the module docs).
#[derive(Clone, Copy, Default)]
enum ValueIds {
    /// The position of the value's name in the dictionary.
    #[default]
    Named,
    /// The coordinator's id, held opaque by a worker.
    Opaque,
    /// An id of this process's own interner, back from a worker.
    Interned,
}

impl ValueIds {
    #[inline]
    fn resolve(self, id: u64, symbols: &[Symbol]) -> Result<Value, DecodeError> {
        let in_id_space = |value_of: fn(u32) -> Option<Value>| {
            let id32 = u32::try_from(id).ok();
            id32.and_then(value_of)
                .ok_or(DecodeError::UnknownValueId { id })
        };
        match self {
            ValueIds::Named => symbol_at(symbols, id).map(Value::from),
            ValueIds::Opaque => in_id_space(Value::opaque),
            ValueIds::Interned => in_id_space(|id| Symbol::from_id(id).map(Value::from)),
        }
    }
}

/// The dictionary entry `index` refers to.
#[inline]
fn symbol_at(symbols: &[Symbol], index: u64) -> Result<Symbol, DecodeError> {
    symbols
        .get(usize::try_from(index).unwrap_or(usize::MAX))
        .copied()
        .ok_or(DecodeError::SymbolIndexOutOfRange {
            index,
            table_len: symbols.len(),
        })
}

/// The receiving half of a symbol dictionary: the symbols of every body
/// decoded through it so far, in index order, and how this receiver
/// resolves a value id.
#[derive(Default)]
pub struct Dictionary {
    symbols: Vec<Symbol>,
    /// One bit per [`Symbol::id`]: set for the symbols the dictionary holds.
    held: Vec<u64>,
    values: ValueIds,
}

impl Dictionary {
    /// An empty dictionary reading self-contained bodies: data values are
    /// resolved by name.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// The dictionary a worker reads its connection through: a value id is
    /// the coordinator's and is held as an opaque value.
    pub fn worker() -> Dictionary {
        Dictionary {
            values: ValueIds::Opaque,
            ..Dictionary::default()
        }
    }

    /// The dictionary the coordinator reads a worker's replies through: a
    /// value id is one of its own, checked against its interner.
    pub fn coordinator() -> Dictionary {
        Dictionary {
            values: ValueIds::Interned,
            ..Dictionary::default()
        }
    }

    /// Marks `symbol` as held; `false` if it already was.
    fn hold(&mut self, symbol: Symbol) -> bool {
        let (word, bit) = (symbol.id() as usize / 64, 1u64 << (symbol.id() % 64));
        if word >= self.held.len() {
            self.held.resize(word + 1, 0);
        }
        let fresh = self.held[word] & bit == 0;
        self.held[word] |= bit;
        fresh
    }

    /// Number of symbols the dictionary holds.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether no body has added a symbol yet.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Parses the symbol table at the front of `body`, appends its names
    /// (re-interned) to the dictionary and returns a decoder positioned on
    /// the payload. A table that does not parse adds nothing; one that
    /// lists a name the dictionary holds already — no sender does: a
    /// replayed frame, or a corrupt one — is an error.
    pub fn decoder<'a>(&'a mut self, body: &'a [u8]) -> Result<Decoder<'a>, DecodeError> {
        let mut rest = body;
        let (count, used) = read_varint(rest)?;
        rest = &rest[used..];
        // A symbol needs at least one length byte, so `count` can never
        // legitimately exceed the remaining input — reject early instead of
        // trusting a corrupted count with a huge allocation.
        if count > rest.len() as u64 {
            return Err(DecodeError::Truncated);
        }
        let mut names = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (name, tail) = read_str(rest)?;
            names.push(name);
            rest = tail;
        }
        let names = Symbol::intern_all(names);
        if let Some(repeated) = names.iter().find(|&&name| !self.hold(name)) {
            return Err(DecodeError::Invalid(format!(
                "symbol table lists {repeated}, which the dictionary already holds"
            )));
        }
        self.symbols.extend(names);
        Ok(Decoder {
            symbols: &self.symbols,
            values: self.values,
            payload: rest,
        })
    }
}

/// Splits a length-prefixed UTF-8 string off the front of `input`.
fn read_str(input: &[u8]) -> Result<(&str, &[u8]), DecodeError> {
    let (len, used) = read_varint(input)?;
    let rest = &input[used..];
    if len > rest.len() as u64 {
        return Err(DecodeError::Truncated);
    }
    let (bytes, rest) = rest.split_at(len as usize);
    let string = std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)?;
    Ok((string, rest))
}

/// Reads the payload of one body produced by [`Encoder`], resolving symbol
/// references against the [`Dictionary`] that [made](Dictionary::decoder)
/// it.
pub struct Decoder<'a> {
    symbols: &'a [Symbol],
    values: ValueIds,
    payload: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Reads a varint.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let (value, used) = read_varint(self.payload)?;
        self.payload = &self.payload[used..];
        Ok(value)
    }

    /// Reads a varint as a `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::VarintOverflow)
    }

    /// Reads a raw byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let (&byte, rest) = self.payload.split_first().ok_or(DecodeError::Truncated)?;
        self.payload = rest;
        Ok(byte)
    }

    /// Reads a bool byte (`0` or `1`).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::UnknownTag {
                context: "bool",
                tag,
            }),
        }
    }

    /// Reads a dictionary reference.
    pub fn symbol(&mut self) -> Result<Symbol, DecodeError> {
        let index = self.u64()?;
        symbol_at(self.symbols, index)
    }

    /// Reads a value id and resolves it the way this receiver does.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        let id = self.u64()?;
        self.values.resolve(id, self.symbols)
    }

    /// Reads an inline string written by [`Encoder::str`]: its length is
    /// checked against the remaining payload and its bytes are validated
    /// as UTF-8.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let (string, rest) = read_str(self.payload)?;
        self.payload = rest;
        Ok(string)
    }

    /// Number of unread payload bytes.
    pub fn remaining(&self) -> usize {
        self.payload.len()
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.payload.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                count: self.payload.len(),
            })
        }
    }
}

/// A value that can be written to the binary wire format.
pub trait Encode {
    /// Appends `self` to the encoder's payload (entering symbols into the
    /// dictionary as a side effect).
    fn encode(&self, enc: &mut Encoder);
}

/// A value that can be read back from the binary wire format.
pub trait Decode: Sized {
    /// Reads one value from the decoder's payload cursor.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u64()
    }
}

impl Encode for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(*self);
    }
}

impl Decode for usize {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.usize()
    }
}

impl Encode for Symbol {
    fn encode(&self, enc: &mut Encoder) {
        enc.symbol(*self);
    }
}

impl Decode for Symbol {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.symbol()
    }
}

impl Encode for Value {
    fn encode(&self, enc: &mut Encoder) {
        enc.value(*self);
    }
}

impl Decode for Value {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.value()
    }
}

impl Encode for Variable {
    fn encode(&self, enc: &mut Encoder) {
        enc.symbol(self.symbol());
    }
}

impl Decode for Variable {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Variable::from(dec.symbol()?))
    }
}

impl Encode for Node {
    fn encode(&self, enc: &mut Encoder) {
        enc.symbol(self.symbol());
    }
}

impl Decode for Node {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Node::from(dec.symbol()?))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for item in self {
            item.encode(enc);
        }
    }
}

/// Reads an element count. Each element consumes at least one payload
/// byte, so a count beyond the remaining input is corrupt.
fn decode_len(dec: &mut Decoder<'_>) -> Result<usize, DecodeError> {
    let len = dec.usize()?;
    if len > dec.remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(len)
}

/// The most elements a vector reserves on the strength of its declared
/// count alone. A count is only known not to exceed the remaining *bytes*,
/// and an element can be far larger in memory than its one byte on the wire
/// (a `Fact` is 32), so beyond this the vector grows as elements actually
/// decode: memory follows validated input, not a length field.
const MAX_RESERVED_ELEMENTS: usize = 4096;

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(dec)?;
        let mut out = Vec::with_capacity(len.min(MAX_RESERVED_ELEMENTS));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.byte(0),
            Some(value) => {
                enc.byte(1);
                value.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            tag => Err(DecodeError::UnknownTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl Encode for Tuple {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for value in self {
            value.encode(enc);
        }
    }
}

impl Decode for Tuple {
    /// The layout of a `Vec<Value>`, read straight into the tuple's inline
    /// slots.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(dec)?;
        (0..len).map(|_| Value::decode(dec)).collect()
    }
}

impl Encode for Fact {
    fn encode(&self, enc: &mut Encoder) {
        enc.symbol(self.relation);
        self.values.encode(enc);
    }
}

impl Decode for Fact {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let relation = dec.symbol()?;
        Ok(Fact::new(relation, Tuple::decode(dec)?))
    }
}

impl Encode for Atom {
    fn encode(&self, enc: &mut Encoder) {
        enc.symbol(self.relation);
        self.args.encode(enc);
    }
}

impl Decode for Atom {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let relation = dec.symbol()?;
        let args = Vec::<Variable>::decode(dec)?;
        Ok(Atom::new(relation, args))
    }
}

/// The facts in [`Instance::facts`] order, cut into runs of one relation
/// and one arity (see the module docs).
impl Encode for Instance {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        let mut facts = self.facts().peekable();
        while let Some(mut fact) = facts.next() {
            let (relation, arity) = (fact.relation, fact.arity());
            enc.symbol(relation);
            enc.usize(arity);
            // The run ends where the relation or the arity changes: its row
            // count is known once its rows are written.
            let rows_at = enc.payload.len();
            let mut rows = 1;
            loop {
                for &value in &fact.values {
                    enc.value(value);
                }
                let same_run = |next: &&Fact| next.relation == relation && next.arity() == arity;
                match facts.next_if(same_run) {
                    Some(next) => fact = next,
                    None => break,
                }
                rows += 1;
            }
            enc.insert_usize(rows_at, rows);
        }
    }
}

impl Decode for Instance {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let facts = dec.usize()?;
        // The rows of the runs read so far, by relation: consecutive runs of
        // one relation (its arities interleave) share a block.
        let mut blocks: Vec<(Symbol, Vec<Fact>)> = Vec::new();
        let mut row = Vec::new();
        let mut read = 0;
        while read < facts {
            let relation = dec.symbol()?;
            let arity = dec.usize()?;
            let rows = dec.usize()?;
            // Every value is at least a byte. A nullary row is no bytes at
            // all, so nothing but the set it belongs to bounds a nullary
            // run: a relation holds the empty tuple once.
            let values = rows.checked_mul(arity).ok_or(DecodeError::Truncated)?;
            if values > dec.remaining() {
                return Err(DecodeError::Truncated);
            }
            if rows == 0 || rows > facts - read || (arity == 0 && rows > 1) {
                return Err(DecodeError::Invalid(format!(
                    "a run of {rows} rows of arity {arity} with {} facts to go",
                    facts - read
                )));
            }
            read += rows;
            if blocks.last().is_none_or(|(last, _)| *last != relation) {
                blocks.push((relation, Vec::new()));
            }
            let block = &mut blocks.last_mut().expect("just pushed").1;
            block.reserve(rows.min(MAX_RESERVED_ELEMENTS));
            for _ in 0..rows {
                row.clear();
                for _ in 0..arity {
                    row.push(dec.value()?);
                }
                block.push(Fact::new(relation, row.iter().copied().collect::<Tuple>()));
            }
        }
        Ok(Instance::from_relations(blocks))
    }
}

impl Encode for ConjunctiveQuery {
    fn encode(&self, enc: &mut Encoder) {
        self.head().encode(enc);
        enc.usize(self.body().len());
        for atom in self.body() {
            atom.encode(enc);
        }
    }
}

impl Decode for ConjunctiveQuery {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let head = Atom::decode(dec)?;
        let body = Vec::<Atom>::decode(dec)?;
        // Re-validate the paper's invariants (safety, arity consistency,
        // head relation outside the body): bytes from an untrusted peer
        // must not bypass them.
        ConjunctiveQuery::new(head, body).map_err(|e| DecodeError::Invalid(e.to_string()))
    }
}

impl Encode for Network {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for node in self.nodes() {
            node.encode(enc);
        }
    }
}

impl Decode for Network {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Network::new(Vec::<Node>::decode(dec)?))
    }
}

impl Encode for EvalOptions {
    fn encode(&self, enc: &mut Encoder) {
        enc.byte(match self {
            EvalOptions::Triejoin => 0,
            EvalOptions::ScanOracle => 1,
        });
    }
}

impl Decode for EvalOptions {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.byte()? {
            0 => Ok(EvalOptions::Triejoin),
            1 => Ok(EvalOptions::ScanOracle),
            tag => Err(DecodeError::UnknownTag {
                context: "EvalOptions",
                tag,
            }),
        }
    }
}

const SHIPMENT_FULL: u8 = 0;
const SHIPMENT_DELTA: u8 = 1;
const SHIPMENT_RESIDENT: u8 = 2;

/// One kind byte, then the facts, if the kind carries any.
impl Encode for Shipment {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Shipment::Full(facts) => {
                enc.byte(SHIPMENT_FULL);
                facts.encode(enc);
            }
            Shipment::Delta(facts) => {
                enc.byte(SHIPMENT_DELTA);
                facts.encode(enc);
            }
            Shipment::Resident => enc.byte(SHIPMENT_RESIDENT),
        }
    }
}

impl Decode for Shipment {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.byte()? {
            SHIPMENT_FULL => Ok(Shipment::Full(Arc::new(Instance::decode(dec)?))),
            SHIPMENT_DELTA => Ok(Shipment::Delta(Arc::new(Instance::decode(dec)?))),
            SHIPMENT_RESIDENT => Ok(Shipment::Resident),
            tag => Err(DecodeError::UnknownTag {
                context: "Shipment",
                tag,
            }),
        }
    }
}

/// Encodes `value` as a self-contained codec body (symbol table + payload)
/// without the frame header; see [`crate::frame::encode_frame`] for framed
/// bytes.
pub fn encode_body<T: Encode>(value: &T) -> Vec<u8> {
    encode_body_with(&mut Encoder::new(), value)
}

/// Encodes `value` as the next body of `encoder`'s sequence: its symbol
/// table lists only the names no earlier body of the sequence carried.
pub fn encode_body_with<T: Encode>(encoder: &mut Encoder, value: &T) -> Vec<u8> {
    value.encode(encoder);
    encoder.finish_body()
}

/// Decodes one value from a self-contained codec body, requiring the
/// payload to be fully consumed.
pub fn decode_body<T: Decode>(body: &[u8]) -> Result<T, DecodeError> {
    decode_body_with(&mut Dictionary::new(), body)
}

/// Decodes one value from the next body of the sequence `dictionary` has
/// read so far, requiring the payload to be fully consumed. After an error
/// the dictionary may be ahead of the sender's (the body's table is entered
/// before its payload is read): the sequence cannot be resumed.
pub fn decode_body_with<T: Decode>(
    dictionary: &mut Dictionary,
    body: &[u8],
) -> Result<T, DecodeError> {
    let mut dec = dictionary.decoder(body)?;
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(read_varint(&[]), Err(DecodeError::Truncated));
        assert_eq!(read_varint(&[0x80]), Err(DecodeError::Truncated));
        // 11 continuation bytes can encode nothing a u64 holds
        assert_eq!(read_varint(&[0x80; 11]), Err(DecodeError::VarintOverflow));
        // 10th byte carrying more than the top u64 bit is overlong
        let mut overlong = vec![0xff; 9];
        overlong.push(0x02);
        assert_eq!(read_varint(&overlong), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn symbol_table_deduplicates_repeated_names() {
        // A star: the relation name and the hub value recur in all 100
        // facts, so the per-message table must beat shipping every string
        // per occurrence (length byte + bytes, the naive encoding).
        let facts: Vec<Fact> = (0..100)
            .map(|i| Fact::from_names("Edge", &["hub", &format!("spoke{i}")]))
            .collect();
        let instance = Instance::from_facts(facts);
        assert_eq!(instance.len(), 100);
        let body = encode_body(&instance);
        let naive: usize = instance
            .facts()
            .map(|f| {
                let strings = f.relation.as_str().len()
                    + 1
                    + f.values.iter().map(|v| v.as_str().len() + 1).sum::<usize>();
                strings + 1 // arity varint
            })
            .sum();
        assert!(
            body.len() < naive,
            "symbol table failed to compress: {} >= {naive}",
            body.len()
        );
        let back: Instance = decode_body(&body).unwrap();
        assert_eq!(back, instance);
    }

    #[test]
    fn queries_re_validate_on_decode() {
        // Hand-craft a body whose head variable is not in the body atom:
        // the decoder must reject it, not construct an unsafe query.
        let q = ConjunctiveQuery::parse("T(x) :- R(x, y).").unwrap();
        let mut enc = Encoder::new();
        // head T(w) — w never occurs in the body
        Atom::from_names("T", &["w"]).encode(&mut enc);
        enc.usize(1);
        q.body()[0].encode(&mut enc);
        let body = enc.finish();
        let err = decode_body::<ConjunctiveQuery>(&body).unwrap_err();
        assert!(matches!(err, DecodeError::Invalid(_)), "{err}");
    }

    #[test]
    fn bad_symbol_references_are_bounds_checked() {
        let mut enc = Encoder::new();
        enc.u64(999); // symbol index into an empty table
        let body = enc.finish();
        let err = decode_body::<Symbol>(&body).unwrap_err();
        assert!(
            matches!(err, DecodeError::SymbolIndexOutOfRange { index: 999, .. }),
            "{err}"
        );
    }

    #[test]
    fn a_sequence_of_bodies_lists_each_name_once() {
        let first = Instance::from_facts([Fact::from_names("SeqR", &["seq_a", "seq_b"])]);
        let second = Instance::from_facts([
            Fact::from_names("SeqR", &["seq_b", "seq_c"]),
            Fact::from_names("SeqS", &["seq_a"]),
        ]);
        let mut encoder = Encoder::new();
        let bodies = [
            encode_body_with(&mut encoder, &first),
            encode_body_with(&mut encoder, &second),
            encode_body_with(&mut encoder, &first),
        ];
        // The first body is the self-contained one; the second lists its
        // two new names only; the third lists none and is all indices: one
        // fact, then the run `SeqR`, arity 2, one row, its two values.
        assert_eq!(bodies[0], encode_body(&first));
        assert_eq!(bodies[1][0], 2);
        assert_eq!(bodies[2], [0, 1, 0, 2, 1, 1, 2]);
        assert_eq!(encoder.dictionary_len(), 5);

        let mut dictionary = Dictionary::new();
        for (body, sent) in bodies.iter().zip([&first, &second, &first]) {
            assert_eq!(
                &decode_body_with::<Instance>(&mut dictionary, body).unwrap(),
                sent
            );
        }
        assert_eq!(dictionary.len(), 5);

        // An index is checked against everything the sequence has named...
        assert_eq!(
            decode_body_with::<Instance>(&mut dictionary, &[0, 1, 0, 2, 1, 1, 5]),
            Err(DecodeError::SymbolIndexOutOfRange {
                index: 5,
                table_len: 5
            })
        );
        // ...and a body cut loose from its sequence is an error, not a guess.
        assert_eq!(
            decode_body::<Instance>(&bodies[2]),
            Err(DecodeError::SymbolIndexOutOfRange {
                index: 0,
                table_len: 0
            })
        );
        assert!(decode_body::<Instance>(&bodies[1]).is_err());
    }

    #[test]
    fn a_body_replayed_on_its_sequence_is_refused_not_renumbered() {
        let instance = Instance::from_facts([Fact::from_names("ReplayR", &["replay_a"])]);
        let mut encoder = Encoder::new();
        let named = encode_body_with(&mut encoder, &instance);
        let nameless = encode_body_with(&mut encoder, &instance);
        let mut dictionary = Dictionary::new();
        assert_eq!(
            decode_body_with(&mut dictionary, &named),
            Ok(instance.clone())
        );
        // The body that listed the names, again: its table would enter them
        // a second time and shift every later index.
        let err = decode_body_with::<Instance>(&mut dictionary, &named).unwrap_err();
        assert!(
            matches!(&err, DecodeError::Invalid(why) if why.contains("ReplayR")),
            "{err}"
        );
        // A body that lists nothing leans on the sequence, not on its place
        // in it: read twice it means the same twice.
        let mut dictionary = Dictionary::new();
        decode_body_with::<Instance>(&mut dictionary, &named).unwrap();
        for _ in 0..2 {
            assert_eq!(
                decode_body_with(&mut dictionary, &nameless),
                Ok(instance.clone())
            );
        }
        // One table naming a thing twice is the same corruption.
        assert!(matches!(
            decode_body::<Symbol>(&[2, 1, b'x', 1, b'x', 0]),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn inline_strings_are_bounds_checked_and_validated() {
        let mut enc = Encoder::new();
        for text in ["", "facts=4444", "名前 é"] {
            enc.str(text);
        }
        let body = enc.finish();
        assert_eq!(body[0], 0, "inline strings stay out of the symbol table");
        let mut dictionary = Dictionary::new();
        let mut dec = dictionary.decoder(&body).unwrap();
        for text in ["", "facts=4444", "名前 é"] {
            assert_eq!(dec.str(), Ok(text));
        }
        assert_eq!(dec.finish(), Ok(()));

        for (bytes, error) in [
            (&[0, 3, b'a', b'b'][..], DecodeError::Truncated),
            (&[0, 0x80][..], DecodeError::Truncated),
            (
                &[
                    0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
                ][..],
                DecodeError::Truncated,
            ),
            (&[0, 2, 0xc3, 0x28][..], DecodeError::InvalidUtf8),
        ] {
            let mut dictionary = Dictionary::new();
            assert_eq!(dictionary.decoder(bytes).unwrap().str(), Err(error));
        }
    }

    #[test]
    fn instance_bodies_keep_their_pinned_bytes() {
        // Fresh names interned here in a fixed order: facts encode in
        // interning order, so the bytes cannot depend on what other tests
        // interned first. Pinned once per `frame::VERSION`; this is 4's.
        for name in ["GoldenEdge", "GoldenMark", "g_hub", "g_a", "g_b"] {
            Symbol::new(name);
        }
        let chunk = Instance::from_facts([
            Fact::from_names("GoldenMark", &["g_a"]),
            Fact::from_names("GoldenEdge", &["g_hub", "g_b"]),
            Fact::from_names("GoldenEdge", &["g_a", "g_hub"]),
            Fact::from_names("GoldenMark", &[]),
            Fact::from_names("GoldenEdge", &["g_hub", "g_a"]),
            Fact::from_names("GoldenEdge", &["g_hub", "g_b"]),
        ]);
        let mut golden = vec![5];
        for name in ["GoldenEdge", "g_hub", "g_a", "g_b", "GoldenMark"] {
            golden.push(name.len() as u8);
            golden.extend_from_slice(name.as_bytes());
        }
        golden.push(5); // facts
        golden.extend_from_slice(&[0, 2, 3, 1, 2, 1, 3, 2, 1]); // GoldenEdge/2: 3 rows
        golden.extend_from_slice(&[4, 0, 1]); // GoldenMark/0: the empty row
        golden.extend_from_slice(&[4, 1, 1, 2]); // GoldenMark/1: 1 row
        assert_eq!(encode_body(&chunk), golden);
        assert_eq!(decode_body::<Instance>(&golden).unwrap(), chunk);

        // On a worker connection the same payload, its values the bare ids
        // of this process and its table the two relation names alone.
        let [hub, a, b] = ["g_hub", "g_a", "g_b"].map(|name| Value::new(name).id() as u8);
        assert!(b < 0x80, "one varint byte each");
        let mut golden = vec![2];
        for name in ["GoldenEdge", "GoldenMark"] {
            golden.push(name.len() as u8);
            golden.extend_from_slice(name.as_bytes());
        }
        golden.push(5);
        golden.extend_from_slice(&[0, 2, 3, hub, a, hub, b, a, hub]);
        golden.extend_from_slice(&[1, 0, 1]);
        golden.extend_from_slice(&[1, 1, 1, a]);
        assert_eq!(encode_body_with(&mut Encoder::connection(), &chunk), golden);
        let back = decode_body_with::<Instance>(&mut Dictionary::coordinator(), &golden);
        assert_eq!(back.unwrap(), chunk);
    }

    #[test]
    fn a_payload_listing_a_fact_twice_decodes_to_a_set() {
        let fact = Fact::from_names("R", &["a", "b"]);
        let other = Fact::from_names("R", &["b", "a"]);
        let mut enc = Encoder::new();
        enc.usize(3);
        enc.symbol(fact.relation);
        enc.usize(2);
        enc.usize(3);
        for f in [&fact, &other, &fact] {
            f.values.iter().for_each(|&value| enc.value(value));
        }
        let back: Instance = decode_body(&enc.finish()).unwrap();
        assert_eq!(
            back.len(),
            2,
            "set semantics: the repeated fact counts once"
        );
        assert_eq!(back, Instance::from_facts([fact, other]));
        assert_eq!(back.facts_of(Symbol::new("R")).len(), 2);
    }

    #[test]
    fn hostile_instance_bodies_get_typed_errors() {
        let body = encode_body(&Instance::from_facts([Fact::from_names("R", &["a", "b"])]));
        // table: 3 symbols; payload: 1 fact = one run of relation, arity,
        // row count and two values
        let (table, payload) = body.split_at(body.len() - 6);
        assert_eq!(payload, [1, 0, 2, 1, 1, 2]);
        let with_payload = |payload: &[u8]| [table, payload].concat();

        // a value index past the table
        assert_eq!(
            decode_body::<Instance>(&with_payload(&[1, 0, 2, 1, 1, 9])),
            Err(DecodeError::SymbolIndexOutOfRange {
                index: 9,
                table_len: 3
            })
        );
        // a table cut short inside an entry, and one promising more entries
        // than there are bytes
        assert_eq!(
            decode_body::<Instance>(&table[..table.len() - 1]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            decode_body::<Instance>(&[200, 1]),
            Err(DecodeError::Truncated)
        );
        // a table entry that is not UTF-8
        assert_eq!(
            decode_body::<Instance>(&[1, 2, 0xff, 0xfe, 0]),
            Err(DecodeError::InvalidUtf8)
        );
        // a fact count no run delivers, a run of more values than there are
        // bytes, and one whose `rows x arity` overflows
        for payload in [
            &[7, 0, 2, 1, 1, 2][..],
            &[7, 0, 2, 7, 1, 2],
            &[1, 0, 2, 2, 1, 2],
            &[
                1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 3, 1, 2,
            ],
        ] {
            assert_eq!(
                decode_body::<Instance>(&with_payload(payload)),
                Err(DecodeError::Truncated),
                "{payload:?}"
            );
        }
        // runs that cannot be: empty, more rows than the instance has facts
        // left, and a second empty tuple — which no byte count bounds
        for payload in [
            &[1, 0, 2, 0][..],
            &[1, 0, 1, 2, 1, 2],
            &[2, 0, 0, 2],
            &[0xff, 0xff, 0xff, 0x7f, 0, 0, 0xff, 0xff, 0xff, 0x7f],
        ] {
            let err = decode_body::<Instance>(&with_payload(payload)).unwrap_err();
            assert!(matches!(err, DecodeError::Invalid(_)), "{payload:?}: {err}");
        }
    }

    /// How a receiver is made, and how its sender: (name, sender, receiver).
    type Receiver = (&'static str, fn() -> Encoder, fn() -> Dictionary);

    /// The three receivers there are.
    const RECEIVERS: [Receiver; 3] = [
        ("self-contained", Encoder::new, Dictionary::new),
        ("worker", Encoder::connection, Dictionary::worker),
        ("coordinator", Encoder::connection, Dictionary::coordinator),
    ];

    /// What a worker holds for `instance`: the same relations over the
    /// opaque ids of its values.
    fn held_by_a_worker(instance: &Instance) -> Instance {
        Instance::from_facts(instance.facts().map(|fact| {
            let opaque = |value: &Value| Value::opaque(value.id()).unwrap();
            Fact::new(
                fact.relation,
                fact.values.iter().map(opaque).collect::<Tuple>(),
            )
        }))
    }

    #[test]
    fn every_receiver_reads_the_same_instance_its_own_way() {
        let instance = cq::parse_instance(
            "Mix(m_a, m_b). Mix(m_b). Mix(m_b, m_a). Mix(). Flag(). \
             Wide(m_a, m_b, m_c, m_d, m_e, m_f). Wide(m_a, m_b, m_c, m_d, m_e, m_a).",
        )
        .unwrap();
        for (receiver, encoder, dictionary) in RECEIVERS {
            let body = encode_body_with(&mut encoder(), &instance);
            let back = decode_body_with::<Instance>(&mut dictionary(), &body).unwrap();
            if receiver == "worker" {
                // nothing named, nothing interned, the sender's order kept
                assert_eq!(back, held_by_a_worker(&instance));
                assert!(back
                    .facts()
                    .all(|f| f.values.iter().all(|v| v.symbol().is_opaque())));
                // ...and what a worker sends back is what it was sent
                let reply = encode_body_with(&mut Encoder::connection(), &back);
                assert_eq!(reply, body);
            } else {
                assert_eq!(back, instance, "{receiver}");
            }
        }
        // The empty instance is one byte after the empty table.
        assert_eq!(encode_body(&Instance::new()), [0, 0]);
        assert_eq!(decode_body::<Instance>(&[0, 0]), Ok(Instance::new()));
    }

    #[test]
    fn a_value_id_outside_the_receivers_id_space_is_a_typed_error() {
        let relation = Symbol::new("IdSpace");
        let body_with = |id: u64| {
            let mut enc = Encoder::connection();
            enc.usize(1);
            enc.symbol(relation);
            enc.usize(1);
            enc.usize(1);
            enc.u64(id);
            enc.finish()
        };
        let read = |dictionary: fn() -> Dictionary, id: u64| {
            decode_body_with::<Instance>(&mut dictionary(), &body_with(id))
        };
        let known = u64::from(Value::new("id_space_known").id());
        // An id the coordinator never interned is no symbol...
        assert!(read(Dictionary::coordinator, known).is_ok());
        for id in [(1 << 31) - 1, 1 << 31, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(
                read(Dictionary::coordinator, id),
                Err(DecodeError::UnknownValueId { id })
            );
        }
        // ...and a worker takes any id an interner can hand out, no other.
        let held = read(Dictionary::worker, (1 << 31) - 1).unwrap();
        assert_eq!(held.to_string(), "{IdSpace(#2147483647)}");
        for id in [1 << 31, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(
                read(Dictionary::worker, id),
                Err(DecodeError::UnknownValueId { id })
            );
        }
    }

    #[test]
    fn mutated_blocked_bodies_never_panic_or_overallocate_for_any_receiver() {
        // Rows the mutations reorder, repeat and cut: two relations, three
        // arities, the empty tuple.
        let mut text = String::from("Hostile(). ");
        for i in 0..40 {
            text += &format!("Hostile(h{}, h{}). Other(h{}). ", i % 7, i % 5, i % 11);
        }
        let instance = cq::parse_instance(&text).unwrap();
        let mut state = 0x5EED_2015u64;
        let mut random = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for (receiver, encoder, dictionary) in RECEIVERS {
            let body = encode_body_with(&mut encoder(), &instance);
            assert!(decode_body_with::<Instance>(&mut dictionary(), &body).is_ok());
            for _ in 0..300 {
                let mut mutated = body.clone();
                match random(4) {
                    0 => mutated.truncate(random(body.len())),
                    1 => {
                        let at = random(body.len());
                        mutated[at] = random(256) as u8;
                    }
                    2 => {
                        let (a, b) = (random(body.len()), random(body.len()));
                        mutated.swap(a, b);
                    }
                    _ => {
                        let at = random(body.len());
                        mutated.insert(at, [0x80, 0xff, 0x7f, 0][random(4)]);
                    }
                }
                // Typed error or an instance: never a panic, never an
                // allocation sized by a count (the run is `cargo test`'s
                // memory: a 2^60-row reservation would abort it).
                match decode_body_with::<Instance>(&mut dictionary(), &mutated) {
                    // a row is at least a byte, a nullary run three
                    Ok(decoded) => assert!(decoded.len() <= mutated.len(), "{receiver}"),
                    Err(DecodeError::Io(_) | DecodeError::BadMagic(_)) => {
                        panic!("{receiver}: a body error, not a frame error")
                    }
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn rows_out_of_order_or_repeated_decode_to_the_same_set_through_the_sort() {
        let instance = cq::parse_instance("Ord(o_a, o_b). Ord(o_b, o_a). Ord(o_c, o_c).").unwrap();
        let rows: Vec<&Fact> = instance.facts().collect();
        for (receiver, encoder, dictionary) in RECEIVERS {
            let expected = match receiver {
                "worker" => held_by_a_worker(&instance),
                _ => instance.clone(),
            };
            for order in [vec![2, 1, 0], vec![0, 0, 1, 2, 2], vec![1, 2, 0, 1]] {
                let mut enc = encoder();
                enc.usize(order.len());
                enc.symbol(rows[0].relation);
                enc.usize(2);
                enc.usize(order.len());
                for &row in &order {
                    rows[row].values.iter().for_each(|&value| enc.value(value));
                }
                let back = decode_body_with::<Instance>(&mut dictionary(), &enc.finish());
                assert_eq!(back.as_ref(), Ok(&expected), "{receiver} {order:?}");
            }
            // the relation split over two runs that are not neighbours
            let mut enc = encoder();
            let nullary = Fact::new("OrdOther", Tuple::from(vec![]));
            enc.usize(4);
            for (relation, arity, picked) in [
                (rows[0].relation, 2, &[2][..]),
                (nullary.relation, 0, &[][..]),
                (rows[0].relation, 2, &[0, 1][..]),
            ] {
                enc.symbol(relation);
                enc.usize(arity);
                enc.usize(picked.len().max(1));
                for &row in picked {
                    rows[row].values.iter().for_each(|&value| enc.value(value));
                }
            }
            let back = decode_body_with::<Instance>(&mut dictionary(), &enc.finish()).unwrap();
            let mut expected = expected;
            expected.insert(nullary);
            assert_eq!(back, expected, "{receiver}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_body(&Fact::from_names("R", &["a"]));
        body.push(0x00);
        let err = decode_body::<Fact>(&body).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes { count: 1 });
    }

    #[test]
    fn eval_options_round_trip_every_combination() {
        for options in [EvalOptions::Triejoin, EvalOptions::ScanOracle] {
            let body = encode_body(&options);
            // an empty symbol table, then the one switch byte
            assert_eq!(body.len(), 1 + 1);
            assert_eq!(decode_body::<EvalOptions>(&body).unwrap(), options);
        }
    }

    #[test]
    fn eval_options_reject_unknown_enum_bytes() {
        // A switch byte nothing encodes
        let mut enc = Encoder::new();
        enc.byte(9);
        let err = decode_body::<EvalOptions>(&enc.finish()).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::UnknownTag {
                    context: "EvalOptions",
                    tag: 9
                }
            ),
            "{err}"
        );
        // The index flag a version-2 body carried after the ordering byte
        // is a trailing byte now
        let mut enc = Encoder::new();
        enc.byte(1);
        enc.bool(true);
        let err = decode_body::<EvalOptions>(&enc.finish()).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes { count: 1 });
    }

    #[test]
    fn shipments_round_trip_as_a_kind_byte_and_their_facts() {
        let facts = Arc::new(cq::parse_instance("R(a, b). R(b, c).").unwrap());
        let carried = encode_body(&*facts).len();
        for (shipment, payload) in [
            (Shipment::Full(facts.clone()), carried),
            (Shipment::Delta(facts.clone()), carried),
            (Shipment::Resident, 1),
        ] {
            let body = encode_body(&shipment);
            assert_eq!(body.len(), 1 + payload, "{shipment:?}");
            assert_eq!(decode_body::<Shipment>(&body).unwrap(), shipment);
        }
        let mut enc = Encoder::new();
        enc.byte(3);
        let err = decode_body::<Shipment>(&enc.finish()).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::UnknownTag {
                context: "Shipment",
                tag: 3
            }
        ));
    }

    #[test]
    fn every_truncation_of_a_body_errors_not_panics() {
        let q = ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap();
        let body = encode_body(&q);
        for cut in 0..body.len() {
            assert!(
                decode_body::<ConjunctiveQuery>(&body[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
