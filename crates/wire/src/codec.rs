//! The binary codec: varint primitives, the symbol dictionary and the
//! [`Encode`] / [`Decode`] traits with impls for every shippable type.
//!
//! ## Layout
//!
//! A codec *body* (the payload of one [frame](crate::frame)) is:
//!
//! ```text
//! body    := symtab payload
//! symtab  := varint(count) { varint(len) utf8-bytes }*
//! payload := type-specific, see the Encode impls
//! ```
//!
//! Every interned name in a message — relation names, data values,
//! variables, node names — is referenced from the payload by varint index
//! into a **dictionary**, and a body's `symtab` lists the names its payload
//! is the first to use. A chunk of ten thousand facts over relation `R`
//! ships the string `"R"` once, not ten thousand times, and repeated data
//! values (the common case under skew) ship as small integers.
//!
//! ## Dictionary scope
//!
//! The dictionary belongs to whoever codes a *sequence* of bodies: the
//! sender's half is the [`Encoder`] (symbol → index), the receiver's half a
//! [`Dictionary`] (index → symbol), and indices count from the first body
//! coded through them. A connection keeps one pair per direction for its
//! whole life, so a name crosses it once: later bodies refer to it by index
//! and list only names the dictionary does not hold yet. A *self-contained*
//! body — [`encode_body`] / [`decode_body`], a file, the `encode` / `decode`
//! CLI — is the same code over a fresh dictionary: exactly the first body
//! of a connection, its `symtab` listing every name it uses. Both halves
//! die with their connection; nothing about them is negotiated, versioned
//! or optional.
//!
//! Varints are LEB128: 7 payload bits per byte, high bit = continuation.
//!
//! Decoding never panics: every length is bounds-checked against the
//! remaining input, symbol references are checked against the dictionary,
//! and semantic invariants (e.g. query safety) are re-validated on decode.
//! A receiver's dictionary grows only by `symtab` entries that were
//! validated inside a body it was handed, so its memory follows received
//! bytes, never a length field.

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
/// and the number of bytes consumed.
pub(crate) fn read_varint(input: &[u8]) -> Result<(u64, usize), DecodeError> {
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
    /// An encoder over an empty dictionary.
    pub fn new() -> Encoder {
        Encoder::default()
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

/// The receiving half of a symbol dictionary: the symbols of every body
/// decoded through it so far, in index order.
#[derive(Default)]
pub struct Dictionary {
    symbols: Vec<Symbol>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
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
    /// the payload. A table that does not parse adds nothing.
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
        self.symbols.append(&mut Symbol::intern_all(names));
        Ok(Decoder {
            symbols: &self.symbols,
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
        self.symbols
            .get(usize::try_from(index).unwrap_or(usize::MAX))
            .copied()
            .ok_or(DecodeError::SymbolIndexOutOfRange {
                index,
                table_len: self.symbols.len(),
            })
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
        enc.symbol(self.symbol());
    }
}

impl Decode for Value {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Value::from(dec.symbol()?))
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

impl Encode for Instance {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for fact in self.facts() {
            fact.encode(enc);
        }
    }
}

impl Decode for Instance {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let facts = Vec::<Fact>::decode(dec)?;
        Ok(Instance::from_facts(facts))
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
        // two new names only; the third lists none and is all indices.
        assert_eq!(bodies[0], encode_body(&first));
        assert_eq!(bodies[1][0], 2);
        assert_eq!(bodies[2], [0, 1, 0, 2, 1, 2]);
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
            decode_body_with::<Instance>(&mut dictionary, &[0, 1, 0, 2, 1, 5]),
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
        // interned first. The expectation was produced by the per-fact
        // insert/SipHash-table codec this one replaced — the wire format
        // must stay byte-identical.
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
        golden.extend_from_slice(&[5, 0, 2, 1, 2, 0, 2, 1, 3, 0, 2, 2, 1, 4, 0, 4, 1, 2]);
        assert_eq!(encode_body(&chunk), golden);
        assert_eq!(decode_body::<Instance>(&golden).unwrap(), chunk);
    }

    #[test]
    fn a_payload_listing_a_fact_twice_decodes_to_a_set() {
        let fact = Fact::from_names("R", &["a", "b"]);
        let other = Fact::from_names("R", &["b", "a"]);
        let mut enc = Encoder::new();
        enc.usize(3);
        for f in [&fact, &other, &fact] {
            f.encode(&mut enc);
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
        // table: 3 symbols; payload: 1 fact = relation, arity, two values
        let (table, payload) = body.split_at(body.len() - 5);
        assert_eq!(payload, [1, 0, 2, 1, 2]);

        // a value index past the table
        let mut bad = table.to_vec();
        bad.extend_from_slice(&[1, 0, 2, 1, 9]);
        assert_eq!(
            decode_body::<Instance>(&bad),
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
        // a fact count beyond the remaining payload
        let mut bad = table.to_vec();
        bad.extend_from_slice(&[7, 0, 2, 1, 2]);
        assert_eq!(decode_body::<Instance>(&bad), Err(DecodeError::Truncated));
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
