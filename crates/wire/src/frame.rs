//! The framing layer: magic number, version byte, varint body length.
//!
//! ```text
//! frame := "PCQW"  version:u8  varint(body_len)  body
//!           4 bytes  1 byte     1..10 bytes       body_len bytes
//! ```
//!
//! The magic rejects non-wire input immediately (piping a text file into
//! `pcq-analyze decode` fails on byte 0, not deep inside the codec), the
//! version byte lets future encodings coexist on one stream, and the
//! explicit length makes frames self-delimiting so they can be
//! concatenated on a pipe. The body is a codec body
//! (see [`crate::codec`]): symbol table followed by payload.
//!
//! The frames of one connection share a symbol dictionary per direction,
//! which the stream functions are handed — [`write_frame`] the sender's
//! [`Encoder`], [`read_frame`] the receiver's [`Dictionary`] — so a frame
//! lists only the names no earlier frame of the connection carried; the
//! same two halves say how data values cross (by id on a worker connection,
//! by name otherwise). [`encode_frame`] / [`decode_frame`] code a
//! *self-contained* frame: the first frame of a sequence of named bodies.

use std::io::{Read, Write};

use crate::codec::{
    decode_body, decode_body_with, encode_body_with, read_varint, write_varint, Decode,
    DecodeError, Dictionary, Encode, Encoder,
};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"PCQW";

/// The current wire-format version. Version 4 made instance bodies
/// relation-blocked rows of bare value ids and took data values out of a
/// worker connection's dictionaries (a value is the coordinator's id there).
pub const VERSION: u8 = 4;

/// Sanity cap on a frame body: a declared length beyond this is treated as
/// corruption rather than trusted with an allocation (1 GiB).
pub const MAX_BODY_LEN: u64 = 1 << 30;

/// Encodes `value` as one self-contained frame.
pub fn encode_frame<T: Encode>(value: &T) -> Vec<u8> {
    encode_frame_with(&mut Encoder::new(), value)
}

/// Encodes `value` as the next frame of the connection `encoder` writes.
pub fn encode_frame_with<T: Encode>(encoder: &mut Encoder, value: &T) -> Vec<u8> {
    let body = encode_body_with(encoder, value);
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    write_varint(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    out
}

/// Decodes one value from `bytes`, which must contain exactly one
/// self-contained frame (no trailing bytes). Never panics on corrupted
/// input.
pub fn decode_frame<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let (body, rest) = split_frame(bytes)?;
    if !rest.is_empty() {
        return Err(DecodeError::TrailingBytes { count: rest.len() });
    }
    decode_body(body)
}

/// Splits the first frame off `bytes`: returns its body and the remaining
/// input (frames are self-delimiting, so streams concatenate).
pub fn split_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), DecodeError> {
    if bytes.len() < MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let (magic, rest) = bytes.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(DecodeError::BadMagic([
            magic[0], magic[1], magic[2], magic[3],
        ]));
    }
    let (&version, rest) = rest.split_first().ok_or(DecodeError::Truncated)?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let (len, used) = read_varint(rest)?;
    if len > MAX_BODY_LEN {
        return Err(DecodeError::FrameTooLarge {
            len,
            limit: MAX_BODY_LEN,
        });
    }
    let rest = &rest[used..];
    if (rest.len() as u64) < len {
        return Err(DecodeError::Truncated);
    }
    Ok(rest.split_at(len as usize))
}

/// Writes `value` to a stream as the next frame of the connection
/// `encoder` writes, and flushes it.
pub fn write_frame<T: Encode>(
    w: &mut impl Write,
    encoder: &mut Encoder,
    value: &T,
) -> Result<(), DecodeError> {
    w.write_all(&encode_frame_with(encoder, value))
        .and_then(|()| w.flush())
        .map_err(|e| DecodeError::Io(e.to_string()))
}

/// Reads the next frame of the connection `dictionary` reads from a
/// stream. Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed the pipe between messages); EOF in the middle of a frame is
/// [`DecodeError::Truncated`].
pub fn read_frame<T: Decode>(
    r: &mut impl Read,
    dictionary: &mut Dictionary,
) -> Result<Option<T>, DecodeError> {
    Ok(read_frame_counted(r, dictionary)?.map(|(value, _)| value))
}

/// Reads one frame from a stream like [`read_frame`] and also reports the
/// number of bytes the frame occupied on the wire (magic + version +
/// length varint + body) — the honest size transports add to their
/// communication-volume counters for worker→coordinator reply frames.
pub fn read_frame_counted<T: Decode>(
    r: &mut impl Read,
    dictionary: &mut Dictionary,
) -> Result<Option<(T, u64)>, DecodeError> {
    let Some((body, wire_len)) = read_body(r)? else {
        return Ok(None);
    };
    decode_body_with(dictionary, &body).map(|value| Some((value, wire_len)))
}

/// Reads the next frame off a stream without decoding it: its body and the
/// number of bytes the frame occupied. `Ok(None)` on a clean EOF at a frame
/// boundary. The callers that time the decode apart from the wait for the
/// bytes read frames through here.
pub(crate) fn read_body(r: &mut impl Read) -> Result<Option<(Vec<u8>, u64)>, DecodeError> {
    let mut magic = [0u8; 4];
    match read_exact_or_eof(r, &mut magic)? {
        0 => return Ok(None),
        n if n < magic.len() => return Err(DecodeError::Truncated),
        _ => {}
    }
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)
        .map_err(|e| io_or_truncated(&e))?;
    if version[0] != VERSION {
        return Err(DecodeError::UnsupportedVersion(version[0]));
    }
    let (len, varint_bytes) = read_stream_varint(r)?;
    if len > MAX_BODY_LEN {
        return Err(DecodeError::FrameTooLarge {
            len,
            limit: MAX_BODY_LEN,
        });
    }
    // Don't trust the declared length for the allocation: read through
    // `take`, which stops at the real end of input.
    let mut body = Vec::with_capacity(len.min(1 << 20) as usize);
    r.take(len)
        .read_to_end(&mut body)
        .map_err(|e| DecodeError::Io(e.to_string()))?;
    if (body.len() as u64) < len {
        return Err(DecodeError::Truncated);
    }
    let wire_len = MAGIC.len() as u64 + 1 + varint_bytes as u64 + len;
    Ok(Some((body, wire_len)))
}

/// Fills `buf` from `r`, tolerating EOF: returns how many bytes were read
/// (0 = clean EOF before the first byte).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, DecodeError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(DecodeError::Io(e.to_string())),
        }
    }
    Ok(filled)
}

fn io_or_truncated(e: &std::io::Error) -> DecodeError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        DecodeError::Truncated
    } else {
        DecodeError::Io(e.to_string())
    }
}

/// Reads a LEB128 varint byte-by-byte from a stream, returning the value
/// and how many bytes it occupied.
fn read_stream_varint(r: &mut impl Read) -> Result<(u64, usize), DecodeError> {
    let mut bytes = Vec::with_capacity(10);
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte).map_err(|e| io_or_truncated(&e))?;
        bytes.push(byte[0]);
        if byte[0] & 0x80 == 0 {
            let (value, used) = read_varint(&bytes)?;
            return Ok((value, used));
        }
        if bytes.len() > 10 {
            return Err(DecodeError::VarintOverflow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::Fact;

    /// Reads one self-contained frame off a stream.
    fn read_frame<T: Decode>(r: &mut impl Read) -> Result<Option<T>, DecodeError> {
        super::read_frame(r, &mut Dictionary::new())
    }

    /// [`read_frame`], with the frame's wire length.
    fn read_frame_counted<T: Decode>(r: &mut impl Read) -> Result<Option<(T, u64)>, DecodeError> {
        super::read_frame_counted(r, &mut Dictionary::new())
    }

    #[test]
    fn frames_round_trip_and_self_delimit() {
        let a = Fact::from_names("R", &["x", "y"]);
        let b = Fact::from_names("S", &["z"]);
        let mut stream = encode_frame(&a);
        stream.extend(encode_frame(&b));

        let (body_a, rest) = split_frame(&stream).unwrap();
        let (body_b, tail) = split_frame(rest).unwrap();
        assert!(tail.is_empty());
        assert_eq!(crate::codec::decode_body::<Fact>(body_a).unwrap(), a);
        assert_eq!(crate::codec::decode_body::<Fact>(body_b).unwrap(), b);

        // and through the stream API
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame::<Fact>(&mut cursor).unwrap(), Some(a));
        assert_eq!(read_frame::<Fact>(&mut cursor).unwrap(), Some(b));
        assert_eq!(read_frame::<Fact>(&mut cursor).unwrap(), None);
    }

    #[test]
    fn counted_reads_report_the_exact_wire_length() {
        let a = Fact::from_names("R", &["x", "y"]);
        let b = Fact::from_names("SomeLongerRelationName", &["value1", "value2", "value3"]);
        let frame_a = encode_frame(&a);
        let frame_b = encode_frame(&b);
        let mut stream = frame_a.clone();
        stream.extend(frame_b.clone());

        let mut cursor = std::io::Cursor::new(stream);
        let (back_a, len_a) = read_frame_counted::<Fact>(&mut cursor).unwrap().unwrap();
        let (back_b, len_b) = read_frame_counted::<Fact>(&mut cursor).unwrap().unwrap();
        assert_eq!(back_a, a);
        assert_eq!(back_b, b);
        assert_eq!(len_a, frame_a.len() as u64, "counted = bytes produced");
        assert_eq!(len_b, frame_b.len() as u64);
        assert_eq!(read_frame_counted::<Fact>(&mut cursor).unwrap(), None);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let fact = Fact::from_names("R", &["a"]);
        let mut frame = encode_frame(&fact);
        frame[0] = b'X';
        assert!(matches!(
            decode_frame::<Fact>(&frame),
            Err(DecodeError::BadMagic(_))
        ));

        let mut frame = encode_frame(&fact);
        frame[4] = 99;
        assert_eq!(
            decode_frame::<Fact>(&frame),
            Err(DecodeError::UnsupportedVersion(99))
        );
        // the version this one replaced is another format, not a subset
        frame[4] = VERSION - 1;
        assert_eq!(
            decode_frame::<Fact>(&frame),
            Err(DecodeError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn every_truncation_of_a_frame_errors_not_panics() {
        let fact = Fact::from_names("Edge", &["node1", "node2"]);
        let frame = encode_frame(&fact);
        for cut in 0..frame.len() {
            assert!(
                decode_frame::<Fact>(&frame[..cut]).is_err(),
                "truncation at byte {cut} must error"
            );
            let mut cursor = std::io::Cursor::new(&frame[..cut]);
            match read_frame::<Fact>(&mut cursor) {
                Ok(None) if cut == 0 => {}
                Err(_) => {}
                other => panic!("stream truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_declared_length_is_corruption() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        crate::codec::write_varint(&mut frame, u64::MAX);
        assert!(matches!(
            decode_frame::<Fact>(&frame),
            Err(DecodeError::FrameTooLarge { .. })
        ));
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame::<Fact>(&mut cursor),
            Err(DecodeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn trailing_garbage_after_a_single_frame_is_rejected() {
        let mut frame = encode_frame(&Fact::from_names("R", &["a"]));
        frame.extend_from_slice(b"junk");
        assert!(matches!(
            decode_frame::<Fact>(&frame),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }
}
