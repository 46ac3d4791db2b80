//! The wire format: [`rewiring::frame`]s, their length capped at
//! [`MAX_FRAME_PAYLOAD`], whose payload — an opcode byte and a body —
//! carries batches of typed [`Op`]s and their [`Reply`]s.
//!
//! A peer that reads an implausible length, an unknown opcode or a
//! checksum mismatch has found a corrupted or hostile stream — there
//! is no way to resynchronise a byte stream after a bad length
//! prefix, so the connection is closed (the server journals a
//! `proto_error` event and closes *only* the offending connection).
//!
//! Two frame kinds exist:
//!
//! * **Request** (client → server): a correlation id chosen by the
//!   client plus a batch of ops, encoded with
//!   [`encode_request`]/decoded with [`decode_request`]. The id comes
//!   back on every response frame, so a client may pipeline many
//!   requests on one connection.
//! * **Response** (server → client): the correlation id, a `last`
//!   marker and a set of `(slot, reply)` items, where `slot` is the
//!   op's position in the request batch. One request may be answered
//!   by **several** response frames: replies stream out as the
//!   router completes them, and a big `Scan` streams its entries in
//!   bounded chunks — the same slot then appears on multiple frames,
//!   each appending entries, until the frame flagged `last`.
//!
//! Write refusals (a database degraded to read-only) travel as a
//! typed [`Reply::Refused`] item carrying an [`ErrorCode`] — a
//! protocol-level answer, not a dropped connection.

use rewiring::frame;
use rma_db::{Op, Reply};
use std::mem::MaybeUninit;

/// Hard cap on one frame's payload bytes. Bounds the memory one
/// connection can demand before checksum validation, and therefore
/// also the decode buffer of a well-behaved peer.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Bytes of the `len | crc` frame header ([`rewiring::frame`]).
pub const FRAME_HEADER: usize = frame::HEADER;

/// Payload opcode of a request frame.
pub const OPCODE_REQUEST: u8 = 1;
/// Payload opcode of a response frame.
pub const OPCODE_RESPONSE: u8 = 2;

/// Typed protocol error codes carried inside a [`Reply::Refused`]
/// item — the wire face of the engine's degraded read-only mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The database is degraded to read-only (its write-ahead log hit
    /// an I/O failure); the write was refused, reads keep serving.
    /// Maps from [`Reply::Refused`] / `DbError::ReadOnly`.
    ReadOnly = 1,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::ReadOnly),
            _ => None,
        }
    }
}

/// Why a frame or payload failed to decode. [`code`](Self::code)
/// gives the stable numeric form used in the journal and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the structure it promised.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// The payload checksum disagrees with the header CRC.
    BadCrc,
    /// Unknown frame opcode.
    BadOpcode(u8),
    /// Unknown op tag inside a request.
    BadOp(u8),
    /// Unknown reply tag or error code inside a response.
    BadReply(u8),
    /// The payload has bytes left over after its promised content.
    TrailingBytes,
    /// A request reused a correlation id that is still in flight on
    /// the same connection (server-detected, never produced by the
    /// decoders here).
    DuplicateCorr,
}

impl WireError {
    /// Stable numeric code (journaled as the `keys` field of
    /// `proto_error` events).
    pub fn code(self) -> u64 {
        match self {
            WireError::Truncated => 1,
            WireError::Oversized(_) => 2,
            WireError::BadCrc => 3,
            WireError::BadOpcode(_) => 4,
            WireError::BadOp(_) => 5,
            WireError::BadReply(_) => 6,
            WireError::TrailingBytes => 7,
            WireError::DuplicateCorr => 8,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::Oversized(n) => {
                write!(f, "length prefix {n} exceeds {MAX_FRAME_PAYLOAD}")
            }
            WireError::BadCrc => write!(f, "payload checksum mismatch"),
            WireError::BadOpcode(op) => write!(f, "unknown frame opcode {op}"),
            WireError::BadOp(t) => write!(f, "unknown op tag {t}"),
            WireError::BadReply(t) => write!(f, "unknown reply tag {t}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload content"),
            WireError::DuplicateCorr => {
                write!(f, "correlation id reused while still in flight")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The frame checksum: CRC-32 (IEEE), shared with the WAL's on-disk
/// formats. Re-exported so tests can craft checksum-valid malformed
/// frames.
pub use rewiring::crc::crc32;

// ----------------------------------------------------- frame split --

/// What [`split_frame`] found at the head of a receive buffer.
#[derive(Debug)]
pub enum Frame<'a> {
    /// No complete frame yet — keep reading.
    Incomplete,
    /// One whole, checksum-clean payload; the frame consumed
    /// `consumed` buffer bytes.
    Payload {
        /// The frame's payload (opcode + body).
        payload: &'a [u8],
        /// Total frame bytes (header + payload) to drain.
        consumed: usize,
    },
}

/// Total bytes (header included) of the frame at the head of `buf`,
/// judged from its header alone: `Ok(None)` until the whole frame is
/// buffered, an error when the length prefix is implausible. The
/// payload is not checksummed — that is [`split_frame`]'s job.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    let Some(len) = frame::payload_len(buf) else {
        return Ok(None);
    };
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized(len as u32));
    }
    let end = FRAME_HEADER + len;
    Ok((buf.len() >= end).then_some(end))
}

/// Splits the first frame off `buf`. `Ok(Frame::Incomplete)` asks for
/// more bytes; an error is unrecoverable for the stream.
pub fn split_frame(buf: &[u8]) -> Result<Frame<'_>, WireError> {
    let Some(end) = frame_len(buf)? else {
        return Ok(Frame::Incomplete);
    };
    let payload = frame::verify(&buf[..end]).ok_or(WireError::BadCrc)?;
    Ok(Frame::Payload {
        payload,
        consumed: end,
    })
}

/// A connection's receive buffer, read into directly: the vector
/// stays initialised at its grown length and `filled` marks how much
/// of it holds received, not yet consumed bytes — no staging copy, no
/// re-zeroing per read. It grows geometrically up to one maximal frame
/// of backlog, which always leaves room to complete the frame at its
/// head.
#[derive(Default)]
pub(crate) struct RecvBuf {
    buf: Vec<u8>,
    filled: usize,
}

impl RecvBuf {
    const MIN: usize = 16 * 1024;
    const CAP: usize = FRAME_HEADER + MAX_FRAME_PAYLOAD;

    /// The received bytes not yet consumed.
    pub(crate) fn unparsed(&self) -> &[u8] {
        &self.buf[..self.filled]
    }

    /// Room for the next read; empty only with a full backlog.
    pub(crate) fn spare(&mut self) -> &mut [u8] {
        if self.filled == self.buf.len() && self.filled < Self::CAP {
            let grown = (2 * self.filled).clamp(Self::MIN, Self::CAP);
            self.buf.resize(grown, 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Records that a read put `n` bytes at the front of [`spare`](Self::spare).
    pub(crate) fn fill(&mut self, n: usize) {
        assert!(
            n <= self.buf.len() - self.filled,
            "read past the spare room"
        );
        self.filled += n;
    }

    /// Drops the first `n` unparsed bytes.
    pub(crate) fn consume(&mut self, n: usize) {
        self.buf.copy_within(n..self.filled, 0);
        self.filled -= n;
    }
}

/// Seals the header left before the payload `out[start..]`.
fn frame_into(out: &mut [u8], start: usize) {
    debug_assert!(out.len() - start <= MAX_FRAME_PAYLOAD, "oversized frame");
    frame::seal(out, start);
}

// -------------------------------------------------------- requests --

const OP_GET: u8 = 0;
const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_SUM_RANGE: u8 = 3;
const OP_FIRST_GE: u8 = 4;
const OP_SCAN: u8 = 5;

/// Appends one framed request (`corr`, `ops`) to `out`. Panics if
/// the batch exceeds `u16::MAX` ops or the frame cap — callers split
/// batches instead (the server's response frames are bounded the
/// same way).
pub fn encode_request(out: &mut Vec<u8>, corr: u32, ops: &[Op]) {
    assert!(ops.len() <= u16::MAX as usize, "batch exceeds u16 ops");
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    let start = out.len();
    out.push(OPCODE_REQUEST);
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
    for op in ops {
        match *op {
            Op::Get(k) => {
                out.push(OP_GET);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Op::Insert(k, v) => {
                out.push(OP_INSERT);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            Op::Remove(k) => {
                out.push(OP_REMOVE);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Op::SumRange { start: s, count } => {
                out.push(OP_SUM_RANGE);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&(count as u64).to_le_bytes());
            }
            Op::FirstGe(k) => {
                out.push(OP_FIRST_GE);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Op::Scan { start: s, count } => {
                out.push(OP_SCAN);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&(count as u64).to_le_bytes());
            }
        }
    }
    frame_into(out, start);
}

/// Decodes a request payload (the opcode byte included).
pub fn decode_request(payload: &[u8]) -> Result<(u32, Vec<Op>), WireError> {
    let mut r = Reader::new(payload);
    let opcode = r.u8()?;
    if opcode != OPCODE_REQUEST {
        return Err(WireError::BadOpcode(opcode));
    }
    let corr = r.u32()?;
    let n = r.u16()? as usize;
    let mut ops = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let tag = r.u8()?;
        ops.push(match tag {
            OP_GET => Op::Get(r.i64()?),
            OP_INSERT => Op::Insert(r.i64()?, r.i64()?),
            OP_REMOVE => Op::Remove(r.i64()?),
            OP_SUM_RANGE => Op::SumRange {
                start: r.i64()?,
                count: r.u64()? as usize,
            },
            OP_FIRST_GE => Op::FirstGe(r.i64()?),
            OP_SCAN => Op::Scan {
                start: r.i64()?,
                count: r.u64()? as usize,
            },
            other => return Err(WireError::BadOp(other)),
        });
    }
    r.finish()?;
    Ok((corr, ops))
}

// ------------------------------------------------------- responses --

const REPLY_FOUND: u8 = 0;
const REPLY_INSERTED: u8 = 1;
const REPLY_REMOVED: u8 = 2;
const REPLY_SUM: u8 = 3;
const REPLY_ENTRY: u8 = 4;
const REPLY_ENTRIES: u8 = 5;
const REPLY_REFUSED: u8 = 6;

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub corr: u32,
    /// True when this frame completes the request: every slot has
    /// been answered and no scan continuation is outstanding.
    pub last: bool,
    /// `(slot, reply)` items. An `Entries` reply for a slot already
    /// seen on an earlier frame *appends* to that slot's entries
    /// (chunked scan streaming).
    pub items: Vec<(u16, Reply)>,
}

/// Appends one framed response to `out`.
pub fn encode_response(out: &mut Vec<u8>, corr: u32, last: bool, items: &[(u16, Reply)]) {
    let mut frame = ResponseEncoder::begin(out, corr);
    for (slot, reply) in items {
        frame.reply(out, *slot, reply);
    }
    frame.finish(out, last);
}

/// A response frame being written at the tail of a buffer, item by
/// item: what [`encode_response`] does for a slice of items, open to
/// a caller — the event loop — that meets its items one at a time
/// and holds a scan's entries as a sub-slice of a larger reply. Every
/// call takes the buffer [`begin`](Self::begin) was given, and
/// nothing else may be appended to it before
/// [`finish`](Self::finish).
pub(crate) struct ResponseEncoder {
    /// Where the frame's payload starts in the buffer.
    start: usize,
    items: usize,
}

impl ResponseEncoder {
    /// Payload offsets of the two fields only `finish` knows.
    const LAST_AT: usize = 5;
    const ITEMS_AT: usize = 6;

    pub(crate) fn begin(out: &mut Vec<u8>, corr: u32) -> ResponseEncoder {
        out.extend_from_slice(&[0u8; FRAME_HEADER]);
        let start = out.len();
        out.push(OPCODE_RESPONSE);
        out.extend_from_slice(&corr.to_le_bytes());
        out.extend_from_slice(&[0u8; 3]); // `last` and the item count
        ResponseEncoder { start, items: 0 }
    }

    /// Counts one more item and writes what each starts with.
    fn item(&mut self, out: &mut Vec<u8>, slot: u16, tag: u8) {
        self.items += 1;
        out.extend_from_slice(&slot.to_le_bytes());
        out.push(tag);
    }

    pub(crate) fn reply(&mut self, out: &mut Vec<u8>, slot: u16, reply: &Reply) {
        match reply {
            Reply::Found(v) => {
                self.item(out, slot, REPLY_FOUND);
                out.push(u8::from(v.is_some()));
                out.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
            }
            Reply::Inserted => self.item(out, slot, REPLY_INSERTED),
            Reply::Removed(v) => {
                self.item(out, slot, REPLY_REMOVED);
                out.push(u8::from(v.is_some()));
                out.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
            }
            Reply::Sum { visited, sum } => {
                self.item(out, slot, REPLY_SUM);
                out.extend_from_slice(&(*visited as u64).to_le_bytes());
                out.extend_from_slice(&sum.to_le_bytes());
            }
            Reply::Entry(e) => {
                self.item(out, slot, REPLY_ENTRY);
                out.push(u8::from(e.is_some()));
                let (k, v) = e.unwrap_or((0, 0));
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            Reply::Entries(entries) => self.entries(out, slot, entries),
            Reply::Refused => {
                self.item(out, slot, REPLY_REFUSED);
                out.push(ErrorCode::ReadOnly as u8);
            }
        }
    }

    /// A [`Reply::Entries`] item holding `entries`.
    pub(crate) fn entries(&mut self, out: &mut Vec<u8>, slot: u16, entries: &[(i64, i64)]) {
        self.item(out, slot, REPLY_ENTRIES);
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        // The cells are written into the vector's spare capacity, not
        // over a zero-filled tail: 4096 entries take 1.5–2.1 µs this
        // way against 3.0–3.2 µs zero-filled first (and 5.8–6.3 µs as
        // one `extend_from_slice` an entry, the safe way to skip the
        // fill) — timed alone on the development host.
        let bytes = 16 * entries.len();
        out.reserve(bytes);
        let (cells, _) = out.spare_capacity_mut()[..bytes].as_chunks_mut::<16>();
        for (cell, (k, v)) in cells.iter_mut().zip(entries) {
            let (key, val) = cell.split_at_mut(8);
            key.copy_from_slice(&k.to_le_bytes().map(MaybeUninit::new));
            val.copy_from_slice(&v.to_le_bytes().map(MaybeUninit::new));
        }
        // SAFETY: `reserve` made room for `bytes` more bytes, and the
        // loop above initialised every one of them: `cells` covers
        // `spare[..bytes]` exactly (16 divides `bytes`) and `zip`
        // pairs its `entries.len()` cells with as many entries.
        unsafe { out.set_len(out.len() + bytes) };
    }

    /// Fills in `last`, the item count and the frame header.
    pub(crate) fn finish(self, out: &mut [u8], last: bool) {
        assert!(self.items <= u16::MAX as usize, "frame exceeds u16 items");
        out[self.start + Self::LAST_AT] = u8::from(last);
        out[self.start + Self::ITEMS_AT..][..2].copy_from_slice(&(self.items as u16).to_le_bytes());
        frame_into(out, self.start);
    }
}

/// Decodes a response payload (the opcode byte included).
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, WireError> {
    let mut r = Reader::new(payload);
    let opcode = r.u8()?;
    if opcode != OPCODE_RESPONSE {
        return Err(WireError::BadOpcode(opcode));
    }
    let corr = r.u32()?;
    let last = r.u8()? != 0;
    let n = r.u16()? as usize;
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let slot = r.u16()?;
        let tag = r.u8()?;
        let reply = match tag {
            REPLY_FOUND => {
                let present = r.u8()? != 0;
                let v = r.i64()?;
                Reply::Found(present.then_some(v))
            }
            REPLY_INSERTED => Reply::Inserted,
            REPLY_REMOVED => {
                let present = r.u8()? != 0;
                let v = r.i64()?;
                Reply::Removed(present.then_some(v))
            }
            REPLY_SUM => Reply::Sum {
                visited: r.u64()? as usize,
                sum: r.i64()?,
            },
            REPLY_ENTRY => {
                let present = r.u8()? != 0;
                let k = r.i64()?;
                let v = r.i64()?;
                Reply::Entry(present.then_some((k, v)))
            }
            REPLY_ENTRIES => {
                // The count is the peer's claim: hold it against the
                // bytes actually present before allocating for it.
                let count = r.u32()? as usize;
                let body = r.take(count.checked_mul(16).ok_or(WireError::Truncated)?)?;
                let (cells, _) = body.as_chunks::<16>();
                Reply::Entries(
                    cells
                        .iter()
                        .map(|cell| {
                            (
                                i64::from_le_bytes(cell[..8].try_into().expect("8 bytes")),
                                i64::from_le_bytes(cell[8..].try_into().expect("8 bytes")),
                            )
                        })
                        .collect(),
                )
            }
            REPLY_REFUSED => {
                let code = r.u8()?;
                if ErrorCode::from_u8(code).is_none() {
                    return Err(WireError::BadReply(code));
                }
                Reply::Refused
            }
            other => return Err(WireError::BadReply(other)),
        };
        items.push((slot, reply));
    }
    r.finish()?;
    Ok(ResponseFrame { corr, last, items })
}

// ---------------------------------------------------------- reader --

/// Cursor over a payload; every read is bounds-checked into
/// [`WireError::Truncated`].
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_oneof, proptest, Strategy};

    fn frame(buf: &[u8]) -> (&[u8], usize) {
        match split_frame(buf).expect("clean frame") {
            Frame::Payload { payload, consumed } => (payload, consumed),
            Frame::Incomplete => panic!("expected a whole frame"),
        }
    }

    #[test]
    fn request_roundtrips_every_op_variant() {
        let ops = vec![
            Op::Get(i64::MIN),
            Op::Insert(-7, i64::MAX),
            Op::Remove(0),
            Op::SumRange {
                start: -1,
                count: usize::MAX >> 1,
            },
            Op::FirstGe(42),
            Op::Scan {
                start: i64::MAX,
                count: 0,
            },
        ];
        let mut buf = Vec::new();
        encode_request(&mut buf, 0xDEAD_BEEF, &ops);
        let (payload, consumed) = frame(&buf);
        assert_eq!(consumed, buf.len());
        let (corr, decoded) = decode_request(payload).expect("decodes");
        assert_eq!(corr, 0xDEAD_BEEF);
        assert_eq!(decoded, ops);
    }

    #[test]
    fn response_roundtrips_every_reply_variant() {
        let items: Vec<(u16, Reply)> = vec![
            (0, Reply::Found(Some(-5))),
            (1, Reply::Found(None)),
            (2, Reply::Inserted),
            (3, Reply::Removed(Some(i64::MIN))),
            (4, Reply::Removed(None)),
            (
                5,
                Reply::Sum {
                    visited: 12,
                    sum: -3,
                },
            ),
            (6, Reply::Entry(Some((1, 2)))),
            (7, Reply::Entry(None)),
            (8, Reply::Entries(vec![(1, 10), (2, 20), (i64::MAX, -1)])),
            (9, Reply::Entries(vec![])),
            (u16::MAX, Reply::Refused),
        ];
        let mut buf = Vec::new();
        encode_response(&mut buf, 7, true, &items);
        let (payload, _) = frame(&buf);
        let f = decode_response(payload).expect("decodes");
        assert_eq!(f.corr, 7);
        assert!(f.last);
        assert_eq!(f.items, items);
    }

    #[test]
    fn incomplete_prefixes_ask_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &[Op::Get(5)]);
        for cut in 0..buf.len() {
            match split_frame(&buf[..cut]) {
                Ok(Frame::Incomplete) => {}
                other => panic!("cut {cut}: expected Incomplete, got {other:?}",),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut buf = ((MAX_FRAME_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 12]);
        assert_eq!(
            split_frame(&buf).unwrap_err(),
            WireError::Oversized((MAX_FRAME_PAYLOAD + 1) as u32)
        );
    }

    #[test]
    fn every_flipped_bit_is_caught_or_reshapes_cleanly() {
        // A flipped bit anywhere in a whole frame must never decode as
        // a *different* valid request: either the CRC catches it, or
        // the flip hit the length prefix and the frame re-shapes (reads
        // as incomplete/oversized — a stalled or killed connection,
        // never silent corruption).
        //
        // Two frames, one per checksum kernel: a short request (under
        // 64 payload bytes, table path) and a 20-entry scan reply (over
        // 256, folding path where the CPU has it).
        let ops = vec![Op::Insert(123, 456), Op::Scan { start: 9, count: 3 }];
        let mut short = Vec::new();
        encode_request(&mut short, 77, &ops);
        assert!(short.len() - FRAME_HEADER < 64);
        let entries = (0..20).map(|i| (i * 1_000_003, !i)).collect();
        let mut long = Vec::new();
        encode_response(&mut long, 78, true, &[(0, Reply::Entries(entries))]);
        assert!(long.len() - FRAME_HEADER >= 256);
        for clean in [short, long] {
            for byte in 0..clean.len() {
                for bit in 0..8 {
                    let mut bad = clean.clone();
                    bad[byte] ^= 1 << bit;
                    match split_frame(&bad) {
                        // CRC passed — only possible when the flip is
                        // inside the CRC field itself compensating...
                        // which CRC-32 never does for single-bit flips.
                        Ok(Frame::Payload { .. }) => panic!(
                            "flip {byte}:{bit} of a {}-byte frame produced a clean frame",
                            clean.len()
                        ),
                        Ok(Frame::Incomplete) | Err(_) => {}
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_opcode_and_tags_are_typed_errors() {
        // Build a valid frame then rewrite payload bytes and re-CRC,
        // so the checksum passes and the *decoder* must object.
        let reframe = |mutate: &dyn Fn(&mut Vec<u8>)| -> Vec<u8> {
            let mut buf = Vec::new();
            encode_request(&mut buf, 3, &[Op::Get(1)]);
            let mut payload = buf[FRAME_HEADER..].to_vec();
            mutate(&mut payload);
            let mut out = (payload.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
            out.extend_from_slice(&payload);
            out
        };
        let bad_opcode = reframe(&|p| p[0] = 99);
        let (payload, _) = frame(&bad_opcode);
        assert_eq!(
            decode_request(payload).unwrap_err(),
            WireError::BadOpcode(99)
        );
        let bad_tag = reframe(&|p| p[7] = 200);
        let (payload, _) = frame(&bad_tag);
        assert_eq!(decode_request(payload).unwrap_err(), WireError::BadOp(200));
        let truncated = reframe(&|p| {
            p.truncate(p.len() - 1);
        });
        let (payload, _) = frame(&truncated);
        assert_eq!(decode_request(payload).unwrap_err(), WireError::Truncated);
        let trailing = reframe(&|p| p.push(0));
        let (payload, _) = frame(&trailing);
        assert_eq!(
            decode_request(payload).unwrap_err(),
            WireError::TrailingBytes
        );
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let key = -(1i64 << 48)..(1i64 << 48);
        let val = -(1i64 << 40)..(1i64 << 40);
        let count = 0usize..1 << 20;
        prop_oneof![
            (key.clone()).prop_map(Op::Get),
            (key.clone(), val).prop_map(|(k, v)| Op::Insert(k, v)),
            (key.clone()).prop_map(Op::Remove),
            (key.clone(), count.clone()).prop_map(|(start, count)| Op::SumRange { start, count }),
            (key.clone()).prop_map(Op::FirstGe),
            (key, count).prop_map(|(start, count)| Op::Scan { start, count }),
        ]
    }

    fn arb_reply() -> impl Strategy<Value = Reply> {
        let key = -(1i64 << 48)..(1i64 << 48);
        let val = -(1i64 << 40)..(1i64 << 40);
        prop_oneof![
            (proptest::any::<bool>(), val.clone())
                .prop_map(|(some, v)| Reply::Found(some.then_some(v))),
            (0i64..1).prop_map(|_| Reply::Inserted),
            (proptest::any::<bool>(), val.clone())
                .prop_map(|(some, v)| Reply::Removed(some.then_some(v))),
            (0usize..1 << 20, val.clone()).prop_map(|(visited, sum)| Reply::Sum { visited, sum }),
            (proptest::any::<bool>(), key.clone(), val.clone())
                .prop_map(|(some, k, v)| Reply::Entry(some.then_some((k, v)))),
            proptest::collection::vec((key, val), 0..64).prop_map(Reply::Entries),
            (0i64..1).prop_map(|_| Reply::Refused),
        ]
    }

    proptest! {
        #[test]
        fn prop_request_roundtrip(
            corr in 0u32..u32::MAX,
            ops in proptest::collection::vec(arb_op(), 0..48),
        ) {
            let mut buf = Vec::new();
            encode_request(&mut buf, corr, &ops);
            let (payload, consumed) = frame(&buf);
            proptest::prop_assert_eq!(consumed, buf.len());
            let (got_corr, got_ops) = decode_request(payload).expect("decodes");
            proptest::prop_assert_eq!(got_corr, corr);
            proptest::prop_assert_eq!(got_ops, ops);
        }

        #[test]
        fn prop_response_roundtrip(
            corr in 0u32..u32::MAX,
            last in proptest::any::<bool>(),
            replies in proptest::collection::vec(arb_reply(), 0..24),
        ) {
            let items: Vec<(u16, Reply)> = replies
                .into_iter()
                .enumerate()
                .map(|(i, r)| (i as u16, r))
                .collect();
            let mut buf = Vec::new();
            encode_response(&mut buf, corr, last, &items);
            let (payload, _) = frame(&buf);
            let f = decode_response(payload).expect("decodes");
            proptest::prop_assert_eq!(f.corr, corr);
            proptest::prop_assert_eq!(f.last, last);
            proptest::prop_assert_eq!(f.items, items);
        }

        #[test]
        fn prop_back_to_back_frames_split_in_order(
            batches in proptest::collection::vec(
                proptest::collection::vec(arb_op(), 0..8), 1..6),
        ) {
            let mut buf = Vec::new();
            for (i, ops) in batches.iter().enumerate() {
                encode_request(&mut buf, i as u32, ops);
            }
            let mut at = 0usize;
            for (i, ops) in batches.iter().enumerate() {
                let (payload, consumed) = frame(&buf[at..]);
                let (corr, got) = decode_request(payload).expect("decodes");
                proptest::prop_assert_eq!(corr, i as u32);
                proptest::prop_assert_eq!(&got, ops);
                at += consumed;
            }
            proptest::prop_assert_eq!(at, buf.len());
        }
    }
}
