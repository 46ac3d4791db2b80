//! The on-disk log record: one [`rewiring::frame`] whose payload is
//! `lsn u64 · kind u8 · key i64 · value i64`, all little-endian.
//!
//! `len` is today always [`PAYLOAD_LEN`] (the prefix exists so future
//! record shapes stay readable). A reader that hits a record whose frame
//! runs past the file, whose `len` is implausible, or whose checksum
//! disagrees has found the **torn tail** (a crash mid-append) or a
//! corrupted region (a bit flip) — either way, nothing after that
//! point is trustworthy.

use rewiring::frame;
use rma_shard::DurabilityOp;

/// Payload bytes of the one record shape in use.
pub(crate) const PAYLOAD_LEN: usize = 8 + 1 + 8 + 8;
/// Full framed size of one record.
pub(crate) const FRAME_LEN: usize = frame::HEADER + PAYLOAD_LEN;

/// One decoded log record: the per-partition sequence number plus the
/// logical operation it acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub lsn: u64,
    pub op: DurabilityOp,
}

/// Appends the framed encoding of `(lsn, op)` to `buf`.
pub(crate) fn encode_into(buf: &mut Vec<u8>, lsn: u64, op: DurabilityOp) {
    let (kind, key, value) = match op {
        DurabilityOp::Insert(k, v) => (0u8, k, v),
        DurabilityOp::Remove(k) => (1u8, k, 0i64),
    };
    buf.extend_from_slice(&[0; frame::HEADER]);
    let start = buf.len();
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&value.to_le_bytes());
    frame::seal(buf, start);
}

/// What decoding at some offset found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Decoded {
    /// A whole, checksum-clean record; the frame consumed
    /// [`FRAME_LEN`] bytes.
    Ok(Record),
    /// The buffer ends mid-frame — a torn tail (crash mid-append).
    Torn,
    /// The frame is structurally whole but wrong: implausible length,
    /// checksum mismatch, unknown op kind. Indistinguishable from a
    /// torn tail overwritten by later garbage; readers treat it the
    /// same way (truncate here) but report it distinctly so tests can
    /// tell a clean cut from a detected corruption.
    Corrupt,
}

/// Decodes the record starting at `buf[0]`.
pub(crate) fn decode(buf: &[u8]) -> Decoded {
    let Some(len) = frame::payload_len(buf) else {
        return Decoded::Torn;
    };
    if len != PAYLOAD_LEN {
        // Today there is exactly one record shape; any other length is
        // garbage (an all-zero page reads as len 0 → Corrupt too).
        return Decoded::Corrupt;
    }
    if buf.len() < FRAME_LEN {
        return Decoded::Torn;
    }
    let Some(payload) = frame::verify(&buf[..FRAME_LEN]) else {
        return Decoded::Corrupt;
    };
    let lsn = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let key = i64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
    let value = i64::from_le_bytes(payload[17..25].try_into().expect("8 bytes"));
    let op = match payload[8] {
        0 => DurabilityOp::Insert(key, value),
        1 => DurabilityOp::Remove(key),
        _ => return Decoded::Corrupt,
    };
    Decoded::Ok(Record { lsn, op })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_both_kinds() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 7, DurabilityOp::Insert(-42, 99));
        encode_into(&mut buf, 8, DurabilityOp::Remove(i64::MAX));
        assert_eq!(buf.len(), 2 * FRAME_LEN);
        let first = decode(&buf);
        assert_eq!(
            first,
            Decoded::Ok(Record {
                lsn: 7,
                op: DurabilityOp::Insert(-42, 99)
            })
        );
        assert_eq!(
            decode(&buf[FRAME_LEN..]),
            Decoded::Ok(Record {
                lsn: 8,
                op: DurabilityOp::Remove(i64::MAX)
            })
        );
    }

    #[test]
    fn torn_tail_detected_at_every_cut() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 1, DurabilityOp::Insert(1, 2));
        for cut in 0..FRAME_LEN {
            let d = decode(&buf[..cut]);
            assert!(
                d == Decoded::Torn || d == Decoded::Corrupt,
                "cut {cut} decoded as {d:?}"
            );
        }
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let mut clean = Vec::new();
        encode_into(&mut clean, 123, DurabilityOp::Insert(456, 789));
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                match decode(&bad) {
                    Decoded::Ok(r) => panic!("flip {byte}:{bit} accepted as {r:?}"),
                    Decoded::Torn | Decoded::Corrupt => {}
                }
            }
        }
    }
}
