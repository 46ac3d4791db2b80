//! The on-disk log frame: one [`rewiring::frame`] per slice the engine
//! hands [`append`](rma_shard::DurabilitySink::append) — one shard
//! write section — whose payload is
//! `lsn u64 · (kind u8 · key i64 · value i64) × n`, all little-endian.
//!
//! The ops take consecutive LSNs from `lsn`, in slice order, and
//! `n = (len − 8) / 17 ≥ 1`. A one-op frame is byte for byte the
//! record every earlier version wrote, so one decoder opens every log.
//! A reader that hits a frame that runs past the file, whose `len` is
//! not `8 + 17n`, whose checksum disagrees or whose op kind is unknown
//! has found the **torn tail** (a crash mid-append) or a corrupted
//! region (a bit flip) — either way, nothing from that frame on is
//! trustworthy, and the whole group it holds is dropped.

use rewiring::frame;
use rma_shard::PointOp;

/// Payload bytes before the ops: the first LSN.
const LSN_LEN: usize = 8;
/// Payload bytes of one op: `kind · key · value`.
const OP_LEN: usize = 1 + 8 + 8;

/// Appends one frame holding `ops` under the LSNs `lsn..` to `buf`.
pub(crate) fn encode_into(buf: &mut Vec<u8>, lsn: u64, ops: &[PointOp]) {
    buf.reserve(frame::HEADER + LSN_LEN + OP_LEN * ops.len());
    buf.extend_from_slice(&[0; frame::HEADER]);
    let start = buf.len();
    buf.extend_from_slice(&lsn.to_le_bytes());
    for &op in ops {
        let (kind, key, value) = match op {
            PointOp::Insert(k, v) => (0u8, k, v),
            PointOp::Remove(k) => (1u8, k, 0i64),
            PointOp::Get(_) => unreachable!("a read is never logged"),
        };
        buf.push(kind);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&value.to_le_bytes());
    }
    frame::seal(buf, start);
}

/// Decodes the frame at the head of `buf`: its first LSN, its ops in
/// LSN order and its length in bytes, or `None` for a torn or corrupt
/// frame.
pub(crate) fn decode(buf: &[u8]) -> Option<(u64, Vec<PointOp>, usize)> {
    let len = frame::payload_len(buf)?;
    if len < LSN_LEN + OP_LEN || !(len - LSN_LEN).is_multiple_of(OP_LEN) {
        // No op, or not a whole number of them (an all-zero page reads
        // as len 0).
        return None;
    }
    let whole = frame::HEADER + len;
    let payload = frame::verify(buf.get(..whole)?)?;
    let (lsn, ops) = payload.split_at(LSN_LEN);
    let ops = (ops.chunks_exact(OP_LEN))
        .map(|op| {
            let word = |at: usize| i64::from_le_bytes(op[at..at + 8].try_into().expect("8 bytes"));
            match op[0] {
                0 => Some(PointOp::Insert(word(1), word(9))),
                1 => Some(PointOp::Remove(word(1))),
                _ => None,
            }
        })
        .collect::<Option<_>>()?;
    let lsn = u64::from_le_bytes(lsn.try_into().expect("8 bytes"));
    Some((lsn, ops, whole))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of a one-op frame: the record of every earlier version.
    const ONE_OP_FRAME: usize = 33;

    fn group() -> Vec<u8> {
        let mut buf = Vec::new();
        let ops = [
            PointOp::Insert(456, 789),
            PointOp::Remove(-1),
            PointOp::Insert(i64::MIN, i64::MAX),
        ];
        encode_into(&mut buf, 123, &ops);
        buf
    }

    #[test]
    fn roundtrips_both_kinds() {
        let mut buf = Vec::new();
        encode_into(&mut buf, 7, &[PointOp::Insert(-42, 99)]);
        encode_into(&mut buf, 8, &[PointOp::Remove(i64::MAX)]);
        assert_eq!(buf.len(), 2 * ONE_OP_FRAME);
        assert_eq!(
            decode(&buf),
            Some((7, vec![PointOp::Insert(-42, 99)], ONE_OP_FRAME))
        );
        assert_eq!(
            decode(&buf[ONE_OP_FRAME..]),
            Some((8, vec![PointOp::Remove(i64::MAX)], ONE_OP_FRAME))
        );
    }

    #[test]
    fn a_group_is_one_frame_of_consecutive_ops() {
        let buf = group();
        assert_eq!(buf.len(), frame::HEADER + LSN_LEN + 3 * OP_LEN);
        let want = vec![
            PointOp::Insert(456, 789),
            PointOp::Remove(-1),
            PointOp::Insert(i64::MIN, i64::MAX),
        ];
        assert_eq!(decode(&buf), Some((123, want, buf.len())));
    }

    #[test]
    fn torn_tail_detected_at_every_cut() {
        let buf = group();
        for cut in 0..buf.len() {
            let d = decode(&buf[..cut]);
            assert!(d.is_none(), "cut {cut} decoded as {d:?}");
        }
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let clean = group();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                if let Some(d) = decode(&bad) {
                    panic!("flip {byte}:{bit} accepted as {d:?}");
                }
            }
        }
    }

    /// Seals `payload` as a frame with a valid checksum.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0; frame::HEADER];
        buf.extend_from_slice(payload);
        frame::seal(&mut buf, frame::HEADER);
        buf
    }

    #[test]
    fn checksum_clean_frames_of_no_op_a_partial_op_or_an_unknown_kind_are_corrupt() {
        let one = &group()[frame::HEADER..][..LSN_LEN + OP_LEN];
        assert!(decode(&sealed(one)).is_some(), "a one-op payload decodes");
        assert_eq!(decode(&sealed(&one[..LSN_LEN])), None, "len 8: no op");
        for len in [LSN_LEN + 1, LSN_LEN + OP_LEN - 1, LSN_LEN + OP_LEN + 1] {
            let payload = [one, one].concat();
            assert_eq!(decode(&sealed(&payload[..len])), None, "len {len}");
        }
        let mut unknown = one.to_vec();
        unknown[LSN_LEN] = 2;
        assert_eq!(decode(&sealed(&unknown)), None, "kind 2");
        assert_eq!(decode(&[0; 4096]), None, "an all-zero page");
    }
}
