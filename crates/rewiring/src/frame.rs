//! The frame around every checksummed byte run of the stack — wire
//! frames (`rma-net`) and WAL records (`rma-wal`) — kept beside the
//! checksum it carries:
//!
//! ```text
//! │ len u32 │ crc u32 │ payload (len bytes) │   both little-endian
//! ```
//!
//! `crc` is the [`crc32`] of the payload. What a bad frame *means* is
//! the user's: its own rule for a plausible `len`, its own names for a
//! short buffer and a failed checksum.

use crate::crc::crc32;

/// Bytes of the `len | crc` header.
pub const HEADER: usize = 8;

/// The payload length the header at the head of `buf` declares, not
/// yet bounded; `None` while fewer than [`HEADER`] bytes are there.
pub fn payload_len(buf: &[u8]) -> Option<usize> {
    let len = buf.get(..HEADER)?[..4].try_into().expect("4 bytes");
    Some(u32::from_le_bytes(len) as usize)
}

/// Seals the payload `buf[payload_start..]` in place: its length and
/// checksum go into the [`HEADER`] bytes the caller left before it.
pub fn seal(buf: &mut [u8], payload_start: usize) {
    let (head, payload) = buf.split_at_mut(payload_start);
    let len = u32::try_from(payload.len()).expect("payload length fits the u32 prefix");
    let header = &mut head[payload_start - HEADER..];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The payload of `frame` — one whole frame, header included — when
/// its checksum holds.
pub fn verify(frame: &[u8]) -> Option<&[u8]> {
    let (header, payload) = frame.split_at(HEADER);
    let want = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    (crc32(payload) == want).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sealed_payload_verifies_and_a_flipped_bit_does_not() {
        let mut buf = vec![0xAA; 3]; // bytes before the frame stay put
        buf.extend_from_slice(&[0; HEADER]);
        let start = buf.len();
        buf.extend_from_slice(b"payload");
        seal(&mut buf, start);
        assert_eq!(&buf[..3], &[0xAA; 3]);
        let frame = &buf[3..];
        assert_eq!(payload_len(frame), Some(7));
        assert_eq!(verify(frame), Some(&b"payload"[..]));
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            let whole = payload_len(&bad) == Some(7);
            assert!(!whole || verify(&bad).is_none(), "bit {bit} went unnoticed");
        }
    }

    #[test]
    fn a_short_header_declares_nothing() {
        for n in 0..HEADER {
            assert_eq!(payload_len(&[0xFF; HEADER][..n]), None);
        }
        assert_eq!(payload_len(&[0; HEADER]), Some(0));
        assert_eq!(verify(&[0; HEADER]), Some(&[][..]), "crc32 of nothing is 0");
    }
}
