//! CRC-32 (IEEE 802.3 — the zlib/PNG polynomial, reflected, init and
//! xor-out `!0`): the one checksum of the stack. Wire frames
//! (`rma-net`), WAL records, manifests and sealed checkpoint segments
//! (`rma-wal`) all carry it, so it lives in the crate both depend on.
//!
//! [`crc32`] picks its kernel from what it can observe — the CPU and
//! the input length — never from an option:
//!
//! * **Carry-less-multiply folding** on x86-64 with `pclmulqdq` and
//!   `sse4.1`, for inputs of at least 64 bytes: four 128-bit
//!   accumulators fold 64 bytes per step, then collapse into one that
//!   folds the 16-byte remainder blocks, then a Barrett reduction
//!   brings 128 bits down to the 32-bit remainder (Gopal et al.,
//!   *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ*,
//!   Intel 2009 — the kernel zlib uses). Scan replies, bulk-insert
//!   frames and checkpoint images take this path.
//! * **Slicing-by-8** everywhere else — inputs too short to fill the
//!   four accumulators (point-lookup frames, 25-byte WAL records), the
//!   last `len % 16` bytes after folding, and hosts without the
//!   instruction: eight table lookups per 8 input bytes, safe code.
//!
//! Both compute the same function; every stored or transmitted
//! checksum keeps the value the byte-at-a-time table loop gave it.

/// The reflected IEEE generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Shortest input the folding kernel takes: one 64-byte block to fill
/// its four accumulators.
const FOLD_MIN: usize = 64;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the register after byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let (mut reg, mut rest) = (!0u32, bytes);
    #[cfg(target_arch = "x86_64")]
    if rest.len() >= FOLD_MIN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = rest.split_at(rest.len() & !15);
        // SAFETY: the two `is_x86_feature_detected!` checks just above
        // (cached by std after the first call) prove this CPU has
        // `pclmulqdq` and `sse4.1`; `sse2` is part of the x86-64
        // baseline.
        reg = unsafe { pclmul::fold(reg, blocks) };
        rest = tail;
    }
    !slice8(reg, rest)
}

/// Advances the (un-complemented) CRC register over `bytes`, 8 bytes
/// per step.
fn slice8(mut reg: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = reg ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        reg = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        reg = TABLES[0][((reg ^ b as u32) & 0xFF) as usize] ^ (reg >> 8);
    }
    reg
}

#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected IEEE polynomial (Gopal et
    // al., table for CRC-32): `x^n mod P(x)`, bit-reflected.
    /// n = 4·128 + 32 and 4·128 − 32: carry an accumulator 64 bytes on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// n = 128 + 32 and 128 − 32: carry an accumulator 16 bytes on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// n = 64: the 96 → 64-bit step of the final reduction.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) and μ = ⌊x^64 / P(x)⌋ for the Barrett step.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi, lo)
    }

    /// `acc` carried forward by the distance `keys` encodes, plus the
    /// data block that sits there.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold_into(acc: __m128i, keys: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the (un-complemented) CRC register `reg` over `blocks`.
    ///
    /// `blocks.len()` must be a multiple of 16 and at least 64; other
    /// lengths panic.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`, `sse2` and `sse4.1`. The
    /// function has no other requirement: every memory access is a
    /// bounds-checked slice read.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn fold(reg: u32, blocks: &[u8]) -> u32 {
        assert!(blocks.len() >= 64 && blocks.len().is_multiple_of(16));
        let (first, rest) = blocks.split_at(64);
        let mut x0 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(reg as i32));
        let mut x1 = load(&first[16..32]);
        let mut x2 = load(&first[32..48]);
        let mut x3 = load(&first[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut wide = rest.chunks_exact(64);
        for b in &mut wide {
            x0 = fold_into(x0, k1k2, load(&b[..16]));
            x1 = fold_into(x1, k1k2, load(&b[16..32]));
            x2 = fold_into(x2, k1k2, load(&b[32..48]));
            x3 = fold_into(x3, k1k2, load(&b[48..]));
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, k3k4, x1);
        x = fold_into(x, k3k4, x2);
        x = fold_into(x, k3k4, x3);
        for b in wide.remainder().chunks_exact(16) {
            x = fold_into(x, k3k4, load(b));
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 → 32 bits.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One more than `rma-net`'s frame payload cap plus a ragged tail:
    /// the longest input the wire ever checksums, and then some.
    const LONGEST: usize = (1 << 20) + 17;

    /// Bit-at-a-time reference: no table, no kernel.
    fn reference(bytes: &[u8]) -> u32 {
        let mut reg = !0u32;
        for &b in bytes {
            reg ^= b as u32;
            for _ in 0..8 {
                reg = if reg & 1 != 0 {
                    POLY ^ (reg >> 1)
                } else {
                    reg >> 1
                };
            }
        }
        !reg
    }

    /// The portable path on its own, whatever the host dispatches to.
    fn portable(bytes: &[u8]) -> u32 {
        !slice8(!0, bytes)
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(portable(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let zeros = vec![0x00u8; 1 << 20];
        assert_eq!(crc32(&zeros), 0xA738_EA1C);
        assert_eq!(portable(&zeros), 0xA738_EA1C);
        let ones = vec![0xFFu8; 1 << 20];
        assert_eq!(crc32(&ones), 0x956B_AC74);
        assert_eq!(portable(&ones), 0x956B_AC74);
    }

    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = TestRng::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every length on both sides of the 64-byte switch, every
        /// tail length, every alignment of the first byte.
        #[test]
        fn kernels_agree_at_every_length_and_offset(seed in any::<u64>()) {
            let buf = noise(seed, 16 + 320);
            for offset in 0..16 {
                for len in 0..=320 {
                    let s = &buf[offset..offset + len];
                    let want = reference(s);
                    prop_assert_eq!(crc32(s), want, "crc32, offset {} len {}", offset, len);
                    prop_assert_eq!(portable(s), want, "portable, offset {} len {}", offset, len);
                }
            }
        }

        #[test]
        fn kernels_agree_on_long_inputs(seed in any::<u64>(), len in 0usize..LONGEST + 1) {
            let buf = noise(seed, len);
            let want = reference(&buf);
            prop_assert_eq!(crc32(&buf), want, "crc32, len {}", len);
            prop_assert_eq!(portable(&buf), want, "portable, len {}", len);
        }
    }
}
