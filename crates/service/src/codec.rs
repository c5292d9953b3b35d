//! Zero-dependency binary codec for the durability layer.
//!
//! The primitive [`Encoder`] / [`Decoder`] streams live in `mris-types`,
//! so the simulator and the policies decode their own durable state with
//! them; they are re-exported here. All multi-byte integers are
//! little-endian; `f64` values are encoded as their IEEE-754 bit patterns
//! so encode→decode→encode is byte-identical (the crash-equivalence suite
//! compares AWCT *bits*, so the codec must never round-trip through
//! decimal). On top of the primitive streams sit the two integrity
//! primitives the journal and snapshot formats share: CRC-32 (IEEE
//! polynomial) over frame payloads and an FNV-1a 64-bit configuration
//! fingerprint.

pub use mris_types::{Decoder, Encoder};

/// The CRC-32 (IEEE 802.3) slicing-by-8 tables, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight table reads
/// advance the checksum over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Bytes one lane covers per block of the four-lane loop. A block is
/// `4 * LANE` bytes; shorter inputs (journal frames, wire frames) take the
/// one-lane loop alone.
const LANE: usize = 1024;

/// `a(x) · b(x) mod P` over GF(2), in the reflected bit order the tables
/// use (bit 31 is `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
    }
    p
}

/// `LANE_SHIFT[k][b]` is `(b · x^(8k)) · x^(8·LANE) mod P`: four reads
/// advance a CRC register over `LANE` zero bytes, which is what joins one
/// lane's register to the next lane's. Built at compile time.
const LANE_SHIFT: [[u32; 256]; 4] = {
    // x^(8·LANE) by square-and-multiply from x^8 (bit 23 reflected).
    let mut shift = 1u32 << 31;
    let mut square = 1u32 << 23;
    let mut n = LANE;
    while n > 0 {
        if n & 1 != 0 {
            shift = mul_mod_p(shift, square);
        }
        square = mul_mod_p(square, square);
        n >>= 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            tables[k][b] = mul_mod_p((b as u32) << (8 * k), shift);
            b += 1;
        }
        k += 1;
    }
    tables
};

/// One slicing-by-8 step: the register `c` advanced over eight bytes.
#[inline(always)]
fn step8(c: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The register `c` advanced over `LANE` zero bytes.
#[inline(always)]
fn shift_lane(c: u32) -> u32 {
    let s = &LANE_SHIFT;
    s[0][(c & 0xFF) as usize]
        ^ s[1][((c >> 8) & 0xFF) as usize]
        ^ s[2][((c >> 16) & 0xFF) as usize]
        ^ s[3][(c >> 24) as usize]
}

/// CRC-32 (IEEE polynomial, as in gzip/PNG) of `data`.
///
/// Inputs of at least one block (`4 * LANE` bytes: snapshots, large wire
/// replies) run four slicing-by-8 chains at once, one per quarter of each
/// block, so the chains' table reads overlap instead of waiting on each
/// other; the lanes' registers are joined by shifting each over the next
/// lane's `LANE` bytes (`LANE_SHIFT`), since a CRC register is linear in
/// its input. What is left after the last block, and every shorter input,
/// goes eight bytes per step and the last few bytewise. Every path returns
/// the bytewise value (pinned by the tests below).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, rest) = data.as_chunks::<{ 4 * LANE }>();
    for block in blocks {
        let [l0, l1, l2, l3] = [0, 1, 2, 3].map(|k| block[k * LANE..][..LANE].as_chunks::<8>().0);
        let (mut c1, mut c2, mut c3) = (0u32, 0u32, 0u32);
        for (((w0, w1), w2), w3) in l0.iter().zip(l1).zip(l2).zip(l3) {
            c = step8(c, w0);
            c1 = step8(c1, w1);
            c2 = step8(c2, w2);
            c3 = step8(c3, w3);
        }
        c = shift_lane(shift_lane(shift_lane(c) ^ c1) ^ c2) ^ c3;
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        c = step8(c, w);
    }
    for &b in tail {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit hash of `data` — the durability layer's configuration
/// fingerprint. Not cryptographic; it only needs to make "restored under a
/// different config" overwhelmingly detectable.
pub fn fnv64(data: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, data)
}

/// Continues an FNV-1a 64-bit hash `h` over `data`: the hash of a
/// concatenation is its parts fed in order, so a long input can be hashed
/// in chunks without being held whole.
pub(crate) fn fnv64_extend(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_types::CodecError;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.f64(f64::MAX);
        e.bytes(b"abc");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap(), f64::MAX);
        assert_eq!(d.bytes(3).unwrap(), b"abc");
        d.finish().unwrap();
    }

    #[test]
    fn short_reads_are_typed_truncations() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(
            d.u32(),
            Err(CodecError::Truncated {
                offset: 0,
                needed: 4,
                remaining: 2
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut d = Decoder::new(&[1, 2, 3]);
        d.u8().unwrap();
        assert!(matches!(d.finish(), Err(CodecError::Malformed { .. })));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop `crc32` was before slicing-by-8, kept
    /// verbatim as the reference: same polynomial, same values.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// No format change: `crc32` equals the bytewise loop on every length
    /// 0..=3 blocks + 8 at every start offset 0..8 (every alignment of the
    /// eight-byte steps against the buffer, every tail length, the lanes
    /// on one to three blocks with every remainder), and on random lengths
    /// up to 8 MiB.
    #[test]
    fn crc32_sliced_equals_bytewise() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        let max = 3 * 4 * LANE + 8;
        let mut rng = mris_rng::Rng::new(0x5EED_C0DE);
        let buf: Vec<u8> = (0..max + 8)
            .map(|_| rng.next_u64_below(256) as u8)
            .collect();
        for offset in 0..8 {
            // The bytewise register of `buf[offset..offset + len]`, one
            // byte further each step.
            let mut c = 0xFFFF_FFFFu32;
            for len in 0..=max {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    c ^ 0xFFFF_FFFF,
                    "offset {offset}, length {len}"
                );
                c = CRC_TABLES[0][((c ^ buf[offset + len] as u32) & 0xFF) as usize] ^ (c >> 8);
            }
        }
        let big: Vec<u8> = (0..8 << 20)
            .map(|_| rng.next_u64_below(256) as u8)
            .collect();
        for _ in 0..6 {
            let len = rng.next_u64_below(big.len() as u64 + 1) as usize;
            let start = rng.next_u64_below((big.len() - len) as u64 + 1) as usize;
            let data = &big[start..start + len];
            assert_eq!(
                crc32(data),
                crc32_bytewise(data),
                "start {start}, length {len}"
            );
        }
        assert_eq!(crc32(&big), crc32_bytewise(&big), "all 8 MiB");
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let data = b"the scheduler is contractually bound".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
