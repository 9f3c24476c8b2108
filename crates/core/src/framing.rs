//! Shared CRC-32 and frame-envelope helpers.
//!
//! One CRC implementation serves every on-disk and on-wire format in the
//! workspace: the `SUPAv002` checkpoint envelope ([`crate::checkpoint`]) and
//! the `SUPADELTAv002`/`SUPABASEv0002` replication frames
//! ([`crate::delta`]). All of them share the same envelope discipline —
//! magic, little-endian length header, payload, then an IEEE CRC-32 footer
//! computed over *everything after the magic* — so torn writes and silent
//! bit-rot surface as clean, named load errors instead of corrupt state.
//!
//! # Why slicing-by-16
//!
//! Every byte the writer serialises is checksummed — 1.95 MB per delta
//! frame and ≈ 29 MB per checkpoint on the Taobao ledger workload — so the
//! CRC runs at the speed the writer can publish. The textbook loop looks up
//! one table entry per byte, and each lookup waits on the previous one
//! through `crc`: ≈ 0.3 GB/s on a 2-core x86-64 VM. Slicing-by-N breaks
//! that chain: N tables, where table `k` advances a byte through `k` further
//! zero bytes, turn N input bytes into N *independent* lookups XORed
//! together, so one dependent step covers N bytes. On the same VM, for a
//! 30 MB buffer, N = 8 reaches ≈ 1.2 GB/s and N = 16 ≈ 1.6–1.9 GB/s; 16
//! tables are 16 KiB, which still sits in L1. The kernel is plain safe
//! Rust and its tables are built at compile time: no `unsafe`, no
//! `std::arch`, no runtime CPU dispatch. It computes the same function as
//! the bytewise loop, which the tests keep as the reference.

/// Input bytes one step of [`crc32_update`] consumes.
const SLICES: usize = 16;

/// Slicing-by-16 lookup tables for the IEEE CRC-32 (reflected polynomial
/// 0xEDB88320), built at compile time so no external crate is needed.
/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[k][b]` is
/// the CRC state of byte `b` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; SLICES] = {
    let mut tables = [[0u32; 256]; SLICES];
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
    let mut s = 1;
    while s < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
};

/// Initial value for a running CRC-32 (feed with [`crc32_update`], close
/// with [`crc32_finish`]).
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Feeds `data` into a running CRC-32, sixteen bytes per step.
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = data.chunks_exact(SLICES);
    for b in &mut blocks {
        // The running state folds into the first four bytes; byte `j` of
        // the block still has `15 - j` bytes to travel, hence table `15 - j`.
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Finalises a running CRC-32.
pub fn crc32_finish(crc: u32) -> u32 {
    !crc
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, data))
}

/// A CRC-32 trailer that does not match the bytes it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcMismatch {
    /// The CRC of the covered bytes.
    pub expected: u32,
    /// The trailer as stored.
    pub got: u32,
}

impl std::fmt::Display for CrcMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let CrcMismatch { expected, got } = self;
        write!(
            f,
            "CRC mismatch (expected {expected:#010x}, got {got:#010x})"
        )
    }
}

/// Checks a stored CRC-32 trailer, `got`, against `covered`: every byte of
/// the envelope after its magic and before the trailer.
pub fn check_crc(covered: &[u8], got: u32) -> Result<(), CrcMismatch> {
    let expected = crc32(covered);
    if expected == got {
        Ok(())
    } else {
        Err(CrcMismatch { expected, got })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supa_rng::SmallRng;

    #[test]
    fn crc32_matches_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Streaming in pieces is identical to one shot.
        let mut crc = CRC_INIT;
        crc = crc32_update(crc, b"1234");
        crc = crc32_update(crc, b"56789");
        assert_eq!(crc32_finish(crc), 0xCBF4_3926);
    }

    #[test]
    fn crc32_distinguishes_single_bit_flips() {
        let a = crc32(b"hello frames");
        let mut flipped = b"hello frames".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise loop the workspace used before slicing, with its own
    /// table built bit by bit at run time: an independent reference.
    fn reference_update(mut crc: u32, data: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |c, _| {
                    if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                })
            })
            .collect();
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    #[test]
    fn sliced_kernel_equals_the_bytewise_reference_whole_and_in_pieces() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let data: Vec<u8> = (0..257)
            .map(|_| rng.random_range(0u32..256) as u8)
            .collect();
        for len in 0..=data.len() {
            let buf = &data[..len];
            let want = reference_update(CRC_INIT, buf);
            assert_eq!(crc32_update(CRC_INIT, buf), want, "len {len}");
            // Random split points: pieces of any size and alignment feed
            // the running state exactly like the whole buffer.
            for _ in 0..4 {
                let mut cuts: Vec<usize> = (0..rng.random_range(1usize..5))
                    .map(|_| rng.random_range(0..len + 1))
                    .collect();
                cuts.push(len);
                cuts.sort_unstable();
                let mut crc = CRC_INIT;
                let mut at = 0;
                for cut in cuts {
                    crc = crc32_update(crc, &buf[at..cut]);
                    at = cut;
                }
                assert_eq!(crc, want, "len {len}, pieces");
            }
            // A non-initial running state too.
            assert_eq!(
                crc32_update(0x1234_5678, buf),
                reference_update(0x1234_5678, buf)
            );
        }
    }
}
