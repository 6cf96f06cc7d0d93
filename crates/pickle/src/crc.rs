//! CRC-32 (IEEE 802.3 polynomial) used to checksum pickle payloads, WAL
//! records, page files and the catalog.
//!
//! This is the same polynomial (`0xEDB88320` reflected) used by zlib, PNG
//! and Ethernet, so the values are easy to cross-check against other
//! tools. The bulk loop is slicing-by-16: sixteen compile-time tables let
//! one step fold 16 input bytes with 16 independent lookups instead of a
//! chain of 16 dependent ones, which is what bounds a byte-at-a-time loop.
//! A long input is folded as three runs at once, each its own chain of
//! steps, and the three states are then combined.

/// The reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the bulk loop.
const SLICE: usize = 16;

/// `TABLES[0]` is the byte-indexed CRC table; `TABLES[k][b]` is the CRC
/// state contributed by byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// `a · b` modulo the polynomial, both in the reflected bit order (bit 31
/// holds `x^0`).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let (mut product, mut i) = (0, 0);
    while i < 32 {
        if a & (1 << (31 - i)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        i += 1;
    }
    product
}

/// `X2K[k]` is `x^(2^k)` modulo the polynomial; it repeats with period 32.
const X2K: [u32; 32] = {
    let mut t = [1 << 30; 32];
    let mut k = 1;
    while k < 32 {
        t[k] = mul_mod(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// The state `state` becomes after `n` zero bytes: `state · x^(8n)`.
fn shift(state: u32, mut n: usize) -> u32 {
    let (mut power, mut k) = (1 << 31, 3);
    while n != 0 {
        if n & 1 != 0 {
            power = mul_mod(X2K[k % 32], power);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod(power, state)
}

/// Inputs at least this long are folded as three interleaved runs.
const THREE_RUNS: usize = 1024;

/// One slicing-by-16 step.
fn fold(crc: u32, b: &[u8; SLICE]) -> u32 {
    let t = &TABLES;
    let lo = (crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
    let mut crc = t[15][lo[0] as usize] ^ t[14][lo[1] as usize] ^ t[13][lo[2] as usize];
    crc ^= t[12][lo[3] as usize] ^ t[11][b[4] as usize] ^ t[10][b[5] as usize];
    crc ^= t[9][b[6] as usize] ^ t[8][b[7] as usize] ^ t[7][b[8] as usize];
    crc ^= t[6][b[9] as usize] ^ t[5][b[10] as usize] ^ t[4][b[11] as usize];
    crc ^= t[3][b[12] as usize] ^ t[2][b[13] as usize] ^ t[1][b[14] as usize];
    crc ^ t[0][b[15] as usize]
}

/// Computes the CRC-32 checksum of `data`.
///
/// ```
/// // Well-known test vector: crc32(b"123456789") == 0xCBF43926.
/// assert_eq!(mlcs_pickle::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks through `update`, starting from
/// `0xFFFF_FFFF`, and XOR the final state with `0xFFFF_FFFF`.
pub fn update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut data = data;
    if data.len() >= THREE_RUNS {
        // Three runs of whole steps fold side by side, each its own chain
        // of lookups. The CRC is linear, so folding `a` then `b` from `s`
        // is `shift(fold(s, a), |b|) ^ fold(0, b)`.
        let run = data.len() / 3 / SLICE * SLICE;
        let (a, rest) = data.split_at(run);
        let (b, rest) = rest.split_at(run);
        let (c, rest) = rest.split_at(run);
        let (mut sa, mut sb, mut sc) = (crc, 0, 0);
        for ((x, y), z) in a.as_chunks().0.iter().zip(b.as_chunks().0).zip(c.as_chunks().0) {
            (sa, sb, sc) = (fold(sa, x), fold(sb, y), fold(sc, z));
        }
        crc = shift(shift(sa, run) ^ sb, run) ^ sc;
        data = rest;
    }
    let (blocks, rest) = data.as_chunks::<SLICE>();
    for b in blocks {
        crc = fold(crc, b);
    }
    for &byte in rest {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop: the oracle for the sliced one.
    fn update_bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter()
            .fold(state, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize])
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello pickle world, this is a streaming test";
        let oneshot = crc32(data);
        let mut st = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            st = update(st, chunk);
        }
        assert_eq!(st ^ 0xFFFF_FFFF, oneshot);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"some payload bytes".to_vec();
        let before = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(before, crc32(&data));
    }

    #[test]
    fn long_inputs_match_bytewise() {
        let data: Vec<u8> =
            (0..100_003u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in [1023, 1024, 1025, 4096 + 7, data.len()] {
            assert_eq!(
                update(0xFFFF_FFFF, &data[..len]),
                update_bytewise(0xFFFF_FFFF, &data[..len])
            );
        }
    }

    proptest! {
        /// Slicing-by-16 equals the byte loop for every length, every
        /// starting state and every split of the input across `update`.
        #[test]
        fn sliced_equals_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            state in any::<u32>(),
            cut in any::<usize>(),
        ) {
            prop_assert_eq!(update(state, &data), update_bytewise(state, &data));
            let cut = if data.is_empty() { 0 } else { cut % (data.len() + 1) };
            let (a, b) = data.split_at(cut);
            prop_assert_eq!(update(update(state, a), b), update_bytewise(state, &data));
        }
    }
}
