//! Fixed-size on-disk pages with per-page checksums.
//!
//! Checkpointed table data is stored as a sequence of [`PAGE_SIZE`]-byte
//! pages, each carrying a 16-byte header (magic, page number, payload
//! length, CRC32 of the payload). The fixed grid makes torn writes
//! *detectable*: a file whose length is not a whole number of pages was
//! cut mid-page, and a page whose checksum does not match its payload was
//! only partially (or wrongly) written. Neither is ever silently loaded —
//! the reader surfaces a typed [`DbError::Corrupt`] naming the page.
//!
//! The page grid is deliberately dumb — no slotted records, no free
//! lists. It is the durability floor the future buffer-pool / out-of-core
//! PR will build on: one logical payload (an encoded table) striped over
//! numbered, individually-checksummed pages.

use crate::error::{DbError, DbResult};
use crate::metrics;
use mlcs_pickle::crc::crc32;

/// Size of one on-disk page, header included.
pub const PAGE_SIZE: usize = 8192;

/// Bytes of header at the start of every page: magic, page number,
/// payload length, payload CRC32 (each a little-endian `u32`).
pub const PAGE_HEADER: usize = 16;

/// Payload capacity of one page.
pub const PAGE_CAPACITY: usize = PAGE_SIZE - PAGE_HEADER;

/// `"MPG1"` — the per-page magic.
const PAGE_MAGIC: u32 = 0x4D50_4731;

/// Why a page file failed verification, split so recovery can count
/// checksum/torn-page detections separately from other damage.
#[derive(Debug)]
pub(crate) struct PageFailure {
    /// Whether the failure is a checksum / torn-page detection (as
    /// opposed to, say, a bad magic from a non-page file).
    pub checksum: bool,
    /// The typed error to surface.
    pub error: DbError,
}

/// Stripes `payload` over numbered pages, each checksummed and padded to
/// [`PAGE_SIZE`]. The result's length is always a whole number of pages.
pub fn encode_pages(payload: &[u8]) -> Vec<u8> {
    let npages = payload.len().div_ceil(PAGE_CAPACITY).max(1);
    let mut out = Vec::with_capacity(npages * PAGE_SIZE);
    for page_no in 0..npages {
        let start = page_no * PAGE_CAPACITY;
        let chunk = &payload[start..payload.len().min(start + PAGE_CAPACITY)];
        out.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        out.extend_from_slice(&(page_no as u32).to_le_bytes());
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(chunk).to_le_bytes());
        out.extend_from_slice(chunk);
        out.resize((page_no + 1) * PAGE_SIZE, 0);
    }
    out
}

/// Verifies and reassembles a page file produced by [`encode_pages`].
/// Every detected torn page or checksum mismatch ticks
/// `persist.checksum_failures` (exactly once per failing file — reading
/// stops at the first bad page).
pub fn decode_pages(name: &str, bytes: &[u8]) -> DbResult<Vec<u8>> {
    decode_pages_counted(name, bytes).map_err(|f| f.error)
}

pub(crate) fn u32_at(bytes: &[u8], at: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(raw)
}

pub(crate) fn decode_pages_counted(name: &str, bytes: &[u8]) -> Result<Vec<u8>, PageFailure> {
    let checksum_failure = |error: DbError| {
        metrics::counter("persist.checksum_failures").incr();
        PageFailure { checksum: true, error }
    };
    if !bytes.len().is_multiple_of(PAGE_SIZE) {
        return Err(checksum_failure(DbError::Corrupt(format!(
            "page file '{name}' is torn: {} bytes is not a whole number of {PAGE_SIZE}-byte pages",
            bytes.len()
        ))));
    }
    if bytes.is_empty() {
        return Err(PageFailure {
            checksum: false,
            error: DbError::Corrupt(format!("page file '{name}' is empty")),
        });
    }
    let mut payload = Vec::with_capacity(bytes.len());
    for (page_no, page) in bytes.chunks_exact(PAGE_SIZE).enumerate() {
        if u32_at(page, 0) != PAGE_MAGIC {
            return Err(PageFailure {
                checksum: false,
                error: DbError::Corrupt(format!(
                    "page {page_no} of '{name}' has a bad magic — not a page file"
                )),
            });
        }
        let stored_no = u32_at(page, 4);
        let len = u32_at(page, 8) as usize;
        let stored_crc = u32_at(page, 12);
        if stored_no as usize != page_no || len > PAGE_CAPACITY {
            return Err(checksum_failure(DbError::Corrupt(format!(
                "page {page_no} of '{name}' has a damaged header \
                 (stored number {stored_no}, payload length {len})"
            ))));
        }
        let chunk = &page[PAGE_HEADER..PAGE_HEADER + len];
        let computed = crc32(chunk);
        if stored_crc != computed {
            return Err(checksum_failure(DbError::Corrupt(format!(
                "page {page_no} of '{name}' failed its checksum \
                 ({stored_crc:#x} != {computed:#x}) — torn or corrupt write detected"
            ))));
        }
        payload.extend_from_slice(chunk);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_across_sizes() {
        for len in [0usize, 1, PAGE_CAPACITY - 1, PAGE_CAPACITY, PAGE_CAPACITY + 1, 100_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let pages = encode_pages(&payload);
            assert_eq!(pages.len() % PAGE_SIZE, 0, "len {len}");
            assert_eq!(decode_pages("t", &pages).unwrap(), payload, "len {len}");
        }
    }

    #[test]
    fn torn_file_detected() {
        let pages = encode_pages(&[42u8; 20_000]);
        let torn = &pages[..pages.len() - 100];
        let err = decode_pages("t", torn).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn flipped_byte_detected_and_counted() {
        let mut pages = encode_pages(&[7u8; 20_000]);
        pages[PAGE_SIZE + PAGE_HEADER + 5] ^= 0x40; // payload byte of page 1
        let before = metrics::snapshot();
        let err = decode_pages("t", &pages).unwrap_err();
        assert!(err.to_string().contains("page 1"), "{err}");
        let delta = metrics::snapshot().since(&before);
        assert_eq!(delta.counter("persist.checksum_failures"), 1);
    }

    #[test]
    fn wrong_magic_is_not_a_checksum_failure() {
        let failure = decode_pages_counted("t", &[0u8; PAGE_SIZE]).unwrap_err();
        assert!(!failure.checksum);
    }
}
