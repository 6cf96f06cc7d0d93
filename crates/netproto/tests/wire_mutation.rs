//! Hostile row frames: valid `RowsBinary` and `RowsText` payloads from the
//! server's encoders, mutated with knowledge of their structure — cut
//! short, a NULL marker flipped, a length prefix inflated, invalid UTF-8
//! inserted, a field added or dropped, a byte overwritten. Every mutant
//! must decode to `Ok` or a typed error: no panic, no hang, and no
//! allocation beyond what the input's length justifies (a length prefix
//! past the end is refused before anything is allocated for it).
//!
//! The mutations are seeded: `MLCS_CHAOS_SEED` replays a run, and the seed
//! in use is printed.

use mlcs_columnar::{Batch, ColumnBuilder, DataType, Field, Schema, Value};
use mlcs_netproto::codec::{binary, text};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Mutants per encoding.
const MUTANTS: usize = 4000;

/// Longest the whole loop may take before it counts as a hang.
const PATIENCE: Duration = Duration::from_secs(120);

fn seed() -> u64 {
    let seed = std::env::var("MLCS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED);
    println!("wire decoder mutation seed: {seed} (set MLCS_CHAOS_SEED to replay)");
    seed
}

/// A 64-bit LCG; the high bits are the output.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }
}

const TYPES: [DataType; 9] = [
    DataType::Boolean,
    DataType::Int8,
    DataType::Int16,
    DataType::Int32,
    DataType::Int64,
    DataType::Float32,
    DataType::Float64,
    DataType::Varchar,
    DataType::Blob,
];

/// A small batch with one column of every type, NULLs sprinkled in, and
/// strings holding the bytes the text encoding escapes.
fn batch(g: &mut Lcg) -> Batch {
    let rows = 1 + g.below(12);
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (c, &dtype) in TYPES.iter().enumerate() {
        let mut b = ColumnBuilder::new(dtype);
        for r in 0..rows {
            if g.below(4) == 0 {
                b.push_null();
                continue;
            }
            let k = g.below(1000) as i64 - 500;
            let v = match dtype {
                DataType::Boolean => Value::Boolean(k % 2 == 0),
                DataType::Int8 => Value::Int8(k as i8),
                DataType::Int16 => Value::Int16(k as i16 * 60),
                DataType::Int32 => Value::Int32(k as i32 * 70_001),
                DataType::Int64 => Value::Int64(k << 40),
                DataType::Float32 => Value::Float32(k as f32 / 3.0),
                DataType::Float64 => Value::Float64(k as f64 / 7.0),
                DataType::Varchar => {
                    Value::Varchar(["", "a\tb", "n\nl", "\\", "ü", "plain"][r % 6].repeat(r % 3))
                }
                DataType::Blob => Value::Blob(vec![k as u8; r % 5]),
            };
            b.push_value(&v).unwrap();
        }
        fields.push(Field::new(format!("c{c}"), dtype));
        columns.push(Arc::new(b.finish()));
    }
    Batch::new(Arc::new(Schema::new_unchecked(fields)), columns).unwrap()
}

/// Where a binary payload's cells start (their markers) and where its
/// length prefixes sit, found by walking it with the schema's types.
fn binary_structure(payload: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let (mut markers, mut prefixes) = (Vec::new(), Vec::new());
    let mut at = 0;
    while at < payload.len() {
        for dtype in TYPES {
            markers.push(at);
            at += 1;
            if payload[at - 1] == 0 {
                continue;
            }
            at += match dtype {
                DataType::Boolean | DataType::Int8 => 1,
                DataType::Int16 => 2,
                DataType::Int32 | DataType::Float32 => 4,
                DataType::Int64 | DataType::Float64 => 8,
                DataType::Varchar | DataType::Blob => {
                    prefixes.push(at);
                    let len = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
                    4 + len as usize
                }
            };
        }
    }
    (markers, prefixes)
}

/// One structure-aware mutation of a valid binary payload.
fn mutate_binary(g: &mut Lcg, valid: &[u8]) -> Vec<u8> {
    let (markers, prefixes) = binary_structure(valid);
    let mut m = valid.to_vec();
    let pick = |g: &mut Lcg, v: &[usize]| v.get(g.below(v.len())).copied();
    match g.below(7) {
        0 => m.truncate(g.below(valid.len())),
        1 => {
            if let Some(at) = pick(g, &markers) {
                m[at] = if m[at] == 0 { 1 } else { 0 };
            }
        }
        2 => {
            if let Some(at) = pick(g, &prefixes) {
                let len = [u32::MAX, 1 << 30, valid.len() as u32 + 1][g.below(3)];
                m[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
        }
        3 => {
            let at = pick(g, &prefixes).map_or(0, |p| p + 4);
            m.insert(at.min(m.len()), [0xFF, 0xC3, 0x80][g.below(3)]);
        }
        4 => {
            // Add a field: one more cell.
            let at = pick(g, &markers).unwrap_or(0);
            m.splice(at..at, [1, 7, 7, 7, 7]);
        }
        5 => {
            // Drop a field: the bytes from one marker to the next.
            if let Some(i) = (!markers.is_empty()).then(|| g.below(markers.len())) {
                let end = markers.get(i + 1).copied().unwrap_or(m.len());
                m.drain(markers[i]..end);
            }
        }
        _ => {
            if !m.is_empty() {
                let at = g.below(m.len());
                m[at] = g.below(256) as u8;
            }
        }
    }
    m
}

/// One structure-aware mutation of a valid text payload.
fn mutate_text(g: &mut Lcg, valid: &[u8]) -> Vec<u8> {
    let seps: Vec<usize> = valid
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\t' || b == b'\n')
        .map(|(i, _)| i)
        .collect();
    let mut m = valid.to_vec();
    let sep = |g: &mut Lcg| seps.get(g.below(seps.len())).copied().unwrap_or(0);
    match g.below(7) {
        0 => m.truncate(g.below(valid.len())),
        1 => {
            // Flip a NULL marker: a field becomes `\N`, or `\N` a value.
            let at = sep(g) + 1;
            match m.get(at..at + 2) {
                Some(b"\\N") => m.splice(at..at + 2, *b"zz"),
                _ => m.splice(at.min(m.len())..at.min(m.len()), *b"\\N"),
            };
        }
        2 => {
            // A dangling or unknown escape.
            let at = sep(g);
            m.splice(at..at, [b'\\', [b'q', b'\\', b'x'][g.below(3)]]);
        }
        3 => {
            let at = g.below(m.len() + 1);
            m.insert(at, [0xFF, 0xC3, 0x80][g.below(3)]);
        }
        4 => {
            let at = sep(g);
            m.splice(at..at, *b"\t1");
        }
        5 => {
            // Drop a field: a separator and what follows it up to the next.
            let at = sep(g);
            let end = m[at + 1..].iter().position(|&b| b == b'\t' || b == b'\n');
            m.drain(at..end.map_or(m.len(), |e| at + 1 + e));
        }
        _ => {
            if !m.is_empty() {
                let at = g.below(m.len());
                m[at] = g.below(256) as u8;
            }
        }
    }
    m
}

type Decode = fn(&[u8], &mut [ColumnBuilder]) -> mlcs_columnar::DbResult<()>;

/// Decodes `mutant`, asserting the heap grew by no more than its length
/// justifies; returns whether it decoded.
fn decode_bounded(decode: Decode, mutant: &[u8], what: &str) -> bool {
    let mut builders: Vec<ColumnBuilder> = TYPES.iter().map(|&t| ColumnBuilder::new(t)).collect();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let ok = decode(mutant, &mut builders).is_ok();
    let grown = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    // Every cell takes at least one input byte and appends at most eight
    // bytes plus its string, doubled by growth; a small constant covers
    // each builder's first allocations.
    let bound = 32 * mutant.len() + 64 * 1024;
    assert!(grown <= bound, "{what}: {grown} bytes allocated for {} input bytes", mutant.len());
    ok
}

#[test]
fn mutated_row_frames_decode_or_fail_typed() {
    let seed = seed();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut g = Lcg(seed);
        let mut decoded = [0usize; 2];
        for i in 0..MUTANTS {
            let batch = batch(&mut g);
            for (p, (encode, decode, mutate)) in [
                (
                    binary::encode_rows as fn(&Batch, usize, &mut Vec<u8>) -> _,
                    binary::decode_rows as Decode,
                    mutate_binary as fn(&mut Lcg, &[u8]) -> Vec<u8>,
                ),
                (text::encode_rows, text::decode_rows, mutate_text),
            ]
            .into_iter()
            .enumerate()
            {
                let mut valid = Vec::new();
                assert_eq!(encode(&batch, 0, &mut valid).unwrap(), batch.rows());
                assert!(decode_bounded(decode, &valid, "valid frame"), "a valid frame decodes");
                let mutant = mutate(&mut g, &valid);
                let what = format!("mutant {i} ({})", ["binary", "text"][p]);
                decoded[p] += usize::from(decode_bounded(decode, &mutant, &what));
            }
        }
        let _ = tx.send(decoded);
    });
    let decoded = rx.recv_timeout(PATIENCE).expect("a decoder hung or panicked");
    println!("mutants that still decoded: binary {}, text {}", decoded[0], decoded[1]);
    assert!(decoded.iter().all(|&d| d < MUTANTS), "every mutation class changes something");
}
