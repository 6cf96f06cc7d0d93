//! The one hash table under `GROUP BY`, joins and `DISTINCT`.
//!
//! [`HashTable`] maps a key to a dense `u32` id, handed out in insertion
//! order. It is open addressing with linear probing over one flat slot
//! array. A slot holds the id plus one word: the key itself for a single
//! integer key (inline, as an `i64`), else the key's hash, with the key's
//! [`rowkey`] bytes kept once in a byte arena indexed by id. No key owns
//! an allocation.
//!
//! The hash is a folded multiply — the 128-bit product of two words, high
//! half XOR low half — keyed by two words drawn once per process from
//! [`RandomState`], so a client choosing keys cannot aim them at one probe
//! chain. No operator output depends on the seed: ids follow insertion
//! order, and the partitioned pass below restores row order.
//!
//! The parallel pass is one radix partition. [`partition`] scatters row
//! ids into [`PARTITIONS`] lists by the top bits of their hash, morsel by
//! morsel in morsel order, so each list is ascending and each key lives in
//! exactly one list. Operators then give every partition its own table and
//! process the partitions independently on the pool, with no merge step.
//! Serial execution is one partition holding every row, and no scatter.

use crate::column::{Column, ColumnData};
use crate::error::DbResult;
use crate::exec::{rowkey, Parallelism};
use crate::parallel::Morsel;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// log2 of [`PARTITIONS`].
pub(crate) const PARTITION_BITS: u32 = 4;

/// Partitions of the parallel pass. A constant, balancing two costs: one
/// partition's table and accumulators should fit a core's L2 (at 16, up
/// to a few hundred thousand groups do), while each partition reads its
/// rows scattered over the whole input, which costs more cache lines the
/// more partitions share them.
pub(crate) const PARTITIONS: usize = 1 << PARTITION_BITS;

/// The id of an empty slot, and the end of a chain.
pub(crate) const NONE: u32 = u32::MAX;

/// The 128-bit product of `a` and `b`, folded to 64 bits.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    (p as u64) ^ ((p >> 64) as u64)
}

/// The per-process keyed hash function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyHasher {
    s0: u64,
    s1: u64,
}

impl KeyHasher {
    /// The process's hasher; its two words are drawn from [`RandomState`]
    /// on first use.
    pub(crate) fn get() -> KeyHasher {
        static SEED: OnceLock<KeyHasher> = OnceLock::new();
        *SEED.get_or_init(|| {
            let state = RandomState::new();
            KeyHasher { s0: state.hash_one(0u64), s1: state.hash_one(1u64) | 1 }
        })
    }

    /// Hashes an integer key.
    #[inline]
    pub(crate) fn int(self, k: i64) -> u64 {
        fold_mul(k as u64 ^ self.s0, self.s1)
    }

    /// Hashes a byte key, eight bytes per multiply.
    pub(crate) fn bytes(self, b: &[u8]) -> u64 {
        let mut h = self.s0;
        let mut words = b.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            h = fold_mul(h ^ u64::from_le_bytes(buf), self.s1);
        }
        let rest = words.remainder();
        let mut buf = [0u8; 8];
        buf[..rest.len()].copy_from_slice(rest);
        fold_mul(h ^ u64::from_le_bytes(buf), self.s1 ^ b.len() as u64)
    }
}

/// The partition a hash falls in when the input is cut into `parts`
/// partitions (1 or [`PARTITIONS`]).
#[inline]
pub(crate) fn part_index(hash: u64, parts: usize) -> usize {
    (hash >> (64 - PARTITION_BITS)) as usize & (parts - 1)
}

/// One key representation: how a row's key is read and hashed, and what a
/// [`HashTable`] keeps to compare it.
pub(crate) trait KeyKind: Default + Send + Sync {
    /// A key as read from a row.
    type Key<'k>: Copy;
    /// Reusable buffer for reading keys.
    type Scratch: Default;
    /// Reads `row`'s key over `cols`. `None` only for a single integer
    /// key that is NULL; byte keys encode NULL components.
    fn read<'s>(cols: &[&Column], row: usize, s: &'s mut Self::Scratch) -> Option<Self::Key<'s>>;
    /// The key's hash.
    fn hash(h: KeyHasher, key: Self::Key<'_>) -> u64;
    /// The word a slot keeps for the key.
    fn word(key: Self::Key<'_>, hash: u64) -> u64;
    /// The hash of the key behind a slot word (for growing).
    fn rehash(h: KeyHasher, word: u64) -> u64;
    /// Whether key `id` equals `key`, given that their words matched.
    fn matches(&self, id: u32, key: Self::Key<'_>) -> bool;
    /// Keeps the key of the next id (`None`: an id no key reaches).
    fn push(&mut self, key: Option<Self::Key<'_>>);
}

/// A single integer key, kept inline in the slot.
#[derive(Debug, Default)]
pub(crate) struct IntKeys;

impl KeyKind for IntKeys {
    type Key<'k> = i64;
    type Scratch = ();

    #[inline]
    fn read(cols: &[&Column], row: usize, _: &mut ()) -> Option<i64> {
        rowkey::int_key(cols[0], row)
    }
    #[inline]
    fn hash(h: KeyHasher, key: i64) -> u64 {
        h.int(key)
    }
    #[inline]
    fn word(key: i64, _: u64) -> u64 {
        key as u64
    }
    fn rehash(h: KeyHasher, word: u64) -> u64 {
        h.int(word as i64)
    }
    #[inline]
    fn matches(&self, _: u32, _: i64) -> bool {
        true
    }
    #[inline]
    fn push(&mut self, _: Option<i64>) {}
}

/// Any other key: [`rowkey`] bytes in one arena, `ends[id]` closing key
/// `id`'s range.
#[derive(Debug, Default)]
pub(crate) struct ByteKeys {
    arena: Vec<u8>,
    ends: Vec<usize>,
}

impl KeyKind for ByteKeys {
    type Key<'k> = &'k [u8];
    type Scratch = Vec<u8>;

    #[inline]
    fn read<'s>(cols: &[&Column], row: usize, s: &'s mut Vec<u8>) -> Option<&'s [u8]> {
        rowkey::encode_key(cols, row, s);
        Some(s)
    }
    #[inline]
    fn hash(h: KeyHasher, key: &[u8]) -> u64 {
        h.bytes(key)
    }
    #[inline]
    fn word(_: &[u8], hash: u64) -> u64 {
        hash
    }
    fn rehash(_: KeyHasher, word: u64) -> u64 {
        word
    }
    #[inline]
    fn matches(&self, id: u32, key: &[u8]) -> bool {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        self.arena.get(start..self.ends[id]) == Some(key)
    }
    #[inline]
    fn push(&mut self, key: Option<&[u8]>) {
        self.arena.extend_from_slice(key.unwrap_or_default());
        self.ends.push(self.arena.len());
    }
}

/// One slot: an id ([`NONE`] when empty) and the key's word.
#[derive(Debug, Clone, Copy)]
struct Slot {
    word: u64,
    id: u32,
}

const EMPTY: Slot = Slot { word: 0, id: NONE };

/// Open addressing from keys to dense ids, at most half full.
#[derive(Debug)]
pub(crate) struct HashTable<K: KeyKind> {
    slots: Vec<Slot>,
    keys: K,
    len: u32,
    hasher: KeyHasher,
}

impl<K: KeyKind> HashTable<K> {
    /// An empty table sized for about `keys` keys before it grows.
    pub(crate) fn with_capacity(keys: usize) -> HashTable<K> {
        let slots = (keys.max(8) * 2).next_power_of_two();
        HashTable {
            slots: vec![EMPTY; slots],
            keys: K::default(),
            len: 0,
            hasher: KeyHasher::get(),
        }
    }

    /// Hashes a key with this table's hasher.
    #[inline]
    pub(crate) fn hash(&self, key: K::Key<'_>) -> u64 {
        K::hash(self.hasher, key)
    }

    /// The id of `key` (whose hash is `hash`), if present.
    #[inline]
    pub(crate) fn find(&self, hash: u64, key: K::Key<'_>) -> Option<u32> {
        let word = K::word(key, hash);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.id == NONE {
                return None;
            }
            if s.word == word && self.keys.matches(s.id, key) {
                return Some(s.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `key` (whose hash is `hash`), inserting it with the next
    /// id when absent. The flag is true when the key is new.
    #[inline]
    pub(crate) fn insert(&mut self, hash: u64, key: K::Key<'_>) -> (u32, bool) {
        let word = K::word(key, hash);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.id == NONE {
                break;
            }
            if s.word == word && self.keys.matches(s.id, key) {
                return (s.id, false);
            }
            i = (i + 1) & mask;
        }
        let id = self.len;
        self.slots[i] = Slot { word, id };
        self.keys.push(Some(key));
        self.len += 1;
        if self.len as usize * 2 > self.slots.len() {
            self.grow();
        }
        (id, true)
    }

    /// Hands out the next id without a key: an id no probe reaches, for a
    /// group the caller tracks itself (the NULL key of an integer column).
    pub(crate) fn reserve_id(&mut self) -> u32 {
        self.keys.push(None);
        self.len += 1;
        self.len - 1
    }

    /// Doubles the slot array, re-placing every key.
    fn grow(&mut self) {
        let grown = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for s in old.into_iter().filter(|s| s.id != NONE) {
            let mut i = K::rehash(self.hasher, s.word) as usize & mask;
            while self.slots[i].id != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// The rows of an input split into [`PARTITIONS`] lists by key hash: per
/// morsel, its rows grouped by partition plus each partition's offsets.
pub(crate) struct Partitions {
    morsels: Vec<(Vec<u32>, Vec<u32>)>,
}

impl Partitions {
    /// Partition `p`'s rows, ascending, one slice per morsel.
    pub(crate) fn slices(&self, p: usize) -> impl Iterator<Item = &[u32]> + '_ {
        self.morsels.iter().map(move |(rows, ends)| {
            let start = if p == 0 { 0 } else { ends[p - 1] as usize };
            &rows[start..ends[p] as usize]
        })
    }
}

/// Scatters the rows of a `rows`-row input into [`PARTITIONS`] lists by
/// the top bits of their hashes, in morsels on the pool; `hash` appends
/// the hashes of one morsel's rows, in order. Morsel results are kept in
/// morsel order and each morsel scatters its rows in row order, so every
/// partition's rows come out ascending.
pub(crate) fn partition<F>(rows: usize, par: &Parallelism, hash: F) -> DbResult<Partitions>
where
    F: Fn(Morsel, &mut Vec<u64>) + Sync,
{
    let morsels = par.run_morsels(rows, true, |m| {
        let mut hashes = Vec::with_capacity(m.len);
        hash(m, &mut hashes);
        // Counting scatter: `ends[p]` is first partition p's count, then
        // its start cursor, and after the scatter its end.
        let mut ends = vec![0u32; PARTITIONS];
        for &h in &hashes {
            ends[part_index(h, PARTITIONS)] += 1;
        }
        let mut start = 0;
        for e in ends.iter_mut() {
            let count = *e;
            *e = start;
            start += count;
        }
        let mut out = vec![0u32; m.len];
        for (i, &h) in hashes.iter().enumerate() {
            let at = &mut ends[part_index(h, PARTITIONS)];
            out[*at as usize] = (m.start + i) as u32;
            *at += 1;
        }
        Ok((out, ends))
    })?;
    Ok(Partitions { morsels })
}

/// Hashes multi-column keys a column at a time, for partitioning: equal
/// [`rowkey`] keys hash equally, without encoding a key per row. A
/// dictionary column's values are hashed once, up front.
pub(crate) struct ColumnHasher<'a> {
    cols: Vec<(&'a Column, Option<Vec<u64>>)>,
    hasher: KeyHasher,
}

impl<'a> ColumnHasher<'a> {
    pub(crate) fn new(cols: &[&'a Column]) -> ColumnHasher<'a> {
        let hasher = KeyHasher::get();
        let cols = cols
            .iter()
            .map(|&c| {
                let dict = c.dict_parts().map(|(_, values)| {
                    let word = value_words(hasher, values);
                    (0..values.len()).map(word).collect()
                });
                (c, dict)
            })
            .collect();
        ColumnHasher { cols, hasher }
    }

    /// Appends the hash of each row of `m`.
    pub(crate) fn hash(&self, m: Morsel, out: &mut Vec<u64>) {
        let start = out.len();
        out.resize(start + m.len, self.hasher.s0);
        let out = &mut out[start..];
        for (col, dict) in &self.cols {
            // A dictionary column's physical index is its code.
            let word: Box<dyn Fn(usize) -> u64> = match dict {
                Some(words) => Box::new(|p| words[p]),
                None => value_words(self.hasher, col.data()),
            };
            for (i, h) in out.iter_mut().enumerate() {
                let row = m.start + i;
                let w = if col.is_null(row) { NULL_WORD } else { word(col.physical_index(row)) };
                *h = fold_mul(*h ^ w, self.hasher.s1);
            }
        }
    }
}

/// The word a NULL key component mixes in.
const NULL_WORD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The word each physical value of `data` mixes in: integers widened to
/// `i64` and floats canonicalized as [`rowkey`] encodes them, strings and
/// blobs by their bytes' hash.
fn value_words(h: KeyHasher, data: &ColumnData) -> Box<dyn Fn(usize) -> u64 + '_> {
    let float = |v: f64| {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&rowkey::canonical_f64(v));
        u64::from_le_bytes(buf)
    };
    match data {
        ColumnData::Boolean(v) => Box::new(|p| v[p] as u64),
        ColumnData::Int8(v) => Box::new(|p| v[p] as u64),
        ColumnData::Int16(v) => Box::new(|p| v[p] as u64),
        ColumnData::Int32(v) => Box::new(|p| v[p] as u64),
        ColumnData::Int64(v) => Box::new(|p| v[p] as u64),
        ColumnData::Float32(v) => Box::new(move |p| float(v[p] as f64)),
        ColumnData::Float64(v) => Box::new(move |p| float(v[p])),
        ColumnData::Varchar(v) => Box::new(move |p| h.bytes(v.get_bytes(p))),
        ColumnData::Blob(v) => Box::new(move |p| h.bytes(v.get(p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_insertion_order_across_growth() {
        let mut t: HashTable<IntKeys> = HashTable::with_capacity(0);
        for k in 0..1000i64 {
            let key = k * 7919 - 3;
            assert_eq!(t.insert(t.hash(key), key), (k as u32, true));
        }
        for k in 0..1000i64 {
            let key = k * 7919 - 3;
            assert_eq!(t.insert(t.hash(key), key), (k as u32, false));
            assert_eq!(t.find(t.hash(key), key), Some(k as u32));
        }
        assert_eq!(t.find(t.hash(5), 5), None);
        assert_eq!(t.reserve_id(), 1000);
        assert_eq!(t.insert(t.hash(5), 5), (1001, true));
    }

    #[test]
    fn byte_keys_live_in_one_arena() {
        let mut t: HashTable<ByteKeys> = HashTable::with_capacity(2);
        let keys: Vec<Vec<u8>> =
            (0..300).map(|i| format!("{}{i}", "k".repeat(i % 11)).into_bytes()).collect();
        let mut ids = Vec::new();
        for k in &keys {
            ids.push(t.insert(t.hash(k), k).0);
        }
        for (k, &id) in keys.iter().zip(&ids) {
            assert_eq!(t.find(t.hash(k), k), Some(id));
        }
        assert_eq!(t.find(t.hash(b"absent key"), b"absent key"), None);
        assert_eq!(t.keys.ends.len(), keys.len());
        assert_eq!(t.keys.arena.len(), keys.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn hashes_depend_on_every_byte_and_the_length() {
        let h = KeyHasher::get();
        assert_ne!(h.bytes(b""), h.bytes(&[0]));
        assert_ne!(h.bytes(&[0; 8]), h.bytes(&[0; 9]));
        assert_ne!(h.bytes(b"abcdefghij"), h.bytes(b"abcdefghik"));
        assert_ne!(h.int(0), h.int(1));
    }

    #[test]
    fn column_hashes_follow_rowkey_equality() {
        use crate::column::Encoding;
        let whole = |n| Morsel { start: 0, len: n };
        let hash = |cols: &[&Column]| {
            let mut out = Vec::new();
            ColumnHasher::new(cols).hash(whole(cols[0].len()), &mut out);
            out
        };
        let narrow = Column::from_opt_i32s(vec![Some(7), None, Some(-1), Some(7)]);
        let wide = Column::from_opt_i64s(vec![Some(7), None, Some(-1), Some(7)]);
        let dict = narrow.encode(Encoding::Dict);
        let names = Column::from_strings(["a", "b", "a", "a"]);
        let by_narrow = hash(&[&narrow, &names]);
        assert_eq!(by_narrow, hash(&[&wide, &names]));
        assert_eq!(by_narrow, hash(&[&dict, &names.encode(Encoding::Dict)]));
        assert_eq!(by_narrow[0], by_narrow[3]);
        assert_ne!(by_narrow[0], by_narrow[2]);
        let floats =
            Column::from_f64s(vec![0.0, -0.0, f64::NAN, f64::from_bits(0x7FF8_0000_0000_0001)]);
        let h = hash(&[&floats]);
        assert_eq!((h[0], h[2]), (h[1], h[3]));
    }

    #[test]
    fn partitions_cover_every_row_once_ascending() {
        let par = Parallelism { threads: 4, threshold: 1, morsel_rows: 7, deadline: None };
        let h = KeyHasher::get();
        let parts = partition(100, &par, |m, out| {
            out.extend((m.start..m.start + m.len).map(|row| h.int(row as i64 % 13)))
        })
        .unwrap();
        let mut seen = [false; 100];
        for p in 0..PARTITIONS {
            let rows: Vec<u32> = parts.slices(p).flatten().copied().collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
            for r in rows {
                assert_eq!(part_index(h.int(r as i64 % 13), PARTITIONS), p);
                assert!(!std::mem::replace(&mut seen[r as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
