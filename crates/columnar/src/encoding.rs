//! Encoding selection and the one typed pass that builds a table column.
//!
//! Columns can execute in three physical forms ([`Encoding`]): plain,
//! dictionary (one entry per distinct value plus per-row codes), and
//! run-length (one value per run plus exclusive run ends). This module owns
//! the builders and the auto-selection heuristic; the representation itself
//! lives inside [`Column`] so every accessor resolves it transparently.
//!
//! ## One pass per column
//!
//! `build` is how a table column comes to be: on bulk load, CTAS,
//! reopen, every append sweep and every statistics recompute. Over the
//! column's typed slice it counts runs and builds the dictionary in the
//! same loop (by direct index when integer keys span a narrow range, else
//! on the executor's hash table; either way ids come out in insertion
//! order, which is first-appearance dictionary order), picks the
//! encoding, and returns the column's [`ColumnStats`] taken from what the
//! pass already holds: the dictionary entries or runs when the column is
//! encoded, one typed loop when it stays plain. An already-encoded column
//! goes through the same function without decoding.
//!
//! ## Selection heuristic
//!
//! Applied once per plain column, in order:
//!
//! 1. columns shorter than [`MIN_ENCODE_ROWS`] stay plain — the bookkeeping
//!    would cost more than the scan it saves;
//! 2. if one run covers ≥ [`RLE_FACTOR`] rows on average, RLE wins — filters
//!    and aggregates then touch runs, not rows;
//! 3. otherwise a dictionary with an NDV cap of `len / 4` (bounded by
//!    [`DICT_MAX_NDV`]); the pass stops building it the moment the cap is
//!    exceeded, so high-cardinality columns pay one hash probe per row at
//!    most;
//! 4. anything else stays plain.
//!
//! BLOBs are never auto-encoded (model pickles are few and unique).
//! Setting `MLCS_FORCE_ENCODING=1` drops the row floor to 2 and raises the
//! NDV cap to the row count, which is how CI forces the encoded paths over
//! small fixtures. Explicit [`Column::encode`] ignores the heuristic
//! entirely.
//!
//! Encoding covers raw physical values only: NULL placeholder slots are
//! dictionary entries / run members like any other value and the validity
//! bitmap is carried unchanged, so decode reproduces the plain column bit
//! for bit.

use crate::column::{take_data, Column, Encoding, Repr};
use crate::exec::hashtable::{ByteKeys, HashTable, IntKeys, KeyKind};
use crate::metrics;
use crate::stats::{ColumnStats, StatsFold};
use crate::strings::{BlobColumn, StringColumn};
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Columns shorter than this stay plain under the auto heuristic.
pub const MIN_ENCODE_ROWS: usize = 1024;

/// Average run length required before RLE is chosen.
pub const RLE_FACTOR: usize = 8;

/// Hard ceiling on dictionary size, whatever the row count.
pub const DICT_MAX_NDV: usize = 65536;

/// True when `MLCS_FORCE_ENCODING` asks for aggressive encoding (CI smoke
/// runs use this to exercise the encoded paths over small fixtures).
pub fn forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("MLCS_FORCE_ENCODING").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
    })
}

/// The auto heuristic's thresholds: the row floor, and whether the NDV cap
/// is the row count rather than a quarter of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Thresholds {
    floor: usize,
    forced: bool,
}

impl Thresholds {
    /// The default heuristic.
    pub(crate) const DEFAULT: Thresholds = Thresholds { floor: MIN_ENCODE_ROWS, forced: false };
    /// The `MLCS_FORCE_ENCODING` heuristic.
    pub(crate) const FORCED: Thresholds = Thresholds { floor: 2, forced: true };

    /// The thresholds this process runs with (see [`forced`]).
    pub(crate) fn current() -> Thresholds {
        if forced() {
            Thresholds::FORCED
        } else {
            Thresholds::DEFAULT
        }
    }

    /// The largest dictionary a column of `n` rows may get.
    fn dict_cap(self, n: usize) -> usize {
        if self.forced {
            n.min(DICT_MAX_NDV)
        } else {
            (n / 4).clamp(16, DICT_MAX_NDV)
        }
    }
}

fn sketch_hash(key: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// The physical values of one column type, as the build and the operators
/// read them: the dictionary key, bit equality, SQL order (`Value::sql_cmp`'s
/// and the total [`Values::sql_order`]), the sketch hash and the numeric
/// views aggregates fold.
pub(crate) trait Values {
    /// One value.
    type Item<'a>: Copy
    where
        Self: 'a;
    /// The dictionary's key representation.
    type Kind: KeyKind;
    /// Value `i`.
    fn at(&self, i: usize) -> Self::Item<'_>;
    /// The dictionary key of a value.
    fn key<'a>(x: Self::Item<'a>) -> <Self::Kind as KeyKind>::Key<'a>
    where
        Self: 'a;
    /// Bit equality.
    fn same(a: Self::Item<'_>, b: Self::Item<'_>) -> bool;
    /// SQL order; `None` when incomparable (NaN).
    fn sql_cmp(a: Self::Item<'_>, b: Self::Item<'_>) -> Option<Ordering>;
    /// The order ORDER BY, MIN/MAX and GREATEST/LEAST share
    /// ([`Value::sql_order`]'s): SQL order, with NaN above every number and
    /// all NaNs equal.
    #[inline]
    fn sql_order(a: Self::Item<'_>, b: Self::Item<'_>) -> Ordering {
        Self::sql_cmp(a, b)
            .unwrap_or_else(|| Self::sql_cmp(a, a).is_none().cmp(&Self::sql_cmp(b, b).is_none()))
    }
    /// The NDV sketch's hash.
    fn sketch_hash(x: Self::Item<'_>) -> u64;
    /// The value as a scalar.
    fn value(x: Self::Item<'_>) -> Value;
    /// The smallest integer key and the distance from it to the largest,
    /// for integer keys (`None` for byte keys or no values).
    fn span(&self) -> Option<(i64, u64)> {
        None
    }
    /// The integer key of a value, for integer keys.
    fn int_key(_: Self::Item<'_>) -> Option<i64> {
        None
    }
    /// The value as `i64`, for booleans and integers (`Column::i64_at`'s).
    fn as_i64(_: Self::Item<'_>) -> Option<i64> {
        None
    }
    /// The value as `f64`, for booleans and numbers (`Column::f64_at`'s).
    fn as_f64(_: Self::Item<'_>) -> Option<f64> {
        None
    }
}

/// Primitive values: keyed by their raw bits, widened (equal exactly when
/// the values are bit-identical, so entries and runs decode exactly).
macro_rules! prim {
    ($t:ty, $variant:ident, |$x:ident| $bits:expr, $sketch:expr, $int:expr, $float:expr) => {
        impl Values for [$t] {
            type Item<'a> = $t;
            type Kind = IntKeys;
            #[inline]
            fn at(&self, i: usize) -> $t {
                self[i]
            }
            #[inline]
            fn key<'a>($x: $t) -> i64
            where
                Self: 'a,
            {
                $bits
            }
            #[inline]
            fn same(a: $t, b: $t) -> bool {
                Self::key(a) == Self::key(b)
            }
            #[inline]
            fn sql_cmp(a: $t, b: $t) -> Option<Ordering> {
                a.partial_cmp(&b)
            }
            fn sketch_hash($x: $t) -> u64 {
                sketch_hash($sketch)
            }
            fn value(x: $t) -> Value {
                Value::$variant(x)
            }
            fn span(&self) -> Option<(i64, u64)> {
                let (lo, hi) = self.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &x| {
                    (lo.min(Self::key(x)), hi.max(Self::key(x)))
                });
                (lo <= hi).then(|| (lo, hi.wrapping_sub(lo) as u64))
            }
            #[inline]
            fn int_key(x: $t) -> Option<i64> {
                Some(Self::key(x))
            }
            #[inline]
            #[allow(unused_variables)] // floats have no integer view
            fn as_i64($x: $t) -> Option<i64> {
                $int
            }
            #[inline]
            fn as_f64($x: $t) -> Option<f64> {
                Some($float)
            }
        }
    };
}

// Integers sketch by their widened value so the estimate is the same at
// every width; floats by their `f64` bit pattern.
prim!(bool, Boolean, |x| i64::from(x), (1u8, x), Some(i64::from(x)), f64::from(u8::from(x)));
prim!(i8, Int8, |x| i64::from(x), (2u8, Some(i64::from(x))), Some(i64::from(x)), f64::from(x));
prim!(i16, Int16, |x| i64::from(x), (2u8, Some(i64::from(x))), Some(i64::from(x)), f64::from(x));
prim!(i32, Int32, |x| i64::from(x), (2u8, Some(i64::from(x))), Some(i64::from(x)), f64::from(x));
prim!(i64, Int64, |x| x, (2u8, Some(x)), Some(x), x as f64);
prim!(f32, Float32, |x| i64::from(x.to_bits()), (3u8, f64::from(x).to_bits()), None, f64::from(x));
prim!(f64, Float64, |x| x.to_bits() as i64, (3u8, x.to_bits()), None, x);

/// Byte-string values, read and keyed as their bytes (SQL orders strings
/// bytewise, so VARCHAR needs no UTF-8 check per value).
macro_rules! bytes {
    ($col:ty, $get:ident, $variant:ident, |$x:ident| $owned:expr, $tag:expr) => {
        impl Values for $col {
            type Item<'a> = &'a [u8];
            type Kind = ByteKeys;
            #[inline]
            fn at(&self, i: usize) -> &[u8] {
                self.$get(i)
            }
            #[inline]
            fn key<'a>(x: &'a [u8]) -> &'a [u8]
            where
                Self: 'a,
            {
                x
            }
            #[inline]
            fn same(a: &[u8], b: &[u8]) -> bool {
                a == b
            }
            fn sql_cmp(a: &[u8], b: &[u8]) -> Option<Ordering> {
                Some(a.cmp(b))
            }
            fn sketch_hash(x: &[u8]) -> u64 {
                sketch_hash(($tag, x))
            }
            fn value($x: &[u8]) -> Value {
                Value::$variant($owned)
            }
        }
    };
}

// A string column holds valid UTF-8, so the lossy conversion is exact.
bytes!(StringColumn, get_bytes, Varchar, |x| String::from_utf8_lossy(x).into_owned(), 4u8);
bytes!(BlobColumn, get, Blob, |x| x.to_vec(), 5u8);

/// Calls the generic `$f(values, args…)` with `$data`'s typed values.
macro_rules! typed {
    ($data:expr, $f:ident($($arg:expr),*)) => {
        match $data {
            $crate::column::ColumnData::Boolean(v) => $f(&v[..], $($arg),*),
            $crate::column::ColumnData::Int8(v) => $f(&v[..], $($arg),*),
            $crate::column::ColumnData::Int16(v) => $f(&v[..], $($arg),*),
            $crate::column::ColumnData::Int32(v) => $f(&v[..], $($arg),*),
            $crate::column::ColumnData::Int64(v) => $f(&v[..], $($arg),*),
            $crate::column::ColumnData::Float32(v) => $f(&v[..], $($arg),*),
            $crate::column::ColumnData::Float64(v) => $f(&v[..], $($arg),*),
            $crate::column::ColumnData::Varchar(v) => $f(v, $($arg),*),
            $crate::column::ColumnData::Blob(v) => $f(v, $($arg),*),
        }
    };
}
pub(crate) use typed;

/// What one pass over a plain column found.
struct Scan {
    /// The first row of each run, unless there were more than the cap.
    runs: Option<Vec<u32>>,
    /// The first row of each dictionary entry (in id order) and each row's
    /// code, unless the dictionary outgrew the cap.
    dict: Option<(Vec<u32>, Vec<u32>)>,
}

/// The run half of a scan: each run's first row, up to `cap` runs.
struct Runs {
    starts: Vec<u32>,
    cap: usize,
}

impl Runs {
    /// Records a run starting at row `i`; false once that is one too many.
    #[inline]
    fn start(&mut self, i: usize) -> bool {
        if self.starts.len() == self.cap {
            return false;
        }
        self.starts.push(i as u32);
        true
    }
}

/// How a dictionary finds a key's id.
enum Lookup<K: KeyKind> {
    /// Integer keys spanning at most [`DENSE_SPAN`] values: ids indexed by
    /// the key's distance from `base`, [`DEAD`] where none yet.
    Dense { base: i64, ids: Vec<u32> },
    /// Any keys: the executor's hash table.
    Hashed(HashTable<K>),
}

/// The widest key span a dictionary looks up by direct index.
const DENSE_SPAN: u64 = DICT_MAX_NDV as u64;

/// The dictionary half of a scan: entry ids in insertion order, each
/// entry's first row, and each row's code, up to `cap` entries.
struct Dict<K: KeyKind> {
    lookup: Lookup<K>,
    firsts: Vec<u32>,
    codes: Vec<u32>,
    cap: usize,
}

impl<K: KeyKind> Dict<K> {
    /// Codes row `i`, whose key is `key` (`int` when an integer); false
    /// once the key would be one entry too many.
    #[inline]
    fn code(&mut self, i: usize, key: K::Key<'_>, int: Option<i64>) -> bool {
        let (id, new) = match (&mut self.lookup, int) {
            (Lookup::Dense { base, ids }, Some(k)) => {
                let slot = &mut ids[k.wrapping_sub(*base) as usize];
                let new = *slot == DEAD;
                if new {
                    *slot = self.firsts.len() as u32;
                }
                (*slot, new)
            }
            (Lookup::Hashed(t), _) => t.insert(t.hash(key), key),
            (Lookup::Dense { .. }, None) => unreachable!("a dense lookup has integer keys"),
        };
        if new {
            if self.firsts.len() == self.cap {
                return false;
            }
            self.firsts.push(i as u32);
        }
        self.codes.push(id);
        true
    }
}

/// Counts runs and builds the dictionary of `v` in one pass. A `None` cap
/// skips that half; either half stops once it exceeds its cap, and the
/// pass ends when both have.
fn scan<V: Values + ?Sized>(
    v: &V,
    n: usize,
    run_cap: Option<usize>,
    dict_cap: Option<usize>,
) -> Scan {
    let mut runs = run_cap.map(|cap| Runs { starts: Vec::with_capacity(cap.min(n)), cap });
    let mut dict = dict_cap.map(|cap| Dict::<V::Kind> {
        lookup: match v.span() {
            Some((base, span)) if span < DENSE_SPAN.min(4 * n as u64) => {
                Lookup::Dense { base, ids: vec![DEAD; span as usize + 1] }
            }
            _ => Lookup::Hashed(HashTable::with_capacity(cap.min(1024))),
        },
        firsts: Vec::new(),
        codes: Vec::with_capacity(n),
        cap,
    });
    let new_run = |i: usize| i == 0 || !V::same(v.at(i), v.at(i - 1));
    // Both halves while both are alive, then whichever is left on its own.
    let mut i = 0;
    while i < n {
        if let (Some(r), Some(d)) = (&mut runs, &mut dict) {
            if new_run(i) && !r.start(i) {
                runs = None;
            }
            if !d.code(i, V::key(v.at(i)), V::int_key(v.at(i))) {
                dict = None;
            }
            i += 1;
        } else {
            break;
        }
    }
    if let Some(r) = &mut runs {
        if !(i..n).all(|i| !new_run(i) || r.start(i)) {
            runs = None;
        }
    }
    if let Some(d) = &mut dict {
        if !(i..n).all(|i| d.code(i, V::key(v.at(i)), V::int_key(v.at(i)))) {
            dict = None;
        }
    }
    Scan { runs: runs.map(|r| r.starts), dict: dict.map(|d| (d.firsts, d.codes)) }
}

/// Turns run starts into exclusive run ends: each start ends the previous
/// run, and the last run ends at `n`.
fn run_ends(starts: &[u32], n: usize) -> Vec<u32> {
    starts.iter().skip(1).copied().chain((!starts.is_empty()).then_some(n as u32)).collect()
}

fn dict_column(col: &Column, firsts: &[u32], codes: Vec<u32>) -> Column {
    Column::with_repr(take_data(col.data(), firsts), col.validity().cloned(), Repr::Dict { codes })
}

fn rle_column(col: &Column, starts: &[u32], run_ends: Vec<u32>) -> Column {
    Column::with_repr(
        take_data(col.data(), starts),
        col.validity().cloned(),
        Repr::Rle { run_ends },
    )
}

/// Unconditionally re-encodes `col` into `enc` (decoding first when the
/// column is already encoded). Backs [`Column::encode`].
pub(crate) fn encode(col: &Column, enc: Encoding) -> Column {
    let plain = col.decoded();
    let n = plain.len();
    let out = match enc {
        Encoding::Plain => plain.into_owned(),
        Encoding::Dict => match typed!(plain.data(), scan(n, None, Some(n.max(1)))).dict {
            Some((firsts, codes)) => dict_column(&plain, &firsts, codes),
            None => plain.into_owned(),
        },
        Encoding::Rle => {
            let starts = typed!(plain.data(), scan(n, Some(n), None)).runs.unwrap_or_default();
            rle_column(&plain, &starts, run_ends(&starts, n))
        }
    };
    if !out.is_plain() {
        metrics::counter("exec.encoding.columns_encoded").incr();
    }
    out
}

/// Builds one table column: encodes a plain column by the heuristic (when
/// `auto` is given) and computes the statistics of the result. Returns
/// the new column when it was encoded, `None` to keep `col` as it is.
pub(crate) fn build(col: &Column, auto: Option<Thresholds>) -> (Option<Column>, ColumnStats) {
    typed!(col.data(), build_typed(col, auto))
}

fn build_typed<V: Values + ?Sized>(
    v: &V,
    col: &Column,
    auto: Option<Thresholds>,
) -> (Option<Column>, ColumnStats) {
    let n = col.len();
    if auto.is_some_and(|t| n < t.floor) && !col.is_plain() {
        // Below the floor a column is plain whatever it arrived as, so a
        // short table's encodings, and so its NDV's exactness, are the same
        // whether its rows came from a query's result or from the log.
        let plain = col.decode();
        let (_, stats) = build(&plain, auto);
        return (Some(plain), stats);
    }
    let valid = |i: usize| !col.is_null(i);
    let mut fold = StatsFold::new(v, col);
    if let Some((codes, dict)) = col.dict_parts() {
        fold.entries(0..dict.len(), |p| p, &entry_firsts(codes, dict.len(), valid));
        return (None, fold.finish(true));
    }
    if let Some((ends, runs)) = col.rle_parts() {
        fold.entries(0..runs.len(), |r| r, &live_runs(ends, col));
        return (None, fold.finish(false));
    }
    let scan = auto
        .filter(|t| n >= t.floor && col.data_type() != DataType::Blob)
        .map(|t| scan(v, n, Some(n / RLE_FACTOR), Some(t.dict_cap(n))));
    let (out, exact) = match scan {
        Some(Scan { runs: Some(starts), .. }) => {
            let ends = run_ends(&starts, n);
            fold.entries(0..starts.len(), |r| starts[r] as usize, &live_runs(&ends, col));
            (rle_column(col, &starts, ends), false)
        }
        Some(Scan { dict: Some((firsts, codes)), .. }) => {
            // Without NULLs every entry is live and first seen where it
            // was made.
            let live = if col.validity().is_none() {
                firsts.clone()
            } else {
                entry_firsts(&codes, firsts.len(), valid)
            };
            fold.entries(0..firsts.len(), |p| firsts[p] as usize, &live);
            (dict_column(col, &firsts, codes), true)
        }
        _ => {
            fold.rows(n);
            return (None, fold.finish(false));
        }
    };
    metrics::counter("exec.encoding.columns_encoded").incr();
    (Some(out), fold.finish(exact))
}

/// The first non-NULL row of each of `entries` dictionary entries
/// ([`DEAD`] when no non-NULL row uses it).
fn entry_firsts(codes: &[u32], entries: usize, valid: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut first = vec![DEAD; entries];
    for (i, &c) in codes.iter().enumerate() {
        let f = &mut first[c as usize];
        if *f == DEAD && valid(i) {
            *f = i as u32;
        }
    }
    first
}

/// Per run, its index when any of its rows is non-NULL, else [`DEAD`]
/// (O(runs) without NULLs). Runs are in row order, so the index orders
/// them as their rows do.
fn live_runs(ends: &[u32], col: &Column) -> Vec<u32> {
    let mut start = 0;
    let mut live = Vec::with_capacity(ends.len());
    for (r, &end) in ends.iter().enumerate() {
        let any = (start..end as usize).any(|i| !col.is_null(i));
        live.push(if any { r as u32 } else { DEAD });
        start = end as usize;
    }
    live
}

/// The order key of an entry or run no non-NULL row uses.
pub(crate) const DEAD: u32 = u32::MAX;

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_auto(c: &Column) -> Column {
        build(c, Some(Thresholds::DEFAULT)).0.unwrap_or_else(|| c.clone())
    }

    #[test]
    fn auto_picks_rle_for_long_runs() {
        let mut v = Vec::new();
        for run in 0..4i32 {
            v.extend(std::iter::repeat_n(run, 400));
        }
        let c = Column::from_i32s(v);
        let e = encode_auto(&c);
        assert_eq!(e.encoding(), Encoding::Rle);
        assert_eq!(e.decode(), c);
    }

    #[test]
    fn auto_picks_dict_for_low_ndv() {
        let v: Vec<i32> = (0..2000).map(|i| i % 7).collect();
        let c = Column::from_i32s(v);
        let e = encode_auto(&c);
        assert_eq!(e.encoding(), Encoding::Dict);
        assert_eq!(e.data().len(), 7);
        assert_eq!(e.decode(), c);
    }

    #[test]
    fn auto_leaves_high_ndv_and_short_columns_plain() {
        let v: Vec<i32> = (0..2000).collect();
        assert!(encode_auto(&Column::from_i32s(v)).is_plain(), "all-distinct stays plain");
        let short: Vec<i32> = vec![1; 10];
        assert!(encode_auto(&Column::from_i32s(short)).is_plain(), "short stays plain");
    }

    #[test]
    fn dict_build_bails_at_cap() {
        let v: Vec<i64> = (0..100).collect();
        assert!(scan(&v[..], 100, None, Some(10)).dict.is_none());
        assert!(scan(&v[..], 100, None, Some(100)).dict.is_some());
    }

    #[test]
    fn float_runs_compare_by_bits() {
        let v = [0.0, -0.0, f64::NAN, f64::NAN];
        // -0.0 breaks the run; the NaNs share a bit pattern and merge.
        assert_eq!(scan(&v[..], 4, Some(4), None).runs.map(|r| r.len()), Some(3));
        let c = Column::from_f64s(v.to_vec());
        let r = c.encode(Encoding::Rle);
        let back = r.decode();
        assert_eq!(back.f64s().unwrap()[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(back.f64s().unwrap()[1].to_bits(), (-0.0f64).to_bits());
        assert!(back.f64s().unwrap()[2].is_nan());
    }

    #[test]
    fn nulls_encode_as_placeholders() {
        let c = Column::from_opt_i32s(vec![Some(1), None, Some(1), None]);
        let d = c.encode(Encoding::Dict);
        // Placeholder 0 joins the dictionary; validity is untouched.
        assert_eq!(d.data().len(), 2);
        assert_eq!(d.null_count(), 2);
        assert_eq!(d.decode().data(), c.data());
    }

    #[test]
    fn empty_columns_encode() {
        let c = Column::empty(DataType::Int32);
        assert_eq!(c.encode(Encoding::Dict).len(), 0);
        assert_eq!(c.encode(Encoding::Rle).len(), 0);
    }
}
