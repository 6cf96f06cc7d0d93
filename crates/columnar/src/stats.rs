//! Live per-column statistics: row/null counts, min/max, and NDV.
//!
//! Every [`crate::table::Table`] carries a [`TableStats`] that the
//! cost-based optimizer ([`crate::sql::optimizer`]) and the cardinality
//! estimator ([`crate::sql::estimate`]) read through the catalog. Stats
//! are maintained on the table's own mutation paths:
//!
//! * **Builds** — bulk load, CTAS, reopen, the encoding sweep that runs on
//!   every table-size doubling, and the recompute after a delete, update
//!   or forced encoding — take each column's stats from the same typed
//!   pass that picks its encoding ([`crate::encoding`]'s `build`).
//! * **Appends** between sweeps merge exact per-batch stats (O(batch)).
//!
//! **Where the numbers come from.** A dictionary column's stats come from
//! its dictionary, an RLE column's from its runs: min/max and the sketch
//! are folded over the *live* entries (those some non-NULL row uses), each
//! distinct value once, so the cost is O(dictionary) plus one pass over
//! the codes for liveness. A plain column gets one typed loop over its
//! rows. The sketch is a register-wise max, so feeding it each distinct
//! value once yields the same registers as feeding it every row.
//!
//! **Exactness contract.** `rows`, `nulls`, `min`, and `max` are exact on
//! every path — the optimizer answers `COUNT(*)` / `COUNT(col)` /
//! `MIN` / `MAX` straight from them, so "estimate" is not good enough.
//! Min/max replicate the executor's MIN/MAX update rule bit for bit: in
//! row order, a strict `Less`/`Greater` replaces the running best, so
//! among equal values (`-0.0`/`+0.0`) the one at the earliest row wins —
//! the fold over entries breaks ties by each entry's first non-NULL row to
//! the same effect. An incomparable pair (NaN beside any other non-NULL
//! row) poisons min/max, so the optimizer falls back to the scan, whose
//! MIN/MAX order NaN above every number (`Values::sql_order`).
//!
//! `ndv` is exact on dictionary-encoded columns (distinct live dictionary
//! codes) and a [`NdvSketch`] HyperLogLog-style estimate on plain/RLE
//! columns; [`ColumnStats::ndv_exact`] says which.

use crate::column::Column;
use crate::encoding::{Values, DEAD};
use crate::types::Value;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Register-index bits of the NDV sketch (`2^8 = 256` registers,
/// ~6.5% relative error — plenty for selectivity heuristics).
const REGISTER_BITS: u32 = 8;
/// Number of sketch registers.
const REGISTERS: usize = 1 << REGISTER_BITS;

/// True unless `MLCS_DISABLE_STATS` is set to a non-empty value other
/// than `0`, which turns cost-based planning off for the whole process
/// (collection still runs; only *use* of the stats is gated, so the
/// on/off comparison in benchmarks pays identical collection cost).
pub fn env_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| match std::env::var("MLCS_DISABLE_STATS") {
        Ok(v) => v.is_empty() || v == "0",
        Err(_) => true,
    })
}

/// A streaming HyperLogLog-style distinct-count sketch.
///
/// Std-only: values are hashed with `DefaultHasher`, the low
/// `REGISTER_BITS` pick a register, and the register keeps the maximum
/// "rank" (position of the first set bit in the remaining hash bits).
/// Sketches merge by register-wise max, which is what makes incremental
/// append maintenance possible without rescanning the table.
#[derive(Clone, PartialEq, Eq)]
pub struct NdvSketch {
    registers: [u8; REGISTERS],
}

impl std::fmt::Debug for NdvSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NdvSketch").field("estimate", &self.estimate()).finish()
    }
}

impl Default for NdvSketch {
    fn default() -> Self {
        NdvSketch { registers: [0; REGISTERS] }
    }
}

impl NdvSketch {
    /// An empty sketch (estimates 0).
    pub fn new() -> NdvSketch {
        NdvSketch::default()
    }

    /// Folds one 64-bit value hash into the sketch.
    pub fn insert_hash(&mut self, h: u64) {
        let idx = (h & (REGISTERS as u64 - 1)) as usize;
        let rest = h >> REGISTER_BITS;
        let rank = (rest.trailing_zeros().min(63 - REGISTER_BITS) + 1) as u8;
        if let Some(r) = self.registers.get_mut(idx) {
            if rank > *r {
                *r = rank;
            }
        }
    }

    /// Merges another sketch into this one (register-wise max).
    pub fn merge(&mut self, other: &NdvSketch) {
        for (a, b) in self.registers.iter_mut().zip(other.registers.iter()) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Estimated number of distinct values folded in so far.
    pub fn estimate(&self) -> u64 {
        let m = REGISTERS as f64;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if zeros > 0 {
            // Linear counting is more accurate in the sparse regime.
            let lc = m * (m / zeros as f64).ln();
            if lc < 2.5 * m {
                return lc.round() as u64;
            }
        }
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        (alpha * m * m / sum).round() as u64
    }
}

/// Statistics over one column: exact row/null counts and min/max, plus a
/// distinct-value count that is exact for dictionary-encoded columns and
/// sketch-estimated otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    rows: u64,
    nulls: u64,
    min: Option<Value>,
    max: Option<Value>,
    /// False once any min/max comparison returned incomparable (NaN);
    /// min/max are then unusable but counts stay exact.
    comparable: bool,
    ndv: u64,
    ndv_exact: bool,
    sketch: NdvSketch,
}

impl Default for ColumnStats {
    fn default() -> Self {
        ColumnStats {
            rows: 0,
            nulls: 0,
            min: None,
            max: None,
            comparable: true,
            ndv: 0,
            ndv_exact: true,
            sketch: NdvSketch::new(),
        }
    }
}

impl ColumnStats {
    /// Folds stats computed over an appended batch into stats for the
    /// rows already present. Min/max ties keep the earlier (existing)
    /// value — the same answer a full re-sweep in row order would give.
    pub fn merge_append(&mut self, appended: &ColumnStats) {
        self.rows += appended.rows;
        self.nulls += appended.nulls;
        if !appended.comparable {
            self.poison();
        } else if self.comparable {
            if let (Some(amn), Some(amx)) = (appended.min.clone(), appended.max.clone()) {
                match (self.min.clone(), self.max.clone()) {
                    (Some(mn), Some(mx)) => {
                        match amn.sql_cmp(&mn) {
                            Some(Ordering::Less) => self.min = Some(amn),
                            Some(_) => {}
                            None => self.poison(),
                        }
                        if self.comparable {
                            match amx.sql_cmp(&mx) {
                                Some(Ordering::Greater) => self.max = Some(amx),
                                Some(_) => {}
                                None => self.poison(),
                            }
                        }
                    }
                    _ => {
                        self.min = Some(amn);
                        self.max = Some(amx);
                    }
                }
            }
        }
        self.sketch.merge(&appended.sketch);
        self.ndv = clamp_ndv(self.sketch.estimate(), self.rows - self.nulls);
        // The merged count is sketch-based even if both inputs were
        // exact; the next encoding sweep restores exactness.
        self.ndv_exact = false;
    }

    fn poison(&mut self) {
        self.comparable = false;
        self.min = None;
        self.max = None;
    }

    /// Total rows covered (including NULLs).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// NULL rows covered.
    pub fn nulls(&self) -> u64 {
        self.nulls
    }

    /// Fraction of rows that are NULL (0.0 for an empty column).
    pub fn null_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows as f64
        }
    }

    /// Exact minimum and maximum over non-null values, or `None` when
    /// the column is empty/all-NULL or holds incomparable values (NaN).
    pub fn min_max(&self) -> Option<(&Value, &Value)> {
        if !self.comparable {
            return None;
        }
        match (self.min.as_ref(), self.max.as_ref()) {
            (Some(mn), Some(mx)) => Some((mn, mx)),
            _ => None,
        }
    }

    /// Number of distinct non-null values — exact when
    /// [`Self::ndv_exact`], a sketch estimate otherwise.
    pub fn ndv(&self) -> u64 {
        self.ndv
    }

    /// Whether [`Self::ndv`] is exact (dictionary-encoded column).
    pub fn ndv_exact(&self) -> bool {
        self.ndv_exact
    }
}

/// Folds one column's values into its [`ColumnStats`], the way a sweep in
/// row order would see them: either every non-NULL row ([`Self::rows`]) or
/// each live dictionary entry or run once ([`Self::entries`]).
pub(crate) struct StatsFold<'a, V: Values + ?Sized> {
    values: &'a V,
    col: &'a Column,
    /// Physical index and order key (first non-NULL row) of the running
    /// minimum and maximum.
    min: Option<(usize, u32)>,
    max: Option<(usize, u32)>,
    /// A NaN seen, by physical index.
    nan: Option<usize>,
    /// Values folded.
    folded: u64,
    sketch: NdvSketch,
}

impl<'a, V: Values + ?Sized> StatsFold<'a, V> {
    /// An empty fold over `col`, whose physical values are `values`.
    pub(crate) fn new(values: &'a V, col: &'a Column) -> Self {
        StatsFold {
            values,
            col,
            min: None,
            max: None,
            nan: None,
            folded: 0,
            sketch: NdvSketch::new(),
        }
    }

    /// Folds physical value `p`, first seen at non-NULL row `order`.
    #[inline]
    fn observe(&mut self, p: usize, order: u32) {
        let x = self.values.at(p);
        self.folded += 1;
        self.sketch.insert_hash(V::sketch_hash(x));
        if V::sql_cmp(x, x).is_none() {
            self.nan = Some(p);
            return;
        }
        let values = self.values;
        let wins = |best: Option<(usize, u32)>, want: Ordering| {
            best.is_none_or(|(q, o)| {
                let c = V::sql_cmp(x, values.at(q));
                c == Some(want) || (c == Some(Ordering::Equal) && order < o)
            })
        };
        if wins(self.min, Ordering::Less) {
            self.min = Some((p, order));
        }
        if wins(self.max, Ordering::Greater) {
            self.max = Some((p, order));
        }
    }

    /// Folds every non-NULL row of a plain column. A row bit-identical to
    /// the last one folded cannot change min, max or the sketch, and is
    /// skipped.
    pub(crate) fn rows(&mut self, n: usize) {
        let mut last: Option<usize> = None;
        for i in 0..n {
            if self.col.is_null(i) {
                continue;
            }
            if last.is_some_and(|l| V::same(self.values.at(l), self.values.at(i))) {
                continue;
            }
            last = Some(i);
            self.observe(i, i as u32);
        }
    }

    /// Folds each entry `e` in `entries` whose order key `orders[e]` is
    /// not [`DEAD`], reading its value at physical index `phys(e)`.
    pub(crate) fn entries(
        &mut self,
        entries: std::ops::Range<usize>,
        phys: impl Fn(usize) -> usize,
        orders: &[u32],
    ) {
        for e in entries {
            if orders[e] != DEAD {
                self.observe(phys(e), orders[e]);
            }
        }
    }

    /// The stats; `exact` when the values folded were a dictionary's live
    /// entries, so their count is the exact NDV.
    pub(crate) fn finish(self, exact: bool) -> ColumnStats {
        let rows = self.col.len() as u64;
        let nulls = self.col.null_count() as u64;
        let non_null = rows - nulls;
        let value = |p: usize| V::value(self.values.at(p));
        let (min, max, comparable) = match self.nan {
            // Row order compares each row after the first with the running
            // min/max, so a NaN poisons as soon as a second row exists.
            Some(_) if non_null >= 2 => (None, None, false),
            Some(p) => (Some(value(p)), Some(value(p)), true),
            None => (self.min.map(|(p, _)| value(p)), self.max.map(|(p, _)| value(p)), true),
        };
        let ndv = if exact { self.folded } else { clamp_ndv(self.sketch.estimate(), non_null) };
        ColumnStats {
            rows,
            nulls,
            min,
            max,
            comparable,
            ndv,
            ndv_exact: exact,
            sketch: self.sketch,
        }
    }
}

/// Clamps a sketch NDV estimate to the feasible `[1, non_null]` range
/// (0 when the column has no non-null values).
fn clamp_ndv(estimate: u64, non_null: u64) -> u64 {
    if non_null == 0 {
        0
    } else {
        estimate.clamp(1, non_null)
    }
}

/// Statistics for a whole table: the row count plus one [`ColumnStats`]
/// per column, positionally aligned with the table schema.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    rows: u64,
    columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for a table of `rows` rows from its per-column stats.
    pub(crate) fn new(rows: usize, columns: Vec<ColumnStats>) -> TableStats {
        TableStats { rows: rows as u64, columns }
    }

    /// Folds per-batch append stats into the existing stats. Column
    /// lists of different widths (schema drift mid-merge — should not
    /// happen) degrade gracefully by merging the common prefix.
    pub fn merge_append(&mut self, appended: &TableStats) {
        self.rows += appended.rows;
        for (dst, src) in self.columns.iter_mut().zip(appended.columns.iter()) {
            dst.merge_append(src);
        }
    }

    /// Exact current row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Stats for column `i`, if present.
    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }

    /// All per-column stats, positionally aligned with the schema.
    pub fn columns(&self) -> &[ColumnStats] {
        &self.columns
    }
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::encoding::Values;

    fn compute(col: &Column) -> ColumnStats {
        crate::encoding::build(col, None).1
    }

    #[test]
    fn counts_min_max_exact() {
        let col = Column::from_opt_i32s(vec![Some(5), None, Some(2), Some(9), Some(2)]);
        let s = compute(&col);
        assert_eq!(s.rows(), 5);
        assert_eq!(s.nulls(), 1);
        let (mn, mx) = s.min_max().expect("comparable");
        assert_eq!(mn, &Value::Int32(2));
        assert_eq!(mx, &Value::Int32(9));
        assert_eq!(s.ndv(), 3);
    }

    #[test]
    fn nan_poisons_min_max_but_not_counts() {
        let col = Column::from_f64s(vec![1.0, f64::NAN, 3.0]);
        let s = compute(&col);
        assert_eq!(s.rows(), 3);
        assert!(s.min_max().is_none());
    }

    #[test]
    fn merge_matches_full_recompute_for_ints() {
        let a = Column::from_i64s(vec![4, 7, 7, 1]);
        let b = Column::from_i64s(vec![0, 9, 4]);
        let mut merged = compute(&a);
        merged.merge_append(&compute(&b));
        let mut all = Column::from_i64s(vec![4, 7, 7, 1]);
        all.extend(&Column::from_i64s(vec![0, 9, 4])).unwrap();
        let full = compute(&all);
        assert_eq!(merged.rows(), full.rows());
        assert_eq!(merged.min_max(), full.min_max());
    }

    #[test]
    fn dict_column_ndv_is_exact() {
        let vals: Vec<&str> = ["a", "b", "a", "c", "a", "b"].into();
        let col = Column::from_strings(vals).encode(crate::column::Encoding::Dict);
        let s = compute(&col);
        assert_eq!(s.ndv(), 3);
        assert!(s.ndv_exact());
    }

    #[test]
    fn sketch_estimate_tracks_distinct_count() {
        let mut sk = NdvSketch::new();
        for i in 0..10_000i64 {
            sk.insert_hash(<[i64] as Values>::sketch_hash(i));
        }
        let est = sk.estimate();
        assert!(est > 8_000 && est < 12_000, "estimate {est} too far from 10000");
    }

    #[test]
    fn min_max_keeps_earlier_value_on_ties() {
        // -0.0 and +0.0 compare Equal under sql_cmp: the first one seen
        // must win, exactly as the serial MIN/MAX aggregate behaves.
        let col = Column::from_f64s(vec![-0.0, 0.0]);
        let s = compute(&col);
        let (mn, mx) = s.min_max().expect("comparable");
        assert_eq!(mn.as_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(mx.as_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
    }
}
