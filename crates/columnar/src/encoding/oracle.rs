//! The encoder the typed build replaced: runs counted in one sweep, the
//! dictionary built through a std `HashMap` in another. Kept as the test
//! oracle the build must equal, with its thresholds passed in rather than
//! read from the environment.

use super::{DICT_MAX_NDV, MIN_ENCODE_ROWS, RLE_FACTOR};
use crate::column::{take_data, Column, ColumnData, Encoding, Repr};
use crate::types::DataType;
use std::collections::HashMap;
use std::hash::Hash;

/// Unconditionally re-encodes `col` into `enc` (decoding first when the
/// column is already encoded).
pub(crate) fn encode(col: &Column, enc: Encoding) -> Column {
    let plain = col.decoded();
    match enc {
        Encoding::Plain => plain.into_owned(),
        Encoding::Dict => match dict_build(&plain, plain.len()) {
            Some((values, codes)) => {
                Column::with_repr(values, plain.validity().cloned(), Repr::Dict { codes })
            }
            None => plain.into_owned(),
        },
        Encoding::Rle => {
            let (values, run_ends) = rle_build(&plain);
            Column::with_repr(values, plain.validity().cloned(), Repr::Rle { run_ends })
        }
    }
}

/// Encodes per the heuristic in the module docs; clones when nothing pays.
pub(crate) fn encode_auto(col: &Column, force: bool) -> Column {
    let n = col.len();
    let floor = if force { 2 } else { MIN_ENCODE_ROWS };
    if !col.is_plain() || n < floor || col.data_type() == DataType::Blob {
        return col.clone();
    }
    if count_runs(col) * RLE_FACTOR <= n {
        return encode(col, Encoding::Rle);
    }
    let cap = if force { n.min(DICT_MAX_NDV) } else { (n / 4).clamp(16, DICT_MAX_NDV) };
    if let Some((values, codes)) = dict_build(col, cap) {
        return Column::with_repr(values, col.validity().cloned(), Repr::Dict { codes });
    }
    col.clone()
}

/// Counts runs of equal raw values (floats compared by bit pattern so the
/// later decode is exact). An empty column has zero runs.
fn count_runs(col: &Column) -> usize {
    match col.data() {
        ColumnData::Boolean(v) => runs_by(v, |&x| x),
        ColumnData::Int8(v) => runs_by(v, |&x| x),
        ColumnData::Int16(v) => runs_by(v, |&x| x),
        ColumnData::Int32(v) => runs_by(v, |&x| x),
        ColumnData::Int64(v) => runs_by(v, |&x| x),
        ColumnData::Float32(v) => runs_by(v, |x| x.to_bits()),
        ColumnData::Float64(v) => runs_by(v, |x| x.to_bits()),
        ColumnData::Varchar(s) => {
            let mut runs = 0;
            for i in 0..s.len() {
                if i == 0 || s.get(i) != s.get(i - 1) {
                    runs += 1;
                }
            }
            runs
        }
        ColumnData::Blob(b) => {
            let mut runs = 0;
            for i in 0..b.len() {
                if i == 0 || b.get(i) != b.get(i - 1) {
                    runs += 1;
                }
            }
            runs
        }
    }
}

fn runs_by<T, K: PartialEq>(v: &[T], key: impl Fn(&T) -> K) -> usize {
    let mut runs = 0;
    let mut prev: Option<K> = None;
    for x in v {
        let k = key(x);
        if prev.as_ref() != Some(&k) {
            runs += 1;
        }
        prev = Some(k);
    }
    runs
}

/// Builds `(run values, run ends)` for a plain column.
fn rle_build(col: &Column) -> (ColumnData, Vec<u32>) {
    let n = col.len();
    let mut firsts: Vec<u32> = Vec::new();
    let mut run_ends: Vec<u32> = Vec::new();
    match col.data() {
        ColumnData::Boolean(v) => rle_scan(v, |&x| x, &mut firsts, &mut run_ends),
        ColumnData::Int8(v) => rle_scan(v, |&x| x, &mut firsts, &mut run_ends),
        ColumnData::Int16(v) => rle_scan(v, |&x| x, &mut firsts, &mut run_ends),
        ColumnData::Int32(v) => rle_scan(v, |&x| x, &mut firsts, &mut run_ends),
        ColumnData::Int64(v) => rle_scan(v, |&x| x, &mut firsts, &mut run_ends),
        ColumnData::Float32(v) => rle_scan(v, |x| x.to_bits(), &mut firsts, &mut run_ends),
        ColumnData::Float64(v) => rle_scan(v, |x| x.to_bits(), &mut firsts, &mut run_ends),
        ColumnData::Varchar(s) => {
            for i in 0..n {
                if i == 0 || s.get(i) != s.get(i - 1) {
                    firsts.push(i as u32);
                    run_ends.push(i as u32);
                }
            }
            close_runs(&mut run_ends, n);
        }
        ColumnData::Blob(b) => {
            for i in 0..n {
                if i == 0 || b.get(i) != b.get(i - 1) {
                    firsts.push(i as u32);
                    run_ends.push(i as u32);
                }
            }
            close_runs(&mut run_ends, n);
        }
    }
    (take_data(col.data(), &firsts), run_ends)
}

fn rle_scan<T, K: PartialEq>(
    v: &[T],
    key: impl Fn(&T) -> K,
    firsts: &mut Vec<u32>,
    run_ends: &mut Vec<u32>,
) {
    let mut prev: Option<K> = None;
    for (i, x) in v.iter().enumerate() {
        let k = key(x);
        if prev.as_ref() != Some(&k) {
            firsts.push(i as u32);
            run_ends.push(i as u32);
        }
        prev = Some(k);
    }
    close_runs(run_ends, v.len());
}

/// Shifts run starts into exclusive run ends: each recorded start becomes
/// the end of the *previous* run, and the final run ends at `n`.
fn close_runs(run_ends: &mut Vec<u32>, n: usize) {
    if run_ends.is_empty() {
        return;
    }
    run_ends.remove(0);
    run_ends.push(n as u32);
}

/// Builds `(dictionary, codes)` with first-appearance dictionary order,
/// bailing out with `None` the moment the dictionary would exceed `cap`.
fn dict_build(col: &Column, cap: usize) -> Option<(ColumnData, Vec<u32>)> {
    let cap = cap.max(1);
    match col.data() {
        ColumnData::Boolean(v) => {
            dict_prim(v, cap, |&x| x).map(|(d, c)| (ColumnData::Boolean(d), c))
        }
        ColumnData::Int8(v) => dict_prim(v, cap, |&x| x).map(|(d, c)| (ColumnData::Int8(d), c)),
        ColumnData::Int16(v) => dict_prim(v, cap, |&x| x).map(|(d, c)| (ColumnData::Int16(d), c)),
        ColumnData::Int32(v) => dict_prim(v, cap, |&x| x).map(|(d, c)| (ColumnData::Int32(d), c)),
        ColumnData::Int64(v) => dict_prim(v, cap, |&x| x).map(|(d, c)| (ColumnData::Int64(d), c)),
        ColumnData::Float32(v) => {
            dict_prim(v, cap, |x| x.to_bits()).map(|(d, c)| (ColumnData::Float32(d), c))
        }
        ColumnData::Float64(v) => {
            dict_prim(v, cap, |x| x.to_bits()).map(|(d, c)| (ColumnData::Float64(d), c))
        }
        ColumnData::Varchar(s) => {
            let mut map: HashMap<&str, u32> = HashMap::new();
            let mut firsts: Vec<u32> = Vec::new();
            let mut codes: Vec<u32> = Vec::with_capacity(s.len());
            for i in 0..s.len() {
                let next = firsts.len() as u32;
                let code = *map.entry(s.get(i)).or_insert(next);
                if code == next {
                    if firsts.len() >= cap {
                        return None;
                    }
                    firsts.push(i as u32);
                }
                codes.push(code);
            }
            Some((take_data(col.data(), &firsts), codes))
        }
        ColumnData::Blob(b) => {
            let mut map: HashMap<&[u8], u32> = HashMap::new();
            let mut firsts: Vec<u32> = Vec::new();
            let mut codes: Vec<u32> = Vec::with_capacity(b.len());
            for i in 0..b.len() {
                let next = firsts.len() as u32;
                let code = *map.entry(b.get(i)).or_insert(next);
                if code == next {
                    if firsts.len() >= cap {
                        return None;
                    }
                    firsts.push(i as u32);
                }
                codes.push(code);
            }
            Some((take_data(col.data(), &firsts), codes))
        }
    }
}

fn dict_prim<T: Copy, K: Eq + Hash>(
    v: &[T],
    cap: usize,
    key: impl Fn(&T) -> K,
) -> Option<(Vec<T>, Vec<u32>)> {
    let mut map: HashMap<K, u32> = HashMap::new();
    let mut values: Vec<T> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(v.len());
    for x in v {
        let next = values.len() as u32;
        let code = *map.entry(key(x)).or_insert(next);
        if code == next {
            if values.len() >= cap {
                return None;
            }
            values.push(*x);
        }
        codes.push(code);
    }
    Some((values, codes))
}

/// The typed build against this oracle: same encoding, dictionary, codes,
/// run ends and validity, and the same statistics field for field.
mod equivalence {
    use super::super::{build, encode as encode_now, Thresholds};
    use super::{encode, encode_auto};
    use crate::bitmap::Bitmap;
    use crate::column::{Column, ColumnData, Encoding};
    use crate::stats::oracle::{compute, same_sketch};
    use crate::stats::ColumnStats;
    use crate::strings::{BlobColumn, StringColumn};
    use crate::types::DataType;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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

    /// Distinct value `i` of a type's pool; the first few are the edge
    /// cases (NaN, ±0.0, ±inf, the empty string, extreme integers).
    fn float(i: usize) -> f64 {
        match i {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            _ => (i as f64 - 40.0) * 0.5,
        }
    }

    fn int(i: usize) -> i64 {
        match i {
            0 => 0,
            1 => i64::MIN,
            2 => i64::MAX,
            _ => (i as i64 - 7) * 7919,
        }
    }

    fn text(i: usize) -> String {
        if i == 0 {
            String::new()
        } else {
            format!("{}{i}", "v".repeat(i % 13))
        }
    }

    /// The largest pool a type has.
    fn pool_limit(t: DataType) -> usize {
        match t {
            DataType::Boolean => 2,
            DataType::Int8 => 256,
            DataType::Int16 => 65_536,
            _ => usize::MAX,
        }
    }

    /// A column of `t` whose row `r` holds pool value `picks[r]`.
    fn column(t: DataType, picks: &[usize], validity: Option<Bitmap>) -> Column {
        let data = match t {
            DataType::Boolean => ColumnData::Boolean(picks.iter().map(|&i| i == 1).collect()),
            // Multiplying by an odd number permutes the residues, so the
            // narrow pools stay distinct and are not in ascending order.
            DataType::Int8 => {
                ColumnData::Int8(picks.iter().map(|&i| (i * 37 + 3) as u8 as i8).collect())
            }
            DataType::Int16 => {
                ColumnData::Int16(picks.iter().map(|&i| (i * 40_503 + 9) as u16 as i16).collect())
            }
            // A narrow span (a direct-index dictionary) for INTEGER, the
            // full range (a hashed one) for BIGINT.
            DataType::Int32 => {
                ColumnData::Int32(picks.iter().map(|&i| (i as i32 - 40) * 3).collect())
            }
            DataType::Int64 => ColumnData::Int64(picks.iter().map(|&i| int(i)).collect()),
            DataType::Float32 => {
                ColumnData::Float32(picks.iter().map(|&i| float(i) as f32).collect())
            }
            DataType::Float64 => ColumnData::Float64(picks.iter().map(|&i| float(i)).collect()),
            DataType::Varchar => {
                let strs: Vec<String> = picks.iter().map(|&i| text(i)).collect();
                ColumnData::Varchar(StringColumn::from_strs(strs.iter().map(String::as_str)))
            }
            DataType::Blob => {
                let b: Vec<Vec<u8>> = picks.iter().map(|&i| text(i).into_bytes()).collect();
                ColumnData::Blob(BlobColumn::from_slices(b.iter().map(Vec::as_slice)))
            }
        };
        Column::new(data, validity).expect("validity matches")
    }

    /// Row picks: `shape` 0 uniform, 1 random runs, 2 cyclic (exactly
    /// `ndv` distinct), 3 `runs` equal runs of distinct neighbours.
    fn picks(rng: &mut TestRng, n: usize, ndv: usize, shape: u64, runs: usize) -> Vec<usize> {
        let ndv = ndv.max(1);
        match shape {
            0 => (0..n).map(|_| rng.below(ndv as u64) as usize).collect(),
            1 => {
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let v = rng.below(ndv as u64) as usize;
                    let len = 1 + rng.below(16) as usize;
                    out.extend(std::iter::repeat_n(v, len.min(n - out.len())));
                }
                out
            }
            2 => (0..n).map(|r| r % ndv).collect(),
            _ => {
                let runs = runs.clamp(1, n.max(1));
                (0..n).map(|r| (r * runs / n.max(1)) % ndv.max(2)).collect()
            }
        }
    }

    /// Validity: `mode` 0 none, 1 random NULLs with default placeholders,
    /// 2 random NULLs keeping the row's value as placeholder, 3 NULL
    /// blocks that cut across runs, 4 all NULL.
    fn nulls(rng: &mut TestRng, picks: &mut [usize], mode: u64) -> Option<Bitmap> {
        let n = picks.len();
        let valid: Vec<bool> = match mode {
            0 => return None,
            1 | 2 => (0..n).map(|_| rng.below(5) != 0).collect(),
            3 => {
                let (period, len) = (3 + rng.below(40) as usize, 1 + rng.below(12) as usize);
                (0..n).map(|r| r % period >= len.min(period - 1)).collect()
            }
            _ => vec![false; n],
        };
        if mode == 1 {
            for (p, &v) in picks.iter_mut().zip(&valid) {
                if !v {
                    *p = 0;
                }
            }
        }
        Some(Bitmap::from_bools(&valid))
    }

    /// Bit equality of two payloads (`==` would call NaN unequal and
    /// `-0.0` equal to `0.0`).
    fn same_data(a: &ColumnData, b: &ColumnData) -> bool {
        match (a, b) {
            (ColumnData::Float32(x), ColumnData::Float32(y)) => {
                x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
            }
            (ColumnData::Float64(x), ColumnData::Float64(y)) => {
                x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()))
            }
            _ => a == b,
        }
    }

    fn same_column(a: &Column, b: &Column) -> Result<(), String> {
        let same = a.encoding() == b.encoding()
            && same_data(a.data(), b.data())
            && a.dict_parts().map(|p| p.0) == b.dict_parts().map(|p| p.0)
            && a.rle_parts().map(|p| p.0) == b.rle_parts().map(|p| p.0)
            && a.validity() == b.validity();
        if same {
            Ok(())
        } else {
            Err(format!("columns differ:\n  build  {a:?}\n  oracle {b:?}"))
        }
    }

    /// Field-for-field equality; min/max compare by `Debug`, which tells
    /// `-0.0` from `0.0` and prints every NaN alike.
    fn same_stats(a: &ColumnStats, b: &ColumnStats) -> Result<(), String> {
        if same_sketch(a, b) && format!("{a:?}") == format!("{b:?}") {
            Ok(())
        } else {
            Err(format!("stats differ:\n  build  {a:?}\n  oracle {b:?}"))
        }
    }

    /// Every path a table takes through the build, against the oracle.
    fn check(col: &Column, rng: &mut TestRng) -> Result<(), String> {
        for (t, forced) in [(Thresholds::DEFAULT, false), (Thresholds::FORCED, true)] {
            let (built, stats) = build(col, Some(t));
            let built = built.unwrap_or_else(|| col.clone());
            let expected = encode_auto(col, forced);
            same_column(&built, &expected)?;
            same_stats(&stats, &compute(&expected))?;
            // The recompute of an encoded column, and of one after a
            // DELETE: the dictionary keeps unused and reordered entries.
            same_stats(&build(&built, None).1, &compute(&expected))?;
            let keep: Vec<u32> =
                (0..col.len() as u32).filter(|_| rng.below(3) != 0).rev().collect();
            let taken = built.take(&keep);
            same_stats(&build(&taken, None).1, &compute(&taken))?;
        }
        for enc in [Encoding::Plain, Encoding::Dict, Encoding::Rle] {
            same_column(&encode_now(col, enc), &encode(col, enc))?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn build_equals_oracle(
            ty in 0usize..9,
            len in 0usize..16,
            ndv_pick in 0usize..10,
            shape in 0u64..4,
            null_mode in 0u64..5,
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::from_seed(seed);
            let t = TYPES[ty];
            let n = [0, 1, 2, 3, 15, 16, 17, 100, 1023, 1024, 1025, 2047, 4100]
                .get(len)
                .copied()
                .unwrap_or_else(|| rng.below(5000) as usize);
            let quarter = n / 4;
            let ndv = [1, 2, 15, 16, 17, quarter.saturating_sub(1), quarter, quarter + 1, n]
                .get(ndv_pick)
                .copied()
                .unwrap_or_else(|| 1 + rng.below(n as u64 + 1) as usize)
                .clamp(1, pool_limit(t));
            let eighth = n / 8;
            let runs = [eighth.saturating_sub(1), eighth, eighth + 1][rng.below(3) as usize];
            let mut p = picks(&mut rng, n, ndv, shape, runs);
            let validity = nulls(&mut rng, &mut p, null_mode);
            let col = column(t, &p, validity);
            if let Err(e) = check(&col, &mut rng) {
                prop_assert!(false, "{t} n={n} ndv={ndv} shape={shape} nulls={null_mode}: {e}");
            }
        }
    }

    #[test]
    fn dictionary_cap_boundary_equals_oracle() {
        let mut rng = TestRng::from_seed(7);
        let n = 4 * 65_537 + 4;
        // SMALLINT's 65 536 values take the direct-index dictionary.
        for t in [DataType::Int16, DataType::Int32, DataType::Varchar] {
            for ndv in [65_535, 65_536, 65_537] {
                let ndv = ndv.min(pool_limit(t));
                let p: Vec<usize> = (0..n).map(|r| r % ndv).collect();
                check(&column(t, &p, None), &mut rng).unwrap();
            }
        }
    }
}
