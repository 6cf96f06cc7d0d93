//! The fold the block-at-a-time aggregation replaced: one `AggState` per
//! group and aggregate, updated a row at a time through the column's
//! scalar accessors, MIN/MAX through `Value`s, DISTINCT through per-group
//! sets of seen values, groups found through a std `HashMap` on
//! [`rowkey`] bytes. Kept as the test oracle `hash_aggregate` must equal
//! bit for bit: same groups in the same order, same float bits, same
//! errors.

use super::{AggCall, AggFunc};
use crate::batch::Batch;
use crate::column::{Column, ColumnBuilder};
use crate::error::{DbError, DbResult};
use crate::exec::{rowkey, Parallelism};
use crate::schema::{Field, Schema};
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-group accumulator for one aggregate call.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt { sum: i128, seen: bool },
    SumFloat { sum: f64, seen: bool },
    Avg { sum: f64, count: i64 },
    MinMax { best: Option<Value>, is_min: bool },
}

impl AggState {
    fn new(call: &AggCall, arg_type: Option<DataType>) -> AggState {
        match call.func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => match arg_type {
                Some(t) if t.is_integer() || t == DataType::Boolean => {
                    AggState::SumInt { sum: 0, seen: false }
                }
                _ => AggState::SumFloat { sum: 0.0, seen: false },
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::MinMax { best: None, is_min: true },
            AggFunc::Max => AggState::MinMax { best: None, is_min: false },
        }
    }

    /// Folds row `row` of `arg` (if any) into the state.
    fn update(&mut self, arg: Option<&Column>, row: usize) -> DbResult<()> {
        let arg = |func| arg.ok_or_else(|| DbError::internal(format!("{func} without argument")));
        match self {
            AggState::Count(n) => {
                if arg("COUNT").map_or(true, |c| !c.is_null(row)) {
                    *n += 1;
                }
            }
            AggState::SumInt { sum, seen } => {
                if let Some(v) = arg("SUM")?.i64_at(row) {
                    *sum += v as i128;
                    *seen = true;
                }
            }
            AggState::SumFloat { sum, seen } => {
                if let Some(v) = arg("SUM")?.f64_at(row) {
                    *sum += v;
                    *seen = true;
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(v) = arg("AVG")?.f64_at(row) {
                    *sum += v;
                    *count += 1;
                }
            }
            AggState::MinMax { best, is_min } => {
                fold_min_max(best, *is_min, arg("MIN/MAX")?.value(row))?;
            }
        }
        Ok(())
    }

    /// Folds another partial state (from a later morsel) into this one.
    fn merge(&mut self, other: AggState) -> DbResult<()> {
        match (self, other) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (AggState::SumInt { sum, seen }, AggState::SumInt { sum: s2, seen: sn2 }) => {
                *sum += s2;
                *seen |= sn2;
            }
            (AggState::SumFloat { sum, seen }, AggState::SumFloat { sum: s2, seen: sn2 }) => {
                *sum += s2;
                *seen |= sn2;
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AggState::MinMax { best, is_min }, AggState::MinMax { best: b2, .. }) => {
                fold_min_max(best, *is_min, b2.unwrap_or(Value::Null))?;
            }
            _ => return Err(DbError::internal("aggregate state kind mismatch in merge")),
        }
        Ok(())
    }

    fn finish(&self) -> DbResult<Value> {
        Ok(match *self {
            AggState::Count(n) => Value::Int64(n),
            AggState::SumInt { sum, seen } => match seen {
                false => Value::Null,
                true => Value::Int64(
                    i64::try_from(sum)
                        .map_err(|_| DbError::Arithmetic("SUM overflows BIGINT".into()))?,
                ),
            },
            AggState::SumFloat { sum, seen } => match seen {
                false => Value::Null,
                true => Value::Float64(sum),
            },
            AggState::Avg { sum, count } => match count {
                0 => Value::Null,
                _ => Value::Float64(sum / count as f64),
            },
            AggState::MinMax { ref best, .. } => best.clone().unwrap_or(Value::Null),
        })
    }
}

/// Folds `v` into a running MIN (`is_min`) or MAX in [`Value::sql_order`];
/// NULLs are skipped and the first of equal values stays.
fn fold_min_max(best: &mut Option<Value>, is_min: bool, v: Value) -> DbResult<()> {
    if v.is_null() {
        return Ok(());
    }
    let replace = match best {
        None => true,
        Some(cur) => match v.sql_order(cur) {
            Some(Ordering::Less) => is_min,
            Some(Ordering::Greater) => !is_min,
            Some(Ordering::Equal) => false,
            None => return Err(DbError::Type("MIN/MAX over incomparable values".into())),
        },
    };
    if replace {
        *best = Some(v);
    }
    Ok(())
}

/// A group: its first row, its states, and its DISTINCT aggregates' seen
/// values.
type Group = (u32, Vec<AggState>, Vec<HashSet<Vec<u8>>>);

/// `hash_aggregate`'s result, computed row at a time: grouped input in
/// one serial pass, ungrouped input in partials over `par`'s morsels
/// (when its parallel run would engage) merged in morsel order.
pub(crate) fn aggregate(
    input: &Batch,
    group_keys: &[usize],
    aggs: &[AggCall],
    par: Parallelism,
) -> DbResult<Batch> {
    let args: Vec<Option<&Column>> =
        aggs.iter().map(|a| a.arg.map(|i| input.column(i).as_ref())).collect();
    let types: Vec<Option<DataType>> = args.iter().map(|c| c.map(Column::data_type)).collect();
    let new_group = |row: usize| -> Group {
        let states = aggs.iter().zip(&types).map(|(a, t)| AggState::new(a, *t)).collect();
        (row as u32, states, vec![HashSet::new(); aggs.len()])
    };
    let fold_row = |group: &mut Group, row: usize| -> DbResult<()> {
        for (i, (a, &arg)) in aggs.iter().zip(&args).enumerate() {
            if a.distinct {
                let c = arg.ok_or_else(|| DbError::internal("DISTINCT without argument"))?;
                let mut key = Vec::new();
                rowkey::encode_value(c, row, &mut key);
                if c.is_null(row) || !group.2[i].insert(key) {
                    continue;
                }
            }
            group.1[i].update(arg, row)?;
        }
        Ok(())
    };
    let groups: Vec<Group> = if group_keys.is_empty() {
        let parallel = par.enabled(input.rows()) && !aggs.iter().any(|a| a.distinct);
        let partials = par.run_morsels(input.rows(), parallel, |m| {
            let mut group = new_group(0);
            for row in m.start..m.start + m.len {
                fold_row(&mut group, row)?;
            }
            Ok(group.1)
        })?;
        let mut partials = partials.into_iter();
        let mut states = partials.next().unwrap_or_default();
        for partial in partials {
            for (dst, src) in states.iter_mut().zip(partial) {
                dst.merge(src)?;
            }
        }
        vec![(0, states, Vec::new())]
    } else {
        let keys: Vec<&Column> = group_keys.iter().map(|&i| input.column(i).as_ref()).collect();
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut key = Vec::new();
        for row in 0..input.rows() {
            rowkey::encode_key(&keys, row, &mut key);
            let g = *index.entry(key.clone()).or_insert_with(|| {
                groups.push(new_group(row));
                groups.len() - 1
            });
            fold_row(&mut groups[g], row)?;
        }
        groups
    };
    let first_rows: Vec<u32> = groups.iter().map(|g| g.0).collect();
    let mut fields = Vec::new();
    let mut columns: Vec<Arc<Column>> = Vec::new();
    for &k in group_keys {
        fields.push(input.schema().field(k).clone());
        columns.push(Arc::new(input.column(k).take(&first_rows)));
    }
    for (i, (a, t)) in aggs.iter().zip(&types).enumerate() {
        let mut b = ColumnBuilder::new(a.func.result_type(*t)?);
        for g in &groups {
            b.push_value(&g.1[i].finish()?)?;
        }
        fields.push(Field::new(format!("agg{i}"), b.data_type()));
        columns.push(Arc::new(b.finish()));
    }
    Batch::new(Arc::new(Schema::new_unchecked(fields)), columns)
}

/// `hash_aggregate` against this oracle over random batches.
#[cfg(test)]
mod equivalence {
    use super::super::{hash_aggregate, AggCall, AggFunc};
    use super::aggregate;
    use crate::batch::Batch;
    use crate::bitmap::Bitmap;
    use crate::column::{Column, ColumnData, Encoding};
    use crate::error::DbResult;
    use crate::exec::Parallelism;
    use crate::strings::{BlobColumn, StringColumn};
    use crate::types::{DataType, Value};
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

    /// Value `i` of a float pool: the first few are NaN (two payloads),
    /// ±0.0 and ±inf; the rest are not dyadic, so the order of additions
    /// shows in the sums' bits.
    fn float(i: usize) -> f64 {
        match i {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::from_bits(0x7FF8_0000_0000_0001),
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            _ => (i as f64 - 40.0) * 0.1,
        }
    }

    /// Value `i` of a BIGINT pool; `extreme` puts the extremes first, so
    /// that sums overflow.
    fn int(i: usize, extreme: bool) -> i64 {
        match i {
            0 if extreme => i64::MAX,
            1 if extreme => i64::MIN,
            _ => (i as i64 - 7) * 7919,
        }
    }

    /// A column of `t` whose row `r` holds pool value `picks[r]`.
    fn column(t: DataType, picks: &[usize], extreme: bool, validity: Option<Bitmap>) -> Column {
        let text = |i: usize| format!("{}{i}", "v".repeat(i % 5));
        let data = match t {
            DataType::Boolean => ColumnData::Boolean(picks.iter().map(|&i| i % 2 == 1).collect()),
            DataType::Int8 => {
                ColumnData::Int8(picks.iter().map(|&i| (i * 37) as u8 as i8).collect())
            }
            DataType::Int16 => ColumnData::Int16(picks.iter().map(|&i| i as i16 - 9).collect()),
            DataType::Int32 => {
                ColumnData::Int32(picks.iter().map(|&i| (i as i32 - 20) * 3).collect())
            }
            DataType::Int64 => ColumnData::Int64(picks.iter().map(|&i| int(i, extreme)).collect()),
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

    /// A random column of `n` rows: its type, pool size, runs, NULL
    /// density (none, about half, all) and encoding are all drawn.
    fn random_column(rng: &mut TestRng, n: usize, max_ndv: u64) -> Column {
        let t = TYPES[rng.below(9) as usize];
        let ndv = 1 + rng.below(max_ndv) as usize;
        let mut picks = Vec::with_capacity(n);
        while picks.len() < n {
            let run = if rng.below(2) == 0 { 1 } else { 1 + rng.below(20) as usize };
            let v = rng.below(ndv as u64) as usize;
            picks.extend(std::iter::repeat_n(v, run.min(n - picks.len())));
        }
        let validity = match rng.below(3) {
            0 => None,
            1 => Some(Bitmap::from_bools(&(0..n).map(|_| rng.below(2) == 0).collect::<Vec<_>>())),
            _ => Some(Bitmap::filled(n, false)),
        };
        let col = column(t, &picks, rng.below(4) == 0, validity);
        col.encode([Encoding::Plain, Encoding::Dict, Encoding::Rle][rng.below(3) as usize])
    }

    /// A random valid call over `batch`: SUM over numbers, AVG over numbers
    /// and booleans, COUNT, MIN and MAX over anything; DISTINCT or not.
    fn random_call(rng: &mut TestRng, batch: &Batch) -> AggCall {
        let arg = rng.below(batch.width() as u64) as usize;
        let t = batch.column(arg).data_type();
        let mut funcs = vec![AggFunc::CountStar, AggFunc::Count, AggFunc::Min, AggFunc::Max];
        if t.is_integer() || t.is_float() {
            funcs.push(AggFunc::Sum);
        }
        if t.is_integer() || t.is_float() || t == DataType::Boolean {
            funcs.push(AggFunc::Avg);
        }
        let func = funcs[rng.below(funcs.len() as u64) as usize];
        match func {
            AggFunc::CountStar => AggCall { func, arg: None, distinct: false },
            _ => AggCall { func, arg: Some(arg), distinct: rng.below(4) == 0 },
        }
    }

    /// A cell as its value, floats as their bits. A sum's NaN is any NaN:
    /// which operand's payload an addition keeps is unspecified, and the
    /// compiler may swap the operands of `+`.
    fn cell(v: Value, sum: bool) -> String {
        match v {
            Value::Float64(x) if sum && x.is_nan() => "f64:NaN".into(),
            Value::Float32(x) => format!("f32:{:08x}", x.to_bits()),
            Value::Float64(x) => format!("f64:{:016x}", x.to_bits()),
            v => format!("{v:?}"),
        }
    }

    /// A result as comparable text: the error, or the fields and cells.
    fn shown(r: DbResult<Batch>, keys: usize, calls: &[AggCall]) -> Result<Vec<String>, String> {
        let b = r.map_err(|e| e.to_string())?;
        let fields = b.schema().fields().iter().map(|f| format!("{}:{}", f.name, f.dtype));
        let sum =
            |c: usize| c >= keys && matches!(calls[c - keys].func, AggFunc::Sum | AggFunc::Avg);
        let row = |i| b.row(i).into_iter().enumerate().map(|(c, v)| cell(v, sum(c)));
        let rows = (0..b.rows()).map(|i| row(i).collect::<Vec<_>>().join("|"));
        Ok(fields.chain(rows).collect())
    }

    fn policies() -> [Parallelism; 2] {
        [
            Parallelism::serial(),
            Parallelism { threads: 4, threshold: 1, morsel_rows: 7, deadline: None },
        ]
    }

    fn check(batch: &Batch, keys: &[usize], calls: &[AggCall]) -> Result<(), String> {
        for par in policies() {
            let got = hash_aggregate(batch, keys, calls, par).map(|(out, _)| out);
            let (got, want) = (
                shown(got, keys.len(), calls),
                shown(aggregate(batch, keys, calls, par), keys.len(), calls),
            );
            if got != want {
                return Err(format!(
                    "{par:?} keys {keys:?} calls {calls:?}\n  got  {got:?}\n  want {want:?}"
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]
        #[test]
        fn hash_aggregate_equals_row_fold(
            len in 0usize..9,
            width in 1usize..5,
            nkeys in 0usize..3,
            ncalls in 0usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::from_seed(seed);
            // Up to and across a block (1 024 rows) and many morsels of 7.
            let n = [0, 1, 2, 7, 31, 200, 1100, 2600]
                .get(len)
                .copied()
                .unwrap_or_else(|| rng.below(3000) as usize);
            let cols: Vec<(String, Column)> = (0..width.max(nkeys))
                .map(|i| (format!("c{i}"), random_column(&mut rng, n, 40)))
                .collect();
            let batch = Batch::from_columns(
                cols.iter().map(|(name, c)| (name.as_str(), c.clone())).collect(),
            )
            .unwrap();
            let keys: Vec<usize> = (0..nkeys).collect();
            let calls: Vec<AggCall> =
                (0..ncalls.max(1)).map(|_| random_call(&mut rng, &batch)).collect();
            if let Err(e) = check(&batch, &keys, &calls) {
                prop_assert!(false, "n={n}: {e}");
            }
        }
    }

    #[test]
    fn sum_overflow_errors_alike() {
        let big = Column::from_i64s(vec![i64::MAX, 1, i64::MAX, -5, 3]);
        for col in [big.clone(), big.encode(Encoding::Dict), big.encode(Encoding::Rle)] {
            let batch = Batch::from_columns(vec![
                ("k", Column::from_i32s(vec![0, 1, 0, 1, 1])),
                ("x", col),
            ])
            .unwrap();
            let sum = [AggCall { func: AggFunc::Sum, arg: Some(1), distinct: false }];
            for keys in [&[][..], &[0]] {
                check(&batch, keys, &sum).unwrap();
                let err = hash_aggregate(&batch, keys, &sum, Parallelism::serial());
                assert!(err.is_err(), "keys {keys:?}: the sum overflows");
            }
        }
    }

    #[test]
    fn grouped_float_keys_merge_signed_zeros_and_nans() {
        let x = Column::from_f64s(vec![
            0.0,
            -0.0,
            f64::NAN,
            1.0,
            f64::from_bits(0x7FF8_0000_0000_0001),
        ]);
        for col in [x.clone(), x.encode(Encoding::Dict), x.encode(Encoding::Rle)] {
            let batch = Batch::from_columns(vec![("x", col)]).unwrap();
            let count = [AggCall { func: AggFunc::CountStar, arg: None, distinct: false }];
            check(&batch, &[0], &count).unwrap();
            let (out, _) = hash_aggregate(&batch, &[0], &count, Parallelism::serial()).unwrap();
            assert_eq!(out.rows(), 3, "0.0 = -0.0, and NaNs are one group");
        }
    }
}
