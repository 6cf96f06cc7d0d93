//! Hash aggregation: `GROUP BY` plus the standard aggregate functions.

use crate::batch::Batch;
use crate::column::{Column, ColumnBuilder};
use crate::error::{DbError, DbResult};
use crate::exec::{rowkey, Parallelism};
use crate::metrics;
use crate::parallel::Morsel;
use crate::schema::{Field, Schema};
use crate::types::{DataType, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows including NULLs.
    CountStar,
    /// `COUNT(x)` — counts non-NULL values.
    Count,
    /// `SUM(x)`.
    Sum,
    /// `AVG(x)`.
    Avg,
    /// `MIN(x)`.
    Min,
    /// `MAX(x)`.
    Max,
}

impl AggFunc {
    /// Resolves a SQL aggregate name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count, // CountStar selected by the binder for COUNT(*)
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }

    /// The result type for an argument of type `arg`.
    pub fn result_type(self, arg: Option<DataType>) -> DbResult<DataType> {
        Ok(match self {
            AggFunc::CountStar | AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => match arg {
                Some(t) if t.is_integer() => DataType::Int64,
                Some(t) if t.is_float() => DataType::Float64,
                Some(t) => return Err(DbError::Type(format!("SUM over {t}"))),
                None => return Err(DbError::internal("SUM without argument")),
            },
            AggFunc::Min | AggFunc::Max => {
                arg.ok_or_else(|| DbError::internal("MIN/MAX without argument"))?
            }
        })
    }
}

/// One aggregate call: the function plus the index of its pre-computed
/// argument column in the input batch (`None` only for `COUNT(*)`).
#[derive(Debug, Clone)]
pub struct AggCall {
    /// Which function.
    pub func: AggFunc,
    /// Input column holding the (already-evaluated) argument expression.
    pub arg: Option<usize>,
    /// True for `agg(DISTINCT x)`.
    pub distinct: bool,
}

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
        match self {
            AggState::Count(n) => match arg {
                None => *n += 1, // COUNT(*)
                Some(c) => {
                    if !c.is_null(row) {
                        *n += 1;
                    }
                }
            },
            AggState::SumInt { sum, seen } => {
                let c = arg.ok_or_else(|| missing_arg("SUM"))?;
                if let Some(v) = c.i64_at(row) {
                    *sum += v as i128;
                    *seen = true;
                }
            }
            AggState::SumFloat { sum, seen } => {
                let c = arg.ok_or_else(|| missing_arg("SUM"))?;
                if let Some(v) = c.f64_at(row) {
                    *sum += v;
                    *seen = true;
                }
            }
            AggState::Avg { sum, count } => {
                let c = arg.ok_or_else(|| missing_arg("AVG"))?;
                if let Some(v) = c.f64_at(row) {
                    *sum += v;
                    *count += 1;
                }
            }
            AggState::MinMax { best, is_min } => {
                let c = arg.ok_or_else(|| missing_arg("MIN/MAX"))?;
                fold_min_max(best, *is_min, c.value(row))?;
            }
        }
        Ok(())
    }

    /// Folds another partial state (from a later morsel's table) into this
    /// one. Both states come from `AggState::new` on the same call, so a
    /// kind mismatch indicates a bug.
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
            _ => return Err(DbError::internal("aggregate state kind mismatch in parallel merge")),
        }
        Ok(())
    }

    fn finish(self) -> DbResult<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int64(n),
            AggState::SumInt { sum, seen } => {
                if !seen {
                    Value::Null
                } else {
                    Value::Int64(
                        i64::try_from(sum)
                            .map_err(|_| DbError::Arithmetic("SUM overflows BIGINT".into()))?,
                    )
                }
            }
            AggState::SumFloat { sum, seen } => {
                if seen {
                    Value::Float64(sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / count as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
        })
    }
}

/// Folds `v` into a running MIN (`is_min`) or MAX; NULLs are skipped.
fn fold_min_max(best: &mut Option<Value>, is_min: bool, v: Value) -> DbResult<()> {
    if v.is_null() {
        return Ok(());
    }
    let replace = match best {
        None => true,
        Some(cur) => match v.sql_cmp(cur) {
            Some(std::cmp::Ordering::Less) => is_min,
            Some(std::cmp::Ordering::Greater) => !is_min,
            Some(std::cmp::Ordering::Equal) => false,
            None => return Err(DbError::Type("MIN/MAX over incomparable values".into())),
        },
    };
    if replace {
        *best = Some(v);
    }
    Ok(())
}

/// Error for an aggregate invoked without the argument column its function
/// requires; the planner always provides one, so this indicates a bug.
fn missing_arg(func: &str) -> DbError {
    DbError::internal(format!("{func} invoked without an argument column"))
}

/// One group's accumulators plus (for DISTINCT) the sets of seen values.
struct GroupEntry {
    first_row: u32,
    states: Vec<AggState>,
    distinct_seen: Vec<Option<HashSet<Vec<u8>>>>,
}

/// Assigns dense group ids to group-key values in first-appearance order,
/// through the cheapest lookup the key columns allow.
struct GroupIndex<'a> {
    keys: Vec<&'a Column>,
    /// Groups assigned so far; also the next fresh id.
    len: usize,
    /// Single dictionary-encoded key: group ids come straight off the
    /// codes — one array slot per distinct value, no hash probe per row.
    dict_codes: Option<&'a [u32]>,
    code_gid: Vec<Option<usize>>,
    /// Single integer key: a bare `i64` table. The NULL key's group (also
    /// on the dictionary path) sits beside it.
    use_int: bool,
    int_gid: HashMap<i64, usize>,
    null_gid: Option<usize>,
    /// Everything else: [`rowkey`] bytes, encoded into a reused buffer.
    bytes_gid: HashMap<Vec<u8>, usize>,
    keybuf: Vec<u8>,
}

impl<'a> GroupIndex<'a> {
    fn new(input: &'a Batch, group_keys: &[usize]) -> GroupIndex<'a> {
        let keys: Vec<&Column> = group_keys.iter().map(|&i| input.column(i).as_ref()).collect();
        let dict_codes = if keys.len() == 1 { keys[0].dict_parts().map(|p| p.0) } else { None };
        GroupIndex {
            // No GROUP BY: the single global group exists from the start.
            len: usize::from(keys.is_empty()),
            code_gid: if dict_codes.is_some() { vec![None; keys[0].data().len()] } else { vec![] },
            dict_codes,
            use_int: rowkey::int_fast_path(&keys),
            int_gid: HashMap::new(),
            null_gid: None,
            bytes_gid: HashMap::new(),
            keybuf: Vec::new(),
            keys,
        }
    }

    /// The group id of `row`'s key. A return equal to the group count
    /// before the call means the key is new and now owns that id.
    #[inline]
    fn gid(&mut self, row: usize) -> usize {
        let next = self.len;
        let gid = if self.keys.is_empty() {
            0
        } else if let Some(codes) = self.dict_codes {
            if self.keys[0].is_null(row) {
                *self.null_gid.get_or_insert(next)
            } else {
                *self.code_gid[codes[row] as usize].get_or_insert(next)
            }
        } else if self.use_int {
            match rowkey::int_key(self.keys[0], row) {
                Some(k) => *self.int_gid.entry(k).or_insert(next),
                None => *self.null_gid.get_or_insert(next),
            }
        } else {
            rowkey::encode_key(&self.keys, row, &mut self.keybuf);
            match self.bytes_gid.get(&self.keybuf) {
                Some(&g) => g,
                None => {
                    // Look up before cloning: only a new key allocates.
                    self.bytes_gid.insert(self.keybuf.clone(), next);
                    next
                }
            }
        };
        if gid == next {
            self.len += 1;
        }
        gid
    }
}

/// Hash-aggregates `input`, also returning whether the morsel-parallel run
/// engaged.
///
/// `group_keys` are input column indices; `aggs` reference pre-computed
/// argument columns by index. The output batch has the group key columns
/// first (named per the input schema), then one column per aggregate named
/// `agg0..aggN` — callers typically re-project with proper aliases.
///
/// With no group keys the result is a single row over the whole input
/// (standard SQL ungrouped aggregation, returning one row even for empty
/// input).
///
/// Each morsel aggregates into its own table (`aggregate_morsel`); the
/// first morsel's groups then absorb the later ones *in morsel order*, so
/// groups come out in first-appearance order however the input was cut.
/// The serial case is one morsel spanning the input, whose table is the
/// result with nothing to absorb. DISTINCT aggregates cannot merge across
/// tables (each dedup set only sees its own morsel), so they force that
/// single morsel.
pub fn hash_aggregate(
    input: &Batch,
    group_keys: &[usize],
    aggs: &[AggCall],
    par: Parallelism,
) -> DbResult<(Batch, bool)> {
    let arg_types: Vec<Option<DataType>> =
        aggs.iter().map(|a| a.arg.map(|i| input.column(i).data_type())).collect();
    let parallel = par.enabled(input.rows()) && !aggs.iter().any(|a| a.distinct);
    let mut locals = par
        .run_morsels(input.rows(), parallel, |m| {
            aggregate_morsel(input, group_keys, aggs, &arg_types, m)
        })?
        .into_iter();
    let mut groups = locals.next().unwrap_or_default();
    if locals.len() > 0 {
        // Rows are addressed by their index in the shared batch, so a
        // group's first row both re-derives its key and survives the
        // merge as the group's representative. Seeding the merge index
        // with the first morsel's groups hands them ids 0.. in order.
        let mut index = GroupIndex::new(input, group_keys);
        for entry in &groups {
            index.gid(entry.first_row as usize);
        }
        for entry in locals.flatten() {
            let g = index.gid(entry.first_row as usize);
            if g == groups.len() {
                groups.push(entry);
            } else {
                for (dst, src) in groups[g].states.iter_mut().zip(entry.states) {
                    dst.merge(src)?;
                }
            }
        }
    }
    Ok((assemble_output(input, group_keys, aggs, &arg_types, groups)?, parallel))
}

/// Aggregates one morsel of `input` into a fresh table, groups kept in
/// first-appearance order. The batch is shared, not sliced: `first_row`
/// values and dictionary codes mean the same in every morsel's table.
fn aggregate_morsel(
    input: &Batch,
    group_keys: &[usize],
    aggs: &[AggCall],
    arg_types: &[Option<DataType>],
    m: Morsel,
) -> DbResult<Vec<GroupEntry>> {
    let mut index = GroupIndex::new(input, group_keys);
    if index.dict_codes.is_some() {
        metrics::counter("exec.encoding.dict_rows").add(m.len as u64);
    }
    let new_entry = |row: usize| GroupEntry {
        first_row: row as u32,
        states: aggs.iter().zip(arg_types).map(|(a, t)| AggState::new(a, *t)).collect(),
        distinct_seen: aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
    };
    let mut groups: Vec<GroupEntry> = Vec::new();
    // Aggregates the run fold below has already answered for the morsel.
    let mut run_done = vec![false; aggs.len()];
    if group_keys.is_empty() {
        groups.push(new_entry(m.start));
        // RLE run boundaries are offsets into the whole column, so runs
        // are folded only when the morsel is the whole input.
        if m.len == input.rows() {
            run_aggregate(input, aggs, &mut groups[0].states, &mut run_done)?;
        }
    }
    let rows = if !aggs.is_empty() && run_done.iter().all(|&d| d) {
        0..0 // every aggregate folded from runs: no row needs a visit
    } else {
        m.start..m.start + m.len
    };
    for row in rows {
        // The ungrouped answer is decided here, not inside `gid`: going
        // through the index state measured ~1 ns/row on this hot path.
        let gid = if group_keys.is_empty() { 0 } else { index.gid(row) };
        if gid == groups.len() {
            groups.push(new_entry(row));
        }
        let entry = &mut groups[gid];
        for (ai, (agg, state)) in aggs.iter().zip(entry.states.iter_mut()).enumerate() {
            if run_done[ai] {
                continue;
            }
            let arg_col = agg.arg.map(|i| input.column(i).as_ref());
            if agg.distinct {
                let c = arg_col.ok_or_else(|| missing_arg("DISTINCT aggregate"))?;
                if c.is_null(row) {
                    continue;
                }
                let Some(seen) = entry.distinct_seen[ai].as_mut() else {
                    return Err(DbError::internal("DISTINCT aggregate without its dedup set"));
                };
                let mut k = Vec::new();
                rowkey::encode_value(c, row, &mut k);
                if !seen.insert(k) {
                    continue;
                }
            }
            state.update(arg_col, row)?;
        }
    }
    Ok(groups)
}

/// Ungrouped run-at-a-time aggregation over RLE argument columns: folds
/// whole runs instead of rows for the aggregates where doing so is exact —
/// `COUNT(*)`, `COUNT(x)`, integer `SUM` (i128 accumulation makes
/// `v * run_len` identical to repeated addition), and `MIN`/`MAX` (every
/// row of a run is equal). Float sums stay row-at-a-time: `v * k` and `k`
/// additions round differently, and encoded execution must be bit-identical
/// to plain. Columns with a validity bitmap also stay row-at-a-time (a run
/// may mix valid and NULL rows). Marks handled aggregates in `done` so the
/// row loop skips them.
fn run_aggregate(
    input: &Batch,
    aggs: &[AggCall],
    states: &mut [AggState],
    done: &mut [bool],
) -> DbResult<()> {
    for (ai, (agg, state)) in aggs.iter().zip(states.iter_mut()).enumerate() {
        if agg.distinct {
            continue;
        }
        if agg.func == AggFunc::CountStar {
            if let AggState::Count(n) = state {
                *n += input.rows() as i64;
                done[ai] = true;
            }
            continue;
        }
        let Some(arg) = agg.arg else { continue };
        let col = input.column(arg).as_ref();
        if col.validity().is_some() {
            continue;
        }
        let Some((run_ends, _)) = col.rle_parts() else { continue };
        let n_runs = run_ends.len() as u64;
        let handled = if matches!(state, AggState::MinMax { .. }) {
            let mut start = 0u32;
            for &end in run_ends {
                state.update(Some(col), start as usize)?;
                start = end;
            }
            true
        } else {
            match state {
                AggState::Count(n) => {
                    *n += col.len() as i64; // no validity bitmap: all rows count
                    true
                }
                AggState::SumInt { sum, seen } => {
                    // Fold into a local accumulator first: the state must not
                    // move unless every run folds (else the row loop would
                    // double-count).
                    let mut acc = 0i128;
                    let mut any = false;
                    let mut ok = true;
                    let mut start = 0u32;
                    for &end in run_ends {
                        match col.i64_at(start as usize) {
                            Some(v) => {
                                acc += v as i128 * (end - start) as i128;
                                any = true;
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                        start = end;
                    }
                    if ok {
                        *sum += acc;
                        *seen |= any;
                    }
                    ok
                }
                _ => false,
            }
        };
        if handled {
            metrics::counter("exec.encoding.rle_runs").add(n_runs);
            done[ai] = true;
        }
    }
    Ok(())
}

/// Builds the result batch: group key columns (gathered at each group's
/// first row), then one column per aggregate.
fn assemble_output(
    input: &Batch,
    group_keys: &[usize],
    aggs: &[AggCall],
    arg_types: &[Option<DataType>],
    groups: Vec<GroupEntry>,
) -> DbResult<Batch> {
    let first_rows: Vec<u32> = groups.iter().map(|g| g.first_row).collect();
    let mut fields = Vec::new();
    let mut columns: Vec<Arc<Column>> = Vec::new();
    for &k in group_keys {
        fields.push(input.schema().field(k).clone());
        columns.push(Arc::new(input.column(k).take(&first_rows)));
    }
    let mut agg_builders: Vec<ColumnBuilder> = aggs
        .iter()
        .zip(arg_types)
        .map(|(a, t)| a.func.result_type(*t).map(ColumnBuilder::new))
        .collect::<DbResult<_>>()?;
    for g in groups {
        for (b, s) in agg_builders.iter_mut().zip(g.states) {
            b.push_value(&s.finish()?)?;
        }
    }
    for (i, b) in agg_builders.into_iter().enumerate() {
        fields.push(Field::new(format!("agg{i}"), b.data_type()));
        columns.push(Arc::new(b.finish()));
    }
    Batch::new(Arc::new(Schema::new_unchecked(fields)), columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> Batch {
        Batch::from_columns(vec![
            ("region", Column::from_strings(["e", "w", "e", "w", "e"])),
            ("amount", Column::from_opt_i32s(vec![Some(10), Some(20), Some(30), None, Some(10)])),
            ("price", Column::from_f64s(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
        ])
        .unwrap()
    }

    /// The serial run: one morsel, whose table is the result.
    fn aggregate(b: &Batch, group_keys: &[usize], aggs: &[AggCall]) -> DbResult<Batch> {
        hash_aggregate(b, group_keys, aggs, Parallelism::serial()).map(|(out, _)| out)
    }

    fn call(func: AggFunc, arg: Option<usize>) -> AggCall {
        AggCall { func, arg, distinct: false }
    }

    #[test]
    fn grouped_aggregation() {
        let out = aggregate(
            &sales(),
            &[0],
            &[
                call(AggFunc::CountStar, None),
                call(AggFunc::Sum, Some(1)),
                call(AggFunc::Avg, Some(2)),
                call(AggFunc::Min, Some(1)),
                call(AggFunc::Max, Some(1)),
            ],
        )
        .unwrap();
        assert_eq!(out.rows(), 2);
        // Group order follows first appearance: e then w.
        assert_eq!(out.row(0)[0], Value::Varchar("e".into()));
        assert_eq!(out.row(0)[1], Value::Int64(3)); // count(*)
        assert_eq!(out.row(0)[2], Value::Int64(50)); // sum skips NULL
        assert_eq!(out.row(0)[3], Value::Float64(3.0)); // avg price
        assert_eq!(out.row(0)[4], Value::Int32(10));
        assert_eq!(out.row(0)[5], Value::Int32(30));
        assert_eq!(out.row(1)[1], Value::Int64(2));
        assert_eq!(out.row(1)[2], Value::Int64(20)); // one NULL skipped
    }

    #[test]
    fn count_vs_count_star() {
        let out = aggregate(
            &sales(),
            &[],
            &[call(AggFunc::CountStar, None), call(AggFunc::Count, Some(1))],
        )
        .unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int64(5));
        assert_eq!(out.row(0)[1], Value::Int64(4));
    }

    #[test]
    fn empty_input_ungrouped_returns_one_row() {
        let empty = Batch::from_columns(vec![("x", Column::from_i32s(vec![]))]).unwrap();
        let out =
            aggregate(&empty, &[], &[call(AggFunc::CountStar, None), call(AggFunc::Sum, Some(0))])
                .unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int64(0));
        assert!(out.row(0)[1].is_null());
    }

    #[test]
    fn empty_input_grouped_returns_no_rows() {
        let empty = Batch::from_columns(vec![("x", Column::from_i32s(vec![]))]).unwrap();
        let out = aggregate(&empty, &[0], &[call(AggFunc::CountStar, None)]).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn null_group_key_forms_its_own_group() {
        let b = Batch::from_columns(vec![(
            "k",
            Column::from_opt_i32s(vec![Some(1), None, Some(1), None]),
        )])
        .unwrap();
        let out = aggregate(&b, &[0], &[call(AggFunc::CountStar, None)]).unwrap();
        assert_eq!(out.rows(), 2);
        let counts: Vec<Value> = (0..2).map(|i| out.row(i)[1].clone()).collect();
        assert!(counts.iter().all(|c| *c == Value::Int64(2)));
    }

    #[test]
    fn distinct_count_and_sum() {
        let b = Batch::from_columns(vec![("x", Column::from_i32s(vec![1, 1, 2, 2, 3]))]).unwrap();
        let out = aggregate(
            &b,
            &[],
            &[
                AggCall { func: AggFunc::Count, arg: Some(0), distinct: true },
                AggCall { func: AggFunc::Sum, arg: Some(0), distinct: true },
            ],
        )
        .unwrap();
        assert_eq!(out.row(0)[0], Value::Int64(3));
        assert_eq!(out.row(0)[1], Value::Int64(6));
    }

    #[test]
    fn sum_overflow_detected() {
        let b =
            Batch::from_columns(vec![("x", Column::from_i64s(vec![i64::MAX, i64::MAX]))]).unwrap();
        let err = aggregate(&b, &[], &[call(AggFunc::Sum, Some(0))]);
        assert!(matches!(err, Err(DbError::Arithmetic(_))));
    }

    #[test]
    fn multi_key_grouping() {
        let b = Batch::from_columns(vec![
            ("a", Column::from_i32s(vec![1, 1, 2, 1])),
            ("b", Column::from_strings(["x", "y", "x", "x"])),
        ])
        .unwrap();
        let out = aggregate(&b, &[0, 1], &[call(AggFunc::CountStar, None)]).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0)[2], Value::Int64(2)); // (1, x)
    }

    fn force_par() -> Parallelism {
        Parallelism { threads: 4, threshold: 1, morsel_rows: 7, deadline: None }
    }

    #[test]
    fn parallel_aggregate_matches_serial_grouped() {
        let b = Batch::from_columns(vec![
            (
                "k",
                Column::from_opt_i32s(
                    (0..101).map(|i| if i % 9 == 0 { None } else { Some(i % 5) }).collect(),
                ),
            ),
            (
                "x",
                Column::from_opt_i32s(
                    (0..101).map(|i| if i % 4 == 0 { None } else { Some(i) }).collect(),
                ),
            ),
        ])
        .unwrap();
        let aggs = [
            call(AggFunc::CountStar, None),
            call(AggFunc::Count, Some(1)),
            call(AggFunc::Sum, Some(1)),
            call(AggFunc::Avg, Some(1)),
            call(AggFunc::Min, Some(1)),
            call(AggFunc::Max, Some(1)),
        ];
        let serial = aggregate(&b, &[0], &aggs).unwrap();
        let parallel = hash_aggregate(&b, &[0], &aggs, force_par()).unwrap().0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_aggregate_matches_serial_ungrouped() {
        let b = Batch::from_columns(vec![("x", Column::from_i32s((0..50).collect()))]).unwrap();
        let aggs = [call(AggFunc::CountStar, None), call(AggFunc::Sum, Some(0))];
        let serial = aggregate(&b, &[], &aggs).unwrap();
        let parallel = hash_aggregate(&b, &[], &aggs, force_par()).unwrap().0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_aggregate_byte_keys_match_serial() {
        let ks: Vec<String> = (0..60).map(|i| format!("g{}", i % 7)).collect();
        let b = Batch::from_columns(vec![
            ("k", Column::from_strings(ks.iter().map(String::as_str))),
            ("x", Column::from_f64s((0..60).map(|i| i as f64 * 0.5).collect())),
        ])
        .unwrap();
        let aggs = [call(AggFunc::Avg, Some(1)), call(AggFunc::Max, Some(1))];
        let serial = aggregate(&b, &[0], &aggs).unwrap();
        let parallel = hash_aggregate(&b, &[0], &aggs, force_par()).unwrap().0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_distinct_falls_back_to_serial() {
        let b = Batch::from_columns(vec![("x", Column::from_i32s(vec![1, 1, 2, 2, 3]))]).unwrap();
        let aggs = [AggCall { func: AggFunc::Count, arg: Some(0), distinct: true }];
        let (out, ran_parallel) = hash_aggregate(&b, &[], &aggs, force_par()).unwrap();
        assert!(!ran_parallel, "DISTINCT forces the single morsel");
        assert_eq!(out.row(0)[0], Value::Int64(3));
    }

    #[test]
    fn dict_group_key_matches_plain() {
        use crate::column::Encoding;
        let ks: Vec<Option<i32>> =
            (0..90).map(|i| if i % 11 == 0 { None } else { Some(i % 6) }).collect();
        let plain = Batch::from_columns(vec![
            ("k", Column::from_opt_i32s(ks.clone())),
            ("x", Column::from_f64s((0..90).map(|i| i as f64).collect())),
        ])
        .unwrap();
        let encoded = Batch::from_columns(vec![
            ("k", Column::from_opt_i32s(ks).encode(Encoding::Dict)),
            ("x", Column::from_f64s((0..90).map(|i| i as f64).collect())),
        ])
        .unwrap();
        let aggs = [
            call(AggFunc::CountStar, None),
            call(AggFunc::Sum, Some(1)),
            call(AggFunc::Min, Some(1)),
        ];
        let want = aggregate(&plain, &[0], &aggs).unwrap();
        assert_eq!(aggregate(&encoded, &[0], &aggs).unwrap(), want);
        assert_eq!(hash_aggregate(&encoded, &[0], &aggs, force_par()).unwrap().0, want);
    }

    #[test]
    fn rle_ungrouped_matches_plain() {
        use crate::column::Encoding;
        let xs: Vec<i32> = (0..80).map(|i| i / 10).collect();
        let plain = Batch::from_columns(vec![("x", Column::from_i32s(xs.clone()))]).unwrap();
        let encoded =
            Batch::from_columns(vec![("x", Column::from_i32s(xs).encode(Encoding::Rle))]).unwrap();
        let aggs = [
            call(AggFunc::CountStar, None),
            call(AggFunc::Count, Some(0)),
            call(AggFunc::Sum, Some(0)),
            call(AggFunc::Avg, Some(0)),
            call(AggFunc::Min, Some(0)),
            call(AggFunc::Max, Some(0)),
        ];
        let want = aggregate(&plain, &[], &aggs).unwrap();
        assert_eq!(aggregate(&encoded, &[], &aggs).unwrap(), want);
        assert_eq!(hash_aggregate(&encoded, &[], &aggs, force_par()).unwrap().0, want);
    }

    #[test]
    fn result_types() {
        assert_eq!(AggFunc::Sum.result_type(Some(DataType::Int8)).unwrap(), DataType::Int64);
        assert_eq!(AggFunc::Sum.result_type(Some(DataType::Float32)).unwrap(), DataType::Float64);
        assert!(AggFunc::Sum.result_type(Some(DataType::Varchar)).is_err());
        assert_eq!(AggFunc::Min.result_type(Some(DataType::Varchar)).unwrap(), DataType::Varchar);
        assert_eq!(AggFunc::CountStar.result_type(None).unwrap(), DataType::Int64);
    }
}
