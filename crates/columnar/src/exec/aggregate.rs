//! Hash aggregation: `GROUP BY` plus the standard aggregate functions.

use crate::batch::Batch;
use crate::column::{Column, ColumnBuilder};
use crate::error::{DbError, DbResult};
use crate::exec::hashtable::{
    self, ByteKeys, ColumnHasher, HashTable, IntKeys, KeyHasher, KeyKind, NONE, PARTITIONS,
    PARTITION_BITS,
};
use crate::exec::{rowkey, Parallelism};
use crate::metrics;
use crate::parallel::Morsel;
use crate::schema::{Field, Schema};
use crate::types::{DataType, Value};
use std::collections::HashSet;
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

    fn finish(&self) -> DbResult<Value> {
        Ok(match *self {
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
            AggState::MinMax { ref best, .. } => best.clone().unwrap_or(Value::Null),
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

/// The groups of one partition: each group's first row, and every
/// group's accumulators in one flat vector, `aggs.len()` per group.
#[derive(Default)]
struct Groups {
    first_rows: Vec<u32>,
    states: Vec<AggState>,
    /// DISTINCT aggregates' seen values, laid out like `states`; empty
    /// unless some aggregate is DISTINCT.
    seen: Vec<HashSet<Vec<u8>>>,
}

/// One aggregation's inputs, shared by every partition.
struct Aggregation<'a> {
    aggs: &'a [AggCall],
    args: Vec<Option<&'a Column>>,
    arg_types: Vec<Option<DataType>>,
    distinct: bool,
}

impl Aggregation<'_> {
    /// Opens a group whose first row is `row`.
    fn open(&self, groups: &mut Groups, row: usize) {
        groups.first_rows.push(row as u32);
        groups
            .states
            .extend(self.aggs.iter().zip(&self.arg_types).map(|(a, t)| AggState::new(a, *t)));
        if self.distinct {
            groups.seen.extend(self.aggs.iter().map(|_| HashSet::new()));
        }
    }

    /// Folds `rows`, in order, into `groups`; `gid` names each row's group
    /// and whether it is new. Aggregates marked in `done` are skipped.
    fn fold(
        &self,
        groups: &mut Groups,
        rows: impl Iterator<Item = usize>,
        done: &[bool],
        mut gid: impl FnMut(usize) -> (u32, bool),
    ) -> DbResult<()> {
        let width = self.aggs.len();
        for row in rows {
            let (g, new) = gid(row);
            if new {
                self.open(groups, row);
            }
            let base = g as usize * width;
            for (ai, (agg, &arg)) in self.aggs.iter().zip(&self.args).enumerate() {
                if done[ai] {
                    continue;
                }
                if agg.distinct {
                    let c = arg.ok_or_else(|| missing_arg("DISTINCT aggregate"))?;
                    if c.is_null(row) {
                        continue;
                    }
                    let mut k = Vec::new();
                    rowkey::encode_value(c, row, &mut k);
                    let Some(seen) = groups.seen.get_mut(base + ai) else {
                        return Err(DbError::internal("DISTINCT aggregate without its dedup set"));
                    };
                    if !seen.insert(k) {
                        continue;
                    }
                }
                groups.states[base + ai].update(arg, row)?;
            }
        }
        Ok(())
    }
}

/// How the group keys are read and looked up, decided once per
/// aggregation.
enum KeyShape<'a> {
    /// A single dictionary-encoded key: its column, codes and dictionary
    /// size.
    Dict(&'a Column, &'a [u32], usize),
    /// A single integer key.
    Int(&'a [&'a Column]),
    /// Anything else: [`rowkey`] bytes.
    Bytes(&'a [&'a Column], ColumnHasher<'a>),
}

impl<'a> KeyShape<'a> {
    fn of(keys: &'a [&'a Column]) -> KeyShape<'a> {
        if let [col] = keys {
            if let Some((codes, values)) = col.dict_parts() {
                return KeyShape::Dict(col, codes, values.len());
            }
        }
        if rowkey::int_fast_path(keys) {
            KeyShape::Int(keys)
        } else {
            KeyShape::Bytes(keys, ColumnHasher::new(keys))
        }
    }

    /// Appends the hash the partition pass scatters each row of `m` by. A
    /// dictionary code is rotated so that its low bits pick the partition
    /// and its high bits index that partition's array. A single key's NULL
    /// goes to partition 0.
    fn partition_hashes(&self, m: Morsel, out: &mut Vec<u64>) {
        let rows = m.start..m.start + m.len;
        match self {
            KeyShape::Dict(col, codes, _) => out.extend(rows.map(|row| {
                let code = if col.is_null(row) { 0 } else { codes[row] as u64 };
                code.rotate_right(PARTITION_BITS)
            })),
            KeyShape::Int(cols) => {
                let h = KeyHasher::get();
                out.extend(
                    rows.map(|row| IntKeys::read(cols, row, &mut ()).map_or(0, |k| h.int(k))),
                )
            }
            KeyShape::Bytes(_, columns) => columns.hash(m, out),
        }
    }

    /// Folds `rows` of one partition into `groups` (all of the input when
    /// `partitioned` is false, else one of [`PARTITIONS`] by key hash),
    /// each row into the group of its key; a key's first row opens its
    /// group, so ids follow first appearance. A single key's NULL is a
    /// group of its own.
    fn fold(
        &self,
        agg: &Aggregation,
        groups: &mut Groups,
        rows: impl Iterator<Item = usize>,
        partitioned: bool,
    ) -> DbResult<()> {
        let done = vec![false; agg.aggs.len()];
        let mut null = NONE;
        match *self {
            KeyShape::Dict(col, codes, values) => {
                // Ids straight off the codes: one array slot per code this
                // partition can see, no hash probe per row.
                let shift = if partitioned { PARTITION_BITS } else { 0 };
                let mut ids = vec![NONE; (values >> shift) + 1];
                let mut len = 0;
                agg.fold(groups, rows, &done, |row| {
                    let slot = if col.is_null(row) {
                        &mut null
                    } else {
                        &mut ids[(codes[row] >> shift) as usize]
                    };
                    if *slot != NONE {
                        return (*slot, false);
                    }
                    *slot = len;
                    len += 1;
                    (*slot, true)
                })
            }
            KeyShape::Int(cols) => {
                let mut table: HashTable<IntKeys> = HashTable::with_capacity(0);
                agg.fold(groups, rows, &done, |row| match IntKeys::read(cols, row, &mut ()) {
                    Some(k) => table.insert(table.hash(k), k),
                    None if null == NONE => {
                        null = table.reserve_id();
                        (null, true)
                    }
                    None => (null, false),
                })
            }
            KeyShape::Bytes(cols, _) => {
                let mut table: HashTable<ByteKeys> = HashTable::with_capacity(0);
                let mut buf = Vec::new();
                agg.fold(groups, rows, &done, |row| {
                    rowkey::encode_key(cols, row, &mut buf);
                    table.insert(table.hash(&buf), &buf)
                })
            }
        }
    }
}

/// Hash-aggregates `input`, also returning whether the morsel-parallel run
/// engaged.
///
/// `group_keys` are input column indices; `aggs` reference pre-computed
/// argument columns by index. The output batch has the group key columns
/// first (named per the input schema), then one column per aggregate named
/// `agg0..aggN` — callers typically re-project with proper aliases. With
/// every column as a key and no aggregates this is `DISTINCT`.
///
/// With no group keys the result is a single row over the whole input
/// (standard SQL ungrouped aggregation, returning one row even for empty
/// input): each morsel folds a partial, and the partials merge in morsel
/// order.
///
/// Grouped, the parallel run is one radix partition pass
/// (`exec::hashtable`); each partition then folds its rows in row
/// order into its own table, so every group sees its rows in exactly the
/// serial order and float sums are bit-identical to the serial run.
/// Groups come back in first-appearance order by sorting on their first
/// rows. The serial run is one partition holding every row. DISTINCT
/// aggregates keep that single partition.
pub fn hash_aggregate(
    input: &Batch,
    group_keys: &[usize],
    aggs: &[AggCall],
    par: Parallelism,
) -> DbResult<(Batch, bool)> {
    let agg = Aggregation {
        aggs,
        args: aggs.iter().map(|a| a.arg.map(|i| input.column(i).as_ref())).collect(),
        arg_types: aggs.iter().map(|a| a.arg.map(|i| input.column(i).data_type())).collect(),
        distinct: aggs.iter().any(|a| a.distinct),
    };
    let parallel = par.enabled(input.rows()) && !agg.distinct;
    if group_keys.is_empty() {
        let groups = ungrouped(input, &agg, par, parallel)?;
        return Ok((assemble_output(input, &[], &agg, &[groups], &[(0, 0)])?, parallel));
    }
    let keys: Vec<&Column> = group_keys.iter().map(|&i| input.column(i).as_ref()).collect();
    let shape = KeyShape::of(&keys);
    if let KeyShape::Dict(..) = shape {
        metrics::counter("exec.encoding.dict_rows").add(input.rows() as u64);
    }
    let (parts, order) = if parallel {
        let scattered =
            hashtable::partition(input.rows(), &par, |m, out| shape.partition_hashes(m, out))?;
        let parts = par.run_tasks(PARTITIONS, |p| {
            let mut groups = Groups::default();
            shape.fold(&agg, &mut groups, scattered.rows(p), true)?;
            Ok(groups)
        })?;
        let order = first_appearance(&parts);
        (parts, order)
    } else {
        par.check_deadline()?;
        let mut groups = Groups::default();
        shape.fold(&agg, &mut groups, 0..input.rows(), false)?;
        let order = (0..groups.first_rows.len() as u32).map(|g| (0, g)).collect();
        (vec![groups], order)
    };
    Ok((assemble_output(input, group_keys, &agg, &parts, &order)?, parallel))
}

/// The partitions' groups as `(partition, group)` pairs, ordered by first
/// row: the order in which the serial run opens them.
fn first_appearance(parts: &[Groups]) -> Vec<(u32, u32)> {
    let mut keyed: Vec<(u32, u32, u32)> = Vec::new();
    for (p, groups) in parts.iter().enumerate() {
        keyed.extend(
            groups.first_rows.iter().enumerate().map(|(g, &row)| (row, p as u32, g as u32)),
        );
    }
    // Each partition's groups are already ascending: a stable sort merges
    // those runs rather than sorting from scratch.
    keyed.sort_by_key(|&(row, ..)| row);
    keyed.into_iter().map(|(_, p, g)| (p, g)).collect()
}

/// Ungrouped aggregation: each morsel folds one partial group, and the
/// partials' accumulators merge in morsel order. The RLE run fold answers
/// what it can first when the morsel is the whole input (run boundaries
/// are offsets into the whole column).
fn ungrouped(
    input: &Batch,
    agg: &Aggregation,
    par: Parallelism,
    parallel: bool,
) -> DbResult<Groups> {
    let mut partials = par
        .run_morsels(input.rows(), parallel, |m| {
            let mut groups = Groups::default();
            agg.open(&mut groups, m.start);
            let mut done = vec![false; agg.aggs.len()];
            if m.len == input.rows() {
                run_aggregate(input, agg.aggs, &mut groups.states, &mut done)?;
            }
            let rows = if !done.is_empty() && done.iter().all(|&d| d) {
                0..0 // every aggregate folded from runs: no row needs a visit
            } else {
                m.start..m.start + m.len
            };
            agg.fold(&mut groups, rows, &done, |_| (0, false))?;
            Ok(groups.states)
        })?
        .into_iter();
    let mut states = partials.next().unwrap_or_default();
    for partial in partials {
        for (dst, src) in states.iter_mut().zip(partial) {
            dst.merge(src)?;
        }
    }
    Ok(Groups { first_rows: vec![0], states, seen: Vec::new() })
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
/// first row), then one column per aggregate, groups in `order` as
/// `(partition, group)` pairs.
fn assemble_output(
    input: &Batch,
    group_keys: &[usize],
    agg: &Aggregation,
    parts: &[Groups],
    order: &[(u32, u32)],
) -> DbResult<Batch> {
    let first_rows: Vec<u32> =
        order.iter().map(|&(p, g)| parts[p as usize].first_rows[g as usize]).collect();
    let mut fields = Vec::new();
    let mut columns: Vec<Arc<Column>> = Vec::new();
    for &k in group_keys {
        fields.push(input.schema().field(k).clone());
        // A group per row is every row in order: the column itself.
        columns.push(if first_rows.len() == input.rows() {
            input.column(k).clone()
        } else {
            Arc::new(input.column(k).take(&first_rows))
        });
    }
    let mut agg_builders: Vec<ColumnBuilder> = agg
        .aggs
        .iter()
        .zip(&agg.arg_types)
        .map(|(a, t)| a.func.result_type(*t).map(ColumnBuilder::new))
        .collect::<DbResult<_>>()?;
    let width = agg.aggs.len();
    for &(p, g) in order {
        let start = g as usize * width;
        let states = &parts[p as usize].states[start..start + width];
        for (b, s) in agg_builders.iter_mut().zip(states) {
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
