//! Hash aggregation: `GROUP BY` plus the standard aggregate functions.
//!
//! A partition's rows (every row when serial, one radix partition of them
//! in parallel) fold a block of 1 024 rows at a time. The key lookup
//! first writes the block's group ids, opening groups in first-appearance
//! order; then each aggregate folds the block in one typed loop over its
//! argument's values (plain, dictionary or RLE) into accumulator vectors
//! of its own, one slot per group. Ungrouped aggregation reduces each
//! morsel into locals, with no ids.

use crate::batch::Batch;
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::encoding::{typed, Values};
use crate::error::{DbError, DbResult};
use crate::exec::hashtable::{
    self, ByteKeys, ColumnHasher, HashTable, IntKeys, KeyHasher, KeyKind, NONE, PARTITIONS,
    PARTITION_BITS,
};
use crate::exec::{rowkey, Parallelism};
use crate::metrics;
use crate::parallel::Morsel;
use crate::schema::{Field, Schema};
use crate::types::DataType;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Rows per block: a block's ids and rows stay in L1 while every
/// aggregate folds it.
const BLOCK: usize = 1024;

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

/// What an aggregate accumulates, decided once from its function and
/// argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Values per group: `COUNT(x)`, or rows for `COUNT(*)` (no argument).
    Count,
    /// Integer `SUM`, in `i128` so that no partial sum overflows.
    IntSum,
    /// Float `SUM`.
    FloatSum,
    /// `AVG`: a float sum and a count.
    Avg,
    /// `MIN` (`true`) or `MAX`: the first row holding the best value.
    Best(bool),
}

/// One aggregate call resolved against the input.
struct Agg<'a> {
    kind: Kind,
    arg: Option<&'a Column>,
    distinct: bool,
    out: DataType,
}

impl<'a> Agg<'a> {
    fn resolve(call: &AggCall, input: &'a Batch) -> DbResult<Agg<'a>> {
        let arg = call.arg.map(|i| input.column(i).as_ref());
        let out = call.func.result_type(arg.map(|c| c.data_type()))?;
        let kind = match call.func {
            AggFunc::CountStar | AggFunc::Count => Kind::Count,
            AggFunc::Sum if out == DataType::Int64 => Kind::IntSum,
            AggFunc::Sum => Kind::FloatSum,
            AggFunc::Avg => Kind::Avg,
            AggFunc::Min => Kind::Best(true),
            AggFunc::Max => Kind::Best(false),
        };
        if arg.is_none() && (kind != Kind::Count || call.distinct) {
            return Err(DbError::internal(format!("{:?} without an argument", call.func)));
        }
        Ok(Agg { kind, arg, distinct: call.distinct, out })
    }
}

/// One aggregate's accumulators: one slot per group in each vector its
/// kind uses; the others stay empty.
#[derive(Debug, Default)]
struct Acc {
    /// Values folded per group (rows, for `COUNT(*)`): a count's result,
    /// and what tells a sum or average of no values, NULL.
    counts: Vec<i64>,
    /// `IntSum`: the sums.
    ints: Vec<i128>,
    /// `FloatSum`/`Avg`: the sums.
    floats: Vec<f64>,
    /// `Best`: the best row so far ([`NONE`]: no value yet), and its
    /// index into the argument's physical values.
    best: Vec<u32>,
    best_at: Vec<u32>,
}

impl Acc {
    /// Opens slots up to `groups`.
    fn grow(&mut self, kind: Kind, groups: usize) {
        match kind {
            Kind::Best(_) => {
                self.best.resize(groups, NONE);
                self.best_at.resize(groups, NONE);
                return;
            }
            Kind::IntSum => self.ints.resize(groups, 0),
            Kind::FloatSum | Kind::Avg => self.floats.resize(groups, 0.0),
            Kind::Count => {}
        }
        self.counts.resize(groups, 0);
    }

    /// Folds a later morsel's one-slot partial into this one: sums and
    /// counts add (float partials in morsel order), and the best value
    /// moves only when the later one is strictly better.
    fn merge(&mut self, a: &Agg, other: Acc) {
        self.counts.iter_mut().zip(other.counts).for_each(|(x, y)| *x += y);
        self.ints.iter_mut().zip(other.ints).for_each(|(x, y)| *x += y);
        self.floats.iter_mut().zip(other.floats).for_each(|(x, y)| *x += y);
        if let (Kind::Best(min), Some(c)) = (a.kind, a.arg) {
            let (ours, theirs) = (self.best_at[0], other.best_at[0]);
            if theirs != NONE
                && (ours == NONE || typed!(c.data(), beats(min, theirs as usize, ours)))
            {
                self.best = other.best;
                self.best_at = other.best_at;
            }
        }
    }

    /// The partitions' accumulators of one aggregate as one, slots in
    /// `order`, as `(partition, group)` pairs.
    fn gather(parts: &[&Acc], order: &[(u32, u32)]) -> Acc {
        fn pick<T: Copy>(parts: &[&Acc], order: &[(u32, u32)], f: fn(&Acc) -> &Vec<T>) -> Vec<T> {
            if parts.iter().all(|a| f(a).is_empty()) {
                return Vec::new(); // a vector this kind does not use
            }
            order.iter().map(|&(p, g)| f(parts[p as usize])[g as usize]).collect()
        }
        Acc {
            counts: pick(parts, order, |a| &a.counts),
            ints: pick(parts, order, |a| &a.ints),
            floats: pick(parts, order, |a| &a.floats),
            best: pick(parts, order, |a| &a.best),
            best_at: pick(parts, order, |a| &a.best_at),
        }
    }

    /// The aggregate's output column, one row per slot.
    fn finish(self, a: &Agg) -> DbResult<Column> {
        let counted = || {
            let valid: Vec<bool> = self.counts.iter().map(|&n| n != 0).collect();
            Some(Bitmap::from_bools(&valid))
        };
        match (a.kind, a.arg) {
            (Kind::Count, _) => Ok(Column::from_i64s(self.counts)),
            (Kind::IntSum, _) => {
                let sums = self.ints.iter().zip(&self.counts).map(|(&sum, &n)| match n {
                    0 => Ok(0),
                    _ => i64::try_from(sum)
                        .map_err(|_| DbError::Arithmetic("SUM overflows BIGINT".into())),
                });
                Column::new(ColumnData::Int64(sums.collect::<DbResult<_>>()?), counted())
            }
            (Kind::FloatSum, _) => Column::new(ColumnData::Float64(self.floats), counted()),
            (Kind::Avg, _) => {
                let avgs = self.floats.iter().zip(&self.counts);
                let avgs = avgs.map(|(&sum, &n)| if n == 0 { 0.0 } else { sum / n as f64 });
                Column::new(ColumnData::Float64(avgs.collect()), counted())
            }
            (Kind::Best(_), Some(c)) => {
                let rows: Vec<Option<u32>> =
                    self.best.iter().map(|&r| (r != NONE).then_some(r)).collect();
                Ok(c.take_opt(&rows))
            }
            (Kind::Best(_), None) => Err(DbError::internal("MIN/MAX without argument")),
        }
    }
}

/// Whether physical value `p` displaces the best so far, `at`: strictly
/// below it for MIN, above for MAX, in [`Values::sql_order`], so the
/// first of equal values stays.
#[inline]
fn beats<V: Values + ?Sized>(v: &V, min: bool, p: usize, at: u32) -> bool {
    let o = V::sql_order(v.at(p), v.at(at as usize));
    o == if min { Ordering::Less } else { Ordering::Greater }
}

/// Calls `f(k, row, p)` for the `k`-th of `rows` (ascending) unless that
/// row is NULL, `p` being the row's index into `col`'s physical values.
#[inline(always)]
fn each(col: &Column, rows: impl Iterator<Item = usize>, f: impl FnMut(usize, usize, usize)) {
    match col.validity() {
        None => walk(col, rows, |_| true, f),
        Some(bm) => walk(col, rows, |r| bm.get(r), f),
    }
}

#[inline(always)]
fn walk(
    col: &Column,
    rows: impl Iterator<Item = usize>,
    valid: impl Fn(usize) -> bool,
    mut f: impl FnMut(usize, usize, usize),
) {
    if let Some((ends, _)) = col.rle_parts() {
        // Rows ascend, so each one's run is at or after the last one's.
        let mut rows = rows.peekable();
        let mut run = rows.peek().map_or(0, |&r| ends.partition_point(|&e| e as usize <= r));
        for (k, r) in rows.enumerate() {
            while ends[run] as usize <= r {
                run += 1;
            }
            if valid(r) {
                f(k, r, run);
            }
        }
    } else {
        let codes = col.dict_parts().map(|(codes, _)| codes);
        let phys = |r: usize| codes.map_or(r, |c| c[r] as usize);
        rows.enumerate().filter(|&(_, r)| valid(r)).for_each(|(k, r)| f(k, r, phys(r)));
    }
}

/// Folds each of `rows` into its group, `ids[k]` for `rows[k]`, in order.
fn fold(a: &Agg, rows: &[u32], ids: &[u32], acc: &mut Acc) {
    match a.arg {
        None => ids.iter().for_each(|&g| acc.counts[g as usize] += 1),
        Some(arg) => typed!(arg.data(), fold_typed(arg, a.kind, rows, ids, acc)),
    }
}

/// [`fold`]'s one typed loop over `v`, `arg`'s physical values.
fn fold_typed<V: Values + ?Sized>(
    v: &V,
    arg: &Column,
    kind: Kind,
    rows: &[u32],
    ids: &[u32],
    acc: &mut Acc,
) {
    let rows = rows.iter().map(|&r| r as usize);
    let g = |k: usize| ids[k] as usize;
    match kind {
        Kind::Count => each(arg, rows, |k, _, _| acc.counts[g(k)] += 1),
        Kind::IntSum => each(arg, rows, |k, _, p| {
            if let Some(x) = V::as_i64(v.at(p)) {
                acc.ints[g(k)] += i128::from(x);
                acc.counts[g(k)] += 1;
            }
        }),
        Kind::FloatSum | Kind::Avg => each(arg, rows, |k, _, p| {
            if let Some(x) = V::as_f64(v.at(p)) {
                acc.floats[g(k)] += x;
                acc.counts[g(k)] += 1;
            }
        }),
        Kind::Best(min) => each(arg, rows, |k, row, p| {
            let at = acc.best_at[g(k)];
            if at == NONE || beats(v, min, p, at) {
                acc.best[g(k)] = row as u32;
                acc.best_at[g(k)] = p as u32;
            }
        }),
    }
}

/// Reduces `rows` of `arg` into slot 0, in locals: the ungrouped fold.
fn reduce<V: Values + ?Sized>(v: &V, arg: &Column, kind: Kind, rows: Range<usize>, acc: &mut Acc) {
    match kind {
        Kind::Count => {
            let mut n = 0;
            each(arg, rows, |_, _, _| n += 1);
            acc.counts[0] += n;
        }
        Kind::IntSum => {
            let (mut sum, mut n) = (0i128, 0);
            each(arg, rows, |_, _, p| {
                if let Some(x) = V::as_i64(v.at(p)) {
                    sum += i128::from(x);
                    n += 1;
                }
            });
            acc.ints[0] += sum;
            acc.counts[0] += n;
        }
        Kind::FloatSum | Kind::Avg => {
            let (mut sum, mut n) = (acc.floats[0], 0);
            each(arg, rows, |_, _, p| {
                if let Some(x) = V::as_f64(v.at(p)) {
                    sum += x;
                    n += 1;
                }
            });
            acc.floats[0] = sum;
            acc.counts[0] += n;
        }
        Kind::Best(min) => {
            let (mut best, mut at) = (acc.best[0], acc.best_at[0]);
            each(arg, rows, |_, row, p| {
                if at == NONE || beats(v, min, p, at) {
                    (best, at) = (row as u32, p as u32);
                }
            });
            (acc.best[0], acc.best_at[0]) = (best, at);
        }
    }
}

/// Ungrouped run-at-a-time aggregation over a whole RLE argument without
/// NULLs, for the kinds where folding a run is exact: `COUNT(x)`, integer
/// `SUM` (`v * run_len` in `i128` equals repeated addition) and MIN/MAX
/// (a run's first row stands for its equal rows). Float sums stay
/// row-at-a-time: `v * k` and `k` additions round differently, and encoded
/// execution must be bit-identical to plain. False when it does not apply.
fn run_fold(arg: &Column, kind: Kind, acc: &mut Acc) -> bool {
    let Some((ends, _)) = arg.rle_parts() else { return false };
    if arg.validity().is_some() || !matches!(kind, Kind::Count | Kind::IntSum | Kind::Best(_)) {
        return false;
    }
    typed!(arg.data(), fold_runs(ends, kind, acc));
    metrics::counter("exec.encoding.rle_runs").add(ends.len() as u64);
    true
}

fn fold_runs<V: Values + ?Sized>(v: &V, ends: &[u32], kind: Kind, acc: &mut Acc) {
    let mut start = 0u32;
    for (run, &end) in ends.iter().enumerate() {
        match kind {
            Kind::Count => acc.counts[0] += i64::from(end - start),
            Kind::IntSum => {
                if let Some(x) = V::as_i64(v.at(run)) {
                    acc.ints[0] += i128::from(x) * i128::from(end - start);
                    acc.counts[0] += i64::from(end - start);
                }
            }
            Kind::Best(min) if acc.best_at[0] == NONE || beats(v, min, run, acc.best_at[0]) => {
                (acc.best[0], acc.best_at[0]) = (start, run as u32);
            }
            _ => {}
        }
        start = end;
    }
}

/// A DISTINCT aggregate's `(group, value)` pairs seen so far, and the
/// current block's rows that are the first of their pair.
struct Dedup {
    pairs: HashTable<ByteKeys>,
    key: Vec<u8>,
    rows: Vec<u32>,
    ids: Vec<u32>,
}

impl Dedup {
    fn new() -> Dedup {
        Dedup {
            pairs: HashTable::with_capacity(0),
            key: Vec::new(),
            rows: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Keeps the non-NULL rows of a block (`rows[k]` in group `ids[k]`)
    /// whose value is new to their group.
    fn keep(&mut self, arg: &Column, rows: &[u32], ids: &[u32]) {
        self.rows.clear();
        self.ids.clear();
        for (&row, &g) in rows.iter().zip(ids) {
            if arg.is_null(row as usize) {
                continue;
            }
            self.key.clear();
            self.key.extend_from_slice(&g.to_le_bytes());
            rowkey::encode_value(arg, row as usize, &mut self.key);
            if self.pairs.insert(self.pairs.hash(&self.key), &self.key).1 {
                self.rows.push(row);
                self.ids.push(g);
            }
        }
    }
}

/// Calls `f` on consecutive blocks of `rows`, each as a list of rows.
fn blocks(rows: Range<usize>, mut f: impl FnMut(&[u32])) {
    let mut block = Vec::with_capacity(BLOCK);
    for start in rows.clone().step_by(BLOCK) {
        block.clear();
        block.extend(start as u32..(start + BLOCK).min(rows.end) as u32);
        f(&block);
    }
}

/// The groups of one partition: each group's first row, and each
/// aggregate's accumulators.
#[derive(Default)]
struct Groups {
    first_rows: Vec<u32>,
    accs: Vec<Acc>,
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
            // A float dictionary keeps -0.0 beside 0.0 and each NaN's bits:
            // those keys group as rowkey bytes, which fold them.
            if let Some((codes, values)) = col.dict_parts().filter(|_| !col.data_type().is_float())
            {
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

    /// Writes the group id of each of `rows` to `ids`, `l` holding one
    /// partition's ids so far; a key's first row opens its group,
    /// appended to `firsts`, so ids follow first appearance. A single
    /// key's NULL is a group of its own.
    fn ids(&self, l: &mut Lookup, rows: &[u32], ids: &mut Vec<u32>, firsts: &mut Vec<u32>) {
        ids.clear();
        match *self {
            KeyShape::Dict(col, codes, _) => ids.extend(rows.iter().map(|&row| {
                // Ids straight off the codes: no hash probe per row.
                let slot = match col.is_null(row as usize) {
                    true => &mut l.null,
                    false => &mut l.slots[(codes[row as usize] >> l.shift) as usize],
                };
                if *slot == NONE {
                    *slot = firsts.len() as u32;
                    firsts.push(row);
                }
                *slot
            })),
            KeyShape::Int(cols) => ids.extend(rows.iter().map(|&row| {
                let (id, new) = match IntKeys::read(cols, row as usize, &mut ()) {
                    Some(k) => l.ints.insert(l.ints.hash(k), k),
                    None if l.null == NONE => {
                        l.null = l.ints.reserve_id();
                        (l.null, true)
                    }
                    None => (l.null, false),
                };
                if new {
                    firsts.push(row);
                }
                id
            })),
            KeyShape::Bytes(cols, _) => ids.extend(rows.iter().map(|&row| {
                rowkey::encode_key(cols, row as usize, &mut l.key);
                let (id, new) = l.bytes.insert(l.bytes.hash(&l.key), &l.key);
                if new {
                    firsts.push(row);
                }
                id
            })),
        }
    }
}

/// One partition's key lookup state, kept across its blocks: a dictionary
/// key's group per code the partition can see (codes shifted right by
/// `shift`), else the hash table of its key kind; `null` is the group of
/// a single key's NULL.
struct Lookup {
    slots: Vec<u32>,
    shift: u32,
    ints: HashTable<IntKeys>,
    bytes: HashTable<ByteKeys>,
    key: Vec<u8>,
    null: u32,
}

impl Lookup {
    /// An empty lookup for one partition of `shape`'s keys: all of the
    /// input when `partitioned` is false, else one of [`PARTITIONS`].
    fn new(shape: &KeyShape, partitioned: bool) -> Lookup {
        let shift = if partitioned { PARTITION_BITS } else { 0 };
        let slots = match *shape {
            KeyShape::Dict(_, _, values) => vec![NONE; (values >> shift) + 1],
            _ => Vec::new(),
        };
        let (ints, bytes) = (HashTable::with_capacity(0), HashTable::with_capacity(0));
        Lookup { slots, shift, ints, bytes, key: Vec::new(), null: NONE }
    }
}

/// One partition's fold: its groups, its key lookup, and the buffers its
/// blocks reuse.
struct Fold<'a> {
    shape: &'a KeyShape<'a>,
    aggs: &'a [Agg<'a>],
    lookup: Lookup,
    groups: Groups,
    ids: Vec<u32>,
    dedup: Vec<Option<Dedup>>,
}

impl<'a> Fold<'a> {
    fn new(shape: &'a KeyShape<'a>, aggs: &'a [Agg<'a>], partitioned: bool) -> Fold<'a> {
        Fold {
            shape,
            aggs,
            lookup: Lookup::new(shape, partitioned),
            groups: Groups {
                first_rows: Vec::new(),
                accs: aggs.iter().map(|_| Acc::default()).collect(),
            },
            ids: Vec::with_capacity(BLOCK),
            dedup: aggs.iter().map(|a| a.distinct.then(Dedup::new)).collect(),
        }
    }

    /// Folds one block of rows, ascending and after every row folded so far.
    fn block(&mut self, rows: &[u32]) {
        self.shape.ids(&mut self.lookup, rows, &mut self.ids, &mut self.groups.first_rows);
        let groups = self.groups.first_rows.len();
        for ((a, acc), dedup) in self.aggs.iter().zip(&mut self.groups.accs).zip(&mut self.dedup) {
            acc.grow(a.kind, groups);
            match (dedup, a.arg) {
                (Some(d), Some(arg)) => {
                    d.keep(arg, rows, &self.ids);
                    fold(a, &d.rows, &d.ids, acc);
                }
                _ => fold(a, rows, &self.ids, acc),
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
/// input): each morsel reduces a partial, and the partials merge in morsel
/// order.
///
/// Grouped, the parallel run is one radix partition pass
/// (`exec::hashtable`); each partition then folds its rows in row
/// order into its own groups, so every group sees its rows in exactly the
/// serial order and float sums are bit-identical to the serial run.
/// Groups come back in first-appearance order by sorting on their first
/// rows. The serial run is one partition holding every row. DISTINCT
/// aggregates, which fold only the first row of each `(group, value)`
/// pair, keep that single partition.
pub fn hash_aggregate(
    input: &Batch,
    group_keys: &[usize],
    aggs: &[AggCall],
    par: Parallelism,
) -> DbResult<(Batch, bool)> {
    let aggs = aggs.iter().map(|a| Agg::resolve(a, input)).collect::<DbResult<Vec<_>>>()?;
    let parallel = par.enabled(input.rows()) && !aggs.iter().any(|a| a.distinct);
    if group_keys.is_empty() {
        let groups = ungrouped(input, &aggs, par, parallel)?;
        return Ok((assemble_output(input, &[], &aggs, vec![groups], None)?, parallel));
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
            let mut fold = Fold::new(&shape, &aggs, true);
            scattered.slices(p).flat_map(|rows| rows.chunks(BLOCK)).for_each(|b| fold.block(b));
            Ok(fold.groups)
        })?;
        let order = first_appearance(&parts);
        (parts, Some(order))
    } else {
        par.check_deadline()?;
        let mut fold = Fold::new(&shape, &aggs, false);
        blocks(0..input.rows(), |b| fold.block(b));
        (vec![fold.groups], None)
    };
    Ok((assemble_output(input, group_keys, &aggs, parts, order.as_deref())?, parallel))
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

/// Ungrouped aggregation: each morsel reduces a one-slot partial per
/// aggregate, and the partials merge in morsel order. The RLE run fold
/// answers what it can when the morsel is the whole input (run boundaries
/// are offsets into the whole column).
fn ungrouped(input: &Batch, aggs: &[Agg], par: Parallelism, parallel: bool) -> DbResult<Groups> {
    let partial = |m: Morsel| {
        let rows = m.start..m.start + m.len;
        let partial = aggs.iter().map(|a| {
            let mut acc = Acc::default();
            acc.grow(a.kind, 1);
            match a.arg {
                None => acc.counts[0] = m.len as i64,
                Some(arg) if a.distinct => {
                    let (mut dedup, zeros) = (Dedup::new(), [0; BLOCK]);
                    blocks(rows.clone(), |b| {
                        dedup.keep(arg, b, &zeros[..b.len()]);
                        fold(a, &dedup.rows, &dedup.ids, &mut acc);
                    });
                }
                Some(arg) if m.len == input.rows() && run_fold(arg, a.kind, &mut acc) => {}
                Some(arg) => typed!(arg.data(), reduce(arg, a.kind, rows.clone(), &mut acc)),
            }
            acc
        });
        Ok(partial.collect::<Vec<_>>())
    };
    let mut partials = par.run_morsels(input.rows(), parallel, partial)?.into_iter();
    let mut accs = partials.next().unwrap_or_default();
    for partial in partials {
        accs.iter_mut().zip(partial).zip(aggs).for_each(|((acc, p), a)| acc.merge(a, p));
    }
    Ok(Groups { first_rows: vec![0], accs })
}

/// Builds the result batch: group key columns (gathered at each group's
/// first row), then one column per aggregate, built from its
/// accumulators. Groups come in `order` as `(partition, group)` pairs;
/// `None` is the one partition in its own order.
fn assemble_output(
    input: &Batch,
    group_keys: &[usize],
    aggs: &[Agg],
    parts: Vec<Groups>,
    order: Option<&[(u32, u32)]>,
) -> DbResult<Batch> {
    let Groups { first_rows, accs } = match order {
        None => parts.into_iter().next().unwrap_or_default(),
        Some(order) => Groups {
            first_rows: order
                .iter()
                .map(|&(p, g)| parts[p as usize].first_rows[g as usize])
                .collect(),
            accs: (0..aggs.len())
                .map(|a| Acc::gather(&parts.iter().map(|p| &p.accs[a]).collect::<Vec<_>>(), order))
                .collect(),
        },
    };
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
    for (i, (a, acc)) in aggs.iter().zip(accs).enumerate() {
        fields.push(Field::new(format!("agg{i}"), a.out));
        columns.push(Arc::new(acc.finish(a)?));
    }
    Batch::new(Arc::new(Schema::new_unchecked(fields)), columns)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

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
