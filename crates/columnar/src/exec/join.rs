//! Hash joins: inner, left outer, and cross.
//!
//! There is one equi-join, [`hash_join`], written once: it picks the build
//! and probe sides, picks the key representation (a bare `i64` for a
//! single integer key, [`rowkey`] bytes otherwise), builds one hash table
//! per partition of the build side (one radix partition pass when
//! parallel, see `exec::hashtable`), probes in morsels emitting `(probe row,
//! build row)` pairs in probe order, and finishes. Serial execution is the
//! same code with one partition and one probe morsel. A dictionary probe
//! key is looked up once per dictionary entry, and its rows by code.
//!
//! The *default* build side is the right input, with the probe side
//! streaming the left input; probe-order pairs are then already in output
//! order. The cost-based optimizer may flip that choice: when the left
//! input is estimated at half the right input's cardinality or less, it
//! sets `build_left` on the join plan node, the table is built on the
//! (smaller) left side, the right side probes, and a counting scatter
//! puts the matched pairs back into left-row order — so the output is
//! bit-identical no matter which side was built or how many workers ran.
//! Key equality follows SQL: NULL keys never match.

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::exec::hashtable::{
    self, ByteKeys, HashTable, IntKeys, KeyHasher, KeyKind, NONE, PARTITIONS,
};
use crate::exec::{concat_parts, rowkey, Parallelism};
use crate::metrics;
use crate::schema::Schema;
use std::sync::Arc;

/// Which join to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Keep only matching row pairs.
    Inner,
    /// Keep every left row; unmatched rows pad the right side with NULLs.
    Left,
    /// Cartesian product (no keys).
    Cross,
}

/// Joins `left` and `right` on positional key columns, building the hash
/// table on the left input when `build_left` is set and on the right
/// otherwise. Also returns whether the morsel-parallel run engaged (never
/// for cross joins; otherwise when either side reaches the threshold).
///
/// The output schema is the left fields followed by the right fields
/// (duplicated names are allowed here; the SQL binder resolves ambiguity
/// before execution, and `project` renames afterwards). Rows come out in
/// left-row order, matches of one left row in right-row order, whichever
/// side was built.
///
/// The swap rule lives in the optimizer: it flips the build side only
/// for Inner/Left joins and only when `est(left) * 2 <= est(right)` —
/// i.e. the hash table would be built over at most half as many rows as
/// the default right-side build.
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    build_left: bool,
    par: Parallelism,
) -> DbResult<(Batch, bool)> {
    if join_type == JoinType::Cross {
        return Ok((cross_join(left, right)?, false));
    }
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(DbError::internal(format!(
            "join key arity mismatch: {} vs {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    let lcols: Vec<&Column> = left_keys.iter().map(|&i| left.column(i).as_ref()).collect();
    let rcols: Vec<&Column> = right_keys.iter().map(|&i| right.column(i).as_ref()).collect();
    let parallel = par.enabled(left.rows().max(right.rows()));
    let (build, probe) = if build_left { (&lcols, &rcols) } else { (&rcols, &lcols) };
    // A right build probes with the left rows, so a LEFT join keeps its
    // unmatched probe rows as it goes; a left build pads in the finish.
    let keep_unmatched = join_type == JoinType::Left && !build_left;
    let (probe_idx, build_idx) = if rowkey::int_fast_path(&lcols) && rowkey::int_fast_path(&rcols) {
        match_pairs::<IntKeys>(build, probe, keep_unmatched, par, parallel)?
    } else {
        match_pairs::<ByteKeys>(build, probe, keep_unmatched, par, parallel)?
    };
    let joined = if build_left {
        let (lidx, ridx) = restore_left_order(left.rows(), &build_idx, &probe_idx, join_type);
        assemble(left, right, &lidx, &ridx)?
    } else {
        assemble(left, right, &probe_idx, &build_idx)?
    };
    Ok((joined, parallel))
}

/// Reads `row`'s key for matching; `None` when any component is NULL,
/// since NULL keys never match.
#[inline]
fn match_key<'s, K: KeyKind>(
    cols: &[&Column],
    row: usize,
    scratch: &'s mut K::Scratch,
) -> Option<K::Key<'s>> {
    if cols.iter().any(|c| c.is_null(row)) {
        return None;
    }
    K::read(cols, row, scratch)
}

/// One partition's build side: its rows ascending, a key table, and per
/// key id the first of its rows, chained through `next` in row order.
struct BuildTable<K: KeyKind> {
    rows: Vec<u32>,
    table: HashTable<K>,
    head: Vec<u32>,
    next: Vec<u32>,
}

impl<K: KeyKind> BuildTable<K> {
    /// Builds over `rows` (ascending) of the build key columns. Rows are
    /// inserted last to first, each prepended to its key's chain, so every
    /// chain runs in ascending row order.
    fn build(cols: &[&Column], rows: Vec<u32>, par: &Parallelism) -> DbResult<BuildTable<K>> {
        let mut table = HashTable::with_capacity(rows.len());
        let mut head = Vec::new();
        let mut next = vec![NONE; rows.len()];
        let mut scratch = K::Scratch::default();
        for (pos, &row) in rows.iter().enumerate().rev() {
            if pos % par.morsel_rows.max(1) == 0 {
                par.check_deadline()?;
            }
            let Some(key) = match_key::<K>(cols, row as usize, &mut scratch) else { continue };
            let (id, new) = table.insert(table.hash(key), key);
            if new {
                head.push(NONE);
            }
            next[pos] = head[id as usize];
            head[id as usize] = pos as u32;
        }
        Ok(BuildTable { rows, table, head, next })
    }

    /// The start of `key`'s chain (hash `hash`): [`NONE`] when no build
    /// row has that key.
    #[inline(always)]
    fn chain(&self, hash: u64, key: K::Key<'_>) -> u32 {
        self.table.find(hash, key).map_or(NONE, |id| self.head[id as usize])
    }
}

/// Where a probe key's matches start: a partition's table and a position
/// in its chain ([`NONE`]: no match).
type Head = (u32, u32);

/// The head of a key no build row has, and of a NULL key.
const UNMATCHED: Head = (0, NONE);

/// The key-table lookups of one probe: each partition's build table, and
/// how a key finds its partition.
struct Tables<K: KeyKind> {
    parts: Vec<BuildTable<K>>,
    hasher: KeyHasher,
}

impl<K: KeyKind> Tables<K> {
    /// Where the matches of `row`'s key start.
    #[inline(always)]
    fn head(&self, cols: &[&Column], row: usize, scratch: &mut K::Scratch) -> Head {
        let Some(key) = match_key::<K>(cols, row, scratch) else { return UNMATCHED };
        let hash = K::hash(self.hasher, key);
        let p = hashtable::part_index(hash, self.parts.len());
        (p as u32, self.parts[p].chain(hash, key))
    }

    /// Appends `(row, build row)` for every build row from `head` on,
    /// ascending, or `(row, None)` when there is none and `keep_unmatched`.
    #[inline(always)]
    fn emit(&self, row: usize, (p, mut pos): Head, keep_unmatched: bool, out: &mut Pairs) {
        if pos == NONE && keep_unmatched {
            out.0.push(row as u32);
            out.1.push(None);
        }
        let part = &self.parts[p as usize];
        while pos != NONE {
            out.0.push(row as u32);
            out.1.push(Some(part.rows[pos as usize]));
            pos = part.next[pos as usize];
        }
    }

    /// Each entry's head when the probe key is a single dictionary column
    /// with no more entries than rows: one lookup per entry, through the
    /// same key representation the rows use, so a probe row's head is its
    /// code's.
    fn entry_heads<'c>(&self, probe: &[&'c Column]) -> DbResult<Option<(&'c [u32], Vec<Head>)>> {
        let Some((codes, values)) = probe[0].dict_parts().filter(|_| probe.len() == 1) else {
            return Ok(None);
        };
        if values.len() > codes.len() {
            return Ok(None);
        }
        let entries = Column::new(values.clone(), None)?;
        let mut scratch = K::Scratch::default();
        let heads = (0..entries.len()).map(|e| self.head(&[&entries], e, &mut scratch));
        Ok(Some((codes, heads.collect())))
    }
}

/// Matched `(probe row, build row)` pairs as two parallel vectors.
type Pairs = (Vec<u32>, Vec<Option<u32>>);

/// Build and probe over the two sides' key columns (never empty — the
/// arity check ran), generic over the key representation: returns the
/// matched `(probe row, Some(build row))` pairs as two parallel vectors in
/// probe-row order, each probe row's matches in build-row order, plus a
/// `(probe row, None)` entry per matchless probe row under `keep_unmatched`.
///
/// 1. The build side is one table when not parallel. In parallel, one
///    partition pass scatters build rows by key hash and each partition
///    builds its own table on the pool from its own rows.
/// 2. Probe morsels find each key's chain in its partition's table and
///    emit pairs, which are concatenated in morsel order. A dictionary
///    probe key looks each entry up once instead, and each row reads its
///    code's chain: no hash per row.
fn match_pairs<K: KeyKind>(
    build: &[&Column],
    probe: &[&Column],
    keep_unmatched: bool,
    par: Parallelism,
    parallel: bool,
) -> DbResult<Pairs> {
    let hasher = KeyHasher::get();
    let (build_rows, probe_rows) = (build[0].len(), probe[0].len());
    let parts = if parallel {
        let scattered = hashtable::partition(build_rows, &par, |m, out| {
            let mut scratch = K::Scratch::default();
            out.extend((m.start..m.start + m.len).map(|row| {
                match_key::<K>(build, row, &mut scratch).map_or(0, |k| K::hash(hasher, k))
            }))
        })?;
        par.run_tasks(PARTITIONS, |p| {
            BuildTable::<K>::build(build, scattered.slices(p).flatten().copied().collect(), &par)
        })?
    } else {
        vec![BuildTable::<K>::build(build, (0..build_rows as u32).collect(), &par)?]
    };
    let tables = Tables { parts, hasher };
    let by_code = tables.entry_heads(probe)?;
    if by_code.is_some() {
        metrics::counter("exec.encoding.dict_rows").add(probe_rows as u64);
    }
    let parts = par.run_morsels(probe_rows, parallel, |m| {
        let mut out: Pairs = (Vec::with_capacity(m.len), Vec::with_capacity(m.len));
        let rows = m.start..m.start + m.len;
        match &by_code {
            Some((codes, heads)) => {
                let valid = probe[0].validity();
                for row in rows {
                    let valid = valid.is_none_or(|bm| bm.get(row));
                    let head = if valid { heads[codes[row] as usize] } else { UNMATCHED };
                    tables.emit(row, head, keep_unmatched, &mut out);
                }
            }
            None => {
                let mut scratch = K::Scratch::default();
                for row in rows {
                    let head = tables.head(probe, row, &mut scratch);
                    tables.emit(row, head, keep_unmatched, &mut out);
                }
            }
        }
        Ok(out)
    })?;
    let (probe_parts, build_parts) = parts.into_iter().unzip();
    Ok((concat_parts(probe_parts), concat_parts(build_parts)))
}

/// Restores canonical left-row order after a left build: takes the matched
/// `(left, right)` pairs in probe (right-row) order and returns the output
/// index vectors in `(left row, right row)` order — exactly what the
/// right-build probe emits — with, for LEFT joins, unmatched left rows
/// NULL-padded in position.
fn restore_left_order(
    left_rows: usize,
    left_idx: &[Option<u32>],
    right_idx: &[u32],
    join_type: JoinType,
) -> (Vec<u32>, Vec<Option<u32>>) {
    // Pairs arrive in ascending right-row order (morsel results are
    // concatenated in morsel order). A stable counting scatter keyed on
    // the left row therefore yields full (l, r) order in O(pairs + left
    // rows); the left side is small by the optimizer's swap rule, so this
    // beats a comparison sort over the match set. Each left row owns a
    // block of output slots, one per match — and under a LEFT join at
    // least one, which stays NULL-padded when nothing matched.
    let min_slots = usize::from(join_type == JoinType::Left);
    let mut starts = vec![0usize; left_rows + 1];
    for l in left_idx.iter().flatten() {
        starts[*l as usize + 1] += 1; // match counts, turned into offsets next
    }
    for l in 0..left_rows {
        starts[l + 1] = starts[l] + starts[l + 1].max(min_slots);
    }
    let total = starts[left_rows];
    let mut lidx = vec![0u32; total];
    let mut ridx: Vec<Option<u32>> = vec![None; total];
    for l in 0..left_rows {
        lidx[starts[l]..starts[l + 1]].fill(l as u32);
    }
    // The scatter writes straight into the output index vectors, advancing
    // each block's start as its cursor.
    for (l, &r) in left_idx.iter().zip(right_idx) {
        let Some(l) = l else { continue };
        let slot = &mut starts[*l as usize];
        ridx[*slot] = Some(r);
        *slot += 1;
    }
    (lidx, ridx)
}

fn cross_join(left: &Batch, right: &Batch) -> DbResult<Batch> {
    let (ln, rn) = (left.rows(), right.rows());
    let total = ln
        .checked_mul(rn)
        .ok_or_else(|| DbError::Arithmetic("cross join result size overflows".into()))?;
    let mut lidx = Vec::with_capacity(total);
    let mut ridx = Vec::with_capacity(total);
    for l in 0..ln as u32 {
        for r in 0..rn as u32 {
            lidx.push(l);
            ridx.push(Some(r));
        }
    }
    assemble(left, right, &lidx, &ridx)
}

fn assemble(left: &Batch, right: &Batch, lidx: &[u32], ridx: &[Option<u32>]) -> DbResult<Batch> {
    let mut fields = Vec::with_capacity(left.width() + right.width());
    fields.extend(left.schema().fields().iter().cloned());
    // Right-side fields become nullable under a left join's NULL padding.
    let pad = ridx.iter().any(Option::is_none);
    for f in right.schema().fields() {
        let mut f = f.clone();
        if pad {
            f.nullable = true;
        }
        fields.push(f);
    }
    let schema = Arc::new(Schema::new_unchecked(fields));
    let mut columns = Vec::with_capacity(left.width() + right.width());
    for c in left.columns() {
        columns.push(Arc::new(c.take(lidx)));
    }
    // With no padding every index is Some and the plain-take fast path
    // applies; collect() falls back to take_opt if that ever doesn't hold.
    let all_some: Option<Vec<u32>> = if pad { None } else { ridx.iter().copied().collect() };
    for c in right.columns() {
        let col = match &all_some {
            Some(plain) => c.take(plain),
            None => c.take_opt(ridx),
        };
        columns.push(Arc::new(col));
    }
    Batch::new(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::types::Value;

    /// The canonical run: right build, one partition, one morsel.
    fn join(l: &Batch, r: &Batch, lk: &[usize], rk: &[usize], jt: JoinType) -> Batch {
        hash_join(l, r, lk, rk, jt, false, Parallelism::serial()).unwrap().0
    }

    /// Joins on column 0 of both sides under an explicit build side and
    /// policy, also returning whether the parallel run engaged.
    fn join0(
        l: &Batch,
        r: &Batch,
        jt: JoinType,
        build_left: bool,
        par: Parallelism,
    ) -> (Batch, bool) {
        hash_join(l, r, &[0], &[0], jt, build_left, par).unwrap()
    }

    fn orders() -> Batch {
        Batch::from_columns(vec![
            ("order_id", Column::from_i32s(vec![100, 101, 102, 103])),
            ("cust", Column::from_opt_i32s(vec![Some(1), Some(2), Some(1), None])),
        ])
        .unwrap()
    }

    fn customers() -> Batch {
        Batch::from_columns(vec![
            ("cust_id", Column::from_i32s(vec![1, 3])),
            ("name", Column::from_strings(["alice", "carol"])),
        ])
        .unwrap()
    }

    #[test]
    fn inner_join_matches() {
        let out = join(&orders(), &customers(), &[1], &[0], JoinType::Inner);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0)[0], Value::Int32(100));
        assert_eq!(out.row(0)[3], Value::Varchar("alice".into()));
        assert_eq!(out.row(1)[0], Value::Int32(102));
    }

    #[test]
    fn left_join_pads_with_nulls() {
        let out = join(&orders(), &customers(), &[1], &[0], JoinType::Left);
        assert_eq!(out.rows(), 4);
        // order 101 (cust 2) has no match: right side NULL.
        let row = out.row(1);
        assert_eq!(row[0], Value::Int32(101));
        assert!(row[2].is_null() && row[3].is_null());
        // NULL key never matches but is kept by LEFT.
        let row = out.row(3);
        assert_eq!(row[0], Value::Int32(103));
        assert!(row[2].is_null());
    }

    #[test]
    fn null_keys_never_match_inner() {
        let l = Batch::from_columns(vec![("k", Column::from_opt_i32s(vec![None]))]).unwrap();
        let r = Batch::from_columns(vec![("k", Column::from_opt_i32s(vec![None]))]).unwrap();
        let out = join(&l, &r, &[0], &[0], JoinType::Inner);
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        let l = Batch::from_columns(vec![("k", Column::from_i32s(vec![1, 1]))]).unwrap();
        let r = Batch::from_columns(vec![("k", Column::from_i32s(vec![1, 1, 1]))]).unwrap();
        let out = join(&l, &r, &[0], &[0], JoinType::Inner);
        assert_eq!(out.rows(), 6);
    }

    #[test]
    fn string_keys_general_path() {
        let l = Batch::from_columns(vec![
            ("name", Column::from_strings(["a", "b", "c"])),
            ("v", Column::from_i32s(vec![1, 2, 3])),
        ])
        .unwrap();
        let r = Batch::from_columns(vec![
            ("name", Column::from_strings(["b", "c", "d"])),
            ("w", Column::from_i32s(vec![20, 30, 40])),
        ])
        .unwrap();
        let out = join(&l, &r, &[0], &[0], JoinType::Inner);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0)[3], Value::Int32(20));
    }

    #[test]
    fn multi_key_join() {
        let l = Batch::from_columns(vec![
            ("a", Column::from_i32s(vec![1, 1, 2])),
            ("b", Column::from_strings(["x", "y", "x"])),
        ])
        .unwrap();
        let r = Batch::from_columns(vec![
            ("a", Column::from_i32s(vec![1, 2])),
            ("b", Column::from_strings(["y", "x"])),
            ("p", Column::from_i32s(vec![7, 8])),
        ])
        .unwrap();
        let out = join(&l, &r, &[0, 1], &[0, 1], JoinType::Inner);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0)[4], Value::Int32(7));
        assert_eq!(out.row(1)[4], Value::Int32(8));
    }

    #[test]
    fn cross_join_products() {
        let out = join(&orders(), &customers(), &[], &[], JoinType::Cross);
        assert_eq!(out.rows(), 8);
        assert_eq!(out.width(), 4);
    }

    #[test]
    fn cross_int_widths_match() {
        let l = Batch::from_columns(vec![("k", Column::from_i32s(vec![7]))]).unwrap();
        let r = Batch::from_columns(vec![("k", Column::from_i64s(vec![7]))]).unwrap();
        let out = join(&l, &r, &[0], &[0], JoinType::Inner);
        assert_eq!(out.rows(), 1);
    }

    #[test]
    fn empty_inputs() {
        let l = Batch::from_columns(vec![("k", Column::from_i32s(vec![]))]).unwrap();
        let out = join(&l, &customers(), &[0], &[0], JoinType::Inner);
        assert_eq!(out.rows(), 0);
        assert_eq!(out.width(), 3);
        let out = join(&customers(), &l, &[0], &[0], JoinType::Left);
        assert_eq!(out.rows(), 2);
        assert!(out.row(0)[2].is_null());
    }

    fn force_par() -> Parallelism {
        Parallelism { threads: 4, threshold: 1, morsel_rows: 3, deadline: None }
    }

    #[test]
    fn parallel_join_matches_serial_int_keys() {
        let l = Batch::from_columns(vec![
            (
                "k",
                Column::from_opt_i32s(
                    (0..100).map(|i| if i % 7 == 0 { None } else { Some(i % 13) }).collect(),
                ),
            ),
            ("v", Column::from_i32s((0..100).collect())),
        ])
        .unwrap();
        let r = Batch::from_columns(vec![
            (
                "k",
                Column::from_opt_i32s(
                    (0..40).map(|i| if i % 5 == 0 { None } else { Some(i % 11) }).collect(),
                ),
            ),
            ("w", Column::from_i32s((100..140).collect())),
        ])
        .unwrap();
        for jt in [JoinType::Inner, JoinType::Left] {
            let serial = join(&l, &r, &[0], &[0], jt);
            let (parallel, ran) = join0(&l, &r, jt, false, force_par());
            assert!(ran);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn parallel_join_matches_serial_byte_keys() {
        let names: Vec<String> = (0..60).map(|i| format!("n{}", i % 9)).collect();
        let l = Batch::from_columns(vec![
            ("name", Column::from_strings(names.iter().map(String::as_str))),
            ("v", Column::from_i32s((0..60).collect())),
        ])
        .unwrap();
        let rnames: Vec<String> = (0..20).map(|i| format!("n{}", i % 6)).collect();
        let r = Batch::from_columns(vec![
            ("name", Column::from_strings(rnames.iter().map(String::as_str))),
            ("w", Column::from_i32s((0..20).collect())),
        ])
        .unwrap();
        for jt in [JoinType::Inner, JoinType::Left] {
            let serial = join(&l, &r, &[0], &[0], jt);
            let (parallel, ran) = join0(&l, &r, jt, false, force_par());
            assert!(ran);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn build_left_matches_canonical_int_keys() {
        let l = Batch::from_columns(vec![
            (
                "k",
                Column::from_opt_i32s(
                    (0..100).map(|i| if i % 7 == 0 { None } else { Some(i % 13) }).collect(),
                ),
            ),
            ("v", Column::from_i32s((0..100).collect())),
        ])
        .unwrap();
        let r = Batch::from_columns(vec![
            (
                "k",
                Column::from_opt_i32s(
                    (0..40).map(|i| if i % 5 == 0 { None } else { Some(i % 11) }).collect(),
                ),
            ),
            ("w", Column::from_i32s((100..140).collect())),
        ])
        .unwrap();
        for jt in [JoinType::Inner, JoinType::Left] {
            let canonical = join(&l, &r, &[0], &[0], jt);
            let (swapped, ran) = join0(&l, &r, jt, true, Parallelism::serial());
            assert!(!ran);
            assert_eq!(canonical, swapped, "{jt:?} serial");
            let (swapped_par, ran) = join0(&l, &r, jt, true, force_par());
            assert!(ran);
            assert_eq!(canonical, swapped_par, "{jt:?} parallel");
        }
    }

    #[test]
    fn build_left_matches_canonical_byte_keys() {
        let names: Vec<String> = (0..60).map(|i| format!("n{}", i % 9)).collect();
        let l = Batch::from_columns(vec![
            ("name", Column::from_strings(names.iter().map(String::as_str))),
            ("v", Column::from_i32s((0..60).collect())),
        ])
        .unwrap();
        let rnames: Vec<String> = (0..20).map(|i| format!("n{}", i % 6)).collect();
        let r = Batch::from_columns(vec![
            ("name", Column::from_strings(rnames.iter().map(String::as_str))),
            ("w", Column::from_i32s((0..20).collect())),
        ])
        .unwrap();
        for jt in [JoinType::Inner, JoinType::Left] {
            let canonical = join(&l, &r, &[0], &[0], jt);
            let (swapped, ran) = join0(&l, &r, jt, true, Parallelism::serial());
            assert!(!ran);
            assert_eq!(canonical, swapped, "{jt:?} serial");
            let (swapped_par, ran) = join0(&l, &r, jt, true, force_par());
            assert!(ran);
            assert_eq!(canonical, swapped_par, "{jt:?} parallel");
        }
    }

    #[test]
    fn build_left_duplicate_keys_and_empty_sides() {
        let l = Batch::from_columns(vec![("k", Column::from_i32s(vec![1, 1]))]).unwrap();
        let r = Batch::from_columns(vec![("k", Column::from_i32s(vec![1, 1, 1]))]).unwrap();
        assert_eq!(
            join(&l, &r, &[0], &[0], JoinType::Inner),
            join0(&l, &r, JoinType::Inner, true, Parallelism::serial()).0
        );
        let empty = Batch::from_columns(vec![("k", Column::from_i32s(vec![]))]).unwrap();
        for jt in [JoinType::Inner, JoinType::Left] {
            assert_eq!(
                join(&l, &empty, &[0], &[0], jt),
                join0(&l, &empty, jt, true, Parallelism::serial()).0
            );
            assert_eq!(
                join(&empty, &r, &[0], &[0], jt),
                join0(&empty, &r, jt, true, Parallelism::serial()).0
            );
        }
    }

    #[test]
    fn parallel_join_below_threshold_is_serial() {
        let par = Parallelism { threads: 4, threshold: 1_000_000, morsel_rows: 3, deadline: None };
        let (out, ran) =
            hash_join(&orders(), &customers(), &[1], &[0], JoinType::Inner, false, par).unwrap();
        assert!(!ran);
        let serial = join(&orders(), &customers(), &[1], &[0], JoinType::Inner);
        assert_eq!(out, serial);
    }
}
