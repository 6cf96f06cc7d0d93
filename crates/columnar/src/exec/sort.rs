//! Multi-key stable sorting.

use crate::batch::Batch;
use crate::column::Column;
use crate::encoding::{typed, Values};
use crate::error::{DbError, DbResult};
use crate::exec::Parallelism;
use crate::parallel::parallel_map;
use std::borrow::Cow;
use std::cmp::Ordering;

/// One ORDER BY key.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Input column index.
    pub column: usize,
    /// `ASC` (true) or `DESC`.
    pub ascending: bool,
    /// Where NULLs sort. SQL default here: NULLs last under ASC,
    /// first under DESC (i.e. NULLs are "largest").
    pub nulls_first: bool,
}

impl SortKey {
    /// Ascending key with NULLs last.
    pub fn asc(column: usize) -> SortKey {
        SortKey { column, ascending: true, nulls_first: false }
    }

    /// Descending key with NULLs first.
    pub fn desc(column: usize) -> SortKey {
        SortKey { column, ascending: false, nulls_first: true }
    }
}

/// Two non-NULL rows of one key column in [`Values::sql_order`]: NaN
/// above every number, so the order is total.
type RowCmp<'a> = Box<dyn Fn(usize, usize) -> Ordering + Sync + 'a>;

/// One key column resolved once, outside the comparator: its validity and
/// the order of its typed values.
struct KeyCol<'a> {
    col: &'a Column,
    cmp: RowCmp<'a>,
}

impl<'a> KeyCol<'a> {
    fn new(col: &'a Column) -> KeyCol<'a> {
        // An encoded column compares its values through each row's
        // physical index into them.
        let phys = match (col.dict_parts(), col.rle_parts()) {
            (Some((codes, _)), _) => Some(Cow::Borrowed(codes)),
            (_, Some((ends, _))) => {
                let mut rows = Vec::with_capacity(col.len());
                let mut start = 0;
                for (run, &end) in ends.iter().enumerate() {
                    rows.resize(rows.len() + (end - start) as usize, run as u32);
                    start = end;
                }
                Some(Cow::Owned(rows))
            }
            _ => None,
        };
        KeyCol { col, cmp: typed!(col.data(), row_cmp(phys)) }
    }
}

fn row_cmp<'a, V: Values + Sync + ?Sized>(v: &'a V, phys: Option<Cow<'a, [u32]>>) -> RowCmp<'a> {
    match phys {
        Some(p) => Box::new(move |a, b| V::sql_order(v.at(p[a] as usize), v.at(p[b] as usize))),
        None => Box::new(move |a, b| V::sql_order(v.at(a), v.at(b))),
    }
}

/// The ORDER BY comparator shared by the per-morsel run sorts and the run
/// merge. `cols` holds the key columns in key order.
fn compare_rows(keys: &[SortKey], cols: &[KeyCol], a: u32, b: u32) -> Ordering {
    for (key, col) in keys.iter().zip(cols) {
        let (ai, bi) = (a as usize, b as usize);
        let an = col.col.is_null(ai);
        let bn = col.col.is_null(bi);
        let ord = match (an, bn) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if key.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if key.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let natural = (col.cmp)(ai, bi);
                if key.ascending {
                    natural
                } else {
                    natural.reverse()
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Merges two sorted runs, taking the left row on ties. Runs always cover
/// contiguous, ascending row ranges (left before right), so left-on-equal
/// preserves stability.
fn merge_runs(a: &[u32], b: &[u32], keys: &[SortKey], cols: &[KeyCol]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if compare_rows(keys, cols, a[i], b[j]) != Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Stable-sorts the batch by the given keys and returns the permuted batch
/// plus whether the morsel-parallel run engaged. Each morsel stable-sorts
/// its own index run, then rounds of pairwise merges (on the pool) combine
/// adjacent runs until one permutation remains. Merge takes the left run
/// on equal keys, so the result is the stable sort of the whole input
/// however it was cut; the serial case is one run and zero merge rounds.
pub fn sort(input: &Batch, keys: &[SortKey], par: Parallelism) -> DbResult<(Batch, bool)> {
    if keys.is_empty() {
        return Ok((input.clone(), false));
    }
    for k in keys {
        if k.column >= input.width() {
            return Err(DbError::internal(format!("sort key column {} out of range", k.column)));
        }
    }
    let cols: Vec<KeyCol> = keys.iter().map(|k| KeyCol::new(input.column(k.column))).collect();
    let parallel = par.enabled(input.rows());
    let mut runs: Vec<Vec<u32>> = par.run_morsels(input.rows(), parallel, |m| {
        let mut idx: Vec<u32> = (m.start as u32..(m.start + m.len) as u32).collect();
        idx.sort_by(|&a, &b| compare_rows(keys, &cols, a, b));
        Ok(idx)
    })?;
    while runs.len() > 1 {
        // An odd run out is carried to the next round unmerged.
        let odd = if runs.len() % 2 == 1 { runs.pop() } else { None };
        let mut merged = parallel_map(runs.len() / 2, 1, par.threads, |m| {
            Ok(merge_runs(&runs[m.start * 2], &runs[m.start * 2 + 1], keys, &cols))
        })?;
        merged.extend(odd);
        runs = merged;
    }
    let perm = runs.pop().unwrap_or_default();
    Ok((input.take(&perm), parallel))
}

/// `LIMIT n OFFSET m` over a batch.
pub fn limit(input: &Batch, limit: Option<usize>, offset: usize) -> Batch {
    let start = offset.min(input.rows());
    let remaining = input.rows() - start;
    let n = limit.unwrap_or(remaining).min(remaining);
    input.slice(start, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::types::Value;

    /// The serial run: one sorted run, no merge.
    fn sorted(b: &Batch, keys: &[SortKey]) -> Batch {
        sort(b, keys, Parallelism::serial()).unwrap().0
    }

    fn batch() -> Batch {
        Batch::from_columns(vec![
            ("g", Column::from_strings(["b", "a", "b", "a"])),
            ("v", Column::from_opt_i32s(vec![Some(2), None, Some(1), Some(9)])),
        ])
        .unwrap()
    }

    #[test]
    fn single_key_ascending() {
        let out = sorted(&batch(), &[SortKey::asc(1)]);
        let vals: Vec<Value> = (0..4).map(|i| out.row(i)[1].clone()).collect();
        assert_eq!(vals[0], Value::Int32(1));
        assert_eq!(vals[1], Value::Int32(2));
        assert_eq!(vals[2], Value::Int32(9));
        assert!(vals[3].is_null(), "NULLs last under ASC");
    }

    #[test]
    fn single_key_descending_nulls_first() {
        let out = sorted(&batch(), &[SortKey::desc(1)]);
        assert!(out.row(0)[1].is_null());
        assert_eq!(out.row(1)[1], Value::Int32(9));
        assert_eq!(out.row(3)[1], Value::Int32(1));
    }

    #[test]
    fn multi_key_sorts_stably() {
        let out = sorted(&batch(), &[SortKey::asc(0), SortKey::asc(1)]);
        // a-group first: (a, 9), (a, NULL) -> 9 before NULL
        assert_eq!(out.row(0)[0], Value::Varchar("a".into()));
        assert_eq!(out.row(0)[1], Value::Int32(9));
        assert!(out.row(1)[1].is_null());
        assert_eq!(out.row(2)[1], Value::Int32(1));
        assert_eq!(out.row(3)[1], Value::Int32(2));
    }

    #[test]
    fn empty_keys_is_identity() {
        let b = batch();
        let out = sorted(&b, &[]);
        assert_eq!(out, b);
    }

    #[test]
    fn limit_and_offset() {
        let b = batch();
        assert_eq!(limit(&b, Some(2), 0).rows(), 2);
        assert_eq!(limit(&b, Some(2), 3).rows(), 1);
        assert_eq!(limit(&b, None, 2).rows(), 2);
        assert_eq!(limit(&b, Some(0), 0).rows(), 0);
        assert_eq!(limit(&b, Some(10), 100).rows(), 0);
    }

    #[test]
    fn out_of_range_key_rejected() {
        assert!(sort(&batch(), &[SortKey::asc(9)], Parallelism::serial()).is_err());
    }

    fn force_par() -> Parallelism {
        Parallelism { threads: 4, threshold: 1, morsel_rows: 5, deadline: None }
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let b = Batch::from_columns(vec![
            (
                "k",
                Column::from_opt_i32s(
                    (0..103)
                        .map(|i| if i % 11 == 0 { None } else { Some((i * 37) % 17) })
                        .collect(),
                ),
            ),
            ("v", Column::from_i32s((0..103).collect())),
        ])
        .unwrap();
        for keys in
            [vec![SortKey::asc(0)], vec![SortKey::desc(0)], vec![SortKey::asc(0), SortKey::desc(1)]]
        {
            let serial = sorted(&b, &keys);
            let parallel = sort(&b, &keys, force_par()).unwrap().0;
            assert_eq!(serial, parallel, "keys: {keys:?}");
        }
    }

    #[test]
    fn parallel_sort_is_stable_like_serial() {
        // Many ties: stability is observable through the tie-broken v order.
        let b = Batch::from_columns(vec![
            ("k", Column::from_i32s((0..64).map(|i| i % 3).collect())),
            ("v", Column::from_i32s((0..64).collect())),
        ])
        .unwrap();
        let serial = sorted(&b, &[SortKey::asc(0)]);
        let parallel = sort(&b, &[SortKey::asc(0)], force_par()).unwrap().0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_sort_out_of_range_key_rejected() {
        assert!(sort(&batch(), &[SortKey::asc(9)], force_par()).is_err());
    }
}
