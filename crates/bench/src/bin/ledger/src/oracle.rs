//! Expected results for `sql_analytics`, computed in plain Rust from the
//! generated vectors: BTreeMap group-by, sort-merge join, `sort_unstable`.
//! Nothing here calls the engine, so an engine bug cannot hide by being
//! wrong the same way on both sides.

use crate::gen::mix;
use mlcs_columnar::{Batch, DataType};
use std::collections::{BTreeMap, BTreeSet};

/// One result cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Float(f64),
    Str(String),
}

const NULL_BITS: u64 = 0x6E75_6C6C_6E75_6C6C;
const ROW_SEED: u64 = 0x243F_6A88_85A3_08D3;

fn str_bits(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

impl Cell {
    fn bits(&self) -> u64 {
        match self {
            Cell::Int(v) => *v as u64,
            Cell::Float(v) => v.to_bits(),
            Cell::Str(s) => str_bits(s),
        }
    }
}

/// What a result must look like: its row count and a 64-bit digest of its
/// cells. The digest of an unordered result does not depend on row
/// order; the digest of an ordered one does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub rows: usize,
    pub digest: u64,
    pub ordered: bool,
}

/// Folds per-row hashes into a digest.
fn fold_rows(row_hashes: impl Iterator<Item = u64>, ordered: bool) -> u64 {
    row_hashes
        .enumerate()
        .map(|(i, h)| if ordered { mix(h ^ mix(i as u64 + 1)) } else { mix(h) })
        .fold(0u64, u64::wrapping_add)
}

/// The expectation for rows produced by an oracle.
pub fn expect_rows(rows: &[Vec<Cell>], ordered: bool) -> Expect {
    let hashes = rows.iter().map(|r| r.iter().fold(ROW_SEED, |h, c| mix(h ^ c.bits())));
    Expect { rows: rows.len(), digest: fold_rows(hashes, ordered), ordered }
}

/// The same digest over an engine result, column by column.
pub fn digest_batch(batch: &Batch, ordered: bool) -> Expect {
    let mut hashes = vec![ROW_SEED; batch.rows()];
    for col in batch.columns() {
        let col = col.decoded();
        let dtype = col.data_type();
        for (i, h) in hashes.iter_mut().enumerate() {
            let bits = if col.is_null(i) {
                NULL_BITS
            } else if dtype.is_float() {
                col.f64_at(i).map_or(NULL_BITS, f64::to_bits)
            } else if dtype == DataType::Varchar {
                col.value(i).as_str().map_or(NULL_BITS, str_bits)
            } else {
                col.i64_at(i).map_or(NULL_BITS, |v| v as u64)
            };
            *h = mix(*h ^ bits);
        }
    }
    Expect { rows: batch.rows(), digest: fold_rows(hashes.into_iter(), ordered), ordered }
}

/// `None` when `batch` is the expected result, else what differs.
pub fn mismatch(batch: &Batch, expect: &Expect) -> Option<String> {
    let got = digest_batch(batch, expect.ordered);
    (got != *expect).then(|| {
        format!(
            "expected {} rows digest {:016x}, got {} rows digest {:016x}",
            expect.rows, expect.digest, got.rows, got.digest
        )
    })
}

/// The generated `fact` table, as plain vectors.
#[derive(Debug, Clone, Default)]
pub struct Fact {
    pub id: Vec<i64>,
    pub k: Vec<i32>,
    pub g: Vec<i32>,
    pub v: Vec<i32>,
    pub x: Vec<f64>,
    pub cat: Vec<String>,
}

impl Fact {
    pub fn rows(&self) -> usize {
        self.id.len()
    }
}

/// A dimension table: unique `key`, payload `w`.
#[derive(Debug, Clone, Default)]
pub struct Dim {
    pub key: Vec<i32>,
    pub w: Vec<i32>,
}

/// `SELECT id FROM fact WHERE v < limit`
pub fn filter(f: &Fact, limit: i32) -> Vec<Vec<Cell>> {
    (0..f.rows()).filter(|&i| f.v[i] < limit).map(|i| vec![Cell::Int(f.id[i])]).collect()
}

/// `SELECT COUNT(*), SUM(v) FROM fact WHERE cat = wanted`
pub fn dict_filter(f: &Fact, wanted: &str) -> Vec<Vec<Cell>> {
    let hits = (0..f.rows()).filter(|&i| f.cat[i] == wanted);
    let (n, sum) = hits.fold((0i64, 0i64), |(n, s), i| (n + 1, s + f.v[i] as i64));
    vec![vec![Cell::Int(n), Cell::Int(sum)]]
}

/// `SELECT id, v * 2 + k, x * 0.5 FROM fact`
pub fn project(f: &Fact) -> Vec<Vec<Cell>> {
    (0..f.rows())
        .map(|i| {
            vec![
                Cell::Int(f.id[i]),
                Cell::Int(f.v[i] as i64 * 2 + f.k[i] as i64),
                Cell::Float(f.x[i] * 0.5),
            ]
        })
        .collect()
}

/// `SELECT k, COUNT(*), SUM(v), SUM(x) FROM fact GROUP BY k`
pub fn groupby_low(f: &Fact) -> Vec<Vec<Cell>> {
    let mut groups: BTreeMap<i32, (i64, i64, f64)> = BTreeMap::new();
    for i in 0..f.rows() {
        let slot = groups.entry(f.k[i]).or_default();
        slot.0 += 1;
        slot.1 += f.v[i] as i64;
        slot.2 += f.x[i];
    }
    groups
        .into_iter()
        .map(|(k, (n, sv, sx))| {
            vec![Cell::Int(k as i64), Cell::Int(n), Cell::Int(sv), Cell::Float(sx)]
        })
        .collect()
}

/// `SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g`
pub fn groupby_high(f: &Fact) -> Vec<Vec<Cell>> {
    let mut groups: BTreeMap<i32, (i64, i64)> = BTreeMap::new();
    for i in 0..f.rows() {
        let slot = groups.entry(f.g[i]).or_default();
        slot.0 += 1;
        slot.1 += f.v[i] as i64;
    }
    groups
        .into_iter()
        .map(|(g, (n, sv))| vec![Cell::Int(g as i64), Cell::Int(n), Cell::Int(sv)])
        .collect()
}

/// `SELECT COUNT(*), SUM(d.w) FROM fact f JOIN dim d ON f.<probe> = d.key`
/// by sort-merge: both key lists sorted, then walked once.
pub fn join_sum(probe: &[i32], dim: &Dim) -> Vec<Vec<Cell>> {
    let mut left = probe.to_vec();
    left.sort_unstable();
    let mut right: Vec<(i32, i32)> = dim.key.iter().copied().zip(dim.w.iter().copied()).collect();
    right.sort_unstable();
    let (mut n, mut sum) = (0i64, 0i64);
    let mut r = 0;
    for key in left {
        while r < right.len() && right[r].0 < key {
            r += 1;
        }
        // Duplicate build keys would each match; walk the whole run.
        let mut m = r;
        while m < right.len() && right[m].0 == key {
            n += 1;
            sum += right[m].1 as i64;
            m += 1;
        }
    }
    vec![vec![Cell::Int(n), Cell::Int(sum)]]
}

/// `SELECT DISTINCT k, cat FROM fact`
pub fn distinct(f: &Fact) -> Vec<Vec<Cell>> {
    let set: BTreeSet<(i32, &str)> = (0..f.rows()).map(|i| (f.k[i], f.cat[i].as_str())).collect();
    set.into_iter().map(|(k, cat)| vec![Cell::Int(k as i64), Cell::Str(cat.to_owned())]).collect()
}

/// `SELECT id, v FROM fact WHERE k < below ORDER BY v, id`
pub fn sort(f: &Fact, below: i32) -> Vec<Vec<Cell>> {
    let mut rows: Vec<(i32, i64)> =
        (0..f.rows()).filter(|&i| f.k[i] < below).map(|i| (f.v[i], f.id[i])).collect();
    rows.sort_unstable();
    rows.into_iter().map(|(v, id)| vec![Cell::Int(id), Cell::Int(v as i64)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql_analytics::{generate, Tables};

    fn small() -> Tables {
        generate(1000, 42)
    }

    #[test]
    fn filter_and_dict_filter_agree_with_direct_counts() {
        let t = small();
        let rows = filter(&t.fact, 10_000);
        assert_eq!(rows.len(), t.fact.v.iter().filter(|&&v| v < 10_000).count());
        assert!(rows
            .iter()
            .all(|r| matches!(r[0], Cell::Int(id) if t.fact.v[id as usize] < 10_000)));
        let total: i64 = (0..16)
            .map(|c| match dict_filter(&t.fact, &format!("c{c:02}"))[0][0] {
                Cell::Int(n) => n,
                _ => unreachable!(),
            })
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn group_bys_partition_the_table() {
        let t = small();
        for rows in [groupby_low(&t.fact), groupby_high(&t.fact)] {
            let count: i64 = rows.iter().map(|r| if let Cell::Int(n) = r[1] { n } else { 0 }).sum();
            let sum: i64 = rows.iter().map(|r| if let Cell::Int(s) = r[2] { s } else { 0 }).sum();
            assert_eq!(count, 1000);
            assert_eq!(sum, t.fact.v.iter().map(|&v| v as i64).sum::<i64>());
            assert!(rows.windows(2).all(|w| w[0][0] != w[1][0]), "a key appears twice");
        }
        let sx: f64 = groupby_low(&t.fact)
            .iter()
            .map(|r| if let Cell::Float(s) = r[3] { s } else { 0.0 })
            .sum();
        assert_eq!(sx, t.fact.x.iter().sum::<f64>(), "multiples of 1/8 sum exactly");
    }

    #[test]
    fn sort_merge_join_equals_nested_loops() {
        let t = small();
        for (probe, dim) in [(&t.fact.k, &t.dim), (&t.fact.g, &t.big_dim)] {
            let (mut n, mut sum) = (0i64, 0i64);
            for p in probe {
                for (key, w) in dim.key.iter().zip(&dim.w) {
                    if p == key {
                        n += 1;
                        sum += *w as i64;
                    }
                }
            }
            assert_eq!(join_sum(probe, dim), vec![vec![Cell::Int(n), Cell::Int(sum)]]);
            assert_eq!(n, 1000, "every fact row has exactly one partner");
        }
        let dup = Dim { key: vec![1, 1, 2], w: vec![10, 20, 30] };
        assert_eq!(join_sum(&[1, 2, 3], &dup), vec![vec![Cell::Int(3), Cell::Int(60)]]);
    }

    #[test]
    fn distinct_and_sort_are_what_they_say() {
        let t = small();
        let d = distinct(&t.fact);
        let brute: BTreeSet<String> =
            (0..1000).map(|i| format!("{}|{}", t.fact.k[i], t.fact.cat[i])).collect();
        assert_eq!(d.len(), brute.len());
        let s = sort(&t.fact, 10);
        assert_eq!(s.len(), t.fact.k.iter().filter(|&&k| k < 10).count());
        let key = |r: &Vec<Cell>| match (&r[1], &r[0]) {
            (Cell::Int(v), Cell::Int(id)) => (*v, *id),
            _ => unreachable!(),
        };
        assert!(s.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    }

    #[test]
    fn digest_sees_order_only_when_asked_and_sees_every_cell() {
        let rows =
            vec![vec![Cell::Int(1), Cell::Str("a".into())], vec![Cell::Int(2), Cell::Float(0.5)]];
        let swapped: Vec<_> = rows.iter().rev().cloned().collect();
        assert_eq!(expect_rows(&rows, false), expect_rows(&swapped, false));
        assert_ne!(expect_rows(&rows, true).digest, expect_rows(&swapped, true).digest);
        let mut changed = rows.clone();
        changed[1][1] = Cell::Float(0.625);
        assert_ne!(expect_rows(&rows, false).digest, expect_rows(&changed, false).digest);
        let batch = Batch::from_columns(vec![
            ("a", mlcs_columnar::Column::from_i32s(vec![1, 2])),
            ("b", mlcs_columnar::Column::from_f64s(vec![0.25, 0.5])),
        ])
        .unwrap();
        let same =
            vec![vec![Cell::Int(1), Cell::Float(0.25)], vec![Cell::Int(2), Cell::Float(0.5)]];
        assert_eq!(mismatch(&batch, &expect_rows(&same, true)), None);
        assert!(mismatch(&batch, &expect_rows(&rows, true)).is_some());
    }
}
