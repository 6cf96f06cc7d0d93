//! Vectorized relational operators.
//!
//! Operator-at-a-time execution in the MonetDB style: each operator takes
//! whole [`Batch`]es and produces a fully materialized result. The SQL
//! executor ([`crate::sql`]) strings these together; they are also usable
//! directly as a library.
//!
//! Every operator that can run morsel-parallel — [`filter_sel`],
//! [`filter`], [`hash_join`], [`hash_aggregate`] (which is also
//! `DISTINCT`), [`sort()`] (and the executor's projection) — takes a
//! [`Parallelism`] policy and has exactly one body: the input is cut into
//! morsels, each morsel is processed by the same loop, and the per-morsel
//! results are stitched in morsel order. Serial execution is not a second
//! implementation but the run of that body with one morsel spanning the
//! input on the calling thread ([`Parallelism::run_morsels`]), where the
//! stitch is the identity. The hash operators share one table and, in
//! parallel, one radix partition pass (`hashtable`); serially they run
//! one partition. Each such operator also reports whether the
//! morsel-parallel run engaged, so callers (`EXPLAIN ANALYZE`) never
//! re-derive the gate.

pub mod aggregate;
pub(crate) mod hashtable;
pub mod join;
pub mod rowkey;
pub mod sort;

pub use aggregate::{hash_aggregate, AggCall, AggFunc};
pub use join::{hash_join, JoinType};
pub use sort::{limit, sort, SortKey};

use crate::batch::Batch;
use crate::error::{DbError, DbResult};
use crate::expr::{eval_predicate_offset, fuse, EvalContext, Expr};
use crate::metrics;
use crate::parallel::{parallel_map, Morsel, DEFAULT_MORSEL_ROWS};

/// The parallelism policy one operator invocation runs under: how many
/// workers (including the calling thread), above which input size the
/// parallel path engages, and the morsel granularity.
#[derive(Debug, Clone, Copy)]
pub struct Parallelism {
    /// Total workers including the caller; `1` keeps every operator on its
    /// single-morsel run.
    pub threads: usize,
    /// Minimum input rows before the parallel path is taken.
    pub threshold: usize,
    /// Rows per morsel.
    pub morsel_rows: usize,
    /// Wall-clock instant past which the query must abort with
    /// [`DbError::Timeout`]. Checked at morsel boundaries (and at batch
    /// boundaries by the executor), so a runaway operator stops within one
    /// morsel of the deadline rather than running to completion.
    pub deadline: Option<std::time::Instant>,
}

impl Parallelism {
    /// The policy under which every operator runs as a single morsel on
    /// the calling thread.
    pub fn serial() -> Parallelism {
        Parallelism {
            threads: 1,
            threshold: usize::MAX,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            deadline: None,
        }
    }

    /// Whether an input of `rows` rows should run in parallel under this
    /// policy. Empty inputs always run serially (some operators have
    /// special empty-input semantics, e.g. ungrouped aggregation).
    pub fn enabled(&self, rows: usize) -> bool {
        self.threads > 1 && rows >= self.threshold.max(1)
    }

    /// Errors with [`DbError::Timeout`] when the deadline has passed. The
    /// path is left empty here; the executor prepends the operator path as
    /// the error unwinds (see `Exec::view` in `sql/execute.rs`).
    pub fn check_deadline(&self) -> DbResult<()> {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => {
                Err(DbError::Timeout { path: String::new() })
            }
            _ => Ok(()),
        }
    }

    /// Runs `f` over the morsels of a `rows`-row input, results in morsel
    /// order, checking the deadline as each morsel starts. With `parallel`
    /// set the morsels are `morsel_rows` long and spread over the worker
    /// pool; otherwise the input is a single morsel run on the calling
    /// thread. Operators decide `parallel` from [`Parallelism::enabled`]
    /// (plus their own constraints) and write their loop once, over a
    /// morsel. An empty input still runs its one (empty) morsel, so
    /// operators with empty-input semantics need no special case.
    pub fn run_morsels<T, F>(&self, rows: usize, parallel: bool, f: F) -> DbResult<Vec<T>>
    where
        T: Send,
        F: Fn(Morsel) -> DbResult<T> + Send + Sync,
    {
        let checked = |m: Morsel| {
            self.check_deadline()?;
            f(m)
        };
        if parallel {
            parallel_map(rows, self.morsel_rows, self.threads, checked)
        } else {
            Ok(vec![checked(Morsel { start: 0, len: rows })?])
        }
    }

    /// Runs `f` over the task indices `0..count` on the worker pool,
    /// results in index order, checking the deadline as each task starts.
    /// The partitioned operators run one task per partition.
    pub(crate) fn run_tasks<T, F>(&self, count: usize, f: F) -> DbResult<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> DbResult<T> + Send + Sync,
    {
        parallel_map(count, 1, self.threads, |m| {
            self.check_deadline()?;
            f(m.start)
        })
    }
}

/// Concatenates per-morsel result vectors in morsel order, reusing the
/// first morsel's allocation — so a single-morsel run stitches for free.
pub(crate) fn concat_parts<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve(total - out.len());
    for p in parts {
        out.extend(p);
    }
    out
}

/// How a filter evaluation ran: which specialized paths engaged. Surfaced
/// through `EXPLAIN ANALYZE` as `[fused]` / `[parallel]` markers.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterStats {
    /// The predicate compiled to a fused single-pass kernel.
    pub fused: bool,
    /// The morsel-parallel path ran.
    pub parallel: bool,
}

/// Evaluates `predicate` over the context's batch and returns the
/// selection vector of rows where it is TRUE — the late-materialization
/// primitive: callers gather only the columns they go on to touch. Each
/// morsel tries a fused kernel over its slice first (kernels borrow their
/// batch, so nothing needs to be `Send`), falling back to vectorized
/// evaluation; selections carry batch row numbers and are stitched in row
/// order.
pub fn filter_sel(
    ctx: &EvalContext<'_>,
    predicate: &Expr,
    par: Parallelism,
) -> DbResult<(Vec<u32>, FilterStats)> {
    let input = ctx.batch;
    let parallel = par.enabled(input.rows());
    let parts = par.run_morsels(input.rows(), parallel, |m| {
        let slice = input.slice(m.start, m.len);
        let ctx = EvalContext { batch: &slice, ..*ctx };
        let Some(kernel) = fuse::compile(predicate, &ctx) else {
            return Ok((eval_predicate_offset(&ctx, predicate, m.start)?, false));
        };
        let mut sel = Vec::new();
        for i in 0..m.len {
            if kernel.eval(i) == Some(true) {
                sel.push((m.start + i) as u32);
            }
        }
        metrics::counter("expr.fused.rows").add(m.len as u64);
        if kernel.dict_leaves > 0 {
            metrics::counter("exec.encoding.dict_rows")
                .add(m.len as u64 * kernel.dict_leaves as u64);
        }
        Ok((sel, true))
    })?;
    // Slicing preserves encodings, so fusion decides uniformly per morsel.
    let fused = parts.iter().all(|(_, fused)| *fused);
    let sel = concat_parts(parts.into_iter().map(|(s, _)| s).collect());
    Ok((sel, FilterStats { fused, parallel }))
}

/// Filters the context's batch by a predicate expression, returning only
/// rows where it evaluates to TRUE.
pub fn filter(ctx: &EvalContext<'_>, predicate: &Expr, par: Parallelism) -> DbResult<Batch> {
    let input = ctx.batch;
    let (sel, _) = filter_sel(ctx, predicate, par)?;
    if sel.len() == input.rows() {
        return Ok(input.clone()); // nothing filtered out; skip the gather
    }
    Ok(input.take(&sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::{BinaryOp, Expr as E};
    use crate::types::Value;

    #[test]
    fn filter_selects_true_rows() {
        let b = Batch::from_columns(vec![("x", Column::from_i32s(vec![1, 2, 3, 4]))]).unwrap();
        let pred = E::binary(BinaryOp::Gt, E::col(0), E::lit(2i32));
        let out = filter(&EvalContext::new(&b, None), &pred, Parallelism::serial()).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0)[0], Value::Int32(3));
    }

    #[test]
    fn filter_all_pass_is_clone() {
        let b = Batch::from_columns(vec![("x", Column::from_i32s(vec![1, 2]))]).unwrap();
        let out =
            filter(&EvalContext::new(&b, None), &E::lit(true), Parallelism::serial()).unwrap();
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn parallel_filter_matches_serial() {
        let xs: Vec<Option<i32>> =
            (0..100).map(|i| if i % 9 == 0 { None } else { Some((i * 31) % 50) }).collect();
        let b = Batch::from_columns(vec![("x", Column::from_opt_i32s(xs))]).unwrap();
        let pred = E::binary(BinaryOp::Lt, E::col(0), E::lit(20i32));
        let par = Parallelism { threads: 4, threshold: 1, morsel_rows: 7, deadline: None };
        let (serial, st) =
            filter_sel(&EvalContext::new(&b, None), &pred, Parallelism::serial()).unwrap();
        assert!(!st.parallel);
        let (parallel, st) = filter_sel(&EvalContext::new(&b, None), &pred, par).unwrap();
        assert!(st.parallel);
        assert_eq!(serial, parallel);
        assert_eq!(concat_parts::<u32>(vec![]), Vec::<u32>::new());
    }

    /// `DISTINCT`: every column a group key, no aggregates.
    fn distinct(b: &Batch, par: Parallelism) -> DbResult<(Batch, bool)> {
        let keys: Vec<usize> = (0..b.width()).collect();
        hash_aggregate(b, &keys, &[], par)
    }

    #[test]
    fn distinct_dedups_with_nulls() {
        let b = Batch::from_columns(vec![(
            "x",
            Column::from_opt_i32s(vec![Some(1), None, Some(1), None, Some(2)]),
        )])
        .unwrap();
        let par = Parallelism { threads: 4, threshold: 1, morsel_rows: 2, deadline: None };
        for par in [Parallelism::serial(), par] {
            let (out, _) = distinct(&b, par).unwrap();
            assert_eq!(out.schema(), b.schema());
            assert_eq!(out.rows(), 3);
            assert_eq!(out.row(0)[0], Value::Int32(1));
            assert!(out.row(1)[0].is_null());
            assert_eq!(out.row(2)[0], Value::Int32(2));
        }
    }

    #[test]
    fn distinct_multi_column() {
        let b = Batch::from_columns(vec![
            ("a", Column::from_i32s(vec![1, 1, 2])),
            ("b", Column::from_strings(["x", "x", "x"])),
        ])
        .unwrap();
        assert_eq!(distinct(&b, Parallelism::serial()).unwrap().0.rows(), 2);
    }

    #[test]
    fn distinct_honours_the_policy_and_its_deadline() {
        let b =
            Batch::from_columns(vec![("x", Column::from_i32s((0..100).map(|i| i % 9).collect()))])
                .unwrap();
        let par = Parallelism { threads: 4, threshold: 1, morsel_rows: 7, deadline: None };
        let (out, ran_parallel) = distinct(&b, par).unwrap();
        assert!(ran_parallel);
        assert_eq!(out, distinct(&b, Parallelism::serial()).unwrap().0);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        for par in [Parallelism::serial(), par] {
            let late = Parallelism { deadline: Some(past), ..par };
            assert!(matches!(distinct(&b, late), Err(DbError::Timeout { .. })), "{late:?}");
        }
    }
}
