//! Morsel-parallel prediction on the engine's persistent worker pool.
//!
//! Prediction is embarrassingly parallel across rows: every model computes
//! each output row from one input row, so the crate-private helper
//! `fill_rows_parallel` splits the
//! row range into morsels, fills one buffer per morsel on the shared pool
//! (`mlcs_columnar::parallel`), and stitches the buffers back in order.
//! Serial and parallel prediction are bit-identical because each row's
//! floating-point work is unchanged — only the thread that runs it differs.

use crate::dataset::Matrix;
use crate::error::{MlError, MlResult};
use mlcs_columnar::parallel::{morsels, parallel_tasks, Morsel};
use std::cell::Cell;

/// Rows per prediction morsel: small enough to load-balance uneven rows
/// (kNN scans, deep tree paths), large enough to amortize dispatch.
pub(crate) const PREDICT_MORSEL_ROWS: usize = 8 * 1024;

thread_local! {
    /// Per-thread worker-count override for prediction; 0 = pool policy.
    static PREDICT_THREADS: Cell<usize> = const { Cell::new(0) };
}

struct ThreadsGuard(usize);

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        PREDICT_THREADS.with(|t| t.set(self.0));
    }
}

/// Runs `f` with model prediction pinned to `threads` worker threads on the
/// current thread (0 = auto: the pool's `MLCS_THREADS`/core-count policy).
/// Used by single-threaded baselines (the `ml_kernels` bench) and the
/// serial-vs-parallel equivalence tests.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = ThreadsGuard(PREDICT_THREADS.with(|t| t.replace(threads)));
    f()
}

/// The prediction thread override currently in effect (0 = auto).
pub(crate) fn predict_threads() -> usize {
    PREDICT_THREADS.with(Cell::get)
}

/// Fills a `rows × cols` row-major output matrix by computing disjoint row
/// morsels in parallel on the shared pool. `f` receives each morsel and a
/// zeroed output buffer of `morsel.len * cols` values to fill.
pub(crate) fn fill_rows_parallel<F>(rows: usize, cols: usize, f: F) -> MlResult<Matrix>
where
    F: Fn(Morsel, &mut [f64]) -> MlResult<()> + Send + Sync,
{
    let work = morsels(rows, PREDICT_MORSEL_ROWS);
    mlcs_columnar::metrics::counter("ml.predict.morsels").add(work.len() as u64);
    let work = &work[..];
    let parts = parallel_tasks(
        work.len(),
        predict_threads(),
        || MlError::Internal("prediction worker panicked".into()),
        |i| {
            let m = work[i];
            let mut buf = vec![0.0; m.len * cols];
            f(m, &mut buf)?;
            Ok(buf)
        },
    )?;
    let mut data = Vec::with_capacity(rows * cols);
    for part in parts {
        data.extend_from_slice(&part);
    }
    Matrix::new(data, rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_restores_on_exit() {
        assert_eq!(predict_threads(), 0);
        with_threads(3, || {
            assert_eq!(predict_threads(), 3);
            with_threads(1, || assert_eq!(predict_threads(), 1));
            assert_eq!(predict_threads(), 3);
        });
        assert_eq!(predict_threads(), 0);
    }

    #[test]
    fn fill_rows_parallel_stitches_in_row_order() {
        let rows = 3 * PREDICT_MORSEL_ROWS + 17;
        let m = fill_rows_parallel(rows, 2, |morsel, out| {
            for r in 0..morsel.len {
                let global = (morsel.start + r) as f64;
                out[r * 2] = global;
                out[r * 2 + 1] = -global;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(m.rows(), rows);
        assert_eq!(m.cols(), 2);
        for r in [0, 1, PREDICT_MORSEL_ROWS, rows - 1] {
            assert_eq!(m.get(r, 0), r as f64);
            assert_eq!(m.get(r, 1), -(r as f64));
        }
    }

    #[test]
    fn fill_rows_parallel_propagates_errors() {
        let err = fill_rows_parallel(2 * PREDICT_MORSEL_ROWS, 1, |morsel, _| {
            if morsel.start == 0 {
                Err(MlError::BadData("boom".into()))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, MlError::BadData(_)));
    }

    #[test]
    fn fill_rows_parallel_zero_rows() {
        let m = fill_rows_parallel(0, 4, |_, _| Ok(())).unwrap();
        assert_eq!(m.rows(), 0);
    }
}
