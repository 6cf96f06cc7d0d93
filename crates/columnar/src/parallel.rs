//! Morsel-driven parallelism on a persistent worker pool.
//!
//! The paper lists parallel UDF execution as future work (§5.1); this
//! module implements the substrate for it and for the parallel relational
//! operators in [`crate::exec`]. A column range is split into *morsels* —
//! contiguous row ranges — that workers claim from a shared atomic counter
//! and process independently, with results stitched back in morsel order.
//!
//! Work runs on a **persistent pool**: worker threads are spawned once, on
//! first use, and reused by every subsequent query — never per call. The
//! pool is sized by [`hardware_threads`] (the `MLCS_THREADS` environment
//! override, else `available_parallelism`) at first use. Each
//! [`parallel_map`] call enqueues claim-loop tasks on the pool and then
//! participates as a worker itself, so a map completes even when every
//! pool worker is busy elsewhere; a task that arrives after the morsels
//! are drained simply exits. Calls made *from* a pool worker (nested
//! parallelism, e.g. the `predict` UDF inside a parallel operator) run
//! inline on that worker, which keeps the pool deadlock-free.
//!
//! Two debug/test companions make that claim checkable rather than
//! asserted: [`lock_order`] wraps the pool's own mutexes in a
//! [`TrackedMutex`] that reports lock-ordering cycles as typed
//! diagnostics, and [`interleave`] plants seeded yield points at every
//! scheduling edge so the pool-interleaving suite can drive hundreds of
//! deterministic thread schedules through one binary.

pub mod interleave;
pub mod lock_order;
pub mod locks;

use crate::error::{DbError, DbResult};
use interleave::YieldPoint;
use lock_order::TrackedMutex;
use locks::Mutex;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

/// Default number of rows per morsel. Large enough to amortize dispatch,
/// small enough to load-balance across cores.
pub const DEFAULT_MORSEL_ROWS: usize = 64 * 1024;

/// A contiguous row range `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First row.
    pub start: usize,
    /// Number of rows.
    pub len: usize,
}

/// Splits `rows` into morsels of at most `morsel_rows` rows. A zero
/// `morsel_rows` is treated as one row per morsel.
pub fn morsels(rows: usize, morsel_rows: usize) -> Vec<Morsel> {
    let morsel_rows = morsel_rows.max(1);
    let mut out = Vec::with_capacity(rows.div_ceil(morsel_rows));
    let mut start = 0;
    while start < rows {
        let len = morsel_rows.min(rows - start);
        out.push(Morsel { start, len });
        start += len;
    }
    out
}

/// The thread count the machine provides: the `MLCS_THREADS` environment
/// variable when set to a positive integer (for reproducible runs on
/// shared CI hardware), else `available_parallelism`.
pub fn hardware_threads() -> usize {
    match std::env::var("MLCS_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a requested worker count: `0` means "auto"
/// ([`hardware_threads`]); anything else is taken as given.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        hardware_threads()
    } else {
        requested
    }
}

/// The number of worker threads to use: [`hardware_threads`], capped by
/// the morsel count so tiny inputs do not schedule idle tasks.
pub fn worker_count(num_morsels: usize) -> usize {
    hardware_threads().min(num_morsels).max(1)
}

/// One unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The persistent worker pool: a job queue plus detached worker threads
/// that live for the process lifetime.
struct Pool {
    sender: TrackedMutex<mpsc::Sender<Job>>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set on pool worker threads so nested [`parallel_map`] calls run
    /// inline instead of waiting on queue slots they may be blocking.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Lazily starts (once) and returns the pool.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = hardware_threads().max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(TrackedMutex::new("pool.queue", rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            // A failed spawn leaves the pool smaller; parallel_map still
            // completes because the caller participates in every map.
            let _ = std::thread::Builder::new().name(format!("mlcs-worker-{i}")).spawn(move || {
                IS_POOL_WORKER.with(|f| f.set(true));
                // Handles are resolved once per worker; recording is a
                // relaxed atomic per job.
                let queue_depth = crate::metrics::gauge("pool.queue_depth");
                let completed = crate::metrics::counter("pool.jobs_completed");
                let busy = crate::metrics::histogram("pool.busy_time_ns");
                loop {
                    let job = rx.lock().recv();
                    match job {
                        Ok(job) => {
                            interleave::yield_point(YieldPoint::Steal);
                            queue_depth.add(-1);
                            let start = std::time::Instant::now();
                            // A panicking job must not kill the worker;
                            // the submitting map reports it as a typed
                            // error through its result slots.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                            busy.record_duration(start.elapsed());
                            completed.incr();
                        }
                        Err(_) => break,
                    }
                }
            });
        }
        Pool { sender: TrackedMutex::new("pool.sender", tx), workers }
    })
}

/// The persistent pool's worker-thread count, starting the pool if it has
/// not run yet. Exposed for tests and diagnostics.
pub fn pool_workers() -> usize {
    pool().workers
}

/// Enqueues one task. The send can only fail if every worker is gone
/// (spawn failure at pool startup); callers tolerate lost tasks because
/// the submitting thread always processes the shared work itself.
fn submit(job: Job) {
    interleave::yield_point(YieldPoint::Submit);
    crate::metrics::counter("pool.jobs_submitted").incr();
    crate::metrics::gauge("pool.queue_depth").add(1);
    let _ = pool().sender.lock().send(job);
}

/// Hands one fire-and-forget task to the persistent pool. This is the
/// serving layer's bridge into morsel-land: the netproto reactor decodes
/// a query on an event-loop thread and `spawn`s its execution here, so
/// event loops never block on query work. The job runs under the pool's
/// `catch_unwind` umbrella; a panic inside it is contained to that job
/// (callers that need the panic surfaced should wrap the body in their
/// own `catch_unwind` and forward the result through a channel).
pub fn spawn(job: impl FnOnce() + Send + 'static) {
    submit(Box::new(job));
}

/// Claims and processes task indices until none remain. Runs on pool
/// workers and on the calling thread alike.
fn run_task_loop<T, E, F>(next: &AtomicUsize, slots: &[Mutex<Option<Result<T, E>>>], f: &F)
where
    F: Fn(usize) -> Result<T, E>,
{
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= slots.len() {
            break;
        }
        interleave::yield_point(YieldPoint::Steal);
        let r = f(i);
        interleave::yield_point(YieldPoint::SlotWrite);
        *slots[i].lock() = Some(r);
    }
}

/// Sends a completion signal when dropped, so a helper task that panics
/// mid-task still unblocks the caller's drain.
struct DoneGuard(mpsc::Sender<()>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        interleave::yield_point(YieldPoint::Shutdown);
        let _ = self.0.send(());
    }
}

/// Runs `count` independent indexed tasks on the persistent worker pool,
/// collecting results in index order. This is the scoped building block
/// under [`parallel_map`]: the closure may borrow from the caller's stack
/// (no `'static` bound), which lets callers like `mlcs-ml` fan out over
/// borrowed matrices and models without `Arc`-wrapping or copying.
///
/// `threads` is the total worker count including the calling thread, which
/// always participates; `0` means auto ([`effective_threads`]). Calls from
/// a pool worker (nested parallelism) run inline. The first error in task
/// order is returned; a task whose worker panicked reports `panic_error()`
/// instead of aborting the process.
pub fn parallel_tasks<T, E, F, P>(
    count: usize,
    threads: usize,
    panic_error: P,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Send + Sync,
    P: Fn() -> E,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let mut threads = effective_threads(threads).clamp(1, count);
    if IS_POOL_WORKER.with(Cell::get) {
        threads = 1; // nested call on a pool worker runs inline
    }
    if threads == 1 {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(f(i)?);
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<Result<T, E>>>> = Vec::with_capacity(count);
    slots.resize_with(count, || Mutex::new(None));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    {
        let next = &next;
        let slots = &slots[..];
        let f = &f;
        for _ in 0..threads - 1 {
            let guard = DoneGuard(done_tx.clone());
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                run_task_loop(next, slots, f);
                // The guard's drop sends the done signal; it runs after the
                // task loop has released every borrow (also on unwind, where
                // captured fields drop after the loop's frame).
                drop(guard);
            });
            // SAFETY: the job borrows `next`/`slots`/`f`, which outlive it:
            // every job owns a `DoneGuard` whose drop (normal exit or
            // unwind) signals `done_rx`, and this function drains one
            // signal per job before touching `slots` or returning. After
            // the signal a job only deallocates its closure (no borrow is
            // dereferenced), so extending the lifetime to `'static` for the
            // pool's queue cannot observe freed stack data.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            submit(job);
        }
    }
    drop(done_tx);
    // The caller is one of the workers. Its panics are contained so the
    // helper tasks are always drained before returning — otherwise they
    // could outlive the call and race a later one (or read a dead frame).
    let caller = catch_unwind(AssertUnwindSafe(|| run_task_loop(&next, &slots, &f)));
    loop {
        interleave::yield_point(YieldPoint::Drain);
        if done_rx.recv().is_err() {
            break;
        }
    }
    if caller.is_err() {
        return Err(panic_error());
    }
    let mut out = Vec::with_capacity(count);
    for slot in &slots {
        match slot.lock().take() {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => return Err(panic_error()),
        }
    }
    Ok(out)
}

/// Runs `f` over every morsel of `rows` on the persistent worker pool,
/// collecting results in morsel order into preallocated slots. `f` must be
/// pure with respect to row ranges (each morsel processed independently).
///
/// `threads` is the total worker count including the calling thread, which
/// always participates; `0` means auto ([`effective_threads`]). Errors
/// from any morsel abort the whole operation; the first error in morsel
/// order is returned. A morsel whose worker panicked reports a typed
/// internal error instead of aborting the process.
pub fn parallel_map<T, F>(rows: usize, morsel_rows: usize, threads: usize, f: F) -> DbResult<Vec<T>>
where
    T: Send,
    F: Fn(Morsel) -> DbResult<T> + Send + Sync,
{
    let work = morsels(rows, morsel_rows);
    if work.is_empty() {
        return Ok(Vec::new());
    }
    let actually_parallel =
        effective_threads(threads).clamp(1, work.len()) > 1 && !IS_POOL_WORKER.with(Cell::get);
    if actually_parallel {
        crate::metrics::counter("pool.parallel_maps").incr();
        crate::metrics::counter("pool.morsels").add(work.len() as u64);
    }
    let work = &work;
    parallel_tasks(
        work.len(),
        threads,
        || DbError::internal("parallel worker panicked"),
        |i| f(work[i]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_splitting() {
        assert_eq!(morsels(0, 10), vec![]);
        assert_eq!(morsels(10, 10), vec![Morsel { start: 0, len: 10 }]);
        let m = morsels(25, 10);
        assert_eq!(
            m,
            vec![
                Morsel { start: 0, len: 10 },
                Morsel { start: 10, len: 10 },
                Morsel { start: 20, len: 5 }
            ]
        );
        let total: usize = m.iter().map(|x| x.len).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn zero_morsel_rows_tolerated() {
        assert_eq!(morsels(3, 0).len(), 3);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(1000, 7, 4, |m| Ok(m.start)).unwrap();
        let expected: Vec<usize> = morsels(1000, 7).iter().map(|m| m.start).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_map_computes() {
        // Sum of 0..n via per-morsel partial sums.
        let n = 100_000usize;
        let parts =
            parallel_map(n, 1024, 8, |m| Ok((m.start..m.start + m.len).sum::<usize>())).unwrap();
        assert_eq!(parts.iter().sum::<usize>(), n * (n - 1) / 2);
    }

    #[test]
    fn errors_propagate() {
        let r = parallel_map(100, 10, 4, |m| {
            if m.start == 50 {
                Err(DbError::internal("boom"))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn first_error_in_morsel_order_wins() {
        let r = parallel_map(100, 10, 4, |m| {
            if m.start >= 30 {
                Err(DbError::internal(format!("boom at {}", m.start)))
            } else {
                Ok(())
            }
        });
        match r {
            Err(e) => assert!(e.to_string().contains("boom at 30"), "{e}"),
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(10, 3, 1, |m| Ok(m.len)).unwrap();
        assert_eq!(out, vec![3, 3, 3, 1]);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn nested_parallel_map_completes() {
        // A map whose morsel closure itself calls parallel_map must not
        // deadlock the pool (inner calls run inline on pool workers).
        let out = parallel_map(64, 4, 4, |outer| {
            let inner = parallel_map(32, 4, 4, move |m| Ok(m.len))?;
            Ok(outer.len + inner.iter().sum::<usize>())
        })
        .unwrap();
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|&v| v == 4 + 32));
    }

    #[test]
    fn pool_reused_across_maps() {
        // The pool spawns once: its worker count is stable across calls.
        let before = pool_workers();
        for _ in 0..5 {
            let _ = parallel_map(10_000, 64, 4, |m| Ok(m.len)).unwrap();
        }
        assert_eq!(pool_workers(), before);
    }

    #[test]
    fn parallel_tasks_borrows_stack_data() {
        // The scoped API must accept non-'static closures: sum borrowed
        // chunks without Arc-wrapping or copying.
        let data: Vec<u64> = (0..1000).collect();
        let out = parallel_tasks(
            10,
            4,
            || DbError::internal("panicked"),
            |i| Ok::<u64, DbError>(data[i * 100..(i + 1) * 100].iter().sum()),
        )
        .unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn parallel_tasks_first_error_in_index_order() {
        let r = parallel_tasks(
            100,
            4,
            || DbError::internal("panicked"),
            |i| {
                if i >= 30 {
                    Err(DbError::internal(format!("boom at {i}")))
                } else {
                    Ok(())
                }
            },
        );
        match r {
            Err(e) => assert!(e.to_string().contains("boom at 30"), "{e}"),
            Ok(_) => panic!("expected an error"),
        }
    }

    #[test]
    fn parallel_tasks_panic_maps_to_custom_error() {
        let r = parallel_tasks(
            64,
            4,
            || "worker died",
            |i| {
                if i == 40 {
                    panic!("task panic");
                }
                Ok::<usize, &str>(i)
            },
        );
        assert_eq!(r, Err("worker died"));
    }

    #[test]
    fn parallel_tasks_nested_runs_inline() {
        let out = parallel_tasks(
            8,
            4,
            || DbError::internal("panicked"),
            |outer| {
                let inner =
                    parallel_tasks(8, 4, || DbError::internal("panicked"), Ok::<usize, DbError>)?;
                Ok::<usize, DbError>(outer + inner.iter().sum::<usize>())
            },
        )
        .unwrap();
        assert_eq!(out.len(), 8);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i + 28);
        }
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        let r = parallel_map(100, 10, 4, |m| {
            if m.start == 40 {
                panic!("morsel panic");
            }
            Ok(m.len)
        });
        match r {
            Err(e) => assert!(e.to_string().contains("panicked"), "{e}"),
            Ok(_) => panic!("expected a typed error from the panicking morsel"),
        }
    }
}
