//! Debug-build lock-order tracker — the runtime companion to the static
//! lock-discipline pass in `cargo xtask analyze`.
//!
//! The static pass can prove a *file* never nests acquisitions, but the
//! pool, the caches, and the upcoming event-loop server compose locks
//! across crates at runtime. [`TrackedMutex`] is a thin wrapper over
//! [`super::locks::Mutex`] that, in debug builds, records per-thread
//! acquisition stacks and maintains a global acquired-while-held graph
//! over lock *names*. An acquisition that would close a cycle in that
//! graph — the classic AB/BA deadlock shape — is reported as a typed
//! [`LockOrderViolation`] (never a panic: the tracker observes, the
//! chaos/interleave suites assert) and ticks the
//! `analyze.lock_order.violations` counter so the tracker is itself
//! observable. Release builds compile the bookkeeping out: `lock()` is
//! exactly a [`super::locks::Mutex`] lock.
//!
//! Names act as lock *ranks*: every `TrackedMutex` guarding the same
//! resource class shares one name, and acquiring a name already held by
//! the current thread (same-rank nesting) is reported too, because the
//! non-reentrant mutex would self-deadlock on a true re-entry.

use super::locks::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{MutexGuard, OnceLock};

/// A mutex whose acquisitions are (in debug builds) recorded in the
/// global lock-order graph under a static rank `name`.
pub struct TrackedMutex<T: ?Sized> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` under the rank `name`.
    pub fn new(name: &'static str, value: T) -> TrackedMutex<T> {
        TrackedMutex { name, inner: Mutex::new(value) }
    }

    /// This lock's rank name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the lock. Debug builds record the acquisition against the
    /// current thread's held set and report any ordering cycle it closes.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        if cfg!(debug_assertions) {
            on_acquire(self.name);
        }
        TrackedMutexGuard { name: self.name, inner: self.inner.lock() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex").field("name", &self.name).finish_non_exhaustive()
    }
}

/// Guard for a [`TrackedMutex`]; pops the acquisition record on drop.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    name: &'static str,
    inner: MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            on_release(self.name);
        }
    }
}

/// One detected ordering violation: acquiring `acquiring` while `held`
/// was held would close the `cycle` (a name path from `acquiring` back
/// to `held` already recorded in the graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderViolation {
    /// The rank already held by the thread.
    pub held: String,
    /// The rank whose acquisition closed (or would close) the cycle.
    pub acquiring: String,
    /// The recorded acquired-after path `acquiring → … → held` that the
    /// new `held → acquiring` edge contradicts. For same-rank nesting
    /// this is just `[name]`.
    pub cycle: Vec<String>,
    /// Name of the thread that observed the violation.
    pub thread: String,
}

impl fmt::Display for LockOrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.held == self.acquiring {
            write!(
                f,
                "lock-order violation on thread '{}': re-acquiring rank '{}' already held",
                self.thread, self.acquiring
            )
        } else {
            write!(
                f,
                "lock-order violation on thread '{}': acquiring '{}' while holding '{}' \
                 inverts recorded order {}",
                self.thread,
                self.acquiring,
                self.held,
                self.cycle.join(" -> ")
            )
        }
    }
}

/// The global acquired-while-held graph and the violations it has seen.
#[derive(Default)]
struct OrderState {
    /// Edge `a → b`: some thread acquired `b` while holding `a`.
    edges: BTreeMap<&'static str, BTreeSet<&'static str>>,
    violations: Vec<LockOrderViolation>,
}

/// The tracker's own state lock is a *plain* mutex on purpose: a
/// tracked one would recurse into this module.
fn state() -> &'static Mutex<OrderState> {
    static STATE: OnceLock<Mutex<OrderState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(OrderState::default()))
}

thread_local! {
    /// Ranks currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Shortest recorded path `from → … → to` in the edge graph, if any.
fn path(
    edges: &BTreeMap<&'static str, BTreeSet<&'static str>>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut out = vec![to.to_owned()];
            let mut cur = to;
            while let Some(&p) = prev.get(cur) {
                out.push(p.to_owned());
                cur = p;
            }
            out.reverse();
            return Some(out);
        }
        if let Some(nexts) = edges.get(node) {
            for &n in nexts {
                if n != from && !prev.contains_key(n) {
                    prev.insert(n, node);
                    queue.push_back(n);
                }
            }
        }
    }
    None
}

fn current_thread_name() -> String {
    std::thread::current().name().unwrap_or("<unnamed>").to_owned()
}

/// Records an acquisition of `name`, reporting every cycle it closes.
fn on_acquire(name: &'static str) {
    let held: Vec<&'static str> = HELD.with(|h| h.borrow().clone());
    if !held.is_empty() {
        let mut fresh = Vec::new();
        {
            let mut st = state().lock();
            for &h in &held {
                if h == name {
                    fresh.push(LockOrderViolation {
                        held: h.to_owned(),
                        acquiring: name.to_owned(),
                        cycle: vec![name.to_owned()],
                        thread: current_thread_name(),
                    });
                    continue;
                }
                // Adding h → name closes a cycle iff a path name → … → h
                // is already recorded.
                if let Some(cycle) = path(&st.edges, name, h) {
                    fresh.push(LockOrderViolation {
                        held: h.to_owned(),
                        acquiring: name.to_owned(),
                        cycle,
                        thread: current_thread_name(),
                    });
                }
                st.edges.entry(h).or_default().insert(name);
            }
            st.violations.extend(fresh.iter().cloned());
        }
        // Tick outside the state lock: the metrics registry takes its own
        // (untracked) lock, and the tracker must never nest the two.
        for v in &fresh {
            crate::metrics::counter("analyze.lock_order.violations").incr();
            if std::env::var_os("MLCS_LOCK_ORDER_LOG").is_some() {
                eprintln!("{v}");
            }
        }
    }
    HELD.with(|h| h.borrow_mut().push(name));
}

/// Records a release of `name` (out-of-order guard drops are fine).
fn on_release(name: &'static str) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&n| n == name) {
            held.remove(pos);
        }
    });
}

/// Every violation recorded so far (debug builds; empty in release).
pub fn violations() -> Vec<LockOrderViolation> {
    state().lock().violations.clone()
}

/// Clears the recorded graph and violations. Intended for tests that
/// construct deliberate inversions and must not poison later asserts.
pub fn reset() {
    let mut st = state().lock();
    st.edges.clear();
    st.violations.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The graph and violation list are process-global; tests serialize.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static G: OnceLock<Mutex<()>> = OnceLock::new();
        G.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn consistent_order_is_clean() {
        let _g = serial();
        reset();
        let a = TrackedMutex::new("test.clean.a", 0);
        let b = TrackedMutex::new("test.clean.b", 0);
        for _ in 0..3 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(violations().is_empty());
        reset();
    }

    #[test]
    fn inversion_is_reported_once_per_offense() {
        let _g = serial();
        reset();
        let a = TrackedMutex::new("test.inv.a", 0);
        let b = TrackedMutex::new("test.inv.b", 0);
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records a → b
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // b held, acquiring a: a → b recorded ⇒ cycle
        }
        let vs = violations();
        if cfg!(debug_assertions) {
            assert_eq!(vs.len(), 1, "{vs:?}");
            assert_eq!(vs[0].held, "test.inv.b");
            assert_eq!(vs[0].acquiring, "test.inv.a");
            assert_eq!(vs[0].cycle, vec!["test.inv.a".to_owned(), "test.inv.b".to_owned()]);
            assert!(vs[0].to_string().contains("test.inv.a -> test.inv.b"));
        } else {
            assert!(vs.is_empty());
        }
        reset();
    }

    #[test]
    fn same_rank_nesting_is_reported() {
        let _g = serial();
        reset();
        let a1 = TrackedMutex::new("test.same", 0);
        let a2 = TrackedMutex::new("test.same", 0);
        {
            let _g1 = a1.lock();
            let _g2 = a2.lock(); // distinct instances, same rank
        }
        let vs = violations();
        if cfg!(debug_assertions) {
            assert_eq!(vs.len(), 1);
            assert_eq!(vs[0].held, vs[0].acquiring);
            assert!(vs[0].to_string().contains("re-acquiring"));
        } else {
            assert!(vs.is_empty());
        }
        reset();
    }

    #[test]
    fn three_lock_cycle_detected() {
        let _g = serial();
        reset();
        let a = TrackedMutex::new("test.tri.a", 0);
        let b = TrackedMutex::new("test.tri.b", 0);
        let c = TrackedMutex::new("test.tri.c", 0);
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a → b
        }
        {
            let _gb = b.lock();
            let _gc = c.lock(); // b → c
        }
        {
            let _gc = c.lock();
            let _ga = a.lock(); // c held, acquiring a: path a → b → c exists
        }
        let vs = violations();
        if cfg!(debug_assertions) {
            assert_eq!(vs.len(), 1);
            assert_eq!(
                vs[0].cycle,
                vec!["test.tri.a".to_owned(), "test.tri.b".to_owned(), "test.tri.c".to_owned()]
            );
        } else {
            assert!(vs.is_empty());
        }
        reset();
    }

    #[test]
    fn guard_drop_releases_rank() {
        let _g = serial();
        reset();
        let a = TrackedMutex::new("test.rel.a", 0);
        let b = TrackedMutex::new("test.rel.b", 0);
        {
            let ga = a.lock();
            drop(ga);
            let _gb = b.lock(); // a no longer held: no edge, no cycle later
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // records b → a; no a → b edge exists
        }
        assert!(violations().is_empty());
        reset();
    }

    #[test]
    fn tracked_mutex_guards_data() {
        let m = TrackedMutex::new("test.data", vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.lock().len(), 3);
        assert_eq!(m.name(), "test.data");
        assert!(format!("{m:?}").contains("test.data"));
    }
}
