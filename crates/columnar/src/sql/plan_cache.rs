//! Prepared-statement / plan cache keyed on SQL text.
//!
//! Repeat traffic — the serving workload the paper cares about, where a
//! trained model answers point predictions for many clients — re-submits
//! the same SQL text over and over. Parsing, binding, and optimizing that
//! text each time is pure overhead, so [`crate::Database`] caches the
//! optimized [`LogicalPlan`] (plus any scalar-subquery plans) per SQL
//! string and replays it on the next hit.
//!
//! **Invalidation** is stamp-based rather than eviction-based: each entry
//! records the catalog and function-registry generations at insert time
//! (a [`CacheStamp`]), and a lookup whose current stamp differs drops the
//! entry. DDL (`CREATE/DROP TABLE`, UDF registration) bumps a generation;
//! DML does not bump generations (plans reference tables by *name* and
//! resolve them at execution time), but it **can** stale a cost-based
//! plan: a join order picked when a table held 1K rows is wrong after
//! the table grows 100×. Each entry therefore also records the scanned
//! tables' row counts at optimize time ([`CachedQuery::table_rows`]),
//! and lookups take a caller-supplied validation closure that drops the
//! entry when the recorded counts have drifted past the caller's
//! threshold (see `Database::stats_drifted`: 2× growth or shrink).
//! Capacity is bounded with LRU eviction.
//!
//! Metrics: `sql.plan_cache.hits`, `sql.plan_cache.misses` (ticked by the
//! database at its lookup/insert sites), `sql.plan_cache.evictions`
//! (ticked here on LRU eviction).

use super::plan::LogicalPlan;
use crate::parallel::locks::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default number of distinct SQL texts the cache retains.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Invalidation stamp: `(catalog generation, function-registry
/// generation)` at the moment a plan was cached.
pub type CacheStamp = (u64, u64);

/// An optimized, verified query plan ready to execute, as cached. A hit
/// runs the plan where it stands: it is neither copied nor re-verified.
#[derive(Debug, Clone)]
pub struct CachedQuery {
    /// The optimized plan, with its scalar-subquery placeholders: each
    /// execution evaluates the subqueries and hands the plan their values
    /// as parameters.
    pub plan: LogicalPlan,
    /// Plans for the statement's scalar subqueries, evaluated fresh on
    /// every execution (their results depend on current table contents).
    pub scalar_subs: Vec<LogicalPlan>,
    /// Row counts of the scanned tables at optimize time, in plan order.
    /// Empty when the plan was optimized without statistics (nothing
    /// cost-based to stale). Lookup validators compare these against the
    /// live counts to force re-optimization after significant growth.
    pub table_rows: Vec<(String, u64)>,
}

#[derive(Debug)]
struct Entry {
    query: Arc<CachedQuery>,
    stamp: CacheStamp,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// A bounded, stamp-invalidated map from SQL text to optimized plans.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache { inner: Mutex::new(Inner::default()), capacity: capacity.max(1) }
    }

    /// Normalizes a SQL text into a cache key: surrounding whitespace and
    /// a trailing semicolon do not create distinct entries.
    fn key(sql: &str) -> &str {
        sql.trim().trim_end_matches(';').trim_end()
    }

    /// Looks up `sql`; a stale entry — stamp mismatch, or rejected by the
    /// caller's `valid` check (e.g. table row counts drifted past the
    /// re-optimization threshold) — is removed and reported as a miss
    /// (`None`). Ticks `sql.plan_cache.hits` only when an entry is
    /// actually served; the caller ticks misses, because only it knows
    /// whether the text is cachable at all.
    pub fn lookup(
        &self,
        sql: &str,
        stamp: CacheStamp,
        valid: impl Fn(&CachedQuery) -> bool,
    ) -> Option<Arc<CachedQuery>> {
        let key = Self::key(sql);
        let hit = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(key) {
                Some(e) if e.stamp == stamp && valid(&e.query) => {
                    e.last_used = tick;
                    Some(Arc::clone(&e.query))
                }
                Some(_) => {
                    inner.map.remove(key);
                    None
                }
                None => None,
            }
        };
        if hit.is_some() {
            crate::metrics::counter("sql.plan_cache.hits").incr();
        }
        hit
    }

    /// Like [`Self::lookup`] but ticks no counters, does not touch LRU
    /// state, and never removes entries — used by EXPLAIN to report
    /// whether a statement *would* hit.
    pub fn probe(
        &self,
        sql: &str,
        stamp: CacheStamp,
        valid: impl Fn(&CachedQuery) -> bool,
    ) -> Option<Arc<CachedQuery>> {
        let key = Self::key(sql);
        let inner = self.inner.lock();
        match inner.map.get(key) {
            Some(e) if e.stamp == stamp && valid(&e.query) => Some(Arc::clone(&e.query)),
            _ => None,
        }
    }

    /// Inserts a plan under `sql`, evicting the least-recently-used entry
    /// if the cache is full (ticks `sql.plan_cache.evictions`).
    pub fn insert(&self, sql: &str, query: impl Into<Arc<CachedQuery>>, stamp: CacheStamp) {
        let key = Self::key(sql).to_owned();
        let evicted = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let mut evicted = false;
            if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
                if let Some(oldest) =
                    inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
                {
                    inner.map.remove(&oldest);
                    evicted = true;
                }
            }
            inner.map.insert(key, Entry { query: query.into(), stamp, last_used: tick });
            evicted
        };
        if evicted {
            crate::metrics::counter("sql.plan_cache.evictions").incr();
        }
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> CachedQuery {
        CachedQuery { plan: LogicalPlan::UnitRow, scalar_subs: Vec::new(), table_rows: Vec::new() }
    }

    #[test]
    fn hit_after_insert_under_same_stamp() {
        let cache = PlanCache::with_capacity(4);
        assert!(cache.lookup("SELECT 1", (0, 0), |_| true).is_none());
        cache.insert("SELECT 1", q(), (0, 0));
        assert!(cache.lookup("SELECT 1", (0, 0), |_| true).is_some());
        // Key normalization: whitespace and trailing semicolons collapse.
        assert!(cache.lookup("  SELECT 1; ", (0, 0), |_| true).is_some());
    }

    #[test]
    fn stamp_mismatch_invalidates() {
        let cache = PlanCache::with_capacity(4);
        cache.insert("SELECT 1", q(), (0, 0));
        // DDL bumped a generation: the entry is dropped, not served.
        assert!(cache.lookup("SELECT 1", (1, 0), |_| true).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::with_capacity(2);
        cache.insert("a", q(), (0, 0));
        cache.insert("b", q(), (0, 0));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.lookup("a", (0, 0), |_| true).is_some());
        cache.insert("c", q(), (0, 0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a", (0, 0), |_| true).is_some());
        assert!(cache.lookup("b", (0, 0), |_| true).is_none());
        assert!(cache.lookup("c", (0, 0), |_| true).is_some());
    }

    #[test]
    fn failed_validation_drops_entry() {
        let cache = PlanCache::with_capacity(4);
        let mut entry = q();
        entry.table_rows = vec![("t".to_owned(), 100)];
        cache.insert("SELECT 1", entry, (0, 0));
        // The validator sees the recorded row counts and can reject.
        assert!(cache
            .lookup("SELECT 1", (0, 0), |e| e.table_rows.iter().all(|(_, r)| *r >= 1000))
            .is_none());
        assert!(cache.is_empty(), "rejected entry must be removed");
    }

    #[test]
    fn probe_rejection_keeps_entry() {
        let cache = PlanCache::with_capacity(4);
        cache.insert("SELECT 1", q(), (0, 0));
        assert!(cache.probe("SELECT 1", (0, 0), |_| false).is_none());
        assert_eq!(cache.len(), 1, "probe must never remove entries");
    }

    #[test]
    fn probe_does_not_touch_lru_order() {
        let cache = PlanCache::with_capacity(2);
        cache.insert("a", q(), (0, 0));
        cache.insert("b", q(), (0, 0));
        // Probing "a" must not promote it.
        assert!(cache.probe("a", (0, 0), |_| true).is_some());
        cache.insert("c", q(), (0, 0));
        assert!(cache.probe("a", (0, 0), |_| true).is_none());
        assert!(cache.probe("b", (0, 0), |_| true).is_some());
    }
}
