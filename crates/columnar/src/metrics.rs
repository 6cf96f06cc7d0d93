//! A lightweight, dependency-free metrics registry.
//!
//! Every substrate of the workspace reports into one process-wide registry:
//! the relational operators (`exec.*`), the UDF layer (`udf.*`), model
//! (de)serialization (`pickle.*`), the client protocols (`netproto.*`), the
//! model cache (`modelstore.*`), the worker pool (`pool.*`), and the Figure 1
//! pipeline stages (`fig1.*`). The registry is the *only* sanctioned timing
//! mechanism outside this module — `cargo xtask lint` rejects raw
//! `std::time::Instant` use in the harness code — so every experiment's
//! breakdown is reproducible from one [`snapshot`].
//!
//! Three instrument kinds cover every hook:
//!
//! * [`Counter`] — a monotonically increasing `u64` (rows, invocations,
//!   bytes on the wire).
//! * [`Gauge`] — a signed level that can go up and down (queue depth).
//! * [`Histogram`] — a power-of-two-bucketed distribution with
//!   count/sum/min/max, used for durations (nanoseconds) and payload sizes
//!   (bytes).
//!
//! All instruments are relaxed atomics: recording from worker threads never
//! takes a lock. Name lookup takes a short mutex; hot call sites that fire
//! per-operator (not per-row) can afford it, and truly hot sites can hold
//! the returned [`Arc`] handle.
//!
//! ```
//! use mlcs_columnar::metrics;
//!
//! metrics::counter("exec.filter.rows").add(128);
//! let (sum, elapsed) = metrics::time_section("fig1.total", || 2 + 2);
//! assert_eq!(sum, 4);
//! let snap = metrics::snapshot();
//! assert_eq!(snap.counter("exec.filter.rows"), 128);
//! assert!(snap.duration_sum("fig1.total") >= elapsed);
//! ```
#![deny(missing_docs)]

use crate::parallel::locks::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of power-of-two buckets a [`Histogram`] tracks; bucket `i` counts
/// values in `[2^(i-1), 2^i)`, with the last bucket absorbing the tail.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed level that can rise and fall, e.g. a queue depth.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Adds `n` (which may be negative) to the gauge.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A power-of-two-bucketed distribution with count, sum, min, and max.
///
/// Durations are recorded in nanoseconds, sizes in bytes; the metric name's
/// suffix (`.time_ns`, `.bytes`) carries the unit.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let bucket = (64 - u64::leading_zeros(value) as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Power-of-two bucket counts; bucket `i` covers `[2^(i-1), 2^i)`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// The process-wide instrument tables.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn lookup<T: Default>(table: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = table.lock();
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(T::default());
    map.insert(name.to_owned(), Arc::clone(&fresh));
    fresh
}

/// The counter registered under `name`, creating it on first use.
///
/// The handle stays valid (and keeps reporting into the registry) across
/// [`reset`], so hot call sites may cache it.
pub fn counter(name: &str) -> Arc<Counter> {
    lookup(&registry().counters, name)
}

/// The gauge registered under `name`, creating it on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    lookup(&registry().gauges, name)
}

/// The histogram registered under `name`, creating it on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    lookup(&registry().histograms, name)
}

/// Records `d` into the duration histogram `name` (unit: nanoseconds).
pub fn record_duration(name: &str, d: Duration) {
    histogram(name).record_duration(d);
}

/// Records a payload size into the bytes histogram `name`.
pub fn record_bytes(name: &str, bytes: usize) {
    histogram(name).record(bytes as u64);
}

/// Runs `f`, records its wall time into the duration histogram `name`, and
/// returns the result together with the elapsed time.
///
/// This is the sanctioned stage timer for harness code (`crates/voters`,
/// `crates/bench`): the elapsed value handed back is byte-for-byte the value
/// recorded into the registry, so reports built from the return value agree
/// with a registry [`snapshot`] by construction.
pub fn time_section<T>(name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    record_duration(name, elapsed);
    (out, elapsed)
}

/// A point-in-time copy of every instrument in the registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The counter's value, or 0 if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge's level, or 0 if it was never registered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram's state, if it was ever registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of the duration histogram `name`, as a [`Duration`]. Zero if the
    /// histogram was never registered.
    pub fn duration_sum(&self, name: &str) -> Duration {
        Duration::from_nanos(self.histogram(name).map(|h| h.sum).unwrap_or(0))
    }

    /// The change from `earlier` to `self`: counters and histogram
    /// count/sum are subtracted (saturating, in case of an interleaved
    /// [`reset`]); gauges and histogram min/max are taken from `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (name, value) in &mut out.counters {
            *value = value.saturating_sub(earlier.counter(name));
        }
        for (name, hist) in &mut out.histograms {
            if let Some(old) = earlier.histogram(name) {
                hist.count = hist.count.saturating_sub(old.count);
                hist.sum = hist.sum.saturating_sub(old.sum);
                for (b, old_b) in hist.buckets.iter_mut().zip(old.buckets.iter()) {
                    *b = b.saturating_sub(*old_b);
                }
            }
        }
        out
    }

    /// Renders the snapshot as aligned `kind name value` lines, counters
    /// first, skipping instruments that never recorded anything.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            if *value != 0 {
                out.push_str(&format!("counter    {name:<width$}  {value}\n"));
            }
        }
        for (name, value) in &self.gauges {
            if *value != 0 {
                out.push_str(&format!("gauge      {name:<width$}  {value}\n"));
            }
        }
        for (name, h) in &self.histograms {
            if h.count != 0 {
                out.push_str(&format!(
                    "histogram  {name:<width$}  count={} sum={} min={} max={} mean={}\n",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean()
                ));
            }
        }
        out
    }
}

/// Takes a point-in-time copy of every instrument.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg.counters.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect();
    let gauges = reg.gauges.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect();
    let histograms = reg.histograms.lock().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect();
    Snapshot { counters, gauges, histograms }
}

/// Zeroes every instrument in place. Handles returned by [`counter`],
/// [`gauge`], and [`histogram`] stay valid and keep recording.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().values() {
        c.reset();
    }
    for g in reg.gauges.lock().values() {
        g.reset();
    }
    for h in reg.histograms.lock().values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test.metrics.counter");
        let before = snapshot().counter("test.metrics.counter");
        c.add(3);
        c.incr();
        let after = snapshot().counter("test.metrics.counter");
        assert_eq!(after - before, 4);
    }

    #[test]
    fn gauges_rise_and_fall() {
        let g = gauge("test.metrics.gauge");
        g.add(5);
        g.add(-2);
        assert_eq!(snapshot().gauge("test.metrics.gauge") % 3, 0);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let before = snapshot();
        let h = histogram("test.metrics.hist");
        h.record(16);
        h.record(1);
        h.record(1000);
        let snap = snapshot().since(&before);
        let hs = snap.histogram("test.metrics.hist").expect("registered");
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 1017);
        assert!(hs.min <= 1);
        assert!(hs.max >= 1000);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn time_section_records_its_elapsed_value_exactly() {
        let before = snapshot();
        let (out, elapsed) = time_section("test.metrics.section", || 7);
        assert_eq!(out, 7);
        let delta = snapshot().since(&before);
        assert_eq!(delta.duration_sum("test.metrics.section"), elapsed);
        assert_eq!(delta.histogram("test.metrics.section").map(|h| h.count), Some(1));
    }

    #[test]
    fn render_lists_nonzero_instruments() {
        counter("test.metrics.render").add(9);
        let text = snapshot().render();
        assert!(text.contains("test.metrics.render"));
        assert!(text.lines().any(|l| l.starts_with("counter")));
    }

    #[test]
    fn since_subtracts_counters() {
        let c = counter("test.metrics.delta");
        let before = snapshot();
        c.add(11);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.metrics.delta"), 11);
    }
}
