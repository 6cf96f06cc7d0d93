//! The ledger's only clock. Every latency the benchmark reports is a
//! difference of two [`now_ns`] readings taken by the benchmark itself;
//! nothing is read back from the registry's power-of-two histograms.

use std::sync::OnceLock;

type Epoch = std::time::Instant; // lint: allow(benchmark owns its clock)

static EPOCH: OnceLock<Epoch> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Epoch::now).elapsed().as_nanos() as u64
}

/// Runs `f` and returns its result with the elapsed nanoseconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let out = f();
    (out, now_ns() - start)
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds to milliseconds.
pub fn millis(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to microseconds.
pub fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}
