//! Offline stand-in for the subset of `criterion` 0.5 this workspace's
//! benches use. Each benchmark runs a fixed small number of iterations,
//! times each on its own and prints the median and quartiles of the
//! per-iteration wall-clock times as `median [q1–q3]`, by the nearest-rank
//! rule the performance ledger uses — enough for `cargo bench` to build
//! and produce comparable numbers, with none of criterion's statistics.

use std::fmt::Display;
use std::time::Instant;

pub use std::hint::black_box;

const WARMUP_ITERS: u64 = 3;
const MEASURE_ITERS: u64 = 10;

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// No-op: CLI args are ignored by the shim.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _parent: self, name: name.into(), throughput: None }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, None, f);
        self
    }
}

/// Units processed per iteration, for reporting rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// No-op in the shim: iteration count is fixed.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// No-op in the shim: measurement time is bounded by iteration count.
    pub fn measurement_time(&mut self, _d: std::time::Duration) -> &mut Self {
        self
    }

    /// Records units-per-iteration for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.0), self.throughput, &mut f);
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.0), self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A benchmark label.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// A label with a function name and a parameter.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", function.into(), parameter))
    }

    /// A label from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_owned())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Handed to each benchmark closure; times the routine.
#[derive(Default)]
pub struct Bencher {
    samples_ns: Vec<u64>,
}

impl Bencher {
    /// Times `routine` over a fixed number of iterations, each on its own.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..WARMUP_ITERS {
            black_box(routine());
        }
        self.samples_ns = (0..MEASURE_ITERS)
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed().as_nanos() as u64
            })
            .collect();
    }

    /// The first quartile, median and third quartile of the per-iteration
    /// times in nanoseconds (nearest rank: the sample at rank `⌈q·n⌉`);
    /// zeros before [`Bencher::iter`] ran.
    fn quartiles_ns(&self) -> [u64; 3] {
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        [0.25, 0.5, 0.75].map(|q| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
        })
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, throughput: Option<Throughput>, mut f: F) {
    let mut bencher = Bencher::default();
    f(&mut bencher);
    let [q1, median, q3] = bencher.quartiles_ns().map(|ns| ns as f64);
    let rate = match throughput {
        Some(Throughput::Elements(n)) if median > 0.0 => {
            format!("  ({:.3} Melem/s)", n as f64 / median * 1e3)
        }
        Some(Throughput::Bytes(n)) if median > 0.0 => {
            format!("  ({:.3} MiB/s)", n as f64 / median * 1e9 / (1024.0 * 1024.0))
        }
        _ => String::new(),
    };
    println!("bench {label}: {:.1} [{:.1}–{:.1}] us/iter{rate}", median / 1e3, q1 / 1e3, q3 / 1e3);
}

/// Collects benchmark functions into one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Defines `main` running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_benches() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(10);
        group.throughput(Throughput::Elements(100));
        let mut ran = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| ran += 1);
        });
        group.bench_with_input(BenchmarkId::from_parameter(42), &7u64, |b, &x| {
            b.iter(|| black_box(x * 2));
        });
        group.finish();
        assert!(ran >= 1);

        let mut b = Bencher::default();
        assert_eq!(b.quartiles_ns(), [0, 0, 0]);
        b.iter(|| (0..1000u64).map(black_box).sum::<u64>());
        assert_eq!(b.samples_ns.len() as u64, MEASURE_ITERS);
        let [q1, median, q3] = b.quartiles_ns();
        assert!(q1 <= median && median <= q3, "quartiles out of order: {q1} {median} {q3}");
        assert!(q1 >= *b.samples_ns.iter().min().unwrap());
        assert!(q3 <= *b.samples_ns.iter().max().unwrap());
    }
}
