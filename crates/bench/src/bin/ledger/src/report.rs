//! What one run of one workload produces: the correctness tally, the
//! named metrics, and the human-readable lines printed above the result.

use crate::manifest::{self, MetricDef};
use std::collections::BTreeMap;

/// How large a run is. Smoke runs exercise every code path and check on
/// small inputs; their numbers are marked not comparable.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Worker threads in force (`MLCS_THREADS`).
    pub threads: usize,
}

impl RunConfig {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The timed phase's length in nanoseconds.
    pub fn budget_ns(&self) -> u64 {
        (self.seconds * 1e9) as u64
    }

    /// Whether unit number `unit` (from 0) of the timed phase records
    /// spans. A traced run records every other unit, so traced and
    /// untraced units sit side by side over the whole phase and the
    /// difference of their medians is the cost of recording, with any
    /// drift of the machine on both sides of it.
    pub fn records_unit(&self, unit: usize) -> bool {
        self.traced && unit % 2 == 1
    }

    /// Units the timed phase runs however short its budget: a traced run
    /// needs one recorded and one not.
    pub fn min_units(&self) -> usize {
        if self.traced {
            2
        } else {
            1
        }
    }
}

/// Operations attempted and operations that failed, were refused, or
/// returned a wrong result.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    first_failures: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation; `problem` is why it failed, if it did.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.first_failures.len());
        self.first_failures.extend(other.first_failures.into_iter().take(room));
    }

    pub fn first_failures(&self) -> &[String] {
        &self.first_failures
    }
}

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    metrics: BTreeMap<&'static str, f64>,
    /// Context printed above the result line: sample counts, the highest
    /// percentile the samples support, sizes, policies.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric. The name must be declared in [`manifest`], which
    /// is also what `BENCHMARK.json` is generated from, so the two cannot
    /// drift apart.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = manifest::find(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in the manifest"));
        self.metrics.insert(def.name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value to print for `def`. An end-to-end metric must have been
    /// measured. A per-layer metric the workload does not exercise reads
    /// 0: no work was done in that layer, or it was not probed here.
    pub fn value_of(&self, def: &MetricDef) -> Result<f64, String> {
        match self.metrics.get(def.name) {
            Some(v) if v.is_finite() => Ok(*v),
            Some(v) => Err(format!("metric `{}` is not a finite number ({v})", def.name)),
            None if def.bound.is_some() => {
                Err(format!("end-to-end metric `{}` was not measured", def.name))
            }
            None => Ok(0.0),
        }
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
