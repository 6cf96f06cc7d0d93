//! `ledger compare <a.jsonl> <b.jsonl>`: two sets of runs (the files that
//! `--out` appends to), one verdict per workload and end-to-end metric.
//!
//! * **unresolved** — the run-to-run spread (quartile distance over
//!   median, the larger of the two sides) exceeds the metric's bound, so
//!   the runs cannot tell a regression from noise;
//! * **regressed** — `b`'s median is worse than `a`'s by more than the bound;
//! * **improved** — `b`'s median is better by more than the spread;
//! * **unchanged** — otherwise.
//!
//! Exits nonzero when anything regressed.

use crate::json::Json;
use crate::manifest::{self, Better, MetricDef};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;

/// `workload -> metric -> one value per run`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Reads the comparable, untraced run records of one file.
fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut runs = Runs::new();
    let mut skipped = 0;
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field =
            |name: &str| record.get(name).ok_or_else(|| format!("{path}:{}: no `{name}`", n + 1));
        let usable = field("comparable")? == &Json::Bool(true)
            && field("traced")? == &Json::Bool(false)
            && field("result")?.get("correct") == Some(&Json::Bool(true));
        if !usable {
            skipped += 1;
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("{path}:{}: `workload` is not a string", n + 1))?;
        let metrics = field("result")?.get("metrics").map(Json::members).unwrap_or_default();
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    if skipped > 0 {
        eprintln!("{path}: skipped {skipped} records (smoke-sized, traced, or incorrect)");
    }
    Ok(runs)
}

/// The verdict for one metric given both sides' runs, with the numbers
/// it rests on: `(median_a, median_b, spread, verdict)`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Option<f64>, Verdict) {
    let (mid_a, mid_b) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let spread = match (quartile_spread(a), quartile_spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    };
    let bound = def.bound.unwrap_or(0.0);
    let worse_by = match def.better {
        Better::Lower => (mid_b - mid_a) / mid_a,
        Better::Higher => (mid_a - mid_b) / mid_a,
    };
    let verdict = match spread {
        None => Verdict::Unresolved,
        Some(s) if s > bound => Verdict::Unresolved,
        Some(_) if worse_by > bound => Verdict::Regressed,
        Some(s) if -worse_by > s => Verdict::Improved,
        Some(_) => Verdict::Unchanged,
    };
    (mid_a, mid_b, spread, verdict)
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>6} {:>4}  {:<10} what",
        "workload",
        "metric",
        "median a",
        "median b",
        "change",
        "spread",
        "bound",
        "runs",
        "verdict"
    );
    let mut regressed = 0;
    let mut judged = 0;
    for (workload, _) in manifest::WORKLOADS {
        let (Some(runs_a), Some(runs_b)) = (a.get(*workload), b.get(*workload)) else {
            println!("{workload:<16} (not in both files)");
            continue;
        };
        for def in manifest::END_TO_END {
            let (Some(va), Some(vb)) = (runs_a.get(def.name), runs_b.get(def.name)) else {
                continue;
            };
            let (mid_a, mid_b, spread, verdict) = judge(def, va, vb);
            judged += 1;
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<16} {:<18} {mid_a:>14.6} {mid_b:>14.6} {:>+7.2}% {:>8} {:>5.0}% {:>4}  {:<10} {}",
                def.name,
                (mid_b - mid_a) / mid_a * 100.0,
                spread.map_or("n/a".to_owned(), |s| format!("{:.2}%", s * 100.0)),
                def.bound.unwrap_or(0.0) * 100.0,
                va.len().min(vb.len()),
                format!("{verdict:?}").to_lowercase(),
                manifest::role(workload, def.name)
            );
        }
    }
    if judged == 0 {
        return Err("the two files have no workload and metric in common".into());
    }
    println!("{judged} metrics judged, {regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = MetricDef { name: "t_ms", unit: "ms", better: Better::Lower, bound: Some(0.1) };
        let higher = MetricDef { better: Better::Higher, ..lower };
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |k: f64| steady.map(|v| v * k);
        assert_eq!(judge(&lower, &steady, &scaled(1.0)).3, Verdict::Unchanged);
        assert_eq!(judge(&lower, &steady, &scaled(1.05)).3, Verdict::Unchanged);
        assert_eq!(judge(&lower, &steady, &scaled(1.2)).3, Verdict::Regressed);
        assert_eq!(judge(&lower, &steady, &scaled(0.9)).3, Verdict::Improved);
        assert_eq!(judge(&higher, &steady, &scaled(0.8)).3, Verdict::Regressed);
        assert_eq!(judge(&higher, &steady, &scaled(1.2)).3, Verdict::Improved);
        // Too noisy to tell, or too few runs to know the noise.
        let noisy = [100.0, 140.0, 70.0, 120.0, 90.0];
        assert_eq!(judge(&lower, &noisy, &scaled(1.2)).3, Verdict::Unresolved);
        assert_eq!(judge(&lower, &[100.0], &[150.0]).3, Verdict::Unresolved);
        let (a, b, spread, _) = judge(&lower, &steady, &scaled(2.0));
        assert_eq!((a, b), (100.0, 200.0));
        assert!((spread.unwrap() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn reads_what_out_writes_and_skips_smoke_runs() {
        let dir = crate::scratch::unique_dir(&crate::scratch::work_dir().unwrap(), "compare-test")
            .unwrap();
        let record = |workload: &str, comparable: bool, ms: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("comparable", Json::Bool(comparable)),
                ("traced", Json::Bool(false)),
                (
                    "result",
                    Json::obj([
                        ("correct", Json::Bool(true)),
                        (
                            "metrics",
                            Json::obj([(
                                "primary_p50_ms",
                                Json::obj([("value", Json::Num(ms)), ("unit", Json::str("ms"))]),
                            )]),
                        ),
                    ]),
                ),
            ])
            .render()
        };
        let write = |name: &str, k: f64| {
            let lines: Vec<String> = [10.0, 10.1, 9.9, 10.05, 9.95]
                .iter()
                .map(|v| record("sql_analytics", true, v * k))
                .collect();
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!("{}\n{}\n", lines.join("\n"), record("sql_analytics", false, 1.0)),
            )
            .unwrap();
            path.to_string_lossy().into_owned()
        };
        let (a, same, slow) =
            (write("a.jsonl", 1.0), write("same.jsonl", 1.01), write("slow.jsonl", 1.5));
        assert_eq!(load(&a).unwrap()["sql_analytics"]["primary_p50_ms"].len(), 5);
        assert_eq!(run(&a, &same), Ok(true));
        assert_eq!(run(&a, &slow), Ok(false));
        assert!(run(&a, &dir.join("missing.jsonl").to_string_lossy()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
