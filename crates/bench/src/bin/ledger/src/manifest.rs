//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`ledger manifest`), and a run refuses to
//! record a metric that is not declared here.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. End-to-end metrics have one;
    /// per-layer metrics do not.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/ledger/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["crates/bench/src/bin/ledger"];

/// Workload names with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fig1_pipeline",
        "the paper's Figure 1: in-database train+predict (ml-bound) beside the same pipeline fed over \
         the binary wire protocol (netproto-bound); the claim is the gap",
    ),
    (
        "sql_analytics",
        "nine single-operator statements on a table larger than L2; all time is in exec/expr/parallel, \
         so an ML, wire or log change must show no change here",
    ),
    (
        "serve_mixed",
        "two closed-loop wire clients, 60% cached predict / 20% cached group-by / 20% never-repeated \
         text; per-query overhead: framing, reactor, plan cache vs front-end, model cache",
    ),
    (
        "durable_commit",
        "one writer on a durable database, reads beside writes, checkpoints and reopen; the only \
         workload where wal/page/persist work, and where write-path upkeep shows as commit latency",
    ),
];

/// What a user of the system sees. The driver has every workload report
/// every one of these, none of them 0, so the timings are slots and
/// [`ROLES`] says which of its numbers a workload puts in each.
pub const END_TO_END: &[MetricDef] = &[
    e2e("primary_p50_ms", "ms", Better::Lower, 0.25),
    e2e("secondary_p50_ms", "ms", Better::Lower, 0.25),
    e2e("third_ms", "ms", Better::Lower, 0.25),
    e2e("fourth_ms", "ms", Better::Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// `(workload, slot, what fills it)`. Where the issue that asked for the
/// ledger named the number, that name is given; the slot's unit applies.
/// Printed beside the value by a run and by `compare`.
pub const ROLES: &[(&str, &str, &str)] = &[
    ("fig1_pipeline", "primary_p50_ms", "fig1_indb_s, median in-db run"),
    ("fig1_pipeline", "secondary_p50_ms", "fig1_socket_s, median binary-socket run"),
    ("fig1_pipeline", "third_ms", "fig1.indb.train_s, median train stage in-db"),
    (
        "fig1_pipeline",
        "fourth_ms",
        "fig1.socket.load_wrangle_s, median load+wrangle over the socket",
    ),
    ("fig1_pipeline", "throughput_ops_s", "pipeline runs per second, median pair of runs"),
    ("sql_analytics", "primary_p50_ms", "analytics_pass_s, median pass at MLCS_THREADS"),
    ("sql_analytics", "secondary_p50_ms", "exec.serial_pass_s, median pass at one thread"),
    ("sql_analytics", "third_ms", "exec.q_groupby_high_ms, median at MLCS_THREADS"),
    ("sql_analytics", "fourth_ms", "exec.q_join_big_ms, median at MLCS_THREADS"),
    ("sql_analytics", "throughput_ops_s", "statements per second, median pair of passes"),
    ("serve_mixed", "primary_p50_ms", "predict_p50_ms"),
    ("serve_mixed", "secondary_p50_ms", "adhoc_p50_ms"),
    ("serve_mixed", "third_ms", "netproto.analytics_p50_ms"),
    ("serve_mixed", "fourth_ms", "predict_p99_ms, median window of 500 predicts"),
    ("serve_mixed", "throughput_ops_s", "serve_qps, replies per second of both clients"),
    ("durable_commit", "primary_p50_ms", "commit_p50_ms"),
    ("durable_commit", "secondary_p50_ms", "read_p50_ms, median read pair"),
    ("durable_commit", "third_ms", "checkpoint_s, median CHECKPOINT"),
    ("durable_commit", "fourth_ms", "recovery_s, median reopen with a log to replay"),
    (
        "durable_commit",
        "throughput_ops_s",
        "commits per second with their reads, checkpoint and model insert, median block of 50",
    ),
];

/// What `workload` puts in the end-to-end slot `metric`; empty for the
/// slots that mean the same everywhere.
pub fn role(workload: &str, metric: &str) -> &'static str {
    ROLES.iter().find(|r| r.0 == workload && r.1 == metric).map_or("", |r| r.2)
}

/// Single-layer numbers from the traced run; no bounds. A metric reads 0
/// on a workload that does no work in that layer or does not probe it.
pub const PER_LAYER: &[MetricDef] = &[
    // voters: Figure-1 stages per access method.
    lower("fig1.indb.load_wrangle_s", "s"),
    lower("fig1.indb.train_s", "s"),
    lower("fig1.indb.predict_s", "s"),
    lower("fig1.socket.load_wrangle_s", "s"),
    lower("fig1.socket.train_s", "s"),
    lower("fig1.socket.predict_s", "s"),
    lower("fig1.socket_text_s", "s"),
    lower("fig1.csv_s", "s"),
    lower("fig1.npy_s", "s"),
    lower("fig1.h5lite_s", "s"),
    lower("fig1.embedded_s", "s"),
    lower("fig1.indb_parallel_s", "s"),
    // ml: direct StoredModel::train / predict on the Figure-1 split.
    lower("ml.train_s", "s"),
    higher("ml.train_krows_per_s", "krows/s"),
    higher("ml.predict_mrows_per_s", "Mrows/s"),
    lower("ml.splits_evaluated", "count"),
    // core / udf.
    lower("core.bridge_ms", "ms"),
    higher("core.model_cache_hit_ratio", "ratio"),
    higher("core.matrix_cache_hit_ratio", "ratio"),
    lower("udf.scalar_invocations", "1/op"),
    lower("udf.table_invocations", "1/op"),
    // pickle: the Figure-1 forest.
    lower("pickle.encode_ms", "ms"),
    lower("pickle.decode_ms", "ms"),
    lower("pickle.blob_bytes", "bytes"),
    // exec / expr / parallel: one statement per operator.
    lower("exec.q_filter_ms", "ms"),
    higher("exec.q_filter_mrows_per_s", "Mrows/s"),
    lower("exec.q_dict_filter_ms", "ms"),
    higher("exec.q_dict_filter_mrows_per_s", "Mrows/s"),
    lower("exec.q_project_ms", "ms"),
    higher("exec.q_project_mrows_per_s", "Mrows/s"),
    lower("exec.q_groupby_low_ms", "ms"),
    higher("exec.q_groupby_low_mrows_per_s", "Mrows/s"),
    lower("exec.q_groupby_high_ms", "ms"),
    higher("exec.q_groupby_high_mrows_per_s", "Mrows/s"),
    lower("exec.q_join_dim_ms", "ms"),
    higher("exec.q_join_dim_mrows_per_s", "Mrows/s"),
    lower("exec.q_join_big_ms", "ms"),
    higher("exec.q_join_big_mrows_per_s", "Mrows/s"),
    lower("exec.q_distinct_ms", "ms"),
    higher("exec.q_distinct_mrows_per_s", "Mrows/s"),
    lower("exec.q_sort_ms", "ms"),
    higher("exec.q_sort_mrows_per_s", "Mrows/s"),
    lower("exec.serial_pass_s", "s"),
    // Per-input-row cost of the statement whose hash table does not fit in
    // L2 over that of its twin whose table does: above 1 is the cache regime
    // the sizes were chosen for, measured.
    lower("exec.join_big_vs_dim", "ratio"),
    lower("exec.groupby_high_vs_low", "ratio"),
    lower("exec.scan_rows", "rows/op"),
    lower("parallel.morsels", "1/op"),
    higher("parallel.pool_busy_share", "ratio"),
    // sql front-end and plan cache.
    lower("sql.parse_us", "us"),
    lower("sql.bind_us", "us"),
    lower("sql.optimize_us", "us"),
    lower("sql.cached_exec_us", "us"),
    higher("sql.plan_cache_hit_ratio", "ratio"),
    lower("sql.plan_cache_evictions", "1/op"),
    // netproto.
    lower("netproto.wire_overhead_us", "us"),
    lower("netproto.frame_codec_us", "us"),
    higher("netproto.text_export_mb_s", "MB/s"),
    higher("netproto.binary_export_mb_s", "MB/s"),
    higher("netproto.embedded_rows_per_s", "rows/s"),
    lower("netproto.shed", "count"),
    lower("netproto.retries", "count"),
    lower("netproto.timeouts", "count"),
    lower("netproto.analytics_p50_ms", "ms"),
    // fileio.
    higher("fileio.csv_read_mb_s", "MB/s"),
    higher("fileio.npy_read_mb_s", "MB/s"),
    higher("fileio.h5lite_read_mb_s", "MB/s"),
    // wal / page / persist / stats.
    lower("wal.bytes_per_commit", "bytes"),
    lower("wal.fsyncs_per_commit", "count"),
    lower("wal.commit_overhead_us", "us"),
    lower("wal.commit_p99_ms", "ms"),
    lower("wal.model_commit_ms", "ms"),
    lower("persist.replay_us_per_record", "us"),
    lower("persist.space_amp", "ratio"),
    higher("page.load_mb_s", "MB/s"),
    higher("stats.answered_aggregates", "1/op"),
    lower("stats.upkeep_share", "ratio"),
    lower("write_amp", "ratio"),
    // what the outside view cannot attribute, and what tracing costs.
    lower("unattributed_share", "ratio"),
    lower("trace_overhead_share", "ratio"),
    higher("machine.mem_bw_gb_s", "GB/s"),
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The metrics a run prints: end-to-end untraced, per-layer traced.
pub fn metrics_for(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let better = |b: Better| Json::str(if b == Better::Lower { "lower" } else { "higher" });
    let collapse = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(collapse(why)))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d.better)),
                            ("bound", Json::Num(d.bound.unwrap_or(0.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_fills_every_slot() {
        for (workload, _) in WORKLOADS {
            for slot in
                ["primary_p50_ms", "secondary_p50_ms", "third_ms", "fourth_ms", "throughput_ops_s"]
            {
                assert!(!role(workload, slot).is_empty(), "{workload} has no role for {slot}");
            }
            assert_eq!(role(workload, "setup_s"), "");
        }
        assert_eq!(ROLES.len(), WORKLOADS.len() * 5);
        assert!(ROLES
            .iter()
            .all(|r| is_workload(r.0) && find(r.1).is_some_and(|d| d.bound.is_some())));
    }

    /// A package outside the workspace does not inherit the root's
    /// `[profile.release]`; this keeps the copy honest. Skipped outside a
    /// checkout of the whole repository.
    #[test]
    fn release_profile_is_the_repository_s() {
        let release_profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
                .filter(|l| !l.is_empty())
                .collect()
        };
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../Cargo.toml");
        let Ok(root) = std::fs::read_to_string(root) else { return };
        let own = release_profile(include_str!("../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(
            own,
            release_profile(&root),
            "copy the root's [profile.release] into Cargo.toml"
        );
    }

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declarations_meet_the_driver_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(*name), "workload {name}");
            let why = why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}: {}", why.len());
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name) && seen.insert(d.name), "metric {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && !d.unit.is_empty()
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit of {}",
                d.name
            );
        }
        for d in END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "bound of {}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(
            COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200 && !c.starts_with('/'))
        );
        assert!(benchmark_json().render_pretty().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` at the repository root is this module's output,
    /// and the README names every workload and metric. Skipped outside a
    /// checkout of the whole repository.
    #[test]
    fn checked_in_files_match_the_tables() {
        let readme = include_str!("../README.md");
        for name in
            WORKLOADS.iter().map(|w| w.0).chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(readme.contains(&format!("`{name}`")), "README.md does not mention `{name}`");
        }
        let mut dir = std::env::current_dir().unwrap();
        let path = loop {
            if dir.join("BENCHMARK.json").is_file() {
                break dir.join("BENCHMARK.json");
            }
            if !dir.pop() {
                return;
            }
        };
        let on_disk = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(on_disk, benchmark_json(), "regenerate with `ledger manifest > BENCHMARK.json`");
    }
}
