//! Workload `durable_commit`: one writer on `Database::open_durable`.
//!
//! A cycle is a fixed script on a fresh directory: 250 commits of a
//! 1 000-row `INSERT` (`primary`), so the table grows to 250 000 rows;
//! after every 2nd commit a read pair on the same table — an aggregate
//! the statistics can answer and a filtered scan of the newest ids
//! (`secondary`); a `CHECKPOINT` every 50 commits; a trained model
//! inserted every 50 (a blob through the log). The handle is then dropped
//! without a checkpoint and the directory reopened three times, replaying
//! the last 24 commits and a model. Cycles repeat until the timed phase
//! is over, so counts per cycle repeat exactly and memory does not depend
//! on how many cycles fit.
//!
//! Flush policy: the engine's own — one fsync per acknowledged commit.
//! Latencies are those of this sandbox's file system, not of a device,
//! and the device is shared: how long an fsync waits changes from one run
//! to the next by more than any change to the engine would. That is why a
//! commit carries 1 000 rows and not 100. At 100 rows six tenths of a
//! commit was the wait for the device, and ten runs of the same code
//! spread by a third of their median; at 1 000 rows the engine's own work
//! (front-end, append, statistics, log encode and write) is nine tenths
//! of it. The README has the measurements.
//!
//! Check: every read equals the state the benchmark tracked, and after
//! each reopen `COUNT(*)` and `SUM(id)` equal what was acknowledged.

use crate::clock::{micros, millis, now_ns, secs, time};
use crate::gen::Rng;
use crate::layers::{registry_metrics, Phase};
use crate::oracle::{self, Cell};
use crate::report::{ratio, Report, RunConfig};
use crate::scratch::{dir_bytes, Scratch};
use crate::stats::{median, median_ns, overhead_share, percentile_ns};
use crate::trace::Tracer;
use mlcs_columnar::Database;
use std::path::Path;

const ROWS_PER_COMMIT: usize = 1000;
const READ_EVERY: usize = 2;
const CHECKPOINT_EVERY: usize = 50;
const REOPENS: usize = 3;
const EXTRA_SETUPS: usize = 4;
/// Ids the filtered scan of a read pair covers.
const SCAN_WINDOW: usize = 10_000;
/// `id BIGINT, k INT, v INT, x DOUBLE`.
const USER_BYTES_PER_ROW: usize = 24;

/// The script of one cycle, rendered before anything is timed.
struct Script {
    inserts: Vec<String>,
    /// `v` of every row, by id.
    v: Vec<i32>,
}

fn script(commits: usize, seed: u64) -> Script {
    let mut rng = Rng::new(seed, 3);
    let mut s = Script {
        inserts: Vec::with_capacity(commits),
        v: Vec::with_capacity(commits * ROWS_PER_COMMIT),
    };
    for c in 0..commits {
        let mut sql = String::from("INSERT INTO t VALUES ");
        for r in 0..ROWS_PER_COMMIT {
            let id = c * ROWS_PER_COMMIT + r;
            let v = rng.below(1_000_000) as i32;
            s.v.push(v);
            let sep = if r == 0 { "" } else { ", " };
            sql.push_str(&format!(
                "{sep}({id}, {}, {v}, {})",
                rng.below(100),
                rng.below(8_000) as f64 / 8.0
            ));
        }
        s.inserts.push(sql);
    }
    s
}

const DDL: [&str; 3] = [
    "CREATE TABLE t (id BIGINT, k INT, v INT, x DOUBLE)",
    "CREATE TABLE pts (x DOUBLE, y DOUBLE, label INT)",
    "CREATE TABLE models (name VARCHAR, classifier BLOB, params VARCHAR)",
];

/// Two hundred separable points for the model commits to train on.
fn pts_insert() -> String {
    let rows: Vec<String> = (0..200)
        .map(|i| {
            let (c, label) = if i % 2 == 0 { (-3.0, 1) } else { (3.0, 2) };
            format!("({}, {}, {label})", c + (i / 2) as f64 * 0.01, c - (i / 2) as f64 * 0.01)
        })
        .collect();
    format!("INSERT INTO pts VALUES {}", rows.join(", "))
}

fn model_insert(n: usize) -> String {
    format!("INSERT INTO models SELECT 'm{n}', classifier, parameters FROM train((SELECT x, y FROM pts), (SELECT label FROM pts), 8)")
}

fn exec(db: &Database, sql: &str) -> Result<(), String> {
    db.execute(sql).map(drop).map_err(|e| format!("`{}`: {e}", &sql[..sql.len().min(60)]))
}

/// Creates the tables of a cycle on an open database.
fn create_tables(db: &Database) -> Result<(), String> {
    mlcs_core::register_ml_udfs(db);
    for ddl in DDL {
        exec(db, ddl)?;
    }
    exec(db, &pts_insert())
}

/// Raw samples of every cycle so far.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    commit: Vec<u64>,
    read: Vec<u64>,
    checkpoint: Vec<u64>,
    model_commit: Vec<u64>,
    recovery: Vec<u64>,
    /// Wall time of each block of `CHECKPOINT_EVERY` commits with its
    /// reads, its checkpoint and its model commit.
    block: Vec<u64>,
    commits: u64,
    log_bytes: u64,
    page_bytes: u64,
    replayed: u64,
    /// Bytes on disk right after the last checkpoint of a cycle, and the
    /// user bytes stored by then.
    space: (u64, u64),
}

fn page_files(dir: &Path) -> Result<u64, String> {
    dir_bytes(dir, |name| name.ends_with(".mlcspg") || name == "catalog.mlcsdb")
        .map_err(|e| format!("list {}: {e}", dir.display()))
}

/// Everything before the first commit can be issued: rendering the
/// script, opening the directory and creating the tables.
fn set_up(dir: &Path, commits: usize, seed: u64) -> Result<(Script, Database), String> {
    let script = script(commits, seed);
    let (db, _) = Database::open_durable(dir).map_err(|e| format!("open_durable: {e}"))?;
    create_tables(&db)?;
    Ok((script, db))
}

/// One cycle on a fresh directory.
fn cycle(
    cfg: &RunConfig,
    dir: &Path,
    commits: usize,
    tracer: &mut Tracer,
    cycle_no: u64,
    s: &mut Samples,
    report: &mut Report,
) -> Result<(), String> {
    let (opened, setup_ns) = time(|| set_up(dir, commits, cfg.seed));
    let (script, db) = opened?;
    s.setup_s.push(secs(setup_ns));

    let phase = Phase::start();
    let mut block_start = now_ns();
    let mut rows = 0usize;
    let (mut v_min, mut v_max) = (i32::MAX, i32::MIN);
    let mut models = 0;
    for (c, insert) in script.inserts.iter().enumerate() {
        let op_id = cycle_no * 1_000_000 + c as u64;
        // Reads, checkpoints and model commits follow odd-numbered
        // commits, so a traced run records all of them.
        tracer.set_enabled(cfg.records_unit(s.commit.len()));
        let (r, ns) = tracer.span("op.commit", op_id, None, || db.execute(insert));
        report.checks.record(r.err().map(|e| format!("commit {c}: {e}")));
        s.commit.push(ns);
        let fresh = &script.v[rows..rows + ROWS_PER_COMMIT];
        v_min = v_min.min(*fresh.iter().min().expect("a commit has rows"));
        v_max = v_max.max(*fresh.iter().max().expect("a commit has rows"));
        rows += ROWS_PER_COMMIT;

        if c % READ_EVERY == READ_EVERY - 1 {
            let from = rows.saturating_sub(SCAN_WINDOW);
            let scan_sql = format!("SELECT COUNT(*), SUM(v) FROM t WHERE id >= {from}");
            let root = tracer.begin("op.read_pair", op_id, None);
            let (stats, _) = tracer.span("read.stats", op_id, root.id(), || {
                db.query("SELECT MIN(v), MAX(v), COUNT(*) FROM t")
            });
            let (scan, _) = tracer.span("read.scan", op_id, root.id(), || db.query(&scan_sql));
            s.read.push(tracer.end(root));
            let newest: i64 = script.v[from..rows].iter().map(|&v| v as i64).sum();
            for (got, want) in [
                (
                    stats,
                    vec![Cell::Int(v_min as i64), Cell::Int(v_max as i64), Cell::Int(rows as i64)],
                ),
                (scan, vec![Cell::Int((rows - from) as i64), Cell::Int(newest)]),
            ] {
                report.checks.record(match got {
                    Ok(b) => oracle::mismatch(&b, &oracle::expect_rows(&[want], false))
                        .map(|why| format!("read after commit {c}: {why}")),
                    Err(e) => Some(format!("read after commit {c}: {e}")),
                });
            }
        }
        if c % CHECKPOINT_EVERY == CHECKPOINT_EVERY / 2 {
            let (r, ns) = tracer.span("op.checkpoint", op_id, None, || db.checkpoint());
            report.checks.record(r.err().map(|e| format!("checkpoint after commit {c}: {e}")));
            s.checkpoint.push(ns);
            let on_disk = page_files(dir)?;
            s.page_bytes += on_disk;
            s.space = (on_disk, (rows * USER_BYTES_PER_ROW) as u64);
        }
        if c % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            let sql = model_insert(models);
            models += 1;
            let (r, ns) = tracer.span("op.model_commit", op_id, None, || db.execute(&sql));
            report.checks.record(r.err().map(|e| format!("model commit {models}: {e}")));
            s.model_commit.push(ns);
            s.block.push(now_ns() - block_start);
            block_start = now_ns();
        }
    }
    s.commits += script.inserts.len() as u64;
    s.log_bytes += phase.delta().counter("wal.bytes");
    // No checkpoint: the reopen below has the tail of the log to replay.
    drop(db);

    let ids = rows as i64;
    let want = oracle::expect_rows(
        &[vec![Cell::Int(ids), Cell::Int(ids * (ids - 1) / 2), Cell::Int(models as i64)]],
        false,
    );
    for n in 0..REOPENS {
        let op_id = cycle_no * 1_000_000 + 900_000 + n as u64;
        let (opened, ns) = tracer.span("op.recovery", op_id, None, || Database::open_durable(dir));
        s.recovery.push(ns);
        let state = opened.map_err(|e| e.to_string()).and_then(|(db, recovered)| {
            s.replayed += recovered.replayed_records;
            db.query("SELECT COUNT(*), SUM(id), (SELECT COUNT(*) FROM models) FROM t")
                .map_err(|e| e.to_string())
        });
        report.checks.record(match state {
            Ok(b) => {
                oracle::mismatch(&b, &want).map(|why| format!("state after reopen {n}: {why}"))
            }
            Err(e) => Some(format!("reopen {n}: {e}")),
        });
    }
    Ok(())
}

pub fn run(
    cfg: &RunConfig,
    scratch: &Scratch,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let commits = cfg.size(250, 50);
    report.note(format!(
        "durable_commit: cycles of {commits} commits x {ROWS_PER_COMMIT} rows, read pair every {READ_EVERY}, checkpoint and model commit every {CHECKPOINT_EVERY}, \
         {REOPENS} reopens; flush policy = the engine's (fsync per commit), sandbox file system"
    ));
    let fresh_dir = || scratch.sub("durable").map_err(|e| format!("scratch directory: {e}"));

    let mut s = Samples::default();
    // A cycle sets up once; a few more set-ups steady the median.
    for _ in 0..EXTRA_SETUPS {
        let dir = fresh_dir()?;
        let (made, ns) = time(|| set_up(&dir, commits, cfg.seed));
        drop(made?);
        s.setup_s.push(secs(ns));
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    let phase = Phase::start();
    let start = now_ns();
    let mut cycles = 0u64;
    while cycles == 0 || now_ns() - start < cfg.budget_ns() {
        let dir = fresh_dir()?;
        cycles += 1;
        cycle(cfg, &dir, commits, tracer, cycles, &mut s, report)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    tracer.set_enabled(cfg.traced);
    let wall_ns = now_ns() - start;
    let delta = phase.delta();

    report.set("setup_s", median(&mut s.setup_s));
    report.set("primary_p50_ms", millis(median_ns(&s.commit)));
    report.set("secondary_p50_ms", millis(median_ns(&s.read)));
    report.set("third_ms", millis(median_ns(&s.checkpoint)));
    report.set("fourth_ms", millis(median_ns(&s.recovery)));
    report.set("throughput_ops_s", CHECKPOINT_EVERY as f64 / secs(median_ns(&s.block)));
    report.note(format!(
        "samples: {cycles} cycles; {} commits, {} read pairs, {} checkpoints, {} model commits, {} reopens in {:.2} s",
        s.commit.len(),
        s.read.len(),
        s.checkpoint.len(),
        s.model_commit.len(),
        s.recovery.len(),
        secs(wall_ns)
    ));

    if cfg.traced {
        let user_bytes = (s.commits as usize * ROWS_PER_COMMIT * USER_BYTES_PER_ROW) as f64;
        report.set("write_amp", ratio((s.log_bytes + s.page_bytes) as f64, user_bytes));
        report.set("persist.space_amp", ratio(s.space.0 as f64, s.space.1 as f64));
        report.set("wal.commit_p99_ms", millis(percentile_ns(&s.commit, 0.99)));
        report.set("wal.model_commit_ms", millis(median_ns(&s.model_commit)));
        report.set("trace_overhead_share", overhead_share(&s.commit));
        registry_metrics(report, &delta, s.commits, wall_ns, cfg.threads);
        layer_probes(&fresh_dir()?, &script(commits, cfg.seed), &s, tracer, report)?;
    }
    Ok(())
}

/// The same commits on databases with one layer taken away, and a reopen
/// with nothing to replay.
fn layer_probes(
    dir: &Path,
    script: &Script,
    s: &Samples,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    // In memory: no log, no fsync. With and without statistics upkeep.
    let in_memory = |stats: bool, tracer: &mut Tracer| -> Result<u64, String> {
        let db = Database::new();
        db.set_stats_enabled(stats);
        create_tables(&db)?;
        let mut times = Vec::with_capacity(script.inserts.len());
        for insert in &script.inserts {
            let (r, ns) = tracer.span(
                if stats { "probe.memory_commit" } else { "probe.memory_commit_nostats" },
                0,
                None,
                || db.execute(insert),
            );
            r.map_err(|e| format!("in-memory commit: {e}"))?;
            times.push(ns);
        }
        Ok(median_ns(&times))
    };
    let durable = median_ns(&s.commit) as f64;
    let (memory, memory_nostats) =
        (in_memory(true, tracer)? as f64, in_memory(false, tracer)? as f64);
    report.set("wal.commit_overhead_us", micros((durable - memory).max(0.0) as u64));
    report.set("stats.upkeep_share", ratio(memory - memory_nostats, durable));
    // From outside the log cannot be called on its own, so what a durable
    // commit costs beyond the same statement in memory is unattributed.
    report.set("unattributed_share", ratio(durable - memory, durable));

    // Reopen the same page files twice: once with an empty log (page load
    // alone), once with the last eighth of the script in the log. The
    // difference is replay.
    let split = script.inserts.len() * 7 / 8;
    let reopen = |name: &'static str,
                  tracer: &mut Tracer,
                  report: &mut Report|
     -> Result<(u64, u64), String> {
        let (mut times, mut replayed) = (Vec::new(), 0);
        for _ in 0..5 {
            let (opened, ns) = tracer.span(name, 0, None, || Database::open_durable(dir));
            let (db, recovered) = opened.map_err(|e| format!("reopen: {e}"))?;
            let count = db.query_value("SELECT COUNT(*) FROM t").ok().and_then(|v| v.as_i64());
            report.checks.record(
                (count.is_none() || !recovered.is_clean())
                    .then(|| format!("{name}: reopened to {count:?} rows, report {recovered:?}")),
            );
            replayed = recovered.replayed_records;
            times.push(ns);
        }
        Ok((median_ns(&times), replayed))
    };
    let (db, _) = Database::open_durable(dir).map_err(|e| format!("open_durable: {e}"))?;
    create_tables(&db)?;
    for insert in &script.inserts[..split] {
        exec(&db, insert)?;
    }
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    drop(db);
    let pages = page_files(dir)? as f64;
    let (load_ns, idle_records) = reopen("probe.page_load", tracer, report)?;
    report.set("page.load_mb_s", ratio(pages / 1e6, secs(load_ns)));
    let (db, _) = Database::open_durable(dir).map_err(|e| format!("open_durable: {e}"))?;
    mlcs_core::register_ml_udfs(&db);
    for insert in &script.inserts[split..] {
        exec(&db, insert)?;
    }
    drop(db);
    let (recover_ns, records) = reopen("probe.recovery", tracer, report)?;
    report.set(
        "persist.replay_us_per_record",
        ratio(
            micros(recover_ns.saturating_sub(load_ns)),
            records.saturating_sub(idle_records) as f64,
        ),
    );
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_cycle_verifies_and_counts_exactly() {
        let parent = crate::scratch::work_dir()
            .unwrap()
            .join(format!("durable-test-{}", std::process::id()));
        let run = |seed| {
            let dir = crate::scratch::unique_dir(&parent, "cycle").unwrap();
            let mut s = Samples::default();
            let mut report = Report::default();
            let cfg = RunConfig { seed, seconds: 1.0, traced: true, smoke: true, threads: 1 };
            cycle(&cfg, &dir, 50, &mut Tracer::new(false), 1, &mut s, &mut report).unwrap();
            assert_eq!(report.checks.failed, 0, "{:?}", report.checks.first_failures());
            // 50 commits + 25 read pairs x 2 + 1 checkpoint + 1 model + 3 reopens.
            assert_eq!(report.checks.attempted, 50 + 50 + 1 + 1 + 3);
            assert_eq!(
                (
                    s.commit.len(),
                    s.read.len(),
                    s.checkpoint.len(),
                    s.model_commit.len(),
                    s.block.len(),
                    s.recovery.len()
                ),
                (50, 25, 1, 1, 1, 3)
            );
            assert!(
                s.replayed >= 3 * 24,
                "each reopen replays the commits after the checkpoint: {}",
                s.replayed
            );
            (s.log_bytes, s.page_bytes)
        };
        let (a, b) = (run(1), run(1));
        assert_eq!(a, b, "byte counts repeat exactly at equal seed");
        assert!(a.0 > 50 * 24_000 && a.1 > 0);
        std::fs::remove_dir_all(&parent).unwrap();
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let (a, b, c) = (script(10, 1), script(10, 1), script(10, 2));
        assert_eq!(a.inserts, b.inserts);
        assert_ne!(a.inserts, c.inserts);
        assert_eq!(a.v.len(), 10 * ROWS_PER_COMMIT);
        assert!(a.inserts[3].starts_with("INSERT INTO t VALUES (3000, "));
    }
}
