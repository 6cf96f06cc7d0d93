//! Crash-safety tests for persistence: a save killed at *every* injected
//! fault point must leave a directory that still loads, recovery mode
//! must report damage exactly, and the durable (write-ahead-logged) path
//! must keep every acknowledged statement through crashes at every WAL
//! and checkpoint fault point — with unacknowledged statements applied
//! all-or-nothing, never partially.
//!
//! The randomized crash test replays exactly under `MLCS_CHAOS_SEED`
//! (CI runs a fixed seed plus a randomized printed one).
//!
//! The fault injector is process-global, so the tests serialize on a
//! mutex and disarm it on drop.

use mlcs_columnar::persist::{
    load_database, load_database_with, page_file_name, save_database, RecoveryMode,
};
use mlcs_columnar::wal::{self, Wal, WalOp};
use mlcs_columnar::{faults, metrics, Database, DbError, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct TestGuard {
    _lock: MutexGuard<'static, ()>,
    dir: PathBuf,
}

impl TestGuard {
    fn arm(test: &str) -> TestGuard {
        static LOCK: Mutex<()> = Mutex::new(());
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faults::clear();
        let dir = std::env::temp_dir().join(format!(
            "mlcs-persist-crash-{}-{}-{test}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TestGuard { _lock: lock, dir }
    }
}

impl Drop for TestGuard {
    fn drop(&mut self) {
        faults::clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Three tables whose single integer column holds `base`, `base + 1`,
/// `base + 2` — enough to tell generations apart per table.
fn generation(base: i64) -> Database {
    let db = Database::new();
    for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        db.execute(&format!("CREATE TABLE {name} (v BIGINT)")).unwrap();
        db.execute(&format!("INSERT INTO {name} VALUES ({})", base + i as i64)).unwrap();
    }
    db
}

/// The single value of `name`'s only row in `db`.
fn table_value(db: &Database, name: &str) -> i64 {
    match db.query_value(&format!("SELECT v FROM {name}")).unwrap() {
        Value::Int64(v) => v,
        other => panic!("{name} holds {other:?}"),
    }
}

/// Flips one byte of a file: the middle one, or byte 20 if that comes
/// first — in a page file the middle is zero padding no checksum covers,
/// while byte 20 is payload just past the 16-byte page header.
fn corrupt_file(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = (bytes.len() / 2).min(20);
    bytes[mid] ^= 0xFF;
    std::fs::write(path, bytes).unwrap();
}

/// Kills the save at every fault point of the one snapshot writer in turn
/// — each page write, the manifest write, each rename, each fsync — and
/// checks the directory still strict-loads one whole generation
/// afterwards: all three tables old, or all three new, never a mix (page
/// files are versioned, so only the manifest rename switches) — and an
/// untouched fault point means the save just succeeds.
#[test]
fn save_killed_at_every_fault_point_still_loads() {
    // (spec, faultable calls per save): 3 one-page tables + 1 manifest.
    for (point_spec, io_count) in [
        ("page.write:torn:1", 3),
        ("fs.write:torn:1", 1),
        ("fs.rename:err:1", 4),
        ("fs.fsync:err:1", 4),
    ] {
        let guard = TestGuard::arm("kill-points");
        let dir = guard.dir.clone();
        let gen1 = generation(100);
        save_database(&gen1, &dir).unwrap();
        let gen2 = generation(200);

        let mut crashes = 0;
        for nth in 1..64 {
            faults::configure_str(&format!("{point_spec}:{nth}"), 7).unwrap();
            let outcome = save_database(&gen2, &dir);
            faults::clear();
            if outcome.is_ok() {
                // The fault point lies beyond the save's I/O count: done.
                break;
            }
            crashes += 1;
            let fresh = Database::new();
            load_database(&fresh, &dir)
                .unwrap_or_else(|e| panic!("directory unloadable after {point_spec}:{nth}: {e}"));
            let loaded: Vec<i64> =
                ["alpha", "beta", "gamma"].iter().map(|name| table_value(&fresh, name)).collect();
            assert!(
                loaded == [100, 101, 102] || loaded == [200, 201, 202],
                "generations mixed after {point_spec}:{nth}: {loaded:?}"
            );
            assert!(nth < 63, "save never ran out of fault points for {point_spec}");
        }
        assert_eq!(crashes, io_count, "unexpected I/O count for {point_spec}");

        // The final fault-free save committed generation 2 in full.
        let fresh = Database::new();
        load_database(&fresh, &dir).unwrap();
        for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
            assert_eq!(table_value(&fresh, name), 200 + i as i64);
        }
    }
}

/// A snapshot must not land beside a write-ahead log its writer does not
/// own: every later load would replay that foreign log over it
/// (`CreateTable` colliding, `Append` duplicating rows). Saving into
/// one's *own* durable directory is the checkpoint.
#[test]
fn save_into_a_foreign_durable_directory_is_refused() {
    let guard = TestGuard::arm("foreign-log");
    let dir = guard.dir.clone();
    {
        let (owner, _) = Database::open_durable(&dir).unwrap();
        owner.execute("CREATE TABLE t (v BIGINT)").unwrap();
        owner.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    }
    let before: Vec<_> = dir_listing(&dir);

    // A non-durable database holding a same-named table.
    let stranger = Database::new();
    stranger.execute("CREATE TABLE t (v BIGINT)").unwrap();
    stranger.execute("INSERT INTO t VALUES (7)").unwrap();
    let err = save_database(&stranger, &dir).unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");
    assert!(err.to_string().contains("write-ahead log"), "{err}");
    assert_eq!(dir_listing(&dir), before, "a refused save must write nothing");

    // Another durable database is a stranger here too.
    let elsewhere = guard.dir.with_extension("elsewhere");
    let (other, _) = Database::open_durable(&elsewhere).unwrap();
    assert!(save_database(&other, &dir).is_err());
    drop(other);
    let _ = std::fs::remove_dir_all(&elsewhere);

    // The owner's directory is untouched: it reopens to its own rows.
    let (owner, report) = Database::open_durable(&dir).unwrap();
    assert!(report.damaged.is_empty(), "{:?}", report.damaged);
    assert_eq!(table_values(&owner, "t"), vec![1, 2]);

    // Saving into one's own durable directory is the checkpoint: the log
    // is folded into a page generation, no second format appears.
    owner.execute("INSERT INTO t VALUES (3)").unwrap();
    save_database(&owner, &dir).unwrap();
    drop(owner);
    let names = dir_listing(&dir);
    assert!(
        names.iter().all(|n| n.ends_with(".mlcspg") || n == "catalog.mlcsdb" || n == "wal.mlcslog"),
        "{names:?}"
    );
    let (again, report) = Database::open_durable(&dir).unwrap();
    assert_eq!(report.replayed_records, 1, "only the checkpoint marker is left to replay");
    assert_eq!(table_values(&again, "t"), vec![1, 2, 3]);
}

/// Sorted file names in `dir`.
fn dir_listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// A page payload whose CRCs all check out but whose row count is forged
/// must fail the load with a typed error — never a capacity-overflow
/// panic or a multi-GiB allocation inside `open_durable`. (The same
/// forgery inside a log record is pinned by the `wal` unit tests, which
/// can frame records.)
#[test]
fn forged_row_count_in_a_page_payload_is_corrupt_not_a_panic() {
    use mlcs_columnar::page::{decode_pages, encode_pages};
    let guard = TestGuard::arm("forged-rows");
    let dir = guard.dir.clone();
    let db = Database::new();
    db.execute("CREATE TABLE t (v BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    save_database(&db, &dir).unwrap();

    // Payload layout: magic(8) crc(4) | ncols(1) "v"(1+1) tag(1)
    // nullable(1) | rows varint(1) | ... — swap the one-byte row count
    // for a nine-byte varint of 2^60 and re-seal CRC and pages.
    let file = dir.join(page_file_name("t", 1));
    let payload = decode_pages("t", &std::fs::read(&file).unwrap()).unwrap();
    let rows_at = 12 + 5;
    assert_eq!(payload[rows_at], 1, "layout drifted: expected the row count here");
    let mut body = payload[12..rows_at].to_vec();
    body.extend([0x80u8; 8]);
    body.push(0x10); // varint 2^60
    body.extend(&payload[rows_at + 1..]);
    let mut forged = payload[..8].to_vec();
    forged.extend(mlcs_pickle::crc::crc32(&body).to_le_bytes());
    forged.extend(&body);
    std::fs::write(&file, encode_pages(&forged)).unwrap();

    let err = load_database(&Database::new(), &dir).unwrap_err();
    assert!(matches!(err, DbError::Corrupt(_)), "got {err:?}");
    let report = load_database_with(&Database::new(), &dir, RecoveryMode::Recover).unwrap();
    assert_eq!(report.damaged.len(), 1, "the forged table is skipped and reported");
}

/// A failed append is not acknowledged and leaves the log reusable: the
/// torn suffix sits on disk, but the writer's offset did not move, so
/// the next append overwrites it — the log ends up byte-identical to one
/// that never saw the fault. (Lives here, beside the other tests that
/// arm the process-global injector, not among the `wal` unit tests whose
/// siblings append to their own logs concurrently.)
#[test]
fn failed_append_is_not_acknowledged_and_log_reusable() {
    let guard = TestGuard::arm("failfree");
    let retain = |keep: Vec<u32>| [WalOp::Retain { table: "t".into(), keep }];
    let faulted = Wal::open(&guard.dir.join("faulted")).unwrap();
    faulted.append(&retain(vec![1])).unwrap();
    faults::configure_str("wal.append:torn:1:1", 7).unwrap();
    let err = faulted.append(&retain(vec![2, 3, 4]));
    faults::clear();
    assert!(err.is_err());
    assert_eq!(faulted.append(&retain(vec![5])).unwrap(), 2, "the failed append spent no LSN");

    let clean = Wal::open(&guard.dir.join("clean")).unwrap();
    clean.append(&retain(vec![1])).unwrap();
    clean.append(&retain(vec![5])).unwrap();
    let log = std::fs::read(faulted.path()).unwrap();
    assert_eq!(log, std::fs::read(clean.path()).unwrap());
    assert_eq!(wal::scan_records_for_bench(&log), (2, log.len() as u64));
}

/// Recovery mode skips exactly the damaged tables, loads the rest, counts
/// each skip on `persist.recovered_tables`, and strict mode refuses the
/// same directory.
#[test]
fn recovery_reports_exact_damage() {
    let guard = TestGuard::arm("recovery-report");
    let dir = guard.dir.clone();
    save_database(&generation(10), &dir).unwrap();
    corrupt_file(&dir.join(page_file_name("beta", 1)));

    // Strict: the corrupt table fails the whole load.
    assert!(load_database(&Database::new(), &dir).is_err());

    let before = metrics::snapshot();
    let report = load_database_with(&Database::new(), &dir, RecoveryMode::Recover).unwrap();
    assert_eq!(report.loaded, vec!["alpha".to_owned(), "gamma".to_owned()]);
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].name, "beta");
    assert!(!report.damaged[0].reason.is_empty());
    assert!(report.stale_tmp.is_empty());
    assert!(!report.is_clean());
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("persist.recovered_tables"), 1);

    // A missing file is damage too.
    std::fs::remove_file(dir.join(page_file_name("gamma", 1))).unwrap();
    let report = load_database_with(&Database::new(), &dir, RecoveryMode::Recover).unwrap();
    assert_eq!(report.loaded, vec!["alpha".to_owned()]);
    let damaged: Vec<&str> = report.damaged.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(damaged, vec!["beta", "gamma"]);

    // Manifest damage stays fatal even in recovery mode.
    corrupt_file(&dir.join("catalog.mlcsdb"));
    assert!(load_database_with(&Database::new(), &dir, RecoveryMode::Recover).is_err());
}

/// All `v` values of `name` in ascending order — the shape the durable
/// crash tests compare against their shadow state.
fn table_values(db: &Database, name: &str) -> Vec<i64> {
    let batch = db.query(&format!("SELECT v FROM {name} ORDER BY v")).unwrap();
    (0..batch.rows())
        .map(|i| match batch.column(0).value(i) {
            Value::Int64(v) => v,
            other => panic!("{name} holds {other:?}"),
        })
        .collect()
}

/// Deterministic PRNG for the chaos test (xorshift64*); the whole run is
/// a pure function of the printed seed.
struct Chaos(u64);

impl Chaos {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(default)
}

/// A WAL commit killed at every WAL-side fault point is all-or-nothing:
/// the failed statement is never acknowledged, the handle is poisoned —
/// memory and log may now disagree, so every further durable mutation
/// and checkpoint is refused until reopen (reads still work) — and a
/// reopen recovers the last acknowledged state and accepts commits
/// again.
///
/// `wal.append:flip` is deliberately absent: a flip *succeeds* at the
/// syscall layer (the commit is acknowledged) but the frame fails CRC on
/// replay — that is silent media corruption, not a crash, and the
/// committed-statements-survive contract does not cover it.
#[test]
fn wal_commit_killed_at_every_fault_point_is_all_or_nothing() {
    for point_spec in ["wal.append:torn:1", "wal.append:err:1", "wal.fsync:err:1", "fs.fsync:err:1"]
    {
        let guard = TestGuard::arm("wal-kill");
        let dir = guard.dir.clone();
        {
            let (db, _) = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE t (v BIGINT)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();

            faults::configure_str(&format!("{point_spec}:1"), 11).unwrap();
            let outcome = db.execute("INSERT INTO t VALUES (2)");
            faults::clear();
            assert!(outcome.is_err(), "{point_spec} did not fail the commit");

            // The failed commit was applied in memory before the append
            // died, so the handle is poisoned: durable mutations and
            // checkpoints are refused (a later DELETE would otherwise
            // log keep-indices computed against the divergent table).
            assert!(
                db.execute("INSERT INTO t VALUES (99)").is_err(),
                "durable commit accepted on a poisoned handle after {point_spec}"
            );
            assert!(
                db.checkpoint().is_err(),
                "checkpoint accepted on a poisoned handle after {point_spec}"
            );
            // Reads still work on the in-memory state.
            fresh_rows_at_least(&db, 1, point_spec);
            // Process "crashes" here: the Database is dropped without a
            // checkpoint, so reopen goes through WAL replay alone.
        }

        let (fresh, report) = Database::open_durable(&dir).unwrap();
        assert!(
            report.damaged.is_empty(),
            "replay damage after {point_spec}: {:?}",
            report.damaged
        );
        // Reopen cleared the poison: the log accepts commits again.
        fresh.execute("INSERT INTO t VALUES (3)").unwrap();
        drop(fresh);

        let (again, _) = Database::open_durable(&dir).unwrap();
        let vals = table_values(&again, "t");
        // 1 and 3 were acknowledged and must be present. Statement 2 was
        // not: after a failed fsync its frame may sit fully (never
        // partially) on disk, so it may legally resurface; an interrupted
        // append cannot leave an intact frame, so there it must be gone.
        assert!(vals.contains(&1) && vals.contains(&3), "{point_spec} lost a commit: {vals:?}");
        assert!(!vals.contains(&99), "refused statement survived {point_spec}: {vals:?}");
        if point_spec.starts_with("wal.append") {
            assert_eq!(vals, vec![1, 3], "wrong survivors after {point_spec}: {vals:?}");
        } else {
            assert!(
                vals == vec![1, 3] || vals == vec![1, 2, 3],
                "wrong survivors after {point_spec}: {vals:?}"
            );
        }
    }
}

/// Sanity probe that reads keep working on a poisoned handle.
fn fresh_rows_at_least(db: &Database, n: usize, ctx: &str) {
    let rows = db.query("SELECT v FROM t").unwrap().rows();
    assert!(rows >= n, "poisoned handle lost read access after {ctx}: {rows} rows");
}

/// Crashing *immediately* after a failed WAL commit (no further writes)
/// must still be all-or-nothing for the failed statement: after
/// `wal.fsync`/`fs.fsync` failures the frame may be fully on disk
/// (written but unsynced), so the unacknowledged statement is allowed to
/// survive in full — but never partially, and never at the cost of an
/// acknowledged one.
#[test]
fn wal_commit_crash_right_after_failure_is_never_partial() {
    for point_spec in ["wal.append:torn:1", "wal.append:err:1", "wal.fsync:err:1", "fs.fsync:err:1"]
    {
        let guard = TestGuard::arm("wal-kill-immediate");
        let dir = guard.dir.clone();
        {
            let (db, _) = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE t (v BIGINT)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();

            faults::configure_str(&format!("{point_spec}:1"), 11).unwrap();
            // Two rows in one statement: partial application would be
            // visible as exactly one of {2, 1002} surviving.
            let outcome = db.execute("INSERT INTO t VALUES (2), (1002)");
            faults::clear();
            assert!(outcome.is_err(), "{point_spec} did not fail the commit");
        }

        let (fresh, report) = Database::open_durable(&dir).unwrap();
        let vals = table_values(&fresh, "t");
        let failed_present = vals.contains(&2);
        assert_eq!(
            failed_present,
            vals.contains(&1002),
            "torn statement after {point_spec}: {vals:?}"
        );
        assert!(vals.contains(&1), "acknowledged row lost after {point_spec}: {vals:?}");
        if point_spec.starts_with("wal.append") {
            // The append itself was interrupted, so the frame cannot be
            // intact on disk — recovery must have discarded the tail.
            assert!(!failed_present, "interrupted append survived {point_spec}");
        }
        if point_spec == "wal.append:torn:1" {
            assert!(report.truncated_tail > 0, "torn tail not reported for {point_spec}");
        }
    }
}

/// A checkpoint killed at every page/rename/fsync fault point in turn
/// leaves the directory fully recoverable: every committed statement is
/// present on reopen, whether the kill landed before or after the
/// manifest rename. A `page.write:flip` is caught by the checkpointer's
/// read-back verification before the manifest commit, so it degrades to
/// a failed checkpoint rather than silent corruption.
#[test]
fn checkpoint_killed_at_every_fault_point_preserves_committed_data() {
    // Table `a` must span at least one *full* page: a flipped byte in a
    // page's padding is outside the checksum (harmless by construction),
    // so the flip leg of the matrix needs a page with no padding to be
    // guaranteed to trip the read-back.
    let a_vals: Vec<i64> = (0..1100).collect();
    let a_rows = a_vals.iter().map(|v| format!("({v})")).collect::<Vec<_>>().join(", ");
    for point_spec in [
        "page.write:torn:1",
        "page.write:flip:1",
        "page.write:err:1",
        "fs.rename:err:1",
        "fs.fsync:err:1",
    ] {
        let guard = TestGuard::arm("ckpt-kill");
        let dir = guard.dir.clone();
        {
            let (db, _) = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE a (v BIGINT)").unwrap();
            db.execute("CREATE TABLE b (v BIGINT)").unwrap();
            db.execute(&format!("INSERT INTO a VALUES {a_rows}")).unwrap();
            db.execute("INSERT INTO b VALUES (20)").unwrap();
        }

        let mut crashes = 0;
        for nth in 1..64 {
            let (db, report) = Database::open_durable(&dir).unwrap();
            assert!(
                report.damaged.is_empty(),
                "reopen damage before {point_spec}:{nth}: {:?}",
                report.damaged
            );
            assert_eq!(table_values(&db, "a"), a_vals, "after {point_spec}:{}", nth - 1);
            assert_eq!(table_values(&db, "b"), vec![20], "after {point_spec}:{}", nth - 1);

            faults::configure_str(&format!("{point_spec}:{nth}"), 13).unwrap();
            let outcome = db.checkpoint();
            faults::clear();
            // Process "crashes" here: drop without further writes.
            drop(db);
            if outcome.is_ok() {
                break;
            }
            crashes += 1;
            assert!(nth < 63, "checkpoint never ran out of fault points for {point_spec}");
        }
        assert!(crashes >= 1, "{point_spec} never fired during checkpoint");

        // After the final successful checkpoint the directory is clean
        // and complete.
        let (fresh, report) = Database::open_durable(&dir).unwrap();
        assert!(report.damaged.is_empty(), "{:?}", report.damaged);
        assert_eq!(table_values(&fresh, "a"), a_vals);
        assert_eq!(table_values(&fresh, "b"), vec![20]);
    }
}

/// Replaying the same log twice equals replaying it once: the manifest's
/// checkpoint LSN watermark makes redo idempotent. Simulates the
/// crash window where the checkpoint's manifest rename committed but the
/// log truncation never hit disk, by restoring the pre-checkpoint log
/// bytes over the truncated file.
#[test]
fn replay_is_idempotent_across_repeated_recovery() {
    let guard = TestGuard::arm("replay-idempotent");
    let dir = guard.dir.clone();
    let wal_path = dir.join("wal.mlcslog");
    {
        let (db, _) = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE t (v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.execute("UPDATE t SET v = v + 10 WHERE v = 2").unwrap();
        db.execute("DELETE FROM t WHERE v = 1").unwrap();

        let stale_log = std::fs::read(&wal_path).unwrap();
        db.checkpoint().unwrap();
        // Crash window: manifest committed, truncation lost.
        std::fs::write(&wal_path, stale_log).unwrap();
    }

    for round in 0..2 {
        let before = metrics::snapshot();
        let (db, report) = Database::open_durable(&dir).unwrap();
        let delta = metrics::snapshot().since(&before);
        // Every surviving record's LSN sits at or below the manifest
        // watermark, so redo applies none of them — on both passes.
        assert_eq!(report.replayed_records, 0, "round {round} re-applied stale records");
        assert_eq!(delta.counter("persist.replayed_records"), 0, "round {round}");
        assert!(report.damaged.is_empty(), "round {round}: {:?}", report.damaged);
        assert_eq!(table_values(&db, "t"), vec![12], "round {round}");
    }
}

/// The second-checkpoint crash window: data committed *after* a first
/// checkpoint, then a second checkpoint killed at each rename in turn —
/// including the window after a table's fresh page file is renamed into
/// place but before the manifest commit. Page files are versioned by
/// checkpoint LSN, so the old manifest keeps referencing the old
/// (untouched) generation and replay past the old watermark never
/// double-applies: no duplicated appends, no Retain keep-indices landing
/// on shifted row positions.
#[test]
fn second_checkpoint_killed_between_page_and_manifest_rename_never_double_applies() {
    let guard = TestGuard::arm("ckpt-regen");
    let dir = guard.dir.clone();
    {
        let (db, _) = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE t (v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint traffic: an append and a positional delete, the
        // two shapes a stale-watermark double-replay corrupts.
        db.execute("INSERT INTO t VALUES (3), (4)").unwrap();
        db.execute("DELETE FROM t WHERE v = 2").unwrap();
    }

    let mut crashes = 0;
    for nth in 1..16 {
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert!(report.damaged.is_empty(), "nth {nth}: {:?}", report.damaged);
        assert_eq!(
            table_values(&db, "t"),
            vec![1, 3, 4],
            "double-applied or mis-retained rows before fs.rename:{nth}"
        );
        faults::configure_str(&format!("fs.rename:err:1:{nth}"), 17).unwrap();
        let outcome = db.checkpoint();
        faults::clear();
        drop(db); // crash: no further writes after the failed fold
        if outcome.is_ok() {
            break;
        }
        crashes += 1;
        assert!(nth < 15, "checkpoint never ran out of rename fault points");
    }
    // One page rename + one manifest rename must each have been killed.
    assert_eq!(crashes, 2, "unexpected rename count during checkpoint");

    let (fresh, report) = Database::open_durable(&dir).unwrap();
    assert!(report.damaged.is_empty(), "{:?}", report.damaged);
    assert_eq!(table_values(&fresh, "t"), vec![1, 3, 4]);
}

/// A crash in the middle of a checkpoint's log reset (the reset is not
/// atomic: `set_len(0)` + header + marker) can leave a bare header next
/// to a manifest whose watermark says LSNs were already spent. The next
/// session must resume LSN issue past the watermark — were it to restart
/// at 1, its acknowledged commits would sit at or below the watermark
/// and be silently skipped by every later replay: acknowledged data
/// loss.
#[test]
fn lsn_issue_resumes_past_watermark_after_lost_log_reset() {
    let guard = TestGuard::arm("lsn-resume");
    let dir = guard.dir.clone();
    {
        let (db, _) = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE t (v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.checkpoint().unwrap();
    }
    // Crash mid-reset: the truncation and fresh header landed, the
    // checkpoint marker record did not.
    std::fs::write(dir.join("wal.mlcslog"), b"MLCSWAL1").unwrap();

    {
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert!(report.damaged.is_empty(), "{:?}", report.damaged);
        assert_eq!(table_values(&db, "t"), vec![1, 2]);
        // This commit must carry an LSN past the manifest watermark.
        db.execute("INSERT INTO t VALUES (3)").unwrap();
    }

    let (fresh, report) = Database::open_durable(&dir).unwrap();
    assert_eq!(report.replayed_records, 1, "the post-reset commit must replay");
    assert_eq!(
        table_values(&fresh, "t"),
        vec![1, 2, 3],
        "acknowledged commit invisible to replay (LSN at or below the watermark)"
    );
}

/// After a commit fails *past* the in-memory apply, the durability
/// handle is poisoned: physical redo records computed against the now-
/// divergent tables (DELETE keep-indices, UPDATE column images) can no
/// longer be trusted, so durable mutations and checkpoints are refused
/// until a reopen rebuilds memory from the log. Reads keep working, and
/// the reopened database accepts the same statements cleanly.
#[test]
fn failed_commit_poisons_durable_statements_until_reopen() {
    let guard = TestGuard::arm("poison");
    let dir = guard.dir.clone();
    {
        let (db, _) = Database::open_durable(&dir).unwrap();
        db.execute("CREATE TABLE t (v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();

        faults::configure_str("wal.append:err:1", 19).unwrap();
        assert!(db.execute("INSERT INTO t VALUES (4)").is_err());
        faults::clear();

        // The unlogged row sits in memory; a DELETE would compute its
        // keep-indices against that divergent table and replay them
        // against the wrong positions — so it must be refused.
        let err = db.execute("DELETE FROM t WHERE v = 2").unwrap_err();
        assert!(err.to_string().contains("reopen"), "untyped poison error: {err}");
        assert!(db.execute("UPDATE t SET v = v + 10").is_err());
        assert!(db.execute("CREATE TABLE u (x BIGINT)").is_err());
        assert!(db.checkpoint().is_err());
        // Reads are unaffected.
        assert_eq!(db.query("SELECT v FROM t").unwrap().rows(), 4);
    }

    let (db, report) = Database::open_durable(&dir).unwrap();
    assert!(report.damaged.is_empty(), "{:?}", report.damaged);
    assert_eq!(table_values(&db, "t"), vec![1, 2, 3], "unacknowledged row survived reopen");
    db.execute("DELETE FROM t WHERE v = 2").unwrap();
    drop(db);

    let (fresh, _) = Database::open_durable(&dir).unwrap();
    assert_eq!(table_values(&fresh, "t"), vec![1, 3], "post-reopen delete replayed wrong");
}

/// Randomized crash schedule, replayable via `MLCS_CHAOS_SEED`: random
/// two-row inserts with random fault arming at the WAL points, random
/// checkpoints, and periodic crash+reopen — plus a forced crash+reopen
/// after every failed commit, since a failed commit poisons the handle
/// (memory and log may disagree) and refuses further durable statements.
/// Invariants after every reopen: every acknowledged statement survives
/// in full, every failed statement is all-or-nothing (both rows or
/// neither), and nothing else appears.
#[test]
fn randomized_crash_schedule_is_replayable_and_all_or_nothing() {
    let seed = env_u64("MLCS_CHAOS_SEED", 0xC4A5_0FF5_EED0_0D1E);
    println!("chaos seed: {seed} (set MLCS_CHAOS_SEED to replay)");
    let mut rng = Chaos(seed.max(1));

    let guard = TestGuard::arm("chaos");
    let dir = guard.dir.clone();
    let (mut db, _) = Database::open_durable(&dir).unwrap();
    db.execute("CREATE TABLE t (v BIGINT)").unwrap();

    // Acknowledged rows, and the row pairs of failed statements (each
    // may surface fully on a later reopen — fsync ambiguity — but never
    // partially).
    let mut shadow: Vec<i64> = Vec::new();
    let mut failed_pairs: Vec<(i64, i64)> = Vec::new();

    for round in 0..25i64 {
        let (lo, hi) = (round, round + 1000);
        // Arm a fault on ~40% of rounds. `flip` stays out of the WAL
        // points (silent corruption, not a crash — see the kill-matrix
        // test); `fs.fsync` also fires during checkpoints, which is fine.
        let armed = match rng.below(10) {
            0 => Some("wal.append:torn:1:1"),
            1 => Some("wal.append:err:1:1"),
            2 => Some("wal.fsync:err:1:1"),
            3 => Some("fs.fsync:err:1:1"),
            _ => None,
        };
        if let Some(spec) = armed {
            faults::configure_str(spec, rng.next() | 1).unwrap();
        }
        let outcome = db.execute(&format!("INSERT INTO t VALUES ({lo}), ({hi})"));
        faults::clear();
        let mut poisoned = false;
        match outcome {
            Ok(_) => shadow.extend([lo, hi]),
            Err(_) => {
                failed_pairs.push((lo, hi));
                poisoned = true;
                // The poisoned handle must refuse the next commit
                // outright (nothing reaches memory or the log).
                assert!(
                    db.execute("INSERT INTO t VALUES (424242)").is_err(),
                    "round {round}: poisoned handle accepted a commit (seed {seed})"
                );
            }
        }

        if !poisoned && rng.below(5) == 0 {
            // Checkpoints may legitimately fail if a stray armed fault
            // fired mid-fold; committed data must survive either way.
            let _ = db.checkpoint();
        }

        if poisoned || rng.below(4) == 0 {
            drop(db);
            let (fresh, report) = Database::open_durable(&dir).unwrap();
            assert!(report.damaged.is_empty(), "round {round}: {:?}", report.damaged);
            let disk = table_values(&fresh, "t");
            for v in &shadow {
                assert!(disk.contains(v), "round {round}: acknowledged row {v} lost (seed {seed})");
            }
            for &(lo, hi) in &failed_pairs {
                assert_eq!(
                    disk.contains(&lo),
                    disk.contains(&hi),
                    "round {round}: failed statement ({lo}, {hi}) applied partially (seed {seed})"
                );
            }
            let explained: Vec<i64> = disk
                .iter()
                .copied()
                .filter(|v| {
                    !shadow.contains(v)
                        && !failed_pairs.iter().any(|&(lo, hi)| *v == lo || *v == hi)
                })
                .collect();
            assert!(
                explained.is_empty(),
                "round {round}: phantom rows {explained:?} (seed {seed})"
            );
            // Failed-but-surviving statements are now durable state;
            // fold them into the shadow before continuing.
            shadow = disk;
            failed_pairs.clear();
            db = fresh;
        }
    }
}

/// An interrupted save leaves `*.tmp` debris that the next load reports
/// (but is otherwise unharmed by).
#[test]
fn interrupted_save_leaves_reported_tmp_debris() {
    let guard = TestGuard::arm("tmp-debris");
    let dir = guard.dir.clone();
    save_database(&generation(10), &dir).unwrap();

    // Kill generation 2's save at its first rename: alpha's fresh pages
    // are on disk as a `.tmp` sibling, never renamed into place.
    faults::configure_str("fs.rename:err:1:1", 7).unwrap();
    assert!(save_database(&generation(20), &dir).is_err());
    faults::clear();

    let report = load_database_with(&Database::new(), &dir, RecoveryMode::Recover).unwrap();
    assert_eq!(report.loaded.len(), 3);
    assert!(report.damaged.is_empty());
    assert_eq!(report.stale_tmp, vec![format!("{}.tmp", page_file_name("alpha", 2))]);
    assert!(!report.is_clean());
}
