//! Independent live-vs-replay oracle: a random schedule of every mutating
//! statement kind is run against three databases — one in memory, one
//! durable and reopened with no checkpoint (state rebuilt by pure log
//! replay), one durable with a `CHECKPOINT` at a random position and then
//! reopened (page base + replay of the tail) — and all three must end up
//! indistinguishable: same tables, same schemas including nullability,
//! rows bit-identical including float bits, and equal [`Table::stats`].
//!
//! Every statement must also *succeed or fail alike* on all three, and a
//! failed statement must leave no trace — so a schedule that trips a NOT
//! NULL constraint half-way through a multi-column `UPDATE`, or names a
//! dropped table, checks statement atomicity for free.
//!
//! The schedule is a pure function of the generated seed, which a failing
//! case prints; `durable_reopen_replays_every_statement_kind` (a
//! `database.rs` unit test) stays as the fixed-script pin.
//!
//! [`Table::stats`]: mlcs_columnar::Table::stats

use mlcs_columnar::Database;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// xorshift64*: the whole schedule is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// One row literal for the fixed five-column layout. Values come from
/// small domains so deletes and updates hit rows, NDV stays low enough
/// for dictionary encoding to kick in, `-0.0` and `0.0` both occur
/// (min/max tie-breaking), and `id` is occasionally NULL — which a table
/// declaring it NOT NULL must refuse on every path alike.
fn row_literal(rng: &mut Rng) -> String {
    let id = if rng.below(12) == 0 { "NULL".to_owned() } else { rng.below(50).to_string() };
    let g = if rng.below(5) == 0 { "NULL".to_owned() } else { rng.below(4).to_string() };
    let x = rng.pick(&["NULL", "0.0", "-0.0", "0.5", "-1.5", "1e300", "2.25", "-7.75"]);
    let s = rng.pick(&["NULL", "''", "'a'", "'b'", "'ü'", "'long-ish string value'"]);
    let m = rng.pick(&["NULL", "x''", "x'00'", "x'00ff'", "x'DEADBEEF'"]);
    format!("({id}, {g}, {x}, {s}, {m})")
}

/// The next statement of the schedule. Nothing here consults the
/// databases: statements against missing tables, duplicate creates and
/// constraint violations are part of the schedule and must fail alike.
fn statement(rng: &mut Rng) -> String {
    let t = rng.pick(&TABLES);
    let u = rng.pick(&TABLES);
    match rng.below(22) {
        0..=3 => format!(
            "CREATE TABLE {}{t} (id BIGINT{}, g INTEGER, x DOUBLE, s VARCHAR, m BLOB)",
            if rng.below(4) == 0 { "IF NOT EXISTS " } else { "" },
            if rng.below(2) == 0 { " NOT NULL" } else { "" },
        ),
        // CTAS: a plain copy (NOT NULL and encodings pass through), a
        // computed projection (everything becomes nullable), a UNION ALL
        // that smuggles a NULL under a NOT NULL column's name.
        4 => format!("CREATE TABLE {t} AS SELECT * FROM {u} WHERE g >= {}", rng.below(3)),
        5 => format!("CREATE TABLE {t} AS SELECT id + 100 AS id, g, x * 0.5 AS x, s, m FROM {u}"),
        6 => format!(
            "CREATE TABLE {t} AS SELECT id, g, x, s, m FROM {u} \
             UNION ALL SELECT NULL, 9, 0.25, 'u', x'01'"
        ),
        7..=11 => {
            let n = 1 + rng.below(6);
            let rows: Vec<String> = (0..n).map(|_| row_literal(rng)).collect();
            format!("INSERT INTO {t} VALUES {}", rows.join(", "))
        }
        // INSERT … SELECT, BLOB column included; the column-list form
        // pads `x` and `s` with NULLs.
        12 | 13 => format!("INSERT INTO {t} SELECT * FROM {u} WHERE id < {}", rng.below(50)),
        14 => format!("INSERT INTO {t} (m, id, g) SELECT m, id + 1, g FROM {u}"),
        15 => format!("UPDATE {t} SET x = x + 0.5 WHERE g = {}", rng.below(4)),
        // Multi-column: the second assignment NULLs `id`, which a NOT
        // NULL table refuses after the first assignment was derived.
        16 => format!("UPDATE {t} SET g = g + 1, id = NULL WHERE id >= {}", rng.below(50)),
        17 => format!("UPDATE {t} SET s = 'z', m = x'AB' WHERE id >= {}", rng.below(50)),
        18 => format!("DELETE FROM {t} WHERE id < {}", rng.below(25)),
        19 | 20 => format!("DELETE FROM {t} WHERE g = {} OR x IS NULL", rng.below(4)),
        _ => format!("DROP TABLE {}{t}", if rng.below(4) == 0 { "IF EXISTS " } else { "" }),
    }
}

/// Everything observable about a database's tables, rendered so that
/// equality is bit-equality: `Debug` of `f64` distinguishes `-0.0` from
/// `0.0` and prints every non-NaN value round-trippably.
fn fingerprint(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for name in db.catalog().table_names() {
        let handle = db.catalog().table(&name).unwrap();
        let table = handle.read();
        out.push(format!("table {name} rows={}", table.rows()));
        for (f, st) in table.schema().fields().iter().zip(table.stats().columns()) {
            out.push(format!(
                "  {} {} nullable={} | rows={} nulls={} minmax={:?} ndv={} exact={}",
                f.name,
                f.dtype,
                f.nullable,
                st.rows(),
                st.nulls(),
                st.min_max(),
                st.ndv(),
                st.ndv_exact(),
            ));
        }
        let batch = table.scan();
        for i in 0..batch.rows() {
            out.push(format!("  {:?}", batch.row(i)));
        }
    }
    out
}

/// A fingerprint pair with NDV blanked wherever either side's is a sketch
/// estimate. Rows, nulls and min/max are exact on every path and must
/// agree everywhere; NDV is exact only on dictionary-encoded columns, and
/// *which* it is depends on when the last encoding sweep ran — identical
/// between live and pure replay (compared unrelaxed), but a base reloaded
/// from pages has just been swept afresh, so against it NDV is compared
/// where both sides are exact.
fn relax_ndv(a: &[String], b: &[String]) -> (Vec<String>, Vec<String>) {
    let blank = |l: &String| l.find(" ndv=").map_or(l.clone(), |at| l[..at].to_owned());
    let sketchy = |l: &String| l.ends_with("exact=false");
    let mut relaxed = (a.to_vec(), b.to_vec());
    for (x, y) in relaxed.0.iter_mut().zip(relaxed.1.iter_mut()) {
        if sketchy(x) || sketchy(y) {
            (*x, *y) = (blank(x), blank(y));
        }
    }
    relaxed
}

struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mlcs-live-vs-replay-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_schedule(seed: u64, steps: usize, checkpoint_at: usize) -> Result<(), TestCaseError> {
    let scratch = Scratch::new();
    let (replay_dir, ckpt_dir) = (scratch.0.join("replay"), scratch.0.join("ckpt"));
    let live = Database::new();
    let (replayed, _) = Database::open_durable(&replay_dir).unwrap();
    let (checkpointed, _) = Database::open_durable(&ckpt_dir).unwrap();

    let mut rng = Rng(seed | 1);
    for step in 0..steps {
        if step == checkpoint_at {
            checkpointed.checkpoint().unwrap();
        }
        // Two fixed creates first, so most of the random statements that
        // follow find the tables they name.
        let sql = match step {
            0 => "CREATE TABLE t0 (id BIGINT NOT NULL, g INTEGER, x DOUBLE, s VARCHAR, m BLOB)"
                .into(),
            1 => "CREATE TABLE t1 (id BIGINT, g INTEGER, x DOUBLE, s VARCHAR, m BLOB)".into(),
            _ => statement(&mut rng),
        };
        let outcome = live.execute(&sql).map(|r| r.rows_affected());
        for (which, db) in [("replay", &replayed), ("checkpoint", &checkpointed)] {
            let durable = db.execute(&sql).map(|r| r.rows_affected());
            prop_assert_eq!(
                outcome.clone().map_err(|e| e.to_string()),
                durable.map_err(|e| e.to_string()),
                "step {} `{}`: in-memory vs durable ({})",
                step,
                sql,
                which
            );
        }
        // Live state must agree statement by statement, failed ones
        // included: a failure leaves no trace on any path.
        let expect = fingerprint(&live);
        prop_assert_eq!(&expect, &fingerprint(&replayed), "after step {} `{}`", step, sql);
    }

    let expect = fingerprint(&live);
    drop((replayed, checkpointed));

    // (b) pure replay: no manifest, the whole state comes from the log.
    let (replayed, report) = Database::open_durable(&replay_dir).unwrap();
    prop_assert!(report.is_clean(), "replay reopen: {:?}", report);
    prop_assert_eq!(&expect, &fingerprint(&replayed), "live vs pure replay");

    // (c) page base cut mid-schedule + replay of the tail.
    let (checkpointed, report) = Database::open_durable(&ckpt_dir).unwrap();
    prop_assert!(report.is_clean(), "checkpoint reopen: {:?}", report);
    let (want, got) = relax_ndv(&expect, &fingerprint(&checkpointed));
    prop_assert_eq!(want, got, "live vs checkpoint at step {} + replay", checkpoint_at);
    // And the reopened databases keep agreeing: one more statement each.
    let sql = statement(&mut rng);
    let outcome = live.execute(&sql).map(|r| r.rows_affected()).map_err(|e| e.to_string());
    for db in [&replayed, &checkpointed] {
        let reopened = db.execute(&sql).map(|r| r.rows_affected()).map_err(|e| e.to_string());
        prop_assert_eq!(&outcome, &reopened, "post-reopen `{}`", sql);
    }
    prop_assert_eq!(fingerprint(&live), fingerprint(&replayed), "after post-reopen `{}`", sql);
    let (want, got) = relax_ndv(&fingerprint(&live), &fingerprint(&checkpointed));
    prop_assert_eq!(want, got, "after post-reopen `{}`", sql);
    Ok(())
}

/// Found by the oracle above at the parent commit (inputs
/// `(13072199602400711995, 38, 53)`): a multi-column `UPDATE` whose second
/// assignment trips NOT NULL used to stay half-applied in memory — the
/// first column replaced, nothing logged — so the in-memory table and
/// its own reopen disagreed. A refused statement leaves no trace, and
/// does not cost the durable handle its usability.
#[test]
fn refused_multi_column_update_leaves_no_trace() {
    let scratch = Scratch::new();
    let (db, _) = Database::open_durable(&scratch.0).unwrap();
    db.execute("CREATE TABLE t (id BIGINT NOT NULL, g INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 3), (2, 4)").unwrap();
    let before = fingerprint(&db);
    assert!(db.execute("UPDATE t SET g = g + 1, id = NULL WHERE id = 2").is_err());
    assert_eq!(fingerprint(&db), before, "the refused update left a trace in memory");
    db.execute("UPDATE t SET g = g + 10, id = id + 1").unwrap();
    let live = fingerprint(&db);
    drop(db);
    let (reopened, report) = Database::open_durable(&scratch.0).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(fingerprint(&reopened), live);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn live_replay_and_checkpointed_state_agree(
        seed in any::<u64>(),
        steps in 8usize..48,
        checkpoint_frac in 0usize..100,
    ) {
        run_schedule(seed, steps, checkpoint_frac * steps / 100)?;
    }
}
