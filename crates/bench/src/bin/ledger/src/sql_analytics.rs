//! Workload `sql_analytics`: nine statements, each shaped so that one
//! operator does nearly all the work, over a table larger than L2, through
//! the embedded `Database::query` with a warm plan cache. A pass runs all
//! nine; passes alternate between the configured worker count (`primary`)
//! and one worker (`secondary`), because both are code paths users run
//! and the serial one is what is left when parallel twins are merged.
//!
//! Check: every result of every pass equals the plain-Rust oracle.

use crate::clock::{millis, now_ns, secs, time};
use crate::gen::Rng;
use crate::layers::{front_end, registry_metrics, Phase};
use crate::oracle::{self, Dim, Expect, Fact};
use crate::report::{ratio, Report, RunConfig};
use crate::stats::{median, median_ns, overhead_share};
use crate::trace::Tracer;
use mlcs_columnar::{Batch, Column, Database, Table};

const SETUPS: usize = 3;

/// The generated tables as plain vectors (what the oracle reads).
#[derive(Debug, Clone, Default)]
pub struct Tables {
    pub fact: Fact,
    /// 1 000 rows: a build side that fits in cache.
    pub dim: Dim,
    /// `rows / 4` rows, keys in random order: a build side that does not.
    pub big_dim: Dim,
}

/// `fact`: `id` unique; `k` 100 values; `g` `rows / 4` values; `v` below
/// 1 000 000; `x` multiples of 1/8 so sums are exact in any order; `cat`
/// 16 strings. Every `k` has one partner in `dim`, every `g` one in
/// `big_dim`.
pub fn generate(rows: usize, seed: u64) -> Tables {
    let mut rng = Rng::new(seed, 1);
    let groups = (rows / 4).max(1) as u64;
    let mut fact = Fact::default();
    for i in 0..rows {
        fact.id.push(i as i64);
        fact.k.push(rng.below(100) as i32);
        fact.g.push(rng.below(groups) as i32);
        fact.v.push(rng.below(1_000_000) as i32);
        fact.x.push(rng.below(8_000) as f64 / 8.0);
        fact.cat.push(format!("c{:02}", rng.below(16)));
    }
    let dim =
        Dim { key: (0..1000).collect(), w: (0..1000).map(|_| rng.below(1000) as i32).collect() };
    let mut keys: Vec<i32> = (0..groups as i32).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let big_dim = Dim { w: keys.iter().map(|_| rng.below(1000) as i32).collect(), key: keys };
    Tables { fact, dim, big_dim }
}

/// Loads the tables into a fresh in-memory database.
pub fn load(t: &Tables) -> Result<Database, String> {
    let db = Database::new();
    let put = |name: &str, cols: Vec<(&str, Column)>| {
        Batch::from_columns(cols)
            .and_then(|b| db.catalog().put_table(Table::from_batch(name, b), false))
            .map_err(|e| format!("load table {name}: {e}"))
    };
    put(
        "fact",
        vec![
            ("id", Column::from_i64s(t.fact.id.clone())),
            ("k", Column::from_i32s(t.fact.k.clone())),
            ("g", Column::from_i32s(t.fact.g.clone())),
            ("v", Column::from_i32s(t.fact.v.clone())),
            ("x", Column::from_f64s(t.fact.x.clone())),
            ("cat", Column::from_strings(t.fact.cat.iter().map(String::as_str))),
        ],
    )?;
    put(
        "dim",
        vec![
            ("dk", Column::from_i32s(t.dim.key.clone())),
            ("w", Column::from_i32s(t.dim.w.clone())),
        ],
    )?;
    put(
        "big_dim",
        vec![
            ("bk", Column::from_i32s(t.big_dim.key.clone())),
            ("bw", Column::from_i32s(t.big_dim.w.clone())),
        ],
    )?;
    Ok(db)
}

/// One statement of the pass. Its per-layer metrics are
/// `exec.<name>_ms` and `exec.<name>_mrows_per_s`.
pub struct Statement {
    pub name: &'static str,
    pub sql: &'static str,
    pub expect: Expect,
}

/// The nine statements with their expected results.
pub fn statements(t: &Tables) -> Vec<Statement> {
    let f = &t.fact;
    let st = |name, sql, rows: Vec<Vec<oracle::Cell>>, ordered| Statement {
        name,
        sql,
        expect: oracle::expect_rows(&rows, ordered),
    };
    vec![
        st("q_filter", "SELECT id FROM fact WHERE v < 10000", oracle::filter(f, 10_000), false),
        st(
            "q_dict_filter",
            "SELECT COUNT(*), SUM(v) FROM fact WHERE cat = 'c03'",
            oracle::dict_filter(f, "c03"),
            false,
        ),
        st("q_project", "SELECT id, v * 2 + k, x * 0.5 FROM fact", oracle::project(f), false),
        st(
            "q_groupby_low",
            "SELECT k, COUNT(*), SUM(v), SUM(x) FROM fact GROUP BY k",
            oracle::groupby_low(f),
            false,
        ),
        st(
            "q_groupby_high",
            "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g",
            oracle::groupby_high(f),
            false,
        ),
        st(
            "q_join_dim",
            "SELECT COUNT(*), SUM(d.w) FROM fact f JOIN dim d ON f.k = d.dk",
            oracle::join_sum(&f.k, &t.dim),
            false,
        ),
        st(
            "q_join_big",
            "SELECT COUNT(*), SUM(b.bw) FROM fact f JOIN big_dim b ON f.g = b.bk",
            oracle::join_sum(&f.g, &t.big_dim),
            false,
        ),
        st("q_distinct", "SELECT DISTINCT k, cat FROM fact", oracle::distinct(f), false),
        st(
            "q_sort",
            "SELECT id, v FROM fact WHERE k < 10 ORDER BY v, id",
            oracle::sort(f, 10),
            true,
        ),
    ]
}

/// Runs the nine statements once, checking each result. Returns the
/// per-statement times; the pass time is their sum, so checking a result
/// is not billed to the engine.
pub fn pass(
    db: &Database,
    stmts: &[Statement],
    tracer: &mut Tracer,
    op_id: u64,
    name: &'static str,
    report: &mut Report,
) -> Vec<u64> {
    let root = tracer.begin(name, op_id, None);
    let parent = root.id();
    let mut times = Vec::with_capacity(stmts.len());
    for s in stmts {
        let (result, ns) = tracer.span(s.name, op_id, parent, || db.query(s.sql));
        report.checks.record(match &result {
            Ok(batch) => oracle::mismatch(batch, &s.expect).map(|why| format!("{}: {why}", s.name)),
            Err(e) => Some(format!("{}: {e}", s.name)),
        });
        times.push(ns);
    }
    tracer.end(root);
    times
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let rows = cfg.size(500_000, 20_000);
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        // One copy of the tables in memory at a time.
        drop(loaded.take());
        let (made, ns) = time(|| {
            let tables = generate(rows, cfg.seed);
            load(&tables).map(|db| (tables, db))
        });
        loaded = Some(made?);
        setups.push(secs(ns));
    }
    let (tables, db) = loaded.expect("SETUPS > 0");
    report.set("setup_s", median(&mut setups));
    let stmts = statements(&tables);
    report.note(format!(
        "sql_analytics: fact {rows} rows, dim {} rows, big_dim {} rows; passes of 9 statements at {} threads and at 1",
        tables.dim.key.len(),
        tables.big_dim.key.len(),
        cfg.threads
    ));

    // One pass of each kind fills the plan cache and warms the pool.
    for threads in [0, 1] {
        db.set_threads(threads);
        pass(&db, &stmts, &mut Tracer::new(false), 0, "warm", report);
    }

    // Timed phase, in pairs of one pass at each worker count.
    let mut parallel: Vec<Vec<u64>> = Vec::new();
    let mut serial: Vec<Vec<u64>> = Vec::new();
    let phase = Phase::start();
    let start = now_ns();
    let mut op_id = 0u64;
    while parallel.len() < cfg.min_units() || now_ns() - start < cfg.budget_ns() {
        tracer.set_enabled(cfg.records_unit(parallel.len()));
        op_id += 1;
        db.set_threads(0);
        parallel.push(pass(&db, &stmts, tracer, op_id, "pass.parallel", report));
        op_id += 1;
        db.set_threads(1);
        serial.push(pass(&db, &stmts, tracer, op_id, "pass.serial", report));
    }
    tracer.set_enabled(cfg.traced);
    db.set_threads(0);
    let wall_ns = now_ns() - start;
    let delta = phase.delta();

    let totals = |passes: &[Vec<u64>]| passes.iter().map(|p| p.iter().sum()).collect::<Vec<u64>>();
    let (parallel_totals, serial_totals) = (totals(&parallel), totals(&serial));
    let statement = |name: &str| {
        let i = stmts.iter().position(|s| s.name == name).expect("a statement of the pass");
        median_ns(&parallel.iter().map(|p| p[i]).collect::<Vec<_>>())
    };
    report.set("primary_p50_ms", millis(median_ns(&parallel_totals)));
    report.set("secondary_p50_ms", millis(median_ns(&serial_totals)));
    report.set("third_ms", millis(statement("q_groupby_high")));
    report.set("fourth_ms", millis(statement("q_join_big")));
    let pairs: Vec<u64> = parallel_totals.iter().zip(&serial_totals).map(|(p, s)| p + s).collect();
    report.set("throughput_ops_s", (2 * stmts.len()) as f64 / secs(median_ns(&pairs)));
    let statements_run = op_id * stmts.len() as u64;
    report.note(format!(
        "samples: {} parallel passes, {} serial passes in {:.2} s",
        parallel.len(),
        serial.len(),
        secs(wall_ns)
    ));

    if cfg.traced {
        for s in &stmts {
            let ns = statement(s.name);
            report.set(&format!("exec.{}_ms", s.name), millis(ns));
            report.set(&format!("exec.{}_mrows_per_s", s.name), ratio(rows as f64 / 1e6, secs(ns)));
        }
        // Every statement of a pair reads all of `fact`, so the ratio of
        // two statements' times is the ratio of their costs per input row.
        let cost_ratio = |big, small| ratio(statement(big) as f64, statement(small) as f64);
        report.set("exec.join_big_vs_dim", cost_ratio("q_join_big", "q_join_dim"));
        report.set("exec.groupby_high_vs_low", cost_ratio("q_groupby_high", "q_groupby_low"));
        report.set("exec.serial_pass_s", secs(median_ns(&serial_totals)));
        report.set("trace_overhead_share", overhead_share(&parallel_totals));
        registry_metrics(report, &delta, statements_run, wall_ns, cfg.threads);
        let unattributed = replay(&db, &stmts, tracer, report)?;
        report.set("unattributed_share", unattributed);
    }
    Ok(())
}

/// Replays each statement through the layers that can be called from
/// outside — parse, bind, optimize, then execution of the cached plan —
/// and compares their sum with a cold `Database::query` of the same
/// statement (a text the plan cache has not seen). Returns the share of
/// the cold query that the replayed layers do not account for.
fn replay(
    db: &Database,
    stmts: &[Statement],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    const REPS: usize = 5;
    let (mut cold_total, mut layers_total) = (0, 0);
    let mut variant = 0;
    for (i, s) in stmts.iter().enumerate() {
        let op_id = 2_000_000 + i as u64;
        let (mut cold, mut layers) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let root = tracer.begin("replay", op_id, None);
            let parent = root.id();
            // Trailing blanks make a new cache key for the same statement.
            variant += 1;
            let text = format!("{}{}", s.sql, " ".repeat(variant));
            let (r, ns) = tracer.span("replay.cold_query", op_id, parent, || db.query(&text));
            report.checks.record(match &r {
                Ok(b) => {
                    oracle::mismatch(b, &s.expect).map(|why| format!("{} (cold): {why}", s.name))
                }
                Err(e) => Some(format!("{} (cold): {e}", s.name)),
            });
            cold.push(ns);
            let front: u64 = front_end(db, s.sql, tracer, op_id, parent)?.iter().sum();
            let (r, hot) = tracer.span("exec.cached_query", op_id, parent, || db.query(s.sql));
            r.map_err(|e| format!("{}: {e}", s.name))?;
            layers.push(front + hot);
            tracer.end(root);
        }
        cold_total += median_ns(&cold);
        layers_total += median_ns(&layers);
    }
    Ok(ratio(cold_total as f64 - layers_total as f64, cold_total as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_matches_every_oracle_on_a_thousand_rows() {
        let tables = generate(1000, 7);
        let db = load(&tables).unwrap();
        let stmts = statements(&tables);
        assert_eq!(stmts.len(), 9);
        let mut report = Report::default();
        for threads in [0, 1] {
            db.set_threads(threads);
            let times = pass(&db, &stmts, &mut Tracer::new(false), 1, "test", &mut report);
            assert_eq!(times.len(), 9);
        }
        assert_eq!(
            (report.checks.attempted, report.checks.failed),
            (18, 0),
            "{:?}",
            report.checks.first_failures()
        );
        assert!(stmts.iter().all(|s| s.expect.rows > 0));
    }

    #[test]
    fn a_corrupted_expectation_is_a_failed_operation() {
        let tables = generate(1000, 7);
        let db = load(&tables).unwrap();
        let mut stmts = statements(&tables);
        stmts[3].expect.digest ^= 1;
        stmts[8].expect.rows += 1;
        let mut report = Report::default();
        pass(&db, &stmts, &mut Tracer::new(false), 1, "test", &mut report);
        assert_eq!((report.checks.attempted, report.checks.failed), (9, 2));
        assert!(report.checks.first_failures()[0].starts_with("q_groupby_low"));
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let (a, b, c) = (generate(1000, 3), generate(1000, 3), generate(1000, 4));
        assert_eq!(a.fact.v, b.fact.v);
        assert_eq!(a.big_dim.key, b.big_dim.key);
        assert_ne!(a.fact.v, c.fact.v);
        let mut keys = a.big_dim.key.clone();
        keys.sort_unstable();
        assert_eq!(keys, (0..250).collect::<Vec<_>>());
        assert!(a.fact.x.iter().all(|x| (x * 8.0).fract() == 0.0));
    }
}
