//! The registry's counters must move exactly once per event: one
//! invocation counter tick per UDF call (not per row — the UDFs are
//! vectorized), one serialize/deserialize tick per pickle round-trip with
//! byte histograms matching the blob sizes exactly, and one tick per
//! resilience event (connection rejected, idle timeout, client retry,
//! recovered table, injected fault). The compressed-execution counters are
//! pinned too: columns encoded by the heuristic, rows through dict-code
//! fast paths, runs folded run-at-a-time, and fused kernels/rows. The
//! serving layer adds the reactor admission counters (adopted, admitted,
//! shed) and the plan cache's hit/miss pair.
//!
//! A single `#[test]` on purpose: the registry is process-global, and a
//! concurrent test in the same binary could move the very counters whose
//! deltas are asserted here.

mod common;

use common::ScratchDir;
use mlcs::columnar::parallel::lock_order::{self, TrackedMutex};
use mlcs::columnar::persist::{load_database_with, page_file_name, save_database, RecoveryMode};
use mlcs::columnar::{faults, metrics, Database, Value};
use mlcs::mlcore::{register_ml_udfs, StoredModel};
use mlcs::netproto::{NetConfig, Server, TextClient};
use std::time::Duration;

/// Polls until `cond` holds; server-side ticks land on worker threads, so
/// the assertions on them need a bounded wait.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while start.elapsed() < Duration::from_secs(5) {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn counters_move_exactly_once_per_event() {
    let points_db = || {
        let db = Database::new();
        register_ml_udfs(&db);
        db.execute("CREATE TABLE points (x DOUBLE, y DOUBLE, label INTEGER)").unwrap();
        db.execute(
            "INSERT INTO points VALUES (-2.0, -2.0, 0), (-1.5, -1.0, 0),
                                       (-1.0, -2.5, 0), ( 1.0,  1.5, 1),
                                       ( 2.0,  1.0, 1), ( 1.5,  2.5, 1)",
        )
        .unwrap();
        db
    };
    let db = points_db();

    // Table UDF: one `train(...)` statement is one invocation.
    let before = metrics::snapshot();
    db.execute(
        "CREATE TABLE models AS SELECT * FROM train(
           (SELECT x, y FROM points), (SELECT label FROM points), 4)",
    )
    .unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("udf.train.invocations"), 1, "train ticked more than once");
    assert_eq!(delta.counter("udf.table.invocations"), 1);

    // Scalar UDF: one vectorized invocation covers all six rows.
    let before = metrics::snapshot();
    let out =
        db.query("SELECT predict(x, y, (SELECT classifier FROM models)) AS p FROM points").unwrap();
    assert_eq!(out.rows(), 6);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("udf.predict.invocations"), 1, "predict is vectorized: one call");
    assert_eq!(delta.counter("udf.scalar.invocations"), 1);
    assert_eq!(delta.counter("udf.predict.rows"), 6, "all rows in the one call");
    assert_eq!(delta.counter("udf.predict.distinct_keys"), 6, "DOUBLE features: every row");

    // One decode per stored model: on a fresh database, k `predict` calls
    // plus one each of `predict_confidence`, `predict_proba_of` and
    // `evaluate` deserialize the blob once (one miss) and hit the shared
    // model cache for every other lookup.
    let mdb = points_db();
    mdb.execute(
        "CREATE TABLE models AS SELECT * FROM train(
           (SELECT x, y FROM points), (SELECT label FROM points), 4)",
    )
    .unwrap();
    let k = 3;
    let model = "(SELECT classifier FROM models)";
    let before = metrics::snapshot();
    for _ in 0..k {
        mdb.query(&format!("SELECT predict(x, y, {model}) FROM points")).unwrap();
    }
    mdb.query(&format!("SELECT predict_confidence(x, y, {model}) FROM points")).unwrap();
    mdb.query(&format!("SELECT predict_proba_of(x, y, {model}, 1) FROM points")).unwrap();
    mdb.query(&format!(
        "SELECT * FROM evaluate((SELECT x, y FROM points), (SELECT label FROM points), {model})"
    ))
    .unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("pickle.deserialize.invocations"), 1, "one decode per model");
    assert_eq!(delta.counter("modelstore.cache.misses"), 1);
    assert_eq!(delta.counter("modelstore.cache.hits"), k + 2);

    // A model evaluates each distinct input once: over integer dictionary
    // features, one row per distinct (a, b) tuple, 4 x 3 of them ...
    use mlcs::columnar::{Batch, Column, Table};
    let n = 2048;
    let cdb = Database::new();
    register_ml_udfs(&cdb);
    let codes = Batch::from_columns(vec![
        ("a", Column::from_i32s((0..n).map(|i| i % 4).collect())),
        ("b", Column::from_i32s((0..n).map(|i| i % 3).collect())),
        ("label", Column::from_i32s((0..n).map(|i| (i % 4 + i % 3) % 2).collect())),
    ])
    .unwrap();
    cdb.catalog().put_table(Table::from_batch("codes", codes), false).unwrap();
    cdb.execute(
        "CREATE TABLE m AS SELECT * FROM train(
           (SELECT a, b FROM codes), (SELECT label FROM codes), 4)",
    )
    .unwrap();
    let before = metrics::snapshot();
    cdb.query("SELECT predict(a, b, (SELECT classifier FROM m)) FROM codes").unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("udf.predict.rows"), n as u64);
    assert_eq!(delta.counter("udf.predict.distinct_keys"), 12, "one per distinct tuple");

    // ... and a probe-first cross join over two stored models looks each
    // model up once and applies it once, to its 6 rows.
    mdb.execute(
        "INSERT INTO models SELECT * FROM train(
           (SELECT x, y FROM points), (SELECT 1 - label FROM points), 4)",
    )
    .unwrap();
    let before = metrics::snapshot();
    let out = mdb
        .query("SELECT predict(p.x, p.y, m.classifier) FROM points p CROSS JOIN models m")
        .unwrap();
    assert_eq!(out.rows(), 12);
    let delta = metrics::snapshot().since(&before);
    let lookups = delta.counter("modelstore.cache.hits") + delta.counter("modelstore.cache.misses");
    assert_eq!(lookups, 2, "one lookup per distinct classifier");
    assert_eq!(delta.counter("udf.predict.distinct_keys"), 12, "6 rows per model");

    // Pickle round-trip: one deserialize tick sized to the blob ...
    let blob = match db.query_value("SELECT classifier FROM models").unwrap() {
        Value::Blob(b) => b,
        other => panic!("classifier column holds {other:?}"),
    };
    let before = metrics::snapshot();
    let model = StoredModel::from_blob(&blob).unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("pickle.deserialize.invocations"), 1);
    assert_eq!(delta.histogram("pickle.deserialize.bytes").map(|h| h.sum), Some(blob.len() as u64));
    assert_eq!(delta.counter("pickle.serialize.invocations"), 0, "no serialize on the read path");

    // ... and one serialize tick sized to the re-pickled blob.
    let before = metrics::snapshot();
    let blob2 = model.to_blob();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("pickle.serialize.invocations"), 1);
    assert_eq!(delta.histogram("pickle.serialize.bytes").map(|h| h.sum), Some(blob2.len() as u64));
    assert_eq!(
        delta.counter("pickle.deserialize.invocations"),
        0,
        "no deserialize on the write path"
    );

    // Connection cap: the client over the 1-connection limit is turned
    // away with exactly one rejection tick, counted at accept time.
    let ndb = Database::new();
    ndb.execute("CREATE TABLE r (x INTEGER)").unwrap();
    ndb.execute("INSERT INTO r VALUES (7)").unwrap();
    let server =
        Server::start_with(ndb.clone(), NetConfig { max_connections: 1, ..NetConfig::default() })
            .unwrap();
    let mut first = TextClient::connect(server.addr()).unwrap();
    assert_eq!(first.query("SELECT x FROM r").unwrap().rows(), 1); // holds the slot
    let before = metrics::snapshot();
    let second = TextClient::connect(server.addr()); // rejected at accept
    wait_for("the conn_rejected tick", || {
        metrics::snapshot().since(&before).counter("netproto.conn_rejected") == 1
    });
    drop(second);
    drop(first);
    server.shutdown();

    // Reactor admission: one client query is one adopted connection, one
    // admitted query, and nothing shed.
    let server = Server::start(ndb.clone()).unwrap();
    let before = metrics::snapshot();
    let mut rc = TextClient::connect(server.addr()).unwrap();
    assert_eq!(rc.query("SELECT x FROM r").unwrap().rows(), 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("netproto.evloop.accepted"), 1, "one connection adopted");
    assert_eq!(delta.counter("netproto.evloop.queries"), 1, "one query admitted");
    assert_eq!(delta.counter("netproto.evloop.shed"), 0, "nothing shed under the quota");
    drop(rc);
    server.shutdown();

    // Plan cache: the first execution of a statement is exactly one miss,
    // the second exactly one hit (parse, bind, and optimize skipped).
    let cdb = Database::new();
    cdb.execute("CREATE TABLE pc (x INTEGER)").unwrap();
    cdb.execute("INSERT INTO pc VALUES (1)").unwrap();
    let before = metrics::snapshot();
    assert_eq!(cdb.query("SELECT x FROM pc").unwrap().rows(), 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.plan_cache.misses"), 1, "first execution is one miss");
    assert_eq!(delta.counter("sql.plan_cache.hits"), 0);
    let before = metrics::snapshot();
    assert_eq!(cdb.query("SELECT x FROM pc").unwrap().rows(), 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.plan_cache.hits"), 1, "re-execution is one hit");
    assert_eq!(delta.counter("sql.plan_cache.misses"), 0);

    // Idle timeout: a connection that sends nothing costs exactly one
    // timeout tick when the server-side read deadline expires.
    let server = Server::start_with(
        ndb.clone(),
        NetConfig { read_timeout: Some(Duration::from_millis(150)), ..NetConfig::default() },
    )
    .unwrap();
    let before = metrics::snapshot();
    let idle = TextClient::connect(server.addr()).unwrap();
    wait_for("the idle-timeout tick", || {
        metrics::snapshot().since(&before).counter("netproto.timeouts") == 1
    });
    drop(idle);
    server.shutdown();

    // Client retry: one deterministically injected write fault costs one
    // retry tick and one injection tick — then the query succeeds.
    let server = Server::start(ndb.clone()).unwrap();
    let mut client = TextClient::connect_with(
        server.addr(),
        NetConfig { retry_base_delay: Duration::from_millis(1), ..NetConfig::default() },
    )
    .unwrap();
    let before = metrics::snapshot();
    faults::configure_str("net.write:err:1:1", 1).unwrap();
    let batch = client.query("SELECT x FROM r").unwrap();
    faults::clear();
    assert_eq!(batch.rows(), 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("netproto.retries"), 1, "one injected fault, one retry");
    assert_eq!(delta.counter("faults.injected.net.write.err"), 1);
    drop(client);
    server.shutdown();

    // Recovery: each table skipped by a recovering load is one tick.
    let dir_scratch = ScratchDir::new("mlcs-metrics-recover");
    let dir = dir_scratch.join("db");
    let pdb = Database::new();
    pdb.execute("CREATE TABLE stored (x INTEGER)").unwrap();
    pdb.execute("INSERT INTO stored VALUES (1)").unwrap();
    save_database(&pdb, &dir).unwrap();
    let table_file = dir.join(page_file_name("stored", 1));
    let mut bytes = std::fs::read(&table_file).unwrap();
    bytes[18] ^= 0xFF; // a payload byte of page 0, past the 16-byte header
    std::fs::write(&table_file, bytes).unwrap();
    let before = metrics::snapshot();
    let report = load_database_with(&Database::new(), &dir, RecoveryMode::Recover).unwrap();
    assert_eq!(report.damaged.len(), 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("persist.recovered_tables"), 1);

    // Lock-order tracking: one A→B then B→A inversion is exactly one
    // violations tick in debug builds (release builds compile the
    // tracker's bookkeeping out, so the counter must not move).
    let a = TrackedMutex::new("pin.order.a", ());
    let b = TrackedMutex::new("pin.order.b", ());
    lock_order::reset();
    let before = metrics::snapshot();
    {
        let _ga = a.lock();
        let _gb = b.lock(); // records the order a → b
    }
    {
        let _gb = b.lock();
        let _ga = a.lock(); // inverts it: the one violation
    }
    let delta = metrics::snapshot().since(&before);
    let expected = if cfg!(debug_assertions) { 1 } else { 0 };
    assert_eq!(
        delta.counter("analyze.lock_order.violations"),
        expected,
        "one inversion, one tick (debug builds only)"
    );
    lock_order::reset();

    // Compressed execution, all under the serial policy so the deltas
    // are exact: a bulk load auto-encodes exactly the columns that pay
    // (low-NDV → dict, long runs → RLE, all-distinct stays plain) ...
    use mlcs::columnar::exec::{filter_sel, hash_aggregate, AggCall, AggFunc, Parallelism};
    use mlcs::columnar::expr::{BinaryOp, EvalContext, Expr};
    let batch = Batch::from_columns(vec![
        ("k", Column::from_i32s((0..n).map(|i| i % 7).collect())),
        ("r", Column::from_i32s((0..n).map(|i| i / 256).collect())),
        ("v", Column::from_i32s((0..n).collect())),
    ])
    .unwrap();
    let before = metrics::snapshot();
    let table = Table::from_batch("enc", batch);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(
        delta.counter("exec.encoding.columns_encoded"),
        2,
        "k dict-encodes, r RLE-encodes, all-distinct v stays plain"
    );

    // ... a fusible predicate over the dict column compiles one kernel
    // that answers every row off one per-distinct-value lookup table ...
    let scan = table.scan();
    let pred = Expr::binary(BinaryOp::Lt, Expr::col(0), Expr::lit(3i32));
    let before = metrics::snapshot();
    let (sel, stats) =
        filter_sel(&EvalContext::new(&scan, None), &pred, Parallelism::serial()).unwrap();
    assert!(stats.fused, "comparison over a dict column must fuse");
    assert_eq!(sel.len() as i32, 293 * 3, "residues 0..3 appear 293 times in 0..2048");
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("expr.fused.kernels"), 1, "one predicate, one kernel");
    assert_eq!(delta.counter("expr.fused.rows"), n as u64);
    assert_eq!(delta.counter("exec.encoding.dict_rows"), n as u64, "one dict leaf");

    // ... grouping by the dict column takes group ids off the codes ...
    let count_star = AggCall { func: AggFunc::CountStar, arg: None, distinct: false };
    let before = metrics::snapshot();
    let (grouped, _) = hash_aggregate(&scan, &[0], &[count_star], Parallelism::serial()).unwrap();
    assert_eq!(grouped.rows(), 7);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("exec.encoding.dict_rows"), n as u64);
    assert_eq!(delta.counter("exec.encoding.rle_runs"), 0, "no RLE column in the group-by");

    // ... so does a DISTINCT over two dictionary keys, by composite code;
    // a join whose probe key is a dictionary answers each probe row by its
    // code; a float dictionary key groups as bytes and counts nothing ...
    use mlcs::columnar::exec::{hash_join, JoinType};
    use mlcs::columnar::Encoding;
    let names = ["a", "b", "c"];
    let keyed = Batch::from_columns(vec![
        ("k", Column::from_i32s((0..n).map(|i| i % 7).collect()).encode(Encoding::Dict)),
        ("c", Column::from_strings((0..n).map(|i| names[i as usize % 3])).encode(Encoding::Dict)),
        ("x", Column::from_f64s((0..n).map(|i| f64::from(i % 5)).collect()).encode(Encoding::Dict)),
    ])
    .unwrap();
    let before = metrics::snapshot();
    let (distinct, _) = hash_aggregate(&keyed, &[0, 1], &[], Parallelism::serial()).unwrap();
    assert_eq!(distinct.rows(), 21);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("exec.encoding.dict_rows"), n as u64, "two keys, one code per row");
    let dim = Batch::from_columns(vec![("dk", Column::from_i64s((0..5).collect()))]).unwrap();
    let before = metrics::snapshot();
    let (joined, _) =
        hash_join(&keyed, &dim, &[0], &[0], JoinType::Inner, false, Parallelism::serial()).unwrap();
    assert_eq!(joined.rows(), (0..n).filter(|i| i % 7 < 5).count());
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("exec.encoding.dict_rows"), n as u64, "one per probe row");
    let before = metrics::snapshot();
    let (floats, _) = hash_aggregate(&keyed, &[2], &[], Parallelism::serial()).unwrap();
    assert_eq!(floats.rows(), 5);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("exec.encoding.dict_rows"), 0, "a float dictionary key");

    // ... and an ungrouped integer SUM over the RLE column folds its 8
    // runs instead of touching 2048 rows.
    let sum_r = AggCall { func: AggFunc::Sum, arg: Some(1), distinct: false };
    let before = metrics::snapshot();
    let (summed, _) = hash_aggregate(&scan, &[], &[sum_r], Parallelism::serial()).unwrap();
    assert_eq!(summed.row(0)[0], Value::Int64(256 * 28), "256 of each of 0..=7");
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("exec.encoding.rle_runs"), 8, "one fold per run");

    // Statistics & cost-based optimization. The first append to a fresh
    // table lands on the encoding sweep, which recomputes statistics
    // exactly once.
    let sdb = Database::new();
    sdb.execute("CREATE TABLE st (x INTEGER)").unwrap();
    let before = metrics::snapshot();
    sdb.execute("INSERT INTO st VALUES (1), (5), (9)").unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.stats.built"), 1, "first append is one stats sweep");

    // Bare MIN/MAX/COUNT over a scan is answered straight from the
    // statistics — one answered_aggregates tick — and such plans are
    // never cached (their literals go stale on the next insert), so
    // every execution is one miss and zero hits.
    let before = metrics::snapshot();
    let agg = sdb.query("SELECT MIN(x), MAX(x), COUNT(*) FROM st").unwrap();
    assert_eq!(agg.row(0), vec![Value::Int32(1), Value::Int32(9), Value::Int64(3)]);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.stats.answered_aggregates"), 1, "answered from stats once");
    assert_eq!(delta.counter("sql.plan_cache.misses"), 1);
    let before = metrics::snapshot();
    sdb.query("SELECT MIN(x), MAX(x), COUNT(*) FROM st").unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.plan_cache.misses"), 1, "stats-answered plans never cache");
    assert_eq!(delta.counter("sql.plan_cache.hits"), 0);

    // A skewed join (1-row left, 4-row right) is one build-side swap.
    sdb.execute("CREATE TABLE dim (k INTEGER)").unwrap();
    sdb.execute("INSERT INTO dim VALUES (1)").unwrap();
    sdb.execute("CREATE TABLE fact (k INTEGER)").unwrap();
    sdb.execute("INSERT INTO fact VALUES (1), (1), (2), (3)").unwrap();
    let before = metrics::snapshot();
    let out = sdb.query("SELECT dim.k FROM dim JOIN fact ON dim.k = fact.k").unwrap();
    assert_eq!(out.rows(), 2);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.cost.build_side_swaps"), 1, "small left side becomes build");

    // A weak range conjunct ahead of a selective equality is one
    // conjunct reorder (the equality is hoisted to run first).
    let before = metrics::snapshot();
    let out = sdb.query("SELECT k FROM fact WHERE k > 0 AND k = 3").unwrap();
    assert_eq!(out.rows(), 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.cost.conjunct_reorders"), 1, "equality hoisted first");

    // A three-table inner chain under COUNT(*) is one join reorder
    // (the 1-row table should drive the chain, not the 4-row one).
    sdb.execute("CREATE TABLE j3 (k INTEGER)").unwrap();
    sdb.execute("INSERT INTO j3 VALUES (1), (2)").unwrap();
    let before = metrics::snapshot();
    let n = sdb
        .query_value(
            "SELECT COUNT(*) FROM fact JOIN dim ON fact.k = dim.k JOIN j3 ON fact.k = j3.k",
        )
        .unwrap();
    assert_eq!(n, Value::Int64(2));
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.cost.join_reorders"), 1, "chain rebuilt smallest-first");

    // A cached plan whose table then doubles is dropped on lookup and
    // re-optimized: one reoptimized tick, a miss rather than a hit.
    sdb.query("SELECT k FROM j3").unwrap(); // populates the cache
    sdb.execute("INSERT INTO j3 VALUES (3), (4)").unwrap(); // 2 → 4 rows: 2× growth
    let before = metrics::snapshot();
    let out = sdb.query("SELECT k FROM j3").unwrap();
    assert_eq!(out.rows(), 4);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.cost.reoptimized"), 1, "2x growth drops the cached plan");
    assert_eq!(delta.counter("sql.plan_cache.misses"), 1);
    assert_eq!(delta.counter("sql.plan_cache.hits"), 0);

    // Durability: one statement on a durable database is exactly one WAL
    // record — one append tick, one commit fsync, and a byte count that
    // matches the log file's observed growth to the byte.
    let wdir_scratch = ScratchDir::new("mlcs-metrics-wal");
    let wdir = wdir_scratch.join("db");
    let (wdb, _) = Database::open_durable(&wdir).unwrap();
    wdb.execute("CREATE TABLE w (x INTEGER)").unwrap();
    let log_path = wdir.join("wal.mlcslog");
    let len_before = std::fs::metadata(&log_path).unwrap().len();
    let before = metrics::snapshot();
    wdb.execute("INSERT INTO w VALUES (1), (2)").unwrap();
    let delta = metrics::snapshot().since(&before);
    let grown = std::fs::metadata(&log_path).unwrap().len() - len_before;
    assert_eq!(delta.counter("wal.appends"), 1, "one statement, one record");
    assert_eq!(delta.counter("wal.fsyncs"), 1, "one commit, one fsync");
    assert_eq!(delta.counter("wal.bytes"), grown, "byte counter matches log growth exactly");

    // One CHECKPOINT is one fold tick.
    let before = metrics::snapshot();
    wdb.execute("CHECKPOINT").unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("wal.checkpoints"), 1, "one CHECKPOINT, one tick");

    // Reopen: the checkpoint marker plus one post-checkpoint insert is
    // exactly two replayed records and no truncation.
    wdb.execute("INSERT INTO w VALUES (3)").unwrap();
    drop(wdb);
    let before = metrics::snapshot();
    let (wdb, report) = Database::open_durable(&wdir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("persist.replayed_records"), 2, "marker + one insert");
    assert_eq!(delta.counter("persist.truncated_tail"), 0, "the log was clean");
    assert_eq!(wdb.query_value("SELECT COUNT(*) FROM w").unwrap(), Value::Int64(3));

    // A torn log tail (crash mid-commit) is one truncation event on the
    // recovering open, and the torn statement is gone — never partial.
    wdb.execute("INSERT INTO w VALUES (4)").unwrap();
    drop(wdb);
    let log = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &log[..log.len() - 3]).unwrap();
    let before = metrics::snapshot();
    let (wdb, report) = Database::open_durable(&wdir).unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("persist.truncated_tail"), 1, "one truncation event");
    assert!(report.truncated_tail > 0, "the torn record's surviving bytes were discarded");
    assert_eq!(
        wdb.query_value("SELECT COUNT(*) FROM w").unwrap(),
        Value::Int64(3),
        "the torn statement vanished whole"
    );
    drop(wdb);

    // A flipped byte inside a checkpointed page is one checksum-failure
    // tick: the damaged table is skipped with a report, never loaded wrong.
    let pgdir_scratch = ScratchDir::new("mlcs-metrics-page");
    let pgdir = pgdir_scratch.join("db");
    let (pgdb, _) = Database::open_durable(&pgdir).unwrap();
    pgdb.execute("CREATE TABLE pg (x INTEGER)").unwrap();
    pgdb.execute("INSERT INTO pg VALUES (1)").unwrap();
    pgdb.execute("CHECKPOINT").unwrap();
    drop(pgdb);
    // Page files are versioned by the checkpoint LSN: the fold above was
    // cut after two records (the CREATE and the INSERT).
    let page_file = pgdir.join(page_file_name("pg", 2));
    let mut pb = std::fs::read(&page_file).unwrap();
    pb[18] ^= 0xFF; // a payload byte of page 0, past the 16-byte header
    std::fs::write(&page_file, pb).unwrap();
    let before = metrics::snapshot();
    let (_pgdb, report) = Database::open_durable(&pgdir).unwrap();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("persist.checksum_failures"), 1, "one failing file, one tick");
    assert_eq!(report.checksum_failures, 1);
    assert_eq!(report.damaged.len(), 1, "the table is reported, not silently wrong");
}
