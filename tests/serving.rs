//! Serving-layer suite: the epoll reactor under real concurrent load.
//!
//! Four invariants, mirroring the chaos suite's but for the multiplexed
//! path specifically:
//!
//! 1. **Correctness under fan-in** — hundreds of concurrent clients (a
//!    mix of text-protocol echo traffic and binary-protocol point
//!    predictions) each get responses byte-identical to the embedded
//!    in-process path.
//! 2. **Typed shed load** — past the admission quota, queries get a
//!    `DbError::Rejected` error frame immediately, never an untyped
//!    hang or a torn connection.
//! 3. **Plan-cache accounting** — the hit/miss counters move exactly
//!    once per lookup, and a hit is visible in `EXPLAIN ANALYZE`.
//! 4. **Fault tolerance** — the chaos injector's `net.read`/`net.write`
//!    faults replay against the reactor's nonblocking read/write points:
//!    every query returns the exact result or a typed transport error.
//!
//! The metrics registry and the fault injector are process-global, so
//! the tests serialize on a mutex (same discipline as `tests/chaos.rs`).

mod common;

use common::ScratchDir;
use mlcs::columnar::{faults, metrics, ClosureScalarUdf, Column, DataType, Database, DbError};
use mlcs::mlcore::register_ml_udfs;
use mlcs::netproto::{BinaryClient, NetConfig, RowCursor, Server, TextClient};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests in this binary: global registry, global injector.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    guard
}

/// Tight-but-forgiving timeouts for the concurrent tests.
fn serving_config() -> NetConfig {
    NetConfig {
        read_timeout: Some(Duration::from_secs(20)),
        write_timeout: Some(Duration::from_secs(20)),
        retry_base_delay: Duration::from_millis(2),
        ..NetConfig::default()
    }
}

/// A database with both workload shapes: an echo table and a trained
/// model over the paper's 2-D points.
fn serving_db() -> Database {
    let db = Database::new();
    register_ml_udfs(&db);
    db.execute("CREATE TABLE t (x INTEGER, s VARCHAR)").unwrap();
    let values: Vec<String> = (0..100).map(|i| format!("({i}, 'row-{i}')")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    db.execute("CREATE TABLE points (x DOUBLE, y DOUBLE, label INTEGER)").unwrap();
    db.execute(
        "INSERT INTO points VALUES (-2.0, -2.0, 0), (-1.5, -1.0, 0),
                                   (-1.0, -2.5, 0), ( 1.0,  1.5, 1),
                                   ( 2.0,  1.0, 1), ( 1.5,  2.5, 1)",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE models AS SELECT * FROM train(
           (SELECT x, y FROM points), (SELECT label FROM points), 4)",
    )
    .unwrap();
    db
}

const ECHO_SQL: &str = "SELECT x, s FROM t ORDER BY x";
const PREDICT_SQL: &str = "SELECT predict(x, y, (SELECT classifier FROM models)) AS p FROM points";

fn assert_batches_equal(got: &mlcs::columnar::Batch, want: &mlcs::columnar::Batch, who: &str) {
    assert_eq!(got.rows(), want.rows(), "{who}: row count differs");
    for r in 0..want.rows() {
        assert_eq!(got.row(r), want.row(r), "{who}: row {r} differs");
    }
}

/// Hundreds of concurrent clients against one reactor server, all
/// released at once through a barrier: every response must be
/// byte-identical to the embedded (no-socket) path's answer for the same
/// statement. Odd clients run binary-protocol predictions (repeat SQL
/// text — the plan-cache hot path), even clients text-protocol echoes.
#[test]
fn concurrent_clients_match_the_embedded_path() {
    let _guard = serial();
    const CLIENTS: usize = 200;
    let db = serving_db();
    let expected_echo = RowCursor::query(&db, ECHO_SQL).unwrap().drain_to_batch().unwrap();
    let expected_pred = RowCursor::query(&db, PREDICT_SQL).unwrap().drain_to_batch().unwrap();
    let before = metrics::snapshot();
    let server = Server::start_with(db, serving_config()).unwrap();
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let expected_echo = Arc::new(expected_echo);
    let expected_pred = Arc::new(expected_pred);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = barrier.clone();
            let expected_echo = expected_echo.clone();
            let expected_pred = expected_pred.clone();
            std::thread::spawn(move || {
                if i % 2 == 0 {
                    let mut client = TextClient::connect_with(addr, serving_config()).unwrap();
                    barrier.wait();
                    for _ in 0..3 {
                        let batch = client.query(ECHO_SQL).unwrap();
                        assert_batches_equal(&batch, &expected_echo, "echo client");
                    }
                } else {
                    let mut client = BinaryClient::connect_with(addr, serving_config()).unwrap();
                    barrier.wait();
                    for _ in 0..3 {
                        let batch = client.query(PREDICT_SQL).unwrap();
                        assert_batches_equal(&batch, &expected_pred, "predict client");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }

    let delta = metrics::snapshot().since(&before);
    assert!(
        delta.counter("netproto.evloop.accepted") >= CLIENTS as u64,
        "reactor adopted fewer connections than clients"
    );
    assert_eq!(
        delta.counter("netproto.evloop.queries"),
        (CLIENTS * 3) as u64,
        "every client query must pass admission exactly once"
    );
    // Repeat SQL text across hundreds of clients: the plan cache must
    // have absorbed the parse→bind→optimize cost for almost all of them.
    assert!(
        delta.counter("sql.plan_cache.hits") >= (CLIENTS * 3 - 10) as u64,
        "plan cache barely hit: {} hits",
        delta.counter("sql.plan_cache.hits")
    );
    server.shutdown();
}

/// With an admission quota of one, a query arriving while another is
/// executing is shed with a typed `DbError::Rejected` — immediately, not
/// after a timeout — and the admitted query still completes.
#[test]
fn admission_quota_sheds_with_typed_rejection() {
    let _guard = serial();
    let db = serving_db();
    // A scalar UDF that sleeps: keeps the one admission slot occupied
    // long enough for the second query to arrive.
    db.register_scalar_udf(Arc::new(
        ClosureScalarUdf::new("dawdle", DataType::Int32, |args: &[Arc<Column>]| {
            std::thread::sleep(Duration::from_millis(1200));
            Ok(args[0].as_ref().clone())
        })
        .with_arity(1),
    ));
    let config = NetConfig { max_inflight_queries: 1, ..serving_config() };
    let before = metrics::snapshot();
    let server = Server::start_with(db, config).unwrap();
    let addr = server.addr();

    let slow = std::thread::spawn(move || {
        let mut client = TextClient::connect_with(addr, serving_config()).unwrap();
        client.query("SELECT dawdle(x) FROM t WHERE x = 1")
    });
    // Give the slow query time to be admitted (inflight goes 0 → 1).
    std::thread::sleep(Duration::from_millis(300));

    let mut client = TextClient::connect_with(addr, serving_config()).unwrap();
    let err = client.query("SELECT 1").unwrap_err();
    match &err {
        DbError::Rejected(reason) => {
            assert!(reason.contains("overloaded"), "rejection must say why: {reason}")
        }
        other => panic!("expected DbError::Rejected for shed load, got {other:?}"),
    }

    let slow_result = slow.join().expect("slow client panicked");
    assert_eq!(slow_result.expect("admitted query must complete").rows(), 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("netproto.evloop.shed"), 1, "exactly one query shed");

    // The shed connection is still usable once the quota frees up.
    let batch = client.query("SELECT 1").unwrap();
    assert_eq!(batch.rows(), 1);
    server.shutdown();
}

/// The plan-cache counters move exactly once per lookup: first execution
/// of a statement is one miss, re-execution one hit — and `EXPLAIN
/// ANALYZE` reports the hit without consuming it.
#[test]
fn plan_cache_counters_move_exactly_once() {
    let _guard = serial();
    let db = Database::new();
    db.execute("CREATE TABLE q (x INTEGER)").unwrap();
    db.execute("INSERT INTO q VALUES (1), (2), (3)").unwrap();

    let before = metrics::snapshot();
    assert_eq!(db.query("SELECT x FROM q ORDER BY x").unwrap().rows(), 3);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.plan_cache.misses"), 1, "first execution is one miss");
    assert_eq!(delta.counter("sql.plan_cache.hits"), 0);

    let before = metrics::snapshot();
    assert_eq!(db.query("SELECT x FROM q ORDER BY x").unwrap().rows(), 3);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.plan_cache.hits"), 1, "re-execution is one hit");
    assert_eq!(delta.counter("sql.plan_cache.misses"), 0);

    // EXPLAIN ANALYZE sees the cached entry and says so.
    let batch = db.query("EXPLAIN ANALYZE SELECT x FROM q ORDER BY x").unwrap();
    let text: String = (0..batch.rows()).map(|r| format!("{:?}\n", batch.row(r)[0])).collect();
    assert!(text.contains("plan cache: hit"), "EXPLAIN ANALYZE missing cache note:\n{text}");

    // DDL invalidates: the next lookup re-plans (one fresh miss).
    db.execute("CREATE TABLE unrelated (y INTEGER)").unwrap();
    let before = metrics::snapshot();
    assert_eq!(db.query("SELECT x FROM q ORDER BY x").unwrap().rows(), 3);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.counter("sql.plan_cache.misses"), 1, "DDL must invalidate the cache");
}

/// The chaos injector's connection faults, replayed against the
/// reactor's nonblocking read/write points: every query either returns
/// the exact fault-free result or a typed transport error, and retries
/// rescue a healthy majority.
#[test]
fn reactor_survives_injected_connection_faults() {
    let _guard = serial();
    let seed =
        std::env::var("MLCS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE);
    println!("serving chaos seed: {seed} (set MLCS_CHAOS_SEED to replay)");
    let db = serving_db();
    let expected = RowCursor::query(&db, ECHO_SQL).unwrap().drain_to_batch().unwrap();
    let config = NetConfig { retries: 6, ..serving_config() };
    let server = Server::start_with(db, config).unwrap();

    faults::configure_str("net.read:err:0.05,net.write:err:0.04,net.read:short:0.03", seed)
        .unwrap();
    let mut ok = 0usize;
    for _ in 0..25 {
        let mut client = match TextClient::connect_with(server.addr(), config) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match client.query(ECHO_SQL) {
            Ok(batch) => {
                assert_batches_equal(&batch, &expected, "chaos client");
                ok += 1;
            }
            Err(e) => match e {
                DbError::Io(_) | DbError::Corrupt(_) | DbError::Timeout { .. } => {}
                other => panic!("untyped error through the reactor: {other:?} (seed {seed})"),
            },
        }
    }
    faults::clear();
    assert!(ok > 0, "all 25 queries failed; retries never rescued one (seed {seed})");
    server.shutdown();
}

/// Durability over the wire: a served durable database write-ahead-logs
/// every client mutation, honors `CHECKPOINT` and `SAVE '<dir>'` as
/// ordinary statements, and the directory reopens with everything the
/// clients were acknowledged — while the SAVE snapshot strict-loads
/// standalone.
#[test]
fn served_durability_statements_survive_reopen() {
    let _guard = serial();
    let scratch = ScratchDir::new("mlcs-serving-durable");
    let (dir, snap) = (scratch.join("db"), scratch.join("snap"));

    {
        let (db, _) = Database::open_durable(&dir).unwrap();
        // SAVE over the wire is an arbitrary-path write on the server, so
        // it needs the explicit opt-in; this test is the trusted-client
        // deployment that flag exists for.
        let config = NetConfig { allow_remote_save: true, ..serving_config() };
        let server = Server::start_with(db, config).unwrap();
        let mut client = TextClient::connect_with(server.addr(), serving_config()).unwrap();
        client.query("CREATE TABLE kv (v BIGINT)").unwrap();
        client.query("INSERT INTO kv VALUES (1), (2)").unwrap();
        client.query("CHECKPOINT").unwrap();
        client.query("INSERT INTO kv VALUES (3)").unwrap();
        client.query(&format!("SAVE '{}'", snap.display())).unwrap();
        server.shutdown();
        // The server process "crashes" here: no orderly checkpoint, so
        // row 3 exists only in the write-ahead log.
    }

    let (fresh, report) = Database::open_durable(&dir).unwrap();
    assert!(report.damaged.is_empty(), "{:?}", report.damaged);
    assert_eq!(
        fresh.query_value("SELECT SUM(v) FROM kv").unwrap(),
        mlcs::columnar::Value::Int64(6),
        "a served commit was lost across reopen"
    );

    // The SAVE snapshot is complete and self-contained.
    let standalone = Database::new();
    mlcs::columnar::persist::load_database(&standalone, &snap).unwrap();
    assert_eq!(
        standalone.query_value("SELECT SUM(v) FROM kv").unwrap(),
        mlcs::columnar::Value::Int64(6)
    );
}

/// By default a served database refuses `SAVE '<path>'` — a client
/// naming a server-side filesystem path to write a snapshot to is an
/// injection primitive, not a query — with a typed rejection. The gate is
/// statement-based, not a substring match: `SELECT` with "save" in a
/// literal passes, `SAVE` buried in a multi-statement batch does not, and
/// the connection stays usable afterwards. `CHECKPOINT` (which only
/// writes inside the durable directory the operator chose) stays allowed.
#[test]
fn remote_save_is_refused_unless_opted_in() {
    let _guard = serial();
    let scratch = ScratchDir::new("mlcs-serving-nosave");
    let (dir, target) = (scratch.join("db"), scratch.join("out"));

    let (db, _) = Database::open_durable(&dir).unwrap();
    let server = Server::start_with(db, serving_config()).unwrap();
    let mut client = TextClient::connect_with(server.addr(), serving_config()).unwrap();
    client.query("CREATE TABLE kv (v BIGINT)").unwrap();
    client.query("INSERT INTO kv VALUES (1)").unwrap();

    let err = client.query(&format!("SAVE '{}'", target.display())).unwrap_err();
    match &err {
        DbError::Rejected(reason) => assert!(
            reason.contains("allow_remote_save"),
            "rejection must name the opt-in: {reason}"
        ),
        other => panic!("expected DbError::Rejected for SAVE, got {other:?}"),
    }
    assert!(!target.exists(), "refused SAVE must write nothing");
    // Buried in a batch it is still refused, and nothing in the batch
    // runs (the gate fires before execution).
    let err = client
        .query(&format!("INSERT INTO kv VALUES (2); SAVE '{}'", target.display()))
        .unwrap_err();
    assert!(matches!(err, DbError::Rejected(_)), "batched SAVE got {err:?}");

    // The word in a literal is not a SAVE statement; the connection
    // still serves queries; CHECKPOINT is unaffected.
    let batch = client.query("SELECT 'save me' FROM kv").unwrap();
    assert_eq!(batch.rows(), 1);
    client.query("CHECKPOINT").unwrap();
    assert_eq!(
        client.query("SELECT COUNT(*) FROM kv").unwrap().row(0),
        vec![mlcs::columnar::Value::Int64(1)],
        "batch with refused SAVE must be all-or-nothing"
    );
    server.shutdown();
}
