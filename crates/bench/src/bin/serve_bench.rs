//! Serving-path benchmark: many concurrent clients against one server.
//!
//! Drives `--clients` concurrent connections (default 1000), each issuing
//! `--queries` statements mixing point predictions (a rotating set of 32
//! distinct SQL texts — the plan-cache hot path) with analytics group-bys,
//! 3:1. Reports p50/p99 query latency and saturation throughput, all
//! sourced from the `mlcs_columnar::metrics` registry (the
//! `bench.serving.*` histograms), and optionally writes a JSON artifact.
//!
//! ```text
//! cargo run -p mlcs-bench --release --bin serve_bench -- \
//!     [--clients N] [--queries Q] [--json PATH] [--smoke]
//! ```
//!
//! `--smoke` is the CI mode: after the run it asserts the reactor and
//! plan-cache counters actually moved (a silent fall-back to some other
//! path must fail the job, not fake the numbers).

use mlcs_columnar::{metrics, Database};
use mlcs_core::register_ml_udfs;
use mlcs_netproto::{NetConfig, Server, TextClient};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Distinct point-prediction statements (plan-cache keys).
const PREDICT_VARIANTS: usize = 32;

fn predict_sql(variant: usize) -> String {
    // 32 distinct thresholds → 32 distinct SQL texts, each re-used by
    // many clients: the serving shape the plan cache is built for.
    format!(
        "SELECT predict(x, y, (SELECT classifier FROM models)) AS p \
         FROM points WHERE x > {:.2}",
        -3.0 + 0.1 * variant as f64
    )
}

const ANALYTICS_SQL: &str =
    "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM synth GROUP BY k ORDER BY k";

/// The served database: the paper's 2-D points plus a trained model for
/// predictions, and a synthetic numeric table for analytics.
fn build_db() -> Database {
    let db = Database::new();
    register_ml_udfs(&db);
    db.execute("CREATE TABLE points (x DOUBLE, y DOUBLE, label INTEGER)").expect("ddl");
    db.execute(
        "INSERT INTO points VALUES (-2.0, -2.0, 0), (-1.5, -1.0, 0),
                                   (-1.0, -2.5, 0), ( 1.0,  1.5, 1),
                                   ( 2.0,  1.0, 1), ( 1.5,  2.5, 1)",
    )
    .expect("seed points");
    db.execute(
        "CREATE TABLE models AS SELECT * FROM train(
           (SELECT x, y FROM points), (SELECT label FROM points), 4)",
    )
    .expect("train model");
    let synth = mlcs_bench::synth_table(10_000, 42).expect("synth batch");
    db.catalog()
        .put_table(mlcs_columnar::Table::from_batch("synth", synth), false)
        .expect("synth table");
    db
}

/// Percentile from a power-of-two histogram, linearly interpolated inside
/// the winning bucket (bucket `i` covers `[2^(i-1), 2^i)`); the bucket
/// resolution bounds the answer to within a factor of two.
fn percentile(h: &metrics::HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut cum = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let next = cum + n;
        if (next as f64) >= target {
            let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
            let hi = 1u64 << i;
            let frac = (target - cum as f64) / n as f64;
            return lo as f64 + frac * (hi - lo) as f64;
        }
        cum = next;
    }
    h.max as f64
}

struct ClientTally {
    ok: u64,
    failed: u64,
}

fn main() {
    let mut clients = 1000usize;
    let mut queries = 20usize;
    let mut json_out: Option<String> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => clients = args.next().expect("--clients N").parse().expect("number"),
            "--queries" => queries = args.next().expect("--queries Q").parse().expect("number"),
            "--json" => json_out = Some(args.next().expect("--json PATH")),
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: serve_bench [--clients N] [--queries Q] [--json PATH] [--smoke]");
                std::process::exit(2);
            }
        }
    }

    let db = build_db();
    let config = NetConfig {
        max_connections: clients + 64,
        // Headroom over the client count: the bench measures saturation
        // latency, not shed rate (the shed counter is reported anyway).
        max_inflight_queries: (clients * 2).max(256),
        read_timeout: Some(Duration::from_secs(120)),
        write_timeout: Some(Duration::from_secs(120)),
        ..NetConfig::default()
    };
    eprintln!("serve_bench: {clients} clients x {queries} queries");

    let before = metrics::snapshot();
    let server = Server::start_with(db, config).expect("server start");
    let addr = server.addr();

    // Connect everyone first, then release the whole fleet through one
    // barrier so the measured window is pure query traffic.
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = TextClient::connect_with(addr, config).expect("client connect");
                barrier.wait();
                let mut tally = ClientTally { ok: 0, failed: 0 };
                for q in 0..queries {
                    let sql = if (i + q) % 4 == 3 {
                        ANALYTICS_SQL.to_owned()
                    } else {
                        predict_sql((i * 7 + q) % PREDICT_VARIANTS)
                    };
                    let (result, _) =
                        metrics::time_section("bench.serving.query_ns", || client.query(&sql));
                    match result {
                        Ok(_) => tally.ok += 1,
                        Err(e) => {
                            if tally.failed == 0 {
                                eprintln!("client {i}: {e}");
                            }
                            tally.failed += 1;
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let (tallies, wall) = metrics::time_section("bench.serving.wall_ns", || {
        barrier.wait();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    server.shutdown();

    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let delta = metrics::snapshot().since(&before);
    let lat = delta.histogram("bench.serving.query_ns").expect("query histogram");
    let wall_s = wall.as_secs_f64();
    let throughput = if wall_s > 0.0 { ok as f64 / wall_s } else { 0.0 };
    let p50_ms = percentile(lat, 0.50) / 1e6;
    let p99_ms = percentile(lat, 0.99) / 1e6;
    let mean_ms = if lat.count > 0 { lat.sum as f64 / lat.count as f64 / 1e6 } else { 0.0 };
    let hits = delta.counter("sql.plan_cache.hits");
    let misses = delta.counter("sql.plan_cache.misses");
    let accepted = delta.counter("netproto.evloop.accepted");
    let admitted = delta.counter("netproto.evloop.queries");
    let shed = delta.counter("netproto.evloop.shed");

    println!("clients={clients} queries_per_client={queries}");
    println!("ok={ok} failed={failed} wall={wall_s:.2}s throughput={throughput:.0} q/s");
    println!(
        "latency (registry histogram, power-of-two buckets): \
         p50={p50_ms:.2}ms p99={p99_ms:.2}ms mean={mean_ms:.2}ms max={:.2}ms",
        lat.max as f64 / 1e6
    );
    println!("plan cache: {hits} hits / {misses} misses");
    println!("evloop: accepted={accepted} admitted={admitted} shed={shed}");

    if let Some(path) = &json_out {
        let json = format!(
            "{{\n  \"command\": \"cargo run -p mlcs-bench --release --bin serve_bench -- \
             --clients {clients} --queries {queries}\",\n  \"clients\": {clients},\n  \
             \"queries_per_client\": {queries},\n  \"results\": {{\n    \
             \"queries_ok\": {ok},\n    \"queries_failed\": {failed},\n    \
             \"wall_s\": {wall_s:.2},\n    \"throughput_qps\": {throughput:.1},\n    \
             \"latency_ms\": {{ \"p50\": {p50_ms:.2}, \"p99\": {p99_ms:.2}, \
             \"mean\": {mean_ms:.2}, \"max\": {:.2} }},\n    \
             \"plan_cache\": {{ \"hits\": {hits}, \"misses\": {misses} }},\n    \
             \"evloop\": {{ \"accepted\": {accepted}, \"admitted\": {admitted}, \
             \"shed\": {shed} }}\n  }},\n  \
             \"notes\": \"single-core container; latency percentiles interpolated \
             within power-of-two registry buckets (resolution bounded by a factor \
             of two); workload = 3:1 point predictions (32 distinct cached \
             statements) to analytics group-bys\"\n}}\n",
            lat.max as f64 / 1e6
        );
        std::fs::write(path, json).expect("write json");
        eprintln!("wrote {path}");
    }

    if failed > 0 {
        eprintln!("serve_bench: {failed} queries failed");
        std::process::exit(1);
    }
    if smoke {
        let mut bad = false;
        for (name, v) in [
            ("netproto.evloop.accepted", accepted),
            ("netproto.evloop.queries", admitted),
            ("sql.plan_cache.hits", hits),
        ] {
            if v == 0 {
                eprintln!("smoke check failed: {name} never moved");
                bad = true;
            }
        }
        if bad {
            std::process::exit(1);
        }
        println!("smoke checks passed");
    }
}
