//! Workload `serve_mixed`: two closed-loop clients (each sends its next
//! query only after the previous reply) on the text wire protocol against
//! an in-process server with the default configuration, on loopback.
//!
//! Mix, drawn from a seeded generator per client:
//! * 60% `predict` — one of 64 texts (Zipf over the hot precincts), so
//!   the plan cache and the model cache serve it (`primary`);
//! * 20% `analytics` — one hot group-by text;
//! * 20% `adhoc` — a text never sent before, so parse, bind and optimize
//!   run on every one (`secondary`).
//!
//! Check: every reply has the rows of the embedded `Database::query` of
//! the same text (predict, analytics) or of a prefix-sum oracle (adhoc).

use crate::clock::{micros, millis, now_ns, secs, time};
use crate::gen::{Rng, Zipf};
use crate::layers::{front_end, registry_metrics, Phase};
use crate::oracle::{self, Cell, Expect};
use crate::report::{ratio, Checks, Report, RunConfig};
use crate::stats::{highest_supported_rank, median, median_ns, overhead_share, percentile_ns};
use crate::trace::Tracer;
use mlcs_columnar::{Batch, Column, Database, Table};
use mlcs_netproto::framing::{
    decode_query, encode_query, read_frame, write_frame, Encoding, FrameKind,
};
use mlcs_netproto::{NetConfig, Server, TextClient};
use std::time::Duration;

const SETUPS: usize = 3;
const CLIENTS: usize = 2;
const HOT_PRECINCTS: usize = 64;
const PRECINCTS: usize = 256;
/// Consecutive `predict` replies of one client that make one sample of
/// the tail. A 20 s phase holds about sixteen such windows, each with five
/// replies beyond its 99th percentile.
const TAIL_WINDOW: usize = 500;

const ANALYTICS_SQL: &str = "SELECT precinct_id, COUNT(*), SUM(f03) FROM voters WHERE precinct_id < 16 GROUP BY precinct_id";

fn predict_sql(precinct: usize) -> String {
    format!(
        "SELECT voter_id, predict(f03, f04, f05, (SELECT classifier FROM models WHERE name = 'rf16')) \
         FROM voters WHERE precinct_id = {precinct}"
    )
}

/// One operation of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Predict {
        precinct: usize,
    },
    Analytics,
    /// `[from, to)` over `voter_id`; the pair never repeats in a run.
    Adhoc {
        from: i64,
        to: i64,
    },
}

impl Op {
    fn kind(&self) -> usize {
        match self {
            Op::Predict { .. } => 0,
            Op::Analytics => 1,
            Op::Adhoc { .. } => 2,
        }
    }

    fn sql(&self) -> String {
        match self {
            Op::Predict { precinct } => predict_sql(*precinct),
            Op::Analytics => ANALYTICS_SQL.to_owned(),
            Op::Adhoc { from, to } => {
                format!("SELECT COUNT(*), SUM(f03) FROM voters WHERE voter_id >= {from} AND voter_id < {to}")
            }
        }
    }
}

const KIND_NAMES: [&str; 3] = ["op.predict", "op.analytics", "op.adhoc"];

/// The op stream of one client: a function of the run seed and the
/// client's index only.
pub struct Mix {
    rng: Rng,
    zipf: Zipf,
    client: u64,
    adhoc_sent: u64,
    rows: u64,
}

impl Mix {
    pub fn new(seed: u64, client: usize, rows: usize) -> Mix {
        Mix {
            rng: Rng::new(seed, 100 + client as u64),
            zipf: Zipf::new(HOT_PRECINCTS),
            client: client as u64,
            adhoc_sent: 0,
            rows: rows as u64,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.rng.below(100) {
            0..=59 => Op::Predict { precinct: self.zipf.sample(&mut self.rng) },
            60..=79 => Op::Analytics,
            _ => {
                // Streams (the clients, and the probe that replays ops
                // after the timed phase) interleave the counter, so no
                // two share a value; the width grows each time the start
                // wraps, so no (from, to) pair comes back.
                let n = self.client + (CLIENTS as u64 + 1) * self.adhoc_sent;
                self.adhoc_sent += 1;
                let span = self.rows * 4 / 5;
                let from = n % span;
                Op::Adhoc { from: from as i64, to: (from + self.rows / 50 + n / span) as i64 }
            }
        }
    }
}

/// The generated `voters` table as plain vectors.
struct Voters {
    precinct: Vec<i32>,
    f: [Vec<i32>; 3],
    label: Vec<i32>,
}

/// Same shape as the Figure-1 data: features follow the precinct's lean,
/// the label is drawn with the lean as its probability.
fn generate(rows: usize, seed: u64) -> Voters {
    let mut rng = Rng::new(seed, 2);
    let leans: Vec<f64> = (0..PRECINCTS).map(|_| 0.15 + 0.7 * rng.unit()).collect();
    let mut v = Voters { precinct: Vec::new(), f: Default::default(), label: Vec::new() };
    for _ in 0..rows {
        let p = rng.below(PRECINCTS as u64) as usize;
        v.precinct.push(p as i32);
        for f in &mut v.f {
            f.push((leans[p] * 10.0) as i32 * 3 + rng.below(5) as i32 - 2);
        }
        v.label.push(if rng.unit() < leans[p] { 1 } else { 2 });
    }
    v
}

struct Served {
    db: Database,
    server: Server,
    clients: Vec<TextClient>,
}

fn net_config() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_secs(5),
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
        ..NetConfig::default()
    }
}

/// Generates the table, loads it, trains and stores two forests, starts
/// the server and connects the clients.
fn setup(rows: usize, seed: u64) -> Result<(Voters, Served), String> {
    let voters = generate(rows, seed);
    let v = &voters;
    let db = Database::new();
    mlcs_core::register_ml_udfs(&db);
    let rows = v.precinct.len();
    Batch::from_columns(vec![
        ("voter_id", Column::from_i64s((0..rows as i64).collect())),
        ("precinct_id", Column::from_i32s(v.precinct.clone())),
        ("f03", Column::from_i32s(v.f[0].clone())),
        ("f04", Column::from_i32s(v.f[1].clone())),
        ("f05", Column::from_i32s(v.f[2].clone())),
        ("label", Column::from_i32s(v.label.clone())),
    ])
    .and_then(|b| db.catalog().put_table(Table::from_batch("voters", b), false))
    .map_err(|e| format!("load voters: {e}"))?;
    db.execute("CREATE TABLE models (name VARCHAR, classifier BLOB, params VARCHAR)")
        .map_err(|e| format!("create models: {e}"))?;
    for (name, trees) in [("rf16", 16), ("rf4", 4)] {
        db.execute(&format!(
            "INSERT INTO models SELECT '{name}', classifier, parameters \
             FROM train((SELECT f03, f04, f05 FROM voters), (SELECT label FROM voters), {trees})"
        ))
        .map_err(|e| format!("train {name}: {e}"))?;
    }
    let server =
        Server::start_with(db.clone(), net_config()).map_err(|e| format!("start server: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| {
            TextClient::connect_with(server.addr(), net_config())
                .map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok((voters, Served { db, server, clients }))
}

/// What each reply must be.
struct Expected {
    predict: Vec<Expect>,
    analytics: Expect,
    /// `count[i]`, `sum[i]`: rows and `SUM(f03)` of `voter_id < i`.
    prefix_sum: Vec<i64>,
}

impl Expected {
    fn build(db: &Database, v: &Voters) -> Result<Expected, String> {
        let embedded = |sql: &str| {
            db.query(sql)
                .map(|b| oracle::digest_batch(&b, false))
                .map_err(|e| format!("embedded `{sql}`: {e}"))
        };
        let predict =
            (0..HOT_PRECINCTS).map(|p| embedded(&predict_sql(p))).collect::<Result<Vec<_>, _>>()?;
        if let Some(p) = predict.iter().position(|e| e.rows == 0) {
            return Err(format!("hot precinct {p} has no voters"));
        }
        let mut prefix_sum = vec![0i64];
        for f in &v.f[0] {
            prefix_sum.push(prefix_sum[prefix_sum.len() - 1] + *f as i64);
        }
        Ok(Expected { predict, analytics: embedded(ANALYTICS_SQL)?, prefix_sum })
    }

    fn of(&self, op: &Op) -> Expect {
        match op {
            Op::Predict { precinct } => self.predict[*precinct],
            Op::Analytics => self.analytics,
            Op::Adhoc { from, to } => {
                let last = self.prefix_sum.len() as i64 - 1;
                let (from, to) = ((*from).clamp(0, last), (*to).clamp(0, last));
                let sum = self.prefix_sum[to as usize] - self.prefix_sum[from as usize];
                oracle::expect_rows(&[vec![Cell::Int(to - from), Cell::Int(sum)]], false)
            }
        }
    }
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    /// Latencies by op kind.
    lat: [Vec<u64>; 3],
    checks: Checks,
    tracer: Tracer,
}

fn client_loop(
    cfg: &RunConfig,
    client: &mut TextClient,
    idx: usize,
    rows: usize,
    expected: &Expected,
    start: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut mix = Mix::new(cfg.seed, idx, rows);
    let mut op_id = idx as u64;
    while now_ns() - start < cfg.budget_ns() {
        // A traced run records while the count of predicts so far is odd:
        // every other predict, and the other kinds as they fall.
        log.tracer.set_enabled(cfg.records_unit(log.lat[0].len()));
        let op = mix.next_op();
        let sql = op.sql();
        op_id += CLIENTS as u64;
        let (reply, ns) =
            log.tracer.span(KIND_NAMES[op.kind()], op_id, None, || client.query(&sql));
        log.lat[op.kind()].push(ns);
        log.checks.record(match reply {
            Ok(batch) => {
                oracle::mismatch(&batch, &expected.of(&op)).map(|why| format!("`{sql}`: {why}"))
            }
            Err(e) => Some(format!("`{sql}`: {e}")),
        });
    }
    log
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let rows = cfg.size(50_000, 5_000);
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some((_, Served { server, clients, .. })) = served.take() {
            drop(clients);
            server.shutdown();
        }
        let (made, ns) = time(|| setup(rows, cfg.seed));
        served = Some(made?);
        setups.push(secs(ns));
    }
    let (voters, Served { db, server, mut clients }) = served.expect("SETUPS > 0");
    report.set("setup_s", median(&mut setups));
    report.note(format!(
        "serve_mixed: closed loop, {CLIENTS} text-protocol clients, default server config, voters {rows} rows, 2 stored forests"
    ));
    let expected = Expected::build(&db, &voters)?;

    // Warm: every hot text once per client, so the timed phase starts
    // with the plan cache and the model cache filled.
    for client in &mut clients {
        for op in (0..HOT_PRECINCTS).map(|precinct| Op::Predict { precinct }).chain([Op::Analytics])
        {
            let reply = client.query(&op.sql());
            report.checks.record(match reply {
                Ok(b) => oracle::mismatch(&b, &expected.of(&op))
                    .map(|why| format!("warm-up `{}`: {why}", op.sql())),
                Err(e) => Some(format!("warm-up `{}`: {e}", op.sql())),
            });
        }
    }

    let phase = Phase::start();
    let start = now_ns();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(idx, client)| {
                let expected = &expected;
                scope.spawn(move || client_loop(cfg, client, idx, rows, expected, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_ns = now_ns() - start;
    let delta = phase.delta();

    // Each client's predicts are cut to an even number, so "odd position
    // = recorded" stays true of the joined samples.
    let (mut predict, mut analytics, mut adhoc) = (Vec::new(), Vec::new(), Vec::new());
    let mut window_p99 = Vec::new();
    let mut replies = 0u64;
    for log in logs {
        replies += log.lat.iter().map(|l| l.len() as u64).sum::<u64>();
        window_p99.extend(log.lat[0].chunks_exact(TAIL_WINDOW).map(|w| percentile_ns(w, 0.99)));
        predict.extend(&log.lat[0][..log.lat[0].len() & !1]);
        analytics.extend(&log.lat[1]);
        adhoc.extend(&log.lat[2]);
        report.checks.merge(log.checks);
        tracer.absorb(log.tracer);
    }
    if predict.is_empty() || analytics.is_empty() || adhoc.is_empty() {
        return Err("the timed phase ended before every op kind was sent".into());
    }
    report.set("primary_p50_ms", millis(median_ns(&predict)));
    report.set("secondary_p50_ms", millis(median_ns(&adhoc)));
    report.set("third_ms", millis(median_ns(&analytics)));
    // The tail is the median over windows, as every other timing is a
    // median over units: a stall of the machine then costs one window, not
    // the run. A phase too short for one window reports the plain p99.
    let p99 =
        if window_p99.is_empty() { percentile_ns(&predict, 0.99) } else { median_ns(&window_p99) };
    report.set("fourth_ms", millis(p99));
    report.set("throughput_ops_s", replies as f64 / secs(wall_ns));
    report.note(format!(
        "samples: {} predict, {} analytics, {} adhoc in {:.2} s; {} windows of {TAIL_WINDOW} predicts; over all predicts p99 {:.3} ms, highest rank with 10 samples beyond it p{:.3} = {:.3} ms",
        predict.len(),
        analytics.len(),
        adhoc.len(),
        secs(wall_ns),
        window_p99.len(),
        millis(percentile_ns(&predict, 0.99)),
        highest_supported_rank(predict.len()).unwrap_or(0.0) * 100.0,
        millis(percentile_ns(&predict, highest_supported_rank(predict.len()).unwrap_or(0.5))),
    ));

    if cfg.traced {
        tracer.set_enabled(true);
        report.set("netproto.analytics_p50_ms", millis(median_ns(&analytics)));
        report.set("trace_overhead_share", overhead_share(&predict));
        registry_metrics(report, &delta, replies, wall_ns, cfg.threads);
        layer_probes(cfg, &db, &mut clients[0], rows, tracer, report)?;
    }
    drop(clients);
    server.shutdown();
    Ok(())
}

/// Replays one op of each kind through the layers that can be called
/// from outside, on an otherwise idle server.
fn layer_probes(
    cfg: &RunConfig,
    db: &Database,
    client: &mut TextClient,
    rows: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let reps = cfg.size(300, 30);
    // Adhoc texts the timed phase cannot have sent: a third "client".
    let mut fresh = Mix::new(cfg.seed, CLIENTS, rows);
    let mut next_adhoc = || loop {
        if let op @ Op::Adhoc { .. } = fresh.next_op() {
            return op;
        }
    };
    let weights = [0.6, 0.2, 0.2];
    let (mut front_end_us, mut wire_total, mut layers_total) = ([0.0; 3], 0.0, 0.0);
    for (kind, weight) in weights.into_iter().enumerate() {
        let mut stage_ns: [Vec<u64>; 3] = Default::default();
        let (mut exec_ns, mut wire_ns) = (Vec::new(), Vec::new());
        for rep in 0..reps {
            let op = match kind {
                0 => Op::Predict { precinct: rep % 8 },
                1 => Op::Analytics,
                _ => next_adhoc(),
            };
            let sql = op.sql();
            let op_id = 3_000_000 + (kind * reps + rep) as u64;
            let root = tracer.begin("replay", op_id, None);
            let parent = root.id();
            let (reply, ns) =
                tracer.span("netproto.round_trip", op_id, parent, || client.query(&sql));
            reply.map_err(|e| format!("replay `{sql}`: {e}"))?;
            wire_ns.push(ns);
            for (samples, ns) in
                stage_ns.iter_mut().zip(front_end(db, &sql, tracer, op_id, parent)?)
            {
                samples.push(ns);
            }
            // The wire round trip above left the plan in the cache.
            let (r, ns) = tracer.span("exec.cached_query", op_id, parent, || db.query(&sql));
            r.map_err(|e| format!("embedded `{sql}`: {e}"))?;
            exec_ns.push(ns);
            tracer.end(root);
        }
        let stages = stage_ns.map(|s| micros(median_ns(&s)));
        for (total, stage) in front_end_us.iter_mut().zip(stages) {
            *total += stage / 3.0;
        }
        let (exec, wire) = (micros(median_ns(&exec_ns)), micros(median_ns(&wire_ns)));
        // Only a text the plan cache has not seen pays the front-end.
        let layers = exec + if kind == 2 { stages.iter().sum() } else { 0.0 };
        wire_total += weight * wire;
        layers_total += weight * layers;
        if kind == 0 {
            report.set("sql.cached_exec_us", exec);
            report.set("netproto.wire_overhead_us", wire - exec);
        }
    }
    report.set("sql.parse_us", front_end_us[0]);
    report.set("sql.bind_us", front_end_us[1]);
    report.set("sql.optimize_us", front_end_us[2]);
    report.set("unattributed_share", ratio(wire_total - layers_total, wire_total));

    // Framing alone, through an in-memory buffer.
    let sql = predict_sql(0);
    let mut codec = Vec::new();
    for _ in 0..reps * 4 {
        let (ok, ns) = tracer.span("netproto.frame_codec", 0, None, || -> Result<bool, String> {
            let mut wire = Vec::with_capacity(sql.len() + 8);
            write_frame(&mut wire, FrameKind::Query, &encode_query(Encoding::Text, &sql))
                .map_err(|e| e.to_string())?;
            let (kind, payload) = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
            let (_, text) = decode_query(&payload).map_err(|e| e.to_string())?;
            Ok(kind == FrameKind::Query && text == sql)
        });
        report.checks.record(match ok {
            Ok(true) => None,
            Ok(false) => Some("a query frame did not survive encode/decode".into()),
            Err(e) => Some(format!("frame codec: {e}")),
        });
        codec.push(micros(ns));
    }
    report.set("netproto.frame_codec_us", median(&mut codec));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_is_a_function_of_seed_and_client() {
        let ops = |seed, client| {
            let mut m = Mix::new(seed, client, 50_000);
            (0..5000).map(|_| m.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(9, 0), ops(9, 0));
        assert_ne!(ops(9, 0), ops(9, 1));
        assert_ne!(ops(9, 0), ops(10, 0));
        let a = ops(9, 0);
        let share = |k| a.iter().filter(|o| o.kind() == k).count() as f64 / a.len() as f64;
        assert!(
            (share(0) - 0.6).abs() < 0.03
                && (share(1) - 0.2).abs() < 0.03
                && (share(2) - 0.2).abs() < 0.03
        );
        assert!(a
            .iter()
            .all(|o| !matches!(o, Op::Predict { precinct } if *precinct >= HOT_PRECINCTS)));
    }

    #[test]
    fn adhoc_texts_never_repeat_across_clients_or_wraps() {
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..=CLIENTS {
            // Small table so the start wraps many times.
            let mut m = Mix::new(1, client, 500);
            for _ in 0..20_000 {
                if let op @ Op::Adhoc { from, to } = m.next_op() {
                    assert!(from < to && from >= 0);
                    assert!(seen.insert(op.sql()), "adhoc text repeated: {}", op.sql());
                }
            }
        }
    }

    #[test]
    fn replies_match_expectations_on_a_small_table() {
        let (voters, served) = setup(2000, 5).unwrap();
        let expected = Expected::build(&served.db, &voters).unwrap();
        let Served { server, mut clients, .. } = served;
        let mut mix = Mix::new(5, 0, 2000);
        for _ in 0..200 {
            let op = mix.next_op();
            let reply = clients[0].query(&op.sql()).unwrap();
            assert_eq!(oracle::mismatch(&reply, &expected.of(&op)), None, "{}", op.sql());
        }
        // A range reaching past the table is clamped by the oracle as by SQL.
        let op = Op::Adhoc { from: 1990, to: 2100 };
        assert_eq!(
            oracle::mismatch(&clients[1].query(&op.sql()).unwrap(), &expected.of(&op)),
            None
        );
        drop(clients);
        server.shutdown();
    }
}
