//! Workload `fig1_pipeline`: the paper's Figure 1. The same voter
//! classification pipeline runs in-database (`primary`) and on a client
//! fed over the binary wire protocol (`secondary`), alternating, for the
//! length of the timed phase.
//!
//! Check: every run reports the same `test_rows` and a `share_error`
//! equal to 1e-9, whatever the access method.

use crate::clock::{millis, now_ns, secs, time};
use crate::layers::{registry_metrics, Phase};
use crate::report::{ratio, Report, RunConfig};
use crate::scratch::tree_bytes;
use crate::stats::{median, median_ns, overhead_share};
use crate::trace::Tracer;
use mlcs_columnar::{Batch, Column, DbResult};
use mlcs_core::bridge::matrix_from_columns;
use mlcs_core::StoredModel;
use mlcs_fileio::h5lite::H5LiteReader;
use mlcs_fileio::{read_csv, read_npy_dir};
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::Model;
use mlcs_netproto::{BinaryClient, NetConfig, RowCursor, TextClient};
use mlcs_voters::pipeline::{run_method, Method, PipelineEnv, PipelineOptions, PipelineRun};
use mlcs_voters::VoterConfig;
use std::path::Path;

/// Times the environment is prepared; `setup_s` is the median.
const SETUPS: usize = 3;

/// Voter rows. 98 columns x 60 000 rows is 23 MB of integers: larger than
/// L2, small enough that a 10 s phase holds a dozen runs of each method.
fn voter_config(cfg: &RunConfig) -> VoterConfig {
    VoterConfig {
        rows: cfg.size(60_000, 4_000),
        precincts: cfg.size(2_751, 200),
        features: 96,
        seed: cfg.seed,
    }
}

fn prepare(config: &VoterConfig, methods: &[Method]) -> Result<PipelineEnv, String> {
    PipelineEnv::prepare_for(config, methods)
        .map_err(|e| format!("prepare Figure-1 environment: {e}"))
}

/// Drops the environment (which stops its server) and removes its files.
fn discard(env: PipelineEnv) {
    let dir = env.dir.clone();
    drop(env);
    let _ = std::fs::remove_dir_all(dir);
}

/// The prepared environment and the first run seen, which every later
/// run must agree with.
struct Fig1 {
    env: PipelineEnv,
    opts: PipelineOptions,
    reference: Option<PipelineRun>,
}

impl Fig1 {
    /// One timed pipeline run, checked against the first run seen.
    fn run_once(
        &mut self,
        method: Method,
        tracer: &mut Tracer,
        op_id: u64,
        report: &mut Report,
    ) -> Option<(PipelineRun, u64)> {
        let name = match method {
            Method::InDb => "fig1.indb",
            Method::InDbParallel => "fig1.indb_parallel",
            Method::NpyFiles => "fig1.npy",
            Method::H5Lite => "fig1.h5lite",
            Method::Csv => "fig1.csv",
            Method::SocketText => "fig1.socket_text",
            Method::SocketBinary => "fig1.socket_binary",
            Method::EmbeddedRows => "fig1.embedded",
        };
        let (result, ns) =
            tracer.span(name, op_id, None, || run_method(&self.env, method, &self.opts));
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                report.checks.record(Some(format!("{method:?} failed: {e}")));
                return None;
            }
        };
        let first = self.reference.get_or_insert_with(|| run.clone());
        report.checks.record(if run.test_rows != first.test_rows || run.test_rows == 0 {
            Some(format!(
                "{method:?} classified {} rows, {:?} classified {}",
                run.test_rows, first.method, first.test_rows
            ))
        } else if (run.share_error - first.share_error).abs() > 1e-9 {
            Some(format!(
                "{method:?} share_error {} != {:?} share_error {}",
                run.share_error, first.method, first.share_error
            ))
        } else {
            None
        });
        Some((run, ns))
    }
}

/// The runs of one method in the timed phase.
#[derive(Default)]
struct Samples {
    wall_ns: Vec<u64>,
    runs: Vec<PipelineRun>,
}

impl Samples {
    fn stage_median(&self, stage: impl Fn(&PipelineRun) -> std::time::Duration) -> f64 {
        median(&mut self.runs.iter().map(|r| stage(r).as_secs_f64()).collect::<Vec<_>>())
    }
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let config = voter_config(cfg);
    let opts = PipelineOptions { seed: cfg.seed, ..Default::default() };
    let timed = [Method::InDb, Method::SocketBinary];
    let methods: &[Method] = if cfg.traced { Method::all() } else { &timed };

    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..SETUPS {
        if let Some(old) = env.take() {
            discard(old);
        }
        let (prepared, ns) = time(|| prepare(&config, methods));
        env = Some(prepared?);
        setups.push(secs(ns));
    }
    report.set("setup_s", median(&mut setups));
    report.note(format!(
        "fig1_pipeline: {} voters x {} columns, {} precincts, {} trees",
        config.rows,
        config.features + 2,
        config.precincts,
        opts.n_estimators
    ));
    let mut fig1 = Fig1 { env: env.expect("SETUPS > 0"), opts, reference: None };

    for m in timed {
        fig1.run_once(m, &mut Tracer::new(false), 0, report);
    }

    // Timed phase, in pairs of one run of each method.
    let mut samples = [Samples::default(), Samples::default()];
    let mut pair_ns = Vec::new();
    let phase = Phase::start();
    let start = now_ns();
    let mut op_id = 0u64;
    while pair_ns.len() < cfg.min_units() || now_ns() - start < cfg.budget_ns() {
        tracer.set_enabled(cfg.records_unit(pair_ns.len()));
        let pair_start = now_ns();
        for (slot, m) in timed.into_iter().enumerate() {
            op_id += 1;
            if let Some((run, ns)) = fig1.run_once(m, tracer, op_id, report) {
                samples[slot].wall_ns.push(ns);
                samples[slot].runs.push(run);
            }
        }
        pair_ns.push(now_ns() - pair_start);
    }
    tracer.set_enabled(cfg.traced);
    let wall_ns = now_ns() - start;
    let delta = phase.delta();
    let [indb, socket] = &samples;
    if indb.runs.is_empty() || socket.runs.is_empty() {
        return Err(format!("no pipeline run completed: {:?}", report.checks.first_failures()));
    }

    report.set("primary_p50_ms", millis(median_ns(&indb.wall_ns)));
    report.set("secondary_p50_ms", millis(median_ns(&socket.wall_ns)));
    report.set("third_ms", indb.stage_median(|r| r.train) * 1e3);
    report.set("fourth_ms", socket.stage_median(|r| r.load_wrangle) * 1e3);
    report.set("throughput_ops_s", timed.len() as f64 / secs(median_ns(&pair_ns)));
    report.note(format!(
        "samples: {} in-db runs, {} socket runs in {:.2} s",
        indb.runs.len(),
        socket.runs.len(),
        secs(wall_ns)
    ));

    if cfg.traced {
        stage_metrics(indb, socket, report);
        report.set("trace_overhead_share", overhead_share(&indb.wall_ns));
        registry_metrics(report, &delta, op_id, wall_ns, cfg.threads);
        other_methods(&mut fig1, tracer, report);
        model_probes(cfg, &fig1, tracer, report)?;
        transfer_probes(&fig1.env, tracer, report)?;
    }
    discard(fig1.env);
    Ok(())
}

/// Stage split of the two timed methods, as the pipeline reports it.
fn stage_metrics(indb: &Samples, socket: &Samples, report: &mut Report) {
    let names = [
        ["fig1.indb.load_wrangle_s", "fig1.indb.train_s", "fig1.indb.predict_s"],
        ["fig1.socket.load_wrangle_s", "fig1.socket.train_s", "fig1.socket.predict_s"],
    ];
    let mut staged = [0.0; 2];
    for (i, (names, s)) in names.into_iter().zip([indb, socket]).enumerate() {
        let stages = [
            s.stage_median(|r| r.load_wrangle),
            s.stage_median(|r| r.train),
            s.stage_median(|r| r.predict),
        ];
        staged[i] = stages.iter().sum();
        let total = s.stage_median(|r| r.total);
        report.checks.record(((staged[i] / total - 1.0).abs() > 0.03).then(|| {
            format!(
                "{} and its siblings sum to {:.4} s of a {total:.4} s total: a stage is untimed",
                names[0], staged[i]
            )
        }));
        for (name, value) in names.into_iter().zip(stages) {
            report.set(name, value);
        }
    }
    // From outside, an in-db run is one call; what the stage timers inside
    // it do not cover (table drops, quality evaluation) is unattributed.
    let wall = secs(median_ns(&indb.wall_ns));
    report.set("unattributed_share", ratio(wall - staged[0], wall));
}

/// The other access methods of Figure 1: median of three runs each.
fn other_methods(fig1: &mut Fig1, tracer: &mut Tracer, report: &mut Report) {
    let methods = [
        (Method::SocketText, "fig1.socket_text_s"),
        (Method::Csv, "fig1.csv_s"),
        (Method::NpyFiles, "fig1.npy_s"),
        (Method::H5Lite, "fig1.h5lite_s"),
        (Method::EmbeddedRows, "fig1.embedded_s"),
        (Method::InDbParallel, "fig1.indb_parallel_s"),
    ];
    for (i, (method, name)) in methods.into_iter().enumerate() {
        let mut times: Vec<f64> = (0..3)
            .filter_map(|rep| {
                fig1.run_once(method, tracer, 1_000_000 + (i * 3 + rep) as u64, report)
            })
            .map(|(_, ns)| secs(ns))
            .collect();
        if !times.is_empty() {
            report.set(name, median(&mut times));
        }
    }
}

/// Times `f` three times under a span and returns the median seconds.
/// `f` reports how many rows it moved, which must be `rows` every time.
fn probe_rows(
    tracer: &mut Tracer,
    report: &mut Report,
    name: &'static str,
    rows: usize,
    mut f: impl FnMut() -> Result<usize, String>,
) -> f64 {
    let mut times = Vec::new();
    for _ in 0..3 {
        let (got, ns) = tracer.span(name, 0, None, &mut f);
        report.checks.record(match got {
            Ok(n) if n == rows => None,
            Ok(n) => Some(format!("{name}: moved {n} rows of {rows}")),
            Err(e) => Some(format!("{name}: {e}")),
        });
        times.push(secs(ns));
    }
    median(&mut times)
}

/// ml, core and pickle: the same forest on the same split as the in-db
/// run, called directly. The split is read back from that run's table.
fn model_probes(
    cfg: &RunConfig,
    fig1: &Fig1,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let opts = &fig1.opts;
    let (feats, frac) = (opts.train_features.join(", "), opts.test_fraction);
    let width = opts.train_features.len();
    let split = |cmp: &str| {
        let batch = fig1
            .env
            .db
            .query(&format!("SELECT {feats}, label FROM labeled WHERE u {cmp} {frac}"))
            .map_err(|e| format!("read the Figure-1 split: {e}"))?;
        let features: Vec<Column> = (0..width).map(|i| batch.column(i).as_ref().clone()).collect();
        let labels: Vec<i64> =
            (0..batch.rows()).map(|i| batch.column(width).i64_at(i).unwrap_or(0)).collect();
        Ok::<_, String>((features, labels))
    };
    let ((train_cols, labels), (test_cols, _)) = (split(">=")?, split("<")?);
    let to_matrix = |cols: &[Column]| {
        matrix_from_columns(&cols.iter().collect::<Vec<_>>())
            .map_err(|e| format!("matrix_from_columns: {e}"))
    };

    let mut bridge = Vec::new();
    for _ in 0..5 {
        let (m, ns) = tracer.span("core.bridge", 0, None, || to_matrix(&train_cols));
        m?;
        bridge.push(millis(ns));
    }
    report.set("core.bridge_ms", median(&mut bridge));
    let (x_train, x_test) = (to_matrix(&train_cols)?, to_matrix(&test_cols)?);

    let reps = cfg.size(3, 1);
    let before = Phase::start();
    let mut train_s = Vec::new();
    let mut model = None;
    for _ in 0..reps {
        let forest = RandomForestClassifier::new(opts.n_estimators)
            .with_seed(mlcs_core::udf::DEFAULT_TRAIN_SEED);
        let (m, ns) = tracer.span("ml.train", 0, None, || {
            StoredModel::train(Model::RandomForest(forest), &x_train, &labels)
        });
        model = Some(m.map_err(|e| format!("direct train: {e}"))?);
        train_s.push(secs(ns));
    }
    let model = model.expect("trained at least once");
    let splits = before.delta().counter("ml.train.splits_evaluated");
    let train_s = median(&mut train_s);
    report.set("ml.train_s", train_s);
    report.set("ml.train_krows_per_s", ratio(x_train.rows() as f64 / 1e3, train_s));
    report.set("ml.splits_evaluated", splits as f64 / reps as f64);
    let predict_s = probe_rows(tracer, report, "ml.predict", x_test.rows(), || {
        model.predict(&x_test).map(|p| p.len()).map_err(|e| e.to_string())
    });
    report.set("ml.predict_mrows_per_s", ratio(x_test.rows() as f64 / 1e6, predict_s));
    report.checks.record(
        (Some(x_test.rows()) != fig1.reference.as_ref().map(|r| r.test_rows)).then(|| {
            format!(
                "the test split has {} rows, the pipeline classified another number",
                x_test.rows()
            )
        }),
    );

    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mut blob = Vec::new();
    for _ in 0..9 {
        let (b, ns) = tracer.span("pickle.encode", 0, None, || model.to_blob());
        blob = b;
        encode.push(millis(ns));
        let (back, ns) = tracer.span("pickle.decode", 0, None, || StoredModel::from_blob(&blob));
        decode.push(millis(ns));
        report.checks.record(match back {
            Ok(m) if m == model => None,
            Ok(_) => Some("forest changed across to_blob/from_blob".into()),
            Err(e) => Some(format!("from_blob: {e}")),
        });
    }
    report.set("pickle.encode_ms", median(&mut encode));
    report.set("pickle.decode_ms", median(&mut decode));
    report.set("pickle.blob_bytes", blob.len() as f64);
    Ok(())
}

/// fileio and netproto: the voters table read back from each export and
/// fetched over each protocol.
fn transfer_probes(
    env: &PipelineEnv,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let rows = env.data.voters.rows();
    let schema = env.data.voters.schema().clone();
    let rows_of = |r: DbResult<Batch>| r.map(|b| b.rows()).map_err(|e| e.to_string());

    // Megabytes of file per second of reading.
    let (csv, npy, h5l) =
        (env.dir.join("voters.csv"), env.dir.join("voters_npy"), env.dir.join("voters.h5l"));
    let file_mb = |path: &Path| {
        tree_bytes(path)
            .map(|b| b as f64 / 1e6)
            .map_err(|e| format!("size of {}: {e}", path.display()))
    };
    let s = probe_rows(tracer, report, "fileio.csv_read", rows, || {
        rows_of(read_csv(&csv, schema.clone()))
    });
    report.set("fileio.csv_read_mb_s", ratio(file_mb(&csv)?, s));
    let s = probe_rows(tracer, report, "fileio.npy_read", rows, || rows_of(read_npy_dir(&npy)));
    report.set("fileio.npy_read_mb_s", ratio(file_mb(&npy)?, s));
    let s = probe_rows(tracer, report, "fileio.h5lite_read", rows, || {
        rows_of(H5LiteReader::open(&h5l).and_then(|mut r| r.read_batch()))
    });
    report.set("fileio.h5lite_read_mb_s", ratio(file_mb(&h5l)?, s));

    // Payload megabytes, as the registry counts them, per second of the
    // client's wait.
    let addr = env.server.as_ref().ok_or("the Figure-1 environment has no server")?.addr();
    let sql = "SELECT * FROM voters";
    let net = NetConfig::default();
    let mut text = TextClient::connect_with(addr, net).map_err(|e| format!("text connect: {e}"))?;
    let before = Phase::start();
    let s = probe_rows(tracer, report, "netproto.text_export", rows, || rows_of(text.query(sql)));
    let sent = before.delta().counter("netproto.text.bytes_sent") as f64 / 3.0;
    report.set("netproto.text_export_mb_s", ratio(sent / 1e6, s));
    let mut binary =
        BinaryClient::connect_with(addr, net).map_err(|e| format!("binary connect: {e}"))?;
    let before = Phase::start();
    let s =
        probe_rows(tracer, report, "netproto.binary_export", rows, || rows_of(binary.query(sql)));
    let sent = before.delta().counter("netproto.binary.bytes_sent") as f64 / 3.0;
    report.set("netproto.binary_export_mb_s", ratio(sent / 1e6, s));
    let s = probe_rows(tracer, report, "netproto.embedded", rows, || {
        rows_of(RowCursor::query(&env.db, sql).and_then(RowCursor::drain_to_batch))
    });
    report.set("netproto.embedded_rows_per_s", ratio(rows as f64, s));
    Ok(())
}
