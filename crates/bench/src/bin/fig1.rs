//! Figure 1 reproduction harness.
//!
//! Runs the complete voter-classification pipeline once per data-access
//! method and prints the same comparison the paper's Figure 1 plots: total
//! pipeline time per method with the load+wrangle fraction called out.
//!
//! ```text
//! cargo run -p mlcs-bench --release --bin fig1 -- [--rows N] [--trees T] [--repeat R]
//! ```
//!
//! Defaults: 750,000 rows (one-tenth of the paper's 7.5M so it runs on
//! laptop-class machines; pass `--rows 7500000` for full scale), 16 trees,
//! 1 repetition. Expected *shape* (who wins, roughly by what factor):
//! in-db fastest with a near-zero wrangle bar; binary files close behind;
//! CSV and the socket protocols an order of magnitude slower on wrangling
//! — matching the published figure.
//!
//! All stage times come from the `mlcs_columnar::metrics` registry (the
//! `fig1.*` duration histograms); `--metrics` additionally dumps the full
//! registry snapshot after the measurement passes.

use mlcs_voters::pipeline::{run_method, Method, PipelineEnv, PipelineOptions};
use mlcs_voters::report::render_figure1;
use mlcs_voters::VoterConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rows = 750_000usize;
    let mut trees = 16usize;
    let mut repeat = 1usize;
    let mut csv_out: Option<String> = None;
    let mut dump_metrics = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rows" => rows = args.next().expect("--rows N").parse()?,
            "--trees" => trees = args.next().expect("--trees T").parse()?,
            "--repeat" => repeat = args.next().expect("--repeat R").parse()?,
            "--csv" => csv_out = Some(args.next().expect("--csv PATH")),
            "--metrics" => dump_metrics = true,
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: fig1 [--rows N] [--trees T] [--repeat R] [--csv PATH] [--metrics]"
                );
                std::process::exit(2);
            }
        }
    }
    let config = VoterConfig { rows, ..Default::default() };
    let opts = PipelineOptions { n_estimators: trees, ..Default::default() };
    let methods = [
        Method::InDb,
        Method::NpyFiles,
        Method::H5Lite,
        Method::Csv,
        Method::SocketText,
        Method::SocketBinary,
        Method::EmbeddedRows,
    ];

    eprintln!(
        "generating {} voters x {} columns, {} precincts ...",
        config.rows,
        config.features + 2,
        config.precincts
    );
    let env = PipelineEnv::prepare_for(&config, &methods)?;
    eprintln!("materialized all access paths under {}\n", env.dir.display());

    // Warm the page cache the way the paper's hot runs do.
    eprintln!("warm-up pass ...");
    for &m in &methods {
        run_method(&env, m, &opts)?;
    }

    let mut best: Vec<mlcs_voters::pipeline::PipelineRun> = Vec::new();
    for r in 0..repeat {
        eprintln!("measurement pass {} of {repeat} ...", r + 1);
        for (i, &m) in methods.iter().enumerate() {
            let run = run_method(&env, m, &opts)?;
            match best.get_mut(i) {
                None => best.push(run),
                Some(prev) => {
                    if run.total < prev.total {
                        *prev = run;
                    }
                }
            }
        }
    }

    if let Some(path) = &csv_out {
        let mut csv =
            String::from("method,load_wrangle_s,train_s,predict_s,total_s,share_error,test_rows\n");
        for r in &best {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.method.label(),
                r.load_wrangle.as_secs_f64(),
                r.train.as_secs_f64(),
                r.predict.as_secs_f64(),
                r.total.as_secs_f64(),
                r.share_error,
                r.test_rows
            ));
        }
        std::fs::write(path, csv)?;
        eprintln!("wrote {path}");
    }

    println!();
    println!("{}", render_figure1(&best));
    println!(
        "rows={} columns={} trees={} (best of {repeat} hot run(s); stage times \
         from the metrics registry)",
        config.rows,
        config.features + 2,
        trees
    );

    // ML kernel split, sourced from the `ml.*` registry series the model
    // layer records: cumulative train/predict wall time, rows, the groups of
    // equal rows the trees grew over, split candidates scanned, prediction
    // morsels, and the distinct inputs the in-db model UDFs evaluated
    // beside their rows, across every pass above.
    let snap = mlcs_columnar::metrics::snapshot();
    println!();
    println!(
        "ml kernels (cumulative over all passes): train {:.3}s / {} rows \
         ({} groups, {} split candidates), predict {:.3}s / {} rows ({} pool morsels; \
         in-db model UDFs evaluated {} distinct keys of {} rows)",
        snap.duration_sum("ml.train.time_ns").as_secs_f64(),
        snap.counter("ml.train.rows"),
        snap.counter("ml.train.groups"),
        snap.counter("ml.train.splits_evaluated"),
        snap.duration_sum("ml.predict.time_ns").as_secs_f64(),
        snap.counter("ml.predict.rows"),
        snap.counter("ml.predict.morsels"),
        snap.counter("udf.predict.distinct_keys"),
        snap.counter("udf.predict.rows"),
    );
    if dump_metrics {
        println!();
        println!("metrics snapshot:");
        print!("{}", snap.render());
    }
    env.cleanup();
    Ok(())
}
