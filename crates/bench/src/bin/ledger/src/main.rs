//! The repository's performance ledger: one command per workload that
//! generates its inputs from a seed, measures for a fixed time with its
//! own clock, checks every output, and prints each metric by name.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
//! ledger compare <a.jsonl> <b.jsonl>
//! ledger manifest
//! ```
//!
//! See `README.md` in this directory for the workloads, the metrics, what
//! each layer metric is expected to move, and the API rule that keeps
//! this code compiling while the engine underneath it is simplified.

mod clock;
mod compare;
mod durable;
mod fig1;
mod gen;
mod json;
mod layers;
mod machine;
mod manifest;
mod oracle;
mod report;
mod scratch;
mod serve;
mod sql_analytics;
mod stats;
mod trace;

use json::Json;
use report::{Report, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger --workload <fig1_pipeline|sql_analytics|serve_mixed|durable_commit> --seed <n>
         --seconds <s> --trace <0|1> [--smoke] [--out <file>]
  ledger compare <a.jsonl> <b.jsonl>
  ledger manifest";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => out = Some(value()?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !manifest::is_workload(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or(manifest::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    Ok(RunArgs {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
        smoke,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", manifest::benchmark_json().render_pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => parse_run_args(&args).and_then(run_workload),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints its result. `Ok(false)` means it ran and
/// an output was wrong or an operation failed.
fn run_workload(args: RunArgs) -> Result<bool, String> {
    // Both change the process environment, so they come before any thread.
    let threads = machine::pin_threads();
    let scratch = scratch::Scratch::claim().map_err(|e| format!("claim scratch directory: {e}"))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        threads,
    };
    let mut tracer = trace::Tracer::new(false);
    let mut report = Report::default();
    let started = clock::now_ns();
    match args.workload.as_str() {
        "fig1_pipeline" => fig1::run(&cfg, &mut tracer, &mut report),
        "sql_analytics" => sql_analytics::run(&cfg, &mut tracer, &mut report),
        "serve_mixed" => serve::run(&cfg, &mut tracer, &mut report),
        "durable_commit" => durable::run(&cfg, &scratch, &mut tracer, &mut report),
        other => Err(format!("unknown workload `{other}`")),
    }
    .map_err(|e| format!("{}: {e}", args.workload))?;
    drop(scratch);
    // Read the high-water mark before the fingerprint's bandwidth test
    // allocates its arrays, so it is the workload's.
    let peak_rss_mb = machine::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let fingerprint = machine::fingerprint(threads);
    if cfg.traced {
        report.set("machine.mem_bw_gb_s", fingerprint.mem_bw_gb_s);
        write_spans(&args, &tracer)?;
    } else {
        report.set("peak_rss_mb", peak_rss_mb);
    }

    let defs = manifest::metrics_for(cfg.traced);
    let values = defs.iter().map(|def| report.value_of(def)).collect::<Result<Vec<f64>, _>>()?;
    let correct = report.checks.failed == 0 && report.checks.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.checks.attempted as f64)),
        ("failed", Json::Num(report.checks.failed as f64)),
        (
            "metrics",
            Json::obj(defs.iter().zip(&values).map(|(def, value)| {
                (def.name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]))
            })),
        ),
    ]);

    println!(
        "ledger {} seed={} seconds={} trace={} size={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        if cfg.smoke { "smoke (NOT comparable)" } else { "full" }
    );
    println!("fingerprint {}", fingerprint.to_json().render());
    for note in &report.notes {
        println!("{note}");
    }
    for why in report.checks.first_failures() {
        println!("FAILED: {why}");
    }
    for (def, value) in defs.iter().zip(&values) {
        let role = manifest::role(&args.workload, def.name);
        println!("{:<34} {value:>16.6} {:<8} {role}", def.name, def.unit);
    }
    println!("total wall {:.2} s", clock::secs(clock::now_ns() - started));
    let result_line = result.render();
    if let Some(path) = &args.out {
        let record = Json::obj([
            ("workload", Json::str(&args.workload)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("traced", Json::Bool(cfg.traced)),
            ("comparable", Json::Bool(!cfg.smoke)),
            ("fingerprint", fingerprint.to_json()),
            ("result", result),
        ]);
        append_line(path, &record.render())?;
    }
    println!("{result_line}");
    Ok(correct)
}

/// A traced run leaves its spans in `spans/` of the ledger's work
/// directory, one file per workload and seed.
fn write_spans(args: &RunArgs, tracer: &trace::Tracer) -> Result<(), String> {
    let dir = scratch::work_dir().map_err(|e| format!("locate the executable: {e}"))?.join("spans");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::render_spans(tracer.spans())))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans: {} written to {}; self time by name:", tracer.spans().len(), path.display());
    for (name, self_ns, count) in trace::self_time_by_name(tracer.spans()).into_iter().take(12) {
        println!("  {name:<28} {:>12.3} ms self over {count} spans", clock::millis(self_ns));
    }
    Ok(())
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("append to {path}: {e}"))
}
