//! Workspace static analysis, invoked as `cargo xtask analyze`.
//!
//! Std-only by design — this binary must build in the offline environment
//! with zero dependencies.
//!
//! # Architecture
//!
//! [`scan`] turns every workspace source file into a [`scan::ScannedFile`]:
//! the raw text plus a *masked* copy (comments and string/char literals
//! blanked, offsets preserved) and a structural inventory (functions,
//! enums with variants, `#[cfg(test)]` regions, string literals,
//! `// lint: allow(reason)` markers). The [`passes`] then run over the
//! scanned files, never raw text:
//!
//! * **lock** — single-lock discipline in the pool hot paths, no
//!   blocking calls in `run_task_loop`, plus a synchronization-primitive
//!   inventory. The static rule is the release-build complement of the
//!   debug lock-order tracker in `mlcs_columnar::parallel::lock_order`.
//! * **metrics** — every tick site's metric name is a literal that
//!   appears in the DESIGN.md metric inventory; every documented name is
//!   ticked somewhere; the names pinned by `tests/metrics_exactly_once.rs`
//!   exist on both sides.
//! * **taxonomy** — every `DbError` variant is constructed somewhere and
//!   matched/rendered somewhere; no stringly `Err(format!…)` in hot paths.
//! * **panic** — panic-free hot paths and registry-sourced harness
//!   timing (the original lint, minus its string/comment false
//!   positives), plus the `unsafe` inventory.
//! * **docs** — README.md, DESIGN.md, EXPERIMENTS.md and the verify skill
//!   quote no file and no `--bin`/`--bench` target that does not exist.
//!   It reads the documents and the file tree, not the scanned sources.
//!
//! Malformed `lint: allow` markers anywhere are themselves findings: an
//! escape hatch that silently fails to parse must not silently excuse
//! nothing. The driver exits non-zero when any pass reports a finding.

mod passes;
mod scan;

use passes::Finding;
use scan::ScannedFile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => analyze(),
        Some("lint") => {
            eprintln!("note: `cargo xtask lint` is now an alias for `cargo xtask analyze`");
            analyze()
        }
        Some(other) => {
            eprintln!("unknown xtask command '{other}'; available: analyze");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <command>\n\ncommands:\n  analyze    lock discipline + \
                 metric-name consistency + error-taxonomy exhaustiveness + panic-free hot \
                 paths + documents quote existing files and targets (alias: lint)"
            );
            ExitCode::FAILURE
        }
    }
}

/// Everything one analysis run produces.
struct AnalysisReport {
    files_scanned: usize,
    findings: Vec<Finding>,
    lock_inventory: Vec<String>,
    unsafe_sites: Vec<(PathBuf, usize, String)>,
}

fn analyze() -> ExitCode {
    let report = run_analysis(&workspace_root());
    print_report(&report)
}

/// Scans the workspace under `root` and runs every pass. Separated from
/// the exit-code plumbing so tests can drive it against fixture trees.
fn run_analysis(root: &Path) -> AnalysisReport {
    let files = scan_workspace(root);
    let design = std::fs::read_to_string(root.join("DESIGN.md")).ok();

    let mut findings = passes::allow_markers(&files);
    findings.extend(passes::lock::run(&files));
    findings.extend(passes::metric_names::run(&files, design.as_deref()));
    findings.extend(passes::taxonomy::run(&files));
    findings.extend(passes::panics::run(&files));
    findings.extend(passes::docs::run(root));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    AnalysisReport {
        files_scanned: files.len(),
        findings,
        lock_inventory: passes::lock::inventory(&files),
        unsafe_sites: passes::panics::unsafe_inventory(&files),
    }
}

/// Reads and scans every `.rs` file in the workspace's source roots.
fn scan_workspace(root: &Path) -> Vec<ScannedFile> {
    let mut paths = Vec::new();
    for dir in ["crates", "shims", "src", "tests", "benches"] {
        collect_files(&root.join(dir), &mut paths);
    }
    paths.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    paths.sort();
    let mut files = Vec::new();
    for path in &paths {
        let Ok(content) = std::fs::read_to_string(path) else {
            eprintln!("warning: unreadable source file {}", path.display());
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        files.push(scan::scan_str(rel, &content));
    }
    files
}

fn print_report(report: &AnalysisReport) -> ExitCode {
    if report.unsafe_sites.is_empty() {
        println!("unsafe inventory: no unsafe code in the workspace");
    } else {
        println!("unsafe inventory ({} sites):", report.unsafe_sites.len());
        for (file, line, text) in &report.unsafe_sites {
            println!("  {}:{}: {}", file.display(), line, text.trim());
        }
    }
    println!("lock inventory ({} files mention sync primitives):", report.lock_inventory.len());
    for entry in &report.lock_inventory {
        println!("  {entry}");
    }

    if report.findings.is_empty() {
        println!(
            "analyze ok: {} files scanned; lock discipline, metric names, error taxonomy, \
             panic-free hot paths and document references all hold",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        for f in &report.findings {
            eprintln!("{f}");
        }
        let mut by_pass: std::collections::BTreeMap<&str, usize> = Default::default();
        for f in &report.findings {
            *by_pass.entry(f.pass).or_default() += 1;
        }
        let summary: Vec<String> = by_pass.iter().map(|(pass, n)| format!("{pass}: {n}")).collect();
        eprintln!(
            "\nanalyze failed: {} finding(s) ({}). Fix the line or annotate it with \
             `// lint: allow(<reason>)` — the reason is required.",
            report.findings.len(),
            summary.join(", ")
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

/// Recursively collects every file under `dir`, skipping build output and
/// the git directory.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The real workspace must be clean: this is the acceptance bar for
    /// `cargo xtask analyze` wired into CI, enforced from the test suite
    /// so a regression fails `cargo test` too.
    #[test]
    fn workspace_analysis_is_clean() {
        let report = run_analysis(&workspace_root());
        assert!(report.files_scanned > 50, "workspace scan found {}", report.files_scanned);
        assert!(
            report.findings.is_empty(),
            "workspace has findings:\n{}",
            report.findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
        // The scoped-job transmute in the pool must stay inventoried.
        assert!(
            report.unsafe_sites.iter().any(|(f, _, _)| f.ends_with("parallel.rs")),
            "pool transmute missing from the unsafe inventory: {:?}",
            report.unsafe_sites
        );
    }

    static FIXTURE_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// Writes `(relative_path, content)` pairs into a fresh temp tree and
    /// returns its root.
    fn fixture(files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "mlcs-xtask-fixture-{}-{}",
            std::process::id(),
            FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        for (rel, content) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, content).unwrap();
        }
        root
    }

    fn findings_for<'a>(report: &'a AnalysisReport, pass: &str) -> Vec<&'a Finding> {
        report.findings.iter().filter(|f| f.pass == pass).collect()
    }

    /// A seeded violation per pass, driven through the same entry point
    /// the CLI uses: each must produce findings (⇒ non-zero exit).
    #[test]
    fn seeded_lock_violation_fails() {
        let root = fixture(&[(
            "crates/columnar/src/parallel/bad.rs",
            "fn f() {\n    let g = a.lock();\n    let h = b.lock();\n}\n",
        )]);
        let report = run_analysis(&root);
        assert_eq!(findings_for(&report, "lock").len(), 1, "{:?}", report.findings);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seeded_metric_violation_fails() {
        let root = fixture(&[
            (
                "crates/a/src/x.rs",
                "fn f() { metrics::counter(\"rogue.metric\").incr(); }\n",
            ),
            ("DESIGN.md", "**Metric inventory**\n\n| Metric | Kind |\n|---|---|\n| `rogue.metric` | counter |\n| `ghost.metric` | counter |\n"),
        ]);
        let report = run_analysis(&root);
        let metric = findings_for(&report, "metrics");
        assert_eq!(metric.len(), 1, "{:?}", report.findings);
        assert!(metric[0].message.contains("`ghost.metric`"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seeded_taxonomy_violation_fails() {
        let root = fixture(&[(
            "crates/columnar/src/error.rs",
            "pub enum DbError {\n    Io(String),\n}\nimpl fmt::Display for DbError {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n        match self { DbError::Io(m) => write!(f, \"{m}\") }\n    }\n}\n",
        )]);
        let report = run_analysis(&root);
        let tax = findings_for(&report, "taxonomy");
        assert_eq!(tax.len(), 1, "{:?}", report.findings);
        assert!(tax[0].message.contains("never constructed"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seeded_panic_violation_fails() {
        let root = fixture(&[("crates/columnar/src/exec/bad.rs", "fn f() { x.unwrap(); }\n")]);
        let report = run_analysis(&root);
        assert_eq!(findings_for(&report, "panic").len(), 1, "{:?}", report.findings);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seeded_malformed_allow_marker_fails() {
        let root = fixture(&[("crates/a/src/x.rs", "fn f() { x(); } // lint: allow()\n")]);
        let report = run_analysis(&root);
        assert_eq!(findings_for(&report, "allow").len(), 1, "{:?}", report.findings);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn clean_fixture_passes() {
        let root = fixture(&[(
            "crates/columnar/src/exec/good.rs",
            "fn f() -> Result<u8, E> {\n    let v = o.unwrap_or(0); // fine: not .unwrap()\n    Ok(v)\n}\n",
        )]);
        let report = run_analysis(&root);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn findings_drive_the_exit_code() {
        let clean = AnalysisReport {
            files_scanned: 1,
            findings: vec![],
            lock_inventory: vec![],
            unsafe_sites: vec![],
        };
        assert_eq!(format!("{:?}", print_report(&clean)), format!("{:?}", ExitCode::SUCCESS));
        let dirty = AnalysisReport {
            files_scanned: 1,
            findings: vec![Finding {
                file: "x.rs".into(),
                line: 1,
                pass: "panic",
                message: "m".into(),
                text: String::new(),
            }],
            lock_inventory: vec![],
            unsafe_sites: vec![],
        };
        assert_eq!(format!("{:?}", print_report(&dirty)), format!("{:?}", ExitCode::FAILURE));
    }
}
