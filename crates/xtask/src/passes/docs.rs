//! Documents-quote-the-tree pass.
//!
//! The operator-facing documents ([`DOCS`]) must not send a reader to a
//! file or a cargo target that is gone. In every code span of those
//! documents — each line of a fenced block, each inline `` `…` `` span —
//! this pass reports:
//!
//! * a repository path ending in one of [`EXTENSIONS`] (optionally with a
//!   `:line`, `:a-b` or `:a,b` suffix) that names no file. A path matches
//!   a file when it equals the file's workspace-relative path or is a
//!   `/`-aligned suffix of it, so `udf.rs` and `core/src/udf.rs:291` both
//!   resolve; words holding anything but path characters (`BENCH_*.json`,
//!   `<table>.mlcspg`) are patterns, not paths, and are skipped;
//! * a `--bin <name>` or `--bench <name>` whose name is no target of any
//!   package: a `[[bin]]`/`[[bench]]` entry, a `src/bin/*.rs` or
//!   `benches/*.rs` file, or a package with a `src/main.rs`.
//!
//! Documents that record history (CHANGES.md, ROADMAP.md, the frozen
//! ledger's README) are deliberately not covered: they may name what was
//! deleted.

use super::Finding;
use std::path::Path;

/// The documents checked, relative to the workspace root.
pub const DOCS: &[&str] =
    &["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];

/// File extensions that mark a word as a repository path.
const EXTENSIONS: &[&str] = &[".rs", ".json", ".txt", ".toml", ".md", ".yml"];

/// Checks every document in [`DOCS`] present under `root` against the
/// files and targets under `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut paths = Vec::new();
    crate::collect_files(root, &mut paths);
    let files: Vec<String> = paths
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    let targets = targets(root, &files);
    let mut out = Vec::new();
    for doc in DOCS {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            out.extend(check(doc, &text, &files, &targets));
        }
    }
    out
}

/// The findings for one document, given the workspace-relative paths of
/// every file and the names of every bin and bench target.
fn check(doc: &str, text: &str, files: &[String], targets: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    let finding = |line: usize, message: String| Finding {
        file: doc.into(),
        line,
        pass: "docs",
        message,
        text: String::new(),
    };
    for (line, span) in code_spans(text) {
        let words: Vec<&str> = span.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            if let Some(path) = repo_path(word) {
                let exists = files.iter().any(|f| f == path || f.ends_with(&format!("/{path}")));
                if !exists {
                    out.push(finding(line, format!("`{path}` names no file in the repository")));
                }
            }
            let (flag, name) = match word.split_once('=') {
                Some((flag, name)) => (flag, Some(name)),
                None => (*word, words.get(i + 1).copied()),
            };
            if let ("--bin" | "--bench", Some(name)) = (flag, name) {
                let is_name = name.chars().all(|c| c.is_ascii_alphanumeric() || "_-".contains(c));
                if is_name && !targets.iter().any(|t| t == name) {
                    out.push(finding(line, format!("`{flag} {name}` names no target")));
                }
            }
        }
    }
    out
}

/// Every code span of a Markdown document with the 1-based line it starts
/// on: each line of a fenced block, and each inline span, which may run
/// over lines but not over a blank one.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut open: Option<(usize, String)> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            open = None;
            continue;
        }
        if fenced {
            out.push((lineno, line.to_owned()));
            continue;
        }
        if line.trim().is_empty() {
            open = None;
            continue;
        }
        for (k, part) in line.split('`').enumerate() {
            if k > 0 {
                open = match open.take() {
                    Some(span) => {
                        out.push(span);
                        None
                    }
                    None => Some((lineno, String::new())),
                };
            }
            if let Some((_, span)) = &mut open {
                span.push_str(part);
            }
        }
        if let Some((_, span)) = &mut open {
            span.push(' ');
        }
    }
    out
}

/// The repository path a code-span word names, if it names one: the word
/// without surrounding punctuation and a trailing line reference, when
/// what is left is made of path characters and ends in a known extension.
fn repo_path(word: &str) -> Option<&str> {
    let word =
        word.trim_start_matches(['(', '"', '\'']).trim_end_matches([',', ';', '.', ')', '"', '\'']);
    let path = match word.split_once(':') {
        Some((path, lines))
            if !lines.is_empty()
                && lines.chars().all(|c| c.is_ascii_digit() || ",-–".contains(c)) =>
        {
            path
        }
        Some(_) => return None,
        None => word,
    };
    let is_path = path.chars().all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c));
    let has_extension = EXTENSIONS.iter().any(|e| path.len() > e.len() && path.ends_with(e));
    (is_path && has_extension && !path.starts_with('-')).then_some(path)
}

/// The names of every bin and bench target of every package under `root`.
fn targets(root: &Path, files: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for file in files {
        let (dir, name) = file.rsplit_once('/').unwrap_or(("", file));
        let auto_dir = dir.ends_with("src/bin") || dir.ends_with("benches");
        if let (true, Some(stem)) = (auto_dir, name.strip_suffix(".rs")) {
            out.push(stem.to_owned());
        }
        if name != "Cargo.toml" {
            continue;
        }
        let Ok(manifest) = std::fs::read_to_string(root.join(file)) else { continue };
        let main = if dir.is_empty() { "src/main.rs".into() } else { format!("{dir}/src/main.rs") };
        let has_main = files.contains(&main);
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let Some(value) = line.strip_prefix("name").map(str::trim_start) else { continue };
            let Some(value) = value.strip_prefix('=') else { continue };
            let value = value.trim().trim_matches('"');
            if section == "[[bin]]"
                || section == "[[bench]]"
                || (section == "[package]" && has_main)
            {
                out.push(value.to_owned());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_doc(text: &str) -> Vec<Finding> {
        let files = ["crates/core/src/udf.rs", "README.md"].map(String::from);
        check("DOC.md", text, &files, &["fig1".to_owned()])
    }

    #[test]
    fn existing_paths_pass_and_missing_ones_are_findings() {
        let found = check_doc(
            "See `crates/core/src/udf.rs:291` and `udf.rs`, then\n\
             `crates/bench/src/bin/serve_bench.rs` (gone).\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("`crates/bench/src/bin/serve_bench.rs`"));
    }

    #[test]
    fn fenced_blocks_and_targets_are_checked() {
        let found = check_doc(
            "```sh\ncargo run --bin fig1\ncargo run --bin serve_bench -- x\n```\n\
             `cargo bench --bench=operators` and `--bench <name>`\n",
        );
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 5], "{found:?}");
        assert!(found[0].message.contains("--bin serve_bench"));
        assert!(found[1].message.contains("--bench operators"));
    }

    #[test]
    fn patterns_prose_and_open_spans_are_not_paths() {
        // A glob, a placeholder, a file outside a span, and an unclosed
        // span cut off by a blank line.
        let found = check_doc(
            "`BENCH_*.json`, `<table>.<gen>.toml` and gone.rs\n\n`open gone.rs\n\nafter.rs`\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn inline_spans_run_over_lines() {
        let found = check_doc("Run `cargo run\n  --bin gone` now.\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn line_references_and_punctuation_are_stripped() {
        assert_eq!(repo_path("udf.rs:291"), Some("udf.rs"));
        assert_eq!(repo_path("cache.rs:104-163,"), Some("cache.rs"));
        assert_eq!(repo_path("(README.md)."), Some("README.md"));
        assert_eq!(repo_path("mlcs_core::udf"), None);
        assert_eq!(repo_path("a.jsonl"), None);
        assert_eq!(repo_path(".rs"), None);
    }
}
