//! Lock-discipline pass.
//!
//! The pool hot paths (`columnar::parallel` and its submodules, the
//! metrics registry, the model/matrix caches, and the network server)
//! follow one rule: **hold at most one lock at a time**. Every
//! lock-ordering deadlock needs two held locks, so enforcing single-lock
//! scopes statically makes the runtime lock-order tracker's job
//! vacuous in release builds — which is the point.
//!
//! Three checks:
//!
//! 1. **No lock acquired while another is held** in pool hot paths. The
//!    sweep tracks named guards (`let g = x.lock();`), header guards
//!    (`if let … = x.lock()… {`, whose temporary lives to the end of the
//!    block), explicit `drop(g)`, and block scope, all on masked text.
//! 2. **No blocking calls inside `run_task_loop`** — the claim loop every
//!    pool worker and every caller runs. Channel receives, sleeps, and
//!    file I/O there stall the whole pool; the only lock it may touch is
//!    the per-morsel result slot.
//! 3. A workspace-wide **primitive inventory** (informational): where
//!    `Mutex`/`RwLock`/`Condvar`/`mpsc` appear, so new shared state is
//!    visible in review.

use super::{contains_word, matches_any, Finding};
use crate::scan::ScannedFile;

/// Modules that must follow single-lock discipline: the worker pool and
/// its companions, the metrics registry the pool ticks from its hot
/// loops, the caches the executor hits per query, the server, and the
/// encoding builders / fused-kernel compiler that morsel workers run
/// per slice.
pub const POOL_HOT_PATHS: &[&str] = &[
    "crates/columnar/src/encoding.rs",
    "crates/columnar/src/expr/fuse.rs",
    "crates/columnar/src/parallel",
    "crates/columnar/src/metrics.rs",
    "crates/columnar/src/page.rs",
    "crates/columnar/src/persist.rs",
    "crates/columnar/src/stats.rs",
    "crates/columnar/src/wal.rs",
    "crates/core/src/cache.rs",
    "crates/netproto/src/",
];

/// Lock-acquisition tokens. Exact empty-arg calls so `write(buf)` (I/O)
/// and `try_lock()` (non-blocking) do not count.
const ACQUIRE: &[&str] = &[".lock()", ".read()", ".write()"];

/// Tokens that block the calling thread, forbidden inside the claim loop.
const BLOCKING_IN_TASK_LOOP: &[&str] = &["recv(", "recv_timeout(", "sleep(", "File::", "std::fs"];

/// A guard currently live during the sweep.
struct Guard {
    /// Binding name, or `<header>` for an `if let`/`while`/`match`
    /// scrutinee temporary.
    name: String,
    /// Brace depth the guard lives at; it dies when depth drops below.
    depth: i32,
    line: usize,
}

pub fn run(files: &[ScannedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if !matches_any(&file.rel, POOL_HOT_PATHS) {
            continue;
        }
        sweep_guards(file, &mut out);
        check_task_loop(file, &mut out);
    }
    out
}

/// First acquisition token on `line`, with the count of all of them.
fn acquisitions(line: &str) -> (Option<usize>, usize) {
    let mut first = None;
    let mut count = 0;
    for tok in ACQUIRE {
        let mut search = 0;
        while let Some(pos) = line[search..].find(tok) {
            let at = search + pos;
            search = at + tok.len();
            count += 1;
            if first.is_none_or(|f| at < f) {
                first = Some(at);
            }
        }
    }
    (first, count)
}

/// The binding name when `line` is a plain guard binding
/// (`let [mut] name = <expr>.lock();` with nothing chained after).
fn guard_binding(line: &str, acq_at: usize) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if name.is_empty() || name == "_" {
        return None;
    }
    // Anything chained after the acquisition (e.g. `.recv();`,
    // `.iter()…`) makes the guard a statement temporary, not a binding.
    let after_acq = &line[acq_at..];
    let tail =
        ACQUIRE.iter().find_map(|tok| after_acq.strip_prefix(tok)).unwrap_or(after_acq).trim();
    if tail == ";" {
        Some(name)
    } else {
        None
    }
}

/// Whether `line` is a block header (`if let`, `while let`, `for`,
/// `match`) whose scrutinee temporary — including a lock guard — lives
/// until the block closes.
fn is_header(line: &str) -> bool {
    let t = line.trim_start();
    (t.starts_with("if ")
        || t.starts_with("while ")
        || t.starts_with("for ")
        || t.starts_with("match ")
        || t.starts_with("} else if "))
        && line.trim_end().ends_with('{')
}

fn sweep_guards(file: &ScannedFile, out: &mut Vec<Finding>) {
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    for (idx, line) in file.masked.lines().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            // Keep depth bookkeeping honest through test modules.
            depth += brace_delta(line);
            continue;
        }
        let (first_acq, acq_count) = acquisitions(line);
        if let Some(acq_at) = first_acq {
            if !file.line_allowed(lineno) {
                if let Some(held) = guards.last() {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line: lineno,
                        pass: "lock",
                        message: format!(
                            "lock acquired while guard `{}` (line {}) is still held — pool \
                             hot paths hold at most one lock at a time",
                            held.name, held.line
                        ),
                        text: file.raw_line(lineno).to_owned(),
                    });
                } else if acq_count >= 2 {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line: lineno,
                        pass: "lock",
                        message: "two locks acquired in one expression — pool hot paths \
                                  hold at most one lock at a time"
                            .into(),
                        text: file.raw_line(lineno).to_owned(),
                    });
                }
            }
            if let Some(name) = guard_binding(line, acq_at) {
                guards.push(Guard { name, depth, line: lineno });
            } else if is_header(line) {
                guards.push(Guard { name: "<header>".into(), depth: depth + 1, line: lineno });
            }
        }
        // Explicit early release.
        for g in std::mem::take(&mut guards) {
            let dropped = line.contains(&format!("drop({})", g.name))
                || line.contains(&format!("drop({});", g.name));
            if !dropped {
                guards.push(g);
            }
        }
        depth += brace_delta(line);
        guards.retain(|g| depth >= g.depth);
    }
}

fn brace_delta(line: &str) -> i32 {
    line.bytes()
        .map(|b| match b {
            b'{' => 1,
            b'}' => -1,
            _ => 0,
        })
        .sum()
}

/// Bans blocking calls inside `run_task_loop`, the morsel claim loop.
fn check_task_loop(file: &ScannedFile, out: &mut Vec<Finding>) {
    for f in &file.fns {
        if f.name != "run_task_loop" {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        for lineno in start..=end {
            if file.is_test_line(lineno) || file.line_allowed(lineno) {
                continue;
            }
            let line = file.masked_line(lineno).to_owned();
            for tok in BLOCKING_IN_TASK_LOOP {
                if line.contains(tok) {
                    out.push(Finding {
                        file: file.rel.clone(),
                        line: lineno,
                        pass: "lock",
                        message: format!(
                            "blocking call `{tok}` inside run_task_loop — the claim loop \
                             runs on every pool worker and must stay non-blocking"
                        ),
                        text: file.raw_line(lineno).to_owned(),
                    });
                }
            }
            if line.contains(".lock()") && !line.contains("slots[") {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: lineno,
                    pass: "lock",
                    message: "lock acquired inside run_task_loop — only the per-morsel \
                              result slot may be locked in the claim loop"
                        .into(),
                    text: file.raw_line(lineno).to_owned(),
                });
            }
        }
    }
}

/// Informational inventory: which files mention which synchronization
/// primitives (word-boundary, masked, non-test), so new shared state is
/// visible in review. The shims (which *define* the primitives) and the
/// analyzer are excluded.
pub fn inventory(files: &[ScannedFile]) -> Vec<String> {
    const PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "mpsc"];
    let mut out = Vec::new();
    for file in files {
        let rel = file.rel.to_string_lossy().replace('\\', "/");
        if rel.starts_with("shims/") || rel.starts_with("crates/xtask") {
            continue;
        }
        let mut counts = [0usize; 4];
        for (idx, line) in file.masked.lines().enumerate() {
            if file.is_test_line(idx + 1) {
                continue;
            }
            for (slot, prim) in PRIMITIVES.iter().enumerate() {
                if contains_word(line, prim) {
                    counts[slot] += 1;
                }
            }
        }
        if counts.iter().any(|&c| c > 0) {
            let parts: Vec<String> = PRIMITIVES
                .iter()
                .zip(counts)
                .filter(|(_, c)| *c > 0)
                .map(|(p, c)| format!("{p}\u{d7}{c}"))
                .collect();
            out.push(format!("{rel}: {}", parts.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_str;

    fn run_on(rel: &str, src: &str) -> Vec<Finding> {
        run(&[scan_str(rel, src)])
    }

    const POOL_FILE: &str = "crates/columnar/src/parallel/x.rs";

    #[test]
    fn nested_acquisition_flagged() {
        let src = "fn f() {\n    let g = a.lock();\n    let h = b.lock();\n}\n";
        let found = run_on(POOL_FILE, src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`g`"));
    }

    #[test]
    fn sequential_scopes_clean() {
        let src = "fn f() {\n    {\n        let g = a.lock();\n    }\n    let h = b.lock();\n}\n";
        assert!(run_on(POOL_FILE, src).is_empty());
    }

    #[test]
    fn statement_temporaries_clean() {
        // Chained guards die at the end of their own statement.
        let src = "fn f() {\n    let n = a.lock().len();\n    let m = b.lock().len();\n}\n";
        assert!(run_on(POOL_FILE, src).is_empty());
    }

    #[test]
    fn explicit_drop_releases() {
        let src = "fn f() {\n    let g = a.lock();\n    drop(g);\n    let h = b.lock();\n}\n";
        assert!(run_on(POOL_FILE, src).is_empty());
    }

    #[test]
    fn header_guard_spans_block() {
        let src = "fn f() {\n    if let Some(v) = a.lock().get(k) {\n        let g = b.lock();\n    }\n}\n";
        let found = run_on(POOL_FILE, src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn double_lock_one_expression_flagged() {
        let src = "fn f() {\n    let n = a.lock().merge(&b.lock());\n}\n";
        let found = run_on(POOL_FILE, src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("one expression"));
    }

    #[test]
    fn allow_marker_excuses() {
        let src = "fn f() {\n    let g = a.lock();\n    let h = b.lock(); // lint: allow(b is a leaf lock, ordered after a everywhere)\n}\n";
        assert!(run_on(POOL_FILE, src).is_empty());
    }

    #[test]
    fn non_hot_path_ignored() {
        let src = "fn f() {\n    let g = a.lock();\n    let h = b.lock();\n}\n";
        assert!(run_on("crates/columnar/src/sql/binder.rs", src).is_empty());
    }

    #[test]
    fn test_code_ignored() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let g = a.lock();\n        let h = b.lock();\n    }\n}\n";
        assert!(run_on(POOL_FILE, src).is_empty());
    }

    #[test]
    fn blocking_in_task_loop_flagged() {
        let src = "fn run_task_loop() {\n    loop {\n        let j = q.recv();\n        std::thread::sleep(d);\n        state.lock().poke();\n        *slots[i].lock() = Some(r);\n    }\n}\n";
        let found = run_on(POOL_FILE, src);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert!(lines.contains(&3), "recv flagged: {found:?}");
        assert!(lines.contains(&4), "sleep flagged: {found:?}");
        assert!(lines.contains(&5), "non-slot lock flagged: {found:?}");
        assert!(!found.iter().any(|f| f.line == 6), "slot write allowed: {found:?}");
    }

    #[test]
    fn inventory_counts_primitives() {
        let files = vec![
            scan_str("crates/a/src/x.rs", "use std::sync::Mutex;\nstatic M: Mutex<u8> = m();\n"),
            scan_str("shims/parking_lot/src/lib.rs", "pub struct Mutex<T> { t: T }\n"),
        ];
        let inv = inventory(&files);
        assert_eq!(inv.len(), 1, "{inv:?}");
        assert!(inv[0].starts_with("crates/a/src/x.rs"));
        assert!(inv[0].contains("Mutex\u{d7}2"));
    }
}
