//! The analysis passes behind `cargo xtask analyze`.
//!
//! Each pass consumes the workspace's [`ScannedFile`]s (masked,
//! inventoried source — see [`crate::scan`]) and returns [`Finding`]s.
//! A finding is a defect by definition: the driver exits non-zero when
//! any pass returns one. Informational output (inventories) is produced
//! by separate functions so "interesting" never silently becomes
//! "failing".

pub mod docs;
pub mod lock;
pub mod metric_names;
pub mod panics;
pub mod taxonomy;

use crate::scan::ScannedFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One defect reported by a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Short pass tag (`lock`, `metrics`, `taxonomy`, `panic`, `docs`, `allow`).
    pub pass: &'static str,
    /// What is wrong and what to do about it.
    pub message: String,
    /// The offending source line (may be empty for file-level findings).
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.pass, self.message)?;
        if !self.text.trim().is_empty() {
            write!(f, ": {}", self.text.trim())?;
        }
        Ok(())
    }
}

/// Whether `rel` matches any prefix-list entry. A trailing `/` marks a
/// directory subtree, a `.rs` suffix an exact file, anything else a plain
/// path prefix (so `crates/columnar/src/parallel` covers `parallel.rs`
/// and the `parallel/` submodules alike).
pub fn matches_any(rel: &Path, prefixes: &[&str]) -> bool {
    let rel = rel.to_string_lossy().replace('\\', "/");
    prefixes.iter().any(|p| {
        if p.ends_with('/') {
            rel.starts_with(p)
        } else if p.ends_with(".rs") {
            rel == *p
        } else {
            rel.starts_with(p)
        }
    })
}

/// Whether `rel` is first-party library/binary source: a crate's `src/`
/// tree or the workspace's own `src/`, excluding the analyzer itself and
/// the dependency shims (which imitate foreign APIs, not our rules).
pub fn in_src_scope(rel: &Path) -> bool {
    let rel = rel.to_string_lossy().replace('\\', "/");
    if rel.starts_with("crates/xtask") || rel.starts_with("shims/") {
        return false;
    }
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

/// Whether `text` contains `word` on identifier boundaries.
pub fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut search = 0;
    while let Some(pos) = text[search..].find(word) {
        let at = search + pos;
        search = at + 1;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        let after = at + word.len();
        let after_ok = after >= bytes.len() || {
            let b = bytes[after];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Offset of the `)` matching the `(` at `open` in `bytes`, if any.
pub fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Reports every malformed `// lint: allow(...)` marker in the workspace.
/// A marker without a non-empty parenthesized reason silently fails to
/// excuse anything, so it is itself a violation rather than a no-op.
pub fn allow_markers(files: &[ScannedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        for marker in &file.allows {
            if !marker.is_valid() {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: marker.line,
                    pass: "allow",
                    message: "malformed `lint: allow` marker — a non-empty reason in \
                              parentheses is required, e.g. `// lint: allow(startup only)`"
                        .into(),
                    text: file.raw_line(marker.line).to_owned(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_str;

    #[test]
    fn prefix_matching_modes() {
        let paths = &["crates/a/src/", "crates/b/src/lib.rs", "crates/c/src/parallel"];
        assert!(matches_any(Path::new("crates/a/src/deep/x.rs"), paths));
        assert!(matches_any(Path::new("crates/b/src/lib.rs"), paths));
        assert!(!matches_any(Path::new("crates/b/src/lib2.rs"), paths));
        assert!(matches_any(Path::new("crates/c/src/parallel.rs"), paths));
        assert!(matches_any(Path::new("crates/c/src/parallel/sub.rs"), paths));
        assert!(!matches_any(Path::new("crates/c/src/other.rs"), paths));
    }

    #[test]
    fn src_scope_excludes_analyzer_and_shims() {
        assert!(in_src_scope(Path::new("crates/columnar/src/metrics.rs")));
        assert!(in_src_scope(Path::new("src/lib.rs")));
        assert!(!in_src_scope(Path::new("crates/xtask/src/main.rs")));
        assert!(!in_src_scope(Path::new("shims/rand/src/lib.rs")));
        assert!(!in_src_scope(Path::new("tests/chaos.rs")));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("let x = Instant::now();", "Instant"));
        assert!(!contains_word("let my_instant = 1;", "Instant"));
        assert!(!contains_word("InstantReplay", "Instant"));
    }

    #[test]
    fn malformed_markers_are_findings() {
        let files = vec![scan_str(
            "a.rs",
            "x(); // lint: allow(fine)\ny(); // lint: allow()\nz(); // lint: allow\n",
        )];
        let found = allow_markers(&files);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3]);
        assert!(found.iter().all(|f| f.pass == "allow"));
    }
}
