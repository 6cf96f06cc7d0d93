//! Helpers shared by the integration-test binaries (`mod common;`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp dir that this test alone owns, removed
/// with everything in it on drop (also when the test panics). Tests in one
/// binary share a pid, and a pid can repeat across runs, so the name
/// carries a process-wide counter and is claimed with `create_dir`, which
/// fails on a leftover or concurrently claimed path instead of sharing it.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Claims a fresh, empty directory whose name starts with `tag`.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return ScratchDir(dir),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("create scratch dir {}: {e}", dir.display()),
            }
        }
    }
}

/// The directory's path, so `scratch.join("db")` names a path inside it.
impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
