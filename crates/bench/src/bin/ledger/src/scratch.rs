//! Scratch space beside the executable, which is to say inside the build
//! directory, so a run leaves nothing in the source tree. Every directory
//! is claimed with `create_dir` (which fails if the name is taken) and
//! retried under the next name, so concurrent runs and reused pids cannot
//! share or delete each other's files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where the ledger writes: `ledger_work/` in the directory of the
/// executable (`target/release/`, or the same under `CARGO_TARGET_DIR`).
pub fn work_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir =
        exe.parent().ok_or_else(|| std::io::Error::other("the executable has no directory"))?;
    Ok(dir.join("ledger_work"))
}

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Creates a directory under `parent` that did not exist before.
pub fn unique_dir(parent: &Path, tag: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(parent)?;
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("{tag}-{}-{n}", std::process::id()));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One run's scratch directory; removed, with everything in it, on drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Claims a fresh directory under [`work_dir`] and points `TMPDIR`
    /// at it, so library code that asks for the system temp directory
    /// (the Figure-1 environment does) also stays inside the checkout.
    /// Call before any thread starts: it changes the process environment.
    pub fn claim() -> std::io::Result<Scratch> {
        let dir = unique_dir(&work_dir()?.join("scratch"), "run")?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch { dir })
    }

    /// A fresh subdirectory.
    pub fn sub(&self, tag: &str) -> std::io::Result<PathBuf> {
        unique_dir(&self.dir, tag)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only when no other run is using the root.
        if let Some(root) = self.dir.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Total size in bytes of the regular files directly inside `dir` whose
/// names satisfy `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() && keep(&entry.file_name().to_string_lossy()) {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Size in bytes of the file at `path`, or of every regular file under
/// it when it is a directory.
pub fn tree_bytes(path: &Path) -> std::io::Result<u64> {
    let meta = path.metadata()?;
    if !meta.is_dir() {
        return Ok(meta.len());
    }
    let mut total = 0;
    for entry in std::fs::read_dir(path)? {
        total += tree_bytes(&entry?.path())?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_dirs_never_collide_and_sizes_add_up() {
        let parent = work_dir().unwrap().join(format!("scratch-test-{}", std::process::id()));
        let a = unique_dir(&parent, "t").unwrap();
        let b = unique_dir(&parent, "t").unwrap();
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("x.mlcspg"), [0u8; 10]).unwrap();
        std::fs::write(a.join("y.log"), [0u8; 5]).unwrap();
        std::fs::create_dir(a.join("sub")).unwrap();
        std::fs::write(a.join("sub").join("z"), [0u8; 3]).unwrap();
        assert_eq!(dir_bytes(&a, |n| n.ends_with(".mlcspg")).unwrap(), 10);
        assert_eq!(dir_bytes(&a, |_| true).unwrap(), 15);
        assert_eq!(tree_bytes(&a).unwrap(), 18);
        assert_eq!(tree_bytes(&a.join("y.log")).unwrap(), 5);
        std::fs::remove_dir_all(&parent).unwrap();
    }
}
