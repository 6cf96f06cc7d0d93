//! What the numbers were measured on: commit, CPU, core count, thread
//! setting, compiler, and a harness-measured memory bandwidth so a
//! rows-per-second figure can be read as a fraction of the machine.

use crate::clock::{secs, time};
use crate::json::Json;

/// Identity of a run's machine and build.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub git_sha: String,
    pub cpu_model: String,
    /// Data and unified caches of CPU 0, e.g. `L1 48K, L2 2048K, L3 266240K`.
    pub caches: String,
    pub nproc: usize,
    pub mlcs_threads: usize,
    pub rustc: String,
    pub mem_bw_gb_s: f64,
}

impl Fingerprint {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("git_sha", Json::str(&self.git_sha)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("caches", Json::str(&self.caches)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("mlcs_threads", Json::Num(self.mlcs_threads as f64)),
            ("rustc", Json::str(&self.rustc)),
            ("mem_bw_gb_s", Json::Num(self.mem_bw_gb_s)),
        ])
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins `MLCS_THREADS` to the core count unless the caller already set
/// it, and returns the value in force. Call before any thread starts.
pub fn pin_threads() -> usize {
    match std::env::var("MLCS_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            let n = nproc();
            std::env::set_var("MLCS_THREADS", n.to_string());
            n
        }
    }
}

pub fn fingerprint(mlcs_threads: usize) -> Fingerprint {
    Fingerprint {
        git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
        cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
        caches: caches().unwrap_or_else(|| "unknown".into()),
        nproc: nproc(),
        mlcs_threads,
        rustc: rustc_version().unwrap_or_else(|| "unknown".into()),
        mem_bw_gb_s: stream_triad_gb_s(),
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// Cache sizes as the kernel reports them for CPU 0, so that "larger than
/// L2" in a workload's description can be checked against the machine.
fn caches() -> Option<String> {
    let mut levels = Vec::new();
    for index in 0.. {
        let read = |file: &str| {
            std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/{file}"
            ))
            .map(|s| s.trim().to_owned())
        };
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        if kind != "Instruction" {
            levels.push(format!("L{level} {size}"));
        }
    }
    (!levels.is_empty()).then(|| levels.join(", "))
}

/// HEAD of the enclosing checkout, read from `.git` directly. The driver
/// runs the benchmark from an export that is not a repository; there the
/// answer is "unknown" and the driver knows the commit anyway.
fn git_sha() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc").arg("--version").output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// STREAM triad (`a[i] = b[i] + s * c[i]`) over three 32 MiB arrays, one
/// thread, best of five: the single-core memory bandwidth a scan kernel
/// can at most reach. Counts 24 bytes per element, as STREAM does.
pub fn stream_triad_gb_s() -> f64 {
    const N: usize = 4 << 20;
    let b = vec![1.0f64; N];
    let c = vec![2.0f64; N];
    let mut a = vec![0.0f64; N];
    let mut best = f64::MAX;
    for round in 0..5 {
        let s = 3.0 + round as f64;
        let ((), ns) = time(|| {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = *b + s * *c;
            }
        });
        std::hint::black_box(&a);
        best = best.min(secs(ns));
    }
    (N * 24) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_fields_are_filled() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().unwrap() > 1.0);
        assert!(stream_triad_gb_s() > 0.05);
        let fp = fingerprint(2);
        assert_eq!(fp.to_json().get("mlcs_threads").unwrap().as_f64(), Some(2.0));
    }
}
