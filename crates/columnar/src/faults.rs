//! Deterministic, seeded fault injection for resilience testing.
//!
//! The chaos suite (and any operator debugging a production incident) needs
//! failures that are *injectable on demand* and *replayable exactly*: the
//! registry here is configured from a compact spec string, draws every
//! probabilistic decision from one seeded generator, and counts each fired
//! fault in the metrics registry (`faults.injected.<point>.<kind>`), so a
//! failing run can name the schedule that produced it.
//!
//! # Spec grammar
//!
//! A spec is a comma-separated list of entries, each
//! `point:kind:prob[:nth]`:
//!
//! ```text
//! MLCS_FAULTS="net.read:err:0.01,fs.write:torn:0.05"
//! MLCS_FAULTS="net.write:err:1:1"        # fire exactly on the 1st draw
//! MLCS_FAULTS_SEED=42
//! ```
//!
//! * `point` — where the fault is considered; the injection points wired
//!   into this workspace are `net.read` / `net.write` (socket stream I/O,
//!   via [`FaultyStream`]), `fs.write` / `fs.rename` / `fs.fsync` (persist
//!   file I/O, via [`write_file_at`], [`rename`], and [`sync_file_at`]),
//!   `wal.append` / `wal.fsync` (write-ahead-log commits), `page.write`
//!   (checkpoint page files), and `pickle.decode` (model BLOB decoding in
//!   `mlcs-core`).
//! * `kind` — one of [`FaultKind`]: `err` (fail with an injected I/O
//!   error), `delay` (sleep [`DELAY`] then proceed), `short` (premature
//!   EOF on reads, partial-then-error on writes), `flip` (corrupt one
//!   byte), `torn` (write a prefix, then fail — the classic torn write).
//! * `prob` — probability in `[0, 1]` that a matching draw fires.
//! * `nth` — optional; when present the entry is *deterministic* instead
//!   of probabilistic: it fires exactly on the `nth` (1-based) matching
//!   draw and never again. Used by tests that must kill an operation at
//!   one precise point.
//!
//! # Determinism
//!
//! All draws come from one SplitMix64 generator behind a mutex, so a fixed
//! seed fixes the entire decision *sequence*. Single-threaded drivers
//! replay exactly; multi-threaded drivers (server + client in one process)
//! still draw from the one deterministic stream, but thread interleaving
//! decides which call site sees which draw — chaos tests therefore assert
//! invariants (typed errors, byte-identical retried results), never exact
//! fault timelines.
//!
//! Injection is disabled by default and the hot-path cost of a disabled
//! registry is one relaxed atomic load. The environment variables are read
//! once, on first use; programmatic [`configure`]/[`clear`] override them.

use crate::metrics;
use crate::parallel::locks::Mutex;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// How long a `delay` fault sleeps before letting the operation proceed.
pub const DELAY: Duration = Duration::from_millis(5);

/// The failure mode of one fault entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with an injected I/O error before touching the resource.
    Err,
    /// Sleep [`DELAY`], then proceed normally.
    Delay,
    /// Reads: premature EOF (`Ok(0)`). Writes: write a prefix, then fail.
    Short,
    /// Corrupt one byte of the buffer (reads: after reading; writes:
    /// before writing — the full length still transfers).
    Flip,
    /// Write a prefix of the buffer, then fail — a torn write. On reads
    /// and renames this behaves like `short`/`err` respectively.
    Torn,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "err" => FaultKind::Err,
            "delay" => FaultKind::Delay,
            "short" => FaultKind::Short,
            "flip" => FaultKind::Flip,
            "torn" => FaultKind::Torn,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            FaultKind::Err => "err",
            FaultKind::Delay => "delay",
            FaultKind::Short => "short",
            FaultKind::Flip => "flip",
            FaultKind::Torn => "torn",
        }
    }
}

/// One parsed spec entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Injection point this entry applies to (exact match).
    pub point: String,
    /// What happens when the entry fires.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that a matching draw fires (ignored when
    /// `nth` is set).
    pub prob: f64,
    /// When set, fire exactly on this (1-based) matching draw, once.
    pub nth: Option<u64>,
}

/// A fired fault: the kind to apply plus auxiliary randomness (byte
/// positions, xor masks) drawn from the same seeded stream.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// The failure mode to apply.
    pub kind: FaultKind,
    /// Auxiliary random bits for the applier (e.g. which byte to flip).
    pub rand: u64,
}

/// Parses a fault spec string (see the module docs for the grammar).
pub fn parse_spec(spec: &str) -> Result<Vec<FaultSpec>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let parts: Vec<&str> = entry.split(':').collect();
        if parts.len() < 3 || parts.len() > 4 {
            // lint: allow(configure-time spec parse, not a query path)
            return Err(format!("bad fault entry '{entry}': expected point:kind:prob[:nth]"));
        }
        let kind = FaultKind::parse(parts[1])
            .ok_or_else(|| format!("bad fault kind '{}' in '{entry}'", parts[1]))?;
        let prob: f64 = parts[2]
            .parse()
            .map_err(|_| format!("bad fault probability '{}' in '{entry}'", parts[2]))?;
        if !(0.0..=1.0).contains(&prob) {
            // lint: allow(configure-time spec parse, not a query path)
            return Err(format!("fault probability {prob} outside [0, 1] in '{entry}'"));
        }
        let nth = match parts.get(3) {
            None => None,
            Some(n) => Some(
                n.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad nth '{n}' in '{entry}' (1-based integer)"))?,
            ),
        };
        out.push(FaultSpec { point: parts[0].to_owned(), kind, prob, nth });
    }
    Ok(out)
}

/// SplitMix64: tiny, seedable, and good enough for fault schedules.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Maps 64 random bits to `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One spec entry plus its per-point draw counter (for `nth` entries).
#[derive(Debug)]
struct Armed {
    spec: FaultSpec,
    draws: u64,
}

#[derive(Debug, Default)]
struct Injector {
    entries: Vec<Armed>,
    rng: Option<SplitMix64>,
}

/// Fast-path flag. `UNINIT` until the first query forces the one-time
/// `MLCS_FAULTS` environment read; `ARMED`/`DISARMED` after. The disarmed
/// steady state is a single relaxed load.
static STATE: AtomicU8 = AtomicU8::new(UNINIT);
const UNINIT: u8 = 0;
const DISARMED: u8 = 1;
const ARMED: u8 = 2;

/// Resolves the fast-path state, running the environment arming exactly
/// once process-wide on the first call.
fn state() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s != UNINIT {
        return s;
    }
    injector();
    STATE.load(Ordering::Relaxed)
}

fn injector() -> &'static Mutex<Injector> {
    static INJECTOR: OnceLock<Mutex<Injector>> = OnceLock::new();
    INJECTOR.get_or_init(|| {
        let mut inj = Injector::default();
        let mut state = DISARMED;
        if let Ok(spec) = std::env::var("MLCS_FAULTS") {
            match parse_spec(&spec) {
                Ok(specs) if !specs.is_empty() => {
                    let seed = std::env::var("MLCS_FAULTS_SEED")
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    inj.entries = specs.into_iter().map(|spec| Armed { spec, draws: 0 }).collect();
                    inj.rng = Some(SplitMix64(seed));
                    state = ARMED;
                }
                Ok(_) => {}
                Err(e) => eprintln!("MLCS_FAULTS ignored: {e}"),
            }
        }
        STATE.store(state, Ordering::Relaxed);
        Mutex::new(inj)
    })
}

fn lock() -> std::sync::MutexGuard<'static, Injector> {
    injector().lock()
}

/// Arms the injector with `specs`, seeding the decision stream with `seed`.
/// Replaces any previous (or environment-derived) configuration.
pub fn configure(specs: Vec<FaultSpec>, seed: u64) {
    let mut inj = lock();
    STATE.store(if specs.is_empty() { DISARMED } else { ARMED }, Ordering::Relaxed);
    inj.entries = specs.into_iter().map(|spec| Armed { spec, draws: 0 }).collect();
    inj.rng = Some(SplitMix64(seed));
}

/// Parses `spec` and arms the injector. Convenience for tests and the
/// chaos harness.
pub fn configure_str(spec: &str, seed: u64) -> Result<(), String> {
    configure(parse_spec(spec)?, seed);
    Ok(())
}

/// Disarms the injector entirely (also overriding `MLCS_FAULTS`).
pub fn clear() {
    configure(Vec::new(), 0);
}

/// Whether any fault entry is currently armed.
pub fn enabled() -> bool {
    state() == ARMED
}

/// Draws a fault decision for `point`. Returns the fault to apply, or
/// `None` (the overwhelmingly common case). Every fired fault increments
/// the `faults.injected.<point>.<kind>` counter.
pub fn decide(point: &str) -> Option<Fault> {
    if state() != ARMED {
        return None;
    }
    let mut inj = lock();
    let mut fired: Option<Fault> = None;
    // Split borrow: walk entries by index so the rng can be borrowed too.
    for i in 0..inj.entries.len() {
        if inj.entries[i].spec.point != point {
            continue;
        }
        inj.entries[i].draws += 1;
        let draws = inj.entries[i].draws;
        let (kind, prob, nth) =
            (inj.entries[i].spec.kind, inj.entries[i].spec.prob, inj.entries[i].spec.nth);
        let fires = match nth {
            Some(nth) => draws == nth,
            None => inj.rng.get_or_insert(SplitMix64(0)).unit() < prob,
        };
        if fires && fired.is_none() {
            let rand = inj.rng.get_or_insert(SplitMix64(0)).next();
            metrics::counter(&format!("faults.injected.{point}.{}", kind.name())).incr();
            fired = Some(Fault { kind, rand });
        }
    }
    fired
}

/// The `io::Error` an injected `err` fault produces.
pub fn injected_io_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {point}"))
}

/// Xors one byte of `buf` with a non-zero mask derived from `rand`.
fn flip_byte(buf: &mut [u8], rand: u64) {
    if buf.is_empty() {
        return;
    }
    let pos = (rand as usize) % buf.len();
    let mask = 1 + ((rand >> 17) % 255) as u8;
    buf[pos] ^= mask;
}

/// Consults `point` without touching any resource: a fired non-`delay`
/// fault becomes an injected error, a `delay` sleeps then proceeds. For
/// operations with no buffer to tear or flip (fsync, directory sync),
/// where every destructive kind degenerates to "the call failed".
pub fn check_point(point: &str) -> std::io::Result<()> {
    match decide(point) {
        None => Ok(()),
        Some(f) => match f.kind {
            FaultKind::Delay => {
                std::thread::sleep(DELAY);
                Ok(())
            }
            _ => Err(injected_io_error(point)),
        },
    }
}

/// Writes the whole buffer to `file`, honoring any armed fault at `point`:
/// `err` fails before touching the file, `short`/`torn` write half the
/// buffer (synced, so the torn prefix survives a crash) then fail, `flip`
/// corrupts one byte but reports success, `delay` stalls then proceeds.
/// Shared by the snapshot writer (`page.write` for page files, `fs.write`
/// for the manifest) and the write-ahead log (`wal.append`).
pub fn write_file_at(point: &str, file: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
    match decide(point) {
        None => file.write_all(buf),
        Some(f) => match f.kind {
            FaultKind::Err => Err(injected_io_error(point)),
            FaultKind::Delay => {
                std::thread::sleep(DELAY);
                file.write_all(buf)
            }
            FaultKind::Short | FaultKind::Torn => {
                let cut = buf.len() / 2;
                file.write_all(&buf[..cut])?;
                let _ = file.sync_all();
                Err(injected_io_error(point))
            }
            FaultKind::Flip => {
                let mut copy = buf.to_vec();
                flip_byte(&mut copy, f.rand);
                file.write_all(&copy)
            }
        },
    }
}

/// Fsyncs `file`, honoring any armed fault at `point` (every non-`delay`
/// kind fails the sync — there is no buffer to tear or flip).
pub fn sync_file_at(point: &str, file: &std::fs::File) -> std::io::Result<()> {
    check_point(point)?;
    file.sync_all()
}

/// A stream wrapper that consults the injector on every read (`net.read`)
/// and write (`net.write`). Wrap both halves of a socket to exercise
/// errors, delays, premature EOFs, torn writes, and flipped bytes without
/// touching the protocol code.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> FaultyStream<S> {
        FaultyStream { inner }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Unwraps the stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match decide("net.read") {
            None => self.inner.read(buf),
            Some(f) => match f.kind {
                FaultKind::Err => Err(injected_io_error("net.read")),
                FaultKind::Delay => {
                    std::thread::sleep(DELAY);
                    self.inner.read(buf)
                }
                // A premature EOF: the peer "hung up" mid-frame.
                FaultKind::Short | FaultKind::Torn => Ok(0),
                FaultKind::Flip => {
                    let n = self.inner.read(buf)?;
                    flip_byte(&mut buf[..n], f.rand);
                    Ok(n)
                }
            },
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match decide("net.write") {
            None => self.inner.write(buf),
            Some(f) => match f.kind {
                FaultKind::Err => Err(injected_io_error("net.write")),
                FaultKind::Delay => {
                    std::thread::sleep(DELAY);
                    self.inner.write(buf)
                }
                // Push a prefix onto the wire, then fail: the peer sees a
                // torn frame, the caller sees an error.
                FaultKind::Short | FaultKind::Torn => {
                    if buf.len() > 1 {
                        let _ = self.inner.write(&buf[..buf.len() / 2]);
                        let _ = self.inner.flush();
                    }
                    Err(injected_io_error("net.write"))
                }
                FaultKind::Flip => {
                    let mut copy = buf.to_vec();
                    flip_byte(&mut copy, f.rand);
                    self.inner.write(&copy)
                }
            },
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Renames `from` to `to`, honoring any armed `fs.rename` fault (every
/// non-`delay` kind fails the rename, leaving `from` in place).
pub fn rename(from: &Path, to: &Path) -> std::io::Result<()> {
    match decide("fs.rename") {
        None => std::fs::rename(from, to),
        Some(f) => match f.kind {
            FaultKind::Delay => {
                std::thread::sleep(DELAY);
                std::fs::rename(from, to)
            }
            _ => Err(injected_io_error("fs.rename")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock as TestOnce;

    /// The injector is process-global; tests that arm it serialize here.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static G: TestOnce<Mutex<()>> = TestOnce::new();
        G.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn spec_parses_and_rejects() {
        let specs = parse_spec("net.read:err:0.01,fs.write:torn:0.05").unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].point, "net.read");
        assert_eq!(specs[0].kind, FaultKind::Err);
        assert_eq!(specs[1].kind, FaultKind::Torn);
        assert_eq!(specs[1].nth, None);
        let specs = parse_spec("net.write:err:1:3").unwrap();
        assert_eq!(specs[0].nth, Some(3));
        assert!(parse_spec("net.read:err").is_err());
        assert!(parse_spec("net.read:zap:0.5").is_err());
        assert!(parse_spec("net.read:err:1.5").is_err());
        assert!(parse_spec("net.read:err:1:0").is_err());
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn seeded_decisions_replay_exactly() {
        let _g = guard();
        let run = |seed: u64| -> Vec<bool> {
            configure(parse_spec("p:err:0.5").unwrap(), seed);
            (0..64).map(|_| decide("p").is_some()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        clear();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f), "p=0.5 mixes outcomes");
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _g = guard();
        configure(parse_spec("p:err:1:3").unwrap(), 0);
        let fired: Vec<bool> = (0..6).map(|_| decide("p").is_some()).collect();
        clear();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn disabled_injector_is_silent() {
        let _g = guard();
        clear();
        assert!(!enabled());
        assert!(decide("net.read").is_none());
    }

    #[test]
    fn faulty_stream_injects_errors_and_eof() {
        let _g = guard();
        configure(parse_spec("net.read:err:1:1,net.read:short:1:2").unwrap(), 0);
        let data = vec![1u8, 2, 3, 4];
        let mut s = FaultyStream::new(data.as_slice());
        let mut buf = [0u8; 4];
        assert!(s.read(&mut buf).is_err(), "first read errors");
        assert_eq!(s.read(&mut buf).unwrap(), 0, "second read is a premature EOF");
        assert_eq!(s.read(&mut buf).unwrap(), 4, "then reads flow again");
        clear();
    }

    #[test]
    fn faulty_stream_torn_write_pushes_prefix() {
        let _g = guard();
        configure(parse_spec("net.write:torn:1:1").unwrap(), 0);
        let mut sink: Vec<u8> = Vec::new();
        {
            let mut s = FaultyStream::new(&mut sink);
            assert!(s.write(&[9u8; 8]).is_err(), "torn write reports an error");
        }
        clear();
        assert_eq!(sink.len(), 4, "half the buffer reached the wire");
    }

    #[test]
    fn faulty_file_torn_write_leaves_prefix() {
        let _g = guard();
        let dir = std::env::temp_dir().join(format!("mlcs_faults_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.bin");
        configure(parse_spec("fs.write:torn:1:1").unwrap(), 0);
        let mut f = std::fs::File::create(&path).unwrap();
        assert!(write_file_at("fs.write", &mut f, &[7u8; 10]).is_err());
        clear();
        assert_eq!(std::fs::read(&path).unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rename_fault_leaves_source() {
        let _g = guard();
        let dir = std::env::temp_dir().join(format!("mlcs_faults_rn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let from = dir.join("a.tmp");
        let to = dir.join("a");
        std::fs::write(&from, b"x").unwrap();
        configure(parse_spec("fs.rename:err:1:1").unwrap(), 0);
        assert!(rename(&from, &to).is_err());
        clear();
        assert!(from.exists() && !to.exists());
        rename(&from, &to).unwrap();
        assert!(to.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_fault_fails_sync_not_write() {
        let _g = guard();
        let dir = std::env::temp_dir().join(format!("mlcs_faults_fs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synced.bin");
        configure(parse_spec("fs.fsync:err:1:1").unwrap(), 0);
        let mut f = std::fs::File::create(&path).unwrap();
        write_file_at("fs.write", &mut f, b"payload").unwrap();
        assert!(sync_file_at("fs.fsync", &f).is_err(), "first fsync injected");
        assert!(sync_file_at("fs.fsync", &f).is_ok(), "nth=1 fires once");
        clear();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload", "data reached the file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fired_faults_are_counted() {
        let _g = guard();
        let before = crate::metrics::snapshot();
        configure(parse_spec("countme:err:1:1").unwrap(), 0);
        assert!(decide("countme").is_some());
        clear();
        let delta = crate::metrics::snapshot().since(&before);
        assert_eq!(delta.counter("faults.injected.countme.err"), 1);
    }
}
