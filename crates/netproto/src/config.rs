//! Resilience knobs for the socket server and clients.

use std::time::Duration;

/// Timeouts, retry budget, and connection limits shared by the server and
/// both socket clients. The defaults are deliberately generous — they are
/// a safety net against hangs, not a latency target; tests and the chaos
/// harness tighten them.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// How long a client waits for `connect` to succeed.
    pub connect_timeout: Duration,
    /// Socket read deadline (`set_read_timeout`) on the client end. On
    /// the server this is the idle-connection bound: the event loops'
    /// periodic sweep closes a connection that has sat idle, with nothing
    /// pending, for this long.
    pub read_timeout: Option<Duration>,
    /// Socket write deadline (`set_write_timeout`) on both ends.
    pub write_timeout: Option<Duration>,
    /// Server-side wall-clock deadline per query; `None` = unbounded.
    /// Expiry surfaces to the client as an `Error` frame carrying the
    /// rendered `DbError::Timeout`.
    pub query_deadline: Option<Duration>,
    /// Maximum concurrently served connections. Excess clients receive a
    /// typed `Error` frame (`DbError::Rejected`) and are disconnected
    /// instead of waiting in the OS accept backlog.
    pub max_connections: usize,
    /// Number of reactor event-loop threads. Each loop owns a disjoint
    /// set of sockets; accepted connections are distributed round-robin.
    pub event_loops: usize,
    /// Admission-control quota: when this many queries are already
    /// queued or executing on the worker pool,
    /// further queries are shed with a typed `DbError::Rejected` error
    /// frame instead of growing the queue without bound.
    pub max_inflight_queries: usize,
    /// Whether clients may issue `SAVE '<dir>'` over the wire. `SAVE`
    /// writes a full snapshot to a server-side path named by the client,
    /// so it is an arbitrary-filesystem-write primitive; off by default,
    /// for deployments where every client is trusted (e.g. a local test
    /// harness). `CHECKPOINT` is unaffected — it only ever writes inside
    /// the directory the database was opened on.
    pub allow_remote_save: bool,
    /// Client-side retry budget for connect-and-query; retries apply only
    /// before the first `Schema` frame arrives (a half-consumed result is
    /// never silently replayed).
    pub retries: u32,
    /// Base delay for exponential backoff between retries.
    pub retry_base_delay: Duration,
    /// Seed for the deterministic backoff jitter, so retry schedules
    /// replay exactly in tests.
    pub retry_seed: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            query_deadline: None,
            max_connections: 4096,
            event_loops: 2,
            max_inflight_queries: 256,
            allow_remote_save: false,
            retries: 3,
            retry_base_delay: Duration::from_millis(20),
            retry_seed: 0,
        }
    }
}

/// Backoff cap: no single retry sleep exceeds this.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

impl NetConfig {
    /// The sleep before retry `attempt` (0-based): exponential backoff
    /// from `retry_base_delay` with deterministic jitter in `[0, 50%)` of
    /// the step, capped at 2s. `state` carries the jitter stream between
    /// calls; seed it with `retry_seed`.
    pub fn backoff_delay(&self, attempt: u32, state: &mut u64) -> Duration {
        let step = self
            .retry_base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(MAX_BACKOFF);
        // SplitMix64 step for the jitter bits.
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let half_step_ns = step.as_nanos() as u64 / 2;
        let jitter = if half_step_ns == 0 { 0 } else { z % half_step_ns };
        (step + Duration::from_nanos(jitter)).min(MAX_BACKOFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = NetConfig::default();
        assert!(c.read_timeout.is_some());
        // The reactor must clear the issue's 1000-concurrent-client bar
        // by default (the old thread-per-connection cap was 64).
        assert!(c.max_connections >= 1000);
        assert!(c.retries >= 1);
        assert!(c.event_loops >= 1);
        assert!(c.max_inflight_queries >= 1);
        // SAVE is an arbitrary-path write on the server; it must be
        // opt-in.
        assert!(!c.allow_remote_save);
    }

    #[test]
    fn backoff_grows_is_capped_and_replays() {
        let c = NetConfig { retry_base_delay: Duration::from_millis(10), ..NetConfig::default() };
        let mut s1 = c.retry_seed;
        let delays: Vec<Duration> = (0..12).map(|a| c.backoff_delay(a, &mut s1)).collect();
        // Exponential floor: each delay at least matches the uncapped step's
        // base, and nothing exceeds the cap.
        assert!(delays[1] >= Duration::from_millis(20));
        assert!(delays.iter().all(|&d| d <= MAX_BACKOFF));
        // Same seed, same schedule.
        let mut s2 = c.retry_seed;
        let replay: Vec<Duration> = (0..12).map(|a| c.backoff_delay(a, &mut s2)).collect();
        assert_eq!(delays, replay);
    }
}
