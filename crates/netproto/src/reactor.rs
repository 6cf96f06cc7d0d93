//! The multiplexed serving path: a readiness reactor over [`crate::epoll`].
//!
//! A small, fixed number of event-loop threads own every client socket.
//! Each loop runs `epoll_wait` → dispatch: readable sockets are drained
//! into per-connection read buffers and complete `Query` frames are
//! handed to the shared `mlcs_columnar::parallel` morsel pool as
//! fire-and-forget jobs; completed results come back through a mailbox +
//! wake-pipe and are streamed out through per-connection write buffers.
//! Event loops therefore never block on query execution, and query
//! workers never touch sockets.
//!
//! **Backpressure**: result batches are encoded into the connection's
//! output buffer at most [`WRITE_HIGH_WATERMARK`] bytes ahead of the
//! socket, with `EPOLLOUT` interest toggled on exactly while bytes are
//! pending — a slow reader costs one bounded buffer, not memory
//! proportional to its result set. While output is pending (or a query is
//! executing) the loop does not read further queries from that socket, so
//! a client cannot pipeline itself into unbounded server-side state.
//!
//! **Admission control**: a query is admitted only while fewer than
//! `max_inflight_queries` queries are queued-or-executing on the pool;
//! excess load is shed immediately with a typed `DbError::Rejected` error
//! frame (`netproto.evloop.shed`). An admitted query's `query_deadline`
//! budget starts at admission, so time spent waiting for a pool worker
//! counts against it and a saturated server times out queued work instead
//! of serving arbitrarily stale answers.

use crate::config::NetConfig;
use crate::epoll::{wake_pipe, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::framing::{decode_query, encode_schema, write_frame, Encoding, FrameKind, MAX_FRAME};
use crate::server::{encode_rows_frame, panic_message, reject_stream};
use mlcs_columnar::faults::FaultyStream;
use mlcs_columnar::{metrics, Batch, Database, DbError, DbResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes of encoded-but-unsent output a connection may buffer before the
/// loop stops encoding further row frames for it.
const WRITE_HIGH_WATERMARK: usize = 256 * 1024;
/// Upper bound on one `epoll_wait`; doubles as the stop-flag poll period
/// and the idle-sweep cadence.
const WAIT_MS: i32 = 50;
/// Epoll token of the loop's wake pipe.
const WAKE_TOKEN: u64 = 0;
/// Epoll token of the listener (loop 0 only).
const LISTENER_TOKEN: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Readiness notifications drained per `epoll_wait`.
const MAX_EVENTS: usize = 256;
/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// State shared by every event loop and the handle.
struct Shared {
    config: NetConfig,
    db: Database,
    stop: AtomicBool,
    /// Queries queued-or-executing on the worker pool (admission signal).
    inflight: AtomicUsize,
    /// Connections currently owned by any loop (capacity signal).
    active: AtomicUsize,
}

/// How a query handed to the pool ended.
enum Outcome {
    /// A result set to stream back.
    Batch(Batch),
    /// A typed error to report in an `Error` frame.
    Failed(DbError),
}

/// Cross-thread message into an event loop.
enum Msg {
    /// A freshly accepted socket for this loop to own.
    Adopt(TcpStream),
    /// Query completion for the connection with this token.
    Done(u64, Outcome),
}

/// An event loop's inbox plus the pipe that wakes its `epoll_wait`.
struct Mailbox {
    inbox: Mutex<Vec<Msg>>,
    wake: Mutex<File>,
}

impl Mailbox {
    fn post(&self, msg: Msg) {
        self.inbox.lock().push(msg);
        self.wake();
    }

    fn wake(&self) {
        // Rust ignores SIGPIPE, so a write after the loop has exited (read
        // end closed) fails with EPIPE instead of killing the process —
        // exactly what shutdown wants.
        let mut pipe = self.wake.lock();
        let _ = pipe.write_all(&[1]);
    }
}

/// Takes everything currently in the inbox.
fn take_inbox(mailbox: &Mailbox) -> Vec<Msg> {
    std::mem::take(&mut *mailbox.inbox.lock())
}

/// Where a connection is in its request/response cycle.
enum ConnState {
    /// Waiting for the next `Query` frame.
    Idle,
    /// A query is on the worker pool; remembers the requested encoding.
    Executing { encoding: Encoding },
    /// Streaming a result batch into the output buffer.
    Streaming { batch: Batch, encoding: Encoding, next_row: usize },
}

/// Per-connection output buffer: encoded frames awaiting the socket.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// One client connection owned by an event loop.
struct Conn {
    stream: FaultyStream<TcpStream>,
    fd: RawFd,
    read_buf: Vec<u8>,
    out: OutBuf,
    state: ConnState,
    interest: u32,
    last_activity: Instant,
    /// Close once the output buffer drains (framing sync lost).
    fatal: bool,
}

/// One event-loop thread's state.
struct EventLoop {
    epoll: Epoll,
    wake_rx: File,
    mailbox: Arc<Mailbox>,
    shared: Arc<Shared>,
    /// Present on loop 0 only: the accepting listener.
    listener: Option<TcpListener>,
    /// Every loop's mailbox, for round-robin adoption of accepted sockets.
    peers: Vec<Arc<Mailbox>>,
    next_peer: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

/// Splits one complete frame off the front of `buf`, mirroring
/// `framing::read_frame`'s validation and metrics; `Ok(None)` means more
/// bytes are needed.
fn take_frame(buf: &mut Vec<u8>) -> DbResult<Option<(FrameKind, Vec<u8>)>> {
    if buf.len() < 5 {
        return Ok(None);
    }
    let kind = FrameKind::from_byte(buf[0])?;
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
    if len > MAX_FRAME {
        return Err(DbError::Corrupt(format!("frame of {len} bytes exceeds the cap")));
    }
    if buf.len() < 5 + len {
        return Ok(None);
    }
    let payload = buf[5..5 + len].to_vec();
    buf.drain(..5 + len);
    metrics::counter("netproto.frames_received").incr();
    metrics::counter("netproto.bytes_received").add((5 + len) as u64);
    Ok(Some((kind, payload)))
}

/// Runs one admitted query on a pool worker: deadline budget (started at
/// admission), panic isolation, typed errors.
fn run_query(db: &Database, sql: &str, deadline: Option<Duration>, admitted: Instant) -> Outcome {
    let budget = match deadline {
        Some(d) => {
            let waited = admitted.elapsed();
            if waited >= d {
                // Shed stale queued work instead of executing it.
                return Outcome::Failed(DbError::Timeout { path: "evloop.admission".into() });
            }
            Some(d - waited)
        }
        None => None,
    };
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match budget {
        Some(d) => db.execute_with_timeout(sql, d),
        None => db.execute(sql),
    }));
    match executed {
        Err(panic) => {
            metrics::counter("netproto.panics_caught").incr();
            Outcome::Failed(DbError::Internal(format!(
                "query panicked: {}",
                panic_message(panic.as_ref())
            )))
        }
        Ok(Err(e)) => Outcome::Failed(e),
        Ok(Ok(result)) => Outcome::Batch(result.into_batch()),
    }
}

/// Appends an `Error` frame for `e` to the connection's output buffer,
/// ticking the matching serving metric.
fn queue_error(conn: &mut Conn, e: &DbError) {
    if matches!(e, DbError::Timeout { .. }) {
        metrics::counter("netproto.timeouts").incr();
    }
    if matches!(e, DbError::Rejected(_)) {
        metrics::counter("netproto.evloop.shed").incr();
    }
    let _ = write_frame(&mut conn.out.buf, FrameKind::Error, e.to_string().as_bytes());
}

/// Encodes pending result rows into the output buffer, up to the write
/// high-watermark; emits the `Done` frame and returns the connection to
/// `Idle` when the batch is exhausted, or an `Error` frame when a row is
/// too long to send.
fn fill_stream(conn: &mut Conn) {
    loop {
        let ConnState::Streaming { batch, encoding, next_row } = &mut conn.state else {
            return;
        };
        if conn.out.pending() >= WRITE_HIGH_WATERMARK {
            return;
        }
        if *next_row >= batch.rows() {
            let rows = batch.rows() as u64;
            let _ = write_frame(&mut conn.out.buf, FrameKind::Done, &rows.to_le_bytes());
            metrics::counter("netproto.server.queries").incr();
            conn.state = ConnState::Idle;
            return;
        }
        // Encoded in place, straight into the output buffer.
        match encode_rows_frame(batch, *next_row, *encoding, &mut conn.out.buf) {
            Ok(rows) => *next_row += rows,
            Err(e) => {
                // A row no frame can hold: the result ends with a typed
                // error, and the connection serves its next query.
                queue_error(conn, &e);
                conn.state = ConnState::Idle;
                return;
            }
        }
    }
}

/// Writes buffered output to the socket until it drains or would block.
/// An `Err` means the connection is beyond saving.
fn flush_out(conn: &mut Conn) -> std::io::Result<()> {
    while conn.out.pos < conn.out.buf.len() {
        match conn.stream.write(&conn.out.buf[conn.out.pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out.pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.out.pos >= conn.out.buf.len() {
        conn.out.buf.clear();
        conn.out.pos = 0;
    }
    Ok(())
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); MAX_EVENTS];
        loop {
            if self.shared.stop.load(Ordering::Relaxed) {
                break;
            }
            let n = match self.epoll.wait(&mut events, WAIT_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in events.iter().take(n) {
                let (mask, token) = (ev.events(), ev.data());
                match token {
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_event(token, mask),
                }
            }
            self.drain_mailbox();
            self.sweep_idle();
        }
        // Gauge and counter hygiene: every owned connection is released.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Discards accumulated wake bytes (the mailbox drain that follows
    /// picks up whatever the bytes announced).
    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Accepts every pending connection: capacity check, then round-robin
    /// hand-off to an event loop.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    let cap = self.shared.config.max_connections.max(1);
                    if self.shared.active.load(Ordering::Relaxed) >= cap {
                        reject_stream(stream, &self.shared.config);
                        continue;
                    }
                    self.shared.active.fetch_add(1, Ordering::Relaxed);
                    metrics::counter("netproto.evloop.accepted").incr();
                    metrics::gauge("netproto.evloop.active_connections").add(1);
                    let idx = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    // Posting to our own mailbox is fine too: the drain
                    // runs right after event dispatch.
                    self.peers[idx].post(Msg::Adopt(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Takes ownership of an accepted socket: nonblocking, registered for
    /// read interest, tracked under a fresh token.
    fn adopt(&mut self, stream: TcpStream) {
        let prepared = stream.set_nonblocking(true).and_then(|()| stream.set_nodelay(true));
        if prepared.is_err() {
            self.release_unregistered();
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let fd = stream.as_raw_fd();
        let interest = EPOLLIN;
        if self.epoll.add(fd, interest, token).is_err() {
            self.release_unregistered();
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream: FaultyStream::new(stream),
                fd,
                read_buf: Vec::new(),
                out: OutBuf::default(),
                state: ConnState::Idle,
                interest,
                last_activity: Instant::now(),
                fatal: false,
            },
        );
    }

    /// Undoes the accept-time accounting for a socket that never made it
    /// into the epoll set.
    fn release_unregistered(&self) {
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
        metrics::gauge("netproto.evloop.active_connections").add(-1);
    }

    fn conn_event(&mut self, token: u64, mask: u32) {
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        if mask & EPOLLIN != 0 && !self.read_ready(token) {
            return;
        }
        self.pump(token);
    }

    /// Drains the socket into the connection's read buffer. Returns false
    /// when the connection was closed (EOF or hard error).
    fn read_ready(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let mut closed = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if closed {
            self.close_conn(token);
            return false;
        }
        true
    }

    /// The per-connection engine: encode pending rows, flush, and start
    /// the next request — until blocked on the socket, the pool, or the
    /// client.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            fill_stream(conn);
            if flush_out(conn).is_err() {
                self.close_conn(token);
                return;
            }
            let out_pending = conn.out.pending() > 0;
            let fatal = conn.fatal;
            let streaming = matches!(conn.state, ConnState::Streaming { .. });
            let idle = matches!(conn.state, ConnState::Idle);
            if out_pending {
                break; // wait for EPOLLOUT
            }
            if fatal {
                self.close_conn(token);
                return;
            }
            if streaming {
                continue; // output drained below the watermark: encode more
            }
            if idle {
                if self.next_request(token) {
                    continue; // flush whatever the request produced
                }
                break; // no complete frame buffered: wait for EPOLLIN
            }
            break; // Executing: wait for the pool's Done message
        }
        self.update_interest(token);
    }

    /// Consumes one buffered frame if complete: admission-checks a query
    /// and hands it to the pool, or queues a typed error frame. Returns
    /// true when any progress was made.
    fn next_request(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let (kind, payload) = match take_frame(&mut conn.read_buf) {
            Ok(Some(frame)) => frame,
            Ok(None) => return false,
            Err(e) => {
                // Torn or garbled frame: report, then close once the
                // error frame has flushed — framing sync is lost.
                let _ = write_frame(&mut conn.out.buf, FrameKind::Error, e.to_string().as_bytes());
                conn.fatal = true;
                return true;
            }
        };
        conn.last_activity = Instant::now();
        if kind != FrameKind::Query {
            let _ = write_frame(&mut conn.out.buf, FrameKind::Error, b"expected a query frame");
            return true;
        }
        let (encoding, sql) = match decode_query(&payload) {
            Ok(q) => q,
            Err(e) => {
                let _ = write_frame(&mut conn.out.buf, FrameKind::Error, e.to_string().as_bytes());
                return true;
            }
        };
        if let Some(e) = crate::server::remote_save_rejection(&sql, &self.shared.config) {
            queue_error(conn, &e);
            return true;
        }
        let quota = self.shared.config.max_inflight_queries.max(1);
        if self.shared.inflight.load(Ordering::Relaxed) >= quota {
            let e = DbError::Rejected(format!("server overloaded ({quota} queries in flight)"));
            queue_error(conn, &e);
            return true;
        }
        self.shared.inflight.fetch_add(1, Ordering::Relaxed);
        metrics::counter("netproto.evloop.queries").incr();
        conn.state = ConnState::Executing { encoding };
        let db = self.shared.db.clone();
        let deadline = self.shared.config.query_deadline;
        let mailbox = Arc::clone(&self.mailbox);
        let admitted = Instant::now();
        mlcs_columnar::parallel::spawn(move || {
            let outcome = run_query(&db, &sql, deadline, admitted);
            mailbox.post(Msg::Done(token, outcome));
        });
        true
    }

    fn drain_mailbox(&mut self) {
        loop {
            let msgs = take_inbox(&self.mailbox);
            if msgs.is_empty() {
                return;
            }
            for msg in msgs {
                match msg {
                    Msg::Adopt(stream) => self.adopt(stream),
                    Msg::Done(token, outcome) => self.finish(token, outcome),
                }
            }
        }
    }

    /// Applies a pool completion to its connection: error frame or the
    /// start of result streaming.
    fn finish(&mut self, token: u64, outcome: Outcome) {
        // Decrement first: the admission quota must free up even when the
        // connection vanished mid-query.
        self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let encoding = match &conn.state {
            ConnState::Executing { encoding } => *encoding,
            // A completion for a non-executing connection cannot happen
            // (one outstanding query per connection); keep a sane default
            // rather than poisoning the loop.
            _ => Encoding::Text,
        };
        match outcome {
            Outcome::Failed(e) => {
                queue_error(conn, &e);
                conn.state = ConnState::Idle;
            }
            Outcome::Batch(batch) => {
                let fields: Vec<(String, mlcs_columnar::DataType)> =
                    batch.schema().fields().iter().map(|f| (f.name.clone(), f.dtype)).collect();
                let _ = write_frame(&mut conn.out.buf, FrameKind::Schema, &encode_schema(&fields));
                conn.state = ConnState::Streaming { batch, encoding, next_row: 0 };
            }
        }
        self.pump(token);
    }

    /// Closes connections idle past the read deadline.
    fn sweep_idle(&mut self) {
        let Some(deadline) = self.shared.config.read_timeout else { return };
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                matches!(c.state, ConnState::Idle)
                    && c.out.pending() == 0
                    && c.last_activity.elapsed() >= deadline
            })
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            metrics::counter("netproto.timeouts").incr();
            self.close_conn(token);
        }
    }

    /// Recomputes the epoll interest mask from the connection's state:
    /// read interest only while idle (no pipelining into a busy
    /// connection), write interest exactly while output is pending.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut want = 0u32;
        if matches!(conn.state, ConnState::Idle) && !conn.fatal {
            want |= EPOLLIN;
        }
        if conn.out.pending() > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest && self.epoll.modify(conn.fd, want, token).is_ok() {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.fd);
            self.shared.active.fetch_sub(1, Ordering::Relaxed);
            metrics::gauge("netproto.evloop.active_connections").add(-1);
        }
    }
}

/// A running reactor: the event-loop threads plus their shared state.
/// Owned by [`crate::Server`].
pub(crate) struct Reactor {
    addr: SocketAddr,
    shared: Arc<Shared>,
    mailboxes: Vec<Arc<Mailbox>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Binds a fresh localhost port and spawns `config.event_loops`
    /// loops; loop 0 owns the listener.
    pub(crate) fn start(db: Database, config: NetConfig) -> DbResult<Reactor> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            config,
            db,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
        });
        let loops = config.event_loops.max(1);
        let mut parts = Vec::with_capacity(loops);
        let mut mailboxes = Vec::with_capacity(loops);
        for i in 0..loops {
            let epoll = Epoll::new().map_err(|e| DbError::Io(format!("epoll_create: {e}")))?;
            let (wake_rx, wake_tx) =
                wake_pipe().map_err(|e| DbError::Io(format!("wake pipe: {e}")))?;
            epoll
                .add(wake_rx.as_raw_fd(), EPOLLIN, WAKE_TOKEN)
                .map_err(|e| DbError::Io(format!("register wake pipe: {e}")))?;
            if i == 0 {
                epoll
                    .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
                    .map_err(|e| DbError::Io(format!("register listener: {e}")))?;
            }
            let mailbox =
                Arc::new(Mailbox { inbox: Mutex::new(Vec::new()), wake: Mutex::new(wake_tx) });
            mailboxes.push(Arc::clone(&mailbox));
            parts.push((epoll, wake_rx, mailbox));
        }
        let mut listener = Some(listener);
        let mut threads = Vec::with_capacity(loops);
        for (i, (epoll, wake_rx, mailbox)) in parts.into_iter().enumerate() {
            let event_loop = EventLoop {
                epoll,
                wake_rx,
                mailbox,
                shared: Arc::clone(&shared),
                listener: if i == 0 { listener.take() } else { None },
                peers: mailboxes.clone(),
                next_peer: 0,
                conns: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
            };
            let handle = std::thread::Builder::new()
                .name(format!("mlcs-evloop-{i}"))
                .spawn(move || event_loop.run())
                .map_err(|e| DbError::Io(format!("spawn event loop: {e}")))?;
            threads.push(handle);
        }
        Ok(Reactor { addr, shared, mailboxes, threads })
    }

    /// The address clients should connect to.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals every loop to stop, wakes them, and joins. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
