//! Shared client plumbing: connect with timeouts, and run queries with a
//! bounded retry loop.
//!
//! Both socket clients ([`crate::TextClient`], [`crate::BinaryClient`])
//! differ only in how they decode row frames; everything transport-related
//! — dialing with a connect timeout, socket read/write deadlines, fault
//! wrapping, the retry policy, and assembling the result — lives here.
//! Each row frame is read into one reused buffer and handed to the
//! protocol's decoder as soon as it arrives, so a result is never held
//! twice (once as frames, once as columns).
//!
//! # Retry semantics
//!
//! A query attempt is retryable **only until the first `Schema` frame
//! arrives**: before that point the client has consumed no result bytes,
//! so reconnecting and resending the query cannot silently replay a
//! half-consumed result. Once the schema has been read, any failure is
//! final. A server `Error` frame is always final — the server made a
//! statement about the query; retrying would not change it. Retrying does
//! re-execute the statement server-side, so the usual idempotence caveat
//! applies: safe for reads, caller's responsibility for DML.

use crate::config::NetConfig;
use crate::framing::{
    decode_schema, encode_query, io_to_db, read_frame_into, write_frame, Encoding, FrameKind,
};
use mlcs_columnar::faults::FaultyStream;
use mlcs_columnar::{Batch, ColumnBuilder, DbError, DbResult, Field, Schema};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// One live connection: buffered reader plus writer over the fault-wrapped
/// socket.
struct Conn {
    reader: BufReader<FaultyStream<TcpStream>>,
    writer: FaultyStream<TcpStream>,
}

/// A protocol's row-frame decoder: appends one frame's rows to the
/// result's column builders.
pub(crate) type DecodeRows<'a> = &'a mut dyn FnMut(&[u8], &mut [ColumnBuilder]) -> DbResult<()>;

/// Transport core shared by both socket clients.
pub(crate) struct ClientCore {
    addr: SocketAddr,
    config: NetConfig,
    /// Jitter stream state for backoff delays (seeded for replay).
    jitter: u64,
    conn: Option<Conn>,
}

impl ClientCore {
    /// Connects eagerly (retrying within the budget) so a dead server is
    /// reported at construction, like the pre-retry clients did.
    pub fn connect(addr: SocketAddr, config: NetConfig) -> DbResult<ClientCore> {
        let mut core = ClientCore { addr, config, jitter: config.retry_seed, conn: None };
        let mut last = None;
        for attempt in 0..=config.retries {
            if attempt > 0 {
                core.sleep_backoff(attempt - 1);
            }
            match core.dial() {
                Ok(conn) => {
                    core.conn = Some(conn);
                    return Ok(core);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| DbError::Io("connect failed".into())))
    }

    fn dial(&self) -> DbResult<Conn> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| io_to_db("net.connect", e))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.write_timeout)?;
        let reader = BufReader::with_capacity(1 << 16, FaultyStream::new(stream.try_clone()?));
        Ok(Conn { reader, writer: FaultyStream::new(stream) })
    }

    fn sleep_backoff(&mut self, attempt: u32) {
        let delay = self.config.backoff_delay(attempt, &mut self.jitter);
        std::thread::sleep(delay);
    }

    /// Sends `sql` and decodes its result with `decode`, one row frame at
    /// a time, retrying failed attempts within the budget (see the module
    /// docs for when an attempt is retryable).
    pub fn query(
        &mut self,
        encoding: Encoding,
        sql: &str,
        decode: DecodeRows<'_>,
    ) -> DbResult<Batch> {
        let payload = encode_query(encoding, sql);
        let mut last;
        let mut attempt = 0;
        loop {
            match self.attempt(&payload, encoding, decode) {
                Ok(batch) => return Ok(batch),
                Err(Attempt::Fatal(e)) => return Err(e),
                Err(Attempt::Broken(e)) => {
                    // Unread frames of this result may still be in flight:
                    // the next query dials fresh.
                    self.conn = None;
                    return Err(e);
                }
                Err(Attempt::Retryable(e)) => {
                    // The connection is in an unknown state: drop it and
                    // dial fresh on the next attempt.
                    self.conn = None;
                    last = e;
                }
            }
            if attempt >= self.config.retries {
                return Err(last);
            }
            mlcs_columnar::metrics::counter("netproto.retries").incr();
            self.sleep_backoff(attempt);
            attempt += 1;
        }
    }

    /// One query attempt over the current (or a fresh) connection.
    fn attempt(
        &mut self,
        payload: &[u8],
        encoding: Encoding,
        decode: DecodeRows<'_>,
    ) -> Result<Batch, Attempt> {
        if self.conn.is_none() {
            self.conn = Some(self.dial().map_err(Attempt::Retryable)?);
        }
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => return Err(Attempt::Fatal(DbError::internal("no connection after dial"))),
        };
        write_frame(&mut conn.writer, FrameKind::Query, payload).map_err(Attempt::Retryable)?;
        // Everything up to a valid Schema frame is retryable: no result
        // bytes have been consumed yet.
        let mut frame = Vec::new();
        let kind = read_frame_into(&mut conn.reader, &mut frame).map_err(Attempt::Retryable)?;
        match kind {
            FrameKind::Error => return Err(Attempt::Fatal(server_error(&frame))),
            FrameKind::Schema => {}
            other => {
                return Err(Attempt::Retryable(DbError::Corrupt(format!(
                    "expected schema frame, got {other:?}"
                ))))
            }
        }
        let fields = decode_schema(&frame).map_err(Attempt::Retryable)?;
        // From here on the result is partially consumed: failures are
        // final.
        let mut builders: Vec<ColumnBuilder> =
            fields.iter().map(|(_, t)| ColumnBuilder::new(*t)).collect();
        let rows_kind = match encoding {
            Encoding::Text => FrameKind::RowsText,
            Encoding::Binary => FrameKind::RowsBinary,
        };
        loop {
            let kind = read_frame_into(&mut conn.reader, &mut frame).map_err(Attempt::Broken)?;
            match kind {
                k if k == rows_kind => decode(&frame, &mut builders).map_err(Attempt::Broken)?,
                FrameKind::Done => break,
                FrameKind::Error => return Err(Attempt::Fatal(server_error(&frame))),
                other => {
                    return Err(Attempt::Broken(DbError::Corrupt(format!(
                        "unexpected frame {other:?}"
                    ))))
                }
            }
        }
        let schema = Arc::new(Schema::new_unchecked(
            fields.into_iter().map(|(n, t)| Field::new(n, t)).collect(),
        ));
        let columns = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Batch::new(schema, columns).map_err(Attempt::Fatal)
    }
}

/// How one query attempt failed.
enum Attempt {
    /// Worth reconnecting and retrying (no result bytes consumed).
    Retryable(DbError),
    /// Final: surfaced to the caller as-is.
    Fatal(DbError),
    /// Final, and the connection lost its place in the result's frames.
    Broken(DbError),
}

/// A server `Error` frame, surfaced as a typed error. Deadline expiries
/// and load-shedding rejections keep their types so callers can match on
/// `DbError::Timeout` / `DbError::Rejected` (shed load is retryable
/// later; a torn connection is not a server statement at all).
fn server_error(payload: &[u8]) -> DbError {
    let msg = String::from_utf8_lossy(payload).into_owned();
    if let Some(path) = msg.strip_prefix("query deadline exceeded at ") {
        return DbError::Timeout { path: path.to_owned() };
    }
    if let Some(reason) = msg.strip_prefix("rejected: ") {
        return DbError::Rejected(reason.to_owned());
    }
    DbError::Io(format!("server error: {msg}"))
}
