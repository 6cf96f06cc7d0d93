//! The database server: accepts TCP connections, runs queries, streams
//! result rows in the requested encoding.
//!
//! This is the "separate database server, connected through a socket"
//! setup whose end-to-end cost Figure 1 measures: results are serialized
//! row by row, shipped through the kernel, and re-parsed on the client —
//! work the in-database UDFs never do.
//!
//! Connections are served one way: the multiplexed epoll reactor in the
//! private `reactor` module owns every socket on a few event-loop threads
//! and runs decoded queries on the shared morsel pool. This module holds
//! the [`Server`] handle plus the policy and encoding helpers the event
//! loops call: capacity rejection, the remote-`SAVE` gate, panic messages
//! and the row-frame encoders.
//!
//! Durability rides the same statement path: serve a database opened
//! with `Database::open_durable` and every mutation a client commits is
//! write-ahead-logged before it is acknowledged; clients can issue
//! `CHECKPOINT` (fold the log into the page base) over the wire like any
//! other statement. `SAVE '<dir>'` (consistent snapshot to an arbitrary
//! server-side path) is refused unless the operator opted in via
//! [`NetConfig::allow_remote_save`] — a client naming the filesystem
//! path the server writes to is an injection primitive, not a query.

use crate::codec::{binary, text, EncodeRows};
use crate::config::NetConfig;
use crate::framing::{begin_frame, end_frame, write_frame, Encoding, FrameKind, HEADER};
use crate::reactor::Reactor;
use mlcs_columnar::{Batch, Database, DbError, DbResult};
use std::io::Write;
use std::net::TcpStream;

/// A running server. Dropping the handle stops serving (the reactor joins
/// its event loops on drop).
pub struct Server {
    reactor: Reactor,
}

impl Server {
    /// Starts serving `db` on a fresh localhost port with default
    /// [`NetConfig`].
    pub fn start(db: Database) -> DbResult<Server> {
        Server::start_with(db, NetConfig::default())
    }

    /// Starts serving `db` on a fresh localhost port with explicit
    /// timeouts, per-query deadline, connection cap, and admission quota.
    pub fn start_with(db: Database, config: NetConfig) -> DbResult<Server> {
        Ok(Server { reactor: Reactor::start(db, config)? })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.reactor.addr()
    }

    /// Stops serving: signals and joins every event loop.
    pub fn shutdown(mut self) {
        self.reactor.shutdown();
    }
}

/// Tells a client the server is at capacity with a typed
/// [`DbError::Rejected`] error frame (so clients can tell shed load from
/// a torn connection), then drops the socket. Never blocks the accept
/// path for long — a short write timeout guards the frame.
pub(crate) fn reject_stream(stream: TcpStream, config: &NetConfig) {
    mlcs_columnar::metrics::counter("netproto.conn_rejected").incr();
    // Reactor listeners are nonblocking; the rejection frame is written
    // synchronously under a deadline instead.
    let _ = stream.set_nonblocking(false);
    let _ = stream
        .set_write_timeout(Some(config.write_timeout.unwrap_or(std::time::Duration::from_secs(1))));
    let mut w = stream;
    let e =
        DbError::Rejected(format!("server at capacity ({} connections)", config.max_connections));
    let _ = write_frame(&mut w, FrameKind::Error, e.to_string().as_bytes());
    let _ = w.flush();
}

/// Returns the rejection for a wire query containing `SAVE` when the
/// server has not opted in ([`NetConfig::allow_remote_save`]), `None`
/// when the query may proceed. Decided on the parsed statement list, not
/// a substring match, so `SELECT 'save'` passes and a `SAVE` hidden in a
/// multi-statement batch does not. Unparseable input proceeds: execution
/// reports the real syntax error, and nothing unparseable can reach the
/// `SAVE` path.
pub(crate) fn remote_save_rejection(sql: &str, config: &NetConfig) -> Option<DbError> {
    if config.allow_remote_save {
        return None;
    }
    use mlcs_columnar::sql::{ast::Statement, parser::parse_many};
    let has_save = parse_many(sql)
        .map(|stmts| stmts.iter().any(|s| matches!(s, Statement::Save { .. })))
        .unwrap_or(false);
    if has_save {
        mlcs_columnar::metrics::counter("netproto.save_refused").incr();
        Some(DbError::Rejected(
            "SAVE is disabled over the network (it writes a snapshot to a \
             server-side path of the client's choosing); enable \
             NetConfig::allow_remote_save to permit it"
                .into(),
        ))
    } else {
        None
    }
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Appends the `Rows*` frame of `batch` that starts at row `start`, in the
/// requested encoding, to `out`, ticking the per-encoding byte counters,
/// and returns the rows it holds (see [`crate::codec`] for where a frame
/// ends). A row too long for any frame is an error, and leaves `out` as
/// it was.
pub(crate) fn encode_rows_frame(
    batch: &Batch,
    start: usize,
    encoding: Encoding,
    out: &mut Vec<u8>,
) -> DbResult<usize> {
    let (kind, encode): (_, EncodeRows) = match encoding {
        Encoding::Text => (FrameKind::RowsText, text::encode_rows),
        Encoding::Binary => (FrameKind::RowsBinary, binary::encode_rows),
    };
    let at = begin_frame(out, kind);
    let rows = encode(batch, start, out).inspect_err(|_| out.truncate(at))?;
    end_frame(out, at);
    let bytes = (out.len() - at - HEADER) as u64;
    match encoding {
        Encoding::Text => mlcs_columnar::metrics::counter("netproto.text.bytes_sent").add(bytes),
        Encoding::Binary => {
            mlcs_columnar::metrics::counter("netproto.binary.bytes_sent").add(bytes)
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_starts_and_stops() {
        let db = Database::new();
        let server = Server::start(db).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0);
        // Connect/disconnect without sending anything.
        let stream = TcpStream::connect(addr).unwrap();
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn shutdown_does_not_hang_with_open_connections() {
        let db = Database::new();
        let config = NetConfig {
            read_timeout: Some(std::time::Duration::from_millis(200)),
            ..NetConfig::default()
        };
        let server = Server::start_with(db, config).unwrap();
        // A client that connects and then goes idle, holding its end open.
        // Event loops stop on the shutdown signal, not on their sockets,
        // so shutdown must return promptly regardless.
        let idle = TcpStream::connect(server.addr()).unwrap();
        let begin = std::time::Instant::now();
        server.shutdown();
        assert!(
            begin.elapsed() < std::time::Duration::from_secs(2),
            "shutdown blocked on an idle connection"
        );
        drop(idle);
    }

    #[test]
    fn malformed_first_frame_gets_error() {
        let db = Database::new();
        let server = Server::start(db).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A Schema frame is not a valid request.
        write_frame(&mut stream, FrameKind::Schema, b"").unwrap();
        let (kind, payload) = crate::framing::read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Error);
        assert!(!payload.is_empty());
        server.shutdown();
    }
}
