//! Text-protocol client (PostgreSQL-classic cost profile).

use crate::client::ClientCore;
use crate::codec::text::decode_rows;
use crate::config::NetConfig;
use crate::framing::Encoding;
use mlcs_columnar::{Batch, DbResult};
use std::net::SocketAddr;

/// A client that fetches results in the text encoding: every value crosses
/// the wire as text and is parsed back into its native type on the client.
pub struct TextClient {
    core: ClientCore,
}

impl TextClient {
    /// Connects to a [`crate::Server`] with default [`NetConfig`].
    pub fn connect(addr: SocketAddr) -> DbResult<TextClient> {
        TextClient::connect_with(addr, NetConfig::default())
    }

    /// Connects with explicit timeouts and retry budget.
    pub fn connect_with(addr: SocketAddr, config: NetConfig) -> DbResult<TextClient> {
        Ok(TextClient { core: ClientCore::connect(addr, config)? })
    }

    /// Runs a query and materializes the full result as a client-side
    /// batch, parsing each row frame into columns as it arrives. Transport
    /// failures before the first `Schema` frame are retried per the
    /// configured budget; a server `Error` frame is never retried.
    pub fn query(&mut self, sql: &str) -> DbResult<Batch> {
        let batch = self.core.query(Encoding::Text, sql, &mut |payload, builders| {
            mlcs_columnar::metrics::counter("netproto.text.bytes_received")
                .add(payload.len() as u64);
            decode_rows(payload, builders)
        })?;
        mlcs_columnar::metrics::counter("netproto.text.queries").incr();
        mlcs_columnar::metrics::counter("netproto.text.rows").add(batch.rows() as u64);
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use mlcs_columnar::{Database, Value};

    fn serve() -> (Server, Database) {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, s VARCHAR, f DOUBLE)").unwrap();
        db.execute(
            "INSERT INTO t VALUES (1, 'plain', 0.5), (2, 'tab\there', NULL), (NULL, 'x', -1.5)",
        )
        .unwrap();
        let server = Server::start(db.clone()).unwrap();
        (server, db)
    }

    #[test]
    fn query_round_trip() {
        let (server, _db) = serve();
        let mut client = TextClient::connect(server.addr()).unwrap();
        let batch = client.query("SELECT a, s, f FROM t ORDER BY a").unwrap();
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.row(0), vec![Value::Int32(1), "plain".into(), Value::Float64(0.5)]);
        // Escaped tab survives.
        assert_eq!(batch.row(1)[1], Value::Varchar("tab\there".into()));
        assert!(batch.row(1)[2].is_null());
        // NULLs last under ASC by default.
        assert!(batch.row(2)[0].is_null());
        server.shutdown();
    }

    #[test]
    fn multiple_queries_on_one_connection() {
        let (server, _db) = serve();
        let mut client = TextClient::connect(server.addr()).unwrap();
        for _ in 0..3 {
            let b = client.query("SELECT COUNT(*) FROM t").unwrap();
            assert_eq!(b.row(0)[0], Value::Int64(3));
        }
        server.shutdown();
    }

    #[test]
    fn server_errors_propagate() {
        let (server, _db) = serve();
        let mut client = TextClient::connect(server.addr()).unwrap();
        let err = client.query("SELECT * FROM nonexistent").unwrap_err();
        assert!(err.to_string().contains("nonexistent"));
        // The connection stays usable afterwards.
        assert_eq!(client.query("SELECT 1").unwrap().rows(), 1);
        server.shutdown();
    }

    #[test]
    fn blobs_cross_as_hex() {
        let db = Database::new();
        db.execute("CREATE TABLE b (v BLOB)").unwrap();
        db.execute("INSERT INTO b VALUES (x'00ff10')").unwrap();
        let server = Server::start(db).unwrap();
        let mut client = TextClient::connect(server.addr()).unwrap();
        let batch = client.query("SELECT v FROM b").unwrap();
        assert_eq!(batch.row(0)[0], Value::Blob(vec![0x00, 0xFF, 0x10]));
        server.shutdown();
    }

    #[test]
    fn large_result_spans_frames() {
        let db = Database::new();
        db.execute("CREATE TABLE big (x INTEGER)").unwrap();
        let values: Vec<String> = (0..5000).map(|i| format!("({i})")).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(","))).unwrap();
        let server = Server::start(db).unwrap();
        let mut client = TextClient::connect(server.addr()).unwrap();
        let batch = client.query("SELECT x FROM big").unwrap();
        assert_eq!(batch.rows(), 5000);
        assert_eq!(batch.row(4999)[0], Value::Int32(4999));
        server.shutdown();
    }
}
