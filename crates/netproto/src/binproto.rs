//! Binary-protocol client (MySQL-binary cost profile).

use crate::client::ClientCore;
use crate::codec::binary::decode_rows;
use crate::config::NetConfig;
use crate::framing::Encoding;
use mlcs_columnar::{Batch, DbResult};
use std::net::SocketAddr;

/// A client that fetches results in the binary row encoding: no text
/// conversion, but still row-at-a-time decoding and a rows→columns
/// transpose on the client.
pub struct BinaryClient {
    core: ClientCore,
}

impl BinaryClient {
    /// Connects to a [`crate::Server`] with default [`NetConfig`].
    pub fn connect(addr: SocketAddr) -> DbResult<BinaryClient> {
        BinaryClient::connect_with(addr, NetConfig::default())
    }

    /// Connects with explicit timeouts and retry budget.
    pub fn connect_with(addr: SocketAddr, config: NetConfig) -> DbResult<BinaryClient> {
        Ok(BinaryClient { core: ClientCore::connect(addr, config)? })
    }

    /// Runs a query and materializes the result as a client-side batch,
    /// decoding each row frame as it arrives. Transport failures before
    /// the first `Schema` frame are retried per the configured budget; a
    /// server `Error` frame is never retried.
    pub fn query(&mut self, sql: &str) -> DbResult<Batch> {
        let batch = self.core.query(Encoding::Binary, sql, &mut |payload, builders| {
            mlcs_columnar::metrics::counter("netproto.binary.bytes_received")
                .add(payload.len() as u64);
            decode_rows(payload, builders)
        })?;
        mlcs_columnar::metrics::counter("netproto.binary.queries").incr();
        mlcs_columnar::metrics::counter("netproto.binary.rows").add(batch.rows() as u64);
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use mlcs_columnar::{Database, Value};

    fn serve() -> Server {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, s VARCHAR, f DOUBLE, b BLOB)").unwrap();
        db.execute(
            "INSERT INTO t VALUES
               (1, 'x', 0.5, x'0102'),
               (2, NULL, NULL, NULL),
               (-3, 'ünïcode', -2.5, x'')",
        )
        .unwrap();
        Server::start(db).unwrap()
    }

    #[test]
    fn binary_round_trip_preserves_values_exactly() {
        let server = serve();
        let mut client = BinaryClient::connect(server.addr()).unwrap();
        let batch = client.query("SELECT a, s, f, b FROM t ORDER BY a").unwrap();
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.row(0)[0], Value::Int32(-3));
        assert_eq!(batch.row(0)[1], Value::Varchar("ünïcode".into()));
        assert_eq!(batch.row(0)[3], Value::Blob(vec![]));
        assert_eq!(batch.row(1)[0], Value::Int32(1));
        assert_eq!(batch.row(1)[3], Value::Blob(vec![1, 2]));
        assert!(batch.row(2)[1].is_null());
        server.shutdown();
    }

    #[test]
    fn binary_and_text_agree() {
        let server = serve();
        let mut bin = BinaryClient::connect(server.addr()).unwrap();
        let mut txt = crate::textproto::TextClient::connect(server.addr()).unwrap();
        let sql = "SELECT a, s, f FROM t ORDER BY a";
        let b = bin.query(sql).unwrap();
        let t = txt.query(sql).unwrap();
        assert_eq!(b.rows(), t.rows());
        for r in 0..b.rows() {
            assert_eq!(b.row(r), t.row(r), "row {r}");
        }
        server.shutdown();
    }

    #[test]
    fn errors_propagate_and_connection_survives() {
        let server = serve();
        let mut client = BinaryClient::connect(server.addr()).unwrap();
        assert!(client.query("SELECT broken syntax here").is_err());
        assert_eq!(client.query("SELECT COUNT(*) FROM t").unwrap().rows(), 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = serve();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = BinaryClient::connect(addr).unwrap();
                    for _ in 0..5 {
                        let b = c.query("SELECT a FROM t").unwrap();
                        assert_eq!(b.rows(), 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }
}
