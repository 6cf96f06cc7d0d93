//! Result frames at their limits, over both socket protocols:
//!
//! * large values cross the wire in frames cut by bytes as well as rows,
//!   and arrive equal to the embedded result;
//! * a row longer than the frame cap ends its result with a typed error
//!   frame, and the connection serves the next query;
//! * row bytes for a result without columns are corrupt, not a hang.

use mlcs_columnar::{Batch, Column, Database, DbError, Field, Schema, Table};
use mlcs_netproto::framing::{encode_schema, read_frame, write_frame, FrameKind, MAX_FRAME};
use mlcs_netproto::{BinaryClient, Server, TextClient};
use std::net::TcpListener;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The two large-value tests hold tens of MiB each: one at a time.
static BIG: Mutex<()> = Mutex::new(());

/// A database whose table `t (id INTEGER, v BLOB)` holds one blob per
/// length in `lens`, each byte a function of its row and offset.
fn blob_db(lens: &[usize]) -> Database {
    let ids: Vec<i32> = (0..lens.len() as i32).collect();
    let blobs: Vec<Vec<u8>> = lens
        .iter()
        .enumerate()
        .map(|(r, &len)| (0..len).map(|i| (r * 31 + i) as u8).collect())
        .collect();
    let v = Column::from_blobs(blobs.iter().map(Vec::as_slice));
    drop(blobs);
    let schema = Schema::new(vec![
        Field::new("id", mlcs_columnar::DataType::Int32),
        Field::new("v", mlcs_columnar::DataType::Blob),
    ])
    .unwrap();
    let batch =
        Batch::new(Arc::new(schema), vec![Arc::new(Column::from_i32s(ids)), Arc::new(v)]).unwrap();
    let db = Database::new();
    db.catalog().put_table(Table::from_batch("t", batch), false).unwrap();
    db
}

fn assert_same(got: &Batch, want: &Batch, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: rows");
    for (c, (g, w)) in got.columns().iter().zip(want.columns()).enumerate() {
        assert!(g == w, "{what}: column {c} differs");
    }
}

/// 1 024 rows of 66 KiB: 66 MiB over binary and 132 MiB of hex over text,
/// more than the frame cap at 1 024 rows a frame. Both protocols cut the
/// result into byte-bounded frames and return what the embedded query does.
#[test]
fn large_values_cross_the_wire_in_byte_bounded_frames() {
    let _one = BIG.lock().unwrap_or_else(|e| e.into_inner());
    let db = blob_db(&[66 << 10; 1024]);
    let want = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
    let server = Server::start(db).unwrap();
    let got = BinaryClient::connect(server.addr())
        .unwrap()
        .query("SELECT id, v FROM t ORDER BY id")
        .unwrap();
    assert_same(&got, &want, "binary");
    drop(got);
    let got = TextClient::connect(server.addr())
        .unwrap()
        .query("SELECT id, v FROM t ORDER BY id")
        .unwrap();
    assert_same(&got, &want, "text");
    server.shutdown();
}

/// Runs `query` on a fresh client of each protocol against `db`: the
/// result is an error naming the frame cap, and the same client then
/// answers a small query.
fn row_too_long(db: Database, binary: bool) {
    let server = Server::start(db).unwrap();
    let (err, count) = if binary {
        let mut c = BinaryClient::connect(server.addr()).unwrap();
        (c.query("SELECT v FROM t ORDER BY id").unwrap_err(), c.query("SELECT COUNT(*) FROM t"))
    } else {
        let mut c = TextClient::connect(server.addr()).unwrap();
        (c.query("SELECT v FROM t ORDER BY id").unwrap_err(), c.query("SELECT COUNT(*) FROM t"))
    };
    assert!(err.to_string().contains("frame cap"), "binary={binary}: {err}");
    assert_eq!(count.unwrap().rows(), 1, "binary={binary}: the connection serves on");
    server.shutdown();
}

/// A row longer than the frame cap: a small first row crosses, then the
/// result ends with the server's typed error, and the connection stays
/// usable. Binary needs a blob past the cap; text's hex doubles a
/// 33 MiB blob past it.
#[test]
fn a_row_longer_than_any_frame_is_a_typed_error() {
    let _one = BIG.lock().unwrap_or_else(|e| e.into_inner());
    row_too_long(blob_db(&[16, MAX_FRAME]), true);
    row_too_long(blob_db(&[16, 33 << 20]), false);
}

/// A server that answers any query with a schema of no columns, then a
/// binary rows frame holding three bytes.
fn zero_column_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _ = read_frame(&mut s);
        write_frame(&mut s, FrameKind::Schema, &encode_schema(&[])).unwrap();
        write_frame(&mut s, FrameKind::RowsBinary, &[1, 2, 3]).unwrap();
        write_frame(&mut s, FrameKind::Done, &3u64.to_le_bytes()).unwrap();
        // Hold the socket open until the client is done with it.
        let _ = read_frame(&mut s);
    });
    addr
}

/// Row bytes under a schema of no columns are `Corrupt`. The decode runs
/// under a watchdog, so a decoder that loops without advancing fails the
/// test instead of hanging the suite.
#[test]
fn row_bytes_without_columns_are_corrupt_not_a_hang() {
    let addr = zero_column_server();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = BinaryClient::connect(addr).unwrap();
        let _ = tx.send(client.query("SELECT 1"));
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(Err(DbError::Corrupt(msg))) => assert!(msg.contains("no columns"), "{msg}"),
        Ok(other) => panic!("expected a Corrupt error, got {other:?}"),
        Err(_) => panic!("the binary decoder hung on a schema of no columns"),
    }
}
