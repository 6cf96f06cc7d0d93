//! Integration test: every data path (files, protocols, cursor) delivers
//! byte-identical data, so pipeline differences are purely about cost.

mod common;

use common::ScratchDir;
use mlcs::columnar::{Database, Table};
use mlcs::fileio::h5lite::{H5LiteReader, H5LiteWriter};
use mlcs::fileio::{read_csv, read_npy_dir, write_csv, write_npy_dir};
use mlcs::netproto::{BinaryClient, RowCursor, Server, TextClient};
use mlcs::voters::gen::{generate, voters_schema, VoterConfig};

#[test]
fn all_access_paths_deliver_identical_voters_data() {
    let cfg = VoterConfig { rows: 3_000, precincts: 40, features: 8, seed: 5 };
    let data = generate(&cfg).unwrap();
    let dir = ScratchDir::new("mlcs_it_paths");

    // Reference: the generated batch itself.
    let reference = &data.voters;

    // CSV.
    write_csv(&dir.join("v.csv"), reference).unwrap();
    let from_csv = read_csv(&dir.join("v.csv"), voters_schema(cfg.features)).unwrap();

    // NPY directory.
    write_npy_dir(&dir.join("v_npy"), reference).unwrap();
    let from_npy = read_npy_dir(&dir.join("v_npy")).unwrap();

    // h5lite.
    let mut w = H5LiteWriter::create(&dir.join("v.h5l")).unwrap();
    w.write_batch(reference).unwrap();
    w.finish().unwrap();
    let from_h5 = H5LiteReader::open(&dir.join("v.h5l")).unwrap().read_batch().unwrap();

    // Database + protocols.
    let db = Database::new();
    db.catalog().put_table(Table::from_batch("voters", reference.clone()), false).unwrap();
    let server = Server::start(db.clone()).unwrap();
    let from_text =
        TextClient::connect(server.addr()).unwrap().query("SELECT * FROM voters").unwrap();
    let from_bin =
        BinaryClient::connect(server.addr()).unwrap().query("SELECT * FROM voters").unwrap();
    let from_cursor =
        RowCursor::query(&db, "SELECT * FROM voters").unwrap().drain_to_batch().unwrap();
    server.shutdown();

    for (name, batch) in [
        ("csv", &from_csv),
        ("npy", &from_npy),
        ("h5lite", &from_h5),
        ("socket-text", &from_text),
        ("socket-binary", &from_bin),
        ("cursor", &from_cursor),
    ] {
        assert_eq!(batch.rows(), reference.rows(), "{name}: row count");
        assert_eq!(batch.width(), reference.width(), "{name}: column count");
        for r in [0, reference.rows() / 2, reference.rows() - 1] {
            assert_eq!(batch.row(r), reference.row(r), "{name}: row {r}");
        }
        // Exhaustive column equality (types may legitimately match since
        // all sources carry the schema).
        for c in 0..reference.width() {
            assert_eq!(
                batch.column(c).as_ref(),
                reference.column(c).as_ref(),
                "{name}: column {c} differs"
            );
        }
    }
}
