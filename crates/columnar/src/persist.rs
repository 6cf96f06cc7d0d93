//! Database persistence: the one snapshot format and its loader.
//!
//! A database directory holds one page file per table
//! (`<name>.<gen>.mlcspg`, see [`page_file_name`]) plus a manifest
//! (`catalog.mlcsdb`) naming the generation and listing the tables. A
//! page file is the table's encoded payload — a magic header, a CRC, the
//! schema, then each column as an optional validity bitmap and a typed
//! payload, all little-endian — striped over fixed-size checksummed pages
//! (see [`crate::page`]). The same batch codec frames the write-ahead
//! log's append records, so a model row takes one path to disk whether it
//! arrives by `SAVE`, by `CHECKPOINT` or by a logged `INSERT`.
//!
//! # One snapshot protocol
//!
//! [`save_database`] and [`crate::wal::checkpoint`] share one body,
//! `write_snapshot`: every table is cut at one generation number and
//! written atomically (the bytes go to a `*.tmp` sibling, are fsynced,
//! **read back and verified**, then renamed into place, and the directory
//! is fsynced so the rename itself is durable), the manifest is written
//! the same way, and older generations are swept. Page files carry the
//! generation in their name, so nothing a live manifest references is
//! ever overwritten and the manifest rename is the *only* commit point: a
//! crash at any earlier step leaves the previous manifest pointing at its
//! own untouched generation — every load sees all tables old or all
//! tables new, never a mix — with at worst some `*.tmp` debris and
//! unreferenced page files the next snapshot sweeps. A checkpoint is that
//! snapshot cut at the log's last LSN plus the log reset; a plain save
//! picks the generation after the one the directory already holds.
//!
//! [`load_database_with`] offers a [`RecoveryMode::Recover`] that skips
//! damaged or missing page files (reporting them in a [`RecoveryReport`])
//! instead of aborting the whole load, so one corrupted table cannot hold
//! every stored model hostage. If a `wal.mlcslog` file sits beside the
//! manifest, the loader replays every log record past the manifest's
//! generation — its checkpoint watermark — and, in
//! [`RecoveryMode::Recover`], cleanly truncates a damaged log tail.

use crate::batch::Batch;
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::faults;
use crate::metrics;
use crate::page;
use crate::schema::{Field, Schema};
use crate::strings::{BlobColumn, StringColumn};
use crate::table::Table;
use crate::types::DataType;
use crate::wal;
use mlcs_pickle::crc::crc32;
use mlcs_pickle::{PickleError, Reader, Writer};
use std::path::Path;
use std::sync::Arc;

const TABLE_MAGIC: &[u8; 8] = b"MLCSTBL1";
const MANIFEST_MAGIC: &[u8; 8] = b"MLCSDB_2";
const MANIFEST_FILE: &str = "catalog.mlcsdb";

/// How [`load_database_with`] reacts to damaged table files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Any unreadable or corrupt table file fails the whole load.
    Strict,
    /// Damaged tables are skipped and reported; everything readable loads.
    /// Manifest damage is still fatal — without it there is no catalog.
    Recover,
}

/// One table [`RecoveryMode::Recover`] had to skip.
#[derive(Debug, Clone, PartialEq)]
pub struct DamagedTable {
    /// The table name as listed in the manifest.
    pub name: String,
    /// The rendered [`DbError`] that made it unloadable.
    pub reason: String,
}

/// What [`load_database_with`] found: which tables loaded, which were
/// damaged (empty in [`RecoveryMode::Strict`], which errors out instead),
/// and any stale `*.tmp` files an interrupted save left behind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Tables loaded into the catalog, in manifest order.
    pub loaded: Vec<String>,
    /// Tables skipped because their files were missing or corrupt.
    pub damaged: Vec<DamagedTable>,
    /// File names of leftover `*.tmp` files from an interrupted save.
    /// Harmless (no manifest references them) but worth cleaning up.
    pub stale_tmp: Vec<String>,
    /// Write-ahead-log records replayed past the checkpoint watermark.
    /// Nonzero replay is normal operation, not damage.
    pub replayed_records: u64,
    /// Bytes of damaged write-ahead-log tail discarded by a recovering
    /// load (`0` = the log was clean). A torn final record is expected
    /// after a crash mid-commit; the truncated transaction was never
    /// acknowledged.
    pub truncated_tail: u64,
    /// Page files (or log records) whose checksum verification failed —
    /// torn or corrupt writes that were *detected* rather than loaded.
    pub checksum_failures: u64,
}

impl RecoveryReport {
    /// Whether every manifest table loaded and no debris was found.
    /// Replayed log records do not count against cleanliness — redo is
    /// how a durable database normally reopens — but a truncated tail or
    /// a checksum failure does.
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
            && self.stale_tmp.is_empty()
            && self.truncated_tail == 0
            && self.checksum_failures == 0
    }
}

/// Writes `bytes` to `dir/<name>` atomically: page-sized writes to
/// `<name>.tmp` under the `point` fault point, fsync, **read-back
/// verify**, rename, directory fsync. A crash at any point leaves either
/// the old file or the new one, never a torn mix — at worst a stale
/// `.tmp` remains — and the read-back keeps a bit-flipped or torn write
/// from ever replacing a healthy file.
fn write_atomic(dir: &Path, name: &str, point: &str, bytes: &[u8]) -> DbResult<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = std::fs::File::create(&tmp)?;
    for chunk in bytes.chunks(page::PAGE_SIZE) {
        faults::write_file_at(point, &mut file, chunk)?;
    }
    faults::sync_file_at("fs.fsync", &file)?;
    if std::fs::read(&tmp)? != bytes {
        return Err(DbError::Corrupt(format!("file '{name}' read-back mismatch before rename")));
    }
    faults::rename(&tmp, &dir.join(name))?;
    sync_dir(dir)
}

/// Fsyncs a directory so a rename inside it is durable.
pub(crate) fn sync_dir(dir: &Path) -> DbResult<()> {
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// The page file holding `name`'s snapshot of generation `gen` (for a
/// checkpoint, the LSN the log was folded up to).
///
/// Page files are versioned by the snapshot that wrote them so the
/// manifest commit governs *which generation* is visible, not just which
/// tables exist: a snapshot that crashes after renaming fresh page files
/// but before its manifest rename leaves the new generation as
/// unreferenced orphans, and the old manifest keeps pointing at the old
/// (untouched) files — replay past the old watermark stays correct
/// instead of double-applying onto a half-committed new base.
pub fn page_file_name(name: &str, gen: u64) -> String {
    format!("{name}.{gen}.mlcspg")
}

/// A parsed `catalog.mlcsdb`.
#[derive(Default)]
struct Manifest {
    /// The snapshot's generation; on a durable directory, the LSN every
    /// log record at or below which is already folded into the pages.
    generation: u64,
    tables: Vec<String>,
}

/// Reads `dir`'s manifest; `None` when there is none yet.
fn read_manifest(dir: &Path) -> DbResult<Option<Manifest>> {
    let bytes = match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut r = Reader::new(&bytes);
    let magic = r.get_raw(8).map_err(corrupt)?;
    if magic != MANIFEST_MAGIC {
        // Same family, other version digit: intact, but not ours to read.
        return Err(if magic[..7] == MANIFEST_MAGIC[..7] {
            DbError::Unsupported(format!(
                "manifest format '{}' is not supported (this build reads and writes only '{}')",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(MANIFEST_MAGIC)
            ))
        } else {
            DbError::Corrupt("bad manifest magic".into())
        });
    }
    let generation = r.get_u64().map_err(corrupt)?;
    let n = r.get_count(1).map_err(corrupt)?;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        tables.push(r.get_str().map_err(corrupt)?.to_owned());
    }
    Ok(Some(Manifest { generation, tables }))
}

/// The checkpoint LSN recorded in `dir`'s manifest, `0` when there is no
/// manifest yet. Used by [`crate::wal::Wal::open`] to resume LSN issue
/// past the watermark even when the log itself was lost or reset —
/// without it, a crash between a checkpoint's manifest commit and its log
/// reset could restart LSNs at 1 and make later acknowledged commits
/// invisible to replay.
pub(crate) fn checkpoint_watermark(dir: &Path) -> DbResult<u64> {
    Ok(read_manifest(dir)?.map_or(0, |m| m.generation))
}

/// The one snapshot writer: cuts every table at generation `gen` into
/// `<name>.<gen>.mlcspg` under the `page.write` fault point, commits the
/// manifest naming `gen` (under `fs.write`; its rename is the only commit
/// point), then sweeps every other generation — superseded snapshots and
/// orphans of snapshots that crashed before their commit. The sweep is
/// best-effort: leftovers are harmless, nothing loads a page file the
/// manifest does not name, and the next snapshot sweeps again.
pub(crate) fn write_snapshot(db: &Database, dir: &Path, gen: u64) -> DbResult<()> {
    std::fs::create_dir_all(dir)?;
    let names = db.catalog().table_names();
    let mut manifest = Writer::new();
    manifest.put_raw(MANIFEST_MAGIC);
    manifest.put_u64(gen);
    manifest.put_varint(names.len() as u64);
    for name in &names {
        manifest.put_str(name);
        let payload = encode_table(&db.catalog().table(name)?.read());
        let pages = page::encode_pages(&payload);
        write_atomic(dir, &page_file_name(name, gen), "page.write", &pages)?;
    }
    write_atomic(dir, MANIFEST_FILE, "fs.write", &manifest.into_bytes())?;
    let current = format!(".{gen}.mlcspg");
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let fname = entry.file_name().to_string_lossy().into_owned();
        if fname.ends_with(".mlcspg") && !fname.ends_with(&current) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Saves every table of the database into `dir` (created if missing) as
/// one snapshot generation; see the module docs for the crash guarantee.
///
/// Saving a durable database into its own directory *is*
/// [`Database::checkpoint`]. Any other directory holding a write-ahead
/// log is refused: the next load would replay that foreign log over this
/// snapshot.
pub fn save_database(db: &Database, dir: &Path) -> DbResult<()> {
    if db.is_durable_at(dir) {
        return db.checkpoint();
    }
    if dir.join(wal::WAL_FILE).exists() {
        return Err(DbError::Unsupported(format!(
            "cannot save into '{}': it holds the write-ahead log of another durable \
             database, which every load would replay over the snapshot",
            dir.display()
        )));
    }
    write_snapshot(db, dir, checkpoint_watermark(dir)? + 1)
}

/// Loads a database saved by [`save_database`]. Tables are added to the
/// given database's catalog; name clashes are an error. Equivalent to
/// [`load_database_with`] in [`RecoveryMode::Strict`].
pub fn load_database(db: &Database, dir: &Path) -> DbResult<()> {
    load_database_with(db, dir, RecoveryMode::Strict).map(|_| ())
}

/// Loads a database saved by [`save_database`] or checkpointed by a
/// durable database, with explicit handling of damaged table files.
///
/// In [`RecoveryMode::Recover`], unreadable or corrupt table files are
/// skipped — each one is listed in the report's `damaged` set and counted
/// on the `persist.recovered_tables` metric — and every healthy table
/// still loads. Manifest errors are fatal in both modes.
pub fn load_database_with(
    db: &Database,
    dir: &Path,
    mode: RecoveryMode,
) -> DbResult<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let wal_path = dir.join(wal::WAL_FILE);
    let manifest = match read_manifest(dir)? {
        Some(manifest) => manifest,
        // No manifest but a log: a durable database that crashed before
        // its first checkpoint. Bootstrap from an empty base and replay.
        None if wal_path.exists() => Manifest::default(),
        None => return Err(DbError::Io(format!("no database manifest in '{}'", dir.display()))),
    };
    for name in manifest.tables {
        match load_table(db, dir, &name, manifest.generation, &mut report) {
            Ok(()) => report.loaded.push(name),
            Err(e) if mode == RecoveryMode::Recover => {
                metrics::counter("persist.recovered_tables").incr();
                report.damaged.push(DamagedTable { name, reason: e.to_string() });
            }
            Err(e) => return Err(e),
        }
    }
    if wal_path.exists() {
        wal::recover_into(db, &wal_path, manifest.generation, mode, &mut report)?;
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let fname = entry.file_name().to_string_lossy().into_owned();
            if fname.ends_with(".tmp") {
                report.stale_tmp.push(fname);
            }
        }
        report.stale_tmp.sort();
    }
    Ok(report)
}

/// Reads, verifies, decodes, and registers the page file of generation
/// `gen` — the one the manifest names — for one table.
fn load_table(
    db: &Database,
    dir: &Path,
    name: &str,
    gen: u64,
    report: &mut RecoveryReport,
) -> DbResult<()> {
    let file = page_file_name(name, gen);
    let raw = std::fs::read(dir.join(&file))?;
    let payload = page::decode_pages_counted(&file, &raw).map_err(|failure| {
        if failure.checksum {
            report.checksum_failures += 1;
        }
        failure.error
    })?;
    db.catalog().put_table(decode_table(name, &payload)?, false)
}

pub(crate) fn corrupt(e: PickleError) -> DbError {
    DbError::Corrupt(e.to_string())
}

/// Encodes one table: magic, checksum, schema, columns.
pub fn encode_table(table: &Table) -> Vec<u8> {
    let mut body = Writer::new();
    encode_batch(&table.scan(), &mut body);
    let payload = body.into_bytes();
    let mut out = Writer::with_capacity(payload.len() + 16);
    out.put_raw(TABLE_MAGIC);
    out.put_u32(crc32(&payload));
    out.put_raw(&payload);
    out.into_bytes()
}

/// Decodes a table encoded by [`encode_table`].
pub fn decode_table(name: &str, bytes: &[u8]) -> DbResult<Table> {
    let mut r = Reader::new(bytes);
    let magic = r.get_raw(8).map_err(corrupt)?;
    if magic != TABLE_MAGIC {
        return Err(DbError::Corrupt(format!("bad table magic in '{name}'")));
    }
    let stored = r.get_u32().map_err(corrupt)?;
    let payload = r.get_raw(r.remaining()).map_err(corrupt)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(DbError::Corrupt(format!(
            "table '{name}' payload checksum mismatch ({stored:#x} != {computed:#x})"
        )));
    }
    let mut r = Reader::new(payload);
    let batch = decode_batch(&mut r)?;
    r.expect_exhausted().map_err(corrupt)?;
    Ok(Table::from_batch(name, batch))
}

/// Encodes a schema's fields: name, type tag, nullability. The one
/// schema codec, shared by batches and the log's `CreateTable` records.
pub(crate) fn encode_schema(schema: &Schema, w: &mut Writer) {
    w.put_varint(schema.len() as u64);
    for f in schema.fields() {
        w.put_str(&f.name);
        w.put_u8(f.dtype.tag());
        w.put_bool(f.nullable);
    }
}

/// Decodes a schema encoded by [`encode_schema`].
pub(crate) fn decode_schema(r: &mut Reader<'_>) -> DbResult<Arc<Schema>> {
    let ncols = r.get_count(3).map_err(corrupt)?;
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.get_str().map_err(corrupt)?.to_owned();
        let dtype = decode_type(r.get_u8().map_err(corrupt)?)?;
        let nullable = r.get_bool().map_err(corrupt)?;
        fields.push(Field { name, dtype, nullable });
    }
    Ok(Arc::new(Schema::new(fields)?))
}

fn decode_type(tag: u8) -> DbResult<DataType> {
    DataType::from_tag(tag).ok_or_else(|| DbError::Corrupt(format!("unknown type tag {tag}")))
}

/// Encodes a self-describing batch: schema, row count, columns — the
/// payload of a table's page file and of the log's append records.
pub(crate) fn encode_batch(batch: &Batch, w: &mut Writer) {
    encode_schema(batch.schema(), w);
    w.put_varint(batch.rows() as u64);
    for col in batch.columns() {
        encode_column(col, w);
    }
}

/// Decodes a batch encoded by [`encode_batch`], leaving the reader
/// positioned after it (write-ahead-log payloads continue past a batch).
pub(crate) fn decode_batch(r: &mut Reader<'_>) -> DbResult<Batch> {
    let schema = decode_schema(r)?;
    let rows = r.get_varint().map_err(corrupt)?;
    let mut columns = Vec::with_capacity(schema.len());
    for f in schema.fields() {
        columns.push(Arc::new(decode_column(f.dtype.tag(), rows, r)?));
    }
    Batch::new(schema, columns)
}

pub(crate) fn encode_column(col: &Column, w: &mut Writer) {
    // The on-disk format stores plain columns only; in-memory encodings
    // are an execution concern and are re-derived by `Table::from_batch`
    // when the file is loaded.
    let col = col.decoded();
    let col: &Column = &col;
    w.put_bool(col.validity().is_some());
    if let Some(bm) = col.validity() {
        // Store as packed bytes.
        let mut bytes = vec![0u8; bm.len().div_ceil(8)];
        for (i, valid) in bm.iter().enumerate() {
            if valid {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        w.put_bytes(&bytes);
    }
    match col.data() {
        ColumnData::Boolean(v) => put_all(w, v, Writer::put_bool),
        ColumnData::Int8(v) => put_all(w, v, Writer::put_i8),
        ColumnData::Int16(v) => put_all(w, v, Writer::put_i16),
        ColumnData::Int32(v) => put_all(w, v, Writer::put_i32),
        ColumnData::Int64(v) => put_all(w, v, Writer::put_i64),
        ColumnData::Float32(v) => put_all(w, v, Writer::put_f32),
        ColumnData::Float64(v) => put_all(w, v, Writer::put_f64),
        ColumnData::Varchar(s) => put_var(w, s.raw_parts()),
        ColumnData::Blob(b) => put_var(w, b.raw_parts()),
    }
}

/// Writes a fixed-width column's values back to back.
fn put_all<T: Copy>(w: &mut Writer, values: &[T], put: impl Fn(&mut Writer, T)) {
    for &v in values {
        put(w, v);
    }
}

/// Writes a variable-length column: its offsets, then its bytes.
fn put_var(w: &mut Writer, (offsets, bytes): (&[u64], &[u8])) {
    w.put_varint(offsets.len() as u64);
    for &o in offsets {
        w.put_varint(o);
    }
    w.put_bytes(bytes);
}

/// Reads `rows` fixed-width values written by [`put_all`].
fn get_all<'a, T>(
    rows: usize,
    r: &mut Reader<'a>,
    get: impl Fn(&mut Reader<'a>) -> Result<T, PickleError>,
) -> DbResult<Vec<T>> {
    let mut values = Vec::with_capacity(rows);
    for _ in 0..rows {
        values.push(get(r).map_err(corrupt)?);
    }
    Ok(values)
}

/// Reads the offsets and bytes written by [`put_var`].
fn get_var(r: &mut Reader<'_>) -> DbResult<(Vec<u64>, Vec<u8>)> {
    let n = r.get_count(1).map_err(corrupt)?;
    let mut offsets = Vec::with_capacity(n);
    for _ in 0..n {
        offsets.push(r.get_varint().map_err(corrupt)?);
    }
    Ok((offsets, r.get_bytes().map_err(corrupt)?.to_vec()))
}

/// Decodes one column of `rows` rows. `rows` comes straight off the wire:
/// it is bounded by the bytes actually left before anything is allocated
/// for it, so a forged count in a record whose CRC checks out is a typed
/// error, not a capacity-overflow panic or a multi-GiB allocation.
pub(crate) fn decode_column(tag: u8, rows: u64, r: &mut Reader<'_>) -> DbResult<Column> {
    let dtype = decode_type(tag)?;
    // The fewest bytes one row occupies: its fixed width, or one offset
    // varint for the variable-length types.
    let row_bytes = match dtype {
        DataType::Int16 => 2,
        DataType::Int32 | DataType::Float32 => 4,
        DataType::Int64 | DataType::Float64 => 8,
        DataType::Boolean | DataType::Int8 | DataType::Varchar | DataType::Blob => 1,
    };
    if rows.saturating_mul(row_bytes) > r.remaining() as u64 {
        return Err(DbError::Corrupt(format!(
            "column claims {rows} {dtype} rows but only {} bytes remain",
            r.remaining()
        )));
    }
    let rows = rows as usize;
    let has_validity = r.get_bool().map_err(corrupt)?;
    let validity = if has_validity {
        let bytes = r.get_bytes().map_err(corrupt)?;
        let mut bm = Bitmap::filled(rows, false);
        for i in 0..rows {
            if i / 8 < bytes.len() && bytes[i / 8] & (1 << (i % 8)) != 0 {
                bm.set(i, true);
            }
        }
        Some(bm)
    } else {
        None
    };
    let data = match dtype {
        DataType::Boolean => ColumnData::Boolean(get_all(rows, r, Reader::get_bool)?),
        DataType::Int8 => ColumnData::Int8(get_all(rows, r, Reader::get_i8)?),
        DataType::Int16 => ColumnData::Int16(get_all(rows, r, Reader::get_i16)?),
        DataType::Int32 => ColumnData::Int32(get_all(rows, r, Reader::get_i32)?),
        DataType::Int64 => ColumnData::Int64(get_all(rows, r, Reader::get_i64)?),
        DataType::Float32 => ColumnData::Float32(get_all(rows, r, Reader::get_f32)?),
        DataType::Float64 => ColumnData::Float64(get_all(rows, r, Reader::get_f64)?),
        DataType::Varchar => {
            let (offsets, bytes) = get_var(r)?;
            ColumnData::Varchar(
                StringColumn::from_raw_parts(offsets, bytes).map_err(DbError::Corrupt)?,
            )
        }
        DataType::Blob => {
            let (offsets, bytes) = get_var(r)?;
            ColumnData::Blob(BlobColumn::from_raw_parts(offsets, bytes).map_err(DbError::Corrupt)?)
        }
    };
    let col = Column::new(data, validity)?;
    if col.len() != rows {
        return Err(DbError::Corrupt(format!("column has {} rows, expected {rows}", col.len())));
    }
    Ok(col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mlcs_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populated() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE v (id INTEGER NOT NULL, name VARCHAR, score DOUBLE, raw BLOB)")
            .unwrap();
        db.execute(
            "INSERT INTO v VALUES (1, 'a', 0.5, x'00ff'), (2, NULL, NULL, x''), (3, 'ü', -1.5, x'AB')",
        )
        .unwrap();
        db.execute("CREATE TABLE empty_t (x BIGINT)").unwrap();
        db
    }

    #[test]
    fn save_and_load_round_trips() {
        let dir = tempdir("roundtrip");
        let db = populated();
        save_database(&db, &dir).unwrap();
        let db2 = Database::new();
        load_database(&db2, &dir).unwrap();
        assert_eq!(db2.catalog().table_names(), vec!["empty_t", "v"]);
        let r = db2.query("SELECT * FROM v ORDER BY id").unwrap();
        assert_eq!(r.rows(), 3);
        assert_eq!(r.row(0)[1], Value::Varchar("a".into()));
        assert!(r.row(1)[1].is_null());
        assert_eq!(r.row(2)[2], Value::Float64(-1.5));
        assert_eq!(r.row(0)[3], Value::Blob(vec![0x00, 0xFF]));
        // NOT NULL survives.
        assert!(db2.execute("INSERT INTO v VALUES (NULL, 'x', 1.0, x'00')").is_err());
        assert_eq!(db2.query("SELECT * FROM empty_t").unwrap().rows(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let dir = tempdir("corrupt");
        let db = populated();
        save_database(&db, &dir).unwrap();
        let path = dir.join(page_file_name("v", 1));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[page::PAGE_HEADER + 4] ^= 0xFF; // a payload byte of page 0
        std::fs::write(&path, bytes).unwrap();
        let db2 = Database::new();
        let err = load_database(&db2, &dir).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)), "got {err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_io_error() {
        let db = Database::new();
        let err = load_database(&db, Path::new("/nonexistent/mlcs")).unwrap_err();
        assert!(matches!(err, DbError::Io(_)));
    }

    #[test]
    fn table_encode_decode_direct() {
        let db = populated();
        let handle = db.catalog().table("v").unwrap();
        let t = handle.read();
        let bytes = encode_table(&t);
        let back = decode_table("v", &bytes).unwrap();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.schema().names(), vec!["id", "name", "score", "raw"]);
        assert!(!back.schema().field(0).nullable);
    }
}
