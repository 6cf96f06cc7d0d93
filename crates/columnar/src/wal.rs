//! Write-ahead logging: durable incremental commits, checkpointing, and
//! replay-based crash recovery.
//!
//! The paper's deep-integration thesis — models live *in* tables — only
//! pays off in production if those tables survive crashes without
//! rewriting the world on every commit. This module adds the classic
//! ARIES-style redo path on top of the snapshot format of
//! [`crate::persist`]:
//!
//! * **Log.** `wal.mlcslog` is an append-only file: an 8-byte magic, then
//!   framed records (`u32` length, `u32` CRC32, payload). Each record
//!   carries one monotonically increasing LSN and every operation of one
//!   SQL statement, so a record is readable iff it committed in full —
//!   there are no partial transactions to undo, only a torn tail to cut.
//! * **One apply.** `apply` is the only code that changes a catalog or
//!   a table's contents. A live statement derives its [`WalOp`]s from
//!   current state, applies them through it, then logs them; replay
//!   decodes the same ops and applies them through it — so live and
//!   recovered state agree by construction.
//! * **Commit.** [`Wal::append`] writes the frame and fsyncs before
//!   acknowledging (fault points `wal.append`, `wal.fsync`, and the
//!   shared `fs.fsync`). On error the file is left exactly as a crash
//!   would leave it — a torn suffix the next recovery truncates — and the
//!   statement is *not* acknowledged.
//! * **Checkpoint.** [`checkpoint`] is the one snapshot writer
//!   (`persist::write_snapshot`) cut at the log's last LSN — every table
//!   into `<name>.<lsn>.mlcspg`, read-back verified before rename, the
//!   manifest rename switching generations — followed by the log reset to
//!   a fresh header plus a checkpoint marker record.
//! * **Recovery.** [`crate::persist::load_database_with`] loads the page
//!   base, then `recover_into` replays every record with an LSN past
//!   the manifest's checkpoint watermark — idempotent redo — and, in
//!   [`RecoveryMode::Recover`], truncates a damaged tail, reporting
//!   replayed/truncated/checksum-failed counts in the
//!   [`crate::persist::RecoveryReport`].

use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::column::Column;
use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::faults;
use crate::metrics;
use crate::page::u32_at;
use crate::parallel::locks::Mutex;
use crate::persist::{self, corrupt, DamagedTable, RecoveryMode, RecoveryReport};
use crate::schema::Schema;
use crate::table::Table;
use mlcs_pickle::crc::crc32;
use mlcs_pickle::{Reader, Writer};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the write-ahead log inside a durable directory.
pub const WAL_FILE: &str = "wal.mlcslog";

const WAL_MAGIC: &[u8; 8] = b"MLCSWAL1";

/// Upper bound on one record's payload — a defense against interpreting
/// garbage length bytes as a multi-gigabyte allocation.
const MAX_RECORD: usize = 1 << 30;

const OP_CREATE: u8 = 1;
const OP_DROP: u8 = 2;
const OP_APPEND: u8 = 3;
const OP_REPLACE: u8 = 5;
const OP_RETAIN: u8 = 6;
const OP_CHECKPOINT: u8 = 7;

/// One logged operation. A record holds every operation of one SQL
/// statement, so replay applies statements atomically.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// `CREATE TABLE` (also the first half of `CREATE TABLE AS`).
    CreateTable {
        /// Table name (lowercased, as the catalog stores it).
        name: String,
        /// The created schema.
        schema: Arc<Schema>,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Rows appended to a table (INSERT … VALUES / INSERT … SELECT, and
    /// the second half of `CREATE TABLE AS`) — model blobs included: a
    /// model row is an ordinary row.
    Append {
        /// Target table.
        table: String,
        /// The appended rows, self-describing.
        batch: Batch,
    },
    /// `UPDATE`: one column replaced wholesale.
    ReplaceColumn {
        /// Target table.
        table: String,
        /// Column position in the schema.
        col_idx: usize,
        /// The full replacement column, shared with the table once
        /// applied (logging it costs no deep copy).
        column: Arc<Column>,
    },
    /// `DELETE`: the surviving row indices, in order.
    Retain {
        /// Target table.
        table: String,
        /// Indices of the rows that remain.
        keep: Vec<u32>,
    },
    /// A checkpoint marker: state up to `upto` is folded into pages.
    /// Replay treats it as a no-op (the manifest watermark governs).
    Checkpoint {
        /// The folded-in LSN.
        upto: u64,
    },
}

impl WalOp {
    /// The table this op touches, for damage reports.
    fn table_name(&self) -> &str {
        match self {
            WalOp::CreateTable { name, .. } | WalOp::DropTable { name } => name,
            WalOp::Append { table, .. }
            | WalOp::ReplaceColumn { table, .. }
            | WalOp::Retain { table, .. } => table,
            WalOp::Checkpoint { .. } => "<checkpoint>",
        }
    }
}

/// Applies one operation — the only code that changes the catalog or a
/// table's contents, shared by live statements and replay.
///
/// A live DML statement derives its ops under the target table's write
/// guard and passes that guard as `held`, so the ops land on exactly the
/// state they were derived from; with `held` absent (replay, DDL) a
/// contents op takes the table's write lock itself.
pub(crate) fn apply(catalog: &Catalog, held: Option<&mut Table>, op: &WalOp) -> DbResult<()> {
    let on_table = |name: &str, change: &dyn Fn(&mut Table) -> DbResult<()>| match held {
        Some(table) => change(table),
        None => change(&mut catalog.table(name)?.write()),
    };
    match op {
        WalOp::CreateTable { name, schema } => catalog.create_table(name, schema.clone()),
        // Tolerant of a missing table: replay may meet the drop of a
        // table whose damaged base image was skipped.
        WalOp::DropTable { name } => catalog.drop_table(name, true),
        WalOp::Append { table, batch } => on_table(table, &|t| t.append_batch(batch)),
        WalOp::ReplaceColumn { table, col_idx, column } => {
            on_table(table, &|t| t.replace_column(*col_idx, column.clone()))
        }
        WalOp::Retain { table, keep } => on_table(table, &|t| {
            t.retain_indices(keep);
            Ok(())
        }),
        WalOp::Checkpoint { .. } => Ok(()),
    }
}

/// One decoded log record: an LSN and the ops of one statement.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The statement's operations, in application order.
    pub ops: Vec<WalOp>,
}

// ---- record codec --------------------------------------------------------

fn encode_op(op: &WalOp, w: &mut Writer) {
    match op {
        WalOp::CreateTable { name, schema } => {
            w.put_u8(OP_CREATE);
            w.put_str(name);
            persist::encode_schema(schema, w);
        }
        WalOp::DropTable { name } => {
            w.put_u8(OP_DROP);
            w.put_str(name);
        }
        WalOp::Append { table, batch } => {
            w.put_u8(OP_APPEND);
            w.put_str(table);
            persist::encode_batch(batch, w);
        }
        WalOp::ReplaceColumn { table, col_idx, column } => {
            w.put_u8(OP_REPLACE);
            w.put_str(table);
            w.put_varint(*col_idx as u64);
            w.put_u8(column.data_type().tag());
            w.put_varint(column.len() as u64);
            persist::encode_column(column, w);
        }
        WalOp::Retain { table, keep } => {
            w.put_u8(OP_RETAIN);
            w.put_str(table);
            w.put_u32_slice(keep);
        }
        WalOp::Checkpoint { upto } => {
            w.put_u8(OP_CHECKPOINT);
            w.put_u64(*upto);
        }
    }
}

fn decode_op(r: &mut Reader<'_>) -> DbResult<WalOp> {
    match r.get_u8().map_err(corrupt)? {
        OP_CREATE => {
            let name = r.get_str().map_err(corrupt)?.to_owned();
            Ok(WalOp::CreateTable { name, schema: persist::decode_schema(r)? })
        }
        OP_DROP => Ok(WalOp::DropTable { name: r.get_str().map_err(corrupt)?.to_owned() }),
        OP_APPEND => {
            let table = r.get_str().map_err(corrupt)?.to_owned();
            Ok(WalOp::Append { table, batch: persist::decode_batch(r)? })
        }
        OP_REPLACE => {
            let table = r.get_str().map_err(corrupt)?.to_owned();
            let col_idx = r.get_varint().map_err(corrupt)? as usize;
            let tag = r.get_u8().map_err(corrupt)?;
            let rows = r.get_varint().map_err(corrupt)?;
            let column = Arc::new(persist::decode_column(tag, rows, r)?);
            Ok(WalOp::ReplaceColumn { table, col_idx, column })
        }
        OP_RETAIN => {
            let table = r.get_str().map_err(corrupt)?.to_owned();
            let keep = r.get_u32_vec().map_err(corrupt)?;
            Ok(WalOp::Retain { table, keep })
        }
        OP_CHECKPOINT => Ok(WalOp::Checkpoint { upto: r.get_u64().map_err(corrupt)? }),
        other => Err(DbError::Corrupt(format!("unknown WAL op tag {other}"))),
    }
}

/// Frames one record: `[u32 len][u32 crc32][u64 lsn][varint nops][ops…]`.
fn encode_record(lsn: u64, ops: &[WalOp]) -> Vec<u8> {
    let mut body = Writer::new();
    body.put_u64(lsn);
    body.put_varint(ops.len() as u64);
    for op in ops {
        encode_op(op, &mut body);
    }
    let payload = body.into_bytes();
    let mut out = Writer::with_capacity(payload.len() + 8);
    out.put_u32(payload.len() as u32);
    out.put_u32(crc32(&payload));
    out.put_raw(&payload);
    out.into_bytes()
}

fn decode_payload(payload: &[u8]) -> DbResult<WalRecord> {
    let mut r = Reader::new(payload);
    let lsn = r.get_u64().map_err(corrupt)?;
    let nops = r.get_count(1).map_err(corrupt)?;
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        ops.push(decode_op(&mut r)?);
    }
    r.expect_exhausted().map_err(corrupt)?;
    Ok(WalRecord { lsn, ops })
}

// ---- log scan ------------------------------------------------------------

/// The result of scanning a log image: the intact record prefix, where it
/// ends, and why scanning stopped early (if it did).
struct LogScan {
    records: Vec<WalRecord>,
    /// Byte length of the intact prefix (magic included).
    valid_len: u64,
    /// Highest LSN among the intact records.
    last_lsn: u64,
    /// `Some(reason)` when bytes past `valid_len` are damaged.
    damage: Option<String>,
}

/// Parses a log image front to back, stopping at the first frame that is
/// truncated, checksum-damaged, or undecodable. Everything before the
/// stop is trustworthy (each frame passed its CRC); everything after is
/// tail damage.
fn scan_log(bytes: &[u8]) -> LogScan {
    let mut scan = LogScan { records: Vec::new(), valid_len: 0, last_lsn: 0, damage: None };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        scan.damage = Some("missing or damaged log header".into());
        return scan;
    }
    let mut pos = WAL_MAGIC.len();
    scan.valid_len = pos as u64;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            scan.damage = Some("torn frame header at end of log".into());
            return scan;
        }
        let len = u32_at(bytes, pos) as usize;
        let stored_crc = u32_at(bytes, pos + 4);
        if len > MAX_RECORD || bytes.len() - pos - 8 < len {
            scan.damage = Some(format!(
                "record at offset {pos} claims {len} bytes past the end of the log (torn tail)"
            ));
            return scan;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        let computed = crc32(payload);
        if stored_crc != computed {
            scan.damage = Some(format!(
                "record at offset {pos} failed its checksum ({stored_crc:#x} != {computed:#x})"
            ));
            return scan;
        }
        match decode_payload(payload) {
            Ok(rec) if rec.lsn > scan.last_lsn => {
                scan.last_lsn = rec.lsn;
                scan.records.push(rec);
            }
            Ok(rec) => {
                scan.damage = Some(format!(
                    "record at offset {pos} has non-monotonic LSN {} (last {})",
                    rec.lsn, scan.last_lsn
                ));
                return scan;
            }
            Err(e) => {
                scan.damage = Some(format!("record at offset {pos} is undecodable: {e}"));
                return scan;
            }
        }
        pos += 8 + len;
        scan.valid_len = pos as u64;
    }
    scan
}

// ---- the log writer ------------------------------------------------------

#[derive(Debug)]
struct WalInner {
    file: std::fs::File,
    /// Durable length of the intact log prefix; appends start here.
    len: u64,
    /// LSN the next record will carry.
    next_lsn: u64,
    /// Cleared when a checkpoint's log reset fails mid-way: the in-memory
    /// offsets can no longer be trusted, so appends refuse until reopen.
    healthy: bool,
}

/// The append side of the write-ahead log. One `Wal` serializes all
/// commits through an internal mutex; clones of the owning [`Database`]
/// share it.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// Opens (creating if absent) the log in `dir` and positions the
    /// writer after the last intact record. A damaged tail is an error
    /// here: run a recovering [`persist::load_database_with`] first — it
    /// truncates the tail — or use [`Database::open_durable`], which does.
    ///
    /// LSN issue resumes past *both* the last intact record and the
    /// manifest's checkpoint watermark. The watermark matters when the
    /// log alone undersells history: a crash in the middle of a
    /// checkpoint's log reset (or a recovery that truncated the log back
    /// to a bare header) leaves few or no records on disk, yet the
    /// manifest proves LSNs up to the watermark were already spent —
    /// reissuing them would make later acknowledged commits invisible to
    /// replay, which skips everything at or below the watermark.
    pub fn open(dir: &Path) -> DbResult<Wal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        if !path.exists() {
            reset_log(&mut std::fs::File::create(&path)?, &[])?;
            persist::sync_dir(dir)?;
        }
        let bytes = std::fs::read(&path)?;
        let scan = scan_log(&bytes);
        if let Some(reason) = scan.damage {
            return Err(DbError::Corrupt(format!(
                "write-ahead log has a damaged tail ({reason}); recover with \
                 load_database_with(RecoveryMode::Recover) or Database::open_durable first"
            )));
        }
        let watermark = persist::checkpoint_watermark(dir)?;
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&path)?;
        Ok(Wal {
            path,
            inner: Mutex::new(WalInner {
                file,
                len: scan.valid_len,
                next_lsn: scan.last_lsn.max(watermark) + 1,
                healthy: true,
            }),
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record holding `ops` and fsyncs it — the commit point
    /// of a durable statement. Returns the record's LSN.
    ///
    /// On error the file is left exactly as a crash would leave it (a
    /// torn suffix past the intact prefix, which the next recovery — or
    /// the next successful append, by overwriting — disposes of), and
    /// the in-memory offsets stay on the intact prefix: the statement
    /// was not acknowledged and will not survive a restart.
    pub fn append(&self, ops: &[WalOp]) -> DbResult<u64> {
        let mut inner = self.inner.lock();
        if !inner.healthy {
            return Err(DbError::Io(
                "write-ahead log is failed (a checkpoint could not reset it); \
                 reopen the database to recover"
                    .into(),
            ));
        }
        let lsn = inner.next_lsn;
        let frame = encode_record(lsn, ops);
        let at = inner.len;
        inner.file.seek(SeekFrom::Start(at))?;
        faults::write_file_at("wal.append", &mut inner.file, &frame)?;
        faults::check_point("wal.fsync")?;
        faults::sync_file_at("fs.fsync", &inner.file)?;
        inner.len = at + frame.len() as u64;
        inner.next_lsn = lsn + 1;
        metrics::counter("wal.appends").incr();
        metrics::counter("wal.bytes").add(frame.len() as u64);
        metrics::counter("wal.fsyncs").incr();
        Ok(lsn)
    }
}

// ---- checkpointing -------------------------------------------------------

/// Rewrites `file` as a fresh log: the header, then `frame` (one encoded
/// record, or nothing), fsynced. The one place a log header is written.
fn reset_log(file: &mut std::fs::File, frame: &[u8]) -> DbResult<()> {
    file.set_len(0)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(WAL_MAGIC)?;
    file.write_all(frame)?;
    file.sync_all()?;
    Ok(())
}

/// Folds the log into the page base and truncates it: the one snapshot
/// writer (`persist::write_snapshot`) cuts every table at the log's last
/// LSN and commits the manifest carrying it, then the log is reset to a
/// fresh header plus a [`WalOp::Checkpoint`] marker.
///
/// The whole fold runs under the log mutex, so commits are fenced for
/// its duration — stop-the-world, by design: the snapshot is cut at one
/// LSN. Page files carry that LSN in their name, so until the manifest
/// rename the fresh generation is invisible: a crash anywhere during the
/// fold leaves the previous manifest pointing at its own (untouched)
/// generation, and replay past the *old* watermark stays correct —
/// snapshots that already contain post-watermark effects can never be
/// paired with the old watermark. A crash after the manifest commit but
/// before the log reset is equally harmless: every old record's LSN is
/// at or below the new watermark, so replay skips them (idempotent redo).
pub fn checkpoint(db: &Database, dir: &Path, wal: &Wal) -> DbResult<()> {
    let mut inner = wal.inner.lock();
    let upto = inner.next_lsn - 1;
    // The manifest's checkpoint LSN makes the fold visible — page files
    // are named by it — and obsoletes every record at or below it.
    persist::write_snapshot(db, dir, upto)?;
    // Reset the log. Failures past this line poison the writer (offsets
    // can no longer be trusted); a reopen recovers via the watermark.
    inner.healthy = false;
    let lsn = inner.next_lsn;
    let frame = encode_record(lsn, &[WalOp::Checkpoint { upto }]);
    reset_log(&mut inner.file, &frame)?;
    inner.len = (WAL_MAGIC.len() + frame.len()) as u64;
    inner.next_lsn = lsn + 1;
    inner.healthy = true;
    metrics::counter("wal.checkpoints").incr();
    Ok(())
}

// ---- recovery ------------------------------------------------------------

/// Replays the log at `path` into `db`, skipping records at or below the
/// `watermark` LSN (idempotent redo). Damaged tails are fatal in
/// [`RecoveryMode::Strict`]; in [`RecoveryMode::Recover`] they are
/// physically truncated (so the next open is clean), counted once on
/// `persist.truncated_tail`, and reported as discarded bytes. Each
/// applied record ticks `persist.replayed_records`.
pub(crate) fn recover_into(
    db: &Database,
    path: &Path,
    watermark: u64,
    mode: RecoveryMode,
    report: &mut RecoveryReport,
) -> DbResult<()> {
    let bytes = std::fs::read(path)?;
    let scan = scan_log(&bytes);
    if let Some(reason) = scan.damage {
        if mode == RecoveryMode::Strict {
            return Err(DbError::Corrupt(format!("write-ahead log damaged: {reason}")));
        }
        let discarded = bytes.len() as u64 - scan.valid_len;
        truncate_log(path, scan.valid_len)?;
        metrics::counter("persist.truncated_tail").incr();
        report.truncated_tail += discarded;
    }
    for rec in &scan.records {
        if rec.lsn <= watermark {
            continue;
        }
        match rec.ops.iter().try_for_each(|op| apply(db.catalog(), None, op)) {
            Ok(()) => {
                metrics::counter("persist.replayed_records").incr();
                report.replayed_records += 1;
            }
            Err(e) if mode == RecoveryMode::Recover => {
                // Usually an op aimed at a table whose base image was
                // damaged and skipped; the statement is lost with it.
                let name = rec.ops.first().map(WalOp::table_name).unwrap_or("<empty>");
                report.damaged.push(DamagedTable {
                    name: name.to_owned(),
                    reason: format!("log record lsn {} not applied: {e}", rec.lsn),
                });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Cuts the log back to its intact prefix. A prefix shorter than the
/// header means the header itself was damaged: rewrite a fresh one.
fn truncate_log(path: &Path, valid_len: u64) -> DbResult<()> {
    let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
    if valid_len < WAL_MAGIC.len() as u64 {
        return reset_log(&mut file, &[]);
    }
    file.set_len(valid_len)?;
    file.sync_all()?;
    Ok(())
}

/// Replays a [`Table`]'s worth of appended batches — exposed for benches
/// that want the raw replay cost without a full database open.
#[doc(hidden)]
pub fn scan_records_for_bench(bytes: &[u8]) -> (usize, u64) {
    let scan = scan_log(bytes);
    (scan.records.len(), scan.valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::Value;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlcs_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn batch_of(vals: &[i64]) -> Batch {
        Batch::from_columns(vec![("v", Column::from_i64s(vals.to_vec()))]).unwrap()
    }

    #[test]
    fn record_round_trips() {
        let schema =
            Arc::new(Schema::new(vec![Field::new("v", crate::types::DataType::Int64)]).unwrap());
        let ops = vec![
            WalOp::CreateTable { name: "t".into(), schema },
            WalOp::Append { table: "t".into(), batch: batch_of(&[1, 2, 3]) },
            WalOp::ReplaceColumn {
                table: "t".into(),
                col_idx: 0,
                column: Arc::new(Column::from_i64s(vec![9, 8, 7])),
            },
            WalOp::Retain { table: "t".into(), keep: vec![0, 2] },
            WalOp::Checkpoint { upto: 41 },
        ];
        let frame = encode_record(42, &ops);
        let rec = decode_payload(&frame[8..]).unwrap();
        assert_eq!(rec.lsn, 42);
        assert_eq!(rec.ops.len(), 5);
        assert!(matches!(&rec.ops[4], WalOp::Checkpoint { upto: 41 }));
    }

    /// A model row takes the same one record shape as any other row: a
    /// BLOB column rides in an ordinary `Append` and survives the codec.
    #[test]
    fn blob_batches_log_as_ordinary_appends() {
        let batch =
            Batch::from_columns(vec![("m", Column::from_blobs([&[1u8, 2, 3][..]]))]).unwrap();
        let frame = encode_record(1, &[WalOp::Append { table: "t".into(), batch: batch.clone() }]);
        match &decode_payload(&frame[8..]).unwrap().ops[0] {
            WalOp::Append { table, batch: back } => {
                assert_eq!(table, "t");
                assert_eq!(back, &batch);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    /// A record whose CRC checks out but whose row count is forged must
    /// decode to a typed error before anything is allocated for it — both
    /// in an append's batch and in an update's replacement column.
    #[test]
    fn forged_row_count_is_corrupt_not_a_panic() {
        let mut forged_append = Writer::new();
        forged_append.put_u8(OP_APPEND);
        forged_append.put_str("t");
        let schema = Schema::new(vec![Field::new("v", crate::types::DataType::Int64)]).unwrap();
        persist::encode_schema(&schema, &mut forged_append);
        forged_append.put_varint(1 << 60); // rows
        forged_append.put_bool(false); // no validity; no data follows

        let mut forged_replace = Writer::new();
        forged_replace.put_u8(OP_REPLACE);
        forged_replace.put_str("t");
        forged_replace.put_varint(0); // col_idx
        forged_replace.put_u8(crate::types::DataType::Int64.tag());
        forged_replace.put_varint(1 << 60); // rows
        forged_replace.put_bool(true); // validity follows: the bitmap allocation
        forged_replace.put_bytes(&[0xFF]);

        for op in [forged_append.into_bytes(), forged_replace.into_bytes()] {
            let mut body = Writer::new();
            body.put_u64(1); // lsn
            body.put_varint(1); // nops
            body.put_raw(&op);
            let err = decode_payload(&body.into_bytes()).unwrap_err();
            assert!(matches!(err, DbError::Corrupt(_)), "got {err:?}");
        }
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let dir = tempdir("scan");
        let wal = Wal::open(&dir).unwrap();
        wal.append(&[WalOp::Retain { table: "t".into(), keep: vec![1] }]).unwrap();
        wal.append(&[WalOp::Retain { table: "t".into(), keep: vec![2] }]).unwrap();
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let intact = scan_log(&bytes);
        assert_eq!(intact.records.len(), 2);
        assert_eq!(intact.last_lsn, 2);
        assert!(intact.damage.is_none());
        // Tear the second record: its bytes survive only partially.
        bytes.truncate(bytes.len() - 3);
        let torn = scan_log(&bytes);
        assert_eq!(torn.records.len(), 1, "only the intact record survives");
        assert!(torn.damage.is_some());
        // Flip a byte inside the first record: nothing survives.
        let mut flipped = std::fs::read(dir.join(WAL_FILE)).unwrap();
        flipped[12] ^= 0xFF;
        let f = scan_log(&flipped);
        assert_eq!(f.records.len(), 0);
        assert!(f.damage.unwrap().contains("checksum"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_lsn_sequence() {
        let dir = tempdir("resume");
        {
            let wal = Wal::open(&dir).unwrap();
            assert_eq!(wal.append(&[WalOp::Checkpoint { upto: 0 }]).unwrap(), 1);
            assert_eq!(wal.append(&[WalOp::Checkpoint { upto: 0 }]).unwrap(), 2);
        }
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.append(&[WalOp::Checkpoint { upto: 0 }]).unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_and_truncates() {
        let dir = tempdir("ckpt");
        let db = Database::new();
        db.execute("CREATE TABLE t (v BIGINT)").unwrap();
        let wal = Wal::open(&dir).unwrap();
        let schema = db.catalog().table("t").unwrap().read().schema().clone();
        wal.append(&[WalOp::CreateTable { name: "t".into(), schema }]).unwrap();
        db.execute("INSERT INTO t VALUES (7)").unwrap();
        wal.append(&[WalOp::Append { table: "t".into(), batch: batch_of(&[7]) }]).unwrap();
        let log_len = || std::fs::metadata(wal.path()).unwrap().len();
        let before_len = log_len();
        checkpoint(&db, &dir, &wal).unwrap();
        assert!(log_len() < before_len, "log shrank to header + marker");
        // Two records were appended, so the fold is cut at LSN 2 and the
        // snapshot lands in a page file versioned by that watermark.
        assert!(dir.join("t.2.mlcspg").exists());
        // A fresh load needs no replay: the marker record is a no-op.
        let db2 = Database::new();
        let report = persist::load_database_with(&db2, &dir, RecoveryMode::Recover).unwrap();
        assert_eq!(report.replayed_records, 1, "only the checkpoint marker replays");
        assert_eq!(
            db2.query_value("SELECT v FROM t").unwrap(),
            Value::Int64(7),
            "page base carries the data"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
