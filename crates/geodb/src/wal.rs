//! Write-ahead log, checkpoints and crash recovery for [`DbStore`].
//!
//! The store's epoch publish (`crates/geodb/src/store.rs`) is purely
//! in-memory: correct under concurrency, gone on crash. This module adds
//! the durability half of the write path:
//!
//! * **WAL** — an append-only file of length-prefixed, checksummed
//!   frames. Each frame carries one [`WalRecord::Commit`]-shaped record:
//!   the committed epoch, the OID allocator position, the event batch
//!   the active mechanism saw, and the *redo operations* (post-image
//!   upserts / deletes / schema registrations) that rebuild the commit
//!   on replay. Events alone are not enough — a `DbEvent` names the
//!   touched object but not its values, so the writer captures final
//!   images from the snapshot it publishes.
//! * **Checkpoints** — the existing `snapshot.rs` JSON serializer,
//!   written atomically (`.tmp` + rename) next to a small meta document
//!   recording the checkpoint epoch and OID allocator. A checkpoint
//!   truncates the log: every record it covers is dropped.
//! * **Recovery** — load the newest checkpoint, replay the WAL tail in
//!   epoch order, truncate any torn or corrupt tail frame (crash while
//!   appending) instead of failing, and resume a [`DbStore`] at the
//!   last durable epoch. Replay is idempotent (upserts write final
//!   images, deletes tolerate absence, duplicate schema registrations
//!   are skipped), so the one benign crash window — between the
//!   checkpoint document rename and the meta rename — only causes a
//!   harmless double-replay, never loss.
//!
//! Crash points are modelled with `faultsim` failpoints (`wal.append`,
//! `wal.fsync`, `db.publish`); see those arms in [`Wal::append_frame`]
//! and [`Wal::sync`] for the exact on-disk state each one leaves behind.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::db::Database;
use crate::epoch::Epoch;
use crate::error::{GeoDbError, Result, SnapshotCause};
use crate::instance::{Instance, Oid};
use crate::query::DbEvent;
use crate::schema::SchemaDef;
use crate::snapshot;
use crate::store::DbStore;
use crate::walcodec;

/// Log file name inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";
/// Checkpoint snapshot document (the `snapshot.rs` format, unchanged).
pub const CHECKPOINT_FILE: &str = "checkpoint.json";
/// Checkpoint sidecar: `{version, epoch, next_oid}`.
pub const CHECKPOINT_META_FILE: &str = "checkpoint.meta.json";

const WAL_MAGIC: &[u8; 8] = b"GEODBWAL";
/// Current on-disk version. Version 1 logs held JSON frames only;
/// version 2 adds binary frames (`walcodec`). Frames are sniffed per
/// record, so readers accept both versions and a single log may mix
/// formats (e.g. a v1 log reopened by a binary-writing store).
const WAL_VERSION: u32 = 2;
/// Oldest version this build still reads.
const WAL_MIN_VERSION: u32 = 1;
/// Magic + version.
const FILE_HEADER_LEN: u64 = 12;
/// Payload length (u32 le) + payload checksum (u64 le).
const FRAME_HEADER_LEN: usize = 12;
/// A length prefix beyond this is tail corruption, not an allocation
/// request.
const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// FNV-1a 64 — dependency-free, stable across platforms, strong enough
/// to catch torn writes and bit rot in a length-prefixed frame.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Record format
// ---------------------------------------------------------------------------

/// One redo operation inside a commit record. Ops are *post-images*:
/// replay writes the final state of each touched object, making replay
/// idempotent regardless of how many intra-write mutations produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// A schema registered during the write.
    Schema { def: SchemaDef },
    /// Final image of an object that exists after the write.
    Upsert { schema: String, instance: Instance },
    /// An object that no longer exists after the write.
    Delete { oid: Oid },
}

/// One committed write, as framed into the log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Epoch this commit published (or would have published).
    pub epoch: Epoch,
    /// OID allocator position *after* the write — snapshots alone can't
    /// restore it (delete the highest OID, crash, and the counter would
    /// rewind).
    pub next_oid: u64,
    /// The event batch the active mechanism observed.
    pub events: Vec<DbEvent>,
    /// Redo operations rebuilding the commit on replay.
    pub ops: Vec<WalOp>,
}

/// Which encoding newly appended records use. Readers never consult
/// this — each frame's payload is sniffed by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalFormat {
    /// Human-greppable JSON, the version-1 format.
    Json,
    /// Compact binary frames (`walcodec`): varint integers and an
    /// interned string table, typically 2-4x smaller than JSON.
    #[default]
    Binary,
}

/// Encode a record into a frame payload (JSON bytes).
pub fn encode_payload(rec: &WalRecord) -> Result<Vec<u8>> {
    serde_json::to_string(rec)
        .map(String::into_bytes)
        .map_err(|e| GeoDbError::Storage(format!("encode wal record: {e}")))
}

/// Encode a record into a frame payload in the requested format.
pub fn encode_payload_with(rec: &WalRecord, format: WalFormat) -> Result<Vec<u8>> {
    match format {
        WalFormat::Json => encode_payload(rec),
        WalFormat::Binary => Ok(walcodec::encode_record(rec)),
    }
}

/// Decode one frame payload, sniffing the format from its first byte:
/// `0x01` is a binary frame, anything else is parsed as JSON. `None`
/// means the payload is malformed in either format — the scan treats
/// that as a torn tail.
pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    if payload.first() == Some(&walcodec::BINARY_MARKER) {
        walcodec::decode_record(payload)
    } else {
        std::str::from_utf8(payload)
            .ok()
            .and_then(|t| serde_json::from_str::<WalRecord>(t).ok())
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CheckpointMeta {
    pub(crate) version: u32,
    pub(crate) epoch: Epoch,
    pub(crate) next_oid: u64,
}

/// Load and version-check the checkpoint sidecar of a WAL directory
/// (recovery and replica promotion both start here).
pub(crate) fn load_checkpoint_meta(dir: &Path) -> Result<CheckpointMeta> {
    let meta_path = dir.join(CHECKPOINT_META_FILE);
    let meta_json = fs::read_to_string(&meta_path).map_err(|e| {
        GeoDbError::snapshot_load(
            format!("read {meta_path:?}"),
            SnapshotCause::Io(e.to_string()),
        )
    })?;
    let meta: CheckpointMeta = serde_json::from_str(&meta_json).map_err(|e| {
        GeoDbError::snapshot_load(
            format!("parse {meta_path:?}"),
            SnapshotCause::Json(e.to_string()),
        )
    })?;
    if !(WAL_MIN_VERSION..=WAL_VERSION).contains(&meta.version) {
        return Err(GeoDbError::snapshot_load(
            format!("parse {meta_path:?}"),
            SnapshotCause::Format(format!(
                "unsupported checkpoint version {} (expected {WAL_MIN_VERSION}..={WAL_VERSION})",
                meta.version
            )),
        ));
    }
    Ok(meta)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Durability tuning for one WAL directory.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal.log` + checkpoint files.
    pub dir: PathBuf,
    /// How long a group-commit leader waits for concurrent writers to
    /// join its batch before flushing. Zero flushes immediately; the
    /// leader only waits when other writers are already inside `write`.
    pub group_window: Duration,
    /// fsync on every group commit (disable only in benchmarks that
    /// factor the filesystem out).
    pub fsync: bool,
    /// Auto-checkpoint after this many appended records (0 = manual).
    pub checkpoint_every: u64,
    /// Encoding for newly appended records. Reading always sniffs per
    /// frame, so changing this mid-log is safe.
    pub record_format: WalFormat,
}

impl WalConfig {
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            group_window: Duration::ZERO,
            fsync: true,
            checkpoint_every: 0,
            record_format: WalFormat::default(),
        }
    }

    pub fn group_window(mut self, w: Duration) -> WalConfig {
        self.group_window = w;
        self
    }

    pub fn fsync(mut self, on: bool) -> WalConfig {
        self.fsync = on;
        self
    }

    pub fn checkpoint_every(mut self, n: u64) -> WalConfig {
        self.checkpoint_every = n;
        self
    }

    pub fn record_format(mut self, f: WalFormat) -> WalConfig {
        self.record_format = f;
        self
    }
}

// ---------------------------------------------------------------------------
// Wal — the open log
// ---------------------------------------------------------------------------

/// Counters and positions of an attached WAL, for `:wal` and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalStatus {
    pub path: PathBuf,
    /// Records appended since open (not counting replayed history).
    pub records: u64,
    /// Sum of encoded payload sizes appended since open (frame headers
    /// excluded) — the number the JSON-vs-binary comparison reads.
    pub payload_bytes: u64,
    /// Logical file length (end of the last complete frame).
    pub bytes: u64,
    /// Durable prefix length (confirmed by fsync).
    pub synced_bytes: u64,
    pub fsyncs: u64,
    /// Group commits flushed and the largest batch seen.
    pub groups: u64,
    pub max_group: u64,
    pub checkpoint_epoch: Epoch,
}

/// An open, append-only write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    dir: PathBuf,
    config: WalConfig,
    len: u64,
    synced_len: u64,
    records: u64,
    payload_bytes: u64,
    records_since_checkpoint: u64,
    fsyncs: u64,
    groups: u64,
    max_group: u64,
    checkpoint_epoch: Epoch,
}

fn io_error(op: &str, path: &Path, e: &std::io::Error) -> GeoDbError {
    GeoDbError::Storage(format!("{op} {path:?}: {e}"))
}

fn write_file_header(path: &Path) -> Result<()> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| io_error("create", path, &e))?;
    f.write_all(WAL_MAGIC)
        .and_then(|()| f.write_all(&WAL_VERSION.to_le_bytes()))
        .and_then(|()| f.sync_data())
        .map_err(|e| io_error("init", path, &e))
}

/// Write `bytes` to `path` atomically (`.tmp` + fsync + rename).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_error("create", &tmp, &e))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_data())
        .map_err(|e| io_error("write", &tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_error("rename", &tmp, &e))
}

impl Wal {
    /// Create a fresh (empty) log in `config.dir`, creating the
    /// directory if needed. Any existing log is truncated — callers
    /// wanting recovery go through [`recover`] / [`open`] instead.
    pub fn create(config: WalConfig) -> Result<Wal> {
        fs::create_dir_all(&config.dir).map_err(|e| io_error("mkdir", &config.dir, &e))?;
        let path = config.dir.join(WAL_FILE);
        write_file_header(&path)?;
        Self::open_at(config, FILE_HEADER_LEN, Epoch::ZERO)
    }

    /// Open an existing, already-validated log for appending at
    /// `valid_len` (recovery truncates to that length first).
    fn open_at(config: WalConfig, valid_len: u64, checkpoint_epoch: Epoch) -> Result<Wal> {
        let path = config.dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_error("open", &path, &e))?;
        let dir = config.dir.clone();
        Ok(Wal {
            file,
            path,
            dir,
            config,
            len: valid_len,
            synced_len: valid_len,
            records: 0,
            payload_bytes: 0,
            records_since_checkpoint: 0,
            fsyncs: 0,
            groups: 0,
            max_group: 0,
            checkpoint_epoch,
        })
    }

    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Append one framed record. Does *not* sync — the group-commit
    /// leader calls [`Wal::sync`] once per batch.
    pub fn append_frame(&mut self, payload: &[u8]) -> Result<()> {
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Err(f) = faultsim::fire("wal.append") {
            // Crash model: the write was cut mid-frame — half the frame
            // reached disk, the rest never will. Recovery must detect
            // and truncate this torn tail.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_data();
            return Err(GeoDbError::Storage(f.to_string()));
        }
        self.file
            .write_all(&frame)
            .map_err(|e| io_error("append", &self.path, &e))?;
        self.len += frame.len() as u64;
        self.records += 1;
        self.payload_bytes += payload.len() as u64;
        self.records_since_checkpoint += 1;
        Ok(())
    }

    /// Make everything appended so far durable.
    pub fn sync(&mut self) -> Result<()> {
        if let Err(f) = faultsim::fire("wal.fsync") {
            // Crash model: the process died before fsync — bytes
            // appended since the last sync never became durable. Drop
            // them so recovery sees exactly what a real crash would.
            let _ = self.file.set_len(self.synced_len);
            self.len = self.synced_len;
            return Err(GeoDbError::Storage(f.to_string()));
        }
        if self.config.fsync {
            self.file
                .sync_data()
                .map_err(|e| io_error("fsync", &self.path, &e))?;
        }
        self.synced_len = self.len;
        self.fsyncs += 1;
        Ok(())
    }

    /// Record one flushed group of `n` commits (status/metrics).
    pub fn note_group(&mut self, n: u64) {
        self.groups += 1;
        self.max_group = self.max_group.max(n);
    }

    /// Has `checkpoint_every` elapsed since the last checkpoint?
    pub fn should_checkpoint(&self) -> bool {
        self.config.checkpoint_every > 0
            && self.records_since_checkpoint >= self.config.checkpoint_every
    }

    /// Write a checkpoint (snapshot document + meta) and truncate the
    /// log — every record the checkpoint covers is dropped. The snapshot
    /// document renames *before* the meta: replay is idempotent, so a
    /// crash between the two renames causes harmless double-replay,
    /// never loss.
    pub fn checkpoint(&mut self, snapshot_json: &str, epoch: Epoch, next_oid: u64) -> Result<()> {
        let _span = obs::span("db.checkpoint");
        write_atomic(&self.dir.join(CHECKPOINT_FILE), snapshot_json.as_bytes())?;
        let meta = CheckpointMeta {
            version: WAL_VERSION,
            epoch,
            next_oid,
        };
        let meta_json = serde_json::to_string_pretty(&meta)
            .map_err(|e| GeoDbError::Storage(format!("encode checkpoint meta: {e}")))?;
        write_atomic(&self.dir.join(CHECKPOINT_META_FILE), meta_json.as_bytes())?;
        write_file_header(&self.path)?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_error("reopen", &self.path, &e))?;
        self.len = FILE_HEADER_LEN;
        self.synced_len = FILE_HEADER_LEN;
        self.checkpoint_epoch = epoch;
        self.records_since_checkpoint = 0;
        if obs::enabled() {
            obs::counter_add("db.wal_checkpoints", 1);
        }
        Ok(())
    }

    pub fn status(&self) -> WalStatus {
        WalStatus {
            path: self.path.clone(),
            records: self.records,
            payload_bytes: self.payload_bytes,
            bytes: self.len,
            synced_bytes: self.synced_len,
            fsyncs: self.fsyncs,
            groups: self.groups,
            max_group: self.max_group,
            checkpoint_epoch: self.checkpoint_epoch,
        }
    }
}

// ---------------------------------------------------------------------------
// Reading + replay
// ---------------------------------------------------------------------------

/// Result of scanning a log file: every intact record plus where (and
/// why) the valid prefix ends.
#[derive(Debug)]
pub struct WalReadReport {
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix (file header + complete frames). Less
    /// than the file header length means the header itself is torn.
    pub valid_len: u64,
    /// Bytes past the valid prefix (torn/corrupt tail to truncate).
    pub truncated_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub torn: Option<String>,
}

/// Scan a log file. Corruption *in the tail* (short frame, checksum or
/// parse failure) terminates the scan but is not an error — the caller
/// truncates. A well-formed header with the wrong magic or version *is*
/// an error: that file is not ours to truncate.
pub fn read_wal(path: &Path) -> Result<WalReadReport> {
    let bytes = fs::read(path).map_err(|e| {
        GeoDbError::snapshot_load(format!("read {path:?}"), SnapshotCause::Io(e.to_string()))
    })?;
    if bytes.len() < FILE_HEADER_LEN as usize {
        return Ok(WalReadReport {
            records: Vec::new(),
            valid_len: 0,
            truncated_bytes: bytes.len() as u64,
            torn: Some("torn file header".into()),
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(GeoDbError::snapshot_load(
            format!("read {path:?}"),
            SnapshotCause::Format("bad WAL magic".into()),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(WAL_MIN_VERSION..=WAL_VERSION).contains(&version) {
        return Err(GeoDbError::snapshot_load(
            format!("read {path:?}"),
            SnapshotCause::Format(format!(
                "unsupported WAL version {version} (expected {WAL_MIN_VERSION}..={WAL_VERSION})"
            )),
        ));
    }
    let mut off = FILE_HEADER_LEN as usize;
    let mut records = Vec::new();
    let mut torn = None;
    while off < bytes.len() {
        if bytes.len() - off < FRAME_HEADER_LEN {
            torn = Some("short frame header".into());
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            torn = Some(format!("implausible frame length {len}"));
            break;
        }
        let sum = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().expect("8 bytes"));
        let start = off + FRAME_HEADER_LEN;
        if bytes.len() - start < len as usize {
            torn = Some("short frame payload".into());
            break;
        }
        let payload = &bytes[start..start + len as usize];
        if checksum(payload) != sum {
            torn = Some("frame checksum mismatch".into());
            break;
        }
        match decode_payload(payload) {
            Some(rec) => records.push(rec),
            None => {
                torn = Some("frame payload does not parse".into());
                break;
            }
        }
        off = start + len as usize;
    }
    Ok(WalReadReport {
        records,
        valid_len: off as u64,
        truncated_bytes: (bytes.len() - off) as u64,
        torn,
    })
}

/// Replay one record's redo operations onto a database, then restore
/// its OID allocator position. Idempotent: re-applying a record the
/// state already reflects is a no-op.
pub fn apply_record(db: &mut Database, rec: &WalRecord) -> Result<()> {
    for op in &rec.ops {
        apply_op(db, op)?;
    }
    db.set_next_oid(rec.next_oid);
    Ok(())
}

fn apply_op(db: &mut Database, op: &WalOp) -> Result<()> {
    match op {
        WalOp::Schema { def } => match db.register_schema(def.clone()) {
            // Double replay after a checkpoint crash window.
            Err(GeoDbError::Duplicate(_)) => Ok(()),
            r => r,
        },
        // Replace wholesale, in place: `update` merges listed
        // attributes, but the post-image is authoritative (an optional
        // attribute absent from it must end up absent), and the row keeps
        // its position in the extension.
        WalOp::Upsert { schema, instance } => db.put_post_image(schema, instance.clone()),
        WalOp::Delete { oid } => {
            if db.locate(*oid).is_some() {
                db.delete(*oid)
            } else {
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What a recovery did, for logs, metrics and assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    pub checkpoint_epoch: Epoch,
    pub replayed_records: u64,
    /// The epoch the store resumes at: the last durable commit.
    pub recovered_epoch: Epoch,
    /// Torn/corrupt tail bytes truncated from the log.
    pub truncated_bytes: u64,
    /// Why the tail was cut, when it was.
    pub torn: Option<String>,
    pub next_oid: u64,
}

/// Outcome of [`replay_tail`]: how far the state advanced, what was
/// cut, and the log reopened for appending.
pub(crate) struct TailReplay {
    /// Highest epoch applied (`after` if the tail held nothing newer).
    pub(crate) epoch: Epoch,
    pub(crate) replayed: u64,
    pub(crate) truncated_bytes: u64,
    pub(crate) torn: Option<String>,
    pub(crate) wal: Wal,
}

/// Replay every WAL record with epoch > `after` onto `db`, truncate any
/// torn or corrupt tail, and reopen the log for appending. This is the
/// shared tail machinery of crash recovery (`after` = checkpoint epoch)
/// and replica promotion (`after` = the replica's applied epoch, which
/// may be far past the checkpoint).
pub(crate) fn replay_tail(
    db: &mut Database,
    config: WalConfig,
    after: Epoch,
    checkpoint_epoch: Epoch,
) -> Result<TailReplay> {
    let dir = config.dir.clone();
    let mut epoch = after;
    let mut replayed = 0u64;
    let mut truncated = 0u64;
    let mut torn = None;
    let wal_path = dir.join(WAL_FILE);
    if wal_path.exists() {
        let report = read_wal(&wal_path)?;
        for rec in &report.records {
            // Records at or below `after` are already reflected in the
            // base state (checkpoint document or applied replica epoch —
            // the double-replay window); later ones rebuild the tail.
            if rec.epoch <= after {
                continue;
            }
            apply_record(db, rec)?;
            epoch = rec.epoch;
            replayed += 1;
        }
        truncated = report.truncated_bytes;
        torn = report.torn;
        if report.valid_len < FILE_HEADER_LEN {
            // The header itself was torn (crash during create).
            write_file_header(&wal_path)?;
        } else if truncated > 0 {
            let f = OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .map_err(|e| io_error("open", &wal_path, &e))?;
            f.set_len(report.valid_len)
                .and_then(|()| f.sync_data())
                .map_err(|e| io_error("truncate", &wal_path, &e))?;
        }
    } else {
        // Crash right after a checkpoint truncated-and-not-yet-recreated
        // the log, or a checkpoint-only directory: start a fresh log.
        write_file_header(&wal_path)?;
    }
    db.drain_events();
    let valid_len = fs::metadata(&wal_path)
        .map(|m| m.len())
        .map_err(|e| io_error("stat", &wal_path, &e))?;
    let wal = Wal::open_at(config, valid_len, checkpoint_epoch)?;
    Ok(TailReplay {
        epoch,
        replayed,
        truncated_bytes: truncated,
        torn,
        wal,
    })
}

/// Recover a durable store from `config.dir`: newest checkpoint + WAL
/// tail replay + torn-tail truncation. The returned store resumes at
/// the last durable epoch with the (truncated, reopened) WAL attached.
pub fn recover(config: WalConfig) -> Result<(DbStore, RecoveryReport)> {
    let _span = obs::span("db.recovery");
    let dir = config.dir.clone();
    let meta = load_checkpoint_meta(&dir)?;
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let ckpt_json = fs::read_to_string(&ckpt_path).map_err(|e| {
        GeoDbError::snapshot_load(
            format!("read {ckpt_path:?}"),
            SnapshotCause::Io(e.to_string()),
        )
    })?;
    let mut db = snapshot::load(&ckpt_json)?;
    db.set_next_oid(meta.next_oid);

    let tail = replay_tail(&mut db, config, meta.epoch, meta.epoch)?;
    let next_oid = db.next_oid();
    if obs::enabled() {
        obs::counter_add("db.recoveries", 1);
        obs::counter_add("db.recovery_replayed_records", tail.replayed);
        obs::counter_add("db.recovery_truncated_bytes", tail.truncated_bytes);
    }
    let report = RecoveryReport {
        checkpoint_epoch: meta.epoch,
        replayed_records: tail.replayed,
        recovered_epoch: tail.epoch,
        truncated_bytes: tail.truncated_bytes,
        torn: tail.torn,
        next_oid,
    };
    let store = DbStore::resume(db, tail.epoch, tail.wal);
    Ok((store, report))
}

/// Open a durable store in `config.dir`: recover if a checkpoint
/// exists (the seed database is ignored — disk wins), otherwise wrap
/// the seed and attach a fresh WAL (initial checkpoint + empty log).
pub fn open(seed: Database, config: WalConfig) -> Result<(DbStore, Option<RecoveryReport>)> {
    if config.dir.join(CHECKPOINT_META_FILE).exists() {
        let (store, report) = recover(config)?;
        Ok((store, Some(report)))
    } else {
        let store = DbStore::new(seed);
        store.attach_wal(config)?;
        Ok((store, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "geodb-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(epoch: u64) -> WalRecord {
        WalRecord {
            epoch: Epoch(epoch),
            next_oid: epoch + 10,
            events: vec![DbEvent::SchemaRegistered {
                schema: format!("s{epoch}"),
            }],
            ops: vec![WalOp::Schema {
                def: SchemaDef::new(format!("s{epoch}")),
            }],
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"hello");
        assert_eq!(a, checksum(b"hello"));
        assert_ne!(a, checksum(b"hellp"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn frames_round_trip_through_the_log() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
        for e in 2..=4u64 {
            let payload = encode_payload(&record(e)).unwrap();
            wal.append_frame(&payload).unwrap();
        }
        wal.sync().unwrap();
        let report = read_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.records[0], record(2));
        assert_eq!(report.records[2].epoch, 4);
        assert!(report.torn.is_none());
        assert_eq!(report.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_reported() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
        let p1 = encode_payload(&record(2)).unwrap();
        let p2 = encode_payload(&record(3)).unwrap();
        wal.append_frame(&p1).unwrap();
        wal.append_frame(&p2).unwrap();
        wal.sync().unwrap();
        let path = dir.join(WAL_FILE);
        let full = fs::metadata(&path).unwrap().len();
        // Cut into the middle of the second frame.
        let cut = full - (p2.len() as u64 / 2);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let report = read_wal(&path).unwrap();
        assert_eq!(report.records.len(), 1, "only the intact record survives");
        assert!(report.torn.is_some());
        assert_eq!(report.valid_len + report.truncated_bytes, cut);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_in_tail_frame_fails_checksum() {
        let dir = tmp_dir("flip");
        let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
        let p1 = encode_payload(&record(2)).unwrap();
        wal.append_frame(&p1).unwrap();
        wal.sync().unwrap();
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let report = read_wal(&path).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.torn.as_deref(), Some("frame checksum mismatch"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_an_error_not_a_truncation() {
        let dir = tmp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        fs::write(&path, b"definitely not a wal file").unwrap();
        let err = read_wal(&path).unwrap_err();
        assert!(matches!(err, GeoDbError::SnapshotLoad { .. }));
        assert!(std::error::Error::source(&err).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
