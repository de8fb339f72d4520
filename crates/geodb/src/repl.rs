//! Epoch replication: delta shipping, follower reads, WAL-tail failover.
//!
//! A [`ReplicaStore`] mirrors a primary [`DbStore`] epoch by epoch. The
//! structural sharing the COW store already maintains *is* the delta:
//! two snapshots share untouched partitions by `Arc`, so the partitions
//! whose `Arc`s differ between the replica's applied epoch and the
//! primary's published epoch are exactly what that span of writes
//! touched. The shipper serializes those partitions wholesale into a
//! [`walcodec`] binary frame, and the replica installs them as its own
//! [`Database`]'s partitions and publishes the primary's epoch on its
//! own read core. Readers pin a replica exactly like they pin a
//! primary — [`DbReader`] is role-agnostic.
//!
//! ## GC coupling
//!
//! An attached replica holds one pin in the primary's pin registry at
//! its applied epoch, so its delta base stays retained while it lags —
//! up to the primary's hard retention cap. A replica stalled past the
//! cap finds its base trimmed ([`DbStore::snapshot_at`] returns `None`)
//! and falls back to a full-snapshot sync; the primary's memory stays
//! bounded either way.
//!
//! ## Failover
//!
//! [`ReplicaStore::promote`] turns a replica into a primary by replaying
//! the (dead) primary's WAL **tail** over the replica's applied epoch —
//! the same torn-tail machinery crash recovery uses, but starting from
//! the applied epoch instead of the last checkpoint, so promotion work
//! is proportional to replication lag, not to log length. Every epoch
//! the old primary acknowledged was fsynced before it published, so the
//! promoted store serves read-your-writes for every durable commit.

use std::collections::HashSet;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::db::Database;
use crate::epoch::Epoch;
use crate::error::{GeoDbError, Result};
use crate::instance::Instance;
use crate::schema::SchemaDef;
use crate::snapshot::{self, SnapshotDoc};
use crate::store::{DbReader, DbSnapshot, DbStore, Methods, ReadCore};
use crate::wal::{self, WalConfig};
use crate::walcodec;

/// Epoch value reserved as the streaming shutdown sentinel; no store
/// ever publishes it.
const STOP_SENTINEL: Epoch = Epoch(u64::MAX);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn fault(name: &'static str) -> Result<()> {
    faultsim::fire(name).map_err(|f| GeoDbError::Storage(f.to_string()))
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// One touched partition, shipped wholesale in the primary's insertion
/// order (the replica's extent order must match the primary's).
#[derive(Debug, Serialize, Deserialize)]
struct PartitionImage {
    schema: String,
    class: String,
    instances: Vec<Arc<Instance>>,
}

/// One replication frame, encoded with the same binary codec WAL
/// records use ([`walcodec::encode_value`]).
#[derive(Debug, Serialize, Deserialize)]
enum ReplFrame {
    /// Partitions touched between `base` (the replica's applied epoch,
    /// still retained on the primary) and `epoch`.
    Delta {
        base: Epoch,
        epoch: Epoch,
        next_oid: u64,
        /// The full schema set, shipped only when the catalog changed
        /// within the span (schemas are append-only).
        schemas: Vec<SchemaDef>,
        parts: Vec<PartitionImage>,
    },
    /// The whole snapshot document — attach, or a stalled replica whose
    /// delta base was trimmed.
    Full {
        epoch: Epoch,
        next_oid: u64,
        doc: SnapshotDoc,
    },
}

fn decode_frame(bytes: &[u8]) -> Result<ReplFrame> {
    let content = walcodec::decode_content(bytes)
        .ok_or_else(|| GeoDbError::Storage("malformed replication frame".into()))?;
    ReplFrame::from_content(&content)
        .map_err(|e| GeoDbError::Storage(format!("decode replication frame: {e}")))
}

/// Build and encode the frame carrying `target` to a replica whose
/// applied state is `base` (`None` ⇒ full sync). Fires the `repl.ship`
/// failpoint and records shipping metrics.
fn ship_frame(
    primary: &DbStore,
    base: Option<&Arc<DbSnapshot>>,
    target: &Arc<DbSnapshot>,
) -> Result<Vec<u8>> {
    let _span = obs::span("repl.ship");
    fault("repl.ship")?;
    let next_oid = primary.next_oid_hint();
    let frame = match base.and_then(|b| delta_between(b, target, next_oid)) {
        Some(delta) => delta,
        None => ReplFrame::Full {
            epoch: target.epoch(),
            next_oid,
            doc: snapshot::doc_from_snapshot(target),
        },
    };
    let bytes = walcodec::encode_value(&frame);
    if obs::enabled() {
        let kind = match &frame {
            ReplFrame::Delta { .. } => "delta",
            ReplFrame::Full { .. } => "full",
        };
        obs::counter_add_labeled("repl.frames_shipped", &[("kind", kind)], 1);
        obs::counter_add_labeled("repl.bytes_shipped", &[("kind", kind)], bytes.len() as u64);
        obs::record_value("repl.frame_bytes", bytes.len() as u64);
    }
    Ok(bytes)
}

/// The delta frame between two retained snapshots, or `None` when only
/// a full sync can express the change (a partition present in `base`
/// vanished — a store restore replaced the world).
fn delta_between(
    base: &Arc<DbSnapshot>,
    target: &Arc<DbSnapshot>,
    next_oid: u64,
) -> Option<ReplFrame> {
    if base
        .partitions()
        .iter()
        .any(|((s, c), _)| target.partitions().get(s, c).is_none())
    {
        return None;
    }
    // Partitions iterate in (schema, class) order: the frame bytes are
    // deterministic.
    let parts: Vec<PartitionImage> = target
        .partitions()
        .iter()
        .filter(|((s, c), part)| match base.partitions().get(s, c) {
            Some(bp) => !Arc::ptr_eq(bp, part),
            None => true,
        })
        .map(|((schema, class), part)| PartitionImage {
            schema: schema.to_string(),
            class: class.to_string(),
            instances: part.instances_ordered(),
        })
        .collect();
    let schemas = if Arc::ptr_eq(base.catalog_arc(), target.catalog_arc()) {
        Vec::new()
    } else {
        target.schemas()
    };
    Some(ReplFrame::Delta {
        base: base.epoch(),
        epoch: target.epoch(),
        next_oid,
        schemas,
        parts,
    })
}

// ---------------------------------------------------------------------------
// ReplicaStore
// ---------------------------------------------------------------------------

/// Outcome of one [`ReplicaStore::sync_once`] round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Already at the primary's published epoch; nothing shipped.
    CaughtUp,
    /// Applied a delta frame.
    Delta {
        epoch: Epoch,
        bytes: u64,
        partitions: usize,
    },
    /// Applied a full-snapshot frame (attach, or base trimmed).
    Full { epoch: Epoch, bytes: u64 },
}

/// A point-in-time health report of one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    pub id: String,
    /// Epoch of the replica's published snapshot.
    pub applied: Epoch,
    /// The primary's published epoch at report time.
    pub primary_epoch: Epoch,
    /// `primary_epoch - applied`.
    pub lag: u64,
    pub delta_syncs: u64,
    pub full_syncs: u64,
    pub delta_bytes: u64,
    pub full_bytes: u64,
    /// Is the background shipper thread running?
    pub streaming: bool,
}

/// What [`ReplicaStore::promote`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotionReport {
    /// The replica's applied epoch when promotion began.
    pub replica_applied: Epoch,
    /// The epoch the promoted store serves (the dead primary's durable
    /// frontier).
    pub promoted_epoch: Epoch,
    /// WAL records replayed over the applied state.
    pub replayed_records: u64,
    /// Torn/corrupt tail bytes truncated from the log.
    pub truncated_bytes: u64,
    /// Why the tail was cut, when it was.
    pub torn: Option<String>,
    /// The WAL checkpoint was newer than the replica's applied state
    /// (possible only after a long stall), so promotion fell back to a
    /// full disk recovery instead of a tail replay.
    pub via_full_recovery: bool,
}

struct ReplicaState {
    /// The applied state; its partitions are what the replica publishes.
    db: Database,
    /// Method bodies, shared with the primary at attach (code does not
    /// travel in frames).
    methods: Arc<Methods>,
    /// Epoch of the last applied (published) frame.
    applied: Epoch,
    /// The epoch currently pinned in the primary's pin registry.
    pin: Option<Epoch>,
    promoted: bool,
    delta_syncs: u64,
    full_syncs: u64,
    delta_bytes: u64,
    full_bytes: u64,
}

/// Apply one decoded frame to the replica's database and build the
/// resulting snapshot. The caller publishes it.
fn apply_frame(state: &mut ReplicaState, frame: ReplFrame, bytes: u64) -> Result<Arc<DbSnapshot>> {
    let _span = obs::span("repl.apply");
    fault("repl.apply")?;
    let t0 = Instant::now();
    let epoch = match frame {
        ReplFrame::Full {
            epoch,
            next_oid,
            doc,
        } => {
            let mut db = snapshot::db_from_doc(doc)?;
            db.set_next_oid(next_oid);
            db.set_methods(Arc::clone(&state.methods));
            state.db = db;
            state.full_syncs += 1;
            state.full_bytes += bytes;
            epoch
        }
        ReplFrame::Delta {
            base,
            epoch,
            next_oid,
            schemas,
            parts,
        } => {
            if base != state.applied {
                return Err(GeoDbError::Storage(format!(
                    "replication delta base {base} does not match applied epoch {}",
                    state.applied
                )));
            }
            let db = &mut state.db;
            if !schemas.is_empty() {
                let have: HashSet<String> = db.schemas().into_iter().map(|s| s.name).collect();
                for def in schemas {
                    if !have.contains(&def.name) {
                        db.register_schema(def)?;
                    }
                }
            }
            // Each shipped image replaces its extent wholesale, in the
            // primary's insertion order.
            for img in parts {
                db.install_partition(&img.schema, &img.class, img.instances)?;
            }
            db.set_next_oid(next_oid);
            db.drain_events();
            state.delta_syncs += 1;
            state.delta_bytes += bytes;
            epoch
        }
    };
    let snap = Arc::new(state.db.snapshot_at(epoch));
    state.applied = epoch;
    if obs::enabled() {
        obs::record_nanos("repl.apply_latency", t0.elapsed().as_nanos() as u64);
    }
    Ok(snap)
}

struct Shipper {
    /// Handle into the epoch-subscription channel, for the shutdown
    /// sentinel (the vendored channel has no select or timeout).
    tx: Sender<Epoch>,
    handle: JoinHandle<()>,
}

struct ReplicaShared {
    id: Arc<str>,
    primary: DbStore,
    core: Arc<ReadCore>,
    state: Mutex<ReplicaState>,
    shipper: Mutex<Option<Shipper>>,
}

impl Drop for ReplicaShared {
    fn drop(&mut self) {
        // Wake the shipper thread so it notices the failed upgrade and
        // exits (no join from drop — it may be the thread running us).
        if let Some(s) = lock(&self.shipper).take() {
            let _ = s.tx.send(STOP_SENTINEL);
        }
        let mut state = lock(&self.state);
        if let Some(pin) = state.pin.take() {
            self.primary.core().pin_release(pin);
        }
    }
}

/// A follower store: applies frames shipped from one primary and
/// publishes them on its own read surface. Cheap to clone; all clones
/// share the applied state. Obtain readers with [`ReplicaStore::reader`]
/// — they behave exactly like primary readers, at most `lag` epochs
/// behind.
#[derive(Clone)]
pub struct ReplicaStore {
    shared: Arc<ReplicaShared>,
}

impl ReplicaStore {
    /// Attach a new replica to `primary`, syncing it to the primary's
    /// published epoch via a full-snapshot frame (the same wire path
    /// steady-state syncs use) and registering its pin in the primary's
    /// retention watermark.
    pub fn attach(primary: &DbStore, id: impl Into<String>) -> Result<ReplicaStore> {
        let id: Arc<str> = Arc::from(id.into());
        let target = primary.snapshot();
        let mut state = ReplicaState {
            db: Database::new(target.name()),
            methods: Arc::clone(&target.methods),
            applied: Epoch::ZERO,
            pin: None,
            promoted: false,
            delta_syncs: 0,
            full_syncs: 0,
            delta_bytes: 0,
            full_bytes: 0,
        };
        let bytes = ship_frame(primary, None, &target)?;
        let frame = decode_frame(&bytes)?;
        let snap = apply_frame(&mut state, frame, bytes.len() as u64)?;
        let applied = snap.epoch();
        primary.core().pin_add(applied);
        state.pin = Some(applied);
        if obs::enabled() {
            obs::counter_add("repl.attached", 1);
        }
        Ok(ReplicaStore {
            shared: Arc::new(ReplicaShared {
                id,
                primary: primary.clone(),
                core: Arc::new(ReadCore::new(snap)),
                state: Mutex::new(state),
                shipper: Mutex::new(None),
            }),
        })
    }

    /// This replica's identifier.
    pub fn id(&self) -> &str {
        &self.shared.id
    }

    /// The replica's published (applied) epoch.
    pub fn epoch(&self) -> Epoch {
        self.shared.core.epoch()
    }

    /// The replica's published snapshot.
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        self.shared.core.snapshot()
    }

    /// A pinned reader over the replica's published snapshot — same
    /// semantics as [`DbStore::reader`].
    pub fn reader(&self) -> DbReader {
        self.shared.core.reader()
    }

    /// The primary this replica follows.
    pub fn primary(&self) -> &DbStore {
        &self.shared.primary
    }

    /// Ship and apply at most one frame. Returns what (if anything)
    /// moved; callers loop via [`ReplicaStore::sync_to_latest`] or let
    /// the streaming shipper drive this.
    pub fn sync_once(&self) -> Result<SyncOutcome> {
        let mut state = lock(&self.shared.state);
        if state.promoted {
            return Err(GeoDbError::Storage("replica has been promoted".into()));
        }
        let target = self.shared.primary.snapshot();
        if target.epoch() <= state.applied {
            self.note_lag(&state);
            return Ok(SyncOutcome::CaughtUp);
        }
        // A stalled replica's base may have been trimmed by the
        // primary's hard retention cap — `None` falls back to full sync.
        let base = self.shared.primary.snapshot_at(state.applied);
        let bytes = ship_frame(&self.shared.primary, base.as_ref(), &target)?;
        let frame = decode_frame(&bytes)?;
        let (is_delta, partitions) = match &frame {
            ReplFrame::Delta { parts, .. } => (true, parts.len()),
            ReplFrame::Full { .. } => (false, 0),
        };
        let len = bytes.len() as u64;
        let snap = match apply_frame(&mut state, frame, len) {
            Ok(snap) => snap,
            Err(e) => {
                // A partial apply can't be trusted as a delta base;
                // force a full resync next round.
                state.applied = Epoch::ZERO;
                return Err(e);
            }
        };
        let epoch = snap.epoch();
        self.shared.core.publish(snap);
        match state.pin.replace(epoch) {
            Some(old) => self.shared.primary.core().pin_move(old, epoch),
            None => self.shared.primary.core().pin_add(epoch),
        }
        self.note_lag(&state);
        Ok(if is_delta {
            SyncOutcome::Delta {
                epoch,
                bytes: len,
                partitions,
            }
        } else {
            SyncOutcome::Full { epoch, bytes: len }
        })
    }

    /// Sync until caught up with the primary's published epoch; returns
    /// the applied epoch.
    pub fn sync_to_latest(&self) -> Result<Epoch> {
        while !matches!(self.sync_once()?, SyncOutcome::CaughtUp) {}
        Ok(self.epoch())
    }

    fn note_lag(&self, state: &ReplicaState) {
        if obs::enabled() {
            obs::gauge_set(
                "repl.lag",
                self.shared.primary.epoch().lag_from(state.applied),
            );
        }
    }

    /// Point-in-time health report.
    pub fn status(&self) -> ReplicaStatus {
        let streaming = lock(&self.shared.shipper).is_some();
        let state = lock(&self.shared.state);
        let primary_epoch = self.shared.primary.epoch();
        ReplicaStatus {
            id: self.shared.id.to_string(),
            applied: state.applied,
            primary_epoch,
            lag: primary_epoch.lag_from(state.applied),
            delta_syncs: state.delta_syncs,
            full_syncs: state.full_syncs,
            delta_bytes: state.delta_bytes,
            full_bytes: state.full_bytes,
            streaming,
        }
    }

    /// Start the background shipper: a thread subscribed to the
    /// primary's epoch publishes that syncs on every publish (coalescing
    /// bursts into one frame). Errors if already streaming.
    pub fn start_streaming(&self) -> Result<()> {
        let mut slot = lock(&self.shared.shipper);
        if slot.is_some() {
            return Err(GeoDbError::Storage("replica is already streaming".into()));
        }
        let (tx, rx) = self.shared.primary.subscribe_epochs();
        let weak: Weak<ReplicaShared> = Arc::downgrade(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("repl-{}", self.shared.id))
            .spawn(move || {
                while let Ok(epoch) = rx.recv() {
                    if epoch == STOP_SENTINEL {
                        break;
                    }
                    // Coalesce queued publishes into one sync.
                    let mut stop = false;
                    while let Ok(e) = rx.try_recv() {
                        if e == STOP_SENTINEL {
                            stop = true;
                            break;
                        }
                    }
                    let Some(shared) = weak.upgrade() else { break };
                    let replica = ReplicaStore { shared };
                    if replica.sync_once().is_err() {
                        obs::counter_add("repl.sync_errors", 1);
                    }
                    drop(replica);
                    if stop {
                        break;
                    }
                }
            })
            .map_err(|e| GeoDbError::Storage(format!("spawn replication shipper: {e}")))?;
        *slot = Some(Shipper { tx, handle });
        Ok(())
    }

    /// Stop the background shipper, joining its thread. Idempotent.
    pub fn stop_streaming(&self) {
        let shipper = lock(&self.shared.shipper).take();
        if let Some(s) = shipper {
            let _ = s.tx.send(STOP_SENTINEL);
            let _ = s.handle.join();
        }
    }

    /// Promote this replica to a primary over the (dead) primary's WAL
    /// directory: replay the log tail past the applied epoch, truncate
    /// any torn tail, and resume as a durable [`DbStore`]. The replica
    /// handle is consumed logically — further syncs error.
    ///
    /// If the old primary checkpointed *past* the replica's applied
    /// epoch (a long stall), the tail no longer reaches back to the
    /// applied state and promotion falls back to a full disk recovery.
    pub fn promote(&self, config: WalConfig) -> Result<(DbStore, PromotionReport)> {
        let _span = obs::span("repl.promote");
        self.stop_streaming();
        fault("repl.promote")?;
        let t0 = Instant::now();
        let mut state = lock(&self.shared.state);
        if state.promoted {
            return Err(GeoDbError::Storage(
                "replica has already been promoted".into(),
            ));
        }
        let applied = state.applied;
        let meta = wal::load_checkpoint_meta(&config.dir)?;
        if let Some(pin) = state.pin.take() {
            self.shared.primary.core().pin_release(pin);
        }
        state.promoted = true;
        let report;
        let store;
        if meta.epoch > applied {
            let (recovered, rec) = wal::recover(config)?;
            store = recovered;
            report = PromotionReport {
                replica_applied: applied,
                promoted_epoch: rec.recovered_epoch,
                replayed_records: rec.replayed_records,
                truncated_bytes: rec.truncated_bytes,
                torn: rec.torn,
                via_full_recovery: true,
            };
        } else {
            let mut db = std::mem::replace(&mut state.db, Database::new("promoted"));
            let tail = wal::replay_tail(&mut db, config, applied, meta.epoch)?;
            report = PromotionReport {
                replica_applied: applied,
                promoted_epoch: tail.epoch,
                replayed_records: tail.replayed,
                truncated_bytes: tail.truncated_bytes,
                torn: tail.torn,
                via_full_recovery: false,
            };
            store = DbStore::resume(db, tail.epoch, tail.wal);
        }
        if obs::enabled() {
            obs::counter_add("repl.promotions", 1);
            obs::record_nanos("repl.promotion_latency", t0.elapsed().as_nanos() as u64);
        }
        Ok((store, report))
    }
}

impl std::fmt::Debug for ReplicaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaStore")
            .field("id", &self.shared.id)
            .field("epoch", &self.epoch())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// ReadRouter
// ---------------------------------------------------------------------------

/// Where a routed read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    Primary,
    Replica,
}

impl ReadSource {
    /// Metric/display label.
    pub fn as_str(self) -> &'static str {
        match self {
            ReadSource::Primary => "primary",
            ReadSource::Replica => "replica",
        }
    }
}

/// Routes one session's reads between a primary reader and (optionally)
/// a replica reader under a staleness bound. With a replica and
/// `max_lag = Some(n)`, a pinned read is served from the replica only
/// when its epoch is at most `n` behind the primary's frontier —
/// otherwise the read transparently falls back to the primary, so no
/// routed read ever observes state older than the bound.
#[derive(Clone)]
pub struct ReadRouter {
    primary: DbReader,
    replica: Option<DbReader>,
    /// Max tolerated epochs behind the primary's frontier; `None`
    /// serves the replica unconditionally.
    max_lag: Option<u64>,
}

impl ReadRouter {
    /// Route everything to the primary (the non-replicated default).
    pub fn primary_only(primary: DbReader) -> ReadRouter {
        ReadRouter {
            primary,
            replica: None,
            max_lag: None,
        }
    }

    /// Serve reads from `replica` while it is within `max_lag` epochs
    /// of the primary's frontier (`None` = serve it unconditionally).
    pub fn with_replica(primary: DbReader, replica: DbReader, max_lag: Option<u64>) -> ReadRouter {
        ReadRouter {
            primary,
            replica: Some(replica),
            max_lag,
        }
    }

    /// Does this router have a replica to serve from?
    pub fn has_replica(&self) -> bool {
        self.replica.is_some()
    }

    /// The configured staleness bound.
    pub fn max_lag(&self) -> Option<u64> {
        self.max_lag
    }

    /// Pin a snapshot for one read: the replica's if it is within the
    /// staleness bound, the primary's otherwise. Returns the snapshot,
    /// where it came from, and the replica's lag at pin time (0 without
    /// a replica).
    pub fn pin(&mut self) -> (&Arc<DbSnapshot>, ReadSource, u64) {
        let mut lag = 0;
        let mut from_replica = false;
        if let Some(r) = &mut self.replica {
            r.pin();
            lag = self.primary.latest_epoch().lag_from(r.epoch());
            from_replica = self.max_lag.is_none_or(|bound| lag <= bound);
        }
        if from_replica {
            if obs::enabled() {
                obs::counter_add_labeled("repl.reads", &[("source", "replica")], 1);
            }
            let r = self.replica.as_ref().expect("replica present");
            (r.pinned(), ReadSource::Replica, lag)
        } else {
            if self.replica.is_some() && obs::enabled() {
                obs::counter_add_labeled("repl.reads", &[("source", "primary_fallback")], 1);
            }
            self.primary.pin();
            (self.primary.pinned(), ReadSource::Primary, lag)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Geometry, Point};
    use crate::schema::{ClassDef, SchemaDef};
    use crate::snapshot::save_snapshot;
    use crate::value::{AttrType, Value};

    fn sample_db() -> Database {
        let mut db = Database::new("repl-test");
        db.register_schema(
            SchemaDef::new("net")
                .class(ClassDef::new("Supplier").attr("name", AttrType::Text))
                .class(
                    ClassDef::new("Pole")
                        .attr("height", AttrType::Float)
                        .attr("location", AttrType::Geometry),
                ),
        )
        .unwrap();
        db.insert("net", "Supplier", vec![("name".into(), "Acme".into())])
            .unwrap();
        for i in 0..8 {
            db.insert(
                "net",
                "Pole",
                vec![
                    ("height".into(), (5.0 + i as f64).into()),
                    (
                        "location".into(),
                        Geometry::Point(Point::new(i as f64, 0.0)).into(),
                    ),
                ],
            )
            .unwrap();
        }
        db.drain_events();
        db
    }

    fn insert_pole(store: &DbStore, x: f64) {
        store
            .write(|db| {
                db.insert(
                    "net",
                    "Pole",
                    vec![
                        ("height".into(), Value::Float(x)),
                        (
                            "location".into(),
                            Geometry::Point(Point::new(x, 0.0)).into(),
                        ),
                    ],
                )
            })
            .unwrap();
    }

    fn assert_identical(a: &DbStore, b: &ReplicaStore) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(
            save_snapshot(&a.snapshot()).unwrap(),
            save_snapshot(&b.snapshot()).unwrap(),
            "replica snapshot must be byte-identical to the primary's"
        );
    }

    #[test]
    fn attach_full_sync_is_byte_identical() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        assert_identical(&store, &replica);
        let status = replica.status();
        assert_eq!(status.full_syncs, 1);
        assert_eq!(status.delta_syncs, 0);
        assert_eq!(status.lag, 0);
        assert!(status.full_bytes > 0);
    }

    #[test]
    fn delta_sync_ships_only_touched_partitions() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        insert_pole(&store, 40.0);
        match replica.sync_once().unwrap() {
            SyncOutcome::Delta { partitions, .. } => {
                assert_eq!(partitions, 1, "only the Pole partition was touched")
            }
            other => panic!("expected delta, got {other:?}"),
        }
        assert_identical(&store, &replica);
        assert!(matches!(
            replica.sync_once().unwrap(),
            SyncOutcome::CaughtUp
        ));
    }

    #[test]
    fn deletes_travel_in_deltas() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        let oid = store.snapshot().get_class("net", "Pole", false).unwrap()[0].oid;
        store.write(|db| db.delete(oid)).unwrap();
        replica.sync_to_latest().unwrap();
        assert_identical(&store, &replica);
        assert!(replica.snapshot().peek(oid).is_err());
        assert_eq!(replica.snapshot().extent_size("net", "Pole"), 7);
    }

    #[test]
    fn schema_changes_travel_in_deltas() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        store
            .write(|db| {
                db.register_schema(
                    SchemaDef::new("admin")
                        .class(ClassDef::new("District").attr("name", AttrType::Text)),
                )?;
                db.insert("admin", "District", vec![("name".into(), "centro".into())])
            })
            .unwrap();
        match replica.sync_once().unwrap() {
            SyncOutcome::Delta { .. } => {}
            other => panic!("expected delta, got {other:?}"),
        }
        assert_identical(&store, &replica);
        assert_eq!(replica.snapshot().extent_size("admin", "District"), 1);
    }

    #[test]
    fn stalled_replica_falls_back_to_full_sync_and_gc_stays_capped() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        let attach_epoch = replica.epoch();
        assert_eq!(store.pin_watermark(), Some(attach_epoch));
        // Inside the cap the replica's pin holds the delta base alive.
        for i in 0..3 {
            insert_pole(&store, 50.0 + i as f64);
        }
        assert!(store.snapshot_at(attach_epoch).is_some());
        assert!(matches!(
            replica.sync_once().unwrap(),
            SyncOutcome::Delta { .. }
        ));
        // Stall past the hard cap: the ring stays bounded (the pin does
        // NOT grow it), the base is trimmed, and sync degrades to full.
        for i in 0..20 {
            insert_pole(&store, 100.0 + i as f64);
        }
        assert!(
            store.epochs_retained() <= 8,
            "stalled replica must not grow retention past the hard cap (got {})",
            store.epochs_retained()
        );
        assert!(store.snapshot_at(replica.epoch()).is_none());
        match replica.sync_once().unwrap() {
            SyncOutcome::Full { .. } => {}
            other => panic!("expected full fallback, got {other:?}"),
        }
        assert_identical(&store, &replica);
    }

    #[test]
    fn dropping_replica_releases_primary_pin() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        assert_eq!(store.pin_count(), 1);
        drop(replica);
        assert_eq!(store.pin_count(), 0);
        assert_eq!(store.pin_watermark(), None);
    }

    #[test]
    fn router_bounded_staleness_falls_back_to_primary() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        let mut router = ReadRouter::with_replica(store.reader(), replica.reader(), Some(1));
        let (_, source, lag) = router.pin();
        assert_eq!(source, ReadSource::Replica);
        assert_eq!(lag, 0);
        // Two epochs behind, bound 1: the read falls back to the primary
        // and never observes state older than the bound.
        insert_pole(&store, 1.0);
        insert_pole(&store, 2.0);
        let (snap, source, lag) = router.pin();
        assert_eq!(source, ReadSource::Primary);
        assert_eq!(lag, 2);
        assert_eq!(snap.epoch(), store.epoch());
        // Caught up again: back to the replica.
        replica.sync_to_latest().unwrap();
        let (snap, source, _) = router.pin();
        assert_eq!(source, ReadSource::Replica);
        assert_eq!(snap.epoch(), store.epoch());
    }

    #[test]
    fn streaming_shipper_applies_in_background() {
        let store = DbStore::new(sample_db());
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        replica.start_streaming().unwrap();
        assert!(replica.status().streaming);
        assert!(replica.start_streaming().is_err());
        insert_pole(&store, 9.0);
        insert_pole(&store, 10.0);
        for _ in 0..400 {
            if replica.epoch() == store.epoch() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_identical(&store, &replica);
        replica.stop_streaming();
        assert!(!replica.status().streaming);
    }

    #[test]
    fn promotion_replays_the_wal_tail() {
        let dir = std::env::temp_dir().join(format!(
            "geodb-repl-promote-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = wal::open(sample_db(), WalConfig::new(&dir)).unwrap();
        let replica = ReplicaStore::attach(&store, "r1").unwrap();
        insert_pole(&store, 1.0);
        replica.sync_to_latest().unwrap();
        let synced = replica.epoch();
        // Two durable writes the replica never sees.
        insert_pole(&store, 2.0);
        insert_pole(&store, 3.0);
        let frontier = store.durable_epoch();
        drop(store); // the primary "dies"

        let (promoted, report) = replica.promote(WalConfig::new(&dir)).unwrap();
        assert!(!report.via_full_recovery);
        assert_eq!(report.replica_applied, synced);
        assert_eq!(report.replayed_records, 2);
        assert_eq!(report.promoted_epoch, frontier);
        assert_eq!(promoted.epoch(), frontier);
        // Read-your-writes: every durable commit is visible.
        assert_eq!(promoted.snapshot().extent_size("net", "Pole"), 11);
        // The promoted store accepts new durable writes.
        insert_pole(&promoted, 4.0);
        assert!(promoted.durable_epoch() > frontier);
        // The old replica handle is dead.
        assert!(replica.sync_once().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// FNV-1a digests of a full-sync frame and of a delta frame that
    /// ships a schema, an insert and a delete, recorded from the
    /// page-backed store: handing shared rows to the encoder must not
    /// move a byte.
    const GOLDEN_FULL_FRAME: u64 = 0xee69_3982_b6ed_732a;
    const GOLDEN_DELTA_FRAME: u64 = 0xb231_1c9b_a692_521d;

    #[test]
    fn frames_keep_their_bytes() {
        let store = DbStore::new(sample_db());
        let base = store.snapshot();
        let full = ship_frame(&store, None, &base).unwrap();
        insert_pole(&store, 40.0);
        let doomed = base.get_class("net", "Pole", false).unwrap()[2].oid;
        store.write(|db| db.delete(doomed)).unwrap();
        store
            .write(|db| {
                db.register_schema(
                    SchemaDef::new("admin")
                        .class(ClassDef::new("District").attr("name", AttrType::Text)),
                )?;
                db.insert("admin", "District", vec![("name".into(), "centro".into())])
            })
            .unwrap();
        let delta = ship_frame(&store, Some(&base), &store.snapshot()).unwrap();
        assert!(matches!(
            decode_frame(&delta).unwrap(),
            ReplFrame::Delta { ref parts, ref schemas, .. } if parts.len() == 2 && !schemas.is_empty()
        ));
        assert_eq!(
            (wal::checksum(&full), wal::checksum(&delta)),
            (GOLDEN_FULL_FRAME, GOLDEN_DELTA_FRAME)
        );
    }
}
