//! Versioned storage: copy-on-write epoch snapshots over [`Database`].
//!
//! The paper puts customization *inside the DBMS*, so the database — not
//! the UI layer — is the component every concurrent session shares. This
//! module applies the same COW/epoch pattern the rule engine uses for its
//! `RuleBase` one layer down, to the data itself:
//!
//! * [`DbSnapshot`] — an immutable point-in-time view (catalog + class
//!   partitions + spatial indexes + locator), structurally shared via
//!   `Arc`. All query primitives (`get_schema` / `get_class` /
//!   `get_value` / `select` / `aggregate` / `nearest` / `window_query`)
//!   run against it without locks or `&mut`, and row reads hand out the
//!   partitions' own `Arc<Instance>` handles: a published instance is
//!   never mutated, a write replaces its `Arc`.
//! * [`DbStore`] — the shared handle: a serialized writer around the one
//!   mutable [`Database`], whose class partitions *are* the data. A
//!   write patches them copy-on-write (`crate::partition`), and
//!   publishing the next epoch clones the head's catalog, partition,
//!   locator and method `Arc`s into a snapshot (`Mutex<Arc<DbSnapshot>>`
//!   slot + `AtomicU64` epoch). There is no second copy to sync.
//! * [`DbReader`] — a per-session pin: one `Acquire` epoch load per
//!   request; the published slot's lock is taken only when the epoch
//!   actually moved.
//!
//! Readers therefore never block on writers: a reader pinned to epoch N
//! keeps serving N (its `Arc` keeps the partitions alive) while the
//! writer publishes N+1.
//!
//! ## Durability and group commit
//!
//! With a WAL attached ([`DbStore::attach_wal`], [`crate::wal`]), a
//! write is acknowledged only after its record is on disk *and* its
//! epoch is published — durability precedes visibility. Writers commit
//! through a leader/follower queue: each writer serializes its redo
//! record under the writer lock (preserving WAL epoch order), enqueues
//! it, and the first writer to find no active leader drains the whole
//! queue with **one** WAL append run + **one** fsync + **one** epoch
//! publish (of the batch's newest snapshot). A tunable group window
//! lets the leader wait for stragglers already inside `write`. A WAL
//! failure (injected crash) *poisons* the store: every later write
//! fails fast, reads keep serving the last published epoch, and the
//! process model recovers from disk via [`crate::wal::recover`].
//!
//! ## Pins, retention and GC
//!
//! Reader pins are tracked explicitly (epoch → pin count): the *pin
//! watermark* is the oldest pinned epoch, and the store retains recent
//! snapshots down to that watermark — bounded by a hard cap
//! ([`DbStore::set_retention`], default 8) so one long-pinned reader
//! cannot make the retained ring grow without bound (the reader's own
//! `Arc` keeps its snapshot alive either way; the store just stops
//! tracking it). `db.epochs_retained` gauges the ring size. Replicas
//! ([`crate::repl`]) pin the primary at their applied epoch through the
//! same registry, so a lagging replica holds its delta base alive — up
//! to the cap, past which it falls back to a full sync.
//!
//! ## Roles
//!
//! The read surface — publish slot, epoch watermark, pins, retention —
//! lives in a role-agnostic [`ReadCore`] shared by two owners: the
//! *primary* [`DbStore`] (which adds the writer, WAL and group commit)
//! and the *replica* [`crate::repl::ReplicaStore`] (which publishes
//! epochs applied from shipped deltas into its own [`Database`]).
//! [`DbReader`] pins work identically against either role.
//!
//! Lock order (outermost first): `writer` → `wal` → `commit` →
//! `published` → `retained` → `pins`. Any code path taking two of
//! these must respect it.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::catalog::Catalog;
use crate::db::{aggregate_rows, Aggregate, Database, MethodFn, QueryStats, RefResolver};
use crate::epoch::Epoch;
use crate::error::{GeoDbError, Result};
use crate::geometry::{Point, Rect};
use crate::instance::{Instance, Oid};
use crate::partition::{ClassNames, ClassPartition, OidMap, Partitions};
use crate::query::{DbEvent, Predicate};
use crate::schema::SchemaDef;
use crate::value::Value;
use crate::wal::{self, Wal, WalOp, WalRecord, WalStatus};

/// The `geodb.query` failpoint — every query primitive, on a snapshot
/// or on the mutable database, honours it.
fn query_failpoint() -> Result<()> {
    faultsim::fire("geodb.query").map_err(|f| GeoDbError::Storage(f.to_string()))
}

/// Method bodies by (class, method).
pub(crate) type Methods = HashMap<(String, String), MethodFn>;

// ---------------------------------------------------------------------------
// DbSnapshot
// ---------------------------------------------------------------------------

/// An immutable point-in-time view of the database, safe to read from
/// any thread without locks. Obtained from [`DbStore::snapshot`] or a
/// pinned [`DbReader`].
///
/// Every field is an `Arc` the writer's [`Database`] shares: its head is
/// an unpublished `DbSnapshot` that it patches copy-on-write, so a
/// published one is never mutated. The query primitives here are the
/// one implementation both sides run.
pub struct DbSnapshot {
    pub(crate) epoch: Epoch,
    pub(crate) name: Arc<str>,
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) parts: Arc<Partitions>,
    /// oid → interned (schema, class).
    pub(crate) locator: Arc<OidMap<ClassNames>>,
    pub(crate) methods: Arc<Methods>,
}

/// Resolves `Ref` attributes against a snapshot so registered method
/// bodies run on the lock-free read path.
struct SnapshotResolver<'a> {
    snap: &'a DbSnapshot,
}

impl RefResolver for SnapshotResolver<'_> {
    fn resolve(&mut self, oid: Oid) -> Result<Arc<Instance>> {
        self.snap.peek(oid)
    }
}

impl DbSnapshot {
    /// An empty database version (no schemas, no rows).
    pub(crate) fn empty(name: &str) -> DbSnapshot {
        DbSnapshot {
            epoch: Epoch::ZERO,
            name: Arc::from(name),
            catalog: Arc::new(Catalog::new()),
            parts: Arc::new(Partitions::default()),
            locator: Arc::new(OidMap::new()),
            methods: Arc::new(HashMap::new()),
        }
    }

    /// This version under `epoch`, sharing everything by `Arc`.
    pub(crate) fn published(&self, epoch: Epoch) -> DbSnapshot {
        DbSnapshot {
            epoch,
            name: Arc::clone(&self.name),
            catalog: Arc::clone(&self.catalog),
            parts: Arc::clone(&self.parts),
            locator: Arc::clone(&self.locator),
            methods: Arc::clone(&self.methods),
        }
    }

    /// The epoch this snapshot was published under.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The structurally-shared partition map (delta shipping compares
    /// partitions by `Arc` identity to find what a span of epochs
    /// touched).
    pub(crate) fn partitions(&self) -> &Partitions {
        &self.parts
    }

    /// The shared catalog (delta shipping compares catalogs by `Arc`
    /// identity to decide whether schemas must travel).
    pub(crate) fn catalog_arc(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All schema definitions (snapshot dumps, weak integration).
    pub fn schemas(&self) -> Vec<SchemaDef> {
        self.catalog
            .schema_names()
            .into_iter()
            .map(|n| self.catalog.schema(n).expect("listed schema").clone())
            .collect()
    }

    /// Schema and class of a stored object.
    pub fn locate(&self, oid: Oid) -> Option<(&str, &str)> {
        self.locator.get(oid).map(|(s, c)| (&**s, &**c))
    }

    /// Total stored objects.
    pub fn object_count(&self) -> usize {
        self.locator.len()
    }

    /// Number of stored instances of a class (own extent only).
    pub fn extent_size(&self, schema: &str, class: &str) -> usize {
        self.parts.get(schema, class).map(|p| p.len()).unwrap_or(0)
    }

    fn partition(&self, schema: &str, class: &str) -> Result<&ClassPartition> {
        self.parts
            .get(schema, class)
            .map(|p| &**p)
            .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))
    }

    /// `Get_Schema` primitive against the pinned view.
    pub fn get_schema(&self, schema: &str) -> Result<SchemaDef> {
        let _span = obs::span("geodb.get_schema");
        query_failpoint()?;
        let def = self.catalog.schema(schema)?.clone();
        obs::counter_add("geodb.queries", 1);
        Ok(def)
    }

    /// `Get_Class` primitive: the class extension (pass `with_subclasses`
    /// for the polymorphic extension), in insertion order per class. The
    /// rows are the partition's own shared handles, not copies.
    pub fn get_class(
        &self,
        schema: &str,
        class: &str,
        with_subclasses: bool,
    ) -> Result<Vec<Arc<Instance>>> {
        let _span = obs::span("geodb.get_class");
        query_failpoint()?;
        self.catalog.class(schema, class)?;
        let mut classes = vec![class];
        if with_subclasses {
            let mut queue = vec![class];
            while let Some(c) = queue.pop() {
                for sub in self.catalog.subclasses(schema, c)? {
                    classes.push(&sub.name);
                    queue.push(&sub.name);
                }
            }
        }
        let mut out = Vec::new();
        for c in classes {
            if let Some(part) = self.parts.get(schema, c) {
                out.reserve(part.len());
                out.extend(part.rows().cloned());
            }
        }
        if obs::enabled() {
            obs::counter_add("geodb.queries", 1);
            obs::counter_add("geodb.instances_fetched", out.len() as u64);
        }
        Ok(out)
    }

    /// `Get_Value` primitive: fetch one instance's shared handle.
    pub fn get_value(&self, oid: Oid) -> Result<Arc<Instance>> {
        let _span = obs::span("geodb.get_value");
        query_failpoint()?;
        let inst = self.peek(oid)?;
        if obs::enabled() {
            obs::counter_add("geodb.queries", 1);
            obs::counter_add("geodb.instances_fetched", 1);
        }
        Ok(inst)
    }

    /// Fetch without counters (internal plumbing, rendering).
    pub fn peek(&self, oid: Oid) -> Result<Arc<Instance>> {
        let (schema, class) = self.locator.get(oid).ok_or(GeoDbError::UnknownOid(oid.0))?;
        self.parts
            .get(schema, class)
            .and_then(|p| p.get(oid))
            .cloned()
            .ok_or(GeoDbError::UnknownOid(oid.0))
    }

    /// Selection with optional spatial-index acceleration; returns the
    /// rows plus the stats [`Database::last_query_stats`] would report.
    pub fn select_with_stats(
        &self,
        schema: &str,
        class: &str,
        pred: &Predicate,
    ) -> Result<(Vec<Arc<Instance>>, QueryStats)> {
        let _span = obs::span("geodb.select");
        query_failpoint()?;
        self.catalog.class(schema, class)?;
        let part = self.partition(schema, class)?;
        let indexed = match (part.spatial(), pred.index_window()) {
            (Some(idx), Some((attr, rect))) if Some(attr.as_str()) == part.geom_attr() => {
                Some(idx.query_rect(&rect))
            }
            _ => None,
        };
        let index_used = indexed.is_some();
        let mut candidates = 0usize;
        let mut out = Vec::new();
        let mut test = |inst: &Arc<Instance>| {
            candidates += 1;
            if pred.eval(inst) {
                out.push(Arc::clone(inst));
            }
        };
        match &indexed {
            Some(oids) => oids
                .iter()
                .for_each(|oid| test(part.get(*oid).expect("candidate oid present"))),
            None => part.rows().for_each(test),
        }
        out.sort_by_key(|i| i.oid);
        let stats = QueryStats {
            candidates,
            returned: out.len(),
            index_used,
        };
        if obs::enabled() {
            obs::counter_add("geodb.queries", 1);
            obs::counter_add("geodb.instances_fetched", candidates as u64);
            obs::counter_add(
                if index_used {
                    "geodb.index_hits"
                } else {
                    "geodb.index_scans"
                },
                1,
            );
        }
        Ok((out, stats))
    }

    /// Selection without the stats.
    pub fn select(
        &self,
        schema: &str,
        class: &str,
        pred: &Predicate,
    ) -> Result<Vec<Arc<Instance>>> {
        self.select_with_stats(schema, class, pred).map(|(r, _)| r)
    }

    /// Aggregate an attribute over the (optionally filtered) extension.
    pub fn aggregate(
        &self,
        schema: &str,
        class: &str,
        path: &str,
        agg: Aggregate,
        pred: &Predicate,
    ) -> Result<Value> {
        let rows = self.select(schema, class, pred)?;
        aggregate_rows(&rows, path, agg)
    }

    /// k-nearest-neighbour query (exact re-rank of index candidates:
    /// bbox distance underestimates true distance, so 2k candidates then
    /// an exact re-rank is safe for point data and a good heuristic
    /// otherwise; a class without an index is scanned).
    pub fn nearest(
        &self,
        schema: &str,
        class: &str,
        p: Point,
        k: usize,
    ) -> Result<Vec<Arc<Instance>>> {
        self.catalog.class(schema, class)?;
        let part = self.partition(schema, class)?;
        let geom_attr = part.geom_attr().ok_or_else(|| no_geometry(class))?;
        let mut ranked: Vec<(f64, Arc<Instance>)> = Vec::new();
        let mut rank = |inst: &Arc<Instance>| {
            if let Some(g) = inst.get(geom_attr).as_geometry() {
                ranked.push((g.distance_to_point(&p), Arc::clone(inst)));
            }
        };
        match part.spatial() {
            Some(idx) => idx
                .nearest(&p, (2 * k).max(8))
                .iter()
                .for_each(|oid| rank(part.get(*oid).expect("candidate oid present"))),
            None => part.rows().for_each(rank),
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.truncate(k);
        Ok(ranked.into_iter().map(|(_, i)| i).collect())
    }

    /// The predicate of a spatial window over a class's geometry.
    pub(crate) fn window_predicate(
        &self,
        schema: &str,
        class: &str,
        rect: Rect,
    ) -> Result<Predicate> {
        let part = self.partition(schema, class)?;
        let attr = part.geom_attr().ok_or_else(|| no_geometry(class))?;
        Ok(Predicate::IntersectsRect {
            attr: attr.to_string(),
            rect,
        })
    }

    /// Spatial window shortcut: everything intersecting `rect`.
    pub fn window_query(
        &self,
        schema: &str,
        class: &str,
        rect: Rect,
    ) -> Result<Vec<Arc<Instance>>> {
        let pred = self.window_predicate(schema, class, rect)?;
        self.select(schema, class, &pred)
    }

    /// Invoke a registered method body against the pinned view.
    pub fn call_method(&self, inst: &Instance, method: &str, args: &[Value]) -> Result<Value> {
        let f = self
            .methods
            .get(&(inst.class.clone(), method.to_string()))
            .cloned()
            .ok_or_else(|| GeoDbError::UnknownMethod {
                class: inst.class.clone(),
                method: method.to_string(),
            })?;
        let mut resolver = SnapshotResolver { snap: self };
        f(&mut resolver, inst, args)
    }

    /// Every stored object with its schema, in OID order (snapshot
    /// dump). The rows are the partitions' own shared handles.
    pub fn dump_objects(&self) -> Vec<(Arc<str>, Arc<Instance>)> {
        let mut out: Vec<(Arc<str>, Arc<Instance>)> = self
            .locator
            .iter()
            .map(|(oid, (schema, class))| {
                let inst = self
                    .parts
                    .get(schema, class)
                    .and_then(|p| p.get(oid))
                    .expect("located instance present in partition");
                (Arc::clone(schema), Arc::clone(inst))
            })
            .collect();
        out.sort_by_key(|(_, inst)| inst.oid);
        out
    }

    /// Approximate logical data footprint: serialized bytes of every
    /// stored instance. One snapshot's worth is what *all* shards share;
    /// the per-copy model of the old serving layer paid this per shard.
    pub fn approx_data_bytes(&self) -> usize {
        self.dump_objects()
            .iter()
            .filter_map(|(_, inst)| serde_json::to_vec(&**inst).ok())
            .map(|b| b.len())
            .sum()
    }
}

fn no_geometry(class: &str) -> GeoDbError {
    GeoDbError::InvalidQuery(format!("class `{class}` has no geometry attribute"))
}

impl std::fmt::Debug for DbSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbSnapshot")
            .field("epoch", &self.epoch)
            .field("name", &self.name)
            .field("objects", &self.locator.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// DbStore
// ---------------------------------------------------------------------------

/// Result of a committed write: the closure's value, the database events
/// it produced (for the active mechanism), and the epoch the resulting
/// snapshot was published under.
#[derive(Debug)]
pub struct Committed<R> {
    pub value: R,
    pub events: Vec<DbEvent>,
    pub epoch: Epoch,
}

/// Derive the redo operations of one committed write: the final image
/// of every touched object (events carry only identities, so the
/// post-images come from the freshly published snapshot), preceded by
/// any schemas registered during the write. Ops are post-state, making
/// WAL replay idempotent.
fn redo_ops(snap: &DbSnapshot, events: &[DbEvent]) -> Vec<WalOp> {
    let mut ops = Vec::new();
    let mut touched: Vec<(&str, &str, Oid)> = Vec::new();
    let mut seen: HashSet<Oid> = HashSet::new();
    for e in events {
        match e {
            DbEvent::SchemaRegistered { schema } => {
                if let Ok(def) = snap.catalog.schema(schema) {
                    ops.push(WalOp::Schema { def: def.clone() });
                }
            }
            DbEvent::Insert { schema, class, oid }
            | DbEvent::Update { schema, class, oid }
            | DbEvent::Delete { schema, class, oid }
                if seen.insert(*oid) =>
            {
                touched.push((schema, class, *oid));
            }
            _ => {}
        }
    }
    for (schema, class, oid) in touched {
        match snap.parts.get(schema, class).and_then(|p| p.get(oid)) {
            Some(inst) => ops.push(WalOp::Upsert {
                schema: schema.to_string(),
                instance: (**inst).clone(),
            }),
            None => ops.push(WalOp::Delete { oid }),
        }
    }
    ops
}

struct WriterState {
    db: Database,
    /// Last epoch *assigned* (not necessarily published yet — with group
    /// commit the leader publishes a batch's newest epoch after the WAL
    /// fsync). Assigning under the writer lock keeps WAL records in
    /// strict epoch order.
    seq: Epoch,
}

/// One write waiting in the group-commit queue: its assigned epoch and
/// snapshot, plus the already-encoded WAL frame payload.
struct PendingCommit {
    epoch: Epoch,
    next_oid: u64,
    snap: Arc<DbSnapshot>,
    payload: Vec<u8>,
}

/// Group-commit coordination: the pending queue (epoch-ordered — writes
/// enqueue while still holding the writer lock), the single-leader
/// flag, and the durable frontier.
#[derive(Default)]
struct CommitState {
    queue: Vec<PendingCommit>,
    leader_active: bool,
    /// Highest epoch whose WAL record is fsynced and published.
    durable_epoch: Epoch,
    /// The durable frontier's snapshot + OID allocator (checkpoints).
    durable: Option<(Arc<DbSnapshot>, u64)>,
    /// Set when a WAL append/fsync/publish failed: the crash model. All
    /// later writes fail fast; reads keep serving the last epoch.
    failed: Option<String>,
}

/// The role-agnostic read surface of a store: the published snapshot
/// slot, the epoch watermark, the reader-pin registry and the retained
/// ring with its GC. Both the primary [`DbStore`] and the replica
/// [`crate::repl::ReplicaStore`] own one; [`DbReader`] pins work against
/// either.
pub(crate) struct ReadCore {
    published: Mutex<Arc<DbSnapshot>>,
    epoch: AtomicU64,
    /// Pins per epoch (session readers *and* attached replicas); the
    /// smallest key is the pin watermark.
    pins: Mutex<BTreeMap<Epoch, usize>>,
    /// Recently published snapshots, oldest first, trimmed to the pin
    /// watermark and `max_retained`.
    retained: Mutex<VecDeque<Arc<DbSnapshot>>>,
    max_retained: AtomicU64,
}

/// Default bound on the retained-snapshot ring.
const DEFAULT_MAX_RETAINED: u64 = 8;

impl ReadCore {
    pub(crate) fn new(snap: Arc<DbSnapshot>) -> ReadCore {
        let epoch = snap.epoch();
        ReadCore {
            published: Mutex::new(snap.clone()),
            epoch: AtomicU64::new(epoch.get()),
            pins: Mutex::new(BTreeMap::new()),
            retained: Mutex::new(VecDeque::from([snap])),
            max_retained: AtomicU64::new(DEFAULT_MAX_RETAINED),
        }
    }

    pub(crate) fn epoch(&self) -> Epoch {
        Epoch(self.epoch.load(Ordering::Acquire))
    }

    pub(crate) fn snapshot(&self) -> Arc<DbSnapshot> {
        Arc::clone(&lock(&self.published))
    }

    pub(crate) fn pin_add(&self, epoch: Epoch) {
        *lock(&self.pins).entry(epoch).or_insert(0) += 1;
    }

    /// Atomically move a pin between epochs (reader re-pin, replica
    /// apply) so the watermark never transiently drops coverage.
    pub(crate) fn pin_move(&self, from: Epoch, to: Epoch) {
        if from == to {
            return;
        }
        let mut pins = lock(&self.pins);
        if let Some(n) = pins.get_mut(&from) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&from);
            }
        }
        *pins.entry(to).or_insert(0) += 1;
    }

    /// Release one pin and trim the retained ring (dropping the last
    /// pin on an old epoch frees its partitions promptly). Lock order:
    /// retained before pins.
    pub(crate) fn pin_release(&self, epoch: Epoch) {
        let mut ret = lock(&self.retained);
        {
            let mut pins = lock(&self.pins);
            if let Some(n) = pins.get_mut(&epoch) {
                *n -= 1;
                if *n == 0 {
                    pins.remove(&epoch);
                }
            }
        }
        self.trim_retained(&mut ret);
    }

    /// Drop retained snapshots below the pin watermark (nothing can
    /// re-pin them) and enforce the hard cap. Callers hold `retained`.
    fn trim_retained(&self, ret: &mut VecDeque<Arc<DbSnapshot>>) {
        let newest = match ret.back() {
            Some(s) => s.epoch(),
            None => return,
        };
        let floor = lock(&self.pins).keys().next().copied().unwrap_or(newest);
        while ret.len() > 1 && ret.front().map(|s| s.epoch()) < Some(floor.min(newest)) {
            ret.pop_front();
        }
        let cap = self.max_retained.load(Ordering::Relaxed).max(1) as usize;
        while ret.len() > cap {
            ret.pop_front();
        }
        if obs::enabled() {
            obs::gauge_set("db.epochs_retained", ret.len() as u64);
        }
    }

    /// Swap the published slot to `snap` if it advances the epoch
    /// (monotonic — a stale epoch is ignored) and retain it for pinned
    /// readers. Returns the previous epoch when the publish took.
    pub(crate) fn publish(&self, snap: Arc<DbSnapshot>) -> Option<Epoch> {
        let epoch = snap.epoch();
        let prev = {
            let mut slot = lock(&self.published);
            let prev = slot.epoch();
            if prev >= epoch {
                return None;
            }
            *slot = snap.clone();
            self.epoch.store(epoch.get(), Ordering::Release);
            prev
        };
        {
            let mut ret = lock(&self.retained);
            ret.push_back(snap);
            self.trim_retained(&mut ret);
        }
        Some(prev)
    }

    pub(crate) fn pin_count(&self) -> usize {
        lock(&self.pins).values().sum()
    }

    pub(crate) fn pin_watermark(&self) -> Option<Epoch> {
        lock(&self.pins).keys().next().copied()
    }

    pub(crate) fn epochs_retained(&self) -> usize {
        lock(&self.retained).len()
    }

    pub(crate) fn snapshot_at(&self, epoch: Epoch) -> Option<Arc<DbSnapshot>> {
        lock(&self.retained)
            .iter()
            .find(|s| s.epoch() == epoch)
            .cloned()
    }

    pub(crate) fn set_retention(&self, cap: usize) {
        self.max_retained
            .store(cap.max(1) as u64, Ordering::Relaxed);
        let mut ret = lock(&self.retained);
        self.trim_retained(&mut ret);
    }

    /// A pinned reader starting at the current snapshot.
    pub(crate) fn reader(self: &Arc<Self>) -> DbReader {
        let snap = self.snapshot();
        let epoch = snap.epoch();
        self.pin_add(epoch);
        DbReader {
            core: Arc::clone(self),
            snap,
            epoch,
        }
    }
}

struct StoreShared {
    writer: Mutex<WriterState>,
    core: Arc<ReadCore>,
    /// The attached WAL (`None` = volatile store).
    wal: Mutex<Option<Wal>>,
    /// Mirror of `wal.is_some()` so the write path can branch without
    /// touching the WAL lock.
    wal_attached: AtomicBool,
    /// Mirror of the attached WAL's record format (true = binary
    /// frames), for the same lock-free reason.
    wal_binary: AtomicBool,
    /// Group-commit window in nanoseconds (copied from the WAL config
    /// at attach; leaders read it without the WAL lock).
    group_window_nanos: AtomicU64,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Writers currently inside `write()` — the leader's heuristic for
    /// whether waiting the group window can grow the batch.
    active_writers: AtomicU64,
    /// Epoch-publish subscribers (replication shippers). Senders that
    /// disconnected are dropped at the next publish.
    subscribers: Mutex<Vec<Sender<Epoch>>>,
}

/// Shared handle to the versioned store. Cheap to clone; all clones see
/// the same data and epochs. Writes are serialized through the handle;
/// reads go through [`DbStore::snapshot`] or a [`DbReader`] pin and
/// never take the writer lock.
#[derive(Clone)]
pub struct DbStore {
    shared: Arc<StoreShared>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic inside a write closure is contained by the serving layer;
    // the store itself stays usable (the next publish carries whatever
    // the closure mutated before it panicked).
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl DbStore {
    /// Wrap a database into a shared versioned store, publishing epoch 1.
    pub fn new(db: Database) -> DbStore {
        Self::new_at(db, Epoch(1))
    }

    /// Wrap a database publishing at an arbitrary starting epoch
    /// (crash recovery resumes where the durable history ended).
    fn new_at(mut db: Database, epoch: Epoch) -> DbStore {
        let epoch = epoch.max(Epoch(1));
        db.drain_events();
        let snap = Arc::new(db.snapshot_at(epoch));
        let w = WriterState { db, seq: epoch };
        if obs::enabled() {
            obs::counter_add("db.snapshot_publishes", 1);
            obs::counter_add("db.epoch", 1);
        }
        DbStore {
            shared: Arc::new(StoreShared {
                writer: Mutex::new(w),
                core: Arc::new(ReadCore::new(snap)),
                wal: Mutex::new(None),
                wal_attached: AtomicBool::new(false),
                wal_binary: AtomicBool::new(true),
                group_window_nanos: AtomicU64::new(0),
                commit: Mutex::new(CommitState::default()),
                commit_cv: Condvar::new(),
                active_writers: AtomicU64::new(0),
                subscribers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Resume a recovered database at its last durable epoch with the
    /// (truncated, reopened) WAL attached — the [`crate::wal::recover`]
    /// constructor.
    pub(crate) fn resume(db: Database, epoch: Epoch, wal: Wal) -> DbStore {
        let store = Self::new_at(db, epoch);
        let snap = store.snapshot();
        let next_oid = {
            let w = lock(&store.shared.writer);
            w.db.next_oid()
        };
        let window = wal.config().group_window;
        let binary = wal.config().record_format == wal::WalFormat::Binary;
        {
            // Lock order: wal before commit.
            let mut wal_slot = lock(&store.shared.wal);
            let mut c = lock(&store.shared.commit);
            c.durable_epoch = snap.epoch();
            c.durable = Some((snap, next_oid));
            *wal_slot = Some(wal);
        }
        store
            .shared
            .group_window_nanos
            .store(window.as_nanos() as u64, Ordering::Relaxed);
        store.shared.wal_binary.store(binary, Ordering::Relaxed);
        store.shared.wal_attached.store(true, Ordering::Relaxed);
        store
    }

    /// The current published epoch.
    pub fn epoch(&self) -> Epoch {
        self.shared.core.epoch()
    }

    /// The current published snapshot (one lock on the published slot;
    /// use a [`DbReader`] on hot paths to avoid even that).
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        self.shared.core.snapshot()
    }

    /// A pinned reader starting at the current snapshot. The pin is
    /// registered in the retention watermark: the pinned epoch's
    /// snapshot stays retained (up to the hard cap) until the reader
    /// drops or re-pins forward.
    pub fn reader(&self) -> DbReader {
        self.shared.core.reader()
    }

    /// Reader pins currently held (see [`DbStore::pin_count`]). Raw
    /// `snapshot()` `Arc` clones are intentionally *not* counted — only
    /// [`DbReader`] pins (and attached replicas) participate in the
    /// retention watermark.
    pub fn pinned_snapshots(&self) -> usize {
        self.pin_count()
    }

    /// Number of live [`DbReader`] pins across all epochs (replicas
    /// included — each attached replica holds one pin at its applied
    /// epoch).
    pub fn pin_count(&self) -> usize {
        self.shared.core.pin_count()
    }

    /// The oldest epoch any reader still pins (`None` when unpinned).
    /// Retention never trims at or above this watermark (up to the
    /// hard cap).
    pub fn pin_watermark(&self) -> Option<Epoch> {
        self.shared.core.pin_watermark()
    }

    /// Snapshots currently retained for pinned readers and epoch reads
    /// (the `db.epochs_retained` gauge).
    pub fn epochs_retained(&self) -> usize {
        self.shared.core.epochs_retained()
    }

    /// A retained snapshot by epoch, if the ring still holds it.
    pub fn snapshot_at(&self, epoch: Epoch) -> Option<Arc<DbSnapshot>> {
        self.shared.core.snapshot_at(epoch)
    }

    /// Bound the retained-snapshot ring (min 1 = current only).
    pub fn set_retention(&self, cap: usize) {
        self.shared.core.set_retention(cap)
    }

    /// The role-agnostic read core (replication plumbing).
    pub(crate) fn core(&self) -> &Arc<ReadCore> {
        &self.shared.core
    }

    /// Subscribe to epoch publishes: the receiver yields every epoch
    /// this store publishes from now on (replication shippers block on
    /// it instead of polling). The sender is a handle into the *same*
    /// channel, so the subscriber's owner can wake the consumer — e.g.
    /// with a shutdown sentinel — without waiting for the next publish.
    pub fn subscribe_epochs(&self) -> (Sender<Epoch>, Receiver<Epoch>) {
        let (tx, rx) = mpsc::channel();
        lock(&self.shared.subscribers).push(tx.clone());
        (tx, rx)
    }

    /// Current OID allocator position (brief writer lock). Replication
    /// frames carry it so a promoted replica never re-mints OIDs; taken
    /// *after* the target snapshot it can only over-shoot, which
    /// [`Database::set_next_oid`]'s max semantics absorb.
    pub(crate) fn next_oid_hint(&self) -> u64 {
        lock(&self.shared.writer).db.next_oid()
    }

    /// Execute a write against the one mutable [`Database`], then
    /// publish its head as the next epoch. The snapshot is republished
    /// even when the closure errors partway (the database may have
    /// partially mutated), so published state never diverges from the
    /// writer database — and with a WAL attached the batch is logged
    /// exactly as published before the error propagates.
    ///
    /// Durable stores acknowledge only after the record is fsynced and
    /// the epoch published (group commit may batch several writers into
    /// one fsync). `Committed::epoch` is this write's own epoch; the
    /// published epoch may already be higher if the batch carried later
    /// writes.
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> Result<R>) -> Result<Committed<R>> {
        self.shared.active_writers.fetch_add(1, Ordering::Relaxed);
        let out = self.write_inner(f);
        self.shared.active_writers.fetch_sub(1, Ordering::Relaxed);
        out
    }

    fn write_inner<R>(&self, f: impl FnOnce(&mut Database) -> Result<R>) -> Result<Committed<R>> {
        let mut w = lock(&self.shared.writer);
        self.check_poisoned()?;
        let t0 = Instant::now();
        w.db.begin_journal();
        let value = f(&mut w.db);
        let mut events = w.db.end_journal();
        w.seq = w.seq.next();
        let epoch = w.seq;
        let snap = Arc::new(w.db.snapshot_at(epoch));
        if self.shared.wal_attached.load(Ordering::Relaxed) {
            let record = WalRecord {
                epoch,
                next_oid: w.db.next_oid(),
                ops: redo_ops(&snap, &events),
                events,
            };
            let format = if self.shared.wal_binary.load(Ordering::Relaxed) {
                wal::WalFormat::Binary
            } else {
                wal::WalFormat::Json
            };
            let payload = wal::encode_payload_with(&record, format)?;
            events = record.events;
            // Enqueue while still holding the writer lock: the commit
            // queue (and therefore the WAL) stays in strict epoch order.
            let mut c = lock(&self.shared.commit);
            c.queue.push(PendingCommit {
                epoch,
                next_oid: record.next_oid,
                snap,
                payload,
            });
            drop(w);
            self.commit_wait(c, epoch, t0)?;
        } else {
            // Volatile path: publish under the writer lock, exactly the
            // pre-WAL behavior.
            self.publish_snapshot(snap, t0);
            drop(w);
        }
        let value = value?;
        Ok(Committed {
            value,
            events,
            epoch,
        })
    }

    /// Wait until `my_epoch` is durable + published, becoming the
    /// group-commit leader if no one holds that role. The leader drains
    /// the queue (optionally waiting the group window for writers still
    /// in flight), appends every record, fsyncs once, publishes the
    /// newest snapshot, and wakes the followers.
    fn commit_wait(
        &self,
        mut c: MutexGuard<'_, CommitState>,
        my_epoch: Epoch,
        t0: Instant,
    ) -> Result<()> {
        loop {
            if let Some(reason) = &c.failed {
                return Err(store_poisoned(reason));
            }
            if c.durable_epoch >= my_epoch {
                return Ok(());
            }
            if !c.leader_active {
                c.leader_active = true;
                break;
            }
            c = self
                .shared
                .commit_cv
                .wait(c)
                .unwrap_or_else(|e| e.into_inner());
        }
        // Leader. If writers beyond the queued ones are mid-`write`,
        // give them one window to join this batch.
        let window = Duration::from_nanos(self.shared.group_window_nanos.load(Ordering::Relaxed));
        if !window.is_zero()
            && (self.shared.active_writers.load(Ordering::Relaxed) as usize) > c.queue.len()
        {
            let (c2, _) = self
                .shared
                .commit_cv
                .wait_timeout(c, window)
                .unwrap_or_else(|e| e.into_inner());
            c = c2;
        }
        let batch = std::mem::take(&mut c.queue);
        drop(c);
        let flushed = self.flush_batch(&batch, t0);
        let mut c = lock(&self.shared.commit);
        c.leader_active = false;
        match flushed {
            Ok(()) => {
                let last = batch.last().expect("own commit queued");
                c.durable_epoch = c.durable_epoch.max(last.epoch);
                c.durable = Some((last.snap.clone(), last.next_oid));
            }
            Err(e) => c.failed = Some(e.to_string()),
        }
        self.shared.commit_cv.notify_all();
        if let Some(reason) = &c.failed {
            return Err(store_poisoned(reason));
        }
        debug_assert!(c.durable_epoch >= my_epoch);
        Ok(())
    }

    /// Append + fsync + publish one batch. Runs with the WAL lock held
    /// and the commit lock released, so the next group can form while
    /// this one is on the disk.
    fn flush_batch(&self, batch: &[PendingCommit], t0: Instant) -> Result<()> {
        let mut wal_slot = lock(&self.shared.wal);
        let w = wal_slot
            .as_mut()
            .ok_or_else(|| GeoDbError::Storage("WAL detached mid-commit".into()))?;
        {
            let _span = obs::span("db.wal_append");
            for p in batch {
                w.append_frame(&p.payload)?;
            }
        }
        {
            let _span = obs::span("db.wal_fsync");
            w.sync()?;
        }
        w.note_group(batch.len() as u64);
        if obs::enabled() {
            obs::counter_add("db.wal_records", batch.len() as u64);
            obs::counter_add("db.wal_fsyncs", 1);
            obs::record_value("db.wal_group_size", batch.len() as u64);
            let mut bytes = 0u64;
            for p in batch {
                obs::record_value("db.wal_commit_bytes", p.payload.len() as u64);
                bytes += p.payload.len() as u64;
            }
            obs::counter_add("db.wal_bytes_written", bytes);
        }
        // The crash point between durability and visibility.
        faultsim::fire("db.publish").map_err(|f| GeoDbError::Storage(f.to_string()))?;
        let last = batch.last().expect("non-empty batch");
        self.publish_snapshot(last.snap.clone(), t0);
        if w.should_checkpoint() {
            let json = crate::snapshot::save_snapshot(&last.snap)?;
            w.checkpoint(&json, last.epoch, last.next_oid)?;
        }
        Ok(())
    }

    /// Replace the store's entire contents from a freshly loaded
    /// database (snapshot restore), publishing a fresh epoch. On a
    /// durable store the restore is checkpointed immediately (the WAL
    /// history below it is obsolete and truncates with the checkpoint).
    pub fn replace(&self, db: Database) -> Result<Epoch> {
        let mut w = lock(&self.shared.writer);
        self.check_poisoned()?;
        let t0 = Instant::now();
        w.db = db;
        w.db.drain_events();
        w.seq = w.seq.next();
        let epoch = w.seq;
        let snap = Arc::new(w.db.snapshot_at(epoch));
        if self.shared.wal_attached.load(Ordering::Relaxed) {
            let json = crate::snapshot::save_snapshot(&snap)?;
            let next_oid = w.db.next_oid();
            let mut wal_slot = lock(&self.shared.wal);
            if let Some(wal) = wal_slot.as_mut() {
                wal.checkpoint(&json, epoch, next_oid)?;
            }
            let mut c = lock(&self.shared.commit);
            c.durable_epoch = c.durable_epoch.max(epoch);
            c.durable = Some((snap.clone(), next_oid));
        }
        self.publish_snapshot(snap, t0);
        Ok(epoch)
    }

    /// Swap the published slot to `snap` (monotonic — a stale epoch is
    /// ignored), retain it for pinned readers, notify replication
    /// subscribers, and record metrics.
    fn publish_snapshot(&self, snap: Arc<DbSnapshot>, t0: Instant) {
        let _span = obs::span("db.publish");
        let epoch = snap.epoch();
        if obs::trace_recording() {
            obs::trace_annotate("epoch", epoch.to_string());
        }
        let Some(prev) = self.shared.core.publish(snap) else {
            return;
        };
        {
            let mut subs = lock(&self.shared.subscribers);
            if !subs.is_empty() {
                subs.retain(|tx| tx.send(epoch).is_ok());
            }
        }
        if obs::enabled() {
            obs::counter_add("db.snapshot_publishes", 1);
            // Keep the epoch counter equal to the epoch value even when
            // a group publish advances it by more than one.
            obs::counter_add("db.epoch", epoch - prev);
            obs::record_nanos("db.publish_latency", t0.elapsed().as_nanos() as u64);
        }
    }

    // -- durability -------------------------------------------------------

    /// Is a WAL attached to this store?
    pub fn wal_attached(&self) -> bool {
        self.shared.wal_attached.load(Ordering::Relaxed)
    }

    /// The reason writes are refused after a WAL failure, if any.
    pub fn poisoned(&self) -> Option<String> {
        lock(&self.shared.commit).failed.clone()
    }

    fn check_poisoned(&self) -> Result<()> {
        match self.poisoned() {
            Some(reason) => Err(store_poisoned(&reason)),
            None => Ok(()),
        }
    }

    /// Attach a write-ahead log to a live store: checkpoints the current
    /// state into `config.dir` (fresh log) and makes every subsequent
    /// write durable. Fails if a WAL is already attached.
    pub fn attach_wal(&self, config: wal::WalConfig) -> Result<()> {
        let w = lock(&self.shared.writer);
        if self.shared.wal_attached.load(Ordering::Relaxed) {
            return Err(GeoDbError::Storage("WAL already attached".into()));
        }
        let snap = self.snapshot();
        let json = crate::snapshot::save_snapshot(&snap)?;
        let next_oid = w.db.next_oid();
        let window = config.group_window;
        let binary = config.record_format == wal::WalFormat::Binary;
        let mut new_wal = Wal::create(config)?;
        new_wal.checkpoint(&json, snap.epoch(), next_oid)?;
        {
            // Lock order: wal before commit.
            let mut wal_slot = lock(&self.shared.wal);
            let mut c = lock(&self.shared.commit);
            c.durable_epoch = snap.epoch();
            c.durable = Some((snap, next_oid));
            c.failed = None;
            *wal_slot = Some(new_wal);
        }
        self.shared
            .group_window_nanos
            .store(window.as_nanos() as u64, Ordering::Relaxed);
        self.shared.wal_binary.store(binary, Ordering::Relaxed);
        self.shared.wal_attached.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Checkpoint the durable frontier: write the snapshot + meta
    /// documents and truncate the log. Returns the checkpoint epoch.
    pub fn checkpoint(&self) -> Result<Epoch> {
        let mut wal_slot = lock(&self.shared.wal);
        let w = wal_slot
            .as_mut()
            .ok_or_else(|| GeoDbError::Storage("no WAL attached".into()))?;
        let (snap, next_oid) = {
            let c = lock(&self.shared.commit);
            if let Some(reason) = &c.failed {
                return Err(store_poisoned(reason));
            }
            c.durable
                .clone()
                .ok_or_else(|| GeoDbError::Storage("no durable state yet".into()))?
        };
        let json = crate::snapshot::save_snapshot(&snap)?;
        w.checkpoint(&json, snap.epoch(), next_oid)?;
        Ok(snap.epoch())
    }

    /// Counters of the attached WAL plus the durable epoch, or `None`
    /// on a volatile store.
    pub fn wal_status(&self) -> Option<(WalStatus, Epoch)> {
        let wal_slot = lock(&self.shared.wal);
        let status = wal_slot.as_ref()?.status();
        let durable = lock(&self.shared.commit).durable_epoch;
        Some((status, durable))
    }

    /// Highest epoch known durable ([`Epoch::ZERO`] on a volatile
    /// store).
    pub fn durable_epoch(&self) -> Epoch {
        lock(&self.shared.commit).durable_epoch
    }

    /// Tune the group-commit window on a live durable store.
    pub fn set_group_window(&self, window: Duration) {
        self.shared
            .group_window_nanos
            .store(window.as_nanos() as u64, Ordering::Relaxed);
    }
}

fn store_poisoned(reason: &str) -> GeoDbError {
    GeoDbError::Storage(format!(
        "store unavailable after WAL failure (recover from disk): {reason}"
    ))
}

impl std::fmt::Debug for DbStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbStore")
            .field("epoch", &self.epoch())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// DbReader
// ---------------------------------------------------------------------------

/// A per-session pin on the published snapshot of *either role* — a
/// primary [`DbStore`] or a [`crate::repl::ReplicaStore`]. `pin()`
/// performs exactly one `Acquire` epoch load in steady state; the
/// published slot's lock is taken only when the epoch moved since the
/// last pin.
///
/// Each reader holds one entry in the owning core's pin registry: the
/// epoch it last pinned is the floor for snapshot retention. Cloning a
/// reader adds a pin at the same epoch; dropping releases it (and may
/// trim the retained ring).
pub struct DbReader {
    core: Arc<ReadCore>,
    snap: Arc<DbSnapshot>,
    epoch: Epoch,
}

impl Clone for DbReader {
    fn clone(&self) -> Self {
        self.core.pin_add(self.epoch);
        DbReader {
            core: Arc::clone(&self.core),
            snap: Arc::clone(&self.snap),
            epoch: self.epoch,
        }
    }
}

impl Drop for DbReader {
    fn drop(&mut self) {
        self.core.pin_release(self.epoch);
    }
}

impl DbReader {
    /// Revalidate against the current epoch and return the pinned
    /// snapshot.
    pub fn pin(&mut self) -> &Arc<DbSnapshot> {
        let current = self.core.epoch();
        let moved = current != self.epoch;
        if moved {
            self.snap = self.core.snapshot();
            let old = self.epoch;
            self.epoch = self.snap.epoch();
            self.core.pin_move(old, self.epoch);
        }
        if obs::trace_recording() {
            // Annotate the epoch only when the pin actually moved: the
            // steady-state fast path stays allocation-free.
            if moved {
                obs::trace_event("db.pin", &[("epoch", &self.epoch.to_string())]);
            } else {
                obs::trace_event("db.pin", &[]);
            }
        }
        if obs::enabled() {
            obs::counter_add("db.reads_pinned", 1);
        }
        &self.snap
    }

    /// The snapshot from the last `pin()`, without revalidating.
    pub fn pinned(&self) -> &Arc<DbSnapshot> {
        &self.snap
    }

    /// Epoch of the pinned snapshot.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The owning store's *current* published epoch (one `Acquire`
    /// load, no re-pin) — what `pin()` would move to.
    pub fn latest_epoch(&self) -> Epoch {
        self.core.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::query::CmpOp;
    use crate::schema::ClassDef;
    use crate::value::AttrType;

    fn sample_db() -> Database {
        let mut db = Database::new("store-test");
        db.register_schema(
            SchemaDef::new("net")
                .class(ClassDef::new("Supplier").attr("name", AttrType::Text))
                .class(
                    ClassDef::new("Pole")
                        .attr("height", AttrType::Float)
                        .attr("supplier", AttrType::Ref("Supplier".into()))
                        .attr("location", AttrType::Geometry),
                ),
        )
        .unwrap();
        let s = db
            .insert("net", "Supplier", vec![("name".into(), "Acme".into())])
            .unwrap();
        for i in 0..8 {
            db.insert(
                "net",
                "Pole",
                vec![
                    ("height".into(), (5.0 + i as f64).into()),
                    ("supplier".into(), Value::Ref(s)),
                    (
                        "location".into(),
                        Geometry::Point(Point::new(i as f64, 0.0)).into(),
                    ),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn snapshot_reads_match_database() {
        let store = DbStore::new(sample_db());
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.extent_size("net", "Pole"), 8);
        let poles = snap.get_class("net", "Pole", false).unwrap();
        assert_eq!(poles.len(), 8);
        assert_eq!(poles[0].get("height"), &Value::Float(5.0));
        let one = snap.get_value(poles[3].oid).unwrap();
        assert_eq!(one, poles[3]);
        assert_eq!(snap.locate(poles[0].oid), Some(("net", "Pole")));
        assert_eq!(snap.object_count(), 9);
    }

    #[test]
    fn write_publishes_new_epoch_and_readers_stay_pinned() {
        let store = DbStore::new(sample_db());
        let mut reader = store.reader();
        let before = Arc::clone(reader.pin());
        let oid = before.get_class("net", "Pole", false).unwrap()[0].oid;

        let committed = store
            .write(|db| db.update(oid, vec![("height".into(), Value::Float(99.0))]))
            .unwrap();
        assert_eq!(committed.epoch, 2);
        assert_eq!(committed.events.len(), 1);

        // The old pin still serves the old value.
        assert_eq!(before.peek(oid).unwrap().get("height"), &Value::Float(5.0));
        // Re-pinning observes the write.
        let after = reader.pin();
        assert_eq!(after.epoch(), 2);
        assert_eq!(after.peek(oid).unwrap().get("height"), &Value::Float(99.0));
    }

    #[test]
    fn write_clones_only_touched_partition() {
        let store = DbStore::new(sample_db());
        let before = store.snapshot();
        let oid = before.get_class("net", "Pole", false).unwrap()[0].oid;
        store
            .write(|db| db.update(oid, vec![("height".into(), Value::Float(50.0))]))
            .unwrap();
        let after = store.snapshot();
        let part = |snap: &DbSnapshot, class| Arc::clone(snap.parts.get("net", class).unwrap());
        assert!(
            !Arc::ptr_eq(&part(&before, "Pole"), &part(&after, "Pole")),
            "touched partition is copied"
        );
        assert!(
            Arc::ptr_eq(&part(&before, "Supplier"), &part(&after, "Supplier")),
            "untouched partition is structurally shared"
        );
        assert!(
            Arc::ptr_eq(&before.locator, &after.locator),
            "an update leaves the locator shared"
        );
        let (old, new) = (before.peek(oid).unwrap(), after.peek(oid).unwrap());
        let other = before.get_class("net", "Pole", false).unwrap()[1].oid;
        assert!(!Arc::ptr_eq(&old, &new), "the written row is a new handle");
        assert!(
            Arc::ptr_eq(&before.peek(other).unwrap(), &after.peek(other).unwrap()),
            "an untouched row keeps its handle"
        );
    }

    #[test]
    fn spatial_index_is_copied_only_when_a_box_changes() {
        let store = DbStore::new(sample_db());
        let oid = store.snapshot().get_class("net", "Pole", false).unwrap()[0].oid;
        let pole = |snap: &DbSnapshot| Arc::clone(snap.parts.get("net", "Pole").unwrap());
        let before = store.snapshot();
        store
            .write(|db| db.update(oid, vec![("height".into(), Value::Float(42.0))]))
            .unwrap();
        let after_attr = store.snapshot();
        assert!(
            pole(&before).shares_index_with(&pole(&after_attr)),
            "an attribute update shares the index"
        );
        let moved = Geometry::Point(Point::new(0.0, 30.0));
        store
            .write(|db| db.update(oid, vec![("location".into(), moved.into())]))
            .unwrap();
        let after_move = store.snapshot();
        assert!(!pole(&after_attr).shares_index_with(&pole(&after_move)));
        assert_eq!(
            after_move
                .window_query("net", "Pole", Rect::new(-1.0, 29.0, 1.0, 31.0))
                .unwrap()[0]
                .oid,
            oid
        );
        assert!(after_attr
            .window_query("net", "Pole", Rect::new(-1.0, 29.0, 1.0, 31.0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn snapshot_spatial_queries_work() {
        let store = DbStore::new(sample_db());
        let snap = store.snapshot();
        let (hits, stats) = snap
            .select_with_stats(
                "net",
                "Pole",
                &Predicate::IntersectsRect {
                    attr: "location".into(),
                    rect: Rect::new(-0.5, -0.5, 2.5, 0.5),
                },
            )
            .unwrap();
        assert_eq!(hits.len(), 3);
        assert!(stats.index_used);
        let near = snap
            .nearest("net", "Pole", Point::new(7.2, 0.0), 2)
            .unwrap();
        assert_eq!(near.len(), 2);
        assert_eq!(near[0].get("height"), &Value::Float(12.0));
        let win = snap
            .window_query("net", "Pole", Rect::new(2.5, -1.0, 4.5, 1.0))
            .unwrap();
        assert_eq!(win.len(), 2);
    }

    #[test]
    fn snapshot_aggregate_and_predicates() {
        let store = DbStore::new(sample_db());
        let snap = store.snapshot();
        let n = snap
            .aggregate("net", "Pole", "height", Aggregate::Count, &Predicate::True)
            .unwrap();
        assert_eq!(n, Value::Int(8));
        let tall = snap
            .select("net", "Pole", &Predicate::cmp("height", CmpOp::Ge, 10.0))
            .unwrap();
        assert_eq!(tall.len(), 3);
    }

    #[test]
    fn insert_delete_and_schema_registration_sync() {
        let store = DbStore::new(sample_db());
        let committed = store
            .write(|db| {
                db.register_schema(
                    SchemaDef::new("admin")
                        .class(ClassDef::new("District").attr("name", AttrType::Text)),
                )?;
                db.insert("admin", "District", vec![("name".into(), "centro".into())])
            })
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.extent_size("admin", "District"), 1);
        let d = snap.get_class("admin", "District", false).unwrap();
        assert_eq!(d[0].get("name"), &Value::Text("centro".into()));
        assert_eq!(snap.locate(committed.value), Some(("admin", "District")));

        store.write(|db| db.delete(committed.value)).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.extent_size("admin", "District"), 0);
        assert!(snap.peek(committed.value).is_err());
    }

    #[test]
    fn insert_then_delete_in_one_write_leaves_no_trace() {
        let store = DbStore::new(sample_db());
        store
            .write(|db| {
                let oid = db.insert("net", "Supplier", vec![("name".into(), "Ghost".into())])?;
                db.delete(oid)
            })
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.extent_size("net", "Supplier"), 1);
        assert_eq!(snap.object_count(), 9);
    }

    #[test]
    fn write_closure_draining_events_still_syncs() {
        // Helpers like `custlang::save_program` drain the database's own
        // event queue; the commit's journal must keep the mutations
        // anyway, or the active mechanism and the WAL would miss them.
        let store = DbStore::new(sample_db());
        let committed = store
            .write(|db| {
                let oid = db.insert("net", "Supplier", vec![("name".into(), "Sneaky".into())])?;
                db.drain_events();
                Ok(oid)
            })
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.extent_size("net", "Supplier"), 2);
        assert!(snap.get_value(committed.value).is_ok());
        assert!(
            committed
                .events
                .iter()
                .any(|e| matches!(e, DbEvent::Insert { .. })),
            "committed events survive an internal drain: {:?}",
            committed.events
        );
    }

    #[test]
    fn failed_write_still_publishes_partial_state() {
        let store = DbStore::new(sample_db());
        let err = store.write(|db| {
            db.insert("net", "Supplier", vec![("name".into(), "Early".into())])?;
            Err::<(), _>(GeoDbError::InvalidQuery("boom".into()))
        });
        assert!(err.is_err());
        // The insert happened before the failure; the published snapshot
        // reflects the database as it actually is.
        assert_eq!(store.snapshot().extent_size("net", "Supplier"), 2);
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    fn methods_run_against_snapshots() {
        let mut db = sample_db();
        db.register_schema(
            SchemaDef::new("m").class(
                ClassDef::new("Named")
                    .optional_attr("target", AttrType::Ref("Named".into()))
                    .method(crate::schema::MethodDef::new(
                        "target_class",
                        vec![AttrType::Ref("Named".into())],
                        AttrType::Text,
                    )),
            ),
        )
        .unwrap();
        let a = db.insert("m", "Named", vec![]).unwrap();
        let b = db
            .insert("m", "Named", vec![("target".into(), Value::Ref(a))])
            .unwrap();
        db.register_method(
            "m",
            "Named",
            "target_class",
            Arc::new(|r, inst, _| {
                let Value::Ref(oid) = inst.get("target") else {
                    return Ok(Value::Null);
                };
                Ok(Value::Text(r.resolve(*oid)?.class.clone()))
            }),
        )
        .unwrap();
        let store = DbStore::new(db);
        let snap = store.snapshot();
        let inst = snap.peek(b).unwrap();
        assert_eq!(
            snap.call_method(&inst, "target_class", &[]).unwrap(),
            Value::Text("Named".into())
        );
    }

    #[test]
    fn pinned_snapshot_count_tracks_handles() {
        let store = DbStore::new(sample_db());
        assert_eq!(store.pin_count(), 0);
        assert_eq!(store.pin_watermark(), None);
        let r1 = store.reader();
        let s1 = store.snapshot();
        // Raw snapshot() clones are not pins; readers are.
        assert_eq!(store.pin_count(), 1);
        assert_eq!(store.pin_watermark(), Some(r1.epoch()));
        let r2 = r1.clone();
        assert_eq!(store.pin_count(), 2);
        drop(r1);
        drop(r2);
        drop(s1);
        assert_eq!(store.pin_count(), 0);
        assert_eq!(store.pin_watermark(), None);
    }

    fn churn_write(store: &DbStore) {
        store
            .write(|db| {
                let oid = db.insert("net", "Supplier", vec![("name".into(), "churn".into())])?;
                db.delete(oid)?;
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn retention_trims_behind_the_pin_watermark() {
        let store = DbStore::new(sample_db());
        let mut pinned = store.reader();
        pinned.pin();
        let pinned_epoch = pinned.epoch();
        // A few writes within the cap: the pin keeps its epoch retained.
        for _ in 0..3 {
            churn_write(&store);
        }
        assert!(store.snapshot_at(pinned_epoch).is_some());
        drop(pinned);
        // With the pin gone the next publish trims behind the head.
        churn_write(&store);
        assert!(store.snapshot_at(pinned_epoch).is_none());
        assert_eq!(store.epochs_retained(), 1);
    }

    #[test]
    fn retention_stays_bounded_under_a_long_pinned_reader() {
        let store = DbStore::new(sample_db());
        let mut pinned = store.reader();
        pinned.pin();
        for _ in 0..20 {
            churn_write(&store);
        }
        // The hard cap wins over the pin: the ring stays bounded even
        // though the reader never re-pins (it still reads its own Arc).
        assert!(store.epochs_retained() <= DEFAULT_MAX_RETAINED as usize);
        assert_eq!(pinned.pinned().epoch(), 1);
        drop(pinned);
    }

    #[test]
    fn store_and_snapshot_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbStore>();
        assert_send_sync::<DbSnapshot>();
        assert_send_sync::<DbReader>();
    }
}
