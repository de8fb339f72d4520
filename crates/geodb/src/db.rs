//! The database facade: catalog + extents + spatial indexes + buffer pool,
//! with the event stream the active mechanism intercepts.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::catalog::Catalog;
use crate::error::{GeoDbError, Result};
use crate::geometry::Rect;
use crate::index::{GridIndex, RTree, SpatialIndex};
use crate::instance::{Instance, Oid};
use crate::query::{DbEvent, Predicate};
use crate::schema::SchemaDef;
use crate::storage::{
    AnyStore, BufferPool, BufferStats, EvictionPolicy, FileStore, HeapFile, MemStore, RecordId,
};
use crate::value::Value;

/// How a method body fetches the instances its receiver references.
///
/// Method bodies navigate `Ref` attributes (the paper's
/// `get_supplier_name(pole_supplier)`), so they need *some* way to turn
/// an [`Oid`] into an [`Instance`]. Abstracting that behind a trait lets
/// one registered body serve both the mutable write-path [`Database`]
/// (which resolves through the buffer pool) and the immutable
/// [`crate::store::DbSnapshot`] read path (which resolves against the
/// pinned snapshot, lock-free).
pub trait RefResolver {
    /// Fetch an instance by OID without emitting a query event; the
    /// read path hands out the snapshot's shared handle, not a copy.
    fn resolve(&mut self, oid: Oid) -> Result<Arc<Instance>>;
}

impl RefResolver for Database {
    fn resolve(&mut self, oid: Oid) -> Result<Arc<Instance>> {
        self.peek(oid).map(Arc::new)
    }
}

/// Native implementation of a schema-declared method.
///
/// Methods receive a [`RefResolver`] (so bodies can fetch referenced
/// instances — through the buffer pool on the write path, or from a
/// pinned snapshot on the read path), the receiver instance, and
/// positional arguments — mirroring the paper's
/// `get_supplier_name(pole_supplier)`.
pub type MethodFn =
    Arc<dyn Fn(&mut dyn RefResolver, &Instance, &[Value]) -> Result<Value> + Send + Sync>;

/// Which spatial access method an extent uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexKind {
    RTree,
    Grid {
        cell: f64,
    },
    /// Sequential scan only (the baseline in experiment C3).
    None,
}

/// Aggregation functions over class extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    Count,
    Min,
    Max,
    Sum,
    Avg,
}

/// Statistics from the most recent `select`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Instances fetched and tested against the predicate.
    pub candidates: usize,
    /// Instances returned.
    pub returned: usize,
    /// Whether the spatial index pre-filtered the candidates.
    pub index_used: bool,
}

struct Extent {
    heap: HeapFile,
    records: HashMap<Oid, RecordId>,
    /// Insertion order, so extensions list deterministically.
    order: Vec<Oid>,
    spatial: Option<Box<dyn SpatialIndex>>,
    geom_attr: Option<String>,
    /// Index kind chosen at creation; snapshot capture mirrors it.
    kind: IndexKind,
}

impl Extent {
    fn new(geom_attr: Option<String>, kind: IndexKind) -> Extent {
        let spatial: Option<Box<dyn SpatialIndex>> = if geom_attr.is_some() {
            match kind {
                IndexKind::RTree => Some(Box::new(RTree::new())),
                IndexKind::Grid { cell } => Some(Box::new(GridIndex::new(cell))),
                IndexKind::None => None,
            }
        } else {
            None
        };
        Extent {
            heap: HeapFile::new(),
            records: HashMap::new(),
            order: Vec::new(),
            spatial,
            geom_attr,
            kind,
        }
    }
}

/// Per-class capture handed to the versioned store when it (re)builds a
/// [`crate::store::ClassPartition`]: the instances in insertion order
/// plus what the partition needs to mirror the extent's spatial setup.
pub(crate) struct ExtentCapture {
    pub instances: Vec<Instance>,
    pub geom_attr: Option<String>,
    pub kind: IndexKind,
}

/// An object-oriented geographic database.
pub struct Database {
    name: String,
    catalog: Catalog,
    pool: BufferPool<AnyStore>,
    extents: HashMap<(String, String), Extent>,
    /// oid -> (schema, class); the record id lives in the extent.
    locator: HashMap<Oid, (String, String)>,
    next_oid: u64,
    methods: HashMap<(String, String), MethodFn>,
    index_kind: IndexKind,
    events: Vec<DbEvent>,
    subscribers: Vec<Sender<DbEvent>>,
    last_query: QueryStats,
}

impl Database {
    /// Open an in-memory database with a default 256-frame LRU pool.
    pub fn new(name: impl Into<String>) -> Database {
        Database::with_pool(name, 256, EvictionPolicy::Lru)
    }

    /// Open with an explicit buffer-pool configuration.
    pub fn with_pool(name: impl Into<String>, frames: usize, policy: EvictionPolicy) -> Database {
        Database {
            name: name.into(),
            catalog: Catalog::new(),
            pool: BufferPool::new(AnyStore::Mem(MemStore::new()), frames, policy),
            extents: HashMap::new(),
            locator: HashMap::new(),
            next_oid: 1,
            methods: HashMap::new(),
            index_kind: IndexKind::RTree,
            events: Vec::new(),
            subscribers: Vec::new(),
            last_query: QueryStats::default(),
        }
    }

    /// Open a database whose pages live in a file. The file stores the
    /// raw pages; logical state is still checkpointed via
    /// [`crate::snapshot`] (the page file is a cache/working area, so
    /// fresh runs rebuild from the snapshot — see DESIGN.md).
    pub fn on_disk(
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        frames: usize,
        policy: EvictionPolicy,
    ) -> Result<Database> {
        let store = AnyStore::File(FileStore::open(path)?);
        Ok(Database {
            name: name.into(),
            catalog: Catalog::new(),
            pool: BufferPool::new(store, frames, policy),
            extents: HashMap::new(),
            locator: HashMap::new(),
            next_oid: 1,
            methods: HashMap::new(),
            index_kind: IndexKind::RTree,
            events: Vec::new(),
            subscribers: Vec::new(),
            last_query: QueryStats::default(),
        })
    }

    /// Flush dirty buffer-pool pages to the backing store.
    pub fn flush(&mut self) -> Result<()> {
        self.pool.flush_all()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The OID the next `insert` will allocate. Recorded in WAL commit
    /// records so crash recovery restores the allocator exactly (snapshot
    /// documents alone cannot: deleting the highest OID and crashing
    /// would otherwise rewind the counter).
    pub fn next_oid(&self) -> u64 {
        self.next_oid
    }

    /// Restore the OID allocator (crash-recovery path). Never rewinds
    /// below the highest OID already derived from restored instances.
    pub fn set_next_oid(&mut self, next: u64) {
        self.next_oid = self.next_oid.max(next);
    }

    /// Spatial access method used for extents created afterwards.
    pub fn set_index_kind(&mut self, kind: IndexKind) {
        self.index_kind = kind;
    }

    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    pub fn reset_buffer_stats(&mut self) {
        self.pool.reset_stats();
    }

    pub fn last_query_stats(&self) -> QueryStats {
        self.last_query
    }

    // -- events -----------------------------------------------------------

    fn emit(&mut self, e: DbEvent) {
        self.subscribers.retain(|s| s.send(e.clone()).is_ok());
        self.events.push(e);
    }

    /// Events accumulated since the last drain, oldest first.
    pub fn drain_events(&mut self) -> Vec<DbEvent> {
        std::mem::take(&mut self.events)
    }

    /// Subscribe a channel to the live event stream.
    pub fn subscribe(&mut self) -> Receiver<DbEvent> {
        let (tx, rx) = unbounded();
        self.subscribers.push(tx);
        rx
    }

    // -- schema -----------------------------------------------------------

    /// Register a schema and create (empty) extents for its classes.
    pub fn register_schema(&mut self, schema: SchemaDef) -> Result<()> {
        let name = schema.name.clone();
        let class_info: Vec<(String, Option<String>)> = schema
            .classes
            .iter()
            .map(|c| (c.name.clone(), None))
            .collect();
        self.catalog.register(schema)?;
        for (class, _) in class_info {
            // The primary geometry attribute is the first (inherited
            // included) attribute of type Geometry.
            let geom_attr = self
                .catalog
                .effective_attrs(&name, &class)?
                .into_iter()
                .find(|a| a.ty == crate::value::AttrType::Geometry)
                .map(|a| a.name);
            self.extents.insert(
                (name.clone(), class.clone()),
                Extent::new(geom_attr, self.index_kind),
            );
        }
        self.emit(DbEvent::SchemaRegistered { schema: name });
        Ok(())
    }

    /// Register the native body for a schema-declared method.
    pub fn register_method(
        &mut self,
        schema: &str,
        class: &str,
        method: &str,
        f: MethodFn,
    ) -> Result<()> {
        let methods = self.catalog.effective_methods(schema, class)?;
        if !methods.iter().any(|m| m.name == method) {
            return Err(GeoDbError::UnknownMethod {
                class: class.into(),
                method: method.into(),
            });
        }
        self.methods
            .insert((class.to_string(), method.to_string()), f);
        Ok(())
    }

    /// Invoke a method on an instance.
    pub fn call_method(&mut self, inst: &Instance, method: &str, args: &[Value]) -> Result<Value> {
        let f = self
            .methods
            .get(&(inst.class.clone(), method.to_string()))
            .cloned()
            .ok_or_else(|| GeoDbError::UnknownMethod {
                class: inst.class.clone(),
                method: method.to_string(),
            })?;
        f(self, inst, args)
    }

    // -- data -------------------------------------------------------------

    /// Insert a new instance; returns its OID.
    pub fn insert(
        &mut self,
        schema: &str,
        class: &str,
        values: Vec<(String, Value)>,
    ) -> Result<Oid> {
        let oid = Oid(self.next_oid);
        let mut inst = Instance::new(oid, class);
        for (k, v) in values {
            inst.values.insert(k, v);
        }
        self.catalog.validate_instance(schema, &inst)?;

        let bytes = serde_json::to_vec(&inst)
            .map_err(|e| GeoDbError::Storage(format!("serialize {oid}: {e}")))?;
        let geom_bbox = {
            let extent = self
                .extents
                .get(&(schema.to_string(), class.to_string()))
                .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
            extent
                .geom_attr
                .as_ref()
                .and_then(|a| inst.get(a).as_geometry())
                .map(|g| g.bbox())
        };

        // Split borrows: heap insert needs both extent and pool.
        let pool = &mut self.pool;
        let extent = self
            .extents
            .get_mut(&(schema.to_string(), class.to_string()))
            .expect("checked above");
        let rid = extent.heap.insert(pool, &bytes)?;
        extent.records.insert(oid, rid);
        extent.order.push(oid);
        if let (Some(idx), Some(bbox)) = (extent.spatial.as_mut(), geom_bbox) {
            idx.insert(oid, bbox);
        }

        self.next_oid += 1;
        self.locator
            .insert(oid, (schema.to_string(), class.to_string()));
        self.emit(DbEvent::Insert {
            schema: schema.into(),
            class: class.into(),
            oid,
        });
        Ok(oid)
    }

    /// Buffer-pool page touches (hits + misses) so far. Read-only: the
    /// observability hooks report deltas of this without adding pool
    /// operations of their own.
    fn pool_touches(&self) -> u64 {
        let s = self.pool.stats();
        s.hits + s.misses
    }

    fn fetch(&mut self, schema: &str, class: &str, oid: Oid) -> Result<Instance> {
        let pool = &mut self.pool;
        let extent = self
            .extents
            .get(&(schema.to_string(), class.to_string()))
            .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
        let rid = *extent
            .records
            .get(&oid)
            .ok_or(GeoDbError::UnknownOid(oid.0))?;
        let bytes = extent.heap.get(pool, rid)?;
        serde_json::from_slice(&bytes)
            .map_err(|e| GeoDbError::Storage(format!("deserialize {oid}: {e}")))
    }

    /// The `geodb.query` failpoint, consulted by every query primitive:
    /// lets the fault harness make queries fail (as a storage error) or
    /// panic without touching real storage.
    fn query_failpoint() -> Result<()> {
        faultsim::fire("geodb.query").map_err(|f| GeoDbError::Storage(f.to_string()))
    }

    /// `Get_Value` primitive: fetch one instance, emitting the event.
    pub fn get_value(&mut self, oid: Oid) -> Result<Instance> {
        let _span = obs::span("geodb.get_value");
        Self::query_failpoint()?;
        let touches0 = self.pool_touches();
        let (schema, class) = self
            .locator
            .get(&oid)
            .cloned()
            .ok_or(GeoDbError::UnknownOid(oid.0))?;
        let inst = self.fetch(&schema, &class, oid)?;
        self.emit(DbEvent::GetValue { schema, class, oid });
        if obs::enabled() {
            obs::counter_add("geodb.queries", 1);
            obs::counter_add("geodb.instances_fetched", 1);
            obs::counter_add(
                "geodb.pages_touched",
                self.pool_touches().saturating_sub(touches0),
            );
        }
        Ok(inst)
    }

    /// Fetch without emitting an event (internal plumbing, rendering).
    pub fn peek(&mut self, oid: Oid) -> Result<Instance> {
        let (schema, class) = self
            .locator
            .get(&oid)
            .cloned()
            .ok_or(GeoDbError::UnknownOid(oid.0))?;
        self.fetch(&schema, &class, oid)
    }

    /// `Get_Schema` primitive: schema metadata, emitting the event.
    pub fn get_schema(&mut self, schema: &str) -> Result<SchemaDef> {
        let _span = obs::span("geodb.get_schema");
        Self::query_failpoint()?;
        let def = self.catalog.schema(schema)?.clone();
        self.emit(DbEvent::GetSchema {
            schema: schema.into(),
        });
        obs::counter_add("geodb.queries", 1);
        Ok(def)
    }

    /// `Get_Class` primitive: the class extension (instances of the class
    /// itself; pass `with_subclasses` for the polymorphic extension).
    pub fn get_class(
        &mut self,
        schema: &str,
        class: &str,
        with_subclasses: bool,
    ) -> Result<Vec<Instance>> {
        let _span = obs::span("geodb.get_class");
        Self::query_failpoint()?;
        let touches0 = self.pool_touches();
        // Validate the class exists even when its extent is empty.
        self.catalog.class(schema, class)?;
        let mut classes = vec![class.to_string()];
        if with_subclasses {
            let mut queue = vec![class.to_string()];
            while let Some(c) = queue.pop() {
                for sub in self.catalog.subclasses(schema, &c)? {
                    classes.push(sub.name.clone());
                    queue.push(sub.name.clone());
                }
            }
        }
        let mut out = Vec::new();
        for c in &classes {
            let oids: Vec<Oid> = self
                .extents
                .get(&(schema.to_string(), c.clone()))
                .map(|e| e.order.clone())
                .unwrap_or_default();
            for oid in oids {
                out.push(self.fetch(schema, c, oid)?);
            }
        }
        self.emit(DbEvent::GetClass {
            schema: schema.into(),
            class: class.into(),
        });
        if obs::enabled() {
            obs::counter_add("geodb.queries", 1);
            obs::counter_add("geodb.instances_fetched", out.len() as u64);
            obs::counter_add(
                "geodb.pages_touched",
                self.pool_touches().saturating_sub(touches0),
            );
        }
        Ok(out)
    }

    /// Selection with optional spatial-index acceleration.
    pub fn select(&mut self, schema: &str, class: &str, pred: &Predicate) -> Result<Vec<Instance>> {
        let _span = obs::span("geodb.select");
        Self::query_failpoint()?;
        let touches0 = self.pool_touches();
        self.catalog.class(schema, class)?;
        let key = (schema.to_string(), class.to_string());
        let window = pred.index_window();

        let (candidates, index_used): (Vec<Oid>, bool) = {
            let extent = self
                .extents
                .get(&key)
                .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
            match (&extent.spatial, &window) {
                (Some(idx), Some((attr, rect)))
                    if Some(attr.as_str()) == extent.geom_attr.as_deref() =>
                {
                    (idx.query_rect(rect), true)
                }
                _ => (extent.order.clone(), false),
            }
        };

        let mut out = Vec::new();
        let n_candidates = candidates.len();
        for oid in candidates {
            let inst = self.fetch(schema, class, oid)?;
            if pred.eval(&inst) {
                out.push(inst);
            }
        }
        // Deterministic order regardless of index traversal order.
        out.sort_by_key(|i| i.oid);
        self.last_query = QueryStats {
            candidates: n_candidates,
            returned: out.len(),
            index_used,
        };
        if obs::enabled() {
            obs::counter_add("geodb.queries", 1);
            obs::counter_add("geodb.instances_fetched", n_candidates as u64);
            obs::counter_add(
                "geodb.pages_touched",
                self.pool_touches().saturating_sub(touches0),
            );
            obs::counter_add(
                if index_used {
                    "geodb.index_hits"
                } else {
                    "geodb.index_scans"
                },
                1,
            );
        }
        Ok(out)
    }

    /// Aggregate an attribute over the (optionally filtered) extension.
    /// `path` may reach into tuple fields. `Sum`/`Avg` require numeric
    /// values; `Min`/`Max` use the value ordering; `Count` counts
    /// matching instances with a non-null value at `path`.
    pub fn aggregate(
        &mut self,
        schema: &str,
        class: &str,
        path: &str,
        agg: Aggregate,
        pred: &Predicate,
    ) -> Result<Value> {
        let rows = self.select(schema, class, pred)?;
        aggregate_rows(&rows, path, agg)
    }

    /// k-nearest-neighbour query: the `k` instances of `class` whose
    /// geometry is closest to `p` (exact re-ranking after the index's
    /// bbox-distance candidates; falls back to a scan without an index).
    pub fn nearest(
        &mut self,
        schema: &str,
        class: &str,
        p: crate::geometry::Point,
        k: usize,
    ) -> Result<Vec<Instance>> {
        self.catalog.class(schema, class)?;
        let key = (schema.to_string(), class.to_string());
        let extent = self
            .extents
            .get(&key)
            .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
        let geom_attr = extent.geom_attr.clone().ok_or_else(|| {
            GeoDbError::InvalidQuery(format!("class `{class}` has no geometry attribute"))
        })?;
        // Over-fetch from the index (bbox distance underestimates true
        // distance, so 2k candidates then exact re-rank is safe for point
        // data and a good heuristic otherwise).
        let candidates: Vec<Oid> = match &extent.spatial {
            Some(idx) => idx.nearest(&p, (2 * k).max(8)),
            None => extent.order.clone(),
        };
        let mut ranked: Vec<(f64, Instance)> = Vec::with_capacity(candidates.len());
        for oid in candidates {
            let inst = self.fetch(schema, class, oid)?;
            if let Some(g) = inst.get(&geom_attr).as_geometry() {
                ranked.push((g.distance_to_point(&p), inst));
            }
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.truncate(k);
        Ok(ranked.into_iter().map(|(_, i)| i).collect())
    }

    /// Spatial window shortcut: everything whose geometry intersects `rect`.
    pub fn window_query(&mut self, schema: &str, class: &str, rect: Rect) -> Result<Vec<Instance>> {
        let attr = {
            let extent = self
                .extents
                .get(&(schema.to_string(), class.to_string()))
                .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
            extent.geom_attr.clone().ok_or_else(|| {
                GeoDbError::InvalidQuery(format!("class `{class}` has no geometry attribute"))
            })?
        };
        self.select(schema, class, &Predicate::IntersectsRect { attr, rect })
    }

    /// Update named attributes of an instance.
    pub fn update(&mut self, oid: Oid, changes: Vec<(String, Value)>) -> Result<()> {
        let (schema, class) = self
            .locator
            .get(&oid)
            .cloned()
            .ok_or(GeoDbError::UnknownOid(oid.0))?;
        let mut inst = self.fetch(&schema, &class, oid)?;
        for (k, v) in changes {
            inst.values.insert(k, v);
        }
        self.catalog.validate_instance(&schema, &inst)?;
        let bytes = serde_json::to_vec(&inst)
            .map_err(|e| GeoDbError::Storage(format!("serialize {oid}: {e}")))?;

        let geom_bbox = {
            let extent = self
                .extents
                .get(&(schema.clone(), class.clone()))
                .expect("located extent exists");
            extent
                .geom_attr
                .as_ref()
                .and_then(|a| inst.get(a).as_geometry())
                .map(|g| g.bbox())
        };
        let pool = &mut self.pool;
        let extent = self
            .extents
            .get_mut(&(schema.clone(), class.clone()))
            .expect("located extent exists");
        let rid = *extent
            .records
            .get(&oid)
            .ok_or(GeoDbError::UnknownOid(oid.0))?;
        let new_rid = extent.heap.update(pool, rid, &bytes)?;
        extent.records.insert(oid, new_rid);
        if let Some(idx) = extent.spatial.as_mut() {
            idx.remove(oid);
            if let Some(bbox) = geom_bbox {
                idx.insert(oid, bbox);
            }
        }
        self.emit(DbEvent::Update { schema, class, oid });
        Ok(())
    }

    /// Delete an instance.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let (schema, class) = self
            .locator
            .remove(&oid)
            .ok_or(GeoDbError::UnknownOid(oid.0))?;
        let pool = &mut self.pool;
        let extent = self
            .extents
            .get_mut(&(schema.clone(), class.clone()))
            .expect("located extent exists");
        let rid = extent
            .records
            .remove(&oid)
            .ok_or(GeoDbError::UnknownOid(oid.0))?;
        extent.heap.delete(pool, rid)?;
        extent.order.retain(|o| *o != oid);
        if let Some(idx) = extent.spatial.as_mut() {
            idx.remove(oid);
        }
        self.emit(DbEvent::Delete { schema, class, oid });
        Ok(())
    }

    /// All schema definitions, for snapshots and the weak-integration
    /// protocol.
    pub fn schemas(&self) -> Vec<SchemaDef> {
        self.catalog
            .schema_names()
            .into_iter()
            .map(|n| self.catalog.schema(n).expect("listed schema").clone())
            .collect()
    }

    /// Schema and class of a stored object.
    pub fn locate(&self, oid: Oid) -> Option<(&str, &str)> {
        self.locator
            .get(&oid)
            .map(|(s, c)| (s.as_str(), c.as_str()))
    }

    /// Every stored object with its schema, in OID order (snapshot dump).
    pub fn dump_objects(&mut self) -> Result<Vec<(String, Instance)>> {
        let mut oids: Vec<(Oid, String, String)> = self
            .locator
            .iter()
            .map(|(o, (s, c))| (*o, s.clone(), c.clone()))
            .collect();
        oids.sort_by_key(|(o, _, _)| *o);
        let mut out = Vec::with_capacity(oids.len());
        for (oid, schema, class) in oids {
            let inst = self.fetch(&schema, &class, oid)?;
            out.push((schema, inst));
        }
        Ok(out)
    }

    /// Restore an instance with its original OID (snapshot load path).
    pub fn restore_instance(&mut self, schema: &str, inst: Instance) -> Result<()> {
        if self.locator.contains_key(&inst.oid) {
            return Err(GeoDbError::Duplicate(format!("oid {}", inst.oid)));
        }
        self.catalog.validate_instance(schema, &inst)?;
        let oid = inst.oid;
        let class = inst.class.clone();
        let bytes = serde_json::to_vec(&inst)
            .map_err(|e| GeoDbError::Storage(format!("serialize {oid}: {e}")))?;
        let geom_bbox = {
            let extent = self
                .extents
                .get(&(schema.to_string(), class.clone()))
                .ok_or_else(|| GeoDbError::UnknownClass(class.clone()))?;
            extent
                .geom_attr
                .as_ref()
                .and_then(|a| inst.get(a).as_geometry())
                .map(|g| g.bbox())
        };
        let pool = &mut self.pool;
        let extent = self
            .extents
            .get_mut(&(schema.to_string(), class.clone()))
            .expect("checked above");
        let rid = extent.heap.insert(pool, &bytes)?;
        extent.records.insert(oid, rid);
        extent.order.push(oid);
        if let (Some(idx), Some(bbox)) = (extent.spatial.as_mut(), geom_bbox) {
            idx.insert(oid, bbox);
        }
        self.locator
            .insert(oid, (schema.to_string(), class.clone()));
        self.next_oid = self.next_oid.max(oid.0 + 1);
        Ok(())
    }

    /// Number of stored instances of a class (own extent only).
    pub fn extent_size(&self, schema: &str, class: &str) -> usize {
        self.extents
            .get(&(schema.to_string(), class.to_string()))
            .map(|e| e.records.len())
            .unwrap_or(0)
    }

    // -- versioned-store capture hooks ------------------------------------
    //
    // The COW snapshot layer (`crate::store`) maintains an immutable
    // per-class mirror of this database. These pub(crate) accessors are
    // the only surface it needs: enumerate extents, capture one class,
    // fetch one instance, and clone the method registry.

    /// Keys of every extent, in deterministic order.
    pub(crate) fn extent_keys(&self) -> Vec<(String, String)> {
        let mut keys: Vec<_> = self.extents.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Capture a whole class extent (instances in insertion order plus
    /// the spatial configuration a partition must mirror).
    pub(crate) fn capture_extent(&mut self, schema: &str, class: &str) -> Result<ExtentCapture> {
        let key = (schema.to_string(), class.to_string());
        let (order, geom_attr, kind) = {
            let extent = self
                .extents
                .get(&key)
                .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
            (extent.order.clone(), extent.geom_attr.clone(), extent.kind)
        };
        let mut instances = Vec::with_capacity(order.len());
        for oid in order {
            instances.push(self.fetch(schema, class, oid)?);
        }
        Ok(ExtentCapture {
            instances,
            geom_attr,
            kind,
        })
    }

    /// Fetch one instance without emitting an event (store sync path).
    pub(crate) fn fetch_instance(
        &mut self,
        schema: &str,
        class: &str,
        oid: Oid,
    ) -> Result<Instance> {
        self.fetch(schema, class, oid)
    }

    /// Clone of the method registry (snapshots share the same bodies).
    pub(crate) fn methods_map(&self) -> HashMap<(String, String), MethodFn> {
        self.methods.clone()
    }
}

/// The aggregation reducer shared by [`Database::aggregate`] and the
/// versioned store's snapshot-side aggregate.
pub(crate) fn aggregate_rows<R: Borrow<Instance>>(
    rows: &[R],
    path: &str,
    agg: Aggregate,
) -> Result<Value> {
    let values: Vec<&Value> = rows
        .iter()
        .map(|i| i.borrow().get_path(path))
        .filter(|v| !matches!(v, Value::Null))
        .collect();
    match agg {
        Aggregate::Count => Ok(Value::Int(values.len() as i64)),
        Aggregate::Min => Ok(values
            .iter()
            .min_by(|a, b| a.compare(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
        Aggregate::Max => Ok(values
            .iter()
            .max_by(|a, b| a.compare(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
        Aggregate::Sum | Aggregate::Avg => {
            let mut total = 0.0f64;
            let mut n = 0usize;
            for v in &values {
                match v {
                    Value::Int(i) => {
                        total += *i as f64;
                        n += 1;
                    }
                    Value::Float(x) => {
                        total += x;
                        n += 1;
                    }
                    other => {
                        return Err(GeoDbError::InvalidQuery(format!(
                            "cannot sum non-numeric value {} at `{path}`",
                            other.type_name()
                        )))
                    }
                }
            }
            if agg == Aggregate::Sum {
                Ok(Value::Float(total))
            } else if n == 0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(total / n as f64))
            }
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("schemas", &self.catalog.schema_names())
            .field("objects", &self.locator.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Geometry, Point};
    use crate::query::{CmpOp, DbEventKind};
    use crate::schema::{ClassDef, MethodDef};
    use crate::value::AttrType;

    fn net_schema() -> SchemaDef {
        SchemaDef::new("net")
            .class(ClassDef::new("Supplier").attr("name", AttrType::Text))
            .class(
                ClassDef::new("Pole")
                    .attr("height", AttrType::Float)
                    .attr("supplier", AttrType::Ref("Supplier".into()))
                    .attr("location", AttrType::Geometry)
                    .method(MethodDef::new(
                        "get_supplier_name",
                        vec![AttrType::Ref("Supplier".into())],
                        AttrType::Text,
                    )),
            )
            .class(ClassDef::new("TallPole").extends("Pole"))
    }

    fn db_with_poles(n: usize) -> Database {
        let mut db = Database::new("test");
        db.register_schema(net_schema()).unwrap();
        let supplier = db
            .insert("net", "Supplier", vec![("name".into(), "Acme".into())])
            .unwrap();
        for i in 0..n {
            db.insert(
                "net",
                "Pole",
                vec![
                    ("height".into(), (5.0 + i as f64).into()),
                    ("supplier".into(), Value::Ref(supplier)),
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

    #[test]
    fn insert_get_round_trip() {
        let mut db = db_with_poles(3);
        let poles = db.get_class("net", "Pole", false).unwrap();
        assert_eq!(poles.len(), 3);
        let inst = db.get_value(poles[0].oid).unwrap();
        assert_eq!(inst.get("height"), &Value::Float(5.0));
    }

    #[test]
    fn insert_validates_against_catalog() {
        let mut db = Database::new("t");
        db.register_schema(net_schema()).unwrap();
        let err = db.insert("net", "Pole", vec![("height".into(), 5.0.into())]);
        assert!(matches!(err, Err(GeoDbError::MissingAttribute { .. })));
        let err = db.insert("net", "Ghost", vec![]);
        assert!(err.is_err());
    }

    #[test]
    fn events_flow_in_order() {
        let mut db = db_with_poles(1);
        let rx = db.subscribe();
        db.get_schema("net").unwrap();
        let poles = db.get_class("net", "Pole", false).unwrap();
        db.get_value(poles[0].oid).unwrap();
        let kinds: Vec<DbEventKind> = db.drain_events().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                DbEventKind::GetSchema,
                DbEventKind::GetClass,
                DbEventKind::GetValue
            ]
        );
        // Channel subscriber saw the same stream.
        assert_eq!(rx.try_iter().count(), 3);
    }

    #[test]
    fn select_uses_spatial_index() {
        let mut db = db_with_poles(100);
        let hits = db
            .window_query("net", "Pole", Rect::new(-0.5, -0.5, 9.5, 0.5))
            .unwrap();
        assert_eq!(hits.len(), 10);
        let stats = db.last_query_stats();
        assert!(stats.index_used);
        assert!(stats.candidates < 100, "index should prune candidates");
    }

    #[test]
    fn select_without_index_scans() {
        let mut db = Database::new("t");
        db.set_index_kind(IndexKind::None);
        db.register_schema(net_schema()).unwrap();
        let s = db
            .insert("net", "Supplier", vec![("name".into(), "A".into())])
            .unwrap();
        for i in 0..10 {
            db.insert(
                "net",
                "Pole",
                vec![
                    ("height".into(), (i as f64).into()),
                    ("supplier".into(), Value::Ref(s)),
                    (
                        "location".into(),
                        Geometry::Point(Point::new(i as f64, 0.0)).into(),
                    ),
                ],
            )
            .unwrap();
        }
        let hits = db
            .window_query("net", "Pole", Rect::new(0.0, -1.0, 3.0, 1.0))
            .unwrap();
        assert_eq!(hits.len(), 4);
        let stats = db.last_query_stats();
        assert!(!stats.index_used);
        assert_eq!(stats.candidates, 10);
    }

    #[test]
    fn attribute_predicates_work() {
        let mut db = db_with_poles(10);
        let tall = db
            .select("net", "Pole", &Predicate::cmp("height", CmpOp::Ge, 12.0))
            .unwrap();
        assert_eq!(tall.len(), 3); // heights 12, 13, 14
    }

    #[test]
    fn update_moves_spatial_position() {
        let mut db = db_with_poles(5);
        let poles = db.get_class("net", "Pole", false).unwrap();
        let oid = poles[0].oid;
        db.update(
            oid,
            vec![(
                "location".into(),
                Geometry::Point(Point::new(100.0, 100.0)).into(),
            )],
        )
        .unwrap();
        let near_origin = db
            .window_query("net", "Pole", Rect::new(-0.5, -0.5, 0.5, 0.5))
            .unwrap();
        assert!(near_origin.is_empty());
        let far = db
            .window_query("net", "Pole", Rect::new(99.0, 99.0, 101.0, 101.0))
            .unwrap();
        assert_eq!(far.len(), 1);
        assert_eq!(far[0].oid, oid);
    }

    #[test]
    fn delete_removes_everywhere() {
        let mut db = db_with_poles(3);
        let poles = db.get_class("net", "Pole", false).unwrap();
        let oid = poles[1].oid;
        db.delete(oid).unwrap();
        assert!(db.get_value(oid).is_err());
        assert_eq!(db.extent_size("net", "Pole"), 2);
        assert_eq!(db.get_class("net", "Pole", false).unwrap().len(), 2);
        assert!(db.delete(oid).is_err());
    }

    #[test]
    fn polymorphic_extension_includes_subclasses() {
        let mut db = db_with_poles(2);
        let supplier = db
            .insert("net", "Supplier", vec![("name".into(), "B".into())])
            .unwrap();
        db.insert(
            "net",
            "TallPole",
            vec![
                ("height".into(), 30.0.into()),
                ("supplier".into(), Value::Ref(supplier)),
                (
                    "location".into(),
                    Geometry::Point(Point::new(50.0, 50.0)).into(),
                ),
            ],
        )
        .unwrap();
        assert_eq!(db.get_class("net", "Pole", false).unwrap().len(), 2);
        assert_eq!(db.get_class("net", "Pole", true).unwrap().len(), 3);
    }

    #[test]
    fn methods_resolve_references() {
        let mut db = db_with_poles(1);
        db.register_method(
            "net",
            "Pole",
            "get_supplier_name",
            Arc::new(|db, inst, _args| {
                // The method body navigates the reference through the db.
                let Value::Ref(supplier_oid) = inst.get("supplier") else {
                    return Ok(Value::Null);
                };
                let supplier = db.resolve(*supplier_oid)?;
                Ok(supplier.get("name").clone())
            }),
        )
        .unwrap();
        let poles = db.get_class("net", "Pole", false).unwrap();
        let name = db.call_method(&poles[0], "get_supplier_name", &[]).unwrap();
        assert_eq!(name, Value::Text("Acme".into()));

        assert!(db
            .register_method(
                "net",
                "Pole",
                "no_such",
                Arc::new(|_, _, _| Ok(Value::Null))
            )
            .is_err());
        assert!(db.call_method(&poles[0], "unregistered", &[]).is_err());
    }

    #[test]
    fn buffer_stats_reflect_access() {
        let mut db = db_with_poles(200);
        db.reset_buffer_stats();
        db.get_class("net", "Pole", false).unwrap();
        let s = db.buffer_stats();
        assert!(s.hits + s.misses > 0);
    }
}

#[cfg(test)]
mod nearest_tests {
    use super::*;
    use crate::geometry::{Geometry, Point};
    use crate::schema::{ClassDef, SchemaDef};
    use crate::value::AttrType;

    fn grid_db(kind: IndexKind) -> Database {
        let mut db = Database::new("t");
        db.set_index_kind(kind);
        db.register_schema(
            SchemaDef::new("s").class(
                ClassDef::new("P")
                    .attr("n", AttrType::Int)
                    .attr("loc", AttrType::Geometry),
            ),
        )
        .unwrap();
        for i in 0..10i64 {
            for j in 0..10i64 {
                db.insert(
                    "s",
                    "P",
                    vec![
                        ("n".into(), Value::Int(i * 10 + j)),
                        (
                            "loc".into(),
                            Geometry::Point(Point::new(i as f64, j as f64)).into(),
                        ),
                    ],
                )
                .unwrap();
            }
        }
        db.drain_events();
        db
    }

    #[test]
    fn nearest_matches_brute_force_with_and_without_index() {
        for kind in [
            IndexKind::RTree,
            IndexKind::None,
            IndexKind::Grid { cell: 2.0 },
        ] {
            let mut db = grid_db(kind);
            let q = Point::new(4.3, 6.8);
            let got = db.nearest("s", "P", q, 5).unwrap();
            // Brute force.
            let all = db.get_class("s", "P", false).unwrap();
            let mut ranked: Vec<(f64, &Instance)> = all
                .iter()
                .map(|i| (i.get("loc").as_geometry().unwrap().distance_to_point(&q), i))
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
            let expect: Vec<Oid> = ranked[..5].iter().map(|(_, i)| i.oid).collect();
            let got_oids: Vec<Oid> = got.iter().map(|i| i.oid).collect();
            assert_eq!(got_oids, expect, "index kind {kind:?}");
        }
    }

    #[test]
    fn nearest_rejects_nonspatial_classes() {
        let mut db = Database::new("t");
        db.register_schema(
            SchemaDef::new("s").class(ClassDef::new("Plain").attr("n", AttrType::Int)),
        )
        .unwrap();
        assert!(matches!(
            db.nearest("s", "Plain", Point::ORIGIN, 3),
            Err(GeoDbError::InvalidQuery(_))
        ));
    }

    #[test]
    fn nearest_k_zero_and_oversized() {
        let mut db = grid_db(IndexKind::RTree);
        assert!(db.nearest("s", "P", Point::ORIGIN, 0).unwrap().is_empty());
        let all = db.nearest("s", "P", Point::ORIGIN, 1000).unwrap();
        assert!(all.len() <= 100);
        assert!(all.len() >= 8, "over-fetch floor returns at least 8");
    }
}

#[cfg(test)]
mod disk_tests {
    use super::*;
    use crate::geometry::{Geometry, Point};
    use crate::schema::{ClassDef, SchemaDef};
    use crate::value::AttrType;

    #[test]
    fn on_disk_database_round_trips_data() {
        let path = std::env::temp_dir().join(format!(
            "geodb-disk-{}-{}.pages",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_file(&path);
        let mut db = Database::on_disk("disk", &path, 4, EvictionPolicy::Lru).unwrap();
        db.register_schema(
            SchemaDef::new("s").class(
                ClassDef::new("P")
                    .attr("n", AttrType::Int)
                    .attr("loc", AttrType::Geometry),
            ),
        )
        .unwrap();
        // More data than the 4-frame pool holds: pages cycle through disk.
        let mut oids = Vec::new();
        for i in 0..200i64 {
            oids.push(
                db.insert(
                    "s",
                    "P",
                    vec![
                        ("n".into(), Value::Int(i)),
                        (
                            "loc".into(),
                            Geometry::Point(Point::new(i as f64, 0.0)).into(),
                        ),
                    ],
                )
                .unwrap(),
            );
        }
        db.flush().unwrap();
        // Every record reads back correctly through the tiny pool.
        for (i, oid) in oids.iter().enumerate() {
            let inst = db.peek(*oid).unwrap();
            assert_eq!(inst.get("n"), &Value::Int(i as i64));
        }
        assert!(db.buffer_stats().evictions > 0, "pool must have cycled");
        assert!(path.metadata().unwrap().len() > 0);
        std::fs::remove_file(&path).unwrap();
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;
    use crate::gen::{phone_net_db, TelecomConfig};
    use crate::query::CmpOp;

    fn db() -> Database {
        phone_net_db(&TelecomConfig::small()).unwrap().0
    }

    #[test]
    fn count_min_max_sum_avg() {
        let mut db = db();
        let n = db.extent_size("phone_net", "Pole") as i64;
        let count = db
            .aggregate(
                "phone_net",
                "Pole",
                "pole_type",
                Aggregate::Count,
                &Predicate::True,
            )
            .unwrap();
        assert_eq!(count, Value::Int(n));

        let min = db
            .aggregate(
                "phone_net",
                "Pole",
                "pole_composition.pole_height",
                Aggregate::Min,
                &Predicate::True,
            )
            .unwrap();
        let max = db
            .aggregate(
                "phone_net",
                "Pole",
                "pole_composition.pole_height",
                Aggregate::Max,
                &Predicate::True,
            )
            .unwrap();
        let avg = db
            .aggregate(
                "phone_net",
                "Pole",
                "pole_composition.pole_height",
                Aggregate::Avg,
                &Predicate::True,
            )
            .unwrap();
        let (Value::Float(lo), Value::Float(hi), Value::Float(mid)) = (min, max, avg) else {
            panic!("numeric aggregates expected");
        };
        assert!(lo >= 7.0 && hi <= 14.0 && lo <= mid && mid <= hi);
    }

    #[test]
    fn aggregate_respects_predicates() {
        let mut db = db();
        let wood_count = db
            .aggregate(
                "phone_net",
                "Pole",
                "pole_type",
                Aggregate::Count,
                &Predicate::cmp("pole_composition.pole_material", CmpOp::Eq, "wood"),
            )
            .unwrap();
        let all = db
            .aggregate(
                "phone_net",
                "Pole",
                "pole_type",
                Aggregate::Count,
                &Predicate::True,
            )
            .unwrap();
        let (Value::Int(w), Value::Int(a)) = (wood_count, all) else {
            panic!()
        };
        assert!(w > 0 && w < a);
    }

    #[test]
    fn sum_of_text_is_an_error() {
        let mut db = db();
        assert!(matches!(
            db.aggregate(
                "phone_net",
                "Pole",
                "pole_composition.pole_material",
                Aggregate::Sum,
                &Predicate::True
            ),
            Err(GeoDbError::InvalidQuery(_))
        ));
    }

    #[test]
    fn empty_extension_aggregates() {
        let mut db = db();
        let none = &Predicate::cmp("pole_type", CmpOp::Gt, 1_000_000i64);
        assert_eq!(
            db.aggregate("phone_net", "Pole", "pole_type", Aggregate::Count, none)
                .unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            db.aggregate("phone_net", "Pole", "pole_type", Aggregate::Min, none)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            db.aggregate("phone_net", "Pole", "pole_type", Aggregate::Avg, none)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            db.aggregate("phone_net", "Pole", "pole_type", Aggregate::Sum, none)
                .unwrap(),
            Value::Float(0.0)
        );
    }
}
