//! The database facade: the writable head version of the data, with
//! the event stream the active mechanism intercepts.
//!
//! A `Database` holds the one copy of the data. Its class extents are
//! the copy-on-write partitions ([`crate::partition`]) that published
//! snapshots share, so a write patches them through `Arc::make_mut` and
//! copies only what an older snapshot still holds. Queries run the
//! [`DbSnapshot`] implementation over the same partitions; the
//! `Database` adds only the `Get_*` events and owned copies of the
//! rows.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::epoch::Epoch;
use crate::error::{GeoDbError, Result};
use crate::geometry::Rect;
use crate::instance::{Instance, Oid};
use crate::partition::{ClassNames, ClassPartition};
use crate::query::{DbEvent, Predicate};
use crate::schema::SchemaDef;
use crate::store::{DbSnapshot, Methods};
use crate::value::{AttrType, Value};

/// How a method body fetches the instances its receiver references.
///
/// Method bodies navigate `Ref` attributes (the paper's
/// `get_supplier_name(pole_supplier)`), so they need *some* way to turn
/// an [`Oid`] into an [`Instance`]. Abstracting that behind a trait lets
/// one registered body serve both the mutable write-path [`Database`]
/// and the immutable [`crate::store::DbSnapshot`] read path (which
/// resolves against the pinned snapshot, lock-free).
pub trait RefResolver {
    /// Fetch an instance by OID without emitting a query event; both
    /// paths hand out the partition's shared handle, not a copy.
    fn resolve(&mut self, oid: Oid) -> Result<Arc<Instance>>;
}

impl RefResolver for Database {
    fn resolve(&mut self, oid: Oid) -> Result<Arc<Instance>> {
        self.head.peek(oid)
    }
}

/// Native implementation of a schema-declared method.
///
/// Methods receive a [`RefResolver`] (so bodies can fetch referenced
/// instances from the database or from a pinned snapshot), the
/// receiver instance, and positional arguments — mirroring the paper's
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

/// An object-oriented geographic database.
pub struct Database {
    /// The unpublished head version: the catalog, partitions, locator
    /// and methods a published snapshot shares by `Arc`.
    head: DbSnapshot,
    next_oid: u64,
    index_kind: IndexKind,
    events: Vec<DbEvent>,
    /// Events the caller drained while a store write was running; see
    /// [`Database::begin_journal`].
    journal: Option<Vec<DbEvent>>,
    last_query: QueryStats,
}

impl Database {
    /// Open an empty in-memory database.
    pub fn new(name: impl Into<String>) -> Database {
        Database::with_head(DbSnapshot::empty(&name.into()), 1)
    }

    /// A private, writable database that shares every partition of a
    /// pinned snapshot: writes to it copy only the rows they touch and
    /// never reach the store the snapshot came from (Simulation mode's
    /// sandbox).
    pub fn from_snapshot(snap: &DbSnapshot) -> Database {
        let next_oid = snap.locator.iter().map(|(oid, _)| oid.0 + 1).max();
        Database::with_head(snap.published(Epoch::ZERO), next_oid.unwrap_or(1))
    }

    fn with_head(head: DbSnapshot, next_oid: u64) -> Database {
        Database {
            head,
            next_oid,
            index_kind: IndexKind::RTree,
            events: Vec::new(),
            journal: None,
            last_query: QueryStats::default(),
        }
    }

    pub fn name(&self) -> &str {
        self.head.name()
    }

    pub fn catalog(&self) -> &Catalog {
        self.head.catalog()
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

    pub fn last_query_stats(&self) -> QueryStats {
        self.last_query
    }

    // -- versions ---------------------------------------------------------

    /// The head version published under `epoch`: `Arc` clones only.
    pub(crate) fn snapshot_at(&self, epoch: Epoch) -> DbSnapshot {
        self.head.published(epoch)
    }

    /// A read-only view of the current contents (epoch 0) that shares
    /// every partition: its reads hand out shared rows and emit no
    /// events. Later writes to this database do not show through it.
    pub fn snapshot(&self) -> DbSnapshot {
        self.snapshot_at(Epoch::ZERO)
    }

    /// Serve method bodies from a shared registry (replicas reuse the
    /// primary's bodies; code does not travel in frames).
    pub(crate) fn set_methods(&mut self, methods: Arc<Methods>) {
        self.head.methods = methods;
    }

    // -- events -----------------------------------------------------------

    fn emit(&mut self, e: DbEvent) {
        self.events.push(e);
    }

    /// Events accumulated since the last drain, oldest first.
    pub fn drain_events(&mut self) -> Vec<DbEvent> {
        let drained = std::mem::take(&mut self.events);
        if let Some(journal) = self.journal.as_mut() {
            journal.extend(drained.iter().cloned());
        }
        drained
    }

    /// Start recording what a store write emits. Pending events are
    /// dropped; until [`Database::end_journal`], events the write
    /// closure drains itself are kept for the commit as well, so a
    /// helper that empties the queue cannot hide its mutations.
    pub(crate) fn begin_journal(&mut self) {
        self.events.clear();
        self.journal = Some(Vec::new());
    }

    /// Everything emitted since [`Database::begin_journal`], oldest
    /// first, drained or not. Stops recording and empties the queue.
    pub(crate) fn end_journal(&mut self) -> Vec<DbEvent> {
        let mut journal = self.journal.take().unwrap_or_default();
        journal.append(&mut self.events);
        journal
    }

    // -- schema -----------------------------------------------------------

    /// Register a schema and create (empty) extents for its classes.
    pub fn register_schema(&mut self, schema: SchemaDef) -> Result<()> {
        let name = schema.name.clone();
        let classes: Vec<String> = schema.classes.iter().map(|c| c.name.clone()).collect();
        Arc::make_mut(&mut self.head.catalog).register(schema)?;
        let parts = Arc::make_mut(&mut self.head.parts);
        for class in classes {
            // The primary geometry attribute is the first (inherited
            // included) attribute of type Geometry.
            let geom_attr = self
                .head
                .catalog
                .effective_attrs(&name, &class)?
                .into_iter()
                .find(|a| a.ty == AttrType::Geometry)
                .map(|a| a.name);
            parts.insert(
                &name,
                &class,
                ClassPartition::new(geom_attr, self.index_kind),
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
        let methods = self.head.catalog.effective_methods(schema, class)?;
        if !methods.iter().any(|m| m.name == method) {
            return Err(GeoDbError::UnknownMethod {
                class: class.into(),
                method: method.into(),
            });
        }
        Arc::make_mut(&mut self.head.methods).insert((class.to_string(), method.to_string()), f);
        Ok(())
    }

    /// Invoke a method on an instance.
    pub fn call_method(&mut self, inst: &Instance, method: &str, args: &[Value]) -> Result<Value> {
        self.head.call_method(inst, method, args)
    }

    // -- reads ------------------------------------------------------------

    /// `Get_Value` primitive: fetch one instance, emitting the event.
    pub fn get_value(&mut self, oid: Oid) -> Result<Instance> {
        let inst = self.head.get_value(oid)?;
        let (schema, class) = self.located(oid)?;
        self.emit(DbEvent::GetValue {
            schema: schema.to_string(),
            class: class.to_string(),
            oid,
        });
        Ok((*inst).clone())
    }

    /// Fetch without emitting an event (internal plumbing, rendering).
    pub fn peek(&mut self, oid: Oid) -> Result<Instance> {
        self.head.peek(oid).map(|inst| (*inst).clone())
    }

    /// `Get_Schema` primitive: schema metadata, emitting the event.
    pub fn get_schema(&mut self, schema: &str) -> Result<SchemaDef> {
        let def = self.head.get_schema(schema)?;
        self.emit(DbEvent::GetSchema {
            schema: schema.into(),
        });
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
        let rows = self.head.get_class(schema, class, with_subclasses)?;
        self.emit(DbEvent::GetClass {
            schema: schema.into(),
            class: class.into(),
        });
        Ok(owned(&rows))
    }

    /// Selection with optional spatial-index acceleration.
    pub fn select(&mut self, schema: &str, class: &str, pred: &Predicate) -> Result<Vec<Instance>> {
        let (rows, stats) = self.head.select_with_stats(schema, class, pred)?;
        self.last_query = stats;
        Ok(owned(&rows))
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
        let (rows, stats) = self.head.select_with_stats(schema, class, pred)?;
        self.last_query = stats;
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
        Ok(owned(&self.head.nearest(schema, class, p, k)?))
    }

    /// Spatial window shortcut: everything whose geometry intersects `rect`.
    pub fn window_query(&mut self, schema: &str, class: &str, rect: Rect) -> Result<Vec<Instance>> {
        let pred = self.head.window_predicate(schema, class, rect)?;
        self.select(schema, class, &pred)
    }

    /// All schema definitions, for snapshots and the weak-integration
    /// protocol.
    pub fn schemas(&self) -> Vec<SchemaDef> {
        self.head.schemas()
    }

    /// Schema and class of a stored object.
    pub fn locate(&self, oid: Oid) -> Option<(&str, &str)> {
        self.head.locate(oid)
    }

    /// Every stored object with its schema, in OID order (snapshot dump).
    pub fn dump_objects(&mut self) -> Result<Vec<(String, Instance)>> {
        Ok(self
            .head
            .dump_objects()
            .into_iter()
            .map(|(schema, inst)| (schema.to_string(), (*inst).clone()))
            .collect())
    }

    /// Number of stored instances of a class (own extent only).
    pub fn extent_size(&self, schema: &str, class: &str) -> usize {
        self.head.extent_size(schema, class)
    }

    // -- writes -----------------------------------------------------------

    /// The interned names of a stored object's class.
    fn located(&self, oid: Oid) -> Result<ClassNames> {
        self.head
            .locator
            .get(oid)
            .cloned()
            .ok_or(GeoDbError::UnknownOid(oid.0))
    }

    /// The partition of (schema, class), copied first if a snapshot
    /// still shares it, with its interned names.
    fn partition_mut(
        &mut self,
        schema: &str,
        class: &str,
    ) -> Result<(ClassNames, &mut ClassPartition)> {
        if self.head.parts.get(schema, class).is_none() {
            return Err(GeoDbError::UnknownClass(class.to_string()));
        }
        let parts = Arc::make_mut(&mut self.head.parts);
        let (names, part) = parts.entry_mut(schema, class).expect("checked above");
        Ok((names.clone(), Arc::make_mut(part)))
    }

    /// Store a validated row in its class extent: a held row is replaced
    /// in place, a new one is appended and located.
    fn put(&mut self, schema: &str, inst: Instance) -> Result<()> {
        let oid = inst.oid;
        let (names, part) = self.partition_mut(schema, &inst.class)?;
        if part.upsert(Arc::new(inst)).is_none() {
            Arc::make_mut(&mut self.head.locator).insert(oid, names);
        }
        Ok(())
    }

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
        self.head.catalog.validate_instance(schema, &inst)?;
        self.put(schema, inst)?;
        self.next_oid += 1;
        self.emit(DbEvent::Insert {
            schema: schema.into(),
            class: class.into(),
            oid,
        });
        Ok(oid)
    }

    /// Update named attributes of an instance.
    pub fn update(&mut self, oid: Oid, changes: Vec<(String, Value)>) -> Result<()> {
        let (schema, class) = self.located(oid)?;
        let mut inst = (*self.head.peek(oid)?).clone();
        for (k, v) in changes {
            inst.values.insert(k, v);
        }
        self.head.catalog.validate_instance(&schema, &inst)?;
        self.put(&schema, inst)?;
        self.emit(DbEvent::Update {
            schema: schema.to_string(),
            class: class.to_string(),
            oid,
        });
        Ok(())
    }

    /// Delete an instance.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let (schema, class) = self.located(oid)?;
        let (_, part) = self.partition_mut(&schema, &class)?;
        part.remove(oid).ok_or(GeoDbError::UnknownOid(oid.0))?;
        Arc::make_mut(&mut self.head.locator).remove(oid);
        self.emit(DbEvent::Delete {
            schema: schema.to_string(),
            class: class.to_string(),
            oid,
        });
        Ok(())
    }

    /// Restore an instance with its original OID (snapshot load path).
    pub fn restore_instance(&mut self, schema: &str, inst: Instance) -> Result<()> {
        if self.head.locator.get(inst.oid).is_some() {
            return Err(GeoDbError::Duplicate(format!("oid {}", inst.oid)));
        }
        self.head.catalog.validate_instance(schema, &inst)?;
        let oid = inst.oid;
        self.put(schema, inst)?;
        self.next_oid = self.next_oid.max(oid.0 + 1);
        Ok(())
    }

    /// Replay a post-image: the row replaces the stored one wholesale
    /// and keeps its place in the extension, or is restored if absent
    /// (WAL replay).
    pub(crate) fn put_post_image(&mut self, schema: &str, inst: Instance) -> Result<()> {
        match self.head.locate(inst.oid) {
            Some((s, c)) if s == schema && c == inst.class => {
                self.head.catalog.validate_instance(schema, &inst)?;
                self.put(schema, inst)
            }
            Some(_) => {
                self.delete(inst.oid)?;
                self.restore_instance(schema, inst)
            }
            None => self.restore_instance(schema, inst),
        }
    }

    /// Replace a class extent wholesale with shipped rows, in the order
    /// given (a replica applying a delta frame).
    pub(crate) fn install_partition(
        &mut self,
        schema: &str,
        class: &str,
        rows: Vec<Arc<Instance>>,
    ) -> Result<()> {
        let max_oid = rows.iter().map(|r| r.oid.0 + 1).max().unwrap_or(0);
        let parts = Arc::make_mut(&mut self.head.parts);
        let (names, slot) = parts
            .entry_mut(schema, class)
            .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
        let fresh = slot.with_rows(rows);
        let locator = Arc::make_mut(&mut self.head.locator);
        for oid in slot.oids() {
            locator.remove(*oid);
        }
        for oid in fresh.oids() {
            locator.insert(*oid, names.clone());
        }
        *slot = Arc::new(fresh);
        self.next_oid = self.next_oid.max(max_oid);
        Ok(())
    }
}

/// Owned copies of shared rows (the `Database` read API).
fn owned(rows: &[Arc<Instance>]) -> Vec<Instance> {
    rows.iter().map(|r| (**r).clone()).collect()
}

/// The aggregation reducer shared by [`Database::aggregate`] and the
/// snapshot-side aggregate.
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
            .field("name", &self.name())
            .field("schemas", &self.catalog().schema_names())
            .field("objects", &self.head.object_count())
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
