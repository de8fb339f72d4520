//! Copy-on-write class storage: the one copy of the data.
//!
//! A [`crate::db::Database`] keeps each class extent as a
//! [`ClassPartition`] behind an `Arc`, and every published
//! [`crate::store::DbSnapshot`] holds clones of those same `Arc`s. A
//! write patches through `Arc::make_mut`, so it copies only what an
//! older snapshot still shares:
//!
//! * rows live in an [`OidMap`] of `Arc` buckets — patching one row
//!   copies its bucket, not the extent;
//! * the insertion order sits behind its own `Arc` and is copied only
//!   when a row is added or removed;
//! * the spatial index sits behind an `Arc` and is copied only when a
//!   write changes a row's bounding box, or adds or removes a row of a
//!   spatial class.

use std::collections::HashMap;
use std::sync::Arc;

use crate::db::IndexKind;
use crate::geometry::Rect;
use crate::index::{GridIndex, RTree, SpatialIndex};
use crate::instance::{Instance, Oid};

const OID_BUCKETS: u64 = 64;

/// oid → `V`, sharded into `Arc` buckets so a patch clones one bucket
/// (1/64th of the map) instead of every entry. Rows and the OID
/// locator both use it.
#[derive(Clone)]
pub(crate) struct OidMap<V> {
    buckets: Vec<Arc<HashMap<Oid, V>>>,
}

impl<V: Clone> OidMap<V> {
    pub(crate) fn new() -> OidMap<V> {
        OidMap {
            buckets: (0..OID_BUCKETS).map(|_| Arc::new(HashMap::new())).collect(),
        }
    }

    fn bucket(oid: Oid) -> usize {
        (oid.0 % OID_BUCKETS) as usize
    }

    pub(crate) fn get(&self, oid: Oid) -> Option<&V> {
        self.buckets[Self::bucket(oid)].get(&oid)
    }

    pub(crate) fn insert(&mut self, oid: Oid, value: V) -> Option<V> {
        Arc::make_mut(&mut self.buckets[Self::bucket(oid)]).insert(oid, value)
    }

    /// Remove an entry; an absent key copies no bucket.
    pub(crate) fn remove(&mut self, oid: Oid) -> Option<V> {
        let bucket = &mut self.buckets[Self::bucket(oid)];
        if !bucket.contains_key(&oid) {
            return None;
        }
        Arc::make_mut(bucket).remove(&oid)
    }

    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Every entry, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &V)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|(oid, v)| (*oid, v)))
    }
}

/// The rows of one (schema, class) extent plus its spatial index.
/// Every part is shared by `Arc` between the writer and the snapshots
/// that published it; a write copies only the parts it changes.
#[derive(Clone)]
pub(crate) struct ClassPartition {
    rows: OidMap<Arc<Instance>>,
    /// Insertion order, so extensions list deterministically.
    order: Arc<Vec<Oid>>,
    spatial: Option<Arc<dyn SpatialIndex>>,
    geom_attr: Option<Arc<str>>,
    /// Index kind chosen at creation; a shipped replacement keeps it.
    kind: IndexKind,
}

impl ClassPartition {
    /// An empty extent. Classes with a geometry attribute get the
    /// spatial index `kind` names.
    pub(crate) fn new(geom_attr: Option<String>, kind: IndexKind) -> ClassPartition {
        let spatial: Option<Arc<dyn SpatialIndex>> = match (&geom_attr, kind) {
            (Some(_), IndexKind::RTree) => Some(Arc::new(RTree::new())),
            (Some(_), IndexKind::Grid { cell }) => Some(Arc::new(GridIndex::new(cell))),
            _ => None,
        };
        ClassPartition {
            rows: OidMap::new(),
            order: Arc::new(Vec::new()),
            spatial,
            geom_attr: geom_attr.map(Arc::from),
            kind,
        }
    }

    /// A partition of the same class and index kind holding `rows` in
    /// the given order (a replica installing a shipped extent).
    pub(crate) fn with_rows(&self, rows: Vec<Arc<Instance>>) -> ClassPartition {
        let mut part = ClassPartition::new(self.geom_attr.as_deref().map(String::from), self.kind);
        for row in rows {
            part.upsert(row);
        }
        part
    }

    fn bbox(&self, inst: &Instance) -> Option<Rect> {
        let attr = self.geom_attr.as_deref()?;
        inst.get(attr).as_geometry().map(|g| g.bbox())
    }

    /// The spatial index, copied first if a snapshot still shares it.
    fn index_mut(&mut self) -> Option<&mut (dyn SpatialIndex + 'static)> {
        let idx = self.spatial.as_mut()?;
        if Arc::get_mut(idx).is_none() {
            *idx = Arc::from(idx.clone_box());
        }
        Arc::get_mut(idx)
    }

    /// Insert a row, or replace a held one in place (it keeps its
    /// position in the order). The index is touched only when the
    /// row's bounding box changed. Returns the replaced row.
    pub(crate) fn upsert(&mut self, inst: Arc<Instance>) -> Option<Arc<Instance>> {
        let oid = inst.oid;
        let bbox = self.bbox(&inst);
        let old = self.rows.insert(oid, inst);
        let old_bbox = old.as_deref().and_then(|o| self.bbox(o));
        if old.is_none() {
            Arc::make_mut(&mut self.order).push(oid);
        }
        if old_bbox != bbox {
            if let Some(idx) = self.index_mut() {
                if old_bbox.is_some() {
                    idx.remove(oid);
                }
                if let Some(bbox) = bbox {
                    idx.insert(oid, bbox);
                }
            }
        }
        old
    }

    /// Remove a row, returning it if it was held.
    pub(crate) fn remove(&mut self, oid: Oid) -> Option<Arc<Instance>> {
        let old = self.rows.remove(oid)?;
        Arc::make_mut(&mut self.order).retain(|o| *o != oid);
        if self.bbox(&old).is_some() {
            if let Some(idx) = self.index_mut() {
                idx.remove(oid);
            }
        }
        Some(old)
    }

    pub(crate) fn get(&self, oid: Oid) -> Option<&Arc<Instance>> {
        self.rows.get(oid)
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The extent's OIDs in insertion order.
    pub(crate) fn oids(&self) -> &[Oid] {
        &self.order
    }

    /// The extent's rows in insertion order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &Arc<Instance>> {
        self.order
            .iter()
            .map(|oid| self.rows.get(*oid).expect("ordered oid present"))
    }

    /// The extent's rows in insertion order, as shared handles (delta
    /// shipping serializes a touched partition wholesale).
    pub(crate) fn instances_ordered(&self) -> Vec<Arc<Instance>> {
        self.rows().cloned().collect()
    }

    pub(crate) fn geom_attr(&self) -> Option<&str> {
        self.geom_attr.as_deref()
    }

    pub(crate) fn spatial(&self) -> Option<&dyn SpatialIndex> {
        self.spatial.as_deref()
    }

    /// Is this partition's spatial index the very one `other` holds?
    #[cfg(test)]
    pub(crate) fn shares_index_with(&self, other: &ClassPartition) -> bool {
        match (&self.spatial, &other.spatial) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A class extent's interned (schema, class) names.
pub(crate) type ClassNames = (Arc<str>, Arc<str>);

/// Class partitions keyed by (schema, class) and kept sorted by key:
/// lookups borrow `&str`s, iteration is deterministic, and a clone is
/// one allocation plus reference-count increments.
#[derive(Clone, Default)]
pub(crate) struct Partitions(Vec<(ClassNames, Arc<ClassPartition>)>);

impl Partitions {
    fn find(&self, schema: &str, class: &str) -> Result<usize, usize> {
        self.0
            .binary_search_by(|((s, c), _)| (&**s, &**c).cmp(&(schema, class)))
    }

    pub(crate) fn get(&self, schema: &str, class: &str) -> Option<&Arc<ClassPartition>> {
        let i = self.find(schema, class).ok()?;
        Some(&self.0[i].1)
    }

    /// The interned names and the partition, for a writer about to
    /// patch it.
    pub(crate) fn entry_mut(
        &mut self,
        schema: &str,
        class: &str,
    ) -> Option<(&ClassNames, &mut Arc<ClassPartition>)> {
        let i = self.find(schema, class).ok()?;
        let (names, part) = &mut self.0[i];
        Some((&*names, part))
    }

    /// Add or replace the partition of (schema, class).
    pub(crate) fn insert(&mut self, schema: &str, class: &str, part: ClassPartition) {
        match self.find(schema, class) {
            Ok(i) => self.0[i].1 = Arc::new(part),
            Err(i) => self
                .0
                .insert(i, ((Arc::from(schema), Arc::from(class)), Arc::new(part))),
        }
    }

    /// Every partition in (schema, class) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&ClassNames, &Arc<ClassPartition>)> {
        self.0.iter().map(|(names, part)| (names, part))
    }
}
