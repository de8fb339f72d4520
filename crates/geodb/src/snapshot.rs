//! Whole-database snapshots.
//!
//! Persistence serializes the *logical* state (schemas + instances) as
//! JSON: the snapshot stays readable and version-tolerant. Saving hands
//! the partitions' shared rows to the encoder without copying them;
//! loading rebuilds extents and indexes from scratch.

use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::db::Database;
use crate::epoch::Epoch;
use crate::error::{GeoDbError, Result, SnapshotCause};
use crate::instance::Instance;
use crate::schema::SchemaDef;
use crate::store::{DbSnapshot, DbStore};

/// Format version stamped into every snapshot.
const VERSION: u32 = 1;

/// The one full-state document: every save path (database save, pinned
/// snapshot save, WAL checkpoint, replication full sync) builds this
/// struct and every load path decodes it, so the encodings can never
/// drift apart.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SnapshotDoc {
    version: u32,
    name: String,
    schemas: Vec<SchemaDef>,
    /// `(schema, instance)` pairs in OID order.
    objects: Vec<(Arc<str>, Arc<Instance>)>,
}

/// Build the document from a mutable database (write-side state).
pub(crate) fn doc_from_db(db: &Database) -> SnapshotDoc {
    SnapshotDoc {
        version: VERSION,
        name: db.name().to_string(),
        schemas: db.schemas(),
        objects: db.snapshot().dump_objects(),
    }
}

/// Build the document from a pinned snapshot (read-side state).
pub(crate) fn doc_from_snapshot(snap: &DbSnapshot) -> SnapshotDoc {
    SnapshotDoc {
        version: VERSION,
        name: snap.name().to_string(),
        schemas: snap.schemas(),
        objects: snap.dump_objects(),
    }
}

/// The shared encoder: one JSON shape for every save path.
///
/// The output is exactly `serde_json::to_string_pretty(doc)`, but built
/// one part at a time: each object's serialization tree is dropped
/// before the next one is built, so a save (a checkpoint every
/// `checkpoint_every` commits) holds one row's tree beside the output
/// instead of a tree of the whole store.
pub(crate) fn doc_to_json(doc: &SnapshotDoc) -> Result<String> {
    let mut out = String::from("{\n  \"version\": ");
    push_pretty(&mut out, &doc.version, 1)?;
    out.push_str(",\n  \"name\": ");
    push_pretty(&mut out, &doc.name, 1)?;
    out.push_str(",\n  \"schemas\": ");
    push_pretty(&mut out, &doc.schemas, 1)?;
    out.push_str(",\n  \"objects\": ");
    if doc.objects.is_empty() {
        out.push_str("[]");
    } else {
        out.push('[');
        for (i, object) in doc.objects.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_pretty(&mut out, object, 2)?;
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}");
    Ok(out)
}

/// Append `value` pretty-printed as if nested `level` deep: every line
/// after the first gains the enclosing indentation (JSON strings escape
/// their newlines, so each raw newline starts a line of the layout).
fn push_pretty<T: Serialize + ?Sized>(out: &mut String, value: &T, level: usize) -> Result<()> {
    let text =
        serde_json::to_string_pretty(value).map_err(|e| GeoDbError::Snapshot(e.to_string()))?;
    let indent = "  ".repeat(level);
    for (i, line) in text.split('\n').enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(&indent);
        }
        out.push_str(line);
    }
    Ok(())
}

/// The shared decoder: version-check the document and rebuild a
/// database from it (extents, indexes and the OID allocator included).
pub(crate) fn db_from_doc(doc: SnapshotDoc) -> Result<Database> {
    if doc.version != VERSION {
        return Err(GeoDbError::snapshot_load(
            "check snapshot version",
            SnapshotCause::Format(format!(
                "unsupported snapshot version {} (expected {VERSION})",
                doc.version
            )),
        ));
    }
    let mut db = Database::new(doc.name);
    for schema in doc.schemas {
        db.register_schema(schema)?;
    }
    for (schema, inst) in doc.objects {
        let inst = Arc::try_unwrap(inst).unwrap_or_else(|shared| (*shared).clone());
        db.restore_instance(&schema, inst)?;
    }
    db.drain_events();
    Ok(db)
}

/// Serialize a database to a JSON string.
pub fn save(db: &mut Database) -> Result<String> {
    doc_to_json(&doc_from_db(db))
}

/// Serialize a pinned in-memory snapshot to a JSON string.
///
/// This is the read-path twin of [`save`]: it captures exactly the epoch
/// the caller holds, without touching the store's writer — concurrent
/// writers publishing newer epochs cannot leak into the output.
pub fn save_snapshot(snap: &DbSnapshot) -> Result<String> {
    doc_to_json(&doc_from_snapshot(snap))
}

/// Load a JSON snapshot into an existing store, replacing its contents
/// and publishing a fresh epoch. Returns the new epoch; readers pinned
/// to older epochs keep their view until they re-pin.
pub fn restore_store(store: &DbStore, json: &str) -> Result<Epoch> {
    store.replace(load(json)?)
}

/// Load a JSON snapshot straight into a new versioned store (epoch 1).
pub fn load_store(json: &str) -> Result<DbStore> {
    Ok(DbStore::new(load(json)?))
}

/// Reconstruct a database from a JSON snapshot.
///
/// Malformed input never panics: parse failures, format-version
/// mismatches and file I/O errors all surface as
/// [`GeoDbError::SnapshotLoad`] carrying a typed [`SnapshotCause`]
/// reachable through `Error::source()`.
pub fn load(json: &str) -> Result<Database> {
    let doc: SnapshotDoc = serde_json::from_str(json).map_err(|e| {
        GeoDbError::snapshot_load(
            "parse snapshot document",
            SnapshotCause::Json(e.to_string()),
        )
    })?;
    db_from_doc(doc)
}

/// Save to a file.
pub fn save_to_file(db: &mut Database, path: impl AsRef<Path>) -> Result<()> {
    let json = save(db)?;
    std::fs::write(path.as_ref(), json).map_err(|e| {
        GeoDbError::snapshot_load(
            format!("write {:?}", path.as_ref()),
            SnapshotCause::Io(e.to_string()),
        )
    })
}

/// Load from a file.
pub fn load_from_file(path: impl AsRef<Path>) -> Result<Database> {
    let json = std::fs::read_to_string(path.as_ref()).map_err(|e| {
        GeoDbError::snapshot_load(
            format!("read {:?}", path.as_ref()),
            SnapshotCause::Io(e.to_string()),
        )
    })?;
    load(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Geometry, Point, Rect};
    use crate::schema::ClassDef;
    use crate::value::{AttrType, Value};

    fn sample_db() -> Database {
        let mut db = Database::new("snap");
        db.register_schema(
            SchemaDef::new("s").class(
                ClassDef::new("City")
                    .attr("name", AttrType::Text)
                    .attr("center", AttrType::Geometry),
            ),
        )
        .unwrap();
        for (name, x) in [("Campinas", 0.0), ("Tandil", 10.0)] {
            db.insert(
                "s",
                "City",
                vec![
                    ("name".into(), name.into()),
                    ("center".into(), Geometry::Point(Point::new(x, 0.0)).into()),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut db = sample_db();
        let oids_before: Vec<_> = db
            .get_class("s", "City", false)
            .unwrap()
            .iter()
            .map(|i| i.oid)
            .collect();
        let json = save(&mut db).unwrap();
        let mut db2 = load(&json).unwrap();

        let cities = db2.get_class("s", "City", false).unwrap();
        assert_eq!(cities.len(), 2);
        let oids_after: Vec<_> = cities.iter().map(|i| i.oid).collect();
        assert_eq!(oids_before, oids_after, "OIDs survive the round trip");
        assert_eq!(cities[0].get("name"), &Value::Text("Campinas".into()));

        // Spatial index was rebuilt.
        let hits = db2
            .window_query("s", "City", Rect::new(9.0, -1.0, 11.0, 1.0))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("name"), &Value::Text("Tandil".into()));

        // New inserts do not collide with restored OIDs.
        let new_oid = db2
            .insert(
                "s",
                "City",
                vec![
                    ("name".into(), "Bari".into()),
                    (
                        "center".into(),
                        Geometry::Point(Point::new(5.0, 5.0)).into(),
                    ),
                ],
            )
            .unwrap();
        assert!(!oids_before.contains(&new_oid));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut db = sample_db();
        let json = save(&mut db).unwrap();
        let bad = json.replace("\"version\": 1", "\"version\": 99");
        match load(&bad) {
            Err(GeoDbError::SnapshotLoad { source, .. }) => {
                assert!(matches!(*source, SnapshotCause::Format(_)));
            }
            other => panic!("expected SnapshotLoad, got {other:?}"),
        }
    }

    #[test]
    fn garbage_input_is_rejected_with_a_source_chain() {
        use std::error::Error as _;
        for garbage in ["not json", "{}", "[1,2,3]"] {
            match load(garbage) {
                Err(err @ GeoDbError::SnapshotLoad { .. }) => {
                    let source = err.source().expect("load errors carry a source");
                    assert!(matches!(
                        source.downcast_ref::<SnapshotCause>(),
                        Some(SnapshotCause::Json(_))
                    ));
                }
                other => panic!("expected SnapshotLoad, got {other:?}"),
            }
        }
    }

    #[test]
    fn store_round_trip_bumps_epoch_and_preserves_pins() {
        use crate::store::DbStore;

        let store = DbStore::new(sample_db());
        assert_eq!(store.epoch(), 1);

        // Saving goes through a pinned snapshot: writes racing the save
        // can't change what this epoch serializes.
        let pinned = store.snapshot();
        let json = save_snapshot(&pinned).unwrap();

        // Restoring into the same store publishes a fresh epoch...
        let mut reader = store.reader();
        let before = std::sync::Arc::clone(reader.pin());
        let epoch = restore_store(&store, &json).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(store.epoch(), 2);
        // ...while the old pin still serves its epoch.
        assert_eq!(before.epoch(), 1);
        assert_eq!(before.get_class("s", "City", false).unwrap().len(), 2);

        // The restored state round-trips byte-identically.
        let json2 = save_snapshot(&store.snapshot()).unwrap();
        assert_eq!(json, json2, "snapshot JSON is stable across a restore");

        // And a standalone load yields an equivalent fresh store.
        let fresh = load_store(&json).unwrap();
        assert_eq!(fresh.epoch(), 1);
        let cities = fresh.snapshot().get_class("s", "City", false).unwrap();
        assert_eq!(cities.len(), 2);
        assert_eq!(cities[0].get("name"), &Value::Text("Campinas".into()));
    }

    #[test]
    fn part_by_part_encoding_matches_the_whole_document() {
        let mut db = sample_db();
        db.insert(
            "s",
            "City",
            vec![
                ("name".into(), "line one\nline two".into()),
                (
                    "center".into(),
                    Geometry::Point(Point::new(1.0, 2.0)).into(),
                ),
            ],
        )
        .unwrap();
        let doc = doc_from_db(&db);
        let whole = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(doc_to_json(&doc).unwrap(), whole);
        let (db, _) = crate::gen::phone_net_db(&crate::gen::TelecomConfig::small()).unwrap();
        let doc = doc_from_db(&db);
        assert_eq!(
            doc_to_json(&doc).unwrap(),
            serde_json::to_string_pretty(&doc).unwrap()
        );
        let empty = doc_from_db(&Database::new("empty"));
        assert_eq!(
            doc_to_json(&empty).unwrap(),
            serde_json::to_string_pretty(&empty).unwrap()
        );
    }

    #[test]
    fn save_snapshot_matches_database_save() {
        use crate::store::DbStore;

        let mut db = sample_db();
        let via_db = save(&mut db).unwrap();
        db.drain_events();
        let store = DbStore::new(db);
        let via_snap = save_snapshot(&store.snapshot()).unwrap();
        assert_eq!(via_db, via_snap, "both save paths emit the same document");
    }

    #[test]
    fn file_round_trip() {
        let mut db = sample_db();
        let path = std::env::temp_dir().join(format!("geodb-snap-{}.json", std::process::id()));
        save_to_file(&mut db, &path).unwrap();
        let mut db2 = load_from_file(&path).unwrap();
        assert_eq!(db2.get_class("s", "City", false).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
