//! The write path over shared partitions: what a commit must leave
//! behind, byte for byte and row for row.
//!
//! * golden bytes — a fixed sequence of writes produces the checkpoint
//!   document and binary WAL frames recorded from the page-backed store
//!   this design replaced;
//! * extension order — WAL replay (recovery and replica promotion)
//!   lists a class's rows in the order the live store does;
//! * non-finite floats — refused at validation, so no JSON checkpoint
//!   can fail on a row the store accepted;
//! * copy-on-change spatial index — after moves, inserts and deletes,
//!   index-driven window and nearest queries agree with a scan, while a
//!   snapshot pinned earlier keeps answering with the old positions.

use std::path::PathBuf;
use std::sync::Arc;

use geodb::gen::{phone_net_db, TelecomConfig};
use geodb::snapshot::save_snapshot;
use geodb::wal::{self, WalConfig};
use geodb::{
    AttrType, ClassDef, Database, DbSnapshot, DbStore, Geometry, IndexKind, Instance, Oid, Point,
    Predicate, Rect, ReplicaStore, SchemaDef, Value,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "geodb-write-path-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pole_oids(snap: &DbSnapshot) -> Vec<Oid> {
    snap.get_class("phone_net", "Pole", false)
        .unwrap()
        .iter()
        .map(|p| p.oid)
        .collect()
}

fn set_pole_type(store: &DbStore, oid: Oid, pole_type: i64) {
    store
        .write(|db| db.update(oid, vec![("pole_type".into(), Value::Int(pole_type))]))
        .unwrap();
}

/// An attribute update, a geometry move, an insert, a delete and a
/// schema registration (with one row in the new schema).
fn golden_writes(store: &DbStore) {
    let poles = store
        .snapshot()
        .get_class("phone_net", "Pole", false)
        .unwrap();
    set_pole_type(store, poles[3].oid, 9);
    let moved = Geometry::Point(Point::new(500.0, 500.0));
    store
        .write(|db| db.update(poles[10].oid, vec![("pole_location".into(), moved.into())]))
        .unwrap();
    let mut values: Vec<(String, Value)> = poles[20]
        .values
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for (k, v) in &mut values {
        if k == "pole_location" {
            *v = Geometry::Point(Point::new(-5.0, 7.5)).into();
        }
    }
    store
        .write(|db| db.insert("phone_net", "Pole", values))
        .unwrap();
    store.write(|db| db.delete(poles[20].oid)).unwrap();
    store
        .write(|db| {
            db.register_schema(
                SchemaDef::new("admin").class(
                    ClassDef::new("Zone")
                        .attr("zone_name", AttrType::Text)
                        .attr("zone_area", AttrType::Geometry),
                ),
            )?;
            db.insert(
                "admin",
                "Zone",
                vec![
                    ("zone_name".into(), "centro".into()),
                    (
                        "zone_area".into(),
                        Geometry::Point(Point::new(1.0, 2.0)).into(),
                    ),
                ],
            )
        })
        .unwrap();
}

/// FNV-1a digests of the final `save_snapshot` document and of the WAL
/// file (header plus every binary frame), recorded from the page-backed
/// store: the checkpoint format and the redo frames must not move.
const GOLDEN_SNAPSHOT: u64 = 0x34ed_663f_6d0c_b542;
const GOLDEN_WAL: u64 = 0x9def_9f02_ba05_945a;

#[test]
fn golden_bytes_match_the_page_backed_store() {
    let dir = tmp_dir("golden");
    let (db, _) = phone_net_db(&TelecomConfig::small()).unwrap();
    let (store, _) = wal::open(db, WalConfig::new(&dir)).unwrap();
    golden_writes(&store);
    let json = save_snapshot(&store.snapshot()).unwrap();
    let log = std::fs::read(dir.join(wal::WAL_FILE)).unwrap();
    let (snap_digest, wal_digest) = (wal::checksum(json.as_bytes()), wal::checksum(&log));
    eprintln!(
        "snapshot {snap_digest:#018x} ({} B), wal {wal_digest:#018x} ({} B)",
        json.len(),
        log.len()
    );
    assert_eq!(snap_digest, GOLDEN_SNAPSHOT, "checkpoint document changed");
    assert_eq!(wal_digest, GOLDEN_WAL, "WAL frames changed");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_keeps_extension_order() {
    let dir = tmp_dir("order");
    let (db, _) = phone_net_db(&TelecomConfig::small()).unwrap();
    let (store, _) = wal::open(db, WalConfig::new(&dir)).unwrap();
    let replica = ReplicaStore::attach(&store, "r1").unwrap();
    let poles = pole_oids(&store.snapshot());
    // The first update reaches the replica as a shipped partition; the
    // later ones only through the WAL tail that promotion replays.
    set_pole_type(&store, poles[0], 7);
    replica.sync_to_latest().unwrap();
    set_pole_type(&store, poles[1], 7);
    set_pole_type(&store, poles[3], 8);
    let live = pole_oids(&store.snapshot());
    assert_eq!(live, poles, "an update keeps the row in place");
    drop(store);

    let (recovered, report) = wal::recover(WalConfig::new(&dir)).unwrap();
    assert_eq!(report.replayed_records, 3);
    assert_eq!(pole_oids(&recovered.snapshot()), live, "recovered order");
    drop(recovered);

    let (promoted, report) = replica.promote(WalConfig::new(&dir)).unwrap();
    assert_eq!(report.replayed_records, 2);
    assert_eq!(pole_oids(&promoted.snapshot()), live, "promoted order");
    drop(promoted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_floats_are_refused_and_the_store_stays_durable() {
    let dir = tmp_dir("nonfinite");
    let (db, _) = phone_net_db(&TelecomConfig::small()).unwrap();
    let (store, _) = wal::open(db, WalConfig::new(&dir)).unwrap();
    let snap = store.snapshot();
    let duct = snap.get_class("phone_net", "Duct", false).unwrap()[0].oid;
    let pole = Arc::clone(&snap.get_class("phone_net", "Pole", false).unwrap()[0]);

    let nan =
        store.write(|db| db.update(duct, vec![("duct_diameter".into(), Value::Float(f64::NAN))]));
    assert!(nan.is_err(), "a NaN attribute is refused");

    let mut values: Vec<(String, Value)> = pole
        .values
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for (k, v) in &mut values {
        if k == "pole_location" {
            *v = Geometry::Point(Point::new(f64::INFINITY, 1.0)).into();
        }
    }
    let inf = store.write(|db| db.insert("phone_net", "Pole", values));
    assert!(inf.is_err(), "an infinite coordinate is refused");

    let diameter = store.snapshot().get_value(duct).unwrap();
    assert!(
        matches!(diameter.get("duct_diameter"), Value::Float(x) if x.is_finite()),
        "the stored diameter is still a number"
    );
    set_pole_type(&store, pole.oid, 4);
    assert_eq!(
        store
            .snapshot()
            .get_value(pole.oid)
            .unwrap()
            .get("pole_type"),
        &Value::Int(4),
        "the store stays writable"
    );
    store.checkpoint().unwrap();
    save_snapshot(&store.snapshot()).unwrap();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn point_db(kind: IndexKind) -> Database {
    let mut db = Database::new("points");
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
    db
}

fn oids(rows: &[Arc<Instance>]) -> Vec<Oid> {
    rows.iter().map(|r| r.oid).collect()
}

/// Index-driven window and nearest queries against a scan of the same
/// snapshot.
fn assert_index_agrees_with_scan(snap: &DbSnapshot) {
    let all = snap.get_class("s", "P", false).unwrap();
    for rect in [
        Rect::new(-0.5, -0.5, 2.5, 2.5),
        Rect::new(3.0, 3.0, 4.0, 4.0),
        Rect::new(40.0, 40.0, 60.0, 60.0),
        Rect::new(-100.0, -100.0, 100.0, 100.0),
    ] {
        let scan = Predicate::IntersectsRect {
            attr: "loc".into(),
            rect,
        };
        let mut expect: Vec<Oid> = all.iter().filter(|r| scan.eval(r)).map(|r| r.oid).collect();
        expect.sort();
        let got = oids(&snap.window_query("s", "P", rect).unwrap());
        assert_eq!(got, expect, "window {rect:?}");
    }
    for q in [
        Point::new(0.2, 0.1),
        Point::new(3.4, 3.6),
        Point::new(48.0, 51.0),
    ] {
        let dist = |r: &Arc<Instance>| r.get("loc").as_geometry().unwrap().distance_to_point(&q);
        let mut scan: Vec<f64> = all.iter().map(dist).collect();
        scan.sort_by(f64::total_cmp);
        let got: Vec<f64> = snap
            .nearest("s", "P", q, 4)
            .unwrap()
            .iter()
            .map(dist)
            .collect();
        assert_eq!(got, scan[..4], "nearest to {q:?}");
    }
}

#[test]
fn spatial_index_copies_on_change() {
    for kind in [IndexKind::RTree, IndexKind::Grid { cell: 2.0 }] {
        let store = DbStore::new(point_db(kind));
        let before = store.snapshot();
        let rows = before.get_class("s", "P", false).unwrap();
        let (moved, deleted) = (rows[11].oid, rows[22].oid);
        let far = Geometry::Point(Point::new(50.0, 50.0));
        store
            .write(|db| db.update(moved, vec![("loc".into(), far.into())]))
            .unwrap();
        let inserted = store
            .write(|db| {
                db.insert(
                    "s",
                    "P",
                    vec![
                        ("n".into(), Value::Int(-1)),
                        ("loc".into(), Geometry::Point(Point::new(3.5, 3.5)).into()),
                    ],
                )
            })
            .unwrap()
            .value;
        store.write(|db| db.delete(deleted)).unwrap();
        let after = store.snapshot();

        assert_index_agrees_with_scan(&after);
        assert_index_agrees_with_scan(&before);
        let near_old = Rect::new(0.5, 0.5, 1.5, 1.5);
        let near_new = Rect::new(49.0, 49.0, 51.0, 51.0);
        let around_insert = Rect::new(3.0, 3.0, 4.0, 4.0);
        let around_delete = Rect::new(1.5, 1.5, 2.5, 2.5);
        assert_eq!(
            oids(&after.window_query("s", "P", near_new).unwrap()),
            [moved],
            "{kind:?}"
        );
        assert!(!oids(&after.window_query("s", "P", near_old).unwrap()).contains(&moved));
        assert!(oids(&after.window_query("s", "P", around_insert).unwrap()).contains(&inserted));
        assert!(!oids(&after.window_query("s", "P", around_delete).unwrap()).contains(&deleted));
        assert_eq!(
            after.nearest("s", "P", Point::new(49.0, 49.0), 1).unwrap()[0].oid,
            moved
        );
        // The snapshot pinned before the writes keeps the old positions.
        assert!(
            before.window_query("s", "P", near_new).unwrap().is_empty(),
            "{kind:?}"
        );
        assert!(oids(&before.window_query("s", "P", near_old).unwrap()).contains(&moved));
        assert!(!oids(&before.window_query("s", "P", around_insert).unwrap()).contains(&inserted));
        assert!(oids(&before.window_query("s", "P", around_delete).unwrap()).contains(&deleted));
        assert_ne!(
            before.nearest("s", "P", Point::new(49.0, 49.0), 1).unwrap()[0].oid,
            moved
        );
    }
}
