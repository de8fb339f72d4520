//! Snapshot-isolation differential suite for the versioned store.
//!
//! Two angles on the same contract (`docs/storage.md`):
//!
//! 1. **Differential**: a random schedule of inserts/updates/deletes is
//!    applied both to a plain mutable [`Database`] (the oracle) and
//!    through [`DbStore::write`] commits. After every prefix the store's
//!    published snapshot must serialize byte-identically to the oracle,
//!    and a snapshot pinned mid-schedule must keep serializing exactly
//!    the bytes it was pinned at, no matter how many epochs the writer
//!    publishes afterwards.
//!
//! 2. **Threaded stress**: one writer thread commits a seeded schedule
//!    while reader threads hold pins and re-serialize them; any torn
//!    read or leaked mutation shows up as a byte difference. The seed
//!    comes from `ISOLATION_SEED` (CI sweeps 7, 1994, 271828).
//!
//! A third group checks the shared-read contract: reads hand out the
//! pinned epoch's own `Arc<Instance>` handles, and a commit replaces an
//! instance's handle instead of mutating it.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use geodb::db::Database;
use geodb::instance::Oid;
use geodb::query::{CmpOp, Predicate};
use geodb::schema::{ClassDef, SchemaDef};
use geodb::store::DbStore;
use geodb::value::{AttrType, Value};

/// A deliberately small schema so random schedules collide on the same
/// partitions (the interesting case for copy-on-write patching).
fn grid_schema() -> SchemaDef {
    SchemaDef::new("grid")
        .class(
            ClassDef::new("Cell")
                .attr("name", AttrType::Text)
                .attr("level", AttrType::Int),
        )
        .class(
            ClassDef::new("Probe")
                .attr("name", AttrType::Text)
                .attr("reading", AttrType::Float),
        )
}

fn seeded_db(name: &str) -> Database {
    let mut db = Database::new(name);
    db.register_schema(grid_schema()).unwrap();
    db.drain_events();
    db
}

/// One mutation of the random schedule. Targets index into the list of
/// OIDs ever allocated, so updates/deletes sometimes hit dead objects —
/// both sides must fail identically.
#[derive(Debug, Clone)]
enum Op {
    InsertCell { name: u8, level: i64 },
    InsertProbe { name: u8, reading: i64 },
    Update { target: usize, level: i64 },
    Delete { target: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), -100..100i64).prop_map(|(name, level)| Op::InsertCell { name, level }),
        (any::<u8>(), -100..100i64).prop_map(|(name, reading)| Op::InsertProbe { name, reading }),
        (0..24usize, -100..100i64).prop_map(|(target, level)| Op::Update { target, level }),
        (0..24usize).prop_map(|target| Op::Delete { target }),
    ]
}

/// Apply one op to a plain database; returns `Ok(Some(oid))` on insert.
fn apply(db: &mut Database, op: &Op, oids: &[Oid]) -> geodb::error::Result<Option<Oid>> {
    match op {
        Op::InsertCell { name, level } => db
            .insert(
                "grid",
                "Cell",
                vec![
                    ("name".into(), Value::Text(format!("c{name}"))),
                    ("level".into(), Value::Int(*level)),
                ],
            )
            .map(Some),
        Op::InsertProbe { name, reading } => db
            .insert(
                "grid",
                "Probe",
                vec![
                    ("name".into(), Value::Text(format!("p{name}"))),
                    ("reading".into(), Value::Float(*reading as f64 / 4.0)),
                ],
            )
            .map(Some),
        Op::Update { target, level } => {
            let oid = oids
                .get(*target)
                .copied()
                .unwrap_or(Oid(u64::MAX - *target as u64));
            db.update(oid, vec![("level".into(), Value::Int(*level))])
                .map(|()| None)
        }
        Op::Delete { target } => {
            let oid = oids
                .get(*target)
                .copied()
                .unwrap_or(Oid(u64::MAX - *target as u64));
            db.delete(oid).map(|()| None)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store's published snapshot stays byte-identical to a plain
    /// mutable database fed the same schedule, and a mid-schedule pin is
    /// frozen at exactly its epoch's bytes.
    #[test]
    fn store_commits_match_the_mutable_oracle(
        ops in prop::collection::vec(arb_op(), 1..32),
        pin_at in 0..32usize,
    ) {
        let mut oracle = seeded_db("iso");
        let store = DbStore::new(seeded_db("iso"));
        let mut oids: Vec<Oid> = Vec::new();
        let mut pinned = None;

        for (i, op) in ops.iter().enumerate() {
            if i == pin_at.min(ops.len() - 1) {
                let snap = store.snapshot();
                let bytes = geodb::snapshot::save_snapshot(&snap).unwrap();
                pinned = Some((snap, bytes));
            }

            let oracle_res = apply(&mut oracle, op, &oids);
            oracle.drain_events();
            let oids_view = oids.clone();
            let store_res = store.write(|db| apply(db, op, &oids_view));
            let store_res = store_res.map(|c| c.value);
            prop_assert_eq!(
                oracle_res.is_ok(),
                store_res.is_ok(),
                "op {:?} diverged: oracle {:?} vs store {:?}",
                op, oracle_res, store_res
            );
            if let (Ok(Some(a)), Ok(Some(b))) = (&oracle_res, &store_res) {
                prop_assert_eq!(a, b, "insert allocated different oids");
                oids.push(*a);
            }

            // Published snapshot == oracle, byte for byte, at every prefix.
            let store_json = geodb::snapshot::save_snapshot(&store.snapshot()).unwrap();
            let oracle_json = geodb::snapshot::save(&mut oracle).unwrap();
            prop_assert_eq!(store_json, oracle_json, "divergence after op {}", i);
        }

        // The pin froze its epoch: identical bytes after the whole tail.
        let (snap, bytes_then) = pinned.expect("schedule pinned a snapshot");
        let bytes_now = geodb::snapshot::save_snapshot(&snap).unwrap();
        prop_assert_eq!(bytes_then, bytes_now, "pinned snapshot mutated");
        prop_assert!(snap.epoch() <= store.epoch());
    }
}

/// A seeded writer storm against concurrent pinned readers. Every reader
/// verifies its pin never changes underneath it while epochs race past,
/// then re-pins and must land on a strictly newer (or equal) epoch.
#[test]
fn pinned_readers_survive_a_writer_storm() {
    let seed: u64 = std::env::var("ISOLATION_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    const WRITES: usize = 200;
    const READERS: usize = 4;
    const CHECKS_PER_READER: usize = 25;

    let mut db = seeded_db("storm");
    let mut oids = Vec::new();
    for i in 0..16 {
        oids.push(
            db.insert(
                "grid",
                "Cell",
                vec![
                    ("name".into(), Value::Text(format!("seed{i}"))),
                    ("level".into(), Value::Int(i)),
                ],
            )
            .unwrap(),
        );
    }
    let store = DbStore::new(db);
    let first_epoch = store.epoch();

    let writer = {
        let store = store.clone();
        let oids = oids.clone();
        std::thread::spawn(move || {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..WRITES {
                let oid = oids[rng.gen_range(0..oids.len())];
                let level = rng.gen_range(-1000..1000i64);
                store
                    .write(|db| db.update(oid, vec![("level".into(), Value::Int(level))]))
                    .expect("storm update commits");
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let store = store.clone();
            std::thread::spawn(move || {
                let mut last_epoch = geodb::Epoch::ZERO;
                for _ in 0..CHECKS_PER_READER {
                    let snap = store.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "reader {r}: epochs went backwards"
                    );
                    last_epoch = snap.epoch();
                    let before = geodb::snapshot::save_snapshot(&snap).unwrap();
                    std::thread::yield_now();
                    let after = geodb::snapshot::save_snapshot(&snap).unwrap();
                    assert_eq!(before, after, "reader {r}: pinned view tore");
                    // Invariants inside the pinned view: every cell the
                    // seed created is still reachable with a legal level.
                    assert_eq!(snap.extent_size("grid", "Cell"), 16);
                }
            })
        })
        .collect();

    writer.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }

    assert_eq!(store.epoch(), first_epoch + WRITES as u64);
    // With every thread done, only the published snapshot stays alive.
    assert_eq!(store.pin_count(), 0);

    // The final state is exactly what a sequential replay produces.
    let mut replay_db = seeded_db("storm");
    let mut replay_oids = Vec::new();
    for i in 0..16 {
        replay_oids.push(
            replay_db
                .insert(
                    "grid",
                    "Cell",
                    vec![
                        ("name".into(), Value::Text(format!("seed{i}"))),
                        ("level".into(), Value::Int(i)),
                    ],
                )
                .unwrap(),
        );
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..WRITES {
        let oid = replay_oids[rng.gen_range(0..replay_oids.len())];
        let level = rng.gen_range(-1000..1000i64);
        replay_db
            .update(oid, vec![("level".into(), Value::Int(level))])
            .unwrap();
    }
    assert_eq!(
        geodb::snapshot::save(&mut replay_db).unwrap(),
        geodb::snapshot::save_snapshot(&store.snapshot()).unwrap(),
        "storm result diverged from sequential replay"
    );
}

/// A store holding four cells (levels 0..4) and two probes; returns the
/// cell and probe oids.
fn shared_store() -> (DbStore, Vec<Oid>, Vec<Oid>) {
    let mut db = seeded_db("shared");
    let cells = (0..4)
        .map(|i| {
            db.insert(
                "grid",
                "Cell",
                vec![
                    ("name".into(), Value::Text(format!("c{i}"))),
                    ("level".into(), Value::Int(i)),
                ],
            )
            .unwrap()
        })
        .collect();
    let probes = (0..2)
        .map(|i| {
            db.insert(
                "grid",
                "Probe",
                vec![
                    ("name".into(), Value::Text(format!("p{i}"))),
                    ("reading".into(), Value::Float(i as f64)),
                ],
            )
            .unwrap()
        })
        .collect();
    db.drain_events();
    (DbStore::new(db), cells, probes)
}

/// Every read of one pinned snapshot hands out the same handles.
#[test]
fn reads_of_one_pin_share_handles() {
    let (store, cells, _) = shared_store();
    let snap = store.snapshot();
    let first = snap.get_class("grid", "Cell", false).unwrap();
    let again = snap.get_class("grid", "Cell", false).unwrap();
    assert_eq!(first.len(), 4);
    assert!(first.iter().zip(&again).all(|(a, b)| Arc::ptr_eq(a, b)));

    assert!(Arc::ptr_eq(&snap.get_value(cells[2]).unwrap(), &first[2]));
    assert!(Arc::ptr_eq(&snap.peek(cells[2]).unwrap(), &first[2]));
    let high = Predicate::Cmp {
        path: "level".into(),
        op: CmpOp::Ge,
        value: Value::Int(2),
    };
    let selected = snap.select("grid", "Cell", &high).unwrap();
    assert_eq!(selected.len(), 2);
    assert!(Arc::ptr_eq(&selected[0], &first[2]));
    assert!(Arc::ptr_eq(&selected[1], &first[3]));
}

/// Handles taken before a commit keep their values after it publishes;
/// the new epoch holds a fresh handle for the updated instance only.
#[test]
fn handles_survive_a_commit_unchanged() {
    let (store, cells, _) = shared_store();
    let before = store.snapshot();
    let held = before.get_value(cells[1]).unwrap();
    let held_class = before.get_class("grid", "Cell", false).unwrap();

    store
        .write(|db| db.update(cells[1], vec![("level".into(), Value::Int(99))]))
        .unwrap();
    let after = store.snapshot();
    assert!(after.epoch() > before.epoch());

    assert_eq!(held.get("level"), &Value::Int(1));
    assert_eq!(held_class[1].get("level"), &Value::Int(1));
    let fresh = after.get_value(cells[1]).unwrap();
    assert_eq!(fresh.get("level"), &Value::Int(99));
    assert!(!Arc::ptr_eq(&held, &fresh));
    // The untouched cells of the written class are still shared.
    let now = after.get_class("grid", "Cell", false).unwrap();
    for i in [0, 2, 3] {
        assert!(Arc::ptr_eq(&held_class[i], &now[i]), "cell {i} was copied");
    }
}

/// A class the commit did not touch shares its handles across epochs.
#[test]
fn untouched_class_shares_handles_across_epochs() {
    let (store, cells, probes) = shared_store();
    let before = store.snapshot();
    store
        .write(|db| db.update(cells[0], vec![("level".into(), Value::Int(-1))]))
        .unwrap();
    let after = store.snapshot();
    assert!(after.epoch() > before.epoch());

    let then = before.get_class("grid", "Probe", false).unwrap();
    let now = after.get_class("grid", "Probe", false).unwrap();
    assert_eq!(then.len(), probes.len());
    assert!(then.iter().zip(&now).all(|(a, b)| Arc::ptr_eq(a, b)));
}
