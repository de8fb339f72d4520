//! Crash-recovery differential suite for the durable write path.
//!
//! The contract under test (`docs/storage.md`):
//!
//! 1. **Durability**: once `DbStore::write` returns, the commit survives
//!    any crash — recovery replays the WAL tail on top of the newest
//!    checkpoint and lands on a byte-identical snapshot.
//! 2. **Kill points**: a crash injected at `wal.append`, `wal.fsync` or
//!    `db.publish` (the window between durability and visibility) never
//!    loses an acknowledged epoch and never resurrects a torn record.
//! 3. **Torn tails**: a log truncated at *any* byte offset recovers to
//!    the last complete frame — corruption is truncation, not failure.
//!
//! Every test replays an oracle: the same op prefix applied to a plain
//! mutable [`Database`], compared byte-for-byte through the snapshot
//! serializer. Seeded chain tests take their seed from `CRASH_SEED`
//! (CI sweeps 7, 1994, 271828).

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use geodb::db::Database;
use geodb::instance::Oid;
use geodb::schema::{ClassDef, SchemaDef};
use geodb::store::DbStore;
use geodb::value::{AttrType, Value};
use geodb::wal::{self, WalConfig};

/// Failpoints are process-global: every test in this binary serializes
/// on one mutex so an armed kill point never leaks into a neighbor.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    faultsim::reset();
    guard
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "activegis-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// One mutation of a schedule; targets index into the OIDs ever
/// allocated so updates/deletes sometimes hit dead objects.
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

fn random_op(rng: &mut ChaCha8Rng) -> Op {
    match rng.gen_range(0..4u8) {
        0 => Op::InsertCell {
            name: rng.gen_range(0..=u8::MAX),
            level: rng.gen_range(-100..100),
        },
        1 => Op::InsertProbe {
            name: rng.gen_range(0..=u8::MAX),
            reading: rng.gen_range(-100..100),
        },
        2 => Op::Update {
            target: rng.gen_range(0..24),
            level: rng.gen_range(-100..100),
        },
        _ => Op::Delete {
            target: rng.gen_range(0..24),
        },
    }
}

fn apply(db: &mut Database, op: &Op, oids: &[Oid]) -> geodb::Result<Option<Oid>> {
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

/// Replay the first `n` ops of a schedule on a fresh oracle database and
/// serialize it. Closure errors are ignored exactly as the store's
/// republish-on-abort semantics retain partial mutations.
fn oracle_bytes(name: &str, ops: &[Op], n: usize) -> String {
    let mut db = seeded_db(name);
    let mut oids = Vec::new();
    for op in &ops[..n] {
        if let Ok(Some(oid)) = apply(&mut db, op, &oids.clone()) {
            oids.push(oid);
        }
        db.drain_events();
    }
    geodb::snapshot::save(&mut db).unwrap()
}

fn store_bytes(store: &DbStore) -> String {
    geodb::snapshot::save_snapshot(&store.snapshot()).unwrap()
}

const KILL_POINTS: [&str; 3] = ["wal.append", "wal.fsync", "db.publish"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash a random schedule at a random write through each of the
    /// three kill points. Recovery must land on exactly the last durable
    /// epoch: every acknowledged write survives, the torn write never
    /// half-appears, and the recovered snapshot is byte-identical to an
    /// oracle replay of the durable prefix.
    #[test]
    fn killed_commit_recovers_to_the_last_durable_epoch(
        ops in prop::collection::vec(arb_op(), 1..20),
        kill_at in 1..20usize,
        kill_point in 0..3usize,
    ) {
        let _g = serialized();
        let kill_at = kill_at.min(ops.len());
        let point = KILL_POINTS[kill_point];
        let dir = tmp_dir("kill");
        let (store, report) = wal::open(seeded_db("crash"), WalConfig::new(&dir)).unwrap();
        prop_assert!(report.is_none(), "fresh directory must not recover");

        let mut oids: Vec<Oid> = Vec::new();
        let mut acknowledged = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let write_no = i + 1;
            let killed = write_no == kill_at;
            if killed {
                faultsim::arm(point, faultsim::Trigger::Always, faultsim::FaultAction::Error);
            }
            let oids_view = oids.clone();
            let res = store.write(|db| apply(db, op, &oids_view));
            if killed {
                faultsim::disarm(point);
                prop_assert!(res.is_err(), "killed write must not acknowledge");
                break;
            }
            // Commit succeeded (the closure itself may have errored —
            // that still consumes the epoch and is acknowledged durable).
            acknowledged += 1;
            if let Ok(c) = res {
                if let Some(oid) = c.value {
                    oids.push(oid);
                }
            }
        }
        prop_assert!(store.poisoned().is_some(), "kill poisons the store");
        prop_assert!(
            store.write(|_| Ok(())).is_err(),
            "poisoned store refuses writes"
        );
        drop(store);

        let (recovered, report) = wal::recover(WalConfig::new(&dir)).unwrap();
        let r = report.recovered_epoch;
        // Acknowledged writes 1..=A hold epochs 2..=A+1.
        prop_assert!(
            r > acknowledged as u64,
            "lost an acknowledged epoch: recovered {} < {}",
            r,
            acknowledged + 1
        );
        prop_assert!(
            r <= acknowledged as u64 + 2,
            "resurrected more than the one in-flight write"
        );
        if point == "db.publish" {
            // Durable-but-unpublished: the killed write was already on
            // disk, so recovery replays past the acknowledged frontier.
            prop_assert_eq!(r, acknowledged as u64 + 2);
        } else {
            // Torn/unsynced: the killed write never became durable.
            prop_assert_eq!(r, acknowledged as u64 + 1);
        }
        prop_assert_eq!(recovered.epoch(), r);
        prop_assert_eq!(recovered.durable_epoch(), r);
        prop_assert_eq!(
            store_bytes(&recovered),
            oracle_bytes("crash", &ops, (r.get() - 1) as usize),
            "recovered snapshot diverged from the oracle prefix"
        );
        // The recovered store accepts new durable writes.
        recovered
            .write(|db| {
                db.insert(
                    "grid",
                    "Cell",
                    vec![
                        ("name".into(), Value::Text("post".into())),
                        ("level".into(), Value::Int(1)),
                    ],
                )
            })
            .unwrap();
        prop_assert_eq!(recovered.epoch(), r + 1);
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Truncate the log at a sweep of byte offsets: recovery must always
/// succeed, keeping exactly the complete frames below the cut.
#[test]
fn torn_tail_recovers_at_every_truncation_offset() {
    let _g = serialized();
    let dir = tmp_dir("torn");
    let ops: Vec<Op> = (0..6)
        .map(|i| Op::InsertCell {
            name: i as u8,
            level: i,
        })
        .collect();
    {
        let (store, _) = wal::open(seeded_db("torn"), WalConfig::new(&dir)).unwrap();
        let mut oids = Vec::new();
        for op in &ops {
            let oids_view = oids.clone();
            if let Some(oid) = store.write(|db| apply(db, op, &oids_view)).unwrap().value {
                oids.push(oid);
            }
        }
    }
    let wal_path = dir.join(wal::WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    let scratch = tmp_dir("torn-scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    for name in [wal::CHECKPOINT_FILE, wal::CHECKPOINT_META_FILE] {
        std::fs::copy(dir.join(name), scratch.join(name)).unwrap();
    }
    // Every 7th offset (prime stride hits every alignment class), plus
    // the exact frame boundaries via the full-length case.
    let mut cut = 0usize;
    while cut <= full.len() {
        std::fs::write(scratch.join(wal::WAL_FILE), &full[..cut]).unwrap();
        let (store, report) = wal::recover(WalConfig::new(&scratch)).unwrap();
        let replayed = report.replayed_records as usize;
        assert!(
            replayed <= ops.len(),
            "cut {cut}: replayed more records than were written"
        );
        assert_eq!(
            store_bytes(&store),
            oracle_bytes("torn", &ops, replayed),
            "cut {cut}: recovered bytes diverge from the {replayed}-op oracle"
        );
        drop(store);
        cut += 7;
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// A seeded chain of crash/recover cycles over one directory — the
/// long-haul shape CI sweeps with `CRASH_SEED` ∈ {7, 1994, 271828}.
/// After every cycle the recovered store must match an oracle replay of
/// every surviving epoch, with auto-checkpoints landing mid-chain.
#[test]
fn seeded_crash_chain_replays_every_surviving_epoch() {
    let _g = serialized();
    let seed: u64 = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dir = tmp_dir("chain");
    let config = || WalConfig::new(&dir).checkpoint_every(5);

    // All ops that still hold an epoch, in epoch order.
    let mut history: Vec<Op> = Vec::new();
    let mut oids: Vec<Oid> = Vec::new();
    let (mut store, report) = wal::open(seeded_db("chain"), config()).unwrap();
    assert!(report.is_none());

    for _cycle in 0..6 {
        let writes = rng.gen_range(3..10);
        for _ in 0..writes {
            let op = random_op(&mut rng);
            let oids_view = oids.clone();
            let res = store.write(|db| apply(db, &op, &oids_view));
            history.push(op);
            if let Ok(c) = res {
                if let Some(oid) = c.value {
                    oids.push(oid);
                }
            }
        }
        // Crash mid-commit at a random kill point.
        let point = KILL_POINTS[rng.gen_range(0..KILL_POINTS.len())];
        faultsim::arm(
            point,
            faultsim::Trigger::Always,
            faultsim::FaultAction::Error,
        );
        let op = random_op(&mut rng);
        let oids_view = oids.clone();
        let _ = store.write(|db| apply(db, &op, &oids_view));
        faultsim::disarm(point);
        history.push(op);
        drop(store);

        let (recovered, report) = wal::recover(config()).unwrap();
        let surviving = (report.recovered_epoch.get() - 1) as usize;
        assert!(
            surviving <= history.len(),
            "cycle {_cycle}: recovered beyond the issued history"
        );
        // Epochs beyond the durable frontier died with the crash.
        history.truncate(surviving);
        assert_eq!(
            store_bytes(&recovered),
            oracle_bytes("chain", &history, history.len()),
            "cycle {_cycle} (seed {seed}): recovery diverged"
        );
        // Rebuild the oracle's view of live OIDs for the next cycle.
        let mut db = seeded_db("chain");
        oids.clear();
        for op in &history {
            if let Ok(Some(oid)) = apply(&mut db, op, &oids.clone()) {
                oids.push(oid);
            }
        }
        store = recovered;
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a closure that errors *after* mutating still
/// republishes (published state never diverges from the writer db), and
/// with a WAL attached the logged batch matches the published state —
/// proven by crash-recovering to identical bytes.
#[test]
fn aborted_write_republishes_and_logs_consistently() {
    let _g = serialized();
    // Volatile store: the pre-WAL abort semantics, pinned.
    let store = DbStore::new(seeded_db("abort"));
    let epoch_before = store.epoch();
    let err = store
        .write(|db| -> geodb::Result<()> {
            db.insert(
                "grid",
                "Cell",
                vec![
                    ("name".into(), Value::Text("half".into())),
                    ("level".into(), Value::Int(1)),
                ],
            )?;
            Err(geodb::GeoDbError::InvalidQuery("abort after mutate".into()))
        })
        .unwrap_err();
    assert!(matches!(err, geodb::GeoDbError::InvalidQuery(_)));
    assert_eq!(store.epoch(), epoch_before + 1, "abort still publishes");
    assert_eq!(
        store.snapshot().extent_size("grid", "Cell"),
        1,
        "the partial mutation is visible"
    );

    // Durable store: the WAL records the batch exactly as published.
    let dir = tmp_dir("abort");
    let (store, _) = wal::open(seeded_db("abort"), WalConfig::new(&dir)).unwrap();
    let res = store.write(|db| -> geodb::Result<()> {
        db.insert(
            "grid",
            "Cell",
            vec![
                ("name".into(), Value::Text("half".into())),
                ("level".into(), Value::Int(1)),
            ],
        )?;
        Err(geodb::GeoDbError::InvalidQuery("abort after mutate".into()))
    });
    assert!(matches!(res, Err(geodb::GeoDbError::InvalidQuery(_))));
    assert_eq!(store.epoch(), 2);
    assert_eq!(store.durable_epoch(), 2, "the aborted batch is durable");
    let published = store_bytes(&store);
    drop(store);
    let (recovered, report) = wal::recover(WalConfig::new(&dir)).unwrap();
    assert_eq!(report.recovered_epoch, 2);
    assert_eq!(
        store_bytes(&recovered),
        published,
        "WAL diverged from the published abort state"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent writers share fsyncs through group commit: writers that
/// queue while the leader is in fsync form the next batch, so batches of
/// more than one commit form, every write is acknowledged durable, and
/// the final state still matches a recovery.
#[test]
fn group_commit_batches_concurrent_writers() {
    let _g = serialized();
    const WRITERS: usize = 4;
    const WRITES_EACH: usize = 25;
    let dir = tmp_dir("group");
    let (store, _) = wal::open(seeded_db("group"), WalConfig::new(&dir)).unwrap();

    // A long-pinned reader across the storm: retention must stay
    // bounded anyway.
    let mut pinned = store.reader();
    pinned.pin();

    let mut seed_oids = Vec::new();
    store
        .write(|db| {
            for i in 0..WRITERS {
                seed_oids.push(db.insert(
                    "grid",
                    "Cell",
                    vec![
                        ("name".into(), Value::Text(format!("w{i}"))),
                        ("level".into(), Value::Int(0)),
                    ],
                )?);
            }
            Ok(())
        })
        .unwrap();

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(WRITERS));
    let threads: Vec<_> = seed_oids
        .iter()
        .map(|&oid| {
            let store = store.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..WRITES_EACH {
                    store
                        .write(|db| db.update(oid, vec![("level".into(), Value::Int(i as i64))]))
                        .expect("storm write commits durably");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }

    let total = (WRITERS * WRITES_EACH) as u64 + 1; // + the seed write
    assert_eq!(store.epoch(), 1 + total);
    assert_eq!(store.durable_epoch(), store.epoch());
    let (status, durable) = store.wal_status().expect("durable store");
    assert_eq!(durable, store.epoch());
    assert_eq!(status.records, total);
    assert!(
        status.max_group >= 2,
        "no batch ever formed: {status:?} — group commit is not batching"
    );
    assert!(
        status.fsyncs < total,
        "every commit paid its own fsync: no follower queued behind a leader"
    );
    assert!(
        store.epochs_retained() <= 8,
        "retention unbounded under a pinned reader"
    );
    drop(pinned);

    let published = store_bytes(&store);
    drop(store);
    let (recovered, report) = wal::recover(WalConfig::new(&dir)).unwrap();
    assert_eq!(report.recovered_epoch, 1 + total);
    assert_eq!(store_bytes(&recovered), published);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// An explicit checkpoint truncates the log and recovery starts from it.
#[test]
fn checkpoint_truncates_and_recovery_resumes_from_it() {
    let _g = serialized();
    let dir = tmp_dir("ckpt");
    let (store, _) = wal::open(seeded_db("ckpt"), WalConfig::new(&dir)).unwrap();
    let ops: Vec<Op> = (0..4)
        .map(|i| Op::InsertCell {
            name: i as u8,
            level: i,
        })
        .collect();
    let mut oids = Vec::new();
    for op in &ops[..2] {
        let oids_view = oids.clone();
        if let Some(oid) = store.write(|db| apply(db, op, &oids_view)).unwrap().value {
            oids.push(oid);
        }
    }
    let ckpt_epoch = store.checkpoint().unwrap();
    assert_eq!(ckpt_epoch, 3, "checkpoint sits at the durable frontier");
    let (status, _) = store.wal_status().unwrap();
    assert_eq!(status.checkpoint_epoch, 3);
    for op in &ops[2..] {
        let oids_view = oids.clone();
        if let Some(oid) = store.write(|db| apply(db, op, &oids_view)).unwrap().value {
            oids.push(oid);
        }
    }
    let published = store_bytes(&store);
    drop(store);
    let (recovered, report) = wal::recover(WalConfig::new(&dir)).unwrap();
    assert_eq!(report.checkpoint_epoch, 3);
    assert_eq!(report.replayed_records, 2, "only the post-checkpoint tail");
    assert_eq!(report.recovered_epoch, 5);
    assert_eq!(store_bytes(&recovered), published);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
