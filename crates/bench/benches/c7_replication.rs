//! # c7 — epoch replication
//!
//! Measures the replication tentpole's three claims:
//!
//! 1. **Delta shipping pays**: under a partition-local write storm, the
//!    average shipped delta frame is a small fraction of a full snapshot
//!    frame — structural sharing identifies exactly the touched
//!    partitions, so frame size tracks the write's footprint, not the
//!    database's. `REPLICATION_GATE=1` fails the run if the average
//!    delta exceeds **0.5×** the full-snapshot frame.
//! 2. **Follower reads scale**: aggregate pinned-read throughput as the
//!    replica count grows 0 → 1 → 2 → 4, with a writer trickling epochs
//!    the whole time. Like c5, the honest bound is
//!    `available_parallelism` — on a single-core host every replica
//!    count converges.
//! 3. **Promotion is fast and lossless**: a WAL-attached primary is
//!    killed mid-commit at a `faultsim` failpoint and a lagging replica
//!    is promoted over the WAL tail. Downtime (kill → first read served
//!    by the promoted store) is reported per tail length, and
//!    `REPLICATION_GATE=1` fails the run if any promotion loses an
//!    acknowledged durable epoch.
//!
//! Writes `BENCH_replication.json` (under `target/bench/`, or at the
//! repo root with `BENCH_RECORD=1`). `BENCH_QUICK=1` shrinks the
//! workload for CI smoke runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use geodb::db::Database;
use geodb::repl::{ReadRouter, ReplicaStore};
use geodb::store::DbStore;
use geodb::value::Value;
use geodb::wal::{self, WalConfig};
use geodb::{AttrType, ClassDef, Oid, SchemaDef};

/// Partition-local storm shape: writes round-robin over `CLASSES`
/// partitions, so each epoch touches exactly one of them.
const CLASSES: usize = 8;
const ROWS_PER_CLASS: usize = 64;

fn bench_schema() -> SchemaDef {
    let mut schema = SchemaDef::new("mesh");
    for c in 0..CLASSES {
        schema = schema.class(
            ClassDef::new(format!("Sector{c}"))
                .attr("name", AttrType::Text)
                .attr("n", AttrType::Int),
        );
    }
    schema
}

fn bench_db() -> (Database, Vec<Vec<Oid>>) {
    let mut db = Database::new("c7_repl");
    db.register_schema(bench_schema())
        .expect("schema registers");
    let oids: Vec<Vec<Oid>> = (0..CLASSES)
        .map(|c| {
            (0..ROWS_PER_CLASS)
                .map(|r| {
                    db.insert(
                        "mesh",
                        &format!("Sector{c}"),
                        vec![
                            ("name".into(), Value::Text(format!("s{c}-{r}"))),
                            ("n".into(), Value::Int(0)),
                        ],
                    )
                    .expect("seed row inserts")
                })
                .collect()
        })
        .collect();
    db.drain_events();
    (db, oids)
}

/// One round-robin, partition-local update: epoch `i` touches row
/// `i*7 % ROWS` of partition `i % CLASSES` only.
fn storm_write(store: &DbStore, oids: &[Vec<Oid>], i: usize) {
    let oid = oids[i % CLASSES][(i * 7) % ROWS_PER_CLASS];
    store
        .write(|db| db.update(oid, vec![("n".into(), Value::Int(i as i64))]))
        .expect("storm update commits");
}

fn quantiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| xs[((xs.len() - 1) as f64 * p).round() as usize];
    (q(0.5), q(0.95), xs[xs.len() - 1])
}

// ---------------------------------------------------------------------------
// 1. Delta frame size vs full snapshot frame + sync latency
// ---------------------------------------------------------------------------

fn delta_section(quick: bool) -> (serde_json::Value, bool) {
    let writes = if quick { 64 } else { 512 };
    let (db, oids) = bench_db();
    let store = DbStore::new(db);
    let replica = ReplicaStore::attach(&store, "bench").expect("replica attaches");
    // The attach itself ships one full-snapshot frame: that is the
    // baseline every delta is compared against.
    let full_frame_bytes = replica.status().full_bytes;

    let mut sync_us: Vec<f64> = Vec::with_capacity(writes);
    for i in 0..writes {
        storm_write(&store, &oids, i);
        let t0 = Instant::now();
        replica.sync_once().expect("delta sync applies");
        sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let status = replica.status();
    assert_eq!(status.applied, store.epoch(), "replica caught up");
    let avg_delta = status.delta_bytes as f64 / status.delta_syncs.max(1) as f64;
    let ratio = avg_delta / full_frame_bytes.max(1) as f64;
    let (p50, p95, max) = quantiles(sync_us);
    let ok = ratio <= 0.5 && status.delta_syncs == writes as u64;
    eprintln!(
        "[c7 replication] delta shipping over {writes} partition-local writes: \
         avg delta {avg_delta:.0} B vs full frame {full_frame_bytes} B \
         ({:.1}% of full), sync p50 {p50:.1} us, p95 {p95:.1} us, max {max:.1} us",
        ratio * 100.0
    );
    let section = serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(format!(
                "{writes} single-row updates round-robin over {CLASSES} partitions \
                 of {ROWS_PER_CLASS} rows; replica syncs after every epoch"
            )),
        ),
        (
            "full_frame_bytes".into(),
            serde_json::Value::U64(full_frame_bytes),
        ),
        (
            "delta_syncs".into(),
            serde_json::Value::U64(status.delta_syncs),
        ),
        ("avg_delta_bytes".into(), serde_json::Value::F64(avg_delta)),
        ("delta_to_full_ratio".into(), serde_json::Value::F64(ratio)),
        (
            "sync_latency_us".into(),
            serde_json::Value::Object(vec![
                ("p50".into(), serde_json::Value::F64(p50)),
                ("p95".into(), serde_json::Value::F64(p95)),
                ("max".into(), serde_json::Value::F64(max)),
            ]),
        ),
        ("gate_ok".into(), serde_json::Value::Bool(ok)),
    ]);
    (section, ok)
}

// ---------------------------------------------------------------------------
// 2. Follower-read scaling 0 → 4 replicas
// ---------------------------------------------------------------------------

const READERS: usize = 8;

fn read_scaling_run(replicas: usize, batches: usize, batch_len: usize) -> (u64, f64) {
    let (db, oids) = bench_db();
    let store = DbStore::new(db);
    let pool: Vec<ReplicaStore> = (0..replicas)
        .map(|i| {
            let r = ReplicaStore::attach(&store, format!("r{i}")).expect("replica attaches");
            r.start_streaming().expect("streaming starts");
            r
        })
        .collect();

    // A writer trickles epochs for the whole measurement so routed reads
    // race real replication traffic, not a frozen database.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = store.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                storm_write(&store, &oids, i);
                i += 1;
                std::thread::yield_now();
            }
        })
    };

    let start = Instant::now();
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let mut router = if pool.is_empty() {
                ReadRouter::primary_only(store.reader())
            } else {
                ReadRouter::with_replica(store.reader(), pool[t % pool.len()].reader(), None)
            };
            std::thread::spawn(move || {
                let mut served = 0u64;
                for b in 0..batches {
                    let (snap, _, _) = router.pin();
                    let class = format!("Sector{}", (t + b) % CLASSES);
                    for _ in 0..batch_len {
                        served += snap.get_class("mesh", &class, false).expect("read").len() as u64;
                    }
                }
                served
            })
        })
        .collect();
    let mut rows_served = 0u64;
    for r in readers {
        rows_served += r.join().expect("reader thread");
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    assert!(rows_served > 0, "routed reads returned rows");

    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    for r in &pool {
        r.stop_streaming();
    }
    let reads = (READERS * batches * batch_len) as u64;
    drop(pool);
    (reads, reads as f64 / elapsed_s.max(1e-9))
}

fn read_scaling_section(quick: bool) -> serde_json::Value {
    let (batches, batch_len) = if quick { (16, 8) } else { (128, 32) };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    for &replicas in &[0usize, 1, 2, 4] {
        let (reads, per_sec) = read_scaling_run(replicas, batches, batch_len);
        if replicas == 0 {
            baseline = per_sec;
        }
        eprintln!(
            "[c7 replication] follower reads, {replicas} replica(s): \
             {reads} pinned reads = {per_sec:>12.0} reads/s ({:.2}x vs primary-only)",
            per_sec / baseline.max(1e-9)
        );
        rows.push(serde_json::Value::Object(vec![
            ("replicas".into(), serde_json::Value::U64(replicas as u64)),
            ("reads".into(), serde_json::Value::U64(reads)),
            ("reads_per_sec".into(), serde_json::Value::F64(per_sec)),
            (
                "speedup_vs_primary_only".into(),
                serde_json::Value::F64(per_sec / baseline.max(1e-9)),
            ),
        ]));
    }
    serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(format!(
                "{READERS} reader threads pinning routed snapshots and scanning one \
                 partition per batch while a writer storms epochs; replicas stream \
                 in the background"
            )),
        ),
        (
            "available_parallelism".into(),
            serde_json::Value::U64(cores as u64),
        ),
        (
            "note".into(),
            serde_json::Value::String(
                "reads are lock-free snapshot scans in-process, so speedup is \
                 bounded by available_parallelism; the row to watch on a \
                 multi-core host is primary-only vs >=1 replica under write load"
                    .into(),
            ),
        ),
        ("rows".into(), serde_json::Value::Array(rows)),
    ])
}

// ---------------------------------------------------------------------------
// 3. Promotion downtime after a faultsim-killed primary
// ---------------------------------------------------------------------------

fn promotion_run(tail: usize) -> (serde_json::Value, bool) {
    let dir = std::env::temp_dir().join(format!("c7-promotion-{}-t{tail}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (db, oids) = bench_db();
    let (store, _) = wal::open(db, WalConfig::new(&dir)).expect("durable store opens");
    let replica = ReplicaStore::attach(&store, "standby").expect("replica attaches");
    replica.sync_to_latest().expect("standby catches up");

    // The standby lags by exactly `tail` durable epochs when the primary
    // dies — that is the WAL tail promotion must replay.
    for i in 0..tail {
        storm_write(&store, &oids, i);
    }
    let frontier = store.durable_epoch();

    faultsim::arm(
        "wal.fsync",
        faultsim::Trigger::Always,
        faultsim::FaultAction::Error,
    );
    let oid = oids[0][0];
    let killed = store.write(|db| db.update(oid, vec![("n".into(), Value::Int(-1))]));
    faultsim::disarm("wal.fsync");
    assert!(killed.is_err(), "kill point fires");
    drop(store);

    let t0 = Instant::now();
    let (promoted, report) = replica
        .promote(WalConfig::new(&dir))
        .expect("promotion succeeds");
    let first_read = promoted
        .snapshot()
        .get_class("mesh", "Sector0", false)
        .expect("promoted store serves reads")
        .len();
    let downtime_ms = t0.elapsed().as_secs_f64() * 1e3;

    let zero_loss = report.promoted_epoch >= frontier;
    eprintln!(
        "[c7 replication] promotion, {tail}-epoch tail: {downtime_ms:.2} ms to first \
         read ({} records replayed, via_full_recovery={}, durable frontier {} -> \
         promoted {}, {} rows served)",
        report.replayed_records,
        report.via_full_recovery,
        frontier,
        report.promoted_epoch,
        first_read
    );
    let _ = std::fs::remove_dir_all(&dir);
    let row = serde_json::Value::Object(vec![
        ("tail_epochs".into(), serde_json::Value::U64(tail as u64)),
        (
            "replayed_records".into(),
            serde_json::Value::U64(report.replayed_records),
        ),
        (
            "via_full_recovery".into(),
            serde_json::Value::Bool(report.via_full_recovery),
        ),
        ("downtime_ms".into(), serde_json::Value::F64(downtime_ms)),
        (
            "durable_frontier".into(),
            serde_json::Value::U64(frontier.get()),
        ),
        (
            "promoted_epoch".into(),
            serde_json::Value::U64(report.promoted_epoch.get()),
        ),
        (
            "zero_durable_epoch_loss".into(),
            serde_json::Value::Bool(zero_loss),
        ),
    ]);
    (row, zero_loss)
}

fn promotion_section(quick: bool) -> (serde_json::Value, bool) {
    let tails: &[usize] = if quick { &[4, 32] } else { &[1, 16, 128] };
    let mut rows = Vec::new();
    let mut all_ok = true;
    for &tail in tails {
        let (row, ok) = promotion_run(tail);
        all_ok &= ok;
        rows.push(row);
    }
    let section = serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(
                "WAL-attached primary killed mid-commit at the wal.fsync failpoint; \
                 a standby lagging by `tail_epochs` is promoted over the WAL tail; \
                 downtime is kill -> first read served by the promoted store"
                    .into(),
            ),
        ),
        ("rows".into(), serde_json::Value::Array(rows)),
    ]);
    (section, all_ok)
}

fn main() {
    // Measure the replication machinery, not the probes.
    obs::set_enabled(false);
    faultsim::reset();

    let quick = std::env::var("BENCH_QUICK").is_ok();

    let (delta, delta_ok) = delta_section(quick);
    let read_scaling = read_scaling_section(quick);
    let (promotion, promotion_ok) = promotion_section(quick);

    let summary = serde_json::Value::Object(vec![
        (
            "benchmark".into(),
            serde_json::Value::String("c7_replication".into()),
        ),
        ("quick".into(), serde_json::Value::Bool(quick)),
        ("delta_shipping".into(), delta),
        ("follower_read_scaling".into(), read_scaling),
        ("promotion".into(), promotion),
    ]);
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    let path = bench::write_result("BENCH_replication.json", &json);
    eprintln!("[c7 replication] wrote {}", path.display());

    // Correctness gate: delta frames must hold their size win and no
    // promotion may lose an acknowledged durable epoch. Throughput and
    // downtime numbers are advisory (CI containers are slow).
    if std::env::var("REPLICATION_GATE").is_ok() && !(delta_ok && promotion_ok) {
        eprintln!(
            "[c7 replication] REPLICATION_GATE: delta frames lost their size win \
             or a promotion lost durable epochs"
        );
        std::process::exit(1);
    }
}
