//! # c5 — concurrent serving throughput
//!
//! The scaling claim behind the `SessionServer` tentpole: M concurrent
//! sessions each replay a cache-hot Get_Class / Get_Value interaction
//! loop against the paper's phone_net database, and we measure aggregate
//! requests/sec as the shard count grows (1, 2, 4, 8). A row's `threads`
//! field is that shard count: the server starts no thread of its own.
//!
//! Sessions are pinned round-robin, so with T shards the M client
//! threads fan their batches out over T independent dispatchers that
//! share one copy-on-write rule snapshot *and one versioned database*
//! (`geodb::store::DbStore`). The 16 client threads do the work: each
//! batch runs on its client's thread once that client holds its shard's
//! first-come, first-served turn, so at most T batches run at once.
//! Scaling is bounded by the turn hand-over and by the hardware
//! parallelism actually available, which the summary records honestly as
//! `available_parallelism` (CI containers are often single-core, where
//! every shard count necessarily converges to the same requests/sec).
//!
//! Writes `BENCH_throughput.json` (under `target/bench/`, or at the repo
//! root with `BENCH_RECORD=1`):
//! requests/sec per shard count, speedup vs 1 shard, scaling
//! efficiency (speedup / shards), the shared-vs-copied database memory
//! footprint (`db_bytes_shared` stays flat as shards grow; the copied
//! model multiplies), and publish-latency quantiles for epoch commits
//! through `DbStore::write`.
//!
//! `BENCH_QUICK=1` shrinks the workload for CI smoke runs.
//!
//! Two observability sections ride along (measured after the headline
//! rows, with metrics on): `tracing` compares cache-hot req/s with
//! trace sampling off vs `trace_sample=1` (the acceptance bound is
//! ≤ 10% overhead at full sampling), and `slo` evaluates the default
//! dispatch SLO over the clean run via multi-window burn rates — also
//! written to `BENCH_slo.json`. `SLO_SMOKE=1` makes the bench exit
//! non-zero if the clean run breaches the availability SLO or observed
//! no serving latency (`LatencyState::NoData`), which is how
//! `scripts/check.sh` gates on it.
//!
//! A third section measures the **durable write path**: commits/sec and
//! commit-latency quantiles through a WAL-attached store as the writer
//! count grows, plus the observed group sizes and fsyncs-per-commit
//! (group commit amortizes the fsync) and the retained-epoch gauge under
//! a long-pinned reader. Every durability run ends with a simulated
//! crash + recovery. The `wal_encoding` section compares the 4-writer
//! run's binary payload bytes with the same logged records encoded as
//! JSON. `WAL_GATE=1` makes the bench exit non-zero if any recovered
//! snapshot diverges from the state the writers acknowledged or binary
//! frames are less than 2× smaller than JSON (`bench::wal_gate`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use active::{Engine, EngineConfig, SessionContext};
use activegis::SessionServer;
use custlang::{Customization, FIG6_PROGRAM};
use geodb::gen::TelecomConfig;
use geodb::query::DbEvent;
use geodb::store::DbStore;
use geodb::value::Value;
use geodb::Oid;

/// Concurrent sessions driven by the client side.
const SESSIONS: usize = 16;

/// The per-batch interaction loop: alternating Get_Class / Get_Value on
/// the Pole class — the same touch-a-class, inspect-an-instance rhythm
/// as the paper's Fig. 7 walkthrough.
fn batch_events(len: usize) -> Vec<DbEvent> {
    (0..len)
        .map(|i| {
            if i % 2 == 0 {
                DbEvent::GetClass {
                    schema: "phone_net".into(),
                    class: "Pole".into(),
                }
            } else {
                DbEvent::GetValue {
                    schema: "phone_net".into(),
                    class: "Pole".into(),
                    oid: Oid(1 + (i as u64 % 8)),
                }
            }
        })
        .collect()
}

struct RunResult {
    threads: usize,
    requests: u64,
    elapsed_s: f64,
    requests_per_sec: f64,
    db_bytes_shared: u64,
}

/// One full measurement at a given shard count (`threads`).
fn run(threads: usize, batches_per_session: usize, batch_len: usize) -> RunResult {
    let engine: Engine<Customization> = Engine::with_config(EngineConfig {
        tracing: false,
        ..EngineConfig::default()
    });
    let base = engine.rule_base();
    let cfg = TelecomConfig::small();
    let store = DbStore::new(
        geodb::gen::phone_net_db(&cfg)
            .expect("demo database builds")
            .0,
    );
    let db_bytes_shared = store.snapshot().approx_data_bytes() as u64;
    let server = SessionServer::start(threads, base, store);
    server
        .install_program(FIG6_PROGRAM, "fig6")
        .expect("Fig. 6 program installs");

    let sessions: Vec<_> = (0..SESSIONS)
        .map(|i| {
            server.open_session(SessionContext::new(
                format!("user{i}"),
                "planner",
                "pole_manager",
            ))
        })
        .collect();

    // Warm every shard's winner cache so the measurement is cache-hot.
    for &s in &sessions {
        server
            .dispatch_batch(s, batch_events(batch_len.min(16)))
            .expect("warmup dispatch succeeds");
    }

    let server = Arc::new(server);
    let start = Instant::now();
    let clients: Vec<_> = sessions
        .into_iter()
        .map(|session| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for _ in 0..batches_per_session {
                    let outcomes = server
                        .dispatch_batch(session, batch_events(batch_len))
                        .expect("measured dispatch succeeds");
                    assert_eq!(outcomes.len(), batch_len);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let requests = (SESSIONS * batches_per_session * batch_len) as u64;
    RunResult {
        threads,
        requests,
        elapsed_s,
        requests_per_sec: requests as f64 / elapsed_s,
        db_bytes_shared,
    }
}

/// Epoch-publish latency: time `samples` single-attribute updates
/// committed through `DbStore::write`, each one an incremental partition
/// sync plus an atomic epoch publish, and report microsecond quantiles.
fn publish_latency_us(samples: usize) -> (f64, f64, f64) {
    let store = DbStore::new(
        geodb::gen::phone_net_db(&TelecomConfig::small())
            .expect("demo database builds")
            .0,
    );
    let oid = store
        .snapshot()
        .get_class("phone_net", "Pole", false)
        .expect("poles exist")[0]
        .oid;
    let mut lat: Vec<f64> = (0..samples)
        .map(|i| {
            let pole_type = 1 + (i as i64 % 4);
            let t0 = Instant::now();
            store
                .write(|db| db.update(oid, vec![("pole_type".into(), Value::Int(pole_type))]))
                .expect("update commits");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize];
    (q(0.5), q(0.95), lat[lat.len() - 1])
}

/// One durable write-path measurement; see [`durability_run`].
struct DurabilityRun {
    writers: usize,
    commits: u64,
    commits_per_sec: f64,
    commit_p50_us: f64,
    commit_p99_us: f64,
    max_group: u64,
    fsyncs: u64,
    wal_payload_bytes: u64,
    /// The same logged records encoded as JSON (`serde_json::to_vec`).
    json_payload_bytes: u64,
    epochs_retained: u64,
    recovery_ok: bool,
}

/// `writers` threads each commit `commits_each` single-attribute updates
/// through one WAL-attached store, then the process "crashes" (drop) and
/// recovers. The run records whether recovery reproduced the
/// acknowledged state byte-for-byte.
fn durability_run(writers: usize, commits_each: usize) -> DurabilityRun {
    let dir = std::env::temp_dir().join(format!("c5-durability-{}-w{writers}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut db = geodb::db::Database::new("c5_dur");
    db.register_schema(
        geodb::SchemaDef::new("bench").class(
            geodb::ClassDef::new("Counter")
                .attr("name", geodb::AttrType::Text)
                .attr("n", geodb::AttrType::Int),
        ),
    )
    .expect("bench schema registers");
    let oids: Vec<_> = (0..writers)
        .map(|i| {
            db.insert(
                "bench",
                "Counter",
                vec![
                    ("name".into(), Value::Text(format!("w{i}"))),
                    ("n".into(), Value::Int(0)),
                ],
            )
            .expect("seed row inserts")
        })
        .collect();
    db.drain_events();

    let (store, _) =
        geodb::wal::open(db, geodb::WalConfig::new(&dir)).expect("durable store opens");

    // A reader pinned at the initial epoch for the whole storm: the
    // retained-epoch ring must stay bounded regardless.
    let mut pinned = store.reader();
    pinned.pin();

    let lat_us: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(std::sync::Barrier::new(writers));
    let t0 = Instant::now();
    let threads: Vec<_> = oids
        .iter()
        .map(|&oid| {
            let store = store.clone();
            let lat_us = Arc::clone(&lat_us);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut local = Vec::with_capacity(commits_each);
                for i in 0..commits_each {
                    let c0 = Instant::now();
                    store
                        .write(|db| db.update(oid, vec![("n".into(), Value::Int(i as i64))]))
                        .expect("durable commit acknowledges");
                    local.push(c0.elapsed().as_secs_f64() * 1e6);
                }
                lat_us.lock().unwrap().extend(local);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let commits = (writers * commits_each) as u64;
    let (status, _durable) = store.wal_status().expect("WAL attached");
    let epochs_retained = store.epochs_retained() as u64;
    drop(pinned);

    let mut lat = Arc::try_unwrap(lat_us)
        .expect("writers joined")
        .into_inner()
        .unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize];
    let (commit_p50_us, commit_p99_us) = (q(0.5), q(0.99));

    // Crash and recover: the acknowledged state must come back intact.
    let acknowledged =
        geodb::snapshot::save_snapshot(&store.snapshot()).expect("snapshot serializes");
    drop(store);
    let json_payload_bytes = geodb::wal::read_wal(&dir.join(geodb::wal::WAL_FILE))
        .expect("the log reads back")
        .records
        .iter()
        .map(|rec| serde_json::to_vec(rec).expect("record encodes").len() as u64)
        .sum();
    let recovery_ok = match geodb::wal::recover(geodb::WalConfig::new(&dir)) {
        Ok((recovered, _report)) => {
            geodb::snapshot::save_snapshot(&recovered.snapshot()).expect("snapshot serializes")
                == acknowledged
        }
        Err(e) => {
            eprintln!("[c5 throughput] durability: recovery FAILED: {e}");
            false
        }
    };
    let _ = std::fs::remove_dir_all(&dir);

    DurabilityRun {
        writers,
        commits,
        commits_per_sec: commits as f64 / elapsed_s,
        commit_p50_us,
        commit_p99_us,
        max_group: status.max_group,
        fsyncs: status.fsyncs,
        wal_payload_bytes: status.payload_bytes,
        json_payload_bytes,
        epochs_retained,
        recovery_ok,
    }
}

/// The writer count whose run the `wal_encoding` section reads.
const ENCODING_WRITERS: usize = 4;

/// The durability section and the `wal_encoding` section, both from one
/// set of runs. Group commit needs no window: writers that arrive while
/// the leader is in fsync queue up and form the next group.
fn durability_sections(quick: bool) -> (serde_json::Value, serde_json::Value) {
    let commits_each = if quick { 50 } else { 200 };
    let writer_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let runs: Vec<DurabilityRun> = writer_counts
        .iter()
        .map(|&writers| durability_run(writers, commits_each))
        .collect();
    let baseline = runs[0].commits_per_sec;
    let mut rows = Vec::new();
    for r in &runs {
        eprintln!(
            "[c5 throughput] durable commits: {:>2} writer(s): \
             {:>8.0} commits/s, p50 {:>7.1} us, p99 {:>8.1} us, \
             max group {}, {} fsyncs / {} commits, {} epochs retained, recovery {}",
            r.writers,
            r.commits_per_sec,
            r.commit_p50_us,
            r.commit_p99_us,
            r.max_group,
            r.fsyncs,
            r.commits,
            r.epochs_retained,
            if r.recovery_ok { "ok" } else { "DIVERGED" }
        );
        rows.push(serde_json::Value::Object(vec![
            ("writers".into(), serde_json::Value::U64(r.writers as u64)),
            ("commits".into(), serde_json::Value::U64(r.commits)),
            (
                "commits_per_sec".into(),
                serde_json::Value::F64(r.commits_per_sec),
            ),
            (
                "speedup_vs_single_writer".into(),
                serde_json::Value::F64(r.commits_per_sec / baseline),
            ),
            (
                "commit_latency_p50_us".into(),
                serde_json::Value::F64(r.commit_p50_us),
            ),
            (
                "commit_latency_p99_us".into(),
                serde_json::Value::F64(r.commit_p99_us),
            ),
            ("max_group".into(), serde_json::Value::U64(r.max_group)),
            ("fsyncs".into(), serde_json::Value::U64(r.fsyncs)),
            (
                "wal_payload_bytes".into(),
                serde_json::Value::U64(r.wal_payload_bytes),
            ),
            (
                "epochs_retained_under_pinned_reader".into(),
                serde_json::Value::U64(r.epochs_retained),
            ),
            ("recovery_ok".into(), serde_json::Value::Bool(r.recovery_ok)),
        ]));
    }
    let durability = serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(
                "N writer threads committing single-attribute updates through one \
                 WAL-attached DbStore (fsync on), then crash + recovery; group \
                 commit shares fsyncs across concurrent commits"
                    .into(),
            ),
        ),
        (
            "commits_per_writer".into(),
            serde_json::Value::U64(commits_each as u64),
        ),
        ("rows".into(), serde_json::Value::Array(rows)),
    ]);

    // The payload-byte ratio is the binary codec's whole point: the
    // records the 4-writer run logged, as written (binary) and as JSON.
    let r = runs
        .iter()
        .find(|r| r.writers == ENCODING_WRITERS)
        .expect("a 4-writer durability run");
    let size_ratio = r.json_payload_bytes as f64 / r.wal_payload_bytes.max(1) as f64;
    eprintln!(
        "[c5 throughput] wal encoding, {} writers x {commits_each} commits: \
         json {} B vs binary {} B payload ({size_ratio:.2}x smaller)",
        r.writers, r.json_payload_bytes, r.wal_payload_bytes,
    );
    let wal_encoding = serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(
                "the records the 4-writer durability run logged: binary payload \
                 bytes as written (interned-string tree codec) vs the same \
                 records as JSON"
                    .into(),
            ),
        ),
        ("writers".into(), serde_json::Value::U64(r.writers as u64)),
        ("commits".into(), serde_json::Value::U64(r.commits)),
        (
            "json_payload_bytes".into(),
            serde_json::Value::U64(r.json_payload_bytes),
        ),
        (
            "binary_payload_bytes".into(),
            serde_json::Value::U64(r.wal_payload_bytes),
        ),
        ("size_ratio".into(), serde_json::Value::F64(size_ratio)),
    ]);
    (durability, wal_encoding)
}

fn main() {
    // Metrics and tracing off: measure the serving layer, not the probes.
    obs::set_enabled(false);

    let quick = std::env::var("BENCH_QUICK").is_ok();
    let (batches_per_session, batch_len) = if quick { (4, 32) } else { (64, 256) };
    let thread_counts: &[usize] = &[1, 2, 4, 8];
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut results = Vec::new();
    for &t in thread_counts {
        let r = run(t, batches_per_session, batch_len);
        eprintln!(
            "[c5 throughput] {:>2} shards: {:>9} requests in {:>7.3} s = {:>12.0} req/s \
             ({} KiB shared db)",
            r.threads,
            r.requests,
            r.elapsed_s,
            r.requests_per_sec,
            r.db_bytes_shared / 1024
        );
        results.push(r);
    }

    let publish_samples = if quick { 8 } else { 32 };
    let (pub_p50, pub_p95, pub_max) = publish_latency_us(publish_samples);
    eprintln!(
        "[c5 throughput] epoch publish latency over {publish_samples} writes: \
         p50 {pub_p50:.1} us, p95 {pub_p95:.1} us, max {pub_max:.1} us"
    );

    let (durability, wal_encoding) = durability_sections(quick);
    // Judged before the sections move into the summary.
    let wal_verdict = bench::wal_gate(
        durability["rows"].as_array().expect("durability rows"),
        &wal_encoding,
    );

    let base_rps = results[0].requests_per_sec;
    let rows: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            let speedup = r.requests_per_sec / base_rps;
            serde_json::Value::Object(vec![
                ("threads".into(), serde_json::Value::U64(r.threads as u64)),
                ("requests".into(), serde_json::Value::U64(r.requests)),
                ("elapsed_s".into(), serde_json::Value::F64(r.elapsed_s)),
                (
                    "requests_per_sec".into(),
                    serde_json::Value::F64(r.requests_per_sec),
                ),
                (
                    "speedup_vs_1_thread".into(),
                    serde_json::Value::F64(speedup),
                ),
                (
                    "scaling_efficiency".into(),
                    serde_json::Value::F64(speedup / r.threads as f64),
                ),
                (
                    "db_bytes_shared".into(),
                    serde_json::Value::U64(r.db_bytes_shared),
                ),
                (
                    "db_bytes_copied_model".into(),
                    serde_json::Value::U64(r.db_bytes_shared * r.threads as u64),
                ),
            ])
        })
        .collect();

    let summary = serde_json::Value::Object(vec![
        (
            "benchmark".into(),
            serde_json::Value::String("c5_throughput".into()),
        ),
        (
            "workload".into(),
            serde_json::Value::String(
                "M concurrent sessions, cache-hot Get_Class/Get_Value batches over \
                 the shared Fig. 6 rule base"
                    .into(),
            ),
        ),
        ("sessions".into(), serde_json::Value::U64(SESSIONS as u64)),
        ("batch_len".into(), serde_json::Value::U64(batch_len as u64)),
        (
            "batches_per_session".into(),
            serde_json::Value::U64(batches_per_session as u64),
        ),
        ("quick".into(), serde_json::Value::Bool(quick)),
        (
            "available_parallelism".into(),
            serde_json::Value::U64(cores as u64),
        ),
        (
            "note".into(),
            serde_json::Value::String(
                "threads is the shard count; the 16 client threads do the work, \
                 each batch on its client's thread once it holds its shard's turn. \
                 speedup_vs_1_thread is bounded above by available_parallelism; \
                 on a single-core host all shard counts converge to ~1.0x. \
                 db_bytes_shared is flat across shard counts because every shard \
                 serves one DbStore; db_bytes_copied_model is what the retired \
                 copy-per-shard design would have cost"
                    .into(),
            ),
        ),
        (
            "db_epoch_publish_latency_us".into(),
            serde_json::Value::Object(vec![
                (
                    "samples".into(),
                    serde_json::Value::U64(publish_samples as u64),
                ),
                ("p50".into(), serde_json::Value::F64(pub_p50)),
                ("p95".into(), serde_json::Value::F64(pub_p95)),
                ("max".into(), serde_json::Value::F64(pub_max)),
            ]),
        ),
        ("rows".into(), serde_json::Value::Array(rows)),
    ]);

    // -- observability riders: tracing overhead + SLO -------------------

    // Tracing overhead on the cache-hot row: same workload, metrics on,
    // sampling off vs every request sampled. The obs registry is reset
    // so the SLO section below sees only this run's counters.
    obs::reset();
    obs::set_enabled(true);
    obs::slo::install_default();
    let trace_threads = 2.min(cores);
    let (trace_batches, trace_batch_len) = if quick { (8, 64) } else { (16, 256) };
    // On a contended (often single-core) host, a single short run is
    // scheduler roulette; best-of-N interleaved repetitions converge
    // both modes toward true capacity.
    let trace_reps = if quick { 4 } else { 9 };

    // The SLO engine samples the registry from a background thread
    // while the runs execute, so the burn-rate windows see live deltas.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                obs::slo::tick();
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        })
    };

    // Warm up both paths (thread spawn, allocator, registry names), then
    // measure *paired* back-to-back runs. Ambient host load drifts on a
    // scale of seconds, so comparing two maxima taken at different times
    // confounds drift with instrumentation cost; within one pair the
    // regime is the same, and the median of per-pair overheads is robust
    // to outlier pairs.
    obs::set_trace_sampling(0);
    run(trace_threads, trace_batches, trace_batch_len);
    obs::set_trace_sampling(1);
    run(trace_threads, trace_batches, trace_batch_len);
    let mut clean_rs: Vec<f64> = Vec::with_capacity(trace_reps);
    let mut traced_rs: Vec<f64> = Vec::with_capacity(trace_reps);
    let mut pair_overheads: Vec<f64> = Vec::with_capacity(trace_reps);
    for _ in 0..trace_reps {
        obs::set_trace_sampling(0);
        let c = run(trace_threads, trace_batches, trace_batch_len);
        obs::set_trace_sampling(1);
        let t = run(trace_threads, trace_batches, trace_batch_len);
        pair_overheads.push((1.0 - t.requests_per_sec / c.requests_per_sec) * 100.0);
        clean_rs.push(c.requests_per_sec);
        traced_rs.push(t.requests_per_sec);
    }
    obs::set_trace_sampling(0);

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    sampler.join().expect("slo sampler thread");
    let slo_report = obs::slo::tick_and_report().expect("slo engine installed");
    obs::slo::uninstall();

    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = xs.len();
        if n % 2 == 1 {
            xs[n / 2]
        } else {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        }
    }
    let overhead_pct = median(&mut pair_overheads);
    let clean_rps = median(&mut clean_rs);
    let traced_rps = median(&mut traced_rs);
    eprintln!(
        "[c5 throughput] tracing overhead @ sample=1: {:.0} -> {:.0} req/s \
         (median of {} pairs: {:+.1}%)",
        clean_rps, traced_rps, trace_reps, overhead_pct
    );
    let tracing_section = serde_json::Value::Object(vec![
        (
            "threads".into(),
            serde_json::Value::U64(trace_threads as u64),
        ),
        (
            "requests_per_sec_untraced".into(),
            serde_json::Value::F64(clean_rps),
        ),
        (
            "requests_per_sec_sampled_1_in_1".into(),
            serde_json::Value::F64(traced_rps),
        ),
        ("overhead_pct".into(), serde_json::Value::F64(overhead_pct)),
        (
            "traces_retained".into(),
            serde_json::Value::U64(
                obs::shard_trace_counts()
                    .iter()
                    .map(|&(_, n)| n as u64)
                    .sum(),
            ),
        ),
    ]);

    let slo_json = slo_report.to_json();
    let slo_section: serde_json::Value =
        serde_json::from_str(&slo_json).expect("slo report reparses");
    eprint!("[c5 throughput] {}", slo_report.render());

    let mut summary = summary;
    if let serde_json::Value::Object(fields) = &mut summary {
        fields.push(("tracing".into(), tracing_section));
        fields.push(("slo".into(), slo_section));
        fields.push(("durability".into(), durability));
        fields.push(("wal_encoding".into(), wal_encoding));
    }

    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    let path = bench::write_result("BENCH_throughput.json", &json);
    eprintln!("[c5 throughput] wrote {}", path.display());

    // The SLO section also lands next to the other BENCH artifacts.
    let slo_path = bench::write_result("BENCH_slo.json", &slo_json);
    eprintln!("[c5 throughput] wrote {}", slo_path.display());

    // Smoke gate: a clean (fault-free) run must not breach the
    // availability SLO, and must have observed serving latency — a run
    // with no latency sample proves nothing. An `Over` latency verdict
    // is advisory: CI containers are slow.
    if std::env::var("SLO_SMOKE").is_ok() {
        if slo_report.availability_breached() {
            eprintln!("[c5 throughput] SLO_SMOKE: availability SLO breached on a clean run");
            std::process::exit(1);
        }
        if slo_report
            .slos
            .iter()
            .any(|s| s.latency == obs::slo::LatencyState::NoData)
        {
            eprintln!("[c5 throughput] SLO_SMOKE: no latency sample on the serving path");
            std::process::exit(1);
        }
    }

    // Durability gate (`bench::wal_gate`): every crash + recovery in the
    // durability section must reproduce the acknowledged state
    // byte-for-byte, and binary frames must stay >= 2x smaller than the
    // same records as JSON. Throughput is advisory; divergence or a size
    // regression is a correctness failure.
    if std::env::var("WAL_GATE").is_ok() {
        if let Err(e) = wal_verdict {
            eprintln!("[c5 throughput] WAL_GATE: {e}");
            std::process::exit(1);
        }
    }
}
