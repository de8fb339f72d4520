//! `edit`: writes and rule reloads alongside reads on a WAL-attached
//! store. Each cycle of an Analysis-mode editor opens an Instance
//! window, calls `Dispatcher::apply_update` on that pole (commit, then a
//! view refresh of the open window under the session's customization),
//! makes three seeded `OpenInstance` reads and closes its windows. About
//! every 500 ops `SessionServer::install_program` hot-reloads Fig. 6,
//! alternating its `pointFormat` and `symbolFormat` presentations.
//!
//! Flush policy: fsync on, group window 0, checkpoint every 1,000
//! records. The log lives under `target/interact/` in the working
//! directory and is removed when the workload is dropped.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use activegis::{ServerSession, SessionServer};
use builder::InterfaceBuilder;
use custlang::FIG6_PROGRAM;
use geodb::gen::TelecomConfig;
use geodb::store::DbStore;
use geodb::{Oid, Value, WalConfig};
use gisui::{InteractionMode, Request, Response};

use crate::browse::{contexts, install_programs, pole_oids, POLES, SCHEMA};
use crate::stats::{micros, Rng, Tally};
use crate::wire::request;
use crate::{Client, Workload, SHARDS};

const SESSIONS: usize = 8;
const READS_PER_CYCLE: usize = 3;
/// Client 0 reloads the program every this many of its own ops (about
/// every 500 ops of both clients).
const RELOAD_EVERY: u64 = 250;
const CHECKPOINT_EVERY: u64 = 1000;
const ATTR: &str = "pole_type";

/// One step of an editor's cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Open(u64),
    Write(u64, i64),
    Read(u64),
}

/// The seeded op sequence of one client: `(session slot, cycle)`.
pub struct Plan {
    rng: Rng,
    slots: Vec<usize>,
    /// Poles this client writes (disjoint from the other client's).
    own: Vec<u64>,
    all: Vec<u64>,
}

impl Plan {
    pub fn new(seed: u64, client: usize, poles: &[u64]) -> Plan {
        Plan {
            rng: Rng::new(seed).fork(client as u64 + 1),
            slots: (0..SESSIONS).filter(|s| (s / 2) % 2 == client).collect(),
            own: poles
                .iter()
                .copied()
                .skip(client)
                .step_by(crate::CLIENTS)
                .collect(),
            all: poles.to_vec(),
        }
    }

    pub fn next_cycle(&mut self) -> (usize, Vec<Op>) {
        let slot = self.slots[self.rng.below(self.slots.len())];
        let pole = self.own[self.rng.below(self.own.len())];
        let value = 1 + self.rng.below(4) as i64;
        let mut ops = vec![Op::Open(pole), Op::Write(pole, value)];
        for _ in 0..READS_PER_CYCLE {
            ops.push(Op::Read(self.all[self.rng.below(self.all.len())]));
        }
        (slot, ops)
    }
}

fn wal_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from("target")
        .join("interact")
        .join(format!("wal-{}-{n}", std::process::id()))
}

fn changes(value: i64) -> Vec<(String, Value)> {
    vec![(ATTR.to_string(), Value::Int(value))]
}

/// Fig. 6 with the presentation of reload `k`.
fn reload_source(k: u64) -> String {
    if k.is_multiple_of(2) {
        FIG6_PROGRAM.to_string()
    } else {
        FIG6_PROGRAM.replace("pointFormat", "symbolFormat")
    }
}

pub struct Edit {
    server: Option<SessionServer>,
    dir: PathBuf,
    sessions: Vec<ServerSession>,
    poles: Vec<u64>,
    /// The store's contents before the measured run.
    initial: Arc<String>,
    /// Acknowledged writes per client, in acknowledgement order.
    acked: Mutex<Vec<Vec<(u64, i64)>>>,
    reloads: AtomicU64,
}

impl Edit {
    pub fn setup(_seed: u64) -> Result<Edit, String> {
        let (db, _) = geodb::gen::phone_net_db(&TelecomConfig::with_poles(POLES))
            .map_err(|e| e.to_string())?;
        let dir = wal_dir();
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        let config = WalConfig::new(&dir).checkpoint_every(CHECKPOINT_EVERY);
        let (store, _) = geodb::wal::open(db, config).map_err(|e| format!("wal open: {e}"))?;
        let poles = pole_oids(&store)?;
        let server = SessionServer::start(SHARDS, active::RuleBase::new(), store);
        let mut w = Edit {
            server: Some(server),
            dir,
            sessions: Vec::new(),
            poles,
            initial: Arc::new(String::new()),
            acked: Mutex::new(vec![Vec::new(); crate::CLIENTS]),
            reloads: AtomicU64::new(0),
        };
        let server = w.server();
        install_programs(server)?;
        let mut sessions = Vec::new();
        for ctx in contexts(SESSIONS) {
            let s = server.open_session(ctx);
            server
                .with_dispatcher(s, move |d| d.set_mode(s.sid, InteractionMode::Analysis))
                .map_err(|e| format!("set mode: {e}"))?;
            sessions.push(s);
        }
        // Warm-up: read-only, so the store is unchanged before the run.
        let mut tally = Tally::default();
        for (i, &s) in sessions.iter().enumerate() {
            let oid = w.poles[i];
            if let (Ok(Response::Windows(ws)), _) =
                request(server, s, &Request::OpenInstance { oid }, false, &mut tally)
            {
                for win in ws {
                    let close = Request::CloseWindow { window: win.id };
                    let _ = request(server, s, &close, false, &mut tally);
                }
            }
        }
        w.sessions = sessions;
        Ok(w)
    }
}

impl Drop for Edit {
    fn drop(&mut self) {
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn save(store: &DbStore) -> Result<String, String> {
    geodb::snapshot::save_snapshot(&store.snapshot()).map_err(|e| e.to_string())
}

impl Workload for Edit {
    fn server(&self) -> &SessionServer {
        self.server.as_ref().expect("server runs until verify")
    }

    fn shard_sessions(&self) -> Vec<ServerSession> {
        self.sessions[..SHARDS].to_vec()
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        self.initial = Arc::new(save(&self.server().db_store())?);
        Ok(())
    }

    fn clients(&self, seed: u64) -> Vec<Box<dyn Client + '_>> {
        (0..crate::CLIENTS)
            .map(|c| {
                Box::new(EditClient {
                    w: self,
                    client: c,
                    plan: Plan::new(seed, c, &self.poles),
                    slot: 0,
                    pending: VecDeque::new(),
                    opened: Vec::new(),
                    acked: Vec::new(),
                    ops: 0,
                    library: InterfaceBuilder::with_paper_library().library,
                }) as Box<dyn Client + '_>
            })
            .collect()
    }

    /// The final snapshot must equal a sequential replay of the
    /// acknowledged writes on the pre-run contents, and recovering the
    /// run's WAL directory must reproduce it byte for byte.
    fn verify(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let server = self.server.take().expect("verify runs once");
        let live = save(&server.db_store())?;
        drop(server);
        let acked = self.acked.lock().expect("no client panicked");
        let mut db = geodb::snapshot::load(&self.initial).map_err(|e| e.to_string())?;
        let mut writes = 0usize;
        for list in acked.iter() {
            for &(oid, value) in list {
                db.update(Oid(oid), changes(value))
                    .map_err(|e| format!("replay write: {e}"))?;
                writes += 1;
            }
        }
        if save(&DbStore::new(db))? != live {
            return Err("final snapshot differs from the sequential replay of acked writes".into());
        }
        let config = WalConfig::new(&self.dir).checkpoint_every(CHECKPOINT_EVERY);
        let (recovered, report) =
            geodb::wal::recover(config).map_err(|e| format!("recover: {e}"))?;
        if save(&recovered)? != live {
            return Err("WAL recovery does not reproduce the final snapshot".into());
        }
        Ok(vec![
            ("edit.acked_writes", writes as f64),
            ("edit.reloads", self.reloads.load(Ordering::Relaxed) as f64),
            (
                "edit.recovery_replayed_records",
                report.replayed_records as f64,
            ),
        ])
    }
}

thread_local! {
    /// A volatile copy of the pre-run store per shard thread: the same
    /// writes replayed there give the commit's CPU share.
    static VOLATILE: RefCell<Option<DbStore>> = const { RefCell::new(None) };
}

struct EditClient<'a> {
    w: &'a Edit,
    client: usize,
    plan: Plan,
    slot: usize,
    pending: VecDeque<Op>,
    opened: Vec<u64>,
    acked: Vec<(u64, i64)>,
    ops: u64,
    library: uilib::Library,
}

impl Drop for EditClient<'_> {
    fn drop(&mut self) {
        if let Ok(mut acked) = self.w.acked.lock() {
            acked[self.client].append(&mut self.acked);
        }
    }
}

impl EditClient<'_> {
    fn read(&mut self, oid: u64, traced: bool, tally: &mut Tally) {
        let session = self.w.sessions[self.slot];
        let (resp, us) = request(
            self.w.server(),
            session,
            &Request::OpenInstance { oid },
            traced,
            tally,
        );
        tally.read(us);
        tally.op(traced, us);
        match resp {
            Ok(Response::Windows(ws)) if ws.iter().any(|w| w.oid == Some(Oid(oid))) => {
                self.opened.extend(ws.iter().map(|w| w.id));
            }
            Ok(other) => tally.fail(format!("open instance {oid}: unexpected {other:?}")),
            Err(e) => tally.fail(format!("open instance {oid}: {e}")),
        }
    }

    fn write(&mut self, oid: u64, value: i64, traced: bool, tally: &mut Tally) {
        let session = self.w.sessions[self.slot];
        let sid = session.sid;
        let initial = Arc::clone(&self.w.initial);
        let t0 = Instant::now();
        let (result, trace) = self.w.server().with_dispatcher(session, move |d| {
            let t_in = Instant::now();
            let result = d
                .apply_update(sid, Oid(oid), changes(value))
                .map(|refreshed| refreshed.len())
                .map_err(|e| e.to_string());
            let handle = micros(t_in.elapsed());
            if !traced || result.is_err() {
                return (result.map(|n| (n, 1)), None);
            }
            // Replay: the view refresh, the same commit on the WAL store
            // (an idempotent second write of the same value), and that
            // commit on a volatile copy.
            let t_replay = Instant::now();
            let t = Instant::now();
            let refresh = d.refresh_windows(SCHEMA, "Pole", Some(Oid(oid)));
            let refresh_us = micros(t.elapsed());
            let t = Instant::now();
            let commit = d.store().write(|db| db.update(Oid(oid), changes(value)));
            let commit_us = micros(t.elapsed());
            let cpu_us = VOLATILE.with(|cell| {
                let mut slot = cell.borrow_mut();
                if slot.is_none() {
                    *slot = geodb::snapshot::load(&initial).ok().map(DbStore::new);
                }
                let store = slot.as_ref()?;
                let t = Instant::now();
                store.write(|db| db.update(Oid(oid), changes(value))).ok()?;
                Some(micros(t.elapsed()))
            });
            let replay_total = micros(t_replay.elapsed());
            let inside = micros(t_in.elapsed());
            let result = match (result, refresh, commit) {
                (Ok(n), Ok(_), Ok(_)) => Ok((n, 2)),
                (_, Err(e), _) => Err(format!("replayed refresh: {e}")),
                (_, _, Err(e)) => Err(format!("replayed commit: {e}")),
                (Err(e), _, _) => Err(e),
            };
            let trace = (handle, inside, replay_total, refresh_us, commit_us, cpu_us);
            (result, Some(trace))
        });
        let rt = micros(t0.elapsed());
        let mut op_us = rt;
        if let Some((handle, inside, replay_total, refresh, commit, cpu)) = trace {
            op_us = rt - replay_total;
            let hop = rt - inside;
            let self_us = handle - refresh - commit;
            let l = &mut tally.ledger;
            l.add("activegis.hop_us", hop);
            l.add("gisui.dispatcher_self_us", self_us);
            l.add("gisui.refresh_us", refresh);
            l.add("geodb.commit_us", commit);
            if let Some(cpu) = cpu {
                l.add("geodb.commit_cpu_us", cpu);
            }
            l.add("ledger.layers_us", hop + self_us + refresh + commit);
        }
        tally.writes.push(op_us);
        tally.op(trace.is_some(), op_us);
        match result {
            // The open Instance window of the pole must be refreshed.
            Ok((refreshed, commits)) if refreshed >= 1 => {
                for _ in 0..commits {
                    self.acked.push((oid, value));
                }
            }
            Ok(_) => tally.fail(format!("update {oid}: open window not refreshed")),
            Err(e) => tally.fail(format!("update {oid}: {e}")),
        }
    }

    fn reload(&mut self, traced: bool, tally: &mut Tally) {
        let k = self.w.reloads.fetch_add(1, Ordering::Relaxed);
        let source = reload_source(k);
        let server = self.w.server();
        let t = Instant::now();
        let out = server.install_program(&source, "fig6");
        tally.reloads.push(micros(t.elapsed()));
        if let Err(e) = out {
            tally.fail(format!("reload {k}: {e}"));
            return;
        }
        if traced {
            // Replay the compile steps outside the op.
            let snap = server.db_store().snapshot();
            let t = Instant::now();
            let compiled = custlang::parse(&source).map(|program| {
                let env = custlang::AnalysisEnv::new(snap.catalog(), &self.library);
                let clean = custlang::is_clean(&custlang::analyze(&program, &env));
                (clean, custlang::compile(&program, "fig6").len())
            });
            tally.ledger.add("custlang.compile_us", micros(t.elapsed()));
            if !matches!(compiled, Ok((true, n)) if n > 0) {
                tally.fail(format!("reload {k}: replayed compile rejected the program"));
            }
            let base = server.rule_base();
            base.invalidate_compiled();
            let t = Instant::now();
            std::hint::black_box(base.precompile());
            tally.ledger.add("active.compile_us", micros(t.elapsed()));
        }
    }

    fn close(&mut self, id: u64, traced: bool, tally: &mut Tally) {
        let session = self.w.sessions[self.slot];
        let close = Request::CloseWindow { window: id };
        let (resp, us) = request(self.w.server(), session, &close, traced, tally);
        tally.op(traced, us);
        match resp {
            Ok(Response::Closed(_)) => {}
            Ok(other) => tally.fail(format!("close {id}: unexpected {other:?}")),
            Err(e) => tally.fail(format!("close {id}: {e}")),
        }
    }
}

impl Client for EditClient<'_> {
    fn step(&mut self, traced: bool, tally: &mut Tally) {
        if self.client == 0 && self.ops > 0 && self.ops.is_multiple_of(RELOAD_EVERY) {
            self.ops += 1;
            tally.attempted += 1;
            self.reload(traced, tally);
            return;
        }
        if let Some(op) = self.pending.pop_front() {
            self.ops += 1;
            tally.attempted += 1;
            match op {
                Op::Open(oid) | Op::Read(oid) => self.read(oid, traced, tally),
                Op::Write(oid, value) => self.write(oid, value, traced, tally),
            }
        } else if let Some(id) = self.opened.pop() {
            self.ops += 1;
            tally.attempted += 1;
            self.close(id, traced, tally);
        } else {
            let (slot, ops) = self.plan.next_cycle();
            self.slot = slot;
            self.pending = ops.into();
        }
    }
}
