//! `dispatch`: raw rule selection, no windows built. Each op is one
//! `SessionServer::dispatch_batch` of 32 seeded `Get_Class` and
//! `Get_Value` events for one session; sessions are drawn Zipf (s = 0.8)
//! over 16,384 contexts. Rule base: Fig. 6 plus 8,192 synthetic
//! directives (~25k rules). The compiled tier keys its winner cache on
//! the interned context, and a user no rule names interns to one shared
//! id, so the 8,192 named users are what overflow the shards' caches
//! (8,192 entries each); the other half of the contexts share one key.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use active::{DispatchStrategy, EngineConfig, Event, Outcome, SessionContext};
use activegis::{ServerSession, SessionServer};
use custlang::{Customization, FIG6_PROGRAM};
use geodb::gen::TelecomConfig;
use geodb::query::DbEvent;
use geodb::store::DbStore;
use geodb::Oid;

use crate::browse::{pole_oids, POLES, SCHEMA};
use crate::stats::{digest, micros, Rng, Tally, Zipf};
use crate::wire::{with_replayer, Replayed};
use crate::{Client, Workload, SHARDS};

pub const CONTEXTS: usize = 16_384;
const SYNTHETIC_DIRECTIVES: usize = 8192;
pub const BATCH: usize = 32;
const VALUE_OIDS: usize = 8;
const ZIPF_S: f64 = 0.8;
/// Batches dispatched during set-up to fill the caches.
const WARMUP_BATCHES: usize = 2000;
/// Distinct `(context, event)` pairs checked against the Linear oracle.
const ORACLE_CHECKS: usize = 2000;

pub fn context(i: usize) -> SessionContext {
    SessionContext::new(format!("user{i}"), "planner", "pole_manager")
}

/// The event universe: `Get_Class` on three classes, `Get_Value` on
/// eight seeded poles.
pub fn event_universe(value_oids: &[u64]) -> Vec<DbEvent> {
    let mut events: Vec<DbEvent> = ["Pole", "Duct", "Supplier"]
        .iter()
        .map(|c| DbEvent::GetClass {
            schema: SCHEMA.into(),
            class: (*c).into(),
        })
        .collect();
    events.extend(value_oids.iter().map(|&oid| DbEvent::GetValue {
        schema: SCHEMA.into(),
        class: "Pole".into(),
        oid: Oid(oid),
    }));
    events
}

/// The seeded op sequence of one client: `(context, event indices)`.
pub struct Plan {
    rng: Rng,
    zipf: Zipf,
    /// Zipf rank → context index (seeded, so hot contexts mix
    /// customized and generic users).
    rank_to_context: Vec<u32>,
    universe: usize,
}

impl Plan {
    pub fn new(seed: u64, client: usize, universe: usize) -> Plan {
        // Context i's session lives on shard i % 2. Ranks alternate
        // shards, so for every seed the hot contexts load both alike.
        let mut shuffled = Rng::new(seed).fork(0);
        let mut by_shard: Vec<Vec<u32>> = (0..SHARDS as u32)
            .map(|s| (s..CONTEXTS as u32).step_by(SHARDS).collect())
            .collect();
        for ids in &mut by_shard {
            shuffled.shuffle(ids);
        }
        let rank_to_context = (0..CONTEXTS)
            .map(|r| by_shard[r % SHARDS][r / SHARDS])
            .collect();
        Plan {
            rng: Rng::new(seed).fork(client as u64 + 1),
            zipf: Zipf::new(CONTEXTS, ZIPF_S),
            rank_to_context,
            universe,
        }
    }

    pub fn next_batch(&mut self) -> (usize, Vec<u8>) {
        let ctx = self.rank_to_context[self.zipf.sample(&mut self.rng)] as usize;
        let events = (0..BATCH)
            .map(|_| self.rng.below(self.universe) as u8)
            .collect();
        (ctx, events)
    }
}

/// What an outcome selected: fired rules and customization count.
fn selected(o: &Outcome<Customization>) -> u64 {
    digest(&(o.fired_names(), o.customizations.len()))
}

pub struct Dispatch {
    server: SessionServer,
    sessions: Vec<ServerSession>,
    events: Vec<DbEvent>,
    /// Selection digest per `(context, event)` seen by any client.
    seen: Mutex<HashMap<(u32, u8), u64>>,
    /// Pairs whose selection changed between two dispatches in the run.
    unstable: Mutex<u64>,
}

impl Dispatch {
    pub fn setup(seed: u64) -> Result<Dispatch, String> {
        let (db, _) = geodb::gen::phone_net_db(&TelecomConfig::with_poles(POLES))
            .map_err(|e| e.to_string())?;
        let store = DbStore::new(db);
        let mut value_oids = pole_oids(&store)?;
        Rng::new(seed).fork(0).shuffle(&mut value_oids);
        value_oids.truncate(VALUE_OIDS);
        let server = SessionServer::start(SHARDS, active::RuleBase::new(), store);
        server
            .install_program(FIG6_PROGRAM, "fig6")
            .map_err(|e| format!("install fig6: {e}"))?;
        server
            .install_program(&bench::synthetic_program(SYNTHETIC_DIRECTIVES), "synthetic")
            .map_err(|e| format!("install synthetic: {e}"))?;
        let sessions = (0..CONTEXTS)
            .map(|i| server.open_session(context(i)))
            .collect();
        let w = Dispatch {
            server,
            sessions,
            events: event_universe(&value_oids),
            seen: Mutex::new(HashMap::new()),
            unstable: Mutex::new(0),
        };
        let mut plan = Plan::new(seed, 0, w.events.len());
        for _ in 0..WARMUP_BATCHES {
            let (ctx, idx) = plan.next_batch();
            let events = idx.iter().map(|&i| w.events[i as usize].clone()).collect();
            w.server
                .dispatch_batch(w.sessions[ctx], events)
                .map_err(|e| format!("warm-up dispatch: {e}"))?;
        }
        Ok(w)
    }
}

impl Workload for Dispatch {
    fn server(&self) -> &SessionServer {
        &self.server
    }

    fn shard_sessions(&self) -> Vec<ServerSession> {
        self.sessions[..SHARDS].to_vec()
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn clients(&self, seed: u64) -> Vec<Box<dyn Client + '_>> {
        (0..crate::CLIENTS)
            .map(|c| {
                Box::new(DispatchClient {
                    w: self,
                    // Streams 1 and 2 fed the warm-up and nothing else.
                    plan: Plan::new(seed, c + 2, self.events.len()),
                    seen: HashMap::new(),
                    unstable: 0,
                }) as Box<dyn Client + '_>
            })
            .collect()
    }

    /// Every distinct `(context, event)` pair (up to `ORACLE_CHECKS`,
    /// evenly spaced) must select what a Linear engine selects on the
    /// same rule snapshot.
    fn verify(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let unstable = *self.unstable.lock().expect("no client panicked");
        if unstable > 0 {
            return Err(format!(
                "{unstable} (context, event) selections changed mid-run"
            ));
        }
        let seen = self.seen.lock().expect("no client panicked");
        let mut keys: Vec<_> = seen.keys().copied().collect();
        keys.sort_unstable();
        let step = keys.len().div_ceil(ORACLE_CHECKS).max(1);
        let base = self.server.rule_base();
        let mut oracle = base.session_with(EngineConfig {
            strategy: DispatchStrategy::Linear,
            ..base.config()
        });
        let mut checked = 0usize;
        for &(ctx, ev) in keys.iter().step_by(step) {
            let event = Event::Db(self.events[ev as usize].clone());
            let want = oracle
                .dispatch(event, &context(ctx as usize))
                .map(|o| selected(&o))
                .map_err(|e| format!("oracle dispatch: {e}"))?;
            if want != seen[&(ctx, ev)] {
                return Err(format!(
                    "context user{ctx} event {:?}: selection differs from the Linear oracle",
                    self.events[ev as usize]
                ));
            }
            checked += 1;
        }
        Ok(vec![
            ("dispatch.distinct_pairs", keys.len() as f64),
            ("dispatch.oracle_checked", checked as f64),
        ])
    }
}

struct DispatchClient<'a> {
    w: &'a Dispatch,
    plan: Plan,
    seen: HashMap<(u32, u8), u64>,
    unstable: u64,
}

impl DispatchClient<'_> {
    fn record(&mut self, ctx: usize, idx: &[u8], digests: &[u64]) {
        for (&ev, &d) in idx.iter().zip(digests) {
            let prev = *self.seen.entry((ctx as u32, ev)).or_insert(d);
            if prev != d {
                self.unstable += 1;
            }
        }
    }
}

impl Drop for DispatchClient<'_> {
    fn drop(&mut self) {
        let Ok(mut seen) = self.w.seen.lock() else {
            return;
        };
        for (k, d) in self.seen.drain() {
            if *seen.entry(k).or_insert(d) != d {
                self.unstable += 1;
            }
        }
        if let Ok(mut u) = self.w.unstable.lock() {
            *u += self.unstable;
        }
    }
}

impl Client for DispatchClient<'_> {
    fn step(&mut self, traced: bool, tally: &mut Tally) {
        let (ctx, idx) = self.plan.next_batch();
        let events: Vec<DbEvent> = idx
            .iter()
            .map(|&i| self.w.events[i as usize].clone())
            .collect();
        let session = self.w.sessions[ctx];
        tally.attempted += 1;
        if !traced {
            let t0 = Instant::now();
            let out = self.w.server.dispatch_batch(session, events);
            let us = micros(t0.elapsed());
            tally.read(us);
            tally.op(traced, us);
            match out {
                Ok(outcomes) if outcomes.len() == BATCH => {
                    let digests: Vec<u64> = outcomes.iter().map(selected).collect();
                    self.record(ctx, &idx, &digests);
                }
                Ok(outcomes) => {
                    tally.fail(format!("{} outcomes for {BATCH} events", outcomes.len()))
                }
                Err(e) => tally.fail(format!("dispatch_batch: {e}")),
            }
            return;
        }
        // Traced: the batch is replayed through `with_dispatcher` →
        // `dispatch_db_batch`, then its layer calls are replayed.
        let sid = session.sid;
        let t0 = Instant::now();
        let (digests, trace) = self.w.server.with_dispatcher(session, move |d| {
            let t_in = Instant::now();
            let out = d.dispatch_db_batch(sid, events.clone());
            let handle = micros(t_in.elapsed());
            let t_replay = Instant::now();
            let digests: Result<Vec<u64>, String> = match out {
                Ok(outs) => outs
                    .iter()
                    .map(|o| o.as_ref().map(selected).map_err(|e| e.to_string()))
                    .collect(),
                Err(e) => Err(e.to_string()),
            };
            let ctx = d
                .session(sid)
                .map(|s| s.context.clone())
                .unwrap_or_default();
            let mut replay = Replayed::default();
            let single = with_replayer(d, |r| {
                r.pin(&mut replay);
                let t = Instant::now();
                let outs = r
                    .engine()
                    .dispatch_batch(events.iter().cloned().map(Event::Db), &ctx);
                let us = micros(t.elapsed());
                std::hint::black_box(outs);
                replay.layers_us += us;
                replay
                    .ledger
                    .add("active.batch_event_us", us / events.len() as f64);
                let t = Instant::now();
                let one = r.engine().dispatch(Event::Db(events[0].clone()), &ctx);
                std::hint::black_box(one.is_ok());
                micros(t.elapsed())
            });
            replay.ledger.add("active.dispatch_us", single);
            let t_end = Instant::now();
            let inside = micros(t_end - t_in);
            (digests, (handle, inside, micros(t_end - t_replay), replay))
        });
        let rt = micros(t0.elapsed());
        let (handle, inside, replay_total, replay) = trace;
        let hop = rt - inside;
        let self_us = handle - replay.layers_us;
        let l = &mut tally.ledger;
        l.add("activegis.hop_us", hop);
        l.add("gisui.dispatcher_self_us", self_us);
        l.merge(&replay.ledger);
        l.add("ledger.layers_us", hop + self_us + replay.layers_us);
        tally.read(rt - replay_total);
        tally.op(true, rt - replay_total);
        match digests {
            Ok(d) if d.len() == BATCH => self.record(ctx, &idx, &d),
            Ok(d) => tally.fail(format!("{} outcomes for {BATCH} events", d.len())),
            Err(e) => tally.fail(format!("dispatch_db_batch: {e}")),
        }
    }
}
