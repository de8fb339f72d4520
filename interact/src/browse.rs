//! `browse`: the paper's Fig. 4/7 walk as weak-integration protocol
//! traffic. Each walk opens the `phone_net` Schema window, the Pole
//! class window and eight seeded Instance windows, then closes every
//! window it opened. 16 sessions, half of them customized.

use std::collections::{HashMap, VecDeque};

use active::{Engine, SessionContext};
use activegis::{ServerSession, SessionServer};
use builder::InterfaceBuilder;
use custlang::{Customization, FIG6_PROGRAM};
use geodb::gen::TelecomConfig;
use geodb::store::DbStore;
use gisui::{Dispatcher, Request, Response};

use crate::stats::{Rng, Tally};
use crate::wire::{request, response_digest};
use crate::{Client, Workload, SHARDS};

pub const POLES: usize = 1000;
const SESSIONS: usize = 16;
/// Seeded poles the walks pick their Instance windows from.
const CANDIDATES: usize = 64;
const INSTANCES_PER_WALK: usize = 8;
pub const SCHEMA: &str = "phone_net";

/// Session contexts: even slots are customized (Fig. 6's juliano and the
/// synthetic program's users), odd slots generic visitors.
pub fn contexts(n: usize) -> Vec<SessionContext> {
    (0..n)
        .map(|i| match (i % 2, i / 2) {
            (0, 0) => SessionContext::new("juliano", "planner", "pole_manager"),
            (0, k) => SessionContext::new(format!("user{k}"), "planner", "pole_manager"),
            (_, k) => SessionContext::new(format!("guest{k}"), "visitor", "browse"),
        })
        .collect()
}

/// The programs every browse/edit server runs: Fig. 6 plus 16 synthetic
/// user directives.
pub fn install_programs(server: &SessionServer) -> Result<(), String> {
    server
        .install_program(FIG6_PROGRAM, "fig6")
        .map_err(|e| format!("install fig6: {e}"))?;
    server
        .install_program(&bench::synthetic_program(16), "synthetic")
        .map_err(|e| format!("install synthetic: {e}"))?;
    Ok(())
}

/// Pole oids in oid order.
pub fn pole_oids(store: &DbStore) -> Result<Vec<u64>, String> {
    let mut oids: Vec<u64> = store
        .snapshot()
        .get_class(SCHEMA, "Pole", false)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|i| i.oid.0)
        .collect();
    oids.sort_unstable();
    Ok(oids)
}

/// Golden-response key: `(session slot, request)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    Schema,
    Class,
    Instance(u64),
}

impl Key {
    pub fn request(self) -> Request {
        match self {
            Key::Schema => Request::OpenSchema {
                schema: SCHEMA.into(),
            },
            Key::Class => Request::OpenClass {
                schema: SCHEMA.into(),
                class: "Pole".into(),
            },
            Key::Instance(oid) => Request::OpenInstance { oid },
        }
    }
}

/// The seeded walk sequence of one client: `(session slot, opens)`.
pub struct Plan {
    rng: Rng,
    slots: Vec<usize>,
    candidates: Vec<u64>,
}

impl Plan {
    pub fn new(seed: u64, client: usize, slots: Vec<usize>, candidates: Vec<u64>) -> Plan {
        Plan {
            rng: Rng::new(seed).fork(client as u64 + 1),
            slots,
            candidates,
        }
    }

    pub fn next_walk(&mut self) -> (usize, Vec<Key>) {
        let slot = self.slots[self.rng.below(self.slots.len())];
        let mut keys = vec![Key::Schema, Key::Class];
        for _ in 0..INSTANCES_PER_WALK {
            keys.push(Key::Instance(
                self.candidates[self.rng.below(self.candidates.len())],
            ));
        }
        (slot, keys)
    }
}

/// Seeded Instance-window candidates.
pub fn candidates(seed: u64, poles: &[u64], n: usize) -> Vec<u64> {
    let mut all = poles.to_vec();
    Rng::new(seed).fork(0).shuffle(&mut all);
    all.truncate(n);
    all
}

pub struct Browse {
    server: SessionServer,
    sessions: Vec<ServerSession>,
    candidates: Vec<u64>,
    golden: HashMap<(usize, Key), u64>,
}

impl Browse {
    pub fn setup(seed: u64) -> Result<Browse, String> {
        let (db, _) = geodb::gen::phone_net_db(&TelecomConfig::with_poles(POLES))
            .map_err(|e| e.to_string())?;
        let store = DbStore::new(db);
        let poles = pole_oids(&store)?;
        let server = SessionServer::start(SHARDS, active::RuleBase::new(), store);
        install_programs(&server)?;
        let sessions: Vec<ServerSession> = contexts(SESSIONS)
            .into_iter()
            .map(|c| server.open_session(c))
            .collect();
        let candidates = candidates(seed, &poles, CANDIDATES);
        let w = Browse {
            server,
            sessions,
            candidates,
            golden: HashMap::new(),
        };
        // Warm-up: one walk per session.
        let mut tally = Tally::default();
        for slot in 0..SESSIONS {
            let mut opened = Vec::new();
            for key in [Key::Schema, Key::Class, Key::Instance(w.candidates[0])] {
                if let (Ok(Response::Windows(ws)), _) = request(
                    &w.server,
                    w.sessions[slot],
                    &key.request(),
                    false,
                    &mut tally,
                ) {
                    opened.extend(ws.iter().map(|d| d.id));
                }
            }
            for id in opened {
                let _ = request(
                    &w.server,
                    w.sessions[slot],
                    &Request::CloseWindow { window: id },
                    false,
                    &mut tally,
                );
            }
        }
        Ok(w)
    }
}

impl Workload for Browse {
    fn server(&self) -> &SessionServer {
        &self.server
    }

    fn shard_sessions(&self) -> Vec<ServerSession> {
        self.sessions[..SHARDS].to_vec()
    }

    /// Golden responses from a single-threaded reference dispatcher over
    /// the same store, with its own engine and the same programs.
    fn prepare_oracle(&mut self) -> Result<(), String> {
        let mut reference = Dispatcher::with_store(
            self.server.db_store(),
            InterfaceBuilder::with_paper_library(),
            Engine::<Customization>::new(),
        );
        reference
            .install_program(FIG6_PROGRAM, "fig6")
            .map_err(|e| e.to_string())?;
        reference
            .install_program(&bench::synthetic_program(16), "synthetic")
            .map_err(|e| e.to_string())?;
        for (slot, ctx) in contexts(SESSIONS).into_iter().enumerate() {
            let sid = reference.open_session(ctx);
            let keys = [Key::Schema, Key::Class]
                .into_iter()
                .chain(self.candidates.iter().map(|&o| Key::Instance(o)));
            for key in keys {
                let resp = reference.handle_request(sid, key.request());
                let d = response_digest(&resp).map_err(|e| format!("reference {key:?}: {e}"))?;
                self.golden.insert((slot, key), d);
                if let Response::Windows(ws) = resp {
                    for w in ws {
                        reference.handle_request(sid, Request::CloseWindow { window: w.id });
                    }
                }
            }
        }
        Ok(())
    }

    fn clients(&self, seed: u64) -> Vec<Box<dyn Client + '_>> {
        (0..crate::CLIENTS)
            .map(|c| {
                // Client c owns the session slots whose pair index has
                // parity c: its sessions span both shards.
                let slots = (0..SESSIONS).filter(|s| (s / 2) % 2 == c).collect();
                Box::new(BrowseClient {
                    w: self,
                    plan: Plan::new(seed, c, slots, self.candidates.clone()),
                    slot: 0,
                    pending: VecDeque::new(),
                    opened: Vec::new(),
                }) as Box<dyn Client + '_>
            })
            .collect()
    }

    fn verify(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(vec![("browse.golden_responses", self.golden.len() as f64)])
    }
}

struct BrowseClient<'a> {
    w: &'a Browse,
    plan: Plan,
    slot: usize,
    pending: VecDeque<Key>,
    /// Windows the current walk opened, closed when its opens are done.
    opened: Vec<u64>,
}

impl Client for BrowseClient<'_> {
    fn step(&mut self, traced: bool, tally: &mut Tally) {
        let session = self.w.sessions[self.slot];
        if let Some(key) = self.pending.pop_front() {
            tally.attempted += 1;
            let (resp, us) = request(&self.w.server, session, &key.request(), traced, tally);
            tally.read(us);
            tally.op(traced, us);
            let golden = self.w.golden.get(&(self.slot, key));
            match resp
                .as_ref()
                .map_err(Clone::clone)
                .and_then(response_digest)
            {
                Ok(d) if Some(&d) == golden => {
                    if let Ok(Response::Windows(ws)) = resp {
                        self.opened.extend(ws.iter().map(|w| w.id));
                    }
                }
                Ok(_) => tally.fail(format!("session {} {key:?}: response differs", self.slot)),
                Err(e) => tally.fail(format!("session {} {key:?}: {e}", self.slot)),
            }
        } else if let Some(id) = self.opened.pop() {
            tally.attempted += 1;
            let (resp, us) = request(
                &self.w.server,
                session,
                &Request::CloseWindow { window: id },
                traced,
                tally,
            );
            tally.op(traced, us);
            match resp {
                Ok(Response::Closed(_)) => {}
                Ok(other) => tally.fail(format!("close {id}: unexpected {other:?}")),
                Err(e) => tally.fail(format!("close {id}: {e}")),
            }
        } else {
            let (slot, keys) = self.plan.next_walk();
            self.slot = slot;
            self.pending = keys.into();
        }
    }
}
