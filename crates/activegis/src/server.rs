//! Concurrent multi-session serving.
//!
//! The paper interposes the active mechanism between *every* user
//! interaction and the DBMS; the ROADMAP north star is a deployment that
//! serves heavy traffic from many users at once. [`SessionServer`] is
//! that serving layer: a dependency-free worker pool that shards user
//! sessions across N OS threads and dispatches requests for distinct
//! sessions in parallel.
//!
//! # Shard model
//!
//! Each worker thread owns a full [`Dispatcher`] — a private reader pin
//! over *one shared* [`DbStore`] and its own engine *session* opened
//! from one shared [`RuleBase`]. Both data and rules therefore exist
//! once, published as immutable copy-on-write snapshots; everything
//! mutable per dispatch (winner cache, scratch buffers, deferred queue,
//! window registry) is shard-private, so workers never contend on a lock
//! in the steady state. Sessions are pinned to a shard round-robin at
//! open time: all requests of one session execute on one thread in
//! arrival order, while requests of different sessions proceed in
//! parallel. See `docs/scaling.md` for the full protocol.
//!
//! Rule mutations go through any engine handle of the same rule base
//! (e.g. the one inside another `Dispatcher`, or a plain
//! [`RuleBase::session`]); database writes go through any handle of the
//! same store (e.g. [`SessionServer::db_store`], or the dispatcher of
//! one shard via [`SessionServer::with_dispatcher`]). Every shard picks
//! up the new rule snapshot and the new database epoch with one atomic
//! check each at its next dispatch — a write committed through shard A
//! is visible to a read on shard B immediately after it publishes (see
//! `docs/storage.md`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use active::{ActiveError, Outcome, RuleBase, SessionContext};
use custlang::Customization;
use geodb::query::{DbEvent, DbEventKind};
use geodb::repl::{ReadRouter, ReplicaStatus, ReplicaStore};
use geodb::store::DbStore;
use geodb::Epoch;
use gisui::{Dispatcher, SessionId, UiError};

/// Where the serving layer routes *reads* (writes always go to the
/// primary). See `docs/replication.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRouting {
    /// Every shard reads the primary (the non-replicated default).
    Primary,
    /// Every shard reads its assigned replica unconditionally — reads
    /// may be arbitrarily stale while the replica lags.
    Replica,
    /// Every shard reads its assigned replica while it is within `0`
    /// epochs of the primary's frontier, falling back to the primary
    /// per-read otherwise — no routed read ever observes state older
    /// than the bound.
    BoundedStaleness(u64),
}

impl ReadRouting {
    /// Router for one shard under this policy. `replica` is the shard's
    /// assigned follower (`None` ⇒ primary-only regardless of policy).
    fn router(self, store: &DbStore, replica: Option<&ReplicaStore>) -> ReadRouter {
        match (self, replica) {
            (ReadRouting::Primary, _) | (_, None) => ReadRouter::primary_only(store.reader()),
            (ReadRouting::Replica, Some(r)) => {
                ReadRouter::with_replica(store.reader(), r.reader(), None)
            }
            (ReadRouting::BoundedStaleness(bound), Some(r)) => {
                ReadRouter::with_replica(store.reader(), r.reader(), Some(bound))
            }
        }
    }
}

/// A session opened on a [`SessionServer`]: which shard owns it and its
/// dispatcher-local id there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerSession {
    pub shard: usize,
    pub sid: SessionId,
}

/// One request unit executed on a shard's worker thread.
enum Job {
    Open {
        context: SessionContext,
        reply: Sender<SessionId>,
    },
    /// Dispatch a batch of database events for one session, replying
    /// with per-event outcomes. Batching amortizes the queue round-trip
    /// so the per-request cost is the dispatch itself.
    Dispatch {
        sid: SessionId,
        events: Vec<DbEvent>,
        reply: Sender<Result<Vec<Outcome<Customization>>, ActiveError>>,
    },
    /// Run an arbitrary closure against the shard's dispatcher (window
    /// operations, program installs, introspection).
    Exec(Box<dyn FnOnce(&mut Dispatcher) + Send>),
    Shutdown,
}

/// A shard's work queue: jobs execute on the owning worker in FIFO
/// order.
#[derive(Default)]
struct ShardQueue {
    jobs: Mutex<Vec<Job>>,
    ready: Condvar,
}

impl ShardQueue {
    fn push(&self, job: Job) {
        self.jobs.lock().unwrap().push(job);
        self.ready.notify_one();
    }

    fn pop_all(&self) -> Vec<Job> {
        let mut jobs = self.jobs.lock().unwrap();
        while jobs.is_empty() {
            jobs = self.ready.wait(jobs).unwrap();
        }
        std::mem::take(&mut *jobs)
    }
}

/// The concurrent serving layer: N worker threads, one dispatcher and
/// one work queue per shard, sessions pinned to shards round-robin.
pub struct SessionServer {
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<JoinHandle<()>>,
    rule_base: RuleBase<Customization>,
    store: DbStore,
    /// Attached followers; shard `i` reads from replica `i % N` under a
    /// replica-routing policy. Holding them here keeps their primary
    /// pins (and background shippers) alive for the server's lifetime.
    replicas: Vec<ReplicaStore>,
    routing: Mutex<ReadRouting>,
    sessions: Mutex<HashMap<u64, ServerSession>>,
    next_session: AtomicU64,
    next_shard: AtomicU64,
}

impl SessionServer {
    /// Start `workers` shard threads, all serving `store` — one shared
    /// versioned database, not a copy per shard. Every shard opens an
    /// engine session over `rule_base` and a reader pin over the store's
    /// current epoch.
    pub fn start(
        workers: usize,
        rule_base: RuleBase<Customization>,
        store: DbStore,
    ) -> SessionServer {
        SessionServer::start_replicated(workers, rule_base, store, Vec::new(), ReadRouting::Primary)
    }

    /// Start a *replicated* serving layer: shard `i` routes its reads to
    /// `replicas[i % N]` under `routing`, while every write still goes
    /// through the shared primary `store`. With an empty replica set any
    /// policy degenerates to primary-only. The policy can be changed at
    /// run time with [`SessionServer::set_read_routing`].
    pub fn start_replicated(
        workers: usize,
        rule_base: RuleBase<Customization>,
        store: DbStore,
        replicas: Vec<ReplicaStore>,
        routing: ReadRouting,
    ) -> SessionServer {
        let workers_n = workers.max(1);
        let mut queues = Vec::with_capacity(workers_n);
        let mut handles = Vec::with_capacity(workers_n);
        for shard in 0..workers_n {
            let queue = Arc::new(ShardQueue::default());
            let session = rule_base.session();
            let router = routing.router(&store, shard_replica(&replicas, shard));
            let mut dispatcher = Dispatcher::with_router(
                store.clone(),
                router,
                builder::InterfaceBuilder::with_paper_library(),
                session,
            );
            let worker_queue = Arc::clone(&queue);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gis-shard-{shard}"))
                    .spawn(move || worker_loop(&worker_queue, &mut dispatcher, shard))
                    .expect("spawn shard worker"),
            );
            queues.push(queue);
        }
        SessionServer {
            queues,
            workers: handles,
            rule_base,
            store,
            replicas,
            routing: Mutex::new(routing),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            next_shard: AtomicU64::new(0),
        }
    }

    /// Number of shard threads.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The shared rule base every shard dispatches against.
    pub fn rule_base(&self) -> &RuleBase<Customization> {
        &self.rule_base
    }

    /// The shared versioned store every shard serves. Clone it to read
    /// (`snapshot`/`reader`) or write (`write`) from any thread; commits
    /// publish a new epoch that every shard observes at its next
    /// dispatch.
    pub fn db_store(&self) -> DbStore {
        self.store.clone()
    }

    /// The database epoch currently published to every shard.
    pub fn db_epoch(&self) -> Epoch {
        self.store.epoch()
    }

    /// The highest epoch known durable, or 0 when the shared store is
    /// volatile. Under group commit several shards' writes may become
    /// durable with one fsync.
    pub fn durable_epoch(&self) -> Epoch {
        self.store.durable_epoch()
    }

    /// WAL counters of the shared store, or `None` when volatile.
    pub fn wal_status(&self) -> Option<(geodb::WalStatus, Epoch)> {
        self.store.wal_status()
    }

    /// The read-routing policy shards currently apply.
    pub fn read_routing(&self) -> ReadRouting {
        *self.routing.lock().unwrap()
    }

    /// The attached replicas, in shard-assignment order.
    pub fn replicas(&self) -> &[ReplicaStore] {
        &self.replicas
    }

    /// Health of every attached replica (applied epoch, lag, sync and
    /// byte counters).
    pub fn replication_status(&self) -> Vec<ReplicaStatus> {
        self.replicas.iter().map(ReplicaStore::status).collect()
    }

    /// Drive every replica to the primary's published epoch once (tests
    /// and benchmarks; production deployments stream instead — see
    /// [`geodb::repl::ReplicaStore::start_streaming`]).
    pub fn sync_replicas(&self) -> Result<(), geodb::GeoDbError> {
        for r in &self.replicas {
            r.sync_to_latest()?;
        }
        Ok(())
    }

    /// Swap the read-routing policy on every shard. Synchronous: when
    /// this returns, the next interaction on any shard pins under the
    /// new policy.
    pub fn set_read_routing(&self, routing: ReadRouting) {
        *self.routing.lock().unwrap() = routing;
        for shard in 0..self.queues.len() {
            let router = routing.router(&self.store, shard_replica(&self.replicas, shard));
            let (tx, rx) = channel();
            self.queues[shard].push(Job::Exec(Box::new(move |d| {
                d.route_reads(router);
                let _ = tx.send(());
            })));
            rx.recv().expect("shard worker alive");
        }
    }

    /// Open a session for a user context; it is pinned to a shard
    /// round-robin and all its requests run there, in order.
    pub fn open_session(&self, context: SessionContext) -> ServerSession {
        let shard = (self.next_shard.fetch_add(1, Ordering::Relaxed) as usize) % self.queues.len();
        let (tx, rx) = channel();
        self.queues[shard].push(Job::Open { context, reply: tx });
        let sid = rx.recv().expect("shard worker alive");
        let session = ServerSession { shard, sid };
        let key = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().unwrap().insert(key, session);
        session
    }

    /// Dispatch one database event for a session and wait for the
    /// outcome.
    pub fn dispatch(
        &self,
        session: ServerSession,
        event: DbEvent,
    ) -> Result<Outcome<Customization>, ActiveError> {
        Ok(self
            .dispatch_batch(session, vec![event])?
            .pop()
            .expect("one outcome per event"))
    }

    /// Dispatch a batch of database events for one session (one queue
    /// round-trip, outcomes in order). The batch is the serving layer's
    /// unit of work; `c5_throughput` drives these.
    pub fn dispatch_batch(
        &self,
        session: ServerSession,
        events: Vec<DbEvent>,
    ) -> Result<Vec<Outcome<Customization>>, ActiveError> {
        let (tx, rx) = channel();
        self.queues[session.shard].push(Job::Dispatch {
            sid: session.sid,
            events,
            reply: tx,
        });
        rx.recv().expect("shard worker alive")
    }

    /// Run a closure on a session's shard against its dispatcher and
    /// wait for the result — the escape hatch for full-UI requests
    /// (window opens, renders, program installs on that shard).
    pub fn with_dispatcher<R: Send + 'static>(
        &self,
        session: ServerSession,
        f: impl FnOnce(&mut Dispatcher) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = channel();
        self.queues[session.shard].push(Job::Exec(Box::new(move |d| {
            let _ = tx.send(f(d));
        })));
        rx.recv().expect("shard worker alive")
    }

    /// Install a customization program on every shard's dispatcher.
    /// Rules land in the shared rule base once per distinct name; the
    /// per-shard install also primes shard-local compiler state. Returns
    /// the rule count reported by the first shard.
    pub fn install_program(&self, source: &str, prefix: &str) -> Result<usize, UiError> {
        let mut first: Option<usize> = None;
        for shard in 0..self.queues.len() {
            let (tx, rx) = channel();
            let src = source.to_string();
            let pfx = prefix.to_string();
            self.queues[shard].push(Job::Exec(Box::new(move |d| {
                let _ = tx.send(d.install_program(&src, &pfx));
            })));
            let n = rx.recv().expect("shard worker alive")?;
            first.get_or_insert(n);
        }
        // Compile the new rule generation now, off the serving path —
        // the first post-install dispatch on every shard reuses the
        // shared artifact instead of paying the compile itself.
        self.rule_base.precompile();
        Ok(first.unwrap_or(0))
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        for q in &self.queues {
            q.push(Job::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The replica assigned to a shard: `shard % N`, `None` with no
/// replicas attached.
fn shard_replica(replicas: &[ReplicaStore], shard: usize) -> Option<&ReplicaStore> {
    if replicas.is_empty() {
        None
    } else {
        Some(&replicas[shard % replicas.len()])
    }
}

/// Grouping key for batch execution: events of one kind walk the same
/// compiled jump table / index bucket. The rank is arbitrary but fixed —
/// it only needs to collate equal kinds, and must stay a *stable* sort
/// key so arrival order survives within each group.
fn kind_rank(kind: DbEventKind) -> u8 {
    match kind {
        DbEventKind::GetSchema => 0,
        DbEventKind::GetClass => 1,
        DbEventKind::GetValue => 2,
        DbEventKind::Insert => 3,
        DbEventKind::Update => 4,
        DbEventKind::Delete => 5,
        DbEventKind::SchemaRegistered => 6,
    }
}

fn worker_loop(queue: &ShardQueue, dispatcher: &mut Dispatcher, shard: usize) {
    // Pin the worker thread to its shard: request traces commit to this
    // shard's ring and shard-labeled counters attribute to it.
    obs::set_shard(shard as u64);
    let shard_label = shard.to_string();
    loop {
        for job in queue.pop_all() {
            match job {
                Job::Open { context, reply } => {
                    let _ = reply.send(dispatcher.open_session(context));
                }
                Job::Dispatch { sid, events, reply } => {
                    // The reply is sent only after the trace guard has
                    // dropped, so a client that reads the trace ring
                    // right after `recv` always sees its own trace.
                    let result = {
                        // The root span's histogram is the default SLO's
                        // latency series: one sample per answered batch.
                        let _root = obs::trace_root(obs::slo::SERVER_BATCH_SPAN);
                        let batch_len = events.len();
                        if obs::trace_recording() {
                            obs::trace_annotate("shard", shard_label.clone());
                            obs::trace_annotate("batch_len", batch_len.to_string());
                        }
                        let t0 = std::time::Instant::now();
                        // Execute grouped by event discriminant so one
                        // jump-table / index-bucket walk amortizes over
                        // the whole batch (same kind → same table, warm
                        // branch predictor, denser winner-cache probes).
                        // The sort is stable: events of one kind keep
                        // their arrival order, and replies are written
                        // back through `slots` in arrival order, so
                        // grouping is invisible to the client.
                        let mut order: Vec<usize> = (0..events.len()).collect();
                        order.sort_by_key(|&i| kind_rank(events[i].kind()));
                        let sorted: Vec<DbEvent> = {
                            let mut events: Vec<Option<DbEvent>> =
                                events.into_iter().map(Some).collect();
                            order
                                .iter()
                                .map(|&i| events[i].take().expect("each slot dispatched once"))
                                .collect()
                        };
                        let mut slots: Vec<Option<Outcome<Customization>>> =
                            (0..order.len()).map(|_| None).collect();
                        let mut dispatched = 0usize;
                        let mut degraded = 0u64;
                        let mut failed = None;
                        // One batched call: the dispatcher resolves the
                        // session and revalidates its reader pin once,
                        // and the engine's batch lane amortizes the
                        // table walk across each kind-sorted run. Every
                        // event dispatches (per-event isolation), but
                        // the batch still fails on the first error in
                        // *execution* (grouped) order, as before.
                        match dispatcher.dispatch_db_batch(sid, sorted) {
                            Ok(outcomes) => {
                                for (&i, outcome) in order.iter().zip(outcomes) {
                                    match outcome {
                                        Ok(o) => {
                                            dispatched += 1;
                                            if !o.faults.is_empty() {
                                                degraded += 1;
                                            }
                                            slots[i] = Some(o);
                                        }
                                        Err(UiError::Active(e)) => {
                                            failed = Some(e);
                                            break;
                                        }
                                        Err(other) => {
                                            failed =
                                                Some(ActiveError::UnknownRule(other.to_string()));
                                            break;
                                        }
                                    }
                                }
                            }
                            Err(UiError::Active(e)) => failed = Some(e),
                            Err(other) => {
                                failed = Some(ActiveError::UnknownRule(other.to_string()));
                            }
                        }
                        if obs::enabled() {
                            // SLO accounting: every event in the batch
                            // is a request; an error fails the events
                            // it prevented from dispatching, and
                            // fault-degraded outcomes count separately.
                            let ok = dispatched as u64 - degraded;
                            let shard_lbl: &[(&str, &str)] = &[("shard", &shard_label)];
                            if ok > 0 {
                                obs::counter_add_labeled(
                                    obs::slo::SERVER_REQUESTS,
                                    &[("degraded", "false"), ("shard", &shard_label)],
                                    ok,
                                );
                            }
                            if degraded > 0 {
                                obs::counter_add_labeled(
                                    obs::slo::SERVER_REQUESTS,
                                    &[("degraded", "true"), ("shard", &shard_label)],
                                    degraded,
                                );
                            }
                            let missed = if failed.is_some() {
                                let missed = (batch_len - dispatched).max(1) as u64;
                                obs::counter_add_labeled(
                                    obs::slo::SERVER_REQUESTS,
                                    shard_lbl,
                                    missed,
                                );
                                missed
                            } else {
                                0
                            };
                            // Added even when zero, so the SLO's error
                            // series exists from the first clean batch.
                            obs::counter_add_labeled(
                                obs::slo::SERVER_REQUEST_ERRORS,
                                shard_lbl,
                                missed,
                            );
                            obs::record_nanos_labeled(
                                "server.batch_latency",
                                shard_lbl,
                                t0.elapsed().as_nanos() as u64,
                            );
                        }
                        if failed.is_some() {
                            obs::trace_mark_fault();
                        }
                        match failed {
                            Some(e) => Err(e),
                            None => Ok(slots
                                .into_iter()
                                .map(|s| s.expect("no failure ⇒ every slot filled"))
                                .collect()),
                        }
                    };
                    let _ = reply.send(result);
                }
                Job::Exec(f) => f(dispatcher),
                Job::Shutdown => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use active::Engine;
    use custlang::FIG6_PROGRAM;
    use geodb::gen::TelecomConfig;

    fn server(workers: usize) -> SessionServer {
        let engine: Engine<Customization> = Engine::new();
        let base = engine.rule_base();
        let db = geodb::gen::phone_net_db(&TelecomConfig::small()).unwrap().0;
        SessionServer::start(workers, base, DbStore::new(db))
    }

    #[test]
    fn server_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionServer>();
        fn assert_send<T: Send>() {}
        assert_send::<Dispatcher>();
    }

    #[test]
    fn replicated_server_serves_follower_reads_and_swaps_policy() {
        let engine: Engine<Customization> = Engine::new();
        let base = engine.rule_base();
        let db = geodb::gen::phone_net_db(&TelecomConfig::small()).unwrap().0;
        let store = DbStore::new(db);
        let replicas: Vec<_> = (0..2)
            .map(|i| ReplicaStore::attach(&store, format!("r{i}")).unwrap())
            .collect();
        let server = SessionServer::start_replicated(
            4,
            base,
            store.clone(),
            replicas,
            ReadRouting::BoundedStaleness(0),
        );
        assert_eq!(server.read_routing(), ReadRouting::BoundedStaleness(0));
        assert_eq!(server.replicas().len(), 2);

        let session = server.open_session(SessionContext::new("u", "c", "app"));
        let event = DbEvent::GetClass {
            schema: "phone_net".into(),
            class: "Pole".into(),
        };
        // Replicas are at the primary's epoch (lag 0): served in-bound.
        server.dispatch(session, event.clone()).unwrap();

        // A primary write makes both replicas lag; bound 0 forces the
        // shard onto the primary, which must serve the new value.
        let oid = store
            .snapshot()
            .get_class("phone_net", "Pole", false)
            .unwrap()[0]
            .oid;
        store
            .write(|db| db.update(oid, vec![("pole_type".into(), geodb::Value::Int(77))]))
            .unwrap();
        let fresh = server.with_dispatcher(session, move |d| {
            let snap = d.snapshot();
            let epoch = snap.epoch();
            (snap.peek(oid).unwrap().get("pole_type").clone(), epoch)
        });
        assert_eq!(fresh.0, geodb::Value::Int(77));
        assert_eq!(fresh.1, store.epoch());
        for s in server.replication_status() {
            assert!(s.lag >= 1, "replicas lag after the write: {s:?}");
        }

        // Catch up and swap to unconditional replica reads.
        server.sync_replicas().unwrap();
        server.set_read_routing(ReadRouting::Replica);
        assert_eq!(server.read_routing(), ReadRouting::Replica);
        server.dispatch(session, event).unwrap();
        let epoch = server.with_dispatcher(session, |d| d.db_epoch());
        assert_eq!(epoch, store.epoch(), "synced replica serves the frontier");
    }

    #[test]
    fn sessions_shard_round_robin_and_dispatch() {
        let server = server(2);
        server.install_program(FIG6_PROGRAM, "fig6").unwrap();

        let a = server.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
        let b = server.open_session(SessionContext::new("guest", "visitor", "browse"));
        assert_ne!(a.shard, b.shard, "round-robin placement");

        let event = DbEvent::GetClass {
            schema: "phone_net".into(),
            class: "Pole".into(),
        };
        // Juliano's Fig. 6 rules customize Pole; the guest gets generic.
        let out = server.dispatch(a, event.clone()).unwrap();
        assert!(!out.customizations.is_empty());
        let out = server.dispatch(b, event).unwrap();
        assert!(out.customizations.is_empty());
    }

    #[test]
    fn rule_mutations_propagate_to_every_shard() {
        let server = server(2);
        let mut writer = server.rule_base().session();
        let a = server.open_session(SessionContext::new("u1", "c", "app"));
        let b = server.open_session(SessionContext::new("u2", "c", "app"));
        let event = DbEvent::GetSchema {
            schema: "phone_net".into(),
        };

        assert!(server.dispatch(a, event.clone()).unwrap().fired.is_empty());
        writer
            .add_rule(active::Rule::customization(
                "everywhere",
                active::EventPattern::db(geodb::query::DbEventKind::GetSchema),
                active::ContextPattern::any(),
                Customization::SchemaWindow {
                    schema: "phone_net".into(),
                    mode: custlang::SchemaMode::Default,
                    classes: vec![],
                },
            ))
            .unwrap();
        // Both shards see the new snapshot at their next dispatch.
        assert_eq!(
            server.dispatch(a, event.clone()).unwrap().fired_names(),
            vec!["everywhere"]
        );
        assert_eq!(
            server.dispatch(b, event).unwrap().fired_names(),
            vec!["everywhere"]
        );
    }

    #[test]
    fn parallel_clients_on_distinct_sessions() {
        let server = Arc::new(server(4));
        server.install_program(FIG6_PROGRAM, "fig6").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let session = server.open_session(SessionContext::new(
                        format!("user{t}"),
                        "planner",
                        "pole_manager",
                    ));
                    let events: Vec<DbEvent> = (0..50)
                        .map(|_| DbEvent::GetClass {
                            schema: "phone_net".into(),
                            class: "Pole".into(),
                        })
                        .collect();
                    let outcomes = server.dispatch_batch(session, events).unwrap();
                    assert_eq!(outcomes.len(), 50);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.rule_base().total_dispatches(), 200);
    }

    #[test]
    fn batch_grouping_preserves_reply_order() {
        let server = server(1);
        let mut writer = server.rule_base().session();
        // One rule per kind, named after it, so each outcome identifies
        // which event produced it.
        for (name, kind) in [
            ("on_schema", geodb::query::DbEventKind::GetSchema),
            ("on_class", geodb::query::DbEventKind::GetClass),
            ("on_value", geodb::query::DbEventKind::GetValue),
        ] {
            writer
                .add_rule(active::Rule::customization(
                    name,
                    active::EventPattern::db(kind),
                    active::ContextPattern::any(),
                    Customization::SchemaWindow {
                        schema: "phone_net".into(),
                        mode: custlang::SchemaMode::Default,
                        classes: vec![],
                    },
                ))
                .unwrap();
        }
        let s = server.open_session(SessionContext::new("u", "c", "app"));
        let oid = server.with_dispatcher(s, |d| {
            d.snapshot().get_class("phone_net", "Pole", false).unwrap()[0].oid
        });
        // Kinds deliberately interleaved: grouped execution reorders
        // them internally, replies must come back in arrival order.
        let events = vec![
            DbEvent::GetClass {
                schema: "phone_net".into(),
                class: "Pole".into(),
            },
            DbEvent::GetSchema {
                schema: "phone_net".into(),
            },
            DbEvent::GetValue {
                schema: "phone_net".into(),
                class: "Pole".into(),
                oid,
            },
            DbEvent::GetClass {
                schema: "phone_net".into(),
                class: "Conduit".into(),
            },
            DbEvent::GetSchema {
                schema: "phone_net".into(),
            },
        ];
        let expected = ["on_class", "on_schema", "on_value", "on_class", "on_schema"];
        let outcomes = server.dispatch_batch(s, events).unwrap();
        assert_eq!(outcomes.len(), expected.len());
        for (out, want) in outcomes.iter().zip(expected) {
            assert_eq!(out.fired_names(), vec![want]);
        }
    }

    #[test]
    fn shards_serve_from_the_compiled_tier() {
        let server = server(1);
        server.install_program(FIG6_PROGRAM, "fig6").unwrap();
        // install_program precompiled the current generation.
        let stats = server.rule_base().compiled_stats().expect("precompiled");
        assert!(stats.rules > 0);
        assert_eq!(stats.generation, server.rule_base().epoch());
        let s = server.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
        let out = server
            .dispatch(
                s,
                DbEvent::GetClass {
                    schema: "phone_net".into(),
                    class: "Pole".into(),
                },
            )
            .unwrap();
        assert!(!out.customizations.is_empty());
    }

    #[test]
    fn cross_shard_read_your_writes() {
        let server = server(2);
        let a = server.open_session(SessionContext::new("writer", "planner", "pole_manager"));
        let b = server.open_session(SessionContext::new("reader", "visitor", "browse"));
        assert_ne!(a.shard, b.shard, "write and read land on distinct shards");

        // Pick any pole through shard B's pinned snapshot.
        let oid = server.with_dispatcher(b, |d| {
            d.snapshot().get_class("phone_net", "Pole", false).unwrap()[0].oid
        });
        let epoch_before = server.db_epoch();

        // Commit an update through shard A's full UI path (exploratory
        // sessions cannot issue updates).
        server.with_dispatcher(a, move |d| {
            d.set_mode(a.sid, gisui::InteractionMode::Analysis).unwrap();
            d.apply_update(
                a.sid,
                oid,
                vec![("pole_type".into(), geodb::value::Value::Int(99))],
            )
            .unwrap();
        });
        assert!(
            server.db_epoch() > epoch_before,
            "commit published an epoch"
        );

        // Shard B (and a plain store handle) observe the write at once.
        let seen = server.with_dispatcher(b, move |d| {
            d.snapshot().peek(oid).unwrap().get("pole_type").clone()
        });
        assert_eq!(seen, geodb::value::Value::Int(99));
        assert_eq!(
            *server
                .db_store()
                .snapshot()
                .peek(oid)
                .unwrap()
                .get("pole_type"),
            geodb::value::Value::Int(99)
        );
    }

    #[test]
    fn full_ui_requests_run_on_the_owning_shard() {
        let server = server(2);
        server.install_program(FIG6_PROGRAM, "fig6").unwrap();
        let s = server.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
        let rendered = server.with_dispatcher(s, move |d| {
            let windows = d.open_schema(s.sid, "phone_net").unwrap();
            d.render(*windows.last().unwrap()).unwrap()
        });
        assert!(rendered.contains("Class: Pole"));
    }
}
