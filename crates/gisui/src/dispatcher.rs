//! The dispatcher: generic interface control.
//!
//! "Each user action is captured by the interface where it is processed
//! by a dispatcher, which is responsible for creating and maintaining the
//! hierarchy of (Schema, Class set, Instance) windows … The dispatcher
//! recognizes different types of database interaction requests (schema
//! and extension manipulations), and generates the primitive events
//! captured by the active database mechanism."
//!
//! The full Fig. 1 loop lives here: a user gesture (`IEᵢ`) fires a
//! callback, the callback's signal becomes a database request whose
//! events (`DBEᵢ`) the active engine intercepts, the selected
//! customization (if any) goes to the generic interface builder, and the
//! built window returns to the screen.

use std::collections::HashMap;
use std::sync::Arc;

use active::{ActiveError, Engine, Event, SessionContext};
use builder::{BuildError, BuiltWindow, InterfaceBuilder, WindowKind};
use custlang::{AnalysisEnv, Customization, Diagnostic, ParseError};
use geodb::db::Database;
use geodb::error::GeoDbError;
use geodb::instance::{Instance, Oid};
use geodb::query::{DbEvent, DbEventKind, Predicate};
use geodb::repl::ReadRouter;
use geodb::store::{DbSnapshot, DbStore};
use geodb::value::Value;
use geodb::Epoch;
use uilib::{CallbackTable, Signal, UiEvent};

use crate::explain::{ExplanationLog, TraceRecord};
use crate::modes::InteractionMode;
use crate::protocol::{Request, Response, WindowDescriptor};
use crate::session::{Session, SessionId};
use crate::windows::{ClassSource, ManagedWindow, WindowId, WindowRegistry};

/// Report from loading the stored customization programs at boot:
/// `(programs installed, rules installed, skipped)` where each skipped
/// entry is `(program name, reason)`.
pub type StoredProgramReport = (usize, usize, Vec<(String, String)>);

/// Errors surfaced by the UI layer.
#[derive(Debug)]
pub enum UiError {
    Db(GeoDbError),
    Build(BuildError),
    Active(ActiveError),
    Parse(ParseError),
    /// The customization program failed semantic analysis.
    Analysis(Vec<Diagnostic>),
    UnknownSession(SessionId),
    UnknownWindow(WindowId),
    /// The session's interaction mode forbids the operation.
    ModeViolation(String),
}

impl std::fmt::Display for UiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UiError::Db(e) => write!(f, "database: {e}"),
            UiError::Build(e) => write!(f, "builder: {e}"),
            UiError::Active(e) => write!(f, "active mechanism: {e}"),
            UiError::Parse(e) => write!(f, "customization program: {e}"),
            UiError::Analysis(diags) => {
                write!(f, "customization program rejected:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            UiError::UnknownSession(s) => write!(f, "unknown session {s}"),
            UiError::UnknownWindow(w) => write!(f, "unknown window {w}"),
            UiError::ModeViolation(m) => write!(f, "mode violation: {m}"),
        }
    }
}

impl std::error::Error for UiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UiError::Db(e) => Some(e),
            UiError::Build(e) => Some(e),
            UiError::Active(e) => Some(e),
            UiError::Parse(e) => Some(e),
            UiError::Analysis(_)
            | UiError::UnknownSession(_)
            | UiError::UnknownWindow(_)
            | UiError::ModeViolation(_) => None,
        }
    }
}

/// Render a caught panic payload for error reporting.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

impl From<GeoDbError> for UiError {
    fn from(e: GeoDbError) -> Self {
        UiError::Db(e)
    }
}
impl From<BuildError> for UiError {
    fn from(e: BuildError) -> Self {
        UiError::Build(e)
    }
}
impl From<ActiveError> for UiError {
    fn from(e: ActiveError) -> Self {
        UiError::Active(e)
    }
}
impl From<ParseError> for UiError {
    fn from(e: ParseError) -> Self {
        UiError::Parse(e)
    }
}

/// Result alias for the UI layer.
pub type Result<T> = std::result::Result<T, UiError>;

/// The central controller tying database, active engine, builder,
/// callbacks and window registry together.
///
/// Since the shared-storage refactor the dispatcher owns no database:
/// it routes reads through a [`ReadRouter`] over a shared [`DbStore`].
/// Reads execute against the pinned immutable snapshot (one `Acquire`
/// epoch load per interaction, no locks) — served from the primary or,
/// under a replicated deployment, from a follower within the router's
/// staleness bound (see `docs/replication.md`). Writes always go through
/// the primary store's serialized writer and publish a new epoch that
/// every other dispatcher over the same store observes on its next pin.
pub struct Dispatcher {
    /// The primary store: the write path, and the handle [`Dispatcher::store`]
    /// clones out (reads may be served elsewhere).
    write_store: DbStore,
    router: ReadRouter,
    /// Epoch this dispatcher last served; when the pin observes a newer
    /// one, per-session caches keyed on database state are flushed.
    last_db_epoch: Epoch,
    engine: Engine<Customization>,
    builder: InterfaceBuilder,
    callbacks: CallbackTable,
    registry: WindowRegistry,
    sessions: HashMap<SessionId, Session>,
    next_session: u32,
    /// Structured rule traces of recent interactions (explanation mode).
    explain: ExplanationLog,
}

impl Dispatcher {
    /// Create a dispatcher over a database, with the generic callbacks
    /// pre-registered. The database moves into a private [`DbStore`];
    /// use [`Dispatcher::with_store`] to share one store across
    /// dispatchers.
    pub fn new(db: Database, builder: InterfaceBuilder) -> Dispatcher {
        Dispatcher::with_engine(db, builder, Engine::new())
    }

    /// Create a dispatcher around an existing engine handle (see
    /// `docs/scaling.md`), wrapping the database into a private store.
    pub fn with_engine(
        db: Database,
        builder: InterfaceBuilder,
        engine: Engine<Customization>,
    ) -> Dispatcher {
        Dispatcher::with_store(DbStore::new(db), builder, engine)
    }

    /// Create a dispatcher serving a *shared* versioned store — the hook
    /// the concurrent serving layer uses to give every shard its own
    /// session and windows over one database and one rule base
    /// (see `docs/storage.md`).
    pub fn with_store(
        store: DbStore,
        builder: InterfaceBuilder,
        engine: Engine<Customization>,
    ) -> Dispatcher {
        let router = ReadRouter::primary_only(store.reader());
        Dispatcher::with_router(store, router, builder, engine)
    }

    /// Create a dispatcher whose *reads* follow `router` — e.g. served
    /// from a replica within a staleness bound — while writes go through
    /// `store` (the primary). `with_store` is the primary-only special
    /// case.
    pub fn with_router(
        store: DbStore,
        router: ReadRouter,
        builder: InterfaceBuilder,
        engine: Engine<Customization>,
    ) -> Dispatcher {
        let mut callbacks = CallbackTable::new();
        // The generic (default) behaviors of the interface: every signal
        // is a request the dispatcher knows how to serve.
        callbacks.register(
            "open_class",
            Arc::new(|_, ev: &UiEvent| {
                let class = ev.detail.clone().unwrap_or_default();
                vec![Signal::new("open_class").arg("class", class.trim())]
            }),
        );
        callbacks.register(
            "open_schema",
            Arc::new(|_, _| vec![Signal::new("open_schema")]),
        );
        callbacks.register(
            "pick_instance",
            Arc::new(|_, ev: &UiEvent| {
                vec![Signal::new("pick_instance")
                    .arg("detail", ev.detail.clone().unwrap_or_default())]
            }),
        );
        callbacks.register(
            "close_window",
            Arc::new(|_, _| vec![Signal::new("close_window")]),
        );
        for noop in ["zoom", "select_mode", "control_changed"] {
            let name = noop.to_string();
            callbacks.register(
                noop,
                Arc::new(move |_, _| vec![Signal::new("status").arg("action", name.clone())]),
            );
        }
        let mut router = router;
        let (snap, _, _) = router.pin();
        let last_db_epoch = snap.epoch();
        let mut explain = ExplanationLog::default();
        explain.note_db_epoch(last_db_epoch);
        Dispatcher {
            write_store: store,
            router,
            last_db_epoch,
            engine,
            builder,
            callbacks,
            registry: WindowRegistry::new(),
            sessions: HashMap::new(),
            next_session: 1,
            explain,
        }
    }

    // -- accessors ----------------------------------------------------------

    /// A handle to the shared *primary* store this dispatcher writes
    /// through (cheap to clone; writes through it are visible to every
    /// dispatcher over the same store). Reads may be routed elsewhere —
    /// see [`Dispatcher::route_reads`].
    pub fn store(&self) -> DbStore {
        self.write_store.clone()
    }

    /// The database epoch this dispatcher last served.
    pub fn db_epoch(&self) -> Epoch {
        self.last_db_epoch
    }

    /// Swap the read-routing policy at run time (e.g. point reads at a
    /// freshly attached replica, or back at the primary before a
    /// promotion). Takes effect on the next interaction's pin.
    pub fn route_reads(&mut self, router: ReadRouter) {
        self.router = router;
    }

    /// Does this dispatcher currently route reads to a replica?
    pub fn reads_replicated(&self) -> bool {
        self.router.has_replica()
    }

    /// Revalidate the routed read pin — exactly one `Acquire` epoch load
    /// in steady state. When the epoch moved (some session committed a
    /// write), flush the winner cache (its entries were computed against
    /// the old data version) and stamp the new epoch — and the replica
    /// staleness the router measured — into the explanation log. Returns
    /// the pinned snapshot every read of the interaction runs against.
    fn revalidate(&mut self) -> Arc<DbSnapshot> {
        let (snap, _source, lag) = self.router.pin();
        let snap = Arc::clone(snap);
        let epoch = snap.epoch();
        if epoch != self.last_db_epoch {
            self.last_db_epoch = epoch;
            self.engine.invalidate_winner_cache();
            self.explain.note_db_epoch(epoch);
        }
        if lag != self.explain.staleness() {
            self.explain.note_staleness(lag);
        }
        snap
    }

    /// Pin the current database snapshot. All reads of one interaction
    /// run against the returned snapshot, so they see a single
    /// consistent epoch even while writers publish newer ones.
    pub fn snapshot(&mut self) -> Arc<DbSnapshot> {
        self.revalidate()
    }

    pub fn engine(&mut self) -> &mut Engine<Customization> {
        &mut self.engine
    }

    pub fn callbacks(&mut self) -> &mut CallbackTable {
        &mut self.callbacks
    }

    /// Mutable access to the interface-objects library, for run-time
    /// class additions ("the user can add or specialize controls in this
    /// library").
    pub fn builder_library_mut(&mut self) -> &mut uilib::Library {
        &mut self.builder.library
    }

    pub fn window(&self, id: WindowId) -> Option<&ManagedWindow> {
        self.registry.get(id)
    }

    pub fn open_windows(&self) -> Vec<&ManagedWindow> {
        self.registry.iter()
    }

    /// Rendered rule traces of this dispatcher's interactions so far
    /// (the most recent ones — the log is a bounded ring), rendered now.
    pub fn explanation(&self) -> Vec<String> {
        self.explain.rendered()
    }

    /// The structured explanation log: recent traces with depths,
    /// matched/fired/shadowed rule names and sequence numbers.
    pub fn explanation_log(&self) -> &ExplanationLog {
        &self.explain
    }

    /// The most recent `n` structured traces, oldest of them first.
    pub fn recent_traces(&self, n: usize) -> Vec<&TraceRecord> {
        self.explain.recent(n)
    }

    /// Change how many traces the explanation log retains.
    pub fn set_explanation_capacity(&mut self, capacity: usize) {
        self.explain.set_capacity(capacity);
    }

    /// JSON export of the retained traces (the `:explain` pipeline).
    pub fn explanation_json(&self) -> String {
        self.explain.to_json()
    }

    // -- sessions -----------------------------------------------------------

    /// Open a session for a user context.
    pub fn open_session(&mut self, context: SessionContext) -> SessionId {
        obs::counter_add("dispatcher.sessions", 1);
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(id, Session::new(id, context));
        id
    }

    pub fn set_mode(&mut self, sid: SessionId, mode: InteractionMode) -> Result<()> {
        self.sessions
            .get_mut(&sid)
            .ok_or(UiError::UnknownSession(sid))?
            .mode = mode;
        Ok(())
    }

    pub fn session(&self, sid: SessionId) -> Option<&Session> {
        self.sessions.get(&sid)
    }

    fn context_of(&self, sid: SessionId) -> Result<SessionContext> {
        Ok(self
            .sessions
            .get(&sid)
            .ok_or(UiError::UnknownSession(sid))?
            .context
            .clone())
    }

    // -- customization program management ------------------------------------

    /// Parse, analyze, compile and install a customization program.
    /// Returns the number of rules installed. Reinstalling under the same
    /// `prefix` replaces the previous program.
    pub fn install_program(&mut self, source: &str, prefix: &str) -> Result<usize> {
        let program = custlang::parse(source)?;
        let snap = self.snapshot();
        let env = AnalysisEnv::new(snap.catalog(), &self.builder.library);
        let diags = custlang::analyze(&program, &env);
        if !custlang::is_clean(&diags) {
            return Err(UiError::Analysis(diags));
        }
        let rules = custlang::compile(&program, prefix);
        let n = rules.len();
        self.engine.remove_rules_with_prefix(&format!("{prefix}/"));
        self.engine.add_rules(rules)?;
        Ok(n)
    }

    /// Validate, persist *into the geographic database* and install a
    /// customization program — the paper's durable form: "customization
    /// rules stored in the database are derived from assertives written
    /// in this language".
    pub fn store_program(&mut self, source: &str, name: &str) -> Result<usize> {
        let n = self.install_program(source, name)?;
        self.store()
            .write(|db| custlang::save_program(db, name, source))?;
        Ok(n)
    }

    /// Compile and install every program stored in the database (the
    /// boot path after reopening a snapshot). Returns `(programs, rules)`
    /// counts. Programs that no longer analyze cleanly are skipped, each
    /// reported as `(name, error)` — the skip is also counted
    /// (`ui.programs_skipped`) and recorded in the explanation log, so a
    /// silently-missing customization can be diagnosed after the fact.
    pub fn load_stored_programs(&mut self) -> Result<StoredProgramReport> {
        let programs = custlang::load_programs_snap(&self.snapshot())?;
        let mut installed = 0;
        let mut rules = 0;
        let mut skipped = Vec::new();
        for (name, source) in programs {
            match self.install_program(&source, &name) {
                Ok(n) => {
                    installed += 1;
                    rules += n;
                }
                Err(e) => {
                    let cause = e.to_string();
                    obs::counter_add("ui.programs_skipped", 1);
                    self.explain
                        .push_degraded("stored_program", &format!("{name}: {cause}"));
                    skipped.push((name, cause));
                }
            }
        }
        Ok((installed, rules, skipped))
    }

    // -- the Fig. 1 event loop ------------------------------------------------

    /// Build a window, degrading gracefully: when the *customized* build
    /// fails (or panics — the builder runs behind a panic boundary), fall
    /// back to the generic default presentation, which is always
    /// available (paper Section 3.2: customization is transparent to the
    /// generic interface). The incident is counted (`ui.degraded_builds`)
    /// and recorded in the explanation log. Default builds take the
    /// direct path: with no customization there is nothing to degrade to,
    /// so their errors propagate.
    fn build_degradable<F>(
        &mut self,
        stage: &str,
        cust: Option<&Customization>,
        mut build: F,
    ) -> Result<builder::BuiltWindow>
    where
        F: FnMut(
            &mut Dispatcher,
            Option<&Customization>,
        ) -> std::result::Result<builder::BuiltWindow, BuildError>,
    {
        if cust.is_none() {
            return Ok(build(self, None)?);
        }
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(self, cust)));
        let cause = match attempt {
            Ok(Ok(built)) => return Ok(built),
            Ok(Err(e)) => e.to_string(),
            Err(payload) => panic_message(&*payload),
        };
        obs::counter_add("ui.degraded_builds", 1);
        self.explain.push_degraded(stage, &cause);
        Ok(build(self, None)?)
    }

    /// Feed database events through the active engine for a session;
    /// returns the first customization selected, if any.
    ///
    /// Reads no longer drain a queue out of the database: snapshot
    /// queries are side-effect free, so the dispatcher synthesizes the
    /// paper's primitive events (`Get_Schema` / `Get_Class` /
    /// `Get_Value`) itself, and writes hand back the events their
    /// [`geodb::store::Committed`] batch produced.
    fn dispatch_events(
        &mut self,
        ctx: &SessionContext,
        events: Vec<DbEvent>,
    ) -> Result<Option<Customization>> {
        let mut selected = None;
        let mut count = 0u64;
        for db_event in events {
            count += 1;
            let outcome = self.engine.dispatch(Event::Db(db_event), ctx)?;
            if let Some(trace) = outcome.trace.shared() {
                self.explain.push(Arc::clone(trace));
            }
            if selected.is_none() {
                selected = outcome.customizations.into_iter().next();
            }
        }
        obs::counter_add("dispatcher.events", count);
        Ok(selected)
    }

    /// Feed one database event through the active engine for a session
    /// — the raw request primitive of the concurrent serving layer
    /// (`Get_Class` / `Get_Value` lookups that need rule selection but
    /// no window construction). Traces land in the explanation log like
    /// every other interaction.
    pub fn dispatch_db(
        &mut self,
        sid: SessionId,
        event: geodb::query::DbEvent,
    ) -> Result<active::Outcome<Customization>> {
        let _span = obs::span("dispatcher.dispatch_db");
        let event_kind = event.kind();
        let ctx = self.context_of(sid)?;
        // One atomic epoch load: the hot path notices concurrent commits
        // (and flushes the winner cache) without ever taking a lock.
        self.revalidate();
        let outcome = self.engine.dispatch(Event::Db(event), &ctx)?;
        if let Some(trace) = outcome.trace.shared() {
            self.explain.push(Arc::clone(trace));
        }
        obs::counter_add("dispatcher.events", 1);
        if obs::enabled() {
            obs::counter_add_labeled(
                "dispatcher.events_by_kind",
                &[("event_kind", &event_kind.to_string())],
                1,
            );
        }
        Ok(outcome)
    }

    /// Feed a batch of database events through the active engine for
    /// one session — the batched form of [`Dispatcher::dispatch_db`]
    /// that the session server's shards serve batches through. The session context
    /// is resolved and the reader pin revalidated once for the whole
    /// batch, and the engine's batch lane amortizes table-walk state
    /// across runs of identical events (the server pre-sorts by event
    /// discriminant, so runs are long). Returns one result per event,
    /// in input order; the outer `Err` is session-level (unknown
    /// session).
    pub fn dispatch_db_batch(
        &mut self,
        sid: SessionId,
        events: Vec<geodb::query::DbEvent>,
    ) -> Result<Vec<Result<active::Outcome<Customization>>>> {
        let _span = obs::span("dispatcher.dispatch_db_batch");
        let ctx = self.context_of(sid)?;
        // One atomic epoch load for the whole batch: every event runs
        // against the same pinned data version, like one interaction.
        self.revalidate();
        if obs::enabled() {
            // One registry update per event kind, not per event.
            let mut by_kind: Vec<(DbEventKind, u64)> = Vec::new();
            for kind in events.iter().map(DbEvent::kind) {
                match by_kind.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => by_kind.push((kind, 1)),
                }
            }
            for (kind, n) in by_kind {
                obs::counter_add_labeled(
                    "dispatcher.events_by_kind",
                    &[("event_kind", &kind.to_string())],
                    n,
                );
            }
        }
        let outcomes = self
            .engine
            .dispatch_batch(events.into_iter().map(Event::Db), &ctx);
        obs::counter_add("dispatcher.events", outcomes.len() as u64);
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            results.push(match outcome {
                Ok(o) => {
                    if let Some(trace) = o.trace.shared() {
                        self.explain.push(Arc::clone(trace));
                    }
                    Ok(o)
                }
                Err(e) => Err(e.into()),
            });
        }
        Ok(results)
    }

    /// Open the Schema window of a schema (the user "activates the
    /// generic interface, giving a db schema name as a parameter").
    /// Returns every window opened — more than one when a `Null` schema
    /// customization auto-opens class windows.
    pub fn open_schema(&mut self, sid: SessionId, schema: &str) -> Result<Vec<WindowId>> {
        let ctx = self.context_of(sid)?;
        let snap = self.snapshot();
        let schema_def = snap.get_schema(schema)?;
        let cust = self.dispatch_events(
            &ctx,
            vec![DbEvent::GetSchema {
                schema: schema.to_string(),
            }],
        )?;
        let built = self.build_degradable("schema_window", cust.as_ref(), |d, c| {
            d.builder.schema_window(&schema_def, snap.catalog(), c)
        })?;
        let auto_open = built.auto_open.clone();
        let id = self
            .registry
            .insert(built, None, sid.0, schema.to_string(), None, None, None);
        self.sessions
            .get_mut(&sid)
            .expect("checked by context_of")
            .track(id);
        let mut opened = vec![id];
        for class in auto_open {
            opened.push(self.open_class(sid, schema, &class, Some(id))?);
        }
        Ok(opened)
    }

    /// Open a Class-set window.
    pub fn open_class(
        &mut self,
        sid: SessionId,
        schema: &str,
        class: &str,
        parent: Option<WindowId>,
    ) -> Result<WindowId> {
        let ctx = self.context_of(sid)?;
        let rows = self.snapshot().get_class(schema, class, false)?;
        self.open_class_window(sid, &ctx, schema, class, &rows, ClassSource::Extent, parent)
    }

    /// Build a Class-set window over `rows` under a session context. A
    /// selection or a sandbox is a `Get_Class` at the event level, so
    /// rules customize its window like the extension's; the title says
    /// which rows it lists.
    fn build_class_window(
        &mut self,
        ctx: &SessionContext,
        schema: &str,
        class: &str,
        rows: &[Arc<Instance>],
        source: &ClassSource,
    ) -> Result<BuiltWindow> {
        let cust = self.dispatch_events(
            ctx,
            vec![DbEvent::GetClass {
                schema: schema.to_string(),
                class: class.to_string(),
            }],
        )?;
        let mut built = self.build_degradable("class_window", cust.as_ref(), |d, c| {
            d.builder.class_window(schema, class, rows, c)
        })?;
        match source {
            ClassSource::Extent => {}
            ClassSource::Selection(_) => {
                built.title = format!("{} [filtered: {} hits]", built.title, rows.len());
            }
            ClassSource::Sandbox => built.title = format!("{} [simulation]", built.title),
        }
        Ok(built)
    }

    /// Build a Class-set window and register it for a session, recording
    /// its row source for view refreshes.
    #[allow(clippy::too_many_arguments)]
    fn open_class_window(
        &mut self,
        sid: SessionId,
        ctx: &SessionContext,
        schema: &str,
        class: &str,
        rows: &[Arc<Instance>],
        source: ClassSource,
        parent: Option<WindowId>,
    ) -> Result<WindowId> {
        let built = self.build_class_window(ctx, schema, class, rows, &source)?;
        let id = self.registry.insert(
            built,
            parent,
            sid.0,
            schema.to_string(),
            Some(class.to_string()),
            None,
            Some(source),
        );
        self.sessions
            .get_mut(&sid)
            .expect("checked by context_of")
            .track(id);
        Ok(id)
    }

    /// Open an Instance window for one object.
    pub fn open_instance(
        &mut self,
        sid: SessionId,
        oid: Oid,
        parent: Option<WindowId>,
    ) -> Result<WindowId> {
        let ctx = self.context_of(sid)?;
        let snap = self.snapshot();
        let inst = snap.get_value(oid)?;
        let schema = snap
            .locate(oid)
            .map(|(s, _)| s.to_string())
            .unwrap_or_default();
        let cust = self.dispatch_events(
            &ctx,
            vec![DbEvent::GetValue {
                schema: schema.clone(),
                class: inst.class.clone(),
                oid,
            }],
        )?;
        let built = self.build_degradable("instance_window", cust.as_ref(), |d, c| {
            d.builder.instance_window(&snap, &inst, c)
        })?;
        let id = self.registry.insert(
            built,
            parent,
            sid.0,
            schema,
            Some(inst.class.clone()),
            Some(oid),
            None,
        );
        self.sessions
            .get_mut(&sid)
            .expect("checked by context_of")
            .track(id);
        Ok(id)
    }

    /// Analysis mode: open a Class-set window restricted to a predicate.
    pub fn analysis_query(
        &mut self,
        sid: SessionId,
        schema: &str,
        class: &str,
        predicate: &Predicate,
    ) -> Result<WindowId> {
        let session = self
            .sessions
            .get(&sid)
            .ok_or(UiError::UnknownSession(sid))?;
        if !session.mode.allows_predicates() {
            return Err(UiError::ModeViolation(format!(
                "{} mode cannot run predicate queries",
                session.mode
            )));
        }
        let ctx = self.context_of(sid)?;
        let rows = self.snapshot().select(schema, class, predicate)?;
        let source = ClassSource::Selection(predicate.clone());
        self.open_class_window(sid, &ctx, schema, class, &rows, source, None)
    }

    /// Simulation mode: apply hypothetical updates to a sandbox copy of
    /// the database and return a Class-set window of the outcome. The
    /// real database is untouched.
    pub fn simulate(
        &mut self,
        sid: SessionId,
        schema: &str,
        class: &str,
        updates: Vec<(Oid, Vec<(String, Value)>)>,
    ) -> Result<WindowId> {
        let session = self
            .sessions
            .get(&sid)
            .ok_or(UiError::UnknownSession(sid))?;
        if !session.mode.allows_updates() {
            return Err(UiError::ModeViolation(format!(
                "{} mode cannot issue updates",
                session.mode
            )));
        }
        let ctx = self.context_of(sid)?;
        // Sandbox: a private database sharing the pinned epoch's
        // partitions. Its updates copy only the rows they touch and never
        // reach the shared store.
        let mut sandbox = Database::from_snapshot(&self.snapshot());
        for (oid, changes) in updates {
            sandbox.update(oid, changes)?;
        }
        let rows = sandbox.snapshot().get_class(schema, class, false)?;
        self.open_class_window(sid, &ctx, schema, class, &rows, ClassSource::Sandbox, None)
    }

    /// Deliver a user gesture to a widget of a window; returns any windows
    /// opened in response.
    pub fn handle_gesture(
        &mut self,
        sid: SessionId,
        window: WindowId,
        path: &str,
        gesture: &str,
        detail: Option<String>,
    ) -> Result<Vec<WindowId>> {
        let _span = obs::span("dispatcher.gesture");
        obs::counter_add("dispatcher.gestures", 1);
        let managed = self
            .registry
            .get(window)
            .ok_or(UiError::UnknownWindow(window))?;
        let widget = managed
            .built
            .tree
            .find(path)
            .map_err(|_| UiError::UnknownWindow(window))?;
        let mut event = UiEvent::new(widget, path, gesture);
        if let Some(d) = detail {
            event = event.with_detail(d);
        }
        let schema = managed.schema.clone();
        let signals = self.callbacks.fire(&managed.built.tree, &event);

        let mut opened = Vec::new();
        for signal in signals {
            match signal.name.as_str() {
                "open_schema" => {
                    opened.extend(self.open_schema(sid, &schema)?);
                }
                "open_class" => {
                    let class = signal.get("class").unwrap_or_default().to_string();
                    if !class.is_empty() {
                        opened.push(self.open_class(sid, &schema, &class, Some(window))?);
                    }
                }
                "pick_instance" => {
                    if let Some(oid) = parse_oid(signal.get("detail").unwrap_or_default()) {
                        opened.push(self.open_instance(sid, Oid(oid), Some(window))?);
                    }
                }
                "close_window" => {
                    self.close_window(sid, window)?;
                }
                "status" if signal.get("action") == Some("zoom") => {
                    self.zoom_window(window, 0.5)?;
                }
                _ => {} // other status signals
            }
        }
        Ok(opened)
    }

    /// Zoom every map scene of a window by `factor` (< 1 zooms in),
    /// keeping the viewport center.
    pub fn zoom_window(&mut self, window: WindowId, factor: f64) -> Result<()> {
        let managed = self
            .registry
            .get_mut(window)
            .ok_or(UiError::UnknownWindow(window))?;
        for scene in managed.built.scenes.values_mut() {
            let v = scene.effective_viewport();
            let c = v.center();
            let hw = v.width() * factor / 2.0;
            let hh = v.height() * factor / 2.0;
            scene.viewport = Some(geodb::geometry::Rect::new(
                c.x - hw,
                c.y - hh,
                c.x + hw,
                c.y + hh,
            ));
        }
        Ok(())
    }

    /// Apply an update through the interface and refresh every open
    /// window that displays the object or its class.
    ///
    /// This is the *view refresh* facility of Diaz et al. \[3\], which the
    /// paper contrasts with its own focus: here the two compose — the
    /// refreshed window is rebuilt through the active mechanism, so it
    /// keeps the session's customization. Update events themselves still
    /// trigger only integrity/other rules (the paper does not customize
    /// update requests); exploratory sessions cannot call this.
    pub fn apply_update(
        &mut self,
        sid: SessionId,
        oid: Oid,
        changes: Vec<(String, Value)>,
    ) -> Result<Vec<WindowId>> {
        let session = self
            .sessions
            .get(&sid)
            .ok_or(UiError::UnknownSession(sid))?;
        if session.mode == InteractionMode::Exploratory {
            return Err(UiError::ModeViolation(
                "exploratory mode cannot issue updates".into(),
            ));
        }
        let ctx = self.context_of(sid)?;
        let committed = self.store().write(|db| {
            let located = db
                .locate(oid)
                .map(|(s, c)| (s.to_string(), c.to_string()))
                .ok_or(GeoDbError::UnknownOid(oid.0))?;
            db.update(oid, changes)?;
            Ok(located)
        })?;
        let (schema, class) = committed.value;
        // The Update event flows through the rules (integrity group).
        let events = committed.events;
        self.dispatch_events(&ctx, events)?;
        self.refresh_windows(&schema, &class, Some(oid))
    }

    /// Rebuild every open window showing `schema.class` (and, for
    /// Instance windows, the given object). Each window is rebuilt under
    /// *its own session's* context, so per-user customizations survive
    /// the refresh, and a Class-set window re-reads its own source: the
    /// extension, or an Analysis selection's predicate. Simulation
    /// windows show sandbox rows and are left as they are. Returns the
    /// refreshed window ids.
    pub fn refresh_windows(
        &mut self,
        schema: &str,
        class: &str,
        oid: Option<Oid>,
    ) -> Result<Vec<WindowId>> {
        type Target = (WindowId, u32, WindowKind, Option<Oid>, Option<ClassSource>);
        let targets: Vec<Target> = self
            .registry
            .iter()
            .into_iter()
            .filter(|w| {
                w.schema == schema
                    && w.class.as_deref() == Some(class)
                    && match w.built.kind {
                        WindowKind::ClassSet => true,
                        WindowKind::Instance => oid.is_none() || w.oid == oid,
                        WindowKind::Schema => false,
                    }
            })
            .map(|w| (w.id, w.session, w.built.kind, w.oid, w.source.clone()))
            .collect();

        let snap = self.snapshot();
        let mut refreshed = Vec::with_capacity(targets.len());
        for (id, session, kind, win_oid, source) in targets {
            let ctx = self
                .sessions
                .get(&SessionId(session))
                .map(|s| s.context.clone())
                .unwrap_or_default();
            let built = match (kind, &source) {
                (WindowKind::ClassSet, Some(source)) => {
                    let rows = match source {
                        ClassSource::Extent => snap.get_class(schema, class, false)?,
                        ClassSource::Selection(pred) => snap.select(schema, class, pred)?,
                        ClassSource::Sandbox => continue,
                    };
                    self.build_class_window(&ctx, schema, class, &rows, source)?
                }
                (WindowKind::Instance, _) => {
                    let target = win_oid.expect("instance windows record their oid");
                    let inst = snap.get_value(target)?;
                    let cust = self.dispatch_events(
                        &ctx,
                        vec![DbEvent::GetValue {
                            schema: schema.to_string(),
                            class: class.to_string(),
                            oid: target,
                        }],
                    )?;
                    self.build_degradable("instance_window", cust.as_ref(), |d, c| {
                        d.builder.instance_window(&snap, &inst, c)
                    })?
                }
                _ => continue,
            };
            if let Some(managed) = self.registry.get_mut(id) {
                managed.built = built;
                refreshed.push(id);
            }
        }
        Ok(refreshed)
    }

    /// Close a window and its children.
    pub fn close_window(&mut self, sid: SessionId, window: WindowId) -> Result<Vec<WindowId>> {
        let closed = self.registry.close(window);
        if let Some(s) = self.sessions.get_mut(&sid) {
            s.untrack(&closed);
        }
        Ok(closed)
    }

    /// ASCII rendering of a window.
    pub fn render(&self, window: WindowId) -> Result<String> {
        let _span = obs::span("dispatcher.render");
        Ok(self
            .registry
            .get(window)
            .ok_or(UiError::UnknownWindow(window))?
            .built
            .to_ascii())
    }

    // -- protocol endpoint ----------------------------------------------------

    fn descriptor(&self, id: WindowId) -> Option<WindowDescriptor> {
        self.registry.get(id).map(|m| WindowDescriptor {
            id: id.0,
            kind: m.built.kind.to_string(),
            title: m.built.title.clone(),
            visible: m.built.visible,
            ascii: m.built.to_ascii(),
            oid: m.oid,
        })
    }

    /// Serve one weak-integration protocol request for a session.
    ///
    /// This is the outermost containment boundary of the UI: a panic
    /// escaping any lower layer is caught here and reported as a normal
    /// [`Response::Error`], so one faulty interaction can never take the
    /// whole interface down.
    pub fn handle_request(&mut self, sid: SessionId, request: Request) -> Response {
        // A protocol request is a request boundary: when trace sampling
        // is armed and no outer trace exists (the embedded single-user
        // path), start one here.
        let _span = obs::trace_root("dispatcher.request");
        obs::counter_add("dispatcher.requests", 1);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.handle_request_inner(sid, request)
        })) {
            Ok(response) => response,
            Err(payload) => {
                let cause = panic_message(&*payload);
                obs::counter_add("ui.request_panics", 1);
                self.explain.push_degraded("request", &cause);
                Response::Error { message: cause }
            }
        }
    }

    fn handle_request_inner(&mut self, sid: SessionId, request: Request) -> Response {
        let result: Result<Response> = (|| match request {
            Request::OpenSchema { schema } => {
                let ids = self.open_schema(sid, &schema)?;
                Ok(Response::Windows(
                    ids.iter().filter_map(|&i| self.descriptor(i)).collect(),
                ))
            }
            Request::OpenClass { schema, class } => {
                let id = self.open_class(sid, &schema, &class, None)?;
                Ok(Response::Windows(self.descriptor(id).into_iter().collect()))
            }
            Request::OpenInstance { oid } => {
                let id = self.open_instance(sid, Oid(oid), None)?;
                Ok(Response::Windows(self.descriptor(id).into_iter().collect()))
            }
            Request::UiGesture {
                window,
                path,
                gesture,
                detail,
            } => {
                let ids = self.handle_gesture(sid, WindowId(window), &path, &gesture, detail)?;
                Ok(Response::Windows(
                    ids.iter().filter_map(|&i| self.descriptor(i)).collect(),
                ))
            }
            Request::CloseWindow { window } => {
                let closed = self.close_window(sid, WindowId(window))?;
                Ok(Response::Closed(closed.iter().map(|w| w.0).collect()))
            }
            Request::Analyze {
                schema,
                class,
                predicate,
            } => {
                let id = self.analysis_query(sid, &schema, &class, &predicate)?;
                Ok(Response::Windows(self.descriptor(id).into_iter().collect()))
            }
            Request::Explain => Ok(Response::Explanation(self.explain.rendered())),
        })();
        result.unwrap_or_else(|e| Response::Error {
            message: e.to_string(),
        })
    }

    /// The window kind counts currently open — used by the C4 census.
    pub fn census(&self) -> HashMap<WindowKind, usize> {
        let mut out = HashMap::new();
        for w in self.registry.iter() {
            *out.entry(w.built.kind).or_insert(0) += 1;
        }
        out
    }
}

/// Parse an OID out of gesture detail text such as `"7"`, `"#7"` or
/// `"#7 name=…"`.
fn parse_oid(detail: &str) -> Option<u64> {
    let trimmed = detail.trim().trim_start_matches('#');
    let digits: String = trimmed.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Convenience: a dispatcher over a generated phone-net database with the
/// paper's widget library, ready for the Fig. 4/7 walkthrough.
pub fn paper_dispatcher(cfg: &geodb::gen::TelecomConfig) -> Result<Dispatcher> {
    let (db, _) = geodb::gen::phone_net_db(cfg)?;
    Ok(Dispatcher::new(db, InterfaceBuilder::with_paper_library()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use custlang::FIG6_PROGRAM;
    use geodb::gen::TelecomConfig;

    fn juliano() -> SessionContext {
        SessionContext::new("juliano", "planner", "pole_manager")
    }

    fn dispatcher() -> Dispatcher {
        paper_dispatcher(&TelecomConfig::small()).unwrap()
    }

    #[test]
    fn default_browse_session_walks_three_windows() {
        let mut d = dispatcher();
        let sid = d.open_session(SessionContext::new("guest", "visitor", "browse"));

        // 1. Schema window.
        let opened = d.open_schema(sid, "phone_net").unwrap();
        assert_eq!(opened.len(), 1);
        let schema_win = opened[0];
        assert!(d.render(schema_win).unwrap().contains("Schema: phone_net"));

        // 2. Select "Pole" in the class list.
        let opened = d
            .handle_gesture(
                sid,
                schema_win,
                "schema_window/body/classes",
                "select",
                Some("Pole".into()),
            )
            .unwrap();
        assert_eq!(opened.len(), 1);
        let class_win = opened[0];
        let art = d.render(class_win).unwrap();
        assert!(art.contains("Class: Pole"));
        assert!(art.contains("[ Zoom ]"));

        // 3. Pick an instance in the display area.
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        let oid = poles[0].oid;
        let opened = d
            .handle_gesture(
                sid,
                class_win,
                "class_window/body/presentation/map",
                "click",
                Some(format!("#{}", oid.0)),
            )
            .unwrap();
        assert_eq!(opened.len(), 1);
        let inst_win = opened[0];
        let art = d.render(inst_win).unwrap();
        assert!(art.contains("pole_type"));

        // Window hierarchy: schema -> class -> instance.
        assert_eq!(d.window(class_win).unwrap().parent, Some(schema_win));
        assert_eq!(d.window(inst_win).unwrap().parent, Some(class_win));
        assert_eq!(d.session(sid).unwrap().windows.len(), 3);
    }

    #[test]
    fn fig6_program_customizes_juliano_only() {
        let mut d = dispatcher();
        d.install_program(FIG6_PROGRAM, "fig6").unwrap();

        // Juliano: Null schema window + auto-opened customized Pole window.
        let sid = d.open_session(juliano());
        let opened = d.open_schema(sid, "phone_net").unwrap();
        assert_eq!(opened.len(), 2);
        let schema_win = d.window(opened[0]).unwrap();
        assert!(!schema_win.built.visible);
        let class_art = d.render(opened[1]).unwrap();
        assert!(class_art.contains("O="), "poleWidget slider:\n{class_art}");
        assert!(!class_art.contains("[ Zoom ]"));

        // Another user still gets the default interface.
        let other = d.open_session(SessionContext::new("claudia", "admin", "inventory"));
        let opened = d.open_schema(other, "phone_net").unwrap();
        assert_eq!(opened.len(), 1);
        assert!(d.window(opened[0]).unwrap().built.visible);
    }

    #[test]
    fn failed_customized_build_degrades_to_default_window() {
        let mut d = dispatcher();
        // A payload referencing a widget the library lacks, installed
        // straight into the engine (bypassing custlang analysis, the way
        // a stale stored rule could after a library change).
        d.engine()
            .add_rule(active::Rule::customization(
                "bad_widget",
                active::EventPattern::db(geodb::query::DbEventKind::GetClass),
                active::ContextPattern::any(),
                Customization::ClassWindow {
                    schema: "phone_net".into(),
                    class: "Pole".into(),
                    control: Some("no_such_widget".into()),
                    presentation: None,
                },
            ))
            .unwrap();
        let sid = d.open_session(juliano());
        let win = d.open_class(sid, "phone_net", "Pole", None).unwrap();
        // The window still opened — with the generic default controls.
        let art = d.render(win).unwrap();
        assert!(art.contains("[ Zoom ]"), "default control area:\n{art}");
        let degradations: Vec<_> = d.explanation_log().degradations().collect();
        assert_eq!(degradations.len(), 1);
        assert!(degradations[0].rendered().contains("no_such_widget"));
    }

    #[test]
    fn ui_error_chain_exposes_sources() {
        use std::error::Error as _;
        let e = UiError::Build(BuildError::Db(GeoDbError::UnknownSchema("ghost".into())));
        let build = e.source().expect("UiError -> BuildError");
        assert!(build.to_string().contains("ghost"));
        let db = build.source().expect("BuildError -> GeoDbError");
        assert!(db.to_string().contains("ghost"));
        assert!(db.source().is_none());
        assert!(UiError::UnknownWindow(WindowId(3)).source().is_none());
    }

    #[test]
    fn install_program_rejects_bad_programs() {
        let mut d = dispatcher();
        assert!(matches!(
            d.install_program("for user u schema nope display as", "p"),
            Err(UiError::Parse(_))
        ));
        assert!(matches!(
            d.install_program(
                "for user u schema ghost display as default class C display",
                "p"
            ),
            Err(UiError::Analysis(_))
        ));
    }

    #[test]
    fn reinstalling_a_program_replaces_it() {
        let mut d = dispatcher();
        let n1 = d.install_program(FIG6_PROGRAM, "fig6").unwrap();
        let n2 = d.install_program(FIG6_PROGRAM, "fig6").unwrap();
        assert_eq!(n1, n2);
        assert_eq!(d.engine().len(), n2);
    }

    #[test]
    fn analysis_mode_gates_predicate_queries() {
        let mut d = dispatcher();
        let sid = d.open_session(juliano());
        let tall = Predicate::cmp(
            "pole_composition.pole_height",
            geodb::query::CmpOp::Gt,
            10.0,
        );
        // Exploratory mode refuses.
        assert!(matches!(
            d.analysis_query(sid, "phone_net", "Pole", &tall),
            Err(UiError::ModeViolation(_))
        ));
        // Analysis mode runs the query.
        d.set_mode(sid, InteractionMode::Analysis).unwrap();
        let win = d.analysis_query(sid, "phone_net", "Pole", &tall).unwrap();
        let title = &d.window(win).unwrap().built.title;
        assert!(title.contains("filtered"), "{title}");
    }

    #[test]
    fn simulation_mode_sandboxes_updates() {
        let mut d = dispatcher();
        let sid = d.open_session(juliano());
        d.set_mode(sid, InteractionMode::Simulation).unwrap();
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        let oid = poles[0].oid;
        let win = d
            .simulate(
                sid,
                "phone_net",
                "Pole",
                vec![(oid, vec![("pole_type".into(), Value::Int(99))])],
            )
            .unwrap();
        assert!(d.window(win).unwrap().built.title.contains("simulation"));
        // The real database is untouched.
        let pole = d.snapshot().peek(oid).unwrap();
        assert_ne!(pole.get("pole_type"), &Value::Int(99));
    }

    #[test]
    fn explanation_traces_accumulate() {
        let mut d = dispatcher();
        d.install_program(FIG6_PROGRAM, "fig6").unwrap();
        let sid = d.open_session(juliano());
        d.open_schema(sid, "phone_net").unwrap();
        let lines = d.explanation().join("\n");
        assert!(lines.contains("Get_Schema(phone_net)"));
        assert!(lines.contains("fig6/0/juliano:*:pole_manager/schema"));
    }

    #[test]
    fn protocol_round_trip_drives_the_dispatcher() {
        let mut d = dispatcher();
        let sid = d.open_session(juliano());
        let resp = d.handle_request(
            sid,
            Request::OpenSchema {
                schema: "phone_net".into(),
            },
        );
        let Response::Windows(wins) = resp else {
            panic!("expected windows, got {resp:?}");
        };
        assert_eq!(wins.len(), 1);
        assert!(wins[0].ascii.contains("Schema: phone_net"));

        let resp = d.handle_request(sid, Request::CloseWindow { window: wins[0].id });
        assert!(matches!(resp, Response::Closed(ids) if ids.len() == 1));

        let resp = d.handle_request(
            sid,
            Request::OpenSchema {
                schema: "no_such".into(),
            },
        );
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn close_cascades_through_hierarchy() {
        let mut d = dispatcher();
        let sid = d.open_session(juliano());
        let schema_win = d.open_schema(sid, "phone_net").unwrap()[0];
        let class_win = d
            .open_class(sid, "phone_net", "Pole", Some(schema_win))
            .unwrap();
        let closed = d.close_window(sid, schema_win).unwrap();
        assert!(closed.contains(&schema_win));
        assert!(closed.contains(&class_win));
        assert!(d.session(sid).unwrap().windows.is_empty());
    }

    #[test]
    fn open_windows_hold_no_instance_handles() {
        let mut d = dispatcher();
        let sid = d.open_session(SessionContext::new("guest", "visitor", "browse"));
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        let counts =
            |rows: &[Arc<Instance>]| rows.iter().map(Arc::strong_count).collect::<Vec<_>>();
        let before = counts(&poles);
        let win = d.open_class(sid, "phone_net", "Pole", None).unwrap();
        d.open_instance(sid, poles[0].oid, Some(win)).unwrap();
        assert_eq!(counts(&poles), before, "a window kept a handle to its rows");
    }

    #[test]
    fn census_counts_window_kinds() {
        let mut d = dispatcher();
        let sid = d.open_session(juliano());
        d.open_schema(sid, "phone_net").unwrap();
        d.open_class(sid, "phone_net", "Pole", None).unwrap();
        d.open_class(sid, "phone_net", "Duct", None).unwrap();
        let census = d.census();
        assert_eq!(census[&WindowKind::Schema], 1);
        assert_eq!(census[&WindowKind::ClassSet], 2);
    }

    #[test]
    fn parse_oid_variants() {
        assert_eq!(parse_oid("7"), Some(7));
        assert_eq!(parse_oid("#7"), Some(7));
        assert_eq!(parse_oid(" #12 supplier=Acme"), Some(12));
        assert_eq!(parse_oid("Pole"), None);
        assert_eq!(parse_oid(""), None);
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use custlang::FIG6_PROGRAM;
    use geodb::gen::TelecomConfig;
    use geodb::geometry::{Geometry, Point};

    fn dispatcher() -> Dispatcher {
        paper_dispatcher(&TelecomConfig::small()).unwrap()
    }

    #[test]
    fn exploratory_sessions_cannot_update() {
        let mut d = dispatcher();
        let sid = d.open_session(SessionContext::new("m", "op", "maint"));
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        let err = d.apply_update(sid, poles[0].oid, vec![("pole_type".into(), Value::Int(9))]);
        assert!(matches!(err, Err(UiError::ModeViolation(_))));
    }

    #[test]
    fn update_refreshes_open_class_and_instance_windows() {
        let mut d = dispatcher();
        let maint = d.open_session(SessionContext::new("m", "op", "maint"));
        d.set_mode(maint, InteractionMode::Analysis).unwrap();
        let viewer = d.open_session(SessionContext::new("v", "op", "browse"));

        let class_win = d.open_class(viewer, "phone_net", "Pole", None).unwrap();
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        let oid = poles[0].oid;
        let inst_win = d.open_instance(viewer, oid, None).unwrap();
        let before_class = d.render(class_win).unwrap();
        let before_inst = d.render(inst_win).unwrap();

        // Move the pole far away and change its type.
        let refreshed = d
            .apply_update(
                maint,
                oid,
                vec![
                    ("pole_type".into(), Value::Int(99)),
                    (
                        "pole_location".into(),
                        Geometry::Point(Point::new(9999.0, 9999.0)).into(),
                    ),
                ],
            )
            .unwrap();
        assert!(refreshed.contains(&class_win));
        assert!(refreshed.contains(&inst_win));

        let after_class = d.render(class_win).unwrap();
        let after_inst = d.render(inst_win).unwrap();
        assert_ne!(before_class, after_class, "map scene must change");
        assert_ne!(before_inst, after_inst);
        assert!(after_inst.contains("pole_type: 99"));
    }

    #[test]
    fn refresh_preserves_per_session_customization() {
        let mut d = dispatcher();
        d.install_program(FIG6_PROGRAM, "fig6").unwrap();
        let juliano = d.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
        let maint = d.open_session(SessionContext::new("m", "op", "maint"));
        d.set_mode(maint, InteractionMode::Analysis).unwrap();

        // Juliano's customized window and a generic window stay distinct
        // through a refresh triggered by a third party.
        let jwin = d.open_class(juliano, "phone_net", "Pole", None).unwrap();
        let gwin = d.open_class(maint, "phone_net", "Pole", None).unwrap();
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        d.apply_update(
            maint,
            poles[0].oid,
            vec![("pole_type".into(), Value::Int(7))],
        )
        .unwrap();

        assert!(d.render(jwin).unwrap().contains("O="), "slider kept");
        assert!(d.render(gwin).unwrap().contains("[ Zoom ]"), "generic kept");
    }

    #[test]
    fn refresh_reruns_the_analysis_predicate() {
        let mut d = dispatcher();
        let analyst = d.open_session(SessionContext::new("a", "op", "survey"));
        d.set_mode(analyst, InteractionMode::Analysis).unwrap();
        let heavy = Predicate::cmp("pole_type", geodb::query::CmpOp::Gt, Value::Int(2));
        let snap = d.snapshot();
        let hits = snap.select("phone_net", "Pole", &heavy).unwrap().len();
        let light = snap
            .get_class("phone_net", "Pole", false)
            .unwrap()
            .into_iter()
            .find(|p| !heavy.eval(p))
            .unwrap()
            .oid;
        let win = d
            .analysis_query(analyst, "phone_net", "Pole", &heavy)
            .unwrap();
        let filtered = |n: usize| format!("Class: Pole [filtered: {n} hits]");
        assert_eq!(d.window(win).unwrap().built.title, filtered(hits));

        // The write adds one pole to the selection; the refreshed window
        // lists the new selection, not the whole extension.
        let refreshed = d
            .apply_update(analyst, light, vec![("pole_type".into(), Value::Int(4))])
            .unwrap();
        assert!(refreshed.contains(&win));
        assert_eq!(d.window(win).unwrap().built.title, filtered(hits + 1));
        let art = d.render(win).unwrap();
        assert!(art.contains(&format!("instances: {}", hits + 1)), "{art}");
    }

    #[test]
    fn refresh_leaves_simulation_windows_alone() {
        let mut d = dispatcher();
        let planner = d.open_session(SessionContext::new("p", "planner", "what_if"));
        d.set_mode(planner, InteractionMode::Simulation).unwrap();
        let editor = d.open_session(SessionContext::new("m", "op", "maint"));
        d.set_mode(editor, InteractionMode::Analysis).unwrap();
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        let sim = d
            .simulate(
                planner,
                "phone_net",
                "Pole",
                vec![(poles[0].oid, vec![("pole_type".into(), Value::Int(99))])],
            )
            .unwrap();
        let before = d.render(sim).unwrap();

        // Another session's real write moves a pole off the map.
        let refreshed = d
            .apply_update(
                editor,
                poles[1].oid,
                vec![(
                    "pole_location".into(),
                    Geometry::Point(Point::new(9999.0, 9999.0)).into(),
                )],
            )
            .unwrap();
        assert!(!refreshed.contains(&sim), "sandbox rows were overwritten");
        assert_eq!(
            d.window(sim).unwrap().built.title,
            "Class: Pole [simulation]"
        );
        assert_eq!(d.render(sim).unwrap(), before);
    }

    #[test]
    fn update_events_reach_integrity_rules() {
        use std::sync::Mutex;
        let mut d = dispatcher();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        d.engine()
            .add_rule(active::Rule::integrity(
                "audit_updates",
                active::EventPattern::db(geodb::query::DbEventKind::Update),
                Arc::new(move |e, _| {
                    log2.lock().unwrap().push(e.describe());
                    vec![]
                }),
            ))
            .unwrap();
        let sid = d.open_session(SessionContext::new("m", "op", "maint"));
        d.set_mode(sid, InteractionMode::Analysis).unwrap();
        let poles = d.snapshot().get_class("phone_net", "Pole", false).unwrap();
        d.apply_update(sid, poles[0].oid, vec![("pole_type".into(), Value::Int(3))])
            .unwrap();
        assert_eq!(log.lock().unwrap().len(), 1);
        assert!(log.lock().unwrap()[0].contains("Update"));
    }
}

#[cfg(test)]
mod zoom_tests {
    use super::*;
    use geodb::gen::TelecomConfig;

    #[test]
    fn zoom_button_shrinks_the_viewport() {
        let mut d = paper_dispatcher(&TelecomConfig::small()).unwrap();
        let sid = d.open_session(SessionContext::new("g", "v", "browse"));
        let win = d.open_class(sid, "phone_net", "Pole", None).unwrap();
        let before = d.render(win).unwrap();

        // Click the generic Zoom button.
        d.handle_gesture(sid, win, "class_window/body/control/zoom", "click", None)
            .unwrap();
        let after = d.render(win).unwrap();
        assert_ne!(before, after, "zoom must change the rendered map");

        // The viewport halves each click.
        let scene = d.window(win).unwrap().built.scenes.values().next().unwrap();
        let v1 = scene.effective_viewport();
        d.handle_gesture(sid, win, "class_window/body/control/zoom", "click", None)
            .unwrap();
        let scene = d.window(win).unwrap().built.scenes.values().next().unwrap();
        let v2 = scene.effective_viewport();
        assert!((v2.width() - v1.width() / 2.0).abs() < 1e-9);
        // Centers are preserved.
        assert!((v2.center().x - v1.center().x).abs() < 1e-9);
    }

    #[test]
    fn zoom_on_unknown_window_errors() {
        let mut d = paper_dispatcher(&TelecomConfig::small()).unwrap();
        assert!(matches!(
            d.zoom_window(WindowId(42), 0.5),
            Err(UiError::UnknownWindow(_))
        ));
    }
}

#[cfg(test)]
mod stored_program_tests {
    use super::*;
    use custlang::FIG6_PROGRAM;
    use geodb::gen::TelecomConfig;

    #[test]
    fn stored_programs_survive_a_snapshot_reboot() {
        // Session 1: store the program in the database.
        let mut d = paper_dispatcher(&TelecomConfig::small()).unwrap();
        let n = d.store_program(FIG6_PROGRAM, "fig6").unwrap();
        assert_eq!(n, 3);
        let snapshot = geodb::snapshot::save_snapshot(&d.snapshot()).unwrap();

        // Session 2: fresh dispatcher over the restored database.
        let mut db = geodb::snapshot::load(&snapshot).unwrap();
        geodb::gen::register_phone_net_methods(&mut db).unwrap();
        let mut d2 = Dispatcher::new(db, builder::InterfaceBuilder::with_paper_library());
        assert_eq!(d2.engine().len(), 0);
        let (programs, rules, skipped) = d2.load_stored_programs().unwrap();
        assert_eq!((programs, rules), (1, 3));
        assert!(skipped.is_empty());

        // And the customization is live again.
        let sid = d2.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
        let windows = d2.open_schema(sid, "phone_net").unwrap();
        assert_eq!(windows.len(), 2);
    }

    #[test]
    fn invalid_stored_programs_are_skipped_not_fatal() {
        let mut d = paper_dispatcher(&TelecomConfig::small()).unwrap();
        d.store_program(FIG6_PROGRAM, "good").unwrap();
        // Sneak an invalid program into storage directly (e.g. the schema
        // it references was dropped later).
        d.store()
            .write(|db| {
                custlang::save_program(
                    db,
                    "stale",
                    "for user u schema ghost display as default class C display",
                )
            })
            .unwrap();
        let (programs, _, skipped) = d.load_stored_programs().unwrap();
        assert_eq!(programs, 1);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, "stale");
        // The reason the program was skipped is preserved...
        assert!(
            skipped[0].1.contains("ghost"),
            "error should name the missing schema: {}",
            skipped[0].1
        );
        // ...and the skip is visible in the explanation stream.
        let degradations: Vec<_> = d.explanation_log().degradations().collect();
        assert_eq!(degradations.len(), 1);
        assert!(degradations[0].rendered().contains("stale"));
    }

    #[test]
    fn store_program_validates_before_persisting() {
        let mut d = paper_dispatcher(&TelecomConfig::small()).unwrap();
        assert!(d.store_program("not a program", "bad").is_err());
        // Nothing was persisted.
        assert!(custlang::load_programs_snap(&d.snapshot())
            .unwrap()
            .is_empty());
    }
}

#[cfg(test)]
mod shared_store_tests {
    use super::*;
    use geodb::gen::TelecomConfig;

    /// Two dispatchers over one store: what one commits, the other reads.
    fn pair() -> (Dispatcher, Dispatcher) {
        let (db, _) = geodb::gen::phone_net_db(&TelecomConfig::small()).unwrap();
        let store = DbStore::new(db);
        let a = Dispatcher::with_store(
            store.clone(),
            InterfaceBuilder::with_paper_library(),
            Engine::new(),
        );
        let b =
            Dispatcher::with_store(store, InterfaceBuilder::with_paper_library(), Engine::new());
        (a, b)
    }

    #[test]
    fn writes_are_visible_across_dispatchers() {
        let (mut a, mut b) = pair();
        let writer = a.open_session(SessionContext::new("w", "op", "maint"));
        a.set_mode(writer, InteractionMode::Analysis).unwrap();
        let reader = b.open_session(SessionContext::new("r", "op", "browse"));

        let oid = b.snapshot().get_class("phone_net", "Pole", false).unwrap()[0].oid;
        let epoch_before = b.db_epoch();
        a.apply_update(writer, oid, vec![("pole_type".into(), Value::Int(42))])
            .unwrap();

        // B's next interaction pins the new epoch and serves the write.
        let win = b.open_instance(reader, oid, None).unwrap();
        assert!(b.render(win).unwrap().contains("pole_type: 42"));
        assert!(b.db_epoch() > epoch_before, "epoch advanced for b");
        assert_eq!(a.db_epoch(), b.db_epoch());
    }

    #[test]
    fn epoch_change_stamps_explanation_records() {
        let (mut a, mut b) = pair();
        a.install_program(custlang::FIG6_PROGRAM, "fig6").unwrap();
        let writer = b.open_session(SessionContext::new("w", "op", "maint"));
        b.set_mode(writer, InteractionMode::Analysis).unwrap();
        let juliano = a.open_session(SessionContext::new("juliano", "planner", "pole_manager"));

        a.open_schema(juliano, "phone_net").unwrap();
        let first_epoch = a.db_epoch();
        let oid = a.snapshot().get_class("phone_net", "Pole", false).unwrap()[0].oid;
        b.apply_update(writer, oid, vec![("pole_type".into(), Value::Int(7))])
            .unwrap();
        a.open_schema(juliano, "phone_net").unwrap();

        let epochs: Vec<Epoch> = a.explanation_log().records().map(|r| r.db_epoch).collect();
        assert!(epochs.contains(&first_epoch));
        assert!(
            epochs.iter().any(|&e| e > first_epoch),
            "later traces carry the newer epoch: {epochs:?}"
        );
    }

    #[test]
    fn replica_routed_reads_stamp_staleness_and_fall_back_within_bound() {
        let (db, _) = geodb::gen::phone_net_db(&TelecomConfig::small()).unwrap();
        let store = DbStore::new(db);
        let replica = geodb::repl::ReplicaStore::attach(&store, "r1").unwrap();
        let router = ReadRouter::with_replica(store.reader(), replica.reader(), Some(1));
        let mut d = Dispatcher::with_router(
            store.clone(),
            router,
            InterfaceBuilder::with_paper_library(),
            Engine::new(),
        );
        assert!(d.reads_replicated());
        let writer = d.open_session(SessionContext::new("w", "op", "maint"));
        d.set_mode(writer, InteractionMode::Analysis).unwrap();
        let oid = d.snapshot().get_class("phone_net", "Pole", false).unwrap()[0].oid;

        // Two primary commits the replica has not applied: lag 2 exceeds
        // the bound of 1, so the read falls back to the primary — it
        // must serve the fresh value, and the trace records staleness 0.
        d.apply_update(writer, oid, vec![("pole_type".into(), Value::Int(8))])
            .unwrap();
        d.apply_update(writer, oid, vec![("pole_type".into(), Value::Int(9))])
            .unwrap();
        let sid = d.open_session(SessionContext::new("r", "op", "browse"));
        let win = d.open_instance(sid, oid, None).unwrap();
        assert!(d.render(win).unwrap().contains("pole_type: 9"));
        assert_eq!(d.db_epoch(), store.epoch());

        // Catch the replica up, then lag by one: within the bound the
        // read is served from the follower and the lag is stamped into
        // the explanation records.
        replica.sync_to_latest().unwrap();
        d.apply_update(writer, oid, vec![("pole_type".into(), Value::Int(10))])
            .unwrap();
        d.open_instance(sid, oid, None).unwrap();
        assert_eq!(d.db_epoch(), replica.epoch());
        assert_eq!(d.db_epoch() + 1, store.epoch());
        let last = d.explanation_log().records().last().unwrap();
        assert_eq!(last.staleness, 1);
        assert_eq!(last.db_epoch, replica.epoch());
    }

    #[test]
    fn stored_programs_round_trip_through_the_shared_store() {
        let (mut a, mut b) = pair();
        a.store_program(custlang::FIG6_PROGRAM, "fig6").unwrap();
        // B loads the program straight out of the shared database.
        let (programs, rules, skipped) = b.load_stored_programs().unwrap();
        assert_eq!((programs, rules), (1, 3));
        assert!(skipped.is_empty());
    }

    #[test]
    fn commits_flush_the_winner_cache() {
        let (mut a, mut b) = pair();
        a.install_program(custlang::FIG6_PROGRAM, "fig6").unwrap();
        let juliano = a.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
        // Prime the winner cache.
        a.open_schema(juliano, "phone_net").unwrap();
        a.open_schema(juliano, "phone_net").unwrap();
        let before = a.engine().cache_stats();

        let writer = b.open_session(SessionContext::new("w", "op", "maint"));
        b.set_mode(writer, InteractionMode::Analysis).unwrap();
        let oid = b.snapshot().get_class("phone_net", "Pole", false).unwrap()[0].oid;
        b.apply_update(writer, oid, vec![("pole_type".into(), Value::Int(5))])
            .unwrap();

        // A's next pin observes the commit and flushes its cache.
        a.snapshot();
        let after = a.engine().cache_stats();
        assert!(
            after.invalidations > before.invalidations,
            "winner cache invalidated on epoch change: {before:?} -> {after:?}"
        );
    }
}
