//! The integrated system facade.
//!
//! [`ActiveGis`] wires the five subsystems of the paper's Fig. 1 together
//! — geographic database, active mechanism, interface-objects library,
//! generic interface builder, and GIS interface layer — behind one small
//! API that the examples and downstream applications use.

use std::time::Duration;

use active::SessionContext;
use builder::InterfaceBuilder;
use geodb::db::Database;
use geodb::gen::TelecomConfig;
use geodb::instance::Oid;
use geodb::repl::{PromotionReport, ReadRouter, ReplicaStatus, ReplicaStore};
use geodb::wal::{RecoveryReport, WalConfig, WalStatus};
use geodb::Epoch;
use gisui::{Dispatcher, InteractionMode, Result, SessionId, UiError, WindowId};
use uilib::{Library, Prop};

use crate::server::ReadRouting;

/// The assembled Active-GIS system.
pub struct ActiveGis {
    dispatcher: Dispatcher,
    /// Attached followers of the dispatcher's store, in attach order.
    replicas: Vec<ReplicaStore>,
}

impl ActiveGis {
    /// Assemble the system over an existing database, using the paper's
    /// widget library (kernel + `slider`, `poleWidget`, `composed_text`,
    /// `text`).
    pub fn open(db: Database) -> ActiveGis {
        ActiveGis {
            dispatcher: Dispatcher::new(db, InterfaceBuilder::with_paper_library()),
            replicas: Vec::new(),
        }
    }

    /// Assemble with a caller-provided widget library.
    pub fn with_library(db: Database, library: Library) -> ActiveGis {
        ActiveGis {
            dispatcher: Dispatcher::new(db, InterfaceBuilder::new(library)),
            replicas: Vec::new(),
        }
    }

    /// The paper's running example: a synthetic telephone-network
    /// database (`phone_net`) ready to browse.
    pub fn phone_net_demo(cfg: &TelecomConfig) -> Result<ActiveGis> {
        Ok(ActiveGis {
            dispatcher: gisui::paper_dispatcher(cfg)?,
            replicas: Vec::new(),
        })
    }

    /// Assemble the system over a *durable* store rooted at
    /// `config.dir`: if the directory holds a checkpoint, crash-recover
    /// from it (the seed database is ignored — disk wins) and return the
    /// [`RecoveryReport`]; otherwise checkpoint the seed and start a
    /// fresh write-ahead log. Every subsequent committed write is
    /// fsynced before it is acknowledged (see `docs/storage.md`).
    pub fn open_durable(
        seed: Database,
        config: WalConfig,
    ) -> Result<(ActiveGis, Option<RecoveryReport>)> {
        let (store, report) = geodb::wal::open(seed, config).map_err(UiError::Db)?;
        let gis = ActiveGis {
            dispatcher: Dispatcher::with_store(
                store,
                InterfaceBuilder::with_paper_library(),
                active::Engine::new(),
            ),
            replicas: Vec::new(),
        };
        Ok((gis, report))
    }

    // -- customization ----------------------------------------------------

    /// Install (or replace) a named customization program. Returns the
    /// number of active rules generated.
    pub fn customize(&mut self, program: &str, name: &str) -> Result<usize> {
        self.dispatcher.install_program(program, name)
    }

    /// Validate, persist into the geographic database, and install a
    /// customization program ("customization rules stored in the
    /// database").
    pub fn customize_stored(&mut self, program: &str, name: &str) -> Result<usize> {
        self.dispatcher.store_program(program, name)
    }

    /// Install every program stored in the database (the boot path after
    /// reopening a snapshot); returns `(programs, rules, skipped)` where
    /// each skipped entry is `(program name, reason)`.
    pub fn load_stored_customizations(&mut self) -> Result<gisui::StoredProgramReport> {
        self.dispatcher.load_stored_programs()
    }

    /// Add a specialized widget class to the interface-objects library so
    /// customization programs can reference it.
    pub fn define_widget(
        &mut self,
        name: &str,
        parent: &str,
        defaults: Vec<(String, Prop)>,
    ) -> Result<()> {
        self.dispatcher
            .builder_library_mut()
            .specialize(name, parent, defaults)
            .map_err(|e| UiError::Build(e.into()))
    }

    // -- sessions and browsing ----------------------------------------------

    /// Start a session for `<user, category, application>`.
    pub fn login(&mut self, user: &str, category: &str, application: &str) -> SessionId {
        self.dispatcher
            .open_session(SessionContext::new(user, category, application))
    }

    /// Start a session with a full context, including extension
    /// dimensions such as `scale` or `time`.
    pub fn login_with(&mut self, context: SessionContext) -> SessionId {
        self.dispatcher.open_session(context)
    }

    /// Switch a session's interaction mode.
    pub fn set_mode(&mut self, sid: SessionId, mode: InteractionMode) -> Result<()> {
        self.dispatcher.set_mode(sid, mode)
    }

    /// Open the Schema window (plus any auto-opened class windows).
    pub fn browse_schema(&mut self, sid: SessionId, schema: &str) -> Result<Vec<WindowId>> {
        self.dispatcher.open_schema(sid, schema)
    }

    /// Open a Class-set window.
    pub fn browse_class(&mut self, sid: SessionId, schema: &str, class: &str) -> Result<WindowId> {
        self.dispatcher.open_class(sid, schema, class, None)
    }

    /// Open an Instance window.
    pub fn inspect(&mut self, sid: SessionId, oid: Oid) -> Result<WindowId> {
        self.dispatcher.open_instance(sid, oid, None)
    }

    /// ASCII rendering of a window.
    pub fn render(&self, window: WindowId) -> Result<String> {
        self.dispatcher.render(window)
    }

    /// SVG rendering of a window.
    pub fn render_svg(&self, window: WindowId) -> Result<String> {
        Ok(self
            .dispatcher
            .window(window)
            .ok_or(UiError::UnknownWindow(window))?
            .built
            .to_svg())
    }

    /// The rule-firing explanation log (rendered lines).
    pub fn explanation(&self) -> Vec<String> {
        self.dispatcher.explanation()
    }

    // -- observability ------------------------------------------------------

    /// Point-in-time snapshot of the process-wide metrics registry:
    /// counters, latency/size histograms (p50/p95/p99/max) and span
    /// hierarchy across `engine`, `geodb`, `builder`, `render` and
    /// `dispatcher`. Export with [`obs::MetricsSnapshot::to_json`] or
    /// [`obs::MetricsSnapshot::to_prometheus`].
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        obs::snapshot()
    }

    /// Turn metric collection on or off process-wide. When off every
    /// instrumentation hook collapses to one atomic load.
    pub fn set_metrics_enabled(on: bool) {
        obs::set_enabled(on);
    }

    /// Arm request-trace sampling process-wide: record 1 in `n`
    /// requests (`1` = every request, `0` = off). Requests that fault
    /// or degrade are always retained. Completed trace trees land in
    /// bounded per-shard rings; see [`Self::traces`].
    pub fn set_trace_sampling(n: u64) {
        obs::set_trace_sampling(n);
    }

    /// The most recent `n` completed request traces, newest first.
    pub fn traces(n: usize) -> Vec<obs::TraceTree> {
        obs::recent_traces(n)
    }

    /// Look up one completed request trace by id (the id stamped into
    /// `TraceRecord::trace_id` and Prometheus exemplars).
    pub fn trace(id: u64) -> Option<obs::TraceTree> {
        obs::find_trace(id)
    }

    /// JSON export of the most recent `n` completed traces.
    pub fn traces_json(n: usize) -> String {
        obs::traces_json(n)
    }

    /// Tick the global SLO engine against the live registry and report
    /// burn rates. `None` until [`obs::slo::install`] (or
    /// `install_default`) has run.
    pub fn slo_report() -> Option<obs::slo::SloReport> {
        obs::slo::tick_and_report()
    }

    /// Handle to the shared versioned store behind the dispatcher: read
    /// through `snapshot()`/`reader()`, write through `write()`; commits
    /// publish a new epoch (see `docs/storage.md`).
    pub fn db_store(&mut self) -> geodb::store::DbStore {
        self.dispatcher.store()
    }

    /// The database epoch the dispatcher last served.
    pub fn db_epoch(&self) -> Epoch {
        self.dispatcher.db_epoch()
    }

    /// Live reader pins on the store (the dispatcher itself holds one).
    pub fn pinned_snapshots(&mut self) -> usize {
        self.dispatcher.store().pin_count()
    }

    /// The oldest epoch any reader still pins (`None` when unpinned).
    pub fn pin_watermark(&mut self) -> Option<Epoch> {
        self.dispatcher.store().pin_watermark()
    }

    /// Snapshot versions currently retained for pinned readers (the
    /// `db.epochs_retained` gauge).
    pub fn epochs_retained(&mut self) -> usize {
        self.dispatcher.store().epochs_retained()
    }

    // -- durability ---------------------------------------------------------

    /// Is the store writing through a WAL?
    pub fn wal_attached(&mut self) -> bool {
        self.dispatcher.store().wal_attached()
    }

    /// WAL counters plus the durable epoch, or `None` on a volatile
    /// store.
    pub fn wal_status(&mut self) -> Option<(WalStatus, Epoch)> {
        self.dispatcher.store().wal_status()
    }

    /// Checkpoint the durable frontier (snapshot + meta documents,
    /// truncated log); returns the checkpoint epoch.
    pub fn checkpoint(&mut self) -> Result<Epoch> {
        self.dispatcher.store().checkpoint().map_err(UiError::Db)
    }

    // -- replication --------------------------------------------------------

    /// Attach a new follower of the system's store: full-sync it to the
    /// current epoch and keep it under the given id. Returns its status.
    /// See `docs/replication.md`.
    pub fn attach_replica(&mut self, id: &str) -> Result<ReplicaStatus> {
        if self.replicas.iter().any(|r| r.id() == id) {
            return Err(UiError::Db(geodb::GeoDbError::Storage(format!(
                "replica {id:?} already attached"
            ))));
        }
        let replica = ReplicaStore::attach(&self.dispatcher.store(), id).map_err(UiError::Db)?;
        let status = replica.status();
        self.replicas.push(replica);
        Ok(status)
    }

    /// Health of every attached replica, in attach order.
    pub fn replication_status(&self) -> Vec<ReplicaStatus> {
        self.replicas.iter().map(ReplicaStore::status).collect()
    }

    /// Drive every attached replica to the primary's published epoch.
    pub fn sync_replicas(&mut self) -> Result<()> {
        for r in &self.replicas {
            r.sync_to_latest().map_err(UiError::Db)?;
        }
        Ok(())
    }

    /// Route this system's *reads* under `policy`, served from the first
    /// attached replica (the serving layer shards across many; the
    /// facade drives one dispatcher). Replica policies error when no
    /// replica is attached. Writes always go to the primary.
    pub fn set_read_policy(&mut self, policy: ReadRouting) -> Result<()> {
        let store = self.dispatcher.store();
        let router = match policy {
            ReadRouting::Primary => ReadRouter::primary_only(store.reader()),
            ReadRouting::Replica | ReadRouting::BoundedStaleness(_) => {
                let replica = self.replicas.first().ok_or_else(|| {
                    UiError::Db(geodb::GeoDbError::Storage("no replica attached".into()))
                })?;
                let bound = match policy {
                    ReadRouting::BoundedStaleness(n) => Some(n),
                    _ => None,
                };
                ReadRouter::with_replica(store.reader(), replica.reader(), bound)
            }
        };
        self.dispatcher.route_reads(router);
        Ok(())
    }

    /// Fail over to an attached replica: replay the WAL tail in
    /// `config.dir` past its applied epoch and rebuild the system over
    /// the promoted store. Every durable commit of the old primary is
    /// served afterwards (read-your-writes); sessions, windows and
    /// in-memory rule installs do not survive the failover — reload
    /// stored customizations with
    /// [`ActiveGis::load_stored_customizations`].
    pub fn promote_replica(&mut self, id: &str, config: WalConfig) -> Result<PromotionReport> {
        let idx = self
            .replicas
            .iter()
            .position(|r| r.id() == id)
            .ok_or_else(|| UiError::Db(geodb::GeoDbError::Storage(format!("no replica {id:?}"))))?;
        let replica = self.replicas.remove(idx);
        let (store, report) = replica.promote(config).map_err(UiError::Db)?;
        // The remaining replicas followed the old primary; drop them
        // (their pins die with the old store).
        self.replicas.clear();
        self.dispatcher = Dispatcher::with_store(
            store,
            InterfaceBuilder::with_paper_library(),
            active::Engine::new(),
        );
        Ok(report)
    }

    /// Tune the group-commit window of a durable store.
    pub fn set_group_window(&mut self, window: Duration) {
        self.dispatcher.store().set_group_window(window);
    }

    /// How the rule engine finds matching rules per event: the default
    /// discrimination index + winner cache, or the linear-scan oracle.
    pub fn dispatch_strategy(&mut self) -> active::DispatchStrategy {
        self.dispatcher.engine().strategy()
    }

    /// Switch dispatch strategy (e.g. to `Linear` when differential
    /// testing against the indexed path).
    pub fn set_dispatch_strategy(&mut self, strategy: active::DispatchStrategy) {
        self.dispatcher.engine().set_strategy(strategy);
    }

    /// Winner-cache hit/miss/invalidation counters and current size
    /// (see `docs/dispatch.md`).
    pub fn dispatch_cache_stats(&mut self) -> active::CacheStats {
        self.dispatcher.engine().cache_stats()
    }

    /// Compile the current rule snapshot into the flat dispatch tables
    /// eagerly (idempotent per rule generation) and return the compile
    /// stats: table/candidate counts, interned-context counts and the
    /// compile latency. Used by the compiled dispatch tier; see
    /// `docs/dispatch.md`.
    pub fn precompile_rules(&mut self) -> active::CompileStats {
        self.dispatcher.engine().precompile()
    }

    /// Stats of the most recent rule compile, or `None` while nothing
    /// has compiled the current rule base yet.
    pub fn compile_stats(&mut self) -> Option<active::CompileStats> {
        self.dispatcher.engine().compiled_stats()
    }

    /// The structured explanation log: the most recent traces with
    /// cascade depths and matched/fired/shadowed rule names intact.
    pub fn explanation_log(&self) -> &gisui::ExplanationLog {
        self.dispatcher.explanation_log()
    }

    /// JSON export of the retained structured traces.
    pub fn explanation_json(&self) -> String {
        self.dispatcher.explanation_json()
    }

    // -- robustness ---------------------------------------------------------

    /// How the rule engine reacts to a faulting rule: skip it and keep
    /// serving the interface (`FailOpen`, the default) or abort the
    /// dispatch (`FailClosed`). See `docs/robustness.md`.
    pub fn fault_policy(&mut self) -> active::FaultPolicy {
        self.dispatcher.engine().fault_policy()
    }

    /// Switch the engine's fault policy.
    pub fn set_fault_policy(&mut self, policy: active::FaultPolicy) {
        self.dispatcher.engine().set_fault_policy(policy);
    }

    /// Rules currently quarantined by the circuit breaker (too many
    /// consecutive faults); they no longer match events.
    pub fn quarantined_rules(&mut self) -> Vec<String> {
        self.dispatcher
            .engine()
            .quarantined()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Per-rule fault health, if the rule exists.
    pub fn rule_health(&mut self, rule: &str) -> Option<active::RuleHealth> {
        self.dispatcher.engine().rule_health(rule)
    }

    /// Lift a rule's quarantine, giving it a clean slate.
    pub fn clear_quarantine(&mut self, rule: &str) -> Result<()> {
        self.dispatcher
            .engine()
            .clear_quarantine(rule)
            .map_err(UiError::Active)
    }

    /// Total rule faults the engine has contained so far.
    pub fn rule_faults(&mut self) -> u64 {
        self.dispatcher.engine().rule_faults()
    }

    /// Current state of every registered failpoint (the deterministic
    /// fault-injection harness).
    pub fn failpoints(&self) -> Vec<faultsim::FailpointStats> {
        faultsim::stats()
    }

    /// Arm a named failpoint; see [`faultsim::FAILPOINTS`] for the
    /// registered names.
    pub fn arm_failpoint(
        &self,
        name: &str,
        trigger: faultsim::Trigger,
        action: faultsim::FaultAction,
    ) {
        faultsim::arm(name, trigger, action);
    }

    /// Disarm a named failpoint.
    pub fn disarm_failpoint(&self, name: &str) {
        faultsim::disarm(name);
    }

    /// Disarm every failpoint and clear hit statistics.
    pub fn reset_failpoints(&self) {
        faultsim::reset();
    }

    /// Tile a session's visible windows into one text screen (the way the
    /// paper's Figs. 4 and 7 show the three windows side by side).
    pub fn screen(&self, sid: SessionId) -> String {
        gisui::session_screen(&self.dispatcher, sid)
    }

    /// Full access to the underlying dispatcher (and through it the
    /// database and rule engine).
    pub fn dispatcher(&mut self) -> &mut Dispatcher {
        &mut self.dispatcher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use custlang::FIG6_PROGRAM;

    #[test]
    fn end_to_end_facade_flow() {
        let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
        gis.customize(FIG6_PROGRAM, "fig6").unwrap();

        let sid = gis.login("juliano", "planner", "pole_manager");
        let windows = gis.browse_schema(sid, "phone_net").unwrap();
        assert_eq!(windows.len(), 2, "Null schema + auto-opened Pole window");
        let art = gis.render(windows[1]).unwrap();
        assert!(art.contains("Class: Pole"));
        assert!(gis.render_svg(windows[1]).unwrap().starts_with("<svg"));
        assert!(!gis.explanation().is_empty());
    }

    #[test]
    fn dispatch_strategy_and_cache_stats_are_exposed() {
        use active::DispatchStrategy;
        let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
        gis.customize(FIG6_PROGRAM, "fig6").unwrap();
        assert_eq!(gis.dispatch_strategy(), DispatchStrategy::Indexed);

        let sid = gis.login("juliano", "planner", "pole_manager");
        gis.browse_schema(sid, "phone_net").unwrap();
        let cold = gis.dispatch_cache_stats();
        gis.browse_schema(sid, "phone_net").unwrap();
        let warm = gis.dispatch_cache_stats();
        assert!(
            warm.hits > cold.hits,
            "repeat browse hits the cache: {warm:?}"
        );

        gis.set_dispatch_strategy(DispatchStrategy::Linear);
        assert_eq!(gis.dispatch_strategy(), DispatchStrategy::Linear);
    }

    #[test]
    fn define_widget_extends_the_library() {
        let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
        gis.define_widget("bigButton", "Button", vec![("label".into(), "GO".into())])
            .unwrap();
        // Now a program can reference it.
        let program = "for user u schema phone_net display as default \
                       class Pole display control as bigButton";
        assert!(gis.customize(program, "p").is_ok());
    }

    #[test]
    fn duplicate_widget_definition_errors() {
        let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
        let r = gis.define_widget("poleWidget", "Panel", vec![]);
        assert!(r.is_err());
    }
}
