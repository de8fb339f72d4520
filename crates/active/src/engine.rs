//! The rule engine: registration, selection, execution and cascading.
//!
//! Execution model (paper Section 3.3): "it is possible to have a set of
//! customization rules activated by an event, one for each context. In our
//! execution model, only one rule is selected for execution — the one
//! which has the highest priority. We define the highest priority for the
//! most specific rule." Non-customization rules (integrity maintenance
//! etc.) all fire, in priority order. Actions may raise further events;
//! cascades are bounded by a configurable depth.
//!
//! Dispatch runs one of two strategies (see [`DispatchStrategy`]):
//!
//! * **Indexed** (the default): a discrimination index buckets rule
//!   indices by event-pattern discriminant (per [`DbEventKind`],
//!   interface/external by name, wildcard), so matching consults only the
//!   buckets that can possibly match; a winner cache keyed on
//!   `(event discriminant, user, category, application)` turns repeat
//!   interactions — the same user clicking through the same windows,
//!   paper Figs. 4–7 — into a hash lookup. Below
//!   [`EngineConfig::hybrid_linear_threshold`] rules the index is skipped
//!   and matching scans the rule vector directly (the index only pays
//!   for itself once there is something to prune), but the winner cache
//!   stays on. The cache is bounded
//!   ([`EngineConfig::winner_cache_capacity`], two-segment generational
//!   eviction), invalidated by the rule-base epoch on any rule mutation,
//!   and bypassed entirely while any enabled customization rule carries
//!   a guard or extension dimensions (those must re-evaluate every time).
//! * **Linear**: the original scan over every registered rule, kept as
//!   the differential-testing oracle.
//!
//! Both strategies produce identical [`Outcome`]s; `tests` and the
//! `dispatch_differential` property suite enforce this.
//!
//! # Concurrency model
//!
//! Since the concurrent-serving work (`docs/scaling.md`) the engine is a
//! *session handle* over a shared, immutable [`RuleBase`]. Rule data
//! (rules, interned names, discrimination index) lives in a
//! generation-tagged snapshot published copy-on-write behind
//! `Mutex<Arc<RuleSnapshot>>` plus an atomic epoch. Readers keep a cached
//! `Arc` to the snapshot and re-check the epoch with one atomic load per
//! dispatch — the steady-state read path takes no lock and performs no
//! atomic refcount traffic. Mutations lock, clone the snapshot only when
//! another session still holds it (`Arc::make_mut`), and bump the epoch.
//! Everything mutable per dispatch — scratch buffers, the deferred queue,
//! the winner cache — is private to the handle, so distinct sessions
//! dispatch fully in parallel. Fault health lives in shared atomic cells
//! so quarantine decisions are global and exactly counted.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use geodb::query::DbEventKind;

use crate::compiled::{compile, patch, CompileStats, CompiledRules, Delta, EventIds, RuleLite};
use crate::context::SessionContext;
use crate::event::{Event, EventPattern};
use crate::rule::{Action, Coupling, Rule, RuleGroup};
use crate::trace::{SharedTrace, TraceEntry};

/// How customization rules are selected when several match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// The paper's policy: only the single most specific rule fires.
    MostSpecific,
    /// Ablation baseline: every matching customization rule fires.
    FireAll,
}

/// How dispatch finds the matching rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchStrategy {
    /// Discrimination index + winner cache (the default). Small rule
    /// populations (≤ [`EngineConfig::hybrid_linear_threshold`]) are
    /// scanned directly instead of through the index — the hybrid that
    /// keeps cold dispatch no slower than [`DispatchStrategy::Linear`].
    #[default]
    Indexed,
    /// Scan every registered rule — the differential-testing oracle.
    Linear,
    /// Flat decision tables compiled once per published snapshot
    /// generation (see the `compiled` module): dense per-kind jump
    /// tables, interned contexts packed into a `u64` cache key, and
    /// pre-resolved specificity order so a cold most-specific dispatch
    /// stops at the first matching candidate. Falls back to the direct
    /// scan below [`EngineConfig::hybrid_linear_threshold`] like
    /// [`DispatchStrategy::Indexed`] does.
    Compiled,
}

/// What the engine does when a rule's action faults (panics or trips an
/// injected failpoint) during dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Contain the fault: record it, skip the faulting rule, and keep
    /// the cascade going (the default — customization must never take
    /// the generic interface down with it).
    #[default]
    FailOpen,
    /// Abort the dispatch with [`ActiveError::RuleFault`]. The abort is
    /// transactional: deferred firings queued by the aborted dispatch
    /// are rolled back.
    FailClosed,
}

/// Engine configuration. Per session handle: two sessions of the same
/// [`RuleBase`] may run different strategies, selection policies or
/// fault policies over the identical rule snapshot.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    pub selection: SelectionPolicy,
    /// How matching rules are found per event.
    pub strategy: DispatchStrategy,
    /// Maximum cascade depth before the engine aborts the dispatch.
    pub max_cascade_depth: usize,
    /// Record traces (disable in tight benchmark loops).
    pub tracing: bool,
    /// What a rule fault does to the dispatch in progress.
    pub fault_policy: FaultPolicy,
    /// Consecutive faults before a rule is quarantined (circuit-broken:
    /// skipped by matching until [`Engine::clear_quarantine`]). `0`
    /// disables quarantining.
    pub quarantine_threshold: u32,
    /// Rule populations at or below this size are matched by scanning
    /// the rule vector directly under [`DispatchStrategy::Indexed`]
    /// (the winner cache stays active). `0` forces the discrimination
    /// index for every population size.
    pub hybrid_linear_threshold: usize,
    /// Winner-cache entries retained before generational eviction kicks
    /// in (see [`CacheStats::evictions`]).
    pub winner_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            selection: SelectionPolicy::MostSpecific,
            strategy: DispatchStrategy::Indexed,
            max_cascade_depth: 16,
            tracing: true,
            fault_policy: FaultPolicy::FailOpen,
            quarantine_threshold: 3,
            hybrid_linear_threshold: 16,
            winner_cache_capacity: 8192,
        }
    }
}

/// The pseudo-rule name faults are attributed to when the
/// `engine.cascade` failpoint trips while dequeuing a cascaded event
/// (there is no single rule to blame — any fired rule may have raised
/// it).
pub const CASCADE_PSEUDO_RULE: &str = "<cascade>";

/// Errors from rule registration and dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActiveError {
    DuplicateRule(String),
    UnknownRule(String),
    /// A cascade exceeded `max_cascade_depth` — almost always a rule cycle.
    CascadeOverflow {
        depth: usize,
        event: String,
    },
    /// A rule's action panicked or tripped an injected failpoint and the
    /// engine runs [`FaultPolicy::FailClosed`].
    RuleFault {
        rule: String,
        depth: usize,
        cause: String,
    },
}

impl std::fmt::Display for ActiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActiveError::DuplicateRule(n) => write!(f, "duplicate rule `{n}`"),
            ActiveError::UnknownRule(n) => write!(f, "unknown rule `{n}`"),
            ActiveError::CascadeOverflow { depth, event } => {
                write!(
                    f,
                    "cascade overflow at depth {depth} on {event} (rule cycle?)"
                )
            }
            ActiveError::RuleFault { rule, depth, cause } => {
                write!(f, "rule `{rule}` faulted at depth {depth}: {cause}")
            }
        }
    }
}

impl std::error::Error for ActiveError {}

/// One contained rule fault, reported in [`Outcome::faults`] under
/// [`FaultPolicy::FailOpen`] (under `FailClosed` the first fault aborts
/// the dispatch instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The faulting rule, or [`CASCADE_PSEUDO_RULE`].
    pub rule: String,
    /// Cascade depth at which the fault occurred.
    pub depth: usize,
    /// Panic message or injected-fault description.
    pub cause: String,
}

/// Per-rule fault bookkeeping for the circuit breaker (a point-in-time
/// view of the shared health cell).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleHealth {
    /// Faults since the rule last executed cleanly.
    pub consecutive_faults: u32,
    /// Faults over the rule's lifetime.
    pub total_faults: u64,
    /// Quarantined rules are skipped by matching until
    /// [`Engine::clear_quarantine`] restores them.
    pub quarantined: bool,
}

/// Shared, atomically-updated fault state for one rule. The cells live in
/// `Arc`s that survive copy-on-write snapshot clones, so every session
/// observes the same counters and quarantine transitions happen exactly
/// once (compare-and-swap) no matter how many sessions fault the rule
/// concurrently.
#[derive(Debug, Default)]
struct HealthCell {
    consecutive: AtomicU32,
    total: AtomicU64,
    quarantined: AtomicBool,
}

impl HealthCell {
    fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    fn view(&self) -> RuleHealth {
        RuleHealth {
            consecutive_faults: self.consecutive.load(Ordering::Relaxed),
            total_faults: self.total.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Everything a dispatch produced.
#[derive(Debug, Clone)]
pub struct Outcome<P> {
    /// Customization payloads, in firing order.
    pub customizations: Vec<P>,
    /// Names of every rule that fired (interned — cloning is a pointer
    /// bump; see [`Outcome::fired_names`] for a `&str` view).
    pub fired: Vec<Arc<str>>,
    /// Total events processed (1 + cascaded).
    pub events_processed: usize,
    /// The execution trace (empty when tracing is off). Shared, not
    /// copied: the explanation log keeps this same `Arc`.
    pub trace: SharedTrace,
    /// Rule faults contained by [`FaultPolicy::FailOpen`], in order of
    /// occurrence (always empty under `FailClosed` — the first fault
    /// aborts).
    pub faults: Vec<FaultRecord>,
}

impl<P> Outcome<P> {
    /// The single selected customization, if any (the common case under
    /// `MostSpecific`).
    pub fn customization(&self) -> Option<&P> {
        self.customizations.first()
    }

    /// The fired rule names as plain string slices.
    pub fn fired_names(&self) -> Vec<&str> {
        self.fired.iter().map(|n| &**n).collect()
    }

    fn empty() -> Outcome<P> {
        Outcome {
            customizations: Vec::new(),
            fired: Vec::new(),
            events_processed: 0,
            trace: SharedTrace::default(),
            faults: Vec::new(),
        }
    }
}

/// Winner-cache statistics (see `:metrics` and `docs/dispatch.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dispatched events answered from the cache.
    pub hits: u64,
    /// Cacheable events that had to run customization matching.
    pub misses: u64,
    /// Times a rule mutation flushed a non-empty cache.
    pub invalidations: u64,
    /// Entries dropped by the capacity bound (generational eviction).
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

// ---------------------------------------------------------------------------
// Discrimination index
// ---------------------------------------------------------------------------

/// Rule indices bucketed by event-pattern discriminant. An event only
/// consults the buckets that can possibly match it, so wildcard-free rule
/// populations dispatch in time proportional to the matching candidates,
/// not the rule count.
#[derive(Debug, Default, Clone)]
struct Buckets {
    db_by_kind: HashMap<DbEventKind, Vec<usize>>,
    /// `Db` patterns with `kind: None` — match any database event.
    db_any: Vec<usize>,
    iface_by_name: HashMap<String, Vec<usize>>,
    /// `Interface` patterns with `name: None` (e.g. source-prefix only).
    iface_any: Vec<usize>,
    ext_by_name: HashMap<String, Vec<usize>>,
    ext_any: Vec<usize>,
    /// `EventPattern::Any` — consulted for every event.
    wildcard: Vec<usize>,
}

/// Visit the union of up to three ascending, disjoint index runs in
/// ascending order — the allocation-free replacement for the old
/// collect-into-scratch-then-sort candidate path, which dominated
/// cold-dispatch cost (`BENCH_dispatch.json` regression).
fn merge_runs(a: &[usize], b: &[usize], c: &[usize], f: &mut impl FnMut(usize)) {
    // Overwhelmingly common: at most one run is non-empty.
    match (a.is_empty(), b.is_empty(), c.is_empty()) {
        (false, true, true) => return a.iter().for_each(|&i| f(i)),
        (true, false, true) => return b.iter().for_each(|&i| f(i)),
        (true, true, false) => return c.iter().for_each(|&i| f(i)),
        (true, true, true) => return,
        _ => {}
    }
    let (mut ia, mut ib, mut ic) = (0, 0, 0);
    loop {
        let na = a.get(ia).copied().unwrap_or(usize::MAX);
        let nb = b.get(ib).copied().unwrap_or(usize::MAX);
        let nc = c.get(ic).copied().unwrap_or(usize::MAX);
        let m = na.min(nb).min(nc);
        if m == usize::MAX {
            return;
        }
        if m == na {
            ia += 1;
        } else if m == nb {
            ib += 1;
        } else {
            ic += 1;
        }
        f(m);
    }
}

impl Buckets {
    fn insert(&mut self, idx: usize, pattern: &EventPattern) {
        match pattern {
            EventPattern::Any => self.wildcard.push(idx),
            EventPattern::Db { kind: Some(k), .. } => {
                self.db_by_kind.entry(*k).or_default().push(idx)
            }
            EventPattern::Db { kind: None, .. } => self.db_any.push(idx),
            EventPattern::Interface { name: Some(n), .. } => {
                self.iface_by_name.entry(n.clone()).or_default().push(idx)
            }
            EventPattern::Interface { name: None, .. } => self.iface_any.push(idx),
            EventPattern::External { name: Some(n) } => {
                self.ext_by_name.entry(n.clone()).or_default().push(idx)
            }
            EventPattern::External { name: None } => self.ext_any.push(idx),
        }
    }

    /// Visit every candidate index for `event` in ascending registration
    /// order (the order the linear scan uses), without allocating.
    fn for_each_candidate(&self, event: &Event, f: &mut impl FnMut(usize)) {
        let empty: &[usize] = &[];
        let (keyed, any): (&[usize], &[usize]) = match event {
            Event::Db(e) => (
                self.db_by_kind.get(&e.kind()).map_or(empty, |v| v),
                &self.db_any,
            ),
            Event::Interface { name, .. } => (
                self.iface_by_name.get(name).map_or(empty, |v| v),
                &self.iface_any,
            ),
            Event::External { name } => (
                self.ext_by_name.get(name).map_or(empty, |v| v),
                &self.ext_any,
            ),
        };
        merge_runs(keyed, any, &self.wildcard, f);
    }

    fn buckets_mut(&mut self) -> impl Iterator<Item = &mut Vec<usize>> {
        self.db_by_kind
            .values_mut()
            .chain(self.iface_by_name.values_mut())
            .chain(self.ext_by_name.values_mut())
            .chain([
                &mut self.db_any,
                &mut self.iface_any,
                &mut self.ext_any,
                &mut self.wildcard,
            ])
    }

    /// Drop `removed` and shift every later index down by one.
    fn remove_index(&mut self, removed: usize) {
        for b in self.buckets_mut() {
            b.retain_mut(|v| {
                if *v == removed {
                    return false;
                }
                if *v > removed {
                    *v -= 1;
                }
                true
            });
        }
    }

    /// Drop a sorted batch of removed indices and remap the survivors.
    fn remap_removed(&mut self, removed: &[usize]) {
        for b in self.buckets_mut() {
            b.retain_mut(|v| match removed.binary_search(v) {
                Ok(_) => false,
                Err(shift) => {
                    *v -= shift;
                    true
                }
            });
        }
    }
}

#[derive(Debug, Default, Clone)]
struct RuleIndex {
    cust: Buckets,
    other: Buckets,
    /// Enabled customization rules the winner cache cannot represent
    /// (guard or extension-dimension conditions). While non-zero the
    /// cache is bypassed entirely.
    uncacheable_cust: usize,
}

impl RuleIndex {
    fn insert(&mut self, idx: usize, group: RuleGroup, pattern: &EventPattern) {
        if group == RuleGroup::Customization {
            self.cust.insert(idx, pattern);
        } else {
            self.other.insert(idx, pattern);
        }
    }

    fn remove_index(&mut self, removed: usize) {
        self.cust.remove_index(removed);
        self.other.remove_index(removed);
    }

    fn remap_removed(&mut self, removed: &[usize]) {
        self.cust.remap_removed(removed);
        self.other.remap_removed(removed);
    }
}

/// A customization rule whose match cannot be keyed by the winner cache:
/// guards see arbitrary state, and extension dimensions are outside the
/// cache key. Such rules must re-evaluate on every dispatch.
fn rule_uncacheable<P>(r: &Rule<P>) -> bool {
    r.group == RuleGroup::Customization && r.enabled && r.needs_interpreted_match()
}

// ---------------------------------------------------------------------------
// Winner cache
// ---------------------------------------------------------------------------

/// The event fields that rule patterns can observe, owned for storage in
/// a cache slot. Two events with equal keys match exactly the same
/// pattern set.
#[derive(Debug, Clone, PartialEq)]
enum EventKey {
    Db {
        kind: DbEventKind,
        schema: String,
        class: Option<String>,
    },
    Interface {
        name: String,
        source: String,
    },
    External {
        name: String,
    },
}

impl EventKey {
    fn of(event: &Event) -> EventKey {
        match event {
            Event::Db(e) => EventKey::Db {
                kind: e.kind(),
                schema: e.schema().to_string(),
                class: e.class().map(str::to_string),
            },
            Event::Interface { name, source } => EventKey::Interface {
                name: name.clone(),
                source: source.clone(),
            },
            Event::External { name } => EventKey::External { name: name.clone() },
        }
    }

    /// Borrow-compare against a live event (no allocation on the hit path).
    fn matches(&self, event: &Event) -> bool {
        match (self, event) {
            (
                EventKey::Db {
                    kind,
                    schema,
                    class,
                },
                Event::Db(e),
            ) => {
                *kind == e.kind() && schema.as_str() == e.schema() && class.as_deref() == e.class()
            }
            (
                EventKey::Interface { name, source },
                Event::Interface {
                    name: en,
                    source: es,
                },
            ) => name == en && source == es,
            (EventKey::External { name }, Event::External { name: en }) => name == en,
            _ => false,
        }
    }
}

/// Hash of the cache key `(event discriminant, user, category,
/// application)`, computed without allocating.
fn cache_key_hash(event: &Event, ctx: &SessionContext) -> u64 {
    let mut h = DefaultHasher::new();
    match event {
        Event::Db(e) => {
            0u8.hash(&mut h);
            e.kind().hash(&mut h);
            e.schema().hash(&mut h);
            e.class().hash(&mut h);
        }
        Event::Interface { name, source } => {
            1u8.hash(&mut h);
            name.hash(&mut h);
            source.hash(&mut h);
        }
        Event::External { name } => {
            2u8.hash(&mut h);
            name.hash(&mut h);
        }
    }
    ctx.user.hash(&mut h);
    ctx.category.hash(&mut h);
    ctx.application.hash(&mut h);
    h.finish()
}

/// A cached customization-matching result. Selection is cached in a
/// policy-independent form: the full matched set (ascending registration
/// order, what `FireAll` needs) plus the most-specific winner.
#[derive(Debug)]
struct CacheSlot {
    event: EventKey,
    user: String,
    category: String,
    application: String,
    matched_cust: Vec<usize>,
    winner: Option<usize>,
}

impl CacheSlot {
    fn matches(&self, event: &Event, ctx: &SessionContext) -> bool {
        self.user == ctx.user
            && self.category == ctx.category
            && self.application == ctx.application
            && self.event.matches(event)
    }
}

/// Bounded winner cache: two generational segments (`hot`, `cold`).
/// Inserts land in `hot`; when `hot` reaches half the configured
/// capacity the `cold` segment is discarded (counted in `evictions`)
/// and `hot` is demoted wholesale — a scan-resistant approximation of
/// LRU that costs O(1) per insert and never holds more than
/// `winner_cache_capacity` entries. Lookups probe `hot` then `cold`,
/// promoting cold hits back into `hot`, so a working set that fits in
/// capacity keeps hitting across demotions. Millions of distinct
/// `(event, user, category, application)` contexts therefore recycle a
/// fixed footprint instead of growing without bound.
#[derive(Debug, Default)]
struct WinnerCache {
    hot: HashMap<u64, Vec<CacheSlot>>,
    cold: HashMap<u64, Vec<CacheSlot>>,
    /// Packed-key segments used by the compiled tier: the key is the
    /// interned `(event discriminant, packed context)` pair, exact by
    /// construction — no slot verification, no string storage.
    phot: HashMap<(u64, u64), PackedSlot>,
    pcold: HashMap<(u64, u64), PackedSlot>,
    hot_len: usize,
    cold_len: usize,
    /// Rule-base epoch the contents were computed under.
    generation: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
}

impl WinnerCache {
    fn len(&self) -> usize {
        self.hot_len + self.cold_len
    }

    fn flush(&mut self) {
        self.hot.clear();
        self.cold.clear();
        self.phot.clear();
        self.pcold.clear();
        self.hot_len = 0;
        self.cold_len = 0;
    }

    fn lookup(&mut self, hash: u64, event: &Event, ctx: &SessionContext) -> Option<&CacheSlot> {
        let hot_pos = self
            .hot
            .get(&hash)
            .and_then(|v| v.iter().position(|s| s.matches(event, ctx)));
        if let Some(pos) = hot_pos {
            return self.hot.get(&hash).map(|v| &v[pos]);
        }
        // Cold hit: promote the slot into the hot segment so the live
        // working set survives the next demotion.
        let slot = {
            let v = self.cold.get_mut(&hash)?;
            let pos = v.iter().position(|s| s.matches(event, ctx))?;
            let s = v.swap_remove(pos);
            if v.is_empty() {
                self.cold.remove(&hash);
            }
            s
        };
        self.cold_len -= 1;
        self.hot_len += 1;
        let v = self.hot.entry(hash).or_default();
        v.push(slot);
        v.last()
    }

    fn insert(&mut self, hash: u64, slot: CacheSlot, capacity: usize) {
        self.demote_if_full(capacity);
        self.hot.entry(hash).or_default().push(slot);
        self.hot_len += 1;
    }

    /// Generational demotion shared by both key spaces: `hot_len` /
    /// `cold_len` count string- and packed-keyed slots together, so one
    /// demotion rotates both segment pairs and the configured capacity
    /// bounds the combined footprint.
    fn demote_if_full(&mut self, capacity: usize) {
        let segment = (capacity / 2).max(1);
        if self.hot_len >= segment {
            let dropped = self.cold_len;
            self.cold = std::mem::take(&mut self.hot);
            self.pcold = std::mem::take(&mut self.phot);
            self.cold_len = std::mem::replace(&mut self.hot_len, 0);
            self.evictions += dropped as u64;
        }
    }

    fn lookup_packed(&mut self, key: (u64, u64)) -> Option<&PackedSlot> {
        if self.phot.contains_key(&key) {
            return self.phot.get(&key);
        }
        let slot = self.pcold.remove(&key)?;
        self.cold_len -= 1;
        self.hot_len += 1;
        Some(self.phot.entry(key).or_insert(slot))
    }

    fn insert_packed(&mut self, key: (u64, u64), slot: PackedSlot, capacity: usize) {
        self.demote_if_full(capacity);
        if self.phot.insert(key, slot).is_none() {
            self.hot_len += 1;
        }
    }
}

/// A packed-key cached matching result (compiled tier): same payload as
/// [`CacheSlot`] minus the verification strings — the interned key is
/// collision-free while [`CompiledRules::cacheable`] holds.
#[derive(Debug)]
struct PackedSlot {
    matched_cust: Vec<usize>,
    winner: Option<usize>,
}

/// Reusable per-dispatch buffers. Private to the session handle, so the
/// hot loop allocates nothing once the buffers have warmed up — and no
/// other session ever contends on them.
#[derive(Debug, Default)]
struct Scratch {
    queue: VecDeque<QueuedEvent>,
    matched_cust: Vec<usize>,
    matched_other: Vec<usize>,
    to_fire: Vec<usize>,
    shadowed: Vec<usize>,
    /// A trace entry's matched rules, merged into registration order.
    traced: Vec<usize>,
    /// A trace entry's event description.
    describe: String,
}

// ---------------------------------------------------------------------------
// Shared rule base and published snapshots
// ---------------------------------------------------------------------------

/// A rule firing queued for [`Engine::flush_deferred`]: the rule's
/// interned name, its action, and the triggering event and context.
type DeferredFiring<P> = (Arc<str>, Arc<Action<P>>, Event, SessionContext);

/// One cascade-queue entry: depth, the event, and the interned name of
/// the rule whose action raised it (`None` for the root event). The
/// raiser is what lets a request trace link each cascade step back to
/// its cause.
type QueuedEvent = (usize, Event, Option<Arc<str>>);

/// The immutable rule data a dispatch reads: rules, interned names, the
/// name map, the discrimination index and the shared health cells.
/// Published copy-on-write — a snapshot is never mutated after another
/// session can observe it.
struct RuleSnapshot<P> {
    rules: Vec<Rule<P>>,
    /// Interned rule names, parallel to `rules`; firing clones a pointer.
    names: Vec<Arc<str>>,
    by_name: HashMap<String, usize>,
    index: RuleIndex,
    /// Shared fault-health cells, parallel to `rules`. The `Arc`s
    /// survive copy-on-write clones, so every session sees the same
    /// counters.
    health: Vec<Arc<HealthCell>>,
    /// Epoch at which this snapshot was published.
    generation: u64,
}

impl<P> RuleSnapshot<P> {
    fn empty() -> RuleSnapshot<P> {
        RuleSnapshot {
            rules: Vec::new(),
            names: Vec::new(),
            by_name: HashMap::new(),
            index: RuleIndex::default(),
            health: Vec::new(),
            generation: 0,
        }
    }
}

impl<P: Clone> Clone for RuleSnapshot<P> {
    fn clone(&self) -> Self {
        RuleSnapshot {
            rules: self.rules.clone(),
            names: self.names.clone(),
            by_name: self.by_name.clone(),
            index: self.index.clone(),
            health: self.health.clone(),
            generation: self.generation,
        }
    }
}

impl<P: Clone> RuleSnapshot<P> {
    fn add(&mut self, rule: Rule<P>) -> Result<(), ActiveError> {
        if self.by_name.contains_key(&rule.name) {
            return Err(ActiveError::DuplicateRule(rule.name.clone()));
        }
        let idx = self.rules.len();
        self.by_name.insert(rule.name.clone(), idx);
        self.names.push(Arc::from(rule.name.as_str()));
        self.index.insert(idx, rule.group, &rule.event);
        if rule_uncacheable(&rule) {
            self.index.uncacheable_cust += 1;
        }
        self.rules.push(rule);
        self.health.push(Arc::new(HealthCell::default()));
        Ok(())
    }

    fn remove(&mut self, name: &str, quarantined: &AtomicUsize) -> Result<Rule<P>, ActiveError> {
        let idx = self
            .by_name
            .remove(name)
            .ok_or_else(|| ActiveError::UnknownRule(name.to_string()))?;
        let rule = self.rules.remove(idx);
        self.names.remove(idx);
        if self.health.remove(idx).is_quarantined() {
            quarantined.fetch_sub(1, Ordering::Relaxed);
        }
        if rule_uncacheable(&rule) {
            self.index.uncacheable_cust -= 1;
        }
        self.index.remove_index(idx);
        for v in self.by_name.values_mut() {
            if *v > idx {
                *v -= 1;
            }
        }
        Ok(rule)
    }

    fn set_enabled(&mut self, name: &str, enabled: bool) -> Result<(), ActiveError> {
        let idx = *self
            .by_name
            .get(name)
            .ok_or_else(|| ActiveError::UnknownRule(name.to_string()))?;
        let was = rule_uncacheable(&self.rules[idx]);
        self.rules[idx].enabled = enabled;
        let now = rule_uncacheable(&self.rules[idx]);
        if now && !was {
            self.index.uncacheable_cust += 1;
        } else if was && !now {
            self.index.uncacheable_cust -= 1;
        }
        Ok(())
    }

    fn remove_prefix(&mut self, prefix: &str, quarantined: &AtomicUsize) -> usize {
        let removed: Vec<usize> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.name.starts_with(prefix))
            .map(|(i, _)| i)
            .collect();
        if removed.is_empty() {
            return 0;
        }
        for &i in &removed {
            if rule_uncacheable(&self.rules[i]) {
                self.index.uncacheable_cust -= 1;
            }
        }
        for &i in &removed {
            if self.health[i].is_quarantined() {
                quarantined.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.rules.retain(|r| !r.name.starts_with(prefix));
        let mut i = 0;
        self.names.retain(|_| {
            let keep = removed.binary_search(&i).is_err();
            i += 1;
            keep
        });
        let mut i = 0;
        self.health.retain(|_| {
            let keep = removed.binary_search(&i).is_err();
            i += 1;
            keep
        });
        self.by_name.retain(|n, _| !n.starts_with(prefix));
        for v in self.by_name.values_mut() {
            *v -= removed.partition_point(|&r| r < *v);
        }
        self.index.remap_removed(&removed);
        removed.len()
    }
}

/// State shared by every session handle of one rule base.
struct EngineShared<P> {
    /// The current snapshot. Writers lock, mutate copy-on-write
    /// (`Arc::make_mut` — in place when no reader still holds the old
    /// `Arc`), and bump `epoch` before unlocking.
    published: Mutex<Arc<RuleSnapshot<P>>>,
    /// Monotonic rule-base epoch: bumped by every rule mutation and by
    /// quarantine transitions (which invalidate winner caches without
    /// republishing the snapshot). Readers compare against their cached
    /// value — one atomic load per dispatch in the steady state.
    epoch: AtomicU64,
    /// A permanently-empty snapshot handles park their `Arc` on while
    /// mutating, so the published refcount can drop to one and
    /// `Arc::make_mut` avoids the deep clone.
    empty: Arc<RuleSnapshot<P>>,
    /// Dispatches served across every session (telemetry).
    dispatch_count: AtomicU64,
    /// Rule faults contained or surfaced across every session.
    rule_fault_count: AtomicU64,
    /// Rules currently quarantined (exact: transitions use
    /// compare-and-swap on the health cells).
    quarantined_count: AtomicUsize,
    /// The compiled-tier artifact for the current snapshot *content*
    /// generation, built lazily (or via [`RuleBase::precompile`]) and
    /// shared by every `Compiled` session. Keyed on
    /// `RuleSnapshot::generation`, not the epoch: quarantine flips bump
    /// the epoch only, and compiled tables are quarantine-agnostic
    /// (health is re-checked per candidate at dispatch).
    compiled: Mutex<Option<Arc<CompiledRules>>>,
    /// Recent snapshot deltas, so `ensure_compiled` can patch the
    /// standing artifact across single-rule mutations instead of
    /// recompiling (`compiled::patch`).
    patches: Mutex<PatchLog>,
}

/// Bounded log of snapshot deltas awaiting incremental application to
/// the compiled artifact. Entries chain `from_generation →
/// to_generation` in mutation order; [`PatchLog::chain`] extracts the
/// contiguous run between two generations, or `None` when part of the
/// run was evicted. The cap is deliberate: a bulk install floods the
/// log past it, breaking the chain — exactly the mutations that
/// *should* take the full-compile path.
#[derive(Default)]
struct PatchLog {
    deltas: VecDeque<(u64, u64, Delta)>,
}

const PATCH_LOG_CAP: usize = 32;

impl PatchLog {
    fn record(&mut self, from: u64, to: u64, delta: Delta) {
        if self.deltas.len() >= PATCH_LOG_CAP {
            self.deltas.pop_front();
        }
        self.deltas.push_back((from, to, delta));
    }

    fn chain(&self, from: u64, to: u64) -> Option<Vec<Delta>> {
        let mut cur = from;
        let mut out = Vec::new();
        for (f, t, d) in &self.deltas {
            if *t <= from {
                continue;
            }
            if *f != cur {
                return None;
            }
            out.push(d.clone());
            cur = *t;
            if cur == to {
                return Some(out);
            }
        }
        None
    }

    /// Deltas at or below `upto` can never be needed again once an
    /// artifact for that generation exists.
    fn prune(&mut self, upto: u64) {
        self.deltas.retain(|(_, t, _)| *t > upto);
    }
}

impl<P> EngineShared<P> {
    fn new() -> EngineShared<P> {
        let empty = Arc::new(RuleSnapshot::empty());
        EngineShared {
            published: Mutex::new(Arc::clone(&empty)),
            epoch: AtomicU64::new(0),
            empty,
            dispatch_count: AtomicU64::new(0),
            rule_fault_count: AtomicU64::new(0),
            quarantined_count: AtomicUsize::new(0),
            compiled: Mutex::new(None),
            patches: Mutex::new(PatchLog::default()),
        }
    }
}

/// Fetch (or build) the compiled artifact for `snap`'s content
/// generation. The compile itself runs at most once per generation per
/// base — concurrent sessions serialize on the artifact lock, and
/// whoever arrives first pays the (measured, reported) compile cost;
/// everyone else clones an `Arc`.
fn ensure_compiled<P>(shared: &EngineShared<P>, snap: &RuleSnapshot<P>) -> Arc<CompiledRules> {
    let mut slot = shared.compiled.lock().unwrap();
    if let Some(c) = slot.as_ref() {
        if c.generation == snap.generation {
            return Arc::clone(c);
        }
        // Single-rule mutations recorded a delta chain: splice it into
        // the standing artifact (`compiled::patch`) instead of paying a
        // full recompile. Falls through on any unpatchable delta.
        let chain = shared
            .patches
            .lock()
            .unwrap()
            .chain(c.generation, snap.generation);
        if let Some(chain) = chain {
            let t0 = std::time::Instant::now();
            if let Some(mut patched) = patch(c, &chain, snap.generation) {
                let ns = t0.elapsed().as_nanos() as u64;
                patched.stats.compile_ns = ns;
                if obs::enabled() {
                    obs::counter_add("engine.compile_patches", 1);
                    obs::record_nanos("engine.patch_latency", ns);
                }
                let built = Arc::new(patched);
                *slot = Some(Arc::clone(&built));
                shared.patches.lock().unwrap().prune(snap.generation);
                return built;
            }
        }
    }
    let t0 = std::time::Instant::now();
    let mut built = compile(&snap.rules, snap.generation);
    let ns = t0.elapsed().as_nanos() as u64;
    built.stats.compile_ns = ns;
    if obs::enabled() {
        obs::counter_add("engine.compiles", 1);
        obs::record_nanos("engine.compile_latency", ns);
    }
    let built = Arc::new(built);
    *slot = Some(Arc::clone(&built));
    shared.patches.lock().unwrap().prune(snap.generation);
    built
}

/// A cloneable, `Send + Sync` handle to a shared rule base. Each call to
/// [`RuleBase::session`] yields an independent [`Engine`] handle — same
/// rules, private winner cache / scratch / deferred queue — that can be
/// moved to another thread and dispatched in parallel with every other
/// session.
pub struct RuleBase<P> {
    shared: Arc<EngineShared<P>>,
    config: EngineConfig,
}

impl<P> Clone for RuleBase<P> {
    fn clone(&self) -> Self {
        RuleBase {
            shared: Arc::clone(&self.shared),
            config: self.config,
        }
    }
}

impl<P: Clone> Default for RuleBase<P> {
    fn default() -> Self {
        RuleBase::new()
    }
}

impl<P: Clone> RuleBase<P> {
    pub fn new() -> RuleBase<P> {
        RuleBase::with_config(EngineConfig::default())
    }

    pub fn with_config(config: EngineConfig) -> RuleBase<P> {
        RuleBase {
            shared: Arc::new(EngineShared::new()),
            config,
        }
    }

    /// Open a new session handle with the base's default configuration.
    pub fn session(&self) -> Engine<P> {
        Engine::from_shared(Arc::clone(&self.shared), self.config)
    }

    /// Open a session with its own configuration (strategy, selection,
    /// fault policy… are all per session).
    pub fn session_with(&self, config: EngineConfig) -> Engine<P> {
        Engine::from_shared(Arc::clone(&self.shared), config)
    }

    /// Current rule-base epoch (bumped by every mutation and quarantine
    /// transition).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Dispatches served across every session of this base.
    pub fn total_dispatches(&self) -> u64 {
        self.shared.dispatch_count.load(Ordering::Relaxed)
    }

    /// Rule faults contained or surfaced across every session.
    pub fn rule_faults(&self) -> u64 {
        self.shared.rule_fault_count.load(Ordering::Relaxed)
    }

    /// Rules currently quarantined across the base.
    pub fn quarantined_count(&self) -> usize {
        self.shared.quarantined_count.load(Ordering::Relaxed)
    }

    /// The configuration sessions opened via [`RuleBase::session`] get.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Compile the current snapshot eagerly (idempotent per content
    /// generation). Call after a batch of rule mutations to take the
    /// one-time compile cost here instead of on the first compiled
    /// dispatch that follows the epoch flip.
    pub fn precompile(&self) -> CompileStats {
        let snap = Arc::clone(&self.shared.published.lock().unwrap());
        ensure_compiled(&self.shared, &snap).stats
    }

    /// Stats of the most recent compile, if any session (or
    /// [`RuleBase::precompile`]) has compiled yet.
    pub fn compiled_stats(&self) -> Option<CompileStats> {
        self.shared
            .compiled
            .lock()
            .unwrap()
            .as_ref()
            .map(|c| c.stats)
    }

    /// Drop the cached compiled artifact: the next compiled dispatch
    /// (or [`RuleBase::precompile`]) pays a full compile, never an
    /// incremental patch. Reclaims artifact memory on an idle base;
    /// benchmarks also use it to compare full-compile cost against the
    /// patch path.
    pub fn invalidate_compiled(&self) {
        *self.shared.compiled.lock().unwrap() = None;
    }
}

/// Per-session mutable state: nothing in here is ever observed by
/// another session.
struct SessionState<P> {
    cache: WinnerCache,
    /// Firings queued by rules with deferred coupling.
    deferred: Vec<DeferredFiring<P>>,
    scratch: Scratch,
    /// Dispatches served by this handle.
    dispatch_count: u64,
    /// Session memo of the shared compiled artifact, refreshed when the
    /// snapshot's content generation moves — steady-state compiled
    /// dispatch touches no lock.
    compiled: Option<Arc<CompiledRules>>,
}

impl<P> Default for SessionState<P> {
    fn default() -> Self {
        SessionState {
            cache: WinnerCache::default(),
            deferred: Vec::new(),
            scratch: Scratch::default(),
            dispatch_count: 0,
            compiled: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine (session handle)
// ---------------------------------------------------------------------------

/// The active mechanism: a session handle over a shared [`RuleBase`].
///
/// A freshly constructed `Engine` owns a brand-new rule base; additional
/// sessions over the same rules come from [`Engine::session`] /
/// [`Engine::rule_base`]. All rule-management and dispatch methods keep
/// their single-threaded signatures — a lone handle behaves exactly like
/// the historical single-threaded engine.
pub struct Engine<P> {
    shared: Arc<EngineShared<P>>,
    /// Cached snapshot; revalidated against `shared.epoch` with one
    /// atomic load per dispatch (no lock, no refcount traffic while the
    /// rule base is quiescent).
    snap: Arc<RuleSnapshot<P>>,
    /// `shared.epoch` value `snap` was cached at.
    snap_epoch: u64,
    /// Refresh `snap` automatically at each dispatch (default). Turn
    /// off to pin a snapshot for deterministic comparisons, then call
    /// [`Engine::sync`] / [`Engine::sync_with`] explicitly.
    auto_sync: bool,
    config: EngineConfig,
    state: SessionState<P>,
}

impl<P: Clone> Default for Engine<P> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<P: Clone> Engine<P> {
    pub fn new() -> Engine<P> {
        Engine::with_config(EngineConfig::default())
    }

    pub fn with_config(config: EngineConfig) -> Engine<P> {
        Engine::from_shared(Arc::new(EngineShared::new()), config)
    }

    fn from_shared(shared: Arc<EngineShared<P>>, config: EngineConfig) -> Engine<P> {
        let snap = Arc::clone(&shared.published.lock().unwrap());
        let snap_epoch = shared.epoch.load(Ordering::Acquire);
        Engine {
            shared,
            snap,
            snap_epoch,
            auto_sync: true,
            config,
            state: SessionState::default(),
        }
    }

    /// A cloneable handle to this engine's shared rule base; hand it to
    /// other threads and open [`RuleBase::session`]s there.
    pub fn rule_base(&self) -> RuleBase<P> {
        RuleBase {
            shared: Arc::clone(&self.shared),
            config: self.config,
        }
    }

    /// Open another session over the same rule base (same configuration
    /// as this handle; private cache/scratch/deferred state).
    pub fn session(&self) -> Engine<P> {
        Engine::from_shared(Arc::clone(&self.shared), self.config)
    }

    pub fn config(&self) -> EngineConfig {
        self.config
    }

    pub fn set_selection(&mut self, policy: SelectionPolicy) {
        if self.config.selection != policy {
            // Compiled-tier cache slots recorded under MostSpecific with
            // tracing off carry only the winner (early-exit); they are
            // not valid under FireAll. Policy changes are rare — flush.
            self.state.cache.flush();
        }
        self.config.selection = policy;
    }

    pub fn strategy(&self) -> DispatchStrategy {
        self.config.strategy
    }

    pub fn set_strategy(&mut self, strategy: DispatchStrategy) {
        if self.config.strategy != strategy {
            // String- and packed-key slots don't carry over between
            // strategies; start the new arm cold.
            self.state.cache.flush();
        }
        self.config.strategy = strategy;
    }

    pub fn fault_policy(&self) -> FaultPolicy {
        self.config.fault_policy
    }

    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.config.fault_policy = policy;
    }

    /// Whether dispatch refreshes the cached snapshot automatically.
    pub fn auto_sync(&self) -> bool {
        self.auto_sync
    }

    /// Pin (`false`) or auto-refresh (`true`) the cached rule snapshot.
    pub fn set_auto_sync(&mut self, on: bool) {
        self.auto_sync = on;
    }

    /// Refresh the cached snapshot to the latest published epoch.
    pub fn sync(&mut self) {
        self.sync_snapshot();
    }

    /// Adopt `other`'s exact snapshot (both handles must come from the
    /// same rule base) — the tool differential tests use to compare two
    /// strategies over a bitwise-identical rule view while a writer
    /// mutates concurrently.
    pub fn sync_with(&mut self, other: &Engine<P>) {
        assert!(
            Arc::ptr_eq(&self.shared, &other.shared),
            "sync_with requires sessions of the same rule base"
        );
        self.snap = Arc::clone(&other.snap);
        self.snap_epoch = other.snap_epoch;
    }

    /// Rule faults contained or surfaced across every session of the
    /// rule base (including `engine.cascade` pseudo-rule faults).
    pub fn rule_faults(&self) -> u64 {
        self.shared.rule_fault_count.load(Ordering::Relaxed)
    }

    /// Names of every quarantined rule, in registration order (as seen
    /// by this handle's snapshot).
    pub fn quarantined(&self) -> Vec<&str> {
        self.snap
            .health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_quarantined())
            .map(|(i, _)| &*self.snap.names[i])
            .collect()
    }

    /// Fault bookkeeping for one rule.
    pub fn rule_health(&self, name: &str) -> Option<RuleHealth> {
        self.snap
            .by_name
            .get(name)
            .map(|&i| self.snap.health[i].view())
    }

    /// Lift a rule's quarantine and reset its fault counters. The rule
    /// participates in matching again from the next dispatch, in every
    /// session.
    pub fn clear_quarantine(&mut self, name: &str) -> Result<(), ActiveError> {
        self.sync_snapshot();
        let idx = *self
            .snap
            .by_name
            .get(name)
            .ok_or_else(|| ActiveError::UnknownRule(name.to_string()))?;
        let cell = &self.snap.health[idx];
        if cell.quarantined.swap(false, Ordering::AcqRel) {
            self.shared
                .quarantined_count
                .fetch_sub(1, Ordering::Relaxed);
        }
        cell.consecutive.store(0, Ordering::Relaxed);
        cell.total.store(0, Ordering::Relaxed);
        // Quarantine state feeds cached winners: bump the epoch so every
        // session flushes its winner cache before trusting them again.
        self.snap_epoch = self.shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(())
    }

    /// Number of dispatches served by this session handle.
    pub fn dispatches(&self) -> u64 {
        self.state.dispatch_count
    }

    /// Rule-base epoch: bumped on every rule mutation (and quarantine
    /// transition).
    pub fn rules_generation(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Flush this session's winner cache because an input *outside* the
    /// rule base changed — e.g. the serving layer published a new
    /// database epoch. Cached winners are keyed by (event, user,
    /// category, application) and invalidated lazily on rule-generation
    /// changes; a db-epoch change is an orthogonal axis the generation
    /// cannot see, so callers invalidate explicitly through this hook.
    pub fn invalidate_winner_cache(&mut self) {
        if self.state.cache.len() > 0 {
            self.state.cache.flush();
            self.state.cache.invalidations += 1;
            if obs::enabled() {
                obs::counter_add("engine.winner_cache_invalidations", 1);
            }
        }
    }

    /// Winner-cache counters and current size (this session's cache —
    /// each session caches independently).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.state.cache.hits,
            misses: self.state.cache.misses,
            invalidations: self.state.cache.invalidations,
            evictions: self.state.cache.evictions,
            entries: self.state.cache.len(),
        }
    }

    /// Compile the current snapshot eagerly and memoize the artifact on
    /// this session (idempotent per content generation). Returns the
    /// compile stats — of the fresh compile, or of the shared artifact
    /// when another session already paid for this generation.
    pub fn precompile(&mut self) -> CompileStats {
        self.sync_snapshot();
        let built = ensure_compiled(&self.shared, &self.snap);
        let stats = built.stats;
        self.state.compiled = Some(built);
        stats
    }

    /// Stats of the most recent compile of this rule base, if any
    /// session has compiled yet (`None` before the first compiled
    /// dispatch / [`Engine::precompile`]).
    pub fn compiled_stats(&self) -> Option<CompileStats> {
        self.shared
            .compiled
            .lock()
            .unwrap()
            .as_ref()
            .map(|c| c.stats)
    }

    fn sync_snapshot(&mut self) {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch == self.snap_epoch {
            return;
        }
        let guard = self.shared.published.lock().unwrap();
        self.snap = Arc::clone(&guard);
        // Re-read under the lock: mutations bump the epoch before they
        // unlock, so this value is consistent with the snapshot we took.
        self.snap_epoch = self.shared.epoch.load(Ordering::Acquire);
    }

    /// Run a mutation against the published snapshot copy-on-write and
    /// (on success, if it yields a [`Delta`]) bump the epoch and record
    /// the delta for incremental recompilation. The handle's own cached
    /// snapshot is parked on the shared empty sentinel for the duration
    /// so a lone session mutates in place instead of deep-cloning.
    fn try_mutate<R>(
        &mut self,
        f: impl FnOnce(
            &mut RuleSnapshot<P>,
            &EngineShared<P>,
        ) -> Result<(R, Option<Delta>), ActiveError>,
    ) -> Result<R, ActiveError> {
        let shared = Arc::clone(&self.shared);
        let mut guard = shared.published.lock().unwrap();
        self.snap = Arc::clone(&shared.empty);
        let result = {
            let snap = Arc::make_mut(&mut *guard);
            match f(snap, &shared) {
                Ok((r, delta)) => {
                    if let Some(delta) = delta {
                        let from = snap.generation;
                        snap.generation = shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
                        shared
                            .patches
                            .lock()
                            .unwrap()
                            .record(from, snap.generation, delta);
                    }
                    Ok(r)
                }
                Err(e) => Err(e),
            }
        };
        self.snap = Arc::clone(&guard);
        self.snap_epoch = shared.epoch.load(Ordering::Acquire);
        result
    }

    // -- rule management ----------------------------------------------------

    /// Register a rule; names must be unique across the rule base.
    pub fn add_rule(&mut self, rule: Rule<P>) -> Result<(), ActiveError> {
        self.try_mutate(|snap, _| {
            let idx = snap.rules.len() as u32;
            let lite = RuleLite::of(&rule);
            snap.add(rule)?;
            Ok(((), Some(Delta::Add { idx, rule: lite })))
        })
    }

    /// Register many rules (e.g. the output of the customization compiler).
    pub fn add_rules(
        &mut self,
        rules: impl IntoIterator<Item = Rule<P>>,
    ) -> Result<(), ActiveError> {
        for r in rules {
            self.add_rule(r)?;
        }
        Ok(())
    }

    /// Remove a rule by name. Later rules shift down one slot; the name
    /// map and index buckets are adjusted in place (no rebuild).
    pub fn remove_rule(&mut self, name: &str) -> Result<Rule<P>, ActiveError> {
        self.try_mutate(|snap, shared| {
            let idx = snap.by_name.get(name).copied();
            let rule = snap.remove(name, &shared.quarantined_count)?;
            let idx = idx.expect("remove succeeded, so the name resolved") as u32;
            let was_enabled = rule.enabled;
            Ok((rule, Some(Delta::Remove { idx, was_enabled })))
        })
    }

    /// Enable or disable a rule in place.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> Result<(), ActiveError> {
        self.try_mutate(|snap, _| {
            let idx = *snap
                .by_name
                .get(name)
                .ok_or_else(|| ActiveError::UnknownRule(name.to_string()))?;
            let was = snap.rules[idx].enabled;
            snap.set_enabled(name, enabled)?;
            let delta = if was == enabled {
                Delta::Noop
            } else if enabled {
                Delta::Enable {
                    idx: idx as u32,
                    rule: RuleLite::of(&snap.rules[idx]),
                }
            } else {
                Delta::Disable { idx: idx as u32 }
            };
            Ok(((), Some(delta)))
        })
    }

    /// Change a rule's designer priority in place. This is the
    /// hot-reload path: the compiled artifact is patched (candidates
    /// repositioned in their pre-sorted lists), not recompiled.
    pub fn set_priority(&mut self, name: &str, priority: i32) -> Result<(), ActiveError> {
        self.try_mutate(|snap, _| {
            let idx = *snap
                .by_name
                .get(name)
                .ok_or_else(|| ActiveError::UnknownRule(name.to_string()))?;
            let rule = &mut snap.rules[idx];
            let delta = if rule.priority == priority || !rule.enabled {
                rule.priority = priority;
                Delta::Noop
            } else {
                rule.priority = priority;
                Delta::Priority {
                    idx: idx as u32,
                    priority,
                    spec: rule.specificity(),
                }
            };
            Ok(((), Some(delta)))
        })
    }

    pub fn rule(&self, name: &str) -> Option<&Rule<P>> {
        self.snap.by_name.get(name).map(|&i| &self.snap.rules[i])
    }

    pub fn rules(&self) -> &[Rule<P>] {
        &self.snap.rules
    }

    pub fn len(&self) -> usize {
        self.snap.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.snap.rules.is_empty()
    }

    /// Drop every rule whose name starts with `prefix`; returns how many
    /// were removed. (Recompiling a customization program replaces its
    /// rule family this way.) Surviving entries are remapped in place.
    pub fn remove_rules_with_prefix(&mut self, prefix: &str) -> usize {
        self.try_mutate(|snap, shared| {
            let n = snap.remove_prefix(prefix, &shared.quarantined_count);
            Ok((n, (n > 0).then_some(Delta::Bulk)))
        })
        .expect("prefix removal is infallible")
    }

    // -- dispatch -----------------------------------------------------------

    /// Feed one event through the rule set for a session context.
    ///
    /// Dispatch is transactional with respect to the deferred queue: an
    /// aborted dispatch (`CascadeOverflow`, or `RuleFault` under
    /// [`FaultPolicy::FailClosed`]) rolls back every deferred firing it
    /// queued, so no partial transaction state survives the error.
    pub fn dispatch(
        &mut self,
        event: Event,
        ctx: &SessionContext,
    ) -> Result<Outcome<P>, ActiveError> {
        if self.auto_sync {
            self.sync_snapshot();
        }
        if self.config.strategy == DispatchStrategy::Compiled
            && self.snap.rules.len() > self.config.hybrid_linear_threshold
            && self
                .state
                .compiled
                .as_ref()
                .is_none_or(|c| c.generation != self.snap.generation)
        {
            // Content generation moved (or first compiled dispatch):
            // refresh the session memo from the shared artifact cache.
            // This — not the per-event hot loop — is where compile cost
            // lands, once per generation per base.
            self.state.compiled = Some(ensure_compiled(&self.shared, &self.snap));
        }
        let deferred_mark = self.state.deferred.len();
        let Engine {
            shared,
            snap,
            snap_epoch,
            config,
            state,
            ..
        } = self;
        let result = dispatch_inner(shared, snap, snap_epoch, config, state, event, ctx, None);
        if result.is_err() {
            self.state.deferred.truncate(deferred_mark);
        }
        result
    }

    /// Feed a batch of events through the rule set for one session
    /// context, amortizing per-event dispatch overhead across runs of
    /// identical events. The server sorts its batches by event
    /// discriminant, so runs are long: the batch lane resolves the
    /// packed context key once per batch, and the jump-table route and
    /// customization selection once per run — later events in the run
    /// replay them instead of re-hashing. Metric tallies flush once per
    /// batch.
    ///
    /// Semantics are identical to calling [`Engine::dispatch`] per
    /// event in order, with one pinning difference: the snapshot is
    /// refreshed once at batch start, not per event. Each event is its
    /// own transaction (an aborted event rolls back only its own
    /// deferred firings), later events still run when an earlier one
    /// errors, and a mid-batch quarantine trip bumps the epoch, which
    /// invalidates the lane's selection memo — quarantine takes effect
    /// from the very next event, exactly as in the per-event path.
    pub fn dispatch_batch(
        &mut self,
        events: impl IntoIterator<Item = Event>,
        ctx: &SessionContext,
    ) -> Vec<Result<Outcome<P>, ActiveError>> {
        let _span = obs::span("engine.dispatch_batch");
        if self.auto_sync {
            self.sync_snapshot();
        }
        if self.config.strategy == DispatchStrategy::Compiled
            && self.snap.rules.len() > self.config.hybrid_linear_threshold
            && self
                .state
                .compiled
                .as_ref()
                .is_none_or(|c| c.generation != self.snap.generation)
        {
            self.state.compiled = Some(ensure_compiled(&self.shared, &self.snap));
        }
        let mut lane = BatchLane::default();
        let events = events.into_iter();
        let mut results = Vec::with_capacity(events.size_hint().0);
        {
            let Engine {
                shared,
                snap,
                snap_epoch,
                config,
                state,
                ..
            } = self;
            for event in events {
                let deferred_mark = state.deferred.len();
                let r = dispatch_inner(
                    shared,
                    snap,
                    snap_epoch,
                    config,
                    state,
                    event,
                    ctx,
                    Some(&mut lane),
                );
                if r.is_err() {
                    state.deferred.truncate(deferred_mark);
                }
                results.push(r);
            }
            shared
                .dispatch_count
                .fetch_add(results.len() as u64, Ordering::Relaxed);
        }
        flush_batch_tallies(&lane.tallies, self.state.deferred.len());
        results
    }

    /// Number of deferred firings awaiting [`Self::flush_deferred`].
    pub fn pending_deferred(&self) -> usize {
        self.state.deferred.len()
    }

    /// Drop queued deferred firings without running them (rollback).
    pub fn clear_deferred(&mut self) {
        self.state.deferred.clear();
    }

    /// Execute every queued deferred firing (the "end of transaction"
    /// point). Events raised by deferred actions dispatch normally —
    /// immediate rules run inline, deferred ones re-queue.
    pub fn flush_deferred(&mut self) -> Result<Outcome<P>, ActiveError> {
        let _span = obs::span("engine.flush_deferred");
        if self.auto_sync {
            self.sync_snapshot();
        }
        let drained = std::mem::take(&mut self.state.deferred);
        if obs::enabled() {
            obs::counter_add("engine.deferred_flushed", drained.len() as u64);
        }
        let mut outcome = Outcome::empty();
        let mut trace = Vec::new();
        for (name, action, event, ctx) in drained {
            outcome.fired.push(Arc::clone(&name));
            // Each deferred firing joins the active request trace (if
            // any) as a child span naming the rule whose firing was
            // deferred — deferred causality survives the flush.
            let _firing_span = if obs::trace_recording() {
                let guard = obs::trace_child("engine.deferred_fire");
                obs::trace_annotate("rule", name.to_string());
                obs::trace_annotate("event", event.describe());
                Some(guard)
            } else {
                None
            };
            let mut queue: VecDeque<QueuedEvent> = VecDeque::new();
            if let Err(cause) = run_action(
                &action,
                &event,
                &ctx,
                0,
                Some(&name),
                &mut queue,
                &mut outcome.customizations,
            ) {
                outcome.faults.push(FaultRecord {
                    rule: name.to_string(),
                    depth: 0,
                    cause: cause.clone(),
                });
                // The rule may have been removed since it was deferred.
                if self.snap.by_name.contains_key(&*name) {
                    let idx = self.snap.by_name[&*name];
                    let Engine {
                        shared,
                        snap,
                        snap_epoch,
                        config,
                        state,
                        ..
                    } = self;
                    note_fault(shared, snap, snap_epoch, config, &mut state.cache, idx);
                } else {
                    note_anonymous_fault(&self.shared);
                }
                if self.config.fault_policy == FaultPolicy::FailClosed {
                    return Err(ActiveError::RuleFault {
                        rule: name.to_string(),
                        depth: 0,
                        cause,
                    });
                }
                continue;
            }
            if let Some(&idx) = self.snap.by_name.get(&*name) {
                self.snap.health[idx]
                    .consecutive
                    .store(0, Ordering::Relaxed);
            }
            while let Some((_, raised, _)) = queue.pop_front() {
                let sub = self.dispatch(raised, &ctx)?;
                outcome.customizations.extend(sub.customizations);
                outcome.fired.extend(sub.fired);
                outcome.events_processed += sub.events_processed;
                trace.extend(sub.trace.entries.iter().cloned());
            }
        }
        outcome.trace = trace.into();
        Ok(outcome)
    }
}

/// Record a fault against rule `idx`; returns `true` if this fault
/// tripped the circuit breaker (quarantined the rule). Quarantine is a
/// global transition: the compare-and-swap guarantees exactly one
/// session wins it and increments the shared count, no matter how many
/// sessions fault the rule concurrently.
fn note_fault<P>(
    shared: &EngineShared<P>,
    snap: &RuleSnapshot<P>,
    snap_epoch: &mut u64,
    config: &EngineConfig,
    cache: &mut WinnerCache,
    idx: usize,
) -> bool {
    shared.rule_fault_count.fetch_add(1, Ordering::Relaxed);
    obs::trace_mark_fault();
    if obs::enabled() {
        obs::counter_add("engine.rule_faults", 1);
    }
    let cell = &snap.health[idx];
    cell.total.fetch_add(1, Ordering::Relaxed);
    let consecutive = cell.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
    let threshold = config.quarantine_threshold;
    if threshold == 0 || consecutive < threshold {
        return false;
    }
    if cell.quarantined.swap(true, Ordering::AcqRel) {
        return false;
    }
    shared.quarantined_count.fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        obs::counter_add("engine.quarantined_rules", 1);
    }
    // Quarantine is a rule-visibility mutation. Bump the epoch so every
    // session flushes its winner cache, and flush our own eagerly (not
    // lazily at the next dispatch) so no stale slot naming the
    // quarantined rule can answer later events of this same cascade.
    *snap_epoch = shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
    if cache.len() > 0 {
        cache.flush();
        cache.invalidations += 1;
    }
    cache.generation = *snap_epoch;
    true
}

/// Record a fault not attributable to one rule (the `engine.cascade`
/// failpoint).
fn note_anonymous_fault<P>(shared: &EngineShared<P>) {
    shared.rule_fault_count.fetch_add(1, Ordering::Relaxed);
    obs::trace_mark_fault();
    if obs::enabled() {
        obs::counter_add("engine.rule_faults", 1);
    }
}

/// Cross-event memo for [`Engine::dispatch_batch`]: everything the
/// batch lane amortizes across a run of identical root events under one
/// context. The compiled artifact is pinned for the whole batch
/// (`dispatch_batch` refreshes the session memo once, and content
/// generations cannot move mid-batch — the batch holds `&mut self`), so
/// the packed context key and route stay valid batch-wide; the
/// selection memo is additionally keyed on the epoch, which quarantine
/// trips bump, so health changes invalidate it between events.
#[derive(Default)]
struct BatchLane {
    /// Packed context key, computed on first compiled use.
    ctx_packed: Option<u64>,
    /// The last root event and the jump-table route it resolved to.
    route: Option<(Event, EventIds)>,
    /// Memoized customization selection (matched set + winner) for the
    /// memoized route — the packed winner-cache slot, without the probe.
    selection: Option<(Vec<usize>, Option<usize>)>,
    /// Epoch `selection` was recorded under.
    epoch: u64,
    /// Per-batch metric tallies, flushed to the registry once.
    tallies: BatchTallies,
}

/// Dispatch metric tallies accumulated across a batch so the registry
/// (one hash lookup + atomic per counter) is touched once per batch
/// instead of once per event.
#[derive(Default)]
struct BatchTallies {
    dispatches: u64,
    considered: u64,
    matched: u64,
    fired: u64,
    shadowed: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    max_cascade_depth: u64,
    arm_cached: u64,
    arm_compiled: u64,
    arm_indexed: u64,
    arm_linear: u64,
}

fn flush_batch_tallies(t: &BatchTallies, deferred_len: usize) {
    if t.dispatches == 0 || !obs::enabled() {
        return;
    }
    let shard = obs::current_shard().to_string();
    for (arm, n) in [
        ("cached", t.arm_cached),
        ("compiled", t.arm_compiled),
        ("indexed", t.arm_indexed),
        ("linear", t.arm_linear),
    ] {
        if n > 0 {
            obs::counter_add_labeled("engine.dispatches_by_arm", &[("arm", arm)], n);
        }
    }
    obs::counter_add_labeled(
        "engine.winner_cache_hits_by_shard",
        &[("shard", &shard)],
        t.hits,
    );
    obs::counter_add_labeled(
        "engine.winner_cache_misses_by_shard",
        &[("shard", &shard)],
        t.misses,
    );
    obs::counter_add("engine.dispatches", t.dispatches);
    obs::counter_add("engine.rules_considered", t.considered);
    obs::counter_add("engine.rules_matched", t.matched);
    obs::counter_add("engine.rules_fired", t.fired);
    obs::counter_add("engine.rules_shadowed", t.shadowed);
    obs::counter_add("engine.winner_cache_hits", t.hits);
    obs::counter_add("engine.winner_cache_misses", t.misses);
    obs::counter_add("engine.winner_cache_evictions", t.evictions);
    obs::record_value("engine.cascade_depth", t.max_cascade_depth);
    obs::record_value("engine.deferred_queue_depth", deferred_len as u64);
}

#[allow(clippy::too_many_arguments)]
fn dispatch_inner<P: Clone>(
    shared: &EngineShared<P>,
    snap: &RuleSnapshot<P>,
    snap_epoch: &mut u64,
    config: &EngineConfig,
    state: &mut SessionState<P>,
    event: Event,
    ctx: &SessionContext,
    mut lane: Option<&mut BatchLane>,
) -> Result<Outcome<P>, ActiveError> {
    // Batched events share one `engine.dispatch_batch` span instead of
    // a span apiece.
    let _span = if lane.is_none() {
        Some(obs::span("engine.dispatch"))
    } else {
        None
    };
    state.dispatch_count += 1;
    if lane.is_none() {
        // Batched events are added to the shard-shared count once per
        // batch, by `dispatch_batch`.
        shared.dispatch_count.fetch_add(1, Ordering::Relaxed);
    }
    let SessionState {
        cache,
        deferred,
        scratch: s,
        compiled: compiled_memo,
        ..
    } = state;
    // Per-dispatch tallies, flushed to the metrics registry once at
    // the end so the hot loop costs plain integer adds.
    let mut m_considered = 0u64;
    let mut m_matched = 0u64;
    let mut m_fired = 0u64;
    let mut m_shadowed = 0u64;
    let mut m_hits = 0u64;
    let mut m_misses = 0u64;
    let mut m_max_depth = 0usize;
    let evictions_before = cache.evictions;

    // Below the hybrid threshold neither the discrimination index nor
    // the compiled tables can beat a straight scan of the rule vector;
    // the winner cache stays active either way.
    let small = snap.rules.len() <= config.hybrid_linear_threshold;
    let scan_all = config.strategy == DispatchStrategy::Linear || small;
    // The compiled tables for this snapshot generation, when this
    // session runs the compiled tier above the threshold. `dispatch()`
    // refreshes the memo before calling in; a `None` here (direct
    // `dispatch_inner` reentry after an unseen generation flip) falls
    // back to the discrimination index for this dispatch.
    let compiled: Option<&CompiledRules> =
        if config.strategy == DispatchStrategy::Compiled && !small {
            compiled_memo
                .as_deref()
                .filter(|c| c.generation == snap.generation)
        } else {
            None
        };
    // The cache is only sound while every enabled customization rule
    // is a pure function of the cache key.
    let cache_ok = config.strategy != DispatchStrategy::Linear && snap.index.uncacheable_cust == 0;
    // The compiled tier upgrades the cache key to the interned packed
    // form: no hashing of strings, no slot verification on hit.
    let packed_ok = cache_ok && compiled.is_some_and(|c| c.cacheable);
    // The context is fixed across a batch, so the lane packs it once.
    let ctx_packed = if let Some(l) = lane.as_deref_mut() {
        *l.ctx_packed
            .get_or_insert_with(|| compiled.map_or(0, |c| c.pack_ctx(ctx)))
    } else {
        compiled.map_or(0, |c| c.pack_ctx(ctx))
    };
    if cache_ok && cache.generation != *snap_epoch {
        if cache.len() > 0 {
            cache.flush();
            cache.invalidations += 1;
            if obs::enabled() {
                obs::counter_add("engine.winner_cache_invalidations", 1);
            }
        }
        cache.generation = *snap_epoch;
    }

    let mut outcome = Outcome::empty();
    let mut trace = Vec::new();
    s.queue.clear();
    s.queue.push_back((0, event, None));

    while let Some((depth, event, raised_by)) = s.queue.pop_front() {
        if depth > config.max_cascade_depth {
            return Err(ActiveError::CascadeOverflow {
                depth,
                event: event.describe(),
            });
        }
        outcome.events_processed += 1;
        m_max_depth = m_max_depth.max(depth);

        // While a request trace records on this thread, every cascade
        // step becomes a child span linking back to the rule that
        // raised its event — the causal chain the trace tree exposes.
        let _cascade_span = if depth > 0 && obs::trace_recording() {
            let guard = obs::trace_child("engine.cascade");
            obs::trace_annotate("depth", depth.to_string());
            obs::trace_annotate("event", event.describe());
            if let Some(r) = &raised_by {
                obs::trace_annotate("raised_by", r.to_string());
            }
            Some(guard)
        } else {
            None
        };

        // Cascade-step failpoint: a fault in the cascade machinery
        // itself, not attributable to any one rule. Fail-open drops
        // the cascaded event; fail-closed aborts the dispatch.
        if depth > 0 && faultsim::any_armed() {
            let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                faultsim::fire("engine.cascade")
            }));
            let cause = match fired {
                Ok(Ok(())) => None,
                Ok(Err(fault)) => Some(fault.to_string()),
                Err(payload) => Some(panic_message(&*payload)),
            };
            if let Some(cause) = cause {
                note_anonymous_fault(shared);
                outcome.faults.push(FaultRecord {
                    rule: CASCADE_PSEUDO_RULE.to_string(),
                    depth,
                    cause: cause.clone(),
                });
                match config.fault_policy {
                    FaultPolicy::FailOpen => continue,
                    FaultPolicy::FailClosed => {
                        return Err(ActiveError::RuleFault {
                            rule: CASCADE_PSEUDO_RULE.to_string(),
                            depth,
                            cause,
                        });
                    }
                }
            }
        }

        s.matched_cust.clear();
        s.matched_other.clear();
        // Compiled tier: route the event to its jump table and intern
        // its fields once — every candidate check below is integer-only.
        // In a batch, a run of identical root events resolves the route
        // once and replays it (`CompiledRules::table` — no hashing).
        let mut route_hit = false;
        let routed = match (lane.as_deref_mut(), compiled) {
            (Some(l), Some(c)) if depth == 0 => Some(match &l.route {
                Some((ev, ids)) if *ev == event => {
                    route_hit = true;
                    (c.table(ids.route), *ids)
                }
                _ => {
                    let r = c.lookup(&event);
                    l.route = Some((event.clone(), r.1));
                    l.selection = None;
                    r
                }
            }),
            (_, c) => c.map(|c| c.lookup(&event)),
        };
        // `Some(winner)` when the cache answered customization
        // matching for this event; the winner itself may be `None`
        // (negative results are cached too).
        let mut cached_winner: Option<Option<usize>> = None;
        let mut hash = None;
        let mut pkey: Option<(u64, u64)> = None;

        if packed_ok {
            let key = (
                routed.as_ref().expect("packed_ok implies routed").1.key,
                ctx_packed,
            );
            pkey = Some(key);
            // Lane selection memo: exactly a packed-cache slot for the
            // memoized route, minus the probe. Sound under the same
            // invariant — the epoch check invalidates it whenever
            // quarantine (or anything else) flips rule visibility.
            if route_hit {
                if let Some(l) = lane.as_deref() {
                    if l.epoch == *snap_epoch {
                        if let Some((mc, w)) = &l.selection {
                            s.matched_cust.extend_from_slice(mc);
                            cached_winner = Some(*w);
                            m_hits += 1;
                        }
                    }
                }
            }
            if cached_winner.is_none() {
                if let Some(slot) = cache.lookup_packed(key) {
                    s.matched_cust.extend_from_slice(&slot.matched_cust);
                    cached_winner = Some(slot.winner);
                    m_hits += 1;
                    if depth == 0 {
                        if let Some(l) = lane.as_deref_mut() {
                            l.selection = Some((slot.matched_cust.clone(), slot.winner));
                            l.epoch = *snap_epoch;
                        }
                    }
                } else {
                    m_misses += 1;
                }
            }
        } else if cache_ok {
            let h = cache_key_hash(&event, ctx);
            hash = Some(h);
            if let Some(slot) = cache.lookup(h, &event, ctx) {
                s.matched_cust.extend_from_slice(&slot.matched_cust);
                cached_winner = Some(slot.winner);
                m_hits += 1;
            } else {
                m_misses += 1;
            }
        }
        if let Some((table, ids)) = &routed {
            if cached_winner.is_none() {
                // Candidates come pre-sorted by descending (specificity,
                // priority, registration): under MostSpecific with
                // tracing off the first match *is* the winner and the
                // walk stops there — the compiled tier's cold-path win.
                let early = config.selection == SelectionPolicy::MostSpecific && !config.tracing;
                for c in &table.cust {
                    m_considered += 1;
                    let i = c.idx as usize;
                    if snap.health[i].is_quarantined() {
                        continue;
                    }
                    let hit = if c.slow {
                        snap.rules[i].matches(&event, ctx)
                    } else {
                        c.matches_fast(ids, ctx_packed)
                    };
                    if hit {
                        s.matched_cust.push(i);
                        if early {
                            break;
                        }
                    }
                }
                // Selection, traces and FireAll all consume the matched
                // set in ascending registration order, like the oracle
                // reports it.
                s.matched_cust.sort_unstable();
            }
            for c in &table.other {
                m_considered += 1;
                let i = c.idx as usize;
                if snap.health[i].is_quarantined() {
                    continue;
                }
                let hit = if c.slow {
                    snap.rules[i].matches(&event, ctx)
                } else {
                    c.matches_fast(ids, ctx_packed)
                };
                if hit {
                    s.matched_other.push(i);
                }
            }
        } else if scan_all {
            m_considered += snap.rules.len() as u64;
            let cust_cached = cached_winner.is_some();
            for (i, r) in snap.rules.iter().enumerate() {
                if (cust_cached && r.group == RuleGroup::Customization)
                    || snap.health[i].is_quarantined()
                    || !r.matches(&event, ctx)
                {
                    continue;
                }
                if r.group == RuleGroup::Customization {
                    s.matched_cust.push(i);
                } else {
                    s.matched_other.push(i);
                }
            }
        } else {
            if cached_winner.is_none() {
                let matched_cust = &mut s.matched_cust;
                snap.index.cust.for_each_candidate(&event, &mut |i| {
                    m_considered += 1;
                    if !snap.health[i].is_quarantined() && snap.rules[i].matches(&event, ctx) {
                        matched_cust.push(i);
                    }
                });
            }
            let matched_other = &mut s.matched_other;
            snap.index.other.for_each_candidate(&event, &mut |i| {
                m_considered += 1;
                if !snap.health[i].is_quarantined() && snap.rules[i].matches(&event, ctx) {
                    matched_other.push(i);
                }
            });
        }

        // Customization selection: specificity, then designer
        // priority, then registration order (later wins:
        // redefinitions override).
        let winner = match cached_winner {
            Some(w) => w,
            None => {
                let rules = &snap.rules;
                let w = s.matched_cust.iter().copied().max_by_key(|&i| {
                    let r = &rules[i];
                    (r.specificity(), r.priority, i)
                });
                if let Some(key) = pkey {
                    cache.insert_packed(
                        key,
                        PackedSlot {
                            matched_cust: s.matched_cust.clone(),
                            winner: w,
                        },
                        config.winner_cache_capacity,
                    );
                    if depth == 0 {
                        if let Some(l) = lane.as_deref_mut() {
                            l.selection = Some((s.matched_cust.clone(), w));
                            l.epoch = *snap_epoch;
                        }
                    }
                } else if let Some(h) = hash {
                    cache.insert(
                        h,
                        CacheSlot {
                            event: EventKey::of(&event),
                            user: ctx.user.clone(),
                            category: ctx.category.clone(),
                            application: ctx.application.clone(),
                            matched_cust: s.matched_cust.clone(),
                            winner: w,
                        },
                        config.winner_cache_capacity,
                    );
                }
                w
            }
        };

        s.to_fire.clear();
        s.shadowed.clear();
        match config.selection {
            SelectionPolicy::MostSpecific => {
                if let Some(w) = winner {
                    s.to_fire.push(w);
                    // Every other matched customization loses to the
                    // winner. Only the trace names them; untraced, they
                    // are just counted.
                    m_shadowed += (s.matched_cust.len() as u64).saturating_sub(1);
                    if config.tracing {
                        s.shadowed
                            .extend(s.matched_cust.iter().copied().filter(|&i| i != w));
                    }
                }
            }
            SelectionPolicy::FireAll => s.to_fire.extend_from_slice(&s.matched_cust),
        }
        // Non-customization rules all fire, highest priority first.
        let cust_fired = s.to_fire.len();
        s.to_fire.extend_from_slice(&s.matched_other);
        let rules = &snap.rules;
        s.to_fire[cust_fired..].sort_by_key(|&i| (std::cmp::Reverse(rules[i].priority), i));

        m_matched += (s.matched_cust.len() + s.matched_other.len()) as u64;
        m_fired += s.to_fire.len() as u64;

        // Execute (or queue, for deferred-coupling rules). Indexed by
        // position because actions push into `s.queue`.
        let fired_start = outcome.fired.len();
        for k in 0..s.to_fire.len() {
            let i = s.to_fire[k];
            outcome.fired.push(Arc::clone(&snap.names[i]));
            match snap.rules[i].coupling {
                Coupling::Immediate => {
                    let result = run_action(
                        &snap.rules[i].action,
                        &event,
                        ctx,
                        depth,
                        Some(&snap.names[i]),
                        &mut s.queue,
                        &mut outcome.customizations,
                    );
                    match result {
                        Ok(()) => snap.health[i].consecutive.store(0, Ordering::Relaxed),
                        Err(cause) => {
                            outcome.faults.push(FaultRecord {
                                rule: snap.rules[i].name.clone(),
                                depth,
                                cause: cause.clone(),
                            });
                            note_fault(shared, snap, snap_epoch, config, cache, i);
                            if config.fault_policy == FaultPolicy::FailClosed {
                                return Err(ActiveError::RuleFault {
                                    rule: snap.rules[i].name.clone(),
                                    depth,
                                    cause,
                                });
                            }
                        }
                    }
                }
                Coupling::Deferred => deferred.push((
                    Arc::clone(&snap.names[i]),
                    Arc::clone(&snap.rules[i].action),
                    event.clone(),
                    ctx.clone(),
                )),
            }
        }

        if config.tracing {
            // Merge the two ascending matched lists back into
            // registration order, as the linear scan reports them.
            s.traced.clear();
            let (mut a, mut b) = (0, 0);
            while a < s.matched_cust.len() || b < s.matched_other.len() {
                let i = if b == s.matched_other.len()
                    || (a < s.matched_cust.len() && s.matched_cust[a] < s.matched_other[b])
                {
                    a += 1;
                    s.matched_cust[a - 1]
                } else {
                    b += 1;
                    s.matched_other[b - 1]
                };
                s.traced.push(i);
            }
            s.describe.clear();
            let _ = write!(s.describe, "{event}");
            trace.push(TraceEntry {
                depth,
                event: Arc::from(s.describe.as_str()),
                matched: s
                    .traced
                    .iter()
                    .map(|&i| Arc::clone(&snap.names[i]))
                    .collect(),
                fired: outcome.fired[fired_start..].to_vec(),
                shadowed: s
                    .shadowed
                    .iter()
                    .map(|&i| Arc::clone(&snap.names[i]))
                    .collect(),
            });
        }
    }
    outcome.trace = trace.into();

    cache.hits += m_hits;
    cache.misses += m_misses;
    // Which dispatch arm answered this request: the winner cache,
    // the compiled tables, the discrimination index, or the
    // straight linear scan.
    let arm = if cache_ok && m_hits > 0 && m_misses == 0 {
        "cached"
    } else if compiled.is_some() {
        "compiled"
    } else if scan_all {
        "linear"
    } else {
        "indexed"
    };
    if let Some(l) = lane {
        // Batched: accumulate into the lane and flush once per batch.
        let t = &mut l.tallies;
        t.dispatches += 1;
        t.considered += m_considered;
        t.matched += m_matched;
        t.fired += m_fired;
        t.shadowed += m_shadowed;
        t.hits += m_hits;
        t.misses += m_misses;
        t.evictions += cache.evictions - evictions_before;
        t.max_cascade_depth = t.max_cascade_depth.max(m_max_depth as u64);
        match arm {
            "cached" => t.arm_cached += 1,
            "compiled" => t.arm_compiled += 1,
            "linear" => t.arm_linear += 1,
            _ => t.arm_indexed += 1,
        }
    } else if obs::enabled() {
        let shard = obs::current_shard().to_string();
        obs::counter_add_labeled("engine.dispatches_by_arm", &[("arm", arm)], 1);
        obs::counter_add_labeled(
            "engine.winner_cache_hits_by_shard",
            &[("shard", &shard)],
            m_hits,
        );
        obs::counter_add_labeled(
            "engine.winner_cache_misses_by_shard",
            &[("shard", &shard)],
            m_misses,
        );
        obs::counter_add("engine.dispatches", 1);
        obs::counter_add("engine.rules_considered", m_considered);
        obs::counter_add("engine.rules_matched", m_matched);
        obs::counter_add("engine.rules_fired", m_fired);
        obs::counter_add("engine.rules_shadowed", m_shadowed);
        obs::counter_add("engine.winner_cache_hits", m_hits);
        obs::counter_add("engine.winner_cache_misses", m_misses);
        obs::counter_add(
            "engine.winner_cache_evictions",
            cache.evictions - evictions_before,
        );
        obs::record_value("engine.cascade_depth", m_max_depth as u64);
        obs::record_value("engine.deferred_queue_depth", deferred.len() as u64);
    }
    Ok(outcome)
}

/// Run one action. Callbacks are the only fallible arm: they are
/// executed behind a panic boundary (a panicking callback becomes an
/// `Err`, never unwinds into the engine) and consult the
/// `engine.callback` failpoint first. `Err` carries a human-readable
/// cause; the caller decides between fail-open and fail-closed.
fn run_action<P: Clone>(
    action: &Action<P>,
    event: &Event,
    ctx: &SessionContext,
    depth: usize,
    raiser: Option<&Arc<str>>,
    queue: &mut VecDeque<QueuedEvent>,
    customizations: &mut Vec<P>,
) -> Result<(), String> {
    match action {
        Action::Customize(p) => {
            customizations.push(p.clone());
            Ok(())
        }
        Action::Callback(f) => {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                faultsim::fire("engine.callback").map(|()| f(event, ctx))
            }));
            match result {
                Ok(Ok(events)) => {
                    for e in events {
                        queue.push_back((depth + 1, e, raiser.cloned()));
                    }
                    Ok(())
                }
                Ok(Err(fault)) => Err(fault.to_string()),
                Err(payload) => Err(panic_message(&*payload)),
            }
        }
        Action::Raise(events) => {
            for e in events {
                queue.push_back((depth + 1, e.clone(), raiser.cloned()));
            }
            Ok(())
        }
        Action::Compound(actions) => {
            for a in actions {
                run_action(a, event, ctx, depth, raiser, queue, customizations)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextPattern;
    use geodb::query::DbEvent;

    fn get_schema() -> Event {
        Event::Db(DbEvent::GetSchema {
            schema: "phone_net".into(),
        })
    }

    fn session() -> SessionContext {
        SessionContext::new("juliano", "planner", "pole_manager")
    }

    fn cust(name: &str, ctx: ContextPattern, payload: &'static str) -> Rule<&'static str> {
        Rule::customization(name, EventPattern::db(DbEventKind::GetSchema), ctx, payload)
    }

    #[test]
    fn most_specific_rule_wins() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust("generic", ContextPattern::any(), "generic"))
            .unwrap();
        eng.add_rule(cust(
            "by_cat",
            ContextPattern::for_category("planner"),
            "category",
        ))
        .unwrap();
        eng.add_rule(cust("by_user", ContextPattern::for_user("juliano"), "user"))
            .unwrap();

        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["user"]);
        assert_eq!(out.fired_names(), vec!["by_user"]);
        // The shadowed rules are visible in the trace.
        assert_eq!(out.trace.entries[0].shadowed.len(), 2);

        // A session outside the specific contexts falls back to generic.
        let anon = SessionContext::new("guest", "visitor", "browser");
        let out = eng.dispatch(get_schema(), &anon).unwrap();
        assert_eq!(out.customizations, vec!["generic"]);
    }

    #[test]
    fn fire_all_ablation_fires_everything() {
        let mut eng: Engine<&str> = Engine::with_config(EngineConfig {
            selection: SelectionPolicy::FireAll,
            ..Default::default()
        });
        eng.add_rule(cust("a", ContextPattern::any(), "a")).unwrap();
        eng.add_rule(cust("b", ContextPattern::for_user("juliano"), "b"))
            .unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations.len(), 2);
        // Repeat from the cache: `FireAll` still gets the full set.
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations.len(), 2);
        assert_eq!(eng.cache_stats().hits, 1);
    }

    #[test]
    fn priority_breaks_specificity_ties() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust("low", ContextPattern::for_user("juliano"), "low").with_priority(1))
            .unwrap();
        eng.add_rule(cust("high", ContextPattern::for_user("juliano"), "high").with_priority(9))
            .unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["high"]);
    }

    #[test]
    fn later_registration_overrides_equal_rules() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust("v1", ContextPattern::for_user("juliano"), "old"))
            .unwrap();
        eng.add_rule(cust("v2", ContextPattern::for_user("juliano"), "new"))
            .unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["new"]);
    }

    #[test]
    fn integrity_rules_all_fire_alongside_customization() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust("c", ContextPattern::any(), "payload"))
            .unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        for name in ["i1", "i2"] {
            let hits = hits.clone();
            eng.add_rule(Rule::integrity(
                name,
                EventPattern::db(DbEventKind::GetSchema),
                Arc::new(move |_, _| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    vec![]
                }),
            ))
            .unwrap();
        }
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(out.customizations, vec!["payload"]);
        assert_eq!(out.fired.len(), 3);
    }

    #[test]
    fn raise_cascades_and_counts_events() {
        let mut eng: Engine<&str> = Engine::new();
        // Get_Schema raises Get_Class, like the paper's R1 -> Get_Class(Pole).
        eng.add_rule(
            Rule::customization(
                "r1",
                EventPattern::db(DbEventKind::GetSchema),
                ContextPattern::any(),
                "schema-cust",
            )
            .with_priority(0),
        )
        .unwrap();
        eng.add_rule(Rule {
            name: "raiser".into(),
            event: EventPattern::db(DbEventKind::GetSchema),
            context: ContextPattern::any(),
            guard: None,
            action: Arc::new(Action::Raise(vec![Event::Db(DbEvent::GetClass {
                schema: "phone_net".into(),
                class: "Pole".into(),
            })])),
            group: RuleGroup::Other,
            coupling: crate::rule::Coupling::Immediate,
            priority: 0,
            enabled: true,
        })
        .unwrap();
        eng.add_rule(Rule::customization(
            "r2",
            EventPattern::db(DbEventKind::GetClass),
            ContextPattern::any(),
            "class-cust",
        ))
        .unwrap();

        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.events_processed, 2);
        assert_eq!(out.customizations, vec!["schema-cust", "class-cust"]);
        assert!(out.trace.fired("r2"));
        assert_eq!(out.trace.entries[1].depth, 1);
    }

    #[test]
    fn cascade_cycle_is_detected() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(Rule {
            name: "loop".into(),
            event: EventPattern::External {
                name: Some("ping".into()),
            },
            context: ContextPattern::any(),
            guard: None,
            action: Arc::new(Action::Raise(vec![Event::external("ping")])),
            group: RuleGroup::Other,
            coupling: crate::rule::Coupling::Immediate,
            priority: 0,
            enabled: true,
        })
        .unwrap();
        let err = eng
            .dispatch(Event::external("ping"), &session())
            .unwrap_err();
        assert!(matches!(err, ActiveError::CascadeOverflow { .. }));
        // The aborted dispatch leaves no debris: the next one is clean.
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.events_processed, 1);
    }

    #[test]
    fn rule_management() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust("a", ContextPattern::any(), "a")).unwrap();
        assert!(matches!(
            eng.add_rule(cust("a", ContextPattern::any(), "dup")),
            Err(ActiveError::DuplicateRule(_))
        ));
        eng.set_enabled("a", false).unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert!(out.customizations.is_empty());
        eng.set_enabled("a", true).unwrap();
        assert!(eng.rule("a").is_some());
        eng.remove_rule("a").unwrap();
        assert!(eng.is_empty());
        assert!(eng.remove_rule("a").is_err());
    }

    #[test]
    fn prefix_removal_replaces_rule_families() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust("prog1/r1", ContextPattern::any(), "x"))
            .unwrap();
        eng.add_rule(cust("prog1/r2", ContextPattern::any(), "y"))
            .unwrap();
        eng.add_rule(cust("prog2/r1", ContextPattern::any(), "z"))
            .unwrap();
        assert_eq!(eng.remove_rules_with_prefix("prog1/"), 2);
        assert_eq!(eng.len(), 1);
        assert!(eng.rule("prog2/r1").is_some());
        // Index is still consistent.
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["z"]);
    }

    #[test]
    fn removal_keeps_name_map_and_buckets_consistent() {
        // Regression: removals used to rebuild `by_name` from scratch;
        // the in-place remap must leave every surviving name resolving
        // to its own rule, across single and batch removal, for every
        // bucket family.
        let mut eng: Engine<&str> = Engine::new();
        let mk = |name: &str, event: EventPattern| {
            Rule::customization(name, event, ContextPattern::any(), "p")
        };
        eng.add_rule(mk(
            "db/get_schema",
            EventPattern::db(DbEventKind::GetSchema),
        ))
        .unwrap();
        eng.add_rule(mk("wild/any", EventPattern::Any)).unwrap();
        eng.add_rule(mk(
            "ext/tick",
            EventPattern::External {
                name: Some("tick".into()),
            },
        ))
        .unwrap();
        eng.add_rule(mk("db/get_class", EventPattern::db(DbEventKind::GetClass)))
            .unwrap();
        eng.add_rule(mk(
            "iface/click",
            EventPattern::Interface {
                name: Some("click".into()),
                source_prefix: None,
            },
        ))
        .unwrap();
        eng.add_rule(mk("ext/any", EventPattern::External { name: None }))
            .unwrap();

        eng.remove_rule("wild/any").unwrap();
        eng.remove_rule("db/get_schema").unwrap();
        assert_eq!(eng.remove_rules_with_prefix("ext/"), 2);

        // Every survivor's name still maps to the rule bearing it.
        assert_eq!(eng.len(), 2);
        for name in ["db/get_class", "iface/click"] {
            assert_eq!(eng.rule(name).unwrap().name, name);
        }
        // And the buckets still dispatch the right rules.
        let out = eng
            .dispatch(
                Event::Db(DbEvent::GetClass {
                    schema: "s".into(),
                    class: "C".into(),
                }),
                &session(),
            )
            .unwrap();
        assert_eq!(out.fired_names(), vec!["db/get_class"]);
        let out = eng
            .dispatch(Event::interface("click", "w/b1"), &session())
            .unwrap();
        assert_eq!(out.fired_names(), vec!["iface/click"]);
        let out = eng.dispatch(Event::external("tick"), &session()).unwrap();
        assert!(out.fired.is_empty());
    }

    #[test]
    fn winner_cache_counts_hits_misses_and_invalidations() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust("a", ContextPattern::any(), "a")).unwrap();

        eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(eng.cache_stats().hits, 0);
        assert_eq!(eng.cache_stats().misses, 1);
        assert_eq!(eng.cache_stats().entries, 1);

        eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(eng.cache_stats().hits, 1);
        assert_eq!(eng.cache_stats().misses, 1);

        // Negative results are cached too.
        let stranger = SessionContext::new("x", "y", "z");
        eng.dispatch(Event::external("nope"), &stranger).unwrap();
        eng.dispatch(Event::external("nope"), &stranger).unwrap();
        assert_eq!(eng.cache_stats().hits, 2);

        // Any rule mutation flushes the cache on the next dispatch.
        eng.add_rule(cust("b", ContextPattern::for_user("juliano"), "b"))
            .unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["b"]);
        let stats = eng.cache_stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn bounded_cache_evicts_generationally() {
        let mut eng: Engine<&str> = Engine::with_config(EngineConfig {
            winner_cache_capacity: 8,
            ..Default::default()
        });
        eng.add_rule(cust("a", ContextPattern::any(), "a")).unwrap();

        // 20 distinct users: the cache must stay bounded at capacity.
        for i in 0..20 {
            let ctx = SessionContext::new(format!("u{i}"), "c", "app");
            eng.dispatch(get_schema(), &ctx).unwrap();
        }
        let stats = eng.cache_stats();
        assert_eq!(stats.misses, 20);
        assert_eq!(stats.entries, 8, "hot + cold segments hold capacity");
        // Segment rotations: inserts 5, 9, 13 and 17 rotate; the last
        // three each drop a full 4-entry cold segment.
        assert_eq!(stats.evictions, 12);

        // The most recent user sits in the hot segment.
        let recent = SessionContext::new("u19", "c", "app");
        eng.dispatch(get_schema(), &recent).unwrap();
        assert_eq!(eng.cache_stats().hits, 1);
        // A mid-age user sits in the cold segment: hit + promotion, the
        // total entry count does not change.
        let mid = SessionContext::new("u13", "c", "app");
        eng.dispatch(get_schema(), &mid).unwrap();
        let stats = eng.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 8);
    }

    #[test]
    fn hybrid_threshold_matches_pure_index() {
        // 24 rules (> default threshold) dispatched under a forced-index
        // configuration and a forced-scan configuration must agree, and
        // the winner cache works in both.
        let build = |threshold: usize| {
            let mut eng: Engine<String> = Engine::with_config(EngineConfig {
                hybrid_linear_threshold: threshold,
                ..Default::default()
            });
            for i in 0..12 {
                eng.add_rule(Rule::customization(
                    format!("ext{i}"),
                    EventPattern::External {
                        name: Some(format!("e{i}")),
                    },
                    ContextPattern::any(),
                    format!("p{i}"),
                ))
                .unwrap();
                eng.add_rule(Rule::customization(
                    format!("user{i}"),
                    EventPattern::db(DbEventKind::GetSchema),
                    ContextPattern::for_user(format!("u{i}")),
                    format!("q{i}"),
                ))
                .unwrap();
            }
            eng
        };
        let mut indexed = build(0);
        let mut scanned = build(1000);
        assert!(indexed.len() > 16);

        for round in 0..2 {
            for i in 0..12 {
                let ctx = SessionContext::new(format!("u{i}"), "c", "app");
                for event in [get_schema(), Event::external(format!("e{i}"))] {
                    let a = indexed.dispatch(event.clone(), &ctx).unwrap();
                    let b = scanned.dispatch(event.clone(), &ctx).unwrap();
                    assert_eq!(a.customizations, b.customizations, "round {round}");
                    assert_eq!(a.fired_names(), b.fired_names());
                }
            }
        }
        // Both variants served round 2 from their winner caches.
        assert!(indexed.cache_stats().hits >= 24);
        assert!(scanned.cache_stats().hits >= 24);
    }

    #[test]
    fn guarded_rules_bypass_the_cache() {
        let flag = Arc::new(AtomicBool::new(true));
        let f = flag.clone();
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(
            cust("guarded", ContextPattern::any(), "guarded")
                .with_guard(Arc::new(move |_, _| f.load(Ordering::Relaxed))),
        )
        .unwrap();

        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["guarded"]);
        // Flip the guard's state: a cached winner would go stale here.
        flag.store(false, Ordering::Relaxed);
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert!(out.customizations.is_empty());
        let stats = eng.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn extras_bearing_rules_bypass_the_cache() {
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(cust(
            "scaled",
            ContextPattern::any().extra("scale", "1:1000"),
            "coarse",
        ))
        .unwrap();
        // Same <user, category, application> triple, different extras —
        // the cache key cannot tell these sessions apart.
        let zoomed = session().with_extra("scale", "1:1000");
        let out = eng.dispatch(get_schema(), &zoomed).unwrap();
        assert_eq!(out.customizations, vec!["coarse"]);
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert!(out.customizations.is_empty());
        assert_eq!(eng.cache_stats().entries, 0);
    }

    #[test]
    fn linear_strategy_skips_the_cache() {
        let mut eng: Engine<&str> = Engine::with_config(EngineConfig {
            strategy: DispatchStrategy::Linear,
            ..Default::default()
        });
        eng.add_rule(cust("a", ContextPattern::any(), "a")).unwrap();
        eng.dispatch(get_schema(), &session()).unwrap();
        eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(eng.cache_stats(), CacheStats::default());
        assert_eq!(eng.strategy(), DispatchStrategy::Linear);
    }

    #[test]
    fn indexed_and_linear_agree_on_a_mixed_rule_set() {
        let build = |strategy: DispatchStrategy| {
            let mut eng: Engine<&str> = Engine::with_config(EngineConfig {
                strategy,
                ..Default::default()
            });
            eng.add_rule(cust("generic", ContextPattern::any(), "generic"))
                .unwrap();
            eng.add_rule(cust("by_user", ContextPattern::for_user("juliano"), "user"))
                .unwrap();
            eng.add_rule(Rule::customization(
                "wild",
                EventPattern::Any,
                ContextPattern::for_category("planner"),
                "wild",
            ))
            .unwrap();
            eng.add_rule(
                Rule::customization(
                    "ext",
                    EventPattern::External {
                        name: Some("refresh".into()),
                    },
                    ContextPattern::any(),
                    "ext",
                )
                .with_priority(3),
            )
            .unwrap();
            eng.add_rule(
                Rule::integrity("audit", EventPattern::Any, Arc::new(|_, _| vec![]))
                    .with_priority(-1),
            )
            .unwrap();
            eng
        };
        let mut indexed = build(DispatchStrategy::Indexed);
        let mut linear = build(DispatchStrategy::Linear);

        let events = [
            get_schema(),
            Event::external("refresh"),
            Event::interface("click", "schema_window/list"),
            Event::Db(DbEvent::GetClass {
                schema: "phone_net".into(),
                class: "Pole".into(),
            }),
        ];
        for event in &events {
            for ctx in [session(), SessionContext::new("guest", "visitor", "x")] {
                // Twice per pair so the second round hits the cache.
                for _ in 0..2 {
                    let a = indexed.dispatch(event.clone(), &ctx).unwrap();
                    let b = linear.dispatch(event.clone(), &ctx).unwrap();
                    assert_eq!(a.customizations, b.customizations);
                    assert_eq!(a.fired_names(), b.fired_names());
                    assert_eq!(a.events_processed, b.events_processed);
                    assert_eq!(a.trace.entries.len(), b.trace.entries.len());
                    for (ta, tb) in a.trace.entries.iter().zip(&b.trace.entries) {
                        assert_eq!(ta.matched, tb.matched);
                        assert_eq!(ta.fired, tb.fired);
                        assert_eq!(ta.shadowed, tb.shadowed);
                    }
                }
            }
        }
        assert!(indexed.cache_stats().hits > 0);
    }

    #[test]
    fn no_matching_rule_yields_empty_outcome() {
        let mut eng: Engine<&str> = Engine::new();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert!(out.customizations.is_empty());
        assert!(out.customization().is_none());
        assert_eq!(out.events_processed, 1);
    }

    #[test]
    fn tracing_can_be_disabled() {
        let mut eng: Engine<&str> = Engine::with_config(EngineConfig {
            tracing: false,
            ..Default::default()
        });
        eng.add_rule(cust("a", ContextPattern::any(), "a")).unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert!(out.trace.entries.is_empty());
        assert_eq!(out.customizations, vec!["a"]);
    }

    /// A rule population broad enough to exercise every compiled table
    /// kind: per-kind db rules, named/wildcard interface and external
    /// rules, context lattice, priorities, integrity rules.
    fn compiled_fixture(strategy: DispatchStrategy, tracing: bool) -> Engine<&'static str> {
        let mut eng: Engine<&str> = Engine::with_config(EngineConfig {
            strategy,
            tracing,
            // Force the tiered path even for this small population.
            hybrid_linear_threshold: 0,
            ..Default::default()
        });
        eng.add_rule(cust("generic", ContextPattern::any(), "generic"))
            .unwrap();
        eng.add_rule(cust(
            "by_cat",
            ContextPattern::for_category("planner"),
            "cat",
        ))
        .unwrap();
        eng.add_rule(cust("by_user", ContextPattern::for_user("juliano"), "user"))
            .unwrap();
        eng.add_rule(
            Rule::customization(
                "click",
                EventPattern::Interface {
                    name: Some("click".into()),
                    source_prefix: Some("schema_window/".into()),
                },
                ContextPattern::any(),
                "click",
            )
            .with_priority(2),
        )
        .unwrap();
        eng.add_rule(Rule::customization(
            "ext",
            EventPattern::External {
                name: Some("refresh".into()),
            },
            ContextPattern::any(),
            "refresh",
        ))
        .unwrap();
        eng.add_rule(
            Rule::integrity("audit", EventPattern::Any, Arc::new(|_, _| vec![])).with_priority(-1),
        )
        .unwrap();
        eng
    }

    fn compiled_events() -> Vec<Event> {
        vec![
            get_schema(),
            Event::Db(DbEvent::GetClass {
                schema: "phone_net".into(),
                class: "Pole".into(),
            }),
            Event::interface("click", "schema_window/list"),
            Event::interface("click", "map/pan"),
            Event::interface("drag", "schema_window/list"),
            Event::external("refresh"),
            Event::external("unseen"),
        ]
    }

    #[test]
    fn compiled_matches_linear_including_traces() {
        let mut compiled = compiled_fixture(DispatchStrategy::Compiled, true);
        let mut linear = compiled_fixture(DispatchStrategy::Linear, true);
        for event in compiled_events() {
            for ctx in [session(), SessionContext::new("guest", "visitor", "x")] {
                for _ in 0..2 {
                    let a = compiled.dispatch(event.clone(), &ctx).unwrap();
                    let b = linear.dispatch(event.clone(), &ctx).unwrap();
                    assert_eq!(a.customizations, b.customizations);
                    assert_eq!(a.fired_names(), b.fired_names());
                    assert_eq!(a.events_processed, b.events_processed);
                    assert_eq!(a.trace.entries.len(), b.trace.entries.len());
                    for (ta, tb) in a.trace.entries.iter().zip(&b.trace.entries) {
                        assert_eq!(ta.matched, tb.matched);
                        assert_eq!(ta.fired, tb.fired);
                        assert_eq!(ta.shadowed, tb.shadowed);
                    }
                }
            }
        }
        assert!(compiled.cache_stats().hits > 0);
    }

    #[test]
    fn compiled_early_exit_matches_linear_outcomes() {
        // Tracing off + MostSpecific: the compiled walk stops at the
        // first (highest-ranked) match. Outcomes must be unchanged.
        let mut compiled = compiled_fixture(DispatchStrategy::Compiled, false);
        let mut linear = compiled_fixture(DispatchStrategy::Linear, false);
        for event in compiled_events() {
            for ctx in [session(), SessionContext::new("guest", "visitor", "x")] {
                for _ in 0..2 {
                    let a = compiled.dispatch(event.clone(), &ctx).unwrap();
                    let b = linear.dispatch(event.clone(), &ctx).unwrap();
                    assert_eq!(a.customizations, b.customizations);
                    assert_eq!(a.fired_names(), b.fired_names());
                    assert_eq!(a.events_processed, b.events_processed);
                }
            }
        }
    }

    #[test]
    fn compiled_recompiles_on_mutation_and_packed_cache_hits() {
        let mut eng = compiled_fixture(DispatchStrategy::Compiled, true);
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["user"]);
        let stats0 = eng.compiled_stats().expect("compiled after dispatch");
        assert!(stats0.packed_cache, "fixture interns within width");
        assert_eq!(eng.cache_stats().misses, 1);
        // Same event+context again: answered by the packed winner cache.
        eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(eng.cache_stats().hits, 1);

        // Mutation flips the content generation: recompile + fresh cache.
        eng.remove_rule("by_user").unwrap();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["cat"]);
        let stats1 = eng.compiled_stats().unwrap();
        assert!(stats1.generation > stats0.generation);
        assert_eq!(stats1.rules, stats0.rules - 1);
    }

    #[test]
    fn precompile_is_idempotent_and_off_the_dispatch_path() {
        let mut eng = compiled_fixture(DispatchStrategy::Compiled, true);
        let s1 = eng.precompile();
        let s2 = eng.precompile();
        assert_eq!(s1, s2, "same generation compiles once");
        assert!(s1.tables >= crate::compiled::DB_KIND_TABLES);
        assert!(s1.candidates >= s1.rules);
        assert_eq!(s1.users, 1);
        assert_eq!(s1.categories, 1);
        // Dispatch after precompile reuses the artifact (stats identical,
        // including the recorded compile time of the one real compile).
        eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(eng.compiled_stats().unwrap(), s1);
    }

    #[test]
    fn compiled_guarded_rules_take_the_interpreted_path() {
        let mut compiled = compiled_fixture(DispatchStrategy::Compiled, true);
        let mut linear = compiled_fixture(DispatchStrategy::Linear, true);
        for eng in [&mut compiled, &mut linear] {
            eng.add_rule(
                Rule::customization(
                    "guarded",
                    EventPattern::db(DbEventKind::GetSchema),
                    ContextPattern::for_user("juliano"),
                    "guarded",
                )
                .with_priority(99)
                .with_guard(Arc::new(|e, _| {
                    matches!(e, Event::Db(DbEvent::GetSchema { schema }) if schema == "phone_net")
                })),
            )
            .unwrap();
        }
        for event in compiled_events() {
            let a = compiled.dispatch(event.clone(), &session()).unwrap();
            let b = linear.dispatch(event.clone(), &session()).unwrap();
            assert_eq!(a.customizations, b.customizations);
            assert_eq!(a.fired_names(), b.fired_names());
        }
        // Guard present → winner cache bypassed on both arms.
        assert_eq!(compiled.cache_stats().hits, 0);
        assert_eq!(compiled.cache_stats().misses, 0);
    }

    #[test]
    fn strategy_or_selection_change_flushes_the_cache() {
        let mut eng = compiled_fixture(DispatchStrategy::Compiled, false);
        eng.dispatch(get_schema(), &session()).unwrap();
        eng.dispatch(get_schema(), &session()).unwrap();
        assert!(eng.cache_stats().entries > 0);
        eng.set_selection(SelectionPolicy::FireAll);
        assert_eq!(eng.cache_stats().entries, 0);
        // FireAll over the early-exit-free walk still sees every match.
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations.len(), 3);
        eng.set_strategy(DispatchStrategy::Indexed);
        assert_eq!(eng.cache_stats().entries, 0);
    }

    #[test]
    fn compiled_respects_quarantine_without_recompiling() {
        let mut eng = compiled_fixture(DispatchStrategy::Compiled, true);
        eng.precompile();
        let gen_before = eng.compiled_stats().unwrap().generation;
        // Quarantine the winner via the health cell the compiled walk
        // re-checks per candidate; the artifact itself is untouched.
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["user"]);
        let idx = eng.snap.by_name["by_user"];
        eng.snap.health[idx]
            .quarantined
            .store(true, Ordering::Release);
        eng.invalidate_winner_cache();
        let out = eng.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["cat"]);
        assert_eq!(eng.compiled_stats().unwrap().generation, gen_before);
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use crate::context::ContextPattern;
    use geodb::query::DbEvent;

    fn get_schema() -> Event {
        Event::Db(DbEvent::GetSchema {
            schema: "phone_net".into(),
        })
    }

    fn session() -> SessionContext {
        SessionContext::new("juliano", "planner", "pole_manager")
    }

    fn cust(name: &str, ctx: ContextPattern, payload: &'static str) -> Rule<&'static str> {
        Rule::customization(name, EventPattern::db(DbEventKind::GetSchema), ctx, payload)
    }

    #[test]
    fn engine_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuleBase<&'static str>>();
        assert_send_sync::<Engine<&'static str>>();
        assert_send_sync::<Rule<&'static str>>();
        assert_send_sync::<Outcome<&'static str>>();
        assert_send_sync::<ActiveError>();
    }

    #[test]
    fn sessions_share_the_rule_base() {
        let mut writer: Engine<&str> = Engine::new();
        writer
            .add_rule(cust("a", ContextPattern::any(), "a"))
            .unwrap();
        let mut reader = writer.session();
        let out = reader.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["a"]);

        // A mutation in one session is visible to the other at its next
        // dispatch (auto-sync).
        writer
            .add_rule(cust("b", ContextPattern::for_user("juliano"), "b"))
            .unwrap();
        let out = reader.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["b"]);
        assert_eq!(reader.len(), 2);
    }

    #[test]
    fn pinned_sessions_resync_explicitly() {
        let mut writer: Engine<&str> = Engine::new();
        writer
            .add_rule(cust("a", ContextPattern::any(), "a"))
            .unwrap();
        let mut reader = writer.session();
        reader.set_auto_sync(false);
        reader.dispatch(get_schema(), &session()).unwrap();

        writer
            .add_rule(cust("b", ContextPattern::for_user("juliano"), "b"))
            .unwrap();
        // Pinned: the reader still dispatches against its old snapshot.
        let out = reader.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["a"]);
        assert_eq!(reader.len(), 1);
        // Until it syncs.
        reader.sync();
        let out = reader.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["b"]);

        // sync_with adopts another handle's exact snapshot.
        let mut twin = writer.session();
        twin.set_auto_sync(false);
        twin.sync_with(&reader);
        assert_eq!(twin.len(), reader.len());
        let out = twin.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.customizations, vec!["b"]);
    }

    #[test]
    fn parallel_sessions_dispatch_concurrently() {
        let mut seed: Engine<&str> = Engine::new();
        seed.add_rule(cust("generic", ContextPattern::any(), "generic"))
            .unwrap();
        seed.add_rule(cust("by_user", ContextPattern::for_user("u3"), "u3"))
            .unwrap();
        let base = seed.rule_base();

        let handles: Vec<_> = (0..4)
            .map(|t| {
                let base = base.clone();
                std::thread::spawn(move || {
                    let mut eng = base.session();
                    let ctx = SessionContext::new(format!("u{t}"), "c", "app");
                    let mut firsts = Vec::new();
                    for _ in 0..50 {
                        let out = eng.dispatch(get_schema(), &ctx).unwrap();
                        firsts.push(out.customizations[0]);
                    }
                    (t, firsts, eng.dispatches())
                })
            })
            .collect();
        for h in handles {
            let (t, firsts, dispatches) = h.join().unwrap();
            let want = if t == 3 { "u3" } else { "generic" };
            assert!(firsts.iter().all(|&p| p == want), "thread {t}");
            assert_eq!(dispatches, 50);
        }
        assert_eq!(base.total_dispatches(), 200);
    }

    #[test]
    fn quarantine_is_shared_across_sessions() {
        let mut victim: Engine<&str> = Engine::new();
        victim
            .add_rule(Rule::integrity(
                "bomb",
                EventPattern::db(DbEventKind::GetSchema),
                Arc::new(|_, _| panic!("boom")),
            ))
            .unwrap();
        victim
            .add_rule(cust("ok", ContextPattern::any(), "ok"))
            .unwrap();
        let mut bystander = victim.session();

        // Three consecutive faults trip the breaker (default threshold).
        for _ in 0..3 {
            let out = victim.dispatch(get_schema(), &session()).unwrap();
            assert_eq!(out.faults.len(), 1);
        }
        assert_eq!(victim.quarantined(), vec!["bomb"]);
        assert_eq!(victim.rule_faults(), 3);

        // The other session observes the quarantine: clean dispatch.
        let out = bystander.dispatch(get_schema(), &session()).unwrap();
        assert!(out.faults.is_empty());
        assert_eq!(out.customizations, vec!["ok"]);
        assert_eq!(bystander.quarantined(), vec!["bomb"]);
        assert_eq!(bystander.rule_base().quarantined_count(), 1);

        // Clearing from either session restores the rule everywhere.
        bystander.clear_quarantine("bomb").unwrap();
        assert!(
            victim.quarantined().is_empty() || {
                victim.sync();
                victim.quarantined().is_empty()
            }
        );
        let out = victim.dispatch(get_schema(), &session()).unwrap();
        assert_eq!(out.faults.len(), 1, "rule participates again");
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut eng: Engine<&str> = Engine::new();
        let g0 = eng.rules_generation();
        eng.add_rule(cust("a", ContextPattern::any(), "a")).unwrap();
        let g1 = eng.rules_generation();
        assert!(g1 > g0);
        // A no-op prefix removal does not bump the epoch.
        assert_eq!(eng.remove_rules_with_prefix("nope/"), 0);
        assert_eq!(eng.rules_generation(), g1);
        eng.set_enabled("a", false).unwrap();
        assert!(eng.rules_generation() > g1);
    }
}

#[cfg(test)]
mod coupling_tests {
    use super::*;
    use crate::context::ContextPattern;
    use crate::rule::Coupling;
    use geodb::query::DbEvent;

    fn insert_event(n: u64) -> Event {
        Event::Db(DbEvent::Insert {
            schema: "s".into(),
            class: "C".into(),
            oid: geodb::instance::Oid(n),
        })
    }

    fn ctx() -> SessionContext {
        SessionContext::new("editor", "ops", "entry")
    }

    #[test]
    fn deferred_rules_queue_until_flush() {
        let mut eng: Engine<&str> = Engine::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        eng.add_rule(
            Rule::integrity(
                "batch_check",
                EventPattern::db(DbEventKind::Insert),
                Arc::new(move |e, _| {
                    log2.lock().unwrap().push(e.describe());
                    vec![]
                }),
            )
            .with_coupling(Coupling::Deferred),
        )
        .unwrap();

        // Three inserts: rule matches (and is reported fired) but the
        // callback has not run yet.
        for i in 0..3 {
            let out = eng.dispatch(insert_event(i), &ctx()).unwrap();
            assert_eq!(out.fired.len(), 1);
        }
        assert!(log.lock().unwrap().is_empty());
        assert_eq!(eng.pending_deferred(), 3);

        // Flush = "end of transaction": all three checks run.
        let out = eng.flush_deferred().unwrap();
        assert_eq!(out.fired.len(), 3);
        assert_eq!(log.lock().unwrap().len(), 3);
        assert_eq!(eng.pending_deferred(), 0);
        // Flushing again is a no-op.
        assert!(eng.flush_deferred().unwrap().fired.is_empty());
    }

    #[test]
    fn clear_deferred_discards_queued_work() {
        let mut eng: Engine<&str> = Engine::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        eng.add_rule(
            Rule::integrity(
                "check",
                EventPattern::db(DbEventKind::Insert),
                Arc::new(move |_, _| {
                    hits2.fetch_add(1, Ordering::Relaxed);
                    vec![]
                }),
            )
            .with_coupling(Coupling::Deferred),
        )
        .unwrap();
        eng.dispatch(insert_event(1), &ctx()).unwrap();
        assert_eq!(eng.pending_deferred(), 1);
        eng.clear_deferred();
        eng.flush_deferred().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn deferred_raises_dispatch_on_flush() {
        let mut eng: Engine<&str> = Engine::new();
        // Deferred rule raises an external event; an immediate
        // customization rule answers it.
        eng.add_rule(Rule {
            name: "deferred_raiser".into(),
            event: EventPattern::db(DbEventKind::Insert),
            context: ContextPattern::any(),
            guard: None,
            action: Arc::new(Action::Raise(vec![Event::external("recheck")])),
            group: RuleGroup::Other,
            coupling: Coupling::Deferred,
            priority: 0,
            enabled: true,
        })
        .unwrap();
        eng.add_rule(Rule::customization(
            "answer",
            EventPattern::External {
                name: Some("recheck".into()),
            },
            ContextPattern::any(),
            "payload",
        ))
        .unwrap();

        let out = eng.dispatch(insert_event(1), &ctx()).unwrap();
        assert!(out.customizations.is_empty());
        let out = eng.flush_deferred().unwrap();
        assert_eq!(out.customizations, vec!["payload"]);
        assert!(out.fired_names().contains(&"answer"));
    }

    #[test]
    fn immediate_is_the_default_coupling() {
        let r: Rule<&str> = Rule::customization("r", EventPattern::Any, ContextPattern::any(), "p");
        assert_eq!(r.coupling, Coupling::Immediate);
    }
}
