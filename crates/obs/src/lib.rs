//! Observability: spans, metrics, request traces and exporters.
//!
//! The paper's *explanation* interaction mode ("users want to know why
//! and how the system presented a specific answer to a query") is an
//! observability requirement, and the performance roadmap needs to know
//! where dispatch time goes. This crate is the shared substrate:
//!
//! * a process-wide registry of named **counters** and log-scale latency
//!   **histograms**, optionally dimensioned with a small fixed-cardinality
//!   label scheme (`shard`, `event_kind`, `arm`, `degraded`);
//! * a lightweight hierarchical **span** API;
//! * causal **request traces**: sampled trace trees with splitmix64 ids,
//!   collected into bounded per-shard rings (see [`trace_root`]);
//! * a declarative **SLO engine** with multi-window burn rates ([`slo`]);
//! * two exporters — a serde JSON snapshot and Prometheus text
//!   exposition with `{label="value"}` series and trace-id exemplars.
//!
//! Metric names are dotted paths whose first segment is the subsystem:
//! `engine.rules_fired`, `geodb.queries`, `builder.windows_built`,
//! `render.ascii_frames`, `dispatcher.events`. Span names follow the
//! same scheme; every span doubles as a latency histogram under its own
//! name, and the registry remembers each span's observed parents so the
//! hierarchy survives into the snapshot. While a request trace is being
//! recorded on a thread, every span additionally becomes a node of the
//! trace tree, so the causal structure of one request (server → dispatcher
//! → engine → db) is captured without a second instrumentation pass.
//!
//! Everything is gated on one process-wide flags word: when both metric
//! collection ([`set_enabled`]) and trace sampling ([`set_trace_sampling`])
//! are off, every hook collapses to a single relaxed atomic load and
//! performs no allocation.
//!
//! No external tracing dependency: `std::time::Instant` + `parking_lot`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use serde::Serialize;

pub mod slo;

/// Number of power-of-two histogram buckets. Bucket `i` covers values
/// in `[2^i, 2^(i+1))`; 40 buckets span 1 ns .. ~18 minutes.
const BUCKETS: usize = 40;

/// Bit 0 of the registry flags word: metric collection is on.
const FLAG_METRICS: u64 = 1;
/// Bit 1 of the registry flags word: trace sampling is armed.
const FLAG_TRACING: u64 = 2;

/// Default per-shard capacity of the completed-trace ring.
const DEFAULT_TRACE_RING_CAP: u64 = 64;

/// Unit of the values a histogram records, carried into the exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Unit {
    /// Durations in nanoseconds (spans, timers).
    Nanos,
    /// Dimensionless values (cascade depth, queue length, …).
    Count,
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Fixed log-scale bucket histogram: cheap to record, good enough for
/// p50/p95/p99 at the ~2x resolution the roadmap needs.
#[derive(Debug)]
struct Histogram {
    unit: Unit,
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
    /// `(value, trace_id)` of the highest-valued observation made while
    /// a sampled trace was being recorded — the exemplar attached to the
    /// p99 quantile in the Prometheus export.
    exemplar: Option<(u64, u64)>,
}

impl Histogram {
    fn new(unit: Unit) -> Histogram {
        Histogram {
            unit,
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            exemplar: None,
        }
    }

    fn bucket_of(v: u64) -> usize {
        // 0 and 1 land in bucket 0; otherwise floor(log2(v)).
        (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Representative value of a bucket (geometric midpoint).
    fn bucket_mid(i: usize) -> f64 {
        let lo = (1u64 << i) as f64;
        lo * 1.5
    }

    fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    fn record_exemplar(&mut self, v: u64, trace_id: u64) {
        if trace_id != 0 && self.exemplar.is_none_or(|(ev, _)| v >= ev) {
            self.exemplar = Some((v, trace_id));
        }
    }

    /// Estimated value at quantile `q` (0..=1).
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_mid(i).min(self.max as f64);
            }
        }
        self.max as f64
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            unit: self.unit,
            count: self.count,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max as f64,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            sum: self.sum as f64,
            exemplar: self.exemplar.map(|(v, id)| Exemplar {
                value: v as f64,
                trace_id: trace_id_hex(id),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A span's registry entry, keyed by its `&'static` name. The count is
/// atomic so a span seen before under the same parent only takes the
/// read lock; the write lock is for a first name/parent pair.
#[derive(Default)]
struct SpanStat {
    count: AtomicU64,
    parents: BTreeSet<&'static str>,
}

struct Registry {
    /// `FLAG_METRICS | FLAG_TRACING` — the single word every hook loads.
    flags: AtomicU64,
    /// Trace sampling rate: 0 = tracing off, N = record 1 in N requests.
    trace_sample: AtomicU64,
    /// Per-shard bound of the completed-trace ring.
    trace_ring_cap: AtomicU64,
    /// Monotone source for trace/span ids (finalized through splitmix64).
    next_trace: AtomicU64,
    /// Commit order of completed traces (newest-first queries sort on it).
    trace_commits: AtomicU64,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    /// Last-write-wins level metrics (queue depths, retained epochs).
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Mutex<Histogram>>>>,
    spans: RwLock<BTreeMap<&'static str, SpanStat>>,
    /// Completed trace trees, one bounded ring per shard.
    traces: Mutex<BTreeMap<u64, VecDeque<TraceTree>>>,
    /// Recycled span buffers from evicted / discarded traces. At full
    /// sampling every batch retires one tree and starts another, so
    /// reusing the grown `Vec` keeps the steady state free of large
    /// allocations and reallocation copies.
    span_pool: Mutex<Vec<Vec<TraceSpan>>>,
}

/// Upper bound on pooled span buffers (they can be ~100 KiB each).
const SPAN_POOL_CAP: usize = 32;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        flags: AtomicU64::new(FLAG_METRICS),
        trace_sample: AtomicU64::new(0),
        trace_ring_cap: AtomicU64::new(DEFAULT_TRACE_RING_CAP),
        next_trace: AtomicU64::new(1),
        trace_commits: AtomicU64::new(0),
        counters: RwLock::new(BTreeMap::new()),
        gauges: RwLock::new(BTreeMap::new()),
        histograms: RwLock::new(BTreeMap::new()),
        spans: RwLock::new(BTreeMap::new()),
        traces: Mutex::new(BTreeMap::new()),
        span_pool: Mutex::new(Vec::new()),
    })
}

#[inline]
fn flags() -> u64 {
    registry().flags.load(Ordering::Relaxed)
}

thread_local! {
    /// Stack of currently open span names on this thread — the source
    /// of the parent links reported in the snapshot.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// The request trace currently being recorded on this thread.
    static TRACE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    /// Cached id of the current trace when it passed sampling, else 0.
    /// A plain `Cell` copy of what `TRACE` knows, so the exemplar probe
    /// on every histogram record is a load instead of a `RefCell` borrow.
    static SAMPLED_ID: Cell<u64> = const { Cell::new(0) };
    /// `Cell` mirror of `TRACE.is_some()`, for the hot-path gates
    /// ([`trace_recording`], nested [`trace_root`] detection).
    static TRACE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The serving shard this thread belongs to (0 outside the server).
    static SHARD: Cell<u64> = const { Cell::new(0) };
}

/// Is metric collection on? One relaxed atomic load — the whole cost of
/// every hook when collection is off.
#[inline]
pub fn enabled() -> bool {
    flags() & FLAG_METRICS != 0
}

/// Turn collection on or off process-wide.
pub fn set_enabled(on: bool) {
    if on {
        registry().flags.fetch_or(FLAG_METRICS, Ordering::Relaxed);
    } else {
        registry().flags.fetch_and(!FLAG_METRICS, Ordering::Relaxed);
    }
}

/// Drop every recorded metric, span and completed trace, and disarm
/// trace sampling (tests, bench warm-up).
pub fn reset() {
    let r = registry();
    r.counters.write().clear();
    r.gauges.write().clear();
    r.histograms.write().clear();
    r.spans.write().clear();
    r.traces.lock().clear();
    r.span_pool.lock().clear();
    r.trace_sample.store(0, Ordering::Relaxed);
    r.flags.fetch_and(!FLAG_TRACING, Ordering::Relaxed);
    r.trace_ring_cap
        .store(DEFAULT_TRACE_RING_CAP, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// Canonical series key for a labeled metric: `name{k="v",…}` with label
/// keys sorted. Label values are restricted to a fixed-cardinality
/// vocabulary (shard numbers, event kinds, dispatch arms, booleans) —
/// any character outside `[A-Za-z0-9_.-]` is replaced with `_` so the
/// key stays parseable by the exporters.
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_by_key(|&(k, _)| k);
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        for c in v.chars() {
            key.push(if c.is_ascii_alphanumeric() || "_.-".contains(c) {
                c
            } else {
                '_'
            });
        }
        key.push('"');
    }
    key.push('}');
    key
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A registered counter handle. Cloning is cheap; hot paths should
/// resolve the handle once and call [`Counter::add`] thereafter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn add(&self, delta: u64) {
        if enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resolve (registering on first use) a counter handle by name.
pub fn counter(name: &str) -> Counter {
    let r = registry();
    if let Some(c) = r.counters.read().get(name) {
        return Counter(c.clone());
    }
    let mut w = r.counters.write();
    Counter(w.entry(name.to_string()).or_default().clone())
}

/// Resolve a counter handle for a labeled series, e.g.
/// `counter_labeled("server.requests", &[("shard", "3")])`.
pub fn counter_labeled(name: &str, labels: &[(&str, &str)]) -> Counter {
    counter(&series_key(name, labels))
}

/// One-shot counter increment for cold call sites.
/// Set a gauge to an absolute value (last write wins). Gauges model
/// *levels* — retained epochs, queue depths — where a monotone counter
/// would be meaningless.
pub fn gauge_set(name: &str, v: u64) {
    let r = registry();
    if let Some(g) = r.gauges.read().get(name) {
        g.store(v, Ordering::Relaxed);
        return;
    }
    r.gauges
        .write()
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)))
        .store(v, Ordering::Relaxed);
}

/// Current value of a gauge, 0 when never set.
pub fn gauge_get(name: &str) -> u64 {
    registry()
        .gauges
        .read()
        .get(name)
        .map(|g| g.load(Ordering::Relaxed))
        .unwrap_or(0)
}

pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        counter(name).0.fetch_add(delta, Ordering::Relaxed);
    }
}

/// One-shot labeled counter increment.
pub fn counter_add_labeled(name: &str, labels: &[(&str, &str)], delta: u64) {
    if enabled() {
        counter_labeled(name, labels)
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histograms & spans
// ---------------------------------------------------------------------------

/// A registered histogram handle.
#[derive(Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            let exemplar = sampled_trace_id();
            let mut h = self.0.lock();
            h.record(v);
            h.record_exemplar(v, exemplar);
        }
    }
}

/// Resolve (registering on first use) a histogram handle by name.
pub fn histogram(name: &str, unit: Unit) -> HistogramHandle {
    let r = registry();
    if let Some(h) = r.histograms.read().get(name) {
        return HistogramHandle(h.clone());
    }
    let mut w = r.histograms.write();
    HistogramHandle(
        w.entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Histogram::new(unit))))
            .clone(),
    )
}

/// Resolve a histogram handle for a labeled series.
pub fn histogram_labeled(name: &str, unit: Unit, labels: &[(&str, &str)]) -> HistogramHandle {
    histogram(&series_key(name, labels), unit)
}

/// One-shot dimensionless observation (cascade depth, queue length…).
pub fn record_value(name: &str, v: u64) {
    if enabled() {
        histogram(name, Unit::Count).record(v);
    }
}

/// One-shot duration observation in nanoseconds.
pub fn record_nanos(name: &str, ns: u64) {
    if enabled() {
        histogram(name, Unit::Nanos).record(ns);
    }
}

/// One-shot labeled duration observation in nanoseconds.
pub fn record_nanos_labeled(name: &str, labels: &[(&str, &str)], ns: u64) {
    if enabled() {
        histogram_labeled(name, Unit::Nanos, labels).record(ns);
    }
}

/// An open span: times the enclosed region and records it as a latency
/// histogram under the span's name when dropped. Spans nest — while
/// open, the span sits on a thread-local stack and the parent link is
/// remembered in the registry. While a request trace is being recorded
/// on this thread, the span also becomes a node of the trace tree.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    traced: bool,
}

/// Open a span. When collection is disabled (and no trace is being
/// recorded) the guard is inert: one relaxed atomic load, no allocation.
pub fn span(name: &'static str) -> SpanGuard {
    let f = flags();
    if f == 0 {
        return SpanGuard {
            name,
            start: None,
            traced: false,
        };
    }
    if f & FLAG_METRICS == 0 {
        let traced = f & FLAG_TRACING != 0 && trace_open_span(name, None);
        return SpanGuard {
            name,
            start: None,
            traced,
        };
    }
    let mut g = metrics_span(name);
    if f & FLAG_TRACING != 0 {
        g.traced = trace_open_span(name, g.start);
    }
    g
}

/// The metrics half of [`span`]: stack bookkeeping, registry stat,
/// timer — no trace join. Assumes `FLAG_METRICS` is set.
fn metrics_span(name: &'static str) -> SpanGuard {
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(name);
        parent
    });
    let r = registry();
    let counted = match r.spans.read().get(name) {
        Some(stat) if parent.is_none_or(|p| stat.parents.contains(p)) => {
            stat.count.fetch_add(1, Ordering::Relaxed);
            true
        }
        _ => false,
    };
    if !counted {
        let mut spans = r.spans.write();
        let stat = spans.entry(name).or_default();
        stat.count.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = parent {
            stat.parents.insert(p);
        }
    }
    SpanGuard {
        name,
        start: Some(Instant::now()),
        traced: false,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let mut dur = None;
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            SPAN_STACK.with(|s| {
                let mut st = s.borrow_mut();
                if let Some(pos) = st.iter().rposition(|&n| n == self.name) {
                    st.remove(pos);
                }
            });
            record_nanos(self.name, ns);
            dur = Some(ns);
        }
        // Close the trace node after the histogram record so the
        // exemplar capture still sees the open (sampled) trace; reuse
        // the duration the histogram just recorded.
        if self.traced {
            trace_close_span(self.name, dur);
        }
    }
}

// ---------------------------------------------------------------------------
// Request traces
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer — the id generator for traces and spans.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn next_id() -> u64 {
    let id = splitmix64(registry().next_trace.fetch_add(1, Ordering::Relaxed));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Canonical hex rendering of a trace id (16 lowercase hex digits).
pub fn trace_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a trace id as produced by [`trace_id_hex`] (decimal accepted).
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim().trim_start_matches("0x");
    u64::from_str_radix(s, 16)
        .ok()
        .or_else(|| s.parse::<u64>().ok())
}

/// One annotation on a trace span (`key=value`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Annotation {
    pub key: String,
    pub value: String,
}

/// One node of a completed trace tree.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSpan {
    /// Span id (splitmix64; unique within the trace).
    pub id: u64,
    /// Parent span id; 0 for the root.
    pub parent: u64,
    pub name: &'static str,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    /// Span duration; 0 for instantaneous events ([`trace_event`]).
    pub dur_ns: u64,
    pub annotations: Vec<Annotation>,
}

/// A completed request trace: the causal tree of every span that ran on
/// the request's thread between [`trace_root`] open and close.
#[derive(Debug, Clone, Serialize)]
pub struct TraceTree {
    pub trace_id: u64,
    /// Hex form of the id, as cross-linked from explanation records and
    /// Prometheus exemplars.
    pub trace_id_hex: String,
    pub shard: u64,
    /// Whether the 1-in-N sampler picked the request (false means the
    /// trace was retained by the fault/degrade override).
    pub sampled: bool,
    /// A fault or degradation was observed during the request.
    pub fault: bool,
    pub total_ns: u64,
    /// Commit order across all shards (monotone).
    pub seq: u64,
    pub spans: Vec<TraceSpan>,
}

impl TraceTree {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Indented tree rendering for the REPL `:trace` view.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} shard={} {:.1}us{}{}\n",
            self.trace_id_hex,
            self.shard,
            self.total_ns as f64 / 1e3,
            if self.sampled {
                ""
            } else {
                " (fault-retained)"
            },
            if self.fault { " FAULT" } else { "" },
        );
        fn children(spans: &[TraceSpan], parent: u64) -> Vec<&TraceSpan> {
            spans.iter().filter(|s| s.parent == parent).collect()
        }
        fn walk(out: &mut String, spans: &[TraceSpan], node: &TraceSpan, depth: usize) {
            let mut line = format!("{}{}", "  ".repeat(depth + 1), node.name);
            if node.dur_ns > 0 {
                let _ = write!(line, " {:.1}us", node.dur_ns as f64 / 1e3);
            }
            for a in &node.annotations {
                let _ = write!(line, " {}={}", a.key, a.value);
            }
            out.push_str(&line);
            out.push('\n');
            for c in children(spans, node.id) {
                walk(out, spans, c, depth + 1);
            }
        }
        for root in children(&self.spans, 0) {
            walk(&mut out, &self.spans, root, 0);
        }
        out
    }
}

/// The trace being recorded on this thread. Spans are appended in open
/// order; `open` indexes the currently open ones (a stack).
struct ActiveTrace {
    trace_id: u64,
    sampled: bool,
    fault: bool,
    shard: u64,
    started: Instant,
    /// Local source for span ids: `splitmix64(trace_id + seq)`. Span ids
    /// only need uniqueness within their trace, so the hot path never
    /// touches the (contended) global id counter.
    span_seq: u64,
    spans: Vec<TraceSpan>,
    open: Vec<usize>,
}

impl ActiveTrace {
    #[inline]
    fn next_span_id(&mut self) -> u64 {
        self.span_seq += 1;
        let id = splitmix64(self.trace_id.wrapping_add(self.span_seq));
        if id == 0 {
            1
        } else {
            id
        }
    }
}

/// Pin the calling thread to a serving shard: completed traces commit to
/// this shard's ring and [`current_shard`] reports it for shard labels.
pub fn set_shard(shard: u64) {
    SHARD.with(|s| s.set(shard));
}

/// The shard the calling thread was pinned to (0 by default).
pub fn current_shard() -> u64 {
    SHARD.with(|s| s.get())
}

/// Configure trace sampling: record 1 in `n` requests (`1` = every
/// request, `0` = tracing off). Requests that observe a fault or a
/// degradation are always retained, regardless of the sampling decision.
pub fn set_trace_sampling(n: u64) {
    let r = registry();
    r.trace_sample.store(n, Ordering::Relaxed);
    if n == 0 {
        r.flags.fetch_and(!FLAG_TRACING, Ordering::Relaxed);
    } else {
        r.flags.fetch_or(FLAG_TRACING, Ordering::Relaxed);
    }
}

/// The current sampling rate (0 = tracing off).
pub fn trace_sampling() -> u64 {
    registry().trace_sample.load(Ordering::Relaxed)
}

/// Bound each shard's completed-trace ring to `cap` entries (min 1).
pub fn set_trace_ring_capacity(cap: usize) {
    registry()
        .trace_ring_cap
        .store(cap.max(1) as u64, Ordering::Relaxed);
}

/// Drop every completed trace.
pub fn clear_traces() {
    registry().traces.lock().clear();
}

/// Is a request trace being recorded on this thread right now? Callers
/// use this to gate allocation-heavy annotation work.
pub fn trace_recording() -> bool {
    flags() & FLAG_TRACING != 0 && TRACE_ACTIVE.with(|a| a.get())
}

/// The id of the trace being recorded on this thread, or 0. Recorded
/// into `gisui::TraceRecord` so explanation entries and obs traces
/// cross-link both ways.
pub fn current_trace_id() -> u64 {
    if flags() & FLAG_TRACING == 0 {
        return 0;
    }
    TRACE.with(|t| t.borrow().as_ref().map_or(0, |tr| tr.trace_id))
}

/// The current trace id if the trace passed sampling (exemplar source).
fn sampled_trace_id() -> u64 {
    if flags() & FLAG_TRACING == 0 {
        return 0;
    }
    SAMPLED_ID.with(|s| s.get())
}

/// Mark the current trace as having observed a fault or degradation: it
/// is retained even when the sampler did not pick it.
pub fn trace_mark_fault() {
    if flags() & FLAG_TRACING == 0 {
        return;
    }
    TRACE.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.fault = true;
        }
    });
}

/// Attach `key=value` to the innermost open span of the current trace.
pub fn trace_annotate(key: &str, value: impl Into<String>) {
    if flags() & FLAG_TRACING == 0 {
        return;
    }
    TRACE.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            if let Some(&i) = tr.open.last() {
                tr.spans[i].annotations.push(Annotation {
                    key: key.to_string(),
                    value: value.into(),
                });
            }
        }
    });
}

/// Record an instantaneous event as a zero-duration child span of the
/// current open span. No-op unless a trace is being recorded here.
pub fn trace_event(name: &'static str, annotations: &[(&str, &str)]) {
    if flags() & FLAG_TRACING == 0 {
        return;
    }
    TRACE.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let parent = tr.open.last().map_or(0, |&i| tr.spans[i].id);
            let start_ns = tr.started.elapsed().as_nanos() as u64;
            let id = tr.next_span_id();
            tr.spans.push(TraceSpan {
                id,
                parent,
                name,
                start_ns,
                dur_ns: 0,
                annotations: annotations
                    .iter()
                    .map(|&(k, v)| Annotation {
                        key: k.to_string(),
                        value: v.to_string(),
                    })
                    .collect(),
            });
        }
    });
}

/// Open a trace node. `at` is the already-taken timestamp of the
/// enclosing [`SpanGuard`], so the metrics and trace paths share one
/// clock read; `None` (metrics off, or trace-only children) reads the
/// clock here.
fn trace_open_span(name: &'static str, at: Option<Instant>) -> bool {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else { return false };
        let parent = tr.open.last().map_or(0, |&i| tr.spans[i].id);
        let start_ns = match at {
            Some(now) => now.saturating_duration_since(tr.started).as_nanos() as u64,
            None => tr.started.elapsed().as_nanos() as u64,
        };
        let id = tr.next_span_id();
        tr.spans.push(TraceSpan {
            id,
            parent,
            name,
            start_ns,
            dur_ns: 0,
            annotations: Vec::new(),
        });
        let i = tr.spans.len() - 1;
        tr.open.push(i);
        true
    })
}

/// Close the innermost open trace node named `name`. `dur_ns` is the
/// duration the enclosing [`SpanGuard`] already measured; `None` derives
/// it from the trace clock.
fn trace_close_span(name: &str, dur_ns: Option<u64>) {
    TRACE.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            if let Some(pos) = tr.open.iter().rposition(|&i| tr.spans[i].name == name) {
                let i = tr.open.remove(pos);
                let dur = dur_ns.unwrap_or_else(|| {
                    let now = tr.started.elapsed().as_nanos() as u64;
                    now.saturating_sub(tr.spans[i].start_ns)
                });
                tr.spans[i].dur_ns = dur.max(1);
            }
        }
    });
}

/// A trace-only child span: joins the current trace without recording a
/// metrics histogram (used for per-cascade / per-deferred-firing nodes
/// whose cardinality would pollute the registry).
pub struct TraceChildGuard {
    name: &'static str,
    traced: bool,
}

/// Open a trace-only child span. Inert unless a trace is being recorded.
pub fn trace_child(name: &'static str) -> TraceChildGuard {
    let traced = flags() & FLAG_TRACING != 0 && trace_open_span(name, None);
    TraceChildGuard { name, traced }
}

impl Drop for TraceChildGuard {
    fn drop(&mut self) {
        if self.traced {
            trace_close_span(self.name, None);
        }
    }
}

/// The root guard of a request trace. Field order matters: the span
/// closes before the committer runs, so the root span's duration is in
/// the tree and the exemplar capture still sees the trace.
pub struct TraceGuard {
    span: Option<SpanGuard>,
    owns_trace: bool,
}

/// Open a request-boundary span, starting a new trace when sampling is
/// armed and no trace is active on this thread yet. The guard behaves
/// exactly like [`span`] (metrics histogram included); when it started
/// the trace, dropping it commits the completed tree to the owning
/// shard's ring — if the sampler picked the request or a fault was
/// marked — and discards it otherwise.
///
/// Nested calls (a server batch that drives dispatcher requests) do not
/// start a second trace: the inner guard degrades to a metrics-only
/// span and adds no node to the enclosing tree — the nested boundary
/// *is* the same request, and the layers below it (`dispatcher.*`,
/// `engine.*`, `db.*`) still join as children of the outer root.
pub fn trace_root(name: &'static str) -> TraceGuard {
    let f = flags();
    if f == 0 {
        return TraceGuard {
            span: None,
            owns_trace: false,
        };
    }
    if f & FLAG_TRACING != 0 && TRACE_ACTIVE.with(|a| a.get()) {
        // Nested request boundary under a live trace: metrics only.
        let span = if f & FLAG_METRICS != 0 {
            Some(metrics_span(name))
        } else {
            None
        };
        return TraceGuard {
            span,
            owns_trace: false,
        };
    }
    let mut owns_trace = false;
    if f & FLAG_TRACING != 0 {
        owns_trace = TRACE.with(|t| {
            let mut t = t.borrow_mut();
            if t.is_some() {
                return false;
            }
            let trace_id = next_id();
            let n = registry().trace_sample.load(Ordering::Relaxed);
            let sampled = n <= 1 || trace_id.is_multiple_of(n);
            if sampled {
                SAMPLED_ID.with(|s| s.set(trace_id));
            }
            TRACE_ACTIVE.with(|a| a.set(true));
            let spans = registry()
                .span_pool
                .lock()
                .pop()
                .map(|mut v| {
                    v.clear();
                    v
                })
                .unwrap_or_else(|| Vec::with_capacity(64));
            *t = Some(ActiveTrace {
                trace_id,
                sampled,
                fault: false,
                shard: current_shard(),
                started: Instant::now(),
                span_seq: 0,
                spans,
                open: Vec::with_capacity(8),
            });
            true
        });
    }
    TraceGuard {
        span: Some(span(name)),
        owns_trace,
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        // Close the root span first so its duration lands in the tree.
        self.span.take();
        if self.owns_trace {
            commit_trace();
        }
    }
}

fn commit_trace() {
    let Some(mut tr) = TRACE.with(|t| t.borrow_mut().take()) else {
        return;
    };
    SAMPLED_ID.with(|s| s.set(0));
    TRACE_ACTIVE.with(|a| a.set(false));
    // Close any spans left open by unwinding.
    let now = tr.started.elapsed().as_nanos() as u64;
    for &i in &tr.open {
        tr.spans[i].dur_ns = now.saturating_sub(tr.spans[i].start_ns).max(1);
    }
    tr.open.clear();
    let r = registry();
    if !(tr.sampled || tr.fault) {
        recycle_spans(r, tr.spans);
        return;
    }
    let tree = TraceTree {
        trace_id: tr.trace_id,
        trace_id_hex: trace_id_hex(tr.trace_id),
        shard: tr.shard,
        sampled: tr.sampled,
        fault: tr.fault,
        total_ns: now,
        seq: r.trace_commits.fetch_add(1, Ordering::Relaxed),
        spans: tr.spans,
    };
    let cap = r.trace_ring_cap.load(Ordering::Relaxed) as usize;
    let mut rings = r.traces.lock();
    let ring = rings.entry(tree.shard).or_default();
    ring.push_back(tree);
    while ring.len() > cap {
        if let Some(evicted) = ring.pop_front() {
            recycle_spans(r, evicted.spans);
        }
    }
}

/// Return a retired span buffer to the pool (bounded; excess is freed).
fn recycle_spans(r: &Registry, mut spans: Vec<TraceSpan>) {
    if spans.capacity() == 0 {
        return;
    }
    let mut pool = r.span_pool.lock();
    if pool.len() < SPAN_POOL_CAP {
        spans.clear();
        pool.push(spans);
    }
}

/// The most recent `n` completed traces across all shards, newest first.
pub fn recent_traces(n: usize) -> Vec<TraceTree> {
    let rings = registry().traces.lock();
    let mut all: Vec<TraceTree> = rings.values().flat_map(|r| r.iter().cloned()).collect();
    all.sort_by_key(|t| std::cmp::Reverse(t.seq));
    all.truncate(n);
    all
}

/// Look up a completed trace by id.
pub fn find_trace(id: u64) -> Option<TraceTree> {
    let rings = registry().traces.lock();
    rings
        .values()
        .flat_map(|r| r.iter())
        .find(|t| t.trace_id == id)
        .cloned()
}

/// JSON export of the most recent `n` traces (newest first).
pub fn traces_json(n: usize) -> String {
    serde_json::to_string_pretty(&recent_traces(n)).expect("traces serialize")
}

/// `(shard, retained traces)` per shard ring — the ring-bound invariant
/// the observability tests assert.
pub fn shard_trace_counts() -> Vec<(u64, usize)> {
    registry()
        .traces
        .lock()
        .iter()
        .map(|(&s, r)| (s, r.len()))
        .collect()
}

// ---------------------------------------------------------------------------
// Snapshot & exporters
// ---------------------------------------------------------------------------

/// The exemplar attached to a histogram: the highest-valued observation
/// made while a sampled trace was recording, and that trace's id.
#[derive(Debug, Clone, Serialize)]
pub struct Exemplar {
    /// In the histogram's own unit (nanoseconds for latency series).
    pub value: f64,
    pub trace_id: String,
}

/// Percentile summary of one histogram, in the histogram's own unit.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSummary {
    pub unit: Unit,
    pub count: u64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
    pub mean: f64,
    pub sum: f64,
    pub exemplar: Option<Exemplar>,
}

/// One span's registry entry: how often it opened and under which
/// parent spans it was observed.
#[derive(Debug, Clone, Serialize)]
pub struct SpanSummary {
    pub count: u64,
    pub parents: Vec<String>,
}

/// Point-in-time copy of the whole registry, `serde::Serialize`.
/// Labeled series appear under their canonical key (`name{k="v"}`).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    pub enabled: bool,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
    pub spans: BTreeMap<String, SpanSummary>,
}

/// Split a canonical series key into `(base name, label body)`.
fn split_series(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(i) => (&key[..i], Some(&key[i + 1..key.len() - 1])),
        None => (key, None),
    }
}

/// Escape a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape Prometheus HELP text (`\` → `\\`, newline → `\n`).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Re-emit a canonical label body with values escaped, optionally with
/// an extra label appended (the summary `quantile`).
fn render_labels(body: Option<&str>, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<(String, String)> = Vec::new();
    if let Some(body) = body {
        for pair in body.split(',') {
            if let Some((k, v)) = pair.split_once("=\"") {
                pairs.push((k.to_string(), v.trim_end_matches('"').to_string()));
            }
        }
    }
    if let Some((k, v)) = extra {
        pairs.push((k.to_string(), v.to_string()));
    }
    if pairs.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

impl MetricsSnapshot {
    /// Counter value, 0 when never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when never set.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Sum of a counter family: the unlabeled series plus every labeled
    /// series sharing the base name.
    pub fn counter_family(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| split_series(k).0 == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Does any counter or histogram under `subsystem.` have activity?
    pub fn subsystem_active(&self, subsystem: &str) -> bool {
        let prefix = format!("{subsystem}.");
        self.counters
            .iter()
            .any(|(k, &v)| k.starts_with(&prefix) && v > 0)
            || self
                .histograms
                .iter()
                .any(|(k, h)| k.starts_with(&prefix) && h.count > 0)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Prometheus text exposition format (version 0.0.4, with
    /// OpenMetrics-style exemplars). Counters export as `_total`
    /// counters, nanosecond histograms as `_seconds` summaries,
    /// dimensionless ones as plain summaries. Each family gets one
    /// `# HELP` and one `# TYPE` line; labeled series render as
    /// `name{label="value"}` with label values escaped; a histogram's
    /// exemplar rides on its p99 quantile line as
    /// `… # {trace_id="<hex>"} <value>`.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        /// Round away unit-scaling float noise (1.0000000000000002e-6
        /// → `0.000001`) so sample values stay clean.
        fn fmt_sample(v: f64) -> String {
            format!("{}", (v * 1e12).round() / 1e12)
        }
        let mut out = String::new();

        // Group counter series by base name so HELP/TYPE emit once per
        // family even when labeled and unlabeled series coexist.
        let mut counter_families: BTreeMap<&str, Vec<(Option<&str>, u64)>> = BTreeMap::new();
        for (key, &v) in &self.counters {
            let (base, labels) = split_series(key);
            counter_families.entry(base).or_default().push((labels, v));
        }
        for (base, series) in counter_families {
            let n = format!("activegis_{}_total", sanitize(base));
            let _ = writeln!(out, "# HELP {n} {} (counter)", escape_help(base));
            let _ = writeln!(out, "# TYPE {n} counter");
            for (labels, v) in series {
                let _ = writeln!(out, "{n}{} {v}", render_labels(labels, None));
            }
        }

        let mut gauge_families: BTreeMap<&str, Vec<(Option<&str>, u64)>> = BTreeMap::new();
        for (key, &v) in &self.gauges {
            let (base, labels) = split_series(key);
            gauge_families.entry(base).or_default().push((labels, v));
        }
        for (base, series) in gauge_families {
            let n = format!("activegis_{}", sanitize(base));
            let _ = writeln!(out, "# HELP {n} {} (gauge)", escape_help(base));
            let _ = writeln!(out, "# TYPE {n} gauge");
            for (labels, v) in series {
                let _ = writeln!(out, "{n}{} {v}", render_labels(labels, None));
            }
        }

        let mut hist_families: BTreeMap<&str, Vec<(Option<&str>, &HistogramSummary)>> =
            BTreeMap::new();
        for (key, h) in &self.histograms {
            let (base, labels) = split_series(key);
            hist_families.entry(base).or_default().push((labels, h));
        }
        for (base, series) in hist_families {
            let unit = series[0].1.unit;
            let (n, scale) = match unit {
                Unit::Nanos => (format!("activegis_{}_seconds", sanitize(base)), 1e-9),
                Unit::Count => (format!("activegis_{}", sanitize(base)), 1.0),
            };
            let _ = writeln!(out, "# HELP {n} {} (summary)", escape_help(base));
            let _ = writeln!(out, "# TYPE {n} summary");
            for (labels, h) in series {
                for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                    let lbl = render_labels(labels, Some(("quantile", q)));
                    let exemplar = match (&h.exemplar, q) {
                        (Some(e), "0.99") => format!(
                            " # {{trace_id=\"{}\"}} {}",
                            e.trace_id,
                            fmt_sample(e.value * scale)
                        ),
                        _ => String::new(),
                    };
                    let _ = writeln!(out, "{n}{lbl} {}{exemplar}", fmt_sample(v * scale));
                }
                let plain = render_labels(labels, None);
                let _ = writeln!(out, "{n}_sum{plain} {}", fmt_sample(h.sum * scale));
                let _ = writeln!(out, "{n}_count{plain} {}", h.count);
            }
        }
        out
    }
}

/// Copy the registry into an exportable snapshot.
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    let counters = r
        .counters
        .read()
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges = r
        .gauges
        .read()
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let histograms = r
        .histograms
        .read()
        .iter()
        .map(|(k, h)| (k.clone(), h.lock().summary()))
        .collect();
    let spans = r
        .spans
        .read()
        .iter()
        .map(|(k, s)| {
            (
                k.to_string(),
                SpanSummary {
                    count: s.count.load(Ordering::Relaxed),
                    parents: s.parents.iter().map(|p| p.to_string()).collect(),
                },
            )
        })
        .collect();
    MetricsSnapshot {
        enabled: enabled(),
        counters,
        gauges,
        histograms,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry (and the enabled switch) is process-global, so the
    /// tests serialize on one lock and each uses its own metric names.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_accumulate_and_snapshot() {
        let _g = TEST_LOCK.lock();
        let c = counter("test.hits");
        c.add(2);
        c.incr();
        counter_add("test.hits", 1);
        let snap = snapshot();
        assert!(snap.counter("test.hits") >= 4);
        assert_eq!(snap.counter("test.never"), 0);
        assert!(snap.subsystem_active("test"));
        assert!(!snap.subsystem_active("no_such_subsystem"));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let _g = TEST_LOCK.lock();
        gauge_set("test.level", 5);
        gauge_set("test.level", 3);
        assert_eq!(gauge_get("test.level"), 3);
        let snap = snapshot();
        assert_eq!(snap.gauge("test.level"), 3);
        assert_eq!(snap.gauge("test.unset"), 0);
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE activegis_test_level gauge"));
        assert!(prom.contains("activegis_test_level 3"));
    }

    #[test]
    fn labeled_counters_form_families() {
        let _g = TEST_LOCK.lock();
        counter_add_labeled("testlbl.requests", &[("shard", "0")], 2);
        counter_add_labeled("testlbl.requests", &[("shard", "1")], 3);
        counter_add_labeled(
            "testlbl.requests",
            &[("shard", "0"), ("degraded", "true")],
            1,
        );
        let snap = snapshot();
        assert_eq!(snap.counter("testlbl.requests{shard=\"0\"}"), 2);
        assert_eq!(snap.counter("testlbl.requests{shard=\"1\"}"), 3);
        // Keys canonicalize with sorted label names.
        assert_eq!(
            snap.counter("testlbl.requests{degraded=\"true\",shard=\"0\"}"),
            1
        );
        assert_eq!(snap.counter_family("testlbl.requests"), 6);
    }

    #[test]
    fn histogram_quantiles_are_ordered() {
        let _g = TEST_LOCK.lock();
        let h = histogram("test.latency", Unit::Nanos);
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let snap = snapshot();
        let s = &snap.histograms["test.latency"];
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.max - 100_000.0).abs() < 1.0);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn spans_record_latency_and_hierarchy() {
        let _g = TEST_LOCK.lock();
        {
            let _outer = span("test_span.outer");
            let _inner = span("test_span.inner");
        }
        let snap = snapshot();
        assert!(snap.histograms["test_span.outer"].count >= 1);
        assert!(snap.histograms["test_span.inner"].count >= 1);
        assert!(snap.spans["test_span.inner"]
            .parents
            .contains(&"test_span.outer".to_string()));
    }

    #[test]
    fn span_stats_count_every_open_under_every_parent() {
        let _g = TEST_LOCK.lock();
        for parent in ["test_stat.a", "test_stat.b", "test_stat.a"] {
            let _p = span(parent);
            let _c = span("test_stat.child");
        }
        let _top = span("test_stat.child");
        let snap = snapshot();
        let child = &snap.spans["test_stat.child"];
        assert_eq!(child.count, 4);
        assert_eq!(child.parents, vec!["test_stat.a", "test_stat.b"]);
        assert_eq!(snap.spans["test_stat.a"].count, 2);
    }

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = TEST_LOCK.lock();
        let c = counter("test.gated");
        set_enabled(false);
        c.add(10);
        record_value("test.gated_hist", 5);
        {
            let _s = span("test.gated_span");
        }
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counter("test.gated"), 0);
        assert!(snap
            .histograms
            .get("test.gated_hist")
            .is_none_or(|h| h.count == 0));
    }

    #[test]
    fn prometheus_export_is_line_parseable() {
        let _g = TEST_LOCK.lock();
        counter_add("test.prom_hits", 3);
        record_nanos("test.prom_latency", 1500);
        let text = snapshot().to_prometheus();
        assert!(text.contains("activegis_test_prom_hits_total 3"));
        assert!(text.contains("activegis_test_prom_latency_seconds{quantile=\"0.5\"}"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let sample = line.split(" # ").next().unwrap();
            let (name, value) = sample.rsplit_once(' ').expect("name value pair");
            assert!(!name.is_empty());
            value.parse::<f64>().expect("numeric sample value");
        }
    }

    #[test]
    fn prometheus_golden_output() {
        // Built by hand, not from the global registry, so the expected
        // text is exact: label escaping, one HELP/TYPE per family,
        // `_total` on counters, exemplars on the p99 line.
        let mut counters = BTreeMap::new();
        counters.insert("srv.requests".to_string(), 7u64);
        counters.insert("srv.requests{shard=\"0\"}".to_string(), 4u64);
        counters.insert("srv.requests{shard=\"a\\b\"}".to_string(), 3u64);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "srv.lat".to_string(),
            HistogramSummary {
                unit: Unit::Nanos,
                count: 2,
                p50: 1000.0,
                p95: 2000.0,
                p99: 2000.0,
                max: 2000.0,
                mean: 1500.0,
                sum: 3000.0,
                exemplar: Some(Exemplar {
                    value: 2000.0,
                    trace_id: "00000000deadbeef".to_string(),
                }),
            },
        );
        let snap = MetricsSnapshot {
            enabled: true,
            counters,
            histograms,
            spans: BTreeMap::new(),
            gauges: BTreeMap::new(),
        };
        let expected = "\
# HELP activegis_srv_requests_total srv.requests (counter)
# TYPE activegis_srv_requests_total counter
activegis_srv_requests_total 7
activegis_srv_requests_total{shard=\"0\"} 4
activegis_srv_requests_total{shard=\"a\\\\b\"} 3
# HELP activegis_srv_lat_seconds srv.lat (summary)
# TYPE activegis_srv_lat_seconds summary
activegis_srv_lat_seconds{quantile=\"0.5\"} 0.000001
activegis_srv_lat_seconds{quantile=\"0.95\"} 0.000002
activegis_srv_lat_seconds{quantile=\"0.99\"} 0.000002 # {trace_id=\"00000000deadbeef\"} 0.000002
activegis_srv_lat_seconds_sum 0.000003
activegis_srv_lat_seconds_count 2
";
        assert_eq!(snap.to_prometheus(), expected);
    }

    #[test]
    fn json_snapshot_round_trips() {
        let _g = TEST_LOCK.lock();
        counter_add("test.json_hits", 1);
        let json = snapshot().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["counters"]["test.json_hits"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn trace_root_records_a_causal_tree() {
        let _g = TEST_LOCK.lock();
        reset();
        set_enabled(true);
        set_trace_sampling(1);
        set_shard(0);
        {
            let _root = trace_root("test_tr.request");
            let _child = span("test_tr.inner");
            trace_annotate("k", "v");
            trace_event("test_tr.leaf", &[("epoch", "3")]);
        }
        let traces = recent_traces(4);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(t.sampled && !t.fault);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["test_tr.request", "test_tr.inner", "test_tr.leaf"]
        );
        // Causal links: exactly one root, every parent id exists.
        let ids: std::collections::BTreeSet<u64> = t.spans.iter().map(|s| s.id).collect();
        assert_eq!(t.spans.iter().filter(|s| s.parent == 0).count(), 1);
        for s in t.spans.iter().filter(|s| s.parent != 0) {
            assert!(ids.contains(&s.parent), "dangling parent in {t:?}");
        }
        assert_eq!(t.spans[1].annotations[0].key, "k");
        assert!(find_trace(t.trace_id).is_some());
        assert!(t.render().contains("test_tr.inner"));
        // JSON export carries the span list.
        let v: serde_json::Value = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(v["spans"][0]["name"].as_str(), Some("test_tr.request"));
        set_trace_sampling(0);
    }

    #[test]
    fn unsampled_traces_are_kept_only_on_fault() {
        let _g = TEST_LOCK.lock();
        reset();
        set_enabled(true);
        // Astronomically unlikely to sample anything.
        set_trace_sampling(u64::MAX);
        {
            let _root = trace_root("test_drop.request");
        }
        assert!(recent_traces(8).is_empty(), "unsampled trace dropped");
        {
            let _root = trace_root("test_keep.request");
            trace_mark_fault();
        }
        let traces = recent_traces(8);
        assert_eq!(traces.len(), 1);
        assert!(traces[0].fault && !traces[0].sampled);
        set_trace_sampling(0);
    }

    #[test]
    fn shard_rings_stay_bounded() {
        let _g = TEST_LOCK.lock();
        reset();
        set_enabled(true);
        set_trace_sampling(1);
        set_trace_ring_capacity(3);
        set_shard(7);
        for _ in 0..10 {
            let _root = trace_root("test_ring.request");
        }
        for (shard, len) in shard_trace_counts() {
            assert!(len <= 3, "shard {shard} ring over bound: {len}");
        }
        set_shard(0);
        set_trace_sampling(0);
    }

    #[test]
    fn exemplar_lands_on_histograms_and_export() {
        let _g = TEST_LOCK.lock();
        reset();
        set_enabled(true);
        set_trace_sampling(1);
        let id = {
            let _root = trace_root("test_ex.request");
            record_nanos("test_ex.lat", 5000);
            current_trace_id()
        };
        assert_ne!(id, 0);
        let snap = snapshot();
        let ex = snap.histograms["test_ex.lat"].exemplar.as_ref().unwrap();
        assert_eq!(ex.trace_id, trace_id_hex(id));
        assert!(snap
            .to_prometheus()
            .contains(&format!("# {{trace_id=\"{}\"}}", trace_id_hex(id))));
        set_trace_sampling(0);
    }

    #[test]
    fn trace_ids_parse_back() {
        assert_eq!(parse_trace_id("00000000deadbeef"), Some(0xdead_beef));
        assert_eq!(parse_trace_id("0xdeadbeef"), Some(0xdead_beef));
        assert_eq!(parse_trace_id("not an id"), None);
    }
}
