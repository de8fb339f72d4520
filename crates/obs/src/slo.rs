//! Declarative SLOs with multi-window burn rates.
//!
//! An [`SloSpec`] names a latency objective ("p99 of one served batch,
//! `server.dispatch_batch`, ≤ 1ms") and an availability objective
//! ("99.9% of `server.requests` succeed") over a request/error counter
//! pair. The [`SloEngine`] is fed periodic registry snapshots
//! ([`SloEngine::tick`]); from the counter deltas it computes the error
//! rate over a fast and a slow window and turns each into a **burn
//! rate** — the multiple of the error budget being consumed:
//!
//! ```text
//! burn = error_rate / (1 − availability_target)
//! ```
//!
//! At exactly the availability target, burn = 1. Burn 10 on a 99.9%
//! objective means 1% of requests are failing — the classic Google
//! SRE multi-window multi-burn alert fires when *both* windows burn
//! above 1: the fast window proves the problem is live, the slow one
//! proves it is sustained. Fault storms from `faultsim` spike both;
//! quarantine drives the fast window back under 1 first, and the slow
//! window drains as the storm ages out of it.
//!
//! A process-global engine (see [`install_default`]) backs the `:slo`
//! REPL command and the bench's `slo` report section.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

use crate::{snapshot, MetricsSnapshot};

/// Root span a `SessionServer` shard opens, on the calling thread,
/// around every batch it answers. Spans record a latency histogram under
/// their own name, so this is an unlabeled series with one sample per
/// batch — the default objective's latency metric. Inside a caller's own
/// trace the span adds no trace node but still records its sample.
pub const SERVER_BATCH_SPAN: &str = "server.dispatch_batch";
/// Counter family of requests (events) the server answered, labeled by
/// `shard` and `degraded`.
pub const SERVER_REQUESTS: &str = "server.requests";
/// Counter family of requests the server failed, labeled by `shard`;
/// every batch adds to it, zero included.
pub const SERVER_REQUEST_ERRORS: &str = "server.request_errors";

/// One declarative service-level objective.
#[derive(Debug, Clone, Serialize)]
pub struct SloSpec {
    /// Objective name, e.g. `dispatch`.
    pub name: String,
    /// Latency histogram whose p99 is checked (a span name).
    pub latency_metric: String,
    /// p99 latency objective in microseconds.
    pub latency_p99_us: f64,
    /// Counter family counting attempted requests.
    pub requests_metric: String,
    /// Counter family counting failed requests.
    pub errors_metric: String,
    /// Availability target in (0, 1), e.g. 0.999.
    pub availability: f64,
    /// Fast burn-rate window in seconds (default 1).
    pub fast_window_s: f64,
    /// Slow burn-rate window in seconds (default 60).
    pub slow_window_s: f64,
}

impl SloSpec {
    /// The serving stack's default objective: p99 of one served batch
    /// ≤ 1ms, 99.9% of server requests succeed; 1s fast / 60s slow
    /// windows. The latency unit is a whole batch (up to 256 events in
    /// the benches), not a single event.
    pub fn dispatch_default() -> SloSpec {
        SloSpec {
            name: "dispatch".to_string(),
            latency_metric: SERVER_BATCH_SPAN.to_string(),
            latency_p99_us: 1000.0,
            requests_metric: SERVER_REQUESTS.to_string(),
            errors_metric: SERVER_REQUEST_ERRORS.to_string(),
            availability: 0.999,
            fast_window_s: 1.0,
            slow_window_s: 60.0,
        }
    }
}

/// Availability over one burn-rate window.
#[derive(Debug, Clone, Serialize)]
pub struct SloWindow {
    pub window_s: f64,
    pub requests: u64,
    pub errors: u64,
    /// 1.0 when the window saw no requests (no evidence of failure).
    pub availability: f64,
    /// Error budget consumption multiple; 1.0 = exactly at target.
    pub burn_rate: f64,
}

/// Verdict of a latency objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LatencyState {
    /// The observed p99 is within the objective.
    Ok,
    /// The observed p99 exceeds the objective.
    Over,
    /// The latency series is missing or empty: nothing shows the
    /// objective is met, so this never counts as ok.
    NoData,
}

/// Evaluation of one [`SloSpec`] at a point in time.
#[derive(Debug, Clone, Serialize)]
pub struct SloStatus {
    pub spec: SloSpec,
    /// Observed p99 of the latency metric, µs; `None` when the series
    /// is missing or holds no samples.
    pub latency_observed_us: Option<f64>,
    pub latency: LatencyState,
    pub fast: SloWindow,
    pub slow: SloWindow,
    /// Both windows burn above 1 — the page-worthy condition.
    pub burning: bool,
    /// Cumulative availability since the engine started is below target.
    pub breached: bool,
    /// Cumulative counts since the engine started.
    pub total_requests: u64,
    pub total_errors: u64,
    pub total_availability: f64,
}

/// Full report across every installed objective.
#[derive(Debug, Clone, Serialize)]
pub struct SloReport {
    pub elapsed_s: f64,
    pub slos: Vec<SloStatus>,
}

impl SloReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("slo report serializes")
    }

    /// Did any objective breach its cumulative availability target?
    pub fn availability_breached(&self) -> bool {
        self.slos.iter().any(|s| s.breached)
    }

    /// Is any objective currently burning (both windows above 1)?
    pub fn burning(&self) -> bool {
        self.slos.iter().any(|s| s.burning)
    }

    /// Compact text rendering for the `:slo` REPL command.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("slo report (t={:.1}s)\n", self.elapsed_s);
        for s in &self.slos {
            let p99 = s
                .latency_observed_us
                .map_or_else(|| "-".to_string(), |us| format!("{us:.1}us"));
            let _ = writeln!(
                out,
                "  {}: p99 {} (target {:.1}us, {}) | avail {:.5} (target {:.3}, {}) \
                 | burn fast[{:.0}s]={:.2} slow[{:.0}s]={:.2}{}",
                s.spec.name,
                p99,
                s.spec.latency_p99_us,
                match s.latency {
                    LatencyState::Ok => "ok",
                    LatencyState::Over => "OVER",
                    LatencyState::NoData => "NO DATA",
                },
                s.total_availability,
                s.spec.availability,
                if s.breached { "BREACHED" } else { "ok" },
                s.fast.window_s,
                s.fast.burn_rate,
                s.slow.window_s,
                s.slow.burn_rate,
                if s.burning { " BURNING" } else { "" },
            );
        }
        out
    }
}

/// One periodic observation: `(requests, errors)` per spec at time `t`.
struct Sample {
    t: f64,
    counts: Vec<(u64, u64)>,
}

/// Evaluates a set of [`SloSpec`]s from periodic registry snapshots.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    origin: Instant,
    /// Ring of samples, oldest first; trimmed past the slowest window.
    samples: VecDeque<Sample>,
    last_snapshot: Option<MetricsSnapshot>,
}

/// Sum of a counter family — unlabeled plus all labeled series — so the
/// SLO sees `server.requests{shard="0"}` + `{shard="1"}` + ….
fn counter_sum(snap: &MetricsSnapshot, base: &str) -> u64 {
    snap.counter_family(base)
}

fn window_over(samples: &VecDeque<Sample>, spec_idx: usize, now: f64, window_s: f64) -> (u64, u64) {
    let cutoff = now - window_s;
    let mut oldest: Option<(u64, u64)> = None;
    let mut newest: Option<(u64, u64)> = None;
    for s in samples.iter() {
        if s.t < cutoff {
            // The youngest pre-window sample is the window's baseline.
            oldest = Some(s.counts[spec_idx]);
            continue;
        }
        if oldest.is_none() {
            oldest = Some(s.counts[spec_idx]);
        }
        newest = Some(s.counts[spec_idx]);
    }
    match (oldest, newest) {
        (Some((r0, e0)), Some((r1, e1))) => (r1.saturating_sub(r0), e1.saturating_sub(e0)),
        _ => (0, 0),
    }
}

impl SloEngine {
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine {
            specs,
            origin: Instant::now(),
            samples: VecDeque::new(),
            last_snapshot: None,
        }
    }

    /// Take a registry snapshot and record it at the current time.
    pub fn tick(&mut self) {
        let t = self.origin.elapsed().as_secs_f64();
        self.observe(snapshot(), t);
    }

    /// Record an externally supplied snapshot at time `t` seconds —
    /// the deterministic entry point the tests drive directly.
    pub fn observe(&mut self, snap: MetricsSnapshot, t: f64) {
        let counts = self
            .specs
            .iter()
            .map(|spec| {
                (
                    counter_sum(&snap, &spec.requests_metric),
                    counter_sum(&snap, &spec.errors_metric),
                )
            })
            .collect();
        self.samples.push_back(Sample { t, counts });
        // Keep one sample beyond the slowest window as the baseline.
        let horizon = self
            .specs
            .iter()
            .map(|s| s.slow_window_s)
            .fold(60.0, f64::max);
        while self.samples.len() > 2 && self.samples[1].t < t - horizon {
            self.samples.pop_front();
        }
        self.last_snapshot = Some(snap);
    }

    fn window(&self, spec: &SloSpec, spec_idx: usize, now: f64, window_s: f64) -> SloWindow {
        let (requests, errors) = window_over(&self.samples, spec_idx, now, window_s);
        let availability = if requests == 0 {
            1.0
        } else {
            1.0 - errors as f64 / requests as f64
        };
        let budget = (1.0 - spec.availability).max(f64::EPSILON);
        SloWindow {
            window_s,
            requests,
            errors,
            availability,
            burn_rate: (1.0 - availability) / budget,
        }
    }

    /// Evaluate every objective against the latest sample.
    pub fn report(&self) -> SloReport {
        let now = self.samples.back().map_or(0.0, |s| s.t);
        let empty_counts: Vec<(u64, u64)> = vec![(0, 0); self.specs.len()];
        let latest = self
            .samples
            .back()
            .map_or(&empty_counts[..], |s| &s.counts[..]);
        let slos = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let latency_observed_us = self
                    .last_snapshot
                    .as_ref()
                    .and_then(|s| s.histograms.get(&spec.latency_metric))
                    .filter(|h| h.count > 0)
                    .map(|h| h.p99 / 1e3);
                let latency = match latency_observed_us {
                    None => LatencyState::NoData,
                    Some(us) if us <= spec.latency_p99_us => LatencyState::Ok,
                    Some(_) => LatencyState::Over,
                };
                let fast = self.window(spec, i, now, spec.fast_window_s);
                let slow = self.window(spec, i, now, spec.slow_window_s);
                let (total_requests, total_errors) = latest.get(i).copied().unwrap_or((0, 0));
                let total_availability = if total_requests == 0 {
                    1.0
                } else {
                    1.0 - total_errors as f64 / total_requests as f64
                };
                SloStatus {
                    burning: fast.burn_rate > 1.0 && slow.burn_rate > 1.0,
                    breached: total_availability < spec.availability,
                    latency_observed_us,
                    latency,
                    fast,
                    slow,
                    total_requests,
                    total_errors,
                    total_availability,
                    spec: spec.clone(),
                }
            })
            .collect();
        SloReport {
            elapsed_s: now,
            slos,
        }
    }
}

// ---------------------------------------------------------------------------
// Process-global engine
// ---------------------------------------------------------------------------

fn global() -> &'static Mutex<Option<SloEngine>> {
    static GLOBAL: OnceLock<Mutex<Option<SloEngine>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Install (replacing any previous) the process-global SLO engine.
pub fn install(specs: Vec<SloSpec>) {
    *global().lock() = Some(SloEngine::new(specs));
}

/// Install the default dispatch objective ([`SloSpec::dispatch_default`]).
pub fn install_default() {
    install(vec![SloSpec::dispatch_default()]);
}

/// Remove the global engine (tests, bench teardown).
pub fn uninstall() {
    *global().lock() = None;
}

/// Feed the global engine one snapshot now. No-op when not installed.
pub fn tick() {
    if let Some(e) = global().lock().as_mut() {
        e.tick();
    }
}

/// Report from the global engine, if installed.
pub fn report() -> Option<SloReport> {
    global().lock().as_ref().map(|e| e.report())
}

/// Convenience: tick then report. `None` when no engine is installed.
pub fn tick_and_report() -> Option<SloReport> {
    let mut g = global().lock();
    g.as_mut().map(|e| {
        e.tick();
        e.report()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snap(requests: u64, errors: u64) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        // Split across labeled series to prove family summation.
        counters.insert("server.requests{shard=\"0\"}".to_string(), requests / 2);
        counters.insert(
            "server.requests{shard=\"1\"}".to_string(),
            requests - requests / 2,
        );
        counters.insert("server.request_errors".to_string(), errors);
        MetricsSnapshot {
            enabled: true,
            counters,
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    #[test]
    fn burn_rate_is_error_rate_over_budget() {
        let mut e = SloEngine::new(vec![SloSpec::dispatch_default()]);
        e.observe(snap(0, 0), 0.0);
        // 1000 requests, 10 errors in 1s: 1% error rate on a 0.1%
        // budget → burn 10 in both windows.
        e.observe(snap(1000, 10), 1.0);
        let r = e.report();
        let s = &r.slos[0];
        assert_eq!(s.fast.requests, 1000);
        assert_eq!(s.fast.errors, 10);
        assert!((s.fast.burn_rate - 10.0).abs() < 0.1, "{:?}", s.fast);
        assert!((s.slow.burn_rate - 10.0).abs() < 0.1);
        assert!(s.burning);
        assert!(s.breached, "0.99 cumulative < 0.999 target");
        assert!(r.availability_breached());
        assert!(r.to_json().contains("\"burning\": true"));
        assert!(r.render().contains("BURNING"));
    }

    #[test]
    fn recovery_drains_the_fast_window_first() {
        let mut e = SloEngine::new(vec![SloSpec::dispatch_default()]);
        e.observe(snap(0, 0), 0.0);
        // Storm at t=1, then two clean seconds.
        e.observe(snap(1000, 10), 1.0);
        e.observe(snap(2000, 10), 2.0);
        e.observe(snap(3000, 10), 3.0);
        let r = e.report();
        let s = &r.slos[0];
        // Fast window (1s) sees only clean traffic; the 60s slow
        // window still carries the storm's errors.
        assert!(s.fast.burn_rate < 1.0, "fast recovered: {:?}", s.fast);
        assert!(s.slow.burn_rate > 1.0, "slow still burning: {:?}", s.slow);
        assert!(!s.burning, "multi-window alert cleared on recovery");
    }

    #[test]
    fn clean_traffic_never_burns_or_breaches() {
        let mut e = SloEngine::new(vec![SloSpec::dispatch_default()]);
        for t in 0..5 {
            e.observe(snap(t * 1000, 0), t as f64);
        }
        let r = e.report();
        let s = &r.slos[0];
        assert_eq!(s.fast.burn_rate, 0.0);
        assert_eq!(s.slow.burn_rate, 0.0);
        assert!(!s.burning && !s.breached);
        assert_eq!(s.total_availability, 1.0);
        assert!(!r.availability_breached());
    }

    #[test]
    fn idle_windows_report_full_availability() {
        let e = SloEngine::new(vec![SloSpec::dispatch_default()]);
        let r = e.report();
        let s = &r.slos[0];
        assert_eq!(s.fast.availability, 1.0);
        assert!(!s.breached);
        assert_eq!(s.total_requests, 0);
    }

    #[test]
    fn global_engine_round_trips() {
        install_default();
        tick();
        let r = tick_and_report().expect("installed");
        assert_eq!(r.slos.len(), 1);
        assert_eq!(r.slos[0].spec.name, "dispatch");
        uninstall();
        assert!(report().is_none());
    }

    #[test]
    fn latency_objective_checks_p99() {
        use crate::{HistogramSummary, Unit};
        let mut e = SloEngine::new(vec![SloSpec::dispatch_default()]);
        let mut s = snap(100, 0);
        s.histograms.insert(
            SERVER_BATCH_SPAN.to_string(),
            HistogramSummary {
                unit: Unit::Nanos,
                count: 100,
                p50: 100_000.0,
                p95: 400_000.0,
                p99: 1_200_000.0, // 1.2ms > 1ms objective
                max: 1_500_000.0,
                mean: 150_000.0,
                sum: 15_000_000.0,
                exemplar: None,
            },
        );
        e.observe(s, 1.0);
        let r = e.report();
        assert!((r.slos[0].latency_observed_us.unwrap() - 1200.0).abs() < 1e-6);
        assert_eq!(r.slos[0].latency, LatencyState::Over);
    }

    #[test]
    fn missing_or_empty_latency_series_is_no_data_not_ok() {
        use crate::{HistogramSummary, Unit};
        let mut e = SloEngine::new(vec![SloSpec::dispatch_default()]);
        // Traffic flows but the latency series was never emitted.
        e.observe(snap(100, 0), 1.0);
        let r = e.report();
        assert_eq!(r.slos[0].latency_observed_us, None);
        assert_eq!(r.slos[0].latency, LatencyState::NoData);
        assert!(r.to_json().contains("\"latency\": \"NoData\""));
        assert!(r.render().contains("p99 - (target 1000.0us, NO DATA)"));

        // A registered series with no samples is no data either.
        let mut s = snap(200, 0);
        s.histograms.insert(
            SERVER_BATCH_SPAN.to_string(),
            HistogramSummary {
                unit: Unit::Nanos,
                count: 0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
                mean: 0.0,
                sum: 0.0,
                exemplar: None,
            },
        );
        e.observe(s, 2.0);
        assert_eq!(e.report().slos[0].latency, LatencyState::NoData);
    }
}
