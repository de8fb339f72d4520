//! Turning tallies into the result object and the full report.

use std::fmt::Write as _;

use crate::stats::{peak_rss_mb, Samples, Tally, WINDOW_S};
use crate::{Args, CLIENTS, SHARDS};

/// Per-layer timings reported as p50 in the result object (every
/// workload exercises these layers).
const LAYER_P50: [&str; 4] = [
    "activegis.hop_us",
    "gisui.dispatcher_self_us",
    "geodb.pin_us",
    "active.dispatch_us",
];

/// Per-layer counts reported as means in the result object; 0 where the
/// workload does not exercise the layer.
const LAYER_MEAN: [(&str, &str); 3] = [
    ("geodb.rows_per_read", "count"),
    ("builder.widgets_per_window", "count"),
    ("gisui.response_bytes", "B"),
];

pub struct Report {
    args: Args,
    setup: Samples,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    oracle_error: Option<String>,
    /// Result-object metrics: `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
    /// Everything else, for the full report.
    notes: Vec<(String, f64)>,
}

impl Report {
    pub fn new(args: &Args, setup: &Samples) -> Report {
        Report {
            args: args.clone(),
            setup: setup.clone(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            oracle_error: None,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    pub fn extend(&mut self, extra: Vec<(&'static str, f64)>) {
        for (k, v) in extra {
            self.note(k, v);
        }
    }

    fn count(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        for e in &t.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Whole-phase latency notes (`prefix` names the phase).
    fn latencies(&mut self, prefix: &str, t: &Tally, secs: f64) {
        self.note(&format!("{prefix}run.ops_per_s"), t.attempted as f64 / secs);
        let reads = t.reads.all();
        for (name, s) in [
            ("read", &reads),
            ("write", &t.writes),
            ("reload", &t.reloads),
        ] {
            self.note(&format!("{prefix}run.{name}_p50_us"), s.pct(0.5));
            self.note(&format!("{prefix}run.{name}_p99_us"), s.pct(0.99));
            self.note(&format!("{prefix}run.{name}_samples"), s.len() as f64);
        }
    }

    /// End-to-end metrics: medians over the phase's one-second windows
    /// of each window's throughput and read percentiles.
    pub fn untraced(&mut self, t: Tally, secs: f64) {
        self.count(&t);
        let windows = (secs / WINDOW_S).floor().max(1.0) as usize;
        let rate = t.done.median_of(windows, |s| s.len() as f64 / WINDOW_S);
        self.metric("setup_s", self.setup.pct(0.5), "s");
        self.metric("ops_per_s", rate, "ops/s");
        self.metric(
            "read_p50_us",
            t.reads.median_of(windows, |s| s.pct(0.5)),
            "us",
        );
        self.metric(
            "read_p99_us",
            t.reads.median_of(windows, |s| s.pct(0.99)),
            "us",
        );
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        self.note("windows", windows as f64);
        self.latencies("", &t, secs);
        let failed_ratio = t.failed as f64 / t.attempted.max(1) as f64;
        self.note("failed_ratio", failed_ratio);
    }

    pub fn traced(
        &mut self,
        plain: Tally,
        plain_s: f64,
        traced: Tally,
        traced_s: f64,
        off: Tally,
        off_s: f64,
    ) {
        self.count(&plain);
        self.count(&traced);
        self.count(&off);
        let plain_rate = plain.attempted as f64 / plain_s;
        let traced_rate = traced.attempted as f64 / traced_s;
        let off_rate = off.attempted as f64 / off_s;
        self.latencies("untraced.", &plain, plain_s);
        self.latencies("traced.", &traced, traced_s);
        self.note("obs_off.ops_per_s", off_rate);
        let l = &traced.ledger;
        for name in LAYER_P50 {
            self.metric(name, l.get(name).pct(0.5), "us");
        }
        for (name, unit) in LAYER_MEAN {
            self.metric(name, l.get(name).mean(), unit);
        }
        // Decomposed traced ops against the un-decomposed ops that ran
        // beside them in the same phase (same load, same op mix).
        let layers = l.get("ledger.layers_us").mean();
        self.metric("ledger.coverage", layers / traced.ops.mean(), "ratio");
        self.note(
            "ledger.coverage_vs_untraced_phase",
            layers / plain.ops.mean(),
        );
        self.note("ledger.traced_ops", traced.traced_ops.len() as f64);
        self.metric(
            "bench.trace_overhead_pct",
            100.0 * (plain_rate - traced_rate) / plain_rate,
            "%",
        );
        self.metric(
            "obs.metrics_share",
            100.0 * (off_rate - plain_rate) / off_rate,
            "%",
        );
        for (name, s) in l.iter() {
            if *name == "ledger.layers_us" {
                continue;
            }
            self.note(&format!("{name}.p50"), s.pct(0.5));
            self.note(&format!("{name}.p99"), s.pct(0.99));
            self.note(&format!("{name}.samples"), s.len() as f64);
        }
    }

    pub fn cache(&mut self, before: &active::CacheStats, after: &active::CacheStats) {
        let hits = after.hits.saturating_sub(before.hits) as f64;
        let misses = after.misses.saturating_sub(before.misses) as f64;
        let evictions = after.evictions.saturating_sub(before.evictions) as f64;
        let ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        let per_kop = evictions * 1000.0 / self.attempted.max(1) as f64;
        if self.args.trace {
            self.metric("active.winner_hit_ratio", ratio, "ratio");
            self.metric("active.winner_evictions_per_kop", per_kop, "count");
        }
        self.note("active.winner_hit_ratio", ratio);
        self.note("active.winner_evictions", evictions);
        self.note("active.winner_entries", after.entries as f64);
    }

    /// Store-level layer facts, taken once at the end of the run.
    pub fn store(&mut self, data_bytes: f64, epochs: f64, wal: Option<(f64, f64, f64)>) {
        let (fsyncs, bytes) = match wal {
            Some((records, fsyncs, bytes)) if records > 0.0 => (fsyncs / records, bytes / records),
            _ => (0.0, 0.0),
        };
        if self.args.trace {
            self.metric("geodb.data_bytes", data_bytes, "B");
            self.metric("geodb.epochs_retained", epochs, "count");
            self.metric("geodb.fsyncs_per_commit", fsyncs, "count");
            self.metric("geodb.wal_bytes_per_commit", bytes, "B");
        }
        self.note("geodb.data_bytes", data_bytes);
        self.note("geodb.epochs_retained", epochs);
    }

    pub fn oracle_failed(&mut self, why: String) {
        self.oracle_error = Some(why);
    }

    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.oracle_error.is_none()
    }

    fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.passed(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push_str("}}");
        out
    }

    fn full(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"clients\": {CLIENTS}, \"shards\": {SHARDS}, \"closed_loop\": true, \"host\": {}, ",
            self.args.workload,
            self.args.seed,
            num(self.args.seconds),
            self.args.trace,
            host_facts()
        );
        let _ = write!(
            out,
            "\"setup_s_samples\": [{}], ",
            (0..self.setup.len())
                .map(|i| num(self.setup.pct((i + 1) as f64 / self.setup.len() as f64)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = write!(
            out,
            "\"oracle\": {}, \"errors\": [{}], \"notes\": {{",
            self.oracle_error
                .as_deref()
                .map_or("\"ok\"".to_string(), json_str),
            self.errors
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (i, (name, value)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {}", num(*value));
        }
        let _ = write!(out, "}}, \"result\": {}}}", self.result_line());
        out
    }

    /// Print the full report, save it under `target/interact/`, and print
    /// the result object as the last line.
    pub fn print(&self) {
        let full = self.full();
        println!("{full}");
        let dir = std::path::Path::new("target").join("interact");
        let file = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace)
        ));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, &full)) {
            eprintln!("interact: could not save {file:?}: {e}");
        }
        if let Some(e) = &self.oracle_error {
            eprintln!("interact: oracle failed: {e}");
        }
        for e in &self.errors {
            eprintln!("interact: failed op: {e}");
        }
        println!("{}", self.result_line());
    }
}

/// A finite JSON number (non-finite values cannot be encoded).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, `available_parallelism`, rustc version and git commit.
fn host_facts() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {}, \"available_parallelism\": {parallelism}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&command_line("nproc", &[])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    )
}
