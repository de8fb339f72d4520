//! Seeded randomness, latency samples, the per-layer ledger and the
//! per-client tally every workload fills.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream derived from this one (one per client).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Stable 64-bit digest (SipHash with fixed keys).
pub fn digest(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Raw samples of one quantity; percentiles by nearest rank.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`; 0 when empty.
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }
}

/// Per-layer samples keyed by metric name (`crate.quantity`).
#[derive(Debug, Default, Clone)]
pub struct Ledger(BTreeMap<&'static str, Samples>);

impl Ledger {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> Samples {
        self.0.get(name).cloned().unwrap_or_default()
    }

    pub fn merge(&mut self, other: &Ledger) {
        for (k, v) in &other.0 {
            self.0.entry(k).or_default().extend(v);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &Samples)> {
        self.0.iter()
    }
}

/// Length of the windows a phase is cut into for the end-to-end metrics.
pub const WINDOW_S: f64 = 1.0;

/// Samples bucketed by the window of the phase they completed in.
#[derive(Debug, Default, Clone)]
pub struct Windows(Vec<Samples>);

impl Windows {
    pub fn push(&mut self, window: usize, v: f64) {
        if self.0.len() <= window {
            self.0.resize(window + 1, Samples::default());
        }
        self.0[window].push(v);
    }

    pub fn all(&self) -> Samples {
        let mut out = Samples::default();
        for s in &self.0 {
            out.extend(s);
        }
        out
    }

    pub fn merge(&mut self, other: &Windows) {
        for (w, s) in other.0.iter().enumerate() {
            if self.0.len() <= w {
                self.0.resize(w + 1, Samples::default());
            }
            self.0[w].extend(s);
        }
    }

    /// Median over the first `n` windows of `f(window samples)`: one
    /// window disturbed by another process moves it little.
    pub fn median_of(&self, n: usize, f: impl Fn(&Samples) -> f64) -> f64 {
        let mut per = Samples::default();
        for w in 0..n {
            per.push(self.0.get(w).map_or(0.0, &f));
        }
        per.pct(0.5)
    }
}

/// What one closed-loop client saw during one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Start of the phase; ops and reads are bucketed by window from it.
    pub start: Option<Instant>,
    pub attempted: u64,
    pub failed: u64,
    /// Ops completed, by window (each sample is one op).
    pub done: Windows,
    /// Client-observed latency of read ops (µs), by window.
    pub reads: Windows,
    /// `apply_update` round trips (µs).
    pub writes: Samples,
    /// `install_program` across all shards (µs).
    pub reloads: Samples,
    /// Round trips of untraced ops (µs), reloads excluded.
    pub ops: Samples,
    /// Traced ops: round trip minus the replayed layer calls (µs).
    pub traced_ops: Samples,
    pub ledger: Ledger,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// The window of the phase the clock is in now.
    pub fn window(&self) -> usize {
        self.start
            .map_or(0, |s| (s.elapsed().as_secs_f64() / WINDOW_S) as usize)
    }

    /// Record the client-observed latency of one read op.
    pub fn read(&mut self, us: f64) {
        let w = self.window();
        self.reads.push(w, us);
    }

    /// Record the time of one op that enters the ledger.
    pub fn op(&mut self, traced: bool, us: f64) {
        if traced {
            self.traced_ops.push(us);
        } else {
            self.ops.push(us);
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why.into());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done.merge(&other.done);
        self.reads.merge(&other.reads);
        self.writes.extend(&other.writes);
        self.reloads.extend(&other.reloads);
        self.ops.extend(&other.ops);
        self.traced_ops.extend(&other.traced_ops);
        self.ledger.merge(&other.ledger);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.99), 99.0);
        assert_eq!(Samples::default().pct(0.5), 0.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(7);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hot > 3000, "top 1% of ranks drew {hot} of 10000");
    }
}
