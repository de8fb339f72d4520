//! `interact`: the repository benchmark. One paper interaction end to
//! end — a `Get_Schema` / `Get_Class` / `Get_Value` request intercepted
//! by the active mechanism, the most specific rule selected for the
//! session's context, the window built and rendered — driven by two
//! closed-loop clients against a two-shard `SessionServer`.
//!
//! ```text
//! cargo run --release --offline --manifest-path interact/Cargo.toml -- \
//!     --workload browse|dispatch|edit --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it splits the measured time into an untraced phase, a
//! traced phase (per-layer ledger from replayed layer calls) and a phase
//! with obs metrics off. The last line of standard output is the result
//! object; the line before it is the full report, also written under
//! `target/interact/`.

mod browse;
mod dispatch;
mod edit;
mod report;
#[cfg(test)]
mod selftest;
mod stats;
mod wire;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use activegis::{ServerSession, SessionServer};

use crate::report::Report;
use crate::stats::{Rng, Samples, Tally};

/// Closed-loop clients: each waits for its response before the next op.
pub const CLIENTS: usize = 2;
/// Shard worker threads of the server.
pub const SHARDS: usize = 2;
/// Full set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, then more while they total under `SETUP_BUDGET_S`, so a
/// short set-up dominated by one fsync gets a steadier median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// In the traced phase, one op in this many (seeded) is traced, so the
/// replayed layer calls barely load the shards the other ops run on.
const TRACE_ONE_IN: usize = 4;

/// One closed-loop client of a workload.
pub trait Client: Send {
    /// Issue the client's next op and wait for it.
    fn step(&mut self, traced: bool, tally: &mut Tally);
}

/// A set-up workload: a running server plus what its oracles need.
pub trait Workload {
    fn server(&self) -> &SessionServer;
    /// One session per shard, for per-shard probes.
    fn shard_sessions(&self) -> Vec<ServerSession>;
    /// Build the reference results the oracles compare against
    /// (not part of set-up time).
    fn prepare_oracle(&mut self) -> Result<(), String>;
    fn clients(&self, seed: u64) -> Vec<Box<dyn Client + '_>>;
    /// Check the run's outputs after the clients stopped; returns
    /// workload-specific report entries.
    fn verify(&mut self) -> Result<Vec<(&'static str, f64)>, String>;
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload browse|dispatch|edit is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Drive every client in a closed loop for `secs`; returns the merged
/// tally and the measured wall time.
pub fn closed_loop(clients: &mut [Box<dyn Client + '_>], secs: f64, traced: bool) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                s.spawn(move || {
                    let mut tally = Tally {
                        start: Some(start),
                        ..Tally::default()
                    };
                    let mut sampler = Rng::new(0x7ACE).fork(i as u64);
                    while Instant::now() < deadline {
                        let trace_this = traced && sampler.below(TRACE_ONE_IN) == 0;
                        let before = tally.attempted;
                        c.step(trace_this, &mut tally);
                        let w = tally.window();
                        for _ in before..tally.attempted {
                            tally.done.push(w, 1.0);
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    (total, elapsed)
}

/// Winner-cache counters summed over the shards' own engine sessions.
fn cache_stats(w: &dyn Workload) -> active::CacheStats {
    let mut sum = active::CacheStats::default();
    for s in w.shard_sessions() {
        let c = w.server().with_dispatcher(s, |d| d.engine().cache_stats());
        sum.hits += c.hits;
        sum.misses += c.misses;
        sum.evictions += c.evictions;
        sum.invalidations += c.invalidations;
        sum.entries += c.entries;
    }
    sum
}

fn setup(args: &Args) -> Result<(Box<dyn Workload>, Samples), String> {
    let mut times = Samples::default();
    let mut last = None;
    while times.len() < MIN_SETUPS || (times.sum() < SETUP_BUDGET_S && times.len() < MAX_SETUPS) {
        // Drop the previous set-up first: only one is alive at a time.
        drop(last.take());
        let t = Instant::now();
        let w: Box<dyn Workload> = match args.workload.as_str() {
            "browse" => Box::new(browse::Browse::setup(args.seed)?),
            "dispatch" => Box::new(dispatch::Dispatch::setup(args.seed)?),
            "edit" => Box::new(edit::Edit::setup(args.seed)?),
            other => return Err(format!("unknown workload {other}")),
        };
        times.push(t.elapsed().as_secs_f64());
        last = Some(w);
    }
    Ok((last.expect("MIN_SETUPS > 0"), times))
}

fn run(args: &Args) -> Result<Report, String> {
    let (mut w, setup_times) = setup(args)?;
    w.prepare_oracle()?;
    let mut report = Report::new(args, &setup_times);
    let before = cache_stats(&*w);
    {
        let mut clients = w.clients(args.seed);
        if args.trace {
            let third = args.seconds / 3.0;
            let (plain, plain_s) = closed_loop(&mut clients, third, false);
            let (traced, traced_s) = closed_loop(&mut clients, third, true);
            obs::set_enabled(false);
            let (off, off_s) = closed_loop(&mut clients, third, false);
            obs::set_enabled(true);
            report.traced(plain, plain_s, traced, traced_s, off, off_s);
        } else {
            let (tally, secs) = closed_loop(&mut clients, args.seconds, false);
            report.untraced(tally, secs);
        }
    }
    let after = cache_stats(&*w);
    report.cache(&before, &after);
    let store = w.server().db_store();
    let wal = w
        .server()
        .wal_status()
        .map(|(s, _)| (s.records as f64, s.fsyncs as f64, s.payload_bytes as f64));
    report.store(
        store.snapshot().approx_data_bytes() as f64,
        store.epochs_retained() as f64,
        wal,
    );
    drop(store);
    match w.verify() {
        Ok(extra) => report.extend(extra),
        Err(e) => report.oracle_failed(e),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("interact: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let ok = report.passed();
            report.print();
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("interact: {e}");
            ExitCode::FAILURE
        }
    }
}
