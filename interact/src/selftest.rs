//! Self-tests of the benchmark. The two cache tests set up full
//! workloads; run them optimized:
//! `cargo test --release --offline --manifest-path interact/Cargo.toml`.

use crate::report::Report;
use crate::stats::{digest, Samples, Tally};
use crate::{browse, cache_stats, closed_loop, dispatch, edit, Args, Workload};

/// Digest of the first ops each workload's plan generates for a client.
fn op_sequence(seed: u64) -> u64 {
    let poles: Vec<u64> = (100..1192).collect();
    let mut seq = Vec::new();
    for client in 0..crate::CLIENTS {
        let candidates = browse::candidates(seed, &poles, 64);
        let mut b = browse::Plan::new(seed, client, vec![0, 1, 4, 5], candidates);
        let mut d = dispatch::Plan::new(seed, client, 11);
        let mut e = edit::Plan::new(seed, client, &poles);
        for _ in 0..200 {
            seq.push(digest(&b.next_walk()));
            seq.push(digest(&d.next_batch()));
            seq.push(digest(&e.next_cycle()));
        }
    }
    digest(&seq)
}

#[test]
fn same_seed_same_ops_other_seed_other_ops() {
    assert_eq!(op_sequence(7), op_sequence(7));
    assert_ne!(op_sequence(7), op_sequence(8));
}

fn args(workload: &str) -> Args {
    Args {
        workload: workload.into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
    }
}

#[test]
fn zero_op_run_is_reported_as_failed() {
    let mut setup = Samples::default();
    setup.push(0.1);
    let mut report = Report::new(&args("browse"), &setup);
    report.untraced(Tally::default(), 1.0);
    assert!(!report.passed(), "a run with no ops must not pass");
}

#[test]
fn failed_op_or_oracle_mismatch_fails_the_run() {
    let mut setup = Samples::default();
    setup.push(0.1);
    let ok = Tally {
        attempted: 10,
        ..Tally::default()
    };
    let mut report = Report::new(&args("browse"), &setup);
    report.untraced(ok, 1.0);
    assert!(report.passed());
    report.oracle_failed("mismatch".into());
    assert!(!report.passed());

    let mut failing = Tally {
        attempted: 10,
        ..Tally::default()
    };
    failing.fail("op failed");
    let mut report = Report::new(&args("browse"), &setup);
    report.untraced(failing, 1.0);
    assert!(!report.passed());
}

/// Winner-cache evictions over closed-loop runs of one second each,
/// stopping at the first eviction or after `max_secs`.
fn evictions(w: &mut dyn Workload, max_secs: usize) -> u64 {
    w.prepare_oracle().expect("oracle builds");
    let before = cache_stats(w);
    let mut evicted = 0;
    {
        let mut clients = w.clients(1);
        for _ in 0..max_secs {
            let (tally, _) = closed_loop(&mut clients, 1.0, false);
            assert!(tally.attempted > 0);
            assert_eq!(tally.failed, 0, "{:?}", tally.errors);
            evicted = cache_stats(w).evictions - before.evictions;
            if evicted > 0 {
                break;
            }
        }
    }
    w.verify().expect("oracle passes");
    evicted
}

#[test]
fn dispatch_overflows_the_winner_cache_and_browse_does_not() {
    let mut d = dispatch::Dispatch::setup(1).expect("dispatch sets up");
    assert!(evictions(&mut d, 30) > 0, "dispatch must evict");
    drop(d);
    let mut b = browse::Browse::setup(1).expect("browse sets up");
    assert_eq!(evictions(&mut b, 2), 0, "browse must fit the cache");
}
