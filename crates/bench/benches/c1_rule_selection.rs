//! C1 — rule selection scaling, dispatch-strategy comparison, and the
//! most-specific-wins ablation.
//!
//! The paper's execution model fires exactly one customization rule per
//! event, the most specific. This bench measures dispatch latency as the
//! rule population grows (10 → 10 000 rules across a user/category/
//! application lattice), compares the paper's `MostSpecific` policy
//! against the `FireAll` ablation, and pits the compiled dispatch tier
//! (flat jump tables + winner cache, the default strategy) against the
//! `Linear` full-scan oracle.
//!
//! Expected shape: linear dispatch is O(rules) (every rule's pattern must
//! be tested); a cold compiled walk is O(candidates in the event's jump
//! table), and stops at the first match under `MostSpecific`; the winner
//! cache answers repeat dispatches in O(1). The machine-readable
//! comparison lands in `BENCH_dispatch.json` (under `target/bench/`, or
//! at the repo root with `BENCH_RECORD=1`). Set `BENCH_QUICK=1` to run a
//! reduced smoke version (CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use active::{
    ContextPattern, DispatchStrategy, Engine, EngineConfig, Event, EventPattern, Rule,
    SelectionPolicy, SessionContext,
};
use geodb::query::{DbEvent, DbEventKind};

/// Build an engine with `n` customization rules over a context lattice:
/// one third generic-application, one third per-category, one third
/// per-user.
fn engine_with_rules(
    n: usize,
    policy: SelectionPolicy,
    strategy: DispatchStrategy,
) -> Engine<usize> {
    uniform_engine(
        n,
        EngineConfig {
            selection: policy,
            strategy,
            tracing: false,
            ..Default::default()
        },
    )
}

/// The [`engine_with_rules`] rule set under an explicit configuration.
fn uniform_engine(n: usize, config: EngineConfig) -> Engine<usize> {
    let mut engine = Engine::with_config(config);
    for i in 0..n {
        let ctx = match i % 3 {
            0 => ContextPattern::for_application("pole_manager"),
            1 => ContextPattern::for_category(format!("cat{}", i % 7)).application("pole_manager"),
            _ => ContextPattern::for_user(format!("user{i}")).application("pole_manager"),
        };
        engine
            .add_rule(Rule::customization(
                format!("r{i}"),
                EventPattern::db(DbEventKind::GetClass),
                ctx,
                i,
            ))
            .unwrap();
    }
    engine
}

/// Like [`engine_with_rules`], but the event patterns rotate over five
/// event families (three db kinds, interface gestures, external events),
/// so only ~1/5 of the rules share the dispatched event's jump table.
fn mixed_engine(n: usize, strategy: DispatchStrategy) -> Engine<usize> {
    let mut engine = Engine::with_config(EngineConfig {
        selection: SelectionPolicy::MostSpecific,
        strategy,
        tracing: false,
        ..Default::default()
    });
    for i in 0..n {
        let pattern = match i % 5 {
            0 => EventPattern::db(DbEventKind::GetClass),
            1 => EventPattern::db(DbEventKind::GetSchema),
            2 => EventPattern::db(DbEventKind::Insert),
            3 => EventPattern::Interface {
                name: Some("click".into()),
                source_prefix: None,
            },
            _ => EventPattern::External {
                name: Some(format!("ext{}", i % 7)),
            },
        };
        let ctx = match i % 3 {
            0 => ContextPattern::for_application("pole_manager"),
            1 => ContextPattern::for_category(format!("cat{}", i % 7)).application("pole_manager"),
            _ => ContextPattern::for_user(format!("user{i}")).application("pole_manager"),
        };
        engine
            .add_rule(Rule::customization(format!("r{i}"), pattern, ctx, i))
            .unwrap();
    }
    engine
}

fn event() -> Event {
    Event::Db(DbEvent::GetClass {
        schema: "phone_net".into(),
        class: "Pole".into(),
    })
}

/// Mean ns/call of `f`, measured with a warm-up and a wall-clock target.
fn measure_ns<F: FnMut()>(mut f: F, quick: bool) -> f64 {
    let warmup = if quick { 5 } else { 50 };
    for _ in 0..warmup {
        f();
    }
    let target_ns: u128 = if quick { 2_000_000 } else { 200_000_000 };
    let mut iters: u64 = 0;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        // Check the clock only every 64 calls so the probe cost does not
        // distort sub-microsecond measurements.
        if iters & 63 == 0 {
            let elapsed = start.elapsed().as_nanos();
            if elapsed >= target_ns {
                return elapsed as f64 / iters as f64;
            }
        }
    }
}

/// Dispatch-strategy comparison rows, written to `BENCH_dispatch.json`.
///
/// Three variants per rule-set size, all repeat-dispatching the same
/// `Get_Class` event under the same session:
/// - `linear`: the full-scan oracle (`DispatchStrategy::Linear`);
/// - `compiled`: the compiled tier (jump tables + interned contexts)
///   with the winner cache forced off (a guard-bearing rule makes the
///   set uncacheable) — the cold table-walk cost alone;
/// - `compiled_hot`: compiled tier + winner cache, where every dispatch
///   after the first is a cache hit — the steady state of an
///   interactive session replaying the same gesture.
///
/// With `DISPATCH_GATE=1` the run fails when
/// [`bench::compiled_tier_gate`] rejects the rows: a scenario whose cold
/// compiled walk is not at least twice as fast as the cold linear scan
/// at ≥ 1000 rules.
fn dispatch_strategy_comparison(quick: bool) -> serde_json::Value {
    let mut rows = Vec::new();
    rows.extend(scenario_rows(
        "uniform",
        &|n, s| engine_with_rules(n, SelectionPolicy::MostSpecific, s),
        quick,
    ));
    rows.extend(scenario_rows("mixed_kinds", &mixed_engine, quick));
    enforce_gate(bench::compiled_tier_gate(&rows), "c1 strategy");

    serde_json::Value::Object(vec![
        (
            "bench".into(),
            serde_json::Value::String("c1_dispatch_strategy".into()),
        ),
        ("quick".into(), serde_json::Value::Bool(quick)),
        (
            "event".into(),
            serde_json::Value::String("Db::Get_Class phone_net/Pole (repeat-dispatch)".into()),
        ),
        (
            "session".into(),
            serde_json::Value::String("user5/cat5/pole_manager".into()),
        ),
        ("rows".into(), serde_json::Value::Array(rows)),
    ])
}

/// Report a gate verdict: with `DISPATCH_GATE=1` a failure fails the
/// run, otherwise it is only printed.
fn enforce_gate(verdict: Result<(), String>, label: &str) {
    if let Err(msg) = verdict {
        let msg = format!("[{label}] DISPATCH GATE: {msg}");
        if std::env::var("DISPATCH_GATE").is_ok() {
            panic!("{msg}");
        }
        eprintln!("{msg} (set DISPATCH_GATE=1 to fail)");
    }
}

/// One scenario's worth of comparison rows. `uniform` puts every rule in
/// the dispatched event's jump table (the tables cannot prune; the
/// specificity order and the cache do all the work); `mixed_kinds`
/// spreads rules over five event families (the tables prune ~80% of
/// candidates before any pattern is tested).
fn scenario_rows(
    scenario: &str,
    build: &dyn Fn(usize, DispatchStrategy) -> Engine<usize>,
    quick: bool,
) -> Vec<serde_json::Value> {
    let session = SessionContext::new("user5", "cat5", "pole_manager");
    // Quick mode keeps the 1000-rule size: it is the population the
    // compiled-vs-linear CI gate is defined on.
    let sizes: &[usize] = if quick {
        &[10, 100, 1000]
    } else {
        &[10, 100, 1000, 10_000]
    };

    // A guarded rule (never matching: external pattern) disables the
    // winner cache for the whole set, isolating the cold walk.
    let cache_off_sentinel = || {
        Rule::customization(
            "cache_off_sentinel",
            EventPattern::External {
                name: Some("never".into()),
            },
            ContextPattern::any(),
            usize::MAX,
        )
        .with_guard(Arc::new(|_, _| false))
    };

    let mut rows = Vec::new();
    for &n in sizes {
        let mut linear = build(n, DispatchStrategy::Linear);
        let mut compiled = build(n, DispatchStrategy::Compiled);
        let mut compiled_hot = build(n, DispatchStrategy::Compiled);
        compiled.add_rule(cache_off_sentinel()).unwrap();

        // Compile off the timed path, and capture the one-off cost.
        let compile_ns = compiled.precompile().compile_ns;
        compiled_hot.precompile();

        // The strategies must agree before we time them.
        let a = linear.dispatch(event(), &session).unwrap();
        let d = compiled.dispatch(event(), &session).unwrap();
        let e = compiled_hot.dispatch(event(), &session).unwrap();
        assert_eq!(a.customization(), d.customization());
        assert_eq!(a.customization(), e.customization());

        let linear_ns = measure_ns(
            || {
                black_box(linear.dispatch(event(), &session).unwrap());
            },
            quick,
        );
        let compiled_ns = measure_ns(
            || {
                black_box(compiled.dispatch(event(), &session).unwrap());
            },
            quick,
        );
        let compiled_hot_ns = measure_ns(
            || {
                black_box(compiled_hot.dispatch(event(), &session).unwrap());
            },
            quick,
        );
        let pstats = compiled_hot.cache_stats();
        assert!(
            pstats.hits > pstats.misses,
            "compiled_hot variant was not cache-hot: {pstats:?}"
        );

        eprintln!(
            "[c1 strategy/{scenario}] {n:>6} rules: linear {linear_ns:>12.1} ns, cold compiled \
             {compiled_ns:>10.1} ns ({:>6.2}x, compile {:>8.1} µs), cache-hot \
             {compiled_hot_ns:>10.1} ns ({:>6.1}x)",
            linear_ns / compiled_ns,
            compile_ns as f64 / 1e3,
            linear_ns / compiled_hot_ns,
        );

        rows.push(serde_json::Value::Object(vec![
            (
                "scenario".into(),
                serde_json::Value::String(scenario.into()),
            ),
            ("rules".into(), serde_json::Value::U64(n as u64)),
            ("linear_ns".into(), serde_json::Value::F64(linear_ns)),
            ("compiled_ns".into(), serde_json::Value::F64(compiled_ns)),
            (
                "compiled_hot_ns".into(),
                serde_json::Value::F64(compiled_hot_ns),
            ),
            ("compile_ns".into(), serde_json::Value::U64(compile_ns)),
            (
                "speedup_compiled".into(),
                serde_json::Value::F64(linear_ns / compiled_ns),
            ),
        ]));
    }
    rows
}

/// Batch-lane rows: the same cache-hot `Get_Class` stream dispatched one
/// event at a time vs through `dispatch_batch`, which packs the context,
/// classifies the route and resolves the selection memo once per lane
/// instead of once per event. Each batch size is measured with rule
/// tracing off and on — on is what `RuleBase::new()` and `SessionServer`
/// ship. Each lane's figure is the median of [`LANE_ROUNDS`] alternating
/// rounds. With `DISPATCH_GATE=1` the run fails when
/// [`bench::batch_lane_gate`] rejects the rows: a batch of ≥ 16 events
/// dispatching slower per event than the per-event loop, traced or not.
fn batch_section(quick: bool) -> serde_json::Value {
    let session = SessionContext::new("user5", "cat5", "pole_manager");
    let n = 1000;
    let batch_sizes: &[usize] = if quick { &[16, 64] } else { &[16, 64, 256] };

    let mut rows = Vec::new();
    for tracing in [false, true] {
        rows.extend(batch_rows(&session, n, batch_sizes, tracing, quick));
    }
    enforce_gate(bench::batch_lane_gate(&rows), "c1 batch");
    serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(
                "uniform 1000-rule set, cache-hot Get_Class stream: per-event \
                 dispatch loop vs dispatch_batch lane memos (compiled tier), \
                 rule tracing off and on"
                    .into(),
            ),
        ),
        ("rows".into(), serde_json::Value::Array(rows)),
    ])
}

/// Alternating measurement rounds per lane in a batch row.
const LANE_ROUNDS: usize = 7;

/// The batch-lane rows for one tracing setting.
fn batch_rows(
    session: &SessionContext,
    n: usize,
    batch_sizes: &[usize],
    tracing: bool,
    quick: bool,
) -> Vec<serde_json::Value> {
    let config = EngineConfig {
        selection: SelectionPolicy::MostSpecific,
        tracing,
        ..Default::default()
    };
    let mut per_event = uniform_engine(n, config);
    let mut batched = uniform_engine(n, config);
    per_event.precompile();
    batched.precompile();

    let mut rows = Vec::new();
    for &len in batch_sizes {
        let events: Vec<Event> = (0..len).map(|_| event()).collect();
        // Equivalence before timing.
        let outs = batched.dispatch_batch(events.iter().cloned(), session);
        let want = per_event.dispatch(event(), session).unwrap();
        assert_eq!(outs.len(), len);
        for o in &outs {
            let o = o.as_ref().unwrap();
            assert_eq!(o.customization(), want.customization());
            assert_eq!(o.trace.entries, want.trace.entries);
            assert_eq!(o.trace.entries.is_empty(), !tracing);
        }

        // The two lanes take turns for a few rounds and each reports its
        // median, so a burst of host load during one lane's turn cannot
        // decide the gate. Traced, both lanes spend most of each event
        // recording the same trace, and the lane's saving is a small
        // share of the total.
        let (mut per_event_runs, mut batch_runs) = (Vec::new(), Vec::new());
        for _ in 0..LANE_ROUNDS {
            per_event_runs.push(measure_ns(
                || {
                    for e in &events {
                        black_box(per_event.dispatch(e.clone(), session).unwrap());
                    }
                },
                quick,
            ));
            batch_runs.push(measure_ns(
                || {
                    black_box(batched.dispatch_batch(events.iter().cloned(), session));
                },
                quick,
            ));
        }
        per_event_runs.sort_by(f64::total_cmp);
        batch_runs.sort_by(f64::total_cmp);
        let per_event_ns = per_event_runs[LANE_ROUNDS / 2] / len as f64;
        let batch_ns = batch_runs[LANE_ROUNDS / 2] / len as f64;
        let speedup = per_event_ns / batch_ns;
        eprintln!(
            "[c1 batch] {n} rules, batch {len:>4}, tracing {tracing:>5}: per-event \
             {per_event_ns:>8.1} ns/ev, batch lane {batch_ns:>8.1} ns/ev ({speedup:>5.2}x)"
        );
        rows.push(serde_json::Value::Object(vec![
            ("rules".into(), serde_json::Value::U64(n as u64)),
            ("batch_len".into(), serde_json::Value::U64(len as u64)),
            ("tracing".into(), serde_json::Value::Bool(tracing)),
            (
                "per_event_ns_per_event".into(),
                serde_json::Value::F64(per_event_ns),
            ),
            (
                "batch_ns_per_event".into(),
                serde_json::Value::F64(batch_ns),
            ),
            ("speedup_batch".into(), serde_json::Value::F64(speedup)),
        ]));
    }
    rows
}

fn quantile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Hot-reload rows: the cost of bringing the compiled artifact back up
/// after a single-rule mutation — splicing a delta into the previous
/// tables vs recompiling from scratch — and the dispatch p99 of a
/// session that keeps dispatching while rules flip under it (every 50th
/// dispatch is preceded by a priority edit, so the next dispatch pays
/// the rebuild).
fn hot_reload_section(quick: bool) -> serde_json::Value {
    let session = SessionContext::new("user5", "cat5", "pole_manager");
    let sizes: &[usize] = if quick { &[1000] } else { &[1000, 10_000] };
    let iters = if quick { 30 } else { 150 };

    let mut rows = Vec::new();
    for &n in sizes {
        // Patch arm: the artifact stays warm, every precompile splices.
        let mut patched =
            engine_with_rules(n, SelectionPolicy::MostSpecific, DispatchStrategy::Compiled);
        patched.precompile();
        let mut patch_ns: Vec<f64> = Vec::with_capacity(iters);
        for i in 0..iters {
            patched
                .set_priority(&format!("r{}", i % n), ((i * 13) % 7) as i32 - 3)
                .unwrap();
            let t0 = Instant::now();
            let stats = patched.precompile();
            patch_ns.push(t0.elapsed().as_nanos() as f64);
            assert!(stats.patched, "priority edit must splice, not recompile");
        }
        // Full arm: the artifact is discarded before every precompile.
        let mut full =
            engine_with_rules(n, SelectionPolicy::MostSpecific, DispatchStrategy::Compiled);
        full.precompile();
        let mut full_ns: Vec<f64> = Vec::with_capacity(iters);
        for i in 0..iters {
            full.set_priority(&format!("r{}", i % n), ((i * 13) % 7) as i32 - 3)
                .unwrap();
            full.rule_base().invalidate_compiled();
            let t0 = Instant::now();
            let stats = full.precompile();
            full_ns.push(t0.elapsed().as_nanos() as f64);
            assert!(!stats.patched);
        }
        patch_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        full_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (patch_p50, patch_p99) = (quantile(&patch_ns, 0.5), quantile(&patch_ns, 0.99));
        let (full_p50, full_p99) = (quantile(&full_ns, 0.5), quantile(&full_ns, 0.99));
        let speedup = full_p50 / patch_p50;

        // Dispatch latency under live reconfiguration: the engine keeps
        // serving while priorities flip, lazily rebuilding on the next
        // dispatch after each flip.
        let p99_with_flips = |engine: &mut Engine<usize>, invalidate: bool| {
            let samples = if quick { 400 } else { 2000 };
            let mut lat: Vec<f64> = Vec::with_capacity(samples);
            for i in 0..samples {
                if i > 0 && i % 50 == 0 {
                    engine
                        .set_priority(&format!("r{}", i % n), ((i * 31) % 7) as i32 - 3)
                        .unwrap();
                    if invalidate {
                        engine.rule_base().invalidate_compiled();
                    }
                }
                let t0 = Instant::now();
                black_box(engine.dispatch(event(), &session).unwrap());
                lat.push(t0.elapsed().as_nanos() as f64);
            }
            lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            quantile(&lat, 0.99)
        };
        let dispatch_p99_patch = p99_with_flips(&mut patched, false);
        let dispatch_p99_full = p99_with_flips(&mut full, true);

        eprintln!(
            "[c1 hot-reload] {n:>6} rules: patch p50 {patch_p50:>10.0} ns (p99 {patch_p99:>10.0}), \
             full recompile p50 {full_p50:>11.0} ns (p99 {full_p99:>11.0}) — patch {speedup:>6.1}x \
             faster; dispatch p99 across flips: {dispatch_p99_patch:>9.0} ns patched vs \
             {dispatch_p99_full:>10.0} ns recompiled"
        );
        if n >= 10_000 && speedup < 10.0 {
            eprintln!(
                "[c1 hot-reload] WARNING: patch only {speedup:.1}x faster than full \
                 recompile at {n} rules (target >= 10x)"
            );
        }
        rows.push(serde_json::Value::Object(vec![
            ("rules".into(), serde_json::Value::U64(n as u64)),
            ("mutations".into(), serde_json::Value::U64(iters as u64)),
            ("patch_p50_ns".into(), serde_json::Value::F64(patch_p50)),
            ("patch_p99_ns".into(), serde_json::Value::F64(patch_p99)),
            (
                "full_recompile_p50_ns".into(),
                serde_json::Value::F64(full_p50),
            ),
            (
                "full_recompile_p99_ns".into(),
                serde_json::Value::F64(full_p99),
            ),
            ("speedup_patch".into(), serde_json::Value::F64(speedup)),
            (
                "dispatch_p99_across_flips_patched_ns".into(),
                serde_json::Value::F64(dispatch_p99_patch),
            ),
            (
                "dispatch_p99_across_flips_recompiled_ns".into(),
                serde_json::Value::F64(dispatch_p99_full),
            ),
        ]));
    }
    serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(
                "single-rule priority edits against a compiled rule book: splice \
                 the delta into the previous artifact (patch) vs recompile from \
                 scratch; plus dispatch p99 of a session serving across the flips"
                    .into(),
            ),
        ),
        ("rows".into(), serde_json::Value::Array(rows)),
    ])
}

fn bench_rule_selection(c: &mut Criterion) {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let session = SessionContext::new("user5", "cat5", "pole_manager");
    let sizes: &[usize] = if quick {
        &[10, 100]
    } else {
        &[10, 100, 1000, 10_000]
    };

    let mut group = c.benchmark_group("c1_most_specific");
    for &n in sizes {
        let mut engine = engine_with_rules(
            n,
            SelectionPolicy::MostSpecific,
            DispatchStrategy::default(),
        );
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(engine.dispatch(event(), &session).unwrap()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("c1_linear_oracle");
    for &n in sizes {
        let mut engine =
            engine_with_rules(n, SelectionPolicy::MostSpecific, DispatchStrategy::Linear);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(engine.dispatch(event(), &session).unwrap()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("c1_fire_all_ablation");
    for &n in sizes {
        let mut engine =
            engine_with_rules(n, SelectionPolicy::FireAll, DispatchStrategy::default());
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(engine.dispatch(event(), &session).unwrap()));
        });
    }
    group.finish();

    // The qualitative difference the latency numbers hide: payload counts.
    let mut most = engine_with_rules(
        1000,
        SelectionPolicy::MostSpecific,
        DispatchStrategy::default(),
    );
    let mut all = engine_with_rules(1000, SelectionPolicy::FireAll, DispatchStrategy::default());
    let n_most = most
        .dispatch(event(), &session)
        .unwrap()
        .customizations
        .len();
    let n_all = all
        .dispatch(event(), &session)
        .unwrap()
        .customizations
        .len();
    eprintln!(
        "\n[c1] at 1000 rules: MostSpecific selects {n_most} customization, \
         FireAll produces {n_all} conflicting customizations\n"
    );

    // Non-matching dispatch (different application) — the common case in
    // a multi-application deployment.
    let mut group = c.benchmark_group("c1_no_match");
    let other = SessionContext::new("user5", "cat5", "other_app");
    let mut engine = engine_with_rules(
        1000,
        SelectionPolicy::MostSpecific,
        DispatchStrategy::default(),
    );
    group.bench_function("1000_rules_no_context_match", |b| {
        b.iter(|| black_box(engine.dispatch(event(), &other).unwrap()));
    });
    group.finish();

    // Machine-readable strategy comparison: compiled vs the linear
    // oracle, plus the batch-lane and hot-reload sections.
    let mut summary = dispatch_strategy_comparison(quick);
    if let serde_json::Value::Object(fields) = &mut summary {
        fields.push(("batch".into(), batch_section(quick)));
        fields.push(("hot_reload".into(), hot_reload_section(quick)));
    }
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    let path = bench::write_result("BENCH_dispatch.json", &json);
    eprintln!("[c1 strategy] wrote {}", path.display());
}

criterion_group!(benches, bench_rule_selection);
criterion_main!(benches);
