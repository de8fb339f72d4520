//! End-to-end observability: the Fig. 6 flow must light up counters in
//! every subsystem, the exporters must produce parseable output, and the
//! structured explanation ring buffer must retain shadowing decisions.

use activegis::{ActiveGis, TelecomConfig, FIG6_PROGRAM};

/// The metrics registry is process-global; tests that touch it (or its
/// enabled switch) serialize on this lock.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A second customization program whose context (`category planner`)
/// overlaps Fig. 6's (`user juliano application pole_manager`): both
/// match Juliano's sessions, so the less specific one is shadowed.
const PLANNER_PROGRAM: &str = "\
For category planner
  schema phone_net display as default
  class Pole display
";

fn fig6_flow() -> ActiveGis {
    let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
    gis.customize(FIG6_PROGRAM, "fig6").unwrap();
    let sid = gis.login("juliano", "planner", "pole_manager");
    let windows = gis.browse_schema(sid, "phone_net").unwrap();
    assert_eq!(windows.len(), 2, "Null schema + auto-opened Pole window");
    gis.render(windows[1]).unwrap();
    gis
}

#[test]
fn fig6_flow_populates_every_subsystem() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let gis = fig6_flow();
    let snap = gis.metrics();

    for subsystem in ["engine", "geodb", "builder", "render", "dispatcher"] {
        assert!(
            snap.subsystem_active(subsystem),
            "subsystem `{subsystem}` recorded nothing:\n{}",
            snap.to_json()
        );
    }

    // Engine: the schema open dispatches Get_Schema and Get_Class events
    // and the Fig. 6 rules fire.
    assert!(snap.counter("engine.dispatches") >= 2);
    assert!(snap.counter("engine.rules_considered") > 0);
    assert!(snap.counter("engine.rules_matched") > 0);
    assert!(snap.counter("engine.rules_fired") > 0);

    // Geodb: schema + class queries served from a pinned snapshot.
    // Since the shared-storage refactor the read path never touches
    // buffer-pool pages — it pins an immutable epoch instead.
    assert!(snap.counter("geodb.queries") >= 2);
    assert!(snap.counter("geodb.instances_fetched") > 0);
    assert!(snap.counter("db.reads_pinned") > 0);
    assert!(snap.counter("db.epoch") >= 1);

    // Builder and dispatcher: two windows built and registered.
    assert!(snap.counter("builder.windows_built") >= 2);
    assert!(snap.counter("builder.widgets_instantiated") > 0);
    assert!(snap.counter("dispatcher.events") >= 2);
    assert!(snap.counter("dispatcher.windows_opened") >= 2);
    assert!(snap.counter("dispatcher.sessions") >= 1);

    // Latency histograms carry ordered quantiles.
    for span in ["engine.dispatch", "geodb.get_class", "render.ascii"] {
        let h = snap
            .histograms
            .get(span)
            .unwrap_or_else(|| panic!("histogram `{span}` missing"));
        assert!(h.count > 0, "`{span}` never recorded");
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
    }

    // Span hierarchy: the builder ran inside the dispatcher's request
    // path, so geodb spans nest under the facade-level calls.
    assert!(snap.spans.contains_key("engine.dispatch"));
    assert!(snap.spans.contains_key("builder.class_window"));
}

#[test]
fn winner_cache_counters_reach_the_metrics_export() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
    gis.customize(FIG6_PROGRAM, "fig6").unwrap();
    let sid = gis.login("juliano", "planner", "pole_manager");

    // Cold: every event misses and populates the cache.
    gis.browse_schema(sid, "phone_net").unwrap();
    let snap = gis.metrics();
    assert!(snap.counter("engine.winner_cache_misses") > 0);
    assert_eq!(snap.counter("engine.winner_cache_hits"), 0);

    // Warm: the repeat interaction is answered from the cache.
    gis.browse_schema(sid, "phone_net").unwrap();
    assert!(gis.metrics().counter("engine.winner_cache_hits") > 0);

    // Installing another program mutates the rule set; the next dispatch
    // flushes the cache and records an invalidation.
    gis.customize(PLANNER_PROGRAM, "planner").unwrap();
    gis.browse_schema(sid, "phone_net").unwrap();
    let snap = gis.metrics();
    assert!(snap.counter("engine.winner_cache_invalidations") >= 1);

    // The `:metrics` JSON view carries all three counters, and they agree
    // with the engine's own statistics.
    let v: serde_json::Value = serde_json::from_str(&snap.to_json()).unwrap();
    for name in [
        "engine.winner_cache_hits",
        "engine.winner_cache_misses",
        "engine.winner_cache_invalidations",
    ] {
        assert!(v["counters"][name].as_u64().is_some(), "{name} missing");
    }
    let stats = gis.dispatch_cache_stats();
    assert_eq!(stats.hits, snap.counter("engine.winner_cache_hits"));
    assert_eq!(stats.misses, snap.counter("engine.winner_cache_misses"));
    assert_eq!(
        stats.invalidations,
        snap.counter("engine.winner_cache_invalidations")
    );
}

#[test]
fn flush_deferred_records_span_and_counter() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
    gis.dispatcher().engine().flush_deferred().unwrap();
    let snap = gis.metrics();
    // Even an empty flush registers its instrumentation: the span's
    // latency histogram and the flushed-firings counter.
    let h = snap
        .histograms
        .get("engine.flush_deferred")
        .expect("flush span records a histogram");
    assert!(h.count > 0);
    assert_eq!(snap.counter("engine.deferred_flushed"), 0);
}

#[test]
fn exporters_are_parseable() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let gis = fig6_flow();
    let snap = gis.metrics();

    // JSON snapshot round-trips and reports quantiles per subsystem.
    let v: serde_json::Value = serde_json::from_str(&snap.to_json()).unwrap();
    assert!(v["counters"]["engine.dispatches"].as_u64().unwrap() >= 2);
    for name in ["engine.dispatch", "geodb.get_schema", "dispatcher.render"] {
        let h = &v["histograms"][name];
        for q in ["p50", "p95", "p99", "max"] {
            assert!(
                h[q].as_f64().is_some(),
                "histograms.{name}.{q} missing in JSON export"
            );
        }
    }

    // Prometheus text: every sample line is `name value` with a numeric
    // value (exemplar suffixes, `… # {trace_id="…"} v`, stripped first);
    // counters appear as `_total`.
    let text = snap.to_prometheus();
    assert!(text.contains("activegis_engine_dispatches_total"));
    assert!(text.contains("activegis_engine_dispatch_seconds{quantile=\"0.5\"}"));
    let mut samples = 0;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let sample = line.split(" # ").next().unwrap();
        let (name, value) = sample.rsplit_once(' ').expect("`name value` pair");
        assert!(!name.is_empty());
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric sample: {line}"));
        samples += 1;
    }
    assert!(samples > 10, "suspiciously small export:\n{text}");
}

#[test]
fn shadowing_survives_into_the_structured_explanation() {
    let _g = lock();
    let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
    gis.customize(FIG6_PROGRAM, "fig6").unwrap();
    gis.customize(PLANNER_PROGRAM, "planner").unwrap();
    let sid = gis.login("juliano", "planner", "pole_manager");
    gis.browse_schema(sid, "phone_net").unwrap();

    let log = gis.explanation_log();
    assert!(!log.is_empty());
    // The Get_Schema trace shows the planner-wide rule losing to the
    // more specific Fig. 6 rule.
    let schema_trace = log
        .records()
        .find(|r| r.trace.entries[0].event.contains("Get_Schema"))
        .expect("Get_Schema trace retained");
    let entry = &schema_trace.trace.entries[0];
    assert!(
        entry.fired.iter().any(|r| r.starts_with("fig6/")),
        "fig6 rule fired: {entry:?}"
    );
    assert!(
        entry.shadowed.iter().any(|r| r.starts_with("planner/")),
        "planner rule shadowed: {entry:?}"
    );

    // The JSON export carries the same structure.
    let v: serde_json::Value = serde_json::from_str(&gis.explanation_json()).unwrap();
    let mut saw_shadowed = false;
    let mut i = 0;
    while !v[i].is_null() {
        let mut j = 0;
        while !v[i]["trace"]["entries"][j].is_null() {
            if v[i]["trace"]["entries"][j]["shadowed"][0]
                .as_str()
                .is_some()
            {
                saw_shadowed = true;
            }
            j += 1;
        }
        i += 1;
    }
    assert!(saw_shadowed, "no shadowed rule in JSON export");
}

#[test]
fn explanation_ring_is_bounded_and_configurable() {
    let _g = lock();
    let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
    gis.customize(FIG6_PROGRAM, "fig6").unwrap();
    gis.dispatcher().set_explanation_capacity(3);
    let sid = gis.login("juliano", "planner", "pole_manager");
    for _ in 0..4 {
        gis.browse_schema(sid, "phone_net").unwrap();
    }

    let log = gis.explanation_log();
    // Each schema open records two traces (Get_Schema + Get_Class), so
    // the ring evicted well past its capacity.
    assert_eq!(log.len(), 3);
    assert_eq!(log.capacity(), 3);
    assert!(log.total_recorded() >= 8);
    // The retained records are the most recent, consecutively numbered.
    let seqs: Vec<u64> = log.records().map(|r| r.seq).collect();
    assert_eq!(seqs.len(), 3);
    assert_eq!(seqs[2], log.total_recorded() - 1);
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    // Legacy rendered view stays in lockstep.
    assert_eq!(gis.explanation().len(), 3);
}

#[test]
fn disabling_metrics_makes_hooks_inert() {
    let _g = lock();
    obs::reset();
    ActiveGis::set_metrics_enabled(false);
    let gis = fig6_flow();
    let snap = gis.metrics();
    ActiveGis::set_metrics_enabled(true);
    assert_eq!(snap.counter("engine.dispatches"), 0);
    assert_eq!(snap.counter("geodb.queries"), 0);
    assert_eq!(snap.counter("builder.windows_built"), 0);
    assert!(!snap.subsystem_active("dispatcher"));
    // The explanation pipeline is independent of the metrics switch.
    assert!(!gis.explanation().is_empty());
}

/// The Fig. 7 interaction's explanation, as rendered lines: one record
/// per dispatched event, Fig. 6's rules shadowing the planner-wide ones.
const FIG7_EXPLANATION: [&str; 3] = [
    "Get_Schema(phone_net) -> fired [fig6/0/juliano:*:pole_manager/schema] \
     (shadowed: planner/0/*:planner:*/schema)",
    "Get_Class(phone_net, Pole) -> fired [fig6/0/juliano:*:pole_manager/class.Pole] \
     (shadowed: planner/0/*:planner:*/class.Pole)",
    "Get_Value(phone_net, Pole) -> fired [fig6/0/juliano:*:pole_manager/inst.Pole]",
];

/// The same interaction's `explanation_json()` export.
const FIG7_EXPLANATION_JSON: &str = r#"[
  {
    "seq": 0,
    "db_epoch": 1,
    "staleness": 0,
    "trace_id": 0,
    "trace": {
      "entries": [
        {
          "depth": 0,
          "event": "Get_Schema(phone_net)",
          "matched": [
            "fig6/0/juliano:*:pole_manager/schema",
            "planner/0/*:planner:*/schema"
          ],
          "fired": [
            "fig6/0/juliano:*:pole_manager/schema"
          ],
          "shadowed": [
            "planner/0/*:planner:*/schema"
          ]
        }
      ]
    },
    "rendered": "Get_Schema(phone_net) -> fired [fig6/0/juliano:*:pole_manager/schema] (shadowed: planner/0/*:planner:*/schema)"
  },
  {
    "seq": 1,
    "db_epoch": 1,
    "staleness": 0,
    "trace_id": 0,
    "trace": {
      "entries": [
        {
          "depth": 0,
          "event": "Get_Class(phone_net, Pole)",
          "matched": [
            "fig6/0/juliano:*:pole_manager/class.Pole",
            "planner/0/*:planner:*/class.Pole"
          ],
          "fired": [
            "fig6/0/juliano:*:pole_manager/class.Pole"
          ],
          "shadowed": [
            "planner/0/*:planner:*/class.Pole"
          ]
        }
      ]
    },
    "rendered": "Get_Class(phone_net, Pole) -> fired [fig6/0/juliano:*:pole_manager/class.Pole] (shadowed: planner/0/*:planner:*/class.Pole)"
  },
  {
    "seq": 2,
    "db_epoch": 1,
    "staleness": 0,
    "trace_id": 0,
    "trace": {
      "entries": [
        {
          "depth": 0,
          "event": "Get_Value(phone_net, Pole)",
          "matched": [
            "fig6/0/juliano:*:pole_manager/inst.Pole"
          ],
          "fired": [
            "fig6/0/juliano:*:pole_manager/inst.Pole"
          ],
          "shadowed": []
        }
      ]
    },
    "rendered": "Get_Value(phone_net, Pole) -> fired [fig6/0/juliano:*:pole_manager/inst.Pole]"
  }
]"#;

/// The explanation contract, pinned: the Fig. 7 interaction (Juliano
/// opens the schema, gets the auto-opened Pole window, inspects a pole)
/// explains itself with exactly these lines through the facade and the
/// protocol, and exports exactly this JSON, `rendered` text included.
#[test]
fn fig7_explanation_is_pinned() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let mut gis = ActiveGis::phone_net_demo(&TelecomConfig::small()).unwrap();
    gis.customize(FIG6_PROGRAM, "fig6").unwrap();
    gis.customize(PLANNER_PROGRAM, "planner").unwrap();
    let sid = gis.login("juliano", "planner", "pole_manager");
    assert_eq!(gis.browse_schema(sid, "phone_net").unwrap().len(), 2);
    let snap = gis.dispatcher().snapshot();
    let pole = snap.get_class("phone_net", "Pole", false).unwrap()[0].oid;
    gis.inspect(sid, pole).unwrap();

    assert_eq!(gis.explanation(), FIG7_EXPLANATION);
    let served = gis
        .dispatcher()
        .handle_request(sid, gisui::Request::Explain);
    assert_eq!(
        served,
        gisui::Response::Explanation(FIG7_EXPLANATION.map(String::from).to_vec())
    );
    assert_eq!(gis.explanation_json(), FIG7_EXPLANATION_JSON);
    // The export reads back into the same records.
    let back: Vec<gisui::TraceRecord> = serde_json::from_str(FIG7_EXPLANATION_JSON).unwrap();
    let kept: Vec<_> = gis.explanation_log().records().cloned().collect();
    assert_eq!(back, kept);
}

// ---------------------------------------------------------------------------
// Request traces, sampling, and the SLO engine
// ---------------------------------------------------------------------------

use active::{Engine, EngineConfig, EventPattern, FaultPolicy, Rule, SessionContext};
use activegis::{Customization, SessionServer};
use geodb::query::{DbEvent, DbEventKind};
use geodb::store::DbStore;
use proptest::prelude::*;

fn demo_server(shards: usize, config: EngineConfig) -> SessionServer {
    let engine: Engine<Customization> = Engine::with_config(config);
    let base = engine.rule_base();
    let db = activegis::phone_net_db(&TelecomConfig::small()).unwrap().0;
    SessionServer::start(shards, base, DbStore::new(db))
}

fn get_class() -> DbEvent {
    DbEvent::GetClass {
        schema: "phone_net".into(),
        class: "Pole".into(),
    }
}

/// The tentpole acceptance scenario: one `dispatch_batch` under
/// `trace_sample=1` yields a causal trace tree spanning
/// server→dispatcher→engine→db, cross-linked from the ExplanationLog
/// record and a Prometheus exemplar.
#[test]
fn dispatch_batch_yields_a_causal_trace_tree() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    obs::set_trace_sampling(1);

    let server = demo_server(1, EngineConfig::default());
    server.install_program(FIG6_PROGRAM, "fig6").unwrap();
    let s = server.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
    let outcomes = server.dispatch_batch(s, vec![get_class()]).unwrap();
    assert_eq!(outcomes.len(), 1);
    assert!(!outcomes[0].customizations.is_empty(), "Fig. 6 rules fired");

    // The reply only arrives after the worker committed the trace.
    let traces = obs::recent_traces(4);
    let trace = traces.first().expect("trace committed before the reply");
    assert!(trace.sampled);
    assert_eq!(trace.shard, 0);

    // ≥4 causally linked spans across all four serving layers.
    assert!(trace.spans.len() >= 4, "spans: {:?}", trace.spans);
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    for required in [
        "server.dispatch_batch",
        "dispatcher.dispatch_db_batch",
        "engine.dispatch_batch",
        "db.pin",
    ] {
        assert!(
            names.contains(&required),
            "missing span {required}: {names:?}"
        );
    }
    let ids: std::collections::BTreeSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    assert_eq!(
        trace.spans.iter().filter(|s| s.parent == 0).count(),
        1,
        "exactly one root span"
    );
    for span in trace.spans.iter().filter(|s| s.parent != 0) {
        assert!(ids.contains(&span.parent), "dangling parent: {span:?}");
    }

    // JSON export carries the whole tree.
    let v: serde_json::Value = serde_json::from_str(&trace.to_json()).unwrap();
    assert_eq!(
        v["spans"][0]["name"].as_str(),
        Some("server.dispatch_batch")
    );

    // Cross-link 1: the ExplanationLog record carries the trace id.
    let record_trace_id = server.with_dispatcher(s, |d| {
        d.explanation_log()
            .records()
            .last()
            .map(|r| r.trace_id)
            .unwrap_or(0)
    });
    assert_eq!(record_trace_id, trace.trace_id, "explanation cross-link");

    // Cross-link 2: the id rides a Prometheus exemplar.
    let prom = obs::snapshot().to_prometheus();
    assert!(
        prom.contains(&format!("trace_id=\"{}\"", trace.trace_id_hex)),
        "exemplar missing from export"
    );
    obs::set_trace_sampling(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cascade causality: every `engine.cascade` child span names the
    /// rule that raised its event, and every span's parent id exists in
    /// the same trace — for arbitrary Raise-chain lengths and request
    /// counts.
    #[test]
    fn cascade_child_spans_stay_causally_linked(
        chain_len in 1usize..6,
        requests in 1usize..4,
    ) {
        let _g = lock();
        obs::reset();
        obs::set_enabled(true);
        obs::set_trace_sampling(1);

        let mut engine: Engine<Customization> = Engine::new();
        for i in 0..chain_len {
            engine
                .add_rule(Rule {
                    name: format!("chain{i}"),
                    event: EventPattern::External { name: Some(format!("ev{i}")) },
                    context: active::ContextPattern::any(),
                    guard: None,
                    action: std::sync::Arc::new(active::Action::Raise(vec![
                        active::Event::external(format!("ev{}", i + 1)),
                    ])),
                    group: activegis::RuleGroup::Other,
                    coupling: active::Coupling::Immediate,
                    priority: 0,
                    enabled: true,
                })
                .unwrap();
        }
        let ctx = SessionContext::new("u", "c", "a");
        for _ in 0..requests {
            let _root = obs::trace_root("test.request");
            engine.dispatch(active::Event::external("ev0"), &ctx).unwrap();
        }

        let traces = obs::recent_traces(requests);
        prop_assert_eq!(traces.len(), requests);
        for t in traces {
            let ids: std::collections::BTreeSet<u64> = t.spans.iter().map(|s| s.id).collect();
            for span in t.spans.iter().filter(|s| s.parent != 0) {
                prop_assert!(ids.contains(&span.parent), "dangling parent: {:?}", span);
            }
            // One cascade child per raised event, each naming its raiser.
            let cascades: Vec<_> =
                t.spans.iter().filter(|s| s.name == "engine.cascade").collect();
            prop_assert_eq!(cascades.len(), chain_len, "one cascade span per raise");
            for c in &cascades {
                prop_assert!(
                    c.annotations
                        .iter()
                        .any(|a| a.key == "raised_by" && a.value.starts_with("chain")),
                    "cascade span missing raised_by: {:?}",
                    c
                );
            }
        }
        obs::set_trace_sampling(0);
    }

    /// Per-shard trace rings never exceed their configured bound, and
    /// sampling never drops fault traces: with a 1-in-N sampler that
    /// cannot realistically pick anything, degraded interactions are
    /// still retained.
    #[test]
    fn rings_stay_bounded_and_faults_are_never_dropped(
        cap in 1usize..5,
        total in 1usize..12,
    ) {
        let _g = lock();
        obs::reset();
        obs::set_enabled(true);
        obs::set_trace_ring_capacity(cap);

        // Fault traces survive an effectively-zero sampling rate.
        obs::set_trace_sampling(u64::MAX);
        for i in 0..total {
            let _root = obs::trace_root("test.request");
            if i % 2 == 0 {
                obs::trace_mark_fault();
            }
        }
        let retained = obs::recent_traces(64);
        prop_assert_eq!(
            retained.len(),
            total.div_ceil(2).min(cap),
            "every fault trace retained, up to the ring bound"
        );
        prop_assert!(retained.iter().all(|t| t.fault && !t.sampled));

        // Full sampling across shards still respects the bound.
        obs::set_trace_sampling(1);
        for shard in 0..3u64 {
            obs::set_shard(shard);
            for _ in 0..total {
                let _root = obs::trace_root("test.request");
            }
        }
        obs::set_shard(0);
        for (shard, len) in obs::shard_trace_counts() {
            prop_assert!(len <= cap, "shard {} ring over bound: {}", shard, len);
        }
        obs::set_trace_sampling(0);
    }
}

/// A faultsim storm through the real serving stack spikes the SLO burn
/// rate; quarantine ends the storm and the fast window recovers while
/// the slow window still remembers it.
#[test]
fn burn_rate_spikes_during_fault_storm_and_recovers_after_quarantine() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    faultsim::reset();

    let server = demo_server(
        1,
        EngineConfig {
            fault_policy: FaultPolicy::FailClosed,
            quarantine_threshold: 3,
            ..EngineConfig::default()
        },
    );
    // An integrity rule whose callback trips the armed failpoint.
    {
        let mut writer = server.rule_base().session();
        writer
            .add_rule(Rule::integrity(
                "storm",
                EventPattern::db(DbEventKind::GetClass),
                std::sync::Arc::new(|_, _| Vec::new()),
            ))
            .unwrap();
    }
    let s = server.open_session(SessionContext::new("op", "planner", "pole_manager"));

    let mut slo = obs::slo::SloEngine::new(vec![obs::slo::SloSpec::dispatch_default()]);
    slo.observe(obs::snapshot(), 0.0);

    // Storm: every callback faults until the third consecutive fault
    // quarantines the rule.
    faultsim::arm(
        "engine.callback",
        activegis::Trigger::Always,
        activegis::FaultAction::Error,
    );
    let mut failures = 0;
    for _ in 0..5 {
        if server.dispatch_batch(s, vec![get_class()]).is_err() {
            failures += 1;
        }
    }
    assert_eq!(failures, 3, "quarantine stops the storm after 3 faults");
    slo.observe(obs::snapshot(), 1.0);
    let storm = slo.report();
    assert!(
        storm.slos[0].fast.burn_rate > 1.0 && storm.slos[0].slow.burn_rate > 1.0,
        "storm burns both windows: {}",
        storm.to_json()
    );
    assert!(storm.burning());
    assert!(storm.availability_breached());

    // Recovery: the rule is quarantined, traffic is clean again. The
    // 1s fast window (measured from the post-storm baseline) drains;
    // the 60s slow window still carries the storm.
    for _ in 0..20 {
        server.dispatch_batch(s, vec![get_class()]).unwrap();
    }
    slo.observe(obs::snapshot(), 2.5);
    let recovered = slo.report();
    assert!(
        recovered.slos[0].fast.burn_rate < 1.0,
        "fast window recovered after quarantine: {}",
        recovered.to_json()
    );
    assert!(
        recovered.slos[0].slow.burn_rate > 1.0,
        "slow window remembers the storm"
    );
    assert!(!recovered.burning(), "multi-window alert cleared");
    faultsim::reset();
}

/// Faulting requests are always traced, even when the sampler is
/// effectively off — through the real server path, not just the obs
/// unit API.
#[test]
fn fault_traces_survive_sampling_through_the_server() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    faultsim::reset();
    obs::set_trace_sampling(u64::MAX);

    let server = demo_server(1, EngineConfig::default());
    {
        let mut writer = server.rule_base().session();
        writer
            .add_rule(Rule::integrity(
                "fragile",
                EventPattern::db(DbEventKind::GetClass),
                std::sync::Arc::new(|_, _| Vec::new()),
            ))
            .unwrap();
    }
    let s = server.open_session(SessionContext::new("op", "planner", "pole_manager"));

    // Clean request: unsampled, dropped.
    server.dispatch_batch(s, vec![get_class()]).unwrap();
    assert!(
        obs::recent_traces(8).is_empty(),
        "clean request not sampled"
    );

    // Faulting request (fail-open: outcome carries the fault record):
    // retained despite the sampler.
    faultsim::arm(
        "engine.callback",
        activegis::Trigger::Nth(1),
        activegis::FaultAction::Error,
    );
    let outcomes = server.dispatch_batch(s, vec![get_class()]).unwrap();
    assert!(!outcomes[0].faults.is_empty(), "fault recorded fail-open");
    let traces = obs::recent_traces(8);
    assert_eq!(traces.len(), 1, "fault trace retained");
    assert!(traces[0].fault && !traces[0].sampled);
    faultsim::reset();
    obs::set_trace_sampling(0);
}

/// The default SLO watches the serving path: one `SessionServer` batch
/// yields an observed latency (not `NoData`), and the spec's latency,
/// request and error series are all among the series actually emitted.
#[test]
fn default_slo_reads_series_the_server_emits() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    obs::slo::install_default();
    let server = demo_server(1, EngineConfig::default());
    let s = server.open_session(SessionContext::new("op", "planner", "pole_manager"));
    let outcomes = server
        .dispatch_batch(s, vec![get_class(), get_class()])
        .unwrap();
    assert_eq!(outcomes.len(), 2);
    let report = obs::slo::tick_and_report().expect("slo engine installed");
    obs::slo::uninstall();

    let slo = &report.slos[0];
    assert_ne!(
        slo.latency,
        obs::slo::LatencyState::NoData,
        "{}",
        report.to_json()
    );
    assert!(slo.latency_observed_us.is_some_and(|us| us > 0.0));
    assert_eq!((slo.total_requests, slo.total_errors), (2, 0));

    let snap = obs::snapshot();
    let latency = &snap.histograms[&slo.spec.latency_metric];
    assert_eq!(latency.count, 1, "one sample per answered batch");
    for family in [&slo.spec.requests_metric, &slo.spec.errors_metric] {
        assert!(
            snap.counters
                .keys()
                .any(|k| k.split('{').next() == Some(family.as_str())),
            "`{family}` was never emitted:\n{}",
            snap.to_json()
        );
    }
}

/// A served outcome and its explanation record share one trace: the
/// log keeps the outcome's `Arc`, it does not copy it. Each outcome is
/// paired with its own record, in the order the server ran the batch.
#[test]
fn served_outcomes_share_their_trace_with_the_log() {
    let _g = lock();
    let server = demo_server(1, EngineConfig::default());
    server.install_program(FIG6_PROGRAM, "fig6").unwrap();
    let session = server.open_session(SessionContext::new("juliano", "planner", "pole_manager"));
    let get_value = DbEvent::GetValue {
        schema: "phone_net".into(),
        class: "Pole".into(),
        oid: geodb::Oid(4),
    };
    // Arrival order differs from the kind-sorted execution order: the
    // server runs both `Get_Class` events (arrival 1, 3), then both
    // `Get_Value` events (arrival 0, 2), keeping arrival order per kind.
    let events = vec![get_value.clone(), get_class(), get_value, get_class()];
    let execution_order = [1, 3, 0, 2];
    let traces: Vec<_> = server
        .dispatch_batch(session, events)
        .unwrap()
        .into_iter()
        .map(|o| o.trace.shared().cloned().expect("tracing is on by default"))
        .collect();
    // Every dispatch records its own trace, so a record matched to the
    // wrong outcome cannot pass for the right one.
    for (i, a) in traces.iter().enumerate() {
        for b in &traces[i + 1..] {
            assert!(
                !std::sync::Arc::ptr_eq(a, b),
                "outcomes {i} and a later one share a trace"
            );
        }
    }
    server.with_dispatcher(session, move |d| {
        let log = d.explanation_log();
        assert_eq!(log.total_recorded(), traces.len() as u64);
        let records = log.recent(traces.len());
        assert_eq!(records.len(), execution_order.len());
        for (seq, (record, &arrival)) in records.iter().zip(&execution_order).enumerate() {
            assert_eq!(record.seq, seq as u64);
            assert!(
                std::sync::Arc::ptr_eq(&record.trace, &traces[arrival]),
                "record {seq} does not hold outcome {arrival}'s trace"
            );
        }
    });
}
