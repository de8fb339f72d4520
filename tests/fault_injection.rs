//! Deterministic fault-injection harness (see `docs/robustness.md`).
//!
//! Drives the whole stack — dispatcher, engine, builder, geodb — under
//! armed failpoints and asserts the robustness contract:
//!
//! 1. **No panic escapes.** Injected panics at any failpoint are
//!    contained by the engine's callback boundary or the dispatcher's
//!    request boundary; a user interaction never unwinds the process.
//! 2. **Fail-open always yields a window.** With customization-path
//!    failpoints armed (`engine.callback`, `engine.cascade`,
//!    `builder.build`) and the default `FailOpen` policy, every
//!    Get_Schema / Get_Class / Get_Value interaction still produces a
//!    rendered window — degraded to the generic default presentation
//!    when necessary, exactly as the paper's always-available generic
//!    interface promises.
//! 3. **Engine state stays consistent.** After any fault schedule the
//!    deferred queue is empty, quarantines can be lifted, and the system
//!    serves clean interactions again once failpoints disarm.
//! 4. **Strategies agree under faults.** The indexed dispatch path and
//!    the linear oracle see the same fault schedule (same seeds, same
//!    hit order) and must produce identical outcomes, faults included.
//!
//! Everything here serializes on one mutex: the failpoint registry and
//! the metrics registry are process-global.

use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;

use active::{
    DispatchStrategy, Engine, EngineConfig, Event, EventPattern, FaultPolicy, Rule, SessionContext,
};
use custlang::FIG6_PROGRAM;
use geodb::gen::TelecomConfig;
use geodb::query::DbEventKind;
use gisui::{paper_dispatcher, Dispatcher, Request, Response, SessionId};

/// Serialize tests (global failpoint + metrics registries) and silence
/// the default panic hook: injected panics are expected and would spam
/// the output with backtraces.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        std::panic::set_hook(Box::new(|info| {
            // Injected panics are expected noise; real harness failures
            // (proptest case reports, assertion text) still print.
            let msg = info.to_string();
            if msg.contains("proptest") || msg.contains("assert") {
                eprintln!("{msg}");
            }
        }))
    });
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    faultsim::reset();
    guard
}

// ---------------------------------------------------------------------------
// Shared fixtures

const CLASSES: [&str; 2] = ["Pole", "Duct"];

/// A dispatcher over the paper's demo database with the Fig. 6 program
/// installed plus one integrity rule whose callback raises a cascade —
/// so `engine.callback` and `engine.cascade` both have hosts to hit.
fn fault_dispatcher() -> (Dispatcher, Vec<u64>) {
    let mut d = paper_dispatcher(&TelecomConfig::small()).expect("demo db builds");
    d.install_program(FIG6_PROGRAM, "fig6").expect("fig6 ok");
    d.engine()
        .add_rule(Rule::integrity(
            "probe",
            EventPattern::Any,
            Arc::new(|e, _| match e {
                Event::Db(_) => vec![Event::external("audit")],
                _ => vec![],
            }),
        ))
        .expect("probe rule installs");
    let oids: Vec<u64> = d
        .snapshot()
        .get_class("phone_net", "Pole", false)
        .expect("poles exist")
        .iter()
        .map(|i| i.oid.0)
        .collect();
    (d, oids)
}

fn juliano(d: &mut Dispatcher) -> SessionId {
    d.open_session(SessionContext::new("juliano", "planner", "pole_manager"))
}

#[derive(Debug, Clone)]
enum Interaction {
    Schema,
    Class(usize),
    Value(usize),
}

fn request_for(it: &Interaction, oids: &[u64]) -> Request {
    match it {
        Interaction::Schema => Request::OpenSchema {
            schema: "phone_net".into(),
        },
        Interaction::Class(i) => Request::OpenClass {
            schema: "phone_net".into(),
            class: CLASSES[i % CLASSES.len()].into(),
        },
        Interaction::Value(i) => Request::OpenInstance {
            oid: oids[i % oids.len()],
        },
    }
}

fn arb_interaction() -> impl Strategy<Value = Interaction> {
    prop_oneof![
        Just(Interaction::Schema),
        (0usize..2).prop_map(Interaction::Class),
        (0usize..8).prop_map(Interaction::Value),
    ]
}

#[derive(Debug, Clone)]
struct FaultSpec {
    failpoint: usize,
    trigger: faultsim::Trigger,
    panic: bool,
}

impl FaultSpec {
    fn action(&self) -> faultsim::FaultAction {
        if self.panic {
            faultsim::FaultAction::Panic
        } else {
            faultsim::FaultAction::Error
        }
    }

    fn arm(&self, names: &[&str]) {
        faultsim::arm(
            names[self.failpoint % names.len()],
            self.trigger.clone(),
            self.action(),
        );
    }
}

fn arb_trigger() -> impl Strategy<Value = faultsim::Trigger> {
    prop_oneof![
        Just(faultsim::Trigger::Always),
        (1u32..10, any::<u64>()).prop_map(|(p, seed)| faultsim::Trigger::Probability {
            p: p as f64 / 10.0,
            seed,
        }),
        (1u64..5).prop_map(faultsim::Trigger::Nth),
    ]
}

fn arb_fault(n_failpoints: usize) -> impl Strategy<Value = FaultSpec> {
    (0..n_failpoints, arb_trigger(), any::<bool>()).prop_map(|(failpoint, trigger, panic)| {
        FaultSpec {
            failpoint,
            trigger,
            panic,
        }
    })
}

/// Run the interactions through the protocol boundary, requiring a
/// non-empty rendered window from every one.
fn expect_windows(
    d: &mut Dispatcher,
    sid: SessionId,
    interactions: &[Interaction],
    oids: &[u64],
) -> Result<(), TestCaseError> {
    for it in interactions {
        match d.handle_request(sid, request_for(it, oids)) {
            Response::Windows(ws) => {
                prop_assert!(!ws.is_empty(), "no window for {:?}", it);
                // Hidden windows (Fig. 6 hides the Schema window) render
                // empty by design; every visible one must have content.
                for w in ws.iter().filter(|w| w.visible) {
                    prop_assert!(!w.ascii.is_empty(), "unrendered window for {:?}", it);
                }
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "{it:?} produced no window: {other:?}"
                )))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Property 1+2+3: containment, fail-open window guarantee, recovery

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Customization-path failpoints under the default fail-open policy:
    /// every interaction yields a rendered window, no panic escapes, and
    /// after disarming (and lifting quarantines) the system is clean.
    #[test]
    fn fail_open_always_yields_a_window(
        faults in prop::collection::vec(arb_fault(3), 1..4),
        interactions in prop::collection::vec(arb_interaction(), 1..8),
    ) {
        const NAMES: [&str; 3] = ["engine.callback", "engine.cascade", "builder.build"];
        let _g = serialized();
        let (mut d, oids) = fault_dispatcher();
        let sid = juliano(&mut d);
        for f in &faults {
            f.arm(&NAMES);
        }

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            expect_windows(&mut d, sid, &interactions, &oids)
        }));
        faultsim::reset();
        match outcome {
            Ok(inner) => inner?,
            Err(_) => return Err(TestCaseError::fail("panic escaped the request boundary")),
        }

        // Engine state is consistent: aborts rolled back any deferred
        // work, and with failpoints disarmed + quarantines lifted the
        // full customized interface serves again.
        prop_assert_eq!(d.engine().pending_deferred(), 0);
        let quarantined: Vec<String> = d
            .engine()
            .quarantined()
            .into_iter()
            .map(str::to_string)
            .collect();
        for rule in quarantined {
            d.engine().clear_quarantine(&rule).expect("rule exists");
        }
        let resp = d.handle_request(
            sid,
            Request::OpenClass { schema: "phone_net".into(), class: "Pole".into() },
        );
        match resp {
            Response::Windows(ws) => {
                prop_assert!(!ws.is_empty());
                // Juliano's Fig. 6 customization (the poleWidget slider)
                // is back once the faults clear.
                prop_assert!(ws[0].ascii.contains("O="), "customization restored:\n{}", ws[0].ascii);
            }
            other => return Err(TestCaseError::fail(format!("clean dispatch failed: {other:?}"))),
        }
    }

    /// All four failpoints (database queries included), error and panic
    /// actions, both policies: nothing ever unwinds past the protocol
    /// boundary, and the system recovers after the faults disarm.
    #[test]
    fn no_panic_escapes_any_interaction(
        faults in prop::collection::vec(arb_fault(4), 1..5),
        interactions in prop::collection::vec(arb_interaction(), 1..8),
        fail_closed in any::<bool>(),
    ) {
        const NAMES: [&str; 4] =
            ["engine.callback", "engine.cascade", "builder.build", "geodb.query"];
        let _g = serialized();
        let (mut d, oids) = fault_dispatcher();
        if fail_closed {
            d.engine().set_fault_policy(FaultPolicy::FailClosed);
        }
        let sid = juliano(&mut d);
        for f in &faults {
            f.arm(&NAMES);
        }

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for it in &interactions {
                // Any Response is acceptable here — Error included —
                // as long as nothing unwinds.
                let _ = d.handle_request(sid, request_for(it, &oids));
            }
        }));
        faultsim::reset();
        prop_assert!(outcome.is_ok(), "panic escaped the request boundary");

        // Recovery: disarmed, policy restored, quarantines lifted, the
        // dispatcher serves windows again.
        d.engine().set_fault_policy(FaultPolicy::FailOpen);
        let quarantined: Vec<String> = d
            .engine()
            .quarantined()
            .into_iter()
            .map(str::to_string)
            .collect();
        for rule in quarantined {
            d.engine().clear_quarantine(&rule).expect("rule exists");
        }
        expect_windows(&mut d, sid, &[Interaction::Schema], &oids)?;
    }
}

// ---------------------------------------------------------------------------
// Property 4: linear vs compiled agreement under identical fault schedules

#[derive(Debug, Clone)]
struct AgreementRule {
    cust: bool,
    pattern: usize,
    priority: i32,
    raises: bool,
}

fn arb_agreement_rule() -> impl Strategy<Value = AgreementRule> {
    (any::<bool>(), 0usize..3, -2i32..3, any::<bool>()).prop_map(
        |(cust, pattern, priority, raises)| AgreementRule {
            cust,
            pattern,
            priority,
            raises,
        },
    )
}

fn agreement_engine(strategy: DispatchStrategy, specs: &[AgreementRule]) -> Engine<usize> {
    let mut eng = Engine::with_config(EngineConfig {
        strategy,
        ..Default::default()
    });
    for (i, spec) in specs.iter().enumerate() {
        let event = match spec.pattern {
            0 => EventPattern::db(DbEventKind::GetSchema),
            1 => EventPattern::db(DbEventKind::GetClass),
            _ => EventPattern::Any,
        };
        let rule = if spec.cust {
            Rule::customization(format!("r{i}"), event, active::ContextPattern::any(), i)
                .with_priority(spec.priority)
        } else {
            let raises = spec.raises;
            Rule::integrity(
                format!("r{i}"),
                event,
                Arc::new(move |e, _| {
                    if raises && matches!(e, Event::Db(_)) {
                        vec![Event::external("chain")]
                    } else {
                        vec![]
                    }
                }),
            )
            .with_priority(spec.priority)
        };
        eng.add_rule(rule).expect("unique names");
    }
    eng
}

fn arb_agreement_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::Db(geodb::query::DbEvent::GetSchema {
            schema: "phone_net".into()
        })),
        Just(Event::Db(geodb::query::DbEvent::GetClass {
            schema: "phone_net".into(),
            class: "Pole".into()
        })),
        Just(Event::external("tick")),
    ]
}

/// One strategy's full observable run: per-event outcome (success data or
/// error), rendered to comparable form.
fn agreement_run(
    strategy: DispatchStrategy,
    specs: &[AgreementRule],
    events: &[Event],
    schedule: &[FaultSpec],
) -> Vec<String> {
    const NAMES: [&str; 2] = ["engine.callback", "engine.cascade"];
    faultsim::reset();
    for f in schedule {
        f.arm(&NAMES);
    }
    let mut eng = agreement_engine(strategy, specs);
    let ctx = SessionContext::new("juliano", "planner", "pole_manager");
    let mut log = Vec::new();
    for event in events {
        match eng.dispatch(event.clone(), &ctx) {
            Ok(out) => log.push(format!(
                "ok cust={:?} fired={:?} faults={:?} n={}",
                out.customizations,
                out.fired_names(),
                out.faults,
                out.events_processed
            )),
            Err(e) => log.push(format!("err {e}")),
        }
    }
    log.push(format!("quarantined={:?}", eng.quarantined()));
    log.push(format!("rule_faults={}", eng.rule_faults()));
    faultsim::reset();
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled tier and the linear oracle, fed the same seeded
    /// fault schedule, produce identical outcomes — fault records,
    /// quarantines and errors included. Neither the winner cache nor the
    /// compiled tables may let the paths diverge under faults
    /// (quarantine trips mid-run included).
    #[test]
    fn strategies_agree_under_identical_fault_schedules(
        specs in prop::collection::vec(arb_agreement_rule(), 1..8),
        events in prop::collection::vec(arb_agreement_event(), 1..12),
        schedule in prop::collection::vec(arb_fault(2), 1..3),
    ) {
        let _g = serialized();
        let linear = agreement_run(DispatchStrategy::Linear, &specs, &events, &schedule);
        let compiled = agreement_run(DispatchStrategy::Compiled, &specs, &events, &schedule);
        prop_assert_eq!(&compiled, &linear);
    }
}

// ---------------------------------------------------------------------------
// Deterministic checks: metrics/explanation visibility, fail-closed, CI sweep

#[test]
fn degradation_is_visible_in_metrics_and_explanation() {
    let _g = serialized();
    obs::reset();
    obs::set_enabled(true);
    let (mut d, _oids) = fault_dispatcher();
    let sid = juliano(&mut d);

    // Customized builds fail; callbacks fault until the probe rule
    // quarantines (default threshold 3).
    faultsim::arm(
        "builder.build",
        faultsim::Trigger::Always,
        faultsim::FaultAction::Error,
    );
    faultsim::arm(
        "engine.callback",
        faultsim::Trigger::Always,
        faultsim::FaultAction::Panic,
    );
    for _ in 0..4 {
        let resp = d.handle_request(
            sid,
            Request::OpenClass {
                schema: "phone_net".into(),
                class: "Pole".into(),
            },
        );
        assert!(matches!(resp, Response::Windows(ws) if !ws.is_empty()));
    }
    faultsim::reset();
    obs::set_enabled(false);

    let m = obs::snapshot();
    assert!(
        m.counter("ui.degraded_builds") >= 1,
        "degraded builds counted"
    );
    assert!(m.counter("engine.rule_faults") >= 3, "rule faults counted");
    assert!(
        m.counter("engine.quarantined_rules") >= 1,
        "quarantine counted"
    );
    assert_eq!(d.engine().quarantined(), vec!["probe"]);

    // The degradations are in the explanation stream too.
    let degraded: Vec<_> = d.explanation_log().degradations().collect();
    assert!(
        !degraded.is_empty(),
        "degradation recorded in explanation log"
    );
    assert!(degraded[0].rendered().contains("degraded"));
}

#[test]
fn fail_closed_surfaces_the_fault_to_the_protocol() {
    let _g = serialized();
    let (mut d, _oids) = fault_dispatcher();
    d.engine().set_fault_policy(FaultPolicy::FailClosed);
    let sid = juliano(&mut d);
    faultsim::arm(
        "engine.callback",
        faultsim::Trigger::Always,
        faultsim::FaultAction::Error,
    );
    let resp = d.handle_request(
        sid,
        Request::OpenSchema {
            schema: "phone_net".into(),
        },
    );
    faultsim::reset();
    let Response::Error { message } = resp else {
        panic!("fail-closed must abort, got {resp:?}");
    };
    assert!(
        message.contains("probe"),
        "names the faulty rule: {message}"
    );
    assert!(message.contains("faulted"), "{message}");
}

#[test]
fn transactional_dispatch_after_rule_fault_matches_fresh_engine() {
    // Satellite regression at the UI level: an aborted interaction under
    // fail-closed leaves the engine indistinguishable from one that
    // never saw the fault.
    let _g = serialized();
    let (mut d, _oids) = fault_dispatcher();
    d.engine().set_fault_policy(FaultPolicy::FailClosed);
    let sid = juliano(&mut d);
    faultsim::arm(
        "engine.callback",
        faultsim::Trigger::Nth(1),
        faultsim::FaultAction::Error,
    );
    let resp = d.handle_request(
        sid,
        Request::OpenSchema {
            schema: "phone_net".into(),
        },
    );
    assert!(matches!(resp, Response::Error { .. }));
    faultsim::reset();
    assert_eq!(d.engine().pending_deferred(), 0);

    // A fresh dispatcher that never faulted serves the same windows.
    let (mut fresh, _) = fault_dispatcher();
    fresh.engine().set_fault_policy(FaultPolicy::FailClosed);
    let fresh_sid = juliano(&mut fresh);
    let a = d.handle_request(
        sid,
        Request::OpenSchema {
            schema: "phone_net".into(),
        },
    );
    let b = fresh.handle_request(
        fresh_sid,
        Request::OpenSchema {
            schema: "phone_net".into(),
        },
    );
    let (Response::Windows(wa), Response::Windows(wb)) = (a, b) else {
        panic!("both dispatchers serve windows");
    };
    let render = |ws: &[gisui::WindowDescriptor]| {
        ws.iter()
            .map(|w| format!("{}:{}:{}", w.kind, w.title, w.ascii))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&wa), render(&wb));
}

/// CI sweep entry point: a fixed seeded probabilistic schedule across
/// every failpoint, seed taken from `FAULT_SEED` (default 1). The CI
/// workflow runs this under three fixed seeds.
#[test]
fn seeded_fault_sweep() {
    let _g = serialized();
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let (mut d, oids) = fault_dispatcher();
    let sid = juliano(&mut d);
    for (i, name) in faultsim::FAILPOINTS.iter().enumerate() {
        // Offset each failpoint's stream so they don't fire in lockstep;
        // database queries only error (a dead database has no interface
        // to degrade to), everything else alternates error/panic.
        let action = if *name == "geodb.query" || i % 2 == 0 {
            faultsim::FaultAction::Error
        } else {
            faultsim::FaultAction::Panic
        };
        faultsim::arm(
            name,
            faultsim::Trigger::Probability {
                p: 0.3,
                seed: seed.wrapping_add(i as u64),
            },
            action,
        );
    }
    let interactions: Vec<Interaction> = (0..20)
        .map(|i| match i % 3 {
            0 => Interaction::Schema,
            1 => Interaction::Class(i),
            _ => Interaction::Value(i),
        })
        .collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for it in &interactions {
            let _ = d.handle_request(sid, request_for(it, &oids));
        }
    }));
    faultsim::reset();
    assert!(outcome.is_ok(), "seed {seed}: panic escaped");

    // Recovery after the storm.
    let quarantined: Vec<String> = d
        .engine()
        .quarantined()
        .into_iter()
        .map(str::to_string)
        .collect();
    for rule in quarantined {
        d.engine().clear_quarantine(&rule).unwrap();
    }
    let resp = d.handle_request(
        sid,
        Request::OpenSchema {
            schema: "phone_net".into(),
        },
    );
    assert!(
        matches!(resp, Response::Windows(ws) if !ws.is_empty()),
        "seed {seed}: no recovery"
    );
}

// ---------------------------------------------------------------------------
// Threaded containment: faults in one session never poison another

/// A panicking rule scoped to one victim session, with concurrent
/// bystander sessions on the same rule base: every victim dispatch is
/// contained (fail-open), every bystander dispatch is clean, and the
/// shared quarantine counts are exact — the rule trips once, after
/// precisely `quarantine_threshold` consecutive faults.
#[test]
fn threaded_fault_is_contained_to_the_victim_session() {
    use active::ContextPattern;

    let _g = serialized();
    const BYSTANDERS: usize = 3;
    const VICTIM_DISPATCHES: usize = 10;
    const THRESHOLD: u32 = 3;

    let base = Engine::<usize>::with_config(EngineConfig {
        quarantine_threshold: THRESHOLD,
        ..Default::default()
    })
    .rule_base();
    let mut seed = base.session();
    // The panicking rule matches only the victim's event stream, so the
    // bystanders' clean dispatches never run it (a successful run would
    // reset its consecutive-fault counter and blur the exact counts).
    seed.add_rule(Rule::integrity(
        "boom",
        EventPattern::External {
            name: Some("victim_tick".into()),
        },
        Arc::new(|_, _| panic!("injected rule fault")),
    ))
    .expect("boom installs");
    seed.add_rule(Rule::customization(
        "good",
        EventPattern::Any,
        ContextPattern::any(),
        7usize,
    ))
    .expect("good installs");

    let victim_base = base.clone();
    let victim = std::thread::spawn(move || {
        let mut session = victim_base.session();
        let ctx = SessionContext::new("victim", "planner", "pole_manager");
        let mut faults_seen = 0u32;
        for _ in 0..VICTIM_DISPATCHES {
            let out = session
                .dispatch(Event::external("victim_tick"), &ctx)
                .expect("fail-open");
            // Fail-open still delivers the surviving customization.
            assert_eq!(out.customizations, vec![7usize]);
            for fault in &out.faults {
                assert_eq!(fault.rule, "boom");
                faults_seen += 1;
            }
        }
        faults_seen
    });

    let bystanders: Vec<_> = (0..BYSTANDERS)
        .map(|b| {
            let base = base.clone();
            std::thread::spawn(move || {
                let mut session = base.session();
                let ctx = SessionContext::new(format!("user{b}"), "planner", "pole_manager");
                for _ in 0..50 {
                    let out = session
                        .dispatch(Event::external("tick"), &ctx)
                        .expect("clean dispatch");
                    assert!(
                        out.faults.is_empty(),
                        "bystander saw a fault: {:?}",
                        out.faults
                    );
                    assert_eq!(out.customizations, vec![7usize]);
                }
            })
        })
        .collect();

    let victim_faults = victim.join().expect("victim thread completes");
    for b in bystanders {
        b.join().expect("bystander thread completes");
    }

    // Exact accounting: the victim faulted `THRESHOLD` times, the
    // circuit breaker tripped exactly once, and the shared base shows
    // the quarantine to every session.
    assert_eq!(victim_faults, THRESHOLD);
    assert_eq!(base.rule_faults(), THRESHOLD as u64);
    assert_eq!(base.quarantined_count(), 1);
    let mut check = base.session();
    check.sync();
    assert_eq!(check.quarantined(), vec!["boom"]);
    let health = check.rule_health("boom").expect("boom exists");
    assert_eq!(health.total_faults, THRESHOLD as u64);
    assert!(health.quarantined);

    // Recovery is shared too: lift the quarantine and the victim's
    // context dispatches cleanly again (the callback still panics, so
    // the breaker re-arms from zero — one more contained fault).
    check.clear_quarantine("boom").expect("boom exists");
    let out = check
        .dispatch(
            Event::external("victim_tick"),
            &SessionContext::new("victim", "planner", "pole_manager"),
        )
        .expect("fail-open after recovery");
    assert_eq!(out.faults.len(), 1);
    assert_eq!(base.rule_faults(), THRESHOLD as u64 + 1);
}

/// CI sweep entry point, threaded edition: the `seeded_fault_sweep`
/// schedule (seed from `FAULT_SEED`) over a `SessionServer`, with every
/// interaction fanned out across shards from client threads. No panic may
/// escape a shard, and after the storm every session serves windows again.
#[test]
fn threaded_fault_sweep() {
    let _g = serialized();
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    const SHARDS: usize = 4;
    const CLIENTS: usize = 8;

    let base = Engine::<custlang::Customization>::new().rule_base();
    let db = geodb::gen::phone_net_db(&TelecomConfig::small())
        .expect("demo db builds")
        .0;
    let server = Arc::new(activegis::SessionServer::start(
        SHARDS,
        base,
        geodb::store::DbStore::new(db),
    ));
    server
        .install_program(FIG6_PROGRAM, "fig6")
        .expect("fig6 installs");
    // A cascading integrity rule gives `engine.callback` and
    // `engine.cascade` hosts to hit on every shard.
    server
        .rule_base()
        .session()
        .add_rule(Rule::integrity(
            "probe",
            EventPattern::Any,
            Arc::new(|e, _| match e {
                Event::Db(_) => vec![Event::external("audit")],
                _ => vec![],
            }),
        ))
        .expect("probe installs");

    // The engine-path failpoints fire inside the shard calls, on the
    // client threads; alternating error/panic actions exercise both
    // containment paths.
    for (i, name) in ["engine.callback", "engine.cascade"].iter().enumerate() {
        let action = if i % 2 == 0 {
            faultsim::FaultAction::Error
        } else {
            faultsim::FaultAction::Panic
        };
        faultsim::arm(
            name,
            faultsim::Trigger::Probability {
                p: 0.3,
                seed: seed.wrapping_add(i as u64),
            },
            action,
        );
    }

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let session = server.open_session(SessionContext::new(
                    format!("user{c}"),
                    "planner",
                    "pole_manager",
                ));
                let events: Vec<geodb::query::DbEvent> = (0..25)
                    .map(|i| {
                        if i % 2 == 0 {
                            geodb::query::DbEvent::GetSchema {
                                schema: "phone_net".into(),
                            }
                        } else {
                            geodb::query::DbEvent::GetClass {
                                schema: "phone_net".into(),
                                class: CLASSES[i / 2 % 2].into(),
                            }
                        }
                    })
                    .collect();
                // Fail-open: a faulted rule degrades the outcome, it
                // never errors the batch or kills the shard.
                let outcomes = server
                    .dispatch_batch(session, events)
                    .expect("fail-open batch");
                assert_eq!(outcomes.len(), 25);
                session
            })
        })
        .collect();
    let sessions: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("seed {seed}: client thread survived"))
        .collect();
    faultsim::reset();

    // Recovery after the storm: quarantines lifted, every session —
    // whatever shard it lives on — dispatches cleanly again.
    let mut writer = server.rule_base().session();
    writer.sync();
    let quarantined: Vec<String> = writer.quarantined().iter().map(|s| s.to_string()).collect();
    for rule in &quarantined {
        writer.clear_quarantine(rule).expect("rule exists");
    }
    for session in sessions {
        let out = server
            .dispatch(
                session,
                geodb::query::DbEvent::GetClass {
                    schema: "phone_net".into(),
                    class: "Pole".into(),
                },
            )
            .expect("clean after recovery");
        assert!(out.faults.is_empty(), "seed {seed}: fault after recovery");
    }
}
