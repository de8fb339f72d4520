//! Differential testing: the compiled dispatch tier (flat per-epoch jump
//! tables plus winner cache) must produce exactly the same `Outcome` as
//! the linear scan it replaced, for random rule sets, session contexts
//! and event sequences — including after interleaved add/remove/enable
//! mutations, which must invalidate the winner cache and recompile the
//! tables. The compiled arm runs twice: traces on (full walk, traces
//! compared entry-for-entry) and traces off (the early-exit winner walk,
//! outcomes compared).

use std::sync::Arc;

use proptest::prelude::*;

use active::{
    Action, ContextPattern, DispatchStrategy, Engine, EngineConfig, Event, EventPattern, Rule,
    RuleGroup, SessionContext,
};
use geodb::instance::Oid;
use geodb::query::{DbEvent, DbEventKind};

const SCHEMAS: [&str; 2] = ["phone_net", "water_net"];
const CLASSES: [&str; 2] = ["Pole", "Duct"];
const GESTURES: [&str; 2] = ["click", "key"];
const SOURCES: [&str; 2] = ["schema_window/list", "class_window/panel"];
const EXTERNALS: [&str; 2] = ["tick", "refresh"];
const FAMILIES: [&str; 2] = ["fa", "fb"];

/// Everything needed to build the *same* rule twice, once per engine.
#[derive(Debug, Clone)]
struct RuleSpec {
    event: EventPattern,
    context: ContextPattern,
    family: usize,
    group: RuleGroup,
    priority: i32,
    /// Deterministic guard (`only Db events pass`) — exercises the
    /// engine's cache bypass for guard-bearing rules.
    guarded: bool,
    /// Non-customization rules may raise a follow-up event (cascades;
    /// wildcard raisers even cycle, which both strategies must report
    /// with the same `CascadeOverflow`).
    raises: bool,
}

#[derive(Debug, Clone)]
enum Op {
    /// Dispatch an event twice (the second run exercises the cache-hit
    /// path) under the `usize`-th session context.
    Dispatch(Event, usize),
    Add(Box<RuleSpec>),
    Remove(usize),
    Toggle(usize, bool),
    /// Drop the whole `fa/` rule family, as program reinstallation does.
    RemovePrefix,
}

fn sessions() -> Vec<SessionContext> {
    vec![
        SessionContext::new("juliano", "planner", "pole_manager"),
        SessionContext::new("claudia", "planner", "env_monitor"),
        SessionContext::new("guest", "visitor", "browser"),
        SessionContext::new("juliano", "planner", "pole_manager").with_extra("scale", "1:1000"),
    ]
}

fn arb_event_pattern() -> impl Strategy<Value = EventPattern> {
    let opt_kind = prop::option::of(prop_oneof![
        Just(DbEventKind::GetSchema),
        Just(DbEventKind::GetClass),
        Just(DbEventKind::Insert),
    ]);
    let opt_schema = prop::option::of((0usize..2).prop_map(|i| SCHEMAS[i].to_string()));
    let opt_class = prop::option::of((0usize..2).prop_map(|i| CLASSES[i].to_string()));
    let opt_gesture = prop::option::of((0usize..2).prop_map(|i| GESTURES[i].to_string()));
    let opt_prefix = prop::option::of(prop_oneof![
        Just("schema_window".to_string()),
        Just("class_window".to_string()),
    ]);
    let opt_ext = prop::option::of((0usize..2).prop_map(|i| EXTERNALS[i].to_string()));
    prop_oneof![
        Just(EventPattern::Any),
        (opt_kind, opt_schema, opt_class).prop_map(|(kind, schema, class)| EventPattern::Db {
            kind,
            schema,
            class
        }),
        (opt_gesture, opt_prefix).prop_map(|(name, source_prefix)| EventPattern::Interface {
            name,
            source_prefix
        }),
        opt_ext.prop_map(|name| EventPattern::External { name }),
    ]
}

fn arb_context_pattern() -> impl Strategy<Value = ContextPattern> {
    (
        prop::option::of(prop_oneof![
            Just("juliano".to_string()),
            Just("claudia".to_string())
        ]),
        prop::option::of(Just("planner".to_string())),
        prop::option::of(prop_oneof![
            Just("pole_manager".to_string()),
            Just("env_monitor".to_string())
        ]),
        any::<bool>(),
    )
        .prop_map(|(user, category, application, scaled)| {
            let mut p = ContextPattern {
                user,
                category,
                application,
                extras: Default::default(),
            };
            if scaled {
                p = p.extra("scale", "1:1000");
            }
            p
        })
}

fn arb_rule_spec() -> impl Strategy<Value = RuleSpec> {
    (
        (arb_event_pattern(), arb_context_pattern(), 0usize..2),
        (
            prop_oneof![
                Just(RuleGroup::Customization),
                Just(RuleGroup::Integrity),
                Just(RuleGroup::Other),
            ],
            -3i32..4,
            any::<bool>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |((event, context, family), (group, priority, guarded, raises))| RuleSpec {
                event,
                context,
                family,
                group,
                priority,
                guarded,
                raises,
            },
        )
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0usize..2).prop_map(|i| Event::Db(DbEvent::GetSchema {
            schema: SCHEMAS[i].to_string()
        })),
        (0usize..2, 0usize..2).prop_map(|(s, c)| Event::Db(DbEvent::GetClass {
            schema: SCHEMAS[s].to_string(),
            class: CLASSES[c].to_string()
        })),
        (0usize..2, 0u64..4).prop_map(|(s, oid)| Event::Db(DbEvent::Insert {
            schema: SCHEMAS[s].to_string(),
            class: CLASSES[0].to_string(),
            oid: Oid(oid)
        })),
        (0usize..2, 0usize..2)
            .prop_map(|(g, s)| Event::interface(GESTURES[g], SOURCES[s].to_string())),
        (0usize..2).prop_map(|i| Event::external(EXTERNALS[i])),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest has no weighted `prop_oneof`; repeating the
    // dispatch arm biases runs toward dispatches between mutations.
    prop_oneof![
        (arb_event(), 0usize..4).prop_map(|(e, c)| Op::Dispatch(e, c)),
        (arb_event(), 0usize..4).prop_map(|(e, c)| Op::Dispatch(e, c)),
        (arb_event(), 0usize..4).prop_map(|(e, c)| Op::Dispatch(e, c)),
        arb_rule_spec().prop_map(|s| Op::Add(Box::new(s))),
        arb_rule_spec().prop_map(|s| Op::Add(Box::new(s))),
        (0usize..32).prop_map(Op::Remove),
        (0usize..32, any::<bool>()).prop_map(|(i, on)| Op::Toggle(i, on)),
        Just(Op::RemovePrefix),
    ]
}

fn make_rule(name: &str, spec: &RuleSpec, payload: usize) -> Rule<usize> {
    let mut r = Rule::customization(name, spec.event.clone(), spec.context.clone(), payload)
        .with_group(spec.group)
        .with_priority(spec.priority);
    if spec.group != RuleGroup::Customization && spec.raises {
        r.action = Arc::new(Action::Raise(vec![Event::external("chain")]));
    }
    if spec.guarded {
        r = r.with_guard(Arc::new(|e, _| matches!(e, Event::Db(_))));
    }
    r
}

struct Harness {
    linear: Engine<usize>,
    /// Compiled tier, traces on: full table walks, compared
    /// entry-for-entry against the oracle's traces.
    compiled: Engine<usize>,
    /// Compiled tier, traces off: exercises the early-exit
    /// most-specific walk (no trace to compare, outcomes must agree).
    compiled_fast: Engine<usize>,
    names: Vec<String>,
    serial: usize,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            linear: Engine::with_config(EngineConfig {
                strategy: DispatchStrategy::Linear,
                ..Default::default()
            }),
            compiled: Engine::new(),
            compiled_fast: Engine::with_config(EngineConfig {
                tracing: false,
                ..Default::default()
            }),
            names: Vec::new(),
            serial: 0,
        }
    }

    fn engines(&mut self) -> [&mut Engine<usize>; 3] {
        [
            &mut self.linear,
            &mut self.compiled,
            &mut self.compiled_fast,
        ]
    }

    fn add(&mut self, spec: &RuleSpec) -> Result<(), TestCaseError> {
        let serial = self.serial;
        let name = format!("{}/{}", FAMILIES[spec.family], serial);
        let results: Vec<_> = self
            .engines()
            .map(|e| e.add_rule(make_rule(&name, spec, serial)))
            .into_iter()
            .collect();
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[0], &results[2]);
        if results[0].is_ok() {
            self.names.push(name);
        }
        self.serial += 1;
        Ok(())
    }

    fn dispatch(&mut self, event: &Event, ctx: &SessionContext) -> Result<(), TestCaseError> {
        let oracle = self.linear.dispatch(event.clone(), ctx);
        for (label, result) in [
            ("compiled", self.compiled.dispatch(event.clone(), ctx)),
            (
                "compiled_fast",
                self.compiled_fast.dispatch(event.clone(), ctx),
            ),
        ] {
            match (&result, &oracle) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        &a.customizations,
                        &b.customizations,
                        "{} on {:?}",
                        label,
                        event
                    );
                    prop_assert_eq!(a.fired_names(), b.fired_names(), "{} on {:?}", label, event);
                    prop_assert_eq!(a.events_processed, b.events_processed);
                    // The fast arm runs traces off; the traced arm must
                    // reproduce the oracle's trace exactly.
                    if label != "compiled_fast" {
                        prop_assert_eq!(
                            &a.trace.entries,
                            &b.trace.entries,
                            "{} on {:?}",
                            label,
                            event
                        );
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "strategies disagree on {event:?}: {label} {a:?} vs linear {b:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn apply(&mut self, op: &Op, sessions: &[SessionContext]) -> Result<(), TestCaseError> {
        match op {
            Op::Dispatch(event, c) => {
                // Twice: the repeat exercises the winner-cache hit path.
                self.dispatch(event, &sessions[*c])?;
                self.dispatch(event, &sessions[*c])?;
            }
            Op::Add(spec) => self.add(spec)?,
            Op::Remove(i) => {
                if self.names.is_empty() {
                    return Ok(());
                }
                let name = self.names[i % self.names.len()].clone();
                let results = self.engines().map(|e| e.remove_rule(&name).is_ok());
                prop_assert_eq!(results[0], results[1]);
                prop_assert_eq!(results[0], results[2]);
                if results[0] {
                    self.names.retain(|n| n != &name);
                }
            }
            Op::Toggle(i, on) => {
                if self.names.is_empty() {
                    return Ok(());
                }
                let name = self.names[i % self.names.len()].clone();
                let on = *on;
                let results: Vec<_> = self
                    .engines()
                    .map(|e| e.set_enabled(&name, on))
                    .into_iter()
                    .collect();
                prop_assert_eq!(&results[0], &results[1]);
                prop_assert_eq!(&results[0], &results[2]);
            }
            Op::RemovePrefix => {
                let results = self.engines().map(|e| e.remove_rules_with_prefix("fa/"));
                prop_assert_eq!(results[0], results[1]);
                prop_assert_eq!(results[0], results[2]);
                self.names.retain(|n| !n.starts_with("fa/"));
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_dispatch_matches_the_linear_oracle(
        initial in prop::collection::vec(arb_rule_spec(), 0..12),
        ops in prop::collection::vec(arb_op(), 1..40),
        finale in prop::collection::vec(arb_event(), 1..6),
    ) {
        let sessions = sessions();
        let mut h = Harness::new();
        for spec in &initial {
            h.add(spec)?;
        }
        for op in &ops {
            h.apply(op, &sessions)?;
        }
        // Sweep every context with a final event batch so each run ends
        // on a dense round of comparisons over the mutated rule set.
        for event in &finale {
            for ctx in &sessions {
                h.dispatch(event, ctx)?;
            }
        }
        // The engines' rule books stayed in lockstep.
        prop_assert_eq!(h.compiled.len(), h.linear.len());
        prop_assert_eq!(h.compiled_fast.len(), h.linear.len());
        for name in &h.names {
            prop_assert_eq!(h.compiled.rule(name).is_some(), h.linear.rule(name).is_some());
            prop_assert_eq!(
                h.compiled_fast.rule(name).is_some(),
                h.linear.rule(name).is_some()
            );
        }
    }
}

/// Every way the system opens an engine — a bare `Engine`, a rule-base
/// session, a `Dispatcher`'s engine, a `SessionServer` shard — lands on
/// the compiled tier. Only the default puts it there.
#[test]
fn every_default_engine_is_the_compiled_tier() {
    let ctx = SessionContext::new("juliano", "planner", "pole_manager");
    let get_schema = || DbEvent::GetSchema {
        schema: "phone_net".into(),
    };

    let mut engine: Engine<usize> = Engine::new();
    let mut session = active::RuleBase::<usize>::new().session();
    for eng in [&mut engine, &mut session] {
        assert_eq!(eng.strategy(), DispatchStrategy::Compiled);
        eng.dispatch(Event::Db(get_schema()), &ctx).unwrap();
        assert!(eng.compiled_stats().is_some());
    }

    let db = || {
        activegis::phone_net_db(&activegis::TelecomConfig::small())
            .unwrap()
            .0
    };
    let mut d = gisui::Dispatcher::new(db(), builder::InterfaceBuilder::with_paper_library());
    assert_eq!(d.engine().strategy(), DispatchStrategy::Compiled);
    d.engine().dispatch(Event::Db(get_schema()), &ctx).unwrap();
    assert!(d.engine().compiled_stats().is_some());

    let server = activegis::SessionServer::start(
        1,
        active::RuleBase::new(),
        geodb::store::DbStore::new(db()),
    );
    let s = server.open_session(ctx);
    let strategy = server.with_dispatcher(s, |d| d.engine().strategy());
    assert_eq!(strategy, DispatchStrategy::Compiled);
    server.dispatch(s, get_schema()).unwrap();
    assert!(server.with_dispatcher(s, |d| d.engine().compiled_stats().is_some()));
}

// ---------------------------------------------------------------------------
// Batch lane: `dispatch_batch` amortizes context packing, route
// classification and selection lookups across a batch, but it must be
// observationally identical to dispatching the same events one at a
// time — against both the per-event compiled walk and the linear
// oracle, across interleaved rule mutations (including priority edits,
// which flip the epoch mid-run).

mod batch {
    use super::*;

    #[derive(Debug, Clone)]
    pub(super) enum Mutation {
        Add(Box<RuleSpec>),
        Remove(usize),
        Toggle(usize, bool),
        Priority(usize, i32),
        Quiet,
    }

    pub(super) fn arb_mutation() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            arb_rule_spec().prop_map(|s| Mutation::Add(Box::new(s))),
            arb_rule_spec().prop_map(|s| Mutation::Add(Box::new(s))),
            (0usize..32).prop_map(Mutation::Remove),
            (0usize..32, any::<bool>()).prop_map(|(i, on)| Mutation::Toggle(i, on)),
            (0usize..32, -3i32..4).prop_map(|(i, p)| Mutation::Priority(i, p)),
            Just(Mutation::Quiet),
        ]
    }

    /// Three engines fed the same rule book: the batch lane under test,
    /// a per-event compiled arm, and the linear oracle. The batch lane
    /// runs tracing off (its production configuration), so the arms
    /// compare payloads, fired names and cascade counts, not traces —
    /// the main property test already pins traces.
    struct Tri {
        batched: Engine<usize>,
        per_event: Engine<usize>,
        linear: Engine<usize>,
        names: Vec<String>,
        serial: usize,
    }

    impl Tri {
        fn new() -> Tri {
            let compiled = || EngineConfig {
                tracing: false,
                ..Default::default()
            };
            Tri {
                batched: Engine::with_config(compiled()),
                per_event: Engine::with_config(compiled()),
                linear: Engine::with_config(EngineConfig {
                    strategy: DispatchStrategy::Linear,
                    tracing: false,
                    ..Default::default()
                }),
                names: Vec::new(),
                serial: 0,
            }
        }

        fn engines(&mut self) -> [&mut Engine<usize>; 3] {
            [&mut self.batched, &mut self.per_event, &mut self.linear]
        }

        fn add(&mut self, spec: &RuleSpec) -> Result<(), TestCaseError> {
            let serial = self.serial;
            let name = format!("{}/{}", FAMILIES[spec.family], serial);
            let results = self
                .engines()
                .map(|e| e.add_rule(make_rule(&name, spec, serial)).is_ok());
            prop_assert_eq!(results[0], results[1]);
            prop_assert_eq!(results[0], results[2]);
            if results[0] {
                self.names.push(name);
            }
            self.serial += 1;
            Ok(())
        }

        fn mutate(&mut self, m: &Mutation) -> Result<(), TestCaseError> {
            let name = |names: &[String], i: usize| {
                (!names.is_empty()).then(|| names[i % names.len()].clone())
            };
            match m {
                Mutation::Add(spec) => self.add(spec)?,
                Mutation::Remove(i) => {
                    if let Some(name) = name(&self.names, *i) {
                        let results = self.engines().map(|e| e.remove_rule(&name).is_ok());
                        prop_assert_eq!(results[0], results[1]);
                        prop_assert_eq!(results[0], results[2]);
                        if results[0] {
                            self.names.retain(|n| n != &name);
                        }
                    }
                }
                Mutation::Toggle(i, on) => {
                    if let Some(name) = name(&self.names, *i) {
                        let on = *on;
                        let results = self.engines().map(|e| e.set_enabled(&name, on).is_ok());
                        prop_assert_eq!(results[0], results[1]);
                        prop_assert_eq!(results[0], results[2]);
                    }
                }
                Mutation::Priority(i, p) => {
                    if let Some(name) = name(&self.names, *i) {
                        let p = *p;
                        let results = self.engines().map(|e| e.set_priority(&name, p).is_ok());
                        prop_assert_eq!(results[0], results[1]);
                        prop_assert_eq!(results[0], results[2]);
                    }
                }
                Mutation::Quiet => {}
            }
            Ok(())
        }

        fn run_batch(
            &mut self,
            events: &[Event],
            ctx: &SessionContext,
        ) -> Result<(), TestCaseError> {
            let outs = self.batched.dispatch_batch(events.iter().cloned(), ctx);
            prop_assert_eq!(outs.len(), events.len());
            for (event, got) in events.iter().zip(&outs) {
                let pe = self.per_event.dispatch(event.clone(), ctx);
                let or = self.linear.dispatch(event.clone(), ctx);
                match (got, &pe, &or) {
                    (Ok(a), Ok(b), Ok(c)) => {
                        prop_assert_eq!(&a.customizations, &b.customizations, "on {:?}", event);
                        prop_assert_eq!(&a.customizations, &c.customizations, "on {:?}", event);
                        prop_assert_eq!(a.fired_names(), b.fired_names(), "on {:?}", event);
                        prop_assert_eq!(a.fired_names(), c.fired_names(), "on {:?}", event);
                        prop_assert_eq!(a.events_processed, b.events_processed);
                        prop_assert_eq!(a.events_processed, c.events_processed);
                    }
                    (Err(a), Err(b), Err(c)) => {
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(a, c);
                    }
                    (a, b, c) => {
                        return Err(TestCaseError::fail(format!(
                            "arms disagree on {event:?}: batch {a:?} vs per-event {b:?} \
                             vs linear {c:?}"
                        )))
                    }
                }
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dispatch_batch_matches_per_event_and_linear(
            initial in prop::collection::vec(arb_rule_spec(), 0..10),
            rounds in prop::collection::vec(
                (arb_mutation(), prop::collection::vec(arb_event(), 1..16), 0usize..4),
                1..6,
            ),
        ) {
            let sessions = sessions();
            let mut t = Tri::new();
            for spec in &initial {
                t.add(spec)?;
            }
            for (mutation, events, c) in &rounds {
                t.mutate(mutation)?;
                let ctx = &sessions[*c];
                // Twice: the repeat replays the batch against warm lane
                // memos and warm winner caches.
                t.run_batch(events, ctx)?;
                t.run_batch(events, ctx)?;
            }
            prop_assert_eq!(t.batched.len(), t.linear.len());
            prop_assert_eq!(t.per_event.len(), t.linear.len());
        }
    }

    /// A rule quarantined *inside* a batch (circuit breaker trip → epoch
    /// bump) must invalidate the lane's memoized selections mid-flight:
    /// the remaining events see the post-quarantine rule book, exactly
    /// as a per-event loop would.
    #[test]
    fn mid_batch_quarantine_trip_matches_per_event() {
        fn build() -> Engine<usize> {
            let mut e = Engine::with_config(EngineConfig {
                tracing: false,
                quarantine_threshold: 2,
                ..Default::default()
            });
            e.add_rule(Rule::integrity(
                "boom",
                EventPattern::External {
                    name: Some("tick".into()),
                },
                Arc::new(|_, _| panic!("injected mid-batch fault")),
            ))
            .expect("unique");
            e.add_rule(Rule::customization(
                "style",
                EventPattern::Any,
                ContextPattern::any(),
                9usize,
            ))
            .expect("unique");
            e
        }

        let ctx = SessionContext::new("juliano", "planner", "pole_manager");
        // Interleave a Db event between the faulting ticks so the lane's
        // route memos flip while the fault counter climbs: faults on the
        // first two ticks, quarantine at the threshold, clean ticks after.
        let batch = [
            Event::external("tick"),
            Event::Db(DbEvent::GetSchema {
                schema: "phone_net".into(),
            }),
            Event::external("tick"),
            Event::external("tick"),
            Event::Db(DbEvent::GetSchema {
                schema: "phone_net".into(),
            }),
            Event::external("tick"),
        ];

        let mut batched = build();
        let outs = batched.dispatch_batch(batch.iter().cloned(), &ctx);
        assert_eq!(outs.len(), batch.len());

        // Quarantine state is scoped to the rule base, so the per-event
        // arm gets its own identically-built engine.
        let mut seq = build();
        for (i, (event, got)) in batch.iter().zip(&outs).enumerate() {
            let want = seq.dispatch(event.clone(), &ctx).expect("fail-open");
            let got = got.as_ref().expect("fail-open");
            assert_eq!(
                got.customizations, want.customizations,
                "event {i} ({event:?})"
            );
            assert_eq!(got.fired_names(), want.fired_names(), "event {i}");
            assert_eq!(
                got.faults.len(),
                want.faults.len(),
                "event {i} fault counts"
            );
            // The `Any` customization survives every fault (fail-open).
            assert_eq!(got.customizations, vec![9], "event {i}");
        }
        // Ticks 0 and 2 fault; the threshold trips on the second fault,
        // so ticks 3 and 5 (and the Db events) are fault-free.
        let fault_counts: Vec<usize> = outs
            .iter()
            .map(|o| o.as_ref().expect("fail-open").faults.len())
            .collect();
        assert_eq!(fault_counts, vec![1, 0, 1, 0, 0, 0]);
        assert_eq!(outs[0].as_ref().unwrap().faults[0].rule, "boom");
        assert_eq!(batched.quarantined(), vec!["boom"]);
        assert_eq!(seq.quarantined(), vec!["boom"]);
    }
}

// ---------------------------------------------------------------------------
// Hot reload: patching the compiled artifact on a single-rule mutation
// must yield tables observationally identical to a full recompile of
// the same rule book.

mod hot_reload {
    use super::batch::{arb_mutation, Mutation};
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn incremental_patch_matches_full_recompile(
            initial in prop::collection::vec(arb_rule_spec(), 0..10),
            muts in prop::collection::vec(arb_mutation(), 1..12),
            probes in prop::collection::vec(arb_event(), 1..5),
        ) {
            let sessions = sessions();
            // Separate bases: `invalidate_compiled` is base-global, so
            // the full-recompile arm must not share the patched arm's
            // artifact cache.
            let mut pair = MutPair::new(Engine::new(), Engine::new());
            for spec in &initial {
                pair.add(spec)?;
            }
            pair.patched.precompile();
            pair.full.precompile();

            // A Db-pattern customization with already-wide interners is
            // always spliceable — this pins the patch path at least once
            // per case regardless of what the random mutations do.
            let seed = RuleSpec {
                event: EventPattern::Db {
                    kind: Some(DbEventKind::Insert),
                    schema: Some(SCHEMAS[0].to_string()),
                    class: Some(CLASSES[0].to_string()),
                },
                context: ContextPattern::any(),
                family: 1,
                group: RuleGroup::Customization,
                priority: 2,
                guarded: false,
                raises: false,
            };
            pair.add(&seed)?;
            let stats = pair.patched.precompile();
            prop_assert!(stats.patched, "db-pattern add must splice");
            pair.full.rule_base().invalidate_compiled();
            let full_stats = pair.full.precompile();
            prop_assert!(!full_stats.patched);
            prop_assert_eq!(stats.rules, full_stats.rules);
            let mut patched_seen = 1usize;

            for m in &muts {
                pair.mutate(m)?;
                let a = pair.patched.precompile();
                pair.full.rule_base().invalidate_compiled();
                let b = pair.full.precompile();
                prop_assert!(!b.patched);
                if a.patched {
                    patched_seen += 1;
                }
                prop_assert_eq!(a.generation, b.generation);
                prop_assert_eq!(a.rules, b.rules);
                for event in &probes {
                    for ctx in &sessions {
                        pair.compare(event, ctx)?;
                    }
                }
            }
            prop_assert!(patched_seen >= 1);
        }
    }

    /// Two engines on independent bases receiving the same mutations;
    /// arm A keeps its artifact warm (patches), arm B throws the
    /// artifact away before every recompile.
    struct MutPair {
        patched: Engine<usize>,
        full: Engine<usize>,
        names: Vec<String>,
        serial: usize,
    }

    impl MutPair {
        fn new(patched: Engine<usize>, full: Engine<usize>) -> MutPair {
            MutPair {
                patched,
                full,
                names: Vec::new(),
                serial: 0,
            }
        }

        fn add(&mut self, spec: &RuleSpec) -> Result<(), TestCaseError> {
            let serial = self.serial;
            let name = format!("{}/{}", FAMILIES[spec.family], serial);
            let a = self
                .patched
                .add_rule(make_rule(&name, spec, serial))
                .is_ok();
            let b = self.full.add_rule(make_rule(&name, spec, serial)).is_ok();
            prop_assert_eq!(a, b);
            if a {
                self.names.push(name);
            }
            self.serial += 1;
            Ok(())
        }

        fn mutate(&mut self, m: &Mutation) -> Result<(), TestCaseError> {
            let pick = |names: &[String], i: usize| {
                (!names.is_empty()).then(|| names[i % names.len()].clone())
            };
            match m {
                Mutation::Add(spec) => self.add(spec)?,
                Mutation::Remove(i) => {
                    if let Some(name) = pick(&self.names, *i) {
                        let a = self.patched.remove_rule(&name).is_ok();
                        let b = self.full.remove_rule(&name).is_ok();
                        prop_assert_eq!(a, b);
                        if a {
                            self.names.retain(|n| n != &name);
                        }
                    }
                }
                Mutation::Toggle(i, on) => {
                    if let Some(name) = pick(&self.names, *i) {
                        let a = self.patched.set_enabled(&name, *on).is_ok();
                        let b = self.full.set_enabled(&name, *on).is_ok();
                        prop_assert_eq!(a, b);
                    }
                }
                Mutation::Priority(i, p) => {
                    if let Some(name) = pick(&self.names, *i) {
                        let a = self.patched.set_priority(&name, *p).is_ok();
                        let b = self.full.set_priority(&name, *p).is_ok();
                        prop_assert_eq!(a, b);
                    }
                }
                Mutation::Quiet => {}
            }
            Ok(())
        }

        fn compare(&mut self, event: &Event, ctx: &SessionContext) -> Result<(), TestCaseError> {
            let a = self.patched.dispatch(event.clone(), ctx);
            let b = self.full.dispatch(event.clone(), ctx);
            match (&a, &b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.customizations, &b.customizations, "on {:?}", event);
                    prop_assert_eq!(a.fired_names(), b.fired_names(), "on {:?}", event);
                    prop_assert_eq!(a.events_processed, b.events_processed);
                    prop_assert_eq!(&a.trace.entries, &b.trace.entries, "on {:?}", event);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "patched vs full recompile disagree on {event:?}: {a:?} vs {b:?}"
                    )))
                }
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-threaded stress: the differential property must also hold while a
// writer thread mutates the shared rule base under concurrent readers.

mod threaded {
    use super::*;
    use active::RuleBase;
    use geodb::query::DbEvent;

    /// The concurrency contract, enforced at compile time: every handle
    /// the serving layer moves across threads is `Send`, and everything
    /// shared between sessions is `Sync`.
    #[test]
    fn handles_are_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_sync::<RuleBase<usize>>();
        send_sync::<Engine<usize>>();
        send::<gisui::Dispatcher>();
        send_sync::<activegis::SessionServer>();
    }

    /// A deterministic pool of rules the writer cycles through: varied
    /// patterns, groups, priorities and guards, mirroring the property
    /// test's generator without its RNG.
    fn stress_rule(serial: usize) -> Rule<usize> {
        let event = match serial % 4 {
            0 => EventPattern::db(DbEventKind::GetSchema),
            1 => EventPattern::Db {
                kind: Some(DbEventKind::GetClass),
                schema: Some(SCHEMAS[serial % 2].into()),
                class: Some(CLASSES[serial / 2 % 2].into()),
            },
            2 => EventPattern::Interface {
                name: Some(GESTURES[serial % 2].into()),
                source_prefix: None,
            },
            _ => EventPattern::Any,
        };
        let context = match serial % 3 {
            0 => ContextPattern::any(),
            1 => ContextPattern::for_user("juliano"),
            _ => ContextPattern::for_application("pole_manager"),
        };
        let mut rule = Rule::customization(format!("stress/{serial}"), event, context, serial)
            .with_priority((serial % 7) as i32 - 3);
        if serial.is_multiple_of(5) {
            rule = rule.with_guard(Arc::new(|e, _| matches!(e, Event::Db(_))));
        }
        rule
    }

    fn stress_events() -> Vec<Event> {
        vec![
            Event::Db(DbEvent::GetSchema {
                schema: "phone_net".into(),
            }),
            Event::Db(DbEvent::GetClass {
                schema: "phone_net".into(),
                class: "Pole".into(),
            }),
            Event::interface("click", SOURCES[0].to_string()),
            Event::external("tick"),
        ]
    }

    /// One writer thread adds/removes/toggles rules in the shared base
    /// while reader threads continuously compare three sessions — the
    /// compiled tier traced and untraced (recompiling on every observed
    /// snapshot flip) and the linear oracle — over bitwise-identical
    /// pinned snapshots. Any divergence between the strategies, or any
    /// torn snapshot observation, fails the test.
    #[test]
    fn strategies_agree_under_concurrent_mutation() {
        const READERS: usize = 3;
        const READER_ROUNDS: usize = 120;
        const WRITER_ROUNDS: usize = 300;

        let base = Engine::<usize>::new().rule_base();
        let mut writer = base.session();
        for serial in 0..16 {
            writer.add_rule(stress_rule(serial)).expect("unique names");
        }

        let writer_base = base.clone();
        let writer_thread = std::thread::spawn(move || {
            let mut writer = writer_base.session();
            for round in 0..WRITER_ROUNDS {
                let serial = 16 + round;
                match round % 4 {
                    0 | 1 => {
                        writer.add_rule(stress_rule(serial)).expect("unique names");
                    }
                    2 => {
                        // Remove the oldest rule still alive; ignore a
                        // miss if an earlier round already removed it.
                        let _ = writer.remove_rule(&format!("stress/{}", serial - 8));
                    }
                    _ => {
                        let name = format!("stress/{}", serial - 4);
                        let _ = writer.set_enabled(&name, round % 8 < 4);
                    }
                }
            }
        });

        let sessions = sessions();
        let events = stress_events();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let base = base.clone();
                let sessions = sessions.clone();
                let events = events.clone();
                std::thread::spawn(move || {
                    let mut linear = base.session_with(EngineConfig {
                        strategy: DispatchStrategy::Linear,
                        ..Default::default()
                    });
                    let mut compiled = base.session();
                    let mut compiled_fast = base.session_with(EngineConfig {
                        tracing: false,
                        ..Default::default()
                    });
                    // Pin the snapshots: each round refreshes the linear
                    // session, then clones its exact view into the others
                    // so all three dispatch over the same rule set no
                    // matter what the writer publishes meanwhile. The
                    // compiled sessions recompile their tables on every
                    // snapshot flip they observe.
                    for handle in [&mut linear, &mut compiled, &mut compiled_fast] {
                        handle.set_auto_sync(false);
                    }
                    for round in 0..READER_ROUNDS {
                        linear.sync();
                        compiled.sync_with(&linear);
                        compiled_fast.sync_with(&linear);
                        let ctx = &sessions[(r + round) % sessions.len()];
                        for event in &events {
                            // Twice per handle: the repeat hits each
                            // session's private winner cache.
                            for _ in 0..2 {
                                let a = linear.dispatch(event.clone(), ctx);
                                let b = compiled.dispatch(event.clone(), ctx);
                                let c = compiled_fast.dispatch(event.clone(), ctx);
                                let (Ok(a), Ok(b), Ok(c)) = (a, b, c) else {
                                    panic!("stress dispatch failed on {event:?}");
                                };
                                assert_eq!(
                                    a.customizations, b.customizations,
                                    "linear vs compiled on {event:?}"
                                );
                                assert_eq!(
                                    a.customizations, c.customizations,
                                    "linear vs untraced compiled on {event:?}"
                                );
                                assert_eq!(a.fired_names(), b.fired_names());
                                assert_eq!(a.fired_names(), c.fired_names());
                                assert_eq!(a.trace.entries, b.trace.entries);
                            }
                        }
                    }
                })
            })
            .collect();

        writer_thread.join().expect("writer thread");
        for reader in readers {
            reader.join().expect("reader thread");
        }

        // Every session of the base sees the writer's final rule book.
        let mut check = base.session();
        check.sync();
        assert_eq!(check.rules_generation(), base.epoch());
    }
}
