//! Execution traces.
//!
//! Every dispatch records which rules were considered, which fired, and
//! why — the raw material for the *explanation* interaction mode the
//! paper lists ("users want to know why and how the system presented a
//! specific answer to a query") and for the F1 architecture walkthrough.
//!
//! Recording is cheap by construction: every rule name in an entry is
//! the rule snapshot's interned `Arc<str>`, a dispatch hands out its
//! whole trace as one shared allocation ([`SharedTrace`]), and text is
//! rendered only when someone reads it.

use std::ops::Deref;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// One processed event within a dispatch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Cascade depth (0 = the event handed to `dispatch`).
    pub depth: usize,
    /// `Event::describe()` output.
    pub event: Arc<str>,
    /// Names of rules whose event+context+guard matched.
    pub matched: Vec<Arc<str>>,
    /// Names of rules that actually executed.
    pub fired: Vec<Arc<str>>,
    /// Names of matching customization rules skipped by the
    /// most-specific-wins policy.
    pub shadowed: Vec<Arc<str>>,
}

impl TraceEntry {
    /// Render as an indented line for explanation output.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}{} -> fired [{}]",
            "  ".repeat(self.depth),
            self.event,
            self.fired.join(", ")
        );
        if !self.shadowed.is_empty() {
            s.push_str(&format!(" (shadowed: {})", self.shadowed.join(", ")));
        }
        s
    }
}

/// A dispatch-long trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Multi-line rendering of the full cascade.
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(TraceEntry::render)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Did a rule with this name fire anywhere in the cascade?
    pub fn fired(&self, rule: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.fired.iter().any(|f| &**f == rule))
    }

    /// Machine-readable JSON rendering of the full cascade, for export
    /// through the observability pipeline.
    pub fn render_json(&self) -> String {
        serde_json::to_string(self).expect("trace serializes")
    }
}

/// A dispatch's trace, handed out by reference: the explanation log
/// keeps the very same `Arc`. A dispatch that recorded nothing (tracing
/// off) holds no allocation and reads as an empty [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct SharedTrace(Option<Arc<Trace>>);

static EMPTY: Trace = Trace {
    entries: Vec::new(),
};

impl SharedTrace {
    /// The recorded trace's allocation, `None` when nothing was recorded.
    pub fn shared(&self) -> Option<&Arc<Trace>> {
        self.0.as_ref()
    }
}

impl From<Vec<TraceEntry>> for SharedTrace {
    fn from(entries: Vec<TraceEntry>) -> SharedTrace {
        SharedTrace((!entries.is_empty()).then(|| Arc::new(Trace { entries })))
    }
}

impl Deref for SharedTrace {
    type Target = Trace;

    fn deref(&self) -> &Trace {
        self.0.as_deref().unwrap_or(&EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_cascade_depth_and_shadowing() {
        let t = Trace {
            entries: vec![
                TraceEntry {
                    depth: 0,
                    event: "Get_Schema(phone_net)".into(),
                    matched: vec!["R1".into(), "R0".into()],
                    fired: vec!["R1".into()],
                    shadowed: vec!["R0".into()],
                },
                TraceEntry {
                    depth: 1,
                    event: "Get_Class(phone_net, Pole)".into(),
                    matched: vec!["R2".into()],
                    fired: vec!["R2".into()],
                    shadowed: vec![],
                },
            ],
        };
        let out = t.render();
        assert!(out.contains("Get_Schema(phone_net) -> fired [R1] (shadowed: R0)"));
        assert!(out.contains("  Get_Class(phone_net, Pole) -> fired [R2]"));
        assert!(t.fired("R1"));
        assert!(t.fired("R2"));
        assert!(!t.fired("R0"));
    }

    #[test]
    fn cascaded_trace_serializes_with_depths_and_shadowing() {
        use crate::context::{ContextPattern, SessionContext};
        use crate::engine::Engine;
        use crate::event::{Event, EventPattern};
        use crate::rule::{Action, Rule, RuleGroup};
        use geodb::query::{DbEvent, DbEventKind};

        // Get_Schema fires one of two competing rules (one shadowed) and
        // raises Get_Class, which fires a depth-1 rule — the Fig. 6 shape.
        let mut eng: Engine<&str> = Engine::new();
        eng.add_rule(Rule::customization(
            "generic",
            EventPattern::db(DbEventKind::GetSchema),
            ContextPattern::any(),
            "generic",
        ))
        .unwrap();
        eng.add_rule(Rule::customization(
            "specific",
            EventPattern::db(DbEventKind::GetSchema),
            ContextPattern::for_user("juliano"),
            "specific",
        ))
        .unwrap();
        eng.add_rule(Rule {
            name: "raiser".into(),
            event: EventPattern::db(DbEventKind::GetSchema),
            context: ContextPattern::any(),
            guard: None,
            action: std::sync::Arc::new(Action::Raise(vec![Event::Db(DbEvent::GetClass {
                schema: "phone_net".into(),
                class: "Pole".into(),
            })])),
            group: RuleGroup::Other,
            coupling: crate::rule::Coupling::Immediate,
            priority: 0,
            enabled: true,
        })
        .unwrap();
        eng.add_rule(Rule::customization(
            "class_rule",
            EventPattern::db(DbEventKind::GetClass),
            ContextPattern::any(),
            "class",
        ))
        .unwrap();

        let ctx = SessionContext::new("juliano", "planner", "pole_manager");
        let out = eng
            .dispatch(
                Event::Db(DbEvent::GetSchema {
                    schema: "phone_net".into(),
                }),
                &ctx,
            )
            .unwrap();

        let json = out.trace.render_json();
        let roundtrip: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(roundtrip, *out.trace);
        // Depths survive serialization in cascade order.
        let depths: Vec<usize> = roundtrip.entries.iter().map(|e| e.depth).collect();
        assert_eq!(depths, vec![0, 1]);
        // Shadowing is intact: the generic rule lost to the specific one.
        assert_eq!(roundtrip.entries[0].shadowed, vec![Arc::from("generic")]);
        assert!(roundtrip.entries[0].fired.contains(&Arc::from("specific")));
        assert_eq!(roundtrip.entries[1].fired, vec![Arc::from("class_rule")]);
    }
}
