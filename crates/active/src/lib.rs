//! # active — the active database mechanism
//!
//! A general Event-Condition-Action rule engine, extended (as in the
//! paper) with *interface customization rules*: rules whose condition is
//! an application **context** `<user, category, application>` rather than
//! a database-state predicate, and whose action yields a customization
//! payload for the interface builder.
//!
//! Key design points taken from Section 3.3 of the paper:
//!
//! * events are database events (`Get_Schema` / `Get_Class` / `Get_Value`,
//!   updates), interface events, or external events ([`event`]);
//! * conditions check the session context; patterns form a specificity
//!   lattice — generic < application < category < user ([`context`]);
//! * among matching customization rules **only the most specific fires**
//!   ([`engine::SelectionPolicy::MostSpecific`]; the fire-all ablation is
//!   kept for experiment C1);
//! * other rule groups (integrity maintenance, as in the authors'
//!   topological-constraint prototype) all fire, and may cascade by
//!   raising events — bounded, with cycle diagnostics ([`conflict`]);
//! * every dispatch leaves a [`trace`] for the *explanation* mode.
//!
//! The engine is generic over the customization payload, so this crate
//! depends only on `geodb` (for the database event vocabulary) and knows
//! nothing about widgets.
//!
//! ```
//! use active::{ContextPattern, Engine, Event, EventPattern, Rule, SessionContext};
//! use geodb::query::{DbEvent, DbEventKind};
//!
//! let mut engine: Engine<&str> = Engine::new();
//! engine
//!     .add_rule(Rule::customization(
//!         "R2",
//!         EventPattern::db(DbEventKind::GetClass),
//!         ContextPattern::for_user("juliano").application("pole_manager"),
//!         "Build_Window(Class_set, Pole, poleWidget, pointFormat)",
//!     ))
//!     .unwrap();
//!
//! let ctx = SessionContext::new("juliano", "planner", "pole_manager");
//! let event = Event::Db(DbEvent::GetClass {
//!     schema: "phone_net".into(),
//!     class: "Pole".into(),
//! });
//! let outcome = engine.dispatch(event, &ctx).unwrap();
//! assert_eq!(
//!     outcome.customization(),
//!     Some(&"Build_Window(Class_set, Pole, poleWidget, pointFormat)")
//! );
//! ```

pub(crate) mod compiled;
pub mod conflict;
pub mod context;
pub mod engine;
pub mod event;
pub mod rule;
pub mod trace;

pub use compiled::CompileStats;
pub use conflict::{analyze, Finding};
pub use context::{ContextPattern, SessionContext};
pub use engine::{
    ActiveError, CacheStats, DispatchStrategy, Engine, EngineConfig, FaultPolicy, FaultRecord,
    Outcome, RuleBase, RuleHealth, SelectionPolicy, CASCADE_PSEUDO_RULE,
};
pub use event::{Event, EventPattern};
pub use rule::{Action, Callback, Coupling, Guard, Rule, RuleGroup};
pub use trace::{SharedTrace, Trace, TraceEntry};
