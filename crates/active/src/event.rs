//! Events and event patterns.
//!
//! The paper splits a user interaction `Iᵢ` into "an interface event
//! `IEᵢ` (e.g., mouse click, key pressing) and a database event `DBEᵢ`";
//! both — plus external events ("application, hardware interrupts") —
//! flow through the same extended active mechanism.

use serde::{Deserialize, Serialize};

use geodb::query::{DbEvent, DbEventKind};

/// Any event the active mechanism can react to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A database event (query or update primitive).
    Db(DbEvent),
    /// An interface event: `name` is the gesture ("click", "key"),
    /// `source` the widget path it happened on.
    Interface { name: String, source: String },
    /// An external event (application signal, timer, hardware interrupt).
    External { name: String },
}

impl Event {
    pub fn interface(name: impl Into<String>, source: impl Into<String>) -> Event {
        Event::Interface {
            name: name.into(),
            source: source.into(),
        }
    }

    pub fn external(name: impl Into<String>) -> Event {
        Event::External { name: name.into() }
    }

    /// Short description for traces (the [`Display`](std::fmt::Display)
    /// form).
    pub fn describe(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Db(e) => match e.class() {
                Some(c) => write!(f, "{}({}, {c})", e.kind(), e.schema()),
                None => write!(f, "{}({})", e.kind(), e.schema()),
            },
            Event::Interface { name, source } => write!(f, "IE:{name}@{source}"),
            Event::External { name } => write!(f, "EXT:{name}"),
        }
    }
}

impl From<DbEvent> for Event {
    fn from(e: DbEvent) -> Event {
        Event::Db(e)
    }
}

/// The Event part of an E-C-A rule: a pattern over [`Event`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventPattern {
    /// Matches every event.
    Any,
    /// A database event, optionally narrowed by kind / schema / class.
    Db {
        kind: Option<DbEventKind>,
        schema: Option<String>,
        class: Option<String>,
    },
    /// An interface event, optionally narrowed by gesture name and/or a
    /// source prefix (so `source_prefix = "class_window"` matches events
    /// from any widget inside that window).
    Interface {
        name: Option<String>,
        source_prefix: Option<String>,
    },
    /// An external event by exact name (or any, when `None`).
    External { name: Option<String> },
}

impl EventPattern {
    /// Pattern for one database event kind, any schema/class.
    pub fn db(kind: DbEventKind) -> EventPattern {
        EventPattern::Db {
            kind: Some(kind),
            schema: None,
            class: None,
        }
    }

    /// Pattern for a database event kind on a specific schema.
    pub fn db_on_schema(kind: DbEventKind, schema: impl Into<String>) -> EventPattern {
        EventPattern::Db {
            kind: Some(kind),
            schema: Some(schema.into()),
            class: None,
        }
    }

    /// Pattern for a database event kind on a specific class.
    pub fn db_on_class(
        kind: DbEventKind,
        schema: impl Into<String>,
        class: impl Into<String>,
    ) -> EventPattern {
        EventPattern::Db {
            kind: Some(kind),
            schema: Some(schema.into()),
            class: Some(class.into()),
        }
    }

    /// Does an event satisfy this pattern?
    pub fn matches(&self, event: &Event) -> bool {
        match (self, event) {
            (EventPattern::Any, _) => true,
            (
                EventPattern::Db {
                    kind,
                    schema,
                    class,
                },
                Event::Db(e),
            ) => {
                kind.is_none_or(|k| k == e.kind())
                    && schema.as_deref().is_none_or(|s| s == e.schema())
                    && class.as_deref().is_none_or(|c| Some(c) == e.class())
            }
            (
                EventPattern::Interface {
                    name,
                    source_prefix,
                },
                Event::Interface {
                    name: en,
                    source: es,
                },
            ) => {
                name.as_deref().is_none_or(|n| n == en)
                    && source_prefix.as_deref().is_none_or(|p| es.starts_with(p))
            }
            (EventPattern::External { name }, Event::External { name: en }) => {
                name.as_deref().is_none_or(|n| n == en)
            }
            _ => false,
        }
    }

    /// How narrowly the pattern selects events — the event-side component
    /// of rule specificity (class-scoped beats schema-scoped beats
    /// kind-only beats any).
    pub fn specificity(&self) -> u32 {
        match self {
            EventPattern::Any => 0,
            EventPattern::Db {
                kind,
                schema,
                class,
            } => kind.is_some() as u32 + schema.is_some() as u32 + 2 * class.is_some() as u32,
            EventPattern::Interface {
                name,
                source_prefix,
            } => name.is_some() as u32 + source_prefix.is_some() as u32,
            EventPattern::External { name } => name.is_some() as u32,
        }
    }
}

impl std::fmt::Display for EventPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventPattern::Any => write!(f, "*"),
            EventPattern::Db {
                kind,
                schema,
                class,
            } => {
                match kind {
                    Some(k) => write!(f, "{k}")?,
                    None => write!(f, "DB:*")?,
                }
                if let Some(s) = schema {
                    write!(f, " on {s}")?;
                }
                if let Some(c) = class {
                    write!(f, ".{c}")?;
                }
                Ok(())
            }
            EventPattern::Interface {
                name,
                source_prefix,
            } => write!(
                f,
                "IE:{}@{}*",
                name.as_deref().unwrap_or("*"),
                source_prefix.as_deref().unwrap_or("")
            ),
            EventPattern::External { name } => {
                write!(f, "EXT:{}", name.as_deref().unwrap_or("*"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_class_event() -> Event {
        Event::Db(DbEvent::GetClass {
            schema: "phone_net".into(),
            class: "Pole".into(),
        })
    }

    #[test]
    fn any_matches_all() {
        assert!(EventPattern::Any.matches(&get_class_event()));
        assert!(EventPattern::Any.matches(&Event::external("tick")));
    }

    #[test]
    fn db_patterns_narrow_progressively() {
        let e = get_class_event();
        assert!(EventPattern::db(DbEventKind::GetClass).matches(&e));
        assert!(!EventPattern::db(DbEventKind::GetSchema).matches(&e));
        assert!(EventPattern::db_on_schema(DbEventKind::GetClass, "phone_net").matches(&e));
        assert!(!EventPattern::db_on_schema(DbEventKind::GetClass, "other").matches(&e));
        assert!(EventPattern::db_on_class(DbEventKind::GetClass, "phone_net", "Pole").matches(&e));
        assert!(!EventPattern::db_on_class(DbEventKind::GetClass, "phone_net", "Duct").matches(&e));
    }

    #[test]
    fn db_pattern_never_matches_other_kinds() {
        assert!(!EventPattern::db(DbEventKind::GetClass).matches(&Event::external("x")));
        assert!(!EventPattern::External { name: None }.matches(&get_class_event()));
    }

    #[test]
    fn interface_pattern_prefix_matching() {
        let e = Event::interface("click", "class_window/panel0/button2");
        let any_click = EventPattern::Interface {
            name: Some("click".into()),
            source_prefix: None,
        };
        let in_window = EventPattern::Interface {
            name: None,
            source_prefix: Some("class_window/".into()),
        };
        let elsewhere = EventPattern::Interface {
            name: None,
            source_prefix: Some("schema_window/".into()),
        };
        assert!(any_click.matches(&e));
        assert!(in_window.matches(&e));
        assert!(!elsewhere.matches(&e));
    }

    #[test]
    fn specificity_ranks_patterns() {
        let any = EventPattern::Any;
        let kind = EventPattern::db(DbEventKind::GetClass);
        let on_schema = EventPattern::db_on_schema(DbEventKind::GetClass, "s");
        let on_class = EventPattern::db_on_class(DbEventKind::GetClass, "s", "C");
        assert!(any.specificity() < kind.specificity());
        assert!(kind.specificity() < on_schema.specificity());
        assert!(on_schema.specificity() < on_class.specificity());
    }

    #[test]
    fn describe_and_display() {
        assert_eq!(get_class_event().describe(), "Get_Class(phone_net, Pole)");
        assert_eq!(
            EventPattern::db_on_class(DbEventKind::GetClass, "phone_net", "Pole").to_string(),
            "Get_Class on phone_net.Pole"
        );
    }
}
