//! # gisui — the GIS user-interface layer
//!
//! The topmost layer of the paper's Fig. 1 architecture:
//!
//! * [`dispatcher`] — "the generic interface control module": captures
//!   user actions, generates the `Get_Schema` / `Get_Class` / `Get_Value`
//!   primitives the active mechanism intercepts, and maintains the
//!   Schema → Class-set → Instance window hierarchy ([`windows`]);
//! * [`session`] — per-user sessions carrying the `<user, category,
//!   application>` context that rule conditions check;
//! * [`modes`] — exploratory browsing (the paper's supported mode) plus
//!   the analysis / simulation / explanation extensions it describes;
//! * [`protocol`] — the weak-integration message protocol between the UI
//!   and the geographic system.
//!
//! The customization is *transparent*: "all the modules in the interface
//! have exactly the same behavior, with or without customization" — the
//! dispatcher code has no customization branches; it merely forwards
//! whatever payload the active engine selected to the builder.

pub mod dispatcher;
pub mod explain;
pub mod modes;
pub mod protocol;
pub mod screen;
pub mod session;
pub mod windows;

pub use dispatcher::{paper_dispatcher, Dispatcher, Result, StoredProgramReport, UiError};
pub use explain::{ExplanationLog, TraceRecord, DEFAULT_EXPLANATION_CAPACITY};
pub use modes::InteractionMode;
pub use protocol::{decode, encode, Request, Response, WindowDescriptor, PROTOCOL_VERSION};
pub use screen::{beside, session_screen};
pub use session::{Session, SessionId};
pub use windows::{ClassSource, ManagedWindow, WindowId, WindowRegistry};
