//! # uilib — the library of interface objects
//!
//! Implements the paper's Fig. 2 kernel and everything around it:
//!
//! * the eight kernel widget classes and their composition rules
//!   ([`widget`]);
//! * the extensible class [`registry`] — new classes and specializations
//!   can be added at run time, which is what the customization language's
//!   `display control as poleWidget` resolves against;
//! * the composition [`tree`] with path addressing;
//! * named [`callback`]s ("generic behavior can be dynamically customized
//!   by callback functions");
//! * a character-cell [`layout`](mod@layout) engine and two headless renderers
//!   ([`render::ascii`], [`render::svg`]) standing in for the 1997 Motif
//!   toolkit (see DESIGN.md, substitution table);
//! * cartographic [`scene`]s for DrawingArea widgets;
//! * [`persist`]ence of the class library *inside* the geographic
//!   database, as the paper's architecture requires.
//!
//! ```
//! use uilib::{Library, WidgetTree};
//!
//! let mut lib = Library::with_kernel();
//! lib.specialize("slider", "Panel", vec![("style".into(), "slider".into())])
//!     .unwrap();
//! let mut tree = WidgetTree::new(&lib, "Window", "class_window").unwrap();
//! let panel = tree.add(&lib, tree.root(), "Panel", "control").unwrap();
//! tree.add(&lib, panel, "Button", "show").unwrap();
//! let art = uilib::render::ascii::render(&tree, &Default::default()).unwrap();
//! assert!(art.contains("class_window"));
//! ```

pub mod callback;
pub mod layout;
pub mod persist;
pub mod registry;
pub mod render;
pub mod scene;
pub mod tree;
pub mod widget;

pub use callback::{CallbackFn, CallbackTable, Signal, UiEvent};
pub use layout::{layout, Bounds, LayoutMap};
pub use registry::{Library, LibraryError, WidgetClass};
pub use scene::{MapScene, MapShape, SceneMap};
pub use tree::{TreeError, WidgetTree};
pub use widget::{Prop, Widget, WidgetId, WidgetKind};
