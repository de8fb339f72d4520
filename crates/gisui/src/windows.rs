//! The window registry: the dispatcher "is responsible for creating and
//! maintaining the hierarchy of (Schema, Class set, Instance) windows".

use std::collections::HashMap;

use builder::BuiltWindow;
use geodb::instance::Oid;
use geodb::query::Predicate;

/// Identifier of a managed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u64);

impl std::fmt::Display for WindowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "win{}", self.0)
    }
}

/// Where a Class-set window's rows come from, so a view refresh re-reads
/// what the window was opened on.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassSource {
    /// The class extension (`Get_Class`).
    Extent,
    /// An Analysis-mode selection: a refresh re-runs the predicate.
    Selection(Predicate),
    /// A Simulation-mode sandbox: hypothetical rows that the live
    /// database has no copy of, so a refresh leaves them alone.
    Sandbox,
}

/// A window under dispatcher management.
#[derive(Debug, Clone)]
pub struct ManagedWindow {
    pub id: WindowId,
    pub built: BuiltWindow,
    pub parent: Option<WindowId>,
    /// Session that opened the window (its context governs refreshes).
    pub session: u32,
    /// Schema the window browses.
    pub schema: String,
    /// Class, for Class-set and Instance windows.
    pub class: Option<String>,
    /// Object, for Instance windows.
    pub oid: Option<Oid>,
    /// Row source, for Class-set windows.
    pub source: Option<ClassSource>,
}

/// Registry of open windows with parent/child hierarchy.
#[derive(Debug, Default)]
pub struct WindowRegistry {
    windows: HashMap<WindowId, ManagedWindow>,
    next_id: u64,
}

impl WindowRegistry {
    pub fn new() -> WindowRegistry {
        WindowRegistry::default()
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Register a window; returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        built: BuiltWindow,
        parent: Option<WindowId>,
        session: u32,
        schema: impl Into<String>,
        class: Option<String>,
        oid: Option<Oid>,
        source: Option<ClassSource>,
    ) -> WindowId {
        let id = WindowId(self.next_id);
        self.next_id += 1;
        self.windows.insert(
            id,
            ManagedWindow {
                id,
                built,
                parent,
                session,
                schema: schema.into(),
                class,
                oid,
                source,
            },
        );
        if obs::enabled() {
            obs::counter_add("dispatcher.windows_opened", 1);
            obs::record_value("dispatcher.open_windows", self.windows.len() as u64);
        }
        id
    }

    pub fn get(&self, id: WindowId) -> Option<&ManagedWindow> {
        self.windows.get(&id)
    }

    pub fn get_mut(&mut self, id: WindowId) -> Option<&mut ManagedWindow> {
        self.windows.get_mut(&id)
    }

    /// Direct children of a window.
    pub fn children(&self, id: WindowId) -> Vec<WindowId> {
        let mut v: Vec<WindowId> = self
            .windows
            .values()
            .filter(|w| w.parent == Some(id))
            .map(|w| w.id)
            .collect();
        v.sort();
        v
    }

    /// Close a window and its whole subtree; returns the closed ids.
    pub fn close(&mut self, id: WindowId) -> Vec<WindowId> {
        let mut closed = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if self.windows.remove(&cur).is_some() {
                closed.push(cur);
                stack.extend(
                    self.windows
                        .values()
                        .filter(|w| w.parent == Some(cur))
                        .map(|w| w.id),
                );
            }
        }
        closed.sort();
        if obs::enabled() && !closed.is_empty() {
            obs::counter_add("dispatcher.windows_closed", closed.len() as u64);
            obs::record_value("dispatcher.open_windows", self.windows.len() as u64);
        }
        closed
    }

    /// All open windows, id order.
    pub fn iter(&self) -> Vec<&ManagedWindow> {
        let mut v: Vec<&ManagedWindow> = self.windows.values().collect();
        v.sort_by_key(|w| w.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use builder::{BuiltWindow, WindowKind};
    use uilib::{Library, SceneMap, WidgetTree};

    fn dummy(kind: WindowKind) -> BuiltWindow {
        let lib = Library::with_kernel();
        let tree = WidgetTree::new(&lib, "Window", "w").unwrap();
        BuiltWindow {
            kind,
            title: "t".into(),
            visible: true,
            tree,
            scenes: SceneMap::new(),
            auto_open: vec![],
        }
    }

    #[test]
    fn hierarchy_tracks_parents_and_children() {
        let mut reg = WindowRegistry::new();
        let schema = reg.insert(dummy(WindowKind::Schema), None, 0, "s", None, None, None);
        let class = reg.insert(
            dummy(WindowKind::ClassSet),
            Some(schema),
            0,
            "s",
            Some("Pole".into()),
            None,
            Some(ClassSource::Extent),
        );
        let inst = reg.insert(
            dummy(WindowKind::Instance),
            Some(class),
            0,
            "s",
            Some("Pole".into()),
            Some(Oid(1)),
            None,
        );
        assert_eq!(reg.children(schema), vec![class]);
        assert_eq!(reg.children(class), vec![inst]);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.get(inst).unwrap().oid, Some(Oid(1)));
    }

    #[test]
    fn close_cascades_to_descendants() {
        let mut reg = WindowRegistry::new();
        let schema = reg.insert(dummy(WindowKind::Schema), None, 0, "s", None, None, None);
        let class = reg.insert(
            dummy(WindowKind::ClassSet),
            Some(schema),
            0,
            "s",
            None,
            None,
            Some(ClassSource::Extent),
        );
        let inst = reg.insert(
            dummy(WindowKind::Instance),
            Some(class),
            0,
            "s",
            None,
            None,
            None,
        );
        let other = reg.insert(dummy(WindowKind::Schema), None, 0, "s2", None, None, None);

        let closed = reg.close(schema);
        assert_eq!(closed, vec![schema, class, inst]);
        assert_eq!(reg.len(), 1);
        assert!(reg.get(other).is_some());
        // Closing again is a no-op.
        assert!(reg.close(schema).is_empty());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut reg = WindowRegistry::new();
        let a = reg.insert(dummy(WindowKind::Schema), None, 0, "s", None, None, None);
        reg.close(a);
        let b = reg.insert(dummy(WindowKind::Schema), None, 0, "s", None, None, None);
        assert_ne!(a, b);
    }
}
