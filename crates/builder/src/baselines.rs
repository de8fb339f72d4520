//! The paper's Section 2.2 comparison baselines.
//!
//! Two artifacts back the economic argument for active customization:
//!
//! * [`hardwired_class_window`] — a Class-set window built directly
//!   against the kernel widget classes, the way a per-application
//!   toolkit program would: no catalog, no rules, no dispatcher. The
//!   benchmarks compare this against the full active path.
//! * [`CostModel`] — deployment cost (lines touched, redeploys) to
//!   support N user contexts under the three pre-existing approaches
//!   vs. the active one, calibrated from the paper's own datapoint:
//!   the reference implementation \[14\] spent over 10 000 lines of code
//!   on more than 100 distinct windows (~100 lines per window).

use std::sync::Arc;

use geodb::Instance;
use uilib::{Library, MapScene, MapShape, SceneMap, WidgetTree};

use crate::{BuildError, BuiltWindow, WindowKind};

/// Build a Class-set window the pre-GIS-toolkit way: hardwired against
/// the kernel classes only. Functionally equivalent to the generic
/// builder's default window, but bypasses catalog metadata and
/// customization entirely — the run-time baseline of experiment C2.
pub fn hardwired_class_window(
    library: &Library,
    class: &str,
    instances: &[Arc<Instance>],
) -> Result<BuiltWindow, BuildError> {
    let title = format!("Class: {class}");
    let mut tree = WidgetTree::new(library, "Window", "class_window")?;
    tree.get_mut(tree.root())?.set_prop("title", title.clone());
    let body = tree.add(library, tree.root(), "Panel", "body")?;
    tree.get_mut(body)?.set_prop("layout", "h");

    let ctl = tree.add(library, body, "Panel", "control")?;
    tree.get_mut(ctl)?.set_prop("title", "control");
    let ids = tree.add(library, ctl, "List", "ids")?;
    {
        let w = tree.get_mut(ids)?;
        w.set_prop(
            "items",
            instances
                .iter()
                .map(|i| i.oid.to_string())
                .collect::<Vec<_>>(),
        );
        w.on("select", "pick_instance");
    }
    for (name, label, cb) in [
        ("zoom", "Zoom", "zoom"),
        ("select", "Select", "select_mode"),
        ("close", "Close", "close_window"),
    ] {
        let b = tree.add(library, ctl, "Button", name)?;
        let w = tree.get_mut(b)?;
        w.set_prop("label", label);
        w.on("click", cb);
    }

    let pres = tree.add(library, body, "Panel", "presentation")?;
    tree.get_mut(pres)?.set_prop("title", "display");
    let count = tree.add(library, pres, "Text", "count")?;
    {
        let w = tree.get_mut(count)?;
        w.set_prop("label", "instances");
        w.set_prop("value", instances.len().to_string());
    }
    let map = tree.add(library, pres, "DrawingArea", "map")?;
    tree.get_mut(map)?.on("click", "pick_instance");
    let mut scene = MapScene::new();
    for inst in instances {
        if let Some((_, geom)) = inst.primary_geometry() {
            scene.add(
                MapShape::new(geom.clone())
                    .with_oid(inst.oid)
                    .with_symbol('.'),
            );
        }
    }
    let mut scenes = SceneMap::new();
    scenes.insert(map, scene);

    Ok(BuiltWindow {
        kind: WindowKind::ClassSet,
        title,
        visible: true,
        tree,
        scenes,
        auto_open: Vec::new(),
    })
}

/// Deployment cost of supporting a set of user contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Source lines written or edited.
    pub lines_touched: u64,
    /// Times the system had to be rebuilt and redeployed.
    pub redeploys: u64,
}

/// Cost model for the paper's Section 2.2 comparison, calibrated from
/// \[14\]: ~10 000 LoC for >100 windows, i.e. ~100 lines per window.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Lines to hand-code one window in a toolkit (from \[14\]).
    pub lines_per_window: u64,
    /// Lines of glue per additional paradigm kept in sync.
    pub glue_lines_per_paradigm: u64,
    /// Lines of one customization directive in the active approach.
    pub directive_lines: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            lines_per_window: 100,
            glue_lines_per_paradigm: 40,
            directive_lines: 6,
        }
    }
}

impl CostModel {
    /// Toolkit approach: every context gets hand-coded windows, every
    /// context change is a code change plus redeploy.
    pub fn toolkit(&self, contexts: u64, windows: u64) -> Cost {
        Cost {
            lines_touched: contexts * windows * self.lines_per_window,
            redeploys: contexts,
        }
    }

    /// Multiple-paradigms approach: toolkit cost plus glue to keep
    /// `paradigms` parallel implementations consistent.
    pub fn multiple_paradigms(&self, contexts: u64, windows: u64, paradigms: u64) -> Cost {
        let base = self.toolkit(contexts, windows);
        Cost {
            lines_touched: base.lines_touched + contexts * paradigms * self.glue_lines_per_paradigm,
            redeploys: contexts * paradigms.max(1),
        }
    }

    /// Active approach: one generic builder (already deployed); each
    /// context is a declarative directive installed at run time.
    pub fn active(&self, contexts: u64, _windows: u64) -> Cost {
        Cost {
            lines_touched: contexts * self.directive_lines,
            redeploys: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_costs_cross_over_before_the_second_context() {
        let m = CostModel::default();
        for contexts in [1u64, 2, 10, 100] {
            let t = m.toolkit(contexts, 3);
            let p = m.multiple_paradigms(contexts, 3, 3);
            let a = m.active(contexts, 3);
            assert!(a.lines_touched < t.lines_touched);
            assert!(t.lines_touched <= p.lines_touched);
            assert_eq!(a.redeploys, 0);
            assert!(t.redeploys >= contexts);
        }
        // The paper's calibration point: 100 windows ≈ 10 000 LoC.
        assert_eq!(m.toolkit(1, 100).lines_touched, 10_000);
    }
}
