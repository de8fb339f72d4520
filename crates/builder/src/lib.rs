//! The generic interface builder of the paper's Fig. 1.
//!
//! Given catalog metadata (and, optionally, a customization payload
//! selected by the active mechanism), the builder materializes the three
//! window types of the paper's interaction model:
//!
//! * **Schema window** — the classes of a schema, ready to browse;
//! * **Class-set window** — a control area (instance list + command
//!   buttons or a custom control widget) beside a presentation area
//!   (instance count + map) for one class extension;
//! * **Instance window** — one row per effective attribute of a single
//!   instance, with per-attribute display clauses applied.
//!
//! Windows are plain data ([`BuiltWindow`]): a widget tree plus map
//! scenes, rendered on demand to ASCII or SVG by `uilib`. The builder
//! never talks to the rule engine — it only *applies* the payload the
//! engine selected, which is what keeps customization transparent to
//! the rest of the interface (paper Section 3.2).

pub mod baselines;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use custlang::{AttrClause, AttrDisplay, Customization, SchemaMode, Source};
use geodb::{Catalog, DbSnapshot, GeoDbError, GeometryKind, Instance, SchemaDef, Value};
use uilib::render::{ascii, svg};
use uilib::{Library, LibraryError, MapScene, MapShape, Prop, SceneMap, TreeError, WidgetTree};

/// Errors from window construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    Library(LibraryError),
    Tree(TreeError),
    Db(GeoDbError),
    /// A customization referenced a widget class the library lacks.
    UnknownWidget(String),
    /// An injected fault (the `builder.build` failpoint) aborted a
    /// *customized* build. Default builds never take this path, so the
    /// generic interface stays available for degradation.
    Fault(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Library(e) => write!(f, "library: {e}"),
            BuildError::Tree(e) => write!(f, "tree: {e}"),
            BuildError::Db(e) => write!(f, "database: {e}"),
            BuildError::UnknownWidget(w) => write!(f, "unknown widget class `{w}`"),
            BuildError::Fault(cause) => write!(f, "injected build fault: {cause}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Library(e) => Some(e),
            BuildError::Tree(e) => Some(e),
            BuildError::Db(e) => Some(e),
            BuildError::UnknownWidget(_) | BuildError::Fault(_) => None,
        }
    }
}

impl From<LibraryError> for BuildError {
    fn from(e: LibraryError) -> Self {
        BuildError::Library(e)
    }
}

impl From<TreeError> for BuildError {
    fn from(e: TreeError) -> Self {
        BuildError::Tree(e)
    }
}

impl From<GeoDbError> for BuildError {
    fn from(e: GeoDbError) -> Self {
        BuildError::Db(e)
    }
}

/// The three window types of the paper's interaction model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    Schema,
    ClassSet,
    Instance,
}

impl std::fmt::Display for WindowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WindowKind::Schema => "Schema",
            WindowKind::ClassSet => "Class_set",
            WindowKind::Instance => "Instance",
        })
    }
}

/// The built-in presentation formats of the customization language
/// (`custlang::BUILTIN_FORMATS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Format {
    #[default]
    Default,
    Point,
    Line,
    Polygon,
    Table,
    Symbol,
}

impl Format {
    pub fn from_name(name: &str) -> Option<Format> {
        Some(match name {
            "default" => Format::Default,
            "pointFormat" => Format::Point,
            "lineFormat" => Format::Line,
            "polygonFormat" => Format::Polygon,
            "tableFormat" => Format::Table,
            "symbolFormat" => Format::Symbol,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Format::Default => "default",
            Format::Point => "pointFormat",
            Format::Line => "lineFormat",
            Format::Polygon => "polygonFormat",
            Format::Table => "tableFormat",
            Format::Symbol => "symbolFormat",
        }
    }

    /// Map symbol for a shape of `kind` in class `class` under this
    /// format ("points draw as dots, lines as strokes…").
    fn symbol(&self, class: &str, kind: GeometryKind) -> char {
        match (self, kind) {
            (Format::Symbol, _) => class
                .chars()
                .next()
                .map(|c| c.to_ascii_uppercase())
                .unwrap_or('*'),
            (Format::Point, GeometryKind::Point) => 'o',
            (Format::Polygon, GeometryKind::Polygon) => '@',
            (_, GeometryKind::Point) => '.',
            (_, GeometryKind::Polyline) => '-',
            (_, GeometryKind::Polygon) => '-',
        }
    }
}

/// A materialized window: widget tree + map scenes + dispatch metadata.
#[derive(Debug, Clone)]
pub struct BuiltWindow {
    pub kind: WindowKind,
    pub title: String,
    /// Hidden windows (`display as Null`) render to an empty string.
    pub visible: bool,
    pub tree: WidgetTree,
    pub scenes: SceneMap,
    /// Class windows the dispatcher should open immediately (a hidden
    /// schema window under `display as Null` forwards its classes).
    pub auto_open: Vec<String>,
}

impl BuiltWindow {
    /// Character-cell rendering; empty for hidden windows.
    pub fn to_ascii(&self) -> String {
        if !self.visible {
            return String::new();
        }
        let _span = obs::span("render.ascii");
        ascii::render(&self.tree, &self.scenes).unwrap_or_default()
    }

    /// SVG rendering (produced even for hidden windows, so explanation
    /// tooling can inspect what *would* have shown).
    pub fn to_svg(&self) -> String {
        let _span = obs::span("render.svg");
        svg::render(&self.tree, &self.scenes).unwrap_or_default()
    }

    /// Number of widgets in the window.
    pub fn widget_count(&self) -> usize {
        self.tree.len()
    }

    /// Deterministic structural digest: two windows share a fingerprint
    /// iff their kind, title, visibility, widget structure (names,
    /// classes, props, callbacks) and scene content coincide. Used by
    /// the window-census experiments.
    pub fn fingerprint(&self) -> String {
        let mut h = DefaultHasher::new();
        self.kind.hash(&mut h);
        self.title.hash(&mut h);
        self.visible.hash(&mut h);
        self.auto_open.hash(&mut h);
        for id in self.tree.walk() {
            let w = self.tree.get(id).expect("walked id");
            w.name.hash(&mut h);
            w.class.hash(&mut h);
            format!("{:?}", w.kind).hash(&mut h);
            for (k, v) in &w.props {
                k.hash(&mut h);
                format!("{v:?}").hash(&mut h);
            }
            for (g, cb) in &w.callbacks {
                g.hash(&mut h);
                cb.hash(&mut h);
            }
            // Scene content participates through the owning widget.
            if let Some(scene) = self.scenes.get(&id) {
                scene.shapes.len().hash(&mut h);
                for s in &scene.shapes {
                    s.symbol.hash(&mut h);
                    s.label.hash(&mut h);
                    format!("{:?}", s.oid).hash(&mut h);
                }
            }
        }
        format!("{:016x}", h.finish())
    }
}

/// The generic builder: a widget library plus the three construction
/// entry points.
pub struct InterfaceBuilder {
    /// Interface-objects library; public so the dispatcher can install
    /// user-defined widget classes at run time.
    pub library: Library,
}

impl InterfaceBuilder {
    pub fn new(library: Library) -> InterfaceBuilder {
        InterfaceBuilder { library }
    }

    /// Kernel library plus the paper's worked-example widgets
    /// (`slider`, `poleWidget`, `composed_text`, `text`).
    pub fn with_paper_library() -> InterfaceBuilder {
        let mut lib = Library::with_kernel();
        lib.specialize(
            "slider",
            "Panel",
            vec![("style".into(), Prop::from("slider"))],
        )
        .expect("kernel has Panel");
        lib.specialize("poleWidget", "slider", vec![])
            .expect("slider defined");
        lib.specialize("composed_text", "Text", vec![])
            .expect("kernel has Text");
        lib.specialize("text", "Text", vec![])
            .expect("kernel has Text");
        InterfaceBuilder::new(lib)
    }

    // -- schema window ------------------------------------------------------

    /// Build the Schema window for `schema`, honouring a
    /// [`Customization::SchemaWindow`] payload when present.
    pub fn schema_window(
        &self,
        schema: &SchemaDef,
        catalog: &Catalog,
        cust: Option<&Customization>,
    ) -> Result<BuiltWindow, BuildError> {
        let _span = obs::span("builder.schema_window");
        if let Err(e) = Self::build_failpoint(cust.is_some()) {
            return self.count(Err(e));
        }
        self.count(self.schema_window_inner(schema, catalog, cust))
    }

    /// The `builder.build` failpoint, consulted only for *customized*
    /// builds: it models "applying the customization failed", so the
    /// default build path — the degradation target — never faults here.
    fn build_failpoint(customized: bool) -> Result<(), BuildError> {
        if !customized {
            return Ok(());
        }
        faultsim::fire("builder.build").map_err(|f| BuildError::Fault(f.to_string()))
    }

    fn schema_window_inner(
        &self,
        schema: &SchemaDef,
        _catalog: &Catalog,
        cust: Option<&Customization>,
    ) -> Result<BuiltWindow, BuildError> {
        let (mode, auto_open) = match cust {
            Some(Customization::SchemaWindow { mode, classes, .. }) => (*mode, classes.clone()),
            _ => (SchemaMode::Default, Vec::new()),
        };

        let title = match mode {
            SchemaMode::Default | SchemaMode::Null => format!("Schema: {}", schema.name),
            _ => format!("Schema: {} ({})", schema.name, mode),
        };

        let mut tree = WidgetTree::new(&self.library, "Window", "schema_window")?;
        tree.get_mut(tree.root())?.set_prop("title", title.clone());
        let body = tree.add(&self.library, tree.root(), "Panel", "body")?;
        let items = match mode {
            SchemaMode::Hierarchy => hierarchy_items(schema),
            _ => schema.class_names().iter().map(|c| c.to_string()).collect(),
        };
        let classes = tree.add(&self.library, body, "List", "classes")?;
        {
            let w = tree.get_mut(classes)?;
            w.set_prop("title", "classes");
            w.set_prop("items", items);
            w.on("select", "open_class");
        }

        Ok(BuiltWindow {
            kind: WindowKind::Schema,
            title,
            visible: mode != SchemaMode::Null,
            tree,
            scenes: SceneMap::new(),
            auto_open: if mode == SchemaMode::Null {
                auto_open
            } else {
                Vec::new()
            },
        })
    }

    // -- class-set window ---------------------------------------------------

    /// Build the Class-set window for one class extension, honouring a
    /// [`Customization::ClassWindow`] payload when present. The rows are
    /// the pinned snapshot's shared instances; the window copies what it
    /// displays (oids, geometries) and keeps no handle to them, so an
    /// open window never holds an old epoch's data alive.
    pub fn class_window(
        &self,
        schema: &str,
        class: &str,
        instances: &[Arc<Instance>],
        cust: Option<&Customization>,
    ) -> Result<BuiltWindow, BuildError> {
        let _span = obs::span("builder.class_window");
        if let Err(e) = Self::build_failpoint(cust.is_some()) {
            return self.count(Err(e));
        }
        self.count(self.class_window_inner(schema, class, instances, cust))
    }

    fn class_window_inner(
        &self,
        _schema: &str,
        class: &str,
        instances: &[Arc<Instance>],
        cust: Option<&Customization>,
    ) -> Result<BuiltWindow, BuildError> {
        let (control, presentation) = match cust {
            Some(Customization::ClassWindow {
                control,
                presentation,
                ..
            }) => (control.clone(), presentation.clone()),
            _ => (None, None),
        };
        let format = presentation
            .as_deref()
            .and_then(Format::from_name)
            .unwrap_or_default();

        let title = format!("Class: {class}");
        let mut tree = WidgetTree::new(&self.library, "Window", "class_window")?;
        tree.get_mut(tree.root())?.set_prop("title", title.clone());
        let body = tree.add(&self.library, tree.root(), "Panel", "body")?;
        tree.get_mut(body)?.set_prop("layout", "h");

        // Control area: instance selector plus either the default
        // command buttons or the customization's control widget.
        let ctl = tree.add(&self.library, body, "Panel", "control")?;
        tree.get_mut(ctl)?.set_prop("title", "control");
        let ids = tree.add(&self.library, ctl, "List", "ids")?;
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
        match &control {
            None => {
                for (name, label, cb) in [
                    ("zoom", "Zoom", "zoom"),
                    ("select", "Select", "select_mode"),
                    ("close", "Close", "close_window"),
                ] {
                    let b = tree.add(&self.library, ctl, "Button", name)?;
                    let w = tree.get_mut(b)?;
                    w.set_prop("label", label);
                    w.on("click", cb);
                }
            }
            Some(widget_class) => {
                if !self.library.contains(widget_class) {
                    return Err(BuildError::UnknownWidget(widget_class.clone()));
                }
                let c = tree.add(&self.library, ctl, widget_class, "custom")?;
                tree.get_mut(c)?.on("change", "control_changed");
            }
        }

        // Presentation area: instance count plus map (or table).
        let pres = tree.add(&self.library, body, "Panel", "presentation")?;
        tree.get_mut(pres)?.set_prop("title", "display");
        let count = tree.add(&self.library, pres, "Text", "count")?;
        {
            let w = tree.get_mut(count)?;
            w.set_prop("label", "instances");
            w.set_prop("value", instances.len().to_string());
        }

        let mut scenes = SceneMap::new();
        if format == Format::Table {
            let table = tree.add(&self.library, pres, "List", "table")?;
            let w = tree.get_mut(table)?;
            w.set_prop("title", "table");
            w.set_prop(
                "items",
                instances
                    .iter()
                    .map(|i| format!("{} {}", i.oid, i.class))
                    .collect::<Vec<_>>(),
            );
            w.on("select", "pick_instance");
        } else {
            let map = tree.add(&self.library, pres, "DrawingArea", "map")?;
            tree.get_mut(map)?.on("click", "pick_instance");
            let mut scene = MapScene::new();
            for inst in instances {
                if let Some((_, geom)) = inst.primary_geometry() {
                    let sym = format.symbol(class, geom.kind());
                    scene.add(
                        MapShape::new(geom.clone())
                            .with_oid(inst.oid)
                            .with_symbol(sym),
                    );
                }
            }
            scenes.insert(map, scene);
        }

        Ok(BuiltWindow {
            kind: WindowKind::ClassSet,
            title,
            visible: true,
            tree,
            scenes,
            auto_open: Vec::new(),
        })
    }

    // -- instance window ----------------------------------------------------

    /// Build the Instance window for one instance, honouring a
    /// [`Customization::InstanceWindow`] payload when present. Needs a
    /// pinned database snapshot (not just the catalog) because `from`
    /// clauses may call schema methods that navigate references.
    pub fn instance_window(
        &self,
        snap: &DbSnapshot,
        inst: &Instance,
        cust: Option<&Customization>,
    ) -> Result<BuiltWindow, BuildError> {
        let _span = obs::span("builder.instance_window");
        if let Err(e) = Self::build_failpoint(cust.is_some()) {
            return self.count(Err(e));
        }
        self.count(self.instance_window_inner(snap, inst, cust))
    }

    fn instance_window_inner(
        &self,
        snap: &DbSnapshot,
        inst: &Instance,
        cust: Option<&Customization>,
    ) -> Result<BuiltWindow, BuildError> {
        let schema = snap
            .locate(inst.oid)
            .map(|(s, _)| s.to_string())
            .or_else(|| {
                snap.schemas()
                    .into_iter()
                    .find(|s| s.find_class(&inst.class).is_some())
                    .map(|s| s.name)
            })
            .ok_or_else(|| GeoDbError::UnknownClass(inst.class.clone()))?;
        let attrs = snap.catalog().effective_attrs(&schema, &inst.class)?;
        let clauses: &[AttrClause] = match cust {
            Some(Customization::InstanceWindow { attrs, .. }) => attrs,
            _ => &[],
        };

        let title = format!("Instance: {} {}", inst.class, inst.oid);
        let mut tree = WidgetTree::new(&self.library, "Window", "instance_window")?;
        tree.get_mut(tree.root())?.set_prop("title", title.clone());
        let body = tree.add(&self.library, tree.root(), "Panel", "body")?;

        for attr in &attrs {
            let clause = clauses.iter().find(|c| c.attribute == attr.name);
            let widget_class = match clause.map(|c| &c.display) {
                Some(AttrDisplay::Null) => continue,
                Some(AttrDisplay::Widget(w)) => {
                    if !self.library.contains(w) {
                        return Err(BuildError::UnknownWidget(w.clone()));
                    }
                    w.as_str()
                }
                _ => "Text",
            };
            let value = match clause {
                Some(c) => clause_value(snap, inst, c)?,
                None => inst.get(&attr.name).display_text(),
            };
            let row = tree.add(&self.library, body, widget_class, &attr.name)?;
            let w = tree.get_mut(row)?;
            w.set_prop("label", attr.name.clone());
            w.set_prop("value", value);
            if let Some(using) = clause.and_then(|c| c.using.clone()) {
                w.on("changed", using);
            }
        }

        Ok(BuiltWindow {
            kind: WindowKind::Instance,
            title,
            visible: true,
            tree,
            scenes: SceneMap::new(),
            auto_open: Vec::new(),
        })
    }

    /// Shared post-build accounting: windows built, widgets
    /// instantiated, failures.
    fn count(&self, r: Result<BuiltWindow, BuildError>) -> Result<BuiltWindow, BuildError> {
        match &r {
            Ok(w) => {
                obs::counter_add("builder.windows_built", 1);
                obs::counter_add("builder.widgets_instantiated", w.tree.len() as u64);
            }
            Err(_) => obs::counter_add("builder.build_failures", 1),
        }
        r
    }
}

/// Class names indented by inheritance depth, children after parents.
fn hierarchy_items(schema: &SchemaDef) -> Vec<String> {
    fn rec(schema: &SchemaDef, parent: Option<&str>, depth: usize, out: &mut Vec<String>) {
        for c in &schema.classes {
            if c.parent.as_deref() == parent {
                out.push(format!("{}{}", "  ".repeat(depth), c.name));
                rec(schema, Some(&c.name), depth + 1, out);
            }
        }
    }
    let mut out = Vec::new();
    rec(schema, None, 0, &mut out);
    out
}

/// Resolve an attribute clause's displayed value: `from` sources joined
/// with " / " (paths read through the instance; method calls run against
/// the pinned snapshot), falling back to the raw attribute value.
fn clause_value(
    snap: &DbSnapshot,
    inst: &Instance,
    clause: &AttrClause,
) -> Result<String, BuildError> {
    if clause.from.is_empty() {
        return Ok(inst.get(&clause.attribute).display_text());
    }
    let mut parts = Vec::with_capacity(clause.from.len());
    for src in &clause.from {
        match src {
            Source::Path(p) => parts.push(inst.get_path(p).display_text()),
            Source::MethodCall { method, args } => {
                let argv: Vec<Value> = args.iter().map(|a| inst.get_path(a).clone()).collect();
                parts.push(snap.call_method(inst, method, &argv)?.display_text());
            }
        }
    }
    Ok(parts.join(" / "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use custlang::{compile, parse};
    use geodb::gen::{phone_net_db, TelecomConfig};

    fn db() -> geodb::Database {
        let (db, _) = phone_net_db(&TelecomConfig::small()).expect("demo db builds");
        db
    }

    fn snap() -> Arc<DbSnapshot> {
        geodb::DbStore::new(db()).snapshot()
    }

    fn fig6_customizations() -> Vec<Customization> {
        let prog = parse(custlang::FIG6_PROGRAM).unwrap();
        compile(&prog, "fig6")
            .into_iter()
            .map(|r| match &*r.action {
                active::Action::Customize(c) => c.clone(),
                _ => panic!("fig6 compiles to customizations"),
            })
            .collect()
    }

    #[test]
    fn default_schema_window_lists_classes_in_order() {
        let mut db = db();
        let schema = db.get_schema("phone_net").unwrap();
        let b = InterfaceBuilder::with_paper_library();
        let w = b.schema_window(&schema, db.catalog(), None).unwrap();
        assert_eq!(w.kind, WindowKind::Schema);
        assert!(w.visible);
        let art = w.to_ascii();
        let (s, p) = (art.find("Supplier").unwrap(), art.find("Pole").unwrap());
        let (d, t) = (art.find("Duct").unwrap(), art.find("District").unwrap());
        assert!(s < p && p < d && d < t, "declaration order preserved");
    }

    #[test]
    fn null_mode_hides_schema_window_and_forwards_classes() {
        let mut db = db();
        let schema = db.get_schema("phone_net").unwrap();
        let b = InterfaceBuilder::with_paper_library();
        let cust = Customization::SchemaWindow {
            schema: "phone_net".into(),
            mode: SchemaMode::Null,
            classes: vec!["Pole".into()],
        };
        let w = b.schema_window(&schema, db.catalog(), Some(&cust)).unwrap();
        assert!(!w.visible);
        assert_eq!(w.to_ascii(), "");
        assert!(w.to_svg().starts_with("<svg"));
        assert_eq!(w.auto_open, vec!["Pole".to_string()]);
    }

    #[test]
    fn default_class_window_has_buttons_and_map() {
        let poles = snap().get_class("phone_net", "Pole", false).unwrap();
        let b = InterfaceBuilder::with_paper_library();
        let w = b.class_window("phone_net", "Pole", &poles, None).unwrap();
        let art = w.to_ascii();
        assert!(art.contains("Class: Pole"));
        assert!(
            art.contains("[ Zoom ]") && art.contains("[ Select ]") && art.contains("[ Close ]")
        );
        assert!(art.contains(&format!("instances: {}", poles.len())));
        assert!(art.contains('.'), "default point symbol");
        w.tree.find("class_window/body/control/ids").unwrap();
        w.tree.find("class_window/body/presentation/map").unwrap();
    }

    #[test]
    fn fig6_class_window_swaps_control_and_point_symbols() {
        let poles = snap().get_class("phone_net", "Pole", false).unwrap();
        let b = InterfaceBuilder::with_paper_library();
        let cust = fig6_customizations()
            .into_iter()
            .find(|c| matches!(c, Customization::ClassWindow { .. }))
            .unwrap();
        let w = b
            .class_window("phone_net", "Pole", &poles, Some(&cust))
            .unwrap();
        let art = w.to_ascii();
        assert!(art.contains("O="), "slider control renders");
        assert!(!art.contains("[ Zoom ]"));
        assert!(art.contains('o'), "pointFormat symbol");
    }

    #[test]
    fn fig6_instance_window_applies_attr_clauses() {
        let snap = snap();
        let poles = snap.get_class("phone_net", "Pole", false).unwrap();
        let b = InterfaceBuilder::with_paper_library();
        let cust = fig6_customizations()
            .into_iter()
            .find(|c| matches!(c, Customization::InstanceWindow { .. }))
            .unwrap();
        let w = b.instance_window(&snap, &poles[0], Some(&cust)).unwrap();
        let art = w.to_ascii();
        assert!(
            !art.contains("pole_location"),
            "Null display hides the attribute"
        );
        assert!(
            art.contains("pole_supplier: Supplier-"),
            "method call resolves"
        );
        let comp_row = art
            .lines()
            .find(|l| l.contains("pole_composition"))
            .unwrap();
        assert_eq!(
            comp_row.matches(" / ").count(),
            2,
            "three tuple fields joined"
        );
    }

    #[test]
    fn table_format_replaces_the_map() {
        let poles = snap().get_class("phone_net", "Pole", false).unwrap();
        let b = InterfaceBuilder::with_paper_library();
        let cust = Customization::ClassWindow {
            schema: "phone_net".into(),
            class: "Pole".into(),
            control: None,
            presentation: Some("tableFormat".into()),
        };
        let w = b
            .class_window("phone_net", "Pole", &poles, Some(&cust))
            .unwrap();
        assert!(w.tree.find("class_window/body/presentation/map").is_err());
        w.tree.find("class_window/body/presentation/table").unwrap();
        assert!(w.to_ascii().contains("Class: Pole"));
    }

    #[test]
    fn fingerprints_distinguish_windows_and_stay_deterministic() {
        let snap = snap();
        let b = InterfaceBuilder::with_paper_library();
        let mut prints = std::collections::HashSet::new();
        for class in ["Supplier", "Pole", "Duct", "District"] {
            let insts = snap.get_class("phone_net", class, false).unwrap();
            let w = b.class_window("phone_net", class, &insts, None).unwrap();
            assert!(w.widget_count() > 3);
            prints.insert(w.fingerprint());
        }
        assert_eq!(prints.len(), 4);

        let poles = snap.get_class("phone_net", "Pole", false).unwrap();
        let a = b.class_window("phone_net", "Pole", &poles, None).unwrap();
        let c = b.class_window("phone_net", "Pole", &poles, None).unwrap();
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn unknown_control_widget_is_a_build_error() {
        let poles = snap().get_class("phone_net", "Pole", false).unwrap();
        let b = InterfaceBuilder::with_paper_library();
        let cust = Customization::ClassWindow {
            schema: "phone_net".into(),
            class: "Pole".into(),
            control: Some("no_such_widget".into()),
            presentation: None,
        };
        let err = b
            .class_window("phone_net", "Pole", &poles, Some(&cust))
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::UnknownWidget(_) | BuildError::Tree(_)
        ));
    }
}
