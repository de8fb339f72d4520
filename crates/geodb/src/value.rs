//! Attribute types and runtime values of the object-oriented data model.
//!
//! The type system mirrors the paper's `Pole` example (Fig. 5): integers,
//! floats, text, tuples, references to other classes, geometry and bitmap
//! attributes.

use serde::{Deserialize, Serialize};

use crate::geometry::{Geometry, GeometryKind};
use crate::instance::Oid;

/// Declared type of a class attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrType {
    Int,
    Float,
    Text,
    Bool,
    /// Nested record of named fields, e.g. `pole_composition: tuple(...)`.
    Tuple(Vec<(String, AttrType)>),
    /// Reference to an instance of the named class, e.g. `pole_supplier: Supplier`.
    Ref(String),
    /// Spatial attribute, e.g. `pole_location: Geometry`.
    Geometry,
    /// Raster attribute, e.g. `pole_picture: bitmap`.
    Bitmap,
    /// Homogeneous collection.
    List(Box<AttrType>),
}

impl AttrType {
    /// Human-readable name, used in error messages and the Schema window.
    pub fn name(&self) -> String {
        match self {
            AttrType::Int => "int".into(),
            AttrType::Float => "float".into(),
            AttrType::Text => "text".into(),
            AttrType::Bool => "bool".into(),
            AttrType::Tuple(fields) => {
                let inner = fields
                    .iter()
                    .map(|(n, t)| format!("{n}: {}", t.name()))
                    .collect::<Vec<_>>()
                    .join("; ");
                format!("tuple({inner})")
            }
            AttrType::Ref(c) => c.clone(),
            AttrType::Geometry => "Geometry".into(),
            AttrType::Bitmap => "bitmap".into(),
            AttrType::List(t) => format!("list({})", t.name()),
        }
    }
}

/// A runtime value stored in an instance attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
    /// Field values in declaration order of the tuple type.
    Tuple(Vec<(String, Value)>),
    Ref(Oid),
    Geometry(Geometry),
    /// Raw raster bytes (kept opaque; renderers show a placeholder).
    Bitmap(Vec<u8>),
    List(Vec<Value>),
}

impl Value {
    /// Short tag naming the value's runtime type.
    pub fn type_name(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Int(_) => "int".into(),
            Value::Float(_) => "float".into(),
            Value::Text(_) => "text".into(),
            Value::Bool(_) => "bool".into(),
            Value::Tuple(_) => "tuple".into(),
            Value::Ref(_) => "ref".into(),
            Value::Geometry(_) => "Geometry".into(),
            Value::Bitmap(_) => "bitmap".into(),
            Value::List(_) => "list".into(),
        }
    }

    /// Structural type check against a declared attribute type.
    ///
    /// `Null` matches every type; optionality is enforced separately at
    /// insert time. Ints are *not* coerced to floats — the catalog insists
    /// on exact kinds so presentation rules can rely on them.
    pub fn matches(&self, ty: &AttrType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), AttrType::Int) => true,
            (Value::Float(_), AttrType::Float) => true,
            (Value::Text(_), AttrType::Text) => true,
            (Value::Bool(_), AttrType::Bool) => true,
            (Value::Ref(_), AttrType::Ref(_)) => true,
            (Value::Geometry(_), AttrType::Geometry) => true,
            (Value::Bitmap(_), AttrType::Bitmap) => true,
            (Value::Tuple(vals), AttrType::Tuple(fields)) => {
                vals.len() == fields.len()
                    && vals
                        .iter()
                        .zip(fields)
                        .all(|((vn, v), (fn_, ft))| vn == fn_ && v.matches(ft))
            }
            (Value::List(items), AttrType::List(elem)) => items.iter().all(|v| v.matches(elem)),
            _ => false,
        }
    }

    /// True when every float inside the value — scalars, tuple fields,
    /// list items and geometry coordinates — is finite. Checkpoints and
    /// snapshots are JSON, which cannot represent NaN or infinity.
    pub fn is_finite(&self) -> bool {
        match self {
            Value::Float(x) => x.is_finite(),
            Value::Geometry(g) => g.is_finite(),
            Value::Tuple(fields) => fields.iter().all(|(_, v)| v.is_finite()),
            Value::List(items) => items.iter().all(Value::is_finite),
            _ => true,
        }
    }

    /// Geometry payload if this is a spatial value.
    pub fn as_geometry(&self) -> Option<&Geometry> {
        match self {
            Value::Geometry(g) => Some(g),
            _ => None,
        }
    }

    /// Geometry kind if spatial.
    pub fn geometry_kind(&self) -> Option<GeometryKind> {
        self.as_geometry().map(Geometry::kind)
    }

    /// Look up a field of a tuple value.
    pub fn tuple_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Tuple(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render the value for the default (generic) presentation.
    pub fn display_text(&self) -> String {
        match self {
            Value::Null => "—".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => format!("{x}"),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Tuple(fields) => fields
                .iter()
                .map(|(n, v)| format!("{n}={}", v.display_text()))
                .collect::<Vec<_>>()
                .join(", "),
            Value::Ref(oid) => format!("→#{}", oid.0),
            Value::Geometry(g) => crate::geometry::wkt::to_wkt(g),
            Value::Bitmap(b) => format!("[bitmap {} bytes]", b.len()),
            Value::List(items) => format!(
                "[{}]",
                items
                    .iter()
                    .map(Value::display_text)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }

    /// Total ordering usable for comparison predicates. Values of
    /// different kinds order by kind tag; `Null` sorts first.
    pub fn compare(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Text(_) => 4,
                Value::Tuple(_) => 5,
                Value::Ref(_) => 6,
                Value::Geometry(_) => 7,
                Value::Bitmap(_) => 8,
                Value::List(_) => 9,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            // Mixed numerics compare numerically so `height > 9` works on floats.
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Ref(a), Value::Ref(b)) => a.0.cmp(&b.0),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.compare(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Tuple(a), Value::Tuple(b)) => {
                for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
                    let o = x.compare(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Geometry> for Value {
    fn from(v: Geometry) -> Self {
        Value::Geometry(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    #[test]
    fn type_names() {
        let ty = AttrType::Tuple(vec![
            ("pole_material".into(), AttrType::Text),
            ("pole_diameter".into(), AttrType::Float),
        ]);
        assert_eq!(
            ty.name(),
            "tuple(pole_material: text; pole_diameter: float)"
        );
        assert_eq!(AttrType::Ref("Supplier".into()).name(), "Supplier");
        assert_eq!(AttrType::List(Box::new(AttrType::Int)).name(), "list(int)");
    }

    #[test]
    fn matches_exact_kinds() {
        assert!(Value::Int(3).matches(&AttrType::Int));
        assert!(!Value::Int(3).matches(&AttrType::Float));
        assert!(Value::Null.matches(&AttrType::Float));
        assert!(Value::Geometry(Geometry::Point(Point::ORIGIN)).matches(&AttrType::Geometry));
    }

    #[test]
    fn tuple_matching_checks_names_and_order() {
        let ty = AttrType::Tuple(vec![
            ("a".into(), AttrType::Int),
            ("b".into(), AttrType::Text),
        ]);
        let ok = Value::Tuple(vec![("a".into(), 1i64.into()), ("b".into(), "x".into())]);
        let wrong_name = Value::Tuple(vec![("z".into(), 1i64.into()), ("b".into(), "x".into())]);
        let wrong_arity = Value::Tuple(vec![("a".into(), 1i64.into())]);
        assert!(ok.matches(&ty));
        assert!(!wrong_name.matches(&ty));
        assert!(!wrong_arity.matches(&ty));
    }

    #[test]
    fn list_matching_is_elementwise() {
        let ty = AttrType::List(Box::new(AttrType::Int));
        assert!(Value::List(vec![1i64.into(), 2i64.into()]).matches(&ty));
        assert!(!Value::List(vec![1i64.into(), "x".into()]).matches(&ty));
        assert!(Value::List(vec![]).matches(&ty));
    }

    #[test]
    fn compare_mixed_numerics() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(2).compare(&Value::Float(2.5)), Less);
        assert_eq!(Value::Float(3.0).compare(&Value::Int(3)), Equal);
        assert_eq!(
            Value::Text("b".into()).compare(&Value::Text("a".into())),
            Greater
        );
        assert_eq!(Value::Null.compare(&Value::Int(0)), Less);
    }

    #[test]
    fn tuple_field_access() {
        let v = Value::Tuple(vec![
            ("material".into(), "wood".into()),
            ("height".into(), 9.5f64.into()),
        ]);
        assert_eq!(v.tuple_field("height"), Some(&Value::Float(9.5)));
        assert_eq!(v.tuple_field("missing"), None);
        assert_eq!(Value::Int(1).tuple_field("x"), None);
    }

    #[test]
    fn display_text_formats() {
        assert_eq!(Value::Null.display_text(), "—");
        assert_eq!(Value::Ref(Oid(42)).display_text(), "→#42");
        assert_eq!(
            Value::Bitmap(vec![0; 16]).display_text(),
            "[bitmap 16 bytes]"
        );
        let t = Value::Tuple(vec![("a".into(), 1i64.into())]);
        assert_eq!(t.display_text(), "a=1");
    }
}
