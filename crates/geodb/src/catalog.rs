//! The metadata catalog: registered schemas, inheritance resolution and
//! instance validation.
//!
//! The paper's exploratory interaction mode "allows users to navigate on
//! schema and extension … mainly through (database) metadata querying";
//! this module is what those `Get_Schema` queries read.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{GeoDbError, Result};
use crate::instance::Instance;
use crate::schema::{AttrDef, ClassDef, MethodDef, SchemaDef};
use crate::value::AttrType;

/// Catalog of all schemas known to a database.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Catalog {
    schemas: Vec<SchemaDef>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a schema after validating it (unique names, parents exist,
    /// no inheritance cycles, reference targets exist).
    pub fn register(&mut self, schema: SchemaDef) -> Result<()> {
        if self.schemas.iter().any(|s| s.name == schema.name) {
            return Err(GeoDbError::Duplicate(schema.name));
        }
        Self::validate_schema(&schema)?;
        self.schemas.push(schema);
        Ok(())
    }

    fn validate_schema(schema: &SchemaDef) -> Result<()> {
        let mut seen = HashMap::new();
        for c in &schema.classes {
            if seen.insert(c.name.as_str(), ()).is_some() {
                return Err(GeoDbError::Duplicate(c.name.clone()));
            }
            let mut attr_names = HashMap::new();
            for a in &c.attrs {
                if attr_names.insert(a.name.as_str(), ()).is_some() {
                    return Err(GeoDbError::Duplicate(format!("{}.{}", c.name, a.name)));
                }
            }
        }
        for c in &schema.classes {
            if let Some(p) = &c.parent {
                if schema.find_class(p).is_none() {
                    return Err(GeoDbError::UnknownClass(p.clone()));
                }
            }
            for a in &c.attrs {
                Self::validate_type(schema, &c.name, &a.name, &a.ty)?;
            }
        }
        // Cycle detection over the parent relation.
        for c in &schema.classes {
            let mut slow = c;
            let mut steps = 0;
            let mut cur = c;
            while let Some(p) = &cur.parent {
                cur = schema
                    .find_class(p)
                    .ok_or_else(|| GeoDbError::UnknownClass(p.clone()))?;
                steps += 1;
                if steps % 2 == 0 {
                    slow = schema
                        .find_class(slow.parent.as_ref().expect("walked"))
                        .expect("validated");
                }
                if std::ptr::eq(slow, cur) && steps > 1 {
                    return Err(GeoDbError::InheritanceCycle(c.name.clone()));
                }
                if steps > schema.classes.len() {
                    return Err(GeoDbError::InheritanceCycle(c.name.clone()));
                }
            }
        }
        Ok(())
    }

    fn validate_type(schema: &SchemaDef, class: &str, attr: &str, ty: &AttrType) -> Result<()> {
        match ty {
            AttrType::Ref(target) if schema.find_class(target).is_none() => {
                return Err(GeoDbError::TypeMismatch {
                    class: class.into(),
                    attribute: attr.into(),
                    expected: "reference to an existing class".into(),
                    got: format!("unknown class `{target}`"),
                });
            }
            AttrType::Tuple(fields) => {
                for (fname, fty) in fields {
                    Self::validate_type(schema, class, &format!("{attr}.{fname}"), fty)?;
                }
            }
            AttrType::List(elem) => Self::validate_type(schema, class, attr, elem)?,
            _ => {}
        }
        Ok(())
    }

    pub fn schema(&self, name: &str) -> Result<&SchemaDef> {
        self.schemas
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| GeoDbError::UnknownSchema(name.to_string()))
    }

    pub fn schema_names(&self) -> Vec<&str> {
        self.schemas.iter().map(|s| s.name.as_str()).collect()
    }

    pub fn class(&self, schema: &str, class: &str) -> Result<&ClassDef> {
        self.schema(schema)?
            .find_class(class)
            .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))
    }

    /// All attributes of a class including inherited ones, parents first
    /// (the order in which the generic Instance window lays out panels).
    pub fn effective_attrs(&self, schema: &str, class: &str) -> Result<Vec<AttrDef>> {
        Ok(self
            .effective_attr_refs(schema, class)?
            .into_iter()
            .cloned()
            .collect())
    }

    /// [`Catalog::effective_attrs`] without copying the definitions.
    fn effective_attr_refs(&self, schema: &str, class: &str) -> Result<Vec<&AttrDef>> {
        let chain = self.inheritance_chain(schema, class)?;
        let mut out: Vec<&AttrDef> = Vec::new();
        for c in chain.iter().rev() {
            for a in &c.attrs {
                // A subclass redeclaration overrides the inherited attribute.
                if let Some(slot) = out.iter_mut().find(|e| e.name == a.name) {
                    *slot = a;
                } else {
                    out.push(a);
                }
            }
        }
        Ok(out)
    }

    /// All methods of a class including inherited ones, override-aware.
    pub fn effective_methods(&self, schema: &str, class: &str) -> Result<Vec<MethodDef>> {
        let chain = self.inheritance_chain(schema, class)?;
        let mut out: Vec<MethodDef> = Vec::new();
        for c in chain.iter().rev() {
            for m in &c.methods {
                if let Some(slot) = out.iter_mut().find(|e| e.name == m.name) {
                    *slot = m.clone();
                } else {
                    out.push(m.clone());
                }
            }
        }
        Ok(out)
    }

    /// The class and its ancestors, most-derived first.
    pub fn inheritance_chain(&self, schema: &str, class: &str) -> Result<Vec<&ClassDef>> {
        let s = self.schema(schema)?;
        let mut chain = Vec::new();
        let mut cur = s
            .find_class(class)
            .ok_or_else(|| GeoDbError::UnknownClass(class.to_string()))?;
        chain.push(cur);
        while let Some(p) = &cur.parent {
            cur = s
                .find_class(p)
                .ok_or_else(|| GeoDbError::UnknownClass(p.clone()))?;
            chain.push(cur);
            if chain.len() > s.classes.len() {
                return Err(GeoDbError::InheritanceCycle(class.to_string()));
            }
        }
        Ok(chain)
    }

    /// Direct subclasses of a class.
    pub fn subclasses(&self, schema: &str, class: &str) -> Result<Vec<&ClassDef>> {
        let s = self.schema(schema)?;
        Ok(s.classes
            .iter()
            .filter(|c| c.parent.as_deref() == Some(class))
            .collect())
    }

    /// True when `class` is `ancestor` or inherits from it.
    pub fn is_subclass_of(&self, schema: &str, class: &str, ancestor: &str) -> Result<bool> {
        Ok(self
            .inheritance_chain(schema, class)?
            .iter()
            .any(|c| c.name == ancestor))
    }

    /// Validate an instance against its class definition: all values must
    /// type-check, floats and coordinates must be finite (a JSON
    /// checkpoint could not hold them otherwise), and non-optional
    /// attributes must be present and non-null.
    pub fn validate_instance(&self, schema: &str, inst: &Instance) -> Result<()> {
        let attrs = self.effective_attr_refs(schema, &inst.class)?;
        for a in &attrs {
            let v = inst.values.get(&a.name);
            match v {
                None | Some(crate::value::Value::Null) => {
                    if !a.optional {
                        return Err(GeoDbError::MissingAttribute {
                            class: inst.class.clone(),
                            attribute: a.name.clone(),
                        });
                    }
                }
                Some(v) => {
                    if !v.matches(&a.ty) {
                        return Err(GeoDbError::TypeMismatch {
                            class: inst.class.clone(),
                            attribute: a.name.clone(),
                            expected: a.ty.name(),
                            got: v.type_name(),
                        });
                    }
                    if !v.is_finite() {
                        return Err(GeoDbError::TypeMismatch {
                            class: inst.class.clone(),
                            attribute: a.name.clone(),
                            expected: format!("finite {}", a.ty.name()),
                            got: format!("non-finite {}", v.type_name()),
                        });
                    }
                }
            }
        }
        for name in inst.values.keys() {
            if !attrs.iter().any(|a| &a.name == name) {
                return Err(GeoDbError::UnknownAttribute {
                    class: inst.class.clone(),
                    attribute: name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, Oid};
    use crate::value::Value;

    fn catalog() -> Catalog {
        let schema = SchemaDef::new("net")
            .class(
                ClassDef::new("Element")
                    .attr("element_id", AttrType::Int)
                    .optional_attr("label", AttrType::Text)
                    .method(MethodDef::new("describe", vec![], AttrType::Text)),
            )
            .class(
                ClassDef::new("Pole")
                    .extends("Element")
                    .attr("pole_location", AttrType::Geometry)
                    .method(MethodDef::new("describe", vec![], AttrType::Text)),
            )
            .class(ClassDef::new("Duct").extends("Element"));
        let mut cat = Catalog::new();
        cat.register(schema).unwrap();
        cat
    }

    #[test]
    fn register_rejects_duplicates() {
        let mut cat = catalog();
        assert!(matches!(
            cat.register(SchemaDef::new("net")),
            Err(GeoDbError::Duplicate(_))
        ));
        let dup_class = SchemaDef::new("s2")
            .class(ClassDef::new("A"))
            .class(ClassDef::new("A"));
        assert!(cat.register(dup_class).is_err());
    }

    #[test]
    fn register_rejects_unknown_parent_and_ref() {
        let mut cat = Catalog::new();
        let bad_parent = SchemaDef::new("s").class(ClassDef::new("A").extends("Ghost"));
        assert!(matches!(
            cat.register(bad_parent),
            Err(GeoDbError::UnknownClass(_))
        ));
        let bad_ref =
            SchemaDef::new("s").class(ClassDef::new("A").attr("r", AttrType::Ref("Ghost".into())));
        assert!(cat.register(bad_ref).is_err());
    }

    #[test]
    fn register_rejects_inheritance_cycles() {
        let mut cat = Catalog::new();
        let cyc = SchemaDef::new("s")
            .class(ClassDef::new("A").extends("B"))
            .class(ClassDef::new("B").extends("A"));
        assert!(matches!(
            cat.register(cyc),
            Err(GeoDbError::InheritanceCycle(_))
        ));
    }

    #[test]
    fn effective_attrs_inherit_parent_first() {
        let cat = catalog();
        let attrs = cat.effective_attrs("net", "Pole").unwrap();
        let names: Vec<_> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["element_id", "label", "pole_location"]);
    }

    #[test]
    fn effective_methods_respect_override() {
        let cat = catalog();
        let methods = cat.effective_methods("net", "Pole").unwrap();
        assert_eq!(methods.len(), 1);
        assert_eq!(methods[0].name, "describe");
    }

    #[test]
    fn chain_and_subclass_queries() {
        let cat = catalog();
        let chain = cat.inheritance_chain("net", "Pole").unwrap();
        let names: Vec<_> = chain.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["Pole", "Element"]);

        let subs = cat.subclasses("net", "Element").unwrap();
        let names: Vec<_> = subs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["Pole", "Duct"]);

        assert!(cat.is_subclass_of("net", "Pole", "Element").unwrap());
        assert!(!cat.is_subclass_of("net", "Element", "Pole").unwrap());
    }

    #[test]
    fn validate_instance_enforces_required_and_types() {
        let cat = catalog();
        use crate::geometry::{Geometry, Point};
        let ok = Instance::new(Oid(1), "Pole")
            .with("element_id", 7i64)
            .with("pole_location", Geometry::Point(Point::ORIGIN));
        cat.validate_instance("net", &ok).unwrap();

        let missing = Instance::new(Oid(2), "Pole").with("element_id", 7i64);
        assert!(matches!(
            cat.validate_instance("net", &missing),
            Err(GeoDbError::MissingAttribute { .. })
        ));

        let wrong_type = Instance::new(Oid(3), "Pole")
            .with("element_id", "seven")
            .with("pole_location", Geometry::Point(Point::ORIGIN));
        assert!(matches!(
            cat.validate_instance("net", &wrong_type),
            Err(GeoDbError::TypeMismatch { .. })
        ));

        let stray = Instance::new(Oid(4), "Pole")
            .with("element_id", 7i64)
            .with("pole_location", Geometry::Point(Point::ORIGIN))
            .with("bogus", 1i64);
        assert!(matches!(
            cat.validate_instance("net", &stray),
            Err(GeoDbError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn validate_instance_refuses_non_finite_values() {
        let cat = catalog();
        use crate::geometry::{Geometry, Point};
        for bad in [
            Point::new(f64::NAN, 0.0),
            Point::new(0.0, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, 1.0),
        ] {
            let inst = Instance::new(Oid(6), "Pole")
                .with("element_id", 1i64)
                .with("pole_location", Geometry::Point(bad));
            let err = cat.validate_instance("net", &inst).unwrap_err();
            assert!(
                err.to_string().contains("non-finite Geometry"),
                "{bad:?}: {err}"
            );
        }
        let nested = Value::List(vec![Value::Tuple(vec![(
            "x".into(),
            Value::Float(f64::NAN),
        )])]);
        assert!(!nested.is_finite());
        assert!(Value::List(vec![Value::Float(1.5)]).is_finite());
    }

    #[test]
    fn optional_attr_may_be_null_or_absent() {
        let cat = catalog();
        use crate::geometry::{Geometry, Point};
        let with_null = Instance::new(Oid(5), "Pole")
            .with("element_id", 1i64)
            .with("label", Value::Null)
            .with("pole_location", Geometry::Point(Point::ORIGIN));
        cat.validate_instance("net", &with_null).unwrap();
    }
}
