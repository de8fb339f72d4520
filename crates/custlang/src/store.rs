//! Customization programs stored *in* the geographic database.
//!
//! "Customization rules stored in the database are derived from
//! assertives written in this language" — the durable artifact is the
//! program source; rules are recompiled from it at load time (rule
//! actions reference native interface code, so source is the right
//! persistence boundary, exactly as with schema methods).

use std::borrow::Borrow;

use geodb::db::Database;
use geodb::error::{GeoDbError, Result};
use geodb::schema::{ClassDef, SchemaDef};
use geodb::store::DbSnapshot;
use geodb::value::{AttrType, Value};
use geodb::Instance;

/// Schema holding stored customization programs.
pub const RULES_SCHEMA: &str = "ui_rules";
const CLASS: &str = "CustomizationProgram";

/// The catalog schema for stored programs.
pub fn rules_schema() -> SchemaDef {
    SchemaDef::new(RULES_SCHEMA).class(
        ClassDef::new(CLASS)
            .attr("name", AttrType::Text)
            .attr("source", AttrType::Text)
            .doc("A declarative customization program (compiles to E-C-A rules)"),
    )
}

fn ensure_schema(db: &mut Database) -> Result<()> {
    if db.catalog().schema(RULES_SCHEMA).is_err() {
        db.register_schema(rules_schema())?;
    }
    Ok(())
}

/// Store (or replace) a named program's source. The caller is expected to
/// have validated it (parse + analyze) first.
pub fn save_program(db: &mut Database, name: &str, source: &str) -> Result<()> {
    ensure_schema(db)?;
    // Replace an existing program of the same name.
    let existing = db.get_class(RULES_SCHEMA, CLASS, false)?;
    for inst in existing {
        if inst.get("name") == &Value::Text(name.to_string()) {
            db.delete(inst.oid)?;
        }
    }
    db.insert(
        RULES_SCHEMA,
        CLASS,
        vec![
            ("name".into(), name.into()),
            ("source".into(), source.into()),
        ],
    )?;
    db.drain_events();
    Ok(())
}

fn program_pairs<R: Borrow<Instance>>(rows: &[R]) -> Result<Vec<(String, String)>> {
    let mut out: Vec<(String, String)> = rows
        .iter()
        .map(|inst| {
            let inst = inst.borrow();
            let name = match inst.get("name") {
                Value::Text(s) => s.clone(),
                other => {
                    return Err(GeoDbError::Snapshot(format!(
                        "stored program has non-text name: {other:?}"
                    )))
                }
            };
            let source = match inst.get("source") {
                Value::Text(s) => s.clone(),
                _ => String::new(),
            };
            Ok((name, source))
        })
        .collect::<Result<_>>()?;
    out.sort();
    Ok(out)
}

/// All stored programs as `(name, source)` pairs, name order.
pub fn load_programs(db: &mut Database) -> Result<Vec<(String, String)>> {
    if db.catalog().schema(RULES_SCHEMA).is_err() {
        return Ok(Vec::new());
    }
    let rows = db.get_class(RULES_SCHEMA, CLASS, false)?;
    db.drain_events();
    program_pairs(&rows)
}

/// All stored programs from a pinned snapshot — the lock-free read-path
/// twin of [`load_programs`].
pub fn load_programs_snap(snap: &DbSnapshot) -> Result<Vec<(String, String)>> {
    if snap.catalog().schema(RULES_SCHEMA).is_err() {
        return Ok(Vec::new());
    }
    program_pairs(&snap.get_class(RULES_SCHEMA, CLASS, false)?)
}

/// Delete a stored program; returns whether it existed.
pub fn delete_program(db: &mut Database, name: &str) -> Result<bool> {
    if db.catalog().schema(RULES_SCHEMA).is_err() {
        return Ok(false);
    }
    let existing = db.get_class(RULES_SCHEMA, CLASS, false)?;
    let mut found = false;
    for inst in existing {
        if inst.get("name") == &Value::Text(name.to_string()) {
            db.delete(inst.oid)?;
            found = true;
        }
    }
    db.drain_events();
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::FIG6_PROGRAM;

    #[test]
    fn save_load_round_trip() {
        let mut db = Database::new("GEO");
        save_program(&mut db, "fig6", FIG6_PROGRAM).unwrap();
        save_program(
            &mut db,
            "other",
            "for user u schema s display as default class C display",
        )
        .unwrap();
        let progs = load_programs(&mut db).unwrap();
        assert_eq!(progs.len(), 2);
        assert_eq!(progs[0].0, "fig6");
        assert_eq!(progs[0].1, FIG6_PROGRAM);
        // Stored source still parses.
        assert!(crate::parse(&progs[0].1).is_ok());
    }

    #[test]
    fn save_replaces_same_name() {
        let mut db = Database::new("GEO");
        save_program(
            &mut db,
            "p",
            "for user a schema s display as default class C display",
        )
        .unwrap();
        save_program(
            &mut db,
            "p",
            "for user b schema s display as default class C display",
        )
        .unwrap();
        let progs = load_programs(&mut db).unwrap();
        assert_eq!(progs.len(), 1);
        assert!(progs[0].1.contains("user b"));
    }

    #[test]
    fn delete_program_works() {
        let mut db = Database::new("GEO");
        assert!(!delete_program(&mut db, "ghost").unwrap());
        save_program(&mut db, "p", "x").unwrap();
        assert!(delete_program(&mut db, "p").unwrap());
        assert!(load_programs(&mut db).unwrap().is_empty());
    }

    #[test]
    fn empty_database_loads_nothing() {
        let mut db = Database::new("GEO");
        assert!(load_programs(&mut db).unwrap().is_empty());
    }

    #[test]
    fn snapshot_load_matches_database_load() {
        let mut db = Database::new("GEO");
        save_program(&mut db, "fig6", FIG6_PROGRAM).unwrap();
        save_program(
            &mut db,
            "z",
            "for user u schema s display as default class C display",
        )
        .unwrap();
        let via_db = load_programs(&mut db).unwrap();
        let store = geodb::DbStore::new(db);
        let via_snap = load_programs_snap(&store.snapshot()).unwrap();
        assert_eq!(via_db, via_snap);

        let empty = geodb::DbStore::new(Database::new("GEO"));
        assert!(load_programs_snap(&empty.snapshot()).unwrap().is_empty());
    }
}
