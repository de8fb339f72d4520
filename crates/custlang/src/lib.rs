//! # custlang — the customization language
//!
//! "The customization language is the means for specifying customization
//! rules in a declarative way. A customization directive defined in this
//! language may spawn several customization rules." This crate implements
//! the full pipeline the paper describes (and, for the compiler, lists as
//! future work):
//!
//! 1. [`lexer`] / [`parser`] — the Fig. 3 grammar, with line-numbered
//!    errors;
//! 2. [`analyze`](mod@analyze) — semantic checks against the database catalog and the
//!    interface-objects library ("the target user … has knowledge about
//!    the database schema", and the analyzer keeps them honest);
//! 3. [`compile`](mod@compile) — directives → E-C-A rules, one rule per
//!    `Get_Schema` / `Get_Class` / `Get_Value` window level;
//! 4. [`pretty`](mod@pretty) — canonical formatting (round-trip safe).
//!
//! The verbatim Fig. 6 program ships as [`parser::FIG6_PROGRAM`].
//!
//! ```
//! use custlang::{compile, parse};
//!
//! let program = parse(custlang::FIG6_PROGRAM).unwrap();
//! let rules = compile(&program, "fig6");
//! assert_eq!(rules.len(), 3); // R1 (schema), R2 (class), R3 (instances)
//! ```

pub mod analyze;
pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod store;

pub use analyze::{analyze, is_clean, AnalysisEnv, Diagnostic, Severity, BUILTIN_FORMATS};
pub use ast::{
    AttrClause, AttrDisplay, ClassClause, ContextClause, Directive, Program, SchemaClause,
    SchemaMode, Source,
};
pub use compile::{compile, Customization};
pub use parser::{parse, ParseError, FIG6_PROGRAM};
pub use pretty::pretty;
pub use store::{delete_program, load_programs, load_programs_snap, save_program, RULES_SCHEMA};
