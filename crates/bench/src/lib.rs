//! Shared fixtures for the benchmark suite.
//!
//! Each bench target under `benches/` reproduces one experiment from the
//! DESIGN.md index (F1–F7 figures, C1–C4 claims). Helpers here build the
//! standard workloads so all benches measure against the same data.

use std::path::{Path, PathBuf};

use activegis::{ActiveGis, TelecomConfig, FIG6_PROGRAM};
use geodb::db::Database;
use geodb::gen::phone_net_db;

/// Write a bench result file (`BENCH_*.json`) and return its path. Runs
/// write to `target/bench/<file>`, so smoke runs leave the committed
/// results alone; with `BENCH_RECORD=1` the committed copy at the
/// repository root is re-recorded instead.
pub fn write_result(file: &str, json: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if std::env::var("BENCH_RECORD").is_ok_and(|v| v == "1") {
        root
    } else {
        root.join("target/bench")
    };
    std::fs::create_dir_all(&dir).expect("bench result directory is writable");
    let path = dir.join(file);
    std::fs::write(&path, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("{} is not writable: {e}", path.display()));
    path
}

/// The paper's demo system with the Fig. 6 program installed.
pub fn customized_gis(cfg: &TelecomConfig) -> ActiveGis {
    let mut gis = ActiveGis::phone_net_demo(cfg).expect("demo builds");
    gis.customize(FIG6_PROGRAM, "fig6").expect("fig6 installs");
    gis
}

/// The paper's demo system with no customization installed.
pub fn generic_gis(cfg: &TelecomConfig) -> ActiveGis {
    ActiveGis::phone_net_demo(cfg).expect("demo builds")
}

/// A phone-net database scaled to roughly `n` poles.
pub fn db_with_poles(n: usize) -> Database {
    let (db, _) = phone_net_db(&TelecomConfig::with_poles(n)).expect("db builds");
    db
}

/// A synthetic customization program with `n` directives across distinct
/// user contexts (for the language and rule-selection benches).
pub fn synthetic_program(n: usize) -> String {
    let mut out = String::with_capacity(n * 200);
    for i in 0..n {
        let fmt = ["pointFormat", "symbolFormat", "tableFormat", "default"][i % 4];
        out.push_str(&format!(
            "for user user{i} application pole_manager\n\
             schema phone_net display as default\n\
             class Pole display presentation as {fmt}\n\
             instances display attribute pole_location as Null\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let _ = customized_gis(&TelecomConfig::small());
        let _ = generic_gis(&TelecomConfig::small());
        let db = db_with_poles(200);
        assert!(db.extent_size("phone_net", "Pole") >= 200);
        let prog = synthetic_program(5);
        assert_eq!(custlang::parse(&prog).unwrap().directives.len(), 5);
    }
}
