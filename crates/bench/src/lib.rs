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

/// Smallest rule population the compiled-tier gate judges: below it a
/// straight scan is cheap enough that no tier has much to win.
const GATE_MIN_RULES: u64 = 1000;

/// The cold compiled walk must beat the cold linear scan by at least
/// this factor at `GATE_MIN_RULES` and above.
const GATE_MIN_COMPILED_SPEEDUP: f64 = 2.0;

/// Smallest batch the batch-lane gate judges.
const GATE_MIN_BATCH: u64 = 16;

fn num(row: &serde_json::Value, field: &str) -> Result<f64, String> {
    row[field]
        .as_f64()
        .ok_or_else(|| format!("row without a numeric `{field}`: {row:?}"))
}

/// The compiled-tier criterion of `DISPATCH_GATE`, over the strategy
/// rows of `BENCH_dispatch.json` (`scenario`, `rules`, `linear_ns`,
/// `compiled_ns`). Every scenario must have a row at 1,000 rules or
/// more, and in each such row the cold compiled walk must be at least
/// 2× faster than the cold linear scan of the same run. No rows, or no
/// row large enough, fails: a gate that judged nothing must not pass.
pub fn compiled_tier_gate(rows: &[serde_json::Value]) -> Result<(), String> {
    let mut scenarios: Vec<(&str, usize)> = Vec::new();
    for row in rows {
        let scenario = row["scenario"]
            .as_str()
            .ok_or_else(|| format!("row without a `scenario`: {row:?}"))?;
        let at = match scenarios.iter().position(|(s, _)| *s == scenario) {
            Some(at) => at,
            None => {
                scenarios.push((scenario, 0));
                scenarios.len() - 1
            }
        };
        let rules = num(row, "rules")? as u64;
        if rules < GATE_MIN_RULES {
            continue;
        }
        scenarios[at].1 += 1;
        let (linear, compiled) = (num(row, "linear_ns")?, num(row, "compiled_ns")?);
        if linear < GATE_MIN_COMPILED_SPEEDUP * compiled {
            return Err(format!(
                "cold compiled ({compiled:.1} ns) is only {:.2}x faster than cold linear \
                 ({linear:.1} ns) at {rules} rules in `{scenario}` (floor \
                 {GATE_MIN_COMPILED_SPEEDUP}x)",
                linear / compiled
            ));
        }
    }
    if scenarios.is_empty() {
        return Err("no strategy rows to judge".into());
    }
    match scenarios.iter().find(|(_, judged)| *judged == 0) {
        Some((scenario, _)) => Err(format!(
            "`{scenario}` has no row at >= {GATE_MIN_RULES} rules to judge"
        )),
        None => Ok(()),
    }
}

/// The batch-lane criterion of `DISPATCH_GATE`, over the `batch` rows
/// of `BENCH_dispatch.json` (`batch_len`, `tracing`,
/// `per_event_ns_per_event`, `batch_ns_per_event`): at 16 events or
/// more, the batch lane must not dispatch slower per event than the
/// per-event loop, traced or not. No row at that size fails.
pub fn batch_lane_gate(rows: &[serde_json::Value]) -> Result<(), String> {
    let mut judged = 0;
    for row in rows {
        let len = num(row, "batch_len")? as u64;
        if len < GATE_MIN_BATCH {
            continue;
        }
        judged += 1;
        let per_event = num(row, "per_event_ns_per_event")?;
        let batch = num(row, "batch_ns_per_event")?;
        if batch > per_event {
            return Err(format!(
                "batch lane ({batch:.1} ns/ev) is slower than the per-event loop \
                 ({per_event:.1} ns/ev) at batch {len}, tracing {}",
                row["tracing"].as_bool().unwrap_or(false)
            ));
        }
    }
    if judged == 0 {
        return Err(format!(
            "no batch row at >= {GATE_MIN_BATCH} events to judge"
        ));
    }
    Ok(())
}

/// Smallest payload-size win of binary WAL frames over the same records
/// as JSON that `WAL_GATE` accepts.
const GATE_MIN_WAL_SIZE_RATIO: f64 = 2.0;

/// The criterion of `WAL_GATE`, over the `durability` rows (`writers`,
/// `recovery_ok`) and the `wal_encoding` section (`size_ratio`) of
/// `BENCH_throughput.json`: every durability run's crash + recovery must
/// reproduce the state its writers saw acknowledged, and binary frames
/// must be at least 2× smaller than the same records as JSON. No
/// durability row fails: a gate that judged nothing must not pass.
pub fn wal_gate(
    durability_rows: &[serde_json::Value],
    wal_encoding: &serde_json::Value,
) -> Result<(), String> {
    if durability_rows.is_empty() {
        return Err("no durability rows to judge".into());
    }
    for row in durability_rows {
        let ok = row["recovery_ok"]
            .as_bool()
            .ok_or_else(|| format!("row without a boolean `recovery_ok`: {row:?}"))?;
        if !ok {
            return Err(format!(
                "recovery diverged from the acknowledged state with {} writer(s)",
                num(row, "writers")?
            ));
        }
    }
    let ratio = num(wal_encoding, "size_ratio")?;
    if ratio < GATE_MIN_WAL_SIZE_RATIO {
        return Err(format!(
            "binary WAL frames are only {ratio:.2}x smaller than the same records as JSON \
             (floor {GATE_MIN_WAL_SIZE_RATIO}x)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn strategy_row(scenario: &str, rules: u64, linear_ns: f64, compiled_ns: f64) -> Value {
        Value::Object(vec![
            ("scenario".into(), Value::String(scenario.into())),
            ("rules".into(), Value::U64(rules)),
            ("linear_ns".into(), Value::F64(linear_ns)),
            ("compiled_ns".into(), Value::F64(compiled_ns)),
        ])
    }

    fn batch_row(len: u64, per_event: f64, batch: f64) -> Value {
        Value::Object(vec![
            ("batch_len".into(), Value::U64(len)),
            ("tracing".into(), Value::Bool(false)),
            ("per_event_ns_per_event".into(), Value::F64(per_event)),
            ("batch_ns_per_event".into(), Value::F64(batch)),
        ])
    }

    #[test]
    fn compiled_tier_gate_judges_every_scenario() {
        let good = vec![
            strategy_row("uniform", 100, 3000.0, 2900.0),
            strategy_row("uniform", 1000, 16000.0, 4000.0),
            strategy_row("mixed_kinds", 1000, 9000.0, 1500.0),
        ];
        assert_eq!(compiled_tier_gate(&good), Ok(()));

        // A regressed row: 1.5x faster than linear is under the floor.
        let mut regressed = good.clone();
        regressed.push(strategy_row("mixed_kinds", 10_000, 15000.0, 10000.0));
        let err = compiled_tier_gate(&regressed).unwrap_err();
        assert!(err.contains("mixed_kinds"), "{err}");

        // Nothing to judge fails: no rows at all, or a scenario with
        // only small populations.
        assert!(compiled_tier_gate(&[]).is_err());
        let mut unjudged = good.clone();
        unjudged.push(strategy_row("other", 10, 2000.0, 2100.0));
        let err = compiled_tier_gate(&unjudged).unwrap_err();
        assert!(err.contains("other"), "{err}");
    }

    #[test]
    fn batch_lane_gate_rejects_a_slower_lane() {
        let good = vec![batch_row(16, 1200.0, 280.0), batch_row(64, 1200.0, 240.0)];
        assert_eq!(batch_lane_gate(&good), Ok(()));
        let mut regressed = good.clone();
        regressed.push(batch_row(256, 1200.0, 1300.0));
        assert!(batch_lane_gate(&regressed).is_err());
        assert!(batch_lane_gate(&[]).is_err());
        assert!(batch_lane_gate(&[batch_row(8, 1200.0, 280.0)]).is_err());
    }

    #[test]
    fn committed_dispatch_rows_pass_both_gates() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dispatch.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_dispatch.json is committed");
        let doc: Value = serde_json::from_str(&text).expect("BENCH_dispatch.json parses");
        let strategy = doc["rows"].as_array().expect("strategy rows");
        let batch = doc["batch"]["rows"].as_array().expect("batch rows");
        assert_eq!(compiled_tier_gate(strategy), Ok(()));
        assert_eq!(batch_lane_gate(batch), Ok(()));
    }

    fn durability_row(writers: u64, recovery_ok: bool) -> Value {
        Value::Object(vec![
            ("writers".into(), Value::U64(writers)),
            ("recovery_ok".into(), Value::Bool(recovery_ok)),
        ])
    }

    fn encoding(size_ratio: f64) -> Value {
        Value::Object(vec![("size_ratio".into(), Value::F64(size_ratio))])
    }

    #[test]
    fn wal_gate_rejects_divergence_a_lost_size_win_and_empty_input() {
        let good = vec![durability_row(1, true), durability_row(4, true)];
        assert_eq!(wal_gate(&good, &encoding(2.16)), Ok(()));

        let mut diverged = good.clone();
        diverged.push(durability_row(8, false));
        let err = wal_gate(&diverged, &encoding(2.16)).unwrap_err();
        assert!(err.contains("8 writer"), "{err}");

        let err = wal_gate(&good, &encoding(1.9)).unwrap_err();
        assert!(err.contains("1.90x"), "{err}");

        assert!(wal_gate(&[], &encoding(2.16)).is_err());
        assert!(wal_gate(&good, &Value::Null).is_err());
    }

    #[test]
    fn committed_throughput_rows_pass_the_wal_gate() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_throughput.json is committed");
        let doc: Value = serde_json::from_str(&text).expect("BENCH_throughput.json parses");
        let rows = doc["durability"]["rows"]
            .as_array()
            .expect("durability rows");
        assert_eq!(wal_gate(rows, &doc["wal_encoding"]), Ok(()));
    }

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
