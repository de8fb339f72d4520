#!/usr/bin/env bash
# Full verification gate: release build, tests, lints, formatting, and
# the perf/durability smoke gates. Run from anywhere; operates on the
# repository root. The bench smokes write their BENCH_*.json results
# under target/bench/ and leave the committed files at the root alone;
# re-record those on purpose with BENCH_RECORD=1 (full mode, no
# BENCH_QUICK).
#
#   scripts/check.sh           full gate (what CI runs)
#   scripts/check.sh --quick   inner-loop mode: tests + the gated bench
#                              smokes, skipping clippy/fmt and the
#                              seeded release crash sweep
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: $0 [--quick]" >&2
  exit 2
fi

if [[ "$QUICK" == 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release --workspace
fi

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> interact benchmark (build + self-tests)"
# `interact/` is a package of its own, outside the workspace: build it
# and run its self-tests so a library API change cannot break it unseen.
cargo build --release --offline --manifest-path interact/Cargo.toml
cargo test --release --offline --manifest-path interact/Cargo.toml

if [[ "$QUICK" == 0 ]]; then
  echo "==> cargo clippy -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> cargo fmt --check"
  cargo fmt --all --check
fi

echo "==> Dispatch smoke (c1_rule_selection, quick, compiled-tier + batch-lane gates)"
# Fails if the cold compiled walk is slower than the cold index walk at
# >= 1000 rules, or the batch lane is slower per event than the
# per-event loop at batch >= 16 (rule tracing off or on); writes
# target/bench/BENCH_dispatch.json (quick rows, incl. the batch and
# hot_reload sections).
BENCH_QUICK=1 DISPATCH_GATE=1 cargo bench -p bench --bench c1_rule_selection

echo "==> SLO + WAL smoke (c5_throughput, quick)"
# Fails if the clean serving run breaches the availability SLO or
# observes no serving latency, any durable-write crash + recovery
# diverges from the acknowledged state, or the binary WAL codec loses
# its >= 2x size win over JSON; writes target/bench/BENCH_throughput.json
# (tracing + slo + durability + wal_encoding sections) and
# target/bench/BENCH_slo.json.
BENCH_QUICK=1 SLO_SMOKE=1 WAL_GATE=1 cargo bench -p bench --bench c5_throughput

echo "==> Replication smoke (c7_replication, quick, delta-size + promotion gates)"
# Fails if the average shipped delta frame exceeds 0.5x the full
# snapshot frame, or any killed-primary promotion loses an acknowledged
# durable epoch; writes target/bench/BENCH_replication.json.
BENCH_QUICK=1 REPLICATION_GATE=1 cargo bench -p bench --bench c7_replication

if [[ "$QUICK" == 0 ]]; then
  echo "==> Crash recovery (seeded chains, release)"
  # The durable write path: WAL replay, torn tails, kill points between
  # append/fsync/publish. CI sweeps the same seeds.
  for seed in 7 1994 271828; do
    CRASH_SEED=$seed cargo test -q --release -p activegis --test crash_recovery
  done

  echo "==> Replication (seeded chains, release)"
  # Byte-identity under storms, bounded staleness, killed-primary
  # promotion read-your-writes. CI sweeps the same seeds.
  for seed in 7 1994 271828; do
    REPL_SEED=$seed cargo test -q --release -p activegis --test replication
  done
fi

echo "All checks passed."
