#!/usr/bin/env sh
# Tier-1 gate, runnable with no network and an empty cargo registry
# (the workspace is std-only). Mirrors .github/workflows/ci.yml.
set -eux

cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline --workspace
# Examples: clippy only compiles them, so run each one in release. They
# assert their own outcomes (every task done, a crash recovered) and exit
# nonzero on a panic; all six together take well under a second.
for EXAMPLE in examples/*.rs; do
    cargo run -q --release --offline --example "$(basename "$EXAMPLE" .rs)" > /dev/null
done
# A hung test (an rt-plane deadlock) fails the gate after 20 minutes
# instead of stalling it. The log is kept to report the workspace's
# passed-test total, summed over its `test result:` lines.
TEST_LOG="$(mktemp)"
timeout 20m cargo test -q --offline --workspace > "$TEST_LOG" 2>&1 || {
    cat "$TEST_LOG"
    exit 1
}
cat "$TEST_LOG"
awk '/^test result:/ { passed += $4 } END { print "workspace tests passed: " passed }' \
    "$TEST_LOG"
rm -f "$TEST_LOG"
# The benchmark runs optimized code, where the placement count arithmetic
# wraps instead of trapping and debug_asserts compile out: run the
# placement differential and invariant tests, the Flux policy tests (EASY
# backfill frees running placements into a shadow pool: the wide
# multi-leaf path), the engine's event-queue tests against its
# reference model, and every backend sim's orphan-token and reap paths
# (the seeded fault conservation tests) on that build too.
cargo test -q --offline --release -p rp-platform -p rp-fluxrt -p rp-sim \
    -p rp-slurm -p rp-dragonrt -p rp-prrte

# Benchmark correctness gate: the standalone rp_benchmark package's tests,
# then every workload at smoke size with per-layer tracing. The run exits
# 1 when a DES task is missing, duplicated or not done, when the warm-up
# hash differs from rep 0, or when an export does not parse back.
cargo test -q --offline --locked --manifest-path rp_benchmark/Cargo.toml
cargo run --release --offline --locked --manifest-path rp_benchmark/Cargo.toml -- \
    --all --smoke --seconds 1 --trace 1

# Determinism: the whole quick suite, run in-process at --jobs 1 and at
# --jobs 2 from two scratch working dirs, must write byte-identical
# results/ trees, profiles, metrics, lineage and telemetry exports and
# transcripts.
RP_EXP="$PWD/target/release/rp-exp"
DET1="$(mktemp -d)"
DET2="$(mktemp -d)"
(cd "$DET1" && "$RP_EXP" all --quick --jobs 1 --profile-dir prof --metrics-dir metrics \
    --lineage-dir lineage --telemetry-dir telemetry > transcript.txt)
(cd "$DET2" && "$RP_EXP" all --quick --jobs 2 --profile-dir prof --metrics-dir metrics \
    --lineage-dir lineage --telemetry-dir telemetry > transcript.txt)
diff -r "$DET1" "$DET2"
rm -rf "$DET1" "$DET2"

# Metrics smoke: a quick deterministic run must produce a parseable
# OpenMetrics document, and the snapshot diff vs the checked-in baseline
# is ENFORCING — the simulation is seeded and deterministic, so any drift
# is a real behavior change. Known-noisy micro-latency families carry
# looser per-metric bounds in baselines/metrics.tolerances.
METRICS_DIR="$(mktemp -d)"
./target/release/rp-exp overhead --quick --metrics-dir "$METRICS_DIR" > /dev/null
test -s "$METRICS_DIR/overhead_flux_n_4.om.txt"
./target/release/compare_metrics baselines/metrics.txt \
    "$METRICS_DIR/overhead_flux_n_4.om.txt" \
    --tolerances baselines/metrics.tolerances
rm -rf "$METRICS_DIR"

# Profile smoke: the profile is rendered from lineage, so a quick flux_1
# run must write the RP profile header and exactly one DONE row on the
# agent track per `done` event in the lineage JSONL.
PROFILE_DIR="$(mktemp -d)"
./target/release/rp-exp flux1 --quick \
    --profile-dir "$PROFILE_DIR/P" --lineage-dir "$PROFILE_DIR/L" > /dev/null
test "$(head -n 1 "$PROFILE_DIR/P/flux_1_null_n_1.prof.csv")" = \
    "time,kind,comp,uid,event,detail"
DONE_ROWS="$(grep -c ',I,agent,[0-9]*,DONE,' "$PROFILE_DIR/P/flux_1_null_n_1.prof.csv")"
DONE_EVS="$(grep -c '"ev":"done"' "$PROFILE_DIR/L/flux_1_null_n_1.lineage.jsonl")"
test "$DONE_ROWS" -gt 0
test "$DONE_ROWS" = "$DONE_EVS"
rm -rf "$PROFILE_DIR"

# Telemetry smoke: a quick flux_1 run with the streaming-telemetry
# collector attached must produce non-empty JSONL time-series and a
# self-contained HTML dashboard (uploaded as a CI artifact in ci.yml).
TELEMETRY_DIR="${TELEMETRY_DIR:-$(mktemp -d)}"
./target/release/rp-exp flux1 --quick --telemetry-dir "$TELEMETRY_DIR" > /dev/null
test -s "$TELEMETRY_DIR/flux_1_null_n_1.telemetry.jsonl"
test -s "$TELEMETRY_DIR/flux_1_null_n_1.dashboard.html"
grep -q "<!DOCTYPE html>" "$TELEMETRY_DIR/flux_1_null_n_1.dashboard.html"
# The gauges are a snapshot taken at each sample boundary, so attaching
# metrics must not move a byte of the telemetry export.
TELEMETRY_MX_DIR="$(mktemp -d)"
./target/release/rp-exp flux1 --quick --telemetry-dir "$TELEMETRY_MX_DIR/T" \
    --metrics-dir "$TELEMETRY_MX_DIR/M" > /dev/null
diff -r "$TELEMETRY_DIR" "$TELEMETRY_MX_DIR/T"
rm -rf "$TELEMETRY_MX_DIR"

# Lineage smoke: the same quick flux_1 cell with the causal-lineage
# recorder attached must produce per-task JSONL chains and a blame
# report with its critical path, every task uid must narrate through
# `rp-explain`, and two lineage dirs must diff. Artifacts are uploaded in
# ci.yml.
LINEAGE_DIR="${LINEAGE_DIR:-$(mktemp -d)}"
./target/release/rp-exp flux1 --quick --lineage-dir "$LINEAGE_DIR" > /dev/null
test -s "$LINEAGE_DIR/flux_1_null_n_1.lineage.jsonl"
test -s "$LINEAGE_DIR/flux_1_null_n_1.blame.txt"
grep -q "critical path (segments sum exactly to makespan" \
    "$LINEAGE_DIR/flux_1_null_n_1.blame.txt"
UID0="$(sed -n 's/^{"uid":\([0-9]*\).*/\1/p' \
    "$LINEAGE_DIR/flux_1_null_n_1.lineage.jsonl" | head -n 1)"
./target/release/rp-explain --dir "$LINEAGE_DIR" "$UID0" \
    > "$LINEAGE_DIR/explain_task_$UID0.txt"
grep -q "blame (segments sum exactly to end-to-end)" \
    "$LINEAGE_DIR/explain_task_$UID0.txt"
./target/release/rp-explain --dir "$LINEAGE_DIR" --report \
    > "$LINEAGE_DIR/blame_report.txt"
test -s "$LINEAGE_DIR/blame_report.txt"
./target/release/rp-explain --diff "$LINEAGE_DIR" "$LINEAGE_DIR" \
    > "$LINEAGE_DIR/diff_report.txt"
grep -q "verdict: no blame segment moved" "$LINEAGE_DIR/diff_report.txt"

# Chaos soak: 16 fault seeds x {flux, dragon} under a fixed fault spec.
# Every run must finish without panics and conserve its task set (each
# uid exactly once, every task terminal) — the binary asserts this and
# exits nonzero otherwise. The final run writes lineage so a fault-killed
# task narrates through `rp-explain` (uploaded as a CI artifact in
# ci.yml).
CHAOS_DIR="${CHAOS_DIR:-$(mktemp -d)}"
./target/release/chaos_soak --seeds 16 --lineage-dir "$CHAOS_DIR"
test -s "$CHAOS_DIR/chaos_soak.lineage.jsonl"
FUID="$(sed -n 's/^{"uid":\([0-9]*\),.*"ev":"fault".*/\1/p' \
    "$CHAOS_DIR/chaos_soak.lineage.jsonl" | head -n 1)"
./target/release/rp-explain --dir "$CHAOS_DIR" "$FUID" \
    > "$CHAOS_DIR/explain_fault_$FUID.txt"
grep -q "fault" "$CHAOS_DIR/explain_fault_$FUID.txt"

# Serving soak: 8 serving seeds x {flux, dragon} x {poisson, bursty}
# under sustained open-loop pressure. Every run must drain with exact
# books (conservation, all-terminal, bounded queue) — the binary asserts
# this and exits nonzero otherwise. The final run records lineage +
# telemetry: its p999 exemplar uids must narrate through `rp-explain`,
# and the serving dashboard/books land as CI artifacts in ci.yml.
SERVING_DIR="${SERVING_DIR:-$(mktemp -d)}"
./target/release/serving_soak --seeds 8 \
    --lineage-dir "$SERVING_DIR" --telemetry-dir "$SERVING_DIR"
test -s "$SERVING_DIR/serving_soak.lineage.jsonl"
test -s "$SERVING_DIR/serving_soak.dashboard.html"
test -s "$SERVING_DIR/serving_soak.serving.jsonl"
SUID="$(sed -n 's/^{"uid":\(1[0-9]\{6,\}\),.*/\1/p' \
    "$SERVING_DIR/serving_soak.lineage.jsonl" | head -n 1)"
./target/release/rp-explain --dir "$SERVING_DIR" "$SUID" \
    > "$SERVING_DIR/explain_serving_$SUID.txt"
grep -q "blame (segments sum exactly to end-to-end)" \
    "$SERVING_DIR/explain_serving_$SUID.txt"

# Perf smoke: build the hot-path benchmark in release and run it at quick
# sizes. The baseline compare is warn-only, mirroring the metrics smoke:
# ::warning:: annotations past a 25% wall-clock regression, never a
# failure (cross-machine wall clocks are noisy; same-machine trajectories
# are the signal). Full-size regeneration is documented in DESIGN.md 8.2.
./target/release/bench_hotpaths --quick \
    --baseline BENCH_hotpaths.json \
    --warn-threshold 25 \
    --out "$(mktemp -d)/BENCH_hotpaths.quick.json"
