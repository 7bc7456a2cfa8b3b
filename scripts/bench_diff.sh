#!/usr/bin/env bash
# Perf-regression gate: re-runs the components microbench suite and
# compares every median against the committed baseline
# (BENCH_components.json), failing when any gated component regressed by
# more than MAX_RATIO (default 1.15 = 15% slower).
#
# Usage:
#   scripts/bench_diff.sh                 # gate against the committed baseline
#   MAX_RATIO=1.10 scripts/bench_diff.sh  # tighter gate
#   scripts/bench_diff.sh --refresh       # rewrite BENCH_components.json
#                                         # with a fresh run (after a
#                                         # deliberate perf change)
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_RATIO="${MAX_RATIO:-1.15}"
BASELINE="BENCH_components.json"

if [[ "${1:-}" == "--refresh" ]]; then
  cargo bench --offline -p mesa-bench --bench components
  echo "bench_diff: refreshed $BASELINE"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "bench_diff: no committed baseline at $BASELINE; run with --refresh first" >&2
  exit 1
fi

fresh="$(mktemp -t mesa_bench.XXXXXX.json)"
trap 'rm -f "$fresh"' EXIT

MESA_BENCH_OUT="$fresh" cargo bench --offline -p mesa-bench --bench components
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchdiff \
  "$fresh" "$BASELINE" "$MAX_RATIO"

# Fabric virtualization gets a tighter leash (FABRIC_MAX_RATIO, default
# 1.05): the fleet-telemetry instrumentation on the session and
# checkpoint/restore paths must stay in the noise.
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchdiff \
  "$fresh" "$BASELINE" "${FABRIC_MAX_RATIO:-1.05}" \
  fabric/nn_single_tenant_session_on_m128 fabric/nn_checkpoint_restore_roundtrip

# Cross-entry gate from the same fresh run (common-mode noise cancels):
# the single-tenant FabricManager session must stay within 10% of the raw
# engine run — the virtualization layer is free for solo offloads.
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$fresh" \
  fabric/nn_single_tenant_session_on_m128 \
  engine/nn_512_iterations_on_m128 \
  1.10

# Slicing gate, same-run pair: the nn episode advanced in ~24 fabric
# slices must stay within 2x of the same episode in one session
# (measured 1.33-1.65).
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$fresh" \
  fabric/nn_sliced_session_on_m128 \
  fabric/nn_single_tenant_session_on_m128 \
  2.0

# Host-profiler overhead gate, same-run pair (common-mode noise cancels):
# a fully profiled offload episode must stay within 5% of the same
# episode with the span profiler off.
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$fresh" \
  host/offload_nn_on_m128_profiled \
  host/offload_nn_on_m128_off \
  1.05

# CPU speed gates, same-run ratios against the unfused cycle-accurate
# pathfinder run: the macro-op fused decode path must deliver >= 1.33x
# wall-clock (ratio <= 0.75, measured ~0.70), and the hybrid
# fast-forward core must deliver >= 2.5x (ratio <= 0.40, measured ~0.32).
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$fresh" \
  ooo_core/pathfinder_fused \
  ooo_core/pathfinder_tiny_to_halt \
  0.75
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$fresh" \
  cpu/pathfinder_full_fastfwd \
  ooo_core/pathfinder_tiny_to_halt \
  0.40

# Serving gate, same-run warm-vs-cold pair (common-mode noise cancels):
# a repeat kernel served from the warm shared artifact cache must
# deliver >= 1.3x episodes/sec over the cold path (ratio <= 0.77,
# measured ~0.61).
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$fresh" \
  serve/repeat_kernel_warm \
  serve/repeat_kernel_cold \
  0.77
