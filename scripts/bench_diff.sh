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

# Same-run ratio gates from the fresh run (common-mode noise cancels),
# the same list ci.sh applies.
# shellcheck source=scripts/bench_gates.sh
source scripts/bench_gates.sh
bench_gates "$fresh"
