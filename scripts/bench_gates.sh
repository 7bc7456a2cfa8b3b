# Same-run bench gates, shared by ci.sh and bench_diff.sh: each entry is
# "candidate baseline bound", and `tracecheck benchgate` fails when the
# candidate's median exceeds bound x the baseline's median from the same
# suite run. Each gated pair runs as one interleaved bench group, its
# members taking turns every iteration, so common-mode noise cancels and
# each gate is single-shot.
#
# Usage: source this file, then `bench_gates <bench-suite.json>`.
BENCH_GATES=(
  # (1) A NullTracer solo session through `run_session` must stay within
  #     noise of the plain `execute` run.
  "tracer/null_engine_nn_on_m128 engine/nn_512_iterations_on_m128 1.15"
  # (2) Virtualizing the fabric must stay cheap for the solo case: a
  #     single-tenant session through the FabricManager (admission, band
  #     placement, session bookkeeping) within 10% of the raw engine run.
  "fabric/nn_single_tenant_session_on_m128 engine/nn_512_iterations_on_m128 1.10"
  # (3) The host span profiler must be effectively free when wrapped
  #     around a full offload episode: profiled vs unprofiled, within 5%.
  "host/offload_nn_on_m128_profiled host/offload_nn_on_m128_off 1.05"
  # (4) CPU speed gates against the fusion-off pathfinder run, which is
  #     the same OoO loop sending every uop through `step` and the
  #     generic timing arm: the fast paths (flat dispatch, fused pairs,
  #     specialised timing arms) must deliver >= 1.33x wall-clock (ratio
  #     <= 0.75, measured 0.71-0.80, median 0.73-0.74, over 40 suite
  #     runs), and the hybrid fast-forward core must deliver >= 2.5x
  #     (ratio <= 0.40, measured 0.29-0.32).
  "ooo_core/pathfinder_fused ooo_core/pathfinder_tiny_to_halt 0.75"
  "cpu/pathfinder_full_fastfwd ooo_core/pathfinder_tiny_to_halt 0.40"
  # (5) Serving gate, warm vs cold: a repeat kernel served from the warm
  #     shared artifact cache must still beat the cold path. A hit skips
  #     the map span (Algorithm 1, memopt, program build), about 0.1 ms
  #     of the ~0.8 ms episode now that Algorithm 1 prunes rows; both
  #     sides still run warmup, execution and the F3 remap. Ratio <= 0.95,
  #     measured 0.80-0.92 (median 0.865) over 14 interleaved runs.
  "serve/repeat_kernel_warm serve/repeat_kernel_cold 0.95"
  # (6) Slicing gate: the nn episode advanced in ~24 fabric slices of
  #     ~1,000 cycles must stay within 2x of the same episode in one
  #     session (measured 1.33-1.65: the ~5 us per-slice cost is fixed
  #     while the engine loop's speed drifts with the host; 8.5 when every
  #     slice hashed the program's Debug rendering twice). Per-slice host
  #     cost has to scale with the state a slice moves, not with the
  #     program's size.
  "fabric/nn_sliced_session_on_m128 fabric/nn_single_tenant_session_on_m128 2.0"
)

bench_gates() {
  local gate
  for gate in "${BENCH_GATES[@]}"; do
    # Word-splitting `$gate` into its three fields is intended.
    # shellcheck disable=SC2086
    cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate "$1" $gate
  done
}
