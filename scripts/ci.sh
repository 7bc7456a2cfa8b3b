#!/usr/bin/env bash
# Offline CI gate: the whole workspace must build, test, and lint with an
# empty cargo registry (no network, no vendored third-party crates).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# Panic-free gate: the controller and accelerator must stay free of
# `unwrap()`/`panic!`/`unreachable!` in non-test code — every recoverable
# failure goes through typed errors and the CPU fallback instead. Each
# file is truncated at its first `#[cfg(test)]` so test modules (where
# unwrap is idiomatic) stay exempt.
panic_free_violations=0
for f in crates/core/src/*.rs crates/accel/src/*.rs; do
  hits="$(awk '/#\[cfg\(test\)\]/{exit} {print FNR": "$0}' "$f" \
    | grep -vE '^[0-9]+: *//' \
    | grep -E '\.unwrap\(\)|unreachable!|panic!' || true)"
  if [[ -n "$hits" ]]; then
    echo "ci: forbidden panic site in non-test code of $f:" >&2
    echo "$hits" >&2
    panic_free_violations=1
  fi
done
if [[ "$panic_free_violations" != 0 ]]; then
  echo "ci: use typed errors + CPU fallback instead (see README Robustness)" >&2
  exit 1
fi
echo "panic-free gate: no unwrap/panic/unreachable in non-test core/accel sources"

# Run-API gate: each layer has one plain call and one options call
# (`RunOptions`/`SessionRequest` plus an explicit `&mut dyn Tracer`), so
# non-test library code must not regrow `pub fn …_traced/_faulted/_shared`
# variants. Test modules are cut off at `#[cfg(test)]` as above. The one
# allowed name is `run_tenants_fleet_shared`: the end-to-end benchmark
# in bench/ pins it.
run_api_hits="$(find crates/*/src -name '*.rs' -not -path '*/bin/*' | sort | while read -r f; do
  awk -v f="$f" '/#\[cfg\(test\)\]/{exit} {print f":"FNR": "$0}' "$f"
done | grep -E 'pub fn [A-Za-z0-9_]*_(traced|faulted|shared)[(<]' \
  | grep -v 'pub fn run_tenants_fleet_shared(' || true)"
if [[ -n "$run_api_hits" ]]; then
  echo "ci: per-variant run entry point in library code:" >&2
  echo "$run_api_hits" >&2
  echo "ci: take RunOptions / SessionRequest and a &mut dyn Tracer instead" >&2
  exit 1
fi
echo "run-API gate: no _traced/_faulted/_shared public run variants"

# Digest gate: fingerprints hash a value's structure (derived `Hash` into
# `mesa_trace::Fnv64`), never its Debug rendering. Hashing
# `format!("{x:?}")` bytes formats and allocates on every call; it cost
# fleet slices half their host time when the program fingerprint did it.
# Test modules are cut off at `#[cfg(test)]` as above.
debug_hash_hits="$(find crates/*/src -name '*.rs' -not -path '*/bin/*' | sort | while read -r f; do
  awk -v f="$f" '/#\[cfg\(test\)\]/{exit} {print f":"FNR": "$0}' "$f"
done | grep -E 'format!\("[^"]*:#?\?\}[^"]*"[^;]*\)\.(as_)?bytes\(\)' || true)"
if [[ -n "$debug_hash_hits" ]]; then
  echo "ci: Debug rendering hashed as bytes in library code:" >&2
  echo "$debug_hash_hits" >&2
  echo "ci: derive Hash and feed a mesa_trace::Fnv64 instead" >&2
  exit 1
fi
echo "digest gate: no Debug-formatted bytes hashed in library code"

# Host-clock gate: `std::time::Instant`/`SystemTime` may only appear in
# the HostClock module (crates/trace/src/host.rs, the one sanctioned
# wall-clock seam). Everything else must take an injectable HostClock so
# timing-sensitive code stays testable against the deterministic mock.
instant_hits="$(grep -rnE 'std::time::(Instant|SystemTime)|Instant::now\(' \
  src crates --include='*.rs' | grep -v '^crates/trace/src/host\.rs:' || true)"
if [[ -n "$instant_hits" ]]; then
  echo "ci: raw wall-clock use outside crates/trace/src/host.rs:" >&2
  echo "$instant_hits" >&2
  echo "ci: inject a mesa_trace::host::HostClock instead" >&2
  exit 1
fi
echo "host-clock gate: no std::time::Instant outside the HostClock module"

# Trace smoke test: capture a tiny nn offload episode and validate the
# Chrome trace-event export (well-formed JSON, balanced spans, all
# controller phases present).
trace_tmp="$(mktemp -t mesa_trace.XXXXXX.json)"
profile_tmp="$(mktemp -t mesa_profile.XXXXXX.json)"
fig_j1="$(mktemp -t mesa_fig_j1.XXXXXX.txt)"
fig_j2="$(mktemp -t mesa_fig_j2.XXXXXX.txt)"
fig_ff="$(mktemp -t mesa_fig_ff.XXXXXX.txt)"
bench_tmp="$(mktemp -t mesa_bench.XXXXXX.json)"
fleet_tmp="$(mktemp -t mesa_fleet.XXXXXX.json)"
pm_tmp="$(mktemp -t mesa_postmortem.XXXXXX.json)"
host_j1="$(mktemp -t mesa_host_j1.XXXXXX.json)"
host_j2="$(mktemp -t mesa_host_j2.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$trace_tmp.jsonl" "$profile_tmp" "$fig_j1" "$fig_j2" "$fig_ff" \
  "$bench_tmp" "$fleet_tmp" "$pm_tmp" \
  "$host_j1" "$host_j1.folded" "$host_j2" "$host_j2.folded"' EXIT
cargo run --release --offline -q -p mesa-bench --bin figures -- trace tiny --trace "$trace_tmp"
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- chrome "$trace_tmp"

# Profile smoke test: run the bottleneck profiler on one kernel and
# validate the unified report (well-formed JSON, top-down buckets sum
# exactly to total cycles, non-empty heatmap for the accepted offload).
cargo run --release --offline -q -p mesa-bench --bin profile -- nn tiny --out "$profile_tmp"
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- profile "$profile_tmp"

# Differential + fault-injection soak smoke: a fixed-seed slice of the
# randomized soak loop (optimized engine vs reference interpreter vs
# golden model, plus controller fault-survival episodes). A divergence
# prints its episode seed for exact replay via `soak --replay 0xSEED`.
cargo run --release --offline -q -p mesa-bench --bin soak -- --iters 16 --seed 1

# Multi-tenant fabric smoke: the same seed-replayable soak loop with two
# concurrent tenants sharing the fabric, checkpoint+migrating every third
# slice. Sharing must be architecturally invisible against per-tenant solo
# runs; a divergence prints the seed and the exact replay flags. The
# aggregated fleetstats export is validated structurally (well-formed
# JSON, exact occupancy conservation, monotone latency quantiles).
cargo run --release --offline -q -p mesa-bench --bin soak -- \
  --iters 16 --seed 3 --tenants 2 --migrate-every 3 --fleetstats "$fleet_tmp"
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- fleetstats "$fleet_tmp"

# Flight-recorder smoke: force a config-stream truncation on one tenant so
# the decline → post-mortem path fires, then validate the dump.
cargo run --release --offline -q -p mesa-bench --bin soak -- \
  --iters 1 --seed 2 --tenants 2 --force-fault --postmortem "$pm_tmp"
grep -q '"schema":"mesa.flight/v1"' "$pm_tmp"
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- postmortem "$pm_tmp"
echo "flight-recorder post-mortem smoke: forced decline produced a valid dump"

# Serving smoke: a mixed 32-request stream (named + synthetic kernels,
# interleaved tenants) through `mesa-serve`'s shared artifact cache over
# two workers. --selfcheck re-runs every request on the uncached one-shot
# path and fails on any byte difference; --require-hits proves repeat
# kernels actually hit the cache.
cargo run --release --offline -q -p mesa-bench --bin mesa-serve -- \
  --requests 32 --jobs 2 --selfcheck --require-hits --quiet
echo "mesa-serve smoke: 32 mixed requests over 2 workers, cache hit, byte-identical"

# Serving determinism smoke: the per-request response lines must be
# byte-identical at any worker count (cache counters can differ when
# workers race on a cold key, so only the responses are compared).
serve_j1="$(mktemp -t mesa_serve_j1.XXXXXX.txt)"
serve_j2="$(mktemp -t mesa_serve_j2.XXXXXX.txt)"
cargo run --release --offline -q -p mesa-bench --bin mesa-serve -- \
  --requests 24 --jobs 1 | grep '^req ' > "$serve_j1"
cargo run --release --offline -q -p mesa-bench --bin mesa-serve -- \
  --requests 24 --jobs 2 | grep '^req ' > "$serve_j2"
cmp "$serve_j1" "$serve_j2"
rm -f "$serve_j1" "$serve_j2"
echo "mesa-serve --jobs 1 and --jobs 2 responses are byte-identical"

# CLI-validation smoke: malformed or out-of-range flag values must be
# rejected with a typed error naming the flag and value, and exit 2 —
# not be silently misparsed or crash.
for bad in \
  "soak --replay 0xZZ" \
  "soak --tenants 0" \
  "mesa-serve --tenants 0" \
  "mesa-serve --grid m1024" \
  "mesa-top --every 0"; do
  # shellcheck disable=SC2086
  set -- $bad
  bin="$1"
  shift
  rc=0
  cargo run --release --offline -q -p mesa-bench --bin "$bin" -- "$@" \
    >/dev/null 2>&1 || rc=$?
  if [[ "$rc" != 2 ]]; then
    echo "ci: '${bad}' exited $rc, expected the typed CLI error (exit 2)" >&2
    exit 1
  fi
done
echo "cli-validation smoke: malformed flag values exit 2 with typed errors"

# Parallel-harness determinism smoke: the full figure suite must be
# byte-identical no matter how many worker threads run the per-kernel
# simulations.
cargo run --release --offline -q -p mesa-bench --bin figures -- --jobs 1 all tiny > "$fig_j1"
cargo run --release --offline -q -p mesa-bench --bin figures -- --jobs 2 all tiny > "$fig_j2"
cmp "$fig_j1" "$fig_j2"
echo "figures --jobs 1 and --jobs 2 outputs are byte-identical"

# Fast-forward smoke: the full figure run under MESA_FASTFWD=1 (CPU
# warmup phases run functionally with calibrated cycle estimates instead
# of cycle-accurate simulation) must reproduce the fig11 speedup table's
# MEAN row within the fast-forward model's error bound. The warmup quanta
# are short, so the CPI-model estimate is coarser here than the sampled
# hybrid's sub-4% kernel-level error — 0.35 covers the observed worst
# column (~0.19) with margin while still catching an estimator that
# drifts into a different regime.
MESA_FASTFWD=1 cargo run --release --offline -q -p mesa-bench --bin figures -- \
  --jobs 2 fig11 tiny > "$fig_ff"
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- figdiff \
  "$fig_ff" "$fig_j1" 0.35
echo "fast-forward smoke: MESA_FASTFWD=1 fig11 MEAN row within tolerance"

# Host-profile smoke: a figures subset under the deterministic mock
# clock must emit a valid mesa.hostprofile/v1 export (exact span-tree
# time conservation, folded stacks tiling the total) that is
# byte-identical at any worker count.
cargo run --release --offline -q -p mesa-bench --bin figures -- \
  --host-profile="$host_j1" --host-clock mock --jobs 1 fig11 tiny > /dev/null 2>&1
cargo run --release --offline -q -p mesa-bench --bin figures -- \
  --host-profile="$host_j2" --host-clock mock --jobs 2 fig11 tiny > /dev/null 2>&1
cmp "$host_j1" "$host_j2"
cmp "$host_j1.folded" "$host_j2.folded"
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- hostprofile \
  "$host_j1" "$host_j1.folded"
echo "host-profile smoke: mock-clock export is conserved and --jobs invariant"

# Bench gates, on a fresh suite run written to a temp file (CI never
# overwrites the committed BENCH_components.json baseline; refresh it
# deliberately with `scripts/bench_diff.sh --refresh`).
#
# Shared CI runners are noisy and the noise only ever *inflates* timings,
# so the absolute diff against the committed baseline gets a loose ratio
# (override with MAX_RATIO=...) and up to three attempts — a genuine
# regression fails every attempt, a loaded-box blip passes a retry. The
# tracer-vs-engine gate compares two numbers from the same run (common-
# mode noise cancels), so it stays tight and single-shot.
MESA_BENCH_OUT="$bench_tmp" cargo bench --offline -p mesa-bench --bench components

# (1) A NullTracer solo session through `run_session` must stay within
#     noise of the plain `execute` run.
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$bench_tmp" \
  tracer/null_engine_nn_on_m128 \
  engine/nn_512_iterations_on_m128 \
  1.15

# (2) Virtualizing the fabric must stay cheap for the solo case: a
#     single-tenant session through the FabricManager (admission, band
#     placement, session bookkeeping) within 10% of the raw engine run.
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$bench_tmp" \
  fabric/nn_single_tenant_session_on_m128 \
  engine/nn_512_iterations_on_m128 \
  1.10

# (3) The host span profiler must be effectively free when wrapped
#     around a full offload episode: profiled vs unprofiled from the
#     same run, within 5%.
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$bench_tmp" \
  host/offload_nn_on_m128_profiled \
  host/offload_nn_on_m128_off \
  1.05

# (4) CPU speed gates, both same-run ratios against the unfused
#     cycle-accurate pathfinder run so common-mode noise cancels: the
#     macro-op fused decode path must deliver >= 1.33x wall-clock
#     (ratio <= 0.75, measured ~0.70), and the hybrid fast-forward core
#     must deliver >= 2.5x (ratio <= 0.40, measured ~0.32).
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$bench_tmp" \
  ooo_core/pathfinder_fused \
  ooo_core/pathfinder_tiny_to_halt \
  0.75
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$bench_tmp" \
  cpu/pathfinder_full_fastfwd \
  ooo_core/pathfinder_tiny_to_halt \
  0.40

# (5) Serving gate, same-run warm-vs-cold pair: a repeat kernel served
#     from the warm shared artifact cache must deliver >= 1.3x
#     episodes/sec over the cold path (ratio <= 0.77, measured ~0.61).
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$bench_tmp" \
  serve/repeat_kernel_warm \
  serve/repeat_kernel_cold \
  0.77

# (6) Slicing gate, same-run pair: the nn episode advanced in ~24 fabric
#     slices of ~1,000 cycles must stay within 2x of the same episode in
#     one session (measured 1.33-1.65: the ~5 us per-slice cost is fixed
#     while the engine loop's speed drifts with the host; 8.5 when every
#     slice hashed the program's Debug rendering twice). Per-slice host
#     cost has to scale with the state a slice moves, not with the
#     program's size.
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchgate \
  "$bench_tmp" \
  fabric/nn_sliced_session_on_m128 \
  fabric/nn_single_tenant_session_on_m128 \
  2.0

# (7) No component's median may regress past MAX_RATIO of the committed
#     baseline (bench_diff.sh's 1.15 default is for quiet machines), and
#     the fabric virtualization benches get a tighter leash
#     (FABRIC_MAX_RATIO, default 1.05): the telemetry instrumentation
#     added to the session/checkpoint paths must stay in the noise.
for attempt in 1 2 3; do
  if cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchdiff \
       "$bench_tmp" BENCH_components.json "${MAX_RATIO:-1.5}" \
     && cargo run --release --offline -q -p mesa-bench --bin tracecheck -- benchdiff \
       "$bench_tmp" BENCH_components.json "${FABRIC_MAX_RATIO:-1.05}" \
       fabric/nn_single_tenant_session_on_m128 fabric/nn_checkpoint_restore_roundtrip; then
    break
  elif [[ "$attempt" == 3 ]]; then
    echo "ci: bench regression persisted across $attempt attempts" >&2
    exit 1
  else
    echo "ci: bench diff failed (noisy runner?), retrying..." >&2
    sleep 2
    MESA_BENCH_OUT="$bench_tmp" cargo bench --offline -q -p mesa-bench --bench components
  fi
done
