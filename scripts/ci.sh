#!/usr/bin/env bash
# Offline CI gate: the whole workspace must build, test, and lint with an
# empty cargo registry (no network, no vendored third-party crates).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# bench/ is its own package outside the workspace: run its tests too, so a
# change that breaks an API bench/ pins fails here, not only when the
# benchmark runs.
cargo test -q --offline --manifest-path bench/Cargo.toml
cargo clippy --offline --workspace --all-targets -- -D warnings

# Non-test library sources: every crate's `src/` (the facade's included),
# binaries excluded.
library_sources() {
  { ls src/*.rs; find crates/*/src -name '*.rs' -not -path '*/bin/*'; } | sort
}

# Prints `FILE:LINE: text` for each line of FILE up to its test module (a
# `#[cfg(test)]` followed by `mod`), where unwrap and test-only helpers
# are idiomatic. A `#[cfg(test)]` item outside that module (a test-only
# helper) is still printed and scanned.
nontest_lines() {
  awk -v f="$1" '
    held != "" { if ($0 ~ /^[[:space:]]*mod /) exit; print held; held = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { held = f":"FNR": "$0; next }
    { print f":"FNR": "$0 }
  ' "$1"
}

# Panic-free gate: non-test library code must stay free of
# `unwrap()`/`panic!`/`unreachable!` — every recoverable failure goes
# through typed errors and the CPU fallback instead. Exempt, each for a
# reason:
#   - crates/testkit: test support; a failing property or bench must panic.
#   - workloads::common::run_functional: the golden-model runner, whose
#     infallible signature bench/ pins; a kernel that leaves its program
#     or never halts is a broken benchmark definition.
panic_exempt_crates='^crates/testkit/'
panic_exempt_fns='crates/workloads/src/common.rs:run_functional'
panic_hits="$(library_sources | grep -vE "$panic_exempt_crates" | while read -r f; do
  exempt_fn=""
  for e in $panic_exempt_fns; do
    if [[ "${e%%:*}" == "$f" ]]; then exempt_fn="${e#*:}"; fi
  done
  # Drop the exempt function's body: its `fn` line through the closing
  # brace at column 0.
  nontest_lines "$f" | awk -v fn="$exempt_fn" '
    fn != "" && $0 ~ ("fn " fn "[(<]") { skip = 1 }
    skip { if ($0 ~ /^[^:]*:[0-9]+: \}/) skip = 0; next }
    { print }
  '
done | grep -vE '^[^:]*:[0-9]+: *//' | grep -E '\.unwrap\(\)|unreachable!|panic!' || true)"
if [[ -n "$panic_hits" ]]; then
  echo "ci: forbidden panic site in non-test library code:" >&2
  echo "$panic_hits" >&2
  echo "ci: use typed errors + CPU fallback instead (see README Robustness)" >&2
  exit 1
fi
echo "panic-free gate: no unwrap/panic/unreachable in non-test library sources"

# Run-API gate: each layer has one plain call and one options call
# (`RunOptions`/`SessionRequest` plus an explicit `&mut dyn Tracer`), so
# non-test library code must not regrow `pub fn …_traced/_faulted/_shared`
# variants. The one allowed name is `run_tenants_fleet_shared`: the
# end-to-end benchmark in bench/ pins it.
run_api_hits="$(library_sources | while read -r f; do nontest_lines "$f"; done \
  | grep -E 'pub fn [A-Za-z0-9_]*_(traced|faulted|shared)[(<]' \
  | grep -v 'pub fn run_tenants_fleet_shared(' || true)"
if [[ -n "$run_api_hits" ]]; then
  echo "ci: per-variant run entry point in library code:" >&2
  echo "$run_api_hits" >&2
  echo "ci: take RunOptions / SessionRequest and a &mut dyn Tracer instead" >&2
  exit 1
fi
echo "run-API gate: no _traced/_faulted/_shared public run variants"

# Surface gate: a non-test library `pub fn` must have a caller. Its name
# has to appear in some tracked `.rs` file other than its own file and its
# crate's `lib.rs` (bench/, tests and binaries count). Make a function
# used only in its own file private, one used only in its crate
# `pub(crate)`, one used only by tests `#[cfg(test)]`, and delete one
# nothing uses. Each allow-list entry is `name:reason`; an entry whose
# function is gone fails the gate too, so the list cannot go stale.
surface_allow=(
  "run_tenants_fleet_shared:only bench/ calls it, and bench/ changes only with the benchmark; delete it then (ROADMAP item 2)"
)
surface_defs="$(library_sources | while read -r f; do nontest_lines "$f"; done \
  | sed -nE 's/^([^:]*):[0-9]+: *pub fn ([A-Za-z0-9_]+).*/\1 \2/p' | sort -u)"
surface_hits=""
while read -r f name; do
  lib="$(sed -E 's#^((crates/[^/]+/)?src)/.*#\1/lib.rs#' <<< "$f")"
  if [[ -n "$(git grep -lw -e "$name" -- '*.rs' | grep -vxF -e "$f" -e "$lib")" ]]; then
    continue
  fi
  allowed=0
  for entry in "${surface_allow[@]}"; do
    [[ "${entry%%:*}" == "$name" ]] && allowed=1
  done
  [[ "$allowed" == 0 ]] && surface_hits+="$f: pub fn $name"$'\n'
done <<< "$surface_defs"
for entry in "${surface_allow[@]}"; do
  if ! grep -q " ${entry%%:*}\$" <<< "$surface_defs"; then
    surface_hits+="stale allow-list entry: ${entry%%:*}"$'\n'
  fi
done
if [[ -n "$surface_hits" ]]; then
  echo "ci: public library functions without a caller outside their file:" >&2
  printf '%s' "$surface_hits" >&2
  echo "ci: make them private, pub(crate) or #[cfg(test)], or delete them" >&2
  exit 1
fi
echo "surface gate: every public library function has a caller"

# Digest gate: fingerprints hash a value's structure (derived `Hash` into
# `mesa_trace::Fnv64`), never its Debug rendering. Hashing
# `format!("{x:?}")` bytes formats and allocates on every call; it cost
# fleet slices half their host time when the program fingerprint did it.
debug_hash_hits="$(library_sources | while read -r f; do nontest_lines "$f"; done \
  | grep -E 'format!\("[^"]*:#?\?\}[^"]*"[^;]*\)\.(as_)?bytes\(\)' || true)"
if [[ -n "$debug_hash_hits" ]]; then
  echo "ci: Debug rendering hashed as bytes in library code:" >&2
  echo "$debug_hash_hits" >&2
  echo "ci: derive Hash and feed a mesa_trace::Fnv64 instead" >&2
  exit 1
fi
echo "digest gate: no Debug-formatted bytes hashed in library code"

# Interpreter gate: the accelerator engine evaluates each firing from the
# op its node plan lowered once per session (`PeOp` over
# `mesa_isa::op_value`), never by staging an `ArchState` and running the
# ISA interpreter per firing, which cost program-large a sixth of its
# host time. So non-test lines of the engine neither call `step(` nor
# construct an `ArchState`.
interp_hits="$(nontest_lines crates/accel/src/engine.rs \
  | grep -vE '^[^:]*:[0-9]+: *//' \
  | grep -E '(^|[^A-Za-z0-9_])step\(|ArchState::new\(|ArchState *\{' || true)"
if [[ -n "$interp_hits" ]]; then
  echo "ci: per-firing ISA interpreter in the accelerator engine:" >&2
  echo "$interp_hits" >&2
  echo "ci: lower the node's operation into its NodePlan and call op_value" >&2
  exit 1
fi
echo "interpreter gate: the engine fires nodes without step or a staged ArchState"

# JSON gate: every export renders through the one codec in
# crates/trace/src/json.rs, which owns escaping, layout and the
# non-finite rule. So non-test library code holds no hand-written JSON key
# (a `\"name\":` inside a Rust string): an emitter that splices its own
# keys brings back its own comma, escaping and NaN rules.
json_key_hits="$(library_sources | grep -vxF crates/trace/src/json.rs \
  | while read -r f; do nontest_lines "$f"; done \
  | grep -vE '^[^:]*:[0-9]+: *//' | grep -E '\\"[A-Za-z0-9_.]*\\":' || true)"
if [[ -n "$json_key_hits" ]]; then
  echo "ci: hand-written JSON key in library code:" >&2
  echo "$json_key_hits" >&2
  echo "ci: build a mesa_trace::Json value and render it instead" >&2
  exit 1
fi
echo "JSON gate: every library export renders through mesa_trace::json"

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

# Fast-forward smoke: the fig11 run under --fast-forward (CPU warmup
# phases run functionally with calibrated cycle estimates instead of
# cycle-accurate simulation) must reproduce the fig11 speedup table's
# MEAN row within the fast-forward model's error bound. The warmup quanta
# are short, so the CPI-model estimate is coarser here than the sampled
# hybrid's sub-4% kernel-level error — 0.35 covers the observed worst
# column (~0.19) with margin while still catching an estimator that
# drifts into a different regime.
cargo run --release --offline -q -p mesa-bench --bin figures -- \
  --fast-forward --jobs 2 fig11 tiny > "$fig_ff"
cargo run --release --offline -q -p mesa-bench --bin tracecheck -- figdiff \
  "$fig_ff" "$fig_j1" 0.35
echo "fast-forward smoke: --fast-forward fig11 MEAN row within tolerance"

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
# same-run gates compare two numbers from one run (common-mode noise
# cancels), so they stay tight and single-shot.
MESA_BENCH_OUT="$bench_tmp" cargo bench --offline -p mesa-bench --bench components

# (1)-(6) Same-run ratio gates, listed once in bench_gates.sh.
# shellcheck source=scripts/bench_gates.sh
source scripts/bench_gates.sh
bench_gates "$bench_tmp"

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
