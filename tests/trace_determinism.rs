//! Trace determinism and span-balance invariants.
//!
//! Traces are pure functions of the simulated execution: the tracer
//! timestamps events with *simulated* cycles (never wall clock) and every
//! exporter iterates in a fixed order, so the same kernel under
//! the same seed must export byte-identical artifacts. The property test
//! additionally checks that the ring tracer keeps span begin/end events
//! balanced under arbitrary interleavings.

use mesa::core::{RunOptions, SystemConfig};
use mesa::trace::{RingTracer, Subsystem, Tracer};
use mesa::workloads::{by_name, KernelSize};
use mesa_bench::mesa_offload_with;
use mesa_test::{forall, prop_assert, prop_assert_eq, Checker, Rng};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/trace_determinism.proptest-regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(48).regressions_file(REGRESSIONS)
}

fn traced_nn_run() -> RingTracer {
    let kernel = by_name("nn", KernelSize::Tiny).expect("nn");
    let mut tracer = RingTracer::new(1 << 16);
    let opts = RunOptions::default();
    let run = mesa_offload_with(&kernel, &SystemConfig::m128(), 4, &opts, &mut tracer);
    assert!(run.report.is_some(), "nn must accelerate");
    tracer
}

fn traced_faulted_nn_run(seed: u64) -> (RingTracer, Option<u64>) {
    let kernel = by_name("nn", KernelSize::Tiny).expect("nn");
    let plan = mesa::accel::FaultPlan::from_seed(seed, 4, 8);
    let mut tracer = RingTracer::new(1 << 16);
    let opts = RunOptions { faults: Some(plan), cache: None };
    let run = mesa_offload_with(&kernel, &SystemConfig::m128(), 4, &opts, &mut tracer);
    (tracer, run.report.map(|r| r.faults.total()))
}

#[test]
fn same_run_exports_byte_identical_traces() {
    let a = traced_nn_run();
    let b = traced_nn_run();
    assert_eq!(a.to_json_lines(), b.to_json_lines());
    assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
    assert_eq!(a.timeline_summary(), b.timeline_summary());
    assert_eq!(a.dropped(), b.dropped());
}

/// Fault injection is part of the deterministic state: the same seed and
/// fault plan must reproduce the same injected-fault events, the same
/// recovery decisions, and byte-identical trace exports — the property the
/// soak binary's seed-replay workflow depends on.
#[test]
fn same_fault_plan_exports_byte_identical_traces() {
    forall!(Checker::new("trace::fault_determinism").cases(8).regressions_file(REGRESSIONS), |(seed in 0u64..1_000_000)| {
        let (a, faults_a) = traced_faulted_nn_run(seed);
        let (b, faults_b) = traced_faulted_nn_run(seed);
        prop_assert_eq!(faults_a, faults_b);
        prop_assert_eq!(a.to_json_lines(), b.to_json_lines());
        prop_assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
        prop_assert_eq!(a.timeline_summary(), b.timeline_summary());
    });
}

#[test]
fn cycle_timestamps_are_monotone_per_subsystem_span_stack() {
    let tracer = traced_nn_run();
    // Every End must carry a cycle >= its matching Begin; the RingTracer
    // keeps the open-span stack, so an empty stack at the end plus
    // validate_chrome_trace's begin/end count check covers matching.
    assert!(tracer.open_spans().is_empty());
    let summary = mesa::trace::validate_chrome_trace(&tracer.to_chrome_trace()).unwrap();
    assert_eq!(summary.begins, summary.ends);
    assert!(summary.begins > 0);
}

/// Profile reports are pure functions of the simulated execution too: the
/// same kernel at the same configuration must export byte-identical JSON
/// and text renderings, and the report must carry the profiler's headline
/// content — conserved top-down buckets, an exact heatmap fold, and the
/// controller's re-optimization rounds with their critical-path deltas.
#[test]
fn same_run_exports_byte_identical_profile_reports() {
    let profile = || {
        let kernel = by_name("nn", KernelSize::Tiny).expect("nn");
        let (run, profile) = mesa_bench::mesa_profile(&kernel, &SystemConfig::m128(), 4);
        assert!(run.report.is_some(), "nn must accelerate");
        profile
    };
    let a = profile();
    let b = profile();
    let json = a.to_json().to_lines();
    assert_eq!(json, b.to_json().to_lines());
    assert_eq!(a.render(), b.render());

    assert!(a.topdown.sums_to_total());
    assert!(a.spatial_matches_activity());
    assert!(a.spatial.as_ref().is_some_and(|s| s.total_fires() > 0));
    assert!(!a.rounds.is_empty(), "nn's iterative controller must record a round");
    assert!(a.rounds.iter().any(|r| r.critical_path_delta() != 0));
    let doc = mesa::trace::json::parse(&json).expect("report JSON is well-formed");
    assert_eq!(doc.to_lines(), json, "re-renders to the same bytes");
}

/// Histogram merging is exact bucket-wise addition, so folding per-tenant
/// histograms in any grouping — `(a ⊎ b) ⊎ c` vs `a ⊎ (b ⊎ c)` — or
/// recording every sample into one histogram yields bit-identical
/// summaries and JSON. Fleet telemetry aggregation (soak folding episode
/// `FleetStats`) relies on this to be order- and grouping-insensitive.
#[test]
fn histogram_merge_is_associative_and_matches_whole() {
    use mesa::trace::Histogram;
    forall!(checker("trace::histogram_merge"), |(seed in 0u64..1_000_000, n in 1usize..64)| {
        let mut rng = Rng::seed_from_u64(seed);
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut whole = Histogram::new();
        for _ in 0..n {
            // Bit-width-uniform samples cover every bucket, including 0.
            let bits = rng.gen_range(0..=64u64);
            let v = if bits == 0 { 0 } else { rng.gen::<u64>() >> (64 - bits) };
            parts[rng.gen_range(0..3usize)].record(v);
            whole.record(v);
        }
        let [a, b, c] = parts;
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right_inner = b.clone();
        right_inner.merge(&c);
        let mut right = a.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(left.to_json(), whole.to_json());
        prop_assert!(left.p50() <= left.p90());
        prop_assert!(left.p90() <= left.p99());
        prop_assert!(left.p99() <= left.max());
        prop_assert!(left.is_empty() || left.min() <= left.p50());
    });
}

/// Span names the host-profiler properties draw from.
const HOST_NAMES: [&str; 4] = ["detect", "translate", "map", "offload"];

/// Drives a [`mesa::trace::host::HostProfiler`] through a seed-derived
/// interleaving of begin/end/sim-cycle ops plus two adopted "worker"
/// profiles (as the parallel figures pool produces), then finishes it.
fn random_host_profile(seed: u64, ops: usize) -> mesa::trace::host::HostProfile {
    use mesa::trace::host::{ClockSpec, HostProfiler};
    let mut rng = Rng::seed_from_u64(seed);
    let mut prof = HostProfiler::from_spec(ClockSpec::Mock { step_ns: 17 });
    let mut depth = 0usize;
    for _ in 0..ops {
        match rng.gen_range(0..4u32) {
            0 if depth > 0 => {
                prof.end();
                depth -= 1;
            }
            1 => prof.attribute_sim_cycles(rng.gen_range(0..1_000u64)),
            _ => {
                prof.begin(HOST_NAMES[rng.gen_range(0..HOST_NAMES.len())]);
                depth += 1;
            }
        }
    }
    // Worker profiles merge under whatever span is open at adoption
    // time — a worker's span sum can exceed the parent's own wall time,
    // and conservation must survive that (max-of-busy-and-children).
    for step_ns in [3u64, 251] {
        let mut worker = HostProfiler::from_spec(ClockSpec::Mock { step_ns });
        worker.begin("episode");
        worker.begin("map");
        worker.attribute_sim_cycles(rng.gen_range(0..1_000u64));
        worker.end();
        prof.adopt(&worker.finish());
    }
    // `finish` closes whatever is still open, innermost first.
    let mut profile = prof.finish();
    profile.gauges.insert("episodes_per_sec".to_string(), 42.0);
    profile
}

/// The host span tree conserves wall time **exactly** at every level:
/// each span's total is its self time plus its children's totals, the
/// roots sum to the profile total, and the folded-stack export tiles
/// that same total to the nanosecond — the invariants `tracecheck
/// hostprofile` enforces on exported artifacts.
#[test]
fn host_span_tree_conserves_time_exactly() {
    forall!(checker("trace::host_conservation"), |(seed in 0u64..1_000_000, ops in 4usize..64)| {
        let profile = random_host_profile(seed, ops);
        let mut stack: Vec<&mesa::trace::host::HostSpan> = profile.roots.iter().collect();
        while let Some(span) = stack.pop() {
            let children: u64 = span.children.iter().map(mesa::trace::host::HostSpan::total_ns).sum();
            prop_assert_eq!(span.self_ns() + children, span.total_ns());
            prop_assert!(span.busy_ns <= span.total_ns());
            stack.extend(span.children.iter());
        }
        let roots: u64 = profile.roots.iter().map(mesa::trace::host::HostSpan::total_ns).sum();
        prop_assert_eq!(roots, profile.total_ns());
        let folded_sum: u64 = profile
            .to_folded()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.rsplit_once(' ').expect("path count").1.parse::<u64>().expect("count"))
            .sum();
        prop_assert_eq!(folded_sum, profile.total_ns());
    });
}

/// Host-profile exports under the mock clock are byte-deterministic:
/// rebuilding the same op sequence (including in-order worker adoption,
/// as `--jobs N` does) yields byte-identical `mesa.hostprofile/v1` JSON
/// and folded stacks, and the JSON is well-formed.
#[test]
fn host_profile_export_is_byte_deterministic_under_mock_clock() {
    forall!(checker("trace::host_export_determinism"), |(seed in 0u64..1_000_000, ops in 4usize..48)| {
        let a = random_host_profile(seed, ops);
        let b = random_host_profile(seed, ops);
        let json = a.to_json().to_string();
        prop_assert_eq!(&json, &b.to_json().to_string());
        prop_assert_eq!(a.to_folded(), b.to_folded());
        prop_assert!(json.starts_with("{\"schema\":\"mesa.hostprofile/v1\",\"clock\":\"mock\""));
        let doc = mesa::trace::json::parse(&json).expect("hostprofile JSON is well-formed");
        prop_assert_eq!(doc.to_string(), json);
    });
}

/// Arbitrary interleavings of span opens/closes (as a simulation layer
/// would produce them) leave the tracer balanced once every open span is
/// closed, and the exported Chrome trace stays well-formed.
#[test]
fn random_span_interleavings_stay_balanced() {
    const NAMES: [&str; 5] = ["detect", "translate", "map", "configure", "offload"];
    forall!(checker("trace::span_balance"), |(seed in 0u64..1_000_000, ops in 4usize..64)| {
        let mut rng = Rng::seed_from_u64(seed);
        let mut tracer = RingTracer::new(4096);
        let mut cycle = 0u64;
        let mut depth = 0usize;
        for _ in 0..ops {
            cycle += rng.gen_range(0..20u64);
            if depth > 0 && rng.gen_bool(0.4) {
                let (sub, name) = tracer.open_spans().last().cloned().unwrap();
                tracer.span_end(sub, &name, cycle);
                depth -= 1;
            } else {
                let subsystem = Subsystem::ALL[rng.gen_range(0..Subsystem::ALL.len())];
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                tracer.span_begin(subsystem, name, cycle);
                depth += 1;
            }
        }
        // Close everything still open, innermost first.
        while let Some((sub, name)) = tracer.open_spans().last().cloned() {
            cycle += 1;
            tracer.span_end(sub, &name, cycle);
        }
        prop_assert!(tracer.open_spans().is_empty());
        let summary = mesa::trace::validate_chrome_trace(&tracer.to_chrome_trace())
            .expect("well-formed chrome trace");
        prop_assert_eq!(summary.begins, summary.ends);
    });
}
