//! `mesa-e2e`: the end-to-end benchmark of the MESA reproduction.
//!
//! Four seeded workloads drive the repository only through its public
//! entry points (`ServeEngine::handle`, `MesaController::run_program`,
//! `run_tenants_fleet_shared`, `mesa_workloads::all`). A run
//! sets each workload up several times, warms it, times it untraced for
//! the end-to-end metrics, then (with tracing) runs a quarter as many ops
//! under the host span profiler for the per-layer split, and finally
//! checks the ops' results against the repository's oracles.
//! `bench/README.md` explains the workloads and metrics.

pub mod diff;
pub mod json;
pub mod layers;
pub mod runner;
pub mod stats;
pub mod workloads;

use layers::{Split, LAYERS, SHARE_UNITS};
use mesa_core::ArtifactCacheStats;
use mesa_trace::host::{self, ClockSpec};
use mesa_trace::{alloc, json_string};
use runner::{run_phase, timing, Clock, Stop};
use std::fmt::Write as _;
use workloads::{Tally, NAMES};

/// A run sets its workload up at least this many times, and for at least
/// `1 / SETUP_DIVISOR` of `--seconds`; `setup_s` is the median set-up.
/// Set-ups of a few milliseconds need the time floor to read steadily.
const SETUP_MIN_REPS: usize = 5;
const SETUP_DIVISOR: f64 = 80.0;
/// Share of the measured time spent on the untimed warmup.
const WARMUP_SHARE: f64 = 0.05;
/// The traced phase runs this fraction (1/N) of the timed phase's ops.
const TRACE_DIVISOR: u64 = 4;
/// Op records preallocated per phase kind (more only grows the buffer).
const RECORD_CAPACITY: usize = 1 << 19;
/// Per-cycle tallies preallocated per phase kind.
const CYCLE_CAPACITY: usize = 1 << 16;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value, as measured.
    pub value: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Ops run (warmup, timed and traced).
    pub attempted: u64,
    /// Ops without a result plus failed checks.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// End-to-end metrics of the untraced timed phase, as `BENCHMARK.json`
    /// declares them.
    pub end_to_end: Vec<Metric>,
    /// End-to-end numbers reported without a regression bound: the tail
    /// latency (its run-to-run spread on a shared 2-vCPU host exceeds any
    /// bound the benchmark may set) and the failure fraction (usually 0).
    pub ungated: Vec<Metric>,
    /// Per-layer metrics of the traced phase (empty without tracing).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// `failed == 0`.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// This report as one JSON object with every metric it has.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let all: Vec<Metric> =
            self.end_to_end.iter().chain(&self.ungated).chain(&self.per_layer).cloned().collect();
        metrics_json(&all, "", &mut out);
        out.push_str("}}");
        out
    }
}

fn metrics_json(metrics: &[Metric], prefix: &str, out: &mut String) {
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let name = json_string(&format!("{prefix}{}", m.name));
        let _ =
            write!(out, "{sep}{name}:{{\"value\":{},\"unit\":{}}}", m.value, json_string(m.unit));
    }
}

/// The result line: end-to-end metrics without tracing, per-layer
/// metrics with it. Several reports merge under `workload/metric` names.
#[must_use]
pub fn result_line(reports: &[Report], trace: bool) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (k, r) in reports.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let prefix = if reports.len() > 1 { format!("{}/", r.workload) } else { String::new() };
        metrics_json(if trace { &r.per_layer } else { &r.end_to_end }, &prefix, &mut out);
    }
    out.push_str("}}");
    out
}

/// The `--out` document: every metric of every report, by workload.
#[must_use]
pub fn out_document(reports: &[Report], seed: u64, seconds: f64, trace: bool) -> String {
    let mut out =
        format!("{{\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"workloads\":{{");
    for (k, r) in reports.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{}:{}", json_string(r.workload), r.to_json());
    }
    out.push_str("}}");
    out
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value: if value.is_finite() { value } else { 0.0 } }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn cache_delta(after: &ArtifactCacheStats, before: &ArtifactCacheStats) -> ArtifactCacheStats {
    ArtifactCacheStats {
        program_hits: after.program_hits.saturating_sub(before.program_hits),
        program_misses: after.program_misses.saturating_sub(before.program_misses),
        artifact_hits: after.artifact_hits.saturating_sub(before.artifact_hits),
        artifact_misses: after.artifact_misses.saturating_sub(before.artifact_misses),
        inserts: after.inserts.saturating_sub(before.inserts),
        evictions: after.evictions.saturating_sub(before.evictions),
    }
}

fn sum(tallies: &[Tally]) -> Tally {
    tallies.iter().fold(Tally::default(), |mut acc, t| {
        acc.add(t);
        acc
    })
}

/// Runs workload `name` for `seconds` of timed measurement.
///
/// # Errors
/// An unknown workload name.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    spec: ClockSpec,
) -> Result<Report, String> {
    let workload = *NAMES
        .iter()
        .find(|&&n| n == name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {NAMES:?}"))?;
    let clock = Clock::new(spec);
    // The bookkeeping buffers exist before the allocation counters
    // restart, so `peak_alloc_mib` measures the workload, not the bench.
    let mut recs = Vec::with_capacity(RECORD_CAPACITY);
    let mut traced_recs = Vec::with_capacity(RECORD_CAPACITY);
    let mut untraced: Vec<Tally> = Vec::with_capacity(CYCLE_CAPACITY);
    let mut traced: Vec<Tally> = Vec::with_capacity(CYCLE_CAPACITY);
    alloc::reset();

    let budget_ns = (seconds.max(0.0) * 1e9) as u64;
    let setup_until = clock.now().saturating_add((budget_ns as f64 / SETUP_DIVISOR) as u64);
    let mut setup_s = Vec::new();
    let mut built = None;
    while setup_s.len() < SETUP_MIN_REPS || clock.now() < setup_until {
        drop(built.take());
        let t0 = clock.now();
        let w = workloads::build(workload, seed).expect("workload name checked above");
        setup_s.push(clock.now().saturating_sub(t0) as f64 / 1e9);
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up");
    let cycle = w.cycle_len();

    let warm = run_phase(
        &*w,
        &clock,
        0,
        Stop::After((budget_ns as f64 * WARMUP_SHARE) as u64),
        false,
        &mut recs,
        &mut untraced,
    );
    let warm_ops = recs.len();
    let warm_timing = timing(&warm, &recs, cycle);
    let before = alloc::stats();
    let timed_phase =
        run_phase(&*w, &clock, warm.end, Stop::After(budget_ns), false, &mut recs, &mut untraced);
    let after = alloc::stats();
    let timed = timing(&timed_phase, &recs[warm_ops..], cycle);

    let mut attempted = warm_timing.ops + timed.ops;
    let mut failed = warm_timing.failed + timed.failed;
    let mut failures = Vec::new();
    let end_to_end = vec![
        metric("setup_s", "s", stats::percentile(&setup_s, 0.5).unwrap_or(0.0)),
        metric("ops_per_s", "ops/s", timed.ops_per_s),
        metric("op_p50_ms", "ms", timed.p50_ns as f64 / 1e6),
        metric("sim_mcyc_per_s", "Mcyc/s", timed.sim_mcyc_per_s),
        metric("peak_alloc_mib", "MiB", after.peak_bytes as f64 / f64::from(1u32 << 20)),
    ];

    let mut per_layer = Vec::new();
    if trace {
        w.fresh_for_trace();
        let cache_before = w.cache_stats();
        host::enable(spec);
        let phase = run_phase(
            &*w,
            &clock,
            0,
            Stop::Ops(timed.ops / TRACE_DIVISOR),
            true,
            &mut traced_recs,
            &mut traced,
        );
        host::disable();
        let cache = cache_delta(&w.cache_stats(), &cache_before);
        let tr = timing(&phase, &traced_recs, cycle);
        attempted += tr.ops;
        failed += tr.failed;
        for (c, (a, b)) in untraced.iter().zip(&traced).enumerate() {
            if a != b {
                failures.push(format!("cycle {c}: traced simulation differs from untraced"));
            }
        }
        let profile = phase.profile.ok_or("the traced phase recorded no host profile")?;
        per_layer = layer_metrics(&Split::of(&profile), &sum(&traced), &traced[0], cycle, tr.ops);
        let alloc_ops = timed.ops.max(1);
        per_layer.extend([
            metric(
                "core.artifact_cache.hit_rate",
                "fraction",
                ratio(cache.hits(), cache.hits() + cache.misses()),
            ),
            metric("core.artifact_cache.hits_per_op", "count", ratio(cache.hits(), tr.ops)),
            metric("core.artifact_cache.misses_per_op", "count", ratio(cache.misses(), tr.ops)),
            metric("core.artifact_cache.inserts_per_op", "count", ratio(cache.inserts, tr.ops)),
            metric("core.artifact_cache.evictions_per_op", "count", ratio(cache.evictions, tr.ops)),
            metric(
                "alloc.count_per_op",
                "count",
                ratio(after.allocations.saturating_sub(before.allocations), alloc_ops),
            ),
            metric(
                "alloc.bytes_per_op",
                "bytes",
                ratio(after.total_bytes.saturating_sub(before.total_bytes), alloc_ops),
            ),
            metric("trace.overhead_frac", "fraction", timed.ops_per_s / tr.ops_per_s - 1.0),
        ]);
    }
    failures.extend(w.verify(&recs));
    failed += failures.len() as u64;
    let ungated = vec![
        metric("op_p99_ms", "ms", timed.p99_ns as f64 / 1e6),
        metric("fail_frac", "fraction", ratio(failed, attempted)),
    ];
    Ok(Report { workload, attempted, failed, failures, end_to_end, ungated, per_layer })
}

/// Layer times and shares plus the simulation counts of the traced phase
/// (`total`, over `ops` ops) and its first cycle (`first`, the invariants).
fn layer_metrics(split: &Split, total: &Tally, first: &Tally, cycle: u64, ops: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let units = split.share_units();
    let names = LAYERS.iter().map(|(layer, _)| *layer).chain(["other"]);
    for ((layer, &ns), &share) in names.zip(&split.self_ns).zip(&units) {
        out.push(metric(&format!("{layer}.ms_per_op"), "ms", ratio(ns, ops) / 1e6));
        out.push(metric(&format!("{layer}.share"), "fraction", share as f64 / SHARE_UNITS as f64));
    }
    let accel_ns = split.ns("accel.execute") + split.ns("core.fabric.advance");
    let cpu_ns = split.ns("cpu.warmup") + split.ns("cpu.config_overlap");
    let digest = (first.digest ^ (first.digest >> 32)) & 0xFFFF_FFFF;
    out.extend([
        metric("accel.sim_mcyc_per_s", "Mcyc/s", ratio(total.accel_cycles, accel_ns) * 1e3),
        metric("accel.iterations_per_op", "count", ratio(total.accel_iterations, ops)),
        metric("cpu.sim_mcyc_per_s", "Mcyc/s", ratio(total.cpu_cycles, cpu_ns) * 1e3),
        metric("core.reoptimize.rounds_per_op", "count", ratio(total.reopt_rounds, ops)),
        metric("core.reoptimize.reconfigs_per_op", "count", ratio(total.reconfigs, ops)),
        metric("core.fabric.slices_per_op", "count", ratio(total.slices, ops)),
        metric("core.fabric.migrations_per_op", "count", ratio(total.migrations, ops)),
        metric(
            "core.fabric.queue_wait_cycles_per_op",
            "cycles",
            ratio(total.queue_wait_cycles, ops),
        ),
        metric("mem.l1_accesses_per_op", "count", ratio(total.l1_accesses, ops)),
        metric("mem.l2_accesses_per_op", "count", ratio(total.l2_accesses, ops)),
        metric("mem.dram_accesses_per_op", "count", ratio(total.dram_accesses, ops)),
        metric("core.detect.decline_frac", "fraction", ratio(total.declines, total.episodes)),
        metric("sim.cycles_per_op", "cycles", ratio(first.cycles, cycle)),
        metric("sim.warmup_cycles_per_op", "cycles", ratio(first.warmup_cycles, cycle)),
        metric("sim.config_cycles_per_op", "cycles", ratio(first.config_cycles, cycle)),
        metric("sim.accel_cycles_per_op", "cycles", ratio(first.accel_cycles, cycle)),
        metric("sim.digest", "hash", digest as f64),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Host profiling is process-global; runs that trace take turns.
    static TRACING: Mutex<()> = Mutex::new(());

    const MOCK: ClockSpec = ClockSpec::Mock { step_ns: 1_000 };

    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .expect("section present")
            .items()
            .iter()
            .map(|m| m.get("name").and_then(json::Json::str).expect("named metric").to_string())
            .collect()
    }

    fn smoke(name: &str) {
        let _turn = TRACING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let report = run(name, 1, 0.0, true, MOCK).expect("known workload");
        assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
        assert!(report.attempted > 0);
        for (section, metrics) in
            [("end_to_end", &report.end_to_end), ("per_layer", &report.per_layer)]
        {
            for want in declared(section) {
                assert!(
                    metrics.iter().any(|m| m.name == want),
                    "{name}: {section} metric {want} missing"
                );
            }
        }
        let shares: f64 =
            report.per_layer.iter().filter(|m| m.name.ends_with(".share")).map(|m| m.value).sum();
        assert!((shares - 1.0).abs() < 1e-9, "{name}: shares sum to {shares}");
    }

    #[test]
    fn smoke_serve_hot() {
        smoke("serve-hot");
    }

    #[test]
    fn smoke_serve_cold() {
        smoke("serve-cold");
    }

    #[test]
    fn smoke_program_large() {
        smoke("program-large");
    }

    #[test]
    fn smoke_fleet_migrate() {
        smoke("fleet-migrate");
    }

    #[test]
    fn layers_conserve_exactly_under_the_mock_clock() {
        let _turn = TRACING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let clock = Clock::new(MOCK);
        for name in ["fleet-migrate", "serve-hot"] {
            let w = workloads::build(name, 3).expect("known workload");
            let (mut recs, mut cycles) = (Vec::new(), Vec::new());
            host::enable(MOCK);
            let phase = run_phase(&*w, &clock, 0, Stop::Ops(1), true, &mut recs, &mut cycles);
            host::disable();
            let split = Split::of(&phase.profile.expect("traced phase has a profile"));
            assert!(split.total_ns > 0);
            assert_eq!(split.self_ns.iter().sum::<u64>(), split.total_ns, "{name}");
            assert_eq!(split.share_units().iter().sum::<u64>(), SHARE_UNITS, "{name}");
            let named = split.total_ns - split.ns("other");
            assert!(named > 0, "{name}: no time reached a named layer");
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run("nope", 1, 0.0, false, MOCK).is_err());
    }
}
