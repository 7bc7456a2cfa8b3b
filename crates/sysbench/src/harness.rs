//! Shared measurement harness: runs a kernel on the single-core CPU, the
//! 16-core multicore baseline, and the MESA system, collecting cycles and
//! memory-hierarchy activity in the form the energy model consumes.

use mesa_core::{run_offload_with, Ldfg, MesaError, OffloadReport, RunOptions, SystemConfig};
use mesa_cpu::{CoreConfig, Multicore, NullMonitor, OoOCore, RunLimits};
use mesa_mem::{MemConfig, MemTraffic, MemorySystem};
use mesa_power::MemActivity;
use mesa_profile::ProfileReport;
use mesa_trace::host;
use mesa_trace::{NullTracer, Subsystem, Tracer};
use mesa_workloads::Kernel;

/// Result of a CPU-only (single or multicore) measurement.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Wall-clock cycles.
    pub cycles: u64,
    /// Instructions retired (summed over cores).
    pub retired: u64,
    /// Busy core-cycles (summed over cores, for static energy).
    pub core_cycles: u64,
    /// Memory-hierarchy activity.
    pub mem: MemActivity,
}

/// Result of a MESA-system measurement.
#[derive(Debug, Clone)]
pub struct MesaRun {
    /// The offload report (None when the loop was rejected and execution
    /// stayed on the CPU).
    pub report: Option<OffloadReport>,
    /// Wall-clock cycles of the whole episode.
    pub cycles: u64,
    /// Memory-hierarchy activity of the whole episode (CPU + accelerator).
    pub mem: MemActivity,
    /// Activity attributable to the CPU phases (warmup monitoring plus the
    /// overlapped configuration phase) — sampled from the controller's
    /// traffic snapshot just before the accelerator started, so the energy
    /// model never double-charges warmup traffic to the accelerator. On the
    /// fallback path this is the whole multicore run.
    pub cpu_mem: MemActivity,
    /// Activity attributable to accelerator execution (`mem` minus
    /// `cpu_mem`; zero on the fallback path).
    pub accel_mem: MemActivity,
    /// Why the offload was declined, when it was (`Rejected` carries the
    /// C1–C3 reason). `None` whenever `report` is `Some`.
    pub declined: Option<MesaError>,
}

fn traffic_activity(t: &MemTraffic) -> MemActivity {
    MemActivity {
        l1_accesses: t.l1_accesses,
        l2_accesses: t.l2_accesses,
        dram_accesses: t.dram_accesses,
    }
}

fn activity_minus(total: &MemActivity, part: &MemActivity) -> MemActivity {
    MemActivity {
        l1_accesses: total.l1_accesses.saturating_sub(part.l1_accesses),
        l2_accesses: total.l2_accesses.saturating_sub(part.l2_accesses),
        dram_accesses: total.dram_accesses.saturating_sub(part.dram_accesses),
    }
}

fn mem_activity(mem: &MemorySystem) -> MemActivity {
    let l1: u64 = (0..mem.requesters()).map(|i| mem.l1_stats(i).accesses()).sum();
    MemActivity {
        l1_accesses: l1,
        l2_accesses: mem.l2_stats().accesses(),
        dram_accesses: mem.dram_accesses(),
    }
}

/// Runs the kernel to completion on one out-of-order core.
#[must_use]
pub fn cpu_single(kernel: &Kernel, core: CoreConfig) -> BaselineRun {
    let _host = host::span("baseline.cpu_single");
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    kernel.populate(mem.data_mut());
    let mut state = kernel.entry.clone();
    let mut cpu = OoOCore::new(core);
    let r = cpu.run(&kernel.program, &mut state, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
    BaselineRun {
        cycles: r.cycles,
        retired: r.retired,
        core_cycles: r.cycles,
        mem: mem_activity(&mem),
    }
}

/// OpenMP parallel-region fork/join overhead for the 16-thread baseline,
/// in cycles — the cost of waking, distributing to, and barrier-joining
/// the worker threads, which the gem5+OpenMP baseline of the paper also
/// pays once per parallel region.
pub const FORK_JOIN_CYCLES: u64 = 1200;

/// Runs the kernel on an `n`-core multicore with static iteration
/// chunking (serial kernels run on core 0 alone).
#[must_use]
pub fn cpu_multicore(kernel: &Kernel, n: usize) -> BaselineRun {
    let _host = host::span("baseline.cpu_multicore");
    let mut mc = Multicore::new(CoreConfig::boom_baseline(), MemConfig::default(), n);
    kernel.populate(mc.mem_mut().data_mut());
    let r = mc.run_parallel(
        &kernel.program,
        |core| kernel.multicore_entry(core, n),
        RunLimits::none(),
        &mut NullTracer,
    );
    let overhead = if kernel.split.is_some() && n > 1 { FORK_JOIN_CYCLES } else { 0 };
    let core_cycles = r.per_core.iter().map(|c| c.cycles).sum();
    let mem = mem_activity(mc.mem_mut());
    BaselineRun { cycles: r.cycles + overhead, retired: r.retired, core_cycles, mem }
}

/// Runs the kernel under the MESA system. A rejected loop falls back to
/// the host multicore (the accelerator sits idle), which is what a real
/// deployment would do.
#[must_use]
pub fn mesa_offload(kernel: &Kernel, system: &SystemConfig, fallback_cores: usize) -> MesaRun {
    mesa_offload_with(kernel, system, fallback_cores, &RunOptions::default(), &mut NullTracer)
}

/// [`mesa_offload`] under `opts`, with an observer: the controller's phase
/// spans land in `tracer`, bracketed by a harness-level
/// `harness.mesa_offload` span, and a `harness.fallback` instant marks
/// rejected episodes. Under an armed fault plan the episode either
/// recovers (correct results, fault events in the report and as instants
/// on the `fault` subsystem timeline) or declines and falls back to the
/// host multicore. Never panics.
#[must_use]
pub fn mesa_offload_with(
    kernel: &Kernel,
    system: &SystemConfig,
    fallback_cores: usize,
    opts: &RunOptions,
    tracer: &mut dyn Tracer,
) -> MesaRun {
    episode(kernel, system, fallback_cores, opts, tracer, false).0
}

/// Runs the kernel under the MESA system and assembles the full
/// bottleneck-attribution [`ProfileReport`] alongside the measurement:
/// top-down CPU-phase accounting, the per-PE heatmap, the measured
/// critical path, and the F3 re-optimization rounds. Declined episodes
/// yield a minimal report carrying the decline reason.
#[must_use]
pub fn mesa_profile(
    kernel: &Kernel,
    system: &SystemConfig,
    fallback_cores: usize,
) -> (MesaRun, ProfileReport) {
    let opts = RunOptions::default();
    let (run, profile) = episode(kernel, system, fallback_cores, &opts, &mut NullTracer, true);
    (run, profile.expect("profile requested"))
}

/// One MESA episode with optional profile-report assembly. The interval
/// snapshots the report needs (CPU-phase pipeline counters and traffic,
/// episode-end traffic) are sampled here, where the memory system is
/// still in scope.
fn episode(
    kernel: &Kernel,
    system: &SystemConfig,
    fallback_cores: usize,
    opts: &RunOptions,
    tracer: &mut dyn Tracer,
    want_profile: bool,
) -> (MesaRun, Option<ProfileReport>) {
    // Host-side episode span: the controller opens its per-phase
    // children (detect/translate/map/configure/offload) beneath it.
    let host_episode = host::span("episode");
    let mut mem = MemorySystem::new(system.mem, 2);
    kernel.populate(mem.data_mut());
    let mut state = kernel.entry.clone();
    tracer.span_begin(Subsystem::Harness, "harness.mesa_offload", 0);
    let outcome = run_offload_with(&kernel.program, &mut state, &mut mem, system, opts, tracer);
    let (run, profile) = match outcome {
        Ok(report) => {
            let profile = want_profile.then(|| {
                ProfileReport::from_offload(
                    kernel.name,
                    &report,
                    system,
                    region_ldfg(kernel).as_ref(),
                    Some(&mem.traffic()),
                )
            });
            let cycles = report.total_cycles();
            let total = mem_activity(&mem);
            let cpu_mem = traffic_activity(&report.cpu_phase_traffic);
            let accel_mem = activity_minus(&total, &cpu_mem);
            (
                MesaRun { report: Some(report), cycles, mem: total, cpu_mem, accel_mem, declined: None },
                profile,
            )
        }
        // Every decline — including config-stream rejections and
        // accelerator validation failures injected by fault plans — falls
        // back to the host multicore; a measurement harness must never
        // abort the whole figure because one episode declined.
        Err(e) => {
            let fb = cpu_multicore(kernel, fallback_cores);
            tracer.instant(
                Subsystem::Harness,
                "harness.fallback",
                &format!("{}: offload declined, ran on {fallback_cores}-core host", kernel.name),
                0,
            );
            let profile =
                want_profile.then(|| ProfileReport::declined(kernel.name, system, &e.to_string()));
            (
                MesaRun {
                    report: None,
                    cycles: fb.cycles,
                    mem: fb.mem,
                    cpu_mem: fb.mem,
                    accel_mem: MemActivity::default(),
                    declined: Some(e),
                },
                profile,
            )
        }
    };
    tracer.span_end(Subsystem::Harness, "harness.mesa_offload", run.cycles);
    drop(host_episode);
    // Process-global throughput counters behind the figures/soak
    // wall-clock summary lines (always on; two relaxed atomic adds).
    host::record_episode(run.cycles);
    (run, profile)
}

/// Extracts the hot-loop region of a kernel as an [`Ldfg`] (for the
/// baseline mappers, which consume the same dependence structure MESA
/// builds).
///
/// Returns `None` when the region is structurally unacceptable (e.g.
/// btree's inner loop).
#[must_use]
pub fn region_ldfg(kernel: &Kernel) -> Option<Ldfg> {
    let (start, end) = kernel.loop_region();
    let base_idx = ((start - kernel.program.base_pc) / 4) as usize;
    let len = ((end - start) / 4) as usize;
    let region = mesa_isa::Program {
        base_pc: start,
        instrs: kernel.program.instrs[base_idx..base_idx + len].to_vec(),
        annotations: kernel.program.annotations.clone(),
    };
    Ldfg::build(&region).ok()
}

/// Geometric mean of a non-empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_accel::FaultPlan;
    use mesa_workloads::{by_name, KernelSize};

    #[test]
    fn single_core_measures_something() {
        let k = by_name("pathfinder", KernelSize::Tiny).unwrap();
        let r = cpu_single(&k, CoreConfig::boom_baseline());
        assert!(r.cycles > 0 && r.retired > 0);
        assert!(r.mem.l1_accesses > 0);
    }

    #[test]
    fn multicore_beats_single_on_parallel_kernel() {
        let k = by_name("pathfinder", KernelSize::Tiny).unwrap();
        let single = cpu_single(&k, CoreConfig::boom_baseline());
        let multi = cpu_multicore(&k, 8);
        assert!(multi.cycles < single.cycles);
    }

    #[test]
    fn mesa_offload_or_fallback_never_panics_across_suite() {
        let system = SystemConfig::m128();
        for k in mesa_workloads::all(KernelSize::Tiny) {
            let r = mesa_offload(&k, &system, 4);
            assert!(r.cycles > 0, "{}", k.name);
            if k.name == "btree" {
                assert!(r.report.is_none(), "btree must fall back");
            }
        }
    }

    #[test]
    fn mesa_run_separates_warmup_from_accel_traffic() {
        // Stat hygiene: the CPU-phase snapshot (warmup monitoring +
        // overlapped configuration) must not be double-counted in the
        // accelerator's share, and the two shares must tile the total.
        let k = by_name("nn", KernelSize::Tiny).unwrap();
        let r = mesa_offload(&k, &SystemConfig::m128(), 4);
        assert!(r.report.is_some(), "nn must accelerate");
        assert!(r.cpu_mem.l1_accesses > 0, "warmup touched memory");
        assert!(r.accel_mem.l1_accesses > 0, "accelerator touched memory");
        assert!(r.accel_mem.l1_accesses < r.mem.l1_accesses);
        assert_eq!(r.cpu_mem.l1_accesses + r.accel_mem.l1_accesses, r.mem.l1_accesses);
        assert_eq!(r.cpu_mem.l2_accesses + r.accel_mem.l2_accesses, r.mem.l2_accesses);
        assert_eq!(
            r.cpu_mem.dram_accesses + r.accel_mem.dram_accesses,
            r.mem.dram_accesses
        );

        // Fallback path: everything is CPU traffic.
        let bt = by_name("btree", KernelSize::Tiny).unwrap();
        let fb = mesa_offload(&bt, &SystemConfig::m128(), 4);
        assert!(fb.report.is_none());
        assert_eq!(fb.cpu_mem, fb.mem);
        assert_eq!(fb.accel_mem, MemActivity::default());
    }

    #[test]
    fn traced_harness_run_brackets_controller_spans() {
        let k = by_name("nn", KernelSize::Tiny).unwrap();
        let mut tracer = mesa_trace::RingTracer::new(4096);
        let opts = RunOptions::default();
        let r = mesa_offload_with(&k, &SystemConfig::m128(), 4, &opts, &mut tracer);
        assert!(r.report.is_some());
        assert!(tracer.open_spans().is_empty(), "all spans closed");
        let summary = mesa_trace::validate_chrome_trace(&tracer.to_chrome_trace()).unwrap();
        for name in ["harness.mesa_offload", "detect", "configure", "offload"] {
            assert!(summary.span_names.iter().any(|n| n == name), "missing span {name}");
        }
    }

    fn offload_under(k: &Kernel, plan: FaultPlan) -> MesaRun {
        let opts = RunOptions { faults: Some(plan), cache: None };
        mesa_offload_with(k, &SystemConfig::m128(), 4, &opts, &mut NullTracer)
    }

    #[test]
    fn config_stream_fault_falls_back_instead_of_panicking() {
        let k = by_name("nn", KernelSize::Tiny).unwrap();
        let plan = FaultPlan { truncate_config: Some(2), ..FaultPlan::none() };
        let r = offload_under(&k, plan);
        assert!(r.report.is_none(), "truncated config must decline");
        assert!(
            matches!(r.declined, Some(mesa_core::MesaError::ConfigStream(_))),
            "got {:?}",
            r.declined
        );
        assert!(r.cycles > 0, "fallback multicore run measured");
        assert_eq!(r.cpu_mem, r.mem);
    }

    #[test]
    fn survivable_fault_plan_keeps_the_offload() {
        let k = by_name("nn", KernelSize::Tiny).unwrap();
        let plan = FaultPlan { bus_drop_period: 4, ..FaultPlan::none() };
        let r = offload_under(&k, plan);
        assert!(r.report.is_some(), "bus drops are survivable: {:?}", r.declined);
    }

    #[test]
    fn region_ldfg_matches_loop_len() {
        let k = by_name("nn", KernelSize::Tiny).unwrap();
        let ldfg = region_ldfg(&k).unwrap();
        assert_eq!(ldfg.len(), 13);
        // btree's innermost loop (the key scan) is what the detector sees.
        let bt = region_ldfg(&by_name("btree", KernelSize::Tiny).unwrap()).unwrap();
        assert_eq!(bt.len(), 6);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
