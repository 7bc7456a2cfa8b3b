//! Differential arbitration of the CPU speed layers (macro-op fusion and
//! functional fast-forward): both optimizations must be invisible to
//! architecture. Fused and unfused execution agree on the final state and
//! on every retired instruction's timing over random generated kernels;
//! the hybrid fast-forward/OoO handoff preserves registers, memory, the
//! retired-PC stream, and the predictor-visible branch history at every
//! boundary. A final (non-property) test measures the hybrid's
//! cycle-estimate error against full simulation — the number
//! EXPERIMENTS.md's fast-forward recipe reports.

use mesa_bench::kernelgen::{self, ARR_A, ARR_OUT, ITERS};
use mesa_cpu::{
    CoreConfig, HybridCpu, NullMonitor, OoOCore, RetireEvent, RetireMonitor, RunLimits,
};
use mesa_mem::{MemConfig, MemorySystem};
use mesa_test::{forall, prop_assert_eq, Checker};
use mesa_workloads::{by_name, KernelSize};

/// Persisted counterexample seeds, replayed before novel cases.
const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cpu_speed.proptest-regressions");

fn checker(name: &str, cases: u32) -> Checker {
    Checker::new(name).cases(cases).regressions_file(REGRESSIONS)
}

/// Records every retire event's `(pc, complete_cycle, commit_cycle,
/// mem_latency)`: the per-instruction timing the fused ≡ unfused oracle
/// compares event by event.
#[derive(Default)]
struct RetireLog(Vec<(u64, u64, u64, Option<u64>)>);

impl RetireMonitor for RetireLog {
    fn on_retire(&mut self, e: &RetireEvent) {
        self.0.push((e.pc, e.complete_cycle, e.commit_cycle, e.mem_latency));
    }
}

/// Runs `seed`'s generated kernel on a fresh core and returns everything
/// architecture-visible (plus the timing result and retire stream for
/// invariance checks).
fn run_generated(
    seed: u64,
    fusion: bool,
) -> (mesa_cpu::RunResult, mesa_isa::ArchState, MemorySystem, RetireLog) {
    let program = kernelgen::random_loop(seed);
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    kernelgen::populate_input(&mut mem, seed);
    let mut state = kernelgen::entry_state(seed);
    let mut cpu = OoOCore::new(CoreConfig { fusion, ..CoreConfig::boom_baseline() });
    let mut log = RetireLog::default();
    let r = cpu.run(&program, &mut state, &mut mem, 0, RunLimits::none(), &mut log);
    (r, state, mem, log)
}

/// Words of the input + output arrays — the full memory footprint a
/// generated kernel can touch.
fn array_words(mem: &mut MemorySystem) -> Vec<u32> {
    let data = mem.data_mut();
    let mut words: Vec<u32> = (0..ITERS).map(|i| data.load_u32(ARR_A + 4 * i)).collect();
    words.extend((0..2 * ITERS).map(|i| data.load_u32(ARR_OUT + 4 * i)));
    words
}

/// Fused and unfused execution are differentially arbitrated over random
/// kernels: identical timing, in total and per retired instruction,
/// identical architectural state, identical memory. Only the fusion
/// counters may differ.
#[test]
fn fused_and_unfused_agree_on_random_kernels() {
    forall!(checker("fused_vs_unfused_kernelgen", 128), |(seed in 0u64..1_000_000)| {
        let (fused, st_f, mut mem_f, log_f) = run_generated(seed, true);
        let (unfused, st_u, mut mem_u, log_u) = run_generated(seed, false);
        let mut masked = fused;
        masked.fusion = unfused.fusion;
        prop_assert_eq!(masked, unfused, "timing diverged (seed {seed})");
        if let Some(i) = (0..log_f.0.len().max(log_u.0.len()))
            .find(|&i| log_f.0.get(i) != log_u.0.get(i))
        {
            prop_assert_eq!(log_f.0.get(i), log_u.0.get(i),
                "retire event {i} (pc, complete, commit, mem_latency) diverged (seed {seed})");
        }
        prop_assert_eq!(st_f, st_u, "arch state diverged (seed {seed})");
        prop_assert_eq!(array_words(&mut mem_f), array_words(&mut mem_u),
            "memory diverged (seed {seed})");
        // And both match the plain-ISA golden interpretation.
        let program = kernelgen::random_loop(seed);
        let (gold_st, mut gold_mem) = kernelgen::golden(&program, seed);
        prop_assert_eq!(st_f, gold_st, "arch state diverged from golden (seed {seed})");
        prop_assert_eq!(array_words(&mut mem_f), array_words(&mut gold_mem),
            "memory diverged from golden (seed {seed})");
    });
}

/// Collects the retired-PC stream and per-branch outcomes — the
/// predictor-visible history — so hybrid and full-OoO runs can be compared
/// event by event across every fast-forward handoff boundary.
#[derive(Default)]
struct PcStream {
    pcs: Vec<u64>,
    branches: Vec<(u64, bool)>,
}

impl RetireMonitor for PcStream {
    fn on_retire(&mut self, e: &RetireEvent) {
        self.pcs.push(e.pc);
        if let mesa_isa::Outcome::Branch { taken, .. } = e.info.outcome {
            self.branches.push((e.pc, taken));
        }
    }
}

/// The fast-forward → sampled-window handoff preserves the register file,
/// memory, retired-PC stream, and branch history over random kernels.
#[test]
fn hybrid_handoff_preserves_architectural_state() {
    forall!(checker("hybrid_vs_full_ooo_kernelgen", 128), |(seed in 0u64..1_000_000)| {
        let program = kernelgen::random_loop(seed);

        let mut mem_h = MemorySystem::new(MemConfig::default(), 1);
        kernelgen::populate_input(&mut mem_h, seed);
        let mut st_h = kernelgen::entry_state(seed);
        let mut hybrid = HybridCpu::new(CoreConfig::boom_baseline());
        let mut ev_h = PcStream::default();
        let rh = hybrid.run(&program, &mut st_h, &mut mem_h, 0, RunLimits::none(), &mut ev_h);

        let mut mem_o = MemorySystem::new(MemConfig::default(), 1);
        kernelgen::populate_input(&mut mem_o, seed);
        let mut st_o = kernelgen::entry_state(seed);
        let mut core = OoOCore::new(CoreConfig::boom_baseline());
        let mut ev_o = PcStream::default();
        let ro = core.run(&program, &mut st_o, &mut mem_o, 0, RunLimits::none(), &mut ev_o);

        prop_assert_eq!(rh.stop, ro.stop, "stop reason diverged (seed {seed})");
        prop_assert_eq!(rh.retired, ro.retired, "retired count diverged (seed {seed})");
        prop_assert_eq!(st_h, st_o, "arch state diverged (seed {seed})");
        prop_assert_eq!(array_words(&mut mem_h), array_words(&mut mem_o),
            "memory diverged (seed {seed})");
        prop_assert_eq!(ev_h.pcs, ev_o.pcs, "retired-PC stream diverged (seed {seed})");
        prop_assert_eq!(ev_h.branches, ev_o.branches,
            "branch history diverged (seed {seed})");
        prop_assert_eq!(rh.branches, ro.branches, "branch count diverged (seed {seed})");
        prop_assert_eq!(rh.loads, ro.loads, "load count diverged (seed {seed})");
        prop_assert_eq!(rh.stores, ro.stores, "store count diverged (seed {seed})");
    });
}

/// The handoff also composes with instruction limits: stopping a hybrid
/// run mid-stream (possibly mid-window) leaves exactly the same prefix
/// behind as stopping the timing core at the same instruction count.
#[test]
fn hybrid_handoff_is_exact_at_every_instr_limit() {
    forall!(
        checker("hybrid_limit_boundaries", 96),
        |(seed in 0u64..1_000_000, limit in 1u64..600)| {
            let program = kernelgen::random_loop(seed);
            let limits = RunLimits::instrs(limit);

            let mut mem_h = MemorySystem::new(MemConfig::default(), 1);
            kernelgen::populate_input(&mut mem_h, seed);
            let mut st_h = kernelgen::entry_state(seed);
            let mut hybrid = HybridCpu::new(CoreConfig::boom_baseline());
            let rh = hybrid.run(&program, &mut st_h, &mut mem_h, 0, limits, &mut NullMonitor);

            let mut mem_o = MemorySystem::new(MemConfig::default(), 1);
            kernelgen::populate_input(&mut mem_o, seed);
            let mut st_o = kernelgen::entry_state(seed);
            let mut core = OoOCore::new(CoreConfig::boom_baseline());
            let ro = core.run(&program, &mut st_o, &mut mem_o, 0, limits, &mut NullMonitor);

            prop_assert_eq!(rh.retired, ro.retired, "retired diverged (seed {seed})");
            prop_assert_eq!(rh.stop, ro.stop, "stop diverged (seed {seed})");
            prop_assert_eq!(st_h, st_o, "arch state diverged (seed {seed})");
            prop_assert_eq!(array_words(&mut mem_h), array_words(&mut mem_o),
                "memory diverged (seed {seed})");
        }
    );
}

/// Measures the hybrid cycle estimate against full simulation on the
/// Rodinia kernels — the number the EXPERIMENTS.md fast-forward recipe
/// reports. Run with `--nocapture` to see per-kernel errors.
#[test]
fn fastfwd_timing_error_is_bounded() {
    let mut worst: f64 = 0.0;
    for name in ["pathfinder", "nn", "srad", "hotspot", "backprop"] {
        let Some(kernel) = by_name(name, KernelSize::Tiny) else { continue };

        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        let mut state = kernel.entry.clone();
        let mut core = OoOCore::new(CoreConfig::boom_baseline());
        let full =
            core.run(&kernel.program, &mut state, &mut mem, 0, RunLimits::none(), &mut NullMonitor);

        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        kernel.populate(mem.data_mut());
        let mut state = kernel.entry.clone();
        let mut hybrid = HybridCpu::new(CoreConfig::boom_baseline());
        let est = hybrid.run(
            &kernel.program,
            &mut state,
            &mut mem,
            0,
            RunLimits::none(),
            &mut NullMonitor,
        );

        assert_eq!(est.retired, full.retired, "{name}: instruction counts must agree");
        let err = (est.cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
        let stats = hybrid.stats();
        println!(
            "fastfwd {name}: full={} est={} err={:.1}% ff_fraction={:.2} windows={}",
            full.cycles,
            est.cycles,
            err * 100.0,
            stats.ff_fraction(),
            stats.windows
        );
        worst = worst.max(err);
    }
    assert!(worst < 0.10, "worst-case fast-forward timing error {:.1}% ≥ 10%", worst * 100.0);
}
