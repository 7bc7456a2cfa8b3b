//! Functional fast-forward: interpreter-speed execution between the
//! timing-accurate windows.
//!
//! The OoO timing model pays scoreboard bookkeeping for every retired
//! instruction, even in code whose timing nobody will read (warmup,
//! straight-line glue between offloaded loops). [`FastForward`] runs such
//! regions as a pure functional interpreter over the predecoded
//! [`FlatOp`] cache — no issue ring, no ROB, no per-instruction events —
//! and charges a calibrated cycle *estimate* from a [`CpiModel`] derived
//! from the core configuration.
//!
//! [`HybridCpu`] composes the two: it fast-forwards until the
//! [`LoopStreamDetector`] flags a hot loop, hands the loop's first
//! iterations to the full [`OoOCore`] to *sample* a cycles-per-instruction
//! rate, then fast-forwards the remaining iterations charging the sampled
//! rate. Both engines share one [`BranchPredictor`] and execute every
//! instruction exactly once in program order, so the architectural final
//! state — registers, memory, and the retired-PC stream — is identical to
//! a full OoO run (property-tested in `mesa-bench`); only the cycle
//! accounting is approximate.

use crate::config::CoreConfig;
use crate::frontend::LoopStreamDetector;
use crate::ooo::{
    FusionCounts, OoOCore, RetireEvent, RetireMonitor, RunLimits, RunResult, StopReason,
};
use crate::predictor::BranchPredictor;
use mesa_isa::{step, step_flat, FlatOp, Instruction, Outcome, Program, Xlen};
use mesa_isa::{ArchState, StepInfo};
use mesa_mem::MemorySystem;

/// Instructions fast-forwarded per detection quantum before the hybrid
/// loop re-checks the loop-stream detector.
const FF_QUANTUM: u64 = 512;

/// Calibrated cycles-per-instruction model used to charge fast-forwarded
/// regions when no sampled rate is available.
///
/// The estimate is deliberately simple — issue-width-limited base
/// throughput plus flat penalties for loads, mispredicts, and syscalls —
/// because precise timing comes from the sampled OoO windows, not from
/// this model. Calibration against `pathfinder_tiny` puts the whole-run
/// error of the bare model under 10%.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpiModel {
    /// Instructions the core can sustain per cycle (base throughput).
    pub issue_width: u64,
    /// Cycles charged per mispredicted branch.
    pub mispredict_penalty: u64,
    /// Cycles charged per load (typical L1-hit latency under some pressure).
    pub load_penalty: u64,
    /// Cycles charged per syscall (matches the OoO model's System latency).
    pub syscall_penalty: u64,
}

impl CpiModel {
    /// Derives the estimate model from the timed core's configuration.
    #[must_use]
    fn from_config(cfg: &CoreConfig) -> Self {
        CpiModel {
            issue_width: u64::from(cfg.issue_width).max(1),
            mispredict_penalty: cfg.mispredict_penalty,
            load_penalty: 4,
            syscall_penalty: 200,
        }
    }

    /// Cycle estimate for a fast-forwarded region with the given event
    /// counts.
    #[must_use]
    pub fn estimate(&self, retired: u64, loads: u64, mispredicts: u64, syscalls: u64) -> u64 {
        retired.div_ceil(self.issue_width)
            + loads * self.load_penalty
            + mispredicts * self.mispredict_penalty
            + syscalls * self.syscall_penalty
    }
}

/// Outcome of one [`FastForward::run`] region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfResult {
    /// Estimated cycles for the region (from the [`CpiModel`]).
    pub est_cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Branches the shared predictor would have mispredicted.
    pub mispredicts: u64,
    /// Non-exit `ecall`s executed.
    pub syscalls: u64,
    /// Why the region ended.
    pub stop: StopReason,
}

impl FfResult {
    /// Converts to the timing model's result type so callers that consume
    /// [`RunResult`] can treat fast-forwarded regions uniformly. The
    /// estimate lands in `cycles`; purely microarchitectural counters
    /// (issue wait, fetch redirects) are zero because no pipeline ran.
    #[must_use]
    pub fn as_run_result(&self) -> RunResult {
        RunResult {
            cycles: self.est_cycles,
            retired: self.retired,
            loads: self.loads,
            stores: self.stores,
            branches: self.branches,
            mispredicts: self.mispredicts,
            issue_wait_cycles: 0,
            fetch_redirects: 0,
            fusion: FusionCounts::default(),
            stop: self.stop,
        }
    }
}

/// Predecoded flat-op cache for the fast-forward interpreter (the
/// functional analogue of the OoO core's micro-op cache).
#[derive(Debug, Clone)]
struct FfPredecoded {
    base_pc: u64,
    instrs: Vec<Instruction>,
    flat: Vec<Option<FlatOp>>,
}

impl FfPredecoded {
    fn matches(&self, program: &Program) -> bool {
        self.base_pc == program.base_pc
            && self.instrs.len() == program.instrs.len()
            && self.instrs.iter().zip(&program.instrs).all(|(a, b)| a == b)
    }

    fn build(program: &Program, xlen: Xlen) -> Self {
        FfPredecoded {
            base_pc: program.base_pc,
            instrs: program.instrs.clone(),
            flat: program.instrs.iter().map(|i| FlatOp::lower(i, xlen)).collect(),
        }
    }
}

/// Pure-functional fast-forward interpreter.
///
/// Runs a program region at interpreter speed — no cycle-accurate pipeline
/// — while keeping every *architecturally visible* effect identical to the
/// timing model: registers, memory, the shared [`BranchPredictor`]'s
/// training, and (when the monitor wants them) retire events in program
/// order. Stop semantics (`stop_pc` checked before executing, `max_instrs`,
/// out-of-program, halt) mirror [`OoOCore::run`] exactly so the two can be
/// interleaved at any boundary.
#[derive(Debug, Clone)]
pub struct FastForward {
    model: CpiModel,
    pre: Option<FfPredecoded>,
}

impl FastForward {
    /// A fast-forward engine whose cycle estimates are calibrated to `cfg`.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        FastForward { model: CpiModel::from_config(cfg), pre: None }
    }

    /// The cycle-estimate model in use.
    #[must_use]
    pub fn model(&self) -> CpiModel {
        self.model
    }

    /// Fast-forwards until a [`RunLimits`] bound, program exit, or halt.
    ///
    /// `predictor` is trained on every conditional branch exactly as the
    /// timing model trains it, so hybrid execution sees one coherent branch
    /// history and the mispredict *count* matches a full OoO run. `lsd`,
    /// when provided, observes the retire stream so the caller can detect
    /// hot loops without paying for full [`RetireEvent`] construction.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        program: &Program,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        predictor: &mut BranchPredictor,
        limits: RunLimits,
        monitor: &mut dyn RetireMonitor,
        mut lsd: Option<&mut LoopStreamDetector>,
    ) -> FfResult {
        if self.pre.as_ref().is_none_or(|p| !p.matches(program)) {
            self.pre = Some(FfPredecoded::build(program, state.xlen));
        }
        let pre = self.pre.as_ref().expect("predecode populated above");
        let base_pc = pre.base_pc;
        let wants_events = monitor.wants_events();

        let mut r = FfResult {
            est_cycles: 0,
            retired: 0,
            loads: 0,
            stores: 0,
            branches: 0,
            mispredicts: 0,
            syscalls: 0,
            stop: StopReason::OutOfProgram,
        };

        let data = mem.data_mut();
        loop {
            if let Some(stop) = limits.stop_pc {
                if state.pc == stop {
                    r.stop = StopReason::StopPc;
                    break;
                }
            }
            if limits.max_instrs > 0 && r.retired >= limits.max_instrs {
                r.stop = StopReason::InstrLimit;
                break;
            }
            let pc = state.pc;
            let idx = if pc < base_pc || !(pc - base_pc).is_multiple_of(4) {
                usize::MAX
            } else {
                ((pc - base_pc) / 4) as usize
            };
            if idx >= pre.instrs.len() {
                r.stop = StopReason::OutOfProgram;
                break;
            }

            let info: StepInfo = match pre.flat[idx] {
                Some(op) => step_flat(state, &op, data),
                None => step(state, &pre.instrs[idx], data),
            };
            r.retired += 1;

            match info.outcome {
                Outcome::Branch { taken, target } => {
                    r.branches += 1;
                    if !predictor.update(pc, taken, target) {
                        r.mispredicts += 1;
                    }
                    if let Some(l) = lsd.as_deref_mut() {
                        l.observe(pc, info.outcome);
                    }
                }
                Outcome::Syscall => r.syscalls += 1,
                _ => {}
            }
            if let Some(m) = info.mem {
                if m.is_store {
                    r.stores += 1;
                } else {
                    r.loads += 1;
                }
            }
            if wants_events {
                let mem_latency = info.mem.map(|m| {
                    if m.is_store {
                        1
                    } else {
                        self.model.load_penalty
                    }
                });
                monitor.on_retire(&RetireEvent {
                    pc,
                    instr: pre.instrs[idx],
                    info,
                    mem_latency,
                    complete_cycle: r.retired,
                    commit_cycle: r.retired,
                });
            }
            if info.outcome == Outcome::Halt {
                r.stop = StopReason::Halted;
                break;
            }
        }

        r.est_cycles = self.model.estimate(r.retired, r.loads, r.mispredicts, r.syscalls);
        r
    }
}

/// Instruction accounting from one [`HybridCpu`] run: how much work went
/// through each engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Instructions executed by the fast-forward interpreter.
    pub ff_instrs: u64,
    /// Instructions executed by the cycle-accurate OoO model.
    pub simulated_instrs: u64,
    /// Hot-loop windows sampled with the timing model.
    pub windows: u64,
}

impl FastForwardStats {
    /// Fraction of all instructions handled at interpreter speed.
    #[must_use]
    pub fn ff_fraction(&self) -> f64 {
        let total = self.ff_instrs + self.simulated_instrs;
        if total == 0 {
            0.0
        } else {
            self.ff_instrs as f64 / total as f64
        }
    }

    /// Folds another run's accounting into this one.
    pub fn absorb(&mut self, other: &FastForwardStats) {
        self.ff_instrs += other.ff_instrs;
        self.simulated_instrs += other.simulated_instrs;
        self.windows += other.windows;
    }
}

/// Sampled-window hybrid of [`FastForward`] and [`OoOCore`].
///
/// Cold code fast-forwards in [`FF_QUANTUM`]-instruction quanta with a
/// private [`LoopStreamDetector`] watching the branch stream. When a loop
/// goes hot, the hybrid aligns to the loop head, runs `sample_iterations`
/// iterations on the full timing model to measure the loop's real
/// cycles-per-instruction, then fast-forwards the remaining iterations
/// charging that sampled rate. Architectural state is exact; cycles are an
/// estimate whose error `mesa-bench` measures against full simulation.
#[derive(Debug)]
pub struct HybridCpu {
    core: OoOCore,
    ff: FastForward,
    /// Loop iterations before a region is considered hot.
    lsd_threshold: u64,
    /// Hot-loop iterations in the *short* measurement slice (the long
    /// slice runs twice this); kept a multiple of 16 so each slice covers
    /// whole cache-line reuse periods of word-stride streams.
    sample_iterations: u64,
    stats: FastForwardStats,
}

impl HybridCpu {
    /// A hybrid CPU over a fresh OoO core with the given configuration.
    #[must_use]
    pub fn new(cfg: CoreConfig) -> Self {
        HybridCpu {
            core: OoOCore::new(cfg),
            ff: FastForward::new(&cfg),
            lsd_threshold: 3,
            sample_iterations: 16,
            stats: FastForwardStats::default(),
        }
    }

    /// The underlying timing core (e.g. for predictor inspection).
    #[must_use]
    pub fn core(&self) -> &OoOCore {
        &self.core
    }

    /// Cumulative fast-forward/simulated instruction accounting.
    #[must_use]
    pub fn stats(&self) -> FastForwardStats {
        self.stats
    }

    /// Remaining-instruction budget: `None` = unlimited, `Some(0)` = spent.
    fn remaining(limits: RunLimits, used: u64) -> Option<u64> {
        if limits.max_instrs == 0 {
            None
        } else {
            Some(limits.max_instrs.saturating_sub(used))
        }
    }

    /// Runs the program under hybrid execution.
    ///
    /// Calls with a `stop_pc` delegate to the timing core unchanged —
    /// windowed callers (the controller's monitoring and overlap quanta)
    /// are asking for precise timing of a specific region, which is exactly
    /// what fast-forward must not approximate.
    pub fn run(
        &mut self,
        program: &Program,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        requester: usize,
        limits: RunLimits,
        monitor: &mut dyn RetireMonitor,
    ) -> RunResult {
        if limits.stop_pc.is_some() {
            return self.core.run(program, state, mem, requester, limits, monitor);
        }

        let mut total = RunResult {
            cycles: 0,
            retired: 0,
            loads: 0,
            stores: 0,
            branches: 0,
            mispredicts: 0,
            issue_wait_cycles: 0,
            fetch_redirects: 0,
            fusion: FusionCounts::default(),
            stop: StopReason::OutOfProgram,
        };
        let mut lsd = LoopStreamDetector::new(self.lsd_threshold);

        loop {
            let rem = match Self::remaining(limits, total.retired) {
                Some(0) => {
                    total.stop = StopReason::InstrLimit;
                    break;
                }
                rem => rem,
            };

            // Phase A: fast-forward one detection quantum.
            let quantum = rem.map_or(FF_QUANTUM, |n| n.min(FF_QUANTUM));
            let r = self.ff.run(
                program,
                state,
                mem,
                self.core.predictor_mut(),
                RunLimits::instrs(quantum),
                monitor,
                Some(&mut lsd),
            );
            self.stats.ff_instrs += r.retired;
            Self::absorb_ff(&mut total, &r, r.est_cycles);
            if r.stop != StopReason::InstrLimit {
                total.stop = r.stop;
                break;
            }

            let Some(hot) = lsd.hot_loop() else { continue };
            if hot.is_empty() {
                lsd.reset();
                continue;
            }
            let window = hot.len() as u64;

            // Align to the loop head so the timing sample starts at the
            // region boundary (same idiom as the controller's episode
            // alignment). A failure to land there within two iterations
            // means the loop exited; drop the candidate and keep going.
            if state.pc != hot.start_pc {
                let rem = match Self::remaining(limits, total.retired) {
                    Some(0) => {
                        total.stop = StopReason::InstrLimit;
                        break;
                    }
                    rem => rem,
                };
                let budget = rem.map_or(2 * window, |n| n.min(2 * window));
                let r = self.ff.run(
                    program,
                    state,
                    mem,
                    self.core.predictor_mut(),
                    RunLimits { max_instrs: budget, stop_pc: Some(hot.start_pc) },
                    monitor,
                    Some(&mut lsd),
                );
                self.stats.ff_instrs += r.retired;
                Self::absorb_ff(&mut total, &r, r.est_cycles);
                match r.stop {
                    StopReason::StopPc => {}
                    StopReason::InstrLimit => {
                        lsd.reset();
                        continue;
                    }
                    other => {
                        total.stop = other;
                        break;
                    }
                }
            }

            // Phase B: timing-accurate sample of the hot loop, in two
            // back-to-back slices. Fast-forward executes through
            // `mem.data_mut()`, bypassing the cache hierarchy, so the
            // timing core arrives at the loop with cold caches: the first
            // couple of iterations pay compulsory misses the steady state
            // never sees. The warm-up slice absorbs those (its *real*
            // cycles are still charged — they genuinely happened); only
            // the second, warm slice sets the rate extrapolated in
            // Phase C.
            let rem = match Self::remaining(limits, total.retired) {
                Some(0) => {
                    total.stop = StopReason::InstrLimit;
                    break;
                }
                rem => rem,
            };
            let warmup = rem.map_or(2 * window, |n| n.min(2 * window));
            mem.settle_timing();
            let r = self.core.run(
                program,
                state,
                mem,
                requester,
                RunLimits { max_instrs: warmup, stop_pc: Some(hot.end_pc) },
                monitor,
            );
            self.stats.simulated_instrs += r.retired;
            Self::absorb_ooo(&mut total, &r);
            match r.stop {
                StopReason::InstrLimit => {}
                StopReason::StopPc => {
                    // Loop exited during the warm-up — nothing to sample.
                    lsd.reset();
                    continue;
                }
                other => {
                    total.stop = other;
                    break;
                }
            }

            // Two warm measurement slices, one twice as long as the other.
            // Each standalone `core.run` pays a fixed pipeline fill/drain
            // overhead that a continuous run amortizes away; taking the
            // *delta* rate `(C_long - C_short) / (N_long - N_short)`
            // cancels it exactly. `sample_iterations` is a multiple of 16
            // — the cache-line reuse period of a word-stride stream — so
            // both slices see the same steady-state hit/miss mix and the
            // delta charges exactly whole periods.
            let mut slices = [(0u64, 0u64); 2];
            let mut exited = false;
            for (i, slice) in slices.iter_mut().enumerate() {
                let rem = match Self::remaining(limits, total.retired) {
                    Some(0) => {
                        total.stop = StopReason::InstrLimit;
                        break;
                    }
                    rem => rem,
                };
                let want = (i as u64 + 1) * self.sample_iterations * window;
                let sample = rem.map_or(want, |n| n.min(want));
                mem.settle_timing();
                let r = self.core.run(
                    program,
                    state,
                    mem,
                    requester,
                    RunLimits { max_instrs: sample, stop_pc: Some(hot.end_pc) },
                    monitor,
                );
                self.stats.simulated_instrs += r.retired;
                *slice = (r.cycles, r.retired);
                Self::absorb_ooo(&mut total, &r);
                match r.stop {
                    StopReason::InstrLimit => {}
                    StopReason::StopPc => {
                        // Loop exited during the sample — nothing to charge.
                        exited = true;
                        break;
                    }
                    other => {
                        total.stop = other;
                        break;
                    }
                }
            }
            if total.stop != StopReason::OutOfProgram || exited {
                if exited {
                    lsd.reset();
                    continue;
                }
                break;
            }
            self.stats.windows += 1;
            let [(c_short, n_short), (c_long, n_long)] = slices;
            // Delta rate when both slices completed; fall back to the long
            // slice's raw rate if the delta is degenerate (noise, or the
            // limit truncated a slice).
            let (sampled_cycles, sampled_instrs) =
                if n_long > n_short && c_long > c_short {
                    (c_long - c_short, n_long - n_short)
                } else {
                    (c_long, n_long.max(1))
                };

            // Phase C: fast-forward the remaining iterations, charging the
            // sampled per-instruction rate instead of the generic model.
            let rem = match Self::remaining(limits, total.retired) {
                Some(0) => {
                    total.stop = StopReason::InstrLimit;
                    break;
                }
                rem => rem,
            };
            let r = self.ff.run(
                program,
                state,
                mem,
                self.core.predictor_mut(),
                RunLimits { max_instrs: rem.unwrap_or(0), stop_pc: Some(hot.end_pc) },
                monitor,
                Some(&mut lsd),
            );
            self.stats.ff_instrs += r.retired;
            let charged = ((u128::from(r.retired) * u128::from(sampled_cycles))
                / u128::from(sampled_instrs)) as u64;
            Self::absorb_ff(&mut total, &r, charged);
            lsd.reset();
            match r.stop {
                StopReason::StopPc | StopReason::InstrLimit => {}
                other => {
                    total.stop = other;
                    break;
                }
            }
        }

        total
    }

    fn absorb_ff(total: &mut RunResult, r: &FfResult, cycles: u64) {
        total.cycles += cycles;
        total.retired += r.retired;
        total.loads += r.loads;
        total.stores += r.stores;
        total.branches += r.branches;
        total.mispredicts += r.mispredicts;
    }

    fn absorb_ooo(total: &mut RunResult, r: &RunResult) {
        total.cycles += r.cycles;
        total.retired += r.retired;
        total.loads += r.loads;
        total.stores += r.stores;
        total.branches += r.branches;
        total.mispredicts += r.mispredicts;
        total.issue_wait_cycles += r.issue_wait_cycles;
        total.fetch_redirects += r.fetch_redirects;
        total.fusion.absorb(&r.fusion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooo::NullMonitor;
    use mesa_isa::{reg::abi::*, Asm};
    use mesa_mem::MemConfig;

    fn sum_loop(iters: u64) -> Program {
        let mut a = Asm::new(0x1000);
        a.li(T1, iters as i64);
        a.label("loop");
        a.addi(T0, T0, 1);
        a.addi(T2, T2, 2);
        a.bne(T0, T1, "loop");
        a.li(A7, 93);
        a.ecall();
        a.finish().expect("asm")
    }

    fn fresh() -> (ArchState, MemorySystem) {
        (ArchState::new(0x1000, Xlen::Rv32), MemorySystem::new(MemConfig::default(), 1))
    }

    #[test]
    fn fast_forward_matches_ooo_architectural_state() {
        let prog = sum_loop(100);
        let (mut sa, mut ma) = fresh();
        let (mut sb, mut mb) = fresh();

        let mut core = OoOCore::new(CoreConfig::default());
        let ra = core.run(&prog, &mut sa, &mut ma, 0, RunLimits::none(), &mut NullMonitor);

        let mut ff = FastForward::new(&CoreConfig::default());
        let mut pred = BranchPredictor::default();
        let rb = ff.run(
            &prog,
            &mut sb,
            &mut mb,
            &mut pred,
            RunLimits::none(),
            &mut NullMonitor,
            None,
        );

        assert_eq!(ra.stop, StopReason::Halted);
        assert_eq!(rb.stop, StopReason::Halted);
        assert_eq!(ra.retired, rb.retired);
        assert_eq!(ra.branches, rb.branches);
        assert_eq!(ra.mispredicts, rb.mispredicts);
        assert_eq!(sa, sb);
        assert!(rb.est_cycles > 0);
    }

    #[test]
    fn fast_forward_honors_stop_pc_and_instr_limits() {
        let prog = sum_loop(50);
        let (mut st, mut mem) = fresh();
        let mut ff = FastForward::new(&CoreConfig::default());
        let mut pred = BranchPredictor::default();

        let r = ff.run(
            &prog,
            &mut st,
            &mut mem,
            &mut pred,
            RunLimits::instrs(5),
            &mut NullMonitor,
            None,
        );
        assert_eq!(r.stop, StopReason::InstrLimit);
        assert_eq!(r.retired, 5);

        let stop = prog.base_pc + 4; // loop head
        let r = ff.run(
            &prog,
            &mut st,
            &mut mem,
            &mut pred,
            RunLimits { max_instrs: 0, stop_pc: Some(stop) },
            &mut NullMonitor,
            None,
        );
        assert_eq!(r.stop, StopReason::StopPc);
        assert_eq!(st.pc, stop);
    }

    #[test]
    fn hybrid_matches_full_ooo_final_state() {
        let prog = sum_loop(400);
        let (mut sa, mut ma) = fresh();
        let (mut sb, mut mb) = fresh();

        let mut core = OoOCore::new(CoreConfig::default());
        let ra = core.run(&prog, &mut sa, &mut ma, 0, RunLimits::none(), &mut NullMonitor);

        let mut hybrid = HybridCpu::new(CoreConfig::default());
        let rb = hybrid.run(&prog, &mut sb, &mut mb, 0, RunLimits::none(), &mut NullMonitor);

        assert_eq!(ra.stop, rb.stop);
        assert_eq!(ra.retired, rb.retired);
        assert_eq!(ra.branches, rb.branches);
        assert_eq!(ra.mispredicts, rb.mispredicts);
        assert_eq!(sa, sb);

        let stats = hybrid.stats();
        assert!(stats.ff_instrs > 0, "hybrid never fast-forwarded: {stats:?}");
        assert!(stats.simulated_instrs > 0, "hybrid never sampled: {stats:?}");
        assert!(stats.windows >= 1);
        // Cycle estimate should be in the ballpark of the real run.
        let err = (rb.cycles as f64 - ra.cycles as f64).abs() / ra.cycles as f64;
        assert!(err < 0.5, "hybrid cycle error {err:.2} (est {} vs {})", rb.cycles, ra.cycles);
    }

    #[test]
    fn hybrid_delegates_stop_pc_runs_to_the_timing_core() {
        let prog = sum_loop(50);
        let (mut sa, mut ma) = fresh();
        let (mut sb, mut mb) = fresh();
        let limits = RunLimits { max_instrs: 0, stop_pc: Some(prog.base_pc + 4) };

        let mut core = OoOCore::new(CoreConfig::default());
        let ra = core.run(&prog, &mut sa, &mut ma, 0, limits, &mut NullMonitor);

        let mut hybrid = HybridCpu::new(CoreConfig::default());
        let rb = hybrid.run(&prog, &mut sb, &mut mb, 0, limits, &mut NullMonitor);

        assert_eq!(ra, rb);
        assert_eq!(hybrid.stats(), FastForwardStats::default());
    }

    #[test]
    fn cpi_model_estimate_is_monotone() {
        let m = CpiModel::from_config(&CoreConfig::default());
        assert!(m.estimate(100, 0, 0, 0) < m.estimate(100, 10, 0, 0));
        assert!(m.estimate(100, 0, 0, 0) < m.estimate(100, 0, 5, 0));
        assert!(m.estimate(100, 0, 0, 0) < m.estimate(100, 0, 0, 1));
        assert_eq!(m.estimate(0, 0, 0, 0), 0);
    }
}
