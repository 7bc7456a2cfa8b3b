//! One-pass out-of-order core timing model.
//!
//! Instructions are executed functionally in program order (so values,
//! branch outcomes, and effective addresses are exact) while timing is
//! computed with a dataflow scoreboard: each dynamic instruction's
//! completion is bounded by operand readiness, functional-unit and issue
//! bandwidth, ROB occupancy, fetch redirects on mispredicted branches, and
//! in-order commit. This is the standard trace-driven OoO approximation and
//! yields credible IPC without simulating wrong-path work.

use crate::{BranchPredictor, CoreConfig};
use mesa_isa::{
    step, step_flat, step_fused, ArchState, FlatOp, FusedKind, FusedOp, Instruction, OpClass,
    Outcome, Program, StepInfo, Xlen,
};
use mesa_mem::MemorySystem;

/// Stop conditions for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimits {
    /// Stop after this many retired instructions (0 = unlimited).
    pub max_instrs: u64,
    /// Stop when fetch reaches this PC (checked before executing it).
    pub stop_pc: Option<u64>,
}

impl RunLimits {
    /// Unlimited run until `Halt` or program exit.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Stop after `n` retired instructions.
    #[must_use]
    pub fn instrs(n: u64) -> Self {
        RunLimits { max_instrs: n, stop_pc: None }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `ecall` exit or `ebreak`.
    Halted,
    /// The PC left the program's address range.
    OutOfProgram,
    /// `RunLimits::max_instrs` reached.
    InstrLimit,
    /// `RunLimits::stop_pc` reached.
    StopPc,
}

/// Per-idiom macro-op fusion hit counters from one run.
///
/// All zero when fusion is disabled (`CoreConfig::fusion == false`), the
/// core is RV64, or the program offered no fusable adjacent pairs. Fusion
/// is timing-invariant — these counters report simulator fast-path
/// coverage, not a microarchitectural effect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionCounts {
    /// Compare + conditional-branch pairs executed fused.
    pub cmp_branch: u64,
    /// Address-generation + load pairs executed fused.
    pub addr_load: u64,
    /// Address-generation + store pairs executed fused.
    pub addr_store: u64,
    /// ALU + ALU chain pairs executed fused.
    pub alu_alu: u64,
}

impl FusionCounts {
    /// Total fused pairs across all idioms (each pair covers 2 retired
    /// instructions).
    #[must_use]
    pub fn fused_pairs(&self) -> u64 {
        self.cmp_branch + self.addr_load + self.addr_store + self.alu_alu
    }

    /// Fraction of `retired` instructions covered by fused pairs, in
    /// `[0, 1]` (0 when `retired` is 0).
    #[must_use]
    pub fn hit_rate(&self, retired: u64) -> f64 {
        if retired == 0 {
            0.0
        } else {
            (2 * self.fused_pairs()) as f64 / retired as f64
        }
    }

    /// Folds another set of counters into this one.
    pub fn absorb(&mut self, other: &FusionCounts) {
        self.cmp_branch += other.cmp_branch;
        self.addr_load += other.addr_load;
        self.addr_store += other.addr_store;
        self.alu_alu += other.alu_alu;
    }
}

/// Timing and event counts from one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles instructions spent waiting between operand readiness and
    /// issue (functional-unit and issue-bandwidth pressure), summed over
    /// all retired instructions.
    pub issue_wait_cycles: u64,
    /// Fetch redirects taken (branch mispredictions plus indirect jumps
    /// that moved the fetch point).
    pub fetch_redirects: u64,
    /// Macro-op fusion hits (simulator fast-path coverage; timing-neutral).
    pub fusion: FusionCounts,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl RunResult {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// Accumulated pipeline counters across any number of [`RunResult`]s.
///
/// The controller chops CPU execution into many short [`OoOCore::run`]
/// calls (monitoring quanta, loop-entry alignment, configuration overlap);
/// this folds their per-chunk counters into one CPU-phase total that the
/// profiler's top-down cycle accounting can attribute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Total cycles across all absorbed runs.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles instructions spent waiting between operand readiness and
    /// issue, summed over all retired instructions.
    pub issue_wait_cycles: u64,
    /// Fetch redirects taken.
    pub fetch_redirects: u64,
    /// Macro-op fusion hits accumulated across absorbed runs.
    pub fusion: FusionCounts,
}

impl PipelineStats {
    /// Folds one run's counters into the accumulated totals.
    pub fn absorb(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.retired += r.retired;
        self.loads += r.loads;
        self.stores += r.stores;
        self.branches += r.branches;
        self.mispredicts += r.mispredicts;
        self.issue_wait_cycles += r.issue_wait_cycles;
        self.fetch_redirects += r.fetch_redirects;
        self.fusion.absorb(&r.fusion);
    }

    /// Retired instructions per cycle over the accumulated window.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// A committed-instruction event delivered to observers (MESA's monitor
/// hardware hangs off this, paper §4.1).
#[derive(Debug, Clone, Copy)]
pub struct RetireEvent {
    /// Instruction address.
    pub pc: u64,
    /// The instruction.
    pub instr: Instruction,
    /// Functional outcome (branch direction, halt, …).
    pub info: StepInfo,
    /// Observed memory latency for loads/stores, in cycles.
    pub mem_latency: Option<u64>,
    /// Cycle the result was produced.
    pub complete_cycle: u64,
    /// Cycle the instruction committed.
    pub commit_cycle: u64,
}

/// Observer of the retire stream.
pub trait RetireMonitor {
    /// Called once per retired instruction, in program order.
    fn on_retire(&mut self, event: &RetireEvent);

    /// `false` lets hot execution loops skip [`RetireEvent`] construction
    /// (and the virtual call) entirely — checked once per run, so a monitor
    /// must answer consistently for the duration of a run. Defaults to
    /// `true`; only monitors that ignore every event should override.
    fn wants_events(&self) -> bool {
        true
    }
}

/// A monitor that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl RetireMonitor for NullMonitor {
    fn on_retire(&mut self, _event: &RetireEvent) {}

    fn wants_events(&self) -> bool {
        false
    }
}

/// Cycle window the issue-bandwidth ring remembers. In-flight issue
/// cycles spread over at most tens of cycles (frontend depth + mispredict
/// penalty + ROB recycle), so 2 Ki slots is far beyond what any op can
/// look back across — while keeping the ring a 16 KiB, L1-resident
/// buffer. The previous 64 Ki-slot ring streamed ~90 KiB of slot state
/// per run through the cache for no behavioral difference.
const ISSUE_RING: usize = 1 << 11;

/// Issue-ring slots pack the per-run generation in the high bits and the
/// per-cycle issue count in the low bits, so a new run invalidates the
/// whole ring by bumping the generation instead of zeroing it per
/// [`OoOCore::run`] call (the controller makes many short calls per
/// episode).
const SLOT_COUNT_BITS: u32 = 24;
const SLOT_COUNT_MASK: u64 = (1 << SLOT_COUNT_BITS) - 1;

/// Flat register index meaning "no destination".
const NO_DEST: u8 = u8::MAX;

/// Constituent-kind discriminants for [`OoOCore::run`]'s `timing_retire!`
/// macro. Passed as constants so constant folding deletes the dead arms of
/// each expansion: a fused pair's leading constituent is statically known
/// to be a pure int ALU op, the trailing one a branch / load / store / ALU
/// op, and predecode classifies singletons the same way. `K_GEN` keeps
/// every arm: it times anything outside the flat subset, and every uop
/// when fusion is off (the reference path).
const K_GEN: u8 = 0;
const K_ALU: u8 = 1;
const K_BR: u8 = 2;
const K_LD: u8 = 3;
const K_ST: u8 = 4;

/// A predecoded micro-op: everything `run` needs per dynamic instruction
/// that does not depend on run-time state, extracted once per static
/// instruction instead of once per fetch.
#[derive(Debug, Clone, Copy)]
struct Uop {
    instr: Instruction,
    class: OpClass,
    /// Functional-unit pool: 0 = ALU, 1 = mul/div, 2 = FP, 3 = memory.
    pool: u8,
    /// Flat indices of non-zero source registers.
    srcs: [u8; 3],
    nsrcs: u8,
    /// Flat index of the destination register, or [`NO_DEST`].
    dest: u8,
    base_latency: u64,
    is_jalr: bool,
    /// Flattened functional form for the RV32 hot subset (`None` falls
    /// back to the general `step` interpreter; always `None` with fusion
    /// off).
    flat: Option<FlatOp>,
    /// Timing-dispatch kind (`K_ALU`/`K_BR`/`K_LD`/`K_ST`/`K_GEN`): which
    /// specialized `timing_retire!` expansion is exact for this op. `Jal`
    /// classifies as `K_ALU` — its `Jump` outcome with `is_jalr == false`
    /// is timing-inert, identical to the ALU arm.
    dkind: u8,
}

impl Uop {
    fn from_instr(instr: Instruction, xlen: Xlen, lower: bool) -> Self {
        let mut srcs = [0u8; 3];
        let mut nsrcs = 0u8;
        for src in instr.raw_sources() {
            if !src.is_zero() {
                srcs[usize::from(nsrcs)] = src.flat_index() as u8;
                nsrcs += 1;
            }
        }
        let class = instr.class();
        let pool = match class {
            OpClass::IntMul | OpClass::IntDiv => 1,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => 2,
            OpClass::Load | OpClass::Store => 3,
            _ => 0,
        };
        let flat = if lower { FlatOp::lower(&instr, xlen) } else { None };
        let dkind = match (flat, class) {
            (None, _) => K_GEN,
            (Some(_), OpClass::Branch) => K_BR,
            (Some(_), OpClass::Load) => K_LD,
            (Some(_), OpClass::Store) => K_ST,
            // Integer ALU, and `jal` (see the field doc).
            (Some(_), _) => K_ALU,
        };
        Uop {
            instr,
            class,
            pool,
            srcs,
            nsrcs,
            dest: instr.dest().map_or(NO_DEST, |r| r.flat_index() as u8),
            base_latency: instr.op.base_latency(),
            is_jalr: instr.op == mesa_isa::Opcode::Jalr,
            flat,
            dkind,
        }
    }
}

/// The micro-op cache: one predecoded program, revalidated by an O(n)
/// instruction compare at the start of each run (the controller re-runs
/// the same program many times per episode, so the compare amortizes the
/// per-fetch decode work away without any staleness risk).
#[derive(Debug, Clone)]
struct Predecoded {
    base_pc: u64,
    uops: Vec<Uop>,
    /// Macro-op fusion map: `fused[i]` holds the superinstruction starting
    /// at static index `i` (covering `i` and `i + 1`), from a greedy
    /// left-to-right non-overlapping pairing pass. Empty when fusion is
    /// disabled, since only lowered `FlatOp`s pair.
    fused: Vec<Option<FusedOp>>,
}

impl Predecoded {
    fn matches(&self, program: &Program) -> bool {
        self.base_pc == program.base_pc
            && self.uops.len() == program.instrs.len()
            && self.uops.iter().zip(&program.instrs).all(|(u, i)| u.instr == *i)
    }
}

/// Per-run timing buffers, hoisted out of [`OoOCore::run`] so repeated
/// short runs (the controller's monitoring and overlap quanta) reuse one
/// allocation instead of reallocating per call.
#[derive(Debug, Clone)]
struct RunScratch {
    /// Lazily allocated on first run; invalidated by generation bump.
    issue_ring: Vec<u64>,
    issue_gen: u64,
    /// ROB occupancy ring (`cfg.rob_size` commit times). Slots are written
    /// before they can be read within a run, so no per-run reset needed.
    rob_ring: Vec<u64>,
    /// Commit-bandwidth window ring (`cfg.commit_width` commit times).
    commit_ring: Vec<u64>,
    alu_free: Vec<u64>,
    muldiv_free: Vec<u64>,
    fp_free: Vec<u64>,
    mem_free: Vec<u64>,
}

impl RunScratch {
    fn new(cfg: &CoreConfig) -> Self {
        RunScratch {
            issue_ring: Vec::new(),
            issue_gen: 0,
            rob_ring: vec![0; cfg.rob_size],
            commit_ring: vec![0; cfg.commit_width as usize],
            alu_free: vec![0; cfg.alu_units],
            muldiv_free: vec![0; cfg.muldiv_units],
            fp_free: vec![0; cfg.fp_units],
            mem_free: vec![0; cfg.mem_ports],
        }
    }
}

/// The out-of-order core.
#[derive(Debug, Clone)]
pub struct OoOCore {
    cfg: CoreConfig,
    predictor: BranchPredictor,
    predecoded: Option<Predecoded>,
    scratch: RunScratch,
}

impl OoOCore {
    /// Creates a core with fresh predictor state.
    #[must_use]
    pub fn new(cfg: CoreConfig) -> Self {
        let scratch = RunScratch::new(&cfg);
        OoOCore { cfg, predictor: BranchPredictor::default(), predecoded: None, scratch }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The branch predictor (read access).
    #[must_use]
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// Mutable access to the branch predictor.
    ///
    /// The functional fast-forward interpreter drives the same predictor
    /// the timing model uses, so hybrid execution keeps one coherent
    /// branch history across mode switches.
    #[must_use]
    pub fn predictor_mut(&mut self) -> &mut BranchPredictor {
        &mut self.predictor
    }

    /// Micro-op cache: revalidate (cheap compare) or rebuild. With fusion
    /// on, predecode lowers the flat subset and pairs it; with fusion off
    /// nothing lowers, so nothing pairs either.
    fn ensure_predecoded(&mut self, program: &Program) {
        if self.predecoded.as_ref().is_some_and(|p| p.matches(program)) {
            return;
        }
        let (xlen, lower) = (self.cfg.xlen, self.cfg.fusion);
        let uops: Vec<Uop> =
            program.instrs.iter().map(|&i| Uop::from_instr(i, xlen, lower)).collect();
        // Greedy left-to-right non-overlapping pairing over the static
        // instruction stream.
        let mut fused = vec![None; uops.len()];
        let mut i = 0;
        while i + 1 < uops.len() {
            if let (Some(a), Some(b)) = (uops[i].flat, uops[i + 1].flat) {
                if let Some(f) = FusedOp::fuse(a, b) {
                    fused[i] = Some(f);
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
        self.predecoded = Some(Predecoded { base_pc: program.base_pc, uops, fused });
    }

    /// Runs `program` from `state.pc` until a stop condition, accounting
    /// memory timing against `mem` as requester `requester`.
    ///
    /// `state` and `mem` are updated functionally; the returned
    /// [`RunResult`] carries the timing.
    ///
    /// One loop serves every configuration. With `CoreConfig::fusion` on
    /// (the default), predecode lowers the RV32 hot subset to `FlatOp`s and
    /// pairs adjacent ones into `FusedOp` superinstructions, and the loop
    /// takes three fast paths: (a) flattened functional dispatch
    /// (`step_flat` instead of the general `step` match tree), (b) fused
    /// pairs that execute two instructions per iteration via `step_fused`,
    /// and (c) the `K_ALU`/`K_BR`/`K_LD`/`K_ST` timing specialisations.
    /// With fusion off (or on an RV64 core, where nothing lowers) every uop
    /// takes `step` and the generic `K_GEN` timing arm: the reference path.
    /// Every stage performs the same arithmetic in the same per-instruction
    /// order either way, so timing, architectural state and the retire
    /// stream are bit-identical; only the simulator wall clock and the
    /// `fusion` counters differ. Monitors that don't want events skip
    /// `RetireEvent` construction in both.
    pub fn run(
        &mut self,
        program: &Program,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        requester: usize,
        limits: RunLimits,
        monitor: &mut dyn RetireMonitor,
    ) -> RunResult {
        let cfg = self.cfg;
        let mut reg_ready = [0u64; 64];

        self.ensure_predecoded(program);
        let pred = self.predecoded.as_ref().expect("predecode populated above");
        let base_pc = pred.base_pc;
        let uops: &[Uop] = &pred.uops;
        let fused: &[Option<FusedOp>] = &pred.fused;

        let predictor = &mut self.predictor;
        let scratch = &mut self.scratch;
        if scratch.issue_ring.is_empty() {
            scratch.issue_ring = vec![0u64; ISSUE_RING];
        }
        scratch.issue_gen += 1;
        let gen_tag = scratch.issue_gen << SLOT_COUNT_BITS;
        let issue_ring: &mut [u64; ISSUE_RING] = (&mut scratch.issue_ring[..])
            .try_into()
            .expect("issue ring sized at allocation");
        let mut issue_ring_base = 0u64;

        for pool in [
            &mut scratch.alu_free,
            &mut scratch.muldiv_free,
            &mut scratch.fp_free,
            &mut scratch.mem_free,
        ] {
            pool.fill(0);
        }

        let mut fetch_cycle = 0u64;
        let mut fetched_this_cycle = 0u32;
        let mut last_commit = 0u64;
        let rob_size = cfg.rob_size as u64;
        let commit_width = u64::from(cfg.commit_width);
        let issue_width = u64::from(cfg.issue_width);
        let wants_events = monitor.wants_events();
        // Wrapping ring cursors, maintained incrementally so the per-retire
        // slot math is an add+compare instead of two `%` divisions. The
        // invariants `rob_slot == retired % rob_size` and
        // `cw_slot == retired % commit_width` hold at every macro entry.
        let rob_size_us = cfg.rob_size;
        let commit_width_us = cfg.commit_width as usize;
        let mut rob_slot = 0usize;
        let mut cw_slot = 0usize;

        let mut result = RunResult {
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

        // The full per-constituent timing pipeline, written once and
        // stamped into the pair and singleton paths below, so the fast
        // paths and the fusion-off reference share every stage.
        macro_rules! timing_retire {
            ($kind:expr, $uop:expr, $pc:expr, $info:expr) => {{
                let uop = $uop;
                let pc = $pc;
                let info = $info;

                // ---- fetch ----
                if fetched_this_cycle >= cfg.fetch_width {
                    fetch_cycle += 1;
                    fetched_this_cycle = 0;
                }
                let my_fetch = fetch_cycle;
                fetched_this_cycle += 1;

                // ---- dispatch: frontend depth + ROB space ----
                let mut dispatch = my_fetch + cfg.frontend_depth;
                if result.retired >= rob_size {
                    let freed = scratch.rob_ring[rob_slot];
                    dispatch = dispatch.max(freed);
                }

                // ---- operand readiness ----
                let mut ready = dispatch;
                for &src in &uop.srcs[..usize::from(uop.nsrcs)] {
                    ready = ready.max(reg_ready[usize::from(src)]);
                }

                // A specialised `$kind` narrows the op class and unit pool
                // to constants, so each stage below is written once and
                // folds down to its one live arm; `K_GEN` reads them from
                // the uop.
                let (class, pool) = match $kind {
                    K_ALU => (OpClass::IntAlu, 0),
                    K_BR => (OpClass::Branch, 0),
                    K_LD => (OpClass::Load, 3),
                    K_ST => (OpClass::Store, 3),
                    _ => (uop.class, uop.pool),
                };

                // ---- issue: FU + issue bandwidth ----
                let pool: &mut Vec<u64> = match pool {
                    1 => &mut scratch.muldiv_free,
                    2 => &mut scratch.fp_free,
                    3 => &mut scratch.mem_free,
                    _ => &mut scratch.alu_free,
                };
                // First-minimum selection, identical to min_by_key.
                let mut unit = 0usize;
                let mut best = pool[0];
                for (i, &t) in pool.iter().enumerate().skip(1) {
                    if t < best {
                        best = t;
                        unit = i;
                    }
                }
                let mut issue = ready.max(best);
                loop {
                    if issue < issue_ring_base {
                        issue = issue_ring_base;
                    }
                    while issue >= issue_ring_base + ISSUE_RING as u64 {
                        let idx = (issue_ring_base % ISSUE_RING as u64) as usize;
                        issue_ring[idx] = gen_tag;
                        issue_ring_base += 1;
                    }
                    let idx = (issue % ISSUE_RING as u64) as usize;
                    let slot = issue_ring[idx];
                    let count =
                        if slot & !SLOT_COUNT_MASK == gen_tag { slot & SLOT_COUNT_MASK } else { 0 };
                    if count < issue_width {
                        issue_ring[idx] = gen_tag | (count + 1);
                        break;
                    }
                    issue += 1;
                }
                result.issue_wait_cycles += issue - ready;

                // ---- execute latency ----
                let (latency, mem_latency, occupancy) = match class {
                    OpClass::Load => {
                        let addr = info.mem.map_or(0, |m| m.addr);
                        let acc = mem.access(requester, addr, false, issue);
                        (acc.total, Some(acc.total), 1)
                    }
                    OpClass::Store => {
                        // Stores drain from the store buffer after commit;
                        // the access still occupies a port and updates
                        // cache timing state.
                        let addr = info.mem.map_or(0, |m| m.addr);
                        let acc = mem.access(requester, addr, true, issue);
                        (1, Some(acc.total), 1)
                    }
                    OpClass::IntDiv | OpClass::FpDiv => {
                        let l = uop.base_latency;
                        (l, None, l) // unpipelined
                    }
                    OpClass::System => {
                        // Serializing; syscalls cost a fixed pipeline drain.
                        let l = if matches!(info.outcome, Outcome::Syscall) { 200 } else { 1 };
                        (l, None, 1)
                    }
                    _ => (uop.base_latency, None, 1),
                };
                pool[unit] = issue + occupancy;
                let complete = issue + latency;

                // ---- writeback ----
                if uop.dest != NO_DEST {
                    reg_ready[usize::from(uop.dest)] = complete;
                }

                // ---- branch resolution / fetch redirect ----
                // Only `K_BR` and `K_GEN` can resolve a branch, and only
                // `K_GEN` a JALR (direct jumps resolve in decode). A zero
                // redirect never moves the fetch point.
                let redirect = match info.outcome {
                    Outcome::Branch { taken, target } if $kind == K_BR || $kind == K_GEN => {
                        result.branches += 1;
                        if predictor.update(pc, taken, target) {
                            0
                        } else {
                            result.mispredicts += 1;
                            complete + cfg.mispredict_penalty
                        }
                    }
                    Outcome::Jump { .. } if $kind == K_GEN && uop.is_jalr => complete + 1,
                    _ => 0,
                };
                if redirect > fetch_cycle {
                    result.fetch_redirects += 1;
                    fetch_cycle = redirect;
                    fetched_this_cycle = 0;
                }

                // ---- in-order commit ----
                let mut commit = complete.max(last_commit);
                if result.retired >= commit_width {
                    commit = commit.max(scratch.commit_ring[cw_slot] + 1);
                }
                scratch.commit_ring[cw_slot] = commit;
                last_commit = commit;
                scratch.rob_ring[rob_slot] = commit;

                result.retired += 1;
                rob_slot += 1;
                if rob_slot == rob_size_us {
                    rob_slot = 0;
                }
                cw_slot += 1;
                if cw_slot == commit_width_us {
                    cw_slot = 0;
                }
                match class {
                    OpClass::Load => result.loads += 1,
                    OpClass::Store => result.stores += 1,
                    _ => {}
                }

                if wants_events {
                    monitor.on_retire(&RetireEvent {
                        pc,
                        instr: uop.instr,
                        info,
                        mem_latency,
                        complete_cycle: complete,
                        commit_cycle: commit,
                    });
                }

                // Fused constituents are never `ecall`/`ebreak`; only the
                // generic expansion can observe a halt.
                if $kind == K_GEN && matches!(info.outcome, Outcome::Halt) {
                    result.stop = StopReason::Halted;
                    break;
                }
            }};
        }

        loop {
            if let Some(stop) = limits.stop_pc {
                if state.pc == stop {
                    result.stop = StopReason::StopPc;
                    break;
                }
            }
            if limits.max_instrs > 0 && result.retired >= limits.max_instrs {
                result.stop = StopReason::InstrLimit;
                break;
            }
            let pc = state.pc;
            let uop_idx = if pc < base_pc || !(pc - base_pc).is_multiple_of(4) {
                usize::MAX
            } else {
                ((pc - base_pc) / 4) as usize
            };
            let Some(uop) = uops.get(uop_idx) else {
                result.stop = StopReason::OutOfProgram;
                break;
            };

            // ---- fused superinstruction pair ----
            if let Some(f) = &fused[uop_idx] {
                // Executing two instructions per iteration must be invisible
                // to RunLimits: fall back to the singleton path when a
                // one-instruction-per-iteration run would have stopped
                // between the halves.
                let second_pc = pc.wrapping_add(4);
                let fits_limit =
                    limits.max_instrs == 0 || result.retired + 2 <= limits.max_instrs;
                if fits_limit && limits.stop_pc != Some(second_pc) {
                    // Both halves execute functionally up front. This is
                    // safe to hoist above the first half's timing
                    // arithmetic: the leading constituent is a pure ALU op
                    // (no memory access, no control transfer), so nothing
                    // the timing stages read depends on interleaving with
                    // the second half's functional effects.
                    let (ia, ib) = step_fused(state, f, mem.data_mut());
                    let second = &uops[uop_idx + 1];
                    timing_retire!(K_ALU, uop, pc, ia);
                    match f.kind {
                        FusedKind::CmpBranch => {
                            result.fusion.cmp_branch += 1;
                            timing_retire!(K_BR, second, second_pc, ib);
                        }
                        FusedKind::AddrLoad => {
                            result.fusion.addr_load += 1;
                            timing_retire!(K_LD, second, second_pc, ib);
                        }
                        FusedKind::AddrStore => {
                            result.fusion.addr_store += 1;
                            timing_retire!(K_ST, second, second_pc, ib);
                        }
                        FusedKind::AluAlu => {
                            result.fusion.alu_alu += 1;
                            timing_retire!(K_ALU, second, second_pc, ib);
                        }
                    }
                    continue;
                }
            }

            // ---- singleton: flattened dispatch where possible ----
            let info = if let Some(flat) = &uop.flat {
                step_flat(state, flat, mem.data_mut())
            } else {
                step(state, &uop.instr, mem.data_mut())
            };
            match uop.dkind {
                K_ALU => timing_retire!(K_ALU, uop, pc, info),
                K_BR => timing_retire!(K_BR, uop, pc, info),
                K_LD => timing_retire!(K_LD, uop, pc, info),
                K_ST => timing_retire!(K_ST, uop, pc, info),
                _ => timing_retire!(K_GEN, uop, pc, info),
            }
        }

        result.cycles = last_commit;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::{Asm, Xlen};
    use mesa_isa::reg::abi::*;
    use mesa_mem::MemConfig;

    fn run_program(build: impl FnOnce(&mut Asm)) -> (RunResult, ArchState) {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let p = a.finish().unwrap();
        let mut core = OoOCore::new(CoreConfig::default());
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = core.run(&p, &mut st, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
        (r, st)
    }

    #[test]
    fn straightline_ilp_exceeds_one_ipc() {
        let (r, st) = run_program(|a| {
            // 32 independent adds.
            for _ in 0..8 {
                a.addi(T0, ZERO, 1);
                a.addi(T1, ZERO, 2);
                a.addi(T2, ZERO, 3);
                a.addi(T3, ZERO, 4);
            }
        });
        assert_eq!(r.retired, 32);
        assert!(r.ipc() > 1.5, "ipc = {}", r.ipc());
        assert_eq!(st.read(T3), 4);
    }

    #[test]
    fn dependent_chain_is_serial() {
        let (r, st) = run_program(|a| {
            for _ in 0..32 {
                a.addi(T0, T0, 1);
            }
        });
        assert_eq!(st.read(T0), 32);
        // A 32-long dependence chain takes at least 32 cycles.
        assert!(r.cycles >= 32, "cycles = {}", r.cycles);
    }

    #[test]
    fn loop_executes_correct_iteration_count() {
        let (r, st) = run_program(|a| {
            a.li(T0, 0);
            a.li(T1, 100);
            a.label("loop");
            a.addi(T0, T0, 1);
            a.bne(T0, T1, "loop");
        });
        assert_eq!(st.read(T0), 100);
        assert_eq!(r.branches, 100);
        // Loop branch should predict well: few mispredicts.
        assert!(r.mispredicts <= 4, "mispredicts = {}", r.mispredicts);
    }

    #[test]
    fn loads_see_memory_latency() {
        // Pointer-chasing loads (dependent) are slow; independent loads
        // overlap. Compare the two.
        let chain = {
            let mut a = Asm::new(0x1000);
            a.li(A0, 0x10000);
            for _ in 0..16 {
                a.lw(A0, A0, 0); // A0 = mem[A0] = 0 → all same line after first
            }
            a.finish().unwrap()
        };
        let indep = {
            let mut a = Asm::new(0x1000);
            a.li(A0, 0x10000);
            for i in 0..16 {
                a.lw(T0, A0, i * 4);
            }
            a.finish().unwrap()
        };
        let mut core = OoOCore::new(CoreConfig::default());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let r_chain = core.run(&chain, &mut st, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let r_indep = core.run(&indep, &mut st, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
        assert!(
            r_chain.cycles > r_indep.cycles,
            "chain {} should exceed independent {}",
            r_chain.cycles,
            r_indep.cycles
        );
    }

    #[test]
    fn halt_stops_run() {
        let (r, _) = run_program(|a| {
            a.li(A7, 93);
            a.ecall();
            a.addi(T0, T0, 1); // never reached
        });
        assert_eq!(r.stop, StopReason::Halted);
        assert_eq!(r.retired, 2); // li a7 (one addi) + ecall
    }

    #[test]
    fn stop_pc_halts_before_executing() {
        let mut a = Asm::new(0x1000);
        a.addi(T0, T0, 1);
        a.addi(T0, T0, 1);
        a.addi(T0, T0, 1);
        let p = a.finish().unwrap();
        let mut core = OoOCore::new(CoreConfig::default());
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let limits = RunLimits { max_instrs: 0, stop_pc: Some(0x1008) };
        let r = core.run(&p, &mut st, &mut mem, 0, limits, &mut NullMonitor);
        assert_eq!(r.stop, StopReason::StopPc);
        assert_eq!(r.retired, 2);
        assert_eq!(st.read(T0), 2);
    }

    #[test]
    fn instr_limit_respected() {
        let (r, _) = run_program_with_limit();
        assert_eq!(r.stop, StopReason::InstrLimit);
        assert_eq!(r.retired, 10);
    }

    fn run_program_with_limit() -> (RunResult, ArchState) {
        let mut a = Asm::new(0x1000);
        a.label("spin");
        a.addi(T0, T0, 1);
        a.jal(ZERO, "spin");
        let p = a.finish().unwrap();
        let mut core = OoOCore::new(CoreConfig::default());
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = core.run(&p, &mut st, &mut mem, 0, RunLimits::instrs(10), &mut NullMonitor);
        (r, st)
    }

    #[test]
    fn monitor_sees_every_retire_in_order() {
        struct Collect(Vec<u64>);
        impl RetireMonitor for Collect {
            fn on_retire(&mut self, e: &RetireEvent) {
                self.0.push(e.pc);
            }
        }
        let mut a = Asm::new(0x1000);
        a.addi(T0, T0, 1);
        a.addi(T0, T0, 1);
        let p = a.finish().unwrap();
        let mut core = OoOCore::new(CoreConfig::default());
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let mut mon = Collect(Vec::new());
        core.run(&p, &mut st, &mut mem, 0, RunLimits::none(), &mut mon);
        assert_eq!(mon.0, vec![0x1000, 0x1004]);
    }

    #[test]
    fn pipeline_counters_accumulate() {
        let (r, _) = run_program(|a| {
            a.li(A0, 0x10000);
            // 16 independent loads: 4 become ready per fetch cycle but
            // only mem_ports(=2) can issue, so some must wait.
            for i in 0..16 {
                a.lw(T0, A0, i * 4);
            }
        });
        assert!(r.issue_wait_cycles > 0, "issue_wait = {}", r.issue_wait_cycles);
        assert!(r.fetch_redirects <= r.mispredicts + r.branches);
        let mut acc = PipelineStats::default();
        acc.absorb(&r);
        assert_eq!(acc.retired, r.retired);
        assert_eq!(acc.issue_wait_cycles, r.issue_wait_cycles);
        assert_eq!(acc.fetch_redirects, r.fetch_redirects);
    }

    #[test]
    fn pipeline_stats_absorb_sums_chunked_runs() {
        let (r, _) = run_program(|a| {
            a.li(A0, 0x10000);
            for i in 0..8 {
                a.lw(T0, A0, i * 4);
            }
        });
        let mut acc = PipelineStats::default();
        acc.absorb(&r);
        acc.absorb(&r);
        assert_eq!(acc.cycles, 2 * r.cycles);
        assert_eq!(acc.retired, 2 * r.retired);
        assert_eq!(acc.loads, 2 * r.loads);
        assert_eq!(acc.issue_wait_cycles, 2 * r.issue_wait_cycles);
        assert!((acc.ipc() - r.ipc()).abs() < 1e-12);
    }

    #[test]
    fn mispredict_penalty_slows_unpredictable_branches() {
        // Branch on the low bit of a xorshift-ish sequence: unpredictable.
        let build = |taken_pattern: bool| {
            let mut a = Asm::new(0x1000);
            a.li(S0, 0);
            a.li(S1, 64);
            a.li(S2, 0x5DEECE6);
            a.label("loop");
            if taken_pattern {
                // Data-dependent branch over a pseudo-random bit.
                a.srli(T1, S2, 1);
                a.xor(S2, S2, T1);
                a.andi(T2, S2, 1);
                a.beq(T2, ZERO, "skip");
            } else {
                // Always-taken comparison with the same instruction count.
                a.srli(T1, S2, 1);
                a.xor(S2, S2, T1);
                a.andi(T2, S2, 1);
                a.blt(T2, ZERO, "skip"); // never taken: perfectly predictable
            }
            a.addi(T3, T3, 1);
            a.label("skip");
            a.addi(S0, S0, 1);
            a.bne(S0, S1, "loop");
            a.finish().unwrap()
        };
        let run = |p: &mesa_isa::Program| {
            let mut core = OoOCore::new(CoreConfig::default());
            let mut st = ArchState::new(0x1000, Xlen::Rv32);
            let mut mem = MemorySystem::new(MemConfig::default(), 1);
            core.run(p, &mut st, &mut mem, 0, RunLimits::none(), &mut NullMonitor)
        };
        let random = run(&build(true));
        let steady = run(&build(false));
        assert!(random.mispredicts > steady.mispredicts);
    }

    /// A memory-heavy loop exercising every fusion idiom: addr-gen + load,
    /// addr-gen + store, add + add chains, and compare + branch.
    fn fusion_rich_program() -> mesa_isa::Program {
        let mut a = Asm::new(0x1000);
        a.li(S0, 0x100); // src
        a.li(S1, 0x200); // dst
        a.li(S2, 16); // trip count
        a.label("loop");
        a.lw(T0, S0, 0);
        a.lw(T1, S0, 4);
        a.add(T2, T0, T1);
        a.addi(T2, T2, 3);
        a.addi(T3, S1, 0); // addr-gen feeding the store: fuses to AddrStore
        a.sw(T2, T3, 0);
        a.addi(S0, S0, 4);
        a.addi(S1, S1, 4);
        a.addi(S3, S3, 1);
        a.bne(S3, S2, "loop");
        a.li(A7, 93);
        a.ecall();
        a.finish().unwrap()
    }

    fn run_with_fusion(fusion: bool, xlen: Xlen) -> (RunResult, ArchState, MemorySystem) {
        let p = fusion_rich_program();
        let mut core = OoOCore::new(CoreConfig { fusion, xlen, ..CoreConfig::default() });
        let mut st = ArchState::new(0x1000, xlen);
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..20 {
            mem.data_mut().store_u32(0x100 + 4 * i, (7 * i + 1) as u32);
        }
        let r = core.run(&p, &mut st, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
        (r, st, mem)
    }

    #[test]
    fn fused_run_is_cycle_identical_to_unfused() {
        let (fused, st_f, mut mem_f) = run_with_fusion(true, Xlen::Rv32);
        let (unfused, st_u, mut mem_u) = run_with_fusion(false, Xlen::Rv32);

        assert!(fused.fusion.fused_pairs() > 0, "no pairs fused: {:?}", fused.fusion);
        assert_eq!(unfused.fusion, FusionCounts::default());

        // Timing-invariance: identical in every field except the fusion
        // hit counters themselves.
        let mut fused_masked = fused;
        fused_masked.fusion = unfused.fusion;
        assert_eq!(fused_masked, unfused);

        assert_eq!(st_f, st_u);
        for i in 0..20 {
            let addr = 0x200 + 4 * i;
            assert_eq!(mem_f.data_mut().load_u32(addr), mem_u.data_mut().load_u32(addr));
        }
    }

    #[test]
    fn rv64_runs_the_reference_path_with_fusion_on() {
        // Nothing lowers on RV64, so the fusion flag must be inert there.
        let (on, st_on, _) = run_with_fusion(true, Xlen::Rv64);
        let (off, st_off, _) = run_with_fusion(false, Xlen::Rv64);
        assert_eq!(on.stop, StopReason::Halted);
        assert_eq!(on.fusion, FusionCounts::default());
        assert_eq!(on, off);
        assert_eq!(st_on, st_off);
    }

    #[test]
    fn fusion_counters_cover_each_idiom() {
        let (r, _, _) = run_with_fusion(true, Xlen::Rv32);
        assert!(r.fusion.cmp_branch > 0, "{:?}", r.fusion);
        assert!(r.fusion.addr_load > 0, "{:?}", r.fusion);
        assert!(r.fusion.addr_store > 0, "{:?}", r.fusion);
        assert!(r.fusion.alu_alu > 0, "{:?}", r.fusion);
        let rate = r.fusion.hit_rate(r.retired);
        assert!(rate > 0.0 && rate <= 1.0, "hit rate {rate}");
    }

    #[test]
    fn fused_run_respects_mid_pair_limits() {
        // stop_pc / max_instrs landing on the second half of a fusable pair
        // must fall back to singleton execution, not overshoot.
        let p = fusion_rich_program();
        for max in 1..=12u64 {
            let mut core = OoOCore::new(CoreConfig::default());
            let mut st = ArchState::new(0x1000, Xlen::Rv32);
            let mut mem = MemorySystem::new(MemConfig::default(), 1);
            let r = core.run(&p, &mut st, &mut mem, 0, RunLimits::instrs(max), &mut NullMonitor);
            assert_eq!(r.retired, max, "overshot instr limit {max}");
            assert_eq!(r.stop, StopReason::InstrLimit);
        }
        for pc_off in (0..36).step_by(4) {
            let stop = 0x1000 + pc_off;
            let mut core = OoOCore::new(CoreConfig::default());
            let mut st = ArchState::new(0x1000, Xlen::Rv32);
            let mut mem = MemorySystem::new(MemConfig::default(), 1);
            let r = core.run(
                &p,
                &mut st,
                &mut mem,
                0,
                RunLimits { max_instrs: 0, stop_pc: Some(stop) },
                &mut NullMonitor,
            );
            assert_eq!(r.stop, StopReason::StopPc, "stop_pc {stop:#x}");
            assert_eq!(st.pc, stop, "halted past stop_pc {stop:#x}");
        }
    }

    #[test]
    fn fusion_counters_flow_into_pipeline_stats() {
        let (r, _, _) = run_with_fusion(true, Xlen::Rv32);
        let mut acc = PipelineStats::default();
        acc.absorb(&r);
        assert_eq!(acc.fusion, r.fusion);
        assert!(acc.fusion.fused_pairs() > 0);
    }
}
