//! The MESA controller: end-to-end orchestration of monitoring,
//! translation, configuration, offloading, and iterative optimization
//! (paper Fig. 1 / Fig. 7).
//!
//! The controller drives the three functions of §1: **F1** monitor CPU
//! execution for acceleration opportunities (loop-stream detector +
//! AMAT counters on the retire stream), **F2** translate the binary to a
//! latency-weighted DFG and map it (LDFG → SDFG → configuration), and
//! **F3** iteratively optimize from runtime feedback, reconfiguring when
//! the model predicts a win.

use crate::{
    apply_counters, build_accel_program, check_region, config_latency, map_instructions,
    memopt, reconfig_latency, reoptimize, trace_map_stages, ConfigCache, ConfigLatency,
    DetectConfig, DetectedRegion, ImapTiming, MapperConfig, OptFlags, RejectReason, ReoptRound,
};
use mesa_accel::{
    AccelConfig, AccelProgram, ActivityStats, BitstreamError, Coord, FaultLog, FaultPlan,
    PerfCounters, PlacementSnapshot, ProgramError, Region, SessionError, SessionRequest,
    SnapshotError, SpatialAccelerator,
};
use mesa_cpu::{
    CoreConfig, FastForward, LoopStreamDetector, OoOCore, PipelineStats, RetireEvent, RetireMonitor,
    RunLimits, StopReason, TraceCache,
};
use mesa_isa::{ArchState, OpClass, ParallelKind, Program, Reg};
use mesa_mem::{AmatTable, MemConfig, MemTraffic, MemorySystem};
use mesa_trace::host;
use mesa_trace::{NullTracer, Subsystem, Tracer};
use std::fmt;

/// Everything needed to instantiate a MESA-enabled system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Host core parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Target accelerator.
    pub accel: AccelConfig,
    /// Detection thresholds (C1–C3).
    pub detect: DetectConfig,
    /// Mapping algorithm parameters.
    pub mapper: MapperConfig,
    /// Hardware pipeline timing (imap FSM etc.).
    pub imap: ImapTiming,
    /// Optimization switches.
    pub opts: OptFlags,
    /// Give up monitoring after this many retired instructions.
    pub max_warmup_instrs: u64,
    /// Safety cap on accelerator iterations.
    pub max_accel_iterations: u64,
    /// Run the CPU-side warmup and straight-line glue through the
    /// functional fast-forward interpreter (estimated cycles) instead of
    /// the full timing model. Detection behaves identically — the
    /// interpreter trains the same predictor and feeds the same monitor —
    /// but warmup cycle counts become estimates. Off in every preset; the
    /// harness binaries turn it on under `--fast-forward`.
    pub fast_forward: bool,
}

impl SystemConfig {
    fn with_accel(accel: AccelConfig) -> Self {
        SystemConfig {
            core: CoreConfig::boom_baseline(),
            mem: MemConfig::default(),
            accel,
            detect: DetectConfig::default(),
            mapper: MapperConfig::default(),
            imap: ImapTiming::default(),
            opts: OptFlags::default(),
            max_warmup_instrs: 2_000_000,
            max_accel_iterations: 100_000_000,
            fast_forward: false,
        }
    }

    /// The M-64 system (Fig. 14's configuration).
    #[must_use]
    pub fn m64() -> Self {
        Self::with_accel(AccelConfig::m64())
    }

    /// The M-128 system (the paper's headline configuration).
    #[must_use]
    pub fn m128() -> Self {
        Self::with_accel(AccelConfig::m128())
    }

    /// The M-512 system.
    #[must_use]
    pub fn m512() -> Self {
        Self::with_accel(AccelConfig::m512())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::m128()
    }
}

/// Failure modes of an offload attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum MesaError {
    /// Monitoring found no stable hot loop within the warmup budget.
    NoLoopDetected,
    /// The candidate loop failed C1–C3.
    Rejected(RejectReason),
    /// The loop finished on the CPU while MESA was still configuring; the
    /// configuration cost could not be amortized.
    LoopExitedDuringConfig,
    /// The generated configuration failed accelerator validation.
    Accel(ProgramError),
    /// The memory system must expose at least two requester ports (CPU and
    /// accelerator).
    NeedTwoRequesters,
    /// The configuration stream arrived truncated or corrupted at the
    /// accelerator; the region is blacklisted and finishes on the CPU.
    ConfigStream(BitstreamError),
    /// A placement snapshot failed to decode, or did not match the
    /// configuration it was restored against.
    Snapshot(SnapshotError),
    /// The multi-tenant fabric manager declined the request.
    Fabric(crate::fabric::FabricError),
}

impl fmt::Display for MesaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MesaError::NoLoopDetected => write!(f, "no hot loop detected"),
            MesaError::Rejected(r) => write!(f, "loop rejected: {r}"),
            MesaError::LoopExitedDuringConfig => {
                write!(f, "loop exited on the CPU before configuration completed")
            }
            MesaError::Accel(e) => write!(f, "configuration invalid: {e}"),
            MesaError::NeedTwoRequesters => {
                write!(f, "memory system needs requester ports for both CPU and accelerator")
            }
            MesaError::ConfigStream(e) => {
                write!(f, "configuration stream rejected by the accelerator: {e}")
            }
            MesaError::Snapshot(e) => write!(f, "placement snapshot rejected: {e}"),
            MesaError::Fabric(e) => write!(f, "fabric manager declined: {e}"),
        }
    }
}

impl std::error::Error for MesaError {}

impl From<ProgramError> for MesaError {
    fn from(e: ProgramError) -> Self {
        MesaError::Accel(e)
    }
}

impl From<SnapshotError> for MesaError {
    fn from(e: SnapshotError) -> Self {
        MesaError::Snapshot(e)
    }
}

impl From<SessionError> for MesaError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::Program(p) => MesaError::Accel(p),
            SessionError::Snapshot(s) => MesaError::Snapshot(s),
        }
    }
}

impl From<crate::fabric::FabricError> for MesaError {
    fn from(e: crate::fabric::FabricError) -> Self {
        MesaError::Fabric(e)
    }
}

/// Complete account of one offload episode.
#[derive(Debug, Clone, Default)]
pub struct OffloadReport {
    /// Region bounds.
    pub region: (u64, u64),
    /// CPU cycles spent before detection (monitoring warmup).
    pub warmup_cycles: u64,
    /// CPU instructions retired during warmup.
    pub warmup_instrs: u64,
    /// Warmup instructions executed by the functional fast-forward
    /// interpreter instead of the timing model (a subset of
    /// `warmup_instrs`; `0` unless [`SystemConfig::fast_forward`] is set).
    pub ff_instrs: u64,
    /// Initial configuration latency breakdown.
    pub config: ConfigLatency,
    /// CPU cycles that ran concurrently with configuration (iterations the
    /// CPU completed while MESA configured, §5.1).
    pub config_phase_cpu_cycles: u64,
    /// Iterations the CPU executed during the configuration phase.
    pub cpu_iterations_during_config: u64,
    /// Extra cycles spent on iterative reconfigurations.
    pub reconfig_cycles: u64,
    /// Number of reconfigurations performed.
    pub reconfigurations: u32,
    /// Cycles the accelerator ran.
    pub accel_cycles: u64,
    /// Iterations executed on the accelerator.
    pub accel_iterations: u64,
    /// Tiles used.
    pub tiles: usize,
    /// Whether pipelining was enabled.
    pub pipelined: bool,
    /// Nodes that fell back to the bus.
    pub unmapped_nodes: usize,
    /// Trip-count estimate at detection time.
    pub expected_iterations: u64,
    /// Model estimate of per-iteration latency at initial mapping.
    pub initial_estimate: u64,
    /// The configuration was served from the config cache.
    pub from_cache: bool,
    /// Memory-hierarchy traffic accumulated by the *CPU-side* phases of
    /// this episode (warmup monitoring + configuration overlap), i.e. the
    /// memory-system totals sampled just before the accelerator started.
    /// Harnesses diff the post-episode totals against this to attribute
    /// traffic to the accelerated phase without double-counting warmup.
    pub cpu_phase_traffic: MemTraffic,
    /// Pipeline counters accumulated over every CPU-side run of the
    /// episode (warmup monitoring, loop-entry alignment, configuration
    /// overlap). `cpu_pipeline.cycles` is the episode's total CPU-phase
    /// cycle count, which top-down accounting attributes into buckets.
    pub cpu_pipeline: PipelineStats,
    /// Final placement: the coordinate each region node ended on (`None` =
    /// fallback bus), indexed like `counters.nodes`. Spatial profilers
    /// fold the counters onto this grid.
    pub placement: Vec<Option<Coord>>,
    /// One record per F3 re-optimization round, in order.
    pub reopt_rounds: Vec<ReoptRound>,
    /// Accelerator activity (for the energy model).
    pub activity: ActivityStats,
    /// Final performance counters.
    pub counters: PerfCounters,
    /// Injected-fault events observed (and survived) during the episode.
    pub faults: FaultLog,
    /// Tenant that owned the episode on a shared fabric (`0` for solo
    /// offloads, which are the only tenant by definition).
    pub tenant: u32,
    /// Grid region the accelerated phase ran in — its final home if it
    /// migrated. `None` for solo offloads, which own the whole grid.
    pub fabric_region: Option<Region>,
    /// Times the placement was checkpointed and relocated mid-episode.
    pub migrations: u32,
    /// Fleet cycles the tenant waited in the admission queue before its
    /// first band placement (`0` for solo offloads, which never queue).
    pub queue_wait_cycles: u64,
    /// Wire cost of the episode's migrations: checkpoint + restore words
    /// shuttled (`0` for solo offloads and unmigrated tenants).
    pub checkpoint_cycles: u64,
}

impl OffloadReport {
    /// Wall-clock cycles of the whole episode: warmup, the configuration
    /// phase (CPU keeps running; the longer of the two governs), control
    /// transfer, accelerated execution, reconfiguration pauses, and the
    /// return transfer.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles
            + self.config.total().max(self.config_phase_cpu_cycles)
            + self.reconfig_cycles
            + self.accel_cycles
            + self.config.transfer_cycles // return transfer
    }

    /// Average accelerator cycles per iteration.
    #[must_use]
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.accel_iterations == 0 {
            0.0
        } else {
            self.accel_cycles as f64 / self.accel_iterations as f64
        }
    }
}

impl fmt::Display for OffloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "offload of [{:#x}, {:#x}): {} total cycles",
            self.region.0,
            self.region.1,
            self.total_cycles()
        )?;
        writeln!(
            f,
            "  warmup: {} cycles / {} instrs{}; config: {} cycles{}",
            self.warmup_cycles,
            self.warmup_instrs,
            if self.ff_instrs > 0 {
                format!(" ({} fast-forwarded)", self.ff_instrs)
            } else {
                String::new()
            },
            self.config.total(),
            if self.from_cache { " (from config cache)" } else { "" },
        )?;
        writeln!(
            f,
            "  CPU overlapped {} iterations during configuration",
            self.cpu_iterations_during_config
        )?;
        writeln!(
            f,
            "  accelerator: {} iterations in {} cycles ({:.2} cyc/iter), {} tile(s){}",
            self.accel_iterations,
            self.accel_cycles,
            self.cycles_per_iteration(),
            self.tiles,
            if self.pipelined { ", pipelined" } else { "" },
        )?;
        write!(
            f,
            "  reconfigurations: {} (+{} cycles); unmapped nodes: {}",
            self.reconfigurations, self.reconfig_cycles, self.unmapped_nodes
        )?;
        if self.queue_wait_cycles > 0 || self.checkpoint_cycles > 0 {
            write!(
                f,
                "\n  fabric: {} cycles queued, {} checkpoint/restore cycles over {} migration(s)",
                self.queue_wait_cycles, self.checkpoint_cycles, self.migrations
            )?;
        }
        Ok(())
    }
}

/// Machine words the monitor can hold for trace-cache filling.
const CAPTURE_WINDOW: usize = 1024;

/// Monitor used during warmup: loop-stream detection, AMAT capture, and
/// machine-word capture for the trace cache.
#[derive(Debug)]
struct WarmupMonitor {
    lsd: LoopStreamDetector,
    amat: AmatTable,
    /// Recently retired `(pc, machine word)` pairs — the fetch stream the
    /// trace cache snoops (paper §4.1). Bounded ring.
    captured: std::collections::VecDeque<(u64, u32)>,
}

impl RetireMonitor for WarmupMonitor {
    fn on_retire(&mut self, event: &RetireEvent) {
        self.lsd.on_retire(event);
        if let Some(lat) = event.mem_latency {
            if event.instr.class() == OpClass::Load {
                self.amat.record(event.pc, lat);
            }
        }
        if !self.captured.iter().any(|&(pc, _)| pc == event.pc) {
            if let Ok(word) = mesa_isa::codec::encode(&event.instr) {
                if self.captured.len() >= CAPTURE_WINDOW {
                    self.captured.pop_front();
                }
                self.captured.push_back((event.pc, word));
            }
        }
    }
}

/// CPU work an episode has done so far: the warmup quanta, plus the
/// configuration-overlap iterations once it reaches them.
/// [`MesaController::run_program`] charges it to the whole-program totals
/// when the episode declines.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CpuWork {
    cycles: u64,
    instrs: u64,
    ff_instrs: u64,
    /// The program reached its exit during warmup.
    halted: bool,
}

impl CpuWork {
    /// Runs one CPU quantum on requester port 0: through the functional
    /// fast-forward interpreter when `ff` is set, else on the timing core.
    /// Charges its cycles and instructions (and interpreted instructions
    /// to `ff_instrs`) to `self`.
    #[allow(clippy::too_many_arguments)]
    fn run_quantum(
        &mut self,
        ff: Option<&mut FastForward>,
        cpu: &mut OoOCore,
        program: &Program,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        limits: RunLimits,
        monitor: &mut dyn RetireMonitor,
    ) -> mesa_cpu::RunResult {
        let r = match ff {
            Some(ff) => {
                let fr = ff.run(program, state, mem, cpu.predictor_mut(), limits, monitor, None);
                self.ff_instrs += fr.retired;
                fr.as_run_result()
            }
            None => cpu.run(program, state, mem, 0, limits, monitor),
        };
        self.cycles += r.cycles;
        self.instrs += r.retired;
        r
    }
}

/// Everything F1 + F2 produced for one episode, frozen at the instant
/// control would transfer to the accelerator: the mapped configuration,
/// the latency-weighted DFG it came from, the cycle clock, and the full
/// CPU-side accounting. [`MesaController::finish_episode`] consumes it to
/// run the solo F3 phase; the fabric manager instead admits it onto a
/// shared grid as one tenant among several.
#[derive(Debug)]
pub(crate) struct PreparedEpisode {
    pub(crate) start_pc: u64,
    pub(crate) end_pc: u64,
    pub(crate) warmup_cycles: u64,
    pub(crate) warmup_instrs: u64,
    pub(crate) ff_instrs: u64,
    pub(crate) cpu_pipeline: PipelineStats,
    pub(crate) config: ConfigLatency,
    pub(crate) config_phase_cpu_cycles: u64,
    pub(crate) cpu_iterations_during_config: u64,
    pub(crate) accel_prog: AccelProgram,
    pub(crate) ldfg: crate::Ldfg,
    pub(crate) expected_iterations: u64,
    pub(crate) initial_estimate: u64,
    pub(crate) from_cache: bool,
    pub(crate) unmapped_nodes: usize,
    pub(crate) annotation: Option<ParallelKind>,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) fault_log: FaultLog,
    pub(crate) cpu_phase_traffic: MemTraffic,
    pub(crate) now: u64,
}

impl PreparedEpisode {
    /// The episode's report with its CPU side (warmup, configuration,
    /// detection-time estimates) filled in; the accelerated phase fills in
    /// the rest.
    pub(crate) fn cpu_report(&self) -> OffloadReport {
        OffloadReport {
            region: (self.start_pc, self.end_pc),
            warmup_cycles: self.warmup_cycles,
            warmup_instrs: self.warmup_instrs,
            ff_instrs: self.ff_instrs,
            config: self.config,
            config_phase_cpu_cycles: self.config_phase_cpu_cycles,
            cpu_iterations_during_config: self.cpu_iterations_during_config,
            unmapped_nodes: self.unmapped_nodes,
            expected_iterations: self.expected_iterations,
            initial_estimate: self.initial_estimate,
            from_cache: self.from_cache,
            cpu_phase_traffic: self.cpu_phase_traffic,
            cpu_pipeline: self.cpu_pipeline,
            ..OffloadReport::default()
        }
    }
}

/// Per-run options of a MESA episode beyond the [`SystemConfig`]: what a
/// caller arms or attaches, not what the hardware is. The default is a
/// benign, uncached run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Deterministic fault injection applied to every episode: stuck PEs
    /// are scrubbed, the configuration stream is verified against
    /// truncation, bus tokens drop, and latency counters are corrupted
    /// before each F3 round — all seeded, so a failing episode replays
    /// exactly from its plan. `None` runs benign.
    pub faults: Option<FaultPlan>,
    /// Process-wide [`SharedArtifactCache`](crate::SharedArtifactCache)
    /// consulted for decoded programs (keyed by region + trace-cache fill
    /// fingerprint, so a self-modified region can never be served a stale
    /// decode) and mapped artifacts (keyed by the full F2 fingerprint).
    /// Hits skip host-side work only — the episode's simulated latency
    /// accounting is identical with or without the cache, keeping every
    /// [`OffloadReport`] byte-identical at any cache state.
    pub cache: Option<std::sync::Arc<crate::SharedArtifactCache>>,
}

/// The MESA hardware controller.
#[derive(Debug)]
pub struct MesaController {
    system: SystemConfig,
    accel: SpatialAccelerator,
    cache: ConfigCache,
    /// Regions that failed C1–C3; the detector ignores them afterwards so
    /// monitoring can move past a hot-but-unaccelerable loop.
    blacklist: std::collections::HashSet<(u64, u64)>,
    /// Persistent trace cache: when the same hot loop is re-detected in a
    /// later episode and refills with identical words, its decoded
    /// [`Program`] is served from the cache instead of re-decoding.
    trace_cache: TraceCache,
    /// Fault plan and shared artifact cache applied to every episode.
    opts: RunOptions,
}

impl MesaController {
    /// Builds a controller for the given system with default
    /// [`RunOptions`].
    #[must_use]
    pub fn new(system: SystemConfig) -> Self {
        Self::with_options(system, RunOptions::default())
    }

    /// Builds a controller whose episodes all run under `opts`.
    #[must_use]
    pub fn with_options(system: SystemConfig, opts: RunOptions) -> Self {
        let accel = SpatialAccelerator::new(system.accel);
        let trace_cache = TraceCache::new(system.accel.max_instrs());
        MesaController {
            system,
            accel,
            cache: ConfigCache::new(),
            blacklist: std::collections::HashSet::new(),
            trace_cache,
            opts,
        }
    }

    /// The system configuration.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Monitors `program` running on `cpu`, and on detecting a hot
    /// accelerable loop translates, configures, and offloads it.
    ///
    /// On success `state` is advanced past the loop with live-out registers
    /// applied, so the caller can resume CPU execution seamlessly.
    ///
    /// Every phase of the episode — detection, translation,
    /// per-`imap`-stage mapping, configuration write, CPU overlap,
    /// offloaded execution, and F3 reoptimization rounds — is emitted to
    /// `tracer` as spans on an episode-relative cycle clock (cycle 0 =
    /// monitoring start). See the `mesa-trace` crate docs for the span
    /// vocabulary; pass `&mut NullTracer` to skip tracing.
    ///
    /// # Errors
    /// See [`MesaError`]. On `NoLoopDetected`/`Rejected` errors the CPU
    /// state reflects the warmup execution performed so far. All spans
    /// opened before an error path are closed before returning, so traces
    /// of failed episodes stay balanced.
    pub fn offload(
        &mut self,
        program: &Program,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        cpu: &mut OoOCore,
        tracer: &mut dyn Tracer,
    ) -> Result<OffloadReport, MesaError> {
        let mut work = CpuWork::default();
        let prepared = self.prepare_episode(program, state, mem, cpu, tracer, &mut work)?;
        self.finish_episode(prepared, state, mem, tracer)
    }

    /// F1 + F2: monitor until a hot loop emerges, translate and map it,
    /// pay the configuration latency while the CPU keeps running, and
    /// freeze the episode at the instant control would transfer to the
    /// accelerator. `work` tracks the CPU work done so far, which a
    /// declined episode has spent all the same.
    pub(crate) fn prepare_episode(
        &mut self,
        program: &Program,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        cpu: &mut OoOCore,
        tracer: &mut dyn Tracer,
        work: &mut CpuWork,
    ) -> Result<PreparedEpisode, MesaError> {
        if mem.requesters() < 2 {
            return Err(MesaError::NeedTwoRequesters);
        }
        const CPU: usize = 0;

        // Host-side phase span: wall-clock cost of F1 monitoring (the
        // guard closes on every early return too).
        let host_detect = host::span("detect");
        tracer.span_begin(Subsystem::Controller, "detect", 0);
        tracer.span_begin(Subsystem::Cpu, "cpu.warmup", 0);

        // ---- F1: monitor until a hot loop emerges ----
        let mut monitor = WarmupMonitor {
            lsd: LoopStreamDetector::new(self.system.detect.lsd_threshold),
            amat: AmatTable::new(),
            captured: std::collections::VecDeque::with_capacity(CAPTURE_WINDOW),
        };
        *work = CpuWork::default();
        let mut cpu_pipeline = PipelineStats::default();
        // With fast-forward on, warmup quanta run through the functional
        // interpreter: it feeds the same monitor (so detection is
        // identical) and trains the same predictor, but charges estimated
        // cycles instead of paying the timing model's bookkeeping.
        let mut ff = self.system.fast_forward.then(|| FastForward::new(&self.system.core));
        let hot = loop {
            if work.instrs >= self.system.max_warmup_instrs {
                break None;
            }
            let quantum = RunLimits::instrs(32);
            let r =
                work.run_quantum(ff.as_mut(), cpu, program, state, mem, quantum, &mut monitor);
            cpu_pipeline.absorb(&r);
            if r.stop != StopReason::InstrLimit {
                // The program exited or left its code: nothing is left to
                // monitor, and running on would re-execute the exit.
                work.halted = r.stop == StopReason::Halted;
                break None;
            }
            if let Some(hot) = monitor.lsd.hot_loop() {
                if self.blacklist.contains(&(hot.start_pc, hot.end_pc)) {
                    // Already judged unaccelerable: keep executing on the
                    // CPU and keep watching for a different loop.
                    monitor.lsd.reset();
                } else if state.pc == hot.start_pc {
                    break Some(hot);
                } else {
                    // Align to the next loop-entry boundary for a clean
                    // state snapshot. One loop iteration retires at most
                    // `len` instructions, so a 2x budget either reaches the
                    // entry or proves the loop already exited (in which
                    // case monitoring simply continues).
                    let align = RunLimits {
                        max_instrs: 2 * hot.len() as u64,
                        stop_pc: Some(hot.start_pc),
                    };
                    let r = work.run_quantum(
                        ff.as_mut(),
                        cpu,
                        program,
                        state,
                        mem,
                        align,
                        &mut monitor,
                    );
                    cpu_pipeline.absorb(&r);
                    work.halted = r.stop == StopReason::Halted;
                    match r.stop {
                        StopReason::StopPc => break Some(hot),
                        StopReason::InstrLimit => monitor.lsd.reset(),
                        _ => break None,
                    }
                }
            }
        };
        let CpuWork { cycles: warmup_cycles, instrs: warmup_instrs, ff_instrs, .. } = *work;
        tracer.span_end(Subsystem::Cpu, "cpu.warmup", warmup_cycles);
        host::sim_cycles(warmup_cycles);
        let Some(hot) = hot else {
            if tracer.enabled() {
                tracer.instant(
                    Subsystem::Controller,
                    "no_loop",
                    "monitoring ended without a stable hot loop",
                    warmup_cycles,
                );
            }
            tracer.span_end(Subsystem::Controller, "detect", warmup_cycles);
            return Err(MesaError::NoLoopDetected);
        };
        if tracer.enabled() {
            tracer.instant(
                Subsystem::Controller,
                "hot_loop",
                &format!(
                    "pc=[{:#x},{:#x}) len={} iterations_seen={}",
                    hot.start_pc,
                    hot.end_pc,
                    hot.len(),
                    hot.iterations_seen
                ),
                warmup_cycles,
            );
        }
        tracer.span_end(Subsystem::Controller, "detect", warmup_cycles);
        if tracer.enabled() {
            mem.traffic().trace_counters(tracer, warmup_cycles);
        }
        drop(host_detect);
        // Host translate phase: trace-cache capture, C1-C3 checks, and
        // the LDFG build inside check_region (T1).
        let host_translate = host::span("translate");

        // ---- capture the region through the trace cache (binary path) ----
        // Primary fill: the machine words snooped from the fetch/retire
        // stream during monitoring. Instructions never executed (paths
        // skipped by forward branches) use the "stall fetch and read the
        // I-cache directly" fallback of §4.1.
        let shared = self.opts.cache.clone();
        let tc = &mut self.trace_cache;
        let region_from_tc = tc
            .open_region(hot.start_pc, hot.end_pc)
            .ok()
            .and_then(|()| {
                for &(pc, word) in &monitor.captured {
                    tc.fill(pc, word);
                }
                if !tc.is_complete() {
                    tc.fill_from_program(program);
                }
                // Cross-request decode cache: keyed by the *content*
                // fingerprint of the fill, never by the per-controller
                // generation — a self-modified region at the same
                // `(start_pc, end_pc)` digests differently and misses.
                // Decoding is a pure function of the words, so a hit is
                // bit-identical to a fresh decode.
                match shared.as_deref() {
                    Some(cache) => {
                        let fp = tc.fill_fingerprint();
                        match cache.lookup_program(hot.start_pc, hot.end_pc, fp) {
                            Some(p) => Some(p),
                            None => {
                                let decoded = tc.to_program();
                                if let Some(p) = &decoded {
                                    cache.insert_program(
                                        hot.start_pc,
                                        hot.end_pc,
                                        fp,
                                        p.clone(),
                                    );
                                }
                                decoded
                            }
                        }
                    }
                    None => tc.to_program(),
                }
            });
        let region_image = match region_from_tc {
            Some(mut p) => {
                p.annotations = program.annotations.clone();
                p
            }
            None => program.clone(),
        };

        // ---- C1-C3 ----
        let detected = match check_region(
            &region_image,
            hot.start_pc,
            hot.end_pc,
            state,
            hot.iterations_seen,
            &self.system.accel,
            &self.system.detect,
        ) {
            Ok(d) => d,
            Err(reason) => {
                // Remember the verdict so monitoring skips this region from
                // now on (it finishes on the CPU).
                self.blacklist.insert((hot.start_pc, hot.end_pc));
                if tracer.enabled() {
                    tracer.instant(
                        Subsystem::Controller,
                        "reject",
                        &format!(
                            "region [{:#x},{:#x}) rejected: {reason}",
                            hot.start_pc, hot.end_pc
                        ),
                        warmup_cycles,
                    );
                }
                return Err(MesaError::Rejected(reason));
            }
        };
        let DetectedRegion { region, mut ldfg, expected_iterations } = detected;

        // Seed memory node weights with monitored AMAT (§3.1).
        for node in &mut ldfg.nodes {
            if node.instr.class() == OpClass::Load {
                if let Some(amat) = monitor.amat.amat(node.pc) {
                    node.op_weight = amat.max(1);
                }
            }
        }

        let annotation = region.annotation_at(hot.start_pc).map(|a| a.kind);
        drop(host_translate);
        // Host map phase: Algorithm 1 placement + program build (T2),
        // skipped almost entirely on a config-cache hit.
        let host_map = host::span("map");

        // ---- F2: map and configure (or reuse a cached configuration) ----
        let cached = self.cache.get(hot.start_pc, hot.end_pc).cloned();
        let from_cache = cached.is_some();
        let (mut accel_prog, initial_estimate, config) = match cached {
            Some(prog) => {
                // Re-encountered loop: skip LDFG/map, pay only the write.
                let lat = ConfigLatency {
                    ldfg_cycles: 0,
                    map_cycles: 0,
                    write_cycles: self.system.imap.config_write_per_node
                        * ldfg.len() as u64
                        * prog.tiles as u64,
                    transfer_cycles: self.system.imap.control_transfer,
                };
                (prog, 0, lat)
            }
            None => {
                let accel_cfg = self.system.accel;
                // Cross-request F2 cache: the mapping is a pure function
                // of the LDFG (with its AMAT-seeded weights), annotation,
                // trip-count estimate, grid, and flags — all folded into
                // the fingerprint. A hit skips Algorithm 1, the memopt
                // analysis, program build, and validation (host time),
                // but charges exactly the cold path's analytic
                // configuration latency, so the report stays
                // byte-identical.
                let shared_key = self.opts.cache.as_deref().map(|cache| {
                    (
                        cache,
                        crate::artifact_cache::artifact_fingerprint(
                            self.trace_cache.fill_fingerprint(),
                            &ldfg,
                            annotation,
                            &accel_cfg,
                            &self.system.opts,
                            &self.system.mapper,
                            expected_iterations,
                        ),
                    )
                });
                let shared_hit =
                    shared_key.as_ref().and_then(|(cache, fp)| cache.lookup_artifact(*fp));
                match shared_hit {
                    Some((prog, est)) => {
                        let lat = config_latency(
                            &self.system.imap,
                            &self.system.mapper,
                            ldfg.len(),
                            prog.tiles,
                        );
                        self.cache.insert(prog.clone());
                        (prog, est, lat)
                    }
                    None => {
                        let supports = |c: Coord, class: OpClass| accel_cfg.supports(c, class);
                        let sdfg = map_instructions(
                            &ldfg,
                            accel_cfg.grid(),
                            &supports,
                            self.accel.latency_model(),
                            &self.system.mapper,
                        );
                        let plan = memopt::analyze(&ldfg);
                        let prog = build_accel_program(
                            &ldfg,
                            &sdfg,
                            Some(&plan),
                            annotation,
                            &accel_cfg,
                            &self.system.opts,
                            expected_iterations,
                        );
                        prog.validate(accel_cfg.grid())?;
                        let lat = config_latency(
                            &self.system.imap,
                            &self.system.mapper,
                            ldfg.len(),
                            prog.tiles,
                        );
                        let est = sdfg.expected_iteration_latency();
                        self.cache.insert(prog.clone());
                        if let Some((cache, fp)) = shared_key {
                            cache.insert_artifact(fp, prog.clone(), est);
                        }
                        (prog, est, lat)
                    }
                }
            }
        };
        drop(host_map);
        // ---- injected configuration-time faults (if a plan is armed) ----
        let fault_plan = self.opts.faults.clone().unwrap_or_default();
        let mut fault_log = FaultLog::default();
        if !fault_plan.is_benign() {
            // Stuck PEs: nodes placed on a dead coordinate are scrubbed off
            // the grid and take the fallback bus — slower, never wrong.
            let scrubbed = fault_plan.scrub_stuck_pes(&mut accel_prog);
            if scrubbed > 0 {
                fault_log.stuck_pes_scrubbed += scrubbed;
                if tracer.enabled() {
                    tracer.instant(
                        Subsystem::Fault,
                        "stuck_pe_scrub",
                        &format!("{scrubbed} node(s) moved off stuck PEs to the fallback bus"),
                        warmup_cycles,
                    );
                }
            }
            // Truncated config stream: the accelerator rejects the write,
            // the region is blacklisted, and the loop finishes on the CPU.
            if let Err(e) = fault_plan.check_config_stream(&accel_prog) {
                self.blacklist.insert((hot.start_pc, hot.end_pc));
                if tracer.enabled() {
                    tracer.instant(
                        Subsystem::Fault,
                        "config_truncated",
                        &format!(
                            "region [{:#x},{:#x}) config stream rejected: {e}",
                            hot.start_pc, hot.end_pc
                        ),
                        warmup_cycles,
                    );
                }
                return Err(MesaError::ConfigStream(e));
            }
        }
        let unmapped_nodes = accel_prog.nodes.iter().filter(|n| n.coord.is_none()).count();

        // Configuration spans: the breakdown is known analytically, so the
        // whole window [warmup, warmup + config.total()) is laid out up
        // front; the CPU-overlap span below runs concurrently on the CPU
        // timeline (§5.1).
        if tracer.enabled() {
            tracer.span_begin(Subsystem::Controller, "configure", warmup_cycles);
            let mut t = warmup_cycles;
            if config.ldfg_cycles > 0 {
                tracer.span_begin(Subsystem::Controller, "translate", t);
                t += config.ldfg_cycles;
                tracer.span_end(Subsystem::Controller, "translate", t);
            }
            if config.map_cycles > 0 {
                t = trace_map_stages(
                    &self.system.imap,
                    &self.system.mapper,
                    ldfg.len() as u64,
                    t,
                    tracer,
                );
            }
            if config.write_cycles > 0 {
                tracer.span_begin(Subsystem::Controller, "config.write", t);
                t += config.write_cycles;
                tracer.span_end(Subsystem::Controller, "config.write", t);
            }
            tracer.span_begin(Subsystem::Controller, "config.transfer", t);
            tracer.span_end(Subsystem::Controller, "config.transfer", t + config.transfer_cycles);
            tracer.span_end(Subsystem::Controller, "configure", warmup_cycles + config.total());
        }

        // ---- CPU keeps running while MESA configures (§5.1) ----
        let host_configure = host::span("configure");
        tracer.span_begin(Subsystem::Cpu, "cpu.config_overlap", warmup_cycles);
        let mut config_phase_cpu_cycles = 0u64;
        let mut cpu_iterations_during_config = 0u64;
        while config_phase_cpu_cycles < config.total() {
            // One loop iteration: step off the entry, then run to the next
            // entry.
            let r1 = cpu.run(program, state, mem, CPU, RunLimits::instrs(1), &mut monitor);
            let r2 = cpu.run(
                program,
                state,
                mem,
                CPU,
                RunLimits { max_instrs: 0, stop_pc: Some(hot.start_pc) },
                &mut monitor,
            );
            cpu_pipeline.absorb(&r1);
            cpu_pipeline.absorb(&r2);
            config_phase_cpu_cycles += r1.cycles + r2.cycles;
            work.cycles += r1.cycles + r2.cycles;
            work.instrs += r1.retired + r2.retired;
            cpu_iterations_during_config += 1;
            if r2.stop != StopReason::StopPc {
                let t = warmup_cycles + config_phase_cpu_cycles;
                tracer.span_end(Subsystem::Cpu, "cpu.config_overlap", t);
                if tracer.enabled() {
                    tracer.instant(
                        Subsystem::Controller,
                        "loop_exited_during_config",
                        "loop finished on the CPU before configuration completed",
                        t,
                    );
                }
                return Err(MesaError::LoopExitedDuringConfig);
            }
        }
        tracer.span_end(
            Subsystem::Cpu,
            "cpu.config_overlap",
            warmup_cycles + config_phase_cpu_cycles,
        );

        // Episode clock at the start of accelerated execution: the longer
        // of the configuration pipeline and the overlapped CPU execution
        // governs (they run concurrently).
        let now = warmup_cycles + config.total().max(config_phase_cpu_cycles);
        host::sim_cycles(now - warmup_cycles);
        drop(host_configure);
        // Everything the memory system has seen so far is CPU-side work
        // (warmup + config overlap); sample it so harnesses can attribute
        // the rest of the episode's traffic to the accelerator.
        let cpu_phase_traffic = mem.traffic();

        Ok(PreparedEpisode {
            start_pc: hot.start_pc,
            end_pc: hot.end_pc,
            warmup_cycles,
            warmup_instrs,
            ff_instrs,
            cpu_pipeline,
            config,
            config_phase_cpu_cycles,
            cpu_iterations_during_config,
            accel_prog,
            ldfg,
            expected_iterations,
            initial_estimate,
            from_cache,
            unmapped_nodes,
            annotation,
            fault_plan,
            fault_log,
            cpu_phase_traffic,
            now,
        })
    }

    /// F3: the solo accelerated phase of an episode produced by
    /// [`prepare_episode`](Self::prepare_episode) — the whole grid belongs
    /// to this loop, and the controller re-optimizes the placement from
    /// latency counters measured on the accelerator.
    pub(crate) fn finish_episode(
        &mut self,
        prepared: PreparedEpisode,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        tracer: &mut dyn Tracer,
    ) -> Result<OffloadReport, MesaError> {
        const ACCEL: usize = 1;
        let mut report = prepared.cpu_report();
        let PreparedEpisode {
            end_pc,
            accel_prog,
            mut ldfg,
            expected_iterations,
            annotation,
            fault_plan,
            mut fault_log,
            mut now,
            ..
        } = prepared;

        // ---- offload: run on the accelerator, optionally re-optimizing ----
        let mut activity = ActivityStats::default();
        let mut counters = PerfCounters::new(ldfg.len());
        let mut accel_cycles = 0u64;
        let mut accel_iterations = 0u64;
        let mut reconfig_cycles = 0u64;
        let mut reconfigurations = 0u32;
        let mut reopt_rounds: Vec<ReoptRound> = Vec::new();
        let mut current = accel_prog;
        let induction = ldfg.induction_nodes();

        // Iterative optimization pauses the accelerator at iteration-round
        // boundaries, so a tiled region's resume state is fully described
        // by the architectural registers (induction live-outs are fixed up
        // analytically below).
        let iterative =
            self.system.opts.iterative && self.system.opts.max_reconfigs > 0;

        let mut keep_optimizing = iterative;
        let host_offload = host::span("offload");
        let offload_started_at = now;
        tracer.span_begin(Subsystem::Controller, "offload", now);
        loop {
            let budget = if keep_optimizing && reconfigurations < self.system.opts.max_reconfigs {
                self.system.opts.opt_interval
            } else {
                self.system.max_accel_iterations
            };
            let req = SessionRequest::solo(ACCEL, budget, &fault_plan, self.system.accel.grid());
            let mut session = PlacementSnapshot::new(&current, state, req.region.rows, &fault_plan);
            if let Err(e) = self.accel.run_session(&current, mem, &req, &mut session, tracer, now) {
                tracer.span_end(Subsystem::Controller, "offload", now);
                return Err(e.into());
            }
            let r = session.into_result(&current);

            now += r.cycles;
            accel_cycles += r.cycles;
            accel_iterations += r.iterations;
            merge_activity(&mut activity, &r.activity);
            merge_counters(&mut counters, &r.counters);
            fault_log.merge(&r.faults);

            // Write live-outs back (induction registers analytically under
            // tiling, where per-tile interleaving makes the engine's last
            // value tile-local).
            apply_live_outs(state, &current, &r.final_regs, &induction, &ldfg, r.iterations);

            if r.completed {
                break;
            }
            if accel_iterations >= self.system.max_accel_iterations {
                break;
            }

            // ---- F3: iterative optimization ----
            let host_reoptimize = host::span("reoptimize");
            tracer.span_begin(Subsystem::Controller, "reoptimize", now);
            let critical_path_before = ldfg.critical_path().1;
            // Counter corruption: bit-flips land on the measured latencies
            // the optimizer consumes; `apply_counters` clamps them so one
            // corrupted sample cannot steer placement forever.
            let mut measured_counters = r.counters.clone();
            if fault_plan.counter_bit_flips > 0 {
                let flipped = fault_plan
                    .corrupt_counters(&mut measured_counters, reopt_rounds.len() as u64);
                fault_log.counter_bits_flipped += flipped;
                if tracer.enabled() {
                    tracer.instant(
                        Subsystem::Fault,
                        "counter_corruption",
                        &format!(
                            "{flipped} latency-counter bit(s) flipped before round {}",
                            reopt_rounds.len()
                        ),
                        now,
                    );
                }
            }
            apply_counters(&mut ldfg, &measured_counters);
            let critical_path_after = ldfg.critical_path().1;
            let measured = (r.cycles / r.iterations.max(1)).max(1);
            if tracer.enabled() {
                tracer.counter(
                    Subsystem::Controller,
                    "reopt.measured_cycles_per_iteration",
                    measured,
                    now,
                );
            }
            let out = reoptimize(
                &ldfg,
                &self.system.accel,
                self.accel.latency_model(),
                &self.system.mapper,
                measured,
            );
            let mut round = ReoptRound {
                round: reopt_rounds.len() as u32,
                iterations_before: accel_iterations,
                measured_cycles_per_iter: measured,
                new_estimate: out.new_estimate,
                critical_path_before,
                critical_path_after,
                placement_moves: 0,
                reconfigured: false,
                tiles_after: current.tiles,
                reconfig_cycles: 0,
            };
            if out.worthwhile {
                let plan = memopt::analyze(&ldfg);
                let next = build_accel_program(
                    &ldfg,
                    &out.sdfg,
                    Some(&plan),
                    annotation,
                    &self.system.accel,
                    &self.system.opts,
                    expected_iterations,
                );
                if next.validate(self.system.accel.grid()).is_ok() {
                    let extra = reconfig_latency(
                        &self.system.imap,
                        &self.system.mapper,
                        ldfg.len(),
                        next.tiles,
                    )
                    .total();
                    reconfig_cycles += extra;
                    now += extra;
                    if tracer.enabled() {
                        tracer.instant(
                            Subsystem::Controller,
                            "reconfigure",
                            &format!("remapped to {} tile(s), +{extra} cycles", next.tiles),
                            now,
                        );
                    }
                    round.placement_moves = current
                        .nodes
                        .iter()
                        .zip(&next.nodes)
                        .filter(|(a, b)| a.coord != b.coord)
                        .count();
                    round.reconfigured = true;
                    round.tiles_after = next.tiles;
                    round.reconfig_cycles = extra;
                    current = next;
                    self.cache.insert(current.clone());
                }
                reconfigurations += 1;
            } else {
                // The model sees no further win; stop paying profile
                // segments and run the remainder uninterrupted.
                keep_optimizing = false;
            }
            reopt_rounds.push(round);
            tracer.span_end(Subsystem::Controller, "reoptimize", now);
            drop(host_reoptimize);
        }
        host::sim_cycles(now - offload_started_at);
        drop(host_offload);
        tracer.span_end(Subsystem::Controller, "offload", now);
        if tracer.enabled() {
            mem.traffic().trace_counters(tracer, now);
        }

        // Control returns to the CPU just past the loop (§5.1).
        state.pc = end_pc;

        report.reconfig_cycles = reconfig_cycles;
        report.reconfigurations = reconfigurations;
        report.accel_cycles = accel_cycles;
        report.accel_iterations = accel_iterations;
        report.tiles = current.tiles;
        report.pipelined = current.pipelined;
        report.placement = current.nodes.iter().map(|n| n.coord).collect();
        report.reopt_rounds = reopt_rounds;
        report.activity = activity;
        report.counters = counters;
        report.faults = fault_log;
        Ok(report)
    }

    /// Drives a whole program to completion: CPU execution interleaved
    /// with as many offload episodes as the program offers. Rejected
    /// regions are blacklisted and finish on the CPU; re-encountered
    /// accepted regions hit the configuration cache (paper §4.3).
    ///
    /// Returns the episode reports plus total cycle accounting, which
    /// includes the CPU work of declined episodes. The program must
    /// terminate (via `ecall` exit / `ebreak`) or exhaust
    /// `max_cpu_instrs` of CPU execution.
    pub fn run_program(
        &mut self,
        program: &Program,
        state: &mut ArchState,
        mem: &mut MemorySystem,
        cpu: &mut OoOCore,
        max_cpu_instrs: u64,
    ) -> ProgramRunReport {
        let mut report = ProgramRunReport::default();
        loop {
            let mut work = CpuWork::default();
            let episode = self
                .prepare_episode(program, state, mem, cpu, &mut NullTracer, &mut work)
                .and_then(|prepared| self.finish_episode(prepared, state, mem, &mut NullTracer));
            // Accepted or declined, the CPU ran the episode's warmup and
            // configuration overlap.
            report.cpu_instrs += work.instrs;
            report.ff_instrs += work.ff_instrs;
            match episode {
                Ok(ep) => {
                    report.total_cycles += ep.total_cycles();
                    report.offloads.push(ep);
                }
                Err(e) => {
                    report.total_cycles += work.cycles;
                    report.halted = work.halted;
                    match e {
                        // Blacklisted, so monitoring moves on to other
                        // regions; the loop finishes on the CPU.
                        MesaError::Rejected(reason) => report.rejections.push(reason),
                        MesaError::ConfigStream(_) => report.config_declines += 1,
                        _ => break, // NoLoopDetected / halt / exhausted
                    }
                }
            }
            if report.cpu_instrs >= max_cpu_instrs {
                break;
            }
            // If the program has halted, a final CPU probe ends quickly.
            if program.fetch(state.pc).is_none() {
                break;
            }
        }
        if report.halted {
            // Warmup ran the program to its exit; re-running the exit
            // instruction would count it twice.
            return report;
        }
        // Finish whatever straight-line code remains — at interpreter
        // speed when fast-forward is on (nobody reads per-cycle timing of
        // the exit glue).
        let tail = RunLimits::instrs(max_cpu_instrs.saturating_sub(report.cpu_instrs).max(1));
        let mut ff = self.system.fast_forward.then(|| FastForward::new(&self.system.core));
        let mut work = CpuWork::default();
        let r = work.run_quantum(
            ff.as_mut(),
            cpu,
            program,
            state,
            mem,
            tail,
            &mut mesa_cpu::NullMonitor,
        );
        report.total_cycles += work.cycles;
        report.cpu_instrs += work.instrs;
        report.ff_instrs += work.ff_instrs;
        report.halted = r.stop == StopReason::Halted;
        report
    }
}

/// Accounting for a whole-program run under MESA (multiple offload
/// episodes plus CPU execution in between).
#[derive(Debug, Clone, Default)]
pub struct ProgramRunReport {
    /// One report per successful offload episode, in program order.
    pub offloads: Vec<OffloadReport>,
    /// Reasons for regions that were detected but rejected.
    pub rejections: Vec<RejectReason>,
    /// Episodes declined because the configuration stream arrived
    /// truncated or corrupt (the region finished on the CPU).
    pub config_declines: u64,
    /// Total cycles across CPU and accelerator phases.
    pub total_cycles: u64,
    /// Instructions the CPU retired (monitoring, config overlap, glue).
    pub cpu_instrs: u64,
    /// Instructions handled by the functional fast-forward interpreter
    /// (warmup quanta + final glue) — `0` with fast-forward off.
    pub ff_instrs: u64,
    /// Whether the program reached its exit.
    pub halted: bool,
}

impl ProgramRunReport {
    /// Iterations executed on the accelerator across all episodes.
    #[must_use]
    pub fn accel_iterations(&self) -> u64 {
        self.offloads.iter().map(|o| o.accel_iterations).sum()
    }
}

/// Applies accelerator live-outs to the architectural state.
pub(crate) fn apply_live_outs(
    state: &mut ArchState,
    prog: &AccelProgram,
    final_regs: &[(Reg, u64)],
    induction: &[u32],
    ldfg: &crate::Ldfg,
    iterations: u64,
) {
    for &(reg, value) in final_regs {
        let producer = prog
            .live_out
            .iter()
            .find(|&&(r, _)| r == reg)
            .map(|&(_, n)| n);
        if prog.tiles > 1 {
            if let Some(n) = producer {
                // The producer index comes from the (possibly corrupted)
                // configuration; a missing node falls through to the
                // engine-reported value instead of indexing out of range.
                if let Some(node) = ldfg.nodes.get(n as usize) {
                    if induction.contains(&n) {
                        let step = node.instr.imm;
                        let init = state.read(reg);
                        let delta = (i128::from(iterations) * i128::from(step)) as u64;
                        state.write(reg, init.wrapping_add(delta));
                        continue;
                    }
                }
            }
        }
        state.write(reg, value);
    }
}

fn merge_activity(into: &mut ActivityStats, from: &ActivityStats) {
    into.int_ops += from.int_ops;
    into.fp_ops += from.fp_ops;
    into.loads += from.loads;
    into.stores += from.stores;
    into.pe_busy_cycles += from.pe_busy_cycles;
    into.local_transfers += from.local_transfers;
    into.noc_transfers += from.noc_transfers;
    into.noc_hop_cycles += from.noc_hop_cycles;
    into.fallback_transfers += from.fallback_transfers;
    into.forwards += from.forwards;
    into.violations += from.violations;
    into.disabled_fires += from.disabled_fires;
    into.vector_piggybacks += from.vector_piggybacks;
    into.prefetch_hits += from.prefetch_hits;
}

fn merge_counters(into: &mut PerfCounters, from: &PerfCounters) {
    for (a, b) in into.nodes.iter_mut().zip(&from.nodes) {
        a.fires += b.fires;
        a.total_op_cycles += b.total_op_cycles;
        for s in 0..2 {
            a.total_in_cycles[s] += b.total_in_cycles[s];
            a.in_samples[s] += b.in_samples[s];
        }
    }
}

/// Convenience wrapper: build a fresh CPU, monitor + offload one region.
///
/// `mem` must have been created with at least two requesters (0 = CPU,
/// 1 = accelerator).
///
/// # Errors
/// Propagates [`MesaController::offload`] errors.
pub fn run_offload(
    program: &Program,
    state: &mut ArchState,
    mem: &mut MemorySystem,
    system: &SystemConfig,
) -> Result<OffloadReport, MesaError> {
    run_offload_with(program, state, mem, system, &RunOptions::default(), &mut NullTracer)
}

/// [`run_offload`] under `opts`, with tracing (see
/// [`MesaController::offload`]). Under a fault plan the episode either
/// completes with correct architectural results (recovering from
/// injected faults, which surface as instants on the `fault` subsystem
/// timeline) or declines with a typed [`MesaError`] — it never panics. A
/// shared cache lets repeat kernels skip host-side decode + map work
/// while the report stays byte-identical to the cold path.
///
/// # Errors
/// Propagates [`MesaController::offload`] errors, including
/// [`MesaError::ConfigStream`] when the plan truncates the bitstream.
pub fn run_offload_with(
    program: &Program,
    state: &mut ArchState,
    mem: &mut MemorySystem,
    system: &SystemConfig,
    opts: &RunOptions,
    tracer: &mut dyn Tracer,
) -> Result<OffloadReport, MesaError> {
    let mut controller = MesaController::with_options(system.clone(), opts.clone());
    let mut cpu = OoOCore::new(system.core);
    controller.offload(program, state, mem, &mut cpu, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::{Asm, ParallelKind, Xlen};
    use mesa_isa::reg::abi::*;

    const BASE: u64 = 0x10_0000;
    const OUT: u64 = 0x20_0000;

    /// sum += a[i] over n elements, then exit.
    fn sum_kernel(n: u64) -> (Program, ArchState) {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.add(T1, T1, T0);
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        a.sw(T1, A2, 0);
        a.li(A7, 93);
        a.ecall();
        let p = a.finish().unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, BASE);
        st.write(A1, BASE + 4 * n);
        st.write(A2, OUT);
        (p, st)
    }

    /// Annotated parallel scale kernel: b[i] = a[i] * 3.
    fn scale_kernel(n: u64) -> (Program, ArchState) {
        let mut a = Asm::new(0x1000);
        a.pragma(ParallelKind::Parallel);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.slli(T1, T0, 1);
        a.add(T1, T1, T0);
        a.sw(T1, A2, 0);
        a.addi(A0, A0, 4);
        a.addi(A2, A2, 4);
        a.bne(A0, A1, "loop");
        a.end_pragma();
        a.li(A7, 93);
        a.ecall();
        let p = a.finish().unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, BASE);
        st.write(A1, BASE + 4 * n);
        st.write(A2, OUT);
        (p, st)
    }

    fn mem_with_data(n: u64) -> MemorySystem {
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        for i in 0..n {
            mem.data_mut().store_u32(BASE + 4 * i, (i % 100) as u32 + 1);
        }
        mem
    }

    #[test]
    fn offloads_sum_loop_end_to_end() {
        let n = 2000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        let report = run_offload(&p, &mut st, &mut mem, &SystemConfig::m128()).unwrap();

        // Iterations split between CPU (warmup + config) and accelerator.
        let cpu_iters = report.warmup_instrs / 4 + report.cpu_iterations_during_config;
        assert!(report.accel_iterations > 0);
        assert!(report.accel_iterations + cpu_iters >= n);
        assert_eq!(report.region, (0x1000, 0x1010));
        assert!(!report.from_cache);
        assert!(report.config.total() > 0);

        // The final register state matches a pure-CPU run.
        let expected_sum: u64 = (0..n).map(|i| u64::from((i % 100) as u32 + 1)).sum();
        assert_eq!(st.read(T1) as u32 as u64, expected_sum & 0xFFFF_FFFF);
        assert_eq!(st.read(A0), BASE + 4 * n);
        assert_eq!(st.pc, 0x1010, "control returned past the loop");
    }

    #[test]
    fn cpu_continues_after_offload() {
        let n = 1000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        run_offload(&p, &mut st, &mut mem, &SystemConfig::m128()).unwrap();

        // Resume the CPU after the loop: it stores the sum and exits.
        let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
        let r = cpu.run(&p, &mut st, &mut mem, 0, RunLimits::none(), &mut mesa_cpu::NullMonitor);
        assert_eq!(r.stop, StopReason::Halted);
        let expected_sum: u32 = (0..n).map(|i| (i % 100) as u32 + 1).sum();
        assert_eq!(mem.data_mut().load_u32(OUT), expected_sum);
    }

    #[test]
    fn annotated_loop_gets_tiled() {
        let n = 4000;
        let (p, mut st) = scale_kernel(n);
        let mut mem = mem_with_data(n);
        let report = run_offload(&p, &mut st, &mut mem, &SystemConfig::m128()).unwrap();
        assert!(report.tiles > 1, "parallel pragma should tile, got {}", report.tiles);
        assert!(report.pipelined);

        // Every output slot the accelerator covered is correct.
        let cpu_iters = report.warmup_instrs / 7 + report.cpu_iterations_during_config;
        for i in cpu_iters..n {
            let a = (i % 100) as u32 + 1;
            assert_eq!(
                mem.data_mut().load_u32(OUT + 4 * i),
                a * 3,
                "b[{i}] wrong (cpu covered first {cpu_iters})"
            );
        }
    }

    #[test]
    fn short_loop_rejected_for_iterations() {
        let (p, mut st) = sum_kernel(20);
        let mut mem = mem_with_data(20);
        let err = run_offload(&p, &mut st, &mut mem, &SystemConfig::m128()).unwrap_err();
        assert!(matches!(err, MesaError::Rejected(RejectReason::TooFewIterations { .. })));
    }

    #[test]
    fn unsupported_loop_rejected() {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.ecall(); // syscall in the body
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        let p = a.finish().unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, BASE);
        st.write(A1, BASE + 4 * 1000);
        st.write(A7, 1); // keep ecall from halting
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        let err = run_offload(&p, &mut st, &mut mem, &SystemConfig::m128()).unwrap_err();
        assert!(matches!(
            err,
            MesaError::Rejected(RejectReason::UnsupportedInstruction { .. })
        ));
    }

    #[test]
    fn straightline_program_detects_nothing() {
        let mut a = Asm::new(0x1000);
        for _ in 0..64 {
            a.addi(T0, T0, 1);
        }
        a.li(A7, 93);
        a.ecall();
        let p = a.finish().unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        let err = run_offload(&p, &mut st, &mut mem, &SystemConfig::m128()).unwrap_err();
        assert_eq!(err, MesaError::NoLoopDetected);
    }

    #[test]
    fn config_cache_hit_on_reencounter() {
        let n = 2000;
        let (p, st0) = sum_kernel(n);
        let system = SystemConfig::m128();
        let mut controller = MesaController::new(system.clone());
        let mut cpu = OoOCore::new(system.core);

        let mut st = st0.clone();
        let mut mem = mem_with_data(n);
        let first =
            controller.offload(&p, &mut st, &mut mem, &mut cpu, &mut NullTracer).unwrap();
        assert!(!first.from_cache);

        // Encounter the same loop again (fresh data, same PCs).
        let mut st = st0.clone();
        let mut mem = mem_with_data(n);
        let second =
            controller.offload(&p, &mut st, &mut mem, &mut cpu, &mut NullTracer).unwrap();
        assert!(second.from_cache);
        assert!(
            second.config.total() < first.config.total(),
            "cached config {} must be cheaper than first {}",
            second.config.total(),
            first.config.total()
        );
    }

    #[test]
    fn traced_offload_emits_balanced_phase_spans() {
        let n = 2000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        let mut tracer = mesa_trace::RingTracer::new(4096);
        let opts = RunOptions::default();
        let report =
            run_offload_with(&p, &mut st, &mut mem, &SystemConfig::m128(), &opts, &mut tracer)
                .unwrap();

        assert!(tracer.open_spans().is_empty(), "open: {:?}", tracer.open_spans());
        let chrome = tracer.to_chrome_trace();
        let s = mesa_trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
        for required in ["detect", "cpu.warmup", "configure", "translate", "map",
            "config.write", "config.transfer", "cpu.config_overlap", "offload", "accel.execute"]
        {
            assert!(
                s.span_names.iter().any(|n| n == required),
                "missing span {required}; have {:?}",
                s.span_names
            );
        }
        // Timestamps must be episode-consistent: no event before 0, the
        // offload span must start at warmup + max(config, overlap).
        let start = report.warmup_cycles
            + report.config.total().max(report.config_phase_cpu_cycles);
        let offload_begin = tracer
            .events()
            .iter()
            .find(|e| matches!(&e.kind, mesa_trace::EventKind::Begin { name } if name == "offload"))
            .expect("offload span present");
        assert_eq!(offload_begin.cycle, start);
        // With iterative optimization on (default), at least one
        // reoptimize round is traced unless the loop finished in one
        // profile segment.
        if report.reconfigurations > 0 {
            assert!(s.span_names.iter().any(|n| n == "reoptimize"));
        }
        assert!(report.cpu_phase_traffic.l1_accesses > 0);
    }

    #[test]
    fn traced_rejection_emits_reject_event_and_stays_balanced() {
        let (p, mut st) = sum_kernel(20);
        let mut mem = mem_with_data(20);
        let mut tracer = mesa_trace::RingTracer::new(1024);
        let opts = RunOptions::default();
        let err =
            run_offload_with(&p, &mut st, &mut mem, &SystemConfig::m128(), &opts, &mut tracer)
                .unwrap_err();
        assert!(matches!(err, MesaError::Rejected(_)));
        assert!(tracer.open_spans().is_empty());
        let has_reject = tracer.events().iter().any(|e| {
            matches!(&e.kind, mesa_trace::EventKind::Instant { name, detail }
                if name == "reject" && detail.contains("C3"))
        });
        assert!(has_reject, "reject instant with rendered reason expected");
    }

    #[test]
    fn untraced_and_traced_offloads_agree() {
        let n = 2000;
        let (p, st0) = sum_kernel(n);
        let mut st_a = st0.clone();
        let mut mem_a = mem_with_data(n);
        let a = run_offload(&p, &mut st_a, &mut mem_a, &SystemConfig::m128()).unwrap();
        let mut st_b = st0;
        let mut mem_b = mem_with_data(n);
        let mut tracer = mesa_trace::RingTracer::new(4096);
        let opts = RunOptions::default();
        let b =
            run_offload_with(&p, &mut st_b, &mut mem_b, &SystemConfig::m128(), &opts, &mut tracer)
                .unwrap();
        assert_eq!(a.accel_iterations, b.accel_iterations);
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(st_a.read(T1), st_b.read(T1));
    }

    /// Every coordinate a single tile can place onto (rows 0..4 after the
    /// FP-period rounding), so scrubbing them forces all nodes to the bus.
    fn all_tile_coords() -> Vec<mesa_accel::Coord> {
        (0..4).flat_map(|r| (0..8).map(move |c| mesa_accel::Coord::new(r, c))).collect()
    }

    /// [`run_offload_with`] on m128 under `plan`, untraced.
    fn run_faulted(
        p: &Program,
        st: &mut ArchState,
        mem: &mut MemorySystem,
        plan: FaultPlan,
    ) -> Result<OffloadReport, MesaError> {
        let opts = RunOptions { faults: Some(plan), cache: None };
        run_offload_with(p, st, mem, &SystemConfig::m128(), &opts, &mut NullTracer)
    }

    fn expected_sum(n: u64) -> u64 {
        (0..n).map(|i| u64::from((i % 100) as u32 + 1)).sum::<u64>() & 0xFFFF_FFFF
    }

    #[test]
    fn stuck_pes_are_scrubbed_and_results_stay_correct() {
        let n = 2000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        let plan = FaultPlan { stuck_pes: all_tile_coords(), ..FaultPlan::none() };
        let r = run_faulted(&p, &mut st, &mut mem, plan)
            .expect("episode survives stuck PEs");
        assert!(r.faults.stuck_pes_scrubbed > 0, "every placed node was on a stuck PE");
        assert_eq!(r.unmapped_nodes, r.placement.len(), "all nodes fell back to the bus");
        assert_eq!(st.read(T1) as u32 as u64, expected_sum(n));
        assert_eq!(st.pc, 0x1010);
    }

    #[test]
    fn dropped_bus_tokens_slow_but_do_not_corrupt() {
        let n = 2000;
        let (p, st0) = sum_kernel(n);

        let mut st_clean = st0.clone();
        let mut mem_clean = mem_with_data(n);
        let clean =
            run_offload(&p, &mut st_clean, &mut mem_clean, &SystemConfig::m128()).unwrap();

        // Stuck PEs push traffic onto the bus, where every 2nd token drops.
        let plan = FaultPlan {
            stuck_pes: all_tile_coords(),
            bus_drop_period: 2,
            ..FaultPlan::none()
        };
        let mut st = st0;
        let mut mem = mem_with_data(n);
        let r = run_faulted(&p, &mut st, &mut mem, plan)
            .expect("episode survives dropped bus tokens");
        assert!(r.faults.bus_tokens_dropped > 0);
        assert!(
            r.cycles_per_iteration() >= clean.cycles_per_iteration(),
            "retried tokens cannot make iterations faster"
        );
        assert_eq!(st.read(T1) as u32 as u64, expected_sum(n));
    }

    #[test]
    fn corrupted_counters_converge_under_reoptimization() {
        let n = 4000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        let plan = FaultPlan { seed: 7, counter_bit_flips: 4, ..FaultPlan::none() };
        let r = run_faulted(&p, &mut st, &mut mem, plan)
            .expect("episode survives counter corruption");
        if !r.reopt_rounds.is_empty() {
            assert!(r.faults.counter_bits_flipped > 0);
        }
        assert_eq!(st.read(T1) as u32 as u64, expected_sum(n));
        assert_eq!(st.pc, 0x1010);
    }

    #[test]
    fn truncated_config_stream_declines_and_loop_finishes_on_cpu() {
        let n = 2000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        let mut system = SystemConfig::m128();
        system.max_warmup_instrs = 50_000;
        let plan = FaultPlan { truncate_config: Some(3), ..FaultPlan::none() };
        let opts = RunOptions { faults: Some(plan), cache: None };
        let mut controller = MesaController::with_options(system.clone(), opts);
        let mut cpu = OoOCore::new(system.core);

        let err = controller.offload(&p, &mut st, &mut mem, &mut cpu, &mut NullTracer).unwrap_err();
        assert!(matches!(err, MesaError::ConfigStream(_)), "got {err}");

        // The region is blacklisted; a re-attempt declines without a loop.
        let err = controller.offload(&p, &mut st, &mut mem, &mut cpu, &mut NullTracer).unwrap_err();
        assert!(
            matches!(err, MesaError::NoLoopDetected | MesaError::LoopExitedDuringConfig),
            "got {err}"
        );

        // The loop still completes correctly on the CPU.
        let r = cpu.run(&p, &mut st, &mut mem, 0, RunLimits::none(), &mut mesa_cpu::NullMonitor);
        assert_eq!(r.stop, StopReason::Halted);
        assert_eq!(mem.data_mut().load_u32(OUT) as u64, expected_sum(n));
    }

    #[test]
    fn run_program_survives_config_truncation_end_to_end() {
        let n = 2000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        let mut system = SystemConfig::m128();
        system.max_warmup_instrs = 50_000;
        let plan = FaultPlan { truncate_config: Some(1), ..FaultPlan::none() };
        let opts = RunOptions { faults: Some(plan), cache: None };
        let mut controller = MesaController::with_options(system.clone(), opts);
        let mut cpu = OoOCore::new(system.core);
        let report = controller.run_program(&p, &mut st, &mut mem, &mut cpu, 10_000_000);
        assert!(report.halted, "program must reach its exit on the CPU");
        assert_eq!(report.config_declines, 1);
        assert!(report.offloads.is_empty());
        assert_eq!(mem.data_mut().load_u32(OUT) as u64, expected_sum(n));
    }

    #[test]
    fn report_accounting_is_consistent() {
        let n = 2000;
        let (p, mut st) = sum_kernel(n);
        let mut mem = mem_with_data(n);
        let r = run_offload(&p, &mut st, &mut mem, &SystemConfig::m128()).unwrap();
        assert!(r.total_cycles() >= r.warmup_cycles + r.accel_cycles);
        assert!(r.cycles_per_iteration() > 0.0);
        assert!(r.activity.loads > 0, "the offloaded loop loads every element");
        assert!(r.config_phase_cpu_cycles >= r.config.total());
    }

    /// Difference kernel: same shape and PC range as [`sum_kernel`], but
    /// with `sub` where the sum uses `add` — a stand-in for a code region
    /// that was rewritten in place between two requests.
    fn diff_kernel(n: u64) -> (Program, ArchState) {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.sub(T1, T1, T0);
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        a.sw(T1, A2, 0);
        a.li(A7, 93);
        a.ecall();
        let p = a.finish().unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, BASE);
        st.write(A1, BASE + 4 * n);
        st.write(A2, OUT);
        (p, st)
    }

    /// The warm path must be architecturally invisible: a repeat request
    /// served from the shared cache produces a byte-identical report and
    /// final state to the same request cold, while skipping the host-side
    /// map work (visible in the hit counters) — with or without an armed
    /// fault plan, whose scrubbing must act on the cached artifact exactly
    /// as on a freshly mapped one.
    #[test]
    fn shared_cache_is_architecturally_invisible() {
        let n = 2000;
        let system = SystemConfig::m128();
        // Stuck PEs push every node onto the bus, where every 3rd token drops.
        let plan = FaultPlan {
            stuck_pes: all_tile_coords(),
            bus_drop_period: 3,
            ..FaultPlan::none()
        };

        let run = |opts: &RunOptions| {
            let (p, mut st) = sum_kernel(n);
            let mut mem = mem_with_data(n);
            let r = run_offload_with(&p, &mut st, &mut mem, &system, opts, &mut NullTracer)
                .unwrap();
            let faults = r.faults;
            (format!("{r:?}"), format!("{st:?}"), faults)
        };

        for faults in [None, Some(plan)] {
            let armed = faults.is_some();
            let cache = std::sync::Arc::new(crate::SharedArtifactCache::new());
            let cached = RunOptions { faults: faults.clone(), cache: Some(cache.clone()) };

            let cold = run(&cached);
            let stats_cold = cache.stats();
            assert_eq!(stats_cold.hits(), 0);
            assert!(stats_cold.misses() > 0);
            assert!(stats_cold.inserts >= 2, "decoded program + mapped artifact");
            if armed {
                assert!(cold.2.stuck_pes_scrubbed > 0, "the plan must scrub placed nodes");
                assert!(cold.2.bus_tokens_dropped > 0, "the plan must drop bus tokens");
            }

            let warm = run(&cached);
            let stats_warm = cache.stats();
            assert!(stats_warm.program_hits > 0, "warm run must hit the decode cache");
            assert!(stats_warm.artifact_hits > 0, "warm run must hit the artifact cache");
            assert_eq!(cold, warm, "cache state must not leak into the report or state");

            // And both match the same run with no shared cache at all.
            let uncached = run(&RunOptions { faults, cache: None });
            assert_eq!(cold, uncached, "faults armed: {armed}");
        }
    }

    /// Stale-artifact coherence (the bugfix this PR exists for): a region
    /// rewritten in place between two requests — identical `(start_pc,
    /// end_pc)`, different machine words — must never be served the first
    /// request's decoded program or mapping. Before the fill fingerprint
    /// was folded into the shared-cache key, the second request below hit
    /// the stale entry and computed the *sum* instead of the difference.
    #[test]
    fn shared_cache_never_serves_stale_region_across_requests() {
        let n = 2000;
        let system = SystemConfig::m128();
        let cache = std::sync::Arc::new(crate::SharedArtifactCache::new());

        // Request 1: the sum kernel, filling the cache for [0x1000,0x1010).
        let (p1, mut st1) = sum_kernel(n);
        let mut mem1 = mem_with_data(n);
        let opts = RunOptions { faults: None, cache: Some(cache) };
        run_offload_with(&p1, &mut st1, &mut mem1, &system, &opts, &mut NullTracer).unwrap();

        // Request 2: same region bounds, rewritten body (sub, not add).
        let (p2, mut st2) = diff_kernel(n);
        let mut mem2 = mem_with_data(n);
        let warm =
            run_offload_with(&p2, &mut st2, &mut mem2, &system, &opts, &mut NullTracer).unwrap();
        assert_eq!(warm.region, (0x1000, 0x1010));

        // The rewritten region must compute the difference — exactly what
        // an uncached run computes.
        let (p2b, mut st2b) = diff_kernel(n);
        let mut mem2b = mem_with_data(n);
        let solo = run_offload(&p2b, &mut st2b, &mut mem2b, &system).unwrap();
        assert_eq!(format!("{warm:?}"), format!("{solo:?}"));
        assert_eq!(st2.read(T1), st2b.read(T1), "stale decode would compute the sum");
    }
}
