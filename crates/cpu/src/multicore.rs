//! Multicore execution over a shared memory system.
//!
//! Models the paper's 16-core baseline: each core runs its slice of an
//! OpenMP-parallel region against private L1s and the shared banked L2.
//! Cores are simulated one after another (their timing interacts only
//! through shared cache state and bank schedules), which is the standard
//! approximation for throughput-oriented data-parallel loops.

use crate::{CoreConfig, NullMonitor, OoOCore, RunLimits, RunResult};
use mesa_isa::{ArchState, Program};
use mesa_mem::{MemConfig, MemorySystem};
use mesa_trace::{Subsystem, Tracer};

/// Result of a multicore run.
#[derive(Debug, Clone)]
pub struct MulticoreResult {
    /// Per-core results, indexed by core ID.
    pub per_core: Vec<RunResult>,
    /// Per-core final architectural state, indexed by core ID (the
    /// live-out registers differential tests compare against a
    /// single-core golden run).
    pub final_states: Vec<ArchState>,
    /// Wall-clock cycles: the slowest core.
    pub cycles: u64,
    /// Total instructions retired across all cores.
    pub retired: u64,
}

/// A pool of identical out-of-order cores over one shared [`MemorySystem`].
#[derive(Debug)]
pub struct Multicore {
    cores: Vec<OoOCore>,
    mem: MemorySystem,
}

impl Multicore {
    /// Builds `n` cores of configuration `core_cfg` sharing a memory
    /// system configured by `mem_cfg`.
    #[must_use]
    pub fn new(core_cfg: CoreConfig, mem_cfg: MemConfig, n: usize) -> Self {
        Multicore {
            cores: (0..n).map(|_| OoOCore::new(core_cfg)).collect(),
            mem: MemorySystem::new(mem_cfg, n),
        }
    }

    /// The shared memory system (for workload data setup).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Runs `program` on every core, with per-core initial state produced
    /// by `make_state(core_id)` (the workload's static iteration split).
    ///
    /// Returns per-core timing; wall-clock time is the slowest core.
    /// `tracer` receives one `multicore.run_parallel` span covering the
    /// wall-clock window plus per-core cycle/retire counter samples (pass
    /// `&mut NullTracer` to skip tracing).
    ///
    /// Per-core *spans* would overlap on the single CPU timeline (cores
    /// share one trace thread and all start at cycle 0), which breaks
    /// Chrome-trace begin/end nesting — so per-core data is emitted as
    /// counters instead.
    pub fn run_parallel(
        &mut self,
        program: &Program,
        mut make_state: impl FnMut(usize) -> ArchState,
        limits: RunLimits,
        tracer: &mut dyn Tracer,
    ) -> MulticoreResult {
        let l2_before = self.mem.l2_stats().accesses();
        let dram_before = self.mem.dram_accesses();
        let mut per_core = Vec::with_capacity(self.cores.len());
        let mut final_states = Vec::with_capacity(self.cores.len());
        for (id, core) in self.cores.iter_mut().enumerate() {
            // Bank schedules model self-contention within one timeline;
            // cross-core pressure is the bandwidth bound below.
            self.mem.reset_bank_schedule();
            let mut state = make_state(id);
            let r = core.run(program, &mut state, &mut self.mem, id, limits, &mut NullMonitor);
            per_core.push(r);
            final_states.push(state);
        }
        let slowest = per_core.iter().map(|r| r.cycles).max().unwrap_or(0);
        let l2_demand = self.mem.l2_stats().accesses() - l2_before;
        let dram_demand = self.mem.dram_accesses() - dram_before;
        let cycles = slowest.max(self.mem.bandwidth_bound_cycles(l2_demand, dram_demand));
        let retired = per_core.iter().map(|r| r.retired).sum();
        if tracer.enabled() {
            tracer.span_begin(Subsystem::Cpu, "multicore.run_parallel", 0);
            for (id, r) in per_core.iter().enumerate() {
                tracer.counter(Subsystem::Cpu, &format!("core.{id}.cycles"), r.cycles, cycles);
                tracer.counter(Subsystem::Cpu, &format!("core.{id}.retired"), r.retired, cycles);
            }
            tracer.span_end(Subsystem::Cpu, "multicore.run_parallel", cycles);
        }
        MulticoreResult { per_core, final_states, cycles, retired }
    }

    /// Runs `program` on core 0 only (serial region / non-parallel
    /// benchmark), leaving the other cores idle.
    #[cfg(test)]
    fn run_serial(
        &mut self,
        program: &Program,
        state: &mut ArchState,
        limits: RunLimits,
    ) -> RunResult {
        self.cores[0].run(program, state, &mut self.mem, 0, limits, &mut NullMonitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_trace::NullTracer;
    use mesa_isa::{Asm, Xlen};
    use mesa_isa::reg::abi::*;

    /// sum over a slice of a shared array; each core gets a contiguous chunk.
    fn chunk_kernel() -> Program {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.add(T1, T1, T0);
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        a.li(A7, 93);
        a.ecall();
        a.finish().unwrap()
    }

    #[test]
    fn parallel_beats_serial_on_data_parallel_loop() {
        const N: u64 = 4096;
        const BASE: u64 = 0x10_0000;

        let program = chunk_kernel();
        let make_mc = || {
            let mut mc = Multicore::new(CoreConfig::default(), MemConfig::default(), 8);
            for i in 0..N {
                mc.mem_mut().data_mut().store_u32(BASE + 4 * i, 1);
            }
            mc
        };

        // 8 cores, each 1/8 of the array.
        let mut mc = make_mc();
        let chunk = N / 8;
        let par = mc.run_parallel(
            &program,
            |id| {
                let mut st = ArchState::new(0x1000, Xlen::Rv32);
                st.write(A0, BASE + 4 * chunk * id as u64);
                st.write(A1, BASE + 4 * chunk * (id as u64 + 1));
                st
            },
            RunLimits::none(),
            &mut NullTracer,
        );

        // Single core over the whole array.
        let mut mc = make_mc();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, BASE);
        st.write(A1, BASE + 4 * N);
        let ser = mc.run_serial(&program, &mut st, RunLimits::none());

        assert!(
            par.cycles * 3 < ser.cycles,
            "8 cores ({} cyc) should be well over 3x faster than 1 ({} cyc)",
            par.cycles,
            ser.cycles
        );
        assert_eq!(par.retired, ser.retired + 7 * 2); // 8x li/ecall pairs vs 1
    }

    #[test]
    fn wallclock_is_max_over_cores() {
        let program = chunk_kernel();
        const BASE: u64 = 0x10_0000;
        let mut mc = Multicore::new(CoreConfig::default(), MemConfig::default(), 2);
        for i in 0..1024u64 {
            mc.mem_mut().data_mut().store_u32(BASE + 4 * i, 1);
        }
        // Deliberately unbalanced split: core 0 gets 75%.
        let bounds = [(0u64, 768u64), (768, 1024)];
        let r = mc.run_parallel(
            &program,
            |id| {
                let mut st = ArchState::new(0x1000, Xlen::Rv32);
                st.write(A0, BASE + 4 * bounds[id].0);
                st.write(A1, BASE + 4 * bounds[id].1);
                st
            },
            RunLimits::none(),
            &mut NullTracer,
        );
        assert_eq!(r.cycles, r.per_core.iter().map(|c| c.cycles).max().unwrap());
        assert!(r.per_core[0].cycles > r.per_core[1].cycles);
    }

    #[test]
    fn traced_run_emits_balanced_span_and_per_core_counters() {
        let program = chunk_kernel();
        const BASE: u64 = 0x10_0000;
        let mut mc = Multicore::new(CoreConfig::default(), MemConfig::default(), 2);
        for i in 0..256u64 {
            mc.mem_mut().data_mut().store_u32(BASE + 4 * i, 1);
        }
        let mut tracer = mesa_trace::RingTracer::new(256);
        let r = mc.run_parallel(
            &program,
            |id| {
                let mut st = ArchState::new(0x1000, Xlen::Rv32);
                st.write(A0, BASE + 4 * 128 * id as u64);
                st.write(A1, BASE + 4 * 128 * (id as u64 + 1));
                st
            },
            RunLimits::none(),
            &mut tracer,
        );
        assert!(tracer.open_spans().is_empty());
        // span begin/end + 2 counters per core
        assert_eq!(tracer.len(), 2 + 2 * 2);
        let chrome = tracer.to_chrome_trace();
        let summary = mesa_trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
        assert!(summary.span_names.iter().any(|n| n == "multicore.run_parallel"));
        assert!(r.cycles > 0);
    }
}
