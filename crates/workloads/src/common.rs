//! Shared workload infrastructure: the [`Kernel`] container, memory
//! initialization, deterministic data generation, and multicore iteration
//! splitting.

use mesa_isa::{ArchState, MemoryIo, ParallelKind, Program, Reg, Xlen};
use mesa_test::Rng;

/// Problem size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelSize {
    /// A few hundred elements — unit tests.
    Tiny,
    /// A few thousand elements — the default benchmark size.
    #[default]
    Small,
    /// Tens of thousands of elements — scaling studies.
    Large,
}

impl KernelSize {
    /// Number of loop iterations (elements) for this size.
    #[must_use]
    pub fn elements(self) -> u64 {
        match self {
            KernelSize::Tiny => 512,
            KernelSize::Small => 4096,
            KernelSize::Large => 32768,
        }
    }
}

/// One contiguous memory initialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemInit {
    /// Base address of the block.
    pub addr: u64,
    /// Word values laid out from `addr`.
    pub words: Vec<u32>,
}

/// Iteration-space split description for the multicore baseline: the loop
/// walks `bounds.0` from its initial value to `bounds.1` in steps of
/// `stride` bytes; `followers` advance proportionally with the slice
/// start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelSplit {
    /// `(cursor, limit)` registers.
    pub bounds: (Reg, Reg),
    /// Bytes the cursor advances per iteration.
    pub stride: i64,
    /// Registers that advance `stride_bytes` per iteration alongside the
    /// cursor.
    pub followers: Vec<(Reg, i64)>,
}

/// A benchmark kernel: program, entry state, memory image, and metadata.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Benchmark name (Rodinia-style, e.g. `"nn"`).
    pub name: &'static str,
    /// One-line description of the modelled hot loop.
    pub description: &'static str,
    /// The program (hot loop + exit stub).
    pub program: Program,
    /// Entry architectural state.
    pub entry: ArchState,
    /// Memory image.
    pub init: Vec<MemInit>,
    /// Loop trip count.
    pub iterations: u64,
    /// OpenMP-style annotation MESA may exploit (already encoded in
    /// `program.annotations` too).
    pub annotation: Option<ParallelKind>,
    /// How the multicore baseline splits the iteration space (`None` =
    /// inherently serial).
    pub split: Option<ParallelSplit>,
    /// Uses floating-point (drives the OpenCGRA-compatible subset).
    pub fp: bool,
}

impl Kernel {
    /// Writes the kernel's data image into a memory.
    pub fn populate<M: MemoryIo>(&self, mem: &mut M) {
        for block in &self.init {
            for (i, &w) in block.words.iter().enumerate() {
                mem.store(block.addr + 4 * i as u64, 4, u64::from(w));
            }
        }
    }

    /// Entry state for core `core_id` of `n_cores` under static chunking
    /// of the iteration space. Falls back to: core 0 runs everything,
    /// other cores idle (empty range) for serial kernels.
    ///
    /// # Panics
    /// Panics if `core_id >= n_cores` or `n_cores == 0`.
    #[must_use]
    pub fn multicore_entry(&self, core_id: usize, n_cores: usize) -> ArchState {
        assert!(n_cores > 0 && core_id < n_cores);
        let mut st = self.entry.clone();
        let Some(split) = &self.split else {
            if core_id != 0 {
                // Idle core: empty range (cursor == limit) would still run
                // one iteration in a do-while loop, so jump straight to the
                // exit stub instead.
                st.pc = self.loop_end_pc();
            }
            return st;
        };
        let start = self.entry.read(split.bounds.0);
        let end = self.entry.read(split.bounds.1);
        let elements = (end.wrapping_sub(start) as i64 / split.stride) as u64;
        let chunk = elements.div_ceil(n_cores as u64);
        let lo = (chunk * core_id as u64).min(elements);
        let hi = (chunk * (core_id as u64 + 1)).min(elements);
        if lo >= hi {
            st.pc = self.loop_end_pc();
            return st;
        }
        st.write(split.bounds.0, start.wrapping_add((lo as i64 * split.stride) as u64));
        st.write(split.bounds.1, start.wrapping_add((hi as i64 * split.stride) as u64));
        for &(reg, stride) in &split.followers {
            let base = self.entry.read(reg);
            st.write(reg, base.wrapping_add((lo as i64 * stride) as u64));
        }
        st
    }

    /// PC of the first instruction after the hot loop (the exit stub).
    #[must_use]
    fn loop_end_pc(&self) -> u64 {
        // The hot loop is the region ending at the first backward branch.
        for (i, instr) in self.program.instrs.iter().enumerate() {
            if instr.is_backward_branch() {
                return self.program.base_pc + 4 * (i as u64 + 1);
            }
        }
        self.program.base_pc
    }

    /// PC range `(start, end)` of the hot loop.
    #[must_use]
    pub fn loop_region(&self) -> (u64, u64) {
        let end = self.loop_end_pc();
        for (i, instr) in self.program.instrs.iter().enumerate() {
            if instr.is_backward_branch() {
                let pc = self.program.base_pc + 4 * i as u64;
                return (pc.wrapping_add(instr.imm as u64), end);
            }
        }
        (self.program.base_pc, end)
    }
}

/// Fresh entry state at the standard program base.
#[must_use]
pub fn entry_at(base_pc: u64) -> ArchState {
    ArchState::new(base_pc, Xlen::Rv32)
}

/// Deterministic f32 data in `[lo, hi)`, stored as IEEE-754 bits.
#[must_use]
pub fn f32_data(seed: u64, n: u64, lo: f32, hi: f32) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| (lo + rng.gen::<f32>() * (hi - lo)).to_bits()).collect()
}

/// Deterministic u32 data in `[0, bound)`.
#[must_use]
pub fn u32_data(seed: u64, n: u64, bound: u32) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..bound)).collect()
}

/// Runs a kernel functionally (untimed) to completion and returns the
/// final state and memory. Used by tests and examples to establish golden
/// outputs independent of any timing model.
///
/// # Panics
/// Panics if the program runs past a generous instruction budget (bad
/// kernel or missing exit stub).
#[must_use]
pub fn run_functional(kernel: &Kernel) -> (ArchState, mesa_isa::FlatMemory) {
    let mut mem = mesa_isa::FlatMemory::new();
    kernel.populate(&mut mem);
    let mut st = kernel.entry.clone();
    let budget = kernel.iterations * 1000 + 1_000_000;
    for _ in 0..budget {
        let Some(instr) = kernel.program.fetch(st.pc) else {
            panic!("pc {:#x} left the program", st.pc);
        };
        let info = mesa_isa::step(&mut st, instr, &mut mem);
        if matches!(info.outcome, mesa_isa::Outcome::Halt) {
            return (st, mem);
        }
    }
    panic!("kernel `{}` did not halt within budget", kernel.name);
}

/// The standard program base address for all kernels.
pub const TEXT_BASE: u64 = 0x1_0000;
/// First data segment base.
pub const DATA_A: u64 = 0x10_0000;
/// Second data segment base.
pub const DATA_B: u64 = 0x80_0000;
/// Third data segment base.
pub const DATA_C: u64 = 0x100_0000;
/// Output segment base.
pub const DATA_OUT: u64 = 0x180_0000;

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::reg::abi::*;
    use mesa_isa::Asm;

    fn toy_kernel(n: u64) -> Kernel {
        let mut a = Asm::new(TEXT_BASE);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.sw(T0, A2, 0);
        a.addi(A0, A0, 4);
        a.addi(A2, A2, 4);
        a.bne(A0, A1, "loop");
        a.li(A7, 93);
        a.ecall();
        let program = a.finish().unwrap();
        let mut entry = entry_at(TEXT_BASE);
        entry.write(A0, DATA_A);
        entry.write(A1, DATA_A + 4 * n);
        entry.write(A2, DATA_OUT);
        Kernel {
            name: "toy",
            description: "copy loop",
            program,
            entry,
            init: vec![MemInit { addr: DATA_A, words: (0..n as u32).collect() }],
            iterations: n,
            annotation: Some(ParallelKind::Parallel),
            split: Some(ParallelSplit {
                bounds: (A0, A1),
                stride: 4,
                followers: vec![(A2, 4)],
            }),
            fp: false,
        }
    }

    #[test]
    fn loop_region_found() {
        let k = toy_kernel(100);
        let (start, end) = k.loop_region();
        assert_eq!(start, TEXT_BASE);
        assert_eq!(end, TEXT_BASE + 5 * 4);
        assert_eq!(k.loop_end_pc(), end);
    }

    #[test]
    fn multicore_entry_splits_evenly() {
        let k = toy_kernel(100);
        let e0 = k.multicore_entry(0, 4);
        let e3 = k.multicore_entry(3, 4);
        assert_eq!(e0.read(A0), DATA_A);
        assert_eq!(e0.read(A1), DATA_A + 4 * 25);
        assert_eq!(e0.read(A2), DATA_OUT);
        assert_eq!(e3.read(A0), DATA_A + 4 * 75);
        assert_eq!(e3.read(A1), DATA_A + 4 * 100);
        assert_eq!(e3.read(A2), DATA_OUT + 4 * 75);
    }

    #[test]
    fn multicore_entry_handles_remainders() {
        let k = toy_kernel(10);
        // 10 elements over 4 cores: 3,3,3,1.
        let mut covered = 0u64;
        for c in 0..4 {
            let e = k.multicore_entry(c, 4);
            covered += (e.read(A1) - e.read(A0)) / 4;
        }
        assert_eq!(covered, 10);
    }

    #[test]
    fn excess_cores_idle_at_exit_stub() {
        let k = toy_kernel(2);
        let e = k.multicore_entry(3, 4); // no elements left for core 3
        assert_eq!(e.pc, k.loop_end_pc());
    }

    #[test]
    fn serial_kernel_runs_on_core0_only() {
        let mut k = toy_kernel(100);
        k.split = None;
        let e0 = k.multicore_entry(0, 4);
        let e1 = k.multicore_entry(1, 4);
        assert_eq!(e0.pc, TEXT_BASE);
        assert_eq!(e1.pc, k.loop_end_pc());
    }

    #[test]
    fn populate_writes_data() {
        let k = toy_kernel(8);
        let mut mem = mesa_isa::FlatMemory::new();
        k.populate(&mut mem);
        assert_eq!(mem.load(DATA_A + 4 * 7, 4), 7);
    }

    #[test]
    fn data_generators_are_deterministic() {
        assert_eq!(f32_data(1, 16, 0.0, 1.0), f32_data(1, 16, 0.0, 1.0));
        assert_ne!(f32_data(1, 16, 0.0, 1.0), f32_data(2, 16, 0.0, 1.0));
        let d = u32_data(7, 100, 50);
        assert!(d.iter().all(|&v| v < 50));
    }
}
