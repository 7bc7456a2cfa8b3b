//! # MESA — Microarchitecture Extensions for Spatial Architecture Generation
//!
//! A from-scratch Rust reproduction of the ISCA 2023 paper *MESA:
//! Microarchitecture Extensions for Spatial Architecture Generation*
//! (Wang et al.). MESA is a hardware controller that monitors a CPU for hot
//! loops, dynamically translates their machine code into a latency-weighted
//! dataflow graph, places that graph onto a 2-D spatial accelerator, and
//! iteratively re-optimizes the placement from measured latency counters.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`isa`] — RISC-V (RV32IMF / RV64I) decoding, encoding, an assembler
//!   DSL, and functional semantics.
//! * [`mem`] — sparse memory, set-associative cache hierarchy and AMAT
//!   counters.
//! * [`cpu`] — an out-of-order core timing model with the loop-stream
//!   detector, trace cache, and monitoring hooks MESA needs.
//! * [`accel`] — a cycle-level spatial accelerator (PE grid, neighbor
//!   links + half-ring NoC, load/store entries with forwarding).
//! * [`core`] — the MESA controller itself: LDFG/SDFG, the data-driven
//!   mapping algorithm, the `imap` FSM timing model, the region detector,
//!   the configuration generator and the iterative optimizer.
//! * [`baselines`] — OpenCGRA-like modulo scheduler and DynaSpAM-like
//!   1-D feedforward mapper used for the paper's comparisons.
//! * [`workloads`] — Rodinia-style kernels written in the assembler DSL.
//! * [`power`] — area/power/energy model seeded with the paper's Table 1.
//! * [`trace`] — cycle-timestamped tracing and Chrome-trace / JSON-lines /
//!   timeline exporters for every layer above.
//! * [`profile`] — bottleneck attribution over the counters: top-down
//!   cycle accounting, per-PE spatial heatmaps, measured critical paths
//!   and re-optimization deltas, unified into one profile report.
//!
//! ## Quickstart
//!
//! ```
//! use mesa::prelude::*;
//!
//! // Build a Rodinia-style kernel, then detect + map + offload it.
//! let kernel = mesa::workloads::by_name("nn", KernelSize::Tiny).unwrap();
//! let mut mem = MemorySystem::new(MemConfig::default(), 2);
//! kernel.populate(mem.data_mut());
//! let mut state = kernel.entry.clone();
//!
//! let report = run_offload(&kernel.program, &mut state, &mut mem, &SystemConfig::m128())?;
//! assert!(report.accel_iterations > 0);
//! # Ok::<(), mesa::core::MesaError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mesa_accel as accel;
pub use mesa_baselines as baselines;
pub use mesa_core as core;
pub use mesa_cpu as cpu;
pub use mesa_isa as isa;
pub use mesa_mem as mem;
pub use mesa_power as power;
pub use mesa_profile as profile;
pub use mesa_trace as trace;
pub use mesa_workloads as workloads;

/// Commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use mesa_accel::{AccelConfig, AccelProgram, SpatialAccelerator};
    pub use mesa_core::{
        run_offload, run_offload_with, MesaController, MesaError, OffloadReport, RunOptions,
        SystemConfig,
    };
    pub use mesa_cpu::{CoreConfig, Multicore, OoOCore, RunLimits};
    pub use mesa_isa::{ArchState, Asm, Instruction, Program, Reg, Xlen};
    pub use mesa_mem::{MemConfig, MemorySystem};
    pub use mesa_power::{EnergyParams, MemActivity};
    pub use mesa_trace::{NullTracer, RingTracer, Tracer};
    pub use mesa_workloads::{Kernel, KernelSize};
}
