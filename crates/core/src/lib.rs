//! The MESA controller — the paper's primary contribution.
//!
//! MESA (Microarchitecture Extensions for Spatial Architecture Generation,
//! ISCA 2023) is a hardware block that watches a CPU for hot loops,
//! dynamically translates their machine code into a latency-weighted
//! dataflow graph, greedily places that graph onto a spatial accelerator,
//! offloads execution transparently, and keeps re-optimizing the placement
//! from latency counters measured on the accelerator itself.
//!
//! The crate is organized around the paper's three tasks (§3):
//!
//! * **T1 Encode** — [`Ldfg::build`]: register renaming to instruction
//!   addresses produces the Logical DFG.
//! * **T2 Optimize** — [`map_instructions`]: the data-driven greedy
//!   mapping algorithm (Algorithm 1) produces the Spatial DFG.
//! * **T3 Decode** — [`build_accel_program`]: the SDFG becomes a
//!   configuration bitstream for the backend.
//!
//! Around these sit the region detector ([`check_region`], conditions
//! C1–C3 of §4.1), the memory optimizations ([`memopt`], §4.2), the
//! hardware cycle model of the `imap` FSM ([`config_latency`], Fig. 8),
//! the iterative optimizer ([`reoptimize`], §1/F3), and the end-to-end
//! [`MesaController`].
//!
//! # Example
//!
//! ```
//! use mesa_core::{run_offload, SystemConfig};
//! use mesa_isa::{ArchState, Asm, Xlen, reg::abi::*};
//! use mesa_mem::{MemConfig, MemorySystem};
//!
//! // sum += a[i] over 4096 elements.
//! let mut a = Asm::new(0x1000);
//! a.label("loop");
//! a.lw(T0, A0, 0);
//! a.add(T1, T1, T0);
//! a.addi(A0, A0, 4);
//! a.bne(A0, A1, "loop");
//! let program = a.finish()?;
//!
//! let mut state = ArchState::new(0x1000, Xlen::Rv32);
//! state.write(A0, 0x10_0000);
//! state.write(A1, 0x10_0000 + 4 * 4096);
//! let mut mem = MemorySystem::new(MemConfig::default(), 2);
//! for i in 0..4096 {
//!     mem.data_mut().store_u32(0x10_0000 + 4 * i, 1);
//! }
//!
//! let report = run_offload(&program, &mut state, &mut mem, &SystemConfig::m128())?;
//! assert!(report.accel_iterations > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact_cache;
pub mod configure;
pub mod controller;
pub mod detect;
pub mod fabric;
pub mod dfg;
pub mod imap;
pub mod mapper;
pub mod memopt;
pub mod optimizer;

pub use artifact_cache::{ArtifactCacheStats, SharedArtifactCache};
pub use configure::{build_accel_program, ConfigCache, OptFlags};
pub use controller::{
    run_offload, run_offload_with, MesaController, MesaError, OffloadReport, ProgramRunReport,
    RunOptions, SystemConfig,
};
pub use detect::{check_region, DetectConfig, DetectedRegion, RejectReason};
pub use fabric::{
    run_tenants_fleet, run_tenants_fleet_shared, Admission, FabricError, FabricManager,
    FleetDriver, FleetRun, FleetStats, TenantId, TenantJob, TenantProgress, TenantStats,
};
pub use dfg::{BuildError, Ldfg, LdfgNode};
pub use imap::{config_latency, reconfig_latency, trace_map_stages, ConfigLatency, ImapTiming};
pub use mapper::{map_instructions, MapperConfig, Sdfg, WindowMode};
pub use memopt::{analyze as analyze_memopts, MemOptPlan};
pub use optimizer::{apply_counters, reoptimize, ReoptOutcome, ReoptRound};
