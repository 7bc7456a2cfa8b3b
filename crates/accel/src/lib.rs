//! Cycle-level spatial accelerator simulator for the MESA reproduction.
//!
//! This crate models the paper's custom parameterizable spatial accelerator
//! (§5.2): a 2-D grid of PEs with direct single-cycle neighbor links and a
//! lightweight half-ring NoC (Fig. 9), load/store entries that preserve
//! original program ordering with store→load forwarding (Fig. 5),
//! predicated forward branches, per-PE latency counters, and the spatial
//! tiling / pipelining loop optimizations (Fig. 6).
//!
//! The [`AccelProgram`] type is the decoded configuration bitstream the
//! MESA controller writes; [`SpatialAccelerator::execute`] runs it with
//! exact functional semantics and dataflow timing.
//!
//! Three preset configurations mirror the paper's evaluation backends:
//! [`AccelConfig::m64`], [`AccelConfig::m128`], and [`AccelConfig::m512`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod bitstream;
pub mod counters;
pub mod engine;
pub mod faults;
pub mod grid;
pub mod program;
pub mod reference;
pub mod snapshot;

pub use bitstream::{decode as decode_bitstream, encode as encode_bitstream, BitstreamError};
pub use config::{AccelConfig, FpPattern};
pub use counters::{ActivityStats, NodeCounter, PerfCounters};
pub use engine::{
    AccelRunResult, SessionError, SessionRequest, SpatialAccelerator,
};
pub use faults::{FaultLog, FaultPlan, BUS_DROP_PENALTY};
pub use grid::{
    Coord, GridDim, HalfRingModel, HierarchicalRowModel, LatencyModel, MeshModel, Region,
    REGION_ROW_ALIGN,
};
pub use program::{AccelProgram, NodeConfig, Operand, ProgramError};
pub use reference::{run_differential, Divergence};
pub use snapshot::{PlacementSnapshot, SnapshotError};
