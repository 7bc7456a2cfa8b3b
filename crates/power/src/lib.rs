//! Area, power, and energy model for the MESA reproduction.
//!
//! * [`area`] — Table 1 reproduction and area scaling relations, seeded
//!   with the paper's published Synopsys DC / CACTI results at 15 nm.
//! * [`energy`] — activity-based energy accumulation following §6.1's
//!   methodology (clock-gated idle units, per-cycle active fractions),
//!   grouped into the Fig. 13 component categories.
//!
//! Substitution note (see `DESIGN.md`): the paper synthesizes RTL for
//! absolute numbers; here the absolute anchors are the paper's own
//! published values, and the model supplies the activity scaling between
//! them.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod energy;

pub use area::{
    accel_area_mm2, core_additions_mm2, mesa_area_mm2, per_core_overhead_fraction, table1_rows,
    Table1Row,
};
pub use energy::{
    accel_energy, amortization_series, break_even_iterations, config_energy, cpu_energy,
    EnergyBreakdown, EnergyParams, MemActivity,
};
