//! Out-of-order core parameters.

use mesa_isa::Xlen;

/// Microarchitectural parameters of one out-of-order core.
///
/// The default models the paper's baseline: a quad-issue out-of-order
/// RISC-V core in the BOOM class (§6: "16-core quad-issue out-of-order
/// RISC-V CPU ... based on BOOM as the baseline core").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Front-end depth in cycles (fetch → dispatch).
    pub frontend_depth: u64,
    /// Branch misprediction redirect penalty in cycles.
    pub mispredict_penalty: u64,
    /// Integer ALUs.
    pub alu_units: usize,
    /// Integer multiply/divide units.
    pub muldiv_units: usize,
    /// FP units.
    pub fp_units: usize,
    /// Load/store ports to the L1.
    pub mem_ports: usize,
    /// Register width.
    pub xlen: Xlen,
    /// Macro-op fusion in the predecoded micro-op cache (RV32 only).
    ///
    /// Purely a simulator-speed optimization: the run loop's fast paths
    /// produce bit-identical cycle counts and architectural state to the
    /// reference path (property-tested in `mesa-bench`), they just get
    /// there faster. Disable to send every uop through the same loop's
    /// general `step` interpreter and generic timing arm.
    pub fusion: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 192,
            frontend_depth: 5,
            mispredict_penalty: 12,
            alu_units: 4,
            muldiv_units: 2,
            fp_units: 2,
            mem_ports: 2,
            xlen: Xlen::Rv32,
            fusion: true,
        }
    }
}

impl CoreConfig {
    /// The quad-issue BOOM-class baseline core.
    #[must_use]
    pub fn boom_baseline() -> Self {
        Self::default()
    }

    /// A smaller dual-issue core, used for the DynaSpAM-parameterized
    /// single-core comparison (Fig. 14 uses "the gem5 parameters as listed
    /// in the DynaSpAM paper", a 4-wide OoO core with a smaller window).
    #[must_use]
    pub fn dynaspam_host() -> Self {
        CoreConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 168,
            frontend_depth: 5,
            mispredict_penalty: 12,
            alu_units: 3,
            muldiv_units: 1,
            fp_units: 2,
            mem_ports: 2,
            xlen: Xlen::Rv32,
            fusion: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quad_issue() {
        let c = CoreConfig::default();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.fetch_width, 4);
        assert!(c.rob_size >= 128);
    }
}
