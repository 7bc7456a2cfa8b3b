//! Accelerator configurations, including the paper's three evaluation
//! backends M-64, M-128, and M-512 (§5.2).

use crate::{Coord, GridDim};
use mesa_isa::OpClass;

/// Which PEs carry single-precision floating-point hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpPattern {
    /// No FP anywhere (integer-only fabric).
    None,
    /// FP in 2×2 slices tiled over half the array (the paper's M-128:
    /// "half are equipped with single-precision floating-point logic",
    /// synthesized as 2×2 FP slices per Table 1).
    HalfSlices,
    /// Every PE has FP.
    All,
}

impl FpPattern {
    /// `true` when the PE at `c` has FP hardware.
    #[must_use]
    fn has_fp(self, c: Coord) -> bool {
        match self {
            FpPattern::None => false,
            FpPattern::All => true,
            // 2x2 slices in a checkerboard: half the array.
            FpPattern::HalfSlices => (c.row / 2 + c.col / 2).is_multiple_of(2),
        }
    }
}

/// Full accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccelConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// FP capability layout.
    pub fp: FpPattern,
    /// Concurrent ports from load/store entries into the cache.
    pub mem_ports: usize,
    /// Load/store entries available (structural bound on memory ops per
    /// mapped region).
    pub lsq_entries: usize,
    /// Extra latency per use of the fallback bus (for instructions the
    /// mapper failed to place; paper §3.3's "secondary bus ... slower but
    /// less restrictive data forwarding mechanism").
    pub fallback_bus_latency: u64,
    /// Human-readable name ("M-128" etc.).
    pub name: &'static str,
}

impl AccelConfig {
    /// M-64: 16×4 grid (the small configuration of Fig. 14).
    #[must_use]
    pub fn m64() -> Self {
        AccelConfig {
            rows: 16,
            cols: 4,
            fp: FpPattern::HalfSlices,
            mem_ports: 2,
            lsq_entries: 24,
            fallback_bus_latency: 6,
            name: "M-64",
        }
    }

    /// M-128: 16×8 grid, half FP (the paper's headline configuration).
    #[must_use]
    pub fn m128() -> Self {
        AccelConfig {
            rows: 16,
            cols: 8,
            fp: FpPattern::HalfSlices,
            mem_ports: 4,
            lsq_entries: 48,
            fallback_bus_latency: 6,
            name: "M-128",
        }
    }

    /// M-512: 64×8 grid (the large configuration).
    #[must_use]
    pub fn m512() -> Self {
        AccelConfig {
            rows: 64,
            cols: 8,
            fp: FpPattern::HalfSlices,
            mem_ports: 8,
            lsq_entries: 128,
            fallback_bus_latency: 6,
            name: "M-512",
        }
    }

    /// A custom square-ish configuration with `pes` processing elements in
    /// 8-wide rows (4-wide below 32 PEs), used by the PE-scaling study
    /// (Fig. 15).
    ///
    /// # Panics
    /// Panics if `pes` is not a multiple of the row width.
    #[must_use]
    pub fn with_pes(pes: usize) -> Self {
        let cols = if pes < 32 { 4 } else { 8 };
        assert!(pes.is_multiple_of(cols), "PE count {pes} not a multiple of {cols}");
        AccelConfig {
            rows: pes / cols,
            cols,
            fp: FpPattern::HalfSlices,
            // Ports grow with the array up to the cache's 8-port ceiling —
            // the structural limit behind Fig. 15's knee past 128 PEs.
            mem_ports: (pes / 16).clamp(1, 8),
            lsq_entries: (pes * 3 / 8).max(8),
            fallback_bus_latency: 6,
            name: "M-custom",
        }
    }

    /// The same configuration with unlimited memory ports — the "ideal
    /// memory" scenario of Fig. 15.
    #[must_use]
    pub fn with_ideal_memory(mut self) -> Self {
        self.mem_ports = usize::MAX;
        self.lsq_entries = usize::MAX / 2;
        self.name = "ideal-mem";
        self
    }

    /// Grid dimensions.
    #[must_use]
    pub fn grid(&self) -> GridDim {
        GridDim::new(self.rows, self.cols)
    }

    /// Total PE count.
    #[must_use]
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Maximum instructions mappable (equals PE count; the trace-cache size
    /// and condition C1's structural bound).
    #[must_use]
    pub fn max_instrs(&self) -> usize {
        self.num_pes()
    }

    /// Whether the PE at `c` can execute operations of class `class` —
    /// this is the hardware truth behind MESA's per-operation masking
    /// matrices `F_op` (paper §3.3).
    ///
    /// Memory classes are *not* PE operations (they occupy load/store
    /// entries); branches are evaluated by comparator-equipped PEs, which
    /// every PE has (§5.2).
    #[must_use]
    pub fn supports(&self, c: Coord, class: OpClass) -> bool {
        if !self.grid().contains(c) {
            return false;
        }
        match class {
            OpClass::System => false,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => self.fp.has_fp(c),
            _ => true,
        }
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::m128()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_dimensions_match_paper() {
        assert_eq!(AccelConfig::m64().num_pes(), 64);
        assert_eq!((AccelConfig::m64().rows, AccelConfig::m64().cols), (16, 4));
        assert_eq!(AccelConfig::m128().num_pes(), 128);
        assert_eq!((AccelConfig::m128().rows, AccelConfig::m128().cols), (16, 8));
        assert_eq!(AccelConfig::m512().num_pes(), 512);
        assert_eq!((AccelConfig::m512().rows, AccelConfig::m512().cols), (64, 8));
    }

    #[test]
    fn half_slices_is_half_the_array() {
        let cfg = AccelConfig::m128();
        let fp_count = cfg.grid().iter().filter(|&c| cfg.fp.has_fp(c)).count();
        assert_eq!(fp_count, 64, "half of 128 PEs carry FP");
    }

    #[test]
    fn fp_slices_are_2x2() {
        let p = FpPattern::HalfSlices;
        // The 2x2 block at (0,0)..(1,1) is uniform.
        let base = p.has_fp(Coord::new(0, 0));
        assert_eq!(p.has_fp(Coord::new(0, 1)), base);
        assert_eq!(p.has_fp(Coord::new(1, 0)), base);
        assert_eq!(p.has_fp(Coord::new(1, 1)), base);
        // The neighboring 2x2 block is the opposite.
        assert_ne!(p.has_fp(Coord::new(0, 2)), base);
    }

    #[test]
    fn supports_masks_fp_and_system() {
        let cfg = AccelConfig::m128();
        let fp_pe = cfg.grid().iter().find(|&c| cfg.fp.has_fp(c)).unwrap();
        let int_pe = cfg.grid().iter().find(|&c| !cfg.fp.has_fp(c)).unwrap();
        assert!(cfg.supports(fp_pe, OpClass::FpMul));
        assert!(!cfg.supports(int_pe, OpClass::FpMul));
        assert!(cfg.supports(int_pe, OpClass::IntAlu));
        assert!(!cfg.supports(fp_pe, OpClass::System));
        assert!(!cfg.supports(Coord::new(999, 0), OpClass::IntAlu));
    }

    #[test]
    fn ideal_memory_unbounds_ports() {
        let cfg = AccelConfig::m128().with_ideal_memory();
        assert_eq!(cfg.mem_ports, usize::MAX);
        assert_eq!(cfg.num_pes(), 128);
    }

    #[test]
    fn with_pes_scales() {
        for pes in [16, 32, 64, 128, 256, 512] {
            let cfg = AccelConfig::with_pes(pes);
            assert_eq!(cfg.num_pes(), pes);
        }
    }
}
