//! Iterative runtime optimization (paper §1, F3): fold measured latencies
//! from the accelerator's performance counters back into the LDFG's
//! weights, re-run the mapping algorithm, and decide whether the improved
//! mapping justifies a reconfiguration.

use crate::{map_instructions, Ldfg, MapperConfig, Sdfg};
use mesa_accel::{AccelConfig, Coord, LatencyModel, PerfCounters};
use mesa_isa::OpClass;

/// Folds measured per-node latencies into the LDFG weights.
///
/// Node weights become the measured average operation latency (for memory
/// nodes this is their observed AMAT including port waits); edge weights
/// become the measured average transfer latency per operand slot.
pub fn apply_counters(ldfg: &mut Ldfg, counters: &PerfCounters) {
    for (node, ctr) in ldfg.nodes.iter_mut().zip(&counters.nodes) {
        if let Some(op) = ctr.avg_op() {
            node.op_weight = op.clamp(1, MAX_MEASURED_WEIGHT);
        }
        for slot in 0..2 {
            if let Some(t) = ctr.avg_in(slot) {
                node.edge_weight[slot] = t.min(MAX_MEASURED_WEIGHT);
            }
        }
    }
}

/// Ceiling on any single measured latency folded into the LDFG. No real
/// per-operation latency in these simulators approaches 2^20 cycles, but a
/// corrupted counter (a flipped high bit) can report one; unclamped it
/// would dominate every critical-path sum and steer placement forever.
const MAX_MEASURED_WEIGHT: u64 = 1 << 20;

/// Record of one F3 re-optimization round, kept by the controller so
/// profilers can reconstruct the convergence story (Fig. 13-style): what
/// the counters measured, what the remapped model predicted, how far the
/// measured critical path moved, and whether/how the placement changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReoptRound {
    /// Round number, starting at 0.
    pub round: u32,
    /// Accelerator iterations completed before this round ran.
    pub iterations_before: u64,
    /// Measured cycles per iteration of the configuration being replaced.
    pub measured_cycles_per_iter: u64,
    /// Model estimate of the remapped configuration's iteration latency.
    pub new_estimate: u64,
    /// LDFG critical-path latency under the weights in force *before* this
    /// round folded the new counter readings in.
    pub critical_path_before: u64,
    /// Critical-path latency after folding the measured latencies.
    pub critical_path_after: u64,
    /// Nodes whose placement coordinate changed (0 when the round declined
    /// to reconfigure).
    pub placement_moves: usize,
    /// Whether the round actually paid for a reconfiguration.
    pub reconfigured: bool,
    /// Tiles in force after the round.
    pub tiles_after: usize,
    /// Reconfiguration cycles charged by this round.
    pub reconfig_cycles: u64,
}

impl ReoptRound {
    /// Signed critical-path movement of this round's counter fold:
    /// positive = the measured weights lengthened the modeled path.
    #[must_use]
    pub fn critical_path_delta(&self) -> i64 {
        self.critical_path_after as i64 - self.critical_path_before as i64
    }
}

/// Outcome of a re-optimization attempt.
#[derive(Debug, Clone)]
pub struct ReoptOutcome {
    /// The new mapping under measured weights.
    pub sdfg: Sdfg,
    /// Model-estimated iteration latency of the new mapping.
    pub new_estimate: u64,
    /// Measured iteration latency of the current configuration.
    pub measured: u64,
    /// Whether the new mapping is predicted to beat the measured one by
    /// the improvement margin.
    pub worthwhile: bool,
}

/// Margin a remap must beat the measured latency by before paying a
/// reconfiguration (5%).
const IMPROVEMENT_NUM: u64 = 95;
const IMPROVEMENT_DEN: u64 = 100;

/// Re-runs the mapper under measured weights and compares against the
/// observed per-iteration latency.
#[must_use]
pub fn reoptimize<M: LatencyModel + ?Sized>(
    ldfg: &Ldfg,
    accel: &AccelConfig,
    model: &M,
    mapper: &MapperConfig,
    measured_iteration_latency: u64,
) -> ReoptOutcome {
    let supports = |c: Coord, class: OpClass| accel.supports(c, class);
    let sdfg = map_instructions(ldfg, accel.grid(), &supports, model, mapper);
    let new_estimate = sdfg.expected_iteration_latency();
    let worthwhile =
        new_estimate * IMPROVEMENT_DEN < measured_iteration_latency * IMPROVEMENT_NUM;
    ReoptOutcome { sdfg, new_estimate, measured: measured_iteration_latency, worthwhile }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_accel::{HalfRingModel, NodeCounter};
    use mesa_isa::Asm;
    use mesa_isa::reg::abi::*;

    fn sum_ldfg() -> Ldfg {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.add(T1, T1, T0);
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        Ldfg::build(&a.finish().unwrap()).unwrap()
    }

    #[test]
    fn counters_update_weights() {
        let mut ldfg = sum_ldfg();
        let mut counters = PerfCounters::new(ldfg.len());
        counters.nodes[0] = NodeCounter {
            fires: 10,
            total_op_cycles: 450, // the load averaged 45 cycles (missing)
            total_in_cycles: [20, 0],
            in_samples: [10, 0],
        };
        apply_counters(&mut ldfg, &counters);
        assert_eq!(ldfg.nodes[0].op_weight, 45);
        assert_eq!(ldfg.nodes[0].edge_weight[0], 2);
        // Unmeasured nodes keep their static estimates.
        assert_eq!(ldfg.nodes[1].op_weight, 1);
    }

    #[test]
    fn corrupted_counters_clamp_at_the_measured_ceiling() {
        let mut ldfg = sum_ldfg();
        let mut counters = PerfCounters::new(ldfg.len());
        // A flipped high bit reports an absurd latency; unclamped it would
        // dominate every critical-path sum and steer placement forever.
        counters.nodes[0] = NodeCounter {
            fires: 1,
            total_op_cycles: u64::MAX / 2,
            total_in_cycles: [u64::MAX / 2, 0],
            in_samples: [1, 0],
        };
        // A measured-zero average must still floor at weight 1.
        counters.nodes[1] =
            NodeCounter { fires: 10, total_op_cycles: 0, ..Default::default() };
        apply_counters(&mut ldfg, &counters);
        assert_eq!(ldfg.nodes[0].op_weight, MAX_MEASURED_WEIGHT);
        assert_eq!(ldfg.nodes[0].edge_weight[0], MAX_MEASURED_WEIGHT);
        assert_eq!(ldfg.nodes[1].op_weight, 1);

        // Boundary: a reading exactly at the ceiling passes unchanged.
        counters.nodes[0] = NodeCounter {
            fires: 1,
            total_op_cycles: MAX_MEASURED_WEIGHT,
            ..Default::default()
        };
        apply_counters(&mut ldfg, &counters);
        assert_eq!(ldfg.nodes[0].op_weight, MAX_MEASURED_WEIGHT);
    }

    #[test]
    fn measured_weights_change_the_model_latency() {
        let mut ldfg = sum_ldfg();
        let before = ldfg.iteration_latency();
        let mut counters = PerfCounters::new(ldfg.len());
        counters.nodes[0] =
            NodeCounter { fires: 1, total_op_cycles: 120, ..Default::default() };
        apply_counters(&mut ldfg, &counters);
        assert!(ldfg.iteration_latency() > before);
    }

    #[test]
    fn reoptimize_flags_worthwhile_when_measured_is_slow() {
        let ldfg = sum_ldfg();
        let accel = AccelConfig::m128();
        let model = HalfRingModel::default();
        let mapper = MapperConfig::default();
        // Measured latency hugely above the model → remap worthwhile.
        let out = reoptimize(&ldfg, &accel, &model, &mapper, 1000);
        assert!(out.worthwhile);
        // Measured latency already at the model's estimate → not worth it.
        let out2 = reoptimize(&ldfg, &accel, &model, &mapper, out.new_estimate);
        assert!(!out2.worthwhile);
    }
}
