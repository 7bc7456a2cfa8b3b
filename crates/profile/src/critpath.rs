//! Measured critical-path recomputation and re-optimization round
//! rendering.
//!
//! MESA's feedback channel exists to "rapidly identify the critical path
//! and pinpoint nodes or edges that are sources of bottleneck" (§1). This
//! module replays that analysis offline: fold the measured [`NodeCounter`]
//! averages into a fresh copy of the region's LDFG, recompute the
//! latency-weighted critical path, and render the controller's
//! [`ReoptRound`] records into a Fig. 13-style convergence report.

use mesa_accel::PerfCounters;
use mesa_core::{apply_counters, Ldfg, ReoptRound};
use mesa_trace::Json;

/// The critical path of a region under static vs measured weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// Path latency under the LDFG's static (model) weights.
    pub static_latency: u64,
    /// Path latency after folding the measured counter averages in.
    pub measured_latency: u64,
    /// Node indices on the measured path, source → sink.
    pub path: Vec<u32>,
    /// Human-readable description of each path node (`idx: instr (op N)`).
    pub nodes: Vec<String>,
}

impl CriticalPathReport {
    /// Recomputes the critical path from measured counters without
    /// touching the caller's LDFG: `ldfg` keeps its static weights, the
    /// measured copy is internal.
    #[must_use]
    pub fn from_measurements(ldfg: &Ldfg, counters: &PerfCounters) -> CriticalPathReport {
        let static_latency = ldfg.critical_path().1;
        let mut measured = ldfg.clone();
        apply_counters(&mut measured, counters);
        let (mut path, measured_latency) = measured.critical_path();
        // `critical_path` walks sink → source; report source-first.
        path.reverse();
        let nodes = path
            .iter()
            .map(|&i| {
                let n = &measured.nodes[i as usize];
                format!("{}: {} (op {})", i, n.instr, n.op_weight)
            })
            .collect();
        CriticalPathReport { static_latency, measured_latency, path, nodes }
    }

    /// Signed movement of the path latency once measurements are folded
    /// in: positive = the measured machine is slower than the model.
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.measured_latency as i64 - self.static_latency as i64
    }

    /// The machine-readable object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("static_latency", self.static_latency.into()),
            ("measured_latency", self.measured_latency.into()),
            ("delta", self.delta().into()),
            ("path", Json::arr(self.path.iter().copied())),
            ("nodes", Json::arr(self.nodes.iter().map(String::as_str))),
        ])
    }

    /// Text rendering: the headline latencies plus one line per path node.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path (measured): {} cycles over {} node(s), static model said {} ({}{})\n",
            self.measured_latency,
            self.path.len(),
            self.static_latency,
            if self.delta() >= 0 { "+" } else { "" },
            self.delta()
        );
        for n in &self.nodes {
            out.push_str(&format!("  {n}\n"));
        }
        out
    }
}

/// Renders one controller [`ReoptRound`] as a single report line.
#[must_use]
pub fn render_round(r: &ReoptRound) -> String {
    let action = if r.reconfigured {
        format!(
            "reconfigured: {} node(s) moved, {} tile(s), +{} cycles",
            r.placement_moves, r.tiles_after, r.reconfig_cycles
        )
    } else {
        "kept the current mapping".to_string()
    };
    format!(
        "round {}: after {} iters measured {} cyc/iter, remap model {}; \
         critical path {} -> {} ({}{}); {}",
        r.round,
        r.iterations_before,
        r.measured_cycles_per_iter,
        r.new_estimate,
        r.critical_path_before,
        r.critical_path_after,
        if r.critical_path_delta() >= 0 { "+" } else { "" },
        r.critical_path_delta(),
        action
    )
}

/// The machine-readable object for one [`ReoptRound`].
#[must_use]
pub fn round_to_json(r: &ReoptRound) -> Json {
    Json::obj([
        ("round", r.round.into()),
        ("iterations_before", r.iterations_before.into()),
        ("measured_cycles_per_iter", r.measured_cycles_per_iter.into()),
        ("new_estimate", r.new_estimate.into()),
        ("critical_path_before", r.critical_path_before.into()),
        ("critical_path_after", r.critical_path_after.into()),
        ("critical_path_delta", r.critical_path_delta().into()),
        ("placement_moves", r.placement_moves.into()),
        ("reconfigured", r.reconfigured.into()),
        ("tiles_after", r.tiles_after.into()),
        ("reconfig_cycles", r.reconfig_cycles.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_accel::NodeCounter;
    use mesa_isa::reg::abi::*;
    use mesa_isa::Asm;

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
    fn measured_weights_lengthen_the_path() {
        let ldfg = sum_ldfg();
        let mut counters = PerfCounters::new(ldfg.len());
        counters.nodes[0] =
            NodeCounter { fires: 10, total_op_cycles: 450, ..Default::default() };
        let cp = CriticalPathReport::from_measurements(&ldfg, &counters);
        assert!(cp.measured_latency > cp.static_latency);
        assert!(cp.delta() > 0);
        // The 45-cycle load must sit on the measured path.
        assert!(cp.path.contains(&0));
        // The input LDFG was not mutated: recomputing gives the same answer.
        let again = CriticalPathReport::from_measurements(&ldfg, &counters);
        assert_eq!(cp, again);
        let json = cp.to_json().to_string();
        assert_eq!(mesa_trace::json::parse(&json).map(|j| j.to_string()), Ok(json));
        assert!(cp.render().contains("critical path (measured)"));
    }

    #[test]
    fn round_rendering_and_json() {
        let r = ReoptRound {
            round: 1,
            iterations_before: 512,
            measured_cycles_per_iter: 52,
            new_estimate: 31,
            critical_path_before: 12,
            critical_path_after: 45,
            placement_moves: 7,
            reconfigured: true,
            tiles_after: 2,
            reconfig_cycles: 1200,
        };
        assert_eq!(r.critical_path_delta(), 33);
        let line = render_round(&r);
        assert!(line.contains("12 -> 45 (+33)"));
        assert!(line.contains("7 node(s) moved"));
        let json = round_to_json(&r).to_string();
        assert_eq!(mesa_trace::json::parse(&json).map(|j| j.to_string()), Ok(json));
        assert_eq!(round_to_json(&r).get("critical_path_delta"), Some(&33i64.into()));
    }
}
