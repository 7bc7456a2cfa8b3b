//! Top-down cycle accounting for the out-of-order core.
//!
//! Classifies every CPU-phase cycle into one of four buckets — retiring,
//! frontend-bound, backend-core-bound, memory-bound — in the style of the
//! top-down microarchitectural analysis methodology, but driven entirely
//! by the counters the MESA hardware already exposes: retired-instruction
//! counts, `issue_wait_cycles`, `fetch_redirects`, and the memory system's
//! [`MemTraffic`] snapshot.
//!
//! The attribution is *exactly conservative*: the four buckets always sum
//! to the total cycle count. Retiring cycles are the ideal commit time at
//! the core's commit width; the remaining slack is apportioned across the
//! three stall buckets proportionally to their pressure signals with a
//! deterministic largest-remainder rounding, so no cycle is ever lost or
//! double-counted.

use mesa_cpu::{CoreConfig, PipelineStats};
use mesa_mem::{MemConfig, MemTraffic};
use mesa_trace::Json;

/// Top-down classification of one execution window's cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopDown {
    /// Cycles in the window (the sum of the four buckets, exactly).
    pub total_cycles: u64,
    /// Cycles explained by useful commit at the core's commit width.
    pub retiring: u64,
    /// Cycles attributed to fetch redirects (mispredicted branches and
    /// indirect jumps restarting the front end).
    pub frontend_bound: u64,
    /// Cycles attributed to issue-bandwidth and functional-unit pressure.
    pub backend_core_bound: u64,
    /// Cycles attributed to cache misses and DRAM accesses.
    pub memory_bound: u64,
}

impl TopDown {
    /// Classifies a CPU-phase window from its accumulated pipeline
    /// counters and the memory traffic it generated.
    ///
    /// `pipe` is the window's pipeline story (the controller accumulates
    /// one per offload episode), `traffic` the memory-system counters the
    /// same window produced, and `core`/`mem` the machine parameters that
    /// weight the pressure signals.
    #[must_use]
    pub fn attribute(
        pipe: &PipelineStats,
        traffic: &MemTraffic,
        core: &CoreConfig,
        mem: &MemConfig,
    ) -> TopDown {
        let total = pipe.cycles;
        // Ideal commit time: how long the window would take if the only
        // limit were commit bandwidth.
        let retiring = total.min(pipe.retired.div_ceil(u64::from(core.commit_width.max(1))));
        let slack = total - retiring;

        // Pressure signals, in approximate cycles each source could have
        // cost. They overlap in a real pipeline, so they serve as
        // apportionment weights for the measured slack rather than as
        // absolute counts.
        let frontend_w = pipe
            .fetch_redirects
            .saturating_mul(core.mispredict_penalty.saturating_add(core.frontend_depth));
        let backend_w = pipe.issue_wait_cycles;
        let memory_w = traffic
            .l1_misses
            .saturating_mul(mem.l2.hit_latency)
            .saturating_add(traffic.l2_misses.saturating_mul(mem.dram_latency));

        let [frontend_bound, backend_core_bound, memory_bound] =
            apportion(slack, [frontend_w, backend_w, memory_w]);
        TopDown { total_cycles: total, retiring, frontend_bound, backend_core_bound, memory_bound }
    }

    /// The conservation invariant: buckets sum exactly to the total.
    #[must_use]
    pub fn sums_to_total(&self) -> bool {
        self.retiring + self.frontend_bound + self.backend_core_bound + self.memory_bound
            == self.total_cycles
    }

    /// `(label, cycles)` pairs in display order.
    #[must_use]
    pub fn buckets(&self) -> [(&'static str, u64); 4] {
        [
            ("retiring", self.retiring),
            ("frontend-bound", self.frontend_bound),
            ("backend-core-bound", self.backend_core_bound),
            ("memory-bound", self.memory_bound),
        ]
    }

    /// The machine-readable object, e.g.
    /// `{"total_cycles":10,"retiring":4,...}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_cycles", self.total_cycles.into()),
            ("retiring", self.retiring.into()),
            ("frontend_bound", self.frontend_bound.into()),
            ("backend_core_bound", self.backend_core_bound.into()),
            ("memory_bound", self.memory_bound.into()),
        ])
    }

    /// A small text bar chart of the four buckets.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("top-down cycle accounting ({} cycles):\n", self.total_cycles);
        for (label, cycles) in self.buckets() {
            let pct = if self.total_cycles == 0 {
                0.0
            } else {
                cycles as f64 / self.total_cycles as f64 * 100.0
            };
            let bar = "#".repeat((pct / 5.0).round() as usize);
            out.push_str(&format!("  {label:<20} {cycles:>12}  {pct:>5.1}% |{bar}\n"));
        }
        out
    }
}

/// Splits `total` across three buckets proportionally to `weights`, with
/// deterministic largest-remainder rounding so the parts sum exactly to
/// `total`. All-zero weights put the whole total in the middle
/// (backend-core) bucket: with no pressure signal recorded, issue-side
/// serialization is the only remaining explanation the model has.
fn apportion(total: u64, weights: [u64; 3]) -> [u64; 3] {
    let denom: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if denom == 0 {
        return [0, total, 0];
    }
    let mut out = [0u64; 3];
    let mut rems = [(0u128, 0usize); 3];
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let num = u128::from(total) * u128::from(w);
        // num / denom <= total, so the cast back to u64 is lossless.
        out[i] = (num / denom) as u64;
        rems[i] = (num % denom, i);
        assigned += out[i];
    }
    let mut leftover = total - assigned;
    // Largest fractional remainder first; ties go to the lower index.
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, i) in rems {
        if leftover == 0 {
            break;
        }
        out[i] += 1;
        leftover -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(cycles: u64, retired: u64) -> PipelineStats {
        PipelineStats { cycles, retired, ..Default::default() }
    }

    #[test]
    fn conserves_with_no_pressure_signals() {
        let td = TopDown::attribute(
            &pipe(100, 40),
            &MemTraffic::default(),
            &CoreConfig::default(),
            &MemConfig::default(),
        );
        assert!(td.sums_to_total());
        assert_eq!(td.retiring, 10); // ceil(40 / 4)
        assert_eq!(td.backend_core_bound, 90); // all slack, no other signal
        assert_eq!(td.frontend_bound + td.memory_bound, 0);
    }

    #[test]
    fn retiring_caps_at_total() {
        // More retired work than cycles can explain (impossible input, but
        // the attribution must stay conservative anyway).
        let td = TopDown::attribute(
            &pipe(3, 1000),
            &MemTraffic::default(),
            &CoreConfig::default(),
            &MemConfig::default(),
        );
        assert!(td.sums_to_total());
        assert_eq!(td.retiring, 3);
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        assert_eq!(apportion(10, [1, 1, 1]).iter().sum::<u64>(), 10);
        assert_eq!(apportion(10, [0, 0, 0]), [0, 10, 0]);
        assert_eq!(apportion(7, [1, 0, 0]), [7, 0, 0]);
        // 7 * [2,3,2]/7 = [2,3,2]: exact split, no leftover.
        assert_eq!(apportion(7, [2, 3, 2]), [2, 3, 2]);
        // Ties in the fractional remainder resolve to the lower index.
        assert_eq!(apportion(1, [1, 1, 1])[0], 1);
    }

    #[test]
    fn memory_pressure_pulls_cycles_into_memory_bound() {
        let mut p = pipe(1000, 100);
        p.issue_wait_cycles = 10;
        let traffic = MemTraffic { l1_misses: 50, l2_misses: 20, ..Default::default() };
        let td =
            TopDown::attribute(&p, &traffic, &CoreConfig::default(), &MemConfig::default());
        assert!(td.sums_to_total());
        assert!(td.memory_bound > td.backend_core_bound);
        assert!(td.memory_bound > 0);
    }

    #[test]
    fn render_and_json_shapes() {
        let td = TopDown {
            total_cycles: 10,
            retiring: 4,
            frontend_bound: 1,
            backend_core_bound: 2,
            memory_bound: 3,
        };
        assert!(td.sums_to_total());
        assert!(td.render().contains("memory-bound"));
        let json = td.to_json().to_string();
        assert_eq!(mesa_trace::json::parse(&json).map(|j| j.to_string()), Ok(json));
        assert_eq!(td.to_json().get("retiring"), Some(&4u64.into()));
    }
}
