//! The unified profile report: one machine-readable JSON document plus a
//! human text summary covering the CPU phase, the configuration phase,
//! and the offloaded phase of an episode.

use crate::{render_round, round_to_json, CriticalPathReport, SpatialProfile, TopDown};
use mesa_core::{Ldfg, OffloadReport, ReoptRound, SystemConfig};
use mesa_mem::MemTraffic;
use mesa_trace::Json;

/// Cycle totals of each episode phase. The phases are the interval
/// snapshots the controller already keeps; `total` is the episode
/// wall-clock (configuration and its CPU overlap run concurrently, so the
/// parts deliberately over-cover it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// CPU cycles spent monitoring before detection.
    pub warmup: u64,
    /// Configuration pipeline cycles (translate + map + write + transfer).
    pub config: u64,
    /// CPU cycles overlapped with configuration (§5.1).
    pub config_overlap_cpu: u64,
    /// Reconfiguration pauses from F3 rounds.
    pub reconfig: u64,
    /// Accelerated execution cycles.
    pub accel: u64,
    /// Control-return transfer cycles.
    pub return_transfer: u64,
    /// Episode wall-clock cycles.
    pub total: u64,
}

impl PhaseCycles {
    fn to_json(self) -> Json {
        Json::obj([
            ("warmup", self.warmup.into()),
            ("config", self.config.into()),
            ("config_overlap_cpu", self.config_overlap_cpu.into()),
            ("reconfig", self.reconfig.into()),
            ("accel", self.accel.into()),
            ("return_transfer", self.return_transfer.into()),
            ("total", self.total.into()),
        ])
    }
}

fn traffic_json(t: &MemTraffic) -> Json {
    Json::obj([
        ("l1_accesses", t.l1_accesses.into()),
        ("l1_misses", t.l1_misses.into()),
        ("l2_accesses", t.l2_accesses.into()),
        ("l2_misses", t.l2_misses.into()),
        ("dram_accesses", t.dram_accesses.into()),
    ])
}

/// The complete bottleneck-attribution report for one kernel episode.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Kernel name.
    pub kernel: String,
    /// Accelerator grid rows.
    pub grid_rows: usize,
    /// Accelerator grid columns.
    pub grid_cols: usize,
    /// Why the offload was declined (`None` = it ran on the fabric).
    pub reject: Option<String>,
    /// Per-phase cycle totals.
    pub phases: PhaseCycles,
    /// Top-down cycle accounting of the CPU phase.
    pub topdown: TopDown,
    /// Memory traffic of the CPU phase (warmup + configuration overlap).
    pub cpu_phase_traffic: MemTraffic,
    /// Memory traffic of the accelerated phase, when the caller sampled
    /// the episode-end totals.
    pub accel_phase_traffic: Option<MemTraffic>,
    /// Per-PE spatial attribution (`None` when the offload was declined).
    pub spatial: Option<SpatialProfile>,
    /// Critical path under measured weights (`None` without an LDFG).
    pub critical_path: Option<CriticalPathReport>,
    /// F3 re-optimization rounds, in order.
    pub rounds: Vec<ReoptRound>,
    /// Iterations executed on the fabric.
    pub accel_iterations: u64,
    /// Tiles in the final configuration.
    pub tiles: usize,
    /// Whether the final configuration was pipelined.
    pub pipelined: bool,
    /// The engine's operation total (`int + fp + loads + stores`), kept
    /// alongside the heatmap so consumers can check the fold invariant.
    pub activity_ops_total: u64,
    /// CPU instructions retired during the episode's CPU-side phases.
    pub cpu_retired: u64,
    /// Macro-op pairs the CPU's fusion pass retired as superinstructions,
    /// per idiom: `[cmp+branch, addr+load, addr+store, alu+alu]`.
    pub fused_pairs: [u64; 4],
    /// Of `cpu_retired`, instructions the functional fast-forward
    /// interpreter handled (`0` with fast-forward off).
    pub ff_instrs: u64,
}

impl ProfileReport {
    /// Builds the report for a completed offload episode.
    ///
    /// `ldfg` (the region's dependence graph, e.g. from the harness's
    /// `region_ldfg`) enables the critical-path section; `end_traffic`
    /// (the memory-system totals after the episode) enables the
    /// accelerated-phase traffic section.
    #[must_use]
    pub fn from_offload(
        kernel: &str,
        report: &OffloadReport,
        system: &SystemConfig,
        ldfg: Option<&Ldfg>,
        end_traffic: Option<&MemTraffic>,
    ) -> ProfileReport {
        let grid = system.accel.grid();
        let activity = &report.activity;
        ProfileReport {
            kernel: kernel.to_string(),
            grid_rows: grid.rows,
            grid_cols: grid.cols,
            reject: None,
            phases: PhaseCycles {
                warmup: report.warmup_cycles,
                config: report.config.total(),
                config_overlap_cpu: report.config_phase_cpu_cycles,
                reconfig: report.reconfig_cycles,
                accel: report.accel_cycles,
                return_transfer: report.config.transfer_cycles,
                total: report.total_cycles(),
            },
            topdown: TopDown::attribute(
                &report.cpu_pipeline,
                &report.cpu_phase_traffic,
                &system.core,
                &system.mem,
            ),
            cpu_phase_traffic: report.cpu_phase_traffic,
            accel_phase_traffic: end_traffic.map(|t| t.since(&report.cpu_phase_traffic)),
            spatial: Some(SpatialProfile::new(grid, &report.placement, &report.counters)),
            critical_path: ldfg
                .map(|l| CriticalPathReport::from_measurements(l, &report.counters)),
            rounds: report.reopt_rounds.clone(),
            accel_iterations: report.accel_iterations,
            tiles: report.tiles,
            pipelined: report.pipelined,
            activity_ops_total: activity.int_ops
                + activity.fp_ops
                + activity.loads
                + activity.stores,
            cpu_retired: report.cpu_pipeline.retired,
            fused_pairs: [
                report.cpu_pipeline.fusion.cmp_branch,
                report.cpu_pipeline.fusion.addr_load,
                report.cpu_pipeline.fusion.addr_store,
                report.cpu_pipeline.fusion.alu_alu,
            ],
            ff_instrs: report.ff_instrs,
        }
    }

    /// Builds the report for a declined episode (rejected, no stable loop,
    /// or exited during configuration): only the reject reason and any
    /// CPU-phase story survive.
    #[must_use]
    pub fn declined(kernel: &str, system: &SystemConfig, reason: &str) -> ProfileReport {
        let grid = system.accel.grid();
        ProfileReport {
            kernel: kernel.to_string(),
            grid_rows: grid.rows,
            grid_cols: grid.cols,
            reject: Some(reason.to_string()),
            phases: PhaseCycles::default(),
            topdown: TopDown::default(),
            cpu_phase_traffic: MemTraffic::default(),
            accel_phase_traffic: None,
            spatial: None,
            critical_path: None,
            rounds: Vec::new(),
            accel_iterations: 0,
            tiles: 0,
            pipelined: false,
            activity_ops_total: 0,
            cpu_retired: 0,
            fused_pairs: [0; 4],
            ff_instrs: 0,
        }
    }

    /// Fraction of CPU-retired instructions covered by fused pairs (two
    /// constituents per pair); `0.0` when nothing retired.
    #[must_use]
    fn fusion_hit_rate(&self) -> f64 {
        if self.cpu_retired == 0 {
            0.0
        } else {
            (2 * self.fused_pairs.iter().sum::<u64>()) as f64 / self.cpu_retired as f64
        }
    }

    /// The heatmap invariant: the spatial fold's fire total equals the
    /// engine's operation total. Trivially true for declined episodes.
    #[must_use]
    pub fn spatial_matches_activity(&self) -> bool {
        self.spatial.as_ref().is_none_or(|s| s.total_fires() == self.activity_ops_total)
    }

    /// The unified machine-readable report; writers lay it out one
    /// section per line ([`Json::to_lines`]). Deterministic: field order
    /// is fixed and every number derives from simulated cycles, so the
    /// same kernel at the same seed serializes byte-identically.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let [cmp_branch, addr_load, addr_store, alu_alu] = self.fused_pairs;
        let fusion = Json::obj([
            ("fused_pairs", self.fused_pairs.iter().sum::<u64>().into()),
            ("cmp_branch", cmp_branch.into()),
            ("addr_load", addr_load.into()),
            ("addr_store", addr_store.into()),
            ("alu_alu", alu_alu.into()),
            ("retired", self.cpu_retired.into()),
            ("hit_rate", Json::fixed(self.fusion_hit_rate(), 4)),
        ]);
        let simulated = self.cpu_retired.saturating_sub(self.ff_instrs).into();
        let fastfwd =
            Json::obj([("ff_instrs", self.ff_instrs.into()), ("simulated_instrs", simulated)]);
        let summary = Json::obj([
            ("accel_iterations", self.accel_iterations.into()),
            ("tiles", self.tiles.into()),
            ("pipelined", self.pipelined.into()),
            ("activity_ops_total", self.activity_ops_total.into()),
            ("fires_total", self.spatial.as_ref().map_or(0, SpatialProfile::total_fires).into()),
        ]);
        Json::obj([
            ("kernel", self.kernel.as_str().into()),
            ("grid", Json::obj([("rows", self.grid_rows.into()), ("cols", self.grid_cols.into())])),
            ("reject", self.reject.as_deref().into()),
            ("phases", self.phases.to_json()),
            ("topdown", self.topdown.to_json()),
            ("cpu_phase_traffic", traffic_json(&self.cpu_phase_traffic)),
            ("accel_phase_traffic", self.accel_phase_traffic.as_ref().map(traffic_json).into()),
            ("spatial", self.spatial.as_ref().map(SpatialProfile::to_json).into()),
            ("critical_path", self.critical_path.as_ref().map(CriticalPathReport::to_json).into()),
            ("reopt_rounds", Json::arr(self.rounds.iter().map(round_to_json))),
            ("fusion", fusion),
            ("fastfwd", fastfwd),
            ("summary", summary),
        ])
    }

    /// The human text summary: phases, top-down buckets, heatmap, hottest
    /// PEs, measured critical path, and the re-optimization rounds.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "== mesa-profile: {} on {}x{} fabric ==\n",
            self.kernel, self.grid_rows, self.grid_cols
        );
        if let Some(reason) = &self.reject {
            out.push_str(&format!("offload declined: {reason}\n"));
            out.push_str("(execution stayed on the host CPU; no fabric attribution)\n");
            return out;
        }
        out.push_str(&format!(
            "phases (cycles): warmup {} | config {} (cpu overlapped {}) | reconfig {} | \
             accel {} | return {} | total {}\n",
            self.phases.warmup,
            self.phases.config,
            self.phases.config_overlap_cpu,
            self.phases.reconfig,
            self.phases.accel,
            self.phases.return_transfer,
            self.phases.total
        ));
        out.push_str(&format!(
            "cpu speed: {} retired, {} fused pairs ({:.1}% fused), {} fast-forwarded\n",
            self.cpu_retired,
            self.fused_pairs.iter().sum::<u64>(),
            self.fusion_hit_rate() * 100.0,
            self.ff_instrs,
        ));
        out.push_str(&format!(
            "offload: {} iterations, {} tile(s){}\n\n",
            self.accel_iterations,
            self.tiles,
            if self.pipelined { ", pipelined" } else { "" }
        ));
        out.push_str(&self.topdown.render());
        out.push('\n');
        if let Some(spatial) = &self.spatial {
            out.push_str(&spatial.render());
            let hot = spatial.hottest(3);
            if !hot.is_empty() {
                let hot: Vec<String> = hot
                    .iter()
                    .map(|(c, cell)| format!("{c} {} cycles", cell.busy_cycles()))
                    .collect();
                out.push_str(&format!("hottest PEs: {}\n", hot.join(", ")));
            }
            out.push('\n');
        }
        if let Some(cp) = &self.critical_path {
            out.push_str(&cp.render());
            out.push('\n');
        }
        if self.rounds.is_empty() {
            out.push_str("re-optimization: no rounds ran (region completed within the first profile window)\n");
        } else {
            out.push_str("re-optimization rounds:\n");
            for r in &self.rounds {
                out.push_str(&format!("  {}\n", render_round(r)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declined_report_is_valid_and_minimal() {
        let system = SystemConfig::m128();
        let p = ProfileReport::declined("btree", &system, "C2: jump inside loop body");
        assert!(p.spatial_matches_activity());
        assert!(p.topdown.sums_to_total());
        let text = p.to_json().to_lines();
        assert_eq!(mesa_trace::json::parse(&text).map(|j| j.to_lines()), Ok(text));
        assert_eq!(p.to_json().get("reject"), Some(&"C2: jump inside loop body".into()));
        assert!(p.render().contains("offload declined"));
    }
}
