//! Cycle accounting for MESA's hardware pipeline: LDFG build, the `imap`
//! instruction-mapping state machine (paper Fig. 8), and configuration
//! writes.
//!
//! The paper's timing diagram gives the `imap` FSM one state per task of
//! Algorithm 1 — instruction fetch, candidate generation, masking/filter,
//! latency evaluation, reduction (argmin), and writeback — where every
//! state is a constant number of cycles except the reduction, whose depth
//! depends on the candidate matrix dimensions. The totals land in the
//! 10³–10⁴-cycle range reported in Table 2 ("JIT (ns-µs)").

use crate::MapperConfig;
use mesa_trace::{Subsystem, Tracer};

/// Per-stage cycle counts of the `imap` FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImapTiming {
    /// Read the next instruction from the LDFG.
    pub fetch: u64,
    /// Generate the candidate matrix `C_i`.
    pub gen_candidates: u64,
    /// Apply the `F_free ⊙ F_op` masks.
    pub filter: u64,
    /// Evaluate the latency matrix `l(C_i)` (parallel in hardware).
    pub latency_eval: u64,
    /// Write the chosen position to the SDFG.
    pub writeback: u64,
    /// Cycles per instruction to rename and insert into the LDFG.
    pub ldfg_per_instr: u64,
    /// Cycles to stream one node's operation + routing bits to the
    /// accelerator during configuration.
    pub config_write_per_node: u64,
    /// Fixed cost of a control transfer (architectural state shuttle +
    /// pipeline drain, §5.1).
    pub control_transfer: u64,
}

impl Default for ImapTiming {
    fn default() -> Self {
        ImapTiming {
            fetch: 1,
            gen_candidates: 1,
            filter: 1,
            latency_eval: 1,
            writeback: 1,
            ldfg_per_instr: 2,
            config_write_per_node: 3,
            control_transfer: 96,
        }
    }
}

impl ImapTiming {
    /// Reduction-tree depth for a `rows × cols` candidate matrix:
    /// `ceil(log2(rows*cols))` comparator levels.
    #[must_use]
    fn reduce_cycles(&self, window_rows: usize, window_cols: usize) -> u64 {
        let cells = (window_rows * window_cols).max(2);
        u64::from(usize::BITS - (cells - 1).leading_zeros())
    }

    /// Cycles the `imap` FSM spends per instruction.
    #[must_use]
    fn per_instr_cycles(&self, mapper: &MapperConfig) -> u64 {
        self.fetch
            + self.gen_candidates
            + self.filter
            + self.latency_eval
            + self.reduce_cycles(mapper.window_rows, mapper.window_cols)
            + self.writeback
    }
}

/// Cycle breakdown of one configuration episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfigLatency {
    /// Building (or refreshing) the LDFG from the trace cache.
    pub ldfg_cycles: u64,
    /// Running the `imap` FSM over every instruction.
    pub map_cycles: u64,
    /// Streaming the configuration bitstream to the accelerator.
    pub write_cycles: u64,
    /// Architectural state transfer + pipeline drain.
    pub transfer_cycles: u64,
}

impl ConfigLatency {
    /// Total configuration latency in cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ldfg_cycles + self.map_cycles + self.write_cycles + self.transfer_cycles
    }
}

/// Computes the configuration latency for a region of `n_instrs`
/// instructions, `n_tiles` duplicated instances, under the given mapper
/// window.
#[must_use]
pub fn config_latency(
    timing: &ImapTiming,
    mapper: &MapperConfig,
    n_instrs: usize,
    n_tiles: usize,
) -> ConfigLatency {
    let n = n_instrs as u64;
    ConfigLatency {
        ldfg_cycles: timing.ldfg_per_instr * n,
        map_cycles: timing.per_instr_cycles(mapper) * n,
        // Tiled instances are written per-copy (subgraph duplication).
        write_cycles: timing.config_write_per_node * n * n_tiles.max(1) as u64,
        transfer_cycles: timing.control_transfer,
    }
}

/// Emits the `map` span with one aggregated child span per `imap` FSM
/// stage (Fig. 8) onto the controller timeline, starting at `start`.
///
/// Hardware interleaves the stages per instruction; the trace aggregates
/// each stage's total dwell (`stage_cycles × n_instrs`) into one span so a
/// 512-instruction region costs 7 spans instead of ~3500 events. The
/// stage spans tile the map window exactly: the returned end cycle is
/// `start + per_instr_cycles(mapper) × n_instrs`.
pub fn trace_map_stages(
    timing: &ImapTiming,
    mapper: &MapperConfig,
    n_instrs: u64,
    start: u64,
    tracer: &mut dyn Tracer,
) -> u64 {
    let reduce = timing.reduce_cycles(mapper.window_rows, mapper.window_cols);
    let end = start + timing.per_instr_cycles(mapper) * n_instrs;
    if !tracer.enabled() {
        return end;
    }
    tracer.span_begin(Subsystem::Controller, "map", start);
    let mut t = start;
    for (name, per_instr) in [
        ("imap.fetch", timing.fetch),
        ("imap.gen_candidates", timing.gen_candidates),
        ("imap.filter", timing.filter),
        ("imap.latency_eval", timing.latency_eval),
        ("imap.reduce", reduce),
        ("imap.writeback", timing.writeback),
    ] {
        let dwell = per_instr * n_instrs;
        if dwell == 0 {
            continue;
        }
        tracer.span_begin(Subsystem::Controller, name, t);
        t += dwell;
        tracer.span_end(Subsystem::Controller, name, t);
    }
    debug_assert_eq!(t, end);
    tracer.span_end(Subsystem::Controller, "map", end);
    end
}

/// Cycles for a *re*configuration during iterative optimization: the LDFG
/// is already resident, so only mapping and writing are paid.
#[must_use]
pub fn reconfig_latency(
    timing: &ImapTiming,
    mapper: &MapperConfig,
    n_instrs: usize,
    n_tiles: usize,
) -> ConfigLatency {
    let full = config_latency(timing, mapper, n_instrs, n_tiles);
    ConfigLatency { ldfg_cycles: 0, transfer_cycles: 0, ..full }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One state of the `imap` state machine (paper Fig. 8). Each state
    /// corresponds to specific lines of Algorithm 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum ImapState {
        /// Idle / waiting for the next instruction (between instructions).
        Idle,
        /// Read the instruction and its sources from the LDFG (Alg. 1 l.2-3).
        Fetch,
        /// Generate the candidate matrix `C_i` (l.4).
        GenCandidates,
        /// Apply `F_free ⊙ F_op` (l.5).
        Filter,
        /// Evaluate the latency matrix (l.8-12, parallel in hardware).
        LatencyEval,
        /// Reduce to the arg-min position (l.13-16), one tree level per cycle.
        Reduce {
            /// Remaining comparator levels.
            levels_left: u64,
        },
        /// Commit the position to the SDFG and update `F_free` (l.19).
        Writeback,
    }

    /// A cycle-steppable model of the `imap` FSM: the test oracle that the
    /// closed-form [`ImapTiming::per_instr_cycles`] matches the state machine
    /// the paper's timing diagram describes.
    #[derive(Debug, Clone)]
    struct ImapFsm {
        timing: ImapTiming,
        reduce_levels: u64,
        state: ImapState,
        /// Cycles spent in the current state.
        dwell: u64,
        /// Total cycles consumed since reset.
        cycles: u64,
        /// Instructions mapped since reset.
        mapped: u64,
    }

    impl ImapFsm {
        /// Builds the FSM for a given candidate window.
        #[must_use]
        fn new(timing: ImapTiming, mapper: &MapperConfig) -> Self {
            let reduce_levels = timing.reduce_cycles(mapper.window_rows, mapper.window_cols);
            ImapFsm { timing, reduce_levels, state: ImapState::Idle, dwell: 0, cycles: 0, mapped: 0 }
        }

        /// Current state.
        #[must_use]
        fn state(&self) -> ImapState {
            self.state
        }

        /// Begins mapping the next instruction.
        ///
        /// # Panics
        /// Panics if the FSM is mid-instruction (not `Idle`).
        fn start_instruction(&mut self) {
            assert_eq!(self.state, ImapState::Idle, "imap busy");
            self.state = ImapState::Fetch;
            self.dwell = 0;
        }

        /// Advances one cycle; returns `true` when an instruction finished
        /// this cycle.
        fn step(&mut self) -> bool {
            use ImapState::*;
            if self.state == Idle {
                return false;
            }
            self.cycles += 1;
            self.dwell += 1;
            let (dwell_needed, next) = match self.state {
                // Guarded above; kept as a no-progress arm rather than a panic
                // so a corrupted state machine degrades instead of aborting.
                Idle => return false,
                Fetch => (self.timing.fetch, GenCandidates),
                GenCandidates => (self.timing.gen_candidates, Filter),
                Filter => (self.timing.filter, LatencyEval),
                LatencyEval => (
                    self.timing.latency_eval,
                    Reduce { levels_left: self.reduce_levels },
                ),
                Reduce { levels_left } => {
                    // One comparator level per cycle.
                    if levels_left > 1 {
                        self.state = Reduce { levels_left: levels_left - 1 };
                    } else {
                        self.state = Writeback;
                    }
                    self.dwell = 0;
                    return false;
                }
                Writeback => (self.timing.writeback, Idle),
            };
            if self.dwell >= dwell_needed {
                self.state = next;
                self.dwell = 0;
                if self.state == Idle {
                    self.mapped += 1;
                    return true;
                }
            }
            false
        }

        /// Runs the FSM to completion over `n` instructions and returns the
        /// total cycles.
        fn map_instructions(&mut self, n: u64) -> u64 {
            let start = self.cycles;
            for _ in 0..n {
                self.start_instruction();
                while !self.step() {}
            }
            self.cycles - start
        }
    }

    #[test]
    fn fsm_matches_closed_form() {
        let t = ImapTiming::default();
        let m = MapperConfig::default();
        let mut fsm = ImapFsm::new(t, &m);
        let cycles = fsm.map_instructions(17);
        assert_eq!(cycles, 17 * t.per_instr_cycles(&m));
        assert_eq!(fsm.mapped, 17);
    }

    #[test]
    fn fsm_walks_the_figure8_states_in_order() {
        let t = ImapTiming::default();
        let m = MapperConfig { window_rows: 2, window_cols: 2, ..Default::default() };
        let mut fsm = ImapFsm::new(t, &m);
        fsm.start_instruction();
        let mut states = vec![fsm.state()];
        while !fsm.step() {
            states.push(fsm.state());
        }
        // Fetch → GenCandidates → Filter → LatencyEval → Reduce(2) → WB.
        assert_eq!(states[0], ImapState::Fetch);
        assert_eq!(states[1], ImapState::GenCandidates);
        assert_eq!(states[2], ImapState::Filter);
        assert_eq!(states[3], ImapState::LatencyEval);
        assert!(matches!(states[4], ImapState::Reduce { levels_left: 2 }));
        assert!(matches!(states[5], ImapState::Reduce { levels_left: 1 }));
        assert_eq!(states[6], ImapState::Writeback);
        assert_eq!(fsm.state(), ImapState::Idle);
    }

    #[test]
    #[should_panic(expected = "imap busy")]
    fn fsm_rejects_overlapping_instructions() {
        let mut fsm = ImapFsm::new(ImapTiming::default(), &MapperConfig::default());
        fsm.start_instruction();
        fsm.start_instruction();
    }

    #[test]
    fn reduction_depth_is_log2() {
        let t = ImapTiming::default();
        assert_eq!(t.reduce_cycles(4, 8), 5); // 32 cells → 5 levels
        assert_eq!(t.reduce_cycles(2, 2), 2);
        assert_eq!(t.reduce_cycles(1, 2), 1);
        assert_eq!(t.reduce_cycles(8, 8), 6);
    }

    #[test]
    fn per_instr_matches_stage_sum() {
        let t = ImapTiming::default();
        let m = MapperConfig::default(); // 4x8 window
        assert_eq!(t.per_instr_cycles(&m), 1 + 1 + 1 + 1 + 5 + 1);
    }

    #[test]
    fn table2_range_for_typical_regions() {
        // "MESA's hardware configuration time is generally between 10^3 and
        // 10^4 cycles" (Table 2 discussion) for the 64-512 instruction
        // regions of the evaluation.
        let t = ImapTiming::default();
        let m = MapperConfig::default();
        for n in [64, 128, 256, 512] {
            let lat = config_latency(&t, &m, n, 1).total();
            assert!(
                (1_000..=10_000).contains(&lat),
                "{n} instrs → {lat} cycles outside Table 2 range"
            );
        }
    }

    #[test]
    fn tiling_multiplies_only_write_cycles() {
        let t = ImapTiming::default();
        let m = MapperConfig::default();
        let one = config_latency(&t, &m, 100, 1);
        let four = config_latency(&t, &m, 100, 4);
        assert_eq!(one.ldfg_cycles, four.ldfg_cycles);
        assert_eq!(one.map_cycles, four.map_cycles);
        assert_eq!(four.write_cycles, 4 * one.write_cycles);
    }

    #[test]
    fn trace_map_stages_tiles_the_map_window() {
        let t = ImapTiming::default();
        let m = MapperConfig::default();
        let mut tracer = mesa_trace::RingTracer::new(64);
        let end = trace_map_stages(&t, &m, 10, 100, &mut tracer);
        assert_eq!(end, 100 + 10 * t.per_instr_cycles(&m));
        assert!(tracer.open_spans().is_empty());
        // map + 6 stages, each begin+end.
        assert_eq!(tracer.len(), 2 * 7);
        let chrome = tracer.to_chrome_trace();
        let s = mesa_trace::validate_chrome_trace(&chrome).unwrap();
        assert!(s.span_names.iter().any(|n| n == "imap.reduce"));
    }

    #[test]
    fn reconfig_skips_ldfg_and_transfer() {
        let t = ImapTiming::default();
        let m = MapperConfig::default();
        let re = reconfig_latency(&t, &m, 100, 1);
        assert_eq!(re.ldfg_cycles, 0);
        assert_eq!(re.transfer_cycles, 0);
        assert!(re.total() < config_latency(&t, &m, 100, 1).total());
    }
}
