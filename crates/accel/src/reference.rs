//! Straight-line reference interpreter for mapped DFGs — the differential
//! oracle for the optimized engine in [`crate::engine`].
//!
//! The fast engine pre-resolves static per-tile `NodePlan`s, lowers each
//! node's operation once per session instead of interpreting it per
//! firing, and reuses dense scratch buffers across iterations. Those are
//! exactly the optimizations a silent bug could hide in, so this module
//! re-implements the execution semantics with none of them: every
//! iteration allocates fresh buffers, every operand re-derives its
//! coordinates, route, and latency from the [`NodeConfig`] it came from,
//! and every value evaluation runs `step` on a fresh architectural state. Timing rules (fabric booking order, store commit chain,
//! forwarding, violations, predication) follow the same definitions, so
//! the two implementations must agree bit-for-bit on architectural
//! results, iteration counts, cycle totals, latency counters, and
//! activity statistics. [`run_differential`] executes both over cloned
//! memory systems and reports the first mismatching field.

use crate::engine::VIOLATION_REDO;
use crate::faults::{FaultLog, FaultPlan, BUS_DROP_PENALTY};
use crate::{
    AccelProgram, AccelRunResult, ActivityStats, Coord, LatencyModel, NodeConfig, Operand,
    PerfCounters, PlacementSnapshot, ProgramError, SessionError, SessionRequest,
    SpatialAccelerator,
};
use mesa_isa::{step, ArchState, Instruction, MemoryIo, OpClass, Outcome, Reg, Xlen};
use mesa_mem::MemorySystem;
use mesa_trace::NullTracer;
use std::fmt;

/// Per-tile interpreter state (the reference twin of the engine's
/// `TileSnap`).
struct RefTile {
    entry_regs: Vec<u64>,
    prev_value: Vec<u64>,
    prev_complete: Vec<u64>,
    iters: u64,
    last_complete: u64,
    running: bool,
    last_store_start: u64,
}

/// Shared-fabric accounting, re-stated from first principles: the n-th
/// request to a resource of capacity c can start no earlier than n / c
/// and no earlier than its data is ready.
struct RefFabric {
    port_requests: u64,
    port_count: u64,
    lane_requests: Vec<u64>,
    bus_requests: u64,
    bus_drop_period: u64,
    bus_drops: u64,
}

impl RefFabric {
    fn book_port(&mut self, ready: u64) -> u64 {
        let floor = self.port_requests / self.port_count;
        self.port_requests += 1;
        ready.max(floor)
    }

    fn book_lane(&mut self, row: usize, produced: u64) -> u64 {
        let floor = self.lane_requests[row];
        self.lane_requests[row] += 1;
        produced.max(floor)
    }

    fn book_bus(&mut self, produced: u64) -> u64 {
        let floor = self.bus_requests;
        self.bus_requests += 1;
        let start = produced.max(floor);
        if self.bus_drop_period > 0 && self.bus_requests.is_multiple_of(self.bus_drop_period) {
            self.bus_drops += 1;
            start + BUS_DROP_PENALTY
        } else {
            start
        }
    }
}

/// Memory stub for pure compute evaluation (reads zero, drops stores).
struct RefNoMemory;

impl MemoryIo for RefNoMemory {
    fn load(&mut self, _addr: u64, _width: u8) -> u64 {
        0
    }
    fn store(&mut self, _addr: u64, _width: u8, _value: u64) {}
}

/// Branch direction with exact ISA semantics on a fresh state; non-branch
/// outcomes (malformed configuration) fall through as not-taken.
fn ref_eval_branch(instr: &Instruction, v1: u64, v2: u64, xlen: Xlen) -> bool {
    let mut st = ArchState::new(0, xlen);
    if let Some(r) = instr.rs1 {
        st.write(r, v1);
    }
    if let Some(r) = instr.rs2 {
        st.write(r, v2);
    }
    match step(&mut st, instr, &mut RefNoMemory).outcome {
        Outcome::Branch { taken, .. } => taken,
        _ => false,
    }
}

/// Compute-node value with exact ISA semantics on a fresh state.
fn ref_eval_compute(instr: &Instruction, v1: u64, v2: u64, xlen: Xlen) -> u64 {
    let mut st = ArchState::new(0, xlen);
    if let Some(r) = instr.rs1 {
        st.write(r, v1);
    }
    if let Some(r) = instr.rs2 {
        st.write(r, v2);
    }
    step(&mut st, instr, &mut RefNoMemory);
    instr.rd.map_or(0, |rd| st.read(rd))
}

/// The tile-scaled instruction a node executes (induction immediates
/// stride by the tile count when the region is tiled).
fn effective_instr(node: &NodeConfig, tiles: usize) -> Instruction {
    let mut effective = node.instr;
    if node.scale_imm_by_tiles && tiles > 1 {
        effective.imm = node.instr.imm.wrapping_mul(tiles as i64);
    }
    effective
}

impl SpatialAccelerator {
    /// Executes a configured region on the reference interpreter (no
    /// NodePlans, no reused scratch, per-operand route re-derivation)
    /// under the same engine-level fault injection as
    /// [`run_session`](Self::run_session). Semantically interchangeable
    /// with a solo engine run.
    ///
    /// # Errors
    /// Returns [`ProgramError`] if the program fails validation against
    /// this accelerator's grid.
    fn execute_reference(
        &self,
        prog: &AccelProgram,
        entry: &ArchState,
        mem: &mut MemorySystem,
        requester: usize,
        max_iterations: u64,
        faults: &FaultPlan,
    ) -> Result<AccelRunResult, ProgramError> {
        prog.validate(self.config().grid())?;

        let n = prog.nodes.len();
        let tiles = prog.tiles.max(1);
        let rows_per_tile = prog.rows_per_tile();
        let cfg = self.config();

        let mut counters = PerfCounters::new(n);
        let mut activity = ActivityStats::default();
        let mut fabric = RefFabric {
            port_requests: 0,
            port_count: cfg.mem_ports.clamp(1, 1 << 20) as u64,
            lane_requests: vec![0; cfg.rows],
            bus_requests: 0,
            bus_drop_period: faults.bus_drop_period,
            bus_drops: 0,
        };
        let unlimited_ports = cfg.mem_ports >= usize::MAX / 2;

        let mut tile_states: Vec<RefTile> = (0..tiles)
            .map(|t| {
                let mut regs: Vec<u64> =
                    (0..Reg::COUNT).map(|i| entry.read(Reg::from_flat_index(i))).collect();
                if t > 0 {
                    for node in &prog.nodes {
                        if node.scale_imm_by_tiles {
                            if let Some(rd) = node.instr.dest() {
                                let v = regs[rd.flat_index()];
                                regs[rd.flat_index()] = v
                                    .wrapping_add((t as i128 * i128::from(node.instr.imm)) as u64);
                            }
                        }
                    }
                }
                RefTile {
                    entry_regs: regs,
                    prev_value: vec![0; n],
                    prev_complete: vec![0; n],
                    iters: 0,
                    last_complete: 0,
                    running: true,
                    last_store_start: 0,
                }
            })
            .collect();

        let mut total_iters = 0u64;
        let mut last_iter_tile = 0usize;

        loop {
            // Budget checked at round boundaries only, like the engine.
            if total_iters >= max_iterations {
                break;
            }
            let mut any = false;
            for (t, tile) in tile_states.iter_mut().enumerate() {
                if !tile.running {
                    continue;
                }
                any = true;
                self.reference_iteration(
                    prog,
                    tile,
                    t * rows_per_tile,
                    tiles,
                    &mut fabric,
                    mem,
                    requester,
                    unlimited_ports,
                    &mut counters,
                    &mut activity,
                    entry.xlen,
                );
                total_iters += 1;
                last_iter_tile = t;
            }
            if !any {
                break;
            }
        }

        let completed = tile_states.iter().all(|t| !t.running);
        let last = &tile_states[last_iter_tile];
        let final_regs = prog
            .live_out
            .iter()
            .map(|&(reg, node)| (reg, last.prev_value[node as usize]))
            .collect();
        let cycles = tile_states.iter().map(|t| t.last_complete).max().unwrap_or(0);

        Ok(AccelRunResult {
            iterations: total_iters,
            cycles,
            counters,
            activity,
            final_regs,
            completed,
            faults: FaultLog { bus_tokens_dropped: fabric.bus_drops, ..FaultLog::default() },
        })
    }

    /// Resolves one operand from its configuration: `(value,
    /// ready_at_consumer, transfer_cycles)`, re-deriving the producer's
    /// coordinates and route on every call.
    #[allow(clippy::too_many_arguments)]
    fn reference_operand(
        &self,
        prog: &AccelProgram,
        op: &Operand,
        consumer: Option<Coord>,
        row_offset: usize,
        tile: &RefTile,
        cur_value: &[u64],
        cur_complete: &[u64],
        base: u64,
        first_iter: bool,
        fabric: &mut RefFabric,
        activity: &mut ActivityStats,
    ) -> (u64, u64, u64) {
        match *op {
            Operand::None => (0, base, 0),
            Operand::InitReg(r) => (tile.entry_regs[r.flat_index()], base, 0),
            Operand::Node { idx, carried, via } => {
                if carried && first_iter {
                    return (tile.entry_regs[via.flat_index()], base, 0);
                }
                let i = idx as usize;
                let (value, produced) = if carried {
                    (tile.prev_value[i], tile.prev_complete[i])
                } else {
                    (cur_value[i], cur_complete[i])
                };
                let producer =
                    prog.nodes[i].coord.map(|c| Coord::new(c.row + row_offset, c.col));
                let arrival = match (producer, consumer) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            produced
                        } else if self.latency_model().is_local(a, b) {
                            activity.local_transfers += 1;
                            produced + self.latency_model().transfer_latency(a, b)
                        } else {
                            let lat = self.latency_model().transfer_latency(a, b);
                            let start = fabric.book_lane(a.row, produced);
                            activity.noc_transfers += 1;
                            activity.noc_hop_cycles += lat;
                            start + lat
                        }
                    }
                    _ => {
                        let start = fabric.book_bus(produced);
                        activity.fallback_transfers += 1;
                        start + self.config().fallback_bus_latency
                    }
                };
                (value, arrival.max(base), arrival - produced)
            }
        }
    }

    /// Runs one iteration of one tile, straight from the node
    /// configurations.
    #[allow(clippy::too_many_arguments)]
    fn reference_iteration(
        &self,
        prog: &AccelProgram,
        tile: &mut RefTile,
        row_offset: usize,
        tiles: usize,
        fabric: &mut RefFabric,
        mem: &mut MemorySystem,
        requester: usize,
        unlimited_ports: bool,
        counters: &mut PerfCounters,
        activity: &mut ActivityStats,
        xlen: Xlen,
    ) {
        let n = prog.nodes.len();
        let first_iter = tile.iters == 0;
        let base = if prog.pipelined { 0 } else { tile.last_complete };

        // Straight-line semantics: fresh buffers every iteration.
        let mut cur_value = vec![0u64; n];
        let mut cur_complete = vec![0u64; n];
        let mut branch_taken = vec![false; n];
        let mut stores_seen: Vec<(usize, u64, u8, u64)> = Vec::new();
        let mut iteration_complete = 0u64;

        for (i, node) in prog.nodes.iter().enumerate() {
            let consumer = node.coord.map(|c| Coord::new(c.row + row_offset, c.col));
            let effective = effective_instr(node, tiles);

            // ---- predication ----
            let disabled = node.guards.iter().any(|&g| branch_taken[g as usize]);
            if disabled {
                let (hv, hready, _) = self.reference_operand(
                    prog,
                    &node.hidden,
                    consumer,
                    row_offset,
                    tile,
                    &cur_value,
                    &cur_complete,
                    base,
                    first_iter,
                    fabric,
                    activity,
                );
                cur_value[i] = hv;
                cur_complete[i] = hready + 1; // mux pass-through
                activity.disabled_fires += 1;
                iteration_complete = iteration_complete.max(cur_complete[i]);
                continue;
            }

            // ---- operands ----
            let operand = |slot: usize,
                               cur_value: &[u64],
                               cur_complete: &[u64],
                               fabric: &mut RefFabric,
                               activity: &mut ActivityStats,
                               counters: &mut PerfCounters| {
                match node.inputs[slot] {
                    Operand::None => (0, base),
                    ref op => {
                        let (v, r, transfer) = self.reference_operand(
                            prog,
                            op,
                            consumer,
                            row_offset,
                            tile,
                            cur_value,
                            cur_complete,
                            base,
                            first_iter,
                            fabric,
                            activity,
                        );
                        counters.nodes[i].total_in_cycles[slot] += transfer;
                        counters.nodes[i].in_samples[slot] += 1;
                        (v, r)
                    }
                }
            };
            let (v1, r1) = operand(0, &cur_value, &cur_complete, fabric, activity, counters);
            let (v2, r2) = operand(1, &cur_value, &cur_complete, fabric, activity, counters);
            let ready = r1.max(r2).max(base);

            // ---- execute ----
            let complete = match node.instr.class() {
                OpClass::Load => {
                    let addr = v1.wrapping_add(effective.imm as u64);
                    let width = effective.op.mem_width().unwrap_or(0);
                    let raw = mem.data_mut().load(addr, width);
                    let value = if effective.op.load_sign_extends() {
                        let bits = u32::from(width) * 8;
                        ((raw << (64 - bits)) as i64 >> (64 - bits)) as u64
                    } else {
                        raw
                    };
                    cur_value[i] = value;
                    activity.loads += 1;

                    let mut timed: Option<u64> = None;
                    if let Some(s) = node.forwarded_from {
                        if let Some(&(_, saddr, _, scomplete)) =
                            stores_seen.iter().find(|&&(si, ..)| si == s as usize)
                        {
                            if saddr == addr {
                                activity.forwards += 1;
                                timed = Some(ready.max(scomplete) + 1);
                            }
                        }
                    }
                    if timed.is_none() {
                        if let Some(h) = node.vector_head {
                            if (h as usize) < i {
                                activity.vector_piggybacks += 1;
                                timed = Some(ready.max(cur_complete[h as usize]) + 1);
                            }
                        }
                    }
                    match timed {
                        Some(t) => t,
                        None => {
                            let (start, latency) = if unlimited_ports {
                                let acc = mem.access(requester, addr, false, ready);
                                (ready, acc.total)
                            } else {
                                let start = fabric.book_port(ready);
                                let acc = mem.access(requester, addr, false, start);
                                (start, acc.total)
                            };
                            let latency = if node.prefetched && !first_iter {
                                activity.prefetch_hits += 1;
                                latency.min(mem.config().l1.hit_latency)
                            } else {
                                latency
                            };
                            let mut complete = start + latency;
                            for &(si, saddr, swidth, scomplete) in &stores_seen {
                                if node.forwarded_from == Some(si as u32) {
                                    continue;
                                }
                                let overlap = u128::from(saddr)
                                    < u128::from(addr) + u128::from(width)
                                    && u128::from(addr) < u128::from(saddr) + u128::from(swidth);
                                if overlap && scomplete > start {
                                    activity.violations += 1;
                                    complete = complete.max(scomplete + VIOLATION_REDO);
                                }
                            }
                            complete
                        }
                    }
                }
                OpClass::Store => {
                    let addr = v1.wrapping_add(effective.imm as u64);
                    let width = effective.op.mem_width().unwrap_or(0);
                    let mut start = ready.max(tile.last_store_start + 1);
                    if !unlimited_ports {
                        start = fabric.book_port(start);
                    }
                    tile.last_store_start = start;
                    mem.data_mut().store(addr, width, v2);
                    mem.access(requester, addr, true, start);
                    activity.stores += 1;
                    stores_seen.push((i, addr, width, start + 1));
                    start + 1
                }
                OpClass::Branch => {
                    let taken = ref_eval_branch(&effective, v1, v2, xlen);
                    branch_taken[i] = taken;
                    activity.int_ops += 1;
                    activity.pe_busy_cycles += 1;
                    ready + 1
                }
                _ => {
                    let value = ref_eval_compute(&effective, v1, v2, xlen);
                    cur_value[i] = value;
                    let lat = effective.op.base_latency();
                    if node.instr.class().needs_fp() {
                        activity.fp_ops += 1;
                    } else {
                        activity.int_ops += 1;
                    }
                    activity.pe_busy_cycles += lat;
                    ready + lat
                }
            };

            cur_complete[i] = complete;
            counters.nodes[i].fires += 1;
            counters.nodes[i].total_op_cycles += complete - ready;
            iteration_complete = iteration_complete.max(complete);
        }

        // ---- loop decision ----
        let taken = branch_taken[prog.loop_branch as usize];
        tile.iters += 1;
        tile.last_complete = iteration_complete;
        tile.prev_value = cur_value;
        tile.prev_complete = cur_complete;
        if !taken {
            tile.running = false;
        }
    }
}

/// First field on which a fast run and a reference run disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Name of the mismatching [`AccelRunResult`] field.
    pub field: String,
    /// The fast engine's value, `Debug`-rendered.
    pub fast: String,
    /// The reference interpreter's value, `Debug`-rendered.
    pub reference: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence on {}: fast = {}, reference = {}",
            self.field, self.fast, self.reference
        )
    }
}

fn diff<T: PartialEq + fmt::Debug>(field: &str, fast: &T, reference: &T) -> Option<Divergence> {
    (fast != reference).then(|| Divergence {
        field: field.to_string(),
        fast: format!("{fast:?}"),
        reference: format!("{reference:?}"),
    })
}

/// Compares two run results field by field; `None` means they agree on
/// everything the oracle checks (architectural results, iteration counts,
/// cycles, counters, activity, fault log). Memory equality follows from
/// identical store sequences, which the counters/activity comparison
/// pins down together with the identical functional store values.
#[must_use]
fn compare_runs(fast: &AccelRunResult, reference: &AccelRunResult) -> Option<Divergence> {
    diff("iterations", &fast.iterations, &reference.iterations)
        .or_else(|| diff("completed", &fast.completed, &reference.completed))
        .or_else(|| diff("cycles", &fast.cycles, &reference.cycles))
        .or_else(|| diff("final_regs", &fast.final_regs, &reference.final_regs))
        .or_else(|| diff("activity", &fast.activity, &reference.activity))
        .or_else(|| {
            diff(
                "counters.len",
                &fast.counters.nodes.len(),
                &reference.counters.nodes.len(),
            )
        })
        .or_else(|| {
            fast.counters
                .nodes
                .iter()
                .zip(&reference.counters.nodes)
                .enumerate()
                .find_map(|(i, (a, b))| diff(&format!("counters[{i}]"), a, b))
        })
        .or_else(|| diff("faults", &fast.faults, &reference.faults))
}

/// Runs a program through the fast engine and the reference interpreter
/// over independent clones of `mem`, under the same fault plan, and
/// returns the first divergence (or `None` when they agree).
///
/// # Errors
/// Returns [`SessionError::Program`] if the program fails validation (both
/// engines validate identically, so one check reports for both).
#[allow(clippy::too_many_arguments)]
pub fn run_differential(
    accel: &SpatialAccelerator,
    prog: &AccelProgram,
    entry: &ArchState,
    mem: &MemorySystem,
    requester: usize,
    max_iterations: u64,
    faults: &FaultPlan,
) -> Result<Option<Divergence>, SessionError> {
    let mut fast_mem = mem.clone();
    let mut ref_mem = mem.clone();
    let req = SessionRequest::solo(requester, max_iterations, faults, accel.config().grid());
    let mut state = PlacementSnapshot::new(prog, entry, req.region.rows, faults);
    accel.run_session(prog, &mut fast_mem, &req, &mut state, &mut NullTracer, 0)?;
    let fast = state.into_result(prog);
    let reference =
        accel.execute_reference(prog, entry, &mut ref_mem, requester, max_iterations, faults)?;
    Ok(compare_runs(&fast, &reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccelConfig;
    use mesa_isa::reg::abi::*;
    use mesa_isa::{Instruction, Opcode};
    use mesa_mem::MemConfig;

    fn node(
        pc: u64,
        instr: Instruction,
        coord: (usize, usize),
        inputs: [Operand; 2],
    ) -> NodeConfig {
        NodeConfig::new(pc, instr, Some(Coord::new(coord.0, coord.1)), inputs)
    }

    /// sum loop with memory: t1 += mem[a0]; a0 += 4; bne a0, a1 — the same
    /// fixture the engine tests use, exercising loads, carried deps, and
    /// an InitReg bound.
    fn sum_loop() -> (AccelProgram, ArchState) {
        let lw = node(
            0x1000,
            Instruction::load(Opcode::Lw, T0, A0, 0),
            (0, 0),
            [Operand::Node { idx: 2, carried: true, via: A0 }, Operand::None],
        );
        let add = node(
            0x1004,
            Instruction::reg3(Opcode::Add, T1, T1, T0),
            (0, 1),
            [
                Operand::Node { idx: 1, carried: true, via: T1 },
                Operand::Node { idx: 0, carried: false, via: T0 },
            ],
        );
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, A0, A0, 4),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: A0 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, A0, A1, -12),
            (1, 1),
            [Operand::Node { idx: 2, carried: false, via: A0 }, Operand::InitReg(A1)],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![lw, add, addi, bne],
            loop_branch: 3,
            live_out: vec![(T1, 1), (A0, 2)],
            tiles: 1,
            pipelined: false,
        };
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, 0x10000);
        st.write(A1, 0x10000 + 4 * 16);
        (prog, st)
    }

    #[test]
    fn reference_computes_the_sum_loop() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..16u64 {
            mem.data_mut().store_u32(0x10000 + 4 * i, (i + 1) as u32);
        }
        let r = accel
            .execute_reference(&prog, &entry, &mut mem, 0, 1_000, &FaultPlan::none())
            .unwrap();
        assert!(r.completed);
        assert_eq!(r.iterations, 16);
        let sum = r.final_regs.iter().find(|(r, _)| *r == T1).unwrap().1;
        assert_eq!(sum, 136);
    }

    #[test]
    fn reference_matches_engine_on_sum_loop() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..16u64 {
            mem.data_mut().store_u32(0x10000 + 4 * i, (i + 1) as u32);
        }
        let d = run_differential(&accel, &prog, &entry, &mem, 0, 1_000, &FaultPlan::none())
            .unwrap();
        assert!(d.is_none(), "{}", d.map(|d| d.to_string()).unwrap_or_default());
    }

    #[test]
    fn reference_matches_engine_under_bus_drops() {
        let (mut prog, entry) = sum_loop();
        prog.nodes[1].coord = None; // force fallback-bus traffic
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..16u64 {
            mem.data_mut().store_u32(0x10000 + 4 * i, (i + 1) as u32);
        }
        let faults = FaultPlan { bus_drop_period: 3, ..FaultPlan::default() };
        let mut fault_mem = mem.clone();
        let d = run_differential(&accel, &prog, &entry, &mem, 0, 1_000, &faults).unwrap();
        assert!(d.is_none(), "{}", d.map(|d| d.to_string()).unwrap_or_default());

        // Dropped tokens slow the run down but never change results.
        let clean = accel.execute(&prog, &entry, &mut mem, 0, 1_000).unwrap();
        let req = SessionRequest::solo(0, 1_000, &faults, accel.config().grid());
        let mut state = PlacementSnapshot::new(&prog, &entry, req.region.rows, &faults);
        accel.run_session(&prog, &mut fault_mem, &req, &mut state, &mut NullTracer, 0).unwrap();
        let faulted = state.into_result(&prog);
        assert!(faulted.faults.bus_tokens_dropped > 0);
        assert!(faulted.cycles >= clean.cycles);
        assert_eq!(faulted.final_regs, clean.final_regs);
        assert_eq!(faulted.iterations, clean.iterations);
    }

    #[test]
    fn divergence_reports_the_first_mismatching_field() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mem = MemorySystem::new(MemConfig::default(), 1);
        let a = accel.execute(&prog, &entry, &mut mem.clone(), 0, 1_000).unwrap();
        let mut b = a.clone();
        assert_eq!(compare_runs(&a, &b), None);
        b.cycles += 1;
        let d = compare_runs(&a, &b).expect("must diverge");
        assert_eq!(d.field, "cycles");
        assert!(d.to_string().contains("divergence on cycles"));
        let mut c = a.clone();
        c.counters.nodes[2].fires += 1;
        assert_eq!(compare_runs(&a, &c).expect("must diverge").field, "counters[2]");
    }
}
