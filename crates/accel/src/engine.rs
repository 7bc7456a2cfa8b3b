//! Cycle-level dataflow execution engine for the spatial accelerator.
//!
//! Each configured node fires once per loop iteration when its inputs are
//! available (the dataflow model of paper §3.1). Values are computed with
//! the exact ISA semantics from `mesa-isa` ([`op_value`], on an operation
//! each node lowers once per session); timing follows the fabric:
//! single-cycle neighbor links, a contended half-ring NoC, a shared
//! fallback bus for unplaced nodes, and load/store entries that keep
//! original program order for stores while loads may run ahead, with
//! store→load forwarding and invalidation on address conflicts (§4.2).
//!
//! Tiled regions (Fig. 6) run one SDFG instance per tile, striding over the
//! iteration space; all tiles share the memory ports, which is what bends
//! the PE-scaling curve of Fig. 15 once ports saturate.

use crate::faults::{FaultLog, FaultPlan, BUS_DROP_PENALTY};
use crate::snapshot::{PlacementSnapshot, SnapshotError, TileSnap};
use crate::{
    AccelConfig, AccelProgram, ActivityStats, Coord, HalfRingModel, LatencyModel, NodeConfig,
    Operand, PerfCounters, ProgramError, Region,
};
use mesa_isa::{op_value, ArchState, Instruction, MemoryIo, OpClass, Opcode, Reg, Xlen};
use mesa_mem::MemorySystem;
use mesa_trace::{NullTracer, Subsystem, Tracer};
use std::fmt;

/// Extra cycles to replay a load invalidated by a conflicting store.
pub(crate) const VIOLATION_REDO: u64 = 2;

/// Result of executing a configured region.
#[derive(Debug, Clone)]
pub struct AccelRunResult {
    /// Loop iterations executed (across all tiles).
    pub iterations: u64,
    /// Total cycles from start to last completion.
    pub cycles: u64,
    /// Per-node latency counters (MESA's feedback channel).
    pub counters: PerfCounters,
    /// Aggregate activity for the energy model.
    pub activity: ActivityStats,
    /// Live-out register values to write back to the CPU.
    pub final_regs: Vec<(Reg, u64)>,
    /// `true` when every tile's loop exited naturally (vs. hitting the
    /// iteration cap).
    pub completed: bool,
    /// Engine-level fault events injected during this run.
    pub faults: FaultLog,
}

impl AccelRunResult {
    /// Average cycles per iteration.
    #[must_use]
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.cycles as f64 / self.iterations as f64
        }
    }
}

/// Parameters of one spatial session: who runs, where on the grid, for how
/// long, and whether the session should freeze itself.
///
/// A solo run ([`SessionRequest::solo`]) is the degenerate case — full-grid
/// region, never pause. The fabric manager uses explicit regions and
/// `pause_at_cycle` to time-slice tenants.
#[derive(Debug, Clone)]
pub struct SessionRequest<'a> {
    /// Memory-system requester id of the accelerator.
    pub requester: usize,
    /// Total iteration budget (cumulative across pauses/resumes).
    pub max_iterations: u64,
    /// Fault plan (only its timing faults act at the engine level).
    pub faults: &'a FaultPlan,
    /// Row band of the grid this session owns.
    pub region: Region,
    /// Freeze at the first round boundary whose session clock has reached
    /// this cycle (`None` = run to completion). Iterations stay contiguous
    /// because the check happens between rounds, like the budget check.
    pub pause_at_cycle: Option<u64>,
}

impl<'a> SessionRequest<'a> {
    /// A full-grid, never-pausing request: the one
    /// [`SpatialAccelerator::execute`] makes, and what faulted or traced
    /// solo runs pass to [`SpatialAccelerator::run_session`].
    #[must_use]
    pub fn solo(requester: usize, max_iterations: u64, faults: &'a FaultPlan, grid: crate::GridDim) -> Self {
        SessionRequest {
            requester,
            max_iterations,
            faults,
            region: Region::full(grid),
            pause_at_cycle: None,
        }
    }
}

/// Errors starting or resuming a spatial session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The program failed validation against the session's region.
    Program(ProgramError),
    /// The session state was rejected (wrong program, region height, or
    /// fault binding).
    Snapshot(SnapshotError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Program(e) => write!(f, "session program rejected: {e}"),
            SessionError::Snapshot(e) => write!(f, "session snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ProgramError> for SessionError {
    fn from(e: ProgramError) -> Self {
        SessionError::Program(e)
    }
}

impl From<SnapshotError> for SessionError {
    fn from(e: SnapshotError) -> Self {
        SessionError::Snapshot(e)
    }
}

/// The spatial accelerator: a PE grid with the fabric of paper §5.2.
#[derive(Debug, Clone)]
pub struct SpatialAccelerator {
    cfg: AccelConfig,
    model: HalfRingModel,
}

/// Per-iteration working buffers, allocated once per spatial session and
/// reused across every `run_iteration` of every tile. Buffers are reset
/// with `fill`/`clear` at each iteration start, which preserves the exact
/// semantics of fresh zero-initialized allocations. Nodes evaluate their
/// values from their [`NodePlan`]'s lowered [`PeOp`], so no architectural
/// state is staged per firing.
#[derive(Debug)]
struct IterScratch {
    cur_value: Vec<u64>,
    cur_complete: Vec<u64>,
    branch_taken: Vec<bool>,
    /// (node index, address, width, data_complete) per store seen so far.
    stores_seen: Vec<(usize, u64, u8, u64)>,
}

impl IterScratch {
    fn new(n: usize) -> Self {
        IterScratch {
            cur_value: vec![0; n],
            cur_complete: vec![0; n],
            branch_taken: vec![false; n],
            stores_seen: Vec::new(),
        }
    }

    /// Resets to the state a fresh iteration's buffers would have.
    fn reset(&mut self) {
        self.cur_value.fill(0);
        self.cur_complete.fill(0);
        self.branch_taken.fill(false);
        self.stores_seen.clear();
    }
}

/// Static route of one dataflow edge, resolved once per spatial session.
/// Placements never change during a run, so which link a transfer uses —
/// and its model latency — is a constant; only the contention (fabric
/// booking) is dynamic.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Producer and consumer share a PE: the value is already there.
    Same,
    /// Direct local link of the given latency (contention-free).
    Local(u64),
    /// Half-ring NoC: arbitrate the producer-row lane, then `lat` hops.
    Noc { row: usize, lat: u64 },
    /// Fallback bus (either endpoint unplaced) of the given latency.
    Bus(u64),
}

/// Pre-resolved operand: flat register indices and a static [`Route`]
/// instead of `Reg`/`Coord` lookups in the per-iteration loop.
#[derive(Debug, Clone, Copy)]
enum OpPlan {
    None,
    InitReg(usize),
    Node { idx: usize, carried: bool, via: usize, route: Route },
}

/// How a register file shapes a value written to one register: what
/// reading the register back returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Canon {
    /// `x0`, or no register at all: reads 0.
    Zero,
    /// An RV64 X register: reads back what was written.
    Keep,
    /// An RV32 X register: the low 32 bits, sign-extended.
    Sext32,
    /// An F register: the low 32 bits, zero-extended.
    Zext32,
}

impl Canon {
    fn of(r: Option<Reg>, xlen: Xlen) -> Canon {
        match (r, xlen) {
            (None | Some(Reg::X(0)), _) => Canon::Zero,
            (Some(Reg::F(_)), _) => Canon::Zext32,
            (Some(Reg::X(_)), Xlen::Rv32) => Canon::Sext32,
            (Some(Reg::X(_)), Xlen::Rv64) => Canon::Keep,
        }
    }

    #[inline]
    fn apply(self, v: u64) -> u64 {
        match self {
            Canon::Zero => 0,
            Canon::Keep => v,
            Canon::Sext32 => (v as u32) as i32 as i64 as u64,
            Canon::Zext32 => u64::from(v as u32),
        }
    }
}

/// One source register of a [`PeOp`]: which operand staging left in it
/// and how its register file shapes that operand.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// All-ones masks selecting `v1` and `v2` (both 0: the register
    /// reads 0). Masks rather than a selector keep the read branch-free.
    take: [u64; 2],
    canon: Canon,
}

impl Slot {
    #[inline]
    fn read(self, v1: u64, v2: u64) -> u64 {
        self.canon.apply((v1 & self.take[0]) | (v2 & self.take[1]))
    }
}

/// A compute or branch node's operation, lowered once per session from its
/// tile-scaled instruction so a firing calls [`op_value`] on its operands
/// directly.
///
/// It reproduces exactly what evaluating the instruction with `step` on a
/// zeroed `ArchState` at PC 0 gives after writing `v1` to `rs1` and then
/// `v2` to `rs2`:
/// - `rs2` wins when `rs1 == rs2`, `rs3` reads 0 unless it aliases one of
///   them, and `x0` reads 0;
/// - each source is shaped by its register file (RV32 X registers
///   sign-extend, F registers keep the low 32 bits);
/// - `rd` reads back through the same shaping, and `x0` or no `rd` gives 0.
#[derive(Debug, Clone, Copy)]
struct PeOp {
    op: Opcode,
    imm: i64,
    xlen: Xlen,
    /// `rs1`, `rs2`, `rs3`.
    srcs: [Slot; 3],
    rd: Canon,
}

impl PeOp {
    fn lower(instr: &Instruction, xlen: Xlen) -> PeOp {
        // The register `r` holds whichever operand was written to it last.
        let slot = |r: Option<Reg>| {
            let canon = Canon::of(r, xlen);
            let take = if canon == Canon::Zero {
                [0, 0]
            } else if r == instr.rs2 {
                [0, u64::MAX]
            } else if r == instr.rs1 {
                [u64::MAX, 0]
            } else {
                [0, 0]
            };
            Slot { take, canon }
        };
        let srcs = [slot(instr.rs1), slot(instr.rs2), slot(instr.rs3)];
        if instr.op.is_system() {
            // A system op writes no register: `rd` reads back as staged,
            // which is what `ori rd, rd, 0` computes.
            return PeOp {
                op: Opcode::Ori,
                imm: 0,
                xlen,
                srcs: [slot(instr.rd), slot(None), slot(None)],
                rd: Canon::of(instr.rd, xlen),
            };
        }
        PeOp { op: instr.op, imm: instr.imm, xlen, srcs, rd: Canon::of(instr.rd, xlen) }
    }

    #[inline]
    fn eval(&self, v1: u64, v2: u64) -> u64 {
        let [a, b, c] = self.srcs.map(|s| s.read(v1, v2));
        op_value(self.op, a, b, c, self.imm, 0, self.xlen)
    }

    /// A conditional branch's direction.
    #[inline]
    fn taken(&self, v1: u64, v2: u64) -> bool {
        self.eval(v1, v2) != 0
    }

    /// The value a compute node leaves in `rd`.
    #[inline]
    fn value(&self, v1: u64, v2: u64) -> u64 {
        self.rd.apply(self.eval(v1, v2))
    }
}

/// A load's static shape and memory-optimization flags.
#[derive(Debug, Clone, Copy)]
struct LoadPlan {
    imm: i64,
    width: u8,
    sign_extend: bool,
    forwarded_from: Option<u32>,
    vector_head: Option<u32>,
    prefetched: bool,
}

/// What a node does when it fires.
#[derive(Debug, Clone, Copy)]
enum Fire {
    Load(LoadPlan),
    Store { imm: i64, width: u8 },
    /// Taken when the op evaluates non-zero.
    Branch(PeOp),
    Compute { op: PeOp, latency: u64, fp: bool },
}

/// Per-node execution plan: everything about a node that is invariant
/// across iterations, computed once per tile per session so the
/// per-iteration loop reads only the plan (the node's guard list aside,
/// which it walks only when `guarded` is set). That covers the lowered
/// operation ([`Fire`], from the tile-scaled instruction) and the operand
/// routes. The loop performs no coordinate math, latency-model dispatch,
/// opcode-property lookup or instruction decode.
#[derive(Debug, Clone)]
struct NodePlan {
    fire: Fire,
    inputs: [OpPlan; 2],
    hidden: OpPlan,
    /// Whether any guard predicates the node.
    guarded: bool,
}

/// Resolves one pre-planned operand to `(value, ready_time_at_consumer,
/// transfer_cycles)` — the last is what the per-edge latency counters
/// record (paper §5.2). Always inlined: a firing resolves up to three
/// operands, and an out-of-line call per operand cost program-large about
/// an eighth of its host time.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn resolve_operand(
    op: &OpPlan,
    tile: &TileSnap,
    cur_value: &[u64],
    cur_complete: &[u64],
    base: u64,
    first_iter: bool,
    fabric: &mut Bookings,
    activity: &mut ActivityStats,
) -> (u64, u64, u64) {
    match *op {
        OpPlan::None => (0, base, 0),
        OpPlan::InitReg(flat) => (tile.entry_regs[flat], base, 0),
        OpPlan::Node { idx, carried, via, route } => {
            if carried && first_iter {
                return (tile.entry_regs[via], base, 0);
            }
            let (value, produced) = if carried {
                (tile.prev_value[idx], tile.prev_complete[idx])
            } else {
                (cur_value[idx], cur_complete[idx])
            };
            let arrival = match route {
                Route::Same => produced,
                Route::Local(lat) => {
                    activity.local_transfers += 1;
                    produced + lat
                }
                Route::Noc { row, lat } => {
                    let start = fabric.book_lane(row, produced);
                    activity.noc_transfers += 1;
                    activity.noc_hop_cycles += lat;
                    start + lat
                }
                Route::Bus(lat) => {
                    let start = fabric.book_bus(produced);
                    activity.fallback_transfers += 1;
                    start + lat
                }
            };
            (value, arrival.max(base), arrival - produced)
        }
    }
}

/// Shared fabric bandwidth accounting (memory ports, NoC lanes, fallback
/// bus): the booking counters a session carries in its
/// [`PlacementSnapshot`].
///
/// Each resource is a rate limiter with backfill: the `n`-th request to a
/// resource of capacity `c` per cycle can start no earlier than `n / c`,
/// and no earlier than its data is ready. Nodes are *booked* in program
/// order rather than time order, so a strict per-port FIFO schedule would
/// let one late-ready access (a store at the end of a long dataflow chain)
/// block earlier-ready accesses booked after it — a hardware port would
/// simply serve them in its idle slots. The token floor models exactly
/// that: under saturation it enforces the aggregate bandwidth; under light
/// load readiness dominates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bookings {
    /// Fault binding: every N-th bus transfer drops its token (0 = off).
    pub(crate) bus_drop_period: u64,
    /// Memory requests issued so far.
    pub(crate) port_requests: u64,
    /// Fallback-bus transfers issued (also the drop-schedule position).
    pub(crate) bus_requests: u64,
    /// Bus tokens dropped so far.
    pub(crate) bus_drops: u64,
    /// NoC transfers issued per row lane, indexed relative to the region.
    pub(crate) lane_requests: Vec<u64>,
}

impl Bookings {
    /// Books one slot of `ports` memory ports for a request ready at
    /// `ready`; returns its start time.
    fn book_port(&mut self, ready: u64, ports: u64) -> u64 {
        let floor = self.port_requests / ports;
        self.port_requests += 1;
        ready.max(floor)
    }

    /// Books one cycle on `row`'s NoC lane for a value produced at
    /// `produced`; returns the transfer start time.
    fn book_lane(&mut self, row: usize, produced: u64) -> u64 {
        let floor = self.lane_requests[row];
        self.lane_requests[row] += 1;
        produced.max(floor)
    }

    /// Books one fallback-bus slot; returns the transfer start time. Under
    /// fault injection, every `bus_drop_period`-th transfer loses its
    /// token and pays the retransmit penalty.
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

impl SpatialAccelerator {
    /// Builds an accelerator with the default half-ring fabric.
    #[must_use]
    pub fn new(cfg: AccelConfig) -> Self {
        SpatialAccelerator { cfg, model: HalfRingModel::default() }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The interconnect model (shared with the mapper).
    #[must_use]
    pub fn latency_model(&self) -> &HalfRingModel {
        &self.model
    }

    /// Executes a configured region until every tile's loop exits or
    /// `max_iterations` total iterations have run.
    ///
    /// Functional state (memory) is updated through `mem`; the returned
    /// [`AccelRunResult::final_regs`] carry the live-out architectural
    /// registers for non-tiled runs (tiled induction live-outs are fixed up
    /// by the controller, which knows the iteration count). Faulted or
    /// traced solo runs go through [`run_session`](Self::run_session) with
    /// a [`SessionRequest::solo`] request.
    ///
    /// # Errors
    /// Returns [`ProgramError`] if the program fails validation against
    /// this accelerator's grid.
    pub fn execute(
        &self,
        prog: &AccelProgram,
        entry: &ArchState,
        mem: &mut MemorySystem,
        requester: usize,
        max_iterations: u64,
    ) -> Result<AccelRunResult, ProgramError> {
        let faults = FaultPlan::none();
        let req = SessionRequest::solo(requester, max_iterations, &faults, self.cfg.grid());
        let mut state = PlacementSnapshot::new(prog, entry, req.region.rows, &faults);
        self.session_inner(prog, mem, &req, &mut state, &mut NullTracer, 0)?;
        Ok(state.into_result(prog))
    }

    /// Runs one spatial session on `state` in place: like
    /// [`execute`](Self::execute) but under `req.faults` (the
    /// dropped-bus-token schedule is applied to the fallback bus:
    /// timing-only, recorded in [`AccelRunResult::faults`]), confined to
    /// `req.region`'s row band, and optionally freezing at a round boundary
    /// ([`SessionRequest::pause_at_cycle`]). `state` is either fresh
    /// ([`PlacementSnapshot::new`]) or one an earlier call paused, possibly
    /// serialized and decoded in between; run it again to continue.
    /// [`PlacementSnapshot::into_result`] reads the run's result off it at
    /// any point. The run is wrapped in an `accel.execute` span on the
    /// accelerator timeline starting at `cycle_base` (the caller's episode
    /// clock, since the engine's own cycles are session-relative).
    ///
    /// Because the fabric's latencies depend only on *relative*
    /// coordinates and the state indexes NoC lanes relative to its region,
    /// a session paused in one region and continued in another same-height
    /// region of the same grid runs cycle-identically; across grids with
    /// different port counts the timing shifts but the architectural
    /// results are unchanged. A session that runs to completion, paused
    /// along the way or not, yields exactly an uninterrupted solo run's
    /// result.
    ///
    /// Returns `true` when the session froze at `req.pause_at_cycle` and
    /// `false` when every tile's loop exited or the iteration budget ran
    /// out.
    ///
    /// # Errors
    /// [`SessionError::Snapshot`] when `state` does not belong to this
    /// program, region height or fault binding, or
    /// [`SessionError::Program`] when the program does not fit the region.
    pub fn run_session(
        &self,
        prog: &AccelProgram,
        mem: &mut MemorySystem,
        req: &SessionRequest<'_>,
        state: &mut PlacementSnapshot,
        tracer: &mut dyn Tracer,
        cycle_base: u64,
    ) -> Result<bool, SessionError> {
        state.check_compatible(prog, req.region, req.faults)?;
        Ok(self.session_inner(prog, mem, req, state, tracer, cycle_base)?)
    }

    /// Shared session body. `state` is trusted here (compatibility is
    /// [`run_session`](Self::run_session)'s concern; `execute` builds it
    /// from `prog` itself).
    fn session_inner(
        &self,
        prog: &AccelProgram,
        mem: &mut MemorySystem,
        req: &SessionRequest<'_>,
        state: &mut PlacementSnapshot,
        tracer: &mut dyn Tracer,
        cycle_base: u64,
    ) -> Result<bool, ProgramError> {
        let region = req.region;
        if !region.fits(self.cfg.rows, self.cfg.cols) {
            // The region itself does not sit on this grid; report the
            // corner that sticks out (or (0,0) for an empty region).
            return Err(ProgramError::OutOfGrid(Coord::new(
                region.end_row().saturating_sub(1),
                region.cols.saturating_sub(1),
            )));
        }
        prog.validate(region.dims())?;
        tracer.span_begin(Subsystem::Accelerator, "accel.execute", cycle_base);

        let tiles = prog.tiles.max(1);
        let rows_per_tile = prog.rows_per_tile();
        let start_cycles = state.cycles();
        let ports = (self.cfg.mem_ports < usize::MAX / 2)
            .then(|| self.cfg.mem_ports.clamp(1, 1 << 20) as u64);
        let mut scratch = IterScratch::new(prog.nodes.len());

        // Static per-tile node plans (routes, lowered operations from the
        // tile-scaled instructions): resolved once here, reused every
        // iteration.
        // Placements are region-relative, like the lanes they book.
        let plans: Vec<Vec<NodePlan>> = (0..tiles)
            .map(|t| {
                prog.nodes
                    .iter()
                    .map(|node| self.plan_node(prog, node, t * rows_per_tile, tiles, state.xlen))
                    .collect()
            })
            .collect();

        let PlacementSnapshot {
            tile_states, bookings, counters, activity, total_iters, last_iter_tile, ..
        } = &mut *state;
        let mut paused = false;
        loop {
            // The iteration budget is checked at *round* boundaries only:
            // within one round every running tile executes exactly one
            // iteration, so the set of executed global iterations stays
            // contiguous (0..N) and the controller can resume a paused
            // tiled region from architectural state alone.
            if *total_iters >= req.max_iterations {
                break;
            }
            // The pause request shares the boundary: "freeze at cycle c"
            // means the first round boundary whose session clock reached c.
            if let Some(p) = req.pause_at_cycle {
                let clock = tile_states.iter().map(|t| t.last_complete).max().unwrap_or(0);
                if clock >= p && tile_states.iter().any(|t| t.running) {
                    paused = true;
                    break;
                }
            }
            let mut any = false;
            for (t, tile_state) in tile_states.iter_mut().enumerate().take(tiles) {
                if !tile_state.running {
                    continue;
                }
                any = true;
                self.run_iteration(
                    prog,
                    tile_state,
                    &plans[t],
                    bookings,
                    mem,
                    req.requester,
                    ports,
                    counters,
                    activity,
                    &mut scratch,
                );
                *total_iters += 1;
                *last_iter_tile = t;
            }
            if !any {
                break;
            }
        }
        if paused && state.fingerprint.is_none() {
            // Bind the state to its program at its first pause; a
            // continued run re-checks this digest, so each slice hashes
            // the program at most once.
            state.fingerprint = Some(prog.fingerprint());
        }

        if tracer.enabled() {
            // The session clock is cumulative across pauses; the episode
            // timeline advances only by this call's share.
            let end = cycle_base + (state.cycles() - start_cycles);
            tracer.counter(Subsystem::Accelerator, "accel.iterations", state.total_iters, end);
            tracer.counter(
                Subsystem::Accelerator,
                "accel.pe_busy_cycles",
                state.activity.pe_busy_cycles,
                end,
            );
            tracer.span_end(Subsystem::Accelerator, "accel.execute", end);
        }
        Ok(paused)
    }

    /// Builds one operand's static plan for a tile (flat register indices
    /// and the route the transfer will take).
    fn plan_operand(
        &self,
        prog: &AccelProgram,
        op: &Operand,
        consumer: Option<Coord>,
        row_offset: usize,
    ) -> OpPlan {
        match *op {
            Operand::None => OpPlan::None,
            Operand::InitReg(r) => OpPlan::InitReg(r.flat_index()),
            Operand::Node { idx, carried, via } => {
                let producer = prog.nodes[idx as usize]
                    .coord
                    .map(|c| Coord::new(c.row + row_offset, c.col));
                let route = match (producer, consumer) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            Route::Same
                        } else if self.model.is_local(a, b) {
                            Route::Local(self.model.transfer_latency(a, b))
                        } else {
                            Route::Noc { row: a.row, lat: self.model.transfer_latency(a, b) }
                        }
                    }
                    _ => Route::Bus(self.cfg.fallback_bus_latency),
                };
                OpPlan::Node { idx: idx as usize, carried, via: via.flat_index(), route }
            }
        }
    }

    /// Builds one node's static plan for a tile.
    fn plan_node(
        &self,
        prog: &AccelProgram,
        node: &NodeConfig,
        row_offset: usize,
        tiles: usize,
        xlen: Xlen,
    ) -> NodePlan {
        let consumer = node.coord.map(|c| Coord::new(c.row + row_offset, c.col));
        let mut effective = node.instr;
        if node.scale_imm_by_tiles && tiles > 1 {
            effective.imm = node.instr.imm.wrapping_mul(tiles as i64);
        }
        let op = effective.op;
        let fire = match op.class() {
            OpClass::Load => Fire::Load(LoadPlan {
                imm: effective.imm,
                width: op.mem_width().unwrap_or(0),
                sign_extend: op.load_sign_extends(),
                forwarded_from: node.forwarded_from,
                vector_head: node.vector_head,
                prefetched: node.prefetched,
            }),
            OpClass::Store => Fire::Store { imm: effective.imm, width: op.mem_width().unwrap_or(0) },
            OpClass::Branch => Fire::Branch(PeOp::lower(&effective, xlen)),
            class => Fire::Compute {
                op: PeOp::lower(&effective, xlen),
                latency: op.base_latency(),
                fp: class.needs_fp(),
            },
        };
        NodePlan {
            fire,
            inputs: [
                self.plan_operand(prog, &node.inputs[0], consumer, row_offset),
                self.plan_operand(prog, &node.inputs[1], consumer, row_offset),
            ],
            hidden: self.plan_operand(prog, &node.hidden, consumer, row_offset),
            guarded: !node.guards.is_empty(),
        }
    }

    /// Runs one iteration of one tile. See the module docs for the timing
    /// rules.
    #[allow(clippy::too_many_arguments)]
    fn run_iteration(
        &self,
        prog: &AccelProgram,
        tile: &mut TileSnap,
        plans: &[NodePlan],
        fabric: &mut Bookings,
        mem: &mut MemorySystem,
        requester: usize,
        ports: Option<u64>,
        counters: &mut PerfCounters,
        activity: &mut ActivityStats,
        scratch: &mut IterScratch,
    ) {
        let first_iter = tile.iters == 0;
        // Barrier semantics: without pipelining, iteration k+1 begins after
        // iteration k fully completes.
        let base = if prog.pipelined { 0 } else { tile.last_complete };

        scratch.reset();
        let IterScratch { cur_value, cur_complete, branch_taken, stores_seen } = scratch;
        let mut iteration_complete = 0u64;

        for (i, plan) in plans.iter().enumerate() {
            // ---- predication ----
            if plan.guarded && prog.nodes[i].guards.iter().any(|&g| branch_taken[g as usize]) {
                let (hv, hready, _) = resolve_operand(
                    &plan.hidden, tile, cur_value, cur_complete, base, first_iter, fabric,
                    activity,
                );
                cur_value[i] = hv;
                cur_complete[i] = hready + 1; // mux pass-through
                activity.disabled_fires += 1;
                iteration_complete = iteration_complete.max(cur_complete[i]);
                continue;
            }

            // ---- operands ----
            let (v1, r1) = match plan.inputs[0] {
                OpPlan::None => (0, base),
                ref op => {
                    let (v, r, transfer) = resolve_operand(
                        op, tile, cur_value, cur_complete, base, first_iter, fabric, activity,
                    );
                    counters.nodes[i].total_in_cycles[0] += transfer;
                    counters.nodes[i].in_samples[0] += 1;
                    (v, r)
                }
            };
            let (v2, r2) = match plan.inputs[1] {
                OpPlan::None => (0, base),
                ref op => {
                    let (v, r, transfer) = resolve_operand(
                        op, tile, cur_value, cur_complete, base, first_iter, fabric, activity,
                    );
                    counters.nodes[i].total_in_cycles[1] += transfer;
                    counters.nodes[i].in_samples[1] += 1;
                    (v, r)
                }
            };
            let ready = r1.max(r2).max(base);

            // ---- execute ----
            let complete = match plan.fire {
                Fire::Load(ref load) => self.do_load(
                    i, load, v1, ready, fabric, mem, requester, ports, first_iter, stores_seen,
                    cur_complete, activity, cur_value,
                ),
                Fire::Store { imm, width } => {
                    let addr = v1.wrapping_add(imm as u64);
                    // Program-order store commit (the LDFG keeps ordering).
                    let mut start = ready.max(tile.last_store_start + 1);
                    if let Some(ports) = ports {
                        start = fabric.book_port(start, ports);
                    }
                    tile.last_store_start = start;
                    mem.data_mut().store(addr, width, v2);
                    mem.access(requester, addr, true, start);
                    activity.stores += 1;
                    stores_seen.push((i, addr, width, start + 1));
                    start + 1
                }
                Fire::Branch(ref op) => {
                    branch_taken[i] = op.taken(v1, v2);
                    activity.int_ops += 1;
                    activity.pe_busy_cycles += 1;
                    ready + 1
                }
                Fire::Compute { ref op, latency, fp } => {
                    cur_value[i] = op.value(v1, v2);
                    if fp {
                        activity.fp_ops += 1;
                    } else {
                        activity.int_ops += 1;
                    }
                    activity.pe_busy_cycles += latency;
                    ready + latency
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
        // Hand the freshly computed buffers to the tile and take its old
        // ones as next iteration's scratch (reset before reuse).
        std::mem::swap(&mut tile.prev_value, cur_value);
        std::mem::swap(&mut tile.prev_complete, cur_complete);
        if !taken {
            tile.running = false;
        }
    }

    /// Executes a load node: forwarding, vector piggyback, prefetch, port
    /// arbitration, and conflict invalidation.
    #[allow(clippy::too_many_arguments)]
    fn do_load(
        &self,
        i: usize,
        load: &LoadPlan,
        base_value: u64,
        ready: u64,
        fabric: &mut Bookings,
        mem: &mut MemorySystem,
        requester: usize,
        ports: Option<u64>,
        first_iter: bool,
        stores_seen: &[(usize, u64, u8, u64)],
        cur_complete: &[u64],
        activity: &mut ActivityStats,
        cur_value: &mut [u64],
    ) -> u64 {
        let addr = base_value.wrapping_add(load.imm as u64);
        let width = load.width;

        // Functional value (stores earlier in program order already applied).
        let raw = mem.data_mut().load(addr, width);
        let value = if load.sign_extend {
            let bits = u32::from(width) * 8;
            ((raw << (64 - bits)) as i64 >> (64 - bits)) as u64
        } else {
            raw
        };
        cur_value[i] = value;
        activity.loads += 1;

        // Static store→load forwarding edge (§4.2).
        if let Some(s) = load.forwarded_from {
            if let Some(&(_, saddr, _, scomplete)) =
                stores_seen.iter().find(|&&(si, ..)| si == s as usize)
            {
                if saddr == addr {
                    activity.forwards += 1;
                    return ready.max(scomplete) + 1;
                }
            }
        }

        // Vector piggyback: the head's wide access already brought the line.
        if let Some(h) = load.vector_head {
            if (h as usize) < i {
                activity.vector_piggybacks += 1;
                return ready.max(cur_complete[h as usize]) + 1;
            }
        }

        // Normal port access.
        let start = match ports {
            Some(ports) => fabric.book_port(ready, ports),
            None => ready,
        };
        let latency = mem.access(requester, addr, false, start).total;
        let latency = if load.prefetched && !first_iter {
            // The line was prefetched an iteration ahead: steady state is a
            // hit.
            activity.prefetch_hits += 1;
            latency.min(mem.config().l1.hit_latency)
        } else {
            latency
        };
        let mut complete = start + latency;

        // Dynamic conflict: an earlier (program-order) store to an
        // overlapping address whose data resolved after our start
        // invalidates this load (§4.2); redo after the store.
        for &(si, saddr, swidth, scomplete) in stores_seen {
            if load.forwarded_from == Some(si as u32) {
                continue; // already handled as a forward
            }
            // u128 range ends: an access near u64::MAX must not wrap (a
            // wild pointer is reachable from any malformed DFG).
            let overlap = u128::from(saddr) < u128::from(addr) + u128::from(width)
                && u128::from(addr) < u128::from(saddr) + u128::from(swidth);
            if overlap && scomplete > start {
                activity.violations += 1;
                complete = complete.max(scomplete + VIOLATION_REDO);
            }
        }
        complete
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::reg::abi::*;
    use mesa_isa::{step, FlatMemory, Outcome};
    use mesa_mem::MemConfig;

    /// Fresh-state branch evaluation through `step` — the
    /// pre-optimization implementation, kept as the oracle for the
    /// plan-lowered evaluator.
    fn eval_branch_fresh(instr: &Instruction, v1: u64, v2: u64, xlen: Xlen) -> bool {
        let mut st = ArchState::new(0, xlen);
        let mut nomem = FlatMemory::new();
        if let Some(r) = instr.rs1 {
            st.write(r, v1);
        }
        if let Some(r) = instr.rs2 {
            st.write(r, v2);
        }
        match step(&mut st, instr, &mut nomem).outcome {
            Outcome::Branch { taken, .. } => taken,
            other => unreachable!("branch evaluated to {other:?}"),
        }
    }

    /// Fresh-state compute evaluation through `step` — the
    /// pre-optimization implementation, kept as the oracle for the
    /// plan-lowered evaluator.
    fn eval_compute_fresh(instr: &Instruction, v1: u64, v2: u64, xlen: Xlen) -> u64 {
        let mut st = ArchState::new(0, xlen);
        let mut nomem = FlatMemory::new();
        if let Some(r) = instr.rs1 {
            st.write(r, v1);
        }
        if let Some(r) = instr.rs2 {
            st.write(r, v2);
        }
        step(&mut st, instr, &mut nomem);
        instr.rd.map_or(0, |rd| st.read(rd))
    }

    fn node(pc: u64, instr: Instruction, coord: (usize, usize), inputs: [Operand; 2]) -> NodeConfig {
        NodeConfig::new(pc, instr, Some(Coord::new(coord.0, coord.1)), inputs)
    }

    /// t0 += 1; bne t0, a1, loop — counts from 0 to a1.
    fn counter_loop(bound: u64) -> (AccelProgram, ArchState) {
        let add = node(
            0x1000,
            Instruction::reg_imm(Opcode::Addi, T0, T0, 1),
            (0, 0),
            [Operand::Node { idx: 0, carried: true, via: T0 }, Operand::None],
        );
        let bne = node(
            0x1004,
            Instruction::branch(Opcode::Bne, T0, A1, -4),
            (0, 1),
            [
                Operand::Node { idx: 0, carried: false, via: T0 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1008,
            nodes: vec![add, bne],
            loop_branch: 1,
            live_out: vec![(T0, 0)],
            tiles: 1,
            pipelined: false,
        };
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A1, bound);
        (prog, st)
    }

    #[test]
    fn counter_loop_runs_exact_iterations() {
        let (prog, entry) = counter_loop(10);
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 1_000).unwrap();
        assert!(r.completed);
        assert_eq!(r.iterations, 10);
        assert_eq!(r.final_regs, vec![(T0, 10)]);
        assert!(r.cycles > 0);
    }

    #[test]
    fn iteration_cap_stops_runaway() {
        let (prog, entry) = counter_loop(1_000_000);
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 50).unwrap();
        assert!(!r.completed);
        assert_eq!(r.iterations, 50);
    }

    /// sum loop with memory: t1 += mem[a0]; a0 += 4; bne a0, a1.
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
            [
                Operand::Node { idx: 2, carried: false, via: A0 },
                Operand::InitReg(A1),
            ],
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
    fn sum_loop_computes_correct_value() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..16u64 {
            mem.data_mut().store_u32(0x10000 + 4 * i, (i + 1) as u32);
        }
        let r = accel.execute(&prog, &entry, &mut mem, 0, 1_000).unwrap();
        assert!(r.completed);
        assert_eq!(r.iterations, 16);
        let sum = r.final_regs.iter().find(|(r, _)| *r == T1).unwrap().1;
        assert_eq!(sum, 136); // 1+2+…+16
        let a0 = r.final_regs.iter().find(|(r, _)| *r == A0).unwrap().1;
        assert_eq!(a0, 0x10000 + 64);
        assert_eq!(r.activity.loads, 16);
    }

    #[test]
    fn pipelining_reduces_cycles() {
        let (mut prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());

        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let plain = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        prog.pipelined = true;
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let piped = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        assert_eq!(plain.iterations, piped.iterations);
        assert!(
            piped.cycles < plain.cycles,
            "pipelined {} should beat barrier {}",
            piped.cycles,
            plain.cycles
        );
    }

    #[test]
    fn tiling_splits_iterations_and_speeds_up() {
        // Independent-iteration loop: mem[a0] = t0 (store-only), induction a0.
        let store = node(
            0x1000,
            Instruction::store(Opcode::Sw, T2, A0, 0),
            (0, 0),
            [
                Operand::Node { idx: 1, carried: true, via: A0 },
                Operand::InitReg(T2),
            ],
        );
        let mut addi = node(
            0x1004,
            Instruction::reg_imm(Opcode::Addi, A0, A0, 4),
            (0, 1),
            [Operand::Node { idx: 1, carried: true, via: A0 }, Operand::None],
        );
        addi.scale_imm_by_tiles = true;
        let bne = node(
            0x1008,
            Instruction::branch(Opcode::Bltu, A0, A1, -8),
            (1, 0),
            [
                Operand::Node { idx: 1, carried: false, via: A0 },
                Operand::InitReg(A1),
            ],
        );
        let mut prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x100C,
            nodes: vec![store, addi, bne],
            loop_branch: 2,
            live_out: vec![],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(A0, 0x20000);
        entry.write(A1, 0x20000 + 4 * 64);
        entry.write(T2, 7);

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let serial = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        assert_eq!(serial.iterations, 64);

        prog.tiles = 4;
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let tiled = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        assert_eq!(tiled.iterations, 64, "all iterations covered across tiles");
        assert!(
            tiled.cycles < serial.cycles,
            "tiled {} should beat serial {}",
            tiled.cycles,
            serial.cycles
        );
        // Every address was written.
        for i in 0..64u64 {
            assert_eq!(mem.data_mut().load_u32(0x20000 + 4 * i), 7, "slot {i}");
        }
    }

    #[test]
    fn forward_branch_predication_passes_old_value() {
        // if (t0 < t1) t2 = t2 + 5; t0 += 1; loop  — with t0 starting past
        // t1 the add is always skipped, so t2 keeps its initial value.
        let cmp = node(
            0x1000,
            Instruction::branch(Opcode::Bge, T0, T1, 8), // skip next when t0>=t1
            (0, 0),
            [
                Operand::Node { idx: 2, carried: true, via: T0 },
                Operand::InitReg(T1),
            ],
        );
        let mut add = node(
            0x1004,
            Instruction::reg_imm(Opcode::Addi, T2, T2, 5),
            (0, 1),
            [Operand::Node { idx: 1, carried: true, via: T2 }, Operand::None],
        );
        add.guards = vec![0];
        add.hidden = Operand::Node { idx: 1, carried: true, via: T2 };
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, T0, T0, 1),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: T0 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, T0, A1, -12),
            (1, 1),
            [
                Operand::Node { idx: 2, carried: false, via: T0 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![cmp, add, addi, bne],
            loop_branch: 3,
            live_out: vec![(T2, 1)],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(T0, 10);
        entry.write(T1, 10); // t0 >= t1 from the start: always skip
        entry.write(T2, 99);
        entry.write(A1, 14); // 4 iterations

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert_eq!(r.iterations, 4);
        assert_eq!(r.activity.disabled_fires, 4);
        let t2 = r.final_regs.iter().find(|(r, _)| *r == T2).unwrap().1;
        assert_eq!(t2, 99, "skipped add must forward the old value");
    }

    #[test]
    fn predication_enabled_path_computes() {
        // Same region but with t0 < t1 for the first 3 iterations.
        let cmp = node(
            0x1000,
            Instruction::branch(Opcode::Bge, T0, T1, 8),
            (0, 0),
            [
                Operand::Node { idx: 2, carried: true, via: T0 },
                Operand::InitReg(T1),
            ],
        );
        let mut add = node(
            0x1004,
            Instruction::reg_imm(Opcode::Addi, T2, T2, 5),
            (0, 1),
            [Operand::Node { idx: 1, carried: true, via: T2 }, Operand::None],
        );
        add.guards = vec![0];
        add.hidden = Operand::Node { idx: 1, carried: true, via: T2 };
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, T0, T0, 1),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: T0 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, T0, A1, -12),
            (1, 1),
            [
                Operand::Node { idx: 2, carried: false, via: T0 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![cmp, add, addi, bne],
            loop_branch: 3,
            live_out: vec![(T2, 1)],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(T0, 0);
        entry.write(T1, 3); // enabled for t0 = 0,1,2
        entry.write(T2, 0);
        entry.write(A1, 5); // 5 iterations

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert_eq!(r.iterations, 5);
        let t2 = r.final_regs.iter().find(|(r, _)| *r == T2).unwrap().1;
        assert_eq!(t2, 15, "three enabled adds of 5");
        assert_eq!(r.activity.disabled_fires, 2);
    }

    #[test]
    fn store_load_forwarding_skips_cache() {
        // store t2 -> [a0]; load t0 <- [a0] (forwarded); t0 into sum.
        let store = node(
            0x1000,
            Instruction::store(Opcode::Sw, T2, A0, 0),
            (0, 0),
            [Operand::InitReg(A0), Operand::InitReg(T2)],
        );
        let mut load = node(
            0x1004,
            Instruction::load(Opcode::Lw, T0, A0, 0),
            (0, 1),
            [Operand::InitReg(A0), Operand::None],
        );
        load.forwarded_from = Some(0);
        let addi = node(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, T1, T1, 1),
            (1, 0),
            [Operand::Node { idx: 2, carried: true, via: T1 }, Operand::None],
        );
        let bne = node(
            0x100C,
            Instruction::branch(Opcode::Bne, T1, A1, -12),
            (1, 1),
            [
                Operand::Node { idx: 2, carried: false, via: T1 },
                Operand::InitReg(A1),
            ],
        );
        let prog = AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![store, load, addi, bne],
            loop_branch: 3,
            live_out: vec![],
            tiles: 1,
            pipelined: false,
        };
        let mut entry = ArchState::new(0x1000, Xlen::Rv32);
        entry.write(A0, 0x30000);
        entry.write(T2, 42);
        entry.write(A1, 8);

        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert_eq!(r.activity.forwards, 8, "every iteration forwards");
        assert_eq!(mem.data_mut().load_u32(0x30000), 42);
    }

    #[test]
    fn unplaced_node_uses_fallback_bus() {
        let (mut prog, entry) = counter_loop(4);
        prog.nodes[0].coord = None; // force the fallback path
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 100).unwrap();
        assert!(r.activity.fallback_transfers > 0);
        assert_eq!(r.final_regs, vec![(T0, 4)]);

        // And it is slower than the fully-placed version.
        let (placed, entry2) = counter_loop(4);
        let mut mem2 = MemorySystem::new(MemConfig::default(), 1);
        let r2 = accel.execute(&placed, &entry2, &mut mem2, 0, 100).unwrap();
        assert!(r.cycles > r2.cycles);
    }

    #[test]
    fn prefetch_hides_latency_after_first_iteration() {
        let (mut prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let plain = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        prog.nodes[0].prefetched = true;
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let pf = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        assert!(pf.activity.prefetch_hits > 0);
        assert!(pf.cycles <= plain.cycles);
    }

    /// Every opcode that reaches the compute or branch arm: the integer
    /// ALU, mul/div, FP, RV64 `*w` and conditional branches, plus jumps
    /// and system ops, which only a malformed configuration places.
    const PE_OPCODES: &[Opcode] = {
        use Opcode::*;
        &[
            Lui, Auipc, Jal, Jalr, Beq, Bne, Blt, Bge, Bltu, Bgeu, Addi, Slti, Sltiu, Xori, Ori,
            Andi, Slli, Srli, Srai, Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Fence,
            Ecall, Ebreak, Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu, FaddS, FsubS, FmulS,
            FdivS, FsqrtS, FminS, FmaxS, FmaddS, FmsubS, FnmaddS, FnmsubS, FcvtWS, FcvtWuS,
            FcvtSW, FcvtSWu, FmvXW, FmvWX, FeqS, FltS, FleS, FsgnjS, FsgnjnS, FsgnjxS, FclassS,
            Addiw, Slliw, Srliw, Sraiw, Addw, Subw, Sllw, Srlw, Sraw,
        ]
    };

    /// Operand values with non-canonical upper bits, NaN payloads (quiet,
    /// signalling, negative) and the RV32 sign boundary.
    const PE_VALUES: &[u64] = &[
        0,
        1,
        u64::MAX,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF_8000_0000,
        0xDEAD_BEEF_8000_0001,
        0x0000_0001_0000_0000,
        0x7FC0_1234,
        0xABCD_0000_7FA0_0001,
        0xFFC0_0042,
        0x4049_0FDB,
        0x1234_5678_C049_0FDB,
        0x0080_0000,
    ];

    /// The plan-lowered evaluator a firing runs must agree with `step` on
    /// a fresh state for every instruction the compute or branch arm can
    /// see, on both register widths: registers drawn from a small pool of
    /// both files, so `x0`, `rs1 == rs2`, `rs3` aliasing a source and a
    /// register of the wrong file all occur, and operands with
    /// non-canonical upper bits and NaN payloads.
    #[test]
    fn scratch_eval_matches_fresh_oracle_on_random_programs() {
        use mesa_test::{forall, prop_assert_eq, Checker};

        fn reg(code: u64) -> Option<Reg> {
            match code % 9 {
                0 => None,
                n @ 1..=4 => Some(Reg::X((n - 1) as u8)),
                n => Some(Reg::F((n - 5) as u8)),
            }
        }

        forall!(
            Checker::new("engine::scratch_eval_matches_fresh").cases(256),
            |(seed in 0u64..u64::MAX, len in 4usize..40)| {
                let mut sel = seed | 1;
                for k in 0..len {
                    // Cheap xorshift so each step sees a different instruction.
                    sel ^= sel << 13;
                    sel ^= sel >> 7;
                    sel ^= sel << 17;
                    let instr = Instruction {
                        op: PE_OPCODES[(sel % PE_OPCODES.len() as u64) as usize],
                        rd: reg(sel >> 8),
                        rs1: reg(sel >> 12),
                        rs2: reg(sel >> 16),
                        rs3: reg(sel >> 20),
                        imm: ((sel >> 24) as i64 & 0xFFF) - 2048,
                    };
                    let xlen = if sel >> 36 & 1 == 0 { Xlen::Rv32 } else { Xlen::Rv64 };
                    let pick = |shift: u32| {
                        let n = (sel >> shift) as usize;
                        if n.is_multiple_of(4) {
                            sel.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (n % 32)
                        } else {
                            PE_VALUES[n % PE_VALUES.len()]
                        }
                    };
                    let (v1, v2) = (pick(40), pick(50));
                    let op = PeOp::lower(&instr, xlen);
                    if instr.op.is_branch() {
                        let want = eval_branch_fresh(&instr, v1, v2, xlen);
                        prop_assert_eq!(op.taken(v1, v2), want, "step {} instr {:?}", k, instr);
                    } else {
                        let want = eval_compute_fresh(&instr, v1, v2, xlen);
                        prop_assert_eq!(op.value(v1, v2), want, "step {} instr {:?}", k, instr);
                    }
                }
            }
        );
    }

    #[test]
    fn perf_counters_report_latencies() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        let r = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();
        // Node 0 is the load: it fired 16 times and its op latency reflects
        // memory time (≥ L1 hit latency).
        let load_ctr = &r.counters.nodes[0];
        assert_eq!(load_ctr.fires, 16);
        assert!(load_ctr.avg_op().unwrap() >= 3);
        // The add saw a transfer on its second input.
        assert!(r.counters.nodes[1].in_samples[1] > 0);
    }

    /// Fills the sum-loop input array.
    fn sum_loop_mem() -> MemorySystem {
        let mut mem = MemorySystem::new(MemConfig::default(), 1);
        for i in 0..16u64 {
            mem.data_mut().store_u32(0x10000 + 4 * i, (7 * i + 3) as u32);
        }
        mem
    }

    fn session_req<'a>(faults: &'a FaultPlan, region: Region, pause: Option<u64>) -> SessionRequest<'a> {
        SessionRequest { requester: 0, max_iterations: 10_000, faults, region, pause_at_cycle: pause }
    }

    fn expect_full_equality(a: &AccelRunResult, b: &AccelRunResult) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.final_regs, b.final_regs);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.activity, b.activity);
        assert_eq!(a.faults, b.faults);
    }

    /// Runs one session of `prog` on `state` in `region`, pausing at
    /// `pause`; returns whether it paused.
    fn slice(
        accel: &SpatialAccelerator,
        prog: &AccelProgram,
        mem: &mut MemorySystem,
        state: &mut PlacementSnapshot,
        region: Region,
        pause: Option<u64>,
    ) -> Result<bool, SessionError> {
        let none = FaultPlan::none();
        accel.run_session(prog, mem, &session_req(&none, region, pause), state, &mut NullTracer, 0)
    }

    #[test]
    fn pause_resume_in_place_is_bit_identical_to_uninterrupted() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let none = FaultPlan::none();
        let mut mem = sum_loop_mem();
        let solo = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        let region = Region::new(0, 4, 8);
        // A pause point the final round leaps over (the loop exits in the
        // same round) legitimately completes instead of pausing; early
        // points must genuinely freeze.
        for pause_at in [0, 1, solo.cycles / 2, solo.cycles - 1, solo.cycles + 10] {
            let mut mem = sum_loop_mem();
            let mut state = PlacementSnapshot::new(&prog, &entry, region.rows, &none);
            if slice(&accel, &prog, &mut mem, &mut state, region, Some(pause_at)).unwrap() {
                assert!(state.is_bound(), "a paused state is bound to its program");
                let paused = slice(&accel, &prog, &mut mem, &mut state, region, None).unwrap();
                assert!(!paused, "resume did not complete");
            } else {
                assert!(pause_at + 1 >= solo.cycles, "pause at {pause_at} did not pause");
                assert!(!state.is_bound(), "a run that never paused hashes nothing");
            }
            expect_full_equality(&solo, &state.into_result(&prog));
        }
    }

    #[test]
    fn migration_to_another_aligned_region_is_cycle_identical() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let none = FaultPlan::none();
        let mut mem = sum_loop_mem();
        let solo = accel.execute(&prog, &entry, &mut mem, 0, 10_000).unwrap();

        // Freeze in the bottom band, thaw in every other aligned band: the
        // half-ring only sees relative coordinates, so even the cycle
        // totals and booking-counter-driven stats must match.
        for first_row in [4, 8, 12] {
            let mut mem = sum_loop_mem();
            let mut state = PlacementSnapshot::new(&prog, &entry, 4, &none);
            let bottom = Region::new(0, 4, 8);
            let half = Some(solo.cycles / 2);
            assert!(slice(&accel, &prog, &mut mem, &mut state, bottom, half).unwrap());
            let mut thawed = PlacementSnapshot::from_words(&state.to_words()).unwrap();
            assert_eq!(thawed, state);
            let target = Region::new(first_row, 4, 8);
            assert!(!slice(&accel, &prog, &mut mem, &mut thawed, target, None).unwrap());
            expect_full_equality(&solo, &thawed.into_result(&prog));
        }
    }

    #[test]
    fn session_rejects_region_outside_grid_and_foreign_snapshots() {
        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let none = FaultPlan::none();
        let mut mem = sum_loop_mem();

        // Region hangs off the 16-row grid.
        let mut state = PlacementSnapshot::new(&prog, &entry, 4, &none);
        let err = slice(&accel, &prog, &mut mem, &mut state, Region::new(16, 4, 8), None)
            .unwrap_err();
        assert!(matches!(err, SessionError::Program(ProgramError::OutOfGrid(_))), "{err}");

        // A state of a different program must be rejected up front.
        let band = Region::new(0, 4, 8);
        assert!(slice(&accel, &prog, &mut mem, &mut state, band, Some(0)).unwrap());
        let (other, _) = counter_loop(10);
        let err = slice(&accel, &other, &mut mem, &mut state, band, None).unwrap_err();
        assert!(matches!(err, SessionError::Snapshot(SnapshotError::Mismatch { .. })), "{err}");
        // So must a region of another height.
        let err = slice(&accel, &prog, &mut mem, &mut state, Region::new(0, 8, 8), None)
            .unwrap_err();
        let SessionError::Snapshot(SnapshotError::Mismatch { field, .. }) = err else {
            panic!("{err}");
        };
        assert_eq!(field, "region rows");
    }

    /// The program digest alone rejects a foreign program: every mutation
    /// here keeps the node and tile counts, so only the fingerprint
    /// differs, while an unmutated clone continues and finishes as solo.
    #[test]
    fn session_rejects_a_program_differing_in_one_field() {
        use mesa_test::{forall, prop_assert, Checker};

        let (prog, entry) = sum_loop();
        let accel = SpatialAccelerator::new(AccelConfig::m128());
        let none = FaultPlan::none();
        let solo = accel.execute(&prog, &entry, &mut sum_loop_mem(), 0, 10_000).unwrap();
        let region = Region::new(0, 4, 8);
        let mut mem = sum_loop_mem();
        let mut paused = PlacementSnapshot::new(&prog, &entry, region.rows, &none);
        let half = Some(solo.cycles / 2);
        assert!(slice(&accel, &prog, &mut mem, &mut paused, region, half).unwrap());
        let resume = |p: &AccelProgram| {
            let mut mem = mem.clone();
            let mut state = paused.clone();
            slice(&accel, p, &mut mem, &mut state, region, None).map(|_| state)
        };

        forall!(
            Checker::new("engine::one_field_foreign_program_is_rejected").cases(64),
            |(field in 0usize..6, at in 0usize..4, delta in 1i64..1024)| {
                let mut foreign = prog.clone();
                match field {
                    0 => foreign.nodes[at].prefetched ^= true,
                    1 => foreign.pipelined ^= true,
                    2 => foreign.nodes[at].instr.imm += delta,
                    3 => {
                        let c = foreign.nodes[at].coord.unwrap();
                        let col = c.col + 1 + delta as usize % 4;
                        foreign.nodes[at].coord = Some(Coord::new(c.row, col));
                    }
                    4 => {
                        let slot = &mut foreign.live_out[at % 2].1;
                        *slot = (*slot + 1 + delta as u32 % 3) % 4;
                    }
                    _ => foreign.nodes[at].guards.push(3),
                }
                prop_assert!(foreign != prog);
                let err = resume(&foreign).unwrap_err();
                prop_assert!(
                    matches!(
                        err,
                        SessionError::Snapshot(SnapshotError::Mismatch {
                            field: "program fingerprint",
                            ..
                        })
                    ),
                    "{}",
                    err
                );

                let resumed = resume(&prog.clone()).unwrap();
                expect_full_equality(&solo, &resumed.into_result(&prog));
            }
        );
    }
}
