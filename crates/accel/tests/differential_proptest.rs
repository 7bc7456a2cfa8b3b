//! Differential property tests: random hand-built kernels run through the
//! optimized engine and the straight-line reference interpreter must
//! produce identical architectural results, iteration counts, cycle
//! totals, activity statistics, and latency-counter readings — with and
//! without injected timing faults, across every grid preset.

use mesa_accel::{
    run_differential, AccelConfig, AccelProgram, AccelRunResult, Coord, FaultPlan, NodeConfig,
    Operand, PlacementSnapshot, Region, SessionRequest, SpatialAccelerator,
};
use mesa_isa::reg::abi::*;
use mesa_isa::{ArchState, Instruction, Opcode, Xlen};
use mesa_mem::{MemConfig, MemorySystem};
use mesa_test::prop::{any_bool, vec};
use mesa_test::{forall, prop_assert, Checker, Rng};
use mesa_trace::NullTracer;

/// Persisted counterexample seeds, replayed before novel cases (the file
/// is created on the first failure).
const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/differential_proptest.proptest-regressions");

fn checker(name: &str, cases: u32) -> Checker {
    Checker::new(name).cases(cases).regressions_file(REGRESSIONS)
}

const ARR_A: u64 = 0x10_0000;
const ARR_OUT: u64 = 0x20_0000;

/// How much memory traffic [`random_program`] draws per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// At most one load and one store.
    Light,
    /// 3–8 loads and stores over a few shared cache lines, stores
    /// aliasing the loads' addresses.
    Heavy,
    /// 3–8 loads over a few shared cache lines and no store.
    LoadsOnly,
}

impl Mix {
    /// [`Mix::Light`], [`Mix::Heavy`] or [`Mix::LoadsOnly`] for 0, 1, 2.
    fn pick(pick: u64) -> Mix {
        [Mix::Light, Mix::Heavy, Mix::LoadsOnly][(pick % 3) as usize]
    }
}

/// Builds a random but valid kernel: an address induction, loads (under
/// [`Mix::Light`] an optional, sometimes prefetched one), a random-depth
/// dependence chain with a carried accumulator, under the heavy mixes a
/// random interleaving of more loads and aliasing stores, an optional
/// forward-branch-guarded update, an output store (optional under
/// [`Mix::Light`], absent under [`Mix::LoadsOnly`]), and the counter
/// induction + closing branch. Placement is randomized over the first
/// four grid rows and nodes are sometimes left unplaced (fallback bus).
fn random_program(seed: u64, grid_cols: usize, mix: Mix) -> AccelProgram {
    let mut rng = Rng::seed_from_u64(seed);
    let mut nodes: Vec<NodeConfig> = Vec::new();
    let coord = |rng: &mut Rng| {
        rng.gen_bool(0.85)
            .then(|| Coord::new(rng.gen_range(0..4), rng.gen_range(0..grid_cols)))
    };
    let pc = |idx: usize| 0x1000 + 4 * idx as u64;

    // node 0: address induction a0 += 4 (carried self).
    let a0_idx = nodes.len() as u32;
    let c = coord(&mut rng);
    nodes.push(NodeConfig::new(
        pc(0),
        Instruction::reg_imm(Opcode::Addi, A0, A0, 4),
        c,
        [Operand::Node { idx: a0_idx, carried: true, via: A0 }, Operand::None],
    ));

    // Loads ahead of the chain: an optional one under Mix::Light. The
    // heavy mixes split 3–8 memory operations per iteration (the heavy
    // output store included) into those loads and a mixed group after
    // the chain.
    let (mut early_loads, mut late_ops) = (usize::from(rng.gen_bool(0.7)), 0);
    if mix != Mix::Light {
        let total = rng.gen_range(3usize..=8);
        let late_and_early = if mix == Mix::Heavy { total - 1 } else { total };
        early_loads = rng.gen_range(1..=late_and_early.min(3));
        late_ops = late_and_early - early_loads;
    }
    // A word of the array near the current address: consecutive
    // iterations step 4 bytes, so the operations share a few cache lines
    // and a store reaches the words later loads read.
    let near = |rng: &mut Rng| if mix == Mix::Light { 0 } else { 4 * rng.gen_range(0i64..6) };
    // An address operand: the previous or (heavy mixes only) the current
    // iteration's address.
    let base = |rng: &mut Rng| Operand::Node {
        idx: a0_idx,
        carried: mix == Mix::Light || rng.gen_bool(0.5),
        via: A0,
    };
    let push_load = |nodes: &mut Vec<NodeConfig>, rng: &mut Rng| {
        let idx = nodes.len();
        let imm = near(rng);
        let mut n = NodeConfig::new(
            pc(idx),
            Instruction::load(Opcode::Lw, T3, A0, imm),
            coord(rng),
            [base(rng), Operand::None],
        );
        n.prefetched = rng.gen_bool(0.4);
        nodes.push(n);
        idx as u32
    };
    let loads: Vec<u32> = (0..early_loads).map(|_| push_load(&mut nodes, &mut rng)).collect();

    // Carried accumulator seed: t1 += 3.
    let acc_idx = nodes.len() as u32;
    let c = coord(&mut rng);
    nodes.push(NodeConfig::new(
        pc(acc_idx as usize),
        Instruction::reg_imm(Opcode::Addi, T1, T1, 3),
        c,
        [Operand::Node { idx: acc_idx, carried: true, via: T1 }, Operand::None],
    ));

    // Random-depth chain mixing immediates and two-operand ALU ops whose
    // sources are random earlier nodes.
    let mut chain_end = acc_idx;
    let mut producers = vec![acc_idx];
    producers.extend(&loads);
    for _ in 0..rng.gen_range(1usize..=8) {
        let idx = nodes.len() as u32;
        let s1 = producers[rng.gen_range(0..producers.len())];
        let instr = match rng.gen_range(0..5) {
            0 => Instruction::reg_imm(Opcode::Addi, T1, T1, rng.gen_range(-64i64..64)),
            1 => Instruction::reg3(Opcode::Add, T1, T1, T2),
            2 => Instruction::reg3(Opcode::Xor, T1, T1, T2),
            3 => Instruction::reg3(Opcode::Sub, T1, T1, T2),
            _ => Instruction::reg_imm(Opcode::Slli, T1, T1, rng.gen_range(0i64..8)),
        };
        let s2 = if instr.rs2.is_some() {
            Operand::Node {
                idx: producers[rng.gen_range(0..producers.len())],
                carried: false,
                via: T2,
            }
        } else {
            Operand::None
        };
        nodes.push(NodeConfig::new(
            pc(idx as usize),
            instr,
            coord(&mut rng),
            [Operand::Node { idx: s1, carried: false, via: T1 }, s2],
        ));
        producers.push(idx);
        chain_end = idx;
    }

    // The heavy mixes' late group: loads and (under Mix::Heavy) stores of
    // random producers in random program order, so a load can follow a
    // store to the same word within one iteration.
    for _ in 0..late_ops {
        if mix == Mix::Heavy && rng.gen_bool(0.5) {
            let idx = nodes.len();
            let imm = near(&mut rng);
            let value = producers[rng.gen_range(0..producers.len())];
            nodes.push(NodeConfig::new(
                pc(idx),
                Instruction::store(Opcode::Sw, T1, A0, imm),
                coord(&mut rng),
                [base(&mut rng), Operand::Node { idx: value, carried: false, via: T1 }],
            ));
        } else {
            producers.push(push_load(&mut nodes, &mut rng));
        }
    }

    // Optional predicated update guarded by a forward branch.
    if rng.gen_bool(0.5) {
        let br = nodes.len() as u32;
        nodes.push(NodeConfig::new(
            pc(br as usize),
            Instruction::branch(Opcode::Bge, T1, T2, 8),
            coord(&mut rng),
            [
                Operand::Node { idx: chain_end, carried: false, via: T1 },
                Operand::InitReg(T2),
            ],
        ));
        let g = nodes.len() as u32;
        let mut guarded = NodeConfig::new(
            pc(g as usize),
            Instruction::reg_imm(Opcode::Addi, T5, T5, 3),
            coord(&mut rng),
            [Operand::Node { idx: g, carried: true, via: T5 }, Operand::None],
        );
        guarded.hidden = Operand::Node { idx: g, carried: true, via: T5 };
        guarded.guards = vec![br];
        nodes.push(guarded);
    }

    // Store of the chain value: optional under Mix::Light, always under
    // Mix::Heavy, never under Mix::LoadsOnly.
    let output_store = match mix {
        Mix::Light => rng.gen_bool(0.7),
        Mix::Heavy => true,
        Mix::LoadsOnly => false,
    };
    if output_store {
        let s = nodes.len() as u32;
        nodes.push(NodeConfig::new(
            pc(s as usize),
            Instruction::store(Opcode::Sw, T1, A4, 0),
            coord(&mut rng),
            [
                Operand::Node { idx: s + 1, carried: true, via: A4 },
                Operand::Node { idx: chain_end, carried: false, via: T1 },
            ],
        ));
        let a4 = nodes.len() as u32;
        nodes.push(NodeConfig::new(
            pc(a4 as usize),
            Instruction::reg_imm(Opcode::Addi, A4, A4, 4),
            coord(&mut rng),
            [Operand::Node { idx: a4, carried: true, via: A4 }, Operand::None],
        ));
    }

    // Counter induction + closing backward branch.
    let cnt = nodes.len() as u32;
    nodes.push(NodeConfig::new(
        pc(cnt as usize),
        Instruction::reg_imm(Opcode::Addi, A2, A2, 1),
        coord(&mut rng),
        [Operand::Node { idx: cnt, carried: true, via: A2 }, Operand::None],
    ));
    let br = nodes.len() as u32;
    nodes.push(NodeConfig::new(
        pc(br as usize),
        Instruction::branch(Opcode::Bltu, A2, A1, -(4 * i64::from(br))),
        coord(&mut rng),
        [Operand::Node { idx: cnt, carried: false, via: A2 }, Operand::InitReg(A1)],
    ));

    AccelProgram {
        start_pc: 0x1000,
        end_pc: 0x1000 + 4 * nodes.len() as u64,
        nodes,
        loop_branch: br,
        live_out: vec![(T1, chain_end), (A2, cnt)],
        tiles: 1,
        pipelined: rng.gen_bool(0.4),
    }
}

fn entry_and_mem(seed: u64, bound: u64) -> (ArchState, MemorySystem) {
    let mut rng = Rng::seed_from_u64(seed ^ 0xE17);
    let mut entry = ArchState::new(0x1000, Xlen::Rv32);
    for r in [T1, T2, T3, T5] {
        entry.write(r, u64::from(rng.gen::<u32>() % 1000));
    }
    entry.write(A0, ARR_A);
    entry.write(A1, bound);
    entry.write(A4, ARR_OUT);
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    for i in 0..=bound {
        mem.data_mut().store_u32(ARR_A + 4 * i, rng.gen::<u32>() % 10_000);
    }
    (entry, mem)
}

/// M-128 with a single memory port: the one grid where the port floor
/// (`port_requests / mem_ports`) overtakes a request's ready time, so a
/// lost memory-port booking changes the timing.
const ONE_PORT: u64 = 3;

/// The three grid presets, then [`ONE_PORT`].
fn grid_for(pick: u64) -> AccelConfig {
    match pick % 4 {
        0 => AccelConfig::m64(),
        1 => AccelConfig::m128(),
        2 => AccelConfig::m512(),
        _ => AccelConfig {
            mem_ports: 1,
            ..AccelConfig::m128()
        },
    }
}

fn assert_agreement(
    seed: u64,
    bound: u64,
    cfg: AccelConfig,
    mix: Mix,
    faults: &FaultPlan,
) -> Result<(), String> {
    let prog = random_program(seed, cfg.grid().cols, mix);
    if prog.validate(cfg.grid()).is_err() {
        return Ok(()); // untranslatable draw; skip
    }
    let accel = SpatialAccelerator::new(cfg);
    let (entry, mem) = entry_and_mem(seed, bound);
    match run_differential(&accel, &prog, &entry, &mem, 0, 100_000, faults) {
        Err(e) => Err(format!("seed {seed}: rejected: {e}")),
        Ok(Some(d)) => Err(format!("seed {seed}: {d}")),
        Ok(None) => Ok(()),
    }
}

/// The headline differential property (≥100 random kernel/grid cases).
#[test]
fn engines_agree_on_random_kernels() {
    forall!(checker("differential::engines_agree_on_random_kernels", 120), |(seed in 0u64..1_000_000, bound in 1u64..120, grid in 0u64..4, mix in 0u64..3)| {
        let outcome = assert_agreement(seed, bound, grid_for(grid), Mix::pick(mix), &FaultPlan::none());
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    });
}

#[test]
fn engines_agree_under_injected_timing_faults() {
    forall!(checker("differential::engines_agree_under_injected_timing_faults", 60), |(seed in 0u64..1_000_000, bound in 1u64..80, grid in 0u64..4, drop in 2u64..10)| {
        let faults = FaultPlan { bus_drop_period: drop, ..FaultPlan::none() };
        let outcome = assert_agreement(seed, bound, grid_for(grid), Mix::Light, &faults);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    });
}

/// Word-for-word equality of two runs' memory effects: the output array
/// and the input array the heavy mixes store into.
fn same_memory(
    seed: u64,
    what: &str,
    bound: u64,
    a: &mut MemorySystem,
    b: &mut MemorySystem,
) -> Result<(), String> {
    for addr in (0..=bound + 8).flat_map(|i| [ARR_OUT + 4 * i, ARR_A + 4 * i]) {
        let (x, y) = (a.data_mut().load_u32(addr), b.data_mut().load_u32(addr));
        if x != y {
            return Err(format!("seed {seed}: {what}: memory diverges at {addr:#x}: {x} vs {y}"));
        }
    }
    Ok(())
}

/// The memory-port oracle: every load of a load-only kernel books one of
/// the grid's ports, and the `n`-th request (from 0) cannot start before
/// cycle `n / ports`, so a run issuing `m` loads lasts at least
/// `(m - 1) / ports` cycles. Heavy loads keep the floor above the
/// dataflow latency on the narrow-port grids.
#[test]
fn load_only_kernels_respect_the_port_floor() {
    forall!(checker("differential::load_only_kernels_respect_the_port_floor", 60), |(seed in 0u64..1_000_000, bound in 1u64..120, grid in 0u64..4)| {
        let cfg = grid_for(grid);
        let prog = random_program(seed, cfg.grid().cols, Mix::LoadsOnly);
        if prog.validate(cfg.grid()).is_err() {
            return Ok(()); // untranslatable draw; skip
        }
        let ports = cfg.mem_ports as u64;
        let (entry, mut mem) = entry_and_mem(seed, bound);
        let r = SpatialAccelerator::new(cfg)
            .execute(&prog, &entry, &mut mem, 0, 100_000)
            .map_err(|e| format!("seed {seed}: rejected: {e}"))?;
        prop_assert!(r.activity.stores == 0, "seed {}: a load-only kernel stored", seed);
        let loads = r.activity.loads;
        prop_assert!(loads >= 3 * r.iterations, "seed {}: {} loads in {} iterations", seed, loads, r.iterations);
        prop_assert!(
            r.cycles >= (loads - 1) / ports,
            "seed {}: {} loads over {} ports in {} cycles",
            seed, loads, ports, r.cycles
        );
    });
}

/// Field-by-field equality of two session results — not just the
/// architectural registers, but timing, counters, activity, and the fault
/// log. Migration between aligned bands of the same grid must be
/// *cycle*-invisible, so nothing is allowed to drift.
fn expect_identical(seed: u64, what: &str, a: &AccelRunResult, b: &AccelRunResult) -> Result<(), String> {
    if a.iterations != b.iterations
        || a.cycles != b.cycles
        || a.completed != b.completed
        || a.final_regs != b.final_regs
        || a.counters != b.counters
        || a.activity != b.activity
        || a.faults != b.faults
    {
        return Err(format!("seed {seed}: {what} diverged from the uninterrupted run"));
    }
    Ok(())
}

/// One migration-invisibility case: run a kernel uninterrupted in the top
/// band of the grid; run it again, freezing at a (randomly chosen) cycle,
/// serializing the snapshot to its word stream, decoding it back, and
/// resuming in a randomly chosen aligned band. Everything observable —
/// final registers, memory, iteration count, cycle count, per-node
/// counters — must be identical, with the reference interpreter
/// arbitrating the seed's ground truth first.
fn assert_migration_invisible(
    seed: u64,
    bound: u64,
    cfg: AccelConfig,
    cycle_pick: u64,
    row_pick: u64,
    mix: Mix,
    faults: &FaultPlan,
) -> Result<(), String> {
    let cols = cfg.grid().cols;
    let prog = random_program(seed, cols, mix);
    let band = Region::new(0, 4, cols);
    if prog.validate(band.dims()).is_err() {
        return Ok(()); // untranslatable draw; skip
    }
    let accel = SpatialAccelerator::new(cfg);
    let (entry, mem) = entry_and_mem(seed, bound);

    // The straight-line reference interpreter arbitrates this seed.
    match run_differential(&accel, &prog, &entry, &mem, 0, 100_000, faults) {
        Err(e) => return Err(format!("seed {seed}: rejected: {e}")),
        Ok(Some(d)) => return Err(format!("seed {seed}: reference diverges pre-migration: {d}")),
        Ok(None) => {}
    }

    let session = |pause: Option<u64>,
                   state: &mut PlacementSnapshot,
                   region: Region,
                   mem: &mut MemorySystem| {
        let req = SessionRequest {
            requester: 0,
            max_iterations: 100_000,
            faults,
            region,
            pause_at_cycle: pause,
        };
        accel.run_session(&prog, mem, &req, state, &mut NullTracer, 0)
    };
    let fresh = || PlacementSnapshot::new(&prog, &entry, band.rows, faults);

    let mut mem_solo = mem.clone();
    let mut solo_state = fresh();
    match session(None, &mut solo_state, band, &mut mem_solo) {
        Ok(false) => {}
        Ok(true) => return Err(format!("seed {seed}: un-paused session froze")),
        Err(e) => return Err(format!("seed {seed}: solo session rejected: {e}")),
    }
    let solo = solo_state.into_result(&prog);

    let pause_at = cycle_pick % solo.cycles.max(1);
    let mut mem_mig = mem.clone();
    let mut state = fresh();
    match session(Some(pause_at), &mut state, band, &mut mem_mig) {
        Ok(false) => {
            // The final round legitimately leapt past the pause point;
            // there is nothing to migrate, but the run must still match.
            expect_identical(seed, "pause-skipping run", &solo, &state.into_result(&prog))?;
        }
        Ok(true) => {
            let words = state.to_words();
            let mut decoded = PlacementSnapshot::from_words(&words)
                .map_err(|e| format!("seed {seed}: snapshot roundtrip failed: {e}"))?;
            if state != decoded {
                return Err(format!("seed {seed}: snapshot words not lossless"));
            }
            let bands = (cfg.grid().rows / 4).max(1) as u64;
            let target = Region::new(4 * (row_pick % bands) as usize, 4, cols);
            match session(None, &mut decoded, target, &mut mem_mig) {
                Ok(false) => {}
                Ok(true) => return Err(format!("seed {seed}: resume froze again")),
                Err(e) => return Err(format!("seed {seed}: resume rejected: {e}")),
            }
            expect_identical(
                seed,
                &format!("migration to {target} at cycle {pause_at}"),
                &solo,
                &decoded.into_result(&prog),
            )?;
        }
        Err(e) => return Err(format!("seed {seed}: pausing session rejected: {e}")),
    }

    // The migrated run's memory effects match word for word.
    same_memory(seed, "migration", bound, &mut mem_solo, &mut mem_mig)
}

/// The tentpole property: checkpoint at a random cycle, serialize,
/// migrate to a random aligned band, resume — byte-identical to the run
/// that never moved (PR 6).
#[test]
fn migration_is_invisible_on_random_kernels() {
    forall!(checker("differential::migration_is_invisible", 110), |(seed in 0u64..1_000_000, bound in 1u64..100, grid in 0u64..4, cycle in 0u64..1_000_000, row in 0u64..8, mix in 0u64..3)| {
        let (cfg, mix) = (grid_for(grid), Mix::pick(mix));
        let outcome =
            assert_migration_invisible(seed, bound, cfg, cycle, row, mix, &FaultPlan::none());
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    });
}

/// Migration invisibility must survive injected timing faults: the
/// snapshot carries the bus fault state, so dropped-token penalties land
/// on the same iterations whether or not the placement moved.
#[test]
fn migration_is_invisible_under_injected_timing_faults() {
    forall!(checker("differential::migration_is_invisible_under_faults", 60), |(seed in 0u64..1_000_000, bound in 1u64..80, grid in 0u64..4, cycle in 0u64..1_000_000, row in 0u64..8, drop in 2u64..10)| {
        let faults = FaultPlan { bus_drop_period: drop, ..FaultPlan::none() };
        let outcome =
            assert_migration_invisible(seed, bound, grid_for(grid), cycle, row, Mix::Light, &faults);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    });
}

/// Same kernel, every grid preset: the reference must track the engine on
/// all of them (routing latencies differ per grid, results must not).
#[test]
fn engines_agree_across_all_grids_for_one_kernel() {
    forall!(checker("differential::engines_agree_across_all_grids", 24), |(seed in 0u64..1_000_000, bound in 1u64..60)| {
        for pick in 0..4u64 {
            let outcome =
                assert_agreement(seed, bound, grid_for(pick), Mix::Light, &FaultPlan::none());
            prop_assert!(outcome.is_ok(), "grid {}: {}", pick, outcome.unwrap_err());
        }
    });
}

/// Continuation in place: one state paused at `k` random cycles and run
/// again after each pause (optionally taken through its word stream every
/// time) ends exactly where the uninterrupted run does — timing, counters,
/// final registers and memory.
fn assert_continuation_invisible(
    seed: u64,
    bound: u64,
    cfg: AccelConfig,
    pauses: &[u64],
    through_words: bool,
    mix: Mix,
) -> Result<(), String> {
    let cols = cfg.grid().cols;
    let prog = random_program(seed, cols, mix);
    let band = Region::new(0, 4, cols);
    if prog.validate(band.dims()).is_err() {
        return Ok(()); // untranslatable draw; skip
    }
    let accel = SpatialAccelerator::new(cfg);
    let (entry, mem) = entry_and_mem(seed, bound);
    let faults = FaultPlan::none();
    let req = |pause_at_cycle| SessionRequest {
        requester: 0,
        max_iterations: 100_000,
        faults: &faults,
        region: band,
        pause_at_cycle,
    };

    let mut mem_solo = mem.clone();
    let solo = accel
        .execute(&prog, &entry, &mut mem_solo, 0, 100_000)
        .map_err(|e| format!("seed {seed}: solo rejected: {e}"))?;

    let mut mem_sliced = mem.clone();
    let mut state = PlacementSnapshot::new(&prog, &entry, band.rows, &faults);
    let mut at = 0;
    for &pick in pauses {
        // Pause points move forward through the run (a point the clock has
        // already passed freezes at the next round boundary).
        at += pick % (solo.cycles / pauses.len() as u64).max(1);
        let paused = accel
            .run_session(&prog, &mut mem_sliced, &req(Some(at)), &mut state, &mut NullTracer, 0)
            .map_err(|e| format!("seed {seed}: slice rejected: {e}"))?;
        if !paused {
            break;
        }
        if through_words {
            state = PlacementSnapshot::from_words(&state.to_words())
                .map_err(|e| format!("seed {seed}: snapshot roundtrip failed: {e}"))?;
        }
    }
    accel
        .run_session(&prog, &mut mem_sliced, &req(None), &mut state, &mut NullTracer, 0)
        .map_err(|e| format!("seed {seed}: final slice rejected: {e}"))?;
    let what = format!("{} pauses (through words: {through_words})", pauses.len());
    expect_identical(seed, &what, &solo, &state.into_result(&prog))?;
    same_memory(seed, &what, bound, &mut mem_solo, &mut mem_sliced)
}

#[test]
fn continuing_a_paused_state_in_place_matches_the_solo_run() {
    forall!(
        checker("differential::continuation_in_place_is_invisible", 80),
        |(
            seed in 0u64..1_000_000,
            bound in 1u64..100,
            grid in 0u64..3,
            pauses in vec(0u64..1_000_000, 1..8),
            through_words in any_bool(),
            mix in 0u64..3,
        )| {
            // Every case also runs on the one-port grid, where a heavy
            // mix keeps the port floor binding in steady state.
            for pick in [grid, ONE_PORT] {
                let cfg = grid_for(pick);
                let outcome = assert_continuation_invisible(
                    seed,
                    bound,
                    cfg,
                    &pauses,
                    through_words,
                    Mix::pick(mix),
                );
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }
    );
}
