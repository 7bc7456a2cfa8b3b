//! Randomized differential testing: generate random (but well-formed)
//! loops, run them functionally on the CPU semantics, and run the same
//! machine code through MESA's full translate→map→configure→execute
//! pipeline. Live-out registers and touched memory must match exactly.
//!
//! This is the strongest invariant in the repo: *dynamic binary
//! translation must never change architectural results*, no matter the
//! placement, predication, forwarding, or optimization decisions.

use mesa::accel::{AccelConfig, Coord, SpatialAccelerator};
use mesa::core::{analyze_memopts, build_accel_program, map_instructions, Ldfg, MapperConfig, OptFlags};
use mesa::cpu::{CoreConfig, Multicore, RunLimits, StopReason};
use mesa::isa::reg::abi::*;
use mesa::isa::{step, ArchState, Asm, OpClass, Outcome, Program, Reg, Xlen};
use mesa::mem::{MemConfig, MemorySystem};
use mesa_test::Rng;

const ARR_A: u64 = 0x10_0000;
const ARR_OUT: u64 = 0x20_0000;
const ITERS: u64 = 37;

/// Builds a random loop: a handful of integer ops over t0-t5, an optional
/// load/store pair, an optional guarded (forward-branch) update, and an
/// induction + bltu closing pair.
fn random_loop(seed: u64) -> Program {
    let mut rng = Rng::seed_from_u64(seed);
    let temps = [T0, T1, T2, T3, T4];
    let mut a = Asm::new(0x1000);
    a.label("loop");

    // Optional load feeding the temps.
    if rng.gen_bool(0.7) {
        a.lw(temps[rng.gen_range(0..temps.len())], A0, 0);
    }

    // 3-8 random ALU ops.
    for _ in 0..rng.gen_range(3..=8) {
        let rd = temps[rng.gen_range(0..temps.len())];
        let rs1 = temps[rng.gen_range(0..temps.len())];
        let rs2 = temps[rng.gen_range(0..temps.len())];
        match rng.gen_range(0..7) {
            0 => a.add(rd, rs1, rs2),
            1 => a.sub(rd, rs1, rs2),
            2 => a.xor(rd, rs1, rs2),
            3 => a.and(rd, rs1, rs2),
            4 => a.or(rd, rs1, rs2),
            5 => a.addi(rd, rs1, rng.gen_range(-64..64)),
            _ => a.slli(rd, rs1, rng.gen_range(0..8)),
        };
    }

    // Optional predicated region: skip one update when t0 >= t1.
    if rng.gen_bool(0.5) {
        a.bge(T0, T1, "skip");
        a.addi(T5, T5, 3);
        a.label("skip");
    }

    // Optional store of a temp.
    if rng.gen_bool(0.7) {
        a.sw(temps[rng.gen_range(0..temps.len())], A4, 0);
        a.addi(A4, A4, 4);
    }

    // Induction + close.
    a.addi(A0, A0, 4);
    a.bltu(A0, A1, "loop");
    a.finish().expect("random loop assembles")
}

fn entry_state(seed: u64) -> ArchState {
    let mut rng = Rng::seed_from_u64(seed ^ 0xDEAD);
    let mut st = ArchState::new(0x1000, Xlen::Rv32);
    for r in [T0, T1, T2, T3, T4, T5] {
        st.write(r, u64::from(rng.gen::<u32>() % 1000));
    }
    st.write(A0, ARR_A);
    st.write(A1, ARR_A + 4 * ITERS);
    st.write(A4, ARR_OUT);
    st
}

/// Writes the deterministic input array for `seed` (shared by the
/// golden, accelerator, and multicore runs).
fn populate_input(mem: &mut MemorySystem, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);
    for i in 0..ITERS {
        mem.data_mut().store_u32(ARR_A + 4 * i, rng.gen::<u32>() % 10_000);
    }
}

/// Functional golden run with the plain ISA semantics.
fn golden(program: &Program, seed: u64) -> (ArchState, MemorySystem) {
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    populate_input(&mut mem, seed);
    let mut st = entry_state(seed);
    for _ in 0..1_000_000 {
        let Some(instr) = program.fetch(st.pc) else { break };
        let info = step(&mut st, instr, mem.data_mut());
        if matches!(info.outcome, Outcome::Halt) {
            break;
        }
    }
    (st, mem)
}

/// Runs the same region through MESA's pipeline on the accelerator.
fn via_mesa(program: &Program, seed: u64, opts: &OptFlags) -> Option<(ArchState, MemorySystem)> {
    let ldfg = Ldfg::build(program).ok()?;
    let accel_cfg = AccelConfig::m128();
    let accel = SpatialAccelerator::new(accel_cfg);
    let supports = |c: Coord, class: OpClass| accel_cfg.supports(c, class);
    let sdfg = map_instructions(
        &ldfg,
        accel_cfg.grid(),
        &supports,
        accel.latency_model(),
        &MapperConfig::default(),
    );
    let plan = analyze_memopts(&ldfg);
    // Pipelining/tiling only engage on annotated loops; synthesize the
    // annotation when the variant under test asks for them.
    let annotation =
        (opts.pipelining || opts.tiling).then_some(mesa::isa::ParallelKind::Simd);
    let prog =
        build_accel_program(&ldfg, &sdfg, Some(&plan), annotation, &accel_cfg, opts, ITERS);

    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    populate_input(&mut mem, seed);
    let mut st = entry_state(seed);
    let r = accel.execute(&prog, &st, &mut mem, 0, 10_000).expect("validated program runs");
    assert!(r.completed, "loop must terminate");
    for (reg, value) in r.final_regs {
        st.write(reg, value);
    }
    Some((st, mem))
}

fn compare(seed: u64, opts: &OptFlags) {
    let program = random_loop(seed);
    let (gold_st, mut gold_mem) = golden(&program, seed);
    let Some((mesa_st, mut mesa_mem)) = via_mesa(&program, seed, opts) else {
        return;
    };
    for r in 0..32u8 {
        let reg = Reg::x(r);
        assert_eq!(
            gold_st.read(reg),
            mesa_st.read(reg),
            "seed {seed}: x{r} mismatch\nprogram:\n{program}"
        );
    }
    for i in 0..ITERS {
        let addr = ARR_OUT + 4 * i;
        assert_eq!(
            gold_mem.data_mut().load_u32(addr),
            mesa_mem.data_mut().load_u32(addr),
            "seed {seed}: out[{i}] mismatch\nprogram:\n{program}"
        );
    }
}

#[test]
fn random_loops_match_golden_without_optimizations() {
    for seed in 0..40 {
        compare(seed, &OptFlags::none());
    }
}

#[test]
fn random_loops_match_golden_with_memory_optimizations() {
    let opts = OptFlags { memory_opts: true, ..OptFlags::none() };
    for seed in 0..40 {
        compare(seed, &opts);
    }
}

#[test]
fn random_loops_match_golden_with_pipelining() {
    let opts = OptFlags { pipelining: true, memory_opts: true, ..OptFlags::none() };
    for seed in 40..80 {
        compare(seed, &opts);
    }
}

/// Builds a random *data-parallel* loop: one load, then ALU ops whose
/// sources are all values defined earlier in the same iteration (rooted
/// at the loaded element), a store, and the induction + close + exit
/// stub. Because nothing is loop-carried except the induction and
/// follower registers, splitting the iteration space across cores must
/// not change any architectural result.
fn parallel_random_loop(seed: u64) -> Program {
    let mut rng = Rng::seed_from_u64(seed ^ 0xCAFE);
    let temps = [T1, T2, T3, T4];
    let mut a = Asm::new(0x1000);
    a.label("loop");
    a.lw(T0, A0, 0);
    let mut defined = vec![T0];
    for _ in 0..rng.gen_range(3..=8) {
        let rd = temps[rng.gen_range(0..temps.len())];
        let rs1 = defined[rng.gen_range(0..defined.len())];
        let rs2 = defined[rng.gen_range(0..defined.len())];
        match rng.gen_range(0..7) {
            0 => a.add(rd, rs1, rs2),
            1 => a.sub(rd, rs1, rs2),
            2 => a.xor(rd, rs1, rs2),
            3 => a.and(rd, rs1, rs2),
            4 => a.or(rd, rs1, rs2),
            5 => a.addi(rd, rs1, rng.gen_range(-64..64)),
            _ => a.slli(rd, rs1, rng.gen_range(0..8)),
        };
        if !defined.contains(&rd) {
            defined.push(rd);
        }
    }
    a.sw(defined[rng.gen_range(0..defined.len())], A4, 0);
    a.addi(A4, A4, 4);
    a.addi(A0, A0, 4);
    a.bltu(A0, A1, "loop");
    a.li(A7, 93);
    a.ecall();
    a.finish().expect("parallel random loop assembles")
}

/// Splits the iteration space across `n_cores` OoO cores over a shared
/// memory system and checks the combined result — every live-out
/// register of the core that ran the final chunk, and all output memory
/// — against the single-threaded golden semantics.
fn compare_multicore(seed: u64, n_cores: usize) {
    let program = parallel_random_loop(seed);
    let (gold_st, mut gold_mem) = golden(&program, seed);

    let mut mc = Multicore::new(CoreConfig::default(), MemConfig::default(), n_cores);
    populate_input(mc.mem_mut(), seed);
    let chunk = ITERS.div_ceil(n_cores as u64);
    let r = mc.run_parallel(
        &program,
        |id| {
            let lo = (chunk * id as u64).min(ITERS);
            let hi = (chunk * (id as u64 + 1)).min(ITERS);
            // The loop body runs before the bltu check (do-while), so an
            // empty chunk would over-execute; ITERS >= n_cores avoids it.
            assert!(lo < hi, "core {id} got an empty chunk");
            let mut st = entry_state(seed);
            st.write(A0, ARR_A + 4 * lo);
            st.write(A1, ARR_A + 4 * hi);
            st.write(A4, ARR_OUT + 4 * lo);
            st
        },
        RunLimits::none(),
        &mut mesa::trace::NullTracer,
    );

    for (id, core) in r.per_core.iter().enumerate() {
        assert!(
            matches!(core.stop, StopReason::Halted),
            "seed {seed}: core {id} stopped with {:?}\nprogram:\n{program}",
            core.stop
        );
    }
    // The last core runs the final iterations; since every temp is
    // recomputed per-iteration, all 32 of its registers must match the
    // golden single-core run (A1 included: its chunk limit is the full
    // bound).
    let last = r.final_states.last().expect("at least one core");
    for x in 0..32u8 {
        let reg = Reg::x(x);
        assert_eq!(
            gold_st.read(reg),
            last.read(reg),
            "seed {seed}: {n_cores}-core x{x} mismatch\nprogram:\n{program}"
        );
    }
    for i in 0..ITERS {
        let addr = ARR_OUT + 4 * i;
        assert_eq!(
            gold_mem.data_mut().load_u32(addr),
            mc.mem_mut().data_mut().load_u32(addr),
            "seed {seed}: {n_cores}-core out[{i}] mismatch\nprogram:\n{program}"
        );
    }
}

#[test]
fn random_parallel_loops_match_golden_across_2_and_4_cores() {
    for seed in 0..20 {
        compare_multicore(seed, 2);
        compare_multicore(seed, 4);
    }
}
