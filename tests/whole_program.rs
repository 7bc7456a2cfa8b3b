//! Whole-program integration: programs with *several* hot loops, loops
//! that repeat (exercising the configuration cache), and loops MESA must
//! reject and leave on the CPU — driven end-to-end through
//! `MesaController::run_program`.

use mesa::core::{MesaController, ProgramRunReport, SystemConfig};
use mesa::cpu::{CoreConfig, NullMonitor, OoOCore, RunLimits, StopReason};
use mesa::isa::reg::abi::*;
use mesa::isa::{ArchState, Asm, Program, Xlen};
use mesa::mem::{MemConfig, MemorySystem};
use mesa::workloads::{by_name, Kernel, KernelSize};

const A: u64 = 0x10_0000;
const B: u64 = 0x20_0000;
const OUT: u64 = 0x30_0000;
const N: u64 = 1500;

/// Two back-to-back hot loops: sum += a[i], then b[i] = a[i] * 3.
fn two_loop_program() -> Program {
    let mut a = Asm::new(0x1000);
    // Loop 1: reduction.
    a.label("sum");
    a.lw(T0, A0, 0);
    a.add(S0, S0, T0);
    a.addi(A0, A0, 4);
    a.bltu(A0, A1, "sum");
    // Glue: reset the cursor.
    a.li(A0, A as i64);
    // Loop 2: scale.
    a.label("scale");
    a.lw(T0, A0, 0);
    a.slli(T1, T0, 1);
    a.add(T1, T1, T0);
    a.sw(T1, A4, 0);
    a.addi(A0, A0, 4);
    a.addi(A4, A4, 4);
    a.bltu(A0, A1, "scale");
    a.sw(S0, A5, 0);
    a.li(A7, 93);
    a.ecall();
    a.finish().unwrap()
}

fn fresh_system() -> (ArchState, MemorySystem) {
    let mut st = ArchState::new(0x1000, Xlen::Rv32);
    st.write(A0, A);
    st.write(A1, A + 4 * N);
    st.write(A4, OUT);
    st.write(A5, B);
    let mut mem = MemorySystem::new(MemConfig::default(), 2);
    for i in 0..N {
        mem.data_mut().store_u32(A + 4 * i, (i % 9 + 1) as u32);
    }
    (st, mem)
}

#[test]
fn both_hot_loops_offload_in_one_run() {
    let program = two_loop_program();
    let (mut st, mut mem) = fresh_system();
    let mut controller = MesaController::new(SystemConfig::m128());
    let mut cpu = OoOCore::new(CoreConfig::boom_baseline());

    let report = controller.run_program(&program, &mut st, &mut mem, &mut cpu, 10_000_000);
    assert!(report.halted, "program must reach its exit");
    assert_eq!(report.offloads.len(), 2, "both loops offload: {report:?}");
    assert!(report.rejections.is_empty());

    // Functional results are exact.
    let expected_sum: u32 = (0..N).map(|i| (i % 9 + 1) as u32).sum();
    assert_eq!(mem.data_mut().load_u32(B), expected_sum);
    for i in 0..N {
        let a_val = (i % 9 + 1) as u32;
        assert_eq!(mem.data_mut().load_u32(OUT + 4 * i), a_val * 3, "out[{i}]");
    }
}

#[test]
fn reencountered_loop_hits_the_config_cache() {
    // The same loop body at the same PCs, entered twice (outer trip via a
    // glue jump decremented counter).
    let mut a = Asm::new(0x1000);
    a.li(S1, 2); // outer trips
    a.label("outer_entry");
    a.li(A0, A as i64);
    a.label("loop");
    a.lw(T0, A0, 0);
    a.sw(T0, A4, 0);
    a.addi(A0, A0, 4);
    a.addi(A4, A4, 4);
    a.bltu(A0, A1, "loop");
    a.addi(S1, S1, -1);
    a.bne(S1, ZERO, "outer_entry");
    a.li(A7, 93);
    a.ecall();
    let program = a.finish().unwrap();

    let (mut st, mut mem) = fresh_system();
    let mut controller = MesaController::new(SystemConfig::m128());
    let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
    let report = controller.run_program(&program, &mut st, &mut mem, &mut cpu, 10_000_000);

    assert!(report.halted);
    // The copy loop offloads at least twice; the second time from cache.
    // (The outer backward branch is itself detected but rejected as an
    // inner-loop-containing region or never gets hot — either is fine.)
    let copy_offloads: Vec<_> = report
        .offloads
        .iter()
        .filter(|o| o.region.0 == 0x1008)
        .collect();
    assert!(copy_offloads.len() >= 2, "copy loop twice: {report:?}");
    assert!(
        copy_offloads.iter().any(|o| o.from_cache),
        "second encounter must hit the config cache"
    );
}

#[test]
fn rejected_inner_loop_is_blacklisted_and_program_completes() {
    // First a tiny 8-trip loop (rejected: too few iterations), then an
    // accelerable one.
    let mut a = Asm::new(0x1000);
    a.li(T2, 8);
    a.label("tiny");
    a.addi(T3, T3, 1);
    a.addi(T4, T4, 2);
    a.addi(T5, T5, 3);
    a.bne(T3, T2, "tiny");
    a.label("big");
    a.lw(T0, A0, 0);
    a.sw(T0, A4, 0);
    a.addi(A0, A0, 4);
    a.addi(A4, A4, 4);
    a.bltu(A0, A1, "big");
    a.li(A7, 93);
    a.ecall();
    let program = a.finish().unwrap();

    let (mut st, mut mem) = fresh_system();
    let mut controller = MesaController::new(SystemConfig::m128());
    let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
    let report = controller.run_program(&program, &mut st, &mut mem, &mut cpu, 10_000_000);

    assert!(report.halted, "{report:?}");
    assert!(
        report.offloads.iter().any(|o| o.region.0 == 0x1014),
        "the big loop offloads: {report:?}"
    );
    // The tiny loop either never got hot enough or was rejected; if it was
    // detected, its rejection is recorded and it must appear only once
    // (blacklisted afterwards).
    assert!(report.rejections.len() <= 1);

    for i in 0..N {
        assert_eq!(
            mem.data_mut().load_u32(OUT + 4 * i),
            (i % 9 + 1) as u32,
            "copy result {i}"
        );
    }
}

#[test]
fn accepted_offloads_count_their_configuration_overlap() {
    // Every dynamic instruction runs either on the CPU (warmup, the
    // iterations overlapping configuration, glue) or inside a fabric
    // iteration, so the two shares add up to one plain run.
    let program = two_loop_program();
    let (mut st, mut mem) = fresh_system();
    let mut controller = MesaController::new(SystemConfig::m128());
    let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
    let report = controller.run_program(&program, &mut st, &mut mem, &mut cpu, 10_000_000);
    assert!(report.halted, "{report:?}");
    assert!(report.offloads.iter().all(|o| o.cpu_iterations_during_config > 0), "{report:?}");
    let on_fabric: u64 =
        report.offloads.iter().map(|o| o.accel_iterations * ((o.region.1 - o.region.0) / 4)).sum();

    let (mut st, mut mem) = fresh_system();
    let plain = OoOCore::new(CoreConfig::boom_baseline()).run(
        &program,
        &mut st,
        &mut mem,
        0,
        RunLimits::none(),
        &mut NullMonitor,
    );
    assert_eq!(plain.stop, StopReason::Halted);
    assert_eq!(report.cpu_instrs + on_fabric, plain.retired, "{report:?}");
}

/// The instruction budget `run_program` gets for a workloads kernel: the
/// one the end-to-end benchmark's program-large workload grants.
fn budget(kernel: &Kernel) -> u64 {
    kernel.iterations * 1000 + 1_000_000
}

fn run_whole(kernel: &Kernel) -> (ProgramRunReport, MemorySystem) {
    let system = SystemConfig::m128();
    let mut mem = MemorySystem::new(system.mem, 2);
    kernel.populate(mem.data_mut());
    let mut state = kernel.entry.clone();
    let mut controller = MesaController::new(system.clone());
    let mut cpu = OoOCore::new(system.core);
    let report =
        controller.run_program(&kernel.program, &mut state, &mut mem, &mut cpu, budget(kernel));
    (report, mem)
}

#[test]
fn rejected_program_counts_every_cpu_instruction() {
    // btree's only region is rejected, so the whole program runs on the
    // CPU: its instruction count is that of one plain run to the exit,
    // declined warmup included and the exit counted once.
    let kernel = by_name("btree", KernelSize::Large).expect("btree is registered");
    let (report, _) = run_whole(&kernel);
    assert!(report.halted, "{report:?}");
    assert!(report.offloads.is_empty() && !report.rejections.is_empty(), "{report:?}");

    let system = SystemConfig::m128();
    let mut mem = MemorySystem::new(system.mem, 1);
    kernel.populate(mem.data_mut());
    let mut state = kernel.entry.clone();
    let plain = OoOCore::new(system.core).run(
        &kernel.program,
        &mut state,
        &mut mem,
        0,
        RunLimits::none(),
        &mut NullMonitor,
    );
    assert_eq!(plain.stop, StopReason::Halted);
    assert_eq!(report.cpu_instrs, plain.retired, "{report:?}");
    assert!(report.total_cycles >= report.cpu_instrs / 4, "{report:?}");
}

#[test]
fn every_large_kernel_halts_within_the_benchmark_budget() {
    for kernel in mesa::workloads::all(KernelSize::Large) {
        let (report, _) = run_whole(&kernel);
        assert!(report.halted, "{} did not reach its exit: {report:?}", kernel.name);
        assert!(report.cpu_instrs < budget(&kernel), "{}: {report:?}", kernel.name);
    }
}
