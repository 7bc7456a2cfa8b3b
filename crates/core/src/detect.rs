//! Code region detection — conditions C1, C2, C3 of paper §4.1.
//!
//! C1 (valid loop): the loop-stream detector found a stable backward
//! branch and the region fits the accelerator (and hence the trace cache).
//! C2 (control check): every instruction is executable on the target —
//! no system instructions, no indirect or pc-relative operations, no inner
//! loops or region-exiting branches, no operation classes the backend
//! lacks. C3 (instruction mix): enough compute relative to loop size, and
//! an expected trip count high enough to amortize the configuration cost
//! (the paper's evaluation puts break-even around 50–100 iterations).

use crate::{BuildError, Ldfg};
use mesa_accel::AccelConfig;
use mesa_isa::{ArchState, Opcode, Program, Xlen};
use std::fmt;

/// Detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectConfig {
    /// Consecutive iterations before the LSD reports a loop.
    pub lsd_threshold: u64,
    /// Minimum expected trip count to consider offloading profitable (C3).
    pub min_expected_iterations: u64,
    /// Minimum fraction of compute (non-control) instructions (C3).
    pub min_compute_fraction: f64,
    /// Register width of the accelerator (RV64 ops are rejected on a
    /// 32-bit backend, one of the paper's C2 examples).
    pub accel_xlen: Xlen,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            lsd_threshold: 3,
            min_expected_iterations: 50,
            min_compute_fraction: 0.25,
            accel_xlen: Xlen::Rv32,
        }
    }
}

/// Why a candidate loop was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// C1: the loop body exceeds the accelerator/trace-cache capacity.
    TooLarge {
        /// Instructions in the region.
        len: usize,
        /// Maximum supported.
        max: usize,
    },
    /// C2: an instruction the backend cannot execute.
    UnsupportedInstruction {
        /// Its address.
        pc: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// C2: structural problem found while building the LDFG.
    Structure(BuildError),
    /// C3: not enough compute relative to loop size.
    PoorMix {
        /// Observed compute fraction.
        compute_fraction: f64,
    },
    /// C3: the loop is not expected to run long enough to amortize
    /// configuration.
    TooFewIterations {
        /// Expected remaining trip count.
        expected: u64,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::TooLarge { len, max } => {
                write!(f, "C1: region of {len} instructions exceeds capacity {max}")
            }
            RejectReason::UnsupportedInstruction { pc, reason } => {
                write!(f, "C2: unsupported instruction at {pc:#x}: {reason}")
            }
            RejectReason::Structure(e) => write!(f, "C2: {e}"),
            RejectReason::PoorMix { compute_fraction } => {
                write!(f, "C3: compute fraction {compute_fraction:.2} too low")
            }
            RejectReason::TooFewIterations { expected } => {
                write!(f, "C3: expected {expected} iterations will not amortize configuration")
            }
        }
    }
}

/// A region that passed C1–C3.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedRegion {
    /// The region's instructions rebased at its start PC.
    pub region: Program,
    /// Its LDFG.
    pub ldfg: Ldfg,
    /// Expected remaining trip count (from the branch condition and
    /// current register values, §4.1).
    pub expected_iterations: u64,
}

/// Checks C2 for one instruction.
fn instruction_supported(op: Opcode, accel_xlen: Xlen) -> Result<(), &'static str> {
    if op.is_system() {
        return Err("system instruction");
    }
    if op.is_jump() {
        return Err("jump (indirect or call) inside loop body");
    }
    if op == Opcode::Auipc {
        return Err("pc-relative address generation");
    }
    if op.is_three_source() {
        return Err("three-source operation exceeds the DFG's two-predecessor model");
    }
    if accel_xlen == Xlen::Rv32 && op.is_rv64_only() {
        return Err("64-bit operation on a 32-bit accelerator");
    }
    Ok(())
}

/// Estimates the remaining trip count from the loop-closing branch: when
/// the branch compares an induction register against a loop-invariant
/// bound, the count is computable from the current register values ("MESA
/// makes an estimate of the loop's expected iteration count based on the
/// branch condition and PC trace").
#[must_use]
fn estimate_trip_count(ldfg: &Ldfg, state: &ArchState) -> Option<u64> {
    let branch = &ldfg.nodes[ldfg.loop_branch as usize];
    let induction = ldfg.induction_nodes();

    // Identify which branch operand is the induction register and which is
    // the invariant bound.
    let mut ind_step: Option<(mesa_isa::Reg, i64)> = None;
    let mut bound: Option<mesa_isa::Reg> = None;
    for (slot, src) in branch.src.iter().enumerate() {
        match *src {
            mesa_accel::Operand::Node { idx, .. } if induction.contains(&idx) => {
                let n = &ldfg.nodes[idx as usize];
                let reg = branch.instr.sources()[slot]?;
                ind_step = Some((reg, n.instr.imm));
            }
            mesa_accel::Operand::InitReg(r) => bound = Some(r),
            _ => {}
        }
    }
    let ((ind_reg, step), bound_reg) = (ind_step?, bound?);
    if step == 0 {
        return None;
    }
    let cur = state.read(ind_reg) as i64;
    let limit = state.read(bound_reg) as i64;
    let remaining = match branch.instr.op {
        Opcode::Bne | Opcode::Blt | Opcode::Bltu if step > 0 => (limit - cur).max(0) / step,
        Opcode::Bne | Opcode::Bge | Opcode::Bgeu if step < 0 => (cur - limit).max(0) / -step,
        _ => return None,
    };
    Some(remaining as u64)
}

/// Runs the full C1–C3 check on a candidate loop region.
///
/// `program` is the full program image (trace-cache backing), `start_pc`
/// and `end_pc` delimit the loop (from the LSD), `state` is the CPU's
/// architectural state at a loop-entry boundary, and `observed_iterations`
/// is how many iterations the LSD has already counted.
///
/// # Errors
/// Returns the first failing condition.
pub fn check_region(
    program: &Program,
    start_pc: u64,
    end_pc: u64,
    state: &ArchState,
    observed_iterations: u64,
    accel: &AccelConfig,
    cfg: &DetectConfig,
) -> Result<DetectedRegion, RejectReason> {
    // C1: structural size bound. An inverted region (end before start —
    // only reachable from corrupted detector state) is rejected like an
    // oversized one rather than wrapping to a huge length.
    let span = end_pc.checked_sub(start_pc).unwrap_or(u64::MAX);
    let len = usize::try_from(span / 4).unwrap_or(usize::MAX);
    if len > accel.max_instrs() {
        return Err(RejectReason::TooLarge { len, max: accel.max_instrs() });
    }

    // Slice the region out of the program image.
    let mut instrs = Vec::with_capacity(len);
    for i in 0..len {
        let pc = start_pc + 4 * i as u64;
        match program.fetch(pc) {
            Some(instr) => instrs.push(*instr),
            None => {
                return Err(RejectReason::UnsupportedInstruction {
                    pc,
                    reason: "instruction outside program image",
                })
            }
        }
    }
    let region = Program { base_pc: start_pc, instrs, annotations: program.annotations.clone() };

    // C2: per-instruction support.
    for (i, instr) in region.instrs.iter().enumerate() {
        if let Err(reason) = instruction_supported(instr.op, cfg.accel_xlen) {
            return Err(RejectReason::UnsupportedInstruction {
                pc: start_pc + 4 * i as u64,
                reason,
            });
        }
    }

    // C2: structure (inner loops, escaping branches) via the LDFG builder.
    let ldfg = Ldfg::build(&region).map_err(RejectReason::Structure)?;

    // C3: instruction mix.
    let (compute, memory, control) = ldfg.instruction_mix();
    let total = (compute + memory + control).max(1);
    let compute_fraction = compute as f64 / total as f64;
    if compute_fraction < cfg.min_compute_fraction {
        return Err(RejectReason::PoorMix { compute_fraction });
    }

    // C3: expected iterations. Prefer the analytic estimate; fall back to
    // extrapolating from what the LSD observed.
    let expected = estimate_trip_count(&ldfg, state)
        .unwrap_or(observed_iterations.saturating_mul(4));
    if expected < cfg.min_expected_iterations {
        return Err(RejectReason::TooFewIterations { expected });
    }

    Ok(DetectedRegion { region, ldfg, expected_iterations: expected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::Asm;
    use mesa_isa::reg::abi::*;

    fn sum_program() -> Program {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.add(T1, T1, T0);
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        a.finish().unwrap()
    }

    fn entry_state(n_iters: u64) -> ArchState {
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, 0x10000);
        st.write(A1, 0x10000 + 4 * n_iters);
        st
    }

    #[test]
    fn accepts_good_loop() {
        let p = sum_program();
        let st = entry_state(1000);
        let d = check_region(
            &p,
            0x1000,
            0x1010,
            &st,
            4,
            &AccelConfig::m128(),
            &DetectConfig::default(),
        )
        .unwrap();
        assert_eq!(d.ldfg.len(), 4);
        assert_eq!(d.expected_iterations, 1000);
    }

    #[test]
    fn inverted_region_rejects_as_too_large_instead_of_wrapping() {
        // `end_pc < start_pc` is only reachable from corrupted detector
        // state; the span must saturate and reject as C1 rather than
        // wrapping the subtraction into a near-2^64 region length.
        let p = sum_program();
        let st = entry_state(8);
        let err = check_region(
            &p,
            0x1010,
            0x1000,
            &st,
            4,
            &AccelConfig::m128(),
            &DetectConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RejectReason::TooLarge { .. }));
    }

    #[test]
    fn c1_rejects_oversized_region() {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        for _ in 0..200 {
            a.addi(T0, T0, 1);
        }
        a.bne(T0, A1, "loop");
        let p = a.finish().unwrap();
        let st = ArchState::new(0x1000, Xlen::Rv32);
        let err = check_region(
            &p,
            0x1000,
            p.end_pc(),
            &st,
            4,
            &AccelConfig::m64(), // only 64 PEs
            &DetectConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RejectReason::TooLarge { len: 201, max: 64 }));
    }

    #[test]
    fn c2_rejects_syscall() {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.addi(T0, T0, 1);
        a.ecall();
        a.addi(T1, T1, 1);
        a.addi(T2, T2, 1);
        a.bne(T0, A1, "loop");
        let p = a.finish().unwrap();
        let st = ArchState::new(0x1000, Xlen::Rv32);
        let err = check_region(
            &p, 0x1000, p.end_pc(), &st, 4,
            &AccelConfig::m128(), &DetectConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RejectReason::UnsupportedInstruction { pc: 0x1004, .. }
        ));
    }

    #[test]
    fn c2_rejects_rv64_ops_on_32bit_accel() {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.addw(T0, T0, T1);
        a.addi(T2, T2, 1);
        a.addi(T3, T3, 1);
        a.bne(T0, A1, "loop");
        let p = a.finish().unwrap();
        let st = ArchState::new(0x1000, Xlen::Rv64);
        let err = check_region(
            &p, 0x1000, p.end_pc(), &st, 4,
            &AccelConfig::m128(), &DetectConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RejectReason::UnsupportedInstruction { .. }));

        // But acceptable on a 64-bit backend (given enough iterations).
        let cfg64 = DetectConfig { accel_xlen: Xlen::Rv64, ..Default::default() };
        let mut st = ArchState::new(0x1000, Xlen::Rv64);
        st.write(A1, 10_000);
        let r = check_region(&p, 0x1000, p.end_pc(), &st, 100, &AccelConfig::m128(), &cfg64);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn c2_rejects_inner_loop() {
        let mut a = Asm::new(0x1000);
        a.label("outer");
        a.addi(T0, T0, 1);
        a.label("inner");
        a.addi(T1, T1, 1);
        a.bne(T1, A0, "inner");
        a.bne(T0, A1, "outer");
        let p = a.finish().unwrap();
        let st = ArchState::new(0x1000, Xlen::Rv32);
        let err = check_region(
            &p, 0x1000, p.end_pc(), &st, 4,
            &AccelConfig::m128(), &DetectConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RejectReason::Structure(BuildError::InnerLoop { .. })));
    }

    #[test]
    fn c3_rejects_control_heavy_mix() {
        // A loop that is almost all forward branches (control).
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.beq(T0, T1, "l1");
        a.label("l1");
        a.beq(T0, T2, "l2");
        a.label("l2");
        a.beq(T0, T3, "l3");
        a.label("l3");
        a.addi(T0, T0, 1);
        a.bne(T0, A1, "loop");
        let p = a.finish().unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A1, 10_000);
        let cfg = DetectConfig { min_compute_fraction: 0.5, ..Default::default() };
        let err = check_region(&p, 0x1000, p.end_pc(), &st, 100, &AccelConfig::m128(), &cfg)
            .unwrap_err();
        assert!(matches!(err, RejectReason::PoorMix { .. }));
    }

    #[test]
    fn c3_rejects_short_trip_count() {
        let p = sum_program();
        let st = entry_state(10); // only 10 iterations remain
        let err = check_region(
            &p, 0x1000, 0x1010, &st, 4,
            &AccelConfig::m128(), &DetectConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, RejectReason::TooFewIterations { expected: 10 });
    }

    #[test]
    fn trip_count_estimation_bne_upcount() {
        let p = sum_program();
        let ldfg = Ldfg::build(&Program {
            base_pc: 0x1000,
            instrs: p.instrs.clone(),
            annotations: vec![],
        })
        .unwrap();
        let st = entry_state(250);
        assert_eq!(estimate_trip_count(&ldfg, &st), Some(250));
    }

    #[test]
    fn trip_count_estimation_downcount() {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.add(T1, T1, T0);
        a.addi(T0, T0, -1);
        a.bne(T0, A1, "loop"); // counts down to a1
        let p = a.finish().unwrap();
        let ldfg = Ldfg::build(&p).unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(T0, 100);
        st.write(A1, 0);
        assert_eq!(estimate_trip_count(&ldfg, &st), Some(100));
    }

    #[test]
    fn trip_count_unknown_for_data_dependent_exit() {
        // Exit depends on loaded data: not estimable.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.addi(A0, A0, 4);
        a.bne(T0, ZERO, "loop");
        let p = a.finish().unwrap();
        let ldfg = Ldfg::build(&p).unwrap();
        let st = ArchState::new(0x1000, Xlen::Rv32);
        assert_eq!(estimate_trip_count(&ldfg, &st), None);
    }
}
