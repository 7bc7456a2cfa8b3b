//! Functional (untimed) semantics for the supported RISC-V subset.
//!
//! Both the CPU timing model and the spatial accelerator need *correct
//! values* in addition to timing: MESA's store→load forwarding,
//! invalidation-on-disambiguation, and predicated forward branches (paper
//! §4.2, §5.2) are all value-dependent. This module is the single source of
//! truth for what each instruction computes, so the accelerator's result can
//! be checked against the CPU's instruction-by-instruction: [`op_value`]
//! is the one copy of every operation's value and branch direction, and
//! [`extend_load`] the one copy of load extension. The general interpreter
//! [`step`], the CPU's predecoded fast paths ([`step_flat`] on a
//! [`FlatOp`], [`step_fused`] on a [`FusedOp`] pair) and the accelerator's
//! PEs all evaluate through them.

use crate::{Instruction, OpClass, Opcode, Reg};

/// Register width of the modelled hart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Xlen {
    /// RV32 (the paper's main evaluation target, RV32IMF).
    #[default]
    Rv32,
    /// RV64 (RV64I support, as in the paper's hardware).
    Rv64,
}

impl Xlen {
    /// The unsigned view of a canonical register value (RV32 compares and
    /// divides the low 32 bits).
    #[inline]
    fn unsigned(self, v: u64) -> u64 {
        match self {
            Xlen::Rv32 => u64::from(v as u32),
            Xlen::Rv64 => v,
        }
    }

    #[inline]
    fn shamt_mask(self) -> u32 {
        match self {
            Xlen::Rv32 => 31,
            Xlen::Rv64 => 63,
        }
    }
}

/// Memory seen by the functional semantics.
///
/// Implemented by `mesa-mem`'s sparse memory; the trait lives here so `isa`
/// stays dependency-free. Functions take `&mut self` because real
/// implementations update replacement state on reads.
pub trait MemoryIo {
    /// Reads `width` bytes (1, 2, 4, or 8) little-endian at `addr`,
    /// zero-extended into the return value.
    fn load(&mut self, addr: u64, width: u8) -> u64;
    /// Writes the low `width` bytes of `value` little-endian at `addr`.
    fn store(&mut self, addr: u64, width: u8, value: u64);
}

/// Architectural state of one hart.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    /// Integer register file (`x0` is forced to zero on read).
    pub x: [u64; 32],
    /// FP register file as raw IEEE-754 single bits.
    pub f: [u32; 32],
    /// Register width.
    pub xlen: Xlen,
}

impl ArchState {
    /// Fresh state with all registers zero and `pc` at `entry`.
    #[must_use]
    pub fn new(entry: u64, xlen: Xlen) -> Self {
        ArchState { pc: entry, x: [0; 32], f: [0; 32], xlen }
    }

    /// Reads an architectural register (either file), as raw bits.
    #[must_use]
    pub fn read(&self, r: Reg) -> u64 {
        match r {
            Reg::X(0) => 0,
            Reg::X(n) => self.x[n as usize],
            Reg::F(n) => u64::from(self.f[n as usize]),
        }
    }

    /// Writes an architectural register (either file).
    ///
    /// Integer writes are canonicalized to the register width (RV32 values
    /// are stored sign-extended to 64 bits, matching hardware sign
    /// extension); writes to `x0` are discarded.
    pub fn write(&mut self, r: Reg, value: u64) {
        match r {
            Reg::X(0) => {}
            Reg::X(n) => {
                self.x[n as usize] = match self.xlen {
                    Xlen::Rv32 => (value as u32) as i32 as i64 as u64,
                    Xlen::Rv64 => value,
                }
            }
            Reg::F(n) => self.f[n as usize] = value as u32,
        }
    }

    /// Reads an FP register as an `f32`.
    #[must_use]
    #[cfg(test)]
    fn read_f32(&self, n: u8) -> f32 {
        f32::from_bits(self.f[n as usize])
    }
}

/// A memory access performed by one step, reported for the timing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// `true` for stores.
    pub is_store: bool,
}

/// Control-flow outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to `pc + 4`.
    Next,
    /// Conditional branch; `taken` tells whether `target` was followed.
    Branch {
        /// Whether the branch condition held.
        taken: bool,
        /// Branch target (valid when `taken`).
        target: u64,
    },
    /// Unconditional jump to `target`.
    Jump {
        /// Jump target.
        target: u64,
    },
    /// `ecall` with `a7 == 93` (exit) or `ebreak`: the program is done.
    Halt,
    /// Any other `ecall`: an environment call the simulators treat as a
    /// slow, unaccelerable system operation.
    Syscall,
}

/// Everything the timing models need to know about one executed step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// Control-flow outcome; `state.pc` has already been advanced.
    pub outcome: Outcome,
    /// The memory access performed, if any.
    pub mem: Option<MemAccess>,
}

/// Executes one instruction, updating `state` (including `pc`).
///
/// The FP environment is simplified: round-to-nearest only, no exception
/// flags, and `fcvt.w.s` truncates toward zero — sufficient for the Rodinia
/// kernel semantics the evaluation uses. What each operation computes is
/// [`op_value`]; this function reads the sources, performs the memory and
/// system effects, writes `rd` and advances the PC.
pub fn step<M: MemoryIo>(state: &mut ArchState, instr: &Instruction, mem: &mut M) -> StepInfo {
    use Opcode::*;
    let pc = state.pc;
    let imm = instr.imm;
    let rs1v = instr.rs1.map_or(0, |r| state.read(r));
    let rs2v = instr.rs2.map_or(0, |r| state.read(r));
    let rs3v = instr.rs3.map_or(0, |r| state.read(r));
    let xlen = state.xlen;
    let value = || op_value(instr.op, rs1v, rs2v, rs3v, imm, pc, xlen);

    let mut outcome = Outcome::Next;
    let mut mem_access = None;
    let rd_value = match instr.op {
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            outcome = Outcome::Branch { taken: value() != 0, target: pc.wrapping_add(imm as u64) };
            None
        }
        Jal => {
            outcome = Outcome::Jump { target: pc.wrapping_add(imm as u64) };
            Some(value())
        }
        Jalr => {
            outcome = Outcome::Jump { target: rs1v.wrapping_add(imm as u64) & !1 };
            Some(value())
        }
        Lb | Lh | Lw | Lbu | Lhu | Lwu | Ld | Flw => {
            let addr = rs1v.wrapping_add(imm as u64);
            let width = instr.op.mem_width().expect("load width");
            let raw = mem.load(addr, width);
            mem_access = Some(MemAccess { addr, width, is_store: false });
            Some(extend_load(raw, width, instr.op.load_sign_extends()))
        }
        Sb | Sh | Sw | Sd | Fsw => {
            let addr = rs1v.wrapping_add(imm as u64);
            let width = instr.op.mem_width().expect("store width");
            mem.store(addr, width, rs2v);
            mem_access = Some(MemAccess { addr, width, is_store: true });
            None
        }
        Fence => None,
        Ecall => {
            outcome = if state.read(Reg::X(17)) == 93 {
                Outcome::Halt
            } else {
                Outcome::Syscall
            };
            None
        }
        Ebreak => {
            outcome = Outcome::Halt;
            None
        }
        _ => Some(value()),
    };
    if let (Some(rd), Some(v)) = (instr.rd, rd_value) {
        state.write(rd, v);
    }

    state.pc = match outcome {
        Outcome::Next | Outcome::Syscall => pc.wrapping_add(4),
        Outcome::Branch { taken: true, target } | Outcome::Jump { target } => target,
        Outcome::Branch { taken: false, .. } => pc.wrapping_add(4),
        Outcome::Halt => pc,
    };

    StepInfo { outcome, mem: mem_access }
}

/// The value a load of `width` bytes leaves in `rd` when memory returned
/// `raw` (zero-extended, as [`MemoryIo::load`] reads it): sign-extended
/// from `width` bytes when `sign_extends` ([`Opcode::load_sign_extends`]),
/// else `raw` unchanged.
#[inline]
#[must_use]
pub fn extend_load(raw: u64, width: u8, sign_extends: bool) -> u64 {
    if sign_extends {
        let shift = 64 - u32::from(width) * 8;
        ((raw << shift) as i64 >> shift) as u64
    } else {
        raw
    }
}

/// The value `op` computes from its source registers, the one copy of the
/// ISA's value semantics: what [`step`] writes to `rd`, and for a
/// conditional branch 1 when taken and 0 when not.
///
/// `rs1v`, `rs2v` and `rs3v` are the sources as [`ArchState::read`]
/// returns them (0 for an absent source); `pc` is the instruction's
/// address. The result is not yet canonicalized: [`ArchState::write`] does
/// that. Loads, stores and system operations compute no value from their
/// sources and return 0; their effects are memory and control, which
/// [`step`] performs itself. FP operations read only the low 32 bits of
/// their sources.
#[inline]
#[must_use]
pub fn op_value(op: Opcode, rs1v: u64, rs2v: u64, rs3v: u64, imm: i64, pc: u64, xlen: Xlen) -> u64 {
    use Opcode::*;
    let f1 = f32::from_bits(rs1v as u32);
    let f2 = f32::from_bits(rs2v as u32);
    let f3 = f32::from_bits(rs3v as u32);
    let wf = |v: f32| u64::from(v.to_bits());
    let unsigned = |v: u64| xlen.unsigned(v);
    match op {
        Mul => rs1v.wrapping_mul(rs2v),
        Mulh => ((i128::from(rs1v as i64) * i128::from(rs2v as i64)) >> 64) as u64,
        Mulhsu => (i128::from(rs1v as i64).wrapping_mul(i128::from(rs2v)) >> 64) as u64,
        Mulhu => ((u128::from(rs1v) * u128::from(rs2v)) >> 64) as u64,
        Div => {
            let (a, b) = (rs1v as i64, rs2v as i64);
            (if b == 0 { -1 } else { a.wrapping_div(b) }) as u64
        }
        Divu => unsigned(rs1v).checked_div(unsigned(rs2v)).unwrap_or(u64::MAX),
        Rem => {
            let (a, b) = (rs1v as i64, rs2v as i64);
            (if b == 0 { a } else { a.wrapping_rem(b) }) as u64
        }
        Remu => {
            let (a, b) = (unsigned(rs1v), unsigned(rs2v));
            if b == 0 { a } else { a % b }
        }
        FaddS => wf(f1 + f2),
        FsubS => wf(f1 - f2),
        FmulS => wf(f1 * f2),
        FdivS => wf(f1 / f2),
        FsqrtS => wf(f1.sqrt()),
        FminS => wf(f1.min(f2)),
        FmaxS => wf(f1.max(f2)),
        FmaddS => wf(f1.mul_add(f2, f3)),
        FmsubS => wf(f1.mul_add(f2, -f3)),
        FnmaddS => wf((-f1).mul_add(f2, -f3)),
        FnmsubS => wf((-f1).mul_add(f2, f3)),
        FcvtWS => (f1 as i32) as u64,
        FcvtWuS => u64::from(f1 as u32),
        FcvtSW => wf(rs1v as i32 as f32),
        FcvtSWu => wf(rs1v as u32 as f32),
        FmvXW => (rs1v as u32) as i32 as i64 as u64,
        FmvWX => u64::from(rs1v as u32),
        FeqS => u64::from(f1 == f2),
        FltS => u64::from(f1 < f2),
        FleS => u64::from(f1 <= f2),
        FsgnjS => u64::from((f2.to_bits() & 0x8000_0000) | (f1.to_bits() & 0x7FFF_FFFF)),
        FsgnjnS => u64::from((!f2.to_bits() & 0x8000_0000) | (f1.to_bits() & 0x7FFF_FFFF)),
        FsgnjxS => u64::from(((f1.to_bits() ^ f2.to_bits()) & 0x8000_0000) | (f1.to_bits() & 0x7FFF_FFFF)),
        FclassS => u64::from(fclass(f1)),
        Addiw => (rs1v.wrapping_add(imm as u64) as i32) as i64 as u64,
        Slliw => ((rs1v as u32) << (imm as u32 & 31)) as i32 as i64 as u64,
        Srliw => ((rs1v as u32) >> (imm as u32 & 31)) as i32 as i64 as u64,
        Sraiw => ((rs1v as i32) >> (imm as u32 & 31)) as i64 as u64,
        Addw => (rs1v.wrapping_add(rs2v) as i32) as i64 as u64,
        Subw => (rs1v.wrapping_sub(rs2v) as i32) as i64 as u64,
        Sllw => ((rs1v as u32) << (rs2v as u32 & 31)) as i32 as i64 as u64,
        Srlw => ((rs1v as u32) >> (rs2v as u32 & 31)) as i32 as i64 as u64,
        Sraw => ((rs1v as i32) >> (rs2v as u32 & 31)) as i64 as u64,
        _ => base_value(op, rs1v, rs2v, imm, pc, xlen),
    }
}

/// The RV32I half of [`op_value`]: upper-immediate, jump-link, branch and
/// integer ALU operations (0 for loads, stores and system operations).
///
/// Always inlined, so the CPU's flat paths ([`step_flat`], [`step_fused`])
/// dispatch each op with one jump on its opcode; the general `op_value`
/// body is too large for the compiler to inline into their loops.
#[inline(always)]
fn base_value(op: Opcode, rs1v: u64, rs2v: u64, imm: i64, pc: u64, xlen: Xlen) -> u64 {
    use Opcode::*;
    let unsigned = |v: u64| xlen.unsigned(v);
    let shamt = |v: u64| v as u32 & xlen.shamt_mask();
    match op {
        Lui => imm as u64,
        Auipc => pc.wrapping_add(imm as u64),
        Jal | Jalr => pc.wrapping_add(4),
        Beq => u64::from(rs1v == rs2v),
        Bne => u64::from(rs1v != rs2v),
        Blt => u64::from((rs1v as i64) < rs2v as i64),
        Bge => u64::from(rs1v as i64 >= rs2v as i64),
        Bltu => u64::from(unsigned(rs1v) < unsigned(rs2v)),
        Bgeu => u64::from(unsigned(rs1v) >= unsigned(rs2v)),
        Addi => rs1v.wrapping_add(imm as u64),
        Slti => u64::from((rs1v as i64) < imm),
        Sltiu => u64::from(unsigned(rs1v) < unsigned(imm as u64)),
        Xori => rs1v ^ imm as u64,
        Ori => rs1v | imm as u64,
        Andi => rs1v & imm as u64,
        Slli => rs1v << shamt(imm as u64),
        Srli => unsigned(rs1v) >> shamt(imm as u64),
        Srai => ((rs1v as i64) >> shamt(imm as u64)) as u64,
        Add => rs1v.wrapping_add(rs2v),
        Sub => rs1v.wrapping_sub(rs2v),
        Sll => rs1v << shamt(rs2v),
        Slt => u64::from((rs1v as i64) < (rs2v as i64)),
        Sltu => u64::from(unsigned(rs1v) < unsigned(rs2v)),
        Xor => rs1v ^ rs2v,
        Srl => unsigned(rs1v) >> shamt(rs2v),
        Sra => ((rs1v as i64) >> shamt(rs2v)) as u64,
        Or => rs1v | rs2v,
        And => rs1v & rs2v,
        // Loads, stores and system operations; the M, F and RV64 arms are
        // `op_value`'s own.
        _ => 0,
    }
}

/// `fclass.s` result bit per the RISC-V spec.
fn fclass(v: f32) -> u32 {
    use std::num::FpCategory::*;
    let sign = v.is_sign_negative();
    match (v.classify(), sign) {
        (Infinite, true) => 1 << 0,
        (Normal, true) => 1 << 1,
        (Subnormal, true) => 1 << 2,
        (Zero, true) => 1 << 3,
        (Zero, false) => 1 << 4,
        (Subnormal, false) => 1 << 5,
        (Normal, false) => 1 << 6,
        (Infinite, false) => 1 << 7,
        (Nan, _) => {
            if v.to_bits() & 0x0040_0000 != 0 {
                1 << 9 // quiet NaN
            } else {
                1 << 8 // signaling NaN
            }
        }
    }
}

/// A predecoded RV32 micro-op: the instruction's [`Opcode`] with raw
/// x-register indices and its immediate.
///
/// Raw register-file indices replace the general [`Instruction`]'s
/// `Option<Reg>` operands, so [`step_flat`] runs one array index per source
/// and never reads the FP file — the PC-indexed decoded-cache pattern of
/// production RISC-V interpreters. Lowered once per static instruction by
/// [`FlatOp::lower`]. What the op computes is [`op_value`], as for [`step`],
/// so the two are bit-identical on the instruction it was lowered from
/// (property-tested here and differentially arbitrated in `mesa-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatOp {
    /// The operation.
    pub op: Opcode,
    /// Destination x-register index (`0` discards, like `x0`).
    pub rd: u8,
    /// First source x-register index (`0` when unused).
    pub rs1: u8,
    /// Second source x-register index (`0` when unused).
    pub rs2: u8,
    /// Immediate (branch/jump displacement for control ops).
    pub imm: i64,
}

impl FlatOp {
    /// Lowers an instruction into flattened form.
    ///
    /// Accepts the RV32 integer ALU, branch, load and store classes plus
    /// `jal`, on x registers only. Returns `None` for everything else (FP,
    /// mul/div, `jalr`, system ops, RV64-only ops, any RV64 state) — those
    /// fall back to the general [`step`] interpreter.
    #[must_use]
    pub fn lower(instr: &Instruction, xlen: Xlen) -> Option<FlatOp> {
        let op = instr.op;
        let flat_class =
            matches!(op.class(), OpClass::IntAlu | OpClass::Branch | OpClass::Load | OpClass::Store)
                || op == Opcode::Jal;
        if xlen != Xlen::Rv32 || !flat_class || op.is_rv64_only() || instr.rs3.is_some() {
            return None;
        }
        let x = |r: Option<Reg>| match r {
            None => Some(0u8),
            Some(Reg::X(n)) => Some(n),
            Some(Reg::F(_)) => None,
        };
        let (rd, rs1, rs2) = (x(instr.rd)?, x(instr.rs1)?, x(instr.rs2)?);
        Some(FlatOp { op, rd, rs1, rs2, imm: instr.imm })
    }

    /// [`op_value`] of this op at `pc` on RV32 sources. Every flat op is
    /// RV32I, so this is `op_value`'s always-inlined RV32I half.
    #[inline]
    fn value(&self, rs1v: u64, rs2v: u64, pc: u64) -> u64 {
        base_value(self.op, rs1v, rs2v, self.imm, pc, Xlen::Rv32)
    }

    /// Writes `value` to `rd`, canonicalized as [`ArchState::write`] does
    /// under RV32, keeping `x0` zero.
    #[inline]
    fn write_rd(&self, state: &mut ArchState, value: u64) {
        state.x[usize::from(self.rd)] = (value as u32) as i32 as i64 as u64;
        state.x[0] = 0;
    }

    /// Performs this load from base `rs1v`, writing `rd`.
    #[inline(always)]
    fn load<M: MemoryIo>(&self, state: &mut ArchState, rs1v: u64, mem: &mut M) -> MemAccess {
        let addr = rs1v.wrapping_add(self.imm as u64);
        let width = self.op.mem_width().unwrap_or(4);
        let raw = mem.load(addr, width);
        self.write_rd(state, extend_load(raw, width, self.op.load_sign_extends()));
        MemAccess { addr, width, is_store: false }
    }

    /// Performs this store of `rs2v` at base `rs1v`.
    #[inline(always)]
    fn store<M: MemoryIo>(&self, rs1v: u64, rs2v: u64, mem: &mut M) -> MemAccess {
        let addr = rs1v.wrapping_add(self.imm as u64);
        let width = self.op.mem_width().unwrap_or(4);
        mem.store(addr, width, rs2v);
        MemAccess { addr, width, is_store: true }
    }
}

/// Executes one flattened micro-op, updating `state` (including `pc`).
///
/// Bit-identical to [`step`] on the instruction the op was lowered from;
/// the only requirement is RV32 state (enforced by [`FlatOp::lower`]).
#[inline]
pub fn step_flat<M: MemoryIo>(state: &mut ArchState, op: &FlatOp, mem: &mut M) -> StepInfo {
    // Re-assert the x0 invariant so raw-index reads below stay correct even
    // if a caller poked the register file directly.
    state.x[0] = 0;
    let pc = state.pc;
    let next = pc.wrapping_add(4);
    let rs1v = state.x[usize::from(op.rs1)];
    let rs2v = state.x[usize::from(op.rs2)];
    let target = pc.wrapping_add(op.imm as u64);
    use Opcode::*;
    // Match the opcode itself, not its class, so the compiler folds
    // `base_value`'s match into this one: one jump per op.
    let mem_access = match op.op {
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let taken = op.value(rs1v, rs2v, pc) != 0;
            state.pc = if taken { target } else { next };
            return StepInfo { outcome: Outcome::Branch { taken, target }, mem: None };
        }
        Jal => {
            op.write_rd(state, op.value(rs1v, rs2v, pc));
            state.pc = target;
            return StepInfo { outcome: Outcome::Jump { target }, mem: None };
        }
        Lb | Lh | Lw | Lbu | Lhu => Some(op.load(state, rs1v, mem)),
        Sb | Sh | Sw => Some(op.store(rs1v, rs2v, mem)),
        _ => {
            op.write_rd(state, op.value(rs1v, rs2v, pc));
            None
        }
    };
    state.pc = next;
    StepInfo { outcome: Outcome::Next, mem: mem_access }
}

/// The idiom a fused superinstruction pair implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// Compare (or any address/flag computation) + conditional branch.
    CmpBranch,
    /// Address generation + load.
    AddrLoad,
    /// Address generation + store.
    AddrStore,
    /// ALU + ALU chain (e.g. `add`+`add`).
    AluAlu,
}

/// A fused superinstruction: two adjacent RV32 micro-ops executed by one
/// handler ([`step_fused`]).
///
/// The first constituent is always a pure fall-through integer ALU op
/// ([`OpClass::IntAlu`]), so the pair can never be split by control flow, a
/// trap, or a memory fault between its halves — architectural state after
/// [`step_fused`] is exactly the state after two [`step_flat`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedOp {
    /// Which idiom the pair matched (drives per-pair fusion-hit counters).
    pub kind: FusedKind,
    /// First constituent (pure integer ALU, falls through by construction).
    pub a: FlatOp,
    /// Second constituent.
    pub b: FlatOp,
}

impl FusedOp {
    /// Attempts to fuse `a` followed immediately by `b`.
    ///
    /// `a` must be a pure fall-through integer ALU op; `b`'s class picks
    /// the idiom: branch → [`FusedKind::CmpBranch`], load →
    /// [`FusedKind::AddrLoad`], store → [`FusedKind::AddrStore`], ALU →
    /// [`FusedKind::AluAlu`]. Anything else (e.g. `jal` second) declines.
    #[must_use]
    pub fn fuse(a: FlatOp, b: FlatOp) -> Option<FusedOp> {
        if a.op.class() != OpClass::IntAlu {
            return None;
        }
        let kind = match b.op.class() {
            OpClass::Branch => FusedKind::CmpBranch,
            OpClass::Load => FusedKind::AddrLoad,
            OpClass::Store => FusedKind::AddrStore,
            OpClass::IntAlu => FusedKind::AluAlu,
            _ => return None,
        };
        Some(FusedOp { kind, a, b })
    }
}

/// Executes one fused superinstruction pair, returning the per-constituent
/// step results (first, second) so timing models can account each half.
///
/// One specialized handler per idiom: the ALU constituent computes and
/// retires inline, then the second half runs without re-entering the
/// dispatcher — no intermediate control-transfer check is needed because the
/// first constituent falls through by construction.
#[inline]
pub fn step_fused<M: MemoryIo>(state: &mut ArchState, f: &FusedOp, mem: &mut M) -> (StepInfo, StepInfo) {
    state.x[0] = 0;
    let pc = state.pc;
    let a = &f.a;
    let va = a.value(state.x[usize::from(a.rs1)], state.x[usize::from(a.rs2)], pc);
    a.write_rd(state, va);
    let pc2 = pc.wrapping_add(4);
    let next = pc2.wrapping_add(4);
    let ia = StepInfo { outcome: Outcome::Next, mem: None };

    let b = &f.b;
    let rs1v = state.x[usize::from(b.rs1)];
    let rs2v = state.x[usize::from(b.rs2)];
    let mem_access = match f.kind {
        FusedKind::AluAlu => {
            b.write_rd(state, b.value(rs1v, rs2v, pc2));
            None
        }
        FusedKind::CmpBranch => {
            let taken = b.value(rs1v, rs2v, pc2) != 0;
            let target = pc2.wrapping_add(b.imm as u64);
            state.pc = if taken { target } else { next };
            return (ia, StepInfo { outcome: Outcome::Branch { taken, target }, mem: None });
        }
        FusedKind::AddrLoad => Some(b.load(state, rs1v, mem)),
        FusedKind::AddrStore => Some(b.store(rs1v, rs2v, mem)),
    };
    state.pc = next;
    (ia, StepInfo { outcome: Outcome::Next, mem: mem_access })
}

/// A trivially simple flat memory for tests and functional-only runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatMemory {
    bytes: std::collections::HashMap<u64, u8>,
}

impl FlatMemory {
    /// Creates an empty memory (all bytes read as zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a little-endian `u32` at `addr` (convenience for test setup).
    pub fn store_u32(&mut self, addr: u64, value: u32) {
        self.store(addr, 4, u64::from(value));
    }
}

impl MemoryIo for FlatMemory {
    fn load(&mut self, addr: u64, width: u8) -> u64 {
        let mut v = 0u64;
        for i in 0..width {
            let b = self.bytes.get(&addr.wrapping_add(u64::from(i))).copied().unwrap_or(0);
            v |= u64::from(b) << (8 * i);
        }
        v
    }

    fn store(&mut self, addr: u64, width: u8, value: u64) {
        for i in 0..width {
            self.bytes
                .insert(addr.wrapping_add(u64::from(i)), (value >> (8 * i)) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::abi::*;
    use mesa_test::prop::{any_u32, any_u64, sample, vec, Checker, Strategy, StrategyExt};
    use mesa_test::{forall, prop_assert, prop_assert_eq};

    fn run(instrs: &[Instruction]) -> (ArchState, FlatMemory) {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        for i in instrs {
            step(&mut st, i, &mut mem);
        }
        (st, mem)
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (st, _) = run(&[Instruction::reg_imm(Opcode::Addi, ZERO, ZERO, 42)]);
        assert_eq!(st.read(ZERO), 0);
    }

    #[test]
    fn add_sub_wrap_at_32_bits_in_rv32() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 0x7FFF_FFFF);
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Add, A2, A0, A1), &mut mem);
        // 0x80000000 sign-extended.
        assert_eq!(st.read(A2), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn rv64_add_keeps_64_bits() {
        let mut st = ArchState::new(0, Xlen::Rv64);
        let mut mem = FlatMemory::new();
        st.write(A0, 0x7FFF_FFFF);
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Add, A2, A0, A1), &mut mem);
        assert_eq!(st.read(A2), 0x8000_0000);
    }

    #[test]
    fn load_store_roundtrip_with_sign_extension() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 0x100);
        st.write(A1, 0xFFu64);
        step(&mut st, &Instruction::store(Opcode::Sb, A1, A0, 0), &mut mem);
        step(&mut st, &Instruction::load(Opcode::Lb, A2, A0, 0), &mut mem);
        assert_eq!(st.read(A2) as i64, -1);
        step(&mut st, &Instruction::load(Opcode::Lbu, A3, A0, 0), &mut mem);
        assert_eq!(st.read(A3), 0xFF);
    }

    #[test]
    fn branch_outcomes() {
        let mut st = ArchState::new(0x100, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 5);
        st.write(A1, 5);
        let info = step(&mut st, &Instruction::branch(Opcode::Beq, A0, A1, -0x20), &mut mem);
        assert_eq!(info.outcome, Outcome::Branch { taken: true, target: 0xE0 });
        assert_eq!(st.pc, 0xE0);
        let info = step(&mut st, &Instruction::branch(Opcode::Bne, A0, A1, -0x20), &mut mem);
        assert!(matches!(info.outcome, Outcome::Branch { taken: false, .. }));
        assert_eq!(st.pc, 0xE4);
    }

    #[test]
    fn signed_vs_unsigned_compares_in_rv32() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, u64::MAX); // -1 in RV32 canonical form
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Slt, A2, A0, A1), &mut mem);
        assert_eq!(st.read(A2), 1, "-1 < 1 signed");
        step(&mut st, &Instruction::reg3(Opcode::Sltu, A3, A0, A1), &mut mem);
        assert_eq!(st.read(A3), 0, "0xFFFFFFFF > 1 unsigned");
    }

    #[test]
    fn division_by_zero_follows_spec() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A0, 7);
        step(&mut st, &Instruction::reg3(Opcode::Div, A2, A0, ZERO), &mut mem);
        assert_eq!(st.read(A2) as i64, -1);
        step(&mut st, &Instruction::reg3(Opcode::Rem, A3, A0, ZERO), &mut mem);
        assert_eq!(st.read(A3), 7);
    }

    #[test]
    fn fp_arithmetic() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(FA0, u64::from(2.5f32.to_bits()));
        st.write(FA1, u64::from(4.0f32.to_bits()));
        step(&mut st, &Instruction::reg3(Opcode::FmulS, FA2, FA0, FA1), &mut mem);
        assert_eq!(st.read_f32(12), 10.0);
        step(&mut st, &Instruction::reg3(Opcode::FsubS, FA3, FA2, FA1), &mut mem);
        assert_eq!(st.read_f32(13), 6.0);
    }

    #[test]
    fn fsqrt_and_cvt() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(FA0, u64::from(9.0f32.to_bits()));
        let sqrt = Instruction {
            op: Opcode::FsqrtS,
            rd: Some(FA1),
            rs1: Some(FA0),
            rs2: None,
            rs3: None,
            imm: 0,
        };
        step(&mut st, &sqrt, &mut mem);
        assert_eq!(st.read_f32(11), 3.0);
        let cvt = Instruction {
            op: Opcode::FcvtWS,
            rd: Some(A0),
            rs1: Some(FA1),
            rs2: None,
            rs3: None,
            imm: 0,
        };
        step(&mut st, &cvt, &mut mem);
        assert_eq!(st.read(A0), 3);
    }

    #[test]
    fn ecall_exit_halts() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A7, 93);
        let info = step(&mut st, &Instruction::system(Opcode::Ecall), &mut mem);
        assert_eq!(info.outcome, Outcome::Halt);
    }

    #[test]
    fn ecall_other_is_syscall() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(A7, 64);
        let info = step(&mut st, &Instruction::system(Opcode::Ecall), &mut mem);
        assert_eq!(info.outcome, Outcome::Syscall);
    }

    #[test]
    fn fma_computes_fused() {
        let mut st = ArchState::new(0, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        st.write(FA0, u64::from(2.0f32.to_bits()));
        st.write(FA1, u64::from(3.0f32.to_bits()));
        st.write(FA2, u64::from(4.0f32.to_bits()));
        step(
            &mut st,
            &Instruction::reg4(Opcode::FmaddS, FA3, FA0, FA1, FA2),
            &mut mem,
        );
        assert_eq!(st.read_f32(13), 10.0);
    }

    #[test]
    fn rv64w_ops_truncate() {
        let mut st = ArchState::new(0, Xlen::Rv64);
        let mut mem = FlatMemory::new();
        st.write(A0, 0xFFFF_FFFF);
        st.write(A1, 1);
        step(&mut st, &Instruction::reg3(Opcode::Addw, A2, A0, A1), &mut mem);
        assert_eq!(st.read(A2), 0);
    }

    /// The opcodes [`FlatOp::lower`] accepts, pinned: the RV32I integer
    /// ALU, branch, load and store classes plus `jal`.
    const FLAT_OPCODES: [Opcode; 36] = {
        use Opcode::*;
        [
            Lui, Auipc, Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Add, Sub, Sll, Slt,
            Sltu, Xor, Srl, Sra, Or, And, Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Lb, Lh, Lw, Lbu, Lhu,
            Sb, Sh, Sw,
        ]
    };

    /// Random machine words that decode often: a real major opcode (the
    /// integer ones drawn more often), a funct7 that is either a real one
    /// or sets the immediate's sign, and random register, funct3 and
    /// immediate bits.
    fn words() -> impl Strategy<Value = u32> {
        const MAJORS: &[u32] = &[
            0x37, 0x17, 0x6F, 0x67, 0x63, 0x63, 0x03, 0x03, 0x23, 0x23, 0x13, 0x13, 0x13, 0x33,
            0x33, 0x33, 0x33, 0x1B, 0x3B, 0x0F, 0x73, 0x07, 0x27, 0x53, 0x43, 0x47, 0x4B, 0x4F,
        ];
        const FUNCT7S: &[u32] = &[0x00, 0x01, 0x20, 0x40, 0x55, 0x7F];
        (sample(MAJORS), sample(FUNCT7S), any_u32())
            .prop_map(|(major, funct7, bits)| major | (bits & 0x01FF_FF80) | (funct7 << 25))
    }

    /// RV32 state with every x register random and `x[rs1] + imm` backed by
    /// a random doubleword, so loads see sign bits and stores overwrite.
    fn seeded(instr: &Instruction, regs: &[u64], word: u64) -> (ArchState, FlatMemory) {
        let mut st = ArchState::new(0x8000_1000, Xlen::Rv32);
        for (n, &v) in (1..32u8).zip(regs) {
            st.write(Reg::X(n), v);
        }
        let mut mem = FlatMemory::new();
        let base = instr.rs1.map_or(0, |r| st.read(r));
        mem.store(base.wrapping_add(instr.imm as u64), 8, word);
        (st, mem)
    }

    #[test]
    fn flat_paths_match_step_on_random_words() {
        let mut seen = std::collections::HashSet::new();
        let mut idioms = [false; 4];
        let report = forall!(
            Checker::new("exec::flat_paths_match_step_on_random_words").cases(4000),
            |(w1 in words(), w2 in words(), regs in vec(any_u64(), 31..32), word in any_u64())| {
                let Ok(x) = crate::codec::decode(w1) else { return Ok(()) };
                let flat = FlatOp::lower(&x, Xlen::Rv32);
                prop_assert_eq!(flat.is_some(), FLAT_OPCODES.contains(&x.op), "lower({x:?})");
                let fp = [x.rd, x.rs1, x.rs2, x.rs3].into_iter().flatten().any(Reg::is_fp);
                prop_assert!(!(fp && flat.is_some()), "lowered an F-register operand: {x:?}");
                prop_assert!(FlatOp::lower(&x, Xlen::Rv64).is_none(), "lowered RV64 state: {x:?}");
                let Some(fa) = flat else { return Ok(()) };
                seen.insert(x.op);

                let (mut a, mut mem_a) = seeded(&x, &regs, word);
                let (mut b, mut mem_b) = (a.clone(), mem_a.clone());
                let ia = step(&mut a, &x, &mut mem_a);
                let ib = step_flat(&mut b, &fa, &mut mem_b);
                prop_assert_eq!(ia, ib, "StepInfo of {x:?}");
                prop_assert_eq!(&a, &b, "ArchState after {x:?}");
                prop_assert!(mem_a == mem_b, "memory after {x:?}");

                let Ok(y) = crate::codec::decode(w2) else { return Ok(()) };
                let Some(fused) = FlatOp::lower(&y, Xlen::Rv32).and_then(|fb| FusedOp::fuse(fa, fb))
                else {
                    return Ok(());
                };
                idioms[fused.kind as usize] = true;
                let (mut a, mut mem_a) = seeded(&x, &regs, word);
                let (mut b, mut mem_b) = (a.clone(), mem_a.clone());
                let i1 = step_flat(&mut a, &fused.a, &mut mem_a);
                let i2 = step_flat(&mut a, &fused.b, &mut mem_a);
                let (j1, j2) = step_fused(&mut b, &fused, &mut mem_b);
                prop_assert_eq!((i1, i2), (j1, j2), "StepInfos of {x:?}; {y:?}");
                prop_assert_eq!(&a, &b, "ArchState after {x:?}; {y:?}");
                prop_assert!(mem_a == mem_b, "memory after {x:?}; {y:?}");
            }
        );
        if report.cases_run > 0 {
            let missed: Vec<_> = FLAT_OPCODES.iter().filter(|op| !seen.contains(*op)).collect();
            assert!(missed.is_empty(), "no random word lowered to {missed:?}");
            assert_eq!(idioms, [true; 4], "a fused idiom went untested");
        }
    }

    #[test]
    fn fuse_requires_pure_alu_first() {
        let ld = FlatOp::lower(&Instruction::load(Opcode::Lw, A0, A1, 0), Xlen::Rv32).unwrap();
        let add = FlatOp::lower(&Instruction::reg3(Opcode::Add, A2, A0, A1), Xlen::Rv32).unwrap();
        let br = FlatOp::lower(&Instruction::branch(Opcode::Beq, A0, A1, 8), Xlen::Rv32).unwrap();
        let jal = FlatOp::lower(&Instruction::jal(RA, 0x40), Xlen::Rv32).unwrap();
        assert!(FusedOp::fuse(ld, add).is_none(), "load may not lead a pair");
        assert!(FusedOp::fuse(br, add).is_none(), "branch may not lead a pair");
        assert!(FusedOp::fuse(add, jal).is_none(), "jal may not trail a pair");
        assert_eq!(FusedOp::fuse(add, br).map(|f| f.kind), Some(FusedKind::CmpBranch));
        assert_eq!(FusedOp::fuse(add, ld).map(|f| f.kind), Some(FusedKind::AddrLoad));
    }

    #[test]
    fn jal_links_and_jumps() {
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        let mut mem = FlatMemory::new();
        let info = step(&mut st, &Instruction::jal(RA, 0x40), &mut mem);
        assert_eq!(info.outcome, Outcome::Jump { target: 0x1040 });
        assert_eq!(st.read(RA), 0x1004);
        assert_eq!(st.pc, 0x1040);
    }
}
