//! Functional (untimed) semantics for the supported RISC-V subset.
//!
//! Both the CPU timing model and the spatial accelerator need *correct
//! values* in addition to timing: MESA's store→load forwarding,
//! invalidation-on-disambiguation, and predicated forward branches (paper
//! §4.2, §5.2) are all value-dependent. This module is the single source of
//! truth for what each instruction computes, so the accelerator's result can
//! be checked against the CPU's instruction-by-instruction.

use crate::{Instruction, Opcode, Reg};

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
            Some(if instr.op.load_sign_extends() {
                let bits = u32::from(width) * 8;
                ((raw << (64 - bits)) as i64 >> (64 - bits)) as u64
            } else {
                raw
            })
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
        Lb | Lh | Lw | Lbu | Lhu | Lwu | Ld | Flw | Sb | Sh | Sw | Sd | Fsw | Fence | Ecall
        | Ebreak => 0,
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

/// Operation selector of a [`FlatOp`].
///
/// One variant per hot RV32 opcode, dispatched by a single flat `match` in
/// [`step_flat`] — no nested decode, no `Option<Reg>` walks, no FP-file
/// reads on integer paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatKind {
    /// `rd = imm` (the decoder pre-shifts LUI's immediate).
    Lui,
    /// `rd = pc + imm`.
    Auipc,
    /// `rd = rs1 + imm`.
    Addi,
    /// `rd = (rs1 <s imm)`.
    Slti,
    /// `rd = (rs1 <u imm)`.
    Sltiu,
    /// `rd = rs1 ^ imm`.
    Xori,
    /// `rd = rs1 | imm`.
    Ori,
    /// `rd = rs1 & imm`.
    Andi,
    /// `rd = rs1 << shamt`.
    Slli,
    /// `rd = rs1 >>u shamt`.
    Srli,
    /// `rd = rs1 >>s shamt`.
    Srai,
    /// `rd = rs1 + rs2`.
    Add,
    /// `rd = rs1 - rs2`.
    Sub,
    /// `rd = rs1 << rs2`.
    Sll,
    /// `rd = (rs1 <s rs2)`.
    Slt,
    /// `rd = (rs1 <u rs2)`.
    Sltu,
    /// `rd = rs1 ^ rs2`.
    Xor,
    /// `rd = rs1 >>u rs2`.
    Srl,
    /// `rd = rs1 >>s rs2`.
    Sra,
    /// `rd = rs1 | rs2`.
    Or,
    /// `rd = rs1 & rs2`.
    And,
    /// Branch if `rs1 == rs2`.
    Beq,
    /// Branch if `rs1 != rs2`.
    Bne,
    /// Branch if `rs1 <s rs2`.
    Blt,
    /// Branch if `rs1 >=s rs2`.
    Bge,
    /// Branch if `rs1 <u rs2`.
    Bltu,
    /// Branch if `rs1 >=u rs2`.
    Bgeu,
    /// `rd = pc + 4; pc += imm`.
    Jal,
    /// Sign-extending byte load.
    Lb,
    /// Sign-extending half load.
    Lh,
    /// Word load.
    Lw,
    /// Zero-extending byte load.
    Lbu,
    /// Zero-extending half load.
    Lhu,
    /// Byte store.
    Sb,
    /// Half store.
    Sh,
    /// Word store.
    Sw,
}

impl FlatKind {
    /// `true` for pure fall-through integer ALU operations — the only legal
    /// first constituent of a fused pair (they can never redirect control
    /// flow, touch memory, or trap, so a pair is never split mid-execution).
    #[must_use]
    pub fn is_int_alu(self) -> bool {
        use FlatKind::*;
        matches!(
            self,
            Lui | Auipc
                | Addi
                | Slti
                | Sltiu
                | Xori
                | Ori
                | Andi
                | Slli
                | Srli
                | Srai
                | Add
                | Sub
                | Sll
                | Slt
                | Sltu
                | Xor
                | Srl
                | Sra
                | Or
                | And
        )
    }
}

/// A predecoded, flattened RV32 micro-op.
///
/// Raw register-file indices and a pre-extracted immediate replace the
/// general [`Instruction`]'s `Option<Reg>` operands, so [`step_flat`] runs
/// one array index per source and a single flat `match` — the
/// interpreter-class dispatch pattern (PC-indexed decoded caches, flattened
/// handlers) from production RISC-V interpreters. Lowered once per static
/// instruction by [`FlatOp::lower`]; semantics are bit-identical to [`step`]
/// on the instruction it was lowered from (property-tested in `mesa-isa` and
/// differentially arbitrated in `mesa-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatOp {
    /// Operation selector.
    pub kind: FlatKind,
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
    /// Returns `None` for anything outside the RV32 integer hot subset
    /// (FP, mul/div, `jalr`, system ops, RV64) — those fall back to the
    /// general [`step`] interpreter.
    #[must_use]
    pub fn lower(instr: &Instruction, xlen: Xlen) -> Option<FlatOp> {
        if xlen != Xlen::Rv32 {
            return None;
        }
        let kind = match instr.op {
            Opcode::Lui => FlatKind::Lui,
            Opcode::Auipc => FlatKind::Auipc,
            Opcode::Addi => FlatKind::Addi,
            Opcode::Slti => FlatKind::Slti,
            Opcode::Sltiu => FlatKind::Sltiu,
            Opcode::Xori => FlatKind::Xori,
            Opcode::Ori => FlatKind::Ori,
            Opcode::Andi => FlatKind::Andi,
            Opcode::Slli => FlatKind::Slli,
            Opcode::Srli => FlatKind::Srli,
            Opcode::Srai => FlatKind::Srai,
            Opcode::Add => FlatKind::Add,
            Opcode::Sub => FlatKind::Sub,
            Opcode::Sll => FlatKind::Sll,
            Opcode::Slt => FlatKind::Slt,
            Opcode::Sltu => FlatKind::Sltu,
            Opcode::Xor => FlatKind::Xor,
            Opcode::Srl => FlatKind::Srl,
            Opcode::Sra => FlatKind::Sra,
            Opcode::Or => FlatKind::Or,
            Opcode::And => FlatKind::And,
            Opcode::Beq => FlatKind::Beq,
            Opcode::Bne => FlatKind::Bne,
            Opcode::Blt => FlatKind::Blt,
            Opcode::Bge => FlatKind::Bge,
            Opcode::Bltu => FlatKind::Bltu,
            Opcode::Bgeu => FlatKind::Bgeu,
            Opcode::Jal => FlatKind::Jal,
            Opcode::Lb => FlatKind::Lb,
            Opcode::Lh => FlatKind::Lh,
            Opcode::Lw => FlatKind::Lw,
            Opcode::Lbu => FlatKind::Lbu,
            Opcode::Lhu => FlatKind::Lhu,
            Opcode::Sb => FlatKind::Sb,
            Opcode::Sh => FlatKind::Sh,
            Opcode::Sw => FlatKind::Sw,
            _ => return None,
        };
        let x = |r: Option<Reg>| match r {
            None => Some(0u8),
            Some(Reg::X(n)) => Some(n),
            Some(Reg::F(_)) => None,
        };
        if instr.rs3.is_some() {
            return None;
        }
        Some(FlatOp {
            kind,
            rd: x(instr.rd)?,
            rs1: x(instr.rs1)?,
            rs2: x(instr.rs2)?,
            imm: instr.imm,
        })
    }
}

/// Canonical RV32 register write form (sign-extended to 64 bits), matching
/// [`ArchState::write`].
#[inline]
fn sext32(v: u64) -> u64 {
    (v as u32) as i32 as i64 as u64
}

/// RV32 unsigned view of a canonical register value, matching
/// `ArchState::unsigned` under `Xlen::Rv32`.
#[inline]
fn u32v(v: u64) -> u64 {
    u64::from(v as u32)
}

/// Result value of a pure integer ALU [`FlatKind`]; pre-canonicalization.
/// Non-ALU kinds never reach here (callers dispatch them separately).
#[inline]
fn alu_value(kind: FlatKind, pc: u64, rs1v: u64, rs2v: u64, imm: i64) -> u64 {
    use FlatKind::*;
    match kind {
        Lui => imm as u64,
        Auipc => pc.wrapping_add(imm as u64),
        Addi => rs1v.wrapping_add(imm as u64),
        Slti => u64::from((rs1v as i64) < imm),
        Sltiu => u64::from(u32v(rs1v) < u32v(imm as u64)),
        Xori => rs1v ^ imm as u64,
        Ori => rs1v | imm as u64,
        Andi => rs1v & imm as u64,
        Slli => rs1v << (imm as u32 & 31),
        Srli => u32v(rs1v) >> (imm as u32 & 31),
        Srai => ((rs1v as i64) >> (imm as u32 & 31)) as u64,
        Add => rs1v.wrapping_add(rs2v),
        Sub => rs1v.wrapping_sub(rs2v),
        Sll => rs1v << (rs2v as u32 & 31),
        Slt => u64::from((rs1v as i64) < (rs2v as i64)),
        Sltu => u64::from(u32v(rs1v) < u32v(rs2v)),
        Xor => rs1v ^ rs2v,
        Srl => u32v(rs1v) >> (rs2v as u32 & 31),
        Sra => ((rs1v as i64) >> (rs2v as u32 & 31)) as u64,
        Or => rs1v | rs2v,
        And => rs1v & rs2v,
        // Callers guarantee a pure ALU kind; anything else reads as a no-op.
        _ => 0,
    }
}

/// Condition of a branch [`FlatKind`] on canonical RV32 register values.
#[inline]
fn branch_taken(kind: FlatKind, rs1v: u64, rs2v: u64) -> bool {
    use FlatKind::*;
    match kind {
        Beq => rs1v == rs2v,
        Bne => rs1v != rs2v,
        Blt => (rs1v as i64) < (rs2v as i64),
        Bge => (rs1v as i64) >= (rs2v as i64),
        Bltu => u32v(rs1v) < u32v(rs2v),
        Bgeu => u32v(rs1v) >= u32v(rs2v),
        // Callers guarantee a branch kind.
        _ => false,
    }
}

/// Load byte width and sign-extension bit count of a load [`FlatKind`].
#[inline]
fn load_shape(kind: FlatKind) -> (u8, u32) {
    match kind {
        FlatKind::Lb => (1, 8),
        FlatKind::Lh => (2, 16),
        FlatKind::Lbu => (1, 0),
        FlatKind::Lhu => (2, 0),
        // Lw (and, defensively, anything else).
        _ => (4, 32),
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
    let rs1v = state.x[usize::from(op.rs1)];
    let rs2v = state.x[usize::from(op.rs2)];
    use FlatKind::*;
    let (outcome, mem_access) = match op.kind {
        Beq | Bne | Blt | Bge | Bltu | Bgeu => (
            Outcome::Branch {
                taken: branch_taken(op.kind, rs1v, rs2v),
                target: pc.wrapping_add(op.imm as u64),
            },
            None,
        ),
        Jal => {
            state.x[usize::from(op.rd)] = sext32(pc.wrapping_add(4));
            state.x[0] = 0;
            (Outcome::Jump { target: pc.wrapping_add(op.imm as u64) }, None)
        }
        Lb | Lh | Lw | Lbu | Lhu => {
            let addr = rs1v.wrapping_add(op.imm as u64);
            let (width, bits) = load_shape(op.kind);
            let raw = mem.load(addr, width);
            let value = if bits > 0 {
                ((raw << (64 - bits)) as i64 >> (64 - bits)) as u64
            } else {
                raw
            };
            state.x[usize::from(op.rd)] = sext32(value);
            state.x[0] = 0;
            (Outcome::Next, Some(MemAccess { addr, width, is_store: false }))
        }
        Sb | Sh | Sw => {
            let addr = rs1v.wrapping_add(op.imm as u64);
            let width = match op.kind {
                Sb => 1,
                Sh => 2,
                _ => 4,
            };
            mem.store(addr, width, rs2v);
            (Outcome::Next, Some(MemAccess { addr, width, is_store: true }))
        }
        _ => {
            state.x[usize::from(op.rd)] = sext32(alu_value(op.kind, pc, rs1v, rs2v, op.imm));
            state.x[0] = 0;
            (Outcome::Next, None)
        }
    };
    state.pc = match outcome {
        Outcome::Next | Outcome::Syscall => pc.wrapping_add(4),
        Outcome::Branch { taken: true, target } | Outcome::Jump { target } => target,
        Outcome::Branch { taken: false, .. } => pc.wrapping_add(4),
        Outcome::Halt => pc,
    };
    StepInfo { outcome, mem: mem_access }
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
/// ([`FlatKind::is_int_alu`]), so the pair can never be split by control
/// flow, a trap, or a memory fault between its halves — architectural state
/// after [`step_fused`] is exactly the state after two [`step_flat`] calls.
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
    /// `a` must be a pure fall-through integer ALU op; `b` classifies the
    /// idiom: branch → [`FusedKind::CmpBranch`], load →
    /// [`FusedKind::AddrLoad`], store → [`FusedKind::AddrStore`], ALU →
    /// [`FusedKind::AluAlu`]. Anything else (e.g. `jal` second) declines.
    #[must_use]
    pub fn fuse(a: FlatOp, b: FlatOp) -> Option<FusedOp> {
        use FlatKind::*;
        if !a.kind.is_int_alu() {
            return None;
        }
        let kind = match b.kind {
            Beq | Bne | Blt | Bge | Bltu | Bgeu => FusedKind::CmpBranch,
            Lb | Lh | Lw | Lbu | Lhu => FusedKind::AddrLoad,
            Sb | Sh | Sw => FusedKind::AddrStore,
            k if k.is_int_alu() => FusedKind::AluAlu,
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
    let va = alu_value(
        a.kind,
        pc,
        state.x[usize::from(a.rs1)],
        state.x[usize::from(a.rs2)],
        a.imm,
    );
    state.x[usize::from(a.rd)] = sext32(va);
    state.x[0] = 0;
    let pc2 = pc.wrapping_add(4);
    let ia = StepInfo { outcome: Outcome::Next, mem: None };

    let b = &f.b;
    let rs1v = state.x[usize::from(b.rs1)];
    let rs2v = state.x[usize::from(b.rs2)];
    let ib = match f.kind {
        FusedKind::AluAlu => {
            state.x[usize::from(b.rd)] = sext32(alu_value(b.kind, pc2, rs1v, rs2v, b.imm));
            state.x[0] = 0;
            state.pc = pc2.wrapping_add(4);
            StepInfo { outcome: Outcome::Next, mem: None }
        }
        FusedKind::CmpBranch => {
            let taken = branch_taken(b.kind, rs1v, rs2v);
            let target = pc2.wrapping_add(b.imm as u64);
            state.pc = if taken { target } else { pc2.wrapping_add(4) };
            StepInfo { outcome: Outcome::Branch { taken, target }, mem: None }
        }
        FusedKind::AddrLoad => {
            let addr = rs1v.wrapping_add(b.imm as u64);
            let (width, bits) = load_shape(b.kind);
            let raw = mem.load(addr, width);
            let value = if bits > 0 {
                ((raw << (64 - bits)) as i64 >> (64 - bits)) as u64
            } else {
                raw
            };
            state.x[usize::from(b.rd)] = sext32(value);
            state.x[0] = 0;
            state.pc = pc2.wrapping_add(4);
            StepInfo {
                outcome: Outcome::Next,
                mem: Some(MemAccess { addr, width, is_store: false }),
            }
        }
        FusedKind::AddrStore => {
            let addr = rs1v.wrapping_add(b.imm as u64);
            let width = match b.kind {
                FlatKind::Sb => 1,
                FlatKind::Sh => 2,
                _ => 4,
            };
            mem.store(addr, width, rs2v);
            state.pc = pc2.wrapping_add(4);
            StepInfo {
                outcome: Outcome::Next,
                mem: Some(MemAccess { addr, width, is_store: true }),
            }
        }
    };
    (ia, ib)
}

/// A trivially simple flat memory for tests and functional-only runs.
#[derive(Debug, Clone, Default)]
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

    /// Writes an `f32`'s bits at `addr`.
    pub fn store_f32(&mut self, addr: u64, value: f32) {
        self.store_u32(addr, value.to_bits());
    }

    /// Reads an `f32` from `addr`.
    pub fn load_f32(&mut self, addr: u64) -> f32 {
        f32::from_bits(self.load(addr, 4) as u32)
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

    /// Every instruction in the flat subset, with operand registers chosen
    /// so sign/zero-extension, shifts, and x0 edge cases all get exercised.
    fn flat_subset_instrs() -> Vec<Instruction> {
        use Opcode::*;
        let mut v = vec![
            Instruction::upper(Lui, A0, 0x12345 << 12),
            Instruction::upper(Auipc, A1, 0x1000),
            Instruction::reg_imm(Addi, A2, A0, -7),
            Instruction::reg_imm(Slti, A3, A0, 3),
            Instruction::reg_imm(Sltiu, A3, A0, -1),
            Instruction::reg_imm(Xori, A4, A1, 0x5A5),
            Instruction::reg_imm(Ori, A5, A2, 0x0F0),
            Instruction::reg_imm(Andi, A0, A3, 0x7F),
            Instruction::reg_imm(Slli, A1, A4, 5),
            Instruction::reg_imm(Srli, A2, A5, 3),
            Instruction::reg_imm(Srai, A3, A0, 2),
            Instruction::reg3(Add, A4, A0, A1),
            Instruction::reg3(Sub, A5, A1, A2),
            Instruction::reg3(Sll, A0, A2, A3),
            Instruction::reg3(Slt, A1, A3, A4),
            Instruction::reg3(Sltu, A2, A4, A5),
            Instruction::reg3(Xor, A3, A5, A0),
            Instruction::reg3(Srl, A4, A0, A1),
            Instruction::reg3(Sra, A5, A1, A2),
            Instruction::reg3(Or, A0, A2, A3),
            Instruction::reg3(And, A1, A3, A4),
            Instruction::reg_imm(Addi, ZERO, A0, 1), // write to x0 discarded
        ];
        for op in [Beq, Bne, Blt, Bge, Bltu, Bgeu] {
            v.push(Instruction::branch(op, A0, A1, 0x40));
        }
        v.push(Instruction::jal(RA, 0x80));
        for op in [Lb, Lh, Lw, Lbu, Lhu] {
            v.push(Instruction::load(op, A2, A3, 4));
        }
        for op in [Sb, Sh, Sw] {
            v.push(Instruction::store(op, A4, A3, 8));
        }
        v
    }

    #[test]
    fn step_flat_matches_step_on_whole_subset() {
        for (i, instr) in flat_subset_instrs().iter().enumerate() {
            let op = FlatOp::lower(instr, Xlen::Rv32)
                .unwrap_or_else(|| panic!("instr {i} should lower: {instr:?}"));
            // Seed registers with extension-hostile values.
            let mut a = ArchState::new(0x1000, Xlen::Rv32);
            for n in 1..32u8 {
                a.write(Reg::X(n), 0x8000_0000u64.wrapping_mul(u64::from(n)) ^ 0xDEAD_BEEF);
            }
            a.write(A3, 0x100); // load/store base
            let mut b = a.clone();
            let mut mem_a = FlatMemory::new();
            mem_a.store_u32(0x100, 0xFFEE_DDCC);
            mem_a.store_u32(0x104, 0x8001_7FFE);
            let mut mem_b = mem_a.clone();
            let ia = step(&mut a, instr, &mut mem_a);
            let ib = step_flat(&mut b, &op, &mut mem_b);
            assert_eq!(ia, ib, "StepInfo diverged on instr {i}: {instr:?}");
            assert_eq!(a, b, "ArchState diverged on instr {i}: {instr:?}");
            assert_eq!(mem_a.load(0x108, 8), mem_b.load(0x108, 8));
            assert_eq!(mem_a.load(0x100, 8), mem_b.load(0x100, 8));
        }
    }

    #[test]
    fn lower_declines_non_flat_instrs() {
        assert!(FlatOp::lower(&Instruction::system(Opcode::Ecall), Xlen::Rv32).is_none());
        assert!(FlatOp::lower(&Instruction::reg3(Opcode::Mul, A0, A1, A2), Xlen::Rv32).is_none());
        assert!(FlatOp::lower(&Instruction::reg3(Opcode::FaddS, FA0, FA1, FA2), Xlen::Rv32).is_none());
        // RV64 never lowers: the flat handlers bake in 32-bit canonicalization.
        assert!(FlatOp::lower(&Instruction::reg_imm(Opcode::Addi, A0, A0, 1), Xlen::Rv64).is_none());
    }

    #[test]
    fn step_fused_matches_two_flat_steps_per_idiom() {
        use Opcode::*;
        let pairs: Vec<[Instruction; 2]> = vec![
            // compare + branch
            [Instruction::reg3(Slt, T0, A0, A1), Instruction::branch(Bne, T0, ZERO, -0x20)],
            // addr-gen + load
            [Instruction::reg_imm(Addi, T1, A3, 4), Instruction::load(Lw, T2, T1, 0)],
            // addr-gen + store
            [Instruction::reg3(Add, T1, A3, ZERO), Instruction::store(Sw, A0, T1, 0)],
            // add + add chain
            [Instruction::reg_imm(Addi, T3, A0, 1), Instruction::reg3(Add, T4, T3, A1)],
        ];
        for (i, [x, y]) in pairs.iter().enumerate() {
            let fa = FlatOp::lower(x, Xlen::Rv32).expect("first lowers");
            let fb = FlatOp::lower(y, Xlen::Rv32).expect("second lowers");
            let fused = FusedOp::fuse(fa, fb).unwrap_or_else(|| panic!("pair {i} should fuse"));
            let mut a = ArchState::new(0x2000, Xlen::Rv32);
            a.write(A0, 5);
            a.write(A1, 9);
            a.write(A3, 0x200);
            let mut b = a.clone();
            let mut mem_a = FlatMemory::new();
            mem_a.store_u32(0x204, 0xCAFE_F00D);
            let mut mem_b = mem_a.clone();
            let i1 = step_flat(&mut a, &fa, &mut mem_a);
            let i2 = step_flat(&mut a, &fb, &mut mem_a);
            let (j1, j2) = step_fused(&mut b, &fused, &mut mem_b);
            assert_eq!((i1, i2), (j1, j2), "StepInfos diverged on pair {i}");
            assert_eq!(a, b, "ArchState diverged on pair {i}");
            assert_eq!(mem_a.load(0x200, 8), mem_b.load(0x200, 8));
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
