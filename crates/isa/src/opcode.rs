//! Operation codes for the supported RISC-V subset (RV32IMF and RV64I) and
//! their static classification.
//!
//! The classification drives three consumers:
//!
//! * the CPU timing model picks a functional unit and latency per op,
//! * MESA's region detector (paper §4.1, condition C2) rejects unsupported
//!   instruction classes,
//! * the accelerator's `F_op` masking matrices (paper §3.3) describe which
//!   PEs can execute which [`OpClass`].

use std::fmt;

/// Every machine operation in the supported RV32IMF + RV64I subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are the RISC-V mnemonics themselves
pub enum Opcode {
    // ----- RV32I -----
    Lui, Auipc, Jal, Jalr,
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Lb, Lh, Lw, Lbu, Lhu,
    Sb, Sh, Sw,
    Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai,
    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
    Fence, Ecall, Ebreak,
    // ----- RV32M -----
    Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu,
    // ----- RV32F -----
    Flw, Fsw,
    FaddS, FsubS, FmulS, FdivS, FsqrtS, FminS, FmaxS,
    FmaddS, FmsubS, FnmaddS, FnmsubS,
    FcvtWS, FcvtWuS, FcvtSW, FcvtSWu,
    FmvXW, FmvWX,
    FeqS, FltS, FleS,
    FsgnjS, FsgnjnS, FsgnjxS,
    FclassS,
    // ----- RV64I -----
    Lwu, Ld, Sd,
    Addiw, Slliw, Srliw, Sraiw,
    Addw, Subw, Sllw, Srlw, Sraw,
}

/// Coarse operation class, used for functional-unit selection on the CPU and
/// for the accelerator's per-operation PE masking matrices `F_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Integer ALU operations (add/sub/logic/shift/compare/LUI/AUIPC).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Memory load (integer or FP destination).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (JAL / JALR).
    Jump,
    /// FP add/sub/min/max/sign-injection/compare/move/convert/classify.
    FpAlu,
    /// FP multiply (including fused multiply-add family).
    FpMul,
    /// FP divide / square root.
    FpDiv,
    /// System instructions (FENCE / ECALL / EBREAK) — never accelerable.
    System,
}

impl OpClass {
    /// All operation classes, in a stable order (handy for building the
    /// per-class `F_op` mask set).
    pub const ALL: [OpClass; 11] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Jump,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::System,
    ];

    /// `true` for classes that require floating-point hardware in a PE.
    #[must_use]
    pub fn needs_fp(self) -> bool {
        matches!(self, OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv)
    }

    /// `true` for memory-access classes.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int-alu",
            OpClass::IntMul => "int-mul",
            OpClass::IntDiv => "int-div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Jump => "jump",
            OpClass::FpAlu => "fp-alu",
            OpClass::FpMul => "fp-mul",
            OpClass::FpDiv => "fp-div",
            OpClass::System => "system",
        };
        f.write_str(s)
    }
}

impl Opcode {
    /// The coarse class of this operation.
    #[must_use]
    pub fn class(self) -> OpClass {
        use Opcode::*;
        match self {
            Lui | Auipc | Addi | Slti | Sltiu | Xori | Ori | Andi | Slli
            | Srli | Srai | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra
            | Or | And | Addiw | Slliw | Srliw | Sraiw | Addw | Subw | Sllw
            | Srlw | Sraw => OpClass::IntAlu,
            Mul | Mulh | Mulhsu | Mulhu => OpClass::IntMul,
            Div | Divu | Rem | Remu => OpClass::IntDiv,
            Lb | Lh | Lw | Lbu | Lhu | Lwu | Ld | Flw => OpClass::Load,
            Sb | Sh | Sw | Sd | Fsw => OpClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => OpClass::Branch,
            Jal | Jalr => OpClass::Jump,
            FaddS | FsubS | FminS | FmaxS | FcvtWS | FcvtWuS | FcvtSW
            | FcvtSWu | FmvXW | FmvWX | FeqS | FltS | FleS | FsgnjS
            | FsgnjnS | FsgnjxS | FclassS => OpClass::FpAlu,
            FmulS | FmaddS | FmsubS | FnmaddS | FnmsubS => OpClass::FpMul,
            FdivS | FsqrtS => OpClass::FpDiv,
            Fence | Ecall | Ebreak => OpClass::System,
        }
    }

    /// Static execution latency in cycles, from operands-ready to result
    /// produced.
    ///
    /// These match the constants used by the paper's worked example
    /// (Fig. 2: integer/FP add = 3, multiply = 5) for the FP pipeline, with
    /// conventional values for the rest. Memory operations report their
    /// *hit* latency; the cache model supplies the dynamic remainder.
    #[must_use]
    pub fn base_latency(self) -> u64 {
        match self.class() {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 12,
            OpClass::Load => 2,
            OpClass::Store => 1,
            OpClass::Branch => 1,
            OpClass::Jump => 1,
            OpClass::FpAlu => 3,
            OpClass::FpMul => 5,
            OpClass::FpDiv => 15,
            OpClass::System => 1,
        }
    }

    /// `true` for loads (any width, integer or FP).
    #[must_use]
    pub fn is_load(self) -> bool {
        self.class() == OpClass::Load
    }

    /// `true` for stores.
    #[must_use]
    pub fn is_store(self) -> bool {
        self.class() == OpClass::Store
    }

    /// `true` for conditional branches.
    #[must_use]
    pub fn is_branch(self) -> bool {
        self.class() == OpClass::Branch
    }

    /// `true` for JAL/JALR.
    #[must_use]
    pub fn is_jump(self) -> bool {
        self.class() == OpClass::Jump
    }

    /// `true` for system instructions that disqualify a loop from
    /// acceleration (paper §4.1, condition C2).
    #[must_use]
    pub fn is_system(self) -> bool {
        self.class() == OpClass::System
    }

    /// `true` for RV64-only operations (rejected by a 32-bit accelerator,
    /// one of the C2 examples in the paper).
    #[must_use]
    pub fn is_rv64_only(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Lwu | Ld | Sd | Addiw | Slliw | Srliw | Sraiw | Addw | Subw
                | Sllw | Srlw | Sraw
        )
    }

    /// `true` for the fused multiply-add family, which reads *three* source
    /// registers. MESA's DFG assumes at most two predecessors per node
    /// (paper §3.1), so these are executable on the CPU but not accelerable.
    #[must_use]
    pub fn is_three_source(self) -> bool {
        use Opcode::*;
        matches!(self, FmaddS | FmsubS | FnmaddS | FnmsubS)
    }

    /// Number of bytes moved by a memory operation, or `None` for non-memory
    /// ops.
    #[must_use]
    pub fn mem_width(self) -> Option<u8> {
        use Opcode::*;
        match self {
            Lb | Lbu | Sb => Some(1),
            Lh | Lhu | Sh => Some(2),
            Lw | Lwu | Sw | Flw | Fsw => Some(4),
            Ld | Sd => Some(8),
            _ => None,
        }
    }

    /// `true` if the loaded value is sign-extended (vs zero-extended).
    #[must_use]
    pub fn load_sign_extends(self) -> bool {
        use Opcode::*;
        matches!(self, Lb | Lh | Lw | Ld)
    }

    /// The assembler mnemonic for this opcode.
    #[must_use]
    fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Lui => "lui", Auipc => "auipc", Jal => "jal", Jalr => "jalr",
            Beq => "beq", Bne => "bne", Blt => "blt", Bge => "bge",
            Bltu => "bltu", Bgeu => "bgeu",
            Lb => "lb", Lh => "lh", Lw => "lw", Lbu => "lbu", Lhu => "lhu",
            Sb => "sb", Sh => "sh", Sw => "sw",
            Addi => "addi", Slti => "slti", Sltiu => "sltiu", Xori => "xori",
            Ori => "ori", Andi => "andi", Slli => "slli", Srli => "srli",
            Srai => "srai",
            Add => "add", Sub => "sub", Sll => "sll", Slt => "slt",
            Sltu => "sltu", Xor => "xor", Srl => "srl", Sra => "sra",
            Or => "or", And => "and",
            Fence => "fence", Ecall => "ecall", Ebreak => "ebreak",
            Mul => "mul", Mulh => "mulh", Mulhsu => "mulhsu",
            Mulhu => "mulhu", Div => "div", Divu => "divu", Rem => "rem",
            Remu => "remu",
            Flw => "flw", Fsw => "fsw",
            FaddS => "fadd.s", FsubS => "fsub.s", FmulS => "fmul.s",
            FdivS => "fdiv.s", FsqrtS => "fsqrt.s", FminS => "fmin.s",
            FmaxS => "fmax.s",
            FmaddS => "fmadd.s", FmsubS => "fmsub.s",
            FnmaddS => "fnmadd.s", FnmsubS => "fnmsub.s",
            FcvtWS => "fcvt.w.s", FcvtWuS => "fcvt.wu.s",
            FcvtSW => "fcvt.s.w", FcvtSWu => "fcvt.s.wu",
            FmvXW => "fmv.x.w", FmvWX => "fmv.w.x",
            FeqS => "feq.s", FltS => "flt.s", FleS => "fle.s",
            FsgnjS => "fsgnj.s", FsgnjnS => "fsgnjn.s",
            FsgnjxS => "fsgnjx.s",
            FclassS => "fclass.s",
            Lwu => "lwu", Ld => "ld", Sd => "sd",
            Addiw => "addiw", Slliw => "slliw", Srliw => "srliw",
            Sraiw => "sraiw",
            Addw => "addw", Subw => "subw", Sllw => "sllw", Srlw => "srlw",
            Sraw => "sraw",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_consistent() {
        assert_eq!(Opcode::Add.class(), OpClass::IntAlu);
        assert_eq!(Opcode::Mul.class(), OpClass::IntMul);
        assert_eq!(Opcode::Lw.class(), OpClass::Load);
        assert_eq!(Opcode::Fsw.class(), OpClass::Store);
        assert_eq!(Opcode::Beq.class(), OpClass::Branch);
        assert_eq!(Opcode::Jalr.class(), OpClass::Jump);
        assert_eq!(Opcode::FmulS.class(), OpClass::FpMul);
        assert_eq!(Opcode::FsqrtS.class(), OpClass::FpDiv);
        assert_eq!(Opcode::Ecall.class(), OpClass::System);
    }

    #[test]
    fn figure2_latency_constants() {
        // The paper's worked example (Fig. 2) assumes add/sub = 3 and
        // multiply = 5 for the FP pipeline.
        assert_eq!(Opcode::FaddS.base_latency(), 3);
        assert_eq!(Opcode::FsubS.base_latency(), 3);
        assert_eq!(Opcode::FmulS.base_latency(), 5);
    }

    #[test]
    fn memory_widths() {
        assert_eq!(Opcode::Lb.mem_width(), Some(1));
        assert_eq!(Opcode::Lhu.mem_width(), Some(2));
        assert_eq!(Opcode::Flw.mem_width(), Some(4));
        assert_eq!(Opcode::Sd.mem_width(), Some(8));
        assert_eq!(Opcode::Add.mem_width(), None);
    }

    #[test]
    fn sign_extension_classification() {
        assert!(Opcode::Lb.load_sign_extends());
        assert!(Opcode::Lw.load_sign_extends());
        assert!(!Opcode::Lbu.load_sign_extends());
        assert!(!Opcode::Lwu.load_sign_extends());
    }

    #[test]
    fn rv64_only_detection() {
        assert!(Opcode::Addw.is_rv64_only());
        assert!(Opcode::Ld.is_rv64_only());
        assert!(!Opcode::Add.is_rv64_only());
        assert!(!Opcode::Lw.is_rv64_only());
    }

    #[test]
    fn three_source_detection() {
        assert!(Opcode::FmaddS.is_three_source());
        assert!(!Opcode::FmulS.is_three_source());
    }

    #[test]
    fn fp_classes_need_fp_pes() {
        assert!(OpClass::FpMul.needs_fp());
        assert!(OpClass::FpDiv.needs_fp());
        assert!(!OpClass::IntAlu.needs_fp());
        assert!(!OpClass::Load.needs_fp());
    }

    #[test]
    fn mnemonics_are_lowercase_riscv() {
        assert_eq!(Opcode::FmaddS.mnemonic(), "fmadd.s");
        assert_eq!(Opcode::Sraiw.to_string(), "sraiw");
    }
}
