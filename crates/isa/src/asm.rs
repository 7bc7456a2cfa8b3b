//! A small embedded assembler for constructing RISC-V programs in Rust.
//!
//! Workload kernels (the Rodinia loop bodies in `mesa-workloads`) are
//! written with this DSL rather than cross-compiled, since MESA only ever
//! observes the hot loop's machine code. Labels resolve to PC-relative
//! offsets at [`Asm::finish`] time, exactly as a one-pass assembler with
//! fixups would.

use crate::{codec, EncodeError, Instruction, Opcode, Reg};
use std::collections::HashMap;
use std::fmt;

/// An OpenMP-style parallelism annotation attached to a PC range.
///
/// MESA does not speculate at the thread level; loop-level optimizations
/// (tiling, pipelining — paper §4.3) are applied only to regions the
/// programmer pre-annotated with `omp parallel` / `omp simd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelKind {
    /// `#pragma omp parallel for`: iterations fully independent.
    Parallel,
    /// `#pragma omp simd`: iterations independent and vectorizable.
    Simd,
}

/// A pragma recorded against a half-open PC range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Annotation {
    /// First PC of the annotated loop.
    pub start_pc: u64,
    /// One past the last PC of the annotated loop.
    pub end_pc: u64,
    /// Which pragma was applied.
    pub kind: ParallelKind,
}

/// An assembled program: a base PC, the decoded instructions, and any
/// parallelism annotations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Address of the first instruction.
    pub base_pc: u64,
    /// Instructions in layout order, 4 bytes apart.
    pub instrs: Vec<Instruction>,
    /// OpenMP-style annotations, sorted by `start_pc`.
    pub annotations: Vec<Annotation>,
}

impl Program {
    /// The instruction at `pc`, if it falls inside the program.
    #[must_use]
    pub fn fetch(&self, pc: u64) -> Option<&Instruction> {
        if pc < self.base_pc || !(pc - self.base_pc).is_multiple_of(4) {
            return None;
        }
        self.instrs.get(((pc - self.base_pc) / 4) as usize)
    }

    /// One past the address of the last instruction.
    #[must_use]
    pub fn end_pc(&self) -> u64 {
        self.base_pc + 4 * self.instrs.len() as u64
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Encodes the whole program to machine words.
    ///
    /// # Errors
    /// Returns the first [`EncodeError`] encountered.
    pub fn encode(&self) -> Result<Vec<u32>, EncodeError> {
        self.instrs.iter().map(codec::encode).collect()
    }

    /// Decodes a program from machine words laid out from `base_pc`.
    ///
    /// # Errors
    /// Returns the first [`codec::DecodeError`] encountered.
    pub fn decode(base_pc: u64, words: &[u32]) -> Result<Self, codec::DecodeError> {
        let instrs = words.iter().map(|&w| codec::decode(w)).collect::<Result<_, _>>()?;
        Ok(Program { base_pc, instrs, annotations: Vec::new() })
    }

    /// The annotation covering `pc`, if any.
    #[must_use]
    pub fn annotation_at(&self, pc: u64) -> Option<&Annotation> {
        self.annotations.iter().find(|a| a.start_pc <= pc && pc < a.end_pc)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (idx, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{:#010x}: {}", self.base_pc + 4 * idx as u64, i)?;
        }
        Ok(())
    }
}

/// Errors produced while assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// An instruction failed to encode after label resolution.
    Encode(EncodeError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::Encode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<EncodeError> for AsmError {
    fn from(e: EncodeError) -> Self {
        AsmError::Encode(e)
    }
}

/// The label-resolving assembler.
///
/// ```
/// use mesa_isa::{Asm, Opcode, reg::abi::*};
/// let mut a = Asm::new(0x1000);
/// a.label("loop");
/// a.lw(T0, A0, 0);
/// a.add(T1, T1, T0);
/// a.addi(A0, A0, 4);
/// a.bne(A0, A1, "loop");
/// let prog = a.finish()?;
/// assert_eq!(prog.len(), 4);
/// assert!(prog.instrs[3].is_backward_branch());
/// # Ok::<(), mesa_isa::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Asm {
    base_pc: u64,
    instrs: Vec<Instruction>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String)>,
    annotations: Vec<(usize, Option<usize>, ParallelKind)>,
    open_pragma: Option<usize>,
}

impl Asm {
    /// Starts assembling at `base_pc`.
    #[must_use]
    pub fn new(base_pc: u64) -> Self {
        Asm {
            base_pc,
            instrs: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            annotations: Vec::new(),
            open_pragma: None,
        }
    }

    /// Current PC (address the next emitted instruction will get).
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.base_pc + 4 * self.instrs.len() as u64
    }

    /// Defines `name` at the current PC. Later (or earlier) branches may
    /// reference it.
    pub fn label(&mut self, name: &str) -> &mut Self {
        // Duplicates are detected at finish() so that the builder methods
        // can stay infallible.
        self.labels
            .entry(name.to_string())
            .and_modify(|v| *v = usize::MAX) // poisoned: duplicate
            .or_insert(self.instrs.len());
        self
    }

    /// Opens an `omp parallel`/`omp simd` region covering instructions
    /// emitted until [`Asm::end_pragma`].
    pub fn pragma(&mut self, kind: ParallelKind) -> &mut Self {
        self.annotations.push((self.instrs.len(), None, kind));
        self.open_pragma = Some(self.annotations.len() - 1);
        self
    }

    /// Closes the most recently opened pragma region.
    pub fn end_pragma(&mut self) -> &mut Self {
        if let Some(idx) = self.open_pragma.take() {
            self.annotations[idx].1 = Some(self.instrs.len());
        }
        self
    }

    /// Emits an already-built instruction.
    pub fn raw(&mut self, i: Instruction) -> &mut Self {
        self.instrs.push(i);
        self
    }

    fn emit_label_ref(&mut self, i: Instruction, target: &str) -> &mut Self {
        self.fixups.push((self.instrs.len(), target.to_string()));
        self.instrs.push(i);
        self
    }

    /// Resolves labels and returns the finished [`Program`].
    ///
    /// # Errors
    /// Returns [`AsmError`] for undefined/duplicate labels or encoding
    /// failures.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        for (name, &at) in &self.labels {
            if at == usize::MAX {
                return Err(AsmError::DuplicateLabel(name.clone()));
            }
        }
        for (at, label) in std::mem::take(&mut self.fixups) {
            let &target = self
                .labels
                .get(&label)
                .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
            let offset = (target as i64 - at as i64) * 4;
            self.instrs[at].imm = offset;
        }
        let program = Program {
            base_pc: self.base_pc,
            instrs: self.instrs,
            annotations: self
                .annotations
                .iter()
                .map(|&(s, e, kind)| Annotation {
                    start_pc: self.base_pc + 4 * s as u64,
                    end_pc: self.base_pc + 4 * e.unwrap_or(s) as u64,
                    kind,
                })
                .collect(),
        };
        // Validate that everything encodes (catches out-of-range label
        // offsets immediately rather than at simulation time).
        program.encode()?;
        Ok(program)
    }
}

macro_rules! asm_reg3 {
    ($($fn_name:ident => $op:ident;)*) => {
        $(
            #[doc = concat!("Emits `", stringify!($fn_name), " rd, rs1, rs2`.")]
            pub fn $fn_name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
                self.raw(Instruction::reg3(Opcode::$op, rd, rs1, rs2))
            }
        )*
    };
}

macro_rules! asm_reg_imm {
    ($($fn_name:ident => $op:ident;)*) => {
        $(
            #[doc = concat!("Emits `", stringify!($fn_name), " rd, rs1, imm`.")]
            pub fn $fn_name(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
                self.raw(Instruction::reg_imm(Opcode::$op, rd, rs1, imm))
            }
        )*
    };
}

macro_rules! asm_load {
    ($($fn_name:ident => $op:ident;)*) => {
        $(
            #[doc = concat!("Emits `", stringify!($fn_name), " rd, offset(base)`.")]
            pub fn $fn_name(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
                self.raw(Instruction::load(Opcode::$op, rd, base, offset))
            }
        )*
    };
}

macro_rules! asm_store {
    ($($fn_name:ident => $op:ident;)*) => {
        $(
            #[doc = concat!("Emits `", stringify!($fn_name), " src, offset(base)`.")]
            pub fn $fn_name(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
                self.raw(Instruction::store(Opcode::$op, src, base, offset))
            }
        )*
    };
}

macro_rules! asm_branch {
    ($($fn_name:ident => $op:ident;)*) => {
        $(
            #[doc = concat!("Emits `", stringify!($fn_name), " rs1, rs2, label`.")]
            pub fn $fn_name(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
                self.emit_label_ref(
                    Instruction::branch(Opcode::$op, rs1, rs2, 0),
                    label,
                )
            }
        )*
    };
}

impl Asm {
    asm_reg3! {
        add => Add; sub => Sub; sll => Sll; slt => Slt; sltu => Sltu;
        xor => Xor; srl => Srl; sra => Sra; or => Or; and => And;
        mul => Mul; mulh => Mulh; mulhu => Mulhu; div => Div; divu => Divu;
        rem => Rem; remu => Remu;
        addw => Addw; subw => Subw;
        fadd_s => FaddS; fsub_s => FsubS; fmul_s => FmulS; fdiv_s => FdivS;
        fmin_s => FminS; fmax_s => FmaxS;
        feq_s => FeqS; flt_s => FltS; fle_s => FleS;
        fsgnj_s => FsgnjS; fsgnjn_s => FsgnjnS; fsgnjx_s => FsgnjxS;
    }

    asm_reg_imm! {
        addi => Addi; slti => Slti; sltiu => Sltiu; xori => Xori;
        ori => Ori; andi => Andi; slli => Slli; srli => Srli; srai => Srai;
        addiw => Addiw;
    }

    asm_load! {
        lb => Lb; lh => Lh; lw => Lw; lbu => Lbu; lhu => Lhu;
        lwu => Lwu; ld => Ld; flw => Flw;
    }

    asm_store! {
        sb => Sb; sh => Sh; sw => Sw; sd => Sd; fsw => Fsw;
    }

    asm_branch! {
        beq => Beq; bne => Bne; blt => Blt; bge => Bge;
        bltu => Bltu; bgeu => Bgeu;
    }

    /// Emits `fsqrt.s rd, rs1`.
    pub fn fsqrt_s(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.raw(Instruction {
            op: Opcode::FsqrtS,
            rd: Some(rd),
            rs1: Some(rs1),
            rs2: None,
            rs3: None,
            imm: 0,
        })
    }

    /// Emits `lui rd, imm` (`imm` is the full value, low 12 bits zero).
    pub fn lui(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.raw(Instruction::upper(Opcode::Lui, rd, imm))
    }

    /// Emits `jal rd, label`.
    pub fn jal(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.emit_label_ref(Instruction::jal(rd, 0), label)
    }

    /// Emits `jalr rd, offset(rs1)`.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, offset: i64) -> &mut Self {
        self.raw(Instruction {
            op: Opcode::Jalr,
            rd: Some(rd),
            rs1: Some(rs1),
            rs2: None,
            rs3: None,
            imm: offset,
        })
    }

    /// Emits `ecall`.
    pub fn ecall(&mut self) -> &mut Self {
        self.raw(Instruction::system(Opcode::Ecall))
    }

    /// Emits `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.raw(Instruction::nop())
    }

    /// Emits `li rd, value` as one or two instructions (`lui` + `addi`).
    ///
    /// # Panics
    /// Panics if `value` does not fit in 32 bits.
    pub fn li(&mut self, rd: Reg, value: i64) -> &mut Self {
        assert!(
            (-(1i64 << 31)..(1i64 << 31)).contains(&value),
            "li value {value} does not fit in 32 bits"
        );
        if (-2048..2048).contains(&value) {
            return self.addi(rd, Reg::ZERO, value);
        }
        let hi = (value + 0x800) >> 12 << 12;
        let lo = value - hi;
        // Sign-extend hi to the canonical LUI range.
        let hi = ((hi as i32) as i64) & !0xFFF;
        self.lui(rd, hi);
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
        self
    }

    /// Emits `mv rd, rs` (`addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.addi(rd, rs, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::abi::*;

    #[test]
    fn backward_label_resolves_negative() {
        let mut a = Asm::new(0x1000);
        a.label("top");
        a.addi(A0, A0, 1);
        a.addi(A1, A1, -1);
        a.bne(A1, ZERO, "top");
        let p = a.finish().unwrap();
        assert_eq!(p.instrs[2].imm, -8);
    }

    #[test]
    fn forward_label_resolves_positive() {
        let mut a = Asm::new(0);
        a.beq(A0, ZERO, "skip");
        a.addi(A1, A1, 1);
        a.label("skip");
        a.addi(A2, A2, 1);
        let p = a.finish().unwrap();
        assert_eq!(p.instrs[0].imm, 8);
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Asm::new(0);
        a.bne(A0, A1, "nowhere");
        assert_eq!(a.finish(), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Asm::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        assert_eq!(a.finish(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn li_small_and_large() {
        let mut a = Asm::new(0);
        a.li(A0, 42);
        a.li(A1, 0x12345678);
        a.li(A2, -1);
        let p = a.finish().unwrap();
        // 42 -> 1 instr; 0x12345678 -> lui+addi; -1 -> 1 instr
        assert_eq!(p.len(), 4);
        assert_eq!(p.instrs[0].imm, 42);
    }

    #[test]
    fn fetch_by_pc() {
        let mut a = Asm::new(0x2000);
        a.addi(A0, A0, 7);
        a.nop();
        let p = a.finish().unwrap();
        assert_eq!(p.fetch(0x2000).unwrap().imm, 7);
        assert!(p.fetch(0x2002).is_none()); // misaligned
        assert!(p.fetch(0x1000).is_none()); // below base
        assert!(p.fetch(0x2008).is_none()); // past end
        assert_eq!(p.end_pc(), 0x2008);
    }

    #[test]
    fn pragma_ranges_recorded() {
        let mut a = Asm::new(0x100);
        a.pragma(ParallelKind::Parallel);
        a.label("loop");
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        a.end_pragma();
        a.nop();
        let p = a.finish().unwrap();
        assert_eq!(p.annotations.len(), 1);
        let ann = p.annotations[0];
        assert_eq!(ann.start_pc, 0x100);
        assert_eq!(ann.end_pc, 0x108);
        assert_eq!(ann.kind, ParallelKind::Parallel);
        assert!(p.annotation_at(0x104).is_some());
        assert!(p.annotation_at(0x108).is_none());
    }

    #[test]
    fn program_roundtrips_through_machine_words() {
        let mut a = Asm::new(0x8000);
        a.label("l");
        a.lw(T0, A0, 0);
        a.fadd_s(FT0, FT0, FT1);
        a.addi(A0, A0, 4);
        a.blt(A0, A1, "l");
        let p = a.finish().unwrap();
        let words = p.encode().unwrap();
        let p2 = Program::decode(0x8000, &words).unwrap();
        assert_eq!(p.instrs, p2.instrs);
    }
}
