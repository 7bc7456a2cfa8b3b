//! RISC-V instruction model for the MESA reproduction.
//!
//! This crate supplies everything the rest of the workspace needs to talk
//! about machine code:
//!
//! * [`Reg`] / [`Opcode`] / [`Instruction`] — the decoded instruction model
//!   covering RV32IMF and RV64I (the ISA subsets the paper's hardware
//!   supports).
//! * [`codec`] — the real 32-bit RISC-V instruction formats, so MESA's
//!   trace cache can hold machine words and the controller decodes them
//!   itself, as in the paper.
//! * [`Asm`] / [`Program`] — a label-resolving embedded assembler used to
//!   write the Rodinia-style workload kernels.
//! * [`exec`] — functional semantics ([`ArchState`], [`step`]) shared by
//!   the CPU timing model and the spatial accelerator, so both compute
//!   identical values.
//!
//! # Example
//!
//! ```
//! use mesa_isa::{Asm, ArchState, FlatMemory, Outcome, Xlen, reg::abi::*};
//!
//! // sum += a[i] over 4 elements.
//! let mut a = Asm::new(0x1000);
//! a.li(A0, 0x100);      // &a[0]
//! a.li(A1, 0x110);      // &a[4]
//! a.label("loop");
//! a.lw(T0, A0, 0);
//! a.add(T1, T1, T0);
//! a.addi(A0, A0, 4);
//! a.bne(A0, A1, "loop");
//! let prog = a.finish()?;
//!
//! let mut mem = FlatMemory::new();
//! for i in 0..4 {
//!     mem.store_u32(0x100 + 4 * i, (i + 1) as u32);
//! }
//! let mut st = ArchState::new(prog.base_pc, Xlen::Rv32);
//! while let Some(instr) = prog.fetch(st.pc) {
//!     mesa_isa::step(&mut st, instr, &mut mem);
//! }
//! assert_eq!(st.read(T1), 10);
//! # Ok::<(), mesa_isa::AsmError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod codec;
pub mod exec;
pub mod instr;
pub mod opcode;
pub mod reg;

pub use asm::{Annotation, Asm, AsmError, ParallelKind, Program};
pub use codec::{decode, encode, DecodeError, EncodeError};
pub use exec::{
    op_value, step, step_flat, step_fused, ArchState, FlatKind, FlatMemory, FlatOp, FusedKind, FusedOp,
    MemAccess, MemoryIo, Outcome, StepInfo, Xlen,
};
pub use instr::Instruction;
pub use opcode::{OpClass, Opcode};
pub use reg::Reg;
