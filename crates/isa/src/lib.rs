//! ARMv7-inspired scalar + NEON-style vector instruction set.
//!
//! This crate defines the instruction set architecture used by the whole
//! DSA reproduction stack: the register files, the instruction forms, a
//! disassembler and an [`Asm`] assembler with label support. Programs
//! live as [`Instr`] values; the simulator predecodes those directly, so
//! there is no binary encoding.
//!
//! The ISA is deliberately a *reduced* ARMv7: it keeps exactly the
//! structural features the Dynamic SIMD Assembler's detection logic relies
//! on (post-indexed loads/stores acting as induction updates, `cmp` +
//! conditional branch loop closing, PC-relative branches for loop /
//! function / condition detection, and 128-bit Q registers with
//! type-dependent lane counts), while dropping the encodings irrelevant to
//! the paper.
//!
//! Instruction addresses are expressed in *instruction units* (one unit =
//! one 32-bit word); a program counter of `n` refers to the `n`-th
//! instruction of the program.
//!
//! # Examples
//!
//! ```
//! use dsa_isa::{Asm, Reg, Cond};
//!
//! // for (i = 0; i != 4; i++) r2 += i;
//! let mut a = Asm::new();
//! let (i, acc, limit) = (Reg::R0, Reg::R2, Reg::R1);
//! a.mov_imm(i, 0);
//! a.mov_imm(acc, 0);
//! a.mov_imm(limit, 4);
//! let top = a.here();
//! a.add(acc, acc, i);
//! a.add_imm(i, i, 1);
//! a.cmp(i, limit);
//! a.b_to(Cond::Ne, top);
//! a.halt();
//! let program = a.finish();
//! assert_eq!(program.len(), 8);
//! ```

#![forbid(unsafe_code)]

mod asm;
mod instr;
mod program;
mod reg;

pub use asm::{Asm, Label};
pub use instr::{
    AddrMode, AluOp, Cond, ElemType, Instr, InstrClass, MemSize, Operand, VecOp,
};
pub use program::Program;
pub use reg::{QReg, Reg};
