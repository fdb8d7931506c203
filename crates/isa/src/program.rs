//! Assembled programs.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::instr::Instr;

/// A fully assembled program: a flat sequence of instructions with entry
/// point 0.
///
/// Instruction addresses are instruction-unit indices; `program.fetch(pc)`
/// returns the instruction at that index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Creates a program from a list of instructions.
    pub fn new(instrs: Vec<Instr>) -> Program {
        Program { instrs }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Fetches the instruction at `pc`, or `None` past the end.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<Instr> {
        self.instrs.get(pc as usize).copied()
    }

    /// Iterator over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }

    /// The instructions as a slice (the simulator's hot loop fetches
    /// straight from this, skipping per-step method dispatch).
    #[inline]
    pub fn as_slice(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of vector (NEON) instructions in the program text.
    pub fn vector_instr_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_vector()).count()
    }

    /// FNV-1a digest over the instruction stream — the key under which
    /// predecoded forms of the program (e.g. `dsa-cpu`'s
    /// `DecodedProgram`) are cached and shared between runs, and the
    /// program identity of `dsa-serve`'s result store and checkpoints.
    ///
    /// Each instruction's derived [`Hash`] feeds one FNV-1a state, with
    /// no formatting and no allocation. That covers every representable
    /// `Instr`, including malformed shapes (an over-wide vector shift,
    /// say) that the simulator handles as a runtime error. The value is a pure function of the instruction
    /// stream within one build: it follows the derived `Hash` layout,
    /// which may change between compiler versions, so it is never
    /// persisted — a checkpoint carrying it is only adopted by the same
    /// build that wrote it.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.instrs.hash(&mut h);
        h.finish()
    }
}

/// FNV-1a as a [`Hasher`]. Byte slices mix one byte at a time; the
/// fixed-width integers that derived `Hash` impls emit (enum
/// discriminants, register indices, immediates) mix as one word per
/// call, so hashing an instruction costs a handful of multiplies.
/// Each mixing step is a bijection of the state, so two streams that
/// differ in one value always hash differently.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

impl FromIterator<Instr> for Program {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Program {
        Program { instrs: iter.into_iter().collect() }
    }
}

impl fmt::Display for Program {
    /// Disassembly listing, one instruction per line with its address.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:6}:  {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Cond, Instr};
    use crate::reg::Reg;

    #[test]
    fn fetch_and_bounds() {
        let p = Program::new(vec![Instr::Nop, Instr::Halt]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.fetch(0), Some(Instr::Nop));
        assert_eq!(p.fetch(1), Some(Instr::Halt));
        assert_eq!(p.fetch(2), None);
    }

    #[test]
    fn display_lists_addresses() {
        let p = Program::new(vec![Instr::Nop, Instr::Halt]);
        let text = p.to_string();
        assert!(text.contains("0:  nop"));
        assert!(text.contains("1:  halt"));
    }

    #[test]
    fn content_hash_accepts_unencodable_instrs() {
        // An over-wide shift is representable (and fails at run time in
        // the simulator) — hashing must not panic on it.
        let bad = Program::new(vec![
            Instr::VshrImm {
                qd: crate::QReg::Q0,
                qn: crate::QReg::Q1,
                shift: 16,
                et: crate::ElemType::I16,
            },
            Instr::Halt,
        ]);
        assert_ne!(bad.content_hash(), Program::default().content_hash());
    }

    fn hash_of(instr: Instr) -> u64 {
        Program::new(vec![instr, Instr::Halt]).content_hash()
    }

    /// Every `Instr` shape, each paired with single-field mutants: one
    /// per field, covering registers, immediates, conditions, `MemSize`,
    /// `AddrMode`, `ElemType`, lanes, writeback and `VecOp`.
    fn shapes() -> Vec<(Instr, Vec<Instr>)> {
        use crate::instr::{AddrMode, AluOp, ElemType, MemSize, Operand, VecOp};
        use crate::QReg;
        let (r1, r2, r3) = (Reg::R1, Reg::R2, Reg::R3);
        let (q0, q1, q2) = (QReg::Q0, QReg::Q1, QReg::Q2);
        let et = ElemType::I32;
        vec![
            (Instr::Nop, vec![Instr::Halt]),
            (Instr::Halt, vec![Instr::Nop]),
            (
                Instr::MovImm { rd: r1, imm: 5 },
                vec![Instr::MovImm { rd: r2, imm: 5 }, Instr::MovImm { rd: r1, imm: -5 }],
            ),
            (
                Instr::MovTop { rd: r1, imm: 5 },
                vec![
                    Instr::MovTop { rd: r2, imm: 5 },
                    Instr::MovTop { rd: r1, imm: 6 },
                    Instr::MovImm { rd: r1, imm: 5 },
                ],
            ),
            (
                Instr::Mov { rd: r1, rm: r2 },
                vec![Instr::Mov { rd: r3, rm: r2 }, Instr::Mov { rd: r1, rm: r3 }],
            ),
            (
                Instr::Alu { op: AluOp::Add, rd: r1, rn: r2, src2: Operand::Reg(r3) },
                vec![
                    Instr::Alu { op: AluOp::Sub, rd: r1, rn: r2, src2: Operand::Reg(r3) },
                    Instr::Alu { op: AluOp::Add, rd: r3, rn: r2, src2: Operand::Reg(r3) },
                    Instr::Alu { op: AluOp::Add, rd: r1, rn: r1, src2: Operand::Reg(r3) },
                    Instr::Alu { op: AluOp::Add, rd: r1, rn: r2, src2: Operand::Reg(r1) },
                    Instr::Alu { op: AluOp::Add, rd: r1, rn: r2, src2: Operand::Imm(3) },
                ],
            ),
            (
                Instr::Cmp { rn: r1, src2: Operand::Imm(7) },
                vec![
                    Instr::Cmp { rn: r2, src2: Operand::Imm(7) },
                    Instr::Cmp { rn: r1, src2: Operand::Imm(8) },
                    Instr::Cmp { rn: r1, src2: Operand::Reg(Reg::new(7)) },
                ],
            ),
            (
                Instr::B { cond: Cond::Ne, offset: -3 },
                vec![
                    Instr::B { cond: Cond::Eq, offset: -3 },
                    Instr::B { cond: Cond::Ne, offset: 3 },
                ],
            ),
            (
                Instr::Bl { offset: 4 },
                vec![Instr::Bl { offset: 5 }, Instr::B { cond: Cond::Al, offset: 4 }],
            ),
            (Instr::BxLr, vec![Instr::Nop]),
            (
                Instr::Ldr { rd: r1, rn: r2, mode: AddrMode::PostInc(4), size: MemSize::W },
                vec![
                    Instr::Ldr { rd: r3, rn: r2, mode: AddrMode::PostInc(4), size: MemSize::W },
                    Instr::Ldr { rd: r1, rn: r3, mode: AddrMode::PostInc(4), size: MemSize::W },
                    Instr::Ldr { rd: r1, rn: r2, mode: AddrMode::PreInc(4), size: MemSize::W },
                    Instr::Ldr { rd: r1, rn: r2, mode: AddrMode::Offset(4), size: MemSize::W },
                    Instr::Ldr { rd: r1, rn: r2, mode: AddrMode::PostInc(2), size: MemSize::W },
                    Instr::Ldr { rd: r1, rn: r2, mode: AddrMode::PostInc(4), size: MemSize::H },
                    Instr::Str { rs: r1, rn: r2, mode: AddrMode::PostInc(4), size: MemSize::W },
                ],
            ),
            (
                Instr::Str { rs: r1, rn: r2, mode: AddrMode::Offset(0), size: MemSize::B },
                vec![
                    Instr::Str { rs: r3, rn: r2, mode: AddrMode::Offset(0), size: MemSize::B },
                    Instr::Str { rs: r1, rn: r3, mode: AddrMode::Offset(0), size: MemSize::B },
                    Instr::Str { rs: r1, rn: r2, mode: AddrMode::Offset(1), size: MemSize::B },
                    Instr::Str { rs: r1, rn: r2, mode: AddrMode::Offset(0), size: MemSize::W },
                ],
            ),
            (
                Instr::LdrReg { rd: r1, rn: r2, rm: r3, lsl: 2, size: MemSize::W },
                vec![
                    Instr::LdrReg { rd: r2, rn: r2, rm: r3, lsl: 2, size: MemSize::W },
                    Instr::LdrReg { rd: r1, rn: r1, rm: r3, lsl: 2, size: MemSize::W },
                    Instr::LdrReg { rd: r1, rn: r2, rm: r1, lsl: 2, size: MemSize::W },
                    Instr::LdrReg { rd: r1, rn: r2, rm: r3, lsl: 1, size: MemSize::W },
                    Instr::LdrReg { rd: r1, rn: r2, rm: r3, lsl: 2, size: MemSize::B },
                    Instr::StrReg { rs: r1, rn: r2, rm: r3, lsl: 2, size: MemSize::W },
                ],
            ),
            (
                Instr::StrReg { rs: r1, rn: r2, rm: r3, lsl: 0, size: MemSize::H },
                vec![
                    Instr::StrReg { rs: r2, rn: r2, rm: r3, lsl: 0, size: MemSize::H },
                    Instr::StrReg { rs: r1, rn: r3, rm: r3, lsl: 0, size: MemSize::H },
                    Instr::StrReg { rs: r1, rn: r2, rm: r2, lsl: 0, size: MemSize::H },
                    Instr::StrReg { rs: r1, rn: r2, rm: r3, lsl: 3, size: MemSize::H },
                    Instr::StrReg { rs: r1, rn: r2, rm: r3, lsl: 0, size: MemSize::W },
                ],
            ),
            (
                Instr::Vld1 { qd: q0, rn: r1, writeback: true, et },
                vec![
                    Instr::Vld1 { qd: q1, rn: r1, writeback: true, et },
                    Instr::Vld1 { qd: q0, rn: r2, writeback: true, et },
                    Instr::Vld1 { qd: q0, rn: r1, writeback: false, et },
                    Instr::Vld1 { qd: q0, rn: r1, writeback: true, et: ElemType::F32 },
                    Instr::Vst1 { qs: q0, rn: r1, writeback: true, et },
                ],
            ),
            (
                Instr::Vst1 { qs: q0, rn: r1, writeback: false, et },
                vec![
                    Instr::Vst1 { qs: q2, rn: r1, writeback: false, et },
                    Instr::Vst1 { qs: q0, rn: r3, writeback: false, et },
                    Instr::Vst1 { qs: q0, rn: r1, writeback: true, et },
                    Instr::Vst1 { qs: q0, rn: r1, writeback: false, et: ElemType::I8 },
                ],
            ),
            (
                Instr::Vld1Lane { qd: q0, lane: 1, rn: r1, writeback: true, et },
                vec![
                    Instr::Vld1Lane { qd: q1, lane: 1, rn: r1, writeback: true, et },
                    Instr::Vld1Lane { qd: q0, lane: 2, rn: r1, writeback: true, et },
                    Instr::Vld1Lane { qd: q0, lane: 1, rn: r2, writeback: true, et },
                    Instr::Vld1Lane { qd: q0, lane: 1, rn: r1, writeback: false, et },
                    Instr::Vld1Lane { qd: q0, lane: 1, rn: r1, writeback: true, et: ElemType::I16 },
                    Instr::Vst1Lane { qs: q0, lane: 1, rn: r1, writeback: true, et },
                ],
            ),
            (
                Instr::Vst1Lane { qs: q0, lane: 0, rn: r1, writeback: false, et },
                vec![
                    Instr::Vst1Lane { qs: q1, lane: 0, rn: r1, writeback: false, et },
                    Instr::Vst1Lane { qs: q0, lane: 3, rn: r1, writeback: false, et },
                    Instr::Vst1Lane { qs: q0, lane: 0, rn: r2, writeback: false, et },
                    Instr::Vst1Lane { qs: q0, lane: 0, rn: r1, writeback: true, et },
                    Instr::Vst1Lane {
                        qs: q0,
                        lane: 0,
                        rn: r1,
                        writeback: false,
                        et: ElemType::F32,
                    },
                ],
            ),
            (
                Instr::Vop { op: VecOp::Add, et, qd: q0, qn: q1, qm: q2 },
                vec![
                    Instr::Vop { op: VecOp::Mul, et, qd: q0, qn: q1, qm: q2 },
                    Instr::Vop { op: VecOp::Add, et: ElemType::I8, qd: q0, qn: q1, qm: q2 },
                    Instr::Vop { op: VecOp::Add, et, qd: q2, qn: q1, qm: q2 },
                    Instr::Vop { op: VecOp::Add, et, qd: q0, qn: q0, qm: q2 },
                    Instr::Vop { op: VecOp::Add, et, qd: q0, qn: q1, qm: q1 },
                ],
            ),
            (
                Instr::VshrImm { qd: q0, qn: q1, shift: 3, et },
                vec![
                    Instr::VshrImm { qd: q2, qn: q1, shift: 3, et },
                    Instr::VshrImm { qd: q0, qn: q2, shift: 3, et },
                    Instr::VshrImm { qd: q0, qn: q1, shift: 4, et },
                    Instr::VshrImm { qd: q0, qn: q1, shift: 3, et: ElemType::I16 },
                ],
            ),
            (
                Instr::Vdup { qd: q0, rm: r1, et },
                vec![
                    Instr::Vdup { qd: q1, rm: r1, et },
                    Instr::Vdup { qd: q0, rm: r2, et },
                    Instr::Vdup { qd: q0, rm: r1, et: ElemType::F32 },
                ],
            ),
            (
                Instr::VdupImm { qd: q0, imm: 9, et },
                vec![
                    Instr::VdupImm { qd: q1, imm: 9, et },
                    Instr::VdupImm { qd: q0, imm: -9, et },
                    Instr::VdupImm { qd: q0, imm: 9, et: ElemType::I8 },
                ],
            ),
            (
                Instr::Vmov { qd: q0, qm: q1 },
                vec![Instr::Vmov { qd: q2, qm: q1 }, Instr::Vmov { qd: q0, qm: q2 }],
            ),
            (
                Instr::Vaddv { rd: r1, qn: q0, et },
                vec![
                    Instr::Vaddv { rd: r2, qn: q0, et },
                    Instr::Vaddv { rd: r1, qn: q1, et },
                    Instr::Vaddv { rd: r1, qn: q0, et: ElemType::I16 },
                ],
            ),
            (
                Instr::VmovToScalar { rd: r1, qn: q0, lane: 1, et },
                vec![
                    Instr::VmovToScalar { rd: r2, qn: q0, lane: 1, et },
                    Instr::VmovToScalar { rd: r1, qn: q1, lane: 1, et },
                    Instr::VmovToScalar { rd: r1, qn: q0, lane: 2, et },
                    Instr::VmovToScalar { rd: r1, qn: q0, lane: 1, et: ElemType::F32 },
                ],
            ),
            (
                Instr::VmovFromScalar { qd: q0, lane: 1, rm: r1, et },
                vec![
                    Instr::VmovFromScalar { qd: q1, lane: 1, rm: r1, et },
                    Instr::VmovFromScalar { qd: q0, lane: 0, rm: r1, et },
                    Instr::VmovFromScalar { qd: q0, lane: 1, rm: r2, et },
                    Instr::VmovFromScalar { qd: q0, lane: 1, rm: r1, et: ElemType::I8 },
                ],
            ),
        ]
    }

    #[test]
    fn structural_hash_sees_every_field() {
        let shapes = shapes();
        // Every variant appears as a base shape.
        let kinds: std::collections::HashSet<_> =
            shapes.iter().map(|(i, _)| std::mem::discriminant(i)).collect();
        assert_eq!(kinds.len(), 26, "one base per `Instr` variant");
        for (base, mutants) in shapes {
            for m in mutants {
                assert_ne!(m, base);
                assert_ne!(hash_of(m), hash_of(base), "{base:?} vs {m:?}");
            }
        }
    }

    #[test]
    fn equal_programs_built_separately_hash_equal() {
        for (base, mutants) in shapes() {
            let listing: Vec<Instr> = std::iter::once(base).chain(mutants).collect();
            let a = Program::new(listing.clone());
            let b: Program = listing.iter().copied().collect();
            assert_eq!(a.content_hash(), b.content_hash(), "{base:?}");
        }
        // Order matters: a permuted program is a different program.
        let p = Program::new(vec![Instr::Nop, Instr::BxLr, Instr::Halt]);
        let q = Program::new(vec![Instr::BxLr, Instr::Nop, Instr::Halt]);
        assert_ne!(p.content_hash(), q.content_hash());
        // A program is not the concatenation of its halves' hashes.
        assert_ne!(
            Program::new(vec![Instr::Nop]).content_hash(),
            Program::new(vec![Instr::Nop, Instr::Nop]).content_hash()
        );
    }

    #[test]
    fn from_iterator() {
        let p: Program = [Instr::Nop, Instr::Halt].into_iter().collect();
        assert_eq!(p.len(), 2);
        assert_eq!(p.vector_instr_count(), 0);
    }
}
