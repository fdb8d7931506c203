//! Instruction forms and their operand types.

use std::fmt;

use crate::reg::{QReg, Reg};

/// Branch condition codes (a subset of the ARM condition field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (`Z == 1`).
    Eq,
    /// Not equal (`Z == 0`).
    Ne,
    /// Signed greater-or-equal (`N == V`).
    Ge,
    /// Signed less-than (`N != V`).
    Lt,
    /// Signed greater-than (`Z == 0 && N == V`).
    Gt,
    /// Signed less-or-equal (`Z == 1 || N != V`).
    Le,
    /// Always.
    Al,
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Ge => "ge",
            Cond::Lt => "lt",
            Cond::Gt => "gt",
            Cond::Le => "le",
            Cond::Al => "",
        };
        f.write_str(s)
    }
}

/// Scalar ALU operations.
///
/// The `F*` variants interpret the 32-bit register contents as IEEE-754
/// single-precision values (a simplification of the separate ARM VFP
/// register file, documented in `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    /// Reverse subtract: `rd = src2 - rn`.
    Rsb,
    Mul,
    And,
    Orr,
    Eor,
    /// Logical shift left.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Single-precision float add.
    FAdd,
    /// Single-precision float subtract.
    FSub,
    /// Single-precision float multiply.
    FMul,
}

impl AluOp {
    /// Whether this operation interprets its operands as floats.
    pub fn is_float(self) -> bool {
        matches!(self, AluOp::FAdd | AluOp::FSub | AluOp::FMul)
    }

    /// Whether this operation is a multiply (longer functional-unit latency).
    pub fn is_mul(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::FMul)
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Rsb => "rsb",
            AluOp::Mul => "mul",
            AluOp::And => "and",
            AluOp::Orr => "orr",
            AluOp::Eor => "eor",
            AluOp::Lsl => "lsl",
            AluOp::Lsr => "lsr",
            AluOp::Asr => "asr",
            AluOp::FAdd => "fadd",
            AluOp::FSub => "fsub",
            AluOp::FMul => "fmul",
        };
        f.write_str(s)
    }
}

/// The second source operand of ALU and compare instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// A signed 16-bit immediate.
    Imm(i16),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "#{i}"),
        }
    }
}

/// Width of a scalar memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// Byte (8 bits, zero-extended on load).
    B,
    /// Half-word (16 bits, zero-extended on load).
    H,
    /// Word (32 bits).
    W,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::B => 1,
            MemSize::H => 2,
            MemSize::W => 4,
        }
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSize::B => "b",
            MemSize::H => "h",
            MemSize::W => "",
        };
        f.write_str(s)
    }
}

/// Addressing mode of scalar loads and stores.
///
/// Post-indexed accesses (`ldr r3, [r5], #4`) are the canonical induction
/// pattern the DSA's Data Collection stage keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMode {
    /// Access at `rn + imm`, no writeback.
    Offset(i16),
    /// Access at `rn`, then `rn += imm`.
    PostInc(i16),
    /// `rn += imm`, then access at `rn`.
    PreInc(i16),
}

impl AddrMode {
    /// The immediate carried by this addressing mode.
    pub fn imm(self) -> i16 {
        match self {
            AddrMode::Offset(i) | AddrMode::PostInc(i) | AddrMode::PreInc(i) => i,
        }
    }

    /// Whether the base register is written back.
    pub fn writeback(self) -> bool {
        !matches!(self, AddrMode::Offset(_))
    }
}

/// Element type of a 128-bit vector operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// Sixteen 8-bit integer lanes.
    I8,
    /// Eight 16-bit integer lanes.
    I16,
    /// Four 32-bit integer lanes.
    I32,
    /// Four single-precision float lanes.
    F32,
}

impl ElemType {
    /// Every element type.
    pub const ALL: [ElemType; 4] =
        [ElemType::I8, ElemType::I16, ElemType::I32, ElemType::F32];

    /// Number of lanes in a 128-bit register.
    pub fn lanes(self) -> u32 {
        match self {
            ElemType::I8 => 16,
            ElemType::I16 => 8,
            ElemType::I32 | ElemType::F32 => 4,
        }
    }

    /// Width of one lane in bytes.
    pub fn lane_bytes(self) -> u32 {
        match self {
            ElemType::I8 => 1,
            ElemType::I16 => 2,
            ElemType::I32 | ElemType::F32 => 4,
        }
    }

    /// Whether lanes are interpreted as floats.
    pub fn is_float(self) -> bool {
        matches!(self, ElemType::F32)
    }

    /// The scalar access width matching one lane.
    pub fn mem_size(self) -> MemSize {
        match self {
            ElemType::I8 => MemSize::B,
            ElemType::I16 => MemSize::H,
            ElemType::I32 | ElemType::F32 => MemSize::W,
        }
    }
}

impl fmt::Display for ElemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ElemType::I8 => "i8",
            ElemType::I16 => "i16",
            ElemType::I32 => "i32",
            ElemType::F32 => "f32",
        };
        f.write_str(s)
    }
}

/// Element-wise vector ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
    And,
    Orr,
    Eor,
}

impl VecOp {
    /// Every lane operation.
    pub const ALL: [VecOp; 8] = [
        VecOp::Add,
        VecOp::Sub,
        VecOp::Mul,
        VecOp::Min,
        VecOp::Max,
        VecOp::And,
        VecOp::Orr,
        VecOp::Eor,
    ];

    /// Whether the operation is a multiply (longer latency).
    pub fn is_mul(self) -> bool {
        matches!(self, VecOp::Mul)
    }

    /// Whether applying the operation twice to the same inputs produces the
    /// same destination lanes (relevant for the Overlapping leftover
    /// strategy, which re-executes a few lanes).
    pub fn is_idempotent_rewrite(self) -> bool {
        // All element-wise ops are pure functions of their source lanes, so
        // recomputing a lane always yields the same value; the distinction
        // matters only for accumulating updates (handled at a higher level).
        true
    }
}

impl fmt::Display for VecOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VecOp::Add => "vadd",
            VecOp::Sub => "vsub",
            VecOp::Mul => "vmul",
            VecOp::Min => "vmin",
            VecOp::Max => "vmax",
            VecOp::And => "vand",
            VecOp::Orr => "vorr",
            VecOp::Eor => "veor",
        };
        f.write_str(s)
    }
}

/// One machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
    /// `rd = imm` (sign-extended 16-bit immediate).
    MovImm { rd: Reg, imm: i16 },
    /// `rd = (imm << 16) | (rd & 0xffff)` — pairs with [`Instr::MovImm`] to
    /// materialise 32-bit constants, like ARM `movt`.
    MovTop { rd: Reg, imm: u16 },
    /// `rd = rm`.
    Mov { rd: Reg, rm: Reg },
    /// `rd = rn <op> src2`.
    Alu { op: AluOp, rd: Reg, rn: Reg, src2: Operand },
    /// Compare `rn` with `src2` and set the NZCV flags (signed).
    Cmp { rn: Reg, src2: Operand },
    /// PC-relative conditional branch; target is `pc + offset` in
    /// instruction units. A negative offset is a backward branch.
    B { cond: Cond, offset: i32 },
    /// Branch-and-link; `lr = pc + 1`, target is `pc + offset`.
    Bl { offset: i32 },
    /// Return: `pc = lr`.
    BxLr,
    /// Scalar load: `rd = mem[addr(rn, mode)]`, zero-extended.
    Ldr { rd: Reg, rn: Reg, mode: AddrMode, size: MemSize },
    /// Scalar store: `mem[addr(rn, mode)] = rs` (low `size` bytes).
    Str { rs: Reg, rn: Reg, mode: AddrMode, size: MemSize },
    /// Register-indexed load: `rd = mem[rn + (rm << lsl)]`.
    LdrReg { rd: Reg, rn: Reg, rm: Reg, lsl: u8, size: MemSize },
    /// Register-indexed store: `mem[rn + (rm << lsl)] = rs`.
    StrReg { rs: Reg, rn: Reg, rm: Reg, lsl: u8, size: MemSize },
    /// Vector load of 16 contiguous bytes: `qd = mem[rn..rn+16]`; if
    /// `writeback`, `rn += 16`.
    Vld1 { qd: QReg, rn: Reg, writeback: bool, et: ElemType },
    /// Vector store of 16 contiguous bytes; if `writeback`, `rn += 16`.
    Vst1 { qs: QReg, rn: Reg, writeback: bool, et: ElemType },
    /// Load a single lane; if `writeback`, `rn += lane_bytes`.
    Vld1Lane { qd: QReg, lane: u8, rn: Reg, writeback: bool, et: ElemType },
    /// Store a single lane; if `writeback`, `rn += lane_bytes`.
    Vst1Lane { qs: QReg, lane: u8, rn: Reg, writeback: bool, et: ElemType },
    /// Element-wise vector operation: `qd = qn <op> qm`.
    Vop { op: VecOp, et: ElemType, qd: QReg, qn: QReg, qm: QReg },
    /// Lane-wise logical shift right by an immediate (integer lanes only).
    VshrImm { qd: QReg, qn: QReg, shift: u8, et: ElemType },
    /// Splat a scalar register into every lane (NEON `vdup`).
    Vdup { qd: QReg, rm: Reg, et: ElemType },
    /// Splat an immediate into every lane.
    VdupImm { qd: QReg, imm: i16, et: ElemType },
    /// `qd = qm`.
    Vmov { qd: QReg, qm: QReg },
    /// Horizontal reduce-add of all lanes into a scalar register (like
    /// AArch64 `addv`; stands in for ARMv7 `vpadd` chains).
    Vaddv { rd: Reg, qn: QReg, et: ElemType },
    /// Move one lane to a scalar register.
    VmovToScalar { rd: Reg, qn: QReg, lane: u8, et: ElemType },
    /// Move a scalar register into one lane.
    VmovFromScalar { qd: QReg, lane: u8, rm: Reg, et: ElemType },
}

/// Coarse instruction class used by the timing and energy models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    Nop,
    Halt,
    IntAlu,
    IntMul,
    FpAlu,
    FpMul,
    Load,
    Store,
    Branch,
    Call,
    Return,
    VecLoad,
    VecStore,
    VecAlu,
    VecMul,
    VecMove,
}

impl InstrClass {
    /// Whether the class executes on the vector (NEON) engine.
    pub fn is_vector(self) -> bool {
        matches!(
            self,
            InstrClass::VecLoad
                | InstrClass::VecStore
                | InstrClass::VecAlu
                | InstrClass::VecMul
                | InstrClass::VecMove
        )
    }
}

impl Instr {
    /// The coarse class of this instruction.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Nop => InstrClass::Nop,
            Instr::Halt => InstrClass::Halt,
            Instr::MovImm { .. } | Instr::MovTop { .. } | Instr::Mov { .. } => InstrClass::IntAlu,
            Instr::Alu { op, .. } => match (op.is_float(), op.is_mul()) {
                (false, false) => InstrClass::IntAlu,
                (false, true) => InstrClass::IntMul,
                (true, false) => InstrClass::FpAlu,
                (true, true) => InstrClass::FpMul,
            },
            Instr::Cmp { .. } => InstrClass::IntAlu,
            Instr::B { .. } => InstrClass::Branch,
            Instr::Bl { .. } => InstrClass::Call,
            Instr::BxLr => InstrClass::Return,
            Instr::Ldr { .. } | Instr::LdrReg { .. } => InstrClass::Load,
            Instr::Str { .. } | Instr::StrReg { .. } => InstrClass::Store,
            Instr::Vld1 { .. } | Instr::Vld1Lane { .. } => InstrClass::VecLoad,
            Instr::Vst1 { .. } | Instr::Vst1Lane { .. } => InstrClass::VecStore,
            Instr::Vop { op, .. } => {
                if op.is_mul() {
                    InstrClass::VecMul
                } else {
                    InstrClass::VecAlu
                }
            }
            Instr::VshrImm { .. } => InstrClass::VecAlu,
            Instr::VdupImm { .. }
            | Instr::Vdup { .. }
            | Instr::Vmov { .. }
            | Instr::Vaddv { .. }
            | Instr::VmovToScalar { .. }
            | Instr::VmovFromScalar { .. } => InstrClass::VecMove,
        }
    }

    /// Whether this instruction executes on the vector engine.
    pub fn is_vector(&self) -> bool {
        self.class().is_vector()
    }

    /// Whether this instruction may redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(self, Instr::B { .. } | Instr::Bl { .. } | Instr::BxLr)
    }

    /// Whether this instruction reads or writes data memory (and so must
    /// consult the cache model when its timing is charged). Instruction
    /// fetch is not counted — every instruction fetches.
    pub fn touches_memory(&self) -> bool {
        self.mem_shape().is_some()
    }

    /// The data-memory access this instruction makes, as `(writes,
    /// bytes)`: whether it is a store, and its width — the scalar size,
    /// 16 for a whole-register `vld1`/`vst1`, the lane width for the
    /// lane forms. `None` for instructions that do not touch memory.
    /// The one rule every committed-access record is built from.
    #[inline]
    pub fn mem_shape(&self) -> Option<(bool, u8)> {
        match *self {
            Instr::Ldr { size, .. } | Instr::LdrReg { size, .. } => {
                Some((false, size.bytes() as u8))
            }
            Instr::Str { size, .. } | Instr::StrReg { size, .. } => {
                Some((true, size.bytes() as u8))
            }
            Instr::Vld1 { .. } => Some((false, 16)),
            Instr::Vst1 { .. } => Some((true, 16)),
            Instr::Vld1Lane { et, .. } => Some((false, et.lane_bytes() as u8)),
            Instr::Vst1Lane { et, .. } => Some((true, et.lane_bytes() as u8)),
            _ => None,
        }
    }

    /// For PC-relative branches, the target given the instruction's own PC.
    pub fn branch_target(&self, pc: u32) -> Option<u32> {
        match self {
            Instr::B { offset, .. } | Instr::Bl { offset } => {
                Some((pc as i64 + *offset as i64) as u32)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn mode(f: &mut fmt::Formatter<'_>, rn: &Reg, m: &AddrMode) -> fmt::Result {
            match m {
                AddrMode::Offset(0) => write!(f, "[{rn}]"),
                AddrMode::Offset(i) => write!(f, "[{rn}, #{i}]"),
                AddrMode::PostInc(i) => write!(f, "[{rn}], #{i}"),
                AddrMode::PreInc(i) => write!(f, "[{rn}, #{i}]!"),
            }
        }
        match self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::MovImm { rd, imm } => write!(f, "mov {rd}, #{imm}"),
            Instr::MovTop { rd, imm } => write!(f, "movt {rd}, #{imm}"),
            Instr::Mov { rd, rm } => write!(f, "mov {rd}, {rm}"),
            Instr::Alu { op, rd, rn, src2 } => write!(f, "{op} {rd}, {rn}, {src2}"),
            Instr::Cmp { rn, src2 } => write!(f, "cmp {rn}, {src2}"),
            Instr::B { cond, offset } => write!(f, "b{cond} {offset:+}"),
            Instr::Bl { offset } => write!(f, "bl {offset:+}"),
            Instr::BxLr => write!(f, "bx lr"),
            Instr::Ldr { rd, rn, mode: m, size } => {
                write!(f, "ldr{size} {rd}, ")?;
                mode(f, rn, m)
            }
            Instr::Str { rs, rn, mode: m, size } => {
                write!(f, "str{size} {rs}, ")?;
                mode(f, rn, m)
            }
            Instr::LdrReg { rd, rn, rm, lsl, size } => {
                write!(f, "ldr{size} {rd}, [{rn}, {rm}, lsl #{lsl}]")
            }
            Instr::StrReg { rs, rn, rm, lsl, size } => {
                write!(f, "str{size} {rs}, [{rn}, {rm}, lsl #{lsl}]")
            }
            Instr::Vld1 { qd, rn, writeback, et } => {
                write!(f, "vld1.{et} {qd}, [{rn}]{}", if *writeback { "!" } else { "" })
            }
            Instr::Vst1 { qs, rn, writeback, et } => {
                write!(f, "vst1.{et} {qs}, [{rn}]{}", if *writeback { "!" } else { "" })
            }
            Instr::Vld1Lane { qd, lane, rn, writeback, et } => write!(
                f,
                "vld1.{et} {qd}[{lane}], [{rn}]{}",
                if *writeback { "!" } else { "" }
            ),
            Instr::Vst1Lane { qs, lane, rn, writeback, et } => write!(
                f,
                "vst1.{et} {qs}[{lane}], [{rn}]{}",
                if *writeback { "!" } else { "" }
            ),
            Instr::Vop { op, et, qd, qn, qm } => write!(f, "{op}.{et} {qd}, {qn}, {qm}"),
            Instr::VshrImm { qd, qn, shift, et } => write!(f, "vshr.{et} {qd}, {qn}, #{shift}"),
            Instr::Vdup { qd, rm, et } => write!(f, "vdup.{et} {qd}, {rm}"),
            Instr::VdupImm { qd, imm, et } => write!(f, "vdup.{et} {qd}, #{imm}"),
            Instr::Vmov { qd, qm } => write!(f, "vmov {qd}, {qm}"),
            Instr::Vaddv { rd, qn, et } => write!(f, "vaddv.{et} {rd}, {qn}"),
            Instr::VmovToScalar { rd, qn, lane, et } => {
                write!(f, "vmov.{et} {rd}, {qn}[{lane}]")
            }
            Instr::VmovFromScalar { qd, lane, rm, et } => {
                write!(f, "vmov.{et} {qd}[{lane}], {rm}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_bytes() {
        assert_eq!(ElemType::I8.lanes(), 16);
        assert_eq!(ElemType::I16.lanes(), 8);
        assert_eq!(ElemType::I32.lanes(), 4);
        assert_eq!(ElemType::F32.lanes(), 4);
        for et in ElemType::ALL {
            assert_eq!(et.lanes() * et.lane_bytes(), 16);
        }
    }

    #[test]
    fn classes() {
        assert_eq!(Instr::Nop.class(), InstrClass::Nop);
        let mul = Instr::Alu {
            op: AluOp::Mul,
            rd: Reg::R0,
            rn: Reg::R1,
            src2: Operand::Reg(Reg::R2),
        };
        assert_eq!(mul.class(), InstrClass::IntMul);
        let fmul = Instr::Alu {
            op: AluOp::FMul,
            rd: Reg::R0,
            rn: Reg::R1,
            src2: Operand::Reg(Reg::R2),
        };
        assert_eq!(fmul.class(), InstrClass::FpMul);
        let v = Instr::Vop {
            op: VecOp::Mul,
            et: ElemType::I32,
            qd: QReg::Q0,
            qn: QReg::Q1,
            qm: QReg::Q2,
        };
        assert_eq!(v.class(), InstrClass::VecMul);
        assert!(v.is_vector());
        assert!(!mul.is_vector());
    }

    #[test]
    fn branch_targets() {
        let b = Instr::B { cond: Cond::Ne, offset: -3 };
        assert_eq!(b.branch_target(10), Some(7));
        assert_eq!(Instr::Nop.branch_target(10), None);
        assert!(b.is_control());
        assert!(Instr::BxLr.is_control());
    }

    #[test]
    fn memory_shapes() {
        let (r, q) = (Reg::R1, QReg::Q2);
        for (size, bytes) in [(MemSize::B, 1), (MemSize::H, 2), (MemSize::W, 4)] {
            let mode = AddrMode::Offset(0);
            let ldr = Instr::Ldr { rd: r, rn: r, mode, size };
            let str = Instr::Str { rs: r, rn: r, mode, size };
            let ldr_reg = Instr::LdrReg { rd: r, rn: r, rm: r, lsl: 2, size };
            let str_reg = Instr::StrReg { rs: r, rn: r, rm: r, lsl: 2, size };
            assert_eq!(ldr.mem_shape(), Some((false, bytes)), "{ldr}");
            assert_eq!(str.mem_shape(), Some((true, bytes)), "{str}");
            assert_eq!(ldr_reg.mem_shape(), Some((false, bytes)), "{ldr_reg}");
            assert_eq!(str_reg.mem_shape(), Some((true, bytes)), "{str_reg}");
        }
        for et in ElemType::ALL {
            let vld = Instr::Vld1 { qd: q, rn: r, writeback: true, et };
            let vst = Instr::Vst1 { qs: q, rn: r, writeback: false, et };
            assert_eq!(vld.mem_shape(), Some((false, 16)), "{vld}");
            assert_eq!(vst.mem_shape(), Some((true, 16)), "{vst}");
            let lane = et.lane_bytes() as u8;
            let vld_lane = Instr::Vld1Lane { qd: q, lane: 1, rn: r, writeback: true, et };
            let vst_lane = Instr::Vst1Lane { qs: q, lane: 0, rn: r, writeback: false, et };
            assert_eq!(vld_lane.mem_shape(), Some((false, lane)), "{vld_lane}");
            assert_eq!(vst_lane.mem_shape(), Some((true, lane)), "{vst_lane}");
        }
        let no_mem = [
            Instr::Nop,
            Instr::Halt,
            Instr::Mov { rd: r, rm: r },
            Instr::Cmp { rn: r, src2: Operand::Imm(3) },
            Instr::B { cond: Cond::Ne, offset: -2 },
            Instr::Bl { offset: 4 },
            Instr::BxLr,
            Instr::Vmov { qd: q, qm: q },
        ];
        for i in no_mem {
            assert_eq!(i.mem_shape(), None, "{i}");
            assert!(!i.touches_memory(), "{i}");
        }
    }

    #[test]
    fn display_forms() {
        let i = Instr::Ldr {
            rd: Reg::R3,
            rn: Reg::R5,
            mode: AddrMode::PostInc(4),
            size: MemSize::W,
        };
        assert_eq!(i.to_string(), "ldr r3, [r5], #4");
        let i = Instr::Vop {
            op: VecOp::Add,
            et: ElemType::F32,
            qd: QReg::Q9,
            qn: QReg::Q9,
            qm: QReg::Q8,
        };
        assert_eq!(i.to_string(), "vadd.f32 q9, q9, q8");
        let i = Instr::B { cond: Cond::Al, offset: 5 };
        assert_eq!(i.to_string(), "b +5");
    }

    #[test]
    fn display_extension_instructions() {
        let i = Instr::VshrImm { qd: QReg::Q1, qn: QReg::Q2, shift: 8, et: ElemType::I16 };
        assert_eq!(i.to_string(), "vshr.i16 q1, q2, #8");
        let i = Instr::Vdup { qd: QReg::Q3, rm: Reg::R7, et: ElemType::I8 };
        assert_eq!(i.to_string(), "vdup.i8 q3, r7");
        let i = Instr::Vaddv { rd: Reg::R2, qn: QReg::Q15, et: ElemType::I32 };
        assert_eq!(i.to_string(), "vaddv.i32 r2, q15");
    }

    #[test]
    fn addr_mode_accessors() {
        assert_eq!(AddrMode::PostInc(4).imm(), 4);
        assert!(AddrMode::PostInc(4).writeback());
        assert!(AddrMode::PreInc(-8).writeback());
        assert!(!AddrMode::Offset(12).writeback());
    }
}
