//! Property test: every instruction shape disassembles to text.

use dsa_isa::{AddrMode, AluOp, Cond, ElemType, Instr, MemSize, Operand, QReg, Reg, VecOp};
use proptest::prelude::*;

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

fn any_qreg() -> impl Strategy<Value = QReg> {
    (0u8..16).prop_map(QReg::new)
}

fn any_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Ge),
        Just(Cond::Lt),
        Just(Cond::Gt),
        Just(Cond::Le),
        Just(Cond::Al),
    ]
}

fn any_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Rsb),
        Just(AluOp::Mul),
        Just(AluOp::And),
        Just(AluOp::Orr),
        Just(AluOp::Eor),
        Just(AluOp::Lsl),
        Just(AluOp::Lsr),
        Just(AluOp::Asr),
        Just(AluOp::FAdd),
        Just(AluOp::FSub),
        Just(AluOp::FMul),
    ]
}

fn any_vec_op() -> impl Strategy<Value = VecOp> {
    prop_oneof![
        Just(VecOp::Add),
        Just(VecOp::Sub),
        Just(VecOp::Mul),
        Just(VecOp::Min),
        Just(VecOp::Max),
        Just(VecOp::And),
        Just(VecOp::Orr),
        Just(VecOp::Eor),
    ]
}

fn any_elem() -> impl Strategy<Value = ElemType> {
    prop_oneof![
        Just(ElemType::I8),
        Just(ElemType::I16),
        Just(ElemType::I32),
        Just(ElemType::F32),
    ]
}

fn any_size() -> impl Strategy<Value = MemSize> {
    prop_oneof![Just(MemSize::B), Just(MemSize::H), Just(MemSize::W)]
}

fn any_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![any_reg().prop_map(Operand::Reg), any::<i16>().prop_map(Operand::Imm)]
}

fn any_mode() -> impl Strategy<Value = AddrMode> {
    prop_oneof![
        any::<i16>().prop_map(AddrMode::Offset),
        any::<i16>().prop_map(AddrMode::PostInc),
        any::<i16>().prop_map(AddrMode::PreInc),
    ]
}

fn any_lane(et: ElemType) -> impl Strategy<Value = u8> {
    0u8..(et.lanes() as u8)
}

fn any_instr() -> impl Strategy<Value = Instr> {
    let branch_off = -(1i32 << 23)..(1i32 << 23);
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        Just(Instr::BxLr),
        (any_reg(), any::<i16>()).prop_map(|(rd, imm)| Instr::MovImm { rd, imm }),
        (any_reg(), any::<u16>()).prop_map(|(rd, imm)| Instr::MovTop { rd, imm }),
        (any_reg(), any_reg()).prop_map(|(rd, rm)| Instr::Mov { rd, rm }),
        (any_alu_op(), any_reg(), any_reg(), any_operand())
            .prop_map(|(op, rd, rn, src2)| Instr::Alu { op, rd, rn, src2 }),
        (any_reg(), any_operand()).prop_map(|(rn, src2)| Instr::Cmp { rn, src2 }),
        (any_cond(), branch_off.clone()).prop_map(|(cond, offset)| Instr::B { cond, offset }),
        branch_off.prop_map(|offset| Instr::Bl { offset }),
        (any_reg(), any_reg(), any_mode(), any_size())
            .prop_map(|(rd, rn, mode, size)| Instr::Ldr { rd, rn, mode, size }),
        (any_reg(), any_reg(), any_mode(), any_size())
            .prop_map(|(rs, rn, mode, size)| Instr::Str { rs, rn, mode, size }),
        (any_reg(), any_reg(), any_reg(), 0u8..8, any_size())
            .prop_map(|(rd, rn, rm, lsl, size)| Instr::LdrReg { rd, rn, rm, lsl, size }),
        (any_reg(), any_reg(), any_reg(), 0u8..8, any_size())
            .prop_map(|(rs, rn, rm, lsl, size)| Instr::StrReg { rs, rn, rm, lsl, size }),
        (any_qreg(), any_reg(), any::<bool>(), any_elem())
            .prop_map(|(qd, rn, writeback, et)| Instr::Vld1 { qd, rn, writeback, et }),
        (any_qreg(), any_reg(), any::<bool>(), any_elem())
            .prop_map(|(qs, rn, writeback, et)| Instr::Vst1 { qs, rn, writeback, et }),
        (any_qreg(), any_reg(), any::<bool>(), any_elem()).prop_flat_map(
            |(qd, rn, writeback, et)| any_lane(et)
                .prop_map(move |lane| Instr::Vld1Lane { qd, lane, rn, writeback, et })
        ),
        (any_qreg(), any_reg(), any::<bool>(), any_elem()).prop_flat_map(
            |(qs, rn, writeback, et)| any_lane(et)
                .prop_map(move |lane| Instr::Vst1Lane { qs, lane, rn, writeback, et })
        ),
        (any_vec_op(), any_elem(), any_qreg(), any_qreg(), any_qreg())
            .prop_map(|(op, et, qd, qn, qm)| Instr::Vop { op, et, qd, qn, qm }),
        (any_qreg(), any::<i16>(), any_elem())
            .prop_map(|(qd, imm, et)| Instr::VdupImm { qd, imm, et }),
        (any_qreg(), any_reg(), any_elem()).prop_map(|(qd, rm, et)| Instr::Vdup { qd, rm, et }),
        (any_qreg(), any_qreg(), prop_oneof![
            Just(ElemType::I8), Just(ElemType::I16), Just(ElemType::I32)
        ])
        .prop_flat_map(|(qd, qn, et)| {
            (0u8..(et.lane_bytes() * 8) as u8)
                .prop_map(move |shift| Instr::VshrImm { qd, qn, shift, et })
        }),
        (any_qreg(), any_qreg()).prop_map(|(qd, qm)| Instr::Vmov { qd, qm }),
        (any_reg(), any_qreg(), any_elem()).prop_map(|(rd, qn, et)| Instr::Vaddv { rd, qn, et }),
        (any_reg(), any_qreg(), any_elem()).prop_flat_map(|(rd, qn, et)| any_lane(et)
            .prop_map(move |lane| Instr::VmovToScalar { rd, qn, lane, et })),
        (any_qreg(), any_reg(), any_elem()).prop_flat_map(|(qd, rm, et)| any_lane(et)
            .prop_map(move |lane| Instr::VmovFromScalar { qd, lane, rm, et })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn disassembly_is_nonempty(instr in any_instr()) {
        prop_assert!(!instr.to_string().is_empty());
    }
}
