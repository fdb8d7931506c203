//! Focused timing-model behaviours: alignment-dependent vector memory
//! slots, NEON queue pressure, ROB windowing and stall accounting.

use dsa_cpu::{CpuConfig, InjectedOp, TimingModel};
use dsa_isa::{ElemType, QReg, Reg, VecOp};

fn vld(q: u8, addr: u32) -> InjectedOp {
    InjectedOp::vld1(QReg::new(q), Reg::R2, ElemType::I32, addr)
}

#[test]
fn injected_aligned_streams_beat_unaligned() {
    // Same access pattern, shifted by 4 bytes: the unaligned version
    // occupies two LS slots per access.
    let run = |base: u32| {
        let mut t = TimingModel::new(CpuConfig::default());
        t.warm_region(0x10000, 64 << 10);
        let ops: Vec<InjectedOp> =
            (0..64).map(|i| vld((4 + i % 4) as u8, 0x10000 + base + 16 * i)).collect();
        t.charge_injected(&ops);
        t.cycles()
    };
    let aligned = run(0);
    let unaligned = run(4);
    assert!(
        unaligned > aligned,
        "unaligned form must cost more LS slots: {unaligned} vs {aligned}"
    );
}

#[test]
fn neon_queue_fills_under_long_latency() {
    // Cold memory: vector loads miss to DRAM; more loads than queue
    // entries must produce queue stalls.
    let mut t = TimingModel::new(CpuConfig::default());
    let ops: Vec<InjectedOp> = (0..64).map(|i| vld((4 + i % 4) as u8, 0x40000 + 64 * i)).collect();
    t.charge_injected(&ops);
    assert!(t.stats().neon_queue_stalls > 0, "16-entry queue must fill");
}

#[test]
fn vector_alu_chain_respects_latency() {
    let cfg = CpuConfig::default();
    let mut t = TimingModel::new(cfg);
    // Strict dependency chain of 10 vector adds.
    let mut prev = QReg::Q0;
    for i in 1..=10u8 {
        let qd = QReg::new(i % 16);
        t.charge_injected(&[InjectedOp::vop(VecOp::Add, ElemType::I32, qd, prev, prev)]);
        prev = qd;
    }
    assert!(
        t.cycles() >= 10 * cfg.neon.alu_latency as u64,
        "chain of 10 serialises: {}",
        t.cycles()
    );
}

#[test]
fn stall_and_injection_compose() {
    let mut t = TimingModel::new(CpuConfig::default());
    t.charge_stall(100);
    t.charge_injected(&[InjectedOp::vop(VecOp::Add, ElemType::I32, QReg::Q8, QReg::Q0, QReg::Q1)]);
    assert!(t.cycles() > 100, "injected work starts after the stall");
    assert_eq!(t.stats().stall_cycles, 100);
}

#[test]
fn injected_counts_are_separate_from_committed() {
    let mut t = TimingModel::new(CpuConfig::default());
    t.charge_injected(&[InjectedOp::vop(VecOp::Mul, ElemType::F32, QReg::Q8, QReg::Q0, QReg::Q1)]);
    let s = t.stats();
    assert_eq!(s.injected, 1);
    assert_eq!(s.committed, 0);
    assert_eq!(s.injected_counts.vector_total(), 1);
    assert_eq!(s.counts.vector_total(), 0);
}
