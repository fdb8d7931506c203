//! The acceptance gate for the superblock fast path: for random
//! programs (scalar + vector, loops, memory traffic), a block-mode run
//! (`NullHook`) must be **bit-identical** to a step-mode run
//! (`Stepped(NullHook)`, the classic per-commit loop) in
//! architectural digest, cycles, committed count, `TimingStats` and
//! `MemoryStats` — on clean completion, on fuel exhaustion, and across
//! pause points that land in the middle of straight-line blocks.

use dsa_cpu::{
    BoundedOutcome, CpuConfig, DecodedProgram, Machine, NullHook, SimError, Simd, Simulator,
    Stepped,
};
use dsa_isa::{Asm, Cond, ElemType, Program, Reg, VecOp};
use dsa_mem::MemoryConfig;
use proptest::prelude::*;

/// Random always-terminating loop program mixing scalar ALU, memory,
/// and vector ops, so fast runs of varying lengths interleave with
/// stepped instructions (loads/stores/branches).
fn program_from(seed: &[u8], trip: u16) -> Program {
    let mut a = Asm::new();
    a.mov_imm(Reg::R0, 0);
    a.mov_imm(Reg::R2, 0x4000);
    a.mov_imm(Reg::R3, 0x6000);
    a.vdup_imm(dsa_isa::QReg::Q1, 3, ElemType::I16);
    let top = a.here();
    for (i, &b) in seed.iter().enumerate() {
        let rd = Reg::new(4 + (b % 6));
        let q = dsa_isa::QReg::new(2 + (b % 4));
        match b % 11 {
            0 => a.add_imm(rd, rd, (b as i16) - 100),
            1 => a.mul(rd, rd, Reg::new(4 + ((b / 7) % 6))),
            2 => a.eor(rd, rd, Reg::new(4 + ((b / 3) % 6))),
            3 => a.ldr(rd, Reg::R2, (i as i16 % 32) * 4),
            4 => a.str(rd, Reg::R3, (i as i16 % 32) * 4),
            5 => a.lsr_imm(rd, rd, (b % 15) as i16),
            6 => a.vop(VecOp::Add, ElemType::I16, q, q, dsa_isa::QReg::Q1),
            7 => a.vdup(q, rd, ElemType::I32),
            8 => a.vshr_imm(q, q, (b % 8) + 1, ElemType::I16),
            9 => a.vaddv(rd, q, ElemType::I16),
            _ => a.sub(rd, rd, Reg::new(4 + ((b / 5) % 6))),
        }
    }
    a.add_imm(Reg::R0, Reg::R0, 1);
    a.cmp_imm(Reg::R0, trip.max(1) as i16);
    a.b_to(Cond::Ne, top);
    a.halt();
    a.finish()
}

fn sim_for(program: &Program) -> Simulator {
    Simulator::new(program.clone(), CpuConfig::default())
}

/// A simulator whose machine is pinned to a specific host-SIMD backend.
fn sim_for_backend(program: &Program, simd: Simd) -> Simulator {
    let mut machine = Machine::new();
    machine.set_simd(simd);
    Simulator::with_machine(program.clone(), CpuConfig::default(), machine)
}

/// Asserts every observable of two finished (or equally-failed) runs is
/// identical.
fn assert_outcomes_match(
    step: &Simulator,
    block: &Simulator,
    step_out: &Result<dsa_cpu::RunOutcome, SimError>,
    block_out: &Result<dsa_cpu::RunOutcome, SimError>,
) {
    assert_eq!(step_out, block_out, "run outcome / error");
    assert_eq!(step.machine().arch_digest(), block.machine().arch_digest(), "arch digest");
    assert_eq!(step.machine().pc(), block.machine().pc(), "pc");
    assert_eq!(step.machine().regs(), block.machine().regs(), "scalar regs");
    assert_eq!(step.machine().qregs(), block.machine().qregs(), "vector regs");
    assert_eq!(step.machine().flags(), block.machine().flags(), "flags");
    let (s, b) = (step.outcome(), block.outcome());
    assert_eq!(s.cycles, b.cycles, "cycles");
    assert_eq!(s.committed, b.committed, "committed");
    assert_eq!(s.timing, b.timing, "timing stats");
    assert_eq!(s.mem, b.mem, "memory stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clean-completion equivalence over random programs.
    #[test]
    fn block_mode_is_bit_identical_to_step_mode(
        seed in prop::collection::vec(any::<u8>(), 1..48),
        trip in 1u16..50,
    ) {
        let p = program_from(&seed, trip);
        let mut step = sim_for(&p);
        let step_out = step.run_with_hook(5_000_000, &mut Stepped(NullHook));
        let mut block = sim_for(&p);
        let block_out = block.run_with_hook(5_000_000, &mut NullHook);
        prop_assert!(step_out.is_ok());
        assert_outcomes_match(&step, &block, &step_out, &block_out);
    }

    /// Equivalence when the fuel watchdog fires mid-run: the fast path
    /// must land on the *exact* same commit count (it never splits a
    /// block across the budget) and report the same error.
    #[test]
    fn fuel_exhaustion_is_bit_identical(
        seed in prop::collection::vec(any::<u8>(), 1..48),
        fuel in 1u64..400,
    ) {
        // Never-halting loop: trip count far above what fuel allows.
        let p = program_from(&seed, 10_000);
        let mut step = sim_for(&p);
        let step_out = step.run_with_hook(fuel, &mut Stepped(NullHook));
        let mut block = sim_for(&p);
        let block_out = block.run_with_hook(fuel, &mut NullHook);
        prop_assert!(step_out.is_err());
        assert_outcomes_match(&step, &block, &step_out, &block_out);
        prop_assert_eq!(step.outcome().committed, fuel);
    }

    /// `run_bounded` pause points are architecturally exact in block
    /// mode: pausing at an arbitrary split (frequently mid-block),
    /// capturing, restoring and finishing matches the uninterrupted
    /// step-mode run in digest, registers and memory. (Cycles are
    /// exempt across a restore — timing state is not part of a
    /// snapshot, by design.)
    #[test]
    fn paused_block_run_resumes_to_identical_state(
        seed in prop::collection::vec(any::<u8>(), 1..32),
        trip in 2u16..40,
        split in 1u64..2_000,
    ) {
        let p = program_from(&seed, trip);
        let mut reference = sim_for(&p);
        reference.run_with_hook(5_000_000, &mut Stepped(NullHook)).expect("terminates");

        let mut first = sim_for(&p);
        match first.run_bounded(split, &mut NullHook).expect("no exec error") {
            BoundedOutcome::Halted(_) => {
                // Split beyond program length: nothing to resume.
                prop_assert_eq!(
                    first.machine().arch_digest(),
                    reference.machine().arch_digest()
                );
            }
            BoundedOutcome::Paused => {
                prop_assert_eq!(first.outcome().committed, split, "exact pause point");
                let state = first.machine().capture();
                let mut second = Simulator::with_machine(
                    p.clone(),
                    CpuConfig::default(),
                    Machine::restore(&state),
                );
                let done = second.run_bounded(5_000_000, &mut NullHook).expect("ok");
                prop_assert!(matches!(done, BoundedOutcome::Halted(_)));
                prop_assert_eq!(
                    second.machine().arch_digest(),
                    reference.machine().arch_digest()
                );
                prop_assert_eq!(second.machine().regs(), reference.machine().regs());
                prop_assert_eq!(second.machine().qregs(), reference.machine().qregs());
            }
        }
    }

    /// The decode itself is deterministic and the functional fast run
    /// matches stepping instruction-for-instruction at every prefix.
    #[test]
    fn exec_run_prefixes_match_stepping(
        seed in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let p = program_from(&seed, 1);
        let d = DecodedProgram::decode(&p);
        let n = d.run_len(0);
        prop_assert!(n >= 4, "program opens with a fast run");
        let mut stepped = Machine::new();
        for _ in 0..n {
            stepped.step(&p).expect("fast prefix steps cleanly");
        }
        let mut fast = Machine::new();
        dsa_cpu::decode_cached(&p); // exercise the shared cache too
        d.exec_run(&mut fast, 0, n, &mut Vec::new());
        prop_assert_eq!(fast.arch_digest(), stepped.arch_digest());
        prop_assert_eq!(fast.pc(), stepped.pc());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whole-run cross-backend equivalence: for every compiled-in
    /// host-SIMD backend, a block-mode run must match the **portable
    /// step-mode** run in architectural digest, registers, cycles and
    /// statistics — the acceptance gate that the backend changes only
    /// how lane values are computed, never what they are or what they
    /// cost.
    #[test]
    fn every_backend_is_bit_identical_to_portable_stepping(
        seed in prop::collection::vec(any::<u8>(), 1..48),
        trip in 1u16..50,
    ) {
        let p = program_from(&seed, trip);
        let mut reference = sim_for_backend(&p, Simd::portable());
        let ref_out = reference.run_with_hook(5_000_000, &mut Stepped(NullHook));
        prop_assert!(ref_out.is_ok());
        let ref_out = ref_out.expect("checked");
        for &be in Simd::available() {
            let mut block = sim_for_backend(&p, be);
            let out = block.run_with_hook(5_000_000, &mut NullHook);
            prop_assert!(out.is_ok(), "{}: {:?}", be.name(), out);
            let out = out.expect("checked");
            prop_assert_eq!(
                block.machine().arch_digest(),
                reference.machine().arch_digest(),
                "{}: arch digest", be.name()
            );
            prop_assert_eq!(block.machine().regs(), reference.machine().regs());
            prop_assert_eq!(block.machine().qregs(), reference.machine().qregs());
            prop_assert_eq!(block.machine().flags(), reference.machine().flags());
            prop_assert_eq!(out.cycles, ref_out.cycles, "{}: cycles", be.name());
            prop_assert_eq!(out.committed, ref_out.committed);
            prop_assert_eq!(out.timing, ref_out.timing, "{}: timing stats", be.name());
            prop_assert_eq!(out.mem, ref_out.mem, "{}: memory stats", be.name());
            prop_assert_eq!(out.simd_backend, be.name(), "outcome records its backend");
        }
    }
}

/// Vector-lane executor errors must surface identically in both modes:
/// an invalid `vshr` shape is routed to the stepped path at predecode
/// time, so the block-mode run returns the same `ExecError` at the same
/// PC with the same partial state.
#[test]
fn invalid_vshr_fails_identically_in_both_modes() {
    let mut a = Asm::new();
    a.mov_imm(Reg::R1, 7);
    a.add_imm(Reg::R1, Reg::R1, 1);
    a.vshr_imm(dsa_isa::QReg::Q0, dsa_isa::QReg::Q1, 16, ElemType::I16); // rejected
    a.halt();
    let p = a.finish();
    let mut step = sim_for(&p);
    let step_out = step.run_with_hook(1_000, &mut Stepped(NullHook));
    let mut block = sim_for(&p);
    let block_out = block.run_with_hook(1_000, &mut NullHook);
    assert!(step_out.is_err());
    assert_eq!(step_out, block_out);
    assert_eq!(step.machine().pc(), block.machine().pc());
    assert_eq!(step.outcome().committed, block.outcome().committed);
    assert_eq!(step.machine().arch_digest(), block.machine().arch_digest());
}

/// A cache-cold vs cache-warm shaped program whose straight-line body
/// spans several I-cache lines: batched line-grouped fetch accounting
/// must equal the stepped per-fetch accounting exactly.
#[test]
fn icache_stats_identical_across_line_boundaries() {
    let mut a = Asm::new();
    // 100-instruction straight-line body (> 6 64-byte lines) inside a loop.
    a.mov_imm(Reg::R0, 0);
    let top = a.here();
    for i in 0..100 {
        a.add_imm(Reg::new(4 + (i % 6) as u8), Reg::new(4 + (i % 6) as u8), 1);
    }
    a.add_imm(Reg::R0, Reg::R0, 1);
    a.cmp_imm(Reg::R0, 50);
    a.b_to(Cond::Ne, top);
    a.halt();
    let p = a.finish();

    let mut step = sim_for(&p);
    let s = step.run_with_hook(1_000_000, &mut Stepped(NullHook)).expect("ok");
    let mut block = sim_for(&p);
    let b = block.run_with_hook(1_000_000, &mut NullHook).expect("ok");
    assert_eq!(s.mem.l1i, b.mem.l1i, "L1I stats");
    assert_eq!(s.mem, b.mem);
    assert_eq!(s.cycles, b.cycles);
    assert_eq!(s.timing, b.timing);
}

/// The fast path must also be bit-identical under a non-default memory
/// geometry (different line size changes the fetch grouping).
#[test]
fn equivalence_holds_with_small_icache_lines() {
    let p = program_from(&[1, 6, 8, 9, 2, 0, 7, 3, 4, 5, 10, 20, 30], 40);
    let config = CpuConfig {
        mem: MemoryConfig {
            l1i: dsa_mem::CacheConfig::new(1024, 16, 2),
            ..MemoryConfig::default()
        },
        ..CpuConfig::default()
    };
    let mut step = Simulator::new(p.clone(), config);
    let s = step.run_with_hook(1_000_000, &mut Stepped(NullHook)).expect("ok");
    let mut block = Simulator::new(p, config);
    let b = block.run_with_hook(1_000_000, &mut NullHook).expect("ok");
    assert_eq!(s, b);
    assert_eq!(step.machine().arch_digest(), block.machine().arch_digest());
}
