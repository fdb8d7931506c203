//! The acceptance gate for the superblock fast path: for random
//! programs (scalar + vector, loops, memory traffic), a block-mode run
//! (`NullHook`) must be **bit-identical** to a step-mode run
//! (`Stepped(NullHook)`, one commit, one charge and one callback at a
//! time) in
//! architectural digest, cycles, committed count, `TimingStats` and
//! `MemoryStats` — on clean completion, on fuel exhaustion, and across
//! pause points that land in the middle of straight-line blocks. A
//! block-taking hook must also see, through `SimControl::retired` plus
//! the terminal, exactly the event stream a stepped hook sees.

mod reference;

use dsa_cpu::{
    BoundedOutcome, CommitHook, CpuConfig, DecodedProgram, Machine, NullHook, SimControl, SimError,
    Simulator, Stepped, TraceEvent,
};
use reference::Reference;
use dsa_isa::{AddrMode, Asm, Cond, ElemType, Instr, MemSize, Program, QReg, Reg, VecOp};
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

/// Random loop over every `VecOp` × `ElemType`, with q0–q3 seeded lane
/// by lane from NaN payloads, infinities, signed zeros, denormals and
/// random bits, so the lane ops meet the float cases where their
/// results are hardest to pin down.
fn lane_op_program_from(seed: &[u8], trip: u16) -> Program {
    const SPECIALS: [u32; 6] =
        [0x7FC0_0000, 0xFFC0_0001, 0x7F80_0001, 0x8000_0000, 0x7F80_0000, 0x0000_0001];
    let mut a = Asm::new();
    for slot in 0..16u8 {
        let b = seed[slot as usize % seed.len()];
        let bits = if b.is_multiple_of(2) {
            SPECIALS[(b / 2) as usize % SPECIALS.len()]
        } else {
            (b as u32).wrapping_mul(0x9E37_79B9) ^ slot as u32
        };
        a.mov_imm(Reg::R1, bits as i32);
        a.emit(Instr::VmovFromScalar {
            qd: QReg::new(slot / 4),
            lane: slot % 4,
            rm: Reg::R1,
            et: ElemType::I32,
        });
    }
    a.mov_imm(Reg::R0, 0);
    let top = a.here();
    for &b in seed {
        let q = |k: u8| QReg::new(k % 6);
        let et = ElemType::ALL[(b / 8) as usize % ElemType::ALL.len()];
        match b % 13 {
            0 => a.vaddv(Reg::new(4 + b % 6), q(b / 3), et),
            1 if !et.is_float() => {
                a.vshr_imm(q(b / 3), q(b / 5), (b / 32) % (et.lane_bytes() as u8 * 8), et)
            }
            _ => a.vop(VecOp::ALL[b as usize % VecOp::ALL.len()], et, q(b / 3), q(b / 5), q(b / 7)),
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

    /// The functional fast run matches the `Instr`-level reference
    /// stepped instruction for instruction, at every prefix of the run.
    #[test]
    fn exec_run_prefixes_match_stepping(
        seed in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let p = program_from(&seed, 1);
        let d = DecodedProgram::decode(&p);
        let n = d.run_len(0);
        prop_assert!(n >= 4, "program opens with a fast run");
        let mut reference = Reference::default();
        for k in 1..=n {
            reference.step(p.as_slice()).expect("fast prefix steps cleanly");
            let mut fast = Machine::new();
            d.exec_run(&mut fast, 0, k, &mut Vec::new());
            reference.assert_matches(&fast, &format!("prefix {k}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clean-completion equivalence over every lane-op shape, float
    /// specials included: both interpreter shapes must reach the same
    /// `vec128` lane results, cycles and statistics.
    #[test]
    fn every_lane_op_blocks_bit_identically_to_stepping(
        seed in prop::collection::vec(any::<u8>(), 1..48),
        trip in 1u16..20,
    ) {
        let p = lane_op_program_from(&seed, trip);
        let mut step = sim_for(&p);
        let step_out = step.run_with_hook(5_000_000, &mut Stepped(NullHook));
        let mut block = sim_for(&p);
        let block_out = block.run_with_hook(5_000_000, &mut NullHook);
        prop_assert!(step_out.is_ok());
        assert_outcomes_match(&step, &block, &step_out, &block_out);
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

/// A loop touching memory in every width — `ldr`/`str` B/H/W, the
/// register-indexed forms, whole-register `vld1`/`vst1` and the lane
/// forms — with an arm branch, a call and a return, then a tail run that
/// ends without a terminal because `halt` must step.
fn every_width_program() -> Program {
    let mut a = Asm::new();
    let (skip, func) = (a.new_label(), a.new_label());
    a.mov_imm(Reg::R0, 0);
    a.mov_imm(Reg::R2, 0x4000);
    a.mov_imm(Reg::R3, 0x6000);
    a.mov_imm(Reg::R9, 3);
    let top = a.here();
    a.ldr(Reg::R4, Reg::R2, 0);
    a.ldrb(Reg::R5, Reg::R2, 1);
    a.ldrh_post(Reg::R6, Reg::R2, 2);
    a.str(Reg::R4, Reg::R3, 0);
    a.strb(Reg::R5, Reg::R3, 5);
    a.emit(Instr::Str { rs: Reg::R6, rn: Reg::R3, mode: AddrMode::Offset(6), size: MemSize::H });
    a.ldr_idx(Reg::R7, Reg::R3, Reg::R9, 2, MemSize::W);
    a.str_idx(Reg::R7, Reg::R3, Reg::R9, 1, MemSize::H);
    a.ldr_idx(Reg::R8, Reg::R2, Reg::R9, 0, MemSize::B);
    a.vld1(QReg::Q2, Reg::R3, false, ElemType::I32);
    a.vst1(QReg::Q2, Reg::R2, true, ElemType::I8);
    let (r3, et) = (Reg::R3, ElemType::I16);
    a.emit(Instr::Vld1Lane { qd: QReg::Q3, lane: 1, rn: r3, writeback: false, et });
    let et = ElemType::I8;
    a.emit(Instr::Vst1Lane { qs: QReg::Q3, lane: 0, rn: r3, writeback: true, et });
    let et = ElemType::I32;
    a.emit(Instr::Vst1Lane { qs: QReg::Q2, lane: 3, rn: r3, writeback: false, et });
    a.and_imm(Reg::R10, Reg::R0, 1);
    a.cmp_imm(Reg::R10, 0);
    a.b_to(Cond::Eq, skip);
    a.add_imm(Reg::R11, Reg::R11, 1);
    a.bind(skip);
    a.bl(func);
    a.add_imm(Reg::R0, Reg::R0, 1);
    a.cmp_imm(Reg::R0, 20);
    a.b_to(Cond::Ne, top);
    a.mov_imm(Reg::R1, 5);
    a.str(Reg::R1, Reg::R3, 8);
    a.halt();
    a.bind(func);
    a.ldr(Reg::R12, Reg::R3, 4);
    a.add_imm(Reg::R12, Reg::R12, 1);
    a.bx_lr();
    a.finish()
}

/// Rebuilds the committed event stream from whatever the driver hands
/// it: the retired-commit view, then the callback's own event.
#[derive(Default)]
struct Rebuild {
    events: Vec<TraceEvent>,
    /// Callbacks whose view held at least one commit.
    viewed: u32,
}

impl CommitHook for Rebuild {
    fn blocks(&self, _covered: bool) -> bool {
        true
    }

    fn on_commit(&mut self, ev: &TraceEvent, _: &Machine, ctl: &mut SimControl<'_>) {
        let before = self.events.len();
        self.events.extend(ctl.retired().iter());
        self.viewed += u32::from(self.events.len() > before);
        self.events.push(*ev);
    }
}

#[test]
fn retired_view_rebuilds_the_stepped_event_stream() {
    let p = every_width_program();
    let mut reference = Stepped(Rebuild::default());
    let ref_out = sim_for(&p).run_with_hook(100_000, &mut reference).expect("halts");
    let stepped = reference.0.events;
    assert_eq!(stepped.len() as u64, ref_out.committed);
    assert_eq!(reference.0.viewed, 0, "a stepped hook never gets a view");
    let widths: std::collections::BTreeSet<u8> =
        stepped.iter().filter_map(|e| e.read.or(e.write)).map(|m| m.bytes).collect();
    assert_eq!(widths.into_iter().collect::<Vec<_>>(), vec![1, 2, 4, 16], "every width");
    assert!(stepped.last().is_some_and(|e| e.instr == Instr::Halt));

    let mut block = Rebuild::default();
    let out = sim_for(&p).run_with_hook(100_000, &mut block).expect("halts");
    assert_eq!(out, ref_out);
    assert!(block.viewed > 0, "blocks were taken");
    assert_eq!(block.events, stepped, "straight through");

    // Odd slices: pauses land mid-block, and a slice that ends on the
    // terminal-less tail run carries it to the next slice's callback.
    let mut carried = 0;
    for slice in 2..=40 {
        let mut sim = sim_for(&p);
        let mut hook = Rebuild::default();
        loop {
            match sim.run_bounded(slice, &mut hook).expect("no exec error") {
                BoundedOutcome::Halted(out) => {
                    assert_eq!(out, ref_out, "slice {slice}");
                    break;
                }
                BoundedOutcome::Paused => {
                    carried += u32::from(hook.events.len() as u64 != sim.committed());
                }
            }
        }
        assert_eq!(hook.events, stepped, "slice {slice}");
    }
    assert!(carried > 0, "no slice paused with a run still in the view");
}
