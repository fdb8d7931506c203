//! Predecoded superblock representation of a [`Program`].
//!
//! The per-commit interpreter pays, for every dynamic instruction, a
//! `TraceEvent` construction, a fresh dependence analysis
//! ([`crate::timing::deps`]) and a full [`TimingModel::charge_event`].
//! Whenever the hook's `CommitHook::blocks` answer allows — always for
//! `NullHook` (the scalar baselines behind the differential oracle and
//! every grid warm-up), and for the DSA while it probes or runs a plain
//! or conditional vectorized loop — none of that per-step work is
//! observable: only the final architectural state, cycles, statistics,
//! the block's terminal branch and the retired commits' pcs,
//! instructions and addresses (`SimControl::retired`) are.
//! [`DecodedProgram`] hoists the per-instruction analysis to decode
//! time, once per program:
//!
//! * operands are flattened ([`FastOp`]) — immediates pre-sign-extended,
//!   `vdup` immediates pre-splatted, branch targets pre-resolved,
//!   `vshr` shapes and vector lanes pre-validated;
//! * each instruction's [`InstrClass`] and [`Deps`] are precomputed for
//!   [`TimingModel::charge_block`];
//! * `run_len[pc]` gives the length of the longest infallible superblock
//!   starting at `pc`: straight-line code — including memory ops —
//!   optionally closed by one control-flow instruction; `block_delta[pc]`
//!   gives its per-class commit counts. One backward pass computes both,
//!   so entering a block in the middle — a branch target inside it —
//!   still finds its maximal tail run.
//!
//! [`DecodedProgram::exec_run`] executes a whole superblock against the
//! machine, recording effective memory addresses and the terminal branch
//! outcome as it goes, and `charge_block` replays the timing math from
//! those — the only per-instruction work left is the genuinely stateful
//! scoreboard arithmetic.
//!
//! Each [`Simulator`](crate::Simulator) decodes its own program on first
//! run and shares the decode only with its clones, so it is freed with
//! them.
//!
//! [`TimingModel`]: crate::timing::TimingModel
//! [`TimingModel::charge_event`]: crate::timing::TimingModel::charge_event
//! [`TimingModel::charge_block`]: crate::timing::TimingModel::charge_block

use dsa_isa::{
    AddrMode, AluOp, Cond, ElemType, Instr, InstrClass, MemSize, Operand, Program, QReg, Reg,
    VecOp,
};

use crate::machine::Machine;
use crate::timing::{deps, ClassCounts, Deps};
use crate::vec128;

/// A flattened, infallible instruction form. Control flow (`B`, `Bl`,
/// `BxLr`) may only close a superblock; everything else is straight-line.
/// `Slow` marks the instructions that must go through
/// [`Machine::step_slice`]: `halt` and shapes the functional executor
/// could reject (over-wide vector shifts, out-of-range lanes).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastOp {
    Nop,
    /// Immediate pre-sign-extended to the architectural write.
    MovImm { rd: Reg, v: u32 },
    MovTop { rd: Reg, imm: u16 },
    Mov { rd: Reg, rm: Reg },
    AluRR { op: AluOp, rd: Reg, rn: Reg, rm: Reg },
    /// Register–immediate ALU with the operand pre-extended.
    AluRI { op: AluOp, rd: Reg, rn: Reg, v: u32 },
    CmpRR { rn: Reg, rm: Reg },
    CmpRI { rn: Reg, v: u32 },
    /// Branch with the absolute target pre-resolved from `pc + offset`.
    B { cond: Cond, target: u32 },
    /// Call with the absolute target pre-resolved.
    Bl { target: u32 },
    BxLr,
    Ldr { rd: Reg, rn: Reg, mode: AddrMode, size: MemSize },
    Str { rs: Reg, rn: Reg, mode: AddrMode, size: MemSize },
    LdrReg { rd: Reg, rn: Reg, rm: Reg, lsl: u8, size: MemSize },
    StrReg { rs: Reg, rn: Reg, rm: Reg, lsl: u8, size: MemSize },
    Vld1 { qd: QReg, rn: Reg, writeback: bool },
    Vst1 { qs: QReg, rn: Reg, writeback: bool },
    /// Lane validated at decode: `lane < et.lanes()`.
    Vld1Lane { qd: QReg, lane: u8, rn: Reg, writeback: bool, et: ElemType },
    /// Lane validated at decode.
    Vst1Lane { qs: QReg, lane: u8, rn: Reg, writeback: bool, et: ElemType },
    Vop { op: VecOp, et: ElemType, qd: QReg, qn: QReg, qm: QReg },
    /// Shape validated at decode: `vec128::shr` accepts this `(et, shift)`.
    Vshr { qd: QReg, qn: QReg, shift: u8, et: ElemType },
    Vdup { qd: QReg, rm: Reg, et: ElemType },
    /// Splat precomputed at decode.
    VdupImm { qd: QReg, v: [u8; 16] },
    Vmov { qd: QReg, qm: QReg },
    Vaddv { rd: Reg, qn: QReg, et: ElemType },
    /// Lane validated at decode: `lane < et.lanes()`.
    VmovToScalar { rd: Reg, qn: QReg, lane: u8, et: ElemType },
    /// Lane validated at decode.
    VmovFromScalar { qd: QReg, lane: u8, rm: Reg, et: ElemType },
    Slow,
}

impl FastOp {
    /// Control flow may only terminate a superblock.
    fn is_terminal(&self) -> bool {
        matches!(self, FastOp::B { .. } | FastOp::Bl { .. } | FastOp::BxLr)
    }
}

fn flatten(pc: u32, instr: Instr) -> FastOp {
    let imm_val = |i: i16| i as i32 as u32;
    let target = |offset: i32| (pc as i64 + offset as i64) as u32;
    match instr {
        Instr::Nop => FastOp::Nop,
        Instr::MovImm { rd, imm } => FastOp::MovImm { rd, v: imm_val(imm) },
        Instr::MovTop { rd, imm } => FastOp::MovTop { rd, imm },
        Instr::Mov { rd, rm } => FastOp::Mov { rd, rm },
        Instr::Alu { op, rd, rn, src2 } => match src2 {
            Operand::Reg(rm) => FastOp::AluRR { op, rd, rn, rm },
            Operand::Imm(i) => FastOp::AluRI { op, rd, rn, v: imm_val(i) },
        },
        Instr::Cmp { rn, src2 } => match src2 {
            Operand::Reg(rm) => FastOp::CmpRR { rn, rm },
            Operand::Imm(i) => FastOp::CmpRI { rn, v: imm_val(i) },
        },
        Instr::B { cond, offset } => FastOp::B { cond, target: target(offset) },
        Instr::Bl { offset } => FastOp::Bl { target: target(offset) },
        Instr::BxLr => FastOp::BxLr,
        Instr::Ldr { rd, rn, mode, size } => FastOp::Ldr { rd, rn, mode, size },
        Instr::Str { rs, rn, mode, size } => FastOp::Str { rs, rn, mode, size },
        Instr::LdrReg { rd, rn, rm, lsl, size } => FastOp::LdrReg { rd, rn, rm, lsl, size },
        Instr::StrReg { rs, rn, rm, lsl, size } => FastOp::StrReg { rs, rn, rm, lsl, size },
        Instr::Vld1 { qd, rn, writeback, .. } => FastOp::Vld1 { qd, rn, writeback },
        Instr::Vst1 { qs, rn, writeback, .. } => FastOp::Vst1 { qs, rn, writeback },
        Instr::Vld1Lane { qd, lane, rn, writeback, et } if (lane as u32) < et.lanes() => {
            FastOp::Vld1Lane { qd, lane, rn, writeback, et }
        }
        Instr::Vst1Lane { qs, lane, rn, writeback, et } if (lane as u32) < et.lanes() => {
            FastOp::Vst1Lane { qs, lane, rn, writeback, et }
        }
        Instr::Vop { op, et, qd, qn, qm } => FastOp::Vop { op, et, qd, qn, qm },
        Instr::VshrImm { qd, qn, shift, et } => {
            // `shr`'s rejection depends only on (et, shift); probing with a
            // zero vector decides once whether execution can ever fail.
            if vec128::shr(et, [0u8; 16], shift).is_ok() {
                FastOp::Vshr { qd, qn, shift, et }
            } else {
                FastOp::Slow
            }
        }
        Instr::Vdup { qd, rm, et } => FastOp::Vdup { qd, rm, et },
        Instr::VdupImm { qd, imm, et } => FastOp::VdupImm { qd, v: vec128::splat(et, imm) },
        Instr::Vmov { qd, qm } => FastOp::Vmov { qd, qm },
        Instr::Vaddv { rd, qn, et } => FastOp::Vaddv { rd, qn, et },
        Instr::VmovToScalar { rd, qn, lane, et } if (lane as u32) < et.lanes() => {
            FastOp::VmovToScalar { rd, qn, lane, et }
        }
        Instr::VmovFromScalar { qd, lane, rm, et } if (lane as u32) < et.lanes() => {
            FastOp::VmovFromScalar { qd, lane, rm, et }
        }
        // `halt` and out-of-range lanes: stepped.
        _ => FastOp::Slow,
    }
}

/// One predecoded instruction: the flattened executable form plus the
/// timing-side analysis ([`InstrClass`], [`Deps`]) that
/// [`crate::timing::TimingModel::charge_block`] would otherwise recompute
/// per dynamic instance.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInstr {
    fast: FastOp,
    class: InstrClass,
    deps: Deps,
}

impl DecodedInstr {
    pub(crate) fn class(&self) -> InstrClass {
        self.class
    }

    pub(crate) fn deps(&self) -> &Deps {
        &self.deps
    }
}

/// A [`Program`] predecoded for the superblock fast path. Immutable once
/// built; a simulator shares it with its clones (see the module docs).
#[derive(Debug)]
pub struct DecodedProgram {
    entries: Vec<DecodedInstr>,
    /// `run_len[pc]`: length of the maximal fast run starting at `pc`.
    run_len: Vec<u32>,
    /// `block_delta[pc]`: per-class counts of the maximal block at `pc`,
    /// materialized at decode time so the hot loop merges one
    /// precomputed delta instead of bumping per instruction.
    block_delta: Vec<ClassCounts>,
}

impl DecodedProgram {
    /// Predecodes `program` in one linear pass.
    pub fn decode(program: &Program) -> DecodedProgram {
        let entries: Vec<DecodedInstr> = program
            .iter()
            .enumerate()
            .map(|(pc, &instr)| DecodedInstr {
                fast: flatten(pc as u32, instr),
                class: instr.class(),
                deps: deps(&instr),
            })
            .collect();
        let n = entries.len();
        let mut run_len = vec![0u32; n];
        let mut block_delta = vec![ClassCounts::default(); n];
        for (i, e) in entries.iter().enumerate().rev() {
            if matches!(e.fast, FastOp::Slow) {
                continue; // stepped: an empty run
            }
            if !e.fast.is_terminal() && i + 1 < n {
                run_len[i] = run_len[i + 1];
                block_delta[i] = block_delta[i + 1];
            }
            run_len[i] += 1;
            block_delta[i].bump(e.class);
        }
        DecodedProgram { entries, run_len, block_delta }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Length of the maximal superblock starting at `pc` — straight-line
    /// fast instructions, optionally closed by one control-flow
    /// instruction (0 when `pc` is out of range or the instruction there
    /// needs the stepped path).
    #[inline]
    pub fn run_len(&self, pc: u32) -> u32 {
        self.run_len.get(pc as usize).copied().unwrap_or(0)
    }

    /// The predecoded entries of the run `[pc, pc + n)`.
    #[inline]
    pub(crate) fn run_entries(&self, pc: u32, n: u32) -> &[DecodedInstr] {
        &self.entries[pc as usize..pc as usize + n as usize]
    }

    /// Per-class commit-count delta of the *maximal* block at `pc` —
    /// precomputed at decode time and merged once per block commit by
    /// the interpreter.
    #[inline]
    pub(crate) fn block_counts(&self, pc: u32) -> &ClassCounts {
        &self.block_delta[pc as usize]
    }

    /// Executes the superblock `[base_pc, base_pc + n)` on `machine`:
    /// architectural effects identical to `n` calls of
    /// [`Machine::step_slice`], with the PC written once at the end (the
    /// terminal branch's resolution when the block ends in one).
    /// Infallible by construction — every [`FastOp`] admitted at decode
    /// time executes without error.
    ///
    /// The effective address of every memory access is appended to
    /// `mem_addrs` in program order, and the terminal conditional
    /// branch's outcome is returned (`None` when the block does not end
    /// in a `B`) — together exactly the data
    /// [`TimingModel::charge_block`] needs to replay the stepped timing
    /// math bit for bit.
    ///
    /// The caller guarantees `machine.pc() == base_pc`, the machine is
    /// not halted, and `n <= self.run_len(base_pc)`. Public so the
    /// equivalence tests can drive the functional executor directly;
    /// simulation code goes through [`Simulator::run_with_hook`]
    /// instead.
    ///
    /// [`Simulator::run_with_hook`]: crate::Simulator::run_with_hook
    /// [`TimingModel::charge_block`]: crate::timing::TimingModel
    pub fn exec_run(
        &self,
        m: &mut Machine,
        base_pc: u32,
        n: u32,
        mem_addrs: &mut Vec<u32>,
    ) -> Option<bool> {
        debug_assert_eq!(m.pc(), base_pc);
        debug_assert!(n <= self.run_len(base_pc));
        let mut next_pc = base_pc.wrapping_add(n);
        let mut taken = None;
        for e in self.run_entries(base_pc, n) {
            match e.fast {
                FastOp::Nop => {}
                FastOp::MovImm { rd, v } => m.set_reg(rd, v),
                FastOp::MovTop { rd, imm } => {
                    let low = m.reg(rd) & 0xffff;
                    m.set_reg(rd, (imm as u32) << 16 | low);
                }
                FastOp::Mov { rd, rm } => {
                    let v = m.reg(rm);
                    m.set_reg(rd, v);
                }
                FastOp::AluRR { op, rd, rn, rm } => {
                    let v = m.alu_result(op, m.reg(rn), m.reg(rm));
                    m.set_reg(rd, v);
                }
                FastOp::AluRI { op, rd, rn, v } => {
                    let v = m.alu_result(op, m.reg(rn), v);
                    m.set_reg(rd, v);
                }
                FastOp::CmpRR { rn, rm } => m.set_cmp_flags(m.reg(rn), m.reg(rm)),
                FastOp::CmpRI { rn, v } => m.set_cmp_flags(m.reg(rn), v),
                FastOp::B { cond, target } => {
                    let t = m.flags().check(cond);
                    if t {
                        next_pc = target;
                    }
                    taken = Some(t);
                }
                FastOp::Bl { target } => {
                    // The terminal occupies `base_pc + n - 1`; the link
                    // register gets the fall-through, `base_pc + n`.
                    m.set_reg(Reg::LR, base_pc.wrapping_add(n));
                    next_pc = target;
                }
                FastOp::BxLr => next_pc = m.reg(Reg::LR),
                FastOp::Ldr { rd, rn, mode, size } => {
                    let (addr, wb) = m.resolve(rn, mode);
                    let v = m.load_sized(addr, size);
                    if let Some(nb) = wb {
                        m.set_reg(rn, nb);
                    }
                    m.set_reg(rd, v);
                    mem_addrs.push(addr);
                }
                FastOp::Str { rs, rn, mode, size } => {
                    let (addr, wb) = m.resolve(rn, mode);
                    let v = m.reg(rs);
                    m.store_sized(addr, size, v);
                    if let Some(nb) = wb {
                        m.set_reg(rn, nb);
                    }
                    mem_addrs.push(addr);
                }
                FastOp::LdrReg { rd, rn, rm, lsl, size } => {
                    let addr = m.reg(rn).wrapping_add(m.reg(rm) << lsl);
                    let v = m.load_sized(addr, size);
                    m.set_reg(rd, v);
                    mem_addrs.push(addr);
                }
                FastOp::StrReg { rs, rn, rm, lsl, size } => {
                    let addr = m.reg(rn).wrapping_add(m.reg(rm) << lsl);
                    m.store_sized(addr, size, m.reg(rs));
                    mem_addrs.push(addr);
                }
                FastOp::Vld1 { qd, rn, writeback } => {
                    let addr = m.reg(rn);
                    let v = m.mem.read_vec128(addr);
                    m.set_qreg(qd, v);
                    if writeback {
                        m.set_reg(rn, addr.wrapping_add(16));
                    }
                    mem_addrs.push(addr);
                }
                FastOp::Vst1 { qs, rn, writeback } => {
                    let addr = m.reg(rn);
                    m.mem.write_vec128(addr, m.qreg(qs));
                    if writeback {
                        m.set_reg(rn, addr.wrapping_add(16));
                    }
                    mem_addrs.push(addr);
                }
                FastOp::Vld1Lane { qd, lane, rn, writeback, et } => {
                    let addr = m.reg(rn);
                    let v = m.load_sized(addr, et.mem_size());
                    let mut q = m.qreg(qd);
                    vec128::scalar_to_lane_unchecked(et, &mut q, lane, v);
                    m.set_qreg(qd, q);
                    if writeback {
                        m.set_reg(rn, addr.wrapping_add(et.lane_bytes()));
                    }
                    mem_addrs.push(addr);
                }
                FastOp::Vst1Lane { qs, lane, rn, writeback, et } => {
                    let addr = m.reg(rn);
                    let v = vec128::lane_to_scalar_unchecked(et, m.qreg(qs), lane);
                    m.store_sized(addr, et.mem_size(), v);
                    if writeback {
                        m.set_reg(rn, addr.wrapping_add(et.lane_bytes()));
                    }
                    mem_addrs.push(addr);
                }
                FastOp::Vop { op, et, qd, qn, qm } => {
                    let v = vec128::apply(op, et, m.qreg(qn), m.qreg(qm));
                    m.set_qreg(qd, v);
                }
                FastOp::Vshr { qd, qn, shift, et } => {
                    // Decode admitted this (et, shift); shr cannot fail.
                    let v = vec128::shr_unchecked(et, m.qreg(qn), shift);
                    m.set_qreg(qd, v);
                }
                FastOp::Vdup { qd, rm, et } => {
                    m.set_qreg(qd, vec128::splat_scalar(et, m.reg(rm)));
                }
                FastOp::VdupImm { qd, v } => m.set_qreg(qd, v),
                FastOp::Vmov { qd, qm } => {
                    let v = m.qreg(qm);
                    m.set_qreg(qd, v);
                }
                FastOp::Vaddv { rd, qn, et } => {
                    let v = vec128::reduce_add(et, m.qreg(qn));
                    m.set_reg(rd, v);
                }
                FastOp::VmovToScalar { rd, qn, lane, et } => {
                    let v = vec128::lane_to_scalar_unchecked(et, m.qreg(qn), lane);
                    m.set_reg(rd, v);
                }
                FastOp::VmovFromScalar { qd, lane, rm, et } => {
                    let mut q = m.qreg(qd);
                    vec128::scalar_to_lane_unchecked(et, &mut q, lane, m.reg(rm));
                    m.set_qreg(qd, q);
                }
                FastOp::Slow => debug_assert!(false, "slow op inside a fast run"),
            }
        }
        m.set_pc(next_pc);
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_isa::Asm;

    fn sample() -> Program {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 0);
        a.mov_imm(Reg::R1, 100);
        let top = a.here();
        a.add_imm(Reg::R0, Reg::R0, 1);
        a.cmp(Reg::R0, Reg::R1);
        a.b_to(Cond::Ne, top);
        a.halt();
        a.finish()
    }

    #[test]
    fn run_lengths_stop_at_slow_ops() {
        let d = DecodedProgram::decode(&sample());
        // mov, mov, add, cmp are straight-line; the branch closes the
        // superblock; halt is stepped.
        assert_eq!(d.run_len(0), 5);
        assert_eq!(d.run_len(2), 3, "mid-block entry finds the tail run");
        assert_eq!(d.run_len(4), 1, "a branch is a one-instruction block");
        assert_eq!(d.run_len(5), 0, "halt is stepped");
        assert_eq!(d.run_len(99), 0, "out of range");
    }

    #[test]
    fn block_counts_match_classes() {
        let d = DecodedProgram::decode(&sample());
        let delta = d.block_counts(0);
        assert_eq!(delta.count(InstrClass::IntAlu), 4);
        assert_eq!(delta.count(InstrClass::Branch), 1);
        assert_eq!(delta.total(), 5);
        let tail = d.block_counts(2);
        assert_eq!(tail.total(), 3, "mid-block entry counts the tail run");
    }

    #[test]
    fn exec_run_matches_stepping() {
        let p = sample();
        let d = DecodedProgram::decode(&p);
        let mut stepped = Machine::new();
        for _ in 0..5 {
            stepped.step(&p).expect("fast prefix steps cleanly");
        }
        let mut fast = Machine::new();
        let mut addrs = Vec::new();
        let taken = d.exec_run(&mut fast, 0, 5, &mut addrs);
        assert_eq!(taken, Some(true), "loop-back branch is taken");
        assert!(addrs.is_empty(), "no memory traffic in this block");
        assert_eq!(fast.pc(), stepped.pc());
        assert_eq!(fast.pc(), 2, "branch resolved to the loop top");
        assert_eq!(fast.regs(), stepped.regs());
        assert_eq!(fast.flags(), stepped.flags());
        assert_eq!(fast.arch_digest(), stepped.arch_digest());
    }

    #[test]
    fn exec_run_records_memory_addresses() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R1, 0x40);
        a.mov_imm(Reg::R2, 7);
        a.str(Reg::R2, Reg::R1, 4);
        a.ldr(Reg::R3, Reg::R1, 4);
        a.halt();
        let p = a.finish();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.run_len(0), 4, "memory ops stay inside the block");

        let mut stepped = Machine::new();
        for _ in 0..4 {
            stepped.step(&p).expect("steps cleanly");
        }
        let mut fast = Machine::new();
        let mut addrs = Vec::new();
        let taken = d.exec_run(&mut fast, 0, 4, &mut addrs);
        assert_eq!(taken, None);
        assert_eq!(addrs, vec![0x44, 0x44], "store then load effective addresses");
        assert_eq!(fast.reg(Reg::R3), 7);
        assert_eq!(fast.arch_digest(), stepped.arch_digest());
    }

    #[test]
    fn invalid_vshr_is_slow() {
        // shift >= lane width is rejected by vec128::shr, so it must be
        // routed to the stepped path where the error surfaces.
        let p = Program::new(vec![
            Instr::VshrImm { qd: QReg::Q0, qn: QReg::Q1, shift: 16, et: ElemType::I16 },
            Instr::Halt,
        ]);
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.run_len(0), 0);
        // A valid shift stays fast.
        let ok = Program::new(vec![
            Instr::VshrImm { qd: QReg::Q0, qn: QReg::Q1, shift: 8, et: ElemType::I16 },
            Instr::Halt,
        ]);
        assert_eq!(DecodedProgram::decode(&ok).run_len(0), 1);
    }

    /// The run lengths computed the long way, with per-class prefix
    /// sums over the program.
    fn reference_runs(d: &DecodedProgram) -> (Vec<u32>, Vec<ClassCounts>) {
        let mut run_len = vec![0u32; d.entries.len()];
        for i in (0..run_len.len()).rev() {
            run_len[i] = match d.entries[i].fast {
                FastOp::Slow => 0,
                f if f.is_terminal() => 1,
                _ => 1 + run_len.get(i + 1).copied().unwrap_or(0),
            };
        }
        let mut acc = ClassCounts::default();
        let mut prefix = vec![acc];
        for e in &d.entries {
            acc.bump(e.class);
            prefix.push(acc);
        }
        (run_len, prefix)
    }

    /// A seeded program of up to 40 instructions: straight-line and
    /// memory ops, `halt`, over-wide (stepped) and valid `vshr`s, and
    /// every terminal, at random positions.
    fn random_program(seed: u64) -> Program {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let len = 1 + next(40) as usize;
        let instrs = (0..len)
            .map(|_| {
                let q = QReg::new(next(16) as u8);
                let offset = next(9) as i32 - 4;
                match next(10) {
                    0 => Instr::Halt,
                    1 => Instr::VshrImm { qd: q, qn: q, shift: 16, et: ElemType::I16 },
                    2 => Instr::VshrImm { qd: q, qn: q, shift: 3, et: ElemType::I16 },
                    3 => Instr::B { cond: Cond::Ne, offset },
                    4 => Instr::Bl { offset },
                    5 => Instr::BxLr,
                    6 => Instr::Vld1 { qd: q, rn: Reg::R1, writeback: true, et: ElemType::I32 },
                    7 => Instr::Vop { op: VecOp::Mul, et: ElemType::I32, qd: q, qn: q, qm: q },
                    8 => Instr::Cmp { rn: Reg::R0, src2: Operand::Imm(1) },
                    _ => Instr::Mov { rd: Reg::R0, rm: Reg::R1 },
                }
            })
            .collect();
        Program::new(instrs)
    }

    #[test]
    fn one_pass_runs_match_the_prefix_sum_reference() {
        let programs = std::iter::once(sample()).chain((0..400).map(random_program));
        for (i, p) in programs.enumerate() {
            let d = DecodedProgram::decode(&p);
            let (run_len, prefix) = reference_runs(&d);
            assert_eq!(d.run_len, run_len, "program {i}: {p:?}");
            for (pc, &n) in run_len.iter().enumerate() {
                // A block's delta spans the prefix sums at its two ends.
                let mut end = prefix[pc];
                end.merge(d.block_counts(pc as u32));
                assert_eq!(end, prefix[pc + n as usize], "program {i}, pc {pc}: {p:?}");
            }
        }
    }

    #[test]
    fn a_decode_is_owned_by_its_simulators() {
        use crate::{CpuConfig, Simulator};
        use std::sync::{Arc, Weak};

        let mut first = Simulator::new(sample(), CpuConfig::default());
        let decoded = first.predecode();
        let mut clone = first.clone();
        assert!(Arc::ptr_eq(&decoded, &clone.predecode()), "clones share one decode");
        let mut fresh = Simulator::new(sample(), CpuConfig::default());
        assert!(
            !Arc::ptr_eq(&decoded, &fresh.predecode()),
            "a second simulator of the same program owns its own decode"
        );
        let weak: Weak<DecodedProgram> = Arc::downgrade(&decoded);
        drop((decoded, first, clone));
        assert!(weak.upgrade().is_none(), "the decode is freed with its last simulator");
        assert_eq!(fresh.predecode().len(), sample().len());
    }
}
