//! The predecoded form of a [`Program`], and the one executor.
//!
//! [`DecodedProgram`] analyses each instruction once per program, at
//! decode time:
//!
//! * operands are flattened ([`FastOp`]) — immediates pre-sign-extended,
//!   `vdup` immediates pre-splatted, branch targets pre-resolved;
//! * every vector shift and lane index is checked, so every rejection is
//!   decided here: a shape the lane semantics reject becomes a trap
//!   carrying its [`LaneError`], and nothing that executes can fail;
//! * each instruction's [`InstrClass`] and [`Deps`] are precomputed, the
//!   only source of both that the timing model reads;
//! * `run_len[pc]` gives the length of the longest superblock starting
//!   at `pc`: straight-line code — including memory ops — optionally
//!   closed by one control-flow instruction; `block_delta[pc]` gives its
//!   per-class commit counts. One backward pass computes both, so
//!   entering a block in the middle — a branch target inside it — still
//!   finds its maximal tail run. `halt` and traps start no run.
//!
//! [`DecodedProgram::exec_run`] executes a whole superblock against the
//! machine, recording effective memory addresses and the terminal branch
//! outcome as it goes, and [`TimingModel::charge_block`] replays the
//! timing math from those. [`DecodedProgram::step`] commits one
//! instruction — a run of one, or `halt`, or a trap's error — for the
//! commits a hook must see one at a time, and
//! [`TimingModel::charge_step`] charges it from the same entry.
//!
//! Each [`Simulator`](crate::Simulator) decodes its own program on first
//! run and shares the decode only with its clones, so it is freed with
//! them.
//!
//! [`TimingModel::charge_block`]: crate::timing::TimingModel::charge_block
//! [`TimingModel::charge_step`]: crate::timing::TimingModel::charge_step

use dsa_isa::{
    AddrMode, AluOp, Cond, ElemType, Instr, InstrClass, MemSize, Operand, Program, QReg, Reg,
    VecOp,
};

use crate::machine::{ExecError, Machine};
use crate::timing::{deps, ClassCounts, Deps};
use crate::trace::{BranchOutcome, TraceEvent};
use crate::vec128::{self, LaneError};

/// A flattened instruction form. Control flow (`B`, `Bl`, `BxLr`) may
/// only close a superblock; everything else up to `Halt` is
/// straight-line and infallible. `Halt` and `Trap` are never part of a
/// run: [`DecodedProgram::step`] executes them one commit at a time.
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
    Halt,
    /// A vector shape the lane semantics reject (a float or over-wide
    /// `vshr`, an out-of-range lane). It commits nothing. Its error is
    /// kept out of line, in [`DecodedProgram`]'s `traps`: a
    /// [`LaneError`] in the enum would widen every entry by a quarter.
    Trap,
}

impl FastOp {
    /// Control flow may only terminate a superblock.
    fn is_terminal(&self) -> bool {
        matches!(self, FastOp::B { .. } | FastOp::Bl { .. } | FastOp::BxLr)
    }

    /// `halt` and traps start no run.
    fn is_stepped(&self) -> bool {
        matches!(self, FastOp::Halt | FastOp::Trap)
    }
}

/// The flattened form of `instr` at `pc`, or the rejection of a vector
/// shape the lane semantics do not define.
fn flatten(pc: u32, instr: Instr) -> Result<FastOp, LaneError> {
    let imm_val = |i: i16| i as i32 as u32;
    let target = |offset: i32| (pc as i64 + offset as i64) as u32;
    let lane = vec128::validate_lane;
    Ok(match instr {
        Instr::Nop => FastOp::Nop,
        Instr::Halt => FastOp::Halt,
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
        Instr::Vld1Lane { qd, lane: l, rn, writeback, et } => {
            lane(et, l)?;
            FastOp::Vld1Lane { qd, lane: l, rn, writeback, et }
        }
        Instr::Vst1Lane { qs, lane: l, rn, writeback, et } => {
            lane(et, l)?;
            FastOp::Vst1Lane { qs, lane: l, rn, writeback, et }
        }
        Instr::Vop { op, et, qd, qn, qm } => FastOp::Vop { op, et, qd, qn, qm },
        Instr::VshrImm { qd, qn, shift, et } => {
            vec128::validate_shift(et, shift)?;
            FastOp::Vshr { qd, qn, shift, et }
        }
        Instr::Vdup { qd, rm, et } => FastOp::Vdup { qd, rm, et },
        Instr::VdupImm { qd, imm, et } => FastOp::VdupImm { qd, v: vec128::splat(et, imm) },
        Instr::Vmov { qd, qm } => FastOp::Vmov { qd, qm },
        Instr::Vaddv { rd, qn, et } => FastOp::Vaddv { rd, qn, et },
        Instr::VmovToScalar { rd, qn, lane: l, et } => {
            lane(et, l)?;
            FastOp::VmovToScalar { rd, qn, lane: l, et }
        }
        Instr::VmovFromScalar { qd, lane: l, rm, et } => {
            lane(et, l)?;
            FastOp::VmovFromScalar { qd, lane: l, rm, et }
        }
    })
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

    /// The event this entry commits at `pc`, whose program text is
    /// `instr`: the one rule behind a stepped commit's event and a
    /// block terminal's. `addr` is the access the commit made, `taken`
    /// a conditional branch's outcome (as [`DecodedProgram::exec_run`]
    /// returns it) and `next_pc` the pc after the commit, where a return
    /// went.
    #[inline(always)]
    pub(crate) fn event(
        &self,
        pc: u32,
        instr: Instr,
        addr: Option<u32>,
        taken: Option<bool>,
        next_pc: u32,
    ) -> TraceEvent {
        let mut ev = TraceEvent::simple(pc, instr);
        ev.branch = match self.fast {
            FastOp::B { target, .. } => Some(BranchOutcome { target, taken: taken == Some(true) }),
            FastOp::Bl { target } => Some(BranchOutcome { target, taken: true }),
            FastOp::BxLr => Some(BranchOutcome { target: next_pc, taken: true }),
            _ => None,
        };
        if let Some(a) = addr {
            ev.record_access(a);
        }
        ev
    }

    /// Whether this entry is control flow, which closes its block.
    #[inline(always)]
    pub(crate) fn is_terminal(&self) -> bool {
        self.fast.is_terminal()
    }
}

/// A [`Program`] predecoded once, for superblocks and single steps alike.
/// Immutable once built; a simulator shares it with its clones (see the
/// module docs).
#[derive(Debug)]
pub struct DecodedProgram {
    entries: Vec<DecodedInstr>,
    /// `run_len[pc]`: length of the maximal fast run starting at `pc`.
    run_len: Vec<u32>,
    /// `block_delta[pc]`: per-class counts of the maximal block at `pc`,
    /// materialized at decode time so the hot loop merges one
    /// precomputed delta instead of bumping per instruction.
    block_delta: Vec<ClassCounts>,
    /// The error of each [`FastOp::Trap`], by pc, in pc order.
    traps: Vec<(u32, LaneError)>,
}

impl DecodedProgram {
    /// Predecodes `program` in one linear pass.
    pub fn decode(program: &Program) -> DecodedProgram {
        let mut traps = Vec::new();
        let entries: Vec<DecodedInstr> = program
            .iter()
            .zip(0u32..)
            .map(|(&instr, pc)| DecodedInstr {
                fast: flatten(pc, instr).unwrap_or_else(|err| {
                    traps.push((pc, err));
                    FastOp::Trap
                }),
                class: instr.class(),
                deps: deps(&instr),
            })
            .collect();
        let n = entries.len();
        let mut run_len = vec![0u32; n];
        let mut block_delta = vec![ClassCounts::default(); n];
        for (i, e) in entries.iter().enumerate().rev() {
            if e.fast.is_stepped() {
                continue; // an empty run
            }
            if !e.fast.is_terminal() && i + 1 < n {
                run_len[i] = run_len[i + 1];
                block_delta[i] = block_delta[i + 1];
            }
            run_len[i] += 1;
            block_delta[i].bump(e.class);
        }
        DecodedProgram { entries, run_len, block_delta, traps }
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
    /// instruction (0 when `pc` is out of range or holds `halt` or a
    /// trap).
    #[inline]
    pub fn run_len(&self, pc: u32) -> u32 {
        self.run_len.get(pc as usize).copied().unwrap_or(0)
    }

    /// The predecoded entry at `pc`, which the caller knows is in range.
    #[inline(always)]
    pub(crate) fn entry(&self, pc: u32) -> &DecodedInstr {
        &self.entries[pc as usize]
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
    /// [`DecodedProgram::step`], with the PC written once at the end
    /// (the terminal branch's resolution when the block ends in one).
    /// Infallible by construction: decode keeps `halt` and every
    /// rejected shape out of runs.
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
        self.run(m, base_pc, n, mem_addrs)
    }

    /// The body of [`DecodedProgram::exec_run`]. [`DecodedProgram::step`]
    /// inlines it with `n` the constant 1, so a stepped commit pays no
    /// call; the block path calls the one out-of-line copy, as inlining
    /// it there too made blocks slower.
    #[inline(always)]
    fn run(
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
                FastOp::Halt | FastOp::Trap => debug_assert!(false, "stepped op inside a run"),
            }
        }
        m.set_pc(next_pc);
        taken
    }

    /// Commits the one instruction at the machine's pc. `halt` latches
    /// the machine halted, and a trap returns its error with the machine
    /// untouched; any other entry runs as a run of one through
    /// [`DecodedProgram::exec_run`]'s loop, appending its address to
    /// `mem_addrs` and returning its branch outcome the same way.
    ///
    /// # Errors
    ///
    /// [`ExecError::Halted`] after `halt`, [`ExecError::PcOutOfRange`]
    /// when the pc is off the program text, and [`ExecError::Vector`]
    /// for a vector shape the lane semantics reject.
    #[inline(always)]
    pub fn step(
        &self,
        m: &mut Machine,
        mem_addrs: &mut Vec<u32>,
    ) -> Result<Option<bool>, ExecError> {
        if m.is_halted() {
            return Err(ExecError::Halted);
        }
        let pc = m.pc();
        match self.entries.get(pc as usize).map(|e| e.fast) {
            None => Err(ExecError::PcOutOfRange { pc }),
            Some(FastOp::Halt) => {
                m.halt();
                m.set_pc(pc.wrapping_add(1));
                Ok(None)
            }
            Some(FastOp::Trap) => {
                let trap = self.traps.iter().find(|t| t.0 == pc);
                let (_, err) = *trap.expect("recorded"); // infallible: decode records every trap
                Err(ExecError::Vector { pc, err })
            }
            Some(_) => Ok(self.run(m, pc, 1, mem_addrs)),
        }
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
        // superblock; halt starts no run.
        assert_eq!(d.run_len(0), 5);
        assert_eq!(d.run_len(2), 3, "mid-block entry finds the tail run");
        assert_eq!(d.run_len(4), 1, "a branch is a one-instruction block");
        assert_eq!(d.run_len(5), 0, "halt starts no run");
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

    /// `n` single steps from a fresh machine, with their address stream.
    fn stepped(d: &DecodedProgram, n: u32) -> (Machine, Vec<u32>) {
        let (mut m, mut addrs) = (Machine::new(), Vec::new());
        for _ in 0..n {
            d.step(&mut m, &mut addrs).expect("steps cleanly");
        }
        (m, addrs)
    }

    #[test]
    fn exec_run_matches_stepping() {
        let d = DecodedProgram::decode(&sample());
        let (stepped, _) = stepped(&d, 5);
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
        let d = DecodedProgram::decode(&a.finish());
        assert_eq!(d.run_len(0), 4, "memory ops stay inside the block");

        let (stepped, stepped_addrs) = stepped(&d, 4);
        let mut fast = Machine::new();
        let mut addrs = Vec::new();
        let taken = d.exec_run(&mut fast, 0, 4, &mut addrs);
        assert_eq!(taken, None);
        assert_eq!(addrs, vec![0x44, 0x44], "store then load effective addresses");
        assert_eq!(addrs, stepped_addrs);
        assert_eq!(fast.reg(Reg::R3), 7);
        assert_eq!(fast.arch_digest(), stepped.arch_digest());
    }

    #[test]
    fn invalid_vshr_is_slow() {
        // shift >= lane width is rejected at decode: a trap, which
        // starts no run and fails its step before any write.
        let p = Program::new(vec![
            Instr::VshrImm { qd: QReg::Q0, qn: QReg::Q1, shift: 16, et: ElemType::I16 },
            Instr::Halt,
        ]);
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.run_len(0), 0);
        let mut m = Machine::new();
        let err = LaneError::ShiftOutOfRange { et: ElemType::I16, shift: 16 };
        assert_eq!(d.step(&mut m, &mut Vec::new()), Err(ExecError::Vector { pc: 0, err }));
        assert_eq!(m.pc(), 0, "a trap commits nothing");
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
                FastOp::Halt | FastOp::Trap => 0,
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
    /// memory ops, `halt`, over-wide (trapping) and valid `vshr`s, and
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
