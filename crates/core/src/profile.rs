//! Per-iteration profiling: what the Data Collection stage extracts from
//! the committed instruction stream.

use std::collections::HashSet;

use crate::idhash::IdSet;

use dsa_cpu::{Machine, TraceEvent};
use dsa_isa::{AluOp, Cond, Instr, Operand, Reg};

/// One data-memory access stream observation: the `occ`-th access by the
/// instruction at `pc` within one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// PC of the load/store instruction.
    pub pc: u32,
    /// Occurrence index within the iteration (for instructions executed
    /// more than once, e.g. inside a called function).
    pub occ: u8,
    /// Whether this is a store.
    pub is_write: bool,
    /// Access width in bytes.
    pub bytes: u8,
    /// The address observed this iteration.
    pub addr: u32,
}

/// The closing compare of an iteration, with operand *values* (the
/// hardware reads the register file; the trace-level model reads the
/// machine state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpObs {
    /// PC of the compare.
    pub pc: u32,
    /// Left operand value.
    pub lhs: i64,
    /// Right operand value.
    pub rhs: i64,
    /// Whether the right operand was an immediate (static range) or a
    /// register (dynamic range).
    pub rhs_is_imm: bool,
}

/// Classified operation profile of one loop iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodyProfile {
    /// Sequential loads per iteration.
    pub loads: u32,
    /// Sequential stores per iteration.
    pub stores: u32,
    /// Vectorizable non-multiply value operations.
    pub vec_alu: u32,
    /// Vectorizable multiplies.
    pub vec_mul: u32,
    /// Vectorizable right shifts.
    pub vec_shift: u32,
    /// Loop overhead that disappears in vector code (index/pointer
    /// updates, compares, branches, invariant moves).
    pub droppable: u32,
    /// Operations the NEON engine cannot perform (indirect addressing,
    /// unsupported ALU forms).
    pub nonvec: u32,
    /// Element width in bytes; `None` when accesses have mixed widths.
    pub elem_bytes: Option<u8>,
    /// Whether the value operations are floating point.
    pub float: bool,
}

impl BodyProfile {
    /// Total vectorizable value operations.
    pub fn vec_ops(&self) -> u32 {
        self.vec_alu + self.vec_mul + self.vec_shift
    }

    /// Whether the body can be expressed as NEON work.
    pub fn is_vectorizable(&self) -> bool {
        self.nonvec == 0 && self.elem_bytes.is_some() && self.stores + self.loads > 0
    }
}

/// Everything the DSA learned from one loop iteration.
#[derive(Debug, Clone)]
pub struct IterationProfile {
    /// Ordered access observations.
    pub accesses: Vec<StreamInfo>,
    /// The last compare before the closing branch.
    pub closing_cmp: Option<CmpObs>,
    /// Hash of the conditional-branch path taken inside the body
    /// (identifies which condition executed).
    pub path: u64,
    /// Number of in-body conditional branches observed.
    pub cond_branches: u32,
    /// PCs executed inside the loop range.
    pub pcs: IdSet,
    /// Classified operation profile.
    pub body: BodyProfile,
    /// Whether the body called a function.
    pub has_call: bool,
    /// PC range of called code outside the loop body, if any.
    pub callee_range: Option<(u32, u32)>,
    /// PC of a conditional forward branch leaving the loop (sentinel
    /// stop-check), if one exists.
    pub exit_check_pc: Option<u32>,
    /// PCs of non-droppable instructions (value operations, indirect
    /// accesses) — used by the nest-fusion check to verify the outer
    /// body is pure loop overhead.
    pub value_op_pcs: Vec<u32>,
    /// PCs of the in-body conditional branches counted in
    /// [`IterationProfile::cond_branches`].
    pub cond_branch_pcs: Vec<u32>,
    /// Committed instructions in the iteration.
    pub n_events: u32,
}

impl IterationProfile {
    /// Finds the observation matching `(pc, occ)`.
    pub fn find(&self, pc: u32, occ: u8) -> Option<&StreamInfo> {
        find_access(&self.accesses, pc, occ)
    }

    /// The class of body this iteration suggests.
    pub fn body_class(&self) -> BodyClass {
        if self.cond_branches > 0 {
            BodyClass::Conditional
        } else if self.has_call {
            BodyClass::Function
        } else {
            BodyClass::Straight
        }
    }
}

/// Coarse body shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyClass {
    /// Straight-line body.
    Straight,
    /// Contains conditional code.
    Conditional,
    /// Contains a function call.
    Function,
}

/// The role a committed conditional branch plays in one iteration of
/// the loop `[lo..=hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BranchRole {
    /// A branch leaving the loop: the sentinel stop check (or a guarded
    /// early exit).
    Exit,
    /// In-body conditional control flow: it selects an arm.
    Arm,
}

/// The path-hash rule: folds `ev` into `path`, the running hash of the
/// conditional-branch path one iteration of the loop `[lo..=hi]` takes
/// (see [`IterationProfile::path`]), and reports the role of a
/// conditional branch. Only arm branches move the hash; both their
/// direction and their PC identify the arm. Analysis (through
/// [`IterationRecorder`]) and conditional execution share this one
/// rule, so an arm hashes the same in both.
#[inline]
pub(crate) fn path_step(path: &mut u64, lo: u32, hi: u32, ev: &TraceEvent) -> Option<BranchRole> {
    let Instr::B { cond, .. } = ev.instr else { return None };
    if cond == Cond::Al {
        return None;
    }
    let b = ev.branch?;
    let in_range = |pc: u32| (lo..=hi).contains(&pc);
    if in_range(ev.pc) && !in_range(b.target) {
        Some(BranchRole::Exit)
    } else if b.target > ev.pc {
        *path = path
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(((ev.pc as u64) << 1) | b.taken as u64);
        Some(BranchRole::Arm)
    } else {
        None
    }
}

/// The observation matching `(pc, occ)` in an iteration's accesses.
#[inline]
pub(crate) fn find_access(accesses: &[StreamInfo], pc: u32, occ: u8) -> Option<&StreamInfo> {
    accesses.iter().find(|s| s.pc == pc && s.occ == occ)
}

/// Appends `ev`'s data-memory access, if it made one, to an
/// iteration's ordered access list, numbered by how many accesses the
/// same PC already made in the iteration. Returns whether it did.
#[inline]
pub(crate) fn push_access(accesses: &mut Vec<StreamInfo>, ev: &TraceEvent) -> bool {
    let Some(acc) = ev.read.or(ev.write) else { return false };
    let occ = accesses.iter().rev().find(|s| s.pc == ev.pc).map_or(0, |s| s.occ + 1);
    accesses.push(StreamInfo {
        pc: ev.pc,
        occ,
        is_write: ev.write.is_some(),
        bytes: acc.bytes,
        addr: acc.addr,
    });
    true
}

/// Records one iteration of the loop `[lo..=hi]` from commit events.
///
/// A recorder made by [`IterationRecorder::new`] keeps everything Data
/// Collection and Dependency Analysis read. One made by
/// [`IterationRecorder::accesses_only`] keeps only the ordered accesses
/// and the closing compare — all that the DSA-cache hit path reads —
/// and its [`IterationRecorder::finish`] skips body classification.
#[derive(Debug)]
pub struct IterationRecorder {
    lo: u32,
    hi: u32,
    /// Whether the whole iteration is recorded (not only accesses and
    /// the closing compare).
    full: bool,
    accesses: Vec<StreamInfo>,
    instrs: Vec<(u32, Instr)>,
    base_regs: HashSet<Reg>,
    last_cmp: Option<(CmpObs, Option<Reg>)>,
    path: u64,
    cond_branches: u32,
    cond_branch_pcs: Vec<u32>,
    /// Register moves observed (`rd <- rm`), for the transitive
    /// address-register closure.
    movs: Vec<(Reg, Reg)>,
    pcs: IdSet,
    has_call: bool,
    callee_range: Option<(u32, u32)>,
    exit_check_pc: Option<u32>,
    n_events: u32,
}

impl IterationRecorder {
    /// Creates a recorder for the loop body `[lo..=hi]` that records the
    /// whole iteration.
    pub fn new(lo: u32, hi: u32) -> IterationRecorder {
        IterationRecorder {
            lo,
            hi,
            full: true,
            accesses: Vec::new(),
            instrs: Vec::new(),
            base_regs: HashSet::new(),
            last_cmp: None,
            path: 0,
            cond_branches: 0,
            cond_branch_pcs: Vec::new(),
            movs: Vec::new(),
            pcs: IdSet::default(),
            has_call: false,
            callee_range: None,
            exit_check_pc: None,
            n_events: 0,
        }
    }

    /// Creates a recorder for the loop body `[lo..=hi]` that keeps only
    /// the ordered accesses and the closing compare. The profile it
    /// finishes carries a default [`BodyProfile`] and no PC, branch or
    /// call observations.
    pub fn accesses_only(lo: u32, hi: u32) -> IterationRecorder {
        IterationRecorder { full: false, ..IterationRecorder::new(lo, hi) }
    }

    fn in_range(&self, pc: u32) -> bool {
        (self.lo..=self.hi).contains(&pc)
    }

    /// Feeds one committed event (the closing backward branch itself
    /// should *not* be fed; it delimits iterations).
    pub fn record(&mut self, ev: &TraceEvent, machine: &Machine) {
        if let Instr::Cmp { rn, src2 } = ev.instr {
            let lhs = machine.reg(rn) as i32 as i64;
            let (rhs, rhs_is_imm) = match src2 {
                Operand::Reg(rm) => (machine.reg(rm) as i32 as i64, false),
                Operand::Imm(v) => (v as i64, true),
            };
            self.last_cmp = Some((CmpObs { pc: ev.pc, lhs, rhs, rhs_is_imm }, Some(rn)));
        }
        if push_access(&mut self.accesses, ev) && self.full {
            match ev.instr {
                Instr::Ldr { rn, .. }
                | Instr::Str { rn, .. }
                | Instr::LdrReg { rn, .. }
                | Instr::StrReg { rn, .. } => {
                    self.base_regs.insert(rn);
                }
                _ => {}
            }
        }
        if !self.full {
            return;
        }

        self.n_events += 1;
        if self.in_range(ev.pc) {
            self.pcs.insert(ev.pc);
        } else if let Some((lo, hi)) = &mut self.callee_range {
            *lo = (*lo).min(ev.pc);
            *hi = (*hi).max(ev.pc);
        } else {
            self.callee_range = Some((ev.pc, ev.pc));
        }
        self.instrs.push((ev.pc, ev.instr));

        match ev.instr {
            Instr::Mov { rd, rm } => self.movs.push((rd, rm)),
            Instr::Bl { .. } => self.has_call = true,
            _ => match path_step(&mut self.path, self.lo, self.hi, ev) {
                Some(BranchRole::Exit) => self.exit_check_pc = Some(ev.pc),
                Some(BranchRole::Arm) => {
                    self.cond_branches += 1;
                    self.cond_branch_pcs.push(ev.pc);
                }
                None => {}
            },
        }
    }

    /// Finalises the iteration and classifies its operations (a
    /// recorder made by [`IterationRecorder::accesses_only`] skips the
    /// classification).
    pub fn finish(self, index_reg: Option<Reg>) -> IterationProfile {
        let mut body = BodyProfile::default();
        let mut value_op_pcs = Vec::new();
        if self.full {
            self.classify(index_reg, &mut body, &mut value_op_pcs);
        }
        IterationProfile {
            accesses: self.accesses,
            closing_cmp: self.last_cmp.map(|(c, _)| c),
            path: self.path,
            cond_branches: self.cond_branches,
            pcs: self.pcs,
            body,
            has_call: self.has_call,
            callee_range: self.callee_range,
            exit_check_pc: self.exit_check_pc,
            value_op_pcs,
            cond_branch_pcs: self.cond_branch_pcs,
            n_events: self.n_events,
        }
    }

    /// Fills `body` and `value_op_pcs` from the recorded instructions.
    fn classify(
        &self,
        index_reg: Option<Reg>,
        body: &mut BodyProfile,
        value_op_pcs: &mut Vec<u32>,
    ) {
        let mut widths: HashSet<u8> = HashSet::new();
        for s in &self.accesses {
            widths.insert(s.bytes);
            if s.is_write {
                body.stores += 1;
            } else {
                body.loads += 1;
            }
        }
        body.elem_bytes = match widths.len() {
            0 => None,
            1 => widths.iter().next().copied(),
            _ => None, // inconsistent member lengths (Table 1, line 9)
        };

        let overhead_regs: HashSet<Reg> = {
            let mut set = self.base_regs.clone();
            if let Some(r) = index_reg {
                set.insert(r);
            }
            if let Some((_, Some(r))) = self.last_cmp {
                set.insert(r);
            }
            // Transitive closure over moves: a register copied into an
            // address register is itself address arithmetic (e.g. an
            // outer loop's row pointer feeding the inner loop's base).
            loop {
                let before = set.len();
                for &(rd, rm) in &self.movs {
                    if set.contains(&rd) {
                        set.insert(rm);
                    }
                }
                if set.len() == before {
                    break;
                }
            }
            set
        };

        for (pc, instr) in &self.instrs {
            match instr {
                Instr::Alu { op, rd, .. } => {
                    if overhead_regs.contains(rd) {
                        body.droppable += 1;
                        continue;
                    }
                    value_op_pcs.push(*pc);
                    match op {
                        AluOp::Add | AluOp::Sub | AluOp::Rsb | AluOp::And | AluOp::Orr
                        | AluOp::Eor => body.vec_alu += 1,
                        AluOp::Mul => body.vec_mul += 1,
                        AluOp::FAdd | AluOp::FSub => {
                            body.vec_alu += 1;
                            body.float = true;
                        }
                        AluOp::FMul => {
                            body.vec_mul += 1;
                            body.float = true;
                        }
                        AluOp::Lsr | AluOp::Asr => body.vec_shift += 1,
                        AluOp::Lsl => body.nonvec += 1,
                    }
                }
                Instr::LdrReg { .. } | Instr::StrReg { .. } => {
                    value_op_pcs.push(*pc);
                    body.nonvec += 1;
                }
                Instr::Ldr { .. } | Instr::Str { .. } => {} // counted as streams
                Instr::MovImm { .. }
                | Instr::MovTop { .. }
                | Instr::Mov { .. }
                | Instr::Cmp { .. }
                | Instr::B { .. }
                | Instr::Bl { .. }
                | Instr::BxLr
                | Instr::Nop => body.droppable += 1,
                Instr::Halt => body.nonvec += 1,
                // Vector instructions in the watched stream mean the code
                // is already vectorized; the DSA leaves it alone.
                _ => body.nonvec += 1,
            }
        }
    }

    /// The register compared by the most recent compare (the induction
    /// candidate), if any.
    pub fn last_cmp_reg(&self) -> Option<Reg> {
        self.last_cmp.and_then(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_cpu::{BranchOutcome, MemAccess};
    use dsa_isa::{AddrMode, Cond, MemSize};

    fn machine() -> Machine {
        Machine::new()
    }

    fn ld(pc: u32, rd: Reg, rn: Reg, addr: u32) -> TraceEvent {
        let mut ev = TraceEvent::simple(
            pc,
            Instr::Ldr { rd, rn, mode: AddrMode::Offset(0), size: MemSize::W },
        );
        ev.read = Some(MemAccess { addr, bytes: 4 });
        ev
    }

    fn st(pc: u32, rs: Reg, rn: Reg, addr: u32) -> TraceEvent {
        let mut ev = TraceEvent::simple(
            pc,
            Instr::Str { rs, rn, mode: AddrMode::Offset(0), size: MemSize::W },
        );
        ev.write = Some(MemAccess { addr, bytes: 4 });
        ev
    }

    fn alu(pc: u32, op: AluOp, rd: Reg) -> TraceEvent {
        TraceEvent::simple(pc, Instr::Alu { op, rd, rn: Reg::R6, src2: Operand::Reg(Reg::R7) })
    }

    #[test]
    fn straight_line_map_iteration() {
        let m = machine();
        let mut r = IterationRecorder::new(10, 20);
        r.record(&ld(10, Reg::R6, Reg::R2, 0x100), &m);
        r.record(&ld(11, Reg::R7, Reg::R3, 0x200), &m);
        r.record(&alu(12, AluOp::Add, Reg::R6), &m);
        r.record(&st(13, Reg::R6, Reg::R4, 0x300), &m);
        r.record(&alu(14, AluOp::Add, Reg::R2), &m); // pointer update
        r.record(&alu(15, AluOp::Add, Reg::R0), &m); // index update (cmp reg)
        r.record(
            &TraceEvent::simple(16, Instr::Cmp { rn: Reg::R0, src2: Operand::Imm(40) }),
            &m,
        );
        let p = r.finish(Some(Reg::R0));
        assert_eq!(p.body.loads, 2);
        assert_eq!(p.body.stores, 1);
        assert_eq!(p.body.vec_alu, 1, "one real add");
        assert_eq!(p.body.droppable, 3, "two pointer/index adds + cmp");
        assert_eq!(p.body.nonvec, 0);
        assert!(p.body.is_vectorizable());
        assert_eq!(p.body.elem_bytes, Some(4));
        assert_eq!(p.body_class(), BodyClass::Straight);
        let cmp = p.closing_cmp.expect("cmp recorded");
        assert!(cmp.rhs_is_imm);
        assert_eq!(cmp.rhs, 40);
    }

    #[test]
    fn conditional_path_hash_differs_by_direction() {
        let m = machine();
        let b = |taken: bool| {
            let mut ev = TraceEvent::simple(12, Instr::B { cond: Cond::Ge, offset: 3 });
            ev.branch = Some(BranchOutcome { target: 15, taken });
            ev
        };
        let mut r1 = IterationRecorder::new(10, 20);
        r1.record(&b(true), &m);
        let mut r2 = IterationRecorder::new(10, 20);
        r2.record(&b(false), &m);
        let p1 = r1.finish(None);
        let p2 = r2.finish(None);
        assert_ne!(p1.path, p2.path);
        assert_eq!(p1.cond_branches, 1);
        assert_eq!(p1.body_class(), BodyClass::Conditional);
    }

    #[test]
    fn sentinel_exit_branch_detected() {
        let m = machine();
        let mut r = IterationRecorder::new(10, 20);
        let mut ev = TraceEvent::simple(11, Instr::B { cond: Cond::Eq, offset: 30 });
        ev.branch = Some(BranchOutcome { target: 41, taken: false });
        r.record(&ev, &m);
        let p = r.finish(None);
        assert_eq!(p.exit_check_pc, Some(11));
        // A not-taken exit branch is not conditional body code.
        assert_eq!(p.cond_branches, 0, "exit check is not an arm");
    }

    #[test]
    fn mixed_widths_rejected() {
        let m = machine();
        let mut r = IterationRecorder::new(0, 10);
        r.record(&ld(0, Reg::R6, Reg::R2, 0x100), &m);
        let mut byte_ld = TraceEvent::simple(
            1,
            Instr::Ldr { rd: Reg::R7, rn: Reg::R3, mode: AddrMode::Offset(0), size: MemSize::B },
        );
        byte_ld.read = Some(MemAccess { addr: 0x200, bytes: 1 });
        r.record(&byte_ld, &m);
        let p = r.finish(None);
        assert_eq!(p.body.elem_bytes, None);
        assert!(!p.body.is_vectorizable());
    }

    #[test]
    fn function_call_and_callee_range() {
        let m = machine();
        let mut r = IterationRecorder::new(10, 20);
        let mut bl = TraceEvent::simple(12, Instr::Bl { offset: 100 });
        bl.branch = Some(BranchOutcome { target: 112, taken: true });
        r.record(&bl, &m);
        r.record(&alu(112, AluOp::Mul, Reg::R8), &m);
        let mut ret = TraceEvent::simple(113, Instr::BxLr);
        ret.branch = Some(BranchOutcome { target: 13, taken: true });
        r.record(&ret, &m);
        let p = r.finish(None);
        assert!(p.has_call);
        assert_eq!(p.callee_range, Some((112, 113)));
        assert_eq!(p.body.vec_mul, 1);
        assert_eq!(p.body_class(), BodyClass::Function);
    }

    #[test]
    fn accesses_only_keeps_what_the_hit_path_reads() {
        let mut m = machine();
        m.set_reg(Reg::R0, 7);
        let events = [
            ld(10, Reg::R6, Reg::R2, 0x100),
            alu(11, AluOp::Add, Reg::R6),
            st(12, Reg::R6, Reg::R4, 0x300),
            ld(10, Reg::R6, Reg::R2, 0x104),
            TraceEvent::simple(13, Instr::Cmp { rn: Reg::R0, src2: Operand::Imm(40) }),
        ];
        let (mut full, mut lean) =
            (IterationRecorder::new(10, 20), IterationRecorder::accesses_only(10, 20));
        for ev in &events {
            full.record(ev, &m);
            lean.record(ev, &m);
        }
        let (full, lean) = (full.finish(Some(Reg::R0)), lean.finish(Some(Reg::R0)));
        assert_eq!(lean.accesses, full.accesses);
        assert_eq!(lean.find(10, 1).map(|s| s.addr), Some(0x104));
        assert_eq!(lean.closing_cmp, full.closing_cmp);
        assert_eq!(lean.closing_cmp.map(|c| (c.lhs, c.rhs)), Some((7, 40)));
        assert_eq!(full.body.vec_alu, 1);
        assert_eq!(lean.body, BodyProfile::default(), "classification skipped");
        assert!(lean.pcs.is_empty());
    }

    #[test]
    fn path_step_is_the_recorders_rule() {
        let m = machine();
        let branch = |pc: u32, target: u32, taken: bool| {
            let mut ev = TraceEvent::simple(pc, Instr::B { cond: Cond::Ge, offset: 1 });
            ev.branch = Some(BranchOutcome { target, taken });
            ev
        };
        let events = [branch(12, 15, true), branch(16, 40, false), branch(17, 19, false)];
        let mut r = IterationRecorder::new(10, 20);
        let mut path = 0;
        let mut roles = Vec::new();
        for ev in &events {
            r.record(ev, &m);
            roles.push(path_step(&mut path, 10, 20, ev));
        }
        assert_eq!(roles, [Some(BranchRole::Arm), Some(BranchRole::Exit), Some(BranchRole::Arm)]);
        let p = r.finish(None);
        assert_eq!(p.path, path);
        assert_eq!(p.cond_branch_pcs, vec![12, 17]);
        assert_eq!(p.exit_check_pc, Some(16));
        // An unconditional branch and a backward branch leave the hash.
        let mut other = path;
        let mut b_al = TraceEvent::simple(14, Instr::B { cond: Cond::Al, offset: 2 });
        b_al.branch = Some(BranchOutcome { target: 16, taken: true });
        assert_eq!(path_step(&mut other, 10, 20, &b_al), None);
        assert_eq!(path_step(&mut other, 10, 20, &branch(20, 10, true)), None);
        assert_eq!(other, path);
    }

    #[test]
    fn occurrence_numbering_for_repeated_pcs() {
        let m = machine();
        let mut r = IterationRecorder::new(0, 10);
        r.record(&ld(3, Reg::R6, Reg::R2, 0x100), &m);
        r.record(&ld(3, Reg::R6, Reg::R2, 0x104), &m);
        let p = r.finish(None);
        assert_eq!(p.find(3, 0).map(|s| s.addr), Some(0x100));
        assert_eq!(p.find(3, 1).map(|s| s.addr), Some(0x104));
        assert!(p.find(3, 2).is_none());
    }
}
