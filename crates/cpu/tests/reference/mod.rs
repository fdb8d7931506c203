//! An `Instr`-level interpreter with its own register, flag and memory
//! state: the independent reference that the predecoded executor is
//! checked against.
//!
//! It reads every operand straight from the `Instr`, resolves branch
//! targets from their offsets, sizes each access itself and decides
//! every vector-shape rejection itself, so a fault in decode's
//! flattening or validation shows as a disagreement. Only the lane
//! arithmetic of whole-register ops (`vec128::apply`, `splat`,
//! `splat_scalar`, `reduce_add`) is shared; `vec128`'s own tests check
//! it. Nothing outside the tests runs this code.

// Each test binary that includes this module uses a different part.
#![allow(dead_code)]

use std::collections::BTreeMap;

use dsa_cpu::{
    vec128, BranchOutcome, ExecError, LaneError, Machine, MemAccess, TraceEvent, DEFAULT_SP,
};
use dsa_isa::{AddrMode, AluOp, Cond, ElemType, Instr, Operand, Reg};

/// Architectural state and the one-instruction step.
#[derive(Debug, Clone)]
pub struct Reference {
    regs: [u32; 16],
    qregs: [[u8; 16]; 16],
    /// N, Z, C, V.
    nzcv: [bool; 4],
    /// Every byte ever written; an absent byte reads 0.
    mem: BTreeMap<u32, u8>,
    halted: bool,
    /// Instructions committed.
    pub commits: u64,
}

impl Default for Reference {
    fn default() -> Reference {
        let mut regs = [0; 16];
        regs[Reg::SP.index() as usize] = DEFAULT_SP;
        Reference {
            regs,
            qregs: [[0; 16]; 16],
            nzcv: [false; 4],
            mem: BTreeMap::new(),
            halted: false,
            commits: 0,
        }
    }
}

fn sext16(i: i16) -> u32 {
    i as i32 as u32
}

fn lane_range(et: ElemType, lane: u8) -> std::ops::Range<usize> {
    let w = et.lane_bytes() as usize;
    lane as usize * w..(lane as usize + 1) * w
}

/// Lane `lane` as a scalar: sign-extended for I8/I16, raw bits otherwise.
fn get_lane(et: ElemType, q: &[u8; 16], lane: u8) -> u32 {
    let b = &q[lane_range(et, lane)];
    match et {
        ElemType::I8 => b[0] as i8 as u32,
        ElemType::I16 => i16::from_le_bytes([b[0], b[1]]) as u32,
        ElemType::I32 | ElemType::F32 => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
    }
}

/// Writes the low lane-width bytes of `v` into lane `lane`.
fn set_lane(et: ElemType, q: &mut [u8; 16], lane: u8, v: u32) {
    let r = lane_range(et, lane);
    let n = r.len();
    q[r].copy_from_slice(&v.to_le_bytes()[..n]);
}

fn check_lane(et: ElemType, lane: u8) -> Result<(), LaneError> {
    if (lane as u32) < 16 / et.lane_bytes() {
        Ok(())
    } else {
        Err(LaneError::LaneOutOfRange { et, lane })
    }
}

impl Reference {
    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    fn set(&mut self, r: Reg, v: u32) {
        self.regs[r.index() as usize] = v;
    }

    fn pc(&self) -> u32 {
        self.reg(Reg::PC)
    }

    fn src(&self, op: Operand) -> u32 {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(i) => sext16(i),
        }
    }

    fn cond(&self, c: Cond) -> bool {
        let [n, z, _, v] = self.nzcv;
        match c {
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Ge => n == v,
            Cond::Lt => n != v,
            Cond::Gt => !z && n == v,
            Cond::Le => z || n != v,
            Cond::Al => true,
        }
    }

    fn load(&self, addr: u32, bytes: u32) -> u32 {
        (0..bytes).rev().fold(0, |acc, i| {
            acc << 8 | *self.mem.get(&addr.wrapping_add(i)).unwrap_or(&0) as u32
        })
    }

    fn store(&mut self, addr: u32, bytes: u32, v: u32) {
        for i in 0..bytes {
            self.mem.insert(addr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }

    fn load_q(&self, addr: u32) -> [u8; 16] {
        std::array::from_fn(|i| *self.mem.get(&addr.wrapping_add(i as u32)).unwrap_or(&0))
    }

    fn store_q(&mut self, addr: u32, q: [u8; 16]) {
        for (i, b) in q.into_iter().enumerate() {
            self.mem.insert(addr.wrapping_add(i as u32), b);
        }
    }

    fn alu(op: AluOp, a: u32, b: u32) -> u32 {
        let f = |x: u32| f32::from_bits(x);
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Rsb => b.wrapping_sub(a),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Orr => a | b,
            AluOp::Eor => a ^ b,
            AluOp::Lsl => a << (b & 31),
            AluOp::Lsr => a >> (b & 31),
            AluOp::Asr => ((a as i32) >> (b & 31)) as u32,
            AluOp::FAdd => (f(a) + f(b)).to_bits(),
            AluOp::FSub => (f(a) - f(b)).to_bits(),
            AluOp::FMul => (f(a) * f(b)).to_bits(),
        }
    }

    /// Effective address and written-back base of a scalar access.
    fn address(&self, rn: Reg, mode: AddrMode) -> (u32, Option<u32>) {
        let base = self.reg(rn);
        match mode {
            AddrMode::Offset(i) => (base.wrapping_add(sext16(i)), None),
            AddrMode::PreInc(i) => (
                base.wrapping_add(sext16(i)),
                Some(base.wrapping_add(sext16(i))),
            ),
            AddrMode::PostInc(i) => (base, Some(base.wrapping_add(sext16(i)))),
        }
    }

    /// Commits the instruction at the pc and returns its event, or the
    /// error the executor must report, with no state changed.
    pub fn step(&mut self, program: &[Instr]) -> Result<TraceEvent, ExecError> {
        if self.halted {
            return Err(ExecError::Halted);
        }
        let pc = self.pc();
        let instr = *program
            .get(pc as usize)
            .ok_or(ExecError::PcOutOfRange { pc })?;
        let trap = |err| ExecError::Vector { pc, err };
        let mut ev = TraceEvent {
            pc,
            instr,
            read: None,
            write: None,
            branch: None,
        };
        let access = |addr, bytes: u32| {
            Some(MemAccess {
                addr,
                bytes: bytes as u8,
            })
        };
        let mut next = pc.wrapping_add(1);
        match instr {
            Instr::Nop => {}
            Instr::Halt => self.halted = true,
            Instr::MovImm { rd, imm } => self.set(rd, sext16(imm)),
            Instr::MovTop { rd, imm } => {
                let v = (imm as u32) << 16 | (self.reg(rd) & 0xffff);
                self.set(rd, v);
            }
            Instr::Mov { rd, rm } => self.set(rd, self.reg(rm)),
            Instr::Alu { op, rd, rn, src2 } => {
                self.set(rd, Reference::alu(op, self.reg(rn), self.src(src2)))
            }
            Instr::Cmp { rn, src2 } => {
                let (a, b) = (self.reg(rn), self.src(src2));
                let r = a.wrapping_sub(b);
                let overflow = ((a ^ b) & (a ^ r)) >> 31 == 1;
                self.nzcv = [r >> 31 == 1, r == 0, a >= b, overflow];
            }
            Instr::B { cond, offset } => {
                let target = pc.wrapping_add(offset as u32);
                let taken = self.cond(cond);
                if taken {
                    next = target;
                }
                ev.branch = Some(BranchOutcome { target, taken });
            }
            Instr::Bl { offset } => {
                next = pc.wrapping_add(offset as u32);
                self.set(Reg::LR, pc.wrapping_add(1));
                ev.branch = Some(BranchOutcome {
                    target: next,
                    taken: true,
                });
            }
            Instr::BxLr => {
                next = self.reg(Reg::LR);
                ev.branch = Some(BranchOutcome {
                    target: next,
                    taken: true,
                });
            }
            Instr::Ldr { rd, rn, mode, size } => {
                let (addr, wb) = self.address(rn, mode);
                let v = self.load(addr, size.bytes());
                if let Some(b) = wb {
                    self.set(rn, b);
                }
                self.set(rd, v);
                ev.read = access(addr, size.bytes());
            }
            Instr::Str { rs, rn, mode, size } => {
                let (addr, wb) = self.address(rn, mode);
                self.store(addr, size.bytes(), self.reg(rs));
                if let Some(b) = wb {
                    self.set(rn, b);
                }
                ev.write = access(addr, size.bytes());
            }
            Instr::LdrReg {
                rd,
                rn,
                rm,
                lsl,
                size,
            } => {
                let addr = self.reg(rn).wrapping_add(self.reg(rm) << lsl);
                self.set(rd, self.load(addr, size.bytes()));
                ev.read = access(addr, size.bytes());
            }
            Instr::StrReg {
                rs,
                rn,
                rm,
                lsl,
                size,
            } => {
                let addr = self.reg(rn).wrapping_add(self.reg(rm) << lsl);
                self.store(addr, size.bytes(), self.reg(rs));
                ev.write = access(addr, size.bytes());
            }
            Instr::Vld1 {
                qd, rn, writeback, ..
            } => {
                let addr = self.reg(rn);
                self.qregs[qd.index() as usize] = self.load_q(addr);
                if writeback {
                    self.set(rn, addr.wrapping_add(16));
                }
                ev.read = access(addr, 16);
            }
            Instr::Vst1 {
                qs, rn, writeback, ..
            } => {
                let addr = self.reg(rn);
                self.store_q(addr, self.qregs[qs.index() as usize]);
                if writeback {
                    self.set(rn, addr.wrapping_add(16));
                }
                ev.write = access(addr, 16);
            }
            Instr::Vld1Lane {
                qd,
                lane,
                rn,
                writeback,
                et,
            } => {
                check_lane(et, lane).map_err(trap)?;
                let (addr, w) = (self.reg(rn), et.lane_bytes());
                let v = self.load(addr, w);
                set_lane(et, &mut self.qregs[qd.index() as usize], lane, v);
                if writeback {
                    self.set(rn, addr.wrapping_add(w));
                }
                ev.read = access(addr, w);
            }
            Instr::Vst1Lane {
                qs,
                lane,
                rn,
                writeback,
                et,
            } => {
                check_lane(et, lane).map_err(trap)?;
                let (addr, w) = (self.reg(rn), et.lane_bytes());
                self.store(
                    addr,
                    w,
                    get_lane(et, &self.qregs[qs.index() as usize], lane),
                );
                if writeback {
                    self.set(rn, addr.wrapping_add(w));
                }
                ev.write = access(addr, w);
            }
            Instr::Vop { op, et, qd, qn, qm } => {
                let (a, b) = (
                    self.qregs[qn.index() as usize],
                    self.qregs[qm.index() as usize],
                );
                self.qregs[qd.index() as usize] = vec128::apply(op, et, a, b);
            }
            Instr::VshrImm { qd, qn, shift, et } => {
                if et == ElemType::F32 {
                    return Err(trap(LaneError::UnsupportedElement {
                        et,
                        op: "vector shift",
                    }));
                }
                if shift as u32 >= 8 * et.lane_bytes() {
                    return Err(trap(LaneError::ShiftOutOfRange { et, shift }));
                }
                let src = self.qregs[qn.index() as usize];
                let mut out = [0u8; 16];
                for lane in 0..(16 / et.lane_bytes()) as u8 {
                    // Logical: the lane's bits as unsigned.
                    let bits = 8 * et.lane_bytes();
                    let v = get_lane(et, &src, lane) & (u32::MAX >> (32 - bits));
                    set_lane(et, &mut out, lane, v >> shift);
                }
                self.qregs[qd.index() as usize] = out;
            }
            Instr::Vdup { qd, rm, et } => {
                self.qregs[qd.index() as usize] = vec128::splat_scalar(et, self.reg(rm));
            }
            Instr::VdupImm { qd, imm, et } => {
                self.qregs[qd.index() as usize] = vec128::splat(et, imm);
            }
            Instr::Vmov { qd, qm } => {
                self.qregs[qd.index() as usize] = self.qregs[qm.index() as usize]
            }
            Instr::Vaddv { rd, qn, et } => {
                self.set(rd, vec128::reduce_add(et, self.qregs[qn.index() as usize]))
            }
            Instr::VmovToScalar { rd, qn, lane, et } => {
                check_lane(et, lane).map_err(trap)?;
                self.set(rd, get_lane(et, &self.qregs[qn.index() as usize], lane));
            }
            Instr::VmovFromScalar { qd, lane, rm, et } => {
                check_lane(et, lane).map_err(trap)?;
                let v = self.reg(rm);
                set_lane(et, &mut self.qregs[qd.index() as usize], lane, v);
            }
        }
        self.set(Reg::PC, next);
        self.commits += 1;
        Ok(ev)
    }

    /// Asserts that `m` holds this state: registers, vector registers,
    /// flags, the halt latch, and every byte of memory either side has.
    pub fn assert_matches(&self, m: &Machine, at: &str) {
        self.assert_registers_match(m, at);
        for (&addr, &b) in &self.mem {
            assert_eq!(m.mem.read_u8(addr), b, "{at}: byte {addr:#x}");
        }
        for (page, bytes) in m.mem.pages() {
            let base = page.wrapping_mul(dsa_mem::PAGE_BYTES as u32);
            for (i, &b) in bytes.iter().enumerate() {
                let addr = base + i as u32;
                assert_eq!(
                    self.mem.get(&addr).copied().unwrap_or(0),
                    b,
                    "{at}: byte {addr:#x}"
                );
            }
        }
    }

    /// [`Reference::assert_matches`] without the whole-memory sweep, plus
    /// the bytes of `ev`'s write.
    pub fn assert_commit_matches(&self, m: &Machine, ev: &TraceEvent, at: &str) {
        self.assert_registers_match(m, at);
        if let Some(w) = ev.write {
            for i in 0..w.bytes as u32 {
                let addr = w.addr.wrapping_add(i);
                assert_eq!(
                    m.mem.read_u8(addr),
                    self.mem[&addr],
                    "{at}: written byte {addr:#x}"
                );
            }
        }
    }

    fn assert_registers_match(&self, m: &Machine, at: &str) {
        assert_eq!(m.regs(), &self.regs, "{at}: registers");
        assert_eq!(m.qregs(), &self.qregs, "{at}: vector registers");
        let f = m.flags();
        assert_eq!([f.n, f.z, f.c, f.v], self.nzcv, "{at}: flags");
        assert_eq!(m.is_halted(), self.halted, "{at}: halt latch");
    }
}
