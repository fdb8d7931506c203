//! Architectural state, the operation semantics the predecoded executor
//! ([`crate::decoded`]) applies to it, and the executor's errors.

use dsa_isa::{AddrMode, AluOp, Cond, MemSize, QReg, Reg};
use dsa_mem::MainMemory;
use dsa_trace::SimFaultKind;

use crate::vec128::LaneError;

/// NZCV condition flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Carry (unsigned no-borrow on compares).
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl Flags {
    /// Packs NZCV into the low four bits (`n` is bit 3, `v` is bit 0) —
    /// the snapshot wire encoding.
    pub fn to_bits(self) -> u8 {
        (self.n as u8) << 3 | (self.z as u8) << 2 | (self.c as u8) << 1 | self.v as u8
    }

    /// Inverse of [`Flags::to_bits`]; bits above the low four are
    /// ignored.
    pub fn from_bits(bits: u8) -> Flags {
        Flags { n: bits & 8 != 0, z: bits & 4 != 0, c: bits & 2 != 0, v: bits & 1 != 0 }
    }

    /// Evaluates a condition code against the flags.
    pub fn check(self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.z,
            Cond::Ne => !self.z,
            Cond::Ge => self.n == self.v,
            Cond::Lt => self.n != self.v,
            Cond::Gt => !self.z && self.n == self.v,
            Cond::Le => self.z || self.n != self.v,
            Cond::Al => true,
        }
    }
}

/// Error from the functional executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The PC walked off the end of the program without hitting `halt`.
    PcOutOfRange {
        /// The offending PC (instruction units).
        pc: u32,
    },
    /// A step was asked of a machine that has halted.
    Halted,
    /// A vector instruction had no defined lane semantics.
    Vector {
        /// PC of the offending instruction.
        pc: u32,
        /// The lane-level rejection.
        err: LaneError,
    },
}

impl ExecError {
    /// The error's kind, as [`dsa_trace::Event::SimFault`] reports it.
    pub fn kind(&self) -> SimFaultKind {
        match self {
            ExecError::PcOutOfRange { .. } => SimFaultKind::PcOutOfRange,
            ExecError::Halted => SimFaultKind::Halted,
            ExecError::Vector { .. } => SimFaultKind::VectorLane,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            ExecError::Halted => write!(f, "machine is halted"),
            ExecError::Vector { pc, err } => write!(f, "vector instruction at pc {pc}: {err}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Error from a bounded simulation run: either the functional executor
/// failed, or the step-budget watchdog fired because the program never
/// halted (e.g. a misspeculated sentinel loop spinning forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The functional executor rejected an instruction.
    Exec(ExecError),
    /// The watchdog budget was exhausted before `halt`.
    StepBudgetExceeded {
        /// PC at which the budget ran out.
        pc: u32,
        /// The exhausted budget (committed instructions).
        steps: u64,
    },
}

impl SimError {
    /// The failure's kind, as [`dsa_trace::Event::SimFault`] reports it.
    pub fn kind(&self) -> SimFaultKind {
        match self {
            SimError::Exec(e) => e.kind(),
            SimError::StepBudgetExceeded { .. } => SimFaultKind::StepBudgetExceeded,
        }
    }

    /// PC at which the failure occurred (0 when the executor error
    /// carries no location, i.e. a post-halt step).
    pub fn pc(&self) -> u32 {
        match self {
            SimError::Exec(ExecError::PcOutOfRange { pc })
            | SimError::Exec(ExecError::Vector { pc, .. })
            | SimError::StepBudgetExceeded { pc, .. } => *pc,
            SimError::Exec(ExecError::Halted) => 0,
        }
    }

    /// The [`dsa_trace::Event::SimFault`] record for this failure at
    /// core cycle `cycle`.
    pub fn telemetry(&self, cycle: u64) -> dsa_trace::Event {
        dsa_trace::Event::SimFault { kind: self.kind(), pc: self.pc(), cycle }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec(e) => e.fmt(f),
            SimError::StepBudgetExceeded { pc, steps } => {
                write!(f, "did not halt within {steps} steps (stuck at pc {pc})")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Exec(e) => Some(e),
            SimError::StepBudgetExceeded { .. } => None,
        }
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

/// Full architectural state: sixteen scalar registers, sixteen 128-bit
/// vector registers, the NZCV flags and main memory.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u32; 16],
    qregs: [[u8; 16]; 16],
    flags: Flags,
    /// Data memory (instructions are fetched from the [`dsa_isa::Program`], not
    /// from this address space).
    pub mem: MainMemory,
    halted: bool,
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new()
    }
}

/// Default stack-pointer value: stacks grow down from 240 MB, well above
/// the data segments used by the workloads.
pub const DEFAULT_SP: u32 = 0x0F00_0000;

impl Machine {
    /// Creates a machine with zeroed registers, `sp` at [`DEFAULT_SP`]
    /// and empty memory.
    pub fn new() -> Machine {
        let mut m = Machine {
            regs: [0; 16],
            qregs: [[0; 16]; 16],
            flags: Flags::default(),
            mem: MainMemory::new(),
            halted: false,
        };
        m.regs[Reg::SP.index() as usize] = DEFAULT_SP;
        m
    }

    /// Reads a scalar register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a scalar register.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index() as usize] = value;
    }

    /// Reads a vector register.
    pub fn qreg(&self, q: QReg) -> [u8; 16] {
        self.qregs[q.index() as usize]
    }

    /// Writes a vector register.
    pub fn set_qreg(&mut self, q: QReg, value: [u8; 16]) {
        self.qregs[q.index() as usize] = value;
    }

    /// Current condition flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Current program counter (instruction units).
    pub fn pc(&self) -> u32 {
        self.regs[Reg::PC.index() as usize]
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.regs[Reg::PC.index() as usize] = pc;
    }

    /// Whether `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Latches the machine halted (`halt` committed).
    pub(crate) fn halt(&mut self) {
        self.halted = true;
    }

    /// Computes and sets the NZCV flags for `cmp a, b`.
    pub(crate) fn set_cmp_flags(&mut self, a: u32, b: u32) {
        let (res, borrow) = a.overflowing_sub(b);
        let sa = a as i32;
        let sb = b as i32;
        self.flags = Flags {
            n: (res as i32) < 0,
            z: res == 0,
            c: !borrow,
            v: sa.checked_sub(sb).is_none(),
        };
    }

    /// The result of ALU operation `op` on `a` and `b`.
    pub(crate) fn alu_result(&self, op: AluOp, a: u32, b: u32) -> u32 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Rsb => b.wrapping_sub(a),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Orr => a | b,
            AluOp::Eor => a ^ b,
            AluOp::Lsl => a.wrapping_shl(b & 31),
            AluOp::Lsr => a.wrapping_shr(b & 31),
            AluOp::Asr => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::FAdd => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
            AluOp::FSub => (f32::from_bits(a) - f32::from_bits(b)).to_bits(),
            AluOp::FMul => (f32::from_bits(a) * f32::from_bits(b)).to_bits(),
        }
    }

    /// Resolves an addressing mode against the current base value,
    /// returning `(effective address, new base if writeback)`.
    pub(crate) fn resolve(&self, rn: Reg, mode: AddrMode) -> (u32, Option<u32>) {
        let base = self.reg(rn);
        match mode {
            AddrMode::Offset(i) => (base.wrapping_add(i as i32 as u32), None),
            AddrMode::PostInc(i) => (base, Some(base.wrapping_add(i as i32 as u32))),
            AddrMode::PreInc(i) => {
                let a = base.wrapping_add(i as i32 as u32);
                (a, Some(a))
            }
        }
    }

    pub(crate) fn load_sized(&self, addr: u32, size: MemSize) -> u32 {
        match size {
            MemSize::B => self.mem.read_u8(addr) as u32,
            MemSize::H => self.mem.read_u16(addr) as u32,
            MemSize::W => self.mem.read_u32(addr),
        }
    }

    pub(crate) fn store_sized(&mut self, addr: u32, size: MemSize, value: u32) {
        match size {
            MemSize::B => self.mem.write_u8(addr, value as u8),
            MemSize::H => self.mem.write_u16(addr, value as u16),
            MemSize::W => self.mem.write_u32(addr, value),
        }
    }

    /// All sixteen scalar registers, for whole-state comparison.
    pub fn regs(&self) -> &[u32; 16] {
        &self.regs
    }

    /// All sixteen vector registers, for whole-state comparison.
    pub fn qregs(&self) -> &[[u8; 16]; 16] {
        &self.qregs
    }

    /// Stable digest over the full architectural state — scalar and
    /// vector register files, flags, and every allocated byte of memory.
    /// Two machines with identical architectural state produce identical
    /// digests, which is what the differential oracle compares.
    pub fn arch_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (i, r) in self.regs.iter().enumerate() {
            // PC and LR are control state, not data; skip them so runs
            // that halt at different addresses still compare equal.
            if i == Reg::PC.index() as usize || i == Reg::LR.index() as usize {
                continue;
            }
            for b in r.to_le_bytes() {
                mix(b);
            }
        }
        for q in &self.qregs {
            for &b in q {
                mix(b);
            }
        }
        mix(self.flags.n as u8);
        mix(self.flags.z as u8);
        mix(self.flags.c as u8);
        mix(self.flags.v as u8);
        h ^= self.mem.digest();
        h
    }

    /// Captures the complete architectural state (register files, flags,
    /// halt latch, every allocated memory page) into a serializable
    /// [`MachineState`]. Pages are exported in sorted page-number order
    /// so identical states always capture to identical values.
    pub fn capture(&self) -> MachineState {
        MachineState {
            regs: self.regs,
            qregs: self.qregs,
            flags: self.flags,
            halted: self.halted,
            pages: self
                .mem
                .pages()
                .into_iter()
                .map(|(k, p)| (k, Box::new(*p)))
                .collect(),
        }
    }

    /// Rebuilds a machine from a captured [`MachineState`]. The result
    /// is architecturally indistinguishable from the machine `capture`
    /// was called on: same `arch_digest`, same PC, same halt latch.
    pub fn restore(state: &MachineState) -> Machine {
        let mut mem = MainMemory::new();
        for (k, p) in &state.pages {
            mem.load_page(*k, p);
        }
        Machine {
            regs: state.regs,
            qregs: state.qregs,
            flags: state.flags,
            mem,
            halted: state.halted,
        }
    }
}

/// A serializable copy of a [`Machine`]'s full architectural state, as
/// produced by [`Machine::capture`] and consumed by [`Machine::restore`].
/// This is the CPU half of a crash-consistent snapshot; the DSA engine
/// half lives in `dsa-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    /// Scalar register file, including PC/SP/LR.
    pub regs: [u32; 16],
    /// Vector register file.
    pub qregs: [[u8; 16]; 16],
    /// NZCV flags.
    pub flags: Flags,
    /// Whether the machine has committed a `halt`.
    pub halted: bool,
    /// Allocated memory pages as `(page number, contents)`, sorted by
    /// page number.
    pub pages: Vec<(u32, Box<[u8; dsa_mem::PAGE_BYTES]>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemAccess;
    use crate::{CpuConfig, DecodedProgram, Simulator};
    use dsa_isa::{Asm, ElemType, Instr, Program, VecOp};

    /// `program` run on `m` to `halt` within `budget` commits.
    fn run_on(program: &Program, m: Machine, budget: u64) -> Result<Machine, SimError> {
        let mut sim = Simulator::with_machine(program.clone(), CpuConfig::default(), m);
        sim.run(budget)?;
        Ok(sim.machine().clone())
    }

    fn run_to_halt(program: &Program) -> Machine {
        run_on(program, Machine::new(), 1_000_000).expect("bounded run")
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 7);
        a.mov_imm(Reg::R1, 5);
        a.sub(Reg::R2, Reg::R0, Reg::R1); // 2
        a.mul(Reg::R3, Reg::R2, Reg::R0); // 14
        a.cmp_imm(Reg::R3, 14);
        a.halt();
        let m = run_to_halt(&a.finish());
        assert_eq!(m.reg(Reg::R2), 2);
        assert_eq!(m.reg(Reg::R3), 14);
        assert!(m.flags().z);
        assert!(m.flags().check(Cond::Eq));
        assert!(!m.flags().check(Cond::Ne));
    }

    #[test]
    fn fault_kinds_are_in_the_trace_vocabulary() {
        let err = LaneError::LaneOutOfRange { et: dsa_isa::ElemType::I8, lane: 16 };
        let errors = [
            SimError::Exec(ExecError::Halted),
            SimError::Exec(ExecError::PcOutOfRange { pc: 7 }),
            SimError::StepBudgetExceeded { pc: 7, steps: 1 },
            SimError::Exec(ExecError::Vector { pc: 7, err }),
        ];
        // One error per `SimFaultKind`, in its order, reported as such.
        assert_eq!(errors.map(|e| e.kind()), SimFaultKind::ALL);
        for e in errors {
            assert_eq!(e.telemetry(3), dsa_trace::Event::SimFault { kind: e.kind(), pc: e.pc(), cycle: 3 });
        }
    }

    #[test]
    fn flags_bits_roundtrip() {
        for bits in 0..16u8 {
            assert_eq!(Flags::from_bits(bits).to_bits(), bits);
        }
        assert_eq!(Flags::from_bits(0xF0).to_bits(), 0);
    }

    #[test]
    fn capture_restore_is_architecturally_identical() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 0x1EEF);
        a.mov_imm(Reg::R1, 0x200);
        a.str(Reg::R0, Reg::R1, 0);
        a.cmp_imm(Reg::R0, 0x1EEF);
        a.halt();
        let m = run_to_halt(&a.finish());
        let state = m.capture();
        let r = Machine::restore(&state);
        assert_eq!(r.arch_digest(), m.arch_digest());
        assert_eq!(r.pc(), m.pc());
        assert_eq!(r.is_halted(), m.is_halted());
        assert_eq!(r.mem.read_u32(0x200), 0x1EEF);
        assert!(r.flags().z);
        // Capture of the restored machine is identical to the original
        // capture (sorted page order makes this deterministic).
        assert_eq!(r.capture(), state);
    }

    #[test]
    fn signed_compare_conditions() {
        let mut m = Machine::new();
        m.set_cmp_flags((-5i32) as u32, 3);
        assert!(m.flags().check(Cond::Lt));
        assert!(!m.flags().check(Cond::Ge));
        m.set_cmp_flags(3, (-5i32) as u32);
        assert!(m.flags().check(Cond::Gt));
        m.set_cmp_flags(i32::MIN as u32, 1); // overflow case
        assert!(m.flags().check(Cond::Lt));
    }

    #[test]
    fn loop_with_post_increment_stores() {
        // for i in 0..8: mem[0x100 + 4i] = i
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 0); // i
        a.mov_imm(Reg::R1, 0x100); // ptr
        let top = a.here();
        a.str_post(Reg::R0, Reg::R1, 4);
        a.add_imm(Reg::R0, Reg::R0, 1);
        a.cmp_imm(Reg::R0, 8);
        a.b_to(Cond::Ne, top);
        a.halt();
        let m = run_to_halt(&a.finish());
        for i in 0..8 {
            assert_eq!(m.mem.read_u32(0x100 + 4 * i), i);
        }
        assert_eq!(m.reg(Reg::R1), 0x100 + 32);
    }

    #[test]
    fn function_call_and_return() {
        let mut a = Asm::new();
        let func = a.new_label();
        a.mov_imm(Reg::R0, 1);
        a.bl(func);
        a.add_imm(Reg::R0, Reg::R0, 100); // after return
        a.halt();
        a.bind(func);
        a.add_imm(Reg::R0, Reg::R0, 10);
        a.bx_lr();
        let m = run_to_halt(&a.finish());
        assert_eq!(m.reg(Reg::R0), 111);
    }

    #[test]
    fn stack_push_pop() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 42);
        a.push(Reg::R0);
        a.mov_imm(Reg::R0, 0);
        a.pop(Reg::R1);
        a.halt();
        let m = run_to_halt(&a.finish());
        assert_eq!(m.reg(Reg::R1), 42);
        assert_eq!(m.reg(Reg::SP), DEFAULT_SP);
    }

    #[test]
    fn float_scalar_ops() {
        let mut a = Asm::new();
        a.mov_imm_f32(Reg::R0, 1.5);
        a.mov_imm_f32(Reg::R1, 2.0);
        a.fmul(Reg::R2, Reg::R0, Reg::R1);
        a.fadd(Reg::R3, Reg::R2, Reg::R0);
        a.halt();
        let m = run_to_halt(&a.finish());
        assert_eq!(f32::from_bits(m.reg(Reg::R2)), 3.0);
        assert_eq!(f32::from_bits(m.reg(Reg::R3)), 4.5);
    }

    #[test]
    fn vector_load_op_store() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 0x200);
        a.mov_imm(Reg::R1, 0x300);
        a.mov_imm(Reg::R2, 0x400);
        a.vld1(QReg::Q0, Reg::R0, true, ElemType::I32);
        a.vld1(QReg::Q1, Reg::R1, true, ElemType::I32);
        a.vop(VecOp::Add, ElemType::I32, QReg::Q2, QReg::Q0, QReg::Q1);
        a.vst1(QReg::Q2, Reg::R2, true, ElemType::I32);
        a.halt();
        let program = a.finish();

        let mut m = Machine::new();
        for i in 0..4u32 {
            m.mem.write_u32(0x200 + 4 * i, i + 1);
            m.mem.write_u32(0x300 + 4 * i, 10 * (i + 1));
        }
        let m = run_on(&program, m, 100).expect("halts");
        for i in 0..4u32 {
            assert_eq!(m.mem.read_u32(0x400 + 4 * i), 11 * (i + 1));
        }
        assert_eq!(m.reg(Reg::R0), 0x210, "writeback advanced base");
    }

    #[test]
    fn trace_events_report_memory() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 0x500);
        a.ldr_post(Reg::R1, Reg::R0, 4);
        a.halt();
        let p = a.finish();
        let d = DecodedProgram::decode(&p);
        let (mut m, mut addrs) = (Machine::new(), Vec::new());
        d.step(&mut m, &mut addrs).unwrap();
        assert!(addrs.is_empty());
        d.step(&mut m, &mut addrs).unwrap();
        let ev = d.entry(1).event(1, p.as_slice()[1], addrs.first().copied(), None, m.pc());
        assert_eq!(ev.read, Some(MemAccess { addr: 0x500, bytes: 4 }));
        assert_eq!(ev.write, None);
    }

    #[test]
    fn watchdog_reports_stuck_pc() {
        // Infinite loop: b.al back to itself.
        let mut a = Asm::new();
        let top = a.here();
        a.b_to(Cond::Al, top);
        a.halt();
        assert_eq!(
            run_on(&a.finish(), Machine::new(), 100).map(|m| m.pc()),
            Err(SimError::StepBudgetExceeded { pc: 0, steps: 100 })
        );
    }

    #[test]
    fn digest_tracks_architectural_state() {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 0x600);
        a.str_post(Reg::R3, Reg::R0, 4);
        a.halt();
        let p = a.finish();
        let mut x = Machine::new();
        x.set_reg(Reg::R3, 7);
        let y = x.clone();
        assert_eq!(x.arch_digest(), y.arch_digest());
        let x = run_on(&p, x, 100).unwrap();
        assert_ne!(x.arch_digest(), y.arch_digest(), "store changed memory");
        let y = run_on(&p, y, 100).unwrap();
        assert_eq!(x.arch_digest(), y.arch_digest(), "same program, same state");
    }

    #[test]
    fn errors() {
        let d = DecodedProgram::decode(&Program::new(vec![Instr::Halt]));
        let (mut m, mut addrs) = (Machine::new(), Vec::new());
        d.step(&mut m, &mut addrs).unwrap();
        assert!(m.is_halted());
        assert_eq!(d.step(&mut m, &mut addrs), Err(ExecError::Halted));
        let empty = DecodedProgram::decode(&Program::new(vec![]));
        let mut m = Machine::new();
        assert_eq!(empty.step(&mut m, &mut addrs), Err(ExecError::PcOutOfRange { pc: 0 }));
    }
}
