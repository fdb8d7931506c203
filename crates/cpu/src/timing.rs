//! The in-order-issue superscalar timing model with NEON coprocessor.
//!
//! Every committed instruction is charged from its predecoded entry
//! ([`crate::DecodedInstr`]): its class and scoreboard dependencies
//! ([`Deps`]) are worked out once per program, at decode, and a stepped
//! commit ([`TimingModel::charge_step`]) and a superblock
//! ([`TimingModel::charge_block`]) read them from there through the
//! same scoreboard, predictor and cache arithmetic.

use dsa_isa::{ElemType, Instr, InstrClass, Operand, QReg, Reg, VecOp};
use dsa_mem::{MemoryStats, MemorySystem};

use crate::config::CpuConfig;
use crate::decoded::DecodedInstr;
use crate::predictor::BranchPredictor;

/// A vector operation injected by the DSA directly into the Issue stage
/// — it never passes through fetch/decode. Vector-only by type: each
/// constructor builds one vector shape, memory shapes always carry
/// their effective address, and the op's class and scoreboard
/// dependencies are fixed when it is built, so charging it derives
/// nothing per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedOp {
    instr: Instr,
    class: InstrClass,
    deps: Deps,
    /// Effective address of a memory shape; 0 for the others.
    addr: u32,
}

impl InjectedOp {
    fn new(instr: Instr, addr: u32) -> InjectedOp {
        InjectedOp { instr, class: instr.class(), deps: deps(&instr), addr }
    }

    /// `vld1` of a whole register from `addr`. Injected memory ops
    /// address memory directly, so none writes its base register back.
    pub fn vld1(qd: QReg, rn: Reg, et: ElemType, addr: u32) -> InjectedOp {
        InjectedOp::new(Instr::Vld1 { qd, rn, writeback: false, et }, addr)
    }

    /// `vst1` of a whole register to `addr`.
    pub fn vst1(qs: QReg, rn: Reg, et: ElemType, addr: u32) -> InjectedOp {
        InjectedOp::new(Instr::Vst1 { qs, rn, writeback: false, et }, addr)
    }

    /// `vld1` of one lane from `addr` (merging into `qd`).
    pub fn vld1_lane(qd: QReg, lane: u8, rn: Reg, et: ElemType, addr: u32) -> InjectedOp {
        InjectedOp::new(Instr::Vld1Lane { qd, lane, rn, writeback: false, et }, addr)
    }

    /// `vst1` of one lane to `addr`.
    pub fn vst1_lane(qs: QReg, lane: u8, rn: Reg, et: ElemType, addr: u32) -> InjectedOp {
        InjectedOp::new(Instr::Vst1Lane { qs, lane, rn, writeback: false, et }, addr)
    }

    /// A lane-wise binary operation `qd = qn op qm`.
    pub fn vop(op: VecOp, et: ElemType, qd: QReg, qn: QReg, qm: QReg) -> InjectedOp {
        InjectedOp::new(Instr::Vop { op, et, qd, qn, qm }, 0)
    }

    /// A lane-wise right shift by an immediate.
    pub fn vshr(qd: QReg, qn: QReg, shift: u8, et: ElemType) -> InjectedOp {
        InjectedOp::new(Instr::VshrImm { qd, qn, shift, et }, 0)
    }

    /// A register-to-register vector move.
    pub fn vmov(qd: QReg, qm: QReg) -> InjectedOp {
        InjectedOp::new(Instr::Vmov { qd, qm }, 0)
    }

    /// The operation as an instruction.
    pub fn instr(&self) -> Instr {
        self.instr
    }

    /// Its (vector) instruction class.
    pub fn class(&self) -> InstrClass {
        self.class
    }

    /// The effective address, for the memory shapes.
    pub fn addr(&self) -> Option<u32> {
        matches!(self.class, InstrClass::VecLoad | InstrClass::VecStore).then_some(self.addr)
    }
}

/// Per-class committed/injected instruction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts([u64; 16]);

fn class_index(c: InstrClass) -> usize {
    match c {
        InstrClass::Nop => 0,
        InstrClass::Halt => 1,
        InstrClass::IntAlu => 2,
        InstrClass::IntMul => 3,
        InstrClass::FpAlu => 4,
        InstrClass::FpMul => 5,
        InstrClass::Load => 6,
        InstrClass::Store => 7,
        InstrClass::Branch => 8,
        InstrClass::Call => 9,
        InstrClass::Return => 10,
        InstrClass::VecLoad => 11,
        InstrClass::VecStore => 12,
        InstrClass::VecAlu => 13,
        InstrClass::VecMul => 14,
        InstrClass::VecMove => 15,
    }
}

impl ClassCounts {
    /// Increments the counter for `class`.
    pub fn bump(&mut self, class: InstrClass) {
        self.0[class_index(class)] += 1;
    }

    /// Reads the counter for `class`.
    pub fn count(&self, class: InstrClass) -> u64 {
        self.0[class_index(class)]
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Sum of the vector-engine classes.
    pub fn vector_total(&self) -> u64 {
        self.0[11..16].iter().sum()
    }

    /// Adds `other`'s counters into `self` (batched form of N
    /// [`ClassCounts::bump`] calls).
    pub fn merge(&mut self, other: &ClassCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// Statistics accumulated by the timing model.
///
/// `PartialEq` so the block-mode/step-mode equivalence tests can assert
/// the two interpreter paths produce identical statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Instructions charged on the scalar pipeline.
    pub committed: u64,
    /// Scalar instructions whose timing was *covered* by DSA vector
    /// execution (functionally executed, not charged).
    pub covered: u64,
    /// Operations injected into the Issue stage by the DSA.
    pub injected: u64,
    /// Conditional-branch mispredictions charged.
    pub mispredicts: u64,
    /// Times the NEON queue was full at dispatch.
    pub neon_queue_stalls: u64,
    /// Cycles added by explicit stalls (pipeline flushes).
    pub stall_cycles: u64,
    /// Per-class counts of charged instructions.
    pub counts: ClassCounts,
    /// Per-class counts of injected operations.
    pub injected_counts: ClassCounts,
}

/// Scoreboard slot layout: the 16 architectural registers, then three
/// synthetic slots that make dependency bookkeeping branchless. Absent
/// sources read slot [`ZERO_SLOT`] (pinned at cycle 0), absent
/// destinations write slot [`SCRATCH_SLOT`] (never read), and the
/// condition flags live in slot [`FLAGS_SLOT`] of the scalar board. The
/// mix of present/absent operands varies per instruction, so `Option`
/// tests here were the timing replay's dominant branch-misprediction
/// source; indexed sentinel slots replace every such branch with a plain
/// array access.
const ZERO_SLOT: u8 = 16;
const SCRATCH_SLOT: u8 = 17;
const FLAGS_SLOT: u8 = 18;
const REG_SLOTS: usize = 19;
/// Q-register board: 16 registers + zero + scratch (no flags).
const QREG_SLOTS: usize = 18;
/// Entries of one fetch group whose latencies `charge_block` resolves
/// ahead of the scoreboard: a group is at most one I-cache line of
/// 4-byte instructions, 16 on the default 64-byte line. Longer lines
/// resolve in several batches of this size, which changes nothing, as
/// the cache never sees the scoreboard.
const GROUP_BATCH: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deps {
    /// Scalar source slots (`ZERO_SLOT` when absent).
    srcs: [u8; 3],
    /// Vector source slots (`ZERO_SLOT` when absent).
    qsrcs: [u8; 2],
    /// Scalar destination slot (`SCRATCH_SLOT` when absent).
    dst: u8,
    /// Base register written back by the addressing mode (ready fast);
    /// `SCRATCH_SLOT` when absent.
    wb_dst: u8,
    /// Vector destination slot (`SCRATCH_SLOT` when absent).
    qdst: u8,
    /// `FLAGS_SLOT` when the instruction reads the flags, else `ZERO_SLOT`.
    flags_src: u8,
    /// `FLAGS_SLOT` when the instruction writes the flags, else `SCRATCH_SLOT`.
    flags_dst: u8,
}

impl Default for Deps {
    fn default() -> Deps {
        Deps {
            srcs: [ZERO_SLOT; 3],
            qsrcs: [ZERO_SLOT; 2],
            dst: SCRATCH_SLOT,
            wb_dst: SCRATCH_SLOT,
            qdst: SCRATCH_SLOT,
            flags_src: ZERO_SLOT,
            flags_dst: SCRATCH_SLOT,
        }
    }
}

impl Deps {
    fn set_src(&mut self, i: usize, r: Reg) {
        self.srcs[i] = r.index();
    }

    fn set_qsrc(&mut self, i: usize, q: QReg) {
        self.qsrcs[i] = q.index();
    }

    fn set_dst(&mut self, r: Reg) {
        self.dst = r.index();
    }

    fn set_wb_dst(&mut self, r: Reg) {
        self.wb_dst = r.index();
    }

    fn set_qdst(&mut self, q: QReg) {
        self.qdst = q.index();
    }
}

pub(crate) fn deps(instr: &Instr) -> Deps {
    let mut d = Deps::default();
    match *instr {
        Instr::Nop | Instr::Halt => {}
        Instr::MovImm { rd, .. } => d.set_dst(rd),
        Instr::MovTop { rd, .. } => {
            d.set_src(0, rd);
            d.set_dst(rd);
        }
        Instr::Mov { rd, rm } => {
            d.set_src(0, rm);
            d.set_dst(rd);
        }
        Instr::Alu { rd, rn, src2, .. } => {
            d.set_src(0, rn);
            if let Operand::Reg(rm) = src2 {
                d.set_src(1, rm);
            }
            d.set_dst(rd);
        }
        Instr::Cmp { rn, src2 } => {
            d.set_src(0, rn);
            if let Operand::Reg(rm) = src2 {
                d.set_src(1, rm);
            }
            d.flags_dst = FLAGS_SLOT;
        }
        Instr::B { cond, .. } => {
            if cond != dsa_isa::Cond::Al {
                d.flags_src = FLAGS_SLOT;
            }
        }
        Instr::Bl { .. } => d.set_dst(Reg::LR),
        Instr::BxLr => d.set_src(0, Reg::LR),
        Instr::Ldr { rd, rn, mode, .. } => {
            d.set_src(0, rn);
            d.set_dst(rd);
            if mode.writeback() {
                d.set_wb_dst(rn);
            }
        }
        Instr::Str { rs, rn, mode, .. } => {
            d.set_src(0, rs);
            d.set_src(1, rn);
            if mode.writeback() {
                d.set_wb_dst(rn);
            }
        }
        Instr::LdrReg { rd, rn, rm, .. } => {
            d.set_src(0, rn);
            d.set_src(1, rm);
            d.set_dst(rd);
        }
        Instr::StrReg { rs, rn, rm, .. } => {
            d.set_src(0, rs);
            d.set_src(1, rn);
            d.set_src(2, rm);
        }
        Instr::Vld1 { qd, rn, writeback, .. } => {
            d.set_src(0, rn);
            d.set_qdst(qd);
            if writeback {
                d.set_wb_dst(rn);
            }
        }
        Instr::Vst1 { qs, rn, writeback, .. } => {
            d.set_src(0, rn);
            d.set_qsrc(0, qs);
            if writeback {
                d.set_wb_dst(rn);
            }
        }
        Instr::Vld1Lane { qd, rn, writeback, .. } => {
            d.set_src(0, rn);
            d.set_qsrc(0, qd); // merge
            d.set_qdst(qd);
            if writeback {
                d.set_wb_dst(rn);
            }
        }
        Instr::Vst1Lane { qs, rn, writeback, .. } => {
            d.set_src(0, rn);
            d.set_qsrc(0, qs);
            if writeback {
                d.set_wb_dst(rn);
            }
        }
        Instr::Vop { qd, qn, qm, .. } => {
            d.set_qsrc(0, qn);
            d.set_qsrc(1, qm);
            d.set_qdst(qd);
        }
        Instr::VshrImm { qd, qn, .. } => {
            d.set_qsrc(0, qn);
            d.set_qdst(qd);
        }
        Instr::Vdup { qd, rm, .. } => {
            d.set_src(0, rm);
            d.set_qdst(qd);
        }
        Instr::VdupImm { qd, .. } => d.set_qdst(qd),
        Instr::Vmov { qd, qm } => {
            d.set_qsrc(0, qm);
            d.set_qdst(qd);
        }
        Instr::Vaddv { rd, qn, .. } => {
            d.set_qsrc(0, qn);
            d.set_dst(rd);
        }
        Instr::VmovToScalar { rd, qn, .. } => {
            d.set_qsrc(0, qn);
            d.set_dst(rd);
        }
        Instr::VmovFromScalar { qd, rm, .. } => {
            d.set_src(0, rm);
            d.set_qsrc(0, qd); // merge
            d.set_qdst(qd);
        }
    }
    d
}

/// The dispatch-side state every charge reads and writes: frontend
/// readiness, the current issue cycle and its used width, and the ROB
/// ring's head. `charge_block` copies it into a local for the whole
/// block (writing it back only around a vector entry, which
/// [`TimingModel::charge_vector`] charges from the model), so that it
/// lives in registers across the replay instead of being loaded and
/// stored through the model on every instruction.
#[derive(Debug, Clone, Copy, Default)]
struct Issue {
    frontend_ready: u64,
    slot_cycle: u64,
    slot_used: u32,
    rob_head: usize,
}

impl Issue {
    /// Allocates an issue slot no earlier than `earliest`, respecting the
    /// issue `width`, and returns the issue cycle.
    #[inline(always)]
    fn allocate_slot(&mut self, earliest: u64, width: u32) -> u64 {
        let mut t = earliest.max(self.slot_cycle);
        // Width exhausted at the current cycle pushes to the next one.
        t += u64::from(t == self.slot_cycle && self.slot_used >= width);
        // `t >= slot_cycle` always holds here, so the original
        // "if t > slot_cycle { reset }" collapses to a conditional move
        // on the width counter and an unconditional cycle store.
        self.slot_used = if t > self.slot_cycle { 1 } else { self.slot_used + 1 };
        self.slot_cycle = t;
        t
    }

    /// Decode/dispatch slot of a fetched instruction that arrives
    /// `fetch_penalty` cycles late: limited by frontend width and
    /// redirects only; operand stalls delay execution, not younger
    /// dispatch (out-of-order issue within the reorder-buffer window).
    #[inline(always)]
    fn dispatch(&mut self, fetch_penalty: u64, width: u32) -> u64 {
        let slot = self.allocate_slot(self.frontend_ready + fetch_penalty, width);
        self.frontend_ready = slot; // slot >= earliest >= frontend_ready by construction
        slot
    }

    /// Reorder-buffer floor: the earliest cycle a new instruction may
    /// begin execution (the entry `rob_size` older must have completed).
    /// While the window is filling the oldest slot still holds its
    /// initial 0 — the same "no constraint" a partially-filled deque gave.
    #[inline(always)]
    fn rob_floor(&self, rob: &[u64]) -> u64 {
        rob[self.rob_head]
    }

    #[inline(always)]
    fn rob_push(&mut self, rob: &mut [u64], completion: u64) {
        rob[self.rob_head] = completion;
        self.rob_head += 1;
        if self.rob_head == rob.len() {
            self.rob_head = 0;
        }
    }
}

/// Earliest cycle the scalar sources (and flags, if read) are ready.
/// Absent operands hit the pinned-zero sentinel slot, so this is four
/// unconditional loads and three `max`es — no data-dependent branches
/// (the operand mix varies per instruction and mispredicts dearly).
#[inline(always)]
fn src_ready(reg: &[u64; REG_SLOTS], d: &Deps) -> u64 {
    reg[d.srcs[0] as usize]
        .max(reg[d.srcs[1] as usize])
        .max(reg[d.srcs[2] as usize])
        .max(reg[d.flags_src as usize])
}

/// The scalar charge itself, shared by the stepped path
/// ([`TimingModel::charge_step`]) and the block path
/// ([`TimingModel::charge_block`]) so that the two cannot drift apart.
/// `lat` was fully resolved up front by [`TimingModel::mem_charge`]:
/// cache latency for loads, 1 for stores and control flow, the
/// per-class table for the rest — no class dispatch here. Returns the
/// execution start (a mispredicted branch redirects the frontend from
/// it; see [`mispredicted`]) and the completion.
#[inline(always)]
fn scalar_core(
    is: &mut Issue,
    rob: &mut [u64],
    reg: &mut [u64; REG_SLOTS],
    d: &Deps,
    slot: u64,
    lat: u64,
) -> (u64, u64) {
    let start = slot.max(src_ready(reg, d)).max(is.rob_floor(rob));
    let done = start + lat;
    // Absent destinations land in the write-scratch slot; the flags
    // write targets the flags slot or scratch the same way (branchless).
    reg[d.dst as usize] = done;
    reg[d.wb_dst as usize] = start + 1;
    reg[d.flags_dst as usize] = start + 1;
    is.rob_push(rob, done);
    (start, done)
}

/// Whether a committed control-flow instruction mispredicted: only a
/// conditional branch (`class == Branch`, which only `B` maps to, with
/// the flags-read slot set) consults and trains the predictor. Counts
/// the mispredict; the caller redirects the frontend.
#[inline(always)]
fn mispredicted(
    predictor: &mut BranchPredictor,
    stats: &mut TimingStats,
    class: InstrClass,
    d: &Deps,
    pc: u32,
    taken: bool,
) -> bool {
    let miss =
        class == InstrClass::Branch && d.flags_src == FLAGS_SLOT && predictor.update(pc, taken);
    stats.mispredicts += u64::from(miss);
    miss
}

/// Cycle-approximate timing: dual dispatch with out-of-order execution
/// inside a reorder-buffer window (the gem5 O3CPU class of core),
/// cache-accurate memory latencies, a bimodal branch predictor, and a
/// queued single-issue NEON pipeline.
#[derive(Debug, Clone)]
pub struct TimingModel {
    config: CpuConfig,
    memsys: MemorySystem,
    predictor: BranchPredictor,
    /// Ready cycle per scoreboard slot (registers + sentinels + flags;
    /// see [`ZERO_SLOT`]). Slot `ZERO_SLOT` must stay 0 forever.
    reg_ready: [u64; REG_SLOTS],
    qreg_ready: [u64; QREG_SLOTS],
    /// Dispatch slots, frontend and ROB head; see [`Issue`].
    issue: Issue,
    /// Next free cycle of the NEON load/store pipeline.
    neon_ls_ready: u64,
    /// Next free cycle of the NEON arithmetic pipeline.
    neon_alu_ready: u64,
    /// NEON completion-time queue as a fixed ring of `queue_depth`
    /// slots; `neon_head` is the oldest entry, `neon_len` the live count.
    neon_inflight: Vec<u64>,
    neon_head: usize,
    neon_len: usize,
    /// Completion times of in-flight instructions (reorder-buffer model):
    /// a new instruction cannot begin execution before the instruction
    /// `rob_size` ahead of it has completed. Stored as a fixed ring of
    /// exactly `rob_size` entries with `issue.rob_head` pointing at the
    /// oldest; the zero initialization stands in for "window not yet
    /// full" (completions are always ≥ 1, so 0 is never a real entry).
    rob: Vec<u64>,
    /// Fixed execution latency per instruction class, indexed by
    /// [`class_index`] — the configured scalar/NEON latencies flattened
    /// into one table so the charge path never re-matches on the
    /// instruction. Branch classes hold 1 (a mispredict is a frontend
    /// redirect, not execution latency). Memory classes resolve their
    /// latency dynamically via [`TimingModel::mem_charge`]; their
    /// entries hold placeholders and are unused.
    lat_by_class: [u64; 16],
    last_completion: u64,
    stats: TimingStats,
}

impl TimingModel {
    /// Creates a cold timing model.
    pub fn new(config: CpuConfig) -> TimingModel {
        let mut lat_by_class = [config.int_alu_latency as u64; 16];
        // Control flow completes in one cycle (mispredict cost is a
        // frontend redirect, not an execution latency).
        lat_by_class[class_index(InstrClass::Branch)] = 1;
        lat_by_class[class_index(InstrClass::Call)] = 1;
        lat_by_class[class_index(InstrClass::Return)] = 1;
        lat_by_class[class_index(InstrClass::IntMul)] = config.int_mul_latency as u64;
        lat_by_class[class_index(InstrClass::FpAlu)] = config.fp_alu_latency as u64;
        lat_by_class[class_index(InstrClass::FpMul)] = config.fp_mul_latency as u64;
        lat_by_class[class_index(InstrClass::VecAlu)] = config.neon.alu_latency as u64;
        lat_by_class[class_index(InstrClass::VecMul)] = config.neon.mul_latency as u64;
        lat_by_class[class_index(InstrClass::VecMove)] = config.neon.move_latency as u64;
        TimingModel {
            config,
            memsys: MemorySystem::new(config.mem),
            predictor: BranchPredictor::new(),
            reg_ready: [0; REG_SLOTS],
            qreg_ready: [0; QREG_SLOTS],
            issue: Issue::default(),
            neon_ls_ready: 0,
            neon_alu_ready: 0,
            neon_inflight: vec![0; (config.neon.queue_depth as usize).max(1)],
            neon_head: 0,
            neon_len: 0,
            rob: vec![0; (config.rob_size as usize).max(1)],
            lat_by_class,
            last_completion: 0,
            stats: TimingStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Total cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.last_completion.max(self.issue.slot_cycle).max(self.issue.frontend_ready)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// Memory-hierarchy statistics.
    pub fn mem_stats(&self) -> MemoryStats {
        self.memsys.stats()
    }

    /// Earliest cycle the vector sources are ready (branchless, as
    /// [`src_ready`]).
    #[inline(always)]
    fn qsrc_ready(&self, d: &Deps) -> u64 {
        let q = &self.qreg_ready;
        q[d.qsrcs[0] as usize].max(q[d.qsrcs[1] as usize])
    }

    /// Folds one completion time into [`TimingModel::cycles`]'s running
    /// max. The per-event paths call this per charge; `charge_block`
    /// instead folds a whole block's completions in a register and
    /// stores once, keeping the field's load/store off the replay's
    /// per-instruction work.
    #[inline(always)]
    fn complete(&mut self, t: u64) {
        self.last_completion = self.last_completion.max(t);
    }

    /// Resolves the execution latency of an instruction of `class`,
    /// performing its data-side cache access at `addr` if it has one
    /// (loads observe the cache; stores and every non-memory class
    /// complete in fixed time from [`TimingModel::lat_by_class`]).
    /// Factored out of the charge bodies so the block path can run a
    /// whole fetch group's accesses ahead of the scoreboard math: cache
    /// state depends only on the access sequence, never on cycle
    /// arithmetic, so hoisting keeps results bit-identical while taking
    /// the cache walk off the scoreboard's serial dependency chain.
    #[inline(always)]
    fn mem_charge(&mut self, class: InstrClass, addr: Option<u32>) -> u64 {
        match class {
            InstrClass::Load => {
                let a = addr.expect("load carries an address"); // infallible: both paths attach the read address to Load
                self.memsys.access_data(a, false) as u64
            }
            InstrClass::Store => {
                if let Some(a) = addr {
                    self.memsys.access_data(a, true);
                }
                1
            }
            InstrClass::VecLoad => {
                let a = addr.expect("vector load needs an address"); // infallible: decode always attaches addr to VecLoad
                (self.memsys.access_data(a, false) + self.config.neon.load_extra) as u64
            }
            InstrClass::VecStore => {
                let a = addr.expect("vector store needs an address"); // infallible: decode always attaches addr to VecStore
                self.memsys.access_data(a, true);
                self.config.neon.store_latency as u64
            }
            _ => self.lat_by_class[class_index(class)],
        }
    }

    #[inline(always)]
    fn charge_vector(
        &mut self,
        class: InstrClass,
        d: &Deps,
        slot: u64,
        lat: u64,
        aligned: bool,
    ) -> u64 {
        let neon = self.config.neon;
        // The NEON engine has separate load/store and arithmetic
        // pipelines (as on the A8): an arithmetic op stalled on a missing
        // load does not block younger vector loads.
        let is_ls = matches!(class, InstrClass::VecLoad | InstrClass::VecStore);
        let pipe_ready = if is_ls { self.neon_ls_ready } else { self.neon_alu_ready };
        let mut start = slot
            .max(src_ready(&self.reg_ready, d))
            .max(self.qsrc_ready(d))
            .max(pipe_ready)
            .max(self.issue.rob_floor(&self.rob));
        // Drain finished ops; stall on a full queue. The queue is a fixed
        // ring of `queue_depth` slots (`neon_head`/`neon_len`): FIFO order
        // and stall decisions are exactly the deque's, without its
        // capacity bookkeeping on the replay's hottest vector path.
        let cap = self.neon_inflight.len();
        while self.neon_len > 0 && self.neon_inflight[self.neon_head] <= start {
            self.neon_head += 1;
            if self.neon_head == cap {
                self.neon_head = 0;
            }
            self.neon_len -= 1;
        }
        if self.neon_len >= neon.queue_depth as usize {
            // Infallible: len >= depth >= 1 was just checked.
            let front = self.neon_inflight[self.neon_head];
            self.neon_head += 1;
            if self.neon_head == cap {
                self.neon_head = 0;
            }
            self.neon_len -= 1;
            if front > start {
                self.stats.neon_queue_stalls += 1;
                start = front;
            }
        }
        if is_ls {
            let slots = if aligned { 1 } else { neon.unaligned_mem_slots as u64 };
            self.neon_ls_ready = start + slots;
        } else {
            self.neon_alu_ready = start + 1;
        }
        // `lat` was fully resolved up front by `mem_charge` (cache
        // latency for memory ops, per-class table otherwise).
        let done = start + lat;
        // Absent destinations land in the write-scratch slot (branchless).
        self.qreg_ready[d.qdst as usize] = done;
        self.reg_ready[d.dst as usize] = done;
        self.reg_ready[d.wb_dst as usize] = start + 1;
        let mut idx = self.neon_head + self.neon_len;
        if idx >= cap {
            idx -= cap;
        }
        self.neon_inflight[idx] = done;
        self.neon_len += 1;
        self.issue.rob_push(&mut self.rob, done);
        done
    }

    /// Charges one stepped commit of the predecoded entry `e` at `pc`
    /// from the fetch/decode path: `addr` is its data access, if it made
    /// one, and `taken` a conditional branch's outcome.
    pub(crate) fn charge_step(
        &mut self,
        e: &DecodedInstr,
        pc: u32,
        addr: Option<u32>,
        taken: Option<bool>,
    ) {
        let class = e.class();
        self.stats.committed += 1;
        self.stats.counts.bump(class);

        let fetch_latency = self.memsys.access_instr(pc.wrapping_mul(4));
        let fetch_penalty = fetch_latency.saturating_sub(self.config.mem.l1_latency) as u64;
        let slot = self.issue.dispatch(fetch_penalty, self.config.issue_width);
        let lat = self.mem_charge(class, addr);
        let done = if class.is_vector() {
            // Fetched (compiler-emitted) vector memory ops use the
            // unaligned-safe encoding.
            self.charge_vector(class, e.deps(), slot, lat, false)
        } else {
            let (is, rob, reg) = (&mut self.issue, &mut self.rob, &mut self.reg_ready);
            let (start, done) = scalar_core(is, rob, reg, e.deps(), slot, lat);
            if let Some(t) = taken {
                if mispredicted(&mut self.predictor, &mut self.stats, class, e.deps(), pc, t) {
                    self.issue.frontend_ready =
                        start + 1 + self.config.branch_mispredict_penalty as u64;
                }
            }
            done
        };
        self.complete(done);
    }

    /// Execution latency of a block entry of `class`, taking its data
    /// address from `mem_addrs[*next_addr]` when it is a memory op.
    #[inline(always)]
    fn entry_latency(
        &mut self,
        class: InstrClass,
        mem_addrs: &[u32],
        next_addr: &mut usize,
    ) -> u64 {
        match class {
            InstrClass::Load | InstrClass::Store | InstrClass::VecLoad | InstrClass::VecStore => {
                let a = mem_addrs.get(*next_addr).copied();
                *next_addr += 1;
                self.mem_charge(class, a)
            }
            _ => self.lat_by_class[class_index(class)],
        }
    }

    /// Charges one predecoded superblock starting at `base_pc` — the
    /// batched counterpart of calling [`TimingModel::charge_step`] once
    /// per entry, producing bit-identical cycles and statistics.
    /// `mem_addrs` holds the effective address of every memory access in
    /// program order and `taken` the terminal conditional branch's
    /// outcome, both recorded by `DecodedProgram::exec_run`.
    ///
    /// Two things are batched; everything else (slot allocation, operand
    /// scoreboard, ROB floor, branch predictor, NEON queue, data-cache
    /// charges) replays the per-event math exactly, because it is
    /// genuinely stateful across instructions:
    ///
    /// * per-class commit counters come in as one precomputed
    ///   `counts` delta ([`crate::DecodedProgram`]'s prefix sums);
    /// * instruction fetches are grouped by I-cache line — one real
    ///   [`MemorySystem::access_instr`] per line, with the rest of the
    ///   group recorded via [`MemorySystem::count_instr_repeats`]. The
    ///   followers are guaranteed L1I hits: the group-leading fetch
    ///   brings the line in, and interleaved data traffic cannot evict
    ///   it (data accesses never touch the L1I, and the followers, being
    ///   hits, never reach the shared L2 — so the L2 access order is
    ///   also exactly the stepped one). Only the group-leading fetch can
    ///   carry a miss penalty, exactly as in the stepped path where
    ///   followers hit at `l1_latency` and
    ///   `latency.saturating_sub(l1_latency)` is zero.
    ///
    /// The dispatch state ([`Issue`]) stays in a local for the whole
    /// block and the ROB is borrowed as a slice per batch, so the
    /// per-instruction scoreboard work touches memory only for the
    /// register board and the ROB ring itself.
    ///
    /// Eligibility (no `halt`, no fallible vector shapes, control flow
    /// only as the final entry) is the caller's contract, established at
    /// predecode time.
    pub(crate) fn charge_block(
        &mut self,
        entries: &[DecodedInstr],
        base_pc: u32,
        counts: &ClassCounts,
        mem_addrs: &[u32],
        taken: Option<bool>,
    ) {
        self.stats.committed += entries.len() as u64;
        self.stats.counts.merge(counts);
        // Line size is a power of two (checked by `CacheConfig::new`) and
        // instructions are 4 bytes, so each group's extent is arithmetic:
        // the run from `addr` to its line boundary, divisions avoided.
        let line_bytes = self.config.mem.l1i.line_bytes;
        let l1_latency = self.config.mem.l1_latency;
        let width = self.config.issue_width;
        // A conditional terminal (`taken` set; always the block's last
        // entry, hence the last entry of the last group) is charged
        // after the groups, so the straight-line body never consults
        // the predictor.
        let body_len = entries.len() - usize::from(taken.is_some() && !entries.is_empty());
        let mut is = self.issue;
        let mut next_addr = 0usize;
        let mut i = 0usize;
        // Completion times fold into a register here and reach
        // `last_completion` in one store after the loop (the per-event
        // paths call `complete` per charge instead).
        let mut blk_max = 0u64;
        let mut fetch_penalty = 0u64;
        while i < entries.len() {
            let addr = base_pc.wrapping_add(i as u32).wrapping_mul(4);
            let to_line_end = ((line_bytes - (addr & (line_bytes - 1))) / 4) as usize;
            let j = (i + to_line_end.max(1)).min(entries.len());
            let fetch_latency = self.memsys.access_instr(addr);
            fetch_penalty = fetch_latency.saturating_sub(l1_latency) as u64;
            if j - i > 1 {
                self.memsys.count_instr_repeats(addr, (j - i - 1) as u64);
            }
            let mut k = i;
            let group_end = j.min(body_len);
            while k < group_end {
                let batch = &entries[k..group_end.min(k + GROUP_BATCH)];
                // Pass 1 — resolve every entry's execution latency up
                // front, replaying the batch's data-side cache traffic
                // in program order ahead of any scoreboard math. The
                // memory system sees exactly the stepped sequence
                // (group-leading fetch above, then each data access in
                // order; follower fetches are stats-only), and
                // scoreboard state never feeds back into the cache, so
                // recording the latencies is bit-identical — while
                // taking both the cache walk and the per-class latency
                // dispatch off the scoreboard's serial dependency chain.
                let mut lats = [0u64; GROUP_BATCH];
                for (lat, e) in lats.iter_mut().zip(batch) {
                    *lat = self.entry_latency(e.class(), mem_addrs, &mut next_addr);
                }
                // Pass 2 — scoreboard math, consuming the latencies.
                let mut rob = &mut self.rob[..];
                for (e, &lat) in batch.iter().zip(&lats) {
                    let slot = is.dispatch(fetch_penalty, width);
                    fetch_penalty = 0; // followers on the line hit at l1_latency
                    let class = e.class();
                    let done = if class.is_vector() {
                        // Fetched (compiler-emitted) vector memory ops
                        // use the unaligned-safe encoding, as in
                        // charge_step. The NEON path is charged from
                        // the model, so the local state goes back first.
                        self.issue = is;
                        let done = self.charge_vector(class, e.deps(), slot, lat, false);
                        is = self.issue;
                        rob = &mut self.rob[..];
                        done
                    } else {
                        scalar_core(&mut is, rob, &mut self.reg_ready, e.deps(), slot, lat).1
                    };
                    blk_max = blk_max.max(done);
                }
                k += batch.len();
            }
            i = j;
        }
        if let (Some(t), Some(e)) = (taken, entries.last()) {
            // The last group's fetch penalty survives only when the
            // terminal is also its leader (empty body loop).
            let slot = is.dispatch(fetch_penalty, width);
            let class = e.class();
            let lat = self.entry_latency(class, mem_addrs, &mut next_addr);
            let (start, done) =
                scalar_core(&mut is, &mut self.rob, &mut self.reg_ready, e.deps(), slot, lat);
            let pc = base_pc.wrapping_add((entries.len() - 1) as u32);
            if mispredicted(&mut self.predictor, &mut self.stats, class, e.deps(), pc, t) {
                is.frontend_ready = start + 1 + self.config.branch_mispredict_penalty as u64;
            }
            blk_max = blk_max.max(done);
        }
        self.issue = is;
        self.complete(blk_max);
        debug_assert_eq!(next_addr, mem_addrs.len(), "address stream fully consumed");
    }

    /// Records that `n` committed instructions were covered by DSA
    /// vector execution and therefore not charged on the scalar pipeline.
    pub fn note_covered(&mut self, n: u64) {
        self.stats.covered += n;
    }

    /// Charges vector operations injected by the DSA directly into the
    /// Issue stage (no fetch/decode cost).
    pub fn charge_injected(&mut self, ops: &[InjectedOp]) {
        for op in ops {
            self.stats.injected += 1;
            self.stats.injected_counts.bump(op.class);
            let slot = self.issue.allocate_slot(self.issue.frontend_ready, self.config.issue_width);
            // The DSA observes real addresses: it uses the aligned
            // form exactly when the access is 16-byte aligned (the
            // non-memory shapes carry address 0 and use no LS slot).
            let aligned = op.addr.is_multiple_of(16);
            let mem_lat = self.mem_charge(op.class, op.addr());
            let done = self.charge_vector(op.class, &op.deps, slot, mem_lat, aligned);
            self.complete(done);
        }
    }

    /// Pre-loads a data region into the L2 (see
    /// [`MemorySystem::warm_region`]).
    pub fn warm_region(&mut self, base: u32, len: u32) {
        self.memsys.warm_region(base, len);
    }

    /// Advances the frontend by `cycles` (pipeline flush / drain).
    pub fn charge_stall(&mut self, cycles: u64) {
        let now = self.cycles();
        self.issue.frontend_ready = self.issue.frontend_ready.max(now) + cycles;
        self.stats.stall_cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodedProgram;
    use dsa_isa::{AddrMode, AluOp, Cond, Program};

    /// The predecoded entry of `instr`.
    fn entry(instr: Instr) -> DecodedInstr {
        *DecodedProgram::decode(&Program::new(vec![instr])).entry(0)
    }

    fn alu(rd: Reg, rn: Reg) -> DecodedInstr {
        entry(Instr::Alu { op: AluOp::Add, rd, rn, src2: Operand::Reg(rn) })
    }

    #[test]
    fn dual_issue_packs_independent_ops() {
        let mut t = TimingModel::new(CpuConfig::default());
        // Two independent adds should co-issue; four take two cycles.
        for i in 0..4 {
            t.charge_step(&alu(Reg::new(i as u8), Reg::new((i + 8) as u8)), i, None, None);
        }
        // Cold I-cache miss dominates the start; measure relative growth.
        let base = t.cycles();
        for i in 0..4 {
            t.charge_step(&alu(Reg::new(i as u8), Reg::new((i + 8) as u8)), i, None, None);
        }
        assert!(t.cycles() - base <= 3, "4 independent ops at width 2: {}", t.cycles() - base);
    }

    #[test]
    fn dependent_chain_serialises() {
        let mut t = TimingModel::new(CpuConfig::default());
        // r1 = r0+r0; r2 = r1+r1; ... strict chain.
        let mut prev = Reg::R0;
        let start = {
            // Warm the I-cache line first.
            t.charge_step(&alu(Reg::R9, Reg::R10), 0, None, None);
            t.cycles()
        };
        for i in 1..9 {
            let rd = Reg::new(i);
            t.charge_step(&alu(rd, prev), 0, None, None);
            prev = rd;
        }
        assert!(t.cycles() - start >= 7, "chain of 8 serialises: {}", t.cycles() - start);
    }

    #[test]
    fn load_latency_depends_on_cache() {
        let mut t = TimingModel::new(CpuConfig::default());
        let ld = entry(Instr::Ldr {
            rd: Reg::R1,
            rn: Reg::R0,
            mode: AddrMode::Offset(0),
            size: dsa_isa::MemSize::W,
        });
        t.charge_step(&ld, 0, Some(0x1000), None);
        let cold = t.cycles();
        // use r1 to measure readiness
        t.charge_step(&alu(Reg::R2, Reg::R1), 0, None, None);
        assert!(t.cycles() >= cold);
        assert_eq!(t.mem_stats().l1d.misses, 1);
        // Warm access hits L1.
        t.charge_step(&ld, 0, Some(0x1000), None);
        assert_eq!(t.mem_stats().l1d.hits, 1);
    }

    #[test]
    fn mispredicted_branch_costs_penalty() {
        let cfg = CpuConfig::default();
        let mut t = TimingModel::new(cfg);
        let b = entry(Instr::B { cond: Cond::Eq, offset: -2 });
        // Predictor initialised weakly-taken: a not-taken outcome is a miss.
        let before = t.cycles();
        t.charge_step(&b, 100, None, Some(false));
        assert_eq!(t.stats().mispredicts, 1);
        assert!(t.cycles() >= before + cfg.branch_mispredict_penalty as u64);
    }

    #[test]
    fn injected_vector_ops_use_neon_queue() {
        let mut t = TimingModel::new(CpuConfig::default());
        let ops: Vec<InjectedOp> = (0..32)
            .map(|i| {
                InjectedOp::vld1(QReg::Q0, Reg::R0, ElemType::I32, 0x2000 + 64 * i)
            })
            .collect();
        t.charge_injected(&ops);
        assert_eq!(t.stats().injected, 32);
        assert!(t.stats().injected_counts.count(InstrClass::VecLoad) == 32);
        assert!(t.cycles() > 32, "queued pipeline serialises");
    }

    #[test]
    fn covered_events_cost_nothing() {
        let mut t = TimingModel::new(CpuConfig::default());
        let before = t.cycles();
        for _ in 0..100 {
            t.note_covered(1);
        }
        assert_eq!(t.cycles(), before);
        assert_eq!(t.stats().covered, 100);
    }

    #[test]
    fn stall_advances_frontend() {
        let mut t = TimingModel::new(CpuConfig::default());
        t.charge_stall(50);
        assert!(t.cycles() >= 50);
        assert_eq!(t.stats().stall_cycles, 50);
    }

    #[test]
    fn vector_dependencies_serialise_on_neon() {
        let mut t = TimingModel::new(CpuConfig::default());
        // q1 = q0 op q0 ; q2 = q1 op q1 ; chain of vector ALU ops.
        let mut prev = QReg::Q0;
        for i in 1..6 {
            let qd = QReg::new(i);
            t.charge_injected(&[InjectedOp::vop(VecOp::Add, ElemType::I32, qd, prev, prev)]);
            prev = qd;
        }
        let alu_lat = t.config().neon.alu_latency as u64;
        assert!(t.cycles() >= 5 * alu_lat, "{} < {}", t.cycles(), 5 * alu_lat);
    }
}
