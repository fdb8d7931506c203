//! The in-order-issue superscalar timing model with NEON coprocessor.


use dsa_isa::{Instr, InstrClass, Operand, QReg, Reg};
use dsa_mem::{MemoryStats, MemorySystem};

use crate::config::CpuConfig;
use crate::predictor::BranchPredictor;
use crate::trace::TraceEvent;

/// A vector (or scalar leftover) operation injected by the DSA directly
/// into the Issue stage — it never passes through fetch/decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedOp {
    /// The operation to charge.
    pub instr: Instr,
    /// Effective address for memory operations.
    pub addr: Option<u32>,
}

impl InjectedOp {
    /// An injected op without a memory access.
    pub fn plain(instr: Instr) -> InjectedOp {
        InjectedOp { instr, addr: None }
    }

    /// An injected memory op at `addr`.
    pub fn at(instr: Instr, addr: u32) -> InjectedOp {
        InjectedOp { instr, addr: Some(addr) }
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

    /// `self - earlier`, element-wise. Used on prefix sums, where
    /// `earlier` is always a prefix of `self` so no counter underflows.
    pub fn diff(&self, earlier: &ClassCounts) -> ClassCounts {
        let mut out = [0u64; 16];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(earlier.0)) {
            *o = a - b;
        }
        ClassCounts(out)
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

#[derive(Debug, Clone, Copy)]
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
    frontend_ready: u64,
    slot_cycle: u64,
    slot_used: u32,
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
    /// exactly `rob_size` entries with `rob_head` pointing at the oldest;
    /// the zero initialization stands in for "window not yet full"
    /// (completions are always ≥ 1, so 0 is never a real entry).
    rob: Vec<u64>,
    rob_head: usize,
    /// Fixed execution latency per instruction class, indexed by
    /// [`class_index`] — the configured scalar/NEON latencies flattened
    /// into one table so the charge path never re-matches on the
    /// instruction. Branch classes hold 1 (a mispredict is a frontend
    /// redirect, not execution latency). Memory classes resolve their
    /// latency dynamically via [`TimingModel::mem_charge`]; their
    /// entries hold placeholders and are unused.
    lat_by_class: [u64; 16],
    /// Reusable per-fetch-group buffer of prefetched memory-op latencies
    /// (see [`TimingModel::charge_block`]'s two-pass group loop); held on
    /// the model to avoid a heap allocation per group.
    mem_lat_scratch: Vec<u64>,
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
            frontend_ready: 0,
            slot_cycle: 0,
            slot_used: 0,
            neon_ls_ready: 0,
            neon_alu_ready: 0,
            neon_inflight: vec![0; (config.neon.queue_depth as usize).max(1)],
            neon_head: 0,
            neon_len: 0,
            rob: vec![0; (config.rob_size as usize).max(1)],
            rob_head: 0,
            lat_by_class,
            mem_lat_scratch: Vec::with_capacity(16),
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
        self.last_completion.max(self.slot_cycle).max(self.frontend_ready)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// Memory-hierarchy statistics.
    pub fn mem_stats(&self) -> MemoryStats {
        self.memsys.stats()
    }

    /// Branch-predictor statistics `(predictions, mispredictions)`.
    pub fn predictor_stats(&self) -> (u64, u64) {
        (self.predictor.predictions(), self.predictor.mispredictions())
    }

    /// Earliest cycle the scalar sources (and flags, if read) are ready.
    /// Absent operands hit the pinned-zero sentinel slot, so this is four
    /// unconditional loads and three `max`es — no data-dependent branches
    /// (the operand mix varies per instruction and mispredicts dearly).
    #[inline(always)]
    fn src_ready(&self, d: &Deps) -> u64 {
        let r = &self.reg_ready;
        r[d.srcs[0] as usize]
            .max(r[d.srcs[1] as usize])
            .max(r[d.srcs[2] as usize])
            .max(r[d.flags_src as usize])
    }

    /// Earliest cycle the vector sources are ready (branchless, as
    /// [`TimingModel::src_ready`]).
    #[inline(always)]
    fn qsrc_ready(&self, d: &Deps) -> u64 {
        let q = &self.qreg_ready;
        q[d.qsrcs[0] as usize].max(q[d.qsrcs[1] as usize])
    }

    /// Allocates an issue slot no earlier than `earliest`, respecting the
    /// issue width, and returns the issue cycle.
    #[inline(always)]
    fn allocate_slot(&mut self, earliest: u64) -> u64 {
        let mut t = earliest.max(self.slot_cycle);
        // Width exhausted at the current cycle pushes to the next one.
        t += u64::from(t == self.slot_cycle && self.slot_used >= self.config.issue_width);
        // `t >= slot_cycle` always holds here, so the original
        // "if t > slot_cycle { reset }" collapses to a conditional move
        // on the width counter and an unconditional cycle store.
        self.slot_used = if t > self.slot_cycle { 1 } else { self.slot_used + 1 };
        self.slot_cycle = t;
        t
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

    /// Reorder-buffer floor: the earliest cycle a new instruction may
    /// begin execution (the entry `rob_size` older must have completed).
    /// While the window is filling the oldest slot still holds its
    /// initial 0 — the same "no constraint" a partially-filled deque gave.
    #[inline(always)]
    fn rob_floor(&self) -> u64 {
        self.rob[self.rob_head]
    }

    #[inline(always)]
    fn rob_push(&mut self, completion: u64) {
        self.rob[self.rob_head] = completion;
        self.rob_head += 1;
        if self.rob_head == self.rob.len() {
            self.rob_head = 0;
        }
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
            .max(self.src_ready(d))
            .max(self.qsrc_ready(d))
            .max(pipe_ready)
            .max(self.rob_floor());
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
        self.rob_push(done);
        done
    }

    /// Event-path scalar charge: unpacks the trace event's memory and
    /// branch facts and defers to [`TimingModel::charge_scalar_core`].
    fn charge_scalar(&mut self, instr: &Instr, ev: Option<&TraceEvent>, d: &Deps, slot: u64) -> u64 {
        let class = instr.class();
        let addr = match class {
            InstrClass::Load => ev.and_then(|e| e.read).map(|a| a.addr),
            InstrClass::Store => ev.and_then(|e| e.write).map(|a| a.addr),
            _ => None,
        };
        let lat = self.mem_charge(class, addr);
        let branch = ev.and_then(|e| e.branch.map(|b| (e.pc, b.taken)));
        self.charge_scalar_core(class, d, slot, lat, branch)
    }

    /// The scalar charge itself, fed by either a [`TraceEvent`] (stepped
    /// path) or predecoded facts (block path) — one body, so the two
    /// interpreter shapes cannot drift apart. `class` is passed in
    /// because both callers already have it (the block path precomputed,
    /// the event path freshly derived). The instruction itself is not
    /// needed: fixed latencies come from the per-class table, and "is a
    /// conditional branch" is exactly `class == Branch` (only `B` maps
    /// there) with the flags-read slot set in `d`.
    #[inline(always)]
    fn charge_scalar_core(
        &mut self,
        class: InstrClass,
        d: &Deps,
        slot: u64,
        lat: u64,
        branch: Option<(u32, bool)>,
    ) -> u64 {
        let start = slot.max(self.src_ready(d)).max(self.rob_floor());
        // `lat` was fully resolved up front by `mem_charge`: cache
        // latency for loads, 1 for stores and control flow, per-class
        // table for the rest — no class dispatch on this hot path.
        let done = start + lat;
        // Conditional branches consult the predictor. `branch` is `Some`
        // only for a terminal/committed branch outcome, so this test is
        // nearly always false and well predicted.
        if let Some((pc, taken)) = branch {
            if class == InstrClass::Branch
                && d.flags_src == FLAGS_SLOT
                && self.predictor.update(pc, taken)
            {
                self.stats.mispredicts += 1;
                self.frontend_ready = start + 1 + self.config.branch_mispredict_penalty as u64;
            }
        }
        // Absent destinations land in the write-scratch slot; the flags
        // write targets the flags slot or scratch the same way (branchless).
        self.reg_ready[d.dst as usize] = done;
        self.reg_ready[d.wb_dst as usize] = start + 1;
        self.reg_ready[d.flags_dst as usize] = start + 1;
        self.rob_push(done);
        done
    }

    /// Charges one committed instruction from the fetch/decode path.
    pub fn charge_event(&mut self, ev: &TraceEvent) {
        let class = ev.instr.class();
        self.stats.committed += 1;
        self.stats.counts.bump(class);

        let fetch_latency = self.memsys.access_instr(ev.pc.wrapping_mul(4));
        let fetch_penalty = fetch_latency.saturating_sub(self.config.mem.l1_latency) as u64;

        let d = deps(&ev.instr);
        // Decode/dispatch slot: limited by frontend width and redirects
        // only; operand stalls delay execution, not younger dispatch
        // (out-of-order issue within the reorder-buffer window).
        let slot = self.allocate_slot(self.frontend_ready + fetch_penalty);
        self.frontend_ready = slot; // slot >= earliest >= frontend_ready by construction

        if class.is_vector() {
            let addr = ev.read.or(ev.write).map(|a| a.addr);
            let mem_lat = self.mem_charge(class, addr);
            // Fetched (compiler-emitted) vector memory ops use the
            // unaligned-safe encoding.
            let done = self.charge_vector(class, &d, slot, mem_lat, false);
            self.complete(done);
        } else {
            let done = self.charge_scalar(&ev.instr, Some(ev), &d, slot);
            self.complete(done);
        }
    }

    /// Charges one predecoded superblock starting at `base_pc` — the
    /// batched counterpart of calling [`TimingModel::charge_event`] once
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
    /// Eligibility (no `halt`, no fallible vector shapes, control flow
    /// only as the final entry) is the caller's contract, established at
    /// predecode time.
    pub(crate) fn charge_block(
        &mut self,
        entries: &[crate::decoded::DecodedInstr],
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
        let mut next_addr = 0usize;
        let mut i = 0usize;
        // Completion times fold into a register here and reach
        // `last_completion` in one store after the loop (the per-event
        // paths call `complete` per charge instead).
        let mut blk_max = 0u64;
        while i < entries.len() {
            let addr = base_pc.wrapping_add(i as u32).wrapping_mul(4);
            let to_line_end = ((line_bytes - (addr & (line_bytes - 1))) / 4) as usize;
            let j = (i + to_line_end.max(1)).min(entries.len());
            let fetch_latency = self.memsys.access_instr(addr);
            let mut fetch_penalty =
                fetch_latency.saturating_sub(self.config.mem.l1_latency) as u64;
            if j - i > 1 {
                self.memsys.count_instr_repeats(addr, (j - i - 1) as u64);
            }
            // Pass 1 — resolve every entry's execution latency up front,
            // replaying the group's data-side cache traffic in program
            // order ahead of any scoreboard math. The memory system sees
            // exactly the stepped sequence (group-leading fetch above,
            // then each data access in order; follower fetches are
            // stats-only), and scoreboard state never feeds back into
            // the cache, so recording the latencies is bit-identical —
            // while taking both the cache walk and the per-class latency
            // dispatch off the scoreboard's serial dependency chain.
            self.mem_lat_scratch.clear();
            for e in entries[i..j].iter() {
                let class = e.class();
                let lat = match class {
                    InstrClass::Load
                    | InstrClass::Store
                    | InstrClass::VecLoad
                    | InstrClass::VecStore => {
                        let a = mem_addrs.get(next_addr).copied();
                        next_addr += 1;
                        self.mem_charge(class, a)
                    }
                    _ => self.lat_by_class[class_index(class)],
                };
                self.mem_lat_scratch.push(lat);
            }
            // Pass 2 — scoreboard math, consuming the recorded latencies.
            // A conditional terminal (`taken` set; always the block's
            // last entry, hence the last entry of the last group) is
            // charged after the loop, so the straight-line body passes a
            // constant `branch = None` and the inlined core drops the
            // predictor path entirely.
            let term = if j == entries.len() { taken } else { None };
            let body_end = if term.is_some() { j - 1 } else { j };
            let mut k = 0;
            for e in entries[i..body_end].iter() {
                let slot = self.allocate_slot(self.frontend_ready + fetch_penalty);
                self.frontend_ready = slot; // slot >= earliest >= frontend_ready by construction
                fetch_penalty = 0; // followers on the line hit at l1_latency
                let class = e.class();
                let lat = self.mem_lat_scratch[k];
                k += 1;
                let done = if class.is_vector() {
                    // Fetched (compiler-emitted) vector memory ops use
                    // the unaligned-safe encoding, as in charge_event.
                    self.charge_vector(class, e.deps(), slot, lat, false)
                } else {
                    self.charge_scalar_core(class, e.deps(), slot, lat, None)
                };
                blk_max = blk_max.max(done);
            }
            if let Some(t) = term {
                let e = &entries[j - 1];
                // The leader's fetch penalty survives only when the
                // terminal is also the group leader (empty body loop).
                let slot = self.allocate_slot(self.frontend_ready + fetch_penalty);
                self.frontend_ready = slot;
                let pc = base_pc.wrapping_add((j - 1) as u32);
                let done = self.charge_scalar_core(
                    e.class(),
                    e.deps(),
                    slot,
                    self.mem_lat_scratch[k],
                    Some((pc, t)),
                );
                blk_max = blk_max.max(done);
            }
            i = j;
        }
        self.complete(blk_max);
        debug_assert_eq!(next_addr, mem_addrs.len(), "address stream fully consumed");
    }

    /// Records that `n` committed instructions were covered by DSA
    /// vector execution and therefore not charged on the scalar pipeline.
    pub fn note_covered(&mut self, n: u64) {
        self.stats.covered += n;
    }

    /// Charges operations injected by the DSA directly into the Issue
    /// stage (no fetch/decode cost).
    pub fn charge_injected(&mut self, ops: &[InjectedOp]) {
        for op in ops {
            self.stats.injected += 1;
            self.stats.injected_counts.bump(op.instr.class());
            let d = deps(&op.instr);
            let slot = self.allocate_slot(self.frontend_ready);
            if op.instr.class().is_vector() {
                // The DSA observes real addresses: it uses the aligned
                // form exactly when the access is 16-byte aligned.
                let aligned = op.addr.is_none_or(|a| a.is_multiple_of(16));
                let mem_lat = self.mem_charge(op.instr.class(), op.addr);
                let done = self.charge_vector(op.instr.class(), &d, slot, mem_lat, aligned);
                self.complete(done);
            } else {
                // Scalar leftover work injected by the DSA: synthesise the
                // memory access from the provided address.
                let ev = op.addr.map(|addr| {
                    let mut e = TraceEvent::simple(0, op.instr);
                    let acc = crate::trace::MemAccess { addr, bytes: 4 };
                    match op.instr.class() {
                        InstrClass::Store => e.write = Some(acc),
                        _ => e.read = Some(acc),
                    }
                    e
                });
                let done = self.charge_scalar(&op.instr, ev.as_ref(), &d, slot);
                self.complete(done);
            }
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
        self.frontend_ready = self.frontend_ready.max(now) + cycles;
        self.stats.stall_cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_isa::{AddrMode, AluOp, Cond, ElemType, VecOp};
    use crate::trace::{BranchOutcome, MemAccess};

    fn alu_ev(pc: u32, rd: Reg, rn: Reg) -> TraceEvent {
        TraceEvent::simple(
            pc,
            Instr::Alu { op: AluOp::Add, rd, rn, src2: Operand::Reg(rn) },
        )
    }

    #[test]
    fn dual_issue_packs_independent_ops() {
        let mut t = TimingModel::new(CpuConfig::default());
        // Two independent adds should co-issue; four take two cycles.
        for i in 0..4 {
            t.charge_event(&alu_ev(i, Reg::new(i as u8), Reg::new((i + 8) as u8)));
        }
        // Cold I-cache miss dominates the start; measure relative growth.
        let base = t.cycles();
        for i in 0..4 {
            t.charge_event(&alu_ev(i, Reg::new(i as u8), Reg::new((i + 8) as u8)));
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
            t.charge_event(&alu_ev(0, Reg::R9, Reg::R10));
            t.cycles()
        };
        for i in 1..9 {
            let rd = Reg::new(i);
            t.charge_event(&TraceEvent::simple(
                0,
                Instr::Alu { op: AluOp::Add, rd, rn: prev, src2: Operand::Reg(prev) },
            ));
            prev = rd;
        }
        assert!(t.cycles() - start >= 7, "chain of 8 serialises: {}", t.cycles() - start);
    }

    #[test]
    fn load_latency_depends_on_cache() {
        let mut t = TimingModel::new(CpuConfig::default());
        let ld = Instr::Ldr {
            rd: Reg::R1,
            rn: Reg::R0,
            mode: AddrMode::Offset(0),
            size: dsa_isa::MemSize::W,
        };
        let mut ev = TraceEvent::simple(0, ld);
        ev.read = Some(MemAccess { addr: 0x1000, bytes: 4 });
        t.charge_event(&ev);
        let cold = t.cycles();
        // use r1 to measure readiness
        t.charge_event(&TraceEvent::simple(
            0,
            Instr::Alu { op: AluOp::Add, rd: Reg::R2, rn: Reg::R1, src2: Operand::Reg(Reg::R1) },
        ));
        assert!(t.cycles() >= cold);
        assert_eq!(t.mem_stats().l1d.misses, 1);
        // Warm access hits L1.
        t.charge_event(&ev);
        assert_eq!(t.mem_stats().l1d.hits, 1);
    }

    #[test]
    fn mispredicted_branch_costs_penalty() {
        let cfg = CpuConfig::default();
        let mut t = TimingModel::new(cfg);
        let b = Instr::B { cond: Cond::Eq, offset: -2 };
        // Predictor initialised weakly-taken: a not-taken outcome is a miss.
        let mut ev = TraceEvent::simple(100, b);
        ev.branch = Some(BranchOutcome { target: 98, taken: false });
        let before = t.cycles();
        t.charge_event(&ev);
        assert_eq!(t.stats().mispredicts, 1);
        assert!(t.cycles() >= before + cfg.branch_mispredict_penalty as u64);
    }

    #[test]
    fn injected_vector_ops_use_neon_queue() {
        let mut t = TimingModel::new(CpuConfig::default());
        let ops: Vec<InjectedOp> = (0..32)
            .map(|i| {
                InjectedOp::at(
                    Instr::Vld1 { qd: QReg::Q0, rn: Reg::R0, writeback: true, et: ElemType::I32 },
                    0x2000 + 64 * i,
                )
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
            t.charge_injected(&[InjectedOp::plain(Instr::Vop {
                op: VecOp::Add,
                et: ElemType::I32,
                qd,
                qn: prev,
                qm: prev,
            })]);
            prev = qd;
        }
        let alu_lat = t.config().neon.alu_latency as u64;
        assert!(t.cycles() >= 5 * alu_lat, "{} < {}", t.cycles(), 5 * alu_lat);
    }
}
