//! Committed-instruction trace events.

use dsa_isa::Instr;

/// One memory access performed by a committed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: u32,
    /// Width in bytes (1, 2, 4 or 16).
    pub bytes: u8,
}

/// Outcome of a control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Where control went if taken (instruction units).
    pub target: u32,
    /// Whether the branch was taken.
    pub taken: bool,
}

/// One committed instruction, as observed by the timing model and by the
/// DSA hook. This is the "incoming instruction" stream of the paper's
/// trace-level methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Address of the instruction, in instruction units.
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Data-memory read performed, if any.
    pub read: Option<MemAccess>,
    /// Data-memory write performed, if any.
    pub write: Option<MemAccess>,
    /// Branch outcome for control-flow instructions.
    pub branch: Option<BranchOutcome>,
}

impl TraceEvent {
    /// Creates a plain (non-memory, non-branch) event.
    pub fn simple(pc: u32, instr: Instr) -> TraceEvent {
        TraceEvent { pc, instr, read: None, write: None, branch: None }
    }

    /// Records the data-memory access the instruction made at `addr`:
    /// a read or a write of the width [`Instr::mem_shape`] gives (a
    /// no-op for an instruction that does not touch memory). The
    /// stepped executor and the retired-commit view of a superblock
    /// both build their accesses here.
    #[inline(always)]
    pub(crate) fn record_access(&mut self, addr: u32) {
        if let Some((writes, bytes)) = self.instr.mem_shape() {
            let access = Some(MemAccess { addr, bytes });
            if writes {
                self.write = access;
            } else {
                self.read = access;
            }
        }
    }

    /// Whether this event is a taken backward branch — the loop-closing
    /// signature the DSA's Loop Detection stage keys on.
    pub fn is_backward_taken_branch(&self) -> bool {
        matches!(self.branch, Some(b) if b.taken && b.target <= self.pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_isa::{Cond, Instr};

    #[test]
    fn backward_branch_detection() {
        let mut ev = TraceEvent::simple(10, Instr::B { cond: Cond::Ne, offset: -5 });
        ev.branch = Some(BranchOutcome { target: 5, taken: true });
        assert!(ev.is_backward_taken_branch());
        ev.branch = Some(BranchOutcome { target: 5, taken: false });
        assert!(!ev.is_backward_taken_branch());
        ev.branch = Some(BranchOutcome { target: 15, taken: true });
        assert!(!ev.is_backward_taken_branch());
        assert!(!TraceEvent::simple(0, Instr::Nop).is_backward_taken_branch());
    }
}
