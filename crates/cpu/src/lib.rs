//! Cycle-approximate CPU model: functional executor plus a 2-wide
//! superscalar timing model with a NEON-style vector coprocessor.
//!
//! The model follows the paper's methodology (§5 of the dissertation):
//! a *trace-level* simulation in which the functional executor produces
//! the committed instruction stream, a timing model charges each committed
//! instruction, and an attached hook (the Dynamic SIMD Assembler in
//! `dsa-core`) can observe every commit, suppress the scalar charging of
//! covered loop iterations and inject the equivalent vector work instead —
//! exactly how the authors "adjust the timing model replacing the scalar
//! vectorizable instructions by vector instructions".
//!
//! * [`Machine`] — architectural state (r0–r15, NZCV, q0–q15, memory) and
//!   the functional step.
//! * [`TraceEvent`] — one committed instruction with its memory accesses
//!   and branch outcome.
//! * [`TimingModel`] — in-order-issue 2-wide superscalar with register
//!   scoreboard, branch predictor, cache-accurate load/store latencies and
//!   a queued NEON pipeline.
//! * [`Simulator`] — drives machine + timing + an optional [`CommitHook`].
//!
//! # Examples
//!
//! ```
//! use dsa_cpu::{Simulator, CpuConfig};
//! use dsa_isa::{Asm, Reg, Cond};
//!
//! let mut a = Asm::new();
//! a.mov_imm(Reg::R0, 10);
//! let top = a.here();
//! a.sub_imm(Reg::R0, Reg::R0, 1);
//! a.cmp_imm(Reg::R0, 0);
//! a.b_to(Cond::Ne, top);
//! a.halt();
//!
//! let mut sim = Simulator::new(a.finish(), CpuConfig::default());
//! let outcome = sim.run(100_000).expect("terminates");
//! assert!(outcome.halted);
//! assert_eq!(sim.machine().reg(Reg::R0), 0);
//! ```

mod config;
mod decoded;
mod machine;
mod predictor;
pub mod simd;
mod simulator;
mod timing;
mod trace;
pub mod vec128;

pub use config::{CpuConfig, NeonConfig};
pub use decoded::{decode_cached, DecodedInstr, DecodedProgram};
pub use machine::{ExecError, Flags, Machine, MachineState, SimError, DEFAULT_SP};
pub use simd::{BackendKind, Simd, SimdBackend};
pub use vec128::LaneError;
pub use predictor::BranchPredictor;
pub use simulator::{
    BoundedOutcome, CommitHook, NullHook, RunOutcome, SimControl, Simulator, Stepped,
};
pub use timing::{ClassCounts, InjectedOp, TimingModel, TimingStats};
pub use trace::{BranchOutcome, MemAccess, TraceEvent};
