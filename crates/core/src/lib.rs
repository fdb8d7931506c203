//! The Dynamic SIMD Assembler (DSA) — the paper's contribution.
//!
//! The DSA is a hardware engine that watches the committed instruction
//! stream of an ARMv7-class core, detects vectorizable loops *at
//! runtime*, builds NEON SIMD instructions for them and executes the
//! remaining iterations on the vector engine while the scalar pipeline is
//! stalled. It is implemented here as a [`Dsa`] commit hook for the
//! trace-level simulator in `dsa-cpu`, mirroring the paper's own
//! methodology ("the DSA monitors all O3CPU incoming instructions … we
//! adjust the timing model replacing the scalar vectorizable
//! instructions by vector instructions", dissertation §5).
//!
//! Detection follows the six-stage state machine of the paper:
//!
//! 1. **Loop Detection** — a taken backward branch identifies a loop;
//!    the DSA cache is probed by loop ID (the branch-target PC).
//! 2. **Data Collection** — iteration 2 is profiled: data-memory
//!    addresses go to the Verification Cache, the closing compare gives
//!    the loop range, conditional code / function calls / sentinel
//!    shapes are flagged.
//! 3. **Dependency Analysis** — iteration 3 gives per-stream address
//!    gaps; the Cross-Iteration Dependency Prediction (CIDP, equations
//!    4.1–4.5) decides vectorizability, with partial vectorization for
//!    bounded dependency distances.
//! 4. **Store ID / Execution** — the loop is stored in the DSA cache,
//!    the pipeline is flushed and SIMD operations for the remaining
//!    iterations are injected into the Issue stage.
//! 5. **Mapping** — conditional loops: every executed condition is
//!    mapped into Array Maps and vectorized speculatively on first
//!    execution.
//! 6. **Speculative Execution** — conditional selects and sentinel
//!    speculative ranges are resolved at loop end.
//!
//! # Examples
//!
//! ```
//! use dsa_compiler::{Body, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};
//! use dsa_core::{Dsa, DsaConfig};
//! use dsa_cpu::{CpuConfig, Simulator};
//!
//! // Build a plain scalar kernel: v[i] = a[i] + b[i], 400 iterations.
//! let mut kb = KernelBuilder::new(Variant::Scalar);
//! let a = kb.alloc("a", DataType::F32, 400);
//! let b = kb.alloc("b", DataType::F32, 400);
//! let v = kb.alloc("v", DataType::F32, 400);
//! kb.emit_loop(LoopIr {
//!     name: "vec_sum".into(),
//!     trip: Trip::Const(400),
//!     elem: DataType::F32,
//!     body: Body::Map { dst: v.at(0), expr: Expr::load(a.at(0)) + Expr::load(b.at(0)) },
//!     ..LoopIr::default()
//! });
//! kb.halt();
//! let kernel = kb.finish();
//!
//! // Run it under the DSA: the loop is detected and vectorized at runtime.
//! let mut dsa = Dsa::new(DsaConfig::default());
//! let mut sim = Simulator::new(kernel.program, CpuConfig::default());
//! let outcome = sim.run_with_hook(10_000_000, &mut dsa).expect("runs");
//! assert!(outcome.halted);
//! assert!(dsa.stats().loops_vectorized > 0);
//! assert!(outcome.timing.covered > 0, "iterations executed on the NEON engine");
//! ```

#![forbid(unsafe_code)]

mod caches;
mod cidp;
mod config;
mod engine;
mod idhash;
pub mod faults;
pub mod oracle;
mod plan;
mod profile;
pub mod snapshot;
mod stats;

pub use caches::{CachedKind, DsaCache, VerificationCache};
pub use cidp::{predict, CidpOutcome, Stream};
pub use config::{DsaConfig, FeatureSet, LeftoverPolicy, TestBug};
pub use engine::{Dsa, EngineError, Restored};
pub use idhash::IdSet;
pub use faults::{splitmix64, BurstWindow, FaultPlan, FaultSchedule, FaultSite, FaultState};
pub use snapshot::{SessionMeta, Snapshot, SnapshotError};
pub use oracle::{DifferentialOracle, OracleReport, OracleVerdict, Reference};
pub use plan::{build_plan, ArmTemplate, LoopTemplate, OpMix, StreamTemplate, TemplateDefect, VectorPlan};
pub use profile::{BodyClass, BodyProfile, IterationProfile, StreamInfo};
pub use stats::{DsaStats, LoopCensus, LoopClass};
