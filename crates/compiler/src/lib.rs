//! A miniature loop-level compiler with three code generators.
//!
//! The paper compares the DSA against two static baselines: the **ARM
//! NEON auto-vectorizing compiler** and **hand-vectorized code** written
//! with the ARM NEON library. This crate reproduces both, plus the plain
//! scalar code generator (the "ARM Original Execution" system), over a
//! small loop-level IR ([`LoopIr`]).
//!
//! Workloads are built with a [`KernelBuilder`]: raw assembly for the
//! irregular parts (outer loops, quicksort, Dijkstra) and [`LoopIr`]
//! descriptions for every innermost loop. The builder's [`Variant`]
//! selects which code generator lowers each loop:
//!
//! * [`Variant::Scalar`] — plain scalar loops (post-indexed loads,
//!   `cmp` + `bne` closing), the exact shape the DSA detects at runtime.
//! * [`Variant::AutoVec`] — applies the dissertation's Table-1 inhibition
//!   rules ([`InhibitReason`]); vectorizable loops get a vector body, a
//!   scalar epilogue for leftovers and a small runtime-check preamble
//!   (the versioning overhead real auto-vectorizers pay).
//! * [`Variant::HandVec`] — what a programmer does with NEON intrinsics:
//!   also vectorizes runtime trip counts and reductions, pays no runtime
//!   checks, but cannot speculate on conditional or sentinel loops.
//!
//! # Examples
//!
//! ```
//! use dsa_compiler::{Body, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};
//!
//! let mut kb = KernelBuilder::new(Variant::AutoVec);
//! let a = kb.alloc("a", DataType::I32, 100);
//! let b = kb.alloc("b", DataType::I32, 100);
//! let v = kb.alloc("v", DataType::I32, 100);
//! kb.emit_loop(LoopIr {
//!     name: "vector_sum".into(),
//!     trip: Trip::Const(100),
//!     elem: DataType::I32,
//!     body: Body::Map {
//!         dst: v.at(0),
//!         expr: Expr::load(a.at(0)) + Expr::load(b.at(0)),
//!     },
//!     ..LoopIr::default()
//! });
//! kb.halt();
//! let kernel = kb.finish();
//! assert!(kernel.reports[0].vectorized);
//! ```

#![forbid(unsafe_code)]

mod builder;
mod inhibit;
mod ir;
mod scalar;
mod vector;

pub use builder::regs;
pub use builder::DATA_BASE as DATA_BASE_ADDR;
pub use builder::{BufId, BufInfo, FuncId, Kernel, KernelBuilder, Layout, LoopReport, Variant};
pub use inhibit::{analyze_autovec, analyze_handvec, InhibitReason};
pub use ir::{Access, BinOp, Body, CmpOp, DataType, Expr, LoopIr, Trip};
