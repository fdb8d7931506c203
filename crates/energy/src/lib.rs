//! Energy and area models for the DSA-augmented ARM core.
//!
//! Substitutes the paper's McPAT (core energy) and Cadence RTL Compiler /
//! ModelSim (DSA energy and area) flows with parametric models: dynamic
//! energy is *events × per-event energy* per component, static energy is
//! *leakage power × cycles*, and area comes from constants calibrated to
//! the paper's Table 3 (Article 1). The per-event constants are
//! representative 40 nm-class values at 1 GHz; what the experiments rely
//! on is their *ratios* (a 128-bit vector op costs ~1.5–2× a scalar op
//! while replacing 4–16 of them), which is the mechanism behind the
//! paper's ≈45 % energy saving.
//!
//! # Examples
//!
//! ```
//! use dsa_energy::{EnergyModel, EnergyTable};
//! use dsa_cpu::{Simulator, CpuConfig};
//! use dsa_isa::{Asm, Reg, Cond};
//!
//! let mut a = Asm::new();
//! a.mov_imm(Reg::R0, 100);
//! let top = a.here();
//! a.sub_imm(Reg::R0, Reg::R0, 1);
//! a.cmp_imm(Reg::R0, 0);
//! a.b_to(Cond::Ne, top);
//! a.halt();
//! let mut sim = Simulator::new(a.finish(), CpuConfig::default());
//! let outcome = sim.run(100_000).expect("runs");
//!
//! let model = EnergyModel::new(EnergyTable::default());
//! let breakdown = model.evaluate(&outcome, None);
//! assert!(breakdown.total_nj() > 0.0);
//! ```

#![forbid(unsafe_code)]

mod area;
mod model;

pub use area::{AreaModel, AreaReport};
pub use model::{EnergyBreakdown, EnergyModel, EnergyTable};
