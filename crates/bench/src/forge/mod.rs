//! `dsa-forge`: corpus-scale generative differential fuzzing of the
//! DSA detector, with committed minimal reproducers.
//!
//! The pipeline, end to end:
//!
//! 1. **Generate** ([`gen`]): a seed-deterministic stream of small
//!    programs over the compiler's [`LoopIr`](dsa_compiler::LoopIr) —
//!    nine loop shapes spanning all eight paper loop classes, with
//!    randomized element types, trip counts (including non-lane
//!    multiples), operators and operand forms.
//! 2. **Canonicalize + dedup** ([`spec`]): unused fields are zeroed
//!    and programs are deduplicated by a structural FNV hash that
//!    ignores the seed, so the campaign never spends budget running
//!    the same detector stimulus twice.
//! 3. **Campaign** ([`campaign`]): each program runs one scalar
//!    [`Reference`] and three differential phases against
//!    it — a clean [`DifferentialOracle::check_against`] pass (with a
//!    sink folding per-class coverage), a pass under a seed-derived
//!    [`FaultSchedule`], and a mid-run kill→snapshot→restore
//!    [`resume_against`] pass whose uninterrupted counterpart is the
//!    clean pass. The runs share one predecode, and while the phases
//!    match only the reference's final state is digested. Programs fan
//!    out across `DSA_JOBS` workers, each inside the crash boundary
//!    [`isolate`](crate::isolate); they are generated as workers take
//!    them and their outcomes folded as they arrive, so a campaign's
//!    memory does not grow with its budget.
//!    Each campaign seed also sweeps the eight fixed workloads
//!    ([`workload`]) through a clean check, the per-site fault sweep
//!    and a kill/resume check, tallying a per-site table; a workload's
//!    whole sweep shares one scalar reference too.
//! 4. **Shrink** ([`shrink`]): a failing program is ddmin-minimized —
//!    drop loops, simplify bodies, shrink trips — while the failure
//!    still reproduces, then serialized as a `dsa-forge/v1` JSON
//!    reproducer for `corpus/regressions/`. A failing workload check
//!    is already minimal and is serialized as it is.
//!
//! The harness proves it can catch real bugs with a *planted* one:
//! [`TestBug::CorruptRestore`](dsa_core::TestBug) corrupts one bit of
//! the restored memory image, which only the campaign's resume phase
//! can observe — `forge --inject-bug` must find it, shrink it, and
//! the committed reproducer must keep reproducing it forever.
//!
//! [`Reference`]: dsa_core::Reference
//! [`DifferentialOracle::check_against`]: dsa_core::DifferentialOracle::check_against
//! [`resume_against`]: dsa_core::DifferentialOracle::resume_against
//! [`FaultSchedule`]: dsa_core::FaultSchedule

pub mod campaign;
pub mod gen;
pub mod lower;
pub mod shrink;
pub mod spec;
pub mod workload;

pub use campaign::{
    run_program, Campaign, CampaignReport, Coverage, ForgeFailure, ProgramOutcome, Subject,
};
pub use gen::{generate, generate_nth, MAX_LOOPS};
pub use lower::{lower, ForgeProgram};
pub use shrink::shrink_program;
pub use spec::{LoopSpec, ProgramSpec, Shape, FORGE_SCHEMA};
pub use workload::{Phase, SiteTable, WorkloadCase};
