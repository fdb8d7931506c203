//! Differential verification of the DSA's central safety claim.
//!
//! The paper argues the DSA may *speculate* — sentinel trip counts,
//! conditional Array Maps, fused nests — yet never corrupt architectural
//! state: on any misspeculation it flushes and falls back to scalar
//! execution, losing only speedup. The [`DifferentialOracle`] turns that
//! claim into a checkable property: it runs the same program twice, once
//! scalar-only and once with a DSA attached (optionally under an armed
//! [`FaultPlan`](crate::FaultPlan)), and compares the complete final
//! architectural state — scalar and vector register files, flags, and
//! every allocated byte of memory — bit for bit.
//!
//! The scalar run is the [`Reference`]. It depends only on the program
//! and its initial state, so a caller checking one program several
//! ways (clean, under faults, across a snapshot) runs it once with
//! [`DifferentialOracle::reference`] and compares each DSA-attached
//! run against it ([`DifferentialOracle::check_against`],
//! [`DifferentialOracle::resume_against`]). The one-shot
//! [`DifferentialOracle::check_with`] and
//! [`DifferentialOracle::check_resume`] build a reference and go
//! through the same comparison, so both ways give the same report.

use dsa_cpu::{BoundedOutcome, CpuConfig, Machine, NullHook, RunOutcome, SimError, Simulator};
use dsa_isa::Program;

use crate::config::DsaConfig;
use crate::engine::{Dsa, EngineError};
use crate::snapshot::Snapshot;
use crate::stats::DsaStats;

/// Outcome of one differential comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleVerdict {
    /// The DSA-attached run reproduced the scalar state bit for bit.
    Match,
    /// Architectural state diverged — the DSA corrupted execution. The
    /// digests and the first differing component identify where.
    Mismatch {
        /// Which state component differed first: `"regs"`, `"qregs"`,
        /// `"flags"` or `"memory"`.
        component: &'static str,
    },
    /// The scalar reference itself failed with an executor error; no
    /// verdict about the DSA is possible.
    ScalarFailed(SimError),
    /// The scalar run halted but the DSA-attached run did not — the DSA
    /// prevented forward progress, which is itself a safety violation.
    DsaFailed(SimError),
    /// A harness/fuel outcome, not a divergence: the scalar reference
    /// ran out of step budget (the program may simply not halt, or the
    /// fuel was too small for it), so the comparison never happened.
    /// Generated pathological programs land here instead of producing
    /// false fuzzing failures.
    Inconclusive(SimError),
}

/// Full report from one oracle check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// The comparison verdict.
    pub verdict: OracleVerdict,
    /// Digest of the scalar-only final state.
    pub scalar_digest: u64,
    /// Digest of the DSA-attached final state.
    pub dsa_digest: u64,
    /// Cycles of the scalar-only run (0 if it failed).
    pub scalar_cycles: u64,
    /// Cycles of the DSA-attached run (0 if it failed).
    pub dsa_cycles: u64,
    /// Statistics from the DSA-attached run.
    pub stats: DsaStats,
    /// The engine error that poisoned the DSA mid-run, if any. A
    /// poisoned run can still (and must) match the scalar state.
    pub poisoned: Option<EngineError>,
}

impl OracleReport {
    /// Whether the differential property held.
    pub fn holds(&self) -> bool {
        self.verdict == OracleVerdict::Match
    }

    /// Whether the check produced no verdict at all (fuel/infra
    /// outcome on the reference side). Campaign runners count these
    /// separately from both matches and divergences.
    pub fn inconclusive(&self) -> bool {
        matches!(self.verdict, OracleVerdict::Inconclusive(_))
    }
}

impl std::fmt::Display for OracleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.verdict {
            OracleVerdict::Match => write!(
                f,
                "oracle: match (digest {:#018x}, scalar {} cy, dsa {} cy, \
                 {} degradations)",
                self.scalar_digest, self.scalar_cycles, self.dsa_cycles, self.stats.degradations
            ),
            OracleVerdict::Mismatch { component } => write!(
                f,
                "oracle: MISMATCH in {component} (scalar {:#018x} != dsa {:#018x})",
                self.scalar_digest, self.dsa_digest
            ),
            OracleVerdict::ScalarFailed(e) => write!(f, "oracle: scalar reference failed: {e}"),
            OracleVerdict::DsaFailed(e) => write!(f, "oracle: dsa run failed: {e}"),
            OracleVerdict::Inconclusive(e) => {
                write!(f, "oracle: inconclusive (reference fuel/infra outcome: {e})")
            }
        }
    }
}

/// The scalar reference of one program: the finished `NullHook`
/// simulator, its outcome and the `arch_digest` of its final state,
/// each computed once. A campaign that checks one program several ways
/// — clean, under faults, across a snapshot — builds one `Reference`
/// and compares every DSA-attached run against it; the simulation is
/// deterministic, so a second scalar run would repeat it exactly.
#[derive(Debug)]
pub struct Reference {
    sim: Simulator,
    run: Result<RunOutcome, SimError>,
    digest: u64,
}

impl Reference {
    /// How the scalar run ended.
    pub fn outcome(&self) -> Result<RunOutcome, SimError> {
        self.run
    }

    fn cycles(&self) -> u64 {
        self.run.map_or(0, |o| o.cycles)
    }
}

/// Runs a program twice — scalar-only and DSA-attached — and compares
/// final architectural state bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct DifferentialOracle {
    /// Step budget for each run (the watchdog).
    pub fuel: u64,
    /// Timing configuration shared by both runs.
    pub cpu: CpuConfig,
}

impl DifferentialOracle {
    /// An oracle with the given step budget and the default CPU model.
    pub fn new(fuel: u64) -> DifferentialOracle {
        DifferentialOracle { fuel, cpu: CpuConfig::default() }
    }

    /// Runs `program` scalar-only from the state `init` seeds: the
    /// [`Reference`] that [`check_against`](Self::check_against) and
    /// [`resume_against`](Self::resume_against) compare with. Those
    /// calls must seed their DSA-attached runs with the same `init`.
    pub fn reference<F>(&self, program: &Program, init: F) -> Reference
    where
        F: Fn(&mut Machine),
    {
        let mut sim = Simulator::new(program.clone(), self.cpu);
        init(sim.machine_mut());
        let run = sim.run_with_hook(self.fuel, &mut NullHook);
        let digest = sim.machine().arch_digest();
        Reference { sim, run, digest }
    }

    /// Checks `program` under `config`. `init` seeds identical initial
    /// state (input arrays, registers) into both machines.
    pub fn check<F>(&self, program: &Program, config: DsaConfig, init: F) -> OracleReport
    where
        F: Fn(&mut Machine),
    {
        self.check_with(program, &mut Dsa::new(config), init)
    }

    /// Like [`check`](Self::check), but drives the DSA-attached run
    /// through an existing engine instead of a fresh one, so the
    /// template cache persists across repeated calls with the same
    /// program. Cache-resident fault sites — a corrupted template hit,
    /// a lying sentinel trip count — only have injection opportunities
    /// once a loop has been probed, analyzed and cached on earlier
    /// entrances, which a cold engine never reaches for a
    /// single-entrance kernel. `report.stats` are the engine's
    /// cumulative counters, not this call's increment.
    pub fn check_with<F>(&self, program: &Program, dsa: &mut Dsa, init: F) -> OracleReport
    where
        F: Fn(&mut Machine),
    {
        let reference = self.reference(program, &init);
        self.check_against(&reference, dsa, init)
    }

    /// [`check_with`](Self::check_with) against a [`Reference`] already
    /// run: only the DSA-attached run of the reference's program is
    /// simulated. The report is the one `check_with` gives.
    pub fn check_against<F>(&self, reference: &Reference, dsa: &mut Dsa, init: F) -> OracleReport
    where
        F: Fn(&mut Machine),
    {
        let mut vec = Simulator::new(reference.sim.program().clone(), self.cpu);
        init(vec.machine_mut());
        let dsa_run = vec.run_with_hook(self.fuel, dsa);
        let dsa_digest = vec.machine().arch_digest();
        let verdict = match (&reference.run, &dsa_run) {
            (Err(e), _) => Self::scalar_verdict(*e),
            (Ok(_), Err(e)) => OracleVerdict::DsaFailed(*e),
            (Ok(_), Ok(_)) => Self::compare(reference, vec.machine(), dsa_digest),
        };
        OracleReport {
            verdict,
            scalar_digest: reference.digest,
            dsa_digest,
            scalar_cycles: reference.cycles(),
            dsa_cycles: dsa_run.map_or(0, |o| o.cycles),
            stats: dsa.stats(),
            poisoned: dsa.poisoned(),
        }
    }

    /// Crash-consistency check: a DSA-attached run interrupted after
    /// `split` committed instructions, snapshotted (through actual
    /// serialized bytes, exercising the full wire format), restored and
    /// completed, must reach the same final architectural state as both
    /// an uninterrupted DSA run and the scalar reference — bit for bit.
    /// `Mismatch` components are reported against the scalar reference;
    /// a resumed-vs-uninterrupted divergence that somehow still matched
    /// the scalar state would be caught too, since both are compared.
    ///
    /// The resumed engine restarts in Probing mode with a warm cache;
    /// this changes *timing* only, never state — exactly the paper's
    /// safety argument, extended across a process boundary.
    pub fn check_resume<F>(
        &self,
        program: &Program,
        config: DsaConfig,
        init: F,
        split: u64,
    ) -> OracleReport
    where
        F: Fn(&mut Machine),
    {
        let reference = self.reference(program, &init);
        self.resume_against(&reference, config, init, split)
    }

    /// [`check_resume`](Self::check_resume) against a [`Reference`]
    /// already run: only the uninterrupted and the interrupted DSA runs
    /// are simulated. The report is the one `check_resume` gives.
    pub fn resume_against<F>(
        &self,
        reference: &Reference,
        config: DsaConfig,
        init: F,
        split: u64,
    ) -> OracleReport
    where
        F: Fn(&mut Machine),
    {
        let program = reference.sim.program();

        // Uninterrupted DSA run.
        let mut full = Simulator::new(program.clone(), self.cpu);
        init(full.machine_mut());
        let mut full_dsa = Dsa::new(config);
        let full_run = full.run_with_hook(self.fuel, &mut full_dsa);

        // Interrupted run: pause after `split` commits, serialize a
        // snapshot, drop everything, restore from the bytes, complete.
        let mut first = Simulator::new(program.clone(), self.cpu);
        init(first.machine_mut());
        let mut first_dsa = Dsa::new(config);
        let pause = first.run_bounded(split, &mut first_dsa);
        let resumed_run: Result<RunOutcome, SimError> = match pause {
            Err(e) => Err(e),
            Ok(BoundedOutcome::Halted(out)) => {
                // Program finished before the split point; the "resumed"
                // run is just the finished run.
                return self.resume_report(reference, &full, full_run, &first, Ok(out), &first_dsa);
            }
            Ok(BoundedOutcome::Paused) => {
                let bytes = Snapshot::capture(&first_dsa, first.machine()).to_bytes();
                drop(first_dsa);
                drop(first);
                match Dsa::restore(&bytes, config) {
                    Err(_) => {
                        // A snapshot of our own making must restore; feed
                        // the failure through as a DSA-side failure.
                        Err(SimError::StepBudgetExceeded { pc: 0, steps: 0 })
                    }
                    Ok((mut dsa2, machine2)) => {
                        let mut second =
                            Simulator::with_machine(program.clone(), self.cpu, machine2);
                        let run = second.run_with_hook(self.fuel, &mut dsa2);
                        return self.resume_report(reference, &full, full_run, &second, run, &dsa2);
                    }
                }
            }
        };
        // Pause-phase failure (executor error or unrestorable snapshot).
        OracleReport {
            verdict: match (&reference.run, &resumed_run) {
                (Err(e), _) => Self::scalar_verdict(*e),
                (_, Err(e)) => OracleVerdict::DsaFailed(*e),
                _ => OracleVerdict::Mismatch { component: "regs" },
            },
            scalar_digest: reference.digest,
            dsa_digest: 0,
            scalar_cycles: reference.cycles(),
            dsa_cycles: 0,
            stats: DsaStats::default(),
            poisoned: None,
        }
    }

    fn resume_report(
        &self,
        reference: &Reference,
        full: &Simulator,
        full_run: Result<RunOutcome, SimError>,
        resumed: &Simulator,
        resumed_run: Result<RunOutcome, SimError>,
        resumed_dsa: &Dsa,
    ) -> OracleReport {
        let dsa_digest = resumed.machine().arch_digest();
        let verdict = match (&reference.run, (&full_run, &resumed_run)) {
            (Err(e), _) => Self::scalar_verdict(*e),
            (Ok(_), (Err(e), _)) | (Ok(_), (_, Err(e))) => OracleVerdict::DsaFailed(*e),
            (Ok(_), (Ok(_), Ok(_))) => {
                // Resumed vs scalar, then uninterrupted vs scalar: all
                // three final states must agree bit for bit.
                match Self::compare(reference, resumed.machine(), dsa_digest) {
                    OracleVerdict::Match => {
                        Self::compare(reference, full.machine(), full.machine().arch_digest())
                    }
                    diverged => diverged,
                }
            }
        };
        OracleReport {
            verdict,
            scalar_digest: reference.digest,
            dsa_digest,
            scalar_cycles: reference.cycles(),
            dsa_cycles: resumed_run.map_or(0, |o| o.cycles),
            stats: resumed_dsa.stats(),
            poisoned: resumed_dsa.poisoned(),
        }
    }

    /// Classifies a failure of the *reference* run: running out of step
    /// budget is a harness outcome ([`OracleVerdict::Inconclusive`] —
    /// the program may be pathological, the fuel too small), while an
    /// executor error is a genuine reference failure.
    fn scalar_verdict(e: SimError) -> OracleVerdict {
        match e {
            SimError::StepBudgetExceeded { .. } => OracleVerdict::Inconclusive(e),
            _ => OracleVerdict::ScalarFailed(e),
        }
    }

    /// Compares a DSA-attached run's final machine, whose `arch_digest`
    /// is `dsa_digest`, with the reference's.
    fn compare(reference: &Reference, dsa: &Machine, dsa_digest: u64) -> OracleVerdict {
        let scalar = reference.sim.machine();
        if scalar.regs() != dsa.regs() {
            return OracleVerdict::Mismatch { component: "regs" };
        }
        if scalar.qregs() != dsa.qregs() {
            return OracleVerdict::Mismatch { component: "qregs" };
        }
        if reference.digest != dsa_digest {
            // Registers agreed, so the digests diverged over flags or
            // memory contents; memory is by far the larger component.
            return OracleVerdict::Mismatch { component: "memory" };
        }
        OracleVerdict::Match
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_compiler::{Body, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};

    fn vec_add_kernel() -> dsa_compiler::Kernel {
        let mut kb = KernelBuilder::new(Variant::Scalar);
        let a = kb.alloc("a", DataType::F32, 256);
        let b = kb.alloc("b", DataType::F32, 256);
        let v = kb.alloc("v", DataType::F32, 256);
        kb.emit_loop(LoopIr {
            name: "vec_sum".into(),
            trip: Trip::Const(256),
            elem: DataType::F32,
            body: Body::Map { dst: v.at(0), expr: Expr::load(a.at(0)) + Expr::load(b.at(0)) },
            ..LoopIr::default()
        });
        kb.halt();
        kb.finish()
    }

    #[test]
    fn oracle_matches_on_a_vectorized_loop() {
        let kernel = vec_add_kernel();
        let oracle = DifferentialOracle::new(10_000_000);
        let report = oracle.check(&kernel.program, DsaConfig::full(), |_| {});
        assert!(report.holds(), "{report}");
        assert!(report.stats.loops_vectorized > 0, "DSA actually engaged");
        assert!(report.poisoned.is_none());
    }

    #[test]
    fn resume_from_mid_run_snapshot_is_bit_identical() {
        let kernel = vec_add_kernel();
        let oracle = DifferentialOracle::new(10_000_000);
        // Split points from "before the loop starts" to "deep inside
        // vectorized execution".
        for split in [1, 50, 500, 5_000] {
            let report =
                oracle.check_resume(&kernel.program, DsaConfig::full(), |_| {}, split);
            assert!(report.holds(), "split {split}: {report}");
        }
    }

    #[test]
    fn resume_after_natural_halt_still_matches() {
        let kernel = vec_add_kernel();
        let oracle = DifferentialOracle::new(10_000_000);
        // Split beyond program length: the bounded run halts naturally.
        let report =
            oracle.check_resume(&kernel.program, DsaConfig::full(), |_| {}, 10_000_000);
        assert!(report.holds(), "{report}");
    }

    #[test]
    fn planted_restore_bug_is_caught_as_divergence() {
        // The TestBug hook models a silent logic error in the DSA's
        // snapshot-restore path: the resumed run "succeeds" but one bit
        // of the restored memory image is wrong. The kill→resume
        // differential check must flag it — this is exactly the class
        // of bug the forge campaigns exist to find.
        use crate::config::TestBug;
        let kernel = vec_add_kernel();
        let oracle = DifferentialOracle::new(10_000_000);
        let (a, b) = (kernel.layout.bufs()[0].base, kernel.layout.bufs()[1].base);
        // Nonzero inputs: a flipped bit in all-zero data still diverges,
        // but realistic data keeps the digests honest.
        let init = move |m: &mut Machine| {
            for i in 0..256u32 {
                m.mem.write_f32(a + 4 * i, i as f32);
                m.mem.write_f32(b + 4 * i, 2.0 * i as f32);
            }
        };
        let clean = oracle.check_resume(&kernel.program, DsaConfig::full(), init, 500);
        assert!(clean.holds(), "{clean}");
        let config = DsaConfig::full().with_test_bug(TestBug::CorruptRestore);
        // The plain (no-snapshot) differential check cannot see a
        // restore bug: vectorization is timing substitution, so a
        // normal run never rebuilds state through the DSA layer.
        let plain = oracle.check(&kernel.program, config, init);
        assert!(plain.holds(), "{plain}");
        let report = oracle.check_resume(&kernel.program, config, init, 500);
        assert!(
            matches!(report.verdict, OracleVerdict::Mismatch { .. }),
            "planted bug must diverge: {report}"
        );
        // Through one shared reference, as a campaign checks a program:
        // the clean and plain checks still match, the resume check still
        // diverges, and every report equals its one-shot counterpart.
        let reference = oracle.reference(&kernel.program, init);
        let shared_clean = oracle.resume_against(&reference, DsaConfig::full(), init, 500);
        assert_eq!(shared_clean, clean);
        let shared_plain = oracle.check_against(&reference, &mut Dsa::new(config), init);
        assert_eq!(shared_plain, plain);
        let shared = oracle.resume_against(&reference, config, init, 500);
        assert!(
            matches!(shared.verdict, OracleVerdict::Mismatch { .. }),
            "planted bug must diverge through a shared reference: {shared}"
        );
        assert_eq!(shared, report);
    }

    #[test]
    fn oracle_reports_a_non_halting_reference_as_inconclusive() {
        // A reference that runs out of fuel yields no verdict at all:
        // the outcome is Inconclusive, not a divergence and not a
        // scalar *failure* — generated pathological programs must not
        // read as fuzzing hits.
        let kernel = vec_add_kernel();
        let oracle = DifferentialOracle::new(10);
        let report = oracle.check(&kernel.program, DsaConfig::full(), |_| {});
        assert!(
            matches!(report.verdict, OracleVerdict::Inconclusive(SimError::StepBudgetExceeded { .. })),
            "{report}"
        );
        assert!(report.inconclusive());
        assert!(!report.holds());
        assert!(report.to_string().contains("inconclusive"));
        // The resume variant classifies a starved reference the same way.
        let resume = oracle.check_resume(&kernel.program, DsaConfig::full(), |_| {}, 5);
        assert!(resume.inconclusive(), "{resume}");
    }
}
