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
//! The comparison is direct: registers, vector registers, flags, then
//! memory page by page, and the first component that differs names the
//! mismatch. Digests are only reported. The reference's final state is
//! digested once, and a DSA-attached run that matches has the same
//! digest, so only a run that does not match is hashed itself.
//!
//! The scalar run is the [`Reference`]. It depends only on the program
//! and its initial state, so a caller checking one program several
//! ways (clean, under faults, across a snapshot) runs it once with
//! [`DifferentialOracle::reference`] and compares each DSA-attached
//! run against it ([`DifferentialOracle::check_against`],
//! [`DifferentialOracle::resume_against`]). Every such run is a
//! [`Simulator::sibling`] of the reference's simulator, so a program's
//! runs share one predecode. [`DifferentialOracle::resume_against`]
//! simulates only the interrupted run; the uninterrupted run under the
//! same configuration is `check_against`'s. The one-shot
//! [`DifferentialOracle::check_with`] builds a reference and reports
//! what `check_against` does; [`DifferentialOracle::check_resume`]
//! builds one and makes both calls, so it checks the resumed run, the
//! uninterrupted run and the reference against each other.

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

    /// The `arch_digest` of a DSA-attached run's final machine, given
    /// its `verdict`: on a match the state equals the reference's, and
    /// so does its digest, so only a run that did not match is hashed.
    fn digest_of(&self, verdict: &OracleVerdict, dsa: &Machine) -> u64 {
        match verdict {
            OracleVerdict::Match => self.digest,
            _ => dsa.arch_digest(),
        }
    }
}

/// Runs a program scalar-only and DSA-attached and compares final
/// architectural state bit for bit.
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
    /// simulated, over the reference's predecode. The report is the one
    /// `check_with` gives.
    pub fn check_against<F>(&self, reference: &Reference, dsa: &mut Dsa, init: F) -> OracleReport
    where
        F: Fn(&mut Machine),
    {
        let mut vec = reference.sim.sibling(self.cpu, Machine::new());
        init(vec.machine_mut());
        let dsa_run = vec.run_with_hook(self.fuel, dsa);
        let verdict = match (&reference.run, &dsa_run) {
            (Err(e), _) => Self::scalar_verdict(*e),
            (Ok(_), Err(e)) => OracleVerdict::DsaFailed(*e),
            (Ok(_), Ok(_)) => Self::compare(reference, vec.machine()),
        };
        OracleReport {
            dsa_digest: reference.digest_of(&verdict, vec.machine()),
            verdict,
            scalar_digest: reference.digest,
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
    /// an uninterrupted DSA run ([`check_against`](Self::check_against)
    /// under `config`) and the scalar reference — bit for bit. The
    /// report is the resumed run's. Its verdict is the first of: a
    /// failed reference, a failed pause leg, a failed uninterrupted run,
    /// a failed or diverging resumed run, a diverging uninterrupted run.
    /// `Mismatch` components are reported against the scalar reference.
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
        let resumed = match self.interrupted(&reference, config, &init, split) {
            Ok(resumed) => resumed,
            Err(e) => return Self::pause_failed(&reference, e),
        };
        let full = self.check_against(&reference, &mut Dsa::new(config), init);
        // A failed uninterrupted run comes first; otherwise the resumed
        // run's verdict, unless it matched.
        let verdict = match (full.verdict, resumed.verdict) {
            (failed @ OracleVerdict::DsaFailed(_), _) | (failed, OracleVerdict::Match) => failed,
            (_, diverged) => diverged,
        };
        OracleReport { verdict, ..resumed }
    }

    /// The resume leg of [`check_resume`](Self::check_resume) against a
    /// [`Reference`] already run: only the interrupted DSA run is
    /// simulated and compared with the reference. The uninterrupted run
    /// under `config` is [`check_against`](Self::check_against)'s to
    /// check, so a caller that has made that check — `forge`'s clean
    /// phase, or its fault sweep under the same plan — need not repeat it.
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
        self.interrupted(reference, config, init, split)
            .unwrap_or_else(|e| Self::pause_failed(reference, e))
    }

    /// Runs `reference`'s program under `config`, pauses it after
    /// `split` commits, serializes a snapshot, drops everything,
    /// restores from the bytes and completes the run, then compares the
    /// final state with the reference. `Err` is the failure of the pause
    /// leg: an executor error before the split, or a self-made snapshot
    /// that did not restore.
    fn interrupted<F>(
        &self,
        reference: &Reference,
        config: DsaConfig,
        init: F,
        split: u64,
    ) -> Result<OracleReport, SimError>
    where
        F: Fn(&mut Machine),
    {
        let mut first = reference.sim.sibling(self.cpu, Machine::new());
        init(first.machine_mut());
        let mut first_dsa = Dsa::new(config);
        match first.run_bounded(split, &mut first_dsa)? {
            // The program finished before the split point; the "resumed"
            // run is just the finished run.
            BoundedOutcome::Halted(out) => {
                Ok(self.resumed_report(reference, &first, Ok(out), &first_dsa))
            }
            BoundedOutcome::Paused => {
                let bytes = Snapshot::capture(&first_dsa, first.machine()).to_bytes();
                drop(first_dsa);
                drop(first);
                // A snapshot of our own making must restore; feed a
                // failure through as a DSA-side failure.
                let (mut dsa2, machine2) = Dsa::restore(&bytes, config)
                    .map_err(|_| SimError::StepBudgetExceeded { pc: 0, steps: 0 })?;
                let mut second = reference.sim.sibling(self.cpu, machine2);
                let run = second.run_with_hook(self.fuel, &mut dsa2);
                Ok(self.resumed_report(reference, &second, run, &dsa2))
            }
        }
    }

    /// The report of an interrupted run whose pause leg failed with `e`.
    fn pause_failed(reference: &Reference, e: SimError) -> OracleReport {
        OracleReport {
            verdict: match &reference.run {
                Err(e) => Self::scalar_verdict(*e),
                Ok(_) => OracleVerdict::DsaFailed(e),
            },
            scalar_digest: reference.digest,
            dsa_digest: 0,
            scalar_cycles: reference.cycles(),
            dsa_cycles: 0,
            stats: DsaStats::default(),
            poisoned: None,
        }
    }

    fn resumed_report(
        &self,
        reference: &Reference,
        resumed: &Simulator,
        resumed_run: Result<RunOutcome, SimError>,
        resumed_dsa: &Dsa,
    ) -> OracleReport {
        let verdict = match (&reference.run, &resumed_run) {
            (Err(e), _) => Self::scalar_verdict(*e),
            (Ok(_), Err(e)) => OracleVerdict::DsaFailed(*e),
            (Ok(_), Ok(_)) => Self::compare(reference, resumed.machine()),
        };
        OracleReport {
            dsa_digest: reference.digest_of(&verdict, resumed.machine()),
            verdict,
            scalar_digest: reference.digest,
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

    /// Compares a DSA-attached run's final machine with the
    /// reference's, component by component, and names the first that
    /// differs.
    fn compare(reference: &Reference, dsa: &Machine) -> OracleVerdict {
        let scalar = reference.sim.machine();
        let component = if scalar.regs() != dsa.regs() {
            "regs"
        } else if scalar.qregs() != dsa.qregs() {
            "qregs"
        } else if scalar.flags() != dsa.flags() {
            "flags"
        } else if scalar.mem != dsa.mem {
            "memory"
        } else {
            return OracleVerdict::Match;
        };
        OracleVerdict::Mismatch { component }
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
    fn a_flags_only_divergence_is_reported_as_flags() {
        // Two final machines equal in registers, vector registers and
        // memory, differing only in one NZCV flag.
        let kernel = vec_add_kernel();
        let oracle = DifferentialOracle::new(10_000_000);
        let reference = oracle.reference(&kernel.program, |_| {});
        let scalar = reference.sim.machine();
        assert_eq!(DifferentialOracle::compare(&reference, scalar), OracleVerdict::Match);
        let mut state = scalar.capture();
        state.flags.v = !state.flags.v;
        let dsa = Machine::restore(&state);
        assert_eq!((dsa.regs(), dsa.qregs()), (scalar.regs(), scalar.qregs()));
        assert!(dsa.mem == scalar.mem);
        let verdict = DifferentialOracle::compare(&reference, &dsa);
        assert_eq!(verdict, OracleVerdict::Mismatch { component: "flags" });
        assert_ne!(reference.digest_of(&verdict, &dsa), reference.digest);
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
