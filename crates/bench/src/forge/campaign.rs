//! The supervised differential campaign: every generated program runs
//! three oracle phases, in parallel across `DSA_JOBS` workers, with
//! per-loop-class coverage folded from the trace stream. Beside the
//! generated corpus, each campaign seed also sweeps the eight fixed
//! workloads through the per-site fault checks ([`super::workload`]).
//!
//! The phases, and what each one can catch:
//!
//! 1. **Clean** — [`DifferentialOracle::check_with`] with a trace sink
//!    attached: liveness (the DSA must never prevent a program from
//!    halting), poison correctness (a degraded run must still match),
//!    and the per-class coverage signal.
//! 2. **Faulted** — the same check under a seed-derived
//!    [`FaultSchedule`]: injected detector faults must degrade, never
//!    diverge or wedge.
//! 3. **Resume** — [`DifferentialOracle::check_resume`] with a
//!    seed-derived kill point: the kill→snapshot→restore→resume path
//!    must reach the bit-identical final state. This is the phase with
//!    real architectural teeth — vectorization itself is timing
//!    substitution, but restore rebuilds machine state from the DSA's
//!    own serialization — and it is the phase that catches the planted
//!    [`TestBug::CorruptRestore`](dsa_core::TestBug).
//!
//! [`DifferentialOracle::check_with`]: DifferentialOracle::check_with
//! [`DifferentialOracle::check_resume`]: DifferentialOracle::check_resume

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dsa_core::{
    DifferentialOracle, Dsa, DsaConfig, FaultSchedule, LoopClass, OracleVerdict, TestBug,
};
use dsa_trace::{Collector, Event, Shared};

use crate::cache::{self, fixed_workloads};
use crate::{render_table, RunError, Supervisor, SupervisorPolicy};

use super::gen::generate_nth;
use super::lower::lower;
use super::spec::{
    parse_artifact, parse_bug, parse_failure, push_outcome, ProgramSpec, FORGE_SCHEMA,
};
use super::workload::{run_workload, SiteTable, WorkloadCase, WorkloadOutcome};

/// Step budget per oracle run. Generated programs are small (≤ 3 loops
/// × ≤ 512 iterations), so this is ~100× headroom; a program that
/// exhausts it is reported [`OracleVerdict::Inconclusive`], not failed.
pub const FORGE_FUEL: u64 = 20_000_000;

/// The kill point of the resume phase, derived from the program seed:
/// early enough to interrupt even a minimal trip-16 program mid-loop
/// (the floor sits inside its first loop), spread enough to hit
/// prefix, steady-state and epilogue code across a corpus. A program
/// that halts before its kill point still gets a full differential
/// check, just without the snapshot→restore leg.
pub fn kill_at(seed: u64) -> u64 {
    60 + seed % 1_500
}

/// The fault schedule of the faulted phase, derived from the program
/// seed (three burst windows over the first forty opportunities).
pub fn fault_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::generate(seed ^ 0x0f0e_7e57_fa17_5eed, 3, 40)
}

/// How one program failed its campaign. Phase-qualified so a
/// reproducer replays only the phase that matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForgeFailure {
    /// Clean phase: architectural divergence.
    CleanMismatch,
    /// Clean phase: the DSA run failed to halt or errored.
    CleanDsaFailed,
    /// Faulted phase: divergence under injected faults.
    FaultMismatch,
    /// Faulted phase: the DSA run failed under injected faults.
    FaultDsaFailed,
    /// Resume phase: the resumed (or uninterrupted) run diverged.
    ResumeMismatch,
    /// Resume phase: a run failed or a self-made snapshot refused to
    /// restore.
    ResumeDsaFailed,
    /// The scalar reference itself hit an executor error — a
    /// generator/lowering bug, reported so it can be shrunk too — or,
    /// on a fixed workload, ran out of fuel.
    ScalarFailed,
}

impl ForgeFailure {
    /// Every failure kind.
    pub const ALL: [ForgeFailure; 7] = [
        ForgeFailure::CleanMismatch,
        ForgeFailure::CleanDsaFailed,
        ForgeFailure::FaultMismatch,
        ForgeFailure::FaultDsaFailed,
        ForgeFailure::ResumeMismatch,
        ForgeFailure::ResumeDsaFailed,
        ForgeFailure::ScalarFailed,
    ];

    /// Stable artifact name.
    pub fn kind(self) -> &'static str {
        match self {
            ForgeFailure::CleanMismatch => "clean-mismatch",
            ForgeFailure::CleanDsaFailed => "clean-dsa-failed",
            ForgeFailure::FaultMismatch => "fault-mismatch",
            ForgeFailure::FaultDsaFailed => "fault-dsa-failed",
            ForgeFailure::ResumeMismatch => "resume-mismatch",
            ForgeFailure::ResumeDsaFailed => "resume-dsa-failed",
            ForgeFailure::ScalarFailed => "scalar-failed",
        }
    }

    /// Parses a stable artifact name.
    pub fn by_kind(kind: &str) -> Option<ForgeFailure> {
        ForgeFailure::ALL.into_iter().find(|f| f.kind() == kind)
    }
}

/// What one program's campaign observed.
#[derive(Debug, Clone)]
pub struct ProgramOutcome {
    /// Structural hash of the program (dedup key, log handle).
    pub hash: u64,
    /// First failure across the three phases, if any.
    pub failure: Option<ForgeFailure>,
    /// Phases that ended [`OracleVerdict::Inconclusive`] (reference
    /// fuel) — counted, not failed.
    pub inconclusive: u32,
    /// Loop classes the DSA classified (census vocabulary), from the
    /// clean phase's trace stream.
    pub classified: Vec<&'static str>,
    /// Loop classes the DSA actually vectorized.
    pub vectorized: Vec<&'static str>,
}

/// Runs one program's three phases under `config`. Never panics on a
/// well-formed spec; lowering panics on malformed specs are the
/// caller's (supervisor's) concern.
pub fn run_program(spec: &ProgramSpec, config: DsaConfig) -> ProgramOutcome {
    let prog = lower(spec);
    let oracle = DifferentialOracle::new(FORGE_FUEL);
    let mut out = ProgramOutcome {
        hash: spec.structural_hash(),
        failure: None,
        inconclusive: 0,
        classified: Vec::new(),
        vectorized: Vec::new(),
    };

    // Phase 1: clean differential check, with coverage folding.
    let sink = Shared::new(Collector::new());
    let mut dsa = Dsa::new(config);
    dsa.attach_sink(sink.clone());
    let clean = oracle.check_with(&prog.kernel.program, &mut dsa, prog.init());
    sink.with(|c| {
        for ev in &c.events {
            match ev {
                Event::LoopClassified { class, .. } => out.classified.push(class),
                Event::LoopVectorized { class, .. } => out.vectorized.push(class),
                _ => {}
            }
        }
    });
    match grade(&clean.verdict, (ForgeFailure::CleanMismatch, ForgeFailure::CleanDsaFailed)) {
        Ok(inconclusive) => out.inconclusive += u32::from(inconclusive),
        Err(f) => {
            out.failure = Some(f);
            return out;
        }
    }

    // Phase 2: the same check under a seed-derived fault schedule.
    let mut faulted = Dsa::new(config);
    faulted.arm_schedule(fault_schedule(spec.seed));
    let fr = oracle.check_with(&prog.kernel.program, &mut faulted, prog.init());
    match grade(&fr.verdict, (ForgeFailure::FaultMismatch, ForgeFailure::FaultDsaFailed)) {
        Ok(inconclusive) => out.inconclusive += u32::from(inconclusive),
        Err(f) => {
            out.failure = Some(f);
            return out;
        }
    }

    // Phase 3: kill → snapshot → restore → resume, bit-compared.
    let rr = oracle.check_resume(&prog.kernel.program, config, prog.init(), kill_at(spec.seed));
    match grade(&rr.verdict, (ForgeFailure::ResumeMismatch, ForgeFailure::ResumeDsaFailed)) {
        Ok(inconclusive) => out.inconclusive += u32::from(inconclusive),
        Err(f) => out.failure = Some(f),
    }
    out
}

/// Grades one oracle verdict against a phase's (mismatch, DSA-failed)
/// failure kinds: `Ok(true)` when inconclusive (reference fuel,
/// counted rather than failed, since a generated program may be
/// pathological), `Ok(false)` on a match.
pub(crate) fn grade(
    verdict: &OracleVerdict,
    (mismatch, dsa_failed): (ForgeFailure, ForgeFailure),
) -> Result<bool, ForgeFailure> {
    match verdict {
        OracleVerdict::Match => Ok(false),
        OracleVerdict::Inconclusive(_) => Ok(true),
        OracleVerdict::Mismatch { .. } => Err(mismatch),
        OracleVerdict::DsaFailed(_) => Err(dsa_failed),
        OracleVerdict::ScalarFailed(_) => Err(ForgeFailure::ScalarFailed),
    }
}

/// The configuration a replay runs under: the full DSA, with the
/// planted bug armed if the artifact recorded one.
fn replay_config(bug: Option<TestBug>) -> DsaConfig {
    bug.map_or(DsaConfig::full(), |b| DsaConfig::full().with_test_bug(b))
}

/// Replays one spec (artifact or fresh) and reports what it does now.
pub fn observe(spec: &ProgramSpec, bug: Option<TestBug>) -> Option<ForgeFailure> {
    run_program(spec, replay_config(bug)).failure
}

/// What a `dsa-forge/v1` reproducer replays: a generated program or
/// one fixed-workload check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subject {
    /// A generated program; its artifact carries `loops`.
    Program(ProgramSpec),
    /// One fixed-workload check; its artifact carries `workload`,
    /// `phase` and `site`.
    Workload(WorkloadCase),
}

impl Subject {
    /// Replays the subject and reports what it does now.
    pub fn observe(&self, bug: Option<TestBug>) -> Option<ForgeFailure> {
        match self {
            Subject::Program(spec) => observe(spec, bug),
            Subject::Workload(case) => case.failure(replay_config(bug)),
        }
    }

    /// Renders the reproducer artifact (see [`ProgramSpec::to_json`]).
    pub fn to_json(&self, failure: Option<&str>, bug: Option<TestBug>) -> String {
        match self {
            Subject::Program(spec) => spec.to_json(failure, bug),
            Subject::Workload(case) => {
                let mut out = format!("{{\"schema\":\"{FORGE_SCHEMA}\"");
                case.push_json(&mut out);
                push_outcome(&mut out, failure, bug);
                out
            }
        }
    }

    /// Parses a reproducer artifact of either subject, with its armed
    /// test bug and the failure kind it recorded (`None`: clean).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(text: &str) -> Result<(Subject, Option<TestBug>, Option<String>), String> {
        let v = parse_artifact(text)?;
        let subject = if v.get("workload").is_none() {
            Subject::Program(ProgramSpec::from_value(&v)?)
        } else {
            Subject::Workload(WorkloadCase::from_value(&v)?)
        };
        Ok((subject, parse_bug(&v)?, parse_failure(&v)?))
    }
}

/// One row of the coverage report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CovRow {
    /// Loops generated whose shape expects this class.
    pub generated: u64,
    /// Loops the DSA classified as this class (clean phase).
    pub detected: u64,
    /// Loops of this class handed to the vector engine.
    pub vectorized: u64,
}

/// Per-loop-class coverage: generated × detected × vectorized.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    rows: BTreeMap<&'static str, CovRow>,
}

impl Coverage {
    /// All eight census classes, each starting at zero, so the report
    /// always shows the full vocabulary (a silent zero row is the
    /// finding, not a formatting accident).
    pub fn full_vocabulary() -> Coverage {
        let mut c = Coverage::default();
        for class in [
            LoopClass::Count,
            LoopClass::Function,
            LoopClass::Nest,
            LoopClass::Conditional,
            LoopClass::DynamicRange,
            LoopClass::Sentinel,
            LoopClass::Partial,
            LoopClass::NonVectorizable,
        ] {
            c.rows.entry(class.name()).or_default();
        }
        c
    }

    /// Folds one program's generation + outcome into the report.
    pub fn fold(&mut self, spec: &ProgramSpec, outcome: &ProgramOutcome) {
        for l in &spec.loops {
            self.rows.entry(l.shape.expected_class().name()).or_default().generated += 1;
        }
        for class in &outcome.classified {
            self.rows.entry(class).or_default().detected += 1;
        }
        for class in &outcome.vectorized {
            self.rows.entry(class).or_default().vectorized += 1;
        }
    }

    /// The row for `class` (zero row when the class never appeared).
    pub fn row(&self, class: LoopClass) -> CovRow {
        self.rows.get(class.name()).copied().unwrap_or_default()
    }

    /// Whether the corpus exercised all eight classes: every class
    /// generated and detected, and every class except
    /// `non-vectorizable` actually vectorized at least once.
    pub fn complete(&self) -> bool {
        let all = Coverage::full_vocabulary();
        all.rows.keys().all(|class| {
            let r = self.rows.get(class).copied().unwrap_or_default();
            r.generated > 0
                && r.detected > 0
                && (*class == "non-vectorizable" || r.vectorized > 0)
        })
    }

    /// Renders the coverage table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(class, r)| {
                vec![
                    class.to_string(),
                    r.generated.to_string(),
                    r.detected.to_string(),
                    r.vectorized.to_string(),
                ]
            })
            .collect();
        render_table(&["class", "generated", "detected", "vectorized"], &rows)
    }
}

/// A configured campaign: a seed fanning out to a deduplicated corpus
/// of `budget` programs, run across `jobs` workers.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Root seed of the program stream.
    pub seed: u64,
    /// Post-dedup corpus size to run.
    pub budget: usize,
    /// Worker threads ([`cache::jobs_from_env`] when built by
    /// [`Campaign::new`]).
    pub jobs: usize,
    /// DSA configuration every phase runs under (a planted
    /// [`TestBug`] rides in here).
    pub config: DsaConfig,
}

/// What a whole campaign observed.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Programs generated before dedup.
    pub generated: usize,
    /// Structurally distinct programs executed.
    pub programs: usize,
    /// Generated programs discarded as structural duplicates.
    pub duplicates: usize,
    /// Generated-program oracle phases that were inconclusive
    /// (reference fuel).
    pub inconclusive: u64,
    /// Supervisor-level failures (worker panic, deadline, breaker) —
    /// infra problems, not detector verdicts.
    pub infra_failures: u64,
    /// Failing subjects: programs in corpus order, then workloads.
    pub failures: Vec<(Subject, ForgeFailure)>,
    /// Per-class coverage across the generated corpus.
    pub coverage: Coverage,
    /// Fault-site tallies of the fixed-workload sweep.
    pub sites: SiteTable,
}

impl CampaignReport {
    /// Whether the campaign is clean: no divergences, no infra
    /// failures.
    pub fn clean(&self) -> bool {
        self.failures.is_empty() && self.infra_failures == 0
    }
}

impl Campaign {
    /// A campaign with `jobs` resolved from the environment.
    pub fn new(seed: u64, budget: usize, config: DsaConfig) -> Campaign {
        Campaign { seed, budget, jobs: cache::jobs_from_env(), config }
    }

    /// Generates the deduplicated corpus: walks the seed's program
    /// stream, keeps the first occurrence of each structural hash,
    /// stops at `budget` distinct programs. Returns the corpus and the
    /// pre-dedup generation count.
    pub fn corpus(&self) -> (Vec<ProgramSpec>, usize) {
        let mut seen = HashSet::new();
        let mut corpus = Vec::with_capacity(self.budget);
        let mut attempts = 0usize;
        // 16× oversampling bounds the walk even under heavy collision.
        let cap = self.budget.saturating_mul(16).max(64);
        while corpus.len() < self.budget && attempts < cap {
            let spec = generate_nth(self.seed, attempts as u64);
            attempts += 1;
            if seen.insert(spec.structural_hash()) {
                corpus.push(spec);
            }
        }
        (corpus, attempts)
    }

    /// Runs the campaign: corpus generation, then the three-phase
    /// check for every program and the sweep for every fixed
    /// workload, fanned out across workers behind the crash-isolating
    /// supervisor (one breaker per first-loop class or workload).
    pub fn run(&self) -> CampaignReport {
        let (corpus, generated) = self.corpus();
        let workloads = fixed_workloads();
        let supervisor = Supervisor::new(cache::global(), SupervisorPolicy::default());
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Result<Outcome, RunError>)>> =
            Mutex::new(Vec::with_capacity(corpus.len() + workloads.len()));

        std::thread::scope(|scope| {
            for _ in 0..self.jobs.max(1) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let r = if let Some(spec) = corpus.get(i) {
                        supervisor.call(supervisor_name(spec), || {
                            Ok(Outcome::Program(run_program(spec, self.config)))
                        })
                    } else if let Some(&w) = workloads.get(i - corpus.len()) {
                        supervisor.call(w.describe(), || {
                            Ok(Outcome::Workload(run_workload(self.seed, w, self.config)))
                        })
                    } else {
                        break;
                    };
                    results.lock().unwrap_or_else(|e| e.into_inner()).push((i, r));
                });
            }
        });

        let mut results = results.into_inner().unwrap_or_else(|e| e.into_inner());
        results.sort_by_key(|(i, _)| *i);

        let mut report = CampaignReport {
            generated,
            programs: corpus.len(),
            duplicates: generated - corpus.len(),
            inconclusive: 0,
            infra_failures: 0,
            failures: Vec::new(),
            coverage: Coverage::full_vocabulary(),
            sites: SiteTable::default(),
        };
        for (i, r) in results {
            match r {
                Ok(Outcome::Program(outcome)) => {
                    report.inconclusive += outcome.inconclusive as u64;
                    report.coverage.fold(&corpus[i], &outcome);
                    if let Some(f) = outcome.failure {
                        report.failures.push((Subject::Program(corpus[i].clone()), f));
                    }
                }
                Ok(Outcome::Workload(outcome)) => {
                    report.sites.add(&outcome.sites);
                    if let Some((case, f)) = outcome.failure {
                        report.failures.push((Subject::Workload(case), f));
                    }
                }
                Err(_) => report.infra_failures += 1,
            }
        }
        report
    }
}

/// What one campaign task observed.
enum Outcome {
    Program(ProgramOutcome),
    Workload(WorkloadOutcome),
}

/// The supervisor breaker key for a program: the expected class of its
/// first loop, so a detector crash pattern isolates by class instead
/// of one global breaker silencing the whole campaign.
fn supervisor_name(spec: &ProgramSpec) -> &'static str {
    spec.loops.first().map(|l| l.shape.expected_class().name()).unwrap_or("empty")
}

#[cfg(test)]
mod tests {
    use super::super::spec::LoopSpec;
    use super::*;

    #[test]
    fn failure_kinds_round_trip() {
        for f in ForgeFailure::ALL {
            assert_eq!(ForgeFailure::by_kind(f.kind()), Some(f));
        }
        assert_eq!(ForgeFailure::by_kind("no-such-kind"), None);
    }

    #[test]
    fn a_single_clean_program_passes_all_three_phases() {
        let spec = ProgramSpec { seed: 11, loops: vec![LoopSpec::minimal()] };
        let out = run_program(&spec, DsaConfig::full());
        assert_eq!(out.failure, None, "minimal count loop must be clean");
        assert!(out.classified.contains(&"count"), "classified: {:?}", out.classified);
        assert!(out.vectorized.contains(&"count"), "vectorized: {:?}", out.vectorized);
    }

    #[test]
    fn the_planted_restore_bug_is_caught_by_the_resume_phase() {
        // Trip 256 keeps the run well past kill_at(11) = 71 commits,
        // so the snapshot→restore leg is guaranteed to execute.
        let spec = ProgramSpec {
            seed: 11,
            loops: vec![LoopSpec { trip: 256, ..LoopSpec::minimal() }],
        };
        assert_eq!(observe(&spec, None), None);
        assert_eq!(
            observe(&spec, Some(TestBug::CorruptRestore)),
            Some(ForgeFailure::ResumeMismatch),
            "the planted bug must surface exactly in the resume phase"
        );
    }

    #[test]
    fn a_small_campaign_runs_clean_with_full_coverage() {
        // 48 programs is the smallest corpus that reliably covers all
        // eight classes (the gen tests pin the stream's class density).
        let c = Campaign { seed: 0, budget: 48, jobs: 4, config: DsaConfig::full() };
        let report = c.run();
        assert!(
            report.clean(),
            "campaign must be clean, got failures {:?} ({} infra)",
            report.failures,
            report.infra_failures,
        );
        assert_eq!(report.programs, 48);
        assert!(report.duplicates < report.generated);
        assert!(report.coverage.complete(), "coverage:\n{}", report.coverage.render());
        assert!(report.sites.silent().is_empty(), "sites:\n{}", report.sites.render());
    }

    #[test]
    fn an_injected_bug_campaign_reports_resume_failures() {
        let config = DsaConfig::full().with_test_bug(TestBug::CorruptRestore);
        let c = Campaign { seed: 1, budget: 8, jobs: 2, config };
        let report = c.run();
        assert!(
            report.failures.iter().any(|(_, f)| *f == ForgeFailure::ResumeMismatch),
            "planted bug must produce resume mismatches, got {:?}",
            report.failures.iter().map(|(_, f)| f.kind()).collect::<Vec<_>>()
        );
    }
}
