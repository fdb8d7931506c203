//! The differential campaign: every generated program runs
//! three oracle phases, in parallel across `DSA_JOBS` workers, with
//! per-loop-class coverage folded from the trace stream. Beside the
//! generated corpus, each campaign seed also sweeps the eight fixed
//! workloads through the per-site fault checks ([`super::workload`]).
//!
//! The three phases share one scalar [`Reference`]: the program runs
//! scalar-only once, and each phase simulates only its DSA-attached
//! runs and compares them with it. A program costs one scalar run and
//! three DSA runs: clean, faulted, and the interrupted run split across
//! its snapshot. The clean run is also the resume phase's uninterrupted
//! run, since both run under the same configuration. Every run is a
//! sibling of the reference's simulator, so the program is predecoded
//! once, and a run that matches the reference is compared state for
//! state and never hashed: the reference's final state is the only one
//! digested.
//!
//! The phases, and what each one can catch:
//!
//! 1. **Clean** — [`DifferentialOracle::check_against`] with a sink
//!    of the loop-class events attached: liveness (the DSA must never
//!    prevent a program from halting), poison correctness (a degraded
//!    run must still match), and the per-class coverage signal.
//! 2. **Faulted** — the same check under a seed-derived
//!    [`FaultSchedule`]: injected detector faults must degrade, never
//!    diverge or wedge.
//! 3. **Resume** — [`DifferentialOracle::resume_against`] with a
//!    seed-derived kill point: the kill→snapshot→restore→resume path
//!    must reach the bit-identical final state. This is the phase with
//!    real architectural teeth — vectorization itself is timing
//!    substitution, but restore rebuilds machine state from the DSA's
//!    own serialization — and it is the phase that catches the planted
//!    [`TestBug::CorruptRestore`](dsa_core::TestBug).
//!
//! [`Reference`]: dsa_core::Reference
//! [`DifferentialOracle::check_against`]: DifferentialOracle::check_against
//! [`DifferentialOracle::resume_against`]: DifferentialOracle::resume_against

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dsa_core::{
    DifferentialOracle, Dsa, DsaConfig, FaultSchedule, LoopClass, OracleVerdict, TestBug,
};
use dsa_trace::{Event, Shared, TraceSink};

use crate::cache::{self, fixed_workloads};
use crate::{isolate, render_table};

use super::gen::generate_nth;
use super::lower::lower;
use super::spec::{
    parse_artifact, parse_bug, parse_failure, push_outcome, ProgramSpec, FORGE_SCHEMA,
};
use super::workload::{run_workload, SiteTable, WorkloadCase};

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
    /// Resume phase: the resumed run diverged. (The uninterrupted run
    /// is the clean phase's.)
    ResumeMismatch,
    /// Resume phase: the interrupted run failed or a self-made snapshot
    /// refused to restore.
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
    /// Loop classes the DSA classified, from the clean phase's trace
    /// stream.
    pub classified: Vec<LoopClass>,
    /// Loop classes the DSA actually vectorized.
    pub vectorized: Vec<LoopClass>,
}

/// Runs one program's three phases under `config`, all against one
/// scalar reference run: five simulators, one predecode and, when every
/// phase matches, one `arch_digest`. Never panics on a well-formed
/// spec; lowering panics on malformed specs are the caller's concern
/// ([`isolate`]).
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

    // One scalar reference serves all three phases.
    let reference = oracle.reference(&prog.kernel.program, prog.init());

    // Phase 1: clean differential check, with coverage folding.
    let sink = Shared::new(ClassSink::default());
    let mut dsa = Dsa::new(config);
    dsa.attach_sink(sink.clone());
    let clean = oracle.check_against(&reference, &mut dsa, prog.init());
    (out.classified, out.vectorized) =
        sink.with(|c| (std::mem::take(&mut c.classified), std::mem::take(&mut c.vectorized)));
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
    let fr = oracle.check_against(&reference, &mut faulted, prog.init());
    match grade(&fr.verdict, (ForgeFailure::FaultMismatch, ForgeFailure::FaultDsaFailed)) {
        Ok(inconclusive) => out.inconclusive += u32::from(inconclusive),
        Err(f) => {
            out.failure = Some(f);
            return out;
        }
    }

    // Phase 3: kill → snapshot → restore → resume, bit-compared.
    let rr = oracle.resume_against(&reference, config, prog.init(), kill_at(spec.seed));
    match grade(&rr.verdict, (ForgeFailure::ResumeMismatch, ForgeFailure::ResumeDsaFailed)) {
        Ok(inconclusive) => out.inconclusive += u32::from(inconclusive),
        Err(f) => out.failure = Some(f),
    }
    out
}

/// The clean phase's coverage sink: the classes of the loops the DSA
/// classified and vectorized, in emission order. It keeps nothing else
/// of the event stream.
#[derive(Default)]
struct ClassSink {
    classified: Vec<LoopClass>,
    vectorized: Vec<LoopClass>,
}

impl TraceSink for ClassSink {
    fn record(&mut self, ev: &Event) {
        match *ev {
            Event::LoopClassified { class, .. } => self.classified.push(class),
            Event::LoopVectorized { class, .. } => self.vectorized.push(class),
            _ => {}
        }
    }
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

/// Per-loop-class coverage: generated × detected × vectorized, one row
/// per class.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    rows: [CovRow; LoopClass::ALL.len()],
}

impl Coverage {
    /// Every census class at zero, so the report always shows the full
    /// vocabulary (a silent zero row is the finding, not a formatting
    /// accident).
    pub fn full_vocabulary() -> Coverage {
        Coverage::default()
    }

    /// Folds one program's generation + outcome into the report.
    pub fn fold(&mut self, spec: &ProgramSpec, outcome: &ProgramOutcome) {
        for l in &spec.loops {
            self.rows[l.shape.expected_class() as usize].generated += 1;
        }
        for &class in &outcome.classified {
            self.rows[class as usize].detected += 1;
        }
        for &class in &outcome.vectorized {
            self.rows[class as usize].vectorized += 1;
        }
    }

    /// The row for `class`.
    pub fn row(&self, class: LoopClass) -> CovRow {
        self.rows[class as usize]
    }

    /// Whether the corpus exercised every census class: each generated
    /// and detected, and each except `non-vectorizable` actually
    /// vectorized at least once.
    pub fn complete(&self) -> bool {
        LoopClass::CENSUS.iter().all(|&class| {
            let r = self.row(class);
            r.generated > 0
                && r.detected > 0
                && (class == LoopClass::NonVectorizable || r.vectorized > 0)
        })
    }

    /// Renders the coverage table, one census class a row, by name.
    pub fn render(&self) -> String {
        let mut classes = LoopClass::CENSUS.to_vec();
        classes.sort_by_key(|c| c.name());
        let rows: Vec<Vec<String>> = classes
            .into_iter()
            .map(|class| {
                let r = self.row(class);
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
    /// Tasks that panicked, caught at the crash boundary — harness
    /// faults, not detector verdicts.
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

    /// Renders the report of campaign `seed` as `forge` prints it: the
    /// counts line, the coverage table (with a note when the seed alone
    /// misses a class) and the fault-site table. The counts line names
    /// the worker count only when given `jobs`, since nothing else in
    /// the report depends on it.
    pub fn render(&self, seed: u64, jobs: Option<usize>) -> String {
        let jobs = jobs.map_or(String::new(), |j| format!("{j} jobs, "));
        let mut out = format!(
            "campaign seed {seed}: {} programs ({} generated, {} duplicates), \
             {jobs}{} inconclusive, {} infra failure(s), {} divergence(s)\n",
            self.programs,
            self.generated,
            self.duplicates,
            self.inconclusive,
            self.infra_failures,
            self.failures.len()
        );
        out.push_str(&self.coverage.render());
        if !self.coverage.complete() {
            out.push_str(&format!("note: seed {seed} alone does not cover all eight classes\n"));
        }
        out.push_str(&self.sites.render());
        out
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
        let mut walk = self.walk();
        let corpus = walk.by_ref().collect();
        (corpus, walk.attempts)
    }

    /// The corpus as a stream (see [`Campaign::corpus`]).
    fn walk(&self) -> CorpusWalk {
        CorpusWalk {
            seed: self.seed,
            budget: self.budget,
            // 16× oversampling bounds the walk even under heavy collision.
            cap: self.budget.saturating_mul(16).max(64),
            seen: HashSet::with_capacity(self.budget),
            attempts: 0,
        }
    }

    /// Runs the campaign: the three-phase check for every corpus
    /// program and the sweep for every fixed workload, fanned out
    /// across workers. Programs are generated as workers take them and
    /// each outcome is folded into the report as it arrives, so a
    /// campaign holds no per-program state beyond the dedup set. Each
    /// task runs once inside the crash boundary ([`isolate`]); a panic
    /// counts as an infra failure.
    pub fn run(&self) -> CampaignReport {
        let walk = Mutex::new(self.walk());
        let workloads = fixed_workloads();
        let next_workload = AtomicUsize::new(0);
        let tally = Mutex::new(Tally {
            inconclusive: 0,
            infra_failures: 0,
            failures: Vec::new(),
            coverage: Coverage::full_vocabulary(),
            sites: SiteTable::default(),
        });

        std::thread::scope(|scope| {
            for _ in 0..self.jobs.max(1) {
                scope.spawn(|| loop {
                    let program = {
                        let mut w = walk.lock().unwrap_or_else(|e| e.into_inner());
                        w.next().map(|spec| (w.seen.len() - 1, spec))
                    };
                    if let Some((i, spec)) = program {
                        let r = isolate("generated program", || Ok(run_program(&spec, self.config)));
                        let mut t = tally.lock().unwrap_or_else(|e| e.into_inner());
                        match r {
                            Ok(outcome) => {
                                t.inconclusive += outcome.inconclusive as u64;
                                t.coverage.fold(&spec, &outcome);
                                if let Some(f) = outcome.failure {
                                    t.failures.push(((0, i), Subject::Program(spec), f));
                                }
                            }
                            Err(_) => t.infra_failures += 1,
                        }
                        continue;
                    }
                    let j = next_workload.fetch_add(1, Ordering::Relaxed);
                    let Some(&w) = workloads.get(j) else { break };
                    let r = isolate(w.describe(), || Ok(run_workload(self.seed, w, self.config)));
                    let mut t = tally.lock().unwrap_or_else(|e| e.into_inner());
                    match r {
                        Ok(outcome) => {
                            t.sites.add(&outcome.sites);
                            if let Some((case, f)) = outcome.failure {
                                t.failures.push(((1, j), Subject::Workload(case), f));
                            }
                        }
                        Err(_) => t.infra_failures += 1,
                    }
                });
            }
        });

        let walk = walk.into_inner().unwrap_or_else(|e| e.into_inner());
        let programs = walk.seen.len();
        let mut t = tally.into_inner().unwrap_or_else(|e| e.into_inner());
        t.failures.sort_by_key(|(order, _, _)| *order);
        CampaignReport {
            generated: walk.attempts,
            programs,
            duplicates: walk.attempts - programs,
            inconclusive: t.inconclusive,
            infra_failures: t.infra_failures,
            failures: t.failures.into_iter().map(|(_, subject, f)| (subject, f)).collect(),
            coverage: t.coverage,
            sites: t.sites,
        }
    }
}

/// The seed's deduplicated program stream: [`generate_nth`] in order,
/// keeping the first program of each structural hash, until `budget`
/// distinct programs or `cap` attempts.
struct CorpusWalk {
    seed: u64,
    budget: usize,
    cap: usize,
    /// Structural hashes of the programs yielded so far.
    seen: HashSet<u64>,
    /// Programs generated so far, duplicates included.
    attempts: usize,
}

impl Iterator for CorpusWalk {
    type Item = ProgramSpec;

    fn next(&mut self) -> Option<ProgramSpec> {
        while self.seen.len() < self.budget && self.attempts < self.cap {
            let spec = generate_nth(self.seed, self.attempts as u64);
            self.attempts += 1;
            if self.seen.insert(spec.structural_hash()) {
                return Some(spec);
            }
        }
        None
    }
}

/// A running campaign's folded results. Failures carry their order in
/// the report: programs by corpus index, then workloads by sweep index.
struct Tally {
    inconclusive: u64,
    infra_failures: u64,
    failures: Vec<((u8, usize), Subject, ForgeFailure)>,
    coverage: Coverage,
    sites: SiteTable,
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
        assert!(out.classified.contains(&LoopClass::Count), "classified: {:?}", out.classified);
        assert!(out.vectorized.contains(&LoopClass::Count), "vectorized: {:?}", out.vectorized);
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
