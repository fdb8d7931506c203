//! The campaign's second corpus source: the eight fixed workloads (the
//! seven paper applications plus the `sentinel` microkernel, at
//! [`Scale::Small`]).
//!
//! For each campaign seed, every workload runs a sweep of oracle
//! checks, one [`WorkloadCase`] per [`Phase`]:
//!
//! 1. **Clean** — the plain differential check.
//! 2. **Fault** — the per-site sweep: [`FaultPlan::all`] once, then
//!    [`FaultPlan::only`] for each of the five [`FaultSite`]s, all
//!    seeded by the campaign seed. Firings, degradations and
//!    poisonings fold into a [`SiteTable`].
//! 3. **Resume** — one [`check_resume`] at a seed-derived kill point
//!    inside the workload's run ([`workload_kill_at`]), with
//!    [`FaultPlan::all`] armed on every engine, the restored one
//!    included.
//!
//! The sentinel microkernel runs its clean and fault checks as three
//! entrances through one persistent engine: the `lie-sentinel-trip`
//! site only fires at a DSA-executed sentinel exit, which needs the
//! loop's template cached from earlier entrances, and no cold engine
//! reaches that. This is the only campaign path that fires it.
//!
//! Unlike a generated program, a fixed workload must never end
//! inconclusive: each one halts well inside [`FUEL`], so a starved
//! scalar reference means the harness or simulator broke, and it is
//! reported as [`ForgeFailure::ScalarFailed`].
//!
//! A failing case is already minimal — one workload, one seed, one
//! phase, one site — so it is written as a reproducer unshrunk.
//!
//! [`check_resume`]: DifferentialOracle::check_resume

use dsa_core::{
    splitmix64, DifferentialOracle, Dsa, DsaConfig, FaultPlan, FaultSite, OracleVerdict,
};
use dsa_cpu::Simulator;
use dsa_trace::json::Value;
use dsa_workloads::{micro::Micro, BuiltWorkload, Scale};

use crate::cache::Workload;
use crate::{render_table, System, FUEL};

use super::campaign::{grade, ForgeFailure};

/// Which oracle check a [`WorkloadCase`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The clean differential check.
    Clean,
    /// The differential check under [`FaultPlan::all`] (`None`) or
    /// [`FaultPlan::only`] one site.
    Fault(Option<FaultSite>),
    /// Kill → snapshot → restore → resume at a seed-derived commit
    /// inside the workload's run, under [`FaultPlan::all`].
    Resume,
}

impl Phase {
    /// The sweep every workload runs per campaign seed, in order.
    fn sweep() -> impl Iterator<Item = Phase> {
        std::iter::once(Phase::Clean)
            .chain(std::iter::once(Phase::Fault(None)))
            .chain(FaultSite::ALL.into_iter().map(|s| Phase::Fault(Some(s))))
            .chain(std::iter::once(Phase::Resume))
    }

    /// Stable artifact name of the phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Clean => "clean",
            Phase::Fault(_) => "fault",
            Phase::Resume => "resume",
        }
    }

    /// Stable artifact name of the armed site: `all`, a site name, or
    /// `None` outside the fault phase.
    pub fn site_name(self) -> Option<&'static str> {
        match self {
            Phase::Fault(site) => Some(site.map_or("all", FaultSite::name)),
            Phase::Clean | Phase::Resume => None,
        }
    }

    fn by_names(phase: &str, site: Option<&str>) -> Option<Phase> {
        match (phase, site) {
            ("clean", None) => Some(Phase::Clean),
            ("resume", None) => Some(Phase::Resume),
            ("fault", Some("all")) => Some(Phase::Fault(None)),
            ("fault", Some(name)) => {
                FaultSite::ALL.into_iter().find(|s| s.name() == name).map(|s| Phase::Fault(Some(s)))
            }
            _ => None,
        }
    }

    /// The (mismatch, DSA-failed) failure kinds this phase reports.
    fn failures(self) -> (ForgeFailure, ForgeFailure) {
        match self {
            Phase::Clean => (ForgeFailure::CleanMismatch, ForgeFailure::CleanDsaFailed),
            Phase::Fault(_) => (ForgeFailure::FaultMismatch, ForgeFailure::FaultDsaFailed),
            Phase::Resume => (ForgeFailure::ResumeMismatch, ForgeFailure::ResumeDsaFailed),
        }
    }
}

/// The kill point of a workload's resume check: a commit derived from
/// the campaign seed, drawn from `1..committed` over the workload's own
/// run of `committed` instructions so that every seed pauses every
/// workload mid-run (`Scale::Small` runs are 2.5k–23k commits long).
fn workload_kill_at(seed: u64, committed: u64) -> u64 {
    let mut s = seed ^ 0x00c4_a05c_4a05_c4a0;
    1 + splitmix64(&mut s) % committed.saturating_sub(1).max(1)
}

/// Grades a fixed-workload verdict: like [`grade`], except that an
/// inconclusive (starved) reference fails, since every fixed workload
/// halts well inside [`FUEL`].
fn grade_workload(
    verdict: &OracleVerdict,
    failures: (ForgeFailure, ForgeFailure),
) -> Result<(), ForgeFailure> {
    match grade(verdict, failures)? {
        true => Err(ForgeFailure::ScalarFailed),
        false => Ok(()),
    }
}

/// One row of the fault-site table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteRow {
    /// Oracle checks run under this row's plan.
    pub checks: u64,
    /// Faults that fired.
    pub fired: u64,
    /// Degradations the engine took.
    pub degradations: u64,
    /// Engine poisonings.
    pub poisoned: u64,
}

/// Per-site totals of the workload fault sweep: row 0 is every site
/// armed at once (`all`), then one row per [`FaultSite::ALL`] entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteTable {
    rows: [SiteRow; 6],
}

impl SiteTable {
    fn index(site: Option<FaultSite>) -> usize {
        site.and_then(|s| FaultSite::ALL.iter().position(|&x| x == s)).map_or(0, |i| i + 1)
    }

    /// The row for `site` (`None`: the all-sites plan).
    pub fn row(&self, site: Option<FaultSite>) -> SiteRow {
        self.rows[Self::index(site)]
    }

    fn row_mut(&mut self, site: Option<FaultSite>) -> &mut SiteRow {
        &mut self.rows[Self::index(site)]
    }

    /// Adds `other`'s counts row by row.
    pub fn add(&mut self, other: &SiteTable) {
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            a.checks += b.checks;
            a.fired += b.fired;
            a.degradations += b.degradations;
            a.poisoned += b.poisoned;
        }
    }

    /// Single sites that never fired: each is a finding, since the
    /// sweep gives every site an injection opportunity on every seed.
    pub fn silent(&self) -> Vec<&'static str> {
        FaultSite::ALL
            .into_iter()
            .filter(|&s| self.row(Some(s)).fired == 0)
            .map(FaultSite::name)
            .collect()
    }

    /// Renders the fault-site table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = std::iter::once(None)
            .chain(FaultSite::ALL.into_iter().map(Some))
            .map(|site| {
                let r = self.row(site);
                vec![
                    site.map_or("all", FaultSite::name).to_string(),
                    r.checks.to_string(),
                    r.fired.to_string(),
                    r.degradations.to_string(),
                    r.poisoned.to_string(),
                ]
            })
            .collect();
        render_table(
            &["fault site", "oracle checks", "faults fired", "degradations", "poisoned"],
            &rows,
        )
    }
}

/// One fixed-workload oracle check: the subject of a workload
/// reproducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadCase {
    /// Campaign seed: seeds the fault plans and the kill point.
    pub seed: u64,
    /// Workload under test.
    pub workload: Workload,
    /// The check to run.
    pub phase: Phase,
}

impl WorkloadCase {
    /// Entrances through one engine for the clean and fault checks.
    fn entrances(&self) -> usize {
        if self.workload == Workload::Micro(Micro::Sentinel) {
            3
        } else {
            1
        }
    }

    /// Runs this check on `w` (this case's workload, built scalar at
    /// `Scale::Small`) under `config`, folding fault-phase counts into
    /// `sites`.
    fn check(
        &self,
        w: &BuiltWorkload,
        config: DsaConfig,
        sites: &mut SiteTable,
    ) -> Result<(), ForgeFailure> {
        let oracle = DifferentialOracle::new(FUEL);
        let failures = self.phase.failures();
        let site = match self.phase {
            Phase::Resume => {
                let mut sim = Simulator::new(w.kernel.program.clone(), oracle.cpu);
                (w.init)(sim.machine_mut());
                // A failing scalar run is reported by the oracle below.
                let committed = sim.run(FUEL).map_or(0, |o| o.committed);
                let split = workload_kill_at(self.seed, committed);
                let faulted = config.with_faults(FaultPlan::all(self.seed));
                let report = oracle.check_resume(&w.kernel.program, faulted, &w.init, split);
                return grade_workload(&report.verdict, failures);
            }
            Phase::Clean => None,
            Phase::Fault(site) => Some(site),
        };
        let config = match site {
            None => config,
            Some(None) => config.with_faults(FaultPlan::all(self.seed)),
            Some(Some(s)) => config.with_faults(FaultPlan::only(self.seed, s)),
        };
        let mut dsa = Dsa::new(config);
        let (mut checks, mut failure) = (0, None);
        for _ in 0..self.entrances() {
            let report = oracle.check_with(&w.kernel.program, &mut dsa, &w.init);
            checks += 1;
            if let Err(f) = grade_workload(&report.verdict, failures) {
                failure = Some(f);
                break;
            }
        }
        if let Some(site) = site {
            // Engine stats are cumulative across entrances: fold once.
            let s = dsa.stats();
            let row = sites.row_mut(site);
            row.checks += checks;
            row.fired += s.faults_injected;
            row.degradations += s.degradations;
            row.poisoned += s.poison_events;
        }
        failure.map_or(Ok(()), Err)
    }

    /// Runs this one check under `config` and reports its failure.
    pub(crate) fn failure(&self, config: DsaConfig) -> Option<ForgeFailure> {
        let w = self.workload.build(System::Original, Scale::Small);
        self.check(&w, config, &mut SiteTable::default()).err()
    }

    /// Appends this case's artifact fields (after the schema tag).
    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str(&format!(
            ",\"seed\":{},\"workload\":\"{}\",\"phase\":\"{}\"",
            self.seed,
            self.workload.describe(),
            self.phase.name()
        ));
        match self.phase.site_name() {
            Some(site) => out.push_str(&format!(",\"site\":\"{site}\"")),
            None => out.push_str(",\"site\":null"),
        }
    }

    /// Reads a case back from a parsed artifact.
    pub(crate) fn from_value(v: &Value) -> Result<WorkloadCase, String> {
        let seed = v.get("seed").and_then(Value::as_u64).ok_or("missing seed")?;
        let name = v.get("workload").and_then(Value::as_str).ok_or("missing workload")?;
        let workload = Workload::by_name(name).ok_or(format!("unknown workload `{name}`"))?;
        let phase_name = v.get("phase").and_then(Value::as_str).ok_or("missing phase")?;
        let site = match v.get("site") {
            Some(Value::Null) | None => None,
            Some(s) => Some(s.as_str().ok_or("`site` is neither null nor a string")?),
        };
        let phase = Phase::by_names(phase_name, site)
            .ok_or(format!("unknown phase `{phase_name}` with site {site:?}"))?;
        Ok(WorkloadCase { seed, workload, phase })
    }
}

/// What one workload's sweep observed.
#[derive(Debug, Clone)]
pub(crate) struct WorkloadOutcome {
    /// Fault-sweep tallies.
    pub sites: SiteTable,
    /// The first failing case, if any; the sweep stops there.
    pub failure: Option<(WorkloadCase, ForgeFailure)>,
}

/// Runs `workload`'s whole sweep for campaign `seed` under `config`.
pub(crate) fn run_workload(seed: u64, workload: Workload, config: DsaConfig) -> WorkloadOutcome {
    let w = workload.build(System::Original, Scale::Small);
    let mut out = WorkloadOutcome { sites: SiteTable::default(), failure: None };
    for phase in Phase::sweep() {
        let case = WorkloadCase { seed, workload, phase };
        if let Err(f) = case.check(&w, config, &mut out.sites) {
            out.failure = Some((case, f));
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::sweep() {
            assert_eq!(Phase::by_names(phase.name(), phase.site_name()), Some(phase));
        }
        assert_eq!(Phase::by_names("fault", None), None);
        assert_eq!(Phase::by_names("clean", Some("all")), None);
        assert_eq!(Phase::by_names("fault", Some("no-such-site")), None);
    }

    #[test]
    fn kill_points_spread_over_the_whole_run() {
        let splits: Vec<u64> = (0..64).map(|seed| workload_kill_at(seed, 10_000)).collect();
        assert!(splits.iter().all(|&k| (1..10_000).contains(&k)));
        assert!(splits.iter().any(|&k| k < 2_500) && splits.iter().any(|&k| k > 7_500));
        assert_eq!(workload_kill_at(7, 10_000), workload_kill_at(7, 10_000));
        assert_eq!(workload_kill_at(7, 0), 1);
        // The split is always strictly inside the run, so the resume
        // check pauses instead of finishing before it.
        for committed in 2..300 {
            assert!((0..64).all(|seed| workload_kill_at(seed, committed) < committed));
        }
    }

    #[test]
    fn the_resume_check_fires_faults_after_the_restore() {
        // Restored engines carry the first segment's stats, so faults
        // beyond those fired before the split came from the re-armed
        // plan on the restored engine.
        let oracle = DifferentialOracle::new(FUEL);
        let seed = 1;
        let config = DsaConfig::full().with_faults(FaultPlan::all(seed));
        let fired_after_restore = crate::cache::fixed_workloads().into_iter().any(|workload| {
            let w = workload.build(System::Original, Scale::Small);
            let mut sim = Simulator::new(w.kernel.program.clone(), oracle.cpu);
            (w.init)(sim.machine_mut());
            let split = workload_kill_at(seed, sim.run(FUEL).expect("halts").committed);
            let report = oracle.check_resume(&w.kernel.program, config, &w.init, split);
            assert_eq!(report.verdict, OracleVerdict::Match, "{}", workload.describe());
            let mut first = Simulator::new(w.kernel.program.clone(), oracle.cpu);
            (w.init)(first.machine_mut());
            let mut dsa = Dsa::new(config);
            first.run_bounded(split, &mut dsa).expect("pauses");
            report.stats.faults_injected > dsa.stats().faults_injected
        });
        assert!(fired_after_restore, "no workload fired a fault after its restore");
    }

    #[test]
    fn a_starved_reference_fails_a_workload_check() {
        let starved = OracleVerdict::Inconclusive(dsa_cpu::SimError::StepBudgetExceeded {
            pc: 0,
            steps: 0,
        });
        let failures = Phase::Clean.failures();
        assert_eq!(grade(&starved, failures), Ok(true));
        assert_eq!(grade_workload(&starved, failures), Err(ForgeFailure::ScalarFailed));
        assert_eq!(grade_workload(&OracleVerdict::Match, failures), Ok(()));
    }
}
