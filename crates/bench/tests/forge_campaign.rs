//! End-to-end acceptance tests for the forge harness:
//!
//! 1. [`DifferentialOracle::check_resume`] holds on *generated*
//!    programs (not just the hand-written workloads the resume oracle
//!    was first proven on) across a spread of kill points.
//! 2. A campaign with the planted restore bug armed catches it, and
//!    ddmin shrinks the failing program to a reproducer of at most two
//!    loops whose artifact round-trips and still reproduces.
//! 3. The fixed-workload source fires every fault site in one seed and
//!    catches the planted bug on a workload subject too.
//! 4. `run_program`, which shares one reference, one predecode and the
//!    clean run across its phases, reports what the one-shot oracle
//!    calls report phase by phase.

use dsa_bench::forge::campaign::{fault_schedule, kill_at, observe, run_program, FORGE_FUEL};
use dsa_bench::forge::{
    generate_nth, lower, shrink_program, Campaign, ForgeFailure, Phase, ProgramSpec, Subject,
};
use dsa_core::{DifferentialOracle, Dsa, DsaConfig, OracleVerdict, TestBug};
use dsa_trace::{Collector, Event, LoopClass, Shared};

/// Satellite: the kill→snapshot→restore→resume differential check must
/// hold on generated programs, whose shapes (multi-loop sequences,
/// raw-asm nests, sentinel scans, gathers) never appear in the
/// workload suite the resume oracle was developed against.
#[test]
fn check_resume_holds_on_generated_programs() {
    let oracle = DifferentialOracle::new(FORGE_FUEL);
    for i in 0..12 {
        let spec = generate_nth(3, i);
        let prog = lower(&spec);
        for split in [1, 60, 350, 2_000] {
            let report = oracle.check_resume(
                &prog.kernel.program,
                DsaConfig::full(),
                prog.init(),
                split,
            );
            assert!(
                report.holds() || report.inconclusive(),
                "spec {i} (seed {}) split {split}: {report}",
                spec.seed
            );
        }
    }
}

/// The acceptance path, in-process: arm the planted bug, run a
/// campaign, shrink the first failure, and hold the shrunk reproducer
/// to the issue's bar (≤ 2 loops, still reproducing, artifact
/// round-trips byte-exactly).
#[test]
fn planted_bug_is_caught_and_shrinks_to_a_tiny_reproducer() {
    let bug = Some(TestBug::CorruptRestore);
    let config = DsaConfig::full().with_test_bug(TestBug::CorruptRestore);
    let campaign = Campaign { seed: 1, budget: 64, jobs: 2, config };
    let report = campaign.run();
    assert!(!report.failures.is_empty(), "the planted bug must be caught");
    assert_eq!(report.infra_failures, 0);
    for (_, f) in &report.failures {
        assert_eq!(*f, ForgeFailure::ResumeMismatch, "only the resume phase can see it");
    }

    let Some((Subject::Program(spec), failure)) = report.failures.first() else {
        panic!("programs come first in the failure list: {:?}", report.failures);
    };
    let (min, _) = shrink_program(spec, |p| observe(p, bug) == Some(*failure));
    assert!(min.loops.len() <= 2, "reproducer must shrink to ≤ 2 loops, got {min:?}");
    assert_eq!(observe(&min, bug), Some(*failure), "shrunk spec must still reproduce");
    // The minimal program must still outlive its kill point, or the
    // restore leg (and with it the bug) would never execute.
    assert!(kill_at(min.seed) > 0);

    // Artifact round-trip: parse(bytes) → identical spec and bug.
    let artifact = min.to_json(Some(failure.kind()), bug);
    let (back, back_bug, recorded) = Subject::from_json(&artifact).unwrap();
    assert_eq!(back, Subject::Program(min));
    assert_eq!(back_bug, bug);
    assert_eq!(recorded.as_deref(), Some(failure.kind()));
    assert_eq!(back.to_json(Some(failure.kind()), back_bug), artifact);
}

/// The committed corpus must keep reproducing: every artifact under
/// `corpus/regressions/` replays to its recorded failure with its
/// recorded bug armed (the in-process mirror of `forge --replay`,
/// so a stale commit fails `cargo test` too, not just CI's job).
#[test]
fn committed_reproducers_still_reproduce() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/regressions");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("corpus/regressions must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let (subject, bug, recorded) =
            Subject::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let live = subject.observe(bug).map(|f| f.kind().to_string());
        assert_eq!(live, recorded, "{path:?} no longer behaves as recorded");
        checked += 1;
    }
    assert!(checked >= 1, "the committed corpus must not be empty");
}

/// The fixed-workload source: one seed's sweep fires every fault site
/// (the sentinel's persistent engine is what reaches
/// `lie-sentinel-trip`), and the planted restore bug is caught on a
/// workload subject whose artifact round-trips and replays.
#[test]
fn workload_source_fires_every_site_and_catches_the_planted_bug() {
    let clean = Campaign { seed: 1, budget: 1, jobs: 2, config: DsaConfig::full() }.run();
    assert!(clean.clean(), "failures {:?} ({} infra)", clean.failures, clean.infra_failures);
    assert!(clean.sites.silent().is_empty(), "sites:\n{}", clean.sites.render());
    // Seven applications plus three sentinel entrances per plan.
    assert_eq!(clean.sites.row(None).checks, 10);

    let bug = Some(TestBug::CorruptRestore);
    let config = DsaConfig::full().with_test_bug(TestBug::CorruptRestore);
    let report = Campaign { seed: 1, budget: 1, jobs: 2, config }.run();
    let (case, failure) = report
        .failures
        .iter()
        .find_map(|(s, f)| match s {
            Subject::Workload(case) => Some((*case, *f)),
            Subject::Program(_) => None,
        })
        .expect("a workload resume check must catch the planted bug");
    assert_eq!(case.phase, Phase::Resume);
    assert_eq!(failure, ForgeFailure::ResumeMismatch);

    let subject = Subject::Workload(case);
    let artifact = subject.to_json(Some(failure.kind()), bug);
    let (back, back_bug, recorded) = Subject::from_json(&artifact).unwrap();
    assert_eq!(back, subject);
    assert_eq!(back_bug, bug);
    assert_eq!(recorded.as_deref(), Some(failure.kind()));
    assert_eq!(back.to_json(Some(failure.kind()), back_bug), artifact);
    assert_eq!(back.observe(bug), Some(failure));
    assert_eq!(back.observe(None), None);
}

/// What `run_program` reports for `spec`, rebuilt from the one-shot
/// oracle calls, each with its own scalar reference and its own
/// predecode: `check_with` with a `Collector` attached, `check_with`
/// under the program's fault schedule, and `check_resume`, which also
/// checks the uninterrupted run.
fn one_shot(
    spec: &ProgramSpec,
    config: DsaConfig,
) -> (Option<ForgeFailure>, u32, [Vec<LoopClass>; 2]) {
    let prog = lower(spec);
    let program = &prog.kernel.program;
    let oracle = DifferentialOracle::new(FORGE_FUEL);
    let sink = Shared::new(Collector::new());
    let mut clean = Dsa::new(config);
    clean.attach_sink(sink.clone());
    let mut faulted = Dsa::new(config);
    faulted.arm_schedule(fault_schedule(spec.seed));
    let phases = [
        (
            oracle.check_with(program, &mut clean, prog.init()),
            (ForgeFailure::CleanMismatch, ForgeFailure::CleanDsaFailed),
        ),
        (
            oracle.check_with(program, &mut faulted, prog.init()),
            (ForgeFailure::FaultMismatch, ForgeFailure::FaultDsaFailed),
        ),
        (
            oracle.check_resume(program, config, prog.init(), kill_at(spec.seed)),
            (ForgeFailure::ResumeMismatch, ForgeFailure::ResumeDsaFailed),
        ),
    ];
    let mut classes = [Vec::new(), Vec::new()];
    sink.with(|c| {
        for ev in &c.events {
            match *ev {
                Event::LoopClassified { class, .. } => classes[0].push(class),
                Event::LoopVectorized { class, .. } => classes[1].push(class),
                _ => {}
            }
        }
    });
    let mut inconclusive = 0;
    for (report, (mismatch, dsa_failed)) in phases {
        let failure = match report.verdict {
            OracleVerdict::Match => None,
            OracleVerdict::Inconclusive(_) => {
                inconclusive += 1;
                None
            }
            OracleVerdict::Mismatch { .. } => Some(mismatch),
            OracleVerdict::DsaFailed(_) => Some(dsa_failed),
            OracleVerdict::ScalarFailed(_) => Some(ForgeFailure::ScalarFailed),
        };
        if failure.is_some() {
            return (failure, inconclusive, classes);
        }
    }
    (None, inconclusive, classes)
}

/// `run_program` against [`one_shot`] on the first 64 corpus programs
/// of two seeds, clean and with the planted restore bug armed: the same
/// failure, the same inconclusive count and the same class multisets.
/// The planted bug is still caught as a resume mismatch.
#[test]
fn run_program_reports_what_the_one_shot_oracle_reports() {
    let buggy = DsaConfig::full().with_test_bug(TestBug::CorruptRestore);
    let mut caught = 0;
    for seed in [7, 11] {
        let campaign = Campaign { seed, budget: 64, jobs: 1, config: DsaConfig::full() };
        let (corpus, _) = campaign.corpus();
        assert_eq!(corpus.len(), 64);
        for (i, spec) in corpus.iter().enumerate() {
            for config in [DsaConfig::full(), buggy] {
                let out = run_program(spec, config);
                let (failure, inconclusive, [mut classified, mut vectorized]) =
                    one_shot(spec, config);
                let what = format!("seed {seed} program {i} under {config:?}");
                assert_eq!(out.failure, failure, "{what}");
                assert_eq!(out.inconclusive, inconclusive, "{what}");
                let (mut got_classified, mut got_vectorized) = (out.classified, out.vectorized);
                for v in
                    [&mut classified, &mut vectorized, &mut got_classified, &mut got_vectorized]
                {
                    v.sort_unstable();
                }
                assert_eq!(got_classified, classified, "{what}");
                assert_eq!(got_vectorized, vectorized, "{what}");
                if config == buggy {
                    caught += usize::from(out.failure == Some(ForgeFailure::ResumeMismatch));
                } else {
                    assert_eq!(out.failure, None, "{what}");
                }
            }
        }
    }
    assert!(caught > 0, "the planted restore bug must surface as resume-mismatch");
}
