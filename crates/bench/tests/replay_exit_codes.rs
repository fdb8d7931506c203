//! Pins the replay exit-code contract of `forge --replay`, for both
//! reproducer subjects (a generated program, a fixed-workload check).
//! CI scripts branch on these codes (reproduced vs stale vs rotten
//! artifact), so a renumbering is a breaking change and must fail here
//! first.
//!
//! | code | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | behaves as recorded                                      |
//! | 1    | unexpected live divergence                               |
//! | 2    | usage error                                              |
//! | 3    | stale reproducer (recorded failure no longer reproduces) |
//! | 4    | unreadable / malformed artifact                          |

use std::path::PathBuf;
use std::process::Command;

use dsa_bench::cache::Workload;
use dsa_bench::forge::{LoopSpec, Phase, ProgramSpec, Subject, WorkloadCase};
use dsa_core::{FaultSite, TestBug};
use dsa_workloads::micro::Micro;

/// Writes `text` to a fresh file under the target tmpdir and returns
/// its path.
fn artifact(name: &str, text: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn forge(args: &[&str]) -> i32 {
    let bin = env!("CARGO_BIN_EXE_forge");
    let out = Command::new(bin).args(args).output().unwrap();
    out.status.code().unwrap_or_else(|| panic!("{bin} killed by signal"))
}

/// The sentinel microkernel's resume check: killed mid-run on every
/// seed, so the planted restore bug fires when armed.
fn resume_case() -> Subject {
    Subject::Workload(WorkloadCase {
        seed: 1,
        workload: Workload::Micro(Micro::Sentinel),
        phase: Phase::Resume,
    })
}

#[test]
fn workload_as_recorded_exits_0() {
    // A clean fault-sweep check that stays clean...
    let clean = Subject::Workload(WorkloadCase {
        seed: 1,
        workload: Workload::Micro(Micro::Sentinel),
        phase: Phase::Fault(Some(FaultSite::LieSentinelTrip)),
    });
    let path = artifact("workload-clean.json", &clean.to_json(None, None));
    assert_eq!(forge(&["--replay", path.to_str().unwrap()]), 0);
    // ...and a planted-bug reproducer that still reproduces.
    let repro = artifact(
        "workload-repro.json",
        &resume_case().to_json(Some("resume-mismatch"), Some(TestBug::CorruptRestore)),
    );
    assert_eq!(forge(&["--replay", repro.to_str().unwrap()]), 0);
}

#[test]
fn workload_unexpected_live_divergence_exits_1() {
    let path = artifact(
        "workload-lying-clean.json",
        &resume_case().to_json(None, Some(TestBug::CorruptRestore)),
    );
    assert_eq!(forge(&["--replay", path.to_str().unwrap()]), 1);
}

#[test]
fn workload_stale_reproducer_exits_3() {
    let path =
        artifact("workload-stale.json", &resume_case().to_json(Some("resume-mismatch"), None));
    assert_eq!(forge(&["--replay", path.to_str().unwrap()]), 3);
}

#[test]
fn workload_malformed_artifact_exits_4() {
    let good = resume_case().to_json(None, None);
    for (name, text) in [
        ("workload-truncated.json", good[..good.len() / 2].to_string()),
        ("workload-unknown.json", good.replace("sentinel", "no-such-workload")),
        ("workload-bad-phase.json", good.replace("\"resume\"", "\"warp\"")),
        ("workload-bad-site.json", good.replace("\"site\":null", "\"site\":\"no-such-site\"")),
    ] {
        let path = artifact(name, &text);
        assert_eq!(forge(&["--replay", path.to_str().unwrap()]), 4, "{text}");
    }
}

/// A one-loop program long enough that its seed-derived kill point
/// lands mid-run, so the resume phase really restores (the planted
/// restore bug fires if armed).
fn long_spec() -> ProgramSpec {
    let mut spec =
        ProgramSpec { seed: 11, loops: vec![LoopSpec { trip: 256, ..LoopSpec::minimal() }] };
    spec.canonicalize();
    spec
}

#[test]
fn forge_as_recorded_exits_0() {
    // A clean artifact that stays clean...
    let clean = artifact("forge-clean.json", &long_spec().to_json(None, None));
    assert_eq!(forge(&["--replay", clean.to_str().unwrap()]), 0);
    // ...and a planted-bug reproducer that still reproduces.
    let repro = artifact(
        "forge-repro.json",
        &long_spec().to_json(Some("resume-mismatch"), Some(TestBug::CorruptRestore)),
    );
    assert_eq!(forge(&["--replay", repro.to_str().unwrap()]), 0);
}

#[test]
fn forge_unexpected_live_divergence_exits_1() {
    // The artifact claims to be clean but arms the planted bug: the
    // live replay diverges where the record says it should not.
    let path = artifact(
        "forge-lying-clean.json",
        &long_spec().to_json(None, Some(TestBug::CorruptRestore)),
    );
    assert_eq!(forge(&["--replay", path.to_str().unwrap()]), 1);
}

#[test]
fn forge_stale_reproducer_exits_3() {
    // Records a failure with no bug armed; today's detector passes.
    let path =
        artifact("forge-stale.json", &long_spec().to_json(Some("resume-mismatch"), None));
    assert_eq!(forge(&["--replay", path.to_str().unwrap()]), 3);
}

#[test]
fn forge_malformed_artifact_exits_4() {
    let path = artifact("forge-garbage.json", "not json at all");
    assert_eq!(forge(&["--replay", path.to_str().unwrap()]), 4);
    assert_eq!(forge(&["--replay", "/no/such/forge.json"]), 4);
}

#[test]
fn bad_usage_exits_2() {
    assert_eq!(forge(&["--no-such-flag"]), 2);
    assert_eq!(forge(&["--inject-bug", "no-such-bug"]), 2);
}
