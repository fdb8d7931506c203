//! The acceptance gate for crash-consistent snapshots: for **all eight
//! fixed workloads** (the seven paper applications plus the sentinel
//! microkernel), a run killed mid-flight, snapshotted, restored and
//! resumed must be architecturally bit-identical to both the scalar
//! reference and the uninterrupted DSA run — memory, registers, flags
//! and output checksums (cycle counts are timing, not architecture,
//! and are exempt by design).

use dsa_bench::cache::{fixed_workloads, Workload};
use dsa_bench::System;
use dsa_core::oracle::DifferentialOracle;
use dsa_core::DsaConfig;
use dsa_cpu::{
    BoundedOutcome, CpuConfig, DecodedProgram, Machine, NullHook, Simulator, Stepped,
};
use dsa_workloads::{BuiltWorkload, Scale};

const FUEL: u64 = 200_000_000;

fn built(workload: Workload) -> BuiltWorkload {
    workload.build(System::Original, Scale::Small)
}

/// Finds a commit count `>= after` at which the (stepped) run sits
/// strictly *inside* a static straight-line fast block — the worst-case
/// kill point for the superblock interpreter, which must refuse to split
/// the block and pause exactly there instead.
fn mid_block_split(w: &BuiltWorkload, after: u64) -> Option<u64> {
    let decoded = DecodedProgram::decode(&w.kernel.program);
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for committed in 0..(after + 100_000) {
        let pc = sim.machine().pc();
        let here = decoded.run_len(pc);
        // Inside a block: this pc continues a fast run begun at pc-1.
        let mid_block = here > 0
            && pc > 0
            && decoded.run_len(pc.wrapping_sub(1)) == here + 1;
        if committed >= after && mid_block {
            return Some(committed);
        }
        match sim.run_bounded(1, &mut Stepped(NullHook)).expect("steps") {
            BoundedOutcome::Paused => {}
            BoundedOutcome::Halted(_) => return None,
        }
    }
    None
}

#[test]
fn resume_is_bit_identical_across_all_eight_workloads() {
    let oracle = DifferentialOracle::new(FUEL);
    let splits = [300u64, 4_000];
    for workload in fixed_workloads() {
        let w = built(workload);
        for split in splits {
            let report = oracle.check_resume(
                &w.kernel.program,
                DsaConfig::full(),
                |m| (w.init)(m),
                split,
            );
            assert!(
                report.holds(),
                "{} split {split}: {report}",
                workload.describe()
            );
        }
    }
}

/// Kill-mid-block case for the superblock fast path: the split is
/// chosen to land strictly inside a static straight-line block. A
/// block-mode (`NullHook`) bounded run must pause on the *exact* commit
/// count anyway (it falls back to stepping rather than split a block),
/// its snapshot must restore and complete to the step-mode reference
/// state bit for bit, and the full DSA `check_resume` harness must hold
/// at the same split.
#[test]
fn kill_mid_block_snapshots_stay_bit_identical() {
    let oracle = DifferentialOracle::new(FUEL);
    for workload in fixed_workloads() {
        let w = built(workload);
        let Some(split) = mid_block_split(&w, 250) else {
            panic!("{}: no mid-block kill point found", workload.describe());
        };

        // Step-mode reference, uninterrupted.
        let mut reference = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
        (w.init)(reference.machine_mut());
        reference.run_with_hook(FUEL, &mut Stepped(NullHook)).expect("reference terminates");

        // Block-mode run killed at the mid-block split.
        let mut first = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
        (w.init)(first.machine_mut());
        let paused = first.run_bounded(split, &mut NullHook).expect("no exec error");
        assert!(
            matches!(paused, BoundedOutcome::Paused),
            "{}: split {split} inside the run",
            workload.describe()
        );
        assert_eq!(
            first.outcome().committed,
            split,
            "{}: block mode pauses on the exact commit",
            workload.describe()
        );
        let state = first.machine().capture();
        drop(first);

        // Restore and complete in block mode.
        let mut second = Simulator::with_machine(
            w.kernel.program.clone(),
            CpuConfig::default(),
            Machine::restore(&state),
        );
        let done = second.run_bounded(FUEL, &mut NullHook).expect("resumes");
        assert!(matches!(done, BoundedOutcome::Halted(_)), "{}", workload.describe());
        assert_eq!(
            second.machine().arch_digest(),
            reference.machine().arch_digest(),
            "{}: resumed block-mode state equals step-mode reference",
            workload.describe()
        );

        // The full snapshot wire-format + DSA harness at the same split.
        let report = oracle.check_resume(
            &w.kernel.program,
            DsaConfig::full(),
            |m| (w.init)(m),
            split,
        );
        assert!(report.holds(), "{} split {split}: {report}", workload.describe());
    }
}
