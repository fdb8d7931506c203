//! Cross-crate end-to-end tests: every workload under every system at
//! small scale, with golden-result checks and the paper's qualitative
//! orderings.

use dsa_suite::compiler::Variant;
use dsa_suite::core::{Dsa, DsaConfig};
use dsa_suite::cpu::CpuConfig;
use dsa_suite::workloads::{build, BuiltWorkload, Scale, WorkloadId};

fn run(w: &BuiltWorkload, dsa: Option<DsaConfig>) -> u64 {
    let mut sim = w.simulator(CpuConfig::default());
    let out = match dsa {
        Some(cfg) => {
            let mut hook = Dsa::new(cfg);
            sim.run_with_hook(200_000_000, &mut hook).expect("runs")
        }
        None => sim.run(200_000_000).expect("runs"),
    };
    assert!(out.halted, "must halt");
    assert!(w.check(sim.machine()), "golden check failed");
    out.cycles
}

#[test]
fn every_workload_correct_under_every_system() {
    for id in WorkloadId::all() {
        for variant in [Variant::Scalar, Variant::AutoVec, Variant::HandVec] {
            let w = build(id, variant, Scale::Small);
            run(&w, None);
        }
        let w = build(id, Variant::Scalar, Scale::Small);
        for cfg in [DsaConfig::original(), DsaConfig::extended(), DsaConfig::full()] {
            run(&w, Some(cfg));
        }
    }
}

#[test]
fn dsa_never_slows_down_non_vectorizable_code() {
    // QSort has no profitable loops: the DSA must be cycle-neutral.
    let w = build(WorkloadId::QSort, Variant::Scalar, Scale::Small);
    let plain = run(&w, None);
    let with_dsa = run(&w, Some(DsaConfig::full()));
    assert_eq!(plain, with_dsa, "parallel detection must not touch the critical path");
}

#[test]
fn dsa_generations_are_monotonic_on_dynamic_workloads() {
    // Each DSA generation covers strictly more of BitCounts.
    let w = build(WorkloadId::BitCounts, Variant::Scalar, Scale::Small);
    let orig = run(&w, Some(DsaConfig::original()));
    let ext = run(&w, Some(DsaConfig::extended()));
    let full = run(&w, Some(DsaConfig::full()));
    assert!(ext < orig, "extended DSA handles the conditional rounds: {ext} vs {orig}");
    assert!(full <= ext, "full DSA is a superset: {full} vs {ext}");
}

#[test]
fn dsa_beats_static_vectorization_on_conditional_workloads() {
    let susan_auto = run(&build(WorkloadId::SusanEdges, Variant::AutoVec, Scale::Small), None);
    let susan_dsa =
        run(&build(WorkloadId::SusanEdges, Variant::Scalar, Scale::Small), Some(DsaConfig::full()));
    assert!(
        susan_dsa < susan_auto,
        "conditional thresholding needs runtime speculation: {susan_dsa} vs {susan_auto}"
    );
}

#[test]
fn dsa_leaves_already_vectorized_binaries_alone() {
    // Attaching the DSA to a compiler-vectorized binary must neither
    // break results nor fight the existing vector code (vector loops
    // profile as non-vectorizable and are cached negatively).
    for id in WorkloadId::all() {
        let w = build(id, Variant::AutoVec, Scale::Small);
        let plain = run(&w, None);
        let with_dsa = run(&w, Some(DsaConfig::full()));
        // The DSA may still pick up any remaining scalar loops, so only
        // require no slowdown beyond noise.
        assert!(
            with_dsa <= plain + plain / 50,
            "{}: {with_dsa} vs {plain}",
            id.name()
        );
    }
}

#[test]
fn fuel_exhaustion_mid_coverage_is_reported() {
    use dsa_suite::core::Dsa;
    use dsa_suite::cpu::{CpuConfig, SimError, Simulator};
    let w = build(WorkloadId::RgbGray, Variant::Scalar, Scale::Small);
    let mut dsa = Dsa::new(DsaConfig::full());
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    // Enough fuel to start coverage, not enough to finish: the watchdog
    // must fire instead of silently returning a partial outcome.
    let err = sim.run_with_hook(100, &mut dsa).expect_err("watchdog fires");
    assert!(matches!(err, SimError::StepBudgetExceeded { steps: 100, .. }), "{err:?}");
    assert!(!sim.outcome().halted);
    assert_eq!(sim.outcome().committed, 100);
}

#[test]
fn autovec_matches_dsa_on_static_count_loops() {
    // RGB-Gray is one large static count loop: both must land in the
    // same ballpark (within 2x of each other), with the original
    // execution clearly slower than either.
    let base = run(&build(WorkloadId::RgbGray, Variant::Scalar, Scale::Small), None);
    let auto = run(&build(WorkloadId::RgbGray, Variant::AutoVec, Scale::Small), None);
    let dsa =
        run(&build(WorkloadId::RgbGray, Variant::Scalar, Scale::Small), Some(DsaConfig::full()));
    assert!(auto < base && dsa < base);
    let ratio = auto.max(dsa) as f64 / auto.min(dsa) as f64;
    assert!(ratio < 2.0, "autovec {auto} vs dsa {dsa}");
}
