//! Cross-crate behavioural tests: the feature-gating matrix over the
//! loop-class microkernels, energy/area model integration, and the
//! paper's structural claims.

use dsa_suite::compiler::Variant;
use dsa_suite::core::{Dsa, DsaConfig, LoopClass};
use dsa_suite::cpu::{CpuConfig, RunOutcome};
use dsa_suite::energy::{AreaModel, EnergyModel, EnergyTable};
use dsa_suite::workloads::micro::{build, Micro};
use dsa_suite::workloads::Scale;

fn run_micro(m: Micro, cfg: DsaConfig) -> (RunOutcome, Dsa) {
    let w = build(m, Variant::Scalar, Scale::Small);
    let mut dsa = Dsa::new(cfg);
    let mut sim = w.simulator(CpuConfig::default());
    let out = sim.run_with_hook(100_000_000, &mut dsa).expect("runs");
    assert!(out.halted);
    assert!(w.check(sim.machine()), "micro {} wrong result", m.name());
    (out, dsa)
}

/// The coverage matrix of Table 3 (related work) restricted to the three
/// DSA generations: which loop class is vectorized by which generation.
#[test]
fn feature_gating_matrix() {
    let cases: [(Micro, [bool; 3]); 9] = [
        (Micro::Count, [true, true, true]),
        (Micro::Function, [true, true, true]),
        (Micro::Fir, [true, true, true]),
        (Micro::NestFused, [true, true, true]),
        (Micro::DynamicRange, [false, true, true]),
        (Micro::Conditional, [false, true, true]),
        (Micro::Sentinel, [false, false, true]),
        (Micro::Partial, [false, false, true]),
        (Micro::Gather, [false, false, false]),
    ];
    for (m, expected) in cases {
        for (cfg, want) in
            [DsaConfig::original(), DsaConfig::extended(), DsaConfig::full()].into_iter().zip(expected)
        {
            let (_, dsa) = run_micro(m, cfg);
            let got = dsa.stats().loops_vectorized > 0;
            assert_eq!(
                got, want,
                "micro {} under {:?} features",
                m.name(),
                cfg.features
            );
        }
    }
}

#[test]
fn census_classifies_each_microkernel() {
    let cases = [
        (Micro::Count, LoopClass::Count),
        (Micro::Function, LoopClass::Function),
        (Micro::Conditional, LoopClass::Conditional),
        (Micro::Sentinel, LoopClass::Sentinel),
        (Micro::DynamicRange, LoopClass::DynamicRange),
        (Micro::Partial, LoopClass::Partial),
        (Micro::Gather, LoopClass::NonVectorizable),
        (Micro::Reduce, LoopClass::NonVectorizable),
        (Micro::NestFused, LoopClass::Nest),
        (Micro::Fir, LoopClass::Count),
    ];
    for (m, class) in cases {
        let (_, dsa) = run_micro(m, DsaConfig::full());
        assert_eq!(dsa.census().count(class), 1, "micro {}", m.name());
    }
}

#[test]
fn vectorization_saves_energy() {
    let model = EnergyModel::new(EnergyTable::default());
    let (out_plain, _) = {
        let w = build(Micro::Count, Variant::Scalar, Scale::Small);
        let mut sim = w.simulator(CpuConfig::default());
        (sim.run(100_000_000).expect("runs"), ())
    };
    let (out_dsa, dsa) = run_micro(Micro::Count, DsaConfig::full());
    let e_plain = model.evaluate(&out_plain, None);
    let e_dsa = model.evaluate(&out_dsa, Some(&dsa.stats()));
    assert!(
        e_dsa.total_pj() < e_plain.total_pj(),
        "{} >= {}",
        e_dsa.total_pj(),
        e_plain.total_pj()
    );
    assert!(e_dsa.dsa > 0.0, "detector energy accounted");
    assert!(e_dsa.neon_dynamic > 0.0, "vector work accounted");
}

#[test]
fn detection_latency_is_parallel_and_small() {
    let (out, dsa) = run_micro(Micro::Count, DsaConfig::full());
    let frac = dsa.stats().detection_fraction(out.cycles);
    assert!(frac < 0.05, "detection fraction {frac}");
}

#[test]
fn area_overheads_match_paper() {
    let cfg = DsaConfig::default();
    let r = AreaModel::default().report(cfg.dsa_cache_bytes, cfg.vcache_bytes, cfg.array_maps);
    assert!((r.logic_overhead_pct - 2.18).abs() < 0.1);
    assert!((r.total_overhead_pct - 10.37).abs() < 0.5);
}

#[test]
fn leftover_policies_all_correct() {
    use dsa_suite::core::LeftoverPolicy;
    for policy in [
        LeftoverPolicy::Auto,
        LeftoverPolicy::SingleElements,
        LeftoverPolicy::Overlapping,
        LeftoverPolicy::LargerArrays,
    ] {
        let (_, dsa) = run_micro(Micro::Count, DsaConfig { leftover: policy, ..DsaConfig::full() });
        assert!(dsa.stats().loops_vectorized > 0, "{policy:?}");
    }
}
