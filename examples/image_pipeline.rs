//! Domain example: a multimedia image pipeline (the workload family the
//! paper's introduction motivates) — RGB→gray conversion, Gaussian
//! smoothing and SUSAN-style edge thresholding — compared across all six
//! systems of the evaluation.
//!
//! ```text
//! cargo run --release --example image_pipeline
//! ```

use dsa_suite::compiler::Variant;
use dsa_suite::core::{Dsa, DsaConfig};
use dsa_suite::cpu::CpuConfig;
use dsa_suite::workloads::{build, Scale, WorkloadId};

fn run(id: WorkloadId, variant: Variant, dsa_config: Option<DsaConfig>) -> u64 {
    let w = build(id, variant, Scale::Paper);
    let mut sim = w.simulator(CpuConfig::default());
    let outcome = match dsa_config {
        Some(cfg) => {
            let mut dsa = Dsa::new(cfg);
            sim.run_with_hook(1_000_000_000, &mut dsa).expect("runs")
        }
        None => sim.run(1_000_000_000).expect("runs"),
    };
    assert!(w.check(sim.machine()), "pipeline stage must match its reference result");
    outcome.cycles
}

fn main() {
    println!("image pipeline: RGB-to-gray -> Gaussian blur -> edge thresholding\n");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "stage", "original", "autovec", "dsa-orig", "dsa-full"
    );
    let stages = [WorkloadId::RgbGray, WorkloadId::Gaussian, WorkloadId::SusanEdges];
    let mut totals = [0u64; 4];
    for id in stages {
        let orig = run(id, Variant::Scalar, None);
        let auto = run(id, Variant::AutoVec, None);
        let dorig = run(id, Variant::Scalar, Some(DsaConfig::original()));
        let dfull = run(id, Variant::Scalar, Some(DsaConfig::full()));
        for (t, v) in totals.iter_mut().zip([orig, auto, dorig, dfull]) {
            *t += v;
        }
        println!("{:<18} {orig:>12} {auto:>12} {dorig:>12} {dfull:>12}", id.name());
    }
    let [orig, auto, dorig, dfull] = totals;
    println!("{:<18} {orig:>12} {auto:>12} {dorig:>12} {dfull:>12}", "pipeline total");
    let imp = |x: u64| 100.0 * (orig as f64 / x as f64 - 1.0);
    println!(
        "\npipeline speedup over the original execution: autovec {:+.1}%, \
         original DSA {:+.1}%, full DSA {:+.1}%",
        imp(auto),
        imp(dorig),
        imp(dfull)
    );
    println!(
        "the full DSA wins because the thresholding stage is a conditional loop \
         only runtime speculation can vectorize"
    );
}
