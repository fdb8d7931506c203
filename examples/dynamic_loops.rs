//! Domain example: the dynamic-behaviour loops that static vectorizers
//! fundamentally cannot touch (dissertation Table 1), shown live —
//! a dynamic range loop, a sentinel loop and a conditional loop, with
//! the three DSA generations side by side.
//!
//! ```text
//! cargo run --release --example dynamic_loops
//! ```

use dsa_suite::compiler::{analyze_autovec, Variant};
use dsa_suite::core::{Dsa, DsaConfig};
use dsa_suite::cpu::CpuConfig;
use dsa_suite::workloads::micro::{build, Micro};
use dsa_suite::workloads::Scale;

fn cycles(micro: Micro, dsa_config: Option<DsaConfig>) -> u64 {
    let w = build(micro, Variant::Scalar, Scale::Paper);
    let mut sim = w.simulator(CpuConfig::default());
    let out = match dsa_config {
        Some(cfg) => {
            let mut dsa = Dsa::new(cfg);
            sim.run_with_hook(100_000_000, &mut dsa).expect("runs")
        }
        None => sim.run(100_000_000).expect("runs"),
    };
    assert!(w.check(sim.machine()), "result must match the reference");
    out.cycles
}

fn main() {
    println!("loops with dynamic behaviour vs. the three DSA generations\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}   static verdict",
        "loop class", "original", "dsa 2018a", "dsa 2018b", "dsa 2019"
    );
    for micro in [
        Micro::Count,
        Micro::Function,
        Micro::DynamicRange,
        Micro::Conditional,
        Micro::Sentinel,
        Micro::Partial,
        Micro::Gather,
    ] {
        let orig = cycles(micro, None);
        let o = cycles(micro, Some(DsaConfig::original()));
        let e = cycles(micro, Some(DsaConfig::extended()));
        let f = cycles(micro, Some(DsaConfig::full()));
        // What the static auto-vectorizer would say about this loop.
        let w = build(micro, Variant::AutoVec, Scale::Paper);
        let verdict = w
            .kernel
            .reports
            .first()
            .and_then(|r| r.inhibit.map(|i| i.to_string()))
            .unwrap_or_else(|| "vectorized statically".into());
        println!("{:<16} {orig:>10} {o:>10} {e:>10} {f:>10}   {verdict}", micro.name());
    }
    println!(
        "\nreading: 2018a = SBCCI original DSA (count/function loops), \
         2018b = SBESC extended DSA (+conditional, +dynamic range), \
         2019 = DATE full DSA (+sentinel, +partial vectorization)"
    );
    let _ = analyze_autovec; // re-exported for users who want the raw verdicts
}
