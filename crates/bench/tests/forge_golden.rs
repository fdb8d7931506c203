//! Golden of what `forge` reports: the rendered [`CampaignReport`] of
//! campaign seeds 1, 2 and 3 at budget 128 (counts line, loop-class
//! coverage table, fault-site table) must reproduce a checked-in text
//! file byte for byte. The counts line leaves out the worker count, so
//! the golden holds under any `DSA_JOBS`. A change to generation,
//! lowering, detection, fault injection or the oracle that moves any
//! count shows up here. Regenerate deliberately with:
//!
//! ```text
//! DSA_BLESS=1 cargo test -p dsa-bench --test forge_golden
//! ```
//!
//! [`CampaignReport`]: dsa_bench::forge::CampaignReport

use std::path::PathBuf;

use dsa_bench::forge::Campaign;
use dsa_core::DsaConfig;

#[test]
fn forge_report_matches_the_golden() {
    let live: String = [1, 2, 3]
        .into_iter()
        .map(|seed| Campaign::new(seed, 128, DsaConfig::full()).run().render(seed, None))
        .collect();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/forge_report.txt");
    if std::env::var_os("DSA_BLESS").is_some() {
        std::fs::write(&path, &live).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run DSA_BLESS=1 cargo test -p dsa-bench --test forge_golden",
            path.display()
        )
    });
    if live != golden {
        let line = live.lines().zip(golden.lines()).position(|(a, b)| a != b);
        panic!(
            "forge's report drifted from {} (first differing line: {line:?}):\n--- live\n{live}\n\
             --- blessed\n{golden}",
            path.display()
        );
    }
}
