//! Renders the paper's evaluation section: every table, figure and
//! ablation of [`dsa_bench::experiments::SECTIONS`], or only the ones
//! named on the command line (in table order).
//!
//! Before any section renders, the full (workload × system) grid is
//! simulated once in parallel ([`dsa_bench::cache`]); the sections then
//! read memoized results. `DSA_JOBS=<n>` caps the warm-up threads
//! (default: all cores). Tables go to stdout; per-section wall-clock
//! and cache statistics go to stderr so piped output stays clean. A
//! failed section leaves `# INCOMPLETE: <section>: <error>` on stdout
//! in place of its table and makes the run exit 1; an unknown section
//! name exits 2 before anything is simulated.
//!
//! ```text
//! all_experiments [SECTION...]
//! ```
use std::time::Instant;

use dsa_bench::cache;
use dsa_bench::experiments::SECTIONS;

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted.iter().find(|w| !SECTIONS.iter().any(|(name, _)| name == w)) {
        eprintln!("all_experiments: unknown section `{unknown}`; sections:");
        for (name, _) in SECTIONS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }

    let total = Instant::now();
    let jobs = cache::jobs_from_env();
    let grid = cache::paper_grid();
    eprintln!("warming {} (workload x system) combos on {jobs} thread(s)...", grid.len());
    let warm = Instant::now();
    // A panicking combo is caught and memoized as an error: its section
    // prints `# INCOMPLETE` and the degradation summary counts it.
    cache::global().warm(&grid, dsa_workloads::Scale::Paper, jobs);
    eprintln!("warm-up: {:.2}s", warm.elapsed().as_secs_f64());

    let mut failed = 0u32;
    for (name, section) in SECTIONS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let t = Instant::now();
        let section = section();
        eprintln!("{name}: {:.2}s", t.elapsed().as_secs_f64());
        match section {
            Ok(text) => println!("{text}"),
            Err(e) => {
                failed += 1;
                println!("# INCOMPLETE: {name}: {e}");
                eprintln!("{name}: error: {e}");
            }
        }
        println!("{}", "=".repeat(100));
    }

    let stats = cache::global().stats();
    eprintln!(
        "total: {:.2}s ({} simulations, {} cache hits, DSA_JOBS={jobs})",
        total.elapsed().as_secs_f64(),
        stats.simulations,
        stats.hits,
    );
    eprintln!("{}", cache::global().degradation_summary());
    // One-page telemetry summary: per-run DSA counters always (cheap,
    // folded from DsaStats), plus the merged metrics registry when the
    // runs were traced (DSA_METRICS=1 — off by default so the grid
    // warm-up stays unencumbered by per-event accounting).
    eprintln!("telemetry summary:");
    for line in cache::global().run_summaries() {
        eprintln!("  {line}");
    }
    if let Some(metrics) = cache::global().merged_metrics() {
        eprintln!("merged metrics registry ({} traced runs folded):", stats.simulations);
        for line in metrics.report_text().lines() {
            eprintln!("  {line}");
        }
    }
    if failed > 0 {
        eprintln!("error: {failed} section(s) failed");
        std::process::exit(1);
    }
}
