//! Experiment harness: runs every (workload × system) combination and
//! regenerates the paper's tables and figures.
//!
//! The six systems compared across the three articles:
//!
//! | System | Binary | DLP engine |
//! |--------|--------|-----------|
//! | [`System::Original`] | scalar | none ("ARM Original Execution") |
//! | [`System::AutoVec`] | compiler-vectorized | NEON |
//! | [`System::HandVec`] | hand-vectorized | NEON |
//! | [`System::DsaOriginal`] | scalar | NEON driven by the SBCCI'18 DSA |
//! | [`System::DsaExtended`] | scalar | NEON driven by the SBESC'18 DSA |
//! | [`System::DsaFull`] | scalar | NEON driven by the DATE'19 DSA |
//!
//! Every run asserts the workload's golden checksum, so a reported
//! speedup can never come from wrong results.

pub mod cache;
pub mod cpu_clock;
pub mod experiments;
pub mod forge;

pub use cache::{
    run_cached, run_micro_cached, ContentKey, ResultStore, RunCache, StoreStats, StoredResult,
};

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dsa_compiler::Variant;
use dsa_core::{Dsa, DsaConfig, DsaStats, LoopCensus, SnapshotError};
use dsa_cpu::{CpuConfig, RunOutcome, SimError, Simulator};
use dsa_energy::{EnergyBreakdown, EnergyModel, EnergyTable};
use dsa_trace::{MetricsRegistry, Shared, TraceSink};
use dsa_workloads::{build, BuiltWorkload, Scale, WorkloadId};

/// Instruction budget per run.
pub const FUEL: u64 = 2_000_000_000;

/// A failed measurement run. `Copy` so the memoizing [`RunCache`] can
/// hand the same error to every requester of a bad key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The simulator failed: watchdog expiry or an executor error.
    Sim(SimError),
    /// The run halted but produced a result different from the
    /// workload's golden reference.
    WrongResult {
        /// The system that produced the wrong result.
        system: System,
        /// Checksum observed.
        got: u64,
        /// Golden checksum expected.
        want: u64,
    },
    /// A worker panicked and was caught at the crash boundary
    /// ([`isolate`]).
    Panicked {
        /// Display name of the workload whose worker crashed.
        workload: &'static str,
    },
    /// A service job spent its whole admission deadline queued and was
    /// shed before it started.
    DeadlineExceeded {
        /// Display name of the workload.
        workload: &'static str,
        /// The admission deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// A snapshot image was rejected on restore.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::WrongResult { system, got, want } => write!(
                f,
                "{} produced a wrong result: got {got:#x}, want {want:#x}",
                system.name()
            ),
            RunError::Panicked { workload } => write!(f, "worker panicked running `{workload}`"),
            RunError::DeadlineExceeded { workload, deadline_ms } => write!(
                f,
                "`{workload}` was shed: it spent its {deadline_ms} ms admission deadline queued"
            ),
            RunError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The crash boundary: runs `f`, turning a panic inside it into
/// [`RunError::Panicked`] for `workload`. Simulation is deterministic,
/// so a panicking run panics again on every retry; callers memoize or
/// report the error instead of re-running.
///
/// # Errors
///
/// `f`'s own error, or [`RunError::Panicked`] if `f` unwound.
pub fn isolate<T>(
    workload: &'static str,
    f: impl FnOnce() -> Result<T, RunError>,
) -> Result<T, RunError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or(Err(RunError::Panicked { workload }))
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> RunError {
        RunError::Sim(e)
    }
}

impl From<SnapshotError> for RunError {
    fn from(e: SnapshotError) -> RunError {
        RunError::Snapshot(e)
    }
}

/// The shared failure exit path of the `dsa-bench` binaries: prints
/// `# INCOMPLETE: <message>` to stdout (flushed, so a redirected table
/// is visibly incomplete, not silently truncated), the message itself
/// to stderr (flushed), then exits 1 with no backtrace.
pub fn fail(message: &str) -> ! {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "# INCOMPLETE: {message}");
    let _ = out.flush();
    let mut err = std::io::stderr();
    let _ = writeln!(err, "{message}");
    let _ = err.flush();
    std::process::exit(1);
}

/// The systems compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// ARM Original Execution (no DLP exploitation).
    Original,
    /// ARM NEON auto-vectorizing compiler.
    AutoVec,
    /// ARM NEON library hand-vectorized code.
    HandVec,
    /// Original DSA (Article 1).
    DsaOriginal,
    /// Extended DSA (Article 2).
    DsaExtended,
    /// Full DSA (Article 3, DATE 2019).
    DsaFull,
}

impl System {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            System::Original => "ARM Original",
            System::AutoVec => "NEON AutoVec",
            System::HandVec => "NEON Hand-Coded",
            System::DsaOriginal => "DSA (original)",
            System::DsaExtended => "DSA (extended)",
            System::DsaFull => "DSA (full)",
        }
    }

    /// Which compiler variant the system's binary is built with.
    pub fn variant(self) -> Variant {
        match self {
            System::AutoVec => Variant::AutoVec,
            System::HandVec => Variant::HandVec,
            _ => Variant::Scalar,
        }
    }

    /// The DSA configuration, if the system uses the DSA.
    pub fn dsa_config(self) -> Option<DsaConfig> {
        match self {
            System::DsaOriginal => Some(DsaConfig::original()),
            System::DsaExtended => Some(DsaConfig::extended()),
            System::DsaFull => Some(DsaConfig::full()),
            _ => None,
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulator outcome (cycles, instruction mix, memory statistics).
    pub outcome: RunOutcome,
    /// DSA statistics when the system used the DSA.
    pub dsa: Option<DsaStats>,
    /// Loop census when the system used the DSA.
    pub census: Option<LoopCensus>,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Telemetry counters folded from the run's event stream — present
    /// only when `DSA_METRICS=1` in the environment traced a DSA run.
    pub metrics: Option<MetricsRegistry>,
}

impl RunResult {
    /// Cycles taken.
    pub fn cycles(&self) -> u64 {
        self.outcome.cycles
    }
}

/// Runs a prebuilt workload under one system.
///
/// # Errors
///
/// Returns [`RunError::Sim`] if the run does not halt within [`FUEL`]
/// steps (the watchdog) or the executor fails, and
/// [`RunError::WrongResult`] if the final state differs from the
/// workload's golden reference.
pub fn run_built(w: &BuiltWorkload, system: System) -> Result<RunResult, RunError> {
    if system.dsa_config().is_some() && metrics_requested() {
        // Telemetry is opt-in: attaching the metrics sink to every grid
        // run would tax the warm-up loop, so the flag gates it.
        let metrics = Shared::new(MetricsRegistry::new());
        let result = run_built_traced(w, system, metrics.clone())?;
        return Ok(RunResult { metrics: Some(metrics.with(std::mem::take)), ..result });
    }
    let mut sim = w.simulator(CpuConfig::default());
    let (outcome, dsa) = match system.dsa_config() {
        None => (sim.run(FUEL)?, None),
        Some(cfg) => {
            let mut dsa = Dsa::new(cfg);
            let out = sim.run_with_hook(FUEL, &mut dsa)?;
            (out, Some(dsa))
        }
    };
    checked_result(w, &sim, system, outcome, dsa.as_ref())
}

/// Runs a prebuilt workload under one DSA system with `sink` attached:
/// the engine's lifecycle events and the simulator's run brackets all
/// reach it, and the engine's stream is finished before the result is
/// checked. [`RunResult::metrics`] is left empty; the caller owns what
/// the sink folded.
///
/// # Errors
///
/// Same contract as [`run_built`].
///
/// # Panics
///
/// If `system` has no DSA ([`System::dsa_config`] is `None`).
pub fn run_built_traced(
    w: &BuiltWorkload,
    system: System,
    sink: impl TraceSink + Clone + Send + 'static,
) -> Result<RunResult, RunError> {
    let cfg = system.dsa_config().expect("a traced run needs a DSA system");
    let mut sim = w.simulator(CpuConfig::default());
    let mut boundary = sink.clone();
    let mut dsa = Dsa::new(cfg);
    dsa.attach_sink(sink);
    let outcome = sim.run_traced(FUEL, &mut dsa, &mut boundary)?;
    dsa.finish_trace();
    checked_result(w, &sim, system, outcome, Some(&dsa))
}

/// The golden check and energy evaluation every run ends with.
fn checked_result(
    w: &BuiltWorkload,
    sim: &Simulator,
    system: System,
    outcome: RunOutcome,
    dsa: Option<&Dsa>,
) -> Result<RunResult, RunError> {
    if !w.check(sim.machine()) {
        return Err(RunError::WrongResult {
            system,
            got: w.actual(sim.machine()),
            want: w.expected,
        });
    }
    let model = EnergyModel::new(EnergyTable::default());
    let stats = dsa.map(Dsa::stats);
    let energy = model.evaluate(&outcome, stats.as_ref());
    Ok(RunResult { outcome, dsa: stats, census: dsa.map(Dsa::census), energy, metrics: None })
}

/// Whether `DSA_METRICS=1` asks every DSA run to fold telemetry into
/// [`RunResult::metrics`].
pub fn metrics_requested() -> bool {
    std::env::var("DSA_METRICS").is_ok_and(|v| v == "1")
}

/// Builds and runs one workload under one system.
///
/// # Errors
///
/// Same contract as [`run_built`].
pub fn run_system(id: WorkloadId, system: System, scale: Scale) -> Result<RunResult, RunError> {
    let w = build(id, system.variant(), scale);
    run_built(&w, system)
}

/// Performance improvement of `x` over `baseline` in percent
/// (`(baseline/x − 1) × 100`; positive = faster).
pub fn improvement_pct(baseline_cycles: u64, x_cycles: u64) -> f64 {
    100.0 * (baseline_cycles as f64 / x_cycles as f64 - 1.0)
}

/// Geometric mean of speedup ratios derived from improvement
/// percentages. An empty slice has no improvement: `0.0`.
pub fn geomean_improvement(improvements_pct: &[f64]) -> f64 {
    if improvements_pct.is_empty() {
        return 0.0;
    }
    let log_sum: f64 =
        improvements_pct.iter().map(|p| (1.0 + p / 100.0).ln()).sum();
    ((log_sum / improvements_pct.len() as f64).exp() - 1.0) * 100.0
}

/// Renders a simple aligned text table. No headers, no table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    if headers.is_empty() {
        return String::new();
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(200, 100), 100.0);
        assert_eq!(improvement_pct(100, 100), 0.0);
        assert!((improvement_pct(100, 103) + 2.912).abs() < 0.01);
    }

    #[test]
    fn geomean_of_equal_values() {
        let g = geomean_improvement(&[50.0, 50.0, 50.0]);
        assert!((g - 50.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_empty_slice_is_zero() {
        let g = geomean_improvement(&[]);
        assert_eq!(g, 0.0);
        assert!(!g.is_nan());
    }

    #[test]
    fn table_renders() {
        let t = render_table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("a"));
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn empty_headers_render_empty_table() {
        assert_eq!(render_table(&[], &[]), "");
        assert_eq!(render_table(&[], &[vec!["orphan".into()]]), "");
    }

    #[test]
    fn smoke_run_one_system() {
        let r = run_system(WorkloadId::RgbGray, System::DsaFull, Scale::Small).expect("runs");
        assert!(r.cycles() > 0);
        assert!(r.dsa.is_some());
        assert!(r.energy.total_nj() > 0.0);
    }

    #[test]
    fn run_errors_render_cleanly() {
        use dsa_cpu::SimError;
        let e = RunError::from(SimError::StepBudgetExceeded { pc: 0x40, steps: 9 });
        assert_eq!(e.to_string(), "simulation failed: did not halt within 9 steps (stuck at pc 64)");
        let w = RunError::WrongResult { system: System::DsaFull, got: 1, want: 2 };
        assert!(w.to_string().contains("wrong result"));
        let p = RunError::Panicked { workload: "qsort" };
        assert!(p.to_string().contains("panicked"));
        let d = RunError::DeadlineExceeded { workload: "fft", deadline_ms: 250 };
        assert!(d.to_string().contains("250 ms admission deadline queued"), "{d}");
        let s = RunError::from(dsa_core::SnapshotError::ChecksumMismatch);
        assert!(s.to_string().contains("snapshot rejected"));
    }
}
