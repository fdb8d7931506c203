//! The acceptance gate for the DSA on the superblock path: a
//! DSA-attached run that retires whole blocks wherever the engine's
//! `blocks` answer allows (`Dsa`) must be **bit-identical** to the same
//! run pinned to one commit at a time (`Stepped(Dsa)`) — in cycles,
//! committed count, architectural digest, `TimingStats`, `MemoryStats`,
//! `DsaStats`, the loop census and the byte-exact `dsa-trace/v1` JSONL
//! event stream.
//!
//! Three sweeps: every DSA combo of `paper_grid()`; every grid workload
//! under `FaultPlan::all(seed)` for three seeds (stale coverage, corrupt
//! templates and poisoning all take the stepped fallbacks); and
//! `run_bounded` slices of an odd budget, so pauses land mid-block.

use dsa_bench::cache::{paper_grid, Workload};
use dsa_bench::{System, FUEL};
use dsa_core::{Dsa, DsaConfig, DsaStats, FaultPlan, LoopCensus};
use dsa_cpu::{BoundedOutcome, CommitHook, CpuConfig, RunOutcome, Simulator, Stepped};
use dsa_trace::{Collector, Shared};
use dsa_workloads::Scale;

/// An odd slice, so pause points drift across block boundaries.
const SLICE: u64 = 997;

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `Dsa` straight through: blocks wherever the engine allows.
    Block,
    /// `Stepped(Dsa)` straight through: one commit at a time.
    Stepped,
    /// `Dsa` in `run_bounded` slices of [`SLICE`] commits.
    Sliced,
}

/// Everything a run must reproduce exactly.
struct Observed {
    outcome: RunOutcome,
    digest: u64,
    stats: DsaStats,
    census: LoopCensus,
    jsonl: String,
}

fn drive<H: CommitHook>(
    sim: &mut Simulator,
    hook: &mut H,
    sink: &mut Shared<Collector>,
    slice: Option<u64>,
) -> RunOutcome {
    let Some(slice) = slice else {
        return sim.run_traced(FUEL, hook, sink).expect("run halts");
    };
    loop {
        match sim.run_bounded_traced(slice, hook, sink).expect("slice runs") {
            BoundedOutcome::Halted(out) => return out,
            BoundedOutcome::Paused => {}
        }
    }
}

fn observe(workload: Workload, system: System, cfg: DsaConfig, shape: Shape) -> Observed {
    let w = workload.build(system, Scale::Small);
    let mut sim = w.simulator(CpuConfig::default());
    let sink = Shared::new(Collector::new());
    let mut dsa = Dsa::new(cfg.with_trace());
    dsa.attach_sink(sink.clone());
    let mut boundary = sink.clone();
    let (outcome, mut dsa) = match shape {
        Shape::Block => (drive(&mut sim, &mut dsa, &mut boundary, None), dsa),
        Shape::Sliced => (drive(&mut sim, &mut dsa, &mut boundary, Some(SLICE)), dsa),
        Shape::Stepped => {
            let mut stepped = Stepped(dsa);
            (drive(&mut sim, &mut stepped, &mut boundary, None), stepped.0)
        }
    };
    dsa.finish_trace();
    assert!(
        w.check(sim.machine()),
        "{} under {} ({shape:?}): wrong result",
        workload.describe(),
        system.name()
    );
    let jsonl = sink.with(|c| c.events.iter().map(|e| e.to_json_line() + "\n").collect());
    Observed {
        outcome,
        digest: sim.machine().arch_digest(),
        stats: dsa.stats(),
        census: dsa.census(),
        jsonl,
    }
}

fn assert_same(what: &str, stepped: &Observed, other: &Observed) {
    assert_eq!(stepped.outcome, other.outcome, "{what}: run outcome");
    assert_eq!(stepped.digest, other.digest, "{what}: arch digest");
    assert_eq!(stepped.stats, other.stats, "{what}: DSA stats");
    assert_eq!(stepped.census, other.census, "{what}: loop census");
    assert!(stepped.jsonl == other.jsonl, "{what}: JSONL trace streams differ");
}

/// The distinct workloads of the paper grid: each appears exactly once
/// under the full DSA.
fn grid_workloads() -> Vec<Workload> {
    paper_grid().into_iter().filter(|(_, s)| *s == System::DsaFull).map(|(w, _)| w).collect()
}

#[test]
fn every_dsa_combo_of_the_grid_blocks_bit_identically() {
    let mut combos = 0;
    for (workload, system) in paper_grid() {
        let Some(cfg) = system.dsa_config() else {
            continue;
        };
        let what = format!("{} under {}", workload.describe(), system.name());
        let stepped = observe(workload, system, cfg, Shape::Stepped);
        let block = observe(workload, system, cfg, Shape::Block);
        assert_same(&what, &stepped, &block);
        combos += 1;
    }
    assert_eq!(combos, 31, "7 apps x 3 DSA systems + 10 microkernels");
}

#[test]
fn fault_injected_runs_block_bit_identically() {
    let mut faults = 0;
    for workload in grid_workloads() {
        for seed in [1, 2, 3] {
            let cfg = DsaConfig::full().with_faults(FaultPlan::all(seed));
            let what = format!("{} with faults (seed {seed})", workload.describe());
            let stepped = observe(workload, System::DsaFull, cfg, Shape::Stepped);
            let block = observe(workload, System::DsaFull, cfg, Shape::Block);
            assert_same(&what, &stepped, &block);
            faults += block.stats.faults_injected;
        }
    }
    assert!(faults > 0, "the fault plans never fired");
}

#[test]
fn sliced_runs_pause_mid_block_bit_identically() {
    for workload in grid_workloads() {
        let cfg = DsaConfig::full();
        let what = format!("{} in {SLICE}-commit slices", workload.describe());
        let stepped = observe(workload, System::DsaFull, cfg, Shape::Stepped);
        let sliced = observe(workload, System::DsaFull, cfg, Shape::Sliced);
        assert_same(&what, &stepped, &sliced);
    }
}
