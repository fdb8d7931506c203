//! The acceptance gate for the DSA on the superblock path: a
//! DSA-attached run that retires whole blocks wherever the engine's
//! `blocks` answer allows (`Dsa`) must be **bit-identical** to the same
//! run pinned to one commit at a time (`Stepped(Dsa)`) — in cycles,
//! committed count, architectural digest, `TimingStats`, `MemoryStats`,
//! `DsaStats`, the loop census and the byte-exact `dsa-trace/v2` JSONL
//! event stream.
//!
//! Four sweeps: every DSA combo of `paper_grid()`; every grid workload
//! under `FaultPlan::all(seed)` for three seeds (stale coverage, corrupt
//! templates and poisoning all take the stepped fallbacks); `run_bounded`
//! slices of an odd budget, so pauses land mid-block; and forge-generated
//! programs from fixed seeds, whose else-arms, conditional nests and
//! conditional dynamic ranges the grid lacks.

use std::cell::Cell;

use dsa_bench::cache::{paper_grid, Workload};
use dsa_bench::forge::{lower, Campaign, ForgeProgram};
use dsa_bench::{System, FUEL};
use dsa_core::{Dsa, DsaConfig, DsaStats, FaultPlan, LoopCensus};
use dsa_cpu::{
    BoundedOutcome, CommitHook, CpuConfig, Machine, RunOutcome, SimControl, Simulator, Stepped,
    TraceEvent,
};
use dsa_trace::{Collector, Shared};
use dsa_workloads::{micro, Scale};

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

/// Runs `sim` to halt under `cfg` in `shape`; returns what it observed
/// and the finished simulator.
fn run_shape(mut sim: Simulator, cfg: DsaConfig, shape: Shape) -> (Observed, Simulator) {
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
    let jsonl = sink.with(|c| c.events.iter().map(|e| e.to_json_line() + "\n").collect());
    let observed = Observed {
        outcome,
        digest: sim.machine().arch_digest(),
        stats: dsa.stats(),
        census: dsa.census(),
        jsonl,
    };
    (observed, sim)
}

fn observe(workload: Workload, system: System, cfg: DsaConfig, shape: Shape) -> Observed {
    let w = workload.build(system, Scale::Small);
    let (observed, sim) = run_shape(w.simulator(CpuConfig::default()), cfg, shape);
    assert!(
        w.check(sim.machine()),
        "{} under {} ({shape:?}): wrong result",
        workload.describe(),
        system.name()
    );
    observed
}

/// A forge program under the full DSA, on the oracle's initial state.
fn observe_forge(prog: &ForgeProgram, shape: Shape) -> Observed {
    let mut sim = Simulator::new(prog.kernel.program.clone(), CpuConfig::default());
    prog.init()(sim.machine_mut());
    run_shape(sim, DsaConfig::full(), shape).0
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

#[test]
fn forge_programs_block_bit_identically() {
    // Five seeds of 32 distinct programs, each run three ways: about a
    // second of a debug build.
    const SEEDS: [u64; 5] = [1, 2, 3, 5, 8];
    const PROGRAMS: usize = 32;
    let mut conditional_launches = 0;
    for seed in SEEDS {
        let campaign = Campaign { seed, budget: PROGRAMS, jobs: 1, config: DsaConfig::full() };
        let (corpus, _) = campaign.corpus();
        for spec in &corpus {
            let prog = lower(spec);
            let what = format!("forge seed {seed} program {:#018x}", spec.structural_hash());
            let stepped = observe_forge(&prog, Shape::Stepped);
            let block = observe_forge(&prog, Shape::Block);
            assert_same(&what, &stepped, &block);
            let sliced = observe_forge(&prog, Shape::Sliced);
            assert_same(&format!("{what} in {SLICE}-commit slices"), &stepped, &sliced);
            conditional_launches += block
                .jsonl
                .lines()
                .filter(|l| {
                    l.contains("\"type\":\"loop-vectorized\"")
                        && l.contains("\"class\":\"conditional\"")
                })
                .count();
        }
    }
    assert!(conditional_launches > 0, "the sweep vectorized no conditional loop");
}

/// Counts the commits a hook takes one at a time: callbacks that follow
/// a `blocks` answer of `false`.
struct CountStepped {
    dsa: Dsa,
    last_blocks: Cell<bool>,
    stepped: u64,
}

impl CommitHook for CountStepped {
    fn blocks(&self, covered: bool) -> bool {
        let b = self.dsa.blocks(covered);
        self.last_blocks.set(b);
        b
    }

    fn on_commit(&mut self, ev: &TraceEvent, machine: &Machine, ctl: &mut SimControl<'_>) {
        self.stepped += u64::from(!self.last_blocks.get());
        self.dsa.on_commit(ev, machine, ctl);
    }
}

#[test]
fn conditional_execution_takes_blocks() {
    let w = Workload::Micro(micro::Micro::Conditional).build(System::DsaFull, Scale::Small);
    let mut sim = w.simulator(CpuConfig::default());
    let dsa = Dsa::new(DsaConfig::full());
    let mut hook = CountStepped { dsa, last_blocks: Cell::new(false), stepped: 0 };
    let out = sim.run_with_hook(FUEL, &mut hook).expect("run halts");
    assert!(w.check(sim.machine()));
    assert_eq!(hook.dsa.stats().loops_vectorized, 1, "the conditional loop vectorized");
    // Only the analysis iterations step; the covered body retires whole.
    assert!(
        hook.stepped * 5 < out.committed,
        "{} of {} commits stepped",
        hook.stepped,
        out.committed
    );
}
