//! `forge`: a seed-derived stream of distinct programs
//! (`Campaign::corpus`), each run once through
//! `forge::campaign::run_program` on this one thread.
//!
//! Fixed per-run costs dominate here: simulator, machine and engine
//! construction, lowering, first-use predecode (every program is new),
//! trace sinks and one snapshot round trip per program. No program
//! repeats within a process, so the decode cache is as cold as a
//! campaign sees it.
//!
//! `run_program` reports coverage but neither times its runs nor counts
//! their cycles, so after each program's operation the workload runs it
//! once more scalar and once DSA-attached. Those two runs give
//! `mips_base`, `mips_dsa` and the simulated counts; they are not part
//! of the operation's latency.

use std::collections::BTreeMap;
use std::time::Instant;

use dsa_bench::forge::campaign::{
    fault_schedule, kill_at, run_program, Coverage, ProgramOutcome, FORGE_FUEL,
};
use dsa_bench::forge::{lower, Campaign, ProgramSpec};
use dsa_core::{
    DifferentialOracle, Dsa, DsaConfig, DsaStats, LoopClass, OracleReport, OracleVerdict, Snapshot,
};
use dsa_cpu::{BoundedOutcome, CpuConfig, DecodedProgram, Machine, RunOutcome, Simulator};
use dsa_isa::Program;
use dsa_trace::{Collector, Event, Shared};

use crate::host::thread_cpu_us;
use crate::spans::{SpanLog, SpanTotals};
use crate::stats::{Batches, Ratio};
use crate::{Ctx, Outcome};

/// Programs in the corpus; a run takes a prefix of it.
const CORPUS: usize = 24_576;

/// Programs whose simulated counts are compared between runs; every
/// run completes at least these.
const PREFIX: usize = 256;

/// Programs per batch; rates come from the median batch.
const BATCH: usize = 16;

/// Programs a run may take per second of its window. The process-wide
/// decode cache keeps every program it has seen (about 7 KB each), so a
/// run that took as many programs as its window allowed would report a
/// higher `peak_rss_mb` whenever the simulator got faster.
const PROGRAMS_PER_S: f64 = 300.0;

const CLASSES: [LoopClass; 8] = [
    LoopClass::Count,
    LoopClass::Function,
    LoopClass::Nest,
    LoopClass::Conditional,
    LoopClass::DynamicRange,
    LoopClass::Sentinel,
    LoopClass::Partial,
    LoopClass::NonVectorizable,
];

/// Simulated counts one program contributes to the prefix totals: its
/// scalar run and its clean-phase DSA run.
#[derive(Debug, Default)]
struct Counts {
    committed: u64,
    cycles: u64,
    dsa: DsaStats,
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let config = DsaConfig::full();
    let campaign = Campaign {
        seed: ctx.seed,
        budget: CORPUS,
        jobs: 1,
        config,
    };
    let (corpus, generated) = campaign.corpus();
    out.setup_s = ctx.origin.elapsed().as_secs_f64();
    if ctx.setup_only {
        return out;
    }

    let mut log = SpanLog::new(ctx.origin);
    let mut layers = Layers::default();
    let mut coverage = Coverage::full_vocabulary();
    let mut prefix_cov = Coverage::full_vocabulary();
    let mut totals = Counts::default();
    let mut ops = Batches::new(BATCH);
    let mut dsa_runs = Batches::new(BATCH);
    let mut base_runs = Batches::new(BATCH);
    let budget = PREFIX.max((ctx.seconds * PROGRAMS_PER_S) as usize);
    let measure = Instant::now();
    for (i, spec) in corpus.iter().take(budget).enumerate() {
        if i >= PREFIX && measure.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        out.attempted += 1;
        let result = if ctx.traced {
            traced_program(&mut log, &mut layers, i as u64, spec, config)
        } else {
            untraced_program(spec, config)
        };
        match result {
            Ok(p) => {
                ops.record(p.op_us, 0);
                dsa_runs.record(p.dsa_us, p.counts.committed);
                base_runs.record(p.base_us, p.counts.committed);
                out.latency_us.push(p.op_us);
                coverage.fold(spec, &p.outcome);
                if i < PREFIX {
                    prefix_cov.fold(spec, &p.outcome);
                    totals.committed += p.counts.committed;
                    totals.cycles += p.counts.cycles;
                    add_stats(&mut totals.dsa, &p.counts.dsa);
                }
            }
            Err(e) => out.fail(format!("program {i} ({:#x}): {e}", spec.structural_hash())),
        }
    }
    if !coverage.complete() {
        out.fail(format!(
            "coverage incomplete over {} programs:\n{}",
            out.attempted,
            coverage.render()
        ));
    }

    let c = &mut out.counts;
    c.insert("sim.committed".into(), totals.committed);
    c.insert("sim.cycles".into(), totals.cycles);
    c.insert("core.detection_cycles".into(), totals.dsa.detection_cycles);
    c.insert("core.loops_detected".into(), totals.dsa.loops_detected);
    c.insert("core.loops_vectorized".into(), totals.dsa.loops_vectorized);
    c.insert("core.dsa_cache_hits".into(), totals.dsa.dsa_cache_hits);
    c.insert("core.dsa_cache_misses".into(), totals.dsa.dsa_cache_misses);
    c.insert("forge.programs".into(), corpus.len() as u64);
    c.insert("forge.generated".into(), generated as u64);
    let mut vectorized = 0;
    for class in CLASSES {
        let row = prefix_cov.row(class);
        c.insert(format!("forge.cov.{}", class.name()), row.detected);
        c.insert(format!("forge.generated.{}", class.name()), row.generated);
        vectorized += row.vectorized;
    }
    c.insert("forge.cov.vectorized".into(), vectorized);

    out.ops_per_s = ops.ops_per_s();
    out.mips_dsa = dsa_runs.mips();
    out.mips_base = base_runs.mips();
    out.notes.push(format!(
        "forge: {} distinct programs (budget {budget}) on one thread, {} batches of {BATCH}; rates from the median batch",
        out.attempted,
        ops.len()
    ));
    out.notes.push(format!(
        "forge coverage over the run:\n{}",
        coverage.render()
    ));
    let t = &totals.dsa;
    out.ratio(
        "core.loops_vectorized_ratio",
        Ratio {
            part: t.loops_vectorized,
            base: t.loops_detected,
        },
        "vectorized",
        &format!("detected loops (first {PREFIX} programs)"),
    );
    out.ratio(
        "core.dsa_cache_hit_ratio",
        Ratio {
            part: t.dsa_cache_hits,
            base: t.dsa_cache_hits + t.dsa_cache_misses,
        },
        "hits",
        &format!("DSA-cache lookups (first {PREFIX} programs)"),
    );
    out.ratio(
        "forge.dedup_ratio",
        Ratio {
            part: (generated - corpus.len()) as u64,
            base: generated as u64,
        },
        "duplicates",
        "generated programs",
    );
    if ctx.traced {
        layers.report(&log, out.attempted, &mut out.layers);
        out.spans = Some(log);
    }
    out
}

fn add_stats(into: &mut DsaStats, s: &DsaStats) {
    into.detection_cycles += s.detection_cycles;
    into.loops_detected += s.loops_detected;
    into.loops_vectorized += s.loops_vectorized;
    into.dsa_cache_hits += s.dsa_cache_hits;
    into.dsa_cache_misses += s.dsa_cache_misses;
}

/// What one program's operation measured.
struct Measured {
    /// What `run_program` (or its traced replay) observed.
    outcome: ProgramOutcome,
    /// CPU time of `run_program` (or of its traced replay), µs.
    op_us: f64,
    /// One DSA-attached (full) run of the program, µs.
    dsa_us: f64,
    /// One scalar block-path run of the program, µs.
    base_us: f64,
    counts: Counts,
}

/// Runs `f`, returning its result and the CPU time it took, µs.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = thread_cpu_us();
    let r = f();
    (r, thread_cpu_us() - t)
}

fn sim_for(program: &Program, init: &impl Fn(&mut Machine)) -> Simulator {
    let mut sim = Simulator::new(program.clone(), CpuConfig::default());
    init(sim.machine_mut());
    sim
}

/// The scalar and DSA runs whose rates give `mips_base` and
/// `mips_dsa`, made after the timed operation. The DSA run's final
/// state must match the scalar run's.
fn rate_runs(spec: &ProgramSpec, config: DsaConfig) -> Result<(f64, f64, Counts), String> {
    let prog = lower(spec);
    let init = prog.init();
    let program = &prog.kernel.program;
    let mut scalar = sim_for(program, &init);
    let (base, base_us) = timed(|| scalar.run(FORGE_FUEL));
    let base = base.map_err(|e| format!("scalar run: {e}"))?;
    let mut vec = sim_for(program, &init);
    let mut dsa = Dsa::new(config);
    let (run, dsa_us) = timed(|| vec.run_with_hook(FORGE_FUEL, &mut dsa));
    let run = run.map_err(|e| format!("DSA run: {e}"))?;
    if scalar.machine().arch_digest() != vec.machine().arch_digest() {
        return Err("DSA run's final state differs from the scalar run's".into());
    }
    Ok((base_us, dsa_us, counts_of(&base, &run, dsa.stats())))
}

fn counts_of(scalar: &RunOutcome, dsa_run: &RunOutcome, dsa: DsaStats) -> Counts {
    Counts {
        committed: scalar.committed,
        cycles: scalar.cycles + dsa_run.cycles,
        dsa,
    }
}

fn untraced_program(spec: &ProgramSpec, config: DsaConfig) -> Result<Measured, String> {
    let (outcome, op_us) = timed(|| run_program(spec, config));
    if let Some(f) = outcome.failure {
        return Err(format!("campaign failure {}", f.kind()));
    }
    let (base_us, dsa_us, counts) = rate_runs(spec, config)?;
    Ok(Measured {
        outcome,
        op_us,
        dsa_us,
        base_us,
        counts,
    })
}

/// Per-layer tallies the spans do not carry.
#[derive(Default)]
struct Layers {
    snapshot_bytes: u64,
    snapshots: u64,
    collector_events: u64,
    block_committed: u64,
    dsa_committed: u64,
    with_sink_us: f64,
    without_sink_us: f64,
}

impl Layers {
    fn report(&self, log: &SpanLog, programs: u64, l: &mut BTreeMap<String, f64>) {
        let s = log.summary();
        let total = |name: &str| s.get(name).map_or(0.0, |t| t.total_us);
        let mean = |name: &str| s.get(name).map_or(0.0, SpanTotals::mean_us);
        let n = programs.max(1) as f64;
        l.insert("compiler.lower_ms".into(), mean("compiler.lower") / 1e3);
        l.insert("cpu.decode_ms".into(), mean("cpu.decode_first") / 1e3);
        l.insert(
            "cpu.decode_calls".into(),
            s.get("cpu.decode_first").map_or(0.0, |t| t.count as f64),
        );
        l.insert("cpu.block_s".into(), total("cpu.block") / 1e6);
        let rate = |c: u64, us: f64| if us > 0.0 { c as f64 / us } else { 0.0 };
        l.insert(
            "cpu.block_mips".into(),
            rate(self.block_committed, total("cpu.block")),
        );
        l.insert("core.dsa_s.full".into(), total("core.dsa.full") / 1e6);
        l.insert(
            "core.dsa_mips.full".into(),
            rate(self.dsa_committed, total("core.dsa.full")),
        );
        l.insert(
            "core.oracle_clean_ms".into(),
            mean("core.oracle_clean") / 1e3,
        );
        l.insert(
            "core.oracle_fault_ms".into(),
            mean("core.oracle_fault") / 1e3,
        );
        l.insert(
            "core.oracle_resume_ms".into(),
            mean("core.oracle_resume") / 1e3,
        );
        l.insert(
            "core.snapshot_encode_us".into(),
            mean("core.snapshot_encode"),
        );
        l.insert(
            "core.snapshot_restore_us".into(),
            mean("core.snapshot_restore"),
        );
        l.insert(
            "core.snapshot_bytes".into(),
            self.snapshot_bytes as f64 / self.snapshots.max(1) as f64,
        );
        l.insert(
            "trace.collector_events".into(),
            self.collector_events as f64 / n,
        );
        let pct = if self.without_sink_us > 0.0 {
            (self.with_sink_us / self.without_sink_us - 1.0) * 100.0
        } else {
            0.0
        };
        l.insert("trace.sink_overhead_pct".into(), pct);
    }
}

/// Classifies one oracle phase as `run_program` does: `Ok(true)` on a
/// match, `Ok(false)` when inconclusive, an error otherwise.
fn phase_verdict(report: &OracleReport, phase: &str) -> Result<bool, String> {
    match &report.verdict {
        OracleVerdict::Match => Ok(true),
        OracleVerdict::Inconclusive(_) => Ok(false),
        other => Err(format!("{phase} phase: {other:?}")),
    }
}

/// `run_program`'s calls made one by one, each in its own span: lowering
/// and the three oracle phases. Then, outside the operation, probes that
/// split the phases' work into layers: a fresh predecode, a scalar run,
/// the clean DSA run without and with a `Collector`, and one snapshot
/// round trip at the resume phase's kill point.
fn traced_program(
    log: &mut SpanLog,
    layers: &mut Layers,
    op: u64,
    spec: &ProgramSpec,
    config: DsaConfig,
) -> Result<Measured, String> {
    let cpu = thread_cpu_us();
    let root = log.enter("forge.op", op);
    let (prog, _) = log.leaf("compiler.lower", op, || lower(spec));
    let program = &prog.kernel.program;
    let oracle = DifferentialOracle::new(FORGE_FUEL);
    let sink = Shared::new(Collector::new());
    let mut clean_dsa = Dsa::new(config);
    clean_dsa.attach_sink(sink.clone());
    let (clean, _) = log.leaf("core.oracle_clean", op, || {
        oracle.check_with(program, &mut clean_dsa, prog.init())
    });
    let mut faulted = Dsa::new(config);
    faulted.arm_schedule(fault_schedule(spec.seed));
    let (fault, _) = log.leaf("core.oracle_fault", op, || {
        oracle.check_with(program, &mut faulted, prog.init())
    });
    let (resume, _) = log.leaf("core.oracle_resume", op, || {
        oracle.check_resume(program, config, prog.init(), kill_at(spec.seed))
    });
    log.exit(root);
    let op_us = thread_cpu_us() - cpu;

    let mut inconclusive = 0;
    for (report, phase) in [(&clean, "clean"), (&fault, "fault"), (&resume, "resume")] {
        inconclusive += u32::from(!phase_verdict(report, phase)?);
    }
    let (mut classified, mut vectorized) = (Vec::new(), Vec::new());
    sink.with(|c| {
        layers.collector_events += c.events.len() as u64;
        for ev in &c.events {
            match ev {
                Event::LoopClassified { class, .. } => classified.push(*class),
                Event::LoopVectorized { class, .. } => vectorized.push(*class),
                _ => {}
            }
        }
    });

    // Probes, outside the operation.
    let init = prog.init();
    log.leaf("cpu.decode_first", op, || DecodedProgram::decode(program));
    let mut scalar = sim_for(program, &init);
    let (base, base_us) = log.leaf("cpu.block", op, || scalar.run(FORGE_FUEL));
    let mut bare = sim_for(program, &init);
    let mut bare_dsa = Dsa::new(config);
    let mut sunk = sim_for(program, &init);
    let mut sunk_dsa = Dsa::new(config);
    sunk_dsa.attach_sink(Shared::new(Collector::new()));
    let mut sink_run = |log: &mut SpanLog| {
        log.leaf("trace.sink_run", op, || {
            sunk.run_with_hook(FORGE_FUEL, &mut sunk_dsa)
        })
        .1
    };
    // The second of two runs of a program finds warmer caches, so the
    // with- and without-sink runs alternate which goes first.
    let sunk_first = op.is_multiple_of(2);
    let sunk_us = if sunk_first { sink_run(log) } else { 0.0 };
    let (run, dsa_us) = log.leaf("core.dsa.full", op, || {
        bare.run_with_hook(FORGE_FUEL, &mut bare_dsa)
    });
    let sunk_us = if sunk_first { sunk_us } else { sink_run(log) };
    layers.with_sink_us += sunk_us;
    layers.without_sink_us += dsa_us;
    let base = base.map_err(|e| format!("scalar probe: {e}"))?;
    let run = run.map_err(|e| format!("DSA probe: {e}"))?;
    if scalar.machine().arch_digest() != bare.machine().arch_digest() {
        return Err("DSA probe's final state differs from the scalar probe's".into());
    }
    layers.block_committed += base.committed;
    layers.dsa_committed += run.committed;
    let mut first = sim_for(program, &init);
    let mut first_dsa = Dsa::new(config);
    if let Ok(BoundedOutcome::Paused) = first.run_bounded(kill_at(spec.seed), &mut first_dsa) {
        let (bytes, _) = log.leaf("core.snapshot_encode", op, || {
            Snapshot::capture(&first_dsa, first.machine()).to_bytes()
        });
        layers.snapshots += 1;
        layers.snapshot_bytes += bytes.len() as u64;
        let (restored, _) = log.leaf("core.snapshot_restore", op, || Dsa::restore(&bytes, config));
        restored.map_err(|e| format!("snapshot probe: restore failed: {e}"))?;
    }

    let outcome = ProgramOutcome {
        hash: spec.structural_hash(),
        failure: None,
        inconclusive,
        classified,
        vectorized,
    };
    Ok(Measured {
        outcome,
        op_us,
        dsa_us,
        base_us,
        counts: counts_of(&base, &run, bare_dsa.stats()),
    })
}
