//! `grid`: the 52 `paper_grid()` combos at `Scale::Paper`, each run
//! through `run_built` on this one thread, repeated in whole passes.
//!
//! This is the work `all_experiments` does, minus the memoising
//! `RunCache`. About three quarters of a pass is DSA-attached (the
//! per-commit step loop) and a quarter is the scalar block path.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use dsa_bench::cache::{paper_grid, Workload};
use dsa_bench::{run_built, System, FUEL};
use dsa_core::{Dsa, DsaStats};
use dsa_cpu::{CpuConfig, Simulator};
use dsa_energy::{EnergyModel, EnergyTable};
use dsa_workloads::{BuiltWorkload, Scale};

use crate::host::thread_cpu_us;
use crate::spans::{SpanLog, SpanTotals};
use crate::stats::{PerKey, Ratio};
use crate::{Ctx, Outcome};

/// Passes every run makes at least: identity across repeats needs two.
const MIN_PASSES: usize = 2;

/// Passes a run may make per second of its window (18 in 30 s). A pass
/// takes 1.2-1.7 s on one thread, so a run ends at this budget or at
/// the window. Either way its samples stay on the p95 rung of the tail
/// ladder: p99 would need 1000 samples, 20 passes.
const PASSES_PER_S: f64 = 0.6;

/// Everything one combo run must repeat exactly on every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    cycles: u64,
    committed: u64,
    detection_cycles: u64,
    loops_detected: u64,
    loops_vectorized: u64,
    dsa_cache_hits: u64,
    dsa_cache_misses: u64,
    /// `arch_digest` of the final machine (traced runs only: `run_built`
    /// does not hand its machine back).
    digest: Option<u64>,
}

impl Fingerprint {
    fn new(cycles: u64, committed: u64, dsa: Option<&DsaStats>) -> Self {
        let d = dsa.copied().unwrap_or_default();
        Fingerprint {
            cycles,
            committed,
            detection_cycles: d.detection_cycles,
            loops_detected: d.loops_detected,
            loops_vectorized: d.loops_vectorized,
            dsa_cache_hits: d.dsa_cache_hits,
            dsa_cache_misses: d.dsa_cache_misses,
            digest: None,
        }
    }
}

fn class(system: System) -> &'static str {
    if system.dsa_config().is_some() {
        "dsa"
    } else {
        "base"
    }
}

fn mode_span(system: System) -> &'static str {
    match system {
        System::DsaOriginal => "core.dsa.original",
        System::DsaExtended => "core.dsa.extended",
        _ => "core.dsa.full",
    }
}

type Combo = (Workload, System, BuiltWorkload);

fn build_all(log: Option<&mut SpanLog>) -> Vec<Combo> {
    let mut log = log;
    paper_grid()
        .into_iter()
        .map(|(w, s)| {
            let built = match log.as_deref_mut() {
                Some(log) => {
                    log.leaf("workloads.build", 0, || w.build(s, Scale::Paper))
                        .0
                }
                None => w.build(s, Scale::Paper),
            };
            (w, s, built)
        })
        .collect()
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut log = SpanLog::new(ctx.origin);
    let combos = build_all(ctx.traced.then_some(&mut log));
    out.setup_s = ctx.origin.elapsed().as_secs_f64();
    if ctx.setup_only {
        return out;
    }

    let mut per_key = PerKey::default();
    let mut first: Vec<Option<Fingerprint>> = vec![None; combos.len()];
    let mut decoded = HashSet::new();
    let mut layer_committed: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut passes = 0;
    let mut op = 0u64;
    let budget = MIN_PASSES.max((ctx.seconds * PASSES_PER_S) as usize);
    let measure = Instant::now();
    while passes < MIN_PASSES || (passes < budget && measure.elapsed().as_secs_f64() < ctx.seconds)
    {
        for (i, (w, system, built)) in combos.iter().enumerate() {
            op += 1;
            out.attempted += 1;
            let key = format!("{}|{system:?}", w.describe());
            let cpu = thread_cpu_us();
            let (result, sim) = if ctx.traced {
                match traced_run(
                    &mut log,
                    op,
                    built,
                    *system,
                    &mut decoded,
                    &mut layer_committed,
                ) {
                    Ok((fp, sim)) => (Ok(fp), Some(sim)),
                    Err(e) => (Err(e), None),
                }
            } else {
                let r = run_built(built, *system)
                    .map(|r| Fingerprint::new(r.cycles(), r.outcome.committed, r.dsa.as_ref()))
                    .map_err(|e| e.to_string());
                (r, None)
            };
            let us = thread_cpu_us() - cpu;
            // Outside the timed operation: the final state's digest.
            let result = result.map(|fp| Fingerprint {
                digest: sim.map(|s| s.machine().arch_digest()),
                ..fp
            });
            match result {
                Ok(fp) => match first[i] {
                    Some(want) if want != fp => {
                        out.fail(format!(
                            "{key}: pass {} differs from pass 1: {fp:?} vs {want:?}",
                            passes + 1
                        ));
                    }
                    _ => {
                        first[i] = Some(fp);
                        per_key.record(&key, class(*system), us, fp.committed);
                        out.latency_us.push(us);
                    }
                },
                Err(e) => out.fail(format!("{key}: {e}")),
            }
        }
        passes += 1;
    }

    let fps: Vec<Fingerprint> = first.iter().flatten().copied().collect();
    let sum = |f: fn(&Fingerprint) -> u64| fps.iter().map(f).sum::<u64>();
    out.counts
        .insert("sim.committed".into(), sum(|f| f.committed));
    out.counts.insert("sim.cycles".into(), sum(|f| f.cycles));
    out.counts
        .insert("core.detection_cycles".into(), sum(|f| f.detection_cycles));
    out.counts
        .insert("core.loops_detected".into(), sum(|f| f.loops_detected));
    out.counts
        .insert("core.loops_vectorized".into(), sum(|f| f.loops_vectorized));
    out.counts
        .insert("core.dsa_cache_hits".into(), sum(|f| f.dsa_cache_hits));
    out.counts
        .insert("core.dsa_cache_misses".into(), sum(|f| f.dsa_cache_misses));

    out.ops_per_s = per_key.ops_per_s();
    out.mips_dsa = per_key.mips("dsa").unwrap_or(0.0);
    out.mips_base = per_key.mips("base").unwrap_or(0.0);
    out.notes.push(format!(
        "grid: {passes} passes over {} combos at Scale::Paper on one thread; rates from per-combo medians",
        per_key.keys()
    ));

    if ctx.traced {
        let s = log.summary();
        let total = |name: &str| s.get(name).map_or(0.0, |t| t.total_us);
        let mean = |name: &str| s.get(name).map_or(0.0, SpanTotals::mean_us);
        let l = &mut out.layers;
        l.insert("workloads.build_ms".into(), total("workloads.build") / 1e3);
        l.insert("cpu.decode_ms".into(), mean("cpu.decode_first") / 1e3);
        l.insert("cpu.decode_calls".into(), decoded.len() as f64);
        l.insert("cpu.block_s".into(), total("cpu.block") / 1e6);
        let rate = |name: &str| {
            let us = total(name);
            if us > 0.0 {
                layer_committed.get(name).copied().unwrap_or(0) as f64 / us
            } else {
                0.0
            }
        };
        l.insert("cpu.block_mips".into(), rate("cpu.block"));
        for (mode, name) in [
            ("original", "core.dsa.original"),
            ("extended", "core.dsa.extended"),
            ("full", "core.dsa.full"),
        ] {
            l.insert(format!("core.dsa_s.{mode}"), total(name) / 1e6);
            l.insert(format!("core.dsa_mips.{mode}"), rate(name));
        }
        l.insert("energy.evaluate_us".into(), mean("energy.evaluate"));
        out.spans = Some(log);
    }
    let detected = out.counts["core.loops_detected"];
    let vectorized = out.counts["core.loops_vectorized"];
    let hits = out.counts["core.dsa_cache_hits"];
    let lookups = hits + out.counts["core.dsa_cache_misses"];
    out.ratio(
        "core.loops_vectorized_ratio",
        Ratio {
            part: vectorized,
            base: detected,
        },
        "vectorized",
        "detected loops (one pass)",
    );
    out.ratio(
        "core.dsa_cache_hit_ratio",
        Ratio {
            part: hits,
            base: lookups,
        },
        "hits",
        "DSA-cache lookups (one pass)",
    );
    out
}

/// `run_built`, replayed call by call with a span around each layer.
/// Returns the run's fingerprint and its simulator, whose final state
/// the caller digests after the operation's time is taken.
fn traced_run(
    log: &mut SpanLog,
    op: u64,
    w: &BuiltWorkload,
    system: System,
    decoded: &mut HashSet<u64>,
    committed: &mut BTreeMap<&'static str, u64>,
) -> Result<(Fingerprint, Simulator), String> {
    let root = log.enter("grid.op", op);
    let (mut sim, _) = log.leaf("cpu.setup", op, || {
        let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
        (w.init)(sim.machine_mut());
        for buf in w.kernel.layout.bufs() {
            sim.warm_region(buf.base, buf.size_bytes());
        }
        sim
    });
    let (run, layer, dsa) = match system.dsa_config() {
        None => {
            let first = decoded.insert(w.kernel.program.content_hash());
            let name = if first {
                "cpu.decode_first"
            } else {
                "cpu.decode"
            };
            log.leaf(name, op, || sim.predecode());
            let (run, _) = log.leaf("cpu.block", op, || sim.run(FUEL));
            (run, "cpu.block", None)
        }
        Some(cfg) => {
            let mut dsa = Dsa::new(cfg);
            let layer = mode_span(system);
            let (run, _) = log.leaf(layer, op, || sim.run_with_hook(FUEL, &mut dsa));
            (run, layer, Some(dsa))
        }
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            log.exit(root);
            return Err(e.to_string());
        }
    };
    let (ok, _) = log.leaf("workloads.check", op, || w.check(sim.machine()));
    let stats = dsa.as_ref().map(|d| d.stats());
    log.leaf("energy.evaluate", op, || {
        EnergyModel::new(EnergyTable::default()).evaluate(&outcome, stats.as_ref())
    });
    // `run_built` also hands the loop census back with its result.
    std::hint::black_box(dsa.as_ref().map(|d| d.census()));
    log.exit(root);
    if !ok {
        return Err(format!(
            "checksum {:#x} != golden {:#x}",
            w.actual(sim.machine()),
            w.expected
        ));
    }
    *committed.entry(layer).or_default() += outcome.committed;
    Ok((
        Fingerprint::new(outcome.cycles, outcome.committed, stats.as_ref()),
        sim,
    ))
}
