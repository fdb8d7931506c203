//! Inspection tool: disassembles a workload, shows the static
//! vectorizer's per-loop verdicts, then runs the full DSA and reports
//! what it detected, classified and vectorized — with optional
//! telemetry export.
//!
//! ```text
//! cargo run --release -p dsa-bench --bin inspect -- bitcounts
//! cargo run --release -p dsa-bench --bin inspect -- susan --scale large
//! DSA_TRACE=out.jsonl cargo run -p dsa-bench --bin inspect -- bitcounts --trace
//! ```
//!
//! `--trace` attaches the telemetry sinks: the per-loop table printed at
//! the end, the metrics registry, and — when a path is given via
//! `--trace=<file>` or the `DSA_TRACE` environment variable — the JSONL
//! exporter plus a Chrome-trace (`<file>.perfetto.json`) timeline
//! loadable in Perfetto.

use dsa_bench::{improvement_pct, run_built, System, FUEL};
use dsa_compiler::Variant;
use dsa_core::Dsa;
use dsa_cpu::CpuConfig;
use dsa_trace::{
    perfetto_path, trace_path_from_env, Fanout, JsonlSink, LoopTableSink, PerfettoSink, Shared,
    SharedMetrics, TraceSink,
};
use dsa_workloads::{build, BuiltWorkload, Scale, WorkloadId};

const USAGE: &str = "\
usage: inspect [WORKLOAD] [--scale small|medium|paper|large] [--system SYSTEM] [--trace[=FILE]]

  WORKLOAD   mm | rgb | gaussian | susan | qsort | dijkstra | bitcounts
             (default: rgb)
  --scale    problem size (default: small)
  --system   original | autovec | handvec | dsa-original | dsa-extended |
             dsa-full (default: dsa-full)
  --trace    attach telemetry sinks; export JSONL (+ Perfetto timeline)
             to FILE, or to $DSA_TRACE when FILE is omitted";

fn usage_error(msg: &str) -> ! {
    eprintln!("inspect: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    id: WorkloadId,
    scale: Scale,
    system: System,
    trace: bool,
    trace_path: Option<String>,
}

fn parse_workload(s: &str) -> Option<WorkloadId> {
    match s {
        "mm" | "matmul" => Some(WorkloadId::MatMul),
        "rgb" | "rgb-gray" => Some(WorkloadId::RgbGray),
        "gaussian" => Some(WorkloadId::Gaussian),
        "susan" => Some(WorkloadId::SusanEdges),
        "qsort" => Some(WorkloadId::QSort),
        "dijkstra" => Some(WorkloadId::Dijkstra),
        "bitcounts" => Some(WorkloadId::BitCounts),
        _ => None,
    }
}

fn parse_system(s: &str) -> Option<System> {
    match s {
        "original" => Some(System::Original),
        "autovec" => Some(System::AutoVec),
        "handvec" => Some(System::HandVec),
        "dsa-original" => Some(System::DsaOriginal),
        "dsa-extended" => Some(System::DsaExtended),
        "dsa-full" | "dsa" => Some(System::DsaFull),
        _ => None,
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        id: WorkloadId::RgbGray,
        scale: Scale::Small,
        system: System::DsaFull,
        trace: false,
        trace_path: None,
    };
    let mut saw_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let arg = arg.to_lowercase();
        if let Some(rest) = arg.strip_prefix("--") {
            let (flag, inline) = match rest.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (rest, None),
            };
            let value = |it: &mut dyn Iterator<Item = String>| -> String {
                inline.clone().or_else(|| it.next()).unwrap_or_else(|| {
                    usage_error(&format!("--{flag} needs a value"))
                })
            };
            match flag {
                "scale" => {
                    let v = value(&mut it);
                    args.scale = Scale::parse(&v)
                        .unwrap_or_else(|| usage_error(&format!("unknown scale `{v}`")));
                }
                "system" => {
                    let v = value(&mut it);
                    args.system = parse_system(&v)
                        .unwrap_or_else(|| usage_error(&format!("unknown system `{v}`")));
                }
                "trace" => {
                    args.trace = true;
                    args.trace_path = inline;
                }
                "help" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => usage_error(&format!("unknown flag `--{other}`")),
            }
        } else if !saw_workload {
            saw_workload = true;
            args.id = parse_workload(&arg)
                .unwrap_or_else(|| usage_error(&format!("unknown workload `{arg}`")));
        } else {
            usage_error(&format!("unexpected argument `{arg}`"));
        }
    }
    if args.trace && args.trace_path.is_none() {
        args.trace_path = trace_path_from_env();
    }
    args
}

/// Runs the workload under a DSA system with the telemetry sinks
/// attached; returns the outcome plus snapshots of the fold-in sinks.
fn run_traced(
    w: &BuiltWorkload,
    system: System,
    trace_path: Option<&str>,
) -> (dsa_cpu::RunOutcome, dsa_core::DsaStats, dsa_core::LoopCensus, SharedMetrics, Shared<LoopTableSink>)
{
    let cfg = system.dsa_config().expect("traced run needs a DSA system");
    let metrics = SharedMetrics::new();
    let table = Shared::new(LoopTableSink::new());
    let mut fan = Fanout::new().with(metrics.clone()).with(table.clone());
    if let Some(path) = trace_path {
        match JsonlSink::create(path) {
            Ok(s) => fan = fan.with(s),
            Err(e) => {
                eprintln!("inspect: cannot create `{path}`: {e}");
                std::process::exit(1);
            }
        }
        let ppath = perfetto_path(path);
        match PerfettoSink::create(&ppath) {
            Ok(s) => fan = fan.with(s),
            Err(e) => {
                eprintln!("inspect: cannot create `{ppath}`: {e}");
                std::process::exit(1);
            }
        }
    }
    let shared = Shared::new(fan);

    let mut sim = w.simulator(CpuConfig::default());
    let mut dsa = Dsa::new(cfg.with_trace());
    dsa.attach_sink(shared.clone());
    let mut boundary = shared.clone();
    let outcome = sim.run_traced(FUEL, &mut dsa, &mut boundary).unwrap_or_else(|e| {
        eprintln!("error: simulation failed: {e}");
        std::process::exit(1);
    });
    dsa.finish_trace();
    shared.with(|f| f.finish());
    if !w.check(sim.machine()) {
        eprintln!("error: wrong result under {}", system.name());
        std::process::exit(1);
    }
    (outcome, dsa.stats(), dsa.census(), metrics, table)
}

fn print_loop_table(table: &Shared<LoopTableSink>) {
    let rows: Vec<Vec<String>> = table.with(|t| {
        t.rows()
            .map(|r| {
                vec![
                    format!("{:#x}", r.loop_id),
                    r.class.map_or("", |c| c.name()).to_string(),
                    r.detections.to_string(),
                    r.vectorized.to_string(),
                    r.covered_iters.to_string(),
                    r.rejections.to_string(),
                    r.last_rejection.map_or("-", |r| r.name()).to_string(),
                    r.rollbacks.to_string(),
                    r.dsa_cycles.to_string(),
                ]
            })
            .collect()
    });
    if rows.is_empty() {
        println!("  (no loops detected)");
        return;
    }
    let t = dsa_bench::render_table(
        &["loop", "class", "detects", "vec", "iters", "rej", "last-rejection", "rollbk", "dsa-cyc"],
        &rows,
    );
    for line in t.lines() {
        println!("  {line}");
    }
}

fn main() {
    let args = parse_args();
    let id = args.id;

    let scalar = build(id, Variant::Scalar, args.scale);
    println!(
        "== {} — scalar binary ({} instructions, scale {}) ==",
        id.name(),
        scalar.kernel.program.len(),
        args.scale.name()
    );
    println!("{}", scalar.kernel.program);

    println!("== static auto-vectorizer verdicts ==");
    let auto = build(id, Variant::AutoVec, args.scale);
    for r in &auto.kernel.reports {
        match (&r.vectorized, &r.inhibit) {
            (true, _) => println!("  {:<20} vectorized (pc {})", r.name, r.start_pc),
            (false, Some(reason)) => println!("  {:<20} scalar: {reason}", r.name),
            (false, None) => println!("  {:<20} scalar", r.name),
        }
    }

    let run = |w: &BuiltWorkload, system| {
        run_built(w, system).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    };

    if args.system.dsa_config().is_none() {
        // Non-DSA system: cycle comparison only.
        let sys_w = build(id, args.system.variant(), args.scale);
        let result = run(&sys_w, args.system);
        let base = run(&scalar, System::Original);
        println!("\n== {} ==", args.system.name());
        println!(
            "  cycles: {} original -> {} ({:+.1}%)",
            base.cycles(),
            result.cycles(),
            improvement_pct(base.cycles(), result.cycles())
        );
        return;
    }

    println!("\n== {} at runtime ==", args.system.name());
    let (outcome, stats, census, metrics, table) = if args.trace {
        run_traced(&scalar, args.system, args.trace_path.as_deref())
    } else {
        let result = run(&scalar, args.system);
        (
            result.outcome,
            result.dsa.expect("DSA run"),
            result.census.clone().expect("census"),
            SharedMetrics::new(),
            Shared::new(LoopTableSink::new()),
        )
    };
    println!(
        "  loop entries observed: {}, vectorized: {}, cache hits: {}, \
         iterations covered: {}, SIMD ops injected: {}",
        stats.loops_detected,
        stats.loops_vectorized,
        stats.dsa_cache_hits,
        stats.covered_iterations,
        stats.injected_ops,
    );
    println!(
        "  detection: {} DSA-side cycles ({:.2}% of {} total; runs in parallel)",
        stats.detection_cycles,
        100.0 * stats.detection_fraction(outcome.cycles),
        outcome.cycles,
    );
    println!("  loop census:");
    for (class, n) in census.iter() {
        println!("    {class}: {n}");
    }

    if args.trace {
        println!("\n== per-loop telemetry ==");
        print_loop_table(&table);
        let events = metrics.with(|m| {
            m.counters().filter(|(k, _)| k.starts_with("event.")).map(|(_, v)| v).sum::<u64>()
        });
        println!("  {events} events recorded");
        if let Some(path) = args.trace_path.as_deref() {
            println!("  JSONL trace:      {path}");
            println!("  Perfetto trace:   {} (load at https://ui.perfetto.dev)", perfetto_path(path));
        }
    }

    let base = run(&build(id, Variant::Scalar, args.scale), System::Original);
    println!(
        "\n  cycles: {} original -> {} with the DSA ({:+.1}%)",
        base.cycles(),
        outcome.cycles,
        improvement_pct(base.cycles(), outcome.cycles)
    );
}
