//! Host-speed benchmark of the DSA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|forge|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload with a span around every layer call for half the time, then
//! runs this binary again untraced for the other half, checks that both
//! runs simulated identical counts, and reports the per-layer metrics
//! and the tracing overhead. A completed run's last line of standard
//! output is one JSON object; see `perfbench/README.md`.
//!
//! `--setup-only` (used by the binary itself) sets the workload up in
//! this fresh process, prints `setup_s <seconds>` and exits.

mod forge;
mod grid;
mod host;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use spans::SpanLog;
use stats::{median, tail, Ratio};

/// Processes whose cold set-up an untraced run times: itself and
/// `SETUP_PROCESSES - 1` fresh copies started after its measurement.
/// `setup_s` is the median. One cold set-up of a few milliseconds
/// reads up to 4x its median when the host preempts it.
pub const SETUP_PROCESSES: usize = 5;

/// End-to-end metrics, in `BENCHMARK.json` order: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mips_dsa", "MIPS"),
    ("mips_base", "MIPS"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order: name
/// and unit. A layer a workload never calls reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.build_ms", "ms"),
    ("compiler.lower_ms", "ms"),
    ("workloads.client_build_us", "us"),
    ("cpu.decode_ms", "ms"),
    ("cpu.decode_calls", "count"),
    ("cpu.block_s", "s"),
    ("cpu.block_mips", "MIPS"),
    ("core.dsa_s.original", "s"),
    ("core.dsa_s.extended", "s"),
    ("core.dsa_s.full", "s"),
    ("core.dsa_mips.original", "MIPS"),
    ("core.dsa_mips.extended", "MIPS"),
    ("core.dsa_mips.full", "MIPS"),
    ("core.oracle_clean_ms", "ms"),
    ("core.oracle_fault_ms", "ms"),
    ("core.oracle_resume_ms", "ms"),
    ("core.snapshot_encode_us", "us"),
    ("core.snapshot_restore_us", "us"),
    ("core.snapshot_bytes", "bytes"),
    ("trace.collector_events", "count"),
    ("trace.sink_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("energy.evaluate_us", "us"),
    ("serve.start_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.reply_us.hit", "us"),
    ("serve.reply_us.miss", "us"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.checkpoints", "count"),
    ("serve.sheds", "count"),
    ("serve.failed", "count"),
    ("sim.committed", "count"),
    ("sim.cycles", "count"),
    ("core.detection_cycles", "count"),
    ("core.loops_vectorized_ratio", "ratio"),
    ("core.dsa_cache_hit_ratio", "ratio"),
    ("forge.dedup_ratio", "ratio"),
    ("forge.cov.count", "count"),
    ("forge.cov.function", "count"),
    ("forge.cov.nest", "count"),
    ("forge.cov.conditional", "count"),
    ("forge.cov.dynamic-range", "count"),
    ("forge.cov.sentinel", "count"),
    ("forge.cov.partial", "count"),
    ("forge.cov.non-vectorizable", "count"),
    ("forge.cov.vectorized", "count"),
];

/// What one workload run hands back for reporting.
pub struct Ctx {
    /// Input seed (`forge`, `serve`; `grid`'s inputs are fixed).
    pub seed: u64,
    /// Measurement window after set-up.
    pub seconds: f64,
    /// Record spans around layer calls.
    pub traced: bool,
    /// Return right after set-up, with only `setup_s` measured.
    pub setup_only: bool,
    /// Process start, the origin of every span.
    pub origin: Instant,
}

/// The measured result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong, or that failed or were refused.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Process start to the first timed operation, s.
    pub setup_s: f64,
    /// Per-operation latency samples, µs.
    pub latency_us: Vec<f64>,
    /// Operations per second from per-operation medians.
    pub ops_per_s: f64,
    /// Simulated instructions per host µs, DSA-attached runs.
    pub mips_dsa: f64,
    /// The same for runs without the DSA.
    pub mips_base: f64,
    /// Simulated counts over a fixed prefix of the input stream; the
    /// traced and untraced runs must agree on every one.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<SpanLog>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// Records a per-layer ratio and prints it with its base.
    pub fn ratio(&mut self, name: &str, r: Ratio, part: &str, base: &str) {
        self.layers.insert(name.to_string(), r.value());
        self.notes
            .push(format!("{name} = {}", r.describe(part, base)));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

const USAGE: &str =
    "usage: dsa-perfbench --workload grid|forge|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["grid", "forge", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "grid" => grid::run(ctx),
        "forge" => forge::run(ctx),
        _ => serve::run(ctx),
    }
}

/// A metric value as JSON: all digits, and never NaN or infinite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_json(correct: bool, out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// The cold set-up time of a fresh process of this binary over the
/// same inputs.
fn fresh_setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &args.seconds.to_string(), "--setup-only"])
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .strip_prefix("setup_s ")
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| output.status.success())
        .ok_or(format!("set-up process exited {}: {stdout}", output.status))
}

/// `setup_s`: the median cold set-up over [`SETUP_PROCESSES`] processes.
fn setup_s(args: &Args, out: &mut Outcome) -> f64 {
    let mut times = vec![out.setup_s];
    for _ in 1..SETUP_PROCESSES {
        match fresh_setup_s(args) {
            Ok(t) => times.push(t),
            Err(e) => out.fail(e),
        }
    }
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.6}")).collect();
    out.notes.push(format!(
        "setup_s: median of {} cold set-ups, process start to first timed operation \
         (this process, then fresh ones): [{}] s",
        times.len(),
        shown.join(", ")
    ));
    median(&times).unwrap_or(0.0)
}

fn end_to_end(args: &Args, out: &mut Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let setup = setup_s(args, out);
    let latency_ms: Vec<f64> = out.latency_us.iter().map(|us| us / 1e3).collect();
    let p50 = median(&latency_ms).unwrap_or(0.0);
    let tail = tail(&latency_ms);
    match tail {
        Some(t) => out
            .notes
            .push(format!("latency_tail_ms: {}", t.describe("ms"))),
        None => out.fail(format!(
            "tail rule: only {} latency samples",
            out.latency_us.len()
        )),
    }
    let values = [
        setup,
        out.ops_per_s,
        out.mips_dsa,
        out.mips_base,
        p50,
        tail.map_or(0.0, |t| t.value),
        host::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

/// Runs this binary untraced over the same inputs and returns its
/// simulated counts and `ops_per_s`.
fn untraced_twin(args: &Args, seconds: f64) -> Result<(BTreeMap<String, u64>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("untraced run exited {}: {stdout}", output.status));
    }
    let mut counts = BTreeMap::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("count ") {
            let mut f = rest.split_whitespace();
            if let (Some(k), Some(v)) = (f.next(), f.next().and_then(|v| v.parse().ok())) {
                counts.insert(k.to_string(), v);
            }
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let ops = last
        .split("\"ops_per_s\": {\"value\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|v| v.parse().ok())
        .ok_or(format!("untraced run printed no ops_per_s: {last}"))?;
    Ok((counts, ops))
}

/// The traced run's report: runs the untraced twin, cross-checks the
/// simulated counts, prints the span summary, writes the spans out and
/// returns the per-layer metrics.
fn traced_report(
    args: &Args,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<(&'static str, &'static str, f64)> {
    match untraced_twin(args, seconds) {
        Ok((counts, ops)) => {
            let differing: Vec<String> = out
                .counts
                .iter()
                .filter(|(k, v)| counts.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}: traced {v}, untraced {:?}", counts.get(k)))
                .collect();
            if differing.is_empty() && counts.len() == out.counts.len() {
                out.notes.push(format!(
                    "cross-check: all {} simulated counts equal between the traced and untraced runs",
                    counts.len()
                ));
            } else {
                eprintln!("CROSS-CHECK FAILED: {differing:?}");
                out.fail(format!(
                    "cross-check: simulated counts differ: {differing:?}"
                ));
            }
            let overhead = (ops / out.ops_per_s - 1.0) * 100.0;
            out.notes.push(format!(
                "tracing overhead: untraced {ops:.3} ops/s vs traced {:.3} ops/s = {overhead:.2}%",
                out.ops_per_s
            ));
            out.layers.insert("trace.overhead_pct".into(), overhead);
        }
        Err(e) => out.fail(format!("cross-check: {e}")),
    }
    for (k, v) in &out.counts {
        if PER_LAYER.iter().any(|(n, _)| n == k) {
            out.layers.insert(k.clone(), *v as f64);
        }
    }
    if let Some(log) = &out.spans {
        println!(
            "{:<28} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in log.summary() {
            println!(
                "{name:<28} {:>9} {:>14.3} {:>14.3}",
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        match log.write_tsv(&path) {
            Ok(()) => println!("spans: {} written to {}", log.spans().len(), path.display()),
            Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
        }
    }
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, out.layers.get(n).copied().unwrap_or(0.0)))
        .collect()
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Telemetry would tax every grid run; the benchmark measures the
    // default, untelemetered path.
    std::env::remove_var("DSA_METRICS");
    let host = host::HostStart::read();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        traced: args.trace,
        setup_only: args.setup_only,
        origin,
    };
    let mut out = run_workload(&args.workload, &ctx);
    if args.setup_only {
        println!("setup_s {}", out.setup_s);
        return ExitCode::SUCCESS;
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        traced_report(&args, seconds, &mut out)
    } else {
        // The traced run's twin reads these to cross-check its counts.
        for (k, v) in &out.counts {
            println!("count {k} {v}");
        }
        end_to_end(&args, &mut out)
    };
    println!("{}", host.describe());
    for note in &out.notes {
        println!("{note}");
    }
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    let failed = Ratio {
        part: out.failed,
        base: out.attempted,
    };
    println!(
        "operations: attempted {}, failed {} (share {})",
        out.attempted,
        out.failed,
        failed.describe("failed", "attempted operations")
    );
    for (n, u, v) in &metrics {
        println!("{n:<28} = {v:.4} {u}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!("{}", result_json(correct, &out, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dsa-perfbench: {} of {} operations failed",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in this file are the ones `BENCHMARK.json`
    /// promises, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let field = |entry: &str, key: &str| -> String {
            let v = entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .expect("field present");
            v[..v.find('"').expect("string closes")].to_string()
        };
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = json
                .split(&format!("\"{section}\""))
                .nth(1)
                .expect("section present");
            let body = &body[..body.find(']').expect("list closes")];
            body.split('{')
                .skip(1)
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        let line = result_json(
            true,
            &out,
            &[("ops_per_s", "1/s", 12.5), ("setup_s", "s", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"ops_per_s\": \
             {\"value\": 12.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
