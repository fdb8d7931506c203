//! `dsa_loadgen` — the kill-and-recover soak driver.
//!
//! Drives hundreds of concurrent sessions against an in-process
//! service while the chaos controller kills shards on a seed-derived
//! schedule, then writes the audit report (JSON) and exits non-zero if
//! any admitted session was lost, any checksum missed its golden
//! reference, or any resume proof failed.
//!
//! ```text
//! dsa_loadgen [--sessions N] [--clients N] [--shards N] [--queue-cap N]
//!             [--checkpoint-every N] [--seed N] [--duration-ms N]
//!             [--fresh-pct N] [--panic-pct N] [--sample-rate N]
//!             [--no-chaos] [--chaos-period-ms N] [--chaos-down-ms N]
//!             [--report PATH] [--trace PATH]
//! ```
//!
//! `--trace` captures the service's full event stream: a `.trcb`
//! suffix selects the compact `dsa-tracebin/v2` columnar encoding, any
//! other suffix writes JSONL. Either form feeds `trace_query`.

use std::process::ExitCode;

use dsa_serve::{run_loadgen_traced, LoadConfig};
use dsa_trace::TraceSink;

fn parse_args() -> Result<(LoadConfig, Option<String>, Option<String>), String> {
    let mut cfg = LoadConfig::default();
    let mut report = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--no-chaos" {
            cfg.chaos = false;
            continue;
        }
        let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--report" {
            report = Some(text);
            continue;
        }
        if flag == "--trace" {
            trace = Some(text);
            continue;
        }
        let n = text.parse::<u64>().map_err(|_| format!("{flag}: `{text}` is not a number"))?;
        match flag.as_str() {
            "--sessions" => cfg.sessions = n as u32,
            "--clients" => cfg.clients = n as u32,
            "--shards" => cfg.service.shards = n as u32,
            "--queue-cap" => cfg.service.queue_cap = n as usize,
            "--checkpoint-every" => cfg.service.checkpoint_every = n,
            "--seed" => cfg.seed = n,
            "--duration-ms" => cfg.duration_ms = n,
            "--fresh-pct" => cfg.fresh_pct = n as u32,
            "--panic-pct" => cfg.panic_pct = n as u32,
            "--sample-rate" => cfg.service.sample_rate = n as u32,
            "--chaos-period-ms" => cfg.chaos_period_ms = n,
            "--chaos-down-ms" => cfg.chaos_down_ms = n,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((cfg, report, trace))
}

/// Opens the trace sink for `path`: columnar for `.trcb`, else JSONL.
fn trace_sink(path: &str) -> Result<Box<dyn TraceSink + Send>, String> {
    if path.ends_with(".trcb") {
        let w = dsa_trace::ColumnarWriter::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        Ok(Box::new(w))
    } else {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        Ok(Box::new(dsa_trace::JsonlSink::new(std::io::BufWriter::new(file))))
    }
}

fn main() -> ExitCode {
    let (cfg, report_path, trace_path) = match parse_args() {
        Ok(parsed) => parsed,
        Err(what) => {
            eprintln!("dsa_loadgen: {what}");
            return ExitCode::from(2);
        }
    };
    let sink = match trace_path.as_deref().map(trace_sink).transpose() {
        Ok(s) => s,
        Err(what) => {
            eprintln!("dsa_loadgen: {what}");
            return ExitCode::from(2);
        }
    };
    let report = run_loadgen_traced(&cfg, sink);
    let json = report.to_json();
    println!("{json}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("dsa_loadgen: cannot write report {path}: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "dsa_loadgen: {} admitted, {} completed, {} lost, {} mismatches, {} sheds, \
         {} cache hits, {} migrated, {} resumed, p50 {} ms, p99 {} ms, {} resume proofs \
         ({} failed), {} ms wall",
        report.admitted,
        report.completed,
        report.lost,
        report.mismatches,
        report.sheds,
        report.cache_hits,
        report.migrated_sessions,
        report.resumed_sessions,
        report.p50_ms,
        report.p99_ms,
        report.resume_checks,
        report.resume_failures,
        report.wall_ms,
    );
    eprintln!("{}", report.fleet_summary());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("dsa_loadgen: FAILED (lost sessions, checksum mismatch, or resume proof)");
        ExitCode::from(1)
    }
}
