//! `dsa_serve` — the sharded simulation service daemon.
//!
//! Binds a loopback TCP listener and serves length-prefixed JSON job
//! frames (`dsa-serve/v1`) until the configured connection budget is
//! spent (or forever with `--connections 0`).
//!
//! ```text
//! dsa_serve [--port N] [--shards N] [--queue-cap N]
//!           [--checkpoint-every N] [--connections N] [--sample-rate N]
//!           [--chaos SEED --chaos-period-ms N --chaos-down-ms N]
//!           [--trace PATH]
//! ```
//!
//! `--trace` with a `.trcb` suffix writes the compact columnar
//! `dsa-tracebin/v2` encoding; any other suffix writes JSONL. On exit
//! the daemon prints the merged fleet metrics rollup (sampled
//! always-on telemetry; `--sample-rate 0` disables it).

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dsa_serve::loadgen::silence_injected_crashes;
use dsa_serve::{serve, Service, ServiceConfig};

struct Args {
    port: u16,
    connections: u32,
    cfg: ServiceConfig,
    chaos: Option<u64>,
    chaos_period_ms: u64,
    chaos_down_ms: u64,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 0,
        connections: 0,
        cfg: ServiceConfig::default(),
        chaos: None,
        chaos_period_ms: 100,
        chaos_down_ms: 50,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--port" => args.port = num(&flag, &val(&flag)?)? as u16,
            "--connections" => args.connections = num(&flag, &val(&flag)?)? as u32,
            "--shards" => args.cfg.shards = num(&flag, &val(&flag)?)? as u32,
            "--queue-cap" => args.cfg.queue_cap = num(&flag, &val(&flag)?)? as usize,
            "--checkpoint-every" => args.cfg.checkpoint_every = num(&flag, &val(&flag)?)?,
            "--sample-rate" => args.cfg.sample_rate = num(&flag, &val(&flag)?)? as u32,
            "--chaos" => args.chaos = Some(num(&flag, &val(&flag)?)?),
            "--chaos-period-ms" => args.chaos_period_ms = num(&flag, &val(&flag)?)?,
            "--chaos-down-ms" => args.chaos_down_ms = num(&flag, &val(&flag)?)?,
            "--trace" => args.trace = Some(val(&flag)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn num(flag: &str, text: &str) -> Result<u64, String> {
    text.parse::<u64>().map_err(|_| format!("{flag}: `{text}` is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(what) => {
            eprintln!("dsa_serve: {what}");
            return ExitCode::from(2);
        }
    };
    silence_injected_crashes();
    let service = Arc::new(Service::start(args.cfg));
    if let Some(path) = &args.trace {
        if path.ends_with(".trcb") {
            match dsa_trace::ColumnarWriter::create(path) {
                Ok(w) => service.attach_sink(w),
                Err(e) => {
                    eprintln!("dsa_serve: cannot create trace file {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("dsa_serve: cannot create trace file {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            service.attach_sink(dsa_trace::JsonlSink::new(std::io::BufWriter::new(file)));
        }
    }
    if let Some(seed) = args.chaos {
        service.start_chaos(
            seed,
            Duration::from_millis(args.chaos_period_ms.max(1)),
            Duration::from_millis(args.chaos_down_ms.max(1)),
        );
    }
    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dsa_serve: bind failed: {e}");
            return ExitCode::from(2);
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("dsa_serve: listening on {addr}"),
        Err(e) => eprintln!("dsa_serve: local_addr: {e}"),
    }
    let handled = serve(Arc::clone(&service), listener, args.connections);
    println!("dsa_serve: served {handled} connections");
    let fleet = service.fleet_metrics();
    if fleet.is_empty() {
        eprintln!("dsa_serve: fleet metrics: (sampling off)");
    } else {
        eprintln!("dsa_serve: fleet metrics (sampled):\n{}", fleet.report_text());
    }
    ExitCode::SUCCESS
}
