//! `trace_query` — cross-run trace analytics.
//!
//! Rolls any number of trace files — `dsa-trace/v2` JSONL and
//! `dsa-tracebin/v2` columnar, auto-sniffed and freely mixed — into the
//! fleet views a directory of soak/experiment runs needs: the core-cycle
//! span, cycles by stage (charges keyed by source, so a rollup over N
//! runs sums to the N single-file tables), cache-verdict and CIDP
//! distributions, and per-workload degradation/poison rates. Given one
//! file it is the single-run report.
//!
//! ```text
//! trace_query [--format table|jsonl] [--validate] <file-or-dir>...
//! DSA_TRACE=out.jsonl cargo run -p dsa-bench --bin inspect -- bitcounts --trace
//! cargo run -p dsa-bench --bin trace_query -- --validate out.jsonl
//! ```
//!
//! Directory arguments scan (one level) for `*.jsonl` and `*.trcb`.
//! `--validate` re-checks every file against its schema first and exits
//! 1 on the first violation; decoding errors (bad CRC, truncation,
//! malformed JSON) always fail the query. Forward-compat warnings from
//! newer JSONL writers go to stderr and do not fail.

use dsa_trace::{validate_document_verbose, Rollup, TraceFormat};

const USAGE: &str = "usage: trace_query [--format table|jsonl] [--validate] <file-or-dir>...";

enum Format {
    Table,
    Jsonl,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("trace_query: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("trace_query: {msg}");
    std::process::exit(1);
}

/// Expands one CLI path into trace files: a directory contributes its
/// `*.jsonl` and `*.trcb` entries (sorted for deterministic output), a
/// file contributes itself.
fn expand(path: &str) -> Vec<String> {
    let meta = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) => fail(&format!("cannot stat `{path}`: {e}")),
    };
    if !meta.is_dir() {
        return vec![path.to_string()];
    }
    let entries = match std::fs::read_dir(path) {
        Ok(e) => e,
        Err(e) => fail(&format!("cannot read directory `{path}`: {e}")),
    };
    let mut files: Vec<String> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("jsonl") | Some("trcb")
                )
        })
        .filter_map(|p| p.to_str().map(String::from))
        .collect();
    files.sort();
    if files.is_empty() {
        fail(&format!("`{path}` contains no *.jsonl or *.trcb trace files"));
    }
    files
}

/// The workload label a trace's engine events are attributed to: the
/// file stem (traces are written per run/workload).
fn label_of(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string()
}

/// `span` is the (min, max) core cycle over every event folded.
fn render_table_report(total: &Rollup, span: (u64, u64)) {
    println!("== rollup: {} runs, {} events ==", total.runs, total.events);
    if span.0 <= span.1 {
        println!("  core-cycle span: {}..{}", span.0, span.1);
    }

    println!("\n== cycles by stage (all runs) ==");
    let rows: Vec<Vec<String>> = total
        .charges
        .iter()
        .map(|(k, c)| {
            let share = if total.total_dsa_cycles == 0 {
                0.0
            } else {
                100.0 * c.dsa_cycles as f64 / total.total_dsa_cycles as f64
            };
            vec![
                k.to_string(),
                c.events.to_string(),
                c.dsa_cycles.to_string(),
                format!("{:.2}", c.dsa_cycles as f64 / c.events.max(1) as f64),
                format!("{share:.1}%"),
            ]
        })
        .collect();
    print!(
        "{}",
        dsa_bench::render_table(&["source", "events", "dsa-cycles", "mean", "share"], &rows)
    );
    println!("  total: {} DSA-side cycles", total.total_dsa_cycles);

    if !total.cache.is_empty() {
        println!("\n== cache verdicts ==");
        let rows: Vec<Vec<String>> = total
            .cache
            .iter()
            .map(|(&(cache, outcome), &n)| {
                vec![cache.to_string(), outcome.to_string(), n.to_string()]
            })
            .collect();
        print!("{}", dsa_bench::render_table(&["cache", "outcome", "count"], &rows));
    }

    if total.cidp.verdicts > 0 {
        println!("\n== CIDP verdicts ==");
        println!(
            "  {} verdicts over {} stream pairs: {} dependent, {} independent",
            total.cidp.verdicts, total.cidp.pairs, total.cidp.dependent, total.cidp.independent
        );
        if total.cidp.distances.count() > 0 {
            println!(
                "  predicted distances: n={} min={} max={}",
                total.cidp.distances.count(),
                total.cidp.distances.min(),
                total.cidp.distances.max()
            );
        }
    }

    if !total.workloads.is_empty() {
        println!("\n== per-workload lifecycle ==");
        let rows: Vec<Vec<String>> = total
            .workloads
            .iter()
            .map(|(k, t)| {
                vec![
                    k.clone(),
                    t.detected.to_string(),
                    t.vectorized.to_string(),
                    t.rejected.to_string(),
                    t.rolled_back.to_string(),
                    t.finished.to_string(),
                    format!("{:.3}", t.degradation_rate()),
                    t.poisoned.to_string(),
                    t.sim_faults.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            dsa_bench::render_table(
                &[
                    "workload", "detected", "vectorized", "rejected", "rolled-back", "finished",
                    "degradation", "poisoned", "sim-faults"
                ],
                &rows
            )
        );
    }

    println!("\n== event counts ==");
    let rows: Vec<Vec<String>> =
        total.types.iter().map(|(k, v)| vec![k.to_string(), v.to_string()]).collect();
    print!("{}", dsa_bench::render_table(&["type", "count"], &rows));
}

fn render_jsonl_report(total: &Rollup) {
    let mut out = format!(
        "{{\"schema\":\"dsa-trace-query/v1\",\"runs\":{},\"events\":{},\"total_dsa_cycles\":{}",
        total.runs, total.events, total.total_dsa_cycles
    );
    out.push_str(",\"charges\":{");
    for (i, (k, c)) in total.charges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{k}\":{{\"events\":{},\"dsa_cycles\":{}}}",
            c.events, c.dsa_cycles
        ));
    }
    out.push_str("},\"cache\":{");
    for (i, (&(cache, outcome), &n)) in total.cache.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{cache}/{outcome}\":{n}"));
    }
    out.push_str(&format!(
        "}},\"cidp\":{{\"verdicts\":{},\"dependent\":{},\"independent\":{},\"pairs\":{}}}",
        total.cidp.verdicts, total.cidp.dependent, total.cidp.independent, total.cidp.pairs
    ));
    out.push_str(",\"workloads\":{");
    for (i, (k, t)) in total.workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{k}\":{{\"detected\":{},\"vectorized\":{},\"rejected\":{},\"rolled_back\":{},\
             \"finished\":{},\"degradation_rate\":{:.6},\"poisoned\":{},\"faults\":{},\
             \"sim_faults\":{}}}",
            t.detected,
            t.vectorized,
            t.rejected,
            t.rolled_back,
            t.finished,
            t.degradation_rate(),
            t.poisoned,
            t.faults,
            t.sim_faults
        ));
    }
    out.push_str("},\"types\":{");
    for (i, (k, v)) in total.types.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":{v}"));
    }
    out.push_str("}}");
    println!("{out}");
}

fn main() {
    let mut format = Format::Table;
    let mut validate = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value =
                    it.next().unwrap_or_else(|| usage_error("--format needs a value"));
                format = match value.as_str() {
                    "table" => Format::Table,
                    "jsonl" => Format::Jsonl,
                    other => usage_error(&format!("unknown format `{other}`")),
                };
            }
            "--validate" => validate = true,
            "--help" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        usage_error("no trace files or directories given");
    }

    let files: Vec<String> = paths.iter().flat_map(|p| expand(p)).collect();
    let mut total = Rollup::new();
    let mut span = (u64::MAX, 0u64);
    for file in &files {
        let bytes = std::fs::read(file)
            .unwrap_or_else(|e| fail(&format!("cannot read `{file}`: {e}")));
        if validate && !dsa_trace::looks_binary(&bytes) {
            let text = std::str::from_utf8(&bytes)
                .unwrap_or_else(|_| fail(&format!("{file}: not UTF-8")));
            match validate_document_verbose(text) {
                Ok((_, warnings)) => {
                    for w in warnings {
                        eprintln!("trace_query: {file}: {w}");
                    }
                }
                Err((line, msg)) => fail(&format!("{file}:{line}: {msg}")),
            }
        }
        let loaded =
            dsa_trace::read_trace(&bytes).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
        for w in &loaded.warnings {
            eprintln!("trace_query: {file}: {w}");
        }
        let fmt = match loaded.format {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Binary => "tracebin",
        };
        eprintln!("trace_query: {file}: {} events ({fmt})", loaded.events.len());
        total.fold_file(&label_of(file), &loaded.events);
        for ev in &loaded.events {
            span = (span.0.min(ev.cycle()), span.1.max(ev.cycle()));
        }
    }

    match format {
        Format::Table => render_table_report(&total, span),
        Format::Jsonl => render_jsonl_report(&total),
    }
}
