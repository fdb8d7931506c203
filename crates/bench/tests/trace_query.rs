//! Cross-run ledger proof for `trace_query`: a directory of per-run
//! trace files — JSONL and columnar freely mixed — must roll up to
//! exactly the cycles the engines actually spent, and the rollup must
//! be insensitive to how the runs are partitioned (per-run rollups
//! merged == one rollup over everything) and to which encoding each
//! run happened to use.

use dsa_compiler::{Body, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};
use dsa_core::{Dsa, DsaConfig};
use dsa_cpu::{CpuConfig, Machine, Simulator};
use dsa_trace::{header_line, read_trace, Collector, Event, Rollup, Shared, TraceFormat};

const FUEL: u64 = 10_000_000;
const RUNS: usize = 8;

/// `v[i] = a[i] + b[i]` over `n` i32 elements with deterministic init.
fn count_kernel(n: u32) -> (dsa_compiler::Kernel, impl Fn(&mut Machine)) {
    let mut kb = KernelBuilder::new(Variant::Scalar);
    let a = kb.alloc("a", DataType::I32, n);
    let b = kb.alloc("b", DataType::I32, n);
    let v = kb.alloc("v", DataType::I32, n);
    let (la, lb) = (kb.layout().buf(a).base, kb.layout().buf(b).base);
    kb.emit_loop(LoopIr {
        name: "count".into(),
        trip: Trip::Const(n),
        elem: DataType::I32,
        body: Body::Map { dst: v.at(0), expr: Expr::load(a.at(0)) + Expr::load(b.at(0)) },
        ..LoopIr::default()
    });
    kb.halt();
    (kb.finish(), move |m: &mut Machine| {
        for i in 0..n {
            m.mem.write_u32(la + 4 * i, i.wrapping_mul(3));
            m.mem.write_u32(lb + 4 * i, i.wrapping_mul(5) ^ 0x55);
        }
    })
}

/// One traced run on a fresh engine: the collected event stream plus
/// the engine's own DSA-side cycle ledger.
fn traced_run(n: u32) -> (Vec<Event>, u64) {
    let (kernel, init) = count_kernel(n);
    let sink = Shared::new(Collector::new());
    let mut dsa = Dsa::new(DsaConfig::full());
    dsa.attach_sink(sink.clone());
    let mut sim = Simulator::new(kernel.program, CpuConfig::default());
    init(sim.machine_mut());
    let mut boundary = sink.clone();
    let out = sim.run_traced(FUEL, &mut dsa, &mut boundary).expect("run failed");
    assert!(out.halted, "run hit the watchdog");
    let cycles = dsa.stats().detection_cycles;
    dsa.finish_trace();
    (sink.with(|c| c.events.clone()), cycles)
}

fn jsonl_document(events: &[Event]) -> String {
    let mut doc = header_line();
    doc.push('\n');
    for ev in events {
        doc.push_str(&ev.to_json_line());
        doc.push('\n');
    }
    doc
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsa_trace_query_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The eight traced runs, persisted in a fresh scratch directory with
/// alternating encodings (`run<i>.trcb` for even `i`, `run<i>.jsonl`
/// for odd); returns the directory and each run's events and ledger.
fn mixed_run_dir(tag: &str) -> (std::path::PathBuf, Vec<(Vec<Event>, u64)>) {
    let runs: Vec<(Vec<Event>, u64)> =
        (0..RUNS).map(|i| traced_run(16 + 8 * i as u32)).collect();
    let dir = scratch_dir(tag);
    for (i, (events, _)) in runs.iter().enumerate() {
        if i % 2 == 0 {
            let path = dir.join(format!("run{i}.trcb"));
            std::fs::write(path, dsa_trace::encode(events)).expect("write binary trace");
        } else {
            let path = dir.join(format!("run{i}.jsonl"));
            std::fs::write(path, jsonl_document(events)).expect("write jsonl trace");
        }
    }
    (dir, runs)
}

#[test]
fn directory_rollup_matches_engine_cycle_ledger() {
    let (dir, runs) = mixed_run_dir("mixed");
    let expected_cycles: u64 = runs.iter().map(|(_, c)| c).sum();
    assert!(expected_cycles > 0, "workloads must exercise the DSA");

    // Roll the directory back up the way trace_query does: sniff each
    // file, fold under its stem.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    files.sort();
    assert_eq!(files.len(), RUNS);
    let mut whole = Rollup::new();
    let mut per_run: Vec<Rollup> = Vec::new();
    let (mut n_binary, mut n_jsonl) = (0, 0);
    for path in &files {
        let bytes = std::fs::read(path).expect("read trace back");
        let loaded = read_trace(&bytes).expect("decode trace");
        assert!(loaded.warnings.is_empty(), "own traces must not warn");
        match loaded.format {
            TraceFormat::Binary => n_binary += 1,
            TraceFormat::Jsonl => n_jsonl += 1,
        }
        let label = path.file_stem().unwrap().to_str().unwrap();
        whole.fold_file(label, &loaded.events);
        let mut one = Rollup::new();
        one.fold_file(label, &loaded.events);
        per_run.push(one);
    }
    assert_eq!((n_binary, n_jsonl), (4, 4), "the runs alternate encodings");

    // The rollup's cycle total is the engines' own ledger, exactly.
    assert_eq!(whole.runs, RUNS as u64);
    assert_eq!(whole.total.dsa_cycles(), expected_cycles, "rollup must match Σ detection_cycles");
    let charged: u64 = whole.total.charges().iter().map(|&(_, _, c)| c).sum();
    let event_cycles: u64 = runs.iter().flat_map(|(e, _)| e).map(Event::dsa_cycles).sum();
    assert_eq!(charged, event_cycles, "per-stage charges must sum to Σ event dsa_cycles");
    assert_eq!(whole.workloads.len(), RUNS, "one workload tally per run label");

    // Partition-insensitive: merging the per-run rollups reproduces the
    // whole-directory rollup field for field.
    let mut merged = Rollup::new();
    for one in &per_run {
        merged.merge(one);
    }
    assert_eq!(merged, whole, "merge of per-run rollups must equal the one-shot rollup");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn encoding_choice_is_invisible_to_the_rollup() {
    let runs: Vec<(Vec<Event>, u64)> =
        (0..RUNS).map(|i| traced_run(16 + 8 * i as u32)).collect();

    // Same runs, same stems, twice: once all-JSONL, once all-columnar.
    let mut as_jsonl = Rollup::new();
    let mut as_binary = Rollup::new();
    for (i, (events, _)) in runs.iter().enumerate() {
        let label = format!("run{i}");
        let j = read_trace(jsonl_document(events).as_bytes()).expect("jsonl decode");
        let b = read_trace(&dsa_trace::encode(events)).expect("binary decode");
        assert_eq!(j.events, b.events, "both encodings decode to the same stream");
        as_jsonl.fold_file(&label, &j.events);
        as_binary.fold_file(&label, &b.events);
    }
    assert_eq!(as_jsonl, as_binary, "rollup must not depend on the on-disk encoding");
}

#[test]
fn trace_query_binary_reports_the_same_totals() {
    let (dir, runs) = mixed_run_dir("bin");
    let expected_cycles: u64 = runs.iter().map(|(_, c)| c).sum();
    let expected_events: usize = runs.iter().map(|(e, _)| e.len()).sum();

    let stdout = query_stdout(&["--validate", "--format", "jsonl"], &dir);
    let line = stdout.lines().next().expect("one report line");
    assert!(line.starts_with("{\"schema\":\"dsa-trace-query/v1\""), "got: {line}");
    assert!(
        line.contains(&format!("\"runs\":{RUNS}")),
        "report must count {RUNS} runs: {line}"
    );
    assert!(
        line.contains(&format!("\"events\":{expected_events}")),
        "report must count {expected_events} events: {line}"
    );
    assert!(
        line.contains(&format!("\"total_dsa_cycles\":{expected_cycles}")),
        "report total must match the engine ledger ({expected_cycles}): {line}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `trace_query` with `args` over `dir`; returns its stdout.
fn query_stdout(args: &[&str], dir: &std::path::Path) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace_query"))
        .args(args)
        .arg(dir)
        .output()
        .expect("spawn trace_query");
    assert!(out.status.success(), "trace_query failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// Golden of both `trace_query` report forms over the eight runs plus
/// the every-event trace (harness rows, CIDP distances, every cache
/// outcome). Regenerate deliberately with:
///
/// ```text
/// DSA_BLESS=1 cargo test -p dsa-bench --test trace_query
/// ```
#[test]
fn trace_query_reports_match_the_golden() {
    let (dir, _) = mixed_run_dir("golden");
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    std::fs::copy(
        manifest.join("../trace/tests/golden/every_event.jsonl"),
        dir.join("every_event.jsonl"),
    )
    .expect("copy the every-event trace");

    for (format, file) in [("table", "trace_query.txt"), ("jsonl", "trace_query.jsonl")] {
        let live = query_stdout(&["--validate", "--format", format], &dir);
        let path = manifest.join("tests/golden").join(file);
        if std::env::var_os("DSA_BLESS").is_some() {
            std::fs::write(&path, &live).expect("bless golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run \
                 DSA_BLESS=1 cargo test -p dsa-bench --test trace_query",
                path.display()
            )
        });
        assert!(
            live == golden,
            "trace_query --format {format} drifted from {}:\n--- live\n{live}\n\
             --- blessed\n{golden}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
