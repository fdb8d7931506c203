//! Golden snapshot of the telemetry stream: a deterministic kernel run
//! twice through one engine (run 2 hits the DSA cache) must reproduce a
//! checked-in `dsa-trace/v2` JSONL document byte for byte.
//!
//! The snapshot pins the *observable contract* — event vocabulary, field
//! names, ordering and every cycle number — so an accidental change to
//! emission order or latency accounting shows up as a readable diff, not
//! a silent drift. Regenerate deliberately with:
//!
//! ```text
//! DSA_BLESS=1 cargo test -p dsa-core --test trace_golden
//! ```

use dsa_compiler::{Body, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};
use dsa_core::{Dsa, DsaConfig};
use dsa_cpu::{CpuConfig, Machine, Simulator};
use dsa_trace::{header_line, validate_document, Collector, Shared};

const FUEL: u64 = 10_000_000;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/count_trace.jsonl")
}

/// `v[i] = a[i] + b[i]` over `n` i32 elements — a plain count loop with
/// fully deterministic init.
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

/// The full JSONL document of the snapshot scenario: header line plus
/// every event from two runs sharing one engine.
fn traced_document() -> String {
    let (kernel, init) = count_kernel(64);
    let sink = Shared::new(Collector::new());
    let mut dsa = Dsa::new(DsaConfig::full());
    dsa.attach_sink(sink.clone());
    for run in 0..2 {
        let mut sim = Simulator::new(kernel.program.clone(), CpuConfig::default());
        init(sim.machine_mut());
        let mut boundary = sink.clone();
        let out = sim
            .run_traced(FUEL, &mut dsa, &mut boundary)
            .unwrap_or_else(|e| panic!("run {run} failed: {e}"));
        assert!(out.halted, "run {run} hit the watchdog");
    }
    dsa.finish_trace();
    let mut doc = header_line();
    doc.push('\n');
    sink.with(|c| {
        for ev in &c.events {
            doc.push_str(&ev.to_json_line());
            doc.push('\n');
        }
    });
    doc
}

#[test]
fn traced_run_is_deterministic() {
    assert_eq!(traced_document(), traced_document(), "same program, same engine, same trace");
}

#[test]
fn golden_document_is_schema_valid() {
    let doc = traced_document();
    let n = validate_document(&doc).unwrap_or_else(|(line, msg)| panic!("line {line}: {msg}"));
    // Two runs of a vectorizing count loop produce a non-trivial stream:
    // brackets, detection, stage activations, cache traffic, a cache hit.
    assert!(n >= 20, "suspiciously small stream: {n} records");
}

#[test]
fn golden_trace_matches_snapshot() {
    let doc = traced_document();
    let path = golden_path();
    if std::env::var("DSA_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, &doc).expect("write golden");
        eprintln!("blessed {} ({} bytes)", path.display(), doc.len());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             DSA_BLESS=1 cargo test -p dsa-core --test trace_golden",
            path.display()
        )
    });
    if doc != want {
        let diff_at = doc
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| doc.lines().count().min(want.lines().count()) + 1);
        panic!(
            "trace diverged from golden snapshot at line {diff_at}\n\
             got  {} lines, want {} lines\n\
             got:  {}\n\
             want: {}\n\
             If the change is intentional, re-bless with \
             DSA_BLESS=1 cargo test -p dsa-core --test trace_golden",
            doc.lines().count(),
            want.lines().count(),
            doc.lines().nth(diff_at - 1).unwrap_or("<eof>"),
            want.lines().nth(diff_at - 1).unwrap_or("<eof>"),
        );
    }
}
