//! Golden snapshot of the columnar trace encoding: the same
//! deterministic two-run scenario as `trace_golden`, encoded as
//! `dsa-tracebin/v2`, must reproduce a checked-in binary byte for byte.
//!
//! The snapshot pins the *wire format* — magic, block layout, column
//! order, varint/delta choices, string-table numbering — so a change to
//! the encoder shows up as a failed diff, not as archived traces that
//! newer readers silently misparse. It also pins the headline claim of
//! the format: the binary twin stays at least 5x smaller than the JSONL
//! document for the same event stream, and every CRC-guarded block
//! rejects single-bit corruption instead of decoding garbage.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! DSA_BLESS=1 cargo test -p dsa-core --test tracebin_golden
//! ```

use dsa_compiler::{Body, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};
use dsa_core::{Dsa, DsaConfig};
use dsa_cpu::{CpuConfig, Machine, Simulator};
use dsa_trace::{header_line, Collector, Event, Shared};

const FUEL: u64 = 10_000_000;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/count_trace.trcb")
}

/// `v[i] = a[i] + b[i]` over `n` i32 elements — the same kernel as the
/// JSONL golden, so the two snapshots pin the same event stream.
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

/// The snapshot scenario's event stream: two runs sharing one engine
/// (run 2 hits the DSA cache).
fn traced_events() -> Vec<Event> {
    let (kernel, init) = count_kernel(64);
    let sink = Shared::new(Collector::new());
    let mut dsa = Dsa::new(DsaConfig::full().with_trace());
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
    sink.with(|c| c.events.clone())
}

fn jsonl_twin(events: &[Event]) -> String {
    let mut doc = header_line();
    doc.push('\n');
    for ev in events {
        doc.push_str(&ev.to_json_line());
        doc.push('\n');
    }
    doc
}

#[test]
fn columnar_encoding_matches_golden_snapshot() {
    let events = traced_events();
    let bytes = dsa_trace::encode(&events);

    let path = golden_path();
    if std::env::var_os("DSA_BLESS").is_some() {
        std::fs::write(&path, &bytes).expect("bless golden binary trace");
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run DSA_BLESS=1 cargo test -p dsa-core \
             --test tracebin_golden",
            path.display()
        )
    });
    if bytes != golden {
        let first_diff = bytes
            .iter()
            .zip(golden.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| bytes.len().min(golden.len()));
        panic!(
            "columnar encoding drifted from golden snapshot: {} bytes now vs {} blessed, \
             first difference at offset {first_diff}. If the wire format changed \
             deliberately, bump BIN_SCHEMA and re-bless with DSA_BLESS=1.",
            bytes.len(),
            golden.len()
        );
    }

    // Decoding the blessed bytes must reproduce the live event stream.
    let decoded = dsa_trace::decode(&golden).expect("golden must decode");
    assert_eq!(decoded, events, "golden bytes must round-trip to the live stream");
}

#[test]
fn columnar_golden_is_at_least_5x_smaller_than_jsonl() {
    let events = traced_events();
    let binary = dsa_trace::encode(&events).len();
    let jsonl = jsonl_twin(&events).len();
    assert!(
        jsonl >= 5 * binary,
        "compression claim regressed: {binary} binary bytes vs {jsonl} JSONL bytes \
         ({:.1}x, need >= 5x)",
        jsonl as f64 / binary as f64
    );
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let events = traced_events();
    let golden = dsa_trace::encode(&events);
    let mut undetected = Vec::new();
    for byte in 0..golden.len() {
        for bit in 0..8 {
            let mut corrupt = golden.clone();
            corrupt[byte] ^= 1 << bit;
            match dsa_trace::decode(&corrupt) {
                Err(_) => {}
                // A flip that still decodes must at least not silently
                // alter the stream (it never happens for this golden,
                // but the invariant we insist on is "no garbage").
                Ok(decoded) if decoded == events => undetected.push((byte, bit)),
                Ok(_) => panic!(
                    "bit flip at byte {byte} bit {bit} decoded to a DIFFERENT stream \
                     without an error — CRC guard is broken"
                ),
            }
        }
    }
    assert!(
        undetected.is_empty(),
        "{} bit flips decoded back to the original stream (first: {:?}) — \
         corruption should not be a no-op",
        undetected.len(),
        undetected.first()
    );
}
