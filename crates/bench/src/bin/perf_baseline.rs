//! Wall-clock throughput baseline for the superblock interpreter
//! (`BENCH_6.json`), in three sections:
//!
//! 1. **Scalar grid** (BENCH_5 continuity): every fixed workload — the
//!    seven paper applications plus the sentinel microkernel — is
//!    simulated twice on the scalar system, once pinned to the classic
//!    per-commit step loop ([`Stepped`]`(NullHook)`) and once on the
//!    predecoded block fast path ([`NullHook`]), and the minimum-of-N
//!    wall clock of each is reported as MIPS (committed instructions /
//!    second / 1e6).
//! 2. **DSA section**: the same step-vs-block pair with the full DSA
//!    attached (`Stepped(Dsa)` vs `Dsa`) on the sentinel microkernel,
//!    whose vectorized loop steps, and on RGB-Gray, whose plain
//!    vectorized loops retire as blocks. Run in `--micro-only` mode too.
//! 3. **Vector section**: the four vector-heavy applications (MM,
//!    RGB-Gray, Gaussian, Susan E) built with the hand-vectorized
//!    variant, run in block mode once per compiled-in host-SIMD
//!    backend (`portable`, then `sse2`/`avx2` or `neon` as detected).
//!    Every rep is an equivalence gate before it is a timing sample:
//!    cycles, committed count, architectural digest and output checksum
//!    must be bit-identical across backends and reps — the backend is a
//!    pure host-execution change.
//!
//! ```text
//! cargo run --release -p dsa-bench --bin perf_baseline              # full grid → BENCH_6.json
//! cargo run --release -p dsa-bench --bin perf_baseline -- \
//!     --micro-only --reps 3 --floor 2                               # CI throughput smoke
//! cargo run --release -p dsa-bench --bin perf_baseline -- \
//!     --compare BENCH_5.json --tolerance 10                         # regression gate
//! ```
//!
//! `--floor X` asserts the block-mode sentinel throughput stays above a
//! (deliberately generous) floor of X MIPS, catching order-of-magnitude
//! regressions in CI without flaking on machine noise, and that the DSA
//! section's RGB-Gray block/step speedup is at least X — it falls to
//! about 1x if the engine stops taking blocks. `--compare PATH`
//! diffs the scalar grid against a previous baseline JSON and exits
//! non-zero if total block throughput regressed by more than
//! `--tolerance` percent (default 10).

use std::time::Instant;

use dsa_bench::cache::{fixed_workloads, Workload};
use dsa_bench::FUEL;
use dsa_compiler::Variant;
use dsa_core::{Dsa, DsaConfig};
use dsa_cpu::{CommitHook, CpuConfig, NullHook, Simd, Simulator, Stepped};
use dsa_trace::json::{self, Value};
use dsa_workloads::{build, micro, BuiltWorkload, Scale, WorkloadId};

const USAGE: &str = "usage: perf_baseline [--reps N] [--out PATH] [--scale S] [--floor MIPS] \
     [--micro-only] [--compare PATH] [--tolerance PCT]";

/// The DSA section's plain-loop workload: its vectorized loops retire
/// as blocks, so its block/step ratio is the `--floor` tripwire.
/// RGB-Gray's read 2.7–4.2x over five `--reps 3` runs on a shared
/// 2-vCPU VM; MM's swung between 1.7x and 3x, and BitCounts' stays near
/// 1.1x.
const DSA_PLAIN: Workload = Workload::App(WorkloadId::RgbGray);

/// The DSA-attached section: the sentinel microkernel, whose vectorized
/// loop steps, beside [`DSA_PLAIN`].
const DSA_WORKLOADS: [Workload; 2] = [Workload::Micro(micro::Micro::Sentinel), DSA_PLAIN];

/// The vector-heavy applications measured per backend (the paper's
/// DLP-rich kernels; the other three are control-flow bound).
const VECTOR_APPS: [WorkloadId; 4] =
    [WorkloadId::MatMul, WorkloadId::RgbGray, WorkloadId::Gaussian, WorkloadId::SusanEdges];

fn usage_error(msg: &str) -> ! {
    eprintln!("perf_baseline: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    dsa_bench::fail(&format!("perf_baseline: {msg}"));
}

fn built(workload: Workload, scale: Scale) -> BuiltWorkload {
    match workload {
        Workload::App(id) => build(id, Variant::Scalar, scale),
        Workload::Micro(m) => micro::build(m, Variant::Scalar, scale),
    }
}

/// Everything one run must reproduce exactly for the grid to accept it
/// as a timing sample.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Facts {
    cycles: u64,
    committed: u64,
    checksum: u64,
    digest: u64,
}

/// One timed run under `hook` with the machine pinned to `simd`;
/// returns the run facts and wall-clock seconds.
fn run_once<H: CommitHook>(w: &BuiltWorkload, simd: Simd, hook: &mut H) -> (Facts, f64) {
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    sim.machine_mut().set_simd(simd);
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let t = Instant::now();
    let out = sim
        .run_with_hook(FUEL, hook)
        .unwrap_or_else(|e| fail(&format!("simulation failed: {e}")));
    let secs = t.elapsed().as_secs_f64();
    if !out.halted || !w.check(sim.machine()) {
        fail("workload produced a wrong result");
    }
    if out.simd_backend != simd.name() {
        fail(&format!(
            "backend pin did not hold: asked for {}, ran {}",
            simd.name(),
            out.simd_backend
        ));
    }
    let facts = Facts {
        cycles: out.cycles,
        committed: out.committed,
        checksum: w.actual(sim.machine()),
        digest: sim.machine().arch_digest(),
    };
    (facts, secs)
}

/// Interleaved min-of-N wall clock for one workload on both interpreter
/// shapes. Alternating step/block samples inside one loop (instead of
/// two back-to-back batches) keeps slow machine-load drift from landing
/// wholesale on one mode — the same discipline `trace_overhead_guard`
/// uses. Every rep pair is also an equivalence check: the run facts
/// must be bit-identical across modes and reps. `block` builds a fresh
/// hook per run and `Stepped(block())` is its step-mode twin.
fn measure<H: CommitHook>(
    workload: Workload,
    scale: Scale,
    reps: u32,
    block: impl Fn() -> H,
) -> Result<Row, String> {
    let w = &built(workload, scale);
    let simd = Simd::active();
    // Warm-up: page-in, branch-predict the host loops, fill the shared
    // predecode cache.
    let _ = run_once(w, simd, &mut Stepped(block()));
    let _ = run_once(w, simd, &mut block());
    let (mut step_best, mut block_best) = (f64::INFINITY, f64::INFINITY);
    let mut facts: Option<Facts> = None;
    for _ in 0..reps {
        let (s, s_secs) = run_once(w, simd, &mut Stepped(block()));
        let (b, b_secs) = run_once(w, simd, &mut block());
        if s != b {
            return Err(format!(
                "block mode diverged from step mode (cycles {} vs {}, committed {} vs {}, \
                 checksum {:#x} vs {:#x})",
                s.cycles, b.cycles, s.committed, b.committed, s.checksum, b.checksum
            ));
        }
        if let Some(prev) = facts {
            if prev != s {
                return Err("run is not deterministic across reps".into());
            }
        }
        facts = Some(s);
        step_best = step_best.min(s_secs);
        block_best = block_best.min(b_secs);
    }
    let f = facts.expect("reps >= 1 checked at parse time");
    Ok(Row {
        name: workload.describe(),
        cycles: f.cycles,
        committed: f.committed,
        step_secs: step_best,
        block_secs: block_best,
    })
}

/// Per-backend min-of-N block-mode wall clock for one hand-vectorized
/// workload. Backends are interleaved inside each rep (portable, sse2,
/// avx2, portable, ...) for the same drift resistance as the scalar
/// grid, and every sample is an identity gate: cycles, committed count,
/// checksum and architectural digest must match the portable reference
/// bit for bit.
struct VectorMeasured {
    cycles: u64,
    committed: u64,
    /// `(backend, min-of-N seconds)` in `Simd::available()` order —
    /// portable first, best host backend last.
    secs: Vec<(Simd, f64)>,
}

fn measure_vector(w: &BuiltWorkload, reps: u32) -> Result<VectorMeasured, String> {
    let backends = Simd::available();
    for &be in backends {
        let _ = run_once(w, be, &mut NullHook);
    }
    let mut best = vec![f64::INFINITY; backends.len()];
    let mut facts: Option<Facts> = None;
    for _ in 0..reps {
        for (i, &be) in backends.iter().enumerate() {
            let (f, secs) = run_once(w, be, &mut NullHook);
            if let Some(prev) = facts {
                if prev != f {
                    return Err(format!(
                        "backend {} diverged from {} (cycles {} vs {}, committed {} vs {}, \
                         checksum {:#x} vs {:#x}, digest {:#x} vs {:#x})",
                        be.name(),
                        backends[0].name(),
                        f.cycles,
                        prev.cycles,
                        f.committed,
                        prev.committed,
                        f.checksum,
                        prev.checksum,
                        f.digest,
                        prev.digest
                    ));
                }
            }
            facts = Some(f);
            best[i] = best[i].min(secs);
        }
    }
    let f = facts.expect("at least the portable backend is always available");
    Ok(VectorMeasured {
        cycles: f.cycles,
        committed: f.committed,
        secs: backends.iter().copied().zip(best).collect(),
    })
}

struct Row {
    name: &'static str,
    committed: u64,
    cycles: u64,
    step_secs: f64,
    block_secs: f64,
}

impl Row {
    fn step_mips(&self) -> f64 {
        self.committed as f64 / self.step_secs / 1e6
    }
    fn block_mips(&self) -> f64 {
        self.committed as f64 / self.block_secs / 1e6
    }
    fn speedup(&self) -> f64 {
        self.step_secs / self.block_secs
    }
}

struct VectorRow {
    name: &'static str,
    committed: u64,
    cycles: u64,
    secs: Vec<(Simd, f64)>,
}

impl VectorRow {
    fn mips(&self, i: usize) -> f64 {
        self.committed as f64 / self.secs[i].1 / 1e6
    }
    /// Host (best backend) over portable wall-clock speedup.
    fn host_speedup(&self) -> f64 {
        self.secs[0].1 / self.secs[self.secs.len() - 1].1
    }
    fn host_mips(&self) -> f64 {
        self.mips(self.secs.len() - 1)
    }
}

/// Seconds summed over `rows`: `(step, block)`.
fn totals(rows: &[Row]) -> (f64, f64) {
    (rows.iter().map(|r| r.step_secs).sum(), rows.iter().map(|r| r.block_secs).sum())
}

/// Prints the step/block table of `rows` with a total line.
fn print_rows(rows: &[Row]) {
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "workload", "committed", "step ms", "block ms", "step MIPS", "block MIPS", "speedup"
    );
    for r in rows {
        println!(
            "{:<12} {:>12} {:>10.3} {:>10.3} {:>10.1} {:>10.1} {:>7.2}x",
            r.name,
            r.committed,
            r.step_secs * 1e3,
            r.block_secs * 1e3,
            r.step_mips(),
            r.block_mips(),
            r.speedup()
        );
    }
    let (step_total, block_total) = totals(rows);
    println!(
        "{:<12} {:>12} {:>10.3} {:>10.3} {:>10} {:>10} {:>7.2}x",
        "total",
        "",
        step_total * 1e3,
        block_total * 1e3,
        "",
        "",
        step_total / block_total
    );
}

/// The JSON rows of `rows` (the array body, after its `[`) closed by
/// `]` and a `totals` object.
fn rows_json(rows: &[Row]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"committed\":{},\"cycles\":{},\
             \"step_seconds\":{:.6},\"block_seconds\":{:.6},\
             \"step_mips\":{:.2},\"block_mips\":{:.2},\"speedup\":{:.3}}}",
            r.name,
            r.committed,
            r.cycles,
            r.step_secs,
            r.block_secs,
            r.step_mips(),
            r.block_mips(),
            r.speedup()
        ));
    }
    let (step_total, block_total) = totals(rows);
    json.push_str(&format!(
        "],\"totals\":{{\"step_seconds\":{step_total:.6},\
         \"block_seconds\":{block_total:.6},\"speedup\":{:.3}}}",
        step_total / block_total
    ));
    json
}

/// The numeric payload of a JSON value (`Num` carries f64 directly).
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Num(f, _) => Some(*f),
        _ => None,
    }
}

/// Diffs the freshly measured scalar grid against a previous baseline
/// JSON (`--compare`). Prints a per-workload regression/improvement
/// table and returns the old and new **total** block MIPS (total
/// committed / total block seconds), the gate `main` enforces.
fn compare_against(path: &str, rows: &[Row]) -> (f64, f64) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let old = json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let old_rows = old
        .get("workloads")
        .and_then(|w| match w {
            Value::Arr(rows) => Some(rows.as_slice()),
            _ => None,
        })
        .unwrap_or_else(|| fail(&format!("{path}: no `workloads` array")));

    println!("\ncomparison against {path}:");
    println!(
        "{:<16} {:>10} {:>10} {:>8}",
        "workload", "old MIPS", "new MIPS", "delta"
    );
    let (mut old_committed, mut old_secs) = (0.0, 0.0);
    for r in rows {
        let old_row = old_rows.iter().find(|o| o.get("name").and_then(Value::as_str) == Some(r.name));
        let Some(old_row) = old_row else {
            println!("{:<16} {:>10} {:>10.1} {:>8}", r.name, "-", r.block_mips(), "new");
            continue;
        };
        let committed = old_row.get("committed").and_then(as_f64).unwrap_or(0.0);
        let secs = old_row.get("block_seconds").and_then(as_f64).unwrap_or(0.0);
        if secs <= 0.0 {
            fail(&format!("{path}: workload {} has no usable block_seconds", r.name));
        }
        old_committed += committed;
        old_secs += secs;
        let old_mips = committed / secs / 1e6;
        let delta = (r.block_mips() / old_mips - 1.0) * 100.0;
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>+7.1}%",
            r.name,
            old_mips,
            r.block_mips(),
            delta
        );
    }
    if old_secs <= 0.0 {
        fail(&format!("{path}: no workloads in common with this grid"));
    }
    let new_committed: f64 = rows.iter().map(|r| r.committed as f64).sum();
    let new_secs: f64 = rows.iter().map(|r| r.block_secs).sum();
    (old_committed / old_secs / 1e6, new_committed / new_secs / 1e6)
}

fn main() {
    let mut reps: u32 = 5;
    let mut out_path = String::from("BENCH_6.json");
    let mut scale = Scale::Paper;
    let mut floor: Option<f64> = None;
    let mut micro_only = false;
    let mut compare: Option<String> = None;
    let mut tolerance: f64 = 10.0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let take = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--reps" => {
                reps = take(&mut it, "--reps")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--reps needs an integer"));
            }
            "--out" => out_path = take(&mut it, "--out"),
            "--scale" => {
                let s = take(&mut it, "--scale");
                scale = Scale::parse(&s)
                    .unwrap_or_else(|| usage_error("--scale needs small|medium|paper|large"));
            }
            "--floor" => {
                floor = Some(
                    take(&mut it, "--floor")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--floor needs a number")),
                );
            }
            "--micro-only" => micro_only = true,
            "--compare" => compare = Some(take(&mut it, "--compare")),
            "--tolerance" => {
                tolerance = take(&mut it, "--tolerance")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--tolerance needs a number (percent)"));
            }
            "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if reps == 0 {
        usage_error("--reps must be at least 1");
    }

    let grid: Vec<Workload> = fixed_workloads()
        .into_iter()
        .filter(|w| !micro_only || matches!(w, Workload::Micro(_)))
        .collect();

    let grid_start = Instant::now();
    let rows: Vec<Row> = grid
        .iter()
        .map(|&workload| {
            measure(workload, scale, reps, || NullHook)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", workload.describe())))
        })
        .collect();

    // DSA section: the full DSA attached, `Stepped(Dsa)` vs `Dsa` — the
    // engine's blocks while it probes or runs plain vectorized loops.
    let drows = DSA_WORKLOADS.map(|workload| {
        measure(workload, scale, reps, || Dsa::new(DsaConfig::full()))
            .unwrap_or_else(|e| fail(&format!("{} (dsa): {e}", workload.describe())))
    });

    // Vector section: hand-vectorized kernels, block mode, one column
    // per compiled-in backend (skipped for the CI micro smoke).
    let mut vrows = Vec::new();
    if !micro_only {
        for id in VECTOR_APPS {
            let w = build(id, Variant::HandVec, scale);
            let m = measure_vector(&w, reps)
                .unwrap_or_else(|e| fail(&format!("{} (handvec): {e}", id.name())));
            vrows.push(VectorRow {
                name: id.name(),
                committed: m.committed,
                cycles: m.cycles,
                secs: m.secs,
            });
        }
    }
    let grid_secs = grid_start.elapsed().as_secs_f64();

    println!(
        "perf_baseline: scalar system, {} scale, {reps} reps, min-of-N wall clock \
         (simd backend: {})",
        scale.name(),
        Simd::active().name()
    );
    print_rows(&rows);
    println!("\nfull DSA attached, Stepped(Dsa) vs Dsa:");
    print_rows(&drows);
    println!("end-to-end grid time: {grid_secs:.2} s (incl. build + warm-up + both modes)");

    if !vrows.is_empty() {
        println!("\nvector-heavy applications (hand-vectorized, block mode, per-backend):");
        println!("{:<16} {:>12} {:>9} {:>10} {:>10} {:>13}", "workload", "committed", "backend", "block ms", "MIPS", "vs portable");
        for r in &vrows {
            for (i, (be, secs)) in r.secs.iter().enumerate() {
                let vs = r.secs[0].1 / secs;
                println!(
                    "{:<16} {:>12} {:>9} {:>10.3} {:>10.1} {:>12.2}x",
                    if i == 0 { r.name } else { "" },
                    if i == 0 { r.committed.to_string() } else { String::new() },
                    be.name(),
                    secs * 1e3,
                    r.mips(i),
                    vs
                );
            }
        }
    }

    // Hand-written JSON — the repo-root artifact the acceptance gate
    // and EXPERIMENTS.md point at. The scalar section keeps the v1
    // field names so `--compare` works across schema versions.
    let mut json = format!(
        "{{\"schema\":\"dsa-perf-baseline/v2\",\"scale\":\"{}\",\"reps\":{reps},\
         \"grid_seconds\":{grid_secs:.3},\"simd_backend\":\"{}\",\"workloads\":[",
        scale.name(),
        Simd::active().name()
    );
    json.push_str(&rows_json(&rows));
    json.push_str(&format!(",\"dsa\":{{\"config\":\"full\",\"workloads\":[{}}}", rows_json(&drows)));
    if !vrows.is_empty() {
        json.push_str(",\"vector\":{\"variant\":\"handvec\",\"workloads\":[");
        for (i, r) in vrows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"name\":\"{}\",\"committed\":{},\"cycles\":{},\"backends\":[",
                r.name, r.committed, r.cycles
            ));
            for (j, (be, secs)) in r.secs.iter().enumerate() {
                if j > 0 {
                    json.push(',');
                }
                json.push_str(&format!(
                    "{{\"backend\":\"{}\",\"seconds\":{:.6},\"mips\":{:.2}}}",
                    be.name(),
                    secs,
                    r.mips(j)
                ));
            }
            json.push_str(&format!(
                "],\"host_mips\":{:.2},\"host_speedup_vs_portable\":{:.3}}}",
                r.host_mips(),
                r.host_speedup()
            ));
        }
        json.push_str(&format!(
            "],\"host_backend\":\"{}\"}}",
            Simd::best().name()
        ));
    }
    json.push_str("}\n");
    std::fs::write(&out_path, json)
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    println!("wrote {out_path}");

    if let Some(floor) = floor {
        let sentinel = rows
            .iter()
            .find(|r| r.name == micro::Micro::Sentinel.name())
            .unwrap_or_else(|| fail("--floor needs the sentinel microkernel in the grid"));
        let mips = sentinel.block_mips();
        if mips < floor {
            fail(&format!(
                "block-mode sentinel throughput {mips:.1} MIPS is under the {floor:.1} MIPS floor"
            ));
        }
        println!("floor check: {mips:.1} MIPS >= {floor:.1} MIPS");
        let plain = drows
            .iter()
            .find(|r| r.name == DSA_PLAIN.describe())
            .expect("DSA_PLAIN is one of DSA_WORKLOADS");
        let speedup = plain.speedup();
        if speedup < floor {
            fail(&format!(
                "DSA-attached {} block/step speedup {speedup:.2}x is under the {floor:.1}x \
                 floor (the engine stopped taking blocks?)",
                plain.name
            ));
        }
        println!("floor check: DSA-attached {} block/step {speedup:.2}x >= {floor:.1}x", plain.name);
    }

    if let Some(path) = compare {
        let (old_total, new_total) = compare_against(&path, &rows);
        let delta = (new_total / old_total - 1.0) * 100.0;
        println!(
            "total block MIPS: {old_total:.1} -> {new_total:.1} ({delta:+.1}%), \
             tolerance -{tolerance:.1}%"
        );
        if new_total < old_total * (1.0 - tolerance / 100.0) {
            fail(&format!(
                "total block MIPS regressed {:.1}% (past the {tolerance:.1}% tolerance)",
                -delta
            ));
        }
    }
}
