//! Criterion end-to-end simulation benches: each workload simulated
//! under the ARM Original Execution and under the full DSA — these are
//! benchmarks of the *simulator stack itself* (events per second), run
//! at small scale so the suite completes quickly.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dsa_core::{Dsa, DsaConfig};
use dsa_cpu::{CommitHook, CpuConfig, NullHook, Simulator, Stepped};
use dsa_workloads::{build, BuiltWorkload, Scale, WorkloadId};

fn simulate(w: &BuiltWorkload, dsa: bool) -> u64 {
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    let out = if dsa {
        let mut hook = Dsa::new(DsaConfig::full());
        sim.run_with_hook(100_000_000, &mut hook).expect("runs")
    } else {
        sim.run(100_000_000).expect("runs")
    };
    assert!(out.halted && w.check(sim.machine()));
    out.cycles
}

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(20);
    for id in [
        WorkloadId::RgbGray,
        WorkloadId::Gaussian,
        WorkloadId::SusanEdges,
        WorkloadId::QSort,
        WorkloadId::Dijkstra,
        WorkloadId::BitCounts,
        WorkloadId::MatMul,
    ] {
        let scalar = build(id, dsa_compiler::Variant::Scalar, Scale::Small);
        group.bench_function(format!("{}-original", id.name()), |b| {
            b.iter(|| simulate(&scalar, false))
        });
        group.bench_function(format!("{}-dsa", id.name()), |b| {
            b.iter(|| simulate(&scalar, true))
        });
    }
    group.finish();
}

/// One prepared simulator per iteration, so each group measures only
/// the run loop.
fn prepared(w: &BuiltWorkload) -> Simulator {
    let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
    (w.init)(sim.machine_mut());
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    sim
}

/// The monomorphized DSA hook on one workload, measuring only the run
/// loop: `Dsa::blocks` and `Dsa::on_commit` inline into the driver.
fn bench_hook_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("hook-dispatch");
    group.sample_size(20);
    let w = build(WorkloadId::RgbGray, dsa_compiler::Variant::Scalar, Scale::Small);
    group.bench_function("generic-hook", |b| {
        b.iter(|| {
            let mut sim = prepared(&w);
            let mut hook = Dsa::new(DsaConfig::full());
            let out = sim.run_with_hook(100_000_000, &mut hook).expect("runs");
            assert!(out.halted);
            black_box(out.committed)
        })
    });
    group.finish();
}

/// Step-mode vs block-mode interpretation on identical runs:
/// [`Stepped`]`(h)` pins the classic per-commit loop, `h` takes the
/// predecoded superblocks its `blocks` answer allows — every one for
/// [`NullHook`], those of probing and plain vectorized loops for the
/// DSA. This group measures the pure interpreter-shape difference that
/// `perf_baseline` reports as wall-clock MIPS.
fn bench_step_vs_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("step-vs-block");
    group.sample_size(20);
    let w = build(WorkloadId::RgbGray, dsa_compiler::Variant::Scalar, Scale::Small);
    group.bench_function("step", |b| {
        b.iter(|| black_box(run_prepared(&w, &mut Stepped(NullHook))))
    });
    group.bench_function("block", |b| b.iter(|| black_box(run_prepared(&w, &mut NullHook))));
    group.bench_function("dsa-step", |b| {
        b.iter(|| black_box(run_prepared(&w, &mut Stepped(Dsa::new(DsaConfig::full())))))
    });
    group.bench_function("dsa-block", |b| {
        b.iter(|| black_box(run_prepared(&w, &mut Dsa::new(DsaConfig::full()))))
    });
    group.finish();
}

/// Runs a [`prepared`] simulator of `w` under `hook` to halt; returns
/// the cycles.
fn run_prepared(w: &BuiltWorkload, hook: &mut impl CommitHook) -> u64 {
    let mut sim = prepared(w);
    let out = sim.run_with_hook(100_000_000, hook).expect("runs");
    assert!(out.halted);
    out.cycles
}

/// Cost of the observability layer on the monomorphized hot loop:
/// tracer off (the default — every emit is a dead branch) vs a
/// [`dsa_trace::NullSink`] (events built and dropped) vs the full
/// metrics registry. `trace-off` must track `generic-hook` above; the
/// release gate for that is `trace_overhead_guard --check`.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace-overhead");
    group.sample_size(20);
    let w = build(WorkloadId::BitCounts, dsa_compiler::Variant::Scalar, Scale::Small);
    group.bench_function("trace-off", |b| {
        b.iter(|| {
            let mut sim = prepared(&w);
            let mut hook = Dsa::new(DsaConfig::full());
            let out = sim.run_with_hook(100_000_000, &mut hook).expect("runs");
            assert!(out.halted);
            black_box(out.cycles)
        })
    });
    group.bench_function("null-sink", |b| {
        b.iter(|| {
            let mut sim = prepared(&w);
            let mut hook = Dsa::new(DsaConfig::full().with_trace());
            hook.attach_sink(dsa_trace::NullSink);
            let out = sim.run_with_hook(100_000_000, &mut hook).expect("runs");
            assert!(out.halted);
            black_box(out.cycles)
        })
    });
    group.bench_function("metrics-sink", |b| {
        b.iter(|| {
            let mut sim = prepared(&w);
            let mut hook = Dsa::new(DsaConfig::full().with_trace());
            let shared = dsa_trace::SharedMetrics::new();
            hook.attach_sink(shared.clone());
            let out = sim.run_with_hook(100_000_000, &mut hook).expect("runs");
            assert!(out.halted);
            black_box((out.cycles, shared.snapshot().report_text().len()))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_workloads,
    bench_hook_dispatch,
    bench_step_vs_block,
    bench_trace_overhead
);
criterion_main!(benches);
