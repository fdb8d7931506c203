//! Property tests over the telemetry stream: the typed event stream and
//! the [`DsaStats`] counters are two independently-maintained views of
//! one execution, and they must agree *exactly* — for every program
//! shape, problem size, repeat count and fault schedule.
//!
//! The central invariant is the cycle ledger: every
//! `detection_cycles += X` in the engine pairs with exactly one event
//! carrying `dsa_cycles: X`, so the stream's charge column sums to the
//! counter. The rest are per-kind tallies (detections, vectorizations,
//! stage activations, CIDP pairs, verification-cache traffic, faults,
//! degradations) plus the lifecycle ordering property that a loop can
//! only be vectorized after it was detected.

use dsa_compiler::{Body, CmpOp, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};
use dsa_core::{Dsa, DsaConfig, DsaStats, FaultPlan, FaultSite};
use dsa_cpu::{CpuConfig, Machine, Simulator};
use dsa_trace::{CacheKind, Collector, Event, Shared, Stage};
use proptest::prelude::*;

const FUEL: u64 = 10_000_000;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Count,
    Conditional,
    Sentinel,
    TwoLoops,
}

type Init = Box<dyn Fn(&mut Machine)>;

fn kernel(shape: Shape, n: u32) -> (dsa_compiler::Kernel, Init) {
    let mut kb = KernelBuilder::new(Variant::Scalar);
    match shape {
        Shape::Count => {
            let a = kb.alloc("a", DataType::I32, n);
            let v = kb.alloc("v", DataType::I32, n);
            let la = kb.layout().buf(a).base;
            kb.emit_loop(LoopIr {
                name: "count".into(),
                trip: Trip::Const(n),
                elem: DataType::I32,
                body: Body::Map { dst: v.at(0), expr: Expr::load(a.at(0)) + Expr::Imm(7) },
                ..LoopIr::default()
            });
            kb.halt();
            (
                kb.finish(),
                Box::new(move |m: &mut Machine| {
                    for i in 0..n {
                        m.mem.write_u32(la + 4 * i, i.wrapping_mul(3));
                    }
                }),
            )
        }
        Shape::Conditional => {
            let a = kb.alloc("a", DataType::I32, n);
            let v = kb.alloc("v", DataType::I32, n);
            let la = kb.layout().buf(a).base;
            kb.emit_loop(LoopIr {
                name: "cond".into(),
                trip: Trip::Const(n),
                elem: DataType::I32,
                body: Body::Select {
                    cond_lhs: Expr::load(a.at(0)),
                    cmp: CmpOp::Ge,
                    cond_rhs: Expr::Imm(0),
                    then_dst: v.at(0),
                    then_expr: Expr::load(a.at(0)) + Expr::load(a.at(0)),
                    else_arm: Some((v.at(0), Expr::load(a.at(0)) + Expr::Imm(1))),
                },
                ..LoopIr::default()
            });
            kb.halt();
            (
                kb.finish(),
                Box::new(move |m: &mut Machine| {
                    for i in 0..n {
                        // Mixed signs so both Array-Map arms are live.
                        let v = if i % 3 == 0 { -(i as i32) } else { 10 + i as i32 };
                        m.mem.write_u32(la + 4 * i, v as u32);
                    }
                }),
            )
        }
        Shape::Sentinel => {
            let src = kb.alloc("src", DataType::I8, n + 1);
            let dst = kb.alloc("dst", DataType::I8, n + 1);
            let ls = kb.layout().buf(src).base;
            kb.emit_loop(LoopIr {
                name: "sentinel".into(),
                trip: Trip::Sentinel { buf: src, value: 0 },
                elem: DataType::I8,
                body: Body::Map { dst: dst.at(0), expr: Expr::load(src.at(0)) + Expr::Imm(1) },
                ..LoopIr::default()
            });
            kb.halt();
            (
                kb.finish(),
                Box::new(move |m: &mut Machine| {
                    for i in 0..n {
                        m.mem.write_u8(ls + i, 7 + (i % 20) as u8);
                    }
                    m.mem.write_u8(ls + n, 0);
                }),
            )
        }
        Shape::TwoLoops => {
            let a = kb.alloc("a", DataType::I32, n);
            let v = kb.alloc("v", DataType::I32, n);
            let w = kb.alloc("w", DataType::I32, n);
            let la = kb.layout().buf(a).base;
            for (name, dst, add) in [("first", v, 1), ("second", w, 2)] {
                kb.emit_loop(LoopIr {
                    name: name.into(),
                    trip: Trip::Const(n),
                    elem: DataType::I32,
                    body: Body::Map { dst: dst.at(0), expr: Expr::load(a.at(0)) + Expr::Imm(add) },
                    ..LoopIr::default()
                });
            }
            kb.halt();
            (
                kb.finish(),
                Box::new(move |m: &mut Machine| {
                    for i in 0..n {
                        m.mem.write_u32(la + 4 * i, i ^ 0xA5);
                    }
                }),
            )
        }
    }
}

/// Runs `shape` × `runs` through one traced engine; returns the final
/// stats and the complete event stream.
fn traced(shape: Shape, n: u32, runs: u32, plan: Option<FaultPlan>) -> (DsaStats, Vec<Event>) {
    let (kernel, init) = kernel(shape, n);
    let mut cfg = DsaConfig::full();
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    let sink = Shared::new(Collector::new());
    let mut dsa = Dsa::new(cfg);
    dsa.attach_sink(sink.clone());
    for _ in 0..runs {
        let mut sim = Simulator::new(kernel.program.clone(), CpuConfig::default());
        init(sim.machine_mut());
        let mut boundary = sink.clone();
        sim.run_traced(FUEL, &mut dsa, &mut boundary).expect("halts");
    }
    dsa.finish_trace();
    (dsa.stats(), sink.with(|c| c.events.clone()))
}

fn count_type(events: &[Event], name: &str) -> u64 {
    events.iter().filter(|e| e.type_name() == name).count() as u64
}

fn check_stream_agrees(stats: &DsaStats, events: &[Event]) {
    // Per-kind tallies.
    assert_eq!(stats.loops_detected, count_type(events, "loop-detected"));
    assert_eq!(stats.loops_vectorized, count_type(events, "loop-vectorized"));
    assert_eq!(stats.faults_injected, count_type(events, "fault-injected"));
    assert_eq!(
        stats.degradations,
        count_type(events, "loop-rolled-back") + count_type(events, "engine-poisoned"),
        "every degradation is a rollback or a poisoning"
    );
    assert_eq!(stats.poison_events, count_type(events, "engine-poisoned"));
    assert_eq!(stats.partial_chunks, count_type(events, "partial-chunk"));

    // Stage counters, per stage.
    let stage_count = |s: Stage| {
        events
            .iter()
            .filter(|e| matches!(e, Event::StageActivated { stage, .. } if *stage == s))
            .count() as u64
    };
    assert_eq!(stats.stage_loop_detection, stage_count(Stage::LoopDetection));
    assert_eq!(stats.stage_data_collection, stage_count(Stage::DataCollection));
    assert_eq!(stats.stage_dependency_analysis, stage_count(Stage::DependencyAnalysis));
    assert_eq!(stats.stage_store_id_execution, stage_count(Stage::StoreIdExecution));
    assert_eq!(stats.stage_mapping, stage_count(Stage::Mapping));
    assert_eq!(stats.stage_speculative, stage_count(Stage::SpeculativeExecution));
    assert_eq!(stats.stage_activations(), count_type(events, "stage-activated"));

    // The cycle ledger: the stream's charges sum to the counter.
    let charged: u64 = events
        .iter()
        .map(|e| match *e {
            Event::StageActivated { dsa_cycles, .. }
            | Event::CacheAccess { dsa_cycles, .. }
            | Event::DependencyVerdict { dsa_cycles, .. }
            | Event::PartialChunk { dsa_cycles, .. } => dsa_cycles,
            _ => 0,
        })
        .sum();
    assert_eq!(
        stats.detection_cycles, charged,
        "every detection_cycles charge must appear on exactly one event"
    );

    // CIDP work and Verification-Cache traffic.
    let pairs: u64 = events
        .iter()
        .map(|e| match *e {
            Event::DependencyVerdict { pairs, .. } => pairs as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(stats.cidp_evaluations, pairs);
    let vcache: u64 = events
        .iter()
        .map(|e| match *e {
            Event::CacheAccess { cache: CacheKind::Verification, count, .. } => count as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(stats.vcache_accesses, vcache);

    // Covered iterations.
    let iters: u64 = events
        .iter()
        .map(|e| match *e {
            Event::LoopFinished { iters, .. } => iters as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(stats.covered_iterations, iters);

    // Lifecycle ordering: a loop is vectorized only after it was
    // detected (same loop id, earlier in the stream).
    let mut seen = std::collections::HashSet::new();
    for e in events {
        match *e {
            Event::LoopDetected { loop_id, .. } => {
                seen.insert(loop_id);
            }
            Event::LoopVectorized { loop_id, .. } => {
                assert!(
                    seen.contains(&loop_id),
                    "loop {loop_id:#x} vectorized before any detection"
                );
            }
            _ => {}
        }
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Count),
        Just(Shape::Conditional),
        Just(Shape::Sentinel),
        Just(Shape::TwoLoops),
    ]
}

fn plan_strategy() -> impl Strategy<Value = Option<FaultPlan>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), 0usize..FaultSite::ALL.len())
            .prop_map(|(seed, i)| Some(FaultPlan::only(seed, FaultSite::ALL[i]))),
        any::<u64>().prop_map(|seed| Some(FaultPlan::all(seed))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stream_and_stats_agree(
        shape in shape_strategy(),
        n in 4u32..200,
        runs in 1u32..=2,
        plan in plan_strategy(),
    ) {
        let (stats, events) = traced(shape, n, runs, plan);
        check_stream_agrees(&stats, &events);

        // Run brackets: one started/finished pair per simulator run
        // (the engine survives across runs, the machine does not).
        prop_assert_eq!(count_type(&events, "run-started"), runs as u64);
        prop_assert_eq!(count_type(&events, "run-finished"), runs as u64);

        // Fault-free control: no corruption events of any kind.
        if plan.is_none() {
            prop_assert_eq!(stats.faults_injected, 0);
            prop_assert_eq!(count_type(&events, "fault-injected"), 0);
        }
    }
}

#[test]
fn vectorizing_run_emits_the_full_lifecycle() {
    // Deterministic anchor next to the property: a plain count loop at a
    // comfortable size detects, classifies, vectorizes and finishes.
    let (stats, events) = traced(Shape::Count, 128, 1, None);
    assert!(stats.loops_vectorized > 0, "control loop must vectorize: {stats:?}");
    for kind in ["loop-detected", "loop-classified", "loop-vectorized", "loop-finished"] {
        assert!(count_type(&events, kind) > 0, "missing {kind} in {}", events.len());
    }
    check_stream_agrees(&stats, &events);
}
