//! One function per paper table/figure; each returns the rendered text
//! that the corresponding binary prints (see `src/bin/`), or the
//! [`RunError`] that stopped it — binaries route either through
//! [`crate::emit`].

use dsa_core::{Dsa, DsaConfig, LoopClass};
use dsa_cpu::{CpuConfig, Simulator};
use dsa_energy::AreaModel;
use dsa_workloads::{micro, Scale, WorkloadId};

use crate::cache::{run_cached, run_micro_cached};
use crate::{geomean_improvement, improvement_pct, render_table, RunError, System};

fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Dissertation Table 2 — vectorization-technique comparison, with the
/// properties demonstrated by this reproduction's own measurements.
pub fn table2_techniques() -> Result<String, RunError> {
    let rows = vec![
        vec![
            "Hand-Code Programming".into(),
            "yes".into(),
            "affected".into(),
            "static".into(),
            "no".into(),
        ],
        vec![
            "Auto-Vectorization Compiler".into(),
            "yes".into(),
            "not affected".into(),
            "static".into(),
            "no".into(),
        ],
        vec![
            "Just-in-time Compiler".into(),
            "no".into(),
            "not affected".into(),
            "dynamic".into(),
            "monitor task".into(),
        ],
        vec![
            "DSA (this work)".into(),
            "no".into(),
            "not affected".into(),
            "dynamic".into(),
            "no (parallel hardware)".into(),
        ],
    ];
    Ok(format!(
        "Dissertation Table 2 — vectorization techniques comparison
         (the DSA row's claims are measured: binary compatibility = the same scalar binary runs
         under every system; zero penalty = QSort is cycle-identical with the DSA attached)

{}",
        render_table(
            &["technique", "code recompilation", "SW productivity", "vectorization", "perf. penalty"],
            &rows
        )
    ))
}

/// E10 — the systems-setup table (dissertation Table 4).
pub fn table_setups() -> Result<String, RunError> {
    let cpu = CpuConfig::default();
    let dsa = DsaConfig::default();
    let rows = vec![
        vec!["Processor".into(), "2-wide superscalar, out-of-order (O3-class)".into()],
        vec!["CPU clock".into(), format!("{} GHz", cpu.clock_ghz)],
        vec![
            "L1 cache".into(),
            format!(
                "{} KB I + {} KB D, LRU",
                cpu.mem.l1i.size_bytes / 1024,
                cpu.mem.l1d.size_bytes / 1024
            ),
        ],
        vec!["L2 cache".into(), format!("{} KB, LRU", cpu.mem.l2.size_bytes / 1024)],
        vec!["ROB".into(), format!("{} entries", cpu.rob_size)],
        vec![
            "NEON".into(),
            format!("128-bit wide, type dependent, {}-entry queue", cpu.neon.queue_depth),
        ],
        vec!["NEON registers".into(), "sixteen 128-bit (q0-q15)".into()],
        vec!["DSA cache".into(), format!("{} KB", dsa.dsa_cache_bytes / 1024)],
        vec!["Verification cache".into(), format!("{} KB", dsa.vcache_bytes / 1024)],
        vec!["Array maps".into(), format!("{} (128-bit wide)", dsa.array_maps)],
    ];
    Ok(format!(
        "Table 4 / A1 Table 2 / A2 Table 2 / A3 Table 1 — Systems Setup\n\n{}",
        render_table(&["parameter", "value"], &rows)
    ))
}

/// E1 — Article 1, Figure 12: NEON AutoVec vs original DSA over the ARM
/// Original Execution.
pub fn a1_fig12_performance() -> Result<String, RunError> {
    // Article 1 evaluates the six benchmarks without BitCounts.
    let set = [
        WorkloadId::MatMul,
        WorkloadId::RgbGray,
        WorkloadId::Gaussian,
        WorkloadId::SusanEdges,
        WorkloadId::QSort,
        WorkloadId::Dijkstra,
    ];
    let mut rows = Vec::new();
    let (mut auto_impr, mut dsa_impr) = (Vec::new(), Vec::new());
    for id in set {
        let base = run_cached(id, System::Original, Scale::Paper)?;
        let auto = run_cached(id, System::AutoVec, Scale::Paper)?;
        let dsa = run_cached(id, System::DsaOriginal, Scale::Paper)?;
        let ai = improvement_pct(base.cycles(), auto.cycles());
        let di = improvement_pct(base.cycles(), dsa.cycles());
        auto_impr.push(ai);
        dsa_impr.push(di);
        rows.push(vec![id.name().into(), base.cycles().to_string(), pct(ai), pct(di)]);
    }
    rows.push(vec![
        "average".into(),
        String::new(),
        pct(auto_impr.iter().sum::<f64>() / auto_impr.len() as f64),
        pct(dsa_impr.iter().sum::<f64>() / dsa_impr.len() as f64),
    ]);
    Ok(format!(
        "A1 Figure 12 — performance improvement over ARM Original Execution\n\n{}",
        render_table(&["workload", "original cycles", "NEON AutoVec", "DSA (original)"], &rows)
    ))
}

/// E2 — Article 1, Table 3: DSA area overhead.
pub fn a1_table3_area() -> Result<String, RunError> {
    let cfg = DsaConfig::default();
    let r = AreaModel::default().report(cfg.dsa_cache_bytes, cfg.vcache_bytes, cfg.array_maps);
    let rows = vec![
        vec![
            "ARM core (logic)".into(),
            format!("{:.0}", r.core_logic),
            String::new(),
        ],
        vec!["DSA (logic)".into(), format!("{:.0}", r.dsa_logic), pct(r.logic_overhead_pct)],
        vec![
            "ARM core + caches".into(),
            format!("{:.0}", r.core_total),
            String::new(),
        ],
        vec!["DSA + caches".into(), format!("{:.0}", r.dsa_total), pct(r.total_overhead_pct)],
    ];
    Ok(format!(
        "A1 Table 3 — area overhead of the DSA (um^2)\n\n{}",
        render_table(&["component", "area", "overhead"], &rows)
    ))
}

/// E3 — Article 2, Figure 16: AutoVec vs original DSA vs extended DSA.
pub fn a2_fig16_extended() -> Result<String, RunError> {
    let mut rows = Vec::new();
    let (mut a, mut o, mut e) = (Vec::new(), Vec::new(), Vec::new());
    for id in WorkloadId::all() {
        let base = run_cached(id, System::Original, Scale::Paper)?;
        let auto = improvement_pct(
            base.cycles(),
            run_cached(id, System::AutoVec, Scale::Paper)?.cycles(),
        );
        let orig = improvement_pct(
            base.cycles(),
            run_cached(id, System::DsaOriginal, Scale::Paper)?.cycles(),
        );
        let ext = improvement_pct(
            base.cycles(),
            run_cached(id, System::DsaExtended, Scale::Paper)?.cycles(),
        );
        a.push(auto);
        o.push(orig);
        e.push(ext);
        rows.push(vec![id.name().into(), pct(auto), pct(orig), pct(ext)]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    rows.push(vec!["average".into(), pct(avg(&a)), pct(avg(&o)), pct(avg(&e))]);
    Ok(format!(
        "A2 Figure 16 — improvement over ARM Original Execution\n\n{}",
        render_table(&["workload", "NEON AutoVec", "DSA original", "DSA extended"], &rows)
    ))
}

/// E4/E8 — DSA detection latency as a fraction of execution time
/// (A2 Table 3 / A3 Table 2).
pub fn dsa_latency_table(system: System, title: &str) -> Result<String, RunError> {
    let mut rows = Vec::new();
    for id in WorkloadId::all() {
        let r = run_cached(id, system, Scale::Paper)?;
        let stats = r.dsa.expect("DSA system");
        rows.push(vec![
            id.name().into(),
            stats.detection_cycles.to_string(),
            format!("{:.2}%", 100.0 * stats.detection_fraction(r.cycles())),
            stats.loops_vectorized.to_string(),
            stats.dsa_cache_hits.to_string(),
        ]);
    }
    Ok(format!(
        "{title}\n(detection runs in parallel with the core: reported, never added to the critical path)\n\n{}",
        render_table(
            &["workload", "detect cycles", "of runtime", "loops vectorized", "cache hits"],
            &rows
        )
    ))
}

/// E5 — Article 3, Figure 7: percentage of loop types per application.
pub fn a3_fig7_loop_census() -> Result<String, RunError> {
    let classes = [
        LoopClass::Count,
        LoopClass::Function,
        LoopClass::Nest,
        LoopClass::Conditional,
        LoopClass::DynamicRange,
        LoopClass::Sentinel,
        LoopClass::Partial,
        LoopClass::NonVectorizable,
    ];
    let mut rows = Vec::new();
    for id in WorkloadId::all() {
        let r = run_cached(id, System::DsaFull, Scale::Paper)?;
        let census = r.census.as_ref().expect("DSA run");
        let mut row = vec![id.name().to_string()];
        for c in classes {
            row.push(if census.count(c) > 0 {
                format!("{:.0}%", census.percentage(c))
            } else {
                "-".into()
            });
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("workload".to_string())
        .chain(classes.iter().map(|c| c.to_string()))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    Ok(format!(
        "A3 Figure 7 — percentage of loop types in the selected applications\n\n{}",
        render_table(&hdr_refs, &rows)
    ))
}

/// E6 — Article 3, Figure 8: AutoVec vs Hand-coded vs full DSA.
pub fn a3_fig8_performance() -> Result<String, RunError> {
    let mut rows = Vec::new();
    let (mut a, mut h, mut d) = (Vec::new(), Vec::new(), Vec::new());
    for id in WorkloadId::all() {
        let base = run_cached(id, System::Original, Scale::Paper)?;
        let auto =
            improvement_pct(base.cycles(), run_cached(id, System::AutoVec, Scale::Paper)?.cycles());
        let hand =
            improvement_pct(base.cycles(), run_cached(id, System::HandVec, Scale::Paper)?.cycles());
        let dsa =
            improvement_pct(base.cycles(), run_cached(id, System::DsaFull, Scale::Paper)?.cycles());
        a.push(auto);
        h.push(hand);
        d.push(dsa);
        rows.push(vec![id.name().into(), pct(auto), pct(hand), pct(dsa)]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    rows.push(vec!["average".into(), pct(avg(&a)), pct(avg(&h)), pct(avg(&d))]);
    let summary = format!(
        "DSA over AutoVec: {:+.1} points (paper: +32); DSA over Hand: {:+.1} points (paper: +26)\n\
         geomean speedup ratios: DSA/AutoVec {:+.1}%, DSA/Hand {:+.1}%",
        avg(&d) - avg(&a),
        avg(&d) - avg(&h),
        (1.0 + geomean_improvement(&d) / 100.0) / (1.0 + geomean_improvement(&a) / 100.0) * 100.0
            - 100.0,
        (1.0 + geomean_improvement(&d) / 100.0) / (1.0 + geomean_improvement(&h) / 100.0) * 100.0
            - 100.0,
    );
    Ok(format!(
        "A3 Figure 8 — performance improvements over ARM Original Execution\n\n{}\n{summary}\n",
        render_table(&["workload", "NEON AutoVec", "NEON Hand-Coded", "DSA (full)"], &rows)
    ))
}

/// E7 — Article 3, Figure 9: energy savings over the ARM Original
/// Execution.
pub fn a3_fig9_energy() -> Result<String, RunError> {
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for id in WorkloadId::all() {
        let base = run_cached(id, System::Original, Scale::Paper)?;
        let auto = run_cached(id, System::AutoVec, Scale::Paper)?;
        let hand = run_cached(id, System::HandVec, Scale::Paper)?;
        let dsa = run_cached(id, System::DsaFull, Scale::Paper)?;
        let s = dsa.energy.saving_vs(&base.energy);
        savings.push(s);
        rows.push(vec![
            id.name().into(),
            format!("{:.1}", base.energy.total_nj()),
            pct(auto.energy.saving_vs(&base.energy)),
            pct(hand.energy.saving_vs(&base.energy)),
            pct(s),
        ]);
    }
    rows.push(vec![
        "average".into(),
        String::new(),
        String::new(),
        String::new(),
        pct(savings.iter().sum::<f64>() / savings.len() as f64),
    ]);
    Ok(format!(
        "A3 Figure 9 — energy savings over ARM Original Execution (paper: DSA ~45% avg)\n\n{}",
        render_table(
            &["workload", "original nJ", "AutoVec", "Hand-Coded", "DSA (full)"],
            &rows
        )
    ))
}

/// E9 — Article 3, Table 3: DSA energy per loop-type scenario.
pub fn a3_table3_dsa_energy() -> Result<String, RunError> {
    let table = dsa_energy::EnergyTable::default();
    let mut rows = Vec::new();
    for m in micro::Micro::all() {
        let r = run_micro_cached(m, System::DsaFull, Scale::Paper)?;
        let s = r.dsa.expect("DSA run");
        // Detection energy only (the per-scenario analysis of Figure 32).
        let detect_pj = (s.dsa_cache_hits + s.dsa_cache_misses) as f64 * table.dsa_cache_access
            + s.vcache_accesses as f64 * table.dsa_vcache_access
            + s.cidp_evaluations as f64 * table.dsa_cidp
            + s.array_map_accesses as f64 * table.dsa_array_map
            + s.stage_speculative as f64 * table.dsa_select;
        rows.push(vec![
            m.name().into(),
            s.stage_data_collection.to_string(),
            s.stage_dependency_analysis.to_string(),
            s.stage_mapping.to_string(),
            s.stage_speculative.to_string(),
            format!("{detect_pj:.0} pJ"),
            format!("{:.3}%", 100.0 * r.energy.dsa / r.energy.total_pj()),
        ]);
    }
    Ok(format!(
        "A3 Table 3 — DSA energy per loop-type scenario (detection stages exercised)\n\n{}",
        render_table(
            &["loop type", "collect", "dep-analysis", "mapping", "speculative", "detect energy", "DSA share of total"],
            &rows
        )
    ))
}

/// E11 — dissertation Table 1: which inhibiting factor fires per loop.
pub fn table1_inhibitors() -> Result<String, RunError> {
    let mut rows = Vec::new();
    for m in micro::Micro::all() {
        let w = micro::build(m, dsa_compiler::Variant::AutoVec, Scale::Small);
        for rep in &w.kernel.reports {
            rows.push(vec![
                m.name().into(),
                rep.name.clone(),
                if rep.vectorized { "vectorized".into() } else { "scalar".into() },
                rep.inhibit.map(|r| r.to_string()).unwrap_or_default(),
            ]);
        }
    }
    Ok(format!(
        "Dissertation Table 1 — auto-vectorization inhibiting factors, as they fire\n\n{}",
        render_table(&["microkernel", "loop", "autovec verdict", "inhibiting factor"], &rows)
    ))
}

/// X1 — ablation: the three leftover strategies across trip counts.
pub fn ablation_leftovers() -> Result<String, RunError> {
    use dsa_core::LeftoverPolicy;
    let mut rows = Vec::new();
    for trip in [17u32, 21, 30, 63, 127] {
        let mut row = vec![trip.to_string()];
        for policy in [
            LeftoverPolicy::SingleElements,
            LeftoverPolicy::Overlapping,
            LeftoverPolicy::LargerArrays,
            LeftoverPolicy::Auto,
        ] {
            let mut kb = dsa_compiler::KernelBuilder::new(dsa_compiler::Variant::Scalar);
            let a = kb.alloc("a", dsa_compiler::DataType::I32, trip);
            let b = kb.alloc("b", dsa_compiler::DataType::I32, trip + 16);
            let v = kb.alloc("v", dsa_compiler::DataType::I32, trip + 16);
            let la = kb.layout().buf(a).base;
            kb.emit_loop(dsa_compiler::LoopIr {
                name: "leftover".into(),
                trip: dsa_compiler::Trip::Const(trip),
                elem: dsa_compiler::DataType::I32,
                body: dsa_compiler::Body::Map {
                    dst: v.at(0),
                    expr: dsa_compiler::Expr::load(a.at(0)) + dsa_compiler::Expr::load(b.at(0)),
                },
                ..dsa_compiler::LoopIr::default()
            });
            kb.halt();
            let kernel = kb.finish();
            let mut dsa = Dsa::new(DsaConfig { leftover: policy, ..DsaConfig::full() });
            let mut sim = Simulator::new(kernel.program.clone(), CpuConfig::default());
            for i in 0..trip {
                sim.machine_mut().mem.write_u32(la + 4 * i, i);
            }
            sim.warm_region(dsa_compiler::DATA_BASE_ADDR, 64 << 10);
            let out = sim.run_with_hook(10_000_000, &mut dsa)?;
            row.push(format!("{}", out.cycles));
        }
        rows.push(row);
    }
    Ok(format!(
        "Ablation — leftover strategies (cycles; trip counts not multiples of 4 lanes)\n\n{}",
        render_table(&["trip", "single", "overlap", "larger", "auto"], &rows)
    ))
}

/// X2 — ablation: partial vectorization across dependency distances.
pub fn ablation_partial() -> Result<String, RunError> {
    let mut rows = Vec::new();
    for dist in [2u32, 4, 8, 16, 32, 64] {
        let n = 512u32;
        let build_run = |features_partial: bool| -> Result<u64, RunError> {
            let mut kb = dsa_compiler::KernelBuilder::new(dsa_compiler::Variant::Scalar);
            let b = kb.alloc("b", dsa_compiler::DataType::I32, n);
            let v = kb.alloc("v", dsa_compiler::DataType::I32, n + dist);
            let lb = kb.layout().buf(b).base;
            kb.emit_loop(dsa_compiler::LoopIr {
                name: "recur".into(),
                trip: dsa_compiler::Trip::Const(n),
                elem: dsa_compiler::DataType::I32,
                body: dsa_compiler::Body::Map {
                    dst: v.at(dist as i32),
                    expr: dsa_compiler::Expr::load(v.at(0)) + dsa_compiler::Expr::load(b.at(0)),
                },
                ..dsa_compiler::LoopIr::default()
            });
            kb.halt();
            let kernel = kb.finish();
            let mut cfg = DsaConfig::full();
            cfg.features.partial_vectorization = features_partial;
            let mut dsa = Dsa::new(cfg);
            let mut sim = Simulator::new(kernel.program, CpuConfig::default());
            for i in 0..n {
                sim.machine_mut().mem.write_u32(lb + 4 * i, i);
            }
            sim.warm_region(dsa_compiler::DATA_BASE_ADDR, 64 << 10);
            Ok(sim.run_with_hook(10_000_000, &mut dsa)?.cycles)
        };
        let without = build_run(false)?;
        let with = build_run(true)?;
        rows.push(vec![
            dist.to_string(),
            without.to_string(),
            with.to_string(),
            pct(improvement_pct(without, with)),
        ]);
    }
    Ok(format!(
        "Ablation — partial vectorization, v[i] = v[i-d] + b[i] (512 iterations)\n\n{}",
        render_table(&["distance d", "partial off", "partial on", "gain"], &rows)
    ))
}

/// X3 — ablation: DSA cache size sweep over a loop-rich program.
pub fn ablation_dsa_cache() -> Result<String, RunError> {
    // A "loop zoo": 48 distinct count loops, re-entered 4 times each.
    let loops = 48u32;
    let trip = 64u32;
    let mut kb = dsa_compiler::KernelBuilder::new(dsa_compiler::Variant::Scalar);
    let a = kb.alloc("a", dsa_compiler::DataType::I32, trip);
    let v = kb.alloc("v", dsa_compiler::DataType::I32, trip);
    let la = kb.layout().buf(a).base;
    let rep = dsa_isa::Reg::R11;
    kb.asm_mut().mov_imm(rep, 4);
    let top = kb.asm_mut().here();
    for k in 0..loops {
        kb.emit_loop(dsa_compiler::LoopIr {
            name: format!("zoo{k}"),
            trip: dsa_compiler::Trip::Const(trip),
            elem: dsa_compiler::DataType::I32,
            body: dsa_compiler::Body::Map {
                dst: v.at(0),
                expr: dsa_compiler::Expr::load(a.at(0)) + dsa_compiler::Expr::Imm(k as i32),
            },
            ..dsa_compiler::LoopIr::default()
        });
    }
    {
        let asm = kb.asm_mut();
        asm.sub_imm(rep, rep, 1);
        asm.cmp_imm(rep, 0);
        asm.b_to(dsa_isa::Cond::Ne, top);
        asm.halt();
    }
    let kernel = kb.finish();

    let mut rows = Vec::new();
    for kb_size in [256u32, 512, 1024, 2048, 8192, 32768] {
        let mut dsa = Dsa::new(DsaConfig { dsa_cache_bytes: kb_size, ..DsaConfig::full() });
        let mut sim = Simulator::new(kernel.program.clone(), CpuConfig::default());
        for i in 0..trip {
            sim.machine_mut().mem.write_u32(la + 4 * i, i);
        }
        sim.warm_region(dsa_compiler::DATA_BASE_ADDR, 64 << 10);
        let out = sim.run_with_hook(50_000_000, &mut dsa)?;
        let s = dsa.stats();
        let area = AreaModel::default().report(kb_size, 1024, 4);
        rows.push(vec![
            format!("{kb_size} B"),
            out.cycles.to_string(),
            s.dsa_cache_hits.to_string(),
            s.dsa_cache_misses.to_string(),
            format!("{:.2}%", area.total_overhead_pct),
        ]);
    }
    Ok(format!(
        "Ablation — DSA cache size over a 48-loop program re-entered 4x\n\n{}",
        render_table(&["cache size", "cycles", "hits", "misses", "area overhead"], &rows)
    ))
}

/// A1 Figure 11 — NEON type-dependent parallelism: the same kernel over
/// 8-, 16- and 32-bit elements exercises 16, 8 and 4 lanes.
pub fn neon_parallelism() -> Result<String, RunError> {
    use dsa_compiler::DataType;
    let n = 8192u32;
    let mut rows = Vec::new();
    for (name, elem) in
        [("i8 (16 lanes)", DataType::I8), ("i16 (8 lanes)", DataType::I16), ("i32 (4 lanes)", DataType::I32)]
    {
        let build_kernel = || {
            let mut kb = dsa_compiler::KernelBuilder::new(dsa_compiler::Variant::Scalar);
            let a = kb.alloc("a", elem, n);
            let b = kb.alloc("b", elem, n);
            let v = kb.alloc("v", elem, n);
            kb.emit_loop(dsa_compiler::LoopIr {
                name: "lanes".into(),
                trip: dsa_compiler::Trip::Const(n),
                elem,
                body: dsa_compiler::Body::Map {
                    dst: v.at(0),
                    expr: (dsa_compiler::Expr::load(a.at(0)) + dsa_compiler::Expr::load(b.at(0)))
                        .shr(1),
                },
                ..dsa_compiler::LoopIr::default()
            });
            kb.halt();
            (kb.finish(), a, b)
        };
        let run = |with_dsa: bool| -> Result<u64, RunError> {
            let (kernel, a, b) = build_kernel();
            let (la, lb) = (kernel.layout.buf(a).base, kernel.layout.buf(b).base);
            let mut sim = Simulator::new(kernel.program.clone(), CpuConfig::default());
            for i in 0..n {
                let w = elem.bytes();
                match w {
                    1 => {
                        sim.machine_mut().mem.write_u8(la + i, (i % 100) as u8);
                        sim.machine_mut().mem.write_u8(lb + i, (i % 50) as u8);
                    }
                    2 => {
                        sim.machine_mut().mem.write_u16(la + 2 * i, (i % 1000) as u16);
                        sim.machine_mut().mem.write_u16(lb + 2 * i, (i % 500) as u16);
                    }
                    _ => {
                        sim.machine_mut().mem.write_u32(la + 4 * i, i % 10000);
                        sim.machine_mut().mem.write_u32(lb + 4 * i, i % 5000);
                    }
                }
            }
            sim.warm_region(dsa_compiler::DATA_BASE_ADDR, 256 << 10);
            if with_dsa {
                let mut dsa = Dsa::new(DsaConfig::full());
                Ok(sim.run_with_hook(100_000_000, &mut dsa)?.cycles)
            } else {
                Ok(sim.run(100_000_000)?.cycles)
            }
        };
        let scalar = run(false)?;
        let dsa = run(true)?;
        rows.push(vec![
            name.into(),
            scalar.to_string(),
            dsa.to_string(),
            pct(improvement_pct(scalar, dsa)),
        ]);
    }
    Ok(format!(
        "A1 Figure 11 — NEON type-dependent parallelism ((a[i]+b[i])>>1 over 8192 elements)

{}",
        render_table(&["element type", "scalar cycles", "DSA cycles", "improvement"], &rows)
    ))
}

/// X5 — ablation: microarchitecture sensitivity (ROB window and NEON
/// queue depth) for the scalar baseline and the DSA.
pub fn ablation_hardware() -> Result<String, RunError> {
    use dsa_cpu::NeonConfig;
    use dsa_workloads::build as build_workload;
    let w = build_workload(WorkloadId::RgbGray, dsa_compiler::Variant::Scalar, Scale::Paper);
    let run = |cfg: CpuConfig, with_dsa: bool, warm: bool| -> Result<u64, RunError> {
        let mut sim = Simulator::new(w.kernel.program.clone(), cfg);
        (w.init)(sim.machine_mut());
        if warm {
            for buf in w.kernel.layout.bufs() {
                sim.warm_region(buf.base, buf.size_bytes());
            }
        }
        let out = if with_dsa {
            let mut dsa = Dsa::new(DsaConfig::full());
            sim.run_with_hook(1_000_000_000, &mut dsa)?
        } else {
            sim.run(1_000_000_000)?
        };
        if !w.check(sim.machine()) {
            return Err(RunError::WrongResult {
                system: if with_dsa { System::DsaFull } else { System::Original },
                got: w.actual(sim.machine()),
                want: w.expected,
            });
        }
        Ok(out.cycles)
    };
    let mut rows = Vec::new();
    for rob in [8u32, 16, 40, 128] {
        let cfg = CpuConfig { rob_size: rob, ..CpuConfig::default() };
        rows.push(vec![
            format!("ROB {rob}"),
            run(cfg, false, true)?.to_string(),
            run(cfg, true, true)?.to_string(),
            run(cfg, false, false)?.to_string(),
            run(cfg, true, false)?.to_string(),
        ]);
    }
    for q in [4u32, 8, 16, 32] {
        let cfg = CpuConfig {
            neon: NeonConfig { queue_depth: q, ..NeonConfig::default() },
            ..CpuConfig::default()
        };
        rows.push(vec![
            format!("NEON queue {q}"),
            run(cfg, false, true)?.to_string(),
            run(cfg, true, true)?.to_string(),
            run(cfg, false, false)?.to_string(),
            run(cfg, true, false)?.to_string(),
        ]);
    }
    Ok(format!(
        "Ablation — microarchitecture sensitivity on RGB-Gray (cycles; the in-flight \
         windows matter when misses must overlap, i.e. with cold DRAM)

{}",
        render_table(
            &["configuration", "scalar/L2-warm", "DSA/L2-warm", "scalar/cold", "DSA/cold"],
            &rows
        )
    ))
}

/// X4 — ablation: sentinel speculative-range adaptation.
pub fn ablation_sentinel() -> Result<String, RunError> {
    // One sentinel loop executed over strings of different lengths;
    // the DSA's speculative range follows the last actual length.
    let lengths = [40u32, 40, 12, 12, 72, 72];
    let n = 128u32;
    let mut kb = dsa_compiler::KernelBuilder::new(dsa_compiler::Variant::Scalar);
    let src = kb.alloc("src", dsa_compiler::DataType::I8, n);
    let dst = kb.alloc("dst", dsa_compiler::DataType::I8, n);
    let ls = kb.layout().buf(src).base;
    let _ = dst;
    kb.emit_loop(dsa_compiler::LoopIr {
        name: "sentinel".into(),
        trip: dsa_compiler::Trip::Sentinel { buf: src, value: 0 },
        elem: dsa_compiler::DataType::I8,
        body: dsa_compiler::Body::Map {
            dst: dst.at(0),
            expr: dsa_compiler::Expr::load(src.at(0)) + dsa_compiler::Expr::Imm(1),
        },
        ..dsa_compiler::LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();

    let mut rows = Vec::new();
    let mut dsa = Dsa::new(DsaConfig::full());
    for (run, &len) in lengths.iter().enumerate() {
        let mut sim = Simulator::new(kernel.program.clone(), CpuConfig::default());
        for i in 0..n {
            let v = if i < len { 7 } else { 0 };
            sim.machine_mut().mem.write_u8(ls + i, v);
        }
        sim.warm_region(dsa_compiler::DATA_BASE_ADDR, 64 << 10);
        let before = dsa.stats().discarded_lanes;
        let out = sim.run_with_hook(10_000_000, &mut dsa)?;
        let s = dsa.stats();
        rows.push(vec![
            format!("run {}", run + 1),
            len.to_string(),
            out.cycles.to_string(),
            (s.discarded_lanes - before).to_string(),
            s.loops_vectorized.to_string(),
        ]);
    }
    Ok(format!(
        "Ablation — sentinel speculative range across executions (shared DSA cache)\n\n{}",
        render_table(&["execution", "actual length", "cycles", "lanes discarded", "vectorized so far"], &rows)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert!(table_setups().expect("static").contains("DSA cache"));
        assert!(a1_table3_area().expect("static").contains("overhead"));
        let inh = table1_inhibitors().expect("static");
        assert!(inh.contains("indirect addressing"));
        assert!(inh.contains("iteration count not fixed"));
    }
}
