//! Microkernels: one minimal kernel per loop class, used by the
//! per-loop-type experiments (DSA energy per scenario, Table-1
//! inhibitor demonstration) and the ablation sections.

use dsa_compiler::{
    regs, BinOp, Body, CmpOp, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant,
};
use dsa_isa::Reg;
use dsa_trace::WorkloadName;

use crate::data;
use crate::{BuiltWorkload, Scale};

/// The loop classes exercised by the microkernel suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Micro {
    /// Fixed-trip element-wise map.
    Count,
    /// Map whose value flows through a called function.
    Function,
    /// `if a[i] >= t { v = 2a } else { v = a + 1 }`.
    Conditional,
    /// Copy-until-zero over bytes.
    Sentinel,
    /// Map with a runtime trip count.
    DynamicRange,
    /// `v[i] = v[i-16] + b[i]` — bounded cross-iteration dependency.
    Partial,
    /// Table lookup through an index array (indirect addressing).
    Gather,
    /// Sum reduction into a scalar.
    Reduce,
    /// A 2D loop nest with nothing between the loops — fusable into a
    /// single rows×cols loop (§4.6.3).
    NestFused,
    /// A 4-tap FIR filter over 16-bit samples (8 vector lanes) — the
    /// DSP shape the paper's introduction motivates.
    Fir,
}

impl Micro {
    /// Every microkernel.
    pub fn all() -> [Micro; 10] {
        [
            Micro::Count,
            Micro::Function,
            Micro::Conditional,
            Micro::Sentinel,
            Micro::DynamicRange,
            Micro::Partial,
            Micro::Gather,
            Micro::Reduce,
            Micro::NestFused,
            Micro::Fir,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        self.word().name()
    }

    /// The name as a trace word.
    pub fn word(self) -> WorkloadName {
        match self {
            Micro::Count => WorkloadName::Count,
            Micro::Function => WorkloadName::Function,
            Micro::Conditional => WorkloadName::Conditional,
            Micro::Sentinel => WorkloadName::Sentinel,
            Micro::DynamicRange => WorkloadName::DynamicRange,
            Micro::Partial => WorkloadName::Partial,
            Micro::Gather => WorkloadName::Gather,
            Micro::Reduce => WorkloadName::Reduce,
            Micro::NestFused => WorkloadName::NestFused,
            Micro::Fir => WorkloadName::Fir,
        }
    }
}

/// Builds one microkernel over `n` elements.
pub fn build(micro: Micro, variant: Variant, scale: Scale) -> BuiltWorkload {
    let n: u32 = match scale {
        Scale::Small => 256,
        Scale::Medium => 1024,
        Scale::Paper => 4096,
        Scale::Large => 8192,
    };
    match micro {
        Micro::Count => count(variant, n),
        Micro::Function => function(variant, n),
        Micro::Conditional => conditional(variant, n),
        Micro::Sentinel => sentinel(variant, n),
        Micro::DynamicRange => dynamic_range(variant, n),
        Micro::Partial => partial(variant, n),
        Micro::Gather => gather(variant, n),
        Micro::Reduce => reduce(variant, n),
        Micro::NestFused => nest_fused(variant, n),
        Micro::Fir => fir(variant, n),
    }
}

fn count(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let a = kb.alloc("a", DataType::I32, n);
    let b = kb.alloc("b", DataType::I32, n);
    let v = kb.alloc("v", DataType::I32, n);
    let (la, lb, lv) = (kb.layout().buf(a).base, kb.layout().buf(b).base, kb.layout().buf(v).base);
    kb.emit_loop(LoopIr {
        name: "micro_count".into(),
        trip: Trip::Const(n),
        elem: DataType::I32,
        body: Body::Map { dst: v.at(0), expr: Expr::load(a.at(0)) + Expr::load(b.at(0)) },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let av = data::ints(1, n as usize, -1000, 1000);
    let bv = data::ints(2, n as usize, -1000, 1000);
    let reference: Vec<i32> = av.iter().zip(&bv).map(|(x, y)| x.wrapping_add(*y)).collect();
    let expected = crate::checksum_bytes(&data::i32_bytes(&reference));
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| {
            m.mem.write_bytes(la, &data::i32_bytes(&av));
            m.mem.write_bytes(lb, &data::i32_bytes(&bv));
        }),
        out_region: (lv, n * 4),
        expected,
    }
}

fn function(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let a = kb.alloc("a", DataType::I32, n);
    let v = kb.alloc("v", DataType::I32, n);
    let (la, lv) = (kb.layout().buf(a).base, kb.layout().buf(v).base);
    // f(x) = 3x (as add chains so the body stays NEON-expressible).
    let f = kb.define_function(|asm| {
        asm.add(Reg::R9, regs::SCRATCH, regs::SCRATCH);
        asm.add(regs::SCRATCH, Reg::R9, regs::SCRATCH);
        asm.bx_lr();
    });
    kb.emit_loop(LoopIr {
        name: "micro_function".into(),
        trip: Trip::Const(n),
        elem: DataType::I32,
        body: Body::Map { dst: v.at(0), expr: Expr::Call(f, Box::new(Expr::load(a.at(0)))) },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let av = data::ints(3, n as usize, -1000, 1000);
    let reference: Vec<i32> = av.iter().map(|x| x.wrapping_mul(3)).collect();
    let expected = crate::checksum_bytes(&data::i32_bytes(&reference));
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| m.mem.write_bytes(la, &data::i32_bytes(&av))),
        out_region: (lv, n * 4),
        expected,
    }
}

fn conditional(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let a = kb.alloc("a", DataType::I32, n);
    let v = kb.alloc("v", DataType::I32, n);
    let (la, lv) = (kb.layout().buf(a).base, kb.layout().buf(v).base);
    kb.emit_loop(LoopIr {
        name: "micro_conditional".into(),
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
    let kernel = kb.finish();
    let av = data::ints(4, n as usize, -1000, 1000);
    let reference: Vec<i32> =
        av.iter().map(|&x| if x >= 0 { x + x } else { x + 1 }).collect();
    let expected = crate::checksum_bytes(&data::i32_bytes(&reference));
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| m.mem.write_bytes(la, &data::i32_bytes(&av))),
        out_region: (lv, n * 4),
        expected,
    }
}

fn sentinel(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let src = kb.alloc("src", DataType::I8, n);
    let dst = kb.alloc("dst", DataType::I8, n);
    let (ls, ld) = (kb.layout().buf(src).base, kb.layout().buf(dst).base);
    kb.emit_loop(LoopIr {
        name: "micro_sentinel".into(),
        trip: Trip::Sentinel { buf: src, value: 0 },
        elem: DataType::I8,
        body: Body::Map { dst: dst.at(0), expr: Expr::load(src.at(0)) + Expr::Imm(1) },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let live = (n - n / 8) as usize; // zero terminator after `live` bytes
    let sv: Vec<i32> = data::ints(5, live, 1, 100);
    let mut reference = vec![0u8; n as usize];
    for (i, &x) in sv.iter().enumerate() {
        reference[i] = (x + 1) as u8;
    }
    let expected = crate::checksum_bytes(&reference);
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| {
            for (i, &x) in sv.iter().enumerate() {
                m.mem.write_u8(ls + i as u32, x as u8);
            }
        }),
        out_region: (ld, n),
        expected,
    }
}

fn dynamic_range(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let a = kb.alloc("a", DataType::I32, n);
    let v = kb.alloc("v", DataType::I32, n);
    let params = kb.alloc("params", DataType::I32, 1);
    let (la, lv, lp) = (
        kb.layout().buf(a).base,
        kb.layout().buf(v).base,
        kb.layout().buf(params).base,
    );
    let n_rt = n - n / 8;
    {
        let asm = kb.asm_mut();
        asm.mov_imm(Reg::R12, lp as i32);
        asm.ldr(Reg::R11, Reg::R12, 0);
    }
    kb.emit_loop(LoopIr {
        name: "micro_drl".into(),
        trip: Trip::Reg(Reg::R11),
        elem: DataType::I32,
        body: Body::Map { dst: v.at(0), expr: Expr::load(a.at(0)) * Expr::Imm(5) },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let av = data::ints(6, n as usize, -1000, 1000);
    let reference: Vec<i32> = (0..n as usize)
        .map(|i| if i < n_rt as usize { av[i].wrapping_mul(5) } else { 0 })
        .collect();
    let expected = crate::checksum_bytes(&data::i32_bytes(&reference));
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| {
            m.mem.write_bytes(la, &data::i32_bytes(&av));
            m.mem.write_u32(lp, n_rt);
        }),
        out_region: (lv, n * 4),
        expected,
    }
}

fn partial(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let b = kb.alloc("b", DataType::I32, n);
    let v = kb.alloc("v", DataType::I32, n + 16);
    let (lb, lv) = (kb.layout().buf(b).base, kb.layout().buf(v).base);
    kb.emit_loop(LoopIr {
        name: "micro_partial".into(),
        trip: Trip::Const(n),
        elem: DataType::I32,
        body: Body::Map { dst: v.at(16), expr: Expr::load(v.at(0)) + Expr::load(b.at(0)) },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let bv = data::ints(7, n as usize, -100, 100);
    let mut vref = vec![0i32; (n + 16) as usize];
    vref[..16].fill(3); // seeded prefix
    for i in 0..n as usize {
        vref[i + 16] = vref[i].wrapping_add(bv[i]);
    }
    let expected = crate::checksum_bytes(&data::i32_bytes(&vref[16..]));
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| {
            m.mem.write_bytes(lb, &data::i32_bytes(&bv));
            for i in 0..16u32 {
                m.mem.write_u32(lv + 4 * i, 3);
            }
        }),
        out_region: (lv + 64, n * 4),
        expected,
    }
}

fn gather(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let idx = kb.alloc("idx", DataType::I32, n);
    let table = kb.alloc("table", DataType::I32, 64);
    let v = kb.alloc("v", DataType::I32, n);
    let (li, lt, lv) = (
        kb.layout().buf(idx).base,
        kb.layout().buf(table).base,
        kb.layout().buf(v).base,
    );
    kb.emit_loop(LoopIr {
        name: "micro_gather".into(),
        trip: Trip::Const(n),
        elem: DataType::I32,
        body: Body::Map {
            dst: v.at(0),
            expr: Expr::Gather(table, Box::new(Expr::load(idx.at(0)))),
        },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let iv = data::ints(8, n as usize, 0, 64);
    let tv = data::ints(9, 64, -1000, 1000);
    let reference: Vec<i32> = iv.iter().map(|&i| tv[i as usize]).collect();
    let expected = crate::checksum_bytes(&data::i32_bytes(&reference));
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| {
            m.mem.write_bytes(li, &data::i32_bytes(&iv));
            m.mem.write_bytes(lt, &data::i32_bytes(&tv));
        }),
        out_region: (lv, n * 4),
        expected,
    }
}

fn fir(variant: Variant, n: u32) -> BuiltWorkload {
    // y[i] = (3 x[i] + 7 x[i+1] + 7 x[i+2] + 3 x[i+3]) >> 4 on i16
    // samples: four load streams, four hoisted coefficients, 8 lanes.
    let taps: [i32; 4] = [3, 7, 7, 3];
    let mut kb = KernelBuilder::new(variant);
    let x = kb.alloc("x", DataType::I16, n + 4);
    let y = kb.alloc("y", DataType::I16, n);
    let (lx, ly) = (kb.layout().buf(x).base, kb.layout().buf(y).base);
    let expr = (Expr::Imm(taps[0]) * Expr::load(x.at(0))
        + Expr::Imm(taps[1]) * Expr::load(x.at(1))
        + Expr::Imm(taps[2]) * Expr::load(x.at(2))
        + Expr::Imm(taps[3]) * Expr::load(x.at(3)))
    .shr(4);
    kb.emit_loop(LoopIr {
        name: "micro_fir".into(),
        trip: Trip::Const(n),
        elem: DataType::I16,
        body: Body::Map { dst: y.at(0), expr },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let xv = data::ints(12, (n + 4) as usize, 0, 1024);
    let reference: Vec<i32> = (0..n as usize)
        .map(|i| {
            let acc: i32 = (0..4).map(|t| taps[t] * xv[i + t]).sum();
            ((acc as u16 as u32) >> 4) as u16 as i32
        })
        .collect();
    let ref_bytes: Vec<u8> =
        reference.iter().flat_map(|v| (*v as u16).to_le_bytes()).collect();
    let expected = crate::checksum_bytes(&ref_bytes);
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| {
            for (i, &v) in xv.iter().enumerate() {
                m.mem.write_u16(lx + 2 * i as u32, v as u16);
            }
        }),
        out_region: (ly, n * 2),
        expected,
    }
}

fn nest_fused(variant: Variant, n: u32) -> BuiltWorkload {
    // rows x cols grid, rows stored contiguously: the outer loop only
    // advances the row pointers, so the nest fuses.
    let cols = 32u32;
    let rows = (n / cols).max(4);
    let total = rows * cols;
    let mut kb = KernelBuilder::new(variant);
    let src = kb.alloc("src", DataType::I32, total);
    let dst = kb.alloc("dst", DataType::I32, total);
    let (ls, ld) = (kb.layout().buf(src).base, kb.layout().buf(dst).base);
    let outer_top;
    {
        let asm = kb.asm_mut();
        asm.mov_imm(Reg::R10, ls as i32);
        asm.mov_imm(Reg::R11, ld as i32);
        asm.mov_imm(Reg::LR, 0);
        outer_top = asm.here();
    }
    kb.emit_loop(LoopIr {
        name: "nest_inner".into(),
        trip: Trip::Const(cols),
        elem: DataType::I32,
        body: Body::Map { dst: dst.at(0), expr: Expr::load(src.at(0)) + Expr::Imm(1) },
        ptr_overrides: vec![(src, Reg::R10), (dst, Reg::R11)],
        ..LoopIr::default()
    });
    {
        let asm = kb.asm_mut();
        asm.add_imm(Reg::R10, Reg::R10, (cols * 4) as i16);
        asm.add_imm(Reg::R11, Reg::R11, (cols * 4) as i16);
        asm.add_imm(Reg::LR, Reg::LR, 1);
        asm.cmp_imm(Reg::LR, rows as i16);
        asm.b_to(dsa_isa::Cond::Ne, outer_top);
        asm.halt();
    }
    let kernel = kb.finish();
    let sv = data::ints(11, total as usize, -1000, 1000);
    let reference: Vec<i32> = sv.iter().map(|x| x.wrapping_add(1)).collect();
    let expected = crate::checksum_bytes(&data::i32_bytes(&reference));
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| m.mem.write_bytes(ls, &data::i32_bytes(&sv))),
        out_region: (ld, total * 4),
        expected,
    }
}

fn reduce(variant: Variant, n: u32) -> BuiltWorkload {
    let mut kb = KernelBuilder::new(variant);
    let a = kb.alloc("a", DataType::I32, n);
    let out = kb.alloc("out", DataType::I32, 1);
    let (la, lo) = (kb.layout().buf(a).base, kb.layout().buf(out).base);
    kb.emit_loop(LoopIr {
        name: "micro_reduce".into(),
        trip: Trip::Const(n),
        elem: DataType::I32,
        body: Body::Reduce {
            op: BinOp::Add,
            expr: Expr::load(a.at(0)),
            out: out.at(0),
            init: 0,
        },
        ..LoopIr::default()
    });
    kb.halt();
    let kernel = kb.finish();
    let av = data::ints(10, n as usize, -1000, 1000);
    let total: i32 = av.iter().fold(0i32, |acc, &x| acc.wrapping_add(x));
    let expected = crate::checksum_bytes(&total.to_le_bytes());
    BuiltWorkload {
        kernel,
        init: Box::new(move |m| m.mem.write_bytes(la, &data::i32_bytes(&av))),
        out_region: (lo, 4),
        expected,
    }
}
