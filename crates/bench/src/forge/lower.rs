//! Lowering a [`ProgramSpec`] to an executable kernel plus
//! deterministic input data.
//!
//! Each loop of the spec becomes one `emit_loop` (plus the raw-asm
//! scaffolding dynamic-range and nest shapes need), following the same
//! recipes as the microkernel suite. Input data is derived from the
//! spec's seed with splitmix64 and precomputed into `(addr, bytes)`
//! writes, so the init closure is a plain replay — the same spec
//! always produces the same kernel *and* the same initial memory
//! image, which is what makes campaign failures replayable from a
//! JSON artifact alone.

use dsa_compiler::{
    regs, Body, BufId, DataType, Expr, Kernel, KernelBuilder, LoopIr, Trip, Variant,
};
use dsa_core::splitmix64;
use dsa_cpu::Machine;
use dsa_isa::Reg;

use super::spec::{LoopSpec, ProgramSpec, Shape};

/// Static buffer-name tables (the builder wants `&'static str`); one
/// row per loop index, bounded by [`super::gen::MAX_LOOPS`].
const NAME_A: [&str; 4] = ["f0_a", "f1_a", "f2_a", "f3_a"];
const NAME_B: [&str; 4] = ["f0_b", "f1_b", "f2_b", "f3_b"];
const NAME_V: [&str; 4] = ["f0_v", "f1_v", "f2_v", "f3_v"];
const NAME_X: [&str; 4] = ["f0_x", "f1_x", "f2_x", "f3_x"];

/// A lowered program: the kernel and the precomputed initial-memory
/// writes that seed its input buffers.
pub struct ForgeProgram {
    /// The compiled kernel (scalar variant — the DSA is the subject).
    pub kernel: Kernel,
    /// `(addr, bytes)` writes applied to both machines before a run.
    pub writes: Vec<(u32, Vec<u8>)>,
}

impl ForgeProgram {
    /// The init closure both oracle runs share.
    pub fn init(&self) -> impl Fn(&mut Machine) + '_ {
        move |m: &mut Machine| {
            for (addr, bytes) in &self.writes {
                m.mem.write_bytes(*addr, bytes);
            }
        }
    }
}

/// Lowers `spec` to an executable program.
///
/// # Panics
///
/// Panics if the spec violates a lowering bound (more loops than the
/// name tables, a shape/field combination the generator never emits).
/// The campaign runs lowering inside the crash boundary
/// ([`crate::isolate`]), so a panicking spec surfaces as an infra
/// failure, not an abort.
pub fn lower(spec: &ProgramSpec) -> ForgeProgram {
    assert!(
        !spec.loops.is_empty() && spec.loops.len() <= NAME_A.len(),
        "program must have 1..={} loops",
        NAME_A.len()
    );
    let mut kb = KernelBuilder::new(Variant::Scalar);
    let mut data = spec.seed ^ 0xda7a_5eed_0f0e_c0de;
    let mut writes: Vec<(u32, Vec<u8>)> = Vec::new();

    for (i, l) in spec.loops.iter().enumerate() {
        emit(&mut kb, i, l, &mut data, &mut writes);
    }
    kb.halt();
    ForgeProgram { kernel: kb.finish(), writes }
}

/// The second operand of a body: the loop's immediate, or a load from
/// a freshly allocated, data-seeded input stream.
fn second_operand(
    kb: &mut KernelBuilder,
    i: usize,
    l: &LoopSpec,
    len: u32,
    data: &mut u64,
    writes: &mut Vec<(u32, Vec<u8>)>,
) -> Expr {
    if l.use_imm {
        match l.elem {
            DataType::F32 => Expr::ImmF(l.imm as f32),
            _ => Expr::Imm(l.imm),
        }
    } else {
        let b = kb.alloc(NAME_B[i], l.elem, len);
        seed_buffer(kb, b, len, l.elem, data, writes);
        Expr::load(b.at(0))
    }
}

fn emit(
    kb: &mut KernelBuilder,
    i: usize,
    l: &LoopSpec,
    data: &mut u64,
    writes: &mut Vec<(u32, Vec<u8>)>,
) {
    let name = format!("forge_{i}_{}", l.shape.name());
    match l.shape {
        Shape::Count => {
            let a = kb.alloc(NAME_A[i], l.elem, l.trip);
            seed_buffer(kb, a, l.trip, l.elem, data, writes);
            let second = second_operand(kb, i, l, l.trip, data, writes);
            let v = kb.alloc(NAME_V[i], l.elem, l.trip);
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Const(l.trip),
                elem: l.elem,
                body: Body::Map {
                    dst: v.at(0),
                    expr: Expr::bin(l.op, Expr::load(a.at(0)), second),
                },
                ..LoopIr::default()
            });
        }
        Shape::Function => {
            let a = kb.alloc(NAME_A[i], l.elem, l.trip);
            seed_buffer(kb, a, l.trip, l.elem, data, writes);
            let v = kb.alloc(NAME_V[i], l.elem, l.trip);
            // f(x) = 3x as an add chain, so the body stays
            // NEON-expressible for the DSA's function inlining.
            let f = kb.define_function(|asm| {
                asm.add(Reg::R9, regs::SCRATCH, regs::SCRATCH);
                asm.add(regs::SCRATCH, Reg::R9, regs::SCRATCH);
                asm.bx_lr();
            });
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Const(l.trip),
                elem: l.elem,
                body: Body::Map {
                    dst: v.at(0),
                    expr: Expr::Call(f, Box::new(Expr::load(a.at(0)))),
                },
                ..LoopIr::default()
            });
        }
        Shape::Nest => {
            let cols = l.trip;
            let rows = l.rows.max(2);
            let total = rows * cols;
            let src = kb.alloc(NAME_A[i], l.elem, total);
            seed_buffer(kb, src, total, l.elem, data, writes);
            let second = second_operand(kb, i, l, cols, data, writes);
            let dst = kb.alloc(NAME_V[i], l.elem, total);
            let (ls, ld) = (kb.layout().buf(src).base, kb.layout().buf(dst).base);
            let row_bytes = (cols * l.elem.bytes()) as i16;
            let outer_top;
            {
                let asm = kb.asm_mut();
                asm.mov_imm(Reg::R10, ls as i32);
                asm.mov_imm(Reg::R11, ld as i32);
                asm.mov_imm(Reg::LR, 0);
                outer_top = asm.here();
            }
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Const(cols),
                elem: l.elem,
                body: Body::Map {
                    dst: dst.at(0),
                    expr: Expr::bin(l.op, Expr::load(src.at(0)), second),
                },
                ptr_overrides: vec![(src, Reg::R10), (dst, Reg::R11)],
                ..LoopIr::default()
            });
            {
                let asm = kb.asm_mut();
                asm.add_imm(Reg::R10, Reg::R10, row_bytes);
                asm.add_imm(Reg::R11, Reg::R11, row_bytes);
                asm.add_imm(Reg::LR, Reg::LR, 1);
                asm.cmp_imm(Reg::LR, rows as i16);
                asm.b_to(dsa_isa::Cond::Ne, outer_top);
            }
        }
        Shape::Conditional => {
            let a = kb.alloc(NAME_A[i], l.elem, l.trip);
            seed_buffer(kb, a, l.trip, l.elem, data, writes);
            let second = second_operand(kb, i, l, l.trip, data, writes);
            let v = kb.alloc(NAME_V[i], l.elem, l.trip);
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Const(l.trip),
                elem: l.elem,
                body: Body::Select {
                    cond_lhs: Expr::load(a.at(0)),
                    cmp: l.cmp,
                    cond_rhs: Expr::Imm(0),
                    then_dst: v.at(0),
                    then_expr: Expr::bin(l.op, Expr::load(a.at(0)), second),
                    else_arm: l
                        .else_arm
                        .then(|| (v.at(0), Expr::load(a.at(0)) + Expr::Imm(1))),
                },
                ..LoopIr::default()
            });
        }
        Shape::DynamicRange => {
            let a = kb.alloc(NAME_A[i], l.elem, l.trip);
            seed_buffer(kb, a, l.trip, l.elem, data, writes);
            let second = second_operand(kb, i, l, l.trip, data, writes);
            let v = kb.alloc(NAME_V[i], l.elem, l.trip);
            let params = kb.alloc(NAME_X[i], DataType::I32, 1);
            let lp = kb.layout().buf(params).base;
            // Runtime trip: strictly less than the buffer length, so
            // the tail stays untouched and the class is unambiguous.
            let n_rt = l.trip - l.trip / 8;
            writes.push((lp, n_rt.to_le_bytes().to_vec()));
            {
                let asm = kb.asm_mut();
                asm.mov_imm(Reg::R12, lp as i32);
                asm.ldr(Reg::R11, Reg::R12, 0);
            }
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Reg(Reg::R11),
                elem: l.elem,
                body: Body::Map {
                    dst: v.at(0),
                    expr: Expr::bin(l.op, Expr::load(a.at(0)), second),
                },
                ..LoopIr::default()
            });
        }
        Shape::Sentinel => {
            let src = kb.alloc(NAME_A[i], DataType::I8, l.trip);
            let dst = kb.alloc(NAME_V[i], DataType::I8, l.trip);
            let ls = kb.layout().buf(src).base;
            // Live bytes 1..=100, then a zero terminator; the rest of
            // the buffer stays zero (page default), so overshooting
            // speculation always has in-bounds bytes to discard.
            let live = (l.trip - l.trip / 8) as usize;
            let mut bytes = vec![0u8; l.trip as usize];
            for b in bytes.iter_mut().take(live) {
                *b = (1 + splitmix64(data) % 100) as u8;
            }
            writes.push((ls, bytes));
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Sentinel { buf: src, value: 0 },
                elem: DataType::I8,
                body: Body::Map {
                    dst: dst.at(0),
                    expr: Expr::bin(l.op, Expr::load(src.at(0)), Expr::Imm(l.imm)),
                },
                ..LoopIr::default()
            });
        }
        Shape::Partial | Shape::Serial => {
            // v[i + d] = v[i] ⊕ second: d = 16 is a bounded dependency
            // (partial vectorization), d = 1 a true serial one.
            let d: u32 = if l.shape == Shape::Partial { 16 } else { 1 };
            let second = second_operand(kb, i, l, l.trip, data, writes);
            let v = kb.alloc(NAME_V[i], l.elem, l.trip + d);
            let lv = kb.layout().buf(v).base;
            let mut prefix = Vec::new();
            for _ in 0..d {
                push_elem(&mut prefix, l.elem, splitmix64(data));
            }
            writes.push((lv, prefix));
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Const(l.trip),
                elem: l.elem,
                body: Body::Map {
                    dst: v.at(d as i32),
                    expr: Expr::bin(l.op, Expr::load(v.at(0)), second),
                },
                ..LoopIr::default()
            });
        }
        Shape::Gather => {
            let idx = kb.alloc(NAME_A[i], DataType::I32, l.trip);
            let table = kb.alloc(NAME_X[i], DataType::I32, 64);
            let v = kb.alloc(NAME_V[i], DataType::I32, l.trip);
            let (li, lt) = (kb.layout().buf(idx).base, kb.layout().buf(table).base);
            let mut ib = Vec::new();
            for _ in 0..l.trip {
                ib.extend(((splitmix64(data) % 64) as u32).to_le_bytes());
            }
            writes.push((li, ib));
            let mut tb = Vec::new();
            for _ in 0..64 {
                push_elem(&mut tb, DataType::I32, splitmix64(data));
            }
            writes.push((lt, tb));
            kb.emit_loop(LoopIr {
                name,
                trip: Trip::Const(l.trip),
                elem: DataType::I32,
                body: Body::Map {
                    dst: v.at(0),
                    expr: Expr::Gather(table, Box::new(Expr::load(idx.at(0)))),
                },
                ..LoopIr::default()
            });
        }
    }
}

/// Seeds `buf` with `len` deterministic elements.
fn seed_buffer(
    kb: &KernelBuilder,
    buf: BufId,
    len: u32,
    elem: DataType,
    data: &mut u64,
    writes: &mut Vec<(u32, Vec<u8>)>,
) {
    let base = kb.layout().buf(buf).base;
    let mut bytes = Vec::with_capacity((len * elem.bytes()) as usize);
    for _ in 0..len {
        push_elem(&mut bytes, elem, splitmix64(data));
    }
    writes.push((base, bytes));
}

/// Appends one element derived from raw randomness `r`, in a range
/// that keeps every draw meaningful for its type: nonzero-ish ints,
/// and exactly representable integer-valued floats (so float math is
/// bit-stable across any evaluation order).
fn push_elem(out: &mut Vec<u8>, elem: DataType, r: u64) {
    match elem {
        DataType::I8 => out.push((r % 251) as u8),
        DataType::I16 => out.extend((((r % 201) as i64 - 100) as i16).to_le_bytes()),
        DataType::I32 => out.extend((((r % 2001) as i64 - 1000) as i32).to_le_bytes()),
        DataType::F32 => out.extend(((((r % 201) as i64 - 100) as f32).to_bits()).to_le_bytes()),
    }
}

/// `BinOp` application is not needed on the host — the simulator is
/// the single source of truth for semantics — but the tests want a
/// couple of sanity predictions, so keep a tiny i32 model here.
#[cfg(test)]
fn apply_i32(op: dsa_compiler::BinOp, a: i32, b: i32) -> i32 {
    use dsa_compiler::BinOp;
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Orr => a | b,
        BinOp::Eor => a ^ b,
        BinOp::Shr(s) => ((a as u32) >> s) as i32,
    }
}

#[cfg(test)]
mod tests {
    use super::super::gen::generate_nth;
    use super::*;
    use dsa_compiler::BinOp;
    use dsa_cpu::{CpuConfig, Simulator};

    #[test]
    fn every_generated_spec_lowers_and_halts() {
        // A broad slice of the generator's output space must produce
        // kernels that assemble and run to completion scalar-only.
        for i in 0..48 {
            let spec = generate_nth(1, i);
            let prog = lower(&spec);
            let mut sim =
                Simulator::new(prog.kernel.program.clone(), CpuConfig::default());
            prog.init()(sim.machine_mut());
            let out = sim.run(20_000_000).unwrap_or_else(|e| {
                panic!("spec {i} ({spec:?}) did not halt: {e}");
            });
            assert!(out.halted, "spec {i} must halt");
        }
    }

    #[test]
    fn lowering_is_deterministic() {
        let spec = generate_nth(3, 7);
        let (a, b) = (lower(&spec), lower(&spec));
        assert_eq!(a.kernel.program.len(), b.kernel.program.len());
        assert_eq!(a.writes, b.writes);
    }

    #[test]
    fn count_loop_computes_the_expected_map() {
        use super::super::spec::LoopSpec;
        // v[i] = a[i] * 3: predict via the host-side i32 model.
        let spec = ProgramSpec {
            seed: 5,
            loops: vec![LoopSpec {
                op: BinOp::Mul,
                imm: 3,
                ..LoopSpec::minimal()
            }],
        };
        let prog = lower(&spec);
        let mut sim = Simulator::new(prog.kernel.program.clone(), CpuConfig::default());
        prog.init()(sim.machine_mut());
        sim.run(1_000_000).expect("halts");
        let (a_base, v_base) = (
            prog.kernel.layout.bufs()[0].base,
            prog.kernel.layout.bufs()[1].base,
        );
        for i in 0..16u32 {
            let a = sim.machine().mem.read_u32(a_base + 4 * i) as i32;
            let v = sim.machine().mem.read_u32(v_base + 4 * i) as i32;
            assert_eq!(v, apply_i32(BinOp::Mul, a, 3), "element {i}");
        }
    }
}
