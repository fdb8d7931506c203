//! SIMD instruction generation (§4.7) and leftover handling (§4.8).

use dsa_cpu::InjectedOp;
use dsa_isa::{ElemType, QReg, Reg, VecOp};

use crate::config::LeftoverPolicy;
use crate::stats::LoopClass;

/// One access stream as stored in the DSA cache: enough to regenerate
/// the stream's addresses for any future loop instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTemplate {
    /// PC of the load/store.
    pub pc: u32,
    /// Occurrence index within an iteration.
    pub occ: u8,
    /// Whether the stream writes.
    pub is_write: bool,
    /// Access width in bytes.
    pub bytes: u8,
    /// Per-iteration address gap.
    pub gap: i64,
}

/// Vectorizable value-operation mix of a loop body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMix {
    /// Non-multiply element ops.
    pub alu: u32,
    /// Multiplies.
    pub mul: u32,
    /// Right shifts.
    pub shift: u32,
}

impl OpMix {
    /// Total value operations.
    pub fn total(&self) -> u32 {
        self.alu + self.mul + self.shift
    }
}

/// One conditional arm of a conditional loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmTemplate {
    /// Path hash identifying the arm.
    pub path: u64,
    /// The arm's access streams.
    pub streams: Vec<StreamTemplate>,
    /// The arm's operation mix.
    pub ops: OpMix,
}

/// Everything the DSA cache stores about a verified vectorizable loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopTemplate {
    /// Loop classification.
    pub class: LoopClass,
    /// PC of the closing backward branch.
    pub end_pc: u32,
    /// PC range of called functions, if the body calls one.
    pub callee_range: Option<(u32, u32)>,
    /// PC of the sentinel stop check, if any.
    pub exit_check_pc: Option<u32>,
    /// Element width in bytes.
    pub elem_bytes: u8,
    /// Whether the element type is float.
    pub float: bool,
    /// Access streams (straight-line part).
    pub streams: Vec<StreamTemplate>,
    /// Operation mix (straight-line part).
    pub ops: OpMix,
    /// Conditional arms (empty for non-conditional loops).
    pub arms: Vec<ArmTemplate>,
    /// Partial-vectorization chunk size in iterations, if the loop has a
    /// bounded cross-iteration dependency.
    pub partial_distance: Option<u32>,
    /// Speculative range for sentinel loops (updated after every run).
    pub spec_range: u32,
    /// The immediate trip limit for static count loops, if known.
    pub trip_imm: Option<i64>,
    /// PC range of the condition-dependent arm bodies (conditional
    /// loops): only these instructions are covered by speculative vector
    /// execution — the condition evaluation itself stays on the scalar
    /// core, which is what drives the Vector-Map mapping.
    pub cover_range: Option<(u32, u32)>,
    /// For a fused loop nest (§4.6.3, no instructions between the
    /// loops): the inner loop's trip count — each remaining *outer*
    /// iteration contributes this many elements per stream.
    pub fused_inner_trip: Option<u32>,
}

/// A structural defect found in a cached [`LoopTemplate`] — the DSA
/// validates every template as it leaves the cache, so a corrupted entry
/// (bit flip, fault injection) degrades the loop to scalar execution
/// instead of driving the planner into undefined behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateDefect {
    /// `elem_bytes` is not 1, 2 or 4 (would break lane math).
    BadElemBytes(u8),
    /// A stream's gap is not the unit stride the planner requires.
    BadStreamGap {
        /// PC of the offending stream.
        pc: u32,
        /// The bad gap.
        gap: i64,
    },
    /// The template carries no executable work (no streams / no arms).
    NoWork,
}

impl std::fmt::Display for TemplateDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemplateDefect::BadElemBytes(b) => write!(f, "invalid element width {b}"),
            TemplateDefect::BadStreamGap { pc, gap } => {
                write!(f, "stream at pc {pc} has non-unit gap {gap}")
            }
            TemplateDefect::NoWork => write!(f, "template carries no streams or arms"),
        }
    }
}

impl std::error::Error for TemplateDefect {}

impl LoopTemplate {
    /// Lanes per 128-bit vector for this loop's element type.
    pub fn lanes(&self) -> u32 {
        16 / self.elem_bytes as u32
    }

    /// Checks the structural invariants every cache-resident template
    /// satisfies by construction: a valid element width, unit-stride
    /// straight-line streams, unit-or-invariant arm streams, and at
    /// least one stream (or one arm, for conditional loops).
    ///
    /// # Errors
    ///
    /// Returns the first [`TemplateDefect`] found.
    pub fn validate(&self) -> Result<(), TemplateDefect> {
        if !matches!(self.elem_bytes, 1 | 2 | 4) {
            return Err(TemplateDefect::BadElemBytes(self.elem_bytes));
        }
        let elem = self.elem_bytes as i64;
        for s in &self.streams {
            if s.gap != elem {
                return Err(TemplateDefect::BadStreamGap { pc: s.pc, gap: s.gap });
            }
        }
        for arm in &self.arms {
            for s in &arm.streams {
                if s.gap != 0 && s.gap != elem {
                    return Err(TemplateDefect::BadStreamGap { pc: s.pc, gap: s.gap });
                }
            }
        }
        let has_work = if self.class == LoopClass::Conditional {
            !self.arms.is_empty()
        } else {
            !self.streams.is_empty()
        };
        if !has_work {
            return Err(TemplateDefect::NoWork);
        }
        Ok(())
    }

    /// The vector element type.
    pub fn elem_type(&self) -> ElemType {
        match (self.elem_bytes, self.float) {
            (1, _) => ElemType::I8,
            (2, _) => ElemType::I16,
            (4, true) => ElemType::F32,
            _ => ElemType::I32,
        }
    }

    /// A minimal template for unit tests.
    #[doc(hidden)]
    pub fn test_dummy() -> LoopTemplate {
        LoopTemplate {
            class: LoopClass::Count,
            end_pc: 0,
            callee_range: None,
            exit_check_pc: None,
            elem_bytes: 4,
            float: false,
            streams: vec![
                StreamTemplate { pc: 1, occ: 0, is_write: false, bytes: 4, gap: 4 },
                StreamTemplate { pc: 2, occ: 0, is_write: true, bytes: 4, gap: 4 },
            ],
            ops: OpMix { alu: 1, mul: 0, shift: 0 },
            arms: Vec::new(),
            partial_distance: None,
            spec_range: 0,
            trip_imm: None,
            cover_range: None,
            fused_inner_trip: None,
        }
    }
}

/// The generated SIMD work for one vectorized region.
#[derive(Debug, Clone)]
pub struct VectorPlan {
    /// Operations to inject into the Issue stage, in order.
    pub ops: Vec<InjectedOp>,
    /// Full vector chunks generated.
    pub chunks: u32,
    /// Iterations handled by the leftover strategy.
    pub leftover_elems: u32,
    /// The strategy actually used for leftovers.
    pub leftover_used: LeftoverPolicy,
    /// Extra lanes computed and discarded (overlap / padding).
    pub discarded_lanes: u32,
}

/// Builds the SIMD work covering `iterations` loop iterations, with the
/// stream base addresses giving each stream's address at the *first*
/// covered iteration.
///
/// `streams` pairs every stream template with that base address.
///
/// # Examples
///
/// ```
/// use dsa_core::{build_plan, LeftoverPolicy, LoopTemplate};
///
/// let template = LoopTemplate::test_dummy(); // one load + one store, i32
/// let streams: Vec<_> = template
///     .streams
///     .iter()
///     .map(|&s| (s, 0x1000))
///     .collect();
/// let plan = build_plan(&template, &streams, template.ops, 21, LeftoverPolicy::Auto);
/// assert_eq!(plan.chunks, 5);          // 20 elements in 4-lane vectors
/// assert_eq!(plan.leftover_elems, 1);  // plus one leftover
/// ```
///
/// # Panics
///
/// Panics if `elem_bytes` is not 1, 2 or 4 (no such streams exist in
/// practice) or if a stream's gap does not equal its element width (the
/// engine rejects non-unit strides before planning).
pub fn build_plan(
    template: &LoopTemplate,
    streams: &[(StreamTemplate, u32)],
    ops: OpMix,
    iterations: u32,
    policy: LeftoverPolicy,
) -> VectorPlan {
    let lanes = template.lanes();
    let et = template.elem_type();
    for (s, _) in streams {
        assert_eq!(
            s.gap.unsigned_abs() as u32,
            template.elem_bytes as u32,
            "plan requires unit-stride streams"
        );
    }
    let chunks = iterations / lanes;
    let leftover = iterations % lanes;

    let mut plan = VectorPlan {
        ops: Vec::new(),
        chunks,
        leftover_elems: leftover,
        leftover_used: LeftoverPolicy::SingleElements,
        discarded_lanes: 0,
    };

    for c in 0..chunks {
        emit_chunk(&mut plan.ops, streams, ops, et, c, c * lanes);
    }

    if leftover > 0 {
        let resolved = match policy {
            LeftoverPolicy::Auto => {
                if chunks >= 1 && overlap_safe(streams) {
                    LeftoverPolicy::Overlapping
                } else {
                    LeftoverPolicy::SingleElements
                }
            }
            LeftoverPolicy::Overlapping if chunks == 0 || !overlap_safe(streams) => {
                LeftoverPolicy::SingleElements
            }
            p => p,
        };
        plan.leftover_used = resolved;
        match resolved {
            LeftoverPolicy::Overlapping => {
                // Final full vector ending exactly at the last element.
                emit_chunk(&mut plan.ops, streams, ops, et, chunks, iterations - lanes);
                plan.discarded_lanes = lanes - leftover;
            }
            LeftoverPolicy::LargerArrays => {
                // One padded vector starting at the first leftover.
                emit_chunk(&mut plan.ops, streams, ops, et, chunks, chunks * lanes);
                plan.discarded_lanes = lanes - leftover;
            }
            _ => {
                for e in 0..leftover {
                    emit_single(&mut plan.ops, streams, ops, et, chunks * lanes + e);
                }
            }
        }
    }

    plan
}

/// Whether re-executing trailing lanes is safe: unsafe when the loop
/// updates a buffer in place (a load stream shares its address sequence
/// with a store stream), because the recomputation would read already-
/// updated values.
fn overlap_safe(streams: &[(StreamTemplate, u32)]) -> bool {
    let writes: Vec<u32> = streams.iter().filter(|(s, _)| s.is_write).map(|(_, a)| *a).collect();
    !streams
        .iter()
        .filter(|(s, _)| !s.is_write)
        .any(|(_, a)| writes.contains(a))
}

fn stream_addr(base: u32, s: &StreamTemplate, elem_index: u32) -> u32 {
    (base as i64 + s.gap * elem_index as i64) as u32
}

fn emit_chunk(
    out: &mut Vec<InjectedOp>,
    streams: &[(StreamTemplate, u32)],
    ops: OpMix,
    et: ElemType,
    chunk_index: u32,
    elem_index: u32,
) {
    // Rotate registers so independent chunks can pipeline on the NEON
    // engine while ops inside a chunk stay dependent (expression tree).
    // The `n`-th load of a chunk lands in `load_q(n)`; the sources below
    // cycle through those registers in load order.
    let load_q = |n: u32| QReg::new(4 + ((chunk_index * 2 + n) % 4) as u8);
    let mut loads = 0u32;
    for (s, base) in streams.iter().filter(|(s, _)| !s.is_write) {
        out.push(InjectedOp::vld1(load_q(loads), Reg::R2, et, stream_addr(*base, s, elem_index)));
        loads += 1;
    }
    // Emit the value operations as an expression *tree*, the shape the
    // SIMD generator reconstructs from the body profile: multiplies are
    // independent (each reads loads), then a shallow combine chain of
    // adds/shifts. Two destination registers alternate per chunk so
    // consecutive chunks pipeline on the NEON engine.
    let dest = QReg::new(8 + ((chunk_index % 4) * 2) as u8);
    let side = QReg::new(9 + ((chunk_index % 4) * 2) as u8);
    let mut emitted = 0u32;
    let mut next_src = 0u32;
    let mut next_load = || {
        (loads > 0).then(|| {
            let q = load_q(next_src % loads);
            next_src += 1;
            q
        })
    };
    let first = next_load().unwrap_or(dest);
    // Independent multiplies into the side register bank.
    for k in 0..ops.mul {
        let qn = next_load().unwrap_or(first);
        let qm = next_load().unwrap_or(first);
        let qd = if k == 0 { dest } else { side };
        out.push(InjectedOp::vop(VecOp::Mul, et, qd, qn, qm));
        emitted += 1;
    }
    // Combine chain: adds fold the side results / loads into `dest`.
    for _ in 0..ops.alu {
        let qm = if emitted > 1 { side } else { next_load().unwrap_or(first) };
        let qn = if emitted == 0 { first } else { dest };
        out.push(InjectedOp::vop(VecOp::Add, et, dest, qn, qm));
        emitted += 1;
    }
    for _ in 0..ops.shift {
        let qn = if emitted == 0 { first } else { dest };
        out.push(InjectedOp::vshr(dest, qn, 1, et));
        emitted += 1;
    }
    if emitted == 0 {
        // Pure copy loops still move data through a register.
        out.push(InjectedOp::vmov(dest, first));
    }
    for (s, base) in streams.iter().filter(|(s, _)| s.is_write) {
        out.push(InjectedOp::vst1(dest, Reg::R2, et, stream_addr(*base, s, elem_index)));
    }
}

fn emit_single(
    out: &mut Vec<InjectedOp>,
    streams: &[(StreamTemplate, u32)],
    ops: OpMix,
    et: ElemType,
    elem_index: u32,
) {
    let dest = QReg::Q12;
    let mut first = dest;
    for (i, (s, base)) in streams.iter().filter(|(s, _)| !s.is_write).enumerate() {
        let q = QReg::new(4 + (i % 4) as u8);
        if i == 0 {
            first = q;
        }
        out.push(InjectedOp::vld1_lane(q, 0, Reg::R2, et, stream_addr(*base, s, elem_index)));
    }
    for _ in 0..ops.total().max(1) {
        out.push(InjectedOp::vop(VecOp::Add, et, dest, first, first));
    }
    for (s, base) in streams.iter().filter(|(s, _)| s.is_write) {
        out.push(InjectedOp::vst1_lane(dest, 0, Reg::R2, et, stream_addr(*base, s, elem_index)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_isa::InstrClass;

    fn streams_for(t: &LoopTemplate) -> Vec<(StreamTemplate, u32)> {
        t.streams
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, 0x1000 + 0x100 * i as u32))
            .collect()
    }

    fn count_class(plan: &VectorPlan, class: InstrClass) -> usize {
        plan.ops.iter().filter(|o| o.class() == class).count()
    }

    #[test]
    fn validate_accepts_real_templates_and_rejects_corruption() {
        let t = LoopTemplate::test_dummy();
        assert_eq!(t.validate(), Ok(()));

        let mut bad_elem = t.clone();
        bad_elem.elem_bytes = 0;
        assert_eq!(bad_elem.validate(), Err(TemplateDefect::BadElemBytes(0)));

        let mut bad_gap = t.clone();
        bad_gap.streams[0].gap = 7;
        assert_eq!(
            bad_gap.validate(),
            Err(TemplateDefect::BadStreamGap { pc: bad_gap.streams[0].pc, gap: 7 })
        );

        let mut empty = t.clone();
        empty.streams.clear();
        assert_eq!(empty.validate(), Err(TemplateDefect::NoWork));

        let mut cond = t;
        cond.class = LoopClass::Conditional;
        cond.streams.clear();
        assert_eq!(cond.validate(), Err(TemplateDefect::NoWork));
        cond.arms.push(ArmTemplate {
            path: 1,
            streams: vec![StreamTemplate { pc: 9, occ: 0, is_write: true, bytes: 4, gap: 4 }],
            ops: OpMix::default(),
        });
        assert_eq!(cond.validate(), Ok(()));
    }

    #[test]
    fn exact_multiple_has_no_leftover() {
        let t = LoopTemplate::test_dummy();
        let plan = build_plan(&t, &streams_for(&t), t.ops, 40, LeftoverPolicy::Auto);
        assert_eq!(plan.chunks, 10);
        assert_eq!(plan.leftover_elems, 0);
        assert_eq!(count_class(&plan, InstrClass::VecLoad), 10);
        assert_eq!(count_class(&plan, InstrClass::VecStore), 10);
        assert_eq!(count_class(&plan, InstrClass::VecAlu), 10);
        assert_eq!(plan.discarded_lanes, 0);
    }

    #[test]
    fn single_elements_leftover() {
        let t = LoopTemplate::test_dummy();
        let plan = build_plan(&t, &streams_for(&t), t.ops, 21, LeftoverPolicy::SingleElements);
        assert_eq!(plan.chunks, 5);
        assert_eq!(plan.leftover_elems, 1);
        assert_eq!(plan.leftover_used, LeftoverPolicy::SingleElements);
        // 5 chunk loads + 1 lane load.
        assert_eq!(count_class(&plan, InstrClass::VecLoad), 6);
        assert_eq!(plan.discarded_lanes, 0);
    }

    #[test]
    fn overlapping_leftover_full_final_vector() {
        let t = LoopTemplate::test_dummy();
        let plan = build_plan(&t, &streams_for(&t), t.ops, 21, LeftoverPolicy::Overlapping);
        assert_eq!(plan.chunks, 5);
        assert_eq!(plan.leftover_used, LeftoverPolicy::Overlapping);
        assert_eq!(count_class(&plan, InstrClass::VecLoad), 6, "one overlapping chunk");
        assert_eq!(plan.discarded_lanes, 3);
        // The final load starts at element 17 (21 - 4 lanes).
        let last_load = plan.ops.iter().rfind(|o| o.class() == InstrClass::VecLoad).unwrap();
        assert_eq!(last_load.addr(), Some(0x1000 + 17 * 4));
    }

    #[test]
    fn larger_arrays_pads_past_end() {
        let t = LoopTemplate::test_dummy();
        let plan = build_plan(&t, &streams_for(&t), t.ops, 21, LeftoverPolicy::LargerArrays);
        assert_eq!(plan.leftover_used, LeftoverPolicy::LargerArrays);
        let last_load = plan.ops.iter().rfind(|o| o.class() == InstrClass::VecLoad).unwrap();
        assert_eq!(last_load.addr(), Some(0x1000 + 20 * 4), "starts at the first leftover");
    }

    #[test]
    fn auto_prefers_overlap_when_safe() {
        let t = LoopTemplate::test_dummy();
        let plan = build_plan(&t, &streams_for(&t), t.ops, 21, LeftoverPolicy::Auto);
        assert_eq!(plan.leftover_used, LeftoverPolicy::Overlapping);
    }

    #[test]
    fn auto_falls_back_for_in_place_updates() {
        // c[i] = c[i] + …: load and store share the same base address.
        let t = LoopTemplate::test_dummy();
        let streams = vec![(t.streams[0], 0x1000), (t.streams[1], 0x1000)];
        let plan = build_plan(&t, &streams, t.ops, 21, LeftoverPolicy::Auto);
        assert_eq!(plan.leftover_used, LeftoverPolicy::SingleElements);
    }

    #[test]
    fn tiny_trip_all_singles() {
        let t = LoopTemplate::test_dummy();
        let plan = build_plan(&t, &streams_for(&t), t.ops, 3, LeftoverPolicy::Auto);
        assert_eq!(plan.chunks, 0);
        assert_eq!(plan.leftover_used, LeftoverPolicy::SingleElements);
        assert_eq!(count_class(&plan, InstrClass::VecLoad), 3);
    }

    #[test]
    fn addresses_advance_by_lane_stride() {
        let t = LoopTemplate::test_dummy();
        let plan = build_plan(&t, &streams_for(&t), t.ops, 8, LeftoverPolicy::Auto);
        let loads: Vec<u32> = plan
            .ops
            .iter()
            .filter(|o| o.class() == InstrClass::VecLoad)
            .filter_map(|o| o.addr())
            .collect();
        assert_eq!(loads, vec![0x1000, 0x1000 + 16]);
    }

    #[test]
    fn ops_mix_reflected() {
        let mut t = LoopTemplate::test_dummy();
        t.ops = OpMix { alu: 2, mul: 1, shift: 1 };
        let plan = build_plan(&t, &streams_for(&t), t.ops, 4, LeftoverPolicy::Auto);
        assert_eq!(count_class(&plan, InstrClass::VecMul), 1);
        assert_eq!(count_class(&plan, InstrClass::VecAlu), 3, "2 adds + 1 shift");
    }
}
