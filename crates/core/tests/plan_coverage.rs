//! Plan-generation coverage properties: the SIMD work the DSA builds
//! must touch exactly the iterations it claims to cover (SingleElements)
//! or a lane-aligned superset (Overlapping / LargerArrays), for every
//! element type and iteration count.

use dsa_core::{build_plan, LeftoverPolicy, LoopClass, LoopTemplate, OpMix, StreamTemplate};
use dsa_isa::{Instr, InstrClass};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn template_for(elem_bytes: u8, float: bool) -> LoopTemplate {
    LoopTemplate {
        class: LoopClass::Count,
        end_pc: 0,
        callee_range: None,
        exit_check_pc: None,
        elem_bytes,
        float,
        streams: vec![
            StreamTemplate { pc: 1, occ: 0, is_write: false, bytes: elem_bytes, gap: elem_bytes as i64 },
            StreamTemplate { pc: 2, occ: 0, is_write: true, bytes: elem_bytes, gap: elem_bytes as i64 },
        ],
        ops: OpMix { alu: 1, mul: 1, shift: 0 },
        arms: Vec::new(),
        partial_distance: None,
        spec_range: 0,
        trip_imm: None,
        cover_range: None,
        fused_inner_trip: None,
    }
}

/// Collects the set of element indices written by the plan's stores.
fn stored_elements(ops: &[dsa_cpu::InjectedOp], base: u32, elem: u32) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    for op in ops {
        match op.instr() {
            Instr::Vst1 { et, .. } => {
                let addr = op.addr().expect("store has address");
                let lanes = et.lanes();
                let first = (addr - base) / elem;
                for l in 0..lanes {
                    out.insert(first + l);
                }
            }
            Instr::Vst1Lane { .. } => {
                let addr = op.addr().expect("store has address");
                out.insert((addr - base) / elem);
            }
            _ => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_elements_covers_exactly(
        elem_sel in 0u8..3,
        iterations in 1u32..200,
    ) {
        let (elem_bytes, float) = [(1, false), (4, false), (4, true)][elem_sel as usize];
        let t = template_for(elem_bytes, float);
        let base = 0x4000u32;
        let streams: Vec<_> = t.streams.iter().map(|&s| (s, base)).collect();
        let plan = build_plan(&t, &streams, t.ops, iterations, LeftoverPolicy::SingleElements);
        let got = stored_elements(&plan.ops, base, elem_bytes as u32);
        let want: BTreeSet<u32> = (0..iterations).collect();
        prop_assert_eq!(got, want, "elem {} iters {}", elem_bytes, iterations);
        prop_assert_eq!(plan.discarded_lanes, 0);
    }

    #[test]
    fn overlap_and_padding_cover_supersets(
        elem_sel in 0u8..3,
        iterations in 1u32..200,
        policy_sel in 0u8..2,
    ) {
        let (elem_bytes, float) = [(1, false), (4, false), (4, true)][elem_sel as usize];
        let policy = if policy_sel == 0 {
            LeftoverPolicy::Overlapping
        } else {
            LeftoverPolicy::LargerArrays
        };
        let t = template_for(elem_bytes, float);
        let lanes = t.lanes();
        let base = 0x4000u32;
        let streams: Vec<_> = t.streams.iter().map(|&s| (s, base)).collect();
        let plan = build_plan(&t, &streams, t.ops, iterations, policy);
        let got = stored_elements(&plan.ops, base, elem_bytes as u32);
        let want: BTreeSet<u32> = (0..iterations).collect();
        prop_assert!(
            got.is_superset(&want),
            "{policy:?} must cover all iterations: missing {:?}",
            want.difference(&got).take(4).collect::<Vec<_>>()
        );
        match policy {
            // Overlapping never goes past the last element.
            LeftoverPolicy::Overlapping if iterations >= lanes => {
                prop_assert!(got.iter().max() < Some(&iterations));
            }
            // LargerArrays pads to at most one extra vector.
            LeftoverPolicy::LargerArrays => {
                prop_assert!(*got.iter().max().expect("non-empty") < iterations + lanes);
            }
            _ => {}
        }
        // Extra work is bounded by one vector of lanes.
        prop_assert!(got.len() as u32 <= iterations + lanes);
    }

    #[test]
    fn op_counts_scale_linearly(iterations in 4u32..400) {
        let t = template_for(4, false);
        let base = 0x8000u32;
        let streams: Vec<_> = t.streams.iter().map(|&s| (s, base)).collect();
        let plan = build_plan(&t, &streams, t.ops, iterations, LeftoverPolicy::Auto);
        let chunks = iterations / t.lanes();
        let loads =
            plan.ops.iter().filter(|o| o.class() == InstrClass::VecLoad).count() as u32;
        // One load stream: one vld1 (or lane load) per chunk / leftover.
        prop_assert!(loads >= chunks);
        prop_assert!(loads <= chunks + t.lanes());
    }
}
