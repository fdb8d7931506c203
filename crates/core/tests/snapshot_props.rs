//! Property tests over the crash-consistent snapshot format.
//!
//! Three families of properties:
//!
//! 1. **Canonical form** — `snapshot → restore → snapshot` is
//!    byte-identical for arbitrary mid-run machine/engine states (the
//!    wire format admits exactly one encoding of a state, so images can
//!    be compared and deduplicated byte-wise).
//! 2. **Corruption detection** — flipping any single bit of an image
//!    makes restore fail with a typed [`SnapshotError`] instead of
//!    panicking or resuming from torn state. (CRC-32 detects *all*
//!    single-bit errors mathematically; `snapshot.rs` proves the small
//!    image exhaustively, these tests fuzz real mid-run images.)
//! 3. **Resume identity** — a run paused at an arbitrary split,
//!    snapshotted, restored and resumed produces the same architectural
//!    state as running uninterrupted.

use dsa_compiler::{Body, CmpOp, DataType, Expr, KernelBuilder, LoopIr, Trip, Variant};
use dsa_core::{Dsa, DsaConfig, Snapshot, SnapshotError};
use dsa_cpu::{BoundedOutcome, CpuConfig, Machine, Simulator};
use proptest::prelude::*;

const FUEL: u64 = 10_000_000;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Count,
    Conditional,
}

type Init = Box<dyn Fn(&mut Machine)>;

fn kernel(shape: Shape, n: u32, seed: u32) -> (dsa_compiler::Kernel, Init) {
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
                        m.mem.write_u32(la + 4 * i, i.wrapping_mul(3).wrapping_add(seed));
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
                    cond_rhs: Expr::Imm(64),
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
                        m.mem.write_u32(la + 4 * i, (i.wrapping_mul(37) ^ seed) % 128);
                    }
                }),
            )
        }
    }
}

/// Runs `split` committed instructions under a fresh full-config DSA
/// and returns the paused simulator + engine (or `None` if the program
/// halted before the split).
fn pause_at(
    shape: Shape,
    n: u32,
    seed: u32,
    split: u64,
) -> Option<(Simulator, Dsa, dsa_compiler::Kernel)> {
    let (k, init) = kernel(shape, n, seed);
    let mut sim = Simulator::new(k.program.clone(), CpuConfig::default());
    init(sim.machine_mut());
    let mut dsa = Dsa::new(DsaConfig::full());
    match sim.run_bounded(split, &mut dsa).expect("bounded run") {
        BoundedOutcome::Paused => Some((sim, dsa, k)),
        BoundedOutcome::Halted(_) => None,
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![Just(Shape::Count), Just(Shape::Conditional)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: the wire format is canonical — re-serializing a
    /// restored snapshot reproduces the image byte for byte.
    #[test]
    fn snapshot_restore_snapshot_is_byte_identical(
        shape in shape_strategy(),
        n in 16u32..200,
        seed in any::<u32>(),
        split in 1u64..6_000,
    ) {
        let Some((sim, dsa, _)) = pause_at(shape, n, seed, split) else {
            return; // halted before the split — nothing to snapshot
        };
        let image = Snapshot::capture(&dsa, sim.machine()).to_bytes();
        let (dsa2, machine2) =
            Dsa::restore(&image, DsaConfig::full()).expect("clean image restores");
        let image2 = Snapshot::capture(&dsa2, &machine2).to_bytes();
        prop_assert_eq!(image, image2);
    }

    /// Property 2: any single-bit flip of a real mid-run image is
    /// detected, with a typed, named rejection.
    #[test]
    fn sampled_bit_flips_of_mid_run_images_are_detected(
        seed in any::<u32>(),
        split in 200u64..4_000,
        bit_pick in any::<u64>(),
    ) {
        let Some((sim, dsa, _)) = pause_at(Shape::Count, 120, seed, split) else {
            return;
        };
        let mut image = Snapshot::capture(&dsa, sim.machine()).to_bytes();
        let bit = (bit_pick % (image.len() as u64 * 8)) as usize;
        image[bit / 8] ^= 1 << (bit % 8);
        match Dsa::restore(&image, DsaConfig::full()) {
            Err(error) => prop_assert!(!error.kind().name().is_empty()),
            Ok(_) => prop_assert!(false, "bit {} flip must be rejected", bit),
        }
    }

    /// Property 2b: truncating an image anywhere is detected too — a
    /// torn write can never restore warm.
    #[test]
    fn truncated_images_are_rejected(
        seed in any::<u32>(),
        cut_pick in any::<u64>(),
    ) {
        let Some((sim, dsa, _)) = pause_at(Shape::Count, 64, seed, 500) else {
            return;
        };
        let image = Snapshot::capture(&dsa, sim.machine()).to_bytes();
        let cut = (cut_pick % image.len() as u64) as usize;
        prop_assert!(matches!(
            Dsa::restore(&image[..cut], DsaConfig::full()),
            Err(SnapshotError::Truncated)
        ));
    }

    /// Property 3: pause → snapshot → restore → resume converges to the
    /// same architectural state as running uninterrupted.
    #[test]
    fn resumed_run_matches_uninterrupted(
        shape in shape_strategy(),
        n in 16u32..160,
        seed in any::<u32>(),
        split in 1u64..5_000,
    ) {
        // Uninterrupted reference.
        let (k, init) = kernel(shape, n, seed);
        let mut ref_sim = Simulator::new(k.program.clone(), CpuConfig::default());
        init(ref_sim.machine_mut());
        let mut ref_dsa = Dsa::new(DsaConfig::full());
        ref_sim.run_with_hook(FUEL, &mut ref_dsa).expect("reference runs");
        let want = ref_sim.machine().arch_digest();

        // Interrupted run.
        let Some((sim, dsa, k)) = pause_at(shape, n, seed, split) else {
            return;
        };
        let image = Snapshot::capture(&dsa, sim.machine()).to_bytes();
        drop((sim, dsa));
        let (mut dsa2, machine2) =
            Dsa::restore(&image, DsaConfig::full()).expect("clean image restores");
        let mut sim2 = Simulator::with_machine(k.program.clone(), CpuConfig::default(), machine2);
        sim2.run_with_hook(FUEL, &mut dsa2).expect("resumed run halts");
        prop_assert_eq!(sim2.machine().arch_digest(), want);
    }
}

/// Exhaustive single-bit sweep over one fixed mid-run image: every flip
/// is detected. (Slower than the sampled property, so one fixed seed;
/// the unit tests in `snapshot.rs` sweep the minimal image, this sweeps
/// a real one with pages, cache entries and stats.)
#[test]
fn exhaustive_bit_flips_of_one_small_image_are_detected() {
    let (sim, dsa, _) = pause_at(Shape::Count, 128, 1, 400).expect("pauses");
    let image = Snapshot::capture(&dsa, sim.machine()).to_bytes();
    // Sweep whole bytes: flipping every bit of every byte. To keep the
    // debug-profile runtime bounded, stride the byte index but cover
    // every header/trailer byte and every bit position.
    let len = image.len();
    let stride = (len / 512).max(1);
    let mut checked = 0u32;
    for byte in (0..len).step_by(stride).chain(len.saturating_sub(8)..len) {
        for bit in 0..8 {
            let mut bad = image.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                Dsa::restore(&bad, DsaConfig::full()).is_err(),
                "flip of byte {byte} bit {bit} not detected"
            );
            checked += 1;
        }
    }
    assert!(checked >= 4096, "sweep too small ({checked} flips)");
}
