//! Program-level ddmin: minimize a failing [`ProgramSpec`] while the
//! failure still reproduces. This is the campaign's only shrinker: a
//! failing fixed-workload check is already minimal.
//!
//! A greedy fixed-point scheme. Reduction passes, coarsest first:
//!
//! 1. **Drop loops** — remove whole loops one at a time.
//! 2. **Shrink trips** — halve trip counts down to 16 (and nest rows
//!    down to 2).
//! 3. **Simplify bodies** — drop `else` arms, replace stream operands
//!    with immediates, replace exotic operators with `Add`, demote
//!    complex shapes to `Count`.
//!
//! Every candidate is canonicalized before the predicate runs, so the
//! shrunk spec is exactly what a reproducer artifact serializes. The
//! shrinker is deterministic: same spec + same predicate behavior →
//! same minimal spec, byte for byte.

use dsa_compiler::BinOp;

use super::spec::{ProgramSpec, Shape};

/// Greedy ddmin-style shrink. `still_fails` decides whether a
/// candidate reproduces the original failure (typically: `observe`
/// returns the same [`ForgeFailure`](super::ForgeFailure) kind).
/// Returns the minimal spec and how many candidates were tried.
pub fn shrink_program(
    spec: &ProgramSpec,
    still_fails: impl Fn(&ProgramSpec) -> bool,
) -> (ProgramSpec, u32) {
    let mut best = spec.clone();
    best.canonicalize();
    let mut tried = 0u32;
    loop {
        let mut progressed = false;

        // Pass 1: drop whole loops (keep at least one).
        let mut i = 0;
        while best.loops.len() > 1 && i < best.loops.len() {
            let mut cand = best.clone();
            cand.loops.remove(i);
            if try_keep(&mut best, cand, &still_fails, &mut tried) {
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Pass 2: shrink trips and rows.
        for i in 0..best.loops.len() {
            while best.loops[i].trip > 16 {
                let mut cand = best.clone();
                cand.loops[i].trip = (cand.loops[i].trip / 2).max(16);
                if try_keep(&mut best, cand, &still_fails, &mut tried) {
                    progressed = true;
                } else {
                    break;
                }
            }
            while best.loops[i].shape == Shape::Nest && best.loops[i].rows > 2 {
                let mut cand = best.clone();
                cand.loops[i].rows = (cand.loops[i].rows / 2).max(2);
                if try_keep(&mut best, cand, &still_fails, &mut tried) {
                    progressed = true;
                } else {
                    break;
                }
            }
        }

        // Pass 3: simplify bodies.
        for i in 0..best.loops.len() {
            if best.loops[i].else_arm {
                let mut cand = best.clone();
                cand.loops[i].else_arm = false;
                progressed |= try_keep(&mut best, cand, &still_fails, &mut tried);
            }
            if !best.loops[i].use_imm {
                let mut cand = best.clone();
                cand.loops[i].use_imm = true;
                cand.loops[i].imm = 1;
                progressed |= try_keep(&mut best, cand, &still_fails, &mut tried);
            }
            if best.loops[i].op != BinOp::Add {
                let mut cand = best.clone();
                cand.loops[i].op = BinOp::Add;
                progressed |= try_keep(&mut best, cand, &still_fails, &mut tried);
            }
            if best.loops[i].shape != Shape::Count {
                let mut cand = best.clone();
                cand.loops[i].shape = Shape::Count;
                progressed |= try_keep(&mut best, cand, &still_fails, &mut tried);
            }
        }

        if !progressed {
            return (best, tried);
        }
    }
}

fn try_keep(
    best: &mut ProgramSpec,
    mut cand: ProgramSpec,
    still_fails: &impl Fn(&ProgramSpec) -> bool,
    tried: &mut u32,
) -> bool {
    cand.canonicalize();
    if cand == *best {
        return false;
    }
    *tried += 1;
    if still_fails(&cand) {
        *best = cand;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::super::gen::generate_nth;
    use super::super::spec::LoopSpec;
    use super::*;
    use dsa_compiler::DataType;

    /// A deliberately busy program for synthetic-predicate tests.
    fn busy() -> ProgramSpec {
        let mut spec = ProgramSpec {
            seed: 99,
            loops: vec![
                LoopSpec {
                    shape: Shape::Conditional,
                    trip: 256,
                    else_arm: true,
                    use_imm: false,
                    op: BinOp::Mul,
                    imm: 0,
                    ..LoopSpec::minimal()
                },
                LoopSpec { shape: Shape::Sentinel, elem: DataType::I8, ..LoopSpec::minimal() },
                LoopSpec { shape: Shape::Nest, trip: 64, rows: 8, ..LoopSpec::minimal() },
            ],
        };
        spec.canonicalize();
        spec
    }

    #[test]
    fn shrink_reaches_the_minimal_program() {
        // Synthetic predicate: fails iff a sentinel loop is present.
        // Everything else must be stripped and the sentinel itself
        // must survive shape demotion.
        let (min, tried) =
            shrink_program(&busy(), |p| p.loops.iter().any(|l| l.shape == Shape::Sentinel));
        assert_eq!(min.loops.len(), 1);
        assert_eq!(min.loops[0].shape, Shape::Sentinel);
        assert_eq!(min.loops[0].trip, 16);
        assert!(tried > 0);
        // Idempotent at the fixed point.
        let (again, _) =
            shrink_program(&min, |p| p.loops.iter().any(|l| l.shape == Shape::Sentinel));
        assert_eq!(again, min);
    }

    #[test]
    fn shrink_simplifies_bodies_in_place() {
        // Predicate: fails while a conditional loop exists — the
        // else arm, stream operand and operator must all simplify,
        // then the shape demotion must be refused by the predicate.
        let (min, _) =
            shrink_program(&busy(), |p| p.loops.iter().any(|l| l.shape == Shape::Conditional));
        assert_eq!(min.loops.len(), 1);
        let l = min.loops[0];
        assert_eq!(l.shape, Shape::Conditional);
        assert!(!l.else_arm, "else arm must shrink away");
        assert!(l.use_imm, "stream operand must become an immediate");
        assert_eq!(l.op, BinOp::Add, "operator must simplify to add");
        assert_eq!(l.trip, 16);
    }

    #[test]
    fn shrink_is_deterministic() {
        let pred = |p: &ProgramSpec| p.loops.iter().any(|l| l.shape == Shape::Nest);
        let (a, at) = shrink_program(&busy(), pred);
        let (b, bt) = shrink_program(&busy(), pred);
        assert_eq!(a, b);
        assert_eq!(at, bt);
        // Byte-identical artifacts, the property the corpus relies on.
        assert_eq!(a.to_json(Some("x"), None), b.to_json(Some("x"), None));
    }

    #[test]
    fn shrink_on_a_generated_spec_terminates_quickly() {
        let spec = generate_nth(4, 9);
        // An always-failing predicate shrinks to the global minimum.
        let (min, tried) = shrink_program(&spec, |_| true);
        assert_eq!(min.loops.len(), 1);
        assert_eq!(min.loops[0].shape, Shape::Count);
        assert_eq!(min.loops[0].trip, 16);
        assert!(tried < 200, "shrink must stay cheap, tried {tried}");
    }
}
