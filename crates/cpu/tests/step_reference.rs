//! The predecoded executor against the `Instr`-level reference
//! (`reference/mod.rs`), one commit at a time, over seeded random
//! programs that reach every path: `halt` at random positions,
//! over-wide and float `vshr`s, out-of-range lanes on all four lane
//! shapes, calls and returns, and branches past either end of the text.
//!
//! Each program runs through a `Simulator` twice: stepped, where every
//! commit's event and state meet the reference's, and block-taking,
//! where the retired-commit view and each terminal rebuild the same
//! event stream. Both must end as the reference does: halted, out of
//! budget at the same pc, or with the same `ExecError` at the same pc
//! and the machine untouched by the failed commit.

mod reference;

use dsa_cpu::{
    CommitHook, CpuConfig, ExecError, Machine, SimControl, SimError, Simulator, TraceEvent,
};
use dsa_isa::{
    AddrMode, AluOp, Cond, ElemType, Instr, MemSize, Operand, Program, QReg, Reg, VecOp,
};
use reference::Reference;

/// Steps the reference through every commit the simulator reports.
struct Lockstep<'a> {
    reference: Reference,
    text: &'a [Instr],
    blocks: bool,
}

impl Lockstep<'_> {
    fn commit(&mut self, ev: &TraceEvent) {
        let at = format!("commit {} at pc {}", self.reference.commits, ev.pc);
        let want = self
            .reference
            .step(self.text)
            .unwrap_or_else(|e| panic!("{at}: reference {e}"));
        assert_eq!(ev, &want, "{at}: event");
    }
}

impl CommitHook for Lockstep<'_> {
    fn blocks(&self, _covered: bool) -> bool {
        self.blocks
    }

    fn on_commit(&mut self, ev: &TraceEvent, machine: &Machine, ctl: &mut SimControl<'_>) {
        for retired in ctl.retired().iter() {
            self.commit(&retired);
        }
        self.commit(ev);
        let at = format!("after commit {}", self.reference.commits);
        self.reference.assert_commit_matches(machine, ev, &at);
    }
}

/// A seeded xorshift stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Integer ALU ops. The float ones are left out: Rust fixes no NaN
/// payload for `f32` arithmetic, so two compilations of one expression
/// may disagree on a NaN result's bits.
const ALU: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Rsb,
    AluOp::Mul,
    AluOp::And,
    AluOp::Orr,
    AluOp::Eor,
    AluOp::Lsl,
    AluOp::Lsr,
    AluOp::Asr,
];
const CONDS: [Cond; 7] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Ge,
    Cond::Lt,
    Cond::Gt,
    Cond::Le,
    Cond::Al,
];
const SIZES: [MemSize; 3] = [MemSize::B, MemSize::H, MemSize::W];

/// A random program: a prologue pointing r1/r2 at data and r3 at a
/// small index, then up to 48 instructions. Data registers are r4–r12;
/// r1–r3 change only by writeback, so every access stays near its base.
fn random_program(seed: u64) -> Program {
    let mut g = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut code = vec![
        Instr::MovImm {
            rd: Reg::R1,
            imm: 0x4000,
        },
        Instr::MovImm {
            rd: Reg::R2,
            imm: 0x6000,
        },
        Instr::MovImm {
            rd: Reg::R3,
            imm: 3,
        },
    ];
    let len = 1 + g.below(48);
    for _ in 0..len {
        let rd = Reg::new(4 + g.below(9) as u8);
        let rm = Reg::new(4 + g.below(9) as u8);
        let base = g.pick(&[Reg::R1, Reg::R2]);
        let (q, q2, q3) = (
            QReg::new(g.below(16) as u8),
            QReg::new(g.below(16) as u8),
            QReg::new(g.below(16) as u8),
        );
        let et = g.pick(&ElemType::ALL);
        // Lanes 0..20 cover every valid lane and bad ones on each shape.
        let lane = g.below(20) as u8;
        let imm = g.below(1 << 16) as u16 as i16;
        let small = g.below(64) as i16 - 32;
        let mode = match g.below(3) {
            0 => AddrMode::Offset(small),
            1 => AddrMode::PreInc(small),
            _ => AddrMode::PostInc(small),
        };
        let writeback = g.below(2) == 0;
        let offset = g.below(20) as i32 - 8;
        code.push(match g.below(27) {
            0 => Instr::Halt,
            1 => Instr::Nop,
            2 => Instr::MovImm { rd, imm },
            3 => Instr::MovTop {
                rd,
                imm: imm as u16,
            },
            4 => Instr::Mov { rd, rm },
            5 => Instr::Alu {
                op: g.pick(&ALU),
                rd,
                rn: rm,
                src2: Operand::Reg(rd),
            },
            6 => Instr::Alu {
                op: g.pick(&ALU),
                rd,
                rn: rm,
                src2: Operand::Imm(small),
            },
            7 => Instr::Cmp {
                rn: rd,
                src2: Operand::Reg(rm),
            },
            8 => Instr::Cmp {
                rn: rd,
                src2: Operand::Imm(small),
            },
            9 | 10 => Instr::B {
                cond: g.pick(&CONDS),
                offset,
            },
            11 => Instr::Bl { offset },
            12 => Instr::BxLr,
            13 => Instr::Ldr {
                rd,
                rn: base,
                mode,
                size: g.pick(&SIZES),
            },
            14 => Instr::Str {
                rs: rd,
                rn: base,
                mode,
                size: g.pick(&SIZES),
            },
            15 => {
                let lsl = g.below(4) as u8;
                Instr::LdrReg {
                    rd,
                    rn: base,
                    rm: Reg::R3,
                    lsl,
                    size: g.pick(&SIZES),
                }
            }
            16 => {
                let lsl = g.below(4) as u8;
                Instr::StrReg {
                    rs: rd,
                    rn: base,
                    rm: Reg::R3,
                    lsl,
                    size: g.pick(&SIZES),
                }
            }
            17 => Instr::Vld1 {
                qd: q,
                rn: base,
                writeback,
                et,
            },
            18 => Instr::Vst1 {
                qs: q,
                rn: base,
                writeback,
                et,
            },
            19 => Instr::Vld1Lane {
                qd: q,
                lane,
                rn: base,
                writeback,
                et,
            },
            20 => Instr::Vst1Lane {
                qs: q,
                lane,
                rn: base,
                writeback,
                et,
            },
            21 => Instr::Vop {
                op: g.pick(&VecOp::ALL),
                et,
                qd: q,
                qn: q2,
                qm: q3,
            },
            // Shifts up to 40 bits: over-wide on every lane type, and
            // every float shift traps.
            22 => Instr::VshrImm {
                qd: q,
                qn: q2,
                shift: g.below(40) as u8,
                et,
            },
            23 => match g.below(4) {
                0 => Instr::Vdup { qd: q, rm: rd, et },
                1 => Instr::VdupImm {
                    qd: q,
                    imm: small,
                    et,
                },
                2 => Instr::Vmov { qd: q, qm: q2 },
                _ => Instr::Vaddv { rd, qn: q, et },
            },
            24 => Instr::VmovToScalar {
                rd,
                qn: q,
                lane,
                et,
            },
            25 => Instr::VmovFromScalar {
                qd: q,
                lane,
                rm: rd,
                et,
            },
            _ => Instr::Alu {
                op: AluOp::Add,
                rd,
                rn: rd,
                src2: Operand::Imm(1),
            },
        });
    }
    Program::new(code)
}

/// Runs `program` under a lockstep hook and checks how the run ended.
fn check(program: &Program, blocks: bool, fuel: u64) {
    let text = program.as_slice();
    let mut sim = Simulator::new(program.clone(), CpuConfig::default());
    let mut hook = Lockstep {
        reference: Reference::default(),
        text,
        blocks,
    };
    let result = sim.run_with_hook(fuel, &mut hook);
    let mut reference = hook.reference;
    // A block-taking run may end with a run the hook never saw: a
    // block without a terminal, before a trap or the end of the fuel.
    while reference.commits < sim.committed() {
        reference
            .step(text)
            .expect("a committed instruction commits in the reference");
    }
    let m = sim.machine();
    match result {
        Ok(out) => {
            assert!(out.halted);
            assert_eq!(reference.step(text), Err(ExecError::Halted));
        }
        Err(SimError::Exec(e)) => assert_eq!(reference.step(text), Err(e), "executor error"),
        Err(SimError::StepBudgetExceeded { pc, steps }) => {
            assert_eq!((steps, sim.committed()), (fuel, fuel));
            assert_eq!(pc, m.pc());
            assert!(!m.is_halted());
        }
    }
    reference.assert_matches(m, "at the end");
}

/// The name of `v`'s enum variant.
fn variant(v: &impl std::fmt::Debug) -> String {
    format!("{v:?}")
        .split([' ', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn decoded_step_matches_the_reference_commit_by_commit() {
    let (mut halted, mut out_of_fuel, mut off_text) = (0u32, 0u32, 0u32);
    let mut traps = std::collections::BTreeSet::new();
    for seed in 0..3_000 {
        let p = random_program(seed);
        for blocks in [false, true] {
            let outcome = std::panic::catch_unwind(|| check(&p, blocks, 300));
            if let Err(e) = outcome {
                eprintln!("seed {seed}, blocks {blocks}: {p:?}");
                std::panic::resume_unwind(e);
            }
        }
        match Simulator::new(p.clone(), CpuConfig::default()).run(300) {
            Ok(_) => halted += 1,
            Err(SimError::StepBudgetExceeded { .. }) => out_of_fuel += 1,
            Err(SimError::Exec(ExecError::Vector { pc, err })) => {
                traps.insert((variant(&p.as_slice()[pc as usize]), variant(&err)));
            }
            Err(SimError::Exec(_)) => off_text += 1,
        }
    }
    // Every way a run ends is exercised, and every shape that can trap
    // does: the four lane shapes out of range, `vshr` both ways.
    assert!(
        halted > 100 && out_of_fuel > 100 && off_text > 100,
        "{halted} {out_of_fuel} {off_text}"
    );
    let shapes: Vec<&str> = traps.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(traps.len(), 6, "{traps:?}");
    for shape in [
        "Vld1Lane",
        "Vst1Lane",
        "VmovToScalar",
        "VmovFromScalar",
        "VshrImm",
    ] {
        assert!(shapes.contains(&shape), "{shape} never trapped: {traps:?}");
    }
}
