//! The simulation driver: functional execution + timing + commit hooks.

use std::sync::Arc;

use dsa_isa::{Instr, Program};
use dsa_mem::MemoryStats;

use crate::config::CpuConfig;
use crate::decoded::{decode_cached, DecodedProgram};
use crate::machine::{Machine, SimError};
use crate::timing::{InjectedOp, TimingModel, TimingStats};
use crate::trace::{BranchOutcome, TraceEvent};

/// Control surface handed to a [`CommitHook`] on every committed
/// instruction. This is how the DSA "adjusts the timing model": it can
/// suppress scalar charging of covered iterations, inject vector work
/// into the Issue stage, and charge pipeline flushes.
#[derive(Debug)]
pub struct SimControl<'a> {
    timing: &'a mut TimingModel,
    suppress: &'a mut bool,
}

impl SimControl<'_> {
    /// From the next committed instruction on, events are functionally
    /// executed but not charged on the scalar pipeline (their work is
    /// represented by injected vector operations instead).
    pub fn begin_coverage(&mut self) {
        *self.suppress = true;
    }

    /// Re-enables scalar charging.
    pub fn end_coverage(&mut self) {
        *self.suppress = false;
    }

    /// Whether coverage (suppression) is currently active.
    pub fn coverage_active(&self) -> bool {
        *self.suppress
    }

    /// Injects operations into the Issue stage (vector work the DSA built).
    pub fn inject(&mut self, ops: &[InjectedOp]) {
        self.timing.charge_injected(ops);
    }

    /// Charges a frontend stall of `cycles` (e.g. the pipeline flush the
    /// DSA performs before switching to NEON execution).
    pub fn stall(&mut self, cycles: u64) {
        self.timing.charge_stall(cycles);
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.timing.cycles()
    }
}

/// Observer of the committed instruction stream.
///
/// The driver asks [`CommitHook::blocks`] before every commit whether
/// the hook can take a whole superblock at once. When it can, the
/// straight-line run retires in one [`DecodedProgram::exec_run`] and the
/// hook sees only the block's terminal control-flow event; otherwise the
/// driver steps and calls [`CommitHook::on_commit`] once per commit.
pub trait CommitHook {
    /// Whether the next commits may retire as one superblock, given
    /// whether scalar charging is currently suppressed (`covered`).
    ///
    /// Answering `true` declares that, until the block's last
    /// instruction, this hook would neither react to a commit nor change
    /// the coverage state: the straight-line body is executed without
    /// callbacks, charged in one batch (or counted as covered), and only
    /// the terminal `B`/`Bl`/`BxLr` — if the block ends in one — reaches
    /// [`CommitHook::on_commit`], with the post-block machine state.
    /// Cycles, statistics and the callbacks the hook acts on are then
    /// bit-identical to the stepped run. Answering `false` keeps the
    /// exact per-commit shape: one step, one charge, one callback.
    fn blocks(&self, covered: bool) -> bool;

    /// Called with the committed event, the post-commit machine state and
    /// the timing control surface.
    fn on_commit(&mut self, ev: &TraceEvent, machine: &Machine, ctl: &mut SimControl<'_>);

    /// Called once when the run finishes (halt or fuel exhaustion).
    fn on_finish(&mut self, _machine: &Machine) {}
}

/// A hook that does nothing (plain scalar simulation); every run with it
/// takes the superblock fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl CommitHook for NullHook {
    #[inline(always)]
    fn blocks(&self, _covered: bool) -> bool {
        true
    }

    #[inline(always)]
    fn on_commit(&mut self, _ev: &TraceEvent, _machine: &Machine, _ctl: &mut SimControl<'_>) {}
}

/// Pins any hook to the stepped path: forwards every call to the inner
/// hook but never lets the driver take a block. Equivalence tests and
/// benchmarks compare `Stepped(h)` against `h` to prove (and time) the
/// superblock path.
#[derive(Debug, Clone, Default)]
pub struct Stepped<H>(pub H);

impl<H: CommitHook> CommitHook for Stepped<H> {
    #[inline(always)]
    fn blocks(&self, _covered: bool) -> bool {
        false
    }

    #[inline(always)]
    fn on_commit(&mut self, ev: &TraceEvent, machine: &Machine, ctl: &mut SimControl<'_>) {
        self.0.on_commit(ev, machine, ctl);
    }

    fn on_finish(&mut self, machine: &Machine) {
        self.0.on_finish(machine);
    }
}

/// The event the stepped path would have produced for a block's terminal
/// instruction at `pc`, or `None` if the block does not end in control
/// flow. `taken` is [`DecodedProgram::exec_run`]'s conditional outcome
/// and `next_pc` the post-block pc (a return's target).
#[inline(always)]
fn terminal_event(
    instrs: &[Instr],
    pc: u32,
    taken: Option<bool>,
    next_pc: u32,
) -> Option<TraceEvent> {
    let instr = *instrs.get(pc as usize)?;
    let branch = match instr {
        Instr::B { offset, .. } => BranchOutcome {
            target: (pc as i64 + offset as i64) as u32,
            taken: taken.unwrap_or(false),
        },
        Instr::Bl { .. } | Instr::BxLr => BranchOutcome { target: next_pc, taken: true },
        _ => return None,
    };
    Some(TraceEvent { branch: Some(branch), ..TraceEvent::simple(pc, instr) })
}

/// Result of a finished simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Total cycles.
    pub cycles: u64,
    /// Committed instructions (functional, including covered ones).
    pub committed: u64,
    /// Whether the program reached `halt` (vs. running out of fuel).
    pub halted: bool,
    /// Timing statistics.
    pub timing: TimingStats,
    /// Memory-hierarchy statistics.
    pub mem: MemoryStats,
    /// Name of the host-SIMD backend that computed the vector-lane
    /// semantics (`portable`, `sse2`, `avx2`, `neon`) — recorded so
    /// benchmark results are attributable. Architecturally inert: every
    /// backend is bit-identical.
    pub simd_backend: &'static str,
}

impl RunOutcome {
    /// Seconds of simulated time at the configured clock.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1e9)
    }
}

/// Result of [`Simulator::run_bounded`]: either the step bound expired
/// with the program still running (a valid snapshot point), or the
/// program halted within the bound.
// Returned once per run; the size gap to `Paused` is not worth a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum BoundedOutcome {
    /// The step bound expired before `halt`; the simulator holds a valid
    /// mid-run architectural state and can be captured or resumed.
    Paused,
    /// The program halted within the bound.
    Halted(RunOutcome),
}

/// Couples a [`Machine`], a [`TimingModel`] and a [`Program`].
#[derive(Debug, Clone)]
pub struct Simulator {
    machine: Machine,
    timing: TimingModel,
    program: Program,
    /// Shared predecoded form, populated lazily on the first run (via
    /// the process-wide [`decode_cached`] store).
    decoded: Option<Arc<DecodedProgram>>,
    suppress: bool,
    committed: u64,
}

impl Simulator {
    /// Creates a simulator with a fresh machine.
    pub fn new(program: Program, config: CpuConfig) -> Simulator {
        Simulator::with_machine(program, config, Machine::new())
    }

    /// Creates a simulator over a pre-initialised machine (e.g. with
    /// workload data already written to memory).
    pub fn with_machine(program: Program, config: CpuConfig, machine: Machine) -> Simulator {
        Simulator {
            machine,
            timing: TimingModel::new(config),
            program,
            decoded: None,
            suppress: false,
            committed: 0,
        }
    }

    /// The shared predecoded form of the program, decoding (or fetching
    /// from the process-wide cache) on first call. Every run does this
    /// implicitly.
    pub fn predecode(&mut self) -> Arc<DecodedProgram> {
        match &self.decoded {
            Some(d) => Arc::clone(d),
            None => {
                let d = decode_cached(&self.program);
                self.decoded = Some(Arc::clone(&d));
                d
            }
        }
    }

    /// The machine state.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Instructions committed so far (monotone across
    /// [`Simulator::run_bounded`] pauses — the service stamps this into
    /// checkpoint metadata).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Mutable machine state (for data initialisation).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The program under simulation.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Pre-loads a data region into the L2 cache, modelling inputs made
    /// resident by the program's input phase.
    pub fn warm_region(&mut self, base: u32, len: u32) {
        self.timing.warm_region(base, len);
    }

    /// Runs without a hook for at most `fuel` committed instructions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StepBudgetExceeded`] if the fuel watchdog
    /// fires before `halt`, or [`SimError::Exec`] from the functional
    /// executor.
    pub fn run(&mut self, fuel: u64) -> Result<RunOutcome, SimError> {
        self.run_with_hook(fuel, &mut NullHook)
    }

    /// Runs with a commit hook for at most `fuel` committed instructions.
    ///
    /// Generic over the hook type so its callbacks inline into the
    /// driver; before each commit the hook's [`CommitHook::blocks`]
    /// answer decides whether the next superblock retires whole or the
    /// driver steps. See [`Simulator::drive`] internals for the exact
    /// contract.
    ///
    /// The fuel acts as a step-budget watchdog: a program still running
    /// when it expires (e.g. a loop whose exit condition never fires)
    /// yields [`SimError::StepBudgetExceeded`] instead of hanging the
    /// process. The hook's `on_finish` still runs on that path so
    /// partial statistics stay consistent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StepBudgetExceeded`] on watchdog expiry, or
    /// [`SimError::Exec`] from the functional executor.
    pub fn run_with_hook<H: CommitHook + ?Sized>(
        &mut self,
        fuel: u64,
        hook: &mut H,
    ) -> Result<RunOutcome, SimError> {
        self.drive(fuel, hook)?;
        hook.on_finish(&self.machine);
        if !self.machine.is_halted() {
            return Err(SimError::StepBudgetExceeded {
                pc: self.machine.pc(),
                steps: fuel,
            });
        }
        Ok(self.outcome())
    }

    /// The one interpreter loop behind [`Simulator::run_with_hook`] and
    /// [`Simulator::run_bounded`] (which differ only in their
    /// bound-is-error policy, applied by the wrappers after this
    /// returns). Commits at most `budget` instructions, stopping early on
    /// halt; executor errors propagate before any finish handling.
    ///
    /// Before each commit the hook's [`CommitHook::blocks`] picks the
    /// shape:
    ///
    /// * **superblock** (`true`): the straight-line run at the pc from
    ///   the shared [`DecodedProgram`] — memory ops included, plus at
    ///   most one terminal control-flow instruction — executes whole
    ///   ([`DecodedProgram::exec_run`]). Uncovered runs are charged in
    ///   one [`TimingModel::charge_block`] fed the recorded address
    ///   stream and branch outcome; covered runs only add to
    ///   [`TimingStats::covered`]. The hook then sees the terminal's
    ///   event, if any. A run is taken only when it fits the remaining
    ///   budget — never splitting a block across the boundary — so
    ///   exhaustion still lands on the exact commit count and the
    ///   machine state at exit is the same architecturally-exact
    ///   snapshot point the stepped loop produces.
    /// * **step** (`false`, or no run at the pc: `halt`, fallible vector
    ///   shapes): one [`Machine::step_slice`], one timing charge, one
    ///   [`CommitHook::on_commit`].
    #[inline(always)]
    fn drive<H: CommitHook + ?Sized>(
        &mut self,
        budget: u64,
        hook: &mut H,
    ) -> Result<(), SimError> {
        let decoded = self.predecode();
        // Borrow the instruction slice once; `machine`/`timing` are
        // disjoint fields, so the hot loop fetches with a single bounds
        // check and no per-step `Program` indirection.
        let instrs = self.program.as_slice();
        let mut remaining = budget;
        // Scratch address stream, reused across blocks to avoid
        // per-block allocation.
        let mut mem_addrs: Vec<u32> = Vec::new();
        while !self.machine.is_halted() && remaining > 0 {
            let pc = self.machine.pc();
            let n = if hook.blocks(self.suppress) { decoded.run_len(pc) } else { 0 };
            let ev = if n > 0 && (n as u64) <= remaining {
                mem_addrs.clear();
                let taken = decoded.exec_run(&mut self.machine, pc, n, &mut mem_addrs);
                if self.suppress {
                    self.timing.note_covered(n as u64);
                } else {
                    self.timing.charge_block(
                        decoded.run_entries(pc, n),
                        pc,
                        decoded.block_counts(pc),
                        &mem_addrs,
                        taken,
                    );
                }
                self.committed += n as u64;
                remaining -= n as u64;
                let last = pc.wrapping_add(n - 1);
                match terminal_event(instrs, last, taken, self.machine.pc()) {
                    Some(ev) => ev,
                    None => continue,
                }
            } else {
                remaining -= 1;
                let ev = self.machine.step_slice(instrs)?;
                self.committed += 1;
                if self.suppress {
                    self.timing.note_covered(1);
                } else {
                    self.timing.charge_event(&ev);
                }
                ev
            };
            let mut ctl = SimControl { timing: &mut self.timing, suppress: &mut self.suppress };
            hook.on_commit(&ev, &self.machine, &mut ctl);
        }
        Ok(())
    }

    /// Runs with a commit hook for at most `max_steps` committed
    /// instructions and reports whether the program halted within the
    /// bound. Unlike [`Simulator::run_with_hook`], hitting the bound is
    /// *not* an error — it returns [`BoundedOutcome::Paused`], the
    /// snapshot point for crash-consistent capture-and-resume: the
    /// machine's architectural state is a valid mid-run state and the
    /// hook's `on_finish` is deliberately **not** called (the run is not
    /// finished). On halt, `on_finish` fires as usual and
    /// [`BoundedOutcome::Halted`] carries the final outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] if the functional executor rejects an
    /// instruction.
    pub fn run_bounded<H: CommitHook + ?Sized>(
        &mut self,
        max_steps: u64,
        hook: &mut H,
    ) -> Result<BoundedOutcome, SimError> {
        self.drive(max_steps, hook)?;
        if self.machine.is_halted() {
            hook.on_finish(&self.machine);
            Ok(BoundedOutcome::Halted(self.outcome()))
        } else {
            Ok(BoundedOutcome::Paused)
        }
    }

    /// Runs with a commit hook, bracketing the run with telemetry: a
    /// [`dsa_trace::Event::RunStarted`] before the first step, then
    /// either [`dsa_trace::Event::RunFinished`] or — on watchdog expiry
    /// or an executor error — [`dsa_trace::Event::SimFault`], all
    /// written to `sink`. The hot loop is the same monomorphized
    /// [`Simulator::run_with_hook`]; the sink is only touched at the
    /// run boundaries, so tracing adds nothing per instruction.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::run_with_hook`].
    pub fn run_traced<H: CommitHook + ?Sized>(
        &mut self,
        fuel: u64,
        hook: &mut H,
        sink: &mut dyn dsa_trace::TraceSink,
    ) -> Result<RunOutcome, SimError> {
        sink.record(&dsa_trace::Event::RunStarted {
            pc: self.machine.pc(),
            cycle: self.timing.cycles(),
        });
        let result = self.run_with_hook(fuel, hook);
        let cycle = self.timing.cycles();
        match &result {
            Ok(out) => sink.record(&dsa_trace::Event::RunFinished {
                cycle,
                committed: out.committed,
                halted: out.halted,
            }),
            Err(e) => sink.record(&e.telemetry(cycle)),
        }
        result
    }

    /// The sliced twin of [`Simulator::run_traced`]: drives at most
    /// `max_steps` committed instructions and brackets the *whole run*
    /// — not each slice — with telemetry. [`dsa_trace::Event::RunStarted`]
    /// is emitted only on the first slice (nothing committed yet),
    /// [`dsa_trace::Event::RunFinished`] only when the program halts,
    /// and [`dsa_trace::Event::SimFault`] on an executor error. A
    /// [`BoundedOutcome::Paused`] slice emits nothing, so a session
    /// resumed across many slices (or migrated across shards with a
    /// re-attached sink) still produces exactly one start/finish pair.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] if the functional executor rejects an
    /// instruction.
    pub fn run_bounded_traced<H: CommitHook + ?Sized>(
        &mut self,
        max_steps: u64,
        hook: &mut H,
        sink: &mut dyn dsa_trace::TraceSink,
    ) -> Result<BoundedOutcome, SimError> {
        if self.committed == 0 {
            sink.record(&dsa_trace::Event::RunStarted {
                pc: self.machine.pc(),
                cycle: self.timing.cycles(),
            });
        }
        let result = self.run_bounded(max_steps, hook);
        let cycle = self.timing.cycles();
        match &result {
            Ok(BoundedOutcome::Halted(out)) => sink.record(&dsa_trace::Event::RunFinished {
                cycle,
                committed: out.committed,
                halted: out.halted,
            }),
            Ok(BoundedOutcome::Paused) => {}
            Err(e) => sink.record(&e.telemetry(cycle)),
        }
        result
    }

    /// Snapshot of the current outcome.
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome {
            cycles: self.timing.cycles(),
            committed: self.committed,
            halted: self.machine.is_halted(),
            timing: self.timing.stats(),
            mem: self.timing.mem_stats(),
            simd_backend: self.machine.simd().name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_isa::{Asm, Cond, Reg};

    fn count_loop(n: i32) -> Program {
        let mut a = Asm::new();
        a.mov_imm(Reg::R0, 0);
        a.mov_imm(Reg::R1, n);
        let top = a.here();
        a.add_imm(Reg::R0, Reg::R0, 1);
        a.cmp(Reg::R0, Reg::R1);
        a.b_to(Cond::Ne, top);
        a.halt();
        a.finish()
    }

    #[test]
    fn runs_to_halt() {
        let mut sim = Simulator::new(count_loop(100), CpuConfig::default());
        let out = sim.run(10_000).expect("ok");
        assert!(out.halted);
        assert_eq!(sim.machine().reg(Reg::R0), 100);
        assert!(out.cycles > 100, "loop takes at least a cycle per iteration");
        assert_eq!(out.committed, out.timing.committed);
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let mut sim = Simulator::new(count_loop(1_000_000), CpuConfig::default());
        let err = sim.run(10).expect_err("watchdog fires");
        assert!(matches!(err, SimError::StepBudgetExceeded { steps: 10, .. }), "{err:?}");
        // Partial progress is still observable on the simulator itself.
        assert!(!sim.outcome().halted);
        assert_eq!(sim.outcome().committed, 10);
    }

    #[test]
    fn hook_sees_every_commit() {
        struct Counter(u64);
        impl CommitHook for Counter {
            fn blocks(&self, _covered: bool) -> bool {
                false
            }
            fn on_commit(&mut self, _: &TraceEvent, _: &Machine, _: &mut SimControl<'_>) {
                self.0 += 1;
            }
        }
        let mut sim = Simulator::new(count_loop(10), CpuConfig::default());
        let mut h = Counter(0);
        let out = sim.run_with_hook(10_000, &mut h).expect("ok");
        assert_eq!(h.0, out.committed);
    }

    #[test]
    fn coverage_suppresses_charging() {
        struct CoverAll;
        impl CommitHook for CoverAll {
            fn blocks(&self, _covered: bool) -> bool {
                false
            }
            fn on_commit(&mut self, _: &TraceEvent, _: &Machine, ctl: &mut SimControl<'_>) {
                ctl.begin_coverage();
            }
        }
        let mut covered = Simulator::new(count_loop(1000), CpuConfig::default());
        let cov = covered.run_with_hook(100_000, &mut CoverAll).expect("ok");
        let mut scalar = Simulator::new(count_loop(1000), CpuConfig::default());
        let sc = scalar.run(100_000).expect("ok");
        assert!(cov.cycles < sc.cycles / 5, "{} vs {}", cov.cycles, sc.cycles);
        assert!(cov.timing.covered > 0);
        // Functional result identical.
        assert_eq!(covered.machine().reg(Reg::R0), scalar.machine().reg(Reg::R0));
    }

    #[test]
    fn run_traced_brackets_the_run() {
        use dsa_trace::{Collector, Event};

        let mut sim = Simulator::new(count_loop(10), CpuConfig::default());
        let mut sink = Collector::default();
        let out = sim.run_traced(10_000, &mut NullHook, &mut sink).expect("ok");
        assert_eq!(sink.events.len(), 2);
        assert!(matches!(sink.events[0], Event::RunStarted { cycle: 0, .. }));
        match sink.events[1] {
            Event::RunFinished { cycle, committed, halted } => {
                assert_eq!(cycle, out.cycles);
                assert_eq!(committed, out.committed);
                assert!(halted);
            }
            ref other => panic!("expected RunFinished, got {other:?}"),
        }

        // Watchdog expiry becomes a sim-fault record, not a finish.
        let mut stuck = Simulator::new(count_loop(1_000_000), CpuConfig::default());
        let mut sink = Collector::default();
        let err = stuck.run_traced(10, &mut NullHook, &mut sink).expect_err("watchdog");
        assert!(matches!(
            sink.events[1],
            Event::SimFault { kind: "step-budget-exceeded", .. }
        ));
        assert_eq!(err.kind_name(), "step-budget-exceeded");
    }

    #[test]
    fn bounded_pause_then_resume_matches_uninterrupted() {
        // Run 10k iterations straight through.
        let mut full = Simulator::new(count_loop(10_000), CpuConfig::default());
        full.run(1_000_000).expect("ok");

        // Same program paused mid-run, captured, restored, completed.
        let mut first = Simulator::new(count_loop(10_000), CpuConfig::default());
        let paused = first.run_bounded(5_000, &mut NullHook).expect("ok");
        assert!(matches!(paused, BoundedOutcome::Paused));
        let state = first.machine().capture();
        drop(first);
        let mut second = Simulator::with_machine(
            count_loop(10_000),
            CpuConfig::default(),
            crate::Machine::restore(&state),
        );
        let done = second.run_bounded(1_000_000, &mut NullHook).expect("ok");
        assert!(matches!(done, BoundedOutcome::Halted(_)));
        assert_eq!(second.machine().arch_digest(), full.machine().arch_digest());
        assert_eq!(second.machine().reg(Reg::R0), 10_000);
    }

    #[test]
    fn bounded_traced_emits_one_bracket_across_slices() {
        use dsa_trace::{Collector, Event};

        let mut sim = Simulator::new(count_loop(5_000), CpuConfig::default());
        let mut sink = Collector::default();
        let mut slices = 0;
        loop {
            match sim.run_bounded_traced(1_000, &mut NullHook, &mut sink).expect("ok") {
                BoundedOutcome::Paused => slices += 1,
                BoundedOutcome::Halted(out) => {
                    assert!(out.halted);
                    break;
                }
            }
        }
        assert!(slices >= 4, "expected several pauses, got {slices}");
        // Many slices, exactly one start/finish pair; pauses are silent.
        assert_eq!(sink.events.len(), 2, "{:?}", sink.events);
        assert!(matches!(sink.events[0], Event::RunStarted { cycle: 0, .. }));
        assert!(matches!(sink.events[1], Event::RunFinished { halted: true, .. }));
    }

    #[test]
    fn bounded_halt_within_bound_reports_outcome() {
        let mut sim = Simulator::new(count_loop(10), CpuConfig::default());
        match sim.run_bounded(10_000, &mut NullHook).expect("ok") {
            BoundedOutcome::Halted(out) => assert!(out.halted),
            BoundedOutcome::Paused => panic!("should halt within bound"),
        }
    }

    #[test]
    fn scalar_and_simulated_time() {
        let mut sim = Simulator::new(count_loop(10), CpuConfig::default());
        let out = sim.run(1_000).expect("ok");
        let secs = out.seconds(1.0);
        assert!(secs > 0.0 && secs < 1.0);
    }
}
