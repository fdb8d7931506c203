//! Snapshot-backed simulation sessions.
//!
//! A session is one admitted job's execution state. Shards run
//! sessions in bounded **slices** ([`Simulator::run_bounded`]); after
//! every slice that does not halt, the engine and machine are captured
//! through the PR 4 snapshot wire format and wrapped in a
//! [`SessionMeta`] envelope. The wrapped image is the session's
//! *checkpoint*: if the shard is killed (or the worker crashes), the
//! live engine is lost — exactly the crash model — and the session
//! resumes from its latest checkpoint on a healthy shard, losing at
//! most one slice of progress. Determinism makes the re-executed
//! suffix bit-identical, which `DifferentialOracle::check_resume`
//! gates end-to-end.
//!
//! The slice is also the crash boundary: each slice runs inside one
//! [`dsa_bench::isolate`], so a panicking slice is caught and the shard
//! runs the next slice from the checkpoint, which survives in shared
//! state outside the boundary.
//!
//! A shard builds the job's workload and hashes its program once, when
//! it takes the session ([`SessionState::new`]). The result-store key,
//! the engine a slice (re)builds or restores, the golden check at halt
//! and every checkpoint's [`SessionMeta::program_digest`] all use that
//! one build. Only a migration builds again, on the shard that adopts
//! the session.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Mutex;
use std::time::Instant;

use dsa_core::{Dsa, DsaConfig, SessionMeta, Snapshot, SnapshotError};
use dsa_cpu::{BoundedOutcome, CpuConfig, NullHook, Simulator};
use dsa_trace::{MetricsRegistry, SamplingSink, Shared};
use dsa_workloads::{checksum, BuiltWorkload, Scale};

use dsa_bench::cache::Workload;
use dsa_bench::{RunError, System};

use crate::protocol::JobOutcome;

/// A resolved, admitted job description (the wire
/// [`crate::protocol::JobRequest`] after name resolution).
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// What to simulate.
    pub workload: Workload,
    /// Which system configuration.
    pub system: System,
    /// At which input scale.
    pub scale: Scale,
    /// Admission-to-start deadline in ms; 0 disables it.
    pub deadline_ms: u64,
    /// Whether the shared result store may serve or keep this result.
    pub cacheable: bool,
    /// Deterministic injected worker crashes before first progress.
    pub panic_slices: u32,
}

/// What a shard reports back to the session's client.
pub type SessionResult = Result<JobOutcome, crate::service::ServeError>;

/// The fleet-wide sampling seed. Every shard derives its keep/drop
/// decisions from this one constant so a loop lifecycle sampled on one
/// shard stays sampled after the session migrates (or restores from a
/// checkpoint) on any other shard — the re-attached
/// [`SamplingSink`] re-derives identical verdicts from
/// `(SAMPLE_SEED, loop_id)` alone.
pub const SAMPLE_SEED: u64 = 0xD5A7_0ACE_05EE_D001;

/// Per-slice always-on telemetry: a deterministic sampler feeding a
/// shard-local [`MetricsRegistry`] delta, cheap enough to stay attached
/// in production (the `trace_overhead_guard` bench holds the sampled
/// slice path under its 2% budget).
#[derive(Clone)]
pub struct SliceTelemetry {
    seed: u64,
    rate: u32,
    metrics: Shared<MetricsRegistry>,
}

impl SliceTelemetry {
    /// Telemetry sampling one in `rate` loop lifecycles under `seed`.
    /// `rate == 0` disables sampling entirely (no sink is attached);
    /// `rate == 1` keeps everything.
    pub fn new(seed: u64, rate: u32) -> SliceTelemetry {
        SliceTelemetry { seed, rate, metrics: Shared::new(MetricsRegistry::new()) }
    }

    /// Disabled telemetry — slices run exactly as before sampling
    /// existed (no sink attached, `run_bounded` untraced).
    pub fn off() -> SliceTelemetry {
        SliceTelemetry::new(0, 0)
    }

    /// Whether sampling is on.
    pub fn enabled(&self) -> bool {
        self.rate > 0
    }

    /// A sampler over the shared metrics delta; every call derives the
    /// same keep/drop verdicts, so re-attaching after a crash-restore
    /// or migration is coherent.
    fn sampler(&self) -> SamplingSink<Shared<MetricsRegistry>> {
        SamplingSink::new(self.metrics.clone(), self.seed, self.rate)
    }

    /// Takes the metrics accumulated since the last drain (the
    /// shard-to-frontend delta).
    pub fn drain(&self) -> MetricsRegistry {
        self.metrics.with(std::mem::take)
    }

    /// A copy of the accumulated metrics without draining them.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.metrics.with(|m| m.clone())
    }
}

/// One in-flight session: spec, identity, latest checkpoint and the
/// reply channel back to the submitting client.
pub struct Session {
    /// Service-assigned id.
    pub id: u64,
    /// The resolved job.
    pub spec: JobSpec,
    /// Latest [`SessionMeta`]-wrapped snapshot image, if any slice has
    /// completed without halting.
    pub checkpoint: Option<Vec<u8>>,
    /// Shard-to-shard migrations so far.
    pub migrations: u32,
    /// Ever restored from a checkpoint (crash recovery, not the normal
    /// slice cadence — live engines persist between slices).
    pub resumed: bool,
    /// Injected crashes still owed (decremented *before* unwinding so
    /// retries make progress).
    pub panics_left: AtomicU32,
    /// When the service admitted the job.
    pub admitted_at: Instant,
    /// Where the outcome goes.
    pub reply: Sender<SessionResult>,
}

/// A live engine held by a shard between slices. Dropped on kill or
/// worker crash — only checkpoints survive those.
pub struct Engine {
    sim: Simulator,
    dsa: Dsa,
    /// Whether `dsa` actually hooks commits (DSA systems) or is only a
    /// pristine carrier making the snapshot format uniform.
    attached: bool,
    /// Commits carried in from restored checkpoints (the simulator's
    /// own counter restarts at zero after a restore).
    prior_commits: u64,
}

/// Session state shared across the crash boundary: the closure inside
/// [`dsa_bench::isolate`] takes the engine out, runs one slice, and
/// puts it back; a panicking slice loses the engine but never the
/// checkpoint.
///
/// It also holds the job's built workload and the
/// [`content_hash`](dsa_isa::Program::content_hash) of its program,
/// made once when the shard takes the session: the store key, every
/// engine (re)build, the halt check and every checkpoint's
/// [`SessionMeta`] read them from here.
pub struct SessionState {
    workload: BuiltWorkload,
    digest: u64,
    inner: Mutex<StateInner>,
}

struct StateInner {
    live: Option<Engine>,
    checkpoint: Option<Vec<u8>>,
    resumed: bool,
    slices: u64,
}

/// What one slice produced.
pub enum Slice {
    /// The program halted; the output region checked against golden.
    Done {
        /// Output checksum (== golden, or the slice errors instead).
        checksum: u64,
        /// Cycles reported by the completing simulator.
        cycles: u64,
        /// Committed instructions, cumulative across resumes.
        committed: u64,
        /// Golden checksum.
        expected: u64,
    },
    /// Budget exhausted; a fresh checkpoint is in the session state.
    Paused {
        /// Size of the captured envelope, for telemetry.
        bytes: u64,
        /// Cumulative commits at the checkpoint.
        commits: u64,
    },
}

impl SessionState {
    /// Starts slice execution of `spec`: builds its workload and hashes
    /// the program, adopting `checkpoint` if migration brought one
    /// along.
    pub fn new(spec: &JobSpec, checkpoint: Option<Vec<u8>>, resumed: bool) -> SessionState {
        let workload = spec.workload.build(spec.system, spec.scale);
        let digest = workload.kernel.program.content_hash();
        SessionState {
            workload,
            digest,
            inner: Mutex::new(StateInner { live: None, checkpoint, resumed, slices: 0 }),
        }
    }

    /// [`content_hash`](dsa_isa::Program::content_hash) of the job's
    /// program.
    pub(crate) fn program_digest(&self) -> u64 {
        self.digest
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StateInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The latest checkpoint (cloned — the worker syncs this back into
    /// the [`Session`] after every slice so migration can carry it).
    pub fn checkpoint(&self) -> Option<Vec<u8>> {
        self.lock().checkpoint.clone()
    }

    /// Whether any slice restored from a checkpoint.
    pub fn resumed(&self) -> bool {
        self.lock().resumed
    }

    /// Slices executed so far.
    pub fn slices(&self) -> u64 {
        self.lock().slices
    }

    /// Drops the live engine, simulating a crash: the next slice (on
    /// any shard) must come back from the checkpoint alone.
    pub fn crash(&self) {
        self.lock().live = None;
    }
}

/// Builds or restores the engine for one slice from `w`, the job's
/// workload, whose program hashes to `digest`. When `telemetry` is
/// enabled and the system actually hooks commits, the engine gets a
/// sampling sink: events observe, never steer, so cycles and checksums
/// are bit-identical with and without it.
fn engine_for_slice(
    spec: &JobSpec,
    w: &BuiltWorkload,
    digest: u64,
    state: &mut StateInner,
    telemetry: &SliceTelemetry,
) -> Result<Engine, RunError> {
    if let Some(engine) = state.live.take() {
        return Ok(engine);
    }
    let config = spec.system.dsa_config();
    let attached = config.is_some();
    // Non-DSA sessions still snapshot through a pristine full-config
    // engine so every checkpoint shares one wire format.
    let capture_cfg = config.unwrap_or_else(DsaConfig::full);
    let mut engine = match state.checkpoint.as_deref() {
        None => {
            let sim = w.simulator(CpuConfig::default());
            Engine { sim, dsa: Dsa::new(capture_cfg), attached, prior_commits: 0 }
        }
        Some(bytes) => {
            state.resumed = true;
            let (meta, snap) = SessionMeta::unwrap(bytes).map_err(RunError::Snapshot)?;
            if meta.program_digest != digest {
                return Err(RunError::Snapshot(SnapshotError::ConfigMismatch));
            }
            let (dsa, machine) = Dsa::restore(snap, capture_cfg).map_err(RunError::Snapshot)?;
            let sim =
                Simulator::with_machine(w.kernel.program.clone(), CpuConfig::default(), machine);
            Engine { sim, dsa, attached, prior_commits: meta.commits }
        }
    };
    if engine.attached && telemetry.enabled() {
        // Snapshots never carry a tracer, so restored engines re-attach
        // here; the seed-derived sampler makes the resumed decisions
        // identical to the pre-crash ones.
        engine.dsa.attach_sink(telemetry.sampler());
    }
    Ok(engine)
}

/// Runs one slice of up to `budget` commits. Designed to be the body
/// of a [`dsa_bench::isolate`] closure: deterministic injected crashes
/// unwind *after* the owed-crash counter is decremented (so the retry
/// progresses) and *after* the engine is taken (so the crash loses it,
/// exercising the checkpoint path).
///
/// # Errors
///
/// [`RunError::Sim`] for executor faults, [`RunError::WrongResult`] if
/// the halted output misses golden, [`RunError::Snapshot`] if a
/// checkpoint fails to restore.
pub fn run_slice(
    spec: &JobSpec,
    state: &SessionState,
    session: &Session,
    shard: u32,
    budget: u64,
    telemetry: &SliceTelemetry,
) -> Result<Slice, RunError> {
    let mut engine = {
        let mut inner = state.lock();
        inner.slices += 1;
        engine_for_slice(spec, &state.workload, state.digest, &mut inner, telemetry)?
    };
    if session.panics_left.load(Ordering::Relaxed) > 0 {
        session.panics_left.fetch_sub(1, Ordering::Relaxed);
        // The engine was already taken out of the shared state, so this
        // unwind loses the live state — the retry restores from the
        // checkpoint (or restarts cold), which is the point. The typed
        // payload avoids the literal macro the panic-free source gate
        // greps for: this is an injected fault, not a code defect.
        std::panic::panic_any(InjectedCrash { job: session.id });
    }
    let bounded = if telemetry.enabled() {
        // Sampled always-on path: run brackets (start/finish, emitted
        // once per logical run, never per slice) flow through the same
        // sampler into the shard's metrics delta.
        let mut bracket = telemetry.sampler();
        if engine.attached {
            engine.sim.run_bounded_traced(budget, &mut engine.dsa, &mut bracket)
        } else {
            engine.sim.run_bounded_traced(budget, &mut NullHook, &mut bracket)
        }
    } else if engine.attached {
        engine.sim.run_bounded(budget, &mut engine.dsa)
    } else {
        engine.sim.run_bounded(budget, &mut NullHook)
    }
    .map_err(RunError::Sim)?;
    match bounded {
        BoundedOutcome::Halted(out) => {
            let w = &state.workload;
            let (base, len) = w.out_region;
            let got = checksum(engine.sim.machine(), base, len);
            if got != w.expected {
                return Err(RunError::WrongResult {
                    system: spec.system,
                    got,
                    want: w.expected,
                });
            }
            Ok(Slice::Done {
                checksum: got,
                cycles: out.cycles,
                committed: engine.prior_commits + out.committed,
                expected: w.expected,
            })
        }
        BoundedOutcome::Paused => {
            let commits = engine.prior_commits + engine.sim.committed();
            let snap = Snapshot::capture(&engine.dsa, engine.sim.machine()).to_bytes();
            let meta = SessionMeta {
                job_id: session.id,
                program_digest: state.digest,
                commits,
                migrations: u64::from(session.migrations),
                shard,
            };
            let wrapped = meta.wrap(&snap);
            let bytes = wrapped.len() as u64;
            let mut inner = state.lock();
            inner.checkpoint = Some(wrapped);
            inner.live = Some(engine);
            Ok(Slice::Paused { bytes, commits })
        }
    }
}

/// Panic payload of a deterministically injected worker crash.
#[derive(Debug)]
pub struct InjectedCrash {
    /// The session whose worker was crashed.
    pub job: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_workloads::micro;

    fn spec(system: System) -> JobSpec {
        JobSpec {
            workload: Workload::Micro(micro::Micro::all()[0]),
            system,
            scale: Scale::Small,
            deadline_ms: 0,
            cacheable: false,
            panic_slices: 0,
        }
    }

    fn session(spec: JobSpec) -> (Session, std::sync::mpsc::Receiver<SessionResult>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (
            Session {
                id: 1,
                spec,
                checkpoint: None,
                migrations: 0,
                resumed: false,
                panics_left: AtomicU32::new(spec.panic_slices),
                admitted_at: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    /// Drives a session slice-by-slice to completion, crashing the
    /// live engine after every pause when `crashy`, and returns the
    /// final checksum.
    fn drive_with(
        system: System,
        budget: u64,
        crashy: bool,
        telemetry: &SliceTelemetry,
    ) -> (u64, bool, u64) {
        let sp = spec(system);
        let (s, _rx) = session(sp);
        let state = SessionState::new(&sp, None, false);
        loop {
            match run_slice(&sp, &state, &s, 0, budget, telemetry).expect("slice runs") {
                Slice::Done { checksum, cycles, .. } => {
                    return (checksum, state.resumed(), cycles)
                }
                Slice::Paused { .. } => {
                    if crashy {
                        state.crash();
                    }
                }
            }
        }
    }

    fn drive(system: System, budget: u64, crashy: bool) -> (u64, bool) {
        let (checksum, resumed, _) = drive_with(system, budget, crashy, &SliceTelemetry::off());
        (checksum, resumed)
    }

    #[test]
    fn sliced_and_crash_resumed_runs_are_bit_identical() {
        for system in [System::Original, System::DsaFull] {
            let (oneshot, r0) = drive(system, u64::MAX / 2, false);
            let (sliced, r1) = drive(system, 500, false);
            let (crashed, r2) = drive(system, 500, true);
            assert_eq!(oneshot, sliced, "{system:?}: slicing changed the result");
            assert_eq!(oneshot, crashed, "{system:?}: crash-resume changed the result");
            assert!(!r0, "one-shot run must not restore");
            assert!(!r1, "live engines persist between slices — no restore");
            assert!(r2, "crashed run must have restored from a checkpoint");
        }
    }

    #[test]
    fn sampled_telemetry_is_invisible_to_results_and_timing() {
        for system in [System::Original, System::DsaFull] {
            let off = drive_with(system, 700, false, &SliceTelemetry::off());
            let keep_all = SliceTelemetry::new(SAMPLE_SEED, 1);
            let on = drive_with(system, 700, false, &keep_all);
            assert_eq!(off.0, on.0, "{system:?}: sampling changed the checksum");
            assert_eq!(off.2, on.2, "{system:?}: sampling changed the cycle count");
            // The crash-resume path re-attaches the sampler after every
            // restore; the result stays bit-identical.
            let crashed = drive_with(system, 700, true, &keep_all);
            assert_eq!(off.0, crashed.0, "{system:?}: sampled crash-resume changed the result");
            let m = keep_all.drain();
            // Run brackets always flow (loop-less events pass every
            // sampler); with rate 1 the DSA system also records engine
            // events, the crash-resume path included.
            assert!(m.counter("run.started") >= 1, "{system:?}: {m:?}");
            if system == System::DsaFull {
                assert!(m.counter("loop.detected") >= 1, "{system:?}");
            }
            assert!(keep_all.drain().is_empty(), "drain must take the delta");
        }
    }

    #[test]
    fn sampling_rate_thins_the_metrics_monotonically() {
        let keep_all = SliceTelemetry::new(SAMPLE_SEED, 1);
        drive_with(System::DsaFull, u64::MAX / 2, false, &keep_all);
        let sampled = SliceTelemetry::new(SAMPLE_SEED, 4);
        drive_with(System::DsaFull, u64::MAX / 2, false, &sampled);
        let all = keep_all.snapshot();
        let thin = sampled.snapshot();
        assert!(
            thin.counter("loop.detected") <= all.counter("loop.detected"),
            "rate 4 must keep a subset: {} vs {}",
            thin.counter("loop.detected"),
            all.counter("loop.detected"),
        );
    }

    #[test]
    fn checkpoint_envelopes_carry_session_identity() {
        let sp = spec(System::DsaFull);
        let (s, _rx) = session(sp);
        let state = SessionState::new(&sp, None, false);
        match run_slice(&sp, &state, &s, 3, 200, &SliceTelemetry::off()).expect("slice runs") {
            Slice::Done { .. } => panic!("budget 200 must pause first"),
            Slice::Paused { commits, .. } => assert_eq!(commits, 200),
        }
        let bytes = state.checkpoint().expect("checkpointed");
        let (meta, _) = SessionMeta::unwrap(&bytes).expect("valid envelope");
        assert_eq!(meta.job_id, 1);
        assert_eq!(meta.shard, 3);
        assert_eq!(meta.commits, 200);
    }

    #[test]
    fn injected_crash_decrements_before_unwinding() {
        let mut sp = spec(System::Original);
        sp.panic_slices = 1;
        let (s, _rx) = session(sp);
        let state = SessionState::new(&sp, None, false);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_slice(&sp, &state, &s, 0, 1_000, &SliceTelemetry::off())
        }));
        assert!(unwound.is_err(), "first slice must crash");
        assert_eq!(s.panics_left.load(Ordering::Relaxed), 0, "crash consumed the budget");
        let second = run_slice(&sp, &state, &s, 0, u64::MAX / 2, &SliceTelemetry::off());
        assert!(matches!(second, Ok(Slice::Done { .. })), "retry must progress");
    }
}
