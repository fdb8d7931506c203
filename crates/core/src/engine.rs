//! The DSA engine: a [`CommitHook`] implementing the six-stage detection
//! state machine over the committed instruction stream.

use std::collections::BTreeMap;

use dsa_cpu::{CommitHook, Machine, SimControl, TraceEvent};
use dsa_isa::{Cond, Instr};
use dsa_trace::{
    CacheKind, CacheOutcome, EngineMode, EngineOp, Event, Reason, SpecKind, Stage, TraceSink,
    Tracer,
};

use crate::caches::{CachedKind, DsaCache, VerificationCache};
use crate::cidp::{self, CidpOutcome};
use crate::config::DsaConfig;
use crate::faults::{FaultSchedule, FaultSite, FaultState};
use crate::idhash::{IdMap, IdSet};
use crate::snapshot::{EngineState, Snapshot, SnapshotError};
use crate::plan::{self, ArmTemplate, LoopTemplate, OpMix, StreamTemplate};
use crate::profile::{
    find_access, path_step, push_access, CmpObs, IterationProfile, IterationRecorder, StreamInfo,
};
use crate::stats::{DsaStats, LoopCensus, LoopClass};

/// Upper bound on a stored sentinel speculative range. Real ranges track
/// observed trip counts; anything beyond this is treated as corrupted
/// state (e.g. a lying trip predictor) and degrades the loop to scalar.
const MAX_SPEC_RANGE: u32 = 1 << 26;

/// An impossible state-machine transition inside the engine. These were
/// `unreachable!()` panics; they are now typed values that *poison* the
/// DSA — it ends coverage, detaches itself and lets the run complete
/// scalar-only, losing speedup but never correctness or the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineError {
    /// The mode the handler required.
    pub expected: EngineMode,
    /// The operation that found itself in the wrong mode.
    pub during: EngineOp,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DSA state-machine violation: {} requires mode {}", self.during, self.expected)
    }
}

impl std::error::Error for EngineError {}

/// Destructures the current mode or returns the typed invariant
/// violation that used to be an `unreachable!()`.
macro_rules! expect_mode {
    ($dsa:expr, $variant:ident, $during:expr) => {
        match &mut $dsa.mode {
            Mode::$variant(inner) => inner,
            _ => {
                return Err(EngineError { expected: EngineMode::$variant, during: $during })
            }
        }
    };
}

/// The Dynamic SIMD Assembler. Attach to a
/// [`Simulator`](dsa_cpu::Simulator) via
/// [`run_with_hook`](dsa_cpu::Simulator::run_with_hook); see the
/// [crate-level example](crate).
#[derive(Debug)]
pub struct Dsa {
    config: DsaConfig,
    cache: DsaCache,
    vcache: VerificationCache,
    stats: DsaStats,
    census: IdMap<LoopClass>,
    mode: Mode,
    faults: Option<FaultState>,
    error: Option<EngineError>,
    /// Telemetry: [`Tracer::Off`] unless a sink was attached, in which
    /// case every lifecycle / stage / cache / fault observation flows
    /// out as a [`dsa_trace::Event`]. All emission sites sit on loop
    /// boundaries and stage transitions — never the per-commit path —
    /// and the disabled path is a single discriminant test.
    tracer: Tracer,
}

/// Outcome of [`Dsa::restore_or_cold`]: either the warm state came back,
/// or the image was rejected and a cold engine stands in.
// Constructed once per restore attempt; not worth boxing the machine.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Restored {
    /// The image validated; engine and machine resume where the
    /// snapshot was taken.
    Warm {
        /// The restored engine (warm caches, Probing mode).
        dsa: Dsa,
        /// The restored architectural state.
        machine: Machine,
    },
    /// The image was rejected; a cold engine is supplied instead (the
    /// caller must also rebuild machine state from scratch).
    Cold {
        /// A fresh engine under the requested configuration.
        dsa: Dsa,
        /// Why the image was rejected.
        error: SnapshotError,
    },
}

#[derive(Debug)]
enum Mode {
    Probing,
    Analyzing(Box<Analysis>),
    Executing(Box<Execution>),
    /// Terminal: an [`EngineError`] occurred; the DSA has detached and
    /// ignores every further commit (the run completes scalar-only).
    Poisoned,
}

#[derive(Debug)]
struct Analysis {
    id: u32,
    end_pc: u32,
    iter: u32,
    rec: IterationRecorder,
    /// Iteration-2 profile (Data Collection output).
    collected: Option<IterationProfile>,
    /// Cache-hit fast path: the stored template.
    hit: Option<LoopTemplate>,
    /// Conditional-loop mapping state.
    cond: Option<CondAnalysis>,
    /// Nest-fusion observation state (§4.6.3).
    nest: Option<NestAnalysis>,
    call_depth: u32,
}

/// Observing an outer loop whose body is a cached-vectorizable inner
/// loop: if everything outside the inner loop is pure overhead and the
/// inner streams advance contiguously across outer iterations, the nest
/// fuses into a single loop of `outer × inner` iterations.
#[derive(Debug)]
struct NestAnalysis {
    inner_id: u32,
    inner_end: u32,
    inner_template: LoopTemplate,
    inner_trip: u32,
}

/// First observation of an arm, its iteration, and (when seen again)
/// the verifying second observation.
type ArmObservation = (IterationProfile, u32, Option<(IterationProfile, u32)>);

#[derive(Debug)]
struct CondAnalysis {
    /// path hash → observations of that arm (ordered map so template
    /// arm order — and therefore injected-op order — is deterministic).
    arms: BTreeMap<u64, ArmObservation>,
    pcs_seen: IdSet,
    verified: BTreeMap<u64, ArmTemplate>,
}

#[derive(Debug)]
struct Execution {
    id: u32,
    lo: u32,
    hi: u32,
    callee: Option<(u32, u32)>,
    kind: ExecKind,
    iters: u32,
    call_depth: u32,
}

// The enum lives inside the boxed `Execution`; variant size skew is fine.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum ExecKind {
    /// Full coverage until the loop exits. The first `peel` iterations
    /// run scalar so the vectorized stream starts 16-byte aligned (the
    /// DSA knows the real addresses, unlike a static compiler).
    Plain { peel: u32 },
    /// Sentinel: cover the body (not the stop check) in speculative
    /// blocks of `block` iterations; while the loop keeps running, the
    /// next block is speculated too (§4.6.5's continued partial
    /// vectorization).
    Sentinel {
        template: LoopTemplate,
        /// Iterations speculated so far (grows block by block).
        budget: u32,
        /// Size of one speculative block.
        block: u32,
        check_hi: u32,
        /// Stream bases for the *next* block.
        bases: Vec<(StreamTemplate, u32)>,
        injected_elems: u32,
    },
    /// Conditional: speculative execution in vector-width windows — each
    /// condition accessed within a window is vectorized over it and the
    /// Array Maps select the surviving lanes (Figure 22 of the paper).
    Conditional {
        template: LoopTemplate,
        /// Arms seen in the current window: path → stream bases at the
        /// window start (ordered for deterministic injection).
        window_arms: BTreeMap<u64, Vec<(StreamTemplate, u32)>>,
        /// Iterations covered in the current window.
        window_fill: u32,
        /// Path hash of the current iteration so far
        /// ([`path_step`]'s rule).
        path: u64,
        /// The current iteration's accesses, numbered by occurrence;
        /// cleared, not reallocated, at every boundary.
        accesses: Vec<StreamInfo>,
        injected_elems: u32,
    },
}

impl Dsa {
    /// Creates a DSA with the given configuration.
    pub fn new(config: DsaConfig) -> Dsa {
        Dsa {
            config,
            cache: DsaCache::new(config.dsa_cache_bytes),
            vcache: VerificationCache::new(config.vcache_bytes),
            stats: DsaStats::default(),
            census: IdMap::default(),
            mode: Mode::Probing,
            faults: config.faults.map(FaultState::new),
            error: None,
            tracer: Tracer::Off,
        }
    }

    /// Exports the engine's persistent state (caches, statistics,
    /// census) for snapshot serialization. Transient detection state
    /// (the current [`Mode`]) is intentionally excluded: the engine
    /// restarts in Probing after a restore, losing at most one
    /// in-flight analysis and never architectural state.
    pub(crate) fn engine_state(&self) -> EngineState {
        let (tick, hits, misses, evictions) = self.cache.export_clock();
        let mut census: Vec<(u32, LoopClass)> =
            self.census.iter().map(|(&id, &class)| (id, class)).collect();
        census.sort_unstable_by_key(|&(id, _)| id);
        EngineState {
            cache_capacity: self.cache.capacity_bytes(),
            cache_entries: self.cache.export_entries(),
            cache_tick: tick,
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            vcache_capacity: self.vcache.capacity_bytes(),
            vcache_accesses: self.vcache.accesses(),
            stats: self.stats,
            census,
        }
    }

    /// Rebuilds an engine from exported persistent state. The engine
    /// starts in Probing mode with fault injection re-derived from
    /// `config` (fault-firing state is harness-side, not persistent).
    pub(crate) fn from_state(config: DsaConfig, state: EngineState) -> Dsa {
        Dsa {
            config,
            cache: DsaCache::from_parts(
                state.cache_capacity,
                state.cache_entries,
                state.cache_tick,
                state.cache_hits,
                state.cache_misses,
                state.cache_evictions,
            ),
            vcache: VerificationCache::with_accesses(
                state.vcache_capacity,
                state.vcache_accesses,
            ),
            stats: state.stats,
            census: state.census.into_iter().collect(),
            mode: Mode::Probing,
            faults: config.faults.map(FaultState::new),
            error: None,
            tracer: Tracer::Off,
        }
    }

    /// Restores an engine + machine pair from a snapshot image.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: a torn, corrupt, wrong-version or
    /// wrong-config image is rejected — never panicked on.
    pub fn restore(bytes: &[u8], config: DsaConfig) -> Result<(Dsa, Machine), SnapshotError> {
        let snap = Snapshot::from_bytes(bytes)?;
        let dsa = snap.restore_engine(config)?;
        let mut machine = snap.restore_machine();
        if config.test_bug == Some(crate::config::TestBug::CorruptRestore) {
            // Planted bug (fuzz-harness self-test only): the restored
            // memory image is silently off by one bit. The run still
            // completes "successfully" — only a differential kill→resume
            // check can see it. See [`crate::TestBug`].
            if let Some(page) = machine.mem.pages().first().map(|(p, _)| *p) {
                let addr = page * dsa_mem::PAGE_BYTES as u32;
                let byte = machine.mem.read_u8(addr);
                machine.mem.write_u8(addr, byte ^ 1);
            }
        }
        Ok((dsa, machine))
    }

    /// Restores from a snapshot image, degrading to a cold start when
    /// the image is rejected: the caller always gets a usable engine,
    /// plus the typed rejection so it can be reported (as a
    /// `snapshot-rejected` trace event, for instance).
    pub fn restore_or_cold(bytes: &[u8], config: DsaConfig) -> Restored {
        match Dsa::restore(bytes, config) {
            Ok((dsa, machine)) => Restored::Warm { dsa, machine },
            Err(error) => Restored::Cold { dsa: Dsa::new(config), error },
        }
    }

    /// Arms a generalized chaos [`FaultSchedule`], replacing whatever
    /// fault plan `config.faults` installed. Schedules live outside
    /// [`DsaConfig`] (which stays `Copy` for memoization keys), so the
    /// chaos harness re-arms them explicitly — including on engines
    /// restored from snapshots, whose images never carry fault state.
    pub fn arm_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = Some(FaultState::from_schedule(schedule));
    }

    /// Attaches a telemetry sink; every engine observation from now on
    /// is emitted as a [`dsa_trace::Event`]. Use
    /// [`dsa_trace::Fanout`]/[`dsa_trace::Shared`] to feed several
    /// consumers.
    pub fn attach_sink(&mut self, sink: impl TraceSink + Send + 'static) {
        self.tracer = Tracer::on(sink);
    }

    /// Whether a telemetry sink is attached.
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Signals end-of-stream to the attached sink (flush/footer); call
    /// after the simulation completes. Idempotent, no-op when tracing
    /// is off.
    pub fn finish_trace(&mut self) {
        self.tracer.finish();
    }

    /// The engine error that poisoned this DSA, if any. A poisoned DSA
    /// has detached itself: the run completed (or will complete) with
    /// correct scalar-only results.
    pub fn poisoned(&self) -> Option<EngineError> {
        self.error
    }

    /// The fault-injection state, when a [`FaultPlan`](crate::FaultPlan)
    /// is armed (inspection for tests and the fault matrix).
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DsaConfig {
        &self.config
    }

    /// Accumulated statistics. DSA-cache hit/miss counters are folded in.
    pub fn stats(&self) -> DsaStats {
        let mut s = self.stats;
        let (hits, misses, _) = self.cache.counters();
        s.dsa_cache_hits = hits;
        s.dsa_cache_misses = misses;
        // Accounting consistency: every counted miss, vcache access,
        // CIDP evaluation, Array-Map access, select and partial chunk
        // carries a mandatory latency charge, so the reported detection
        // cycles can never fall below the structural floor.
        debug_assert!(
            s.detection_cycles >= s.structural_cycles_floor(&self.config),
            "detection_cycles {} below structural floor {}",
            s.detection_cycles,
            s.structural_cycles_floor(&self.config),
        );
        s
    }

    /// The loop-type census observed so far (one entry per static loop).
    pub fn census(&self) -> LoopCensus {
        let mut c = LoopCensus::default();
        for &class in self.census.values() {
            c.record(class);
        }
        c
    }

    /// The DSA cache (for inspection in tests and experiments).
    pub fn cache(&self) -> &DsaCache {
        &self.cache
    }

    fn classify(&mut self, id: u32, class: LoopClass, cycle: u64) {
        self.census.insert(id, class);
        self.tracer.emit(|| Event::LoopClassified { loop_id: id, class, cycle });
    }

    /// Stores `kind` in the DSA cache, charging the cache latency when
    /// `charged` (give-up and template stores pay it; rollback stores
    /// don't — timing behavior predates tracing and must not change),
    /// and emits the insert (and any eviction) as telemetry.
    fn cache_insert(&mut self, id: u32, kind: CachedKind, charged: bool, cycle: u64) {
        let evicted = self.cache.insert(id, kind);
        let dsa_cycles = if charged {
            let l = self.config.dsa_cache_latency as u64;
            self.stats.detection_cycles += l;
            l
        } else {
            0
        };
        self.tracer.emit(|| Event::CacheAccess {
            cache: CacheKind::Dsa,
            outcome: CacheOutcome::Insert,
            loop_id: id,
            count: 1,
            dsa_cycles,
            cycle,
        });
        if evicted > 0 {
            self.tracer.emit(|| Event::CacheAccess {
                cache: CacheKind::Dsa,
                outcome: CacheOutcome::Evict,
                loop_id: id,
                count: evicted,
                dsa_cycles: 0,
                cycle,
            });
        }
    }

    fn give_up(&mut self, id: u32, class: LoopClass, reason: Reason, ctl: &mut SimControl<'_>) {
        let cycle = ctl.cycles();
        self.cache_insert(id, CachedKind::NonVectorizable(class), true, cycle);
        self.tracer.emit(|| Event::LoopRejected { loop_id: id, class, reason, cycle });
        self.classify(id, class, cycle);
        self.mode = Mode::Probing;
    }

    /// Registers one fault opportunity at `site`; `true` means the armed
    /// plan injects a fault here.
    fn fault_fires(&mut self, site: FaultSite, cycle: u64) -> bool {
        let fires = self.faults.as_mut().is_some_and(|f| f.fire(site));
        if fires {
            self.stats.faults_injected += 1;
            self.tracer.emit(|| Event::FaultInjected { site, cycle });
        }
        fires
    }

    /// Detected-inconsistency rollback: the engine found its own state
    /// for loop `id` untrustworthy, so it discards it, flushes any
    /// active coverage and falls back to scalar execution. Correctness
    /// is unaffected — the scalar core has been computing the real
    /// results all along; only the speedup for this loop is lost.
    fn degrade(&mut self, id: u32, class: LoopClass, reason: Reason, ctl: &mut SimControl<'_>) {
        let cycle = ctl.cycles();
        if ctl.coverage_active() {
            ctl.end_coverage();
            ctl.stall(self.config.resync_latency as u64);
        }
        self.cache_insert(id, CachedKind::NonVectorizable(class), false, cycle);
        self.tracer.emit(|| Event::LoopRolledBack { loop_id: id, class, reason, cycle });
        self.classify(id, class, cycle);
        self.stats.degradations += 1;
        self.mode = Mode::Probing;
    }

    /// Terminal degradation: an impossible state transition. The DSA
    /// flushes coverage, records the error and detaches itself; every
    /// further commit is ignored and the run completes scalar-only.
    fn poison(&mut self, err: EngineError, ctl: &mut SimControl<'_>) {
        let cycle = ctl.cycles();
        if ctl.coverage_active() {
            ctl.end_coverage();
            ctl.stall(self.config.resync_latency as u64);
        }
        self.stats.degradations += 1;
        self.stats.poison_events += 1;
        self.error = Some(err);
        self.tracer.emit(|| Event::EnginePoisoned {
            during: err.during,
            expected: err.expected,
            cycle,
        });
        self.mode = Mode::Poisoned;
    }

    // ----- Probing -------------------------------------------------------

    fn probe(&mut self, ev: &TraceEvent, ctl: &mut SimControl<'_>) {
        // Self-check: probing with coverage still suppressed means a
        // rollback flush was skipped at the end of the last vectorized
        // region. Recover it here — one commit of wrongly-covered timing,
        // no functional effect — and count the degradation.
        if ctl.coverage_active() {
            ctl.end_coverage();
            ctl.stall(self.config.resync_latency as u64);
            self.stats.degradations += 1;
            let cycle = ctl.cycles();
            self.tracer.emit(|| Event::LoopRolledBack {
                loop_id: 0,
                class: LoopClass::Unknown,
                reason: Reason::StaleCoverageRecovery,
                cycle,
            });
        }
        if !is_loop_branch(ev) {
            return;
        }
        let Some(branch) = ev.branch else { return };
        let id = branch.target;
        self.stats.loops_detected += 1;
        self.stats.stage_loop_detection += 1;
        let cycle = ctl.cycles();
        let end_pc = ev.pc;
        // Every probe is one burst: the detection, its stage and the
        // DSA-cache access it made.
        let detected = |outcome, dsa_cycles| {
            [
                Event::LoopDetected { loop_id: id, end_pc, cycle },
                Event::StageActivated {
                    stage: Stage::LoopDetection,
                    loop_id: id,
                    dsa_cycles: 0,
                    cycle,
                },
                Event::CacheAccess {
                    cache: CacheKind::Dsa,
                    outcome,
                    loop_id: id,
                    count: 1,
                    dsa_cycles,
                    cycle,
                },
            ]
        };
        match self.cache.probe(id) {
            // A cached negative verdict ends detection immediately — the
            // probe is pipelined with the core and costs nothing.
            Some(CachedKind::NonVectorizable(_)) => {
                self.tracer.emit_loop(id, || detected(CacheOutcome::Hit, 0));
            }
            Some(CachedKind::Vectorizable(t)) => {
                // The one template copy of a hit: execution keeps it, and
                // fault injection corrupts it, never the cached entry.
                let mut t = t.clone();
                let dsa_cycles = self.config.dsa_cache_latency as u64;
                self.stats.detection_cycles += dsa_cycles;
                self.tracer.emit_loop(id, || detected(CacheOutcome::Hit, dsa_cycles));
                if self.fault_fires(FaultSite::CorruptTemplate, cycle) {
                    // Model a bit flip on the cache read path. Every
                    // variant is a structural defect that
                    // `LoopTemplate::validate` must catch in
                    // `hit_execute` before any lane math runs.
                    let variant =
                        self.faults.as_ref().map_or(0, |f| f.pick(FaultSite::CorruptTemplate, 3));
                    match variant {
                        0 => t.elem_bytes = 0,
                        1 => t.elem_bytes = 3,
                        _ => {
                            if let Some(s) = t.streams.first_mut() {
                                s.gap = 7;
                            } else {
                                t.arms.clear();
                            }
                        }
                    }
                }
                // The hit path reads only this iteration's accesses and
                // closing compare, so its body goes unclassified.
                self.mode = Mode::Analyzing(Box::new(Analysis {
                    id,
                    end_pc: ev.pc,
                    iter: 1,
                    rec: IterationRecorder::accesses_only(id, ev.pc),
                    collected: None,
                    hit: Some(t),
                    cond: None,
                    nest: None,
                    call_depth: 0,
                }));
            }
            None => {
                let dsa_cycles = self.config.dsa_cache_latency as u64;
                self.stats.detection_cycles += dsa_cycles;
                self.stats.stage_data_collection += 1;
                self.tracer.emit_loop(id, || {
                    let [detected, stage, miss] = detected(CacheOutcome::Miss, dsa_cycles);
                    let collect = Event::StageActivated {
                        stage: Stage::DataCollection,
                        loop_id: id,
                        dsa_cycles: 0,
                        cycle,
                    };
                    [detected, stage, miss, collect]
                });
                self.mode = Mode::Analyzing(Box::new(Analysis {
                    id,
                    end_pc: ev.pc,
                    iter: 1,
                    rec: IterationRecorder::new(id, ev.pc),
                    collected: None,
                    hit: None,
                    cond: None,
                    nest: None,
                    call_depth: 0,
                }));
            }
        }
    }

    // ----- Analysis ------------------------------------------------------

    /// Handles one event while analysing; returns `true` if the event
    /// must be re-dispatched from probing (nest abandonment).
    fn analyze(
        &mut self,
        ev: &TraceEvent,
        machine: &Machine,
        ctl: &mut SimControl<'_>,
    ) -> Result<bool, EngineError> {
        let a = expect_mode!(self, Analyzing, EngineOp::Analyze);
        let id = a.id;
        let end_pc = a.end_pc;

        match ev.instr {
            Instr::Bl { .. } => a.call_depth += 1,
            Instr::BxLr => a.call_depth = a.call_depth.saturating_sub(1),
            _ => {}
        }

        // Closing branch of the tracked loop?
        if ev.pc == end_pc && matches!(ev.branch, Some(b) if b.taken && b.target == id) {
            self.finish_iteration(ev, machine, ctl)?;
            return Ok(false);
        }

        // A different loop boundary: an inner loop of the tracked one.
        if is_loop_branch(ev) {
            let Some(b) = ev.branch else { return Ok(false) };
            let inner_ok = id < b.target && ev.pc < end_pc;
            match (&a.nest, inner_ok) {
                // Already observing this inner loop: expected.
                (Some(n), true) if n.inner_id == b.target => return Ok(false),
                (None, true) if self.config.features.loop_nests && a.hit.is_none() => {
                    // Fusion candidate when the inner loop is already
                    // verified as a plain count loop with a static trip.
                    if let Some(CachedKind::Vectorizable(t)) = self.cache.peek(b.target) {
                        let fusable = t.class == LoopClass::Count
                            && t.arms.is_empty()
                            && t.partial_distance.is_none()
                            && t.fused_inner_trip.is_none()
                            && t.streams.iter().all(|s| s.occ == 0)
                            && t.trip_imm.is_some();
                        if fusable {
                            let nest = NestAnalysis {
                                inner_id: b.target,
                                inner_end: ev.pc,
                                inner_trip: t.trip_imm.unwrap_or(1) as u32,
                                inner_template: t.clone(),
                            };
                            let a = expect_mode!(self, Analyzing, EngineOp::NestObservation);
                            a.nest = Some(nest);
                            return Ok(false);
                        }
                    }
                    self.give_up(id, LoopClass::Nest, Reason::NestInnerNotFusable, ctl);
                    return Ok(true);
                }
                _ => {
                    self.give_up(id, LoopClass::Nest, Reason::UnsupportedNest, ctl);
                    return Ok(true);
                }
            }
        }

        let a = expect_mode!(self, Analyzing, EngineOp::IterationRecording);
        a.rec.record(ev, machine);

        // Loop exited before analysis finished (trip shorter than the
        // analysis window): nothing to do.
        let next = machine.pc();
        let in_loop = (id..=end_pc).contains(&next);
        if !in_loop && a.call_depth == 0 && !machine.is_halted() {
            // Tolerate the sentinel stop-check's exit and the epilogue:
            // only abandon when control is definitely past the loop.
            self.mode = Mode::Probing;
        }
        Ok(false)
    }

    fn finish_iteration(
        &mut self,
        ev: &TraceEvent,
        machine: &Machine,
        ctl: &mut SimControl<'_>,
    ) -> Result<(), EngineError> {
        let a = expect_mode!(self, Analyzing, EngineOp::FinishIteration);
        let closing_unconditional = matches!(ev.instr, Instr::B { cond: Cond::Al, .. });
        let index_reg = a.rec.last_cmp_reg();
        // A hit analysis ends after this iteration; every other one
        // records whole iterations.
        let rec = std::mem::replace(&mut a.rec, IterationRecorder::new(a.id, a.end_pc));
        let mut profile = rec.finish(index_reg);
        a.iter += 1;
        let iter = a.iter;
        let id = a.id;

        // Charge Verification-Cache traffic for the recorded iteration.
        let cycle = ctl.cycles();
        let n_acc = profile.accesses.len() as u64;
        self.stats.vcache_accesses += n_acc;
        let vcache_cycles = n_acc * self.config.vcache_latency as u64;
        self.stats.detection_cycles += vcache_cycles;
        self.vcache.record_accesses(n_acc);
        if n_acc > 0 {
            self.tracer.emit(|| Event::CacheAccess {
                cache: CacheKind::Verification,
                outcome: CacheOutcome::Insert,
                loop_id: id,
                count: n_acc as u32,
                dsa_cycles: vcache_cycles,
                cycle,
            });
        }

        // Fault injection: lose one Verification-Cache entry after the
        // traffic was accounted.
        if self.fault_fires(FaultSite::DropVcacheEntry, cycle) {
            profile.accesses.pop();
        }
        // Consistency check: the analysis pipeline must agree with the
        // Verification-Cache accounting; a lost entry means the recorded
        // streams can no longer be trusted.
        if profile.accesses.len() as u64 != n_acc {
            self.degrade(id, LoopClass::NonVectorizable, Reason::VcacheEntryLost, ctl);
            return Ok(());
        }

        let a = expect_mode!(self, Analyzing, EngineOp::PostVcacheAnalysis);
        // Nest observation stores only the per-stream heads, not every
        // inner-iteration address, so the capacity check is skipped.
        if a.nest.is_none() && !self.vcache.fits(profile.accesses.len()) {
            self.give_up(id, LoopClass::NonVectorizable, Reason::VcacheCapacity, ctl);
            return Ok(());
        }

        // Cache-hit fast path: one collection iteration, then execute
        // (every branch of `hit_execute` leaves analysis).
        if let Some(t) = a.hit.take() {
            self.stats.stage_store_id_execution += 1;
            self.tracer.emit(|| Event::StageActivated {
                stage: Stage::StoreIdExecution,
                loop_id: id,
                dsa_cycles: 0,
                cycle,
            });
            return self.hit_execute(t, profile, machine, ctl);
        }

        // Nest-fusion path: the iteration contained a verified inner
        // count loop; check the outer body is pure overhead.
        if a.nest.is_some() {
            return self.nest_step(profile, ctl);
        }

        // Structural rejections discovered during Data Collection.
        if profile.body.nonvec > 0 || profile.body.elem_bytes.is_none() {
            self.give_up(id, LoopClass::NonVectorizable, Reason::NonVectorOps, ctl);
            return Ok(());
        }
        if profile.has_call && !self.config.features.function_loops {
            self.give_up(id, LoopClass::Function, Reason::FunctionLoopsDisabled, ctl);
            return Ok(());
        }
        if closing_unconditional || profile.exit_check_pc.is_some() && profile.closing_cmp.is_none()
        {
            // Sentinel shape.
            if !self.config.features.sentinel_loops || profile.cond_branches > 0 {
                self.give_up(id, LoopClass::Sentinel, Reason::SentinelUnsupported, ctl);
                return Ok(());
            }
        }
        if profile.cond_branches > 0 {
            if !self.config.features.conditional_loops {
                self.give_up(id, LoopClass::Conditional, Reason::ConditionalLoopsDisabled, ctl);
                return Ok(());
            }
            self.stats.stage_mapping += 1;
            self.stats.array_map_accesses += 1;
            let map_cycles = self.config.array_map_latency as u64;
            self.stats.detection_cycles += map_cycles;
            self.tracer.emit(|| Event::StageActivated {
                stage: Stage::Mapping,
                loop_id: id,
                dsa_cycles: 0,
                cycle,
            });
            self.tracer.emit(|| Event::CacheAccess {
                cache: CacheKind::ArrayMap,
                outcome: CacheOutcome::Hit,
                loop_id: id,
                count: 1,
                dsa_cycles: map_cycles,
                cycle,
            });
            return self.conditional_step(profile, iter, machine, ctl);
        }

        let a = expect_mode!(self, Analyzing, EngineOp::DataCollection);
        if a.collected.is_none() {
            a.collected = Some(profile);
            self.stats.stage_data_collection += 1;
            self.tracer.emit(|| Event::StageActivated {
                stage: Stage::DataCollection,
                loop_id: id,
                dsa_cycles: 0,
                cycle,
            });
            return Ok(());
        }

        // Dependency Analysis: two straight-line profiles available.
        self.stats.stage_dependency_analysis += 1;
        self.tracer.emit(|| Event::StageActivated {
            stage: Stage::DependencyAnalysis,
            loop_id: id,
            dsa_cycles: 0,
            cycle,
        });
        let Some(p2) = a.collected.clone() else {
            return Err(EngineError { expected: EngineMode::CollectedProfile, during: EngineOp::DependencyAnalysis });
        };
        self.decide_straight(p2, profile, closing_unconditional, machine, ctl)
    }

    /// Matches two profiles into stream templates (per-iteration gaps).
    fn match_streams(
        p2: &IterationProfile,
        p3: &IterationProfile,
        iter_delta: u32,
    ) -> Option<Vec<(StreamTemplate, u32)>> {
        let mut out = Vec::new();
        if p2.accesses.len() != p3.accesses.len() {
            return None;
        }
        for s2 in &p2.accesses {
            let s3 = p3.find(s2.pc, s2.occ)?;
            if s3.is_write != s2.is_write || s3.bytes != s2.bytes {
                return None;
            }
            let total_gap = s3.addr as i64 - s2.addr as i64;
            if total_gap % iter_delta as i64 != 0 {
                return None;
            }
            let gap = total_gap / iter_delta as i64;
            out.push((
                StreamTemplate {
                    pc: s2.pc,
                    occ: s2.occ,
                    is_write: s2.is_write,
                    bytes: s2.bytes,
                    gap,
                },
                s2.addr,
            ));
        }
        Some(out)
    }

    fn trip_info(
        c2: Option<CmpObs>,
        c3: Option<CmpObs>,
    ) -> Option<(i64 /* remaining after the later obs */, bool /* imm */)> {
        let (c2, c3) = (c2?, c3?);
        if c2.pc != c3.pc || c2.rhs != c3.rhs || c2.rhs_is_imm != c3.rhs_is_imm {
            return None;
        }
        let step = c3.lhs - c2.lhs;
        if step <= 0 {
            return None;
        }
        let diff = c3.rhs - c3.lhs;
        if diff < 0 || diff % step != 0 {
            return None;
        }
        Some((diff / step, c3.rhs_is_imm))
    }

    #[allow(clippy::too_many_arguments)]
    fn decide_straight(
        &mut self,
        p2: IterationProfile,
        p3: IterationProfile,
        closing_unconditional: bool,
        _machine: &Machine,
        ctl: &mut SimControl<'_>,
    ) -> Result<(), EngineError> {
        let a = expect_mode!(self, Analyzing, EngineOp::DecideStraight);
        let (id, end_pc) = (a.id, a.end_pc);
        let sentinel = closing_unconditional;
        let cycle = ctl.cycles();

        let Some(streams_all) = Self::match_streams(&p2, &p3, 1) else {
            self.give_up(id, LoopClass::NonVectorizable, Reason::StreamMismatch, ctl);
            return Ok(());
        };
        let Some(elem) = p3.body.elem_bytes.map(i64::from) else {
            // Checked during collection; a missing width here means the
            // profile was corrupted between stages.
            self.give_up(id, LoopClass::NonVectorizable, Reason::ProfileCorrupt, ctl);
            return Ok(());
        };

        // Split invariant re-loads (gap 0) from vectorizable streams.
        let mut streams: Vec<(StreamTemplate, u32)> = Vec::new();
        for (s, addr) in &streams_all {
            if s.gap == 0 && !s.is_write {
                continue; // hoisted to a splat by the SIMD generator
            }
            if s.gap != elem {
                self.give_up(id, LoopClass::NonVectorizable, Reason::NonUnitStride, ctl);
                return Ok(());
            }
            streams.push((*s, *addr));
        }
        if !streams.iter().any(|(s, _)| s.is_write) {
            // Reductions into registers / pure address walks: the DSA has
            // no vector-register carry support.
            self.give_up(id, LoopClass::NonVectorizable, Reason::NoStoreStream, ctl);
            return Ok(());
        }

        // Trip prediction.
        let (remaining_after3, rhs_is_imm, budget);
        let lanes = 16 / elem as u32;
        if sentinel {
            let spec = lanes; // first encounter: one full vector
            budget = spec;
            remaining_after3 = spec as i64;
            rhs_is_imm = false;
        } else {
            match Self::trip_info(p2.closing_cmp, p3.closing_cmp) {
                Some((rem, imm)) => {
                    remaining_after3 = rem;
                    rhs_is_imm = imm;
                    budget = 0;
                }
                None => {
                    self.give_up(id, LoopClass::NonVectorizable, Reason::IrregularTrip, ctl);
                    return Ok(());
                }
            }
            if !rhs_is_imm && !self.config.features.dynamic_range_loops {
                self.give_up(id, LoopClass::DynamicRange, Reason::DynamicRangeDisabled, ctl);
                return Ok(());
            }
        }

        // CIDP over the reconstructed streams.
        let cidp_streams: Vec<cidp::Stream> = streams_all
            .iter()
            .map(|(s, addr)| cidp::Stream {
                addr2: *addr as i64,
                gap: s.gap,
                is_write: s.is_write,
                bytes: s.bytes,
            })
            .collect();
        let pairs = cidp_streams.iter().filter(|s| s.is_write).count()
            * cidp_streams.iter().filter(|s| !s.is_write).count();
        self.stats.cidp_evaluations += pairs as u64;
        let cidp_cycles = (pairs as u64) * self.config.cidp_latency as u64;
        self.stats.detection_cycles += cidp_cycles;
        let trip_for_cidp = if sentinel { 3 + budget } else { 3 + remaining_after3 as u32 };
        let outcome = cidp::predict(&cidp_streams, trip_for_cidp);
        let verdict_distance = match outcome {
            CidpOutcome::NoDependency => None,
            CidpOutcome::Dependency { distance } => Some(distance),
        };
        self.tracer.emit(|| Event::DependencyVerdict {
            loop_id: id,
            pairs: pairs as u32,
            distance: verdict_distance,
            dsa_cycles: cidp_cycles,
            cycle,
        });
        let partial_distance = match outcome {
            CidpOutcome::NoDependency => None,
            CidpOutcome::Dependency { distance } => {
                if self.config.features.partial_vectorization && distance >= lanes {
                    Some(distance)
                } else {
                    self.give_up(id, LoopClass::NonVectorizable, Reason::CrossIterationDependency, ctl);
                    return Ok(());
                }
            }
        };

        let class = if sentinel {
            LoopClass::Sentinel
        } else if partial_distance.is_some() {
            LoopClass::Partial
        } else if p3.has_call {
            LoopClass::Function
        } else if !rhs_is_imm {
            LoopClass::DynamicRange
        } else {
            LoopClass::Count
        };

        let template = LoopTemplate {
            class,
            end_pc,
            callee_range: p3.callee_range,
            exit_check_pc: p3.exit_check_pc,
            elem_bytes: elem as u8,
            float: p3.body.float,
            streams: streams.iter().map(|(s, _)| *s).collect(),
            ops: OpMix {
                alu: p3.body.vec_alu,
                mul: p3.body.vec_mul,
                shift: p3.body.vec_shift,
            },
            arms: Vec::new(),
            partial_distance,
            spec_range: budget,
            trip_imm: if rhs_is_imm { p3.closing_cmp.map(|c| c.rhs) } else { None },
            cover_range: None,
            fused_inner_trip: None,
        };

        self.stats.stage_store_id_execution += 1;
        self.tracer.emit(|| Event::StageActivated {
            stage: Stage::StoreIdExecution,
            loop_id: id,
            dsa_cycles: 0,
            cycle,
        });
        self.cache_insert(id, CachedKind::Vectorizable(template.clone()), true, cycle);
        self.classify(id, class, cycle);

        // Remaining work starts at iteration 4; stream bases advance one
        // gap past the iteration-3 observation.
        let bases: Vec<(StreamTemplate, u32)> = streams
            .iter()
            .map(|(s, a2)| {
                let p3_addr = p3.find(s.pc, s.occ).map(|x| x.addr).unwrap_or(*a2);
                (*s, (p3_addr as i64 + s.gap) as u32)
            })
            .collect();
        // Iterations 1–3 ran scalar during analysis; everything after the
        // iteration-3 closing compare is vectorized.
        let count = if sentinel { budget } else { remaining_after3 as u32 };
        self.launch(template, bases, count, ctl)
    }

    /// Cache-hit path: one observed iteration gives fresh stream bases.
    fn hit_execute(
        &mut self,
        template: LoopTemplate,
        profile: IterationProfile,
        _machine: &Machine,
        ctl: &mut SimControl<'_>,
    ) -> Result<(), EngineError> {
        let a = expect_mode!(self, Analyzing, EngineOp::HitExecute);
        let (id, end_pc) = (a.id, a.end_pc);

        // Validate the template as it leaves the cache: a corrupted
        // entry (bit flip, fault injection) must degrade the loop to
        // scalar, not drive the planner's lane math into a panic.
        if template.validate().is_err() {
            self.degrade(id, template.class, Reason::CorruptTemplate, ctl);
            return Ok(());
        }
        if template.class == LoopClass::Conditional {
            // Arms are (re-)located as they execute; go straight to
            // conditional execution with nothing injected yet.
            self.begin_conditional_execution(id, end_pc, template, ctl);
            return Ok(());
        }

        // Recompute this instance's remaining trip.
        let count;
        if template.class == LoopClass::Sentinel {
            // Sanity-check the stored speculative range: a lying trip
            // predictor would otherwise grow the injected block without
            // bound and the watchdog — not the DSA — would end the run.
            if template.spec_range > MAX_SPEC_RANGE {
                self.degrade(id, LoopClass::Sentinel, Reason::SpecRangeOverflow, ctl);
                return Ok(());
            }
            count = (template.spec_range.max(1)).div_ceil(template.lanes()) * template.lanes();
        } else {
            let Some(cmp) = profile.closing_cmp else {
                self.mode = Mode::Probing;
                return Ok(());
            };
            let diff = cmp.rhs - cmp.lhs;
            if diff <= 0 {
                self.mode = Mode::Probing;
                return Ok(());
            }
            // For a fused nest the observed iteration is one *outer*
            // iteration: each remaining one is worth `inner_trip`
            // elements and the streams advance a whole row per entry.
            count = diff as u32 * template.fused_inner_trip.unwrap_or(1);
        }

        // Fresh bases: this iteration's addresses plus one stride.
        let stride = template.fused_inner_trip.unwrap_or(1) as i64;
        let mut bases = Vec::new();
        for s in &template.streams {
            match profile.find(s.pc, s.occ) {
                Some(obs) => bases.push((*s, (obs.addr as i64 + s.gap * stride) as u32)),
                None => {
                    // The cached shape no longer matches; re-analyse.
                    let cycle = ctl.cycles();
                    self.cache_insert(
                        id,
                        CachedKind::NonVectorizable(LoopClass::NonVectorizable),
                        false,
                        cycle,
                    );
                    self.tracer.emit(|| Event::LoopRejected {
                        loop_id: id,
                        class: LoopClass::NonVectorizable,
                        reason: Reason::TemplateShapeMismatch,
                        cycle,
                    });
                    self.mode = Mode::Probing;
                    return Ok(());
                }
            }
        }
        self.launch(template, bases, count, ctl)
    }

    /// Flushes, injects the SIMD work and enters coverage.
    fn launch(
        &mut self,
        template: LoopTemplate,
        bases: Vec<(StreamTemplate, u32)>,
        count: u32,
        ctl: &mut SimControl<'_>,
    ) -> Result<(), EngineError> {
        let a = expect_mode!(self, Analyzing, EngineOp::Launch);
        let (id, end_pc) = (a.id, a.end_pc);
        let class = template.class;
        if count < self.config.min_profitable_iterations {
            // Not worth a pipeline flush; the verdict stays cached so a
            // longer instance of the same loop can still vectorize.
            let cycle = ctl.cycles();
            self.tracer.emit(|| Event::LoopRejected {
                loop_id: id,
                class,
                reason: Reason::UnprofitableTrip,
                cycle,
            });
            self.mode = Mode::Probing;
            return Ok(());
        }

        // Alignment peeling: delay vector execution by up to lanes-1
        // iterations so the store stream starts on a 16-byte boundary —
        // the DSA observes the addresses, so unlike the compiler it can
        // always use the aligned access forms.
        let elem = template.elem_bytes as u32;
        let peel = bases
            .iter()
            .find(|(s, _)| s.is_write)
            .or_else(|| bases.first())
            .map(|(_, a)| ((16 - (a % 16)) % 16) / elem)
            .unwrap_or(0)
            .min(count);
        let mut bases = bases;
        for (s, a) in &mut bases {
            *a = (*a as i64 + s.gap * peel as i64) as u32;
        }
        let mut count = count - peel;
        if template.class == LoopClass::Sentinel {
            // Sentinel speculation may overshoot freely (unselected lanes
            // are discarded); keep the block a whole number of vectors so
            // continued speculation never degenerates to lane ops.
            let lanes = template.lanes();
            count = count.div_ceil(lanes).max(1) * lanes;
        }
        if count < self.config.min_profitable_iterations {
            let cycle = ctl.cycles();
            self.tracer.emit(|| Event::LoopRejected {
                loop_id: id,
                class,
                reason: Reason::UnprofitableTrip,
                cycle,
            });
            self.mode = Mode::Probing;
            return Ok(());
        }
        ctl.stall(self.config.flush_latency as u64);

        if let Some(d) = template.partial_distance {
            // Partial vectorization: chunks of `d` iterations, each
            // re-verified (multiple cross-iteration analyses).
            let mut done = 0;
            let mut chunk_bases = bases.clone();
            while done < count {
                let n = d.min(count - done);
                let p = plan::build_plan(&template, &chunk_bases, template.ops, n, self.config.leftover);
                self.stats.injected_ops += p.ops.len() as u64;
                self.stats.discarded_lanes += p.discarded_lanes as u64;
                ctl.inject(&p.ops);
                self.stats.partial_chunks += 1;
                self.stats.detection_cycles += self.config.partial_chunk_latency as u64;
                let (chunk_lat, cycle) = (self.config.partial_chunk_latency, ctl.cycles());
                self.tracer.emit(|| Event::PartialChunk {
                    loop_id: id,
                    chunk_iters: n,
                    dsa_cycles: chunk_lat as u64,
                    cycle,
                });
                done += n;
                for (s, a) in &mut chunk_bases {
                    *a = (*a as i64 + s.gap * n as i64) as u32;
                }
            }
        } else {
            let p = plan::build_plan(&template, &bases, template.ops, count, self.config.leftover);
            self.stats.injected_ops += p.ops.len() as u64;
            self.stats.discarded_lanes += p.discarded_lanes as u64;
            ctl.inject(&p.ops);
        }

        self.stats.loops_vectorized += 1;
        {
            let cycle = ctl.cycles();
            self.tracer.emit(|| Event::LoopVectorized {
                loop_id: id,
                class,
                planned: count,
                peeled: peel,
                cycle,
            });
        }
        let callee_range = template.callee_range;
        let kind = if template.class == LoopClass::Sentinel {
            // Bases for the block after the one just injected.
            let next_bases: Vec<(StreamTemplate, u32)> = bases
                .iter()
                .map(|(s, a)| (*s, (*a as i64 + s.gap * count as i64) as u32))
                .collect();
            ExecKind::Sentinel {
                check_hi: template.exit_check_pc.unwrap_or(id),
                template,
                budget: count,
                block: count,
                bases: next_bases,
                injected_elems: count,
            }
        } else {
            ExecKind::Plain { peel }
        };
        if peel == 0 {
            ctl.begin_coverage();
        }
        self.mode = Mode::Executing(Box::new(Execution {
            id,
            lo: id,
            hi: end_pc,
            callee: callee_range,
            kind,
            iters: 0,
            call_depth: 0,
        }));
        Ok(())
    }

    /// Second analysis phase for a fusable nest: two observed outer
    /// iterations give the per-outer-iteration stream gaps; if the outer
    /// body is pure overhead and the inner streams are contiguous row to
    /// row, the nest executes as one fused loop (§4.6.3, scenario with
    /// no instructions between the loops).
    fn nest_step(
        &mut self,
        profile: IterationProfile,
        ctl: &mut SimControl<'_>,
    ) -> Result<(), EngineError> {
        let a = expect_mode!(self, Analyzing, EngineOp::NestStep);
        let id = a.id;
        let end_pc = a.end_pc;
        let Some(nest) = a.nest.as_ref() else {
            return Err(EngineError { expected: EngineMode::NestObservation, during: EngineOp::NestStep });
        };
        let (inner_id, inner_end) = (nest.inner_id, nest.inner_end);
        let inner_trip = nest.inner_trip;
        let template = nest.inner_template.clone();

        let in_inner = |pc: u32| (inner_id..=inner_end).contains(&pc);
        // Outer-only value operations or memory accesses break fusion.
        let overhead_only = profile.value_op_pcs.iter().all(|&pc| in_inner(pc))
            && profile.accesses.iter().all(|s| in_inner(s.pc))
            && !profile.has_call
            && profile.cond_branch_pcs.iter().all(|&pc| in_inner(pc) || pc < inner_id);
        if !overhead_only {
            self.give_up(id, LoopClass::Nest, Reason::NestOuterNotOverhead, ctl);
            return Ok(());
        }

        if a.collected.is_none() {
            a.collected = Some(profile);
            self.stats.stage_data_collection += 1;
            let cycle = ctl.cycles();
            self.tracer.emit(|| Event::StageActivated {
                stage: Stage::DataCollection,
                loop_id: id,
                dsa_cycles: 0,
                cycle,
            });
            return Ok(());
        }
        let Some(p2) = a.collected.clone() else {
            return Err(EngineError { expected: EngineMode::CollectedOuterIteration, during: EngineOp::NestStep });
        };
        self.stats.stage_dependency_analysis += 1;
        {
            let cycle = ctl.cycles();
            self.tracer.emit(|| Event::StageActivated {
                stage: Stage::DependencyAnalysis,
                loop_id: id,
                dsa_cycles: 0,
                cycle,
            });
        }

        // Row-to-row gaps must be exactly one inner trip of elements.
        let mut bases = Vec::new();
        for s in &template.streams {
            let (Some(a2), Some(a3)) = (p2.find(s.pc, 0), profile.find(s.pc, 0)) else {
                self.give_up(id, LoopClass::Nest, Reason::StreamMismatch, ctl);
                return Ok(());
            };
            let row_gap = a3.addr as i64 - a2.addr as i64;
            if row_gap != s.gap * inner_trip as i64 {
                self.give_up(id, LoopClass::Nest, Reason::NestRowGap, ctl);
                return Ok(());
            }
            bases.push((*s, (a3.addr as i64 + row_gap) as u32));
        }

        // Remaining outer iterations from the outer closing compare.
        let Some((remaining_outer, rhs_is_imm)) =
            Self::trip_info(p2.closing_cmp, profile.closing_cmp)
        else {
            self.give_up(id, LoopClass::Nest, Reason::IrregularTrip, ctl);
            return Ok(());
        };
        if !rhs_is_imm && !self.config.features.dynamic_range_loops {
            self.give_up(id, LoopClass::Nest, Reason::DynamicRangeDisabled, ctl);
            return Ok(());
        }

        let fused = LoopTemplate {
            class: LoopClass::Nest,
            end_pc,
            trip_imm: if rhs_is_imm { profile.closing_cmp.map(|c| c.rhs) } else { None },
            fused_inner_trip: Some(inner_trip),
            ..template
        };
        self.stats.stage_store_id_execution += 1;
        let cycle = ctl.cycles();
        self.tracer.emit(|| Event::StageActivated {
            stage: Stage::StoreIdExecution,
            loop_id: id,
            dsa_cycles: 0,
            cycle,
        });
        self.cache_insert(id, CachedKind::Vectorizable(fused.clone()), true, cycle);
        self.classify(id, LoopClass::Nest, cycle);
        let count = remaining_outer as u32 * inner_trip;
        self.launch(fused, bases, count, ctl)
    }

    // ----- Conditional loops ----------------------------------------------

    fn conditional_step(
        &mut self,
        mut profile: IterationProfile,
        iter: u32,
        _machine: &Machine,
        ctl: &mut SimControl<'_>,
    ) -> Result<(), EngineError> {
        let a = expect_mode!(self, Analyzing, EngineOp::ConditionalStep);
        let (id, end_pc) = (a.id, a.end_pc);
        if iter > self.config.conditional_analysis_limit {
            self.give_up(id, LoopClass::Conditional, Reason::MappingBudgetExhausted, ctl);
            return Ok(());
        }

        // Fault injection: a stuck Array-Map bit flips the condition
        // path observed for this iteration.
        if self.fault_fires(FaultSite::FlipArrayMapCondition, ctl.cycles()) {
            let bit = self
                .faults
                .as_ref()
                .map_or(0, |f| f.pick(FaultSite::FlipArrayMapCondition, 63));
            profile.path ^= 1 << bit;
        }

        let a = expect_mode!(self, Analyzing, EngineOp::ConditionMapping);
        let cond = a.cond.get_or_insert_with(|| CondAnalysis {
            arms: BTreeMap::new(),
            pcs_seen: IdSet::default(),
            verified: BTreeMap::new(),
        });
        cond.pcs_seen.extend(profile.pcs.iter().copied());
        let path = profile.path;
        let closing = profile.closing_cmp;

        // Consistency check: the path hash must agree with the visited
        // PC set. An iteration whose PCs match a known arm but whose
        // path differs means an Array Map lied — discard the analysis
        // and run this loop scalar.
        let map_lied =
            cond.arms.iter().any(|(&p, (obs, _, _))| p != path && obs.pcs == profile.pcs);
        if map_lied {
            self.degrade(id, LoopClass::Conditional, Reason::ArrayMapInconsistent, ctl);
            return Ok(());
        }

        let arms_limit = self.config.array_maps + self.config.spare_vector_regs;
        match cond.arms.get_mut(&path) {
            None => {
                cond.arms.insert(path, (profile, iter, None));
            }
            Some((first, first_iter, second)) if second.is_none() => {
                // Second observation: verify the arm.
                let delta = iter - *first_iter;
                let Some(streams) = Self::match_streams(first, &profile, delta) else {
                    self.give_up(id, LoopClass::Conditional, Reason::StreamMismatch, ctl);
                    return Ok(());
                };
                if profile.body.vec_ops() > arms_limit {
                    self.give_up(id, LoopClass::Conditional, Reason::ArmCapacity, ctl);
                    return Ok(());
                }
                let arm = ArmTemplate {
                    path,
                    streams: streams.iter().map(|(s, _)| *s).collect(),
                    ops: OpMix {
                        alu: profile.body.vec_alu,
                        mul: profile.body.vec_mul,
                        shift: profile.body.vec_shift,
                    },
                };
                *second = Some((profile, iter));
                cond.verified.insert(path, arm);
            }
            _ => {}
        }

        // Completion: every PC of the body visited and every observed arm
        // verified.
        let body_pcs = (id..end_pc).count(); // closing branch excluded
        let all_pcs = cond.pcs_seen.len() >= body_pcs;
        let all_verified = !cond.arms.is_empty()
            && cond.arms.values().all(|(_, _, second)| second.is_some());
        if !(all_pcs && all_verified) {
            return Ok(());
        }

        // The covered region: PCs executed in some arms but not all —
        // the condition-dependent bodies. Condition evaluation (the
        // common PCs) keeps running on the scalar core to drive the
        // Vector-Map mapping.
        let cover_range = {
            let profiles: Vec<&IterationProfile> =
                cond.arms.values().map(|(p, _, _)| p).collect();
            let union: IdSet =
                profiles.iter().flat_map(|p| p.pcs.iter().copied()).collect();
            let common: IdSet = profiles
                .iter()
                .fold(union.clone(), |acc, p| acc.intersection(&p.pcs).copied().collect());
            let arm_pcs: Vec<u32> = union.difference(&common).copied().collect();
            match (arm_pcs.iter().min(), arm_pcs.iter().max()) {
                (Some(&lo), Some(&hi)) => Some((lo, hi)),
                _ => None,
            }
        };

        // CIDP per arm over its streams.
        let arms: Vec<ArmTemplate> = cond.verified.values().cloned().collect();
        let elem = arms
            .iter()
            .flat_map(|a| a.streams.iter())
            .map(|s| s.bytes)
            .max()
            .unwrap_or(4);
        if closing.is_none() {
            self.give_up(id, LoopClass::Conditional, Reason::IrregularTrip, ctl);
            return Ok(());
        }
        for arm in &arms {
            // Per-arm gap sanity: unit stride only.
            if arm.streams.iter().any(|s| s.gap != elem as i64 && s.gap != 0) {
                self.give_up(id, LoopClass::Conditional, Reason::NonUnitStride, ctl);
                return Ok(());
            }
            self.stats.cidp_evaluations += 1;
            self.stats.detection_cycles += self.config.cidp_latency as u64;
            let (cidp_lat, cycle) = (self.config.cidp_latency, ctl.cycles());
            self.tracer.emit(|| Event::DependencyVerdict {
                loop_id: id,
                pairs: 1,
                distance: None,
                dsa_cycles: cidp_lat as u64,
                cycle,
            });
        }

        let template = LoopTemplate {
            class: LoopClass::Conditional,
            end_pc,
            callee_range: None,
            exit_check_pc: None,
            elem_bytes: elem,
            float: false,
            streams: Vec::new(),
            ops: OpMix::default(),
            arms,
            partial_distance: None,
            spec_range: 0,
            trip_imm: closing.filter(|c| c.rhs_is_imm).map(|c| c.rhs),
            cover_range,
            fused_inner_trip: None,
        };
        self.stats.stage_store_id_execution += 1;
        let cycle = ctl.cycles();
        self.tracer.emit(|| Event::StageActivated {
            stage: Stage::StoreIdExecution,
            loop_id: id,
            dsa_cycles: 0,
            cycle,
        });
        self.cache_insert(id, CachedKind::Vectorizable(template.clone()), false, cycle);
        self.classify(id, LoopClass::Conditional, cycle);
        ctl.stall(self.config.flush_latency as u64);
        self.begin_conditional_execution(id, end_pc, template, ctl);
        Ok(())
    }

    fn begin_conditional_execution(
        &mut self,
        id: u32,
        end_pc: u32,
        template: LoopTemplate,
        ctl: &mut SimControl<'_>,
    ) {
        self.stats.loops_vectorized += 1;
        let cycle = ctl.cycles();
        self.tracer.emit(|| Event::LoopVectorized {
            loop_id: id,
            class: LoopClass::Conditional,
            planned: 0,
            peeled: 0,
            cycle,
        });
        ctl.begin_coverage();
        self.mode = Mode::Executing(Box::new(Execution {
            id,
            lo: id,
            hi: end_pc,
            callee: None,
            kind: ExecKind::Conditional {
                template,
                window_arms: BTreeMap::new(),
                window_fill: 0,
                path: 0,
                accesses: Vec::new(),
                injected_elems: 0,
            },
            iters: 0,
            call_depth: 0,
        }));
    }

    // ----- Execution -------------------------------------------------------

    fn execute(
        &mut self,
        ev: &TraceEvent,
        machine: &Machine,
        ctl: &mut SimControl<'_>,
    ) -> Result<(), EngineError> {
        let x = expect_mode!(self, Executing, EngineOp::Execute);
        match ev.instr {
            Instr::Bl { .. } => x.call_depth += 1,
            Instr::BxLr => x.call_depth = x.call_depth.saturating_sub(1),
            _ => {}
        }

        let boundary =
            ev.pc == x.hi && matches!(ev.branch, Some(b) if b.taken && b.target == x.lo);
        if boundary {
            x.iters += 1;
        }

        match &mut x.kind {
            ExecKind::Plain { peel } => {
                // Coverage starts once the peeled (alignment) iterations
                // have run scalar.
                let peel = *peel;
                let next = machine.pc();
                if peel > 0 && (x.lo..=x.hi).contains(&next) {
                    if x.iters >= peel {
                        ctl.begin_coverage();
                    } else {
                        ctl.end_coverage();
                    }
                }
            }
            ExecKind::Sentinel { template, budget, block, check_hi, bases, injected_elems } => {
                // If the loop outlived the speculation, speculate the
                // next block (continued partial vectorization, §4.6.5).
                if boundary && x.iters == *budget {
                    let plan = plan::build_plan(
                        template,
                        bases,
                        template.ops,
                        *block,
                        self.config.leftover,
                    );
                    self.stats.injected_ops += plan.ops.len() as u64;
                    self.stats.partial_chunks += 1;
                    self.stats.detection_cycles += self.config.partial_chunk_latency as u64;
                    let (xid, n, chunk_lat, cycle) =
                        (x.id, *block, self.config.partial_chunk_latency, ctl.cycles());
                    self.tracer.emit(|| Event::PartialChunk {
                        loop_id: xid,
                        chunk_iters: n,
                        dsa_cycles: chunk_lat as u64,
                        cycle,
                    });
                    ctl.inject(&plan.ops);
                    for (s, a) in bases.iter_mut() {
                        *a = (*a as i64 + s.gap * *block as i64) as u32;
                    }
                    *budget += *block;
                    *injected_elems += *block;
                }
                let check_hi = *check_hi;
                let within_budget = x.iters < *budget;
                // Selective suppression: stop-check instructions always
                // run scalar; body is covered while within budget.
                let next = machine.pc();
                let next_in_check = (x.lo..=check_hi).contains(&next);
                if (x.lo..=x.hi).contains(&next) {
                    if next_in_check || !within_budget {
                        ctl.end_coverage();
                    } else {
                        ctl.begin_coverage();
                    }
                }
            }
            ExecKind::Conditional {
                template,
                window_arms,
                window_fill,
                path,
                accesses,
                injected_elems,
            } => {
                let lanes = template.lanes();
                // The commits a superblock retired before `ev` are never
                // control flow: only their accesses matter here.
                for r in ctl.retired().iter() {
                    push_access(accesses, &r);
                }
                push_access(accesses, ev);
                path_step(path, x.lo, x.hi, ev);
                if boundary {
                    self.stats.array_map_accesses += 1;
                    self.stats.detection_cycles += self.config.array_map_latency as u64;
                    // The Array Map access, emitted below with the
                    // window's select stage when this boundary closes it.
                    let (xid, map_lat, cycle) =
                        (x.id, self.config.array_map_latency, ctl.cycles());
                    let map_access = move || Event::CacheAccess {
                        cache: CacheKind::ArrayMap,
                        outcome: CacheOutcome::Hit,
                        loop_id: xid,
                        count: 1,
                        dsa_cycles: map_lat as u64,
                        cycle,
                    };
                    let path = std::mem::take(path);
                    // First time this arm appears within the current
                    // window: remember its stream bases, rewound to the
                    // window start.
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        window_arms.entry(path)
                    {
                        let fill = *window_fill as i64;
                        let rewind =
                            |s: StreamTemplate, addr: u32| (s, (addr as i64 - s.gap * fill) as u32);
                        match template.arms.iter().find(|a| a.path == path) {
                            Some(arm) => {
                                let bases: Vec<(StreamTemplate, u32)> = arm
                                    .streams
                                    .iter()
                                    .filter_map(|s| {
                                        find_access(accesses, s.pc, s.occ)
                                            .map(|obs| rewind(*s, obs.addr))
                                    })
                                    .collect();
                                if bases.len() == arm.streams.len() {
                                    slot.insert(bases);
                                }
                            }
                            // An arm the template lacks: every access of
                            // this iteration is one of its unit streams.
                            None => {
                                let gap = template.elem_bytes as i64;
                                slot.insert(
                                    accesses
                                        .iter()
                                        .map(|s| {
                                            let st = StreamTemplate {
                                                pc: s.pc,
                                                occ: s.occ,
                                                is_write: s.is_write,
                                                bytes: s.bytes,
                                                gap,
                                            };
                                            rewind(st, s.addr)
                                        })
                                        .collect(),
                                );
                            }
                        }
                    }
                    accesses.clear();
                    *window_fill += 1;
                    // Window complete: vectorize every accessed condition
                    // over it and let the Array Maps select lanes.
                    if *window_fill == lanes {
                        for (path, bases) in std::mem::take(window_arms) {
                            let ops = template
                                .arms
                                .iter()
                                .find(|a| a.path == path)
                                .map(|a| a.ops)
                                .unwrap_or(OpMix { alu: 1, mul: 0, shift: 0 });
                            let plan = plan::build_plan(
                                template,
                                &bases,
                                ops,
                                lanes,
                                self.config.leftover,
                            );
                            self.stats.injected_ops += plan.ops.len() as u64;
                            *injected_elems += lanes;
                            ctl.inject(&plan.ops);
                        }
                        *window_fill = 0;
                        self.stats.stage_speculative += 1;
                        self.stats.detection_cycles += self.config.select_latency as u64;
                        let (sel_lat, cycle) = (self.config.select_latency, ctl.cycles());
                        self.tracer.emit_loop(xid, || {
                            [
                                map_access(),
                                Event::StageActivated {
                                    stage: Stage::SpeculativeExecution,
                                    loop_id: xid,
                                    dsa_cycles: sel_lat as u64,
                                    cycle,
                                },
                            ]
                        });
                    } else {
                        self.tracer.emit_loop(xid, || [map_access()]);
                    }
                }
            }
        }

        // Loop exit?
        let next = machine.pc();
        let in_body = (x.lo..=x.hi).contains(&next);
        let in_callee = x.callee.is_some_and(|(lo, hi)| (lo..=hi).contains(&next))
            || x.call_depth > 0;
        if !in_body && !in_callee {
            let iters = x.iters;
            let xid = x.id;
            let cycle = ctl.cycles();
            let sel_lat = self.config.select_latency as u64;
            match &x.kind {
                ExecKind::Sentinel { injected_elems, .. } => {
                    self.stats.stage_speculative += 1;
                    self.stats.detection_cycles += sel_lat;
                    self.stats.discarded_lanes +=
                        (*injected_elems as u64).saturating_sub(iters as u64);
                    let injected = *injected_elems as u64;
                    self.tracer.emit(|| Event::StageActivated {
                        stage: Stage::SpeculativeExecution,
                        loop_id: xid,
                        dsa_cycles: sel_lat,
                        cycle,
                    });
                    self.tracer.emit(|| Event::SpeculationResolved {
                        loop_id: xid,
                        kind: SpecKind::Sentinel,
                        injected,
                        used: iters as u64,
                        discarded: injected.saturating_sub(iters as u64),
                        cycle,
                    });
                    // Update the stored speculative range (three rules of
                    // §4.6.5: always track the latest actual range).
                    if let Some(t) = self.cache.template_mut(xid) {
                        t.spec_range = iters.max(1);
                        // Fault injection: a lying trip predictor stores
                        // a wildly inflated range; `hit_execute` must
                        // catch it before the next instance launches.
                        if self.faults.as_mut().is_some_and(|f| f.fire(FaultSite::LieSentinelTrip))
                        {
                            self.stats.faults_injected += 1;
                            t.spec_range = MAX_SPEC_RANGE + 1 + iters;
                            self.tracer.emit(|| Event::FaultInjected {
                                site: FaultSite::LieSentinelTrip,
                                cycle,
                            });
                        }
                    }
                }
                ExecKind::Conditional { injected_elems, .. } => {
                    self.stats.stage_speculative += 1;
                    self.stats.detection_cycles += sel_lat;
                    self.stats.discarded_lanes +=
                        (*injected_elems as u64).saturating_sub(iters as u64);
                    let injected = *injected_elems as u64;
                    self.tracer.emit(|| Event::StageActivated {
                        stage: Stage::SpeculativeExecution,
                        loop_id: xid,
                        dsa_cycles: sel_lat,
                        cycle,
                    });
                    self.tracer.emit(|| Event::SpeculationResolved {
                        loop_id: xid,
                        kind: SpecKind::Conditional,
                        injected,
                        used: iters as u64,
                        discarded: injected.saturating_sub(iters as u64),
                        cycle,
                    });
                }
                ExecKind::Plain { .. } => {}
            }
            self.stats.covered_iterations += iters as u64;
            self.tracer.emit(|| Event::LoopFinished { loop_id: xid, iters, cycle });
            // Fault injection: skip the rollback flush, leaving coverage
            // suppression stuck on. `probe`'s stale-coverage self-check
            // must recover it on the next commit.
            if self.faults.as_mut().is_some_and(|f| f.fire(FaultSite::SkipRollbackFlush)) {
                self.stats.faults_injected += 1;
                self.tracer.emit(|| Event::FaultInjected {
                    site: FaultSite::SkipRollbackFlush,
                    cycle,
                });
            } else {
                ctl.end_coverage();
                ctl.stall(self.config.resync_latency as u64);
            }
            self.mode = Mode::Probing;
        }
        Ok(())
    }
}

/// Whether the event is a loop-closing candidate: a plain backward taken
/// branch. Calls and returns also regress the PC but are recognised by
/// their instruction kind and never start a loop analysis.
fn is_loop_branch(ev: &TraceEvent) -> bool {
    matches!(ev.instr, Instr::B { .. }) && ev.is_backward_taken_branch()
}

impl CommitHook for Dsa {
    /// The engine takes whole superblocks in three modes. While it
    /// probes or runs a plain vectorized loop it acts only at loop
    /// boundaries, and every boundary is a block terminal. While it
    /// runs a conditional loop, coverage stays on for the whole body,
    /// every arm boundary is a `B` terminal, and the accesses of the
    /// commits before a terminal come from [`SimControl::retired`].
    /// Probing with coverage still on steps, so `probe`'s
    /// stale-coverage self-check fires on the same commit as ever.
    /// Analysis reads register values at every compare, and sentinel
    /// execution toggles coverage mid-body, so those two modes step.
    #[inline]
    fn blocks(&self, covered: bool) -> bool {
        match &self.mode {
            Mode::Probing | Mode::Poisoned => !covered,
            Mode::Executing(x) => {
                matches!(x.kind, ExecKind::Plain { .. } | ExecKind::Conditional { .. })
            }
            Mode::Analyzing(_) => false,
        }
    }

    fn on_commit(&mut self, ev: &TraceEvent, machine: &Machine, ctl: &mut SimControl<'_>) {
        let step = match &self.mode {
            Mode::Probing => {
                self.probe(ev, ctl);
                Ok(())
            }
            Mode::Analyzing(_) => self.analyze(ev, machine, ctl).map(|redispatch| {
                if redispatch {
                    // Nest abandonment: re-dispatch from probing so the
                    // inner loop's boundary is not lost.
                    self.probe(ev, ctl);
                }
            }),
            Mode::Executing(_) => self.execute(ev, machine, ctl),
            // A poisoned DSA has detached itself; the scalar core is in
            // full control and the run completes with correct results.
            Mode::Poisoned => Ok(()),
        };
        if let Err(err) = step {
            self.poison(err, ctl);
        }
    }
}
