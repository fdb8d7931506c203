//! The sharded simulation service: admission control, routing,
//! migration, the shared result store and the chaos controller.
//!
//! ## Admission and load shedding
//!
//! [`Service::submit`] routes each job to the least-loaded alive shard.
//! Every shard queue is bounded; when all alive shards are at capacity
//! the job is **shed** with a typed [`ServeError::Overloaded`] — the
//! service degrades by refusing work it cannot queue, never by
//! panicking or letting latency collapse. Once admitted, a job is never
//! shed: migration traffic pushes past queue caps, so kills can not
//! strand accepted sessions behind a full queue.
//!
//! ## Kill and recover
//!
//! [`Service::kill_shard`] models a shard crash: queued sessions drain
//! immediately and re-route; the in-flight session's live engine is
//! dropped and the session migrates with its latest snapshot
//! checkpoint. The built-in chaos controller
//! ([`Service::start_chaos`]) drives kill/revive cycles on a
//! seed-derived schedule, never killing the last alive shard, so every
//! admitted session always has somewhere to finish.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsa_core::splitmix64;
use dsa_trace::{Event, Shared, ShedReason, TraceSink, WorkloadName};

use dsa_bench::cache::{ContentKey, ResultStore, StoreStats};
use dsa_bench::RunError;

use crate::protocol::JobOutcome;
use crate::session::{JobSpec, Session, SessionResult};
use crate::shard::Shard;

/// Why the service refused or failed a job.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control shed the job: every alive shard's queue is at
    /// capacity. The depth reported is the least-loaded queue's.
    Overloaded {
        /// Depth of the least-loaded alive shard at shed time.
        queue_depth: u32,
    },
    /// The request named an unknown workload, system or scale.
    BadRequest(String),
    /// The session ran and failed with a typed run error.
    Run(RunError),
    /// The service shut down before the session completed.
    Shutdown,
}

impl ServeError {
    /// Stable kebab-case kind (wire `err` field vocabulary).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::Run(_) => "run-failed",
            ServeError::Shutdown => "shutdown",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(f, "overloaded: least-loaded queue at depth {queue_depth}")
            }
            ServeError::BadRequest(what) => write!(f, "bad request: {what}"),
            ServeError::Run(e) => write!(f, "run failed: {e}"),
            ServeError::Shutdown => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Service sizing and policy.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker shards (each one OS thread).
    pub shards: u32,
    /// Bounded queue capacity per shard.
    pub queue_cap: usize,
    /// Commits per slice between checkpoints.
    pub checkpoint_every: u64,
    /// Always-on engine telemetry sampling: one in `sample_rate` loop
    /// lifecycles is folded into the per-shard metrics delta (0
    /// disables sampling, 1 keeps everything). The default keeps the
    /// serve path under the `trace_overhead_guard` 2% budget while
    /// `Service::fleet_metrics` stays populated.
    pub sample_rate: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig { shards: 4, queue_cap: 64, checkpoint_every: 20_000, sample_rate: 8 }
    }
}

/// The service's one optionally-attached event sink, shared by the
/// front end and every shard through [`ServiceInner`]. With nothing
/// attached, recording is a mutex-guarded no-op touched only at slice
/// and lifecycle boundaries — never per committed instruction — which
/// is how the service path keeps the null-sink overhead negligible.
#[derive(Default)]
pub struct ServiceSink {
    inner: Mutex<Option<Box<dyn TraceSink + Send>>>,
}

impl ServiceSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Box<dyn TraceSink + Send>>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn record_ev(&self, ev: &Event) {
        if let Some(sink) = self.lock().as_mut() {
            sink.record(ev);
        }
    }

    fn attach(&self, sink: Box<dyn TraceSink + Send>) {
        *self.lock() = Some(sink);
    }

    fn finish(&self) {
        if let Some(sink) = self.lock().as_mut() {
            sink.finish();
        }
    }
}

/// Monotone service counters (all relaxed — they are telemetry, not
/// synchronization).
#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    migrations: AtomicU64,
    checkpoints: AtomicU64,
    kills: AtomicU64,
    recoveries: AtomicU64,
    panics: AtomicU64,
    retries: AtomicU64,
}

/// A point-in-time view of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted past the front door.
    pub admitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that replied with a typed error.
    pub failed: u64,
    /// Jobs shed at admission (`Overloaded`).
    pub shed: u64,
    /// Session migrations between shards.
    pub migrations: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Shard kills observed.
    pub kills: u64,
    /// Shard recoveries observed.
    pub recoveries: u64,
    /// Slice panics caught at the crash boundary.
    pub panics: u64,
    /// Panicked slices run again from the checkpoint.
    pub retries: u64,
    /// Shared result-store counters.
    pub store: StoreStats,
}

/// Shared state behind the service handle; shards' worker threads hold
/// an `Arc` of this.
pub struct ServiceInner {
    shards: Vec<Arc<Shard>>,
    store: ResultStore,
    sink: ServiceSink,
    cfg: ServiceConfig,
    next_id: AtomicU64,
    counters: Counters,
    orphans: Mutex<Vec<Session>>,
    shutdown: AtomicBool,
    /// Service-level (wall-clock) events folded into metrics when
    /// sampling is on; drained into `fleet` alongside shard deltas.
    service_metrics: Shared<dsa_trace::MetricsRegistry>,
    /// The fleet accumulator: every drained shard delta merges here, so
    /// a snapshot at any time covers the service's whole history.
    fleet: Mutex<dsa_trace::MetricsRegistry>,
}

impl ServiceInner {
    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The shared content-addressed result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Commits per slice between checkpoints.
    pub fn checkpoint_every(&self) -> u64 {
        self.cfg.checkpoint_every
    }

    /// Records one service event.
    pub fn emit(&self, ev: Event) {
        if matches!(ev, Event::SessionCheckpointed { .. }) {
            self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        if self.cfg.sample_rate > 0 {
            // Service lifecycle events are rare (slice and admission
            // boundaries) and loop-less, so they are never sampled
            // away — the fleet registry sees every one.
            self.service_metrics.with(|m| {
                use dsa_trace::TraceSink as _;
                m.record(&ev);
            });
        }
        self.sink.record_ev(&ev);
    }

    /// The store key identifying `spec`'s result content: program-text
    /// digest (`program`, the `content_hash` of the session's one
    /// build), DSA-config fingerprint, scale.
    pub fn content_key(&self, spec: &JobSpec, program: u64) -> ContentKey {
        let config = spec.system.dsa_config().map_or(0, |c| c.fingerprint());
        ContentKey { program, config, scale: spec.scale }
    }

    /// Counts and records one slice panic caught on `workload`.
    pub fn note_panic(&self, workload: WorkloadName) {
        self.counters.panics.fetch_add(1, Ordering::Relaxed);
        self.emit(Event::WorkerPanicked { workload, cycle: 0 });
    }

    /// Counts and records the `attempt`-th retry of a panicked slice.
    pub fn note_retry(&self, workload: WorkloadName, attempt: u32) {
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        self.emit(Event::SupervisorRetry { workload, attempt, cycle: 0 });
    }

    fn least_loaded_alive(&self, not: Option<u32>) -> Option<&Arc<Shard>> {
        self.shards
            .iter()
            .filter(|sh| !sh.is_killed() && Some(sh.id) != not)
            .min_by_key(|sh| sh.depth())
    }

    /// Re-routes a session after a kill; admitted sessions force past
    /// queue caps and are never shed. With no alive shard they wait in
    /// the orphan list, drained on the next revive.
    pub fn migrate(&self, mut s: Session, from: u32) {
        s.migrations += 1;
        self.counters.migrations.fetch_add(1, Ordering::Relaxed);
        self.emit(Event::SessionMigrated { job: s.id, from_shard: from, cycle: 0 });
        // Prefer a different shard; fall back to any alive one (e.g.
        // `from` itself, revived while this session was unwinding).
        let target =
            self.least_loaded_alive(Some(from)).or_else(|| self.least_loaded_alive(None));
        match target {
            Some(shard) => {
                if let Err(back) = shard.push(s, true) {
                    // Killed between selection and push: orphan it.
                    self.orphan(back);
                }
            }
            None => self.orphan(s),
        }
    }

    fn orphan(&self, s: Session) {
        let mut orphans = match self.orphans.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        orphans.push(s);
    }

    fn adopt_orphans(&self, shard: &Shard) {
        let drained: Vec<Session> = {
            let mut orphans = match self.orphans.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            orphans.drain(..).collect()
        };
        for s in drained {
            if let Err(back) = shard.push(s, true) {
                self.orphan(back);
            }
        }
    }

    /// Success reply + counters + completion event.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_ok(
        &self,
        s: &Session,
        shard: u32,
        checksum: u64,
        expected: u64,
        cycles: u64,
        committed: u64,
        cache_hit: bool,
        resumed: bool,
    ) {
        let latency_ms = s.admitted_at.elapsed().as_millis() as u64;
        let outcome = JobOutcome {
            id: s.id,
            checksum,
            expected,
            cycles,
            committed,
            shard,
            cache_hit,
            migrations: s.migrations,
            resumed,
            latency_ms,
        };
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.emit(Event::JobCompleted {
            job: s.id,
            shard,
            cache_hit,
            migrations: s.migrations,
            latency_ms,
            cycle: 0,
        });
        // A gone client is not a service failure; drop the outcome.
        let _ = s.reply.send(Ok(outcome));
    }

    /// Error reply + counters.
    pub fn complete_err(&self, s: Session, _shard: u32, err: ServeError) {
        self.counters.failed.fetch_add(1, Ordering::Relaxed);
        let _ = s.reply.send(Err(err));
    }

    /// Kills shard `id` unless it is the last alive one; drained
    /// sessions re-route immediately.
    fn kill_shard(&self, id: u32) -> bool {
        let alive = self.shards.iter().filter(|sh| !sh.is_killed()).count();
        let Some(shard) = self.shards.iter().find(|sh| sh.id == id) else {
            return false;
        };
        if shard.is_killed() || alive <= 1 {
            return false;
        }
        let drained = shard.kill();
        self.counters.kills.fetch_add(1, Ordering::Relaxed);
        self.emit(Event::ShardKilled { shard: id, drained: drained.len() as u32, cycle: 0 });
        for s in drained {
            self.migrate(s, id);
        }
        true
    }

    /// Revives shard `id`; it adopts any orphaned sessions.
    fn revive_shard(&self, id: u32) -> bool {
        let Some(shard) = self.shards.iter().find(|sh| sh.id == id) else {
            return false;
        };
        if !shard.is_killed() {
            return false;
        }
        shard.revive();
        self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
        self.emit(Event::ShardRecovered { shard: id, cycle: 0 });
        self.adopt_orphans(shard);
        true
    }
}

/// The service handle: owns the worker threads; see the module docs.
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Starts a service with `cfg.shards` worker shards.
    pub fn start(cfg: ServiceConfig) -> Service {
        let shards: Vec<Arc<Shard>> = (0..cfg.shards.max(1))
            .map(|id| Arc::new(Shard::new(id, cfg.queue_cap, cfg.sample_rate)))
            .collect();
        let inner = Arc::new(ServiceInner {
            shards,
            store: ResultStore::new(),
            sink: ServiceSink::default(),
            cfg,
            next_id: AtomicU64::new(1),
            counters: Counters::default(),
            orphans: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            service_metrics: Shared::new(dsa_trace::MetricsRegistry::new()),
            fleet: Mutex::new(dsa_trace::MetricsRegistry::new()),
        });
        let workers = inner
            .shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                let svc = Arc::clone(&inner);
                std::thread::spawn(move || shard.run_worker(&svc))
            })
            .collect();
        Service { inner, workers: Mutex::new(workers) }
    }

    /// Routes the service and crash-boundary events (admissions, sheds,
    /// completions, checkpoints, migrations, shard kills and
    /// recoveries, supervisor retries and worker panics) into `sink`.
    /// Engine events do not reach it: they go only to the sampled
    /// per-shard metrics that [`Service::fleet_metrics`] merges.
    /// Attaching is optional; the service is bit-identical with and
    /// without a sink (events observe, never steer).
    pub fn attach_sink(&self, sink: impl TraceSink + Send + 'static) {
        self.inner.sink.attach(Box::new(sink));
    }

    /// Admits one job, returning its id and the channel its outcome
    /// arrives on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when every alive shard's queue is at
    /// capacity (typed load shedding — never a panic, never a hang),
    /// [`ServeError::Shutdown`] after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<(u64, Receiver<SessionResult>), ServeError> {
        let inner = &self.inner;
        if inner.is_shutdown() {
            return Err(ServeError::Shutdown);
        }
        let (tx, rx) = channel();
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Session {
            id,
            spec,
            checkpoint: None,
            migrations: 0,
            resumed: false,
            panics_left: std::sync::atomic::AtomicU32::new(spec.panic_slices),
            admitted_at: Instant::now(),
            reply: tx,
        };
        // Front-door admission: offer to alive shards, least loaded
        // first; a session bounced by a cap tries the next shard, and
        // only when all alive queues refuse is the job shed.
        let mut session = session;
        let mut best_depth = 0u32;
        let mut order: Vec<&Arc<Shard>> =
            inner.shards.iter().filter(|sh| !sh.is_killed()).collect();
        order.sort_by_key(|sh| sh.depth());
        for (i, shard) in order.into_iter().enumerate() {
            let depth = shard.depth() as u32;
            best_depth = if i == 0 { depth } else { best_depth.min(depth) };
            match shard.push(session, false) {
                Ok(depth) => {
                    inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
                    inner.emit(Event::JobAdmitted {
                        job: id,
                        shard: shard.id,
                        queue_depth: depth as u32,
                        cycle: 0,
                    });
                    return Ok((id, rx));
                }
                Err(back) => session = back,
            }
        }
        inner.counters.shed.fetch_add(1, Ordering::Relaxed);
        inner.emit(Event::JobShed { reason: ShedReason::Overloaded, cycle: 0 });
        Err(ServeError::Overloaded { queue_depth: best_depth })
    }

    /// Kills shard `id` (crash model; see the module docs). Refuses —
    /// returning `false` — when it is the last alive shard, so admitted
    /// sessions always have somewhere to finish.
    pub fn kill_shard(&self, id: u32) -> bool {
        self.inner.kill_shard(id)
    }

    /// Revives shard `id`; it adopts any orphaned sessions.
    pub fn revive_shard(&self, id: u32) -> bool {
        self.inner.revive_shard(id)
    }

    /// Starts the chaos controller: every `period`, kill a seed-chosen
    /// shard (never the last alive one), keep it down for `down`, then
    /// revive it. Runs until shutdown.
    pub fn start_chaos(&self, seed: u64, period: Duration, down: Duration) {
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::spawn(move || {
            let mut state = seed ^ 0x6368_616f_735f_6374; // "chaos_ct"
            while !inner.is_shutdown() {
                std::thread::sleep(period);
                if inner.is_shutdown() {
                    break;
                }
                let pick = (splitmix64(&mut state) % inner.shards.len() as u64) as u32;
                if inner.kill_shard(pick) {
                    std::thread::sleep(down);
                    inner.revive_shard(pick);
                }
            }
        });
        let mut workers = match self.workers.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        workers.push(handle);
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            migrations: c.migrations.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            kills: c.kills.load(Ordering::Relaxed),
            recoveries: c.recoveries.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            store: self.inner.store.stats(),
        }
    }

    /// The fleet-wide metrics rollup: drains every shard's delta (and
    /// the service's own lifecycle metrics) and merges it into the
    /// accumulated fleet registry, returning a copy. Calling repeatedly
    /// is cheap and lossless: deltas are taken exactly once, and the
    /// accumulator keeps the whole history.
    pub fn fleet_metrics(&self) -> dsa_trace::MetricsRegistry {
        let mut fleet = match self.inner.fleet.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for shard in &self.inner.shards {
            fleet.merge(&shard.drain_metrics());
        }
        fleet.merge(&self.inner.service_metrics.with(std::mem::take));
        fleet.clone()
    }

    /// Shards currently alive (not killed).
    pub fn alive_shards(&self) -> u32 {
        self.inner.shards.iter().filter(|sh| !sh.is_killed()).count() as u32
    }

    /// Stops accepting work and joins the workers. Shutdown is
    /// immediate, not draining: in-flight sessions finish their current
    /// run, but everything still queued (or orphaned) replies
    /// [`ServeError::Shutdown`].
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.shutdown.store(true, Ordering::Relaxed);
        for shard in &inner.shards {
            // Wake waiting workers; drain whatever never ran.
            shard.revive();
            for s in shard.drain() {
                inner.complete_err(s, shard.id, ServeError::Shutdown);
            }
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = match self.workers.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        let orphans: Vec<Session> = {
            let mut o = match inner.orphans.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            o.drain(..).collect()
        };
        for s in orphans {
            inner.complete_err(s, 0, ServeError::Shutdown);
        }
        self.inner.sink.finish();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}
