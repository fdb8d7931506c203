//! Worker shards: bounded queues, crash-isolated slice execution, and
//! the kill/drain/revive lifecycle the chaos controller drives.
//!
//! Each shard owns one OS worker thread and one bounded session queue.
//! Every slice runs inside the crash boundary ([`isolate`]): a
//! panicking slice loses only the live engine, and the next slice
//! restores from the checkpoint, up to [`MAX_SLICE_RETRIES`] panics in
//! a row. Killing a shard models a crash: queued sessions are drained
//! for migration immediately, the in-flight session's live engine is
//! dropped at the next slice boundary and the session migrates with its
//! latest checkpoint. Reviving clears the flag and the worker resumes
//! pulling work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use dsa_bench::cache as run_cache;
use dsa_bench::{isolate, RunError};
use dsa_trace::{Event, ShedReason};

use crate::service::{ServeError, ServiceInner};
use crate::session::{run_slice, Session, SessionState, Slice, SliceTelemetry, SAMPLE_SEED};

/// One worker shard; see the module docs.
pub struct Shard {
    /// Shard index (stable).
    pub id: u32,
    q: Mutex<ShardQ>,
    cv: Condvar,
    cap: usize,
    busy: AtomicBool,
    /// Always-on sampled engine telemetry, accumulated shard-locally
    /// and shipped to the front end as deltas via
    /// [`Shard::drain_metrics`]. All shards share [`SAMPLE_SEED`] so
    /// sampling verdicts survive migration.
    telemetry: SliceTelemetry,
}

struct ShardQ {
    queue: VecDeque<Session>,
    killed: bool,
}

/// Panicked slices in a row after which a session replies
/// [`RunError::Panicked`] instead of restoring from its checkpoint
/// again. Injected crashes end after a set count; a slice that panics
/// for a simulator fault panics the same way on every restore.
pub const MAX_SLICE_RETRIES: u32 = 2;

/// What the worker did with one session.
pub enum Disposition {
    /// Replied to the client (success or typed error).
    Completed,
    /// The shard was killed mid-session; the session carries its
    /// latest checkpoint and must be re-routed.
    Migrate(Session),
}

impl Shard {
    /// A shard with a bounded queue of `cap` sessions, sampling one in
    /// `sample_rate` loop lifecycles into its metrics delta (0 = off).
    pub fn new(id: u32, cap: usize, sample_rate: u32) -> Shard {
        Shard {
            id,
            q: Mutex::new(ShardQ { queue: VecDeque::new(), killed: false }),
            cv: Condvar::new(),
            cap,
            busy: AtomicBool::new(false),
            telemetry: SliceTelemetry::new(SAMPLE_SEED, sample_rate),
        }
    }

    /// Takes the metrics accumulated since the last call (the
    /// shard-to-frontend delta; see `Service::fleet_metrics`).
    pub fn drain_metrics(&self) -> dsa_trace::MetricsRegistry {
        self.telemetry.drain()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardQ> {
        match self.q.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Queue depth plus the in-flight session (the routing load metric).
    pub fn depth(&self) -> usize {
        self.lock().queue.len() + usize::from(self.busy.load(Ordering::Relaxed))
    }

    /// Whether the shard is currently killed.
    pub fn is_killed(&self) -> bool {
        self.lock().killed
    }

    /// Enqueues a session. `force` (migration traffic) pushes past the
    /// cap — admitted sessions are never shed. Returns the session back
    /// if the shard is killed, or full and not forced.
    pub fn push(&self, session: Session, force: bool) -> Result<usize, Session> {
        let mut q = self.lock();
        if q.killed || (!force && q.queue.len() >= self.cap) {
            return Err(session);
        }
        q.queue.push_back(session);
        let depth = q.queue.len();
        drop(q);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Marks the shard killed and drains its queue for migration. The
    /// in-flight session (if any) migrates when its current slice
    /// observes the flag.
    pub fn kill(&self) -> Vec<Session> {
        let mut q = self.lock();
        q.killed = true;
        let drained: Vec<Session> = q.queue.drain(..).collect();
        drop(q);
        self.cv.notify_all();
        drained
    }

    /// Clears the kill flag; the worker resumes.
    pub fn revive(&self) {
        self.lock().killed = false;
        self.cv.notify_all();
    }

    /// Blocks until a session is available (or shutdown). `None` means
    /// shut down.
    fn next_session(&self, svc: &ServiceInner) -> Option<Session> {
        let mut q = self.lock();
        loop {
            if svc.is_shutdown() {
                return None;
            }
            if !q.killed {
                if let Some(s) = q.queue.pop_front() {
                    return Some(s);
                }
            }
            q = match self.cv.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// The worker loop body: pull, execute, migrate-or-complete. Runs
    /// until service shutdown.
    pub fn run_worker(&self, svc: &ServiceInner) {
        while let Some(session) = self.next_session(svc) {
            self.busy.store(true, Ordering::Relaxed);
            let disposition = self.run_session(svc, session);
            self.busy.store(false, Ordering::Relaxed);
            if let Disposition::Migrate(s) = disposition {
                svc.migrate(s, self.id);
            }
        }
    }

    /// Executes one session to completion, checkpointing every
    /// `checkpoint_every` commits and bailing to migration if the
    /// shard is killed between slices.
    fn run_session(&self, svc: &ServiceInner, mut s: Session) -> Disposition {
        let workload = s.spec.workload.word();
        let name = workload.name();
        let deadline_ms = s.spec.deadline_ms;
        if deadline_ms > 0 && s.admitted_at.elapsed().as_millis() as u64 > deadline_ms {
            // Admission deadline: the job spent its budget queued; shed
            // it typed instead of running stale work.
            svc.emit(Event::JobShed { reason: ShedReason::Deadline, cycle: 0 });
            svc.complete_err(
                s,
                self.id,
                ServeError::Run(RunError::DeadlineExceeded { workload: name, deadline_ms }),
            );
            return Disposition::Completed;
        }
        // The one build of this job's workload on this shard.
        let state = SessionState::new(&s.spec, s.checkpoint.take(), s.resumed);
        let key = svc.content_key(&s.spec, state.program_digest());
        let use_store = s.spec.cacheable && s.spec.panic_slices == 0;
        if use_store {
            if let Some(hit) = svc.store().lookup(key) {
                svc.complete_ok(&s, self.id, hit.checksum, hit.checksum, hit.cycles, hit.committed, true, false);
                return Disposition::Completed;
            }
        }
        let mut panics_in_a_row = 0u32;
        loop {
            if self.is_killed() {
                // Crash model: the live engine dies with the shard;
                // only the checkpoint travels.
                state.crash();
                s.checkpoint = state.checkpoint();
                s.resumed = state.resumed();
                return Disposition::Migrate(s);
            }
            let budget = svc.checkpoint_every();
            let slice =
                isolate(name, || run_slice(&s.spec, &state, &s, self.id, budget, &self.telemetry));
            match slice {
                Ok(Slice::Done { checksum, cycles, committed, expected }) => {
                    let resumed = state.resumed();
                    if use_store && !resumed && s.migrations == 0 {
                        // Only uninterrupted runs publish: their cycle
                        // counts are canonical (resume resets the
                        // timing model; the architectural result never
                        // differs, but stored latency should).
                        svc.store().publish(
                            key,
                            run_cache::StoredResult { checksum, cycles, committed },
                        );
                    }
                    svc.complete_ok(&s, self.id, checksum, expected, cycles, committed, false, resumed);
                    return Disposition::Completed;
                }
                Ok(Slice::Paused { bytes, commits }) => {
                    panics_in_a_row = 0;
                    s.checkpoint = state.checkpoint();
                    s.resumed = state.resumed();
                    svc.emit(Event::SessionCheckpointed {
                        job: s.id,
                        shard: self.id,
                        bytes,
                        commits,
                        cycle: 0,
                    });
                }
                Err(e) => {
                    if let RunError::Panicked { .. } = e {
                        panics_in_a_row += 1;
                        svc.note_panic(workload);
                        if panics_in_a_row <= MAX_SLICE_RETRIES {
                            // The unwind dropped the live engine; the
                            // next slice restores from the checkpoint.
                            svc.note_retry(workload, panics_in_a_row);
                            continue;
                        }
                    }
                    s.checkpoint = state.checkpoint();
                    s.resumed = state.resumed();
                    svc.complete_err(s, self.id, ServeError::Run(e));
                    return Disposition::Completed;
                }
            }
        }
    }

    /// Drains everything still queued (shutdown path).
    pub fn drain(&self) -> Vec<Session> {
        self.lock().queue.drain(..).collect()
    }
}
