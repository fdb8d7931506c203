//! Crash-isolated supervision for the parallel experiment harness.
//!
//! `RunCache::warm` fans dozens of multi-second simulations across OS
//! threads; one panicking worker used to take the whole process (and
//! every already-computed result) with it. The [`Supervisor`] wraps
//! each cached run in a crash boundary and a small reliability policy:
//!
//! - **isolation** — the run executes under
//!   [`std::panic::catch_unwind`]; a panic is converted into
//!   [`RunError::Panicked`] instead of unwinding through the pool.
//!   `RunCache`'s memoization slot stays empty when its init closure
//!   panics, so a retry genuinely re-simulates.
//! - **deadlines** — wall-clock per-run deadlines, checked post-hoc
//!   (threads can't be killed): a run that overruns is discarded and
//!   reported as [`RunError::DeadlineExceeded`]. A successful re-run
//!   of the same key is a cache hit and lands well inside the deadline.
//! - **bounded retry** — only *transient* failures (panic, deadline)
//!   are retried, with exponential backoff plus decorrelated jitter
//!   (seeded per supervisor, so shards retrying a shared failure don't
//!   retry in lockstep); deterministic errors (wrong result, watchdog,
//!   oracle mismatch) are memoized by the cache and fail fast.
//! - **circuit breaker** — per-workload state machine
//!   closed → open → half-open: consecutive failures past the threshold
//!   open the breaker; after a cooldown exactly one probe call is
//!   admitted (half-open); a successful probe closes the breaker, a
//!   failed probe re-opens it with a doubled (capped) cooldown. While
//!   open, calls are refused ([`RunError::BreakerOpen`]) without
//!   simulating.
//!
//! Every transition is emitted as a typed [`dsa_trace::Event`]
//! (`supervisor-retry`, `worker-panicked`, `deadline-exceeded`,
//! `breaker-open`, `breaker-half-open`, `breaker-closed`) through an
//! attachable sink, so `trace_query` can account for supervision
//! alongside engine telemetry. These events live in the wall-clock
//! domain and carry `cycle: 0`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsa_core::splitmix64;
use dsa_trace::{Event, TraceSink};
use dsa_workloads::Scale;

use crate::cache::{RunCache, Workload};
use crate::{RunError, System};

/// Reliability policy for supervised runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Per-run wall-clock deadline in milliseconds; `0` disables the
    /// deadline.
    pub deadline_ms: u64,
    /// Extra attempts after the first, for transient failures only.
    pub max_retries: u32,
    /// Backoff before retry `n` is drawn from the exponential window
    /// `backoff_base_ms << (n-1)` (saturating at six doublings) with
    /// decorrelated jitter; see [`SupervisorPolicy::backoff_ms`].
    pub backoff_base_ms: u64,
    /// Consecutive failures of one workload that open its breaker.
    pub breaker_threshold: u32,
    /// Cooldown after the breaker opens before one half-open probe is
    /// admitted, in ms. A failed probe doubles the cooldown (capped at
    /// 64× this base).
    pub breaker_cooldown_ms: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            deadline_ms: 120_000,
            max_retries: 2,
            backoff_base_ms: 10,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1_000,
        }
    }
}

impl SupervisorPolicy {
    /// Backoff before retry attempt `attempt` (1-based), in ms:
    /// uniformly drawn from the upper half of the exponential window
    /// `[window/2, window]` where `window = backoff_base_ms << (n-1)`
    /// saturates at six doublings. The draw is a pure function of
    /// `(salt, attempt)` — deterministic under test, but different
    /// salts (shard ids) decorrelate, so shards retrying one shared
    /// failure spread out instead of hammering it in lockstep.
    pub fn backoff_ms(&self, attempt: u32, salt: u64) -> u64 {
        let window = self.backoff_base_ms << attempt.saturating_sub(1).min(6);
        if window <= 1 {
            return window;
        }
        let mut s = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(attempt) << 32);
        let r = splitmix64(&mut s);
        let half = window / 2;
        half + r % (window - half + 1)
    }
}

/// Externally visible circuit-breaker state for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls are refused until the cooldown elapses.
    Open,
    /// One probe call is in flight; everything else is refused.
    HalfOpen,
}

/// A snapshot of one workload's breaker, for health reporting and
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerView {
    /// Current state (a cooled-down `Open` still reads `Open` until the
    /// next call converts it into a probe).
    pub state: BreakerState,
    /// Cooldown in force (0 while closed).
    pub cooldown_ms: u64,
    /// Consecutive failures counted so far (0 unless closed).
    pub consecutive_failures: u32,
}

/// Counters describing everything the supervisor saw — the stderr
/// summary of `all_experiments` and the soak report both print this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Supervised run requests.
    pub runs: u64,
    /// Individual attempts (≥ runs when retries happened).
    pub attempts: u64,
    /// Runs that returned a result.
    pub successes: u64,
    /// Runs that ultimately failed.
    pub failures: u64,
    /// Retries performed.
    pub retries: u64,
    /// Panics caught at the crash boundary.
    pub panics: u64,
    /// Deadline overruns observed.
    pub deadline_overruns: u64,
    /// Breaker-open transitions (including re-opens from failed probes).
    pub breakers_opened: u64,
    /// Runs refused because a breaker was already open.
    pub breaker_refusals: u64,
    /// Half-open probes admitted after a cooldown.
    pub breaker_probes: u64,
    /// Breakers closed again by a successful probe.
    pub breakers_closed: u64,
}

impl std::fmt::Display for SupervisorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "supervision: {}/{} runs ok ({} attempts, {} retries, {} panics caught, \
             {} deadline overruns, {} breakers opened, {} refused, {} probes, {} re-closed)",
            self.successes,
            self.runs,
            self.attempts,
            self.retries,
            self.panics,
            self.deadline_overruns,
            self.breakers_opened,
            self.breaker_refusals,
            self.breaker_probes,
            self.breakers_closed,
        )
    }
}

/// FNV-1a of a workload name, mixed into the backoff salt so distinct
/// workloads on one supervisor decorrelate too.
fn fnv(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-workload breaker state machine; see the module docs.
#[derive(Debug, Clone, Copy)]
enum Breaker {
    Closed { fails: u32 },
    Open { since: Instant, cooldown_ms: u64 },
    HalfOpen { cooldown_ms: u64 },
}

/// Shared supervisor state: breaker machines, report, event sink.
struct SupInner {
    breaker: HashMap<&'static str, Breaker>,
    report: SupervisorReport,
    sink: Option<Box<dyn TraceSink + Send>>,
}

/// Crash-isolating front-end to a [`RunCache`]; see the module docs.
pub struct Supervisor<'c> {
    cache: &'c RunCache,
    policy: SupervisorPolicy,
    /// Jitter seed mixed into every backoff draw; see
    /// [`Supervisor::with_salt`].
    salt: u64,
    inner: Mutex<SupInner>,
}

impl<'c> Supervisor<'c> {
    /// A supervisor over `cache` with `policy`.
    pub fn new(cache: &'c RunCache, policy: SupervisorPolicy) -> Supervisor<'c> {
        Supervisor {
            cache,
            policy,
            salt: 0,
            inner: Mutex::new(SupInner {
                breaker: HashMap::new(),
                report: SupervisorReport::default(),
                sink: None,
            }),
        }
    }

    /// Sets the jitter salt (e.g. a shard id) so co-located supervisors
    /// retrying the same failure draw decorrelated backoff sequences.
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Supervisor<'c> {
        self.salt = salt;
        self
    }

    /// Routes supervision events into `sink` (e.g. a
    /// [`dsa_trace::Shared`] handle also fed by the engine).
    pub fn attach_sink(&self, sink: impl TraceSink + Send + 'static) {
        self.lock().sink = Some(Box::new(sink));
    }

    /// The policy in force.
    pub fn policy(&self) -> SupervisorPolicy {
        self.policy
    }

    /// Snapshot of the counters so far.
    pub fn report(&self) -> SupervisorReport {
        self.lock().report
    }

    /// Snapshot of `name`'s breaker (a never-failed workload reads as
    /// closed with zero failures).
    pub fn breaker(&self, name: &str) -> BreakerView {
        match self.lock().breaker.get(name) {
            None | Some(Breaker::Closed { fails: 0 }) => BreakerView {
                state: BreakerState::Closed,
                cooldown_ms: 0,
                consecutive_failures: 0,
            },
            Some(&Breaker::Closed { fails }) => BreakerView {
                state: BreakerState::Closed,
                cooldown_ms: 0,
                consecutive_failures: fails,
            },
            Some(&Breaker::Open { cooldown_ms, .. }) => BreakerView {
                state: BreakerState::Open,
                cooldown_ms,
                consecutive_failures: 0,
            },
            Some(&Breaker::HalfOpen { cooldown_ms }) => BreakerView {
                state: BreakerState::HalfOpen,
                cooldown_ms,
                consecutive_failures: 0,
            },
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SupInner> {
        // A panicking holder would poison the lock; every hold below is
        // a few counter updates, so recover the data rather than
        // cascade the panic through the pool.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn emit(&self, ev: Event) {
        if let Some(sink) = self.lock().sink.as_mut() {
            sink.record(&ev);
        }
    }

    /// One supervised, memoized run (the supervised analogue of
    /// [`RunCache::get`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`RunError`] after retries are exhausted,
    /// [`RunError::Panicked`] / [`RunError::DeadlineExceeded`] for
    /// crash-boundary failures, or [`RunError::BreakerOpen`] without
    /// simulating when the workload's breaker is open.
    pub fn run(
        &self,
        workload: Workload,
        system: System,
        scale: Scale,
    ) -> Result<std::sync::Arc<crate::RunResult>, RunError> {
        let name = workload.describe();
        self.call(name, || self.cache.get(workload, system, scale))
    }

    /// The generic supervised call: crash boundary, deadline, retry,
    /// breaker — around an arbitrary fallible computation. `chaos` and
    /// the tests drive this directly.
    ///
    /// # Errors
    ///
    /// Same contract as [`Supervisor::run`].
    pub fn call<T>(
        &self,
        name: &'static str,
        f: impl Fn() -> Result<T, RunError>,
    ) -> Result<T, RunError> {
        let probe_cooldown = {
            let mut inner = self.lock();
            inner.report.runs += 1;
            let entry = inner.breaker.entry(name).or_insert(Breaker::Closed { fails: 0 });
            match *entry {
                Breaker::Closed { .. } => None,
                Breaker::Open { since, cooldown_ms } => {
                    if since.elapsed().as_millis() as u64 >= cooldown_ms {
                        // Cooldown elapsed: this call becomes the one
                        // half-open probe.
                        *entry = Breaker::HalfOpen { cooldown_ms };
                        inner.report.breaker_probes += 1;
                        Some(cooldown_ms)
                    } else {
                        inner.report.breaker_refusals += 1;
                        return Err(RunError::BreakerOpen { workload: name });
                    }
                }
                Breaker::HalfOpen { .. } => {
                    // A probe is already in flight; refuse until it
                    // resolves.
                    inner.report.breaker_refusals += 1;
                    return Err(RunError::BreakerOpen { workload: name });
                }
            }
        };
        if let Some(cooldown_ms) = probe_cooldown {
            self.emit(Event::BreakerHalfOpen { workload: name, cooldown_ms, cycle: 0 });
        }
        let mut attempt: u32 = 0;
        loop {
            self.lock().report.attempts += 1;
            let start = Instant::now();
            let unwound = catch_unwind(AssertUnwindSafe(&f));
            let elapsed_ms = start.elapsed().as_millis() as u64;
            let result = match unwound {
                Ok(r) => r,
                Err(_) => {
                    self.lock().report.panics += 1;
                    self.emit(Event::WorkerPanicked { workload: name, cycle: 0 });
                    Err(RunError::Panicked { workload: name })
                }
            };
            let result = match result {
                Ok(_) if self.policy.deadline_ms > 0 && elapsed_ms > self.policy.deadline_ms => {
                    self.lock().report.deadline_overruns += 1;
                    self.emit(Event::DeadlineExceeded {
                        workload: name,
                        deadline_ms: self.policy.deadline_ms,
                        cycle: 0,
                    });
                    Err(RunError::DeadlineExceeded {
                        workload: name,
                        deadline_ms: self.policy.deadline_ms,
                    })
                }
                other => other,
            };
            match result {
                Ok(v) => {
                    let reclosed = {
                        let mut inner = self.lock();
                        inner.report.successes += 1;
                        let entry =
                            inner.breaker.entry(name).or_insert(Breaker::Closed { fails: 0 });
                        let was_half_open = matches!(*entry, Breaker::HalfOpen { .. });
                        *entry = Breaker::Closed { fails: 0 };
                        if was_half_open {
                            inner.report.breakers_closed += 1;
                        }
                        was_half_open
                    };
                    if reclosed {
                        self.emit(Event::BreakerClosed { workload: name, cycle: 0 });
                    }
                    return Ok(v);
                }
                Err(e) => {
                    self.note_failure(name);
                    let transient = matches!(
                        e,
                        RunError::Panicked { .. } | RunError::DeadlineExceeded { .. }
                    );
                    if !transient || attempt >= self.policy.max_retries {
                        self.lock().report.failures += 1;
                        return Err(e);
                    }
                    attempt += 1;
                    let backoff = self.policy.backoff_ms(attempt, self.salt ^ fnv(name));
                    self.lock().report.retries += 1;
                    self.emit(Event::SupervisorRetry {
                        workload: name,
                        attempt,
                        backoff_ms: backoff,
                        cycle: 0,
                    });
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
        }
    }

    /// Records one failed attempt against `name`'s breaker: counts
    /// toward the threshold while closed (emitting `breaker-open`
    /// exactly at the crossing), re-opens with a doubled cooldown when
    /// the failure was a half-open probe.
    fn note_failure(&self, name: &'static str) {
        let opened = {
            let mut inner = self.lock();
            let threshold = self.policy.breaker_threshold;
            let base_cooldown = self.policy.breaker_cooldown_ms;
            let entry = inner.breaker.entry(name).or_insert(Breaker::Closed { fails: 0 });
            match *entry {
                Breaker::Closed { fails } => {
                    let fails = fails + 1;
                    if fails >= threshold {
                        *entry =
                            Breaker::Open { since: Instant::now(), cooldown_ms: base_cooldown };
                        inner.report.breakers_opened += 1;
                        Some(fails)
                    } else {
                        *entry = Breaker::Closed { fails };
                        None
                    }
                }
                Breaker::HalfOpen { cooldown_ms } => {
                    // Failed probe: re-open, doubling the cooldown up to
                    // 64× the policy base.
                    let doubled =
                        cooldown_ms.saturating_mul(2).min(base_cooldown.saturating_mul(64));
                    *entry = Breaker::Open { since: Instant::now(), cooldown_ms: doubled };
                    inner.report.breakers_opened += 1;
                    Some(1)
                }
                // Already open (a concurrent admit raced the crossing):
                // leave the open state and its clock untouched.
                Breaker::Open { .. } => None,
            }
        };
        if let Some(failures) = opened {
            self.emit(Event::BreakerOpen { workload: name, failures, cycle: 0 });
        }
    }

    /// Supervised grid warm-up: like [`RunCache::warm`], but each
    /// simulation runs inside the crash boundary, so a panicking or
    /// overrunning combo is retried/refused per policy instead of
    /// aborting the pool. Failures stay memoized for the figure that
    /// requests them to report.
    pub fn warm(&self, combos: &[(Workload, System)], scale: Scale, jobs: usize) {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.clamp(1, combos.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(workload, system)) = combos.get(i) else { break };
                    let _ = self.run(workload, system, scale);
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use dsa_trace::{Collector, Shared};
    use dsa_workloads::WorkloadId;

    fn quiet_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            deadline_ms: 0,
            max_retries: 2,
            backoff_base_ms: 0,
            breaker_threshold: 3,
            // Long cooldown: open breakers stay refusing for the whole
            // test unless a test opts into the half-open path.
            breaker_cooldown_ms: 60_000,
        }
    }

    #[test]
    fn successful_run_flows_through() {
        let cache = RunCache::new();
        let sup = Supervisor::new(&cache, quiet_policy());
        let r = sup
            .run(Workload::App(WorkloadId::RgbGray), System::Original, Scale::Small)
            .expect("runs");
        assert!(r.cycles() > 0);
        let rep = sup.report();
        assert_eq!((rep.runs, rep.successes, rep.failures), (1, 1, 0));
    }

    #[test]
    fn panic_is_caught_retried_and_reported() {
        let cache = RunCache::new();
        let sup = Supervisor::new(&cache, quiet_policy());
        let sink = Shared::new(Collector::new());
        sup.attach_sink(sink.clone());
        let calls = AtomicU32::new(0);
        // Panics twice, then succeeds — inside the retry budget.
        let out = sup.call("flaky", || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("injected worker crash");
            }
            Ok(7u32)
        });
        assert_eq!(out, Ok(7));
        let rep = sup.report();
        assert_eq!((rep.panics, rep.retries, rep.successes), (2, 2, 1));
        let names: Vec<&str> = sink.with(|c| c.events.iter().map(|e| e.type_name()).collect());
        assert_eq!(
            names,
            ["worker-panicked", "supervisor-retry", "worker-panicked", "supervisor-retry"]
        );
    }

    #[test]
    fn deterministic_errors_fail_fast_without_retry() {
        let cache = RunCache::new();
        let sup = Supervisor::new(&cache, quiet_policy());
        let calls = AtomicU32::new(0);
        let out: Result<(), RunError> = sup.call("bad", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(RunError::WrongResult { system: System::DsaFull, got: 1, want: 2 })
        });
        assert!(matches!(out, Err(RunError::WrongResult { .. })));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry for deterministic failure");
        assert_eq!(sup.report().retries, 0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_refuses() {
        let cache = RunCache::new();
        let sup = Supervisor::new(&cache, quiet_policy());
        let sink = Shared::new(Collector::new());
        sup.attach_sink(sink.clone());
        for _ in 0..3 {
            let _ = sup.call::<()>("sick", || {
                Err(RunError::WrongResult { system: System::DsaFull, got: 0, want: 1 })
            });
        }
        // Breaker is now open: the next call is refused without running.
        let calls = AtomicU32::new(0);
        let out = sup.call("sick", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(matches!(out, Err(RunError::BreakerOpen { workload: "sick" })));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "refused runs must not execute");
        let rep = sup.report();
        assert_eq!((rep.breakers_opened, rep.breaker_refusals), (1, 1));
        assert!(sink.with(|c| c.events.iter().any(|e| e.type_name() == "breaker-open")));
    }

    #[test]
    fn exhausted_retries_surface_the_panic() {
        let cache = RunCache::new();
        let policy = SupervisorPolicy { max_retries: 1, ..quiet_policy() };
        let sup = Supervisor::new(&cache, policy);
        let out: Result<(), RunError> = sup.call("doomed", || panic!("always"));
        assert!(matches!(out, Err(RunError::Panicked { workload: "doomed" })));
        let rep = sup.report();
        assert_eq!((rep.attempts, rep.panics, rep.failures), (2, 2, 1));
    }

    #[test]
    fn deadline_overrun_is_a_transient_failure() {
        let cache = RunCache::new();
        // 1 ms deadline; first attempt sleeps past it, the retry is fast.
        let policy = SupervisorPolicy { deadline_ms: 1, ..quiet_policy() };
        let sup = Supervisor::new(&cache, policy);
        let calls = AtomicU32::new(0);
        let out = sup.call("slow-once", || {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(1u8)
        });
        assert_eq!(out, Ok(1));
        let rep = sup.report();
        assert_eq!((rep.deadline_overruns, rep.retries, rep.successes), (1, 1, 1));
    }

    #[test]
    fn backoff_jitters_within_the_doubling_window() {
        let p = SupervisorPolicy { backoff_base_ms: 10, ..SupervisorPolicy::default() };
        for salt in [0u64, 1, 2, 0xdead_beef] {
            for attempt in 1..=12u32 {
                let window = 10u64 << (attempt - 1).min(6);
                let b = p.backoff_ms(attempt, salt);
                assert!(
                    b >= window / 2 && b <= window,
                    "attempt {attempt} salt {salt}: {b} outside [{}, {window}]",
                    window / 2
                );
            }
        }
        // Deterministic: same (salt, attempt) → same draw.
        assert_eq!(p.backoff_ms(3, 7), p.backoff_ms(3, 7));
        // The saturation cap still binds: attempt 99 stays in the
        // six-doublings window.
        assert!(p.backoff_ms(99, 5) <= 640);
        // Zero-base policies (quiet tests) stay exactly zero.
        let quiet = SupervisorPolicy { backoff_base_ms: 0, ..SupervisorPolicy::default() };
        assert_eq!(quiet.backoff_ms(5, 9), 0);
    }

    #[test]
    fn different_shard_salts_decorrelate_backoff_sequences() {
        let p = SupervisorPolicy { backoff_base_ms: 100, ..SupervisorPolicy::default() };
        let seq = |salt: u64| (1..=8u32).map(|a| p.backoff_ms(a, salt)).collect::<Vec<_>>();
        assert_ne!(seq(1), seq(2), "shards with different ids must not retry in lockstep");
        assert_eq!(seq(1), seq(1), "each shard's sequence is deterministic");
        let cap = 100u64 << 6;
        assert!(seq(1).iter().chain(seq(2).iter()).all(|&b| b <= cap));
    }

    #[test]
    fn breaker_full_cycle_closed_open_half_open_closed() {
        let cache = RunCache::new();
        // Cooldown 0: the very next call after opening is the probe.
        let policy =
            SupervisorPolicy { breaker_threshold: 2, breaker_cooldown_ms: 0, ..quiet_policy() };
        let sup = Supervisor::new(&cache, policy);
        let sink = Shared::new(Collector::new());
        sup.attach_sink(sink.clone());
        assert_eq!(sup.breaker("cyc").state, BreakerState::Closed);
        for _ in 0..2 {
            let _ = sup.call::<()>("cyc", || {
                Err(RunError::WrongResult { system: System::DsaFull, got: 0, want: 1 })
            });
        }
        assert_eq!(sup.breaker("cyc").state, BreakerState::Open);
        // Probe admitted, succeeds → breaker closes again.
        let out = sup.call("cyc", || Ok(1u8));
        assert_eq!(out, Ok(1));
        assert_eq!(sup.breaker("cyc").state, BreakerState::Closed);
        let rep = sup.report();
        assert_eq!((rep.breakers_opened, rep.breaker_probes, rep.breakers_closed), (1, 1, 1));
        let names: Vec<&str> = sink.with(|c| c.events.iter().map(|e| e.type_name()).collect());
        assert_eq!(names, ["breaker-open", "breaker-half-open", "breaker-closed"]);
    }

    #[test]
    fn failed_probe_reopens_with_doubled_cooldown() {
        let cache = RunCache::new();
        let policy =
            SupervisorPolicy { breaker_threshold: 1, breaker_cooldown_ms: 20, ..quiet_policy() };
        let sup = Supervisor::new(&cache, policy);
        let bad = || -> Result<(), RunError> {
            Err(RunError::WrongResult { system: System::DsaFull, got: 0, want: 1 })
        };
        let _ = sup.call("flap", bad);
        let view = sup.breaker("flap");
        assert_eq!((view.state, view.cooldown_ms), (BreakerState::Open, 20));
        // Inside the cooldown: refused without executing.
        let calls = AtomicU32::new(0);
        let out = sup.call("flap", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(matches!(out, Err(RunError::BreakerOpen { .. })));
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // Past the cooldown: the probe runs — and fails, doubling it.
        std::thread::sleep(Duration::from_millis(30));
        let _ = sup.call("flap", bad);
        let view = sup.breaker("flap");
        assert_eq!((view.state, view.cooldown_ms), (BreakerState::Open, 40));
        let rep = sup.report();
        assert_eq!((rep.breakers_opened, rep.breaker_probes, rep.breakers_closed), (2, 1, 0));
        assert_eq!(rep.breaker_refusals, 1);
    }

    #[test]
    fn concurrent_calls_do_not_lose_or_double_count() {
        // Satellite: SupervisorReport counters under concurrency. Each
        // call panics on its first attempt and succeeds on the retry;
        // totals must balance exactly — no lost or double-counted
        // retries/panics/attempts.
        let cache = RunCache::new();
        let policy =
            SupervisorPolicy { max_retries: 1, breaker_threshold: 1_000, ..quiet_policy() };
        let sup = Supervisor::new(&cache, policy);
        const THREADS: usize = 8;
        const PER: u32 = 25;
        static NAMES: [&str; 8] = ["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"];
        std::thread::scope(|s| {
            for name in NAMES.iter().take(THREADS) {
                let sup = &sup;
                s.spawn(move || {
                    for _ in 0..PER {
                        let tries = AtomicU32::new(0);
                        let out = sup.call(name, || {
                            if tries.fetch_add(1, Ordering::Relaxed) == 0 {
                                panic!("first attempt dies");
                            }
                            Ok(1u8)
                        });
                        assert_eq!(out, Ok(1));
                    }
                });
            }
        });
        let rep = sup.report();
        let total = THREADS as u64 * PER as u64;
        assert_eq!(rep.runs, total);
        assert_eq!(rep.successes, total);
        assert_eq!(rep.panics, total);
        assert_eq!(rep.retries, total);
        assert_eq!(rep.attempts, 2 * total);
        assert_eq!((rep.failures, rep.breakers_opened, rep.breaker_refusals), (0, 0, 0));
    }

    #[test]
    fn concurrent_failures_trip_the_breaker_exactly_once() {
        let cache = RunCache::new();
        let policy = SupervisorPolicy { max_retries: 0, breaker_threshold: 4, ..quiet_policy() };
        let sup = Supervisor::new(&cache, policy);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let sup = &sup;
                s.spawn(move || {
                    for _ in 0..10 {
                        let _ = sup.call::<()>("sick", || {
                            Err(RunError::WrongResult { system: System::DsaFull, got: 0, want: 1 })
                        });
                    }
                });
            }
        });
        let rep = sup.report();
        assert_eq!(rep.runs, 80);
        assert_eq!(rep.breakers_opened, 1, "the crossing must be counted exactly once");
        assert_eq!(rep.attempts, rep.failures, "deterministic failures never retry");
        assert_eq!(rep.attempts + rep.breaker_refusals, 80, "every run executed or was refused");
        assert_eq!(sup.breaker("sick").state, BreakerState::Open);
    }

    #[test]
    fn concurrent_warm_counts_every_combo_exactly_once() {
        // Satellite: multi-threaded warm() over a real grid — runs,
        // attempts, successes and the cache's simulation count must all
        // land exactly, with no lost or duplicated work.
        let cache = RunCache::new();
        let sup = Supervisor::new(&cache, quiet_policy());
        let combos: Vec<(Workload, System)> = [
            System::Original,
            System::AutoVec,
            System::HandVec,
            System::DsaOriginal,
            System::DsaExtended,
            System::DsaFull,
        ]
        .into_iter()
        .map(|s| (Workload::App(WorkloadId::RgbGray), s))
        .collect();
        sup.warm(&combos, Scale::Small, combos.len());
        let rep = sup.report();
        assert_eq!(
            (rep.runs, rep.attempts, rep.successes, rep.failures, rep.retries),
            (6, 6, 6, 0, 0)
        );
        assert_eq!(cache.stats().simulations, 6, "each combo simulated exactly once");
    }

    #[test]
    fn supervised_warm_fills_the_cache() {
        let cache = RunCache::new();
        let sup = Supervisor::new(&cache, quiet_policy());
        let combos = [
            (Workload::App(WorkloadId::RgbGray), System::Original),
            (Workload::App(WorkloadId::RgbGray), System::DsaFull),
        ];
        sup.warm(&combos, Scale::Small, 2);
        assert_eq!(cache.stats().simulations, 2);
        assert_eq!(sup.report().successes, 2);
    }
}
