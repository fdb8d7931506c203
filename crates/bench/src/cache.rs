//! Memoized, parallel experiment runs.
//!
//! The paper's figures overlap heavily: `a1_fig12_performance`,
//! `a2_fig16_extended`, `a3_fig8_performance`, `a3_fig9_energy` and both
//! latency tables all re-measure the same (workload × system) points at
//! [`Scale::Paper`]. A [`RunCache`] keys every measured run by
//! `(workload, system, scale)` — a system fixes its DSA configuration —
//! and simulates
//! each key exactly once per process; repeated requests return the
//! memoized [`RunResult`].
//!
//! [`RunCache::warm`] fans the whole grid out across OS threads before
//! any figure renders (the `DSA_JOBS` environment variable caps the
//! thread count). Runs are deterministic and independent, so the warmed
//! cache is bit-identical to one filled sequentially — the figures
//! render the same bytes either way, just without re-simulating.
//!
//! The thread pool is `std::thread::scope`-based: the workspace builds
//! fully offline and vendors no work-stealing runtime (rayon), so a
//! shared atomic work index over the combo list stands in for
//! `par_iter` — the grid is coarse (dozens of multi-second runs), where
//! work stealing would add nothing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dsa_trace::WorkloadName;
use dsa_workloads::{micro, Scale, WorkloadId};

use crate::{isolate, run_built, RunError, RunResult, System};

/// A cacheable workload: one of the paper's seven applications or one
/// of the loop-class microkernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A paper application (Figures 8/9/12/16, latency tables).
    App(WorkloadId),
    /// A loop-class microkernel (A3 Table 3).
    Micro(micro::Micro),
}

impl Workload {
    /// Builds the workload's kernel/init/golden bundle for `system` at
    /// `scale` (the service's shards and the cache both run these).
    pub fn build(self, system: System, scale: Scale) -> dsa_workloads::BuiltWorkload {
        match self {
            Workload::App(id) => dsa_workloads::build(id, system.variant(), scale),
            Workload::Micro(m) => micro::build(m, system.variant(), scale),
        }
    }

    /// Display name (figure vocabulary).
    pub fn describe(self) -> &'static str {
        self.word().name()
    }

    /// The display name as a trace word.
    pub fn word(self) -> WorkloadName {
        match self {
            Workload::App(id) => id.word(),
            Workload::Micro(m) => m.word(),
        }
    }

    /// Inverse of [`Workload::describe`]: resolves a display name back
    /// to the workload (forge workload artifacts and service job specs
    /// carry names).
    pub fn by_name(name: &str) -> Option<Workload> {
        let word = WorkloadName::from_name(name)?;
        let apps = WorkloadId::all().map(Workload::App);
        let micros = micro::Micro::all().map(Workload::Micro);
        apps.into_iter().chain(micros).find(|w| w.word() == word)
    }
}

/// The eight fixed workloads: every paper application plus the
/// `sentinel` microkernel. Forge's workload source, the resume oracle
/// and `perf_baseline` all run this set.
pub fn fixed_workloads() -> [Workload; 8] {
    let ids = WorkloadId::all();
    [
        Workload::App(ids[0]),
        Workload::App(ids[1]),
        Workload::App(ids[2]),
        Workload::App(ids[3]),
        Workload::App(ids[4]),
        Workload::App(ids[5]),
        Workload::App(ids[6]),
        Workload::Micro(micro::Micro::Sentinel),
    ]
}

/// Cache key: the exact inputs that determine a run's outcome. The
/// system fixes the DSA configuration ([`System::dsa_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    workload: Workload,
    system: System,
    scale: Scale,
}

/// Counters describing what the cache did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Simulations actually executed (one per distinct key).
    pub simulations: u64,
    /// Requests served from the cache without simulating.
    pub hits: u64,
}

/// Memoizing run table; see the module docs. Failed runs are memoized
/// too (`RunError` is `Copy`): a key that watchdogged, produced a wrong
/// result or panicked reports the same error to every requester instead
/// of re-simulating a known-bad combination. Each simulation runs
/// inside [`isolate`], so a panic becomes [`RunError::Panicked`] in the
/// slot rather than unwinding through the warm-up pool.
#[derive(Debug, Default)]
pub struct RunCache {
    slots: Mutex<HashMap<RunKey, Arc<Slot>>>,
    simulations: AtomicU64,
    hits: AtomicU64,
}

/// One memoization slot: filled exactly once with the run's outcome.
type Slot = OnceLock<Result<Arc<RunResult>, RunError>>;

impl RunCache {
    /// An empty cache.
    pub fn new() -> RunCache {
        RunCache::default()
    }

    /// Counters for reporting (`all_experiments` prints them).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            simulations: self.simulations.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// The memoized result for `(workload, system, scale)`, simulating
    /// on first request. Concurrent requests for the same key block on
    /// the single in-flight simulation instead of duplicating it.
    ///
    /// # Errors
    ///
    /// Returns the (memoized) [`RunError`] if the run failed.
    pub fn get(
        &self,
        workload: Workload,
        system: System,
        scale: Scale,
    ) -> Result<Arc<RunResult>, RunError> {
        self.fill(RunKey { workload, system, scale }, || {
            let w = workload.build(system, scale);
            run_built(&w, system).map(Arc::new)
        })
    }

    /// The memoized outcome for `key`, running `simulate` inside the
    /// crash boundary on first request.
    fn fill(
        &self,
        key: RunKey,
        simulate: impl FnOnce() -> Result<Arc<RunResult>, RunError>,
    ) -> Result<Arc<RunResult>, RunError> {
        let slot = {
            let mut slots = self.slots.lock().expect("run-cache poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut simulated = false;
        let result = slot.get_or_init(|| {
            simulated = true;
            self.simulations.fetch_add(1, Ordering::Relaxed);
            isolate(key.workload.describe(), simulate)
        });
        if !simulated {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Fills the cache for every combo, fanning the simulations out over
    /// `jobs` OS threads (clamped to at least one). Returns once every
    /// combo is resident; failures stay memoized for the figure that
    /// requests them to report.
    pub fn warm(&self, combos: &[(Workload, System)], scale: Scale, jobs: usize) {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.clamp(1, combos.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(workload, system)) = combos.get(i) else { break };
                    let _ = self.get(workload, system, scale);
                });
            }
        });
    }

    /// One-line degradation summary over every resident run: how many
    /// DSA runs silently fell back to scalar (and how many poisoned),
    /// so graceful degradation is observable instead of silent.
    pub fn degradation_summary(&self) -> String {
        let slots = self.slots.lock().expect("run-cache poisoned");
        let (mut runs, mut degraded_runs, mut degradations, mut poisoned, mut errors) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for slot in slots.values() {
            match slot.get() {
                Some(Ok(r)) => {
                    runs += 1;
                    if let Some(s) = &r.dsa {
                        if s.degradations > 0 {
                            degraded_runs += 1;
                        }
                        degradations += s.degradations;
                        poisoned += s.poison_events;
                    }
                }
                Some(Err(_)) => errors += 1,
                None => {}
            }
        }
        format!(
            "degradation summary: {degraded_runs}/{runs} runs degraded to scalar \
             ({degradations} rollbacks, {poisoned} poisoned, {errors} failed runs)"
        )
    }

    /// One [`crate::RunResult`]-stats line per resident DSA run
    /// (`"<workload> × <system>: <DsaStats one-liner>"`), sorted for
    /// stable output — the body of `all_experiments`' stderr telemetry
    /// page.
    pub fn run_summaries(&self) -> Vec<String> {
        let slots = self.slots.lock().expect("run-cache poisoned");
        let mut lines: Vec<String> = slots
            .iter()
            .filter_map(|(key, slot)| match slot.get() {
                Some(Ok(r)) => r.dsa.as_ref().map(|s| {
                    format!("{} x {}: {s}", key.workload.describe(), key.system.name())
                }),
                _ => None,
            })
            .collect();
        lines.sort();
        lines
    }

    /// Telemetry counters merged over every resident traced run, or
    /// `None` when no run carried metrics (tracing off — the default).
    pub fn merged_metrics(&self) -> Option<dsa_trace::MetricsRegistry> {
        let slots = self.slots.lock().expect("run-cache poisoned");
        let mut merged: Option<dsa_trace::MetricsRegistry> = None;
        for slot in slots.values() {
            if let Some(Ok(r)) = slot.get() {
                if let Some(m) = &r.metrics {
                    merged.get_or_insert_with(dsa_trace::MetricsRegistry::new).merge(m);
                }
            }
        }
        merged
    }
}

/// Content-addressed key for the shared [`ResultStore`]: identical jobs
/// from different clients collide on (program-text digest, DSA-config
/// fingerprint, scale) — not on workload *names* — so any two requests
/// that would simulate the same bytes share one stored result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentKey {
    /// [`dsa_isa::Program::content_hash`] of the kernel text.
    pub program: u64,
    /// [`dsa_core::DsaConfig::fingerprint`] of the DSA configuration (0
    /// without a DSA).
    pub config: u64,
    /// Input scale.
    pub scale: Scale,
}

/// The architectural outcome a stored run is reduced to — everything a
/// service client needs, small enough to share by `Arc` across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredResult {
    /// FNV-1a checksum of the output region (the golden-checked value).
    pub checksum: u64,
    /// Total core cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
}

/// Counters describing what a [`ResultStore`] did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a resident result.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Distinct keys resident.
    pub entries: u64,
}

/// `RunCache` promoted to a service primitive: a content-addressed
/// shared result store. Where [`RunCache`] memoizes whole
/// [`RunResult`]s per (workload, system, scale) inside one process's
/// figure pipeline, the store keys the *bytes that determine the
/// outcome* ([`ContentKey`]) and holds only the architectural result,
/// so identical jobs across service clients hit cache instead of
/// simulating. First publisher wins; runs are deterministic, so later
/// publishers are byte-identical anyway.
#[derive(Debug, Default)]
pub struct ResultStore {
    slots: Mutex<HashMap<ContentKey, Arc<StoredResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> ResultStore {
        ResultStore::default()
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, HashMap<ContentKey, Arc<StoredResult>>> {
        match self.slots.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The stored result for `key`, counting a hit or miss.
    pub fn lookup(&self, key: ContentKey) -> Option<Arc<StoredResult>> {
        let found = self.slots().get(&key).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Publishes a computed result under `key`, returning the resident
    /// copy (the first publisher's, under a concurrent race — runs are
    /// deterministic so the loser's bytes are identical).
    pub fn publish(&self, key: ContentKey, result: StoredResult) -> Arc<StoredResult> {
        Arc::clone(self.slots().entry(key).or_insert_with(|| Arc::new(result)))
    }

    /// Counters for reporting.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.slots().len() as u64,
        }
    }
}

/// The full (application × system) grid at one scale, plus the
/// microkernel runs `a3_table3_dsa_energy` needs — everything
/// `all_experiments` measures through the cache.
pub fn paper_grid() -> Vec<(Workload, System)> {
    let systems = [
        System::Original,
        System::AutoVec,
        System::HandVec,
        System::DsaOriginal,
        System::DsaExtended,
        System::DsaFull,
    ];
    let mut combos: Vec<(Workload, System)> = WorkloadId::all()
        .into_iter()
        .flat_map(|id| systems.into_iter().map(move |s| (Workload::App(id), s)))
        .collect();
    combos.extend(micro::Micro::all().into_iter().map(|m| (Workload::Micro(m), System::DsaFull)));
    combos
}

/// Worker threads for [`RunCache::warm`]: `DSA_JOBS` if set and
/// positive, else the machine's available parallelism.
pub fn jobs_from_env() -> usize {
    std::env::var("DSA_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide cache behind [`run_cached`] and [`run_micro_cached`].
pub fn global() -> &'static RunCache {
    static GLOBAL: OnceLock<RunCache> = OnceLock::new();
    GLOBAL.get_or_init(RunCache::new)
}

/// Memoized [`crate::run_system`]: each `(workload, system, scale)` is
/// simulated at most once per process.
///
/// # Errors
///
/// Returns the (memoized) [`RunError`] if the run failed.
pub fn run_cached(
    id: WorkloadId,
    system: System,
    scale: Scale,
) -> Result<Arc<RunResult>, RunError> {
    global().get(Workload::App(id), system, scale)
}

/// Memoized microkernel run (the micro analogue of [`run_cached`]).
///
/// # Errors
///
/// Returns the (memoized) [`RunError`] if the run failed.
pub fn run_micro_cached(
    m: micro::Micro,
    system: System,
    scale: Scale,
) -> Result<Arc<RunResult>, RunError> {
    global().get(Workload::Micro(m), system, scale)
}

// Compile-time guarantee that cached results may cross warm-up threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunCache>();
    assert_send_sync::<Arc<RunResult>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::DsaConfig;

    #[test]
    fn key_distinguishes_dsa_configs() {
        let orig = DsaConfig::original().fingerprint();
        let full = DsaConfig::full().fingerprint();
        assert_ne!(orig, full);
        let workload = Workload::App(WorkloadId::QSort);
        let scale = Scale::Small;
        assert_ne!(
            RunKey { workload, system: System::DsaOriginal, scale },
            RunKey { workload, system: System::DsaFull, scale },
        );
    }

    #[test]
    fn second_request_is_a_hit_and_shares_the_result() {
        let cache = RunCache::new();
        let a = cache
            .get(Workload::App(WorkloadId::RgbGray), System::Original, Scale::Small)
            .expect("runs");
        let b = cache
            .get(Workload::App(WorkloadId::RgbGray), System::Original, Scale::Small)
            .expect("runs");
        assert!(Arc::ptr_eq(&a, &b), "hit must return the memoized allocation");
        assert_eq!(cache.stats(), CacheStats { simulations: 1, hits: 1 });
        assert!(cache.degradation_summary().contains("0 poisoned"));
    }

    #[test]
    fn a_panicking_run_is_memoized_as_one_error() {
        let cache = RunCache::new();
        let workload = Workload::App(WorkloadId::QSort);
        let key = RunKey { workload, system: System::DsaFull, scale: Scale::Small };
        let crash = || -> Result<Arc<RunResult>, RunError> { panic!("injected simulator crash") };
        for _ in 0..2 {
            let got = cache.fill(key, crash).map(|_| ());
            assert_eq!(got, Err(RunError::Panicked { workload: "Q Sort" }));
        }
        assert_eq!(cache.stats(), CacheStats { simulations: 1, hits: 1 });
        let summary = cache.degradation_summary();
        assert!(summary.contains("(0 rollbacks, 0 poisoned, 1 failed runs)"), "{summary}");
    }

    #[test]
    fn jobs_env_parsing() {
        // Only checks the fallback path (mutating the environment would
        // race other tests).
        assert!(jobs_from_env() >= 1);
    }

    #[test]
    fn paper_grid_covers_every_figure_combo() {
        let grid = paper_grid();
        assert_eq!(grid.len(), 7 * 6 + 10);
        assert!(grid.contains(&(Workload::App(WorkloadId::Dijkstra), System::HandVec)));
        assert!(grid.contains(&(Workload::Micro(micro::Micro::all()[0]), System::DsaFull)));
    }

    #[test]
    fn by_name_inverts_describe_for_every_workload() {
        for id in WorkloadId::all() {
            assert_eq!(Workload::by_name(id.name()), Some(Workload::App(id)));
        }
        for m in micro::Micro::all() {
            assert_eq!(Workload::by_name(m.name()), Some(Workload::Micro(m)));
        }
        assert_eq!(Workload::by_name("no-such-workload"), None);
        // Every trace word names exactly one workload.
        for word in WorkloadName::ALL {
            assert_eq!(Workload::by_name(word.name()).map(Workload::word), Some(word));
        }
        assert_eq!(WorkloadId::all().len() + micro::Micro::all().len(), WorkloadName::ALL.len());
    }

    #[test]
    fn result_store_counts_hits_and_misses() {
        let store = ResultStore::new();
        let key = ContentKey { program: 1, config: 2, scale: Scale::Small };
        assert!(store.lookup(key).is_none());
        store.publish(key, StoredResult { checksum: 7, cycles: 100, committed: 50 });
        let got = store.lookup(key).expect("published");
        assert_eq!(got.checksum, 7);
        assert_eq!(store.stats(), StoreStats { hits: 1, misses: 1, entries: 1 });
    }

    #[test]
    fn result_store_first_publisher_wins() {
        let store = ResultStore::new();
        let key = ContentKey { program: 9, config: 0, scale: Scale::Paper };
        let first = store.publish(key, StoredResult { checksum: 1, cycles: 1, committed: 1 });
        // A raced second publish of the same key keeps the resident
        // copy (deterministic runs make the bytes identical anyway —
        // this just pins the allocation).
        let second = store.publish(key, StoredResult { checksum: 2, cycles: 2, committed: 2 });
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(second.checksum, 1);
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn result_store_distinguishes_program_config_and_scale() {
        let store = ResultStore::new();
        let base = ContentKey { program: 1, config: 1, scale: Scale::Small };
        let keys = [
            base,
            ContentKey { program: 2, ..base },
            ContentKey { config: 2, ..base },
            ContentKey { scale: Scale::Paper, ..base },
        ];
        for (i, k) in keys.iter().enumerate() {
            store.publish(*k, StoredResult { checksum: i as u64, cycles: 0, committed: 0 });
        }
        assert_eq!(store.stats().entries, 4);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(store.lookup(*k).expect("resident").checksum, i as u64);
        }
    }
}
