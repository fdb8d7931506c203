//! The kill-and-recover load generator.
//!
//! Drives hundreds of concurrent client sessions against an in-process
//! [`Service`] while the chaos controller kills and revives shards on a
//! seed-derived schedule, then audits the run:
//!
//! * **zero lost sessions** — every admitted job completed;
//! * **bit-identity** — every completed checksum equals the workload's
//!   golden reference, computed *locally* (not trusted from the
//!   service);
//! * **resume validity** — for every (workload, system) combo that
//!   completed via a checkpoint resume, `check_resume` re-proves the
//!   snapshot round-trip bit-identical;
//! * latency percentiles, shed rate and cache hit rate for the report.
//!
//! Everything is derived from one seed (splitmix64 streams), so a
//! report is reproducible by rerunning with the same flags.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use dsa_core::{splitmix64, DifferentialOracle, OracleVerdict};
use dsa_workloads::{micro, Scale, WorkloadId};

use dsa_bench::cache::Workload;
use dsa_bench::{System, FUEL};

use crate::service::{ServeError, Service, ServiceConfig, ServiceStats};
use crate::session::{InjectedCrash, JobSpec};

/// Load-generation knobs; all deterministic given `seed`.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Total sessions to drive (the quota; `duration_ms` can extend it).
    pub sessions: u32,
    /// Concurrent client threads.
    pub clients: u32,
    /// Master seed for workload choice, fractions and the chaos
    /// schedule.
    pub seed: u64,
    /// Percent of jobs marked non-cacheable, bypassing the result store
    /// (keeps shards busy under chaos instead of serving hits).
    pub fresh_pct: u32,
    /// Percent of jobs carrying one injected worker crash.
    pub panic_pct: u32,
    /// Run the chaos controller (kill/revive cycles) during the load.
    pub chaos: bool,
    /// Chaos kill period in ms.
    pub chaos_period_ms: u64,
    /// How long a killed shard stays down, in ms.
    pub chaos_down_ms: u64,
    /// Minimum wall-clock runtime; clients keep cycling extra jobs
    /// until it elapses (0 = quota only).
    pub duration_ms: u64,
    /// Input scale for every job.
    pub scale: Scale,
    /// Service sizing.
    pub service: ServiceConfig,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            sessions: 200,
            clients: 64,
            seed: 1,
            fresh_pct: 60,
            panic_pct: 5,
            chaos: true,
            chaos_period_ms: 25,
            chaos_down_ms: 15,
            duration_ms: 0,
            scale: Scale::Small,
            service: ServiceConfig { queue_cap: 16, ..ServiceConfig::default() },
        }
    }
}

/// The audit and performance report of one load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Jobs the clients tried to submit (admissions + sheds).
    pub submitted: u64,
    /// Jobs past admission.
    pub admitted: u64,
    /// Admitted jobs that completed successfully.
    pub completed: u64,
    /// Admitted jobs that never completed, or replied with an error —
    /// must be 0 for a passing soak.
    pub lost: u64,
    /// Completed jobs whose checksum missed the locally computed golden
    /// reference — must be 0.
    pub mismatches: u64,
    /// Typed `Overloaded` sheds observed at submission.
    pub sheds: u64,
    /// Jobs served from the shared result store.
    pub cache_hits: u64,
    /// Sessions that completed after at least one migration.
    pub migrated_sessions: u64,
    /// Sessions that completed after at least one checkpoint resume.
    pub resumed_sessions: u64,
    /// Latency percentiles over completed jobs, in ms.
    pub p50_ms: u64,
    /// 99th percentile latency, ms.
    pub p99_ms: u64,
    /// Worst-case latency, ms.
    pub max_ms: u64,
    /// `check_resume` proofs run over migrated/resumed combos.
    pub resume_checks: u64,
    /// Proofs that failed — must be 0.
    pub resume_failures: u64,
    /// Wall-clock runtime of the whole load, ms.
    pub wall_ms: u64,
    /// Final service counters (slice panics and retries included).
    pub stats: ServiceStats,
    /// The merged fleet metrics rollup: every shard's sampled-telemetry
    /// delta plus the service's lifecycle metrics, merged (see
    /// `Service::fleet_metrics`).
    pub fleet: dsa_trace::MetricsRegistry,
}

impl LoadReport {
    /// Whether the soak met the acceptance bar.
    pub fn passed(&self) -> bool {
        self.lost == 0 && self.mismatches == 0 && self.resume_failures == 0 && self.completed > 0
    }

    /// A short human-readable digest of the fleet metrics rollup: the
    /// largest counters plus every cycle histogram's count, one per
    /// line — what the soak drivers print to stderr without drowning
    /// the report.
    pub fn fleet_summary(&self) -> String {
        if self.fleet.is_empty() {
            return "fleet metrics: (sampling off)".to_string();
        }
        let mut counters: Vec<(&str, u64)> = self.fleet.counters().collect();
        counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut out = String::from("fleet metrics (sampled):");
        for (k, v) in counters.iter().take(10) {
            out.push_str(&format!("\n  {k} = {v}"));
        }
        if counters.len() > 10 {
            out.push_str(&format!("\n  … {} more counters", counters.len() - 10));
        }
        for (k, h) in self.fleet.histograms() {
            out.push_str(&format!("\n  {k}: n={} min={} max={}", h.count(), h.min(), h.max()));
        }
        out
    }

    /// Renders the report as a single-line JSON artifact.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"dsa-loadgen/v2\",\"submitted\":{},\"admitted\":{},\"completed\":{},\
             \"lost\":{},\"mismatches\":{},\"sheds\":{},\"cache_hits\":{},\
             \"migrated_sessions\":{},\"resumed_sessions\":{},\"p50_ms\":{},\"p99_ms\":{},\
             \"max_ms\":{},\"resume_checks\":{},\"resume_failures\":{},\"wall_ms\":{},\
             \"service\":{{\"migrations\":{},\"checkpoints\":{},\"kills\":{},\"recoveries\":{},\
             \"store_hits\":{},\"store_misses\":{},\"panics\":{},\"retries\":{}}},\
             \"fleet\":{},\"passed\":{}}}",
            self.submitted,
            self.admitted,
            self.completed,
            self.lost,
            self.mismatches,
            self.sheds,
            self.cache_hits,
            self.migrated_sessions,
            self.resumed_sessions,
            self.p50_ms,
            self.p99_ms,
            self.max_ms,
            self.resume_checks,
            self.resume_failures,
            self.wall_ms,
            self.stats.migrations,
            self.stats.checkpoints,
            self.stats.kills,
            self.stats.recoveries,
            self.stats.store.hits,
            self.stats.store.misses,
            self.stats.panics,
            self.stats.retries,
            self.fleet.report_json(),
            self.passed(),
        )
    }
}

/// Suppresses the default panic-hook backtrace for deterministically
/// injected worker crashes (they are caught at the crash
/// boundary; printing hundreds of them would drown the report). All
/// other panics keep the previous hook's behavior.
pub fn silence_injected_crashes() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The job pool: all seven applications plus all ten loop-class
/// microkernels, across every system.
fn workload_pool() -> Vec<Workload> {
    WorkloadId::all()
        .into_iter()
        .map(Workload::App)
        .chain(micro::Micro::all().into_iter().map(Workload::Micro))
        .collect()
}

const SYSTEMS: [System; 6] = [
    System::Original,
    System::AutoVec,
    System::HandVec,
    System::DsaOriginal,
    System::DsaExtended,
    System::DsaFull,
];

/// Derives the `i`-th job of client `client` from the master seed.
fn job_for(cfg: &LoadConfig, pool: &[Workload], client: u32, i: u64) -> JobSpec {
    let mut s = cfg
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(client) << 32)
        .wrapping_add(i);
    let workload = pool[(splitmix64(&mut s) % pool.len() as u64) as usize];
    let system = SYSTEMS[(splitmix64(&mut s) % SYSTEMS.len() as u64) as usize];
    let cacheable = splitmix64(&mut s) % 100 >= u64::from(cfg.fresh_pct);
    let panic_slices = u32::from(splitmix64(&mut s) % 100 < u64::from(cfg.panic_pct));
    JobSpec {
        workload,
        system,
        scale: cfg.scale,
        deadline_ms: 0,
        cacheable,
        panic_slices,
    }
}

struct Audit {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    lost: AtomicU64,
    mismatches: AtomicU64,
    sheds: AtomicU64,
    cache_hits: AtomicU64,
    migrated: AtomicU64,
    resumed: AtomicU64,
    latencies: Mutex<Vec<u64>>,
    /// (workload, system) combos that completed via a resume — the
    /// end-of-run `check_resume` set.
    resumed_combos: Mutex<BTreeSet<(usize, usize)>>,
}

/// One client's job loop: submit (retrying typed sheds with seeded
/// jittered sleeps), await the outcome, audit it.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    cfg: &LoadConfig,
    pool: &[Workload],
    service: &Service,
    audit: &Audit,
    client: u32,
    quota: u64,
    deadline: Option<Instant>,
    next_extra: &AtomicU64,
) {
    let mut i = 0u64;
    loop {
        let due_more = i < quota;
        let overtime = deadline.is_some_and(|d| Instant::now() < d);
        if !due_more && !overtime {
            return;
        }
        // Overtime jobs draw fresh indices from a shared counter so two
        // clients never replay the same stream entry.
        let index = if due_more { i } else { u64::from(cfg.sessions) + next_extra.fetch_add(1, Ordering::Relaxed) };
        i += 1;
        let spec = job_for(cfg, pool, client, index);
        let expected = spec.workload.build(spec.system, spec.scale).expected;
        let mut backoff = cfg.seed ^ (u64::from(client) << 16) ^ index;
        let rx = loop {
            audit.submitted.fetch_add(1, Ordering::Relaxed);
            match service.submit(spec) {
                Ok((_, rx)) => break Some(rx),
                Err(ServeError::Overloaded { .. }) => {
                    audit.sheds.fetch_add(1, Ordering::Relaxed);
                    let ms = 1 + splitmix64(&mut backoff) % 5;
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Err(_) => break None,
            }
        };
        let Some(rx) = rx else { continue };
        audit.admitted.fetch_add(1, Ordering::Relaxed);
        match rx.recv() {
            Ok(Ok(out)) => {
                audit.completed.fetch_add(1, Ordering::Relaxed);
                if out.checksum != expected {
                    audit.mismatches.fetch_add(1, Ordering::Relaxed);
                }
                if out.cache_hit {
                    audit.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                if out.migrations > 0 {
                    audit.migrated.fetch_add(1, Ordering::Relaxed);
                }
                if out.resumed {
                    audit.resumed.fetch_add(1, Ordering::Relaxed);
                    let w = pool.iter().position(|p| *p == spec.workload).unwrap_or(0);
                    let sys = SYSTEMS.iter().position(|s| *s == spec.system).unwrap_or(0);
                    if let Ok(mut combos) = audit.resumed_combos.lock() {
                        combos.insert((w, sys));
                    }
                }
                if let Ok(mut lat) = audit.latencies.lock() {
                    lat.push(out.latency_ms);
                }
            }
            // An admitted job that error-replied or lost its channel is
            // a lost session — the thing the soak exists to catch.
            Ok(Err(_)) | Err(_) => {
                audit.lost.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn percentile(sorted: &[u64], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() - 1) * pct as usize / 100;
    sorted[rank]
}

/// Runs the full load-generation campaign; see the module docs.
pub fn run_loadgen(cfg: &LoadConfig) -> LoadReport {
    run_loadgen_traced(cfg, None)
}

/// [`run_loadgen`] with an optional trace sink attached to the service
/// for the whole campaign — how `dsa_loadgen --trace` captures a soak's
/// full event stream (JSONL or columnar, the sink's choice) while the
/// always-on sampler keeps filling the fleet metrics independently.
pub fn run_loadgen_traced(
    cfg: &LoadConfig,
    sink: Option<Box<dyn dsa_trace::TraceSink + Send>>,
) -> LoadReport {
    silence_injected_crashes();
    let started = Instant::now();
    let pool = workload_pool();
    let service = Service::start(cfg.service);
    if let Some(sink) = sink {
        service.attach_sink(sink);
    }
    if cfg.chaos {
        service.start_chaos(
            cfg.seed,
            Duration::from_millis(cfg.chaos_period_ms.max(1)),
            Duration::from_millis(cfg.chaos_down_ms.max(1)),
        );
    }
    let audit = Audit {
        submitted: AtomicU64::new(0),
        admitted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        lost: AtomicU64::new(0),
        mismatches: AtomicU64::new(0),
        sheds: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        migrated: AtomicU64::new(0),
        resumed: AtomicU64::new(0),
        latencies: Mutex::new(Vec::new()),
        resumed_combos: Mutex::new(BTreeSet::new()),
    };
    let deadline = (cfg.duration_ms > 0).then(|| started + Duration::from_millis(cfg.duration_ms));
    let clients = cfg.clients.max(1);
    let base_quota = u64::from(cfg.sessions / clients);
    let remainder = cfg.sessions % clients;
    let next_extra = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let quota = base_quota + u64::from(client < remainder);
            let (cfg, pool, service, audit, next_extra) =
                (&*cfg, &pool[..], &service, &audit, &next_extra);
            scope.spawn(move || {
                client_loop(cfg, pool, service, audit, client, quota, deadline, next_extra);
            });
        }
    });

    // Resume validity: re-prove the snapshot round-trip bit-identical
    // for every DSA combo that actually completed through a resume.
    let mut resume_checks = 0u64;
    let mut resume_failures = 0u64;
    let combos: Vec<(usize, usize)> = match audit.resumed_combos.lock() {
        Ok(c) => c.iter().copied().collect(),
        Err(poisoned) => poisoned.into_inner().iter().copied().collect(),
    };
    let oracle = DifferentialOracle::new(FUEL);
    let mut split_seed = cfg.seed ^ 0x7265_7375_6d65_6421; // "resume!"
    for (w, sys) in combos {
        let Some(config) = SYSTEMS[sys].dsa_config() else { continue };
        let built = pool[w].build(SYSTEMS[sys], cfg.scale);
        let split = 100 + splitmix64(&mut split_seed) % u64::from(cfg.service.checkpoint_every.max(2) as u32);
        let report = oracle.check_resume(
            &built.kernel.program,
            config,
            |m| (built.init)(m),
            split,
        );
        resume_checks += 1;
        if report.verdict != OracleVerdict::Match {
            resume_failures += 1;
        }
    }

    let stats = service.stats();
    let fleet = service.fleet_metrics();
    service.shutdown();
    let mut latencies = match audit.latencies.lock() {
        Ok(l) => l.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    };
    latencies.sort_unstable();
    LoadReport {
        submitted: audit.submitted.load(Ordering::Relaxed),
        admitted: audit.admitted.load(Ordering::Relaxed),
        completed: audit.completed.load(Ordering::Relaxed),
        lost: audit.lost.load(Ordering::Relaxed)
            + (audit.admitted.load(Ordering::Relaxed) - audit.completed.load(Ordering::Relaxed)
                - audit.lost.load(Ordering::Relaxed)),
        mismatches: audit.mismatches.load(Ordering::Relaxed),
        sheds: audit.sheds.load(Ordering::Relaxed),
        cache_hits: audit.cache_hits.load(Ordering::Relaxed),
        migrated_sessions: audit.migrated.load(Ordering::Relaxed),
        resumed_sessions: audit.resumed.load(Ordering::Relaxed),
        p50_ms: percentile(&latencies, 50),
        p99_ms: percentile(&latencies, 99),
        max_ms: latencies.last().copied().unwrap_or(0),
        resume_checks,
        resume_failures,
        wall_ms: started.elapsed().as_millis() as u64,
        stats,
        fleet,
    }
}
