//! `serve`: a closed loop against an in-process `Service`.
//!
//! One client (the benchmark's main thread) builds a seed-derived job's
//! golden result locally, submits the job and waits for its reply
//! before sending the next, as `dsa-serve` callers do. Jobs draw from
//! 17 workloads × 6 systems at `Scale::Small` (see [`job_list`]); as
//! in `dsa_loadgen`'s default traffic, 40 % of them may be served from
//! the shared `ResultStore`. Chaos and injected crashes are off.
//!
//! The service runs one shard, so its two working threads (client and
//! shard) take turns and never keep both vCPUs of a small host busy.
//! Runs with two clients and two shards on a shared 2-vCPU host logged
//! 20-35 % steal, against about 1 % for one-client runs. Each job is
//! timed by the wall clock, as its caller waits for it: latency from
//! submit to reply, and the job as a whole from the start of its golden
//! build to the reply. The CPU time the client and the shard spent on
//! it is printed beside, as a diagnostic.

use std::time::Instant;

use dsa_bench::cache::Workload;
use dsa_bench::System;
use dsa_core::splitmix64;
use dsa_serve::{JobSpec, LoadConfig, Service, ServiceConfig};
use dsa_workloads::{micro, Scale, WorkloadId};

use crate::host::{other_threads, thread_cpu_us, CpuClock};
use crate::spans::{SpanLog, SpanTotals};
use crate::stats::{median, tail, PerKey, Ratio};
use crate::{Ctx, Outcome};

/// Jobs whose simulated counts are compared between runs; every run
/// completes at least these.
const PREFIX: u64 = 400;

/// Jobs a run may send per second of its window. The run stops at this
/// budget or at the window, whichever comes first, so the job list and
/// the benchmark's own per-job samples take the same memory whatever
/// the service's speed.
const JOBS_PER_S: f64 = 800.0;

/// Of every ten consecutive appearances of a job kind, how many may use
/// the result store: the cacheable share of `dsa_loadgen`'s default
/// traffic (`100 - fresh_pct` percent, 4 of 10).
fn cacheable_of_ten() -> u64 {
    (100 - u64::from(LoadConfig::default().fresh_pct)) / 10
}

const SYSTEMS: [System; 6] = [
    System::Original,
    System::AutoVec,
    System::HandVec,
    System::DsaOriginal,
    System::DsaExtended,
    System::DsaFull,
];

/// The first `n` jobs of the seed's job list. The list is a sequence of
/// blocks, each holding every (workload, system) kind once in a
/// seed-shuffled order, and a kind may use the result store in exactly
/// [`cacheable_of_ten`] of every 10 consecutive blocks, at a
/// seed-derived phase. So every run sends the same mix and the seed
/// decides only its order: a p99 drawn from a random mix moved with how
/// many of the slowest kinds the draw happened to hold.
fn job_list(seed: u64, n: u64) -> Vec<JobSpec> {
    let kinds: Vec<(Workload, System)> = WorkloadId::all()
        .into_iter()
        .map(Workload::App)
        .chain(micro::Micro::all().into_iter().map(Workload::Micro))
        .flat_map(|w| SYSTEMS.into_iter().map(move |s| (w, s)))
        .collect();
    let cacheable_of_ten = cacheable_of_ten();
    let mut rng = seed ^ 0x5e77_e0b5_1157_0001;
    let phase: Vec<u64> = kinds.iter().map(|_| splitmix64(&mut rng) % 10).collect();
    let mut jobs = Vec::with_capacity(n as usize);
    let mut block = 0;
    while (jobs.len() as u64) < n {
        let mut order: Vec<usize> = (0..kinds.len()).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, (splitmix64(&mut rng) % (k as u64 + 1)) as usize);
        }
        let room = n as usize - jobs.len();
        jobs.extend(order.into_iter().take(room).map(|k| JobSpec {
            workload: kinds[k].0,
            system: kinds[k].1,
            scale: Scale::Small,
            deadline_ms: 0,
            cacheable: (block + phase[k]) % 10 < cacheable_of_ten,
            panic_slices: 0,
        }));
        block += 1;
    }
    jobs
}

/// Kernel thread ids of the live service's `n` shard threads: waits
/// until exactly `n` threads besides the main one are listed.
fn shard_threads(n: usize) -> Vec<i32> {
    let start = Instant::now();
    loop {
        let tids = other_threads();
        if tids.len() == n {
            return tids;
        }
        assert!(
            start.elapsed().as_secs() < 5,
            "expected {n} shard threads, found {tids:?}"
        );
        std::thread::yield_now();
    }
}

/// Per-layer wall-clock sums over the run, µs.
#[derive(Default)]
struct LayerSums {
    build_us: f64,
    submit_us: f64,
    hit_us: f64,
    miss_us: f64,
    hits: u64,
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx) -> Outcome {
    let cfg = ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    };
    let mut out = Outcome::default();
    let mut log = SpanLog::new(ctx.origin);
    // Set-up: the seed-derived job list (the run's inputs), then the
    // service.
    let budget = PREFIX.max((ctx.seconds * JOBS_PER_S) as u64);
    let jobs = job_list(ctx.seed, budget);
    let svc = if ctx.traced {
        log.leaf("serve.start", 0, || Service::start(cfg)).0
    } else {
        Service::start(cfg)
    };
    let shards: Vec<CpuClock> = shard_threads(cfg.shards as usize)
        .into_iter()
        .map(CpuClock::of_thread)
        .collect();
    let shard_us = || shards.iter().map(|c| c.us()).sum::<f64>();
    out.setup_s = ctx.origin.elapsed().as_secs_f64();
    if ctx.setup_only {
        svc.shutdown();
        return out;
    }

    // Wall clock: whole jobs (ops_per_s) and submit to reply (latency,
    // mips_*). CPU time of the same spans, printed only.
    let mut cycle = PerKey::default();
    let mut reply = PerKey::default();
    let mut cpu_cycle = PerKey::default();
    let mut cpu_us = Vec::new();
    let mut wall_us = Vec::new();
    let mut sums = LayerSums::default();
    let (mut committed, mut cycles) = (0, 0);
    let measure = Instant::now();
    for (i, &spec) in jobs.iter().enumerate() {
        let op = i as u64;
        if op >= PREFIX && measure.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        out.attempted += 1;
        let root = ctx.traced.then(|| log.enter("serve.job", op));
        let (c0, w0) = (thread_cpu_us(), Instant::now());
        let golden = if ctx.traced {
            log.leaf("workloads.client_build", op, || {
                spec.workload.build(spec.system, spec.scale)
            })
            .0
        } else {
            spec.workload.build(spec.system, spec.scale)
        }
        .expected;
        let (c1, s1, w1) = (thread_cpu_us(), shard_us(), Instant::now());
        let submitted = if ctx.traced {
            log.leaf("serve.submit", op, || svc.submit(spec)).0
        } else {
            svc.submit(spec)
        };
        let w2 = Instant::now();
        let reply_msg = submitted.map(|(_, rx)| {
            if ctx.traced {
                log.leaf("serve.reply", op, || rx.recv()).0
            } else {
                rx.recv()
            }
        });
        let (w3, c3, s3) = (Instant::now(), thread_cpu_us(), shard_us());
        if let Some(r) = root {
            log.exit(r);
        }
        let name = format!("{} / {:?}", spec.workload.describe(), spec.system);
        match reply_msg {
            Ok(Ok(Ok(o))) if o.checksum == golden && o.expected == golden => {
                let us = |a: Instant, b: Instant| (b - a).as_nanos() as f64 / 1e3;
                let reply_us = us(w1, w3);
                let class = match (o.cache_hit, spec.system.dsa_config().is_some()) {
                    (true, _) => "hit",
                    (false, true) => "dsa",
                    (false, false) => "base",
                };
                let key = format!("{name} {class}");
                cycle.record(&key, class, us(w0, w3), o.committed);
                reply.record(&key, class, reply_us, o.committed);
                wall_us.push(reply_us);
                cpu_cycle.record(&key, class, (c3 - c0) + (s3 - s1), o.committed);
                cpu_us.push((c3 - c1) + (s3 - s1));
                sums.build_us += us(w0, w1);
                sums.submit_us += us(w1, w2);
                if o.cache_hit {
                    sums.hits += 1;
                    sums.hit_us += reply_us;
                } else {
                    sums.miss_us += reply_us;
                }
                if op < PREFIX {
                    committed += o.committed;
                    cycles += o.cycles;
                }
            }
            Ok(Ok(Ok(o))) => out.fail(format!(
                "job {i} ({name}): checksum {:#x}, service golden {:#x}, local golden {golden:#x}",
                o.checksum, o.expected
            )),
            Ok(Ok(Err(e))) => out.fail(format!("job {i} ({name}): error reply: {e}")),
            Ok(Err(_)) => out.fail(format!("job {i} ({name}): lost, no reply")),
            Err(e) => out.fail(format!("job {i} ({name}): refused: {e}")),
        }
    }
    let stats = svc.stats();
    svc.shutdown();
    out.counts.insert("sim.committed".into(), committed);
    out.counts.insert("sim.cycles".into(), cycles);

    let replied = wall_us.len() as u64;
    out.latency_us = reply.key_medians();
    out.ops_per_s = cycle.ops_per_s();
    out.mips_dsa = reply.mips("dsa").unwrap_or(0.0);
    out.mips_base = reply.mips("base").unwrap_or(0.0);
    out.notes.push(format!(
        "serve: closed loop, 1 client x {} shard(s), {replied} replies over {} job kinds; \
         ops_per_s = jobs / sum of per-kind median wall time (golden build, submit, reply)",
        shards.len(),
        cycle.keys()
    ));
    let wall_tail = tail(&wall_us).map_or("-".into(), |t| t.describe("us"));
    out.notes.push(format!(
        "serve latency: each reply counted at its job kind's median submit-to-reply wall time; \
         raw samples, stalls included, not gated: p50 {:.1} us, {wall_tail}",
        median(&wall_us).unwrap_or(0.0)
    ));
    let cpu_tail = tail(&cpu_us).map_or("-".into(), |t| t.describe("us"));
    out.notes.push(format!(
        "serve CPU time (client + shard), not gated: {:.3} jobs/s from per-kind medians; \
         submit to reply p50 {:.1} us, {cpu_tail}",
        cpu_cycle.ops_per_s(),
        median(&cpu_us).unwrap_or(0.0)
    ));
    out.notes.push(format!(
        "store hits among replies = {}",
        Ratio {
            part: sums.hits,
            base: replied
        }
        .describe("hits", "replied jobs")
    ));
    if ctx.traced {
        let start = log
            .summary()
            .get("serve.start")
            .map_or(0.0, SpanTotals::mean_us);
        let per = |total: f64, n: u64| if n > 0 { total / n as f64 } else { 0.0 };
        let l = &mut out.layers;
        l.insert("serve.start_ms".into(), start / 1e3);
        l.insert(
            "workloads.client_build_us".into(),
            per(sums.build_us, replied),
        );
        l.insert("serve.submit_us".into(), per(sums.submit_us, replied));
        l.insert("serve.reply_us.hit".into(), per(sums.hit_us, sums.hits));
        l.insert(
            "serve.reply_us.miss".into(),
            per(sums.miss_us, replied - sums.hits),
        );
        l.insert("serve.checkpoints".into(), stats.checkpoints as f64);
        l.insert("serve.sheds".into(), stats.shed as f64);
        l.insert("serve.failed".into(), stats.failed as f64);
        out.spans = Some(log);
    }
    let lookups = stats.store.hits + stats.store.misses;
    out.ratio(
        "serve.store_hit_ratio",
        Ratio {
            part: stats.store.hits,
            base: lookups,
        },
        "hits",
        "store lookups",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn mix(jobs: &[JobSpec]) -> BTreeMap<String, (u32, u32)> {
        let mut m: BTreeMap<String, (u32, u32)> = BTreeMap::new();
        for j in jobs {
            let e = m
                .entry(format!("{:?}/{:?}", j.workload, j.system))
                .or_default();
            e.0 += 1;
            e.1 += u32::from(j.cacheable);
        }
        m
    }

    #[test]
    fn every_seed_sends_the_same_mix_in_its_own_order() {
        let a = job_list(1, 1020);
        let b = job_list(2, 1020);
        assert_eq!(a.len(), 1020);
        // Ten blocks: each of the 102 kinds ten times, four of them
        // cacheable (dsa_loadgen's 40 %), whatever the seed.
        let m = mix(&a);
        assert_eq!(m.len(), 102);
        assert!(m.values().all(|&c| c == (10, 4)), "{m:?}");
        assert_eq!(m, mix(&b));
        let order = |jobs: &[JobSpec]| {
            jobs.iter()
                .map(|j| format!("{:?}", j.workload))
                .collect::<Vec<_>>()
        };
        assert_ne!(order(&a), order(&b));
        assert_eq!(order(&a), order(&job_list(1, 1020)));
        assert_eq!(job_list(1, 7).len(), 7);
    }
}
