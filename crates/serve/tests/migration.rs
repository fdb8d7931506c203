//! Kill-mid-session migration with a fixed order of events.
//!
//! This file holds one test on purpose: it installs a process-wide
//! panic hook that parks the panicking shard worker, and no other
//! test's injected crashes may reach that hook.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dsa_serve::loadgen::silence_injected_crashes;
use dsa_serve::session::InjectedCrash;
use dsa_serve::{JobSpec, Service, ServiceConfig};

use dsa_bench::cache::Workload;
use dsa_bench::System;
use dsa_workloads::{micro, Scale};

fn micro_spec(index: usize, panic_slices: u32) -> JobSpec {
    JobSpec {
        workload: Workload::Micro(micro::Micro::all()[index % micro::Micro::all().len()]),
        system: System::DsaFull,
        scale: Scale::Small,
        deadline_ms: 0,
        cacheable: false,
        panic_slices,
    }
}

fn expected_of(spec: JobSpec) -> u64 {
    spec.workload.build(spec.system, spec.scale).expected
}

/// Deterministic kill-mid-session: pin all jobs to shard 0 (by killing
/// shard 1 first), hold shard 0's worker inside its first job while the
/// others queue behind it, then revive shard 1 and kill shard 0 before
/// releasing the worker. Every session must migrate to shard 1 — the
/// queued ones when the kill drains them, the in-flight one when its
/// crashed slice retries into the kill — and still produce golden
/// checksums.
///
/// The hold is the first job's injected crash: a panic hook parks the
/// worker on a barrier before the unwind, where it holds no service
/// lock, so the test thread can submit, revive and kill freely while
/// shard 0 can finish nothing.
#[test]
fn killed_shards_migrate_sessions_bit_identically() {
    silence_injected_crashes();
    let parked = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let armed = Arc::new(AtomicBool::new(true));
    {
        let (parked, release, armed) = (parked.clone(), release.clone(), armed.clone());
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info.payload().downcast_ref::<InjectedCrash>().is_some();
            if injected && armed.swap(false, Ordering::SeqCst) {
                parked.wait();
                release.wait();
            }
            quiet(info);
        }));
    }
    let service = Service::start(ServiceConfig {
        shards: 2,
        queue_cap: 64,
        checkpoint_every: 400,
        ..ServiceConfig::default()
    });
    assert!(service.kill_shard(1), "shard 1 killable while shard 0 is alive");

    let specs: Vec<JobSpec> = (0..6).map(|i| micro_spec(i, u32::from(i == 0))).collect();
    let expected: Vec<u64> = specs.iter().map(|&s| expected_of(s)).collect();
    let (_, first) = service.submit(specs[0]).expect("admits while shard 0 is alive");
    parked.wait(); // shard 0's worker is parked inside the first job
    let mut replies = vec![first];
    for &spec in &specs[1..] {
        let (_, rx) = service.submit(spec).expect("admits while shard 0 is alive");
        replies.push(rx);
    }
    assert!(service.revive_shard(1), "shard 1 revives");
    assert!(service.kill_shard(0), "shard 0 killable once 1 is back");
    release.wait();

    for (i, (want, rx)) in expected.into_iter().zip(replies).enumerate() {
        let outcome = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("session must complete")
            .expect("session must succeed");
        assert_eq!(outcome.checksum, want, "job {i}: migrated result must be golden");
        assert_eq!(outcome.shard, 1, "job {i}: shard 0 is dead; shard 1 must finish it");
        assert!(outcome.migrations >= 1, "job {i} was on shard 0 when it was killed");
    }
    let stats = service.stats();
    assert_eq!(stats.migrations, 6, "every session migrated once: {stats:?}");
    assert_eq!(stats.kills, 2, "both kills counted");
    assert_eq!(stats.panics, 1, "the one injected crash: {stats:?}");
    service.shutdown();
}
