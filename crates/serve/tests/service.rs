//! End-to-end service tests: admission, kill-and-recover migration,
//! typed load shedding, the socket front-end, and observation
//! neutrality (attaching a sink never changes results).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dsa_serve::loadgen::{run_loadgen, silence_injected_crashes, LoadConfig};
use dsa_serve::protocol::{read_frame, write_frame, JobOutcome, JobRequest};
use dsa_serve::shard::MAX_SLICE_RETRIES;
use dsa_serve::{serve, JobSpec, ServeError, Service, ServiceConfig};

use dsa_bench::cache::Workload;
use dsa_bench::{RunError, System};
use dsa_trace::{Collector, Event, Shared, ShedReason};
use dsa_workloads::{micro, Scale, WorkloadId};

fn micro_spec(index: usize, system: System) -> JobSpec {
    JobSpec {
        workload: Workload::Micro(micro::Micro::all()[index]),
        system,
        scale: Scale::Small,
        deadline_ms: 0,
        cacheable: false,
        panic_slices: 0,
    }
}

fn expected_of(spec: JobSpec) -> u64 {
    spec.workload.build(spec.system, spec.scale).expected
}

/// The headline soak: 4 shards, >= 200 concurrent sessions, chaos
/// controller killing and reviving shards throughout. Zero lost
/// sessions, zero checksum mismatches, zero failed resume proofs.
#[test]
fn soak_with_kills_loses_nothing() {
    let cfg = LoadConfig {
        sessions: 220,
        clients: 55,
        seed: 7,
        fresh_pct: 70,
        panic_pct: 6,
        chaos: true,
        chaos_period_ms: 4,
        chaos_down_ms: 6,
        duration_ms: 0,
        scale: Scale::Small,
        service: ServiceConfig {
            shards: 4,
            queue_cap: 16,
            checkpoint_every: 3_000,
            ..ServiceConfig::default()
        },
    };
    let report = run_loadgen(&cfg);
    assert_eq!(report.lost, 0, "lost sessions: {report:?}");
    assert_eq!(report.mismatches, 0, "checksum mismatches: {report:?}");
    assert_eq!(report.resume_failures, 0, "resume proofs failed: {report:?}");
    assert_eq!(report.admitted, report.completed, "every admitted job completes");
    assert!(report.admitted >= 220, "all sessions eventually admitted");
    assert!(report.passed(), "soak must pass: {report:?}");
}

/// The last alive shard can never be killed — admitted sessions always
/// have somewhere to finish.
#[test]
fn last_alive_shard_is_unkillable() {
    let service = Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() });
    assert!(service.kill_shard(0));
    assert!(!service.kill_shard(1), "refusing to kill the last alive shard");
    assert_eq!(service.alive_shards(), 1);
    assert!(service.revive_shard(0));
    assert_eq!(service.alive_shards(), 2);
    service.shutdown();
}

/// Saturating a 1-shard service sheds typed `Overloaded` errors —
/// never a panic, never a hang — and every admitted job still
/// completes with its golden checksum.
#[test]
fn saturation_sheds_typed_and_admitted_jobs_complete() {
    let service = Service::start(ServiceConfig {
        shards: 1,
        queue_cap: 1,
        checkpoint_every: 300,
        ..ServiceConfig::default()
    });
    let mut admitted = Vec::new();
    let mut sheds = 0u32;
    for i in 0..24 {
        let spec = micro_spec(i % micro::Micro::all().len(), System::Original);
        match service.submit(spec) {
            Ok((_, rx)) => admitted.push((expected_of(spec), rx)),
            Err(ServeError::Overloaded { .. }) => sheds += 1,
            Err(other) => panic!("only typed sheds are acceptable, got {other}"),
        }
    }
    assert!(sheds > 0, "24 instant submissions into queue-cap 1 must shed");
    assert!(!admitted.is_empty(), "some jobs must be admitted");
    for (expected, rx) in admitted {
        let outcome = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("admitted jobs complete")
            .expect("admitted jobs succeed");
        assert_eq!(outcome.checksum, expected);
    }
    assert_eq!(service.stats().shed, u64::from(sheds));
    service.shutdown();
}

/// Identical cacheable jobs hit the content-addressed store: same
/// checksum, `cache_hit` on the repeat.
#[test]
fn repeat_jobs_hit_the_shared_result_store() {
    let service = Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() });
    let mut spec = micro_spec(2, System::DsaFull);
    spec.cacheable = true;
    let (_, rx) = service.submit(spec).expect("admits");
    let first = rx.recv().expect("completes").expect("succeeds");
    assert!(!first.cache_hit, "first run computes");
    let (_, rx) = service.submit(spec).expect("admits");
    let second = rx.recv().expect("completes").expect("succeeds");
    assert!(second.cache_hit, "identical job is a store hit");
    assert_eq!(second.checksum, first.checksum);
    let stats = service.stats();
    assert!(stats.store.hits >= 1 && stats.store.misses >= 1, "{stats:?}");
    service.shutdown();
}

/// Injected worker crashes are caught at the crash boundary; the
/// session retries, resumes and still matches golden.
#[test]
fn injected_crashes_recover_through_supervision() {
    silence_injected_crashes();
    let service =
        Service::start(ServiceConfig { shards: 1, checkpoint_every: 500, ..Default::default() });
    let mut spec = micro_spec(4, System::DsaExtended);
    spec.panic_slices = 1;
    let expected = expected_of(spec);
    let (_, rx) = service.submit(spec).expect("admits");
    let outcome = rx.recv().expect("completes").expect("crash must be survived");
    assert_eq!(outcome.checksum, expected);
    let stats = service.stats();
    assert_eq!(stats.panics, 1, "the injected crash was caught and counted: {stats:?}");
    assert_eq!(stats.retries, 1, "the crashed slice was retried: {stats:?}");
    service.shutdown();
}

/// One panic more than the retry bound: the session gives up and
/// replies a typed `Panicked` error instead of retrying forever.
#[test]
fn a_session_panicking_past_the_retry_bound_replies_typed() {
    silence_injected_crashes();
    let service = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() });
    let mut spec = micro_spec(4, System::DsaExtended);
    spec.panic_slices = MAX_SLICE_RETRIES + 1;
    let (_, rx) = service.submit(spec).expect("admits");
    let reply = rx.recv_timeout(Duration::from_secs(120)).expect("the session is not lost");
    match reply {
        Err(ServeError::Run(RunError::Panicked { workload })) => {
            assert_eq!(workload, spec.workload.describe());
        }
        other => panic!("expected a typed panic, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!((stats.panics, stats.retries, stats.failed), (3, 2, 1), "{stats:?}");
    service.shutdown();
}

/// A job that spends its admission deadline queued behind a long one is
/// shed typed `DeadlineExceeded` when the shard reaches it, traced as a
/// `deadline` job-shed event and counted as failed; the job ahead of it
/// still completes.
#[test]
fn a_job_queued_past_its_deadline_is_shed_typed() {
    let service = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() });
    let collector = Shared::new(Collector::new());
    service.attach_sink(collector.clone());
    let long = JobSpec {
        workload: Workload::App(WorkloadId::MatMul),
        system: System::DsaFull,
        scale: Scale::Paper,
        deadline_ms: 0,
        cacheable: false,
        panic_slices: 0,
    };
    let (_, long_rx) = service.submit(long).expect("admits");
    let late = JobSpec { deadline_ms: 1, ..micro_spec(0, System::Original) };
    let (_, late_rx) = service.submit(late).expect("admits behind the long job");
    let reply = late_rx.recv_timeout(Duration::from_secs(300)).expect("the shed job is not lost");
    match reply {
        Err(ServeError::Run(e @ RunError::DeadlineExceeded { deadline_ms: 1, .. })) => {
            assert!(e.to_string().contains("admission deadline queued"), "{e}");
        }
        other => panic!("expected a typed deadline shed, got {other:?}"),
    }
    let first = long_rx.recv_timeout(Duration::from_secs(300)).expect("the long job completes");
    assert_eq!(first.expect("the long job succeeds").checksum, expected_of(long));
    let stats = service.stats();
    assert_eq!((stats.completed, stats.failed), (1, 1), "{stats:?}");
    service.shutdown();
    let sheds: Vec<Event> = collector
        .with(|c| c.events.clone())
        .into_iter()
        .filter(|e| matches!(e, Event::JobShed { .. }))
        .collect();
    assert_eq!(sheds, vec![Event::JobShed { reason: ShedReason::Deadline, cycle: 0 }], "the shed is traced");
}

/// Full socket round trip: frame a request over TCP, get the outcome
/// frame back; bad names come back as typed `bad-request` errors.
#[test]
fn socket_roundtrip_serves_and_rejects_typed() {
    let service = Arc::new(Service::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    }));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let svc = Arc::clone(&service);
    let server = std::thread::spawn(move || serve(svc, listener, 1));
    let spec = micro_spec(1, System::DsaOriginal);
    let expected = expected_of(spec);
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let req = JobRequest {
            workload: spec.workload.describe().to_string(),
            system: spec.system.name().to_string(),
            scale: "small".to_string(),
            deadline_ms: 0,
            cacheable: true,
            panic_slices: 0,
        };
        write_frame(&mut stream, &req.to_json()).expect("request frames");
        let reply = read_frame(&mut stream).expect("reads").expect("one response per request");
        let outcome = JobOutcome::from_json(&reply)
            .expect("well-formed response")
            .expect("job succeeds");
        assert_eq!(outcome.checksum, expected, "wire result must be golden");
        // Same connection, unknown workload: typed bad-request.
        let bad = JobRequest { workload: "No Such Kernel".to_string(), ..req };
        write_frame(&mut stream, &bad.to_json()).expect("frames");
        let reply = read_frame(&mut stream).expect("reads").expect("responds");
        let err = JobOutcome::from_json(&reply).expect("well-formed").expect_err("typed error");
        assert_eq!(err.0, "bad-request");
        assert!(err.1.contains("No Such Kernel"), "diagnostic names the field: {}", err.1);
    }
    assert_eq!(server.join().expect("server thread joins"), 1);
    service.shutdown();
}

/// Always-on sampled telemetry: the fleet rollup accumulates shard
/// deltas across repeated drains, sampling changes no result, and
/// turning sampling off leaves the rollup empty.
#[test]
fn fleet_metrics_accumulate_shard_deltas() {
    // Sampling on (rate 1: keep everything — maximal interference if
    // there were any).
    let service = Service::start(ServiceConfig {
        shards: 2,
        sample_rate: 1,
        ..ServiceConfig::default()
    });
    let spec = micro_spec(0, System::DsaFull);
    let expected = expected_of(spec);
    let (_, rx) = service.submit(spec).expect("admits");
    let first = rx.recv().expect("completes").expect("succeeds");
    assert_eq!(first.checksum, expected, "sampling must not change results");
    let mid = service.fleet_metrics();
    assert!(mid.counter("service.admitted") >= 1, "service events folded in: {mid:?}");
    assert!(mid.counter("loop.detected") >= 1, "engine events folded in: {mid:?}");

    // A second job after the first drain: the accumulator must keep
    // history (deltas merge, never replace).
    let (_, rx) = service.submit(micro_spec(1, System::DsaFull)).expect("admits");
    rx.recv().expect("completes").expect("succeeds");
    let after = service.fleet_metrics();
    assert!(after.counter("service.admitted") > mid.counter("service.admitted"), "{after:?}");
    assert!(after.counter("service.completed") >= 2, "{after:?}");
    service.shutdown();

    // Sampling off: no engine or service metrics at all.
    let quiet = Service::start(ServiceConfig {
        shards: 1,
        sample_rate: 0,
        ..ServiceConfig::default()
    });
    let (_, rx) = quiet.submit(micro_spec(0, System::DsaFull)).expect("admits");
    let off = rx.recv().expect("completes").expect("succeeds");
    assert_eq!(off.checksum, expected, "rate 0 is the pre-sampling behavior");
    assert!(quiet.fleet_metrics().is_empty(), "rate 0 must record nothing");
    quiet.shutdown();
}

/// Observation neutrality on the service path: attaching a sink must
/// not change any result, and the collector must see the job
/// lifecycle events.
#[test]
fn attached_sinks_observe_without_changing_results() {
    let spec = micro_spec(3, System::DsaFull);

    let bare = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() });
    let (_, rx) = bare.submit(spec).expect("admits");
    let unobserved = rx.recv().expect("completes").expect("succeeds");
    bare.shutdown();

    let observed = Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() });
    let collector = Shared::new(Collector::new());
    observed.attach_sink(collector.clone());
    let (_, rx) = observed.submit(spec).expect("admits");
    let traced = rx.recv().expect("completes").expect("succeeds");
    observed.shutdown();

    assert_eq!(traced.checksum, unobserved.checksum, "sinks observe, never steer");
    assert_eq!(traced.committed, unobserved.committed);
    let events = collector.with(|c| c.events.clone());
    assert!(
        events.iter().any(|e| matches!(e, Event::JobAdmitted { .. })),
        "admission recorded"
    );
    assert!(
        events.iter().any(|e| matches!(e, Event::JobCompleted { .. })),
        "completion recorded"
    );
}
