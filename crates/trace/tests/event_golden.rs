//! Golden snapshot of the whole event vocabulary: a fixed stream that
//! holds every `Event` variant, every `Stage`/`CacheKind`/
//! `CacheOutcome`/`SpecKind` value, `distance` both absent and present,
//! and words the engine, simulator and service emit must reproduce a checked-in
//! `dsa-trace/v2` JSONL document and a checked-in `dsa-tracebin/v2`
//! binary byte for byte, and both must read back to the same stream.
//!
//! The `count_trace` goldens in `dsa-core` pin what a real run emits;
//! this one pins the wire layout of the kinds a short kernel never
//! emits. Regenerate deliberately with:
//!
//! ```text
//! DSA_BLESS=1 cargo test -p dsa-trace --test event_golden
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;

use dsa_trace::{
    decode, encode, parse_document, validate_document_verbose, CacheKind, CacheOutcome, EngineOp,
    EngineMode, Event, FaultSite, JsonlSink, LoopClass, Reason, ShedReason, SimFaultKind,
    SnapshotErrorKind, SpecKind, Stage, TraceSink, WorkloadName,
};

fn golden_path(ext: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/every_event.{ext}"))
}

/// The fixed stream: all 27 kinds, then the remaining enum values and
/// edge values (extreme integers, a cycle that runs backwards).
fn every_event_stream() -> Vec<Event> {
    let mut events = vec![
        Event::RunStarted { pc: 4096, cycle: 0 },
        Event::RunFinished { cycle: 90_000, committed: 61_234, halted: true },
        Event::SimFault { kind: SimFaultKind::StepBudgetExceeded, pc: u32::MAX, cycle: 90_001 },
        Event::LoopDetected { loop_id: 128, end_pc: 172, cycle: 310 },
        Event::StageActivated { stage: Stage::LoopDetection, loop_id: 128, dsa_cycles: 1, cycle: 311 },
        Event::CacheAccess {
            cache: CacheKind::Dsa,
            outcome: CacheOutcome::Hit,
            loop_id: 128,
            count: 1,
            dsa_cycles: 2,
            cycle: 311,
        },
        Event::DependencyVerdict { loop_id: 128, pairs: 3, distance: None, dsa_cycles: 9, cycle: 520 },
        Event::LoopClassified { loop_id: 128, class: LoopClass::Conditional, cycle: 521 },
        Event::LoopVectorized { loop_id: 128, class: LoopClass::Count, planned: 96, peeled: 3, cycle: 530 },
        Event::LoopRejected {
            loop_id: 200,
            class: LoopClass::NonVectorizable,
            reason: Reason::NonUnitStride,
            cycle: 610,
        },
        Event::LoopRolledBack {
            loop_id: 0,
            class: LoopClass::Unknown,
            reason: Reason::StaleCoverageRecovery,
            cycle: 640,
        },
        Event::LoopFinished { loop_id: 128, iters: 99, cycle: 700 },
        Event::EnginePoisoned { during: EngineOp::Launch, expected: EngineMode::Analyzing, cycle: 710 },
        Event::FaultInjected { site: FaultSite::CorruptTemplate, cycle: 705 },
        Event::PartialChunk { loop_id: 256, chunk_iters: 16, dsa_cycles: 5, cycle: 800 },
        Event::SpeculationResolved {
            loop_id: 256,
            kind: SpecKind::Sentinel,
            injected: 64,
            used: 40,
            discarded: 24,
            cycle: 900,
        },
        Event::SupervisorRetry { workload: WorkloadName::MatMul, attempt: 2, cycle: 0 },
        Event::WorkerPanicked { workload: WorkloadName::Gaussian, cycle: 0 },
        Event::JobAdmitted { job: 17, shard: 2, queue_depth: 5, cycle: 0 },
        Event::JobShed { reason: ShedReason::Overloaded, cycle: 0 },
        Event::JobCompleted { job: 17, shard: 3, cache_hit: false, migrations: 1, latency_ms: 42, cycle: 0 },
        Event::SessionCheckpointed { job: 17, shard: 2, bytes: 9_000, commits: 50_000, cycle: 0 },
        Event::SessionMigrated { job: 17, from_shard: 2, cycle: 0 },
        Event::ShardKilled { shard: 2, drained: 3, cycle: 0 },
        Event::ShardRecovered { shard: 2, cycle: 0 },
        Event::SnapshotRestored { bytes: 4_096, cache_entries: 7, cycle: 0 },
        Event::SnapshotRejected { kind: SnapshotErrorKind::ChecksumMismatch, cycle: 0 },
    ];
    for (i, stage) in Stage::ALL.into_iter().enumerate().skip(1) {
        events.push(Event::StageActivated { stage, loop_id: 256, dsa_cycles: i as u64, cycle: 1_000 + i as u64 });
    }
    for (cache, outcome) in [
        (CacheKind::Verification, CacheOutcome::Miss),
        (CacheKind::ArrayMap, CacheOutcome::Insert),
        (CacheKind::Dsa, CacheOutcome::Evict),
    ] {
        events.push(Event::CacheAccess { cache, outcome, loop_id: 256, count: 4, dsa_cycles: 4, cycle: 1_100 });
    }
    events.extend([
        Event::DependencyVerdict { loop_id: 256, pairs: 2, distance: Some(4), dsa_cycles: 6, cycle: 1_200 },
        Event::SpeculationResolved {
            loop_id: 256,
            kind: SpecKind::Conditional,
            injected: u64::MAX,
            used: 0,
            discarded: u64::MAX,
            cycle: u64::MAX,
        },
        Event::JobCompleted {
            job: u64::MAX,
            shard: 0,
            cache_hit: true,
            migrations: u32::MAX,
            latency_ms: 0,
            cycle: 0,
        },
        Event::RunFinished { cycle: 1_300, committed: 0, halted: false },
    ]);
    events
}

fn jsonl_document(events: &[Event]) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    for ev in events {
        sink.record(ev);
    }
    sink.finish();
    assert!(sink.take_error().is_none());
    sink.into_inner()
}

/// Compares `live` with the blessed file, or blesses it under `DSA_BLESS`.
fn check_golden(ext: &str, live: &[u8]) -> Vec<u8> {
    let path = golden_path(ext);
    if std::env::var_os("DSA_BLESS").is_some() {
        std::fs::write(&path, live).expect("bless golden");
        return live.to_vec();
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run DSA_BLESS=1 cargo test -p dsa-trace --test event_golden",
            path.display()
        )
    });
    if live != golden.as_slice() {
        let first_diff =
            live.iter().zip(&golden).position(|(a, b)| a != b).unwrap_or(live.len().min(golden.len()));
        panic!(
            "{ext} encoding drifted from {}: {} bytes now vs {} blessed, first difference at \
             offset {first_diff}",
            path.display(),
            live.len(),
            golden.len()
        );
    }
    golden
}

#[test]
fn the_stream_covers_the_whole_vocabulary() {
    let events = every_event_stream();
    let kinds: BTreeSet<&str> = events.iter().map(Event::type_name).collect();
    assert_eq!(kinds.len(), 27, "{kinds:?}");
    let stages: BTreeSet<Stage> = events
        .iter()
        .filter_map(|ev| match *ev {
            Event::StageActivated { stage, .. } => Some(stage),
            _ => None,
        })
        .collect();
    assert_eq!(stages.len(), Stage::ALL.len());
    let mut caches = BTreeSet::new();
    let mut outcomes = BTreeSet::new();
    let mut specs = BTreeSet::new();
    let mut distances = BTreeSet::new();
    for ev in &events {
        match *ev {
            Event::CacheAccess { cache, outcome, .. } => {
                caches.insert(cache.name());
                outcomes.insert(outcome.name());
            }
            Event::SpeculationResolved { kind, .. } => {
                specs.insert(kind.name());
            }
            Event::DependencyVerdict { distance, .. } => {
                distances.insert(distance.is_some());
            }
            _ => {}
        }
    }
    assert_eq!((caches.len(), outcomes.len(), specs.len(), distances.len()), (3, 4, 2, 2));
}

#[test]
fn jsonl_matches_golden_and_reads_back() {
    let events = every_event_stream();
    let golden = check_golden("jsonl", &jsonl_document(&events));
    let text = String::from_utf8(golden).expect("JSONL is UTF-8");
    let (count, warnings) = validate_document_verbose(&text).expect("golden validates");
    assert_eq!(count, events.len() as u64);
    assert!(warnings.is_empty(), "{warnings:?}");
    let (parsed, warnings) = parse_document(&text).expect("golden parses");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(parsed, events);
}

#[test]
fn tracebin_matches_golden_and_reads_back() {
    let events = every_event_stream();
    let golden = check_golden("trcb", &encode(&events));
    assert_eq!(decode(&golden).expect("golden decodes"), events);
}
