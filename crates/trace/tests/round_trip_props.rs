//! Property proofs for the fleet-analytics encodings:
//!
//! 1. **Lossless JSONL ⇄ binary round-trip** — for arbitrary valid
//!    event streams, `events → JSONL → parse → tracebin encode →
//!    decode` reproduces the exact event stream, and re-serializing to
//!    JSONL is byte-identical. (Acceptance criterion for
//!    `dsa-tracebin/v2`.)
//! 2. **Sampling coherence** — a [`SamplingSink`] keeps or drops each
//!    loop *lifecycle* whole, never partially, keeps every loop-less
//!    event, and two samplers with the same seed make identical
//!    choices (the property that makes sampled traces queryable and
//!    migration-stable).

use std::collections::{BTreeMap, BTreeSet};

use dsa_trace::{
    decode, encode, parse_document, Collector, EngineOp, EngineMode, Event, FaultSite, JsonlSink,
    LoopClass, Reason, SamplingSink, ShedReason, SimFaultKind, SnapshotErrorKind, SpecKind, Stage,
    TraceSink, WorkloadName,
};
use proptest::prelude::*;

/// Any value of a word enum.
fn word<E: Copy + std::fmt::Debug + 'static>(all: &'static [E]) -> impl Strategy<Value = E> {
    (0..all.len()).prop_map(move |i| all[i])
}

fn arb_cycle() -> impl Strategy<Value = u64> {
    // Mostly realistic small cycles (delta-friendly), sometimes the
    // full u64 range so wrapping deltas are exercised.
    prop_oneof![
        (0u64..100_000).boxed(),
        (0u64..=u64::MAX).boxed(),
        Just(0u64).boxed(),
        Just(u64::MAX).boxed(),
    ]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![(0u32..10_000).boxed(), (0u32..=u32::MAX).boxed()]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![(0u64..1_000_000).boxed(), (0u64..=u64::MAX).boxed()]
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    (0..Stage::ALL.len()).prop_map(|i| Stage::ALL[i])
}

fn arb_event() -> impl Strategy<Value = Event> {
    use dsa_trace::{CacheKind, CacheOutcome};
    let cache = (0usize..3).prop_map(|i| [CacheKind::Dsa, CacheKind::Verification, CacheKind::ArrayMap][i]);
    let outcome = (0usize..4).prop_map(|i| {
        [CacheOutcome::Hit, CacheOutcome::Miss, CacheOutcome::Insert, CacheOutcome::Evict][i]
    });
    let spec = (0usize..2).prop_map(|i| [SpecKind::Sentinel, SpecKind::Conditional][i]);
    prop_oneof![
        (arb_u32(), arb_cycle()).prop_map(|(pc, cycle)| Event::RunStarted { pc, cycle }),
        (arb_cycle(), arb_u64(), any::<bool>())
            .prop_map(|(cycle, committed, halted)| Event::RunFinished { cycle, committed, halted }),
        (word(&SimFaultKind::ALL), arb_u32(), arb_cycle())
            .prop_map(|(kind, pc, cycle)| Event::SimFault { kind, pc, cycle }),
        (arb_u32(), arb_u32(), arb_cycle())
            .prop_map(|(loop_id, end_pc, cycle)| Event::LoopDetected { loop_id, end_pc, cycle }),
        (arb_stage(), arb_u32(), arb_u64(), arb_cycle()).prop_map(
            |(stage, loop_id, dsa_cycles, cycle)| Event::StageActivated {
                stage,
                loop_id,
                dsa_cycles,
                cycle
            }
        ),
        (cache, outcome, arb_u32(), arb_u32(), arb_u64(), arb_cycle()).prop_map(
            |(cache, outcome, loop_id, count, dsa_cycles, cycle)| Event::CacheAccess {
                cache,
                outcome,
                loop_id,
                count,
                dsa_cycles,
                cycle
            }
        ),
        (
            arb_u32(),
            arb_u32(),
            prop_oneof![Just(None).boxed(), arb_u32().prop_map(Some).boxed()],
            arb_u64(),
            arb_cycle()
        )
            .prop_map(|(loop_id, pairs, distance, dsa_cycles, cycle)| {
                Event::DependencyVerdict { loop_id, pairs, distance, dsa_cycles, cycle }
            }),
        (arb_u32(), word(&LoopClass::ALL), arb_cycle())
            .prop_map(|(loop_id, class, cycle)| Event::LoopClassified { loop_id, class, cycle }),
        (arb_u32(), word(&LoopClass::ALL), arb_u32(), arb_u32(), arb_cycle()).prop_map(
            |(loop_id, class, planned, peeled, cycle)| Event::LoopVectorized {
                loop_id,
                class,
                planned,
                peeled,
                cycle
            }
        ),
        (arb_u32(), word(&LoopClass::ALL), word(&Reason::ALL), arb_cycle()).prop_map(
            |(loop_id, class, reason, cycle)| Event::LoopRejected { loop_id, class, reason, cycle }
        ),
        (arb_u32(), word(&LoopClass::ALL), word(&Reason::ALL), arb_cycle()).prop_map(
            |(loop_id, class, reason, cycle)| Event::LoopRolledBack { loop_id, class, reason, cycle }
        ),
        (arb_u32(), arb_u32(), arb_cycle())
            .prop_map(|(loop_id, iters, cycle)| Event::LoopFinished { loop_id, iters, cycle }),
        (word(&EngineOp::ALL), word(&EngineMode::ALL), arb_cycle())
            .prop_map(|(during, expected, cycle)| Event::EnginePoisoned { during, expected, cycle }),
        (word(&FaultSite::ALL), arb_cycle()).prop_map(|(site, cycle)| Event::FaultInjected { site, cycle }),
        (arb_u32(), arb_u32(), arb_u64(), arb_cycle()).prop_map(
            |(loop_id, chunk_iters, dsa_cycles, cycle)| Event::PartialChunk {
                loop_id,
                chunk_iters,
                dsa_cycles,
                cycle
            }
        ),
        (arb_u32(), spec, arb_u64(), arb_u64(), arb_u64(), arb_cycle()).prop_map(
            |(loop_id, kind, injected, used, discarded, cycle)| Event::SpeculationResolved {
                loop_id,
                kind,
                injected,
                used,
                discarded,
                cycle
            }
        ),
        (word(&WorkloadName::ALL), arb_u32(), arb_cycle()).prop_map(|(workload, attempt, cycle)| {
            Event::SupervisorRetry { workload, attempt, cycle }
        }),
        (word(&WorkloadName::ALL), arb_cycle())
            .prop_map(|(workload, cycle)| Event::WorkerPanicked { workload, cycle }),
        (arb_u64(), arb_u32(), arb_u32(), arb_cycle()).prop_map(
            |(job, shard, queue_depth, cycle)| Event::JobAdmitted { job, shard, queue_depth, cycle }
        ),
        (word(&ShedReason::ALL), arb_cycle()).prop_map(|(reason, cycle)| Event::JobShed { reason, cycle }),
        (arb_u64(), arb_u32(), any::<bool>(), arb_u32(), arb_u64(), arb_cycle()).prop_map(
            |(job, shard, cache_hit, migrations, latency_ms, cycle)| Event::JobCompleted {
                job,
                shard,
                cache_hit,
                migrations,
                latency_ms,
                cycle
            }
        ),
        (arb_u64(), arb_u32(), arb_u64(), arb_u64(), arb_cycle()).prop_map(
            |(job, shard, bytes, commits, cycle)| Event::SessionCheckpointed {
                job,
                shard,
                bytes,
                commits,
                cycle
            }
        ),
        (arb_u64(), arb_u32(), arb_cycle())
            .prop_map(|(job, from_shard, cycle)| Event::SessionMigrated { job, from_shard, cycle }),
        (arb_u32(), arb_u32(), arb_cycle())
            .prop_map(|(shard, drained, cycle)| Event::ShardKilled { shard, drained, cycle }),
        (arb_u32(), arb_cycle()).prop_map(|(shard, cycle)| Event::ShardRecovered { shard, cycle }),
        (arb_u64(), arb_u64(), arb_cycle()).prop_map(|(bytes, cache_entries, cycle)| {
            Event::SnapshotRestored { bytes, cache_entries, cycle }
        }),
        (word(&SnapshotErrorKind::ALL), arb_cycle()).prop_map(|(kind, cycle)| Event::SnapshotRejected { kind, cycle }),
    ]
}

fn to_jsonl(events: &[Event]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    for ev in events {
        sink.record(ev);
    }
    sink.finish();
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn jsonl_to_binary_to_jsonl_is_lossless(
        events in prop::collection::vec(arb_event(), 1..160),
    ) {
        // events → JSONL → typed events.
        let text = to_jsonl(&events);
        let (parsed, warnings) = parse_document(&text).expect("own JSONL parses");
        prop_assert!(warnings.is_empty(), "own output warned: {warnings:?}");
        prop_assert_eq!(&parsed, &events);
        // typed → binary → typed.
        let bin = encode(&parsed);
        let back = decode(&bin).expect("own binary decodes");
        prop_assert_eq!(&back, &events);
        // …and back out to byte-identical JSONL.
        prop_assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn binary_survives_streaming_writer_block_splits(
        events in prop::collection::vec(arb_event(), 0..64),
    ) {
        let bytes = encode(&events);
        let decoded = decode(&bytes).expect("decodes");
        prop_assert_eq!(decoded, events);
    }

    #[test]
    fn sampling_keeps_lifecycles_whole(
        events in prop::collection::vec(arb_event(), 0..240),
        seed in any::<u64>(),
        rate in 0u32..12,
    ) {
        let mut sampler = SamplingSink::new(Collector::new(), seed, rate);
        for ev in &events {
            sampler.record(ev);
        }
        let kept = &sampler.inner().events;

        // Partition the original stream per loop id.
        let mut original: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        let mut loopless = 0usize;
        for ev in &events {
            match ev.loop_id() {
                Some(id) => original.entry(id).or_default().push(ev),
                None => loopless += 1,
            }
        }
        let mut kept_by_loop: BTreeMap<u32, usize> = BTreeMap::new();
        let mut kept_loopless = 0usize;
        for ev in kept {
            match ev.loop_id() {
                Some(id) => *kept_by_loop.entry(id).or_default() += 1,
                None => kept_loopless += 1,
            }
        }
        prop_assert_eq!(kept_loopless, loopless, "loop-less events must always pass");
        for (id, evs) in &original {
            let got = kept_by_loop.get(id).copied().unwrap_or(0);
            prop_assert!(
                got == 0 || got == evs.len(),
                "loop {id}: kept {got} of {} — lifecycle shredded", evs.len()
            );
            // The verdict must be reproducible by a second sampler
            // (e.g. after a shard migration re-attaches a fresh sink).
            let twin = SamplingSink::new(Collector::new(), seed, rate);
            prop_assert_eq!(twin.keeps_loop(*id), got != 0);
        }
        // Order of survivors is preserved.
        let expected: Vec<&Event> = events
            .iter()
            .filter(|ev| ev.loop_id().is_none_or(|id| kept_by_loop.contains_key(&id)))
            .collect();
        let got: Vec<&Event> = kept.iter().collect();
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn sampled_binary_stream_stays_queryable() {
    // End-to-end: sample a stream, write it binary, read it back, and
    // check the rollup only contains whole lifecycles.
    let mut events = Vec::new();
    for loop_id in (100u32..180).step_by(4) {
        events.push(Event::LoopDetected { loop_id, end_pc: loop_id + 24, cycle: u64::from(loop_id) });
        events.push(Event::LoopClassified { loop_id, class: LoopClass::Count, cycle: u64::from(loop_id) + 1 });
        events.push(Event::LoopFinished { loop_id, iters: 32, cycle: u64::from(loop_id) + 90 });
    }
    let mut sampler = SamplingSink::new(Collector::new(), 0xFEED, 3);
    for ev in &events {
        sampler.record(ev);
    }
    let sampled = sampler.into_inner().events;
    let bytes = encode(&sampled);
    let back = decode(&bytes).expect("decodes");
    let ids: BTreeSet<u32> = back.iter().filter_map(|e| e.loop_id()).collect();
    for id in &ids {
        let n = back.iter().filter(|e| e.loop_id() == Some(*id)).count();
        assert_eq!(n, 3, "loop {id} partially present after sample+encode+decode");
    }
    assert!(!ids.is_empty() && ids.len() < 20, "rate 3 should keep a strict subset");
}
