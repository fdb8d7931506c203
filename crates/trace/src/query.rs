//! Cross-run trace rollups: the aggregation core behind the
//! `trace_query` binary.
//!
//! A [`Rollup`] folds any number of trace files — JSONL or
//! `dsa-tracebin/v2`, auto-sniffed by [`read_trace`] — into the fleet
//! views the Saturn-style analyses need: cycles by stage, cache-verdict
//! and CIDP-outcome distributions, and per-workload degradation/poison
//! rates. It is [`MetricsRegistry`]s one level up: one registry over
//! every event, one per workload label. The registry's charge keys are
//! the cycle ledger's sources ([`MetricsRegistry::charges`]), and
//! registries merge exactly, so a rollup over N runs sums to exactly
//! the N single-run tables — the ledger invariant (Σ event
//! `dsa_cycles` == `DsaStats::detection_cycles`) survives aggregation.
//!
//! Engine events are attributed to the trace's label (its file stem —
//! traces are written per workload); harness events carry their own
//! `workload` field and are attributed to that instead.

use std::collections::BTreeMap;

use crate::columnar;
use crate::event::Event;
use crate::jsonl;
use crate::metrics::MetricsRegistry;
use crate::TraceSink as _;

/// A streaming cross-run aggregation; fold files in any order, merge
/// partial rollups from shards, read the totals out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    /// Trace files folded.
    pub runs: u64,
    /// Every event folded.
    pub total: MetricsRegistry,
    /// Per workload label, the loop-lifecycle and failure events
    /// attributed to it.
    pub workloads: BTreeMap<String, MetricsRegistry>,
}

impl Rollup {
    /// An empty rollup.
    pub fn new() -> Rollup {
        Rollup::default()
    }

    /// Folds one trace's events under `label` (conventionally the file
    /// stem) and counts one run.
    pub fn fold_file(&mut self, label: &str, events: &[Event]) {
        self.runs += 1;
        for ev in events {
            self.fold(label, ev);
        }
    }

    /// Folds one event under `label`.
    pub fn fold(&mut self, label: &str, ev: &Event) {
        self.total.record(ev);
        let owner = match *ev {
            Event::LoopDetected { .. }
            | Event::LoopVectorized { .. }
            | Event::LoopRejected { .. }
            | Event::LoopRolledBack { .. }
            | Event::LoopFinished { .. }
            | Event::EnginePoisoned { .. }
            | Event::FaultInjected { .. }
            | Event::SimFault { .. } => label,
            Event::SupervisorRetry { workload, .. } | Event::WorkerPanicked { workload, .. } => {
                workload.name()
            }
            _ => return,
        };
        match self.workloads.get_mut(owner) {
            Some(m) => m.record(ev),
            None => {
                let mut m = MetricsRegistry::new();
                m.record(ev);
                self.workloads.insert(owner.to_string(), m);
            }
        }
    }

    /// Folds another rollup in (shard-partial aggregation). Exact: a
    /// merge of per-run rollups equals one rollup over all runs.
    pub fn merge(&mut self, other: &Rollup) {
        self.runs += other.runs;
        self.total.merge(&other.total);
        for (k, m) in &other.workloads {
            self.workloads.entry(k.clone()).or_default().merge(m);
        }
    }
}

/// Which on-disk format a trace file used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `dsa-trace/v2` JSONL.
    Jsonl,
    /// `dsa-tracebin/v2` columnar binary.
    Binary,
}

/// A trace loaded from disk: its events, the format it was stored in,
/// and any forward-compat warnings the JSONL reader raised.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// The decoded event stream, in emission order.
    pub events: Vec<Event>,
    /// Detected on-disk format.
    pub format: TraceFormat,
    /// JSONL forward-compat warnings (always empty for binary).
    pub warnings: Vec<String>,
}

/// Decodes a trace from raw file bytes, sniffing the format by magic:
/// [`columnar::looks_binary`] selects the binary reader, anything else
/// is parsed as JSONL.
///
/// # Errors
///
/// Returns a human-readable description of the first problem.
pub fn read_trace(bytes: &[u8]) -> Result<LoadedTrace, String> {
    if columnar::looks_binary(bytes) {
        let events = columnar::decode(bytes).map_err(|e| e.to_string())?;
        return Ok(LoadedTrace { events, format: TraceFormat::Binary, warnings: Vec::new() });
    }
    let text = std::str::from_utf8(bytes).map_err(|_| "not UTF-8 (and not a binary trace)".to_string())?;
    let (events, warnings) =
        jsonl::parse_document(text).map_err(|(line, why)| format!("line {line}: {why}"))?;
    Ok(LoadedTrace { events, format: TraceFormat::Jsonl, warnings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheKind, CacheOutcome, LoopClass, Reason, Stage, WorkloadName};
    use crate::{JsonlSink, TraceSink};

    fn run_events(base: u32) -> Vec<Event> {
        vec![
            Event::RunStarted { pc: 0, cycle: 0 },
            Event::LoopDetected { loop_id: base, end_pc: base + 32, cycle: 10 },
            Event::StageActivated { stage: Stage::LoopDetection, loop_id: base, dsa_cycles: 1, cycle: 10 },
            Event::CacheAccess {
                cache: CacheKind::Dsa,
                outcome: CacheOutcome::Miss,
                loop_id: base,
                count: 1,
                dsa_cycles: 2,
                cycle: 10,
            },
            Event::DependencyVerdict { loop_id: base, pairs: 2, distance: None, dsa_cycles: 6, cycle: 30 },
            Event::LoopVectorized { loop_id: base, class: LoopClass::Count, planned: 60, peeled: 0, cycle: 31 },
            Event::PartialChunk { loop_id: base, chunk_iters: 8, dsa_cycles: 3, cycle: 50 },
            Event::LoopFinished { loop_id: base, iters: 60, cycle: 99 },
            Event::RunFinished { cycle: 100, committed: 400, halted: true },
        ]
    }

    #[test]
    fn charges_key_by_source() {
        let mut r = Rollup::new();
        r.fold_file("w1", &run_events(64));
        let charges = r.total.charges();
        assert_eq!(
            charges,
            [("cidp", 1, 6), ("dsa-cache", 1, 2), ("loop-detection", 1, 1), ("partial-chunk", 1, 3)]
        );
        let events = run_events(64);
        let dsa_cycles: u64 = events.iter().map(Event::dsa_cycles).sum();
        assert_eq!(dsa_cycles, 12);
        assert_eq!(r.total.dsa_cycles(), dsa_cycles);
        let by_source: u64 = charges.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(by_source, r.total.dsa_cycles(), "every charged cycle has a source");
    }

    #[test]
    fn merge_of_per_run_rollups_equals_one_rollup() {
        let runs: Vec<Vec<Event>> = (0..4).map(|i| run_events(64 + i * 4)).collect();
        let mut whole = Rollup::new();
        for (i, events) in runs.iter().enumerate() {
            whole.fold_file(&format!("w{i}"), events);
        }
        let mut merged = Rollup::new();
        for (i, events) in runs.iter().enumerate() {
            let mut one = Rollup::new();
            one.fold_file(&format!("w{i}"), events);
            merged.merge(&one);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.runs, 4);
    }

    #[test]
    fn cidp_and_cache_distributions() {
        let mut r = Rollup::new();
        r.fold("x", &Event::DependencyVerdict { loop_id: 1, pairs: 3, distance: Some(4), dsa_cycles: 5, cycle: 1 });
        r.fold("x", &Event::DependencyVerdict { loop_id: 2, pairs: 1, distance: None, dsa_cycles: 5, cycle: 2 });
        assert_eq!(r.total.counter("cidp.verdicts"), 2);
        assert_eq!(r.total.counter("cidp.dependent"), 1);
        assert_eq!(r.total.counter("cidp.independent"), 1);
        assert_eq!(r.total.counter("cidp.evaluations"), 4);
        assert_eq!(r.total.histogram("cidp.distance").map(|h| h.count()), Some(1));
        r.fold(
            "x",
            &Event::CacheAccess {
                cache: CacheKind::Verification,
                outcome: CacheOutcome::Insert,
                loop_id: 1,
                count: 7,
                dsa_cycles: 7,
                cycle: 3,
            },
        );
        assert_eq!(r.total.counter("cache.verification-cache.insert"), 7);
    }

    #[test]
    fn workload_attribution_and_degradation_rate() {
        let mut r = Rollup::new();
        r.fold("app", &Event::LoopDetected { loop_id: 4, end_pc: 20, cycle: 1 });
        r.fold("app", &Event::LoopDetected { loop_id: 8, end_pc: 40, cycle: 2 });
        r.fold("app", &Event::LoopRejected { loop_id: 8, class: LoopClass::Unknown, reason: Reason::IrregularTrip, cycle: 3 });
        r.fold("app", &Event::SupervisorRetry { workload: WorkloadName::Dijkstra, attempt: 1, cycle: 0 });
        let app = &r.workloads["app"];
        assert_eq!(app.counter("loop.detected"), 2);
        assert_eq!(app.counter("loop.rejected"), 1);
        assert!((app.degradation_rate() - 0.5).abs() < 1e-12);
        assert!(r.workloads.contains_key("Dijkstra"), "harness events attribute to their workload");
    }

    #[test]
    fn read_trace_sniffs_both_formats_identically() {
        let events = run_events(64);
        // JSONL twin.
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &events {
            sink.record(ev);
        }
        sink.finish();
        let jsonl_bytes = sink.into_inner();
        // Binary twin.
        let bin_bytes = columnar::encode(&events);
        let a = read_trace(&jsonl_bytes).expect("jsonl");
        let b = read_trace(&bin_bytes).expect("binary");
        assert_eq!(a.format, TraceFormat::Jsonl);
        assert_eq!(b.format, TraceFormat::Binary);
        assert_eq!(a.events, events);
        assert_eq!(b.events, events);
        // And they roll up identically.
        let mut ra = Rollup::new();
        ra.fold_file("t", &a.events);
        let mut rb = Rollup::new();
        rb.fold_file("t", &b.events);
        assert_eq!(ra, rb);
    }

    #[test]
    fn read_trace_rejects_garbage() {
        assert!(read_trace(b"\xff\xfe\x00garbage").is_err());
        assert!(read_trace(b"not a trace at all").is_err());
        // Valid magic, truncated body.
        let bin = columnar::encode(&run_events(4));
        assert!(read_trace(&bin[..bin.len() - 2]).is_err());
    }
}
