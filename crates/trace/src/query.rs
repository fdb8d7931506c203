//! Cross-run trace rollups: the aggregation core behind the
//! `trace_query` binary.
//!
//! A [`Rollup`] folds any number of trace files — JSONL or
//! `dsa-tracebin/v1`, auto-sniffed by [`read_trace`] — into the fleet
//! views the Saturn-style analyses need: cycles by stage, cache-verdict
//! and CIDP-outcome distributions, and per-workload degradation/poison
//! rates. Cycle charges are keyed by source (stage name / cache name /
//! `"cidp"` / `"partial-chunk"`), so a rollup over N runs sums to
//! exactly the N single-run tables — the ledger invariant (Σ event `dsa_cycles` ==
//! `DsaStats::detection_cycles`) survives aggregation.
//!
//! Engine events are attributed to the trace's label (its file stem —
//! traces are written per workload); harness/service events carry
//! their own `workload` field and are attributed to that instead.

use std::collections::BTreeMap;

use crate::columnar;
use crate::event::Event;
use crate::jsonl;
use crate::metrics::Histogram;

/// Events + DSA-side cycles charged against one source (one row of the
/// cycles-by-stage table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Charge {
    /// Charging events folded.
    pub events: u64,
    /// DSA cycles charged.
    pub dsa_cycles: u64,
}

/// The source a cycle-charging event bills to — one keying for
/// single-run and cross-run tables, so they reconcile.
pub fn charge_source(ev: &Event) -> Option<&'static str> {
    match ev {
        Event::StageActivated { stage, .. } => Some(stage.name()),
        Event::CacheAccess { cache, .. } => Some(cache.name()),
        Event::DependencyVerdict { .. } => Some("cidp"),
        Event::PartialChunk { .. } => Some("partial-chunk"),
        _ => None,
    }
}

/// CIDP verdict distribution across the folded traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CidpTally {
    /// Verdicts produced.
    pub verdicts: u64,
    /// Verdicts predicting a dependency (`distance` present).
    pub dependent: u64,
    /// Verdicts predicting independence.
    pub independent: u64,
    /// Write×read stream pairs evaluated.
    pub pairs: u64,
    /// Distribution of predicted distances (dependent verdicts only).
    pub distances: Histogram,
}

/// Loop-lifecycle and failure tallies for one workload label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadTally {
    /// Loops detected.
    pub detected: u64,
    /// Loops vectorized.
    pub vectorized: u64,
    /// Loops rejected by analysis.
    pub rejected: u64,
    /// Rollbacks to scalar execution.
    pub rolled_back: u64,
    /// Vectorized-loop instances that completed coverage.
    pub finished: u64,
    /// Engine poisonings (terminal degradation).
    pub poisoned: u64,
    /// Faults injected (armed fault plans).
    pub faults: u64,
    /// Simulator faults.
    pub sim_faults: u64,
}

impl WorkloadTally {
    /// Rejections + rollbacks per detected loop (0 when none detected).
    pub fn degradation_rate(&self) -> f64 {
        if self.detected == 0 {
            return 0.0;
        }
        (self.rejected + self.rolled_back) as f64 / self.detected as f64
    }
}

/// A streaming cross-run aggregation; fold files in any order, merge
/// partial rollups from shards, read the totals out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    /// Trace files folded.
    pub runs: u64,
    /// Events folded.
    pub events: u64,
    /// Σ event `dsa_cycles` — must equal the sum of every folded run's
    /// `DsaStats::detection_cycles` (the ledger invariant).
    pub total_dsa_cycles: u64,
    /// Events per type name.
    pub types: BTreeMap<&'static str, u64>,
    /// Cycles-by-source table (stage/cache/cidp/partial-chunk keys).
    pub charges: BTreeMap<&'static str, Charge>,
    /// Cache traffic: `(cache, outcome)` → accesses.
    pub cache: BTreeMap<(&'static str, &'static str), u64>,
    /// CIDP verdict distribution.
    pub cidp: CidpTally,
    /// Per-workload lifecycle/failure tallies.
    pub workloads: BTreeMap<String, WorkloadTally>,
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

    fn tally(&mut self, label: &str) -> &mut WorkloadTally {
        self.workloads.entry(label.to_string()).or_default()
    }

    /// Folds one event under `label`.
    pub fn fold(&mut self, label: &str, ev: &Event) {
        self.events += 1;
        self.total_dsa_cycles = self.total_dsa_cycles.saturating_add(ev.dsa_cycles());
        *self.types.entry(ev.type_name()).or_default() += 1;
        if let Some(source) = charge_source(ev) {
            let c = self.charges.entry(source).or_default();
            c.events += 1;
            c.dsa_cycles = c.dsa_cycles.saturating_add(ev.dsa_cycles());
        }
        match *ev {
            Event::CacheAccess { cache, outcome, count, .. } => {
                *self.cache.entry((cache.name(), outcome.name())).or_default() += u64::from(count);
            }
            Event::DependencyVerdict { pairs, distance, .. } => {
                self.cidp.verdicts += 1;
                self.cidp.pairs += u64::from(pairs);
                match distance {
                    Some(d) => {
                        self.cidp.dependent += 1;
                        self.cidp.distances.record(u64::from(d));
                    }
                    None => self.cidp.independent += 1,
                }
            }
            Event::LoopDetected { .. } => self.tally(label).detected += 1,
            Event::LoopVectorized { .. } => self.tally(label).vectorized += 1,
            Event::LoopRejected { .. } => self.tally(label).rejected += 1,
            Event::LoopRolledBack { .. } => self.tally(label).rolled_back += 1,
            Event::LoopFinished { .. } => self.tally(label).finished += 1,
            Event::EnginePoisoned { .. } => self.tally(label).poisoned += 1,
            Event::FaultInjected { .. } => self.tally(label).faults += 1,
            Event::SimFault { .. } => self.tally(label).sim_faults += 1,
            // Harness/service events attribute to their own workload.
            Event::SupervisorRetry { workload, .. }
            | Event::WorkerPanicked { workload, .. }
            | Event::DeadlineExceeded { workload, .. }
            | Event::BreakerOpen { workload, .. }
            | Event::BreakerHalfOpen { workload, .. }
            | Event::BreakerClosed { workload, .. } => {
                self.tally(workload);
            }
            _ => {}
        }
    }

    /// Folds another rollup in (shard-partial aggregation). Exact: a
    /// merge of per-run rollups equals one rollup over all runs.
    pub fn merge(&mut self, other: &Rollup) {
        self.runs += other.runs;
        self.events += other.events;
        self.total_dsa_cycles = self.total_dsa_cycles.saturating_add(other.total_dsa_cycles);
        for (&k, &v) in &other.types {
            *self.types.entry(k).or_default() += v;
        }
        for (&k, c) in &other.charges {
            let mine = self.charges.entry(k).or_default();
            mine.events += c.events;
            mine.dsa_cycles = mine.dsa_cycles.saturating_add(c.dsa_cycles);
        }
        for (&k, &v) in &other.cache {
            *self.cache.entry(k).or_default() += v;
        }
        self.cidp.verdicts += other.cidp.verdicts;
        self.cidp.dependent += other.cidp.dependent;
        self.cidp.independent += other.cidp.independent;
        self.cidp.pairs += other.cidp.pairs;
        self.cidp.distances.merge(&other.cidp.distances);
        for (k, t) in &other.workloads {
            let mine = self.workloads.entry(k.clone()).or_default();
            mine.detected += t.detected;
            mine.vectorized += t.vectorized;
            mine.rejected += t.rejected;
            mine.rolled_back += t.rolled_back;
            mine.finished += t.finished;
            mine.poisoned += t.poisoned;
            mine.faults += t.faults;
            mine.sim_faults += t.sim_faults;
        }
    }
}

/// Which on-disk format a trace file used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `dsa-trace/v1` JSONL.
    Jsonl,
    /// `dsa-tracebin/v1` columnar binary.
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
    use crate::event::{CacheKind, CacheOutcome, Stage};
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
            Event::LoopVectorized { loop_id: base, class: "count", planned: 60, peeled: 0, cycle: 31 },
            Event::PartialChunk { loop_id: base, chunk_iters: 8, dsa_cycles: 3, cycle: 50 },
            Event::LoopFinished { loop_id: base, iters: 60, cycle: 99 },
            Event::RunFinished { cycle: 100, committed: 400, halted: true },
        ]
    }

    #[test]
    fn charges_key_by_source() {
        let mut r = Rollup::new();
        r.fold_file("w1", &run_events(64));
        assert_eq!(r.charges["loop-detection"], Charge { events: 1, dsa_cycles: 1 });
        assert_eq!(r.charges["dsa-cache"], Charge { events: 1, dsa_cycles: 2 });
        assert_eq!(r.charges["cidp"], Charge { events: 1, dsa_cycles: 6 });
        assert_eq!(r.charges["partial-chunk"], Charge { events: 1, dsa_cycles: 3 });
        assert_eq!(r.total_dsa_cycles, 12);
        let by_source: u64 = r.charges.values().map(|c| c.dsa_cycles).sum();
        assert_eq!(by_source, r.total_dsa_cycles, "every charged cycle has a source");
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
        assert_eq!(r.cidp.verdicts, 2);
        assert_eq!(r.cidp.dependent, 1);
        assert_eq!(r.cidp.independent, 1);
        assert_eq!(r.cidp.pairs, 4);
        assert_eq!(r.cidp.distances.count(), 1);
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
        assert_eq!(r.cache[&("verification-cache", "insert")], 7);
    }

    #[test]
    fn workload_attribution_and_degradation_rate() {
        let mut r = Rollup::new();
        r.fold("app", &Event::LoopDetected { loop_id: 4, end_pc: 20, cycle: 1 });
        r.fold("app", &Event::LoopDetected { loop_id: 8, end_pc: 40, cycle: 2 });
        r.fold("app", &Event::LoopRejected { loop_id: 8, class: "unknown", reason: "irregular", cycle: 3 });
        r.fold("app", &Event::SupervisorRetry { workload: "other", attempt: 1, backoff_ms: 2, cycle: 0 });
        let app = r.workloads["app"];
        assert_eq!(app.detected, 2);
        assert_eq!(app.rejected, 1);
        assert!((app.degradation_rate() - 0.5).abs() < 1e-12);
        assert!(r.workloads.contains_key("other"), "harness events attribute to their workload");
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
