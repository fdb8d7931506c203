//! The Chrome trace-event exporter: renders each loop's lifecycle as
//! track slices against core cycles, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping:
//!
//! - `pid` 0 is the whole simulation; each loop gets its own `tid`
//!   (named `loop 0x<id>`), so loops stack as parallel tracks.
//! - A **detect** slice spans `LoopDetected` → the analysis verdict
//!   (`LoopVectorized` / `LoopRejected`); an **execute** slice spans
//!   `LoopVectorized` → `LoopFinished` / `LoopRolledBack`. A detection
//!   stall is literally a long `detect` slice.
//! - Stage activations, cache accesses, faults, rollbacks and poisoning
//!   appear as instant markers on the owning track (tid 0 for events
//!   with no loop context).
//! - `ts`/`dur` are core **cycles** (the viewer labels them µs; read
//!   the axis as cycles).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{json_str, Event};
use crate::TraceSink;

/// An open lifecycle slice: start cycle + display name.
#[derive(Debug, Clone)]
struct OpenSpan {
    start: u64,
    name: String,
}

/// Accumulates trace events in memory and writes one Chrome trace JSON
/// document on [`TraceSink::finish`] (idempotent — later finishes are
/// no-ops, so dropping a fanout can't double-write).
pub struct PerfettoSink<W: Write> {
    out: Option<W>,
    /// Rendered `traceEvents` entries (each a complete JSON object).
    entries: Vec<String>,
    detect: BTreeMap<u32, OpenSpan>,
    exec: BTreeMap<u32, OpenSpan>,
    /// Loop ids that already have a thread-name metadata entry.
    named: BTreeMap<u32, ()>,
    error: Option<io::Error>,
}

impl PerfettoSink<BufWriter<File>> {
    /// A sink writing to `path` (truncating) on finish.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the file can't be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<PerfettoSink<BufWriter<File>>> {
        Ok(PerfettoSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> PerfettoSink<W> {
    /// A sink over `out`.
    pub fn new(out: W) -> PerfettoSink<W> {
        PerfettoSink {
            out: Some(out),
            entries: Vec::new(),
            detect: BTreeMap::new(),
            exec: BTreeMap::new(),
            named: BTreeMap::new(),
            error: None,
        }
    }

    /// The first IO error encountered, if any (taking clears it).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    fn name_track(&mut self, tid: u32) {
        if self.named.insert(tid, ()).is_none() {
            let label = if tid == 0 { "simulation".to_string() } else { format!("loop {tid:#x}") };
            self.entries.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_str(&label)
            ));
        }
    }

    fn slice(&mut self, tid: u32, name: &str, cat: &str, start: u64, end: u64) {
        self.name_track(tid);
        self.entries.push(format!(
            "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":0,\"tid\":{tid},\"ts\":{start},\"dur\":{}}}",
            json_str(name),
            json_str(cat),
            end.saturating_sub(start).max(1)
        ));
    }

    fn instant(&mut self, tid: u32, name: &str, cat: &str, ts: u64, args: &[(&str, String)]) {
        self.name_track(tid);
        let mut entry = format!(
            "{{\"ph\":\"i\",\"name\":{},\"cat\":{},\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}",
            json_str(name),
            json_str(cat)
        );
        if !args.is_empty() {
            entry.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    entry.push(',');
                }
                let _ = write!(entry, "{}:{v}", json_str(k));
            }
            entry.push('}');
        }
        entry.push('}');
        self.entries.push(entry);
    }

    fn close_detect(&mut self, loop_id: u32, cycle: u64, verdict: &str) {
        if let Some(span) = self.detect.remove(&loop_id) {
            let name = format!("{} → {verdict}", span.name);
            self.slice(loop_id, &name, "detect", span.start, cycle);
        }
    }

    fn close_exec(&mut self, loop_id: u32, cycle: u64, outcome: &str) {
        if let Some(span) = self.exec.remove(&loop_id) {
            let name = format!("{} ({outcome})", span.name);
            self.slice(loop_id, &name, "execute", span.start, cycle);
        }
    }

    /// The complete Chrome trace JSON document for everything recorded
    /// so far (open spans rendered as zero-length slices at their start).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, e: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(e);
        };
        for e in &self.entries {
            push(&mut out, e);
        }
        for (source, cat) in [(&self.detect, "detect"), (&self.exec, "execute")] {
            for (&tid, span) in source {
                let entry = format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":1}}",
                    json_str(&format!("{} (unterminated)", span.name)),
                    json_str(cat),
                    span.start
                );
                push(&mut out, &entry);
            }
        }
        out.push_str("]}");
        out
    }
}

impl<W: Write> TraceSink for PerfettoSink<W> {
    fn record(&mut self, ev: &Event) {
        let cycle = ev.cycle();
        match *ev {
            Event::RunStarted { pc, .. } => {
                self.instant(0, "run-started", "sim", cycle, &[("pc", pc.to_string())]);
            }
            Event::RunFinished { committed, halted, .. } => {
                self.instant(
                    0,
                    "run-finished",
                    "sim",
                    cycle,
                    &[("committed", committed.to_string()), ("halted", halted.to_string())],
                );
            }
            Event::SimFault { kind, pc, .. } => {
                self.instant(
                    0,
                    &format!("sim-fault: {kind}"),
                    "sim",
                    cycle,
                    &[("pc", pc.to_string())],
                );
            }
            Event::LoopDetected { loop_id, end_pc, .. } => {
                // Re-detection of a still-open analysis restarts the span.
                self.detect.insert(
                    loop_id,
                    OpenSpan { start: cycle, name: format!("detect {loop_id:#x}-{end_pc:#x}") },
                );
            }
            Event::StageActivated { stage, loop_id, dsa_cycles, .. } => {
                self.instant(
                    loop_id,
                    stage.name(),
                    "stage",
                    cycle,
                    &[("dsa_cycles", dsa_cycles.to_string())],
                );
            }
            Event::CacheAccess { cache, outcome, loop_id, count, .. } => {
                self.instant(
                    loop_id,
                    &format!("{} {}", cache.name(), outcome.name()),
                    "cache",
                    cycle,
                    &[("count", count.to_string())],
                );
            }
            Event::DependencyVerdict { loop_id, pairs, distance, .. } => {
                let dist = distance.map_or("null".to_string(), |d| d.to_string());
                self.instant(
                    loop_id,
                    "cidp-verdict",
                    "stage",
                    cycle,
                    &[("pairs", pairs.to_string()), ("distance", dist)],
                );
            }
            Event::LoopClassified { loop_id, class, .. } => {
                self.instant(loop_id, &format!("class: {class}"), "lifecycle", cycle, &[]);
                if let Some(span) = self.detect.get_mut(&loop_id) {
                    span.name = format!("detect {class}");
                }
            }
            Event::LoopVectorized { loop_id, class, planned, .. } => {
                self.close_detect(loop_id, cycle, "vectorized");
                self.exec.insert(
                    loop_id,
                    OpenSpan { start: cycle, name: format!("vector {class} ×{planned}") },
                );
            }
            Event::LoopRejected { loop_id, reason, .. } => {
                self.close_detect(loop_id, cycle, reason.name());
            }
            Event::LoopRolledBack { loop_id, reason, .. } => {
                self.instant(loop_id, &format!("rollback: {reason}"), "lifecycle", cycle, &[]);
                self.close_detect(loop_id, cycle, "rolled-back");
                self.close_exec(loop_id, cycle, "rolled-back");
            }
            Event::LoopFinished { loop_id, iters, .. } => {
                self.close_exec(loop_id, cycle, &format!("{iters} iters"));
            }
            Event::EnginePoisoned { during, .. } => {
                self.instant(0, &format!("poisoned during {during}"), "lifecycle", cycle, &[]);
            }
            Event::FaultInjected { site, .. } => {
                self.instant(0, &format!("fault: {site}"), "fault", cycle, &[]);
            }
            Event::PartialChunk { loop_id, chunk_iters, .. } => {
                self.instant(
                    loop_id,
                    "partial-chunk",
                    "execute",
                    cycle,
                    &[("iters", chunk_iters.to_string())],
                );
            }
            Event::SpeculationResolved { loop_id, kind, used, discarded, .. } => {
                self.instant(
                    loop_id,
                    &format!("speculation {}", kind.name()),
                    "execute",
                    cycle,
                    &[("used", used.to_string()), ("discarded", discarded.to_string())],
                );
            }
            Event::SupervisorRetry { workload, attempt, .. } => {
                self.instant(
                    0,
                    &format!("retry {workload}"),
                    "supervisor",
                    cycle,
                    &[("attempt", attempt.to_string())],
                );
            }
            Event::WorkerPanicked { workload, .. } => {
                self.instant(0, &format!("panic {workload}"), "supervisor", cycle, &[]);
            }
            Event::JobAdmitted { job, shard, queue_depth, .. } => {
                self.instant(
                    0,
                    &format!("job {job} admitted"),
                    "service",
                    cycle,
                    &[("shard", shard.to_string()), ("queue_depth", queue_depth.to_string())],
                );
            }
            Event::JobShed { reason, .. } => {
                self.instant(0, &format!("job shed: {reason}"), "service", cycle, &[]);
            }
            Event::JobCompleted { job, shard, migrations, latency_ms, .. } => {
                self.instant(
                    0,
                    &format!("job {job} completed"),
                    "service",
                    cycle,
                    &[
                        ("shard", shard.to_string()),
                        ("migrations", migrations.to_string()),
                        ("latency_ms", latency_ms.to_string()),
                    ],
                );
            }
            Event::SessionCheckpointed { job, shard, bytes, .. } => {
                self.instant(
                    0,
                    &format!("job {job} checkpointed"),
                    "service",
                    cycle,
                    &[("shard", shard.to_string()), ("bytes", bytes.to_string())],
                );
            }
            Event::SessionMigrated { job, from_shard, .. } => {
                self.instant(
                    0,
                    &format!("job {job} migrated"),
                    "service",
                    cycle,
                    &[("from_shard", from_shard.to_string())],
                );
            }
            Event::ShardKilled { shard, drained, .. } => {
                self.instant(
                    0,
                    &format!("shard {shard} killed"),
                    "service",
                    cycle,
                    &[("drained", drained.to_string())],
                );
            }
            Event::ShardRecovered { shard, .. } => {
                self.instant(0, &format!("shard {shard} recovered"), "service", cycle, &[]);
            }
            Event::SnapshotRestored { bytes, cache_entries, .. } => {
                self.instant(
                    0,
                    "snapshot-restored",
                    "snapshot",
                    cycle,
                    &[("bytes", bytes.to_string()), ("cache_entries", cache_entries.to_string())],
                );
            }
            Event::SnapshotRejected { kind, .. } => {
                self.instant(0, &format!("snapshot-rejected: {kind}"), "snapshot", cycle, &[]);
            }
        }
    }

    fn finish(&mut self) {
        let Some(mut out) = self.out.take() else { return };
        let doc = self.render_json();
        if let Err(e) = out.write_all(doc.as_bytes()).and_then(|()| out.flush()) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultSite, LoopClass};
    use crate::json::{self, Value};

    #[test]
    fn renders_a_loadable_chrome_trace() {
        let mut sink = PerfettoSink::new(Vec::new());
        sink.record(&Event::RunStarted { pc: 0, cycle: 0 });
        sink.record(&Event::LoopDetected { loop_id: 16, end_pc: 36, cycle: 100 });
        sink.record(&Event::LoopClassified { loop_id: 16, class: LoopClass::Count, cycle: 140 });
        sink.record(&Event::LoopVectorized { loop_id: 16, class: LoopClass::Count, planned: 60, peeled: 0, cycle: 150 });
        sink.record(&Event::LoopFinished { loop_id: 16, iters: 64, cycle: 400 });
        sink.record(&Event::RunFinished { cycle: 500, committed: 450, halted: true });
        let doc = sink.render_json();
        let v = json::parse(&doc).expect("valid JSON");
        let Some(Value::Arr(events)) = v.get("traceEvents") else { panic!("traceEvents array") };
        // Both lifecycle slices are complete ("X") events on tid 16.
        let slices: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        for s in &slices {
            assert_eq!(s.get("tid").and_then(Value::as_u64), Some(16));
        }
        assert!(doc.contains("detect count"));
        assert!(doc.contains("vector count"));
        assert!(doc.contains("thread_name"));
    }

    #[test]
    fn finish_writes_once(){
        let mut sink = PerfettoSink::new(Vec::new());
        sink.record(&Event::FaultInjected { site: FaultSite::CorruptTemplate, cycle: 7 });
        sink.finish();
        sink.finish();
        assert!(sink.take_error().is_none());
    }

    #[test]
    fn open_spans_survive_as_unterminated_slices() {
        let mut sink = PerfettoSink::new(Vec::new());
        sink.record(&Event::LoopDetected { loop_id: 4, end_pc: 8, cycle: 10 });
        let doc = sink.render_json();
        assert!(doc.contains("unterminated"));
        json::parse(&doc).expect("still valid JSON");
    }
}
