//! The metrics-registry sink: monotonic counters plus fixed-bucket
//! cycle histograms, cheap enough to leave attached for whole
//! experiment grids and mergeable across the parallel warm-up threads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{json_str, CacheKind, CacheOutcome, Event, LoopClass, Stage};
use crate::TraceSink;

/// Number of power-of-two buckets per histogram. Bucket `i` counts
/// samples with `floor(log2(max(v,1))) == i`; the last bucket absorbs
/// everything ≥ 2^(BUCKETS-1).
pub const BUCKETS: usize = 16;

/// A fixed-footprint power-of-two histogram (no allocation per sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        // floor(log2(v)) with 0 mapped to bucket 0, clamped at the top.
        (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one sample. The running sum saturates instead of
    /// wrapping (cycle totals can't reach `u64::MAX` in practice, but
    /// the sink must not panic on any input).
    pub fn record(&mut self, v: u64) {
        let b = &mut self.buckets[Histogram::bucket_of(v)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` (exact while counts fit; every field
    /// saturates rather than wrapping on adversarial inputs).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Compact sparkline-ish rendering: `lo..hi:count` for non-empty
    /// buckets, e.g. `[1:4 2-3:10 8-15:2]`.
    pub fn render(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(' ');
            }
            first = false;
            let lo = if i == 0 { 0u64 } else { 1u64 << i };
            let hi = (1u64 << (i + 1)) - 1;
            if i == 0 {
                let _ = write!(out, "0-1:{n}");
            } else if i == BUCKETS - 1 {
                let _ = write!(out, "{lo}+:{n}");
            } else {
                let _ = write!(out, "{lo}-{hi}:{n}");
            }
        }
        out.push(']');
        out
    }
}

/// A [`TraceSink`] that folds the event stream into named counters and
/// histograms: the one fold over events, read by `all_experiments`,
/// `inspect`, dsa-serve's fleet metrics and [`crate::Rollup`]. Keys are
/// dot-separated ASCII (DESIGN.md §9 lists them all):
///
/// - `event.<type>` — events seen per type
/// - `stage.<stage>.activations` / `stage.<stage>.dsa_cycles` — FSM work
/// - `cache.<cache>.<outcome>` — DSA-memory traffic;
///   `cache.<cache>.events` / `cache.<cache>.dsa_cycles` — its charge
/// - `cidp.verdicts|dependent|independent|evaluations|dsa_cycles`
/// - `loop.detected|classified|vectorized|finished|rejected|rolled_back`
///   — lifecycle totals; `loop.rejected.<reason>` /
///   `loop.rolled_back.<reason>` — failures
/// - `class.<class>.vectorized` / `class.<class>.covered_iters` — per-class
/// - `fault.<site>` / `sim.fault.<kind>` / `engine.poisoned` — faults
/// - `speculation.<kind>.injected|used|discarded` — speculation outcomes
///
/// Histograms: `stage.<stage>.cycles` (per-activation DSA latency),
/// `cidp.distance` (predicted distances), `class.<class>.planned`
/// (vector trip counts), `loop.covered_iters`.
///
/// Equality compares counters and histograms only: the loop→class
/// attribution is transient fold state, not a metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    /// Transient loop→class attribution (from `LoopClassified`), so
    /// later lifecycle events can be binned per class.
    classes: BTreeMap<u32, LoopClass>,
}

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &MetricsRegistry) -> bool {
        self.counters == other.counters && self.hists == other.hists
    }
}

/// `cache.<cache>.events` and `cache.<cache>.dsa_cycles`, spelled out
/// so recording a cache access builds no key.
fn cache_charge_keys(cache: CacheKind) -> (&'static str, &'static str) {
    match cache {
        CacheKind::Dsa => ("cache.dsa-cache.events", "cache.dsa-cache.dsa_cycles"),
        CacheKind::Verification => {
            ("cache.verification-cache.events", "cache.verification-cache.dsa_cycles")
        }
        CacheKind::ArrayMap => ("cache.array-map.events", "cache.array-map.dsa_cycles"),
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to counter `key` (saturating: a monotone counter must
    /// never panic or wrap back to small values).
    pub fn add(&mut self, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(c) = self.counters.get_mut(key) {
            *c = c.saturating_add(n);
        } else {
            self.counters.insert(key.to_string(), n);
        }
    }

    fn bump(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Records `v` in histogram `key`.
    pub fn observe(&mut self, key: &str, v: u64) {
        if let Some(h) = self.hists.get_mut(key) {
            h.record(v);
        } else {
            let mut h = Histogram::default();
            h.record(v);
            self.hists.insert(key.to_string(), h);
        }
    }

    /// A counter's current value (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A histogram, if any samples landed in it.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// The sum of every counter whose key starts with `prefix` (e.g.
    /// `event.` for all events, `fault.` for all injected faults).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range::<str, _>((std::ops::Bound::Included(prefix), std::ops::Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .fold(0u64, |sum, (_, &v)| sum.saturating_add(v))
    }

    /// Events folded, of every type.
    pub fn events(&self) -> u64 {
        self.counter_sum("event.")
    }

    /// The cycle ledger by source: one `(source, events, dsa_cycles)`
    /// row per charging source that saw an event — each stage by name,
    /// each cache by name, `cidp` and `partial-chunk` — sorted by
    /// source. The rows sum to [`MetricsRegistry::dsa_cycles`], which
    /// over one run equals `DsaStats::detection_cycles`.
    pub fn charges(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows = Vec::new();
        for stage in Stage::ALL {
            let name = stage.name();
            rows.push((
                name,
                self.counter(&format!("stage.{name}.activations")),
                self.counter(&format!("stage.{name}.dsa_cycles")),
            ));
        }
        for cache in CacheKind::ALL {
            let (events, cycles) = cache_charge_keys(cache);
            rows.push((cache.name(), self.counter(events), self.counter(cycles)));
        }
        rows.push(("cidp", self.counter("cidp.verdicts"), self.counter("cidp.dsa_cycles")));
        rows.push((
            "partial-chunk",
            self.counter("loop.partial_chunks"),
            self.counter("loop.partial_chunk_dsa_cycles"),
        ));
        rows.retain(|&(_, events, _)| events > 0);
        rows.sort_unstable_by_key(|&(source, _, _)| source);
        rows
    }

    /// Σ event `dsa_cycles`: the total of [`MetricsRegistry::charges`].
    pub fn dsa_cycles(&self) -> u64 {
        self.charges().iter().fold(0u64, |sum, &(_, _, c)| sum.saturating_add(c))
    }

    /// Rejections + rollbacks per detected loop (0 when none detected).
    pub fn degradation_rate(&self) -> f64 {
        let detected = self.counter("loop.detected");
        if detected == 0 {
            return 0.0;
        }
        (self.counter("loop.rejected") + self.counter("loop.rolled_back")) as f64 / detected as f64
    }

    /// All counters, key-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, key-sorted.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms merge.
    /// Class attributions union (same loop id on different warm-up
    /// threads refers to different runs, but the binned counters were
    /// already attributed locally, so the union is only a convenience).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.add(k, v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        for (&id, &class) in &other.classes {
            self.classes.entry(id).or_insert(class);
        }
    }

    fn class_of(&self, loop_id: u32) -> &'static str {
        self.classes.get(&loop_id).map_or("unclassified", |c| c.name())
    }

    /// Plain-text report: counters then histograms, aligned.
    pub fn report_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  {k:<width$}  {v}");
        }
        if !self.hists.is_empty() {
            out.push_str("  --\n");
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {k}: n={} sum={} mean={:.1} max={} {}",
                    h.count(),
                    h.sum(),
                    h.mean(),
                    h.max(),
                    h.render()
                );
            }
        }
        out
    }

    /// JSON report: `{"counters":{...},"histograms":{...}}`.
    pub fn report_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(k));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_str(k),
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            );
            for (j, b) in h.buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&mut self, ev: &Event) {
        self.bump(&format!("event.{}", ev.type_name()));
        match *ev {
            Event::RunStarted { .. } => self.bump("run.started"),
            Event::RunFinished { committed, .. } => self.add("run.committed", committed),
            Event::SimFault { kind, .. } => self.bump(&format!("sim.fault.{kind}")),
            Event::LoopDetected { .. } => self.bump("loop.detected"),
            Event::StageActivated { stage, dsa_cycles, .. } => {
                let name = stage.name();
                self.bump(&format!("stage.{name}.activations"));
                self.add(&format!("stage.{name}.dsa_cycles"), dsa_cycles);
                self.observe(&format!("stage.{name}.cycles"), dsa_cycles);
            }
            Event::CacheAccess { cache, outcome, count, dsa_cycles, .. } => {
                self.add(&format!("cache.{}.{}", cache.name(), outcome.name()), count as u64);
                let (events, cycles) = cache_charge_keys(cache);
                self.bump(events);
                self.add(cycles, dsa_cycles);
                if outcome == CacheOutcome::Evict {
                    self.add("cache.evictions", count as u64);
                }
            }
            Event::DependencyVerdict { pairs, distance, dsa_cycles, .. } => {
                // Folded under `cidp.*`, not `stage.dependency-analysis.*`:
                // the engine emits a separate `StageActivated` for the
                // stage transition, so reusing its keys here would count
                // every verdict twice.
                self.bump("cidp.verdicts");
                self.add("cidp.evaluations", pairs as u64);
                self.add("cidp.dsa_cycles", dsa_cycles);
                self.observe("cidp.cycles", dsa_cycles);
                match distance {
                    Some(d) => {
                        self.bump("cidp.dependent");
                        self.observe("cidp.distance", u64::from(d));
                    }
                    None => self.bump("cidp.independent"),
                }
            }
            Event::LoopClassified { loop_id, class, .. } => {
                self.bump("loop.classified");
                self.bump(&format!("class.{class}.classified"));
                self.classes.insert(loop_id, class);
            }
            Event::LoopVectorized { class, planned, peeled, .. } => {
                self.bump("loop.vectorized");
                self.bump(&format!("class.{class}.vectorized"));
                self.observe(&format!("class.{class}.planned"), planned as u64);
                self.add("loop.peeled_iters", peeled as u64);
            }
            Event::LoopRejected { class, reason, .. } => {
                self.bump("loop.rejected");
                self.bump(&format!("loop.rejected.{reason}"));
                self.bump(&format!("class.{class}.rejected"));
            }
            Event::LoopRolledBack { reason, .. } => {
                self.bump("loop.rolled_back");
                self.bump(&format!("loop.rolled_back.{reason}"));
            }
            Event::LoopFinished { loop_id, iters, .. } => {
                self.bump("loop.finished");
                let class = self.class_of(loop_id);
                self.add(&format!("class.{class}.covered_iters"), iters as u64);
                self.observe("loop.covered_iters", iters as u64);
            }
            Event::EnginePoisoned { .. } => self.bump("engine.poisoned"),
            Event::FaultInjected { site, .. } => self.bump(&format!("fault.{site}")),
            Event::PartialChunk { chunk_iters, dsa_cycles, .. } => {
                self.bump("loop.partial_chunks");
                self.add("loop.partial_chunk_iters", chunk_iters as u64);
                self.add("loop.partial_chunk_dsa_cycles", dsa_cycles);
            }
            Event::SpeculationResolved { kind, injected, used, discarded, .. } => {
                let k = kind.name();
                self.add(&format!("speculation.{k}.injected"), injected);
                self.add(&format!("speculation.{k}.used"), used);
                self.add(&format!("speculation.{k}.discarded"), discarded);
            }
            Event::SupervisorRetry { workload, .. } => {
                self.bump("supervisor.retries");
                self.bump(&format!("supervisor.retry.{workload}"));
            }
            Event::WorkerPanicked { workload, .. } => {
                self.bump("supervisor.panics");
                self.bump(&format!("supervisor.panic.{workload}"));
            }
            Event::JobAdmitted { queue_depth, .. } => {
                self.bump("service.admitted");
                self.observe("service.queue_depth", queue_depth as u64);
            }
            Event::JobShed { reason, .. } => {
                self.bump("service.shed");
                self.bump(&format!("service.shed.{reason}"));
            }
            Event::JobCompleted { cache_hit, migrations, latency_ms, .. } => {
                self.bump("service.completed");
                if cache_hit {
                    self.bump("service.cache_hits");
                }
                self.add("service.migrations", migrations as u64);
                self.observe("service.latency_ms", latency_ms);
            }
            Event::SessionCheckpointed { bytes, .. } => {
                self.bump("service.checkpoints");
                self.observe("service.checkpoint_bytes", bytes);
            }
            Event::SessionMigrated { .. } => self.bump("service.migrated_sessions"),
            Event::ShardKilled { drained, .. } => {
                self.bump("service.shard_kills");
                self.add("service.drained_sessions", drained as u64);
            }
            Event::ShardRecovered { .. } => self.bump("service.shard_recoveries"),
            Event::SnapshotRestored { bytes, cache_entries, .. } => {
                self.bump("snapshot.restored");
                self.add("snapshot.restored_bytes", bytes);
                self.add("snapshot.restored_cache_entries", cache_entries);
            }
            Event::SnapshotRejected { kind, .. } => {
                self.bump("snapshot.rejected");
                self.bump(&format!("snapshot.rejected.{kind}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shared;

    #[test]
    fn histogram_buckets_and_merge() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[10], 1); // 1024
        assert_eq!(h.buckets()[BUCKETS - 1], 1); // clamped
        let mut other = Histogram::default();
        other.record(5);
        other.merge(&h);
        assert_eq!(other.count(), 7);
        assert!(other.render().contains("0-1:2"));
    }

    #[test]
    fn registry_folds_events_and_merges() {
        let mut m = MetricsRegistry::new();
        m.record(&Event::LoopDetected { loop_id: 4, end_pc: 40, cycle: 10 });
        m.record(&Event::StageActivated {
            stage: Stage::LoopDetection,
            loop_id: 4,
            dsa_cycles: 1,
            cycle: 10,
        });
        m.record(&Event::LoopClassified { loop_id: 4, class: LoopClass::Count, cycle: 12 });
        m.record(&Event::LoopFinished { loop_id: 4, iters: 31, cycle: 90 });
        assert_eq!(m.counter("loop.detected"), 1);
        assert_eq!(m.counter("stage.loop-detection.dsa_cycles"), 1);
        assert_eq!(m.counter("class.count.covered_iters"), 31);

        let mut b = MetricsRegistry::new();
        b.record(&Event::LoopDetected { loop_id: 9, end_pc: 90, cycle: 5 });
        b.merge(&m);
        assert_eq!(b.counter("loop.detected"), 2);
        assert_eq!(b.histogram("loop.covered_iters").map(Histogram::count), Some(1));
    }

    #[test]
    fn reports_render_and_json_parses() {
        let mut m = MetricsRegistry::new();
        m.record(&Event::CacheAccess {
            cache: CacheKind::Dsa,
            outcome: CacheOutcome::Hit,
            loop_id: 1,
            count: 1,
            dsa_cycles: 1,
            cycle: 3,
        });
        let text = m.report_text();
        assert!(text.contains("cache.dsa-cache.hit"));
        let v = crate::json::parse(&m.report_json()).expect("valid JSON");
        assert_eq!(
            v.get("counters").and_then(|c| c.get("cache.dsa-cache.hit")).and_then(|x| x.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn shared_handle_aggregates_across_clones() {
        let shared = Shared::new(MetricsRegistry::new());
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.record(&Event::LoopDetected { loop_id: 1, end_pc: 2, cycle: 0 });
        b.record(&Event::LoopDetected { loop_id: 1, end_pc: 2, cycle: 1 });
        assert_eq!(shared.with(|m| m.clone()).counter("loop.detected"), 2);
    }

    #[test]
    fn merge_at_bucket_boundaries_is_exact() {
        // Values sitting exactly on power-of-two bucket edges must land
        // in the same bucket whether recorded into one histogram or
        // recorded separately and merged.
        let edges: Vec<u64> = (0..BUCKETS as u32)
            .flat_map(|i| {
                let lo = 1u64 << i;
                [lo - 1, lo, lo + 1]
            })
            .collect();
        let mut whole = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, &v) in edges.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole, "merge must be exactly record-order-insensitive");
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert_eq!(left.sum(), whole.sum());
    }

    #[test]
    fn counter_add_saturates_instead_of_panicking() {
        let mut m = MetricsRegistry::new();
        m.add("big", u64::MAX - 1);
        m.add("big", 5);
        assert_eq!(m.counter("big"), u64::MAX);
        m.add("big", 1);
        assert_eq!(m.counter("big"), u64::MAX, "saturated counter must stay pinned");
        // Merging two saturating registries must not wrap either.
        let mut other = MetricsRegistry::new();
        other.add("big", u64::MAX);
        m.merge(&other);
        assert_eq!(m.counter("big"), u64::MAX);
    }

    #[test]
    fn histogram_merge_saturates_at_extremes() {
        let mut a = Histogram::default();
        a.record(u64::MAX);
        let mut sat = a;
        for _ in 0..4 {
            let copy = sat;
            sat.merge(&copy); // doubles count/buckets; sum saturates
        }
        assert_eq!(sat.count(), 16);
        assert_eq!(sat.sum(), u64::MAX, "sum must saturate, not wrap");
        assert_eq!(sat.max(), u64::MAX);
    }

    #[test]
    fn merge_of_empty_is_identity_both_ways() {
        let mut m = MetricsRegistry::new();
        m.record(&Event::LoopDetected { loop_id: 4, end_pc: 40, cycle: 10 });
        m.record(&Event::LoopClassified { loop_id: 4, class: LoopClass::Count, cycle: 12 });
        m.observe("x.cycles", 7);
        let before = m.clone();
        m.merge(&MetricsRegistry::new());
        assert_eq!(m, before, "merging an empty registry must change nothing");
        let mut empty = MetricsRegistry::new();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty registry must copy exactly");
        // Empty histograms (min = u64::MAX sentinel) merge as identity too.
        let mut h = Histogram::default();
        h.record(42);
        let with = h;
        h.merge(&Histogram::default());
        assert_eq!(h, with);
        assert_eq!(h.min(), 42);
    }

    #[test]
    fn drain_takes_the_delta() {
        let shared = Shared::new(MetricsRegistry::new());
        shared.with(|m| m.add("x", 2));
        let first = shared.with(std::mem::take);
        assert_eq!(first.counter("x"), 2);
        assert!(shared.with(|m| m.is_empty()), "drain must leave the registry empty");
        shared.with(|m| m.add("x", 5));
        let second = shared.with(std::mem::take);
        assert_eq!(second.counter("x"), 5, "second drain sees only the new delta");
    }
}
