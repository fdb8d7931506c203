//! DSA statistics and the loop-type census.

use std::collections::BTreeMap;
use std::fmt;

pub use dsa_trace::LoopClass;

/// Census of the distinct loops observed in a run, by class — the data
/// behind Figure 7 of the DATE article ("Percentage of Loop Types in the
/// Selected Applications").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopCensus {
    by_class: BTreeMap<LoopClass, u32>,
}

impl LoopCensus {
    /// Records one loop of the given class.
    pub fn record(&mut self, class: LoopClass) {
        *self.by_class.entry(class).or_insert(0) += 1;
    }

    /// Number of distinct loops of `class`.
    pub fn count(&self, class: LoopClass) -> u32 {
        self.by_class.get(&class).copied().unwrap_or(0)
    }

    /// Total distinct loops.
    pub fn total(&self) -> u32 {
        self.by_class.values().sum()
    }

    /// Percentage of loops of `class` (0 when no loops were seen).
    pub fn percentage(&self, class: LoopClass) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.count(class) as f64 / self.total() as f64
        }
    }

    /// Iterates over `(class, count)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (LoopClass, u32)> + '_ {
        self.by_class.iter().map(|(&c, &n)| (c, n))
    }
}

/// Counters accumulated by the [`crate::Dsa`] engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsaStats {
    /// Dynamic loop entries observed (backward-branch loop detections).
    pub loops_detected: u64,
    /// Loop instances whose remaining iterations ran on the NEON engine.
    pub loops_vectorized: u64,
    /// DSA-cache hits (analysis skipped).
    pub dsa_cache_hits: u64,
    /// DSA-cache misses (full analysis performed).
    pub dsa_cache_misses: u64,
    /// Iterations whose scalar timing was replaced by vector execution.
    pub covered_iterations: u64,
    /// Vector/leftover operations injected into the Issue stage.
    pub injected_ops: u64,
    /// DSA-side cycles spent in detection (runs in parallel with the
    /// core; reported as the paper's "DSA latency", never added to the
    /// critical path).
    pub detection_cycles: u64,
    /// Loop Detection stage activations.
    pub stage_loop_detection: u64,
    /// Data Collection stage activations.
    pub stage_data_collection: u64,
    /// Dependency Analysis stage activations.
    pub stage_dependency_analysis: u64,
    /// Store ID/Execution stage activations.
    pub stage_store_id_execution: u64,
    /// Mapping stage activations (conditional loops).
    pub stage_mapping: u64,
    /// Speculative Execution stage activations.
    pub stage_speculative: u64,
    /// Verification-Cache accesses.
    pub vcache_accesses: u64,
    /// Array-Map accesses.
    pub array_map_accesses: u64,
    /// CIDP evaluations.
    pub cidp_evaluations: u64,
    /// Partial-vectorization chunks executed.
    pub partial_chunks: u64,
    /// Speculative vector work that was discarded (lanes computed past a
    /// sentinel exit or for unselected conditional arms).
    pub discarded_lanes: u64,
    /// Faults injected by an armed [`FaultPlan`](crate::FaultPlan).
    pub faults_injected: u64,
    /// Graceful degradations: internal inconsistencies the engine
    /// detected and answered by rolling back to scalar execution
    /// (includes every poison event).
    pub degradations: u64,
    /// Engine poisonings: impossible state-machine transitions
    /// ([`EngineError`](crate::EngineError)) after which the DSA detached
    /// itself and the run completed scalar-only.
    pub poison_events: u64,
}

impl DsaStats {
    /// Detection latency as a fraction of `total_cycles` (the paper's
    /// Table "DSA Detection Latency").
    pub fn detection_fraction(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.detection_cycles as f64 / total_cycles as f64
        }
    }

    /// The lower bound on [`DsaStats::detection_cycles`] implied by the
    /// activity counters under `cfg`'s latencies: every DSA-cache miss,
    /// Verification-Cache access, CIDP evaluation, Array-Map access,
    /// speculative select and partial-chunk re-verification carries a
    /// mandatory charge. Cache hits and template stores add on top, so
    /// a consistent engine always reports
    /// `detection_cycles >= structural_cycles_floor(cfg)` —
    /// [`crate::Dsa::stats`] checks this with a `debug_assert`.
    pub fn structural_cycles_floor(&self, cfg: &crate::DsaConfig) -> u64 {
        self.dsa_cache_misses * cfg.dsa_cache_latency as u64
            + self.vcache_accesses * cfg.vcache_latency as u64
            + self.cidp_evaluations * cfg.cidp_latency as u64
            + self.array_map_accesses * cfg.array_map_latency as u64
            + self.stage_speculative * cfg.select_latency as u64
            + self.partial_chunks * cfg.partial_chunk_latency as u64
    }

    /// Total stage activations across the six-stage machine.
    pub fn stage_activations(&self) -> u64 {
        self.stage_loop_detection
            + self.stage_data_collection
            + self.stage_dependency_analysis
            + self.stage_store_id_execution
            + self.stage_mapping
            + self.stage_speculative
    }
}

impl fmt::Display for DsaStats {
    /// One-line run summary (used by `all_experiments`' stderr report).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loops {}d/{}v, {} iters covered, {} ops injected, \
             cache {}h/{}m, dsa {} cyc over {} activations, \
             {} degraded ({} poisoned), {} faults",
            self.loops_detected,
            self.loops_vectorized,
            self.covered_iterations,
            self.injected_ops,
            self.dsa_cache_hits,
            self.dsa_cache_misses,
            self.detection_cycles,
            self.stage_activations(),
            self.degradations,
            self.poison_events,
            self.faults_injected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_percentages() {
        let mut c = LoopCensus::default();
        c.record(LoopClass::Count);
        c.record(LoopClass::Count);
        c.record(LoopClass::Sentinel);
        c.record(LoopClass::NonVectorizable);
        assert_eq!(c.total(), 4);
        assert_eq!(c.count(LoopClass::Count), 2);
        assert_eq!(c.percentage(LoopClass::Count), 50.0);
        assert_eq!(c.percentage(LoopClass::DynamicRange), 0.0);
        assert_eq!(c.iter().count(), 3);
    }

    #[test]
    fn detection_fraction_bounds() {
        let s = DsaStats { detection_cycles: 15, ..DsaStats::default() };
        assert_eq!(s.detection_fraction(1000), 0.015);
        assert_eq!(s.detection_fraction(0), 0.0);
    }

    #[test]
    fn class_display() {
        assert_eq!(LoopClass::DynamicRange.to_string(), "dynamic-range");
        assert_eq!(LoopClass::DynamicRange.name(), "dynamic-range");
    }

    #[test]
    fn structural_floor_counts_mandatory_charges() {
        let cfg = crate::DsaConfig::default();
        let s = DsaStats {
            dsa_cache_misses: 3,
            vcache_accesses: 10,
            cidp_evaluations: 2,
            array_map_accesses: 5,
            stage_speculative: 4,
            partial_chunks: 1,
            ..DsaStats::default()
        };
        let floor = s.structural_cycles_floor(&cfg);
        assert_eq!(
            floor,
            3 * cfg.dsa_cache_latency as u64
                + 10 * cfg.vcache_latency as u64
                + 2 * cfg.cidp_latency as u64
                + 5 * cfg.array_map_latency as u64
                + 4 * cfg.select_latency as u64
                + cfg.partial_chunk_latency as u64
        );
        // A consistent stats block satisfies the floor; a cycle count
        // below it is what the engine's debug_assert rejects.
        let consistent = DsaStats { detection_cycles: floor, ..s };
        assert!(consistent.detection_cycles >= consistent.structural_cycles_floor(&cfg));
        assert_eq!(DsaStats::default().structural_cycles_floor(&cfg), 0);
    }

    #[test]
    fn one_line_summary() {
        let s = DsaStats {
            loops_detected: 12,
            loops_vectorized: 9,
            covered_iterations: 3456,
            injected_ops: 789,
            stage_loop_detection: 12,
            stage_store_id_execution: 9,
            detection_cycles: 456,
            ..DsaStats::default()
        };
        let line = s.to_string();
        assert!(line.contains("12d/9v"));
        assert!(line.contains("3456 iters covered"));
        assert!(line.contains("over 21 activations"));
        assert!(!line.contains('\n'));
    }
}
