//! DSA configuration: feature set, structure sizes, stage latencies.

use crate::faults::FaultPlan;

/// Which loop classes the DSA can vectorize.
///
/// The three presets reproduce the three publications:
/// [`FeatureSet::original`] (SBCCI 2018), [`FeatureSet::extended`]
/// (SBESC 2018, adds conditional and dynamic-range loops) and
/// [`FeatureSet::full`] (DATE 2019, adds sentinel loops and partial
/// vectorization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSet {
    /// Count loops (fixed trip).
    pub count_loops: bool,
    /// Loops whose body calls a function.
    pub function_loops: bool,
    /// Reuse of cached verdicts across loop-nest re-entries.
    pub loop_nests: bool,
    /// Loops with conditional code (speculative Array-Map execution).
    pub conditional_loops: bool,
    /// Dynamic range loops (trip computed at runtime before the loop).
    pub dynamic_range_loops: bool,
    /// Sentinel loops (stop condition computed inside the loop).
    pub sentinel_loops: bool,
    /// Partial vectorization of loops with cross-iteration dependencies.
    pub partial_vectorization: bool,
}

impl FeatureSet {
    /// The original DSA of Article 1 (SBCCI 2018).
    pub fn original() -> FeatureSet {
        FeatureSet {
            count_loops: true,
            function_loops: true,
            loop_nests: true,
            conditional_loops: false,
            dynamic_range_loops: false,
            sentinel_loops: false,
            partial_vectorization: false,
        }
    }

    /// The extended DSA of Article 2 (SBESC 2018).
    pub fn extended() -> FeatureSet {
        FeatureSet {
            conditional_loops: true,
            dynamic_range_loops: true,
            ..FeatureSet::original()
        }
    }

    /// The full DSA of Article 3 (DATE 2019).
    pub fn full() -> FeatureSet {
        FeatureSet {
            sentinel_loops: true,
            partial_vectorization: true,
            ..FeatureSet::extended()
        }
    }
}

impl Default for FeatureSet {
    fn default() -> FeatureSet {
        FeatureSet::full()
    }
}

/// A deliberately planted detector bug, armed only by the fuzzing
/// harness to prove its campaigns can catch real divergences.
///
/// Unlike [`FaultPlan`](crate::FaultPlan) faults — which the engine is
/// *supposed* to detect and degrade from — a test bug models a logic
/// error in the DSA layer itself: the run completes "successfully" but
/// the architectural state is silently wrong. `None` in every normal
/// configuration; only `dsa-forge` campaigns and their regression
/// replays ever set it.
///
/// The bug is planted in the snapshot-restore path rather than the
/// vectorization path because the simulator, like the paper, models
/// vectorization as *timing substitution*: covered iterations still
/// execute architecturally on the scalar core, so the detector cannot
/// corrupt state during a normal run by construction. Snapshot restore
/// is the one pathway where the DSA layer rebuilds architectural state
/// from its own serialization — exactly where a silent logic error
/// would live, and exactly what the campaign's kill→resume phase
/// exists to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestBug {
    /// Flip the low bit of the first byte of the lowest allocated page
    /// when restoring a machine from a snapshot. One bit of one input
    /// element, silently wrong after every resume — invisible to the
    /// engine's own checks, caught only by differential comparison.
    CorruptRestore,
}

impl TestBug {
    /// Stable artifact name.
    pub fn name(self) -> &'static str {
        match self {
            TestBug::CorruptRestore => "corrupt-restore",
        }
    }

    /// Parses a stable artifact name.
    pub fn by_name(name: &str) -> Option<TestBug> {
        match name {
            "corrupt-restore" => Some(TestBug::CorruptRestore),
            _ => None,
        }
    }
}

/// How leftover iterations (trip not a lane multiple) are executed
/// (dissertation §4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeftoverPolicy {
    /// Pick per situation: Overlapping when the trip fills at least one
    /// full vector and the operation tolerates recomputation, otherwise
    /// Single Elements.
    Auto,
    /// Load, process and store each remaining element individually.
    SingleElements,
    /// Re-process a few trailing elements so the last vector is full.
    Overlapping,
    /// Pad the array to the next lane multiple and run one extra vector.
    LargerArrays,
}

/// Full DSA configuration. Defaults reproduce the paper's setup
/// (Table 4): 8 KB DSA cache, 1 KB Verification Cache, four 128-bit
/// Array Maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsaConfig {
    /// Enabled loop classes.
    pub features: FeatureSet,
    /// DSA cache capacity in bytes.
    pub dsa_cache_bytes: u32,
    /// Verification Cache capacity in bytes.
    pub vcache_bytes: u32,
    /// Number of 128-bit Array Maps for conditional speculation.
    pub array_maps: u32,
    /// Spare NEON registers usable when Array Maps run out.
    pub spare_vector_regs: u32,
    /// Core cycles to flush the pipeline before NEON execution starts.
    pub flush_latency: u32,
    /// Core cycles to restart the frontend after NEON execution.
    pub resync_latency: u32,
    /// DSA-side latency of one DSA-cache access (parallel to the core).
    pub dsa_cache_latency: u32,
    /// DSA-side latency of one Verification-Cache access.
    pub vcache_latency: u32,
    /// DSA-side latency of one CIDP evaluation (per stream pair).
    pub cidp_latency: u32,
    /// DSA-side latency of one Array-Map access.
    pub array_map_latency: u32,
    /// DSA-side latency of the speculative select at each chunk end.
    pub select_latency: u32,
    /// DSA-side latency of re-verifying dependencies per partial chunk.
    pub partial_chunk_latency: u32,
    /// Iteration budget for mapping a conditional loop before giving up.
    pub conditional_analysis_limit: u32,
    /// Minimum remaining iterations worth flushing the pipeline for; a
    /// smaller remainder finishes scalar (vectorization would cost more
    /// than it saves).
    pub min_profitable_iterations: u32,
    /// Leftover strategy.
    pub leftover: LeftoverPolicy,
    /// Optional deterministic fault-injection schedule (robustness
    /// testing only; `None` in every normal configuration).
    pub faults: Option<FaultPlan>,
    /// Optional planted detector bug (fuzz-harness self-test only;
    /// `None` in every normal configuration). See [`TestBug`].
    pub test_bug: Option<TestBug>,
}

impl Default for DsaConfig {
    fn default() -> DsaConfig {
        DsaConfig {
            features: FeatureSet::full(),
            dsa_cache_bytes: 8 * 1024,
            vcache_bytes: 1024,
            array_maps: 4,
            spare_vector_regs: 4,
            flush_latency: 10,
            resync_latency: 4,
            dsa_cache_latency: 1,
            vcache_latency: 1,
            cidp_latency: 2,
            array_map_latency: 1,
            select_latency: 2,
            partial_chunk_latency: 3,
            conditional_analysis_limit: 64,
            min_profitable_iterations: 8,
            leftover: LeftoverPolicy::Auto,
            faults: None,
            test_bug: None,
        }
    }
}

impl DsaConfig {
    /// Configuration for the original DSA (Article 1).
    pub fn original() -> DsaConfig {
        DsaConfig { features: FeatureSet::original(), ..DsaConfig::default() }
    }

    /// Configuration for the extended DSA (Article 2).
    pub fn extended() -> DsaConfig {
        DsaConfig { features: FeatureSet::extended(), ..DsaConfig::default() }
    }

    /// Configuration for the full DSA (Article 3 / DATE 2019).
    pub fn full() -> DsaConfig {
        DsaConfig::default()
    }

    /// The same configuration with a fault-injection schedule armed.
    pub fn with_faults(self, plan: FaultPlan) -> DsaConfig {
        DsaConfig { faults: Some(plan), ..self }
    }

    /// The same configuration with a planted detector bug armed
    /// (fuzz-harness self-test only).
    pub fn with_test_bug(self, bug: TestBug) -> DsaConfig {
        DsaConfig { test_bug: Some(bug), ..self }
    }

    /// Digest of the configuration: FNV-1a over the `Debug` rendering
    /// (`DsaConfig` is plain data with a stable field-by-field format),
    /// with the fault plan neutralized first. Faults alter timing, never
    /// persistent engine state, so a snapshot captured under an armed
    /// plan restores into the clean configuration. Snapshot images and
    /// the serve result store key on it.
    pub fn fingerprint(&self) -> u64 {
        let neutral = DsaConfig { faults: None, ..*self };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{neutral:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_coverage() {
        let o = FeatureSet::original();
        let e = FeatureSet::extended();
        let f = FeatureSet::full();
        assert!(!o.conditional_loops && e.conditional_loops && f.conditional_loops);
        assert!(!o.sentinel_loops && !e.sentinel_loops && f.sentinel_loops);
        assert!(!e.partial_vectorization && f.partial_vectorization);
        assert!(o.count_loops && o.function_loops && o.loop_nests);
    }

    #[test]
    fn test_bug_is_off_by_default_and_names_round_trip() {
        assert_eq!(DsaConfig::default().test_bug, None);
        assert_eq!(DsaConfig::full().with_faults(FaultPlan::all(1)).test_bug, None);
        let armed = DsaConfig::full().with_test_bug(TestBug::CorruptRestore);
        assert_eq!(armed.test_bug, Some(TestBug::CorruptRestore));
        assert_eq!(TestBug::by_name(TestBug::CorruptRestore.name()), Some(TestBug::CorruptRestore));
        assert_eq!(TestBug::by_name("no-such-bug"), None);
    }

    #[test]
    fn fingerprint_neutralizes_faults() {
        let base = DsaConfig::default();
        let with_faults = base.with_faults(FaultPlan::all(7));
        assert_eq!(base.fingerprint(), with_faults.fingerprint());
        let bigger = DsaConfig { dsa_cache_bytes: 16 * 1024, ..base };
        assert_ne!(base.fingerprint(), bigger.fingerprint());
    }

    #[test]
    fn default_matches_paper_table() {
        let c = DsaConfig::default();
        assert_eq!(c.dsa_cache_bytes, 8 * 1024);
        assert_eq!(c.vcache_bytes, 1024);
        assert_eq!(c.array_maps, 4);
    }
}
