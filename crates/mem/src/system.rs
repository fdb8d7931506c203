//! The two-level memory system front-end used by the CPU model.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Configuration of the whole memory system.
///
/// The default matches the paper's setup: 64 KB of L1 split into 32 KB
/// instruction and 32 KB data caches, a 512 KB unified L2, LRU
/// replacement, with 2/12/100-cycle L1/L2/DRAM latencies at 1 GHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit latency, cycles.
    pub l1_latency: u32,
    /// L2 hit latency, cycles (total, on L1 miss).
    pub l2_latency: u32,
    /// DRAM latency, cycles (total, on L2 miss).
    pub dram_latency: u32,
}

impl Default for MemoryConfig {
    fn default() -> MemoryConfig {
        MemoryConfig {
            l1i: CacheConfig::new(32 * 1024, 64, 4),
            l1d: CacheConfig::new(32 * 1024, 64, 4),
            l2: CacheConfig::new(512 * 1024, 64, 8),
            l1_latency: 2,
            l2_latency: 12,
            dram_latency: 100,
        }
    }
}

/// Per-level access statistics for the whole system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 statistics (instruction + data refills).
    pub l2: CacheStats,
    /// Number of DRAM accesses (L2 misses plus dirty writebacks).
    pub dram_accesses: u64,
}

/// The L1I/L1D/L2/DRAM hierarchy. Returns the latency of every access and
/// records statistics; data contents live in [`crate::MainMemory`].
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemoryConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram_accesses: u64,
}

impl MemorySystem {
    /// Creates an empty (cold) memory system.
    pub fn new(config: MemoryConfig) -> MemorySystem {
        MemorySystem {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            dram_accesses: 0,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Performs a data access (load or store) and returns its latency in
    /// cycles. Always inlined, with the cache walks inside it, so that the
    /// timing replay runs the whole walk in line.
    #[inline(always)]
    pub fn access_data(&mut self, addr: u32, write: bool) -> u32 {
        let l1 = self.l1d.access(addr, write);
        if l1.writeback {
            // Dirty victim drains into L2.
            let wb = self.l2.access(addr, true);
            if wb.writeback {
                self.dram_accesses += 1;
            }
        }
        if l1.hit {
            return self.config.l1_latency;
        }
        let l2 = self.l2.access(addr, false);
        if l2.writeback {
            self.dram_accesses += 1;
        }
        if l2.hit {
            self.config.l2_latency
        } else {
            self.dram_accesses += 1;
            self.config.dram_latency
        }
    }

    /// Performs an instruction fetch and returns its latency in cycles
    /// (always inlined, as [`MemorySystem::access_data`]).
    #[inline(always)]
    pub fn access_instr(&mut self, addr: u32) -> u32 {
        let l1 = self.l1i.access(addr, false);
        if l1.hit {
            return self.config.l1_latency;
        }
        let l2 = self.l2.access(addr, false);
        if l2.writeback {
            self.dram_accesses += 1;
        }
        if l2.hit {
            self.config.l2_latency
        } else {
            self.dram_accesses += 1;
            self.config.dram_latency
        }
    }

    /// Records `extra` repeat fetches of the instruction line containing
    /// `addr`, each a guaranteed L1I hit at `l1_latency`.
    ///
    /// Companion to [`MemorySystem::access_instr`] for the superblock fast
    /// path: after fetching the first instruction of a straight-line group
    /// the line is resident, and interleaved block traffic cannot evict it
    /// — data accesses touch the L1D, never the L1I, and the follower
    /// fetches, being hits, never reach the shared L2 — so the remaining
    /// same-line fetches are hits by construction (and the L2 access
    /// order is exactly the stepped one). See [`Cache::count_hits`] for
    /// why the collapsed accounting is bit-identical to `extra` real
    /// accesses.
    #[inline]
    pub fn count_instr_repeats(&mut self, addr: u32, extra: u64) {
        self.l1i.count_hits(addr, extra);
    }

    /// Accumulated statistics across all levels.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            dram_accesses: self.dram_accesses,
        }
    }

    /// Resets statistics but keeps cache contents warm.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.dram_accesses = 0;
    }

    /// Makes `[base, base+len)` resident in the L2 (not the L1s) without
    /// charging statistics — the state a workload's inputs are in after
    /// the program's input phase produced them.
    pub fn warm_region(&mut self, base: u32, len: u32) {
        let line = self.config.l2.line_bytes;
        let mut addr = base & !(line - 1);
        while addr < base.saturating_add(len) {
            self.l2.warm(addr);
            addr += line;
        }
    }

    /// Invalidates every cache (cold restart).
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_by_level() {
        let mut sys = MemorySystem::new(MemoryConfig::default());
        let cfg = sys.config();
        // Cold: DRAM.
        assert_eq!(sys.access_data(0x8000, false), cfg.dram_latency);
        // Warm in L1.
        assert_eq!(sys.access_data(0x8000, false), cfg.l1_latency);
        // Evict from a tiny L1 to exercise the L2 path.
        let mut small = MemorySystem::new(MemoryConfig {
            l1d: CacheConfig::new(128, 64, 1),
            ..MemoryConfig::default()
        });
        small.access_data(0, false); // set 0, DRAM
        small.access_data(128, false); // set 0, evicts line 0 in L1, DRAM
        assert_eq!(small.access_data(0, false), small.config().l2_latency);
    }

    #[test]
    fn instruction_path_separate_from_data() {
        let mut sys = MemorySystem::new(MemoryConfig::default());
        sys.access_instr(0);
        sys.access_data(0, false);
        let s = sys.stats();
        assert_eq!(s.l1i.misses, 1);
        assert_eq!(s.l1d.misses, 1);
        // Second L2 access hits (shared line fetched by the instr path).
        assert_eq!(s.l2.hits, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.dram_accesses, 1);
    }

    #[test]
    fn dirty_writeback_reaches_l2() {
        let mut sys = MemorySystem::new(MemoryConfig {
            l1d: CacheConfig::new(64, 64, 1),
            ..MemoryConfig::default()
        });
        sys.access_data(0, true); // dirty line 0
        sys.access_data(64, false); // evicts dirty line -> L2 write
        let s = sys.stats();
        assert_eq!(s.l1d.writebacks, 1);
        assert!(s.l2.accesses() >= 3, "two refills plus one writeback");
    }

    #[test]
    fn instr_repeats_match_stepped_fetches() {
        let mut step = MemorySystem::new(MemoryConfig::default());
        let mut batched = MemorySystem::new(MemoryConfig::default());
        // Fetch a 4-instruction group on one 64B line the way the two
        // interpreter modes do: four accesses vs one access + 3 repeats.
        for pc in 0u32..4 {
            step.access_instr(pc * 4);
        }
        batched.access_instr(0);
        batched.count_instr_repeats(0, 3);
        assert_eq!(step.stats(), batched.stats());
    }

    #[test]
    fn flush_makes_cold() {
        let mut sys = MemorySystem::new(MemoryConfig::default());
        sys.access_data(0, false);
        sys.flush();
        assert_eq!(sys.access_data(0, false), sys.config().dram_latency);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut sys = MemorySystem::new(MemoryConfig::default());
        sys.access_data(0, false);
        sys.reset_stats();
        assert_eq!(sys.stats().l1d.accesses(), 0);
        assert_eq!(sys.access_data(0, false), sys.config().l1_latency);
    }
}
