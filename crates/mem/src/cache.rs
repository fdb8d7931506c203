//! Set-associative cache with true-LRU replacement.
//!
//! A line is a tag, a dirty bit and the tick of its last use. There is
//! no valid bit: the tick counter starts at 0 and is bumped before every
//! use, so a filled line always has `last_use >= 1` and an empty one has
//! `last_use == 0`. "Is this line valid" is then `last_use != 0`, and the
//! LRU victim, which must be an empty way when the set has one, is
//! simply the way with the smallest `last_use` (the first such way on a
//! tie, which only empty ways can have).

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a configuration, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two and
    /// `size_bytes` is divisible by `line_bytes * ways`.
    pub fn new(size_bytes: u32, line_bytes: u32, ways: u32) -> CacheConfig {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1, "associativity must be at least 1");
        assert_eq!(
            size_bytes % (line_bytes * ways),
            0,
            "capacity must divide into sets"
        );
        assert!(size_bytes / (line_bytes * ways) >= 1, "at least one set required");
        CacheConfig { size_bytes, line_bytes, ways }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Hit/miss statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `0.0..=1.0` (1.0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    dirty: bool,
    tag: u32,
    /// Tick of the last use; smallest = least recently used, 0 = empty
    /// (see the module docs).
    last_use: u64,
}

impl Line {
    #[inline(always)]
    fn holds(&self, tag: u32) -> bool {
        self.tag == tag && self.last_use != 0
    }
}

/// Index of the LRU way of `set`: the smallest `last_use`, so an empty
/// way (0) before any filled one, and the first on a tie.
#[inline(always)]
fn victim(set: &[Line]) -> usize {
    let mut best = 0;
    for (w, line) in set.iter().enumerate().skip(1) {
        if line.last_use < set[best].last_use {
            best = w;
        }
    }
    best
}

/// One level of a write-back, write-allocate cache with true-LRU
/// replacement. The cache is a tag store only — data lives in
/// [`crate::MainMemory`]; this models timing and occupancy, which is all
/// the simulator needs.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)` — line size is validated to be a power of two.
    line_shift: u32,
    /// Set count, cached so the per-access index math never re-divides
    /// the geometry.
    sets: u32,
    /// `Some((set_mask, set_shift))` when the set count is a power of
    /// two (every realistic geometry): the per-access set/tag split is
    /// then two shifts and a mask instead of two integer divisions.
    set_pow2: Option<(u32, u32)>,
    lines: Vec<Line>,
    /// `mru[set]`: absolute index into `lines` of the set's most
    /// recently hit (or filled) way — a way-prediction fast path. Purely
    /// a host-side accelerator: a stale entry at worst wastes one tag
    /// compare before the full scan, never changes hit/miss outcomes,
    /// LRU ordering, or statistics.
    mru: Vec<u32>,
    tick: u64,
    stats: CacheStats,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty victim had to be written back.
    pub writeback: bool,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let total_lines = (sets * config.ways) as usize;
        let set_pow2 = sets
            .is_power_of_two()
            .then(|| (sets - 1, sets.trailing_zeros()));
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            sets,
            set_pow2,
            lines: vec![Line::default(); total_lines],
            mru: (0..sets).map(|s| s * config.ways).collect(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_of(&self, addr: u32) -> usize {
        let line = addr >> self.line_shift;
        match self.set_pow2 {
            Some((mask, _)) => (line & mask) as usize,
            None => (line % self.sets) as usize,
        }
    }

    #[inline]
    fn set_range(&self, addr: u32) -> (usize, usize) {
        let start = self.set_of(addr) * self.config.ways as usize;
        (start, start + self.config.ways as usize)
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        let line = addr >> self.line_shift;
        match self.set_pow2 {
            Some((_, shift)) => line >> shift,
            None => line / self.sets,
        }
    }

    /// Performs an access, allocating on miss; returns hit/writeback info.
    /// Always inlined: the timing replay calls it for every fetch group
    /// and data access, and the call itself cost more than a hit.
    #[inline(always)]
    pub fn access(&mut self, addr: u32, write: bool) -> Lookup {
        self.tick += 1;
        let tag = self.tag_of(addr);
        let set_idx = self.set_of(addr);
        let start = set_idx * self.config.ways as usize;
        let end = start + self.config.ways as usize;
        // Way prediction: check the set's most recently hit way first.
        // Hot loops overwhelmingly re-hit that way, and the single
        // compare avoids the variable-trip-count scan below, whose exit
        // branch mispredicts whenever successive accesses to a set land
        // in different ways.
        let m = self.mru[set_idx] as usize;
        if let Some(line) = self.lines.get_mut(m) {
            if line.holds(tag) {
                line.last_use = self.tick;
                line.dirty |= write;
                self.stats.hits += 1;
                return Lookup { hit: true, writeback: false };
            }
        }
        // Predicted way missed: full scan of the set.
        let set = &mut self.lines[start..end];
        for (w, line) in set.iter_mut().enumerate() {
            if line.holds(tag) {
                line.last_use = self.tick;
                line.dirty |= write;
                self.stats.hits += 1;
                self.mru[set_idx] = (start + w) as u32;
                return Lookup { hit: true, writeback: false };
            }
        }
        // Miss: replace the LRU way (an empty one first).
        self.stats.misses += 1;
        let victim = victim(set);
        // An empty line is never dirty (`flush` clears both together).
        let evicted_dirty = set[victim].dirty;
        set[victim] = Line { dirty: write, tag, last_use: self.tick };
        self.mru[set_idx] = (start + victim) as u32;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        Lookup { hit: false, writeback: evicted_dirty }
    }

    /// Records `n` additional hits to the already-resident line containing
    /// `addr` without re-walking the tag store.
    ///
    /// This is the batched form of calling [`Cache::access`] `n` times on
    /// the same line with nothing in between: after the first access the
    /// line is MRU, so repeats hit, and collapsing them preserves the
    /// relative `last_use` ordering among distinct lines (the only thing
    /// LRU victim selection consults — tick *values* diverge, but
    /// `min_by_key` only compares). Statistics come out identical.
    ///
    /// Caller must guarantee residency (the simulator's superblock fast
    /// path does: within a block, same-line follower fetches come
    /// straight after the leader in the L1I, and interleaved *data*
    /// accesses go to the separate L1D, so nothing can evict the line
    /// between the fetches).
    #[inline]
    pub fn count_hits(&mut self, addr: u32, n: u64) {
        debug_assert!(self.probe(addr), "count_hits on a non-resident line");
        self.stats.hits += n;
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no statistics update).
    pub fn probe(&self, addr: u32) -> bool {
        let tag = self.tag_of(addr);
        let (start, end) = self.set_range(addr);
        self.lines[start..end].iter().any(|l| l.holds(tag))
    }

    /// Installs the line containing `addr` without touching statistics —
    /// models data made resident by an earlier program phase (input
    /// generation / file load).
    pub fn warm(&mut self, addr: u32) {
        self.tick += 1;
        let tag = self.tag_of(addr);
        let (start, end) = self.set_range(addr);
        let set = &mut self.lines[start..end];
        if set.iter().any(|l| l.holds(tag)) {
            return;
        }
        let victim = victim(set);
        set[victim] = Line { dirty: false, tag, last_use: self.tick };
    }

    /// Invalidates all lines (statistics are kept).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B
        Cache::new(CacheConfig::new(128, 16, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(64 * 1024, 64, 4);
        assert_eq!(c.sets(), 256);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = CacheConfig::new(100, 16, 2);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x4C, false).hit, "same 16B line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets*line = 4*16 = 64).
        c.access(0, false); // A
        c.access(64, false); // B
        c.access(0, false); // touch A -> B is LRU
        c.access(128, false); // C evicts B
        assert!(c.probe(0), "A resident");
        assert!(!c.probe(64), "B evicted");
        assert!(c.probe(128), "C resident");
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        c.access(0, true); // dirty A
        c.access(64, false); // B
        c.access(128, false); // evicts A (LRU), dirty -> writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0, false);
        assert!(c.probe(0));
        c.flush();
        assert!(!c.probe(0));
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn count_hits_matches_repeated_access() {
        // Batched accounting must equal n real same-line accesses: same
        // stats, and the same victim decisions afterwards.
        let mut step = small();
        let mut batched = small();
        step.access(0x40, false);
        batched.access(0x40, false);
        for _ in 0..7 {
            step.access(0x44, false);
        }
        batched.count_hits(0x44, 7);
        assert_eq!(step.stats(), batched.stats());
        // Fill the set so LRU decisions matter (set stride = 64).
        for &a in &[0x40 + 64, 0x40 + 128, 0x40 + 192] {
            step.access(a, false);
            batched.access(a, false);
        }
        assert_eq!(step.probe(0x40), batched.probe(0x40));
        assert_eq!(step.stats(), batched.stats());
    }

    #[test]
    fn non_pow2_sets_use_division_fallback() {
        // 3 sets x 2 ways x 16B lines = 96 B: exercises the non-pow2
        // modulo path end to end (index, tag, LRU, probe).
        let mut c = Cache::new(CacheConfig::new(96, 16, 2));
        assert_eq!(c.config().sets(), 3);
        // Set stride = 3 * 16 = 48; 0 and 48 share set 0, distinct tags.
        assert!(!c.access(0, false).hit);
        assert!(!c.access(48, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(48, false).hit);
        c.access(96, false); // third line in set 0 evicts LRU (addr 0)
        assert!(!c.probe(0));
        assert!(c.probe(48));
        assert!(c.probe(96));
        // Different set: 16 maps to set 1, untouched by the above.
        assert!(!c.access(16, false).hit);
        assert!(c.access(16, false).hit);
    }

    #[test]
    fn hit_rate_monotonic_in_size() {
        // A larger cache never has a lower hit-count on the same trace.
        let trace: Vec<u32> = (0..2000u32).map(|i| (i * 97) % 4096).collect();
        let mut prev_hits = 0;
        for size in [128u32, 256, 512, 1024, 4096] {
            let mut c = Cache::new(CacheConfig::new(size, 16, 2));
            for &a in &trace {
                c.access(a, false);
            }
            assert!(c.stats().hits >= prev_hits, "size {size}");
            prev_hits = c.stats().hits;
        }
    }

    /// The cache as it was before the valid bit was folded into
    /// `last_use`: an explicit `valid` flag, and victims chosen by
    /// `(valid, last_use)` (an invalid way first, else true LRU). Kept as
    /// the reference the folded cache must reproduce exactly.
    struct ValidBitCache {
        config: CacheConfig,
        lines: Vec<(bool, bool, u32, u64)>, // (valid, dirty, tag, last_use)
        tick: u64,
        stats: CacheStats,
    }

    impl ValidBitCache {
        fn new(config: CacheConfig) -> ValidBitCache {
            let lines = vec![(false, false, 0, 0); (config.sets() * config.ways) as usize];
            ValidBitCache { config, lines, tick: 0, stats: CacheStats::default() }
        }

        fn set(&mut self, addr: u32) -> (&mut [(bool, bool, u32, u64)], u32) {
            let line = addr / self.config.line_bytes;
            let (set, tag) = (line % self.config.sets(), line / self.config.sets());
            let ways = self.config.ways as usize;
            (&mut self.lines[set as usize * ways..][..ways], tag)
        }

        fn fill(set: &mut [(bool, bool, u32, u64)], tag: u32, dirty: bool, tick: u64) -> bool {
            let (victim, _) =
                set.iter().enumerate().min_by_key(|(_, l)| (l.0, l.3)).expect("non-empty set");
            let evicted_dirty = set[victim].0 && set[victim].1;
            set[victim] = (true, dirty, tag, tick);
            evicted_dirty
        }

        fn access(&mut self, addr: u32, write: bool) -> Lookup {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set(addr);
            if let Some(l) = set.iter_mut().find(|l| l.0 && l.2 == tag) {
                l.3 = tick;
                l.1 |= write;
                self.stats.hits += 1;
                return Lookup { hit: true, writeback: false };
            }
            let writeback = Self::fill(set, tag, write, tick);
            self.stats.misses += 1;
            self.stats.writebacks += u64::from(writeback);
            Lookup { hit: false, writeback }
        }

        fn warm(&mut self, addr: u32) {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set(addr);
            if !set.iter().any(|l| l.0 && l.2 == tag) {
                Self::fill(set, tag, false, tick);
            }
        }

        fn probe(&mut self, addr: u32) -> bool {
            let (set, tag) = self.set(addr);
            set.iter().any(|l| l.0 && l.2 == tag)
        }

        fn flush(&mut self) {
            self.lines.iter_mut().for_each(|l| *l = (false, false, 0, 0));
        }
    }

    #[test]
    fn folded_valid_bit_matches_the_valid_bit_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let geometries = [
            CacheConfig::new(128, 16, 2),  // 4 sets x 2 ways
            CacheConfig::new(96, 16, 2),   // 3 sets: the division path
            CacheConfig::new(64, 16, 1),   // direct-mapped
            CacheConfig::new(512, 16, 8),  // 4 sets x 8 ways
            CacheConfig::new(64, 64, 1),   // one line
            CacheConfig::new(2048, 64, 4), // 8 sets x 4 ways
        ];
        for (g, &config) in geometries.iter().enumerate() {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed * 16 + g as u64);
                let mut cache = Cache::new(config);
                let mut want = ValidBitCache::new(config);
                // A working set a few times the capacity, so sets fill,
                // evict and re-hit; tag 0 (address 0 upward) included.
                let span = config.size_bytes * 3;
                for step in 0..4000 {
                    let addr = rng.gen_range(0..span);
                    let what = format!("geometry {g} seed {seed} step {step} addr {addr:#x}");
                    match rng.gen_range(0..20u32) {
                        0 => {
                            cache.flush();
                            want.flush();
                        }
                        1..=3 => {
                            cache.warm(addr);
                            want.warm(addr);
                        }
                        4 => {
                            // A same-line repeat, as the block path batches them.
                            let first = cache.access(addr, false);
                            assert_eq!(first, want.access(addr, false), "{what}");
                            cache.count_hits(addr, 3);
                            for _ in 0..3 {
                                want.access(addr, false);
                            }
                        }
                        _ => {
                            let write = rng.gen_bool();
                            assert_eq!(cache.access(addr, write), want.access(addr, write), "{what}");
                        }
                    }
                    assert_eq!(cache.stats(), want.stats, "{what}");
                    let probe = rng.gen_range(0..span);
                    assert_eq!(cache.probe(probe), want.probe(probe), "probe {probe:#x}: {what}");
                }
            }
        }
    }
}
