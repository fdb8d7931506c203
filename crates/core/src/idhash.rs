//! A fixed multiplicative hasher for the engine's `u32`-keyed tables:
//! loop ids ([`crate::DsaCache`], the loop census) and PCs (an
//! iteration's visited-PC set). The keys are program addresses the
//! simulator itself produces, never input crafted to collide, and the
//! tables are probed on hot detection paths where SipHash's per-lookup
//! cost showed up in profiles. Iteration order differs from the
//! default hasher's, so every table that is exported or printed is
//! sorted first (as it already had to be: the default hasher's order is
//! random per process).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing of one `u32` key; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold the high (well-mixed) bits into the low bits the table
        // indexes with.
        self.0 = h ^ (h >> 32);
    }
}

/// A map keyed by loop id or PC.
pub(crate) type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// A set of PCs.
pub type IdSet = HashSet<u32, BuildHasherDefault<IdHasher>>;
