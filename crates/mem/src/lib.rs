//! Memory hierarchy model: flat main memory plus set-associative LRU
//! caches with latency accounting.
//!
//! The hierarchy mirrors the paper's system setup (Table 4 of the
//! dissertation): 64 KB of L1 (split 32 KB I / 32 KB D), a 512 KB unified
//! L2, LRU replacement everywhere, and fixed hit/miss latencies. The
//! [`MemorySystem`] front-end returns the latency of each access in core
//! cycles and keeps per-level statistics, which feed both the CPU timing
//! model and the energy model.
//!
//! # Examples
//!
//! ```
//! use dsa_mem::{MainMemory, MemorySystem, MemoryConfig};
//!
//! let mut mem = MainMemory::new();
//! mem.write_u32(0x1000, 42);
//! assert_eq!(mem.read_u32(0x1000), 42);
//!
//! let mut sys = MemorySystem::new(MemoryConfig::default());
//! let cold = sys.access_data(0x1000, false);
//! let warm = sys.access_data(0x1000, false);
//! assert!(cold > warm); // first touch misses all the way to DRAM
//! ```

#![forbid(unsafe_code)]

mod cache;
mod memory;
mod system;

pub use cache::{Cache, CacheConfig, CacheStats, Lookup};
pub use memory::{MainMemory, PAGE_BYTES};
pub use system::{MemoryConfig, MemorySystem, MemoryStats};
