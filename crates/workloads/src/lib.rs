//! The benchmark suite: the seven applications of the paper's
//! evaluation, rebuilt with the same loop and DLP structure, plus
//! microkernels for every loop class.
//!
//! Each workload builds in any of the three compiler [`Variant`]s
//! (Scalar = "ARM Original", AutoVec, HandVec) — the DSA runs on top of
//! the Scalar build. Every workload ships a Rust *reference
//! implementation* whose result is checksummed; all four systems must
//! reproduce it bit-exactly, which the integration tests assert.
//!
//! | Workload | DLP | Loop classes |
//! |----------|-----|--------------|
//! | [`WorkloadId::MatMul`] | high | count loops in a nest (saxpy form) |
//! | [`WorkloadId::RgbGray`] | high | one large count loop |
//! | [`WorkloadId::Gaussian`] | high | two windowed count loops |
//! | [`WorkloadId::SusanEdges`] | medium | conditional + count + non-vectorizable |
//! | [`WorkloadId::QSort`] | low | irregular control, tiny count loops |
//! | [`WorkloadId::Dijkstra`] | low/dynamic | conditional (relax) + non-vectorizable |
//! | [`WorkloadId::BitCounts`] | dynamic | conditional dynamic-range loops |
//!
//! # Examples
//!
//! ```
//! use dsa_workloads::{build, Scale, WorkloadId};
//! use dsa_compiler::Variant;
//! use dsa_cpu::{CpuConfig, Simulator};
//!
//! let w = build(WorkloadId::RgbGray, Variant::Scalar, Scale::Small);
//! let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
//! (w.init)(sim.machine_mut());
//! let outcome = sim.run(50_000_000).expect("runs");
//! assert!(outcome.halted);
//! assert!(w.check(sim.machine()), "matches the reference result");
//! ```

#![forbid(unsafe_code)]

mod bitcounts;
mod data;
mod dijkstra;
mod gaussian;
mod matmul;
pub mod micro;
mod qsort;
mod rgb_gray;
mod susan;

use dsa_compiler::{Kernel, Variant};
use dsa_cpu::{CpuConfig, Machine, Simulator};
use dsa_trace::WorkloadName;

/// The seven applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Matrix multiply 64×64 (f32, saxpy formulation).
    MatMul,
    /// RGB → grayscale conversion (fixed point).
    RgbGray,
    /// 3-tap Gaussian blur, two passes.
    Gaussian,
    /// SUSAN-style edge thresholding.
    SusanEdges,
    /// Iterative quicksort.
    QSort,
    /// Dijkstra single-source shortest paths (dense).
    Dijkstra,
    /// Bit counting over a runtime-sized buffer.
    BitCounts,
}

impl WorkloadId {
    /// All workloads in the paper's presentation order.
    pub fn all() -> [WorkloadId; 7] {
        [
            WorkloadId::MatMul,
            WorkloadId::RgbGray,
            WorkloadId::Gaussian,
            WorkloadId::SusanEdges,
            WorkloadId::QSort,
            WorkloadId::Dijkstra,
            WorkloadId::BitCounts,
        ]
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        self.word().name()
    }

    /// The name as a trace word.
    pub fn word(self) -> WorkloadName {
        match self {
            WorkloadId::MatMul => WorkloadName::MatMul,
            WorkloadId::RgbGray => WorkloadName::RgbGray,
            WorkloadId::Gaussian => WorkloadName::Gaussian,
            WorkloadId::SusanEdges => WorkloadName::SusanEdges,
            WorkloadId::QSort => WorkloadName::QSort,
            WorkloadId::Dijkstra => WorkloadName::Dijkstra,
            WorkloadId::BitCounts => WorkloadName::BitCounts,
        }
    }
}

/// Problem size selector: `Paper` matches the evaluation, `Small` keeps
/// debug-build tests fast, and `Medium`/`Large` bracket the paper sizes
/// for sensitivity runs (`inspect --scale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Reduced sizes for unit/integration tests.
    Small,
    /// Between `Small` and `Paper`: quick interactive runs.
    Medium,
    /// The sizes used by the experiment harness.
    Paper,
    /// Beyond the paper sizes: stresses cache capacity and long traces.
    Large,
}

impl Scale {
    /// Parses a CLI spelling (`small`, `medium`, `paper`, `large`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
            Scale::Large => "large",
        }
    }
}

type InitFn = Box<dyn Fn(&mut Machine) + Send + Sync>;

/// A workload lowered for one compiler variant, with its data
/// initialiser and golden result.
pub struct BuiltWorkload {
    /// The lowered kernel.
    pub kernel: Kernel,
    /// Writes the input data into machine memory.
    pub init: InitFn,
    /// Output region `(base, len_bytes)` checked against the reference.
    pub out_region: (u32, u32),
    /// Checksum of the reference implementation's output.
    pub expected: u64,
}

impl std::fmt::Debug for BuiltWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltWorkload")
            .field("variant", &self.kernel.variant)
            .field("out_region", &self.out_region)
            .field("expected", &self.expected)
            .finish_non_exhaustive()
    }
}

impl BuiltWorkload {
    /// A simulator on `cfg` loaded with this workload's inputs. The
    /// input buffers are L2-resident, as left behind by the input phase
    /// that produced them: every measured run starts from this state.
    pub fn simulator(&self, cfg: CpuConfig) -> Simulator {
        let mut sim = Simulator::new(self.kernel.program.clone(), cfg);
        (self.init)(sim.machine_mut());
        for buf in self.kernel.layout.bufs() {
            sim.warm_region(buf.base, buf.size_bytes());
        }
        sim
    }

    /// Whether the machine's output region matches the reference result.
    pub fn check(&self, machine: &Machine) -> bool {
        self.actual(machine) == self.expected
    }

    /// Checksum of the machine's output region.
    pub fn actual(&self, machine: &Machine) -> u64 {
        checksum(machine, self.out_region.0, self.out_region.1)
    }
}

/// FNV-1a checksum of a memory region, scanned one page at a time.
pub fn checksum(machine: &Machine, base: u32, len_bytes: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    machine.mem.scan(base, len_bytes as usize, |chunk| {
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    });
    h
}

/// FNV-1a checksum of a byte slice (for reference implementations).
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a workload for the given variant and scale.
pub fn build(id: WorkloadId, variant: Variant, scale: Scale) -> BuiltWorkload {
    match id {
        WorkloadId::MatMul => matmul::build(variant, scale),
        WorkloadId::RgbGray => rgb_gray::build(variant, scale),
        WorkloadId::Gaussian => gaussian::build(variant, scale),
        WorkloadId::SusanEdges => susan::build(variant, scale),
        WorkloadId::QSort => qsort::build(variant, scale),
        WorkloadId::Dijkstra => dijkstra::build(variant, scale),
        WorkloadId::BitCounts => bitcounts::build(variant, scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_consistency() {
        let mut m = Machine::new();
        m.mem.write_bytes(0x100, &[1, 2, 3, 4]);
        assert_eq!(checksum(&m, 0x100, 4), checksum_bytes(&[1, 2, 3, 4]));
        assert_ne!(checksum(&m, 0x100, 4), checksum_bytes(&[1, 2, 3, 5]));
        // Across page boundaries and unwritten pages: the page-wise scan
        // folds the same bytes, in order, and allocates nothing.
        let data: Vec<u8> = (0..9_000u32).map(|i| (i * 13 + 5) as u8).collect();
        m.mem.write_bytes(0x2ff0, &data);
        let pages = m.mem.allocated_pages();
        let (base, len) = (0x2000, 0x5000);
        assert_eq!(checksum(&m, base, len), checksum_bytes(&m.mem.read_bytes(base, len as usize)));
        assert_eq!(m.mem.allocated_pages(), pages);
    }

    #[test]
    fn names_and_order() {
        assert_eq!(WorkloadId::all().len(), 7);
        assert_eq!(WorkloadId::MatMul.name(), "MM 64x64");
    }

    #[test]
    fn scale_parse_round_trips() {
        for s in [Scale::Small, Scale::Medium, Scale::Paper, Scale::Large] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn medium_scale_builds_and_checks() {
        use dsa_compiler::Variant;
        use dsa_cpu::{CpuConfig, Simulator};

        let w = build(WorkloadId::BitCounts, Variant::Scalar, Scale::Medium);
        let mut sim = Simulator::new(w.kernel.program.clone(), CpuConfig::default());
        (w.init)(sim.machine_mut());
        let out = sim.run(50_000_000).expect("halts");
        assert!(out.halted);
        assert!(w.check(sim.machine()), "medium scale matches its reference");
    }
}
