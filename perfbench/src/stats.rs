//! The benchmark's own statistics: percentiles, the tail rule, rates
//! taken from per-operation medians, and ratios printed with their base.
//!
//! Every timing in the benchmark is a per-operation sample in
//! microseconds. Rates are never taken from one wall-clock window: a
//! window total absorbs every stall of a shared host, while a median
//! per repeated operation (or per batch of distinct operations) ignores
//! stalls that hit fewer than half of its samples.

use std::collections::BTreeMap;

/// Percentiles the tail rule may pick from, lowest first. The ladder is
/// coarse on purpose: a run that takes a few more or fewer samples than
/// the previous one lands on the same rung, so its tail figure stays
/// comparable across runs.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (any order); the mean of the two middle values
/// for an even count. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The reported tail of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was picked.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples in the distribution.
    pub samples: usize,
}

impl Tail {
    /// `p95 = 171.204 ms (n=780, 39 beyond)`-style label.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p{} = {:.3} {unit} (n={}, {} beyond)",
            self.percentile, self.value, self.samples, self.beyond
        )
    }
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that has at
/// least [`TAIL_MIN_BEYOND`] samples beyond its rank. `None` when even
/// the median has too few samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank.clamp(1, n) - 1],
            beyond,
            samples: n,
        })
    })
}

/// Per-operation samples grouped by a key that repeats across the run
/// (a grid combo, a serve job kind). Each key also carries the simulated
/// instructions one of its operations commits, so rates in operations
/// and in instructions come from the same medians.
#[derive(Debug, Clone, Default)]
pub struct PerKey {
    groups: BTreeMap<String, Group>,
}

#[derive(Debug, Clone, Default)]
struct Group {
    us: Vec<f64>,
    committed: u64,
    class: &'static str,
}

impl PerKey {
    /// Records one operation of `key` that took `us` microseconds and
    /// committed `committed` simulated instructions; `class` tags the
    /// key for class-restricted rates (`"dsa"`, `"base"`).
    pub fn record(&mut self, key: &str, class: &'static str, us: f64, committed: u64) {
        let g = self.groups.entry(key.to_string()).or_default();
        g.us.push(us);
        g.committed = committed;
        g.class = class;
    }

    /// Distinct keys.
    pub fn keys(&self) -> usize {
        self.groups.len()
    }

    /// Operations per second, each key weighted by how often it was
    /// seen: `Σ n_k / Σ n_k·median_k`. With every key seen equally often
    /// (whole grid passes) this is `keys / Σ median_k`, the rate of one
    /// pass.
    pub fn ops_per_s(&self) -> f64 {
        let (n, us) = self.groups.values().fold((0.0, 0.0), |(n, us), g| {
            let m = median(&g.us).unwrap_or(0.0);
            (n + g.us.len() as f64, us + g.us.len() as f64 * m)
        });
        if us > 0.0 {
            n / us * 1e6
        } else {
            0.0
        }
    }

    /// One latency per recorded operation, each its key's median: the
    /// distribution percentiles are taken from when single operations
    /// may stall (a preempted thread) but a key's typical time may not.
    pub fn key_medians(&self) -> Vec<f64> {
        self.groups
            .values()
            .flat_map(|g| {
                let m = median(&g.us).unwrap_or(0.0);
                std::iter::repeat_n(m, g.us.len())
            })
            .collect()
    }

    /// Simulated instructions per host microsecond over keys of
    /// `class`: `Σ n_k·committed_k / Σ n_k·median_k`. `None` when no
    /// key of that class was recorded.
    pub fn mips(&self, class: &str) -> Option<f64> {
        let (inst, us) =
            self.groups
                .values()
                .filter(|g| g.class == class)
                .fold((0.0, 0.0), |(inst, us), g| {
                    let n = g.us.len() as f64;
                    (
                        inst + n * g.committed as f64,
                        us + n * median(&g.us).unwrap_or(0.0),
                    )
                });
        (us > 0.0).then(|| inst / us)
    }
}

/// Consecutive operations that never repeat (forge programs) grouped
/// into fixed-size batches; rates come from the median batch.
#[derive(Debug, Clone)]
pub struct Batches {
    size: usize,
    done: Vec<(f64, u64)>,
    open: (usize, f64, u64),
}

impl Batches {
    /// Batches of `size` operations.
    pub fn new(size: usize) -> Batches {
        Batches {
            size: size.max(1),
            done: Vec::new(),
            open: (0, 0.0, 0),
        }
    }

    /// Adds one operation of `us` microseconds that committed
    /// `committed` simulated instructions.
    pub fn record(&mut self, us: f64, committed: u64) {
        let (n, t, c) = &mut self.open;
        *n += 1;
        *t += us;
        *c += committed;
        if *n == self.size {
            self.done.push((*t, *c));
            self.open = (0, 0.0, 0);
        }
    }

    /// Complete batches.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Operations per second of the median complete batch.
    pub fn ops_per_s(&self) -> f64 {
        let times: Vec<f64> = self.done.iter().map(|b| b.0).collect();
        median(&times).map_or(0.0, |m| self.size as f64 / m * 1e6)
    }

    /// Median over complete batches of instructions per microsecond.
    pub fn mips(&self) -> f64 {
        let rates: Vec<f64> = self
            .done
            .iter()
            .filter(|b| b.0 > 0.0)
            .map(|b| b.1 as f64 / b.0)
            .collect();
        median(&rates).unwrap_or(0.0)
    }
}

/// A ratio that is never printed without its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// The counted part.
    pub part: u64,
    /// The base it is a share of.
    pub base: u64,
}

impl Ratio {
    /// `part / base`; 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }

    /// `0.4120 (412 hits of 1000 lookups)`.
    pub fn describe(&self, part: &str, base: &str) -> String {
        format!(
            "{:.4} ({} {part} of {} {base})",
            self.value(),
            self.part,
            self.base
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond its rank.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99 leaves only 9 beyond, so the rule steps down.
        let t = tail(&v[..999]).expect("enough samples");
        assert_eq!((t.percentile, t.beyond, t.samples), (95.0, 49, 999));
        // 200 samples: p95 has 10 beyond.
        let t = tail(&v[..200]).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        // 19 samples: even the median has only 9 beyond.
        assert_eq!(tail(&v[..19]), None);
        let t = tail(&v[..20]).expect("median qualifies");
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
        assert_eq!(t.describe("ms"), "p50 = 10.000 ms (n=20, 10 beyond)");
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        v.reverse();
        assert_eq!(
            tail(&v).map(|t| (t.percentile, t.value)),
            Some((95.0, 380.0))
        );
    }

    #[test]
    fn per_key_rates_come_from_medians() {
        let mut k = PerKey::default();
        // Key a: median 100 us despite one 10x outlier; commits 1000.
        for us in [100.0, 1000.0, 100.0] {
            k.record("a", "dsa", us, 1_000);
        }
        // Key b: median 300 us; commits 600.
        for us in [300.0, 290.0, 310.0] {
            k.record("b", "base", us, 600);
        }
        assert_eq!(k.keys(), 2);
        // One pass of both keys takes 400 us of medians: 2 ops / 400 us.
        assert!((k.ops_per_s() - 5_000.0).abs() < 1e-9);
        assert_eq!(k.mips("dsa"), Some(10.0));
        assert_eq!(k.mips("base"), Some(2.0));
        assert_eq!(k.mips("other"), None);
    }

    #[test]
    fn per_key_rates_weight_keys_by_occurrence() {
        let mut k = PerKey::default();
        for _ in 0..3 {
            k.record("fast", "dsa", 10.0, 100);
        }
        k.record("slow", "dsa", 70.0, 100);
        // 4 ops over 3*10 + 70 = 100 us of medians.
        assert!((k.ops_per_s() - 40_000.0).abs() < 1e-9);
        assert_eq!(k.mips("dsa"), Some(4.0));
    }

    #[test]
    fn key_medians_replace_each_sample_by_its_keys_median() {
        let mut k = PerKey::default();
        for us in [10.0, 900.0, 12.0, 11.0] {
            k.record("a", "hit", us, 0);
        }
        k.record("b", "dsa", 50.0, 0);
        let mut v = k.key_medians();
        v.sort_by(f64::total_cmp);
        // Key a's stalled 900 us sample counts at a's median, 11.5 us.
        assert_eq!(v, vec![11.5, 11.5, 11.5, 11.5, 50.0]);
    }

    #[test]
    fn batches_take_the_median_batch() {
        let mut b = Batches::new(2);
        for (us, c) in [
            (10.0, 100),
            (10.0, 100),
            (50.0, 100),
            (50.0, 100),
            (12.0, 60),
            (8.0, 60),
        ] {
            b.record(us, c);
        }
        b.record(1.0, 1); // incomplete batch: ignored
        assert_eq!(b.len(), 3);
        // Batch times 20, 100, 20 us: median 20 us for 2 ops.
        assert!((b.ops_per_s() - 100_000.0).abs() < 1e-9);
        // Batch rates 10, 2, 6 instructions/us: median 6.
        assert_eq!(b.mips(), 6.0);
    }

    #[test]
    fn ratios_print_with_their_base() {
        let r = Ratio {
            part: 412,
            base: 1000,
        };
        assert_eq!(
            r.describe("hits", "lookups"),
            "0.4120 (412 hits of 1000 lookups)"
        );
        let empty = Ratio { part: 0, base: 0 };
        assert_eq!(empty.value(), 0.0);
        assert_eq!(
            empty.describe("failed", "attempted"),
            "0.0000 (0 failed of 0 attempted)"
        );
    }
}
