//! In-memory spans for the traced run.
//!
//! A span is recorded around every call the traced run makes into a
//! layer: name, start, end, parent span and operation id. Spans stay in
//! memory until the run ends, when they are folded into per-layer
//! totals and written out as one tab-separated file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name (`cpu.block`, `core.snapshot_encode`, ...).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The operation (grid combo run, forge program, serve job) the
    /// span belongs to.
    pub op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Per-thread span recorder. Spans nest by call order: the parent of a
/// new span is the innermost span still open.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log measuring from `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `name` for operation `op`.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        let t = self.now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes `id` (the innermost open span) and returns its duration
    /// in microseconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let t = self.now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0];
        span.end = t;
        (span.end - span.start) as f64 / 1e3
    }

    /// Runs `f` inside a leaf span; returns its result and duration in
    /// microseconds.
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name, op);
        let r = f();
        (r, self.exit(id))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: count, summed duration and summed self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += (s.end - s.start) as f64 / 1e3;
            t.self_us += self_ns as f64 / 1e3;
        }
        out
    }

    /// Writes every span as `name start_ns end_ns self_ns parent op`
    /// (tab-separated, `-` for no parent).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tself_ns\tparent\top")?;
        for (s, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{self_ns}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            )?;
        }
        w.flush()
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, µs.
    pub total_us: f64,
    /// Summed self times, µs.
    pub self_us: f64,
}

impl SpanTotals {
    /// Mean duration per span, µs.
    pub fn mean_us(&self) -> f64 {
        self.total_us / self.count.max(1) as f64
    }
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval covered by the union of its children (clipped to the
/// parent), so children that overlap each other are not subtracted
/// twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40] and [30,60] overlap on [30,40]: together they
        // cover 50 ns, not 60. A child running past its parent's end is
        // clipped to the parent.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 60, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        // A child wholly inside another child adds nothing.
        let spans = [
            span("root", 0, 100, None),
            span("x", 0, 80, Some(0)),
            span("y", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn log_nests_by_call_order() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.enter("op", 7);
        let ((), _) = log.leaf("leaf", 7, || ());
        let ((), _) = log.leaf("leaf", 7, || ());
        log.exit(root);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[1].end <= s[2].start && s[2].end <= s[0].end);
        let sum = log.summary();
        assert_eq!((sum["op"].count, sum["leaf"].count), (1, 2));
        assert!(sum["op"].self_us <= sum["op"].total_us);
    }
}
