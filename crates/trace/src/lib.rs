//! # dsa-trace — structured telemetry for the DSA reproduction
//!
//! The paper's argument is about *runtime-observable* behavior: which
//! loop classes the six-stage DSA machine detects, how many cycles each
//! stage burns, how often the DSA cache short-circuits re-analysis.
//! This crate turns those observations into a typed [`Event`] stream
//! that the engine and the simulator emit through a [`TraceSink`], plus
//! the sinks that make the stream useful:
//!
//! - [`MetricsRegistry`] — monotonic counters + fixed-bucket cycle
//!   histograms, mergeable across the parallel grid warm-up, with
//!   plain-text and JSON reports;
//! - [`JsonlSink`] — a versioned JSONL export ([`SCHEMA`]) with a
//!   validator ([`validate_line`] / [`validate_document`]) and a typed
//!   reader ([`parse_document`]);
//! - [`ColumnarWriter`] / [`encode`] / [`decode`] — the compact
//!   CRC-guarded columnar twin ([`BIN_SCHEMA`]) for fleet-scale traces;
//! - [`PerfettoSink`] — a Chrome trace-event document rendering each
//!   loop's stage timeline against core cycles (open in
//!   <https://ui.perfetto.dev>);
//! - [`LoopTableSink`] — the per-loop lifecycle table behind
//!   `inspect`'s telemetry view;
//! - [`Collector`], [`NullSink`], [`Fanout`], [`Shared`] — test,
//!   overhead-guard and composition plumbing.
//!
//! ## Cost model
//!
//! Tracing is opt-in and must never tax the simulator's hot loop. The
//! emitting side holds a [`Tracer`], which is a two-state enum:
//! [`Tracer::Off`] (the default) makes [`Tracer::emit`] a single
//! discriminant test and — crucially — never runs the closure that
//! builds the [`Event`], so disabled call sites cost one predictable
//! branch and zero formatting/allocation. All emission sites sit on
//! loop-boundary / stage-transition paths, never on the per-commit
//! path. The `trace_overhead_guard` bench binary in `dsa-bench` holds
//! the disabled path under its budget.
//!
//! ## One schema, two wire formats
//!
//! Every event's wire layout — type name, tracebin tag, payload fields
//! in order, JSONL keys — is declared once, in the table that defines
//! [`Event`] ([`event`]). The JSONL writer, validator and parser and
//! the tracebin encoder and decoder all run on walkers generated from
//! that table; each format adds only how one field of each type is
//! written or read.
//!
//! The crate deliberately has **zero dependencies** (the workspace
//! builds offline); both exporters hand-roll their JSON and
//! [`json::parse`] reads it back for validation and reporting. Its
//! [`crc32`] also guards `dsa-core`'s snapshot images.

#![forbid(unsafe_code)]

pub mod columnar;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod loops;
pub mod metrics;
pub mod perfetto;
pub mod query;
pub mod sample;

pub use columnar::{crc32, decode, encode, intern, looks_binary, BinError, ColumnarWriter, BIN_SCHEMA};
pub use event::{CacheKind, CacheOutcome, Event, SpecKind, Stage, SCHEMA};
pub use jsonl::{
    event_from_value, header_line, parse_document, validate_document, validate_document_verbose,
    validate_line, validate_line_verbose, JsonlSink,
};
pub use loops::{LoopRow, LoopTableSink};
pub use metrics::{Histogram, MetricsRegistry, SharedMetrics};
pub use perfetto::PerfettoSink;
pub use query::{read_trace, Charge, CidpTally, LoadedTrace, Rollup, TraceFormat, WorkloadTally};
pub use sample::SamplingSink;

/// A consumer of the telemetry stream. `record` must not panic — sinks
/// swallow their own IO errors and report them out of band, because a
/// trace must never abort a simulation.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, ev: &Event);

    /// Stream end: flush buffers, write footers. Must be idempotent.
    fn finish(&mut self) {}
}

impl<T: TraceSink + ?Sized> TraceSink for Box<T> {
    fn record(&mut self, ev: &Event) {
        (**self).record(ev);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// The emitting side's handle: either disabled (free) or an attached
/// boxed sink. Kept as a two-variant enum rather than
/// `Option<Box<dyn ..>>` so the emit contract — *the closure only runs
/// when attached* — is visible in the type.
#[derive(Default)]
pub enum Tracer {
    /// No sink attached; [`Tracer::emit`] is a discriminant test.
    #[default]
    Off,
    /// Events flow into the boxed sink.
    On(Box<dyn TraceSink + Send>),
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tracer::Off => "Tracer::Off",
            Tracer::On(_) => "Tracer::On(..)",
        })
    }
}

impl Tracer {
    /// A tracer feeding `sink`.
    pub fn on(sink: impl TraceSink + Send + 'static) -> Tracer {
        Tracer::On(Box::new(sink))
    }

    /// True when a sink is attached.
    pub fn enabled(&self) -> bool {
        matches!(self, Tracer::On(_))
    }

    /// Emits the event built by `build` — which only runs when a sink
    /// is attached, so disabled sites pay one branch and construct
    /// nothing.
    #[inline(always)]
    pub fn emit(&mut self, build: impl FnOnce() -> Event) {
        if let Tracer::On(sink) = self {
            sink.record(&build());
        }
    }

    /// Forwards [`TraceSink::finish`] to the attached sink, if any.
    pub fn finish(&mut self) {
        if let Tracer::On(sink) = self {
            sink.finish();
        }
    }
}

/// Broadcasts every event to each inner sink, in order.
#[derive(Default)]
pub struct Fanout(pub Vec<Box<dyn TraceSink + Send>>);

impl Fanout {
    /// An empty fanout.
    pub fn new() -> Fanout {
        Fanout::default()
    }

    /// Adds a sink; returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, sink: impl TraceSink + Send + 'static) -> Fanout {
        self.0.push(Box::new(sink));
        self
    }
}

impl TraceSink for Fanout {
    fn record(&mut self, ev: &Event) {
        for sink in &mut self.0 {
            sink.record(ev);
        }
    }

    fn finish(&mut self) {
        for sink in &mut self.0 {
            sink.finish();
        }
    }
}

/// A clonable handle sharing one sink between several emitters (e.g.
/// the engine and the simulator writing to the same JSONL file). Every
/// clone records into the same underlying sink, serialized by a mutex.
pub struct Shared<S: TraceSink>(std::sync::Arc<std::sync::Mutex<S>>);

impl<S: TraceSink> Shared<S> {
    /// Wraps `sink` in a shared handle.
    pub fn new(sink: S) -> Shared<S> {
        Shared(std::sync::Arc::new(std::sync::Mutex::new(sink)))
    }

    /// Runs `f` on the inner sink under the lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("shared sink poisoned"))
    }
}

impl<S: TraceSink> Clone for Shared<S> {
    fn clone(&self) -> Shared<S> {
        Shared(std::sync::Arc::clone(&self.0))
    }
}

impl<S: TraceSink> TraceSink for Shared<S> {
    fn record(&mut self, ev: &Event) {
        self.0.lock().expect("shared sink poisoned").record(ev);
    }

    fn finish(&mut self) {
        self.0.lock().expect("shared sink poisoned").finish();
    }
}

/// Accepts and discards every event; the `trace_overhead_guard` bench
/// uses it to price the *enabled* path with the cheapest possible sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &Event) {}
}

/// Buffers every event in order — the test sink.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    /// The events, in emission order.
    pub events: Vec<Event>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }
}

impl TraceSink for Collector {
    fn record(&mut self, ev: &Event) {
        self.events.push(*ev);
    }
}

/// The `DSA_TRACE` environment variable: when set (non-empty), tools
/// write the JSONL export there and a Perfetto export next to it (same
/// path with `.perfetto.json` appended).
pub fn trace_path_from_env() -> Option<String> {
    std::env::var("DSA_TRACE").ok().filter(|p| !p.trim().is_empty())
}

/// The Perfetto companion path for a JSONL export path.
pub fn perfetto_path(jsonl_path: &str) -> String {
    format!("{jsonl_path}.perfetto.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_the_event() {
        let mut t = Tracer::Off;
        let mut built = false;
        t.emit(|| {
            built = true;
            Event::RunStarted { pc: 0, cycle: 0 }
        });
        assert!(!built, "Tracer::Off must not run the builder closure");
        assert!(!t.enabled());
        t.finish(); // no-op
    }

    #[test]
    fn enabled_tracer_feeds_the_sink() {
        let shared = Shared::new(Collector::new());
        let mut t = Tracer::on(shared.clone());
        t.emit(|| Event::LoopDetected { loop_id: 1, end_pc: 9, cycle: 3 });
        t.finish();
        assert!(t.enabled());
        assert_eq!(shared.with(|c| c.events.len()), 1);
        assert_eq!(shared.with(|c| c.events[0].cycle()), 3);
    }

    #[test]
    fn fanout_broadcasts_in_order() {
        let a = Shared::new(Collector::new());
        let b = Shared::new(Collector::new());
        let mut fan = Fanout::new().with(a.clone()).with(b.clone());
        fan.record(&Event::RunFinished { cycle: 10, committed: 4, halted: true });
        fan.finish();
        assert_eq!(a.with(|c| c.events.len()), 1);
        assert_eq!(b.with(|c| c.events.len()), 1);
    }

    #[test]
    fn perfetto_companion_path() {
        assert_eq!(perfetto_path("out.jsonl"), "out.jsonl.perfetto.json");
    }
}
