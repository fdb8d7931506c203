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
//! path. The hottest sites hand one loop's events over as a burst
//! ([`Tracer::emit_loop`]): one sink call instead of one per event, and
//! none, with nothing built, for a loop the sink does not keep
//! ([`TraceSink::keeps_loop`], e.g. a [`SamplingSink`]'s dropped
//! lifecycles). The `trace_overhead_guard` bench binary in `dsa-bench`
//! holds the disabled path, a null sink and the sampler under its
//! budget.
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
//! Every string an event carries is a variant of a closed enum declared
//! beside that table ([`LoopClass`], [`Reason`], [`FaultSite`],
//! [`WorkloadName`], ...). The declaration is the vocabulary: emitters
//! pass variants, the wire carries their names, and the decoders map a
//! name back to its variant, so an unknown word is a typed decode error
//! and reading any trace allocates no strings for its events.
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

pub use columnar::{crc32, decode, encode, looks_binary, BinError, ColumnarWriter, BIN_SCHEMA};
pub use event::{
    CacheKind, CacheOutcome, EngineOp, EngineMode, Event, FaultSite, LoopClass, Reason,
    ShedReason, SimFaultKind, SnapshotErrorKind, SpecKind, Stage, WorkloadName, SCHEMA,
};
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

    /// Consumes a burst of events in order, exactly as `record` on each
    /// would. An emitter with several events at one site hands them over
    /// in one call: one dynamic dispatch (and one lock, for a shared
    /// sink) per burst instead of per event.
    fn record_all(&mut self, evs: &[Event]) {
        for ev in evs {
            self.record(ev);
        }
    }

    /// Whether this sink keeps any event of loop `loop_id`. It must be a
    /// pure function of `loop_id` for the sink's life, since a
    /// [`Tracer`] asks once per run of same-loop bursts; `false` lets
    /// the emitter skip building events that `record` would drop.
    fn keeps_loop(&mut self, _loop_id: u32) -> bool {
        true
    }

    /// Stream end: flush buffers, write footers. Must be idempotent.
    fn finish(&mut self) {}
}

impl<T: TraceSink + ?Sized> TraceSink for Box<T> {
    fn record(&mut self, ev: &Event) {
        (**self).record(ev);
    }

    fn record_all(&mut self, evs: &[Event]) {
        (**self).record_all(evs);
    }

    fn keeps_loop(&mut self, loop_id: u32) -> bool {
        (**self).keeps_loop(loop_id)
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
    /// Events flow into the attached sink.
    On(Attached),
}

/// A [`Tracer`]'s sink, with its [`TraceSink::keeps_loop`] verdict for
/// the loop last asked about.
pub struct Attached {
    sink: Box<dyn TraceSink + Send>,
    /// `(loop id, verdict)`.
    kept: (u32, bool),
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
        let mut sink: Box<dyn TraceSink + Send> = Box::new(sink);
        let kept = (0, sink.keeps_loop(0));
        Tracer::On(Attached { sink, kept })
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
        if let Tracer::On(on) = self {
            on.sink.record(&build());
        }
    }

    /// Emits the burst built by `build`, every event of which concerns
    /// loop `loop_id`, in one [`TraceSink::record_all`] call. `build`
    /// only runs when a sink is attached and keeps that loop
    /// ([`TraceSink::keeps_loop`], asked again only when the loop
    /// changes), so a sampled-out loop's bursts cost one comparison.
    #[inline(always)]
    pub fn emit_loop<const N: usize>(&mut self, loop_id: u32, build: impl FnOnce() -> [Event; N]) {
        if let Tracer::On(on) = self {
            if on.kept.0 != loop_id {
                on.kept = (loop_id, on.sink.keeps_loop(loop_id));
            }
            if on.kept.1 {
                let burst = build();
                debug_assert!(burst.iter().all(|ev| ev.loop_id() == Some(loop_id)));
                on.sink.record_all(&burst);
            }
        }
    }

    /// Forwards [`TraceSink::finish`] to the attached sink, if any.
    pub fn finish(&mut self) {
        if let Tracer::On(on) = self {
            on.sink.finish();
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

    fn keeps_loop(&mut self, loop_id: u32) -> bool {
        self.0.iter_mut().any(|sink| sink.keeps_loop(loop_id))
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

    fn record_all(&mut self, evs: &[Event]) {
        self.0.lock().expect("shared sink poisoned").record_all(evs);
    }

    fn keeps_loop(&mut self, loop_id: u32) -> bool {
        self.0.lock().expect("shared sink poisoned").keeps_loop(loop_id)
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

    fn burst(loop_id: u32, cycle: u64) -> [Event; 2] {
        [
            Event::LoopDetected { loop_id, end_pc: 9, cycle },
            Event::LoopFinished { loop_id, iters: 2, cycle: cycle + 1 },
        ]
    }

    #[test]
    fn a_burst_arrives_as_its_events_in_order() {
        let shared = Shared::new(Collector::new());
        let mut t = Tracer::on(Box::new(shared.clone()));
        t.emit(|| Event::RunStarted { pc: 0, cycle: 1 });
        t.emit_loop(4, || burst(4, 2));
        t.emit(|| Event::RunFinished { cycle: 4, committed: 4, halted: true });
        let cycles: Vec<u64> = shared.with(|c| c.events.iter().map(Event::cycle).collect());
        assert_eq!(cycles, [1, 2, 3, 4]);
        let mut off = Tracer::Off;
        let mut built = false;
        off.emit_loop(4, || {
            built = true;
            burst(4, 2)
        });
        assert!(!built, "Tracer::Off must not build a burst");
    }

    #[test]
    fn a_sampled_out_loop_is_never_built() {
        // Through a sampling sink, a loop's bursts are built and arrive
        // exactly when the sampler's pure verdict keeps the loop.
        let (seed, rate) = (11, 4);
        let verdict = SamplingSink::new(NullSink, seed, rate);
        assert!(!verdict.keeps_loop(0), "the sequence must open on a dropped loop");
        // A kept loop whose next aligned id is dropped, so a verdict
        // memoized under the wrong loop id shows.
        let kept = (4..1024)
            .step_by(4)
            .find(|&id| verdict.keeps_loop(id) && !verdict.keeps_loop(id + 4))
            .expect("rate 4 keeps some loop and drops the next");
        let ids = [0, kept, kept + 4, kept + 4, kept, 0, kept];
        let at_source = Shared::new(SamplingSink::new(Collector::new(), seed, rate));
        let mut t = Tracer::on(at_source.clone());
        let (mut built, mut want) = (Vec::new(), Vec::new());
        for (i, id) in ids.into_iter().enumerate() {
            let events = burst(id, 10 * i as u64);
            t.emit_loop(id, || {
                built.push(id);
                events
            });
            if verdict.keeps_loop(id) {
                want.extend(events);
            }
        }
        assert_eq!(built, [kept, kept, kept], "only the kept loop's bursts are built");
        assert_eq!(at_source.with(|s| s.inner().events.clone()), want);
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
