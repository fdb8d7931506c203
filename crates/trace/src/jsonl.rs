//! The JSONL exporter and its schema validator.
//!
//! # Schema (`dsa-trace/v2`)
//!
//! One JSON object per line, no blank lines:
//!
//! - **Line 1 — header**: `{"record":"header","schema":"dsa-trace/v2",
//!   "producer":"<crate>/<version>"}`. Consumers must reject files whose
//!   `schema` they don't know.
//! - **Every further line — event**: `{"record":"event","type":<t>,
//!   "cycle":<u64>, ...}` where `<t>` is one of the kebab-case names in
//!   [`Event::type_name`] and the remaining fields are the variant's
//!   payload in the order and under the keys of the schema table in
//!   [`crate::event`], which also gives the validator its required
//!   fields. Field additions are backwards compatible within a schema
//!   version; renames/removals bump it. A string field holds the name
//!   of one variant of the field's enum (a loop class, a reason, a
//!   fault site, ...); the reader maps it back with that enum's
//!   `from_name` and rejects any other string.
//!
//! The sink is IO-error tolerant by design: tracing must never abort a
//! simulation, so the first write failure is latched, later writes are
//! skipped, and the error is reported by [`JsonlSink::take_error`].

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{json_str, Choice, Event, EventKind, FieldSink, FieldSource, SCHEMA};
use crate::json::{self, Value};
use crate::TraceSink;

/// Streams events as JSON lines into any writer.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    wrote_header: bool,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// A sink writing to `path` (truncating), buffered.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the file can't be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// A sink over `out`. The header is written lazily with the first
    /// event, so an unused sink leaves the writer untouched.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out, wrote_header: false, error: None }
    }

    /// The first IO error encountered, if any (taking clears it).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(line.as_bytes()).and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

/// The header line every v2 file starts with.
pub fn header_line() -> String {
    format!(
        "{{\"record\":\"header\",\"schema\":\"{SCHEMA}\",\"producer\":\"dsa-trace/{}\"}}",
        env!("CARGO_PKG_VERSION")
    )
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &Event) {
        if !self.wrote_header {
            self.wrote_header = true;
            let header = header_line();
            self.write_line(&header);
        }
        let line = ev.to_json_line();
        self.write_line(&line);
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

impl Event {
    /// One JSONL record for this event: a single-line JSON object with
    /// fixed field order (`record`, `type`, `cycle`, then the variant's
    /// fields). Hand-rolled — no declared word contains a character that
    /// needs escaping, but strings are escaped anyway for safety.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"record\":\"event\",\"type\":\"{}\",\"cycle\":{}",
            self.type_name(),
            self.cycle()
        );
        self.write_fields(&mut JsonFields(&mut s));
        s.push('}');
        s
    }
}

/// Appends each payload field as `,"key":value`.
struct JsonFields<'a>(&'a mut String);

impl FieldSink for JsonFields<'_> {
    fn u64(&mut self, key: &'static str, v: u64) {
        let _ = write!(self.0, ",\"{key}\":{v}");
    }

    fn bool(&mut self, key: &'static str, v: bool) {
        let _ = write!(self.0, ",\"{key}\":{v}");
    }

    fn opt_u32(&mut self, key: &'static str, v: Option<u32>) {
        match v {
            Some(d) => self.u64(key, u64::from(d)),
            None => {
                let _ = write!(self.0, ",\"{key}\":null");
            }
        }
    }

    fn choice<E: Choice>(&mut self, key: &'static str, v: E) {
        let _ = write!(self.0, ",\"{key}\":{}", json_str(v.name()));
    }
}

/// Validates one line, collecting forward-compat warnings (unknown
/// event fields) into `warnings` when provided.
fn check_line(line: &str, is_first: bool, warnings: Option<&mut Vec<String>>) -> Result<(), String> {
    if line.contains('\n') {
        return Err("line contains an embedded newline".to_string());
    }
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let record = v
        .get("record")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field \"record\"".to_string())?;
    if is_first {
        if record != "header" {
            return Err(format!("first record must be \"header\", got \"{record}\""));
        }
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "header missing string field \"schema\"".to_string())?;
        if schema != SCHEMA {
            return Err(format!("unknown schema \"{schema}\" (expected \"{SCHEMA}\")"));
        }
        return Ok(());
    }
    if record != "event" {
        return Err(format!("expected an \"event\" record, got \"{record}\""));
    }
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "event missing string field \"type\"".to_string())?;
    v.get("cycle")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("event \"{ty}\" missing unsigned field \"cycle\""))?;
    let Some(kind) = EventKind::from_type_name(ty) else {
        return Err(format!("unknown event type \"{ty}\""));
    };
    let required = kind.keys();
    for field in required {
        if v.get(field).is_none() {
            return Err(format!("event \"{ty}\" missing field \"{field}\""));
        }
    }
    // Forward compat: field *additions* are legal within a schema
    // version, so an unknown field from a newer v2.x producer warns
    // instead of failing.
    if let (Some(warnings), Some(obj)) = (warnings, v.as_obj()) {
        for key in obj.keys() {
            let known = key == "record"
                || key == "type"
                || key == "cycle"
                || required.contains(&key.as_str());
            if !known {
                warnings.push(format!("event \"{ty}\": unknown field \"{key}\" (tolerated)"));
            }
        }
    }
    Ok(())
}

/// Validates one line of a v2 JSONL stream. `is_first` selects the
/// header rules; later lines must be known event records. Unknown
/// event *fields* are tolerated (see [`validate_line_verbose`] to
/// collect them as warnings); unknown event *types* are errors.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_line(line: &str, is_first: bool) -> Result<(), String> {
    check_line(line, is_first, None)
}

/// Like [`validate_line`], additionally returning one warning per
/// unknown event field encountered.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_line_verbose(line: &str, is_first: bool) -> Result<Vec<String>, String> {
    let mut warnings = Vec::new();
    check_line(line, is_first, Some(&mut warnings))?;
    Ok(warnings)
}

/// Validates a whole JSONL document; returns the number of event
/// records on success.
///
/// # Errors
///
/// Returns `(line_number, description)` of the first violation (line
/// numbers are 1-based).
pub fn validate_document(text: &str) -> Result<u64, (usize, String)> {
    validate_document_verbose(text).map(|(events, _)| events)
}

/// Like [`validate_document`], additionally returning forward-compat
/// warnings (`"line N: ..."`) for unknown event fields.
///
/// # Errors
///
/// Returns `(line_number, description)` of the first violation.
pub fn validate_document_verbose(text: &str) -> Result<(u64, Vec<String>), (usize, String)> {
    let mut events = 0u64;
    let mut saw_any = false;
    let mut warnings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            return Err((i + 1, "blank line".to_string()));
        }
        let mut line_warnings = Vec::new();
        check_line(line, i == 0, Some(&mut line_warnings)).map_err(|e| (i + 1, e))?;
        warnings.extend(line_warnings.into_iter().map(|w| format!("line {}: {w}", i + 1)));
        if i > 0 {
            events += 1;
        }
        saw_any = true;
    }
    if !saw_any {
        return Err((1, "empty document (header required)".to_string()));
    }
    Ok((events, warnings))
}

/// Reconstructs a typed [`Event`] from a parsed event record. Unknown
/// fields are ignored (forward compat); a string field maps to the
/// variant of its enum that it names, so the result compares equal to
/// a freshly emitted event, and any other string is an error.
///
/// # Errors
///
/// Returns a description of the first missing/ill-typed field, or of
/// an unknown event type.
pub fn event_from_value(v: &Value) -> Result<Event, String> {
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "event missing string field \"type\"".to_string())?;
    let mut src = JsonRecord { v, ty };
    let cycle = src.u64("cycle")?;
    let kind = EventKind::from_type_name(ty).ok_or_else(|| format!("unknown event type \"{ty}\""))?;
    kind.read(cycle, &mut src)
}

/// Reads payload fields out of one parsed event record of type `ty`.
struct JsonRecord<'a> {
    v: &'a Value,
    ty: &'a str,
}

impl JsonRecord<'_> {
    fn missing(&self, shape: &str, key: &str) -> String {
        format!("event \"{}\" missing {shape} field \"{key}\"", self.ty)
    }
}

impl FieldSource for JsonRecord<'_> {
    type Error = String;

    fn u64(&mut self, key: &'static str) -> Result<u64, String> {
        self.v.get(key).and_then(Value::as_u64).ok_or_else(|| self.missing("unsigned", key))
    }

    fn u32(&mut self, key: &'static str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?)
            .map_err(|_| format!("event \"{}\": field \"{key}\" exceeds u32", self.ty))
    }

    fn bool(&mut self, key: &'static str) -> Result<bool, String> {
        self.v.get(key).and_then(Value::as_bool).ok_or_else(|| self.missing("bool", key))
    }

    fn opt_u32(&mut self, key: &'static str) -> Result<Option<u32>, String> {
        match self.v.get(key) {
            None => Err(format!("event \"{}\" missing field \"{key}\"", self.ty)),
            Some(Value::Null) => Ok(None),
            Some(d) => d
                .as_u64()
                .and_then(|d| u32::try_from(d).ok())
                .map(Some)
                .ok_or_else(|| format!("event \"{}\": bad \"{key}\"", self.ty)),
        }
    }

    fn choice<E: Choice>(&mut self, key: &'static str) -> Result<E, String> {
        let name = self.v.get(key).and_then(Value::as_str).ok_or_else(|| self.missing("string", key))?;
        E::from_name(name).ok_or_else(|| {
            format!("event \"{}\": field \"{key}\" holds unknown {} {name:?}", self.ty, E::WHAT)
        })
    }
}

/// Parses a whole v2 JSONL document back into its typed event stream,
/// plus forward-compat warnings for unknown fields.
///
/// # Errors
///
/// Returns `(line_number, description)` of the first violation.
pub fn parse_document(text: &str) -> Result<(Vec<Event>, Vec<String>), (usize, String)> {
    let mut events = Vec::new();
    let mut warnings = Vec::new();
    let mut saw_any = false;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            return Err((i + 1, "blank line".to_string()));
        }
        let mut line_warnings = Vec::new();
        check_line(line, i == 0, Some(&mut line_warnings)).map_err(|e| (i + 1, e))?;
        warnings.extend(line_warnings.into_iter().map(|w| format!("line {}: {w}", i + 1)));
        if i > 0 {
            let v = json::parse(line).map_err(|e| (i + 1, e.to_string()))?;
            events.push(event_from_value(&v).map_err(|e| (i + 1, e))?);
        }
        saw_any = true;
    }
    if !saw_any {
        return Err((1, "empty document (header required)".to_string()));
    }
    Ok((events, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        CacheKind, CacheOutcome, EngineOp, EngineMode, FaultSite, LoopClass, Reason, ShedReason,
        SimFaultKind, SnapshotErrorKind, SpecKind, Stage, WorkloadName,
    };

    /// One of every event variant, for exhaustive schema checks.
    pub(crate) fn one_of_each() -> Vec<Event> {
        vec![
            Event::RunStarted { pc: 0, cycle: 0 },
            Event::LoopDetected { loop_id: 8, end_pc: 20, cycle: 40 },
            Event::StageActivated { stage: Stage::DataCollection, loop_id: 8, dsa_cycles: 0, cycle: 41 },
            Event::CacheAccess {
                cache: CacheKind::Dsa,
                outcome: CacheOutcome::Miss,
                loop_id: 8,
                count: 1,
                dsa_cycles: 1,
                cycle: 41,
            },
            Event::DependencyVerdict { loop_id: 8, pairs: 2, distance: Some(4), dsa_cycles: 4, cycle: 60 },
            Event::LoopClassified { loop_id: 8, class: LoopClass::Count, cycle: 60 },
            Event::LoopVectorized { loop_id: 8, class: LoopClass::Count, planned: 28, peeled: 0, cycle: 61 },
            Event::PartialChunk { loop_id: 8, chunk_iters: 4, dsa_cycles: 3, cycle: 70 },
            Event::SpeculationResolved {
                loop_id: 8,
                kind: SpecKind::Sentinel,
                injected: 16,
                used: 12,
                discarded: 4,
                cycle: 90,
            },
            Event::LoopFinished { loop_id: 8, iters: 28, cycle: 95 },
            Event::LoopRejected { loop_id: 9, class: LoopClass::Unknown, reason: Reason::NonUnitStride, cycle: 99 },
            Event::LoopRolledBack { loop_id: 8, class: LoopClass::Count, reason: Reason::TemplateShapeMismatch, cycle: 100 },
            Event::FaultInjected { site: FaultSite::CorruptTemplate, cycle: 100 },
            Event::EnginePoisoned { during: EngineOp::Launch, expected: EngineMode::Analyzing, cycle: 101 },
            Event::SimFault { kind: SimFaultKind::StepBudgetExceeded, pc: 44, cycle: 102 },
            Event::RunFinished { cycle: 103, committed: 80, halted: false },
            Event::SupervisorRetry { workload: WorkloadName::MatMul, attempt: 1, cycle: 0 },
            Event::WorkerPanicked { workload: WorkloadName::MatMul, cycle: 0 },
            Event::SnapshotRestored { bytes: 4096, cache_entries: 7, cycle: 0 },
            Event::SnapshotRejected { kind: SnapshotErrorKind::ChecksumMismatch, cycle: 0 },
            Event::JobAdmitted { job: 17, shard: 2, queue_depth: 5, cycle: 0 },
            Event::JobShed { reason: ShedReason::Overloaded, cycle: 0 },
            Event::JobCompleted {
                job: 17,
                shard: 3,
                cache_hit: false,
                migrations: 1,
                latency_ms: 42,
                cycle: 0,
            },
            Event::SessionCheckpointed { job: 17, shard: 2, bytes: 9000, commits: 50_000, cycle: 0 },
            Event::SessionMigrated { job: 17, from_shard: 2, cycle: 0 },
            Event::ShardKilled { shard: 2, drained: 3, cycle: 0 },
            Event::ShardRecovered { shard: 2, cycle: 0 },
        ]
    }

    #[test]
    fn every_variant_validates() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in one_of_each() {
            sink.record(&ev);
        }
        sink.finish();
        assert!(sink.take_error().is_none());
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let n = validate_document(&text).expect("valid");
        assert_eq!(n, one_of_each().len() as u64);
    }

    #[test]
    fn header_is_lazy_and_first() {
        let sink = JsonlSink::new(Vec::new());
        assert!(sink.into_inner().is_empty(), "no events → no header");
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&Event::RunStarted { pc: 0, cycle: 0 });
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert!(text.starts_with("{\"record\":\"header\",\"schema\":\"dsa-trace/v2\""));
    }

    #[test]
    fn a_v1_document_is_rejected_at_its_header() {
        // v1 had four more kinds and one more `supervisor-retry` field;
        // reading it as v2 would misread events, so the header refuses.
        let v1 = "{\"record\":\"header\",\"schema\":\"dsa-trace/v1\"}\n\
                  {\"record\":\"event\",\"type\":\"run-started\",\"cycle\":0,\"pc\":0}";
        let want = (1, "unknown schema \"dsa-trace/v1\" (expected \"dsa-trace/v2\")".to_string());
        assert_eq!(validate_document(v1), Err(want.clone()));
        assert_eq!(parse_document(v1).map(|(events, _)| events), Err(want));
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_document("").is_err());
        assert!(validate_document("{\"record\":\"event\"}").is_err(), "header required first");
        let bad_schema = "{\"record\":\"header\",\"schema\":\"dsa-trace/v999\"}";
        assert!(validate_document(bad_schema).unwrap_err().1.contains("unknown schema"));
        let unknown_event =
            format!("{}\n{{\"record\":\"event\",\"type\":\"warp-drive\",\"cycle\":1}}", header_line());
        assert!(validate_document(&unknown_event).unwrap_err().1.contains("unknown event type"));
        let missing_field =
            format!("{}\n{{\"record\":\"event\",\"type\":\"loop-detected\",\"cycle\":1}}", header_line());
        assert!(validate_document(&missing_field).unwrap_err().1.contains("missing field"));
    }

    #[test]
    fn unknown_event_fields_warn_but_validate() {
        // A v2.x producer added a field this reader doesn't know; the
        // document must stay valid and the field must surface as a
        // warning, not an error.
        let doc = format!(
            "{}\n{{\"record\":\"event\",\"type\":\"loop-detected\",\"cycle\":7,\"loop\":64,\"end_pc\":96,\"confidence\":0.97}}",
            header_line()
        );
        assert_eq!(validate_document(&doc), Ok(1));
        let (events, warnings) = validate_document_verbose(&doc).expect("valid");
        assert_eq!(events, 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 2"), "{warnings:?}");
        assert!(warnings[0].contains("\"confidence\""), "{warnings:?}");
        assert!(warnings[0].contains("tolerated"), "{warnings:?}");
        // The typed reader ignores the unknown field entirely.
        let (parsed, parse_warnings) = parse_document(&doc).expect("parses");
        assert_eq!(parsed, vec![Event::LoopDetected { loop_id: 64, end_pc: 96, cycle: 7 }]);
        assert_eq!(parse_warnings.len(), 1);
        // Missing *required* fields still fail.
        let missing = format!(
            "{}\n{{\"record\":\"event\",\"type\":\"loop-detected\",\"cycle\":7,\"loop\":64}}",
            header_line()
        );
        assert!(validate_document_verbose(&missing).is_err());
    }

    #[test]
    fn parse_document_round_trips_every_variant() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in one_of_each() {
            sink.record(&ev);
        }
        sink.finish();
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let (events, warnings) = parse_document(&text).expect("parses");
        assert_eq!(events, one_of_each());
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn io_errors_are_latched_not_propagated() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.record(&Event::RunStarted { pc: 0, cycle: 0 });
        sink.record(&Event::RunFinished { cycle: 1, committed: 1, halted: true });
        let err = sink.take_error().expect("latched");
        assert_eq!(err.to_string(), "disk full");
        assert!(sink.take_error().is_none(), "taking clears");
    }
}
