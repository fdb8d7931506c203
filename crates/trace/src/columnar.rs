//! `dsa-tracebin/v2` — the compact columnar binary trace encoding.
//!
//! At fleet scale a JSONL trace is the wrong shape: a chaos soak emits
//! millions of events and the field names dominate the bytes. This
//! module stores the same [`Event`] stream column-wise instead of
//! row-wise, in CRC-guarded blocks modelled on `dsa-core`'s snapshot
//! format:
//!
//! ```text
//! file   := magic(8) version(u16 LE) block*
//! block  := kind(u8) len(u32 LE) payload[len] crc32(u32 LE)
//! ```
//!
//! The CRC covers `kind || len || payload`, so every single-bit flip
//! anywhere in a block (or its framing) is detected; a missing end
//! block reads as [`BinError::Truncated`]. Block kinds: `1` header
//! (producer string, informational), `2` events, `3` end-of-stream
//! (total event count, cross-checked on decode).
//!
//! An event block groups its events by variant ("kind"), one column
//! group per variant present:
//!
//! ```text
//! payload := n_events(varint)
//!            n_strings(varint) (len(varint) bytes)*      ; block-local table
//!            kind_tag(u8) * n_events                     ; emission order
//!            group*                                      ; ascending kind tag
//! group   := cycle-delta column (zigzag varint)          ; within the kind
//!            payload fields, event-major, fixed order
//! ```
//!
//! Kind tags and each kind's field order are the row order of the
//! schema table in [`crate::event`]; this module only says how each
//! field type is written.
//!
//! Cycles are delta-coded *within each kind column* as the zigzag of
//! the wrapping difference, which is lossless for arbitrary `u64`
//! pairs and near-free for the monotone cycle streams real runs
//! produce. PCs, loop ids and counts are LEB128 varints; tagged enum
//! fields (`Stage`, `CacheKind`, ...) are one byte; word fields (loop
//! classes, reasons, workload names, fault sites, ...) are varint
//! indices into the block-local string table, which holds their names.
//! Decoding maps a word field's string to its variant with the field
//! enum's `from_name`; a string that names no variant of that enum is
//! [`BinError::UnknownString`].
//!
//! The golden binary traces are byte-exact-tested against
//! `crates/core/tests/golden/count_trace.trcb` (a real run, which must
//! stay ≥5x smaller than its JSONL twin) and
//! `crates/trace/tests/golden/every_event.trcb` (every event kind).

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::event::{Choice, Event, EventKind, FieldSink, FieldSource, Wire};
use crate::TraceSink;

/// Version tag of the binary container (the `v2` in `dsa-tracebin/v2`).
pub const BIN_SCHEMA: &str = "dsa-tracebin/v2";

/// File magic: identifies a columnar trace (see [`looks_binary`]).
pub const MAGIC: [u8; 8] = *b"DSATRCB\0";

const VERSION: u16 = 2;

const BLOCK_HEADER: u8 = 1;
const BLOCK_EVENTS: u8 = 2;
const BLOCK_END: u8 = 3;

/// Events buffered per block by [`ColumnarWriter`]. Small enough to
/// bound memory on unbounded streams, large enough that the per-block
/// string table and framing amortize away.
pub const EVENTS_PER_BLOCK: usize = 4096;

/// Why a binary trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The stream ended before the end block (or mid-block).
    Truncated,
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// Container version other than this reader's: kind tags are
    /// schema-table rows, so another version's tags mean other kinds.
    UnsupportedVersion(u16),
    /// A block's CRC-32 did not match its contents.
    ChecksumMismatch {
        /// Offset of the block's kind byte in the file.
        offset: usize,
    },
    /// Structurally invalid contents inside a CRC-valid frame.
    Malformed(String),
    /// A word field whose string names no variant of the field's enum.
    UnknownString(String),
}

impl BinError {
    /// Stable kebab-case kind name (for reports and counters).
    pub fn kind_name(&self) -> &'static str {
        match self {
            BinError::Truncated => "truncated",
            BinError::BadMagic => "bad-magic",
            BinError::UnsupportedVersion(_) => "unsupported-version",
            BinError::ChecksumMismatch { .. } => "checksum-mismatch",
            BinError::Malformed(_) => "malformed",
            BinError::UnknownString(_) => "unknown-string",
        }
    }
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Truncated => write!(f, "trace truncated before end block"),
            BinError::BadMagic => write!(f, "not a {BIN_SCHEMA} trace (bad magic)"),
            BinError::UnsupportedVersion(v) => write!(f, "unsupported container version {v}"),
            BinError::ChecksumMismatch { offset } => {
                write!(f, "block checksum mismatch at offset {offset}")
            }
            BinError::Malformed(why) => write!(f, "malformed trace: {why}"),
            BinError::UnknownString(s) => write!(f, "string {s:?} is no word of its field"),
        }
    }
}

impl std::error::Error for BinError {}

/// True when `bytes` starts with the columnar-trace magic — the sniff
/// `trace_query` uses to pick a reader per file.
pub fn looks_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`),
/// slice-by-8: eight bytes per step through eight 256-entry tables
/// built at compile time, the tail byte by byte through the first. The
/// values are those of the bitwise definition (a test keeps that loop
/// as the reference). Detects all single-bit errors. It lives in this
/// zero-dependency crate so that `dsa-core`'s snapshot images, which
/// sit above it, share it; those are checksummed whole on every encode
/// and restore, so its speed shows in every checkpoint.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through it; `CRC_TABLES[k][b]` continues that for `k` more zero
/// bytes, so one step folds eight input bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Appends `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked cursor over a byte slice; every decode error is a
/// `String` the caller wraps in [`BinError::Malformed`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn read_u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("unexpected end of payload")?;
        self.pos += 1;
        Ok(b)
    }

    fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        let s = self.buf.get(self.pos..end).ok_or("unexpected end of payload")?;
        self.pos = end;
        Ok(s)
    }

    fn read_varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err("varint overflows u64".into());
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err("varint too long".into());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

const KINDS: usize = EventKind::ALL.len();

/// Block-local string table builder (first-use order, deduplicated).
#[derive(Default)]
struct StringTable {
    index: BTreeMap<&'static str, u32>,
    list: Vec<&'static str>,
}

impl StringTable {
    fn id(&mut self, s: &'static str) -> u32 {
        let next = self.list.len() as u32;
        let i = *self.index.entry(s).or_insert(next);
        if i == next {
            self.list.push(s);
        }
        i
    }
}

/// Serializes one block's worth of events into an event-block payload.
fn encode_block(events: &[Event]) -> Vec<u8> {
    let mut strings = StringTable::default();
    // Per-kind column buffers: cycles (delta within the kind) followed
    // by the fixed-order payload fields, event-major.
    let mut cols: Vec<Vec<u8>> = (0..KINDS).map(|_| Vec::new()).collect();
    let mut prev_cycle = [0u64; KINDS];
    let mut kinds = Vec::with_capacity(events.len());

    for ev in events {
        let tag = ev.kind() as usize;
        kinds.push(tag as u8);
        let col = &mut cols[tag];
        let cycle = ev.cycle();
        let delta = cycle.wrapping_sub(prev_cycle[tag]) as i64;
        prev_cycle[tag] = cycle;
        put_varint(col, zigzag(delta));
        ev.write_fields(&mut ColumnSink { col, strings: &mut strings });
    }

    let mut payload = Vec::with_capacity(64 + events.len() * 4);
    put_varint(&mut payload, events.len() as u64);
    put_varint(&mut payload, strings.list.len() as u64);
    for s in &strings.list {
        put_varint(&mut payload, s.len() as u64);
        payload.extend_from_slice(s.as_bytes());
    }
    payload.extend_from_slice(&kinds);
    for col in &cols {
        payload.extend_from_slice(col);
    }
    payload
}

/// Appends an event's payload fields to its kind's column.
struct ColumnSink<'a> {
    col: &'a mut Vec<u8>,
    strings: &'a mut StringTable,
}

impl FieldSink for ColumnSink<'_> {
    fn u64(&mut self, _: &'static str, v: u64) {
        put_varint(self.col, v);
    }

    fn bool(&mut self, _: &'static str, v: bool) {
        self.col.push(u8::from(v));
    }

    fn opt_u32(&mut self, _: &'static str, v: Option<u32>) {
        match v {
            None => self.col.push(0),
            Some(d) => {
                self.col.push(1);
                put_varint(self.col, u64::from(d));
            }
        }
    }

    fn choice<E: Choice>(&mut self, _: &'static str, v: E) {
        match E::WIRE {
            Wire::Tag => self.col.push(v.tag()),
            Wire::Word => put_varint(self.col, u64::from(self.strings.id(v.name()))),
        }
    }
}

/// Reads payload fields back out of an event block's column groups.
struct ColumnSource<'a> {
    r: Reader<'a>,
    strings: Vec<&'a str>,
}

impl FieldSource for ColumnSource<'_> {
    type Error = BinError;

    fn u64(&mut self, _: &'static str) -> Result<u64, BinError> {
        self.r.read_varint().map_err(BinError::Malformed)
    }

    fn u32(&mut self, key: &'static str) -> Result<u32, BinError> {
        u32::try_from(self.u64(key)?).map_err(|_| BinError::Malformed("value exceeds u32".into()))
    }

    fn bool(&mut self, _: &'static str) -> Result<bool, BinError> {
        match self.r.read_u8().map_err(BinError::Malformed)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BinError::Malformed(format!("bad bool byte {b}"))),
        }
    }

    fn opt_u32(&mut self, key: &'static str) -> Result<Option<u32>, BinError> {
        match self.r.read_u8().map_err(BinError::Malformed)? {
            0 => Ok(None),
            1 => self.u32(key).map(Some),
            b => Err(BinError::Malformed(format!("bad option byte {b}"))),
        }
    }

    fn choice<E: Choice>(&mut self, key: &'static str) -> Result<E, BinError> {
        match E::WIRE {
            Wire::Tag => {
                let t = self.r.read_u8().map_err(BinError::Malformed)?;
                E::from_tag(t).ok_or_else(|| BinError::Malformed(format!("bad {} tag {t}", E::WHAT)))
            }
            Wire::Word => {
                let i = self.u64(key)? as usize;
                let s = self.strings.get(i).ok_or_else(|| {
                    BinError::Malformed(format!("string index {i} out of range"))
                })?;
                E::from_name(s).ok_or_else(|| BinError::UnknownString(s.to_string()))
            }
        }
    }
}

fn decode_block(payload: &[u8], out: &mut Vec<Event>) -> Result<(), BinError> {
    let malformed = |e: String| BinError::Malformed(e);
    let mut r = Reader::new(payload);
    let n_events = r.read_varint().map_err(malformed)? as usize;
    if n_events > payload.len() {
        // A kind byte per event is the floor; reject absurd counts
        // before allocating.
        return Err(BinError::Malformed(format!("event count {n_events} exceeds payload")));
    }
    let n_strings = r.read_varint().map_err(malformed)? as usize;
    if n_strings > payload.len() {
        return Err(BinError::Malformed(format!("string count {n_strings} exceeds payload")));
    }
    let mut strings = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        let len = r.read_varint().map_err(malformed)? as usize;
        let bytes = r.read_bytes(len).map_err(malformed)?;
        strings.push(
            std::str::from_utf8(bytes)
                .map_err(|_| BinError::Malformed("string table entry is not UTF-8".into()))?,
        );
    }
    let kinds = r.read_bytes(n_events).map_err(malformed)?;
    let mut counts = [0usize; KINDS];
    for &k in kinds {
        let Some(c) = counts.get_mut(k as usize) else {
            return Err(BinError::Malformed(format!("unknown event kind tag {k}")));
        };
        *c += 1;
    }
    // Decode each kind's column group in ascending-tag order, then
    // re-interleave by walking the kind stream.
    let mut per_kind: Vec<std::collections::VecDeque<Event>> =
        (0..KINDS).map(|_| std::collections::VecDeque::new()).collect();
    let mut columns = ColumnSource { r, strings };
    for (tag, &kind) in EventKind::ALL.iter().enumerate() {
        let mut prev = 0u64;
        for _ in 0..counts[tag] {
            let delta = unzigzag(columns.r.read_varint().map_err(malformed)?);
            let cycle = prev.wrapping_add(delta as u64);
            prev = cycle;
            per_kind[tag].push_back(kind.read(cycle, &mut columns)?);
        }
    }
    if !columns.r.is_empty() {
        return Err(BinError::Malformed("trailing bytes in event block".into()));
    }
    for &k in kinds {
        // infallible by construction: counts[k] events were pushed.
        match per_kind[k as usize].pop_front() {
            Some(ev) => out.push(ev),
            None => return Err(BinError::Malformed("kind stream / column disagreement".into())),
        }
    }
    Ok(())
}

/// Encodes a complete event stream as one `dsa-tracebin/v2` document.
pub fn encode(events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 8 + 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    push_block(&mut out, BLOCK_HEADER, BIN_SCHEMA.as_bytes());
    for chunk in events.chunks(EVENTS_PER_BLOCK) {
        let payload = encode_block(chunk);
        push_block(&mut out, BLOCK_EVENTS, &payload);
    }
    let mut end = Vec::new();
    put_varint(&mut end, events.len() as u64);
    push_block(&mut out, BLOCK_END, &end);
    out
}

fn push_block(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Decodes a `dsa-tracebin/v2` document back into its event stream.
/// Lossless inverse of [`encode`] (and of [`ColumnarWriter`] output).
pub fn decode(bytes: &[u8]) -> Result<Vec<Event>, BinError> {
    if bytes.len() < MAGIC.len() + 2 {
        return Err(if looks_binary(bytes) { BinError::Truncated } else { BinError::BadMagic });
    }
    if !looks_binary(bytes) {
        return Err(BinError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != VERSION {
        return Err(BinError::UnsupportedVersion(version));
    }
    let mut pos = MAGIC.len() + 2;
    let mut events = Vec::new();
    let mut saw_header = false;
    loop {
        if pos == bytes.len() {
            // Stream ended without an end block.
            return Err(BinError::Truncated);
        }
        if bytes.len() - pos < 5 {
            return Err(BinError::Truncated);
        }
        let kind = bytes[pos];
        let len = u32::from_le_bytes([bytes[pos + 1], bytes[pos + 2], bytes[pos + 3], bytes[pos + 4]])
            as usize;
        let payload_start = pos + 5;
        let crc_start = match payload_start.checked_add(len) {
            Some(s) => s,
            None => return Err(BinError::Truncated),
        };
        if bytes.len() < crc_start + 4 {
            return Err(BinError::Truncated);
        }
        let want = u32::from_le_bytes([
            bytes[crc_start],
            bytes[crc_start + 1],
            bytes[crc_start + 2],
            bytes[crc_start + 3],
        ]);
        if crc32(&bytes[pos..crc_start]) != want {
            return Err(BinError::ChecksumMismatch { offset: pos });
        }
        let payload = &bytes[payload_start..crc_start];
        match kind {
            BLOCK_HEADER => {
                saw_header = true;
            }
            BLOCK_EVENTS => decode_block(payload, &mut events)?,
            BLOCK_END => {
                let mut r = Reader::new(payload);
                let total = r.read_varint().map_err(BinError::Malformed)?;
                if total != events.len() as u64 {
                    return Err(BinError::Malformed(format!(
                        "end block claims {total} events, decoded {}",
                        events.len()
                    )));
                }
                if crc_start + 4 != bytes.len() {
                    return Err(BinError::Malformed("bytes after end block".into()));
                }
                if !saw_header {
                    return Err(BinError::Malformed("missing header block".into()));
                }
                return Ok(events);
            }
            k => return Err(BinError::Malformed(format!("unknown block kind {k}"))),
        }
        pos = crc_start + 4;
    }
}

// ---------------------------------------------------------------------
// Streaming writer.
// ---------------------------------------------------------------------

/// A [`TraceSink`] streaming `dsa-tracebin/v2` to any [`Write`]: the
/// binary twin of [`crate::JsonlSink`]. Events buffer in blocks of
/// [`EVENTS_PER_BLOCK`]; `finish` flushes the tail block and writes the
/// end block. IO errors latch (the trace must never abort a
/// simulation) and surface through [`ColumnarWriter::take_error`].
pub struct ColumnarWriter<W: Write> {
    out: W,
    buf: Vec<Event>,
    started: bool,
    finished: bool,
    total: u64,
    error: Option<io::Error>,
}

impl<W: Write> ColumnarWriter<W> {
    /// A writer targeting `out`. Nothing is written until the first
    /// flush (or `finish`, which always produces a valid — possibly
    /// empty — document).
    pub fn new(out: W) -> ColumnarWriter<W> {
        ColumnarWriter { out, buf: Vec::new(), started: false, finished: false, total: 0, error: None }
    }

    fn write_all(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(bytes) {
            self.error = Some(e);
        }
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let mut head = Vec::with_capacity(32);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        push_block(&mut head, BLOCK_HEADER, BIN_SCHEMA.as_bytes());
        self.write_all(&head);
    }

    fn flush_block(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.start();
        let payload = encode_block(&self.buf);
        let mut framed = Vec::with_capacity(payload.len() + 16);
        push_block(&mut framed, BLOCK_EVENTS, &payload);
        self.write_all(&framed);
        self.total += self.buf.len() as u64;
        self.buf.clear();
    }

    /// The first latched IO error, if any (taking it clears the latch).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Consumes the writer, returning the underlying output.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl ColumnarWriter<io::BufWriter<std::fs::File>> {
    /// A writer creating (truncating) the file at `path`.
    pub fn create(path: &str) -> io::Result<ColumnarWriter<io::BufWriter<std::fs::File>>> {
        Ok(ColumnarWriter::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> TraceSink for ColumnarWriter<W> {
    fn record(&mut self, ev: &Event) {
        if self.finished {
            return;
        }
        self.buf.push(*ev);
        if self.buf.len() >= EVENTS_PER_BLOCK {
            self.flush_block();
        }
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.flush_block();
        self.start();
        let mut end = Vec::new();
        put_varint(&mut end, self.total);
        let mut framed = Vec::new();
        push_block(&mut framed, BLOCK_END, &end);
        self.write_all(&framed);
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheKind, CacheOutcome, LoopClass, SnapshotErrorKind, SpecKind, Stage};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStarted { pc: 0, cycle: 0 },
            Event::LoopDetected { loop_id: 64, end_pc: 96, cycle: 120 },
            Event::StageActivated { stage: Stage::LoopDetection, loop_id: 64, dsa_cycles: 1, cycle: 121 },
            Event::CacheAccess {
                cache: CacheKind::Dsa,
                outcome: CacheOutcome::Miss,
                loop_id: 64,
                count: 1,
                dsa_cycles: 2,
                cycle: 121,
            },
            Event::DependencyVerdict { loop_id: 64, pairs: 2, distance: None, dsa_cycles: 6, cycle: 300 },
            Event::DependencyVerdict { loop_id: 64, pairs: 2, distance: Some(4), dsa_cycles: 6, cycle: 310 },
            Event::LoopClassified { loop_id: 64, class: LoopClass::Count, cycle: 311 },
            Event::LoopVectorized { loop_id: 64, class: LoopClass::Count, planned: 96, peeled: 2, cycle: 320 },
            Event::SpeculationResolved {
                kind: SpecKind::Sentinel,
                loop_id: 64,
                injected: 128,
                used: 96,
                discarded: 32,
                cycle: 900,
            },
            Event::JobCompleted { job: 7, shard: 2, cache_hit: true, migrations: 1, latency_ms: 12, cycle: 0 },
            Event::SnapshotRejected { kind: SnapshotErrorKind::ChecksumMismatch, cycle: 0 },
            Event::RunFinished { cycle: 1000, committed: 512, halted: true },
        ]
    }

    /// The bitwise definition `crc32` must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn slice_by_8_crc_equals_the_bitwise_definition() {
        assert_eq!(crc32(&[]), crc32_bitwise(&[]));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut byte = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        };
        for len in 1..=17 {
            let buf: Vec<u8> = (0..len).map(|_| byte()).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
            // Every alignment of the 8-byte steps inside a longer buffer.
            let long: Vec<u8> = (0..64 + len).map(|_| byte()).collect();
            for start in 0..8 {
                let part = &long[start..start + 40 + len];
                assert_eq!(crc32(part), crc32_bitwise(part), "length {len} at {start}");
            }
        }
        for len in [255, 256, 1000, 4096, 4097] {
            let buf: Vec<u8> = (0..len).map(|_| byte()).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
        for len in [16, 4096] {
            for fill in [0x00, 0xFF] {
                let buf = vec![fill; len];
                assert_eq!(crc32(&buf), crc32_bitwise(&buf), "{len} x {fill:#04x}");
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let data = b"the dsa cache survives the crash";
        let good = crc32(data);
        let mut buf = data.to_vec();
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&buf), good, "bit {bit} undetected");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn round_trip_preserves_events() {
        let events = sample_events();
        let bytes = encode(&events);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, events);
    }

    #[test]
    fn round_trip_empty_stream() {
        let bytes = encode(&[]);
        assert!(looks_binary(&bytes));
        assert_eq!(decode(&bytes).expect("decode"), Vec::<Event>::new());
    }

    #[test]
    fn writer_matches_one_shot_encode() {
        let events = sample_events();
        let mut w = ColumnarWriter::new(Vec::new());
        for ev in &events {
            w.record(ev);
        }
        w.finish();
        assert!(w.take_error().is_none());
        assert_eq!(w.into_inner(), encode(&events));
    }

    #[test]
    fn writer_splits_blocks_and_still_round_trips() {
        // Force multiple blocks through the streaming writer.
        let mut events = Vec::new();
        for i in 0..(EVENTS_PER_BLOCK as u64 * 2 + 17) {
            events.push(Event::StageActivated {
                stage: Stage::ALL[(i % 6) as usize],
                loop_id: (i % 13) as u32,
                dsa_cycles: i % 7,
                cycle: i * 3,
            });
        }
        let mut w = ColumnarWriter::new(Vec::new());
        for ev in &events {
            w.record(ev);
        }
        w.finish();
        let bytes = w.into_inner();
        assert_eq!(decode(&bytes).expect("decode"), events);
    }

    #[test]
    fn non_monotone_and_extreme_cycles_survive() {
        let events = vec![
            Event::ShardKilled { shard: 1, drained: 3, cycle: u64::MAX },
            Event::ShardKilled { shard: 1, drained: 0, cycle: 0 },
            Event::ShardKilled { shard: 2, drained: 9, cycle: u64::MAX / 2 },
        ];
        let bytes = encode(&events);
        assert_eq!(decode(&bytes).expect("decode"), events);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample_events());
        for cut in [0, 4, 9, 12, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).expect_err("truncated trace must not decode");
            assert!(
                matches!(err, BinError::Truncated | BinError::BadMagic),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn a_version_1_trace_is_rejected_typed() {
        let mut bytes = encode(&sample_events());
        bytes[MAGIC.len()..MAGIC.len() + 2].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode(&bytes), Err(BinError::UnsupportedVersion(1)));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(&sample_events());
        let original = decode(&bytes).expect("decode");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                match decode(&bad) {
                    Err(_) => {}
                    Ok(events) => panic!(
                        "bit flip at byte {byte} bit {bit} decoded silently ({} events vs {})",
                        events.len(),
                        original.len()
                    ),
                }
            }
        }
    }

    #[test]
    fn binary_is_much_smaller_than_jsonl() {
        let mut events = Vec::new();
        for i in 0..500u64 {
            events.push(Event::StageActivated {
                stage: Stage::ALL[(i % 6) as usize],
                loop_id: (i % 13) as u32,
                dsa_cycles: i % 7,
                cycle: i * 11,
            });
        }
        let jsonl: usize = events.iter().map(|e| e.to_json_line().len() + 1).sum();
        let bin = encode(&events).len();
        assert!(bin * 5 <= jsonl, "binary {bin} bytes vs jsonl {jsonl} bytes: < 5x");
    }
}
