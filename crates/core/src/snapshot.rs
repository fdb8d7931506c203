//! Crash-consistent snapshots of a DSA-attached simulation.
//!
//! The paper's warm-cache argument — verified loop templates persist in
//! the 8 KB DSA cache so re-entries skip analysis entirely — only holds
//! in a long-lived deployment if that state survives process death. A
//! [`Snapshot`] captures everything needed to resume: the CPU's full
//! architectural state ([`dsa_cpu::MachineState`]) and the DSA's
//! *persistent* state (cache entries with their templates and
//! speculative trip ranges, LRU clock, verification-table counters,
//! statistics, loop census). The DSA's *transient* detection mode is
//! deliberately not captured: the engine restarts in Probing, so a
//! crash mid-analysis loses at most the in-flight detection — never
//! architectural state, which the scalar core owns (the safety argument
//! of §4; [`crate::oracle::DifferentialOracle::check_resume`] proves a
//! resumed run bit-identical to an uninterrupted one).
//!
//! # Wire format (version 1)
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `"DSASNAP\0"` |
//! | 8      | 2    | version (LE u16) |
//! | 10     | 8    | payload length (LE u64) |
//! | 18     | n    | payload (config fingerprint, machine, engine) |
//! | 18 + n | 4    | CRC-32 (IEEE) over bytes `0 .. 18 + n` |
//!
//! All integers are little-endian. Collections are length-prefixed and
//! written in sorted key order, so `snapshot → restore → snapshot` is
//! byte-identical. The trailing CRC covers the header too; because
//! CRC-32 detects every single-bit error, any torn or bit-flipped image
//! is rejected with a typed [`SnapshotError`] instead of a panic, and
//! the caller decides what a rejected image means (dsa-serve fails the
//! session with `RunError::Snapshot`).

use dsa_cpu::{Flags, Machine, MachineState};
use dsa_mem::PAGE_BYTES;
use dsa_trace::{crc32, SnapshotErrorKind};

use crate::caches::CachedKind;
use crate::config::DsaConfig;
use crate::engine::Dsa;
use crate::plan::{ArmTemplate, LoopTemplate, OpMix, StreamTemplate};
use crate::stats::{DsaStats, LoopClass};

/// Magic prefix of every snapshot image.
pub const MAGIC: [u8; 8] = *b"DSASNAP\0";
/// Current schema version.
pub const VERSION: u16 = 1;
const HEADER_LEN: usize = 8 + 2 + 8;

/// Why a snapshot image was rejected. `Copy` so it can ride inside
/// `RunError`-style enums without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The image is shorter than its header + declared payload + CRC.
    Truncated,
    /// The magic prefix is wrong (not a snapshot, or a torn header).
    BadMagic,
    /// The schema version is not one this build can read.
    UnsupportedVersion(u16),
    /// The CRC-32 trailer does not match the image contents.
    ChecksumMismatch,
    /// The payload violates the schema (bad tag, bad length, trailing
    /// bytes); the contained string names the offending field.
    Malformed(&'static str),
    /// The image was captured under a different DSA configuration than
    /// the one it is being restored into.
    ConfigMismatch,
}

impl SnapshotError {
    /// The error's kind, as [`dsa_trace::Event::SnapshotRejected`]
    /// reports it.
    pub fn kind(self) -> SnapshotErrorKind {
        match self {
            SnapshotError::Truncated => SnapshotErrorKind::Truncated,
            SnapshotError::BadMagic => SnapshotErrorKind::BadMagic,
            SnapshotError::UnsupportedVersion(_) => SnapshotErrorKind::UnsupportedVersion,
            SnapshotError::ChecksumMismatch => SnapshotErrorKind::ChecksumMismatch,
            SnapshotError::Malformed(_) => SnapshotErrorKind::Malformed,
            SnapshotError::ConfigMismatch => SnapshotErrorKind::ConfigMismatch,
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot image is truncated"),
            SnapshotError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was captured under a different DSA configuration")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The DSA engine's persistent state, as exported by
/// `Dsa::engine_state` and re-imported by `Dsa::from_state`. All
/// collections are sorted by key.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    pub(crate) cache_capacity: u32,
    /// `(loop_id, kind, last_use)`, sorted by loop ID.
    pub(crate) cache_entries: Vec<(u32, CachedKind, u64)>,
    pub(crate) cache_tick: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cache_evictions: u64,
    pub(crate) vcache_capacity: u32,
    pub(crate) vcache_accesses: u64,
    /// Raw engine counters (cache hit/miss folding happens at read time).
    pub(crate) stats: DsaStats,
    /// `(loop_id, class)`, sorted by loop ID.
    pub(crate) census: Vec<(u32, LoopClass)>,
}

/// A captured snapshot: CPU architectural state + DSA persistent state,
/// plus the fingerprint of the configuration it was captured under.
#[derive(Debug, Clone)]
pub struct Snapshot {
    config_fingerprint: u64,
    machine: MachineState,
    engine: EngineState,
}

impl Snapshot {
    /// Captures the current state of a DSA-attached simulation. Valid at
    /// any commit boundary; [`dsa_cpu::Simulator::run_bounded`]'s
    /// `Paused` outcome is the intended pause point.
    pub fn capture(dsa: &Dsa, machine: &Machine) -> Snapshot {
        Snapshot {
            config_fingerprint: dsa.config().fingerprint(),
            machine: machine.capture(),
            engine: dsa.engine_state(),
        }
    }

    /// Rebuilds the machine half of the snapshot.
    pub fn restore_machine(&self) -> Machine {
        Machine::restore(&self.machine)
    }

    /// Rebuilds the engine half of the snapshot under `config`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] if `config` (neutralized) does
    /// not fingerprint-match the capture-time configuration — restoring
    /// a cache image into, say, a differently-sized cache would silently
    /// break the capacity invariants.
    pub fn restore_engine(&self, config: DsaConfig) -> Result<Dsa, SnapshotError> {
        if config.fingerprint() != self.config_fingerprint {
            return Err(SnapshotError::ConfigMismatch);
        }
        Ok(Dsa::from_state(config, self.engine.clone()))
    }

    /// Serializes to the versioned, CRC-guarded wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(1024);
        enc_u64(&mut payload, self.config_fingerprint);
        enc_machine(&mut payload, &self.machine);
        enc_engine(&mut payload, &self.engine);

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a wire image.
    ///
    /// # Errors
    ///
    /// Every way an image can be bad maps to a typed [`SnapshotError`]:
    /// too short → `Truncated`; wrong prefix → `BadMagic`; unknown
    /// version → `UnsupportedVersion`; any bit flip → `ChecksumMismatch`
    /// (CRC-32 detects all single-bit errors); schema violations and
    /// trailing bytes → `Malformed`. This function never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN + 4 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&bytes[10..18]);
        let payload_len = u64::from_le_bytes(len_bytes) as usize;
        let total = match HEADER_LEN.checked_add(payload_len).and_then(|n| n.checked_add(4)) {
            Some(t) => t,
            None => return Err(SnapshotError::Malformed("payload-length")),
        };
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotError::Malformed("trailing-bytes"));
        }
        let stored_crc = u32::from_le_bytes([
            bytes[total - 4],
            bytes[total - 3],
            bytes[total - 2],
            bytes[total - 1],
        ]);
        if crc32(&bytes[..total - 4]) != stored_crc {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut d = Dec { data: &bytes[HEADER_LEN..total - 4] };
        let config_fingerprint = d.u64()?;
        let machine = dec_machine(&mut d)?;
        let engine = dec_engine(&mut d)?;
        if !d.data.is_empty() {
            return Err(SnapshotError::Malformed("payload-trailing-bytes"));
        }
        Ok(Snapshot { config_fingerprint, machine, engine })
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn enc_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn enc_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn enc_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => enc_u8(out, 0),
        Some(x) => {
            enc_u8(out, 1);
            enc_u32(out, x);
        }
    }
}

fn enc_opt_i64(out: &mut Vec<u8>, v: Option<i64>) {
    match v {
        None => enc_u8(out, 0),
        Some(x) => {
            enc_u8(out, 1);
            enc_i64(out, x);
        }
    }
}

fn enc_opt_range(out: &mut Vec<u8>, v: Option<(u32, u32)>) {
    match v {
        None => enc_u8(out, 0),
        Some((lo, hi)) => {
            enc_u8(out, 1);
            enc_u32(out, lo);
            enc_u32(out, hi);
        }
    }
}

fn enc_machine(out: &mut Vec<u8>, m: &MachineState) {
    for r in m.regs {
        enc_u32(out, r);
    }
    for q in m.qregs {
        out.extend_from_slice(&q);
    }
    enc_u8(out, m.flags.to_bits());
    enc_bool(out, m.halted);
    enc_u32(out, m.pages.len() as u32);
    for (page, data) in &m.pages {
        enc_u32(out, *page);
        out.extend_from_slice(&data[..]);
    }
}

/// Inverse of `class as u8` for a census class.
fn loop_class_from_tag(tag: u8) -> Result<LoopClass, SnapshotError> {
    LoopClass::CENSUS.get(usize::from(tag)).copied().ok_or(SnapshotError::Malformed("loop-class"))
}

fn enc_stream(out: &mut Vec<u8>, s: &StreamTemplate) {
    enc_u32(out, s.pc);
    enc_u8(out, s.occ);
    enc_bool(out, s.is_write);
    enc_u8(out, s.bytes);
    enc_i64(out, s.gap);
}

fn enc_streams(out: &mut Vec<u8>, streams: &[StreamTemplate]) {
    enc_u32(out, streams.len() as u32);
    for s in streams {
        enc_stream(out, s);
    }
}

fn enc_ops(out: &mut Vec<u8>, ops: &OpMix) {
    enc_u32(out, ops.alu);
    enc_u32(out, ops.mul);
    enc_u32(out, ops.shift);
}

fn enc_template(out: &mut Vec<u8>, t: &LoopTemplate) {
    enc_u8(out, t.class as u8);
    enc_u32(out, t.end_pc);
    enc_opt_range(out, t.callee_range);
    enc_opt_u32(out, t.exit_check_pc);
    enc_u8(out, t.elem_bytes);
    enc_bool(out, t.float);
    enc_streams(out, &t.streams);
    enc_ops(out, &t.ops);
    enc_u32(out, t.arms.len() as u32);
    for arm in &t.arms {
        enc_u64(out, arm.path);
        enc_streams(out, &arm.streams);
        enc_ops(out, &arm.ops);
    }
    enc_opt_u32(out, t.partial_distance);
    enc_u32(out, t.spec_range);
    enc_opt_i64(out, t.trip_imm);
    enc_opt_range(out, t.cover_range);
    enc_opt_u32(out, t.fused_inner_trip);
}

fn enc_cached_kind(out: &mut Vec<u8>, kind: &CachedKind) {
    match kind {
        CachedKind::NonVectorizable(class) => {
            enc_u8(out, 0);
            enc_u8(out, *class as u8);
        }
        CachedKind::Vectorizable(t) => {
            enc_u8(out, 1);
            enc_template(out, t);
        }
    }
}

fn enc_stats(out: &mut Vec<u8>, s: &DsaStats) {
    // Fixed field order; adding a DsaStats field requires a VERSION bump.
    for v in [
        s.loops_detected,
        s.loops_vectorized,
        s.dsa_cache_hits,
        s.dsa_cache_misses,
        s.covered_iterations,
        s.injected_ops,
        s.detection_cycles,
        s.stage_loop_detection,
        s.stage_data_collection,
        s.stage_dependency_analysis,
        s.stage_store_id_execution,
        s.stage_mapping,
        s.stage_speculative,
        s.vcache_accesses,
        s.array_map_accesses,
        s.cidp_evaluations,
        s.partial_chunks,
        s.discarded_lanes,
        s.faults_injected,
        s.degradations,
        s.poison_events,
    ] {
        enc_u64(out, v);
    }
}

fn enc_engine(out: &mut Vec<u8>, e: &EngineState) {
    enc_u32(out, e.cache_capacity);
    enc_u32(out, e.cache_entries.len() as u32);
    for (id, kind, last_use) in &e.cache_entries {
        enc_u32(out, *id);
        enc_cached_kind(out, kind);
        enc_u64(out, *last_use);
    }
    enc_u64(out, e.cache_tick);
    enc_u64(out, e.cache_hits);
    enc_u64(out, e.cache_misses);
    enc_u64(out, e.cache_evictions);
    enc_u32(out, e.vcache_capacity);
    enc_u64(out, e.vcache_accesses);
    enc_stats(out, &e.stats);
    enc_u32(out, e.census.len() as u32);
    for (id, class) in &e.census {
        enc_u32(out, *id);
        enc_u8(out, *class as u8);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    data: &'a [u8],
}

impl Dec<'_> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&[u8], SnapshotError> {
        if self.data.len() < n {
            return Err(SnapshotError::Malformed(what));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1, "u8")?[0])
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed(what)),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8, "u64")?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.u64()? as i64)
    }

    fn opt_u32(&mut self, what: &'static str) -> Result<Option<u32>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(SnapshotError::Malformed(what)),
        }
    }

    fn opt_i64(&mut self, what: &'static str) -> Result<Option<i64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            _ => Err(SnapshotError::Malformed(what)),
        }
    }

    fn opt_range(&mut self, what: &'static str) -> Result<Option<(u32, u32)>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some((self.u32()?, self.u32()?))),
            _ => Err(SnapshotError::Malformed(what)),
        }
    }

    /// Sanity-caps a declared element count: each element occupies at
    /// least `min_elem_bytes`, so a count larger than the remaining
    /// bytes is malformed (prevents huge pre-allocations from a
    /// corrupted length that happened to pass CRC — e.g. a crafted
    /// image).
    fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.data.len() {
            return Err(SnapshotError::Malformed(what));
        }
        Ok(n)
    }
}

fn dec_machine(d: &mut Dec<'_>) -> Result<MachineState, SnapshotError> {
    let mut regs = [0u32; 16];
    for r in &mut regs {
        *r = d.u32()?;
    }
    let mut qregs = [[0u8; 16]; 16];
    for q in &mut qregs {
        q.copy_from_slice(d.take(16, "qreg")?);
    }
    let flag_bits = d.u8()?;
    if flag_bits & 0xF0 != 0 {
        return Err(SnapshotError::Malformed("flags"));
    }
    let flags = Flags::from_bits(flag_bits);
    let halted = d.bool("halted")?;
    let n_pages = d.count(4 + PAGE_BYTES, "page-count")?;
    let mut pages = Vec::with_capacity(n_pages);
    let mut prev: Option<u32> = None;
    for _ in 0..n_pages {
        let page = d.u32()?;
        if prev.is_some_and(|p| p >= page) {
            return Err(SnapshotError::Malformed("page-order"));
        }
        prev = Some(page);
        let mut data = Box::new([0u8; PAGE_BYTES]);
        data.copy_from_slice(d.take(PAGE_BYTES, "page-bytes")?);
        pages.push((page, data));
    }
    Ok(MachineState { regs, qregs, flags, halted, pages })
}

fn dec_stream(d: &mut Dec<'_>) -> Result<StreamTemplate, SnapshotError> {
    Ok(StreamTemplate {
        pc: d.u32()?,
        occ: d.u8()?,
        is_write: d.bool("stream-is-write")?,
        bytes: d.u8()?,
        gap: d.i64()?,
    })
}

fn dec_streams(d: &mut Dec<'_>) -> Result<Vec<StreamTemplate>, SnapshotError> {
    let n = d.count(15, "stream-count")?;
    (0..n).map(|_| dec_stream(d)).collect()
}

fn dec_ops(d: &mut Dec<'_>) -> Result<OpMix, SnapshotError> {
    Ok(OpMix { alu: d.u32()?, mul: d.u32()?, shift: d.u32()? })
}

fn dec_template(d: &mut Dec<'_>) -> Result<LoopTemplate, SnapshotError> {
    let class = loop_class_from_tag(d.u8()?)?;
    let end_pc = d.u32()?;
    let callee_range = d.opt_range("callee-range")?;
    let exit_check_pc = d.opt_u32("exit-check-pc")?;
    let elem_bytes = d.u8()?;
    let float = d.bool("float")?;
    let streams = dec_streams(d)?;
    let ops = dec_ops(d)?;
    let n_arms = d.count(24, "arm-count")?;
    let mut arms = Vec::with_capacity(n_arms);
    for _ in 0..n_arms {
        let path = d.u64()?;
        let arm_streams = dec_streams(d)?;
        let arm_ops = dec_ops(d)?;
        arms.push(ArmTemplate { path, streams: arm_streams, ops: arm_ops });
    }
    Ok(LoopTemplate {
        class,
        end_pc,
        callee_range,
        exit_check_pc,
        elem_bytes,
        float,
        streams,
        ops,
        arms,
        partial_distance: d.opt_u32("partial-distance")?,
        spec_range: d.u32()?,
        trip_imm: d.opt_i64("trip-imm")?,
        cover_range: d.opt_range("cover-range")?,
        fused_inner_trip: d.opt_u32("fused-inner-trip")?,
    })
}

fn dec_cached_kind(d: &mut Dec<'_>) -> Result<CachedKind, SnapshotError> {
    match d.u8()? {
        0 => Ok(CachedKind::NonVectorizable(loop_class_from_tag(d.u8()?)?)),
        1 => Ok(CachedKind::Vectorizable(dec_template(d)?)),
        _ => Err(SnapshotError::Malformed("cached-kind")),
    }
}

fn dec_stats(d: &mut Dec<'_>) -> Result<DsaStats, SnapshotError> {
    Ok(DsaStats {
        loops_detected: d.u64()?,
        loops_vectorized: d.u64()?,
        dsa_cache_hits: d.u64()?,
        dsa_cache_misses: d.u64()?,
        covered_iterations: d.u64()?,
        injected_ops: d.u64()?,
        detection_cycles: d.u64()?,
        stage_loop_detection: d.u64()?,
        stage_data_collection: d.u64()?,
        stage_dependency_analysis: d.u64()?,
        stage_store_id_execution: d.u64()?,
        stage_mapping: d.u64()?,
        stage_speculative: d.u64()?,
        vcache_accesses: d.u64()?,
        array_map_accesses: d.u64()?,
        cidp_evaluations: d.u64()?,
        partial_chunks: d.u64()?,
        discarded_lanes: d.u64()?,
        faults_injected: d.u64()?,
        degradations: d.u64()?,
        poison_events: d.u64()?,
    })
}

fn dec_engine(d: &mut Dec<'_>) -> Result<EngineState, SnapshotError> {
    let cache_capacity = d.u32()?;
    let n_entries = d.count(14, "cache-entry-count")?;
    let mut cache_entries = Vec::with_capacity(n_entries);
    let mut prev: Option<u32> = None;
    for _ in 0..n_entries {
        let id = d.u32()?;
        if prev.is_some_and(|p| p >= id) {
            return Err(SnapshotError::Malformed("cache-entry-order"));
        }
        prev = Some(id);
        let kind = dec_cached_kind(d)?;
        let last_use = d.u64()?;
        cache_entries.push((id, kind, last_use));
    }
    let cache_tick = d.u64()?;
    let cache_hits = d.u64()?;
    let cache_misses = d.u64()?;
    let cache_evictions = d.u64()?;
    let vcache_capacity = d.u32()?;
    let vcache_accesses = d.u64()?;
    let stats = dec_stats(d)?;
    let n_census = d.count(5, "census-count")?;
    let mut census = Vec::with_capacity(n_census);
    let mut prev: Option<u32> = None;
    for _ in 0..n_census {
        let id = d.u32()?;
        if prev.is_some_and(|p| p >= id) {
            return Err(SnapshotError::Malformed("census-order"));
        }
        prev = Some(id);
        census.push((id, loop_class_from_tag(d.u8()?)?));
    }
    Ok(EngineState {
        cache_capacity,
        cache_entries,
        cache_tick,
        cache_hits,
        cache_misses,
        cache_evictions,
        vcache_capacity,
        vcache_accesses,
        stats,
        census,
    })
}

// ---------------------------------------------------------------------
// Session envelope
// ---------------------------------------------------------------------

/// Magic prefix of a session envelope (a snapshot image wrapped with
/// service bookkeeping so a checkpoint can migrate between shards).
pub const SESSION_MAGIC: [u8; 8] = *b"DSASESS\0";
/// Current session-envelope schema version. Independent of the
/// snapshot [`VERSION`]: the envelope wraps the snapshot image as an
/// opaque byte string, so either format can evolve alone.
pub const SESSION_VERSION: u16 = 1;
const SESSION_HEADER_LEN: usize = 8 + 2 + 8 * 4 + 4 + 8;

/// Service bookkeeping that travels with a checkpoint: enough for a
/// healthy shard to adopt a killed shard's in-flight session and keep
/// its identity, progress counter and migration history intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMeta {
    /// Service-assigned job id.
    pub job_id: u64,
    /// `Program::content_hash` of the running kernel — the adopting
    /// shard refuses an envelope whose digest disagrees with the job it
    /// thinks it is resuming.
    pub program_digest: u64,
    /// Instructions committed at capture time.
    pub commits: u64,
    /// How many shards this session has already migrated across.
    pub migrations: u64,
    /// The shard that captured the checkpoint.
    pub shard: u32,
}

impl SessionMeta {
    /// Wraps a snapshot wire image (from [`Snapshot::to_bytes`]) into a
    /// session envelope: magic, version, meta fields, payload length,
    /// payload, CRC-32 trailer over everything before it.
    pub fn wrap(&self, snapshot_bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(SESSION_HEADER_LEN + snapshot_bytes.len() + 4);
        out.extend_from_slice(&SESSION_MAGIC);
        out.extend_from_slice(&SESSION_VERSION.to_le_bytes());
        out.extend_from_slice(&self.job_id.to_le_bytes());
        out.extend_from_slice(&self.program_digest.to_le_bytes());
        out.extend_from_slice(&self.commits.to_le_bytes());
        out.extend_from_slice(&self.migrations.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&(snapshot_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(snapshot_bytes);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a session envelope, returning the metadata and the inner
    /// snapshot image (still to be validated by
    /// [`Snapshot::from_bytes`] — the envelope CRC already covers it,
    /// but the snapshot's own schema checks still apply).
    ///
    /// # Errors
    ///
    /// Same typed vocabulary as the snapshot reader: short images →
    /// [`SnapshotError::Truncated`], wrong prefix →
    /// [`SnapshotError::BadMagic`], unknown version →
    /// [`SnapshotError::UnsupportedVersion`], any bit flip →
    /// [`SnapshotError::ChecksumMismatch`], trailing bytes →
    /// [`SnapshotError::Malformed`]. Never panics.
    pub fn unwrap(bytes: &[u8]) -> Result<(SessionMeta, &[u8]), SnapshotError> {
        if bytes.len() < SESSION_HEADER_LEN + 4 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != SESSION_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != SESSION_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let u64_at = |off: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(a)
        };
        let payload_len = u64_at(SESSION_HEADER_LEN - 8) as usize;
        let total = match SESSION_HEADER_LEN.checked_add(payload_len).and_then(|n| n.checked_add(4))
        {
            Some(t) => t,
            None => return Err(SnapshotError::Malformed("session-payload-length")),
        };
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotError::Malformed("session-trailing-bytes"));
        }
        let stored_crc = u32::from_le_bytes([
            bytes[total - 4],
            bytes[total - 3],
            bytes[total - 2],
            bytes[total - 1],
        ]);
        if crc32(&bytes[..total - 4]) != stored_crc {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let meta = SessionMeta {
            job_id: u64_at(10),
            program_digest: u64_at(18),
            commits: u64_at(26),
            migrations: u64_at(34),
            shard: u32::from_le_bytes([bytes[42], bytes[43], bytes[44], bytes[45]]),
        };
        Ok((meta, &bytes[SESSION_HEADER_LEN..total - 4]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_roundtrips() {
        let dsa = Dsa::new(DsaConfig::default());
        let machine = Machine::new();
        let snap = Snapshot::capture(&dsa, &machine);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("valid image");
        assert_eq!(back.to_bytes(), bytes, "re-serialization is byte-identical");
        let machine2 = back.restore_machine();
        assert_eq!(machine2.arch_digest(), machine.arch_digest());
        let dsa2 = back.restore_engine(DsaConfig::default()).expect("same config");
        assert_eq!(dsa2.stats(), dsa.stats());
    }

    #[test]
    fn rejects_truncation_magic_version_and_trailing() {
        let dsa = Dsa::new(DsaConfig::default());
        let bytes = Snapshot::capture(&dsa, &Machine::new()).to_bytes();

        for cut in [0, 1, HEADER_LEN, bytes.len() - 1] {
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::Truncated)
                ),
                "cut at {cut}"
            );
        }

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bad_version),
            Err(SnapshotError::UnsupportedVersion(99))
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&trailing),
            Err(SnapshotError::Malformed("trailing-bytes"))
        ));
    }

    #[test]
    fn config_mismatch_is_typed() {
        let dsa = Dsa::new(DsaConfig::default());
        let snap = Snapshot::capture(&dsa, &Machine::new());
        let other = DsaConfig { vcache_bytes: 2048, ..DsaConfig::default() };
        assert!(matches!(
            snap.restore_engine(other),
            Err(SnapshotError::ConfigMismatch)
        ));
    }

    #[test]
    fn every_single_bit_flip_of_an_image_is_rejected() {
        let dsa = Dsa::new(DsaConfig::default());
        let bytes = Snapshot::capture(&dsa, &Machine::new()).to_bytes();
        let mut buf = bytes.clone();
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Snapshot::from_bytes(&buf).is_err(),
                "flipped bit {bit} produced an accepted image"
            );
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(Snapshot::from_bytes(&buf).is_ok(), "unflipped image still valid");
    }

    #[test]
    fn error_display_and_names_are_stable() {
        let cases = [
            (SnapshotError::Truncated, "truncated"),
            (SnapshotError::BadMagic, "bad-magic"),
            (SnapshotError::UnsupportedVersion(3), "unsupported-version"),
            (SnapshotError::ChecksumMismatch, "checksum-mismatch"),
            (SnapshotError::Malformed("x"), "malformed"),
            (SnapshotError::ConfigMismatch, "config-mismatch"),
        ];
        for (e, name) in cases {
            assert_eq!(e.kind().name(), name);
            assert!(!e.to_string().is_empty());
        }
    }

    fn meta() -> SessionMeta {
        SessionMeta { job_id: 77, program_digest: 0xDEAD_BEEF, commits: 4_096, migrations: 2, shard: 3 }
    }

    #[test]
    fn session_envelope_roundtrips_and_preserves_the_payload() {
        let payload = b"not actually a snapshot - the envelope treats it opaquely";
        let wire = meta().wrap(payload);
        let (back, inner) = SessionMeta::unwrap(&wire).expect("roundtrips");
        assert_eq!(back, meta());
        assert_eq!(inner, payload);
        // Empty payloads are legal (a session can checkpoint zero-state
        // placeholders while queued).
        let empty = meta().wrap(&[]);
        let (_, inner) = SessionMeta::unwrap(&empty).expect("empty payload ok");
        assert!(inner.is_empty());
    }

    #[test]
    fn session_envelope_rejects_every_single_bit_flip() {
        let mut wire = meta().wrap(b"payload");
        for bit in 0..wire.len() * 8 {
            wire[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SessionMeta::unwrap(&wire).is_err(),
                "flipped bit {bit} produced an accepted envelope"
            );
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(SessionMeta::unwrap(&wire).is_ok(), "unflipped envelope still valid");
    }

    #[test]
    fn session_envelope_typed_rejections() {
        let wire = meta().wrap(b"payload");
        for cut in 0..wire.len() {
            assert!(
                matches!(
                    SessionMeta::unwrap(&wire[..cut]),
                    Err(SnapshotError::Truncated | SnapshotError::ChecksumMismatch)
                ),
                "truncation at {cut} must be typed"
            );
        }
        let mut long = wire.clone();
        long.push(0);
        assert_eq!(SessionMeta::unwrap(&long), Err(SnapshotError::Malformed("session-trailing-bytes")));
        let mut magic = wire.clone();
        magic[0] ^= 0xFF;
        assert_eq!(SessionMeta::unwrap(&magic), Err(SnapshotError::BadMagic));
        let mut version = wire;
        version[8] = 9;
        // Version bytes are CRC-covered, so distinguish the version
        // check from the checksum by re-signing the image.
        let n = version.len();
        let crc = crc32(&version[..n - 4]);
        version[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(SessionMeta::unwrap(&version), Err(SnapshotError::UnsupportedVersion(9)));
        // A snapshot image is not a session envelope and vice versa.
        let dsa = Dsa::new(DsaConfig::full());
        let machine = Machine::new();
        let snap = Snapshot::capture(&dsa, &machine).to_bytes();
        assert_eq!(SessionMeta::unwrap(&snap), Err(SnapshotError::BadMagic));
        assert_eq!(Snapshot::from_bytes(&meta().wrap(&snap)).err(), Some(SnapshotError::BadMagic));
    }
}
