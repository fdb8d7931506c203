//! The typed telemetry vocabulary: everything the DSA and the simulator
//! can report about a run, as plain `Copy`-ish data with stable names.
//!
//! The [`Event`] declaration below is also the wire schema, and the
//! only place an event's layout is written down. Each row gives the
//! variant's kebab-case type name and its payload fields in wire order
//! (`cycle` first), with the JSONL key where it differs from the field
//! name; the row's position is its `dsa-tracebin/v2` kind tag. The
//! `events!` macro derives from it [`Event::type_name`],
//! [`Event::cycle`], the tag, the required-field list the JSONL
//! validator checks, and two walkers over the payload — one that writes
//! it to a `FieldSink` and one that reads it from a `FieldSource`. The
//! JSONL and tracebin codecs are one sink and one source each, written
//! per field type. Adding an event is adding a row.

use std::fmt::Write as _;

/// Version tag written in the JSONL header record and checked by the
/// schema validator. Bump on any breaking change to event field names.
pub const SCHEMA: &str = "dsa-trace/v2";

/// The closed vocabulary of the schema's string fields: every string an
/// emitter puts in an event, grouped by field. A decoder hands out the
/// entry here ([`intern`]), so decoded events hold `&'static str` like
/// emitted ones with no allocation, and a string outside the list is a
/// decode error: reading a trace can never grow the process. A word that
/// serves several fields is listed once, under the first. An emitter
/// that adds a string adds it here; the emitting crates' tests check
/// their names against this list.
pub static VOCABULARY: &[&str] = &[
    // `SimFault::kind`: `dsa_cpu::SimError::kind_name`.
    "halted",
    "pc-out-of-range",
    "step-budget-exceeded",
    "vector-lane",
    // `class` of the loop events: `dsa_core::LoopClass::name`, and
    // "unknown" for a rollback with no loop behind it.
    "count",
    "function",
    "nest",
    "conditional",
    "dynamic-range",
    "sentinel",
    "partial",
    "non-vectorizable",
    "unknown",
    // `reason` of `LoopRejected` and `LoopRolledBack`: the engine's
    // give-up and rollback reasons.
    "arm-capacity",
    "array-map-inconsistent",
    "conditional-loops-disabled",
    "corrupt-template",
    "cross-iteration-dependency",
    "dynamic-range-disabled",
    "function-loops-disabled",
    "irregular-trip",
    "mapping-budget-exhausted",
    "nest-inner-not-fusable",
    "nest-outer-not-overhead",
    "nest-row-gap",
    "no-store-stream",
    "non-unit-stride",
    "non-vector-ops",
    "profile-corrupt",
    "sentinel-unsupported",
    "spec-range-overflow",
    "stale-coverage-recovery",
    "stream-mismatch",
    "template-shape-mismatch",
    "unprofitable-trip",
    "unsupported-nest",
    "vcache-capacity",
    "vcache-entry-lost",
    // `EnginePoisoned::during`: the engine operation that found the
    // impossible transition.
    "analyze",
    "condition mapping",
    "conditional_step",
    "data collection",
    "decide_straight",
    "dependency analysis",
    "execute",
    "finish_iteration",
    "hit_execute",
    "iteration recording",
    "launch",
    "nest observation",
    "nest_step",
    "post-vcache analysis",
    // `EnginePoisoned::expected`: the engine mode or state it required
    // ("nest observation" is listed above).
    "Analyzing",
    "Executing",
    "collected outer iteration",
    "collected profile",
    // `FaultInjected::site`: `dsa_core::FaultSite::name`
    // ("corrupt-template" is listed above).
    "lie-sentinel-trip",
    "flip-array-map-condition",
    "drop-vcache-entry",
    "skip-rollback-flush",
    // `workload` of `SupervisorRetry` and `WorkerPanicked`: the
    // applications' and microkernels' names (`dsa_workloads`); the
    // microkernels named after a loop class are listed above.
    "MM 64x64",
    "RGB-Gray",
    "Gaussian Filter",
    "Susan E",
    "Q Sort",
    "Dijkstra",
    "BitCounts",
    "gather",
    "reduce",
    "nest-fused",
    "fir-i16",
    // `JobShed::reason`.
    "overloaded",
    "deadline",
    // `SnapshotRejected::kind`: `dsa_core::SnapshotError::kind_name`.
    "truncated",
    "bad-magic",
    "unsupported-version",
    "checksum-mismatch",
    "malformed",
    "config-mismatch",
    // Pinned by the every-event wire goldens
    // (`tests/golden/every_event.*`): stand-ins for a reason, a mode and
    // a workload, and a string that takes every escape the JSONL writer
    // emits.
    "irregular-stride",
    "template-mismatch",
    "analyzing",
    "matmul",
    "say \"hi\" \\ bye",
];

/// The [`VOCABULARY`] entry equal to `s`, or `None` for a string the
/// schema does not know.
pub fn intern(s: &str) -> Option<&'static str> {
    VOCABULARY.iter().find(|&&w| w == s).copied()
}

/// A payload enum with a fixed vocabulary: JSONL writes its names,
/// tracebin writes its one-byte tags (the value's position in `ALL`).
pub(crate) trait Choice: Copy + 'static {
    /// What the value is, for decode errors.
    const WHAT: &'static str;
    /// Stable kebab-case name.
    fn name(self) -> &'static str;
    /// Inverse of [`Choice::name`].
    fn from_name(name: &str) -> Option<Self>;
    /// Tracebin tag.
    fn tag(self) -> u8;
    /// Inverse of [`Choice::tag`].
    fn from_tag(tag: u8) -> Option<Self>;
}

/// Declares a payload enum: the enum, its `ALL` array in tag order, its
/// names, and the [`Choice`] mappings derived from `ALL`.
macro_rules! choice_enum {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident as $what:literal {
            $( $(#[$vmeta:meta])* $Variant:ident = $name:literal, )+
        }
    ) => {
        $(#[$meta])*
        pub enum $Enum {
            $( $(#[$vmeta])* $Variant, )+
        }

        impl $Enum {
            /// Every value, in tag order.
            pub const ALL: [$Enum; [$($name),+].len()] = [$($Enum::$Variant),+];

            /// Stable kebab-case name (JSONL field value).
            pub fn name(self) -> &'static str {
                match self {
                    $( $Enum::$Variant => $name, )+
                }
            }

            /// Inverse of the name mapping (used by the JSONL reader).
            pub fn from_name(name: &str) -> Option<$Enum> {
                $Enum::ALL.into_iter().find(|v| v.name() == name)
            }
        }

        impl Choice for $Enum {
            const WHAT: &'static str = $what;

            fn name(self) -> &'static str {
                $Enum::name(self)
            }

            fn from_name(name: &str) -> Option<$Enum> {
                $Enum::from_name(name)
            }

            fn tag(self) -> u8 {
                // `ALL` lists the variants in declaration order.
                self as u8
            }

            fn from_tag(tag: u8) -> Option<$Enum> {
                $Enum::ALL.get(usize::from(tag)).copied()
            }
        }
    };
}

choice_enum! {
    /// The six stages of the paper's detection state machine.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum Stage as "stage" {
        /// Stage 1 — a taken backward branch probes the DSA cache.
        LoopDetection = "loop-detection",
        /// Stage 2 — iteration profiling into the Verification Cache.
        DataCollection = "data-collection",
        /// Stage 3 — stream matching + CIDP verdict.
        DependencyAnalysis = "dependency-analysis",
        /// Stage 4 — template stored, pipeline flushed, SIMD injected.
        StoreIdExecution = "store-id-execution",
        /// Stage 5 — conditional-loop Array-Map mapping.
        Mapping = "mapping",
        /// Stage 6 — speculative select / sentinel range resolution.
        SpeculativeExecution = "speculative-execution",
    }
}

choice_enum! {
    /// Which private DSA memory a [`Event::CacheAccess`] touched.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum CacheKind as "cache" {
        /// The 8 KB verified-loop store.
        Dsa = "dsa-cache",
        /// The 1 KB Verification Cache (iteration addresses).
        Verification = "verification-cache",
        /// The 128-bit Array Maps (conditional-loop lane masks).
        ArrayMap = "array-map",
    }
}

choice_enum! {
    /// What a cache access did.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum CacheOutcome as "cache-outcome" {
        /// Lookup found the entry.
        Hit = "hit",
        /// Lookup missed.
        Miss = "miss",
        /// Entry written (verdict stored, addresses recorded).
        Insert = "insert",
        /// Entries displaced to make room.
        Evict = "evict",
    }
}

choice_enum! {
    /// Which speculative mechanism a [`Event::SpeculationResolved`] closes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SpecKind as "spec-kind" {
        /// Sentinel-loop block speculation (§4.6.5).
        Sentinel = "sentinel",
        /// Conditional-loop window speculation (Array Maps).
        Conditional = "conditional",
    }
}

/// One wire format's writer for payload fields, one method per field
/// shape. `key` is the field's JSONL key.
pub(crate) trait FieldSink {
    /// An unsigned integer.
    fn u64(&mut self, key: &'static str, v: u64);
    /// A flag.
    fn bool(&mut self, key: &'static str, v: bool);
    /// A free-vocabulary string.
    fn str(&mut self, key: &'static str, v: &'static str);
    /// An optional `u32` (`DependencyVerdict::distance`).
    fn opt_u32(&mut self, key: &'static str, v: Option<u32>);
    /// A payload enum.
    fn choice<E: Choice>(&mut self, key: &'static str, v: E);
}

/// One wire format's reader for payload fields: the inverse of its
/// [`FieldSink`], rejecting values the field type cannot hold.
pub(crate) trait FieldSource {
    /// An unsigned integer.
    fn u64(&mut self, key: &'static str) -> Result<u64, String>;
    /// An unsigned integer that must fit `u32`.
    fn u32(&mut self, key: &'static str) -> Result<u32, String>;
    /// A flag.
    fn bool(&mut self, key: &'static str) -> Result<bool, String>;
    /// A free-vocabulary string.
    fn str(&mut self, key: &'static str) -> Result<&'static str, String>;
    /// An optional `u32`.
    fn opt_u32(&mut self, key: &'static str) -> Result<Option<u32>, String>;
    /// A payload enum.
    fn choice<E: Choice>(&mut self, key: &'static str) -> Result<E, String>;
}

/// A payload field type: which [`FieldSink`]/[`FieldSource`] method
/// carries it.
pub(crate) trait Field: Sized {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S);
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<Self, String>;
}

impl Field for u32 {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.u64(key, u64::from(self));
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<u32, String> {
        src.u32(key)
    }
}

impl Field for u64 {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.u64(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<u64, String> {
        src.u64(key)
    }
}

impl Field for bool {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.bool(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<bool, String> {
        src.bool(key)
    }
}

impl Field for &'static str {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.str(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<&'static str, String> {
        src.str(key)
    }
}

impl Field for Option<u32> {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.opt_u32(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<Option<u32>, String> {
        src.opt_u32(key)
    }
}

impl<E: Choice> Field for E {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.choice(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<E, String> {
        src.choice(key)
    }
}

/// A field's JSONL key: the `as "key"` override, else the field name.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Declares [`Event`] from its schema table (see the module docs).
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident $type_name:literal {
                    $(#[$cycle_meta:meta])*
                    cycle,
                    $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)? : $ty:ty, )+
                },
            )+
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $(
                $(#[$vmeta])*
                $Variant {
                    $(#[$cycle_meta])*
                    cycle: u64,
                    $( $(#[$fmeta])* $field: $ty, )+
                },
            )+
        }

        /// An [`Event`] variant without its payload. Its position in
        /// [`EventKind::ALL`] is its `dsa-tracebin/v2` tag.
        #[derive(Clone, Copy)]
        pub(crate) enum EventKind {
            $( $Variant, )+
        }

        impl EventKind {
            /// Every kind, in tag order.
            pub(crate) const ALL: &'static [EventKind] = &[$( EventKind::$Variant ),+];

            /// The JSONL `type` value.
            pub(crate) fn type_name(self) -> &'static str {
                match self {
                    $( EventKind::$Variant => $type_name, )+
                }
            }

            /// Inverse of [`EventKind::type_name`].
            pub(crate) fn from_type_name(name: &str) -> Option<EventKind> {
                EventKind::ALL.iter().copied().find(|k| k.type_name() == name)
            }

            /// The payload's JSONL keys in wire order (`cycle` excluded):
            /// the fields a record must carry.
            pub(crate) fn keys(self) -> &'static [&'static str] {
                match self {
                    $( EventKind::$Variant => &[$( wire_key!($field $($key)?) ),+], )+
                }
            }

            /// Reads this kind's payload from `src` in wire order.
            pub(crate) fn read<S: FieldSource>(self, cycle: u64, src: &mut S) -> Result<Event, String> {
                Ok(match self {
                    $(
                        EventKind::$Variant => Event::$Variant {
                            cycle,
                            $( $field: Field::take(wire_key!($field $($key)?), src)?, )+
                        },
                    )+
                })
            }
        }

        impl Event {
            pub(crate) fn kind(&self) -> EventKind {
                match self {
                    $( Event::$Variant { .. } => EventKind::$Variant, )+
                }
            }

            /// Core cycle at emission.
            pub fn cycle(&self) -> u64 {
                match *self {
                    $( Event::$Variant { cycle, .. } )|+ => cycle,
                }
            }

            /// Writes the payload (everything but `cycle`) to `sink` in
            /// wire order.
            pub(crate) fn write_fields<S: FieldSink>(&self, sink: &mut S) {
                match *self {
                    $(
                        Event::$Variant { $( $field, )+ .. } => {
                            $( Field::put($field, wire_key!($field $($key)?), sink); )+
                        }
                    )+
                }
            }
        }
    };
}

events! {
    /// One telemetry event. Every variant carries `cycle` — the core cycle
    /// count at emission — so exporters can place it on the run's timeline.
    /// String fields are `&'static str` drawn from fixed vocabularies
    /// (loop-class names, rejection reasons, fault-site names), which keeps
    /// events `Copy`-cheap and the schema enumerable.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Event {
        /// Simulation began.
        RunStarted "run-started" {
            /// Core cycle (0 on a fresh simulator).
            cycle,
            /// Initial program counter.
            pc: u32,
        },
        /// Simulation finished (halt or watchdog).
        RunFinished "run-finished" {
            /// Total core cycles.
            cycle,
            /// Committed instructions.
            committed: u64,
            /// Whether the program reached `halt`.
            halted: bool,
        },
        /// The simulator failed: watchdog expiry or an executor error.
        SimFault "sim-fault" {
            /// Core cycle.
            cycle,
            /// Stable error-kind name.
            kind: &'static str,
            /// PC at the failure.
            pc: u32,
        },
        /// Loop Detection saw a taken backward branch.
        LoopDetected "loop-detected" {
            /// Core cycle.
            cycle,
            /// Loop ID (branch-target PC).
            loop_id as "loop": u32,
            /// PC of the closing branch.
            end_pc: u32,
        },
        /// A detection stage did one unit of work. `dsa_cycles` is the
        /// DSA-side latency charged at this activation (0 when the work is
        /// charged by a co-located [`Event::CacheAccess`] /
        /// [`Event::DependencyVerdict`] instead).
        StageActivated "stage-activated" {
            /// Core cycle.
            cycle,
            /// The stage.
            stage: Stage,
            /// Loop being analysed.
            loop_id as "loop": u32,
            /// DSA-side cycles charged here.
            dsa_cycles: u64,
        },
        /// One access (or batch) to a DSA-private memory.
        CacheAccess "cache-access" {
            /// Core cycle.
            cycle,
            /// Which structure.
            cache: CacheKind,
            /// What happened.
            outcome: CacheOutcome,
            /// Loop the access served.
            loop_id as "loop": u32,
            /// Accesses in the batch (≥ 1).
            count: u32,
            /// DSA-side cycles charged for the batch.
            dsa_cycles: u64,
        },
        /// CIDP produced a verdict over a loop's stream pairs.
        DependencyVerdict "dependency-verdict" {
            /// Core cycle.
            cycle,
            /// Loop analysed.
            loop_id as "loop": u32,
            /// Write×read stream pairs evaluated.
            pairs: u32,
            /// Predicted dependency distance; `None` = no dependency.
            distance: Option<u32>,
            /// DSA-side cycles charged for the evaluation.
            dsa_cycles: u64,
        },
        /// The loop's class was determined (census entry written).
        LoopClassified "loop-classified" {
            /// Core cycle.
            cycle,
            /// The loop.
            loop_id as "loop": u32,
            /// Loop-class name.
            class: &'static str,
        },
        /// Remaining iterations handed to the NEON engine.
        LoopVectorized "loop-vectorized" {
            /// Core cycle.
            cycle,
            /// The loop.
            loop_id as "loop": u32,
            /// Loop-class name.
            class: &'static str,
            /// Iterations planned for vector execution.
            planned: u32,
            /// Alignment-peel iterations kept scalar.
            peeled: u32,
        },
        /// Analysis ended without vectorizing.
        LoopRejected "loop-rejected" {
            /// Core cycle.
            cycle,
            /// The loop.
            loop_id as "loop": u32,
            /// Class recorded for the census.
            class: &'static str,
            /// Stable rejection reason.
            reason: &'static str,
        },
        /// A detected inconsistency rolled an (analysis or coverage) back
        /// to scalar execution.
        LoopRolledBack "loop-rolled-back" {
            /// Core cycle.
            cycle,
            /// The loop (0 when the recovery had no loop context).
            loop_id as "loop": u32,
            /// Class recorded for the census.
            class: &'static str,
            /// Stable rollback reason.
            reason: &'static str,
        },
        /// Coverage for one vectorized loop instance ended.
        LoopFinished "loop-finished" {
            /// Core cycle.
            cycle,
            /// The loop.
            loop_id as "loop": u32,
            /// Loop iterations that ran under coverage.
            iters: u32,
        },
        /// Terminal degradation: the DSA detached itself.
        EnginePoisoned "engine-poisoned" {
            /// Core cycle.
            cycle,
            /// Operation that hit the impossible transition.
            during: &'static str,
            /// Mode the operation required.
            expected: &'static str,
        },
        /// An armed fault plan corrupted DSA bookkeeping here.
        FaultInjected "fault-injected" {
            /// Core cycle.
            cycle,
            /// Stable fault-site name.
            site: &'static str,
        },
        /// A partial-vectorization chunk (or continued sentinel block) was
        /// re-verified and injected.
        PartialChunk "partial-chunk" {
            /// Core cycle.
            cycle,
            /// The loop.
            loop_id as "loop": u32,
            /// Iterations in the chunk.
            chunk_iters: u32,
            /// DSA-side cycles charged for the re-verification.
            dsa_cycles: u64,
        },
        /// A speculative region resolved at loop exit.
        SpeculationResolved "speculation-resolved" {
            /// Core cycle.
            cycle,
            /// The loop.
            loop_id as "loop": u32,
            /// Sentinel or conditional.
            kind: SpecKind,
            /// Elements speculatively injected.
            injected: u64,
            /// Elements that turned out useful.
            used: u64,
            /// Lanes discarded.
            discarded: u64,
        },
        /// Crash boundary: a panicked service slice will run again from
        /// its session's checkpoint. Harness-side events carry
        /// `cycle: 0` — they live in the wall-clock domain, not the
        /// simulated-cycle domain.
        SupervisorRetry "supervisor-retry" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Workload name (stable vocabulary from the bench crate).
            workload: &'static str,
            /// 1-based number of the retry about to run.
            attempt: u32,
        },
        /// Crash boundary: a worker panicked and was isolated.
        WorkerPanicked "worker-panicked" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Workload name.
            workload: &'static str,
        },
        /// Service: a job passed admission control onto a shard queue.
        JobAdmitted "job-admitted" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Service-assigned job id.
            job: u64,
            /// Shard the job was routed to.
            shard: u32,
            /// Queue depth after enqueueing.
            queue_depth: u32,
        },
        /// Service: admission control shed a job (typed rejection, never a
        /// panic or a hang).
        JobShed "job-shed" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Stable shed reason (`overloaded`, `deadline`).
            reason: &'static str,
        },
        /// Service: an admitted job completed with a verified checksum.
        JobCompleted "job-completed" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Service-assigned job id.
            job: u64,
            /// Shard that produced the final result.
            shard: u32,
            /// Served from the content-addressed result store.
            cache_hit: bool,
            /// Times the session resumed on a different shard.
            migrations: u32,
            /// Wall-clock latency from admission, in milliseconds.
            latency_ms: u64,
        },
        /// Service: a session checkpointed its snapshot at a slice boundary.
        SessionCheckpointed "session-checkpointed" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Service-assigned job id.
            job: u64,
            /// Shard that captured the checkpoint.
            shard: u32,
            /// Serialized session image size in bytes.
            bytes: u64,
            /// Committed instructions at the checkpoint.
            commits: u64,
        },
        /// Service: an in-flight session moved off a dead shard and will
        /// resume from its last checkpoint on a healthy one.
        SessionMigrated "session-migrated" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Service-assigned job id.
            job: u64,
            /// Shard the session left.
            from_shard: u32,
        },
        /// Service: the chaos controller (or an operator) killed a shard.
        ShardKilled "shard-killed" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// The shard.
            shard: u32,
            /// Sessions (queued + in-flight) drained for migration.
            drained: u32,
        },
        /// Service: a killed shard revived and rejoined the pool.
        ShardRecovered "shard-recovered" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// The shard.
            shard: u32,
        },
        /// A snapshot image validated and warm state was restored.
        SnapshotRestored "snapshot-restored" {
            /// Core cycle (always 0; restore happens between runs).
            cycle,
            /// Serialized image size in bytes.
            bytes: u64,
            /// DSA-cache entries that came back warm.
            cache_entries: u64,
        },
        /// A snapshot image was rejected; the engine cold-started instead.
        SnapshotRejected "snapshot-rejected" {
            /// Core cycle (always 0; restore happens between runs).
            cycle,
            /// Stable rejection-kind name (`SnapshotError::kind_name`).
            kind: &'static str,
        },
    }
}

impl Event {
    /// Stable kebab-case type name (the JSONL `type` field).
    pub fn type_name(&self) -> &'static str {
        self.kind().type_name()
    }

    /// DSA-side cycles charged by this event (the accounting invariant:
    /// a run's `DsaStats::detection_cycles` equals the sum of this over
    /// its event stream).
    pub fn dsa_cycles(&self) -> u64 {
        match *self {
            Event::StageActivated { dsa_cycles, .. }
            | Event::CacheAccess { dsa_cycles, .. }
            | Event::DependencyVerdict { dsa_cycles, .. }
            | Event::PartialChunk { dsa_cycles, .. } => dsa_cycles,
            _ => 0,
        }
    }

    /// The loop this event concerns, if any.
    pub fn loop_id(&self) -> Option<u32> {
        match *self {
            Event::LoopDetected { loop_id, .. }
            | Event::StageActivated { loop_id, .. }
            | Event::CacheAccess { loop_id, .. }
            | Event::DependencyVerdict { loop_id, .. }
            | Event::LoopClassified { loop_id, .. }
            | Event::LoopVectorized { loop_id, .. }
            | Event::LoopRejected { loop_id, .. }
            | Event::LoopRolledBack { loop_id, .. }
            | Event::LoopFinished { loop_id, .. }
            | Event::PartialChunk { loop_id, .. }
            | Event::SpeculationResolved { loop_id, .. } => Some(loop_id),
            _ => None,
        }
    }
}

/// Escapes a string as a JSON string literal (quotes included).
pub fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(Stage::LoopDetection.name(), "loop-detection");
        assert_eq!(CacheKind::Dsa.name(), "dsa-cache");
        assert_eq!(SpecKind::Sentinel.name(), "sentinel");
    }

    #[test]
    fn json_lines_are_single_line_objects() {
        let ev = Event::LoopVectorized { loop_id: 7, class: "count", planned: 96, peeled: 2, cycle: 1234 };
        let line = ev.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"type\":\"loop-vectorized\""));
        assert!(line.contains("\"planned\":96"));
    }

    #[test]
    fn accessors_agree_with_payload() {
        let ev = Event::CacheAccess {
            cache: CacheKind::Verification,
            outcome: CacheOutcome::Insert,
            loop_id: 9,
            count: 4,
            dsa_cycles: 4,
            cycle: 55,
        };
        assert_eq!(ev.cycle(), 55);
        assert_eq!(ev.dsa_cycles(), 4);
        assert_eq!(ev.loop_id(), Some(9));
        assert_eq!(Event::RunStarted { pc: 0, cycle: 0 }.loop_id(), None);
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }
}
