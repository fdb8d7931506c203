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
//!
//! A payload field that holds a word is typed by a closed enum declared
//! here with `choice_enum!` ([`LoopClass`], [`Reason`], [`FaultSite`],
//! ...): its variants, names and tags in one table, from which the
//! codecs derive both directions. Adding a word is adding a variant;
//! the emitting crates use these enums (or map theirs onto them), so no
//! list of strings has to be kept beside them.

use std::fmt::Write as _;

/// Version tag written in the JSONL header record and checked by the
/// schema validator. Bump on any breaking change to event field names.
pub const SCHEMA: &str = "dsa-trace/v2";

/// How tracebin writes a [`Choice`] value.
#[derive(Clone, Copy)]
pub(crate) enum Wire {
    /// A one-byte tag: the value's position in `ALL`.
    Tag,
    /// The name, through the event block's string table.
    Word,
}

/// A payload enum with a closed set of names. JSONL writes the name;
/// tracebin writes the tag or the name, as [`Choice::WIRE`] says. Both
/// decoders map back with [`Choice::from_name`] / [`Choice::from_tag`],
/// so a name outside the enum is a decode error.
pub(crate) trait Choice: Copy + PartialEq + std::fmt::Debug + 'static {
    /// What the value is, for decode errors.
    const WHAT: &'static str;
    /// How tracebin writes it.
    const WIRE: Wire;
    /// Every value, in tag order.
    const VALUES: &'static [Self];
    /// Stable name.
    fn name(self) -> &'static str;
    /// Tracebin tag.
    fn tag(self) -> u8;
    /// Inverse of [`Choice::name`].
    fn from_name(name: &str) -> Option<Self> {
        Self::VALUES.iter().copied().find(|v| v.name() == name)
    }
    /// Inverse of [`Choice::tag`].
    fn from_tag(tag: u8) -> Option<Self> {
        Self::VALUES.get(usize::from(tag)).copied()
    }
}

/// Declares a payload enum: the enum, its `ALL` array in tag order, its
/// names, `Display` by name, and the [`Choice`] mappings derived from
/// `ALL`. `as Tag` or `as Word` picks the tracebin encoding.
macro_rules! choice_enum {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident as $wire:ident $what:literal {
            $( $(#[$vmeta:meta])* $Variant:ident = $name:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $Enum {
            $( $(#[$vmeta])* $Variant, )+
        }

        impl $Enum {
            /// Every value, in tag order.
            pub const ALL: [$Enum; [$($name),+].len()] = [$($Enum::$Variant),+];

            /// Stable name (the JSONL field value).
            pub fn name(self) -> &'static str {
                match self {
                    $( $Enum::$Variant => $name, )+
                }
            }

            /// Inverse of [`Self::name`].
            pub fn from_name(name: &str) -> Option<$Enum> {
                <$Enum as Choice>::from_name(name)
            }
        }

        impl std::fmt::Display for $Enum {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl Choice for $Enum {
            const WHAT: &'static str = $what;
            const WIRE: Wire = Wire::$wire;
            const VALUES: &'static [$Enum] = &$Enum::ALL;

            fn name(self) -> &'static str {
                $Enum::name(self)
            }

            fn tag(self) -> u8 {
                // `ALL` lists the variants in declaration order.
                self as u8
            }
        }
    };
}

choice_enum! {
    /// The six stages of the paper's detection state machine.
    pub enum Stage as Tag "stage" {
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
    pub enum CacheKind as Tag "cache" {
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
    pub enum CacheOutcome as Tag "cache-outcome" {
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
    pub enum SpecKind as Tag "spec-kind" {
        /// Sentinel-loop block speculation (§4.6.5).
        Sentinel = "sentinel",
        /// Conditional-loop window speculation (Array Maps).
        Conditional = "conditional",
    }
}

choice_enum! {
    /// Why a simulation failed ([`Event::SimFault`]).
    pub enum SimFaultKind as Word "sim-fault kind" {
        /// A step was asked of a halted machine.
        Halted = "halted",
        /// The PC walked off the end of the program.
        PcOutOfRange = "pc-out-of-range",
        /// The watchdog budget ran out before `halt`.
        StepBudgetExceeded = "step-budget-exceeded",
        /// A vector instruction had no defined lane semantics.
        VectorLane = "vector-lane",
    }
}

choice_enum! {
    /// Classification of one static loop, as determined at runtime.
    pub enum LoopClass as Word "loop class" {
        /// Fixed trip count, straight-line body.
        Count = "count",
        /// Body contains a function call.
        Function = "function",
        /// Outer loop of a nest (inner loops classified separately).
        Nest = "nest",
        /// Body contains conditional code.
        Conditional = "conditional",
        /// Trip computed at runtime before the loop.
        DynamicRange = "dynamic-range",
        /// Stop condition computed inside the loop.
        Sentinel = "sentinel",
        /// Vectorizable only in chunks (bounded cross-iteration dependency).
        Partial = "partial",
        /// Not vectorizable (true dependency, unsupported ops, capacity).
        NonVectorizable = "non-vectorizable",
        /// A rollback with no loop behind it; never a census class.
        Unknown = "unknown",
    }
}

impl LoopClass {
    /// The classes a loop can be classified as: every value but
    /// [`LoopClass::Unknown`], in tag order.
    pub const CENSUS: &'static [LoopClass] = LoopClass::ALL.split_last().unwrap().1;
}

choice_enum! {
    /// Why the engine gave up on a loop ([`Event::LoopRejected`]) or
    /// rolled it back ([`Event::LoopRolledBack`]).
    pub enum Reason as Word "reason" {
        ArmCapacity = "arm-capacity",
        ArrayMapInconsistent = "array-map-inconsistent",
        ConditionalLoopsDisabled = "conditional-loops-disabled",
        CorruptTemplate = "corrupt-template",
        CrossIterationDependency = "cross-iteration-dependency",
        DynamicRangeDisabled = "dynamic-range-disabled",
        FunctionLoopsDisabled = "function-loops-disabled",
        IrregularTrip = "irregular-trip",
        MappingBudgetExhausted = "mapping-budget-exhausted",
        NestInnerNotFusable = "nest-inner-not-fusable",
        NestOuterNotOverhead = "nest-outer-not-overhead",
        NestRowGap = "nest-row-gap",
        NoStoreStream = "no-store-stream",
        NonUnitStride = "non-unit-stride",
        NonVectorOps = "non-vector-ops",
        ProfileCorrupt = "profile-corrupt",
        SentinelUnsupported = "sentinel-unsupported",
        SpecRangeOverflow = "spec-range-overflow",
        StaleCoverageRecovery = "stale-coverage-recovery",
        StreamMismatch = "stream-mismatch",
        TemplateShapeMismatch = "template-shape-mismatch",
        UnprofitableTrip = "unprofitable-trip",
        UnsupportedNest = "unsupported-nest",
        VcacheCapacity = "vcache-capacity",
        VcacheEntryLost = "vcache-entry-lost",
    }
}

choice_enum! {
    /// The engine operation that found an impossible transition
    /// ([`Event::EnginePoisoned`]'s `during`).
    pub enum EngineOp as Word "engine operation" {
        Analyze = "analyze",
        ConditionMapping = "condition mapping",
        ConditionalStep = "conditional_step",
        DataCollection = "data collection",
        DecideStraight = "decide_straight",
        DependencyAnalysis = "dependency analysis",
        Execute = "execute",
        FinishIteration = "finish_iteration",
        HitExecute = "hit_execute",
        IterationRecording = "iteration recording",
        Launch = "launch",
        NestObservation = "nest observation",
        NestStep = "nest_step",
        PostVcacheAnalysis = "post-vcache analysis",
    }
}

choice_enum! {
    /// The engine mode or state an operation required
    /// ([`Event::EnginePoisoned`]'s `expected`).
    pub enum EngineMode as Word "engine mode" {
        Analyzing = "Analyzing",
        Executing = "Executing",
        CollectedOuterIteration = "collected outer iteration",
        CollectedProfile = "collected profile",
        NestObservation = "nest observation",
    }
}

choice_enum! {
    /// A named point inside the engine where a fault can be injected.
    /// `ALL`'s order fixes the bits of `dsa_core::FaultPlan::armed_mask`.
    pub enum FaultSite as Word "fault site" {
        /// Corrupt a cached `LoopTemplate` as it is read out of the DSA
        /// cache on a probe hit (models a bit flip in the cache array).
        CorruptTemplate = "corrupt-template",
        /// Store a wildly inflated speculative trip count when a sentinel
        /// loop exits (models a lying trip predictor).
        LieSentinelTrip = "lie-sentinel-trip",
        /// Flip the Array-Map condition path observed for one conditional
        /// iteration (models a stuck Array-Map bit).
        FlipArrayMapCondition = "flip-array-map-condition",
        /// Drop one Verification-Cache entry from a recorded iteration
        /// (models a lost verification-cache line).
        DropVcacheEntry = "drop-vcache-entry",
        /// Skip the rollback flush (`end_coverage`) when vector execution
        /// ends, leaving coverage suppression stuck on.
        SkipRollbackFlush = "skip-rollback-flush",
    }
}

choice_enum! {
    /// A workload's display name: the paper's applications, then the
    /// loop-class microkernels (`dsa_workloads`).
    pub enum WorkloadName as Word "workload" {
        MatMul = "MM 64x64",
        RgbGray = "RGB-Gray",
        Gaussian = "Gaussian Filter",
        SusanEdges = "Susan E",
        QSort = "Q Sort",
        Dijkstra = "Dijkstra",
        BitCounts = "BitCounts",
        Count = "count",
        Function = "function",
        Conditional = "conditional",
        Sentinel = "sentinel",
        DynamicRange = "dynamic-range",
        Partial = "partial",
        Gather = "gather",
        Reduce = "reduce",
        NestFused = "nest-fused",
        Fir = "fir-i16",
    }
}

choice_enum! {
    /// Why the service shed a job ([`Event::JobShed`]).
    pub enum ShedReason as Word "shed reason" {
        /// Admission found every queue full.
        Overloaded = "overloaded",
        /// The job's deadline passed before it ran.
        Deadline = "deadline",
    }
}

choice_enum! {
    /// Why a snapshot image was rejected ([`Event::SnapshotRejected`]).
    pub enum SnapshotErrorKind as Word "snapshot error kind" {
        Truncated = "truncated",
        BadMagic = "bad-magic",
        UnsupportedVersion = "unsupported-version",
        ChecksumMismatch = "checksum-mismatch",
        Malformed = "malformed",
        ConfigMismatch = "config-mismatch",
    }
}

/// One wire format's writer for payload fields, one method per field
/// shape. `key` is the field's JSONL key.
pub(crate) trait FieldSink {
    /// An unsigned integer.
    fn u64(&mut self, key: &'static str, v: u64);
    /// A flag.
    fn bool(&mut self, key: &'static str, v: bool);
    /// An optional `u32` (`DependencyVerdict::distance`).
    fn opt_u32(&mut self, key: &'static str, v: Option<u32>);
    /// A payload enum.
    fn choice<E: Choice>(&mut self, key: &'static str, v: E);
}

/// One wire format's reader for payload fields: the inverse of its
/// [`FieldSink`], rejecting values the field type cannot hold.
pub(crate) trait FieldSource {
    /// The format's decode error.
    type Error;
    /// An unsigned integer.
    fn u64(&mut self, key: &'static str) -> Result<u64, Self::Error>;
    /// An unsigned integer that must fit `u32`.
    fn u32(&mut self, key: &'static str) -> Result<u32, Self::Error>;
    /// A flag.
    fn bool(&mut self, key: &'static str) -> Result<bool, Self::Error>;
    /// An optional `u32`.
    fn opt_u32(&mut self, key: &'static str) -> Result<Option<u32>, Self::Error>;
    /// A payload enum.
    fn choice<E: Choice>(&mut self, key: &'static str) -> Result<E, Self::Error>;
}

/// A payload field type: which [`FieldSink`]/[`FieldSource`] method
/// carries it.
pub(crate) trait Field: Sized {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S);
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<Self, S::Error>;
}

impl Field for u32 {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.u64(key, u64::from(self));
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<u32, S::Error> {
        src.u32(key)
    }
}

impl Field for u64 {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.u64(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<u64, S::Error> {
        src.u64(key)
    }
}

impl Field for bool {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.bool(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<bool, S::Error> {
        src.bool(key)
    }
}

impl Field for Option<u32> {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.opt_u32(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<Option<u32>, S::Error> {
        src.opt_u32(key)
    }
}

impl<E: Choice> Field for E {
    fn put<S: FieldSink>(self, key: &'static str, sink: &mut S) {
        sink.choice(key, self);
    }
    fn take<S: FieldSource>(key: &'static str, src: &mut S) -> Result<E, S::Error> {
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
            pub(crate) fn read<S: FieldSource>(self, cycle: u64, src: &mut S) -> Result<Event, S::Error> {
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
    /// String fields are the closed enums above (loop classes, reasons,
    /// fault sites, ...), which keeps events `Copy`-cheap and the schema
    /// enumerable.
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
            /// What failed.
            kind: SimFaultKind,
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
            /// Loop class.
            class: LoopClass,
        },
        /// Remaining iterations handed to the NEON engine.
        LoopVectorized "loop-vectorized" {
            /// Core cycle.
            cycle,
            /// The loop.
            loop_id as "loop": u32,
            /// Loop class.
            class: LoopClass,
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
            class: LoopClass,
            /// Rejection reason.
            reason: Reason,
        },
        /// A detected inconsistency rolled an (analysis or coverage) back
        /// to scalar execution.
        LoopRolledBack "loop-rolled-back" {
            /// Core cycle.
            cycle,
            /// The loop (0 when the recovery had no loop context).
            loop_id as "loop": u32,
            /// Class recorded for the census ([`LoopClass::Unknown`]
            /// when the recovery had no loop context).
            class: LoopClass,
            /// Rollback reason.
            reason: Reason,
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
            during: EngineOp,
            /// Mode or state the operation required.
            expected: EngineMode,
        },
        /// An armed fault plan corrupted DSA bookkeeping here.
        FaultInjected "fault-injected" {
            /// Core cycle.
            cycle,
            /// The fault site.
            site: FaultSite,
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
            /// Workload name.
            workload: WorkloadName,
            /// 1-based number of the retry about to run.
            attempt: u32,
        },
        /// Crash boundary: a worker panicked and was isolated.
        WorkerPanicked "worker-panicked" {
            /// Core cycle (always 0; wall-clock domain).
            cycle,
            /// Workload name.
            workload: WorkloadName,
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
            /// Why the job was shed.
            reason: ShedReason,
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
            /// Why the image was rejected.
            kind: SnapshotErrorKind,
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

    /// Names are distinct within the enum, and names and tags map back
    /// to their value.
    fn check<E: Choice>() {
        let mut names = std::collections::BTreeSet::new();
        for (i, &v) in E::VALUES.iter().enumerate() {
            assert!(names.insert(v.name()), "{} {v:?} repeats a name", E::WHAT);
            assert_eq!(E::from_name(v.name()), Some(v));
            assert_eq!(usize::from(v.tag()), i);
            assert_eq!(E::from_tag(v.tag()), Some(v));
        }
        assert_eq!(E::from_tag(E::VALUES.len() as u8), None);
        assert_eq!(E::from_name("no such word"), None);
    }

    #[test]
    fn names_are_stable_and_distinct() {
        check::<Stage>();
        check::<CacheKind>();
        check::<CacheOutcome>();
        check::<SpecKind>();
        check::<SimFaultKind>();
        check::<LoopClass>();
        check::<Reason>();
        check::<EngineOp>();
        check::<EngineMode>();
        check::<FaultSite>();
        check::<WorkloadName>();
        check::<ShedReason>();
        check::<SnapshotErrorKind>();
        assert_eq!(Stage::LoopDetection.name(), "loop-detection");
        assert_eq!(CacheKind::Dsa.name(), "dsa-cache");
        assert_eq!(SpecKind::Sentinel.name(), "sentinel");
        assert_eq!(LoopClass::CENSUS.len(), 8);
        assert!(!LoopClass::CENSUS.contains(&LoopClass::Unknown));
    }

    #[test]
    fn json_lines_are_single_line_objects() {
        let ev = Event::LoopVectorized { loop_id: 7, class: LoopClass::Count, planned: 96, peeled: 2, cycle: 1234 };
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
        assert_eq!(json_str("say \"hi\" \\ bye"), r#""say \"hi\" \\ bye""#);
        assert_eq!(json_str("plain"), "\"plain\"");
    }
}
