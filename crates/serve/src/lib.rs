//! `dsa-serve` — the fault-tolerant sharded simulation service.
//!
//! Runs DSA simulation jobs (program + workload + DSA config + scale)
//! behind admission control, on a fixed pool of crash-isolated worker
//! shards, with snapshot-backed sessions that survive shard kills:
//!
//! * **Admission control** ([`service`]) — bounded per-shard queues;
//!   when every alive queue is full the job is shed with a typed
//!   [`ServeError::Overloaded`], never a panic or an unbounded queue.
//!   Deadlines propagate: a job that spends its admission deadline
//!   queued is refused typed instead of running stale.
//! * **Crash-isolated shards** ([`shard`]) — each shard runs every
//!   execution slice inside the bench-layer crash boundary
//!   ([`dsa_bench::isolate`]). A panicked slice restores from the
//!   session's checkpoint, up to [`shard::MAX_SLICE_RETRIES`] panics in
//!   a row; past that the job replies a typed `Panicked` error.
//! * **Snapshot-backed sessions** ([`session`]) — long runs checkpoint
//!   every `checkpoint_every` commits through the crash-consistent
//!   snapshot format (wrapped in a [`dsa_core::SessionMeta`] envelope
//!   carrying job identity). Killing a shard loses only the live
//!   engine; the session migrates and resumes from its last checkpoint
//!   on a healthy shard, bit-identical to an uninterrupted run.
//! * **Shared result store** ([`dsa_bench::cache::ResultStore`]) —
//!   completed results are published content-addressed by (program
//!   digest, DSA-config fingerprint, scale); identical jobs across
//!   sessions are cache hits.
//! * **Wire protocol** ([`protocol`], [`server`]) — length-prefixed
//!   JSON frames over a loopback TCP socket; one response per request,
//!   typed errors on the wire.
//! * **Load generation + chaos** ([`loadgen`]) — drives hundreds of
//!   concurrent sessions while a seed-scheduled chaos controller kills
//!   and revives shards, then audits zero lost sessions and
//!   bit-identity against locally computed golden references.

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;
pub mod shard;

pub use loadgen::{run_loadgen, run_loadgen_traced, LoadConfig, LoadReport};
pub use protocol::{read_frame, write_frame, JobOutcome, JobRequest, ProtoError};
pub use server::serve;
pub use service::{ServeError, Service, ServiceConfig, ServiceStats};
pub use session::JobSpec;
