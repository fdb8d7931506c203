//! Deterministic per-loop-lifecycle trace sampling.
//!
//! Always-on tracing at service scale cannot afford to record every
//! event, but naive 1-in-N *event* sampling shreds the stream: a
//! sampled `loop-vectorized` without its `loop-detected` /
//! `dependency-verdict` bracket is useless to `trace_query`. The unit
//! of sampling here is therefore the **loop lifecycle**: the keep/drop
//! verdict is a pure function of `(seed, loop_id)`, so every event a
//! kept loop ever emits — detection, stage activations, cache traffic,
//! verdicts, vectorization, rollback, finish — is kept, across slices,
//! snapshots, restores and shard migrations (the verdict needs no
//! state, so a restored engine on another shard re-derives it
//! identically). Events with no loop context (run brackets, faults,
//! poisonings, service/harness events) are always kept: they are rare
//! and they anchor the stream.
//!
//! The verdict hashes the loop id through a splitmix64 round rather
//! than taking `loop_id % n`: loop ids are branch-target PCs, which
//! are 4-byte aligned, and a modulo would sample them pathologically.

use crate::event::Event;
use crate::TraceSink;

/// One round of splitmix64 — the same mixer `dsa-core` uses for seed
/// derivation (local copy; this crate is zero-dependency).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`TraceSink`] adapter keeping 1-in-`rate` loop lifecycles (and
/// every loop-less event), deterministically from a seed.
pub struct SamplingSink<S> {
    inner: S,
    seed: u64,
    rate: u32,
    /// Verdict memo for the most recent loop id — events arrive in
    /// per-lifecycle bursts, so the common case skips the hash and the
    /// division entirely. Pure acceleration: the verdict it caches is
    /// exactly [`SamplingSink::keeps_loop`].
    last: Option<(u32, bool)>,
}

impl<S> SamplingSink<S> {
    /// Wraps `inner`, keeping each loop lifecycle with probability
    /// `1/rate`. `rate <= 1` keeps everything (sampling off).
    pub fn new(inner: S, seed: u64, rate: u32) -> SamplingSink<S> {
        SamplingSink { inner, seed, rate, last: None }
    }

    /// The keep/drop verdict for a loop id — a pure function of
    /// `(seed, loop_id)`, shared by every emitter that saw the same
    /// seed, which is what makes sampled streams coherent fleet-wide.
    pub fn keeps_loop(&self, loop_id: u32) -> bool {
        if self.rate <= 1 {
            return true;
        }
        mix64(self.seed ^ u64::from(loop_id)).is_multiple_of(u64::from(self.rate))
    }

    /// Whether `ev` passes the filter (loop-less events always do).
    pub fn keeps(&self, ev: &Event) -> bool {
        match ev.loop_id() {
            Some(id) => self.keeps_loop(id),
            None => true,
        }
    }

    /// The configured 1-in-N rate.
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// The sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A reference to the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the adapter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for SamplingSink<S> {
    fn record(&mut self, ev: &Event) {
        let keep = match ev.loop_id() {
            None => true,
            Some(id) => TraceSink::keeps_loop(self, id),
        };
        if keep {
            self.inner.record(ev);
        }
    }

    fn keeps_loop(&mut self, loop_id: u32) -> bool {
        match self.last {
            Some((memo_id, verdict)) if memo_id == loop_id => verdict,
            _ => {
                let verdict = SamplingSink::keeps_loop(self, loop_id);
                self.last = Some((loop_id, verdict));
                verdict
            }
        }
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultSite, LoopClass, Stage};
    use crate::Collector;

    fn lifecycle(loop_id: u32) -> Vec<Event> {
        vec![
            Event::LoopDetected { loop_id, end_pc: loop_id + 32, cycle: 10 },
            Event::StageActivated { stage: Stage::LoopDetection, loop_id, dsa_cycles: 1, cycle: 11 },
            Event::LoopClassified { loop_id, class: LoopClass::Count, cycle: 12 },
            Event::LoopFinished { loop_id, iters: 64, cycle: 99 },
        ]
    }

    #[test]
    fn rate_one_keeps_everything() {
        let mut sink = SamplingSink::new(Collector::new(), 42, 1);
        for ev in lifecycle(64) {
            sink.record(&ev);
        }
        assert_eq!(sink.inner().events.len(), 4);
    }

    #[test]
    fn lifecycles_are_kept_or_dropped_whole() {
        // Across many loops, every lifecycle must come through either
        // complete or not at all — never partially.
        let sink = SamplingSink::new(Collector::new(), 7, 4);
        let mut sink = sink;
        for loop_id in (0..512u32).map(|i| i * 4) {
            for ev in lifecycle(loop_id) {
                sink.record(&ev);
            }
        }
        let mut per_loop = std::collections::BTreeMap::new();
        for ev in &sink.inner().events {
            *per_loop.entry(ev.loop_id().expect("lifecycle events carry a loop")).or_insert(0u32) += 1;
        }
        assert!(!per_loop.is_empty(), "rate 4 over 512 loops must keep some");
        assert!(per_loop.len() < 512, "rate 4 over 512 loops must drop some");
        for (loop_id, n) in per_loop {
            assert_eq!(n, 4, "loop {loop_id} came through partially");
        }
    }

    #[test]
    fn verdict_is_stable_across_instances() {
        // Two samplers with the same seed (e.g. the original shard and
        // the shard a session migrated to) agree on every loop.
        let a = SamplingSink::new(Collector::new(), 0xDEAD_BEEF, 8);
        let b = SamplingSink::new(Collector::new(), 0xDEAD_BEEF, 8);
        for loop_id in 0..4096 {
            assert_eq!(a.keeps_loop(loop_id), b.keeps_loop(loop_id));
        }
        let c = SamplingSink::new(Collector::new(), 0xDEAD_BEEF + 1, 8);
        assert!(
            (0..4096).any(|id| a.keeps_loop(id) != c.keeps_loop(id)),
            "different seeds should select different loops"
        );
    }

    #[test]
    fn loopless_events_always_pass() {
        let mut sink = SamplingSink::new(Collector::new(), 1, u32::MAX);
        sink.record(&Event::RunStarted { pc: 0, cycle: 0 });
        sink.record(&Event::FaultInjected { site: FaultSite::CorruptTemplate, cycle: 5 });
        sink.record(&Event::RunFinished { cycle: 10, committed: 3, halted: true });
        assert_eq!(sink.inner().events.len(), 3);
    }

    #[test]
    fn aligned_loop_ids_sample_near_rate() {
        // Loop ids are 4-byte-aligned PCs; the mixer must still hit
        // roughly 1-in-rate of them.
        let sink = SamplingSink::new(Collector::new(), 99, 8);
        let kept = (0..8192u32).map(|i| i * 4).filter(|&id| sink.keeps_loop(id)).count();
        assert!(
            (512..=1536).contains(&kept),
            "kept {kept} of 8192 aligned ids at rate 8 (expected ~1024)"
        );
    }
}
