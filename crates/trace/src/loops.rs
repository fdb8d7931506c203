//! The per-loop telemetry sink backing `inspect`'s loop table: one row
//! per static loop, folded live from the event stream.

use std::collections::BTreeMap;

use crate::event::{Event, LoopClass, Reason};
use crate::TraceSink;

/// Aggregated lifecycle telemetry for one static loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopRow {
    /// Loop id (branch-target PC).
    pub loop_id: u32,
    /// The loop's class, once an event names it.
    pub class: Option<LoopClass>,
    /// Detection trips (taken backward branches that probed the DSA).
    pub detections: u64,
    /// Times the loop's remainder was handed to the NEON engine.
    pub vectorized: u64,
    /// Iterations that ran under vector coverage.
    pub covered_iters: u64,
    /// Rejections, and the most recent rejection reason.
    pub rejections: u64,
    /// Last rejection reason, if ever rejected.
    pub last_rejection: Option<Reason>,
    /// Rollbacks charged to this loop.
    pub rollbacks: u64,
    /// DSA-side cycles attributed to this loop's events.
    pub dsa_cycles: u64,
}

/// A [`TraceSink`] producing the per-loop table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopTableSink {
    rows: BTreeMap<u32, LoopRow>,
}

impl LoopTableSink {
    /// An empty table.
    pub fn new() -> LoopTableSink {
        LoopTableSink::default()
    }

    /// Rows in loop-id order.
    pub fn rows(&self) -> impl Iterator<Item = &LoopRow> {
        self.rows.values()
    }

    /// True when no loop was ever detected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn row(&mut self, loop_id: u32) -> &mut LoopRow {
        self.rows.entry(loop_id).or_insert_with(|| LoopRow { loop_id, ..LoopRow::default() })
    }
}

impl TraceSink for LoopTableSink {
    fn record(&mut self, ev: &Event) {
        let Some(loop_id) = ev.loop_id() else { return };
        let dsa_cycles = ev.dsa_cycles();
        let row = self.row(loop_id);
        row.dsa_cycles += dsa_cycles;
        match *ev {
            Event::LoopDetected { .. } => row.detections += 1,
            Event::LoopClassified { class, .. } => row.class = Some(class),
            Event::LoopVectorized { class, .. } => {
                row.vectorized += 1;
                row.class.get_or_insert(class);
            }
            Event::LoopFinished { iters, .. } => row.covered_iters += iters as u64,
            Event::LoopRejected { class, reason, .. } => {
                row.rejections += 1;
                row.last_rejection = Some(reason);
                row.class.get_or_insert(class);
            }
            Event::LoopRolledBack { .. } => row.rollbacks += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_lifecycle_into_rows() {
        let mut t = LoopTableSink::new();
        t.record(&Event::LoopDetected { loop_id: 12, end_pc: 40, cycle: 5 });
        t.record(&Event::LoopClassified { loop_id: 12, class: LoopClass::Count, cycle: 9 });
        t.record(&Event::LoopVectorized { loop_id: 12, class: LoopClass::Count, planned: 20, peeled: 0, cycle: 10 });
        t.record(&Event::LoopFinished { loop_id: 12, iters: 24, cycle: 90 });
        t.record(&Event::LoopDetected { loop_id: 30, end_pc: 44, cycle: 100 });
        t.record(&Event::LoopRejected { loop_id: 30, class: LoopClass::Unknown, reason: Reason::NonUnitStride, cycle: 120 });
        t.record(&Event::RunFinished { cycle: 200, committed: 10, halted: true });

        let rows: Vec<&LoopRow> = t.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].loop_id, 12);
        assert_eq!(rows[0].class, Some(LoopClass::Count));
        assert_eq!(rows[0].covered_iters, 24);
        assert_eq!(rows[0].last_rejection, None);
        assert_eq!(rows[1].rejections, 1);
        assert_eq!(rows[1].last_rejection, Some(Reason::NonUnitStride));
    }

    #[test]
    fn attributes_dsa_cycles_per_loop() {
        let mut t = LoopTableSink::new();
        t.record(&Event::StageActivated {
            stage: crate::Stage::StoreIdExecution,
            loop_id: 3,
            dsa_cycles: 7,
            cycle: 1,
        });
        t.record(&Event::PartialChunk { loop_id: 3, chunk_iters: 2, dsa_cycles: 3, cycle: 2 });
        assert_eq!(t.rows().next().expect("row").dsa_cycles, 10);
    }
}
