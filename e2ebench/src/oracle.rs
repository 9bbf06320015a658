//! A labeling oracle that records when the verifier asks for each label.
//!
//! The verifier asks its `n` labels of an iteration back to back, so the
//! label timestamps show when the user first sees pairs (the first
//! label) and how long the user waits between batches (the gap from a
//! batch's last label to the next batch's first), with no change to the
//! program.

use matchcatcher::verify::IterationRecord;
use matchcatcher::{GoldOracle, Oracle};
use mc_table::{GoldMatches, TupleId};
use std::time::{Duration, Instant};

/// Delegates to [`GoldOracle::exact`] and timestamps every label.
pub struct TimedOracle<'g> {
    inner: GoldOracle<'g>,
    start: Instant,
    stamps: Vec<Duration>,
}

impl<'g> TimedOracle<'g> {
    /// An exact oracle over `gold` whose clock starts now.
    pub fn new(gold: &'g GoldMatches) -> Self {
        TimedOracle {
            inner: GoldOracle::exact(gold),
            start: Instant::now(),
            stamps: Vec::new(),
        }
    }

    /// Restarts the clock (call right before the timed operation).
    pub fn restart(&mut self) {
        self.start = Instant::now();
        self.stamps.clear();
    }

    /// Time from the clock start until the first label was asked, in ms.
    pub fn first_label_ms(&self) -> Option<f64> {
        self.stamps.first().map(|d| d.as_secs_f64() * 1e3)
    }

    /// Gaps between consecutive label batches, in ms: from the last
    /// label of iteration `i` to the first label of iteration `i + 1`.
    /// Batch sizes come from the report's iteration records.
    pub fn batch_gaps_ms(&self, iterations: &[IterationRecord]) -> Vec<f64> {
        let mut gaps = Vec::new();
        let mut end = 0usize;
        for pair in iterations.windows(2) {
            end += pair[0].shown;
            if end == 0 || end >= self.stamps.len() {
                break;
            }
            gaps.push((self.stamps[end] - self.stamps[end - 1]).as_secs_f64() * 1e3);
        }
        gaps
    }
}

impl Oracle for TimedOracle<'_> {
    fn is_match(&mut self, a: TupleId, b: TupleId) -> bool {
        self.stamps.push(self.start.elapsed());
        self.inner.is_match(a, b)
    }

    fn labels_given(&self) -> usize {
        self.inner.labels_given()
    }
}
