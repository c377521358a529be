//! Learned scheduling: the offline half of `--sched learned:<model>`.
//!
//! ROADMAP item 4 asks whether a *trained* predictor can beat the paper's
//! hand-built heuristics (reg's O(n) goodness scan, ELSC's table split) at
//! the per-decision "which task runs next" problem. This crate is the
//! train-time side of that loop:
//!
//! * [`data`] — replays a `--decision-trace` JSON-lines stream
//!   (`sched_candidate` bursts closed by a `sched_decision` label, see
//!   `elsc-obs`) into supervised per-decision rows.
//! * [`model`] — the model zoo: logistic regression and a tiny
//!   fixed-topology MLP over [`FEATURES`] integer features, with a
//!   versioned text serialization. All weights are Q16.16 fixed-point
//!   `i64`s; scoring is pure integer arithmetic so train-time and
//!   run-time agree bit-for-bit on every platform.
//! * [`mod@train`] — a dependency-free SGD trainer with `SimRng`-seeded
//!   initialization and integer weight updates, so `(seed, dataset)` →
//!   **byte-identical model file**. Models are lab-cache-friendly: the
//!   model text digests into the cell id like `.pol` policy source does.
//!
//! The run-time half — the `learned:<model>` scheduler that scores
//! candidates, verifies the pick with a bounded goodness check, charges
//! `CostKind::Mispredict` on failure and falls back to the native scan —
//! lives in `elsc-sched-ext`, built on the same [`model::Model`] type.
#![deny(missing_docs)]

pub mod data;
pub mod model;
pub mod train;

pub use data::{parse_trace, CandidateRow, Dataset, Decision};
pub use model::{Arch, Model, Q_ONE};
pub use train::{eval, train, TrainConfig, EPOCHS, LR_SHIFT};

use elsc_ktask::Tid;

/// Number of features per candidate, in [`FEATURE_NAMES`] order.
pub const FEATURES: usize = 7;

/// Canonical feature order. Indexes into every feature vector in this
/// crate and in the `learned:<model>` scheduler; see CONTRIBUTING.md for
/// the checklist when adding a column.
pub const FEATURE_NAMES: [&str; FEATURES] = [
    "depth",    // runnable tasks at the decision (excluding idle)
    "counter",  // candidate's remaining time-slice counter
    "priority", // candidate's static priority
    "rt",       // 1 if realtime-class
    "mm_match", // 1 if candidate shares the outgoing task's mm
    "affinity", // topology affinity bonus of last CPU vs deciding CPU
    "recency",  // decisions since the candidate last won, on any CPU (255 = never)
];

/// The `recency` feature's clock, kept the same by the `--decision-trace`
/// observer that writes the column and the `learned:<model>` scheduler
/// that reads it: decisions since each task last won one, on any CPU,
/// saturated at 255 (255 = never). Indexed by task-table slot; the slot's
/// next tenant has another generation, so it reads as never picked.
#[derive(Debug, Default)]
pub struct Recency {
    /// Decisions started so far.
    decisions: u64,
    /// Per slot, the task that last won there and the decision it won.
    last_won: Vec<Option<(Tid, u64)>>,
}

impl Recency {
    /// Starts a decision.
    pub fn tick(&mut self) {
        self.decisions += 1;
    }

    /// `tid`'s feature value in the current decision.
    pub fn of(&self, tid: Tid) -> u64 {
        match self.last_won.get(tid.index()) {
            Some(&Some((t, won))) if t == tid => (self.decisions - won).min(255),
            _ => 255,
        }
    }

    /// Records that `tid` won the current decision.
    pub fn won(&mut self, tid: Tid) {
        let idx = tid.index();
        if idx >= self.last_won.len() {
            self.last_won.resize(idx + 1, None);
        }
        self.last_won[idx] = Some((tid, self.decisions));
    }
}

/// Per-feature full-scale values: a raw feature equal to its scale maps
/// to 1.0 in Q16.16. Chosen so every in-range raw value lands in roughly
/// `[0, 1]` and SGD sees comparable magnitudes per column.
pub const SCALE: [i64; FEATURES] = [64, 64, 64, 1, 1, 16, 256];

/// Quantizes raw integer features into Q16.16 model inputs
/// (`x_q = raw * 65536 / SCALE`).
pub fn quantize(raw: &[i64; FEATURES]) -> [i64; FEATURES] {
    let mut q = [0i64; FEATURES];
    for i in 0..FEATURES {
        q[i] = raw[i] * model::Q_ONE / SCALE[i];
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_maps_scale_to_one() {
        let mut raw = [0i64; FEATURES];
        for (i, s) in SCALE.iter().enumerate() {
            raw[i] = *s;
        }
        assert_eq!(quantize(&raw), [model::Q_ONE; FEATURES]);
    }

    #[test]
    fn recency_reads_the_gap_since_a_win() {
        let (a, b) = (Tid::from_raw(3, 0), Tid::from_raw(3, 1));
        let mut r = Recency::default();
        r.tick();
        assert_eq!(r.of(a), 255, "never won");
        r.won(a);
        r.tick();
        r.tick();
        assert_eq!(r.of(a), 2);
        assert_eq!(r.of(b), 255, "the slot's next tenant never won");
        for _ in 0..300 {
            r.tick();
        }
        assert_eq!(r.of(a), 255, "capped");
    }

    #[test]
    fn quantize_zero_is_zero() {
        assert_eq!(quantize(&[0; FEATURES]), [0; FEATURES]);
    }
}
