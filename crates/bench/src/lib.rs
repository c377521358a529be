//! Shared harness for the ad-hoc experiment binaries and microbenchmarks.
//!
//! The paper's own tables and figures are rendered by
//! `elsc-sim lab render <name>` (see `DESIGN.md` §5); what lives here is
//! the raw-scheduler [`rig`], the experiments that are not lab sweeps,
//! and the microbenches:
//!
//! | target | artifact |
//! |---|---|
//! | `figure1` | Figure 1 — the two run-queue structures, rendered |
//! | `contention` | §7/§8 — lock spin vs locking regime ablation |
//! | `latency` | §8 — web-server latency across designs |
//! | `gooch` | reference \[5\] — yield cost vs runnable processes |
//! | `sensitivity` | cost-model calibration robustness |
//! | `diag` | full statistics for one VolanoMark run |
//!
//! Microbenches (`cargo bench`) measure the *real* (host) cost of the
//! scheduler algorithms themselves: `schedule()` latency vs run-queue
//! length, run-queue operation costs, `goodness()` evaluation, and an
//! ablation across all four scheduler designs. They run on the
//! dependency-free [`harness`] module so offline builds work; the API
//! mirrors Criterion's, so swapping Criterion back in (with network
//! access) is a one-line import change per bench.
//!
//! Schedulers and machine shapes come from the lab's registry:
//! [`SchedKind`] and [`Shape`] are re-exports, not second tables.
#![warn(missing_docs)]

use elsc_workloads::VolanoConfig;

pub mod harness;
pub mod rig;

pub use elsc_lab::{header, SchedId as SchedKind, Shape};

/// VolanoMark parameters used by the experiment binaries.
///
/// The paper ran 100 messages per user; we default to 20, which leaves
/// message *rates* (the benchmark metric) unchanged while keeping the
/// whole experiment matrix inside a few minutes of host time. Override
/// with the `ELSC_MESSAGES` environment variable to run the full length.
pub fn volano_cfg(rooms: usize) -> VolanoConfig {
    let messages = std::env::var("ELSC_MESSAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    VolanoConfig {
        rooms,
        messages_per_user: messages,
        ..VolanoConfig::default()
    }
}

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>w$}  ", w = w));
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volano_cfg_respects_rooms() {
        let c = volano_cfg(15);
        assert_eq!(c.rooms, 15);
        assert_eq!(c.users_per_room, 20);
    }

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
