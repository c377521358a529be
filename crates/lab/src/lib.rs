//! `elsc-lab`: the parallel experiment orchestrator.
//!
//! The paper's evaluation is a grid — scheduler × machine shape × lock
//! plan × workload parameters × seed — and re-running that grid after
//! every change is the main cost of working on this repo. The lab turns
//! the grid into *cells* and exploits the simulator's determinism (a run
//! is a pure function of its cell) three ways:
//!
//! 1. **Parallelism** ([`pool`]): cells are independent, so a
//!    work-stealing pool of `std::thread` workers executes them
//!    concurrently. Results are assembled in canonical cell order, so
//!    the output is byte-identical for any worker count.
//! 2. **Caching** ([`cache`]): each cell's manifest record is stored
//!    under a content-addressed key (cell id + crate version + format);
//!    re-runs execute only dirty cells, and a warm run executes nothing.
//! 3. **Gating** ([`compare`](mod@compare)): a run manifest diffs against a committed
//!    baseline, failing on >threshold growth in the paper's cost metrics
//!    — a regression gate CI runs on every push.
//!
//! The grid itself is a [`SweepSpec`] ([`spec`]): a tiny text format
//! with builtin specs for every experiment (`figure2`…`figure6`,
//! `table2`, `kernel_share`, `contention`, `gooch`, `latency`, plus a
//! CI-sized `smoke` and the gate sweeps). The `elsc-sim lab`
//! subcommand — sweeps, the `render` tables, the compare gate — is a
//! thin client of this crate.
//!
//! See `DESIGN.md` §7 for the cell model and the safety argument for
//! cross-thread execution.
#![deny(missing_docs)]

pub mod cache;
pub mod calibrate;
pub mod cell;
pub mod compare;
pub mod hash;
pub mod jsonv;
pub mod manifest;
pub mod pool;
pub mod spec;

pub use cache::Cache;
pub use cell::{
    execute_cell, CellConfig, CellError, CellResult, ChaosSpec, Metrics, SchedId, Shape,
    WorkloadCell,
};
pub use compare::{
    compare, CompareReport, Regression, GATED_METRICS, MIN_GATED_METRICS, WALL_RATIO_MAX,
};
pub use manifest::{cell_record, manifest, write_manifest};
pub use pool::{run_sweep, CellOutcome, RunOptions, SweepRun};
pub use spec::SweepSpec;

/// Prints the banner every experiment table opens with.
pub fn header(title: &str, artifact: &str) {
    println!("================================================================");
    println!("{title}");
    println!("reproduces: {artifact}");
    println!("================================================================");
}

/// The paper's §6 aggregation rule for repeated runs: when there is more
/// than one sample, the first is discarded as warm-up and the rest are
/// averaged; a single sample is returned as-is.
///
/// ```
/// assert_eq!(elsc_lab::discard_first_mean(&[10.0]), 10.0);
/// assert_eq!(elsc_lab::discard_first_mean(&[99.0, 4.0, 6.0]), 5.0);
/// ```
///
/// # Panics
///
/// Panics on an empty slice.
pub fn discard_first_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "discard_first_mean of no samples");
    if samples.len() == 1 {
        return samples[0];
    }
    let rest = &samples[1..];
    rest.iter().sum::<f64>() / rest.len() as f64
}

#[cfg(test)]
mod tests {
    #[test]
    fn discard_first_mean_rules() {
        assert_eq!(super::discard_first_mean(&[7.0]), 7.0);
        assert_eq!(super::discard_first_mean(&[0.0, 2.0, 4.0]), 3.0);
    }
}
