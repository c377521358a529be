//! Observability subsystem for the ELSC scheduler reproduction.
//!
//! The paper's core evidence is introspective: a profile showing 37–55 %
//! of kernel time in `schedule()` (§4), recalculation frequencies
//! (Figure 2), per-call cycle counts (Figure 5). This crate is the layer
//! that makes such measurements first-class for *every* run instead of
//! one-off experiment binaries. Three pillars:
//!
//! 1. **Cycle-attribution profiler** ([`profiler`]) — every simulated
//!    kernel cycle is attributed to a (CPU, [`Phase`], `CostKind`) cell;
//!    attribution sums exactly to total metered kernel time, and
//!    [`ProfileReport::sched_share`] reproduces the §4 kernel-share
//!    measurement cycle-for-cycle.
//! 2. **Structured trace pipeline** ([`bus`], [`event`], [`diff`]) — an
//!    [`EventBus`] carries [`ObsEvent`]s from the machine and schedulers
//!    to pluggable sinks: a bounded in-memory ring, a JSON-lines stream,
//!    or a callback. [`first_divergence`] aligns two runs and reports
//!    where they first disagree.
//! 3. **Exporters** ([`latency`], [`export`], [`json`]) — p50/p90/p99/
//!    p999 latency summaries and deterministic JSON serialization so
//!    figure binaries and CI emit machine-readable artifacts.
//!
//! Everything here is observation-only: a run with sinks attached and a
//! run with none produce the same schedule (tested in `elsc-machine`).

#![warn(missing_docs)]

pub mod bus;
pub mod diff;
pub mod event;
pub mod export;
pub mod json;
pub mod latency;
pub mod profiler;

pub use bus::{CallbackSink, EventBus, JsonLinesSink, RingSink, Sink};
pub use diff::{first_divergence, DiffReport, Divergence};
pub use event::{ObsEvent, ObsRecord};
pub use export::stats_json;
pub use latency::Percentiles;
pub use profiler::{CycleProfiler, Phase, ProfileReport, PHASES};
