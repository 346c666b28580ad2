#![warn(missing_docs)]

//! # fia-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (see DESIGN.md §3 for the full index). The [`experiments`] module has
//! one sub-module per table/figure, each exposing a `run(&ExperimentConfig)`
//! returning typed rows; `src/bin/repro.rs` prints them in the paper's
//! layout; `benches/` measures representative configurations under the
//! in-tree wall-clock [`harness`] (criterion is unavailable offline) and
//! emits a machine-readable `BENCH_attacks.json` perf summary.
//!
//! Two profiles are provided: [`profiles::ExperimentConfig::quick`] runs
//! every experiment in seconds on scaled-down workloads (the *shapes* of
//! the results — who wins, where thresholds fall — are preserved);
//! `paper()` uses the paper's full sizes.

pub mod experiments;
pub mod harness;
pub mod profiles;
pub mod report;
