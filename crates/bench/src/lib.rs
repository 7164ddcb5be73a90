//! # gpusimpow-bench — the experiment harness
//!
//! One function per table/figure of the paper in [`experiments`] (see
//! `DESIGN.md`'s per-experiment index), one row per section in
//! [`report::SECTIONS`]; the one binary, `run_all_experiments`, renders
//! the report rows into `EXPERIMENTS.md`, or any rows named by `--only=`
//! to stdout.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod render;
pub mod report;
