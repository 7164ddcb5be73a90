//! # gpusimpow-bench — the experiment harness
//!
//! One function per table/figure of the paper in [`experiments`] (see
//! `DESIGN.md`'s per-experiment index), one row per section in
//! [`report::SECTIONS`]; `run_all_experiments` renders them all into
//! `EXPERIMENTS.md`, or the ones named by `--only=` to stdout.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod render;
pub mod report;
