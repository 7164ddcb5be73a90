//! The repo's benchmark: six named workloads, end-to-end metrics with
//! regression bounds, and a per-layer ledger from a traced run.
//!
//! `BENCHMARK.json` at the repo root names the command, the workloads
//! and the metrics; `benchmark/README.md` defines them. Everything the
//! harness measures it reaches through the crates' public functions.

#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workload;
pub mod workloads;
