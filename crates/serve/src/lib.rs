//! Simulation-as-a-service: a batch power-estimation server with a
//! content-addressed result cache.
//!
//! The paper's pitch is that architectural power estimates should be
//! cheap enough to query *constantly* during design-space exploration.
//! One-shot CLI runs re-simulate from scratch on every invocation; this
//! crate turns the simulator into a long-running backend instead:
//!
//! 1. Clients submit batches of [`job::JobSpec`]s — canonical
//!    (kernel + params, grid, GPU config, governor, sampling window)
//!    tuples — over a length-prefixed framed-TCP protocol
//!    ([`proto`]).
//! 2. The server canonicalizes and digests each job ([`digest`]);
//!    because PRs 2–5 made simulation bit-deterministic, the digest is
//!    a true content address for the result.
//! 3. Misses fan out across the persistent `SimPool`; hits are served
//!    from a two-tier store ([`store`]): a bounded in-memory LRU over
//!    an integrity-checked on-disk tier. Concurrent submissions of the
//!    same uncached job coalesce onto a single simulation
//!    ([`server`]).
//!
//! The `gpusimpow-serve` bin runs the server. Its cache contract is
//! checked by `tests/service.rs`; throughput and latency are measured
//! by the `serve_cold` / `serve_warm` workloads of `benchmark/`.
//!
//! Every byte format here — jobs, results, cache entries, frames — is
//! built from the one cursor, header check and digest in
//! `gpusimpow_trace::{wire, digest}`; [`wire`] adds only the transport
//! failure a socket can add.

#![warn(missing_docs)]

pub mod client;
pub mod digest;
pub mod job;
pub mod proto;
pub mod server;
pub mod store;
pub mod wire;

pub use client::Client;
pub use digest::JobDigest;
pub use job::{run_job, GovernorSpec, GpuPreset, JobResult, JobSpec, KernelSpec};
pub use proto::{JobOutcome, Request, Response, ResultSource, StatsSnapshot};
pub use server::{Server, ServerConfig};
pub use store::{ResultStore, StoreConfig};
