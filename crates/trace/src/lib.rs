//! # gpusimpow-trace — the versioned kernel-trace format
//!
//! Splits ISA execution from timing simulation: a [`KernelTrace`]
//! records everything the core pipeline consumes from functional
//! execution — the kernel's instruction table (PC-indexed, carrying
//! opcode class and operand/bank metadata), plus per-warp streams of
//! issued PCs, branch-taken masks and memory-access address lists.
//! Replaying a trace drives the identical fetch/issue/commit pipeline
//! without touching register or memory contents, so one captured (or
//! synthesised) workload can be timed under many GPU configurations,
//! shipped to the batch service as a job payload, or archived as a
//! shareable workload.
//!
//! The on-disk encoding (`v1`) is a compact hand-rolled binary format:
//! a `GSPT` magic + version header, msgpack-style LEB128 varints for
//! all counts and scalars, and a 128-bit integrity digest in the
//! footer. The reader is hardened against hostile input: truncation,
//! bit flips and unknown versions produce typed [`TraceError`]s, never
//! panics and never partially-initialised values.
//!
//! This crate is also the lowest one both the simulator and the batch
//! service depend on, so it owns the primitives every byte format in
//! the workspace is built from: the bounds-checked cursor and append
//! buffer in [`wire`] and the 128-bit [`digest`]. The service's job,
//! result and cache-entry encodings use the same `Reader`, `Writer`,
//! header check and digest as the trace format does.
//!
//! # Examples
//!
//! ```
//! use gpusimpow_trace::{synth, KernelTrace};
//!
//! // A synthetic divergence workload: 2 blocks x 2 warps, 11 of 32
//! // lanes take the branch.
//! let trace = synth::divergence_family(2, 2, 11);
//! let bytes = trace.encode();
//! let back = KernelTrace::decode(&bytes)?;
//! assert_eq!(back, trace);
//! # Ok::<(), gpusimpow_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod digest;
pub mod format;
pub mod synth;
pub mod wire;

mod codec;

pub use digest::Digest as TraceDigest;
pub use format::{KernelTrace, WarpStream, TRACE_MAGIC, TRACE_VERSION};
pub use wire::CodecError as TraceError;
