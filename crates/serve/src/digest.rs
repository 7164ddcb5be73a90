//! The content address of a job: the workspace's one 128-bit digest
//! ([`gpusimpow_trace::digest`]) over the job's canonical byte
//! encoding, under the name the service knows it by.
//!
//! The digest is versioned *indirectly*: the canonical encoding
//! carries its own version field
//! ([`crate::job::JOB_ENCODING_VERSION`]). Changing the encoding bumps
//! that version, which changes every digest, which cleanly orphans all
//! previously cached results rather than silently serving stale ones.

pub use gpusimpow_trace::digest::Digest as JobDigest;
