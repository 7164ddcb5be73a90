//! The service's error type: a codec failure or a transport failure.
//!
//! The byte-level primitives every service format is built from — the
//! bounds-checked `Reader`, the `Writer`, the magic + version header
//! check and the [`CodecError`] vocabulary — live in
//! [`gpusimpow_trace::wire`], shared with the trace format. What is
//! the service's own is the socket: a frame can also fail because the
//! connection did.

use std::fmt;

use gpusimpow_trace::wire::CodecError;

/// A decode or transport failure.
#[derive(Debug)]
pub enum WireError {
    /// The bytes were truncated, malformed or oversized.
    Codec(CodecError),
    /// The underlying socket failed.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => e.fmt(f),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}
