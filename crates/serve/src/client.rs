//! A blocking client for the simulation service.
//!
//! One [`Client`] owns one TCP connection. Requests are synchronous:
//! each call writes one frame and reads one response frame (the server
//! answers in order, so no correlation ids are needed).

use std::net::{TcpStream, ToSocketAddrs};

use gpusimpow_trace::wire::CodecError;

use crate::job::JobSpec;
use crate::proto::{read_frame, write_frame, JobOutcome, Request, Response, StatsSnapshot};
use crate::wire::WireError;

/// A reply of the wrong kind, or a request-level server error.
fn unexpected(expected: &str, got: Response) -> WireError {
    CodecError::Malformed(match got {
        Response::Error(msg) => format!("server error: {msg}"),
        other => format!("expected {expected}, got {other:?}"),
    })
    .into()
}

/// A connected service client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream)?.ok_or(CodecError::Truncated {
            what: "response frame",
        })?;
        Response::decode(&payload)
    }

    /// Submits a batch of jobs; returns one outcome per job, in order.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on transport failure or a request-level
    /// server error. Per-job failures are inside the outcomes.
    pub fn submit(&mut self, jobs: &[JobSpec]) -> Result<Vec<JobOutcome>, WireError> {
        match self.roundtrip(&Request::Submit(jobs.to_vec()))? {
            Response::Results(outcomes) => Ok(outcomes),
            other => Err(unexpected("Results", other)),
        }
    }

    /// Fetches the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on transport failure or a non-Stats reply.
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", other)),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on transport failure or a non-Pong reply.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", other)),
        }
    }

    /// Asks the server to shut down; the connection is spent afterward.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on transport failure or an unexpected
    /// reply.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", other)),
        }
    }
}
