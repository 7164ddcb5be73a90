//! The framed-TCP protocol and the result encoding.
//!
//! ## Frame layout
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 LE    | payload (len bytes)       |
//! +----------------+---------------------------+
//! payload = msg-type: u8 | body (type-specific)
//! ```
//!
//! `len` covers the payload only and is capped at [`MAX_LEN`]; a peer
//! announcing more is treated as corrupt and the connection is
//! dropped. One request frame yields exactly one response frame, so a
//! client can pipeline batches and match responses by order.
//!
//! ## Result encoding
//!
//! A completed job's [`JobResult`] is encoded once
//! ([`encode_result`]) and those bytes are what the cache stores and
//! the server ships — a cache hit is a verbatim replay of the encoded
//! bytes, which is what the byte-identity tests pin down. `f64` fields
//! travel as exact IEEE-754 bit patterns, so decoding reproduces the
//! simulator's reports bit-for-bit.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]
// `assert!` and friends too (clippy.toml `disallowed-macros`), outside tests.
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use std::io::{ErrorKind, Read, Write};

use gpusimpow_power::{
    ChipBreakdown, ClusterPowerRow, CoreBreakdown, DramPowerBreakdown, PowerReport, PowerSplit,
    ScopedPowerReport,
};
use gpusimpow_tech::units::{Power, Time};

use gpusimpow_trace::wire::{CodecError, Reader, Writer, MAX_LEN};

use crate::digest::JobDigest;
use crate::job::{JobResult, JobSpec, TraceSample, TraceSummary};
use crate::wire::WireError;

/// Version of the result encoding, stored alongside every cached
/// payload; a bump invalidates cached results at read time.
pub const RESULT_ENCODING_VERSION: u16 = 1;

/// Magic prefix of an encoded result payload.
pub const RESULT_MAGIC: [u8; 4] = *b"GSPR";

// --- message type tags ------------------------------------------------------

const MSG_SUBMIT: u8 = 0x01;
const MSG_STATS: u8 = 0x02;
const MSG_SHUTDOWN: u8 = 0x03;
const MSG_PING: u8 = 0x04;

const MSG_RESULTS: u8 = 0x81;
const MSG_STATS_REPLY: u8 = 0x82;
const MSG_ERROR: u8 = 0x83;
const MSG_PONG: u8 = 0x84;
const MSG_SHUTTING_DOWN: u8 = 0x85;

// --- framing ----------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns [`CodecError::TooLarge`] for oversized payloads and
/// [`WireError::Io`] on socket failure.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= MAX_LEN => len,
        _ => return Err(CodecError::TooLarge(payload.len()).into()),
    };
    // One contiguous write: prefix + payload in separate writes would
    // hand Nagle + delayed-ACK a ~40 ms stall per frame.
    let mut frame = Vec::with_capacity(payload.len().saturating_add(4));
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer hung up between messages).
///
/// # Errors
///
/// Returns [`CodecError::TooLarge`] for frames above the wire limit,
/// [`CodecError::Truncated`] for mid-frame EOF and [`WireError::Io`]
/// on socket failure.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    // The prefix is read by hand rather than with `read_exact` because
    // EOF before its first byte is a clean hang-up, not an error.
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while let Some(rest) = len_bytes.get_mut(filled..).filter(|r| !r.is_empty()) {
        match stream.read(rest) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(CodecError::Truncated {
                    what: "frame length",
                }
                .into())
            }
            Ok(n) => filled = filled.saturating_add(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_LEN {
        return Err(CodecError::TooLarge(len).into());
    }
    let mut payload = vec![0u8; len];
    stream
        .read_exact(&mut payload)
        .map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => CodecError::Truncated {
                what: "frame payload",
            }
            .into(),
            _ => WireError::Io(e),
        })?;
    Ok(Some(payload))
}

// --- requests ---------------------------------------------------------------

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or fetch) a batch of jobs; answered by
    /// [`Response::Results`] with one outcome per job, in order.
    Submit(Vec<JobSpec>),
    /// Fetch the server's counters.
    Stats,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Submit(jobs) => {
                w.put_u8(MSG_SUBMIT);
                w.put_len(jobs.len());
                for job in jobs {
                    w.put_bytes(&job.canonical_bytes());
                }
            }
            Request::Stats => w.put_u8(MSG_STATS),
            Request::Shutdown => w.put_u8(MSG_SHUTDOWN),
            Request::Ping => w.put_u8(MSG_PING),
        }
        w.into_bytes()
    }

    /// Decodes a frame payload as a request.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for unknown tags, malformed bodies or
    /// out-of-domain jobs.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8("request tag")? {
            MSG_SUBMIT => {
                let count = r.u32("job count")? as usize;
                let mut jobs = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    jobs.push(JobSpec::decode(r.bytes("job encoding")?)?);
                }
                Request::Submit(jobs)
            }
            MSG_STATS => Request::Stats,
            MSG_SHUTDOWN => Request::Shutdown,
            MSG_PING => Request::Ping,
            t => return Err(CodecError::Malformed(format!("unknown request tag {t:#04x}")).into()),
        };
        r.finish("request")?;
        Ok(req)
    }
}

// --- responses --------------------------------------------------------------

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultSource {
    /// Simulated fresh by this request.
    Simulated,
    /// Served from the in-memory cache tier.
    MemoryHit,
    /// Served from the on-disk cache tier.
    DiskHit,
    /// Coalesced onto another request's in-flight simulation.
    Coalesced,
}

impl ResultSource {
    fn tag(self) -> u8 {
        match self {
            ResultSource::Simulated => 0,
            ResultSource::MemoryHit => 1,
            ResultSource::DiskHit => 2,
            ResultSource::Coalesced => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(ResultSource::Simulated),
            1 => Ok(ResultSource::MemoryHit),
            2 => Ok(ResultSource::DiskHit),
            3 => Ok(ResultSource::Coalesced),
            t => Err(CodecError::Malformed(format!("unknown result source {t}"))),
        }
    }

    /// Display name (logs, examples).
    pub fn name(self) -> &'static str {
        match self {
            ResultSource::Simulated => "simulated",
            ResultSource::MemoryHit => "memory-hit",
            ResultSource::DiskHit => "disk-hit",
            ResultSource::Coalesced => "coalesced",
        }
    }
}

/// One submitted job's outcome: its digest, where the result came
/// from, and either the encoded result payload or a job-level error.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Content address of the job.
    pub digest: JobDigest,
    /// Cache tier (or simulation) that produced the payload.
    pub source: ResultSource,
    /// Encoded [`JobResult`] bytes (decode with [`decode_result`]), or
    /// the error message for jobs that failed to simulate.
    pub payload: Result<Vec<u8>, String>,
}

/// A server's counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Jobs received across all Submit requests.
    pub jobs_received: u64,
    /// Submit batches handled.
    pub batches: u64,
    /// Jobs served from the memory tier.
    pub hits_mem: u64,
    /// Jobs served from the disk tier.
    pub hits_disk: u64,
    /// Jobs simulated (cache misses that ran).
    pub misses_simulated: u64,
    /// Jobs that waited on another request's identical in-flight job.
    pub coalesced_waits: u64,
    /// Jobs that failed (invalid or simulation error).
    pub errors: u64,
    /// Corrupt disk entries detected, evicted and recomputed.
    pub corrupt_evictions: u64,
    /// Entries currently in the memory tier.
    pub mem_entries: u64,
    /// Completed results written to the disk tier.
    pub disk_writes: u64,
}

impl StatsSnapshot {
    /// Cache hit rate over all terminally-served jobs (hits of either
    /// tier, over hits + simulated misses). Coalesced waits count as
    /// neither: they neither cost a simulation nor found a cached
    /// result.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits_mem.saturating_add(self.hits_disk);
        let denom = hits.saturating_add(self.misses_simulated);
        if denom == 0 {
            0.0
        } else {
            hits as f64 / denom as f64
        }
    }

    fn encode_into(&self, w: &mut Writer) {
        for v in [
            self.jobs_received,
            self.batches,
            self.hits_mem,
            self.hits_disk,
            self.misses_simulated,
            self.coalesced_waits,
            self.errors,
            self.corrupt_evictions,
            self.mem_entries,
            self.disk_writes,
        ] {
            w.put_u64(v);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(StatsSnapshot {
            jobs_received: r.u64("jobs_received")?,
            batches: r.u64("batches")?,
            hits_mem: r.u64("hits_mem")?,
            hits_disk: r.u64("hits_disk")?,
            misses_simulated: r.u64("misses_simulated")?,
            coalesced_waits: r.u64("coalesced_waits")?,
            errors: r.u64("errors")?,
            corrupt_evictions: r.u64("corrupt_evictions")?,
            mem_entries: r.u64("mem_entries")?,
            disk_writes: r.u64("disk_writes")?,
        })
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcomes of one Submit request, in submission order.
    Results(Vec<JobOutcome>),
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// A request-level failure (undecodable request, server shutting
    /// down, ...). Job-level failures travel inside [`JobOutcome`].
    Error(String),
    /// Ping reply.
    Pong,
    /// Acknowledges a shutdown request; the server exits after sending.
    ShuttingDown,
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Results(outcomes) => {
                w.put_u8(MSG_RESULTS);
                w.put_len(outcomes.len());
                for o in outcomes {
                    w.put_raw(&o.digest.0);
                    w.put_u8(o.source.tag());
                    match &o.payload {
                        Ok(bytes) => {
                            w.put_u8(1);
                            w.put_bytes(bytes);
                        }
                        Err(msg) => {
                            w.put_u8(0);
                            w.put_str(msg);
                        }
                    }
                }
            }
            Response::Stats(s) => {
                w.put_u8(MSG_STATS_REPLY);
                s.encode_into(&mut w);
            }
            Response::Error(msg) => {
                w.put_u8(MSG_ERROR);
                w.put_str(msg);
            }
            Response::Pong => w.put_u8(MSG_PONG),
            Response::ShuttingDown => w.put_u8(MSG_SHUTTING_DOWN),
        }
        w.into_bytes()
    }

    /// Decodes a frame payload as a response.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for unknown tags or malformed bodies.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8("response tag")? {
            MSG_RESULTS => {
                let count = r.u32("outcome count")? as usize;
                let mut outcomes = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let digest = JobDigest(r.array("outcome digest")?);
                    let source = ResultSource::from_tag(r.u8("result source")?)?;
                    let payload = match r.u8("outcome kind")? {
                        1 => Ok(r.bytes("result payload")?.to_vec()),
                        0 => Err(r.str("job error")?),
                        k => {
                            return Err(CodecError::Malformed(format!(
                                "outcome kind must be 0/1, got {k}"
                            ))
                            .into())
                        }
                    };
                    outcomes.push(JobOutcome {
                        digest,
                        source,
                        payload,
                    });
                }
                Response::Results(outcomes)
            }
            MSG_STATS_REPLY => Response::Stats(StatsSnapshot::decode_from(&mut r)?),
            MSG_ERROR => Response::Error(r.str("error message")?),
            MSG_PONG => Response::Pong,
            MSG_SHUTTING_DOWN => Response::ShuttingDown,
            t => {
                return Err(CodecError::Malformed(format!("unknown response tag {t:#04x}")).into())
            }
        };
        r.finish("response")?;
        Ok(resp)
    }
}

// --- result payload encoding --------------------------------------------------

fn put_split(w: &mut Writer, s: PowerSplit) {
    w.put_f64(s.static_power.watts());
    w.put_f64(s.dynamic_power.watts());
}

fn get_split(r: &mut Reader<'_>, what: &'static str) -> Result<PowerSplit, CodecError> {
    Ok(PowerSplit::new(
        Power::new(r.f64(what)?),
        Power::new(r.f64(what)?),
    ))
}

fn put_report(w: &mut Writer, report: &PowerReport) {
    w.put_str(&report.kernel);
    w.put_str(&report.gpu);
    w.put_f64(report.time.seconds());
    for s in [
        report.chip.cores,
        report.chip.noc,
        report.chip.mc,
        report.chip.pcie,
        report.chip.l2,
    ] {
        put_split(w, s);
    }
    for s in [
        report.core.base,
        report.core.wcu,
        report.core.regfile,
        report.core.exec,
        report.core.ldstu,
        report.core.undiff,
    ] {
        put_split(w, s);
    }
    for p in [
        report.dram.background,
        report.dram.activate,
        report.dram.read,
        report.dram.write,
        report.dram.termination,
        report.dram.refresh,
    ] {
        w.put_f64(p.watts());
    }
}

fn get_report(r: &mut Reader<'_>) -> Result<PowerReport, CodecError> {
    Ok(PowerReport {
        kernel: r.str("report kernel")?,
        gpu: r.str("report gpu")?,
        time: Time::new(r.f64("report time")?),
        chip: ChipBreakdown {
            cores: get_split(r, "chip cores")?,
            noc: get_split(r, "chip noc")?,
            mc: get_split(r, "chip mc")?,
            pcie: get_split(r, "chip pcie")?,
            l2: get_split(r, "chip l2")?,
        },
        core: CoreBreakdown {
            base: get_split(r, "core base")?,
            wcu: get_split(r, "core wcu")?,
            regfile: get_split(r, "core regfile")?,
            exec: get_split(r, "core exec")?,
            ldstu: get_split(r, "core ldstu")?,
            undiff: get_split(r, "core undiff")?,
        },
        dram: DramPowerBreakdown {
            background: Power::new(r.f64("dram background")?),
            activate: Power::new(r.f64("dram activate")?),
            read: Power::new(r.f64("dram read")?),
            write: Power::new(r.f64("dram write")?),
            termination: Power::new(r.f64("dram termination")?),
            refresh: Power::new(r.f64("dram refresh")?),
        },
    })
}

fn put_scoped(w: &mut Writer, scoped: &ScopedPowerReport) {
    put_report(w, &scoped.report);
    w.put_len(scoped.clusters.len());
    for row in &scoped.clusters {
        w.put_u64(row.cluster as u64);
        put_split(w, row.power);
        w.put_f64(row.busy_fraction);
        w.put_f64(row.avg_busy_cores);
    }
    put_split(w, scoped.scheduler);
    put_split(w, scoped.uncore);
}

fn get_scoped(r: &mut Reader<'_>) -> Result<ScopedPowerReport, CodecError> {
    let report = get_report(r)?;
    let n = r.u32("cluster row count")? as usize;
    let mut clusters = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        clusters.push(ClusterPowerRow {
            cluster: usize::try_from(r.u64("cluster index")?)
                .map_err(|_| CodecError::Malformed("cluster index does not fit usize".into()))?,
            power: get_split(r, "cluster power")?,
            busy_fraction: r.f64("cluster busy fraction")?,
            avg_busy_cores: r.f64("cluster avg busy cores")?,
        });
    }
    Ok(ScopedPowerReport {
        report,
        clusters,
        scheduler: get_split(r, "scheduler power")?,
        uncore: get_split(r, "uncore power")?,
    })
}

fn put_trace(w: &mut Writer, trace: &TraceSummary) {
    w.put_str(&trace.kernel);
    w.put_str(&trace.governor);
    w.put_len(trace.samples.len());
    for s in &trace.samples {
        w.put_u64(s.index);
        w.put_f64(s.start_s);
        w.put_f64(s.duration_s);
        w.put_u32(s.op_index);
        w.put_f64(s.utilization);
        w.put_f64(s.dynamic_w);
        w.put_f64(s.static_w);
        w.put_f64(s.dram_w);
    }
}

fn get_trace(r: &mut Reader<'_>) -> Result<TraceSummary, CodecError> {
    let kernel = r.str("trace kernel")?;
    let governor = r.str("trace governor")?;
    let n = r.u32("trace sample count")? as usize;
    let mut samples = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        samples.push(TraceSample {
            index: r.u64("sample index")?,
            start_s: r.f64("sample start")?,
            duration_s: r.f64("sample duration")?,
            op_index: r.u32("sample op index")?,
            utilization: r.f64("sample utilization")?,
            dynamic_w: r.f64("sample dynamic power")?,
            static_w: r.f64("sample static power")?,
            dram_w: r.f64("sample dram power")?,
        });
    }
    Ok(TraceSummary {
        kernel,
        governor,
        samples,
    })
}

/// Encodes a [`JobResult`] into the byte form the cache stores and the
/// wire ships. The encoding is exact: [`decode_result`] reproduces the
/// input bit-for-bit.
pub fn encode_result(result: &JobResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_header(&RESULT_MAGIC, RESULT_ENCODING_VERSION);
    w.put_len(result.reports.len());
    for scoped in &result.reports {
        put_scoped(&mut w, scoped);
    }
    w.put_len(result.traces.len());
    for trace in &result.traces {
        put_trace(&mut w, trace);
    }
    w.into_bytes()
}

/// Decodes an encoded result payload.
///
/// # Errors
///
/// Returns [`WireError`] for bad magic, a foreign encoding version or
/// structural corruption.
pub fn decode_result(bytes: &[u8]) -> Result<JobResult, WireError> {
    let mut r = Reader::new(bytes);
    r.header(&RESULT_MAGIC, RESULT_ENCODING_VERSION)?;
    let n_reports = r.u32("report count")? as usize;
    let mut reports = Vec::with_capacity(n_reports.min(4096));
    for _ in 0..n_reports {
        reports.push(get_scoped(&mut r)?);
    }
    let n_traces = r.u32("trace count")? as usize;
    let mut traces = Vec::with_capacity(n_traces.min(4096));
    for _ in 0..n_traces {
        traces.push(get_trace(&mut r)?);
    }
    r.finish("result payload")?;
    Ok(JobResult { reports, traces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{run_job, GovernorSpec, GpuPreset, KernelSpec};

    fn tiny_job(window: u64) -> JobSpec {
        JobSpec {
            kernel: KernelSpec::ClusterStep {
                iterations: 32,
                blocks: 2,
                threads: 64,
            },
            gpu: GpuPreset::Gt240,
            governor: GovernorSpec::Ondemand,
            window_cycles: window,
        }
    }

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Submit(vec![tiny_job(0), tiny_job(512)]),
            Request::Stats,
            Request::Shutdown,
            Request::Ping,
        ];
        for req in reqs {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Tag 0x05 is retired (it was the server-side sweep request):
        // a frame that still carries it is an unknown tag.
        let mut retired = vec![0x05];
        retired.extend_from_slice(&tiny_job(0).canonical_bytes());
        match Request::decode(&retired) {
            Err(WireError::Codec(CodecError::Malformed(msg))) => {
                assert!(msg.contains("0x05"), "got: {msg}");
            }
            other => panic!("expected a malformed-tag error, got {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip() {
        let outcome_ok = JobOutcome {
            digest: JobDigest([7; 16]),
            source: ResultSource::MemoryHit,
            payload: Ok(vec![1, 2, 3]),
        };
        let outcome_err = JobOutcome {
            digest: JobDigest([9; 16]),
            source: ResultSource::Simulated,
            payload: Err("kernel exploded".to_string()),
        };
        let stats = StatsSnapshot {
            jobs_received: 10,
            batches: 2,
            hits_mem: 3,
            hits_disk: 1,
            misses_simulated: 4,
            coalesced_waits: 2,
            errors: 0,
            corrupt_evictions: 1,
            mem_entries: 4,
            disk_writes: 4,
        };
        let resps = vec![
            Response::Results(vec![outcome_ok, outcome_err]),
            Response::Stats(stats),
            Response::Error("bad request".to_string()),
            Response::Pong,
            Response::ShuttingDown,
        ];
        for resp in resps {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = StatsSnapshot::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits_mem = 6;
        s.hits_disk = 2;
        s.misses_simulated = 2;
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn result_encoding_roundtrips_bit_for_bit() {
        let result = run_job(&tiny_job(512)).unwrap();
        let bytes = encode_result(&result);
        let back = decode_result(&bytes).unwrap();
        assert_eq!(back, result);
        // Re-encoding the decoded result reproduces the exact bytes —
        // the property that lets the cache store encoded payloads.
        assert_eq!(encode_result(&back), bytes);
    }

    #[test]
    fn result_decoding_rejects_corruption() {
        let result = run_job(&tiny_job(0)).unwrap();
        let bytes = encode_result(&result);
        assert!(decode_result(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        assert!(decode_result(&wrong_version).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(decode_result(&wrong_magic).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_result(&trailing).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// A `Read` that hands out one byte per call and fails with
    /// `Interrupted` (a signal landing mid-`read`) before the third.
    struct Interrupting<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls = self.calls.saturating_add(1);
            if self.calls == 3 {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.bytes.len()).min(1);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn interrupted_read_mid_prefix_is_retried() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut stream = Interrupting {
            bytes: &buf,
            calls: 0,
        };
        assert_eq!(read_frame(&mut stream).unwrap().unwrap(), b"hello");
        assert!(stream.calls > 3, "the interrupted call was reached");
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(&buf[..7]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Codec(CodecError::Truncated { .. }))
        ));
        // Oversized announced length.
        let huge = u32::try_from(MAX_LEN + 1).unwrap().to_le_bytes();
        let mut cursor = std::io::Cursor::new(&huge[..]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Codec(CodecError::TooLarge(_)))
        ));
    }
}
