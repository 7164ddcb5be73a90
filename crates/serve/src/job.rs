//! Canonical power-estimation jobs: the unit of work the service
//! accepts, hashes, caches and simulates.
//!
//! A [`JobSpec`] is the tuple the paper's design-space-exploration use
//! case keeps asking about — *which kernel, at which grid size, on
//! which GPU, under which power-management policy, sampled how often* —
//! reduced to a versioned canonical byte encoding
//! ([`JobSpec::canonical_bytes`]). Two textually different requests
//! that mean the same job produce the same bytes, the same
//! [`JobDigest`], and therefore the same cache slot. Because PRs 2–5
//! made simulation bit-deterministic, the digest really is a content
//! address: re-simulating a digest always reproduces the cached bytes.
//!
//! [`run_job`] is the pure job → result function the server fans out
//! over its `SimPool`; it builds a fresh `Gpu` per job, so jobs are
//! independent and embarrassingly parallel.

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_kernels::{micro, small_benchmarks};
use gpusimpow_pm::{Baseline, ClusterOndemand, Governor, Ondemand, PowerCap, PowerTracer};
use gpusimpow_power::{GpuChip, ScopedPowerReport};
use gpusimpow_sim::{Gpu, GpuConfig, LaunchReport, RecordedLaunch, WindowRecorder};
use gpusimpow_tech::units::Power;
use gpusimpow_trace::wire::{CodecError, Reader, Writer};
use gpusimpow_trace::KernelTrace;

use crate::digest::JobDigest;
use crate::wire::WireError;

/// Version of the canonical job encoding. Bumping this changes every
/// job digest, deliberately orphaning all previously cached results
/// (see `crates/trace/src/digest.rs` for why that is the safe failure
/// mode).
pub const JOB_ENCODING_VERSION: u16 = 1;

/// Magic prefix of a canonical job encoding.
pub const JOB_MAGIC: [u8; 4] = *b"GSPJ";

/// Upper bound on threads per block a job may request (matches the
/// largest block size the Table I workloads use).
const MAX_THREADS_PER_BLOCK: u32 = 1024;

/// Upper bound on blocks per job — service-side sanity cap, far above
/// any workload in the suite but low enough that a garbage request
/// cannot wedge a worker for hours.
const MAX_BLOCKS: u32 = 65_536;

/// Upper bound on loop-iteration parameters of the micro kernels.
const MAX_ITERATIONS: u32 = 1 << 20;

/// Upper bound on an embedded trace payload. Well under the wire
/// frame limit (`gpusimpow_trace::wire::MAX_LEN`), and far above any
/// trace the small suite captures, but low enough that a garbage
/// submission cannot pin a worker decoding gigabytes.
pub const MAX_TRACE_BYTES: usize = 16 << 20;

/// A job failure: the spec was invalid, or the simulation itself
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job description is out of the service's accepted domain.
    Invalid(String),
    /// The simulator rejected or failed the run.
    Sim(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(m) => write!(f, "invalid job: {m}"),
            JobError::Sim(m) => write!(f, "simulation failed: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Which GPU preset a job runs on (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GpuPreset {
    /// GeForce GT240.
    Gt240,
    /// GeForce GTX580.
    Gtx580,
}

impl GpuPreset {
    /// The simulator configuration for this preset.
    pub fn config(self) -> GpuConfig {
        match self {
            GpuPreset::Gt240 => GpuConfig::gt240(),
            GpuPreset::Gtx580 => GpuConfig::gtx580(),
        }
    }

    fn tag(self) -> u8 {
        match self {
            GpuPreset::Gt240 => 0,
            GpuPreset::Gtx580 => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(GpuPreset::Gt240),
            1 => Ok(GpuPreset::Gtx580),
            t => Err(CodecError::Malformed(format!("unknown GPU preset tag {t}"))),
        }
    }
}

/// Which DVFS governor prices the job's power trace. Only meaningful
/// when the job samples windows (`window_cycles > 0`); the
/// whole-launch [`ScopedPowerReport`] is governor-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GovernorSpec {
    /// No power management: every window at nominal.
    Baseline,
    /// Utilization-driven `ondemand` (default thresholds).
    Ondemand,
    /// Busiest-cluster `ondemand` (default thresholds).
    ClusterOndemand,
    /// Per-window power cap, in integer milliwatts so the canonical
    /// encoding never touches floating point.
    PowerCap {
        /// Chip power budget in milliwatts.
        cap_mw: u64,
    },
}

impl GovernorSpec {
    /// Instantiates the governor.
    pub fn build(self) -> Box<dyn Governor> {
        match self {
            GovernorSpec::Baseline => Box::new(Baseline),
            GovernorSpec::Ondemand => Box::new(Ondemand::default()),
            GovernorSpec::ClusterOndemand => Box::new(ClusterOndemand::default()),
            GovernorSpec::PowerCap { cap_mw } => {
                Box::new(PowerCap::new(Power::from_milliwatts(cap_mw as f64)))
            }
        }
    }

    fn encode(self, w: &mut Writer) {
        match self {
            GovernorSpec::Baseline => w.put_u8(0),
            GovernorSpec::Ondemand => w.put_u8(1),
            GovernorSpec::ClusterOndemand => w.put_u8(2),
            GovernorSpec::PowerCap { cap_mw } => {
                w.put_u8(3);
                w.put_u64(cap_mw);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8("governor tag")? {
            0 => Ok(GovernorSpec::Baseline),
            1 => Ok(GovernorSpec::Ondemand),
            2 => Ok(GovernorSpec::ClusterOndemand),
            3 => Ok(GovernorSpec::PowerCap {
                cap_mw: r.u64("powercap milliwatts")?,
            }),
            t => Err(CodecError::Malformed(format!("unknown governor tag {t}"))),
        }
    }
}

/// Which kernel a job simulates, with its parameters and grid
/// dimensions. The micro variants address the parameterised probe
/// kernels directly; [`KernelSpec::Suite`] addresses one of the twelve
/// Table I benchmarks (whose grids are part of the workload
/// definition).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelSpec {
    /// The Fig. 4 cluster-activation probe.
    ClusterStep {
        /// Loop iterations of fixed mixed INT/FP work.
        iterations: u32,
        /// Thread blocks.
        blocks: u32,
        /// Threads per block.
        threads: u32,
    },
    /// The §III-D integer (LFSR) microbenchmark.
    Lfsr {
        /// Enabled lanes per warp (1..=32).
        lanes: u32,
        /// Unrolled-loop iterations.
        iterations: u32,
        /// Thread blocks.
        blocks: u32,
        /// Threads per block.
        threads: u32,
    },
    /// The §III-D floating-point (Mandelbrot) microbenchmark.
    Mandelbrot {
        /// Enabled lanes per warp (1..=32).
        lanes: u32,
        /// Unrolled-loop iterations.
        iterations: u32,
        /// Thread blocks.
        blocks: u32,
        /// Threads per block.
        threads: u32,
    },
    /// The branch-divergence ablation probe.
    Divergence {
        /// Divergence nesting depth (1..=5).
        depth: u32,
        /// Thread blocks.
        blocks: u32,
        /// Threads per block.
        threads: u32,
    },
    /// The shared-memory bank-conflict ablation probe.
    Conflict {
        /// Access stride in words (1..=64).
        stride: u32,
        /// Loop iterations.
        iterations: u32,
        /// Thread blocks.
        blocks: u32,
        /// Threads per block.
        threads: u32,
    },
    /// One of the Table I benchmarks by suite index (0..12, the order
    /// of [`gpusimpow_kernels::small_benchmarks`]), at its small
    /// (CI-sized) or default workload size.
    Suite {
        /// Index into the suite.
        index: u8,
        /// `true` for the reduced workload sizes.
        small: bool,
    },
    /// A client-captured instruction trace, replayed through the
    /// timing pipeline ([`Gpu::launch_replay`]). The job embeds the
    /// encoded v1 trace verbatim, so the canonical bytes — and hence
    /// the digest — are a content address of the trace itself: the
    /// same capture resubmitted from anywhere hits the same cache
    /// slot, and sweeps replay one capture across presets.
    Trace {
        /// The `gpusimpow-trace` v1 encoding ([`KernelTrace::encode`]).
        bytes: Vec<u8>,
    },
}

/// One `u32` parameter of a probe kernel.
struct Param {
    /// Field name, as the decoder reports a truncated read of it.
    field: &'static str,
    /// What a validation error calls the parameter.
    what: &'static str,
    /// Largest accepted value; the smallest is 1 for every parameter.
    max: u32,
}

impl Param {
    fn check(&self, value: u32) -> Result<(), JobError> {
        if value == 0 || value > self.max {
            return Err(JobError::Invalid(format!(
                "{} must be in 1..={}, got {value}",
                self.what, self.max
            )));
        }
        Ok(())
    }
}

const ITERATIONS: Param = Param {
    field: "iterations",
    what: "iterations",
    max: MAX_ITERATIONS,
};
const LANES: Param = Param {
    field: "lanes",
    what: "enabled lanes",
    max: 32,
};
const BLOCKS: Param = Param {
    field: "blocks",
    what: "blocks",
    max: MAX_BLOCKS,
};
const THREADS: Param = Param {
    field: "threads",
    what: "threads/block",
    max: MAX_THREADS_PER_BLOCK,
};
const DEPTH: Param = Param {
    field: "depth",
    what: "divergence depth",
    max: 5,
};
const STRIDE: Param = Param {
    field: "stride",
    what: "conflict stride",
    max: 64,
};
/// The conflict kernel's shared-memory buffer is sized for one warp
/// (`32 * stride` words); more threads per block would write past it.
const WARP_THREADS: Param = Param {
    field: "threads",
    what: "conflict kernel threads/block",
    max: 32,
};

/// Most parameters a probe has.
const MAX_PARAMS: usize = 4;

/// One row of the probe-kernel table: everything the service knows
/// about a parameterised micro kernel.
struct Probe {
    /// Kernel tag in the canonical encoding.
    tag: u8,
    /// The parameters in wire order, each a `u32` after the tag (at most
    /// [`MAX_PARAMS`]; value arrays are zero past the row's count).
    params: &'static [Param],
    /// The [`KernelSpec`] variant holding these values.
    spec: fn([u32; MAX_PARAMS]) -> KernelSpec,
    /// Builds the kernel and its launch grid.
    launch: fn([u32; MAX_PARAMS]) -> (Kernel, LaunchConfig),
}

static CLUSTER_STEP: Probe = Probe {
    tag: 0,
    params: &[ITERATIONS, BLOCKS, THREADS],
    spec: |[iterations, blocks, threads, _]| KernelSpec::ClusterStep {
        iterations,
        blocks,
        threads,
    },
    launch: |[iterations, blocks, threads, _]| {
        let kernel = micro::cluster_step_kernel(iterations);
        (kernel, LaunchConfig::linear(blocks, threads))
    },
};
static LFSR: Probe = Probe {
    tag: 1,
    params: &[LANES, ITERATIONS, BLOCKS, THREADS],
    spec: |[lanes, iterations, blocks, threads]| KernelSpec::Lfsr {
        lanes,
        iterations,
        blocks,
        threads,
    },
    launch: |[lanes, iterations, blocks, threads]| {
        let kernel = micro::lfsr_kernel(lanes, iterations);
        (kernel, LaunchConfig::linear(blocks, threads))
    },
};
static MANDELBROT: Probe = Probe {
    tag: 2,
    params: &[LANES, ITERATIONS, BLOCKS, THREADS],
    spec: |[lanes, iterations, blocks, threads]| KernelSpec::Mandelbrot {
        lanes,
        iterations,
        blocks,
        threads,
    },
    launch: |[lanes, iterations, blocks, threads]| {
        let kernel = micro::mandelbrot_kernel(lanes, iterations);
        (kernel, LaunchConfig::linear(blocks, threads))
    },
};
static DIVERGENCE: Probe = Probe {
    tag: 3,
    params: &[DEPTH, BLOCKS, THREADS],
    spec: |[depth, blocks, threads, _]| KernelSpec::Divergence {
        depth,
        blocks,
        threads,
    },
    launch: |[depth, blocks, threads, _]| {
        let kernel = micro::divergence_kernel(depth);
        (kernel, LaunchConfig::linear(blocks, threads))
    },
};
static CONFLICT: Probe = Probe {
    tag: 4,
    params: &[STRIDE, ITERATIONS, BLOCKS, WARP_THREADS],
    spec: |[stride, iterations, blocks, threads]| KernelSpec::Conflict {
        stride,
        iterations,
        blocks,
        threads,
    },
    launch: |[stride, iterations, blocks, threads]| {
        let kernel = micro::conflict_kernel(stride, iterations);
        (kernel, LaunchConfig::linear(blocks, threads))
    },
};

/// Which probe kernels exist.
static PROBES: [&Probe; 5] = [&CLUSTER_STEP, &LFSR, &MANDELBROT, &DIVERGENCE, &CONFLICT];

impl Probe {
    fn encode(&self, values: [u32; MAX_PARAMS], w: &mut Writer) {
        w.put_u8(self.tag);
        for (_, value) in self.params.iter().zip(values) {
            w.put_u32(value);
        }
    }

    /// Reads the values after the tag and rebuilds the variant.
    fn decode(&self, r: &mut Reader<'_>) -> Result<KernelSpec, CodecError> {
        let mut values = [0; MAX_PARAMS];
        for (slot, param) in values.iter_mut().zip(self.params) {
            *slot = r.u32(param.field)?;
        }
        Ok((self.spec)(values))
    }

    fn validate(&self, values: [u32; MAX_PARAMS]) -> Result<(), JobError> {
        let mut checks = self.params.iter().zip(values);
        checks.try_for_each(|(param, value)| param.check(value))
    }
}

/// A [`KernelSpec`] as the codec, validator and worker see it: the five
/// probe variants collapse to a table row plus its values.
enum Form<'a> {
    Probe(&'static Probe, [u32; MAX_PARAMS]),
    Suite { index: u8, small: bool },
    Trace(&'a [u8]),
}

impl KernelSpec {
    fn form(&self) -> Form<'_> {
        match *self {
            KernelSpec::ClusterStep {
                iterations,
                blocks,
                threads,
            } => Form::Probe(&CLUSTER_STEP, [iterations, blocks, threads, 0]),
            KernelSpec::Lfsr {
                lanes,
                iterations,
                blocks,
                threads,
            } => Form::Probe(&LFSR, [lanes, iterations, blocks, threads]),
            KernelSpec::Mandelbrot {
                lanes,
                iterations,
                blocks,
                threads,
            } => Form::Probe(&MANDELBROT, [lanes, iterations, blocks, threads]),
            KernelSpec::Divergence {
                depth,
                blocks,
                threads,
            } => Form::Probe(&DIVERGENCE, [depth, blocks, threads, 0]),
            KernelSpec::Conflict {
                stride,
                iterations,
                blocks,
                threads,
            } => Form::Probe(&CONFLICT, [stride, iterations, blocks, threads]),
            KernelSpec::Suite { index, small } => Form::Suite { index, small },
            KernelSpec::Trace { ref bytes } => Form::Trace(bytes),
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self.form() {
            Form::Probe(probe, values) => probe.encode(values, w),
            Form::Suite { index, small } => {
                w.put_u8(5);
                w.put_u8(index);
                w.put_u8(u8::from(small));
            }
            Form::Trace(bytes) => {
                w.put_u8(6);
                w.put_bytes(bytes);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8("kernel tag")?;
        if let Some(probe) = PROBES.iter().find(|p| p.tag == tag) {
            return probe.decode(r);
        }
        Ok(match tag {
            5 => KernelSpec::Suite {
                index: r.u8("suite index")?,
                small: match r.u8("suite size flag")? {
                    0 => false,
                    1 => true,
                    f => {
                        return Err(CodecError::Malformed(format!(
                            "suite size flag must be 0/1, got {f}"
                        )))
                    }
                },
            },
            6 => KernelSpec::Trace {
                bytes: r.bytes("trace bytes")?.to_vec(),
            },
            t => Err(CodecError::Malformed(format!("unknown kernel tag {t}")))?,
        })
    }

    fn validate(&self) -> Result<(), JobError> {
        match self.form() {
            Form::Probe(probe, values) => probe.validate(values),
            Form::Suite { index, .. } => {
                let n = small_benchmarks().len() as u8;
                if index >= n {
                    return Err(JobError::Invalid(format!(
                        "suite index must be < {n}, got {index}"
                    )));
                }
                Ok(())
            }
            Form::Trace(bytes) => {
                if bytes.len() > MAX_TRACE_BYTES {
                    return Err(JobError::Invalid(format!(
                        "trace is {} bytes, cap is {MAX_TRACE_BYTES}",
                        bytes.len()
                    )));
                }
                // Full decode: magic/version, structural bounds, the
                // integrity digest and the geometry checks all run
                // here, so a worker never sees a malformed trace.
                KernelTrace::decode(bytes)
                    .map(|_| ())
                    .map_err(|e| JobError::Invalid(format!("trace rejected: {e}")))
            }
        }
    }
}

/// One power-estimation job: the full canonical tuple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobSpec {
    /// Kernel, parameters and grid dimensions.
    pub kernel: KernelSpec,
    /// GPU configuration preset.
    pub gpu: GpuPreset,
    /// DVFS policy pricing the trace (trace jobs only).
    pub governor: GovernorSpec,
    /// Activity-sampling window in shader cycles; `0` disables the
    /// power trace and returns only whole-launch reports.
    pub window_cycles: u64,
}

impl JobSpec {
    /// Checks the job is inside the service's accepted domain, so a
    /// malformed request turns into an error response instead of a
    /// panicking worker.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] with the offending field.
    pub fn validate(&self) -> Result<(), JobError> {
        self.kernel.validate()
    }

    /// The versioned canonical byte encoding — the digest's preimage
    /// and the wire form of a submitted job.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_header(&JOB_MAGIC, JOB_ENCODING_VERSION);
        w.put_u8(self.gpu.tag());
        self.governor.encode(&mut w);
        w.put_u64(self.window_cycles);
        self.kernel.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a canonical encoding (and validates the job).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] (as [`WireError::Codec`]) on structural
    /// problems and maps [`JobError::Invalid`] domain violations to
    /// [`CodecError::Malformed`].
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, WireError> {
        let mut r = Reader::new(bytes);
        r.header(&JOB_MAGIC, JOB_ENCODING_VERSION)?;
        let gpu = GpuPreset::from_tag(r.u8("gpu tag")?)?;
        let governor = GovernorSpec::decode(&mut r)?;
        let window_cycles = r.u64("window cycles")?;
        let kernel = KernelSpec::decode(&mut r)?;
        r.finish("job encoding")?;
        let spec = JobSpec {
            kernel,
            gpu,
            governor,
            window_cycles,
        };
        spec.validate()
            .map_err(|e| CodecError::Malformed(e.to_string()))?;
        Ok(spec)
    }

    /// The job's content address: the digest of its canonical bytes.
    pub fn digest(&self) -> JobDigest {
        JobDigest::compute(&self.canonical_bytes())
    }
}

/// Upper bound on GPU presets one sweep may expand to. There are only
/// two presets today, but the wire field is a count, so the cap keeps a
/// garbage frame from fanning one request into thousands of jobs.
pub const MAX_SWEEP_GPUS: usize = 64;

/// A one-pass multi-config sweep: one (kernel, governor, window) tuple
/// evaluated across several GPU presets — the design-space-exploration
/// question "what does this kernel cost on *each* of these chips?".
///
/// A sweep is *not* a new cacheable unit. [`SweepSpec::expand`] lowers
/// it server-side into ordinary version-1 [`JobSpec`]s, one per preset
/// in submission order, and those flow through the existing digest /
/// cache / in-flight-dedup pipeline unchanged. A sweep member therefore
/// hits the cache entry an individual submission of the same job would
/// have created, and vice versa.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Kernel, parameters and grid dimensions (shared by every member).
    pub kernel: KernelSpec,
    /// DVFS policy pricing the traces (trace jobs only).
    pub governor: GovernorSpec,
    /// Activity-sampling window in shader cycles; `0` disables traces.
    pub window_cycles: u64,
    /// GPU presets to evaluate, in result order.
    pub gpus: Vec<GpuPreset>,
}

impl SweepSpec {
    /// Checks the sweep is inside the service's accepted domain.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] for an empty or oversized preset
    /// list, or an out-of-domain kernel.
    pub fn validate(&self) -> Result<(), JobError> {
        if self.gpus.is_empty() {
            return Err(JobError::Invalid("sweep lists no GPU presets".to_string()));
        }
        if self.gpus.len() > MAX_SWEEP_GPUS {
            return Err(JobError::Invalid(format!(
                "sweep lists {} GPU presets, cap is {MAX_SWEEP_GPUS}",
                self.gpus.len()
            )));
        }
        self.kernel.validate()
    }

    /// Lowers the sweep into one ordinary [`JobSpec`] per preset, in
    /// the sweep's preset order. Each job's digest is exactly what an
    /// individual submission of that job would produce.
    pub fn expand(&self) -> Vec<JobSpec> {
        self.gpus
            .iter()
            .map(|&gpu| JobSpec {
                kernel: self.kernel.clone(),
                gpu,
                governor: self.governor,
                window_cycles: self.window_cycles,
            })
            .collect()
    }

    /// Encodes the sweep body (protocol use; sweeps are never digested
    /// or cached themselves, so this is not a canonical encoding).
    pub(crate) fn encode(&self, w: &mut Writer) {
        self.governor.encode(w);
        w.put_u64(self.window_cycles);
        self.kernel.encode(w);
        w.put_u32(self.gpus.len() as u32);
        for gpu in &self.gpus {
            w.put_u8(gpu.tag());
        }
    }

    /// Decodes and validates a sweep body.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<SweepSpec, CodecError> {
        let governor = GovernorSpec::decode(r)?;
        let window_cycles = r.u64("sweep window cycles")?;
        let kernel = KernelSpec::decode(r)?;
        let count = r.u32("sweep gpu count")? as usize;
        let mut gpus = Vec::with_capacity(count.min(MAX_SWEEP_GPUS));
        for _ in 0..count {
            gpus.push(GpuPreset::from_tag(r.u8("sweep gpu tag")?)?);
        }
        let sweep = SweepSpec {
            kernel,
            governor,
            window_cycles,
            gpus,
        };
        sweep
            .validate()
            .map_err(|e| CodecError::Malformed(e.to_string()))?;
        Ok(sweep)
    }
}

/// One window of a job's power trace, flattened to wire-friendly
/// scalars (exact `f64` bit patterns on the wire).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Zero-based window index.
    pub index: u64,
    /// Window start relative to launch start (seconds).
    pub start_s: f64,
    /// Window duration at its operating point (seconds).
    pub duration_s: f64,
    /// Chosen operating-point index in the tracer's DVFS table.
    pub op_index: u32,
    /// Core-busy fraction of the window.
    pub utilization: f64,
    /// Chip dynamic power over the window (watts).
    pub dynamic_w: f64,
    /// Chip static power over the window (watts).
    pub static_w: f64,
    /// Off-chip DRAM power over the window (watts).
    pub dram_w: f64,
}

/// A job's power trace under its requested governor.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Kernel name.
    pub kernel: String,
    /// Governor name that priced the trace.
    pub governor: String,
    /// Per-window samples, in window order.
    pub samples: Vec<TraceSample>,
}

/// Everything a completed job returns: one [`ScopedPowerReport`] per
/// kernel launch, plus (for `window_cycles > 0`) one trace per launch.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Per-launch scoped power reports, in launch order.
    pub reports: Vec<ScopedPowerReport>,
    /// Per-launch power traces (empty when the job sampled no windows).
    pub traces: Vec<TraceSummary>,
}

/// Runs one job to completion on a fresh simulator. This is the pure
/// function behind every cache miss; identical specs produce
/// bit-identical results (the workspace determinism contract), which
/// is what makes the digest a content address.
///
/// # Errors
///
/// Returns [`JobError::Invalid`] for out-of-domain specs and
/// [`JobError::Sim`] when the simulator rejects or fails the run.
pub fn run_job(spec: &JobSpec) -> Result<JobResult, JobError> {
    spec.validate()?;
    let cfg = spec.gpu.config();
    let chip = GpuChip::new(&cfg).map_err(|e| JobError::Sim(e.to_string()))?;

    let (launches, recorded) = simulate(spec, cfg)?;
    let reports = launches
        .iter()
        .map(|l| chip.evaluate_scoped(&l.kernel, &l.stats, &l.scoped))
        .collect();

    let traces = if spec.window_cycles > 0 {
        let tracer = PowerTracer::new(chip);
        let mut governor = spec.governor.build();
        recorded
            .iter()
            .map(|launch| summarize(&tracer.replay(launch, governor.as_mut())))
            .collect()
    } else {
        Vec::new()
    };

    Ok(JobResult { reports, traces })
}

/// Runs the spec's kernel(s), returning the launch reports and (when
/// windows were requested) the recorded window streams.
fn simulate(
    spec: &JobSpec,
    cfg: GpuConfig,
) -> Result<(Vec<LaunchReport>, Vec<RecordedLaunch>), JobError> {
    let sim_err = |e: &dyn std::fmt::Display| JobError::Sim(e.to_string());
    let mut gpu = Gpu::new(cfg).map_err(|e| sim_err(&e))?;
    if spec.window_cycles > 0 {
        gpu.attach_sink(spec.window_cycles, Box::new(WindowRecorder::new()));
    }
    let reports = match spec.kernel.form() {
        Form::Suite { index, small } => {
            let mut suite = if small {
                small_benchmarks()
            } else {
                gpusimpow_kernels::all_benchmarks()
            };
            let bench = suite.swap_remove(index as usize);
            bench.run(&mut gpu).map_err(|e| sim_err(&e))?
        }
        Form::Trace(bytes) => {
            // validate() already proved the bytes decode; decode again
            // here rather than thread the parsed trace through, so the
            // worker path stays a pure function of the spec.
            let trace = KernelTrace::decode(bytes)
                .map_err(|e| JobError::Invalid(format!("trace rejected: {e}")))?;
            vec![gpu.launch_replay(&trace).map_err(|e| sim_err(&e))?]
        }
        Form::Probe(probe, values) => {
            let (kernel, launch) = (probe.launch)(values);
            vec![gpu.launch(&kernel, launch).map_err(|e| sim_err(&e))?]
        }
    };
    let recorded = take_recordings(&mut gpu, spec.window_cycles)?;
    Ok((reports, recorded))
}

/// Detaches and downcasts the window recorder attached by
/// [`simulate`]; empty when the job sampled no windows. A missing or
/// foreign sink is an internal invariant break — it surfaces as a
/// typed job failure rather than killing the worker.
fn take_recordings(gpu: &mut Gpu, window_cycles: u64) -> Result<Vec<RecordedLaunch>, JobError> {
    if window_cycles == 0 {
        return Ok(Vec::new());
    }
    let mut sink = gpu
        .detach_sink()
        .ok_or_else(|| JobError::Sim("window recorder missing after launch".into()))?;
    let recorder = sink
        .as_any_mut()
        .ok_or_else(|| JobError::Sim("window sink does not expose Any".into()))?
        .downcast_mut::<WindowRecorder>()
        .ok_or_else(|| JobError::Sim("attached sink is not a WindowRecorder".into()))?;
    Ok(std::mem::take(recorder).into_launches())
}

/// Flattens a [`gpusimpow_pm::PowerTrace`] to wire scalars.
fn summarize(trace: &gpusimpow_pm::PowerTrace) -> TraceSummary {
    TraceSummary {
        kernel: trace.kernel.clone(),
        governor: trace.governor.clone(),
        samples: trace
            .samples
            .iter()
            .map(|s| TraceSample {
                index: s.index,
                start_s: s.start.seconds(),
                duration_s: s.duration.seconds(),
                op_index: s.op_index as u32,
                utilization: s.utilization,
                dynamic_w: s.dynamic_power().watts(),
                static_w: s.static_power.watts(),
                dram_w: s.dram_power.watts(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            kernel: KernelSpec::ClusterStep {
                iterations: 64,
                blocks: 2,
                threads: 64,
            },
            gpu: GpuPreset::Gt240,
            governor: GovernorSpec::Baseline,
            window_cycles: 0,
        }
    }

    #[test]
    fn canonical_encoding_roundtrips() {
        let specs = vec![
            sample_spec(),
            JobSpec {
                kernel: KernelSpec::Lfsr {
                    lanes: 31,
                    iterations: 16,
                    blocks: 4,
                    threads: 128,
                },
                gpu: GpuPreset::Gtx580,
                governor: GovernorSpec::PowerCap { cap_mw: 95_000 },
                window_cycles: 2_000,
            },
            JobSpec {
                kernel: KernelSpec::Suite {
                    index: 11,
                    small: true,
                },
                gpu: GpuPreset::Gt240,
                governor: GovernorSpec::ClusterOndemand,
                window_cycles: 5_000,
            },
        ];
        for spec in specs {
            let bytes = spec.canonical_bytes();
            let back = JobSpec::decode(&bytes).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.digest(), spec.digest());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(JobSpec::decode(b"").is_err());
        assert!(JobSpec::decode(b"NOPE").is_err());
        let mut bytes = sample_spec().canonical_bytes();
        bytes[4] = 0xFF; // version
        assert!(JobSpec::decode(&bytes).is_err());
        let mut bytes = sample_spec().canonical_bytes();
        bytes.push(0); // trailing garbage
        assert!(JobSpec::decode(&bytes).is_err());
    }

    #[test]
    fn validation_rejects_out_of_domain_jobs() {
        let bad = [
            KernelSpec::ClusterStep {
                iterations: 0,
                blocks: 1,
                threads: 32,
            },
            KernelSpec::ClusterStep {
                iterations: 8,
                blocks: 0,
                threads: 32,
            },
            KernelSpec::Lfsr {
                lanes: 33,
                iterations: 8,
                blocks: 1,
                threads: 32,
            },
            KernelSpec::Divergence {
                depth: 6,
                blocks: 1,
                threads: 32,
            },
            KernelSpec::Conflict {
                stride: 65,
                iterations: 8,
                blocks: 1,
                threads: 32,
            },
            KernelSpec::Conflict {
                stride: 4,
                iterations: 8,
                blocks: 1,
                threads: 64,
            },
            KernelSpec::Suite {
                index: 12,
                small: true,
            },
        ];
        for kernel in bad {
            let spec = JobSpec {
                kernel,
                ..sample_spec()
            };
            assert!(
                matches!(spec.validate(), Err(JobError::Invalid(_))),
                "{:?} should be rejected",
                spec.kernel
            );
            // And the decoder refuses the same encoding.
            assert!(JobSpec::decode(&spec.canonical_bytes()).is_err());
        }
    }

    #[test]
    fn every_probe_row_accepts_exactly_its_ranges_and_roundtrips() {
        for probe in PROBES {
            let mut ones = [0; MAX_PARAMS];
            ones[..probe.params.len()].fill(1);
            for (i, param) in probe.params.iter().enumerate() {
                for (value, in_range) in [
                    (1, true),
                    (param.max, true),
                    (0, false),
                    (param.max + 1, false),
                ] {
                    let mut values = ones;
                    values[i] = value;
                    let kernel = (probe.spec)(values);

                    // The variant maps back to its own row, and the
                    // codec is the identity in or out of range.
                    let mut w = Writer::new();
                    kernel.encode(&mut w);
                    let bytes = w.into_bytes();
                    assert_eq!(bytes[0], probe.tag);
                    let mut r = Reader::new(&bytes);
                    assert_eq!(KernelSpec::decode(&mut r).unwrap(), kernel);
                    r.finish("kernel").unwrap();

                    let verdict = kernel.validate();
                    if in_range {
                        assert_eq!(verdict, Ok(()), "{kernel:?}");
                    } else {
                        assert!(
                            matches!(verdict, Err(JobError::Invalid(_))),
                            "{kernel:?} sets {} to {value}",
                            param.field
                        );
                    }
                }
            }
        }
    }

    fn trace_spec() -> JobSpec {
        JobSpec {
            kernel: KernelSpec::Trace {
                bytes: gpusimpow_trace::synth::stride_family(2, 2, 4, 2).encode(),
            },
            gpu: GpuPreset::Gt240,
            governor: GovernorSpec::Baseline,
            window_cycles: 0,
        }
    }

    #[test]
    fn trace_job_roundtrips_and_is_content_addressed() {
        let spec = trace_spec();
        let bytes = spec.canonical_bytes();
        let back = JobSpec::decode(&bytes).unwrap();
        assert_eq!(back, spec);
        // Rebuilding the same capture yields the same digest — the
        // trace bytes, not the submission, are the cache identity.
        assert_eq!(trace_spec().digest(), spec.digest());
    }

    #[test]
    fn trace_job_validation_rejects_corruption_and_oversize() {
        let mut corrupt = trace_spec();
        if let KernelSpec::Trace { ref mut bytes } = corrupt.kernel {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        assert!(matches!(corrupt.validate(), Err(JobError::Invalid(_))));
        assert!(JobSpec::decode(&corrupt.canonical_bytes()).is_err());

        let oversized = JobSpec {
            kernel: KernelSpec::Trace {
                bytes: vec![0; MAX_TRACE_BYTES + 1],
            },
            ..trace_spec()
        };
        assert!(matches!(oversized.validate(), Err(JobError::Invalid(_))));
    }

    #[test]
    fn trace_job_runs_and_repeats_bit_identically() {
        let spec = trace_spec();
        let a = run_job(&spec).unwrap();
        let b = run_job(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.reports.len(), 1);
        assert!(a.reports[0].report.total_power().watts() > 0.0);
    }

    #[test]
    fn sweep_expands_to_per_preset_jobs_with_individual_digests() {
        let sweep = SweepSpec {
            kernel: KernelSpec::ClusterStep {
                iterations: 64,
                blocks: 2,
                threads: 64,
            },
            governor: GovernorSpec::Ondemand,
            window_cycles: 1_000,
            gpus: vec![GpuPreset::Gt240, GpuPreset::Gtx580, GpuPreset::Gt240],
        };
        let jobs = sweep.expand();
        assert_eq!(jobs.len(), 3);
        for (job, &gpu) in jobs.iter().zip(&sweep.gpus) {
            // Each member is exactly the job an individual submission
            // would have built — same canonical bytes, same digest.
            let individual = JobSpec {
                kernel: sweep.kernel.clone(),
                gpu,
                governor: sweep.governor,
                window_cycles: sweep.window_cycles,
            };
            assert_eq!(job, &individual);
            assert_eq!(job.canonical_bytes(), individual.canonical_bytes());
            assert_eq!(job.digest(), individual.digest());
        }
    }

    #[test]
    fn sweep_validation_rejects_out_of_domain_sweeps() {
        let good_kernel = KernelSpec::ClusterStep {
            iterations: 8,
            blocks: 1,
            threads: 32,
        };
        let empty = SweepSpec {
            kernel: good_kernel.clone(),
            governor: GovernorSpec::Baseline,
            window_cycles: 0,
            gpus: Vec::new(),
        };
        assert!(matches!(empty.validate(), Err(JobError::Invalid(_))));
        let oversized = SweepSpec {
            gpus: vec![GpuPreset::Gt240; MAX_SWEEP_GPUS + 1],
            ..empty.clone()
        };
        assert!(matches!(oversized.validate(), Err(JobError::Invalid(_))));
        let bad_kernel = SweepSpec {
            kernel: KernelSpec::Divergence {
                depth: 6,
                blocks: 1,
                threads: 32,
            },
            gpus: vec![GpuPreset::Gt240],
            ..empty
        };
        assert!(matches!(bad_kernel.validate(), Err(JobError::Invalid(_))));
    }

    #[test]
    fn run_job_produces_a_consistent_report() {
        let result = run_job(&sample_spec()).unwrap();
        assert_eq!(result.reports.len(), 1);
        assert!(result.traces.is_empty());
        let report = &result.reports[0];
        assert!(report.report.total_power().watts() > 0.0);
        // Scoped rows reproduce the chip totals (PR 4's invariant).
        let total = report.total().total().watts();
        let chip = report.report.total_power().watts();
        assert!((total - chip).abs() / chip < 1e-9);
    }

    #[test]
    fn run_job_repeats_bit_identically() {
        let spec = sample_spec();
        let a = run_job(&spec).unwrap();
        let b = run_job(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn windowed_job_returns_a_trace() {
        let spec = JobSpec {
            window_cycles: 500,
            governor: GovernorSpec::Ondemand,
            ..sample_spec()
        };
        let result = run_job(&spec).unwrap();
        assert_eq!(result.traces.len(), 1);
        let trace = &result.traces[0];
        assert_eq!(trace.governor, "ondemand");
        assert!(!trace.samples.is_empty());
        // Samples are contiguous in time.
        let mut expect_start = 0.0;
        for s in &trace.samples {
            assert!((s.start_s - expect_start).abs() < 1e-12);
            expect_start += s.duration_s;
        }
    }
}
