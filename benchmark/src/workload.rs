//! What every workload shares: the run context, what one pass reports,
//! the simulator-side counters a pass accumulates, and the trait the
//! run loop drives.

use std::collections::BTreeMap;

use gpusimpow_sim::{Gpu, GpuConfig, LaunchReport};

use crate::span::Tracer;

/// Per-run settings handed to every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: the testbed seed of `suite_live`, the governor
    /// draw and submit order of `serve_cold`, the request order of
    /// `serve_warm`. The programs under test see only generated inputs.
    pub seed: u64,
    /// The thread cap `T` (see [`crate::host::thread_cap`]).
    pub threads: usize,
    /// Shrunken sizes for the harness self-tests (not a measurement).
    pub smoke: bool,
    /// Self-test hook: flip a byte in some served payloads before the
    /// output check, to prove the check is live.
    pub corrupt_payloads: bool,
}

impl Ctx {
    /// `full` normally, `small` under `--smoke`.
    pub fn size(&self, full: u32, small: u32) -> u32 {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// Both Table II presets, in the order every workload visits them.
pub fn presets() -> [GpuConfig; 2] {
    [GpuConfig::gt240(), GpuConfig::gtx580()]
}

/// A fresh simulator for `cfg`.
///
/// # Panics
///
/// Panics if a stock preset is rejected — a broken build, not a
/// workload failure.
pub fn new_gpu(cfg: &GpuConfig) -> Gpu {
    Gpu::new(cfg.clone()).expect("stock presets are valid configurations")
}

/// Simulator-side counters summed over the launches of a pass. All are
/// exact event counts; a speed-only change must leave them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Activity {
    /// Simulated shader cycles.
    pub shader_cycles: u64,
    /// Warp instructions issued.
    pub warp_instrs: u64,
    /// Memory instructions among them.
    pub mem_instrs: u64,
    /// L1 accesses / misses.
    pub l1_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM read + write bursts.
    pub dram_bursts: u64,
    /// NoC flits.
    pub noc_flits: u64,
    /// Σ busy cycles over cores.
    pub core_busy_cycles: u64,
    /// Σ shader cycles × cores of the chip (the denominator of the busy
    /// fraction).
    pub core_cycle_capacity: u64,
}

impl Activity {
    /// Adds one launch on a chip described by `cfg`.
    pub fn add(&mut self, cfg: &GpuConfig, report: &LaunchReport) {
        let s = &report.stats;
        self.shader_cycles += s.shader_cycles;
        self.warp_instrs += s.warp_instructions;
        self.mem_instrs += s.mem_instructions;
        self.l1_accesses += s.l1_accesses;
        self.l1_misses += s.l1_misses;
        self.l2_accesses += s.l2_accesses;
        self.l2_misses += s.l2_misses;
        self.dram_bursts += s.dram_read_bursts + s.dram_write_bursts;
        self.noc_flits += s.noc_flits;
        self.core_busy_cycles += s.core_busy_cycles;
        self.core_cycle_capacity += s.shader_cycles * cfg.total_cores() as u64;
    }
}

/// The bytes of every output that must repeat bit for bit from pass to
/// pass (a few dozen KB at most), compared whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint(Vec<u8>);

impl Fingerprint {
    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Appends one counter.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a float by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends everything a launch reports: every registry counter,
    /// the simulated time's bits and the scoped busy accounting.
    pub fn launch(&mut self, report: &LaunchReport) {
        self.bytes(report.kernel.as_bytes());
        for &v in report.stats.to_vector().values() {
            self.u64(v);
        }
        self.f64(report.time_s);
        for &v in report
            .scoped
            .core_busy
            .iter()
            .chain(&report.scoped.cluster_busy)
        {
            self.u64(v);
        }
    }
}

/// What one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the pass, seconds. A closed loop sets it to its
    /// loop's wall (server start and stop stay outside); for a serial
    /// workload the run loop fills it in.
    pub wall_s: f64,
    /// Latency of each operation of the pass, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Simulated shader cycles in the results the pass delivered.
    pub sim_cycles: u64,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The outputs that must be identical in every pass.
    pub fingerprint: Fingerprint,
    /// Counters of the launches the harness could see (zero when the
    /// results crossed the service and carry no counters).
    pub activity: Activity,
}

impl Pass {
    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("output check failed: {}", what());
        }
    }
}

/// Per-layer values a workload sets by name. Names outside the table in
/// [`crate::spec::PER_LAYER`] are rejected when the record is built.
pub type Layer = BTreeMap<&'static str, f64>;

/// One of the six workloads.
pub trait Workload: Sized {
    /// Builds inputs, captures, servers and prefills. Timed as
    /// `setup_s`; called several times per run (the earlier values are
    /// dropped first), so it must be self-contained.
    fn setup(ctx: &Ctx) -> Self;

    /// Runs one pass of fixed work. With an enabled tracer the same
    /// calls are wrapped in spans.
    fn pass(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Pass;

    /// Traced runs only: the stage-by-stage path and the layer probes.
    /// Spans recorded here land under the `ledger` root and are scaled
    /// by the returned factor to "seconds per pass"; everything else is
    /// set in `layer` directly.
    fn ledger(&mut self, ctx: &Ctx, tr: &mut Tracer, layer: &mut Layer) -> f64;

    /// Free-text lines for the human reader and the results file.
    fn notes(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Whether a pass's operations overlap in time: a closed loop of
    /// `T` clients, whose pass reports its own loop wall time. In the
    /// serial workloads a pass's wall time is the sum of its operations.
    const CLOSED_LOOP: bool = false;
}
