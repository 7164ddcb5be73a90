//! The full-chip simulator: cores, NoC, L2, memory controllers, GDDR5 and
//! the global block scheduler.
//!
//! The block scheduler distributes CTAs breadth-first over clusters
//! before filling cores within a cluster — the behaviour the paper
//! observes on real hardware in Fig. 4 ("blocks are distributed first not
//! only to unoccupied cores, but also to unoccupied clusters").

use std::fmt;

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_trace::{KernelTrace, WarpStream};

use crate::config::{ConfigError, GpuConfig};
use crate::core::{Core, DecodedInstr, LaunchCtx, MemRequest};
use crate::events::{ActivityVector, EventKind as Ev};
use crate::mem::{DevicePtr, GpuMemory};
use crate::replay::{Frontend, ReplaySource};
use crate::sink::{ActivitySink, ActivityWindow};
use crate::stats::ActivityStats;
use crate::uncore::{RouteToken, Uncore};

/// Errors surfaced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The GPU configuration is inconsistent.
    Config(ConfigError),
    /// The kernel/launch combination cannot run on this GPU.
    Launch(String),
    /// The watchdog tripped (likely a deadlocked kernel, e.g. a barrier
    /// never reached by all warps).
    Watchdog {
        /// Cycle count at which the simulation was aborted.
        cycles: u64,
    },
    /// A trace could not drive the replay frontend: it was rejected up
    /// front (bad geometry, wrong warp size, invalid kernel image) or
    /// it diverged from the pipeline mid-run (wrong PC, exhausted
    /// stream).
    Replay(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Launch(msg) => write!(f, "launch rejected: {msg}"),
            SimError::Watchdog { cycles } => {
                write!(f, "simulation watchdog tripped after {cycles} cycles")
            }
            SimError::Replay(msg) => write!(f, "trace replay failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Result of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Activity counters for this launch (includes any PCIe transfers
    /// performed since the previous launch).
    pub stats: ActivityStats,
    /// Wall-clock kernel time in seconds at the configured clocks.
    pub time_s: f64,
    /// Scope-resolved registry counters: per-core event vectors plus
    /// per-core/per-cluster busy-cycle accounting. Sums exactly to
    /// `stats` (see [`ScopedActivity::total_vector`]).
    pub scoped: ScopedActivity,
}

/// Scope-resolved activity of one launch — the registry's scope
/// dimension materialised.
///
/// [`crate::events::Scope::Core`] events are recorded into each core's
/// private [`ActivityVector`] on the simulator hot paths and collected
/// here unmerged; [`crate::events::Scope::Chip`] events live in the
/// `chip` vector. Aggregation (per cluster, chip-wide) happens on
/// demand, and conservation is exact in `u64`:
/// `chip + Σ per_core == LaunchReport::stats` counters.
///
/// Busy cycles are tracked alongside: `core_busy[k]` / `cluster_busy[c]`
/// use the same span-multiply fast-forward semantics as the chip-wide
/// `core_busy_cycles` / `cluster_busy_cycles` counters, so
/// `Σ core_busy == core_busy_cycles` and
/// `Σ cluster_busy == cluster_busy_cycles` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopedActivity {
    /// Number of clusters in the simulated chip.
    pub clusters: usize,
    /// Cores per cluster (core `k` belongs to cluster
    /// `k / cores_per_cluster`).
    pub cores_per_cluster: usize,
    /// Per-core event vectors, indexed by chip-wide core id. Only
    /// core-scoped events are non-zero here.
    pub per_core: Vec<ActivityVector>,
    /// Busy cycles per core (cycles with at least one resident CTA).
    pub core_busy: Vec<u64>,
    /// Busy cycles per cluster (cycles with at least one busy core).
    pub cluster_busy: Vec<u64>,
    /// Chip-scoped events (clock domains, NoC/L2/MC/DRAM, PCIe, kernel
    /// launches).
    pub chip: ActivityVector,
}

impl ScopedActivity {
    /// The cluster a chip-wide core id belongs to.
    pub fn cluster_of(&self, core: usize) -> usize {
        core / self.cores_per_cluster
    }

    /// Sum of the event vectors of cluster `c`'s cores.
    pub fn cluster_vector(&self, c: usize) -> ActivityVector {
        let mut sum = ActivityVector::new();
        for (k, vector) in self.per_core.iter().enumerate() {
            if self.cluster_of(k) == c {
                sum += vector;
            }
        }
        sum
    }

    /// Chip-wide total: chip-scoped events plus every core's vector.
    /// Equals the counter fields of the owning
    /// [`LaunchReport::stats`] exactly.
    pub fn total_vector(&self) -> ActivityVector {
        let mut sum = self.chip.clone();
        for vector in &self.per_core {
            sum += vector;
        }
        sum
    }

    /// Busy cycles of cluster `c`'s cores, summed.
    pub fn cluster_core_busy(&self, c: usize) -> u64 {
        self.per_core
            .iter()
            .enumerate()
            .filter(|(k, _)| self.cluster_of(*k) == c)
            .map(|(k, _)| self.core_busy[k])
            .sum()
    }
}

/// The simulated GPU plus its GDDR memory — the "device" a host program
/// allocates on, copies to, and launches kernels on.
///
/// # Examples
///
/// ```
/// use gpusimpow_sim::config::GpuConfig;
/// use gpusimpow_sim::gpu::Gpu;
/// use gpusimpow_isa::{assemble, LaunchConfig};
///
/// let mut gpu = Gpu::new(GpuConfig::gt240())?;
/// let out = gpu.alloc_f32(128);
/// let k = assemble("fill", &format!("
///     s2r r0, tid.x
///     s2r r1, ctaid.x
///     s2r r2, ntid.x
///     imad r3, r1, r2, r0
///     shl r4, r3, #2
///     i2f r5, r3
///     st.global [r4+{}], r5
///     exit
/// ", out.addr())).expect("valid kernel");
/// let report = gpu.launch(&k, LaunchConfig::linear(4, 32))?;
/// assert!(report.stats.shader_cycles > 0);
/// assert_eq!(gpu.d2h_f32(out, 3), vec![0.0, 1.0, 2.0]);
/// # Ok::<(), gpusimpow_sim::gpu::SimError>(())
/// ```
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    cores: Vec<Core>,
    memory: GpuMemory,
    const_base: u32,
    const_capacity: u32,
    pending_h2d: u64,
    pending_d2h: u64,
    watchdog_cycles: u64,
    total_launches: u64,
    attached: Option<SinkSlot>,
    /// Run the dense per-cycle reference loop instead of the accelerated
    /// one (see [`Gpu::set_dense_reference`]).
    dense_reference: bool,
    /// Whether live launches also capture their warp streams.
    tracing: bool,
    /// Traces banked by capture-enabled launches, in launch order.
    captured: Vec<KernelTrace>,
    /// Per-cluster resident-CTA counts, scratch of `dispatch_blocks`.
    cluster_load: Vec<usize>,
}

/// An attached sampling sink plus its window width.
struct SinkSlot {
    window_cycles: u64,
    sink: Box<dyn ActivitySink>,
}

impl fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkSlot")
            .field("window_cycles", &self.window_cycles)
            .finish_non_exhaustive()
    }
}

/// Busy-cycle bookkeeping of one launch. The busy cores are the launch
/// loop's `live` list; the cluster count and flags are cached from the
/// last commit phase. Only a commit changes the busy set, so all of it
/// stays exact across every span charged between two commits. The
/// scoped accumulators use the same span-multiply semantics as the
/// chip-wide busy counters, resolved per core and per cluster.
struct BusyAccount {
    clusters: usize,
    cluster_flags: Vec<bool>,
    core_acc: Vec<u64>,
    cluster_acc: Vec<u64>,
}

impl BusyAccount {
    /// Charges `span` cycles at the cached busy counts. `live` holds
    /// exactly the busy cores (it is pruned in the commit phase and
    /// unchanged between commits).
    fn add_span(&mut self, stats: &mut ActivityVector, live: &[usize], span: u64) {
        stats.add_span(Ev::CoreBusyCycles, live.len() as u64, span);
        stats.add_span(Ev::ClusterBusyCycles, self.clusters as u64, span);
        for &id in live {
            self.core_acc[id] += span;
        }
        // Indexed, not zipped: the zipped form auto-vectorizes, and the
        // vector prologue costs more than the 4–16 clusters it covers
        // (measured: ~2 % of the `trace_sweep` wall time).
        for (c, &busy) in self.cluster_flags.iter().enumerate() {
            if busy {
                self.cluster_acc[c] += span;
            }
        }
    }
}

/// Windowed-sampling state of one launch: the previous cumulative
/// snapshot (the first window's baseline is all-zero so it absorbs the
/// pre-loop PCIe/launch counters), the sampler's previous per-cluster
/// busy snapshot, and within-window concurrency peaks.
struct WindowState {
    last_snapshot: ActivityVector,
    last_cluster_busy: Vec<u64>,
    index: u64,
    start: u64,
    peak_cores: usize,
    peak_clusters: usize,
}

impl WindowState {
    /// Streams the window ending at `cycle` — the delta of the
    /// cumulative `snapshot` against the previous one — and opens the
    /// next window.
    fn emit(
        &mut self,
        sink: &mut dyn ActivitySink,
        snapshot: ActivityVector,
        cluster_busy_acc: &[u64],
        cycle: u64,
    ) {
        let mut delta = ActivityStats::from_vector(&snapshot.delta_from(&self.last_snapshot));
        delta.peak_cores_busy = self.peak_cores;
        delta.peak_clusters_busy = self.peak_clusters;
        let cluster_delta: Vec<u64> = cluster_busy_acc
            .iter()
            .zip(&self.last_cluster_busy)
            .map(|(now, then)| now - then)
            .collect();
        sink.on_window(&ActivityWindow {
            index: self.index,
            start_cycle: self.start,
            end_cycle: cycle,
            stats: delta,
            cluster_busy: cluster_delta,
        });
        self.last_snapshot = snapshot;
        self.last_cluster_busy.copy_from_slice(cluster_busy_acc);
        self.index += 1;
        self.start = cycle;
        self.peak_cores = 0;
        self.peak_clusters = 0;
    }
}

/// Default device-memory size.
const DEFAULT_MEM_BYTES: usize = 256 << 20;

/// Staged constant-bank capacity.
const CONST_CAPACITY: u32 = 64 * 1024;

impl Gpu {
    /// Builds a GPU from a validated configuration with 256 MiB of
    /// device memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is inconsistent.
    pub fn new(config: GpuConfig) -> Result<Self, SimError> {
        Self::with_memory(config, DEFAULT_MEM_BYTES)
    }

    /// Builds a GPU with an explicit device-memory size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is inconsistent.
    pub fn with_memory(config: GpuConfig, mem_bytes: usize) -> Result<Self, SimError> {
        config.validate()?;
        let mut memory = GpuMemory::new(mem_bytes);
        let const_base = memory.alloc(CONST_CAPACITY).addr();
        let cores = (0..config.total_cores())
            .map(|id| Core::new(id, id / config.cores_per_cluster, &config))
            .collect();
        Ok(Gpu {
            cluster_load: vec![0; config.clusters],
            config,
            cores,
            memory,
            const_base,
            const_capacity: CONST_CAPACITY,
            pending_h2d: 0,
            pending_d2h: 0,
            watchdog_cycles: 400_000_000,
            total_launches: 0,
            attached: None,
            dense_reference: false,
            tracing: false,
            captured: Vec::new(),
        })
    }

    /// The configuration this GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Borrow the device memory (host-side verification).
    pub fn memory(&self) -> &GpuMemory {
        &self.memory
    }

    /// Overrides the deadlock watchdog (cycles).
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog_cycles = cycles;
    }

    /// Test-only reference switch: `true` ticks every live core every
    /// shader cycle, runs the commit phase every cycle, advances one
    /// cycle at a time, and keeps every core scanning for issue each
    /// cycle. `false` (the default, and the only mode production code
    /// runs) lets the cycle loop skip what it can prove is a no-op
    /// (DESIGN.md §11):
    ///
    /// * **Per-core wake gating.** After every tick a core is not ticked
    ///   again until the first cycle it could act (`Core::next_wake`), a
    ///   CTA dispatch onto it, or a memory response to it.
    /// * **Batching.** A cycle in which no ticked core buffered a store,
    ///   emitted a memory request, went idle or completed a CTA skips the
    ///   commit phase; on an idle uncore its uncore advance and busy
    ///   charge are deferred and paid in one span.
    /// * **Fast-forward.** When no core is due, the uncore advances
    ///   straight to the earliest wake, memory response or drain,
    ///   clamped to the sampling-window boundary and the watchdog trip.
    /// * **Core-local issue-stall sleep.** A core whose round-robin
    ///   issue scan proved every probe repeats its outcome skips the
    ///   scan until a candidate's unit frees or a new candidate
    ///   appears; the scan's counted scoreboard reads accrue as a rate
    ///   and are credited when the core next ticks, at each window
    ///   snapshot and at the end of the launch (module docs of `core`,
    ///   "Scheduler hints").
    ///
    /// None of these changes results: every counter, window delta and
    /// `time_s` is bit-identical in both modes, which is what the tests
    /// that flip this switch pin (`tests/batched_stepping.rs`,
    /// `tests/core_stage_golden.rs`, `tests/mc_backpressure_golden.rs`,
    /// the fast-forward edge-case suites).
    #[doc(hidden)]
    pub fn set_dense_reference(&mut self, dense: bool) {
        self.dense_reference = dense;
    }

    /// No-op kept for `benchmark/src/workloads/alu_probe.rs:77`, its
    /// only caller: the harness may not change in a non-benchmark PR.
    /// The cores of a launch are always stepped serially; the next
    /// benchmark PR deletes this together with the
    /// `sim.intra_launch_speedup` row (see ROADMAP).
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}

    // --- host API (the cudaMalloc/cudaMemcpy stand-ins) -----------------------

    /// Allocates `bytes` of device memory.
    pub fn alloc(&mut self, bytes: u32) -> DevicePtr {
        self.memory.alloc(bytes)
    }

    /// Allocates `count` 32-bit words.
    pub fn alloc_f32(&mut self, count: u32) -> DevicePtr {
        self.memory.alloc_f32(count)
    }

    /// Copies host data to the device (counted as PCIe traffic).
    pub fn h2d_f32(&mut self, ptr: DevicePtr, data: &[f32]) {
        self.memory.write_f32_slice(ptr, data);
        self.pending_h2d += (data.len() * 4) as u64;
    }

    /// Copies host words to the device (counted as PCIe traffic).
    pub fn h2d_u32(&mut self, ptr: DevicePtr, data: &[u32]) {
        self.memory.write_u32_slice(ptr, data);
        self.pending_h2d += (data.len() * 4) as u64;
    }

    /// Copies device data back to the host (counted as PCIe traffic).
    pub fn d2h_f32(&mut self, ptr: DevicePtr, count: usize) -> Vec<f32> {
        self.pending_d2h += (count * 4) as u64;
        self.memory.read_f32_slice(ptr, count)
    }

    /// Copies device words back to the host (counted as PCIe traffic).
    pub fn d2h_u32(&mut self, ptr: DevicePtr, count: usize) -> Vec<u32> {
        self.pending_d2h += (count * 4) as u64;
        self.memory.read_u32_slice(ptr, count)
    }

    // --- launch -------------------------------------------------------------------

    fn check_launch(&self, kernel: &Kernel, launch: LaunchConfig) -> Result<(), SimError> {
        let cfg = &self.config;
        if kernel.num_regs() as usize > 64 {
            return Err(SimError::Launch(format!(
                "kernel uses {} registers, the simulator models at most 64",
                kernel.num_regs()
            )));
        }
        if launch.threads_per_block() as usize > cfg.max_threads_per_core {
            return Err(SimError::Launch(format!(
                "block of {} threads exceeds the {}-thread core",
                launch.threads_per_block(),
                cfg.max_threads_per_core
            )));
        }
        let smem_avail = cfg.smem_bytes - if cfg.l1_enabled { cfg.l1_bytes } else { 0 };
        if kernel.smem_bytes() as usize > smem_avail {
            return Err(SimError::Launch(format!(
                "kernel needs {} B of shared memory, core provides {smem_avail}",
                kernel.smem_bytes()
            )));
        }
        let warps = launch.warps_per_block(cfg.warp_size as u32) as usize;
        if warps > cfg.max_warps_per_core() {
            return Err(SimError::Launch(format!(
                "block needs {warps} warps, core holds {}",
                cfg.max_warps_per_core()
            )));
        }
        let regs = warps * cfg.warp_size * kernel.num_regs() as usize;
        if regs > cfg.regfile_regs_per_core {
            return Err(SimError::Launch(format!(
                "block needs {regs} registers, core register file holds {}",
                cfg.regfile_regs_per_core
            )));
        }
        if (kernel.const_words().len() * 4) as u32 > self.const_capacity {
            return Err(SimError::Launch(
                "constant bank exceeds the staged segment".to_string(),
            ));
        }
        Ok(())
    }

    /// Runs `kernel` to completion and returns its activity report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Launch`] when the kernel cannot be placed on
    /// this GPU and [`SimError::Watchdog`] if it fails to terminate.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
    ) -> Result<LaunchReport, SimError> {
        self.launch_outer(kernel, launch, None, None)
    }

    /// Runs `kernel` like [`Gpu::launch`], reusing a pre-decoded
    /// instruction table instead of decoding the kernel again.
    ///
    /// `decoded` must come from
    /// [`PredecodedKernel::specialize`](crate::core::PredecodedKernel::specialize)
    /// (or [`DecodedInstr::decode_kernel`]) for *this* GPU's
    /// configuration and *this* kernel; a table of the wrong length is
    /// ignored and the kernel is decoded locally. This is the per-config
    /// entry point of [`SimPool::run_sweep`](crate::SimPool::run_sweep),
    /// which pays the decode cost once for N configurations.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch`].
    pub fn launch_decoded(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        decoded: &[DecodedInstr],
    ) -> Result<LaunchReport, SimError> {
        self.launch_outer(kernel, launch, Some(decoded), None)
    }

    fn launch_outer(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        decoded: Option<&[DecodedInstr]>,
        replay: Option<&ReplaySource<'_>>,
    ) -> Result<LaunchReport, SimError> {
        // Taking the slot lets `launch_impl` borrow the sink and the GPU
        // simultaneously; it is restored afterwards either way.
        let mut slot = self.attached.take();
        let sampling = slot
            .as_mut()
            .map(|s| (s.window_cycles, s.sink.as_mut() as &mut dyn ActivitySink));
        let result = self.launch_impl(kernel, launch, sampling, decoded, replay);
        self.attached = slot;
        result
    }

    // --- trace capture & replay -----------------------------------------------

    /// Enables or disables warp-stream capture for subsequent live
    /// launches. While enabled, every [`Gpu::launch`] /
    /// [`Gpu::launch_decoded`] additionally records the per-warp
    /// instruction, branch-mask and memory-address streams the pipeline
    /// consumes and banks them as a [`KernelTrace`] (drain with
    /// [`Gpu::take_traces`]). Capture never perturbs results: the
    /// recorded run's report is bit-identical to an untraced one.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Drains the traces banked by capture-enabled launches, in launch
    /// order.
    pub fn take_traces(&mut self) -> Vec<KernelTrace> {
        std::mem::take(&mut self.captured)
    }

    /// Runs `kernel` like [`Gpu::launch`] and also returns the captured
    /// trace of the launch. Equivalent to wrapping the launch in
    /// [`Gpu::set_tracing`] and draining [`Gpu::take_traces`].
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch`].
    pub fn launch_traced(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
    ) -> Result<(LaunchReport, KernelTrace), SimError> {
        let prev = self.tracing;
        self.tracing = true;
        let result = self.launch(kernel, launch);
        self.tracing = prev;
        let report = result?;
        let trace = self
            .captured
            .pop()
            .expect("capture banks one trace per successful launch");
        Ok((report, trace))
    }

    /// Replays a captured (or synthesised) trace through the timing
    /// pipeline. The kernel image, launch geometry and PCIe attribution
    /// all come from the trace; the functional value layer is skipped
    /// and the pipeline consumes the recorded streams instead. For a
    /// trace captured on a GPU with the same warp size, the returned
    /// report is bit-identical to the live run on *this* GPU's
    /// configuration (the streams are configuration-independent, so
    /// capture once / replay under many configs is sound — see
    /// [`SimPool::run_sweep_replay`](crate::SimPool::run_sweep_replay)).
    ///
    /// # Errors
    ///
    /// [`SimError::Replay`] when the trace is rejected up front or
    /// diverges from the pipeline mid-run; otherwise as [`Gpu::launch`].
    pub fn launch_replay(&mut self, trace: &KernelTrace) -> Result<LaunchReport, SimError> {
        self.launch_replay_outer(trace, None)
    }

    /// Replays a trace like [`Gpu::launch_replay`], reusing a
    /// pre-decoded instruction table (the sweep entry point; see
    /// [`Gpu::launch_decoded`] for the table contract).
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch_replay`].
    pub fn launch_replay_decoded(
        &mut self,
        trace: &KernelTrace,
        decoded: &[DecodedInstr],
    ) -> Result<LaunchReport, SimError> {
        self.launch_replay_outer(trace, Some(decoded))
    }

    fn launch_replay_outer(
        &mut self,
        trace: &KernelTrace,
        decoded: Option<&[DecodedInstr]>,
    ) -> Result<LaunchReport, SimError> {
        if trace.warp_size != self.config.warp_size as u32 {
            return Err(SimError::Replay(format!(
                "trace was recorded with warp size {}, this GPU runs {}",
                trace.warp_size, self.config.warp_size
            )));
        }
        // Re-validate even though decode() already did: synthesised or
        // hand-built traces arrive here without passing the decoder.
        trace
            .validate()
            .map_err(|e| SimError::Replay(format!("trace rejected: {e}")))?;
        let kernel = trace
            .to_kernel()
            .map_err(|e| SimError::Replay(format!("trace rejected: {e}")))?;
        let launch = trace.launch_config();
        let source = ReplaySource::new(trace);
        self.launch_outer(&kernel, launch, decoded, Some(&source))
    }

    /// Attaches a sampling sink that observes *every* subsequent
    /// [`Gpu::launch`] with the given window width, until
    /// [`Gpu::detach_sink`]. This is how whole benchmark suites (whose
    /// host programs call `launch` internally) are traced without
    /// plumbing a sink through every call site.
    ///
    /// Replaces any previously attached sink.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn attach_sink(&mut self, window_cycles: u64, sink: Box<dyn ActivitySink>) {
        assert!(
            window_cycles > 0,
            "sampling window must be at least one cycle"
        );
        self.attached = Some(SinkSlot {
            window_cycles,
            sink,
        });
    }

    /// Detaches the sink attached with [`Gpu::attach_sink`], returning
    /// it (use [`ActivitySink::as_any_mut`] to recover the concrete
    /// type). Returns `None` when no sink is attached.
    pub fn detach_sink(&mut self) -> Option<Box<dyn ActivitySink>> {
        self.attached.take().map(|slot| slot.sink)
    }

    /// Runs `kernel` like [`Gpu::launch`], additionally streaming an
    /// [`ActivityWindow`] delta to `sink` every `window_cycles` shader
    /// cycles (plus one final, possibly shorter, window at completion).
    ///
    /// The window deltas are exact: their `+=`-sum equals the returned
    /// report's aggregate counters. This is the feed for power tracing
    /// and DVFS governors (see the `gpusimpow-pm` crate).
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch`], plus [`SimError::Launch`] when
    /// `window_cycles` is zero.
    pub fn launch_with_sink(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        window_cycles: u64,
        sink: &mut dyn ActivitySink,
    ) -> Result<LaunchReport, SimError> {
        if window_cycles == 0 {
            return Err(SimError::Launch(
                "sampling window must be at least one cycle".to_string(),
            ));
        }
        self.launch_impl(kernel, launch, Some((window_cycles, sink)), None, None)
    }

    fn launch_impl(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        mut sampling: Option<(u64, &mut dyn ActivitySink)>,
        predecoded: Option<&[DecodedInstr]>,
        replay: Option<&ReplaySource<'_>>,
    ) -> Result<LaunchReport, SimError> {
        self.check_launch(kernel, launch)?;
        // Stage the constant bank into its global-memory segment.
        self.memory
            .write_u32_slice(DevicePtr(self.const_base), kernel.const_words());
        let cfg = self.config.clone();
        // Decode every instruction once per launch — the issue hot path
        // reads metadata from this table instead of re-deriving operand
        // lists and bank conflicts each cycle — unless the caller
        // already shares a table across launches (sweeps).
        let decoded_local;
        let decoded: &[DecodedInstr] = match predecoded {
            Some(d) if d.len() == kernel.code().len() => d,
            _ => {
                decoded_local = DecodedInstr::decode_kernel(kernel, &cfg);
                &decoded_local
            }
        };
        let ctx = LaunchCtx {
            kernel,
            launch,
            const_base: self.const_base,
            const_bytes: (kernel.const_words().len() * 4).max(4) as u32,
            decoded,
            replay,
            dense: self.dense_reference,
        };
        // Arm each core's frontend for this launch: replay when a trace
        // drives it, capture when tracing is enabled, live otherwise.
        let capture = self.tracing && replay.is_none();
        let frontend = if replay.is_some() {
            Frontend::Replay
        } else if capture {
            Frontend::Capture
        } else {
            Frontend::Live
        };
        for core in &mut self.cores {
            core.set_tracer(frontend);
            core.begin_launch();
        }
        // Chip-scoped registry slots; core-scoped events accumulate in
        // each core's private vector and are merged after the loop.
        let mut stats = ActivityVector::new();
        stats[Ev::KernelLaunches] = 1;
        let pending = (
            std::mem::take(&mut self.pending_h2d),
            std::mem::take(&mut self.pending_d2h),
        );
        // A replay takes its PCIe attribution from the trace, *replacing*
        // the pending host transfers so the replayed report matches the
        // capture run regardless of what the host did to this GPU
        // beforehand. A rejected launch never gets here and leaves them
        // pending.
        let (h2d, d2h) = replay.map_or(pending, ReplaySource::pcie_bytes);
        stats[Ev::PcieH2dBytes] = h2d;
        stats[Ev::PcieD2hBytes] = d2h;

        // The event-driven uncore, rebuilt per launch (it must drain
        // before a launch completes anyway).
        let mut uncore = Uncore::new(&cfg);

        let total_blocks = launch.total_blocks();
        let mut next_block: u32 = 0;

        let mut cycle: u64 = 0;
        // Blocks remain and a CTA completed since the last dispatch (or
        // none has run yet): dispatch on the next cycle.
        let mut dispatch_dirty = total_blocks > 0;

        // `next_window_at` is the boundary every span clamps to, which
        // keeps window deltas byte-identical across skipped cycles.
        if let Some((window_cycles, sink)) = &mut sampling {
            sink.on_launch_begin(kernel.name(), *window_cycles);
        }
        let mut next_window_at: u64 = sampling.as_ref().map_or(u64::MAX, |(w, _)| *w);
        // First cycle past the watchdog, the other bound on spans.
        // Saturating: `set_watchdog(u64::MAX)` means "off".
        let watchdog_trip = self.watchdog_cycles.saturating_add(1);
        let mut window = WindowState {
            last_snapshot: ActivityVector::new(),
            last_cluster_busy: vec![0; cfg.clusters],
            index: 0,
            start: 0,
            peak_cores: 0,
            peak_clusters: 0,
        };
        // Whole-launch concurrency peaks (window maxima live in
        // `window.peak_*`); these are not registry events.
        let mut peak_cores: usize = 0;
        let mut peak_clusters: usize = 0;

        // Hoisted per-cycle scratch.
        let mut drained: Vec<MemRequest> = Vec::new();
        let mut responses: Vec<RouteToken> = Vec::new();
        let mut busy = BusyAccount {
            clusters: 0,
            cluster_flags: vec![false; cfg.clusters],
            core_acc: vec![0; self.cores.len()],
            cluster_acc: vec![0; cfg.clusters],
        };
        // Cores with any live state, ascending id. A core outside this
        // list satisfies the tick early-out condition (no CTAs, events
        // or outstanding groups — exactly `!is_busy()`), and nothing but
        // a dispatch can change that, so every per-cycle loop below
        // walks `live` instead of all cores. Rebuilt after each
        // dispatch, pruned during busy accounting; ascending order keeps
        // the commit order identical to the all-cores walk.
        let mut live: Vec<usize> = Vec::with_capacity(self.cores.len());
        // The first cycle at which each core (by id) is due for a tick
        // (DESIGN.md §11): after every tick, `Core::next_wake`; a
        // dispatch onto it or a memory response to it makes it due
        // again at once.
        let mut wake: Vec<u64> = vec![0; self.cores.len()];
        // Cycles already stepped on an idle uncore whose uncore advance
        // and busy charge are not paid yet (see the uncore domain below).
        let mut owed: u64 = 0;
        let dense = self.dense_reference;

        loop {
            // --- global block scheduler ---------------------------------
            // A dispatch changes the busy set, so it forces the commit
            // phase's busy accounting; the dense reference always commits.
            // A dispatch follows the commit that saw a CTA complete, so
            // no cycles are owed here.
            let mut commit = dense || dispatch_dirty;
            if dispatch_dirty {
                next_block = self.dispatch_blocks(&ctx, next_block, total_blocks, &mut wake, cycle);
                dispatch_dirty = false;
                live.clear();
                let cores = &self.cores;
                live.extend((0..cores.len()).filter(|&i| cores[i].is_busy()));
            }

            // --- shader domain: compute phase ----------------------------
            // Cores read the frozen memory snapshot (global stores are
            // buffered per core), so no core's tick can observe
            // another's within the cycle, and a core that is not due
            // would tick to a no-op.
            {
                let Gpu { cores, memory, .. } = &mut *self;
                let mem: &GpuMemory = memory;
                for &id in &live {
                    if wake[id] > cycle {
                        continue;
                    }
                    let core = &mut cores[id];
                    let completed = core.completed_ctas();
                    core.tick(cycle, &cfg, &ctx, mem);
                    wake[id] = if dense {
                        cycle + 1
                    } else {
                        core.next_wake(cycle, &cfg).unwrap_or(u64::MAX)
                    };
                    if core.completed_ctas() != completed {
                        dispatch_dirty |= next_block < total_blocks;
                        commit = true;
                    }
                    commit |= core.has_pending_effects() || !core.is_busy();
                }
            }

            // --- commit phase ----------------------------------------------
            // Skipped unless a ticked core left an effect (the batching
            // predicate): with no buffered store, un-drained request,
            // idle core or completed CTA it is a provable no-op. Buffered
            // stores land in memory and requests enter the NoC in fixed
            // core-id order (`live` is ascending, and dead cores drained
            // their last stores on the cycle they went idle).
            if commit {
                // Pay the owed cycles before the busy set or the uncore's
                // queues can change.
                if owed > 0 {
                    uncore.advance(owed, &mut responses, &mut stats);
                    busy.add_span(&mut stats, &live, owed);
                    owed = 0;
                }
                for &id in &live {
                    self.cores[id].commit_stores(&mut self.memory);
                }
                drained.clear();
                for &id in &live {
                    self.cores[id].drain_requests_into(&mut drained);
                }
                for req in drained.drain(..) {
                    uncore.push_request(req, &mut stats);
                }
                // Busy accounting; prunes cores that went idle this
                // cycle: they cannot wake again without a dispatch
                // (memory responses only ever target cores with
                // outstanding groups, which are busy by definition).
                busy.cluster_flags.fill(false);
                let cores = &self.cores;
                live.retain(|&id| {
                    let core = &cores[id];
                    let is_busy = core.is_busy();
                    if is_busy {
                        busy.cluster_flags[core.cluster()] = true;
                    }
                    is_busy
                });
                busy.clusters = busy.cluster_flags.iter().filter(|b| **b).count();
            }
            peak_cores = peak_cores.max(live.len());
            peak_clusters = peak_clusters.max(busy.clusters);
            window.peak_cores = window.peak_cores.max(live.len());
            window.peak_clusters = window.peak_clusters.max(busy.clusters);

            // --- uncore domain: advance to the next due cycle -------------
            // When no core is due before `due`, the uncore advances
            // straight there (the fast-forward predicate), and
            // `Uncore::advance` hands control back the moment it
            // delivers a response or drains. A pending dispatch, the
            // terminal step and the dense reference take one cycle; the
            // window boundary and the watchdog trip clamp the span. The
            // defensive `max(cycle + 1)` only guarantees progress — each
            // bound is strictly ahead by construction.
            let terminal = next_block >= total_blocks && live.is_empty() && uncore.is_idle();
            let due = if dense || dispatch_dirty || terminal {
                cycle + 1
            } else {
                live.iter().map(|&id| wake[id]).min().unwrap_or(u64::MAX)
            };
            let span = due.min(next_window_at).min(watchdog_trip).max(cycle + 1) - cycle;
            // An idle uncore that nothing was pushed into delivers
            // nothing and cannot drain, and without a commit the busy
            // set is unchanged, so short of a window boundary or the
            // watchdog trip the span's uncore advance and busy charge are
            // owed and paid in one span later.
            if !commit
                && !terminal
                && cycle + span < next_window_at.min(watchdog_trip)
                && uncore.is_idle()
            {
                owed += span;
                cycle += span;
                continue;
            }
            let consumed = uncore.advance(owed + span, &mut responses, &mut stats) - owed;
            busy.add_span(&mut stats, &live, owed + consumed);
            owed = 0;

            // Responses belong to the last consumed shader cycle; the
            // cores they reach are due on the next.
            cycle += consumed;
            for token in responses.drain(..) {
                self.cores[token.core].mem_response(token.addr, cycle - 1, &ctx);
                wake[token.core] = cycle;
            }

            if let Some((window_cycles, sink)) = &mut sampling {
                if cycle == next_window_at {
                    let snapshot = Self::snapshot_running(
                        &stats,
                        &mut self.cores,
                        cycle,
                        uncore.uncore_cycles(),
                        uncore.dram_cycles(),
                    );
                    window.emit(&mut **sink, snapshot, &busy.cluster_acc, cycle);
                    next_window_at += *window_cycles;
                }
            }

            // --- termination ------------------------------------------------
            // `live` only shrinks in a commit, and `Uncore::advance`
            // returns on drain, so this check is exact after every span.
            if next_block >= total_blocks && live.is_empty() && uncore.is_idle() {
                break;
            }
            if cycle > self.watchdog_cycles {
                return Err(SimError::Watchdog { cycles: cycle });
            }
        }

        stats[Ev::ShaderCycles] = cycle;
        stats[Ev::UncoreCycles] = uncore.uncore_cycles();
        stats[Ev::DramCycles] = uncore.dram_cycles();
        // `stats` holds exactly the chip-scoped events here; keep that
        // as the scope-resolved chip vector before merging the cores.
        let chip_vector = stats.clone();
        let mut per_core: Vec<ActivityVector> = Vec::with_capacity(self.cores.len());
        for core in &mut self.cores {
            core.settle_stall_reads(cycle);
            let core_stats = std::mem::take(&mut core.stats);
            stats += &core_stats;
            per_core.push(core_stats);
        }
        if replay.is_some() {
            // A desync means the trace did not describe this kernel; the
            // run completed (replay substitutes benign values) but its
            // numbers are meaningless, so surface the divergence instead.
            for core in &mut self.cores {
                if let Some(msg) = core.take_replay_desync() {
                    return Err(SimError::Replay(msg));
                }
            }
        } else if capture {
            let mut streams: Vec<WarpStream> = Vec::new();
            for core in &mut self.cores {
                streams.extend(
                    core.take_captured_warps()
                        .into_iter()
                        .map(crate::replay::WarpCapture::into_stream),
                );
            }
            // Canonical stream order — capture collects in per-core
            // retirement order, which is not stable across configs.
            streams.sort_by_key(|s| (s.block_y, s.block_x, s.warp));
            self.captured.push(KernelTrace {
                name: kernel.name().to_string(),
                code: kernel.code().to_vec(),
                num_regs: kernel.num_regs(),
                smem_bytes: kernel.smem_bytes(),
                const_words: kernel.const_words().to_vec(),
                grid_x: launch.grid.x,
                grid_y: launch.grid.y,
                block_x: launch.block.x,
                block_y: launch.block.y,
                warp_size: cfg.warp_size as u32,
                h2d_bytes: stats[Ev::PcieH2dBytes],
                d2h_bytes: stats[Ev::PcieD2hBytes],
                streams,
            });
        }
        self.total_launches += 1;
        let time_s = cycle as f64 / (self.config.shader_mhz() * 1e6);
        // Final (possibly partial) window: the finalized aggregate is
        // exactly the snapshot at `cycle`, so delta it directly.
        if let Some((_, sink)) = &mut sampling {
            if cycle > window.start {
                window.emit(&mut **sink, stats.clone(), &busy.cluster_acc, cycle);
            }
        }
        let mut report_stats = ActivityStats::from_vector(&stats);
        report_stats.peak_cores_busy = peak_cores;
        report_stats.peak_clusters_busy = peak_clusters;
        let report = LaunchReport {
            kernel: kernel.name().to_string(),
            stats: report_stats,
            time_s,
            scoped: ScopedActivity {
                clusters: cfg.clusters,
                cores_per_cluster: cfg.cores_per_cluster,
                per_core,
                core_busy: busy.core_acc,
                cluster_busy: busy.cluster_acc,
                chip: chip_vector,
            },
        };
        if let Some((_, sink)) = &mut sampling {
            sink.on_launch_end(&report);
        }
        Ok(report)
    }

    /// Cumulative counter snapshot mid-launch, assembled the same way the
    /// final report is: running globals + time counters + per-core stats,
    /// with every issue-stall sleep's reads settled up to `cycle`.
    fn snapshot_running(
        stats: &ActivityVector,
        cores: &mut [Core],
        cycle: u64,
        uncore_cycle: u64,
        dram_cycle: u64,
    ) -> ActivityVector {
        let mut snap = stats.clone();
        snap[Ev::ShaderCycles] = cycle;
        snap[Ev::UncoreCycles] = uncore_cycle;
        snap[Ev::DramCycles] = dram_cycle;
        for core in cores {
            core.settle_stall_reads(cycle);
            snap += &core.stats;
        }
        snap
    }

    /// Breadth-first CTA placement over clusters, then cores. Every core
    /// that receives a CTA is due at `cycle`.
    fn dispatch_blocks(
        &mut self,
        ctx: &LaunchCtx<'_>,
        mut next: u32,
        total: u32,
        wake: &mut [u64],
        cycle: u64,
    ) -> u32 {
        let cfg = &self.config;
        let cluster_load = &mut self.cluster_load;
        while next < total {
            cluster_load.fill(0);
            for core in &self.cores {
                cluster_load[core.cluster()] += core.resident_ctas();
            }
            let candidate = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.can_accept(cfg, ctx))
                .min_by_key(|(id, c)| (cluster_load[c.cluster()], c.resident_ctas(), *id))
                .map(|(id, _)| id);
            let Some(core_id) = candidate else { break };
            let bx = next % ctx.launch.grid.x;
            let by = next / ctx.launch.grid.x;
            self.cores[core_id].dispatch_cta(cfg, ctx, bx, by);
            wake[core_id] = cycle;
            next += 1;
        }
        next
    }
}
