//! GPU architecture configuration.
//!
//! GPUSimPow exposes "the key parameters of the simulated architecture …
//! using a simple XML-based interface" so architects can explore the design
//! space (paper §III-A). This struct is that interface in Rust form; the
//! facade crate additionally parses a plain-text config-file format.
//!
//! Two presets mirror Table II of the paper: [`GpuConfig::gt240`]
//! (GT215/Tesla) and [`GpuConfig::gtx580`] (GF110/Fermi).

use std::fmt;

/// L2 cache configuration (absent on the GT240).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Uncore-cycle hit latency.
    pub latency: u32,
}

/// GDDR5 timing and geometry (per channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent banks per channel.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: usize,
    /// Activate-to-read delay (tRCD) in command-clock cycles.
    pub t_rcd: u32,
    /// Precharge delay (tRP) in command-clock cycles.
    pub t_rp: u32,
    /// Column access latency (CL) in command-clock cycles.
    pub t_cas: u32,
    /// Activate-to-activate (same bank) delay (tRC) in command cycles.
    pub t_rc: u32,
    /// Command cycles the data bus is busy per 32-byte burst.
    pub burst_cycles: u32,
    /// Average refresh interval (tREFI) in command cycles.
    pub t_refi: u32,
    /// Refresh cycle time (tRFC) in command cycles.
    pub t_rfc: u32,
}

impl DramConfig {
    /// Hynix-datasheet-flavoured GDDR5 timings (paper reference \[27\]).
    pub fn gddr5() -> Self {
        DramConfig {
            banks: 16,
            row_bytes: 2048,
            t_rcd: 12,
            t_rp: 12,
            t_cas: 15,
            t_rc: 40,
            burst_cycles: 2,
            t_refi: 3900,
            t_rfc: 110,
        }
    }
}

/// Warp-scheduling policy of the issue stage.
///
/// The paper's baseline is a rotating-priority (round-robin) scheduler;
/// its conclusion names two-level scheduling (Narasiman et al., MICRO
/// 2011, paper ref. \[32\]) as interesting future work "from a power
/// perspective" — implemented here as an optional policy: only a small
/// *active set* of warps is considered for issue, and warps that stall
/// on memory are swapped out for pending ones. The issue scheduler's
/// priority encoder then only spans the active set, which the power
/// model credits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpSchedPolicy {
    /// Rotating priority over all resident warps (the paper's baseline).
    RoundRobin,
    /// Two-level scheduling with the given active-set size.
    TwoLevel {
        /// Warps considered for issue at any time.
        active_warps: usize,
    },
}

/// Errors found by [`GpuConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid gpu configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Complete description of a simulated GPU.
///
/// All fields are public: this is a passive parameter record, meant to be
/// tweaked for design-space exploration. Call [`GpuConfig::validate`]
/// before simulating (the simulator does so on construction).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name for reports ("GT240", …).
    pub name: String,

    // --- chip organisation -------------------------------------------------
    /// Core clusters (TPCs on Tesla, GPCs on Fermi).
    pub clusters: usize,
    /// SIMT cores per cluster.
    pub cores_per_cluster: usize,

    // --- per-core front end -------------------------------------------------
    /// Threads per warp (32 on all modelled GPUs).
    pub warp_size: usize,
    /// Maximum resident threads per core (Table II: 768 / 1536).
    pub max_threads_per_core: usize,
    /// Maximum resident CTAs per core.
    pub max_ctas_per_core: usize,
    /// Warp instructions issued per cycle (1 Tesla, 2 Fermi).
    pub issue_width: usize,
    /// Issue-stage warp-scheduling policy.
    pub warp_scheduler: WarpSchedPolicy,
    /// Whether register dependencies use a scoreboard (Fermi) or
    /// barrel-blocking (Tesla): Table II "Scoreboard" row.
    pub scoreboard: bool,
    /// Instruction cache capacity in bytes.
    pub icache_bytes: usize,

    // --- register file -------------------------------------------------------
    /// 32-bit registers per core.
    pub regfile_regs_per_core: usize,
    /// Single-ported register banks per core.
    pub regfile_banks: usize,
    /// Operand collector units per core.
    pub operand_collectors: usize,

    // --- execution units ------------------------------------------------------
    /// SIMD lanes per core (Table II "#FUs per core": 8 / 32).
    pub simd_width: usize,
    /// Special-function units per core.
    pub sfu_count: usize,
    /// Integer pipeline latency in shader cycles.
    pub int_latency: u32,
    /// Floating-point pipeline latency in shader cycles.
    pub fp_latency: u32,
    /// SFU operation latency in shader cycles.
    pub sfu_latency: u32,

    // --- memory hierarchy -------------------------------------------------------
    /// Unified SMEM/L1 physical storage per core, in bytes.
    pub smem_bytes: usize,
    /// Shared-memory banks.
    pub smem_banks: usize,
    /// Shared-memory access latency in shader cycles.
    pub smem_latency: u32,
    /// Whether global accesses are cached in an L1 (Fermi yes, Tesla no).
    pub l1_enabled: bool,
    /// L1 capacity in bytes (portion of the unified storage).
    pub l1_bytes: usize,
    /// L1 line size in bytes.
    pub l1_line_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in shader cycles.
    pub l1_latency: u32,
    /// Per-core constant cache capacity in bytes.
    pub const_cache_bytes: usize,
    /// Constant-cache hit latency in shader cycles.
    pub const_latency: u32,
    /// Sub-AGUs per core, each generating 8 addresses per cycle
    /// (Galuzzi et al., paper reference \[22\]).
    pub sagu_count: usize,
    /// Chip-level L2, if present.
    pub l2: Option<L2Config>,

    // --- uncore --------------------------------------------------------------
    /// NoC one-way latency in uncore cycles.
    pub noc_latency: u32,
    /// NoC flit size in bytes.
    pub noc_flit_bytes: usize,
    /// Flits the NoC can accept per uncore cycle, each direction.
    pub noc_bandwidth_flits: usize,
    /// Memory channels (each a 32-bit GDDR5 device pair).
    pub mem_channels: usize,
    /// Memory-controller queue depth per channel.
    pub mc_queue_depth: usize,
    /// DRAM timing.
    pub dram: DramConfig,

    // --- clocks ----------------------------------------------------------------
    /// Uncore clock in MHz (Table II).
    pub uncore_mhz: f64,
    /// Shader-to-uncore ratio (Table II).
    pub shader_ratio: f64,
    /// DRAM command clock in MHz.
    pub dram_mhz: f64,

    // --- process ---------------------------------------------------------------
    /// Manufacturing node in nm (both paper GPUs: 40).
    pub process_nm: u32,
    /// Junction temperature in kelvin under load (drives leakage; a
    /// low-end card runs cooler than a 300 W enthusiast part).
    pub junction_temp_k: f64,
}

impl GpuConfig {
    /// The GeForce GT240 (GT215, Tesla-class) preset of Table II.
    pub fn gt240() -> Self {
        GpuConfig {
            name: "GT240".to_string(),
            clusters: 4,
            cores_per_cluster: 3,
            warp_size: 32,
            max_threads_per_core: 768,
            max_ctas_per_core: 8,
            issue_width: 1,
            warp_scheduler: WarpSchedPolicy::RoundRobin,
            scoreboard: false,
            icache_bytes: 4 * 1024,
            regfile_regs_per_core: 16 * 1024,
            regfile_banks: 16,
            operand_collectors: 4,
            simd_width: 8,
            sfu_count: 2,
            int_latency: 10,
            fp_latency: 10,
            sfu_latency: 20,
            smem_bytes: 16 * 1024,
            smem_banks: 16,
            smem_latency: 24,
            l1_enabled: false,
            l1_bytes: 0,
            l1_line_bytes: 128,
            l1_ways: 4,
            l1_latency: 28,
            const_cache_bytes: 8 * 1024,
            const_latency: 8,
            sagu_count: 4,
            l2: None,
            noc_latency: 8,
            noc_flit_bytes: 32,
            noc_bandwidth_flits: 8,
            mem_channels: 2,
            mc_queue_depth: 16,
            dram: DramConfig::gddr5(),
            uncore_mhz: 550.0,
            shader_ratio: 2.47,
            dram_mhz: 850.0,
            process_nm: 40,
            junction_temp_k: 350.0,
        }
    }

    /// The GeForce GTX580 (GF110, Fermi-class) preset of Table II.
    pub fn gtx580() -> Self {
        GpuConfig {
            name: "GTX580".to_string(),
            clusters: 4,
            cores_per_cluster: 4,
            warp_size: 32,
            max_threads_per_core: 1536,
            max_ctas_per_core: 8,
            issue_width: 2,
            warp_scheduler: WarpSchedPolicy::RoundRobin,
            scoreboard: true,
            icache_bytes: 8 * 1024,
            regfile_regs_per_core: 32 * 1024,
            regfile_banks: 16,
            operand_collectors: 6,
            simd_width: 32,
            sfu_count: 4,
            int_latency: 10,
            fp_latency: 10,
            sfu_latency: 20,
            smem_bytes: 64 * 1024,
            smem_banks: 32,
            smem_latency: 24,
            l1_enabled: true,
            l1_bytes: 16 * 1024,
            l1_line_bytes: 128,
            l1_ways: 4,
            l1_latency: 28,
            const_cache_bytes: 8 * 1024,
            const_latency: 8,
            sagu_count: 4,
            l2: Some(L2Config {
                capacity_bytes: 768 * 1024,
                line_bytes: 128,
                ways: 8,
                latency: 20,
            }),
            noc_latency: 8,
            noc_flit_bytes: 32,
            noc_bandwidth_flits: 16,
            mem_channels: 6,
            mc_queue_depth: 32,
            dram: DramConfig::gddr5(),
            uncore_mhz: 882.0,
            shader_ratio: 2.0,
            dram_mhz: 1002.0,
            process_nm: 40,
            junction_temp_k: 372.0,
        }
    }

    /// Total SIMT cores on the chip.
    pub fn total_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }

    /// Maximum resident warps per core.
    pub fn max_warps_per_core(&self) -> usize {
        self.max_threads_per_core / self.warp_size
    }

    /// Shader clock in MHz.
    pub fn shader_mhz(&self) -> f64 {
        self.uncore_mhz * self.shader_ratio
    }

    /// Width of the issue-stage warp selector (the whole warp pool for
    /// round-robin, the active set for two-level scheduling).
    pub fn issue_scheduler_width(&self) -> usize {
        match self.warp_scheduler {
            WarpSchedPolicy::RoundRobin => self.max_warps_per_core(),
            WarpSchedPolicy::TwoLevel { active_warps } => {
                active_warps.min(self.max_warps_per_core())
            }
        }
    }

    /// Checks internal consistency. This is the whole gate: a
    /// configuration it accepts builds ([`crate::Gpu::new`] cannot
    /// panic on it) and every launch on it makes progress.
    ///
    /// A core holds 1 ..= 64 warps. Clocks must lie in 1 MHz ..= 100 GHz
    /// and the shader ratio in 1 ..= 64; every cache needs a power-of-two
    /// line size, at least one way, and a non-zero capacity that is a
    /// multiple of line size × ways.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bail = |msg: &str| Err(ConfigError(msg.to_string()));
        let cache = |field: &str, capacity: usize, line: usize, ways: usize| {
            if !line.is_power_of_two() || u32::try_from(line).is_err() {
                return bail(&format!("{field}: line size must be a power of two"));
            }
            if ways == 0 {
                return bail(&format!("{field}: cache needs at least one way"));
            }
            let set_bytes = line.checked_mul(ways);
            if capacity == 0 || !set_bytes.is_some_and(|set| capacity.is_multiple_of(set)) {
                return bail(&format!(
                    "{field}: capacity must be a non-zero multiple of \
                     line size x ways ({line} B x {ways})"
                ));
            }
            Ok(())
        };
        if self.clusters == 0 || self.cores_per_cluster == 0 {
            return bail("chip must have at least one core");
        }
        if self.warp_size == 0 || self.warp_size > 64 {
            return bail("warp size must be in 1..=64");
        }
        if !self.max_threads_per_core.is_multiple_of(self.warp_size) {
            return bail("max threads per core must be a warp multiple");
        }
        // The scheduler-hint masks hold one bit per warp slot in a `u64`;
        // no real SM has more slots (gpucachesim: `MAX_WARP_PER_SM`).
        if !(1..=64).contains(&self.max_warps_per_core()) {
            return bail("max_threads_per_core must hold 1..=64 warps");
        }
        if self.simd_width == 0 || !self.warp_size.is_multiple_of(self.simd_width) {
            return bail("simd width must divide the warp size");
        }
        if self.regfile_banks == 0 || self.operand_collectors == 0 {
            return bail("register file needs banks and collectors");
        }
        if self.smem_banks == 0 || !self.smem_banks.is_power_of_two() {
            return bail("shared memory banks must be a power of two");
        }
        // The i-cache and the constant cache are 4-way with 64 B lines.
        cache("icache_bytes", self.icache_bytes, 64, 4)?;
        cache("const_cache_bytes", self.const_cache_bytes, 64, 4)?;
        if self.l1_enabled {
            cache("l1_bytes", self.l1_bytes, self.l1_line_bytes, self.l1_ways)?;
        }
        if let Some(l2) = self.l2 {
            cache("l2", l2.capacity_bytes, l2.line_bytes, l2.ways)?;
        }
        // L1 carves out of the unified storage; allow equality.
        if self.l1_enabled && self.l1_bytes > self.smem_bytes {
            return bail("l1 cannot exceed the unified smem/l1 storage");
        }
        if self.mem_channels == 0 {
            return bail("chip needs at least one memory channel");
        }
        if self.sagu_count == 0 {
            return bail("ldst unit needs at least one sub-agu");
        }
        // Range tests rather than comparisons, so NaN is rejected too.
        for (field, mhz) in [("uncore_mhz", self.uncore_mhz), ("dram_mhz", self.dram_mhz)] {
            if !(1.0..=100_000.0).contains(&mhz) {
                return bail(&format!("{field} must be in 1..=100000 MHz"));
            }
        }
        if !(1.0..=64.0).contains(&self.shader_ratio) {
            return bail("shader_ratio must be in 1..=64");
        }
        for (field, count) in [
            ("issue_width", self.issue_width),
            ("max_ctas_per_core", self.max_ctas_per_core),
            ("noc_bandwidth_flits", self.noc_bandwidth_flits),
            ("mc_queue_depth", self.mc_queue_depth),
            ("dram.banks", self.dram.banks),
            ("dram.row_bytes", self.dram.row_bytes),
            ("dram.t_refi", self.dram.t_refi as usize),
        ] {
            if count == 0 {
                return bail(&format!("{field} must be at least 1"));
            }
        }
        if !(233.0..=423.0).contains(&self.junction_temp_k) {
            return bail("junction temperature outside [233, 423] K");
        }
        if let WarpSchedPolicy::TwoLevel { active_warps } = self.warp_scheduler {
            if active_warps == 0 || active_warps > self.max_warps_per_core() {
                return bail("two-level active set must be in 1..=max warps");
            }
        }
        Ok(())
    }
}

impl fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cores ({} clusters x {}), {} threads/core, {}-wide SIMD, {:.0}/{:.0} MHz",
            self.name,
            self.total_cores(),
            self.clusters,
            self.cores_per_cluster,
            self.max_threads_per_core,
            self.simd_width,
            self.shader_mhz(),
            self.uncore_mhz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_ii() {
        let gt = GpuConfig::gt240();
        assert_eq!(gt.total_cores(), 12);
        assert_eq!(gt.max_warps_per_core(), 24);
        assert_eq!(gt.simd_width, 8);
        assert!(!gt.scoreboard);
        assert!(gt.l2.is_none());
        assert!((gt.shader_ratio - 2.47).abs() < 1e-12);

        let gtx = GpuConfig::gtx580();
        assert_eq!(gtx.total_cores(), 16);
        assert_eq!(gtx.max_warps_per_core(), 48);
        assert_eq!(gtx.simd_width, 32);
        assert!(gtx.scoreboard);
        assert_eq!(gtx.l2.unwrap().capacity_bytes, 768 * 1024);
        assert!((gtx.shader_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn presets_validate() {
        GpuConfig::gt240().validate().unwrap();
        GpuConfig::gtx580().validate().unwrap();
    }

    #[test]
    fn invalid_simd_width_rejected() {
        let mut cfg = GpuConfig::gt240();
        cfg.simd_width = 12; // does not divide 32
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_power_of_two_smem_banks_rejected() {
        let mut cfg = GpuConfig::gt240();
        cfg.smem_banks = 12;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn everything_gpu_new_or_a_launch_would_choke_on_is_rejected_by_name() {
        // Each of these passed `validate()` before it became the gate
        // and then panicked in `Gpu::new`, ran into the watchdog, or
        // (clock ratios) did not return at all.
        type Case = (&'static str, fn() -> GpuConfig, fn(&mut GpuConfig));
        let cases: &[Case] = &[
            ("noc_bandwidth_flits", GpuConfig::gt240, |c| {
                c.noc_bandwidth_flits = 0
            }),
            ("icache_bytes", GpuConfig::gt240, |c| c.icache_bytes = 0),
            ("icache_bytes", GpuConfig::gt240, |c| {
                c.icache_bytes = 4096 + 64
            }),
            ("const_cache_bytes", GpuConfig::gt240, |c| {
                c.const_cache_bytes = 0
            }),
            ("l1_bytes", GpuConfig::gtx580, |c| c.l1_bytes = 0),
            ("l1_bytes", GpuConfig::gtx580, |c| c.l1_line_bytes = 0),
            ("l1_bytes", GpuConfig::gtx580, |c| c.l1_line_bytes = 96),
            ("l1_bytes", GpuConfig::gtx580, |c| c.l1_ways = 0),
            ("l1_bytes", GpuConfig::gtx580, |c| c.l1_ways = usize::MAX),
            ("l2", GpuConfig::gtx580, |c| c.l2.as_mut().unwrap().ways = 0),
            ("l2", GpuConfig::gtx580, |c| {
                c.l2.as_mut().unwrap().capacity_bytes = 1000
            }),
            ("max_ctas_per_core", GpuConfig::gt240, |c| {
                c.max_ctas_per_core = 0
            }),
            ("mc_queue_depth", GpuConfig::gt240, |c| c.mc_queue_depth = 0),
            ("dram.banks", GpuConfig::gt240, |c| c.dram.banks = 0),
            ("dram.row_bytes", GpuConfig::gt240, |c| c.dram.row_bytes = 0),
            ("dram.t_refi", GpuConfig::gt240, |c| c.dram.t_refi = 0),
            ("shader_ratio", GpuConfig::gt240, |c| {
                c.shader_ratio = f64::NAN
            }),
            ("shader_ratio", GpuConfig::gt240, |c| c.shader_ratio = 1e9),
            ("uncore_mhz", GpuConfig::gt240, |c| c.uncore_mhz = 1e-300),
            ("uncore_mhz", GpuConfig::gt240, |c| c.uncore_mhz = f64::NAN),
            ("dram_mhz", GpuConfig::gt240, |c| c.dram_mhz = f64::INFINITY),
            ("max_threads_per_core", GpuConfig::gtx580, |c| {
                c.max_threads_per_core = 32 * 65
            }),
        ];
        for (i, (field, base, break_it)) in cases.iter().enumerate() {
            let mut cfg = base();
            break_it(&mut cfg);
            let err = cfg.validate().expect_err(&format!("case {i} ({field})"));
            assert!(err.0.contains(field), "case {i}: `{}` names {field}", err.0);
        }
        // A disabled L1 may carry any geometry: it is never built.
        let mut cfg = GpuConfig::gt240();
        cfg.l1_line_bytes = 0;
        cfg.l1_ways = 0;
        cfg.validate().unwrap();
        // Exactly 64 warp slots fill the hint masks.
        let mut cfg = GpuConfig::gtx580();
        cfg.max_threads_per_core = 32 * 64;
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_cores_rejected() {
        let mut cfg = GpuConfig::gt240();
        cfg.clusters = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn threads_must_be_warp_multiple() {
        let mut cfg = GpuConfig::gt240();
        cfg.max_threads_per_core = 700;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn shader_clock_derivation() {
        let gt = GpuConfig::gt240();
        assert!((gt.shader_mhz() - 1358.5).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_core_count() {
        let s = GpuConfig::gt240().to_string();
        assert!(s.contains("12 cores"));
    }
}
