//! The reference-hardware power emulator — the "real graphics card" of
//! the virtual testbed.
//!
//! There is no GT240 or GTX580 in this environment, so the validation
//! experiments run against a *synthetic ground truth*: an independent
//! parameterization of GPU power ("the silicon") that is deliberately
//! different from the GPGPU-Pow model in `gpusimpow-power`. The
//! emulator consumes the same activity counters the simulator produces —
//! real silicon, after all, also burns energy per event — but with its
//! own per-event energies, its own static power, power gating and DRAM
//! behaviour. The difference between the two parameterizations is what
//! makes Fig. 6's simulation-vs-measurement error an emergent quantity
//! rather than a tautology.
//!
//! The truth constants are fixed (not tuned per kernel) and chosen so the
//! synthetic cards behave like the paper's: GT240 static ≈ 17.6 W, 15 W
//! gated idle, 19.5 W in the ungated pre/post-kernel state; GTX580 ≈
//! 80 W static, 90 W between kernels.

use gpusimpow_sim::{ActivityStats, GpuConfig};
use gpusimpow_tech::units::{Power, Time};

/// Per-event energies and fixed powers of the synthetic silicon.
///
/// Derived from the architecture description so that *any* configuration
/// gets a ground truth, with the two paper cards landing on the paper's
/// measured values.
#[derive(Debug, Clone)]
pub struct SiliconTruth {
    /// Integer lane-op energy (J): 29.5 pJ. The paper's §III-D
    /// microbenchmark measures ≈ 40 pJ on the real card; this testbed's
    /// (`run_all_experiments --only=microbench`) recovers 29.8 pJ.
    pub int_op_j: f64,
    /// FP lane-op energy (J): 55.0 pJ. The paper measures ≈ 75 pJ; this
    /// testbed recovers 63.0 pJ.
    pub fp_op_j: f64,
    /// SFU lane-op energy (J). Real transcendental hardware is hungrier
    /// than the model's estimate — this is what makes the simulator
    /// *underestimate* SFU-heavy kernels like blackscholes (Fig. 6).
    pub sfu_op_j: f64,
    /// Front-end energy per issued warp instruction (J).
    pub frontend_per_instr_j: f64,
    /// Register-file energy per bank access (J).
    pub rf_access_j: f64,
    /// LDST energy per shared-memory bank access (J).
    pub smem_access_j: f64,
    /// Energy per coalesced memory request through the LDST unit (J).
    pub mem_request_j: f64,
    /// NoC energy per flit (J).
    pub noc_flit_j: f64,
    /// Controller+pin energy per byte to DRAM (J).
    pub mc_byte_j: f64,
    /// L2 energy per access (J).
    pub l2_access_j: f64,
    /// Global scheduler power when the chip is executing (W) — the
    /// 3.34 W step of Fig. 4.
    pub global_scheduler_w: f64,
    /// Power step when a cluster activates (W) — 0.692 W in Fig. 4,
    /// including its first core's base share.
    pub cluster_step_w: f64,
    /// Additional power per busy core beyond the first of its cluster (W).
    pub core_step_w: f64,
    /// Chip static power when not gated (W).
    pub chip_static_w: f64,
    /// Card power in the gated long-idle state (W).
    pub idle_gated_w: f64,
    /// Card power in the ungated state around kernel launches (W).
    pub pre_kernel_w: f64,
    /// DRAM background power (W).
    pub dram_background_w: f64,
    /// DRAM energy per 32-byte burst, read or write (J).
    pub dram_burst_j: f64,
    /// DRAM termination power at full bus utilization (W).
    pub dram_termination_w: f64,
}

impl SiliconTruth {
    /// Derives the silicon truth for a configuration.
    pub fn for_config(cfg: &GpuConfig) -> Self {
        let lanes = cfg.simd_width as f64;
        let channels = cfg.mem_channels as f64;
        // Static power: per-core share grows nearly linearly with lane
        // count, calibrated so the 0 Hz extrapolation recovers the
        // paper's measured estimates: GT240 17.6 W, GTX580 ~80 W (both
        // *including* the DRAM background, which does not scale with the
        // GPU clock and therefore survives the extrapolation).
        let core_static = 1.071 * (lanes / 8.0).powf(0.99);
        let uncore_static = 1.26 * channels / 2.0 + 0.78;
        let chip_static = core_static * cfg.total_cores() as f64 + uncore_static;
        let warps = cfg.max_warps_per_core() as f64;
        SiliconTruth {
            int_op_j: 29.5e-12,
            fp_op_j: 55.0e-12,
            sfu_op_j: 1150.0e-12,
            // The front end grows with the in-flight warp count (bigger
            // status tables, wider schedulers).
            frontend_per_instr_j: 275.0e-12 * (warps / 24.0).powf(0.7),
            // A warp-register access moves 1024 bits through a bank and
            // the operand crossbar regardless of core width.
            rf_access_j: 210.0e-12,
            smem_access_j: 13.0e-12 * (cfg.smem_banks as f64 / 16.0).sqrt(),
            mem_request_j: 225.0e-12,
            noc_flit_j: 300.0e-12,
            mc_byte_j: 95.0e-12,
            l2_access_j: 120.0e-12,
            global_scheduler_w: 3.34,
            cluster_step_w: 0.692,
            core_step_w: 0.199,
            chip_static_w: chip_static,
            // Gated long-idle: "around 15 W" on the GT240 card.
            idle_gated_w: chip_static * 0.898,
            // Ungated pre/post-kernel: "19.5 W", of which ~90 % is static.
            pre_kernel_w: chip_static * 1.128,
            dram_background_w: 1.35 * channels,
            dram_burst_j: 1.9e-9,
            dram_termination_w: 0.95 * channels,
        }
    }
}

/// The emulated graphics card.
#[derive(Debug, Clone)]
pub struct ReferenceGpu {
    cfg: GpuConfig,
    truth: SiliconTruth,
}

impl ReferenceGpu {
    /// Builds the emulator for a card configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let truth = SiliconTruth::for_config(&cfg);
        ReferenceGpu { cfg, truth }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The silicon parameters (exposed for tests and documentation).
    pub fn truth(&self) -> &SiliconTruth {
        &self.truth
    }

    /// Card power in the long-idle (gated) state (GT240: ≈ 15 W).
    pub fn idle_power(&self) -> Power {
        Power::new(self.truth.idle_gated_w + self.truth.dram_background_w * 0.6)
    }

    /// Card power in the ungated state shortly before/after kernels
    /// (GT240: the 19.5 W state — about 90 % of it is static).
    pub fn pre_kernel_power(&self) -> Power {
        Power::new(self.truth.pre_kernel_w + self.truth.dram_background_w)
    }

    /// The true static card power — what the 0 Hz clock extrapolation
    /// recovers (GT240 ≈ 17.6 W, GTX580 ≈ 80 W). Includes the DRAM
    /// background, which is independent of the GPU clock.
    pub fn true_static_power(&self) -> Power {
        Power::new(self.truth.chip_static_w + self.truth.dram_background_w)
    }

    /// True total card power while executing a kernel with the given
    /// activity, at `clock_scale` of nominal shader clock (dynamic power
    /// scales with clock, static does not).
    ///
    /// # Panics
    ///
    /// Panics unless `clock_scale` is in `(0, 1.5]` and the stats carry a
    /// non-zero cycle count.
    pub fn kernel_power(&self, stats: &ActivityStats, clock_scale: f64) -> Power {
        assert!(
            clock_scale > 0.0 && clock_scale <= 1.5,
            "clock scale out of range"
        );
        assert!(stats.shader_cycles > 0, "kernel must have executed");
        let t = &self.truth;
        let nominal_time = stats.shader_cycles as f64 / (self.cfg.shader_mhz() * 1e6);

        // Event energies -> average dynamic power at nominal clock.
        let bursts = (stats.dram_read_bursts + stats.dram_write_bursts) as f64;
        let energy = stats.int_lane_ops as f64 * t.int_op_j
            + stats.fp_lane_ops as f64 * t.fp_op_j
            + stats.sfu_lane_ops as f64 * t.sfu_op_j
            + stats.warp_instructions as f64 * t.frontend_per_instr_j
            + (stats.rf_bank_reads + stats.rf_bank_writes) as f64 * t.rf_access_j
            + stats.smem_accesses as f64 * t.smem_access_j
            + stats.coalescer_outputs as f64 * t.mem_request_j
            + stats.noc_flits as f64 * t.noc_flit_j
            + bursts * 32.0 * t.mc_byte_j
            + stats.l2_accesses as f64 * t.l2_access_j
            + bursts * t.dram_burst_j;
        let switching = energy / nominal_time;

        // Occupancy-dependent base power (the Fig. 4 staircase).
        let cycles = stats.shader_cycles as f64;
        let avg_cores = stats.core_busy_cycles as f64 / cycles;
        let avg_clusters = stats.cluster_busy_cycles as f64 / cycles;
        let base = t.global_scheduler_w * avg_clusters.min(1.0)
            + t.cluster_step_w * avg_clusters
            + t.core_step_w * (avg_cores - avg_clusters).max(0.0);

        // DRAM time-dependent terms.
        let bus_busy = if stats.dram_cycles == 0 {
            0.0
        } else {
            (stats.dram_data_bus_busy_cycles as f64
                / (stats.dram_cycles as f64 * self.cfg.mem_channels as f64))
                .min(1.0)
        };
        let dram = t.dram_background_w + t.dram_termination_w * bus_busy;

        Power::new(t.chip_static_w + dram + (switching + base) * clock_scale)
    }

    /// True kernel duration at `clock_scale` of nominal clock.
    pub fn kernel_time(&self, stats: &ActivityStats, clock_scale: f64) -> Time {
        Time::new(stats.shader_cycles as f64 / (self.cfg.shader_mhz() * 1e6 * clock_scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_stats() -> ActivityStats {
        let mut s = ActivityStats::new();
        s.shader_cycles = 1_000_000;
        s.core_busy_cycles = 11_000_000;
        s.cluster_busy_cycles = 3_900_000;
        s.fp_lane_ops = 40_000_000;
        s.int_lane_ops = 12_000_000;
        s.warp_instructions = 2_000_000;
        s.rf_bank_reads = 4_000_000;
        s.rf_bank_writes = 1_800_000;
        s
    }

    #[test]
    fn gt240_truth_matches_paper_measurements() {
        let hw = ReferenceGpu::new(GpuConfig::gt240());
        assert!(
            (hw.true_static_power().watts() - 17.6).abs() < 0.3,
            "static {}",
            hw.true_static_power().watts()
        );
        // "If no kernel was executed the card is using around 15 W".
        let idle = hw.idle_power().watts();
        assert!((14.2..15.8).contains(&idle), "idle {idle}");
        // "for some milliseconds before and after the execution of a
        // kernel the card consumes 19.5 W".
        let pre = hw.pre_kernel_power().watts();
        assert!((18.8..20.2).contains(&pre), "pre-kernel {pre}");
        // "About 90% of the power consumed by the card in this state
        // thus seems to be static power."
        let ratio = hw.true_static_power().watts() / pre;
        assert!((0.85..0.95).contains(&ratio), "static/pre ratio {ratio}");
    }

    #[test]
    fn gtx580_truth_matches_paper_measurements() {
        let hw = ReferenceGpu::new(GpuConfig::gtx580());
        let s = hw.true_static_power().watts();
        assert!((s - 80.0).abs() < 4.0, "static {s}");
    }

    #[test]
    fn kernel_power_exceeds_static() {
        let hw = ReferenceGpu::new(GpuConfig::gt240());
        let p = hw.kernel_power(&busy_stats(), 1.0);
        assert!(p > hw.true_static_power());
        // A busy compute kernel should land in the paper's GT240 range.
        assert!(
            (25.0..70.0).contains(&p.watts()),
            "kernel power {} W",
            p.watts()
        );
    }

    #[test]
    fn dynamic_power_scales_linearly_with_clock() {
        let hw = ReferenceGpu::new(GpuConfig::gt240());
        let s = busy_stats();
        let p100 = hw.kernel_power(&s, 1.0).watts();
        let p80 = hw.kernel_power(&s, 0.8).watts();
        // Linear extrapolation to 0 Hz must recover the static floor
        // (the §IV-B methodology). The termination share of DRAM power
        // does not scale with the GPU clock either, so allow it as slack.
        let extrapolated = p80 - (p100 - p80) / 0.2 * 0.8;
        let floor = hw.true_static_power().watts();
        assert!(
            extrapolated >= floor - 0.2 && extrapolated < floor + 1.5,
            "extrapolated {extrapolated} vs floor {floor}"
        );
    }

    #[test]
    fn clock_scaling_stretches_time() {
        let hw = ReferenceGpu::new(GpuConfig::gt240());
        let s = busy_stats();
        let t1 = hw.kernel_time(&s, 1.0);
        let t08 = hw.kernel_time(&s, 0.8);
        assert!((t08.seconds() / t1.seconds() - 1.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "clock scale")]
    fn zero_clock_rejected() {
        let hw = ReferenceGpu::new(GpuConfig::gt240());
        let _ = hw.kernel_power(&busy_stats(), 0.0);
    }
}
