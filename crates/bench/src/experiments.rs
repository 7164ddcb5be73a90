//! The experiment implementations, one per paper table/figure.

use gpusimpow::{validate_suite, SimReport, Simulator, ValidationSummary};
use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::micro;
use gpusimpow_measure::static_est::{self, ExtrapolationResult};
use gpusimpow_measure::{per_op_energy, KernelExec, Testbed};
use gpusimpow_power::components::wcu;
use gpusimpow_power::GpuChip;
use gpusimpow_sim::{Gpu, GpuConfig, SimPool};

/// Default seed fixing the virtual board's systematic errors.
pub const BOARD_SEED: u64 = 0x1597;

/// The GT240 full-occupancy probe — `cluster_step_kernel(1500)` on 12
/// blocks of 256 threads — is launched by Fig. 4 (its last point),
/// Table IV and the §IV-B static estimation. The simulator is
/// deterministic and the probe touches no persistent device state, so
/// the launch is simulated once and the report shared; every consumer
/// sees bit-identical numbers.
fn gt240_probe_report() -> &'static gpusimpow_sim::LaunchReport {
    use std::sync::OnceLock;
    static REPORT: OnceLock<gpusimpow_sim::LaunchReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset is valid");
        gpu.launch(
            &micro::cluster_step_kernel(1500),
            LaunchConfig::linear(12, 256),
        )
        .expect("probe kernel runs")
    })
}

/// The GT240 half of §IV-B, shared by Table IV and the static-estimation
/// section: extrapolate the full-occupancy probe to 0 Hz, then relate
/// the estimate to the between-kernels idle power. Returns the
/// extrapolation, the static-to-idle ratio the GTX580 side reuses, and
/// the testbed (for its ground truth).
fn gt240_static(seed: u64) -> (ExtrapolationResult, f64, Testbed) {
    let mut tb = Testbed::new(GpuConfig::gt240(), seed);
    let exec = KernelExec::from_report(gt240_probe_report());
    let extrapolation = static_est::estimate_by_clock_scaling(&mut tb, &exec);
    let between = tb.measure_state(
        tb.hardware().pre_kernel_power(),
        gpusimpow_tech::units::Time::from_millis(60.0),
    );
    let ratio = static_est::static_to_idle_ratio(extrapolation.static_estimate, between);
    (extrapolation, ratio, tb)
}

/// One Fig. 4 data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Point {
    /// Thread blocks launched.
    pub blocks: u32,
    /// Measured card power (W).
    pub measured_w: f64,
    /// Increment over the previous point (W).
    pub delta_w: f64,
    /// Clusters the scheduler activated.
    pub clusters_active: usize,
}

/// Fig. 4: power of the GT240 running the same kernel with an
/// increasing number of thread blocks, measured on the testbed.
///
/// The staircase is one kernel under twelve launch geometries, so it
/// runs as a sweep ([`SimPool::run_sweep`]): every point launches the
/// probe kernel on a fresh `Gpu`, fanned out over `pool`. The full-occupancy point
/// reuses the memoized static-power probe shared with Table IV and
/// §IV-B. The stateful testbed measurement replays the reports serially
/// in block order, keeping the measurement-chain noise sequence — and
/// therefore every emitted number — identical for any thread count.
///
/// # Panics
///
/// Panics if the simulator rejects the probe kernel.
pub fn fig4_cluster_power(seed: u64, pool: &SimPool) -> Vec<Fig4Point> {
    let cfg = GpuConfig::gt240();
    let mut testbed = Testbed::new(cfg.clone(), seed);
    let kernel = micro::cluster_step_kernel(1500);
    // Full occupancy (the last point) is the shared static-power probe;
    // the remaining points fan out through the sweep driver.
    let sweep_configs = vec![GpuConfig::gt240(); cfg.total_cores() - 1];
    let mut reports: Vec<_> = pool
        .run_sweep(&kernel, &sweep_configs, |idx, _gpu| {
            Ok(LaunchConfig::linear(idx as u32 + 1, 256))
        })
        .into_iter()
        .map(|r| r.expect("probe kernel runs"))
        .collect();
    reports.push(gt240_probe_report().clone());
    let mut points = Vec::new();
    let mut prev = 0.0;
    for (i, report) in reports.iter().enumerate() {
        let blocks = i as u32 + 1;
        let m = &testbed.measure(&[KernelExec::from_report(report)])[0];
        let w = m.avg_power.watts();
        points.push(Fig4Point {
            blocks,
            measured_w: w,
            delta_w: if blocks == 1 { 0.0 } else { w - prev },
            clusters_active: report.stats.peak_clusters_busy,
        });
        prev = w;
    }
    points
}

/// One Table IV row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// GPU name.
    pub gpu: String,
    /// Simulated chip static power (W).
    pub sim_static_w: f64,
    /// Hardware static estimate via the §IV-B methodology (W).
    pub hw_static_w: f64,
    /// Which estimation method produced it.
    pub method: &'static str,
    /// Simulated die area (mm²).
    pub sim_area_mm2: f64,
    /// Paper's values for reference: (sim static, real static, sim area, real area).
    pub paper: (f64, f64, f64, f64),
}

/// Table IV: static power and area for both GPUs, with the hardware side
/// estimated through the paper's §IV-B methods on the virtual testbed.
pub fn table4_static_area(seed: u64) -> Vec<Table4Row> {
    let gt_chip = GpuChip::new(&GpuConfig::gt240()).expect("chip builds");
    let (extrapolation, ratio, _) = gt240_static(seed);

    // GTX580: idle-ratio method with the GT240-derived ratio (the
    // NVIDIA Linux driver cannot change its clocks, §IV-B).
    let gtx_cfg = GpuConfig::gtx580();
    let gtx_chip = GpuChip::new(&gtx_cfg).expect("chip builds");
    let mut gtx_tb = Testbed::new(gtx_cfg.clone(), seed.wrapping_add(1));
    let gtx_static = static_est::estimate_by_idle_ratio(&mut gtx_tb, ratio);

    vec![
        Table4Row {
            gpu: "GT240".to_string(),
            sim_static_w: gt_chip.static_power().watts(),
            hw_static_w: extrapolation.static_estimate.watts(),
            method: "0 Hz clock extrapolation",
            sim_area_mm2: gt_chip.area().mm2(),
            paper: (17.9, 17.6, 105.0, 133.0),
        },
        Table4Row {
            gpu: "GTX580".to_string(),
            sim_static_w: gtx_chip.static_power().watts(),
            hw_static_w: gtx_static.watts(),
            method: "idle-ratio (GT240-calibrated)",
            sim_area_mm2: gtx_chip.area().mm2(),
            paper: (81.5, 80.0, 306.0, 520.0),
        },
    ]
}

/// Fig. 6: full-suite validation for one GPU. `small` selects reduced
/// workload sizes for quick runs.
///
/// # Panics
///
/// Panics if a benchmark fails CPU verification.
pub fn fig6_validation(cfg: &GpuConfig, seed: u64, small: bool) -> ValidationSummary {
    let suite = if small {
        gpusimpow_kernels::small_benchmarks()
    } else {
        gpusimpow_kernels::all_benchmarks()
    };
    validate_suite(cfg, &suite, seed).expect("suite validates")
}

/// The Table V workload: blackscholes on the GT240.
///
/// # Panics
///
/// Panics if blackscholes fails verification.
fn blackscholes_on_gt240() -> (Simulator, SimReport) {
    let mut sim = Simulator::gt240().expect("preset builds");
    let mut reports = sim
        .run_benchmark(&gpusimpow_kernels::blackscholes::BlackScholes::default())
        .expect("blackscholes verifies");
    (sim, reports.swap_remove(0))
}

/// Table V: the blackscholes power breakdown on the GT240.
pub fn table5_breakdown() -> gpusimpow_power::PowerReport {
    blackscholes_on_gt240().1.power
}

/// Per-cluster attribution of the Table V workload, with the
/// core-component energy maps applied to each cluster's scoped registry
/// vector (the `per_cluster` section).
pub fn table5_scoped() -> gpusimpow_power::ScopedPowerReport {
    let (sim, report) = blackscholes_on_gt240();
    sim.evaluate_scoped(&report.launch)
}

/// §V-B's finer drill-down of the Table V workload: per-core dynamic
/// power (mW) of each memory and logic block inside the WCU.
pub fn table5_wcu_memories() -> Vec<(&'static str, f64)> {
    let (sim, report) = blackscholes_on_gt240();
    let wcu = wcu::build(sim.config(), sim.chip().tech()).expect("wcu builds");
    let time_s = report.launch.time_s;
    let cores = sim.config().total_cores() as f64;
    wcu.map
        .grouped(&report.launch.stats.to_vector())
        .into_iter()
        .map(|(name, e)| (name, e.joules() / time_s / cores * 1e3))
        .collect()
}

/// §III-D: measured per-operation energies.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchEnergies {
    /// Measured integer energy per lane-op (pJ); paper ≈ 40 pJ.
    pub int_pj: f64,
    /// Measured FP energy per lane-op (pJ); paper ≈ 75 pJ.
    pub fp_pj: f64,
}

/// §III-D: runs the LFSR and Mandelbrot microbenchmarks with 31 and 1
/// enabled lanes per warp through the testbed and derives the
/// per-operation energies from the energy difference.
///
/// The four microbenchmark launches simulate in parallel over `pool`
/// (each on a fresh `Gpu`); the testbed then measures the reports
/// serially in the fixed launch order, so its noise sequence does not
/// depend on the thread count.
pub fn microbench_energy(seed: u64, pool: &SimPool) -> MicrobenchEnergies {
    let cfg = GpuConfig::gt240();
    let mut testbed = Testbed::new(cfg.clone(), seed);
    let launch = micro::micro_launch(cfg.total_cores() as u32);

    let kernels = vec![
        micro::lfsr_kernel(31, 64),
        micro::lfsr_kernel(1, 64),
        micro::mandelbrot_kernel(31, 64),
        micro::mandelbrot_kernel(1, 64),
    ];
    let reports = pool.run(kernels, |kernel| {
        let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset is valid");
        gpu.launch(&kernel, launch).expect("micro runs")
    });
    let measured: Vec<_> = reports
        .iter()
        .map(|r| testbed.measure(&[KernelExec::from_report(r)])[0].clone())
        .collect();

    let int_pj = per_op_energy(
        &measured[0],
        &measured[1],
        reports[0].stats.int_lane_ops,
        reports[1].stats.int_lane_ops,
    )
    .picojoules();
    let fp_pj = per_op_energy(
        &measured[2],
        &measured[3],
        reports[2].stats.fp_lane_ops,
        reports[3].stats.fp_lane_ops,
    )
    .picojoules();

    MicrobenchEnergies { int_pj, fp_pj }
}

/// §IV-B: both static estimation methods, with truth for comparison.
#[derive(Debug, Clone)]
pub struct StaticEstimation {
    /// GT240 measured at full clock (W).
    pub gt240_full_w: f64,
    /// GT240 measured at 80 % clock (W).
    pub gt240_scaled_w: f64,
    /// GT240 extrapolated static (W).
    pub gt240_static_w: f64,
    /// GT240 ground truth (W).
    pub gt240_truth_w: f64,
    /// The static-to-idle ratio carried to the GTX580.
    pub ratio: f64,
    /// GTX580 idle-ratio static estimate (W).
    pub gtx580_static_w: f64,
    /// GTX580 ground truth (W).
    pub gtx580_truth_w: f64,
}

/// §IV-B: runs the clock-extrapolation method on the GT240 and the
/// idle-ratio method on the GTX580.
pub fn static_estimation(seed: u64) -> StaticEstimation {
    let (r, ratio, gt_tb) = gt240_static(seed);
    let gt_truth = gt_tb.hardware().true_static_power().watts();

    let mut gtx_tb = Testbed::new(GpuConfig::gtx580(), seed.wrapping_add(7));
    let gtx_est = static_est::estimate_by_idle_ratio(&mut gtx_tb, ratio);
    let gtx_truth = gtx_tb.hardware().true_static_power().watts();

    StaticEstimation {
        gt240_full_w: r.power_full.watts(),
        gt240_scaled_w: r.power_scaled.watts(),
        gt240_static_w: r.static_estimate.watts(),
        gt240_truth_w: gt_truth,
        ratio,
        gtx580_static_w: gtx_est.watts(),
        gtx580_truth_w: gtx_truth,
    }
}

/// §IV-A: empirical error budget of the measurement chain.
#[derive(Debug, Clone, Copy)]
pub struct ErrorBudget {
    /// Worst observed relative power error over boards and operating
    /// points (paper budget: ±3.2 %).
    pub worst_rel_error: f64,
    /// Mean absolute relative error.
    pub mean_rel_error: f64,
    /// Boards (seeds) exercised.
    pub boards: usize,
}

/// §IV-A: sweeps DC operating points through many boards and compares
/// the reconstructed power against the ground truth.
///
/// Boards are independent testbeds (one seed each), so they fan out
/// over `pool`; the per-board errors are folded in seed order, keeping
/// the floating-point reduction identical for any thread count.
pub fn measurement_error_budget(boards: usize, pool: &SimPool) -> ErrorBudget {
    let per_board = pool.run((0..boards as u64).collect(), |seed| {
        let mut tb = Testbed::new(GpuConfig::gt240(), seed);
        let mut worst = 0.0f64;
        let mut sum = 0.0;
        for watts in [16.0, 25.0, 40.0, 60.0] {
            let truth = gpusimpow_tech::units::Power::new(watts);
            let measured = tb.measure_state(truth, gpusimpow_tech::units::Time::from_millis(30.0));
            let rel = ((measured.watts() - watts) / watts).abs();
            worst = worst.max(rel);
            sum += rel;
        }
        (worst, sum)
    });
    let mut worst = 0.0f64;
    let mut sum = 0.0;
    for (board_worst, board_sum) in &per_board {
        worst = worst.max(*board_worst);
        sum += board_sum;
    }
    ErrorBudget {
        worst_rel_error: worst,
        mean_rel_error: sum / (boards * 4) as f64,
        boards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shows_the_staircase() {
        // Two threads exercise the parallel fan-out path; results are
        // identical for any thread count (collected in input order).
        let points = fig4_cluster_power(BOARD_SEED, &SimPool::new(2));
        assert_eq!(points.len(), 12);
        // Blocks 2..4 land on fresh clusters.
        assert_eq!(points[1].clusters_active, 2);
        assert_eq!(points[3].clusters_active, 4);
        // Every step carries the block's own compute power; the paper's
        // observation is the *difference*: a fresh-cluster step exceeds a
        // same-cluster step by the cluster overhead (0.692 − 0.199 ≈
        // 0.49 W).
        let cluster_step = points[1].delta_w;
        let core_step = points[5].delta_w;
        let overhead = cluster_step - core_step;
        assert!(
            (0.30..0.70).contains(&overhead),
            "cluster-vs-core step difference {overhead} W (paper ≈ 0.49 W)"
        );
        // Power rises monotonically (within measurement noise).
        for w in points.windows(2) {
            assert!(w[1].measured_w > w[0].measured_w - 0.3);
        }
    }

    #[test]
    fn microbench_methodology_recovers_the_silicon_truth() {
        let e = microbench_energy(BOARD_SEED, &SimPool::new(2));
        // The §III-D method must recover the *synthetic silicon's* true
        // per-op energies (the paper's real card measured ≈40/75 pJ; our
        // emulated card's truth is deliberately different so the Fig. 6
        // error is emergent — see DESIGN.md).
        let truth = gpusimpow_measure::SiliconTruth::for_config(&GpuConfig::gt240());
        let int_truth = truth.int_op_j * 1e12;
        let fp_truth = truth.fp_op_j * 1e12;
        assert!(
            (e.int_pj - int_truth).abs() / int_truth < 0.15,
            "int {} pJ vs truth {int_truth} pJ",
            e.int_pj
        );
        // The FP microbenchmark loop carries one INT op per six FP ops,
        // inflating the estimate slightly — as on real hardware.
        assert!(
            e.fp_pj > fp_truth * 0.9 && e.fp_pj < fp_truth * 1.35,
            "fp {} pJ vs truth {fp_truth} pJ",
            e.fp_pj
        );
        assert!(e.fp_pj > e.int_pj, "fp ops cost more than int ops");
    }

    #[test]
    fn error_budget_within_spec() {
        let b = measurement_error_budget(10, &SimPool::new(2));
        assert!(
            b.worst_rel_error < 0.032,
            "worst error {} exceeds the ±3.2 % budget",
            b.worst_rel_error
        );
        assert!(b.mean_rel_error < b.worst_rel_error);
    }

    #[test]
    fn static_estimation_methods_agree_with_truth() {
        let s = static_estimation(BOARD_SEED);
        assert!((s.gt240_static_w - s.gt240_truth_w).abs() / s.gt240_truth_w < 0.12);
        assert!((s.gtx580_static_w - s.gtx580_truth_w).abs() / s.gtx580_truth_w < 0.15);
        assert!((0.8..1.0).contains(&s.ratio), "ratio {}", s.ratio);
    }
}
