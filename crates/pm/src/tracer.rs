//! The power tracer: turns activity windows into [`PowerTrace`]s under a
//! [`Governor`], with optional idle-cluster gating.

use gpusimpow_power::GpuChip;
use gpusimpow_sim::{ActivitySink, ActivityWindow, LaunchReport, RecordedLaunch};
use gpusimpow_tech::clockdomain::DvfsTable;
use gpusimpow_tech::clockdomain::OperatingPoint;
use gpusimpow_tech::units::{Cycles, Power, Time};

use crate::governor::{Governor, WindowContext};
use crate::trace::{ComponentPowers, PowerSample, PowerTrace};

/// Clock/power gating of idle clusters.
///
/// When enabled, the static power of the cores block is scaled by
/// `busy + (1 − busy) × retention`, where `busy` is the window's
/// busy-cluster fraction: fully idle clusters drop to the retention
/// floor (state-preserving sleep keeps some rails up), busy clusters pay
/// full leakage. Disabled by default so that an ungoverned trace
/// integrates to exactly the single-shot report energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterGating {
    /// Whether gating is applied at all.
    pub enabled: bool,
    /// Fraction of leakage an idle (gated) cluster still draws, in
    /// `[0, 1]`.
    pub retention: f64,
    /// When true, gating decisions are made per cluster from the
    /// window's scoped busy vector ([`ActivityWindow::cluster_busy`]):
    /// a cluster is gated only if it was idle for the *entire* window
    /// (entering and leaving a sleep state has latency, so a cluster
    /// that was busy at any point keeps its rails up). This is the
    /// realistic, non-linear policy — unlike the chip-average factor it
    /// cannot be reproduced from `cluster_busy_cycles` alone.
    pub per_cluster: bool,
}

impl ClusterGating {
    /// Gating disabled (the default).
    pub fn off() -> Self {
        ClusterGating {
            enabled: false,
            retention: 1.0,
            per_cluster: false,
        }
    }

    /// Gating enabled with the given retention floor, priced from the
    /// chip-average busy-cluster fraction.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is outside `[0, 1]`.
    pub fn with_retention(retention: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&retention),
            "retention must be in [0, 1]"
        );
        ClusterGating {
            enabled: true,
            retention,
            per_cluster: false,
        }
    }

    /// Gating enabled with the given retention floor, decided per
    /// cluster from the scoped activity registry (whole-window-idle
    /// clusters only).
    ///
    /// # Panics
    ///
    /// Panics if `retention` is outside `[0, 1]`.
    pub fn per_cluster(retention: f64) -> Self {
        ClusterGating {
            per_cluster: true,
            ..Self::with_retention(retention)
        }
    }

    /// Factor applied to cores static power for a window whose
    /// busy-cluster fraction is `busy_fraction`.
    pub fn static_factor(&self, busy_fraction: f64) -> f64 {
        if !self.enabled {
            1.0
        } else {
            let busy = busy_fraction.clamp(0.0, 1.0);
            busy + (1.0 - busy) * self.retention
        }
    }

    /// Factor applied to cores static power under the per-cluster
    /// policy: clusters with any busy cycle in the window pay full
    /// leakage, whole-window-idle clusters drop to the retention floor.
    pub fn scoped_static_factor(&self, cluster_busy: &[u64]) -> f64 {
        if !self.enabled || cluster_busy.is_empty() {
            return if self.enabled { self.retention } else { 1.0 };
        }
        let clusters = cluster_busy.len() as f64;
        let awake = cluster_busy.iter().filter(|&&busy| busy > 0).count() as f64;
        (awake + (clusters - awake) * self.retention) / clusters
    }
}

impl Default for ClusterGating {
    fn default() -> Self {
        Self::off()
    }
}

/// Evaluates windowed activity into power samples for a fixed chip,
/// DVFS table and gating setting. One tracer can replay the same
/// recording under many governors, or trace live via
/// [`PowerTracer::stream`].
#[derive(Debug, Clone)]
pub struct PowerTracer {
    chip: GpuChip,
    dvfs: DvfsTable,
    gating: ClusterGating,
}

impl PowerTracer {
    /// A tracer for `chip` with a default five-point DVFS ladder
    /// (frequency 50 %–100 % of nominal, voltage 80 %–100 % of the
    /// node's Vdd) and gating off.
    pub fn new(chip: GpuChip) -> Self {
        let nominal = OperatingPoint::new(chip.tech().vdd(), chip.clocks().shader());
        let dvfs = DvfsTable::linear(nominal, 0.5, 0.8, 5);
        PowerTracer {
            chip,
            dvfs,
            gating: ClusterGating::off(),
        }
    }

    /// Replaces the gating setting.
    pub fn with_gating(mut self, gating: ClusterGating) -> Self {
        self.gating = gating;
        self
    }

    /// The chip being traced.
    pub fn chip(&self) -> &GpuChip {
        &self.chip
    }

    /// Replays a recorded launch under `governor`, producing one sample
    /// per window.
    pub fn replay(&self, launch: &RecordedLaunch, governor: &mut dyn Governor) -> PowerTrace {
        governor.reset();
        let mut trace = PowerTrace::new(launch.kernel.clone(), governor.name());
        let mut prev_op = self.dvfs.nominal_index();
        let mut start = Time::ZERO;
        for w in &launch.windows {
            let sample = self.eval_window(&launch.kernel, w, prev_op, governor, start);
            start += sample.duration;
            prev_op = sample.op_index;
            trace.samples.push(sample);
        }
        trace
    }

    /// A live [`ActivitySink`] that builds traces as the simulation
    /// runs; pass it to `Gpu::launch_with_sink`.
    pub fn stream<G: Governor>(&self, governor: G) -> StreamingTracer<'_, G> {
        StreamingTracer {
            tracer: self,
            governor,
            prev_op: self.dvfs.nominal_index(),
            start: Time::ZERO,
            current: None,
            finished: Vec::new(),
        }
    }

    /// Evaluates one window: estimates its chip power at every operating
    /// point, lets the governor choose one, and prices the window there.
    fn eval_window(
        &self,
        kernel: &str,
        w: &ActivityWindow,
        prev_op: usize,
        governor: &mut dyn Governor,
        start: Time,
    ) -> PowerSample {
        let cycles = w.cycles();
        debug_assert!(cycles > 0, "windows cover at least one cycle");
        let report = self.chip.evaluate(kernel, &w.stats);
        let cfg = self.chip.config();

        let utilization =
            w.stats.core_busy_cycles as f64 / (cycles as f64 * cfg.total_cores() as f64);
        let busy_cluster_fraction =
            w.stats.cluster_busy_cycles as f64 / (cycles as f64 * cfg.clusters as f64);
        // Scoped per-cluster load from the registry's scope dimension;
        // empty when the window predates scoped recording (hand-built
        // test windows).
        let cluster_utilization = w.cluster_busy_fractions();
        let gate = if self.gating.per_cluster && !w.cluster_busy.is_empty() {
            self.gating.scoped_static_factor(&w.cluster_busy)
        } else {
            self.gating.static_factor(busy_cluster_fraction)
        };

        // Static power with gating applied to the cores block only (the
        // uncore keeps serving the rest of the chip).
        let cores_static = report.chip.cores.static_power * gate;
        let uncore_static = report.chip.noc.static_power
            + report.chip.mc.static_power
            + report.chip.pcie.static_power
            + report.chip.l2.static_power;

        // Chip power of this window at each operating point: dynamic
        // scales as (V/V₀)²·(f/f₀), static as (V/V₀)³.
        let dynamic_nominal = report.dynamic_power();
        let power_at: Vec<Power> = (0..self.dvfs.len())
            .map(|i| {
                dynamic_nominal * self.dvfs.dynamic_power_factor(i)
                    + (cores_static + uncore_static) * self.dvfs.leakage_factor(i)
            })
            .collect();

        let op_index = governor
            .select(&WindowContext {
                window: w,
                utilization,
                cluster_utilization: &cluster_utilization,
                prev_op,
                dvfs: &self.dvfs,
                power_at: &power_at,
            })
            .min(self.dvfs.len() - 1);

        let dyn_factor = self.dvfs.dynamic_power_factor(op_index);
        let leak_factor = self.dvfs.leakage_factor(op_index);
        let freq_scale = self.dvfs.freq_scale(op_index);
        let duration = self
            .chip
            .clocks()
            .shader_cycles_to_time(Cycles::new(cycles))
            * (1.0 / freq_scale);

        PowerSample {
            index: w.index,
            start,
            duration,
            op_index,
            op: self.dvfs.point(op_index),
            utilization,
            dynamic: ComponentPowers {
                cores: report.chip.cores.dynamic_power * dyn_factor,
                noc: report.chip.noc.dynamic_power * dyn_factor,
                mc: report.chip.mc.dynamic_power * dyn_factor,
                pcie: report.chip.pcie.dynamic_power * dyn_factor,
                l2: report.chip.l2.dynamic_power * dyn_factor,
            },
            static_power: (cores_static + uncore_static) * leak_factor,
            dram_power: self
                .chip
                .dram()
                .evaluate(&w.stats.to_vector(), duration)
                .total(),
        }
    }
}

/// Live tracing sink returned by [`PowerTracer::stream`].
#[derive(Debug)]
pub struct StreamingTracer<'a, G> {
    tracer: &'a PowerTracer,
    governor: G,
    prev_op: usize,
    start: Time,
    current: Option<PowerTrace>,
    finished: Vec<PowerTrace>,
}

impl<G: Governor> StreamingTracer<'_, G> {
    /// Traces of all finished launches, in launch order.
    pub fn traces(&self) -> &[PowerTrace] {
        &self.finished
    }

    /// Consumes the sink, returning its finished traces.
    pub fn into_traces(self) -> Vec<PowerTrace> {
        self.finished
    }
}

impl<G: Governor> ActivitySink for StreamingTracer<'_, G> {
    fn on_launch_begin(&mut self, kernel: &str, _window_cycles: u64) {
        self.governor.reset();
        self.prev_op = self.tracer.dvfs.nominal_index();
        self.start = Time::ZERO;
        self.current = Some(PowerTrace::new(kernel, self.governor.name()));
    }

    fn on_window(&mut self, window: &ActivityWindow) {
        let trace = self
            .current
            .as_mut()
            .expect("on_launch_begin precedes on_window");
        let sample = self.tracer.eval_window(
            &trace.kernel,
            window,
            self.prev_op,
            &mut self.governor,
            self.start,
        );
        self.start += sample.duration;
        self.prev_op = sample.op_index;
        trace.samples.push(sample);
    }

    fn on_launch_end(&mut self, _report: &LaunchReport) {
        if let Some(trace) = self.current.take() {
            self.finished.push(trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusimpow_sim::{ActivityStats, GpuConfig};

    #[test]
    fn gating_factor_interpolates_to_retention() {
        let g = ClusterGating::with_retention(0.2);
        assert!((g.static_factor(1.0) - 1.0).abs() < 1e-12);
        assert!((g.static_factor(0.0) - 0.2).abs() < 1e-12);
        assert!((g.static_factor(0.5) - 0.6).abs() < 1e-12);
        assert!((ClusterGating::off().static_factor(0.0) - 1.0).abs() < 1e-12);
    }

    fn window(cycles: u64, busy_cores: u64, busy_clusters: u64) -> ActivityWindow {
        let mut stats = ActivityStats::new();
        stats.shader_cycles = cycles;
        stats.core_busy_cycles = busy_cores;
        stats.cluster_busy_cycles = busy_clusters;
        stats.int_lane_ops = 1000 * cycles;
        ActivityWindow {
            index: 0,
            start_cycle: 0,
            end_cycle: cycles,
            stats,
            cluster_busy: Vec::new(),
        }
    }

    /// A window with an explicit per-cluster busy split (cycles each
    /// cluster had at least one busy core).
    fn scoped_window(cycles: u64, busy_cores: u64, cluster_busy: Vec<u64>) -> ActivityWindow {
        let mut w = window(cycles, busy_cores, cluster_busy.iter().sum());
        w.cluster_busy = cluster_busy;
        w
    }

    fn tracer() -> PowerTracer {
        PowerTracer::new(GpuChip::new(&GpuConfig::gt240()).unwrap())
    }

    #[test]
    fn nominal_window_matches_single_shot_report() {
        let t = tracer();
        let w = window(2048, 2048 * 12, 2048 * 3);
        let mut g = crate::governor::Baseline;
        let sample = t.eval_window("k", &w, t.dvfs.nominal_index(), &mut g, Time::ZERO);
        let report = t.chip.evaluate("k", &w.stats);
        assert!(
            (sample.total_power().watts() - report.total_power().watts()).abs() < 1e-9,
            "baseline sample must price windows exactly like the report"
        );
        assert!((sample.duration.seconds() - report.time.seconds()).abs() < 1e-15);
        assert!((sample.dram_power.watts() - report.dram.total().watts()).abs() < 1e-9);
    }

    #[test]
    fn slower_point_cuts_power_and_stretches_time() {
        let t = tracer();
        let w = window(2048, 2048 * 12, 2048 * 3);
        struct Slowest;
        impl Governor for Slowest {
            fn name(&self) -> &str {
                "slowest"
            }
            fn select(&mut self, _ctx: &WindowContext<'_>) -> usize {
                0
            }
        }
        let mut g = Slowest;
        let slow = t.eval_window("k", &w, t.dvfs.nominal_index(), &mut g, Time::ZERO);
        let mut b = crate::governor::Baseline;
        let fast = t.eval_window("k", &w, t.dvfs.nominal_index(), &mut b, Time::ZERO);
        assert!(slow.total_power() < fast.total_power());
        assert!(slow.duration > fast.duration);
        // Dynamic energy still drops (V² factor) even though time grows.
        assert!(slow.dynamic_power() * slow.duration < fast.dynamic_power() * fast.duration);
    }

    #[test]
    fn gating_reduces_static_power_on_idle_windows() {
        let chip = GpuChip::new(&GpuConfig::gt240()).unwrap();
        let gated = PowerTracer::new(chip.clone()).with_gating(ClusterGating::with_retention(0.1));
        let ungated = PowerTracer::new(chip);
        // Half the clusters idle the whole window.
        let w = window(2048, 2048 * 6, 2048 * 2);
        let mut g1 = crate::governor::Baseline;
        let mut g2 = crate::governor::Baseline;
        let a = gated.eval_window("k", &w, 4, &mut g1, Time::ZERO);
        let b = ungated.eval_window("k", &w, 4, &mut g2, Time::ZERO);
        assert!(a.static_power < b.static_power);
        assert_eq!(a.dynamic_power(), b.dynamic_power());
    }

    #[test]
    fn scoped_gating_differs_from_chip_average_on_partial_busy() {
        // Every cluster busy for half the window: the chip-average
        // policy sees busy fraction 0.5 and gates half the leakage
        // away, but no cluster was idle long enough to actually enter a
        // sleep state — the scoped policy keeps all rails up.
        let retention = 0.1;
        let chip = GpuChip::new(&GpuConfig::gt240()).unwrap();
        let averaged =
            PowerTracer::new(chip.clone()).with_gating(ClusterGating::with_retention(retention));
        let scoped = PowerTracer::new(chip).with_gating(ClusterGating::per_cluster(retention));
        let w = scoped_window(2048, 2048 * 6, vec![1024, 1024, 1024, 1024]);
        let mut g1 = crate::governor::Baseline;
        let mut g2 = crate::governor::Baseline;
        let avg_sample = averaged.eval_window("k", &w, 4, &mut g1, Time::ZERO);
        let scoped_sample = scoped.eval_window("k", &w, 4, &mut g2, Time::ZERO);
        assert!(
            scoped_sample.static_power > avg_sample.static_power,
            "no whole-window-idle cluster, so scoped gating must not gate"
        );

        // Same chip-wide busy-cluster cycles, but concentrated: three
        // clusters idle the whole window and do get gated.
        let w2 = scoped_window(2048, 2048 * 6, vec![2048, 2048, 0, 0]);
        let mut g3 = crate::governor::Baseline;
        let gated = scoped.eval_window("k", &w2, 4, &mut g3, Time::ZERO);
        assert!(gated.static_power < scoped_sample.static_power);
    }

    #[test]
    fn scoped_factor_gates_only_whole_window_idle_clusters() {
        let g = ClusterGating::per_cluster(0.2);
        // Two of four clusters idle: (2 + 2*0.2)/4 = 0.6.
        assert!((g.scoped_static_factor(&[100, 1, 0, 0]) - 0.6).abs() < 1e-12);
        // Everyone at least briefly busy: nothing gated.
        assert!((g.scoped_static_factor(&[1, 1, 1, 1]) - 1.0).abs() < 1e-12);
        // Chip-average policy on the same window gates by fraction.
        let avg = ClusterGating::with_retention(0.2);
        assert!(avg.static_factor(0.5) < g.scoped_static_factor(&[100, 1, 1, 1]));
    }

    #[test]
    fn replay_produces_one_sample_per_window() {
        let t = tracer();
        let launch = RecordedLaunch {
            kernel: "k".to_string(),
            window_cycles: 2048,
            windows: vec![
                window(2048, 2048 * 12, 2048 * 3),
                window(2048, 2048 * 2, 2048),
            ],
            report: None,
        };
        let mut g = crate::governor::Baseline;
        let trace = t.replay(&launch, &mut g);
        assert_eq!(trace.samples.len(), 2);
        assert_eq!(trace.governor, "baseline");
        // Samples are laid out back to back in time.
        assert!(
            (trace.samples[1].start - trace.samples[0].duration)
                .seconds()
                .abs()
                < 1e-15
        );
    }
}
