//! Bit-identity proofs for the SoA warp pipeline and the sweep driver.
//!
//! The hot path executes warps as gather → dense-compute → masked
//! scatter over contiguous lane rows, and `SimPool::run_sweep` fans one
//! fresh `Gpu` per config out over pool threads. Neither may be visible
//! in results: the full small suite must reproduce the reference
//! behaviour bit for bit on both presets and at any `SimPool` width,
//! and a sweep must equal independent launches.

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_kernels::{micro, small_benchmarks};
use gpusimpow_sim::{Gpu, GpuConfig, LaunchReport, SimPool};

fn run_suite(cfg: &GpuConfig) -> Vec<LaunchReport> {
    let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
    let mut reports = Vec::new();
    for bench in &small_benchmarks() {
        reports.extend(
            bench
                .run(&mut gpu)
                .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name())),
        );
    }
    reports
}

fn assert_reports_bit_identical(a: &[LaunchReport], b: &[LaunchReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: launch counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.kernel, y.kernel);
        assert_eq!(
            x.stats, y.stats,
            "`{}`: {what}: ActivityStats diverge",
            x.kernel
        );
        assert_eq!(
            x.time_s.to_bits(),
            y.time_s.to_bits(),
            "`{}`: {what}: simulated time diverges",
            x.kernel
        );
    }
}

/// The SoA pipeline is the only execution path now, so its reference is
/// the determinism contract itself: the full small suite, on both
/// presets, must be bit-identical run-to-run — on the calling thread
/// and when two reruns execute side by side on `SimPool` threads (each
/// job owns its `Gpu`, so nothing one run does may reach the other).
#[test]
fn soa_small_suite_is_bit_identical_across_presets_and_thread_counts() {
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
        let reference = run_suite(&cfg);
        let reruns = SimPool::new(2).run(vec![cfg.clone(), cfg], |cfg| run_suite(&cfg));
        for rerun in &reruns {
            assert_reports_bit_identical(&reference, rerun, "serial vs two pool threads");
        }
    }
}

fn micro_kernels() -> Vec<(Kernel, LaunchConfig)> {
    vec![
        (micro::cluster_step_kernel(64), LaunchConfig::linear(4, 64)),
        (micro::lfsr_kernel(16, 32), LaunchConfig::linear(2, 64)),
        (
            micro::mandelbrot_kernel(32, 16),
            LaunchConfig::linear(2, 64),
        ),
        (micro::divergence_kernel(3), LaunchConfig::linear(2, 64)),
        (micro::conflict_kernel(8, 16), LaunchConfig::linear(2, 32)),
    ]
}

/// A sweep over N configs returns exactly what N independent
/// `Gpu::new` + `launch` runs return, in config order, regardless of
/// pool width — on every micro kernel and both presets, including a
/// repeated config (which must not share mutable state).
#[test]
fn run_sweep_matches_independent_launches_bit_for_bit() {
    let configs = [GpuConfig::gt240(), GpuConfig::gtx580(), GpuConfig::gt240()];
    for (kernel, launch) in micro_kernels() {
        let independent: Vec<LaunchReport> = configs
            .iter()
            .map(|cfg| {
                Gpu::new(cfg.clone())
                    .expect("preset builds")
                    .launch(&kernel, launch)
                    .expect("independent launch runs")
            })
            .collect();

        for threads in [1, 4] {
            let swept: Vec<LaunchReport> = SimPool::new(threads)
                .run_sweep(&kernel, &configs, |_, _| Ok(launch))
                .into_iter()
                .map(|r| r.expect("sweep member runs"))
                .collect();
            assert_reports_bit_identical(
                &independent,
                &swept,
                &format!("sweep vs independent ({threads} pool threads)"),
            );
        }
    }
}
