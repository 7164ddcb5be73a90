//! Bit-identity proofs for the SoA warp pipeline and the one-pass
//! sweep driver.
//!
//! The hot path executes warps as gather → dense-compute → masked
//! scatter over contiguous lane rows, and sweeps reuse one predecoded
//! instruction table across configs. Neither restructuring is allowed
//! to be visible in results: the full small suite must reproduce the
//! reference behaviour bit for bit on both presets, at any `SimPool`
//! width, and through either decode path.

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_kernels::{micro, small_benchmarks};
use gpusimpow_sim::{DecodedInstr, Gpu, GpuConfig, LaunchReport, PredecodedKernel, SimPool};

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

/// The shared predecode split (config-independent base + per-config
/// bank-conflict specialization) reproduces the one-shot decode
/// exactly, field for field, for every micro kernel and preset.
#[test]
fn specialize_equals_one_shot_decode() {
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
        for (kernel, _) in micro_kernels() {
            let shared = PredecodedKernel::new(&kernel);
            assert_eq!(shared.len(), kernel.code().len());
            assert_eq!(
                shared.specialize(&cfg),
                DecodedInstr::decode_kernel(&kernel, &cfg),
                "`{}`",
                kernel.name()
            );
        }
    }
}

/// `PredecodedKernel::specialize` + `launch_decoded` (the sweep fast
/// path) equals plain `launch` (per-launch local decode) bit for bit,
/// on every micro kernel and both presets.
#[test]
fn predecoded_launch_matches_local_decode_bit_for_bit() {
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
        for (kernel, launch) in micro_kernels() {
            let reference = Gpu::new(cfg.clone())
                .expect("preset builds")
                .launch(&kernel, launch)
                .expect("local-decode launch runs");

            let table = PredecodedKernel::new(&kernel).specialize(&cfg);
            let decoded = Gpu::new(cfg.clone())
                .expect("preset builds")
                .launch_decoded(&kernel, launch, &table)
                .expect("predecoded launch runs");

            assert_eq!(reference.stats, decoded.stats, "`{}`", reference.kernel);
            assert_eq!(
                reference.time_s.to_bits(),
                decoded.time_s.to_bits(),
                "`{}`",
                reference.kernel
            );
        }
    }
}

/// A one-pass sweep over N configs returns exactly what N independent
/// `Gpu::new` + `launch` runs return, in config order, regardless of
/// pool width — including repeated configs (which must not share
/// mutable state).
#[test]
fn run_sweep_matches_independent_launches_bit_for_bit() {
    let kernel = micro::cluster_step_kernel(64);
    let launch = LaunchConfig::linear(4, 64);
    let configs = [GpuConfig::gt240(), GpuConfig::gtx580(), GpuConfig::gt240()];

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
