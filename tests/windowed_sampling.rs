//! Windowed activity sampling must be exact: the `+=`-sum of the window
//! deltas a sink observes equals the whole-launch aggregate, counter for
//! counter, for any window width.

use gpusimpow_kernels::common::Benchmark;
use gpusimpow_kernels::matmul::MatrixMul;
use gpusimpow_kernels::vectoradd::VectorAdd;
use gpusimpow_sim::{Gpu, GpuConfig, WindowRecorder};

fn record(bench: &dyn Benchmark, window_cycles: u64) -> Vec<gpusimpow_sim::RecordedLaunch> {
    let mut gpu = Gpu::new(GpuConfig::gt240()).expect("GT240 builds");
    gpu.attach_sink(window_cycles, Box::new(WindowRecorder::new()));
    bench.run(&mut gpu).expect("benchmark verifies");
    let mut sink = gpu.detach_sink().expect("sink attached");
    let recorder = sink
        .as_any_mut()
        .expect("recorder is 'static")
        .downcast_mut::<WindowRecorder>()
        .expect("sink is the recorder");
    std::mem::take(recorder).into_launches()
}

fn assert_windows_sum_to_aggregate(bench: &dyn Benchmark, window_cycles: u64) {
    let launches = record(bench, window_cycles);
    assert!(!launches.is_empty(), "{} ran no launches", bench.name());
    for launch in &launches {
        let report = launch
            .report
            .as_ref()
            .expect("launch completed with a report");
        assert!(!launch.windows.is_empty());

        // Windows are contiguous, ordered and cover the launch exactly.
        let mut expected_start = 0;
        for (i, w) in launch.windows.iter().enumerate() {
            assert_eq!(w.index as usize, i);
            assert_eq!(w.start_cycle, expected_start);
            assert!(w.end_cycle > w.start_cycle);
            assert!(w.cycles() <= window_cycles);
            assert_eq!(w.stats.shader_cycles, w.cycles());
            expected_start = w.end_cycle;
        }
        assert_eq!(expected_start, report.stats.shader_cycles);

        // The aggregate of the deltas is the launch report, exactly.
        let sum = launch.aggregate();
        assert_eq!(
            sum, report.stats,
            "window deltas of `{}` (window {window_cycles}) do not sum to the launch aggregate",
            launch.kernel
        );
    }
}

#[test]
fn matmul_windows_sum_exactly() {
    for window in [64, 1000, 2048, 1 << 20] {
        assert_windows_sum_to_aggregate(&MatrixMul { n: 32 }, window);
    }
}

#[test]
fn vectoradd_windows_sum_exactly() {
    for window in [128, 2048, 1 << 20] {
        assert_windows_sum_to_aggregate(&VectorAdd { n: 2048 }, window);
    }
}

#[test]
fn sampled_launch_matches_unsampled_run() {
    // Sampling must not perturb the simulation itself.
    let bench = MatrixMul { n: 32 };
    let mut plain_gpu = Gpu::new(GpuConfig::gt240()).expect("GT240 builds");
    let plain = bench.run(&mut plain_gpu).expect("verifies");
    let sampled = record(&bench, 512);
    assert_eq!(plain.len(), sampled.len());
    for (p, s) in plain.iter().zip(&sampled) {
        assert_eq!(p.stats, s.report.as_ref().expect("report").stats);
    }
}
