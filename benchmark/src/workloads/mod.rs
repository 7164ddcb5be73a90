//! The six workloads and the helpers they share.

use std::time::Instant;

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_kernels::Benchmark;
use gpusimpow_sim::{ActivitySink, ActivityWindow, Gpu, GpuConfig, LaunchReport};

use crate::span::Tracer;
use crate::workload::Pass;

pub mod alu_probe;
pub mod mem_stream;
pub mod serve;
pub mod serve_cold;
pub mod serve_warm;
pub mod suite_live;
pub mod trace_sweep;

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` `n` times and returns the median wall time of one call, in
/// seconds — the stop-watch behind every layer probe.
pub fn median_time_s<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            secs(t)
        })
        .collect();
    crate::stats::median(&samples)
}

/// Timestamps the launches a host program makes from inside
/// `Benchmark::run`, through the simulator's public sink hooks. The
/// window is `u64::MAX` cycles, so no window boundary is ever reached
/// and the launch takes the same path as an unobserved one.
#[derive(Debug)]
struct LaunchTimer {
    epoch: Instant,
    begun_ns: u64,
    launches: Vec<(u64, u64)>,
}

impl LaunchTimer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl ActivitySink for LaunchTimer {
    fn on_launch_begin(&mut self, _kernel: &str, _window_cycles: u64) {
        self.begun_ns = self.now_ns();
    }

    fn on_window(&mut self, _window: &ActivityWindow) {}

    fn on_launch_end(&mut self, _report: &LaunchReport) {
        self.launches.push((self.begun_ns, self.now_ns()));
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// One `Gpu::launch` as an operation of `pass`: timed, spanned, counted
/// and folded into the pass's fingerprint. A failed launch is a failed
/// operation.
pub fn launch_op(
    gpu: &mut Gpu,
    kernel: &Kernel,
    launch: LaunchConfig,
    tr: &mut Tracer,
    pass: &mut Pass,
) {
    let op = pass.latencies_ms.len() as u64;
    let t = Instant::now();
    let result = tr.scope("sim.launch", op, |_| gpu.launch(kernel, launch));
    pass.latencies_ms.push(secs(t) * 1e3);
    match result {
        Ok(report) => {
            pass.attempted += 1;
            record_launch(gpu.config(), &report, pass);
        }
        Err(e) => pass.check(false, || format!("launch of {} failed: {e}", kernel.name())),
    }
}

/// Folds one launch report into the pass's counters and fingerprint.
pub fn record_launch(cfg: &GpuConfig, report: &LaunchReport, pass: &mut Pass) {
    pass.sim_cycles += report.stats.shader_cycles;
    pass.activity.add(cfg, report);
    pass.fingerprint.launch(report);
}

/// One `Benchmark::run` (host program, launches, CPU verification) as
/// an operation of `pass`. With an enabled tracer the launches inside
/// it appear as `sim.launch` child spans of `kernels.run`.
pub fn benchmark_op(bench: &dyn Benchmark, gpu: &mut Gpu, tr: &mut Tracer, pass: &mut Pass) {
    let op = pass.latencies_ms.len() as u64;
    let t = Instant::now();
    let result = run_benchmark(bench, gpu, tr, op);
    pass.latencies_ms.push(secs(t) * 1e3);
    match result {
        Some(reports) => {
            pass.attempted += 1;
            for report in &reports {
                record_launch(gpu.config(), report, pass);
            }
        }
        None => pass.check(false, || format!("{} failed", bench.name())),
    }
}

/// `bench.run(gpu)` inside a `kernels.run` span; `None` (after printing
/// why) when the simulator fails or the CPU reference disagrees.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    gpu: &mut Gpu,
    tr: &mut Tracer,
    op: u64,
) -> Option<Vec<LaunchReport>> {
    let span = tr.begin("kernels.run", op);
    if tr.enabled() {
        gpu.attach_sink(
            u64::MAX,
            Box::new(LaunchTimer {
                epoch: tr.epoch(),
                begun_ns: 0,
                launches: Vec::new(),
            }),
        );
    }
    let result = bench.run(gpu);
    if let Some(mut sink) = gpu.detach_sink() {
        let timer = sink
            .as_any_mut()
            .and_then(|any| any.downcast_mut::<LaunchTimer>())
            .expect("the sink attached above is a LaunchTimer");
        for &(start, end) in &timer.launches {
            tr.record("sim.launch", op, start, end);
        }
    }
    tr.end(span);
    result.map_err(|e| eprintln!("{}: {e}", bench.name())).ok()
}
