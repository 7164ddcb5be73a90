//! `alu_probe` — `Gpu::launch` of the paper's §III-D / Fig. 4 probe
//! kernels on both presets, one thread.
//!
//! Each launch issues at most a couple of dozen global-memory
//! instructions, so fetch / issue / execute inside `Core::tick` does
//! nearly all the host work and the uncore almost none. This is the
//! workload on which a cheaper issue path must show, and on which an
//! uncore change must not.

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_kernels::micro;
use gpusimpow_sim::GpuConfig;

use crate::span::Tracer;
use crate::workload::{new_gpu, presets, Ctx, Layer, Pass, Workload};
use crate::workloads::{launch_op, median_time_s};

/// The probe kernels with their grids.
pub struct AluProbe {
    kernels: Vec<(Kernel, LaunchConfig)>,
    configs: [GpuConfig; 2],
}

fn build_kernels(ctx: &Ctx) -> Vec<(Kernel, LaunchConfig)> {
    vec![
        (
            micro::cluster_step_kernel(ctx.size(2048, 64)),
            LaunchConfig::linear(8, 128),
        ),
        (
            micro::lfsr_kernel(32, ctx.size(512, 16)),
            LaunchConfig::linear(12, 128),
        ),
        (
            micro::mandelbrot_kernel(32, ctx.size(1024, 32)),
            LaunchConfig::linear(12, 128),
        ),
        (micro::divergence_kernel(5), LaunchConfig::linear(24, 128)),
        (
            micro::conflict_kernel(32, ctx.size(1024, 32)),
            LaunchConfig::linear(12, 32),
        ),
    ]
}

impl Workload for AluProbe {
    fn setup(ctx: &Ctx) -> Self {
        AluProbe {
            kernels: build_kernels(ctx),
            configs: presets(),
        }
    }

    fn pass(&mut self, _ctx: &Ctx, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for cfg in &self.configs {
            let mut gpu = tr.scope("sim.gpu_new", 0, |_| new_gpu(cfg));
            for (kernel, launch) in &self.kernels {
                launch_op(&mut gpu, kernel, *launch, tr, &mut pass);
            }
        }
        pass
    }

    fn ledger(&mut self, ctx: &Ctx, tr: &mut Tracer, layer: &mut Layer) -> f64 {
        tr.scope("kernels.build", 0, |_| {
            std::hint::black_box(build_kernels(ctx));
        });

        // Intra-launch fan-out: the same GTX580 launch with the core
        // loop on T threads against one. Reported with T; with one
        // thread there is nothing to compare, so it reads 0.
        if ctx.threads > 1 {
            let (kernel, launch) = &self.kernels[0];
            let time_at = |threads: usize| {
                let mut gpu = new_gpu(&self.configs[1]);
                gpu.set_threads(threads);
                median_time_s(3, || gpu.launch(kernel, *launch).map(|r| r.time_s))
            };
            layer.insert(
                "sim.intra_launch_speedup",
                time_at(1) / time_at(ctx.threads),
            );
        }
        1.0
    }
}
