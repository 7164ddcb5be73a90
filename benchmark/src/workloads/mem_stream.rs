//! `mem_stream` — `Benchmark::run` of three memory-bound Table I
//! programs on both presets, one thread.
//!
//! About a quarter of their warp instructions touch memory and each
//! costs the host roughly thirty times what an `alu_probe` instruction
//! does: the load/store unit, the coalescer, the event-driven uncore
//! and fast-forward do most of the work and the ALU path little. An
//! issue-path optimisation should leave this workload flat; an uncore
//! one should move it.

use gpusimpow_kernels::bfs::Bfs;
use gpusimpow_kernels::scalarprod::ScalarProd;
use gpusimpow_kernels::vectoradd::VectorAdd;
use gpusimpow_kernels::Benchmark;
use gpusimpow_sim::GpuConfig;

use crate::span::Tracer;
use crate::workload::{new_gpu, presets, Ctx, Layer, Pass, Workload};
use crate::workloads::benchmark_op;

/// The three host programs.
pub struct MemStream {
    benches: Vec<Box<dyn Benchmark>>,
    configs: [GpuConfig; 2],
}

impl Workload for MemStream {
    fn setup(ctx: &Ctx) -> Self {
        MemStream {
            benches: vec![
                Box::new(VectorAdd {
                    n: ctx.size(131_072, 2048),
                }),
                Box::new(ScalarProd {
                    pairs: ctx.size(32, 4),
                    elements: ctx.size(4096, 512),
                }),
                Box::new(Bfs {
                    nodes: ctx.size(2048, 512),
                    degree: ctx.size(6, 4),
                }),
            ],
            configs: presets(),
        }
    }

    fn pass(&mut self, _ctx: &Ctx, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for cfg in &self.configs {
            let mut gpu = tr.scope("sim.gpu_new", 0, |_| new_gpu(cfg));
            for bench in &self.benches {
                benchmark_op(bench.as_ref(), &mut gpu, tr, &mut pass);
            }
        }
        pass
    }

    fn ledger(&mut self, _ctx: &Ctx, _tr: &mut Tracer, _layer: &mut Layer) -> f64 {
        // Everything this workload attributes comes from the spans and
        // counters of its traced passes.
        1.0
    }
}
