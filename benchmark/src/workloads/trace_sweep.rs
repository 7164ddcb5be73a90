//! `trace_sweep` — decode captured GSPT traces and replay each across
//! both presets through `SimPool::run_sweep_replay` on `T` threads.
//!
//! The same `sim` timing pipeline as the live workloads, used
//! differently: no functional execution, streams read from bytes, pool
//! fan-out. A live-path gain that taxes replay (or the reverse) shows
//! here and nowhere else.

use std::time::Instant;

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_kernels::blackscholes::BlackScholes;
use gpusimpow_kernels::vectoradd::VectorAdd;
use gpusimpow_kernels::{micro, Benchmark};
use gpusimpow_sim::{GpuConfig, LaunchReport, SimPool};
use gpusimpow_trace::KernelTrace;

use crate::span::Tracer;
use crate::workload::{new_gpu, presets, Ctx, Fingerprint, Layer, Pass, Workload};
use crate::workloads::{median_time_s, record_launch, secs};

/// Encoded traces plus the live reports they were captured from.
pub struct TraceSweep {
    /// `KernelTrace::encode` output, one per captured launch.
    blobs: Vec<Vec<u8>>,
    /// The GT240 live report of each captured launch.
    live: Vec<LaunchReport>,
    configs: [GpuConfig; 2],
    pool: SimPool,
    /// The live kernel behind `blobs[0]`, for the live-vs-replay and
    /// capture-overhead probes.
    probe: (Kernel, LaunchConfig),
}

fn identical(a: &LaunchReport, b: &LaunchReport) -> bool {
    let digest = |r: &LaunchReport| {
        let mut f = Fingerprint::default();
        f.launch(r);
        f
    };
    digest(a) == digest(b)
}

impl Workload for TraceSweep {
    fn setup(ctx: &Ctx) -> Self {
        let configs = presets();
        let probe = (
            micro::cluster_step_kernel(ctx.size(2048, 64)),
            LaunchConfig::linear(8, 128),
        );
        let mut gpu = new_gpu(&configs[0]);
        let (report, trace) = gpu
            .launch_traced(&probe.0, probe.1)
            .expect("the Fig. 4 probe fits both presets");
        let mut live = vec![report];
        let mut traces = vec![trace];

        let programs: [Box<dyn Benchmark>; 2] = [
            Box::new(BlackScholes {
                options: ctx.size(8192, 1024),
            }),
            Box::new(VectorAdd {
                n: ctx.size(32_768, 2048),
            }),
        ];
        for program in &programs {
            let mut gpu = new_gpu(&configs[0]);
            gpu.set_tracing(true);
            let reports = program
                .run(&mut gpu)
                .unwrap_or_else(|e| panic!("capture run of {} failed: {e}", program.name()));
            live.extend(reports);
            traces.extend(gpu.take_traces());
        }
        assert_eq!(live.len(), traces.len(), "one trace per captured launch");

        TraceSweep {
            blobs: traces.iter().map(KernelTrace::encode).collect(),
            live,
            configs,
            pool: SimPool::new(ctx.threads),
            probe,
        }
    }

    fn pass(&mut self, _ctx: &Ctx, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for (i, blob) in self.blobs.iter().enumerate() {
            let op = i as u64;
            let t = Instant::now();
            let decoded = tr.scope("trace.decode", op, |_| KernelTrace::decode(blob));
            let results = decoded.map(|trace| {
                tr.scope("sim.sweep_replay", op, |_| {
                    self.pool
                        .run_sweep_replay(&trace, &self.configs, |_, _| Ok(()))
                })
            });
            pass.latencies_ms.push(secs(t) * 1e3);
            let results = match results {
                Ok(results) => results,
                Err(e) => {
                    pass.check(false, || format!("trace {i} failed to decode: {e}"));
                    continue;
                }
            };
            for (j, (cfg, result)) in self.configs.iter().zip(results).enumerate() {
                match result {
                    Ok(report) => {
                        pass.attempted += 1;
                        record_launch(cfg, &report, &mut pass);
                        // Slot 0 is the preset the trace was captured on.
                        if j == 0 {
                            pass.check(identical(&report, &self.live[i]), || {
                                format!("replay of trace {i} differs from its live capture run")
                            });
                        }
                    }
                    Err(e) => pass.check(false, || format!("replay of trace {i}: {e}")),
                }
            }
        }
        pass
    }

    fn ledger(&mut self, ctx: &Ctx, tr: &mut Tracer, layer: &mut Layer) -> f64 {
        let traces: Vec<KernelTrace> = self
            .blobs
            .iter()
            .map(|b| KernelTrace::decode(b).expect("decoded in every pass already"))
            .collect();
        let bytes: usize = self.blobs.iter().map(Vec::len).sum();
        let warp_instrs: u64 = traces.iter().map(KernelTrace::warp_instructions).sum();
        layer.insert("trace.bytes", bytes as f64);
        layer.insert(
            "trace.bytes_per_warp_instr",
            bytes as f64 / warp_instrs as f64,
        );
        let decode_s = median_time_s(5, || {
            for blob in &self.blobs {
                std::hint::black_box(KernelTrace::decode(blob).is_ok());
            }
        });
        layer.insert("trace.decode_mb_per_s", bytes as f64 / 1e6 / decode_s);

        // One-thread stage path on GT240: encode, then replay, per trace.
        let gt240 = &self.configs[0];
        for (i, trace) in traces.iter().enumerate() {
            let op = i as u64;
            tr.scope("trace.encode", op, |_| {
                std::hint::black_box(trace.encode());
            });
            let mut gpu = new_gpu(gt240);
            tr.scope("sim.replay", op, |_| {
                std::hint::black_box(gpu.launch_replay(trace).is_ok());
            });
        }

        // Same kernel, same config, one thread: replay against live,
        // and live-with-capture against live.
        let (kernel, launch) = &self.probe;
        let mut gpu = new_gpu(gt240);
        let live_s = median_time_s(3, || gpu.launch(kernel, *launch).is_ok());
        let replay_s = median_time_s(3, || gpu.launch_replay(&traces[0]).is_ok());
        let capture_s = median_time_s(3, || gpu.launch_traced(kernel, *launch).is_ok());
        layer.insert("sim.replay_vs_live_ratio", replay_s / live_s);
        layer.insert("sim.capture_overhead_ratio", capture_s / live_s);

        // Pool fan-out: the whole sweep on one thread against T. With
        // one thread there is nothing to compare, so it reads 0.
        if ctx.threads > 1 {
            let sweep_at = |pool: SimPool| {
                median_time_s(2, || {
                    for trace in &traces {
                        std::hint::black_box(pool.run_sweep_replay(
                            trace,
                            &self.configs,
                            |_, _| Ok(()),
                        ));
                    }
                })
            };
            layer.insert(
                "sim.pool_speedup",
                sweep_at(SimPool::new(1)) / sweep_at(self.pool),
            );
        }
        1.0
    }
}
