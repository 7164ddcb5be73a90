//! `serve_cold` — closed loop of `T` clients against a fresh
//! self-hosted server; every job of a pass is unique, so every job
//! misses.
//!
//! Validation, simulation, `pm` replay, result encoding and store
//! *writes* (memory and disk) all run; clients block in `read` while
//! their job simulates, so runnable threads stay at `T`. The mirror
//! image of `serve_warm` on the same `serve.store`.

use std::sync::Arc;

use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::common::XorShift;
use gpusimpow_kernels::micro;
use gpusimpow_pm::PowerTracer;
use gpusimpow_power::GpuChip;
use gpusimpow_serve::proto::{decode_result, encode_result, ResultSource};
use gpusimpow_serve::{
    run_job, GovernorSpec, GpuPreset, JobDigest, JobOutcome, JobSpec, KernelSpec, ResultStore,
    StatsSnapshot, StoreConfig,
};
use gpusimpow_sim::WindowRecorder;

use crate::host::TempDir;
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{new_gpu, Ctx, Layer, Pass, Workload};
use crate::workloads::median_time_s;
use crate::workloads::serve::{
    closed_loop, cycles_in_payload, fold_replies, median_span_us, shares, shuffle, stats_to_layer,
    Hosted, Judged,
};

/// Sampling window of the windowed half of the jobs, shader cycles.
const WINDOW_CYCLES: u64 = 256;
/// One job in this many has its payload compared byte for byte with an
/// in-process `run_job` of the same spec.
const VERIFY_EVERY: usize = 16;
/// The in-process stage path runs one micro-kernel job in this many.
/// Odd, so the sample walks through all four (preset, windowed)
/// variants of the job list instead of landing on one.
const STAGE_EVERY: usize = 7;

/// The job list and what to compare replies with.
pub struct ServeCold {
    /// The pass's unique jobs, in canonical (unshuffled) order.
    jobs: Vec<JobSpec>,
    /// Submit order, shuffled by the seed.
    order: Vec<usize>,
    /// `encode_result(run_job(spec))` for every `VERIFY_EVERY`-th job.
    reference: Vec<(usize, Vec<u8>)>,
    /// Server counters of the latest pass.
    last_stats: StatsSnapshot,
    /// Client-side latency of each job in the latest pass, by job index.
    last_latency_ms: Vec<f64>,
}

/// The kernels every pass submits: ten parameter steps of each of the
/// five micro kernels plus ten small-suite programs. The set is fixed,
/// so the simulated work of a pass — and with it `sim_cycles` — is the
/// same for every seed.
fn kernel_specs(ctx: &Ctx) -> Vec<KernelSpec> {
    let steps = ctx.size(10, 1);
    let mut specs = Vec::new();
    for v in 0..steps {
        specs.push(KernelSpec::ClusterStep {
            iterations: 160 + 8 * v,
            blocks: 8,
            threads: 128,
        });
        specs.push(KernelSpec::Lfsr {
            lanes: 32 - v,
            iterations: 16 + v,
            blocks: 12,
            threads: 128,
        });
        specs.push(KernelSpec::Mandelbrot {
            lanes: 32 - v,
            iterations: 40 + 2 * v,
            blocks: 12,
            threads: 128,
        });
        specs.push(KernelSpec::Divergence {
            depth: 1 + v % 5,
            blocks: 24 + 2 * v,
            threads: 128,
        });
        specs.push(KernelSpec::Conflict {
            stride: 1 + 3 * v,
            iterations: 256 + 8 * v,
            blocks: 12,
            threads: 32,
        });
        specs.push(KernelSpec::Suite {
            index: v as u8,
            small: true,
        });
    }
    specs
}

/// Every kernel × both presets × {whole-launch only, windowed under a
/// governor}. The seed picks each windowed job's governor (`Ondemand`
/// or a `PowerCap` with a drawn budget); governors price the recorded
/// windows after the simulation and change no simulated cycle.
fn build_jobs(ctx: &Ctx, rng: &mut XorShift) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for kernel in kernel_specs(ctx) {
        for gpu in [GpuPreset::Gt240, GpuPreset::Gtx580] {
            jobs.push(JobSpec {
                kernel: kernel.clone(),
                gpu,
                governor: GovernorSpec::Baseline,
                window_cycles: 0,
            });
            let governor = if rng.next_below(2) == 0 {
                GovernorSpec::Ondemand
            } else {
                GovernorSpec::PowerCap {
                    cap_mw: 20_000 + u64::from(rng.next_below(60_000)),
                }
            };
            jobs.push(JobSpec {
                kernel: kernel.clone(),
                gpu,
                governor,
                window_cycles: WINDOW_CYCLES,
            });
        }
    }
    jobs
}

impl ServeCold {
    /// The layer calls `run_job` makes, made from here so each carries
    /// a span, for one micro-kernel job. Returns the number of `pm`
    /// windows priced.
    fn stage_job(spec: &JobSpec, op: u64, store: &mut ResultStore, tr: &mut Tracer) -> u64 {
        let bytes = tr.scope("serve.job.canonical", op, |_| spec.canonical_bytes());
        let digest = tr.scope("serve.digest.compute", op, |_| JobDigest::compute(&bytes));
        tr.scope("serve.job.validate", op, |_| {
            std::hint::black_box(spec.validate().is_ok());
        });
        let cfg = spec.gpu.config();
        let chip = tr
            .scope("power.chip_new", op, |_| GpuChip::new(&cfg))
            .expect("stock presets build a chip model");
        let mut gpu = tr.scope("sim.gpu_new", op, |_| new_gpu(&cfg));
        let (kernel, launch) = tr.scope("kernels.build", op, |_| match spec.kernel {
            KernelSpec::ClusterStep {
                iterations,
                blocks,
                threads,
            } => (
                micro::cluster_step_kernel(iterations),
                LaunchConfig::linear(blocks, threads),
            ),
            KernelSpec::Lfsr {
                lanes,
                iterations,
                blocks,
                threads,
            } => (
                micro::lfsr_kernel(lanes, iterations),
                LaunchConfig::linear(blocks, threads),
            ),
            KernelSpec::Mandelbrot {
                lanes,
                iterations,
                blocks,
                threads,
            } => (
                micro::mandelbrot_kernel(lanes, iterations),
                LaunchConfig::linear(blocks, threads),
            ),
            KernelSpec::Divergence {
                depth,
                blocks,
                threads,
            } => (
                micro::divergence_kernel(depth),
                LaunchConfig::linear(blocks, threads),
            ),
            KernelSpec::Conflict {
                stride,
                iterations,
                blocks,
                threads,
            } => (
                micro::conflict_kernel(stride, iterations),
                LaunchConfig::linear(blocks, threads),
            ),
            KernelSpec::Suite { .. } | KernelSpec::Trace { .. } => {
                unreachable!("the stage path samples micro-kernel jobs only")
            }
        });
        let mut recorder = WindowRecorder::new();
        let report = tr
            .scope("sim.launch", op, |_| {
                if spec.window_cycles > 0 {
                    gpu.launch_with_sink(&kernel, launch, spec.window_cycles, &mut recorder)
                } else {
                    gpu.launch(&kernel, launch)
                }
            })
            .expect("the server ran this job already");
        tr.scope("power.evaluate_scoped", op, |_| {
            std::hint::black_box(chip.evaluate_scoped(
                &report.kernel,
                &report.stats,
                &report.scoped,
            ));
        });
        let mut windows = 0;
        if spec.window_cycles > 0 {
            let tracer = PowerTracer::new(chip);
            let mut governor = spec.governor.build();
            for launch in recorder.launches() {
                windows += launch.windows.len() as u64;
                tr.scope("pm.replay", op, |_| {
                    std::hint::black_box(tracer.replay(launch, governor.as_mut()));
                });
            }
        }

        // The encoded result comes from `run_job` itself (its trace
        // flattening is private to `serve`); the span is the whole job
        // as one worker runs it, the base of `serve.rpc.cold_overhead_ms`.
        let result = tr
            .scope("serve.job.run", op, |_| run_job(spec))
            .expect("the server ran this job already");
        let payload = tr.scope("serve.proto.encode_result", op, |_| encode_result(&result));
        tr.scope("serve.proto.decode_result", op, |_| {
            std::hint::black_box(decode_result(&payload).is_ok());
        });
        tr.scope("serve.store.insert", op, |_| {
            store.insert(digest, Arc::new(payload));
        });
        windows
    }
}

impl Workload for ServeCold {
    fn setup(ctx: &Ctx) -> Self {
        let mut rng = XorShift::new(ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC01D);
        let jobs = build_jobs(ctx, &mut rng);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        shuffle(&mut order, &mut rng);
        let reference = (0..jobs.len())
            .step_by(VERIFY_EVERY)
            .map(|i| {
                let result = run_job(&jobs[i])
                    .unwrap_or_else(|e| panic!("reference run of job {i} failed: {e}"));
                (i, encode_result(&result))
            })
            .collect();
        ServeCold {
            last_latency_ms: vec![0.0; jobs.len()],
            jobs,
            order,
            reference,
            last_stats: StatsSnapshot::default(),
        }
    }

    fn pass(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let dir = TempDir::new("serve_cold");
        let hosted = tr.scope("serve.server.start", 0, |_| {
            Hosted::start(dir.path(), 1024, ctx.threads)
        });

        let judge = |job: usize, outcome: &JobOutcome| -> Judged {
            let Ok(payload) = &outcome.payload else {
                return Judged {
                    ok: false,
                    cycles: 0,
                };
            };
            let cycles = cycles_in_payload(payload, self.jobs[job].gpu);
            let matches_reference = self
                .reference
                .iter()
                .find(|(i, _)| *i == job)
                .is_none_or(|(_, want)| want == payload);
            Judged {
                ok: outcome.source == ResultSource::Simulated
                    && cycles.is_some()
                    && matches_reference,
                cycles: cycles.unwrap_or(0),
            }
        };
        let (wall_s, replies) = closed_loop(
            hosted.addr(),
            &self.jobs,
            &shares(&self.order, ctx.threads),
            tr,
            &judge,
        );
        fold_replies(&mut pass, wall_s, &replies);
        for reply in &replies {
            self.last_latency_ms[reply.job] = reply.latency_ms;
        }

        let stats = hosted.stats();
        let n = self.jobs.len() as u64;
        pass.check(stats.errors == 0, || {
            format!("server counted {} errors", stats.errors)
        });
        pass.check(stats.misses_simulated == n, || {
            format!("{} of {n} jobs were simulated", stats.misses_simulated)
        });
        pass.check(stats.disk_writes == n, || {
            format!("{} of {n} results reached the disk tier", stats.disk_writes)
        });
        self.last_stats = stats;
        tr.scope("serve.server.stop", 0, |_| drop(hosted));
        pass
    }

    fn ledger(&mut self, _ctx: &Ctx, tr: &mut Tracer, layer: &mut Layer) -> f64 {
        stats_to_layer(&self.last_stats, layer);

        let dir = TempDir::new("serve_cold_stage");
        let mut store = ResultStore::new(StoreConfig {
            dir: Some(dir.path().to_path_buf()),
            mem_capacity: 1024,
        })
        .expect("scratch store directory is writable");
        let sampled: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| !matches!(self.jobs[i].kernel, KernelSpec::Suite { .. }))
            .step_by(STAGE_EVERY)
            .collect();
        let mut windows = 0;
        for &i in &sampled {
            windows += Self::stage_job(&self.jobs[i], i as u64, &mut store, tr);
        }
        let scale = self.jobs.len() as f64 / sampled.len() as f64;
        layer.insert("pm.windows", windows as f64 * scale);
        let pm_s: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.name == "pm.replay")
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum();
        if windows > 0 {
            layer.insert("pm.us_per_window", pm_s * 1e6 / windows as f64);
        }
        layer.insert(
            "serve.store.insert_us",
            median_span_us(tr, "serve.store.insert"),
        );

        // Queueing + transport + contention: what the client waited for
        // the sampled jobs, less what one worker needs for the same
        // jobs in process.
        let client_ms: Vec<f64> = sampled.iter().map(|&i| self.last_latency_ms[i]).collect();
        layer.insert(
            "serve.rpc.cold_overhead_ms",
            median(&client_ms) - median_span_us(tr, "serve.job.run") * 1e-3,
        );

        // What the window recorder costs a launch: the first windowed
        // job's kernel with a 64-cycle recorder against a plain launch.
        let (kernel, launch) = (
            micro::cluster_step_kernel(160),
            LaunchConfig::linear(8, 128),
        );
        let mut gpu = new_gpu(&GpuPreset::Gt240.config());
        let plain_s = median_time_s(3, || gpu.launch(&kernel, launch).is_ok());
        let sunk_s = median_time_s(3, || {
            gpu.launch_with_sink(&kernel, launch, 64, &mut WindowRecorder::new())
                .is_ok()
        });
        layer.insert("sim.sink_overhead_ratio", sunk_s / plain_s);
        scale
    }

    const CLOSED_LOOP: bool = true;
}
