//! `serve_warm` — closed loop of `T` clients against a server whose
//! cache already holds every job they ask for.
//!
//! Simulation does nothing here (`misses_simulated` must stay where the
//! prefill left it): frame I/O, `canonical_bytes`, the digest, the
//! cache probe, store *reads*, LRU churn and the cache mutex are the
//! whole cost. Four requests in five go to a hot set that fits the
//! memory tier; the fifth is uniform over every prefilled job, so it
//! mostly lands on disk and forces a promotion and an eviction.

use std::sync::Arc;

use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::common::XorShift;
use gpusimpow_kernels::micro;
use gpusimpow_serve::proto::{decode_result, encode_result, ResultSource};
use gpusimpow_serve::store::StoreTier;
use gpusimpow_serve::{
    Client, GovernorSpec, GpuPreset, JobDigest, JobOutcome, JobSpec, KernelSpec, ResultStore,
    StatsSnapshot, StoreConfig,
};
use gpusimpow_trace::KernelTrace;

use crate::host::TempDir;
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{new_gpu, Ctx, Layer, Pass, Workload};
use crate::workloads::median_time_s;
use crate::workloads::serve::{
    closed_loop, cycles_in_payload, fold_replies, median_span_us, shares, shuffle, stats_delta,
    stats_to_layer, Hosted, Judged,
};

/// Memory-tier entries: twice the hot set, a quarter of the jobs.
const MEM_CAPACITY: usize = 64;
/// Jobs in the hot set (the first this-many of the job list).
const HOT_JOBS: usize = 32;
/// The stage path replays one request in this many.
const STAGE_EVERY: usize = 16;

/// A prefilled server and the request stream against it.
pub struct ServeWarm {
    // Dropped in declaration order: the server goes down before its
    // store directory is removed.
    hosted: Hosted,
    _dir: TempDir,
    jobs: Vec<JobSpec>,
    /// The payload the prefill got for each job.
    payloads: Vec<Vec<u8>>,
    /// Simulated cycles in each job's payload.
    cycles: Vec<u64>,
    /// One pass's requests (job indices), shuffled by the seed.
    requests: Vec<usize>,
    /// Requests answered so far (the server's hit counters must match).
    sent: u64,
    /// Server counters after the prefill.
    prefilled: StatsSnapshot,
    /// Server counters over the latest pass.
    last_stats: StatsSnapshot,
    /// Median client latency of the latest pass, milliseconds.
    last_p50_ms: f64,
}

/// 256 small windowed jobs: four micro kernels × both presets × 32
/// parameter steps. Small on purpose — the workload is about serving
/// results, and the prefill is set-up.
fn build_jobs(ctx: &Ctx) -> Vec<JobSpec> {
    let steps = ctx.size(32, 6);
    let mut jobs = Vec::new();
    for v in 0..steps {
        for gpu in [GpuPreset::Gt240, GpuPreset::Gtx580] {
            let kernels = [
                KernelSpec::ClusterStep {
                    iterations: 16 + v,
                    blocks: 4,
                    threads: 64,
                },
                KernelSpec::Lfsr {
                    lanes: 1 + v % 32,
                    iterations: 4,
                    blocks: 4,
                    threads: 64,
                },
                KernelSpec::Mandelbrot {
                    lanes: 1 + v % 32,
                    iterations: 8,
                    blocks: 4,
                    threads: 64,
                },
                KernelSpec::Conflict {
                    stride: 1 + v,
                    iterations: 16,
                    blocks: 4,
                    threads: 32,
                },
            ];
            for kernel in kernels {
                jobs.push(JobSpec {
                    kernel,
                    gpu,
                    governor: GovernorSpec::Ondemand,
                    window_cycles: 128,
                });
            }
        }
    }
    jobs
}

impl Workload for ServeWarm {
    fn setup(ctx: &Ctx) -> Self {
        let jobs = build_jobs(ctx);
        let dir = TempDir::new("serve_warm");
        let hosted = Hosted::start(dir.path(), MEM_CAPACITY, ctx.threads);

        // Prefill through the front door, T clients, one job each.
        let all: Vec<usize> = (0..jobs.len()).collect();
        let filled = std::sync::Mutex::new(vec![None; jobs.len()]);
        let keep = |job: usize, outcome: &JobOutcome| -> Judged {
            let payload = outcome.payload.clone().ok();
            let ok = payload.is_some() && outcome.source == ResultSource::Simulated;
            filled.lock().expect("no client panicked")[job] = payload;
            Judged { ok, cycles: 0 }
        };
        let (_, replies) = closed_loop(
            hosted.addr(),
            &jobs,
            &shares(&all, ctx.threads),
            &mut Tracer::new(false),
            &keep,
        );
        assert!(
            replies.iter().all(|r| r.judged.ok),
            "prefill: every job must simulate once"
        );
        let payloads: Vec<Vec<u8>> = filled
            .into_inner()
            .expect("no client panicked")
            .into_iter()
            .map(|p| p.expect("checked above"))
            .collect();
        let cycles = payloads
            .iter()
            .zip(&jobs)
            .map(|(p, job)| cycles_in_payload(p, job.gpu).expect("prefill payloads decode"))
            .collect();

        // A fixed multiset of requests — every hot job `hot_reps` times,
        // every job `all_reps` times — in seeded order, so the simulated
        // cycles a pass delivers are the same for every seed.
        let (hot_reps, all_reps) = if ctx.smoke { (10, 1) } else { (1000, 31) };
        let mut requests = Vec::new();
        for (job, _) in jobs.iter().enumerate() {
            let reps = all_reps + if job < HOT_JOBS { hot_reps } else { 0 };
            requests.extend(std::iter::repeat_n(job, reps));
        }
        let mut rng = XorShift::new(ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x3A93);
        shuffle(&mut requests, &mut rng);

        let prefilled = hosted.stats();
        ServeWarm {
            hosted,
            _dir: dir,
            jobs,
            payloads,
            cycles,
            requests,
            sent: 0,
            prefilled,
            last_stats: StatsSnapshot::default(),
            last_p50_ms: 0.0,
        }
    }

    fn pass(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let before = self.hosted.stats();
        let corrupt = ctx.corrupt_payloads;
        let judge = |job: usize, outcome: &JobOutcome| -> Judged {
            let hit = matches!(
                outcome.source,
                ResultSource::MemoryHit | ResultSource::DiskHit
            );
            let same = match &outcome.payload {
                // Self-test hook: a flipped byte must fail the check.
                Ok(payload) if corrupt && job.is_multiple_of(7) => {
                    let mut bent = payload.clone();
                    bent[0] ^= 1;
                    bent == self.payloads[job]
                }
                Ok(payload) => *payload == self.payloads[job],
                Err(_) => false,
            };
            Judged {
                ok: hit && same,
                cycles: self.cycles[job],
            }
        };
        let (wall_s, replies) = closed_loop(
            self.hosted.addr(),
            &self.jobs,
            &shares(&self.requests, ctx.threads),
            tr,
            &judge,
        );
        fold_replies(&mut pass, wall_s, &replies);
        self.sent += replies.len() as u64;
        self.last_p50_ms = median(&pass.latencies_ms);

        let after = self.hosted.stats();
        let since_prefill = stats_delta(&self.prefilled, &after);
        pass.check(after.errors == 0, || {
            format!("server counted {} errors", after.errors)
        });
        pass.check(since_prefill.misses_simulated == 0, || {
            format!(
                "{} warm requests were simulated",
                since_prefill.misses_simulated
            )
        });
        pass.check(
            since_prefill.hits_mem + since_prefill.hits_disk == self.sent,
            || {
                format!(
                    "{} memory + {} disk hits for {} warm requests",
                    since_prefill.hits_mem, since_prefill.hits_disk, self.sent
                )
            },
        );
        self.last_stats = stats_delta(&before, &after);
        pass
    }

    fn ledger(&mut self, ctx: &Ctx, tr: &mut Tracer, layer: &mut Layer) -> f64 {
        stats_to_layer(&self.last_stats, layer);

        // The server's hit path, stage by stage, against a store of the
        // same shape holding the same payloads.
        let stage_dir = TempDir::new("serve_warm_stage");
        let mut store = ResultStore::new(StoreConfig {
            dir: Some(stage_dir.path().to_path_buf()),
            mem_capacity: MEM_CAPACITY,
        })
        .expect("scratch store directory is writable");
        for (job, payload) in self.jobs.iter().zip(&self.payloads) {
            store.insert(job.digest(), Arc::new(payload.clone()));
        }
        let sampled: Vec<usize> = self.requests.iter().copied().step_by(STAGE_EVERY).collect();
        let (mut mem_us, mut disk_us) = (Vec::new(), Vec::new());
        for (n, &job) in sampled.iter().enumerate() {
            let op = n as u64;
            let spec = &self.jobs[job];
            let bytes = tr.scope("serve.job.canonical", op, |_| spec.canonical_bytes());
            let digest = tr.scope("serve.digest.compute", op, |_| JobDigest::compute(&bytes));
            tr.scope("serve.job.validate", op, |_| {
                std::hint::black_box(spec.validate().is_ok());
            });
            let t = tr.now_ns();
            let hit = tr.scope("serve.store.get", op, |_| store.get(digest));
            let us = (tr.now_ns() - t) as f64 * 1e-3;
            match hit {
                Some((_, StoreTier::Memory)) => mem_us.push(us),
                Some((_, StoreTier::Disk)) => disk_us.push(us),
                None => eprintln!("stage path: job {job} missing from the scratch store"),
            }
            // The client side of a reply, were the caller to read it.
            if n % STAGE_EVERY == 0 {
                let result = tr
                    .scope("serve.proto.decode_result", op, |_| {
                        decode_result(&self.payloads[job])
                    })
                    .expect("prefill payloads decode");
                let again = tr.scope("serve.proto.encode_result", op, |_| encode_result(&result));
                layer.insert("serve.proto.payload_bytes", again.len() as f64);
            }
        }
        let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        layer.insert("serve.store.get_mem_us", median_or_zero(&mem_us));
        layer.insert("serve.store.get_disk_us", median_or_zero(&disk_us));

        // Transport alone, and what the round trip adds to the stages.
        let mut client = Client::connect(self.hosted.addr()).expect("server is up");
        let ping_s = median_time_s(200, || client.ping().is_ok());
        layer.insert("serve.rpc.ping_us", ping_s * 1e6);
        let stages_us = median_span_us(tr, "serve.job.canonical")
            + median_span_us(tr, "serve.digest.compute")
            + median_span_us(tr, "serve.job.validate")
            + median_span_us(tr, "serve.store.get");
        layer.insert(
            "serve.rpc.hit_overhead_us",
            self.last_p50_ms * 1e3 - stages_us,
        );

        // Digest throughput on a preimage that is not tiny: the
        // canonical bytes of a job embedding a captured trace.
        let mut gpu = new_gpu(&GpuPreset::Gt240.config());
        let (_, trace) = gpu
            .launch_traced(
                &micro::cluster_step_kernel(ctx.size(2048, 64)),
                LaunchConfig::linear(8, 128),
            )
            .expect("the Fig. 4 probe fits GT240");
        let preimage = JobSpec {
            kernel: KernelSpec::Trace {
                bytes: KernelTrace::encode(&trace),
            },
            gpu: GpuPreset::Gt240,
            governor: GovernorSpec::Baseline,
            window_cycles: 0,
        }
        .canonical_bytes();
        let digest_s = median_time_s(9, || JobDigest::compute(&preimage));
        layer.insert(
            "serve.digest.mb_per_s",
            preimage.len() as f64 / 1e6 / digest_s,
        );

        self.requests.len() as f64 / sampled.len() as f64
    }

    const CLOSED_LOOP: bool = true;
}
