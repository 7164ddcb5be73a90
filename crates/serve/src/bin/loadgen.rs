//! `loadgen` — the service's CI smoke burst: replays a fixed mixed job
//! stream against the simulation service and asserts the cache
//! contract. The repo's throughput and latency numbers come from the
//! `serve_cold` / `serve_warm` workloads of `benchmark/`, not from here.
//!
//! ```text
//! cargo run --release -p gpusimpow-serve --bin loadgen [-- --addr HOST:PORT]
//! ```
//!
//! Without `--addr` an in-process server is started on a loopback port
//! (what CI's service job runs) and its clean shutdown is asserted too.
//! The burst has two phases:
//!
//! 1. **Cold**: one client submits each *unique* job once, serially.
//!    Every job is a miss, so the per-job latency is the true
//!    simulation cost.
//! 2. **Warm**: [`CLIENTS`] concurrent clients replay duplicates of the
//!    phase-1 jobs. Every job must be a cache hit, so the per-job
//!    latency is the service + cache overhead.
//!
//! Asserted: the server-reported hit rate equals [`DUP_RATIO`], every
//! warm job is a hit, the cached median latency is ≥ 10× below the
//! uncached mean, and no job errored.

use gpusimpow_serve::proto::ResultSource;
use gpusimpow_serve::{
    Client, GovernorSpec, GpuPreset, JobSpec, KernelSpec, Server, ServerConfig, StoreConfig,
};

/// Wall-clock readings, isolated in one module so the simlint
/// wall-clock allowance stays confined to the measurement edge.
mod clock {
    // simlint: allow(wall_clock): loadgen asserts the cached-vs-uncached
    // gap in real client-observed latency at the socket edge; these
    // readings never feed simulation results.
    pub use std::time::Instant;

    // simlint: allow(wall_clock): measurement edge only — see module note.
    pub fn now() -> Instant {
        // simlint: allow(wall_clock): measurement edge only — see module note.
        Instant::now()
    }

    // simlint: allow(wall_clock): measurement edge only — see module note.
    pub fn seconds_since(start: Instant) -> f64 {
        start.elapsed().as_secs_f64()
    }
}

/// Jobs in the burst.
const JOBS: usize = 40;
/// Share of the burst that repeats an earlier job.
const DUP_RATIO: f64 = 0.5;
/// Concurrent warm-phase clients.
const CLIENTS: usize = 4;

/// The value of `--addr HOST:PORT` (or `--addr=HOST:PORT`), the one
/// deployment setting.
fn addr_flag(args: &[String]) -> Option<String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--addr" {
            return Some(iter.next().expect("--addr needs a value").clone());
        }
        if let Some(v) = arg.strip_prefix("--addr=") {
            return Some(v.to_string());
        }
    }
    None
}

/// Deterministic stream of small jobs: rotates through the five micro
/// kernels, varying their parameters with the step counter so that
/// distinct `i` give distinct jobs (a collision would show up as a
/// cold-phase hit and fail the hit-rate assertion).
fn candidate_job(i: usize) -> JobSpec {
    // Sized so an uncached job costs a few milliseconds of simulation —
    // enough that the cached-vs-uncached latency gap is unambiguous.
    let step = (i / 5) as u32;
    let kernel = match i % 5 {
        0 => KernelSpec::ClusterStep {
            iterations: 200 + step,
            blocks: 12,
            threads: 128,
        },
        1 => KernelSpec::Lfsr {
            lanes: step % 32 + 1,
            iterations: 160 + step / 32,
            blocks: 12,
            threads: 128,
        },
        2 => KernelSpec::Mandelbrot {
            lanes: step % 32 + 1,
            iterations: 120 + step / 32,
            blocks: 12,
            threads: 128,
        },
        3 => KernelSpec::Divergence {
            depth: step % 5 + 1,
            blocks: 12 + step / 5,
            threads: 128,
        },
        _ => KernelSpec::Conflict {
            stride: step % 32 + 1,
            iterations: 160 + step / 32,
            blocks: 12,
            threads: 32,
        },
    };
    JobSpec {
        kernel,
        gpu: GpuPreset::Gt240,
        governor: GovernorSpec::Ondemand,
        window_cycles: 0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let unique = ((JOBS as f64) * (1.0 - DUP_RATIO)).round() as usize;
    let duplicates = JOBS - unique;

    // Self-hosted unless --addr points at an external server.
    let (addr, server) = match addr_flag(&args) {
        Some(addr) => (addr, None),
        None => {
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: 0,
                store: StoreConfig {
                    dir: None,
                    mem_capacity: 4096,
                },
            })
            .expect("self-hosted server starts");
            (server.local_addr().to_string(), Some(server))
        }
    };
    eprintln!(
        "loadgen: {JOBS} jobs ({unique} unique + {duplicates} duplicates), \
         {CLIENTS} warm clients, server {addr}"
    );

    let specs: Vec<JobSpec> = (0..unique).map(candidate_job).collect();

    // --- phase 1: cold — every unique job once, serially ------------------
    let mut client = Client::connect(&addr).expect("connect to server");
    client.ping().expect("server answers ping");
    let cold_start = clock::now();
    for spec in &specs {
        let outcomes = client.submit(std::slice::from_ref(spec)).expect("submit");
        assert_eq!(outcomes.len(), 1);
        let outcome = &outcomes[0];
        assert_eq!(outcome.digest, spec.digest(), "digest agreement");
        outcome.payload.as_ref().expect("job simulates cleanly");
    }
    let cold_mean_s = clock::seconds_since(cold_start) / unique as f64;

    // --- phase 2: warm — duplicates fan out over concurrent clients -------
    let mut warm_lat_s: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (specs, addr) = (&specs, &addr);
                // Client c replays duplicates c, c+CLIENTS, c+2·CLIENTS, …
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("warm client connects");
                    let mut latencies = Vec::new();
                    for d in (c..duplicates).step_by(CLIENTS) {
                        let spec = &specs[d % specs.len()];
                        let t = clock::now();
                        let outcomes = client.submit(std::slice::from_ref(spec)).expect("submit");
                        latencies.push(clock::seconds_since(t));
                        outcomes[0].payload.as_ref().expect("cached job served");
                        assert!(
                            matches!(
                                outcomes[0].source,
                                ResultSource::MemoryHit | ResultSource::DiskHit
                            ),
                            "every warm-phase job should be served from the cache"
                        );
                    }
                    latencies
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join().expect("warm client"));
        joined.flatten().collect()
    });

    // --- stats + shutdown ---------------------------------------------------
    let stats = client.stats().expect("stats request");
    let final_stats = server.map(|server| {
        client.shutdown().expect("server acknowledges shutdown");
        drop(client);
        server.join()
    });

    warm_lat_s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let warm_median_s = warm_lat_s[warm_lat_s.len() / 2];
    let hit_rate = stats.hit_rate();

    assert!(
        (hit_rate - DUP_RATIO).abs() < 0.02,
        "hit rate {hit_rate:.4} diverges from the duplicate ratio {DUP_RATIO}: {stats:?}"
    );
    assert!(
        warm_median_s * 10.0 <= cold_mean_s,
        "cached median {:.3} ms not 10x below uncached mean {:.3} ms",
        warm_median_s * 1e3,
        cold_mean_s * 1e3
    );
    assert_eq!(stats.errors, 0, "job errors: {stats:?}");
    match final_stats {
        Some(final_stats) => {
            assert_eq!(
                final_stats.errors, 0,
                "server finished with job errors: {final_stats:?}"
            );
            eprintln!("loadgen: OK (clean shutdown, hit rate {hit_rate:.2})");
        }
        None => eprintln!("loadgen: OK (external server, hit rate {hit_rate:.2})"),
    }
}
