//! `loadgen` — the service's load client and CI smoke test: replays
//! mixed job streams against the simulation service and prints a JSON
//! summary (also written to `out.json` when that argument is given).
//! The repo's throughput and latency numbers come from the
//! `serve_cold` / `serve_warm` workloads of `benchmark/`, not from here.
//!
//! ```text
//! cargo run --release -p gpusimpow-serve --bin loadgen -- \
//!     [--addr HOST:PORT | --self-host] [--jobs N] [--dup-ratio R]
//!     [--clients C] [--threads N] [--window W] [--expect-hits] [out.json]
//! ```
//!
//! The run has two phases, chosen to make the cache's contribution
//! directly measurable:
//!
//! 1. **Cold**: one client submits each *unique* job once, serially.
//!    Every job is a miss, so the per-job latency is the true
//!    simulation cost.
//! 2. **Warm**: `--clients` concurrent clients replay duplicates of
//!    the phase-1 jobs. Every job is a cache hit, so the per-job
//!    latency is the service + cache overhead.
//!
//! With `N` total jobs and duplicate ratio `R`, phase 1 submits
//! `U = N·(1−R)` uniques and phase 2 the remaining `N − U` duplicates —
//! so the server-reported hit rate equals the configured ratio, which
//! `--expect-hits` asserts (along with cached p50 ≥ 10× below the
//! uncached mean, and clean shutdown in self-host mode). `--self-host`
//! starts an in-process server on a loopback port — no external
//! process needed (this is what CI's service smoke job runs).

use std::sync::Arc;

use gpusimpow_serve::proto::ResultSource;
use gpusimpow_serve::{
    Client, GovernorSpec, GpuPreset, JobSpec, KernelSpec, Server, ServerConfig, StoreConfig,
};

/// Wall-clock readings, isolated in one module so the simlint
/// wall-clock allowance stays confined to the measurement edge.
mod clock {
    // simlint: allow(wall_clock): loadgen's entire purpose is measuring
    // real client-observed service latency at the socket edge; these
    // readings are reported to humans and never feed simulation results.
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

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return Some(
                iter.next()
                    .unwrap_or_else(|| panic!("{flag} needs a value"))
                    .clone(),
            );
        }
        if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} got an unparsable value {v:?}"))
        })
        .unwrap_or(default)
}

/// Deterministic stream of small jobs: rotates through the five micro
/// kernels, varying their parameters with the step counter. Candidates
/// can collide (e.g. divergence only has five distinct depths per
/// block count), so callers dedup by digest.
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

/// The first `count` digest-distinct jobs of the candidate stream.
fn unique_jobs(count: usize, window: u64) -> Vec<JobSpec> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    let mut i = 0;
    while out.len() < count {
        let mut spec = candidate_job(i);
        spec.window_cycles = window;
        spec.validate().expect("candidate stream stays in domain");
        if seen.insert(spec.digest()) {
            out.push(spec);
        }
        i += 1;
    }
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs: usize = parse_flag(&args, "--jobs", 60);
    let dup_ratio: f64 = parse_flag(&args, "--dup-ratio", 0.5);
    assert!(
        (0.0..1.0).contains(&dup_ratio),
        "--dup-ratio must be in [0, 1)"
    );
    let clients: usize = parse_flag(&args, "--clients", 4).max(1);
    let threads: usize = parse_flag(&args, "--threads", 0);
    let window: u64 = parse_flag(&args, "--window", 0);
    let expect_hits = args.iter().any(|a| a == "--expect-hits");
    let out_path = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--") && a.ends_with(".json"));

    let unique = ((jobs as f64) * (1.0 - dup_ratio)).round().max(1.0) as usize;
    let unique = unique.min(jobs);
    let duplicates = jobs - unique;

    // Self-hosted unless --addr points at an external server.
    let (addr, server) = match flag_value(&args, "--addr") {
        Some(addr) => (addr, None),
        None => {
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads,
                store: StoreConfig {
                    dir: flag_value(&args, "--cache-dir").map(std::path::PathBuf::from),
                    mem_capacity: 4096,
                },
            })
            .expect("self-hosted server starts");
            (server.local_addr().to_string(), Some(server))
        }
    };
    eprintln!(
        "loadgen: {jobs} jobs ({unique} unique + {duplicates} duplicates, ratio {dup_ratio:.2}), \
         {clients} warm clients, server {addr}"
    );

    let specs: Vec<JobSpec> = unique_jobs(unique, window);

    // --- phase 1: cold — every unique job once, serially ------------------
    let mut client = Client::connect(&addr).expect("connect to server");
    client.ping().expect("server answers ping");
    let mut cold_lat_s = Vec::with_capacity(unique);
    let cold_start = clock::now();
    for spec in &specs {
        let t = clock::now();
        let outcomes = client.submit(std::slice::from_ref(spec)).expect("submit");
        cold_lat_s.push(clock::seconds_since(t));
        assert_eq!(outcomes.len(), 1);
        let outcome = &outcomes[0];
        assert_eq!(outcome.digest, spec.digest(), "digest agreement");
        outcome.payload.as_ref().expect("job simulates cleanly");
    }
    let cold_wall_s = clock::seconds_since(cold_start);

    // --- phase 2: warm — duplicates fan out over concurrent clients -------
    let specs = Arc::new(specs);
    let addr_arc = Arc::new(addr.clone());
    let warm_start = clock::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        // Client c replays duplicates c, c+clients, c+2·clients, …
        let specs = Arc::clone(&specs);
        let addr = Arc::clone(&addr_arc);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr.as_str()).expect("warm client connects");
            let mut latencies = Vec::new();
            let mut non_hits = 0usize;
            let mut d = c;
            while d < duplicates {
                let spec = &specs[d % specs.len()];
                let t = clock::now();
                let outcomes = client.submit(std::slice::from_ref(spec)).expect("submit");
                latencies.push(clock::seconds_since(t));
                let outcome = &outcomes[0];
                outcome.payload.as_ref().expect("cached job served");
                if !matches!(
                    outcome.source,
                    ResultSource::MemoryHit | ResultSource::DiskHit
                ) {
                    non_hits += 1;
                }
                d += clients;
            }
            (latencies, non_hits)
        }));
    }
    let mut warm_lat_s = Vec::with_capacity(duplicates);
    let mut warm_non_hits = 0usize;
    for handle in handles {
        let (lat, non_hits) = handle.join().expect("warm client thread");
        warm_lat_s.extend(lat);
        warm_non_hits += non_hits;
    }
    let warm_wall_s = clock::seconds_since(warm_start);

    // --- stats + shutdown ---------------------------------------------------
    let stats = client.stats().expect("stats request");
    let final_stats = if let Some(server) = server {
        client.shutdown().expect("server acknowledges shutdown");
        drop(client);
        Some(server.join())
    } else {
        None
    };

    cold_lat_s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    warm_lat_s.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let cold_mean_s = cold_lat_s.iter().sum::<f64>() / cold_lat_s.len().max(1) as f64;
    let cold_p50_s = percentile(&cold_lat_s, 0.50);
    let cold_p99_s = percentile(&cold_lat_s, 0.99);
    let warm_p50_s = percentile(&warm_lat_s, 0.50);
    let warm_p99_s = percentile(&warm_lat_s, 0.99);
    let total_wall_s = cold_wall_s + warm_wall_s;
    let jobs_per_sec = jobs as f64 / total_wall_s.max(1e-9);
    let warm_jobs_per_sec = duplicates as f64 / warm_wall_s.max(1e-9);
    let hit_rate = stats.hit_rate();
    let configured_ratio = duplicates as f64 / jobs as f64;

    // Hand-rolled JSON — the offline workspace vendors no serializer.
    use std::fmt::Write as _;
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"loadgen\",");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"unique_jobs\": {unique},");
    let _ = writeln!(json, "  \"duplicate_ratio\": {configured_ratio:.4},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"window_cycles\": {window},");
    let _ = writeln!(json, "  \"uncached\": {{");
    let _ = writeln!(json, "    \"count\": {},", cold_lat_s.len());
    let _ = writeln!(json, "    \"mean_ms\": {:.3},", cold_mean_s * 1e3);
    let _ = writeln!(json, "    \"p50_ms\": {:.3},", cold_p50_s * 1e3);
    let _ = writeln!(json, "    \"p99_ms\": {:.3}", cold_p99_s * 1e3);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cached\": {{");
    let _ = writeln!(json, "    \"count\": {},", warm_lat_s.len());
    let _ = writeln!(json, "    \"p50_ms\": {:.3},", warm_p50_s * 1e3);
    let _ = writeln!(json, "    \"p99_ms\": {:.3}", warm_p99_s * 1e3);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"jobs_per_sec\": {jobs_per_sec:.1},");
    let _ = writeln!(json, "  \"warm_jobs_per_sec\": {warm_jobs_per_sec:.1},");
    let _ = writeln!(json, "  \"hit_rate\": {hit_rate:.4},");
    let _ = writeln!(json, "  \"hits_mem\": {},", stats.hits_mem);
    let _ = writeln!(json, "  \"hits_disk\": {},", stats.hits_disk);
    let _ = writeln!(json, "  \"misses_simulated\": {},", stats.misses_simulated);
    let _ = writeln!(json, "  \"coalesced_waits\": {},", stats.coalesced_waits);
    let _ = writeln!(json, "  \"errors\": {}", stats.errors);
    json.push_str("}\n");
    if let Some(out_path) = out_path {
        std::fs::write(out_path, &json).expect("write the summary json");
        eprintln!("wrote {out_path}");
    }
    print!("{json}");

    if expect_hits {
        let hits = stats.hits_mem + stats.hits_disk;
        assert!(hits > 0, "expected nonzero cache hits, got {stats:?}");
        assert_eq!(
            warm_non_hits, 0,
            "every warm-phase job should be served from the cache"
        );
        assert!(
            (hit_rate - configured_ratio).abs() < 0.02,
            "hit rate {hit_rate:.4} diverges from configured duplicate ratio {configured_ratio:.4}"
        );
        assert!(
            warm_p50_s * 10.0 <= cold_mean_s,
            "cached p50 {:.3} ms not 10x below uncached mean {:.3} ms",
            warm_p50_s * 1e3,
            cold_mean_s * 1e3
        );
        if let Some(final_stats) = final_stats {
            assert_eq!(
                final_stats.errors, 0,
                "server finished with job errors: {final_stats:?}"
            );
            eprintln!("expect-hits: OK (clean shutdown, hit rate {hit_rate:.2})");
        } else {
            eprintln!("expect-hits: OK (external server, hit rate {hit_rate:.2})");
        }
    }
}
