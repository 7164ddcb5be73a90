//! End-to-end service tests over a real TCP socket: protocol
//! roundtrips, cache behaviour across submissions, in-flight request
//! deduplication and cache/direct byte identity.

use std::sync::{Arc, Barrier};

use gpusimpow_serve::proto::decode_result;
use gpusimpow_serve::{
    Client, GovernorSpec, GpuPreset, JobSpec, KernelSpec, ResultSource, Server, ServerConfig,
    StoreConfig, SweepSpec,
};

fn quick_spec(iterations: u32) -> JobSpec {
    JobSpec {
        kernel: KernelSpec::ClusterStep {
            iterations,
            blocks: 2,
            threads: 64,
        },
        gpu: GpuPreset::Gt240,
        governor: GovernorSpec::Baseline,
        window_cycles: 0,
    }
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        store: StoreConfig::default(),
    })
    .expect("server starts")
}

#[test]
fn submit_then_resubmit_serves_from_memory() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let jobs = [quick_spec(32), quick_spec(48)];
    let first = client.submit(&jobs).unwrap();
    assert_eq!(first.len(), 2);
    for (outcome, job) in first.iter().zip(&jobs) {
        assert_eq!(outcome.digest, job.digest());
        assert_eq!(outcome.source, ResultSource::Simulated);
        let payload = outcome.payload.as_ref().expect("job succeeded");
        let result = decode_result(payload).expect("payload decodes");
        assert_eq!(result.reports.len(), 1);
        assert!(result.reports[0].report.total_power().watts() > 0.0);
    }

    // Same batch again: every job is a memory hit with identical bytes.
    let second = client.submit(&jobs).unwrap();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(b.source, ResultSource::MemoryHit);
        assert_eq!(a.payload, b.payload, "cache must serve identical bytes");
    }

    // Four more connections replay the batch at once: each one is
    // served the first pass's bytes from memory, none re-simulates.
    const CLIENTS: u64 = 4;
    let addr = server.local_addr();
    let replays: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| Client::connect(addr).unwrap().submit(&jobs).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for outcomes in &replays {
        assert_eq!(outcomes.len(), jobs.len());
        for (a, b) in first.iter().zip(outcomes) {
            assert_eq!(b.source, ResultSource::MemoryHit);
            assert_eq!(a.payload, b.payload, "cache must serve identical bytes");
        }
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.misses_simulated, 2);
    assert_eq!(stats.hits_mem, 2 + CLIENTS * 2);
    assert_eq!(stats.errors, 0);

    client.shutdown().unwrap();
    server.join();
}

/// Duplicates *within one batch* coalesce onto a single simulation.
#[test]
fn duplicates_in_one_batch_simulate_once() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let job = quick_spec(40);
    let outcomes = client
        .submit(&[job.clone(), job.clone(), job.clone()])
        .unwrap();
    assert_eq!(outcomes[0].source, ResultSource::Simulated);
    assert_eq!(outcomes[1].source, ResultSource::Coalesced);
    assert_eq!(outcomes[2].source, ResultSource::Coalesced);
    assert_eq!(outcomes[0].payload, outcomes[1].payload);
    assert_eq!(outcomes[0].payload, outcomes[2].payload);

    let stats = client.stats().unwrap();
    assert_eq!(stats.misses_simulated, 1);
    assert_eq!(stats.coalesced_waits, 2);

    client.shutdown().unwrap();
    server.join();
}

/// Two clients racing the same uncached job cost exactly one
/// simulation: whoever loses the claim blocks on the in-flight slot and
/// is served the owner's bytes. The job is deliberately slow (large
/// iteration count) so the loser reliably arrives while the owner is
/// still simulating.
#[test]
fn concurrent_identical_submissions_dedup_in_flight() {
    let server = start_server();
    let addr = server.local_addr();
    let slow = quick_spec(1500);

    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let job = slow.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client.submit(&[job]).unwrap().remove(0)
            })
        })
        .collect();
    let outcomes: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Exactly one Simulated, the other Coalesced (or a memory hit if
    // the owner finished publishing before the loser classified — both
    // mean the loser paid nothing).
    let simulated = outcomes
        .iter()
        .filter(|o| o.source == ResultSource::Simulated)
        .count();
    assert_eq!(simulated, 1, "exactly one client owns the simulation");
    assert_eq!(
        outcomes[0].payload, outcomes[1].payload,
        "both clients receive byte-identical results"
    );

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.misses_simulated, 1,
        "the duplicate submission must not re-simulate"
    );
    assert_eq!(stats.errors, 0);

    client.shutdown().unwrap();
    server.join();
}

/// A cache-served report equals a direct in-process run, field for
/// field *and* byte for byte: the service adds transport and caching,
/// never a different answer.
#[test]
fn cached_result_is_byte_identical_to_direct_run() {
    let spec = JobSpec {
        kernel: KernelSpec::Lfsr {
            lanes: 16,
            iterations: 24,
            blocks: 2,
            threads: 64,
        },
        gpu: GpuPreset::Gt240,
        governor: GovernorSpec::Ondemand,
        window_cycles: 512,
    };
    let direct = gpusimpow_serve::run_job(&spec).unwrap();

    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cold = client
        .submit(std::slice::from_ref(&spec))
        .unwrap()
        .remove(0);
    let warm = client.submit(&[spec]).unwrap().remove(0);
    assert_eq!(warm.source, ResultSource::MemoryHit);

    let cold_bytes = cold.payload.unwrap();
    let warm_bytes = warm.payload.unwrap();
    assert_eq!(
        cold_bytes, warm_bytes,
        "cold and cache-served payloads are the same bytes"
    );
    let served = decode_result(&warm_bytes).unwrap();
    assert_eq!(
        served, direct,
        "the service's answer equals a direct Gpu run (exact f64 bits)"
    );

    client.shutdown().unwrap();
    server.join();
}

/// A captured trace submitted as a job round-trips the whole service —
/// capture on the "client", replay on a server worker, power-evaluate,
/// cache, ship — and the answer equals a local power evaluation of the
/// *live* run it was captured from (exact f64 bits). Resubmission hits
/// the cache: the digest is a content address of the trace bytes.
#[test]
fn trace_job_matches_local_evaluation_of_the_captured_run() {
    use gpusimpow_kernels::{blackscholes::BlackScholes, Benchmark};
    use gpusimpow_power::GpuChip;
    use gpusimpow_sim::{Gpu, GpuConfig};

    let cfg = GpuConfig::gt240();
    let mut gpu = Gpu::new(cfg.clone()).unwrap();
    gpu.set_tracing(true);
    let live = BlackScholes { options: 1024 }
        .run(&mut gpu)
        .unwrap()
        .remove(0);
    let trace = gpu.take_traces().remove(0);
    let chip = GpuChip::new(&cfg).unwrap();
    let local = chip.evaluate_scoped(&live.kernel, &live.stats, &live.scoped);

    let spec = JobSpec {
        kernel: KernelSpec::Trace {
            bytes: trace.encode(),
        },
        gpu: GpuPreset::Gt240,
        governor: GovernorSpec::Baseline,
        window_cycles: 0,
    };

    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cold = client
        .submit(std::slice::from_ref(&spec))
        .unwrap()
        .remove(0);
    assert_eq!(cold.source, ResultSource::Simulated);
    let served = decode_result(cold.payload.as_ref().unwrap()).unwrap();
    assert_eq!(served.reports.len(), 1);
    assert_eq!(
        served.reports[0], local,
        "served replay evaluation equals local live-run evaluation"
    );

    let warm = client.submit(&[spec]).unwrap().remove(0);
    assert_eq!(warm.source, ResultSource::MemoryHit);
    assert_eq!(warm.payload, cold.payload);

    client.shutdown().unwrap();
    server.join();
}

/// A multi-preset sweep is pure server-side expansion: its outcomes
/// are byte-identical to individually submitted per-preset jobs, and
/// sweep members share cache slots with individual submissions in both
/// directions.
#[test]
fn sweep_matches_individual_submissions_and_shares_the_cache() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Seed the cache with the GT240 member submitted individually.
    let gt240 = quick_spec(36);
    let seeded = client
        .submit(std::slice::from_ref(&gt240))
        .unwrap()
        .remove(0);
    assert_eq!(seeded.source, ResultSource::Simulated);

    let sweep = SweepSpec {
        kernel: gt240.kernel.clone(),
        governor: gt240.governor,
        window_cycles: gt240.window_cycles,
        gpus: vec![GpuPreset::Gt240, GpuPreset::Gtx580],
    };
    let outcomes = client.submit_sweep(&sweep).unwrap();
    assert_eq!(outcomes.len(), 2);

    // The GT240 member hits the individually seeded cache entry with
    // identical bytes; the GTX580 member is the only fresh simulation.
    assert_eq!(outcomes[0].digest, gt240.digest());
    assert_eq!(outcomes[0].source, ResultSource::MemoryHit);
    assert_eq!(outcomes[0].payload, seeded.payload);
    assert_eq!(outcomes[1].source, ResultSource::Simulated);

    // Every sweep outcome equals what submitting that member alone
    // returns (now all memory hits — the cache is shared both ways).
    for (outcome, member) in outcomes.iter().zip(sweep.expand()) {
        assert_eq!(outcome.digest, member.digest());
        let individual = client
            .submit(std::slice::from_ref(&member))
            .unwrap()
            .remove(0);
        assert_eq!(individual.source, ResultSource::MemoryHit);
        assert_eq!(outcome.payload, individual.payload);
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.misses_simulated, 2, "one simulation per distinct job");
    assert_eq!(stats.errors, 0);

    client.shutdown().unwrap();
    server.join();
}

/// Out-of-domain jobs are rejected at the protocol edge — the Submit
/// decodes to a request-level error — without killing the connection
/// or the server, and nothing from the bad batch is simulated.
#[test]
fn invalid_job_is_rejected_without_killing_the_connection() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let bad = JobSpec {
        kernel: KernelSpec::Conflict {
            stride: 4,
            iterations: 16,
            blocks: 1,
            threads: 64, // conflict kernel allows at most 32
        },
        gpu: GpuPreset::Gt240,
        governor: GovernorSpec::Baseline,
        window_cycles: 0,
    };
    let err = client.submit(&[bad, quick_spec(32)]).unwrap_err();
    assert!(
        err.to_string().contains("invalid job"),
        "rejection names the domain violation, got: {err}"
    );

    // Connection still healthy; nothing from the rejected batch ran.
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.misses_simulated, 0);
    assert_eq!(stats.errors, 0);

    // A clean batch on the same connection works.
    let ok = client.submit(&[quick_spec(32)]).unwrap().remove(0);
    assert!(ok.payload.is_ok());

    client.shutdown().unwrap();
    server.join();
}

/// Disk-tier persistence through the full service: results survive a
/// server restart, and a corrupted entry is evicted and re-simulated.
#[test]
fn disk_tier_survives_restart_and_heals_corruption() {
    let dir = std::env::temp_dir().join(format!("gpusimpow-serve-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        store: StoreConfig {
            dir: Some(dir.clone()),
            mem_capacity: 64,
        },
    };
    let job = quick_spec(56);

    // First server instance simulates and writes through to disk.
    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cold = client.submit(std::slice::from_ref(&job)).unwrap().remove(0);
    assert_eq!(cold.source, ResultSource::Simulated);
    client.shutdown().unwrap();
    server.join();

    // Second instance (empty memory tier) serves the same job from
    // disk.
    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let warm = client.submit(std::slice::from_ref(&job)).unwrap().remove(0);
    assert_eq!(warm.source, ResultSource::DiskHit);
    assert_eq!(cold.payload, warm.payload);
    client.shutdown().unwrap();
    server.join();

    // Corrupt the on-disk entry; a third instance detects it, evicts
    // it and transparently re-simulates to the same bytes.
    let entry = dir.join(format!("{}.gspc", job.digest().to_hex()));
    let good = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &good[..good.len() - 7]).unwrap();

    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let healed = client.submit(&[job]).unwrap().remove(0);
    assert_eq!(
        healed.source,
        ResultSource::Simulated,
        "corrupt entry must be re-simulated, not served"
    );
    assert_eq!(
        cold.payload, healed.payload,
        "re-simulation reproduces the bytes"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.corrupt_evictions, 1);
    client.shutdown().unwrap();
    server.join();

    std::fs::remove_dir_all(&dir).unwrap();
}
