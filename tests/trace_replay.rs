//! Replay-vs-live bit-identity: the load-bearing invariant of the trace
//! frontend. A captured trace replayed through the timing pipeline must
//! reproduce the live run's every counter and time bit — on the same
//! configuration, on a *different* configuration with the same warp
//! size, and under `SimPool::run_sweep_replay` — because the recorded
//! per-warp streams (issued PCs, branch masks, lane addresses) are
//! exactly the dynamic facts the timing model consumes.

use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::{
    blackscholes::BlackScholes, micro::lfsr_kernel, suite::small_benchmarks, Benchmark,
};
use gpusimpow_sim::{Gpu, GpuConfig, LaunchReport, SimError, SimPool};
use gpusimpow_trace::{synth, KernelTrace};

/// Runs a benchmark with capture enabled, returning the per-launch
/// reports paired with their captured traces.
fn capture(bench: &dyn Benchmark, cfg: GpuConfig) -> Vec<(LaunchReport, KernelTrace)> {
    let mut gpu = Gpu::new(cfg).expect("preset builds");
    gpu.set_tracing(true);
    let reports = bench.run(&mut gpu).expect("benchmark verifies");
    let traces = gpu.take_traces();
    assert_eq!(reports.len(), traces.len(), "one captured trace per launch");
    reports.into_iter().zip(traces).collect()
}

/// Asserts two reports are bit-identical in every observable:
/// aggregate counters, wall-clock bits, and the scope-resolved
/// per-core/per-cluster breakdown.
fn assert_reports_identical(live: &LaunchReport, replayed: &LaunchReport, what: &str) {
    assert_eq!(live.kernel, replayed.kernel, "{what}: kernel name");
    assert_eq!(live.stats, replayed.stats, "{what}: activity counters");
    assert_eq!(
        live.time_s.to_bits(),
        replayed.time_s.to_bits(),
        "{what}: time bits"
    );
    assert_eq!(live.scoped, replayed.scoped, "{what}: scoped activity");
}

#[test]
fn blackscholes_replay_is_bit_identical() {
    let pairs = capture(&BlackScholes { options: 2048 }, GpuConfig::gt240());
    for (live, trace) in &pairs {
        let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
        let replayed = gpu.launch_replay(trace).expect("trace replays");
        assert_reports_identical(live, &replayed, "blackscholes gt240");
    }
}

#[test]
fn capture_does_not_perturb_the_live_run() {
    let bench = BlackScholes { options: 2048 };
    let mut plain = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    let untraced = bench.run(&mut plain).expect("verifies");
    let pairs = capture(&bench, GpuConfig::gt240());
    for (untraced, (traced, _)) in untraced.iter().zip(&pairs) {
        assert_reports_identical(untraced, traced, "capture overhead");
    }
}

#[test]
fn full_small_suite_replays_bit_identically_on_both_presets() {
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
        for bench in small_benchmarks() {
            let pairs = capture(bench.as_ref(), cfg.clone());
            for (i, (live, trace)) in pairs.iter().enumerate() {
                // Roundtrip through the v1 byte format on the way: the
                // replayed trace is the decoded one, so this also pins
                // encode/decode fidelity on real workloads.
                let decoded =
                    KernelTrace::decode(&trace.encode()).expect("captured trace roundtrips");
                assert_eq!(&decoded, trace);
                let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
                let replayed = gpu.launch_replay(&decoded).expect("trace replays");
                assert_reports_identical(live, &replayed, &format!("{} launch {i}", bench.name()));
            }
        }
    }
}

#[test]
fn cross_config_replay_matches_independent_live_run() {
    // The recorded streams are configuration-independent (for a fixed
    // warp size): a GT240-captured trace replayed on a GTX580 must match
    // the live GTX580 run bit for bit.
    let bench = BlackScholes { options: 2048 };
    let gt240_pairs = capture(&bench, GpuConfig::gt240());
    let gtx580_live = capture(&bench, GpuConfig::gtx580());
    assert_eq!(gt240_pairs.len(), gtx580_live.len());
    for ((_, trace), (live, _)) in gt240_pairs.iter().zip(&gtx580_live) {
        let mut gpu = Gpu::new(GpuConfig::gtx580()).expect("preset builds");
        let replayed = gpu.launch_replay(trace).expect("trace replays");
        assert_reports_identical(live, &replayed, "gt240 trace on gtx580");
    }
}

#[test]
fn sweep_from_one_trace_matches_independent_live_runs() {
    let bench = BlackScholes { options: 2048 };
    let configs = [GpuConfig::gt240(), GpuConfig::gtx580()];
    let (_, trace) = capture(&bench, GpuConfig::gt240()).remove(0);

    let pool = SimPool::new(2);
    let swept = pool.run_sweep_replay(&trace, &configs, |_, _| Ok(()));

    for (cfg, swept) in configs.iter().zip(swept) {
        let swept = swept.expect("sweep slot replays");
        let live = capture(&bench, cfg.clone()).remove(0).0;
        assert_reports_identical(&live, &swept, "sweep vs independent live");
    }
}

#[test]
fn synthetic_families_replay_without_desync() {
    // The synthesiser documents that its streams match what the real
    // pipeline issues; replay's stream-consumption check enforces it.
    let traces = [
        synth::stride_family(4, 2, 4, 3),
        synth::occupancy_family(6, 4, 16),
        synth::conflict_family(2, 2, 8, 4),
        synth::divergence_family(3, 2, 0),
        synth::divergence_family(3, 2, 11),
        synth::divergence_family(3, 2, 32),
    ];
    for trace in traces {
        let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
        let report = gpu
            .launch_replay(&trace)
            .unwrap_or_else(|e| panic!("{} does not replay: {e}", trace.name));
        assert_eq!(
            report.stats.warp_instructions,
            trace.warp_instructions(),
            "{}: every recorded instruction issues exactly once",
            trace.name
        );
    }
}

#[test]
fn replay_is_deterministic_across_thread_counts() {
    // Pool width must not reach a replay sweep's results — including
    // a repeated config, whose two jobs may share nothing mutable.
    let trace = synth::stride_family(8, 4, 2, 4);
    let configs = [GpuConfig::gtx580(), GpuConfig::gt240(), GpuConfig::gtx580()];
    let sweep = |threads| {
        SimPool::new(threads)
            .run_sweep_replay(&trace, &configs, |_, _| Ok(()))
            .into_iter()
            .map(|r| r.expect("trace replays"))
            .collect::<Vec<LaunchReport>>()
    };
    let base = sweep(1);
    assert_reports_identical(&base[0], &base[2], "repeated config");
    for (b, report) in base.iter().zip(&sweep(4)) {
        assert_reports_identical(b, report, "pool-width identity");
    }
}

#[test]
fn warp_size_mismatch_is_rejected_up_front() {
    let mut trace = synth::occupancy_family(1, 1, 4);
    trace.warp_size = 64;
    let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    match gpu.launch_replay(&trace) {
        Err(SimError::Replay(msg)) => assert!(msg.contains("warp size"), "got: {msg}"),
        other => panic!("expected a replay error, got {other:?}"),
    }
}

#[test]
fn mismatched_stream_desyncs_with_a_typed_error() {
    let (_, mut trace) = capture(&BlackScholes { options: 1024 }, GpuConfig::gt240()).remove(0);
    // Corrupt one recorded PC: the pipeline still terminates (the PC
    // stream is a cross-check, not a control input), but replay must
    // report the divergence instead of returning meaningless numbers.
    trace.streams[0].pcs[0] ^= 1;
    let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    match gpu.launch_replay(&trace) {
        Err(SimError::Replay(msg)) => {
            assert!(msg.contains("recorded"), "got: {msg}");
        }
        other => panic!("expected a desync error, got {other:?}"),
    }
}

#[test]
fn truncated_stream_desyncs_with_a_typed_error() {
    let (_, mut trace) = capture(&BlackScholes { options: 1024 }, GpuConfig::gt240()).remove(0);
    let full = trace.streams[0].pcs.len();
    trace.streams[0].pcs.truncate(full - 1);
    let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    assert!(
        matches!(gpu.launch_replay(&trace), Err(SimError::Replay(_))),
        "short stream must surface as a replay error"
    );
}

#[test]
fn rejected_replay_leaves_pending_pcie_bytes_alone() {
    // A 1024-thread block fits GTX580 but exceeds GT240's 768-thread
    // core, so the GT240 replay is rejected before it runs. Its trace
    // carries 4000 h2d bytes; the GT240's own pending 40 bytes must
    // still land on its next live launch.
    let kernel = lfsr_kernel(32, 4);
    let mut fermi = Gpu::new(GpuConfig::gtx580()).expect("preset builds");
    let ptr = fermi.alloc(4000);
    fermi.h2d_u32(ptr, &[0; 1000]);
    let (_, trace) = fermi
        .launch_traced(&kernel, LaunchConfig::linear(2, 1024))
        .expect("fits GTX580");
    assert_eq!(trace.h2d_bytes, 4000);

    let mut tesla = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    let ptr = tesla.alloc(40);
    tesla.h2d_u32(ptr, &[0; 10]);
    match tesla.launch_replay(&trace) {
        Err(SimError::Launch(msg)) => assert!(msg.contains("1024 threads"), "got: {msg}"),
        other => panic!("expected a launch rejection, got {other:?}"),
    }
    let report = tesla
        .launch(&kernel, LaunchConfig::linear(2, 256))
        .expect("fits GT240");
    assert_eq!(report.stats.pcie_h2d_bytes, 40);
}
