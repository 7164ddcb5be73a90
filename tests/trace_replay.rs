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
use gpusimpow_sim::{
    ActivityWindow, Gpu, GpuConfig, LaunchReport, SimError, SimPool, WindowRecorder,
};
use gpusimpow_trace::{synth, KernelTrace};

/// Runs a benchmark with capture enabled, returning the per-launch
/// reports paired with their captured traces.
fn capture(bench: &dyn Benchmark, cfg: GpuConfig) -> Vec<(LaunchReport, KernelTrace)> {
    capture_on(&mut Gpu::new(cfg).expect("preset builds"), bench)
}

/// [`capture`] on a caller-prepared `gpu`.
fn capture_on(gpu: &mut Gpu, bench: &dyn Benchmark) -> Vec<(LaunchReport, KernelTrace)> {
    gpu.set_tracing(true);
    let reports = bench.run(gpu).expect("benchmark verifies");
    let traces = gpu.take_traces();
    assert_eq!(reports.len(), traces.len(), "one captured trace per launch");
    reports.into_iter().zip(traces).collect()
}

type Capture = fn(GpuConfig) -> Vec<(LaunchReport, KernelTrace)>;

/// The captured inputs of the cross-config checks: memory-heavy
/// BlackScholes and the integer-only §III-D LFSR probe.
const INPUTS: [(&str, Capture); 2] = [
    ("blackscholes", |cfg| {
        capture(&BlackScholes { options: 2048 }, cfg)
    }),
    ("lfsr", |cfg| {
        let mut gpu = Gpu::new(cfg).expect("preset builds");
        let launch = LaunchConfig::linear(4, 128);
        vec![gpu
            .launch_traced(&lfsr_kernel(32, 64), launch)
            .expect("micro kernel runs")]
    }),
];

/// Detaches `gpu`'s `WindowRecorder` and returns the windows of every
/// launch it recorded.
fn recorded_windows(gpu: &mut Gpu) -> Vec<Vec<ActivityWindow>> {
    let mut sink = gpu.detach_sink().expect("a sink is attached");
    let recorder = sink.as_any_mut().and_then(|s| s.downcast_mut());
    std::mem::take::<WindowRecorder>(recorder.expect("the sink is a WindowRecorder"))
        .into_launches()
        .into_iter()
        .map(|launch| launch.windows)
        .collect()
}

fn assert_windows_identical(live: &[ActivityWindow], replayed: &[ActivityWindow], what: &str) {
    assert_eq!(live.len(), replayed.len(), "{what}: window count");
    for (l, r) in live.iter().zip(replayed) {
        let bounds = |w: &ActivityWindow| (w.index, w.start_cycle, w.end_cycle);
        assert_eq!(bounds(l), bounds(r), "{what}: window bounds");
        assert_eq!(l.stats, r.stats, "{what}: window {} counters", l.index);
        assert_eq!(
            l.cluster_busy, r.cluster_busy,
            "{what}: window {} cluster busy cycles",
            l.index
        );
    }
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
    // Both sides sample 2048-cycle windows, so the replay must also
    // reproduce every window a power trace is priced from.
    const WINDOW_CYCLES: u64 = 2048;
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
        for bench in small_benchmarks() {
            let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
            gpu.attach_sink(WINDOW_CYCLES, Box::new(WindowRecorder::new()));
            let pairs = capture_on(&mut gpu, bench.as_ref());
            let windows = recorded_windows(&mut gpu);
            assert_eq!(windows.len(), pairs.len(), "one recording per launch");
            for (i, ((live, trace), live_windows)) in pairs.iter().zip(&windows).enumerate() {
                let what = format!("{} launch {i}", bench.name());
                // Roundtrip through the v1 byte format on the way: the
                // replayed trace is the decoded one, so this also pins
                // encode/decode fidelity on real workloads.
                let decoded =
                    KernelTrace::decode(&trace.encode()).expect("captured trace roundtrips");
                assert_eq!(&decoded, trace);
                let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
                gpu.attach_sink(WINDOW_CYCLES, Box::new(WindowRecorder::new()));
                let replayed = gpu.launch_replay(&decoded).expect("trace replays");
                assert_reports_identical(live, &replayed, &what);
                let replayed_windows = recorded_windows(&mut gpu).remove(0);
                assert_windows_identical(live_windows, &replayed_windows, &what);
            }
        }
    }
}

#[test]
fn cross_config_replay_matches_independent_live_run() {
    // The recorded streams are configuration-independent (for a fixed
    // warp size): a GT240-captured trace, roundtripped through the byte
    // format, must match the live run bit for bit on the GT240 itself
    // and on a GTX580.
    for (name, input) in INPUTS {
        // The capture run is itself the GT240's live run.
        let gt240_traces = input(GpuConfig::gt240());
        let gtx580_live = input(GpuConfig::gtx580());
        for (cfg, live) in [
            (GpuConfig::gt240(), &gt240_traces),
            (GpuConfig::gtx580(), &gtx580_live),
        ] {
            assert_eq!(gt240_traces.len(), live.len());
            for ((_, trace), (live, _)) in gt240_traces.iter().zip(live) {
                let decoded = KernelTrace::decode(&trace.encode()).expect("trace roundtrips");
                let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
                let replayed = gpu.launch_replay(&decoded).expect("trace replays");
                let what = format!("{name}: gt240 trace on {}", cfg.name);
                assert_reports_identical(live, &replayed, &what);
            }
        }
    }
}

#[test]
fn sweep_from_one_trace_matches_independent_live_runs() {
    let configs = [GpuConfig::gt240(), GpuConfig::gtx580()];
    let pool = SimPool::new(2);
    for (name, input) in INPUTS {
        // The capture run is itself the GT240's live run.
        let (gt240_live, trace) = input(GpuConfig::gt240()).remove(0);
        let gtx580_live = input(GpuConfig::gtx580()).remove(0).0;
        let swept = pool.run_sweep_replay(&trace, &configs, |_, _| Ok(()));
        for (live, swept) in [gt240_live, gtx580_live].iter().zip(swept) {
            let swept = swept.expect("sweep slot replays");
            assert_reports_identical(live, &swept, &format!("{name}: sweep vs live"));
        }
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

/// Every slot of a replay sweep over a rejected trace — a repeated
/// config included — fails with a [`SimError::Replay`] naming `why`,
/// at pool widths 1 and 4.
fn assert_sweep_rejects(trace: &KernelTrace, why: &str) {
    let configs = [GpuConfig::gt240(), GpuConfig::gtx580(), GpuConfig::gt240()];
    for threads in [1, 4] {
        let slots = SimPool::new(threads).run_sweep_replay(trace, &configs, |_, _| Ok(()));
        assert_eq!(slots.len(), configs.len());
        for slot in slots {
            match slot {
                Err(SimError::Replay(msg)) => assert!(msg.contains(why), "got: {msg}"),
                other => panic!("{threads} threads: expected a replay error, got {other:?}"),
            }
        }
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
    assert_sweep_rejects(&trace, "warp size");
}

#[test]
fn invalid_trace_fails_every_sweep_slot() {
    // A grid with no blocks fails `KernelTrace::validate`; an empty code
    // image fails `KernelTrace::to_kernel`.
    let mut no_grid = synth::occupancy_family(1, 1, 4);
    no_grid.grid_x = 0;
    assert!(no_grid.validate().is_err());
    assert_sweep_rejects(&no_grid, "trace rejected");

    let mut no_code = synth::occupancy_family(1, 1, 4);
    no_code.code.clear();
    assert!(no_code.to_kernel().is_err());
    assert_sweep_rejects(&no_code, "trace rejected");
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
