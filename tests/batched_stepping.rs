//! The cycle loop's skips are an accelerator, not a semantic: per-core
//! wake gating, skipped commit phases (batching) and fast-forward in
//! `Gpu::launch_impl` must reproduce, bit for bit, what the dense
//! reference loop produces — every live core ticked and committed every
//! cycle, one cycle at a time. These tests pin one representative
//! kernel on both presets — barrel-scheduled GT240 and scoreboarded
//! GTX580 — against the same golden counts, time bits and power bits as
//! `tests/determinism.rs`, in both modes (`Gpu::set_dense_reference`);
//! on GT240 a trace of the same kernel, replayed on a fresh GPU and
//! priced, must hold them too. If a skip ever swallows a side-effect
//! cycle (a buffered store, a CTA completion, a memory response, a
//! window boundary), the accelerated pins fire; if a change to the loop
//! itself drifts, both fire; if capture perturbs the live run or replay
//! drifts a cycle from it, the replay pins fire.
//!
//! The unpinned differential below runs memory-bound programs too: on
//! GT240 under both warp schedulers, where cores are gated while the
//! uncore is busy, on two-level cores of both presets, whose wake also
//! waits for the active set to settle, and on scoreboard cores of every
//! issue width, where the dense reference also keeps every core
//! scanning for issue each cycle and so checks the issue-stall sleep's
//! accrued scoreboard reads — a wrong rate moves no pinned field but
//! the counters, the windows and the priced energy behind them. The
//! shared-memory conflict and LFSR probes keep scoreboard cores asleep
//! with a non-zero rate for most of their run, and their prime-width
//! windows close while cores sleep, so every window snapshot settles a
//! partly accrued sleep.

use gpusimpow::Simulator;
use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::bfs::Bfs;
use gpusimpow_kernels::blackscholes::BlackScholes;
use gpusimpow_kernels::common::Benchmark;
use gpusimpow_kernels::micro;
use gpusimpow_kernels::pathfinder::Pathfinder;
use gpusimpow_kernels::scalarprod::ScalarProd;
use gpusimpow_kernels::vectoradd::VectorAdd;
use gpusimpow_sim::{
    ActivityStats, ActivityWindow, Gpu, GpuConfig, LaunchReport, RecordedLaunch, WarpSchedPolicy,
    WindowRecorder,
};

fn run(
    preset: fn() -> Result<Simulator, gpusimpow::Error>,
    batch: bool,
) -> (ActivityStats, u64, u64) {
    let mut sim = preset().expect("preset builds");
    sim.gpu_mut().set_dense_reference(!batch);
    let reports = sim
        .run_benchmark(&BlackScholes { options: 2048 })
        .expect("verifies");
    let r = &reports[0];
    (
        r.launch.stats.clone(),
        r.launch.time_s.to_bits(),
        r.power.total_power().watts().to_bits(),
    )
}

/// The same kernel captured on a live GPU and replayed on a fresh one,
/// priced with `GpuChip::evaluate` as `Simulator` prices a live launch.
fn replay(preset: fn() -> Result<Simulator, gpusimpow::Error>) -> (ActivityStats, u64, u64) {
    let mut live = preset().expect("preset builds");
    live.gpu_mut().set_tracing(true);
    BlackScholes { options: 2048 }
        .run(live.gpu_mut())
        .expect("verifies");
    let trace = live.gpu_mut().take_traces().remove(0);
    let mut sim = preset().expect("preset builds");
    let r = sim.gpu_mut().launch_replay(&trace).expect("trace replays");
    let power = sim.chip().evaluate(&r.kernel, &r.stats);
    (
        r.stats,
        r.time_s.to_bits(),
        power.total_power().watts().to_bits(),
    )
}

fn assert_gt240_pins((s, time_bits, power_bits): (ActivityStats, u64, u64)) {
    assert_eq!(s.shader_cycles, 2977);
    assert_eq!(s.warp_instructions, 4544);
    assert_eq!(s.thread_instructions, 145_408);
    assert_eq!(s.dram_read_bursts, 768);
    assert_eq!(time_bits, 0x3ec261f80d2e3a2e);
    assert_eq!(power_bits, 0x40424222c3bfa612);
}

fn assert_gtx580_pins((s, time_bits, power_bits): (ActivityStats, u64, u64)) {
    assert_eq!(s.shader_cycles, 1378);
    assert_eq!(s.warp_instructions, 4544);
    assert_eq!(s.thread_instructions, 145_408);
    assert_eq!(s.dram_read_bursts, 768);
    assert_eq!(time_bits, 0x3eaa36471788359c);
    assert_eq!(power_bits, 0x405f3dc2db7dd43e);
}

#[test]
fn gt240_pins_hold_with_batching_on_and_off() {
    assert_gt240_pins(run(Simulator::gt240, true));
    assert_gt240_pins(run(Simulator::gt240, false));
    assert_gt240_pins(replay(Simulator::gt240));
}

#[test]
fn gtx580_pins_hold_with_batching_on_and_off() {
    assert_gtx580_pins(run(Simulator::gtx580, true));
    assert_gtx580_pins(run(Simulator::gtx580, false));
}

fn gpu(cfg: &GpuConfig, batch: bool) -> Gpu {
    let mut gpu = Gpu::new(cfg.clone()).expect("config is valid");
    gpu.set_dense_reference(!batch);
    gpu
}

/// The launches of one program on a GPU.
type Program<'a> = &'a dyn Fn(&mut Gpu) -> Vec<LaunchReport>;

/// Every launch of `program` on `cfg`, with its `window`-cycle windows.
fn record(cfg: &GpuConfig, program: Program, window: u64, batch: bool) -> Vec<RecordedLaunch> {
    let mut gpu = gpu(cfg, batch);
    gpu.attach_sink(window, Box::new(WindowRecorder::new()));
    program(&mut gpu);
    let mut sink = gpu.detach_sink().expect("sink attached");
    let recorder = sink
        .as_any_mut()
        .expect("recorder is 'static")
        .downcast_mut::<WindowRecorder>()
        .expect("sink is the recorder");
    std::mem::take(recorder).into_launches()
}

fn assert_reports_match(what: &str, a: &LaunchReport, b: &LaunchReport) {
    assert_eq!(a.stats, b.stats, "{what}: activity counters");
    assert_eq!(a.scoped, b.scoped, "{what}: scoped activity");
    assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{what}: time_s");
}

fn assert_same_either_way(name: &str, cfg: &GpuConfig, window: u64, program: Program) {
    let what = format!(
        "{name} on {} (issue width {}, {:?})",
        cfg.name, cfg.issue_width, cfg.warp_scheduler
    );

    // With no sink attached no window boundary caps a span, so spans of
    // any length are covered here.
    let on = program(&mut gpu(cfg, true));
    let off = program(&mut gpu(cfg, false));
    assert_eq!(on.len(), off.len(), "{what}: launches");
    for (a, b) in on.iter().zip(&off) {
        assert_reports_match(&format!("{what}, {} without a sink", a.kernel), a, b);
    }

    let on = record(cfg, program, window, true);
    let off = record(cfg, program, window, false);
    assert_eq!(on.len(), off.len(), "{what}: windowed launches");
    for (a, b) in on.iter().zip(&off) {
        let what = format!("{what}, {}", a.kernel);
        let ra = a.report.as_ref().expect("launch completed");
        let rb = b.report.as_ref().expect("launch completed");
        assert_reports_match(&what, ra, rb);
        assert_eq!(a.windows.len(), b.windows.len(), "{what}: windows");
        for (wa, wb) in a.windows.iter().zip(&b.windows) {
            let span = |w: &ActivityWindow| (w.start_cycle, w.end_cycle);
            assert_eq!(span(wa), span(wb), "{what}: window {}", wa.index);
            assert_eq!(wa.stats, wb.stats, "{what}: window {}", wa.index);
            assert_eq!(
                wa.cluster_busy, wb.cluster_busy,
                "{what}: window {}",
                wa.index
            );
        }
    }
}

#[test]
fn stats_match_exactly_either_way() {
    // Beyond the pinned fields: the *entire* counter vector, the scoped
    // breakdown and `time_s` must match with and without a sink, and so
    // must every window.
    let bench = |bench: &dyn Benchmark, cfg: &GpuConfig| {
        let run = |gpu: &mut Gpu| bench.run(gpu).expect("verifies");
        assert_same_either_way(bench.name(), cfg, 256, &run);
    };
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
        bench(&BlackScholes { options: 2048 }, &cfg);
        for (kernel, launch) in [
            (micro::conflict_kernel(4, 48), LaunchConfig::linear(48, 32)),
            (micro::lfsr_kernel(31, 8), LaunchConfig::linear(16, 256)),
        ] {
            let run = |gpu: &mut Gpu| vec![gpu.launch(&kernel, launch).expect("runs")];
            assert_same_either_way(kernel.name(), &cfg, 37, &run);
        }
    }
    // Pathfinder's barriers leave issued warps ineligible for the
    // two-level active set until the next tick re-balances it.
    let kernels: [&dyn Benchmark; 4] = [
        &VectorAdd { n: 2048 },
        &ScalarProd {
            pairs: 4,
            elements: 512,
        },
        &Bfs {
            nodes: 512,
            degree: 4,
        },
        &Pathfinder { cols: 512, rows: 6 },
    ];
    let mut configs: Vec<GpuConfig> = [1, 2, 4]
        .map(|issue_width| GpuConfig {
            issue_width,
            ..GpuConfig::gtx580()
        })
        .into();
    // Barrel cores, where the per-core wake gating skips ticks while the
    // uncore is busy.
    configs.push(GpuConfig::gt240());
    // Two-level cores, which are also due every cycle their active set
    // is off its fixed point: barrel with sets of 8 and 2 (with two,
    // which pending warp a memory response lets in is contested) and
    // scoreboarded.
    for (active_warps, base) in [
        (8, GpuConfig::gt240 as fn() -> GpuConfig),
        (2, GpuConfig::gt240),
        (8, GpuConfig::gtx580),
    ] {
        configs.push(GpuConfig {
            warp_scheduler: WarpSchedPolicy::TwoLevel { active_warps },
            ..base()
        });
    }
    for cfg in &configs {
        for program in kernels {
            bench(program, cfg);
        }
    }
}
