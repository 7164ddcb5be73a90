//! The cycle loop's skips — fast-forward and per-core wake gating —
//! must be invisible: every launch-observable artifact — final stats,
//! streamed sampling windows, watchdog trips — has to be cycle-exact
//! against a reference run that steps every cycle. These tests target
//! the edge cases where a jump spans a boundary the simulator must not
//! skip.

use gpusimpow_isa::{assemble, Kernel, LaunchConfig};
use gpusimpow_sim::{config::GpuConfig, gpu::Gpu, SimError, WindowRecorder};

/// A memory-bound loop: each iteration issues a dependent global load,
/// so a single-warp launch spends most cycles with every core blocked
/// on the uncore — exactly the state the stall-aware fast-forward
/// jumps over.
fn stall_kernel(gpu: &mut Gpu, iters: u32) -> Kernel {
    let buf = gpu.alloc_f32(32);
    let src = format!(
        "
        s2r r0, tid.x
        shl r1, r0, #2
        mov r2, #{iters}
    @top:
        ld.global r3, [r1+{addr}]
        fadd r4, r3, r3
        isub r2, r2, #1
        isetp.gt r5, r2, #0
        bra r5, @top, @end
    @end:
        exit
    ",
        addr = buf.addr()
    );
    assemble("ff_stall", &src).expect("valid kernel")
}

/// A launch under test: builds its kernel on the GPU (allocating its
/// buffers) and returns it with its geometry.
type Input = fn(&mut Gpu) -> (Kernel, LaunchConfig);

/// The stall kernel as a single warp: every core but one idle, the one
/// blocked on the uncore most cycles.
fn single_warp_stall(gpu: &mut Gpu) -> (Kernel, LaunchConfig) {
    (stall_kernel(gpu, 12), LaunchConfig::linear(1, 32))
}

/// The suite's `vectorAdd` at `VectorAdd { n: 2048 }`: eight CTAs on
/// eight cores, so spans end while some cores are gated waiting for
/// loads and others still issue into a busy uncore. The input data is
/// left at zero — it steers no control flow.
fn vectoradd_2048(gpu: &mut Gpu) -> (Kernel, LaunchConfig) {
    let n = 2048;
    let [a, b, c] = [(); 3].map(|()| gpu.alloc_f32(n).addr());
    let src = format!(
        "
        s2r r0, tid.x
        s2r r1, ctaid.x
        s2r r2, ntid.x
        imad r3, r1, r2, r0
        shl r4, r3, #2
        ld.global r5, [r4+{a}]
        ld.global r6, [r4+{b}]
        fadd r7, r5, r6
        st.global [r4+{c}], r7
        exit
    "
    );
    let kernel = assemble("vectorAdd", &src).expect("valid kernel");
    (kernel, LaunchConfig::linear(n / 256, 256))
}

/// Runs `input` with sampling attached, fast-forward on or off, and
/// returns the recorded windows plus the launch result.
fn run_recorded(
    cfg: GpuConfig,
    input: Input,
    window_cycles: u64,
    fast_forward: bool,
    watchdog: Option<u64>,
) -> (
    WindowRecorder,
    Result<gpusimpow_sim::LaunchReport, SimError>,
) {
    let mut gpu = Gpu::new(cfg).expect("preset is valid");
    gpu.set_dense_reference(!fast_forward);
    if let Some(w) = watchdog {
        gpu.set_watchdog(w);
    }
    let (kernel, launch) = input(&mut gpu);
    let mut rec = WindowRecorder::new();
    let result = gpu.launch_with_sink(&kernel, launch, window_cycles, &mut rec);
    (rec, result)
}

fn assert_windows_identical(a: &WindowRecorder, b: &WindowRecorder) {
    let (a, b) = (a.launches(), b.launches());
    assert_eq!(a.len(), b.len(), "launch count");
    for (la, lb) in a.iter().zip(b) {
        assert_eq!(la.windows.len(), lb.windows.len(), "window count");
        for (wa, wb) in la.windows.iter().zip(&lb.windows) {
            assert_eq!(wa.index, wb.index);
            assert_eq!(
                (wa.start_cycle, wa.end_cycle),
                (wb.start_cycle, wb.end_cycle),
                "window {} span",
                wa.index
            );
            assert_eq!(wa.stats, wb.stats, "window {} delta", wa.index);
        }
    }
}

#[test]
fn sampling_window_boundary_inside_a_jump() {
    // A prime window width guarantees boundaries land strictly inside
    // memory-stall spans; the fast-forward path must stop at each
    // boundary, emit the window, and resume the jump.
    fn stall_40(gpu: &mut Gpu) -> (Kernel, LaunchConfig) {
        (stall_kernel(gpu, 40), LaunchConfig::linear(1, 32))
    }
    for input in [stall_40 as Input, vectoradd_2048] {
        for window in [37, 64, 1024] {
            let (ref_rec, ref_res) = run_recorded(GpuConfig::gt240(), input, window, false, None);
            let (ff_rec, ff_res) = run_recorded(GpuConfig::gt240(), input, window, true, None);
            let ref_report = ref_res.expect("reference run completes");
            let ff_report = ff_res.expect("fast-forward run completes");
            assert_eq!(ref_report.stats, ff_report.stats, "window={window}");
            assert_windows_identical(&ref_rec, &ff_rec);
            // The window stream really covered the launch.
            let rec = &ff_rec.launches()[0];
            assert!(rec.windows.len() > 1, "the launch spans several windows");
            assert_eq!(rec.aggregate(), ff_report.stats, "deltas sum to aggregate");
        }
    }
}

#[test]
fn watchdog_trips_mid_jump_at_the_exact_cycle() {
    // Sweep watchdog limits across the kernel's runtime so several land
    // strictly inside a memory-stall span the fast-forward would
    // otherwise jump over — on `vectorAdd`, also while some cores are
    // gated and the uncore is busy. Outcome (completion vs. trip, and
    // the trip cycle) must match the per-cycle reference exactly.
    // `u64::MAX` rides along as the "off" value: the trip bound
    // saturates, so the launch completes with the accelerators still
    // engaged.
    for input in [single_warp_stall as Input, vectoradd_2048] {
        let total = {
            let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset is valid");
            gpu.set_dense_reference(true);
            let (kernel, launch) = input(&mut gpu);
            let report = gpu.launch(&kernel, launch).expect("completes");
            report.stats.shader_cycles
        };
        assert!(total > 100, "kernel long enough for a mid-run watchdog");
        let mut tripped = 0;
        for watchdog in (1..total + 10).step_by(23).chain([u64::MAX]) {
            let (ref_rec, ref_res) =
                run_recorded(GpuConfig::gt240(), input, 64, false, Some(watchdog));
            let (ff_rec, ff_res) =
                run_recorded(GpuConfig::gt240(), input, 64, true, Some(watchdog));
            match (&ref_res, &ff_res) {
                (Err(SimError::Watchdog { .. }), Err(SimError::Watchdog { .. })) => tripped += 1,
                (Ok(_), Ok(_)) => {}
                other => panic!("watchdog={watchdog}: outcomes diverge: {other:?}"),
            }
            assert!(watchdog != u64::MAX || ff_res.is_ok(), "off never trips");
            assert_eq!(
                ref_res.as_ref().err(),
                ff_res.as_ref().err(),
                "watchdog={watchdog}: identical trip cycle"
            );
            // Windows streamed before the trip are part of the
            // observable surface too.
            assert_windows_identical(&ref_rec, &ff_rec);
        }
        assert!(tripped > 0, "sweep exercised at least one trip");
    }
}
