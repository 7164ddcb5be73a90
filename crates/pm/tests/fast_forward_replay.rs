//! DVFS governor epochs must be unaffected by stall-aware fast-forward.
//!
//! The governor evaluates one epoch per sampling window, so a window
//! boundary landing inside a fast-forward jump is also a governor epoch
//! landing inside a jump. Recording the same launch with fast-forward
//! on and off and replaying both under `Ondemand` must yield identical
//! `PowerTrace`s — same operating-point decisions at the same cycles.

use gpusimpow_isa::{assemble, LaunchConfig};
use gpusimpow_pm::{Ondemand, PowerTracer};
use gpusimpow_power::GpuChip;
use gpusimpow_sim::{Gpu, GpuConfig, RecordedLaunch, WindowRecorder};

/// Records a memory-stall loop kernel with the given fast-forward
/// setting. One block on a 12-core GT240 keeps utilization far below
/// `Ondemand`'s 0.3 down-threshold, so the governor steps the clock
/// down across epochs — the trace is sensitive to every window delta.
fn record(fast_forward: bool, window_cycles: u64) -> RecordedLaunch {
    let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset is valid");
    gpu.set_dense_reference(!fast_forward);
    let buf = gpu.alloc_f32(32);
    let src = format!(
        "
        s2r r0, tid.x
        shl r1, r0, #2
        mov r2, #30
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
    let kernel = assemble("dvfs_stall", &src).expect("valid kernel");
    let mut rec = WindowRecorder::new();
    gpu.launch_with_sink(
        &kernel,
        LaunchConfig::linear(1, 32),
        window_cycles,
        &mut rec,
    )
    .expect("launch completes");
    rec.into_launches().pop().expect("one recorded launch")
}

#[test]
fn governor_epochs_inside_jumps_replay_identically() {
    // A prime epoch width lands boundaries strictly inside memory
    // stalls the fast-forward path jumps over.
    for window in [61, 256] {
        let reference = record(false, window);
        let fast = record(true, window);
        assert!(
            reference.windows.len() > 2,
            "several governor epochs (got {})",
            reference.windows.len()
        );

        let tracer = PowerTracer::new(GpuChip::new(&GpuConfig::gt240()).expect("chip builds"));
        let mut gov_ref = Ondemand::default();
        let mut gov_fast = Ondemand::default();
        let trace_ref = tracer.replay(&reference, &mut gov_ref);
        let trace_fast = tracer.replay(&fast, &mut gov_fast);
        assert_eq!(
            trace_ref, trace_fast,
            "window={window}: identical DVFS decisions and power samples"
        );

        // The governor really acted: the low-utilization stall kernel
        // must drive the clock off the nominal point.
        let distinct: std::collections::BTreeSet<usize> =
            trace_fast.samples.iter().map(|s| s.op_index).collect();
        assert!(
            distinct.len() > 1,
            "window={window}: governor changed operating points ({distinct:?})"
        );
    }
}
