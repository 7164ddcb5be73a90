//! Batched steady-state stepping is an accelerator, not a semantic: the
//! pure-compute fast path in `Gpu::launch_impl` (plus its in-batch
//! per-core wake gating) must reproduce, bit for bit, what the dense
//! cycle-by-cycle reference loop produces. These tests pin one
//! representative kernel on both presets — barrel-scheduled GT240 and
//! scoreboarded GTX580 — against the same golden counts, time bits and
//! power bits as `tests/determinism.rs`, with the fast path on and off
//! (`Gpu::set_dense_reference`, which also drops fast-forward). If a
//! batch ever swallows a side-effect cycle (a buffered store, a CTA
//! completion, a window boundary), the "on" pins fire; if a change to
//! the ordinary path drifts, both fire.

use gpusimpow::Simulator;
use gpusimpow_kernels::blackscholes::BlackScholes;
use gpusimpow_sim::ActivityStats;

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
}

#[test]
fn gtx580_pins_hold_with_batching_on_and_off() {
    assert_gtx580_pins(run(Simulator::gtx580, true));
    assert_gtx580_pins(run(Simulator::gtx580, false));
}

#[test]
fn stats_match_exactly_either_way() {
    // Beyond the pinned fields: the *entire* counter vector must match.
    let (on, _, _) = run(Simulator::gt240, true);
    let (off, _, _) = run(Simulator::gt240, false);
    assert_eq!(on, off, "batching must not move any activity counter");
}
