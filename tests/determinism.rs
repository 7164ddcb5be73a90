//! Determinism guarantees: the whole pipeline — simulator, power model,
//! and (seeded) testbed — must be bit-reproducible run over run. The
//! experiment tables in EXPERIMENTS.md rely on this.

use gpusimpow::Simulator;
use gpusimpow_kernels::{blackscholes::BlackScholes, Benchmark};
use gpusimpow_measure::{KernelExec, Testbed};
use gpusimpow_sim::{ActivityStats, Gpu, GpuConfig};

fn run_once() -> (ActivityStats, f64) {
    let mut sim = Simulator::gt240().expect("preset builds");
    let reports = sim
        .run_benchmark(&BlackScholes { options: 2048 })
        .expect("verifies");
    (
        reports[0].launch.stats.clone(),
        reports[0].power.total_power().watts(),
    )
}

#[test]
fn simulation_and_power_are_bit_reproducible() {
    let (s1, p1) = run_once();
    let (s2, p2) = run_once();
    assert_eq!(s1, s2, "activity counters must match exactly");
    assert_eq!(p1, p2, "power evaluation must match exactly");
}

#[test]
fn repeated_launches_on_one_gpu_are_reproducible() {
    // Caches are flushed at every launch boundary (begin_launch), so the
    // second run of the same kernel sees identical state.
    let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    let bench = BlackScholes { options: 1024 };
    let a = bench.run(&mut gpu).expect("first run")[0].stats.clone();
    let b = bench.run(&mut gpu).expect("second run")[0].stats.clone();
    // PCIe attribution differs (inputs were already resident), everything
    // architectural matches.
    let mut a_cmp = a.clone();
    let mut b_cmp = b.clone();
    a_cmp.pcie_h2d_bytes = 0;
    a_cmp.pcie_d2h_bytes = 0;
    b_cmp.pcie_h2d_bytes = 0;
    b_cmp.pcie_d2h_bytes = 0;
    assert_eq!(a_cmp, b_cmp);
}

#[test]
fn seeded_testbed_measurements_are_reproducible() {
    let mut sim = Simulator::gt240().expect("preset builds");
    let reports = sim
        .run_benchmark(&BlackScholes { options: 1024 })
        .expect("verifies");
    let exec = KernelExec::from_report(&reports[0].launch);
    let m1 = Testbed::new(GpuConfig::gt240(), 77).measure(std::slice::from_ref(&exec));
    let m2 = Testbed::new(GpuConfig::gt240(), 77).measure(std::slice::from_ref(&exec));
    assert_eq!(m1[0].avg_power.watts(), m2[0].avg_power.watts());
    assert_eq!(m1[0].repeats, m2[0].repeats);
}

/// Golden anchor for the determinism-affecting refactors clippy
/// polices (ordered collections in the hot path, unit-newtype
/// adoption in the power model): one representative kernel must keep
/// *exactly* these counts, time bits and power bits. If an
/// order-randomised structure sneaks back into `crates/sim`, or a
/// power-model "cleanup" perturbs float evaluation order, this fires
/// long before anyone diffs EXPERIMENTS.md.
#[test]
fn blackscholes_gt240_counts_are_pinned() {
    let mut sim = Simulator::gt240().expect("preset builds");
    let reports = sim
        .run_benchmark(&BlackScholes { options: 2048 })
        .expect("verifies");
    let r = &reports[0];
    let s = &r.launch.stats;
    assert_eq!(s.shader_cycles, 2977);
    assert_eq!(s.warp_instructions, 4544);
    assert_eq!(s.thread_instructions, 145_408);
    assert_eq!(s.dram_read_bursts, 768);
    assert_eq!(r.launch.time_s.to_bits(), 0x3ec261f80d2e3a2e);
    assert_eq!(r.power.total_power().watts().to_bits(), 0x40424222c3bfa612);
}

/// The golden anchor, reached through the *replay* frontend: capture
/// the same kernel into a trace, replay it on a fresh GPU, and demand
/// the exact pinned counts and time bits above. If capture perturbs
/// the live run, or replay drives the pipeline even one cycle apart
/// from live execution, this fires with the same precision as the
/// live-frontend pin.
#[test]
fn blackscholes_gt240_replay_counts_are_pinned() {
    let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    gpu.set_tracing(true);
    BlackScholes { options: 2048 }
        .run(&mut gpu)
        .expect("verifies");
    let trace = gpu.take_traces().remove(0);

    let mut fresh = Gpu::new(GpuConfig::gt240()).expect("preset builds");
    let r = fresh.launch_replay(&trace).expect("trace replays");
    assert_eq!(r.stats.shader_cycles, 2977);
    assert_eq!(r.stats.warp_instructions, 4544);
    assert_eq!(r.stats.thread_instructions, 145_408);
    assert_eq!(r.stats.dram_read_bursts, 768);
    assert_eq!(r.time_s.to_bits(), 0x3ec261f80d2e3a2e);
}

/// Second golden anchor, on the scoreboarded GTX580 preset: the SoA
/// gather/dense-compute/masked-scatter pipeline must reproduce exactly
/// the counts and bit patterns the lane-by-lane path produced. The
/// instruction counts match GT240 (same kernel, same warps); cycles,
/// time and power are preset-specific.
#[test]
fn blackscholes_gtx580_counts_are_pinned() {
    let mut sim = Simulator::gtx580().expect("preset builds");
    let reports = sim
        .run_benchmark(&BlackScholes { options: 2048 })
        .expect("verifies");
    let r = &reports[0];
    let s = &r.launch.stats;
    assert_eq!(s.shader_cycles, 1378);
    assert_eq!(s.warp_instructions, 4544);
    assert_eq!(s.thread_instructions, 145_408);
    assert_eq!(s.dram_read_bursts, 768);
    assert_eq!(r.launch.time_s.to_bits(), 0x3eaa36471788359c);
    assert_eq!(r.power.total_power().watts().to_bits(), 0x405f3dc2db7dd43e);
}
