//! Stage-level freeze of the SIMT core, captured at commit `3c8f814`
//! (the last one with a single-file `crates/sim/src/core.rs`).
//!
//! Every pin is cycles + the digest of the full activity vector + the
//! `time_s` bit pattern, and every pin must hold under both the
//! accelerated loop and the dense reference: the split of `core.rs`
//! into `core/{fetch,issue,execute,mem,retire,…}.rs` and the collapse
//! of its six round-robin walks into one may not move a single
//! counter. The kernels are chosen per pipeline stage: ALU-bound
//! (issue + unit table), memory-bound (load/store path, global arm),
//! divergent (SIMT stack + masked lane walk) and barrier (shared and
//! constant arms, barrier release).
//!
//! The `wide` cores hold 96 warps — more than the 64-bit scheduler hint
//! masks cover — so the fetch, issue and promote walks all run unhinted
//! over slots ≥ 64. No other test in the repository reaches that path.

use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::micro::{cluster_step_kernel, divergence_kernel};
use gpusimpow_kernels::pathfinder::Pathfinder;
use gpusimpow_kernels::vectoradd::VectorAdd;
use gpusimpow_kernels::Benchmark;
use gpusimpow_sim::{Gpu, GpuConfig, LaunchReport, WarpSchedPolicy};
use gpusimpow_trace::TraceDigest;

#[derive(Debug, Clone, Copy)]
enum Chip {
    Gt240,
    Gtx580,
    Gt240Wide,
    Gtx580Wide,
}

#[derive(Debug, Clone, Copy)]
enum Work {
    Alu,
    Mem,
    Divergent,
    Barrier,
    /// `Alu` with enough blocks to fill all 96 warp slots of a wide core.
    AluFull,
    /// `Mem` with enough blocks to fill all 96 warp slots of a wide core.
    MemFull,
}

const TWO_LEVEL: WarpSchedPolicy = WarpSchedPolicy::TwoLevel { active_warps: 8 };

fn config(chip: Chip, sched: WarpSchedPolicy) -> GpuConfig {
    let (mut cfg, wide) = match chip {
        Chip::Gt240 => (GpuConfig::gt240(), false),
        Chip::Gtx580 => (GpuConfig::gtx580(), false),
        Chip::Gt240Wide => (GpuConfig::gt240(), true),
        Chip::Gtx580Wide => (GpuConfig::gtx580(), true),
    };
    if wide {
        cfg.max_threads_per_core = 32 * 96;
        cfg.max_ctas_per_core = 24;
        cfg.regfile_regs_per_core *= 4;
    }
    cfg.warp_scheduler = sched;
    cfg
}

fn run(work: Work, gpu: &mut Gpu) -> Vec<LaunchReport> {
    match work {
        Work::Alu => vec![gpu
            .launch(&cluster_step_kernel(24), LaunchConfig::linear(24, 256))
            .expect("alu probe completes")],
        Work::Mem => VectorAdd { n: 16_384 }.run(gpu).expect("verifies"),
        Work::AluFull => vec![gpu
            .launch(&cluster_step_kernel(8), LaunchConfig::linear(192, 256))
            .expect("alu probe completes")],
        Work::MemFull => VectorAdd { n: 49_152 }.run(gpu).expect("verifies"),
        Work::Divergent => vec![gpu
            .launch(&divergence_kernel(4), LaunchConfig::linear(16, 128))
            .expect("divergence probe completes")],
        Work::Barrier => Pathfinder { cols: 512, rows: 6 }
            .run(gpu)
            .expect("verifies"),
    }
}

/// (total shader cycles, digest over every launch's full activity
/// vector and `time_s` bits, `time_s` bits of the last launch).
fn measure(cfg: GpuConfig, work: Work, dense: bool) -> (u64, String, u64) {
    let mut gpu = Gpu::new(cfg).expect("config is valid");
    gpu.set_dense_reference(dense);
    let reports = run(work, &mut gpu);
    let cycles = reports.iter().map(|r| r.stats.shader_cycles).sum();
    let bytes: Vec<u8> = reports
        .iter()
        .flat_map(|r| {
            let vector = r.stats.to_vector();
            let mut words = vector.values().to_vec();
            words.push(r.time_s.to_bits());
            words
        })
        .flat_map(u64::to_le_bytes)
        .collect();
    let last = reports.last().expect("at least one launch");
    (
        cycles,
        TraceDigest::compute(&bytes).to_hex(),
        last.time_s.to_bits(),
    )
}

struct Pin {
    chip: Chip,
    sched: WarpSchedPolicy,
    work: Work,
    cycles: u64,
    digest: &'static str,
    time_bits: u64,
}

const RR: WarpSchedPolicy = WarpSchedPolicy::RoundRobin;

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { chip: Chip::Gt240, sched: RR, work: Work::Alu, cycles: 10807, digest: "a6ed1340d6c2be9c1f5862a6922de6c7", time_bits: 0x3ee0aedc47a40a89 },
    Pin { chip: Chip::Gt240, sched: RR, work: Work::Mem, cycles: 10439, digest: "8fbd01df91464434c811cd46b994083f", time_bits: 0x3ee01d6dda5de78b },
    Pin { chip: Chip::Gt240, sched: RR, work: Work::Divergent, cycles: 5849, digest: "aaf212977445809c8987b10fe7c8b6ee", time_bits: 0x3ed20efa6d6e8d2b },
    Pin { chip: Chip::Gt240, sched: RR, work: Work::Barrier, cycles: 7015, digest: "52398a7721f3821b8e01a5b7bfbccdc3", time_bits: 0x3eb153a804db2b3a },
    Pin { chip: Chip::Gt240, sched: TWO_LEVEL, work: Work::Alu, cycles: 10271, digest: "15fcafc2603cfa066521019b3c6ac937", time_bits: 0x3edfb612b522ba45 },
    Pin { chip: Chip::Gt240, sched: TWO_LEVEL, work: Work::Mem, cycles: 10150, digest: "b856d422b4bac0f3bada8c6c7b9ba9fd", time_bits: 0x3edf566fa7b5ff15 },
    Pin { chip: Chip::Gt240, sched: TWO_LEVEL, work: Work::Divergent, cycles: 5849, digest: "624fa724c3fde94143f30406dde04490", time_bits: 0x3ed20efa6d6e8d2b },
    Pin { chip: Chip::Gt240, sched: TWO_LEVEL, work: Work::Barrier, cycles: 6995, digest: "2a2ef24565d7fa3c71d3db673f639bcd", time_bits: 0x3eb14702972e1d0e },
    Pin { chip: Chip::Gtx580, sched: RR, work: Work::Alu, cycles: 5714, digest: "0be65f9af1c3976096592d7b32e27a3d", time_bits: 0x3ecb2c30fd2d9e7e },
    Pin { chip: Chip::Gtx580, sched: RR, work: Work::Mem, cycles: 3666, digest: "a5e5bac869170355947510b1e367182a", time_bits: 0x3ec16ef7bc548deb },
    Pin { chip: Chip::Gtx580, sched: RR, work: Work::Divergent, cycles: 2418, digest: "f6c61ef62e1e7ee84a0eef912c72e1cf", time_bits: 0x3eb6ff51b1a08fa3 },
    Pin { chip: Chip::Gtx580, sched: RR, work: Work::Barrier, cycles: 3768, digest: "ea09407bc82907504a072742d5fd3d9c", time_bits: 0x3e9c885dbbfbee8f },
    Pin { chip: Chip::Gtx580, sched: TWO_LEVEL, work: Work::Alu, cycles: 5234, digest: "70e1a59e454086a1ec3dd0bebde90d4f", time_bits: 0x3ec8e3d791fabe9c },
    Pin { chip: Chip::Gtx580, sched: TWO_LEVEL, work: Work::Mem, cycles: 3604, digest: "ec86073031ac252a032069b1d85fb6eb", time_bits: 0x3ec1237d409dfbab },
    Pin { chip: Chip::Gtx580, sched: TWO_LEVEL, work: Work::Divergent, cycles: 2428, digest: "95cac00954df5791034de5355c9d088c", time_bits: 0x3eb717aac0c2ae4d },
    Pin { chip: Chip::Gtx580, sched: TWO_LEVEL, work: Work::Barrier, cycles: 3930, digest: "8100a35e1dd33db510abdb863f40313e", time_bits: 0x3e9dac8a71955e80 },
    Pin { chip: Chip::Gt240Wide, sched: RR, work: Work::Mem, cycles: 10609, digest: "383827737d9a54b6e1937bb413e3e3bb", time_bits: 0x3ee0609cb10542d6 },
    Pin { chip: Chip::Gt240Wide, sched: RR, work: Work::MemFull, cycles: 31575, digest: "83f69cb11226e6a7fd69de478a36dc76", time_bits: 0x3ef85f1fa9ae7c73 },
    Pin { chip: Chip::Gt240Wide, sched: RR, work: Work::AluFull, cycles: 30310, digest: "6c0202cc7ecbd987d6e974e158996d66", time_bits: 0x3ef76529ddddf04f },
    Pin { chip: Chip::Gt240Wide, sched: TWO_LEVEL, work: Work::Mem, cycles: 10073, digest: "e5f12fd813cf06ff6dbd5411dca1a7ac", time_bits: 0x3edf199387e52ae0 },
    Pin { chip: Chip::Gt240Wide, sched: TWO_LEVEL, work: Work::MemFull, cycles: 30204, digest: "c6cc694694e6f149498f1c4a2ed156da", time_bits: 0x3ef75037e03750d6 },
    Pin { chip: Chip::Gt240Wide, sched: TWO_LEVEL, work: Work::AluFull, cycles: 28307, digest: "06eefd7e4eb2362e3fbefd6d2a43bb8c", time_bits: 0x3ef5d9607959d8bc },
    Pin { chip: Chip::Gtx580Wide, sched: RR, work: Work::Mem, cycles: 3666, digest: "70762a681d6ed79f6164ccb64d5382f2", time_bits: 0x3ec16ef7bc548deb },
    Pin { chip: Chip::Gtx580Wide, sched: RR, work: Work::MemFull, cycles: 11362, digest: "c504b314e1bbf77e67c8d31033b3dc89", time_bits: 0x3edb040471021f1a },
    Pin { chip: Chip::Gtx580Wide, sched: RR, work: Work::AluFull, cycles: 22150, digest: "7c92d418c404fadc9ce947260723f4a6", time_bits: 0x3eea55523e06e980 },
    Pin { chip: Chip::Gtx580Wide, sched: TWO_LEVEL, work: Work::Mem, cycles: 3604, digest: "ec86073031ac252a032069b1d85fb6eb", time_bits: 0x3ec1237d409dfbab },
    Pin { chip: Chip::Gtx580Wide, sched: TWO_LEVEL, work: Work::MemFull, cycles: 11010, digest: "21b86773196a31722faf6e0527b42ff5", time_bits: 0x3eda2dc1856f77ad },
    Pin { chip: Chip::Gtx580Wide, sched: TWO_LEVEL, work: Work::AluFull, cycles: 12698, digest: "4c5ae2afc0471de7e1315e0565373806", time_bits: 0x3ede313c9da8ec02 },
];

fn assert_pin(pin: &Pin) {
    for dense in [false, true] {
        let got = measure(config(pin.chip, pin.sched), pin.work, dense);
        assert_eq!(
            got,
            (pin.cycles, pin.digest.to_string(), pin.time_bits),
            "{:?} {:?} {:?} dense={dense}",
            pin.chip,
            pin.sched,
            pin.work
        );
    }
}

#[test]
fn stock_presets_hold_every_pin_in_every_mode() {
    for pin in PINS {
        if matches!(pin.chip, Chip::Gt240 | Chip::Gtx580) {
            assert_pin(pin);
        }
    }
}

#[test]
fn wide_cores_walk_slots_past_the_hint_masks() {
    let wide: Vec<&Pin> = PINS
        .iter()
        .filter(|p| matches!(p.chip, Chip::Gt240Wide | Chip::Gtx580Wide))
        .collect();
    assert_eq!(wide.len(), 12, "two chips x two schedulers x three kernels");
    for pin in wide {
        assert!(config(pin.chip, pin.sched).max_warps_per_core() > 64);
        assert_pin(pin);
    }
}

#[test]
fn wide_core_replay_matches_live() {
    // The capture/replay frontend shares the stage code, so the unhinted
    // walks must also agree between the live and the replayed pipeline —
    // on the capturing chip and on the other wide chip.
    let mut gpu = Gpu::new(config(Chip::Gt240Wide, RR)).expect("config is valid");
    gpu.set_tracing(true);
    let live_gt240 = run(Work::Mem, &mut gpu).remove(0);
    let trace = gpu.take_traces().remove(0);
    let mut other = Gpu::new(config(Chip::Gtx580Wide, RR)).expect("config is valid");
    let live_gtx580 = run(Work::Mem, &mut other).remove(0);
    for (chip, live) in [
        (Chip::Gt240Wide, &live_gt240),
        (Chip::Gtx580Wide, &live_gtx580),
    ] {
        let mut gpu = Gpu::new(config(chip, RR)).expect("config is valid");
        let replayed = gpu.launch_replay(&trace).expect("trace replays");
        assert_eq!(live.stats, replayed.stats, "{chip:?}: counters");
        assert_eq!(live.time_s.to_bits(), replayed.time_s.to_bits(), "{chip:?}");
        assert_eq!(live.scoped, replayed.scoped, "{chip:?}: scoped activity");
    }
}
