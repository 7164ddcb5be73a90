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
//! constant arms, barrier release). A last pin holds the two-phase
//! step's cross-core store visibility.

use gpusimpow_isa::{CmpOp, Kernel, KernelBuilder, LaunchConfig, Operand, Reg, SpecialReg};
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
}

#[derive(Debug, Clone, Copy)]
enum Work {
    Alu,
    Mem,
    Divergent,
    Barrier,
}

const TWO_LEVEL: WarpSchedPolicy = WarpSchedPolicy::TwoLevel { active_warps: 8 };

fn config(chip: Chip, sched: WarpSchedPolicy) -> GpuConfig {
    let mut cfg = match chip {
        Chip::Gt240 => GpuConfig::gt240(),
        Chip::Gtx580 => GpuConfig::gtx580(),
    };
    cfg.warp_scheduler = sched;
    cfg
}

fn run(work: Work, gpu: &mut Gpu) -> Vec<LaunchReport> {
    match work {
        Work::Alu => vec![gpu
            .launch(&cluster_step_kernel(24), LaunchConfig::linear(24, 256))
            .expect("alu probe completes")],
        Work::Mem => VectorAdd { n: 16_384 }.run(gpu).expect("verifies"),
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
];

#[test]
fn stock_presets_hold_every_pin_in_every_mode() {
    for pin in PINS {
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
}

/// Loads CTA 1 issues back to back in [`two_phase_kernel`].
const LOADS: u8 = 32;

/// CTA 0 stores 1 to the flag word at `flag`; CTA 1 issues [`LOADS`]
/// unrolled loads of it into separate registers, then writes every
/// loaded value to `out`.
fn two_phase_kernel(flag: u32, out: u32) -> Kernel {
    let mut k = KernelBuilder::new("two_phase");
    let (cta, is_writer, addr, one) = (Reg(0), Reg(1), Reg(2), Reg(3));
    k.s2r(cta, SpecialReg::CtaIdX);
    k.isetp(CmpOp::Eq, is_writer, cta, Operand::imm_u32(0));
    k.movi(addr, flag);
    k.if_then_else(
        is_writer,
        |k| {
            k.movi(one, 1);
            k.st_global(one, addr, 0);
        },
        |k| {
            for i in 0..LOADS {
                k.ld_global(Reg(8 + i), addr, 0);
            }
            k.movi(addr, out);
            for i in 0..LOADS {
                k.st_global(Reg(8 + i), addr, 4 * i32::from(i));
            }
        },
    );
    k.exit();
    k.build().expect("two-phase kernel is valid")
}

/// Cores tick in id order within a cycle, and CTA 0 lands on a
/// lower-id core than CTA 1. A store committed inside `tick` rather
/// than in the commit phase would therefore reach a load CTA 1 issues
/// in the same cycle, and the first 1 would move one slot earlier. On
/// the GT240 preset the loads issue several cycles apart and no store
/// placement tried lines one up with the store, so only the GTX580 is
/// pinned.
#[test]
fn cross_core_store_is_visible_one_cycle_later() {
    let mut want = vec![0u32; 12];
    want.resize(usize::from(LOADS), 1);
    for dense in [false, true] {
        let mut gpu = Gpu::new(GpuConfig::gtx580()).expect("config is valid");
        gpu.set_dense_reference(dense);
        let flag = gpu.alloc(4);
        let out = gpu.alloc(4 * u32::from(LOADS));
        gpu.h2d_u32(flag, &[0]);
        gpu.launch(
            &two_phase_kernel(flag.addr(), out.addr()),
            LaunchConfig::linear(2, 32),
        )
        .expect("two-phase probe completes");
        assert_eq!(gpu.d2h_u32(out, usize::from(LOADS)), want, "dense={dense}");
    }
}
