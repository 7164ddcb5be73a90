//! Whole-GPU guard for memory-controller back-pressure.
//!
//! `VectorAdd{n:131072}` on GTX580 is the launch that parks the most
//! requests behind the MC queues (1 773 at its peak, against 6 × 32
//! slots), so it is the one most sensitive to *when* a parked request
//! is admitted. The goldens below were captured at commit `b4566fb`,
//! where the uncore still retried the whole overflow queue on every
//! DRAM cycle; the per-channel FIFOs and the event-driven retry that
//! replaced it must reproduce every counter and every 256-cycle window
//! delta bit for bit, accelerated and dense.

use gpusimpow_kernels::common::Benchmark;
use gpusimpow_kernels::vectoradd::VectorAdd;
use gpusimpow_sim::{Gpu, GpuConfig, RecordedLaunch, WindowRecorder};
use gpusimpow_trace::TraceDigest;

const WINDOW_CYCLES: u64 = 256;

fn record(accelerated: bool) -> RecordedLaunch {
    let mut gpu = Gpu::new(GpuConfig::gtx580()).expect("GTX580 builds");
    gpu.set_dense_reference(!accelerated);
    gpu.attach_sink(WINDOW_CYCLES, Box::new(WindowRecorder::new()));
    VectorAdd { n: 131_072 }.run(&mut gpu).expect("verifies");
    let mut sink = gpu.detach_sink().expect("sink attached");
    let recorder = sink
        .as_any_mut()
        .expect("recorder is 'static")
        .downcast_mut::<WindowRecorder>()
        .expect("sink is the recorder");
    let mut launches = std::mem::take(recorder).into_launches();
    assert_eq!(launches.len(), 1, "vectoradd is one launch");
    launches.remove(0)
}

fn digest_words(words: impl Iterator<Item = u64>) -> String {
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    TraceDigest::compute(&bytes).to_hex()
}

fn assert_pins(launch: &RecordedLaunch, mode: &str) {
    let report = launch.report.as_ref().expect("launch completed");
    let s = &report.stats;
    assert_eq!(s.shader_cycles, 29_392, "{mode}");
    assert_eq!(s.warp_instructions, 40_960, "{mode}");
    assert_eq!(s.mc_queue_ops, 12_288, "{mode}");
    assert_eq!(s.dram_read_bursts, 32_768, "{mode}");
    assert_eq!(s.dram_write_bursts, 16_384, "{mode}");
    assert_eq!(s.dram_activates, 5_787, "{mode}");
    assert_eq!(s.dram_precharges, 5_307, "{mode}");
    assert_eq!(s.noc_flits, 69_632, "{mode}");
    assert_eq!(report.time_s.to_bits(), 0x3ef1_78b4_f595_66fc, "{mode}");
    assert_eq!(
        digest_words(s.to_vector().values().iter().copied()),
        "a718c6c6f4f71794ecc6b10ae99b9933",
        "{mode}: full activity vector"
    );

    assert_eq!(launch.windows.len(), 115, "{mode}");
    let window_words = launch.windows.iter().flat_map(|w| {
        [w.index, w.start_cycle, w.end_cycle]
            .into_iter()
            .chain(w.stats.to_vector().values().iter().copied())
            .chain(w.cluster_busy.iter().copied())
            .collect::<Vec<u64>>()
    });
    assert_eq!(
        digest_words(window_words),
        "1affb68bc9f86fd94fb711b0ea308103",
        "{mode}: per-window deltas"
    );
}

#[test]
fn vectoradd_gtx580_pins_hold_accelerated() {
    assert_pins(&record(true), "accelerated");
}

#[test]
fn vectoradd_gtx580_pins_hold_dense() {
    assert_pins(&record(false), "dense");
}
