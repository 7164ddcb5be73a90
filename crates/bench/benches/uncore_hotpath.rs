//! Microbenchmarks of the event-driven uncore hot path. The idle pair
//! advances the same span cycle-by-cycle (`advance(1)` in a loop — the
//! dense-loop cost model) and in one skip-ahead call; the drain cases
//! push traffic at cycle 0 and advance until every response is back.
//! `mc-backpressure-storm` is the regime that dominates the
//! `mem_stream` workload of `benchmark/`: thousands of reads parked
//! behind full memory-controller queues, where the engine's cost must
//! follow the requests admitted and scheduled, not the number parked.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use gpusimpow_sim::core::MemRequest;
use gpusimpow_sim::uncore::Uncore;
use gpusimpow_sim::{ActivityVector, EventKind, GpuConfig};

const IDLE_SPAN: u64 = 65_536;

fn read_req(core: usize, addr: u32) -> MemRequest {
    MemRequest {
        core,
        write: false,
        addr,
        bytes: 128,
    }
}

/// Idle uncore, stepped one shader cycle at a time: every NoC link, L2
/// bank and DRAM channel is consulted each cycle even though only the
/// periodic DRAM refresh ever has work. This is the dense loop's cost.
fn bench_idle_dense(c: &mut Criterion) {
    let cfg = GpuConfig::gt240();
    let mut uncore = Uncore::new(&cfg);
    let mut stats = ActivityVector::new();
    let mut resps = Vec::new();
    c.bench_function("uncore/idle-dense-65536", |b| {
        b.iter(|| {
            for _ in 0..IDLE_SPAN {
                uncore.advance(1, &mut resps, &mut stats);
                resps.clear();
            }
            black_box(stats[EventKind::DramRefreshes])
        })
    });
}

/// The same idle span in one skip-ahead call: component work only runs
/// on due event cycles (refresh), leaving the clock-domain accumulator
/// walk as the only per-cycle cost.
fn bench_idle_skip(c: &mut Criterion) {
    let cfg = GpuConfig::gt240();
    let mut uncore = Uncore::new(&cfg);
    let mut stats = ActivityVector::new();
    let mut resps = Vec::new();
    c.bench_function("uncore/idle-skip-65536", |b| {
        b.iter(|| {
            let mut left = IDLE_SPAN;
            while left > 0 {
                left -= uncore.advance(left, &mut resps, &mut stats);
                resps.clear();
            }
            black_box(stats[EventKind::DramRefreshes])
        })
    });
}

/// A loaded drain: a coalesced read burst across all channels pushed at
/// cycle 0, then advanced until every response is back. Measures the
/// event engine under real traffic (links, L2 probes, DRAM timing),
/// where events are due nearly every cycle and skip spans are short.
fn bench_drain_burst(c: &mut Criterion) {
    let cfg = GpuConfig::gt240();
    c.bench_function("uncore/drain-read-burst-32", |b| {
        b.iter(|| {
            let mut uncore = Uncore::new(&cfg);
            let mut stats = ActivityVector::new();
            let mut resps = Vec::new();
            for i in 0..32u32 {
                uncore.push_request(read_req(i as usize % 12, i * 0x100), &mut stats);
            }
            let mut delivered = 0usize;
            while !uncore.is_idle() {
                uncore.advance(u64::MAX, &mut resps, &mut stats);
                delivered += resps.len();
                resps.clear();
            }
            assert_eq!(delivered, 32);
            black_box(stats[EventKind::DramReadBursts])
        })
    });
}

/// Memory-controller back-pressure at the scale `VectorAdd{n:131072}`
/// produces on GTX580 (1 773 requests parked at its peak): 2 048 reads
/// of distinct lines — so every one misses the L2 — pushed at cycle 0,
/// either interleaved over all six channels or all on channel 0, then
/// drained. All but 6 × 32 (or 32) of them wait in the per-channel
/// FIFOs behind the MC queues.
fn bench_backpressure_storm(c: &mut Criterion) {
    const READS: u32 = 2_048;
    let cfg = GpuConfig::gtx580();
    for (name, slice_stride) in [
        ("all-channels", 1),
        ("one-channel", cfg.mem_channels as u32),
    ] {
        c.bench_function(&format!("uncore/mc-backpressure-storm-{name}"), |b| {
            b.iter(|| {
                let mut uncore = Uncore::new(&cfg);
                let mut stats = ActivityVector::new();
                let mut resps = Vec::new();
                for i in 0..READS {
                    let addr = (i * slice_stride) << 8;
                    uncore.push_request(read_req(i as usize % 16, addr), &mut stats);
                }
                let mut delivered = 0usize;
                while !uncore.is_idle() {
                    uncore.advance(u64::MAX, &mut resps, &mut stats);
                    delivered += resps.len();
                    resps.clear();
                }
                assert_eq!(delivered, READS as usize);
                black_box(stats[EventKind::McQueueOps])
            })
        });
    }
}

criterion_group!(
    benches,
    bench_idle_dense,
    bench_idle_skip,
    bench_drain_burst,
    bench_backpressure_storm
);
criterion_main!(benches);
