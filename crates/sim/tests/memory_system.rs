//! Focused tests of the memory-system behaviours that drive DRAM power:
//! cross-warp miss merging (the coalescer's pending-request table),
//! row-buffer locality, and NoC traffic accounting.

use gpusimpow_isa::{assemble, LaunchConfig};
use gpusimpow_sim::{Gpu, GpuConfig};

#[test]
fn cross_warp_misses_merge_in_the_pending_request_table() {
    // Every thread of every warp reads the SAME 128-byte line: the
    // pending-request table (paper ref. [24]) must collapse all of it
    // into very few DRAM reads.
    let mut gpu = Gpu::new(GpuConfig::gt240()).unwrap();
    let buf = gpu.alloc_f32(1024);
    let src = format!(
        "
        mov r0, #0
        ld.global r1, [r0+{0}]
        exit
    ",
        buf.addr()
    );
    let k = assemble("sameline", &src).unwrap();
    let report = gpu.launch(&k, LaunchConfig::linear(1, 256)).unwrap();
    let s = &report.stats;
    assert_eq!(s.coalescer_outputs, 8, "one segment per warp");
    // All 8 warps run on one core; their misses merge into (nearly) one
    // outstanding line.
    assert!(
        s.dram_read_bursts <= 8,
        "merged reads, got {} bursts",
        s.dram_read_bursts
    );
}

#[test]
fn sequential_streams_enjoy_row_buffer_locality() {
    let mut gpu = Gpu::new(GpuConfig::gt240()).unwrap();
    let buf = gpu.alloc(1 << 20);
    let src = format!(
        "
        s2r r0, tid.x
        s2r r1, ctaid.x
        s2r r2, ntid.x
        imad r3, r1, r2, r0
        shl r4, r3, #2
        ld.global r5, [r4+{0}]
        exit
    ",
        buf.addr()
    );
    let k = assemble("stream", &src).unwrap();
    let report = gpu.launch(&k, LaunchConfig::linear(32, 256)).unwrap();
    let s = &report.stats;
    assert!(
        s.dram_row_hit_rate() > 0.9,
        "sequential stream should hit open rows: {:.2}",
        s.dram_row_hit_rate()
    );
}

#[test]
fn scattered_accesses_thrash_rows() {
    let mut gpu = Gpu::new(GpuConfig::gt240()).unwrap();
    let buf = gpu.alloc(32 << 20);
    // Each thread strides by 64 KiB: every access a fresh row.
    let src = format!(
        "
        s2r r0, tid.x
        s2r r1, ctaid.x
        s2r r2, ntid.x
        imad r3, r1, r2, r0
        shl r4, r3, #16
        ld.global r5, [r4+{0}]
        exit
    ",
        buf.addr()
    );
    let k = assemble("scatter", &src).unwrap();
    let report = gpu.launch(&k, LaunchConfig::linear(2, 256)).unwrap();
    let s = &report.stats;
    // Each 128 B request is 4 bursts to one row, so even with zero
    // inter-request locality the burst-level hit rate floors at 0.75.
    assert!(
        s.dram_row_hit_rate() <= 0.78,
        "64 KiB strides should open a row per request: {:.2}",
        s.dram_row_hit_rate()
    );
    // Every request activates a fresh row: maximum activate power.
    assert!(
        s.dram_activates * 4 >= s.dram_read_bursts,
        "{} activates for {} bursts",
        s.dram_activates,
        s.dram_read_bursts
    );
}

#[test]
fn noc_flits_scale_with_traffic_both_directions() {
    let mut gpu = Gpu::new(GpuConfig::gt240()).unwrap();
    let buf = gpu.alloc(1 << 20);
    let read_src = format!(
        "
        s2r r0, tid.x
        s2r r1, ctaid.x
        s2r r2, ntid.x
        imad r3, r1, r2, r0
        shl r4, r3, #2
        ld.global r5, [r4+{0}]
        exit
    ",
        buf.addr()
    );
    let k = assemble("rd", &read_src).unwrap();
    let small = gpu.launch(&k, LaunchConfig::linear(4, 256)).unwrap();
    let large = gpu.launch(&k, LaunchConfig::linear(16, 256)).unwrap();
    assert!(
        large.stats.noc_flits > 3 * small.stats.noc_flits,
        "4x the warps, ~4x the flits: {} vs {}",
        large.stats.noc_flits,
        small.stats.noc_flits
    );
    // Read replies carry data: flits exceed transfers.
    assert!(large.stats.noc_flits > large.stats.noc_transfers);
}

#[test]
fn stores_generate_write_traffic_without_blocking_warps() {
    let mut gpu = Gpu::new(GpuConfig::gt240()).unwrap();
    let buf = gpu.alloc_f32(65536);
    let src = format!(
        "
        s2r r0, tid.x
        s2r r1, ctaid.x
        s2r r2, ntid.x
        imad r3, r1, r2, r0
        shl r4, r3, #2
        st.global [r4+{0}], r3
        exit
    ",
        buf.addr()
    );
    let k = assemble("wr", &src).unwrap();
    let report = gpu.launch(&k, LaunchConfig::linear(8, 256)).unwrap();
    let s = &report.stats;
    assert!(s.dram_write_bursts > 0);
    assert_eq!(s.dram_read_bursts, 0, "pure store kernel");
    // Fire-and-forget stores: the kernel should not be memory-latency
    // bound (cycles comparable to an ALU-only kernel of the same size).
    assert!(
        s.shader_cycles < 6000,
        "stores stalled: {}",
        s.shader_cycles
    );
    // Data made it to memory.
    assert_eq!(gpu.d2h_u32(buf, 3), vec![0, 1, 2]);
}

#[test]
fn l2_absorbs_repeated_lines_on_fermi() {
    let mut gpu = Gpu::new(GpuConfig::gtx580()).unwrap();
    let buf = gpu.alloc_f32(256);
    // 64 blocks all read the same 1 KiB region: after the cold fills,
    // the L2 serves everything; DRAM sees only the cold misses.
    let src = format!(
        "
        s2r r0, tid.x
        shl r4, r0, #2
        ld.global r5, [r4+{0}]
        exit
    ",
        buf.addr()
    );
    let k = assemble("l2reuse", &src).unwrap();
    let report = gpu.launch(&k, LaunchConfig::linear(64, 256)).unwrap();
    let s = &report.stats;
    assert!(s.l2_accesses > 0);
    assert!(
        s.l2_hit_rate() > 0.5,
        "cross-block reuse should hit in L2: {:.2}",
        s.l2_hit_rate()
    );
    assert!(
        s.dram_read_bursts <= 16 * 4,
        "only cold lines reach DRAM: {}",
        s.dram_read_bursts
    );
}

#[test]
fn a_full_chip_of_independent_per_lane_misses_completes() {
    // 32 blocks of 768 threads on GTX580: two blocks (48 warps) per SM,
    // and each thread issues six independent loads, each from its own
    // 128-byte line — 9 216 lines outstanding per SM at the peak. The
    // MSHR file must hold them all (outstanding lines are bounded by
    // warps × destination registers × lanes, not by a fixed table), and
    // the run must match the dense reference loop exactly.
    let threads = 32 * 768u32;
    let words = threads * 6 * 32;
    let run = |dense: bool| {
        let mut gpu = Gpu::new(GpuConfig::gtx580()).unwrap();
        gpu.set_dense_reference(dense);
        let buf = gpu.alloc(words * 4);
        let out = gpu.alloc_f32(threads);
        gpu.h2d_u32(buf, &(0..words).collect::<Vec<u32>>());
        let loads: String = (0..6)
            .map(|k| format!("ld.global r{}, [r4+{}]\n", 5 + k, buf.addr() + 128 * k))
            .collect();
        let src = format!(
            "
            s2r r0, tid.x
            s2r r1, ctaid.x
            s2r r2, ntid.x
            imad r3, r1, r2, r0
            imul r4, r3, #768
            {loads}
            iadd r11, r5, r6
            iadd r11, r11, r7
            iadd r11, r11, r8
            iadd r11, r11, r9
            iadd r11, r11, r10
            shl r12, r3, #2
            st.global [r12+{}], r11
            exit
        ",
            out.addr()
        );
        let k = assemble("six_lines_per_lane", &src).unwrap();
        let report = gpu.launch(&k, LaunchConfig::linear(32, 768)).unwrap();
        (report, gpu.d2h_u32(out, threads as usize))
    };
    let (report, sums) = run(false);
    assert_eq!(report.stats.l1_misses, u64::from(threads) * 6);
    // Thread `g` loaded words 32 · (6g + k) for k = 0..6.
    for (g, &sum) in sums.iter().enumerate() {
        assert_eq!(sum, 1152 * g as u32 + 480, "thread {g}");
    }
    let (dense, _) = run(true);
    assert_eq!(report.stats, dense.stats);
    assert_eq!(report.scoped, dense.scoped);
}
