//! Steady-state allocation contract of the SoA hot path: once a `Gpu`
//! is warm, the cycle loop must not allocate per executed instruction.
//!
//! The scratch block (`LaneScratch`), the coalescer's segment buffers,
//! the load/store unit's tables (store buffer, load groups, MSHR) and
//! the uncore queues are all reused across cycles, so scaling a
//! kernel's iteration count — more cycles, more executed instructions,
//! identical launch shape — must not scale the number of heap
//! allocations. Launch setup (warp vectors, register files, SIMT
//! stacks) allocates proportionally to the *grid*, which is held fixed
//! here; a per-cycle `vec!`/`collect` regression in the execute or
//! LD/ST path makes the long run's allocation count grow with the
//! iteration count and trips the ratio assertion.
//!
//! These tests are the contract's only check. The kernels are chosen so
//! that an allocation seeded into any loop body on the per-cycle path of
//! `crates/sim/src/core/`, `func.rs`, `ldst.rs` or `wheel.rs` fails at
//! least one of them (DESIGN.md §14 has the seed-by-seed table).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpusimpow_isa::{Kernel, KernelBuilder, LaunchConfig, Operand, Reg, SfuOp, SpecialReg};
use gpusimpow_kernels::micro;
use gpusimpow_sim::{Gpu, GpuConfig, WarpSchedPolicy};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The counter is process-wide: tests hold this while they measure.
static SERIAL: Mutex<()> = Mutex::new(());

// SAFETY: pure pass-through to `System` plus a relaxed counter bump;
// every layout/pointer contract is forwarded to the system allocator
// unchanged, so its guarantees carry over verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.dealloc` with the caller's pointer.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to `System.realloc` with the caller's pointer.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations during one launch of `kernel` on an already-warm `Gpu`.
fn allocations_during_launch(gpu: &mut Gpu, kernel: &Kernel, launch: LaunchConfig) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = gpu.launch(kernel, launch).expect("launch runs");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(report.stats.shader_cycles > 0);
    after - before
}

/// Warms `gpu` up on both kernels — the first launches grow scratch and
/// queue capacities to their high-water marks — then measures one
/// launch of each. The long kernel executes several times the
/// instructions over the same grid; a per-cycle allocation anywhere in
/// the hot path would make its count a multiple of the short one's,
/// while reused buffers keep the two within noise (small slack for
/// amortized queue growth in the uncore).
fn assert_flat(what: &str, gpu: &mut Gpu, short: &Kernel, long: &Kernel, launch: LaunchConfig) {
    allocations_during_launch(gpu, short, launch);
    allocations_during_launch(gpu, long, launch);
    let short = allocations_during_launch(gpu, short, launch);
    let long = allocations_during_launch(gpu, long, launch);
    assert!(
        long <= short + short / 4 + 64,
        "{what}: allocation count scales with cycle count: {short} \
         allocations for the short kernel vs {long} for the long one — \
         the hot path allocates in steady state"
    );
}

#[test]
fn allocations_do_not_scale_with_executed_instructions() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 12-lane warps leave a row tail past the last full 8-lane vector of
    // the AVX FFMA kernel.
    let mut narrow = GpuConfig::gt240();
    narrow.warp_size = 12;
    narrow.simd_width = 4;
    narrow.name = "GT240 12-lane warps".to_string();
    for cfg in [GpuConfig::gt240(), narrow] {
        let name = cfg.name.clone();
        let mut gpu = Gpu::new(cfg).expect("config builds");
        assert_flat(
            &format!("cluster_step on {name}, 64 vs 512 iterations"),
            &mut gpu,
            &micro::cluster_step_kernel(64),
            &micro::cluster_step_kernel(512),
            LaunchConfig::linear(4, 64),
        );
    }
}

/// Every thread loads its own word of `data`, adds one and stores it
/// back, `iterations` times; each iteration also reads the thread's
/// word of a constant table.
fn memory_loop_kernel(data: u32, threads_per_cta: u32, iterations: u32) -> Kernel {
    let mut k = KernelBuilder::new("memory_loop");
    let table = k.push_consts(&vec![0; threads_per_cta as usize]);
    let (tid, cta, ntid, gid, addr) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    k.s2r(tid, SpecialReg::TidX);
    k.s2r(cta, SpecialReg::CtaIdX);
    k.s2r(ntid, SpecialReg::NTidX);
    k.imad(gid, cta, ntid, tid);
    k.shl(addr, gid, Operand::imm_u32(2));
    let const_addr = Reg(8);
    k.shl(const_addr, tid, Operand::imm_u32(2));
    let (i, cond, v) = (Reg(5), Reg(6), Reg(7));
    let offset = data as i32;
    k.for_range(
        i,
        cond,
        Operand::imm_u32(0),
        Operand::imm_u32(iterations),
        1,
        |k| {
            k.ld_global(v, addr, offset);
            k.iadd(v, v, Operand::imm_u32(1));
            k.st_global(v, addr, offset);
            k.ld_const(v, const_addr, table as i32);
        },
    );
    k.exit();
    k.build().expect("memory loop kernel is valid")
}

#[test]
fn memory_path_allocations_do_not_scale_with_loop_iterations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let launch = LaunchConfig::linear(8, 128);
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
        let name = cfg.name.clone();
        let mut gpu = Gpu::new(cfg).expect("preset builds");
        let data = gpu.alloc_f32(launch.total_threads() as u32).addr();
        let threads = launch.threads_per_block();
        assert_flat(
            &format!("global load/add/store and constant load loop on {name}, 4 vs 28 iterations"),
            &mut gpu,
            &memory_loop_kernel(data, threads, 4),
            &memory_loop_kernel(data, threads, 28),
            launch,
        );
    }
}

/// Per iteration: an `S2R` of each thread-id row, an SFU op, a shared
/// store and load two words apart (two-way bank conflicts), a barrier
/// and a branch that diverges on odd lanes.
fn barrier_loop_kernel(threads_per_cta: u32, iterations: u32) -> Kernel {
    let mut k = KernelBuilder::new("barrier_loop");
    let smem = k.alloc_smem(threads_per_cta * 8);
    let (tid, addr, odd, v) = (Reg(0), Reg(1), Reg(2), Reg(3));
    k.s2r(tid, SpecialReg::TidX);
    k.shl(addr, tid, Operand::imm_u32(3));
    k.iadd(addr, addr, Operand::imm_u32(smem));
    k.iand(odd, tid, Operand::imm_u32(1));
    let (i, cond) = (Reg(4), Reg(5));
    k.for_range(
        i,
        cond,
        Operand::imm_u32(0),
        Operand::imm_u32(iterations),
        1,
        |k| {
            k.s2r(v, SpecialReg::TidY);
            k.s2r(v, SpecialReg::TidX);
            k.i2f(v, v);
            k.sfu(SfuOp::Rsqrt, v, v);
            k.st_shared(v, addr, 0);
            k.ld_shared(v, addr, 0);
            k.bar();
            k.if_then(odd, |k| {
                k.fadd(v, v, v);
            });
        },
    );
    k.exit();
    k.build().expect("barrier loop kernel is valid")
}

#[test]
fn barrier_path_allocations_do_not_scale_with_loop_iterations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 16 warps per CTA: more than a two-level core's active set of 8, so
    // every barrier release also promotes pending warps.
    let launch = LaunchConfig::linear(4, 512);
    let mut two_level = GpuConfig::gt240();
    two_level.warp_scheduler = WarpSchedPolicy::TwoLevel { active_warps: 8 };
    two_level.name = "GT240 two-level:8".to_string();
    for cfg in [GpuConfig::gt240(), GpuConfig::gtx580(), two_level] {
        let name = cfg.name.clone();
        let mut gpu = Gpu::new(cfg).expect("config builds");
        assert_flat(
            &format!("S2R/SFU/shared/barrier/divergence loop on {name}, 4 vs 64 iterations"),
            &mut gpu,
            &barrier_loop_kernel(launch.threads_per_block(), 4),
            &barrier_loop_kernel(launch.threads_per_block(), 64),
            launch,
        );
    }
}
