//! Property test: any valid configuration survives a
//! serialize-parse round trip through the config-file format.

use proptest::prelude::*;

use gpusimpow::{parse_config, write_config};
use gpusimpow_sim::{DramConfig, GpuConfig, L2Config, WarpSchedPolicy};

/// A cache geometry `(line_bytes, ways, sets)`; capacity is the product,
/// which is what `validate()` asks of every cache.
fn arb_cache(max_sets: usize) -> impl Strategy<Value = (usize, usize, usize)> {
    (
        prop_oneof![Just(32usize), Just(64), Just(128)],
        1usize..9,
        1..max_sets,
    )
}

/// Every field of `GpuConfig`, `DramConfig` and `L2Config` drawn inside
/// `validate()`'s bounds. The struct literals are exhaustive on
/// purpose: a new field does not compile until it is drawn here, and
/// then does not round-trip until the format has a key for it.
fn arb_config() -> impl Strategy<Value = GpuConfig> {
    // name, clusters, cores per cluster, warp size, warps per core,
    // CTAs per core, issue width, two-level active set (`None` = rr)
    let front_end = (
        "[A-Za-z0-9_]{1,12}",
        1usize..8,
        1usize..4,
        prop_oneof![Just(16usize), Just(32), Just(64)],
        1usize..65,
        1usize..17,
        1usize..5,
        prop_oneof![Just(None), (1usize..16).prop_map(Some)],
    );
    // scoreboard, i-cache (in 4-way 64 B sets), regfile (regs, banks),
    // operand collectors, SIMD width, SFUs, (int, fp, sfu) latency
    let execute = (
        prop::bool::ANY,
        1usize..65,
        (1024usize..65537, 1usize..33),
        1usize..9,
        prop_oneof![Just(8usize), Just(16)],
        1usize..9,
        (1u32..33, 1u32..33, 1u32..65),
    );
    // smem (KiB, banks), smem latency, L1 (enabled, geometry, latency),
    // constant cache (sets, latency), SAGUs, L2 (present, geometry,
    // latency)
    let memory = (
        (16usize..129, prop_oneof![Just(8usize), Just(16), Just(32)]),
        1u32..65,
        (prop::bool::ANY, arb_cache(17), 1u32..65),
        (1usize..65, 1u32..33),
        1usize..9,
        (prop::bool::ANY, arb_cache(1025), 1u32..65),
    );
    // NoC (latency, flit bytes), (NoC bandwidth, channels, MC queue),
    // DRAM (banks, row bytes), (tRCD, tRP, CL, tRC), (burst, tREFI,
    // tRFC), (uncore MHz, shader ratio, DRAM MHz), node, junction K
    let uncore = (
        (0u32..33, prop_oneof![Just(16usize), Just(32), Just(64)]),
        (1usize..33, 1usize..9, 1usize..65),
        (
            1usize..33,
            prop_oneof![Just(1024usize), Just(2048), Just(4096)],
        ),
        (1u32..33, 1u32..33, 1u32..33, 1u32..65),
        (1u32..9, 1u32..8001, 1u32..201),
        (1.0f64..100_000.0, 1.0f64..64.0, 1.0f64..100_000.0),
        prop_oneof![Just(40u32), Just(32), Just(28)],
        233.0f64..423.0,
    );
    (front_end, execute, memory, uncore)
        .prop_map(|(front_end, execute, memory, uncore)| {
            let (name, clusters, cores_per_cluster, warp_size, warps, ctas, issue_width, active) =
                front_end;
            let (scoreboard, icache_sets, (regs, banks), collectors, simd_width, sfus, latency) =
                execute;
            let (smem, smem_latency, l1, const_cache, sagu_count, l2) = memory;
            let (
                noc,
                (noc_bandwidth_flits, mem_channels, mc_queue_depth),
                dram,
                t,
                refresh,
                mhz,
                node,
                temp,
            ) = uncore;
            // `l1 = none` is the format's only spelling of a disabled
            // L1, and it carries no capacity.
            let (l1_enabled, (l1_line_bytes, l1_ways, l1_sets), l1_latency) = l1;
            let l1_bytes = if l1_enabled {
                l1_line_bytes * l1_ways * l1_sets
            } else {
                0
            };
            let (l2_present, (l2_line, l2_ways, l2_sets), l2_latency) = l2;
            GpuConfig {
                name,
                clusters,
                cores_per_cluster,
                warp_size,
                max_threads_per_core: warp_size * warps,
                max_ctas_per_core: ctas,
                issue_width,
                warp_scheduler: match active {
                    None => WarpSchedPolicy::RoundRobin,
                    Some(n) => WarpSchedPolicy::TwoLevel {
                        active_warps: n.min(warps),
                    },
                },
                scoreboard,
                icache_bytes: icache_sets * 256,
                regfile_regs_per_core: regs,
                regfile_banks: banks,
                operand_collectors: collectors,
                simd_width,
                sfu_count: sfus,
                int_latency: latency.0,
                fp_latency: latency.1,
                sfu_latency: latency.2,
                smem_bytes: smem.0 * 1024,
                smem_banks: smem.1,
                smem_latency,
                l1_enabled,
                l1_bytes,
                l1_line_bytes,
                l1_ways,
                l1_latency,
                const_cache_bytes: const_cache.0 * 256,
                const_latency: const_cache.1,
                sagu_count,
                l2: l2_present.then_some(L2Config {
                    capacity_bytes: l2_line * l2_ways * l2_sets,
                    line_bytes: l2_line,
                    ways: l2_ways,
                    latency: l2_latency,
                }),
                noc_latency: noc.0,
                noc_flit_bytes: noc.1,
                noc_bandwidth_flits,
                mem_channels,
                mc_queue_depth,
                dram: DramConfig {
                    banks: dram.0,
                    row_bytes: dram.1,
                    t_rcd: t.0,
                    t_rp: t.1,
                    t_cas: t.2,
                    t_rc: t.3,
                    burst_cycles: refresh.0,
                    t_refi: refresh.1,
                    t_rfc: refresh.2,
                },
                uncore_mhz: mhz.0,
                shader_ratio: mhz.1,
                dram_mhz: mhz.2,
                process_nm: node,
                junction_temp_k: temp,
            }
        })
        .prop_filter("must validate", |cfg| cfg.validate().is_ok())
}

proptest! {
    #[test]
    fn config_file_roundtrips(cfg in arb_config()) {
        let text = write_config(&cfg);
        let parsed = parse_config(&text).expect("serialized config parses");
        prop_assert_eq!(parsed, cfg);
    }

    /// Any line of garbage produces an error with that line number, never
    /// a panic.
    #[test]
    fn garbage_lines_error_gracefully(junk in "[a-z_]{1,12} = [a-z0-9]{1,8}") {
        let text = format!("clusters = 2\n{junk}\n");
        match parse_config(&text) {
            Ok(cfg) => prop_assert!(cfg.validate().is_ok(), "accepted configs validate"),
            Err(e) => prop_assert!(e.line == 2 || e.line == 0, "line {} for `{junk}`", e.line),
        }
    }
}
