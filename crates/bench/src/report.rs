//! Generates the full EXPERIMENTS.md report — every table and figure of
//! the paper's evaluation, rendered as markdown.

use std::fmt::Write as _;

use crate::{experiments, render};
use gpusimpow_kernels::all_benchmarks;
use gpusimpow_sim::{GpuConfig, SimPool};

/// Runs every experiment stage (`small` selects reduced workload sizes)
/// and returns the rendered markdown. Progress goes to stderr. The
/// output is byte-identical for any `pool` thread count.
///
/// `per_cluster` appends the scoped per-cluster power-attribution
/// section (the `--per-cluster` flag of `run_all_experiments`); the
/// committed `EXPERIMENTS.md` is generated without it.
pub fn generate(small: bool, per_cluster: bool, pool: &SimPool) -> String {
    let mut md = String::new();
    let w = &mut md;

    writeln!(w, "# EXPERIMENTS — paper vs. reproduction\n").unwrap();
    writeln!(
        w,
        "Regenerated by `cargo run --release -p gpusimpow-bench --bin \
         run_all_experiments`{}.\n",
        if small {
            " (reduced workload sizes)"
        } else {
            ""
        }
    )
    .unwrap();
    writeln!(
        w,
        "The \"measured\" side of every experiment comes from the virtual \
         testbed (`gpusimpow-measure`): an independently parameterized \
         reference-card emulator behind a model of the paper's riser-card / \
         AD8210 / NI USB-6210 measurement chain. See DESIGN.md §2 for the \
         substitution rationale.\n"
    )
    .unwrap();

    // ---- Table I ---------------------------------------------------------
    eprintln!("[1/8] Table I");
    writeln!(w, "## Table I — benchmark suite\n").unwrap();
    writeln!(w, "| name | #kernels | description | origin |").unwrap();
    writeln!(w, "|---|---|---|---|").unwrap();
    for b in all_benchmarks() {
        writeln!(
            w,
            "| {} | {} | {} | {} |",
            b.name(),
            b.kernel_names().len(),
            b.description(),
            b.origin()
        )
        .unwrap();
    }
    writeln!(
        w,
        "\n19 kernels total, matching Fig. 6's bars (the paper's Table I \
         lists 11 benchmarks; needle appears in Fig. 6 and is included).\n"
    )
    .unwrap();

    // ---- Table II --------------------------------------------------------
    eprintln!("[2/8] Table II");
    let gt = GpuConfig::gt240();
    let gtx = GpuConfig::gtx580();
    writeln!(w, "## Table II — architectures under evaluation\n").unwrap();
    writeln!(w, "| feature | GT240 | GTX580 |").unwrap();
    writeln!(w, "|---|---|---|").unwrap();
    writeln!(
        w,
        "| #Cores | {} | {} |",
        gt.total_cores(),
        gtx.total_cores()
    )
    .unwrap();
    writeln!(
        w,
        "| #Threads per core | {} | {} |",
        gt.max_threads_per_core, gtx.max_threads_per_core
    )
    .unwrap();
    writeln!(
        w,
        "| #FUs per core | {} | {} |",
        gt.simd_width, gtx.simd_width
    )
    .unwrap();
    writeln!(
        w,
        "| Uncore clock | {} MHz | {} MHz |",
        gt.uncore_mhz, gtx.uncore_mhz
    )
    .unwrap();
    writeln!(
        w,
        "| Shader-to-uncore | {}x | {}x |",
        gt.shader_ratio, gtx.shader_ratio
    )
    .unwrap();
    writeln!(
        w,
        "| #Warps in-flight | {} | {} |",
        gt.max_warps_per_core(),
        gtx.max_warps_per_core()
    )
    .unwrap();
    writeln!(
        w,
        "| Scoreboard | {} | {} |",
        if gt.scoreboard { "yes" } else { "no (barrel)" },
        if gtx.scoreboard { "yes" } else { "no (barrel)" }
    )
    .unwrap();
    writeln!(
        w,
        "| L2 size | {} | {} |",
        gt.l2
            .map(|l| format!("{} KB", l.capacity_bytes / 1024))
            .unwrap_or_else(|| "—".into()),
        gtx.l2
            .map(|l| format!("{} KB", l.capacity_bytes / 1024))
            .unwrap_or_else(|| "—".into())
    )
    .unwrap();
    writeln!(
        w,
        "| Process node | {} nm | {} nm |\n",
        gt.process_nm, gtx.process_nm
    )
    .unwrap();

    // ---- Fig. 4 ----------------------------------------------------------
    eprintln!("[3/8] Fig. 4");
    writeln!(w, "## Fig. 4 — cluster-activation staircase (GT240)\n").unwrap();
    let fig4 = experiments::fig4_cluster_power(experiments::BOARD_SEED, pool);
    writeln!(w, "{}", render::fig4(&fig4)).unwrap();
    let cluster_step = fig4[1].delta_w;
    let core_step = fig4[5].delta_w;
    writeln!(
        w,
        "Every step includes the new block's own switching power; the \
         *difference* between a fresh-cluster step and a same-cluster step \
         is {:.2} W (paper: 0.692 − 0.199 ≈ 0.49 W). The first block's jump \
         over the 19.5 W pre-kernel state carries the global scheduler's \
         3.34 W.\n",
        cluster_step - core_step
    )
    .unwrap();

    // ---- Table IV --------------------------------------------------------
    eprintln!("[4/8] Table IV");
    writeln!(w, "## Table IV — static power and area\n").unwrap();
    let t4 = experiments::table4_static_area(experiments::BOARD_SEED);
    writeln!(w, "{}", render::table4(&t4)).unwrap();
    writeln!(
        w,
        "The GTX580 area overshoots the paper's estimate by ~17 % (the \
         undifferentiated-area factor is calibrated on the GT240 and grows \
         linearly with modelled core area); both static-power sides \
         reproduce within a few percent.\n"
    )
    .unwrap();

    // ---- §III-D ----------------------------------------------------------
    eprintln!("[5/8] §III-D microbenchmarks");
    writeln!(w, "## §III-D — per-operation energy microbenchmarks\n").unwrap();
    let micro = experiments::microbench_energy(experiments::BOARD_SEED, pool);
    writeln!(w, "{}", render::microbench(&micro)).unwrap();

    // ---- §IV-B -----------------------------------------------------------
    eprintln!("[6/8] §IV-B static estimation");
    writeln!(w, "## §IV-B — hardware static-power estimation\n").unwrap();
    let est = experiments::static_estimation(experiments::BOARD_SEED);
    writeln!(w, "```text\n{}```\n", render::static_estimation(&est)).unwrap();

    // ---- §IV-A -----------------------------------------------------------
    eprintln!("[7/8] §IV-A error budget");
    writeln!(w, "## §IV-A — measurement-chain error budget\n").unwrap();
    let budget = experiments::measurement_error_budget(25, pool);
    writeln!(w, "```text\n{}```\n", render::error_budget(&budget)).unwrap();

    // ---- Fig. 6 + Table V -------------------------------------------------
    eprintln!("[8/8] Fig. 6 validation (both GPUs) + Table V");
    writeln!(
        w,
        "## Fig. 6 — simulated vs measured power, all 19 kernels\n"
    )
    .unwrap();
    // The two GPU validations are independent full-suite simulations —
    // the most expensive stage — so they fan out over the pool.
    let summaries = pool.run(vec![GpuConfig::gt240(), GpuConfig::gtx580()], |cfg| {
        experiments::fig6_validation(&cfg, experiments::BOARD_SEED, small)
    });
    for summary in &summaries {
        writeln!(w, "{}", render::fig6(summary)).unwrap();
    }
    writeln!(
        w,
        "The paper's qualitative structure holds: the simulator \
         overestimates nearly every kernel, the SFU-heavy blackscholes is \
         underestimated, mergeSort/matrixMul-class kernels show the largest \
         errors, and the static estimates agree to within two percent.\n"
    )
    .unwrap();

    writeln!(w, "## Table V — blackscholes power breakdown (GT240)\n").unwrap();
    let t5 = experiments::table5_breakdown();
    writeln!(w, "```text\n{t5}\n```\n",).unwrap();
    writeln!(
        w,
        "Paper values — GPU: overall 17.934/19.207 W with cores 82.2 %, NoC \
         7.3 %, MC 6.1 %, PCIe 4.1 %; core: base 0.199, WCU 0.042/0.089, RF \
         0.112/0.173, exec 0.0096/0.556, LDSTU 0.234/0.014, undiff 0.886 W; \
         external DRAM 4.3 W. These are the model's calibration anchors and \
         are pinned by `crates/power/tests/paper_tables.rs`.\n"
    )
    .unwrap();

    if per_cluster {
        eprintln!("[+] per-cluster attribution");
        writeln!(w, "## Per-cluster attribution — blackscholes (GT240)\n").unwrap();
        let scoped = experiments::table5_scoped();
        writeln!(w, "```text\n{scoped}\n```\n").unwrap();
        writeln!(
            w,
            "Derived from the registry's scope dimension: the same \
             component energy maps behind Table V, applied to each \
             cluster's own event vector instead of the chip aggregate. \
             Cluster rows plus the shared rows reproduce the chip totals \
             above (conservation is exact in the underlying `u64` \
             counters; see DESIGN.md §13).\n"
        )
        .unwrap();
    }
    md
}
