//! The paper's evaluation as one table of named sections — every table
//! and figure, rendered as markdown. `EXPERIMENTS.md` is the fold of the
//! `in_report` rows; `run_all_experiments --only=<name>,..` renders any
//! subset by name.

use crate::{experiments, render};
use gpusimpow::{SimReport, Simulator};
use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::{matmul::MatrixMul, micro, small_benchmarks};
use gpusimpow_pm::{Baseline, ClusterGating, Ondemand, PowerCap, PowerTrace, PowerTracer};
use gpusimpow_power::GpuChip;
use gpusimpow_sim::{Gpu, GpuConfig, L2Config, SimPool, WarpSchedPolicy, WindowRecorder};

/// What a section renderer may depend on.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Reduced workload sizes (`--small`).
    pub small: bool,
    /// Simulation fan-out pool; output is byte-identical for any thread
    /// count.
    pub pool: &'a SimPool,
}

/// One experiment of the paper's evaluation.
#[derive(Debug)]
pub struct Section {
    /// The `--only=` key.
    pub name: &'static str,
    /// The section's `##` heading.
    pub heading: &'static str,
    /// Whether the committed `EXPERIMENTS.md` carries the section.
    pub in_report: bool,
    /// Runs the experiment and renders the body under the heading.
    pub render: fn(&Ctx<'_>) -> String,
}

/// Every section, in report order.
pub static SECTIONS: [Section; 13] = [
    Section {
        name: "table1",
        heading: "Table I — benchmark suite",
        in_report: true,
        render: table1,
    },
    Section {
        name: "table2",
        heading: "Table II — architectures under evaluation",
        in_report: true,
        render: table2,
    },
    Section {
        name: "fig4",
        heading: "Fig. 4 — cluster-activation staircase (GT240)",
        in_report: true,
        render: fig4,
    },
    Section {
        name: "table4",
        heading: "Table IV — static power and area",
        in_report: true,
        render: table4,
    },
    Section {
        name: "microbench",
        heading: "§III-D — per-operation energy microbenchmarks",
        in_report: true,
        render: microbench,
    },
    Section {
        name: "static_estimation",
        heading: "§IV-B — hardware static-power estimation",
        in_report: true,
        render: static_estimation,
    },
    Section {
        name: "error_budget",
        heading: "§IV-A — measurement-chain error budget",
        in_report: true,
        render: error_budget,
    },
    Section {
        name: "fig6",
        heading: "Fig. 6 — simulated vs measured power, all 19 kernels",
        in_report: true,
        render: fig6,
    },
    Section {
        name: "table5",
        heading: "Table V — blackscholes power breakdown (GT240)",
        in_report: true,
        render: table5,
    },
    Section {
        name: "per_cluster",
        heading: "Per-cluster attribution — blackscholes (GT240)",
        in_report: false,
        render: per_cluster,
    },
    Section {
        name: "table5_wcu",
        heading: "Table V drill-down — the memories inside the WCU (GT240)",
        in_report: false,
        render: table5_wcu,
    },
    Section {
        name: "ablations",
        heading: "Ablations — the design choices as performance and power (GT240)",
        in_report: false,
        render: ablations,
    },
    Section {
        name: "power_trace",
        heading: "Power management — three governors over windowed suite traces (GT240)",
        in_report: false,
        render: power_trace,
    },
];

impl Section {
    /// Runs the experiment and renders heading plus body. Progress goes
    /// to stderr.
    pub fn markdown(&self, ctx: &Ctx<'_>) -> String {
        eprintln!("[{}] {}", self.name, self.heading);
        format!("## {}\n\n{}", self.heading, (self.render)(ctx))
    }
}

/// The report's title and provenance lines, ahead of the first section.
pub fn preamble(small: bool) -> String {
    format!(
        "# EXPERIMENTS — paper vs. reproduction\n\n\
         Regenerated by `cargo run --release -p gpusimpow-bench --bin \
         run_all_experiments`{}.\n\n\
         The \"measured\" side of every experiment comes from the virtual \
         testbed (`gpusimpow-measure`): an independently parameterized \
         reference-card emulator behind a model of the paper's riser-card / \
         AD8210 / NI USB-6210 measurement chain. See DESIGN.md §2 for the \
         substitution rationale.\n\n",
        if small {
            " (reduced workload sizes)"
        } else {
            ""
        }
    )
}

/// Runs every `in_report` section and returns the rendered markdown of
/// `EXPERIMENTS.md`.
pub fn generate(small: bool, pool: &SimPool) -> String {
    let ctx = Ctx { small, pool };
    SECTIONS
        .iter()
        .filter(|s| s.in_report)
        .fold(preamble(small), |md, s| md + &s.markdown(&ctx))
}

/// Renders the sections named in the comma-separated `names` (the
/// `--only=` value), in the order given and without the preamble.
///
/// # Errors
///
/// An empty list or an unknown name is rejected before anything runs,
/// with a message listing the valid names.
pub fn generate_only(names: &str, ctx: &Ctx<'_>) -> Result<String, String> {
    let sections = names
        .split(',')
        .map(|name| {
            SECTIONS.iter().find(|s| s.name == name).ok_or_else(|| {
                let valid: Vec<_> = SECTIONS.iter().map(|s| s.name).collect();
                format!(
                    "--only: unknown section {name:?}; valid names: {}",
                    valid.join(", ")
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(sections.iter().map(|s| s.markdown(ctx)).collect())
}

fn table1(_: &Ctx<'_>) -> String {
    format!(
        "{}\n19 kernels total, matching Fig. 6's bars (the paper's Table I \
         lists 11 benchmarks; needle appears in Fig. 6 and is included).\n\n",
        render::table1()
    )
}

fn table2(_: &Ctx<'_>) -> String {
    format!("{}\n", render::table2())
}

fn fig4(ctx: &Ctx<'_>) -> String {
    let points = experiments::fig4_cluster_power(experiments::BOARD_SEED, ctx.pool);
    let cluster_step = points[1].delta_w;
    let core_step = points[5].delta_w;
    format!(
        "{}\nEvery step includes the new block's own switching power; the \
         *difference* between a fresh-cluster step and a same-cluster step \
         is {:.2} W (paper: 0.692 − 0.199 ≈ 0.49 W). The first block's jump \
         over the 19.5 W pre-kernel state carries the global scheduler's \
         3.34 W.\n\n",
        render::fig4(&points),
        cluster_step - core_step
    )
}

fn table4(_: &Ctx<'_>) -> String {
    let rows = experiments::table4_static_area(experiments::BOARD_SEED);
    format!(
        "{}\nThe GTX580 area overshoots the paper's estimate by ~17 % (the \
         undifferentiated-area factor is calibrated on the GT240 and grows \
         linearly with modelled core area); both static-power sides \
         reproduce within a few percent.\n\n",
        render::table4(&rows)
    )
}

fn microbench(ctx: &Ctx<'_>) -> String {
    let micro = experiments::microbench_energy(experiments::BOARD_SEED, ctx.pool);
    format!("{}\n", render::microbench(&micro))
}

fn static_estimation(_: &Ctx<'_>) -> String {
    let est = experiments::static_estimation(experiments::BOARD_SEED);
    format!("```text\n{}```\n\n", render::static_estimation(&est))
}

fn error_budget(ctx: &Ctx<'_>) -> String {
    let budget = experiments::measurement_error_budget(25, ctx.pool);
    format!("```text\n{}```\n\n", render::error_budget(&budget))
}

fn fig6(ctx: &Ctx<'_>) -> String {
    // The two GPU validations are independent full-suite simulations —
    // the most expensive stage — so they fan out over the pool.
    let small = ctx.small;
    let summaries = ctx
        .pool
        .run(vec![GpuConfig::gt240(), GpuConfig::gtx580()], |cfg| {
            experiments::fig6_validation(&cfg, experiments::BOARD_SEED, small)
        });
    let bars: String = summaries
        .iter()
        .map(|s| format!("{}\n", render::fig6(s)))
        .collect();
    format!(
        "{bars}The paper's qualitative structure holds: the simulator \
         overestimates nearly every kernel, the SFU-heavy blackscholes is \
         underestimated, mergeSort/matrixMul-class kernels show the largest \
         errors, and the static estimates agree to within two percent.\n\n"
    )
}

fn table5(_: &Ctx<'_>) -> String {
    format!(
        "```text\n{}\n```\n\n\
         Paper values — GPU: overall 17.934/19.207 W with cores 82.2 %, NoC \
         7.3 %, MC 6.1 %, PCIe 4.1 %; core: base 0.199, WCU 0.042/0.089, RF \
         0.112/0.173, exec 0.0096/0.556, LDSTU 0.234/0.014, undiff 0.886 W; \
         external DRAM 4.3 W. These are the model's calibration anchors and \
         are pinned by `crates/power/tests/paper_tables.rs`.\n\n",
        experiments::table5_breakdown()
    )
}

fn per_cluster(_: &Ctx<'_>) -> String {
    format!(
        "```text\n{}\n```\n\n\
         Derived from the registry's scope dimension: the same \
         component energy maps behind Table V, applied to each \
         cluster's own event vector instead of the chip aggregate. \
         Cluster rows plus the shared rows reproduce the chip totals \
         above (conservation is exact in the underlying `u64` \
         counters; see DESIGN.md §13).\n\n",
        experiments::table5_scoped()
    )
}

fn table5_wcu(_: &Ctx<'_>) -> String {
    let rows = experiments::table5_wcu_memories();
    format!("```text\n{}```\n\n", render::wcu_memories(&rows))
}

/// Matmul 64×64 on `cfg`, the workload of ablations 1, 5 and 7.
fn run_matmul(cfg: GpuConfig) -> SimReport {
    let mut sim = Simulator::new(cfg).expect("config builds");
    let mut reports = sim
        .run_benchmark(&MatrixMul { n: 64 })
        .expect("matmul verifies");
    reports.swap_remove(0)
}

/// The design choices DESIGN.md §7 ablates — warp-scheduler policy,
/// coalescing quality, shared-memory bank conflicts, operand-collector
/// count, L2 presence, branch divergence and process node — each
/// reported as performance *and* power, the two axes the paper argues
/// must be explored together.
fn ablations(_: &Ctx<'_>) -> String {
    let mut out = String::from("== ablation 1: warp scheduler (matmul 64x64 on GT240-class) ==\n");
    out += &format!(
        "{:<18} {:>8} {:>10} {:>12} {:>14}\n",
        "policy", "cycles", "total[W]", "energy[µJ]", "wcu dyn[mW/core]"
    );
    let two_level = [2, 4, 8, 16].map(|n| {
        let policy = WarpSchedPolicy::TwoLevel { active_warps: n };
        (format!("two-level:{n}"), policy)
    });
    let round_robin = ("round-robin".to_string(), WarpSchedPolicy::RoundRobin);
    for (name, policy) in std::iter::once(round_robin).chain(two_level) {
        let mut cfg = GpuConfig::gt240();
        cfg.warp_scheduler = policy;
        let r = run_matmul(cfg);
        out += &format!(
            "{:<18} {:>8} {:>10.2} {:>12.3} {:>14.2}\n",
            name,
            r.launch.stats.shader_cycles,
            r.power.total_power().watts(),
            r.power.energy().joules() * 1e6,
            r.power.core.wcu.dynamic_power.milliwatts(),
        );
    }

    out += "\n== ablation 2: access pattern vs memory power (GT240) ==\n";
    out += &format!(
        "{:<14} {:>8} {:>10} {:>10} {:>10}\n",
        "stride", "cycles", "requests", "dram rd", "mc dyn[W]"
    );
    for (label, shift) in [
        ("1 (coalesced)", 2u32),
        ("8 words", 5),
        ("32 words (worst)", 7),
    ] {
        let mut sim = Simulator::gt240().expect("preset builds");
        let buf = sim.gpu_mut().alloc(8 << 20);
        let src = format!(
            "
            s2r r0, tid.x
            s2r r1, ctaid.x
            s2r r2, ntid.x
            imad r3, r1, r2, r0
            shl r4, r3, #{shift}
            ld.global r5, [r4+{base}]
            exit
        ",
            base = buf.addr()
        );
        let k = gpusimpow_isa::assemble("stride", &src).expect("assembles");
        let r = sim.run(&k, LaunchConfig::linear(16, 256)).expect("runs");
        out += &format!(
            "{:<14} {:>8} {:>10} {:>10} {:>10.3}\n",
            label,
            r.launch.stats.shader_cycles,
            r.launch.stats.coalescer_outputs,
            r.launch.stats.dram_read_bursts,
            r.power.chip.mc.dynamic_power.watts(),
        );
    }

    out += "\n== ablation 3: shared-memory bank conflicts (GT240) ==\n";
    out += &format!(
        "{:<10} {:>8} {:>16} {:>14}\n",
        "stride", "cycles", "conflict cycles", "ldst dyn[mW/core]"
    );
    for stride in [1u32, 2, 4, 8, 16] {
        let mut sim = Simulator::gt240().expect("preset builds");
        let k = micro::conflict_kernel(stride, 256);
        let r = sim.run(&k, LaunchConfig::linear(12, 16)).expect("runs");
        out += &format!(
            "{:<10} {:>8} {:>16} {:>14.3}\n",
            stride,
            r.launch.stats.shader_cycles,
            r.launch.stats.smem_bank_conflict_cycles,
            r.power.core.ldstu.dynamic_power.milliwatts(),
        );
    }

    // Collector storage is part of the core, so the trade shows in the
    // whole core's leakage and area.
    out += "\n== ablation 4: operand collectors (area/leakage trade) ==\n";
    out += &format!(
        "{:<12} {:>14} {:>14}\n",
        "collectors", "core leak[mW]", "core area[mm²]"
    );
    for oc in [2usize, 4, 8] {
        let mut cfg = GpuConfig::gt240();
        cfg.operand_collectors = oc;
        let chip = GpuChip::new(&cfg).expect("chip builds");
        out += &format!(
            "{:<12} {:>14.2} {:>14.4}\n",
            oc,
            chip.core_static_power().milliwatts(),
            chip.core_area().mm2(),
        );
    }

    out += "\n== ablation 5: adding an L2 to the GT240 (the Fermi delta) ==\n";
    out += &format!(
        "{:<12} {:>8} {:>10} {:>10} {:>10}\n",
        "l2", "cycles", "dram rd", "static[W]", "total[W]"
    );
    for l2_kb in [0usize, 256, 768] {
        let mut cfg = GpuConfig::gt240();
        cfg.l2 = (l2_kb > 0).then(|| L2Config {
            capacity_bytes: l2_kb * 1024,
            line_bytes: 128,
            ways: 8,
            latency: 20,
        });
        let chip = GpuChip::new(&cfg).expect("chip builds");
        let r = run_matmul(cfg);
        out += &format!(
            "{:<12} {:>8} {:>10} {:>10.2} {:>10.2}\n",
            if l2_kb == 0 {
                "none".to_string()
            } else {
                format!("{l2_kb} KB")
            },
            r.launch.stats.shader_cycles,
            r.launch.stats.dram_read_bursts,
            chip.static_power().watts(),
            r.power.total_power().watts(),
        );
    }

    out += "\n== ablation 6: branch-divergence depth (GT240) ==\n";
    out += &format!(
        "{:<8} {:>8} {:>12} {:>16}\n",
        "depth", "cycles", "div branches", "stack ops"
    );
    for depth in 1..=5u32 {
        let mut sim = Simulator::gt240().expect("preset builds");
        let k = micro::divergence_kernel(depth);
        let r = sim.run(&k, LaunchConfig::linear(12, 256)).expect("runs");
        let s = &r.launch.stats;
        out += &format!(
            "{:<8} {:>8} {:>12} {:>16}\n",
            depth,
            s.shader_cycles,
            s.divergent_branches,
            s.simt_stack_pushes + s.simt_stack_pops,
        );
    }

    out += "\n== ablation 7: ITRS node scaling (GT240 architecture) ==\n";
    out += &format!(
        "{:<10} {:>10} {:>10} {:>12}\n",
        "node[nm]", "area[mm²]", "static[W]", "energy[µJ]"
    );
    for nm in [65u32, 45, 40, 32, 28, 22] {
        let mut cfg = GpuConfig::gt240();
        cfg.process_nm = nm;
        let chip = GpuChip::new(&cfg).expect("chip builds");
        out += &format!(
            "{:<10} {:>10.1} {:>10.2} {:>12.3}\n",
            nm,
            chip.area().mm2(),
            chip.static_power().watts(),
            run_matmul(cfg).power.energy().joules() * 1e6,
        );
    }
    format!("```text\n{out}```\n\n")
}

/// Windowed power tracing and governor comparison over the small suite:
/// each benchmark is simulated once on its own GT240, recording activity
/// in 2048-cycle windows, and each recorded launch is replayed with no
/// governor, with an ondemand governor plus idle-cluster gating, and
/// with a power cap at 90 % of its ungoverned average power.
fn power_trace(ctx: &Ctx<'_>) -> String {
    const WINDOW_CYCLES: u64 = 2048;
    // Jobs are suite indices: each rebuilds the suite rather than send
    // benchmark trait objects across threads.
    let recorded = ctx.pool.run((0..small_benchmarks().len()).collect(), |i| {
        let mut gpu = Gpu::new(GpuConfig::gt240()).expect("preset builds");
        gpu.attach_sink(WINDOW_CYCLES, Box::new(WindowRecorder::new()));
        small_benchmarks()[i]
            .run(&mut gpu)
            .expect("benchmark verifies");
        let mut sink = gpu.detach_sink().expect("sink was attached");
        let recorder = sink.as_any_mut().and_then(|s| s.downcast_mut());
        std::mem::take::<WindowRecorder>(recorder.expect("sink is a WindowRecorder"))
            .into_launches()
    });
    let launches: Vec<_> = recorded.into_iter().flatten().collect();
    let chip = GpuChip::new(&GpuConfig::gt240()).expect("chip builds");
    let ungoverned = PowerTracer::new(chip.clone());
    let managed = PowerTracer::new(chip).with_gating(ClusterGating::with_retention(0.1));

    let mut out = format!(
        "power management on GT240, {} launches, {WINDOW_CYCLES}-cycle windows\n",
        launches.len()
    );
    out += &format!(
        "{:<16} {:>7} {:>9} {:>9} | {:>16} {:>16} {:>10}\n",
        "kernel", "windows", "avg[W]", "E[mJ]", "ondemand dE/dT", "powercap dE/dT", "cap ok?"
    );
    let (mut base_edp, mut ondemand_edp, mut powercap_edp) = (0.0, 0.0, 0.0);
    for launch in &launches {
        let base = ungoverned.replay(launch, &mut Baseline);
        let cap = base.avg_power() * 0.9;
        let od = managed.replay(launch, &mut Ondemand::default());
        let pc = managed.replay(launch, &mut PowerCap::new(cap));
        base_edp += base.edp();
        ondemand_edp += od.edp();
        powercap_edp += pc.edp();

        let de =
            |t: &PowerTrace| 100.0 * (t.chip_energy().joules() / base.chip_energy().joules() - 1.0);
        let dt =
            |t: &PowerTrace| 100.0 * (t.duration().seconds() / base.duration().seconds() - 1.0);
        let cap_ok = pc
            .samples
            .iter()
            .all(|s| s.total_power().watts() <= cap.watts() * (1.0 + 1e-9));
        out += &format!(
            "{:<16} {:>7} {:>9.3} {:>9.3} | {:>+7.1}% {:>+7.1}% {:>+7.1}% {:>+7.1}% {:>10}\n",
            launch.kernel,
            launch.windows.len(),
            base.avg_power().watts(),
            base.chip_energy().joules() * 1e3,
            de(&od),
            dt(&od),
            de(&pc),
            dt(&pc),
            if cap_ok { "yes" } else { "VIOLATED" },
        );
    }
    out += &format!(
        "suite EDP: baseline {:.3} µJ·s, ondemand {:.3} µJ·s ({:+.1}%), powercap {:.3} µJ·s ({:+.1}%)\n",
        base_edp * 1e6,
        ondemand_edp * 1e6,
        100.0 * (ondemand_edp / base_edp - 1.0),
        powercap_edp * 1e6,
        100.0 * (powercap_edp / base_edp - 1.0),
    );
    format!("```text\n{out}```\n\n")
}
