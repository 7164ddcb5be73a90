//! The paper's evaluation as one table of named sections — every table
//! and figure, rendered as markdown. `EXPERIMENTS.md` is the fold of the
//! `in_report` rows; `run_all_experiments --only=<name>,..` renders any
//! subset by name.

use crate::{experiments, render};
use gpusimpow_sim::{GpuConfig, SimPool};

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

/// The `--per-cluster` section's name.
const PER_CLUSTER: &str = "per_cluster";

/// Every section, in report order.
pub static SECTIONS: [Section; 11] = [
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
        name: PER_CLUSTER,
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
/// `EXPERIMENTS.md`; `per_cluster` appends the scoped per-cluster
/// power-attribution section (the `--per-cluster` flag of
/// `run_all_experiments`; the committed file is generated without it).
pub fn generate(small: bool, per_cluster: bool, pool: &SimPool) -> String {
    let ctx = Ctx { small, pool };
    SECTIONS
        .iter()
        .filter(|s| s.in_report || (per_cluster && s.name == PER_CLUSTER))
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
