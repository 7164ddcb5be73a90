//! Text rendering of experiment results: console tables, ASCII bar
//! charts and the markdown used by `EXPERIMENTS.md`.

use gpusimpow::ValidationSummary;
use gpusimpow_kernels::all_benchmarks;
use gpusimpow_sim::GpuConfig;

use crate::experiments::{ErrorBudget, Fig4Point, MicrobenchEnergies, StaticEstimation, Table4Row};

/// Renders Table I: the benchmark suite.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("| name | #kernels | description | origin |\n");
    out.push_str("|---|---|---|---|\n");
    for b in all_benchmarks() {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            b.name(),
            b.kernel_names().len(),
            b.description(),
            b.origin()
        ));
    }
    out
}

/// Renders Table II: key features of the two evaluated architectures.
pub fn table2() -> String {
    let gpus = [GpuConfig::gt240(), GpuConfig::gtx580()];
    let mut out = String::new();
    out.push_str("| feature | GT240 | GTX580 |\n");
    out.push_str("|---|---|---|\n");
    let mut row = |feature: &str, cell: &dyn Fn(&GpuConfig) -> String| {
        out.push_str(&format!(
            "| {feature} | {} | {} |\n",
            cell(&gpus[0]),
            cell(&gpus[1])
        ));
    };
    row("#Cores", &|c| c.total_cores().to_string());
    row("#Threads per core", &|c| c.max_threads_per_core.to_string());
    row("#FUs per core", &|c| c.simd_width.to_string());
    row("Uncore clock", &|c| format!("{} MHz", c.uncore_mhz));
    row("Shader-to-uncore", &|c| format!("{}x", c.shader_ratio));
    row("#Warps in-flight", &|c| c.max_warps_per_core().to_string());
    row("Scoreboard", &|c| {
        if c.scoreboard { "yes" } else { "no (barrel)" }.to_string()
    });
    row("L2 size", &|c| {
        c.l2.map(|l| format!("{} KB", l.capacity_bytes / 1024))
            .unwrap_or_else(|| "—".into())
    });
    row("Process node", &|c| format!("{} nm", c.process_nm));
    out
}

/// Renders Fig. 4 as a table plus an ASCII staircase.
pub fn fig4(points: &[Fig4Point]) -> String {
    let mut out = String::new();
    out.push_str("| blocks | clusters | power [W] | delta [W] |\n");
    out.push_str("|---|---|---|---|\n");
    for p in points {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:+.3} |\n",
            p.blocks, p.clusters_active, p.measured_w, p.delta_w
        ));
    }
    let min = points.first().map(|p| p.measured_w).unwrap_or(0.0) - 1.0;
    out.push('\n');
    for p in points {
        let bar = ((p.measured_w - min) * 8.0) as usize;
        out.push_str(&format!(
            "{:>2} blocks {:>7.3} W |{}\n",
            p.blocks,
            p.measured_w,
            "#".repeat(bar)
        ));
    }
    out
}

/// Renders Table IV with the paper's values alongside.
pub fn table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "| GPU | static sim [W] | static hw-est [W] | paper sim/real [W] | area sim [mm²] | paper sim/real [mm²] | hw method |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} / {:.1} | {:.0} | {:.0} / {:.0} | {} |\n",
            r.gpu,
            r.sim_static_w,
            r.hw_static_w,
            r.paper.0,
            r.paper.1,
            r.sim_area_mm2,
            r.paper.2,
            r.paper.3,
            r.method
        ));
    }
    out
}

/// Renders a Fig. 6 validation summary: per-kernel bars and the error
/// statistics the paper quotes.
pub fn fig6(summary: &ValidationSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {} (Fig. 6 reproduction)\n\n", summary.gpu));
    out.push_str("| kernel | simulated [W] | measured [W] | error |\n");
    out.push_str("|---|---|---|---|\n");
    for row in &summary.rows {
        out.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:+.1}% |\n",
            row.kernel,
            row.simulated_total_w,
            row.measured_total_w,
            row.signed_error() * 100.0
        ));
    }
    out.push('\n');
    let max_w = summary
        .rows
        .iter()
        .map(|r| r.simulated_total_w.max(r.measured_total_w))
        .fold(1.0f64, f64::max);
    for row in &summary.rows {
        let sim = (row.simulated_total_w / max_w * 40.0) as usize;
        let meas = (row.measured_total_w / max_w * 40.0) as usize;
        out.push_str(&format!("{:>13} sim  |{}\n", row.kernel, "#".repeat(sim)));
        out.push_str(&format!("{:>13} meas |{}\n", "", "=".repeat(meas)));
    }
    out.push('\n');
    out.push_str(&format!(
        "- average relative error: **{:.1}%** (paper: 11.7% GT240 / 10.8% GTX580)\n",
        summary.average_relative_error() * 100.0
    ));
    out.push_str(&format!(
        "- average dynamic-only error: {:.1}% (paper: 28.3% GT240 / 20.9% GTX580)\n",
        summary.average_dynamic_error() * 100.0
    ));
    if let Some((k, e)) = summary.max_relative_error() {
        out.push_str(&format!("- maximum error: {:.1}% on `{k}`\n", e * 100.0));
    }
    out.push_str(&format!(
        "- simulator overestimates {} of {} kernels (paper: all but 2 on GT240)\n",
        summary.overestimated_count(),
        summary.rows.len()
    ));
    out.push_str(&format!(
        "- static power: simulated {:.1} W vs hardware estimate {:.1} W\n",
        summary.simulated_static_w, summary.measured_static_w
    ));
    out
}

/// Renders the §III-D microbenchmark result.
pub fn microbench(e: &MicrobenchEnergies) -> String {
    format!(
        "| op class | measured [pJ/op] | synthetic-silicon truth [pJ/op] | paper's card [pJ/op] |\n|---|---|---|---|\n\
         | integer (LFSR) | {:.1} | 29.5 | ≈ 40 |\n\
         | floating point (Mandelbrot) | {:.1} | 55.0 | ≈ 75 (NVIDIA: 50) |\n\n\
         The experiment reproduces the paper's *methodology*: differencing two\n\
         launches that differ only in enabled lanes isolates the per-lane energy,\n\
         recovering the (synthetic) silicon's true values through the measurement\n\
         chain. The power model keeps the paper's measured 40/75 pJ anchors.\n",
        e.int_pj, e.fp_pj
    )
}

/// Renders the §IV-B static-estimation experiment.
pub fn static_estimation(s: &StaticEstimation) -> String {
    format!(
        "GT240 clock extrapolation:\n\
         - P(100% clock) = {:.2} W, P(80% clock) = {:.2} W\n\
         - extrapolated static = {:.2} W (ground truth {:.2} W, paper 17.6 W)\n\
         - static-to-idle ratio = {:.3}\n\
         GTX580 idle-ratio method (driver cannot scale clocks):\n\
         - estimated static = {:.2} W (ground truth {:.2} W, paper 80 W)\n",
        s.gt240_full_w,
        s.gt240_scaled_w,
        s.gt240_static_w,
        s.gt240_truth_w,
        s.ratio,
        s.gtx580_static_w,
        s.gtx580_truth_w,
    )
}

/// Renders the §IV-A measurement error budget.
pub fn error_budget(b: &ErrorBudget) -> String {
    format!(
        "measurement-chain error over {} virtual boards x 4 operating points:\n\
         - worst |error| = {:.2}% (paper budget: ±3.2%)\n\
         - mean  |error| = {:.2}%\n",
        b.boards,
        b.worst_rel_error * 100.0,
        b.mean_rel_error * 100.0
    )
}

/// Renders the Table V drill-down: per-core dynamic power of the
/// memories and logic blocks inside the WCU.
pub fn wcu_memories(rows: &[(&'static str, f64)]) -> String {
    let mut out = String::from("WCU-internal breakdown (per core, dynamic):\n");
    for (name, mw) in rows {
        out.push_str(&format!("  {name:<22} {mw:>8.3} mW\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_render_contains_bars() {
        let pts = vec![
            Fig4Point {
                blocks: 1,
                measured_w: 24.0,
                delta_w: 0.0,
                clusters_active: 1,
            },
            Fig4Point {
                blocks: 2,
                measured_w: 24.7,
                delta_w: 0.7,
                clusters_active: 2,
            },
        ];
        let text = fig4(&pts);
        assert!(text.contains("| 2 | 2 | 24.700 | +0.700 |"));
        assert!(text.contains('#'));
    }

    #[test]
    fn microbench_render_mentions_paper_values() {
        let text = microbench(&MicrobenchEnergies {
            int_pj: 39.0,
            fp_pj: 76.0,
        });
        assert!(text.contains("≈ 40"));
        assert!(text.contains("≈ 75"));
    }
}
