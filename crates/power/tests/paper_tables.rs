//! Regression tests pinning the reproduction of the paper's Table IV
//! (static power & area) and Table V (blackscholes power breakdown on
//! the GT240). These are the calibration anchors of the model: if they
//! drift, EXPERIMENTS.md is stale.
#![allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against the paper's published numbers"
)]

use gpusimpow_kernels::blackscholes::BlackScholes;
use gpusimpow_kernels::Benchmark;
use gpusimpow_power::chip::GpuChip;
use gpusimpow_sim::{config::GpuConfig, gpu::Gpu};

fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs()
}

#[test]
fn table_iv_static_power_and_area() {
    let gt240 = GpuChip::new(&GpuConfig::gt240()).unwrap();
    // Paper Table IV, "Simulated" rows.
    assert!(
        rel_err(gt240.static_power().watts(), 17.9) < 0.05,
        "GT240 static {} W vs paper 17.9 W",
        gt240.static_power().watts()
    );
    assert!(
        rel_err(gt240.area().mm2(), 105.0) < 0.10,
        "GT240 area {} mm2 vs paper 105 mm2",
        gt240.area().mm2()
    );

    let gtx580 = GpuChip::new(&GpuConfig::gtx580()).unwrap();
    assert!(
        rel_err(gtx580.static_power().watts(), 81.5) < 0.08,
        "GTX580 static {} W vs paper 81.5 W",
        gtx580.static_power().watts()
    );
    assert!(
        rel_err(gtx580.area().mm2(), 306.0) < 0.20,
        "GTX580 area {} mm2 vs paper 306 mm2",
        gtx580.area().mm2()
    );
}

#[test]
fn table_v_blackscholes_breakdown_on_gt240() {
    let cfg = GpuConfig::gt240();
    let chip = GpuChip::new(&cfg).unwrap();
    let mut gpu = Gpu::new(cfg).unwrap();
    let reports = BlackScholes::default().run(&mut gpu).unwrap();
    let r = chip.evaluate("BlackScholes", &reports[0].stats);

    // GPU-level rows (paper: static / dynamic).
    let overall = r.chip.cores + r.chip.noc + r.chip.mc + r.chip.pcie + r.chip.l2;
    assert!(rel_err(overall.static_power.watts(), 17.934) < 0.05);
    assert!(rel_err(overall.dynamic_power.watts(), 19.207) < 0.10);
    assert!(rel_err(r.chip.noc.static_power.watts(), 1.484) < 0.05);
    assert!(rel_err(r.chip.noc.dynamic_power.watts(), 1.229) < 0.15);
    assert!(rel_err(r.chip.mc.static_power.watts(), 0.497) < 0.05);
    assert!(rel_err(r.chip.mc.dynamic_power.watts(), 1.753) < 0.15);
    assert!(rel_err(r.chip.pcie.static_power.watts(), 0.539) < 0.05);
    assert!(rel_err(r.chip.pcie.dynamic_power.watts(), 0.992) < 0.10);

    // Cores consume by far the largest fraction (paper: 82.2 %).
    let share = r.chip.cores.total() / overall.total();
    assert!((0.75..0.90).contains(&share), "cores share {share}");

    // Core-level rows.
    assert!(rel_err(r.core.wcu.static_power.watts(), 0.042) < 0.10);
    assert!(rel_err(r.core.wcu.dynamic_power.watts(), 0.089) < 0.15);
    assert!(rel_err(r.core.regfile.static_power.watts(), 0.112) < 0.10);
    assert!(rel_err(r.core.regfile.dynamic_power.watts(), 0.173) < 0.15);
    assert!(rel_err(r.core.exec.static_power.watts(), 0.0096) < 0.10);
    assert!(rel_err(r.core.exec.dynamic_power.watts(), 0.556) < 0.10);
    assert!(rel_err(r.core.ldstu.static_power.watts(), 0.234) < 0.10);
    assert!(rel_err(r.core.ldstu.dynamic_power.watts(), 0.014) < 0.25);
    assert!(rel_err(r.core.undiff.static_power.watts(), 0.886) < 0.10);
    assert_eq!(
        r.core.undiff.dynamic_power.watts(),
        0.0,
        "undiff is static-only"
    );
    // Base power is activity-weighted; blackscholes keeps most cores busy.
    let base = r.core.base.dynamic_power.watts();
    assert!(
        (0.10..=0.25).contains(&base),
        "core base {base} W vs paper 0.199"
    );

    // External DRAM ~4.3 W (paper footnote).
    assert!(
        rel_err(r.dram.total().watts(), 4.3) < 0.15,
        "dram {}",
        r.dram.total().watts()
    );
}

#[test]
fn two_level_scheduling_never_increases_wcu_power() {
    // The future-work extension: a 6-wide issue encoder leaks and
    // switches (slightly) less than a 24-wide one.
    let rr = GpuChip::new(&GpuConfig::gt240()).unwrap();
    let mut tl_cfg = GpuConfig::gt240();
    tl_cfg.warp_scheduler = gpusimpow_sim::WarpSchedPolicy::TwoLevel { active_warps: 6 };
    let tl = GpuChip::new(&tl_cfg).unwrap();
    assert!(
        tl.static_power().watts() <= rr.static_power().watts(),
        "smaller issue scheduler cannot leak more"
    );
}

#[test]
fn exec_units_dominate_modelled_core_dynamic_power() {
    // Paper §V-B: "the most power is consumed by the execution units
    // (24.43%) … after the execution hardware, the next-most power is
    // used in the register file (about 12.3%)".
    let cfg = GpuConfig::gt240();
    let chip = GpuChip::new(&cfg).unwrap();
    let mut gpu = Gpu::new(cfg).unwrap();
    let reports = BlackScholes::default().run(&mut gpu).unwrap();
    let r = chip.evaluate("BlackScholes", &reports[0].stats);
    let core_total = r.core.overall().total().watts();
    let exec_pct = 100.0 * r.core.exec.total().watts() / core_total;
    let rf_pct = 100.0 * r.core.regfile.total().watts() / core_total;
    let wcu_pct = 100.0 * r.core.wcu.total().watts() / core_total;
    let undiff_pct = 100.0 * r.core.undiff.total().watts() / core_total;
    assert!(
        (20.0..30.0).contains(&exec_pct),
        "exec {exec_pct}% vs paper 24.43%"
    );
    assert!((9.0..16.0).contains(&rf_pct), "rf {rf_pct}% vs paper 12.3%");
    assert!(
        wcu_pct < 9.0,
        "wcu {wcu_pct}% vs paper 5.65% (smallest modelled)"
    );
    assert!(
        (33.0..45.0).contains(&undiff_pct),
        "undiff {undiff_pct}% vs paper 38.3%"
    );
    assert!(
        exec_pct > rf_pct && rf_pct > wcu_pct,
        "paper's ordering holds"
    );
}
