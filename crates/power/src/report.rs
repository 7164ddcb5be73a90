//! Hierarchical power reports (the Table V format).

use std::fmt;

use gpusimpow_tech::units::{Power, Time};

use crate::dram::DramPowerBreakdown;

/// A static/dynamic power pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerSplit {
    /// Leakage (static) share.
    pub static_power: Power,
    /// Runtime dynamic share.
    pub dynamic_power: Power,
}

impl PowerSplit {
    /// Creates a split.
    pub fn new(static_power: Power, dynamic_power: Power) -> Self {
        PowerSplit {
            static_power,
            dynamic_power,
        }
    }

    /// Static + dynamic.
    pub fn total(&self) -> Power {
        self.static_power + self.dynamic_power
    }
}

impl std::ops::Add for PowerSplit {
    type Output = PowerSplit;
    fn add(self, rhs: PowerSplit) -> PowerSplit {
        PowerSplit {
            static_power: self.static_power + rhs.static_power,
            dynamic_power: self.dynamic_power + rhs.dynamic_power,
        }
    }
}

/// Top-level (chip) component breakdown, as in Table V (top).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipBreakdown {
    /// All SIMT cores together.
    pub cores: PowerSplit,
    /// Network-on-chip.
    pub noc: PowerSplit,
    /// Memory controllers.
    pub mc: PowerSplit,
    /// PCIe controller.
    pub pcie: PowerSplit,
    /// L2 cache (zero when absent).
    pub l2: PowerSplit,
}

impl ChipBreakdown {
    /// Chip total (static, dynamic).
    pub fn overall(&self) -> PowerSplit {
        self.cores + self.noc + self.mc + self.pcie + self.l2
    }
}

/// Per-core component breakdown, as in Table V (bottom).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreBreakdown {
    /// Empirical base power (scheduling, clocks, fixed-function slices).
    pub base: PowerSplit,
    /// Warp control unit.
    pub wcu: PowerSplit,
    /// Register file.
    pub regfile: PowerSplit,
    /// Execution units (INT/FP/SFU).
    pub exec: PowerSplit,
    /// Load/store unit (SMEM/L1, constant caches, coalescer, AGUs).
    pub ldstu: PowerSplit,
    /// Undifferentiated core (unmodelled transistors; all static).
    pub undiff: PowerSplit,
}

impl CoreBreakdown {
    /// Core total (static, dynamic).
    pub fn overall(&self) -> PowerSplit {
        self.base + self.wcu + self.regfile + self.exec + self.ldstu + self.undiff
    }
}

/// The full power report for one kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Kernel name.
    pub kernel: String,
    /// GPU name.
    pub gpu: String,
    /// Kernel wall-clock duration.
    pub time: Time,
    /// Chip-level breakdown.
    pub chip: ChipBreakdown,
    /// Average per-core breakdown.
    pub core: CoreBreakdown,
    /// Off-chip DRAM decomposition (not part of the chip totals, as in
    /// Table V's footnote).
    pub dram: DramPowerBreakdown,
}

impl PowerReport {
    /// Chip static power (excludes DRAM).
    pub fn static_power(&self) -> Power {
        self.chip.overall().static_power
    }

    /// Chip runtime dynamic power (excludes DRAM).
    pub fn dynamic_power(&self) -> Power {
        self.chip.overall().dynamic_power
    }

    /// Chip total power (excludes DRAM).
    pub fn total_power(&self) -> Power {
        self.chip.overall().total()
    }

    /// Board-level total including DRAM.
    pub fn board_power(&self) -> Power {
        self.total_power() + self.dram.total()
    }

    /// Energy consumed by the chip over the kernel.
    pub fn energy(&self) -> gpusimpow_tech::units::Energy {
        self.total_power() * self.time
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "rendering: unit columns read raw magnitudes, and typed rewrites would move committed report bits"
)]
impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let overall = self.chip.overall();
        writeln!(
            f,
            "power report: kernel `{}` on {} ({:.3} ms)",
            self.kernel,
            self.gpu,
            self.time.millis()
        )?;
        writeln!(
            f,
            "  {:<22} {:>10} {:>10} {:>8}",
            "GPU", "Static[W]", "Dynamic[W]", "Percent"
        )?;
        let total = overall.total().watts();
        let mut row = |name: &str, s: PowerSplit| -> fmt::Result {
            writeln!(
                f,
                "  {:<22} {:>10.3} {:>10.3} {:>7.1}%",
                name,
                s.static_power.watts(),
                s.dynamic_power.watts(),
                100.0 * s.total().watts() / total
            )
        };
        row("overall", overall)?;
        row("cores", self.chip.cores)?;
        row("noc", self.chip.noc)?;
        row("memory controller", self.chip.mc)?;
        row("pcie controller", self.chip.pcie)?;
        if self.chip.l2.total().watts() > 0.0 {
            row("l2 cache", self.chip.l2)?;
        }
        let core_total = self.core.overall().total().watts();
        writeln!(
            f,
            "  {:<22} {:>10} {:>10} {:>8}",
            "Core", "Static[W]", "Dynamic[W]", "Percent"
        )?;
        let mut crow = |name: &str, s: PowerSplit| -> fmt::Result {
            writeln!(
                f,
                "  {:<22} {:>10.4} {:>10.4} {:>7.1}%",
                name,
                s.static_power.watts(),
                s.dynamic_power.watts(),
                100.0 * s.total().watts() / core_total
            )
        };
        crow("overall", self.core.overall())?;
        crow("base power", self.core.base)?;
        crow("wcu", self.core.wcu)?;
        crow("register file", self.core.regfile)?;
        crow("execution units", self.core.exec)?;
        crow("ldstu", self.core.ldstu)?;
        crow("undiff. core", self.core.undiff)?;
        write!(
            f,
            "  external dram: {:.3} W (bg {:.2} act {:.2} rd {:.2} wr {:.2} term {:.2} ref {:.2})",
            self.dram.total().watts(),
            self.dram.background.watts(),
            self.dram.activate.watts(),
            self.dram.read.watts(),
            self.dram.write.watts(),
            self.dram.termination.watts(),
            self.dram.refresh.watts()
        )
    }
}

/// One cluster's share of the core power in a scoped report: the same
/// component energy maps evaluated over that cluster's registry events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPowerRow {
    /// Cluster index.
    pub cluster: usize,
    /// Static share (the cluster's cores) plus dynamic power attributed
    /// from the cluster-scoped activity.
    pub power: PowerSplit,
    /// Fraction of shader cycles this cluster had at least one busy core.
    pub busy_fraction: f64,
    /// Average number of busy cores in this cluster over the launch.
    pub avg_busy_cores: f64,
}

/// A [`PowerReport`] extended with per-cluster attribution derived from
/// the scoped activity registry.
///
/// Cluster rows carry everything attributable to a cluster (its cores'
/// leakage, component dynamic energy and base power); the global block
/// scheduler and the uncore (NoC, MC, PCIe, L2) are chip-level and kept
/// in their own shared rows. [`ScopedPowerReport::cores_total`] equals
/// the embedded report's `chip.cores` row and [`ScopedPowerReport::total`]
/// its chip overall, both up to floating-point rounding.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopedPowerReport {
    /// The ordinary chip-wide report.
    pub report: PowerReport,
    /// Per-cluster attribution rows, cluster 0 first.
    pub clusters: Vec<ClusterPowerRow>,
    /// Global block scheduler (chip-level, not attributable).
    pub scheduler: PowerSplit,
    /// Shared uncore: NoC + MC + PCIe + L2.
    pub uncore: PowerSplit,
}

impl ScopedPowerReport {
    /// Sum of the cluster rows plus the scheduler — reproduces the
    /// chip-wide `cores` row.
    pub fn cores_total(&self) -> PowerSplit {
        self.clusters
            .iter()
            .fold(self.scheduler, |acc, row| acc + row.power)
    }

    /// Cluster rows + scheduler + uncore — reproduces the chip overall.
    pub fn total(&self) -> PowerSplit {
        self.cores_total() + self.uncore
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "rendering: unit columns read raw magnitudes, and typed rewrites would move committed report bits"
)]
impl fmt::Display for ScopedPowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "per-cluster attribution: kernel `{}` on {} ({:.3} ms)",
            self.report.kernel,
            self.report.gpu,
            self.report.time.millis()
        )?;
        writeln!(
            f,
            "  {:<18} {:>10} {:>10} {:>9} {:>10}",
            "Cluster", "Static[W]", "Dynamic[W]", "Busy", "AvgCores"
        )?;
        for row in &self.clusters {
            writeln!(
                f,
                "  {:<18} {:>10.3} {:>10.3} {:>8.1}% {:>10.2}",
                format!("cluster {}", row.cluster),
                row.power.static_power.watts(),
                row.power.dynamic_power.watts(),
                100.0 * row.busy_fraction,
                row.avg_busy_cores
            )?;
        }
        let shared = |name: &str, s: PowerSplit, f: &mut fmt::Formatter<'_>| -> fmt::Result {
            writeln!(
                f,
                "  {:<18} {:>10.3} {:>10.3} {:>9} {:>10}",
                name,
                s.static_power.watts(),
                s.dynamic_power.watts(),
                "-",
                "-"
            )
        };
        shared("global scheduler", self.scheduler, f)?;
        shared("shared uncore", self.uncore, f)?;
        let total = self.total();
        write!(
            f,
            "  {:<18} {:>10.3} {:>10.3}   (chip overall {:.3} W)",
            "sum",
            total.static_power.watts(),
            total.dynamic_power.watts(),
            self.report.total_power().watts()
        )
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;

    fn split(s: f64, d: f64) -> PowerSplit {
        PowerSplit::new(Power::new(s), Power::new(d))
    }

    #[test]
    fn splits_add() {
        let a = split(1.0, 2.0) + split(0.5, 0.5);
        assert!((a.static_power.watts() - 1.5).abs() < 1e-12);
        assert!((a.total().watts() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn chip_overall_sums_components() {
        let c = ChipBreakdown {
            cores: split(10.0, 12.0),
            noc: split(1.0, 1.0),
            mc: split(0.5, 1.5),
            pcie: split(0.5, 1.0),
            l2: split(0.0, 0.0),
        };
        assert!((c.overall().total().watts() - 27.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_table_v_rows() {
        let zero = DramPowerBreakdown {
            background: Power::ZERO,
            activate: Power::ZERO,
            read: Power::ZERO,
            write: Power::ZERO,
            termination: Power::ZERO,
            refresh: Power::ZERO,
        };
        let r = PowerReport {
            kernel: "blackscholes".to_string(),
            gpu: "GT240".to_string(),
            time: Time::from_millis(1.0),
            chip: ChipBreakdown {
                cores: split(15.4, 15.1),
                noc: split(1.5, 1.2),
                mc: split(0.5, 1.8),
                pcie: split(0.5, 1.0),
                l2: split(0.0, 0.0),
            },
            core: CoreBreakdown {
                base: split(0.0, 0.2),
                wcu: split(0.04, 0.09),
                regfile: split(0.11, 0.17),
                exec: split(0.01, 0.56),
                ldstu: split(0.23, 0.01),
                undiff: split(0.89, 0.0),
            },
            dram: zero,
        };
        let text = r.to_string();
        assert!(text.contains("register file"));
        assert!(text.contains("undiff. core"));
        assert!(text.contains("pcie"));
    }

    #[test]
    fn scoped_report_sums_rows_and_renders() {
        let zero = DramPowerBreakdown {
            background: Power::ZERO,
            activate: Power::ZERO,
            read: Power::ZERO,
            write: Power::ZERO,
            termination: Power::ZERO,
            refresh: Power::ZERO,
        };
        let report = PowerReport {
            kernel: "k".to_string(),
            gpu: "GT240".to_string(),
            time: Time::from_millis(1.0),
            chip: ChipBreakdown {
                cores: split(8.0, 10.0),
                noc: split(1.0, 1.0),
                mc: split(0.5, 0.5),
                pcie: split(0.5, 1.0),
                l2: split(0.0, 0.0),
            },
            core: CoreBreakdown {
                base: split(0.0, 0.2),
                wcu: split(0.04, 0.09),
                regfile: split(0.11, 0.17),
                exec: split(0.01, 0.56),
                ldstu: split(0.23, 0.01),
                undiff: split(0.89, 0.0),
            },
            dram: zero,
        };
        let scoped = ScopedPowerReport {
            report,
            clusters: (0..4)
                .map(|c| ClusterPowerRow {
                    cluster: c,
                    power: split(2.0, 2.25),
                    busy_fraction: 0.5,
                    avg_busy_cores: 1.5,
                })
                .collect(),
            scheduler: split(0.0, 1.0),
            uncore: split(2.0, 2.5),
        };
        let cores = scoped.cores_total();
        assert!((cores.static_power.watts() - 8.0).abs() < 1e-12);
        assert!((cores.dynamic_power.watts() - 10.0).abs() < 1e-12);
        let total = scoped.total();
        assert!((total.total().watts() - 22.5).abs() < 1e-12);
        let text = scoped.to_string();
        assert!(text.contains("cluster 0"));
        assert!(text.contains("cluster 3"));
        assert!(text.contains("global scheduler"));
        assert!(text.contains("shared uncore"));
        assert!(text.contains("sum"));
    }
}
