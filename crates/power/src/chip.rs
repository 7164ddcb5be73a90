//! The chip representation: builds every component model from a
//! [`GpuConfig`] and evaluates area, leakage, peak power and runtime
//! power (the GPGPU-Pow half of Fig. 1).

use std::fmt;

use gpusimpow_sim::{ActivityStats, GpuConfig, ScopedActivity};
use gpusimpow_tech::clockdomain::ClockDomains;
use gpusimpow_tech::node::{TechError, TechNode};
use gpusimpow_tech::units::{Area, Cycles, Energy, Freq, Power};

use crate::components::exec::ExecPower;
use crate::components::ldst::LdstPower;
use crate::components::regfile::RegFilePower;
use crate::components::uncore::{L2Power, McPower, NocPower, PciePower};
use crate::components::wcu::WcuPower;
use crate::dram::DramPower;
use crate::empirical;
use crate::report::{
    ChipBreakdown, ClusterPowerRow, CoreBreakdown, PowerReport, PowerSplit, ScopedPowerReport,
};

/// Errors building a chip representation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChipError {
    /// The configuration failed validation.
    Config(String),
    /// The process node is not in the technology tables.
    Tech(TechError),
    /// A circuit model rejected its parameters.
    Circuit(&'static str),
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::Config(msg) => write!(f, "{msg}"),
            ChipError::Tech(e) => write!(f, "{e}"),
            ChipError::Circuit(msg) => write!(f, "circuit model error: {msg}"),
        }
    }
}

impl std::error::Error for ChipError {}

impl From<TechError> for ChipError {
    fn from(e: TechError) -> Self {
        ChipError::Tech(e)
    }
}

impl From<&'static str> for ChipError {
    fn from(e: &'static str) -> Self {
        ChipError::Circuit(e)
    }
}

/// The evaluated GPU chip: one power model per architecture component.
#[derive(Debug, Clone)]
pub struct GpuChip {
    config: GpuConfig,
    tech: TechNode,
    clocks: ClockDomains,
    wcu: WcuPower,
    regfile: RegFilePower,
    exec: ExecPower,
    ldst: LdstPower,
    noc: NocPower,
    l2: Option<L2Power>,
    mc: McPower,
    pcie: PciePower,
    dram: DramPower,
    undiff_static_per_core: Power,
    undiff_area_per_core: Area,
}

impl GpuChip {
    /// Builds the chip representation for `config` at its configured
    /// process node.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError`] when the configuration, node or any circuit
    /// model is invalid.
    pub fn new(config: &GpuConfig) -> Result<Self, ChipError> {
        config
            .validate()
            .map_err(|e| ChipError::Config(e.to_string()))?;
        let tech = TechNode::planar(config.process_nm)?.with_temperature(config.junction_temp_k)?;
        let clocks = ClockDomains::new(
            Freq::from_mhz(config.uncore_mhz),
            config.shader_ratio,
            Freq::from_mhz(config.dram_mhz),
        );
        let wcu = WcuPower::new(config, &tech)?;
        let regfile = RegFilePower::new(config, &tech)?;
        let exec = ExecPower::new(config, &tech);
        let ldst = LdstPower::new(config, &tech)?;
        let noc = NocPower::new(config, &tech)?;
        let l2 = L2Power::new(config, &tech)?;
        let mc = McPower::new(config, &tech)?;
        let pcie = PciePower::new(config, &tech);
        let dram = DramPower::new(config);

        let modelled_core_area = wcu.area() + regfile.area() + exec.area() + ldst.area();
        let undiff_area_per_core = modelled_core_area * empirical::UNDIFF_AREA_FACTOR;
        let undiff_static_per_core =
            empirical::scaled_leakage(empirical::UNDIFF_STATIC_PER_MM2, &tech)
                * undiff_area_per_core.mm2();

        Ok(GpuChip {
            config: config.clone(),
            tech,
            clocks,
            wcu,
            regfile,
            exec,
            ldst,
            noc,
            l2,
            mc,
            pcie,
            dram,
            undiff_static_per_core,
            undiff_area_per_core,
        })
    }

    /// The configuration this chip models.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The technology node.
    pub fn tech(&self) -> &TechNode {
        &self.tech
    }

    /// The clock domains.
    pub fn clocks(&self) -> &ClockDomains {
        &self.clocks
    }

    /// Area of one SIMT core including its undifferentiated share.
    pub fn core_area(&self) -> Area {
        self.wcu.area()
            + self.regfile.area()
            + self.exec.area()
            + self.ldst.area()
            + self.undiff_area_per_core
    }

    /// Total die area (Table IV's "Area" row).
    pub fn area(&self) -> Area {
        let cores = self.core_area() * self.config.total_cores() as f64;
        let l2 = self.l2.as_ref().map(L2Power::area).unwrap_or(Area::ZERO);
        (cores + self.noc.area() + l2 + self.mc.area() + self.pcie.area())
            * empirical::CHIP_AREA_OVERHEAD
    }

    /// Per-core static power.
    pub fn core_static_power(&self) -> Power {
        self.wcu.leakage()
            + self.regfile.leakage()
            + self.exec.leakage()
            + self.ldst.leakage()
            + self.undiff_static_per_core
    }

    /// Total chip static power (Table IV's "Static" row; excludes DRAM).
    pub fn static_power(&self) -> Power {
        let cores = self.core_static_power() * self.config.total_cores() as f64;
        let l2 = self
            .l2
            .as_ref()
            .map(L2Power::leakage)
            .unwrap_or(Power::ZERO);
        cores + self.noc.leakage() + l2 + self.mc.leakage() + self.pcie.leakage()
    }

    /// Peak dynamic power: every unit switching at its maximum rate.
    pub fn peak_dynamic_power(&self) -> Power {
        let shader = self.clocks.shader();
        let uncore = self.clocks.uncore();
        let per_core = (self.wcu.peak_cycle_energy()
            + self.regfile.peak_cycle_energy(&self.config)
            + self.exec.peak_cycle_energy()
            + self.ldst.peak_cycle_energy(&self.config))
            * shader;
        let cores = per_core * self.config.total_cores() as f64
            + empirical::CORE_BASE * self.config.total_cores() as f64
            + empirical::CLUSTER_OVERHEAD * self.config.clusters as f64
            + empirical::GLOBAL_SCHEDULER;
        cores
            + self.noc.peak_cycle_energy(&self.config) * uncore
            + self.mc.peak_power(&self.config)
            + empirical::PCIE_ACTIVE
    }

    /// The off-chip DRAM model.
    pub fn dram(&self) -> &DramPower {
        &self.dram
    }

    /// Evaluates runtime power for one kernel's activity (the right-hand
    /// side of Fig. 1: activity information × power model → results).
    ///
    /// # Panics
    ///
    /// Panics if `stats.shader_cycles` is zero.
    pub fn evaluate(&self, kernel: &str, stats: &ActivityStats) -> PowerReport {
        assert!(stats.shader_cycles > 0, "kernel must have run");
        let time = self
            .clocks
            .shader_cycles_to_time(Cycles::new(stats.shader_cycles));
        let n_cores = self.config.total_cores() as f64;
        let activity = stats.to_vector();

        // --- dynamic energies (chip-wide, from the event registry) -------
        let wcu_e = self.wcu.dynamic_energy(&activity);
        let rf_e = self.regfile.dynamic_energy(&activity);
        let exec_e = self.exec.dynamic_energy(&activity);
        let ldst_e = self.ldst.dynamic_energy(&activity);
        let noc_e = self.noc.dynamic_energy(&activity);
        let l2_e = self
            .l2
            .as_ref()
            .map(|l2| l2.dynamic_energy(&activity))
            .unwrap_or(Energy::ZERO);
        let mc_e = self.mc.dynamic_energy(&activity);
        let pcie_e = self.pcie.dynamic_energy(&activity, time);

        // --- empirical base power -----------------------------------------
        //
        // Per-core base (Table V's 0.199 W) goes into the core breakdown;
        // the global block scheduler and cluster-level overheads are
        // chip-level and appear only in the top-level "cores" row, which
        // is why in the paper 12 x 1.031 W of cores is less than the
        // 15.132 W cores row.
        let cycles = stats.shader_cycles as f64;
        let avg_busy_cores = stats.core_busy_cycles as f64 / cycles;
        let avg_busy_clusters = stats.cluster_busy_cycles as f64 / cycles;
        let any_busy = avg_busy_clusters.min(1.0);
        let core_base_dynamic = empirical::CORE_BASE * avg_busy_cores;
        let chip_sched_dynamic = empirical::GLOBAL_SCHEDULER * any_busy
            + empirical::MODEL_CLUSTER_OVERHEAD * avg_busy_clusters;

        let core_dyn = |e: Energy| -> Power { e / time / n_cores };

        let core = CoreBreakdown {
            base: PowerSplit::new(Power::ZERO, core_base_dynamic / n_cores),
            wcu: PowerSplit::new(self.wcu.leakage(), core_dyn(wcu_e)),
            regfile: PowerSplit::new(self.regfile.leakage(), core_dyn(rf_e)),
            exec: PowerSplit::new(self.exec.leakage(), core_dyn(exec_e)),
            ldstu: PowerSplit::new(self.ldst.leakage(), core_dyn(ldst_e)),
            undiff: PowerSplit::new(self.undiff_static_per_core, Power::ZERO),
        };
        let cores_total = {
            let c = core.overall();
            PowerSplit::new(
                c.static_power * n_cores,
                c.dynamic_power * n_cores + chip_sched_dynamic,
            )
        };
        let chip = ChipBreakdown {
            cores: cores_total,
            noc: PowerSplit::new(self.noc.leakage(), noc_e / time),
            mc: PowerSplit::new(self.mc.leakage(), mc_e / time),
            pcie: PowerSplit::new(self.pcie.leakage(), pcie_e / time),
            l2: PowerSplit::new(
                self.l2
                    .as_ref()
                    .map(L2Power::leakage)
                    .unwrap_or(Power::ZERO),
                l2_e / time,
            ),
        };
        let dram = self.dram.evaluate(&activity, time);
        PowerReport {
            kernel: kernel.to_string(),
            gpu: self.config.name.clone(),
            time,
            chip,
            core,
            dram,
        }
    }

    /// Evaluates runtime power *with per-cluster attribution*: the same
    /// core-component energy maps applied to each cluster's scoped
    /// [`ActivityVector`](gpusimpow_sim::ActivityVector) instead of the
    /// chip aggregate, plus each cluster's share of the empirical base
    /// power from its scoped busy cycles. Shared chip-level blocks (the
    /// global scheduler, NoC, MC, PCIe, L2) stay un-attributed in their
    /// own rows; cluster rows plus shared rows reproduce the chip totals
    /// of the embedded [`PowerReport`] up to floating-point rounding.
    ///
    /// # Panics
    ///
    /// Panics if `stats.shader_cycles` is zero.
    pub fn evaluate_scoped(
        &self,
        kernel: &str,
        stats: &ActivityStats,
        scoped: &ScopedActivity,
    ) -> ScopedPowerReport {
        let report = self.evaluate(kernel, stats);
        let time = self
            .clocks
            .shader_cycles_to_time(Cycles::new(stats.shader_cycles));
        let cycles = stats.shader_cycles as f64;
        let static_per_cluster = self.core_static_power() * scoped.cores_per_cluster as f64;
        let mut clusters = Vec::with_capacity(scoped.clusters);
        for c in 0..scoped.clusters {
            let vc = scoped.cluster_vector(c);
            let avg_busy_cores = scoped.cluster_core_busy(c) as f64 / cycles;
            let busy_fraction = scoped.cluster_busy.get(c).copied().unwrap_or(0) as f64 / cycles;
            let dynamic = empirical::CORE_BASE * avg_busy_cores
                + empirical::MODEL_CLUSTER_OVERHEAD * busy_fraction
                + (self.wcu.dynamic_energy(&vc)
                    + self.regfile.dynamic_energy(&vc)
                    + self.exec.dynamic_energy(&vc)
                    + self.ldst.dynamic_energy(&vc))
                    / time;
            clusters.push(ClusterPowerRow {
                cluster: c,
                power: PowerSplit::new(static_per_cluster, dynamic),
                busy_fraction,
                avg_busy_cores,
            });
        }
        let any_busy = (stats.cluster_busy_cycles as f64 / cycles).min(1.0);
        let scheduler = PowerSplit::new(Power::ZERO, empirical::GLOBAL_SCHEDULER * any_busy);
        let uncore = report.chip.noc + report.chip.mc + report.chip.pcie + report.chip.l2;
        ScopedPowerReport {
            report,
            clusters,
            scheduler,
            uncore,
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;

    #[test]
    fn gt240_chip_builds() {
        let chip = GpuChip::new(&GpuConfig::gt240()).unwrap();
        assert!(chip.area().mm2() > 10.0);
        assert!(chip.static_power().watts() > 1.0);
        assert!(chip.peak_dynamic_power().watts() > chip.static_power().watts());
    }

    #[test]
    fn gtx580_is_larger_and_leakier() {
        let gt = GpuChip::new(&GpuConfig::gt240()).unwrap();
        let gtx = GpuChip::new(&GpuConfig::gtx580()).unwrap();
        assert!(gtx.area().mm2() > 2.0 * gt.area().mm2());
        assert!(gtx.static_power().watts() > 2.0 * gt.static_power().watts());
    }

    #[test]
    fn smaller_node_cuts_static_power() {
        let mut cfg = GpuConfig::gt240();
        let at40 = GpuChip::new(&cfg).unwrap();
        cfg.process_nm = 28;
        let at28 = GpuChip::new(&cfg).unwrap();
        assert!(at28.area().mm2() < at40.area().mm2());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = GpuConfig::gt240();
        cfg.clusters = 0;
        assert!(matches!(GpuChip::new(&cfg), Err(ChipError::Config(_))));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut cfg = GpuConfig::gt240();
        cfg.process_nm = 37;
        assert!(matches!(GpuChip::new(&cfg), Err(ChipError::Tech(_))));
    }

    #[test]
    fn every_event_is_priced_consumed_or_explicitly_unpriced() {
        use gpusimpow_sim::EventKind as Ev;
        use std::collections::BTreeSet;

        // GTX580 so the L2 map is present (the GT240 has no L2).
        let chip = GpuChip::new(&GpuConfig::gtx580()).unwrap();
        let l2 = chip.l2.as_ref().expect("the GTX580 has an L2");
        let maps = [
            chip.wcu.energy_map(),
            chip.regfile.energy_map(),
            chip.exec.energy_map(),
            chip.ldst.energy_map(),
            chip.noc.energy_map(),
            chip.mc.energy_map(),
            chip.pcie.energy_map(),
            l2.energy_map(),
        ];
        let mut priced: BTreeSet<Ev> = maps.iter().flat_map(|map| map.events()).collect();
        priced.extend(DramPower::EVENTS.iter().copied());

        // The documented allowlists live next to `EnergyMap` in
        // `registry.rs`; this test is the one check of the coverage
        // contract against them.
        let base: BTreeSet<Ev> = crate::registry::BASE_MODEL_EVENTS.iter().copied().collect();
        let unpriced: BTreeSet<Ev> = crate::registry::UNPRICED_EVENTS.iter().copied().collect();

        for &ev in Ev::ALL {
            let covered = priced.contains(&ev) || base.contains(&ev) || unpriced.contains(&ev);
            assert!(
                covered,
                "event {} is not mapped to the power model",
                ev.name()
            );
        }
        for ev in priced.iter() {
            assert!(
                !unpriced.contains(ev) && !base.contains(ev),
                "event {} is priced but also on a non-priced list",
                ev.name()
            );
        }
    }

    #[test]
    fn scoped_evaluation_conserves_the_chip_totals() {
        use gpusimpow_sim::{ActivityVector, EventKind as Ev, ScopedActivity};

        let cfg = GpuConfig::gt240();
        let chip = GpuChip::new(&cfg).unwrap();
        let clusters = cfg.clusters;
        let cores_per_cluster = cfg.cores_per_cluster;
        let n_cores = clusters * cores_per_cluster;

        // Asymmetric synthetic launch: core i does (i+1)x the work.
        let cycles = 1_000_000u64;
        let mut per_core = vec![ActivityVector::new(); n_cores];
        let mut core_busy = vec![0u64; n_cores];
        for (i, v) in per_core.iter_mut().enumerate() {
            let w = (i as u64 + 1) * 1000;
            v[Ev::IcacheAccesses] = 10 * w;
            v[Ev::Decodes] = 10 * w;
            v[Ev::RfBankReads] = 30 * w;
            v[Ev::RfBankWrites] = 15 * w;
            v[Ev::IntLaneOps] = 80 * w;
            v[Ev::FpLaneOps] = 240 * w;
            v[Ev::AguOps] = 4 * w;
            v[Ev::SmemAccesses] = 2 * w;
            core_busy[i] = (cycles / n_cores as u64) * (i as u64 + 1);
        }
        let cluster_busy: Vec<u64> = (0..clusters)
            .map(|c| cycles * (c as u64 + 1) / clusters as u64)
            .collect();
        let mut chip_vec = ActivityVector::new();
        chip_vec[Ev::ShaderCycles] = cycles;
        chip_vec[Ev::CoreBusyCycles] = core_busy.iter().sum();
        chip_vec[Ev::ClusterBusyCycles] = cluster_busy.iter().sum();
        chip_vec[Ev::NocFlits] = 500_000;
        chip_vec[Ev::McQueueOps] = 100_000;
        chip_vec[Ev::DramReadBursts] = 50_000;

        let scoped = ScopedActivity {
            clusters,
            cores_per_cluster,
            per_core,
            core_busy,
            cluster_busy,
            chip: chip_vec,
        };
        let stats = ActivityStats::from_vector(&scoped.total_vector());
        let report = chip.evaluate_scoped("synthetic", &stats, &scoped);

        // Cluster rows + scheduler reproduce the cores row; adding the
        // shared uncore reproduces the chip overall.
        let cores = report.cores_total();
        let chip_cores = report.report.chip.cores;
        assert!(
            (cores.static_power.watts() - chip_cores.static_power.watts()).abs()
                < 1e-9 * chip_cores.static_power.watts().max(1.0)
        );
        assert!(
            (cores.dynamic_power.watts() - chip_cores.dynamic_power.watts()).abs()
                < 1e-9 * chip_cores.dynamic_power.watts().max(1.0)
        );
        let total = report.total();
        let overall = report.report.chip.overall();
        assert!(
            (total.total().watts() - overall.total().watts()).abs()
                < 1e-9 * overall.total().watts().max(1.0)
        );

        // Attribution is genuinely asymmetric: the busiest cluster draws
        // strictly more dynamic power than the idlest one.
        let first = report.clusters.first().unwrap().power.dynamic_power;
        let last = report.clusters.last().unwrap().power.dynamic_power;
        assert!(last > first, "per-cluster attribution should be asymmetric");
    }

    #[test]
    fn evaluate_produces_consistent_report() {
        let chip = GpuChip::new(&GpuConfig::gt240()).unwrap();
        let mut stats = ActivityStats::new();
        stats.shader_cycles = 1_000_000;
        stats.core_busy_cycles = 12_000_000;
        stats.cluster_busy_cycles = 4_000_000;
        stats.fp_lane_ops = 50_000_000;
        stats.int_lane_ops = 10_000_000;
        let report = chip.evaluate("synthetic", &stats);
        assert!((report.static_power() / chip.static_power() - 1.0).abs() < 1e-9);
        assert!(report.dynamic_power().watts() > 0.0);
        assert!(report.board_power() > report.total_power());
        // Exec energy: 50M*75pJ + 10M*40pJ = 4.15 mJ over 0.736 ms.
        let exec_w = report.core.exec.dynamic_power.watts() * 12.0;
        assert!(exec_w > 3.0 && exec_w < 9.0, "exec {exec_w} W");
    }
}
