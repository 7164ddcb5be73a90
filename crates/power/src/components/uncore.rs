//! Chip-level uncore power models: NoC, L2, memory controllers and the
//! PCIe controller (paper §III-C: "for NoC, MC, and PCIeC, we re-used
//! the highly configurable models already present in McPAT and adjusted
//! their parameters").

use gpusimpow_circuit::{Cache, CacheSpec, Crossbar, SramArray, SramSpec};
use gpusimpow_sim::{ActivityVector, EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::{DeviceType, TechNode};
use gpusimpow_tech::units::{Area, Energy, Power, Time};

use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// Network-on-chip: a global crossbar between cores and memory
/// partitions.
#[derive(Debug, Clone)]
pub struct NocPower {
    flit_energy: Energy,
    map: EnergyMap,
    leakage: Power,
    area: Area,
}

impl NocPower {
    /// Builds the NoC model.
    ///
    /// # Errors
    ///
    /// Propagates circuit-model construction errors.
    pub fn new(cfg: &GpuConfig, tech: &TechNode) -> Result<Self, &'static str> {
        let ports = cfg.total_cores() + cfg.mem_channels.max(1) + 1;
        let xbar = Crossbar::new(
            tech,
            cfg.total_cores(),
            cfg.mem_channels.max(1) + 1,
            cfg.noc_flit_bytes * 8,
            0.9, // chip-scale port pitch in mm
        )?;
        let port_leakage =
            empirical::scaled_leakage(empirical::NOC_STATIC_PER_PORT, tech) * ports as f64;
        let flit_energy = xbar.transfer_energy() * empirical::NOC_ENERGY_SCALE;
        Ok(NocPower {
            flit_energy,
            map: EnergyMap::new(vec![EnergyTerm::new(
                "flits",
                flit_energy,
                vec![Ev::NocFlits],
            )]),
            leakage: (xbar.costs().leakage + port_leakage) * empirical::NOC_LEAKAGE_SCALE,
            area: xbar.costs().area,
        })
    }

    /// The NoC's event-priced energy map.
    pub fn energy_map(&self) -> &EnergyMap {
        &self.map
    }

    /// Dynamic energy for a kernel.
    pub fn dynamic_energy(&self, activity: &ActivityVector) -> Energy {
        self.map.dynamic_energy(activity)
    }

    /// Static power.
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Peak per-uncore-cycle energy (full injection bandwidth).
    pub fn peak_cycle_energy(&self, cfg: &GpuConfig) -> Energy {
        self.flit_energy * cfg.noc_bandwidth_flits as f64
    }
}

/// The L2 cache (absent on GT240-class chips).
#[derive(Debug, Clone)]
pub struct L2Power {
    map: EnergyMap,
    leakage: Power,
    area: Area,
}

impl L2Power {
    /// Builds the L2 model when `cfg.l2` is present.
    ///
    /// # Errors
    ///
    /// Propagates circuit-model construction errors.
    pub fn new(cfg: &GpuConfig, tech: &TechNode) -> Result<Option<Self>, &'static str> {
        let Some(l2cfg) = cfg.l2 else { return Ok(None) };
        let cache = Cache::new(
            tech,
            CacheSpec {
                capacity_bytes: l2cfg.capacity_bytes,
                line_bytes: l2cfg.line_bytes,
                ways: l2cfg.ways,
                address_bits: 32,
                banks: cfg.mem_channels.max(1),
            },
        )?;
        Ok(Some(L2Power {
            map: EnergyMap::new(vec![
                EnergyTerm::new("hits", cache.hit_energy(), vec![Ev::L2Accesses]),
                EnergyTerm::new("fills", cache.fill_energy(), vec![Ev::L2Fills]),
            ]),
            leakage: cache.costs().leakage,
            area: cache.costs().area,
        }))
    }

    /// The L2's event-priced energy map.
    pub fn energy_map(&self) -> &EnergyMap {
        &self.map
    }

    /// Dynamic energy for a kernel.
    pub fn dynamic_energy(&self, activity: &ActivityVector) -> Energy {
        self.map.dynamic_energy(activity)
    }

    /// Static power.
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Area.
    pub fn area(&self) -> Area {
        self.area
    }
}

/// Memory controllers: queues (SRAM) plus pin/PHY energy per byte.
#[derive(Debug, Clone)]
pub struct McPower {
    byte_energy: Energy,
    map: EnergyMap,
    leakage: Power,
    area: Area,
}

impl McPower {
    /// Builds the MC model (all channels together).
    ///
    /// # Errors
    ///
    /// Propagates circuit-model construction errors.
    pub fn new(cfg: &GpuConfig, tech: &TechNode) -> Result<Self, &'static str> {
        let queue = SramArray::new(
            tech,
            SramSpec {
                entries: cfg.mc_queue_depth.max(2),
                bits_per_entry: 64,
                read_ports: 1,
                write_ports: 1,
                rw_ports: 0,
                banks: 1,
                device: DeviceType::HighPerformance,
            },
        )?;
        let channels = cfg.mem_channels as f64;
        let queue_energy = queue.costs().read_energy + queue.costs().write_energy;
        let byte_energy = empirical::scaled(empirical::MC_ENERGY_PER_BYTE, tech);
        Ok(McPower {
            byte_energy,
            map: EnergyMap::new(vec![
                EnergyTerm::new("queues", queue_energy, vec![Ev::McQueueOps]),
                EnergyTerm::scaled(
                    "pins",
                    byte_energy,
                    vec![Ev::DramReadBursts, Ev::DramWriteBursts],
                    32,
                ),
            ]),
            leakage: empirical::scaled_leakage(empirical::MC_STATIC_PER_CHANNEL, tech) * channels
                + queue.costs().leakage * channels,
            area: Area::from_mm2(1.1) * channels * ((tech.feature_nm() as f64 / 40.0).powi(2)),
        })
    }

    /// The MC's event-priced energy map.
    pub fn energy_map(&self) -> &EnergyMap {
        &self.map
    }

    /// Dynamic energy for a kernel: queue operations plus bytes over the
    /// pins (32 B per DRAM burst).
    pub fn dynamic_energy(&self, activity: &ActivityVector) -> Energy {
        self.map.dynamic_energy(activity)
    }

    /// Static power (all channels).
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Area (all channels).
    pub fn area(&self) -> Area {
        self.area
    }

    /// Peak dynamic power at full pin bandwidth.
    pub fn peak_power(&self, cfg: &GpuConfig) -> Power {
        // 16 bytes per command cycle per channel at quad data rate.
        let bytes_per_s = cfg.dram_mhz * 1e6 * 16.0 * cfg.mem_channels as f64;
        self.byte_energy * gpusimpow_tech::units::Freq::new(bytes_per_s)
    }
}

/// PCIe controller: always-on PHY plus active DMA power.
#[derive(Debug, Clone)]
pub struct PciePower {
    leakage: Power,
    active: Power,
    map: EnergyMap,
    area: Area,
}

impl PciePower {
    /// Builds the PCIe controller model.
    pub fn new(_cfg: &GpuConfig, tech: &TechNode) -> Self {
        PciePower {
            leakage: empirical::scaled_leakage(empirical::PCIE_STATIC, tech),
            active: empirical::PCIE_ACTIVE,
            map: EnergyMap::new(vec![EnergyTerm::new(
                "transfers",
                empirical::scaled(empirical::PCIE_ENERGY_PER_BYTE, tech),
                vec![Ev::PcieH2dBytes, Ev::PcieD2hBytes],
            )]),
            area: Area::from_mm2(2.0) * ((tech.feature_nm() as f64 / 40.0).powi(2)),
        }
    }

    /// The PCIe controller's event-priced energy map (the time-based
    /// active power is not event-driven and stays outside the map).
    pub fn energy_map(&self) -> &EnergyMap {
        &self.map
    }

    /// Dynamic energy over a kernel window of length `time`: the
    /// controller's active power for the window plus transfer energy.
    pub fn dynamic_energy(&self, activity: &ActivityVector, time: Time) -> Energy {
        self.active * time + self.map.dynamic_energy(activity)
    }

    /// Static power.
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Area.
    pub fn area(&self) -> Area {
        self.area
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn noc_flits_cost_energy() {
        let noc = NocPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::NocFlits] = 1000;
        assert!(noc.dynamic_energy(&a).joules() > 0.0);
    }

    #[test]
    fn l2_absent_on_gt240_present_on_gtx580() {
        assert!(L2Power::new(&GpuConfig::gt240(), &t40()).unwrap().is_none());
        let l2 = L2Power::new(&GpuConfig::gtx580(), &t40()).unwrap().unwrap();
        assert!(l2.leakage().watts() > 0.05, "768 KB of SRAM leaks");
        assert!(l2.area().mm2() > 1.0);
    }

    #[test]
    fn mc_scales_with_channels() {
        let gt = McPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let gtx = McPower::new(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(gtx.leakage() > 2.0 * gt.leakage(), "6 channels vs 2");
    }

    #[test]
    fn pcie_active_power_dominates_for_short_kernels() {
        let pcie = PciePower::new(&GpuConfig::gt240(), &t40());
        let a = ActivityVector::new();
        let e = pcie.dynamic_energy(&a, Time::from_millis(1.0));
        // ~1 mJ at ~1 W active power.
        assert!((e.joules() - 0.992e-3).abs() < 1e-5);
    }
}
