//! Chip-level uncore power models: NoC, L2, memory controllers and the
//! PCIe controller (paper §III-C: "for NoC, MC, and PCIeC, we re-used
//! the highly configurable models already present in McPAT and adjusted
//! their parameters").

use gpusimpow_circuit::{Cache, CacheSpec, Crossbar, SramArray, SramSpec};
use gpusimpow_sim::{EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::{DeviceType, TechNode};
use gpusimpow_tech::units::Area;

use super::Component;
use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// Builds the network-on-chip: a global crossbar between cores and
/// memory partitions.
///
/// # Errors
///
/// Propagates circuit-model construction errors.
pub fn noc(cfg: &GpuConfig, tech: &TechNode) -> Result<Component, &'static str> {
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
    Ok(Component {
        area: xbar.costs().area,
        leakage: (xbar.costs().leakage + port_leakage) * empirical::NOC_LEAKAGE_SCALE,
        map: EnergyMap::new(vec![EnergyTerm::new(
            "flits",
            xbar.transfer_energy() * empirical::NOC_ENERGY_SCALE,
            vec![Ev::NocFlits],
        )]),
    })
}

/// Builds the L2 cache; a GT240-class chip without one (`cfg.l2` is
/// `None`) gets the empty default component.
///
/// # Errors
///
/// Propagates circuit-model construction errors.
pub fn l2(cfg: &GpuConfig, tech: &TechNode) -> Result<Component, &'static str> {
    let Some(l2cfg) = cfg.l2 else {
        return Ok(Component::default());
    };
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
    Ok(Component {
        area: cache.costs().area,
        leakage: cache.costs().leakage,
        map: EnergyMap::new(vec![
            EnergyTerm::new("hits", cache.hit_energy(), vec![Ev::L2Accesses]),
            EnergyTerm::new("fills", cache.fill_energy(), vec![Ev::L2Fills]),
        ]),
    })
}

/// Builds the memory controllers, all channels together: queues (SRAM)
/// plus pin/PHY energy per byte (32 B per DRAM burst).
///
/// # Errors
///
/// Propagates circuit-model construction errors.
pub fn mc(cfg: &GpuConfig, tech: &TechNode) -> Result<Component, &'static str> {
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
    Ok(Component {
        area: Area::from_mm2(1.1) * channels * ((tech.feature_nm() as f64 / 40.0).powi(2)),
        leakage: empirical::scaled_leakage(empirical::MC_STATIC_PER_CHANNEL, tech) * channels
            + queue.costs().leakage * channels,
        map: EnergyMap::new(vec![
            EnergyTerm::new("queues", queue_energy, vec![Ev::McQueueOps]),
            EnergyTerm::scaled(
                "pins",
                empirical::scaled(empirical::MC_ENERGY_PER_BYTE, tech),
                vec![Ev::DramReadBursts, Ev::DramWriteBursts],
                32,
            ),
        ]),
    })
}

/// Builds the PCIe controller: always-on PHY leakage plus transfer
/// energy. Its time-based active power ([`empirical::PCIE_ACTIVE`]) is
/// not event-driven, so `GpuChip::evaluate` adds it outside the map.
pub fn pcie(tech: &TechNode) -> Component {
    Component {
        area: Area::from_mm2(2.0) * ((tech.feature_nm() as f64 / 40.0).powi(2)),
        leakage: empirical::scaled_leakage(empirical::PCIE_STATIC, tech),
        map: EnergyMap::new(vec![EnergyTerm::new(
            "transfers",
            empirical::scaled(empirical::PCIE_ENERGY_PER_BYTE, tech),
            vec![Ev::PcieH2dBytes, Ev::PcieD2hBytes],
        )]),
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;
    use gpusimpow_sim::ActivityVector;
    use gpusimpow_tech::units::{Power, Time};

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn noc_flits_cost_energy() {
        let noc = noc(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::NocFlits] = 1000;
        assert!(noc.map.dynamic_energy(&a).joules() > 0.0);
    }

    #[test]
    fn l2_absent_on_gt240_present_on_gtx580() {
        let absent = l2(&GpuConfig::gt240(), &t40()).unwrap();
        assert_eq!(absent.area, Area::ZERO);
        assert_eq!(absent.leakage, Power::ZERO);
        assert_eq!(absent.map.events().count(), 0);
        let l2 = l2(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(l2.leakage.watts() > 0.05, "768 KB of SRAM leaks");
        assert!(l2.area.mm2() > 1.0);
    }

    #[test]
    fn mc_scales_with_channels() {
        let gt = mc(&GpuConfig::gt240(), &t40()).unwrap();
        let gtx = mc(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(gtx.leakage > 2.0 * gt.leakage, "6 channels vs 2");
    }

    #[test]
    fn pcie_active_power_dominates_for_short_kernels() {
        let pcie = pcie(&t40());
        let a = ActivityVector::new();
        let time = Time::from_millis(1.0);
        let e = empirical::PCIE_ACTIVE * time + pcie.map.dynamic_energy(&a);
        // ~1 mJ at ~1 W active power.
        assert!((e.joules() - 0.992e-3).abs() < 1e-5);
    }
}
