//! Load/store-unit power model (paper §III-C4, Fig. 3).
//!
//! AGUs (parallel 8-address SAGUs, modelled as arithmetic logic), the
//! coalescer (D-flip-flop buffers plus an FSM, because "CACTI cannot be
//! used to model buffers with few but very large entries"), the unified
//! SMEM/L1 banked storage with its address/data crossbars and
//! bank-conflict check unit, and the constant cache.

use gpusimpow_circuit::{Cache, CacheSpec, Crossbar, DffBuffer, Fsm, SramArray, SramSpec};
use gpusimpow_sim::{ActivityVector, EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::{DeviceType, TechNode};
use gpusimpow_tech::units::{Area, Energy, Power};

use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// Evaluated load/store unit (per core).
#[derive(Debug, Clone)]
pub struct LdstPower {
    agu_energy: Energy,
    smem_access_energy: Energy,
    xbar_energy: Energy,
    map: EnergyMap,
    leakage: Power,
    area: Area,
}

/// Energy of generating one address in a SAGU (a few adders at 40 nm).
const AGU_ADDR_PJ: f64 = 2.0;

impl LdstPower {
    /// Builds the LDST model for one core.
    ///
    /// # Errors
    ///
    /// Propagates circuit-model construction errors.
    pub fn new(cfg: &GpuConfig, tech: &TechNode) -> Result<Self, &'static str> {
        // Coalescer storage: input queue + pending request table, held in
        // flip-flops. Total bits: 8 entries x (warp_size x 32-bit
        // addresses + masks).
        let pending_bits = 8 * (cfg.warp_size * 32 + cfg.warp_size + 64);
        let coalescer = DffBuffer::new(tech, pending_bits)?;
        let fsm = Fsm::new(tech, 8, 6)?;

        // Unified SMEM/L1 physical storage, banked.
        let smem = SramArray::new(
            tech,
            SramSpec {
                entries: cfg.smem_bytes / 4,
                bits_per_entry: 32,
                read_ports: 0,
                write_ports: 0,
                rw_ports: 1,
                banks: cfg.smem_banks,
                device: DeviceType::LowStandbyPower,
            },
        )?;
        // Address + data crossbars between lanes and banks.
        let addr_xbar = Crossbar::new(tech, cfg.warp_size, cfg.smem_banks, 32, 0.03)?;
        let data_xbar = Crossbar::new(tech, cfg.smem_banks, cfg.warp_size, 32, 0.03)?;
        // Bank-conflict check unit: comparators over bank indices.
        let conflict_check = Fsm::new(tech, 4, cfg.warp_size)?;

        let const_cache = Cache::new(
            tech,
            CacheSpec {
                capacity_bytes: cfg.const_cache_bytes,
                line_bytes: 64,
                ways: 4,
                address_bits: 32,
                banks: 1,
            },
        )?;

        // L1 tags only matter on Fermi-class configs; the data storage is
        // the unified array above. Model the tag overhead as a small
        // cache when enabled.
        let l1_tags = if cfg.l1_enabled {
            Some(Cache::new(
                tech,
                CacheSpec {
                    capacity_bytes: cfg.l1_bytes,
                    line_bytes: cfg.l1_line_bytes,
                    ways: cfg.l1_ways,
                    address_bits: 32,
                    banks: 2,
                },
            )?)
        } else {
            None
        };

        let mut leakage = coalescer.costs().leakage
            + fsm.costs().leakage
            + smem.costs().leakage
            + addr_xbar.costs().leakage
            + data_xbar.costs().leakage
            + conflict_check.costs().leakage
            + const_cache.costs().leakage;
        let mut area = coalescer.costs().area
            + fsm.costs().area
            + smem.costs().area
            + addr_xbar.costs().area
            + data_xbar.costs().area
            + conflict_check.costs().area
            + const_cache.costs().area;
        let (l1_hit_energy, l1_fill_energy) = match &l1_tags {
            Some(l1) => {
                leakage += l1.costs().leakage * 0.3; // tags + control only
                area += l1.costs().area * 0.15;
                (l1.miss_energy(), l1.fill_energy())
            }
            None => (Energy::ZERO, Energy::ZERO),
        };

        let s = empirical::LDST_ENERGY_SCALE;
        let agu_energy = Energy::from_picojoules(AGU_ADDR_PJ * 8.0) * tech.vdd().squared() * s;
        let smem_access_energy = smem.costs().read_energy * empirical::LDST_SMEM_SCALE;
        let xbar_energy = (addr_xbar.transfer_energy() + data_xbar.transfer_energy())
            * empirical::LDST_SMEM_SCALE;
        // Term order is the former hand-written expression order; SMEM
        // accesses are priced twice on purpose (array + crossbars).
        let map = EnergyMap::new(vec![
            EnergyTerm::new("agu", agu_energy, vec![Ev::AguOps]),
            EnergyTerm::new(
                "coalescer",
                coalescer.write_energy(40) * s,
                vec![Ev::CoalescerInputs],
            ),
            EnergyTerm::new(
                "coalescer",
                (coalescer.write_energy(64) + fsm.transition_energy()) * s,
                vec![Ev::CoalescerOutputs],
            ),
            EnergyTerm::new("smem/l1 array", smem_access_energy, vec![Ev::SmemAccesses]),
            EnergyTerm::new("smem crossbars", xbar_energy, vec![Ev::SmemAccesses]),
            EnergyTerm::new(
                "constant cache",
                const_cache.hit_energy() * s,
                vec![Ev::ConstAccesses],
            ),
            EnergyTerm::new(
                "constant cache",
                const_cache.fill_energy() * s,
                vec![Ev::ConstMisses],
            ),
            EnergyTerm::new("l1 tags", l1_hit_energy * s, vec![Ev::L1Accesses]),
            EnergyTerm::new("l1 tags", l1_fill_energy * s, vec![Ev::L1Fills]),
        ]);
        Ok(LdstPower {
            agu_energy,
            smem_access_energy,
            xbar_energy,
            map,
            leakage: leakage * empirical::LDST_LEAKAGE_SCALE,
            area,
        })
    }

    /// The LDST unit's event-priced energy map.
    pub fn energy_map(&self) -> &EnergyMap {
        &self.map
    }

    /// Chip-wide dynamic energy from the registry counters.
    pub fn dynamic_energy(&self, activity: &ActivityVector) -> Energy {
        self.map.dynamic_energy(activity)
    }

    /// Per-core leakage.
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Per-core area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Peak per-cycle energy: a full warp access every cycle.
    pub fn peak_cycle_energy(&self, cfg: &GpuConfig) -> Energy {
        self.agu_energy * (cfg.warp_size / 8) as f64
            + self.smem_access_energy * cfg.smem_banks as f64 / 2.0
            + self.xbar_energy
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
    fn fermi_ldst_is_bigger() {
        let gt = LdstPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let gtx = LdstPower::new(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(gtx.leakage() > gt.leakage(), "4x the unified storage");
    }

    #[test]
    fn l1_energies_zero_when_absent() {
        let gt = LdstPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::L1Accesses] = 100;
        a[Ev::L1Fills] = 10;
        assert_eq!(gt.dynamic_energy(&a).joules(), 0.0);
    }

    #[test]
    fn memory_activity_costs_energy() {
        let ldst = LdstPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::AguOps] = 4;
        a[Ev::CoalescerInputs] = 32;
        a[Ev::CoalescerOutputs] = 1;
        a[Ev::SmemAccesses] = 16;
        assert!(ldst.dynamic_energy(&a).picojoules() > 1.0);
    }
}
