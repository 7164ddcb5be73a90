//! Register-file power model (paper §III-C2).
//!
//! Follows the NVIDIA patent the paper cites \[19\]: multiple single-ported
//! SRAM banks, a crossbar to a set of operand collectors (two-ported
//! four-entry register files), with operands gathered over several
//! cycles to emulate multi-porting.

use gpusimpow_circuit::{Crossbar, SramArray, SramSpec};
use gpusimpow_sim::{ActivityVector, EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::{DeviceType, TechNode};
use gpusimpow_tech::units::{Area, Energy, Power};

use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// Evaluated register file (per core).
#[derive(Debug, Clone)]
pub struct RegFilePower {
    bank_read_energy: Energy,
    bank_write_energy: Energy,
    xbar_energy: Energy,
    map: EnergyMap,
    leakage: Power,
    area: Area,
}

impl RegFilePower {
    /// Builds the register-file model for one core.
    ///
    /// # Errors
    ///
    /// Propagates circuit-model construction errors.
    pub fn new(cfg: &GpuConfig, tech: &TechNode) -> Result<Self, &'static str> {
        // A warp-register is warp_size x 32 bits stored across one bank
        // entry; the per-core file is split into single-ported banks.
        let entry_bits = cfg.warp_size * 32;
        let entries_total = cfg.regfile_regs_per_core / cfg.warp_size;
        let per_bank = (entries_total / cfg.regfile_banks).max(1);
        let bank = SramArray::new(
            tech,
            SramSpec {
                entries: per_bank,
                bits_per_entry: entry_bits,
                read_ports: 0,
                write_ports: 0,
                rw_ports: 1,
                banks: 1,
                device: DeviceType::LowStandbyPower,
            },
        )?;

        // Crossbar from banks to operand collectors, warp-register wide.
        let xbar = Crossbar::new(
            tech,
            cfg.regfile_banks,
            cfg.operand_collectors,
            entry_bits,
            0.05,
        )?;

        // Operand collectors: two-ported, four entries of a full
        // warp-register each.
        let collector = SramArray::new(
            tech,
            SramSpec {
                entries: 4,
                bits_per_entry: entry_bits,
                read_ports: 1,
                write_ports: 1,
                rw_ports: 0,
                banks: 1,
                device: DeviceType::HighPerformance,
            },
        )?;

        let leakage = bank.costs().leakage * cfg.regfile_banks as f64
            + xbar.costs().leakage
            + collector.costs().leakage * cfg.operand_collectors as f64;
        let area = bank.costs().area * cfg.regfile_banks as f64
            + xbar.costs().area
            + collector.costs().area * cfg.operand_collectors as f64;

        let s = empirical::RF_ENERGY_SCALE;
        let bank_read_energy = bank.costs().read_energy * s;
        let bank_write_energy = bank.costs().write_energy * s;
        let xbar_energy = xbar.transfer_energy() * s;
        let collector_energy = (collector.costs().write_energy + collector.costs().read_energy) * s;
        let map = EnergyMap::new(vec![
            EnergyTerm::new("bank reads", bank_read_energy, vec![Ev::RfBankReads]),
            EnergyTerm::new("bank writes", bank_write_energy, vec![Ev::RfBankWrites]),
            EnergyTerm::new("crossbar", xbar_energy, vec![Ev::CollectorXbarTransfers]),
            EnergyTerm::new(
                "operand collectors",
                collector_energy,
                vec![Ev::CollectorAllocations],
            ),
        ]);
        Ok(RegFilePower {
            bank_read_energy,
            bank_write_energy,
            xbar_energy,
            map,
            leakage: leakage * empirical::RF_LEAKAGE_SCALE,
            area,
        })
    }

    /// The register file's event-priced energy map.
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

    /// Peak per-cycle energy: as many operand reads as collectors plus a
    /// writeback.
    pub fn peak_cycle_energy(&self, cfg: &GpuConfig) -> Energy {
        (self.bank_read_energy + self.xbar_energy) * cfg.operand_collectors as f64
            + self.bank_write_energy
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
    fn larger_files_leak_more() {
        let gt = RegFilePower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let gtx = RegFilePower::new(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(gtx.leakage() > gt.leakage());
        assert!(gtx.area().mm2() > gt.area().mm2());
    }

    #[test]
    fn energy_follows_accesses() {
        let rf = RegFilePower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::RfBankReads] = 100;
        a[Ev::RfBankWrites] = 50;
        a[Ev::CollectorXbarTransfers] = 100;
        a[Ev::CollectorAllocations] = 50;
        assert!(rf.dynamic_energy(&a).joules() > 0.0);
    }

    #[test]
    fn wide_entry_reads_cost_tens_of_picojoules() {
        // A 1024-bit warp-register read should be tens of pJ at 40 nm.
        let rf = RegFilePower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::RfBankReads] = 1;
        let pj = rf.dynamic_energy(&a).picojoules();
        assert!(pj > 1.0 && pj < 500.0, "bank read {pj} pJ");
    }
}
