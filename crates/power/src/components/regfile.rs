//! Register-file power model (paper §III-C2).
//!
//! Follows the NVIDIA patent the paper cites \[19\]: multiple single-ported
//! SRAM banks, a crossbar to a set of operand collectors (two-ported
//! four-entry register files), with operands gathered over several
//! cycles to emulate multi-porting.

use gpusimpow_circuit::{Crossbar, SramArray, SramSpec};
use gpusimpow_sim::{EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::{DeviceType, TechNode};

use super::Component;
use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// Builds the register file of one core.
///
/// # Errors
///
/// Propagates circuit-model construction errors.
pub fn build(cfg: &GpuConfig, tech: &TechNode) -> Result<Component, &'static str> {
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
    let collector_energy = (collector.costs().write_energy + collector.costs().read_energy) * s;
    let map = EnergyMap::new(vec![
        EnergyTerm::new(
            "bank reads",
            bank.costs().read_energy * s,
            vec![Ev::RfBankReads],
        ),
        EnergyTerm::new(
            "bank writes",
            bank.costs().write_energy * s,
            vec![Ev::RfBankWrites],
        ),
        EnergyTerm::new(
            "crossbar",
            xbar.transfer_energy() * s,
            vec![Ev::CollectorXbarTransfers],
        ),
        EnergyTerm::new(
            "operand collectors",
            collector_energy,
            vec![Ev::CollectorAllocations],
        ),
    ]);
    Ok(Component {
        area,
        leakage: leakage * empirical::RF_LEAKAGE_SCALE,
        map,
    })
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;
    use gpusimpow_sim::ActivityVector;

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn larger_files_leak_more() {
        let gt = build(&GpuConfig::gt240(), &t40()).unwrap();
        let gtx = build(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(gtx.leakage > gt.leakage);
        assert!(gtx.area.mm2() > gt.area.mm2());
    }

    #[test]
    fn energy_follows_accesses() {
        let rf = build(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::RfBankReads] = 100;
        a[Ev::RfBankWrites] = 50;
        a[Ev::CollectorXbarTransfers] = 100;
        a[Ev::CollectorAllocations] = 50;
        assert!(rf.map.dynamic_energy(&a).joules() > 0.0);
    }

    #[test]
    fn wide_entry_reads_cost_tens_of_picojoules() {
        // A 1024-bit warp-register read should be tens of pJ at 40 nm.
        let rf = build(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::RfBankReads] = 1;
        let pj = rf.map.dynamic_energy(&a).picojoules();
        assert!(pj > 1.0 && pj < 500.0, "bank read {pj} pJ");
    }
}
