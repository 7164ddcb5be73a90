//! Per-architecture-component power models (the GPGPU-Pow side of the
//! framework): each module maps a hardware block of paper §III-C onto
//! circuit-tier structures and builds one [`Component`], whose energy
//! map multiplies per-event energies with the activity counters the
//! performance simulator reports.

use gpusimpow_tech::units::{Area, Power};

use crate::registry::EnergyMap;

pub mod exec;
pub mod ldst;
pub mod regfile;
pub mod uncore;
pub mod wcu;

/// One priced hardware block: area, leakage and the event-priced
/// energy map of its dynamic energy. The core blocks (WCU, register
/// file, execution units, LDST unit) are per core; the uncore blocks
/// (NoC, L2, memory controllers, PCIe) are chip-wide. An absent block
/// (the GT240's L2) is the default: zero area, zero leakage, an empty
/// map.
#[derive(Debug, Clone, Default)]
pub struct Component {
    /// Silicon area.
    pub area: Area,
    /// Static (leakage) power.
    pub leakage: Power,
    /// Dynamic energy per registry event.
    pub map: EnergyMap,
}
