//! On-chip wire models.
//!
//! The circuit tier needs wire capacitance (for array word/bitlines,
//! crossbar buses and clock trees). We model three metal classes,
//! following the CACTI convention: local (minimum pitch), intermediate
//! (2× pitch) and global (4× pitch, used for the NoC and clock spines).

use crate::node::TechNode;
use crate::units::{Capacitance, Energy, Voltage};

/// Metal layer class for a wire run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireClass {
    /// Minimum-pitch local interconnect (within an array mat).
    Local,
    /// Double-pitch semi-global interconnect (across a core).
    Intermediate,
    /// Wide-pitch global interconnect (NoC links, clock spines).
    Global,
}

/// A wire segment of a given class and length at a given node.
///
/// # Examples
///
/// ```
/// use gpusimpow_tech::node::TechNode;
/// use gpusimpow_tech::wire::{Wire, WireClass};
///
/// let t = TechNode::planar(40)?;
/// let w = Wire::new(&t, WireClass::Global, 2.0); // 2 mm NoC link
/// assert!(w.capacitance().femtofarads() > 100.0);
/// # Ok::<(), gpusimpow_tech::node::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    class: WireClass,
    length_mm: f64,
    cap_per_mm: Capacitance,
    vdd: Voltage,
}

impl Wire {
    /// Creates a wire of `length_mm` millimetres on the given metal class.
    ///
    /// # Panics
    ///
    /// Panics if `length_mm` is negative or not finite.
    pub fn new(tech: &TechNode, class: WireClass, length_mm: f64) -> Self {
        assert!(
            length_mm.is_finite() && length_mm >= 0.0,
            "wire length must be non-negative and finite"
        );
        // Capacitance per mm is nearly node-independent (the dielectric
        // stack and aspect ratios co-evolve). Local wires at minimum pitch
        // have the highest C.
        let cap_ff_per_mm = match class {
            WireClass::Local => 300.0,
            WireClass::Intermediate => 250.0,
            WireClass::Global => 200.0,
        };
        Wire {
            class,
            length_mm,
            cap_per_mm: Capacitance::from_femtofarads(cap_ff_per_mm),
            vdd: tech.vdd(),
        }
    }

    /// Total wire capacitance.
    pub fn capacitance(&self) -> Capacitance {
        self.cap_per_mm * self.length_mm
    }

    /// Energy of one full-swing transition on this wire, including the
    /// repeaters CACTI would insert (which add roughly 40 % capacitance on
    /// long global runs).
    pub fn transition_energy(&self) -> Energy {
        let repeater_overhead = match self.class {
            WireClass::Local => 1.0,
            WireClass::Intermediate => 1.2,
            WireClass::Global => 1.4,
        };
        (self.capacitance() * repeater_overhead).switching_energy(self.vdd, self.vdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn capacitance_scales_linearly_with_length() {
        let w1 = Wire::new(&t40(), WireClass::Global, 1.0);
        let w2 = Wire::new(&t40(), WireClass::Global, 2.0);
        let ratio = w2.capacitance().farads() / w1.capacitance().farads();
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn local_wires_are_denser_than_global() {
        let local = Wire::new(&t40(), WireClass::Local, 1.0);
        let global = Wire::new(&t40(), WireClass::Global, 1.0);
        assert!(local.capacitance() > global.capacitance());
    }

    #[test]
    fn zero_length_wire_is_free() {
        let w = Wire::new(&t40(), WireClass::Local, 0.0);
        assert_eq!(w.transition_energy().joules(), 0.0);
    }

    #[test]
    #[should_panic(expected = "wire length")]
    fn negative_length_panics() {
        let _ = Wire::new(&t40(), WireClass::Local, -1.0);
    }

    #[test]
    fn global_transition_energy_plausible() {
        // ~200 fF/mm * 1.4 repeater * 1 V² => ~0.28 pJ/mm at 40 nm.
        let w = Wire::new(&t40(), WireClass::Global, 1.0);
        let pj = w.transition_energy().picojoules();
        assert!(pj > 0.1 && pj < 1.0, "unexpected energy {pj} pJ");
    }
}
