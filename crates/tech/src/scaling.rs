//! ITRS-style inter-node scaling helpers.
//!
//! The paper highlights that building on McPAT lets GPUSimPow "use the ITRS
//! roadmap scaling techniques" to evaluate an architecture at a different
//! manufacturing node. This module provides the scaling factors between two
//! [`TechNode`]s so that empirically measured energies (e.g. the 40 pJ /
//! 75 pJ per-instruction numbers measured on 40 nm silicon) can be carried
//! to other nodes.

use crate::node::TechNode;
use crate::units::{Energy, Voltage};

/// Factor on per-event *dynamic* energy when the supply moves from
/// `nominal` to `v` on the same silicon: `E ∝ C·V²`, capacitance fixed,
/// so the factor is `(V/V₀)²`.
///
/// # Panics
///
/// Panics if either voltage is non-positive.
pub fn voltage_dynamic_energy_factor(v: Voltage, nominal: Voltage) -> f64 {
    assert!(
        v.volts() > 0.0 && nominal.volts() > 0.0,
        "supply voltages must be positive"
    );
    (v.volts() / nominal.volts()).powi(2)
}

/// Factor on *leakage* power when the supply moves from `nominal` to `v`
/// on the same silicon.
///
/// Leakage power is `Ioff·Vdd`; the linear `Vdd` term combines with the
/// roughly quadratic growth of `Ioff` with `Vdd` (DIBL-driven barrier
/// lowering) into a cubic first-order model: `(V/V₀)³`. This is the
/// same shape McPAT uses for voltage-overdrive leakage estimates.
///
/// # Panics
///
/// Panics if either voltage is non-positive.
pub fn voltage_leakage_factor(v: Voltage, nominal: Voltage) -> f64 {
    assert!(
        v.volts() > 0.0 && nominal.volts() > 0.0,
        "supply voltages must be positive"
    );
    (v.volts() / nominal.volts()).powi(3)
}

/// Scaling factors from a source node to a target node.
///
/// # Examples
///
/// ```
/// use gpusimpow_tech::node::TechNode;
/// use gpusimpow_tech::scaling::NodeScaling;
///
/// let from = TechNode::planar(40)?;
/// let to = TechNode::planar(28)?;
/// let s = NodeScaling::between(&from, &to);
/// assert!(s.dynamic_energy_factor() < 1.0); // shrinking saves energy
/// # Ok::<(), gpusimpow_tech::node::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeScaling {
    dynamic_energy: f64,
    leakage_power: f64,
}

impl NodeScaling {
    /// Computes the factors that carry per-event energy and leakage power
    /// from `from` to `to`.
    ///
    /// * dynamic energy scales as `C·V²`; per-µm capacitance scales with
    ///   feature size (narrower devices), voltage with the node tables;
    /// * leakage power per device scales with `Ioff·W·Vdd`.
    pub fn between(from: &TechNode, to: &TechNode) -> Self {
        let f_from = from.feature_um();
        let f_to = to.feature_um();
        let cap_ratio =
            (to.gate_cap_per_um().farads() * f_to) / (from.gate_cap_per_um().farads() * f_from);
        let v_ratio = to.vdd().volts() / from.vdd().volts();
        let dynamic_energy = cap_ratio * v_ratio * v_ratio;

        let leak_from = from.hp_leak_power_per_um().watts() * f_from;
        let leak_to = to.hp_leak_power_per_um().watts() * f_to;
        let leakage_power = leak_to / leak_from;

        NodeScaling {
            dynamic_energy,
            leakage_power,
        }
    }

    /// Identity scaling (same node).
    pub fn identity() -> Self {
        NodeScaling {
            dynamic_energy: 1.0,
            leakage_power: 1.0,
        }
    }

    /// Factor applied to per-event dynamic energies.
    pub fn dynamic_energy_factor(&self) -> f64 {
        self.dynamic_energy
    }

    /// Factor applied to leakage powers.
    pub fn leakage_power_factor(&self) -> f64 {
        self.leakage_power
    }

    /// Convenience: scales an energy by the dynamic factor.
    pub fn scale_energy(&self, e: Energy) -> Energy {
        e * self.dynamic_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_between_same_nodes() {
        let t = TechNode::planar(40).unwrap();
        let s = NodeScaling::between(&t, &t);
        assert!((s.dynamic_energy_factor() - 1.0).abs() < 1e-12);
        assert!((s.leakage_power_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shrink_reduces_energy() {
        let from = TechNode::planar(40).unwrap();
        let to = TechNode::planar(22).unwrap();
        let s = NodeScaling::between(&from, &to);
        assert!(s.dynamic_energy_factor() < 1.0);
    }

    #[test]
    fn growing_node_is_inverse_of_shrinking() {
        let a = TechNode::planar(40).unwrap();
        let b = TechNode::planar(65).unwrap();
        let down = NodeScaling::between(&a, &b);
        let up = NodeScaling::between(&b, &a);
        assert!((down.dynamic_energy_factor() * up.dynamic_energy_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scale_energy_applies_dynamic_factor() {
        let from = TechNode::planar(40).unwrap();
        let to = TechNode::planar(28).unwrap();
        let s = NodeScaling::between(&from, &to);
        let e = Energy::from_picojoules(75.0);
        let scaled = s.scale_energy(e);
        assert!((scaled.picojoules() / 75.0 - s.dynamic_energy_factor()).abs() < 1e-12);
    }

    #[test]
    fn voltage_factors_follow_square_and_cube_laws() {
        let v0 = Voltage::new(1.0);
        let v = Voltage::new(0.8);
        assert!((voltage_dynamic_energy_factor(v, v0) - 0.64).abs() < 1e-12);
        assert!((voltage_leakage_factor(v, v0) - 0.512).abs() < 1e-12);
        // Identity at nominal.
        assert!((voltage_dynamic_energy_factor(v0, v0) - 1.0).abs() < 1e-12);
        assert!((voltage_leakage_factor(v0, v0) - 1.0).abs() < 1e-12);
        // Overdrive costs more than linearly.
        let hi = Voltage::new(1.1);
        assert!(voltage_dynamic_energy_factor(hi, v0) > 1.2);
        assert!(voltage_leakage_factor(hi, v0) > voltage_dynamic_energy_factor(hi, v0));
    }

    #[test]
    fn per_device_leakage_drops_but_less_than_area() {
        // Narrower devices leak less in absolute terms, but Ioff/µm grows;
        // leakage must shrink more slowly than area, which goes as F².
        let from = TechNode::planar(90).unwrap();
        let to = TechNode::planar(22).unwrap();
        let s = NodeScaling::between(&from, &to);
        assert!(s.leakage_power_factor() > (22.0f64 / 90.0).powi(2));
    }
}
