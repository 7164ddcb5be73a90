//! Crossbar interconnect model.
//!
//! Crossbars appear three times in the modelled GPU: connecting register
//! banks to operand collectors, connecting lanes to shared-memory banks
//! (address and data crossbars), and as the chip-level NoC between cores
//! and memory partitions. The model follows McPAT's matrix-crossbar
//! approach: each input drives a horizontal bus across all outputs, each
//! output multiplexes all inputs through a vertical bus.

use gpusimpow_tech::node::{DeviceType, TechNode};
use gpusimpow_tech::units::{Energy, Power};
use gpusimpow_tech::wire::{Wire, WireClass};

use crate::costs::CircuitCosts;

/// A matrix crossbar with `inputs × outputs` ports of `width_bits` each.
///
/// # Examples
///
/// ```
/// use gpusimpow_circuit::crossbar::Crossbar;
/// use gpusimpow_tech::node::TechNode;
///
/// // Shared-memory data crossbar: 32 lanes to 16 banks, 32-bit data.
/// let tech = TechNode::planar(40)?;
/// let xbar = Crossbar::new(&tech, 32, 16, 32, 0.05)?;
/// assert!(xbar.transfer_energy().picojoules() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossbar {
    costs: CircuitCosts,
}

impl Crossbar {
    /// Builds a crossbar.
    ///
    /// `port_pitch_mm` is the physical spacing between adjacent ports —
    /// small (≈0.05 mm) for intra-core crossbars, large (≈1–2 mm) for the
    /// chip-level NoC.
    ///
    /// # Errors
    ///
    /// Returns an error for zero ports/width or a non-positive pitch.
    pub fn new(
        tech: &TechNode,
        inputs: usize,
        outputs: usize,
        width_bits: usize,
        port_pitch_mm: f64,
    ) -> Result<Self, &'static str> {
        if inputs == 0 || outputs == 0 || width_bits == 0 {
            return Err("crossbar ports and width must be non-zero");
        }
        if port_pitch_mm <= 0.0 || !port_pitch_mm.is_finite() {
            return Err("crossbar port pitch must be positive");
        }
        let vdd = tech.vdd();
        let class = if port_pitch_mm >= 0.5 {
            WireClass::Global
        } else {
            WireClass::Intermediate
        };
        // One transfer drives a horizontal bus spanning all outputs and a
        // vertical bus spanning all inputs (the selected column).
        let h_wire = Wire::new(tech, class, outputs as f64 * port_pitch_mm);
        let v_wire = Wire::new(tech, class, inputs as f64 * port_pitch_mm);
        let min_width_um = tech.feature_um() * 1.5;
        // Pass-gate drain loading at every crosspoint on both buses.
        let crosspoint_cap = tech.drain_cap_per_um() * (min_width_um * 4.0);
        let per_bit_cap = h_wire.capacitance()
            + v_wire.capacitance()
            + crosspoint_cap * (inputs + outputs) as f64;
        // Half the bits toggle on an average transfer.
        let transfer_energy = (per_bit_cap * width_bits as f64).switching_energy(vdd, vdd) * 0.5;

        // Area: wire grid plus crosspoint switches.
        let grid_area_mm2 = (inputs as f64 * port_pitch_mm) * (outputs as f64 * port_pitch_mm)
            * 0.05 // the crossbar occupies a slice of the routed area
            + (inputs * outputs * width_bits) as f64 * tech.logic_gate_area().mm2() * 0.25;
        let area = gpusimpow_tech::units::Area::from_mm2(grid_area_mm2);

        // Leakage: crosspoint drivers.
        let drivers = (inputs * outputs * width_bits) as f64;
        let leak_per_driver =
            (tech.sub_leak_per_um(DeviceType::HighPerformance) * (min_width_um * 2.0)) * vdd;
        let leakage: Power = leak_per_driver * drivers * 0.25;

        Ok(Crossbar {
            costs: CircuitCosts::uniform(area, transfer_energy, leakage),
        })
    }

    /// Energy of moving one `width_bits` word through the crossbar.
    pub fn transfer_energy(&self) -> Energy {
        self.costs.read_energy
    }

    /// Aggregate bundle.
    pub fn costs(&self) -> CircuitCosts {
        self.costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn bigger_crossbars_cost_more() {
        let small = Crossbar::new(&t40(), 8, 8, 32, 0.05).unwrap();
        let big = Crossbar::new(&t40(), 32, 32, 32, 0.05).unwrap();
        assert!(big.transfer_energy() > small.transfer_energy());
        assert!(big.costs().area.mm2() > small.costs().area.mm2());
        assert!(big.costs().leakage > small.costs().leakage);
    }

    #[test]
    fn wider_ports_cost_proportionally_more() {
        let narrow = Crossbar::new(&t40(), 16, 16, 32, 0.05).unwrap();
        let wide = Crossbar::new(&t40(), 16, 16, 128, 0.05).unwrap();
        let ratio = wide.transfer_energy() / narrow.transfer_energy();
        assert!((ratio - 4.0).abs() < 0.01);
    }

    #[test]
    fn noc_scale_crossbar_uses_global_wires() {
        // A chip-level crossbar (mm pitch) must cost much more per transfer
        // than an intra-core one.
        let core = Crossbar::new(&t40(), 16, 16, 64, 0.05).unwrap();
        let noc = Crossbar::new(&t40(), 16, 16, 64, 1.0).unwrap();
        assert!(noc.transfer_energy().picojoules() > 5.0 * core.transfer_energy().picojoules());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let t = t40();
        assert!(Crossbar::new(&t, 0, 8, 32, 0.05).is_err());
        assert!(Crossbar::new(&t, 8, 0, 32, 0.05).is_err());
        assert!(Crossbar::new(&t, 8, 8, 0, 0.05).is_err());
        assert!(Crossbar::new(&t, 8, 8, 32, 0.0).is_err());
        assert!(Crossbar::new(&t, 8, 8, 32, -1.0).is_err());
    }

    #[test]
    fn transfer_energy_magnitude() {
        // A 32x16 shared-memory crossbar transfer should be O(0.1..10) pJ.
        let xbar = Crossbar::new(&t40(), 32, 16, 32, 0.05).unwrap();
        let pj = xbar.transfer_energy().picojoules();
        assert!(pj > 0.05 && pj < 20.0, "transfer {pj} pJ");
    }
}
