//! Process-node parameter sets (the "technology tier" of the model).
//!
//! McPAT embeds ITRS roadmap data so that a single architecture description
//! can be evaluated at different manufacturing nodes. We reproduce that idea
//! with a table of planar bulk-CMOS nodes from 90 nm down to 22 nm. Values
//! are representative of ITRS high-performance (HP) and low-standby-power
//! (LSTP) device classes; they are *anchors* for relative scaling, not
//! foundry data.

use std::fmt;

use crate::units::{Area, Capacitance, Current, Voltage};

/// Transistor flavour used for a circuit block.
///
/// High-performance devices switch fast but leak heavily; low-standby-power
/// devices are used for large SRAM arrays where leakage dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// ITRS high-performance logic transistor.
    HighPerformance,
    /// ITRS low-standby-power transistor.
    LowStandbyPower,
}

/// Errors produced when constructing technology parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TechError {
    /// The requested feature size has no entry in the built-in ITRS table.
    UnknownNode(u32),
    /// A parameter override was out of its physically meaningful range.
    InvalidParameter(&'static str),
}

impl fmt::Display for TechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechError::UnknownNode(nm) => {
                write!(f, "no built-in technology data for {nm} nm node")
            }
            TechError::InvalidParameter(what) => {
                write!(f, "invalid technology parameter: {what}")
            }
        }
    }
}

impl std::error::Error for TechError {}

/// A complete process-node description.
///
/// All downstream circuit models derive their capacitances, leakage currents
/// and cell areas from this structure, so evaluating a chip at a different
/// node is a one-line change (see [`TechNode::planar`]).
///
/// # Examples
///
/// ```
/// use gpusimpow_tech::node::TechNode;
///
/// let t40 = TechNode::planar(40)?;
/// assert_eq!(t40.feature_nm(), 40);
/// assert!(t40.vdd().volts() > 0.8 && t40.vdd().volts() < 1.2);
/// # Ok::<(), gpusimpow_tech::node::TechError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TechNode {
    feature_nm: u32,
    vdd: Voltage,
    /// Gate capacitance per µm of transistor width.
    gate_cap_per_um: Capacitance,
    /// Drain (diffusion) capacitance per µm of transistor width.
    drain_cap_per_um: Capacitance,
    /// Subthreshold leakage per µm of device width, HP device, at 350 K.
    sub_leak_hp_per_um: Current,
    /// Subthreshold leakage per µm of device width, LSTP device, at 350 K.
    sub_leak_lstp_per_um: Current,
    /// Gate-oxide leakage per µm of device width (HP device).
    gate_leak_per_um: Current,
    /// 6T SRAM cell area in units of F² (feature-size squared).
    sram_cell_f2: f64,
    /// Logic-gate (NAND2-equivalent) area in F².
    logic_gate_f2: f64,
    /// Temperature in kelvin used for leakage evaluation.
    temperature_k: f64,
}

/// Built-in ITRS-style node table:
/// `(nm, vdd, cg fF/µm, cd fF/µm, Ioff-HP µA/µm, Ioff-LSTP nA/µm, Igate nA/µm)`.
///
/// The trend data follows the shape of the ITRS 2008/2010 tables used by
/// McPAT 0.8: Vdd falls slowly, per-µm capacitance is roughly flat, HP
/// subthreshold leakage grows as channels shorten.
const NODE_TABLE: &[(u32, f64, f64, f64, f64, f64, f64)] = &[
    (90, 1.20, 1.00, 0.70, 0.060, 25.0, 30.0),
    (65, 1.10, 0.95, 0.65, 0.110, 40.0, 90.0),
    (45, 1.00, 0.90, 0.62, 0.170, 60.0, 140.0),
    (40, 1.00, 0.88, 0.60, 0.190, 70.0, 150.0),
    (32, 0.90, 0.85, 0.58, 0.220, 90.0, 160.0),
    (28, 0.90, 0.82, 0.55, 0.240, 100.0, 170.0),
    (22, 0.80, 0.80, 0.52, 0.280, 120.0, 180.0),
];

impl TechNode {
    /// Looks up a planar bulk-CMOS node from the built-in ITRS-style table.
    ///
    /// Supported nodes: 90, 65, 45, 40, 32, 28 and 22 nm.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] for any other feature size.
    pub fn planar(feature_nm: u32) -> Result<Self, TechError> {
        let row = NODE_TABLE
            .iter()
            .find(|row| row.0 == feature_nm)
            .ok_or(TechError::UnknownNode(feature_nm))?;
        let (nm, vdd, cg, cd, ioff_hp, ioff_lstp_na, igate_na) = *row;
        Ok(TechNode {
            feature_nm: nm,
            vdd: Voltage::new(vdd),
            gate_cap_per_um: Capacitance::from_femtofarads(cg),
            drain_cap_per_um: Capacitance::from_femtofarads(cd),
            sub_leak_hp_per_um: Current::new(ioff_hp * 1e-6),
            sub_leak_lstp_per_um: Current::new(ioff_lstp_na * 1e-9),
            gate_leak_per_um: Current::new(igate_na * 1e-9),
            sram_cell_f2: 146.0,
            logic_gate_f2: 240.0,
            temperature_k: 350.0,
        })
    }

    /// Feature size in nanometres.
    pub fn feature_nm(&self) -> u32 {
        self.feature_nm
    }

    /// Feature size in micrometres.
    pub fn feature_um(&self) -> f64 {
        self.feature_nm as f64 * 1e-3
    }

    /// Nominal supply voltage.
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// Returns a copy evaluated at a different junction temperature.
    ///
    /// Subthreshold leakage roughly doubles every 25 K; the circuit tier
    /// applies [`TechNode::leakage_temperature_factor`].
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] if `kelvin` is outside
    /// `[233, 423]` (-40 °C to 150 °C).
    pub fn with_temperature(mut self, kelvin: f64) -> Result<Self, TechError> {
        if !(233.0..=423.0).contains(&kelvin) {
            return Err(TechError::InvalidParameter(
                "temperature outside [233, 423] K",
            ));
        }
        self.temperature_k = kelvin;
        Ok(self)
    }

    /// Gate capacitance per micrometre of transistor width.
    pub fn gate_cap_per_um(&self) -> Capacitance {
        self.gate_cap_per_um
    }

    /// Drain/diffusion capacitance per micrometre of transistor width.
    pub fn drain_cap_per_um(&self) -> Capacitance {
        self.drain_cap_per_um
    }

    /// Subthreshold leakage current per µm of width for the given device
    /// class, already corrected for the node temperature.
    pub fn sub_leak_per_um(&self, device: DeviceType) -> Current {
        let base = match device {
            DeviceType::HighPerformance => self.sub_leak_hp_per_um,
            DeviceType::LowStandbyPower => self.sub_leak_lstp_per_um,
        };
        base * self.leakage_temperature_factor()
    }

    /// Gate-oxide leakage per µm of width (temperature-insensitive).
    pub fn gate_leak_per_um(&self) -> Current {
        self.gate_leak_per_um
    }

    /// Multiplier applied to 350 K subthreshold leakage for the configured
    /// temperature (doubles every 25 K, the usual rule of thumb).
    pub fn leakage_temperature_factor(&self) -> f64 {
        2f64.powf((self.temperature_k - 350.0) / 25.0)
    }

    /// Area of a 6T SRAM cell at this node.
    pub fn sram_cell_area(&self) -> Area {
        let f_um = self.feature_um();
        Area::from_um2(self.sram_cell_f2 * f_um * f_um)
    }

    /// Area of a NAND2-equivalent logic gate at this node.
    pub fn logic_gate_area(&self) -> Area {
        let f_um = self.feature_um();
        Area::from_um2(self.logic_gate_f2 * f_um * f_um)
    }

    /// Capacitance of a minimum-size inverter input (2 µm-equivalent of
    /// gate width: NMOS + 2× PMOS, scaled to the node's feature size).
    pub fn min_inverter_cap(&self) -> Capacitance {
        // Minimum device width tracks the feature size; a min inverter is
        // roughly 3 minimum widths of gate (Wn + 2Wn for the PMOS).
        Capacitance::from_femtofarads(self.gate_cap_per_um.femtofarads() * 3.0 * self.feature_um())
    }

    /// Leakage power of one µm of HP transistor width at Vdd.
    pub fn hp_leak_power_per_um(&self) -> crate::units::Power {
        self.sub_leak_per_um(DeviceType::HighPerformance) * self.vdd
            + self.gate_leak_per_um * self.vdd
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nm planar CMOS, Vdd = {}, T = {} K",
            self.feature_nm, self.vdd, self.temperature_k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_supported_nodes_construct() {
        for &(nm, ..) in NODE_TABLE {
            let t = TechNode::planar(nm).expect("table node must construct");
            assert_eq!(t.feature_nm(), nm);
        }
    }

    #[test]
    fn unknown_node_is_an_error() {
        assert_eq!(TechNode::planar(37), Err(TechError::UnknownNode(37)));
    }

    #[test]
    fn vdd_decreases_with_shrinking_node() {
        let t90 = TechNode::planar(90).unwrap();
        let t22 = TechNode::planar(22).unwrap();
        assert!(t90.vdd() > t22.vdd());
    }

    #[test]
    fn hp_leaks_more_than_lstp() {
        let t = TechNode::planar(40).unwrap();
        assert!(
            t.sub_leak_per_um(DeviceType::HighPerformance)
                > t.sub_leak_per_um(DeviceType::LowStandbyPower)
        );
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let cold = TechNode::planar(40)
            .unwrap()
            .with_temperature(300.0)
            .unwrap();
        let hot = TechNode::planar(40)
            .unwrap()
            .with_temperature(400.0)
            .unwrap();
        assert!(
            hot.sub_leak_per_um(DeviceType::HighPerformance)
                > cold.sub_leak_per_um(DeviceType::HighPerformance)
        );
        // Doubling every 25 K: 100 K apart => 16x.
        let ratio = hot.sub_leak_per_um(DeviceType::HighPerformance)
            / cold.sub_leak_per_um(DeviceType::HighPerformance);
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn sram_cell_shrinks_quadratically() {
        let t90 = TechNode::planar(90).unwrap();
        let t45 = TechNode::planar(45).unwrap();
        let ratio = t90.sram_cell_area() / t45.sram_cell_area();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_override_validates() {
        let t = TechNode::planar(40).unwrap();
        assert!(t.clone().with_temperature(300.0).is_ok());
        assert!(t.clone().with_temperature(100.0).is_err());
        assert!(t.with_temperature(500.0).is_err());
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        let msg = TechError::UnknownNode(37).to_string();
        assert!(msg.starts_with("no built-in"));
    }
}
