//! Empirical anchors of the power model, with provenance.
//!
//! GPUSimPow mixes analytical circuit models with empirically measured
//! constants (paper §III-B/§III-D). Every measured or calibrated number
//! in the model lives here, each with its source:
//!
//! * *measured* — published in the paper, obtained on the authors'
//!   GT240/GTX580 testbed;
//! * *calibrated* — free parameter of this reproduction's CACTI-lite
//!   circuit tier, anchored so that the GT240 chip representation
//!   reproduces the paper's Table IV (static power, area) and Table V
//!   (blackscholes component breakdown). This mirrors how McPAT anchors
//!   its analytic models to industrial data.
//!
//! All energies are quoted at the 40 nm node the paper measures on;
//! [`scaled`] carries them to other nodes via the ITRS tier.

use gpusimpow_tech::node::TechNode;
use gpusimpow_tech::scaling::NodeScaling;
use gpusimpow_tech::units::{Energy, Power};

/// The node the anchors were "measured" at (the paper's GPUs, 40 nm).
pub const ANCHOR_NODE_NM: u32 = 40;

/// Energy of one integer lane-operation. *Measured* (paper §III-D:
/// "integer instructions are using approximately 40 pJ").
pub const INT_OP: Energy = Energy::from_picojoules(40.0);

/// Energy of one floating-point lane-operation. *Measured* (paper
/// §III-D: "about 75 pJ per instruction"; NVIDIA reports 50 pJ \[28\]).
pub const FP_OP: Energy = Energy::from_picojoules(75.0);

/// Energy of one SFU lane-operation. *Calibrated* from the
/// piecewise-quadratic SFU of De Caro et al. (paper ref. \[21\]) scaled to
/// 40 nm — several arithmetic stages per transcendental.
pub const SFU_OP: Energy = Energy::from_picojoules(300.0);

/// Dynamic power of the global block scheduler while any work is on the
/// chip. *Measured* (paper Fig. 4: "this extra power (3.34 W) can be
/// attributed to the activation of the global scheduler").
pub const GLOBAL_SCHEDULER: Power = Power::new(3.34);

/// Additional dynamic power of an *active cluster* beyond its cores'
/// own power. *Measured*: Fig. 4's 0.692 W per-cluster step minus the
/// 0.199 W core base power below.
pub const CLUSTER_OVERHEAD: Power = Power::new(0.493);

/// Dynamic "base power" of one busy core: clocking and the per-core
/// fixed-function slices the paper cannot model structurally.
/// *Measured* (Table V: core base power 0.199 W).
pub const CORE_BASE: Power = Power::new(0.199);

/// Static power of the undifferentiated per-core transistors (ROPs,
/// video decode slices, and everything else with no public
/// documentation), per mm² of *undifferentiated core area* at 40 nm /
/// 350 K. *Calibrated* so a GT240 core shows Table V's 0.886 W.
pub const UNDIFF_STATIC_PER_MM2: Power = Power::from_milliwatts(155.5);

/// Undifferentiated area per core, in multiples of the *modelled* core
/// area. *Calibrated* so the GT240 die lands at Table IV's 105 mm².
pub const UNDIFF_AREA_FACTOR: f64 = 9.0;

/// Chip-level overhead area (pads, PLLs, display, ROP partitions) as a
/// fraction of the summed component area. *Calibrated* (Table IV).
pub const CHIP_AREA_OVERHEAD: f64 = 1.25;

// ---- per-component calibration multipliers --------------------------------
//
// Applied on top of the CACTI-lite circuit-tier outputs. A value of 1.0
// means the analytic model is used as-is.

/// Register file energy multiplier (operand-collector datapath wires are
/// longer than the bare-array model assumes). *Calibrated* to Table V's
/// 0.173 W RF dynamic on blackscholes.
pub const RF_ENERGY_SCALE: f64 = 2.63;

/// Register file leakage multiplier. *Calibrated* (Table V: 0.112 W).
pub const RF_LEAKAGE_SCALE: f64 = 9.7;

/// WCU energy multiplier. *Calibrated* (Table V: 0.089 W dynamic).
pub const WCU_ENERGY_SCALE: f64 = 28.0;

/// WCU leakage multiplier. *Calibrated* (Table V: 0.042 W).
pub const WCU_LEAKAGE_SCALE: f64 = 20.0;

/// LDST unit energy multiplier for the AGU/coalescer/cache path.
/// *Calibrated* (Table V: 0.014 W dynamic on the nearly-memory-free
/// blackscholes).
pub const LDST_ENERGY_SCALE: f64 = 17.0;

/// Separate multiplier for the banked SMEM array and its crossbars.
/// The blackscholes anchor never touches shared memory, so this path is
/// anchored to the §III-D-class microbenchmark magnitudes instead.
pub const LDST_SMEM_SCALE: f64 = 1.5;

/// LDST unit leakage multiplier. *Calibrated* (Table V: 0.234 W).
pub const LDST_LEAKAGE_SCALE: f64 = 31.6;

/// Execution-unit leakage per SIMD lane at 40 nm. *Calibrated*
/// (Table V: 0.0096 W for 8 INT + 8 FP + 2 SFU lanes).
pub const EXEC_LEAKAGE_PER_LANE: Power = Power::from_milliwatts(0.53);

/// NoC energy multiplier. *Calibrated* (Table V: 1.229 W chip dynamic).
pub const NOC_ENERGY_SCALE: f64 = 4.1;

/// NoC leakage multiplier. *Calibrated* (Table V: 1.484 W chip static).
pub const NOC_LEAKAGE_SCALE: f64 = 1.0;

/// NoC static power per attached port (routers, link drivers kept
/// powered). *Calibrated* (Table V: 1.484 W for the GT240's 15 ports).
pub const NOC_STATIC_PER_PORT: Power = Power::from_milliwatts(99.0);

/// Share of the Fig. 4 cluster overhead the *chip model* attributes as
/// cluster-level dynamic power; the rest of the measured 0.493 W step is
/// board-level (VRM, DRAM co-activation) and appears only in the
/// hardware emulator. *Calibrated* (Table V cores row).
pub const MODEL_CLUSTER_OVERHEAD: Power = Power::from_milliwatts(150.0);

/// Memory-controller energy per byte crossing the pins (controller +
/// PHY + I/O). *Calibrated* (Table V: 1.753 W MC dynamic).
pub const MC_ENERGY_PER_BYTE: Energy = Energy::from_picojoules(90.0);

/// Memory-controller static power per channel. *Calibrated*
/// (Table V: 0.497 W for the GT240's interface).
pub const MC_STATIC_PER_CHANNEL: Power = Power::from_milliwatts(248.0);

/// PCIe controller static power (PHY always-on lanes). *Calibrated*
/// (Table V: 0.539 W).
pub const PCIE_STATIC: Power = Power::from_milliwatts(539.0);

/// PCIe dynamic power while the link/controller is active during kernel
/// execution (DMA engines, replay buffers). *Calibrated*
/// (Table V: 0.992 W).
pub const PCIE_ACTIVE: Power = Power::from_milliwatts(992.0);

/// PCIe energy per byte, amortized into the kernel window (bulk
/// transfers happen outside the measured window, so only a small
/// residual is attributed here). *Calibrated*.
pub const PCIE_ENERGY_PER_BYTE: Energy = Energy::from_picojoules(2.0);

// ---- GDDR5 device power (Micron power-calculation methodology) -----------
//
// Derived from datasheet-style IDD values (paper refs. [26], [27]) for a
// 1.5 V GDDR5 device; the per-channel model multiplies by the channel
// count.

/// Background (standby, banks precharged, clocks running) power per
/// channel — two GDDR5 devices per 32-bit channel with their clocks
/// running. Dominates light-traffic kernels, which is why the paper's
/// blackscholes DRAM figure is 4.3 W despite minimal memory activity.
pub const DRAM_BACKGROUND_PER_CHANNEL: Power = Power::from_milliwatts(1500.0);

/// Energy of one activate+precharge pair.
pub const DRAM_ACTIVATE_ENERGY: Energy = Energy::from_nanojoules(2.5);

/// Energy of one 32-byte read burst (core + I/O).
pub const DRAM_READ_BURST_ENERGY: Energy = Energy::from_nanojoules(1.1);

/// Energy of one 32-byte write burst (core + ODT).
pub const DRAM_WRITE_BURST_ENERGY: Energy = Energy::from_nanojoules(1.2);

/// Energy of one all-bank refresh.
pub const DRAM_REFRESH_ENERGY: Energy = Energy::from_nanojoules(60.0);

/// Termination power while the data bus is driven, per channel.
pub const DRAM_TERMINATION_ACTIVE: Power = Power::from_milliwatts(400.0);

/// Scales an anchored energy from the 40 nm anchor node to `target`.
pub fn scaled(e: Energy, target: &TechNode) -> Energy {
    if target.feature_nm() == ANCHOR_NODE_NM {
        return e;
    }
    let anchor = TechNode::planar(ANCHOR_NODE_NM).expect("anchor node exists");
    NodeScaling::between(&anchor, target).scale_energy(e)
}

/// Scales an anchored leakage power to `target`, including its junction
/// temperature (the anchors are quoted at 350 K; the [`NodeScaling`]
/// leakage factor compares temperature-corrected currents, so a hotter
/// target node leaks proportionally more).
pub fn scaled_leakage(p: Power, target: &TechNode) -> Power {
    let anchor = TechNode::planar(ANCHOR_NODE_NM).expect("anchor node exists");
    p * NodeScaling::between(&anchor, target).leakage_power_factor()
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;

    #[test]
    fn paper_measured_anchors() {
        assert_eq!(INT_OP.picojoules(), 40.0);
        assert_eq!(FP_OP.picojoules(), 75.0);
        assert_eq!(GLOBAL_SCHEDULER.watts(), 3.34);
        // Cluster step of Fig. 4 = overhead + core base.
        let step = CLUSTER_OVERHEAD + CORE_BASE;
        assert!((step.watts() - 0.692).abs() < 1e-9);
    }

    #[test]
    fn scaling_to_smaller_node_reduces_energy() {
        let t28 = TechNode::planar(28).unwrap();
        assert!(scaled(FP_OP, &t28) < FP_OP);
        let same = TechNode::planar(40).unwrap();
        assert_eq!(scaled(FP_OP, &same), FP_OP);
    }

    #[test]
    fn leakage_scaling_is_consistent() {
        let t28 = TechNode::planar(28).unwrap();
        let p = scaled_leakage(Power::new(1.0), &t28);
        assert!(p.watts() > 0.0 && p.watts() != 1.0);
    }
}
