//! # gpusimpow-power — GPGPU-Pow, the GPU power model
//!
//! The heavily-modified-McPAT half of GPUSimPow (paper Fig. 1): a chip
//! representation built from the three-tier model (technology tier in
//! `gpusimpow-tech`, circuit tier in `gpusimpow-circuit`, and the
//! architecture tier here), combining analytical models for regular
//! components with empirical models for irregular ones:
//!
//! * [`components`] — one [`components::Component`] (area, leakage,
//!   energy map) per hardware block, each built in its own module:
//!   * [`components::wcu`] — warp control unit (WST, I-cache, decoder,
//!     instruction buffer, scoreboard, reconvergence stacks, schedulers);
//!   * [`components::regfile`] — banked register file with operand
//!     collectors and crossbar;
//!   * [`components::exec`] — execution units, anchored on the paper's
//!     measured 40 pJ/INT-op and 75 pJ/FP-op;
//!   * [`components::ldst`] — AGUs, coalescer (D-FF storage + FSM),
//!     SMEM/L1, constant cache;
//!   * [`components::uncore`] — NoC, L2, memory controllers, PCIe;
//! * [`dram`] — Micron-methodology GDDR5 device power;
//! * [`registry`] — event-priced [`registry::EnergyMap`]s connecting the
//!   simulator's typed event registry to the component models (and
//!   powering the per-cluster attribution in
//!   [`report::ScopedPowerReport`]);
//! * [`empirical`] — every measured/calibrated anchor with provenance;
//! * [`chip`] — the assembled [`chip::GpuChip`], folding area and static
//!   power over its components and producing per-kernel
//!   [`report::PowerReport`]s.
//!
//! # Examples
//!
//! ```
//! use gpusimpow_power::chip::GpuChip;
//! use gpusimpow_sim::GpuConfig;
//!
//! let chip = GpuChip::new(&GpuConfig::gt240())?;
//! println!("die area {:.0} mm², static {:.1} W",
//!          chip.area().mm2(), chip.static_power().watts());
//! # Ok::<(), gpusimpow_power::chip::ChipError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod components;
pub mod dram;
pub mod empirical;
pub mod registry;
pub mod report;

pub use chip::{ChipError, GpuChip};
pub use dram::{DramPower, DramPowerBreakdown};
pub use registry::{EnergyMap, EnergyTerm, BASE_MODEL_EVENTS, UNPRICED_EVENTS};
pub use report::{
    ChipBreakdown, ClusterPowerRow, CoreBreakdown, PowerReport, PowerSplit, ScopedPowerReport,
};
