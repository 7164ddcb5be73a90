//! # gpusimpow-circuit — the circuit tier
//!
//! The middle tier of the GPUSimPow power model (the analogue of McPAT's
//! circuit layer, which internally wraps CACTI 6.5). Architectural
//! components are mapped onto a small set of parametric circuit structures:
//!
//! * [`array::SramArray`] — CACTI-lite SRAM arrays (register file banks,
//!   shared memory, warp status table, reconvergence stacks, …);
//! * [`cache::Cache`] — tag + data array compositions (I-cache, constant
//!   caches, L1, L2);
//! * [`cam::TaggedTable`] — warp-ID-tagged associative tables
//!   (instruction buffer, scoreboard);
//! * [`crossbar::Crossbar`] — operand-collector, shared-memory and NoC
//!   crossbars;
//! * [`logic`] — priority encoders (warp schedulers), instruction
//!   decoders, D-flip-flop buffers (the coalescer tables) and FSMs.
//!
//! Every model evaluates to a [`costs::CircuitCosts`] bundle of area,
//! per-access energy and leakage, which the `gpusimpow-power` crate
//! multiplies with the activity factors reported by the performance
//! simulator.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod cache;
pub mod cam;
pub mod costs;
pub mod crossbar;
pub mod logic;

pub use array::{SramArray, SramSpec};
pub use cache::{Cache, CacheSpec};
pub use cam::TaggedTable;
pub use costs::CircuitCosts;
pub use crossbar::Crossbar;
pub use logic::{DffBuffer, Fsm, InstructionDecoder, PriorityEncoder};
