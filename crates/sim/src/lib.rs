//! # gpusimpow-sim — the cycle-level GPGPU performance simulator
//!
//! The stand-in for the modified GPGPU-Sim 3.1.1 used by GPUSimPow: a
//! from-scratch SIMT GPU simulator that executes kernels written in the
//! [`gpusimpow_isa`] instruction set and produces the per-component
//! activity counts ([`stats::ActivityStats`]) the power model consumes.
//!
//! The modelled architecture follows paper §III-C:
//!
//! * [`core`] — SIMT cores with a warp control unit (fetch/issue
//!   rotating-priority schedulers, instruction buffer, scoreboard or
//!   barrel blocking, per-warp reconvergence stacks), banked register
//!   file with operand collectors, SIMD INT/FP/SFU pipelines and a
//!   load/store unit (SAGUs, coalescer, shared-memory bank conflicts,
//!   constant cache, optional L1);
//! * [`noc`] — the core↔memory interconnect;
//! * `uncore` (crate-private) — the event-driven memory subsystem (NoC
//!   links, shared L2 bank, memory controllers, GDDR5 channels) advanced
//!   by a skip-ahead engine that is bit-identical to per-cycle ticking;
//! * [`gpu`] — the chip: global block scheduler (breadth-first over
//!   clusters, the Fig. 4 behaviour) and the cycle loop, which ticks
//!   only the cores that are due and skips provably inert cycles;
//! * [`dram`] — GDDR5 channel timing (FR-FCFS, activate/precharge/
//!   refresh accounting);
//! * [`mem`] — the device memory and host-side copy interface (PCIe
//!   traffic accounting);
//! * [`config`] — the architecture description with GT240 and GTX580
//!   presets (Table II).
//!
//! # Examples
//!
//! ```
//! use gpusimpow_sim::{config::GpuConfig, gpu::Gpu};
//! use gpusimpow_isa::{assemble, LaunchConfig};
//!
//! let mut gpu = Gpu::new(GpuConfig::gt240())?;
//! let k = assemble("spin", "
//!     mov r0, #10
//! @top:
//!     isub r0, r0, #1
//!     isetp.gt r1, r0, #0
//!     bra r1, @top, @end
//! @end:
//!     exit
//! ").expect("valid kernel");
//! let report = gpu.launch(&k, LaunchConfig::linear(1, 32))?;
//! assert!(report.stats.warp_instructions >= 30);
//! # Ok::<(), gpusimpow_sim::gpu::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod events;
pub(crate) mod func;
pub mod gpu;
pub mod ldst;
pub mod mem;
pub mod noc;
pub mod parallel;
pub mod replay;
pub mod simt_stack;
pub mod sink;
pub mod stats;
pub(crate) mod uncore;
pub(crate) mod wheel;

pub use config::{ConfigError, DramConfig, GpuConfig, L2Config, WarpSchedPolicy};
pub use core::{DecodedInstr, PredecodedKernel, MAX_LANES};
pub use events::{ActivityVector, ComponentId, EventKind, Scope};
pub use gpu::{Gpu, LaunchReport, ScopedActivity, SimError};
pub use mem::{DevicePtr, GpuMemory};
pub use parallel::SimPool;
pub use replay::ReplaySource;
pub use sink::{ActivitySink, ActivityWindow, RecordedLaunch, WindowRecorder};
pub use stats::ActivityStats;
