//! # gpusimpow-pm — power management and power tracing
//!
//! The power-management tier on top of the GPUSimPow model: it turns the
//! windowed activity stream of [`gpusimpow_sim::Gpu::launch_with_sink`]
//! into time-resolved power traces and lets DVFS policies act on them.
//!
//! The pipeline is
//!
//! ```text
//! Gpu::launch_with_sink ──ActivityWindow──▶ PowerTracer ──▶ PowerTrace
//!                                              │  ▲
//!                                    power_at  ▼  │ op index
//!                                            Governor
//! ```
//!
//! * [`tracer::PowerTracer`] prices each window with the
//!   [`gpusimpow_power::GpuChip`] model, estimates what the window would
//!   cost at every [`gpusimpow_tech::clockdomain::OperatingPoint`] of a
//!   [`gpusimpow_tech::clockdomain::DvfsTable`] (dynamic ∝ V²·f, leakage
//!   ∝ V³), and applies optional idle-cluster gating
//!   ([`tracer::ClusterGating`]);
//! * a [`governor::Governor`] picks the operating point per window —
//!   [`governor::Baseline`] (none), [`governor::Ondemand`]
//!   (utilization-driven) and [`governor::PowerCap`] (budget-driven) are
//!   provided;
//! * the result is a [`trace::PowerTrace`]: per-window, per-component
//!   power samples with CSV and Chrome-trace-JSON export.
//!
//! With the baseline governor and gating off, integrating the trace
//! reproduces the single-shot [`gpusimpow_power::PowerReport`] energy —
//! windowing refines time resolution without changing totals.
//!
//! Activity can be traced live ([`PowerTracer::stream`]) or recorded
//! once with [`gpusimpow_sim::WindowRecorder`] and replayed under many
//! policies ([`PowerTracer::replay`]), which is how the `power_trace`
//! section of `run_all_experiments` compares governors without
//! re-simulating.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod governor;
pub mod trace;
pub mod tracer;

pub use governor::{Baseline, ClusterOndemand, Governor, Ondemand, PowerCap, WindowContext};
pub use trace::{ComponentPowers, PowerSample, PowerTrace};
pub use tracer::{ClusterGating, PowerTracer, StreamingTracer};
