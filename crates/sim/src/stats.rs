//! Activity statistics — the interface between the performance simulator
//! and the power model.
//!
//! GPUSimPow modifies GPGPU-Sim "to produce access counts and other
//! activity information for all parts of the simulated architecture"
//! (paper §III-B). [`ActivityStats`] is that information: one counter per
//! energy-bearing event. The power model multiplies each counter by a
//! per-event energy and divides by runtime to obtain dynamic power.
//!
//! Since the component-event registry ([`crate::events`]) became the
//! accounting spine, this struct is a thin **compatibility view**: its
//! counter fields, [`ActivityStats::delta_from`] and [`AddAssign`] are
//! generated from the same [`crate::for_each_event!`] table that backs
//! [`ActivityVector`], so the two representations cannot drift apart.
//! Only the peak-concurrency fields (`peak_cores_busy`,
//! `peak_clusters_busy`) live outside the registry — they are window
//! maxima, not summable event counts.

use std::fmt;
use std::ops::AddAssign;

use crate::events::{ActivityVector, EventKind};

macro_rules! define_stats_view {
    ( $( ($variant:ident, $field:ident, $component:ident, $scope:ident, $doc:literal) ),* $(,)? ) => {
        /// Per-kernel activity counters, aggregated over the whole chip.
        ///
        /// This is a passive record: all fields are public and the
        /// struct is `Default`-constructed to zero. Counters are event
        /// counts unless the name says otherwise. The counter fields
        /// are generated from the component-event registry
        /// ([`crate::for_each_event!`]) in registry order; see
        /// [`EventKind`] for each counter's component and scope.
        #[derive(Debug, Clone, Default, PartialEq)]
        #[non_exhaustive]
        pub struct ActivityStats {
            $( #[doc = $doc] pub $field: u64, )*
            /// Highest number of cores concurrently busy at any cycle.
            pub peak_cores_busy: usize,
            /// Highest number of clusters concurrently busy at any cycle.
            pub peak_clusters_busy: usize,
        }

        impl ActivityStats {
            /// A zeroed counter set.
            pub fn new() -> Self {
                Self::default()
            }

            /// Builds the compatibility view from a dense registry
            /// vector. The peak fields are not registry events and are
            /// left zero for the caller to fill.
            pub fn from_vector(vector: &ActivityVector) -> Self {
                let mut stats = Self::default();
                $( stats.$field = vector[EventKind::$variant]; )*
                stats
            }

            /// Converts the counter fields back into a dense registry
            /// vector (the peak fields, being maxima, have no slot).
            pub fn to_vector(&self) -> ActivityVector {
                let mut vector = ActivityVector::new();
                $( vector[EventKind::$variant] = self.$field; )*
                vector
            }

            /// Counter-wise difference `self − earlier` between two cumulative
            /// snapshots of the same launch.
            ///
            /// This is the primitive behind windowed power sampling: the
            /// simulator snapshots its running counters every N cycles and the
            /// delta of consecutive snapshots is the activity of that window, so
            /// the [`AddAssign`]-sum of all window deltas reproduces the
            /// whole-launch aggregate exactly.
            ///
            /// The peak-concurrency fields (`peak_cores_busy`,
            /// `peak_clusters_busy`) are maxima, not sums, and cannot be
            /// differenced; they are zeroed here and the sampling loop fills
            /// them from its own per-window trackers.
            ///
            /// # Panics
            ///
            /// Panics if any counter in `earlier` exceeds the corresponding
            /// counter in `self` (the snapshots are out of order).
            pub fn delta_from(&self, earlier: &ActivityStats) -> ActivityStats {
                let mut delta = ActivityStats::new();
                $(
                    delta.$field = self.$field.checked_sub(earlier.$field)
                        .expect("delta_from: `earlier` is not an earlier snapshot");
                )*
                delta
            }
        }

        impl AddAssign<&ActivityStats> for ActivityStats {
            fn add_assign(&mut self, rhs: &ActivityStats) {
                $( self.$field += rhs.$field; )*
                self.peak_cores_busy = self.peak_cores_busy.max(rhs.peak_cores_busy);
                self.peak_clusters_busy = self.peak_clusters_busy.max(rhs.peak_clusters_busy);
            }
        }
    };
}
crate::for_each_event!(define_stats_view);

impl ActivityStats {
    /// Warp-level instructions per shader cycle (chip-wide).
    pub fn ipc(&self) -> f64 {
        if self.shader_cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.shader_cycles as f64
        }
    }

    /// L1 hit rate in `[0, 1]` (1.0 when there were no accesses).
    pub fn l1_hit_rate(&self) -> f64 {
        hit_rate(self.l1_accesses, self.l1_misses)
    }

    /// L2 hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        hit_rate(self.l2_accesses, self.l2_misses)
    }

    /// DRAM row-buffer hit rate in `[0, 1]` (reads+writes that did not
    /// need an activate).
    pub fn dram_row_hit_rate(&self) -> f64 {
        let accesses = self.dram_read_bursts + self.dram_write_bursts;
        hit_rate(accesses, self.dram_activates.min(accesses))
    }

    /// Fraction of branches that diverged.
    pub fn divergence_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.divergent_branches as f64 / self.branches as f64
        }
    }
}

fn hit_rate(accesses: u64, misses: u64) -> f64 {
    if accesses == 0 {
        1.0
    } else {
        1.0 - misses as f64 / accesses as f64
    }
}

impl fmt::Display for ActivityStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles: {} shader / {} uncore / {} dram, IPC {:.2}",
            self.shader_cycles,
            self.uncore_cycles,
            self.dram_cycles,
            self.ipc()
        )?;
        writeln!(
            f,
            "instructions: {} warp ({} int, {} fp, {} sfu, {} mem), {} thread",
            self.warp_instructions,
            self.int_instructions,
            self.fp_instructions,
            self.sfu_instructions,
            self.mem_instructions,
            self.thread_instructions
        )?;
        writeln!(
            f,
            "memory: {} coalesced reqs from {} addrs, L1 {:.1}% hit, L2 {:.1}% hit",
            self.coalescer_outputs,
            self.coalescer_inputs,
            self.l1_hit_rate() * 100.0,
            self.l2_hit_rate() * 100.0
        )?;
        write!(
            f,
            "dram: {} activates, {} rd / {} wr bursts, {} refreshes",
            self.dram_activates, self.dram_read_bursts, self.dram_write_bursts, self.dram_refreshes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = ActivityStats::new();
        assert_eq!(s.shader_cycles, 0);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn hit_rates() {
        let mut s = ActivityStats::new();
        s.l1_accesses = 100;
        s.l1_misses = 25;
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
        // No accesses counts as perfect hit rate, not NaN.
        assert_eq!(s.l2_hit_rate(), 1.0);
    }

    #[test]
    fn ipc_computation() {
        let mut s = ActivityStats::new();
        s.warp_instructions = 3000;
        s.shader_cycles = 1000;
        assert!((s.ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn accumulation_sums_counters_and_maxes_peaks() {
        let mut a = ActivityStats::new();
        a.int_instructions = 10;
        a.peak_cores_busy = 4;
        let mut b = ActivityStats::new();
        b.int_instructions = 5;
        b.peak_cores_busy = 7;
        a += &b;
        assert_eq!(a.int_instructions, 15);
        assert_eq!(a.peak_cores_busy, 7);
    }

    #[test]
    fn delta_reverses_accumulation() {
        let mut earlier = ActivityStats::new();
        earlier.int_lane_ops = 100;
        earlier.shader_cycles = 2048;
        earlier.peak_cores_busy = 9;
        let mut later = earlier.clone();
        later.int_lane_ops = 175;
        later.shader_cycles = 4096;
        later.l2_misses = 3;
        let delta = later.delta_from(&earlier);
        assert_eq!(delta.int_lane_ops, 75);
        assert_eq!(delta.shader_cycles, 2048);
        assert_eq!(delta.l2_misses, 3);
        // Peaks are maxima and are left for the sampler to fill in.
        assert_eq!(delta.peak_cores_busy, 0);
        let mut sum = earlier.clone();
        sum += &delta;
        assert_eq!(sum.int_lane_ops, later.int_lane_ops);
        assert_eq!(sum.shader_cycles, later.shader_cycles);
    }

    #[test]
    #[should_panic(expected = "earlier snapshot")]
    fn delta_from_rejects_reordered_snapshots() {
        let mut earlier = ActivityStats::new();
        earlier.decodes = 10;
        let later = ActivityStats::new();
        let _ = later.delta_from(&earlier);
    }

    #[test]
    fn divergence_rate() {
        let mut s = ActivityStats::new();
        assert_eq!(s.divergence_rate(), 0.0);
        s.branches = 8;
        s.divergent_branches = 2;
        assert!((s.divergence_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let s = ActivityStats::new();
        let text = s.to_string();
        assert!(text.contains("IPC"));
        assert!(text.contains("dram"));
    }

    #[test]
    fn vector_roundtrip_covers_every_field() {
        // Give every registry slot a distinct value; a dropped or
        // swapped field in the compatibility view breaks the roundtrip.
        let mut vector = ActivityVector::new();
        for (i, &event) in EventKind::ALL.iter().enumerate() {
            vector[event] = (i as u64 + 1) * 3;
        }
        let stats = ActivityStats::from_vector(&vector);
        assert_eq!(stats.to_vector(), vector);
        assert_eq!(stats.shader_cycles, vector[EventKind::ShaderCycles]);
        assert_eq!(stats.ctas_dispatched, vector[EventKind::CtasDispatched]);
    }
}
