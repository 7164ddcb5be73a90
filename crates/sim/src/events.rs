//! The typed component-event registry — the single declarative table
//! behind every activity counter in the workspace.
//!
//! GPUSimPow's contract (paper §III-B) is "access counts for all parts
//! of the simulated architecture" flowing into a per-component energy
//! model. Before this module that contract lived in four
//! hand-synchronised places: the public fields of
//! [`ActivityStats`](crate::ActivityStats), its hand-written
//! `delta_from`/`AddAssign` field lists, the per-component power
//! modules, and the tracer/report renderers. The registry replaces all
//! of those lists with **one** declarative table,
//! [`for_each_event!`](crate::for_each_event):
//!
//! * [`EventKind`] — one variant per energy-bearing event, in a fixed
//!   dense order;
//! * [`ComponentId`] — the architectural component each event belongs
//!   to (mirrors the Table V breakdown rows);
//! * [`Scope`] — whether the event is recorded per-core (and therefore
//!   aggregable per cluster `c` or per core `(c,k)` on demand) or only
//!   chip-wide;
//! * [`ActivityVector`] — a dense `[u64; EventKind::COUNT]` indexed by
//!   `EventKind`, the storage every simulator hot path increments.
//!
//! Downstream crates re-invoke the same table (it is `#[macro_export]`,
//! usable as `gpusimpow_sim::for_each_event!`) to generate their own
//! per-event structures — the power model builds its energy maps from
//! it and `ActivityStats` itself is generated from it as a thin
//! compatibility view — so adding an event is a one-line change that
//! the exhaustiveness tests then force every layer to acknowledge.

use std::fmt;
use std::ops::{AddAssign, Index, IndexMut};

/// Invokes the callback macro `$cb` with the complete component-event
/// table, one `(Variant, field_name, ComponentId, Scope, "doc")` tuple
/// per event, in registry (= dense-index) order.
///
/// The callback receives the table as
/// `$cb! { (Variant, field, Component, Scope, "doc"), ... }` and is
/// typically a local `macro_rules!` that pattern-matches
/// `( $( ($variant:ident, $field:ident, $component:ident,
/// $scope:ident, $doc:literal) ),* $(,)? )`.
///
/// This is the **only** place events are listed; everything else —
/// [`EventKind`], [`ActivityVector`], the `ActivityStats` compatibility
/// view and its `delta_from`/`AddAssign`, and the power model's energy
/// maps — is generated from it.
#[macro_export]
macro_rules! for_each_event {
    ($cb:ident) => {
        $cb! {
            // --- time ----------------------------------------------------
            (ShaderCycles, shader_cycles, Timebase, Chip,
             "Shader-clock cycles from launch to completion."),
            (UncoreCycles, uncore_cycles, Timebase, Chip,
             "Uncore-clock cycles elapsed."),
            (DramCycles, dram_cycles, Timebase, Chip,
             "DRAM command-clock cycles elapsed."),
            (CoreBusyCycles, core_busy_cycles, Timebase, Chip,
             "Sum over cores of cycles with at least one resident CTA."),
            (ClusterBusyCycles, cluster_busy_cycles, Timebase, Chip,
             "Sum over clusters of cycles with at least one busy core."),
            // --- warp control unit ---------------------------------------
            (IcacheAccesses, icache_accesses, WarpControlUnit, Core,
             "Instruction-cache accesses (fetches)."),
            (IcacheMisses, icache_misses, WarpControlUnit, Core,
             "Instruction-cache misses."),
            (Decodes, decodes, WarpControlUnit, Core,
             "Instructions decoded."),
            (IbufferWrites, ibuffer_writes, WarpControlUnit, Core,
             "Instruction-buffer fills."),
            (IbufferReads, ibuffer_reads, WarpControlUnit, Core,
             "Instruction-buffer drains (issues)."),
            (WstReads, wst_reads, WarpControlUnit, Core,
             "Warp status table reads (fetch-stage scheduling)."),
            (WstWrites, wst_writes, WarpControlUnit, Core,
             "Warp status table updates."),
            (FetchSchedulerSelects, fetch_scheduler_selects, WarpControlUnit, Core,
             "Fetch-scheduler selections (priority-encoder activations)."),
            (IssueSchedulerSelects, issue_scheduler_selects, WarpControlUnit, Core,
             "Issue-scheduler selections."),
            (ScoreboardReads, scoreboard_reads, WarpControlUnit, Core,
             "Scoreboard lookups (dependency checks)."),
            (ScoreboardWrites, scoreboard_writes, WarpControlUnit, Core,
             "Scoreboard set/clear updates."),
            (SimtStackReads, simt_stack_reads, WarpControlUnit, Core,
             "Reconvergence-stack token reads."),
            (SimtStackPushes, simt_stack_pushes, WarpControlUnit, Core,
             "Reconvergence-stack pushes."),
            (SimtStackPops, simt_stack_pops, WarpControlUnit, Core,
             "Reconvergence-stack pops."),
            (Branches, branches, WarpControlUnit, Core,
             "Branch instructions executed (warp granularity)."),
            (DivergentBranches, divergent_branches, WarpControlUnit, Core,
             "Branches that actually diverged."),
            (BarrierWaits, barrier_waits, WarpControlUnit, Core,
             "Warp-level barrier arrivals."),
            // --- register file -------------------------------------------
            (RfBankReads, rf_bank_reads, RegisterFile, Core,
             "Register-bank read accesses."),
            (RfBankWrites, rf_bank_writes, RegisterFile, Core,
             "Register-bank write accesses."),
            (RfBankConflicts, rf_bank_conflicts, RegisterFile, Core,
             "Reads serialized because two operands hit the same bank."),
            (CollectorAllocations, collector_allocations, RegisterFile, Core,
             "Operand-collector allocations."),
            (CollectorXbarTransfers, collector_xbar_transfers, RegisterFile, Core,
             "Operand crossbar transfers (bank → collector)."),
            // --- execution units -----------------------------------------
            (IntInstructions, int_instructions, ExecUnits, Core,
             "Integer warp instructions issued."),
            (FpInstructions, fp_instructions, ExecUnits, Core,
             "Floating-point warp instructions issued."),
            (SfuInstructions, sfu_instructions, ExecUnits, Core,
             "SFU warp instructions issued."),
            (IntLaneOps, int_lane_ops, ExecUnits, Core,
             "Integer lane-operations (thread granularity, drives the 40 pJ/op empirical model)."),
            (FpLaneOps, fp_lane_ops, ExecUnits, Core,
             "FP lane-operations (75 pJ/op)."),
            (SfuLaneOps, sfu_lane_ops, ExecUnits, Core,
             "SFU lane-operations."),
            (WarpInstructions, warp_instructions, ExecUnits, Core,
             "Total warp instructions of any class issued."),
            (ThreadInstructions, thread_instructions, ExecUnits, Core,
             "Total thread instructions committed."),
            // --- load/store unit -----------------------------------------
            (MemInstructions, mem_instructions, LoadStoreUnit, Core,
             "Memory warp instructions issued."),
            (AguOps, agu_ops, LoadStoreUnit, Core,
             "Sub-AGU activations (each produces up to 8 addresses)."),
            (CoalescerInputs, coalescer_inputs, LoadStoreUnit, Core,
             "Addresses presented to the coalescer."),
            (CoalescerOutputs, coalescer_outputs, LoadStoreUnit, Core,
             "Memory requests leaving the coalescer."),
            (SmemAccesses, smem_accesses, LoadStoreUnit, Core,
             "Shared-memory bank accesses."),
            (SmemBankConflictCycles, smem_bank_conflict_cycles, LoadStoreUnit, Core,
             "Extra serialization passes due to bank conflicts."),
            (ConstAccesses, const_accesses, LoadStoreUnit, Core,
             "Constant-cache accesses (one per distinct address per warp)."),
            (ConstMisses, const_misses, LoadStoreUnit, Core,
             "Constant-cache misses."),
            (L1Accesses, l1_accesses, LoadStoreUnit, Core,
             "L1 data-cache accesses."),
            (L1Misses, l1_misses, LoadStoreUnit, Core,
             "L1 data-cache misses."),
            (L1Fills, l1_fills, LoadStoreUnit, Core,
             "L1 line fills."),
            // --- chip level ----------------------------------------------
            (NocFlits, noc_flits, Noc, Chip,
             "NoC flits transferred (both directions)."),
            (NocTransfers, noc_transfers, Noc, Chip,
             "NoC packet transfers (requests + replies)."),
            (L2Accesses, l2_accesses, L2Cache, Chip,
             "L2 accesses."),
            (L2Misses, l2_misses, L2Cache, Chip,
             "L2 misses."),
            (L2Fills, l2_fills, L2Cache, Chip,
             "L2 line fills."),
            (McQueueOps, mc_queue_ops, MemoryController, Chip,
             "Memory-controller queue operations."),
            (DramActivates, dram_activates, Dram, Chip,
             "DRAM row activations."),
            (DramPrecharges, dram_precharges, Dram, Chip,
             "DRAM precharges."),
            (DramReadBursts, dram_read_bursts, Dram, Chip,
             "DRAM 32-byte read bursts."),
            (DramWriteBursts, dram_write_bursts, Dram, Chip,
             "DRAM 32-byte write bursts."),
            (DramRefreshes, dram_refreshes, Dram, Chip,
             "DRAM refresh commands."),
            (DramDataBusBusyCycles, dram_data_bus_busy_cycles, Dram, Chip,
             "Command cycles the DRAM data bus was driven."),
            (PcieH2dBytes, pcie_h2d_bytes, Pcie, Chip,
             "Bytes moved over PCIe host→device."),
            (PcieD2hBytes, pcie_d2h_bytes, Pcie, Chip,
             "Bytes moved over PCIe device→host."),
            (KernelLaunches, kernel_launches, GlobalScheduler, Chip,
             "Kernel launches seen by the global scheduler."),
            (CtasDispatched, ctas_dispatched, GlobalScheduler, Core,
             "CTAs dispatched by the global scheduler."),
        }
    };
}

/// The architectural component an event belongs to.
///
/// Mirrors the rows of the paper's Table V power breakdown: the first
/// five are per-core (replicated) components, the rest are chip-level
/// shared structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentId {
    /// Clock/cycle bookkeeping — not an energy-bearing component.
    Timebase,
    /// Warp control unit (WST, I-cache, decoder, I-buffer, scoreboard,
    /// reconvergence stacks, schedulers).
    WarpControlUnit,
    /// Banked register file with operand collectors and crossbar.
    RegisterFile,
    /// Execution units (INT/FP lanes, SFUs).
    ExecUnits,
    /// Load/store unit (AGUs, coalescer, SMEM, constant cache, L1).
    LoadStoreUnit,
    /// Network-on-chip between clusters and the uncore.
    Noc,
    /// Shared L2 cache slices.
    L2Cache,
    /// Memory-controller front-ends.
    MemoryController,
    /// GDDR5 DRAM devices.
    Dram,
    /// PCIe host interface.
    Pcie,
    /// Global (chip-level) kernel/CTA scheduler.
    GlobalScheduler,
}

impl ComponentId {
    /// Every component, in declaration order.
    pub const ALL: &'static [ComponentId] = &[
        ComponentId::Timebase,
        ComponentId::WarpControlUnit,
        ComponentId::RegisterFile,
        ComponentId::ExecUnits,
        ComponentId::LoadStoreUnit,
        ComponentId::Noc,
        ComponentId::L2Cache,
        ComponentId::MemoryController,
        ComponentId::Dram,
        ComponentId::Pcie,
        ComponentId::GlobalScheduler,
    ];

    /// Human-readable name used by reports.
    pub const fn name(self) -> &'static str {
        match self {
            ComponentId::Timebase => "timebase",
            ComponentId::WarpControlUnit => "warp control unit",
            ComponentId::RegisterFile => "register file",
            ComponentId::ExecUnits => "execution units",
            ComponentId::LoadStoreUnit => "load/store unit",
            ComponentId::Noc => "NoC",
            ComponentId::L2Cache => "L2 cache",
            ComponentId::MemoryController => "memory controller",
            ComponentId::Dram => "DRAM",
            ComponentId::Pcie => "PCIe",
            ComponentId::GlobalScheduler => "global scheduler",
        }
    }
}

/// Where an event is recorded — the registry's scope dimension.
///
/// `Core`-scoped events are incremented into the owning core's private
/// [`ActivityVector`], so they can be aggregated per core `(c,k)`, per
/// cluster `c`, or chip-wide on demand. `Chip`-scoped events exist only
/// in the chip-wide vector (clock domains, shared uncore structures,
/// PCIe and the global scheduler have no per-core identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// Recorded per-core, aggregated on demand.
    Core,
    /// Recorded chip-wide only.
    Chip,
}

macro_rules! define_registry {
    ( $( ($variant:ident, $field:ident, $component:ident, $scope:ident, $doc:literal) ),* $(,)? ) => {
        /// One energy-bearing event class of the simulated architecture.
        ///
        /// The discriminant is the event's dense index into an
        /// [`ActivityVector`]; [`EventKind::ALL`] lists every event in
        /// that order. Generated from
        /// [`for_each_event!`](crate::for_each_event).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum EventKind {
            $( #[doc = $doc] $variant, )*
        }

        impl EventKind {
            /// Every event, in registry (= dense-index) order.
            pub const ALL: &'static [EventKind] = &[ $( EventKind::$variant, )* ];

            /// Number of events in the registry.
            pub const COUNT: usize = Self::ALL.len();

            /// Dense index of this event — its slot in an [`ActivityVector`].
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// The event's counter name (the `ActivityStats` field name).
            pub const fn name(self) -> &'static str {
                match self {
                    $( EventKind::$variant => stringify!($field), )*
                }
            }

            /// The architectural component the event belongs to.
            pub const fn component(self) -> ComponentId {
                match self {
                    $( EventKind::$variant => ComponentId::$component, )*
                }
            }

            /// Where the event is recorded (per-core or chip-wide).
            pub const fn scope(self) -> Scope {
                match self {
                    $( EventKind::$variant => Scope::$scope, )*
                }
            }
        }
    };
}
for_each_event!(define_registry);

/// Dense per-event counters: one `u64` slot per [`EventKind`], indexed
/// by event id.
///
/// This is the registry's storage type — the simulator's hot paths
/// increment slots with constant indices (`vec[EventKind::Decodes] += 1`
/// compiles to a fixed-offset add), the window sampler differences
/// cumulative snapshots with [`ActivityVector::delta_from`], and scoped
/// accounting sums per-core vectors into cluster and chip aggregates
/// with `+=`.
#[derive(Clone, PartialEq, Eq)]
pub struct ActivityVector([u64; EventKind::COUNT]);

impl ActivityVector {
    /// A zeroed vector.
    #[inline]
    pub const fn new() -> Self {
        ActivityVector([0; EventKind::COUNT])
    }

    /// The raw slots, in [`EventKind::ALL`] order.
    #[inline]
    pub fn values(&self) -> &[u64; EventKind::COUNT] {
        &self.0
    }

    /// Iterates `(event, count)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL.iter().map(move |&e| (e, self.0[e.index()]))
    }

    /// Adds `units * span` to an event slot — the span-multiply
    /// primitive of the cycle loop in `Gpu::launch_impl`, which charges
    /// a run of cycles wholesale after proving the per-cycle
    /// contribution (`units`) is constant across the whole span.
    #[inline]
    pub fn add_span(&mut self, event: EventKind, units: u64, span: u64) {
        self.0[event.index()] += units * span;
    }

    /// Slot-wise difference `self − earlier` between two cumulative
    /// snapshots of the same launch — the primitive behind windowed
    /// power sampling (see `ActivityStats::delta_from` for the
    /// compatibility-view equivalent).
    ///
    /// # Panics
    ///
    /// Panics if any slot in `earlier` exceeds the corresponding slot
    /// in `self` (the snapshots are out of order).
    pub fn delta_from(&self, earlier: &ActivityVector) -> ActivityVector {
        let mut delta = ActivityVector::new();
        for i in 0..EventKind::COUNT {
            delta.0[i] = self.0[i]
                .checked_sub(earlier.0[i])
                .expect("delta_from: `earlier` is not an earlier snapshot");
        }
        delta
    }
}

impl Default for ActivityVector {
    fn default() -> Self {
        Self::new()
    }
}

impl Index<EventKind> for ActivityVector {
    type Output = u64;

    #[inline]
    fn index(&self, event: EventKind) -> &u64 {
        &self.0[event.index()]
    }
}

impl IndexMut<EventKind> for ActivityVector {
    #[inline]
    fn index_mut(&mut self, event: EventKind) -> &mut u64 {
        &mut self.0[event.index()]
    }
}

impl AddAssign<&ActivityVector> for ActivityVector {
    fn add_assign(&mut self, rhs: &ActivityVector) {
        for i in 0..EventKind::COUNT {
            self.0[i] += rhs.0[i];
        }
    }
}

impl fmt::Debug for ActivityVector {
    /// Lists only non-zero slots — a full 62-slot dump drowns test
    /// failure output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (event, count) in self.iter() {
            if count != 0 {
                map.entry(&event.name(), &count);
            }
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, &event) in EventKind::ALL.iter().enumerate() {
            assert_eq!(event.index(), i, "{} out of order", event.name());
        }
        assert_eq!(EventKind::ALL.len(), EventKind::COUNT);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
    }

    #[test]
    fn every_component_except_timebase_has_events() {
        for &component in ComponentId::ALL {
            let n = EventKind::ALL
                .iter()
                .filter(|e| e.component() == component)
                .count();
            assert!(n > 0, "component {:?} has no events", component);
        }
    }

    #[test]
    fn scope_partition_matches_recording_sites() {
        // Everything a Core increments is Core-scoped; clock domains,
        // uncore structures, PCIe and kernel launches are chip-scoped.
        assert_eq!(EventKind::Decodes.scope(), Scope::Core);
        assert_eq!(EventKind::L1Accesses.scope(), Scope::Core);
        assert_eq!(EventKind::CtasDispatched.scope(), Scope::Core);
        assert_eq!(EventKind::ShaderCycles.scope(), Scope::Chip);
        assert_eq!(EventKind::NocFlits.scope(), Scope::Chip);
        assert_eq!(EventKind::KernelLaunches.scope(), Scope::Chip);
    }

    #[test]
    fn vector_index_add_delta_roundtrip() {
        let mut a = ActivityVector::new();
        a[EventKind::Decodes] = 7;
        a[EventKind::L2Misses] += 3;
        let mut b = a.clone();
        b += &a;
        assert_eq!(b[EventKind::Decodes], 14);
        let delta = b.delta_from(&a);
        assert_eq!(delta, a);
    }

    #[test]
    #[should_panic(expected = "earlier snapshot")]
    fn vector_delta_rejects_reordered_snapshots() {
        let mut earlier = ActivityVector::new();
        earlier[EventKind::Decodes] = 1;
        let _ = ActivityVector::new().delta_from(&earlier);
    }

    #[test]
    fn debug_lists_only_nonzero_slots() {
        let mut v = ActivityVector::new();
        v[EventKind::NocFlits] = 9;
        let text = format!("{:?}", v);
        assert!(text.contains("noc_flits"));
        assert!(!text.contains("decodes"));
    }
}
