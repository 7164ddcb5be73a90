//! Event-priced energy maps — the power side of the component-event
//! registry.
//!
//! Every architecture component used to multiply named
//! `ActivityStats` fields with per-event energies in a hand-written
//! expression. An [`EnergyMap`] replaces those expressions with data:
//! an ordered list of [`EnergyTerm`]s, each pricing one or more
//! [`EventKind`] slots of an [`ActivityVector`]. The map is built once
//! at chip-construction time and then *iterated* — for the chip-wide
//! Table V breakdown, for the WCU-internal memory drill-down, and for
//! the per-cluster attribution report, which applies the same maps to
//! cluster-scoped vectors.
//!
//! # Float identity
//!
//! Terms are summed in declaration order, and each term sums its event
//! counts *as `u64`* (scaled by [`EnergyTerm::scale`]) before the single
//! conversion to `f64`. This reproduces the former field-named
//! expressions bit for bit — e.g. the WCU's
//! `stack_op * (reads + pushes + pops) as f64` becomes one term with
//! three events, not three terms — so regenerated experiment outputs
//! stay byte-identical.

use gpusimpow_sim::{ActivityVector, EventKind};
use gpusimpow_tech::units::Energy;

/// Registry events that deliberately carry **no** energy price:
/// diagnostics counters (hit rates, instruction mixes, conflict/stall
/// accounting) that exist for validation and reporting only.
///
/// This is the documented allowlist of the component-event registry's
/// coverage contract: every [`EventKind`] must be priced by a component
/// [`EnergyMap`], consumed by the empirical base model
/// ([`BASE_MODEL_EVENTS`]), or listed here. The runtime test in
/// `chip.rs` checks that contract against this list, so a new event
/// missing from all three places fails `cargo test`, and an entry
/// naming an event that no longer exists does not compile.
pub const UNPRICED_EVENTS: &[EventKind] = &[
    EventKind::UncoreCycles,
    EventKind::IcacheMisses,
    EventKind::Branches,
    EventKind::DivergentBranches,
    EventKind::BarrierWaits,
    EventKind::RfBankConflicts,
    EventKind::IntInstructions,
    EventKind::FpInstructions,
    EventKind::SfuInstructions,
    EventKind::WarpInstructions,
    EventKind::ThreadInstructions,
    EventKind::MemInstructions,
    EventKind::SmemBankConflictCycles,
    EventKind::L1Misses,
    EventKind::L2Misses,
    EventKind::NocTransfers,
    EventKind::DramPrecharges,
    EventKind::KernelLaunches,
    EventKind::CtasDispatched,
];

/// Registry events consumed by the empirical base/time model in
/// `GpuChip::evaluate` (busy-fraction scaling, cycle-to-time
/// conversion) rather than priced by an [`EnergyMap`]. Part of the
/// coverage contract documented on [`UNPRICED_EVENTS`].
pub const BASE_MODEL_EVENTS: &[EventKind] = &[
    EventKind::ShaderCycles,
    EventKind::CoreBusyCycles,
    EventKind::ClusterBusyCycles,
];

/// One priced term of a component's dynamic-energy model: `energy`
/// charged once per counted unit, where the unit count is the `u64` sum
/// of the listed registry events times `scale`.
#[derive(Debug, Clone)]
pub struct EnergyTerm {
    /// Row label for fine-grained breakdowns. Several terms may share a
    /// label (e.g. the instruction buffer's read and write terms); they
    /// are aggregated by [`EnergyMap::grouped`].
    pub label: &'static str,
    /// Energy charged per counted unit.
    pub energy: Energy,
    /// Registry events whose counts this term prices. Counts are summed
    /// as `u64` before the `f64` conversion.
    pub events: Vec<EventKind>,
    /// Units per event (e.g. 32 bytes per DRAM burst); usually 1.
    pub scale: u64,
}

impl EnergyTerm {
    /// A term pricing `events` at `energy` each.
    pub fn new(label: &'static str, energy: Energy, events: Vec<EventKind>) -> Self {
        EnergyTerm {
            label,
            energy,
            events,
            scale: 1,
        }
    }

    /// A term pricing `scale` units per counted event.
    pub fn scaled(label: &'static str, energy: Energy, events: Vec<EventKind>, scale: u64) -> Self {
        EnergyTerm {
            label,
            energy,
            events,
            scale,
        }
    }

    /// Exact unit count this term charges for under `activity`.
    pub fn count(&self, activity: &ActivityVector) -> u64 {
        self.events.iter().map(|&e| activity[e]).sum::<u64>() * self.scale
    }

    /// Energy this term contributes under `activity`.
    pub fn energy_for(&self, activity: &ActivityVector) -> Energy {
        self.energy * self.count(activity) as f64
    }
}

/// An ordered collection of [`EnergyTerm`]s — a component's complete
/// dynamic-energy model, evaluated by iteration instead of field-named
/// expressions.
#[derive(Debug, Clone, Default)]
pub struct EnergyMap {
    terms: Vec<EnergyTerm>,
}

impl EnergyMap {
    /// A map evaluating `terms` in the given order.
    pub fn new(terms: Vec<EnergyTerm>) -> Self {
        EnergyMap { terms }
    }

    /// The terms, in evaluation order.
    pub fn terms(&self) -> &[EnergyTerm] {
        &self.terms
    }

    /// Total dynamic energy under `activity`: the terms summed in
    /// declaration order (see the module docs on float identity).
    pub fn dynamic_energy(&self, activity: &ActivityVector) -> Energy {
        let mut total = Energy::ZERO;
        for term in &self.terms {
            total += term.energy_for(activity);
        }
        total
    }

    /// Every event at least one term prices (with repetitions when
    /// several terms share an event). Feeds the registry-coverage test
    /// that proves no counter silently falls out of the power model.
    pub fn events(&self) -> impl Iterator<Item = EventKind> + '_ {
        self.terms.iter().flat_map(|t| t.events.iter().copied())
    }

    /// Term energies aggregated by label, in first-seen label order —
    /// the shape of the WCU's §V-B memory drill-down.
    pub fn grouped(&self, activity: &ActivityVector) -> Vec<(&'static str, Energy)> {
        let mut rows: Vec<(&'static str, Energy)> = Vec::new();
        for term in &self.terms {
            let e = term.energy_for(activity);
            match rows.iter_mut().find(|(label, _)| *label == term.label) {
                Some((_, acc)) => *acc += e,
                None => rows.push((term.label, e)),
            }
        }
        rows
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;
    use gpusimpow_sim::EventKind as Ev;
    use gpusimpow_tech::units::Energy;

    fn pj(x: f64) -> Energy {
        Energy::from_picojoules(x)
    }

    #[test]
    fn term_counts_sum_events_as_u64_then_scale() {
        let mut v = ActivityVector::new();
        v[Ev::DramReadBursts] = 3;
        v[Ev::DramWriteBursts] = 4;
        let t = EnergyTerm::scaled(
            "pins",
            pj(1.0),
            vec![Ev::DramReadBursts, Ev::DramWriteBursts],
            32,
        );
        assert_eq!(t.count(&v), 224);
        assert!((t.energy_for(&v).picojoules() - 224.0).abs() < 1e-12);
    }

    #[test]
    fn map_matches_hand_written_expression_exactly() {
        let mut v = ActivityVector::new();
        v[Ev::IcacheAccesses] = 1001;
        v[Ev::Decodes] = 997;
        v[Ev::SimtStackReads] = 13;
        v[Ev::SimtStackPushes] = 7;
        v[Ev::SimtStackPops] = 5;
        let (a, b, c) = (pj(3.7), pj(1.9), pj(11.3));
        let map = EnergyMap::new(vec![
            EnergyTerm::new("fetch", a, vec![Ev::IcacheAccesses]),
            EnergyTerm::new("decode", b, vec![Ev::Decodes]),
            EnergyTerm::new(
                "stacks",
                c,
                vec![Ev::SimtStackReads, Ev::SimtStackPushes, Ev::SimtStackPops],
            ),
        ]);
        let by_hand = a * 1001.0 + b * 997.0 + c * (13u64 + 7 + 5) as f64;
        assert_eq!(map.dynamic_energy(&v).joules(), by_hand.joules());
    }

    #[test]
    fn grouped_aggregates_shared_labels_in_order() {
        let mut v = ActivityVector::new();
        v[Ev::IbufferWrites] = 2;
        v[Ev::IbufferReads] = 3;
        v[Ev::Decodes] = 1;
        let map = EnergyMap::new(vec![
            EnergyTerm::new("decoder", pj(1.0), vec![Ev::Decodes]),
            EnergyTerm::new("ibuffer", pj(10.0), vec![Ev::IbufferWrites]),
            EnergyTerm::new("ibuffer", pj(100.0), vec![Ev::IbufferReads]),
        ]);
        let rows = map.grouped(&v);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "decoder");
        assert_eq!(rows[1].0, "ibuffer");
        assert!((rows[1].1.picojoules() - 320.0).abs() < 1e-9);
        let total: f64 = rows.iter().map(|(_, e)| e.joules()).sum();
        assert!((total - map.dynamic_energy(&v).joules()).abs() < 1e-24);
    }

    #[test]
    fn empty_map_is_zero_energy() {
        let v = ActivityVector::new();
        assert_eq!(EnergyMap::default().dynamic_energy(&v).joules(), 0.0);
    }
}
