//! Warp-control-unit power model (paper §III-C1, Fig. 2).
//!
//! Composed from circuit-tier structures: the warp status table (a
//! multi-ported SRAM), the I-cache, the McPAT-style instruction decoder,
//! the warp-ID-tagged instruction buffer and scoreboard (CAM tables),
//! the per-warp reconvergence stacks (an SRAM holding
//! {exec PC, reconv PC, active mask} tokens) and the two
//! rotating-priority schedulers (inverters + wide priority encoder +
//! phase counter, after Kun et al. \[16\]).

use gpusimpow_circuit::{
    Cache, CacheSpec, InstructionDecoder, PriorityEncoder, SramArray, SramSpec, TaggedTable,
};
use gpusimpow_sim::{ActivityVector, EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::{DeviceType, TechNode};
use gpusimpow_tech::units::{Area, Energy, Power};

use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// Evaluated WCU (per core).
#[derive(Debug, Clone)]
pub struct WcuPower {
    fetch_energy: Energy,
    decode_energy: Energy,
    ibuffer_write_energy: Energy,
    ibuffer_read_energy: Energy,
    fetch_scheduler_energy: Energy,
    issue_scheduler_energy: Energy,
    scoreboard_read_energy: Energy,
    wst_energy: Energy,
    map: EnergyMap,
    leakage: Power,
    area: Area,
}

impl WcuPower {
    /// Builds the WCU model for one core of `cfg` at `tech`.
    ///
    /// # Errors
    ///
    /// Propagates circuit-model construction errors.
    pub fn new(cfg: &GpuConfig, tech: &TechNode) -> Result<Self, &'static str> {
        let warps = cfg.max_warps_per_core();
        let warp_bits = (warps.max(2) as f64).log2().ceil() as usize;

        // Warp status table: one entry per in-flight warp holding master
        // PC, priority, valid/ready/barrier bits (Fig. 2): ~48 bits.
        let wst = SramArray::new(
            tech,
            SramSpec {
                entries: warps,
                bits_per_entry: 48,
                read_ports: 2,
                write_ports: 1,
                rw_ports: 0,
                banks: 1,
                device: DeviceType::HighPerformance,
            },
        )?;

        let icache = Cache::new(
            tech,
            CacheSpec {
                capacity_bytes: cfg.icache_bytes,
                line_bytes: 64,
                ways: 4,
                address_bits: 32,
                banks: 1,
            },
        )?;

        let decoder = InstructionDecoder::new(tech, 8, 64)?;

        // Instruction buffer: associativity > 1, tagged by warp ID,
        // holding 64-bit decoded instructions (paper: "cache-like
        // structure tagged by the warp ID").
        let ibuffer = TaggedTable::new(tech, warps * 2, warp_bits, 64)?;

        // Scoreboard: warp-ID-tagged table of two destination registers
        // (Fig. 2: DstReg1/DstReg2).
        let scoreboard = TaggedTable::new(tech, warps, warp_bits, 16)?;

        // Per-warp reconvergence stacks: 16 tokens x (exec PC 32 +
        // reconv PC 32 + active mask 32) per warp.
        let stacks = SramArray::new(
            tech,
            SramSpec {
                entries: warps * 16,
                bits_per_entry: 96,
                read_ports: 1,
                write_ports: 1,
                rw_ports: 0,
                banks: 2,
                device: DeviceType::HighPerformance,
            },
        )?;

        // Two schedulers (fetch + issue), each an inverter rank + wide
        // priority encoder + phase counter (Kun et al. [16]). Under
        // two-level scheduling the issue encoder only spans the active
        // set.
        let fetch_sched = PriorityEncoder::new(tech, warps)?;
        let issue_sched = PriorityEncoder::new(tech, cfg.issue_scheduler_width())?;

        let leakage = wst.costs().leakage
            + icache.costs().leakage
            + decoder.costs().leakage
            + ibuffer.costs().leakage
            + scoreboard.costs().leakage
            + stacks.costs().leakage
            + fetch_sched.costs().leakage
            + issue_sched.costs().leakage;
        let area = wst.costs().area
            + icache.costs().area
            + decoder.costs().area
            + ibuffer.costs().area
            + scoreboard.costs().area
            + stacks.costs().area
            + fetch_sched.costs().area
            + issue_sched.costs().area;

        let s = empirical::WCU_ENERGY_SCALE;
        let fetch_energy = icache.hit_energy() * s;
        let decode_energy = decoder.decode_energy() * s;
        let ibuffer_write_energy = ibuffer.insert_energy() * s;
        let ibuffer_read_energy = ibuffer.lookup_energy() * s;
        let scoreboard_read_energy = scoreboard.lookup_energy() * s;
        let scoreboard_write_energy = scoreboard.insert_energy() * s;
        let stack_op_energy = stacks.costs().read_energy * s;
        let fetch_scheduler_energy = fetch_sched.select_energy() * s;
        let issue_scheduler_energy = issue_sched.select_energy() * s;
        let wst_energy = wst.costs().read_energy * s;
        // Term order is the former hand-written expression order; labels
        // group the terms into the §V-B memory drill-down rows.
        let map = EnergyMap::new(vec![
            EnergyTerm::new("i-cache", fetch_energy, vec![Ev::IcacheAccesses]),
            EnergyTerm::new("decoder", decode_energy, vec![Ev::Decodes]),
            EnergyTerm::new(
                "instruction buffer",
                ibuffer_write_energy,
                vec![Ev::IbufferWrites],
            ),
            EnergyTerm::new(
                "instruction buffer",
                ibuffer_read_energy,
                vec![Ev::IbufferReads],
            ),
            EnergyTerm::new(
                "scoreboard",
                scoreboard_read_energy,
                vec![Ev::ScoreboardReads],
            ),
            EnergyTerm::new(
                "scoreboard",
                scoreboard_write_energy,
                vec![Ev::ScoreboardWrites],
            ),
            EnergyTerm::new(
                "reconvergence stacks",
                stack_op_energy,
                vec![Ev::SimtStackReads, Ev::SimtStackPushes, Ev::SimtStackPops],
            ),
            EnergyTerm::new(
                "warp schedulers",
                fetch_scheduler_energy,
                vec![Ev::FetchSchedulerSelects],
            ),
            EnergyTerm::new(
                "warp schedulers",
                issue_scheduler_energy,
                vec![Ev::IssueSchedulerSelects],
            ),
            EnergyTerm::new(
                "warp status table",
                wst_energy,
                vec![Ev::WstReads, Ev::WstWrites],
            ),
        ]);
        Ok(WcuPower {
            fetch_energy,
            decode_energy,
            ibuffer_write_energy,
            ibuffer_read_energy,
            fetch_scheduler_energy,
            issue_scheduler_energy,
            scoreboard_read_energy,
            wst_energy,
            map,
            leakage: leakage * empirical::WCU_LEAKAGE_SCALE,
            area,
        })
    }

    /// The WCU's event-priced energy map (registry coverage and scoped
    /// attribution iterate this instead of naming fields).
    pub fn energy_map(&self) -> &EnergyMap {
        &self.map
    }

    /// Chip-wide dynamic energy of the WCU for one kernel, from the
    /// aggregated registry counters.
    pub fn dynamic_energy(&self, activity: &ActivityVector) -> Energy {
        self.map.dynamic_energy(activity)
    }

    /// Breaks the WCU's dynamic energy down to its individual memories
    /// and logic blocks — the finer-grained analysis the paper's §V-B
    /// mentions ("investigating the power consumed by the different
    /// memories in the warp control unit").
    pub fn memory_breakdown(&self, activity: &ActivityVector) -> Vec<(&'static str, Energy)> {
        self.map.grouped(activity)
    }

    /// Per-core leakage.
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Per-core area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Peak per-cycle energy (fetch + issue + decode every cycle).
    pub fn peak_cycle_energy(&self) -> Energy {
        self.fetch_energy
            + self.decode_energy
            + self.ibuffer_write_energy
            + self.ibuffer_read_energy
            + self.fetch_scheduler_energy
            + self.issue_scheduler_energy
            + self.wst_energy * 2.0
            + self.scoreboard_read_energy
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn fermi_wcu_is_bigger_than_tesla_wcu() {
        let gt = WcuPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let gtx = WcuPower::new(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(gtx.leakage() > gt.leakage());
        assert!(gtx.area().mm2() > gt.area().mm2());
    }

    #[test]
    fn dynamic_energy_scales_with_activity() {
        let wcu = WcuPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::IcacheAccesses] = 1000;
        a[Ev::Decodes] = 1000;
        let e1 = wcu.dynamic_energy(&a);
        a[Ev::IcacheAccesses] = 2000;
        a[Ev::Decodes] = 2000;
        let e2 = wcu.dynamic_energy(&a);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_breakdown_sums_to_total() {
        let wcu = WcuPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::IcacheAccesses] = 500;
        a[Ev::Decodes] = 500;
        a[Ev::IbufferWrites] = 500;
        a[Ev::IbufferReads] = 480;
        a[Ev::ScoreboardReads] = 700;
        a[Ev::SimtStackReads] = 480;
        a[Ev::SimtStackPushes] = 20;
        a[Ev::SimtStackPops] = 21;
        a[Ev::FetchSchedulerSelects] = 500;
        a[Ev::IssueSchedulerSelects] = 480;
        a[Ev::WstReads] = 500;
        a[Ev::WstWrites] = 480;
        let parts: f64 = wcu
            .memory_breakdown(&a)
            .iter()
            .map(|(_, e)| e.joules())
            .sum();
        let total = wcu.dynamic_energy(&a).joules();
        assert!((parts - total).abs() < 1e-18 * total.max(1.0) + 1e-18);
        assert_eq!(wcu.memory_breakdown(&a).len(), 7);
    }

    #[test]
    fn zero_activity_zero_energy() {
        let wcu = WcuPower::new(&GpuConfig::gt240(), &t40()).unwrap();
        assert_eq!(wcu.dynamic_energy(&ActivityVector::new()).joules(), 0.0);
    }
}
