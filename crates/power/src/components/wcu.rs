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
use gpusimpow_sim::{EventKind as Ev, GpuConfig};
use gpusimpow_tech::node::{DeviceType, TechNode};

use super::Component;
use crate::empirical;
use crate::registry::{EnergyMap, EnergyTerm};

/// Builds the WCU of one core of `cfg` at `tech`. The map's labels
/// group its terms into the individual memories and logic blocks, so
/// `map.grouped` is the finer-grained analysis the paper's §V-B
/// mentions ("investigating the power consumed by the different
/// memories in the warp control unit").
///
/// # Errors
///
/// Propagates circuit-model construction errors.
pub fn build(cfg: &GpuConfig, tech: &TechNode) -> Result<Component, &'static str> {
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
    // Term order is the former hand-written expression order; labels
    // group the terms into the §V-B memory drill-down rows.
    let map = EnergyMap::new(vec![
        EnergyTerm::new("i-cache", icache.hit_energy() * s, vec![Ev::IcacheAccesses]),
        EnergyTerm::new("decoder", decoder.decode_energy() * s, vec![Ev::Decodes]),
        EnergyTerm::new(
            "instruction buffer",
            ibuffer.insert_energy() * s,
            vec![Ev::IbufferWrites],
        ),
        EnergyTerm::new(
            "instruction buffer",
            ibuffer.lookup_energy() * s,
            vec![Ev::IbufferReads],
        ),
        EnergyTerm::new(
            "scoreboard",
            scoreboard.lookup_energy() * s,
            vec![Ev::ScoreboardReads],
        ),
        EnergyTerm::new(
            "scoreboard",
            scoreboard.insert_energy() * s,
            vec![Ev::ScoreboardWrites],
        ),
        EnergyTerm::new(
            "reconvergence stacks",
            stacks.costs().read_energy * s,
            vec![Ev::SimtStackReads, Ev::SimtStackPushes, Ev::SimtStackPops],
        ),
        EnergyTerm::new(
            "warp schedulers",
            fetch_sched.select_energy() * s,
            vec![Ev::FetchSchedulerSelects],
        ),
        EnergyTerm::new(
            "warp schedulers",
            issue_sched.select_energy() * s,
            vec![Ev::IssueSchedulerSelects],
        ),
        EnergyTerm::new(
            "warp status table",
            wst.costs().read_energy * s,
            vec![Ev::WstReads, Ev::WstWrites],
        ),
    ]);
    Ok(Component {
        area,
        leakage: leakage * empirical::WCU_LEAKAGE_SCALE,
        map,
    })
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests compare raw magnitudes against published numbers"
)]
mod tests {
    use super::*;
    use gpusimpow_sim::ActivityVector;

    fn t40() -> TechNode {
        TechNode::planar(40).unwrap()
    }

    #[test]
    fn fermi_wcu_is_bigger_than_tesla_wcu() {
        let gt = build(&GpuConfig::gt240(), &t40()).unwrap();
        let gtx = build(&GpuConfig::gtx580(), &t40()).unwrap();
        assert!(gtx.leakage > gt.leakage);
        assert!(gtx.area.mm2() > gt.area.mm2());
    }

    #[test]
    fn dynamic_energy_scales_with_activity() {
        let wcu = build(&GpuConfig::gt240(), &t40()).unwrap();
        let mut a = ActivityVector::new();
        a[Ev::IcacheAccesses] = 1000;
        a[Ev::Decodes] = 1000;
        let e1 = wcu.map.dynamic_energy(&a);
        a[Ev::IcacheAccesses] = 2000;
        a[Ev::Decodes] = 2000;
        let e2 = wcu.map.dynamic_energy(&a);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_rows_sum_to_total() {
        let wcu = build(&GpuConfig::gt240(), &t40()).unwrap();
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
        let parts: f64 = wcu.map.grouped(&a).iter().map(|(_, e)| e.joules()).sum();
        let total = wcu.map.dynamic_energy(&a).joules();
        assert!((parts - total).abs() < 1e-18 * total.max(1.0) + 1e-18);
        assert_eq!(wcu.map.grouped(&a).len(), 7);
    }

    #[test]
    fn zero_activity_zero_energy() {
        let wcu = build(&GpuConfig::gt240(), &t40()).unwrap();
        assert_eq!(wcu.map.dynamic_energy(&ActivityVector::new()).joules(), 0.0);
    }
}
