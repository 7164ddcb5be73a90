//! Fetch/decode — the ledger's *fetch* row: one instruction per cycle
//! into an empty i-buffer slot, chosen by the rotating-priority fetch
//! scheduler.

use crate::cache::Probe;
use crate::config::GpuConfig;
use crate::events::EventKind as Ev;

use super::{clear_hint, Core, LaunchCtx, SlotWalk};

impl Core {
    #[inline]
    pub(super) fn fetch_stage(&mut self, cycle: u64, cfg: &GpuConfig, ctx: &LaunchCtx<'_>) {
        // Every fetch failure is sticky, so a failed probe always
        // clears its hint and steady-state full-i-buffer cycles cost one
        // mask test.
        let mut walk = SlotWalk::new(self.fetch_rr, self.max_warps);
        while let Some(slot) = walk.next(self.fetch_ready) {
            if self.try_fetch(slot, cycle, cfg, ctx) {
                self.fetch_rr = walk.select();
                return;
            }
            clear_hint(&mut self.fetch_ready, slot);
        }
    }

    /// Probes `slot` for fetch; on success fills the i-buffer and
    /// returns `true` (the caller advances the fetch pointer). Every
    /// failure is silent (no stats), which is what lets the hinted scan
    /// skip cleared slots.
    fn try_fetch(&mut self, slot: usize, cycle: u64, cfg: &GpuConfig, ctx: &LaunchCtx<'_>) -> bool {
        let pc = self.warps[slot].as_ref().and_then(|w| {
            if w.done || w.ibuf.is_some() {
                return None;
            }
            w.stack.current().map(|e| e.pc)
        });
        let pc = match pc {
            Some(pc) if (pc as usize) < ctx.kernel.code().len() => pc,
            _ => return false,
        };
        self.stats[Ev::FetchSchedulerSelects] += 1;
        self.stats[Ev::WstReads] += 1;
        self.stats[Ev::IcacheAccesses] += 1;
        if self.icache.read(pc * 8) == Probe::Miss {
            self.stats[Ev::IcacheMisses] += 1;
        }
        self.stats[Ev::Decodes] += 1;
        self.stats[Ev::IbufferWrites] += 1;
        // The i-buffer holds the PC; operands and metadata come from
        // the launch-wide decoded table (`LaunchCtx::decoded`).
        self.warps[slot].as_mut().expect("checked above").ibuf = Some(pc);
        clear_hint(&mut self.fetch_ready, slot);
        // Fetch runs after issue within a tick, so the refilled warp can
        // issue at `cycle + 1` at the earliest (on barrel configs it is
        // usually still executing, and its commit event publishes it
        // instead).
        self.publish_candidate(slot, cycle + 1, cfg, ctx);
        true
    }
}
