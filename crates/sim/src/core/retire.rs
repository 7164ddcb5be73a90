//! Commit — the ledger's *commit* row: writeback events retire, release
//! dependencies and re-arm the issue scan; memory replies complete load
//! groups and schedule their writeback.

use crate::config::GpuConfig;
use crate::events::EventKind as Ev;

use super::{Completion, Core, LaunchCtx, LoadGroup};

impl Core {
    /// Delivers a memory reply for the 128-byte line containing `addr`.
    pub fn mem_response(&mut self, addr: u32, cycle: u64, ctx: &LaunchCtx<'_>) {
        // Install into the right cache.
        let is_const = addr >= ctx.const_base && addr < ctx.const_base + ctx.const_bytes;
        if is_const {
            self.const_cache.install(addr);
        } else if let Some(l1) = &mut self.l1 {
            l1.install(addr);
            self.stats[Ev::L1Fills] += 1;
        }
        self.waiters.clear();
        self.mshr.complete_into(addr, &mut self.waiters);
        for i in 0..self.waiters.len() {
            let id = self.waiters[i];
            let group = &mut self.groups[id as usize];
            group.remaining -= 1;
            if group.remaining > 0 {
                continue;
            }
            let LoadGroup { warp, dst, .. } = *group;
            self.free_groups.push(id);
            self.live_groups -= 1;
            if let Some(w) = self.warps[warp].as_mut() {
                w.outstanding_groups -= 1;
            }
            self.events.schedule(
                cycle + 2,
                Completion::Commit {
                    warp,
                    dst: Some(dst),
                },
            );
        }
    }

    /// Retires every completion event due at `cycle`.
    #[inline]
    pub(super) fn retire(&mut self, cycle: u64, cfg: &GpuConfig, ctx: &LaunchCtx<'_>) {
        while let Some(completion) = self.events.pop_due(cycle) {
            let Completion::Commit { warp, dst } = completion;
            let Some(w) = self.warps[warp].as_mut() else {
                continue;
            };
            if let Some(dst) = dst {
                w.pending_writes &= !(1u64 << dst.index().min(63));
                self.stats[Ev::RfBankWrites] += 1;
                self.stats[Ev::ScoreboardWrites] += 1;
            }
            w.busy = false;
            // The retired warp may already hold a fetched next
            // instruction (fetch ignores `busy`); now that it stopped
            // executing it is a real issue candidate.
            self.publish_candidate(warp, cycle, cfg, ctx);
        }
    }
}
