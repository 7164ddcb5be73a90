//! Issue — the ledger's *issue* row: warp selection (round-robin or
//! two-level), the dependency and unit-availability probe, issue
//! accounting, and the stall bookkeeping that lets later cycles skip
//! probes proven silent (module docs of [`super`], "Scheduler hints").

use gpusimpow_isa::InstrClass;

use crate::config::{GpuConfig, WarpSchedPolicy};
use crate::events::EventKind as Ev;
use crate::ldst;
use crate::mem::GpuMemory;
use crate::simt_stack::{low_lanes, LaneMask};

use super::{
    class_index, clear_hint, set_hint, Completion, Core, DecodedInstr, LaunchCtx, SlotWalk, Warp,
    NEVER,
};

/// Per execution unit (indexed by [`class_index`]): the event counting
/// its warp instructions and, for the SIMD pipelines, the one counting
/// their active lanes.
const UNIT_EVENTS: [(Ev, Option<Ev>); 4] = [
    (Ev::IntInstructions, Some(Ev::IntLaneOps)),
    (Ev::FpInstructions, Some(Ev::FpLaneOps)),
    (Ev::SfuInstructions, Some(Ev::SfuLaneOps)),
    (Ev::MemInstructions, None),
];

/// Whether a warp slot may sit in the two-level active set: it holds a
/// live warp that is not done, not parked at a barrier and not waiting
/// on a load.
fn active_eligible(slot: &Option<Warp>) -> bool {
    slot.as_ref()
        .is_some_and(|w| !w.done && !w.at_barrier && w.outstanding_groups == 0)
}

impl Core {
    #[inline]
    pub(super) fn issue_stage(
        &mut self,
        cycle: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
        mem: &GpuMemory,
    ) {
        // Issue-stall sleep: a previous scan proved every probe repeats
        // its outcome before `issue_stall_until`; its counted reads
        // accrue as a rate (`Core::settle_stall_reads`). Only the
        // round-robin scan below ever engages it.
        if cycle < self.issue_stall_until {
            return;
        }
        self.stall_from = NEVER;
        let mut issued = 0;
        match cfg.warp_scheduler {
            WarpSchedPolicy::RoundRobin => {
                let mut walk = SlotWalk::new(self.issue_rr, self.max_warps);
                let reads_before = self.stats[Ev::ScoreboardReads];
                while issued < cfg.issue_width {
                    let Some(slot) = walk.next(self.issue_hints(cycle, cfg)) else {
                        break;
                    };
                    if self.try_issue(slot, cycle, cfg, ctx, mem) {
                        issued += 1;
                        self.issue_rr = walk.select();
                        self.stats[Ev::IssueSchedulerSelects] += 1;
                    }
                }
                // A scan that issued nothing covered every hinted slot,
                // and each failure — on a busy unit or a scoreboard
                // dependency, counted read included — repeats until a
                // candidate's unit frees or a publish site re-arms the
                // scan (module docs, "Scheduler hints"). (After an issue
                // the walk skips slots, so it proves nothing.)
                if issued == 0 && !ctx.dense {
                    self.stall_reads = self.stats[Ev::ScoreboardReads] - reads_before;
                    if self.stall_reads > 0 {
                        self.stall_from = cycle + 1;
                    }
                    self.issue_stall_until = self.candidates_wake(cycle);
                }
            }
            WarpSchedPolicy::TwoLevel { active_warps } => {
                self.maintain_active_set(active_warps);
                if self.active_set.is_empty() {
                    return;
                }
                // Swap the set out instead of cloning it each cycle;
                // `try_issue` never touches `active_set`. The walk runs
                // over set positions in insertion order, unhinted.
                let set = std::mem::take(&mut self.active_set);
                let every = low_lanes(set.len());
                let mut walk = SlotWalk::new(self.issue_rr, set.len());
                while issued < cfg.issue_width {
                    let Some(idx) = walk.next(every) else {
                        break;
                    };
                    if self.try_issue(set[idx], cycle, cfg, ctx, mem) {
                        issued += 1;
                        self.issue_rr = walk.select();
                        self.stats[Ev::IssueSchedulerSelects] += 1;
                    }
                }
                self.active_set = set;
            }
        }
    }

    /// The hint mask for the next step of the round-robin issue walk,
    /// recomputed every step because an issue makes its own unit busy
    /// mid-scan.
    ///
    /// Per-unit-class skip (barrel only): a slot whose published
    /// next-instruction class targets a busy unit would probe to a
    /// silent unit failure — drop it from the mask so the walk folds it
    /// into the jump distance. The skipped probes mutate nothing and
    /// keep their hints, and the walk's budget advances by the same
    /// total (gap + 1 arithmetic) — so the stall decision, visit order
    /// and all counters are bit-identical to the probing scan.
    /// Scoreboard probes are observable and are never skipped.
    #[inline]
    pub(super) fn issue_hints(&self, cycle: u64, cfg: &GpuConfig) -> u64 {
        let mut hints = self.issue_ready;
        if !cfg.scoreboard {
            for (&free, &class) in self.unit_free.iter().zip(&self.class_next) {
                if free > cycle {
                    hints &= !class;
                }
            }
        }
        hints
    }

    /// Two-level scheduling (Narasiman et al.): keeps at most
    /// `active_warps` issue candidates, demoting warps that stall on
    /// memory or barriers and promoting pending ones round-robin.
    fn maintain_active_set(&mut self, active_warps: usize) {
        let warps = &self.warps;
        self.active_set.retain(|&s| active_eligible(&warps[s]));
        self.active_set.truncate(active_warps);
        let every = low_lanes(self.max_warps);
        let mut walk = SlotWalk::new(self.pending_rr, self.max_warps);
        while self.active_set.len() < active_warps {
            let Some(slot) = walk.next(every) else {
                break;
            };
            if !self.active_set.contains(&slot) && active_eligible(&self.warps[slot]) {
                self.active_set.push(slot);
                self.pending_rr = walk.select();
            }
        }
    }

    /// The warp slots the next issue scan probes: every slot under
    /// round-robin, the active set's members under two-level scheduling.
    /// `None` while the two-level set is off its fixed point, i.e. while
    /// [`Core::maintain_active_set`] would still change it or
    /// `pending_rr`. The set is settled when every member is eligible
    /// and the set is full or no eligible warp is pending.
    ///
    /// Eligibility changes inside a tick (an issued `Bar`, `Exit` or
    /// missing load) or through a memory response or a dispatch, both of
    /// which make the core due at once. So while the set is settled,
    /// deferring `maintain` is exact; while it is not, the core must
    /// tick next cycle, or a memory response arriving meanwhile could
    /// change which pending warp is promoted.
    pub(super) fn scanned_slots(&self, cfg: &GpuConfig) -> Option<u64> {
        let WarpSchedPolicy::TwoLevel { active_warps } = cfg.warp_scheduler else {
            return Some(!0);
        };
        let eligible = |slot: usize| active_eligible(&self.warps[slot]);
        let settled = self.active_set.iter().all(|&s| eligible(s))
            && (self.active_set.len() == active_warps
                || (0..self.max_warps).all(|s| self.active_set.contains(&s) || !eligible(s)));
        settled.then(|| self.active_set.iter().fold(0, |mask, &s| mask | 1 << s))
    }

    /// Probes `slot` for issue; on success issues its fetched
    /// instruction and returns `true`.
    fn try_issue(
        &mut self,
        slot: usize,
        cycle: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
        mem: &GpuMemory,
    ) -> bool {
        let (di, mask, pc) = {
            let w = match self.warps[slot].as_ref() {
                Some(w) => w,
                None => return false,
            };
            if w.done || w.at_barrier {
                return false;
            }
            let pc = match w.ibuf {
                Some(pc) => pc,
                None => return false,
            };
            // Barrel blocking needs no instruction metadata — bail out
            // before the decoded-table load on this hot stall path.
            if !cfg.scoreboard && w.busy {
                return false;
            }
            let di = ctx.decoded[pc as usize];
            // Dependency check.
            if cfg.scoreboard {
                // A failed probe still counts a scoreboard read; an
                // issue-stall sleep accrues it each cycle
                // (`Core::stall_reads`).
                self.stats[Ev::ScoreboardReads] += 1;
                if w.pending_writes & di.dep_mask != 0 {
                    return false;
                }
                // Exit and barriers drain the warp first.
                if di.drains && (w.pending_writes != 0 || w.outstanding_groups > 0) {
                    return false;
                }
            }
            let entry = match w.stack.current() {
                Some(e) => e,
                None => return false,
            };
            (di, entry.mask, pc)
        };

        // Unit availability. These failures lapse when the unit frees
        // (on barrel configs silently), which is what bounds an issue
        // stall by [`Core::candidates_wake`].
        let class = di.class;
        let unit = class_index(class);
        if unit.is_some_and(|ci| self.unit_free[ci] > cycle) {
            return false;
        }
        // Cycles the unit is occupied dispatching the warp, and the
        // pipeline latency behind it.
        let (dispatch, latency) = match class {
            InstrClass::Int => (cfg.warp_size / cfg.simd_width, cfg.int_latency),
            InstrClass::Fp => (cfg.warp_size / cfg.simd_width, cfg.fp_latency),
            InstrClass::Sfu => (
                (cfg.warp_size / cfg.sfu_count.max(1)).max(1),
                cfg.sfu_latency,
            ),
            InstrClass::Mem => {
                // The SAGUs run in parallel, each producing 8 addresses
                // per cycle (reference [22]). Latency is determined by
                // the memory path below.
                let acts = ldst::agu_activations(mask.count_ones(), 8);
                (acts.div_ceil(cfg.sagu_count as u32).max(1) as usize, 0)
            }
            InstrClass::Control => (1, 1),
        };
        let (dispatch, latency) = (dispatch as u64, latency as u64);

        // Commit to issuing. The i-buffer empties below, so the slot
        // stops being a unit-class candidate until the next fetch.
        if let Some(ci) = unit {
            clear_hint(&mut self.class_next[ci], slot);
            self.unit_free[ci] = cycle + dispatch;
        }
        self.account_issue(&di, mask);
        // Capture records the issued PC; replay checks it against the
        // recorded stream. No-op on the live frontend.
        self.tracer.on_issue(slot, pc, ctx.replay);

        // Functional execution + architectural bookkeeping.
        let mem_commit = self.execute(slot, di.instr, mask, cycle, dispatch, cfg, ctx, mem);
        self.stats[Ev::IbufferReads] += 1;
        self.stats[Ev::WstWrites] += 1;

        // An `Exit` can retire the warp (and free its slot) inside
        // `execute`; nothing further to track in that case.
        let Some(w) = self.warps[slot].as_mut() else {
            return true;
        };
        w.ibuf = None;
        clear_hint(&mut self.issue_ready, slot);
        set_hint(&mut self.fetch_ready, slot);

        // When the instruction commits, and which register it writes.
        // `None`: a load waiting on memory replies — its dependency is
        // held by the load group; barrel warps stay busy all the same.
        let commit = if class == InstrClass::Mem {
            mem_commit
        } else {
            Some((cycle + dispatch + latency, di.dst))
        };
        if !cfg.scoreboard {
            w.busy = true;
        }
        if let Some((commit_cycle, dst)) = commit {
            if let Some(d) = dst {
                w.pending_writes |= 1u64 << d.index().min(63);
            }
            self.events
                .schedule(commit_cycle, Completion::Commit { warp: slot, dst });
        }
        true
    }

    fn account_issue(&mut self, di: &DecodedInstr, mask: LaneMask) {
        let lanes = mask.count_ones() as u64;
        self.stats[Ev::WarpInstructions] += 1;
        self.stats[Ev::ThreadInstructions] += lanes;
        self.stats[Ev::SimtStackReads] += 1;
        if let Some(ci) = class_index(di.class) {
            let (instructions, lane_ops) = UNIT_EVENTS[ci];
            self.stats[instructions] += 1;
            if let Some(lane_ops) = lane_ops {
                self.stats[lane_ops] += lanes;
            }
        }
        // Register-file operand collection (counts precomputed at
        // decode; see `DecodedInstr`).
        let n_srcs = di.n_srcs as u64;
        if n_srcs > 0 || di.dst.is_some() {
            self.stats[Ev::CollectorAllocations] += 1;
        }
        if n_srcs > 0 {
            self.stats[Ev::RfBankReads] += n_srcs;
            self.stats[Ev::CollectorXbarTransfers] += n_srcs;
            self.stats[Ev::RfBankConflicts] += di.bank_conflicts as u64;
        }
    }
}
