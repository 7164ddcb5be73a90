//! CTA lifecycle on one core: admission, placement and retirement. Driven
//! by the global block scheduler between ticks (admission, placement)
//! and by a warp's final `Exit` (retirement), not a per-cycle stage.

use crate::config::GpuConfig;
use crate::events::EventKind as Ev;
use crate::simt_stack::{low_lanes, SimtStack};

use super::{clear_hint, set_hint, Core, Cta, LaunchCtx, Warp};

impl Core {
    /// Whether a CTA of this kernel can be accepted right now.
    pub fn can_accept(&self, cfg: &GpuConfig, ctx: &LaunchCtx<'_>) -> bool {
        let warps_needed = ctx.launch.warps_per_block(cfg.warp_size as u32) as usize;
        let free_warps = self.warps.iter().filter(|w| w.is_none()).count();
        let free_cta = self.ctas.iter().any(|c| c.is_none());
        let smem_avail = cfg.smem_bytes as u32
            - if cfg.l1_enabled {
                cfg.l1_bytes as u32
            } else {
                0
            }
            - self.smem_in_use;
        let resident_warps = self.max_warps - free_warps;
        let regs_needed =
            (resident_warps + warps_needed) * cfg.warp_size * ctx.kernel.num_regs() as usize;
        free_cta
            && free_warps >= warps_needed
            && ctx.kernel.smem_bytes() <= smem_avail
            && regs_needed <= cfg.regfile_regs_per_core
    }

    /// Places a CTA onto this core.
    ///
    /// # Panics
    ///
    /// Panics if [`Core::can_accept`] would return `false`.
    pub fn dispatch_cta(
        &mut self,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
        block_x: u32,
        block_y: u32,
    ) {
        assert!(self.can_accept(cfg, ctx), "dispatch without capacity");
        let threads = ctx.launch.threads_per_block();
        let warps_needed = ctx.launch.warps_per_block(cfg.warp_size as u32) as usize;
        let cta_slot = self
            .ctas
            .iter()
            .position(|c| c.is_none())
            .expect("checked by can_accept");
        let num_regs = ctx.kernel.num_regs() as usize;
        let mut warp_slots = Vec::with_capacity(warps_needed);
        for w in 0..warps_needed {
            let slot = self
                .warps
                .iter()
                .position(|s| s.is_none())
                .expect("checked by can_accept");
            let base_tid = (w * cfg.warp_size) as u32;
            let lanes_active = (threads - base_tid).min(cfg.warp_size as u32) as usize;
            self.warps[slot] = Some(Warp {
                cta_slot,
                base_tid,
                stack: SimtStack::new(0, low_lanes(lanes_active)),
                // One register file per dispatched warp: grid-proportional
                // launch setup, not per-cycle work.
                regs: vec![0; cfg.warp_size * num_regs],
                ibuf: None,
                pending_writes: 0,
                busy: false,
                at_barrier: false,
                outstanding_groups: 0,
                done: false,
            });
            // The warp becomes an issue candidate once fetch fills its
            // i-buffer (`Core::publish_candidate`).
            set_hint(&mut self.fetch_ready, slot);
            // A fresh warp has an empty i-buffer: no unit-class mask may
            // claim it (its previous occupant's bits were cleared when
            // that warp issued its final instruction; this keeps the
            // invariant robust regardless).
            for mask in &mut self.class_next {
                clear_hint(mask, slot);
            }
            self.tracer
                .attach_warp(slot, block_x, block_y, w as u32, ctx.replay);
            warp_slots.push(slot);
        }
        self.smem_in_use += ctx.kernel.smem_bytes();
        self.ctas[cta_slot] = Some(Cta {
            live_warps: warp_slots.len(),
            warp_slots,
            smem: vec![0; ctx.kernel.smem_bytes() as usize],
            waiting_at_barrier: 0,
        });
        self.cta_coords.insert(cta_slot, (block_x, block_y));
        self.stats[Ev::CtasDispatched] += 1;
    }

    /// Retires warp `slot` after its last lane exited; frees the CTA
    /// (warp slots, shared memory) when it was the CTA's last warp.
    pub(super) fn finish_warp(
        &mut self,
        slot: usize,
        cta_slot: usize,
        cycle: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
    ) {
        {
            let w = self.warps[slot].as_mut().expect("live warp");
            w.done = true;
        }
        // Capture banks the retired warp's streams; replay verifies the
        // recorded stream was consumed exactly.
        self.tracer.finish_warp(slot, ctx.replay);
        let (cta_done, needs_release) = {
            let cta = self.ctas[cta_slot].as_mut().expect("live cta");
            cta.live_warps -= 1;
            (
                cta.live_warps == 0,
                cta.live_warps > 0 && cta.waiting_at_barrier >= cta.live_warps,
            )
        };
        if needs_release {
            self.release_barrier(cta_slot, cycle, cfg, ctx);
        }
        if cta_done {
            let cta = self.ctas[cta_slot].take().expect("live cta");
            for s in cta.warp_slots {
                // Probing a vacant slot is a silent no-op: drop its hints.
                self.warps[s] = None;
                clear_hint(&mut self.issue_ready, s);
                clear_hint(&mut self.fetch_ready, s);
            }
            self.cta_coords.remove(&cta_slot);
            self.smem_in_use = self.smem_in_use.saturating_sub(cta.smem.len() as u32);
            self.completed_ctas += 1;
        }
    }
}
