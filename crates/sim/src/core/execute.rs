//! Execute — the ledger's *execute* row: functional execution of one
//! issued warp instruction over the SoA register file, SIMT-stack
//! bookkeeping for control flow, and barrier arrival/release. Loads and
//! stores continue in [`super::mem`].

use gpusimpow_isa::{Instr, Operand, Reg, SpecialReg};

use crate::config::GpuConfig;
use crate::events::EventKind as Ev;
use crate::func;
use crate::mem::GpuMemory;
use crate::simt_stack::{lanes, low_lanes, LaneMask};

use super::{Core, LaunchCtx, MAX_LANES};

/// Operand collection over the SoA register file: copies the operand's
/// register row (or splats an immediate) into a dense lane row.
#[inline]
fn gather_row(regs: &[u32], ws: usize, op: Operand, out: &mut [u32; MAX_LANES]) {
    match op {
        Operand::Reg(r) => {
            let base = r.index() * ws;
            out[..ws].copy_from_slice(&regs[base..base + ws]);
        }
        Operand::Imm(v) => out[..ws].fill(v),
    }
}

/// Masked scatter back into the SoA register file: a full-warp mask is
/// one contiguous row copy, divergent masks write per set bit.
#[inline]
fn scatter_row(
    regs: &mut [u32],
    ws: usize,
    dst: Reg,
    vals: &[u32; MAX_LANES],
    mask: LaneMask,
    full: LaneMask,
) {
    let base = dst.index() * ws;
    let row = &mut regs[base..base + ws];
    if mask == full {
        row.copy_from_slice(&vals[..ws]);
    } else {
        for lane in lanes(mask) {
            row[lane] = vals[lane];
        }
    }
}

/// Reusable structure-of-arrays scratch block for the per-warp hot
/// pipeline: fixed 64-lane rows for operand collection, dense results
/// and generated addresses (pure stack-style storage — no allocation,
/// no take/put-back churn) plus two reused vectors for the
/// variable-length coalescer outputs. One block per core; zero
/// steady-state allocation.
#[derive(Debug)]
pub(super) struct LaneScratch {
    /// First gathered source row.
    a: [u32; MAX_LANES],
    /// Second gathered source row.
    b: [u32; MAX_LANES],
    /// Third gathered source row (FFMA/IMAD/SEL).
    c: [u32; MAX_LANES],
    /// Dense result row, scattered under the active mask.
    out: [u32; MAX_LANES],
    /// Generated addresses, dense by lane id.
    pub(super) addrs: [u32; MAX_LANES],
    /// Active lanes' addresses, compacted in ascending lane order
    /// (feeds the coalescer and the access statistics).
    pub(super) words: Vec<u32>,
    /// Coalesced segment bases.
    pub(super) segs: Vec<u32>,
}

impl LaneScratch {
    pub(super) fn new() -> Self {
        LaneScratch {
            a: [0; MAX_LANES],
            b: [0; MAX_LANES],
            c: [0; MAX_LANES],
            out: [0; MAX_LANES],
            addrs: [0; MAX_LANES],
            words: Vec::new(),
            segs: Vec::new(),
        }
    }
}

impl Core {
    /// Executes `instr` for all lanes in `mask`. For memory instructions
    /// returns `Some((commit_cycle, dst))` when the access completes at a
    /// known time (hits, shared, stores) and `None` when a load group
    /// waits on memory replies.
    ///
    /// ALU-class instructions run the SoA scheme: gather each operand's
    /// contiguous register row (or immediate splat) into the scratch
    /// block, evaluate *every* lane densely with the row helpers in
    /// [`crate::func`] — sound because all operations are total, so
    /// stale values in inactive lanes produce garbage that the masked
    /// scatter then discards — and write back the active lanes (one row
    /// copy when the warp is converged). Per-lane results are
    /// bit-identical to the old lane-at-a-time loop because each row
    /// helper applies the same scalar evaluator per lane.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(super) fn execute(
        &mut self,
        slot: usize,
        instr: Instr,
        mask: LaneMask,
        cycle: u64,
        dispatch: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
        mem: &GpuMemory,
    ) -> Option<(u64, Option<Reg>)> {
        let ws = cfg.warp_size;
        let full = low_lanes(ws);
        // The replay frontend skips the functional value layer: register
        // contents are never read (branch masks and memory addresses come
        // from the recorded streams instead), so the gather/eval/scatter
        // work below is elided while the architectural PC advancement —
        // which the timing model does consume — runs identically.
        let replaying = self.tracer.is_replay();

        macro_rules! warp {
            () => {
                self.warps[slot].as_mut().expect("live warp")
            };
        }
        // The one gather/eval/scatter skeleton of every ALU-class
        // instruction: each `operand => row` pair collects one source
        // into that scratch row, `$eval` maps the rows to `out`.
        // `self.warps` and `self.scratch` are disjoint fields, so the
        // sequence borrows both directly — no staging copies, no
        // allocation.
        macro_rules! alu {
            ($dst:expr, $eval:expr, $($src:expr => $row:ident),+) => {{
                if !replaying {
                    let w = self.warps[slot].as_mut().expect("live warp");
                    let sc = &mut self.scratch;
                    $(gather_row(&w.regs, ws, $src, &mut sc.$row);)+
                    $eval($(&sc.$row[..ws],)+ &mut sc.out[..ws]);
                    scatter_row(&mut w.regs, ws, $dst, &sc.out, mask, full);
                }
                self.advance(slot);
            }};
        }

        match instr {
            Instr::IAlu { op, dst, a, b } => {
                alu!(dst, |x, y, o| func::eval_int_lanes(op, x, y, o), a => a, b => b)
            }
            Instr::IMad { dst, a, b, c } => {
                alu!(dst, func::eval_imad_lanes, a => a, b => b, c => c)
            }
            Instr::FAlu { op, dst, a, b } => {
                alu!(dst, |x, y, o| func::eval_fp_lanes(op, x, y, o), a => a, b => b)
            }
            Instr::FFma { dst, a, b, c } => {
                alu!(dst, func::eval_ffma_lanes, a => a, b => b, c => c)
            }
            Instr::Sfu { op, dst, a } => alu!(dst, |x, o| func::eval_sfu_lanes(op, x, o), a => a),
            Instr::ISetp { op, dst, a, b } => {
                alu!(dst, |x, y, o| func::eval_icmp_lanes(op, x, y, o), a => a, b => b)
            }
            Instr::FSetp { op, dst, a, b } => {
                alu!(dst, |x, y, o| func::eval_fcmp_lanes(op, x, y, o), a => a, b => b)
            }
            Instr::I2F { dst, a } => alu!(dst, func::eval_i2f_lanes, a => a),
            Instr::F2I { dst, a } => alu!(dst, func::eval_f2i_lanes, a => a),
            Instr::Mov { dst, src } => {
                alu!(dst, |x: &[u32], o: &mut [u32]| o.copy_from_slice(x), src => a)
            }
            Instr::Sel { dst, cond, a, b } => {
                alu!(dst, func::eval_sel_lanes, Operand::Reg(cond) => a, a => b, b => c)
            }
            Instr::S2R { dst, sr } => {
                if replaying {
                    self.advance(slot);
                    return None;
                }
                let block = ctx.launch.block;
                let grid = ctx.launch.grid;
                let (bx, by) = {
                    let w = self.warps[slot].as_ref().expect("live warp");
                    *self
                        .cta_coords
                        .get(&w.cta_slot)
                        .expect("cta has coordinates")
                };
                let w = self.warps[slot].as_mut().expect("live warp");
                let sc = &mut self.scratch;
                let base = w.base_tid;
                {
                    // Special-register dispatch hoisted out of the lane
                    // loop: only the thread-id registers vary per lane,
                    // everything else is a row splat.
                    let out = &mut sc.out[..ws];
                    match sr {
                        SpecialReg::TidX => {
                            for (i, o) in out.iter_mut().enumerate() {
                                *o = (base + i as u32) % block.x;
                            }
                        }
                        SpecialReg::TidY => {
                            for (i, o) in out.iter_mut().enumerate() {
                                *o = (base + i as u32) / block.x;
                            }
                        }
                        SpecialReg::CtaIdX => out.fill(bx),
                        SpecialReg::CtaIdY => out.fill(by),
                        SpecialReg::NTidX => out.fill(block.x),
                        SpecialReg::NTidY => out.fill(block.y),
                        SpecialReg::NCtaIdX => out.fill(grid.x),
                        SpecialReg::NCtaIdY => out.fill(grid.y),
                    }
                }
                scatter_row(&mut w.regs, ws, dst, &sc.out, mask, full);
                self.advance(slot);
            }
            Instr::Ld { .. } | Instr::St { .. } => {
                let result = self.execute_mem(slot, instr, mask, cycle, dispatch, cfg, ctx, mem);
                self.advance(slot);
                return result;
            }
            Instr::Bra {
                cond,
                negate,
                target,
                reconv,
            } => {
                self.stats[Ev::Branches] += 1;
                let (computed, fallthrough) = {
                    let w = self.warps[slot].as_ref().expect("live warp");
                    let entry = w.stack.current().expect("executing warp has a token");
                    let taken = if replaying {
                        // Substituted from the recorded stream below;
                        // the register row holds no values in replay.
                        0
                    } else {
                        // Dense truth mask over the whole condition row,
                        // confined to the active lanes afterwards.
                        let base = cond.index() * ws;
                        let row = &w.regs[base..base + ws];
                        let mut truth: LaneMask = 0;
                        for (lane, &c) in row.iter().enumerate() {
                            truth |= ((c != 0) as u64) << lane;
                        }
                        if negate {
                            mask & !truth
                        } else {
                            mask & truth
                        }
                    };
                    (taken, entry.pc + 1)
                };
                let taken = self.tracer.branch_mask(slot, computed, mask, ctx.replay);
                let w = warp!();
                let act = w.stack.branch(target, reconv, taken, fallthrough);
                if act.diverged {
                    self.stats[Ev::DivergentBranches] += 1;
                }
                self.stats[Ev::SimtStackPushes] += act.pushes;
                self.stats[Ev::SimtStackPops] += act.pops;
            }
            Instr::Jmp { target } => {
                let w = warp!();
                let act = w.stack.jump(target);
                self.stats[Ev::SimtStackPops] += act.pops;
            }
            Instr::Bar => {
                self.stats[Ev::BarrierWaits] += 1;
                let cta_slot = {
                    let w = warp!();
                    w.at_barrier = true;
                    w.cta_slot
                };
                self.advance(slot);
                let release = {
                    let cta = self.ctas[cta_slot].as_mut().expect("live cta");
                    cta.waiting_at_barrier += 1;
                    cta.waiting_at_barrier >= cta.live_warps
                };
                if release {
                    self.release_barrier(cta_slot, cycle, cfg, ctx);
                }
            }
            Instr::Exit => {
                let (finished, cta_slot) = {
                    let w = warp!();
                    let act = w.stack.exit_lanes();
                    self.stats[Ev::SimtStackPops] += act.pops;
                    (w.stack.finished(), w.cta_slot)
                };
                if finished {
                    self.finish_warp(slot, cta_slot, cycle, cfg, ctx);
                }
            }
            Instr::Nop => {
                self.advance(slot);
            }
        }
        None
    }

    /// Advances the warp's PC past a straight-line instruction.
    fn advance(&mut self, slot: usize) {
        let w = self.warps[slot].as_mut().expect("live warp");
        if let Some(entry) = w.stack.current() {
            let act = w.stack.advance(entry.pc + 1);
            self.stats[Ev::SimtStackPops] += act.pops;
        }
    }

    /// Releases every warp of `cta_slot` parked at the barrier (at
    /// issue, so the scan is awake and no stall needs re-arming).
    pub(super) fn release_barrier(
        &mut self,
        cta_slot: usize,
        cycle: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
    ) {
        let cta = self.ctas[cta_slot].as_mut().expect("live cta");
        cta.waiting_at_barrier = 0;
        // Walked by index: `publish_candidate` takes `&mut self`, and a
        // copy of the slots would allocate on every release.
        for i in 0..cta.warp_slots.len() {
            let s = self.ctas[cta_slot].as_ref().expect("live cta").warp_slots[i];
            if let Some(w) = self.warps[s].as_mut() {
                w.at_barrier = false;
                // A released warp with a fetched instruction becomes an
                // issue candidate again (fetch ignores `at_barrier`, so
                // its i-buffer may have refilled while parked).
                self.publish_candidate(s, cycle, cfg, ctx);
            }
        }
    }
}
