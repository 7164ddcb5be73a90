//! The load/store unit — the memory half of the ledger's *execute* row
//! (`sim.ns_per_mem_instr`): address generation, active-address
//! compaction for the coalescer and bank analyses, the functional value
//! layer, and the per-space timing (shared banks, constant cache,
//! L1/coalesced global).

use gpusimpow_isa::{Instr, MemSpace, Reg};

use crate::cache::Probe;
use crate::config::GpuConfig;
use crate::events::EventKind as Ev;
use crate::ldst;
use crate::mem::GpuMemory;
use crate::simt_stack::{lanes, LaneMask};

use super::execute::LaneScratch;
use super::{Core, LaunchCtx, LoadGroup, MemRequest, LDST};

impl Core {
    /// Executes a load/store. Address generation runs dense over the SoA
    /// address-register row into the scratch block (inactive lanes
    /// compute garbage the active-lane walk never reads); the active
    /// addresses are then compacted, in ascending lane order, into the
    /// reusable `scratch.words` buffer for the coalescer/bank analyses.
    /// No per-access allocation anywhere on this path.
    ///
    /// Returns `Some((commit_cycle, dst))` when the access completes at a
    /// known time (hits, shared, stores) and `None` when a load group
    /// waits on memory replies.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(super) fn execute_mem(
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
        self.stats[Ev::AguOps] += ldst::agu_activations(mask.count_ones(), 8) as u64;

        let (space, addr_reg, offset, dst, src) = match instr {
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => (space, addr, offset, Some(dst), None),
            Instr::St {
                space,
                src,
                addr,
                offset,
            } => (space, addr, offset, None, Some(src)),
            _ => unreachable!("execute_mem called on non-memory instruction"),
        };

        // Dense per-lane address generation over the contiguous register
        // row — or, under the replay frontend, the recorded active-lane
        // addresses (same values the capture run generated here).
        let replaying = self.tracer.is_replay();
        if replaying {
            self.tracer
                .fill_addrs(slot, mask, &mut self.scratch.addrs[..ws], ctx.replay);
        } else {
            {
                let w = self.warps[slot].as_ref().expect("live warp");
                let base = addr_reg.index() * ws;
                let row = &w.regs[base..base + ws];
                for (o, &b) in self.scratch.addrs[..ws].iter_mut().zip(row) {
                    *o = b.wrapping_add(offset as u32);
                }
            }
            self.tracer
                .record_addrs(slot, mask, &self.scratch.addrs[..ws]);
        }

        // Active-address compaction: shared memory is analysed per bank
        // word, constant addresses live in the staged constant segment.
        // Resolved to (base, shift) up front: a `match` inside the lane
        // walk costs ~1 % of `mem_stream`.
        {
            let (base, shift) = match space {
                MemSpace::Shared => (0, 2),
                MemSpace::Const => (ctx.const_base, 0),
                MemSpace::Global => (0, 0),
            };
            let LaneScratch { addrs, words, .. } = &mut self.scratch;
            words.clear();
            words.extend(lanes(mask).map(|lane| base.wrapping_add(addrs[lane]) >> shift));
        }
        // The replay frontend skips the functional value layer entirely
        // (no register/memory values) — which also keeps the
        // shared-array bounds asserts out of reach of hostile trace
        // addresses. Timing-wise a global store is represented by the
        // NoC request pushed below in the same tick, so the cycle loop's
        // commit predicate fires on the identical cycle either way.
        if !replaying {
            self.functional_access(slot, space, dst, src, mask, ws, ctx, mem);
        }

        match space {
            MemSpace::Shared => {
                let plan = ldst::smem_conflicts_lanes(&self.scratch.words, cfg.smem_banks as u32);
                self.stats[Ev::SmemAccesses] += plan.bank_accesses as u64;
                self.stats[Ev::SmemBankConflictCycles] += plan.passes.saturating_sub(1) as u64;
                self.unit_free[LDST] =
                    self.unit_free[LDST].max(cycle + dispatch + plan.passes as u64 - 1);
                Some((
                    cycle + dispatch + cfg.smem_latency as u64 + plan.passes as u64 - 1,
                    dst,
                ))
            }
            MemSpace::Const => {
                let unique = ldst::const_unique_lanes(&self.scratch.words);
                self.stats[Ev::ConstAccesses] += unique as u64;
                // Probe the constant cache per distinct 64 B line.
                self.coalesce(64);
                let mut misses = 0;
                for i in 0..self.scratch.segs.len() {
                    let line = self.scratch.segs[i];
                    if self.const_cache.read(line) == Probe::Miss {
                        self.stats[Ev::ConstMisses] += 1;
                        self.issue_read_request(line & !127);
                        misses += 1;
                    }
                }
                self.finish_load(
                    slot,
                    dst,
                    misses,
                    cycle + dispatch + cfg.const_latency as u64,
                )
            }
            MemSpace::Global => {
                self.stats[Ev::CoalescerInputs] += self.scratch.words.len() as u64;
                self.coalesce(128);
                self.stats[Ev::CoalescerOutputs] += self.scratch.segs.len() as u64;

                if dst.is_some() {
                    // Load: probe L1 (if present), send misses out.
                    let mut misses = 0;
                    for i in 0..self.scratch.segs.len() {
                        let seg = self.scratch.segs[i];
                        let hit = match &mut self.l1 {
                            Some(l1) => {
                                self.stats[Ev::L1Accesses] += 1;
                                let probe = l1.read(seg);
                                if probe == Probe::Miss {
                                    self.stats[Ev::L1Misses] += 1;
                                }
                                probe == Probe::Hit
                            }
                            None => false,
                        };
                        if !hit {
                            self.issue_read_request(seg);
                            misses += 1;
                        }
                    }
                    self.finish_load(slot, dst, misses, cycle + dispatch + cfg.l1_latency as u64)
                } else {
                    // Store: write-through, no allocate, no reply.
                    for i in 0..self.scratch.segs.len() {
                        let seg = self.scratch.segs[i];
                        if let Some(l1) = &mut self.l1 {
                            self.stats[Ev::L1Accesses] += 1;
                            let _ = l1.write(seg);
                        }
                        // Size the write by the lanes that fall in this
                        // segment (32 B granularity like the DRAM burst).
                        let in_seg = self
                            .scratch
                            .words
                            .iter()
                            .filter(|&&a| a & !127 == seg)
                            .count() as u32;
                        self.out_requests.push(MemRequest {
                            core: self.id,
                            write: true,
                            addr: seg,
                            bytes: (in_seg * 4).clamp(32, 128),
                        });
                    }
                    Some((cycle + dispatch + 2, None))
                }
            }
        }
    }

    /// The functional value layer of a load or store: moves the active
    /// lanes' words between the warp's register row and the CTA's shared
    /// array (`warps`, `ctas` and `scratch` are disjoint fields) or
    /// global memory. Loads see this core's own buffered stores
    /// (read-your-own-writes); stores buffer until the serial commit
    /// phase.
    #[allow(clippy::too_many_arguments)]
    fn functional_access(
        &mut self,
        slot: usize,
        space: MemSpace,
        dst: Option<Reg>,
        src: Option<Reg>,
        mask: LaneMask,
        ws: usize,
        ctx: &LaunchCtx<'_>,
        mem: &GpuMemory,
    ) {
        let w = self.warps[slot].as_mut().expect("live warp");
        let cta = self.ctas[w.cta_slot].as_mut().expect("live cta");
        let addrs = &self.scratch.addrs;
        // Constant addresses live in the staged constant segment.
        let base = match space {
            MemSpace::Const => ctx.const_base,
            MemSpace::Shared | MemSpace::Global => 0,
        };
        if let Some(d) = dst {
            let row = &mut w.regs[d.index() * ws..][..ws];
            for lane in lanes(mask) {
                row[lane] = match space {
                    MemSpace::Shared => read_smem(&cta.smem, addrs[lane]),
                    MemSpace::Const | MemSpace::Global => {
                        read_global_overlay(&self.store_buf, mem, base.wrapping_add(addrs[lane]))
                    }
                };
            }
        } else if let Some(s) = src {
            let row = &w.regs[s.index() * ws..][..ws];
            for lane in lanes(mask) {
                match space {
                    MemSpace::Shared => write_smem(&mut cta.smem, addrs[lane], row[lane]),
                    MemSpace::Global => {
                        buffer_store_into(&mut self.store_buf, mem, addrs[lane], row[lane]);
                    }
                    // Constant memory is read-only to kernels.
                    MemSpace::Const => {}
                }
            }
        }
    }

    /// Coalesces the compacted active addresses into distinct
    /// `line_bytes` segments (`scratch.words` → `scratch.segs`).
    fn coalesce(&mut self, line_bytes: u32) {
        let LaneScratch { words, segs, .. } = &mut self.scratch;
        segs.clear();
        ldst::coalesce_into(words, line_bytes, segs);
    }

    /// The id [`Core::finish_load`] gives the next load group: the
    /// most recently vacated slab entry, else a new one.
    #[inline]
    fn next_group(&self) -> u32 {
        let fresh = self.groups.len() as u32;
        self.free_groups.last().copied().unwrap_or(fresh)
    }

    /// Registers a read of `line` for the load group being assembled
    /// (its id is reserved until [`Core::finish_load`]) and sends it
    /// downstream unless the MSHR merged it into a request already in
    /// flight. Merged or not, the group waits for one reply per call.
    fn issue_read_request(&mut self, line: u32) {
        if self.mshr.register(line, self.next_group()) {
            self.out_requests.push(MemRequest {
                core: self.id,
                write: false,
                addr: line,
                bytes: 128,
            });
        }
    }

    /// Completes a load's issue: with no line outstanding it commits at
    /// `hit_cycle`; otherwise the warp's load group is registered to
    /// wait on `misses` replies and the commit is scheduled by the last
    /// one ([`Core::mem_response`]).
    fn finish_load(
        &mut self,
        slot: usize,
        dst: Option<Reg>,
        misses: u32,
        hit_cycle: u64,
    ) -> Option<(u64, Option<Reg>)> {
        if misses == 0 {
            return Some((hit_cycle, dst));
        }
        let dst = dst.expect("load groups always have a destination");
        let group = LoadGroup {
            warp: slot,
            dst,
            remaining: misses,
        };
        match self.free_groups.pop() {
            Some(id) => self.groups[id as usize] = group,
            None => self.groups.push(group),
        }
        self.live_groups += 1;
        let w = self.warps[slot].as_mut().expect("live warp");
        w.outstanding_groups += 1;
        w.pending_writes |= 1u64 << dst.index().min(63);
        None
    }
}

/// Reads a global-memory word through a core's buffered stores
/// (read-your-own-writes within the current cycle: the latest store to
/// the word wins). A free function — rather than a `&self` method — so
/// the load path can hold the warp's register file mutably while it
/// reads.
fn read_global_overlay(store_buf: &[(u32, u32)], mem: &GpuMemory, addr: u32) -> u32 {
    let word = addr & !3;
    match store_buf.iter().rev().find(|&&(a, _)| a == word) {
        Some(&(_, value)) => value,
        None => mem.load_word(addr),
    }
}

/// Buffers a global-memory store for the commit phase. Bounds are
/// checked now so an out-of-range kernel store still fails inside the
/// offending core's compute phase.
fn buffer_store_into(store_buf: &mut Vec<(u32, u32)>, mem: &GpuMemory, addr: u32, value: u32) {
    let a = addr & !3;
    if a as usize + 4 > mem.capacity() {
        panic!("kernel write past end of simulated memory: 0x{addr:08x}");
    }
    store_buf.push((a, value));
}

fn read_smem(smem: &[u8], addr: u32) -> u32 {
    let a = addr as usize & !3;
    assert!(
        a + 4 <= smem.len(),
        "kernel read past end of shared memory: 0x{addr:x} of {}",
        smem.len()
    );
    u32::from_le_bytes(smem[a..a + 4].try_into().expect("range checked"))
}

fn write_smem(smem: &mut [u8], addr: u32, value: u32) {
    let a = addr as usize & !3;
    assert!(
        a + 4 <= smem.len(),
        "kernel write past end of shared memory: 0x{addr:x} of {}",
        smem.len()
    );
    smem[a..a + 4].copy_from_slice(&value.to_le_bytes());
}
