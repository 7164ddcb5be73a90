//! The SIMT core model: warp control unit, register file, execution
//! units and load/store unit (paper §III-C, Figs. 2 and 3).
//!
//! # Stage order
//!
//! Each shader cycle `Core::tick` runs three stages, in this order;
//! the modules are the rows of the benchmark ledger's `Core::tick`
//! breakdown:
//!
//! 1. **commit** (`retire`) — retires completed operations (writeback,
//!    dependency release) and accepts memory replies;
//! 2. **issue** (`issue`) — issues up to `issue_width` ready warp
//!    instructions, **executing** them *functionally* at issue
//!    (`execute`, with loads and stores in `mem`) and modelling timing
//!    via pipeline occupancy and latency events;
//! 3. **fetch** (`fetch`) — fetches/decodes one instruction into an
//!    empty instruction-buffer slot, selected by a rotating-priority
//!    scheduler.
//!
//! Outside the per-cycle path, `decode` builds the per-launch
//! instruction table and `dispatch` places CTAs on the core and frees
//! them when their last warp exits.
//!
//! Dependencies use either a per-warp scoreboard (Fermi-class configs) or
//! barrel blocking — the warp stalls until its previous instruction
//! commits (Tesla-class, Table II "Scoreboard ✗").
//!
//! # Scheduler hints
//!
//! Four pieces of `Core` state let the stages skip probes that are
//! proven silent no-ops, and let `Core::next_wake` name the first cycle
//! at which a tick could do anything. All masks are indexed by warp
//! slot; `GpuConfig::validate` caps a core at 64 slots, so one `u64`
//! covers them all.
//!
//! * `issue_ready` — bit `s` set means warp slot `s` could issue but for
//!   a busy unit or, under a scoreboard, a pending register write; a
//!   clear bit is a proof that probing the slot would be a silent no-op.
//!   Bits are set only by `Core::publish_candidate` — at the i-buffer
//!   fill, the writeback retire and the barrier release — and only for
//!   a warp that could issue: one holding a fetched instruction, not
//!   parked at a barrier and, on barrel configs, not still executing
//!   (the event that lifts such a block publishes the warp again). They
//!   are cleared when the slot issues and when its CTA frees it, so a
//!   failed probe of a hinted slot keeps its bit: it lapses when the
//!   unit frees or at a retire.
//! * `issue_stall_until` — cycles below this are proven to repeat the
//!   last round-robin scan's outcome, so the scan is skipped. Engaged
//!   whenever a full scan issues nothing: every hinted slot then failed
//!   on a busy unit (silently, on barrel configs) or on a scoreboard
//!   dependency, counting a read, and each failure repeats until its
//!   unit frees or a `publish_candidate` site fires. So the bound is
//!   `Core::candidates_wake`, the first cycle a unit frees whose class
//!   holds a hinted slot, and each publish site refines the bound to the
//!   new candidate's unit (barrel) or cancels the sleep (scoreboard, so
//!   the next scan re-measures its reads). The scoreboard's failed
//!   probes count `ScoreboardReads`, so a sleeping core accrues them as
//!   a rate: `stall_reads`, the reads the engaging scan counted, per
//!   cycle from `stall_from` on. `Core::settle_stall_reads` credits the
//!   accrued reads at the start of every tick, before every window
//!   snapshot and before the launch's per-core stats are merged, so the
//!   sleeping core needs no tick at all. The dense reference
//!   (`LaunchCtx::dense`) never engages the sleep.
//! * `class_next[c]` — per-unit-class issue candidates: bit `s` is set
//!   iff warp slot `s` currently satisfies *every* probe precondition
//!   short of unit availability — live, not done, not parked at a
//!   barrier, not executing (barrel `busy`) — and its i-buffer holds a
//!   decoded instruction of unit class `c` (see `class_index`). Under
//!   that invariant, probing a masked slot while unit `c` is busy is
//!   *proven* to fail on the unit, which on barrel configs is silent, so
//!   the hinted issue scan folds such slots into its gap distance
//!   instead of probing them — generalizing the whole-scan
//!   `issue_stall_until` short-circuit to per-warp, per-unit-class
//!   granularity. Set by `publish_candidate`, cleared at issue (the
//!   i-buffer empties) and at dispatch, zeroed at the launch boundary.
//!   Scoreboard scans never skip on these masks — their failed probes
//!   count `ScoreboardReads` — but the sleep bound reads them on both
//!   kinds of config.
//! * `fetch_ready` — bit `s` set means slot `s` might fetch; a clear
//!   bit is a proof that probing it would be a silent no-op. Set at
//!   issue and dispatch. Every fetch failure is sticky (an empty
//!   i-buffer can only reappear via issue, a freed slot via dispatch),
//!   so failed probes always clear their bit.

use std::collections::BTreeMap;

use gpusimpow_isa::{InstrClass, Kernel, LaunchConfig, Pc, Reg};

use crate::cache::{Mshr, SimCache};
use crate::config::GpuConfig;
use crate::events::{ActivityVector, EventKind as Ev};
use crate::mem::GpuMemory;
use crate::replay::{Frontend, ReplaySource, Tracer, WarpCapture};
use crate::simt_stack::SimtStack;
use crate::wheel::EventWheel;

mod decode;
mod dispatch;
mod execute;
mod fetch;
mod issue;
mod mem;
mod retire;

pub use decode::{DecodedInstr, PredecodedKernel};
use execute::LaneScratch;

/// Per-launch context shared by all cores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaunchCtx<'a> {
    /// The kernel being executed.
    pub kernel: &'a Kernel,
    /// Its launch configuration.
    pub launch: LaunchConfig,
    /// Global-memory base address where the constant bank was staged.
    pub const_base: u32,
    /// Size of the staged constant bank in bytes.
    pub const_bytes: u32,
    /// Pre-decoded metadata for every instruction of the kernel,
    /// indexed by PC (see [`DecodedInstr::decode_kernel`]).
    pub decoded: &'a [DecodedInstr],
    /// Recorded warp streams driving this launch, when the replay
    /// frontend is active (see [`crate::replay::ReplaySource`]); `None`
    /// under the live frontend.
    pub replay: Option<&'a ReplaySource<'a>>,
    /// The dense reference loop is running (`Gpu::set_dense_reference`):
    /// cores never engage the issue-stall sleep either.
    pub dense: bool,
}

/// A memory request leaving a core for the uncore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemRequest {
    /// Issuing core.
    pub core: usize,
    /// `true` for writes (no reply expected).
    pub write: bool,
    /// Segment base address.
    pub addr: u32,
    /// Transfer size in bytes.
    pub bytes: u32,
}

/// What a completion event releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Completion {
    /// An ALU/SFU/short-memory operation commits: clear the dst pending
    /// bit and (barrel) the busy flag.
    Commit { warp: usize, dst: Option<Reg> },
}

/// An in-flight coalesced load group (one warp load instruction).
#[derive(Debug, Clone, Copy)]
struct LoadGroup {
    warp: usize,
    dst: Reg,
    remaining: u32,
}

#[derive(Debug)]
struct Warp {
    cta_slot: usize,
    /// Linear thread id of lane 0 within the CTA.
    base_tid: u32,
    stack: SimtStack,
    /// Register file in structure-of-arrays layout: register `r`'s
    /// per-lane row is `regs[r * ws .. (r + 1) * ws]` with
    /// `ws = cfg.warp_size`, so operand collection reads one contiguous
    /// row per source and the execute stage runs dense row loops (see
    /// `execute::gather_row` / `execute::scatter_row`).
    regs: Vec<u32>,
    /// Fetched-but-unissued instruction, by PC (the decoded table in
    /// [`LaunchCtx`] holds the metadata).
    ibuf: Option<Pc>,
    /// Scoreboard: bit `r` set while register `r` has a pending write.
    pending_writes: u64,
    /// Barrel mode: an instruction is in flight.
    busy: bool,
    at_barrier: bool,
    outstanding_groups: u32,
    done: bool,
}

#[derive(Debug)]
struct Cta {
    warp_slots: Vec<usize>,
    smem: Vec<u8>,
    live_warps: usize,
    waiting_at_barrier: usize,
}

/// Sets a scheduler-hint bit.
#[inline]
fn set_hint(mask: &mut u64, slot: usize) {
    *mask |= 1u64 << slot;
}

/// Clears a scheduler-hint bit.
#[inline]
fn clear_hint(mask: &mut u64, slot: usize) {
    *mask &= !(1u64 << slot);
}

/// [`class_index`] of the load/store unit.
const LDST: usize = 3;

/// Index of an instruction class in the per-unit tables ([`Core`]'s
/// `unit_free` and `class_next`). `Control` has no execution unit: it is
/// never busy and never masked.
#[inline]
fn class_index(class: InstrClass) -> Option<usize> {
    match class {
        InstrClass::Int => Some(0),
        InstrClass::Fp => Some(1),
        InstrClass::Sfu => Some(2),
        InstrClass::Mem => Some(LDST),
        InstrClass::Control => None,
    }
}

/// The one circular walk over warp slots (or over positions of the
/// two-level active set): up to `n ≤ 64` consecutive positions from a
/// rotating pointer, wrapping at `n`. It serves the issue scan, the
/// active-set promotion and the fetch scan; an unhinted walk passes the
/// full mask `low_lanes(n)`.
///
/// The position is kept as a wrap-around index instead of
/// `(rr + scanned) % n` on every probe: the walk visits the same slots
/// in the same order, but the per-slot integer division was the single
/// largest cost of a stall cycle (two 24-slot scans per core per cycle).
/// The rare post-selection path ([`SlotWalk::select`]) keeps the
/// original formula verbatim.
#[derive(Debug)]
struct SlotWalk {
    n: usize,
    pos: usize,
    scanned: usize,
}

impl SlotWalk {
    /// Starts a walk of `n > 0` positions at rotating pointer `rr`.
    #[inline]
    fn new(rr: usize, n: usize) -> Self {
        SlotWalk {
            n,
            // A rotating pointer is kept below `n`, except across a
            // shrinking two-level active set.
            pos: if rr < n { rr } else { rr % n },
            scanned: 0,
        }
    }

    /// The next position to probe, or `None` once `n` positions are
    /// spent. The walk jumps to the next set bit of `hints`: a hint mask
    /// is a superset of the slots whose probe could do anything
    /// observable, so jumping between set bits probes exactly the slots
    /// the full walk would have probed non-silently, in the same order
    /// and with the same budget accounting (skipped gaps still count).
    /// The mask is passed per step because probes change it mid-walk.
    #[inline]
    fn next(&mut self, hints: u64) -> Option<usize> {
        if hints == 0 {
            return None;
        }
        debug_assert!(self.n <= 64 && hints >> (self.n - 1) <= 1);
        let ahead = (hints >> self.pos) << self.pos;
        let (slot, dist) = if ahead != 0 {
            let bit = ahead.trailing_zeros() as usize;
            (bit, bit - self.pos)
        } else {
            let bit = hints.trailing_zeros() as usize;
            (bit, self.n - self.pos + bit)
        };
        if self.scanned + dist >= self.n {
            return None;
        }
        self.scanned += dist + 1;
        self.pos = if slot + 1 == self.n { 0 } else { slot + 1 };
        Some(slot)
    }

    /// The position just returned was selected (issued, promoted):
    /// returns the new rotating pointer — the position after it — and
    /// resumes the walk `scanned` positions past that pointer.
    #[inline]
    fn select(&mut self) -> usize {
        let rr = self.pos;
        self.pos = (rr + self.scanned) % self.n;
        rr
    }
}

/// "No such cycle": an unset [`Core`] `stall_from`.
const NEVER: u64 = u64::MAX;

/// Maximum lanes per warp the SoA hot path models — the
/// [`crate::simt_stack::LaneMask`] width. `GpuConfig::validate` bounds
/// `warp_size` by this.
pub const MAX_LANES: usize = 64;

/// One SIMT core.
#[derive(Debug)]
pub(crate) struct Core {
    id: usize,
    cluster: usize,
    max_warps: usize,
    warps: Vec<Option<Warp>>,
    ctas: Vec<Option<Cta>>,
    smem_in_use: u32,
    fetch_rr: usize,
    issue_rr: usize,
    /// Two-level scheduling: warp slots currently eligible for issue.
    active_set: Vec<usize>,
    /// Rotating pointer over the pending (inactive) warps.
    pending_rr: usize,
    icache: SimCache,
    l1: Option<SimCache>,
    const_cache: SimCache,
    /// Per execution unit (indexed by [`class_index`]): the first cycle
    /// at which the unit accepts another warp instruction.
    unit_free: [u64; 4],
    /// Pending completion events, ordered by (fire cycle, insertion) —
    /// the calendar wheel preserves the FIFO same-cycle semantics of
    /// the `BinaryHeap<(cycle, seq)>` it replaced (see
    /// [`crate::wheel`]), so retire order and every golden bit pattern
    /// are unchanged.
    events: EventWheel<Completion>,
    /// Outstanding lines; the waiter tokens are `groups` indices.
    mshr: Mshr<u32>,
    /// Load-group slab, indexed by group id; the ids in `free_groups`
    /// are vacant and reused first.
    groups: Vec<LoadGroup>,
    free_groups: Vec<u32>,
    /// Occupied `groups` entries.
    live_groups: usize,
    /// Scratch for the group ids a memory reply completes.
    waiters: Vec<u32>,
    out_requests: Vec<MemRequest>,
    completed_ctas: u64,
    /// Block coordinates of each resident CTA, by CTA slot.
    cta_coords: BTreeMap<usize, (u32, u32)>,
    /// Global-memory stores of the compute phase, `(word address,
    /// value)` in program order, applied by [`Core::commit_stores`] in
    /// the commit phase. Loads from this core see them
    /// (read-your-own-writes); other cores see the stores one cycle
    /// later, whatever order the cores are ticked in.
    store_buf: Vec<(u32, u32)>,
    /// Issue-scan hint mask (module docs, "Scheduler hints").
    issue_ready: u64,
    /// Issue-scan sleep (module docs, "Scheduler hints").
    issue_stall_until: u64,
    /// `ScoreboardReads` accrued per cycle while the issue scan sleeps
    /// (module docs, "Scheduler hints"); written at every engage.
    stall_reads: u64,
    /// First sleeping cycle whose `stall_reads` are not credited yet;
    /// [`NEVER`] unless a sleep with a non-zero rate is accruing.
    stall_from: u64,
    /// Per-unit-class issue candidates (module docs, "Scheduler hints").
    class_next: [u64; 4],
    /// Fetch-scan hint mask (module docs, "Scheduler hints").
    fetch_ready: u64,
    /// Reusable SoA scratch block for the execute and load/store hot
    /// paths (see `execute::LaneScratch`).
    scratch: LaneScratch,
    /// Core-local registry counters (all [`crate::events::Scope::Core`]
    /// events), merged by the GPU after a launch and exposed per-core
    /// through [`crate::gpu::ScopedActivity`].
    pub stats: ActivityVector,
    /// Capture/replay frontend state for the current launch (`Off`
    /// under the live frontend; see [`crate::replay::Tracer`]). Capture
    /// records the issued-PC/branch-mask/address streams without
    /// touching stats or timing; replay substitutes them for the
    /// functional value layer.
    tracer: Tracer,
}

impl Core {
    /// Creates a core for the given configuration.
    pub fn new(id: usize, cluster: usize, cfg: &GpuConfig) -> Self {
        let l1 = if cfg.l1_enabled {
            Some(SimCache::new(
                cfg.l1_bytes,
                cfg.l1_line_bytes as u32,
                cfg.l1_ways,
            ))
        } else {
            None
        };
        let max_warps = cfg.max_warps_per_core();
        Core {
            id,
            cluster,
            max_warps,
            warps: (0..max_warps).map(|_| None).collect(),
            ctas: (0..cfg.max_ctas_per_core).map(|_| None).collect(),
            smem_in_use: 0,
            fetch_rr: 0,
            issue_rr: 0,
            active_set: Vec::new(),
            pending_rr: 0,
            icache: SimCache::new(cfg.icache_bytes, 64, 4),
            l1,
            const_cache: SimCache::new(cfg.const_cache_bytes, 64, 4),
            unit_free: [0; 4],
            events: EventWheel::new(),
            mshr: Mshr::new(128),
            groups: Vec::new(),
            free_groups: Vec::new(),
            live_groups: 0,
            waiters: Vec::new(),
            out_requests: Vec::new(),
            completed_ctas: 0,
            cta_coords: BTreeMap::new(),
            store_buf: Vec::new(),
            issue_ready: 0,
            issue_stall_until: 0,
            stall_reads: 0,
            stall_from: NEVER,
            class_next: [0; 4],
            fetch_ready: 0,
            scratch: LaneScratch::new(),
            stats: ActivityVector::new(),
            tracer: Tracer::Off,
        }
    }

    /// The cluster this core belongs to.
    pub fn cluster(&self) -> usize {
        self.cluster
    }

    /// Number of resident CTAs. O(1): `cta_coords` gains an entry on
    /// dispatch and loses it on CTA completion, so its length is exactly
    /// the occupied-slot count. This is queried every cycle by the block
    /// scheduler and busy accounting, so it must not scan the slot array.
    pub fn resident_ctas(&self) -> usize {
        self.cta_coords.len()
    }

    /// CTAs completed since construction.
    pub fn completed_ctas(&self) -> u64 {
        self.completed_ctas
    }

    /// `true` while any work is resident or in flight.
    pub fn is_busy(&self) -> bool {
        self.resident_ctas() > 0 || !self.events.is_empty() || self.live_groups > 0
    }

    /// Arms the frontend for the next launch: live, live plus stream
    /// capture, or trace replay (streams arrive through
    /// `LaunchCtx::replay`). Drops any capture/replay state from a
    /// previous launch.
    pub(crate) fn set_tracer(&mut self, frontend: Frontend) {
        self.tracer = Tracer::new(frontend, self.max_warps);
    }

    /// Drains the capture buffers of every warp retired since capture
    /// was armed.
    pub(crate) fn take_captured_warps(&mut self) -> Vec<WarpCapture> {
        self.tracer.take_captured()
    }

    /// The first trace/pipeline divergence recorded during replay.
    pub(crate) fn take_replay_desync(&mut self) -> Option<String> {
        self.tracer.take_desync()
    }

    /// Prepares the core for a new kernel launch: resets pipeline
    /// occupancy (cycle numbers restart at zero per launch) and flushes
    /// the caches, mirroring GPGPU-Sim's kernel-boundary flush.
    ///
    /// # Panics
    ///
    /// Panics if work from a previous launch is still in flight.
    pub fn begin_launch(&mut self) {
        assert!(!self.is_busy(), "core still busy at kernel-launch boundary");
        // Cycle numbers restart at zero: rewind the wheel's window base
        // along with them (the wheel is drained — `is_busy` was false).
        self.events.reset();
        self.unit_free = [0; 4];
        self.fetch_rr = 0;
        self.issue_rr = 0;
        self.active_set.clear();
        self.pending_rr = 0;
        self.issue_ready = 0;
        self.issue_stall_until = 0;
        self.stall_from = NEVER;
        self.class_next = [0; 4];
        self.fetch_ready = 0;
        self.icache.flush();
        self.const_cache.flush();
        if let Some(l1) = &mut self.l1 {
            l1.flush();
        }
    }

    /// Appends the memory requests generated since the last call to
    /// `out`, keeping both vectors' capacity (no allocation in steady
    /// state).
    pub fn drain_requests_into(&mut self, out: &mut Vec<MemRequest>) {
        out.append(&mut self.out_requests);
    }

    /// Applies the global-memory stores buffered during the compute
    /// phase, in program order. Called per core, in core order, once
    /// every core has ticked the cycle. The buffer holds one tick's
    /// stores — whenever it is non-empty the cycle commits — so a word
    /// written twice ends at its later value, exactly as if each store
    /// had been applied at issue.
    pub fn commit_stores(&mut self, mem: &mut GpuMemory) {
        for (addr, value) in self.store_buf.drain(..) {
            mem.store_word(addr, value);
        }
    }

    /// `true` while this core holds compute-phase side effects the
    /// commit phase has not applied yet: buffered global stores
    /// or un-drained memory requests. The cycle loop in
    /// `Gpu::launch_impl` skips a cycle's commit phase only when this
    /// is `false` for every core it ticked — then the commit would have
    /// been a no-op, and every load in the next cycle reads the same
    /// frozen memory either way.
    #[inline]
    pub fn has_pending_effects(&self) -> bool {
        !self.out_requests.is_empty() || !self.store_buf.is_empty()
    }

    /// Earliest future cycle at which an execution unit frees whose
    /// class holds a hinted issue candidate (`class_next[c] &
    /// issue_ready`), or `u64::MAX` when none does. Until then every
    /// hinted slot of a busy class keeps failing on its unit.
    #[inline]
    fn candidates_wake(&self, cycle: u64) -> u64 {
        let classes = self.unit_free.iter().zip(&self.class_next);
        classes
            .filter(|&(&free, &class)| free > cycle && class & self.issue_ready != 0)
            .map(|(&free, _)| free)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The first cycle after `cycle` at which a tick of this core could
    /// do anything, unless a dispatch or a memory response reaches it
    /// first (the cycle loop makes the core due at once on both).
    /// `None` when it never can: the core is idle, or deadlocked at a
    /// barrier. Called after every tick.
    ///
    /// It is read off the scheduler hints (module docs, "Scheduler
    /// hints"): the next cycle while the two-level active set is off its
    /// fixed point ([`Core::scanned_slots`]), a slot may fetch or, with
    /// the issue scan awake, a slot the scan probes may issue; otherwise
    /// the end of the issue-stall sleep or the first cycle a hinted
    /// candidate's unit frees — whichever of those and the next
    /// writeback event comes first. A sleeping scoreboard core is
    /// therefore not ticked at all: its counted reads accrue as a rate
    /// ([`Core::settle_stall_reads`]). Two-level cores never engage the
    /// sleep.
    pub fn next_wake(&self, cycle: u64, cfg: &GpuConfig) -> Option<u64> {
        if !self.is_busy() {
            return None;
        }
        let next = cycle + 1;
        // An unsettled active set is due next cycle; no writeback event
        // can come earlier.
        let Some(scanned) = self.scanned_slots(cfg) else {
            return Some(next);
        };
        let stages = if self.fetch_ready != 0 {
            next
        } else if next < self.issue_stall_until {
            self.issue_stall_until
        } else if self.issue_hints(next, cfg) & scanned != 0 {
            next
        } else {
            self.candidates_wake(cycle)
        };
        let wake = self.events.next_fire().map_or(stages, |w| w.min(stages));
        (wake != u64::MAX).then_some(wake)
    }

    /// Credits the `ScoreboardReads` an issue-stall sleep accrued over
    /// the cycles before `cycle` that are not credited yet. Every cycle
    /// before the core's next tick sleeps (the tick would otherwise be
    /// due earlier), so the count equals what per-cycle scans would have
    /// counted up to `cycle`.
    pub fn settle_stall_reads(&mut self, cycle: u64) {
        if cycle > self.stall_from {
            self.stats[Ev::ScoreboardReads] += self.stall_reads * (cycle - self.stall_from);
            self.stall_from = cycle;
        }
    }

    /// Advances the core by one shader cycle — the *compute* phase of
    /// the two-phase step. The core only reads shared global memory;
    /// its stores are buffered and applied by [`Core::commit_stores`]
    /// in the commit phase, so a tick never observes another core's
    /// same-cycle stores and compute phases have no cross-core coupling
    /// (what the per-core wake gating in `Gpu::launch_impl` relies on).
    /// The cycle loop asks [`Core::next_wake`] after every tick when the
    /// core is next due.
    pub fn tick(&mut self, cycle: u64, cfg: &GpuConfig, ctx: &LaunchCtx<'_>, mem: &GpuMemory) {
        self.settle_stall_reads(cycle);
        // Fully idle core: no resident CTAs (CTA completion frees every
        // warp slot, so the warp table is empty too), no scheduled
        // events, no outstanding memory groups. Each stage below would
        // scan empty structures and mutate nothing — skip them outright.
        // This is the dominant case for launches that occupy only a few
        // cores (the paper's Fig. 4 cluster-power sweep).
        if !self.is_busy() {
            return;
        }
        // The stage entry points (and `execute`/`execute_mem` behind
        // `try_issue`) are `#[inline]`: each has exactly one call site,
        // in a different module — hence a different codegen unit — than
        // its body, and the call overhead is measurable per cycle.
        self.retire(cycle, cfg, ctx);
        self.issue_stage(cycle, cfg, ctx, mem);
        self.fetch_stage(cycle, cfg, ctx);
    }

    /// `slot` may just have become an issue candidate (i-buffer fill,
    /// writeback retire, barrier release) that can issue at `earliest`
    /// at the soonest. If the warp could issue — it holds a fetched
    /// instruction, is not parked at a barrier and (barrel) is not still
    /// executing — hints it in `issue_ready` and its unit-class mask and
    /// re-arms an engaged issue stall: barrel refines the stall to the
    /// cycle the candidate's unit accepts it, while every other
    /// candidate is silently unit-blocked; scoreboard cancels it, since
    /// the new candidate's probe counts a read the sleep's rate does not
    /// hold. Otherwise nothing is hinted, and the event that lifts the
    /// block calls this again (fetch ignores `busy` and `at_barrier`,
    /// so the i-buffer may have refilled meanwhile).
    #[inline]
    fn publish_candidate(
        &mut self,
        slot: usize,
        earliest: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
    ) {
        let Some(w) = self.warps[slot].as_ref() else {
            return;
        };
        let Some(pc) = w.ibuf else {
            return;
        };
        if w.done || w.at_barrier || w.busy {
            return;
        }
        set_hint(&mut self.issue_ready, slot);
        let unit = class_index(ctx.decoded[pc as usize].class);
        if let Some(ci) = unit {
            set_hint(&mut self.class_next[ci], slot);
        }
        if self.issue_stall_until > earliest {
            self.issue_stall_until = if cfg.scoreboard {
                0
            } else {
                let accepts = unit.map_or(0, |ci| self.unit_free[ci]);
                self.issue_stall_until.min(accepts.max(earliest))
            };
        }
    }
}
