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
//! proven silent no-ops. All masks are indexed by warp slot and cover
//! slots 0–63 only; a core with more than 64 warp slots runs the same
//! walks unhinted (`SlotWalk` probes every slot).
//!
//! * `issue_ready` — bit `s` set means warp slot `s` *might* issue (or,
//!   under a scoreboard, might count a dependency probe). A conservative
//!   superset — stale set bits only cost a wasted probe, while a clear
//!   bit is a proof that probing the slot would be a silent no-op. Bits
//!   are cleared only on sticky failures (see
//!   `Core::clear_issue_hint_if_blocked`) and re-set by the events that
//!   can end them: i-buffer fill, writeback retire, barrier release and
//!   CTA dispatch.
//! * `issue_stall_until` — cycles below this are proven to repeat the
//!   last round-robin scan's outcome, so the scan is skipped. Engaged
//!   when a scan exhausts its candidates with every failed probe
//!   silently blocked on a busy execution unit (barrel) — or, under a
//!   scoreboard, with nothing issued. Either kind of failure lapses only
//!   when a unit frees (`Core::unit_wake`, the bound) or at an event
//!   that can create a *new* issue candidate or lift a dependency
//!   (i-buffer fill, writeback retire, barrier release, CTA dispatch),
//!   which re-arms the scan by resetting or refining this at its
//!   `set_hint` site — under a scoreboard always by resetting. The
//!   scoreboard's failed probes count `ScoreboardReads`, so a sleeping
//!   core replays them as a rate: `stall_reads`, the reads the engaging
//!   scan counted (0 for a scan that issued), added every skipped cycle.
//!   The dense reference (`LaunchCtx::dense`) never engages it.
//! * `class_next[c]` — per-unit-class issue candidates: bit `s` is set
//!   iff warp slot `s` currently satisfies *every* probe precondition
//!   short of unit availability — live, not done, not parked at a
//!   barrier, not executing (barrel `busy`) — and its i-buffer holds a
//!   decoded instruction of unit class `c` (see `class_index`). Under
//!   that invariant, probing a masked slot while unit `c` is busy is
//!   *proven* to return a silent `IssueProbe::UnitBusy`, so the hinted
//!   issue scan folds such slots into its gap distance instead of
//!   probing them — generalizing the whole-scan `issue_stall_until`
//!   short-circuit to per-warp, per-unit-class granularity. Maintained
//!   at the i-buffer fill, the writeback retire and the barrier release
//!   (`Core::publish_class` sets the bit once nothing withholds it), the
//!   issue (the i-buffer empties: clear), and the launch boundary.
//!   Scoreboard configs maintain but never consult these masks: their
//!   failed probes count `ScoreboardReads`, so skipping them would
//!   change the counters.
//! * `fetch_ready` — same contract as `issue_ready`: bit `s` set means
//!   slot `s` might fetch. Every fetch failure is sticky (an empty
//!   i-buffer can only reappear via issue, a freed slot via dispatch),
//!   so failed probes always clear their bit.

use std::collections::BTreeMap;

use gpusimpow_isa::{InstrClass, Kernel, LaunchConfig, Pc, Reg};

use crate::cache::{Mshr, SimCache};
use crate::config::GpuConfig;
use crate::events::ActivityVector;
use crate::mem::GpuMemory;
use crate::replay::{Frontend, ReplaySource, Tracer, WarpCapture};
use crate::simt_stack::{low_lanes, SimtStack};
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
#[derive(Debug)]
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

/// Sets a scheduler-hint bit; slots beyond 64 are never hinted.
#[inline]
fn set_hint(mask: &mut u64, slot: usize) {
    if slot < 64 {
        *mask |= 1u64 << slot;
    }
}

/// Clears a scheduler-hint bit; slots beyond 64 are never hinted.
#[inline]
fn clear_hint(mask: &mut u64, slot: usize) {
    if slot < 64 {
        *mask &= !(1u64 << slot);
    }
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
/// two-level active set): up to `n` consecutive positions from a
/// rotating pointer, wrapping at `n`. It serves the issue scan, the
/// active-set promotion and the fetch scan, hinted or not.
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
            pos: rr % n,
            scanned: 0,
        }
    }

    /// The next position to probe, or `None` once `n` positions are
    /// spent. With `hints` (cores of at most 64 slots) the walk jumps to
    /// the next set bit: a hint mask is a superset of the slots whose
    /// probe could do anything observable, so jumping between set bits
    /// probes exactly the slots the full walk would have probed
    /// non-silently, in the same order and with the same budget
    /// accounting (skipped gaps still count). The mask is passed per
    /// step because probes change it mid-walk.
    #[inline]
    fn next(&mut self, hints: Option<u64>) -> Option<usize> {
        let (slot, dist) = match hints {
            None => (self.pos, 0),
            Some(0) => return None,
            Some(mask) => {
                debug_assert!(self.n <= 64 && mask >> (self.n - 1) <= 1);
                let ahead = (mask >> self.pos) << self.pos;
                if ahead != 0 {
                    let bit = ahead.trailing_zeros() as usize;
                    (bit, bit - self.pos)
                } else {
                    let bit = mask.trailing_zeros() as usize;
                    (bit, self.n - self.pos + bit)
                }
            }
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
    mshr: Mshr<u32>,
    groups: BTreeMap<u32, LoadGroup>,
    next_group: u32,
    out_requests: Vec<MemRequest>,
    completed_ctas: u64,
    /// Block coordinates of each resident CTA, by CTA slot.
    cta_coords: BTreeMap<usize, (u32, u32)>,
    /// Global-memory store overlay filled during the compute phase
    /// (word address → value) and applied by [`Core::commit_stores`]
    /// in the commit phase. Loads from this core see it
    /// (read-your-own-writes); other cores see the stores one cycle
    /// later, whatever order the cores are ticked in.
    store_buf: BTreeMap<u32, u32>,
    /// Whether the current/last tick did observable work.
    work: bool,
    /// The low `max_warps` bits when the hint masks cover every warp
    /// slot, `None` on cores with more than 64 slots (whose walks probe
    /// every slot). See the module docs, "Scheduler hints".
    hint_window: Option<u64>,
    /// Issue-scan hint mask (module docs, "Scheduler hints").
    issue_ready: u64,
    /// Issue-scan sleep (module docs, "Scheduler hints").
    issue_stall_until: u64,
    /// `ScoreboardReads` credited per cycle while the issue scan sleeps
    /// (module docs, "Scheduler hints"); written at every engage.
    stall_reads: u64,
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
            // Generously sized: the pending-request table of the
            // coalescer merges requests chip-side in our model.
            mshr: Mshr::new(128, 4096),
            groups: BTreeMap::new(),
            next_group: 0,
            out_requests: Vec::new(),
            completed_ctas: 0,
            cta_coords: BTreeMap::new(),
            store_buf: BTreeMap::new(),
            work: false,
            hint_window: (max_warps <= 64).then(|| low_lanes(max_warps)),
            issue_ready: !0,
            issue_stall_until: 0,
            stall_reads: 0,
            class_next: [0; 4],
            fetch_ready: !0,
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
        self.resident_ctas() > 0 || !self.events.is_empty() || !self.groups.is_empty()
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
        self.issue_ready = !0;
        self.issue_stall_until = 0;
        self.class_next = [0; 4];
        self.fetch_ready = !0;
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
    /// phase. Called per core, in core order, once every core has
    /// ticked the cycle; buffered addresses are distinct words
    /// (the overlay keeps the last write per word), so the application
    /// order within one core cannot affect the result — and the ordered
    /// overlay drains in ascending address order anyway, so the sequence
    /// of `store_word` calls is itself deterministic (simlint's
    /// `nondeterministic_collection` pass bans order-randomised maps in
    /// this crate outright).
    pub fn commit_stores(&mut self, mem: &mut GpuMemory) {
        while let Some((addr, value)) = self.store_buf.pop_first() {
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

    /// Earliest future cycle at which any execution unit frees, or
    /// `u64::MAX` when none is busy (then only a hint set-site event
    /// can create issue work).
    #[inline]
    fn unit_wake(&self, cycle: u64) -> u64 {
        let busy = self.unit_free.iter().copied().filter(|&free| free > cycle);
        busy.min().unwrap_or(u64::MAX)
    }

    /// The earliest future cycle at which this core could make progress
    /// again, assuming no memory responses arrive: the next writeback
    /// event or pipeline-busy release. `None` when nothing is scheduled
    /// (the core is idle, or deadlocked at a barrier).
    pub fn next_wake(&self, cycle: u64) -> Option<u64> {
        let unit = self.unit_wake(cycle);
        let wake = self.events.next_fire().map_or(unit, |w| w.min(unit));
        (wake != u64::MAX).then_some(wake)
    }

    /// Advances the core by one shader cycle — the *compute* phase of
    /// the two-phase step. The core only reads shared global memory;
    /// its stores are buffered in the overlay and applied by
    /// [`Core::commit_stores`] in the commit phase, so a tick never
    /// observes another core's same-cycle stores and compute phases
    /// have no cross-core coupling (what the per-core wake gating in
    /// `Gpu::launch_impl` relies on).
    ///
    /// Returns `true` when the core did observable work (including
    /// failed-but-counted scoreboard probes, probed or replayed by an
    /// issue-stall sleep); `false` means the tick was a provable no-op,
    /// and so is every tick before [`Core::next_wake`] unless a
    /// dispatch or a memory response reaches the core first — the
    /// cycle loop does not tick it until then.
    pub fn tick(
        &mut self,
        cycle: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
        mem: &GpuMemory,
    ) -> bool {
        self.work = false;
        // Fully idle core: no resident CTAs (CTA completion frees every
        // warp slot, so the warp table is empty too), no scheduled
        // events, no outstanding memory groups. Each stage below would
        // scan empty structures and mutate nothing — skip them outright.
        // This is the dominant case for launches that occupy only a few
        // cores (the paper's Fig. 4 cluster-power sweep).
        if self.cta_coords.is_empty() && self.events.is_empty() && self.groups.is_empty() {
            return false;
        }
        // The stage entry points (and `execute`/`execute_mem` behind
        // `try_issue`) are `#[inline]`: each has exactly one call site,
        // in a different module — hence a different codegen unit — than
        // its body, and the call overhead is measurable per cycle.
        self.retire(cycle, cfg, ctx);
        self.issue_stage(cycle, cfg, ctx, mem);
        self.fetch_stage(cycle, cfg, ctx);
        self.work
    }

    /// Publishes `slot`'s fetched instruction in its unit-class mask —
    /// but only for a warp that could actually probe to `UnitBusy` right
    /// now. For a still-executing or barrier-parked warp the bit is
    /// withheld; the retire/release site that lifts the block calls this
    /// again (fetch ignores `busy` and `at_barrier`, so the i-buffer may
    /// have refilled meanwhile).
    #[inline]
    fn publish_class(&mut self, slot: usize, ctx: &LaunchCtx<'_>) {
        let Some(w) = self.warps[slot].as_ref() else {
            return;
        };
        if w.busy || w.at_barrier {
            return;
        }
        if let Some(pc) = w.ibuf {
            if let Some(ci) = class_index(ctx.decoded[pc as usize].class) {
                set_hint(&mut self.class_next[ci], slot);
            }
        }
    }
}
