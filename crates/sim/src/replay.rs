//! The capture/replay seam between functional execution and timing.
//!
//! The core pipeline consumes exactly three dynamic facts per warp:
//! the sequence of issued PCs, the taken-lane mask of every executed
//! `Bra`, and the byte address of every active lane of every `Ld`/`St`.
//! Everything else the timing model touches — scheduling, scoreboards,
//! caches, coalescing, bank conflicts, DRAM — is a pure function of
//! those streams plus the static kernel image. `Tracer` exploits
//! that: in **capture** mode it records the three streams as the live
//! frontend produces them (zero effect on stats or timing), and in
//! **replay** mode it feeds them back so the whole functional value
//! layer (register reads/writes, memory contents) can be skipped while
//! every counter and golden bit pattern stays identical to the live
//! run (`tests/trace_replay.rs` pins this).
//!
//! The streams come from / go to [`gpusimpow_trace::KernelTrace`], the
//! versioned on-disk format; [`ReplaySource`] is the launch-scoped
//! index over a decoded trace that cores resolve warps against.

use std::collections::BTreeMap;

use gpusimpow_trace::{KernelTrace, WarpStream};

use crate::simt_stack::{lanes, LaneMask};

/// A decoded trace indexed for replay: resolves `(block_x, block_y,
/// warp)` to the recorded [`WarpStream`]. Borrowed by every core for
/// the duration of one launch via `LaunchCtx::replay`.
#[derive(Debug)]
pub struct ReplaySource<'t> {
    trace: &'t KernelTrace,
    index: BTreeMap<(u32, u32, u32), usize>,
}

impl<'t> ReplaySource<'t> {
    /// Indexes a trace's streams for per-warp lookup.
    pub fn new(trace: &'t KernelTrace) -> Self {
        let mut index = BTreeMap::new();
        for (i, s) in trace.streams.iter().enumerate() {
            index.insert((s.block_x, s.block_y, s.warp), i);
        }
        ReplaySource { trace, index }
    }

    /// The PCIe bytes the trace attributes to its launch, host-to-device
    /// then device-to-host.
    pub(crate) fn pcie_bytes(&self) -> (u64, u64) {
        (self.trace.h2d_bytes, self.trace.d2h_bytes)
    }

    fn lookup(&self, block_x: u32, block_y: u32, warp: u32) -> Option<usize> {
        self.index.get(&(block_x, block_y, warp)).copied()
    }

    fn stream(&self, idx: usize) -> &WarpStream {
        &self.trace.streams[idx]
    }
}

/// One warp's capture buffer: the three dynamic streams plus the
/// coordinates that key them in the trace.
#[derive(Debug, Clone)]
pub(crate) struct WarpCapture {
    pub block_x: u32,
    pub block_y: u32,
    pub warp: u32,
    pub pcs: Vec<u32>,
    pub branch_taken: Vec<u64>,
    pub mem_addrs: Vec<u32>,
}

impl WarpCapture {
    /// Converts into the trace-format stream record.
    pub(crate) fn into_stream(self) -> WarpStream {
        WarpStream {
            block_x: self.block_x,
            block_y: self.block_y,
            warp: self.warp,
            pcs: self.pcs,
            branch_taken: self.branch_taken,
            mem_addrs: self.mem_addrs,
        }
    }
}

/// Per-slot read position into a recorded stream.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    stream: usize,
    pc_pos: usize,
    bra_pos: usize,
    mem_pos: usize,
}

#[derive(Debug, Default)]
pub(crate) struct CaptureState {
    /// In-flight buffers, indexed by warp slot.
    bufs: Vec<Option<WarpCapture>>,
    /// Buffers of retired warps, in retirement order (the GPU sorts by
    /// block coordinates when it assembles the trace).
    finished: Vec<WarpCapture>,
}

#[derive(Debug, Default)]
pub(crate) struct ReplayState {
    /// In-flight cursors, indexed by warp slot. `None` means the slot
    /// is idle or its stream was missing (a recorded desync).
    cursors: Vec<Option<Cursor>>,
    /// First divergence between the trace and the pipeline, if any.
    /// Replay soldiers on with benign substitutes after a desync so the
    /// launch terminates; the GPU surfaces this as an error afterwards.
    desync: Option<String>,
}

/// Which frontend drives a launch (see [`Tracer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Frontend {
    /// Functional execution, nothing recorded.
    Live,
    /// Functional execution plus stream recording.
    Capture,
    /// Recorded streams instead of functional values.
    Replay,
}

/// A core's frontend mode for the current launch. `Off` is the live
/// frontend; `Capture` is live plus stream recording; `Replay` drives
/// the pipeline from a [`ReplaySource`] and skips functional values.
#[derive(Debug, Default)]
pub(crate) enum Tracer {
    #[default]
    Off,
    Capture(CaptureState),
    Replay(ReplayState),
}

impl Tracer {
    /// The frontend state for one launch on a core with `max_warps`
    /// warp slots.
    pub(crate) fn new(frontend: Frontend, max_warps: usize) -> Self {
        match frontend {
            Frontend::Live => Tracer::Off,
            Frontend::Capture => Tracer::Capture(CaptureState {
                bufs: (0..max_warps).map(|_| None).collect(),
                finished: Vec::new(),
            }),
            Frontend::Replay => Tracer::Replay(ReplayState {
                cursors: (0..max_warps).map(|_| None).collect(),
                desync: None,
            }),
        }
    }

    /// Whether the functional value layer should be skipped.
    #[inline]
    pub(crate) fn is_replay(&self) -> bool {
        matches!(self, Tracer::Replay(_))
    }

    /// Called at CTA dispatch for every warp placed at `slot`.
    pub(crate) fn attach_warp(
        &mut self,
        slot: usize,
        block_x: u32,
        block_y: u32,
        warp: u32,
        source: Option<&ReplaySource<'_>>,
    ) {
        match self {
            Tracer::Off => {}
            Tracer::Capture(cap) => {
                cap.bufs[slot] = Some(WarpCapture {
                    block_x,
                    block_y,
                    warp,
                    pcs: Vec::new(),
                    branch_taken: Vec::new(),
                    mem_addrs: Vec::new(),
                });
            }
            Tracer::Replay(rep) => match source.and_then(|s| s.lookup(block_x, block_y, warp)) {
                Some(stream) => {
                    rep.cursors[slot] = Some(Cursor {
                        stream,
                        pc_pos: 0,
                        bra_pos: 0,
                        mem_pos: 0,
                    });
                }
                None => {
                    rep.cursors[slot] = None;
                    if rep.desync.is_none() {
                        rep.desync = Some(format!(
                            "trace has no stream for block ({block_x}, {block_y}) warp {warp}"
                        ));
                    }
                }
            },
        }
    }

    /// Called once per issued warp instruction, with the issuing PC.
    /// Capture records it; replay checks it against the recorded
    /// stream (the load-bearing invariant behind every later lookup).
    #[inline]
    pub(crate) fn on_issue(&mut self, slot: usize, pc: u32, source: Option<&ReplaySource<'_>>) {
        match self {
            Tracer::Off => {}
            Tracer::Capture(cap) => {
                if let Some(buf) = cap.bufs[slot].as_mut() {
                    buf.pcs.push(pc);
                }
            }
            Tracer::Replay(rep) => {
                let Some(cursor) = rep.cursors[slot].as_mut() else {
                    return;
                };
                let Some(source) = source else { return };
                let stream = source.stream(cursor.stream);
                match stream.pcs.get(cursor.pc_pos) {
                    Some(&recorded) if recorded == pc => cursor.pc_pos += 1,
                    Some(&recorded) => {
                        cursor.pc_pos += 1;
                        if rep.desync.is_none() {
                            rep.desync = Some(format!(
                                "block ({}, {}) warp {}: issued pc {pc} but trace \
                                 recorded pc {recorded} at position {}",
                                stream.block_x,
                                stream.block_y,
                                stream.warp,
                                cursor.pc_pos - 1
                            ));
                        }
                    }
                    None => {
                        if rep.desync.is_none() {
                            rep.desync = Some(format!(
                                "block ({}, {}) warp {}: issued pc {pc} past the end of \
                                 the recorded stream ({} instructions)",
                                stream.block_x,
                                stream.block_y,
                                stream.warp,
                                stream.pcs.len()
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Resolves the taken-lane mask of an executed `Bra`. The live
    /// frontend passes the mask it computed from the condition
    /// registers; capture records it, replay substitutes the recorded
    /// mask (confined to the active lanes — the SIMT stack asserts
    /// `taken ⊆ active`, which a corrupt mask must not trip).
    #[inline]
    pub(crate) fn branch_mask(
        &mut self,
        slot: usize,
        computed: LaneMask,
        active: LaneMask,
        source: Option<&ReplaySource<'_>>,
    ) -> LaneMask {
        match self {
            Tracer::Off => computed,
            Tracer::Capture(cap) => {
                if let Some(buf) = cap.bufs[slot].as_mut() {
                    buf.branch_taken.push(computed);
                }
                computed
            }
            Tracer::Replay(rep) => {
                let Some(cursor) = rep.cursors[slot].as_mut() else {
                    return 0;
                };
                let Some(source) = source else { return 0 };
                let stream = source.stream(cursor.stream);
                match stream.branch_taken.get(cursor.bra_pos) {
                    Some(&recorded) => {
                        cursor.bra_pos += 1;
                        recorded & active
                    }
                    None => {
                        if rep.desync.is_none() {
                            rep.desync = Some(format!(
                                "block ({}, {}) warp {}: branch executed past the end of \
                                 the recorded taken-mask stream",
                                stream.block_x, stream.block_y, stream.warp
                            ));
                        }
                        // Fall through: guarantees forward progress.
                        0
                    }
                }
            }
        }
    }

    /// Capture: records the active lanes' addresses (ascending lane
    /// order) of one executed memory instruction. `addrs` is the
    /// dense per-lane scratch row.
    #[inline]
    pub(crate) fn record_addrs(&mut self, slot: usize, mask: LaneMask, addrs: &[u32]) {
        let Tracer::Capture(cap) = self else { return };
        let Some(buf) = cap.bufs[slot].as_mut() else {
            return;
        };
        buf.mem_addrs.extend(lanes(mask).map(|lane| addrs[lane]));
    }

    /// Replay: fills the active lanes of the scratch address row from
    /// the recorded stream, in the same ascending lane order capture
    /// used. Exhaustion substitutes address 0 and records the desync.
    pub(crate) fn fill_addrs(
        &mut self,
        slot: usize,
        mask: LaneMask,
        addrs: &mut [u32],
        source: Option<&ReplaySource<'_>>,
    ) {
        let Tracer::Replay(rep) = self else { return };
        let Some(cursor) = rep.cursors[slot].as_mut() else {
            addrs.fill(0);
            return;
        };
        let Some(source) = source else {
            addrs.fill(0);
            return;
        };
        let stream = source.stream(cursor.stream);
        for lane in lanes(mask) {
            match stream.mem_addrs.get(cursor.mem_pos) {
                Some(&a) => {
                    cursor.mem_pos += 1;
                    addrs[lane] = a;
                }
                None => {
                    addrs[lane] = 0;
                    if rep.desync.is_none() {
                        rep.desync = Some(format!(
                            "block ({}, {}) warp {}: memory access past the end of the \
                             recorded address stream ({} lane addresses)",
                            stream.block_x,
                            stream.block_y,
                            stream.warp,
                            stream.mem_addrs.len()
                        ));
                    }
                }
            }
        }
    }

    /// Called when a warp retires. Capture moves its buffer to the
    /// finished list; replay verifies the recorded stream was consumed
    /// exactly (a shorter live run is a desync too).
    pub(crate) fn finish_warp(&mut self, slot: usize, source: Option<&ReplaySource<'_>>) {
        match self {
            Tracer::Off => {}
            Tracer::Capture(cap) => {
                if let Some(buf) = cap.bufs[slot].take() {
                    cap.finished.push(buf);
                }
            }
            Tracer::Replay(rep) => {
                let Some(cursor) = rep.cursors[slot].take() else {
                    return;
                };
                let Some(source) = source else { return };
                let stream = source.stream(cursor.stream);
                if rep.desync.is_none()
                    && (cursor.pc_pos != stream.pcs.len()
                        || cursor.bra_pos != stream.branch_taken.len()
                        || cursor.mem_pos != stream.mem_addrs.len())
                {
                    rep.desync = Some(format!(
                        "block ({}, {}) warp {}: retired after {}/{} instructions, \
                         {}/{} branches, {}/{} lane addresses of the recorded stream",
                        stream.block_x,
                        stream.block_y,
                        stream.warp,
                        cursor.pc_pos,
                        stream.pcs.len(),
                        cursor.bra_pos,
                        stream.branch_taken.len(),
                        cursor.mem_pos,
                        stream.mem_addrs.len()
                    ));
                }
            }
        }
    }

    /// Drains the finished capture buffers (capture mode only).
    pub(crate) fn take_captured(&mut self) -> Vec<WarpCapture> {
        match self {
            Tracer::Capture(cap) => std::mem::take(&mut cap.finished),
            _ => Vec::new(),
        }
    }

    /// The first recorded desync, if any (replay mode only).
    pub(crate) fn take_desync(&mut self) -> Option<String> {
        match self {
            Tracer::Replay(rep) => rep.desync.take(),
            _ => None,
        }
    }
}
