//! Event-driven uncore: the NoC links, shared L2 bank, memory
//! controllers and GDDR5 channels behind a skip-ahead engine.
//!
//! The per-cycle simulator used to tick every uncore component every
//! shader cycle. This module replaces that with a discrete-event
//! formulation: each component exposes `next_event(cycle)` — the
//! earliest future cycle at which ticking it could have an observable
//! effect — and the engine only runs a component's work when its cached
//! event cycle is due. Cycles in between are *provably* no-ops, so the
//! event engine is bit-identical to the dense loop by construction (the
//! determinism and windowed-sampling test suites enforce this).
//!
//! # Clock domains
//!
//! Three domains are coupled by fractional accumulators, exactly as in
//! the dense loop: every shader cycle adds `1 / shader_ratio` to the
//! uncore accumulator, and every uncore cycle adds
//! `dram_mhz / uncore_mhz` to the DRAM accumulator. The accumulator
//! walk *cannot* be jumped in closed form — `shader_ratio` (2.47 for
//! the GT240) is not exactly representable in binary floating point, so
//! bit-identity requires replaying the exact `f64` addition sequence.
//! [`Uncore::advance`] therefore walks the accumulators one shader
//! cycle at a time (a few flops per cycle) while skipping all component
//! work between events; that walk is the engine's only per-cycle cost.
//!
//! # Ordering rules
//!
//! Within one uncore cycle the phases run in the fixed order of the
//! dense loop: request link delivery → routing (L2 probe / MC enqueue)
//! → L2 hit-pipe drain → DRAM cycles (per channel, in channel order:
//! admit parked requests, tick, pop completions) → response link
//! delivery.
//! Event caches are refreshed at the point state changes (pushes reset
//! them, processed events recompute them), so a push and its same-cycle
//! consequences are observed exactly where the dense loop observed
//! them. These rules also preserve the commit ordering of the
//! two-phase core step: requests enter [`Uncore::push_request`] in
//! core-id order and the engine never reorders them.
//!
//! # Memory-controller back-pressure
//!
//! A request routed to a channel whose MC queue is full is parked in
//! that channel's FIFO. The dense loop retried every parked request on
//! every DRAM cycle; here a retry is an event like any other. A queue
//! only shrinks inside [`DramChannel::tick`] at one of the channel's
//! own event cycles, so every retry in between would have failed and
//! parked requests add nothing to the channel's `next_event`. The one
//! extra event source is a channel left with a free slot *and* a
//! non-empty FIFO: its head is admitted at the top of the next DRAM
//! cycle, exactly where the dense loop's retry succeeded. Whether a
//! retry succeeds depends only on the request's own channel and on
//! older requests parked for that channel, so per-channel FIFOs make
//! the dense loop's accept decisions in the dense loop's order.

use std::collections::VecDeque;

use crate::cache::{L2Bank, Probe};
use crate::config::GpuConfig;
use crate::core::MemRequest;
use crate::dram::{DramChannel, DramRequest};
use crate::events::{ActivityVector, EventKind as Ev};
use crate::noc::Link;

/// Token routed with each memory request through the uncore and
/// returned to the GPU when a response arrives back at a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteToken {
    /// Issuing core (responses are delivered back to it).
    pub core: usize,
    /// Request segment base address.
    pub addr: u32,
}

/// The memory subsystem of one GPU, advanced event-to-event.
///
/// Built fresh per kernel launch (the uncore must drain before a launch
/// completes, so there is no cross-launch state besides stats, which
/// live in the caller-owned [`ActivityVector`]).
#[derive(Debug)]
pub struct Uncore {
    mem_channels: usize,
    /// NoC flit size in bytes (clamped to at least 1).
    flit: usize,

    req_link: Link<RouteToken>,
    /// Full request metadata, queued in the same order as the link's
    /// tokens (the link carries only routing tokens).
    req_meta: VecDeque<MemRequest>,
    resp_link: Link<RouteToken>,
    l2: Option<L2Bank<RouteToken>>,
    channels: Vec<DramChannel<RouteToken>>,
    /// Requests bounced off a full MC queue, one FIFO per channel,
    /// admitted in order as the channel's queue frees slots.
    parked: Vec<VecDeque<DramRequest<RouteToken>>>,
    /// Total entries across `parked`.
    parked_count: usize,

    // Clock-domain state (see the module docs).
    uncore_cycle: u64,
    dram_cycle: u64,
    uacc: f64,
    dacc: f64,
    upershader: f64,
    dram_per_uncore: f64,

    // Cached event cycles. An out-of-date cache may only ever be *early*
    // (a stale-due block runs as a no-op); it must never be late. Pushes
    // reset the relevant cache to 0 ("due immediately"), processing a
    // due block recomputes it exactly.
    next_req_event: u64,
    next_l2_event: u64,
    /// In DRAM-cycle units, unlike the other three.
    next_dram_event: u64,
    next_resp_event: u64,

    // Reusable scratch, so the steady state allocates nothing.
    scratch_req: Vec<RouteToken>,
    scratch_done: Vec<RouteToken>,
}

impl Uncore {
    /// Builds the uncore for `cfg` with empty queues and clocks at zero.
    pub fn new(cfg: &GpuConfig) -> Self {
        let channels: Vec<DramChannel<RouteToken>> = (0..cfg.mem_channels)
            .map(|_| DramChannel::new(cfg.dram, cfg.mc_queue_depth))
            .collect();
        let next_dram_event = channels
            .iter()
            .map(|c| c.next_event(0))
            .min()
            .unwrap_or(u64::MAX);
        Uncore {
            mem_channels: cfg.mem_channels,
            flit: cfg.noc_flit_bytes.max(1),
            req_link: Link::new(cfg.noc_latency as u64, cfg.noc_bandwidth_flits),
            req_meta: VecDeque::new(),
            resp_link: Link::new(cfg.noc_latency as u64, cfg.noc_bandwidth_flits),
            l2: cfg.l2.map(|l2cfg| {
                L2Bank::new(
                    l2cfg.capacity_bytes,
                    l2cfg.line_bytes as u32,
                    l2cfg.ways,
                    l2cfg.latency as u64,
                )
            }),
            parked: vec![VecDeque::new(); channels.len()],
            parked_count: 0,
            channels,
            uncore_cycle: 0,
            dram_cycle: 0,
            uacc: 0.0,
            dacc: 0.0,
            upershader: 1.0 / cfg.shader_ratio,
            dram_per_uncore: cfg.dram_mhz / cfg.uncore_mhz,
            next_req_event: u64::MAX,
            next_l2_event: u64::MAX,
            next_dram_event,
            next_resp_event: u64::MAX,
            scratch_req: Vec::new(),
            scratch_done: Vec::new(),
        }
    }

    /// Uncore-clock cycles elapsed since construction.
    pub fn uncore_cycles(&self) -> u64 {
        self.uncore_cycle
    }

    /// DRAM-clock cycles elapsed since construction.
    pub fn dram_cycles(&self) -> u64 {
        self.dram_cycle
    }

    /// `true` when nothing is queued, in flight, or completing anywhere
    /// in the memory subsystem. (DRAM refresh still recurs on an idle
    /// uncore; it is pure timing/stats activity with no messages.)
    pub fn is_idle(&self) -> bool {
        self.req_link.is_empty()
            && self.resp_link.is_empty()
            && self.l2.as_ref().is_none_or(L2Bank::is_empty)
            && self.parked_count == 0
            && self.channels.iter().all(DramChannel::is_idle)
    }

    /// Injects a core's memory request into the request network,
    /// charging NoC flit/transfer stats exactly as the dense loop did
    /// (writes carry their payload, reads are a single head flit).
    pub fn push_request(&mut self, req: MemRequest, stats: &mut ActivityVector) {
        let flits = if req.write {
            1 + (req.bytes as usize).div_ceil(self.flit)
        } else {
            1
        };
        stats[Ev::NocFlits] += flits as u64;
        stats[Ev::NocTransfers] += 1;
        self.req_link.push(
            RouteToken {
                core: req.core,
                addr: req.addr,
            },
            flits,
        );
        self.req_meta.push_back(req);
        // The link has waiting flits: due from the next uncore cycle.
        self.next_req_event = 0;
    }

    /// Advances the uncore by up to `max_shader_cycles` shader cycles
    /// and returns how many it consumed (always at least 1).
    ///
    /// Stops early after a shader cycle in which either
    ///
    /// * a response reached a core — the tokens are appended to
    ///   `responses` in delivery order and belong to the *last consumed*
    ///   shader cycle (the caller must hand them to
    ///   `Core::mem_response` with exactly that cycle), or
    /// * the uncore drained completely after starting non-idle — so a
    ///   caller fast-forwarding through a store drain regains control
    ///   the moment the termination condition can fire.
    ///
    /// Callers bound `max_shader_cycles` so a jump never crosses a
    /// sampling-window boundary or the watchdog trip cycle.
    pub fn advance(
        &mut self,
        max_shader_cycles: u64,
        responses: &mut Vec<RouteToken>,
        stats: &mut ActivityVector,
    ) -> u64 {
        debug_assert!(max_shader_cycles >= 1, "advance needs a non-empty span");
        let watch_drain = !self.is_idle();
        let mut consumed = 0u64;
        while consumed < max_shader_cycles {
            consumed += 1;
            // The exact f64 accumulator walk (see the module docs) —
            // this runs even when every component is quiescent.
            self.uacc += self.upershader;
            while self.uacc >= 1.0 {
                self.uacc -= 1.0;
                self.uncore_cycle += 1;
                self.step_uncore_cycle(responses, stats);
            }
            if !responses.is_empty() {
                break;
            }
            if watch_drain && self.is_idle() {
                break;
            }
        }
        consumed
    }

    /// One uncore cycle, with each phase guarded by its event cache.
    fn step_uncore_cycle(&mut self, responses: &mut Vec<RouteToken>, stats: &mut ActivityVector) {
        let uc = self.uncore_cycle;
        let mut dram_pushed = false;

        // --- requests arrive at the L2 / memory controllers ------------
        if uc >= self.next_req_event {
            self.req_link.tick(uc);
            let mut tokens = std::mem::take(&mut self.scratch_req);
            self.req_link.pop_ready_into(uc, &mut tokens);
            for token in tokens.drain(..) {
                let req = self
                    .req_meta
                    .pop_front()
                    .expect("request metadata in link order");
                debug_assert_eq!(req.addr, token.addr);
                dram_pushed |= self.route_request(req, token, uc, stats);
            }
            self.scratch_req = tokens;
            self.next_req_event = self.req_link.next_event(uc).unwrap_or(u64::MAX);
        }

        // --- L2 hit pipeline drains into the response network -----------
        if uc >= self.next_l2_event {
            if let Some(l2) = &mut self.l2 {
                let mut tokens = std::mem::take(&mut self.scratch_done);
                l2.pop_ready_into(uc, &mut tokens);
                for token in tokens.drain(..) {
                    let flits = 1 + 128 / self.flit;
                    stats[Ev::NocFlits] += flits as u64;
                    stats[Ev::NocTransfers] += 1;
                    self.resp_link.push(token, flits);
                    self.next_resp_event = 0;
                }
                self.scratch_done = tokens;
            }
            self.next_l2_event = self
                .l2
                .as_ref()
                .and_then(L2Bank::next_ready)
                .unwrap_or(u64::MAX);
        }

        // --- DRAM clock domain ------------------------------------------
        if dram_pushed {
            // Routing may have enqueued onto a channel this very uncore
            // cycle; the DRAM walk below must see the fresh event.
            self.recompute_dram_event();
        }
        self.dacc += self.dram_per_uncore;
        while self.dacc >= 1.0 {
            self.dacc -= 1.0;
            self.dram_cycle += 1;
            if self.dram_cycle >= self.next_dram_event {
                self.step_dram_cycle(stats);
                self.recompute_dram_event();
            }
        }

        // --- responses arrive back at the cores -------------------------
        if uc >= self.next_resp_event {
            self.resp_link.tick(uc);
            self.resp_link.pop_ready_into(uc, responses);
            self.next_resp_event = self.resp_link.next_event(uc).unwrap_or(u64::MAX);
        }
    }

    /// One due DRAM cycle: every channel admits parked requests into
    /// its freed slots, ticks and drains completions, in channel order.
    /// (The dense loop ran all admissions before the first tick; an
    /// admission touches only its own channel and a commutative
    /// counter, so doing it per channel is the same computation.)
    fn step_dram_cycle(&mut self, stats: &mut ActivityVector) {
        let dc = self.dram_cycle;
        for i in 0..self.channels.len() {
            while self.channels[i].can_accept() {
                let Some(req) = self.parked[i].pop_front() else {
                    break;
                };
                self.parked_count -= 1;
                self.channels[i].push(req, stats);
            }
            self.channels[i].tick(dc, stats);
            let mut tokens = std::mem::take(&mut self.scratch_done);
            self.channels[i].pop_completed_into(dc, &mut tokens);
            for token in tokens.drain(..) {
                if let Some(l2) = &mut self.l2 {
                    l2.install(token.addr);
                    stats[Ev::L2Fills] += 1;
                }
                let flits = 1 + 128 / self.flit;
                stats[Ev::NocFlits] += flits as u64;
                stats[Ev::NocTransfers] += 1;
                self.resp_link.push(token, flits);
                self.next_resp_event = 0;
            }
            self.scratch_done = tokens;
        }
    }

    /// Refreshes the DRAM event cache from the channels. A parked
    /// request is due only when its channel has a slot for it (the next
    /// DRAM cycle admits it); behind a full queue it waits for the
    /// channel event that frees one.
    fn recompute_dram_event(&mut self) {
        let now = self.dram_cycle;
        self.next_dram_event = self
            .channels
            .iter()
            .zip(&self.parked)
            .map(|(channel, parked)| {
                if !parked.is_empty() && channel.can_accept() {
                    now + 1
                } else {
                    channel.next_event(now)
                }
            })
            .min()
            .unwrap_or(u64::MAX);
    }

    /// L2 probe + forwarding for one request, exactly as the dense loop:
    /// write-through writes probe and always forward, read hits enter
    /// the bank's return pipe, read misses (or no L2) go to DRAM.
    /// Returns `true` when a request entered a channel (the DRAM event
    /// cache must be refreshed); parking one behind a full queue moves
    /// no channel's next event.
    fn route_request(
        &mut self,
        req: MemRequest,
        token: RouteToken,
        uncore_cycle: u64,
        stats: &mut ActivityVector,
    ) -> bool {
        let to_dram = |req: &MemRequest, token: RouteToken| DramRequest {
            write: req.write,
            addr: req.addr,
            bytes: req.bytes,
            token,
        };
        if let Some(l2) = &mut self.l2 {
            stats[Ev::L2Accesses] += 1;
            if req.write {
                let _ = l2.write(req.addr);
            } else if l2.read(req.addr) == Probe::Hit {
                let ready = l2.push_hit(uncore_cycle, token);
                self.next_l2_event = self.next_l2_event.min(ready);
                return false;
            } else {
                stats[Ev::L2Misses] += 1;
            }
        }
        // 256-byte channel interleave.
        let ch = ((req.addr >> 8) as usize) % self.mem_channels;
        let dreq = to_dram(&req, token);
        // A free slot goes to the newcomer even when older requests
        // are parked for this channel, as in the dense loop: they are
        // retried at the top of a DRAM cycle, this runs between two.
        let accepted = self.channels[ch].can_accept();
        if accepted {
            self.channels[ch].push(dreq, stats);
        } else {
            self.parked[ch].push_back(dreq);
            self.parked_count += 1;
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn read_req(core: usize, addr: u32) -> MemRequest {
        MemRequest {
            core,
            write: false,
            addr,
            bytes: 128,
        }
    }

    fn write_req(core: usize, addr: u32) -> MemRequest {
        MemRequest {
            core,
            write: true,
            addr,
            bytes: 128,
        }
    }

    /// Dense reference: the old per-cycle uncore loop, reconstructed
    /// verbatim from the pre-event-engine `Gpu::launch_impl`.
    struct DenseUncore {
        flit: usize,
        mem_channels: usize,
        req_link: Link<RouteToken>,
        req_meta: VecDeque<MemRequest>,
        resp_link: Link<RouteToken>,
        l2: Option<(crate::cache::SimCache, u64)>,
        l2_out: VecDeque<(u64, RouteToken)>,
        channels: Vec<DramChannel<RouteToken>>,
        dram_overflow: VecDeque<(usize, DramRequest<RouteToken>)>,
        uncore_cycle: u64,
        dram_cycle: u64,
        uacc: f64,
        dacc: f64,
        upershader: f64,
        dram_per_uncore: f64,
    }

    impl DenseUncore {
        fn new(cfg: &GpuConfig) -> Self {
            DenseUncore {
                flit: cfg.noc_flit_bytes.max(1),
                mem_channels: cfg.mem_channels,
                req_link: Link::new(cfg.noc_latency as u64, cfg.noc_bandwidth_flits),
                req_meta: VecDeque::new(),
                resp_link: Link::new(cfg.noc_latency as u64, cfg.noc_bandwidth_flits),
                l2: cfg.l2.map(|l2cfg| {
                    (
                        crate::cache::SimCache::new(
                            l2cfg.capacity_bytes,
                            l2cfg.line_bytes as u32,
                            l2cfg.ways,
                        ),
                        l2cfg.latency as u64,
                    )
                }),
                l2_out: VecDeque::new(),
                channels: (0..cfg.mem_channels)
                    .map(|_| DramChannel::new(cfg.dram, cfg.mc_queue_depth))
                    .collect(),
                dram_overflow: VecDeque::new(),
                uncore_cycle: 0,
                dram_cycle: 0,
                uacc: 0.0,
                dacc: 0.0,
                upershader: 1.0 / cfg.shader_ratio,
                dram_per_uncore: cfg.dram_mhz / cfg.uncore_mhz,
            }
        }

        fn push_request(&mut self, req: MemRequest, stats: &mut ActivityVector) {
            let flits = if req.write {
                1 + (req.bytes as usize).div_ceil(self.flit)
            } else {
                1
            };
            stats[Ev::NocFlits] += flits as u64;
            stats[Ev::NocTransfers] += 1;
            self.req_link.push(
                RouteToken {
                    core: req.core,
                    addr: req.addr,
                },
                flits,
            );
            self.req_meta.push_back(req);
        }

        fn shader_cycle(&mut self, responses: &mut Vec<RouteToken>, stats: &mut ActivityVector) {
            self.uacc += self.upershader;
            while self.uacc >= 1.0 {
                self.uacc -= 1.0;
                self.uncore_cycle += 1;
                let uc = self.uncore_cycle;
                self.req_link.tick(uc);
                for token in self.req_link.pop_ready(uc) {
                    let req = self.req_meta.pop_front().expect("meta in order");
                    if let Some((cache, latency)) = &mut self.l2 {
                        stats[Ev::L2Accesses] += 1;
                        if req.write {
                            let _ = cache.write(req.addr);
                        } else if cache.read(req.addr) == Probe::Hit {
                            self.l2_out.push_back((uc + *latency, token));
                            continue;
                        } else {
                            stats[Ev::L2Misses] += 1;
                        }
                    }
                    let ch = ((req.addr >> 8) as usize) % self.mem_channels;
                    let dreq = DramRequest {
                        write: req.write,
                        addr: req.addr,
                        bytes: req.bytes,
                        token,
                    };
                    if self.channels[ch].can_accept() {
                        self.channels[ch].push(dreq, stats);
                    } else {
                        self.dram_overflow.push_back((ch, dreq));
                    }
                }
                while let Some((ready, token)) = self.l2_out.front().copied() {
                    if ready <= uc {
                        self.l2_out.pop_front();
                        let flits = 1 + 128 / self.flit;
                        stats[Ev::NocFlits] += flits as u64;
                        stats[Ev::NocTransfers] += 1;
                        self.resp_link.push(token, flits);
                    } else {
                        break;
                    }
                }
                self.dacc += self.dram_per_uncore;
                while self.dacc >= 1.0 {
                    self.dacc -= 1.0;
                    self.dram_cycle += 1;
                    for _ in 0..self.dram_overflow.len() {
                        let (ch, req) = self.dram_overflow.pop_front().expect("len checked");
                        if self.channels[ch].can_accept() {
                            self.channels[ch].push(req, stats);
                        } else {
                            self.dram_overflow.push_back((ch, req));
                        }
                    }
                    for i in 0..self.channels.len() {
                        self.channels[i].tick(self.dram_cycle, stats);
                        for token in self.channels[i].pop_completed(self.dram_cycle) {
                            if let Some((cache, _)) = &mut self.l2 {
                                cache.install(token.addr);
                                stats[Ev::L2Fills] += 1;
                            }
                            let flits = 1 + 128 / self.flit;
                            stats[Ev::NocFlits] += flits as u64;
                            stats[Ev::NocTransfers] += 1;
                            self.resp_link.push(token, flits);
                        }
                    }
                }
                self.resp_link.tick(uc);
                responses.extend(self.resp_link.pop_ready(uc));
            }
        }

        fn is_idle(&self) -> bool {
            self.req_link.is_empty()
                && self.resp_link.is_empty()
                && self.l2_out.is_empty()
                && self.dram_overflow.is_empty()
                && self.channels.iter().all(DramChannel::is_idle)
        }
    }

    /// Drives the event engine and the dense reference through the same
    /// request schedule and asserts bit-identical responses (token +
    /// shader-cycle of delivery) and stats. Returns the most requests
    /// the dense reference ever had parked behind full MC queues.
    fn check_equivalence(
        cfg: GpuConfig,
        requests: &[(u64, MemRequest)],
        total_cycles: u64,
    ) -> usize {
        let mut ev = Uncore::new(&cfg);
        let mut ev_stats = ActivityVector::new();
        let mut ev_resps: Vec<(u64, RouteToken)> = Vec::new();
        let mut dense = DenseUncore::new(&cfg);
        let mut dn_stats = ActivityVector::new();
        let mut dn_resps: Vec<(u64, RouteToken)> = Vec::new();
        let mut scratch = Vec::new();
        let mut peak_parked = 0;

        let mut cycle = 0u64;
        while cycle < total_cycles {
            for (at, req) in requests {
                if *at == cycle {
                    ev.push_request(*req, &mut ev_stats);
                    dense.push_request(*req, &mut dn_stats);
                }
            }
            // Event engine: jump as far as the next request injection
            // allows; it stops early on every response delivery.
            let next_push = requests
                .iter()
                .map(|(at, _)| *at)
                .filter(|at| *at > cycle)
                .min()
                .unwrap_or(total_cycles)
                .min(total_cycles);
            scratch.clear();
            let consumed = ev.advance(next_push - cycle, &mut scratch, &mut ev_stats);
            let delivered_at = cycle + consumed - 1;
            ev_resps.extend(scratch.iter().map(|t| (delivered_at, *t)));
            // Dense reference: every shader cycle, one at a time.
            for c in cycle..cycle + consumed {
                scratch.clear();
                dense.shader_cycle(&mut scratch, &mut dn_stats);
                dn_resps.extend(scratch.iter().map(|t| (c, *t)));
                peak_parked = peak_parked.max(dense.dram_overflow.len());
            }
            cycle += consumed;
        }
        assert_eq!(ev_resps, dn_resps, "response schedule diverged");
        assert_eq!(ev_stats, dn_stats, "activity stats diverged");
        assert_eq!(ev.uncore_cycles(), dense.uncore_cycle);
        assert_eq!(ev.dram_cycles(), dense.dram_cycle);
        assert!(ev.is_idle(), "workload should drain");
        peak_parked
    }

    fn workload() -> Vec<(u64, MemRequest)> {
        let mut reqs = Vec::new();
        // A burst up front, a write train, then sparse stragglers —
        // exercises link bandwidth sharing, channel interleave, row
        // conflicts and (for GTX580) the L2 hit pipe via repeats.
        for i in 0..8u32 {
            reqs.push((0, read_req(i as usize % 4, i * 0x100)));
        }
        for i in 0..4u32 {
            reqs.push((3, write_req(0, 0x8000 + i * 0x40)));
        }
        reqs.push((40, read_req(1, 0x100))); // repeat: L2 hit after fill
        reqs.push((41, read_req(2, 0x100)));
        reqs.push((900, read_req(3, 0x20000)));
        reqs
    }

    #[test]
    fn event_engine_matches_dense_loop_gt240() {
        check_equivalence(GpuConfig::gt240(), &workload(), 30_000);
    }

    #[test]
    fn event_engine_matches_dense_loop_gtx580() {
        check_equivalence(GpuConfig::gtx580(), &workload(), 30_000);
    }

    #[test]
    fn long_idle_spans_replay_refresh_exactly() {
        // Nothing in flight for most of the span: refresh bookkeeping
        // must still land on the exact same DRAM cycles.
        let reqs = vec![(0u64, read_req(0, 0)), (120_000u64, read_req(0, 0x40))];
        check_equivalence(GpuConfig::gt240(), &reqs, 200_000);
    }

    #[test]
    fn overflow_pressure_matches_dense_loop() {
        // Flood one channel's 256-byte slice so the MC queue overflows
        // and the retry path engages.
        let mut cfg = GpuConfig::gt240();
        cfg.mc_queue_depth = 2;
        let reqs: Vec<(u64, MemRequest)> = (0..24u32)
            .map(|i| (0u64, read_req(0, (i % 2) * 0x100 + (i / 2) * 0x10000)))
            .collect();
        check_equivalence(cfg, &reqs, 60_000);
    }

    /// Seeded request storm sized like real traffic (`VectorAdd` parks
    /// 1 773 requests on GTX580): `count` 128-byte requests, `write_pct`
    /// percent of them writes, injected in bursts at `burst_cycles`,
    /// either spread over every channel or pinned to channel 0.
    fn storm(
        seed: u64,
        cfg: &GpuConfig,
        count: usize,
        burst_cycles: &[u64],
        pinned: bool,
        write_pct: u32,
    ) -> Vec<(u64, MemRequest)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let stride = if pinned { cfg.mem_channels as u32 } else { 1 };
        (0..count)
            .map(|_| {
                let at = burst_cycles[rng.gen_range(0..burst_cycles.len())];
                // 256-byte channel slices; two 128-byte segments each.
                let slice = rng.gen_range(0..1u32 << 14) * stride;
                let req = MemRequest {
                    core: rng.gen_range(0..cfg.total_cores()),
                    write: rng.gen_range(0..100u32) < write_pct,
                    addr: (slice << 8) | (rng.gen_range(0..2u32) << 7),
                    bytes: 128,
                };
                (at, req)
            })
            .collect()
    }

    /// Runs a read/write storm, injected in bursts at several cycles,
    /// on both presets with a one-slot MC queue, the smallest queue
    /// that reorders, and the preset's own depth.
    fn check_storms(seed: u64, pinned: bool, min_parked: usize) {
        for preset in [GpuConfig::gt240(), GpuConfig::gtx580()] {
            for depth in [1, 2, preset.mc_queue_depth] {
                let mut cfg = preset.clone();
                cfg.mc_queue_depth = depth;
                let bursts = [0, 1, 700, 5_000, 40_000];
                let reqs = storm(seed + depth as u64, &cfg, 2_400, &bursts, pinned, 35);
                let parked = check_equivalence(cfg, &reqs, 400_000);
                assert!(
                    parked >= min_parked,
                    "depth {depth}: only {parked} requests parked at the peak"
                );
            }
        }
    }

    #[test]
    fn storms_over_all_channels_match_dense_loop() {
        check_storms(11, false, 1);
    }

    #[test]
    fn storms_pinned_to_one_channel_match_dense_loop() {
        check_storms(21, true, 1_001);
    }

    #[test]
    fn write_flood_drains_on_the_dense_cycle() {
        // Writes complete silently, so nothing but the drain itself can
        // stop `advance`; it must return on the dense loop's drain
        // cycle, and never report idle while requests are still parked.
        for preset in [GpuConfig::gt240(), GpuConfig::gtx580()] {
            let mut ev = Uncore::new(&preset);
            let mut ev_stats = ActivityVector::new();
            let mut dense = DenseUncore::new(&preset);
            let mut dn_stats = ActivityVector::new();
            for (_, req) in storm(31, &preset, 1_500, &[0], true, 100) {
                ev.push_request(req, &mut ev_stats);
                dense.push_request(req, &mut dn_stats);
            }
            let mut none = Vec::new();
            let mut peak_parked = 0;
            while !dense.is_idle() {
                let consumed = ev.advance(1_000, &mut none, &mut ev_stats);
                for _ in 0..consumed {
                    assert!(!dense.is_idle(), "advance ran past the drain cycle");
                    dense.shader_cycle(&mut none, &mut dn_stats);
                    peak_parked = peak_parked.max(dense.dram_overflow.len());
                }
                assert!(none.is_empty(), "writes complete silently");
                assert_eq!(ev.is_idle(), dense.is_idle());
                if consumed < 1_000 {
                    assert!(ev.is_idle(), "an early return means the drain");
                }
            }
            assert!(peak_parked > 1_000, "only {peak_parked} writes parked");
            assert_eq!(ev_stats, dn_stats);
            assert_eq!(ev.dram_cycles(), dense.dram_cycle);
        }
    }

    #[test]
    fn advance_reports_early_drain() {
        let cfg = GpuConfig::gt240();
        let mut u = Uncore::new(&cfg);
        let mut stats = ActivityVector::new();
        let mut resps = Vec::new();
        u.push_request(write_req(0, 0), &mut stats);
        assert!(!u.is_idle());
        let consumed = u.advance(1_000_000, &mut resps, &mut stats);
        assert!(resps.is_empty(), "writes complete silently");
        assert!(u.is_idle(), "store drained");
        assert!(consumed < 1_000_000, "advance returned at the drain point");
    }

    #[test]
    fn idle_advance_consumes_full_span() {
        let cfg = GpuConfig::gt240();
        let mut u = Uncore::new(&cfg);
        let mut stats = ActivityVector::new();
        let mut resps = Vec::new();
        let consumed = u.advance(50_000, &mut resps, &mut stats);
        assert_eq!(consumed, 50_000, "idle uncore has nothing to stop for");
        assert!(resps.is_empty());
        assert!(stats[Ev::DramRefreshes] > 0, "refresh recurs while idle");
    }
}
