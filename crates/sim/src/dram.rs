//! GDDR5 channel timing model (paper §III-C5).
//!
//! Each channel has a set of banks with open-row state and an FR-FCFS-
//! style scheduler: row hits are served first, then the oldest ready
//! request. The command decomposition (activate / precharge / read /
//! write / refresh) feeds the Micron-methodology DRAM power model in the
//! power crate.

use std::collections::VecDeque;

use crate::config::DramConfig;
use crate::events::{ActivityVector, EventKind as Ev};

/// A request entering a channel. `T` is an opaque caller token returned
/// on read completion (writes complete silently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest<T> {
    /// `true` for writes.
    pub write: bool,
    /// Address within the channel's slice of the physical space.
    pub addr: u32,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Caller token (routing information).
    pub token: T,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

/// A queued request with its address decomposition, computed once at
/// [`DramChannel::push`] so the scheduler scans never divide.
#[derive(Debug, Clone, Copy)]
struct Queued<T> {
    req: DramRequest<T>,
    bank: usize,
    row: u64,
}

/// One GDDR5 channel: request queue, banks, shared data bus.
#[derive(Debug, Clone)]
pub struct DramChannel<T> {
    cfg: DramConfig,
    queue: VecDeque<Queued<T>>,
    banks: Vec<Bank>,
    data_bus_free_at: u64,
    next_refresh: u64,
    refreshing_until: u64,
    completions: VecDeque<(u64, T)>,
    queue_capacity: usize,
}

impl<T: Copy> DramChannel<T> {
    /// Creates a channel with the given timing and queue depth.
    pub fn new(cfg: DramConfig, queue_capacity: usize) -> Self {
        DramChannel {
            queue: VecDeque::new(),
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0,
                };
                cfg.banks
            ],
            data_bus_free_at: 0,
            next_refresh: cfg.t_refi as u64,
            refreshing_until: 0,
            completions: VecDeque::new(),
            queue_capacity,
            cfg,
        }
    }

    /// Whether the queue can take another request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_capacity
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics when the queue is full; probe [`DramChannel::can_accept`].
    pub fn push(&mut self, req: DramRequest<T>, stats: &mut ActivityVector) {
        assert!(self.can_accept(), "dram queue overflow");
        stats[Ev::McQueueOps] += 1;
        let (bank, row) = Self::map(&self.cfg, req.addr);
        self.queue.push_back(Queued { req, bank, row });
    }

    /// Advances one command-clock cycle; schedules at most one request.
    pub fn tick(&mut self, cycle: u64, stats: &mut ActivityVector) {
        // Refresh has priority and blocks the whole channel.
        if cycle >= self.next_refresh && cycle >= self.refreshing_until {
            self.refreshing_until = cycle + self.cfg.t_rfc as u64;
            self.next_refresh += self.cfg.t_refi as u64;
            stats[Ev::DramRefreshes] += 1;
            // All banks close.
            for b in &mut self.banks {
                b.open_row = None;
                b.ready_at = b.ready_at.max(self.refreshing_until);
            }
        }
        if cycle < self.refreshing_until {
            return;
        }

        // FR-FCFS: the oldest row hit on a ready bank, else the oldest
        // request whose bank is ready.
        let mut oldest_ready = None;
        let mut pick = None;
        for (idx, q) in self.queue.iter().enumerate() {
            let bank = &self.banks[q.bank];
            if bank.ready_at > cycle {
                continue;
            }
            if bank.open_row == Some(q.row) {
                pick = Some(idx);
                break;
            }
            oldest_ready.get_or_insert(idx);
        }
        let Some(idx) = pick.or(oldest_ready) else {
            return;
        };
        let Queued { req, bank, row } = self.queue.remove(idx).expect("index from the scan");
        let bank = &mut self.banks[bank];

        // Command latency depends on the row state.
        let mut latency = self.cfg.t_cas as u64;
        match bank.open_row {
            Some(open) if open == row => {}
            Some(_) => {
                stats[Ev::DramPrecharges] += 1;
                stats[Ev::DramActivates] += 1;
                latency += (self.cfg.t_rp + self.cfg.t_rcd) as u64;
                bank.ready_at = cycle + self.cfg.t_rc as u64;
            }
            None => {
                stats[Ev::DramActivates] += 1;
                latency += self.cfg.t_rcd as u64;
                bank.ready_at = cycle + self.cfg.t_rc as u64;
            }
        }
        bank.open_row = Some(row);

        let bursts = req.bytes.div_ceil(32).max(1) as u64;
        let busy = bursts * self.cfg.burst_cycles as u64;
        let data_start = (cycle + latency).max(self.data_bus_free_at);
        self.data_bus_free_at = data_start + busy;
        stats[Ev::DramDataBusBusyCycles] += busy;
        if req.write {
            stats[Ev::DramWriteBursts] += bursts;
        } else {
            stats[Ev::DramReadBursts] += bursts;
            self.completions.push_back((data_start + busy, req.token));
        }
        bank.ready_at = bank.ready_at.max(self.data_bus_free_at);
    }

    /// Read completions ready by `cycle` (tokens in completion order).
    pub fn pop_completed(&mut self, cycle: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_completed_into(cycle, &mut out);
        out
    }

    /// Appends every read completion ready by `cycle` to `out`
    /// (allocation-free variant of [`DramChannel::pop_completed`]).
    pub fn pop_completed_into(&mut self, cycle: u64, out: &mut Vec<T>) {
        // Completions are pushed in data-bus order, which is monotone.
        while let Some((ready, _)) = self.completions.front() {
            if *ready <= cycle {
                out.push(self.completions.pop_front().expect("front exists").1);
            } else {
                break;
            }
        }
    }

    /// The earliest cycle strictly after `cycle` at which ticking or
    /// polling this channel can have an observable effect. The candidates
    /// are:
    ///
    /// * the next refresh (refresh recurs even on an idle channel — it
    ///   increments `dram_refreshes` and closes rows, so it can never be
    ///   skipped over),
    /// * the oldest read completion becoming ready,
    /// * a queued request becoming schedulable (its bank ready and the
    ///   channel out of refresh).
    ///
    /// The returned cycle is *exact or early, never late*: a
    /// [`DramChannel::tick`] + [`DramChannel::pop_completed`] at any
    /// cycle strictly before it is provably a no-op (no state or stats
    /// change, no tokens returned), which is the invariant the
    /// event-driven uncore relies on to jump ahead.
    pub fn next_event(&self, cycle: u64) -> u64 {
        // Refresh fires when both `next_refresh` and any in-progress
        // refresh window have passed.
        let mut next = self.next_refresh.max(self.refreshing_until);
        if let Some((ready, _)) = self.completions.front() {
            next = next.min(*ready);
        }
        if !self.queue.is_empty() {
            let schedulable = self
                .queue
                .iter()
                .map(|q| self.banks[q.bank].ready_at)
                .min()
                .expect("queue non-empty")
                .max(self.refreshing_until);
            next = next.min(schedulable);
        }
        next.max(cycle + 1)
    }

    /// Advances the channel through every cycle in `from..=to`, ticking
    /// only at event cycles ([`DramChannel::next_event`]); skipped
    /// cycles are provably no-op ticks. Exactly equivalent to calling
    /// [`DramChannel::tick`] for each cycle of the span: scheduling
    /// decisions, stats and completion-ready cycles are bit-identical.
    ///
    /// Completions are *not* drained; the caller pops them at the exact
    /// cycles they become ready (which `next_event` reports).
    pub fn tick_to(&mut self, from: u64, to: u64, stats: &mut ActivityVector) {
        // `from` itself may be an event cycle; ticking a non-event cycle
        // is a no-op, so starting with an unconditional tick is safe.
        let mut cycle = from;
        while cycle <= to {
            self.tick(cycle, stats);
            cycle = self.next_event(cycle);
        }
    }

    /// `true` when no requests are queued or completing.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.completions.is_empty()
    }

    /// Decomposes a channel-local address into (bank, global row id).
    fn map(cfg: &DramConfig, addr: u32) -> (usize, u64) {
        let row_of = addr as u64 / cfg.row_bytes as u64;
        let bank = (row_of % cfg.banks as u64) as usize;
        let row = row_of / cfg.banks as u64;
        (bank, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ch() -> DramChannel<u32> {
        DramChannel::new(DramConfig::gddr5(), 16)
    }

    fn drive(ch: &mut DramChannel<u32>, cycles: u64, stats: &mut ActivityVector) -> Vec<u32> {
        let mut done = Vec::new();
        for c in 0..cycles {
            ch.tick(c, stats);
            done.extend(ch.pop_completed(c));
        }
        done
    }

    #[test]
    fn single_read_completes() {
        let mut c = ch();
        let mut stats = ActivityVector::new();
        c.push(
            DramRequest {
                write: false,
                addr: 0x1000,
                bytes: 128,
                token: 42,
            },
            &mut stats,
        );
        let done = drive(&mut c, 200, &mut stats);
        assert_eq!(done, vec![42]);
        assert_eq!(stats[Ev::DramActivates], 1);
        assert_eq!(stats[Ev::DramReadBursts], 4);
        assert!(c.is_idle());
    }

    #[test]
    fn row_hits_avoid_activates() {
        let mut c = ch();
        let mut stats = ActivityVector::new();
        // Two reads in the same 2 KB row.
        for (i, off) in [0u32, 128].iter().enumerate() {
            c.push(
                DramRequest {
                    write: false,
                    addr: off + 0x4000,
                    bytes: 128,
                    token: i as u32,
                },
                &mut stats,
            );
        }
        let done = drive(&mut c, 300, &mut stats);
        assert_eq!(done.len(), 2);
        assert_eq!(stats[Ev::DramActivates], 1, "second access is a row hit");
        assert_eq!(stats[Ev::DramPrecharges], 0);
    }

    #[test]
    fn row_conflicts_precharge() {
        let mut c = ch();
        let mut stats = ActivityVector::new();
        let row_bytes = DramConfig::gddr5().row_bytes as u32;
        let banks = DramConfig::gddr5().banks as u32;
        // Same bank, different row: rows k and k + banks share a bank.
        for (i, row) in [0u32, banks].iter().enumerate() {
            c.push(
                DramRequest {
                    write: false,
                    addr: row * row_bytes,
                    bytes: 32,
                    token: i as u32,
                },
                &mut stats,
            );
        }
        let done = drive(&mut c, 500, &mut stats);
        assert_eq!(done.len(), 2);
        assert_eq!(stats[Ev::DramActivates], 2);
        assert_eq!(stats[Ev::DramPrecharges], 1);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut c = ch();
        let mut stats = ActivityVector::new();
        let row_bytes = DramConfig::gddr5().row_bytes as u32;
        let banks = DramConfig::gddr5().banks as u32;
        // Open row 0 (bank 0), then queue a conflict (same bank) and a hit.
        c.push(
            DramRequest {
                write: false,
                addr: 0,
                bytes: 32,
                token: 0,
            },
            &mut stats,
        );
        let mut cyc = 0;
        let mut done = Vec::new();
        while done.is_empty() {
            c.tick(cyc, &mut stats);
            done.extend(c.pop_completed(cyc));
            cyc += 1;
        }
        c.push(
            DramRequest {
                write: false,
                addr: banks * row_bytes, // conflict on bank 0
                bytes: 32,
                token: 1,
            },
            &mut stats,
        );
        c.push(
            DramRequest {
                write: false,
                addr: 64, // hit on open row 0
                bytes: 32,
                token: 2,
            },
            &mut stats,
        );
        let mut order = Vec::new();
        for c2 in cyc..cyc + 500 {
            c.tick(c2, &mut stats);
            order.extend(c.pop_completed(c2));
        }
        assert_eq!(order, vec![2, 1], "row hit served before the conflict");
    }

    #[test]
    fn writes_do_not_produce_completions() {
        let mut c = ch();
        let mut stats = ActivityVector::new();
        c.push(
            DramRequest {
                write: true,
                addr: 0,
                bytes: 64,
                token: 9,
            },
            &mut stats,
        );
        let done = drive(&mut c, 200, &mut stats);
        assert!(done.is_empty());
        assert_eq!(stats[Ev::DramWriteBursts], 2);
        assert!(c.is_idle());
    }

    #[test]
    fn refresh_fires_periodically_and_closes_rows() {
        let mut c = ch();
        let mut stats = ActivityVector::new();
        let trefi = DramConfig::gddr5().t_refi as u64;
        let _ = drive(&mut c, trefi * 3 + 10, &mut stats);
        assert_eq!(stats[Ev::DramRefreshes], 3);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut c = DramChannel::<u32>::new(DramConfig::gddr5(), 1);
        let mut stats = ActivityVector::new();
        c.push(
            DramRequest {
                write: true,
                addr: 0,
                bytes: 32,
                token: 0,
            },
            &mut stats,
        );
        assert!(!c.can_accept());
    }

    /// Mixed read/write workload touching several banks and rows, used by
    /// the event-equivalence tests below.
    fn mixed_workload(c: &mut DramChannel<u32>, stats: &mut ActivityVector) {
        let row_bytes = DramConfig::gddr5().row_bytes as u32;
        let banks = DramConfig::gddr5().banks as u32;
        for (i, (write, addr, bytes)) in [
            (false, 0u32, 128u32),
            (false, 64, 32),
            (true, banks * row_bytes, 64), // bank-0 row conflict
            (false, row_bytes, 128),       // bank 1
            (false, 3 * row_bytes + 256, 32),
            (true, 2 * row_bytes, 128),
        ]
        .iter()
        .enumerate()
        {
            c.push(
                DramRequest {
                    write: *write,
                    addr: *addr,
                    bytes: *bytes,
                    token: i as u32,
                },
                stats,
            );
        }
    }

    #[test]
    fn tick_to_matches_per_cycle_ticking() {
        let trefi = DramConfig::gddr5().t_refi as u64;
        let span = trefi * 2 + 500; // cross two refreshes
        let mut dense = ch();
        let mut dense_stats = ActivityVector::new();
        mixed_workload(&mut dense, &mut dense_stats);
        let mut dense_done = Vec::new();
        for c in 0..span {
            dense.tick(c, &mut dense_stats);
            dense_done.extend(dense.pop_completed(c).into_iter().map(|t| (c, t)));
        }

        let mut sparse = ch();
        let mut sparse_stats = ActivityVector::new();
        mixed_workload(&mut sparse, &mut sparse_stats);
        // One jump across the whole span; completions keep their exact
        // ready cycles (tick_to never drains them), so popping per cycle
        // afterwards reconstructs the delivery schedule.
        sparse.tick_to(0, span - 1, &mut sparse_stats);
        let mut sparse_done = Vec::new();
        for c in 0..span {
            sparse_done.extend(sparse.pop_completed(c).into_iter().map(|t| (c, t)));
        }

        assert_eq!(dense_done, sparse_done, "completion cycles/order differ");
        assert_eq!(dense_stats, sparse_stats, "activity stats differ");
        assert!(dense.is_idle() && sparse.is_idle());
    }

    /// The channel as it was before queue entries carried their
    /// `(bank, row)`: the queue holds bare requests and both FR-FCFS
    /// passes call `map` per request per visit.
    struct MapPerScan {
        cfg: DramConfig,
        queue: VecDeque<DramRequest<u32>>,
        banks: Vec<Bank>,
        data_bus_free_at: u64,
        next_refresh: u64,
        refreshing_until: u64,
        completions: Vec<(u64, u32)>,
    }

    impl MapPerScan {
        fn tick(&mut self, cycle: u64, stats: &mut ActivityVector) {
            let cfg = self.cfg;
            let map = |addr| DramChannel::<u32>::map(&cfg, addr);
            if cycle >= self.next_refresh && cycle >= self.refreshing_until {
                self.refreshing_until = cycle + cfg.t_rfc as u64;
                self.next_refresh += cfg.t_refi as u64;
                stats[Ev::DramRefreshes] += 1;
                for b in &mut self.banks {
                    b.open_row = None;
                    b.ready_at = b.ready_at.max(self.refreshing_until);
                }
            }
            if cycle < self.refreshing_until {
                return;
            }
            let banks = &self.banks;
            let pick = self
                .queue
                .iter()
                .position(|r| {
                    let (bank, row) = map(r.addr);
                    banks[bank].ready_at <= cycle && banks[bank].open_row == Some(row)
                })
                .or_else(|| {
                    self.queue
                        .iter()
                        .position(|r| banks[map(r.addr).0].ready_at <= cycle)
                });
            let Some(idx) = pick else { return };
            let req = self.queue.remove(idx).expect("index from position");
            let (bank_idx, row) = map(req.addr);
            let bank = &mut self.banks[bank_idx];
            let mut latency = cfg.t_cas as u64;
            if bank.open_row != Some(row) {
                if bank.open_row.is_some() {
                    stats[Ev::DramPrecharges] += 1;
                    latency += cfg.t_rp as u64;
                }
                stats[Ev::DramActivates] += 1;
                latency += cfg.t_rcd as u64;
                bank.ready_at = cycle + cfg.t_rc as u64;
            }
            bank.open_row = Some(row);
            let bursts = req.bytes.div_ceil(32).max(1) as u64;
            let busy = bursts * cfg.burst_cycles as u64;
            let data_start = (cycle + latency).max(self.data_bus_free_at);
            self.data_bus_free_at = data_start + busy;
            stats[Ev::DramDataBusBusyCycles] += busy;
            if req.write {
                stats[Ev::DramWriteBursts] += bursts;
            } else {
                stats[Ev::DramReadBursts] += bursts;
                self.completions.push((data_start + busy, req.token));
            }
            bank.ready_at = bank.ready_at.max(self.data_bus_free_at);
        }
    }

    #[test]
    fn cached_mapping_schedules_like_map_per_scan() {
        // Random traffic into a small queue, refilled as it drains,
        // across two refreshes. After every cycle both queues must hold
        // the same requests in the same order (so every pick agreed) and
        // the stats must match; at the end, so must every completion.
        let cfg = DramConfig::gddr5();
        let mut rng = StdRng::seed_from_u64(0xD4A3);
        let mut c = DramChannel::<u32>::new(cfg, 8);
        let mut stats = ActivityVector::new();
        let mut reference = MapPerScan {
            cfg,
            queue: VecDeque::new(),
            banks: c.banks.clone(),
            data_bus_free_at: 0,
            next_refresh: cfg.t_refi as u64,
            refreshing_until: 0,
            completions: Vec::new(),
        };
        let mut ref_stats = ActivityVector::new();
        let mut pushed = 0u32;
        for cycle in 0..2 * cfg.t_refi as u64 + 500 {
            while c.can_accept() && rng.gen_range(0..4u32) != 0 {
                // A few hot rows over a few banks, so row hits, row
                // conflicts and busy-bank skips all occur.
                let row_of = rng.gen_range(0..4u32) + cfg.banks as u32 * rng.gen_range(0..3u32);
                let req = DramRequest {
                    write: rng.gen_range(0..3u32) == 0,
                    addr: row_of * cfg.row_bytes as u32 + rng.gen_range(0..16u32) * 128,
                    bytes: [32, 64, 128][rng.gen_range(0..3usize)],
                    token: pushed,
                };
                pushed += 1;
                c.push(req, &mut stats);
                ref_stats[Ev::McQueueOps] += 1;
                reference.queue.push_back(req);
            }
            c.tick(cycle, &mut stats);
            reference.tick(cycle, &mut ref_stats);
            assert!(
                c.queue.iter().map(|q| &q.req).eq(reference.queue.iter()),
                "pick diverged at cycle {cycle}"
            );
            assert_eq!(stats, ref_stats, "stats diverged at cycle {cycle}");
        }
        assert!(pushed > 500, "only {pushed} requests entered the channel");
        assert!(stats[Ev::DramPrecharges] > 0 && stats[Ev::DramRefreshes] == 2);
        assert!(
            reference.completions.windows(2).any(|w| w[0].1 > w[1].1),
            "traffic never made FR-FCFS reorder"
        );
        assert!(c.completions.iter().copied().eq(reference.completions));
    }

    #[test]
    fn next_event_is_never_late() {
        // At every cycle where a dense tick changes stats or releases a
        // completion, a previously computed next_event must not have
        // pointed past that cycle.
        let mut c = ch();
        let mut stats = ActivityVector::new();
        mixed_workload(&mut c, &mut stats);
        let mut predicted = c.next_event(0);
        for cycle in 1..5_000u64 {
            let before = stats.clone();
            let had = c
                .completions
                .front()
                .map(|(r, _)| *r <= cycle)
                .unwrap_or(false);
            c.tick(cycle, &mut stats);
            let _ = c.pop_completed(cycle);
            if stats != before || had {
                assert!(
                    predicted <= cycle,
                    "event at {cycle} but next_event promised {predicted}"
                );
            }
            predicted = c.next_event(cycle);
        }
    }

    #[test]
    fn idle_channel_next_event_is_refresh() {
        let c = ch();
        let trefi = DramConfig::gddr5().t_refi as u64;
        assert_eq!(c.next_event(0), trefi);
        // Events are strictly after `cycle`, and refresh recurs: there is
        // never "no event" on a DRAM channel.
        assert_eq!(c.next_event(trefi), trefi + 1);
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let mut c = ch();
        let mut stats = ActivityVector::new();
        // Two row hits back to back: bus busy cycles add up.
        for i in 0..2u32 {
            c.push(
                DramRequest {
                    write: false,
                    addr: i * 128,
                    bytes: 128,
                    token: i,
                },
                &mut stats,
            );
        }
        let done = drive(&mut c, 300, &mut stats);
        assert_eq!(done.len(), 2);
        let burst = DramConfig::gddr5().burst_cycles as u64;
        assert_eq!(stats[Ev::DramDataBusBusyCycles], 2 * 4 * burst);
    }
}
