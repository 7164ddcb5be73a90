//! Timing-model cache: set-associative, LRU, with miss merging.
//!
//! This is the *performance* cache used inside the simulator (I-cache,
//! constant cache, L1, L2 slices); the *power/area* cache lives in
//! `gpusimpow-circuit`. Data contents are not stored — the functional
//! value path reads the backing store directly — only tags and LRU state.

use std::collections::{BTreeMap, VecDeque};

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated (reads) or bypassed
    /// (writes).
    Miss,
}

/// A set-associative LRU cache model.
///
/// # Examples
///
/// ```
/// use gpusimpow_sim::cache::{Probe, SimCache};
///
/// let mut c = SimCache::new(1024, 64, 2);
/// assert_eq!(c.read(0x000), Probe::Miss);
/// assert_eq!(c.read(0x000), Probe::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SimCache {
    line_bytes: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]` = tag, `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU counters, higher = more recent.
    stamps: Vec<u64>,
    tick: u64,
}

impl SimCache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two and the capacity is
    /// an exact multiple of `line_bytes × ways`.
    pub fn new(capacity_bytes: usize, line_bytes: u32, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "cache needs at least one way");
        let lines = capacity_bytes / line_bytes as usize;
        assert!(
            lines > 0 && lines.is_multiple_of(ways),
            "capacity must be a multiple of line size times ways"
        );
        let sets = lines / ways;
        SimCache {
            line_bytes,
            sets,
            ways,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            tick: 0,
        }
    }

    fn locate(&self, addr: u32) -> (usize, u64) {
        let line = (addr / self.line_bytes) as u64;
        let set = (line % self.sets as u64) as usize;
        (set, line)
    }

    /// Probes for a read; allocates the line on a miss (LRU victim).
    pub fn read(&mut self, addr: u32) -> Probe {
        let (set, tag) = self.locate(addr);
        self.tick += 1;
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.tick;
                return Probe::Hit;
            }
        }
        // Miss: evict LRU.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.tick;
        Probe::Miss
    }

    /// Probes for a write (write-through, no write-allocate: misses do
    /// not install the line, hits refresh LRU).
    pub fn write(&mut self, addr: u32) -> Probe {
        let (set, tag) = self.locate(addr);
        self.tick += 1;
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.tick;
                return Probe::Hit;
            }
        }
        Probe::Miss
    }

    /// Installs the line containing `addr` (fill path: a miss reply
    /// arrived). Equivalent to a read probe with the result discarded.
    pub fn install(&mut self, addr: u32) {
        let _ = self.read(addr);
    }

    /// Invalidates every line (kernel-launch boundary flush).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }
}

/// A shared L2 bank: a [`SimCache`] tag array plus the fixed-latency
/// hit-return pipe that feeds the response network.
///
/// The bank participates in the event-driven uncore (`crate::uncore`):
/// probes ([`L2Bank::read`] / [`L2Bank::write`] / [`L2Bank::install`])
/// happen at request-routing time, hits enter the return pipe via
/// [`L2Bank::push_hit`], and the uncore drains ready hits with
/// [`L2Bank::pop_ready_into`] at the cycles [`L2Bank::next_event`]
/// reports. The bank has no per-cycle state of its own — hit readiness is
/// a pure function of the queued `(ready, token)` pairs, and state changes
/// only on probes and pops — so it needs no `tick_to` and skipping cycles
/// between events is exact by construction.
///
/// `T` is the caller's routing token, returned when a hit's latency
/// elapses.
#[derive(Debug, Clone)]
pub struct L2Bank<T> {
    cache: SimCache,
    latency: u64,
    /// Hit-return pipe: `(ready_cycle, token)` in push (= ready) order.
    out: VecDeque<(u64, T)>,
}

impl<T: Copy> L2Bank<T> {
    /// Creates a bank with the given geometry and hit-return latency.
    ///
    /// # Panics
    ///
    /// As [`SimCache::new`].
    pub fn new(capacity_bytes: usize, line_bytes: u32, ways: usize, latency: u64) -> Self {
        L2Bank {
            cache: SimCache::new(capacity_bytes, line_bytes, ways),
            latency,
            out: VecDeque::new(),
        }
    }

    /// Probes the tag array for a read (allocates on miss).
    pub fn read(&mut self, addr: u32) -> Probe {
        self.cache.read(addr)
    }

    /// Probes the tag array for a write (write-through, no allocate).
    pub fn write(&mut self, addr: u32) -> Probe {
        self.cache.write(addr)
    }

    /// Installs the line containing `addr` (fill from DRAM).
    pub fn install(&mut self, addr: u32) {
        self.cache.install(addr);
    }

    /// Enters a hit into the return pipe at `cycle`; the token becomes
    /// ready (poppable) at `cycle + latency`, which is returned.
    pub fn push_hit(&mut self, cycle: u64, token: T) -> u64 {
        let ready = cycle + self.latency;
        self.out.push_back((ready, token));
        ready
    }

    /// Appends every hit whose latency has elapsed by `cycle` to `out`,
    /// in service order.
    pub fn pop_ready_into(&mut self, cycle: u64, out: &mut Vec<T>) {
        // Hits are pushed at non-decreasing cycles with a fixed latency,
        // so the pipe is monotone in ready cycle.
        while let Some((ready, _)) = self.out.front() {
            if *ready <= cycle {
                out.push(self.out.pop_front().expect("front exists").1);
            } else {
                break;
            }
        }
    }

    /// The ready cycle of the oldest queued hit (unclamped), or `None`
    /// when the return pipe is empty. This is the raw value the uncore
    /// caches as the bank's pending event.
    pub fn next_ready(&self) -> Option<u64> {
        self.out.front().map(|(ready, _)| *ready)
    }

    /// The earliest cycle strictly after `cycle` at which popping this
    /// bank can return a token; `None` when nothing is queued.
    pub fn next_event(&self, cycle: u64) -> Option<u64> {
        self.next_ready().map(|ready| ready.max(cycle + 1))
    }

    /// `true` when no hit is waiting in the return pipe.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Miss-status holding registers: merges concurrent misses to the same
/// line so only one request goes downstream.
///
/// `T` is the caller's per-waiter token, returned when the line arrives.
#[derive(Debug, Clone)]
pub struct Mshr<T> {
    line_bytes: u32,
    pending: BTreeMap<u64, Vec<T>>,
    capacity: usize,
}

impl<T> Mshr<T> {
    /// Creates an MSHR file with `capacity` distinct outstanding lines.
    pub fn new(line_bytes: u32, capacity: usize) -> Self {
        assert!(line_bytes.is_power_of_two());
        Mshr {
            line_bytes,
            pending: BTreeMap::new(),
            capacity,
        }
    }

    /// Registers a miss for the line containing `addr`.
    ///
    /// Returns `true` if this is the *first* miss for the line (the
    /// caller must send a downstream request) and `false` if it merged.
    ///
    /// # Panics
    ///
    /// Panics if the MSHR file is full and the line is new — callers
    /// must check [`Mshr::can_accept`] first.
    pub fn register(&mut self, addr: u32, token: T) -> bool {
        let line = (addr / self.line_bytes) as u64;
        if let Some(waiters) = self.pending.get_mut(&line) {
            waiters.push(token);
            return false;
        }
        assert!(
            self.pending.len() < self.capacity,
            "mshr overflow: probe can_accept before registering"
        );
        self.pending.insert(line, vec![token]);
        true
    }

    /// Whether a miss on `addr` could currently be registered.
    pub fn can_accept(&self, addr: u32) -> bool {
        let line = (addr / self.line_bytes) as u64;
        self.pending.contains_key(&line) || self.pending.len() < self.capacity
    }

    /// Completes the line containing `addr`, returning all merged waiters.
    pub fn complete(&mut self, addr: u32) -> Vec<T> {
        let line = (addr / self.line_bytes) as u64;
        self.pending.remove(&line).unwrap_or_default()
    }

    /// Number of outstanding lines.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_allocates_write_does_not() {
        let mut c = SimCache::new(512, 64, 2);
        assert_eq!(c.write(0x100), Probe::Miss);
        assert_eq!(c.read(0x100), Probe::Miss, "write did not allocate");
        assert_eq!(c.write(0x100), Probe::Hit, "read allocated");
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, 64 B lines, 2 sets. Set 0 holds lines 0, 2, 4, ...
        let mut c = SimCache::new(256, 64, 2);
        assert_eq!(c.read(0), Probe::Miss); // line 0
        assert_eq!(c.read(128), Probe::Miss); // line 2, same set
        assert_eq!(c.read(0), Probe::Hit); // refresh line 0
        assert_eq!(c.read(256), Probe::Miss); // line 4 evicts line 2
        assert_eq!(c.read(0), Probe::Hit);
        assert_eq!(c.read(128), Probe::Miss, "line 2 was the LRU victim");
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = SimCache::new(1024, 128, 4);
        assert_eq!(c.read(0x200), Probe::Miss);
        assert_eq!(c.read(0x27C), Probe::Hit);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = SimCache::new(1024, 64, 2);
        c.read(64);
        c.flush();
        assert_eq!(c.read(64), Probe::Miss);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = SimCache::new(512, 64, 2);
        // 16 distinct lines into an 8-line cache, twice.
        let mut misses = 0;
        for round in 0..2 {
            for i in 0..16u32 {
                if c.read(i * 64) == Probe::Miss {
                    misses += 1;
                }
            }
            let _ = round;
        }
        assert_eq!(misses, 32, "LRU thrashes on a cyclic overscan");
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m: Mshr<u32> = Mshr::new(128, 4);
        assert!(m.register(0x100, 1));
        assert!(!m.register(0x17C, 2), "same line merges");
        assert!(m.register(0x200, 3));
        assert_eq!(m.outstanding(), 2);
        let w = m.complete(0x100);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn mshr_capacity_checks() {
        let mut m: Mshr<()> = Mshr::new(128, 1);
        assert!(m.can_accept(0));
        m.register(0, ());
        assert!(m.can_accept(64), "merge into existing line is allowed");
        assert!(!m.can_accept(4096), "new line would overflow");
    }

    #[test]
    #[should_panic(expected = "mshr overflow")]
    fn mshr_overflow_panics() {
        let mut m: Mshr<()> = Mshr::new(128, 1);
        m.register(0, ());
        m.register(4096, ());
    }

    #[test]
    #[should_panic(expected = "multiple of line size")]
    fn bad_geometry_panics() {
        let _ = SimCache::new(100, 64, 2);
    }

    #[test]
    fn l2_bank_hit_pipe_respects_latency() {
        let mut bank: L2Bank<u32> = L2Bank::new(1024, 128, 2, 5);
        assert_eq!(bank.read(0x100), Probe::Miss);
        bank.install(0x100);
        assert_eq!(bank.read(0x100), Probe::Hit);
        assert_eq!(bank.push_hit(10, 7), 15);
        assert_eq!(bank.next_event(10), Some(15));
        let mut out = Vec::new();
        bank.pop_ready_into(14, &mut out);
        assert!(out.is_empty(), "latency not yet elapsed");
        bank.pop_ready_into(15, &mut out);
        assert_eq!(out, vec![7]);
        assert!(bank.is_empty());
        assert_eq!(bank.next_event(15), None);
    }

    #[test]
    fn l2_bank_event_skipping_is_exact() {
        // Popping only at next_event cycles returns every token at the
        // same cycle a per-cycle poll would.
        let mut dense: L2Bank<u32> = L2Bank::new(1024, 128, 2, 3);
        let mut sparse = dense.clone();
        for (cycle, token) in [(0u64, 0u32), (0, 1), (4, 2), (9, 3)] {
            dense.push_hit(cycle, token);
            sparse.push_hit(cycle, token);
        }
        let mut dense_out = Vec::new();
        for c in 0..20u64 {
            let mut v = Vec::new();
            dense.pop_ready_into(c, &mut v);
            dense_out.extend(v.into_iter().map(|t| (c, t)));
        }
        let mut sparse_out = Vec::new();
        let mut c = 0u64;
        while let Some(e) = sparse.next_event(c) {
            let mut v = Vec::new();
            sparse.pop_ready_into(e, &mut v);
            sparse_out.extend(v.into_iter().map(|t| (e, t)));
            c = e;
        }
        assert_eq!(dense_out, sparse_out);
    }
}
