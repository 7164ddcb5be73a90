//! Timing-model cache: set-associative, LRU, with miss merging.
//!
//! This is the *performance* cache used inside the simulator (I-cache,
//! constant cache, L1, L2 slices); the *power/area* cache lives in
//! `gpusimpow-circuit`. Data contents are not stored — the functional
//! value path reads the backing store directly — only tags and LRU state.

use std::collections::VecDeque;

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
    /// `log2(line_bytes)`: the line number is one shift away.
    line_shift: u32,
    sets: usize,
    /// `sets - 1` when the set count is a power of two (the set index
    /// is then a mask), `None` otherwise (GTX580's 768-set L2 divides).
    set_mask: Option<u64>,
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
            line_shift: line_bytes.trailing_zeros(),
            sets,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            ways,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            tick: 0,
        }
    }

    #[inline]
    fn locate(&self, addr: u32) -> (usize, u64) {
        let line = (addr >> self.line_shift) as u64;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets as u64,
        };
        (set as usize, line)
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
/// The file has no capacity of its own: a core's outstanding lines are
/// bounded by its warps × destination registers × lanes. Lines live in
/// an open-addressing table (linear probing, at most half full), and
/// each line's waiters form a FIFO chain through one pool of reused
/// nodes, so lookups take expected constant time and neither
/// registering nor completing allocates once the table and the pool
/// have grown to the high-water mark.
#[derive(Debug, Clone)]
pub struct Mshr<T> {
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// Outstanding lines; the length is a power of two.
    table: Vec<MshrLine>,
    /// Occupied entries of `table`.
    lines: usize,
    /// Waiter nodes: the token and the next node of the same chain.
    nodes: Vec<(T, u32)>,
    /// Head of the chain of free nodes.
    free: u32,
}

/// One outstanding line of an [`Mshr`]: the first and last node of its
/// waiter chain.
#[derive(Debug, Clone, Copy)]
struct MshrLine {
    line: u64,
    head: u32,
    tail: u32,
}

/// End of a waiter chain.
const NIL: u32 = u32::MAX;

/// An unoccupied [`MshrLine`] (no 32-bit address maps to this line).
const VACANT: MshrLine = MshrLine {
    line: u64::MAX,
    head: NIL,
    tail: NIL,
};

impl<T: Copy> Mshr<T> {
    /// Creates an empty MSHR file for `line_bytes` lines.
    pub fn new(line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two());
        Mshr {
            line_shift: line_bytes.trailing_zeros(),
            table: vec![VACANT; 16],
            lines: 0,
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Registers a miss for the line containing `addr`.
    ///
    /// Returns `true` if this is the *first* miss for the line (the
    /// caller must send a downstream request) and `false` if it merged.
    pub fn register(&mut self, addr: u32, token: T) -> bool {
        let line = (addr >> self.line_shift) as u64;
        let node = if self.free == NIL {
            self.nodes.push((token, NIL));
            (self.nodes.len() - 1) as u32
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].1;
            self.nodes[node as usize] = (token, NIL);
            node
        };
        match self.find(line) {
            Ok(i) => {
                let tail = self.table[i].tail as usize;
                self.nodes[tail].1 = node;
                self.table[i].tail = node;
                false
            }
            Err(mut i) => {
                if 2 * (self.lines + 1) > self.table.len() {
                    self.grow();
                    i = self.find(line).expect_err("line is new");
                }
                self.table[i] = MshrLine {
                    line,
                    head: node,
                    tail: node,
                };
                self.lines += 1;
                true
            }
        }
    }

    /// Completes the line containing `addr`, appending its waiters to
    /// `out` in registration order (none when the line is not
    /// outstanding).
    pub fn complete_into(&mut self, addr: u32, out: &mut Vec<T>) {
        let line = (addr >> self.line_shift) as u64;
        let Ok(i) = self.find(line) else {
            return;
        };
        let mut node = self.table[i].head;
        while node != NIL {
            let (token, next) = self.nodes[node as usize];
            out.push(token);
            self.nodes[node as usize].1 = self.free;
            self.free = node;
            node = next;
        }
        self.remove(i);
    }

    /// Number of outstanding lines.
    pub fn outstanding(&self) -> usize {
        self.lines
    }

    /// Home slot of `line` (Fibonacci hashing onto the table size).
    #[inline]
    fn home(&self, line: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// `Ok(slot)` holding `line`, or `Err(slot)`: the vacant slot that
    /// ends its probe sequence.
    #[inline]
    fn find(&self, line: u64) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut i = self.home(line);
        loop {
            let here = self.table[i].line;
            if here == line {
                return Ok(i);
            }
            if here == VACANT.line {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Vacates slot `hole`, shifting later entries of its probe run
    /// back so every remaining line stays reachable (no tombstones).
    fn remove(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let line = self.table[i].line;
            if line == VACANT.line {
                break;
            }
            // The entry may fill the hole iff the hole lies on its probe
            // path: no further from the entry than its home slot is.
            if i.wrapping_sub(self.home(line)) & mask >= i.wrapping_sub(hole) & mask {
                self.table[hole] = self.table[i];
                hole = i;
            }
        }
        self.table[hole] = VACANT;
        self.lines -= 1;
    }

    /// Doubles the table and re-inserts every line.
    fn grow(&mut self) {
        let doubled = vec![VACANT; 2 * self.table.len()];
        let old = std::mem::replace(&mut self.table, doubled);
        for entry in old {
            if entry.line != VACANT.line {
                let i = self.find(entry.line).expect_err("lines are distinct");
                self.table[i] = entry;
            }
        }
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
    fn three_set_cache_keeps_its_eviction_pattern() {
        // 3 sets × 2 ways of 64 B lines: a set count that is not a power
        // of two, so the set index is `line % 3`. Lines 0, 3, 6 share
        // set 0; line 1 lives in set 1.
        let mut c = SimCache::new(3 * 2 * 64, 64, 2);
        let line = |n: u32| n * 64;
        assert_eq!(c.read(line(0)), Probe::Miss);
        assert_eq!(c.read(line(3)), Probe::Miss);
        assert_eq!(c.read(line(1)), Probe::Miss);
        assert_eq!(c.read(line(0)), Probe::Hit); // refresh line 0
        assert_eq!(c.read(line(6)), Probe::Miss); // evicts line 3
        assert_eq!(c.read(line(1)), Probe::Hit, "set 1 untouched");
        assert_eq!(c.read(line(0)), Probe::Hit);
        assert_eq!(c.read(line(3)), Probe::Miss, "line 3 was the LRU victim");
        assert_eq!(c.read(line(6)), Probe::Miss, "and now line 6 was");
        assert_eq!(c.read(line(4)), Probe::Miss, "line 4 maps to set 1");
        assert_eq!(c.read(line(1)), Probe::Hit, "two ways hold 1 and 4");
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m: Mshr<u32> = Mshr::new(128);
        assert!(m.register(0x100, 1));
        assert!(!m.register(0x17C, 2), "same line merges");
        assert!(m.register(0x200, 3));
        assert_eq!(m.outstanding(), 2);
        let mut w = Vec::new();
        m.complete_into(0x100, &mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(m.outstanding(), 1);
        m.complete_into(0x100, &mut w);
        assert_eq!(w, vec![1, 2], "a completed line has no waiters left");
    }

    #[test]
    fn mshr_returns_waiters_in_registration_order_across_interleaved_lines() {
        let mut m: Mshr<u32> = Mshr::new(128);
        // Three lines, waiters registered round-robin across them.
        for token in 0..12u32 {
            let first = m.register((token % 3) * 128 + token, token);
            assert_eq!(first, token < 3);
        }
        let mut w = Vec::new();
        m.complete_into(128, &mut w);
        assert_eq!(w, vec![1, 4, 7, 10]);
        // Recycled nodes keep the order of a line registered afterwards.
        for token in 20..23u32 {
            m.register(5 * 128, token);
        }
        m.register(2 * 128, 99);
        for addr in [0, 2 * 128, 5 * 128] {
            m.complete_into(addr, &mut w);
        }
        assert_eq!(
            w,
            vec![1, 4, 7, 10, 0, 3, 6, 9, 2, 5, 8, 11, 99, 20, 21, 22]
        );
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn mshr_matches_a_reference_map_past_many_growths() {
        // Thousands of lines outstanding at once (far past the initial
        // table), completed in a scrambled order interleaved with new
        // registrations: every completion returns exactly the reference
        // waiter list.
        let mut m: Mshr<u32> = Mshr::new(128);
        let mut reference: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        let mut state: u32 = 12345;
        let mut next = || {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            state >> 8
        };
        let mut out = Vec::new();
        for token in 0..40_000u32 {
            let line = next() % 6000;
            if next() % 3 == 0 {
                out.clear();
                m.complete_into(line * 128, &mut out);
                assert_eq!(out, reference.remove(&line).unwrap_or_default());
            } else {
                let first = m.register(line * 128 + 4, token);
                let waiters = reference.entry(line).or_default();
                assert_eq!(first, waiters.is_empty());
                waiters.push(token);
            }
            assert_eq!(m.outstanding(), reference.len());
        }
        for (line, waiters) in reference {
            out.clear();
            m.complete_into(line * 128, &mut out);
            assert_eq!(out, waiters);
        }
        assert_eq!(m.outstanding(), 0);
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
