//! Calendar-wheel event scheduler for the per-core pipeline.
//!
//! Replaces the per-core `BinaryHeap<Reverse<Event>>` (DESIGN.md §16
//! measured it at ~19 ns per warp instruction): completion events are
//! almost always scheduled a handful of cycles ahead (`dispatch +
//! latency`, or `cycle + 2` for a memory commit), so a classic calendar
//! wheel gives O(1) insert and pop with no comparison sifting.
//!
//! # Layout
//!
//! * **Window** — [`WHEEL_SLOTS`] (64) slot queues covering the cycles
//!   `[base, base + 64)`. `base` is always 64-aligned, so slot `s`
//!   holds exactly the events that fire at `base + s` and the
//!   `occupied` bitmask turns "earliest pending fire" into a single
//!   `trailing_zeros`.
//! * **Overflow** — events scheduled at or past `base + 64` go to a
//!   plain insertion-ordered `Vec` with a cached minimum fire cycle.
//!   They migrate into the window lazily, only when the window is empty
//!   and the earliest overflow event is due; migration rebases the
//!   window at `overflow_min & !63`.
//!
//! # Ordering
//!
//! Pop order is (fire cycle, insertion order) — exactly the
//! `(cycle, seq)` order of the heap it replaces — *without* storing a
//! sequence number. Same-fire events keep their relative order because
//! every route preserves it: a slot queue is FIFO, the overflow `Vec`
//! is insertion-ordered, migration drains the overflow front to back,
//! and two same-fire events can never take different routes at
//! different times in a way that reorders them (`base` is monotone, so
//! once a fire cycle maps into the window it stays there until
//! popped). The in-module differential test drives the wheel and a
//! reference heap with the same randomized stream and asserts identical
//! pop sequences.
//!
//! # Window-advance invariant
//!
//! `base` must never move past `cycle + 1`: the core can schedule new
//! events at any cycle `>= cycle + 1`, and an event must never fire
//! before the window base (the slot mapping would alias). Rebasing only
//! happens inside [`EventWheel::pop_due`] when the earliest overflow
//! event is already due (`overflow_min <= cycle`), which bounds the new
//! base by `cycle`. Per-launch cycle counters restart at zero, so
//! [`EventWheel::reset`] (called from `Core::begin_launch`) rewinds the
//! base along with them.

/// Slots in the calendar window; one shader cycle per slot.
///
/// 64 matches the `u64` occupancy mask and covers every fixed pipeline
/// latency in the model (the longest scheduled distance is `dispatch +
/// sfu_latency`, well under 64 cycles), so the overflow path is only
/// taken around fast-forward jumps and idle-window gaps.
const WHEEL_SLOTS: usize = 64;

/// One calendar slot: a FIFO over the events firing at one cycle.
///
/// `head` indexes the next event to pop; the buffer is compacted (and
/// its capacity kept) only once fully drained, so steady-state pushes
/// and pops never reallocate or shift.
#[derive(Debug, Clone)]
struct SlotQueue<T> {
    buf: Vec<T>,
    head: usize,
}

impl<T> SlotQueue<T> {
    fn new() -> Self {
        SlotQueue {
            buf: Vec::new(),
            head: 0,
        }
    }
}

impl<T: Copy> SlotQueue<T> {
    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    #[inline]
    fn push(&mut self, item: T) {
        self.buf.push(item);
    }

    /// Pops the front event. The caller guarantees non-emptiness (it
    /// holds the `occupied` bit).
    #[inline]
    fn pop(&mut self) -> T {
        debug_assert!(!self.is_empty(), "pop from empty slot queue");
        let item = self.buf[self.head];
        self.head += 1;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
        item
    }
}

/// A calendar-wheel scheduler over `Copy` payloads, FIFO within a fire
/// cycle. See the module docs for the layout and ordering contract.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    /// `WHEEL_SLOTS` FIFO queues; slot `s` holds fires at `base + s`.
    slots: Vec<SlotQueue<T>>,
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
    /// Window start, always a multiple of [`WHEEL_SLOTS`].
    base: u64,
    /// Far-future events (`fire >= base + WHEEL_SLOTS`), insertion order.
    overflow: Vec<(u64, T)>,
    /// Cached `min` fire cycle of `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
    /// Total pending events across window and overflow.
    len: usize,
}

impl<T: Copy> EventWheel<T> {
    /// An empty wheel based at cycle zero.
    pub fn new() -> Self {
        EventWheel {
            slots: (0..WHEEL_SLOTS).map(|_| SlotQueue::new()).collect(),
            occupied: 0,
            base: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    /// `true` when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` to fire at cycle `fire`.
    ///
    /// `fire` must not precede the window base — guaranteed at the call
    /// sites because events are only scheduled ahead of the current
    /// cycle and the base never advances past it (module docs).
    #[inline]
    pub fn schedule(&mut self, fire: u64, item: T) {
        debug_assert!(fire >= self.base, "event scheduled before the wheel window");
        self.len += 1;
        let off = fire - self.base;
        if off < WHEEL_SLOTS as u64 {
            let s = off as usize;
            self.slots[s].push(item);
            self.occupied |= 1u64 << s;
        } else {
            self.overflow_min = self.overflow_min.min(fire);
            self.overflow.push((fire, item));
        }
    }

    /// Pops the earliest pending event if it fires at or before
    /// `cycle`; `None` when the earliest event is still in the future
    /// (or nothing is pending). Calling in a loop drains all due events
    /// in (fire, insertion) order — the retire loop's contract.
    #[inline]
    pub fn pop_due(&mut self, cycle: u64) -> Option<T> {
        if self.occupied == 0 {
            if self.overflow_min > cycle {
                return None;
            }
            self.migrate();
        }
        let s = self.occupied.trailing_zeros() as usize;
        if self.base + s as u64 > cycle {
            return None;
        }
        let item = self.slots[s].pop();
        if self.slots[s].is_empty() {
            self.occupied &= !(1u64 << s);
        }
        self.len -= 1;
        Some(item)
    }

    /// The earliest pending fire cycle (`None` when empty). Exact even
    /// for overflow events, thanks to the cached minimum — this feeds
    /// `Core::next_wake`, where an over-approximation would stall the
    /// fast-forward and an under-approximation would break it.
    #[inline]
    pub fn next_fire(&self) -> Option<u64> {
        if self.occupied != 0 {
            Some(self.base + self.occupied.trailing_zeros() as u64)
        } else if self.overflow_min != u64::MAX {
            Some(self.overflow_min)
        } else {
            None
        }
    }

    /// Rebases the window at the earliest overflow event and moves every
    /// overflow entry that now fits into its slot, preserving insertion
    /// order on both sides of the split. Only called with an empty
    /// window and a due overflow minimum, so the new base never passes
    /// the current cycle.
    #[cold]
    fn migrate(&mut self) {
        debug_assert!(self.occupied == 0 && !self.overflow.is_empty());
        self.base = self.overflow_min & !(WHEEL_SLOTS as u64 - 1);
        let horizon = self.base + WHEEL_SLOTS as u64;
        let mut min_left = u64::MAX;
        let mut kept = 0;
        for i in 0..self.overflow.len() {
            let (fire, item) = self.overflow[i];
            if fire < horizon {
                let s = (fire - self.base) as usize;
                self.slots[s].push(item);
                self.occupied |= 1u64 << s;
            } else {
                min_left = min_left.min(fire);
                self.overflow[kept] = (fire, item);
                kept += 1;
            }
        }
        self.overflow.truncate(kept);
        self.overflow_min = min_left;
    }

    /// Empties the wheel and rewinds the base to cycle zero, keeping
    /// slot capacity. Cores call this at the kernel-launch boundary,
    /// where cycle numbers restart (the wheel is already drained there;
    /// the explicit clear keeps this safe to call on a dirty wheel).
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.buf.clear();
            slot.head = 0;
        }
        self.occupied = 0;
        self.base = 0;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.len = 0;
    }
}

impl<T: Copy> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference scheduler the wheel replaced: a min-heap ordered by
    /// `(fire, seq)` with an explicit insertion sequence.
    #[derive(Default)]
    struct RefHeap {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl RefHeap {
        fn schedule(&mut self, fire: u64, tag: u32) {
            self.seq += 1;
            self.heap.push(Reverse((fire, self.seq, tag)));
        }

        fn pop_due(&mut self, cycle: u64) -> Option<u32> {
            match self.heap.peek() {
                Some(Reverse((fire, _, _))) if *fire <= cycle => {
                    Some(self.heap.pop().expect("peeked").0 .2)
                }
                _ => None,
            }
        }

        fn next_fire(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse((fire, _, _))| *fire)
        }
    }

    /// Deterministic xorshift stream (no `rand`, no wall clock).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn matches_reference_heap_pop_order() {
        let mut wheel = EventWheel::new();
        let mut reference = RefHeap::default();
        let mut rng = Rng(0x9e3779b97f4a7c15);
        let mut cycle: u64 = 0;
        let mut tag: u32 = 0;
        for round in 0..20_000 {
            match rng.next() % 10 {
                // Near-future schedules — the pipeline-latency pattern,
                // with heavy same-cycle ties.
                0..=4 => {
                    let fire = cycle + 1 + rng.next() % 6;
                    for _ in 0..1 + rng.next() % 3 {
                        tag += 1;
                        wheel.schedule(fire, tag);
                        reference.schedule(fire, tag);
                    }
                }
                // Far-future schedule — overflow territory (beyond the
                // 64-slot window), as after an idle-window gap.
                5 => {
                    let fire = cycle + 70 + rng.next() % 4000;
                    tag += 1;
                    wheel.schedule(fire, tag);
                    reference.schedule(fire, tag);
                }
                // Drain everything due at the current cycle.
                6..=8 => {
                    cycle += 1 + rng.next() % 4;
                    loop {
                        let got = wheel.pop_due(cycle);
                        assert_eq!(got, reference.pop_due(cycle), "round {round}");
                        if got.is_none() {
                            break;
                        }
                    }
                }
                // Stall-aware fast-forward: jump straight to the next
                // wake-up (the `candidate_wake`/`next_wake` pattern) and
                // drain there.
                _ => {
                    if let Some(wake) = wheel.next_fire() {
                        assert_eq!(wheel.next_fire(), reference.next_fire());
                        cycle = cycle.max(wake);
                        loop {
                            let got = wheel.pop_due(cycle);
                            assert_eq!(got, reference.pop_due(cycle), "round {round}");
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
            }
            assert_eq!(wheel.next_fire(), reference.next_fire(), "round {round}");
            assert_eq!(wheel.is_empty(), reference.heap.is_empty(), "round {round}");
        }
        // Final drain: every remaining event pops in identical order.
        cycle += 1 << 20;
        loop {
            let got = wheel.pop_due(cycle);
            assert_eq!(got, reference.pop_due(cycle));
            if got.is_none() {
                break;
            }
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_cycle_events_pop_fifo_across_routes() {
        // Three events for one fire cycle, inserted via different routes:
        // two straight into the window, one through the overflow (forced
        // by scheduling before the window has advanced). The overflow
        // entry was inserted first, so it must pop first.
        let mut wheel = EventWheel::new();
        wheel.schedule(100, 1); // 100 >= 0 + 64: overflow
        assert_eq!(wheel.next_fire(), Some(100));
        // Advance the window past the overflow fire: empty window,
        // overflow due → migration rebases at 100 & !63 = 64.
        assert_eq!(wheel.pop_due(99), None);
        assert_eq!(wheel.pop_due(100), Some(1));
        wheel.schedule(100, 2); // now lands in the window
        wheel.schedule(100, 3);
        assert_eq!(wheel.pop_due(100), Some(2));
        assert_eq!(wheel.pop_due(100), Some(3));
        assert!(wheel.is_empty());
    }

    #[test]
    fn reset_rewinds_the_base_for_a_new_launch() {
        let mut wheel = EventWheel::new();
        wheel.schedule(500, 7);
        assert_eq!(wheel.pop_due(500), Some(7));
        // Cycle numbers restart at zero for the next launch; without the
        // reset this schedule would precede the migrated base.
        wheel.reset();
        wheel.schedule(3, 9);
        assert_eq!(wheel.next_fire(), Some(3));
        assert_eq!(wheel.pop_due(2), None);
        assert_eq!(wheel.pop_due(3), Some(9));
        assert!(wheel.is_empty());
    }
}
