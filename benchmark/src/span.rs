//! In-memory spans recorded by the harness around its calls into each
//! layer's public functions.
//!
//! A span carries a name, start, end, the span that caused it and the
//! id of the operation (launch, job) it belongs to. Spans stay in
//! memory while the workload runs and are written out when it ends. A
//! disabled tracer records nothing, so the untraced run executes the
//! same harness code minus the bookkeeping.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`, e.g. `sim.launch`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// Operation id shared by the spans of one launch / job.
    pub op: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one epoch. Client threads get a [`Tracer::fork`]
/// of the main tracer (same epoch) and are merged back with
/// [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty tracer sharing this one's epoch and on/off state, for
    /// another thread to record into.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant all of this tracer's times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name, op);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a span whose endpoints were observed elsewhere (a sink
    /// callback inside the simulator) as a child of the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Merges a forked tracer's spans in; its top-level spans become
    /// children of this tracer's innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base).or(parent);
            self.spans.push(span);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: one object per span, from span `from` on.
    pub fn to_json(&self, from: SpanId) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .skip(from)
                .map(|(id, s)| {
                    let mut o = Value::object();
                    o.set("id", id);
                    o.set("name", s.name);
                    o.set("start_ns", s.start_ns);
                    o.set("end_ns", s.end_ns);
                    o.set(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    );
                    o.set("op", s.op);
                    o
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children from different threads may
/// overlap each other, so the cover is the *union* of their intervals,
/// clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans with this name.
    pub calls: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

/// Totals by span name, restricted to the subtree under `root`
/// (inclusive). `selfs` is [`self_times_ns`] of the same spans, computed
/// once by the caller however many roots it asks about.
pub fn totals_under(
    spans: &[Span],
    selfs: &[u64],
    root: SpanId,
) -> BTreeMap<&'static str, NameTotals> {
    let mut inside = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        // Parents always precede their children in the vector.
        inside[id] = id == root || span.parent.is_some_and(|p| inside[p]);
        if inside[id] {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_s += span.duration_ns() as f64 * 1e-9;
            t.self_s += selfs[id] as f64 * 1e-9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (another thread): union covers 10..60.
            span("b", 30, 60, Some(0)),
            span("c", 35, 38, Some(2)),
            // Runs past the parent's end: clipped to 90..100.
            span("d", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 27, 3, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1);
        t.end(id);
        t.record("y", 1, 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_reparents_top_level_spans() {
        let mut main = Tracer::new(true);
        let root = main.begin("pass", 0);
        let mut fork = main.fork();
        let c = fork.begin("client", 1);
        fork.scope("submit", 1, |_| ());
        fork.end(c);
        main.absorb(fork);
        main.end(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let totals = totals_under(spans, &self_times_ns(spans), root);
        assert_eq!(totals["submit"].calls, 1);
    }
}
