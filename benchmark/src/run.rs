//! The run loop shared by all workloads, and the record it produces.
//!
//! One run: set up and warm up three times (median → `setup_s`), then
//! timed passes of fixed work until the time budget is spent. A traced run spends the first half of the budget untraced
//! (the base of `harness.trace_overhead_ratio` and of the `e2e.*`
//! figures) and the second half with spans on, then walks the
//! workload's stage-by-stage ledger.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;
use crate::json::Value;
use crate::span::{self_times_ns, totals_under, NameTotals, SpanId, Tracer};
use crate::spec::{self, CALL_COUNTS, END_TO_END, PER_LAYER, SCHEMA_VERSION};
use crate::stats::{lowest, percentile, percentile_is_supported, Summary};
use crate::workload::{Ctx, Layer, Pass, Workload};
use crate::workloads::alu_probe::AluProbe;
use crate::workloads::mem_stream::MemStream;
use crate::workloads::secs;
use crate::workloads::serve_cold::ServeCold;
use crate::workloads::serve_warm::ServeWarm;
use crate::workloads::suite_live::SuiteLive;
use crate::workloads::trace_sweep::TraceSweep;

/// How one workload is to be run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// One pass of shrunken work (self-tests).
    pub smoke: bool,
    /// Self-test hook, see [`Ctx::corrupt_payloads`].
    pub corrupt_payloads: bool,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// The options it ran with.
    pub options: RunOptions,
    /// The thread cap `T` it ran with.
    pub threads: usize,
    /// Untraced timed passes.
    pub passes: usize,
    /// Traced timed passes (0 in an untraced run).
    pub traced_passes: usize,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// Every end-to-end metric, in `BENCHMARK.json` order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Every per-layer metric (traced runs only).
    pub per_layer: Vec<(&'static str, Summary)>,
    /// Free-text lines for the human reader.
    pub notes: Vec<(String, String)>,
}

impl Record {
    /// No operation or output check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics the run's mode reports to the driver.
    pub fn reported(&self) -> &[(&'static str, Summary)] {
        if self.options.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> Value {
        let mut metrics = Value::object();
        for (name, summary) in self.reported() {
            let mut m = Value::object();
            m.set("value", summary.value);
            m.set("unit", summary.unit);
            metrics.set(name, m);
        }
        let mut line = Value::object();
        line.set("correct", self.correct());
        line.set("attempted", self.attempted);
        line.set("failed", self.failed);
        line.set("metrics", metrics);
        line
    }

    /// The workload's entry in a results file.
    pub fn to_json(&self) -> Value {
        let block = |metrics: &[(&'static str, Summary)]| {
            let mut o = Value::object();
            for (name, summary) in metrics {
                o.set(name, summary.to_json());
            }
            o
        };
        let mut o = Value::object();
        o.set("workload", self.workload);
        o.set("trace", self.options.trace);
        o.set("seed", self.options.seed);
        o.set("seconds", self.options.seconds);
        o.set("threads", self.threads);
        o.set("passes", self.passes);
        o.set("traced_passes", self.traced_passes);
        o.set("attempted", self.attempted);
        o.set("failed", self.failed);
        o.set("correct", self.correct());
        o.set("end_to_end", block(&self.end_to_end));
        if self.options.trace {
            o.set("per_layer", block(&self.per_layer));
        }
        let mut notes = Value::object();
        for (key, text) in &self.notes {
            notes.set(key, text.as_str());
        }
        o.set("notes", notes);
        o
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  T {}  passes {}+{}  trace {}",
            self.workload,
            self.options.seed,
            self.threads,
            self.passes,
            self.traced_passes,
            if self.options.trace { "on" } else { "off" },
        );
        for (name, s) in &self.end_to_end {
            println!(
                "  {name:<34} {:>16.6} {:<8} passes: median {:.6} q1 {:.6} q3 {:.6} n {}",
                s.value, s.unit, s.median, s.q1, s.q3, s.n
            );
        }
        for (name, s) in &self.per_layer {
            println!("  {name:<34} {:>16.6} {}", s.value, s.unit);
        }
        println!(
            "  {:<34} {} of {} operations and checks failed",
            "errors", self.failed, self.attempted
        );
        for (key, text) in &self.notes {
            println!("  note: {key}: {text}");
        }
    }
}

/// The header shared by every workload of one results file.
pub fn results_header(options: &RunOptions) -> Value {
    let mut o = Value::object();
    o.set("schema_version", SCHEMA_VERSION);
    o.set("git_commit", host::git_commit());
    o.set("rustc", host::rustc_version());
    o.set("available_parallelism", host::available_parallelism());
    o.set("threads", host::thread_cap());
    o.set("seed", options.seed);
    o.set("seconds", options.seconds);
    o.set("trace", options.trace);
    // This harness defines the baseline; it claims no gain.
    o.set("claim", Value::Null);
    o
}

/// Runs the named workload.
///
/// # Errors
///
/// Returns the list of valid names for an unknown one.
pub fn run_named(name: &str, options: &RunOptions) -> Result<Record, String> {
    match name {
        "suite_live" => Ok(run::<SuiteLive>("suite_live", options)),
        "alu_probe" => Ok(run::<AluProbe>("alu_probe", options)),
        "mem_stream" => Ok(run::<MemStream>("mem_stream", options)),
        "trace_sweep" => Ok(run::<TraceSweep>("trace_sweep", options)),
        "serve_cold" => Ok(run::<ServeCold>("serve_cold", options)),
        "serve_warm" => Ok(run::<ServeWarm>("serve_warm", options)),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            spec::WORKLOADS.join(", ")
        )),
    }
}

/// Times everything that comes before the first timed pass — building
/// inputs, captures, server start, prefill *and* the warm-up pass, so
/// work a change moves into first use shows up here — three times over,
/// each on a fresh instance. Returns the last instance, its warm-up
/// pass and every set-up time.
fn set_up<W: Workload>(ctx: &Ctx) -> (W, Pass, Vec<f64>) {
    let mut times = Vec::new();
    let mut current: Option<(W, Pass)> = None;
    for _ in 0..if ctx.smoke { 1 } else { 3 } {
        // The previous instance goes first: two live servers would
        // double the memory and share the cores.
        drop(current.take());
        let t = Instant::now();
        let mut w = W::setup(ctx);
        let warm_up = w.pass(ctx, &mut Tracer::new(false));
        times.push(secs(t));
        current = Some((w, warm_up));
    }
    let (w, warm_up) = current.expect("set up at least once");
    (w, warm_up, times)
}

/// Runs passes until `seconds` have gone by, and at least `min_passes`.
/// Returns them with the root span of each.
fn timed_passes<W: Workload>(
    w: &mut W,
    ctx: &Ctx,
    tr: &mut Tracer,
    seconds: f64,
    min_passes: usize,
) -> (Vec<Pass>, Vec<SpanId>) {
    let start = Instant::now();
    let (mut passes, mut roots) = (Vec::new(), Vec::new());
    while passes.len() < min_passes || (!ctx.smoke && secs(start) < seconds) {
        let root = tr.begin("pass", passes.len() as u64);
        let t = Instant::now();
        let mut pass = w.pass(ctx, tr);
        let wall_s = secs(t);
        tr.end(root);
        // A closed loop times itself and leaves server start and stop
        // outside its wall.
        if !W::CLOSED_LOOP {
            pass.wall_s = wall_s;
        }
        passes.push(pass);
        roots.push(root);
    }
    (passes, roots)
}

fn run<W: Workload>(name: &'static str, options: &RunOptions) -> Record {
    let ctx = Ctx {
        seed: options.seed,
        threads: host::thread_cap(),
        smoke: options.smoke,
        corrupt_payloads: options.corrupt_payloads,
    };
    let (mut w, warm_up, setup_times) = set_up::<W>(&ctx);
    let mut off = Tracer::new(false);

    let (untraced_s, min_passes) = match (options.trace, options.smoke) {
        (_, true) => (0.0, 1),
        (true, false) => (options.seconds / 2.0, 2),
        (false, false) => (options.seconds, 3),
    };
    let (untraced, _) = timed_passes(&mut w, &ctx, &mut off, untraced_s, min_passes);
    let mut tr = Tracer::new(true);
    let (mut traced, mut roots) = (Vec::new(), Vec::new());
    let mut layer = Layer::new();
    let mut ledger = None;
    if options.trace {
        (traced, roots) = timed_passes(&mut w, &ctx, &mut tr, options.seconds / 2.0, min_passes);
        let root = tr.begin("ledger", 0);
        let scale = w.ledger(&ctx, &mut tr, &mut layer);
        tr.end(root);
        ledger = Some((root, scale));
    }
    let notes = w.notes();
    // Servers and scratch directories go before memory is read, so
    // their teardown is part of what the run cost.
    drop(w);

    // Output checks across passes: every pass must deliver the same
    // outputs and the same simulated cycles as the warm-up did.
    let mut attempted = warm_up.attempted;
    let mut failed = warm_up.failed;
    for pass in untraced.iter().chain(&traced) {
        attempted += pass.attempted + 1;
        failed += pass.failed;
        if pass.fingerprint != warm_up.fingerprint || pass.sim_cycles != warm_up.sim_cycles {
            failed += 1;
            eprintln!("output check failed: a pass of {name} differs from the warm-up pass");
        }
    }

    let end_to_end = end_to_end_metrics(&setup_times, &untraced, W::CLOSED_LOOP);
    let mut per_layer = Vec::new();
    if let Some((ledger_root, scale)) = ledger {
        fill_layer(
            &mut layer,
            &tr,
            (&traced, &roots),
            (ledger_root, scale),
            &untraced,
            W::CLOSED_LOOP.then_some(ctx.threads),
        );
        layer.insert("harness.threads", ctx.threads as f64);
        layer.insert("e2e.error_rate", failed as f64 / attempted as f64);
        if let Some(unknown) = layer.keys().find(|k| spec::per_layer(k).is_none()) {
            panic!("{name} set {unknown:?}, which is not a per-layer metric");
        }
        per_layer = PER_LAYER
            .iter()
            .map(|m| {
                let value = layer.get(m.name).copied().unwrap_or(0.0);
                (m.name, Summary::exact(value, traced.len(), m.unit))
            })
            .collect();
        write_trace_file(name, &tr, roots.last().copied(), ledger_root);
    }

    Record {
        workload: name,
        options: options.clone(),
        threads: ctx.threads,
        passes: untraced.len(),
        traced_passes: traced.len(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
    }
}

/// Each operation's fastest latency over `passes`, milliseconds.
fn best_operations(passes: &[Pass]) -> Vec<f64> {
    (0..passes[0].latencies_ms.len())
        .map(|i| {
            lowest(
                &passes
                    .iter()
                    .map(|p| p.latencies_ms[i])
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// The best pass wall of a run, seconds (see [`end_to_end_metrics`]).
fn best_wall_s(passes: &[Pass], closed_loop: bool) -> f64 {
    if closed_loop {
        lowest(&passes.iter().map(|p| p.wall_s).collect::<Vec<f64>>())
    } else {
        best_operations(passes).iter().sum::<f64>() * 1e-3
    }
}

/// Reduces the untraced passes to the end-to-end metrics.
///
/// The host this runs on is shared, and what it adds to a timing is
/// always a delay, in bursts and in spells of tens of seconds. So every
/// timing reported is the *best* the run saw, which is the measurement
/// the neighbours disturbed least: for a serial workload each operation
/// is taken at its fastest over the passes and the pass is rebuilt from
/// those; for a closed loop, whose operations overlap, each metric is
/// its best value over the passes. The median and quartiles of the
/// per-pass values go into the results file beside it.
fn end_to_end_metrics(
    setup_times: &[f64],
    passes: &[Pass],
    closed_loop: bool,
) -> Vec<(&'static str, Summary)> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let ops = passes[0].latencies_ms.len();
    let walls = per_pass(&|p| p.wall_s);
    let p50s = per_pass(&|p| percentile(&p.latencies_ms, 50.0));
    let p95s = per_pass(&|p| percentile(&p.latencies_ms, 95.0));
    let (wall_s, p50_ms, p95_ms) = if closed_loop {
        (lowest(&walls), lowest(&p50s), lowest(&p95s))
    } else {
        let best_ops = best_operations(passes);
        (
            best_ops.iter().sum::<f64>() * 1e-3,
            percentile(&best_ops, 50.0),
            percentile(&best_ops, 95.0),
        )
    };
    END_TO_END
        .iter()
        .map(|m| {
            let summary = match m.name {
                "setup_s" => Summary::lowest(setup_times, m.unit),
                "wall_s" => Summary::of(wall_s, &walls, m.unit),
                "jobs_per_s" => Summary::of(
                    ops as f64 / wall_s,
                    &per_pass(&|p| ops as f64 / p.wall_s),
                    m.unit,
                ),
                "latency_p50_ms" => Summary::of(p50_ms, &p50s, m.unit),
                "latency_p95_ms" => Summary::of(p95_ms, &p95s, m.unit),
                "sim_cycles" => Summary::exact(passes[0].sim_cycles as f64, passes.len(), m.unit),
                "peak_rss_mb" => Summary::exact(host::peak_rss_mb(), 1, m.unit),
                other => panic!("no measurement behind end-to-end metric {other}"),
            };
            (m.name, summary)
        })
        .collect()
}

/// `num ÷ den`, or 0 when the workload never touched the denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Derives every span- and counter-based per-layer value. `clients` is
/// the closed loop's client count, `None` for a serial workload.
fn fill_layer(
    layer: &mut Layer,
    tr: &Tracer,
    (traced, roots): (&[Pass], &[SpanId]),
    (ledger_root, ledger_scale): (SpanId, f64),
    untraced: &[Pass],
    clients: Option<usize>,
) {
    // Span self time and call counts: the lowest total over the traced
    // passes (the same best-of-run rule as the end-to-end timings),
    // plus the ledger's stage path scaled to one pass.
    let selfs = self_times_ns(tr.spans());
    let per_pass: Vec<BTreeMap<&'static str, NameTotals>> = roots
        .iter()
        .map(|root| totals_under(tr.spans(), &selfs, *root))
        .collect();
    let ledger = totals_under(tr.spans(), &selfs, ledger_root);
    let names: Vec<&'static str> = per_pass
        .iter()
        .chain(std::iter::once(&ledger))
        .flat_map(|totals| totals.keys().copied())
        .collect();
    let combined = |name: &str, pick: fn(&NameTotals) -> f64| -> f64 {
        let in_passes: Vec<f64> = per_pass
            .iter()
            .map(|totals| totals.get(name).map_or(0.0, pick))
            .collect();
        lowest(&in_passes) + ledger.get(name).map_or(0.0, pick) * ledger_scale
    };
    for name in names {
        let seconds = format!("{name}_s");
        if let Some(metric) = spec::per_layer(&seconds) {
            layer.insert(metric.name, combined(name, |t| t.self_s));
        }
    }
    for (span, metric) in CALL_COUNTS {
        *layer.entry(metric).or_insert(0.0) += combined(span, |t| t.calls as f64);
    }

    // The model's counters (identical in every pass).
    let a = traced[0].activity;
    let counts = |num: u64, den: u64| ratio(num as f64, den as f64);
    layer.insert("sim.shader_cycles", a.shader_cycles as f64);
    layer.insert("sim.warp_instrs", a.warp_instrs as f64);
    layer.insert("sim.mem_instrs", a.mem_instrs as f64);
    layer.insert("sim.ipc", counts(a.warp_instrs, a.shader_cycles));
    layer.insert(
        "sim.core_busy_frac",
        counts(a.core_busy_cycles, a.core_cycle_capacity),
    );
    layer.insert("sim.l1_miss_rate", counts(a.l1_misses, a.l1_accesses));
    layer.insert("sim.l2_miss_rate", counts(a.l2_misses, a.l2_accesses));
    layer.insert("sim.dram_bursts", a.dram_bursts as f64);
    layer.insert("sim.noc_flits", a.noc_flits as f64);

    // Host cost per simulated instruction, from the time spent inside
    // launches and sweeps.
    let sim_ns = 1e9
        * (layer.get("sim.launch_s").copied().unwrap_or(0.0)
            + layer.get("sim.sweep_replay_s").copied().unwrap_or(0.0));
    layer.insert("sim.ns_per_warp_instr", ratio(sim_ns, a.warp_instrs as f64));
    layer.insert("sim.ns_per_mem_instr", ratio(sim_ns, a.mem_instrs as f64));

    // The harness: what tracing cost, and whether self times add up to
    // the wall they were cut from.
    let untraced_wall = best_wall_s(untraced, clients.is_some());
    let traced_wall = best_wall_s(traced, clients.is_some());
    layer.insert("harness.trace_overhead_ratio", traced_wall / untraced_wall);
    let self_s: f64 = per_pass
        .iter()
        .flat_map(|totals| totals.values().map(|t| t.self_s))
        .sum();
    let root_s: f64 = roots
        .iter()
        .map(|root| tr.spans()[*root].duration_ns() as f64 * 1e-9)
        .sum();
    layer.insert(
        "harness.self_time_coverage",
        // With clients side by side the pass root's own self time is
        // ~0 and each client's spans add up to the wall once.
        self_s / (root_s * clients.unwrap_or(1) as f64),
    );

    // End-to-end figures that only some workloads have.
    layer.insert(
        "e2e.ns_per_warp_instr",
        ratio(untraced_wall * 1e9, a.warp_instrs as f64),
    );
    let pooled: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    if percentile_is_supported(pooled.len(), 99.0) {
        layer.insert("e2e.latency_p99_ms", percentile(&pooled, 99.0));
    }
}

/// Writes the spans of the last traced pass and of the ledger to
/// `benchmark/out/trace_<workload>.json`. A failure to write is
/// reported and otherwise ignored: the numbers are already in hand.
fn write_trace_file(name: &str, tr: &Tracer, last_pass: Option<SpanId>, ledger_root: SpanId) {
    let from = last_pass.unwrap_or(ledger_root);
    let mut doc = Value::object();
    doc.set("workload", name);
    doc.set("first_span_id", from);
    doc.set("spans", tr.to_json(from));
    let path = host::out_dir().join(format!("trace_{name}.json"));
    let written = std::fs::create_dir_all(host::out_dir())
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}
