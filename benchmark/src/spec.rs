//! The benchmark's vocabulary: workload and metric names with their
//! units and better-directions, exactly as `BENCHMARK.json` lists them
//! (a self-test compares the two).

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The six workloads. Names are permanent.
pub const WORKLOADS: [&str; 6] = [
    "suite_live",
    "alu_probe",
    "mem_stream",
    "trace_sweep",
    "serve_cold",
    "serve_warm",
];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_130_421;

/// Seconds measured per workload when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Version of the results-file layout.
pub const SCHEMA_VERSION: u64 = 1;

/// End-to-end metrics: measured with tracing off, defined on every
/// workload, each with a regression bound in `BENCHMARK.json`. An
/// *operation* is one `validate_suite` call, launch, `Benchmark::run`,
/// decode+sweep or job, depending on the workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    higher("jobs_per_s", "1/s"),
    lower("latency_p50_ms", "ms"),
    lower("latency_p95_ms", "ms"),
    lower("sim_cycles", "cycles"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from a traced run. `*_s` metrics are seconds of
/// span self time per pass; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // sim — host cost
    lower("sim.launch_s", "s"),
    lower("sim.launch_calls", "count"),
    lower("sim.ns_per_warp_instr", "ns"),
    lower("sim.ns_per_mem_instr", "ns"),
    lower("sim.gpu_new_s", "s"),
    lower("sim.sweep_replay_s", "s"),
    lower("sim.replay_s", "s"),
    lower("sim.replay_vs_live_ratio", "ratio"),
    lower("sim.capture_overhead_ratio", "ratio"),
    lower("sim.sink_overhead_ratio", "ratio"),
    higher("sim.intra_launch_speedup", "ratio"),
    higher("sim.pool_speedup", "ratio"),
    // sim — the model (exact counts; a speed-only change moves none)
    lower("sim.shader_cycles", "cycles"),
    lower("sim.warp_instrs", "count"),
    lower("sim.mem_instrs", "count"),
    higher("sim.ipc", "1/cycle"),
    higher("sim.core_busy_frac", "ratio"),
    lower("sim.l1_miss_rate", "ratio"),
    lower("sim.l2_miss_rate", "ratio"),
    lower("sim.dram_bursts", "count"),
    lower("sim.noc_flits", "count"),
    // trace
    lower("trace.encode_s", "s"),
    lower("trace.decode_s", "s"),
    lower("trace.bytes", "bytes"),
    lower("trace.bytes_per_warp_instr", "bytes"),
    higher("trace.decode_mb_per_s", "MB/s"),
    // kernels
    lower("kernels.build_s", "s"),
    lower("kernels.run_s", "s"),
    // power
    lower("power.chip_new_s", "s"),
    lower("power.evaluate_s", "s"),
    lower("power.evaluate_scoped_s", "s"),
    lower("power.evaluate_calls", "count"),
    // measure, core
    lower("measure.testbed_s", "s"),
    lower("measure.calls", "count"),
    lower("core.validate_suite_s", "s"),
    lower("core.validate_self_s", "s"),
    // pm
    lower("pm.replay_s", "s"),
    lower("pm.windows", "count"),
    lower("pm.us_per_window", "us"),
    // serve
    lower("serve.job.canonical_s", "s"),
    lower("serve.job.validate_s", "s"),
    lower("serve.digest.compute_s", "s"),
    higher("serve.digest.mb_per_s", "MB/s"),
    lower("serve.proto.encode_result_s", "s"),
    lower("serve.proto.decode_result_s", "s"),
    lower("serve.proto.payload_bytes", "bytes"),
    lower("serve.store.get_mem_us", "us"),
    lower("serve.store.get_disk_us", "us"),
    lower("serve.store.insert_us", "us"),
    lower("serve.store.disk_reads", "count"),
    lower("serve.store.disk_writes", "count"),
    higher("serve.server.hits_mem", "count"),
    lower("serve.server.hits_disk", "count"),
    lower("serve.server.misses_simulated", "count"),
    lower("serve.server.coalesced_waits", "count"),
    lower("serve.server.errors", "count"),
    lower("serve.rpc.submit_s", "s"),
    lower("serve.rpc.ping_us", "us"),
    lower("serve.rpc.hit_overhead_us", "us"),
    lower("serve.rpc.cold_overhead_ms", "ms"),
    // End-to-end figures that exist on some workloads only and so
    // cannot sit in the uniform end-to-end list; measured in the
    // untraced half of the traced run.
    lower("e2e.ns_per_warp_instr", "ns"),
    lower("e2e.avg_rel_err_gt240_pct", "%"),
    lower("e2e.avg_rel_err_gtx580_pct", "%"),
    lower("e2e.latency_p99_ms", "ms"),
    lower("e2e.error_rate", "ratio"),
    // the harness itself
    lower("harness.trace_overhead_ratio", "ratio"),
    higher("harness.self_time_coverage", "ratio"),
    higher("harness.threads", "count"),
];

/// Span names whose call count feeds a metric (self time feeds
/// `<span>_s` whenever that metric exists).
pub const CALL_COUNTS: &[(&str, &str)] = &[
    ("sim.launch", "sim.launch_calls"),
    ("power.evaluate", "power.evaluate_calls"),
    ("power.evaluate_scoped", "power.evaluate_calls"),
    ("measure.testbed", "measure.calls"),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}
