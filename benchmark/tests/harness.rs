//! Harness self-tests: the statistics rules, span arithmetic, the
//! `BENCHMARK.json` contract, and a `--smoke` run of every workload in
//! both modes.
//!
//! Run with `cargo test --offline --manifest-path benchmark/Cargo.toml`.

use benchmark::host;
use benchmark::json::Value;
use benchmark::run::{run_named, RunOptions};
use benchmark::span::{self_times_ns, totals_under, Tracer};
use benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use benchmark::stats::{percentile, percentile_is_supported, MIN_SAMPLES_BEYOND};

fn smoke(trace: bool) -> RunOptions {
    RunOptions {
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
        corrupt_payloads: false,
    }
}

fn benchmark_json() -> Value {
    let path = host::benchmark_json_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Value::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn tail_percentiles_need_ten_samples_beyond() {
    assert_eq!(MIN_SAMPLES_BEYOND, 10);
    // 1 200 pooled cold latencies: p95 leaves 60 beyond, p99 leaves 12.
    assert!(percentile_is_supported(1200, 95.0));
    assert!(percentile_is_supported(1200, 99.0));
    // One cold pass of 240: p99 leaves 2 — not a tail estimate.
    assert!(!percentile_is_supported(240, 99.0));
    assert!(percentile_is_supported(240, 95.0));
    // Exactly ten beyond is enough, nine is not.
    assert!(percentile_is_supported(1000, 99.0));
    assert!(!percentile_is_supported(999, 99.05));
    // The serial workloads' few dozen samples support no tail at all.
    assert!(!percentile_is_supported(70, 95.0));

    // Nearest rank: the p-th percentile of 1..=100 is p itself.
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&[3.0, 1.0], 50.0), 1.0);
}

#[test]
fn span_self_times_add_up_to_the_root() {
    let mut tr = Tracer::new(true);
    let root = tr.begin("pass", 0);
    for op in 0..3 {
        tr.scope("kernels.run", op, |tr| {
            tr.scope("sim.launch", op, |_| std::hint::black_box(op));
            tr.scope("sim.launch", op, |_| std::hint::black_box(op));
        });
    }
    tr.end(root);
    let spans = tr.spans();
    // Single-threaded and properly nested: self times partition the
    // root's duration exactly.
    let selfs = self_times_ns(spans);
    assert_eq!(selfs.iter().sum::<u64>(), spans[root].duration_ns());
    let totals = totals_under(spans, &selfs, root);
    assert_eq!(totals["kernels.run"].calls, 3);
    assert_eq!(totals["sim.launch"].calls, 6);
    assert!(totals["kernels.run"].self_s <= totals["kernels.run"].total_s);
}

#[test]
fn benchmark_json_meets_the_contract_and_matches_the_tables() {
    let doc = benchmark_json();
    let mut top = keys(&doc);
    top.sort_unstable();
    assert_eq!(
        top,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let command = doc
        .get("command")
        .and_then(Value::as_array)
        .expect("command");
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Value::as_str).expect("name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);

    let mut seen: Vec<&str> = names.clone();
    for (list, table, bounded) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let metrics = doc
            .get(list)
            .and_then(Value::as_array)
            .expect("metric list");
        assert!(metrics.len() <= if bounded { 16 } else { 128 });
        assert_eq!(metrics.len(), table.len(), "{list} length");
        for (m, def) in metrics.iter().zip(table) {
            let expected: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(m), expected);
            let name = m.get("name").and_then(Value::as_str).expect("name");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            let better = m.get("better").and_then(Value::as_str).expect("better");
            assert!(is_name(name), "{name} is not a valid name");
            assert!(is_unit(unit), "{unit} is not a valid unit");
            assert_eq!((name, unit), (def.name, def.unit));
            assert_eq!(better == "higher", def.higher_is_better, "{name} direction");
            assert!(better == "higher" || better == "lower");
            if bounded {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                assert!((0.0..=0.25).contains(&bound), "{name} bound");
            }
            seen.push(name);
        }
    }
    let setup = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .and_then(|m| {
            m.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let total = seen.len();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), total, "every name is used once");
}

#[test]
fn smoke_runs_emit_every_metric_and_catch_a_corrupted_payload() {
    for workload in WORKLOADS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let record = run_named(workload, &smoke(trace)).expect("a known workload");
            assert!(record.correct(), "{workload} failed its output checks");
            assert!(record.attempted >= 1);

            let line = Value::parse(&record.contract_line().to_string()).expect("valid JSON");
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").expect("metrics");
            let emitted = keys(metrics);
            let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(emitted, expected, "{workload} trace={trace}");
            for (def, (_, m)) in table.iter().zip(metrics.as_object().expect("object")) {
                assert_eq!(keys(m), ["value", "unit"]);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
                let value = m.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {}", def.name);
                if !trace {
                    assert!(value != Some(0.0), "{workload} {} reads 0", def.name);
                }
            }
        }
    }

    // A deliberately corrupted payload must fail the output check.
    let options = RunOptions {
        corrupt_payloads: true,
        ..smoke(false)
    };
    let record = run_named("serve_warm", &options).expect("a known workload");
    assert!(record.failed > 0, "the flipped byte went unnoticed");
    assert!(!record.correct());
    let line = record.contract_line();
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    assert!(line.get("failed").and_then(Value::as_f64) > Some(0.0));

    // Scratch stores are gone once the workloads are.
    let leftovers = std::fs::read_dir(host::out_dir().join("tmp"))
        .map(|dir| dir.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "scratch directories were left behind");
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run_named("nope", &smoke(false)).is_err());
}

#[test]
fn cycles_read_back_from_a_payload_are_the_simulators() {
    use benchmark::workloads::serve::cycles_in_payload;
    use gpusimpow_isa::LaunchConfig;
    use gpusimpow_kernels::micro;
    use gpusimpow_serve::proto::encode_result;
    use gpusimpow_serve::{run_job, GovernorSpec, GpuPreset, JobSpec, KernelSpec};
    use gpusimpow_sim::Gpu;

    for gpu in [GpuPreset::Gt240, GpuPreset::Gtx580] {
        let spec = JobSpec {
            kernel: KernelSpec::Lfsr {
                lanes: 17,
                iterations: 5,
                blocks: 6,
                threads: 96,
            },
            gpu,
            governor: GovernorSpec::Baseline,
            window_cycles: 0,
        };
        let payload = encode_result(&run_job(&spec).expect("a valid job"));
        let report = Gpu::new(gpu.config())
            .expect("a stock preset")
            .launch(&micro::lfsr_kernel(17, 5), LaunchConfig::linear(6, 96))
            .expect("the same launch the job makes");
        assert_eq!(
            cycles_in_payload(&payload, gpu),
            Some(report.stats.shader_cycles)
        );
    }
    assert_eq!(cycles_in_payload(b"not a payload", GpuPreset::Gt240), None);
}
