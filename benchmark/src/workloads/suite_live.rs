//! `suite_live` — the paper's Fig. 6 pipeline: `gpusimpow::validate_suite`
//! over the whole Table I suite on GT240 then GTX580, one thread.
//!
//! This is the mix real users run: compute- and memory-bound kernels,
//! multi-launch host programs, CPU verification, power evaluation and
//! the emulated measurement testbed. It is the only workload that
//! yields the accuracy figures, which are errors against the repo's
//! *emulated* testbed (`gpusimpow-measure`), not against silicon.

use std::time::Instant;

use gpusimpow::validate_suite;
use gpusimpow_kernels::{all_benchmarks, small_benchmarks, Benchmark};
use gpusimpow_measure::{KernelExec, Testbed};
use gpusimpow_power::GpuChip;
use gpusimpow_sim::GpuConfig;

use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{new_gpu, presets, Activity, Ctx, Layer, Pass, Workload};
use crate::workloads::{record_launch, run_benchmark, secs};

/// Average relative error the paper reports for (GT240, GTX580), in %.
pub const PAPER_AVG_REL_ERR_PCT: [f64; 2] = [11.7, 10.8];

/// The suite and what earlier passes learnt about it.
pub struct SuiteLive {
    benches: Vec<Box<dyn Benchmark>>,
    configs: [GpuConfig; 2],
    /// Simulated cycles and counters of one pass. `validate_suite`
    /// returns watts, not counters, so these come from running the same
    /// programs on the same presets stage by stage once, before the
    /// first timed pass.
    counts: Option<(u64, Activity)>,
    /// Average relative error per preset from the latest pass, percent.
    errors_pct: [f64; 2],
    /// Wall time spent inside `validate_suite` in each pass so far.
    validate_s: Vec<f64>,
}

impl SuiteLive {
    /// The Fig. 6 flow with every layer call made from here, so each
    /// can carry a span: chip model, simulator, host programs (with the
    /// launches inside them), power evaluation, testbed measurement.
    /// Counts into `pass`.
    fn stage_path(&self, ctx: &Ctx, tr: &mut Tracer, pass: &mut Pass) {
        for cfg in &self.configs {
            let chip = tr.scope("power.chip_new", 0, |_| GpuChip::new(cfg));
            let Ok(chip) = chip else {
                pass.check(false, || format!("chip model rejected {}", cfg.name));
                continue;
            };
            let mut gpu = tr.scope("sim.gpu_new", 0, |_| new_gpu(cfg));
            let mut testbed = tr.scope("measure.testbed_new", 0, |_| {
                Testbed::new(cfg.clone(), ctx.seed)
            });
            for (op, bench) in self.benches.iter().enumerate() {
                let op = op as u64;
                let Some(reports) = run_benchmark(bench.as_ref(), &mut gpu, tr, op) else {
                    pass.check(false, || format!("{} failed", bench.name()));
                    continue;
                };
                pass.attempted += 1;
                for report in &reports {
                    record_launch(cfg, report, pass);
                    tr.scope("power.evaluate", op, |_| {
                        std::hint::black_box(chip.evaluate(&report.kernel, &report.stats));
                    });
                    tr.scope("measure.testbed", op, |_| {
                        std::hint::black_box(testbed.measure(&[KernelExec::from_report(report)]));
                    });
                }
            }
        }
    }
}

impl Workload for SuiteLive {
    fn setup(ctx: &Ctx) -> Self {
        SuiteLive {
            benches: if ctx.smoke {
                small_benchmarks()
            } else {
                all_benchmarks()
            },
            configs: presets(),
            counts: None,
            errors_pct: [0.0; 2],
            validate_s: Vec::new(),
        }
    }

    fn pass(&mut self, ctx: &Ctx, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (cycles, activity) = match self.counts {
            Some(counts) => counts,
            None => {
                let mut staged = Pass::default();
                self.stage_path(ctx, &mut Tracer::new(false), &mut staged);
                pass.attempted += staged.attempted;
                pass.failed += staged.failed;
                *self.counts.insert((staged.sim_cycles, staged.activity))
            }
        };
        pass.sim_cycles = cycles;
        pass.activity = activity;

        let mut validate_s = 0.0;
        for (i, cfg) in self.configs.iter().enumerate() {
            let t = Instant::now();
            let summary = tr.scope("core.validate_suite", i as u64, |_| {
                validate_suite(cfg, &self.benches, ctx.seed)
            });
            let dt = secs(t);
            validate_s += dt;
            pass.latencies_ms.push(dt * 1e3);
            match summary {
                Ok(summary) => {
                    pass.attempted += 1;
                    self.errors_pct[i] = summary.average_relative_error() * 100.0;
                    for row in &summary.rows {
                        pass.fingerprint.bytes(row.kernel.as_bytes());
                        pass.fingerprint.f64(row.simulated_total_w);
                        pass.fingerprint.f64(row.measured_total_w);
                        pass.fingerprint.u64(row.launches as u64);
                    }
                }
                Err(e) => pass.check(false, || format!("validate_suite on {}: {e}", cfg.name)),
            }
        }
        self.validate_s.push(validate_s);
        pass
    }

    fn ledger(&mut self, ctx: &Ctx, tr: &mut Tracer, layer: &mut Layer) -> f64 {
        let t = Instant::now();
        self.stage_path(ctx, tr, &mut Pass::default());
        let staged_s = secs(t);
        // What `validate_suite` spends outside the layer calls the
        // stage path reproduces (its per-kernel aggregation): a
        // difference of two ~1 s walls, so expect noise around zero.
        layer.insert("core.validate_self_s", median(&self.validate_s) - staged_s);
        layer.insert("e2e.avg_rel_err_gt240_pct", self.errors_pct[0]);
        layer.insert("e2e.avg_rel_err_gtx580_pct", self.errors_pct[1]);
        1.0
    }

    /// Accuracy lines for the human-readable output.
    fn notes(&self) -> Vec<(String, String)> {
        self.configs
            .iter()
            .zip(self.errors_pct)
            .zip(PAPER_AVG_REL_ERR_PCT)
            .map(|((cfg, ours), paper)| {
                (
                    format!("avg_rel_err {}", cfg.name),
                    format!(
                        "{ours:.2} % against the emulated testbed (gpusimpow-measure), \
                         not silicon; the paper reports {paper} % against hardware"
                    ),
                )
            })
            .collect()
    }
}
