//! Scoped accounting must be conservative: the per-core registry
//! vectors and per-core/per-cluster busy-cycle counters of
//! `ScopedActivity` sum *exactly* (in `u64`, no tolerance) to the
//! chip-wide `ActivityStats` of the same launch, for every kernel in
//! the small suite on both Table II architectures. The scoped data is
//! also part of the fan-out determinism contract: running the suites
//! side by side on `SimPool` threads must leave every per-core vector
//! bit-identical.

use gpusimpow_kernels::small_benchmarks;
use gpusimpow_sim::{EventKind, Gpu, GpuConfig, LaunchReport, SimPool};

fn run_suite(cfg: &GpuConfig) -> Vec<LaunchReport> {
    let mut gpu = Gpu::new(cfg.clone()).expect("preset builds");
    let mut reports = Vec::new();
    for bench in &small_benchmarks() {
        reports.extend(
            bench
                .run(&mut gpu)
                .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name())),
        );
    }
    reports
}

fn assert_scoped_conserves(cfg: GpuConfig) {
    let clusters = cfg.clusters;
    let cores_per_cluster = cfg.cores_per_cluster;
    for report in run_suite(&cfg) {
        let scoped = &report.scoped;
        assert_eq!(scoped.clusters, clusters);
        assert_eq!(scoped.cores_per_cluster, cores_per_cluster);
        assert_eq!(scoped.per_core.len(), clusters * cores_per_cluster);

        // Registry conservation: chip-scoped + Σ per-core == stats.
        let total = scoped.total_vector();
        let stats = report.stats.to_vector();
        for &event in EventKind::ALL {
            assert_eq!(
                total[event],
                stats[event],
                "`{}`: scoped total diverges from chip stats on {}",
                report.kernel,
                event.name()
            );
        }

        // Cluster aggregation is a pure regrouping of the same cores.
        let mut cluster_sum = scoped.chip.clone();
        for c in 0..clusters {
            cluster_sum += &scoped.cluster_vector(c);
        }
        assert_eq!(
            cluster_sum.values(),
            stats.values(),
            "`{}`: cluster vectors do not regroup to the chip totals",
            report.kernel
        );

        // Busy-cycle conservation against the chip-wide counters.
        let core_busy_total: u64 = scoped.core_busy.iter().sum();
        assert_eq!(
            core_busy_total, report.stats.core_busy_cycles,
            "`{}`: per-core busy cycles do not sum to core_busy_cycles",
            report.kernel
        );
        let per_cluster_core_busy: u64 = (0..clusters).map(|c| scoped.cluster_core_busy(c)).sum();
        assert_eq!(per_cluster_core_busy, report.stats.core_busy_cycles);
        let cluster_busy_total: u64 = scoped.cluster_busy.iter().sum();
        assert_eq!(
            cluster_busy_total, report.stats.cluster_busy_cycles,
            "`{}`: per-cluster busy cycles do not sum to cluster_busy_cycles",
            report.kernel
        );
    }
}

#[test]
fn gt240_scoped_counters_sum_to_chip_totals() {
    assert_scoped_conserves(GpuConfig::gt240());
}

#[test]
fn gtx580_scoped_counters_sum_to_chip_totals() {
    assert_scoped_conserves(GpuConfig::gtx580());
}

#[test]
fn scoped_data_is_bit_identical_across_thread_counts() {
    let presets = vec![GpuConfig::gt240(), GpuConfig::gtx580()];
    let sequential = SimPool::new(1).run(presets.clone(), |cfg| run_suite(&cfg));
    let pooled = SimPool::new(4).run(presets, |cfg| run_suite(&cfg));
    for (sequential, pooled) in sequential.iter().zip(&pooled) {
        assert_eq!(sequential.len(), pooled.len());
        for (seq, par) in sequential.iter().zip(pooled) {
            assert_eq!(
                seq.scoped, par.scoped,
                "`{}`: ScopedActivity diverges between 1 and 4 pool threads",
                seq.kernel
            );
        }
    }
}
