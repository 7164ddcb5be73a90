//! Experiment fan-out: [`SimPool`] runs independent simulations (each
//! job owns its own `Gpu`) on a fixed number of threads.
//!
//! The pool is *deterministic by construction*: results return
//! positionally, so output order never depends on which thread finished
//! first, and jobs share no simulated state — thread scheduling can
//! change wall-clock time, never results. This is the simulator's only
//! level of parallelism; the cores of one launch are stepped serially
//! (see `Gpu::launch_impl` and `DESIGN.md` §10).

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::config::GpuConfig;
use crate::core::{DecodedInstr, PredecodedKernel};
use crate::gpu::{Gpu, LaunchReport, SimError};
use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_trace::KernelTrace;

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fans independent simulation jobs out over a fixed number of threads.
///
/// Jobs are claimed from a shared cursor, but results are written back
/// by *input index*, so `run` always returns outputs in input order —
/// thread scheduling can change wall-clock time, never results.
#[derive(Debug, Clone, Copy)]
pub struct SimPool {
    threads: usize,
}

impl SimPool {
    /// Builds a pool with `threads` threads; `0` means "use the
    /// machine's available parallelism".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        SimPool { threads }
    }

    /// The number of threads jobs fan out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every input, in parallel when the pool has more
    /// than one thread, and returns the outputs in input order.
    ///
    /// A panicking job propagates to the caller once the scope unwinds.
    pub fn run<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = inputs.len();
        if self.threads <= 1 || n <= 1 {
            return inputs.into_iter().map(f).collect();
        }
        let jobs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads.min(n))
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let input = jobs[i]
                            .lock()
                            .expect("no prior panic")
                            .take()
                            .expect("each job claimed once");
                        let output = f(input);
                        *slots[i].lock().expect("no prior panic") = Some(output);
                    })
                })
                .collect();
            // Join by hand so a job's panic payload reaches the caller
            // verbatim instead of scope's generic "a scoped thread
            // panicked" message.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no prior panic")
                    .expect("every job completed")
            })
            .collect()
    }

    /// Runs one kernel under N GPU configurations in a single pass.
    ///
    /// The kernel is pre-decoded **once** ([`PredecodedKernel::new`]) and
    /// specialized once per *distinct* register-file bank count — the
    /// only configuration-dependent decode field — so a sweep over M
    /// configs that share a bank count (both stock presets use 16) pays
    /// for one decode and one specialization total, instead of M full
    /// decodes. Per-config back-end state stays fully private: each job
    /// builds its own [`Gpu`], runs the caller's `stage` closure (host
    /// program: allocations, copies, launch parameters), then launches
    /// through [`Gpu::launch_decoded`] against the shared table. Jobs
    /// fan out over the pool's threads and results return in config
    /// order.
    ///
    /// `stage` prepares one GPU and returns the launch geometry; it is
    /// called once per config with that config's index in `configs`
    /// (ladders that vary launch geometry key off the index) and may
    /// inspect the GPU's configuration to scale inputs.
    ///
    /// # Errors
    ///
    /// Each config's slot carries its own [`SimError`]; one config
    /// failing does not disturb the others.
    pub fn run_sweep<S>(
        &self,
        kernel: &Kernel,
        configs: &[GpuConfig],
        stage: S,
    ) -> Vec<Result<LaunchReport, SimError>>
    where
        S: Fn(usize, &mut Gpu) -> Result<LaunchConfig, SimError> + Sync,
    {
        self.sweep(kernel, configs, |idx, gpu, table| {
            let launch = stage(idx, gpu)?;
            gpu.launch_decoded(kernel, launch, table)
        })
    }

    /// The shared front end of the sweeps: decodes `kernel` once,
    /// specializes the table per distinct register-file bank count, and
    /// fans one job per config out over the pool. Each job builds its
    /// own [`Gpu`] and hands it to `launch` together with its config's
    /// index and table.
    fn sweep<L>(
        &self,
        kernel: &Kernel,
        configs: &[GpuConfig],
        launch: L,
    ) -> Vec<Result<LaunchReport, SimError>>
    where
        L: Fn(usize, &mut Gpu, &[DecodedInstr]) -> Result<LaunchReport, SimError> + Sync,
    {
        let predecoded = PredecodedKernel::new(kernel);
        let mut tables: Vec<(usize, Vec<DecodedInstr>)> = Vec::new();
        for cfg in configs {
            if !tables.iter().any(|(banks, _)| *banks == cfg.regfile_banks) {
                tables.push((cfg.regfile_banks, predecoded.specialize(cfg)));
            }
        }
        let tables = &tables;
        let launch = &launch;
        let jobs: Vec<(usize, GpuConfig)> = configs.iter().cloned().enumerate().collect();
        self.run(jobs, move |(idx, cfg)| {
            let banks = cfg.regfile_banks;
            let table = &tables
                .iter()
                .find(|(b, _)| *b == banks)
                .expect("every config's bank count was specialized")
                .1;
            let mut gpu = Gpu::new(cfg)?;
            launch(idx, &mut gpu, table)
        })
    }

    /// Replays one captured trace under N GPU configurations in a
    /// single pass — the trace-frontend counterpart of
    /// [`SimPool::run_sweep`]. The kernel image is reconstructed and
    /// pre-decoded **once** from the trace and shared across all
    /// configs (specialized per distinct register-file bank count);
    /// each job then builds its own [`Gpu`], runs the caller's `stage`
    /// closure (watchdogs, sinks — replay needs no host
    /// allocations or copies, so `stage` returns no launch geometry),
    /// and replays through [`Gpu::launch_replay_decoded`].
    ///
    /// Because the recorded streams are configuration-independent for a
    /// fixed warp size, each config's report is bit-identical to an
    /// independent live run of the original kernel under that config
    /// (pinned by `tests/trace_replay.rs`).
    ///
    /// # Errors
    ///
    /// A trace rejected up front fails every slot with
    /// [`SimError::Replay`]; per-config failures stay in their own
    /// slot, as in [`SimPool::run_sweep`].
    pub fn run_sweep_replay<S>(
        &self,
        trace: &KernelTrace,
        configs: &[GpuConfig],
        stage: S,
    ) -> Vec<Result<LaunchReport, SimError>>
    where
        S: Fn(usize, &mut Gpu) -> Result<(), SimError> + Sync,
    {
        let kernel = match trace.to_kernel() {
            Ok(kernel) => kernel,
            Err(e) => {
                let err = SimError::Replay(format!("trace rejected: {e}"));
                return configs.iter().map(|_| Err(err.clone())).collect();
            }
        };
        self.sweep(&kernel, configs, |idx, gpu, table| {
            stage(idx, gpu)?;
            gpu.launch_replay_decoded(trace, table)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_pool_preserves_input_order() {
        let pool = SimPool::new(4);
        let out = pool.run((0..64).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sim_pool_single_thread_is_plain_map() {
        let pool = SimPool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool.run(vec!["a", "bb", "ccc"], |s| s.len());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn sim_pool_zero_means_available_parallelism() {
        let pool = SimPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn sim_pool_handles_more_threads_than_jobs() {
        let pool = SimPool::new(16);
        let out = pool.run(vec![1u64, 2], |x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn sim_pool_propagates_job_panics() {
        let pool = SimPool::new(2);
        let _ = pool.run(vec![0, 1, 2, 3], |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
