//! Deterministic parallel execution: a persistent worker pool for the
//! intra-launch compute phase ([`CorePool`]) and a scoped fan-out pool
//! for independent simulations ([`SimPool`]).
//!
//! Both pools are *deterministic by construction*: they never let thread
//! scheduling influence simulated state.
//!
//! * [`CorePool`] parallelises the per-cycle compute phase over disjoint
//!   core slices. Cores only read the shared [`GpuMemory`] snapshot
//!   during that phase (stores are buffered per core; see
//!   [`Core::commit_stores`]), so any interleaving produces the same
//!   per-core state and the serial commit phase applies side effects in
//!   fixed core-id order. The batched steady-state fast path in
//!   `Gpu::launch_impl` leans on the same split from the other side: a
//!   cycle whose cores buffered nothing (`Core::has_pending_effects` is
//!   `false` everywhere) has a provably empty commit phase, so the
//!   batch runs compute phases back to back — serially, gated per core
//!   on `Core::next_wake` — and skips those commits wholesale. Results
//!   are bit-identical either way, for any thread count.
//! * [`SimPool`] runs independent jobs (each owning its own `Gpu`) and
//!   returns results positionally, so output order never depends on
//!   which thread finished first.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

use crate::config::GpuConfig;
use crate::core::{Core, DecodedInstr, LaunchCtx, PredecodedKernel};
use crate::gpu::{Gpu, LaunchReport, SimError};
use crate::mem::GpuMemory;
use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_trace::KernelTrace;

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A small persistent worker pool that steps disjoint chunks of a
/// launch's cores in parallel, once per shader cycle.
///
/// Workers are spawned once per [`CorePool`] (not per cycle — a launch
/// runs millions of cycles) and receive one closure per cycle over a
/// private channel. The caller always blocks until every worker has
/// acknowledged completion, which is what makes the borrowed-data
/// hand-off below sound.
pub struct CorePool {
    workers: Vec<Worker>,
}

struct Worker {
    tx: Option<Sender<Job>>,
    done_rx: Receiver<Result<(), Box<dyn Any + Send>>>,
    handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for CorePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CorePool")
            .field("threads", &(self.workers.len() + 1))
            .finish()
    }
}

impl CorePool {
    /// Builds a pool that steps cores on `threads` OS threads in total:
    /// the calling thread plus `threads - 1` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2` (a single thread needs no pool).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 2, "CorePool needs at least two threads");
        let workers = (1..threads)
            .map(|i| {
                let (tx, rx) = channel::<Job>();
                let (done_tx, done_rx) = channel();
                let handle = std::thread::Builder::new()
                    .name(format!("gpusim-core-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let result = catch_unwind(AssertUnwindSafe(job));
                            if done_tx.send(result).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn core worker");
                Worker {
                    tx: Some(tx),
                    done_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        CorePool { workers }
    }

    /// Total threads participating in the compute phase (workers + the
    /// calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs the compute phase of one shader cycle: every core's
    /// [`Core::tick`] against the read-only memory snapshot, partitioned
    /// into contiguous chunks. The calling thread steps the first chunk
    /// itself. Returns `true` when any core did observable work (the
    /// stall-aware fast-forward probe).
    ///
    /// A chunk whose cores are all idle is never shipped to a worker:
    /// ticking an idle core is a proven no-op, so the chunk is elided and
    /// each core's stale `progressed` flag is cleared with
    /// [`Core::mark_idle_tick`] instead. The elision keeps the return
    /// value identical to a full tick of every core — and therefore
    /// identical across thread counts, which the determinism suite
    /// checks.
    ///
    /// Worker panics are re-raised on the calling thread after all
    /// outstanding chunks have been acknowledged.
    pub fn tick_cores(
        &mut self,
        cores: &mut [Core],
        cycle: u64,
        cfg: &GpuConfig,
        ctx: &LaunchCtx<'_>,
        mem: &GpuMemory,
    ) -> bool {
        let chunks = self.workers.len() + 1;
        let per = cores.len().div_ceil(chunks).max(1);
        let (first, rest) = cores.split_at_mut(per.min(cores.len()));
        let mut sent = 0;
        for chunk in rest.chunks_mut(per) {
            if chunk.iter().all(|c| !c.is_busy()) {
                for core in chunk.iter_mut() {
                    core.mark_idle_tick();
                }
                continue;
            }
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                for core in chunk {
                    core.tick(cycle, cfg, ctx, mem);
                }
            });
            // SAFETY: the job borrows `cores`, `cfg`, `ctx` and `mem`
            // from this call's frame. We erase those lifetimes to ship
            // the closure to a persistent worker, and re-establish
            // soundness by blocking on the worker's completion ack below
            // before returning — the borrows strictly outlive the job.
            // Every exit path drains one ack per sent job, including
            // panics: worker panics are caught and acked by the worker
            // loop, and a panic in the caller's own chunk is caught
            // below so the drain still runs before it resumes. The
            // protocol is model-checked exhaustively in
            // tests/parallel_model.rs.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            self.workers[sent]
                .tx
                .as_ref()
                .expect("pool not dropped")
                .send(job)
                .expect("core worker alive");
            sent += 1;
        }
        // Catch a panic in the caller's own chunk: unwinding past the
        // ack drain below would free `cores` (declared before the pool
        // in `Gpu`, so dropped first) while workers still hold the
        // lifetime-erased borrows. Draining first makes every exit path
        // — normal, worker panic, caller panic — leave no job in
        // flight.
        let own = catch_unwind(AssertUnwindSafe(|| {
            for core in first {
                core.tick(cycle, cfg, ctx, mem);
            }
        }));
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for worker in &self.workers[..sent] {
            match worker.done_rx.recv().expect("core worker alive") {
                Ok(()) => {}
                Err(payload) => panic = Some(payload),
            }
        }
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        cores.iter().any(Core::progressed)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the channel ends the worker's recv loop; then join.
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
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
    /// closure (thread counts, watchdogs — replay needs no host
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
