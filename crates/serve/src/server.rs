//! The simulation server: framed-TCP front end, `SimPool` back end,
//! two-tier cache in between.
//!
//! ## Threading model
//!
//! One accept-loop thread plus one thread per connection (std-only; no
//! async runtime exists in this container, and simulation jobs are
//! milliseconds-to-seconds of CPU work, so per-connection threads are
//! the right tool). All connections share one `Shared` state:
//!
//! - a single mutex around the cache *and* the in-flight table, so the
//!   hit-or-claim decision for a digest is atomic;
//! - the `SimPool` (a `Copy` handle) for fanning a batch's misses out
//!   across cores;
//! - atomic counters for the stats request.
//!
//! ## In-flight deduplication
//!
//! When a batch finds a digest that is neither cached nor in flight, it
//! *claims* it by installing an `InflightSlot` and becomes that
//! digest's owner: it simulates, publishes the result into the slot,
//! inserts it into the store and removes the claim. Any other
//! connection (or later job in the same batch) that meets the claimed
//! digest becomes a waiter: it blocks on the slot's condvar and is
//! served the owner's published bytes. A thousand dashboards asking the
//! same uncached question cost exactly one simulation.
//!
//! Owners publish through `catch_unwind`, so even a panicking job wakes
//! its waiters with an error instead of leaving them blocked forever.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gpusimpow_sim::SimPool;

use crate::job::{run_job, JobSpec};
use crate::proto::{
    encode_result, read_frame, write_frame, JobOutcome, Request, Response, ResultSource,
    StatsSnapshot,
};
use crate::store::{ResultStore, StoreConfig, StoreTier};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7979` (`:0` picks a free port).
    pub addr: String,
    /// Simulation threads (0 = the machine's available parallelism).
    pub threads: usize,
    /// Result-store configuration.
    pub store: StoreConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            store: StoreConfig::default(),
        }
    }
}

/// One claimed in-flight job: waiters block on `cv` until the owner
/// publishes into `result`.
struct InflightSlot {
    result: Mutex<Option<Result<Arc<Vec<u8>>, String>>>,
    cv: Condvar,
}

impl InflightSlot {
    fn new() -> Arc<Self> {
        Arc::new(InflightSlot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Publishes the owner's result and wakes every waiter.
    fn publish(&self, value: Result<Arc<Vec<u8>>, String>) {
        let mut slot = self.result.lock().expect("inflight slot poisoned");
        *slot = Some(value);
        self.cv.notify_all();
    }

    /// Blocks until the owner publishes.
    fn wait(&self) -> Result<Arc<Vec<u8>>, String> {
        let mut slot = self.result.lock().expect("inflight slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cv.wait(slot).expect("inflight slot poisoned");
        }
    }
}

/// Cache state guarded by one mutex: the store and the in-flight table
/// change together, so a digest is always exactly one of cached /
/// in-flight / absent.
struct CacheState {
    store: ResultStore,
    inflight: BTreeMap<crate::digest::JobDigest, Arc<InflightSlot>>,
}

/// Counters, individually atomic (read coherently enough for stats).
#[derive(Default)]
struct Counters {
    jobs_received: AtomicU64,
    batches: AtomicU64,
    hits_mem: AtomicU64,
    hits_disk: AtomicU64,
    misses_simulated: AtomicU64,
    coalesced_waits: AtomicU64,
    errors: AtomicU64,
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    pool: SimPool,
    cache: Mutex<CacheState>,
    counters: Counters,
    shutdown: AtomicBool,
    /// Live connection-handler count, for draining on shutdown.
    conns: Mutex<usize>,
    conns_cv: Condvar,
}

/// A running simulation server.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving on background threads.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if binding or store setup fails.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let store = ResultStore::new(config.store)?;
        let shared = Arc::new(Shared {
            pool: SimPool::new(config.threads),
            cache: Mutex::new(CacheState {
                store,
                inflight: BTreeMap::new(),
            }),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("gpusim-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            local_addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (useful with a `:0` config).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Simulation threads in the pool.
    pub fn threads(&self) -> usize {
        self.shared.pool.threads()
    }

    /// Requests shutdown: stop accepting, then drain live connections.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Blocks until the accept loop has exited (a Shutdown request or
    /// [`Server::shutdown`]) and every connection handler has finished,
    /// then returns the final counters.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let drain = Duration::from_millis(100);
        {
            let mut conns = self.shared.conns.lock().expect("conn count poisoned");
            while *conns > 0 {
                let (guard, _) = self
                    .shared
                    .conns_cv
                    .wait_timeout(conns, drain)
                    .expect("conn count poisoned");
                conns = guard;
            }
        }
        snapshot(&self.shared)
    }

    /// A point-in-time counter snapshot (same data the Stats request
    /// returns).
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let c = &shared.counters;
    let (mem_entries, store_counters) = {
        let cache = shared.cache.lock().expect("cache poisoned");
        (cache.store.mem_entries() as u64, cache.store.counters())
    };
    StatsSnapshot {
        jobs_received: c.jobs_received.load(Ordering::Relaxed),
        batches: c.batches.load(Ordering::Relaxed),
        hits_mem: c.hits_mem.load(Ordering::Relaxed),
        hits_disk: c.hits_disk.load(Ordering::Relaxed),
        misses_simulated: c.misses_simulated.load(Ordering::Relaxed),
        coalesced_waits: c.coalesced_waits.load(Ordering::Relaxed),
        errors: c.errors.load(Ordering::Relaxed),
        corrupt_evictions: store_counters.corrupt_evictions,
        mem_entries,
        disk_writes: store_counters.disk_writes,
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Frames are small request/response pairs; Nagle only adds
        // latency here.
        let _ = stream.set_nodelay(true);
        {
            let mut conns = shared.conns.lock().expect("conn count poisoned");
            *conns += 1;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("gpusim-serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                let mut conns = conn_shared.conns.lock().expect("conn count poisoned");
                *conns -= 1;
                conn_shared.conns_cv.notify_all();
            });
        if spawned.is_err() {
            let mut conns = shared.conns.lock().expect("conn count poisoned");
            *conns -= 1;
            shared.conns_cv.notify_all();
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean hang-up
            Err(_) => return,   // torn frame: the stream is unusable
        };
        let response = match Request::decode(&payload) {
            Ok(Request::Submit(jobs)) => Response::Results(handle_batch(jobs, shared)),
            Ok(Request::Stats) => Response::Stats(snapshot(shared)),
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Shutdown) => {
                let _ = write_frame(&mut stream, &Response::ShuttingDown.encode());
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop.
                if let Ok(addr) = stream.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
            Err(e) => {
                // A decodable frame with an undecodable request: answer
                // the error, keep the connection (framing is intact).
                let _ = write_frame(&mut stream, &Response::Error(e.to_string()).encode());
                continue;
            }
        };
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// How one job in a batch gets its bytes.
enum Plan {
    /// Already served from the cache.
    Done(JobOutcome),
    /// This batch claimed the digest and must simulate it; the index
    /// points into the batch's owned-jobs list.
    Own { job_index: usize },
    /// Another claim exists; wait for its owner to publish.
    Wait(Arc<InflightSlot>),
}

/// Serves one Submit batch: classify every job under the cache lock,
/// simulate the claimed misses on the pool, publish, then collect
/// waiter results. Outcomes come back in submission order.
fn handle_batch(jobs: Vec<JobSpec>, shared: &Arc<Shared>) -> Vec<JobOutcome> {
    let c = &shared.counters;
    c.batches.fetch_add(1, Ordering::Relaxed);
    c.jobs_received
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);

    let digests: Vec<_> = jobs.iter().map(JobSpec::digest).collect();

    // Phase 1: atomically decide hit / claim / wait per job. Duplicate
    // digests within the batch resolve to one claim plus waiters.
    let mut owned_jobs = Vec::new(); // (job, digest, slot) this batch simulates
    let mut plans = Vec::with_capacity(jobs.len());
    {
        let mut cache = shared.cache.lock().expect("cache poisoned");
        for (i, job) in jobs.iter().enumerate() {
            let digest = digests[i];
            if let Some((payload, tier)) = cache.store.get(digest) {
                let source = match tier {
                    StoreTier::Memory => {
                        c.hits_mem.fetch_add(1, Ordering::Relaxed);
                        ResultSource::MemoryHit
                    }
                    StoreTier::Disk => {
                        c.hits_disk.fetch_add(1, Ordering::Relaxed);
                        ResultSource::DiskHit
                    }
                };
                plans.push(Plan::Done(JobOutcome {
                    digest,
                    source,
                    payload: Ok(payload.as_ref().clone()),
                }));
            } else if let Some(slot) = cache.inflight.get(&digest) {
                plans.push(Plan::Wait(Arc::clone(slot)));
            } else {
                let slot = InflightSlot::new();
                cache.inflight.insert(digest, Arc::clone(&slot));
                plans.push(Plan::Own {
                    job_index: owned_jobs.len(),
                });
                owned_jobs.push((job.clone(), digest, slot));
            }
        }
    }

    // Phase 2: simulate the claimed misses across the pool. The closure
    // catches panics so a dying job still publishes to its waiters.
    let specs: Vec<JobSpec> = owned_jobs.iter().map(|(job, _, _)| job.clone()).collect();
    let results: Vec<Result<Vec<u8>, String>> = shared.pool.run(specs, |job| {
        catch_unwind(AssertUnwindSafe(|| {
            run_job(&job)
                .map(|r| encode_result(&r))
                .map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            Err(format!("job panicked: {msg}"))
        })
    });

    // Phase 3: publish every owned result — into the store on success,
    // and into the slot either way — and release the claims.
    let mut owned_payloads = Vec::with_capacity(results.len());
    {
        let mut cache = shared.cache.lock().expect("cache poisoned");
        for ((_, digest, slot), result) in owned_jobs.iter().zip(results) {
            let published = match result {
                Ok(bytes) => {
                    c.misses_simulated.fetch_add(1, Ordering::Relaxed);
                    let payload = Arc::new(bytes);
                    cache.store.insert(*digest, Arc::clone(&payload));
                    Ok(payload)
                }
                Err(msg) => {
                    c.errors.fetch_add(1, Ordering::Relaxed);
                    Err(msg)
                }
            };
            slot.publish(published.clone());
            cache.inflight.remove(digest);
            owned_payloads.push(published);
        }
    }

    // Phase 4: assemble outcomes in submission order; waiters block
    // here until their owners (possibly on other connections) publish.
    plans
        .into_iter()
        .enumerate()
        .map(|(i, plan)| match plan {
            Plan::Done(outcome) => outcome,
            Plan::Own { job_index } => JobOutcome {
                digest: digests[i],
                source: ResultSource::Simulated,
                payload: owned_payloads[job_index]
                    .clone()
                    .map(|p| p.as_ref().clone()),
            },
            Plan::Wait(slot) => {
                c.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                JobOutcome {
                    digest: digests[i],
                    source: ResultSource::Coalesced,
                    payload: slot.wait().map(|p| p.as_ref().clone()),
                }
            }
        })
        .collect()
}
