//! What `serve_cold` and `serve_warm` share: a self-hosted server on a
//! loopback port, the closed-loop clients, and reading simulated cycles
//! back out of a served payload.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use gpusimpow_kernels::common::XorShift;
use gpusimpow_serve::proto::decode_result;
use gpusimpow_serve::{
    Client, GpuPreset, JobOutcome, JobSpec, Server, ServerConfig, StatsSnapshot, StoreConfig,
};

use crate::span::Tracer;
use crate::workload::{Layer, Pass};
use crate::workloads::secs;

/// A running server that is shut down and joined when dropped, so no
/// thread or socket outlives the workload that started it.
pub struct Hosted {
    server: Option<Server>,
}

impl Hosted {
    /// Starts a server on `127.0.0.1:0` with `threads` simulation
    /// threads, a memory tier of `mem_capacity` entries and a disk tier
    /// in `dir`.
    ///
    /// # Panics
    ///
    /// Panics if the loopback bind or the store directory fails: the
    /// workload cannot run at all.
    pub fn start(dir: &Path, mem_capacity: usize, threads: usize) -> Hosted {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            store: StoreConfig {
                dir: Some(dir.to_path_buf()),
                mem_capacity,
            },
        })
        .unwrap_or_else(|e| panic!("cannot start the self-hosted server: {e}"));
        Hosted {
            server: Some(server),
        }
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("present until drop")
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server().local_addr()
    }

    /// The server's counters now.
    pub fn stats(&self) -> StatsSnapshot {
        self.server().stats()
    }
}

impl Drop for Hosted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// What the output check made of one reply.
#[derive(Debug, Clone, Copy)]
pub struct Judged {
    /// The reply passed every check that applies to it.
    pub ok: bool,
    /// Simulated shader cycles in the result it carried.
    pub cycles: u64,
}

/// One submit as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Index of the job in the workload's job list.
    pub job: usize,
    /// Submit-to-reply round trip, milliseconds.
    pub latency_ms: f64,
    /// The output check's verdict.
    pub judged: Judged,
}

/// The closed loop: one client per share, each sending its next
/// single-job submit only after the previous reply arrived. Clients
/// connect first and start together; the returned wall time runs from
/// that start to the last reply. `judge` runs on the client thread,
/// outside the latency measurement.
pub fn closed_loop(
    addr: SocketAddr,
    jobs: &[JobSpec],
    shares: &[Vec<usize>],
    tr: &mut Tracer,
    judge: &(dyn Fn(usize, &JobOutcome) -> Judged + Sync),
) -> (f64, Vec<Reply>) {
    let barrier = Barrier::new(shares.len() + 1);
    let root = tr.begin("serve.closed_loop", 0);
    let (wall_s, replies, forks) = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(c, share)| {
                let mut tr = tr.fork();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    barrier.wait();
                    let lane = tr.begin("serve.client", c as u64);
                    let mut replies = Vec::with_capacity(share.len());
                    for &job in share {
                        let t = Instant::now();
                        let outcome = tr.scope("serve.rpc.submit", job as u64, |_| {
                            client
                                .as_mut()
                                .map_err(|e| e.to_string())
                                .and_then(|client| {
                                    client
                                        .submit(std::slice::from_ref(&jobs[job]))
                                        .map_err(|e| e.to_string())
                                })
                        });
                        let latency_ms = secs(t) * 1e3;
                        let judged = match outcome.as_deref() {
                            Ok([outcome]) => judge(job, outcome),
                            Ok(other) => {
                                eprintln!("job {job}: {} outcomes for one job", other.len());
                                Judged {
                                    ok: false,
                                    cycles: 0,
                                }
                            }
                            Err(e) => {
                                eprintln!("job {job}: {e}");
                                Judged {
                                    ok: false,
                                    cycles: 0,
                                }
                            }
                        };
                        replies.push(Reply {
                            job,
                            latency_ms,
                            judged,
                        });
                    }
                    tr.end(lane);
                    (replies, tr)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut replies = Vec::new();
        let mut forks = Vec::new();
        for handle in handles {
            let (r, fork) = handle.join().expect("client threads do not panic");
            replies.extend(r);
            forks.push(fork);
        }
        (secs(start), replies, forks)
    });
    for fork in forks {
        tr.absorb(fork);
    }
    tr.end(root);
    (wall_s, replies)
}

/// Folds the replies of a closed loop into `pass`: one operation each.
pub fn fold_replies(pass: &mut Pass, wall_s: f64, replies: &[Reply]) {
    pass.wall_s = wall_s;
    for reply in replies {
        pass.latencies_ms.push(reply.latency_ms);
        pass.sim_cycles += reply.judged.cycles;
        pass.check(reply.judged.ok, || {
            format!("reply to job {} failed its check", reply.job)
        });
    }
}

/// Simulated shader cycles in an encoded `JobResult`: each report
/// carries the launch's simulated time, which is `cycles ÷ shader
/// clock`, so rounding the product recovers the count exactly. `None`
/// if the payload does not decode.
pub fn cycles_in_payload(payload: &[u8], preset: GpuPreset) -> Option<u64> {
    let hz = preset.config().shader_mhz() * 1e6;
    let result = decode_result(payload).ok()?;
    Some(
        result
            .reports
            .iter()
            .map(|scoped| (scoped.report.time.seconds() * hz).round() as u64)
            .sum(),
    )
}

/// Splits `order` into `clients` contiguous shares of near-equal size.
pub fn shares(order: &[usize], clients: usize) -> Vec<Vec<usize>> {
    let per = order.len().div_ceil(clients.max(1)).max(1);
    order.chunks(per).map(<[usize]>::to_vec).collect()
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle(order: &mut [usize], rng: &mut XorShift) {
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u32 + 1) as usize);
    }
}

/// `after − before`, counter by counter, for the counters the ledger
/// reports.
pub fn stats_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        jobs_received: after.jobs_received - before.jobs_received,
        batches: after.batches - before.batches,
        hits_mem: after.hits_mem - before.hits_mem,
        hits_disk: after.hits_disk - before.hits_disk,
        misses_simulated: after.misses_simulated - before.misses_simulated,
        coalesced_waits: after.coalesced_waits - before.coalesced_waits,
        errors: after.errors - before.errors,
        corrupt_evictions: after.corrupt_evictions - before.corrupt_evictions,
        mem_entries: after.mem_entries,
        disk_writes: after.disk_writes - before.disk_writes,
    }
}

/// Writes one pass's server counters into the ledger: they prove the
/// workload hit the path it claims.
pub fn stats_to_layer(stats: &StatsSnapshot, layer: &mut Layer) {
    layer.insert("serve.server.hits_mem", stats.hits_mem as f64);
    layer.insert("serve.server.hits_disk", stats.hits_disk as f64);
    layer.insert(
        "serve.server.misses_simulated",
        stats.misses_simulated as f64,
    );
    layer.insert("serve.server.coalesced_waits", stats.coalesced_waits as f64);
    layer.insert("serve.server.errors", stats.errors as f64);
    layer.insert("serve.store.disk_writes", stats.disk_writes as f64);
    // The server does not export the store's read counter; every disk
    // hit is exactly one verified disk read.
    layer.insert("serve.store.disk_reads", stats.hits_disk as f64);
}

/// Median duration in microseconds of the spans called `name`.
pub fn median_span_us(tr: &Tracer, name: &str) -> f64 {
    let durations: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-3)
        .collect();
    if durations.is_empty() {
        0.0
    } else {
        crate::stats::median(&durations)
    }
}
