//! `bfs` (Rodinia): breadth-first search over a CSR graph.
//!
//! Two kernels per frontier level: `bfs1` expands the frontier (highly
//! divergent — each frontier node walks a different-length edge list),
//! `bfs2` folds the updating mask into the next frontier and raises the
//! continuation flag. The host loops until the frontier is empty, so
//! both kernels run several times (the paper averages power over the
//! invocations of a kernel).

use gpusimpow_isa::{CmpOp, KernelBuilder, LaunchConfig, Operand, Reg, SpecialReg};
use gpusimpow_sim::{Gpu, LaunchReport};

use crate::common::{check_u32, BenchError, Benchmark, Origin, XorShift};

const THREADS: u32 = 256;

/// The bfs benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Bfs {
    /// Node count (multiple of 256).
    pub nodes: u32,
    /// Average out-degree.
    pub degree: u32,
}

impl Default for Bfs {
    fn default() -> Self {
        Bfs {
            nodes: 2048,
            degree: 6,
        }
    }
}

/// A CSR graph.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Per-node first-edge offset (len = nodes + 1).
    pub offsets: Vec<u32>,
    /// Edge targets.
    pub edges: Vec<u32>,
}

/// Builds a connected-ish random graph (seeded, deterministic).
pub fn random_graph(nodes: u32, degree: u32, seed: u64) -> Graph {
    let mut rng = XorShift::new(seed);
    let mut offsets = Vec::with_capacity(nodes as usize + 1);
    let mut edges = Vec::new();
    offsets.push(0);
    for v in 0..nodes {
        let deg = 1 + rng.next_below(degree * 2 - 1);
        for _ in 0..deg {
            edges.push(rng.next_below(nodes));
        }
        // A ring edge keeps the graph connected so BFS reaches everything.
        edges.push((v + 1) % nodes);
        offsets.push(edges.len() as u32);
    }
    Graph { offsets, edges }
}

/// CPU reference BFS returning per-node cost (level), `u32::MAX` if
/// unreachable.
pub fn reference(graph: &Graph, source: u32) -> Vec<u32> {
    let n = graph.offsets.len() - 1;
    let mut cost = vec![u32::MAX; n];
    cost[source as usize] = 0;
    let mut frontier = vec![source];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            let (s, e) = (
                graph.offsets[v as usize] as usize,
                graph.offsets[v as usize + 1] as usize,
            );
            for &to in &graph.edges[s..e] {
                if cost[to as usize] == u32::MAX {
                    cost[to as usize] = cost[v as usize] + 1;
                    next.push(to);
                }
            }
        }
        frontier = next;
    }
    cost
}

impl Benchmark for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn origin(&self) -> Origin {
        Origin::Rodinia
    }

    fn description(&self) -> &'static str {
        "Breadth-first search"
    }

    fn kernel_names(&self) -> Vec<String> {
        vec!["bfs1".to_string(), "bfs2".to_string()]
    }

    fn run(&self, gpu: &mut Gpu) -> Result<Vec<LaunchReport>, BenchError> {
        let n = self.nodes;
        assert!(n.is_multiple_of(THREADS));
        let graph = random_graph(n, self.degree, 0xBF5);

        let d_offsets = gpu.alloc_f32(n + 1);
        let d_edges = gpu.alloc_f32(graph.edges.len() as u32);
        let d_mask = gpu.alloc_f32(n);
        let d_updating = gpu.alloc_f32(n);
        let d_visited = gpu.alloc_f32(n);
        let d_cost = gpu.alloc_f32(n);
        let d_stop = gpu.alloc_f32(1);
        gpu.h2d_u32(d_offsets, &graph.offsets);
        gpu.h2d_u32(d_edges, &graph.edges);

        let source = 0u32;
        let mut mask = vec![0u32; n as usize];
        mask[source as usize] = 1;
        let mut visited = vec![0u32; n as usize];
        visited[source as usize] = 1;
        let mut cost = vec![u32::MAX; n as usize];
        cost[source as usize] = 0;
        gpu.h2d_u32(d_mask, &mask);
        gpu.h2d_u32(d_updating, &vec![0u32; n as usize]);
        gpu.h2d_u32(d_visited, &visited);
        gpu.h2d_u32(d_cost, &cost);

        let k1 = build_expand(
            d_offsets.addr(),
            d_edges.addr(),
            d_mask.addr(),
            d_updating.addr(),
            d_visited.addr(),
            d_cost.addr(),
            n,
        );
        let k2 = build_fold(
            d_mask.addr(),
            d_updating.addr(),
            d_visited.addr(),
            d_stop.addr(),
        );
        let launch = LaunchConfig::linear(n / THREADS, THREADS);
        let mut reports = Vec::new();
        // Frontier loop with a safety bound.
        for _level in 0..64 {
            reports.push(gpu.launch(&k1, launch)?);
            gpu.h2d_u32(d_stop, &[0]);
            reports.push(gpu.launch(&k2, launch)?);
            let stop = gpu.d2h_u32(d_stop, 1)[0];
            if stop == 0 {
                break;
            }
        }

        let got = gpu.d2h_u32(d_cost, n as usize);
        let want = reference(&graph, source);
        check_u32("bfs", &got, &want)?;
        Ok(reports)
    }
}

/// bfs1: expand the frontier.
#[allow(
    clippy::too_many_arguments,
    reason = "one device pointer per bfs array, as in the Rodinia kernel"
)]
fn build_expand(
    offsets: u32,
    edges: u32,
    mask: u32,
    updating: u32,
    visited: u32,
    cost: u32,
    n: u32,
) -> gpusimpow_isa::Kernel {
    let mut k = KernelBuilder::new("bfs1");
    let tid = Reg(0);
    let bid = Reg(1);
    k.s2r(tid, SpecialReg::TidX);
    k.s2r(bid, SpecialReg::CtaIdX);
    let v = Reg(2);
    k.imad(v, bid, Operand::imm_u32(THREADS), tid);
    let inrange = Reg(3);
    k.isetp(CmpOp::Lt, inrange, v, Operand::imm_u32(n));
    k.if_then(inrange, |k| {
        let va = Reg(4);
        k.shl(va, v, Operand::imm_u32(2));
        let m = Reg(5);
        k.ld_global(m, va, mask as i32);
        k.if_then(m, |k| {
            // mask[v] = 0
            let zero = Reg(6);
            k.movi(zero, 0);
            k.st_global(zero, va, mask as i32);
            // my cost
            let my_cost = Reg(7);
            k.ld_global(my_cost, va, cost as i32);
            let new_cost = Reg(8);
            k.iadd(new_cost, my_cost, Operand::imm_u32(1));
            // edge range
            let e = Reg(9);
            let e_end = Reg(10);
            k.ld_global(e, va, offsets as i32);
            k.ld_global(e_end, va, offsets as i32 + 4);
            let cond = Reg(11);
            k.while_loop(
                |k| {
                    k.isetp(CmpOp::Lt, cond, e, e_end);
                    cond
                },
                |k| {
                    let ea = Reg(12);
                    k.shl(ea, e, Operand::imm_u32(2));
                    let to = Reg(13);
                    k.ld_global(to, ea, edges as i32);
                    let ta = Reg(14);
                    k.shl(ta, to, Operand::imm_u32(2));
                    let seen = Reg(15);
                    k.ld_global(seen, ta, visited as i32);
                    let unseen = Reg(16);
                    k.isetp(CmpOp::Eq, unseen, seen, Operand::imm_u32(0));
                    k.if_then(unseen, |k| {
                        k.st_global(new_cost, ta, cost as i32);
                        let one = Reg(17);
                        k.movi(one, 1);
                        k.st_global(one, ta, updating as i32);
                    });
                    k.iadd(e, e, Operand::imm_u32(1));
                },
            );
        });
    });
    k.exit();
    k.build().expect("bfs1 kernel is valid")
}

/// bfs2: fold the updating mask into the frontier.
fn build_fold(mask: u32, updating: u32, visited: u32, stop: u32) -> gpusimpow_isa::Kernel {
    let mut k = KernelBuilder::new("bfs2");
    let tid = Reg(0);
    let bid = Reg(1);
    k.s2r(tid, SpecialReg::TidX);
    k.s2r(bid, SpecialReg::CtaIdX);
    let v = Reg(2);
    k.imad(v, bid, Operand::imm_u32(THREADS), tid);
    let va = Reg(3);
    k.shl(va, v, Operand::imm_u32(2));
    let u = Reg(4);
    k.ld_global(u, va, updating as i32);
    k.if_then(u, |k| {
        let one = Reg(5);
        k.movi(one, 1);
        k.st_global(one, va, mask as i32);
        k.st_global(one, va, visited as i32);
        let zero = Reg(6);
        k.movi(zero, 0);
        k.st_global(zero, va, updating as i32);
        // stop flag: benign racy write of 1
        let sa = Reg(7);
        k.movi(sa, stop);
        k.st_global(one, sa, 0);
    });
    k.exit();
    k.build().expect("bfs2 kernel is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusimpow_sim::GpuConfig;

    #[test]
    fn reference_bfs_on_ring() {
        let g = Graph {
            offsets: vec![0, 1, 2, 3, 4],
            edges: vec![1, 2, 3, 0],
        };
        assert_eq!(reference(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_graph_is_well_formed() {
        let g = random_graph(256, 4, 1);
        assert_eq!(g.offsets.len(), 257);
        assert!(g.edges.iter().all(|&e| e < 256));
        assert!(
            g.offsets.windows(2).all(|w| w[0] < w[1],),
            "every node has at least one edge"
        );
    }

    #[test]
    fn runs_and_verifies_on_gt240() {
        let mut gpu = Gpu::new(GpuConfig::gt240()).unwrap();
        let reports = Bfs {
            nodes: 512,
            degree: 4,
        }
        .run(&mut gpu)
        .unwrap();
        assert!(reports.len() >= 4, "several frontier levels");
        let expand = &reports[0].stats;
        assert!(expand.divergent_branches > 0, "bfs is divergence-heavy");
    }
}
