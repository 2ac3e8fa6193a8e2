//! Sparse-graph BFS — a generalization of the IG benchmark
//! ([`crate::igraph`]) to much larger graphs with *irregular* degrees:
//! isolated nodes, variable fan-in, and a fraction of long-range edges
//! that defeat the IG window locality.
//!
//! Level-synchronous BFS is run as iterated min-plus relaxation (Jacobi
//! sweeps): `new[v] = min(old[v], min_u(old[u] + 1))` over `v`'s
//! in-neighbors `u`, starting from `dist[0] = 0` and `INF` elsewhere.
//! The host determines the sweep count (to convergence, capped) and
//! every configuration runs exactly that many sweeps over alternating
//! level arrays, so the whole computation is a fixed stream program —
//! each sweep's frontier is implicit in the data, which is exactly the
//! irregular, value-dependent access the index network is for.
//!
//! * **Base/Cache**: each sweep gathers `old[u]` for every (padded)
//!   edge individually through the memory system.
//! * **ISRF**: each strip gathers only its *unique* referenced levels
//!   into a condensed array and the kernel reaches them with
//!   **cross-lane** indexed reads driven by a static pointer stream
//!   (pointers are degree data, identical across sweeps).
//!
//! Rows are padded to a common degree `pad`; padding entries point at a
//! sentinel `INF` slot appended to the level arrays, so `min` ignores
//! them without control flow. Distances are exact integers: results are
//! compared word-for-word against the host Jacobi.

use std::collections::BTreeMap;
use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::word::Word;
use isrf_core::Memo;
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_mem::AddrPattern;
use isrf_sim::{StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, memoized, schedule_for};

/// "Unreached" distance; survives `+ 1` per sweep without wrapping into
/// the sign bit (the cluster `min` is signed).
pub const INF: Word = 0x3FFF_FFFF;

/// Benchmark sizing and graph-shape knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsParams {
    /// Node count; a multiple of `strip_nodes`.
    pub nodes: u32,
    /// Maximum in-degree (degrees vary uniformly up to this).
    pub max_degree: u32,
    /// Percentage (0–100) of nodes with no in-edges at all.
    pub isolated_pct: u32,
    /// Neighbor-window half-width for local edges.
    pub window: u32,
    /// Percentage (0–100) of edges drawn uniformly from the whole
    /// graph instead of the window (long-range shortcuts; they keep the
    /// graph diameter — and the sweep count — small).
    pub long_pct: u32,
    /// Nodes per strip; a multiple of 8.
    pub strip_nodes: u32,
    /// Upper bound on the number of relaxation sweeps.
    pub max_sweeps: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BfsParams {
    fn default() -> Self {
        BfsParams {
            nodes: 512,
            max_degree: 8,
            isolated_pct: 10,
            window: 32,
            long_pct: 5,
            strip_nodes: 64,
            max_sweeps: 8,
            seed: 0x5eed_0022,
        }
    }
}

/// Generate the irregular in-adjacency: `adj[v]` lists the sources `u`
/// feeding `v`'s relaxation.
pub fn generate(params: &BfsParams) -> Vec<Vec<u32>> {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let n = params.nodes;
    (0..n)
        .map(|v| {
            if rng.gen_range(0u32..100) < params.isolated_pct {
                return Vec::new();
            }
            let deg = rng.gen_range(1..=params.max_degree.max(1));
            (0..deg)
                .map(|_| {
                    if rng.gen_range(0u32..100) < params.long_pct {
                        rng.gen_range(0..n)
                    } else {
                        let off = rng.gen_range(-(params.window as i32)..=params.window as i32);
                        (v as i32 + off).rem_euclid(n as i32) as u32
                    }
                })
                .collect()
        })
        .collect()
}

/// One Jacobi sweep of `new[v] = min(old[v], min_u(old[u] + 1))`.
fn sweep(adj: &[Vec<u32>], old: &[Word]) -> Vec<Word> {
    adj.iter()
        .enumerate()
        .map(|(v, srcs)| {
            let mut best = old[v];
            for &u in srcs {
                best = best.min(old[u as usize] + 1);
            }
            best
        })
        .collect()
}

/// Host reference: `sweeps` Jacobi sweeps from the canonical start
/// state (`dist[0] = 0`, `INF` elsewhere).
pub fn reference(adj: &[Vec<u32>], sweeps: u32) -> Vec<Word> {
    let mut dist: Vec<Word> = (0..adj.len())
        .map(|v| if v == 0 { 0 } else { INF })
        .collect();
    for _ in 0..sweeps {
        dist = sweep(adj, &dist);
    }
    dist
}

/// The host-side plan: graph, padded gather metadata per strip, and the
/// convergence-derived sweep count shared by every configuration.
struct Plan {
    adj: Vec<Vec<u32>>,
    /// Relaxation sweeps to run (to convergence, capped at
    /// `max_sweeps`, at least 1).
    sweeps: u32,
    /// Common padded degree (multiple of 4).
    pad: u32,
    strips: Vec<Strip>,
}

/// Per-strip gather metadata. Gather targets are *node indices* (the
/// level arrays alternate, so actual addresses are `base + node`);
/// index `nodes` is the appended `INF` sentinel the padding points at.
struct Strip {
    ptr_words: Vec<Word>,
    unique_nodes: Vec<u32>,
    replicated_nodes: Vec<u32>,
}

type PlanKey = (u64, u32, u32, u32, u32, u32, u32, u32);

fn plan_key(p: &BfsParams) -> PlanKey {
    (
        p.seed,
        p.nodes,
        p.max_degree,
        p.isolated_pct,
        p.window,
        p.long_pct,
        p.strip_nodes,
        p.max_sweeps,
    )
}

/// Plans kept: every workload and tool makes one per profile, this crate's
/// unit tests two.
const PLAN_BUDGET: u64 = 16;

fn plan_cached(params: &BfsParams) -> Arc<Plan> {
    static PLANS: Memo<PlanKey, Plan> = Memo::new(PLAN_BUDGET);
    memoized(&PLANS, plan_key(params), || plan(params))
}

fn plan(params: &BfsParams) -> Plan {
    let adj = generate(params);
    let n = params.nodes;
    // Sweep count: relax until a sweep changes nothing, capped.
    let mut dist: Vec<Word> = (0..n).map(|v| if v == 0 { 0 } else { INF }).collect();
    let mut sweeps = 1u32;
    while sweeps < params.max_sweeps {
        let next = sweep(&adj, &dist);
        if next == dist {
            break;
        }
        dist = next;
        sweeps += 1;
    }

    let pad = adj
        .iter()
        .map(|s| s.len() as u32)
        .max()
        .unwrap_or(0)
        .next_multiple_of(4)
        .max(4);
    let strip_n = params.strip_nodes;
    let mut strips = Vec::with_capacity((n / strip_n) as usize);
    for s in 0..n / strip_n {
        let mut ptr_words = Vec::with_capacity((strip_n * pad) as usize);
        // Record 0 is always the INF sentinel at node index `n`.
        let mut unique_nodes = vec![n];
        let mut pos: BTreeMap<u32, u32> = BTreeMap::new();
        pos.insert(n, 0);
        let mut replicated_nodes = Vec::new();
        for v in s * strip_n..(s + 1) * strip_n {
            let srcs = &adj[v as usize];
            for k in 0..pad as usize {
                let u = srcs.get(k).copied().unwrap_or(n);
                let p = *pos.entry(u).or_insert_with(|| {
                    unique_nodes.push(u);
                    unique_nodes.len() as u32 - 1
                });
                ptr_words.push(p);
                replicated_nodes.push(u);
            }
        }
        strips.push(Strip {
            ptr_words,
            unique_nodes,
            replicated_nodes,
        });
    }

    Plan {
        adj,
        sweeps,
        pad,
        strips,
    }
}

/// Build the relaxation kernel: one node per lane per iteration, `pad`
/// `min(acc, level + 1)` slots. With `indexed`, neighbor levels come
/// from cross-lane indexed reads of the condensed array; otherwise they
/// arrive pre-gathered on a sequential stream.
pub fn build_kernel(pad: u32, indexed: bool) -> Kernel {
    assert!(pad.is_multiple_of(4) && pad >= 4);
    let mut b = KernelBuilder::new(format!(
        "bfs_p{pad}_{}",
        if indexed { "isrf" } else { "base" }
    ));
    let node = b.stream("node", StreamKind::SeqIn);
    let ptr = b.stream("ptr", StreamKind::SeqIn);
    let nstreams = if indexed {
        (pad as usize).div_ceil(4)
    } else {
        1
    };
    let lvls: Vec<_> = if indexed {
        (0..nstreams)
            .map(|k| b.stream(format!("lvl{k}"), StreamKind::IdxCrossRead))
            .collect()
    } else {
        vec![b.stream("gathered", StreamKind::SeqIn)]
    };
    let out = b.stream("out", StreamKind::SeqOut);

    let lv = b.seq_read(node);
    let one = b.constant(1);
    let mut acc = b.constant(INF);
    for k in 0..pad {
        let nl = if indexed {
            let p = b.seq_read(ptr);
            b.idx_load(lvls[(k as usize) % nstreams], p)
        } else {
            // The pointer stream is still consumed (the gather used it),
            // but the kernel reads levels directly.
            let _p = b.seq_read(ptr);
            b.seq_read(lvls[0])
        };
        let relaxed = b.add(nl, one);
        acc = b.min(acc, relaxed);
    }
    let res = b.min(lv, acc);
    b.seq_write(out, res);
    b.build().expect("BFS kernel is well-formed")
}

const LA_BASE: u32 = 0; // level array A (n + 1 words, sentinel last)
const LB_BASE: u32 = 0x8_0000; // level array B
const PTR_BASE: u32 = 0x10_0000; // padded condensed pointers, strip-major

/// Set up the machine and build the full multi-sweep program without
/// running it. The check compares the final level array word-for-word
/// against the host Jacobi.
///
/// # Panics
///
/// Panics if `strip_nodes` is not a positive multiple of 8 dividing
/// `nodes`.
pub fn prepare(cfg: &MachineConfig, params: &BfsParams) -> crate::common::Prepared {
    assert!(params.strip_nodes.is_multiple_of(8) && params.strip_nodes > 0);
    assert!(params.nodes.is_multiple_of(params.strip_nodes) && params.nodes > 0);
    let indexed = cfg.srf.indexed.is_some();
    let cacheable = cfg.cache.is_some();
    let mut m = machine(cfg);

    let plan = plan_cached(params);
    let (n, strip_n, pad) = (params.nodes, params.strip_nodes, plan.pad);
    let kernel = Arc::new(build_kernel(pad, indexed));
    let sched = schedule_for(&m, &kernel);

    // Both level arrays start from the canonical state, with the INF
    // sentinel appended; pointers are static across sweeps.
    let mut init: Vec<Word> = (0..n).map(|v| if v == 0 { 0 } else { INF }).collect();
    init.push(INF);
    m.mem_mut().memory_mut().write_block(LA_BASE, &init);
    m.mem_mut().memory_mut().write_block(LB_BASE, &init);
    for (s, strip) in plan.strips.iter().enumerate() {
        m.mem_mut()
            .memory_mut()
            .write_block(PTR_BASE + s as u32 * strip_n * pad, &strip.ptr_words);
    }

    // Streams (double-buffered across strips).
    let mk = |m: &mut isrf_sim::Machine| {
        (
            m.alloc_stream(1, strip_n),   // current levels of the strip
            m.alloc_stream(pad, strip_n), // pointer records
            m.alloc_stream(1, strip_n),   // relaxed levels out
        )
    };
    let bufs = [mk(&mut m), mk(&mut m)];
    let cap = plan
        .strips
        .iter()
        .map(|s| s.unique_nodes.len() as u32)
        .max()
        .unwrap_or(1);
    let lvl_bufs = if indexed {
        [m.alloc_stream(1, cap), m.alloc_stream(1, cap)]
    } else {
        [m.alloc_stream(pad, strip_n), m.alloc_stream(pad, strip_n)]
    };

    let mut p = StreamProgram::new();
    let mut buf_free: [Option<isrf_sim::ProgOpId>; 2] = [None, None];
    let mut prev_kernel: Option<isrf_sim::ProgOpId> = None;
    // Barrier between sweeps: sweep t reads what sweep t-1 wrote.
    let mut prev_sweep_stores: Vec<isrf_sim::ProgOpId> = Vec::new();
    for t in 0..plan.sweeps {
        let (cur, nxt) = if t % 2 == 0 {
            (LA_BASE, LB_BASE)
        } else {
            (LB_BASE, LA_BASE)
        };
        let mut sweep_stores = Vec::with_capacity(plan.strips.len());
        for (s, strip) in plan.strips.iter().enumerate() {
            let pick = s % 2;
            let (node_b, ptr_b, out_b) = bufs[pick];
            let lb = lvl_bufs[pick];
            let mut ldeps = prev_sweep_stores.clone();
            if let Some(u) = buf_free[pick] {
                ldeps.push(u);
            }
            let first = s as u32 * strip_n;
            let l_node = p.load(
                AddrPattern::contiguous(cur + first, strip_n),
                node_b,
                false,
                &ldeps,
            );
            let l_ptr = p.load(
                AddrPattern::contiguous(PTR_BASE + first * pad, strip_n * pad),
                ptr_b,
                false,
                &ldeps,
            );
            let uniq = strip.unique_nodes.len() as u32;
            let (l_lvl, lvl_binding) = if indexed {
                let addrs = strip.unique_nodes.iter().map(|&u| cur + u).collect();
                (
                    p.load(
                        AddrPattern::Indexed(addrs),
                        lb.slice(0, uniq),
                        cacheable,
                        &ldeps,
                    ),
                    // The kernel addresses the condensed array by record.
                    StreamBinding::whole(lb.range, 1, uniq),
                )
            } else {
                let addrs = strip.replicated_nodes.iter().map(|&u| cur + u).collect();
                (
                    p.load(AddrPattern::Indexed(addrs), lb, cacheable, &ldeps),
                    lb,
                )
            };
            let mut kdeps = vec![l_node, l_ptr, l_lvl];
            if let Some(k) = prev_kernel {
                kdeps.push(k);
            }
            let nstreams = if indexed {
                (pad as usize).div_ceil(4)
            } else {
                1
            };
            let mut bindings = vec![node_b, ptr_b];
            bindings.extend(std::iter::repeat_n(lvl_binding, nstreams));
            bindings.push(out_b);
            let k = p.kernel(
                Arc::clone(&kernel),
                sched.clone(),
                bindings,
                (strip_n / 8) as u64,
                &kdeps,
            );
            let st = p.store(
                out_b,
                AddrPattern::contiguous(nxt + first, strip_n),
                false,
                &[k],
            );
            prev_kernel = Some(k);
            buf_free[pick] = Some(st);
            sweep_stores.push(st);
        }
        prev_sweep_stores = sweep_stores;
    }
    let final_base = if plan.sweeps % 2 == 1 {
        LB_BASE
    } else {
        LA_BASE
    };
    crate::common::Prepared::new(m, p, vec![(final_base, n)], move |m| {
        for (v, &e) in reference(&plan.adj, plan.sweeps).iter().enumerate() {
            let got = m.mem().memory().read(final_base + v as u32);
            assert_eq!(got, e, "node {v}: got {got}, want {e}");
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, params: &BfsParams) -> RunStats {
        prepare(&cfg.into(), params).run_checked()
    }

    fn small() -> BfsParams {
        BfsParams {
            nodes: 256,
            max_degree: 6,
            isolated_pct: 15,
            window: 24,
            long_pct: 8,
            strip_nodes: 32,
            max_sweeps: 6,
            seed: 23,
        }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let m = machine(&ConfigName::Isrf4.into());
        schedule_for(&m, &build_kernel(8, true));
        let m = machine(&ConfigName::Base.into());
        schedule_for(&m, &build_kernel(8, false));
    }

    #[test]
    fn base_functional() {
        run(ConfigName::Base, &small());
    }

    #[test]
    fn isrf_functional() {
        run(ConfigName::Isrf4, &small());
    }

    #[test]
    fn cache_functional() {
        run(ConfigName::Cache, &small());
    }

    #[test]
    fn source_reaches_neighborhood_but_not_isolated_nodes() {
        let params = small();
        let plan = plan_cached(&params);
        let dist = reference(&plan.adj, plan.sweeps);
        assert_eq!(dist[0], 0);
        assert!(
            dist.iter().filter(|&&d| d < INF).count() > 1,
            "some nodes are reached"
        );
        // An isolated node other than the source must stay at INF.
        let isolated = (1..params.nodes)
            .find(|&v| plan.adj[v as usize].is_empty())
            .expect("isolated_pct > 0 yields isolated nodes");
        assert_eq!(dist[isolated as usize], INF);
    }

    #[test]
    fn isrf_reduces_traffic_via_deduplication() {
        let base = run(ConfigName::Base, &small());
        let isrf = run(ConfigName::Isrf4, &small());
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.95, "traffic ratio {ratio:.3}");
        assert!(isrf.srf.crosslane_words > 0, "gathers are cross-lane");
        assert_eq!(isrf.srf.inlane_words, 0);
    }
}
