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

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::word::Word;
use isrf_core::Memo;
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_mem::AddrPattern;
use isrf_sim::StreamProgram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, memoized};
use crate::gather::{condense, Condensed, Gather, Layout, Strips};

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
pub(crate) struct Plan {
    pub(crate) adj: Vec<Vec<u32>>,
    /// Relaxation sweeps to run (to convergence, capped at
    /// `max_sweeps`, at least 1).
    sweeps: u32,
    /// Common padded degree (multiple of 4).
    pub(crate) pad: u32,
    /// Per strip, the condensed neighbor references. Records are *node
    /// indices* (the level arrays alternate, so addresses are `base +
    /// node`); record 0 is node `nodes`, the appended `INF` sentinel the
    /// padding points at.
    pub(crate) strips: Vec<Condensed>,
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

pub(crate) fn plan_cached(params: &BfsParams) -> Arc<Plan> {
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
    let strips = adj
        .chunks(params.strip_nodes as usize)
        .map(|strip| {
            let slots = strip
                .iter()
                .flat_map(|srcs| (0..pad as usize).map(|k| srcs.get(k).copied().unwrap_or(n)));
            condense(slots, Some(n))
        })
        .collect();

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
    let lvls = Gather::new(pad, 1, indexed).declare(&mut b, "lvl", ptr);
    let out = b.stream("out", StreamKind::SeqOut);

    let lv = b.seq_read(node);
    let one = b.constant(1);
    let mut acc = b.constant(INF);
    for k in 0..pad {
        let nl = lvls.read(&mut b, k)[0];
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
    let mut m = machine(cfg);

    let plan = plan_cached(params);
    let (n, strip_n, pad) = (params.nodes, params.strip_nodes, plan.pad);
    // Both level arrays start from the canonical state, with the INF
    // sentinel appended; pointers are static across sweeps.
    let mut init: Vec<Word> = (0..n).map(|v| if v == 0 { 0 } else { INF }).collect();
    init.push(INF);
    m.mem_mut().memory_mut().write_block(LA_BASE, &init);
    m.mem_mut().memory_mut().write_block(LB_BASE, &init);

    let kernel = Arc::new(build_kernel(pad, indexed));
    let layout = Layout {
        strip: strip_n,
        seq: [1, pad, 1], // current level, pointer and relaxed-level records
        ptr_base: PTR_BASE,
        cap: None,
    };
    let gather = Gather::new(pad, 1, indexed);
    let mut strips = Strips::new(&mut m, kernel, gather, layout, &plan.strips);
    let mut p = StreamProgram::new();
    let levels = |base: u32, s: u32| AddrPattern::contiguous(base + s * strip_n, strip_n);
    // Barrier between sweeps: sweep t reads what sweep t-1 wrote.
    let mut barrier = Vec::new();
    for t in 0..plan.sweeps {
        let (cur, nxt) = if t % 2 == 0 {
            (LA_BASE, LB_BASE)
        } else {
            (LB_BASE, LA_BASE)
        };
        barrier = strips.sweep(
            &mut p,
            &barrier,
            cur,
            |s, ptrs| [levels(cur, s), ptrs],
            |s| levels(nxt, s),
        );
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
    use crate::common::schedule_for;
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
