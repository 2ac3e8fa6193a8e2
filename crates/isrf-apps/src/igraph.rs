//! The Irregular Graph (IG) synthetic benchmark — Section 5.2, Table 4.
//!
//! A static irregular graph: for every node, all neighbor values are read
//! and the node value updated (a Jacobi-style sweep). The graph is much
//! larger than the SRF, so nodes are processed in strips.
//!
//! * **Base/Cache**: the memory system gathers each node's neighbor-value
//!   records; a node referenced by several strip nodes is fetched (and
//!   stored in the SRF) once *per reference* — the intra-strip replication
//!   the paper highlights.
//! * **ISRF**: only the strip's *unique* referenced records are gathered
//!   into a condensed array; the kernel reaches them with **cross-lane**
//!   indexed reads ("no data is replicated across lanes, and therefore all
//!   indexed SRF accesses are cross-lane"), at the cost of an index
//!   (pointer) stream into the condensed array. Eliminating replication
//!   also roughly doubles the strip size in the same SRF budget (Table 4),
//!   amortizing kernel start/end overheads.
//!
//! Dataset knobs mirror Table 4: FP ops per neighbor (16 or 51), average
//! degree (4 or 16), and strip sizes chosen so both versions occupy about
//! the same SRF space. Neighbors are drawn from a window around each node,
//! giving the intra-strip locality the ISRF exploits. Results are verified
//! against a host-side sweep with identical f32 arithmetic.

use std::collections::BTreeMap;
use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::word::{as_f32, from_f32, Word};
use isrf_core::Memo;
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind, ValueId};
use isrf_mem::AddrPattern;
use isrf_sim::{StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{machine, memoized, schedule_for};

/// One IG dataset (a Table 4 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IgDataset {
    /// Dataset name as the paper spells it.
    pub name: &'static str,
    /// FP ops per neighbor record.
    pub fp_ops: u32,
    /// Degree (neighbors per node; the paper's average degree).
    pub degree: u32,
    /// Total nodes in the graph.
    pub nodes: u32,
    /// Nodes per strip on the Base configuration.
    pub base_strip_nodes: u32,
    /// Nodes per strip with the indexed SRF (about 2x: no replication).
    pub isrf_strip_nodes: u32,
    /// Neighbor-window half-width (locality of the graph).
    pub window: u32,
    /// RNG seed.
    pub seed: u64,
}

/// The four datasets of Table 4. Strip sizes in the paper are neighbor
/// records per invocation (1163/2316 sparse, 265/528 dense); divided by
/// the degree and rounded to lane multiples they become node counts.
pub const DATASETS: [IgDataset; 4] = [
    IgDataset {
        name: "IG_SML",
        fp_ops: 16,
        degree: 4,
        nodes: 4608,
        base_strip_nodes: 288,
        isrf_strip_nodes: 576,
        window: 64,
        seed: 0x5eed_0016,
    },
    IgDataset {
        name: "IG_SCL",
        fp_ops: 51,
        degree: 4,
        nodes: 4608,
        base_strip_nodes: 288,
        isrf_strip_nodes: 576,
        window: 64,
        seed: 0x5eed_0017,
    },
    IgDataset {
        name: "IG_DMS",
        fp_ops: 16,
        degree: 16,
        nodes: 1024,
        base_strip_nodes: 16,
        isrf_strip_nodes: 32,
        window: 16,
        seed: 0x5eed_0018,
    },
    IgDataset {
        name: "IG_DCS",
        fp_ops: 51,
        degree: 16,
        nodes: 1024,
        base_strip_nodes: 16,
        isrf_strip_nodes: 32,
        window: 16,
        seed: 0x5eed_0019,
    },
];

/// Look a dataset up by name.
pub fn dataset(name: &str) -> IgDataset {
    *DATASETS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown IG dataset {name}"))
}

/// The generated graph: values (2-word records) and adjacency.
pub struct Graph {
    /// Per-node record `(v0, v1)`.
    pub values: Vec<(f32, f32)>,
    /// `adj[i]` lists node `i`'s neighbors.
    pub adj: Vec<Vec<u32>>,
}

/// Generate the synthetic graph: neighbors uniform in a window around each
/// node (modulo the node count), giving intra-strip locality.
pub fn generate(ds: &IgDataset) -> Graph {
    let mut rng = SmallRng::seed_from_u64(ds.seed);
    let n = ds.nodes;
    let values = (0..n)
        .map(|_| (rng.gen_range(-1.0f32..1.0), rng.gen_range(0.1f32..1.0)))
        .collect();
    let adj = (0..n)
        .map(|i| {
            (0..ds.degree)
                .map(|_| {
                    let off = rng.gen_range(-(ds.window as i32)..=ds.window as i32);
                    (i as i32 + off).rem_euclid(n as i32) as u32
                })
                .collect()
        })
        .collect();
    Graph { values, adj }
}

/// Everything that identifies a generated graph.
type GraphKey = (u64, u32, u32, u32);

fn graph_key(ds: &IgDataset) -> GraphKey {
    (ds.seed, ds.nodes, ds.degree, ds.window)
}

/// [`generate`], memoized per dataset: the sweep drivers run every
/// dataset on four configurations (plus the host reference a second
/// time per run), and generation is deterministic.
fn generate_cached(ds: &IgDataset) -> Arc<Graph> {
    static GRAPHS: Memo<GraphKey, Graph> = Memo::new(DATASET_BUDGET);
    memoized(&GRAPHS, graph_key(ds), || generate(ds))
}

/// Entries kept by each igraph memo, two generations of sixteen: four
/// datasets at two strip sizes and two profiles bound the host images at
/// sixteen (`figures all` makes eight, four graphs and four references).
const DATASET_BUDGET: u64 = 32;

/// Host-side preprocessing of one strip (the graph preprocessing the
/// paper assigns to the host): the condensed pointer stream, the
/// unique-record gather list, and the per-reference (replicated) gather
/// list the Base configurations use.
struct Strip {
    ptr_words: Vec<Word>,
    unique_addrs: Vec<u32>,
    unique_records: u32,
    replicated_addrs: Vec<u32>,
}

/// The dataset's full host-prepared memory image for one strip size.
struct HostImage {
    val_words: Vec<Word>,
    adj_words: Vec<Word>,
    strips: Vec<Strip>,
}

/// Compute (or fetch) the host image for `ds` at `strip_nodes` nodes per
/// strip. Deterministic in the key, so it is shared across the four
/// machine configurations and across sweep repeats.
fn host_image(ds: &IgDataset, strip_nodes: u32) -> Arc<HostImage> {
    static IMAGES: Memo<(GraphKey, u32), HostImage> = Memo::new(DATASET_BUDGET);
    let build = || build_host_image(ds, strip_nodes);
    memoized(&IMAGES, (graph_key(ds), strip_nodes), build)
}

fn build_host_image(ds: &IgDataset, strip_nodes: u32) -> HostImage {
    let g = generate_cached(ds);
    let val_words: Vec<Word> = g
        .values
        .iter()
        .flat_map(|&(a, b)| [from_f32(a), from_f32(b)])
        .collect();
    let adj_words: Vec<Word> = g.adj.iter().flatten().copied().collect();
    let mut out = Vec::with_capacity((ds.nodes / strip_nodes) as usize);
    for s in 0..ds.nodes / strip_nodes {
        let first = s * strip_nodes;
        let mut ptr_words = Vec::new();
        let mut unique_addrs = Vec::new();
        let mut pos: BTreeMap<u32, u32> = BTreeMap::new();
        for i in first..first + strip_nodes {
            for &j in &g.adj[i as usize] {
                let p = *pos.entry(j).or_insert_with(|| {
                    unique_addrs.push(VAL_BASE + 2 * j);
                    unique_addrs.push(VAL_BASE + 2 * j + 1);
                    (unique_addrs.len() as u32 / 2) - 1
                });
                ptr_words.push(p);
            }
        }
        let unique_records = unique_addrs.len() as u32 / 2;
        let replicated_addrs: Vec<u32> = ptr_words
            .iter()
            .flat_map(|&pp| {
                [
                    unique_addrs[2 * pp as usize],
                    unique_addrs[2 * pp as usize + 1],
                ]
            })
            .collect();
        out.push(Strip {
            ptr_words,
            unique_addrs,
            unique_records,
            replicated_addrs,
        });
    }
    HostImage {
        val_words,
        adj_words,
        strips: out,
    }
}

/// The per-neighbor function: exactly `fp_ops` FP operations including the
/// accumulate, alternating multiply/add so the reference can mirror the
/// f32 rounding bit-for-bit.
fn host_neighbor(acc: f32, v0: f32, v1: f32, fp_ops: u32) -> f32 {
    const C: f32 = 1.0001;
    let mut t = v0;
    for s in 0..fp_ops - 1 {
        t = if s % 2 == 0 { t * C } else { t + v1 };
    }
    acc + t
}

/// [`reference`] on the memoized graph, itself memoized per dataset —
/// every configuration of a dataset verifies against the same sweep.
fn reference_cached(ds: &IgDataset) -> Arc<Vec<(f32, f32)>> {
    static REFERENCES: Memo<(GraphKey, u32), Vec<(f32, f32)>> = Memo::new(DATASET_BUDGET);
    let sweep = || reference(&generate_cached(ds), ds.fp_ops);
    memoized(&REFERENCES, (graph_key(ds), ds.fp_ops), sweep)
}

/// Host reference: one full sweep.
pub fn reference(g: &Graph, fp_ops: u32) -> Vec<(f32, f32)> {
    g.adj
        .iter()
        .enumerate()
        .map(|(i, nbrs)| {
            let mut acc = 0.0f32;
            for &j in nbrs {
                let (v0, v1) = g.values[j as usize];
                acc = host_neighbor(acc, v0, v1, fp_ops);
            }
            let (n0, n1) = g.values[i];
            (n0 + acc * 0.5, n1)
        })
        .collect()
}

/// Emit the per-neighbor FP chain for value ids `(v0, v1)`.
fn emit_neighbor(
    b: &mut KernelBuilder,
    acc: ValueId,
    v0: ValueId,
    v1: ValueId,
    fp_ops: u32,
) -> ValueId {
    let c = b.constant_f(1.0001);
    let mut t = v0;
    for s in 0..fp_ops - 1 {
        t = if s % 2 == 0 {
            b.fmul(t, c)
        } else {
            b.fadd(t, v1)
        };
    }
    b.fadd(acc, t)
}

/// Build the update kernel. With `indexed`, neighbor values come from
/// cross-lane indexed reads of the condensed array driven by a sequential
/// pointer stream; otherwise they arrive pre-gathered (replicated) on a
/// sequential stream.
pub fn build_kernel(ds: &IgDataset, indexed: bool) -> Kernel {
    let mut b = KernelBuilder::new(format!(
        "ig_{}_{}",
        ds.name,
        if indexed { "isrf" } else { "base" }
    ));
    let node = b.stream("node", StreamKind::SeqIn);
    let idx = b.stream("idx", StreamKind::SeqIn);
    // Cross-lane accesses are spread over several streams so the per-
    // stream outstanding records fit the address FIFO + stream buffer
    // (at most 4 two-word records per stream per iteration).
    let nstreams = if indexed {
        (ds.degree as usize).div_ceil(4)
    } else {
        1
    };
    let vals: Vec<_> = if indexed {
        (0..nstreams)
            .map(|k| b.stream(format!("unique{k}"), StreamKind::IdxCrossRead))
            .collect()
    } else {
        vec![b.stream("gathered", StreamKind::SeqIn)]
    };
    let out = b.stream("out", StreamKind::SeqOut);

    let n0 = b.seq_read(node);
    let n1 = b.seq_read(node);
    let zero = b.constant_f(0.0);
    let mut acc = zero;
    for k in 0..ds.degree {
        let (v0, v1) = if indexed {
            let p = b.seq_read(idx);
            let s = vals[(k as usize) % nstreams];
            let rec = b.idx_load_record(s, p, 2);
            (rec[0], rec[1])
        } else {
            // The pointer stream is still consumed (the gather used it),
            // but the kernel reads values directly.
            let _p = b.seq_read(idx);
            let v0 = b.seq_read(vals[0]);
            let v1 = b.seq_read(vals[0]);
            (v0, v1)
        };
        acc = emit_neighbor(&mut b, acc, v0, v1, ds.fp_ops);
    }
    let half = b.constant_f(0.5);
    let scaled = b.fmul(acc, half);
    let o0 = b.fadd(n0, scaled);
    b.seq_write(out, o0);
    b.seq_write(out, n1);
    b.build().expect("IG kernel is well-formed")
}

const VAL_BASE: u32 = 0; // node value records (2 words each)
const ADJ_BASE: u32 = 0x10_0000; // adjacency lists (d words per node)
const OUT_BASE: u32 = 0x40_0000; // updated records
const UNIQ_PTR_BASE: u32 = 0x60_0000; // per-strip condensed pointers

/// Set up the machine (graph image, host preprocessing) and build the
/// measured program without running it. The check compares the updated
/// records with the host reference sweep.
///
/// # Panics
///
/// Panics if the dataset's strips don't tile the graph in lane multiples.
pub fn prepare(cfg: &MachineConfig, ds: &IgDataset) -> crate::common::Prepared {
    let indexed = cfg.srf.indexed.is_some();
    let cacheable = cfg.cache.is_some();
    let mut m = machine(cfg);

    let kernel = Arc::new(build_kernel(ds, indexed));
    let sched = schedule_for(&m, &kernel);

    let strip_nodes = if indexed {
        ds.isrf_strip_nodes
    } else {
        ds.base_strip_nodes
    };
    assert_eq!(ds.nodes % strip_nodes, 0, "strips must tile the graph");
    assert_eq!(strip_nodes % 8, 0, "strips must fill all lanes");
    let strips = ds.nodes / strip_nodes;
    let d = ds.degree;

    // Memory image: values, adjacency, and (for ISRF) per-strip condensed
    // pointer streams prepared by the host (graph preprocessing). All
    // deterministic in the dataset, so computed once and shared.
    let img = host_image(ds, strip_nodes);
    m.mem_mut()
        .memory_mut()
        .write_block(VAL_BASE, &img.val_words);
    m.mem_mut()
        .memory_mut()
        .write_block(ADJ_BASE, &img.adj_words);
    for (s, strip) in img.strips.iter().enumerate() {
        m.mem_mut()
            .memory_mut()
            .write_block(UNIQ_PTR_BASE + s as u32 * strip_nodes * d, &strip.ptr_words);
    }

    // Streams (double-buffered across strips).
    let mk = |m: &mut isrf_sim::Machine| {
        (
            m.alloc_stream(2, strip_nodes), // node records
            m.alloc_stream(d, strip_nodes), // pointer records
            m.alloc_stream(2, strip_nodes), // out records
        )
    };
    let bufs = [mk(&mut m), mk(&mut m)];
    // Neighbor values: replicated (base) or condensed unique (ISRF).
    let val_bufs = if indexed {
        // Sized for the worst-case unique count: strip + 2*window + slack.
        let cap = strip_nodes + 2 * ds.window + 64;
        [m.alloc_stream(2, cap), m.alloc_stream(2, cap)]
    } else {
        [
            m.alloc_stream(2 * d, strip_nodes),
            m.alloc_stream(2 * d, strip_nodes),
        ]
    };

    let mut p = StreamProgram::new();
    let mut buf_free: [Option<isrf_sim::ProgOpId>; 2] = [None, None];
    let mut prev_kernel: Option<isrf_sim::ProgOpId> = None;
    for s in 0..strips {
        let info = &img.strips[s as usize];
        let pick = (s % 2) as usize;
        let (node_b, ptr_b, out_b) = bufs[pick];
        let vb = val_bufs[pick];
        let mut ldeps: Vec<isrf_sim::ProgOpId> = Vec::new();
        if let Some(u) = buf_free[pick] {
            ldeps.push(u);
        }
        let first = s * strip_nodes;
        let l_node = p.load(
            AddrPattern::contiguous(VAL_BASE + 2 * first, 2 * strip_nodes),
            node_b,
            false,
            &ldeps,
        );
        let l_ptr = p.load(
            AddrPattern::contiguous(UNIQ_PTR_BASE + s * strip_nodes * d, strip_nodes * d),
            ptr_b,
            false,
            &ldeps,
        );
        let (l_vals, vals_binding) = if indexed {
            let b = vb.slice(0, info.unique_records);
            (
                p.load(
                    AddrPattern::Indexed(info.unique_addrs.clone()),
                    b,
                    cacheable,
                    &ldeps,
                ),
                // The kernel addresses the condensed array by record.
                StreamBinding::whole(vb.range, 2, info.unique_records),
            )
        } else {
            // Replicated gather: every reference fetched individually.
            (
                p.load(
                    AddrPattern::Indexed(info.replicated_addrs.clone()),
                    vb,
                    cacheable,
                    &ldeps,
                ),
                vb,
            )
        };
        let mut kdeps = vec![l_node, l_ptr, l_vals];
        if let Some(k) = prev_kernel {
            kdeps.push(k);
        }
        let nstreams = if indexed {
            (ds.degree as usize).div_ceil(4)
        } else {
            1
        };
        let mut bindings = vec![node_b, ptr_b];
        bindings.extend(std::iter::repeat_n(vals_binding, nstreams));
        bindings.push(out_b);
        let k = p.kernel(
            Arc::clone(&kernel),
            sched.clone(),
            bindings,
            (strip_nodes / 8) as u64,
            &kdeps,
        );
        let st = p.store(
            out_b,
            AddrPattern::contiguous(OUT_BASE + 2 * first, 2 * strip_nodes),
            false,
            &[k],
        );
        prev_kernel = Some(k);
        buf_free[pick] = Some(st);
    }
    let ds = *ds;
    crate::common::Prepared::new(m, p, vec![(OUT_BASE, 2 * ds.nodes)], move |m| {
        // The reference sweep (identical f32 op order) is deterministic in
        // the dataset, so it comes from the per-dataset cache.
        for (i, &(e0, e1)) in reference_cached(&ds).iter().enumerate() {
            let g0 = as_f32(m.mem().memory().read(OUT_BASE + 2 * i as u32));
            let g1 = as_f32(m.mem().memory().read(OUT_BASE + 2 * i as u32 + 1));
            assert!(
                (g0 - e0).abs() <= 1e-4 * e0.abs().max(1.0) && g1 == e1,
                "node {i}: got ({g0}, {g1}), want ({e0}, {e1})"
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, ds: &IgDataset) -> RunStats {
        prepare(&cfg.into(), ds).run_checked()
    }

    fn tiny() -> IgDataset {
        IgDataset {
            name: "IG_TINY",
            fp_ops: 16,
            degree: 4,
            nodes: 512,
            base_strip_nodes: 64,
            isrf_strip_nodes: 128,
            window: 16,
            seed: 7,
        }
    }

    #[test]
    fn kernels_build_and_schedule() {
        let ds = tiny();
        let m = machine(&ConfigName::Isrf4.into());
        schedule_for(&m, &build_kernel(&ds, true));
        let m = machine(&ConfigName::Base.into());
        schedule_for(&m, &build_kernel(&ds, false));
    }

    #[test]
    fn base_functional() {
        run(ConfigName::Base, &tiny());
    }

    #[test]
    fn isrf_functional() {
        run(ConfigName::Isrf4, &tiny());
    }

    #[test]
    fn cache_functional() {
        run(ConfigName::Cache, &tiny());
    }

    #[test]
    fn isrf1_equals_isrf4_for_crosslane_only_kernels() {
        // IG has no in-lane indexed accesses, so the in-lane bandwidth
        // knob that separates ISRF1 from ISRF4 is irrelevant (Figure 12
        // shows them identical for the IG benchmarks).
        let ds = tiny();
        let one = run(ConfigName::Isrf1, &ds);
        let four = run(ConfigName::Isrf4, &ds);
        assert_eq!(one.cycles, four.cycles);
    }

    #[test]
    fn isrf_reduces_traffic_via_deduplication() {
        let ds = tiny();
        let base = run(ConfigName::Base, &ds);
        let isrf = run(ConfigName::Isrf4, &ds);
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.85, "traffic ratio {ratio:.3} (paper: ~0.5)");
        assert!(isrf.srf.crosslane_words > 0, "accesses are cross-lane");
        assert_eq!(isrf.srf.inlane_words, 0);
        assert!(isrf.speedup_over(&base) > 1.0, "ISRF should win");
    }

    #[test]
    fn table4_datasets_are_wellformed() {
        for ds in &DATASETS {
            assert_eq!(ds.nodes % ds.isrf_strip_nodes, 0, "{}", ds.name);
            assert_eq!(ds.nodes % ds.base_strip_nodes, 0, "{}", ds.name);
            assert_eq!(ds.isrf_strip_nodes % 8, 0);
            assert_eq!(ds.base_strip_nodes % 8, 0);
            // Table 4's neighbor-records-per-invocation, approximately.
            let base_recs = ds.base_strip_nodes * ds.degree;
            let isrf_recs = ds.isrf_strip_nodes * ds.degree;
            assert!(isrf_recs >= 2 * base_recs - ds.degree);
            let _ = dataset(ds.name);
        }
    }
}
