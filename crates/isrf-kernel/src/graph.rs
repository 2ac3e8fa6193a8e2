//! Dependence-graph construction for kernel scheduling.
//!
//! Edges carry `(latency, distance)`: the consumer must issue at least
//! `latency` cycles after the producer of `distance` iterations earlier,
//! i.e. `slot(to) + II·distance ≥ slot(from) + latency`.
//!
//! Three edge families are built from a kernel:
//!
//! 1. **Data edges** from each operand reference, with the producer's
//!    latency. The [`Opcode::IdxAddr`] → [`Opcode::IdxRead`] pairing edge
//!    instead carries the configured *address/data separation* — the knob
//!    the paper sweeps in Figures 14–16.
//! 2. **Stream-order chains**: accesses to the same stream port must
//!    execute in program order (they pop/push a FIFO), so consecutive
//!    accesses are chained with latency 1.
//! 3. **Wrap-around edges** closing each chain with `(latency 1,
//!    distance 1)`, which forces all of one iteration's accesses to a
//!    stream to issue before the next iteration's first access — keeping
//!    FIFO order well-defined under software pipelining.

use isrf_core::config::{OpLatencies, ScheduleConfig};

use crate::ir::{Kernel, OpClass, Opcode, StreamKind};

/// A scheduling dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer op index.
    pub from: usize,
    /// Consumer op index.
    pub to: usize,
    /// Minimum issue-slot distance in cycles.
    pub latency: u32,
    /// Loop-carried distance in iterations.
    pub distance: u32,
}

/// The dependence graph of one kernel under a latency model, in compressed
/// sparse rows: every edge twice, once grouped by producer and once by
/// consumer, so an op's edges are one contiguous slice either way.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Number of ops.
    pub n: usize,
    /// All edges, grouped by producer in ascending op order.
    pub edges: Vec<DepEdge>,
    /// `edges[succ_start[v]..succ_start[v + 1]]` leave op `v`.
    succ_start: Vec<u32>,
    /// The same edges grouped by consumer, and where each op's begin.
    pred_edges: Vec<DepEdge>,
    pred_start: Vec<u32>,
    /// Edges that do not point at a later op: loop-carried operands, wrap
    /// edges. A simple path crosses each at most once.
    pub(crate) back_edges: usize,
}

/// Stable counting sort of `edges` by `key`: the sorted edges and, per op,
/// where its group starts (`n + 1` entries).
fn group_by(
    n: usize,
    edges: &[DepEdge],
    key: impl Fn(&DepEdge) -> usize,
) -> (Vec<DepEdge>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for e in edges {
        start[key(e) + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut next = start.clone();
    let mut out = edges.to_vec();
    for e in edges {
        out[next[key(e)] as usize] = *e;
        next[key(e)] += 1;
    }
    (out, start)
}

impl DepGraph {
    /// Build adjacency from an edge list.
    pub fn from_edges(n: usize, edges: Vec<DepEdge>) -> Self {
        let (pred_edges, pred_start) = group_by(n, &edges, |e| e.to);
        let (edges, succ_start) = group_by(n, &edges, |e| e.from);
        DepGraph {
            n,
            back_edges: edges.iter().filter(|e| e.to <= e.from).count(),
            edges,
            succ_start,
            pred_edges,
            pred_start,
        }
    }

    /// Outgoing edges of op `v`.
    pub fn succs(&self, v: usize) -> &[DepEdge] {
        &self.edges[self.succ_start[v] as usize..self.succ_start[v + 1] as usize]
    }

    /// Incoming edges of op `v`.
    pub fn preds(&self, v: usize) -> &[DepEdge] {
        &self.pred_edges[self.pred_start[v] as usize..self.pred_start[v + 1] as usize]
    }
}

/// Latency model: op latencies plus the address/data separations.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Per-class op latencies.
    pub ops: OpLatencies,
    /// Inter-cluster network latency (for `Comm` and conditional streams).
    pub comm_latency: u32,
    /// In-lane indexed address/data separation, in cycles.
    pub inlane_separation: u32,
    /// Cross-lane indexed address/data separation, in cycles.
    pub crosslane_separation: u32,
}

impl LatencyModel {
    /// Model with the paper's Section 5.1 separations (6 and 20 cycles).
    pub fn with_defaults(ops: OpLatencies, comm_latency: u32) -> Self {
        let sched = ScheduleConfig::default();
        LatencyModel {
            ops,
            comm_latency,
            inlane_separation: sched.inlane_addr_data_separation,
            crosslane_separation: sched.crosslane_addr_data_separation,
        }
    }

    /// Issue-to-result latency of `opcode`.
    pub fn latency(&self, opcode: Opcode) -> u32 {
        use Opcode::*;
        let l = &self.ops;
        match opcode {
            Const(_) | LaneId | LaneCount | IterId => 0,
            Mov | Not | Neg | FNeg | IToF | FToI | Select => l.select,
            Add | Sub | And | Or | Xor | Shl | Shr | Sra | Lt | Le | Eq | Ne | ULt | Min | Max => {
                l.int_alu
            }
            Mul => l.int_mul,
            Div | Rem => l.divide,
            FAdd | FSub | FLt | FLe | FEq | FMin | FMax => l.fp_add,
            FMul => l.fp_mul,
            FDiv => l.divide,
            SeqRead(_) | SeqWrite(_) | IdxRead(_) | IdxWrite(_) | IdxAddr(_) => l.sb_access,
            CondRead(_) | CondLaneRead(_) | CondWrite(_) => self.comm_latency + l.sb_access,
            ScratchRead | ScratchWrite => l.scratch,
            Comm { .. } | CommXor { .. } => self.comm_latency,
        }
    }

    /// Address/data separation for a stream of `kind`.
    pub fn separation(&self, kind: StreamKind) -> u32 {
        if kind.is_cross_lane() {
            self.crosslane_separation
        } else {
            self.inlane_separation
        }
    }
}

/// Build the dependence graph of `kernel` under `model`.
pub fn build_graph(kernel: &Kernel, model: &LatencyModel) -> DepGraph {
    // Every operand is an edge and every chained op ends exactly one.
    let operands: usize = kernel.ops.iter().map(|op| op.operands.len()).sum();
    let mut edges = Vec::with_capacity(operands + kernel.ops.len());

    // 1. Data edges.
    for (i, op) in kernel.ops.iter().enumerate() {
        for operand in &op.operands {
            let from = operand.value.index();
            let latency = if let Opcode::IdxRead(slot) = op.opcode {
                // The address→data pairing edge carries the separation.
                model.separation(kernel.stream(slot).kind)
            } else {
                model.latency(kernel.ops[from].opcode)
            };
            edges.push(DepEdge {
                from,
                to: i,
                latency,
                distance: operand.distance,
            });
        }
    }

    // 2 & 3. Stream-order chains and wrap-around edges, in one pass: each
    // port's first and latest access so far. The scratchpad is stateful
    // too, so its accesses are chained in program order likewise.
    let mut chains: Vec<Option<(usize, usize)>> = vec![None; 1 + 2 * kernel.streams.len()];
    for (i, op) in kernel.ops.iter().enumerate() {
        let chain = match op.opcode.class() {
            OpClass::Scratch => 0,
            OpClass::StreamPort(s) => 1 + 2 * s.0 as usize,
            OpClass::AddrPort(s) => 2 + 2 * s.0 as usize,
            OpClass::Alu | OpClass::Divider | OpClass::Comm | OpClass::Free => continue,
        };
        if let Some((_, last)) = &mut chains[chain] {
            edges.push(DepEdge {
                from: *last,
                to: i,
                latency: 1,
                distance: 0,
            });
            *last = i;
        } else {
            chains[chain] = Some((i, i));
        }
    }
    for (first, last) in chains.into_iter().flatten() {
        edges.push(DepEdge {
            from: last,
            to: first,
            latency: 1,
            distance: 1,
        });
    }

    DepGraph::from_edges(kernel.ops.len(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelBuilder, StreamKind, StreamSlot};

    fn model() -> LatencyModel {
        LatencyModel::with_defaults(OpLatencies::default(), 2)
    }

    #[test]
    fn data_edges_carry_producer_latency() {
        let mut b = KernelBuilder::new("k");
        let s = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(s);
        let y = b.mul(x, x);
        b.seq_write(o, y);
        let k = b.build().unwrap();
        let g = build_graph(&k, &model());
        // mul consumes seq_read with sb latency 1.
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.latency == 1 && e.distance == 0));
        // write consumes mul with int_mul latency 4.
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && e.latency == 4));
    }

    #[test]
    fn idx_pairing_edge_uses_separation() {
        let mut b = KernelBuilder::new("k");
        let lut = b.stream("lut", StreamKind::IdxInRead);
        let xt = b.stream("xt", StreamKind::IdxCrossRead);
        let c = b.constant(3);
        let a1 = b.idx_addr(lut, c);
        let _d1 = b.idx_read(lut, a1);
        let a2 = b.idx_addr(xt, c);
        let _d2 = b.idx_read(xt, a2);
        let k = b.build().unwrap();
        let g = build_graph(&k, &model());
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && e.latency == 6));
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 3 && e.to == 4 && e.latency == 20));
    }

    #[test]
    fn stream_chains_and_wrap_edges() {
        let mut b = KernelBuilder::new("k");
        let s = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x0 = b.seq_read(s);
        let x1 = b.seq_read(s);
        let y = b.add(x0, x1);
        b.seq_write(o, y);
        let k = b.build().unwrap();
        let g = build_graph(&k, &model());
        // Chain read0 -> read1 (latency 1, distance 0).
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.latency == 1 && e.distance == 0));
        // Wrap read1 -> read0 (latency 1, distance 1).
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 1 && e.to == 0 && e.latency == 1 && e.distance == 1));
        // Single-op chain on the output gets a self wrap edge.
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 3 && e.to == 3 && e.distance == 1));
    }

    #[test]
    fn loop_carried_operand_distance_propagates() {
        let mut b = KernelBuilder::new("k");
        let s = b.stream("in", StreamKind::SeqIn);
        let x = b.seq_read(s);
        let acc = b.push(
            Opcode::Add,
            vec![
                x.into(),
                crate::ir::Operand::carried(crate::ir::ValueId(1), 1, 0),
            ],
        );
        assert_eq!(acc.index(), 1);
        let k = b.build().unwrap();
        let g = build_graph(&k, &model());
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 1 && e.to == 1 && e.distance == 1 && e.latency == 2));
    }

    #[test]
    fn succ_pred_iterators() {
        let mut b = KernelBuilder::new("k");
        let s = b.stream("in", StreamKind::SeqIn);
        let x = b.seq_read(s);
        let _y = b.add(x, x);
        let k = b.build().unwrap();
        let g = build_graph(&k, &model());
        assert_eq!(g.succs(0).iter().filter(|e| e.to == 1).count(), 2);
        assert_eq!(g.preds(1).len(), 2);
        let _ = StreamSlot(0);
    }
}
