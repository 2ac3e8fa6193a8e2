//! Lock-step: `isrf_kernel::sched::schedule` against the scheduler it
//! replaced.
//!
//! `mod reference` is that scheduler as it stood: one adjacency `Vec` per op,
//! the relaxation order sorted on every Bellman-Ford pass, a bisection of the
//! recurrence MII that starts at `max_ii` whatever the kernel, heights
//! computed again for the accepted II, and a reservation table probed one
//! modulo slot at a time through one-element `Vec`s. The scheduler in `src/`
//! must return the same [`Schedule`] — `ii`, every slot, `span`,
//! `completion` — or fail on the same inputs: every figure of the paper that
//! plots a schedule length (14 to 16), every cycle count and every golden
//! file rests on that.

use isrf_apps::{prepare_app, Profile, APPS};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::{Kernel, KernelBuilder, Operand, StreamKind, ValueId};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_sim::ProgOp;
use proptest::prelude::*;

mod gen;

mod reference {
    use isrf_kernel::graph::DepEdge;
    use isrf_kernel::ir::{Kernel, OpClass, Opcode, StreamSlot};
    use isrf_kernel::sched::{SchedParams, Schedule};
    use isrf_kernel::LatencyModel;

    struct DepGraph {
        n: usize,
        edges: Vec<DepEdge>,
        succ_idx: Vec<Vec<usize>>,
        pred_idx: Vec<Vec<usize>>,
    }

    impl DepGraph {
        fn succs(&self, v: usize) -> impl Iterator<Item = &DepEdge> {
            self.succ_idx[v].iter().map(move |&i| &self.edges[i])
        }

        fn preds(&self, v: usize) -> impl Iterator<Item = &DepEdge> {
            self.pred_idx[v].iter().map(move |&i| &self.edges[i])
        }
    }

    fn build_graph(kernel: &Kernel, model: &LatencyModel) -> DepGraph {
        let mut edges = Vec::new();
        for (i, op) in kernel.ops.iter().enumerate() {
            for operand in &op.operands {
                let from = operand.value.index();
                let latency = if let Opcode::IdxRead(slot) = op.opcode {
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
        let scratch_chain: Vec<usize> = kernel
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op.opcode, Opcode::ScratchRead | Opcode::ScratchWrite))
            .map(|(i, _)| i)
            .collect();
        let mut chains: Vec<Vec<usize>> = vec![scratch_chain];
        for slot_idx in 0..kernel.streams.len() {
            let slot = StreamSlot(slot_idx as u8);
            chains.push(kernel.stream_data_ops(slot));
            chains.push(kernel.stream_addr_ops(slot));
        }
        for chain in chains {
            if chain.is_empty() {
                continue;
            }
            for w in chain.windows(2) {
                edges.push(DepEdge {
                    from: w[0],
                    to: w[1],
                    latency: 1,
                    distance: 0,
                });
            }
            let (&first, &last) = (chain.first().unwrap(), chain.last().unwrap());
            edges.push(DepEdge {
                from: last,
                to: first,
                latency: 1,
                distance: 1,
            });
        }
        let n = kernel.ops.len();
        let mut succ_idx = vec![Vec::new(); n];
        let mut pred_idx = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            succ_idx[e.from].push(i);
            pred_idx[e.to].push(i);
        }
        DepGraph {
            n,
            edges,
            succ_idx,
            pred_idx,
        }
    }

    /// Resource keys of the modulo reservation table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Resource {
        Alu,
        Divider,
        Comm,
        Scratch,
        /// Data port of stream slot `n`.
        StreamPort(u8),
        /// Address port of stream slot `n`.
        AddrPort(u8),
    }

    fn resource_of(class: OpClass) -> Option<Resource> {
        match class {
            OpClass::Alu => Some(Resource::Alu),
            OpClass::Divider => Some(Resource::Divider),
            OpClass::Comm => Some(Resource::Comm),
            OpClass::Scratch => Some(Resource::Scratch),
            OpClass::StreamPort(s) => Some(Resource::StreamPort(s.0)),
            OpClass::AddrPort(s) => Some(Resource::AddrPort(s.0)),
            OpClass::Free => None,
        }
    }

    /// Compute the resource-constrained minimum II.
    fn res_mii(kernel: &Kernel, params: &SchedParams) -> u32 {
        use std::collections::BTreeMap;
        let mut demand: BTreeMap<Resource, u32> = BTreeMap::new();
        for op in &kernel.ops {
            if let Some(r) = resource_of(op.opcode.class()) {
                // The unpipelined divider is occupied for the full latency.
                let units = if r == Resource::Divider {
                    params.model.latency(op.opcode)
                } else {
                    1
                };
                *demand.entry(r).or_insert(0) += units;
            }
        }
        demand
            .into_iter()
            .map(|(r, d)| {
                let avail = match r {
                    Resource::Alu => params.fu_count as u32,
                    Resource::Divider => params.divider_count as u32,
                    _ => 1,
                };
                d.div_ceil(avail.max(1))
            })
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Longest-path heights via bounded Bellman-Ford over edge weights
    /// `latency - ii * distance`; returns `None` when a positive cycle exists
    /// (II infeasible for the recurrences).
    fn heights(graph: &DepGraph, ii: u32) -> Option<Vec<i64>> {
        let n = graph.n;
        // Relax edges by descending `from`: ops are stored topologically, so a
        // node's successors (larger indices, for loop-independent edges) settle
        // before the node itself and the fixed point is reached in a couple of
        // rounds instead of O(dependence depth). The fixed point is unique, so
        // relaxation order never changes the result — only how fast the round
        // loop exits. The `n`-round cap still detects positive cycles.
        let mut order: Vec<u32> = (0..graph.edges.len() as u32).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(graph.edges[i as usize].from));
        let mut h = vec![0i64; n];
        for round in 0..=n {
            let mut changed = false;
            for &i in &order {
                let e = &graph.edges[i as usize];
                let w = e.latency as i64 - (ii as i64) * e.distance as i64;
                if h[e.to] + w > h[e.from] {
                    h[e.from] = h[e.to] + w;
                    changed = true;
                }
            }
            if !changed {
                return Some(h);
            }
            if round == n {
                return None;
            }
        }
        Some(h)
    }

    /// Dense index of a [`Resource`] into the MRT's flat row array: the four
    /// singleton resources first, then the per-slot stream data/address ports
    /// interleaved.
    fn res_index(r: Resource) -> usize {
        match r {
            Resource::Alu => 0,
            Resource::Divider => 1,
            Resource::Comm => 2,
            Resource::Scratch => 3,
            Resource::StreamPort(n) => 4 + 2 * n as usize,
            Resource::AddrPort(n) => 5 + 2 * n as usize,
        }
    }

    struct Mrt {
        ii: u32,
        /// Ops occupying each `(resource, modulo slot)`, flat-indexed as
        /// `res_index * ii + slot`.
        rows: Vec<Vec<usize>>,
        /// `rows[i].len()` mirrored as a plain array so the scheduling loop's
        /// slot probe is one load, no hashing or allocation.
        counts: Vec<u32>,
    }

    impl Mrt {
        fn new(ii: u32, n_resources: usize) -> Self {
            let cells = n_resources * ii as usize;
            Mrt {
                ii,
                rows: vec![Vec::new(); cells],
                counts: vec![0; cells],
            }
        }

        /// True when every modulo slot `op` would occupy at `t` still has
        /// capacity. Only valid while `op` itself is unplaced (the caller's
        /// invariant), which makes this exactly `conflicts(..).is_empty()`.
        fn is_free(
            &self,
            class: OpClass,
            latency: u32,
            t: u32,
            capacity: impl Fn(Resource) -> u32,
        ) -> bool {
            let Some(r) = resource_of(class) else {
                return true;
            };
            let cap = capacity(r);
            let base = res_index(r) * self.ii as usize;
            Self::occupancy(latency, class, t, self.ii)
                .into_iter()
                .all(|slot| self.counts[base + slot as usize] < cap)
        }

        /// The modulo slots `op` would occupy when issued at `t`.
        fn occupancy(op_latency: u32, class: OpClass, t: u32, ii: u32) -> Vec<u32> {
            let width = if matches!(class, OpClass::Divider) {
                op_latency.clamp(1, ii)
            } else {
                1
            };
            (0..width).map(|k| (t + k) % ii).collect()
        }

        fn conflicts(
            &self,
            op: usize,
            class: OpClass,
            latency: u32,
            t: u32,
            capacity: impl Fn(Resource) -> u32,
        ) -> Vec<usize> {
            let Some(r) = resource_of(class) else {
                return vec![];
            };
            let cap = capacity(r) as usize;
            let base = res_index(r) * self.ii as usize;
            let mut out = Vec::new();
            for slot in Self::occupancy(latency, class, t, self.ii) {
                let users = &self.rows[base + slot as usize];
                let users: Vec<usize> = users.iter().copied().filter(|&u| u != op).collect();
                if users.len() >= cap {
                    // Evicting the earliest-placed user frees the slot.
                    out.extend(users.iter().take(users.len() + 1 - cap));
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        }

        fn place(&mut self, op: usize, class: OpClass, latency: u32, t: u32) {
            if let Some(r) = resource_of(class) {
                let base = res_index(r) * self.ii as usize;
                for slot in Self::occupancy(latency, class, t, self.ii) {
                    self.rows[base + slot as usize].push(op);
                    self.counts[base + slot as usize] += 1;
                }
            }
        }

        fn remove(&mut self, op: usize, class: OpClass, latency: u32, t: u32) {
            if let Some(r) = resource_of(class) {
                let base = res_index(r) * self.ii as usize;
                for slot in Self::occupancy(latency, class, t, self.ii) {
                    let v = &mut self.rows[base + slot as usize];
                    if let Some(pos) = v.iter().position(|&u| u == op) {
                        v.swap_remove(pos);
                        self.counts[base + slot as usize] -= 1;
                    }
                }
            }
        }
    }
    pub fn schedule(kernel: &Kernel, params: &SchedParams) -> Option<Schedule> {
        let graph = build_graph(kernel, &params.model);
        let res_bound = res_mii(kernel, params);
        // Recurrence feasibility is monotone in II (loop-carried edge weights
        // only shrink as II grows), so binary-search the recurrence MII.
        let mut lo = res_bound;
        let mut hi = params.max_ii;
        heights(&graph, hi)?;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if heights(&graph, mid).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mii = lo;
        for ii in mii..=params.max_ii {
            let Some(h) = heights(&graph, ii) else {
                continue; // recurrence-infeasible at this II
            };
            if let Some(slots) = attempt(kernel, &graph, params, ii, &h) {
                let span = slots.iter().copied().max().unwrap_or(0) + 1;
                let completion = kernel
                    .ops
                    .iter()
                    .enumerate()
                    .map(|(i, op)| slots[i] + params.model.latency(op.opcode).max(1))
                    .max()
                    .unwrap_or(1);
                return Some(Schedule {
                    ii,
                    slots,
                    span,
                    completion,
                });
            }
        }
        None
    }

    fn attempt(
        kernel: &Kernel,
        graph: &DepGraph,
        params: &SchedParams,
        ii: u32,
        heights: &[i64],
    ) -> Option<Vec<u32>> {
        let n = kernel.ops.len();
        if n == 0 {
            return Some(vec![]);
        }
        let capacity = |r: Resource| -> u32 {
            match r {
                Resource::Alu => params.fu_count as u32,
                Resource::Divider => params.divider_count as u32,
                _ => 1,
            }
        };
        let lat = |i: usize| params.model.latency(kernel.ops[i].opcode);
        let class = |i: usize| kernel.ops[i].opcode.class();
        // Edge latency: IdxRead pairing edges carry the separation, so compute
        // effective edge latency from the graph (already encoded there).
        let n_resources = 4 + 2 * kernel.streams.len();
        let mut mrt = Mrt::new(ii, n_resources);
        let mut slot: Vec<Option<u32>> = vec![None; n];
        let mut prev_slot: Vec<Option<u32>> = vec![None; n];
        let mut budget = 20 * n as i64 + 200;

        // Priority: height, then original index for determinism. The work list
        // is a lazy max-heap over that static key: popped entries whose op was
        // scheduled in the meantime are discarded, and evicted ops are pushed
        // back, so every unscheduled op always has a live entry and each pop
        // yields exactly the op a full `max_by_key` scan would.
        let mut work: std::collections::BinaryHeap<(i64, std::cmp::Reverse<usize>)> =
            (0..n).map(|i| (heights[i], std::cmp::Reverse(i))).collect();
        let mut evict: Vec<usize> = Vec::new();

        while let Some((_, std::cmp::Reverse(op))) = work.pop() {
            if slot[op].is_some() {
                continue; // stale entry: scheduled since it was pushed
            }
            budget -= 1;
            if budget < 0 {
                return None;
            }
            // Earliest start from scheduled predecessors.
            let mut estart: i64 = 0;
            for e in graph.preds(op) {
                if let Some(s) = slot[e.from] {
                    let t = s as i64 + e.latency as i64 - (ii as i64) * e.distance as i64;
                    estart = estart.max(t);
                }
            }
            let estart = estart.max(0) as u32;
            // Latest start satisfying the already-scheduled successors, and
            // self-edge feasibility (t-independent). Together these are the
            // `succs_ok` check, hoisted out of the per-candidate loop; the
            // predecessor half of `succs_ok` is implied by `t >= estart`.
            let mut tmax = i64::MAX;
            let mut self_ok = true;
            for e in graph.succs(op) {
                if e.to == op {
                    if (ii as i64) * (e.distance as i64) < e.latency as i64 {
                        self_ok = false;
                    }
                    continue;
                }
                if let Some(s) = slot[e.to] {
                    tmax =
                        tmax.min(s as i64 + (ii as i64) * (e.distance as i64) - e.latency as i64);
                }
            }
            // Find a conflict-free slot in [estart, estart + ii).
            let mut chosen = None;
            if self_ok {
                for t in estart..estart + ii {
                    if i64::from(t) > tmax {
                        break;
                    }
                    if mrt.is_free(class(op), lat(op), t, capacity) {
                        chosen = Some((t, false));
                        break;
                    }
                }
            }
            let (t, forced) = chosen.unwrap_or_else(|| {
                let min_forced = prev_slot[op].map(|p| p + 1).unwrap_or(0);
                (estart.max(min_forced), true)
            });
            if forced {
                // Evict resource conflicts.
                for victim in mrt.conflicts(op, class(op), lat(op), t, capacity) {
                    if let Some(vs) = slot[victim].take() {
                        mrt.remove(victim, class(victim), lat(victim), vs);
                        work.push((heights[victim], std::cmp::Reverse(victim)));
                    }
                }
            }
            mrt.place(op, class(op), lat(op), t);
            slot[op] = Some(t);
            prev_slot[op] = Some(t);
            // Evict scheduled ops whose constraints this placement violates.
            evict.clear();
            for e in graph.succs(op) {
                if e.to == op {
                    continue;
                }
                if let Some(s) = slot[e.to] {
                    let need = t as i64 + e.latency as i64 - (ii as i64) * e.distance as i64;
                    if (s as i64) < need {
                        evict.push(e.to);
                    }
                }
            }
            for e in graph.preds(op) {
                if e.from == op {
                    continue;
                }
                if let Some(s) = slot[e.from] {
                    let need = s as i64 + e.latency as i64 - (ii as i64) * e.distance as i64;
                    if (t as i64) < need {
                        evict.push(e.from);
                    }
                }
            }
            for &v in &evict {
                if let Some(s) = slot[v].take() {
                    mrt.remove(v, class(v), lat(v), s);
                    work.push((heights[v], std::cmp::Reverse(v)));
                }
            }
        }
        // Self-edges (single-op wrap chains) were skipped during eviction; they
        // impose ii * distance >= latency, i.e. ii >= 1, always true here, but
        // verify every constraint as a final safety net.
        for e in &graph.edges {
            let (sf, st) = (slot[e.from].unwrap() as i64, slot[e.to].unwrap() as i64);
            if st + (ii as i64) * (e.distance as i64) < sf + e.latency as i64 {
                return None;
            }
        }
        Some(slot.into_iter().map(|s| s.unwrap()).collect())
    }
}

/// Both schedulers on one input: the same schedule, or both refuse.
fn same(k: &Kernel, p: &SchedParams, what: &str) {
    let want = reference::schedule(k, p);
    let got = schedule(k, p).ok();
    assert_eq!(
        got,
        want,
        "{what}: `{}`, {} ops, separations ({}, {})",
        k.name,
        k.ops.len(),
        p.model.inlane_separation,
        p.model.crosslane_separation
    );
}

const SEPARATIONS: [(u32, u32); 3] = [(2, 4), (6, 20), (10, 28)];

fn preset(config: ConfigName) -> SchedParams {
    SchedParams::from_machine(&MachineConfig::preset(config))
}

#[test]
fn every_app_kernel_schedules_as_before() {
    let (mut kernels, mut recurrence_bound) = (0, 0);
    for app in APPS {
        for config in ConfigName::ALL {
            let prepared = prepare_app(app, config, Profile::Small);
            let mut seen: Vec<&Kernel> = Vec::new();
            for i in 0..prepared.program.len() {
                let (ProgOp::Kernel { kernel, .. }, _) = prepared.program.node(i) else {
                    continue;
                };
                if seen.iter().any(|&k| k == &**kernel) {
                    continue;
                }
                seen.push(kernel);
                for (inlane, crosslane) in SEPARATIONS {
                    let p = preset(config).with_separations(inlane, crosslane);
                    same(kernel, &p, &format!("{app}/{config}"));
                }
                // The bisection's side of the search must be covered too.
                let s10 = schedule(kernel, &preset(config).with_separations(10, 28)).unwrap();
                let s2 = schedule(kernel, &preset(config).with_separations(2, 4)).unwrap();
                recurrence_bound += usize::from(s10.ii > s2.ii);
                kernels += 1;
            }
        }
    }
    assert!(kernels >= 32, "{kernels} kernels");
    assert!(
        recurrence_bound >= 2,
        "no app kernel's II follows the separation"
    );
}

/// The benchmark family's five templates (`benchmark/src/family.rs`), built
/// op for op as the front end lowers them.
fn family(template: &str, size: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("{template}_{size}"));
    let sin = b.stream("in", StreamKind::SeqIn);
    let table = match template {
        "lut" => Some(b.stream("T", StreamKind::IdxInRead)),
        "gather" => Some(b.stream("T", StreamKind::IdxCrossRead)),
        _ => None,
    };
    let sout = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(sin);
    let mut t = b.constant(0);
    let c0 = b.constant(12_345);
    let mut acc = [b.add(x, c0), x, x, x];
    for i in 0..size {
        let (k, c) = (b.constant(3 * i + 1), b.constant(2 * i + 3));
        match template {
            "horner" => {
                let m = b.mul(acc[0], x);
                acc[0] = b.add(m, c);
            }
            "fir" => {
                let tap = b.xor(x, k);
                let m = b.mul(tap, c);
                acc[i as usize % 4] = b.add(acc[i as usize % 4], m);
            }
            "lut" | "gather" => {
                let index = b.xor(t, x);
                let masked = b.and(index, k);
                t = b.idx_load(table.unwrap(), masked);
                let m = b.mul(acc[0], c);
                acc[0] = b.add(m, t);
            }
            "ladder" if i % 2 == 0 => {
                let low = b.min(acc[0], k);
                let zero = b.constant(0);
                let floor = b.sub(zero, c);
                acc[0] = b.max(low, floor);
            }
            "ladder" => {
                let below = b.lt(acc[0], k);
                let (up, flip) = (b.add(acc[0], c), b.xor(acc[0], k));
                acc[0] = b.select(below, up, flip);
            }
            other => panic!("no template {other}"),
        }
    }
    let a12 = b.xor(acc[1], acc[2]);
    let a123 = b.xor(a12, acc[3]);
    let sum = b.add(acc[0], a123);
    b.seq_write(sout, sum);
    b.build().unwrap()
}

#[test]
fn family_shapes_schedule_as_before() {
    let shapes = [
        ("horner", 8),
        ("horner", 64),
        ("fir", 8),
        ("fir", 96),
        ("fir", 256),
        ("lut", 1),
        ("lut", 6),
        ("gather", 1),
        ("gather", 4),
        ("ladder", 4),
        ("ladder", 64),
    ];
    for (template, size) in shapes {
        let k = family(template, size);
        if (template, size) == ("fir", 256) {
            assert_eq!(k.ops.len(), 1288);
        }
        for config in ConfigName::ALL {
            for (inlane, crosslane) in SEPARATIONS {
                let p = preset(config).with_separations(inlane, crosslane);
                same(&k, &p, &format!("{config}"));
            }
        }
    }
}

/// Rijndael's shape: the next table address is made from the last looked-up
/// word, `links` lookups to a round, so the separation sits on a recurrence
/// and the II is found by bisection.
fn chained_lookups(links: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("chain_{links}"));
    let lut = b.stream("LUT", StreamKind::IdxCrossRead);
    let sout = b.stream("out", StreamKind::SeqOut);
    let mask = b.constant(0xff);
    // The last `IdxRead` (after `mask`, the `Mov` and three ops to a link)
    // is carried into the first link.
    let last = ValueId(1 + 3 * links);
    let mut word = b.push(isrf_kernel::Opcode::Mov, vec![Operand::carried(last, 1, 0)]);
    for _ in 0..links {
        let addr = b.and(word, mask);
        word = b.idx_load(lut, addr);
    }
    assert_eq!(word, last);
    b.seq_write(sout, word);
    b.build().unwrap()
}

#[test]
fn recurrence_and_resource_limits_schedule_as_before() {
    let kernels = [
        chained_lookups(1),
        chained_lookups(4),
        chained_lookups(16),
        family("fir", 32),
        family("lut", 4),
    ];
    for k in &kernels {
        for max_ii in [1, 2, 7, 8, 31, 32, 33, 100, 4096] {
            for (fu_count, divider_count) in [(1, 1), (2, 2), (4, 1), (3, 0)] {
                for (inlane, crosslane) in SEPARATIONS {
                    let mut p = preset(ConfigName::Isrf4).with_separations(inlane, crosslane);
                    (p.max_ii, p.fu_count, p.divider_count) = (max_ii, fu_count, divider_count);
                    same(k, &p, &format!("max_ii {max_ii}, {fu_count} FUs"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `proptest_sched.rs`'s generator: loop-carried operands at distances
    /// one to three, unpipelined divides, indexed loads.
    #[test]
    fn random_kernels_schedule_as_before(
        ops in gen::ops(40),
        with_idx in any::<bool>(),
        sep in 2u32..12,
        fu_count in 1usize..5,
        divider_count in 1usize..3,
        tight in any::<bool>(),
    ) {
        let k = gen::build(&ops, with_idx);
        let mut p = preset(ConfigName::Isrf4).with_separations(sep, 20);
        (p.fu_count, p.divider_count) = (fu_count, divider_count);
        if tight {
            p.max_ii = 24;
        }
        same(&k, &p, "generated");
    }
}
