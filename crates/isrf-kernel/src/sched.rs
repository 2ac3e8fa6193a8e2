//! Iterative modulo scheduling of kernel loops.
//!
//! The paper's kernels are compiled with an automated VLIW scheduler based
//! on the Imagine programming system; the quantity plotted in Figure 14 is
//! the *static schedule length of the inner loop*, i.e. the initiation
//! interval (II) of the software-pipelined loop. Two mechanisms determine
//! how II responds to the address/data separation:
//!
//! * Kernels whose indexed-address computation sits on a **loop-carried
//!   dependence** (Rijndael's chained cipher state, Sort's merge pointers)
//!   have the separation inside a recurrence circuit, so II — bounded below
//!   by the recurrence MII — grows with it.
//! * Kernels without such recurrences (FFT 2D, Filter, the IGraph kernels)
//!   absorb the separation into deeper software pipelining: II is resource
//!   bound and stays flat while the *span* (and hence pipeline fill/drain
//!   overhead) grows.
//!
//! This module implements Rau-style iterative modulo scheduling: compute
//! the resource and recurrence lower bounds, then attempt placement at
//! increasing II with a modulo reservation table and eviction-based
//! backtracking.

use std::fmt;
use std::sync::Arc;

use isrf_core::config::{MachineConfig, DIVIDER_COUNT, FU_COUNT};
use isrf_core::Memo;

use crate::graph::{build_graph, DepEdge, DepGraph, LatencyModel};
use crate::ir::{Kernel, OpClass};

/// Scheduling parameters: resources, separations and the II bound. The
/// resources are the machine's [`FU_COUNT`] and [`DIVIDER_COUNT`] unless a
/// caller sets them.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedParams {
    /// Pipelined arithmetic units per cluster.
    pub fu_count: usize,
    /// Unpipelined dividers per cluster.
    pub divider_count: usize,
    /// Latency model (including the address/data separations).
    pub model: LatencyModel,
    /// Give up if no schedule is found at or below this II.
    pub max_ii: u32,
}

impl SchedParams {
    /// Parameters matching a machine configuration.
    pub fn from_machine(m: &MachineConfig) -> Self {
        SchedParams {
            fu_count: FU_COUNT,
            divider_count: DIVIDER_COUNT,
            model: LatencyModel {
                inlane_separation: m.sched.inlane_addr_data_separation,
                crosslane_separation: m.sched.crosslane_addr_data_separation,
            },
            max_ii: 4096,
        }
    }

    /// Override both address/data separations (parameter studies).
    pub fn with_separations(mut self, inlane: u32, crosslane: u32) -> Self {
        self.model.inlane_separation = inlane;
        self.model.crosslane_separation = crosslane;
        self
    }
}

/// A modulo schedule for one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Initiation interval: a new iteration starts every `ii` cycles. This
    /// is the "loop length" of Figure 14.
    pub ii: u32,
    /// Issue slot of each op within its iteration.
    pub slots: Vec<u32>,
    /// Last issue slot + 1.
    pub span: u32,
    /// Cycle (relative to iteration start) by which every op's result has
    /// been produced — used for pipeline-drain accounting.
    pub completion: u32,
}

impl Schedule {
    /// Software-pipeline depth in stages.
    pub fn stages(&self) -> u32 {
        self.span.div_ceil(self.ii.max(1)).max(1)
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    kernel: String,
    max_ii: u32,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel `{}` could not be scheduled at II <= {}",
            self.kernel, self.max_ii
        )
    }
}

impl std::error::Error for ScheduleError {}

/// Rows of the modulo reservation table: the four singleton resources, then
/// each stream slot's data and address port interleaved.
const ALU: usize = 0;
const DIVIDER: usize = 1;
const COMM: usize = 2;
const SCRATCH: usize = 3;

/// The reservation-table row `class` issues on; `None` for immediates.
fn res_index(class: OpClass) -> Option<usize> {
    match class {
        OpClass::Alu => Some(ALU),
        OpClass::Divider => Some(DIVIDER),
        OpClass::Comm => Some(COMM),
        OpClass::Scratch => Some(SCRATCH),
        OpClass::StreamPort(s) => Some(4 + 2 * s.0 as usize),
        OpClass::AddrPort(s) => Some(5 + 2 * s.0 as usize),
        OpClass::Free => None,
    }
}

/// What the search reads of each op, looked up once per `schedule`: its row
/// of the reservation table and its latency.
struct Needs {
    res: Vec<Option<usize>>,
    lat: Vec<u32>,
    /// Units of each row: `fu_count` ALUs, `divider_count` dividers, one of
    /// everything else.
    cap: Vec<u32>,
}

impl Needs {
    fn new(kernel: &Kernel, params: &SchedParams) -> Self {
        let mut cap = vec![1; 4 + 2 * kernel.streams.len()];
        cap[ALU] = params.fu_count as u32;
        cap[DIVIDER] = params.divider_count as u32;
        let ops = kernel.ops.iter();
        Needs {
            res: ops.clone().map(|op| res_index(op.opcode.class())).collect(),
            lat: ops.map(|op| params.model.latency(op.opcode)).collect(),
            cap,
        }
    }

    /// Consecutive modulo slots `op` occupies at initiation interval `ii`:
    /// the unpipelined divider is busy for its whole latency.
    fn width(&self, op: usize, ii: u32) -> u32 {
        if self.res[op] == Some(DIVIDER) {
            self.lat[op].clamp(1, ii)
        } else {
            1
        }
    }

    /// The resource-constrained minimum II.
    fn res_mii(&self) -> u32 {
        let mut demand = vec![0u32; self.cap.len()];
        for (op, res) in self.res.iter().enumerate() {
            if let Some(r) = *res {
                demand[r] += if r == DIVIDER { self.lat[op] } else { 1 };
            }
        }
        let bound = |(d, cap): (&u32, &u32)| d.div_ceil((*cap).max(1));
        demand
            .iter()
            .zip(&self.cap)
            .map(bound)
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

/// Work counts of one `schedule`, for the unit tests that hold it linear.
#[derive(Debug, Default, PartialEq, Eq)]
struct Work {
    /// Bellman-Ford fixed points computed ([`heights`] calls).
    heights: u32,
    /// Words of the reservation table's free masks read by slot searches.
    mrt_words: u32,
}

/// Longest-path heights via bounded Bellman-Ford over edge weights
/// `latency - ii * distance`, into `h`; `false` when a positive cycle exists
/// (II infeasible for the recurrences).
fn heights(graph: &DepGraph, ii: u32, h: &mut Vec<i64>, work: &mut Work) -> bool {
    work.heights += 1;
    let n = graph.n;
    h.clear();
    h.resize(n, 0);
    // Relax by descending producer: an edge to a later op reads a height
    // this round has already settled, so one round follows a path until it
    // crosses an edge that points back (a loop-carried operand, a wrap
    // edge), and a path that crosses `k` of them is found by round `k + 1`.
    // Without a positive cycle the longest path is simple and crosses each
    // such edge at most once, so a round that still changes something after
    // `back_edges + 1` rounds (or `n`, the classic bound) proves a positive
    // cycle. The fixed point is unique: relaxation order never changes the
    // result, only how soon the loop exits.
    for _ in 0..graph.back_edges.min(n) + 2 {
        let mut changed = false;
        for v in (0..n).rev() {
            for e in graph.succs(v) {
                let w = e.latency as i64 - (ii as i64) * e.distance as i64;
                if h[e.to] + w > h[v] {
                    h[v] = h[e.to] + w;
                    changed = true;
                }
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

/// The smallest II in `lo..=max_ii` whose recurrences are feasible, and the
/// heights at it. Feasibility is monotone in II (loop-carried edge weights
/// only shrink as II grows), so a kernel that is resource bound — feasible
/// at `lo`, the resource MII — costs one fixed point, and only a recurrence
/// bound one pays for the bisection.
fn rec_mii(graph: &DepGraph, lo: u32, max_ii: u32, work: &mut Work) -> Option<(u32, Vec<i64>)> {
    let (mut best, mut h) = (Vec::new(), Vec::new());
    if lo <= max_ii && heights(graph, lo, &mut best, work) {
        return Some((lo, best));
    }
    let (mut lo, mut hi) = (lo + 1, max_ii);
    if lo > hi || !heights(graph, hi, &mut best, work) {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if heights(graph, mid, &mut h, work) {
            hi = mid;
            std::mem::swap(&mut best, &mut h);
        } else {
            lo = mid + 1;
        }
    }
    Some((hi, best))
}

/// The modulo reservation table at one II.
struct Mrt<'a> {
    ii: u32,
    needs: &'a Needs,
    /// 64-slot words to a row of `free`.
    words: usize,
    /// Bit `s` of row `r`: modulo slot `s` still has a unit of `r` free.
    free: Vec<u64>,
    /// Ops on each `(row, slot)`, `counts[r * ii + s]` of them from
    /// `users[first[r] + s * cap[r]]` on, in placement order (eviction takes
    /// the earliest, removal swaps the last into the gap).
    counts: Vec<u32>,
    users: Vec<u32>,
    first: Vec<usize>,
}

impl<'a> Mrt<'a> {
    fn new(ii: u32, needs: &'a Needs) -> Self {
        let words = (ii as usize).div_ceil(64);
        let mut free = Vec::with_capacity(needs.cap.len() * words);
        let mut first = Vec::with_capacity(needs.cap.len());
        let mut cells = 0;
        for &cap in &needs.cap {
            first.push(cells);
            // A row without units still records the op forced onto it.
            cells += ii as usize * cap.max(1) as usize;
            free.extend((0..words).map(|w| match (cap, ii as usize - w * 64) {
                (0, _) => 0,
                (_, 64..) => u64::MAX,
                (_, rest) => (1 << rest) - 1,
            }));
        }
        Mrt {
            ii,
            needs,
            words,
            free,
            counts: vec![0; needs.cap.len() * ii as usize],
            users: vec![0; cells],
            first,
        }
    }

    /// The first set bit of `row` in `lo..hi`, for `lo` inside the row.
    fn scan(row: &[u64], lo: u32, hi: u32, work: &mut Work) -> Option<u32> {
        let mut w = (lo / 64) as usize;
        let mut bits = row[w] & (u64::MAX << (lo % 64));
        loop {
            work.mrt_words += 1;
            if bits != 0 {
                let s = w as u32 * 64 + bits.trailing_zeros();
                return (s < hi).then_some(s);
            }
            w += 1;
            if w as u32 * 64 >= hi {
                return None;
            }
            bits = row[w];
        }
    }

    /// The first `t` in `estart..estart + limit` (`limit <= ii`) at which
    /// every modulo slot `op` would occupy has capacity.
    fn first_free(&self, op: usize, estart: u32, limit: u32, work: &mut Work) -> Option<u32> {
        let Some(r) = self.needs.res[op] else {
            return (limit > 0).then_some(estart);
        };
        let row = &self.free[r * self.words..(r + 1) * self.words];
        let width = self.needs.width(op, self.ii);
        let mut d = 0;
        while d < limit {
            // The next free slot at or after `estart + d`, wrapping once.
            let s = (estart + d) % self.ii;
            d += match Self::scan(row, s, self.ii, work) {
                Some(f) => f - s,
                None => self.ii - s + Self::scan(row, 0, s, work)?,
            };
            let busy = |k| {
                let s = ((estart + d + k) % self.ii) as usize;
                row[s / 64] & (1 << (s % 64)) == 0
            };
            if d < limit && !(1..width).any(busy) {
                return Some(estart + d);
            }
            d += 1;
        }
        None
    }

    /// `(row, cell)` of each modulo slot `op` occupies when issued at `t`.
    fn cells(&self, op: usize, t: u32) -> impl Iterator<Item = (usize, usize)> {
        let ii = self.ii;
        let width = self.needs.width(op, ii);
        let r = self.needs.res[op];
        r.into_iter()
            .flat_map(move |r| (0..width).map(move |k| (r, ((t + k) % ii) as usize)))
    }

    fn users_at(&self, r: usize, slot: usize) -> usize {
        self.first[r] + slot * self.needs.cap[r].max(1) as usize
    }

    /// The ops to evict so that `op` (unplaced) fits at `t`: from each full
    /// slot, the earliest-placed users beyond what leaves one unit free.
    fn conflicts(&self, op: usize, t: u32, out: &mut Vec<usize>) {
        out.clear();
        for (r, slot) in self.cells(op, t) {
            let (count, cap) = (self.counts[r * self.ii as usize + slot], self.needs.cap[r]);
            if count >= cap {
                let at = self.users_at(r, slot);
                let evicted = (count + 1 - cap).min(count) as usize;
                out.extend(self.users[at..at + evicted].iter().map(|&u| u as usize));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    fn place(&mut self, op: usize, t: u32) {
        for (r, slot) in self.cells(op, t) {
            let at = self.users_at(r, slot);
            let count = &mut self.counts[r * self.ii as usize + slot];
            self.users[at + *count as usize] = op as u32;
            *count += 1;
            if *count >= self.needs.cap[r] {
                self.free[r * self.words + slot / 64] &= !(1 << (slot % 64));
            }
        }
    }

    fn remove(&mut self, op: usize, t: u32) {
        for (r, slot) in self.cells(op, t) {
            let at = self.users_at(r, slot);
            let count = &mut self.counts[r * self.ii as usize + slot];
            let users = &mut self.users[at..at + *count as usize];
            if let Some(pos) = users.iter().position(|&u| u as usize == op) {
                users[pos] = users[users.len() - 1];
                *count -= 1;
                if *count < self.needs.cap[r] {
                    self.free[r * self.words + slot / 64] |= 1 << (slot % 64);
                }
            }
        }
    }
}

/// Schedule `kernel` under `params`, memoizing the result by content hash.
///
/// Modulo scheduling dominates per-invocation setup cost in parameter
/// sweeps where the same kernel is rescheduled at every sweep point that
/// shares a separation setting. This wrapper keys the process-wide
/// [`SCHEDULES`] by ([`crate::hash::kernel_hash`],
/// [`crate::hash::sched_params_hash`]) and returns a shared `Arc<Schedule>`;
/// structurally identical requests — including from concurrent sweep
/// workers — schedule once while the entry is resident.
///
/// # Errors
///
/// Returns [`ScheduleError`] exactly as [`schedule`] does. Errors are not
/// memoized.
pub fn schedule_cached(
    kernel: &Kernel,
    params: &SchedParams,
) -> Result<Arc<Schedule>, ScheduleError> {
    let key = (
        crate::hash::kernel_hash(kernel),
        crate::hash::sched_params_hash(params),
    );
    SCHEDULES.get_or_try_insert_with(key, 1, || schedule(kernel, params))
}

/// Schedules kept, two generations of 2048. `admit_cold` schedules 480
/// distinct sources per 512-job pass and re-reads the apps' 53 once a pass, at
/// most 850 admissions apart: a generation of 1024 loses no hit, one of 512
/// one in five (DESIGN.md §11). A resident schedule costs under 2 KiB of RSS.
pub const SCHEDULE_BUDGET: u64 = 4096;

/// The process-wide memo behind [`schedule_cached`].
pub static SCHEDULES: Memo<(u128, u128), Schedule> = Memo::new(SCHEDULE_BUDGET);

/// Process-lifetime `(hits, misses)` of [`SCHEDULES`]; a miss that loses the
/// insert race still counts as a miss (the scheduling work really happened).
pub fn schedule_cache_stats() -> (u64, u64) {
    let [(_, hits), (_, misses), ..] = SCHEDULES.stats();
    (hits, misses)
}

/// Schedule `kernel` under `params`.
///
/// # Errors
///
/// Returns [`ScheduleError`] when no schedule exists at `params.max_ii` or
/// below (e.g. a recurrence longer than `max_ii`).
pub fn schedule(kernel: &Kernel, params: &SchedParams) -> Result<Schedule, ScheduleError> {
    schedule_counted(kernel, params, &mut Work::default())
}

fn schedule_counted(
    kernel: &Kernel,
    params: &SchedParams,
    work: &mut Work,
) -> Result<Schedule, ScheduleError> {
    let err = || ScheduleError {
        kernel: kernel.name.clone(),
        max_ii: params.max_ii,
    };
    let graph = build_graph(kernel, &params.model);
    let needs = Needs::new(kernel, params);
    let (mii, mut h) = rec_mii(&graph, needs.res_mii(), params.max_ii, work).ok_or_else(err)?;
    for ii in mii..=params.max_ii {
        // The heights at the MII came with it; a later II has its own.
        if ii > mii && !heights(&graph, ii, &mut h, work) {
            continue; // recurrence-infeasible at this II
        }
        if let Some(slots) = attempt(&graph, &needs, ii, &h, work) {
            let span = slots.iter().copied().max().unwrap_or(0) + 1;
            let done = |(slot, lat): (&u32, &u32)| slot + (*lat).max(1);
            let completion = slots.iter().zip(&needs.lat).map(done).max().unwrap_or(1);
            return Ok(Schedule {
                ii,
                slots,
                span,
                completion,
            });
        }
    }
    Err(err())
}

fn attempt(
    graph: &DepGraph,
    needs: &Needs,
    ii: u32,
    heights: &[i64],
    work: &mut Work,
) -> Option<Vec<u32>> {
    let n = graph.n;
    if n == 0 {
        return Some(vec![]);
    }
    // Slack of an edge: `slot(to) - slot(from)` must be at least this.
    let need = |e: &DepEdge| e.latency as i64 - (ii as i64) * e.distance as i64;
    let mut mrt = Mrt::new(ii, needs);
    let mut slot: Vec<Option<u32>> = vec![None; n];
    let mut prev_slot: Vec<Option<u32>> = vec![None; n];
    let mut budget = 20 * n as i64 + 200;

    // Priority: height, then original index for determinism. The work list
    // is a lazy max-heap over that static key: popped entries whose op was
    // scheduled in the meantime are discarded, and evicted ops are pushed
    // back, so every unscheduled op always has a live entry and each pop
    // yields exactly the op a full `max_by_key` scan would.
    let mut queue: std::collections::BinaryHeap<(i64, std::cmp::Reverse<usize>)> =
        (0..n).map(|i| (heights[i], std::cmp::Reverse(i))).collect();
    let mut evict: Vec<usize> = Vec::new();

    while let Some((_, std::cmp::Reverse(op))) = queue.pop() {
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
                estart = estart.max(s as i64 + need(e));
            }
        }
        let estart = estart as u32;
        // Latest start satisfying the already-scheduled successors, and
        // self-edge feasibility (t-independent); a start at or after
        // `estart` satisfies the scheduled predecessors.
        let mut tmax = estart as i64 + ii as i64 - 1;
        for e in graph.succs(op) {
            if e.to == op {
                if need(e) > 0 {
                    tmax = -1;
                }
            } else if let Some(s) = slot[e.to] {
                tmax = tmax.min(s as i64 - need(e));
            }
        }
        // A conflict-free slot in `estart..estart + ii` no later than `tmax`.
        let limit = (tmax + 1 - estart as i64).max(0) as u32;
        let t = match mrt.first_free(op, estart, limit, work) {
            Some(t) => t,
            None => {
                // Forced: later than last time, evicting who holds the slot.
                let t = estart.max(prev_slot[op].map_or(0, |p| p + 1));
                mrt.conflicts(op, t, &mut evict);
                for &victim in &evict {
                    if let Some(vs) = slot[victim].take() {
                        mrt.remove(victim, vs);
                        queue.push((heights[victim], std::cmp::Reverse(victim)));
                    }
                }
                t
            }
        };
        mrt.place(op, t);
        slot[op] = Some(t);
        prev_slot[op] = Some(t);
        // Evict scheduled ops whose constraints this placement violates.
        evict.clear();
        for e in graph.succs(op) {
            if e.to != op && slot[e.to].is_some_and(|s| (s as i64) < t as i64 + need(e)) {
                evict.push(e.to);
            }
        }
        for e in graph.preds(op) {
            if e.from != op && slot[e.from].is_some_and(|s| (t as i64) < s as i64 + need(e)) {
                evict.push(e.from);
            }
        }
        for &v in &evict {
            if let Some(s) = slot[v].take() {
                mrt.remove(v, s);
                queue.push((heights[v], std::cmp::Reverse(v)));
            }
        }
    }
    // Self-edges (single-op wrap chains) were skipped during eviction; they
    // impose ii * distance >= latency, i.e. ii >= 1, always true here, but
    // verify every constraint as a final safety net.
    let slots: Vec<u32> = slot.into_iter().map(|s| s.unwrap()).collect();
    let kept = |e: &DepEdge| slots[e.to] as i64 >= slots[e.from] as i64 + need(e);
    graph.edges.iter().all(kept).then_some(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelBuilder, Opcode, Operand, StreamKind, ValueId};
    use isrf_core::config::ConfigName;

    fn params() -> SchedParams {
        SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4))
    }

    fn verify(kernel: &Kernel, p: &SchedParams, s: &Schedule) {
        let graph = build_graph(kernel, &p.model);
        for e in &graph.edges {
            assert!(
                s.slots[e.to] as i64 + (s.ii as i64) * e.distance as i64
                    >= s.slots[e.from] as i64 + e.latency as i64,
                "edge {e:?} violated: slots {} -> {}, ii {}",
                s.slots[e.from],
                s.slots[e.to],
                s.ii
            );
        }
        // Modulo resource check.
        let needs = Needs::new(kernel, p);
        let mut used = vec![0; needs.cap.len() * s.ii as usize];
        for op in 0..kernel.ops.len() {
            let Some(r) = needs.res[op] else { continue };
            for k in 0..needs.width(op, s.ii) {
                let slot = (s.slots[op] + k) % s.ii;
                used[r * s.ii as usize + slot as usize] += 1;
                assert!(
                    used[r * s.ii as usize + slot as usize] <= needs.cap[r],
                    "row {r} oversubscribed at modulo slot {slot}"
                );
            }
        }
    }

    fn simple_mac_kernel(n_mults: usize) -> Kernel {
        let mut b = KernelBuilder::new("mac");
        let sin = b.stream("in", StreamKind::SeqIn);
        let sout = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(sin);
        let mut acc = x;
        for _ in 0..n_mults {
            acc = b.mul(acc, x);
        }
        b.seq_write(sout, acc);
        b.build().unwrap()
    }

    #[test]
    fn independent_alu_ops_hit_resource_bound() {
        // 8 independent adds on 4 FUs: II = 2.
        let mut b = KernelBuilder::new("alu8");
        let sin = b.stream("in", StreamKind::SeqIn);
        let sout = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(sin);
        let mut last = x;
        let adds: Vec<ValueId> = (0..8).map(|_| b.add(x, x)).collect();
        for a in adds {
            last = a;
        }
        b.seq_write(sout, last);
        let k = b.build().unwrap();
        let p = params();
        let s = schedule(&k, &p).unwrap();
        assert_eq!(s.ii, 2);
        verify(&k, &p, &s);
    }

    #[test]
    fn stream_port_bounds_ii() {
        // 4 reads of one stream: II >= 4 from the port chain.
        let mut b = KernelBuilder::new("ports");
        let sin = b.stream("in", StreamKind::SeqIn);
        let sout = b.stream("out", StreamKind::SeqOut);
        let reads: Vec<ValueId> = (0..4).map(|_| b.seq_read(sin)).collect();
        let s01 = b.add(reads[0], reads[1]);
        let s23 = b.add(reads[2], reads[3]);
        let sum = b.add(s01, s23);
        b.seq_write(sout, sum);
        let k = b.build().unwrap();
        let p = params();
        let s = schedule(&k, &p).unwrap();
        assert_eq!(s.ii, 4);
        verify(&k, &p, &s);
        // Same-stream accesses must stay within one II window.
        let slots: Vec<u32> = (0..4).map(|i| s.slots[i]).collect();
        let (min, max) = (*slots.iter().min().unwrap(), *slots.iter().max().unwrap());
        assert!(max - min < s.ii, "stream accesses wrap the II window");
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "program order kept");
    }

    #[test]
    fn recurrence_bounds_ii() {
        // acc = acc * x: int_mul latency 4 on a distance-1 cycle: II >= 4.
        let mut b = KernelBuilder::new("rec");
        let sin = b.stream("in", StreamKind::SeqIn);
        let x = b.seq_read(sin);
        let _acc = b.push(
            Opcode::Mul,
            vec![x.into(), Operand::carried(ValueId(1), 1, 1)],
        );
        let k = b.build().unwrap();
        let p = params();
        let s = schedule(&k, &p).unwrap();
        assert_eq!(s.ii, 4);
        verify(&k, &p, &s);
    }

    #[test]
    fn separation_outside_recurrence_grows_span_not_ii() {
        // Table lookup with independent iterations (Figure 10 style).
        let mut b = KernelBuilder::new("lut");
        let sin = b.stream("in", StreamKind::SeqIn);
        let lut = b.stream("LUT", StreamKind::IdxInRead);
        let sout = b.stream("out", StreamKind::SeqOut);
        let a = b.seq_read(sin);
        let v = b.idx_load(lut, a);
        let c = b.add(a, v);
        b.seq_write(sout, c);
        let k = b.build().unwrap();

        let mut iis = vec![];
        let mut spans = vec![];
        for sep in [2u32, 6, 10] {
            let p = params().with_separations(sep, 20);
            let s = schedule(&k, &p).unwrap();
            verify(&k, &p, &s);
            iis.push(s.ii);
            spans.push(s.span);
        }
        assert_eq!(
            iis[0], iis[2],
            "II flat without recurrence (Fig 14 flat lines)"
        );
        assert!(spans[2] > spans[0], "span grows with separation");
    }

    #[test]
    fn separation_inside_recurrence_grows_ii() {
        // Address depends on previous iteration's looked-up data
        // (Rijndael-style chaining): II tracks the separation.
        let mut b = KernelBuilder::new("chained-lut");
        let lut = b.stream("LUT", StreamKind::IdxInRead);
        let sout = b.stream("out", StreamKind::SeqOut);
        // addr = prev_data & 0xff
        let mask = b.constant(0xff);
        let addr = b.push(
            Opcode::And,
            vec![Operand::carried(ValueId(3), 1, 0), mask.into()],
        );
        let a = b.idx_addr(lut, addr);
        let d = b.idx_read(lut, a); // ValueId(3)
        assert_eq!(d.index(), 3);
        b.seq_write(sout, d);
        let k = b.build().unwrap();

        let mut iis = vec![];
        for sep in [2u32, 6, 10] {
            let p = params().with_separations(sep, 20);
            let s = schedule(&k, &p).unwrap();
            verify(&k, &p, &s);
            iis.push(s.ii);
        }
        assert!(iis[1] > iis[0] && iis[2] > iis[1], "II grows: {iis:?}");
        // The recurrence is and(2) + addr(1) + sep + read(1)... ~ sep + 4.
        assert!(
            iis[2] as i64 - iis[0] as i64 >= 7,
            "slope ~1 per cycle: {iis:?}"
        );
    }

    #[test]
    fn unpipelined_divider_occupies_mrt() {
        let mut b = KernelBuilder::new("divs");
        let sin = b.stream("in", StreamKind::SeqIn);
        let sout = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(sin);
        let d1 = b.div(x, x);
        let d2 = b.div(d1, x);
        b.seq_write(sout, d2);
        let k = b.build().unwrap();
        let p = params();
        let s = schedule(&k, &p).unwrap();
        // Two unpipelined 16-cycle divides: II >= 32.
        assert!(s.ii >= 32, "II {} should be >= 32", s.ii);
        verify(&k, &p, &s);
    }

    #[test]
    fn deterministic() {
        let k = simple_mac_kernel(6);
        let p = params();
        let a = schedule(&k, &p).unwrap();
        let b2 = schedule(&k, &p).unwrap();
        assert_eq!(a, b2);
    }

    #[test]
    fn max_ii_limits_search() {
        let mut b = KernelBuilder::new("deep-rec");
        let sin = b.stream("in", StreamKind::SeqIn);
        let x = b.seq_read(sin);
        // 10 chained multiplies in a distance-1 recurrence: RecMII 40.
        let mut acc_ids = vec![];
        let mut prev = Operand::carried(ValueId(10), 1, 1);
        for _ in 0..10 {
            let m = b.push(Opcode::Mul, vec![x.into(), prev]);
            prev = m.into();
            acc_ids.push(m);
        }
        assert_eq!(acc_ids.last().unwrap().index(), 10);
        let k = b.build().unwrap();
        let mut p = params();
        p.max_ii = 8;
        assert!(schedule(&k, &p).is_err());
        p.max_ii = 4096;
        let s = schedule(&k, &p).unwrap();
        assert!(s.ii >= 40);
        verify(&k, &p, &s);
    }

    #[test]
    fn stages_and_completion() {
        let k = simple_mac_kernel(8);
        let p = params();
        let s = schedule(&k, &p).unwrap();
        assert!(s.stages() >= 1);
        assert!(s.completion >= s.span);
        assert_eq!(s.stages(), s.span.div_ceil(s.ii));
    }

    #[test]
    fn empty_kernel_schedules() {
        let k = KernelBuilder::new("empty").build().unwrap();
        let s = schedule(&k, &params()).unwrap();
        assert_eq!(s.slots.len(), 0);
    }

    /// What one `schedule` costs, as counts (exact in debug and release).
    /// The scheduler this replaced sorted the edge list on each of fourteen
    /// Bellman-Ford passes whatever the kernel, and asked the reservation
    /// table about one modulo slot at a time.
    #[test]
    fn work_is_proportional_to_the_ops_of_the_kernel() {
        // The benchmark's largest shape: 256 taps `acc + (x ^ k) * c` over
        // four accumulators, 1 288 ops, resource bound (768 ALU ops on 4
        // units). One fixed point, and fewer mask words read than there
        // are ops, where a row of the table has four.
        let mut b = KernelBuilder::new("fir");
        let sin = b.stream("in", StreamKind::SeqIn);
        let sout = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(sin);
        let (_t, v0) = (b.constant(0), b.constant(7));
        let mut acc = [b.add(x, v0), x, x, x];
        for i in 0..256 {
            let (k, c) = (b.constant(i), b.constant(2 * i + 3));
            let tap = b.xor(x, k);
            let m = b.mul(tap, c);
            acc[i as usize % 4] = b.add(acc[i as usize % 4], m);
        }
        let a12 = b.xor(acc[1], acc[2]);
        let a123 = b.xor(a12, acc[3]);
        let sum = b.add(acc[0], a123);
        b.seq_write(sout, sum);
        let k = b.build().unwrap();
        let mut work = Work::default();
        let s = schedule_counted(&k, &params(), &mut work).unwrap();
        assert_eq!((k.ops.len(), s.ii), (1288, 193));
        let mrt_words = 1043;
        assert_eq!(
            work,
            Work {
                heights: 1,
                mrt_words
            }
        );
        assert!(mrt_words as usize <= k.ops.len());

        // Rijndael's shape: each table address is made from the word the
        // last lookup returned, so the separation sits on a recurrence and
        // the MII is found by bisection: the resource MII, `max_ii`, then at
        // most ceil(log2(max_ii)) midpoints. Nothing is sorted on the way:
        // the relaxation order is the graph's own row order.
        let mut b = KernelBuilder::new("chain");
        let lut = b.stream("LUT", StreamKind::IdxCrossRead);
        let sout = b.stream("out", StreamKind::SeqOut);
        let mask = b.constant(0xff);
        let mut word = b.push(Opcode::Mov, vec![Operand::carried(ValueId(13), 1, 0)]);
        for _ in 0..4 {
            let addr = b.and(word, mask);
            word = b.idx_load(lut, addr);
        }
        assert_eq!(word, ValueId(13));
        b.seq_write(sout, word);
        let k = b.build().unwrap();
        let mut work = Work::default();
        let s = schedule_counted(&k, &params(), &mut work).unwrap();
        assert_eq!(s.ii, 93);
        let (heights, mrt_words) = (14, 14);
        assert_eq!(work, Work { heights, mrt_words });
        assert!(heights <= params().max_ii.ilog2() + 3);
    }

    #[test]
    fn heights_settle_within_the_round_bound_or_there_is_a_positive_cycle() {
        let edge = |from, to, latency, distance| DepEdge {
            from,
            to,
            latency,
            distance,
        };
        // The longest path crosses the one edge that points back and goes
        // on: found in round two, confirmed in round three, the bound.
        let mut edges = vec![edge(2, 0, 5, 1), edge(0, 1, 3, 0)];
        let g = DepGraph::from_edges(3, edges.clone());
        let (mut h, mut work) = (Vec::new(), Work::default());
        assert!(heights(&g, 1, &mut h, &mut work));
        assert_eq!(h, [3, 0, 7]);
        // Closing the cycle (latency 9, distance 1) makes II 8 infeasible.
        edges.push(edge(1, 2, 1, 0));
        let g = DepGraph::from_edges(3, edges);
        assert!(!heights(&g, 8, &mut h, &mut work));
        assert!(heights(&g, 9, &mut h, &mut work));
        assert_eq!(h, [4, 1, 0]);
    }

    #[test]
    fn latency_model_sanity() {
        let m = params().model;
        assert_eq!(m.latency(Opcode::Const(0)), 0);
        assert_eq!(m.latency(Opcode::Mul), 4);
        assert_eq!(m.latency(Opcode::Div), 16);
        assert_eq!(m.latency(Opcode::CondRead(crate::ir::StreamSlot(0))), 3);
    }
}
