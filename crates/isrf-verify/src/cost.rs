//! Static cost model: a sound whole-program cycle lower bound plus
//! per-kernel port-pressure and FIFO-occupancy diagnostics.
//!
//! Every quantity here is a *lower bound* (or an occupancy *upper* bound),
//! derived only from the schedule, the access counts, and the machine
//! configuration — never from simulation. Soundness arguments, per
//! component:
//!
//! * **Schedule floor.** A kernel invocation ticks at least
//!   `(iters-1)·II + completion + 1` cycles (the final `+1` is the `Done`
//!   tick), preceded by `kernel_dispatch_cycles` of dispatch. Stalls and
//!   flush cycles only add to this.
//! * **Port floor.** Stage-1 arbitration grants, per tick, either ONE
//!   sequential/conditional stream (moving `m` words per lane) or ALL
//!   indexed streams together. So ticks ≥ sequential grant count + indexed
//!   service cycles. A sequential stream moving `iters·n` words per lane
//!   needs `⌈iters·n / m⌉` grants; conditional streams move a
//!   data-dependent word count and are floored at zero. Indexed service
//!   obeys three hard caps from [`service_indexed`]: at most one access
//!   per stream per lane per cycle, `inlane_words_per_cycle` in-lane
//!   accesses per lane per cycle shared across streams, and for
//!   cross-lane streams both the per-lane issue width and the global
//!   topology budget (crossbar: `lanes`; ring: `min(4, lanes)`) and the
//!   per-bank network ports. In-lane and cross-lane accesses are serviced
//!   in the same indexed cycle, so the indexed floor is the max of the
//!   two groups, not their sum.
//! * **Memory floor.** The channel model charges bandwidth per DRAM
//!   *burst opening*, not per word: words of a transfer landing in the
//!   burst most recently opened by that transfer ride along free (see
//!   `serve_one` in `isrf-mem`). So the floor counts the minimum credit
//!   each op can be charged — static `Load`/`Store` patterns are walked
//!   in stream order for the exact opening count; dynamic gather
//!   indices could all land in one burst, so they charge a single
//!   opening. Cacheable traffic charges the cache channel exactly one
//!   credit per word (misses additionally charge DRAM, but a warm cache
//!   could make that zero, so misses contribute nothing to the minimum).
//!   Each channel's charge is divided by its peak refill rate, rounded
//!   *up* to milli-words per cycle, after subtracting the largest single
//!   deduction (credits may go briefly negative by one charge). Memory
//!   overlaps kernels, so the program floor is `max(Σ kernel floors,
//!   memory floor)`, not their sum.
//!
//! [`service_indexed`]: ../isrf_sim/index.html

use isrf_core::config::MachineConfig;
use isrf_kernel::ir::{Kernel, StreamKind, StreamSlot};
use isrf_kernel::sched::Schedule;
use isrf_mem::AddrPattern;
use isrf_sim::program::{ProgOp, StreamProgram};
use isrf_sim::stream::StreamBinding;

/// Static cost facts for one stream slot of a kernel invocation.
#[derive(Debug, Clone)]
pub struct StreamCost {
    /// Stream name from the kernel declaration.
    pub name: String,
    /// Stream kind, e.g. `seq-in`.
    pub kind: &'static str,
    /// SRF accesses per lane over the whole invocation (for conditional
    /// streams this is the data-dependent *maximum*).
    pub accesses_per_lane: u64,
    /// Sequential port grants the stream needs (0 for conditional and
    /// indexed streams).
    pub port_grants: u64,
    /// Cycles needed to service this stream alone (indexed streams only:
    /// one access per lane per cycle).
    pub service_floor: u64,
    /// Demand over per-stream peak service rate within one II, in percent.
    /// Over 100 means the stream, alone, makes the kernel port-bound.
    pub pressure_pct: u32,
    /// Peak address-FIFO occupancy bound in records (indexed reads).
    pub addr_fifo_peak: u64,
    /// Peak stream-buffer occupancy bound in words (indexed reads).
    pub buffer_peak: u64,
}

/// Static cost facts for one kernel invocation.
#[derive(Debug, Clone)]
pub struct KernelCost {
    /// Kernel name.
    pub name: String,
    /// Index of the invocation in the [`StreamProgram`].
    pub prog_op: usize,
    /// Iterations per lane.
    pub iters: u64,
    /// Initiation interval of the modulo schedule.
    pub ii: u32,
    /// Fixed dispatch overhead in cycles.
    pub dispatch_cycles: u64,
    /// `(iters-1)·II + completion + 1`: cycles the schedule alone needs.
    pub schedule_floor: u64,
    /// Sequential grants plus indexed service cycles the ports alone need.
    pub port_floor: u64,
    /// Sound invocation lower bound:
    /// `dispatch + max(schedule_floor, port_floor)`.
    pub floor: u64,
    /// In-lane indexed demand over sub-array capacity per II, in percent
    /// (bank/sub-array conflict pressure).
    pub inlane_pressure_pct: u32,
    /// Cross-lane demand over interconnect capacity per II, in percent.
    pub crosslane_pressure_pct: u32,
    /// Per-stream breakdown, in slot order.
    pub streams: Vec<StreamCost>,
}

/// The whole-program static cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-invocation costs, in program order.
    pub kernels: Vec<KernelCost>,
    /// Σ kernel floors (kernels serialize on the single sequencer).
    pub kernel_floor: u64,
    /// Total memory demand in words, across all memory ops.
    pub mem_words: u64,
    /// Cycles the memory system alone needs for `mem_words`.
    pub mem_floor: u64,
    /// Sound program cycle lower bound:
    /// `max(kernel_floor, mem_floor)` (memory overlaps kernels).
    pub cycle_floor: u64,
}

fn kind_str(kind: StreamKind) -> &'static str {
    match kind {
        StreamKind::SeqIn => "seq-in",
        StreamKind::SeqOut => "seq-out",
        StreamKind::CondIn => "cond-in",
        StreamKind::CondOut => "cond-out",
        StreamKind::CondLaneIn => "cond-lane-in",
        StreamKind::IdxInRead => "idx-in-read",
        StreamKind::IdxInWrite => "idx-in-write",
        StreamKind::IdxCrossRead => "idx-cross-read",
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    if b == 0 {
        0
    } else {
        a.div_ceil(b)
    }
}

/// Peak address-FIFO (records) and stream-buffer (words) occupancy bounds
/// for one indexed read stream, by replaying the schedule's address pushes
/// and data pops (same event model as the V501 deadlock check): a pushed
/// record is outstanding until all its `rw` words have been popped, and a
/// serviced-but-unpopped word sits in the stream buffer.
fn occupancy_bounds(
    kernel: &Kernel,
    schedule: &Schedule,
    slot: StreamSlot,
    rw: u64,
    iters: u64,
    (fifo_cap, buf_cap): (u64, u64),
) -> (u64, u64) {
    let addr_ops = kernel.stream_addr_ops(slot);
    let data_ops = kernel.stream_data_ops(slot);
    if addr_ops.is_empty() {
        return (0, 0);
    }
    let window = fifo_cap + buf_cap + 2 * schedule.stages() as u64 + 8;
    let sim_iters = iters.min(window);
    let mut events: Vec<(u64, bool)> = Vec::new();
    for j in 0..sim_iters {
        for &a in &addr_ops {
            events.push((schedule.slots[a] as u64 + j * schedule.ii as u64, true));
        }
        for &r in &data_ops {
            events.push((schedule.slots[r] as u64 + j * schedule.ii as u64, false));
        }
    }
    events.sort_unstable();
    let (mut pushed, mut popped) = (0u64, 0u64);
    let (mut fifo_peak, mut buf_peak) = (0u64, 0u64);
    for (_, is_push) in events {
        if is_push {
            pushed += 1;
        } else {
            popped += 1;
        }
        // Records not yet fully consumed are outstanding somewhere in the
        // FIFO + buffer; words serviced ahead of their pop sit buffered.
        let outstanding = pushed.saturating_sub(popped / rw.max(1));
        fifo_peak = fifo_peak.max(outstanding.min(fifo_cap));
        buf_peak = buf_peak.max((pushed * rw).saturating_sub(popped).min(buf_cap));
    }
    (fifo_peak, buf_peak)
}

/// The cost of one kernel invocation. It reads nothing of the invocation
/// beyond its shape ([`crate::shape_ids`]), so [`cost_model`] evaluates it
/// once per shape.
fn kernel_cost(
    cfg: &MachineConfig,
    prog_op: usize,
    kernel: &Kernel,
    schedule: &Schedule,
    bindings: &[StreamBinding],
    iters: u64,
) -> KernelCost {
    let lanes = cfg.lanes as u64;
    let m = cfg.srf.words_per_seq_access.max(1) as u64;
    let ii = schedule.ii.max(1) as u64;
    let (fifo_cap, buf_cap) = (
        cfg.srf
            .indexed
            .as_ref()
            .map_or(0, |i| i.addr_fifo_entries as u64),
        cfg.srf.stream_buffer_words as u64,
    );

    let mut streams = Vec::with_capacity(kernel.streams.len());
    let mut seq_grants = 0u64;
    // (accesses per lane over the run, per-iteration count) per group.
    let mut inlane: Vec<u64> = Vec::new();
    let mut cross: Vec<u64> = Vec::new();
    let (mut inlane_per_iter, mut cross_per_iter) = (0u64, 0u64);
    for (si, decl) in kernel.streams.iter().enumerate() {
        let slot = StreamSlot(si as u8);
        // Indexed streams make one SRF access per *address* issued (IdxAddr
        // for reads, IdxWrite for writes — both address-port ops);
        // sequential/conditional streams move one word per data-port op.
        let n = if decl.kind.is_indexed() {
            kernel.stream_addr_ops(slot).len() as u64
        } else {
            kernel.stream_data_ops(slot).len() as u64
        };
        let apl = iters * n;
        let mut sc = StreamCost {
            name: decl.name.clone(),
            kind: kind_str(decl.kind),
            accesses_per_lane: apl,
            port_grants: 0,
            service_floor: 0,
            pressure_pct: 0,
            addr_fifo_peak: 0,
            buffer_peak: 0,
        };
        match decl.kind {
            StreamKind::SeqIn | StreamKind::SeqOut => {
                sc.port_grants = div_ceil(apl, m);
                seq_grants += sc.port_grants;
                sc.pressure_pct = (100 * n / (ii * m)).min(u32::MAX as u64) as u32;
            }
            StreamKind::CondIn | StreamKind::CondOut | StreamKind::CondLaneIn => {
                // Word count is data-dependent: floor at zero grants, but
                // report the maximum demand as pressure.
                sc.pressure_pct = (100 * n / (ii * m)).min(u32::MAX as u64) as u32;
            }
            StreamKind::IdxInRead | StreamKind::IdxInWrite => {
                sc.service_floor = apl;
                sc.pressure_pct = (100 * n / ii).min(u32::MAX as u64) as u32;
                inlane.push(apl);
                inlane_per_iter += n;
            }
            StreamKind::IdxCrossRead => {
                sc.service_floor = apl;
                sc.pressure_pct = (100 * n / ii).min(u32::MAX as u64) as u32;
                cross.push(apl);
                cross_per_iter += n;
            }
        }
        if matches!(decl.kind, StreamKind::IdxInRead | StreamKind::IdxCrossRead) {
            let rw = bindings[si].record_words.max(1) as u64;
            let (fp, bp) = occupancy_bounds(kernel, schedule, slot, rw, iters, (fifo_cap, buf_cap));
            sc.addr_fifo_peak = fp;
            sc.buffer_peak = bp;
        }
        streams.push(sc);
    }

    let idx = cfg.srf.indexed.as_ref();
    let w_in = idx.map_or(1, |i| i.inlane_words_per_cycle.max(1)) as u64;
    let w_cross = idx.map_or(1, |i| i.crosslane_words_per_cycle.max(1)) as u64;
    let ports = idx.map_or(1, |i| i.network_ports_per_bank.max(1)) as u64;
    let topo_budget = idx.map_or(1, |i| {
        isrf_sim::topology_issue_budget(i.crosslane_topology, cfg.lanes).max(1) as u64
    });

    let inlane_floor = inlane
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(div_ceil(inlane.iter().sum::<u64>(), w_in));
    let cross_sum: u64 = cross.iter().sum();
    // Per-lane issue width, global topology budget, and per-bank network
    // ports each cap a cross-lane service cycle independently.
    let cross_floor = cross
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(div_ceil(cross_sum, w_cross))
        .max(div_ceil(cross_sum * lanes, topo_budget))
        .max(div_ceil(cross_sum, ports));
    // In-lane and cross-lane streams are serviced in the same indexed
    // cycle: the groups overlap, so take the max, not the sum.
    let idx_floor = inlane_floor.max(cross_floor);

    let dispatch = cfg.kernel_dispatch_cycles as u64;
    let schedule_floor = if iters == 0 {
        0
    } else {
        (iters - 1) * ii + schedule.completion as u64 + 1
    };
    let port_floor = seq_grants + idx_floor;
    let floor = if iters == 0 {
        0
    } else {
        dispatch + schedule_floor.max(port_floor)
    };
    KernelCost {
        name: kernel.name.clone(),
        prog_op,
        iters,
        ii: schedule.ii,
        dispatch_cycles: dispatch,
        schedule_floor,
        port_floor,
        floor,
        inlane_pressure_pct: (100 * inlane_per_iter / (ii * w_in)).min(u32::MAX as u64) as u32,
        crosslane_pressure_pct: {
            let cap = topo_budget.min(ports * lanes).min(w_cross * lanes).max(1);
            (100 * cross_per_iter * lanes / (ii * cap)).min(u32::MAX as u64) as u32
        },
        streams,
    }
}

/// Minimum DRAM credit a non-cacheable transfer of `p` is charged: one
/// `burst_words` deduction per burst *opening*, walking the pattern in
/// stream order (the channel tracks only the most recent burst per
/// transfer, so revisiting a burst after leaving it pays again).
fn burst_charge(p: &AddrPattern, burst_words: u64) -> u64 {
    let n = p.len();
    if n == 0 {
        return 0;
    }
    let mut openings = 1u64;
    let mut last = u64::from(p.addr_at(0)) / burst_words;
    for i in 1..n {
        let b = u64::from(p.addr_at(i)) / burst_words;
        if b != last {
            openings += 1;
            last = b;
        }
    }
    openings * burst_words
}

/// Compute the static cost model for `program` on `cfg`.
pub fn cost_model(cfg: &MachineConfig, program: &StreamProgram) -> CostModel {
    let mut kernels = Vec::new();
    let (shape_of, shapes) = crate::shape_ids(program);
    let mut per_shape: Vec<Option<KernelCost>> = vec![None; shapes];
    let mut mem_words = 0u64;
    let burst = u64::from(cfg.dram.burst_words.max(1));
    let has_cache = cfg.cache.is_some();
    // Minimum credit charged per channel (see module docs).
    let mut dram_charge = 0u64;
    let mut cache_words = 0u64;
    for i in 0..program.len() {
        let (op, _) = program.node(i);
        match op {
            ProgOp::Load {
                pattern, cacheable, ..
            }
            | ProgOp::Store {
                pattern, cacheable, ..
            } => {
                let w = pattern.len() as u64;
                mem_words += w;
                if *cacheable && has_cache {
                    cache_words += w;
                } else {
                    dram_charge += burst_charge(pattern, burst);
                }
            }
            ProgOp::GatherDyn {
                index_stream,
                cacheable,
                ..
            } => {
                let w = index_stream.words() as u64;
                mem_words += w;
                if *cacheable && has_cache {
                    cache_words += w;
                } else if w > 0 {
                    // Index values are dynamic: every address could land in
                    // one burst, so the provable minimum is one opening.
                    dram_charge += burst;
                }
            }
            ProgOp::Kernel {
                kernel,
                schedule,
                bindings,
                iters,
            } => {
                let cost = per_shape[shape_of[i]]
                    .get_or_insert_with(|| kernel_cost(cfg, i, kernel, schedule, bindings, *iters));
                kernels.push(KernelCost {
                    prog_op: i,
                    ..cost.clone()
                });
            }
        }
    }
    let kernel_floor: u64 = kernels.iter().map(|k| k.floor).sum();
    // Per-channel floors: charge over peak refill rate, rounded UP to
    // milli-words/cycle so integer division keeps the bound an
    // underestimate. Credits may go briefly negative (a serve is gated on
    // `credit > 0` *before* the deduction, and a cacheable miss with
    // writeback deducts two line fills at once), so subtract the largest
    // possible end-of-run debt from the demand first.
    let line = cfg.cache.as_ref().map_or(0, |c| c.line_words as u64);
    let dram_debt = 2 * burst.max(line);
    let dram_rate_milli = ((cfg.dram.words_per_cycle(cfg.clock_ghz) * 1000.0).ceil() as u64).max(1);
    let dram_floor = dram_charge.saturating_sub(dram_debt) * 1000 / dram_rate_milli;
    let cache_floor = cfg.cache.as_ref().map_or(0, |c| {
        let rate_milli = ((c.words_per_cycle(cfg.clock_ghz) * 1000.0).ceil() as u64).max(1);
        cache_words.saturating_sub(1) * 1000 / rate_milli
    });
    let mem_floor = dram_floor.max(cache_floor);
    CostModel {
        kernels,
        kernel_floor,
        mem_words,
        mem_floor,
        cycle_floor: kernel_floor.max(mem_floor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strips::{generate, Spec};
    use isrf_core::config::ConfigName;

    /// Costing once per shape says, at every invocation, what costing that
    /// invocation says: ragged strips of three kernels, one of them reading
    /// a table, make six shapes over sixty invocations.
    #[test]
    fn per_shape_costs_are_each_invocations_own() {
        let g = generate(&Spec {
            kernels: 3,
            lookup: true,
            ragged: true,
            ..Spec::bfs_shaped(ConfigName::Isrf4, 20)
        });
        assert_eq!(crate::shape_ids(&g.program).1, 6);
        let model = cost_model(&g.cfg, &g.program);
        let mut kernels = model.kernels.iter();
        for i in 0..g.program.len() {
            if let ProgOp::Kernel {
                kernel,
                schedule,
                bindings,
                iters,
            } = g.program.node(i).0
            {
                let own = kernel_cost(&g.cfg, i, kernel, schedule, bindings, *iters);
                let shared = kernels.next().expect("one cost per invocation");
                assert_eq!(format!("{shared:?}"), format!("{own:?}"));
            }
        }
        assert!(kernels.next().is_none());
        assert_eq!(
            model.kernel_floor,
            model.kernels.iter().map(|k| k.floor).sum()
        );
    }
}
