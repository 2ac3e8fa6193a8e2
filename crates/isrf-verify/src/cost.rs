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
//!   tick), preceded by `KERNEL_DISPATCH_CYCLES` of dispatch. Stalls and
//!   flush cycles only add to this.
//! * **Port floor.** Stage-1 arbitration grants, per tick, either ONE
//!   sequential/conditional stream (moving `m` words per lane) or ALL
//!   indexed streams together. So ticks ≥ sequential grant count + indexed
//!   service cycles. A sequential stream moving `iters·n` words per lane
//!   needs `⌈iters·n / m⌉` grants; conditional streams move a
//!   data-dependent word count and are floored at zero. Indexed service
//!   obeys two hard caps from [`service_indexed`]: at most one access
//!   per stream per lane per cycle, and `inlane_words_per_cycle` in-lane
//!   or `CROSSLANE_WORDS_PER_CYCLE` cross-lane accesses per lane per
//!   cycle shared across streams (the crossbar's per-bank network ports
//!   only lower the rate further). In-lane and cross-lane accesses are
//!   serviced in the same indexed cycle, so the indexed floor is the max
//!   of the two groups, not their sum.
//! * **Memory floor.** The channel model charges bandwidth per DRAM
//!   *burst opening*, not per word: words of a transfer landing in the
//!   burst most recently opened by that transfer ride along free (see
//!   `serve_one` in `isrf-mem`). So the floor counts the minimum credit
//!   each op can be charged — a static `Load`/`Store` pattern its exact
//!   opening count, [`AddrPattern::burst_openings`]: a contiguous run in
//!   closed form, an indexed list by one walk per list, however many
//!   transfers share it; dynamic gather indices could all land in one
//!   burst, so they charge a single opening. Cacheable traffic charges
//!   the cache channel exactly one credit per word (misses additionally
//!   charge DRAM, but a warm cache could make that zero, so misses
//!   contribute nothing to the minimum). Each channel's charge is divided
//!   by its peak refill rate, rounded *up* to milli-words per cycle, after
//!   subtracting the largest single deduction (credits may go briefly
//!   negative by one charge). Memory overlaps kernels, so the program
//!   floor is `max(Σ kernel floors, memory floor)`, not their sum.
//!
//! [`service_indexed`]: ../isrf_sim/index.html

use std::collections::BTreeMap;
use std::sync::Arc;

use isrf_core::config::{
    MachineConfig, CROSSLANE_WORDS_PER_CYCLE, KERNEL_DISPATCH_CYCLES, SEQ_ACCESS_WORDS,
};
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

/// One indexed read stream's address pushes and data pops, as
/// `(cycle, push, op)` sorted so that within a cycle the pops come first
/// and each kind runs in op order: the replay [`occupancy_bounds`] and the
/// V501 deadlock check walk. Every op repeats at its slot + j·II, so
/// occupancy is eventually periodic with period II; a window comfortably
/// larger than the capacities plus the pipeline depth reaches that steady
/// state.
pub(crate) fn fifo_events(
    kernel: &Kernel,
    schedule: &Schedule,
    slot: StreamSlot,
    iters: u64,
    (fifo_cap, buf_cap): (u64, u64),
) -> Vec<(u64, bool, usize)> {
    let window = fifo_cap + buf_cap + 2 * schedule.stages() as u64 + 8;
    let kinds = [
        (kernel.stream_data_ops(slot), false),
        (kernel.stream_addr_ops(slot), true),
    ];
    let reps = iters.min(window);
    let at = |op: usize, j: u64| (schedule.slots[op] as u64 + j * schedule.ii as u64) as usize;
    let Some(last) = kinds
        .iter()
        .flat_map(|(ops, _)| ops)
        .map(|&op| at(op, 0))
        .max()
    else {
        return Vec::new();
    };
    // A counting sort by cycle, filled pops first and each kind in op
    // order: being stable, it leaves every cycle in that order.
    let mut next = vec![0; last + reps.saturating_sub(1) as usize * schedule.ii as usize + 2];
    for (ops, _) in &kinds {
        for j in 0..reps {
            ops.iter().for_each(|&op| next[at(op, j) + 1] += 1);
        }
    }
    for t in 1..next.len() {
        next[t] += next[t - 1];
    }
    let mut events = vec![(0, false, 0); next[next.len() - 1]];
    for (ops, push) in &kinds {
        for &op in ops {
            for j in 0..reps {
                let t = at(op, j);
                events[next[t]] = (t as u64, *push, op);
                next[t] += 1;
            }
        }
    }
    events
}

/// Peak address-FIFO (records) and stream-buffer (words) occupancy bounds
/// for one indexed read stream, over its [`fifo_events`]: a pushed record
/// is outstanding until all its `rw` words have been popped, and a
/// serviced-but-unpopped word sits in the stream buffer.
fn occupancy_bounds(
    events: &[(u64, bool, usize)],
    rw: u64,
    (fifo_cap, buf_cap): (u64, u64),
) -> (u64, u64) {
    let (mut pushed, mut popped) = (0u64, 0u64);
    let (mut fifo_peak, mut buf_peak) = (0u64, 0u64);
    for &(_, is_push, _) in events {
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
    let m = SEQ_ACCESS_WORDS as u64;
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
    // Accesses per lane over the run: per in-lane stream, and summed over
    // the cross-lane ones; then each group's per-iteration count.
    let (mut inlane, mut cross_sum) = (Vec::new(), 0u64);
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
                cross_sum += apl;
                cross_per_iter += n;
            }
        }
        if matches!(decl.kind, StreamKind::IdxInRead | StreamKind::IdxCrossRead) {
            let rw = bindings[si].record_words.max(1) as u64;
            let caps = (fifo_cap, buf_cap);
            let events = fifo_events(kernel, schedule, slot, iters, caps);
            (sc.addr_fifo_peak, sc.buffer_peak) = occupancy_bounds(&events, rw, caps);
        }
        streams.push(sc);
    }

    let idx = cfg.srf.indexed.as_ref();
    let w_in = idx.map_or(1, |i| i.inlane_words_per_cycle.max(1)) as u64;
    let w_cross = CROSSLANE_WORDS_PER_CYCLE as u64;

    let inlane_floor = inlane
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(div_ceil(inlane.iter().sum::<u64>(), w_in));
    let cross_floor = div_ceil(cross_sum, w_cross);
    // In-lane and cross-lane streams are serviced in the same indexed
    // cycle: the groups overlap, so take the max, not the sum.
    let idx_floor = inlane_floor.max(cross_floor);

    let dispatch = KERNEL_DISPATCH_CYCLES as u64;
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
        crosslane_pressure_pct: (100 * cross_per_iter / (ii * w_cross)).min(u32::MAX as u64) as u32,
        streams,
    }
}

/// Words a program's memory ops move, and the least credit each channel
/// can be charged for them (see the module docs).
#[derive(Debug, Default)]
struct MemCharge {
    words: u64,
    dram: u64,
    cache: u64,
    /// Addresses walked to count indexed lists' burst openings.
    #[cfg(test)]
    walked: u64,
}

fn mem_charge(cfg: &MachineConfig, program: &StreamProgram) -> MemCharge {
    let burst_words = cfg.dram.burst_words.max(1);
    let has_cache = cfg.cache.is_some();
    // Burst openings per indexed list, keyed by its `Arc` address as
    // `shape_ids` keys kernels (the program is borrowed for the whole
    // call, so an address names one list): every transfer sharing a list
    // is charged what one walk of it counted.
    let mut lists = BTreeMap::new();
    let mut charge = MemCharge::default();
    for i in 0..program.len() {
        match program.node(i).0 {
            ProgOp::Load {
                pattern, cacheable, ..
            }
            | ProgOp::Store {
                pattern, cacheable, ..
            } => {
                let w = pattern.len() as u64;
                charge.words += w;
                if *cacheable && has_cache {
                    charge.cache += w;
                    continue;
                }
                let openings = match pattern {
                    AddrPattern::Contiguous { .. } => pattern.burst_openings(burst_words),
                    AddrPattern::Indexed(list) => {
                        *lists.entry(Arc::as_ptr(list)).or_insert_with(|| {
                            #[cfg(test)]
                            {
                                charge.walked += w;
                            }
                            pattern.burst_openings(burst_words)
                        })
                    }
                };
                charge.dram += openings * u64::from(burst_words);
            }
            ProgOp::GatherDyn {
                index_stream,
                cacheable,
                ..
            } => {
                let w = index_stream.words() as u64;
                charge.words += w;
                if *cacheable && has_cache {
                    charge.cache += w;
                } else if w > 0 {
                    // Index values are dynamic: every address could land in
                    // one burst, so the provable minimum is one opening.
                    charge.dram += u64::from(burst_words);
                }
            }
            ProgOp::Kernel { .. } => {}
        }
    }
    charge
}

/// Compute the static cost model for `program` on `cfg`.
pub fn cost_model(cfg: &MachineConfig, program: &StreamProgram) -> CostModel {
    let (shape_of, shapes) = crate::shape_ids(program);
    shaped_cost_model(cfg, program, &shape_of, shapes)
}

/// [`cost_model`] given the program's [`crate::shape_ids`].
pub(crate) fn shaped_cost_model(
    cfg: &MachineConfig,
    program: &StreamProgram,
    shape_of: &[usize],
    shapes: usize,
) -> CostModel {
    let mut kernels = Vec::new();
    let mut per_shape: Vec<Option<KernelCost>> = vec![None; shapes];
    for i in 0..program.len() {
        if let ProgOp::Kernel {
            kernel,
            schedule,
            bindings,
            iters,
        } = program.node(i).0
        {
            let cost = per_shape[shape_of[i]]
                .get_or_insert_with(|| kernel_cost(cfg, i, kernel, schedule, bindings, *iters));
            kernels.push(KernelCost {
                prog_op: i,
                ..cost.clone()
            });
        }
    }
    let kernel_floor: u64 = kernels.iter().map(|k| k.floor).sum();
    let mem = mem_charge(cfg, program);
    // Per-channel floors: charge over peak refill rate, rounded UP to
    // milli-words/cycle so integer division keeps the bound an
    // underestimate. Credits may go briefly negative (a serve is gated on
    // `credit > 0` *before* the deduction, and a cacheable miss with
    // writeback deducts two line fills at once), so subtract the largest
    // possible end-of-run debt from the demand first.
    let burst = u64::from(cfg.dram.burst_words.max(1));
    let line = cfg.cache.as_ref().map_or(0, |c| c.line_words as u64);
    let dram_debt = 2 * burst.max(line);
    let dram_rate_milli = ((cfg.dram.words_per_cycle() * 1000.0).ceil() as u64).max(1);
    let dram_floor = mem.dram.saturating_sub(dram_debt) * 1000 / dram_rate_milli;
    let cache_floor = cfg.cache.as_ref().map_or(0, |c| {
        let rate_milli = ((c.words_per_cycle() * 1000.0).ceil() as u64).max(1);
        mem.cache.saturating_sub(1) * 1000 / rate_milli
    });
    let mem_floor = dram_floor.max(cache_floor);
    CostModel {
        kernels,
        kernel_floor,
        mem_words: mem.words,
        mem_floor,
        cycle_floor: kernel_floor.max(mem_floor),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_gen::Spec;
    use isrf_kernel::ir::KernelBuilder;
    use isrf_sim::machine::Machine;

    /// One op a cycle in op order, a new iteration every `ii` cycles.
    fn one_op_a_cycle(kernel: &Kernel, ii: u32) -> Schedule {
        let n = kernel.ops.len() as u32;
        Schedule {
            ii,
            slots: (0..n).collect(),
            span: n,
            completion: n,
        }
    }

    /// `fifo_events` as it was: every event pushed, then the list sorted.
    fn fifo_events_sorted(
        kernel: &Kernel,
        schedule: &Schedule,
        slot: StreamSlot,
        iters: u64,
        (fifo_cap, buf_cap): (u64, u64),
    ) -> Vec<(u64, bool, usize)> {
        let window = fifo_cap + buf_cap + 2 * schedule.stages() as u64 + 8;
        let kinds = [
            (kernel.stream_addr_ops(slot), true),
            (kernel.stream_data_ops(slot), false),
        ];
        let mut events = Vec::new();
        for j in 0..iters.min(window) {
            for (ops, push) in &kinds {
                let at = |op: usize| schedule.slots[op] as u64 + j * schedule.ii as u64;
                events.extend(ops.iter().map(|&op| (at(op), *push, op)));
            }
        }
        events.sort_unstable();
        events
    }

    /// The counting sort in lock-step with the sort it replaced, for every
    /// indexed read stream of the lock-step programs, at their iteration
    /// counts and at one iteration.
    #[test]
    fn fifo_events_match_the_sorted_list() {
        let mut streams = 0;
        for case in crate::tests::lockstep_cases() {
            let Some(idx) = &case.cfg.srf.indexed else {
                continue;
            };
            let caps = (
                idx.addr_fifo_entries as u64,
                case.cfg.srf.stream_buffer_words as u64,
            );
            for i in 0..case.program.len() {
                let ProgOp::Kernel {
                    kernel,
                    schedule,
                    iters,
                    ..
                } = case.program.node(i).0
                else {
                    continue;
                };
                for (s, decl) in kernel.streams.iter().enumerate() {
                    if !decl.kind.is_indexed() || decl.kind == StreamKind::IdxInWrite {
                        continue;
                    }
                    let slot = StreamSlot(s as u8);
                    for iters in [*iters, 1] {
                        assert_eq!(
                            fifo_events(kernel, schedule, slot, iters, caps),
                            fifo_events_sorted(kernel, schedule, slot, iters, caps),
                            "{}: op {i} stream {s}",
                            case.name
                        );
                    }
                    streams += 1;
                }
            }
        }
        assert!(streams > 1000, "{streams} indexed read streams");
    }

    /// The memory charge as it was computed before each run was counted in
    /// closed form and each list once: every pattern walked address by
    /// address, in stream order, at every transfer.
    mod reference {
        use isrf_core::config::MachineConfig;
        use isrf_mem::AddrPattern;
        use isrf_sim::program::{ProgOp, StreamProgram};

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

        /// `(DRAM charge, mem_floor)`.
        pub fn mem(cfg: &MachineConfig, program: &StreamProgram) -> (u64, u64) {
            let burst = u64::from(cfg.dram.burst_words.max(1));
            let has_cache = cfg.cache.is_some();
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
                        if *cacheable && has_cache {
                            cache_words += w;
                        } else if w > 0 {
                            dram_charge += burst;
                        }
                    }
                    ProgOp::Kernel { .. } => {}
                }
            }
            let line = cfg.cache.as_ref().map_or(0, |c| c.line_words as u64);
            let dram_debt = 2 * burst.max(line);
            let dram_rate_milli = ((cfg.dram.words_per_cycle() * 1000.0).ceil() as u64).max(1);
            let dram_floor = dram_charge.saturating_sub(dram_debt) * 1000 / dram_rate_milli;
            let cache_floor = cfg.cache.as_ref().map_or(0, |c| {
                let rate_milli = ((c.words_per_cycle() * 1000.0).ceil() as u64).max(1);
                cache_words.saturating_sub(1) * 1000 / rate_milli
            });
            (dram_charge, dram_floor.max(cache_floor))
        }
    }

    /// `mem_charge`'s DRAM charge and `cost_model`'s memory floor against
    /// [`reference`], at the program's own burst and at 3 and 8 words.
    fn assert_mem_matches(name: &str, cfg: &MachineConfig, program: &StreamProgram) {
        for burst_words in [cfg.dram.burst_words, 3, 8] {
            let mut cfg = cfg.clone();
            cfg.dram.burst_words = burst_words;
            let got = (
                mem_charge(&cfg, program).dram,
                cost_model(&cfg, program).mem_floor,
            );
            assert_eq!(
                got,
                reference::mem(&cfg, program),
                "{name}, burst {burst_words}"
            );
        }
    }

    /// The closed form and the once-per-list count in lock-step with the
    /// walk they replaced, on 512 random programs and all 64 app programs.
    #[test]
    fn burst_charge_matches_the_address_walk() {
        for case in crate::tests::lockstep_cases() {
            assert_mem_matches(&case.name, &case.cfg, &case.program);
        }
    }

    /// Three loads share one list and a fourth has an equal list of its
    /// own: each list is walked once, and the four transfers are charged
    /// what four walks charge.
    #[test]
    fn a_shared_list_is_walked_once() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut m = Machine::new(cfg.clone()).unwrap();
        let dst = m.alloc_stream(1, 96);
        let addrs: Vec<u32> = (0..96).map(|i| (i * 7) % 40 + 1000).collect();
        let (shared, own): (Arc<[u32]>, Arc<[u32]>) = (addrs.as_slice().into(), addrs.into());
        let mut p = StreamProgram::new();
        for list in [&shared, &shared, &shared, &own] {
            p.load(AddrPattern::Indexed(Arc::clone(list)), dst, false, &[]);
        }
        assert_mem_matches("four loads", &cfg, &p);
        let mem = mem_charge(&cfg, &p);
        assert_eq!((mem.words, mem.walked), (4 * 96, 2 * 96));
    }

    /// Counting bursts walks each distinct list once and no run: bfs at
    /// Paper size walks its 64 lists' 98 304 addresses, where the walk
    /// per transfer visited 1 277 952, and a contiguous-only program of
    /// 1 920 ops walks none.
    #[test]
    fn burst_count_walks_each_list_once_and_no_run() {
        let bfs = crate::tests::lockstep_cases()
            .iter()
            .find(|c| c.name == "bfs/Base/Paper")
            .expect("bfs is a named point");
        let walked_per_transfer: usize = (0..bfs.program.len())
            .map(|i| match bfs.program.node(i).0 {
                ProgOp::Load { pattern, .. } | ProgOp::Store { pattern, .. } => pattern.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(walked_per_transfer, 1_277_952);
        assert_eq!(mem_charge(&bfs.cfg, &bfs.program).walked, 98_304);

        let g = Spec::bfs_shaped(ConfigName::Base, 384).generate();
        assert_eq!(g.program.len(), 1920);
        let mem = mem_charge(&g.cfg, &g.program);
        assert!(mem.dram > 0);
        assert_eq!(mem.walked, 0);
        assert_mem_matches("contiguous bfs-shaped", &g.cfg, &g.program);
    }

    /// Peak DRAM refill in milli-words per cycle, rounded up.
    fn dram_rate_milli(cfg: &MachineConfig) -> u64 {
        (cfg.dram.words_per_cycle() * 1000.0).ceil() as u64
    }

    /// `out = in + 1` at II 3 over ten iterations, after a load of its
    /// input: the schedule floor counts nine intervals of 3 past the first
    /// iteration, whose four ops complete at 4, and the program floor is
    /// the larger of the kernel and memory floors, as they overlap.
    #[test]
    fn ii_spaces_iterations_and_memory_overlaps_kernels() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut m = Machine::new(cfg.clone()).unwrap();
        let mut b = KernelBuilder::new("inc");
        let (s_in, s_out) = (
            b.stream("in", StreamKind::SeqIn),
            b.stream("out", StreamKind::SeqOut),
        );
        let a = b.seq_read(s_in);
        let one = b.constant(1);
        let c = b.add(a, one);
        b.seq_write(s_out, c);
        let kernel = Arc::new(b.build().unwrap());
        let (input, output) = (m.alloc_stream(1, 80), m.alloc_stream(1, 80));
        let mut p = StreamProgram::new();
        let load = p.load(AddrPattern::contiguous(0, 80), input, false, &[]);
        let sched = one_op_a_cycle(&kernel, 3);
        p.kernel(kernel, sched, vec![input, output], 10, &[load]);

        let model = cost_model(&cfg, &p);
        let k = &model.kernels[0];
        assert_eq!(k.schedule_floor, (10 - 1) * 3 + 4 + 1);
        assert_eq!(k.port_floor, 2 * 10u64.div_ceil(SEQ_ACCESS_WORDS as u64));
        assert_eq!(k.floor, KERNEL_DISPATCH_CYCLES as u64 + 32);
        // Eighty one-word bursts less the two-burst debt, over the peak rate.
        assert_eq!(model.mem_floor, (80 - 2) * 1000 / dram_rate_milli(&cfg));
        assert_eq!((model.kernel_floor, model.mem_floor), (64, 34));
        assert_eq!(model.cycle_floor, 64);
    }

    /// An ISRF4 kernel reading five in-lane tables and one cross-lane table
    /// per iteration. The in-lane group's floor is its busiest stream or its
    /// accesses over the four in-lane words a cycle, whichever is more: here
    /// the second, 320 / 4. The cross-lane group is served in the same
    /// indexed cycles, so the indexed floor is the larger group, not both.
    #[test]
    fn inlane_and_crosslane_groups_overlap_and_inlane_shares_w_in() {
        let cfg = MachineConfig::preset(ConfigName::Isrf4);
        let w_in = cfg.srf.indexed.as_ref().unwrap().inlane_words_per_cycle as u64;
        assert_eq!(w_in, 4);
        let mut m = Machine::new(cfg.clone()).unwrap();
        let mut b = KernelBuilder::new("tables");
        let s_in = b.stream("in", StreamKind::SeqIn);
        let cross = b.stream("x", StreamKind::IdxCrossRead);
        let tables: Vec<_> = (0..5)
            .map(|t| b.stream(format!("t{t}"), StreamKind::IdxInRead))
            .collect();
        let s_out = b.stream("out", StreamKind::SeqOut);
        let a = b.seq_read(s_in);
        let mut sum = b.idx_load(cross, a);
        for t in tables {
            let v = b.idx_load(t, a);
            sum = b.add(sum, v);
        }
        b.seq_write(s_out, sum);
        let kernel = Arc::new(b.build().unwrap());
        let (iters, lanes) = (64u64, cfg.lanes as u32);
        let mut bindings = vec![m.alloc_stream(1, 64 * lanes)];
        bindings.extend((0..6).map(|_| m.alloc_stream(1, 64)));
        bindings.push(m.alloc_stream(1, 64 * lanes));
        let mut p = StreamProgram::new();
        let sched = one_op_a_cycle(&kernel, 1);
        p.kernel(kernel, sched, bindings, iters, &[]);

        let k = &cost_model(&cfg, &p).kernels[0];
        let seq = 2 * iters.div_ceil(SEQ_ACCESS_WORDS as u64);
        let inlane = iters.max((5 * iters).div_ceil(w_in));
        let crosslane = iters.div_ceil(CROSSLANE_WORDS_PER_CYCLE as u64);
        assert_eq!((seq, inlane, crosslane), (32, 80, 64));
        assert_eq!(k.port_floor, seq + inlane.max(crosslane));
        // Nineteen ops at II 1, one a cycle.
        assert_eq!(k.schedule_floor, (iters - 1) + 19 + 1);
        assert_eq!(k.floor, KERNEL_DISPATCH_CYCLES as u64 + 112);
    }

    /// A cacheable load on Cache charges the cache channel a credit a word,
    /// less the one charge a credit may run ahead by, and DRAM nothing.
    #[test]
    fn cacheable_load_floors_on_the_cache_less_one_word() {
        let cfg = MachineConfig::preset(ConfigName::Cache);
        let mut m = Machine::new(cfg.clone()).unwrap();
        let dst = m.alloc_stream(1, 1024);
        let mut p = StreamProgram::new();
        p.load(AddrPattern::contiguous(0, 1024), dst, true, &[]);
        let model = cost_model(&cfg, &p);
        let rate_milli = (cfg.cache.as_ref().unwrap().words_per_cycle() * 1000.0).ceil() as u64;
        assert_eq!(rate_milli, 4000);
        assert_eq!(model.mem_floor, (1024 - 1) * 1000 / rate_milli);
        assert_eq!(
            (model.mem_words, model.mem_floor, model.cycle_floor),
            (1024, 255, 255)
        );
    }

    /// A non-cacheable load whose DRAM charge, 100 bursts of 16 words,
    /// exceeds the debt of two bursts the credit may run into: the floor is
    /// the charge less that debt over the peak rate.
    #[test]
    fn dram_floor_subtracts_a_two_burst_debt_from_the_charge() {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.dram.burst_words = 16;
        let mut m = Machine::new(cfg.clone()).unwrap();
        let dst = m.alloc_stream(1, 1600);
        let mut p = StreamProgram::new();
        p.load(AddrPattern::contiguous(0, 1600), dst, false, &[]);
        let model = cost_model(&cfg, &p);
        assert_eq!(
            model.mem_floor,
            (1600 - 2 * 16) * 1000 / dram_rate_milli(&cfg)
        );
        assert_eq!((model.mem_floor, model.cycle_floor), (686, 686));
    }

    /// Costing once per shape says, at every invocation, what costing that
    /// invocation says: ragged strips of three kernels, one of them reading
    /// a table, make six shapes over sixty invocations.
    #[test]
    fn per_shape_costs_are_each_invocations_own() {
        let g = Spec {
            kernels: 3,
            lookup: true,
            ragged: true,
            ..Spec::bfs_shaped(ConfigName::Isrf4, 20)
        }
        .generate();
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
