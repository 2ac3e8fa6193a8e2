//! SIMD kernel execution: functional + timing.
//!
//! A [`KernelRun`] executes one kernel invocation: all clusters run the
//! modulo-scheduled loop in lock-step under a single sequencer (as in
//! Imagine), with `ceil(span/II)` iterations in flight. Each machine cycle
//! the run:
//!
//! 1. lands arrived indexed data into stream buffers,
//! 2. performs stage-1 SRF port arbitration (one sequential stream *or*
//!    all indexed streams, round-robin among requesters; memory transfers
//!    pre-empt),
//! 3. attempts to fire every op scheduled at the current kernel cycle for
//!    every in-flight iteration. If *any* lane of *any* op cannot proceed —
//!    stream buffer empty/full, address FIFO full, indexed data not yet
//!    returned, conditional-stream coordination — the whole machine stalls
//!    for the cycle (`SRF stall`), and the port keeps servicing buffers in
//!    the background.
//!
//! After the last iteration fires, output buffers and indexed write FIFOs
//! drain ("flush"), which the machine accounts as kernel overhead along
//! with software-pipeline fill/drain.

use std::sync::Arc;

use isrf_core::config::{MachineConfig, SEQ_ACCESS_WORDS};
use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::stats::SrfTraffic;
use isrf_core::{word, Word};
use isrf_kernel::ir::{Kernel, Opcode, StreamKind};
use isrf_kernel::sched::Schedule;

use isrf_trace::{StallReason, TraceEvent, Tracer};

use crate::indexed::{service_indexed, IdxKind, IdxParams, IdxState};
use crate::srf::Srf;
use crate::stream::{Port, StreamBinding};
use crate::tape::{iteration, CompiledTape, Frame, MicroKind, MicroOp, Ring, CHUNK};

/// Consecutive stalled cycles after which a kernel is reported deadlocked
/// ([`KernelRun::wedged`]). While a kernel stalls it pops and pushes
/// nothing, so every buffer fills and every FIFO drains within a few
/// hundred cycles; a stall this long never ends.
pub(crate) const STALL_LIMIT: u64 = 1_000_000;

/// The kernel execution engine. There is one — every [`KernelRun`]
/// executes a pre-compiled flat micro-op program
/// ([`crate::tape::CompiledTape`]) — and this type selects nothing: it
/// survives only as the value of `isrf_serve::spec::PointSpec::engine`,
/// which the frozen `benchmark/` package writes, and goes when that field
/// does, with the change that next opens `benchmark/` to edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEngine {
    /// Compiled flat-tape execution.
    Tape,
}

/// Per-slot runtime state.
#[derive(Debug)]
enum SlotState {
    /// A sequential or conditional stream.
    Stream(Port),
    /// An indexed stream; the tape names its `KernelRun::idx_states`
    /// entry.
    Idx,
}

impl SlotState {
    /// The byte a snapshot marks this kind of slot with.
    fn tag(&self) -> u8 {
        match self {
            SlotState::Stream(p) => match p.kind() {
                StreamKind::SeqIn => 0,
                StreamKind::SeqOut => 1,
                StreamKind::CondIn => 2,
                StreamKind::CondLaneIn => 3,
                StreamKind::CondOut => 4,
                kind => unreachable!("{kind:?} streams have no port"),
            },
            SlotState::Idx => 5,
        }
    }

    /// The port of a stream slot; the tape's ops were validated against its
    /// kind.
    fn port(&self) -> &Port {
        match self {
            SlotState::Stream(p) => p,
            SlotState::Idx => unreachable!("stream kind validated at kernel build"),
        }
    }

    /// [`SlotState::port`], to move words.
    fn port_mut(&mut self) -> &mut Port {
        match self {
            SlotState::Stream(p) => p,
            SlotState::Idx => unreachable!("stream kind validated at kernel build"),
        }
    }
}

/// What a [`KernelRun::tick`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The kernel advanced one cycle of its schedule.
    Advanced,
    /// The kernel stalled on an SRF condition.
    Stalled,
    /// All iterations fired; output buffers are draining.
    Flushing,
    /// Everything (including drains) is complete.
    Done,
}

/// One kernel invocation in progress.
#[derive(Debug)]
pub struct KernelRun {
    /// The schedule's initiation interval.
    ii: u64,
    iters: u64,
    lanes: usize,
    seq_latency: u64,
    slots: Vec<SlotState>,
    idx_states: Vec<IdxState>,
    idx_params: Option<IdxParams>,
    /// Kernel-local cycle (advances only on non-stall cycles).
    t: u64,
    /// `t mod ii` and `t / ii` (the youngest iteration that may be in
    /// flight), advanced with `t`: the sequencer indexes the tape's phase
    /// lists by them and never divides.
    phase: usize,
    base: u64,
    /// Kernel cycle by which the last iteration's results are produced.
    exec_end: u64,
    /// `len - 1` when the length `Machine::new` gives every scratchpad is a
    /// power of two: addresses wrap by mask, not by division.
    scratch_mask: Option<usize>,
    comm_busy_prev: bool,
    /// While stalled: the position in the tape's check list that blocked
    /// last cycle, where the next cycle's stall scan resumes. Host-only
    /// (never serialized): a full scan names the same blocker.
    stall_at: Option<u32>,
    /// Compiled micro-op program.
    tape: Arc<CompiledTape>,
    /// Flat context ring: `depth` rows of `n_ctx x lanes` words, indexed
    /// by iteration modulo `depth`, and the rows the run appends past it.
    ring: Ring,
    /// First iteration whose ring row has not been zeroed yet.
    ring_next_zero: u64,
    rr_grant: usize,
    rr_idx: usize,
    /// Cycles in which the schedule advanced.
    pub advance_cycles: u64,
    /// Cycles stalled on SRF conditions.
    pub stall_cycles: u64,
    /// Consecutive stall cycles (deadlock watchdog).
    consecutive_stalls: u64,
    /// Cycles spent draining outputs after the last fire.
    pub flush_cycles: u64,
    /// Micro-ops fired: the `ops` of `Machine::work` (debug builds only;
    /// never serialized).
    #[cfg(debug_assertions)]
    pub(crate) ops: u64,
}

impl KernelRun {
    /// Bind `kernel` (already scheduled, and compiled to `tape`) to machine
    /// streams and prepare to execute `iters` iterations per cluster.
    ///
    /// # Panics
    ///
    /// Panics if `bindings.len()` differs from the kernel's stream count,
    /// if an indexed stream is used on a machine without indexed-SRF
    /// support, or if an indexed *write* binding has multi-word records
    /// (write addresses are word-granular).
    pub fn new(
        cfg: &MachineConfig,
        kernel: &Kernel,
        sched: &Schedule,
        tape: Arc<CompiledTape>,
        bindings: &[StreamBinding],
        iters: u64,
    ) -> Self {
        assert_eq!(
            bindings.len(),
            kernel.streams.len(),
            "kernel `{}` declares {} streams, got {} bindings",
            kernel.name,
            kernel.streams.len(),
            bindings.len()
        );
        let lanes = cfg.lanes;
        let cap = cfg.srf.stream_buffer_words;
        let mut slots = Vec::new();
        let mut idx_states = Vec::new();
        for (decl, b) in kernel.streams.iter().zip(bindings) {
            let state = match decl.kind {
                StreamKind::IdxInRead | StreamKind::IdxInWrite | StreamKind::IdxCrossRead => {
                    let kind = match decl.kind {
                        StreamKind::IdxInRead => IdxKind::InLaneRead,
                        StreamKind::IdxInWrite => IdxKind::InLaneWrite,
                        _ => IdxKind::CrossLaneRead,
                    };
                    idx_states.push(IdxState::new(*b, kind, lanes, cfg));
                    SlotState::Idx
                }
                kind => SlotState::Stream(Port::new(kind, *b, lanes, cap)),
            };
            slots.push(state);
        }
        let scratch_words = cfg.scratchpad_words.max(1);
        KernelRun {
            ii: u64::from(sched.ii),
            iters,
            lanes,
            seq_latency: cfg.srf.seq_latency as u64,
            slots,
            idx_states,
            idx_params: cfg
                .srf
                .indexed
                .as_ref()
                .map(|_| IdxParams::from_machine(cfg)),
            t: 0,
            phase: 0,
            base: 0,
            exec_end: match iters {
                0 => 0,
                _ => (iters - 1) * u64::from(sched.ii) + u64::from(sched.completion),
            },
            scratch_mask: scratch_words.is_power_of_two().then_some(scratch_words - 1),
            comm_busy_prev: false,
            stall_at: None,
            // Rows for iterations `0..depth` start zeroed.
            ring: Ring::new(&tape, kernel, lanes),
            ring_next_zero: tape.depth as u64,
            tape,
            rr_grant: 0,
            rr_idx: 0,
            advance_cycles: 0,
            stall_cycles: 0,
            consecutive_stalls: 0,
            flush_cycles: 0,
            #[cfg(debug_assertions)]
            ops: 0,
        }
    }

    /// Serialize the dynamic state of an in-flight invocation: counters,
    /// each slot's kind tag and stream state (an indexed slot's is in the
    /// indexed-stream list that follows), and the indexed streams (the
    /// iteration contexts are [`KernelRun::encode_ctx`]'s). Static
    /// structure (kernel, schedule, bindings, slot layout) is reconstructed
    /// from the program on restore.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        e.u64(self.t);
        e.u64(self.advance_cycles);
        e.u64(self.stall_cycles);
        e.u64(self.consecutive_stalls);
        e.u64(self.flush_cycles);
        e.usize(self.rr_grant);
        e.usize(self.rr_idx);
        e.bool(self.comm_busy_prev);
        e.usize(self.slots.len());
        for slot in &self.slots {
            e.u8(slot.tag());
            if let SlotState::Stream(p) = slot {
                p.encode_state(e);
            }
        }
        e.usize(self.idx_states.len());
        for s in &self.idx_states {
            s.encode_state(e);
        }
    }

    /// Serialize the in-flight iteration contexts: the context ring, then
    /// the first iteration whose row is not zeroed yet.
    pub(crate) fn encode_ctx(&self, e: &mut Enc) {
        e.words(&self.ring.words[..self.tape.ring_words()]);
        e.u64(self.ring_next_zero);
    }

    /// Overwrite the dynamic state of a freshly constructed run from
    /// [`KernelRun::encode_state`] bytes. The run must already have been
    /// built from the same kernel/schedule/bindings.
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        self.t = d.u64()?;
        (self.phase, self.base) = ((self.t % self.ii) as usize, self.t / self.ii);
        self.advance_cycles = d.u64()?;
        self.stall_cycles = d.u64()?;
        self.consecutive_stalls = d.u64()?;
        self.flush_cycles = d.u64()?;
        self.rr_grant = d.usize()?;
        self.rr_idx = d.usize()?;
        self.comm_busy_prev = d.bool()?;
        self.stall_at = None;
        let n_slots = d.usize()?;
        if n_slots != self.slots.len() {
            return Err(SnapError::Mismatch(format!(
                "kernel slot count {n_slots} != {}",
                self.slots.len()
            )));
        }
        for slot in &mut self.slots {
            let tag = d.u8()?;
            if tag != slot.tag() {
                return Err(SnapError::Mismatch(format!(
                    "slot kind tag {tag} does not match the program's stream declaration"
                )));
            }
            if let SlotState::Stream(p) = slot {
                p.decode_state(d)?;
            }
        }
        let n_idx = d.usize()?;
        if n_idx != self.idx_states.len() {
            return Err(SnapError::Mismatch(format!(
                "indexed stream count {n_idx} != {}",
                self.idx_states.len()
            )));
        }
        for s in &mut self.idx_states {
            s.decode_state(d)?;
        }
        Ok(())
    }

    /// Restore the iteration contexts written by [`KernelRun::encode_ctx`].
    pub(crate) fn decode_ctx(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let ring = d.words()?;
        let ctx = &mut self.ring.words[..self.tape.ring_words()];
        if ring.len() != ctx.len() {
            return Err(SnapError::Mismatch(format!(
                "tape ring length {} != {}",
                ring.len(),
                ctx.len()
            )));
        }
        ctx.copy_from_slice(&ring);
        self.ring_next_zero = d.u64()?;
        self.ring.restore_ids(self.ring_next_zero);
        Ok(())
    }

    /// Steady-state loop-body cycles (`iters × II`).
    pub fn body_cycles(&self) -> u64 {
        self.iters * self.ii
    }

    /// All iterations fired and results produced?
    pub fn exec_done(&self) -> bool {
        self.t >= self.exec_end
    }

    /// Fully complete, including output drains?
    pub fn is_done(&self) -> bool {
        self.exec_done()
            && self.idx_states.iter().all(|s| s.drained())
            && self.slots.iter().all(|s| match s {
                SlotState::Stream(p) => p.drained(),
                SlotState::Idx => true,
            })
    }

    /// Advance one machine cycle at time `now`. `scratch` is the machine's
    /// persistent per-lane scratchpad storage.
    pub fn tick(
        &mut self,
        now: u64,
        srf: &mut Srf,
        scratch: &mut [Vec<Word>],
        mem_claims_port: bool,
        traffic: &mut SrfTraffic,
        tracer: &mut Tracer,
    ) -> Phase {
        // Cross-lane returns share the inter-cluster network: explicit
        // communications (last cycle's) have priority and leave fewer
        // return slots.
        let mut return_budget = if self.comm_busy_prev {
            self.lanes.saturating_sub(2)
        } else {
            self.lanes
        };
        for s in &mut self.idx_states {
            if s.kind == IdxKind::CrossLaneRead {
                s.tick_arrivals_budgeted(now, &mut return_budget);
            } else {
                s.tick_arrivals(now);
            }
        }
        if !mem_claims_port {
            self.arbitration(now, srf, traffic, tracer);
        }
        if self.exec_done() {
            if self.is_done() {
                return Phase::Done;
            }
            self.flush_cycles += 1;
            return Phase::Flushing;
        }
        if self.fire_cycle_tape(now, scratch, tracer) {
            self.advance_cycles += 1;
            self.consecutive_stalls = 0;
            Phase::Advanced
        } else {
            self.stall_cycles += 1;
            self.consecutive_stalls += 1;
            Phase::Stalled
        }
    }

    /// Stage-1 arbitration: one sequential/conditional stream or all
    /// indexed streams get the port this cycle, round-robin from the slot
    /// after the last winner (the indexed group is the slot past the last).
    fn arbitration(
        &mut self,
        now: u64,
        srf: &mut Srf,
        traffic: &mut SrfTraffic,
        tracer: &mut Tracer,
    ) {
        let flush = self.exec_done();
        let idx_group = self.slots.len();
        let wants = |i: usize| match self.slots.get(i) {
            Some(SlotState::Stream(p)) => p.wants_grant(SEQ_ACCESS_WORDS, flush),
            Some(SlotState::Idx) => false,
            None => self.idx_states.iter().any(|s| s.pending_addresses()),
        };
        let from = self.rr_grant.min(idx_group + 1);
        let Some(winner) = (from..=idx_group).chain(0..from).find(|&i| wants(i)) else {
            return;
        };
        self.rr_grant = (winner + 1) % (idx_group + 1);
        if winner == idx_group {
            if tracer.enabled() {
                tracer.emit(now, TraceEvent::IdxGroupGrant);
            }
            let p = self.idx_params.expect("indexed streams imply indexed SRF");
            service_indexed(
                &mut self.idx_states,
                srf,
                now,
                &p,
                &mut self.rr_idx,
                traffic,
                tracer,
            );
        } else {
            let SlotState::Stream(p) = &mut self.slots[winner] else {
                unreachable!("idx slots never request individually")
            };
            let moved = p.grant(srf, SEQ_ACCESS_WORDS, flush, now + self.seq_latency);
            traffic.seq_words += moved;
            if tracer.enabled() {
                tracer.emit(
                    now,
                    TraceEvent::SeqGrant {
                        slot: winner as u8,
                        words: moved as u16,
                    },
                );
            }
        }
    }

    /// `Some` once the kernel has stalled [`STALL_LIMIT`] cycles in a row:
    /// that count, and the stream slot and reason blocking it at `now`, the
    /// cycle of its last [`KernelRun::tick`]. Derived from serialized state
    /// only, so a restored run reports what the run it was saved from did.
    #[inline]
    pub(crate) fn wedged(&mut self, now: u64) -> Option<(u64, u8, StallReason)> {
        if self.consecutive_stalls < STALL_LIMIT {
            return None;
        }
        let (slot, reason) = self.blocked(now)?;
        Some((self.consecutive_stalls, slot, reason))
    }

    /// The first op of this kernel cycle that cannot fire, as its stream
    /// slot and why not; `None` when every one can.
    ///
    /// Stall check in firing order: iterations ascending, op order within
    /// each group. Only the precomputed checkable subset is visited — pure
    /// arithmetic never blocks. While the kernel stalls it pops and pushes
    /// nothing, so buffers only fill, FIFOs only drain and time only passes:
    /// a check that passed stays passed, and the scan resumes at the check
    /// that blocked last cycle.
    #[inline]
    fn blocked(&mut self, now: u64) -> Option<(u8, StallReason)> {
        let tape = &*self.tape;
        let checks = tape.phases[self.phase].checks;
        let from = self.stall_at.take().unwrap_or(checks.0);
        for ci in from..checks.1 {
            let check = tape.checks[ci as usize];
            let Some(j) = iteration(self.base, check.stage, self.iters) else {
                continue;
            };
            let mop = &tape.ops[check.op as usize];
            // Only the conditional streams read a condition row.
            let cond = match mop.kind {
                MicroKind::CondLaneRead { .. }
                | MicroKind::CondRead { .. }
                | MicroKind::CondWrite { .. } => {
                    let mut frame = self.ring.frame(tape, j);
                    let [a, ..] = frame.operands(check.op, mop);
                    let words: &[Word] = frame.words;
                    Some(&words[a..a + self.lanes])
                }
                _ => None,
            };
            let blocked = blocker(mop, cond, now, &self.slots, &self.idx_states);
            if blocked.is_some() {
                self.stall_at = Some(ci);
                return blocked;
            }
        }
        None
    }

    /// Fire every micro-op scheduled for this kernel cycle, for every
    /// in-flight iteration, and advance the kernel cycle; returns false (and
    /// changes nothing) when any of them cannot proceed.
    fn fire_cycle_tape(
        &mut self,
        now: u64,
        scratch: &mut [Vec<Word>],
        tracer: &mut Tracer,
    ) -> bool {
        // Activate newly-active iterations. The ring is deep enough
        // (`stages + max_dist + 1` rounded up) that a reused row is fully
        // dead by the time it comes around again.
        while self.ring_next_zero <= self.base.min(self.iters - 1) {
            self.ring.activate(self.ring_next_zero);
            self.ring_next_zero += 1;
        }
        if let Some((slot, reason)) = self.blocked(now) {
            if tracer.enabled() {
                tracer.emit(now, TraceEvent::KernelStall { slot, reason });
            }
            return false;
        }
        let tape = &*self.tape;
        let phase = tape.phases[self.phase];
        let mut comm_busy = false;
        for g in &tape.groups[phase.groups.0 as usize..phase.groups.1 as usize] {
            let Some(j) = iteration(self.base, g.stage, self.iters) else {
                continue;
            };
            comm_busy |= g.comm_busy;
            #[cfg(debug_assertions)]
            {
                self.ops += u64::from(g.ops.1 - g.ops.0);
            }
            let mut frame = self.ring.frame(tape, j);
            for (mop, op) in tape.ops[g.ops.0 as usize..g.ops.1 as usize]
                .iter()
                .zip(g.ops.0..)
            {
                exec_tape_op(
                    op,
                    mop,
                    &mut frame,
                    self.lanes,
                    &mut self.slots,
                    &mut self.idx_states,
                    scratch,
                    self.scratch_mask,
                );
            }
        }
        self.comm_busy_prev = comm_busy;
        self.t += 1;
        self.phase += 1;
        if self.phase == tape.phases.len() {
            self.phase = 0;
            self.base += 1;
        }
        true
    }
}

/// Can this checkable micro-op fire? `None` means it can; otherwise the
/// stream slot and why not. `cond` is the per-lane condition row of a
/// conditional stream op. The distinction between a
/// *starved* sequential input (its stream buffer is empty) and one merely
/// waiting out SRF access *latency* (words granted but not yet arrived) is
/// what stall attribution reports downstream.
///
/// The deadlock report is a second, cold caller of the scan; the hint keeps
/// this inlined in the per-cycle one (a call per check was 2% of `sim_seq`).
#[inline]
fn blocker(
    mop: &MicroOp,
    cond: Option<&[Word]>,
    now: u64,
    slots: &[SlotState],
    idx_states: &[IdxState],
) -> Option<(u8, StallReason)> {
    let blocked = |slot: u8| slots[slot as usize].port().blocked_lane(cond, now);
    match mop.kind {
        MicroKind::SeqRead { slot } | MicroKind::CondLaneRead { slot } => {
            // The two differ in their condition (none: every lane pops)
            // and network cost only.
            let lane = blocked(slot)?;
            let reason = if slots[slot as usize].port().buffered_words(lane) == 0 {
                StallReason::SeqInStarved
            } else {
                StallReason::SeqInLatency
            };
            Some((slot, reason))
        }
        MicroKind::SeqWrite { slot } => blocked(slot).map(|_| (slot, StallReason::SeqOutFull)),
        MicroKind::CondRead { slot } => blocked(slot).map(|_| (slot, StallReason::CondInStarved)),
        MicroKind::CondWrite { slot } => blocked(slot).map(|_| (slot, StallReason::CondOutFull)),
        MicroKind::IdxAddr { slot, idx } | MicroKind::IdxWrite { slot, idx } => {
            (idx_states[idx as usize].any_addr_full()).then_some((slot, StallReason::AddrFifoFull))
        }
        MicroKind::IdxRead { slot, idx } => (!idx_states[idx as usize].all_data_ready())
            .then_some((slot, StallReason::IdxDataNotReady)),
        _ => None,
    }
}

/// Execute `mop`, the tape's op number `op`, all lanes, for the iteration
/// `frame` points at: its operands are rows of the ring, read where they
/// sit, and its result row goes straight into the ring (or, when no live op
/// reads it, into the sink row).
#[allow(clippy::too_many_arguments)]
#[inline]
fn exec_tape_op(
    op: u32,
    mop: &MicroOp,
    frame: &mut Frame,
    lanes: usize,
    slots: &mut [SlotState],
    idx_states: &mut [IdxState],
    scratch: &mut [Vec<Word>],
    scratch_mask: Option<usize>,
) {
    let [a, b, c] = frame.operands(op, mop);
    let dst = frame.dst(mop.dst);
    let w = &mut *frame.words;
    if let MicroKind::Alu(opc) = mop.kind {
        return exec_alu_rows(opc, w, [a, b, c], dst, lanes.div_ceil(CHUNK));
    }
    let row = |at: usize| at..at + lanes;
    // A scratchpad address wraps at the pad's length.
    let wrap = |addr: Word, len: usize| match scratch_mask {
        Some(mask) => addr as usize & mask,
        None => addr as usize % len,
    };
    match mop.kind {
        MicroKind::Alu(_) => unreachable!("handled above"),
        MicroKind::SeqRead { slot } => {
            slots[slot as usize]
                .port_mut()
                .pop_row(None, &mut w[row(dst)]);
        }
        MicroKind::CondLaneRead { slot } | MicroKind::CondRead { slot } => {
            let (cond, out) = beside(w, a, dst, lanes);
            slots[slot as usize].port_mut().pop_row(Some(cond), out);
        }
        MicroKind::SeqWrite { slot } => {
            slots[slot as usize].port_mut().push_row(None, &w[row(a)]);
            w.copy_within(row(a), dst);
        }
        MicroKind::CondWrite { slot } => {
            let (cond, row) = (&w[row(a)], &w[row(b)]);
            slots[slot as usize].port_mut().push_row(Some(cond), row);
            // The op's value is all-zero; the row was zeroed at
            // activation and this is its slot's only writer (SSA), so
            // no commit is needed.
        }
        MicroKind::IdxAddr { idx, .. } => {
            idx_states[idx as usize].push_row(&w[row(a)], &[]);
            w.copy_within(row(a), dst);
        }
        MicroKind::IdxRead { idx, .. } => {
            // A dead destination still pops: the data was addressed.
            idx_states[idx as usize].pop_row(&mut w[row(dst)]);
        }
        MicroKind::IdxWrite { idx, .. } => {
            idx_states[idx as usize].push_row(&w[row(a)], &w[row(b)]);
            w.copy_within(row(b), dst);
        }
        MicroKind::ScratchRead => {
            let (addrs, out) = beside(w, a, dst, lanes);
            for ((o, pad), &addr) in out.iter_mut().zip(scratch).zip(addrs) {
                *o = pad[wrap(addr, pad.len())];
            }
        }
        MicroKind::ScratchWrite => {
            for ((pad, &addr), &v) in scratch.iter_mut().zip(&w[row(a)]).zip(&w[row(b)]) {
                let at = wrap(addr, pad.len());
                pad[at] = v;
            }
            w.copy_within(row(b), dst);
        }
        MicroKind::Comm { rotate } => {
            // Lane `l` receives lane `(l + rotate) mod lanes`.
            let (src, out) = beside(w, a, dst, lanes);
            let (head, tail) = src.split_at((rotate as i64).rem_euclid(lanes as i64) as usize);
            out[..tail.len()].copy_from_slice(tail);
            out[tail.len()..].copy_from_slice(head);
        }
        MicroKind::CommXor { mask } => {
            let (src, out) = beside(w, a, dst, lanes);
            for (lane, o) in out.iter_mut().enumerate() {
                *o = src[(lane ^ mask as usize) % lanes];
            }
        }
    }
}

/// The `lanes`-long rows at `src` and `dst` of `w`, read and written side by
/// side: an operand is never its own op's result row, and rows never
/// overlap.
fn beside(w: &mut [Word], src: usize, dst: usize, lanes: usize) -> (&[Word], &mut [Word]) {
    if src < dst {
        let (lo, hi) = w.split_at_mut(dst);
        (&lo[src..src + lanes], &mut hi[..lanes])
    } else {
        let (lo, hi) = w.split_at_mut(src);
        (&hi[..lanes], &mut lo[dst..dst + lanes])
    }
}

/// Execute a pure ALU op across all lanes, a chunk of lanes at a time:
/// one opcode match, then per chunk the operands it reads as
/// `[Word; CHUNK]` arrays and a fixed-width loop over them that the
/// compiler can vectorise — no per-lane dispatch, no per-lane bounds
/// check. `at` are the operand rows' offsets in `ring`. Wrapping `i32`
/// arithmetic, zero divisor yields 0, shift counts masked to 5 bits, `f32`
/// round-trips through the word encoding.
fn exec_alu_rows(opc: Opcode, ring: &mut [Word], at: [usize; 3], dst: usize, chunks: usize) {
    use Opcode::*;
    // Chunk `c` of operand `k`.
    let chunk = |ring: &[Word], k: usize, c: usize| -> [Word; CHUNK] {
        let from = at[k] + c * CHUNK;
        ring[from..from + CHUNK]
            .try_into()
            .expect("a chunk-long slice")
    };
    macro_rules! rows {
        (|$a:ident| $e:expr) => {
            rows!($e; $a 0)
        };
        (|$a:ident, $b:ident| $e:expr) => {
            rows!($e; $a 0, $b 1)
        };
        (|$a:ident, $b:ident, $c:ident| $e:expr) => {
            rows!($e; $a 0, $b 1, $c 2)
        };
        ($e:expr; $($x:ident $k:literal),+) => {
            for c in 0..chunks {
                $(let $x = chunk(ring, $k, c);)+
                let mut out = [0; CHUNK];
                for i in 0..CHUNK {
                    $(let $x = $x[i];)+
                    out[i] = $e;
                }
                let to = dst + c * CHUNK;
                ring[to..to + CHUNK].copy_from_slice(&out);
            }
        };
    }
    macro_rules! ibin {
        (|$a:ident, $b:ident| $e:expr) => {
            rows!(|wa, wb| {
                let $a = word::as_i32(wa);
                let $b = word::as_i32(wb);
                $e
            })
        };
    }
    macro_rules! fbin {
        (|$a:ident, $b:ident| $e:expr) => {
            rows!(|wa, wb| {
                let $a = word::as_f32(wa);
                let $b = word::as_f32(wb);
                $e
            })
        };
    }
    match opc {
        Mov => rows!(|a| a),
        Not => rows!(|a| !a),
        Neg => rows!(|a| word::from_i32(word::as_i32(a).wrapping_neg())),
        FNeg => rows!(|a| word::from_f32(-word::as_f32(a))),
        IToF => rows!(|a| word::from_f32(word::as_i32(a) as f32)),
        FToI => rows!(|a| word::from_i32(word::as_f32(a) as i32)),
        Add => ibin!(|a, b| word::from_i32(a.wrapping_add(b))),
        Sub => ibin!(|a, b| word::from_i32(a.wrapping_sub(b))),
        Mul => ibin!(|a, b| word::from_i32(a.wrapping_mul(b))),
        Div => ibin!(|a, b| word::from_i32(if b == 0 { 0 } else { a.wrapping_div(b) })),
        Rem => ibin!(|a, b| word::from_i32(if b == 0 { 0 } else { a.wrapping_rem(b) })),
        And => rows!(|a, b| a & b),
        Or => rows!(|a, b| a | b),
        Xor => rows!(|a, b| a ^ b),
        Shl => rows!(|a, b| a.wrapping_shl(b & 31)),
        Shr => rows!(|a, b| a.wrapping_shr(b & 31)),
        Sra => rows!(|a, b| word::from_i32(word::as_i32(a).wrapping_shr(b & 31))),
        Lt => ibin!(|a, b| word::from_bool(a < b)),
        Le => ibin!(|a, b| word::from_bool(a <= b)),
        Eq => rows!(|a, b| word::from_bool(a == b)),
        Ne => rows!(|a, b| word::from_bool(a != b)),
        ULt => rows!(|a, b| word::from_bool(a < b)),
        Min => ibin!(|a, b| word::from_i32(a.min(b))),
        Max => ibin!(|a, b| word::from_i32(a.max(b))),
        FAdd => fbin!(|a, b| word::from_f32(a + b)),
        FSub => fbin!(|a, b| word::from_f32(a - b)),
        FMul => fbin!(|a, b| word::from_f32(a * b)),
        FDiv => fbin!(|a, b| word::from_f32(a / b)),
        FLt => fbin!(|a, b| word::from_bool(a < b)),
        FLe => fbin!(|a, b| word::from_bool(a <= b)),
        FEq => fbin!(|a, b| word::from_bool(a == b)),
        FMin => fbin!(|a, b| word::from_f32(a.min(b))),
        FMax => fbin!(|a, b| word::from_f32(a.max(b))),
        Select => rows!(|a, b, c| if word::as_bool(a) { b } else { c }),
        _ => unreachable!("non-ALU opcode {opc:?} compiled to MicroKind::Alu"),
    }
}
