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

use isrf_core::config::MachineConfig;
use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::stats::SrfTraffic;
use isrf_core::{word, Word};
use isrf_kernel::ir::{Kernel, Opcode, StreamKind};
use isrf_kernel::sched::Schedule;

use isrf_trace::{StallReason, TraceEvent, Tracer};

use crate::indexed::{service_indexed, IdxKind, IdxParams, IdxState};
use crate::srf::Srf;
use crate::stream::{CondInState, CondOutState, SeqInState, SeqOutState, StreamBinding};
use crate::tape::{cached_tape, rv, src_word, CompiledTape, MicroKind, MicroOp, RSrc, NO_DST};

/// The kernel execution engine. There is one — every [`KernelRun`]
/// executes a pre-compiled flat micro-op program
/// ([`crate::tape::CompiledTape`]) — and this type selects nothing: it
/// survives only as the value of `isrf_serve::spec::PointSpec::engine`,
/// which the frozen `benchmark/` package writes, and goes when that field
/// does (ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEngine {
    /// Compiled flat-tape execution.
    Tape,
}

/// Per-slot runtime state.
#[derive(Debug)]
enum SlotState {
    SeqIn(SeqInState),
    SeqOut(SeqOutState),
    CondIn(CondInState),
    /// Per-lane conditional substreams share the sequential-input state;
    /// only the pop condition and the network cost differ.
    CondLaneIn(SeqInState),
    CondOut(CondOutState),
    /// Index into `KernelRun::idx_states`.
    Idx(usize),
}

/// Reusable buffers for the kernel hot loop, owned by the machine and
/// threaded through [`KernelRun::tick`] so back-to-back kernel
/// invocations (and every cycle within one) recycle their allocations
/// instead of growing fresh `Vec`s.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Stage-1 arbitration requester list.
    requesters: Vec<usize>,
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
    kernel: Arc<Kernel>,
    sched: Arc<Schedule>,
    iters: u64,
    lanes: usize,
    m_words: usize,
    seq_latency: u64,
    slots: Vec<SlotState>,
    idx_states: Vec<IdxState>,
    idx_params: Option<IdxParams>,
    /// Kernel-local cycle (advances only on non-stall cycles).
    t: u64,
    comm_busy_prev: bool,
    /// Per-lane staging for conditional-stream distribution within a cycle.
    cond_scratch: Vec<Word>,
    /// Compiled micro-op program (compiled lazily on first tick unless
    /// pre-set by the machine's per-dispatch memo).
    tape: Option<Arc<CompiledTape>>,
    /// Flat context ring: `depth` rows of `n_ctx x lanes` words, indexed
    /// by iteration modulo `depth`.
    ring: Vec<Word>,
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
}

impl KernelRun {
    /// Bind `kernel` (already scheduled) to machine streams and prepare to
    /// execute `iters` iterations per cluster.
    ///
    /// # Panics
    ///
    /// Panics if `bindings.len()` differs from the kernel's stream count,
    /// if an indexed stream is used on a machine without indexed-SRF
    /// support, or if an indexed *write* binding has multi-word records
    /// (write addresses are word-granular).
    pub fn new(
        cfg: &MachineConfig,
        kernel: Arc<Kernel>,
        sched: Arc<Schedule>,
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
                StreamKind::SeqIn => SlotState::SeqIn(SeqInState::new(*b, lanes, cap)),
                StreamKind::SeqOut => SlotState::SeqOut(SeqOutState::new(*b, lanes, cap)),
                StreamKind::CondIn => SlotState::CondIn(CondInState::new(*b, lanes, cap)),
                StreamKind::CondLaneIn => SlotState::CondLaneIn(SeqInState::new(*b, lanes, cap)),
                StreamKind::CondOut => SlotState::CondOut(CondOutState::new(*b, lanes, cap)),
                StreamKind::IdxInRead | StreamKind::IdxInWrite | StreamKind::IdxCrossRead => {
                    let kind = match decl.kind {
                        StreamKind::IdxInRead => IdxKind::InLaneRead,
                        StreamKind::IdxInWrite => IdxKind::InLaneWrite,
                        _ => IdxKind::CrossLaneRead,
                    };
                    idx_states.push(IdxState::new(*b, kind, lanes, cfg));
                    SlotState::Idx(idx_states.len() - 1)
                }
            };
            slots.push(state);
        }
        KernelRun {
            iters,
            lanes,
            m_words: cfg.srf.words_per_seq_access,
            seq_latency: cfg.srf.seq_latency as u64,
            slots,
            idx_states,
            idx_params: cfg
                .srf
                .indexed
                .as_ref()
                .map(|_| IdxParams::from_machine(cfg)),
            t: 0,
            comm_busy_prev: false,
            cond_scratch: vec![0; lanes],
            tape: None,
            ring: Vec::new(),
            ring_next_zero: 0,
            rr_grant: 0,
            rr_idx: 0,
            advance_cycles: 0,
            stall_cycles: 0,
            consecutive_stalls: 0,
            flush_cycles: 0,
            kernel,
            sched,
        }
    }

    /// The schedule this run executes.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Install a pre-compiled tape (skipping the lazy per-tick lookup) and
    /// size the context ring for it.
    pub(crate) fn set_tape(&mut self, tape: Arc<CompiledTape>) {
        self.ring.clear();
        self.ring.resize(tape.ring_words(), 0);
        // Rows for iterations `0..depth` start zeroed by the resize.
        self.ring_next_zero = tape.depth as u64;
        self.tape = Some(tape);
    }

    /// Iterations per cluster.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Serialize the dynamic state of an in-flight invocation: counters,
    /// per-slot stream states and indexed streams (the iteration contexts
    /// are [`KernelRun::encode_ctx`]'s). Static structure (kernel, schedule,
    /// bindings, slot layout) is reconstructed from the program on restore.
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
            match slot {
                SlotState::SeqIn(s) => {
                    e.u8(0);
                    s.encode_state(e);
                }
                SlotState::SeqOut(s) => {
                    e.u8(1);
                    s.encode_state(e);
                }
                SlotState::CondIn(s) => {
                    e.u8(2);
                    s.encode_state(e);
                }
                SlotState::CondLaneIn(s) => {
                    e.u8(3);
                    s.encode_state(e);
                }
                SlotState::CondOut(s) => {
                    e.u8(4);
                    s.encode_state(e);
                }
                SlotState::Idx(i) => {
                    e.u8(5);
                    e.usize(*i);
                }
            }
        }
        e.usize(self.idx_states.len());
        for s in &self.idx_states {
            s.encode_state(e);
        }
    }

    /// Serialize the in-flight iteration contexts: the representation tag
    /// (0, the context ring — the only one), then the ring.
    pub(crate) fn encode_ctx(&self, e: &mut Enc) {
        e.u8(0);
        e.usize(self.ring.len());
        for &w in &self.ring {
            e.u32(w);
        }
        e.u64(self.ring_next_zero);
    }

    /// Overwrite the dynamic state of a freshly constructed run from
    /// [`KernelRun::encode_state`] bytes. The run must already have been
    /// built from the same kernel/schedule/bindings and given its tape
    /// ([`KernelRun::set_tape`]).
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        self.t = d.u64()?;
        self.advance_cycles = d.u64()?;
        self.stall_cycles = d.u64()?;
        self.consecutive_stalls = d.u64()?;
        self.flush_cycles = d.u64()?;
        self.rr_grant = d.usize()?;
        self.rr_idx = d.usize()?;
        self.comm_busy_prev = d.bool()?;
        let n_slots = d.usize()?;
        if n_slots != self.slots.len() {
            return Err(SnapError::Mismatch(format!(
                "kernel slot count {n_slots} != {}",
                self.slots.len()
            )));
        }
        for slot in &mut self.slots {
            let tag = d.u8()?;
            match (tag, slot) {
                (0, SlotState::SeqIn(s)) => s.decode_state(d)?,
                (1, SlotState::SeqOut(s)) => s.decode_state(d)?,
                (2, SlotState::CondIn(s)) => s.decode_state(d)?,
                (3, SlotState::CondLaneIn(s)) => s.decode_state(d)?,
                (4, SlotState::CondOut(s)) => s.decode_state(d)?,
                (5, SlotState::Idx(i)) => {
                    let got = d.usize()?;
                    if got != *i {
                        return Err(SnapError::Mismatch(format!(
                            "indexed slot points at stream {got}, expected {i}"
                        )));
                    }
                }
                (t, _) => {
                    return Err(SnapError::Mismatch(format!(
                        "slot kind tag {t} does not match the program's stream declaration"
                    )));
                }
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
    /// The run must already hold its tape.
    pub(crate) fn decode_ctx(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let tag = d.u8()?;
        if tag != 0 {
            return Err(SnapError::Mismatch(format!(
                "iteration-context tag {tag} is not the tape ring's"
            )));
        }
        let ring_len = d.usize()?;
        if ring_len != self.ring.len() {
            return Err(SnapError::Mismatch(format!(
                "tape ring length {ring_len} != {}",
                self.ring.len()
            )));
        }
        for w in &mut self.ring {
            *w = d.u32()?;
        }
        self.ring_next_zero = d.u64()?;
        Ok(())
    }

    /// Steady-state loop-body cycles (`iters × II`).
    pub fn body_cycles(&self) -> u64 {
        self.iters * self.sched.ii as u64
    }

    fn exec_end(&self) -> u64 {
        if self.iters == 0 {
            0
        } else {
            (self.iters - 1) * self.sched.ii as u64 + self.sched.completion as u64
        }
    }

    /// All iterations fired and results produced?
    pub fn exec_done(&self) -> bool {
        self.t >= self.exec_end()
    }

    /// Fully complete, including output drains?
    pub fn is_done(&self) -> bool {
        self.exec_done()
            && self.idx_states.iter().all(|s| s.drained())
            && self.slots.iter().all(|s| match s {
                SlotState::SeqOut(o) => o.drained(),
                SlotState::CondOut(o) => o.drained(),
                _ => true,
            })
    }

    /// Advance one machine cycle at time `now`. `scratch` is the machine's
    /// persistent per-lane scratchpad storage; `es` holds the reusable
    /// hot-loop buffers shared across kernel invocations.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        srf: &mut Srf,
        scratch: &mut [Vec<Word>],
        es: &mut ExecScratch,
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
            self.arbitration(now, srf, traffic, tracer, &mut es.requesters);
        }
        if self.exec_done() {
            if self.is_done() {
                return Phase::Done;
            }
            self.flush_cycles += 1;
            return Phase::Flushing;
        }
        if self.tape.is_none() {
            let tape = cached_tape(&self.kernel, &self.sched, self.lanes);
            self.set_tape(tape);
        }
        if self.fire_cycle_tape(now, scratch, tracer) {
            self.t += 1;
            self.advance_cycles += 1;
            self.consecutive_stalls = 0;
            Phase::Advanced
        } else {
            self.stall_cycles += 1;
            self.consecutive_stalls += 1;
            assert!(
                self.consecutive_stalls < 1_000_000,
                "kernel `{}` stalled for 1M consecutive cycles — likely an \
                 indexed stream needs more outstanding records per iteration \
                 than its address FIFO + stream buffer can hold; split the \
                 accesses across more indexed streams",
                self.kernel.name
            );
            Phase::Stalled
        }
    }

    /// Stage-1 arbitration: one sequential/conditional stream or all
    /// indexed streams get the port this cycle.
    fn arbitration(
        &mut self,
        now: u64,
        srf: &mut Srf,
        traffic: &mut SrfTraffic,
        tracer: &mut Tracer,
        requesters: &mut Vec<usize>,
    ) {
        let flush = self.exec_done();
        let block = self.lanes * self.m_words;
        let idx_group = self.slots.len();
        requesters.clear();
        for (i, s) in self.slots.iter().enumerate() {
            let wants = match s {
                SlotState::SeqIn(st) | SlotState::CondLaneIn(st) => st.wants_grant(),
                SlotState::SeqOut(st) => st.wants_grant(self.m_words, flush),
                SlotState::CondIn(st) => st.wants_grant(),
                SlotState::CondOut(st) => st.wants_grant(block, flush),
                SlotState::Idx(_) => false,
            };
            if wants {
                requesters.push(i);
            }
        }
        if self.idx_states.iter().any(|s| s.pending_addresses()) {
            requesters.push(idx_group);
        }
        if requesters.is_empty() {
            return;
        }
        let winner = *requesters
            .iter()
            .find(|&&r| r >= self.rr_grant)
            .unwrap_or(&requesters[0]);
        self.rr_grant = (winner + 1) % (self.slots.len() + 1);
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
            let moved = match &mut self.slots[winner] {
                SlotState::SeqIn(st) | SlotState::CondLaneIn(st) => {
                    st.grant(srf, self.m_words, now, self.seq_latency)
                }
                SlotState::SeqOut(st) => st.grant(srf, self.m_words, flush),
                SlotState::CondIn(st) => st.grant(srf, block, now, self.seq_latency),
                SlotState::CondOut(st) => st.grant(srf, block, flush),
                SlotState::Idx(_) => unreachable!("idx slots never request individually"),
            };
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

    /// Fire every micro-op scheduled for this kernel cycle, for every
    /// in-flight iteration; returns false (and changes nothing) when any of
    /// them cannot proceed.
    fn fire_cycle_tape(
        &mut self,
        now: u64,
        scratch: &mut [Vec<Word>],
        tracer: &mut Tracer,
    ) -> bool {
        let tape = Arc::clone(self.tape.as_ref().expect("tape engine without a tape"));
        let t = self.t;
        let ii = tape.ii;
        let span = tape.span;
        let j_hi = (t / ii).min(self.iters.saturating_sub(1));
        let j_lo = if t >= span { (t - span) / ii + 1 } else { 0 };
        // Zero the ring rows of newly-active iterations: consumers read
        // slots of not-yet-fired producers as 0. The ring is deep enough
        // (`stages + max_dist + 1` rounded up) that a reused row is fully
        // dead by the time it comes around again.
        while self.ring_next_zero <= j_hi {
            let row = (self.ring_next_zero & tape.mask) as usize * tape.row_words;
            self.ring[row..row + tape.row_words].fill(0);
            self.ring_next_zero += 1;
        }
        // Stall check in firing order: iterations ascending, op order
        // within each group. Only the precomputed checkable subset is
        // visited — pure arithmetic never blocks.
        for j in j_lo..=j_hi {
            let slot = t - j * ii;
            if slot >= span {
                continue;
            }
            let g = tape.groups[slot as usize];
            for ci in g.checks.0..g.checks.1 {
                let mop = tape.ops[tape.checks[ci as usize] as usize];
                if let Some((slot_id, reason)) = self.tape_blocker(&tape, &mop, j, now) {
                    if tracer.enabled() {
                        tracer.emit(
                            now,
                            TraceEvent::KernelStall {
                                slot: slot_id,
                                reason,
                            },
                        );
                    }
                    return false;
                }
            }
        }
        let mut comm_busy = false;
        for j in j_lo..=j_hi {
            let slot = t - j * ii;
            if slot >= span {
                continue;
            }
            let g = tape.groups[slot as usize];
            comm_busy |= g.comm_busy;
            for oi in g.ops.0..g.ops.1 {
                self.exec_tape_op(&tape, oi as usize, j, scratch);
            }
        }
        self.comm_busy_prev = comm_busy;
        true
    }

    /// Can this checkable micro-op fire for iteration `j`? `None` means it
    /// can; otherwise the stream slot and why not. The distinction between
    /// a *starved* sequential input (its stream buffer is empty) and one
    /// merely waiting out SRF access *latency* (words granted but not yet
    /// arrived) is what stall attribution reports downstream.
    fn tape_blocker(
        &self,
        tape: &CompiledTape,
        mop: &MicroOp,
        j: u64,
        now: u64,
    ) -> Option<(u8, StallReason)> {
        match mop.kind {
            MicroKind::SeqRead { slot } => {
                let SlotState::SeqIn(st) = &self.slots[slot as usize] else {
                    unreachable!("validated kind");
                };
                for lane in 0..self.lanes {
                    if !st.can_pop(lane, now) && !st.lane_done(lane) {
                        let reason = if st.buffered_words(lane) == 0 {
                            StallReason::SeqInStarved
                        } else {
                            StallReason::SeqInLatency
                        };
                        return Some((slot, reason));
                    }
                }
                None
            }
            MicroKind::SeqWrite { slot } => {
                let SlotState::SeqOut(st) = &self.slots[slot as usize] else {
                    unreachable!();
                };
                ((0..self.lanes).any(|l| !st.can_push(l)))
                    .then_some((slot, StallReason::SeqOutFull))
            }
            MicroKind::CondLaneRead { slot } => {
                let SlotState::CondLaneIn(st) = &self.slots[slot as usize] else {
                    unreachable!();
                };
                for lane in 0..self.lanes {
                    let cond = word::as_bool(src_word(tape, &self.ring, mop.a, j, lane));
                    if cond && !st.can_pop(lane, now) && !st.lane_done(lane) {
                        let reason = if st.buffered_words(lane) == 0 {
                            StallReason::SeqInStarved
                        } else {
                            StallReason::SeqInLatency
                        };
                        return Some((slot, reason));
                    }
                }
                None
            }
            MicroKind::CondRead { slot } => {
                let SlotState::CondIn(st) = &self.slots[slot as usize] else {
                    unreachable!();
                };
                let k: usize = (0..self.lanes)
                    .filter(|&l| word::as_bool(src_word(tape, &self.ring, mop.a, j, l)))
                    .count();
                let k_eff = k.min(st.remaining_words() as usize);
                (!st.can_pop(k_eff, now)).then_some((slot, StallReason::CondInStarved))
            }
            MicroKind::CondWrite { slot } => {
                let SlotState::CondOut(st) = &self.slots[slot as usize] else {
                    unreachable!();
                };
                let k: usize = (0..self.lanes)
                    .filter(|&l| word::as_bool(src_word(tape, &self.ring, mop.a, j, l)))
                    .count();
                (!st.can_push(k)).then_some((slot, StallReason::CondOutFull))
            }
            MicroKind::IdxAddr { slot, idx } | MicroKind::IdxWrite { slot, idx } => {
                (self.idx_states[idx as usize].any_addr_full())
                    .then_some((slot, StallReason::AddrFifoFull))
            }
            MicroKind::IdxRead { slot, idx } => (!self.idx_states[idx as usize].all_data_ready())
                .then_some((slot, StallReason::IdxDataNotReady)),
            _ => None,
        }
    }

    /// Execute one micro-op for iteration `j`, all lanes, committing
    /// results straight into the context ring.
    fn exec_tape_op(&mut self, tape: &CompiledTape, oi: usize, j: u64, scratch: &mut [Vec<Word>]) {
        let mop = tape.ops[oi];
        let lanes = self.lanes;
        // Split borrows: the ring, the slot states and the staging buffer
        // are disjoint fields.
        let slots = &mut self.slots;
        let idx_states = &mut self.idx_states;
        let ring = &mut self.ring;
        let cond_scratch = &mut self.cond_scratch;
        let dst = mop.dst;
        let dst_base = if dst == NO_DST {
            usize::MAX
        } else {
            tape.row_base(j, dst)
        };
        match mop.kind {
            MicroKind::Alu(opc) => {
                let ra = tape.rsrc(mop.a, j);
                let rb = tape.rsrc(mop.b, j);
                let rc = tape.rsrc(mop.c, j);
                // Dead pure arithmetic is dropped at compile time, so the
                // destination is always live here.
                exec_alu_lanes(opc, ring, ra, rb, rc, dst_base, lanes);
            }
            MicroKind::SeqRead { slot } => {
                let SlotState::SeqIn(st) = &mut slots[slot as usize] else {
                    unreachable!("validated kind");
                };
                for lane in 0..lanes {
                    let v = if st.lane_done(lane) { 0 } else { st.pop(lane) };
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::SeqWrite { slot } => {
                let ra = tape.rsrc(mop.a, j);
                let SlotState::SeqOut(st) = &mut slots[slot as usize] else {
                    unreachable!();
                };
                for lane in 0..lanes {
                    let v = rv(ring, ra, lane);
                    st.push(lane, v);
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::CondLaneRead { slot } => {
                let ra = tape.rsrc(mop.a, j);
                let SlotState::CondLaneIn(st) = &mut slots[slot as usize] else {
                    unreachable!();
                };
                for lane in 0..lanes {
                    let cond = word::as_bool(rv(ring, ra, lane));
                    let v = if cond && !st.lane_done(lane) {
                        st.pop(lane)
                    } else {
                        0
                    };
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::CondRead { slot } => {
                let ra = tape.rsrc(mop.a, j);
                let mut k = 0usize;
                for (lane, cs) in cond_scratch.iter_mut().enumerate().take(lanes) {
                    let c = word::as_bool(rv(ring, ra, lane));
                    *cs = Word::from(c);
                    k += usize::from(c);
                }
                let SlotState::CondIn(st) = &mut slots[slot as usize] else {
                    unreachable!();
                };
                let k_eff = k.min(st.remaining_words() as usize);
                let mut words = st.pop(k_eff).into_iter();
                for lane in 0..lanes {
                    let v = if cond_scratch[lane] != 0 {
                        words.next().unwrap_or(0)
                    } else {
                        0
                    };
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::CondWrite { slot } => {
                let ra = tape.rsrc(mop.a, j);
                let rb = tape.rsrc(mop.b, j);
                let mut k = 0usize;
                for lane in 0..lanes {
                    if word::as_bool(rv(ring, ra, lane)) {
                        cond_scratch[k] = rv(ring, rb, lane);
                        k += 1;
                    }
                }
                let SlotState::CondOut(st) = &mut slots[slot as usize] else {
                    unreachable!();
                };
                st.push(&cond_scratch[..k]);
                // The op's value is all-zero; the row was zeroed at
                // activation and this is its slot's only writer (SSA), so
                // no commit is needed.
            }
            MicroKind::IdxAddr { idx, .. } => {
                let ra = tape.rsrc(mop.a, j);
                let st = &mut idx_states[idx as usize];
                for lane in 0..lanes {
                    let addr = rv(ring, ra, lane);
                    st.push_addr(lane, addr);
                    if dst != NO_DST {
                        ring[dst_base + lane] = addr;
                    }
                }
            }
            MicroKind::IdxRead { idx, .. } => {
                // A dead destination still pops: the data was addressed.
                let out = if dst == NO_DST {
                    &mut cond_scratch[..lanes]
                } else {
                    &mut ring[dst_base..dst_base + lanes]
                };
                idx_states[idx as usize].pop_row(out);
            }
            MicroKind::IdxWrite { idx, .. } => {
                let ra = tape.rsrc(mop.a, j);
                let rb = tape.rsrc(mop.b, j);
                let st = &mut idx_states[idx as usize];
                for lane in 0..lanes {
                    let addr = rv(ring, ra, lane);
                    let v = rv(ring, rb, lane);
                    st.push_write_word(lane, addr, v);
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::ScratchRead => {
                let ra = tape.rsrc(mop.a, j);
                for lane in 0..lanes {
                    let addr = rv(ring, ra, lane) as usize % scratch[lane].len();
                    let v = scratch[lane][addr];
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::ScratchWrite => {
                let ra = tape.rsrc(mop.a, j);
                let rb = tape.rsrc(mop.b, j);
                for lane in 0..lanes {
                    let addr = rv(ring, ra, lane) as usize % scratch[lane].len();
                    let v = rv(ring, rb, lane);
                    scratch[lane][addr] = v;
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::Comm { rotate } => {
                let ra = tape.rsrc(mop.a, j);
                for lane in 0..lanes {
                    let src_lane = (lane as i64 + rotate as i64).rem_euclid(lanes as i64) as usize;
                    let v = rv(ring, ra, src_lane);
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
            MicroKind::CommXor { mask } => {
                let ra = tape.rsrc(mop.a, j);
                for lane in 0..lanes {
                    let src_lane = (lane ^ mask as usize) % lanes;
                    let v = rv(ring, ra, src_lane);
                    if dst != NO_DST {
                        ring[dst_base + lane] = v;
                    }
                }
            }
        }
    }
}

/// Execute a pure ALU op across all lanes with the opcode dispatch
/// hoisted out of the per-lane loop: one match, then a tight loop per
/// opcode. Wrapping `i32` arithmetic, zero divisor yields 0, shift counts
/// masked to 5 bits, `f32` round-trips through the word encoding, `Select`
/// reads only the taken operand.
fn exec_alu_lanes(
    opc: Opcode,
    ring: &mut [Word],
    ra: RSrc,
    rb: RSrc,
    rc: RSrc,
    dst_base: usize,
    lanes: usize,
) {
    use Opcode::*;
    macro_rules! un {
        (|$a:ident| $e:expr) => {
            for lane in 0..lanes {
                let $a = rv(ring, ra, lane);
                let v = $e;
                ring[dst_base + lane] = v;
            }
        };
    }
    macro_rules! bin {
        (|$a:ident, $b:ident| $e:expr) => {
            for lane in 0..lanes {
                let $a = rv(ring, ra, lane);
                let $b = rv(ring, rb, lane);
                let v = $e;
                ring[dst_base + lane] = v;
            }
        };
    }
    macro_rules! ibin {
        (|$a:ident, $b:ident| $e:expr) => {
            bin!(|wa, wb| {
                let $a = word::as_i32(wa);
                let $b = word::as_i32(wb);
                $e
            })
        };
    }
    macro_rules! fbin {
        (|$a:ident, $b:ident| $e:expr) => {
            bin!(|wa, wb| {
                let $a = word::as_f32(wa);
                let $b = word::as_f32(wb);
                $e
            })
        };
    }
    match opc {
        Mov => un!(|a| a),
        Not => un!(|a| !a),
        Neg => un!(|a| word::from_i32(word::as_i32(a).wrapping_neg())),
        FNeg => un!(|a| word::from_f32(-word::as_f32(a))),
        IToF => un!(|a| word::from_f32(word::as_i32(a) as f32)),
        FToI => un!(|a| word::from_i32(word::as_f32(a) as i32)),
        Add => ibin!(|a, b| word::from_i32(a.wrapping_add(b))),
        Sub => ibin!(|a, b| word::from_i32(a.wrapping_sub(b))),
        Mul => ibin!(|a, b| word::from_i32(a.wrapping_mul(b))),
        Div => ibin!(|a, b| word::from_i32(if b == 0 { 0 } else { a.wrapping_div(b) })),
        Rem => ibin!(|a, b| word::from_i32(if b == 0 { 0 } else { a.wrapping_rem(b) })),
        And => bin!(|a, b| a & b),
        Or => bin!(|a, b| a | b),
        Xor => bin!(|a, b| a ^ b),
        Shl => bin!(|a, b| a.wrapping_shl(b & 31)),
        Shr => bin!(|a, b| a.wrapping_shr(b & 31)),
        Sra => bin!(|a, b| word::from_i32(word::as_i32(a).wrapping_shr(b & 31))),
        Lt => ibin!(|a, b| word::from_bool(a < b)),
        Le => ibin!(|a, b| word::from_bool(a <= b)),
        Eq => bin!(|a, b| word::from_bool(a == b)),
        Ne => bin!(|a, b| word::from_bool(a != b)),
        ULt => bin!(|a, b| word::from_bool(a < b)),
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
        Select => {
            for lane in 0..lanes {
                let v = if word::as_bool(rv(ring, ra, lane)) {
                    rv(ring, rb, lane)
                } else {
                    rv(ring, rc, lane)
                };
                ring[dst_base + lane] = v;
            }
        }
        _ => unreachable!("non-ALU opcode {opc:?} compiled to MicroKind::Alu"),
    }
}
