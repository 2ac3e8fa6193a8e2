//! The stream processor machine: lanes, SRF, memory system, sequencer.
//!
//! [`Machine`] owns the SRF storage, the memory system and the run-time
//! statistics, and executes [`StreamProgram`]s cycle by cycle:
//!
//! * memory transfers start as soon as their dependences complete and
//!   proceed concurrently (the latency-hiding overlap of stream machines);
//! * kernels run one at a time, in program order, on the single sequencer;
//! * the SRF port is shared: memory transfers claim it for one cycle per
//!   `N*m`-word block moved, pre-empting kernel stream grants.
//!
//! Cycle attribution follows Figure 12: steady-state loop-body cycles,
//! SRF stalls, memory stalls (cycles where the sequencer is idle waiting
//! for transfers), and kernel overheads (dispatch, software-pipeline
//! fill/drain, output flush, and everything else).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use isrf_core::config::{ConfigError, MachineConfig, KERNEL_DISPATCH_CYCLES, SEQ_ACCESS_WORDS};
// `not(doctest)` wherever `HostWork` is named: rustdoc collects release
// doctests with debug assertions on, against an isrf-core built without.
#[cfg(all(debug_assertions, not(doctest)))]
use isrf_core::stats::HostWork;
use isrf_core::stats::{MemTraffic, RunStats};
use isrf_core::Word;
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::Schedule;
use isrf_mem::{AddrPattern, MemorySystem, TransferId};
use isrf_trace::{CycleAttr, StallReason, TraceEvent, Tracer};

use crate::exec::{KernelRun, Phase};
use crate::program::{ProgOp, StreamProgram};
use crate::srf::{Srf, SrfRange};
use crate::stream::StreamBinding;
use crate::tape::{cached_tape, CompiledTape};

/// Why [`Machine::step`] could not advance a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A program is paused on the machine and another one was passed in.
    ProgramMismatch,
    /// A kernel stalled for a million consecutive cycles, which by
    /// construction has one cause: its address/data separation needs more
    /// records outstanding than address FIFO + stream buffer hold (what
    /// `isrf-verify` reports statically as V501).
    Deadlock {
        /// Machine cycle of the last stalled cycle simulated.
        cycle: u64,
        /// Program op index of the kernel.
        op: usize,
        /// The kernel's name.
        kernel: String,
        /// Consecutive stalled cycles up to and including `cycle`.
        stalled_cycles: u64,
        /// Stream slot of the first op that cannot fire.
        slot: u8,
        /// Why it cannot.
        reason: StallReason,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ProgramMismatch => {
                write!(f, "resumed with a different program than the paused one")
            }
            SimError::Deadlock {
                cycle,
                op,
                kernel,
                stalled_cycles,
                slot,
                reason,
            } => write!(
                f,
                "deadlock at cycle {cycle}: kernel `{kernel}` (op {op}) has stalled \
                 {stalled_cycles} consecutive cycles on stream slot {slot} ({}) — likely \
                 an indexed stream needs more outstanding records per iteration than \
                 its address FIFO + stream buffer can hold; split the accesses across \
                 more indexed streams",
                reason.as_str()
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Machine-side facts a static verifier (`isrf-verify`) needs beside the
/// program: how much SRF space the bump allocator has handed out, and which
/// per-bank word intervals already hold live data (from earlier runs or
/// direct [`Machine::write_stream`] setup). [`Machine::verify_env`] reads
/// them off a machine; the machine itself never verifies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyEnv {
    /// Words per bank handed out by the SRF allocator so far.
    pub allocated_words_per_bank: u32,
    /// Per-bank `[start, end)` word intervals known to hold data, sorted
    /// and non-overlapping.
    pub filled: Vec<(u32, u32)>,
}

/// A live memory transfer issued by [`Machine::step`]: the program op it
/// completes and, for loads, the destination stream and the data to land
/// in the SRF at completion. Stored in a slab indexed by the transfer's
/// slab slot, so completions resolve without scanning.
#[derive(Debug)]
pub(crate) struct PendingTransfer {
    pub(crate) op: usize,
    pub(crate) fill: Option<(StreamBinding, Vec<Word>)>,
}

/// Sequencer loop state of an in-flight program run, parked on the machine
/// between [`Machine::step`] slices. Structures derivable from the
/// program alone (dependents lists, the kernel index list, the port block
/// size) are rebuilt on every slice instead of being stored.
#[derive(Debug)]
pub(crate) struct RunState {
    /// Cumulative stats at run start (the final delta subtracts these).
    pub(crate) start_stats: RunStats,
    /// Memory traffic at run start.
    pub(crate) mem_start: MemTraffic,
    pub(crate) done: Vec<bool>,
    pub(crate) pending_deps: Vec<u32>,
    /// Memory ops whose dependences are complete, not yet issued.
    pub(crate) ready_mem: Vec<usize>,
    /// Cursor into the program-order kernel list.
    pub(crate) next_kernel: usize,
    /// The dispatched kernel, if any: `(program op index, run)`.
    pub(crate) kernel_run: Option<(usize, KernelRun)>,
    pub(crate) kernel_dispatch_left: u32,
    pub(crate) completed: usize,
    pub(crate) live_transfers: usize,
}

/// A complete simulated stream processor. The `pub(crate)` fields are the
/// dynamic state [`Machine::save_state`] serializes.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) srf: Srf,
    pub(crate) mem: MemorySystem,
    /// Persistent cluster-local scratchpads, `scratch[lane][addr]`.
    pub(crate) scratch: Vec<Vec<Word>>,
    pub(crate) now: u64,
    pub(crate) stats: RunStats,
    /// Fractional SRF-port debt of memory transfers, in words.
    pub(crate) mem_port_words: f64,
    tracer: Tracer,
    /// Live transfers, indexed by slab slot (mirrors the memory system's
    /// slot allocation).
    pub(crate) pending: Vec<Option<PendingTransfer>>,
    /// Reusable staging buffer for store source data.
    store_buf: Vec<Word>,
    /// Per-bank word intervals known to hold data (sorted, disjoint):
    /// direct `write_stream` setup plus the outputs of completed runs.
    pub(crate) filled: Vec<(u32, u32)>,
    /// Loop state of a program paused mid-run by [`Machine::step`].
    pub(crate) active: Option<RunState>,
    /// Per-machine tape memo keyed by `(kernel, schedule)` Arc identity,
    /// skipping the content-hash lookup on repeat dispatches. The Arcs
    /// are pinned in the entry so pointer keys stay valid.
    #[allow(clippy::type_complexity)]
    tape_memo: BTreeMap<(usize, usize), (Arc<Kernel>, Arc<Schedule>, Arc<CompiledTape>)>,
    /// Micro-ops the finished kernel runs fired (debug builds only; never
    /// serialized).
    #[cfg(debug_assertions)]
    ops: u64,
}

impl Machine {
    /// Build a machine.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Machine {
            srf: Srf::new(&cfg),
            mem: MemorySystem::new(&cfg),
            scratch: vec![vec![0; cfg.scratchpad_words.max(1)]; cfg.lanes],
            now: 0,
            stats: RunStats::default(),
            mem_port_words: 0.0,
            tracer: Tracer::Null,
            pending: Vec::new(),
            store_buf: Vec::new(),
            filled: Vec::new(),
            active: None,
            tape_memo: BTreeMap::new(),
            #[cfg(debug_assertions)]
            ops: 0,
            cfg,
        })
    }

    /// The compiled tape for `(kernel, sched)`, via the per-machine
    /// identity memo backed by the process-global content-hash cache.
    fn tape_for(&mut self, kernel: &Arc<Kernel>, sched: &Arc<Schedule>) -> Arc<CompiledTape> {
        let key = (Arc::as_ptr(kernel) as usize, Arc::as_ptr(sched) as usize);
        if let Some((_, _, tape)) = self.tape_memo.get(&key) {
            return Arc::clone(tape);
        }
        let tape = cached_tape(kernel, sched, self.cfg.lanes);
        self.tape_memo.insert(
            key,
            (Arc::clone(kernel), Arc::clone(sched), Arc::clone(&tape)),
        );
        tape
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The SRF (for allocating ranges and laying out data).
    pub fn srf(&self) -> &Srf {
        &self.srf
    }

    /// Mutable SRF access.
    pub fn srf_mut(&mut self) -> &mut Srf {
        &mut self.srf
    }

    /// The memory system (for laying out benchmark data).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable memory-system access.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The persistent per-lane scratchpads.
    pub fn scratch(&self) -> &[Vec<Word>] {
        &self.scratch
    }

    /// Install a tracer and return the previous one. Pass
    /// [`Tracer::recording`] to capture cycle-attributed events from every
    /// subsequent [`Machine::run`]; pass [`Tracer::Null`] (the default) to
    /// turn instrumentation back into a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer) -> Tracer {
        std::mem::replace(&mut self.tracer, tracer)
    }

    /// The currently installed tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Remove the installed tracer, leaving [`Tracer::Null`] behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Statistics accumulated across all [`Machine::run`] calls.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Host work since this machine was built: heads its indexed arbiter
    /// examined, micro-ops its kernels fired and its
    /// [`MemorySystem::work`]. Debug builds only; neither a snapshot nor
    /// [`Machine::reset_stats`] touches it.
    #[cfg(all(debug_assertions, not(doctest)))]
    pub fn work(&self) -> HostWork {
        let running = self.active.as_ref().and_then(|rs| rs.kernel_run.as_ref());
        HostWork {
            heads: self.srf.heads,
            ops: self.ops + running.map_or(0, |(_, run)| run.ops),
            ..self.mem.work()
        }
    }

    /// Reset statistics (keeps SRF and memory contents).
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// Convenience: allocate an SRF range sized for `records` records of
    /// `record_words` and return the binding covering it.
    pub fn alloc_stream(&mut self, record_words: u32, records: u32) -> StreamBinding {
        let lanes = self.cfg.lanes as u32;
        let per_bank = records.div_ceil(lanes) * record_words;
        let range = self.srf.alloc(per_bank);
        StreamBinding::whole(range, record_words, records)
    }

    /// The facts a static verifier reads beside the program: allocator
    /// high-water mark and the per-bank intervals known to hold data.
    pub fn verify_env(&self) -> VerifyEnv {
        VerifyEnv {
            allocated_words_per_bank: self.srf.bank_words() - self.srf.free_words(),
            filled: self.filled.clone(),
        }
    }

    /// Record that the per-bank interval `[lo, hi)` now holds data,
    /// keeping `filled` sorted and disjoint.
    fn add_fill(&mut self, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        self.filled.push((lo, hi));
        self.filled.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.filled.len());
        for &(s, e) in &self.filled {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.filled = merged;
    }

    /// Record the SRF intervals `program` writes: load/gather destinations
    /// and every output binding of each kernel. The one rule for what a
    /// program fills: [`Machine::step`] applies it when a program
    /// completes, and an app's plan applies it to the setup program its
    /// load will run, so the [`VerifyEnv`] is known before anything runs.
    pub fn note_program_fills(&mut self, program: &StreamProgram) {
        let mut wrote = |r: SrfRange| self.add_fill(r.base, r.base + r.words_per_bank);
        for node in &program.nodes {
            match &node.op {
                ProgOp::Load { dst, .. } | ProgOp::GatherDyn { dst, .. } => wrote(dst.range),
                ProgOp::Kernel {
                    kernel, bindings, ..
                } => {
                    for (decl, b) in kernel.streams.iter().zip(bindings) {
                        if decl.kind.writes() {
                            wrote(b.range);
                        }
                    }
                }
                ProgOp::Store { .. } => {}
            }
        }
    }

    /// Read a stream's content out of the SRF (for checking results).
    pub fn read_stream(&self, b: &StreamBinding) -> Vec<Word> {
        let mut out = Vec::new();
        self.read_stream_into(b, &mut out);
        out
    }

    /// Read a stream's content out of the SRF into `out` (cleared first).
    /// Lets hot paths reuse one buffer instead of materializing a fresh
    /// `Vec` per access.
    pub fn read_stream_into(&self, b: &StreamBinding, out: &mut Vec<Word>) {
        out.clear();
        self.srf.read_stream(b, out);
    }

    /// Write data into a stream's SRF storage directly (test setup).
    pub fn write_stream(&mut self, b: &StreamBinding, data: &[Word]) {
        self.srf.write_stream(b, data);
        self.note_filled(b);
    }

    /// Record that `b`'s storage holds data without writing it: a plan
    /// marks what its load will write, so the [`VerifyEnv`] is known
    /// before the data is built.
    pub fn note_filled(&mut self, b: &StreamBinding) {
        self.add_fill(b.range.base, b.range.base + b.range.words_per_bank);
    }

    /// Record a live transfer in the slot-indexed pending table.
    fn track_transfer(
        &mut self,
        id: TransferId,
        op: usize,
        fill: Option<(StreamBinding, Vec<Word>)>,
    ) {
        let slot = id.slot();
        if self.pending.len() <= slot {
            self.pending.resize_with(slot + 1, || None);
        }
        debug_assert!(self.pending[slot].is_none(), "slab slot reused while live");
        self.pending[slot] = Some(PendingTransfer { op, fill });
    }

    /// Gather-issue addressing: `base + index_stream[k]` for every element,
    /// collected straight into the list the transfer holds.
    fn collect_indices(&self, index_stream: &StreamBinding, base: u32) -> Arc<[u32]> {
        let index = self.read_stream(index_stream);
        index.into_iter().map(|i| base + i).collect()
    }

    /// Issue memory op `i`: hand the transfer to the memory system (access
    /// patterns are borrowed from the program, store data staged through
    /// the reusable buffer) and record its pending completion.
    fn issue_mem_op(&mut self, program: &StreamProgram, i: usize) {
        let (id, words, write, cacheable) = match &program.nodes[i].op {
            ProgOp::Load {
                pattern,
                dst,
                cacheable,
            } => {
                let (id, data) = self.mem.start_read(pattern, *cacheable);
                let words = data.len() as u32;
                self.track_transfer(id, i, Some((*dst, data)));
                (id, words, false, *cacheable)
            }
            ProgOp::Store {
                src,
                pattern,
                cacheable,
            } => {
                let mut buf = std::mem::take(&mut self.store_buf);
                self.read_stream_into(src, &mut buf);
                let words = buf.len() as u32;
                let id = self.mem.start_write(pattern, &buf, *cacheable);
                self.store_buf = buf;
                self.track_transfer(id, i, None);
                (id, words, true, *cacheable)
            }
            ProgOp::GatherDyn {
                index_stream,
                base,
                dst,
                cacheable,
            } => {
                let addrs = AddrPattern::Indexed(self.collect_indices(index_stream, *base));
                let (id, data) = self.mem.start_read(&addrs, *cacheable);
                let words = data.len() as u32;
                self.track_transfer(id, i, Some((*dst, data)));
                (id, words, false, *cacheable)
            }
            ProgOp::Kernel { .. } => unreachable!("kernels dispatch on the sequencer"),
        };
        if self.tracer.enabled() {
            self.tracer.emit(
                self.now,
                TraceEvent::TransferStart {
                    op: i as u32,
                    id: id.raw(),
                    words,
                    write,
                    cacheable,
                },
            );
        }
    }

    /// Execute `program` to completion; returns the stats for this run.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] that [`Machine::step`] would have
    /// returned.
    pub fn run(&mut self, program: &StreamProgram) -> RunStats {
        self.run_for(program, u64::MAX)
            .expect("an unbounded run completes")
    }

    /// [`Machine::step`] for callers with nothing to do about a failure:
    /// `Some(stats)` when the program completed within `max_cycles`, `None`
    /// when it paused.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] that [`Machine::step`] would have
    /// returned.
    pub fn run_for(&mut self, program: &StreamProgram, max_cycles: u64) -> Option<RunStats> {
        self.step(program, max_cycles)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// True while a program is paused mid-run on this machine: a
    /// [`Machine::step`] ran out of budget or reported a deadlock.
    pub fn mid_run(&self) -> bool {
        self.active.is_some()
    }

    /// The run of kernel op `ki` of `program`, bound and holding its tape
    /// but not started; `None` when that op is not a kernel.
    pub(crate) fn kernel_run(&mut self, program: &StreamProgram, ki: usize) -> Option<KernelRun> {
        let ProgOp::Kernel {
            kernel,
            schedule,
            bindings,
            iters,
        } = &program.nodes.get(ki)?.op
        else {
            return None;
        };
        let tape = self.tape_for(kernel, schedule);
        Some(KernelRun::new(
            &self.cfg, kernel, schedule, tape, bindings, *iters,
        ))
    }

    /// Advance `program` by at most `budget` machine cycles. The one run
    /// loop: [`Machine::run`] and [`Machine::run_for`] are this with the
    /// error turned into a panic.
    ///
    /// Returns `Some(stats)`, the run's stats delta, when the program
    /// completed within the budget, or `None` when the sequencer paused in
    /// place; call `step` again **with the same program** to continue. A
    /// paused-and-resumed run is byte-identical — stats, traces, memory —
    /// to an uninterrupted one. Snapshot the paused machine with
    /// [`Machine::save_state`].
    ///
    /// # Errors
    ///
    /// * [`SimError::ProgramMismatch`]: a paused run is resumed with another
    ///   program. The paused run is untouched.
    /// * [`SimError::Deadlock`]: a kernel stalled a million cycles in a row.
    ///   The machine stays parked mid-run on that cycle — `save_state` and
    ///   the tracer's tail are the post-mortem — and every further `step`
    ///   returns the same error at once.
    pub fn step(
        &mut self,
        program: &StreamProgram,
        budget: u64,
    ) -> Result<Option<RunStats>, SimError> {
        let n = program.len();
        match &mut self.active {
            None => {}
            Some(rs) if rs.done.len() != n => return Err(SimError::ProgramMismatch),
            Some(rs) => {
                if let Some((ki, run)) = &mut rs.kernel_run {
                    if let Some(e) = deadlock(program, *ki, run, self.now) {
                        return Err(e);
                    }
                }
            }
        }
        // Program-derived structures, rebuilt on every slice (cheap, and
        // identical across pause/resume since the program is unchanged):
        // an op becomes ready the moment its last dependence completes —
        // the per-cycle path never rescans the program.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut kernels: Vec<usize> = Vec::new();
        for (i, node) in program.nodes.iter().enumerate() {
            for d in &node.deps {
                dependents[d.0].push(i);
            }
            if matches!(node.op, ProgOp::Kernel { .. }) {
                kernels.push(i);
            }
        }
        let block = (self.cfg.lanes * SEQ_ACCESS_WORDS) as f64;
        let mut rs = self.active.take().unwrap_or_else(|| {
            let deps = program.nodes.iter().map(|node| node.deps.len() as u32);
            let pending_deps: Vec<u32> = deps.collect();
            let ready_mem: Vec<usize> = (0..n)
                .filter(|&i| {
                    pending_deps[i] == 0 && !matches!(program.nodes[i].op, ProgOp::Kernel { .. })
                })
                .collect();
            RunState {
                start_stats: self.stats,
                mem_start: self.mem.traffic(),
                done: vec![false; n],
                pending_deps,
                ready_mem,
                next_kernel: 0, // kernels execute in program order
                kernel_run: None,
                kernel_dispatch_left: 0,
                completed: 0,
                live_transfers: 0,
            }
        });
        let mut used: u64 = 0;

        while rs.completed < n {
            if used >= budget {
                self.active = Some(rs);
                return Ok(None);
            }
            // Start ready memory ops (ascending op order, matching the
            // program scan this replaces).
            if !rs.ready_mem.is_empty() {
                rs.ready_mem.sort_unstable();
                for i in rs.ready_mem.drain(..) {
                    self.issue_mem_op(program, i);
                    rs.live_transfers += 1;
                }
            }
            // Dispatch the next kernel (in program order) when ready.
            while rs.next_kernel < kernels.len() && rs.done[kernels[rs.next_kernel]] {
                rs.next_kernel += 1;
            }
            if rs.kernel_run.is_none() && rs.next_kernel < kernels.len() {
                let ki = kernels[rs.next_kernel];
                if rs.pending_deps[ki] == 0 {
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            self.now,
                            TraceEvent::KernelStart {
                                op: ki as u32,
                                name: kernel_name(program, ki).into(),
                            },
                        );
                    }
                    rs.kernel_run = self.kernel_run(program, ki).map(|run| (ki, run));
                    rs.kernel_dispatch_left = KERNEL_DISPATCH_CYCLES;
                }
            }

            // One machine cycle — and, in a memory wait, every cycle up to
            // the next retirement: while no kernel runs or can be dispatched,
            // nothing is left to issue and transfers are live, only a
            // retiring transfer changes what the loop head decides, so those
            // cycles tick memory, settle the port debt and look for
            // completions without passing through it. A slice that ends
            // mid-wait resumes in the same state.
            loop {
                self.now += 1;
                self.stats.cycles += 1;
                used += 1;
                self.mem.tick_traced(&mut self.tracer);
                // Memory transfers consume the SRF port: one block grant per
                // N*m words moved.
                self.mem_port_words += self.mem.words_served_last_tick() as f64;
                let mem_claims_port = if self.mem_port_words >= block {
                    self.mem_port_words -= block;
                    if self.tracer.enabled() {
                        self.tracer.emit(self.now, TraceEvent::PortPreempted);
                    }
                    true
                } else {
                    false
                };

                // Retire finished transfers in (completion cycle, issue id)
                // order, landing load data in the SRF.
                let mut retired = false;
                while let Some(id) = self.mem.pop_ready() {
                    let Some(pt) = self.pending.get_mut(id.slot()).and_then(Option::take) else {
                        continue; // issued directly on the memory system, not ours
                    };
                    retired = true;
                    rs.live_transfers -= 1;
                    if let Some((dst, data)) = pt.fill {
                        self.srf.write_stream(&dst, &data);
                    }
                    complete_op(pt.op, program, &dependents, &mut rs);
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            self.now,
                            TraceEvent::TransferDone {
                                op: pt.op as u32,
                                id: id.raw(),
                            },
                        );
                    }
                }

                // Advance the kernel (or attribute the idle cycle).
                let idle = rs.kernel_run.is_none();
                if let Some((ki, run)) = &mut rs.kernel_run {
                    if rs.kernel_dispatch_left > 0 {
                        rs.kernel_dispatch_left -= 1;
                        self.stats.breakdown.overhead += 1;
                        if self.tracer.enabled() {
                            self.tracer
                                .emit(self.now, TraceEvent::Cycle(CycleAttr::Dispatch));
                        }
                    } else {
                        let phase = run.tick(
                            self.now,
                            &mut self.srf,
                            &mut self.scratch,
                            mem_claims_port,
                            &mut self.stats.srf,
                            &mut self.tracer,
                        );
                        match phase {
                            Phase::Advanced | Phase::Stalled => {
                                self.stats.main_loop_cycles += 1;
                                let stalled = phase == Phase::Stalled;
                                // Loop-body vs fill/drain is settled at kernel end.
                                if self.tracer.enabled() {
                                    let attr = if stalled {
                                        CycleAttr::SrfStall
                                    } else {
                                        CycleAttr::Advance
                                    };
                                    self.tracer.emit(self.now, TraceEvent::Cycle(attr));
                                }
                                if stalled {
                                    self.stats.breakdown.srf_stall += 1;
                                    // The cycle is fully accounted: park on it.
                                    if let Some(e) = deadlock(program, *ki, run, self.now) {
                                        self.active = Some(rs);
                                        return Err(e);
                                    }
                                }
                            }
                            Phase::Flushing => {
                                self.stats.breakdown.overhead += 1;
                                if self.tracer.enabled() {
                                    self.tracer
                                        .emit(self.now, TraceEvent::Cycle(CycleAttr::Flush));
                                }
                            }
                            Phase::Done => {
                                // Attribute advanced cycles: body = iters*II,
                                // the rest is software-pipeline fill/drain.
                                let body = run.body_cycles().min(run.advance_cycles);
                                self.stats.breakdown.kernel_loop += body;
                                self.stats.breakdown.overhead += run.advance_cycles - body;
                                let i = *ki;
                                if self.tracer.enabled() {
                                    self.tracer.emit(
                                        self.now,
                                        TraceEvent::KernelEnd {
                                            op: i as u32,
                                            body_cycles: run.body_cycles(),
                                            advance_cycles: run.advance_cycles,
                                            stall_cycles: run.stall_cycles,
                                            flush_cycles: run.flush_cycles,
                                        },
                                    );
                                    self.tracer
                                        .emit(self.now, TraceEvent::Cycle(CycleAttr::KernelFinish));
                                }
                                #[cfg(debug_assertions)]
                                {
                                    self.ops += run.ops;
                                }
                                complete_op(i, program, &dependents, &mut rs);
                                rs.kernel_run = None;
                                self.stats.breakdown.overhead += 1; // this cycle
                            }
                        }
                    }
                } else if rs.live_transfers > 0 {
                    self.stats.breakdown.mem_stall += 1;
                    if self.tracer.enabled() {
                        self.tracer
                            .emit(self.now, TraceEvent::Cycle(CycleAttr::MemStall));
                    }
                } else if rs.completed < n {
                    // Waiting on nothing measurable (e.g. dependence chains of
                    // zero-length ops); attribute to overhead.
                    self.stats.breakdown.overhead += 1;
                    if self.tracer.enabled() {
                        self.tracer
                            .emit(self.now, TraceEvent::Cycle(CycleAttr::Idle));
                    }
                }
                if !idle || retired || rs.live_transfers == 0 || used >= budget {
                    break;
                }
            }
        }

        self.note_program_fills(program);
        self.stats.mem = self.mem.traffic();
        Ok(Some(self.stats.since(&RunStats {
            mem: rs.mem_start,
            ..rs.start_stats
        })))
    }
}

/// Name of kernel op `ki` of `program`.
fn kernel_name(program: &StreamProgram, ki: usize) -> &str {
    match &program.nodes[ki].op {
        ProgOp::Kernel { kernel, .. } => &kernel.name,
        _ => unreachable!("only kernels dispatch on the sequencer"),
    }
}

/// The report of kernel op `ki`, once its `run` is [`KernelRun::wedged`] at
/// machine cycle `now`.
#[inline]
fn deadlock(program: &StreamProgram, ki: usize, run: &mut KernelRun, now: u64) -> Option<SimError> {
    let (stalled_cycles, slot, reason) = run.wedged(now)?;
    Some(SimError::Deadlock {
        cycle: now,
        op: ki,
        kernel: kernel_name(program, ki).into(),
        stalled_cycles,
        slot,
        reason,
    })
}

/// Retire op `i`: mark it done and push any newly unblocked memory ops
/// onto the ready list (kernels wait for the sequencer's program-order
/// cursor instead).
fn complete_op(i: usize, program: &StreamProgram, dependents: &[Vec<usize>], rs: &mut RunState) {
    rs.done[i] = true;
    rs.completed += 1;
    for &j in &dependents[i] {
        rs.pending_deps[j] -= 1;
        if rs.pending_deps[j] == 0 && !matches!(program.nodes[j].op, ProgOp::Kernel { .. }) {
            rs.ready_mem.push(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgOpId;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, Operand, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams, Schedule};
    use isrf_kernel::Kernel;
    use isrf_mem::AddrPattern;

    fn machine(name: ConfigName) -> Machine {
        Machine::new(MachineConfig::preset(name)).unwrap()
    }

    fn sched_for(m: &Machine, k: &Kernel) -> Schedule {
        schedule(k, &SchedParams::from_machine(m.config())).unwrap()
    }

    /// out[i] = 2 * in[i], end to end through memory.
    #[test]
    fn sequential_copy_scale_kernel() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("scale");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        let two = b.constant(2);
        let y = b.mul(x, two);
        b.seq_write(so, y);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 256u32;
        for i in 0..n {
            m.mem_mut().memory_mut().write(i, i + 1);
        }
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        p.store(outp, AddrPattern::contiguous(10_000, n), false, &[kk]);
        let stats = m.run(&p);

        for i in 0..n {
            assert_eq!(
                m.mem().memory().read(10_000 + i),
                2 * (i + 1),
                "element {i}"
            );
        }
        assert!(stats.cycles > 0);
        assert_eq!(stats.mem.total(), (n as u64) * 8, "load + store traffic");
        assert!(stats.breakdown.kernel_loop >= (n as u64 / 8), "body cycles");
        assert!(
            stats.srf.seq_words >= 2 * n as u64,
            "both streams through SRF"
        );
    }

    /// Per-lane running sum via a loop-carried operand.
    #[test]
    fn loop_carried_accumulation() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("prefix");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        // acc = acc(prev) + x  (op index 1)
        let acc = b.push(
            isrf_kernel::Opcode::Add,
            vec![
                Operand::from(x),
                Operand::carried(isrf_kernel::ValueId(1), 1, 0),
            ],
        );
        b.seq_write(so, acc);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 64u32;
        for i in 0..n {
            m.mem_mut().memory_mut().write(i, 1); // all ones
        }
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        p.store(outp, AddrPattern::contiguous(1000, n), false, &[kk]);
        m.run(&p);
        // Record r = iteration r/8 of lane r%8; running count = r/8 + 1.
        for r in 0..n {
            assert_eq!(m.mem().memory().read(1000 + r), r / 8 + 1, "record {r}");
        }
    }

    /// Cross-lane indexed read: every cluster fetches its neighbor's data.
    #[test]
    fn crosslane_indexed_permutation() {
        let mut m = machine(ConfigName::Isrf4);
        let mut b = KernelBuilder::new("xl");
        let data = b.stream("data", StreamKind::IdxCrossRead);
        let so = b.stream("out", StreamKind::SeqOut);
        // record = iter * lanes + (lane + 1) % lanes
        let lane = b.lane_id();
        let one = b.constant(1);
        let lanes = b.lane_count();
        let iter = b.iter_id();
        let l1 = b.add(lane, one);
        let wrapped = b.rem(l1, lanes);
        let base = b.mul(iter, lanes);
        let rec = b.add(base, wrapped);
        let v = b.idx_load(data, rec);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 64u32;
        let dstream = m.alloc_stream(1, n);
        let ostream = m.alloc_stream(1, n);
        let vals: Vec<u32> = (0..n).map(|i| 100 + i).collect();
        m.write_stream(&dstream, &vals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(
            Arc::clone(&k),
            s,
            vec![dstream, ostream],
            (n / 8) as u64,
            &[],
        );
        p.store(ostream, AddrPattern::contiguous(5000, n), false, &[kk]);
        let stats = m.run(&p);
        assert!(stats.srf.crosslane_words >= n as u64);
        for i in 0..n {
            let lane = i % 8;
            let iter = i / 8;
            let expect = 100 + iter * 8 + (lane + 1) % 8;
            assert_eq!(m.mem().memory().read(5000 + i), expect, "record {i}");
        }
    }

    /// Indexed in-lane writes land at computed lane-local addresses.
    #[test]
    fn inlane_indexed_write_scatter() {
        let mut m = machine(ConfigName::Isrf4);
        let mut b = KernelBuilder::new("scatter");
        let dst = b.stream("dst", StreamKind::IdxInWrite);
        // Write value (lane*100 + iter) at lane-local word (7 - iter).
        let lane = b.lane_id();
        let iter = b.iter_id();
        let c100 = b.constant(100);
        let v0 = b.mul(lane, c100);
        let v = b.add(v0, iter);
        let seven = b.constant(7);
        let addr = b.sub(seven, iter);
        b.idx_write(dst, addr, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let dstream = m.alloc_stream(1, 64);
        let mut p = StreamProgram::new();
        p.kernel(Arc::clone(&k), s, vec![dstream], 8, &[]);
        m.run(&p);
        for lane in 0..8usize {
            for iter in 0..8u32 {
                assert_eq!(
                    m.srf().read(lane, dstream.range.base + 7 - iter),
                    lane as u32 * 100 + iter
                );
            }
        }
    }

    /// Conditional output stream compacts selected elements.
    #[test]
    fn conditional_write_compacts() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("compact");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::CondOut);
        let x = b.seq_read(si);
        let one = b.constant(1);
        let odd = b.and(x, one);
        b.cond_write(so, odd, x);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let n = 64u32;
        for i in 0..n {
            m.mem_mut().memory_mut().write(i, i);
        }
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n / 2);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        p.store(outp, AddrPattern::contiguous(2000, n / 2), false, &[kk]);
        m.run(&p);
        // Each iteration processes records 8j..8j+8 = values 8j..8j+8; the
        // odd ones (4 per iteration) are appended in lane order.
        let got: Vec<u32> = (0..n / 2)
            .map(|i| m.mem().memory().read(2000 + i))
            .collect();
        let expect: Vec<u32> = (0..n).filter(|v| v % 2 == 1).collect();
        assert_eq!(got, expect);
    }

    /// Conditional input distributes elements to asserting lanes.
    #[test]
    fn conditional_read_distributes() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("dist");
        let si = b.stream("in", StreamKind::CondIn);
        let so = b.stream("out", StreamKind::SeqOut);
        // Even lanes read; odd lanes get 0.
        let lane = b.lane_id();
        let one = b.constant(1);
        let lsb = b.and(lane, one);
        let zero = b.constant(0);
        let even = b.eq(lsb, zero);
        let v = b.cond_read(si, even);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);

        let inp = m.alloc_stream(1, 32);
        let outp = m.alloc_stream(1, 64);
        let vals: Vec<u32> = (0..32).map(|i| 500 + i).collect();
        m.write_stream(&inp, &vals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], 8, &[]);
        p.store(outp, AddrPattern::contiguous(3000, 64), false, &[kk]);
        m.run(&p);
        // Iteration j: lanes 0,2,4,6 receive elements 4j..4j+4.
        for j in 0..8u32 {
            for (pos, lane) in [0u32, 2, 4, 6].iter().enumerate() {
                let rec = j * 8 + lane;
                assert_eq!(m.mem().memory().read(3000 + rec), 500 + 4 * j + pos as u32);
            }
            for lane in [1u32, 3, 5, 7] {
                assert_eq!(m.mem().memory().read(3000 + j * 8 + lane), 0);
            }
        }
    }

    /// Inter-cluster rotate permutes values across lanes.
    #[test]
    fn comm_rotate_permutes() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("rot");
        let so = b.stream("out", StreamKind::SeqOut);
        let lane = b.lane_id();
        let c10 = b.constant(10);
        let v = b.mul(lane, c10);
        let r = b.comm_rotate(1, v);
        b.seq_write(so, r);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let outp = m.alloc_stream(1, 8);
        let mut p = StreamProgram::new();
        p.kernel(Arc::clone(&k), s, vec![outp], 1, &[]);
        m.run(&p);
        let got = m.read_stream(&outp);
        // Lane l receives the value of lane (l+1) % 8.
        let expect: Vec<u32> = (0..8).map(|l| ((l + 1) % 8) * 10).collect();
        assert_eq!(got, expect);
    }

    /// Explicit communication has priority on the inter-cluster network:
    /// the cycle after a `Comm` fires only `lanes - 2` cross-lane indexed
    /// words may return. A kernel whose gather address comes through a
    /// rotate therefore runs strictly longer than the same kernel with the
    /// rotate replaced by a move, and by a pinned amount.
    #[test]
    fn comm_leaves_fewer_crosslane_return_slots() {
        let run = |through_comm: bool| {
            let mut m = machine(ConfigName::Isrf4);
            let mut b = KernelBuilder::new("gather");
            let data = b.stream("data", StreamKind::IdxCrossRead);
            let so = b.stream("out", StreamKind::SeqOut);
            let lane = b.lane_id();
            let lanes = b.lane_count();
            let iter = b.iter_id();
            let src = if through_comm {
                b.comm_rotate(1, lane)
            } else {
                b.push(isrf_kernel::Opcode::Mov, vec![Operand::from(lane)])
            };
            let base = b.mul(iter, lanes);
            let rec = b.add(base, src);
            let v = b.idx_load(data, rec);
            b.seq_write(so, v);
            let k = Arc::new(b.build().unwrap());
            // Read 8 cycles after the address rather than the default 20:
            // at II = 1 no more gathers are outstanding than the address
            // FIFO holds, and every read waits for its last word to land.
            let params = SchedParams::from_machine(m.config()).with_separations(6, 8);
            let s = schedule(&k, &params).unwrap();
            assert_eq!(s.ii, 1, "a rotate or move fires every cycle");
            let n = 512u32;
            let dstream = m.alloc_stream(1, n);
            let ostream = m.alloc_stream(1, n);
            let vals: Vec<u32> = (0..n).collect();
            m.write_stream(&dstream, &vals);
            let mut p = StreamProgram::new();
            p.kernel(k, s, vec![dstream, ostream], (n / 8) as u64, &[]);
            let stats = m.run(&p);
            let shift = u32::from(through_comm);
            let expect: Vec<u32> = (0..n).map(|r| r / 8 * 8 + (r % 8 + shift) % 8).collect();
            assert_eq!(m.read_stream(&ostream), expect);
            stats.cycles
        };
        let (with_comm, with_mov) = (run(true), run(false));
        assert_eq!(with_comm, 146, "pinned: 8 words return through 6 slots");
        assert!(with_comm > with_mov, "{with_comm} vs {with_mov}");
    }

    /// Memory stalls appear when a kernel waits on a long load.
    #[test]
    fn memory_stall_attribution() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("consume");
        let si = b.stream("in", StreamKind::SeqIn);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        b.seq_write(so, x);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let n = 8192u32;
        let inp = m.alloc_stream(1, n);
        let outp = m.alloc_stream(1, n);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, n), inp, false, &[]);
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, outp], (n / 8) as u64, &[l]);
        let _ = kk;
        let stats = m.run(&p);
        // The load takes ~3600 cycles; the kernel only ~1000. Waiting for
        // the load dominates.
        assert!(
            stats.breakdown.mem_stall > stats.breakdown.kernel_loop,
            "{:?}",
            stats.breakdown
        );
    }

    /// Double buffering overlaps strip N's load with strip N-1's kernel.
    #[test]
    fn double_buffering_overlaps_memory_and_compute() {
        fn run(overlap: bool) -> u64 {
            let mut m = machine(ConfigName::Base);
            let mut b = KernelBuilder::new("work");
            let si = b.stream("in", StreamKind::SeqIn);
            let so = b.stream("out", StreamKind::SeqOut);
            let x = b.seq_read(si);
            // Enough multiplies to make compute time comparable to the load.
            let mut v = x;
            for _ in 0..12 {
                v = b.mul(v, x);
            }
            b.seq_write(so, v);
            let k = Arc::new(b.build().unwrap());
            let s = sched_for(&m, &k);
            let strip = 2048u32;
            let strips = 4u32;
            let bufs = [m.alloc_stream(1, strip), m.alloc_stream(1, strip)];
            let obufs = [m.alloc_stream(1, strip), m.alloc_stream(1, strip)];
            let mut p = StreamProgram::new();
            let mut last_kernel: Option<ProgOpId> = None;
            let mut last_in_buf: [Option<ProgOpId>; 2] = [None, None];
            for i in 0..strips {
                let pick = (i % 2) as usize;
                let mut deps: Vec<ProgOpId> = Vec::new();
                if let Some(prev) = last_in_buf[pick] {
                    deps.push(prev); // anti-dependence on buffer reuse
                }
                if !overlap {
                    if let Some(lk) = last_kernel {
                        deps.push(lk);
                    }
                }
                let l = p.load(
                    AddrPattern::contiguous(i * strip, strip),
                    bufs[pick],
                    false,
                    &deps,
                );
                let mut kdeps = vec![l];
                if let Some(lk) = last_kernel {
                    kdeps.push(lk);
                }
                let kk = p.kernel(
                    Arc::clone(&k),
                    s.clone(),
                    vec![bufs[pick], obufs[pick]],
                    (strip / 8) as u64,
                    &kdeps,
                );
                last_kernel = Some(kk);
                last_in_buf[pick] = Some(kk);
            }
            m.run(&p).cycles
        }
        let serial = run(false);
        let pipelined = run(true);
        assert!(
            (pipelined as f64) < 0.75 * serial as f64,
            "pipelined {pipelined} vs serial {serial}"
        );
    }

    /// Stats are deterministic across identical runs.
    #[test]
    fn deterministic_runs() {
        fn once() -> RunStats {
            let mut m = machine(ConfigName::Isrf4);
            let mut b = KernelBuilder::new("lut");
            let si = b.stream("in", StreamKind::SeqIn);
            let lut = b.stream("LUT", StreamKind::IdxInRead);
            let so = b.stream("out", StreamKind::SeqOut);
            let x = b.seq_read(si);
            let mask = b.constant(0xff);
            let a = b.and(x, mask);
            let v = b.idx_load(lut, a);
            let y = b.add(x, v);
            b.seq_write(so, y);
            let k = Arc::new(b.build().unwrap());
            let s = sched_for(&m, &k);
            let inp = m.alloc_stream(1, 512);
            let lutb = m.alloc_stream(1, 256 * 8);
            let outp = m.alloc_stream(1, 512);
            let ivals: Vec<u32> = (0..512).map(|i| i * 7).collect();
            m.write_stream(&inp, &ivals);
            let lvals: Vec<u32> = (0..2048).map(|i| i / 8).collect();
            m.write_stream(&lutb, &lvals);
            let mut p = StreamProgram::new();
            let kk = p.kernel(Arc::clone(&k), s, vec![inp, lutb, outp], 64, &[]);
            p.store(outp, AddrPattern::contiguous(9000, 512), false, &[kk]);
            m.run(&p)
        }
        assert_eq!(once(), once());
    }

    /// Functional check for the in-lane lookup above.
    #[test]
    fn inlane_lookup_values() {
        let mut m = machine(ConfigName::Isrf4);
        let mut b = KernelBuilder::new("lut");
        let si = b.stream("in", StreamKind::SeqIn);
        let lut = b.stream("LUT", StreamKind::IdxInRead);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(si);
        let mask = b.constant(0xff);
        let a = b.and(x, mask);
        let v = b.idx_load(lut, a);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let inp = m.alloc_stream(1, 64);
        let lutb = m.alloc_stream(1, 256 * 8);
        let outp = m.alloc_stream(1, 64);
        let ivals: Vec<u32> = (0..64).map(|i| (i * 3) % 256).collect();
        m.write_stream(&inp, &ivals);
        // Replicated per lane: global record r holds table[r / 8].
        let lvals: Vec<u32> = (0..2048).map(|r| 7000 + r / 8).collect();
        m.write_stream(&lutb, &lvals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(Arc::clone(&k), s, vec![inp, lutb, outp], 8, &[]);
        p.store(outp, AddrPattern::contiguous(9000, 64), false, &[kk]);
        let stats = m.run(&p);
        for i in 0..64u32 {
            assert_eq!(m.mem().memory().read(9000 + i), 7000 + (i * 3) % 256);
        }
        assert_eq!(stats.srf.inlane_words, 64);
        assert_eq!(stats.srf.crosslane_words, 0);
    }

    /// The scratchpad is cluster-local state.
    #[test]
    fn scratchpad_is_lane_local() {
        let mut m = machine(ConfigName::Base);
        let mut b = KernelBuilder::new("sp");
        let so = b.stream("out", StreamKind::SeqOut);
        let lane = b.lane_id();
        let iter = b.iter_id();
        let addr = b.constant(5);
        // iter 0 writes lane id; iter 1 reads it back and emits it.
        let zero = b.constant(0);
        let is0 = b.eq(iter, zero);
        b.scratch_write(addr, lane); // writes every iter; value = lane
        let rd = b.scratch_read(addr);
        let _ = is0;
        b.seq_write(so, rd);
        let k = Arc::new(b.build().unwrap());
        let s = sched_for(&m, &k);
        let outp = m.alloc_stream(1, 16);
        let mut p = StreamProgram::new();
        p.kernel(Arc::clone(&k), s, vec![outp], 2, &[]);
        m.run(&p);
        let got = m.read_stream(&outp);
        let expect: Vec<u32> = (0..16).map(|r| r % 8).collect();
        assert_eq!(got, expect);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::program::StreamProgram;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams};
    use isrf_mem::AddrPattern;
    use std::sync::Arc;

    fn copy_kernel() -> Arc<isrf_kernel::Kernel> {
        let mut b = KernelBuilder::new("copy");
        let i = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(i);
        b.seq_write(o, x);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn zero_iteration_kernel_completes() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 8);
        let b = m.alloc_stream(1, 8);
        let mut p = StreamProgram::new();
        p.kernel(k, s, vec![a, b], 0, &[]);
        let stats = m.run(&p);
        assert!(stats.cycles > 0, "dispatch still costs cycles");
        assert_eq!(stats.breakdown.kernel_loop, 0);
    }

    #[test]
    fn partial_output_blocks_flush() {
        // 8 records = 1 word per lane: far less than an m=4 block, so the
        // data only reaches the SRF via the end-of-kernel flush.
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 8);
        let b = m.alloc_stream(1, 8);
        m.write_stream(&a, &[9, 8, 7, 6, 5, 4, 3, 2]);
        let mut p = StreamProgram::new();
        p.kernel(k, s, vec![a, b], 1, &[]);
        m.run(&p);
        assert_eq!(m.read_stream(&b), vec![9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn kernels_run_strictly_in_program_order() {
        // Kernel 2's input is kernel 1's output region; no explicit dep is
        // given beyond program order + the data dep edge.
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 64);
        let b = m.alloc_stream(1, 64);
        let c = m.alloc_stream(1, 64);
        let data: Vec<u32> = (0..64).map(|i| i * 3).collect();
        m.write_stream(&a, &data);
        let mut p = StreamProgram::new();
        let k1 = p.kernel(Arc::clone(&k), s.clone(), vec![a, b], 8, &[]);
        p.kernel(k, s, vec![b, c], 8, &[k1]);
        m.run(&p);
        assert_eq!(m.read_stream(&c), data);
    }

    #[test]
    fn four_lane_machine_works() {
        // The simulator is generic in lane count even though the paper's
        // configurations use 8.
        let mut cfg = MachineConfig::preset(ConfigName::Isrf4);
        cfg.lanes = 4;
        cfg.validate().unwrap();
        let mut b = KernelBuilder::new("lut4");
        let sin = b.stream("in", StreamKind::SeqIn);
        let lut = b.stream("lut", StreamKind::IdxInRead);
        let so = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(sin);
        let v = b.idx_load(lut, x);
        b.seq_write(so, v);
        let k = Arc::new(b.build().unwrap());
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let inp = m.alloc_stream(1, 16);
        let table = m.alloc_stream(1, 16 * 4);
        let outp = m.alloc_stream(1, 16);
        m.write_stream(&inp, &(0..16).map(|i| i % 16).collect::<Vec<_>>());
        // Lane-local entry e = 100 + e (global record e*4 + lane).
        let tvals: Vec<u32> = (0..64).map(|r| 100 + r / 4).collect();
        m.write_stream(&table, &tvals);
        let mut p = StreamProgram::new();
        let kk = p.kernel(k, s, vec![inp, table, outp], 4, &[]);
        p.store(outp, AddrPattern::contiguous(0x1000, 16), false, &[kk]);
        m.run(&p);
        for i in 0..16u32 {
            assert_eq!(m.mem().memory().read(0x1000 + i), 100 + i % 16);
        }
    }

    #[test]
    fn stats_accumulate_across_runs_but_deltas_are_per_run() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let k = copy_kernel();
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_stream(1, 64);
        let b = m.alloc_stream(1, 64);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, 64), a, false, &[]);
        p.kernel(k, s, vec![a, b], 8, &[l]);
        let first = m.run(&p);
        let second = m.run(&p);
        assert_eq!(first.mem.bytes_read, 256);
        assert_eq!(second.mem.bytes_read, 256, "delta, not cumulative");
        assert_eq!(m.stats().mem.bytes_read, 512, "machine total accumulates");
        // Cycle counts of back-to-back runs may differ slightly (carried
        // bandwidth-credit state); a fresh machine is fully deterministic.
        assert!(first.cycles.abs_diff(second.cycles) <= 8);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::program::StreamProgram;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams};
    use isrf_mem::AddrPattern;
    use std::sync::Arc;

    #[test]
    fn trace_records_overlap_in_order() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut b = KernelBuilder::new("t");
        let i = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(i);
        b.seq_write(o, x);
        let k = Arc::new(b.build().unwrap());
        let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
        let mut m = Machine::new(cfg).unwrap();
        m.set_tracer(Tracer::recording(1 << 16));
        let a = m.alloc_stream(1, 64);
        let c = m.alloc_stream(1, 64);
        let mut p = StreamProgram::new();
        let l = p.load(AddrPattern::contiguous(0, 64), a, false, &[]);
        let kk = p.kernel(k, s, vec![a, c], 8, &[l]);
        p.store(c, AddrPattern::contiguous(0x1000, 64), false, &[kk]);
        let stats = m.run(&p);
        let rec = m.tracer().recorder().expect("recording");
        let events: Vec<(u64, TraceEvent)> = rec.ring().iter().cloned().collect();
        assert_eq!(rec.ring().dropped(), 0, "ring sized for the whole run");
        // Load starts before the kernel; the kernel ends before its store
        // completes; every event carries a monotone cycle.
        let pos =
            |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().position(|(_, e)| pred(e)).unwrap();
        let load_start = pos(&|e| matches!(e, TraceEvent::TransferStart { op: 0, .. }));
        let kernel_start =
            pos(&|e| matches!(e, TraceEvent::KernelStart { op: 1, name } if &**name == "t"));
        let load_done = pos(&|e| matches!(e, TraceEvent::TransferDone { op: 0, .. }));
        let kernel_end = pos(&|e| matches!(e, TraceEvent::KernelEnd { op: 1, .. }));
        let store_done = pos(&|e| matches!(e, TraceEvent::TransferDone { op: 2, .. }));
        assert!(load_start < kernel_start);
        assert!(load_done < kernel_end);
        assert!(kernel_end < store_done);
        assert!(
            events.windows(2).all(|w| w[0].0 <= w[1].0),
            "cycles monotone"
        );
        // Stall attribution audit: events reconstruct the Figure-12
        // breakdown exactly.
        let mismatches = rec.audit().verify(&stats.breakdown);
        assert!(mismatches.is_empty(), "audit: {mismatches:?}");
    }

    #[test]
    fn tracer_off_by_default_and_removable() {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut m = Machine::new(cfg).unwrap();
        assert!(!m.tracer().enabled());
        assert!(m.tracer().recorder().is_none());
        let a = m.alloc_stream(1, 8);
        let mut p = StreamProgram::new();
        p.load(AddrPattern::contiguous(0, 8), a, false, &[]);
        m.run(&p);
        // Install, run, then take the recorder back out.
        m.set_tracer(Tracer::recording(256));
        m.run(&p);
        let rec = m.take_tracer().into_recorder().expect("was recording");
        assert!(!rec.ring().is_empty());
        assert!(!m.tracer().enabled(), "take leaves Null behind");
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;
    use crate::program::StreamProgram;
    use isrf_core::config::ConfigName;
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::{schedule, SchedParams};
    use isrf_mem::AddrPattern;
    use std::sync::Arc;

    /// A concurrent bulk memory transfer steals SRF-port cycles from the
    /// kernel's stream grants: the kernel slows down even though its data
    /// is already SRF-resident.
    #[test]
    fn memory_transfers_contend_for_the_srf_port() {
        fn run(with_background_store: bool) -> u64 {
            let cfg = MachineConfig::preset(ConfigName::Base);
            // A port-hungry kernel: 4 streams in, 4 out -> every cycle the
            // port serves someone.
            let mut b = KernelBuilder::new("hungry");
            let ins: Vec<_> = (0..4)
                .map(|i| b.stream(format!("i{i}"), StreamKind::SeqIn))
                .collect();
            let outs: Vec<_> = (0..4)
                .map(|i| b.stream(format!("o{i}"), StreamKind::SeqOut))
                .collect();
            for (i, o) in ins.iter().zip(&outs) {
                let x = b.seq_read(*i);
                b.seq_write(*o, x);
            }
            let k = Arc::new(b.build().unwrap());
            let s = schedule(&k, &SchedParams::from_machine(&cfg)).unwrap();
            let mut m = Machine::new(cfg).unwrap();
            let n = 2048u32;
            let bufs: Vec<_> = (0..8).map(|_| m.alloc_stream(1, n)).collect();
            let big = m.alloc_stream(1, 8192);
            let mut p = StreamProgram::new();
            let mut deps = vec![];
            if with_background_store {
                // An 8192-word store runs concurrently with the kernel.
                deps.push(p.store(big, AddrPattern::contiguous(0x10_0000, 8192), false, &[]));
            }
            let bindings: Vec<_> = bufs.to_vec();
            let kk = p.kernel(k, s, bindings, (n / 8) as u64, &[]);
            let _ = (kk, deps);
            // Measure the kernel's active window, not the program end (the
            // background store itself takes thousands of cycles).
            m.run(&p).main_loop_cycles
        }
        let quiet = run(false);
        let contended = run(true);
        assert!(
            contended > quiet,
            "background transfer must steal port cycles: {contended} vs {quiet}"
        );
        assert!(
            (contended as f64) < 1.5 * quiet as f64,
            "but only a modest share: {contended} vs {quiet}"
        );
    }
}
