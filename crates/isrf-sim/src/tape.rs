//! Kernel tape compilation: lower a scheduled kernel once into a flat,
//! pre-resolved micro-op program for the zero-graph-walk hot loop.
//!
//! Walking the kernel DAG every cycle means every operand resolve re-reads
//! the producing op, matches on its opcode to special-case the Free
//! producers (`Const`/`LaneId`/`LaneCount`/`IterId`), and indexes a queue
//! of per-iteration contexts. This module performs all of that
//! decision-making once per `(Kernel, Schedule, lanes)` triple:
//!
//! * operands fold to `Opnd` values: a ring row a fixed number of
//!   iterations behind the firing one plus a slot's offset, or a constant
//!   row (immediates, lane ids) a run appends past its ring, or an
//!   iteration-id row — so in steady state every operand is a direct slice
//!   and the executor never asks what kind of source it reads;
//! * the steady state of a software-pipelined loop is `II` instruction
//!   words, one per phase `t mod II`, and that is what is emitted: per
//!   phase, the non-empty schedule slots that fire there (`Group`, oldest
//!   iteration first) and the stall-checkable ops among them (`Check`), so
//!   the sequencer never asks which in-flight iterations have something to
//!   do and pure arithmetic is never rescanned on the blocker path;
//! * context slots are densely renumbered (only values actually read
//!   through the context get a slot) and live in a flat power-of-two ring
//!   indexed by iteration;
//! * Free ops and dead pure arithmetic are dropped from the tape entirely
//!   (consumers never read their context slots, they never stall, and
//!   they never touch `comm_busy`, so dropping them is unobservable).
//!
//! Execution of the tape lives in [`crate::exec`] (`fire_cycle_tape`), the
//! only kernel executor. Two independent nets hold it: values are checked
//! against `isrf-check`'s `RefMachine` (its own operand resolution and ALU
//! semantics) on the app grid and on random kernels
//! (`isrf-check/tests/proptest_kernels.rs`), and timing — cycles, stall
//! attribution, the whole event stream — is pinned by
//! `tests/golden/points.digest` and the digest beside the random-kernel
//! test.
//!
//! Compiled tapes are cached process-wide, keyed by content hash
//! ([`isrf_kernel::hash`]), so repeated invocations across strip-mined
//! iterations, machine instances and sweep points compile once.

use std::convert::Infallible;
use std::sync::Arc;

use isrf_core::{Memo, Word};
use isrf_kernel::hash::{kernel_hash, schedule_hash};
use isrf_kernel::ir::{Kernel, OpClass, Opcode, Operand};
use isrf_kernel::sched::Schedule;

/// Sentinel destination of ops whose value is never read.
pub(crate) const NO_DST: u32 = u32::MAX;

/// A pre-resolved operand: where its lane row sits once the firing
/// iteration `j` has reached the operand's distance `d` (before, a
/// [`Warmup`] says what every lane reads).
///
/// The row is `off` words past `bases[base]`, one of the bases a run keeps
/// for the ring row iteration `j` sits in ([`Ring::frame`]):
/// [`CONST_BASE`], the first constant row past the ring; `1 + d`, the ring
/// row of iteration `j - d` (`off` is the context slot's offset in it); or
/// `1 + dists + d`, the iteration-id row of `j - d`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Opnd {
    pub base: u32,
    pub off: u32,
}

/// An operand read at a loop-carried distance `d > 0`: while the firing
/// iteration is below `d`, every lane reads `init`. Only a run's first
/// [`CompiledTape::warm`] iterations ask, so these sit in a table of their
/// own ([`CompiledTape::warmups`]), not in the micro-ops the hot loop reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Warmup {
    /// Index into [`CompiledTape::ops`].
    pub op: u32,
    /// Which of the op's three operands.
    pub k: u8,
    pub d: u32,
    pub init: Word,
}

/// The base of the constant rows: a run's first row past its ring.
pub(crate) const CONST_BASE: u32 = 0;

/// Lanes per row chunk: context rows are padded to a multiple of it, so
/// every operand reads as whole `[Word; CHUNK]` arrays.
pub(crate) const CHUNK: usize = 8;

/// Kind of one tape micro-op (the single dispatch point of the hot loop).
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroKind {
    /// Pure arithmetic, evaluated by `exec_alu_rows`.
    Alu(Opcode),
    /// Sequential stream pop, all lanes (no condition row).
    SeqRead { slot: u8 },
    /// Sequential stream push, all lanes.
    SeqWrite { slot: u8 },
    /// Per-lane conditional pop (network-routed substreams).
    CondLaneRead { slot: u8 },
    /// Whole-op conditional distribute-pop.
    CondRead { slot: u8 },
    /// Whole-op conditional compacting push.
    CondWrite { slot: u8 },
    /// Indexed address issue; `idx` indexes `KernelRun::idx_states`.
    IdxAddr { slot: u8, idx: u16 },
    /// Indexed data pop paired with an earlier `IdxAddr`.
    IdxRead { slot: u8, idx: u16 },
    /// Indexed write (address + value).
    IdxWrite { slot: u8, idx: u16 },
    /// Cluster scratchpad read.
    ScratchRead,
    /// Cluster scratchpad write.
    ScratchWrite,
    /// Static rotation permutation over the inter-cluster network.
    Comm { rotate: i32 },
    /// Static XOR (butterfly) permutation.
    CommXor { mask: u32 },
}

/// One pre-resolved micro-op. An operand it does not read is
/// `Opnd::default()`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    pub kind: MicroKind,
    /// Offset in a ring row of the dense context slot receiving the
    /// per-lane results ([`NO_DST`] when no live op reads this value).
    pub dst: u32,
    pub a: Opnd,
    pub b: Opnd,
    pub c: Opnd,
}

/// Micro-ops of one non-empty schedule slot `stage * ii + phase`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Group {
    /// Pipeline stage: while iteration `b` is the youngest in flight the
    /// group fires for iteration `b - stage`.
    pub stage: u32,
    /// `[start, end)` range into [`CompiledTape::ops`].
    pub ops: (u32, u32),
    /// Firing this group occupies the inter-cluster network (conditional
    /// stream coordination or explicit communication).
    pub comm_busy: bool,
}

/// One op that can stall, and the pipeline stage it fires in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Check {
    pub stage: u32,
    /// Index into [`CompiledTape::ops`].
    pub op: u32,
}

/// What fires in one phase `t mod ii`, as `[start, end)` ranges into
/// [`CompiledTape::groups`] and [`CompiledTape::checks`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Phase {
    pub groups: (u32, u32),
    pub checks: (u32, u32),
}

/// A kernel lowered against one schedule for one lane count: flat
/// micro-ops in the order the phases fire them, plus the context-ring
/// geometry.
///
/// Produced by [`cached_tape`]; executed by `KernelRun`.
#[derive(Debug)]
pub struct CompiledTape {
    /// One entry per phase (`ii` of them).
    pub(crate) phases: Box<[Phase]>,
    /// The non-empty schedule slots, phase-major and within a phase by
    /// descending stage, which is oldest iteration first.
    pub(crate) groups: Box<[Group]>,
    /// All live micro-ops, in `groups` order, op order within a group.
    pub(crate) ops: Box<[MicroOp]>,
    /// The stall-checkable subset of `ops`, in the same order.
    pub(crate) checks: Box<[Check]>,
    /// Every operand of `ops` read at a distance, by op and operand.
    pub(crate) warmups: Box<[Warmup]>,
    /// Context ring depth in iterations (power of two).
    pub(crate) depth: usize,
    /// `depth - 1`, for modulo indexing by iteration number.
    pub(crate) mask: u64,
    /// Words per ring row: `n_ctx * lane_stride`.
    pub(crate) row_words: usize,
    /// Words per context slot: the lane count the tape was specialized
    /// for, rounded up to whole chunks.
    pub(crate) lane_stride: usize,
    /// Ring bases a run keeps per iteration: one per distance `0..dists`
    /// at which a context slot is read (at least 1: results land at 0).
    pub(crate) dists: u32,
    /// Iteration-id bases: one per distance at which `IterId` is read (0
    /// when it is not).
    pub(crate) iter_dists: u32,
    /// The largest distance any operand reads at: from iteration `warm` on,
    /// every operand is its steady-state row.
    pub(crate) warm: u32,
}

impl CompiledTape {
    /// Total ring capacity in words (`depth * row_words`).
    pub(crate) fn ring_words(&self) -> usize {
        self.depth * self.row_words
    }

    /// Test support, not API: the lane rows (whole chunks) each micro-op of
    /// this tape, compiled from `kernel` for `lanes` lanes, reads as its
    /// three operands in tape order, at iteration `j` of a run whose
    /// context ring holds `ctx` once iterations up to `j` are active. An
    /// operand the op does not read yields some row.
    #[doc(hidden)]
    pub fn operand_rows(
        &self,
        kernel: &Kernel,
        lanes: usize,
        ctx: &[Word],
        j: u64,
    ) -> Vec<[Vec<Word>; 3]> {
        let mut ring = Ring::new(self, kernel, lanes);
        for k in self.depth as u64..=j {
            ring.activate(k);
        }
        ring.words[..self.ring_words()].copy_from_slice(ctx);
        let mut frame = ring.frame(self, j);
        (self.ops.iter().zip(0..))
            .map(|(mop, op)| {
                let at = frame.operands(op, mop);
                at.map(|at| frame.words[at..at + self.lane_stride].to_vec())
            })
            .collect()
    }
}

/// A run's context ring and the rows it appends past it, where every
/// operand reads: `words` is the ring (`ring_words`, what a snapshot
/// holds), then one constant row per constant producer of the kernel
/// ([`const_word`]), the iteration-id rows (one per ring row, holding the
/// id of the iteration in it, when the kernel reads `IterId`), three rows
/// a warm-up iteration stages `init` operands in, and a sink row for
/// results no op reads. Rows are `lane_stride` words; the ring's are
/// `row_words`.
#[derive(Debug)]
pub(crate) struct Ring {
    pub words: Vec<Word>,
    /// Per ring row `r`, `width` bases: where each [`Opnd::base`] points
    /// while the iteration firing sits in row `r`.
    bases: Vec<usize>,
    width: usize,
    mask: u64,
    row_words: usize,
    stride: usize,
    /// First iteration-id row, when the kernel reads `IterId`.
    ids: Option<usize>,
    /// First warm-up row; the sink follows the third.
    warm: usize,
}

impl Ring {
    /// The ring of a fresh run of `tape`, compiled from `kernel` for
    /// `lanes` lanes: context zeroed, iterations `0..depth` active.
    pub(crate) fn new(tape: &CompiledTape, kernel: &Kernel, lanes: usize) -> Ring {
        let (stride, depth, ring_words) = (tape.lane_stride, tape.depth, tape.ring_words());
        let consts = (kernel.ops.iter().map(|op| op.opcode))
            .filter(|&opc| const_word(opc, lanes, 0).is_some());
        let ids = ring_words + consts.clone().count() * stride;
        let id_rows = if tape.iter_dists > 0 { depth } else { 0 };
        let warm = ids + id_rows * stride;
        // One allocation of the final size: a ring can be hundreds of KiB.
        let mut words = vec![0; warm + 4 * stride];
        let rows = words[ring_words..ids].chunks_exact_mut(stride);
        for (row, opc) in rows.zip(consts) {
            for (lane, w) in row.iter_mut().enumerate() {
                *w = const_word(opc, lanes, lane).unwrap_or(0);
            }
        }
        let ids = (tape.iter_dists > 0).then_some(ids);
        let (dists, iter_dists) = (tape.dists as usize, tape.iter_dists as usize);
        let width = 1 + dists + iter_dists;
        let mut bases = Vec::with_capacity(depth * width);
        for r in 0..depth {
            // The ring row `d` iterations behind row `r` (`d < depth`).
            let back = |d: usize| (r + depth - d) % depth;
            bases.push(ring_words);
            bases.extend((0..dists).map(|d| back(d) * tape.row_words));
            let id_at = ids.unwrap_or(0);
            bases.extend((0..iter_dists).map(|d| id_at + back(d) * stride));
        }
        let mut ring = Ring {
            words,
            bases,
            width,
            mask: tape.mask,
            row_words: tape.row_words,
            stride,
            ids,
            warm,
        };
        ring.restore_ids(depth as u64);
        ring
    }

    /// Iteration `k` enters the pipeline: its ring row is zeroed (consumers
    /// read slots of not-yet-fired producers as 0) and its id recorded.
    pub(crate) fn activate(&mut self, k: u64) {
        let r = (k & self.mask) as usize;
        self.words[r * self.row_words..][..self.row_words].fill(0);
        if let Some(ids) = self.ids {
            self.words[ids + r * self.stride..][..self.stride].fill(k as Word);
        }
    }

    /// Rewrite the iteration-id rows of the iterations active when `next`
    /// is the first not yet activated (after a snapshot restore).
    pub(crate) fn restore_ids(&mut self, next: u64) {
        if let Some(ids) = self.ids {
            for k in next.saturating_sub(self.mask + 1)..next {
                let r = (k & self.mask) as usize;
                self.words[ids + r * self.stride..][..self.stride].fill(k as Word);
            }
        }
    }

    /// The rows, the bases pointing at iteration `j` of a run of `tape`:
    /// its ring row and those behind it, its id row and those behind it.
    /// In steady state, from iteration `tape.warm` on, the frame holds no
    /// warm-up entries and its operands never look for one.
    #[inline]
    pub(crate) fn frame<'a>(&'a mut self, tape: &'a CompiledTape, j: u64) -> Frame<'a> {
        let r = (j & self.mask) as usize;
        let steady = j >= u64::from(tape.warm);
        Frame {
            words: &mut self.words,
            bases: &self.bases[r * self.width..][..self.width],
            warmups: if steady { &[] } else { &tape.warmups },
            j,
            stride: self.stride,
            warm: self.warm,
        }
    }
}

/// A [`Ring`] with its bases pointing at iteration `j`: where the ops of
/// one group read and write.
pub(crate) struct Frame<'a> {
    pub words: &'a mut [Word],
    bases: &'a [usize],
    /// The tape's [`Warmup`]s before its steady state, else none.
    warmups: &'a [Warmup],
    j: u64,
    stride: usize,
    /// First warm-up row; the sink follows the third.
    warm: usize,
}

impl Frame<'_> {
    /// Where the operands of `mop`, the tape's op number `op`, read: a
    /// base plus an offset each, but for an operand still inside its own
    /// distance, which reads its `init` staged in a warm-up row.
    #[inline]
    pub(crate) fn operands(&mut self, op: u32, mop: &MicroOp) -> [usize; 3] {
        let mut at = [mop.a, mop.b, mop.c].map(|o| self.bases[o.base as usize] + o.off as usize);
        if !self.warmups.is_empty() {
            self.warm_up(op, &mut at);
        }
        at
    }

    /// Point each operand of op `op` that iteration `j` reads before its
    /// distance at a warm-up row holding its `init`.
    #[cold]
    fn warm_up(&mut self, op: u32, at: &mut [usize; 3]) {
        let from = self.warmups.partition_point(|w| w.op < op);
        for w in self.warmups[from..].iter().take_while(|w| w.op == op) {
            if self.j < u64::from(w.d) {
                let k = usize::from(w.k);
                at[k] = self.warm + k * self.stride;
                self.words[at[k]..at[k] + self.stride].fill(w.init);
            }
        }
    }

    /// Where a result for the context slot at `dst` in a ring row goes:
    /// there in the iteration's row, or the sink when no op reads it.
    #[inline]
    pub(crate) fn dst(&self, dst: u32) -> usize {
        if dst == NO_DST {
            self.warm + 3 * self.stride
        } else {
            self.bases[1] + dst as usize
        }
    }
}

fn is_free(opc: Opcode) -> bool {
    matches!(opc.class(), OpClass::Free)
}

/// Ops `exec_alu_rows` handles: pure, no machine-state side effects, safe
/// to drop when dead. (`ScratchRead` is also pure but is kept: its address
/// wraps at the scratchpad length.)
fn is_pure_alu(opc: Opcode) -> bool {
    matches!(opc.class(), OpClass::Alu | OpClass::Divider)
}

/// The word lane `lane` of a constant row holds, for a producer that has
/// one: every `Const`, `LaneCount` and `LaneId` op of a kernel, in op
/// order, gets a row that each run of its tapes appends past the ring
/// ([`Ring::new`]). Tapes store none of them.
pub(crate) fn const_word(opc: Opcode, lanes: usize, lane: usize) -> Option<Word> {
    match opc {
        Opcode::Const(w) => Some(w),
        Opcode::LaneCount => Some(lanes as Word),
        Opcode::LaneId => Some(lane as Word),
        _ => None,
    }
}

/// An operand's distance and the word every lane reads while the firing
/// iteration is below it.
type Carried = (u32, Word);

/// Where an operand reads, see [`Opnd`], and its [`Carried`] pair.
/// `row_of` is the context slot of every op read through the context and
/// the constant row of every constant producer, in words.
fn compile_opnd(kernel: &Kernel, row_of: &[u32], dists: u32, o: &Operand) -> (Opnd, Carried) {
    let v = o.value.index();
    let d = o.distance;
    let (base, off) = match kernel.ops[v].opcode {
        Opcode::IterId => (1 + dists + d, 0),
        opc if is_free(opc) => (CONST_BASE, row_of[v]),
        _ => (1 + d, row_of[v]),
    };
    (Opnd { base, off }, (d, o.init))
}

/// Whether an op of this kind can stall the kernel (pure arithmetic, the
/// scratchpad and the static permutations never do).
fn can_stall(kind: MicroKind) -> bool {
    matches!(
        kind,
        MicroKind::SeqRead { .. }
            | MicroKind::SeqWrite { .. }
            | MicroKind::CondLaneRead { .. }
            | MicroKind::CondRead { .. }
            | MicroKind::CondWrite { .. }
            | MicroKind::IdxAddr { .. }
            | MicroKind::IdxRead { .. }
            | MicroKind::IdxWrite { .. }
    )
}

/// A kernel's live micro-ops, per schedule slot, each with its operands'
/// [`Carried`] pairs, and the ring geometry they read.
struct Lowered {
    by_slot: Vec<Vec<(MicroOp, [Carried; 3])>>,
    n_ctx: u32,
    dists: u32,
    iter_dists: u32,
}

/// The live micro-ops of every schedule slot, and the context slots and
/// bases they use. Op order is preserved within a slot: ops fire as
/// `(iteration, op)` pairs sorted by op index, and stall attribution (which
/// blocker a stalled cycle names) depends on that order.
fn lower(kernel: &Kernel, sched: &Schedule, lanes: usize) -> Lowered {
    let n_ops = kernel.ops.len();
    let stride = lanes.next_multiple_of(CHUNK) as u32;

    // Which values are read through the context, and at what distances?
    // Free producers are read from the rows a run appends past its ring,
    // and the operand of an `IdxRead` is a scheduling token that is never
    // resolved at all.
    let mut ctx_read = vec![false; n_ops];
    let (mut dists, mut iter_dists) = (1, 0);
    for op in &kernel.ops {
        if matches!(op.opcode, Opcode::IdxRead(_)) {
            continue;
        }
        for o in &op.operands {
            match kernel.ops[o.value.index()].opcode {
                Opcode::IterId => iter_dists = iter_dists.max(o.distance + 1),
                opc if is_free(opc) => {}
                _ => {
                    ctx_read[o.value.index()] = true;
                    dists = dists.max(o.distance + 1);
                }
            }
        }
    }

    // Dense context slots and constant rows, in op order.
    let mut row_of = vec![0; n_ops];
    let (mut n_ctx, mut n_const) = (0, 0);
    for (i, op) in kernel.ops.iter().enumerate() {
        if ctx_read[i] {
            row_of[i] = n_ctx * stride;
            n_ctx += 1;
        } else if const_word(op.opcode, lanes, 0).is_some() {
            row_of[i] = n_const * stride;
            n_const += 1;
        }
    }

    // Live ops: everything except Free ops (consumers never read their
    // context, they never stall, they never set comm_busy) and dead pure
    // arithmetic.
    let live = |i: usize| {
        let opc = kernel.ops[i].opcode;
        !is_free(opc) && (ctx_read[i] || !is_pure_alu(opc))
    };

    // Indexed streams are numbered by declaration order, exactly as
    // `KernelRun::new` builds its `idx_states`.
    let mut idx_of_stream = vec![u16::MAX; kernel.streams.len()];
    let mut n_idx: u16 = 0;
    for (si, decl) in kernel.streams.iter().enumerate() {
        if decl.kind.is_indexed() {
            idx_of_stream[si] = n_idx;
            n_idx += 1;
        }
    }

    let mut by_slot: Vec<Vec<_>> = vec![Vec::new(); sched.span as usize];
    for (i, &s) in sched.slots.iter().enumerate() {
        if !live(i) {
            continue;
        }
        let op = &kernel.ops[i];
        let src = |k: usize| compile_opnd(kernel, &row_of, dists, &op.operands[k]);
        let zero = (Opnd::default(), (0, 0));
        use Opcode::*;
        let (kind, a, b, c) = match op.opcode {
            SeqRead(s) => (MicroKind::SeqRead { slot: s.0 }, zero, zero, zero),
            SeqWrite(s) => (MicroKind::SeqWrite { slot: s.0 }, src(0), zero, zero),
            CondLaneRead(s) => (MicroKind::CondLaneRead { slot: s.0 }, src(0), zero, zero),
            CondRead(s) => (MicroKind::CondRead { slot: s.0 }, src(0), zero, zero),
            CondWrite(s) => (MicroKind::CondWrite { slot: s.0 }, src(0), src(1), zero),
            IdxAddr(s) => (
                MicroKind::IdxAddr {
                    slot: s.0,
                    idx: idx_of_stream[s.0 as usize],
                },
                src(0),
                zero,
                zero,
            ),
            IdxRead(s) => (
                MicroKind::IdxRead {
                    slot: s.0,
                    idx: idx_of_stream[s.0 as usize],
                },
                zero,
                zero,
                zero,
            ),
            IdxWrite(s) => (
                MicroKind::IdxWrite {
                    slot: s.0,
                    idx: idx_of_stream[s.0 as usize],
                },
                src(0),
                src(1),
                zero,
            ),
            ScratchRead => (MicroKind::ScratchRead, src(0), zero, zero),
            ScratchWrite => (MicroKind::ScratchWrite, src(0), src(1), zero),
            Comm { rotate } => (MicroKind::Comm { rotate }, src(0), zero, zero),
            CommXor { mask } => (MicroKind::CommXor { mask }, src(0), zero, zero),
            opc => {
                debug_assert!(is_pure_alu(opc));
                let n = op.operands.len();
                (
                    MicroKind::Alu(opc),
                    if n > 0 { src(0) } else { zero },
                    if n > 1 { src(1) } else { zero },
                    if n > 2 { src(2) } else { zero },
                )
            }
        };
        let dst = if ctx_read[i] { row_of[i] } else { NO_DST };
        let [(a, ca), (b, cb), (c, cc)] = [a, b, c];
        by_slot[s as usize].push((MicroOp { kind, dst, a, b, c }, [ca, cb, cc]));
    }
    Lowered {
        by_slot,
        n_ctx,
        dists,
        iter_dists,
    }
}

/// The iteration a group of pipeline stage `stage` fires for while `base`
/// is the youngest iteration that may be in flight, if it is one of the
/// `iters`: the prologue (`stage > base`, where the subtraction wraps) and
/// the epilogue fail the one test.
#[inline]
pub(crate) fn iteration(base: u64, stage: u32, iters: u64) -> Option<u64> {
    let j = base.wrapping_sub(u64::from(stage));
    (j < iters).then_some(j)
}

/// Lower `kernel`/`sched` for `lanes` lanes. See the module docs for the
/// transformation; [`cached_tape`] is the memoized entry point.
pub(crate) fn compile(kernel: &Kernel, sched: &Schedule, lanes: usize) -> CompiledTape {
    let Lowered {
        by_slot,
        n_ctx,
        dists,
        iter_dists,
    } = lower(kernel, sched, lanes);
    let ii = sched.ii as usize;
    let mut ops = Vec::with_capacity(by_slot.iter().map(Vec::len).sum());
    let mut checks = Vec::new();
    let mut warmups = Vec::new();
    let mut groups = Vec::with_capacity(by_slot.iter().filter(|s| !s.is_empty()).count());
    let mut phases = Vec::with_capacity(ii);
    for p in 0..ii {
        let (groups_start, checks_start) = (groups.len() as u32, checks.len() as u32);
        // Slots `p`, `p + ii`, .. fire in this phase, the highest stage
        // first: it belongs to the oldest iteration in flight.
        for slot in (p..by_slot.len()).step_by(ii).rev() {
            if by_slot[slot].is_empty() {
                continue;
            }
            let stage = (slot / ii) as u32;
            let ops_start = ops.len() as u32;
            let mut comm_busy = false;
            for &(mop, carried) in &by_slot[slot] {
                comm_busy |= matches!(
                    mop.kind,
                    MicroKind::CondLaneRead { .. }
                        | MicroKind::CondRead { .. }
                        | MicroKind::CondWrite { .. }
                        | MicroKind::Comm { .. }
                        | MicroKind::CommXor { .. }
                );
                let op = ops.len() as u32;
                if can_stall(mop.kind) {
                    checks.push(Check { stage, op });
                }
                let read_back = (0..).zip(carried).filter(|&(_, (d, _))| d > 0);
                warmups.extend(read_back.map(|(k, (d, init))| Warmup { op, k, d, init }));
                ops.push(mop);
            }
            groups.push(Group {
                stage,
                ops: (ops_start, ops.len() as u32),
                comm_busy,
            });
        }
        phases.push(Phase {
            groups: (groups_start, groups.len() as u32),
            checks: (checks_start, checks.len() as u32),
        });
    }

    // Ring depth: at most `stages` iterations are in flight, and consumers
    // reach back `max_dist` iterations, so `stages + max_dist` rows are
    // simultaneously readable. One spare row plus rounding to a power of
    // two means a row is always fully dead by the time it is re-zeroed for
    // a new iteration.
    let max_dist = kernel
        .ops
        .iter()
        .flat_map(|o| o.operands.iter().map(|p| p.distance))
        .max()
        .unwrap_or(0);
    let depth = u64::from(sched.stages() + max_dist + 1).next_power_of_two() as usize;
    let lane_stride = lanes.next_multiple_of(CHUNK);

    CompiledTape {
        phases: phases.into_boxed_slice(),
        groups: groups.into_boxed_slice(),
        ops: ops.into_boxed_slice(),
        checks: checks.into_boxed_slice(),
        warmups: warmups.into_boxed_slice(),
        depth,
        mask: depth as u64 - 1,
        row_words: n_ctx as usize * lane_stride,
        lane_stride,
        dists,
        iter_dists,
        warm: max_dist,
    }
}

/// Compile (or fetch) the tape for `(kernel, sched, lanes)`.
///
/// [`TAPES`] is process-wide and keyed by content hash, so structurally
/// identical kernels — across machine instances, strip-mined invocations
/// and parallel sweep workers — compile once while the entry is resident.
pub fn cached_tape(kernel: &Kernel, sched: &Schedule, lanes: usize) -> Arc<CompiledTape> {
    let key = (kernel_hash(kernel), schedule_hash(sched), lanes);
    let compile = || Ok::<_, Infallible>(compile(kernel, sched, lanes));
    let Ok(tape) = TAPES.get_or_try_insert_with(key, 1, compile);
    tape
}

/// Tapes kept, two generations of 768. `admit_cold` compiles 410 distinct
/// tapes per 512-job pass and re-reads one four or five times a pass, at most
/// 452 admissions apart and never two passes: 768 loses none of those hits,
/// 512 would in one run of twenty (DESIGN.md §11). Not more: a full memo holds
/// 10.6 MiB of `admit_cold`'s 28.9 MiB peak RSS (what a budget of 16 saves),
/// about 7 KiB a tape.
pub const TAPE_BUDGET: u64 = 1536;

/// The process-wide memo behind [`cached_tape`].
pub static TAPES: Memo<(u128, u128, usize), CompiledTape> = Memo::new(TAPE_BUDGET);

/// Process-lifetime `(hits, misses)` of [`TAPES`] (a lost insert race still
/// counts as a miss — the compilation really happened).
pub fn tape_cache_stats() -> (u64, u64) {
    let [(_, hits), (_, misses), ..] = TAPES.stats();
    (hits, misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::{ConfigName, MachineConfig};
    use isrf_kernel::ir::{KernelBuilder, Operand, StreamKind, ValueId};
    use isrf_kernel::sched::{schedule, SchedParams};

    fn lowered() -> (Kernel, Schedule) {
        let mut b = KernelBuilder::new("t");
        let i = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(i);
        let k = b.constant(7);
        let y = b.mul(x, k);
        let dead = b.add(x, k);
        let _ = dead; // dead pure op: dropped from the tape
        b.seq_write(o, y);
        let kernel = b.build().unwrap();
        let p = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Base));
        let s = schedule(&kernel, &p).unwrap();
        (kernel, s)
    }

    #[test]
    fn folds_constants_and_drops_dead_ops() {
        let (kernel, sched) = lowered();
        let tape = compile(&kernel, &sched, 8);
        // Live: seq_read, mul, seq_write. Dropped: const (Free), dead add.
        assert_eq!(tape.ops.len(), 3);
        // Ctx slots: only seq_read and mul results are read.
        assert_eq!(tape.row_words, 2 * 8);
        let mul = tape
            .ops
            .iter()
            .find(|m| matches!(m.kind, MicroKind::Alu(Opcode::Mul)))
            .expect("mul survives");
        // `x` from this iteration's row, `7` from the first constant row.
        assert_eq!((mul.a.base, mul.a.off), (1, 0));
        assert_eq!((mul.b.base, mul.b.off), (CONST_BASE, 0));
        assert_eq!((tape.dists, tape.iter_dists), (1, 0));
        // Nothing is read at a distance.
        assert!(tape.warmups.is_empty());
        // Stall checks cover exactly the two stream ops.
        assert_eq!(tape.checks.len(), 2);
        assert!(tape.depth.is_power_of_two());
        assert!(tape.depth as u32 >= sched.stages());
    }

    /// A resident tape costs its micro-ops: an operand is a base and an
    /// offset, its distance and `init` live in the warm-up table, and a
    /// tape stores no constant rows (a run appends them). 60 bytes while
    /// every operand carried its own distance and `init`.
    #[test]
    fn micro_ops_stay_within_forty_bytes() {
        assert!(std::mem::size_of::<MicroOp>() <= 40);
    }

    /// One firing: `(iteration, schedule slot, position among the slot's
    /// live ops)`.
    type Firing = (u64, usize, usize);

    /// The sequencer's walk as it was while groups were indexed by
    /// schedule slot: at kernel cycle `t` every iteration in flight, oldest
    /// first, looks up the slot it has reached.
    fn slot_walk<T>(by_slot: &[Vec<T>], ii: u64, iters: u64, t: u64) -> Vec<Firing> {
        let span = by_slot.len() as u64;
        let j_hi = (t / ii).min(iters.saturating_sub(1));
        let j_lo = if t >= span { (t - span) / ii + 1 } else { 0 };
        let mut fired = Vec::new();
        for j in j_lo..=j_hi {
            let slot = t - j * ii;
            if slot >= span {
                continue;
            }
            let slot = slot as usize;
            fired.extend((0..by_slot[slot].len()).map(|k| (j, slot, k)));
        }
        fired
    }

    /// For every kernel cycle of an `iters`-iteration run, the phase lists
    /// fire the `(iteration, op)` sequence the slot walk fires and scan the
    /// checks it scans, in its order.
    fn assert_phase_lists_match_slot_walk(kernel: &Kernel, sched: &Schedule, iters: u64) {
        let by_slot = lower(kernel, sched, 8).by_slot;
        let tape = compile(kernel, sched, 8);
        let ii = u64::from(sched.ii);
        assert_eq!(tape.phases.len() as u64, ii);
        // Where each tape op came from, and that it is that op.
        let mut origin = vec![(usize::MAX, 0); tape.ops.len()];
        for (p, phase) in tape.phases.iter().enumerate() {
            for g in &tape.groups[phase.groups.0 as usize..phase.groups.1 as usize] {
                let slot = g.stage as usize * ii as usize + p;
                assert_eq!((g.ops.1 - g.ops.0) as usize, by_slot[slot].len());
                for (k, op) in (g.ops.0..g.ops.1).enumerate() {
                    origin[op as usize] = (slot, k);
                    let (got, (want, carried)) = (tape.ops[op as usize], by_slot[slot][k]);
                    assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    // Its warm-up entries are the operands it reads back.
                    let warm = tape.warmups.iter().filter(|w| w.op == op);
                    let warm: Vec<_> = warm.map(|w| (usize::from(w.k), (w.d, w.init))).collect();
                    let read_back = carried.into_iter().enumerate().filter(|c| c.1 .0 > 0);
                    assert_eq!(warm, read_back.collect::<Vec<_>>());
                }
            }
        }
        assert!(
            origin.iter().all(|o| o.0 != usize::MAX),
            "an op in no group"
        );
        // `Frame::warm_up` searches the table by op.
        let keys: Vec<_> = tape.warmups.iter().map(|w| (w.op, w.k)).collect();
        assert!(keys.windows(2).all(|p| p[0] < p[1]), "{keys:?}");
        let exec_end = (iters - 1) * ii + u64::from(sched.completion);
        for t in 0..exec_end {
            let (phase, base) = (tape.phases[(t % ii) as usize], t / ii);
            let mut fired = Vec::new();
            for g in &tape.groups[phase.groups.0 as usize..phase.groups.1 as usize] {
                if let Some(j) = iteration(base, g.stage, iters) {
                    fired.extend((g.ops.0..g.ops.1).map(|op| {
                        let (slot, k) = origin[op as usize];
                        (j, slot, k)
                    }));
                }
            }
            let old = slot_walk(&by_slot, ii, iters, t);
            assert_eq!(fired, old, "firing at t = {t} of {exec_end}");
            let scanned: Vec<Firing> = tape.checks
                [phase.checks.0 as usize..phase.checks.1 as usize]
                .iter()
                .filter_map(|c| {
                    let (slot, k) = origin[c.op as usize];
                    iteration(base, c.stage, iters).map(|j| (j, slot, k))
                })
                .collect();
            let old_scan: Vec<Firing> = old
                .into_iter()
                .filter(|&(_, slot, k)| can_stall(by_slot[slot][k].0.kind))
                .collect();
            assert_eq!(scanned, old_scan, "stall scan at t = {t} of {exec_end}");
        }
    }

    #[test]
    fn phase_lists_match_the_slot_walk_on_every_app_kernel() {
        use isrf::apps::{prepare_app, Profile, APPS};
        use isrf::sim::program::ProgOp;
        let mut seen = std::collections::BTreeSet::new();
        for (app, cfg) in APPS.iter().flat_map(|a| ConfigName::ALL.map(|c| (a, c))) {
            let pr = prepare_app(app, cfg, Profile::Small);
            for i in 0..pr.program.len() {
                let (
                    ProgOp::Kernel {
                        kernel,
                        schedule,
                        iters,
                        ..
                    },
                    _,
                ) = pr.program.node(i)
                else {
                    continue;
                };
                if *iters == 0 || !seen.insert((Arc::as_ptr(kernel), Arc::as_ptr(schedule))) {
                    continue;
                }
                // A run shorter than the pipeline is deep, and one with a
                // steady state between prologue and epilogue.
                let stages = u64::from(schedule.stages());
                for iters in [1, stages.saturating_sub(1).max(1), (stages + 3).min(*iters)] {
                    assert_phase_lists_match_slot_walk(kernel, schedule, iters);
                }
            }
        }
        assert!(seen.len() >= APPS.len(), "every app runs a kernel");
    }

    proptest::proptest! {
        /// Arbitrary schedules, dependences ignored (nothing executes):
        /// `ii = 1`, spans shorter than `ii`, runs shorter than the
        /// pipeline is deep, empty slots and crowded ones.
        #[test]
        fn phase_lists_match_the_slot_walk_on_random_schedules(
            ii in 1u32..7,
            slots in proptest::collection::vec(0u32..24, 9),
            drain in 0u32..6,
            iters in 1u64..10,
        ) {
            let mut b = KernelBuilder::new("walk");
            let i = b.stream("in", StreamKind::SeqIn);
            let o = b.stream("out", StreamKind::SeqOut);
            let mut x = b.seq_read(i);
            let k = b.constant(3);
            // The first add also reads the last one's value (op 7) two
            // iterations back, so the tape has a warm-up table.
            x = b.add(x, Operand::carried(ValueId(7), 2, 9));
            for _ in 0..5 {
                x = b.add(x, k);
            }
            b.seq_write(o, x);
            let kernel = b.build().unwrap();
            assert_eq!(kernel.ops.len(), slots.len());
            let span = slots.iter().max().unwrap() + 1;
            let sched = Schedule { ii, slots, span, completion: span + drain };
            assert_phase_lists_match_slot_walk(&kernel, &sched, iters);
        }
    }

    #[test]
    fn cached_tape_is_shared_by_content() {
        let (kernel, sched) = lowered();
        let a = cached_tape(&kernel, &sched, 8);
        let mut renamed = kernel.clone();
        renamed.name = "other".into();
        let b = cached_tape(&renamed, &sched, 8);
        assert!(Arc::ptr_eq(&a, &b), "name does not affect the content key");
        let c = cached_tape(&kernel, &sched, 4);
        assert!(!Arc::ptr_eq(&a, &c), "lane count is part of the key");
    }
}
