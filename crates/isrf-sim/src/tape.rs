//! Kernel tape compilation: lower a scheduled kernel once into a flat,
//! pre-resolved micro-op program for the zero-graph-walk hot loop.
//!
//! Walking the kernel DAG every cycle means every operand resolve re-reads
//! the producing op, matches on its opcode to special-case the Free
//! producers (`Const`/`LaneId`/`LaneCount`/`IterId`), and indexes a queue
//! of per-iteration contexts. This module performs all of that
//! decision-making once per `(Kernel, Schedule, lanes)` triple:
//!
//! * operand sources fold to `Src` values — immediates, lane/iteration
//!   specializations, or direct dense context-slot reads;
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
//! `tests/golden/basket.digest` and the digest beside the random-kernel
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

/// Sentinel context slot for ops whose value is never read.
pub(crate) const NO_DST: u16 = u16::MAX;

/// A pre-resolved operand source.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// Compile-time constant (`Const`, `LaneCount`, folded inits).
    Imm(Word),
    /// The lane index (`LaneId` producer at distance 0).
    Lane,
    /// The iteration id `j - d`, or `init` while `j < d`.
    Iter { d: u32, init: Word },
    /// A constant once `j >= d`, `init` before (carried `Const`/`LaneCount`).
    CarriedImm { d: u32, init: Word, val: Word },
    /// The lane index once `j >= d`, `init` before (carried `LaneId`).
    CarriedLane { d: u32, init: Word },
    /// Context slot of the current iteration (distance 0).
    Ctx0 { slot: u16 },
    /// Context slot of iteration `j - d`, or `init` while `j < d`.
    Ctx { slot: u16, d: u32, init: Word },
}

/// Lanes per row chunk: context rows are padded to a multiple of it, so
/// every operand reads as whole `[Word; CHUNK]` arrays.
pub(crate) const CHUNK: usize = 8;

/// Source fully resolved for one `(op, iteration)`: a lane row, read a
/// chunk at a time by [`row_chunk`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum RSrc {
    /// A constant for every lane.
    Imm(Word),
    /// The lane index itself.
    Lane,
    /// The context row starting at `ring[base]`.
    Base(usize),
}

/// Kind of one tape micro-op (the single dispatch point of the hot loop).
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroKind {
    /// Pure arithmetic, evaluated by `exec_alu_rows`.
    Alu(Opcode),
    /// Sequential stream pop, all lanes (its condition source is the
    /// constant 1).
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

/// One pre-resolved micro-op. Unused sources are `Src::Imm(0)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    pub kind: MicroKind,
    /// Dense context slot receiving the per-lane results ([`NO_DST`] when
    /// no live op reads this value).
    pub dst: u16,
    pub a: Src,
    pub b: Src,
    pub c: Src,
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
    pub(crate) phases: Vec<Phase>,
    /// The non-empty schedule slots, phase-major and within a phase by
    /// descending stage, which is oldest iteration first.
    pub(crate) groups: Vec<Group>,
    /// All live micro-ops, in `groups` order, op order within a group.
    pub(crate) ops: Vec<MicroOp>,
    /// The stall-checkable subset of `ops`, in the same order.
    pub(crate) checks: Vec<Check>,
    /// Context ring depth in iterations (power of two).
    pub(crate) depth: usize,
    /// `depth - 1`, for modulo indexing by iteration number.
    pub(crate) mask: u64,
    /// Words per ring row: `n_ctx * lane_stride`.
    pub(crate) row_words: usize,
    /// Words per context slot: the lane count the tape was specialized
    /// for, rounded up to whole chunks.
    pub(crate) lane_stride: usize,
}

impl CompiledTape {
    /// Total ring capacity in words (`depth * row_words`).
    pub(crate) fn ring_words(&self) -> usize {
        self.depth * self.row_words
    }

    /// Resolve `s` for iteration `j` down to a per-lane read.
    #[inline]
    pub(crate) fn rsrc(&self, s: Src, j: u64) -> RSrc {
        match s {
            Src::Imm(w) => RSrc::Imm(w),
            Src::Lane => RSrc::Lane,
            Src::Iter { d, init } => {
                if u64::from(d) > j {
                    RSrc::Imm(init)
                } else {
                    RSrc::Imm((j - u64::from(d)) as Word)
                }
            }
            Src::CarriedImm { d, init, val } => {
                RSrc::Imm(if u64::from(d) > j { init } else { val })
            }
            Src::CarriedLane { d, init } => {
                if u64::from(d) > j {
                    RSrc::Imm(init)
                } else {
                    RSrc::Lane
                }
            }
            Src::Ctx0 { slot } => RSrc::Base(self.row_base(j, slot)),
            Src::Ctx { slot, d, init } => {
                if u64::from(d) > j {
                    RSrc::Imm(init)
                } else {
                    RSrc::Base(self.row_base(j - u64::from(d), slot))
                }
            }
        }
    }

    /// Ring offset of `(iteration j, context slot)` lane 0.
    #[inline]
    pub(crate) fn row_base(&self, j: u64, slot: u16) -> usize {
        (j & self.mask) as usize * self.row_words + slot as usize * self.lane_stride
    }
}

/// Chunk `c` (lanes `c * CHUNK..`) of a resolved source: one match per
/// chunk is all the dispatch an operand costs. Lanes past the machine's
/// last hold whatever the same arithmetic makes of them, never read out.
#[inline]
pub(crate) fn row_chunk(ring: &[Word], r: RSrc, c: usize) -> [Word; CHUNK] {
    match r {
        RSrc::Imm(w) => [w; CHUNK],
        RSrc::Lane => std::array::from_fn(|i| (c * CHUNK + i) as Word),
        RSrc::Base(b) => {
            let row = &ring[b + c * CHUNK..][..CHUNK];
            row.try_into().expect("a chunk-long slice")
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

fn compile_src(kernel: &Kernel, ctx_slot: &[u16], lanes: usize, o: &Operand) -> Src {
    let producer = kernel.ops[o.value.index()].opcode;
    let d = o.distance;
    match producer {
        Opcode::Const(w) => {
            if d == 0 {
                Src::Imm(w)
            } else {
                Src::CarriedImm {
                    d,
                    init: o.init,
                    val: w,
                }
            }
        }
        Opcode::LaneCount => {
            if d == 0 {
                Src::Imm(lanes as Word)
            } else {
                Src::CarriedImm {
                    d,
                    init: o.init,
                    val: lanes as Word,
                }
            }
        }
        Opcode::LaneId => {
            if d == 0 {
                Src::Lane
            } else {
                Src::CarriedLane { d, init: o.init }
            }
        }
        Opcode::IterId => Src::Iter { d, init: o.init },
        _ => {
            let slot = ctx_slot[o.value.index()];
            debug_assert_ne!(slot, NO_DST, "ctx-read of an unslotted value");
            if d == 0 {
                Src::Ctx0 { slot }
            } else {
                Src::Ctx {
                    slot,
                    d,
                    init: o.init,
                }
            }
        }
    }
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

/// The live micro-ops of every schedule slot, and how many context slots
/// they use. Op order is preserved within a slot: ops fire as `(iteration,
/// op)` pairs sorted by op index, and stall attribution (which blocker a
/// stalled cycle names) depends on that order.
fn lower(kernel: &Kernel, sched: &Schedule, lanes: usize) -> (Vec<Vec<MicroOp>>, u16) {
    let n_ops = kernel.ops.len();

    // Which values are read through the context? Free producers are
    // resolved inline by consumers (folded into `Src`), and the operand of
    // an `IdxRead` is a scheduling token that is never resolved at all.
    let mut ctx_read = vec![false; n_ops];
    for op in &kernel.ops {
        if matches!(op.opcode, Opcode::IdxRead(_)) {
            continue;
        }
        for o in &op.operands {
            if !is_free(kernel.ops[o.value.index()].opcode) {
                ctx_read[o.value.index()] = true;
            }
        }
    }

    // Dense context slots, in op order.
    let mut ctx_slot = vec![NO_DST; n_ops];
    let mut n_ctx: u16 = 0;
    for i in 0..n_ops {
        if ctx_read[i] {
            ctx_slot[i] = n_ctx;
            n_ctx += 1;
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

    let mut by_slot: Vec<Vec<MicroOp>> = vec![Vec::new(); sched.span as usize];
    for (i, &s) in sched.slots.iter().enumerate() {
        if !live(i) {
            continue;
        }
        let op = &kernel.ops[i];
        let src = |k: usize| compile_src(kernel, &ctx_slot, lanes, &op.operands[k]);
        let zero = Src::Imm(0);
        use Opcode::*;
        let (kind, a, b, c) = match op.opcode {
            SeqRead(s) => (MicroKind::SeqRead { slot: s.0 }, Src::Imm(1), zero, zero),
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
        let dst = ctx_slot[i];
        by_slot[s as usize].push(MicroOp { kind, dst, a, b, c });
    }
    (by_slot, n_ctx)
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
    let (by_slot, n_ctx) = lower(kernel, sched, lanes);
    let ii = sched.ii as usize;
    let mut ops: Vec<MicroOp> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut phases: Vec<Phase> = Vec::with_capacity(ii);
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
            for &mop in &by_slot[slot] {
                comm_busy |= matches!(
                    mop.kind,
                    MicroKind::CondLaneRead { .. }
                        | MicroKind::CondRead { .. }
                        | MicroKind::CondWrite { .. }
                        | MicroKind::Comm { .. }
                        | MicroKind::CommXor { .. }
                );
                if can_stall(mop.kind) {
                    let op = ops.len() as u32;
                    checks.push(Check { stage, op });
                }
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
        phases,
        groups,
        ops,
        checks,
        depth,
        mask: depth as u64 - 1,
        row_words: usize::from(n_ctx) * lane_stride,
        lane_stride,
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
/// 512 would in one run of twenty (DESIGN.md §11). Not more: a resident tape
/// costs 18 KiB of peak RSS.
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
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
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
        assert!(matches!(mul.a, Src::Ctx0 { .. }));
        assert!(matches!(mul.b, Src::Imm(7)));
        // Stall checks cover exactly the two stream ops.
        assert_eq!(tape.checks.len(), 2);
        assert!(tape.depth.is_power_of_two());
        assert!(tape.depth as u32 >= sched.stages());
    }

    /// One firing: `(iteration, schedule slot, position among the slot's
    /// live ops)`.
    type Firing = (u64, usize, usize);

    /// The sequencer's walk as it was while groups were indexed by
    /// schedule slot: at kernel cycle `t` every iteration in flight, oldest
    /// first, looks up the slot it has reached.
    fn slot_walk(by_slot: &[Vec<MicroOp>], ii: u64, iters: u64, t: u64) -> Vec<Firing> {
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
        let (by_slot, _) = lower(kernel, sched, 8);
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
                    let (got, want) = (tape.ops[op as usize], by_slot[slot][k]);
                    assert_eq!(format!("{got:?}"), format!("{want:?}"));
                }
            }
        }
        assert!(
            origin.iter().all(|o| o.0 != usize::MAX),
            "an op in no group"
        );
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
                .filter(|&(_, slot, k)| can_stall(by_slot[slot][k].kind))
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
            for _ in 0..6 {
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
