//! Lock-step: the operands a compiled tape reads against the per-op
//! resolution they replaced.
//!
//! `mod reference` is that resolution as it stood: every operand of a live
//! op lowered to a `Src` (an immediate, the lane id, the iteration id, a
//! loop-carried constant or lane id, a context slot at some distance),
//! resolved for the firing iteration `j` to an `RSrc` by `rsrc` — the
//! `d > j` test, the row-base multiply — and read a chunk at a time by
//! `row_chunk` into a staging row (`stage`). The executor in `src/` reads
//! pre-resolved operands instead: a ring offset behind the iteration's row
//! or a constant row its run appends past the ring, `init` staged only
//! while an iteration is inside an operand's distance.
//!
//! For every micro-op of every tape, in tape order, and every iteration
//! from the first through two laps of the ring — warm-up (`j < d`), ring
//! wrap-around, carried constants and lane ids, `IterId` — both must read
//! the same lane rows, whole chunks, over random context contents. The
//! kernels are the random `Recipe` corpus on 4 (half a chunk), 8 and 16
//! lanes, and every app kernel on 8. `SeqRead`'s condition was the
//! constant 1 and is no row now (it pops every lane; `seq_buffers.rs`
//! holds that to the all-ones row), so it is not compared.

use std::collections::BTreeSet;
use std::sync::Arc;

use isrf::apps::{prepare_app, Profile, APPS};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_gen::Recipe;
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::Schedule;
use isrf_sim::{cached_tape, ProgOp, StreamProgram};
use proptest::test_runner::TestRng;

mod reference {
    use isrf_core::Word;
    use isrf_kernel::ir::{Kernel, OpClass, Opcode, Operand};
    use isrf_kernel::sched::Schedule;

    const NO_DST: u16 = u16::MAX;
    pub const CHUNK: usize = 8;

    /// A pre-resolved operand source.
    #[derive(Debug, Clone, Copy)]
    pub enum Src {
        /// Compile-time constant (`Const`, `LaneCount`).
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

    impl Src {
        /// The kind's name, and whether iteration `j` is inside the
        /// operand's distance: what the test counts to show its coverage.
        pub fn kind(self, j: u64) -> (&'static str, bool) {
            let warm = |d: u32| u64::from(d) > j;
            match self {
                Src::Imm(_) => ("imm", false),
                Src::Lane => ("lane", false),
                Src::Iter { d, .. } => ("iter", warm(d)),
                Src::CarriedImm { d, .. } => ("carried imm", warm(d)),
                Src::CarriedLane { d, .. } => ("carried lane", warm(d)),
                Src::Ctx0 { .. } => ("ctx0", false),
                Src::Ctx { d, .. } => ("ctx", warm(d)),
            }
        }
    }

    /// Source fully resolved for one `(op, iteration)`.
    #[derive(Debug, Clone, Copy)]
    enum RSrc {
        Imm(Word),
        Lane,
        /// The context row starting at `ring[base]`.
        Base(usize),
    }

    /// A kernel's live ops as the tape lowered them, in tape order, with
    /// the ring geometry.
    pub struct Lowered {
        /// Per op, the sources it reads (`None`: not an operand).
        pub ops: Vec<[Option<Src>; 3]>,
        pub ring_words: usize,
        pub lane_stride: usize,
        /// Ring depth in iterations.
        pub depth: usize,
        mask: u64,
        row_words: usize,
    }

    fn is_free(opc: Opcode) -> bool {
        matches!(opc.class(), OpClass::Free)
    }

    fn is_pure_alu(opc: Opcode) -> bool {
        matches!(opc.class(), OpClass::Alu | OpClass::Divider)
    }

    fn compile_src(kernel: &Kernel, ctx_slot: &[u16], lanes: usize, o: &Operand) -> Src {
        let d = o.distance;
        match kernel.ops[o.value.index()].opcode {
            Opcode::Const(w) if d == 0 => Src::Imm(w),
            Opcode::Const(val) => Src::CarriedImm {
                d,
                init: o.init,
                val,
            },
            Opcode::LaneCount if d == 0 => Src::Imm(lanes as Word),
            Opcode::LaneCount => Src::CarriedImm {
                d,
                init: o.init,
                val: lanes as Word,
            },
            Opcode::LaneId if d == 0 => Src::Lane,
            Opcode::LaneId => Src::CarriedLane { d, init: o.init },
            Opcode::IterId => Src::Iter { d, init: o.init },
            _ => {
                let slot = ctx_slot[o.value.index()];
                assert_ne!(slot, NO_DST, "ctx-read of an unslotted value");
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

    /// How many of an op's operands the executor resolves.
    fn read(opc: Opcode, arity: usize) -> usize {
        use Opcode::*;
        match opc {
            SeqRead(_) | IdxRead(_) => 0,
            SeqWrite(_)
            | CondLaneRead(_)
            | CondRead(_)
            | IdxAddr(_)
            | ScratchRead
            | Comm { .. }
            | CommXor { .. } => 1,
            CondWrite(_) | IdxWrite(_) | ScratchWrite => 2,
            _ => arity,
        }
    }

    pub fn lower(kernel: &Kernel, sched: &Schedule, lanes: usize) -> Lowered {
        let n_ops = kernel.ops.len();
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
        let mut ctx_slot = vec![NO_DST; n_ops];
        let mut n_ctx = 0;
        for (i, read) in ctx_read.iter().enumerate() {
            if *read {
                ctx_slot[i] = n_ctx;
                n_ctx += 1;
            }
        }
        let live = |i: usize| {
            let opc = kernel.ops[i].opcode;
            !is_free(opc) && (ctx_read[i] || !is_pure_alu(opc))
        };
        let mut by_slot: Vec<Vec<[Option<Src>; 3]>> = vec![Vec::new(); sched.span as usize];
        for (i, &s) in sched.slots.iter().enumerate() {
            if !live(i) {
                continue;
            }
            let op = &kernel.ops[i];
            let n = read(op.opcode, op.operands.len());
            let src =
                |k: usize| (k < n).then(|| compile_src(kernel, &ctx_slot, lanes, &op.operands[k]));
            by_slot[s as usize].push([src(0), src(1), src(2)]);
        }
        // Phase-major; within a phase the highest stage (oldest iteration)
        // first.
        let ii = sched.ii as usize;
        let mut ops = Vec::new();
        for p in 0..ii {
            for slot in (p..by_slot.len()).step_by(ii).rev() {
                ops.extend_from_slice(&by_slot[slot]);
            }
        }
        let max_dist = kernel
            .ops
            .iter()
            .flat_map(|o| o.operands.iter().map(|p| p.distance))
            .max()
            .unwrap_or(0);
        let depth = u64::from(sched.stages() + max_dist + 1).next_power_of_two() as usize;
        let lane_stride = lanes.next_multiple_of(CHUNK);
        let row_words = usize::from(n_ctx) * lane_stride;
        Lowered {
            ops,
            ring_words: depth * row_words,
            lane_stride,
            depth,
            mask: depth as u64 - 1,
            row_words,
        }
    }

    impl Lowered {
        fn row_base(&self, j: u64, slot: u16) -> usize {
            (j & self.mask) as usize * self.row_words + slot as usize * self.lane_stride
        }

        fn rsrc(&self, s: Src, j: u64) -> RSrc {
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

        /// `s` at iteration `j` over `ring`, as the staging row it was
        /// read into: whole chunks.
        pub fn stage(&self, ring: &[Word], s: Src, j: u64) -> Vec<Word> {
            let r = self.rsrc(s, j);
            let mut buf = vec![0; self.lane_stride];
            for (c, chunk) in buf.chunks_exact_mut(CHUNK).enumerate() {
                chunk.copy_from_slice(&row_chunk(ring, r, c));
            }
            buf
        }
    }

    fn row_chunk(ring: &[Word], r: RSrc, c: usize) -> [Word; CHUNK] {
        match r {
            RSrc::Imm(w) => [w; CHUNK],
            RSrc::Lane => std::array::from_fn(|i| (c * CHUNK + i) as Word),
            RSrc::Base(b) => ring[b + c * CHUNK..][..CHUNK]
                .try_into()
                .expect("a chunk-long slice"),
        }
    }
}

/// Every operand row of every tape op at iterations `0..2 * depth + 3`
/// equals the reference's; returns what was compared, by source kind and
/// whether the iteration was inside the operand's distance.
fn assert_operands_match(
    kernel: &Kernel,
    sched: &Schedule,
    lanes: usize,
    rng: &mut TestRng,
    seen: &mut BTreeSet<(&'static str, bool)>,
) {
    let tape = cached_tape(kernel, sched, lanes);
    let old = reference::lower(kernel, sched, lanes);
    for j in 0..2 * old.depth as u64 + 3 {
        let ctx: Vec<Word> = (0..old.ring_words).map(|_| rng.next_u32()).collect();
        let new = tape.operand_rows(kernel, lanes, &ctx, j);
        assert_eq!(new.len(), old.ops.len(), "{}: tape ops", kernel.name);
        for (op, (got, want)) in new.iter().zip(&old.ops).enumerate() {
            for (k, src) in want.iter().enumerate() {
                let Some(src) = *src else { continue };
                seen.insert(src.kind(j));
                assert_eq!(
                    got[k],
                    old.stage(&ctx, src, j),
                    "{} on {lanes} lanes: op {op} operand {k} ({src:?}) at iteration {j}",
                    kernel.name
                );
            }
        }
    }
}

/// The kernel ops of `program`.
fn kernels(program: &StreamProgram) -> impl Iterator<Item = (&Arc<Kernel>, &Arc<Schedule>)> {
    (0..program.len()).filter_map(|i| match program.node(i).0 {
        ProgOp::Kernel {
            kernel, schedule, ..
        } => Some((kernel, schedule)),
        _ => None,
    })
}

#[test]
fn pre_resolved_operands_read_what_per_op_resolution_read() {
    let mut rng = TestRng::deterministic("isrf-sim::operand_lockstep");
    let mut seen = BTreeSet::new();
    let mut tapes = 0;
    for r in Recipe::corpus(48) {
        for lanes in [4, 8, 16] {
            for &cfg in r.configs() {
                let mut mcfg = MachineConfig::preset(cfg);
                mcfg.lanes = lanes;
                let Some(g) = r.generate(&mcfg) else {
                    continue;
                };
                for (kernel, sched) in kernels(&g.program) {
                    assert_operands_match(kernel, sched, lanes, &mut rng, &mut seen);
                    tapes += 1;
                }
            }
        }
    }
    let mut shared = BTreeSet::new();
    for (app, cfg) in APPS.iter().flat_map(|a| ConfigName::ALL.map(|c| (a, c))) {
        let pr = prepare_app(app, cfg, Profile::Small);
        for (kernel, sched) in kernels(&pr.program) {
            if shared.insert((Arc::as_ptr(kernel), Arc::as_ptr(sched))) {
                assert_operands_match(kernel, sched, 8, &mut rng, &mut seen);
                tapes += 1;
            }
        }
    }
    assert!(tapes >= 150, "only {tapes} tapes compared");
    // Every source kind, and each loop-carried one inside its distance too.
    for kind in [
        "imm",
        "lane",
        "iter",
        "carried imm",
        "carried lane",
        "ctx0",
        "ctx",
    ] {
        assert!(seen.contains(&(kind, false)), "no {kind} operand compared");
    }
    for kind in ["iter", "carried imm", "carried lane", "ctx"] {
        assert!(seen.contains(&(kind, true)), "no {kind} operand in warm-up");
    }
}
