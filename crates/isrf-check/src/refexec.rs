//! Timing-free functional reference executor.
//!
//! [`RefMachine`] interprets a [`StreamProgram`] against cloned machine
//! state (SRF, memory, scratchpads) using only the ISA semantics:
//!
//! * program ops execute one at a time in index order (a topological
//!   order, since dependence edges always point backward);
//! * kernels run iteration-major — iteration `j`'s ops in operation
//!   order, every lane of an op before the next op — which is exactly the
//!   per-stream access order the scheduler's ordering chains guarantee;
//!   each operand resolves once per iteration, by the oracle's own rule,
//!   to `init`, a constant, the lane or iteration id, or the producer's
//!   lanes in a ring of `max distance + 1` context rows;
//! * stream cursor/windowing semantics are *shared with the simulator* by
//!   reusing [`isrf_sim::stream`]'s port with zero latency (inputs topped
//!   up before every read, outputs drained after every write, so no read
//!   or write ever waits);
//! * indexed reads resolve eagerly at address issue, indexed writes apply
//!   immediately, and every serviced word is counted so the totals can be
//!   checked against the machine's [`isrf_core::stats::SrfTraffic`].
//!
//! Schedules, stream buffers, arbitration, FIFO depths and latencies are
//! never consulted: any final-state difference from the cycle-accurate
//! machine on a race-free program is a simulator bug. Nothing of the
//! machine's executor is either — its tape, row executor and indexed
//! arbiter (`ci.sh`, "one independent oracle"): the stream port and
//! [`Srf`] are all this module shares with it.

use std::collections::VecDeque;

use isrf_core::{word, Word};
use isrf_kernel::ir::{Kernel, Op, Opcode, Operand, StreamKind};
use isrf_mem::Memory;
use isrf_sim::machine::Machine;
use isrf_sim::program::{ProgOp, StreamProgram};
use isrf_sim::srf::Srf;
use isrf_sim::stream::{Port, StreamBinding};

/// Indexed-access word counts accumulated by the reference executor.
///
/// The machine counts one [`isrf_core::stats::SrfTraffic`] word per
/// serviced SRAM access: `record_words` per indexed-read address and one
/// per indexed write. The reference executor counts the same events at
/// issue, so after a differential run the totals must match exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefCounts {
    /// In-lane indexed words (reads and writes).
    pub inlane_words: u64,
    /// Cross-lane indexed words.
    pub crosslane_words: u64,
}

/// The functional reference machine: cloned state, no timing.
#[derive(Debug, Clone)]
pub struct RefMachine {
    lanes: usize,
    srf: Srf,
    mem: Memory,
    scratch: Vec<Vec<Word>>,
    counts: RefCounts,
}

impl RefMachine {
    /// Snapshot a prepared machine's state (SRF, functional memory,
    /// scratchpads) as the reference starting point. Take the snapshot
    /// *before* running the program on the machine.
    pub fn from_machine(m: &Machine) -> Self {
        RefMachine {
            lanes: m.config().lanes,
            srf: m.srf().clone(),
            mem: m.mem().memory().clone(),
            scratch: m.scratch().to_vec(),
            counts: RefCounts::default(),
        }
    }

    /// The reference SRF state.
    pub fn srf(&self) -> &Srf {
        &self.srf
    }

    /// The reference memory state.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Indexed words serviced so far.
    pub fn counts(&self) -> RefCounts {
        self.counts
    }

    /// Where the `k`-th word of binding `b` lives, `(bank, per-bank
    /// offset)`, by the closed form of the record-interleaved layout — the
    /// machine walks bindings by increments instead.
    fn locate(&self, b: &StreamBinding, k: u32) -> (usize, u32) {
        let record = b.absolute_record(k / b.record_words);
        let row = record / self.lanes as u32;
        let off = b.range.base + row * b.record_words + k % b.record_words;
        (record as usize % self.lanes, off)
    }

    /// Read a stream's content out of the reference SRF.
    pub fn read_stream(&self, b: &StreamBinding) -> Vec<Word> {
        let word = |k| {
            let (bank, off) = self.locate(b, k);
            self.srf.read(bank, off)
        };
        (0..b.words()).map(word).collect()
    }

    /// Execute `program` to completion, functionally.
    ///
    /// # Panics
    ///
    /// Panics where the machine would deadlock or trap: an indexed read
    /// with no issued address, or an out-of-range SRF offset.
    pub fn run(&mut self, program: &StreamProgram) {
        for i in 0..program.len() {
            let (op, _deps) = program.node(i);
            match op {
                // Transfers move a word at a time: a load writes SRF words
                // from memory and a store the reverse, so no word read can
                // see one the same transfer wrote.
                ProgOp::Load { pattern, dst, .. } => {
                    for (k, addr) in pattern.addrs().enumerate() {
                        let (bank, off) = self.locate(dst, k as u32);
                        self.srf.write(bank, off, self.mem.read(addr));
                    }
                }
                ProgOp::Store { src, pattern, .. } => {
                    for (k, addr) in pattern.addrs().enumerate() {
                        let (bank, off) = self.locate(src, k as u32);
                        self.mem.write(addr, self.srf.read(bank, off));
                    }
                }
                // The whole index stream is read before the destination is
                // written, as the machine reads it at issue: an index stream
                // the destination aliases reads the same words on both sides.
                ProgOp::GatherDyn {
                    index_stream,
                    base,
                    dst,
                    ..
                } => {
                    for (k, i) in self.read_stream(index_stream).into_iter().enumerate() {
                        let (bank, off) = self.locate(dst, k as u32);
                        self.srf.write(bank, off, self.mem.read(base + i));
                    }
                }
                ProgOp::Kernel {
                    kernel,
                    bindings,
                    iters,
                    ..
                } => {
                    let mut interp = Interp::new(self, kernel, bindings);
                    interp.run(*iters);
                }
            }
        }
    }
}

/// Words per lane of the stream ports' buffers: any depth does, since
/// they are refilled before every read and drained after every write.
const BUF: usize = 8;

/// Per-slot runtime state of the interpreter. Sequential and conditional
/// slots reuse the simulator's own stream port (zero latency, refilled and
/// drained around every access); indexed slots resolve against the SRF
/// directly.
enum RefSlot {
    Stream(Port),
    /// Indexed read stream: per-lane data FIFO filled eagerly at address
    /// issue, popped by `IdxRead` in issue order.
    IdxRead {
        binding: StreamBinding,
        cross: bool,
        data: Vec<VecDeque<Word>>,
    },
    IdxWrite {
        binding: StreamBinding,
    },
}

/// Where an operand's lanes come from in one iteration, resolved once per
/// operand: lane `l` reads [`Arg::at`]`(ctx, l)`.
#[derive(Debug, Clone, Copy)]
enum Arg {
    /// Every lane reads this word: the operand's `init` while the
    /// iteration is below its distance, a constant, the lane count or the
    /// producer's iteration id.
    Splat(Word),
    /// Lane `l` reads `l` (a `LaneId` producer).
    Lane,
    /// Lane `l` reads `ctx[at + l]`: the producer's lanes in the context
    /// row of iteration `j - distance`.
    Ctx(usize),
}

impl Arg {
    #[inline]
    fn at(self, ctx: &[Word], lane: usize) -> Word {
        match self {
            Arg::Splat(w) => w,
            Arg::Lane => lane as Word,
            Arg::Ctx(at) => ctx[at + lane],
        }
    }
}

/// One kernel invocation of the reference executor.
struct Interp<'a> {
    rm: &'a mut RefMachine,
    kernel: &'a Kernel,
    slots: Vec<RefSlot>,
    /// Value contexts, a ring of `rows` rows of `ops × lanes` words:
    /// iteration `j`'s row is `j % rows`, and `rows` is the largest
    /// loop-carried distance plus one, so a row is overwritten only once
    /// no operand can read it.
    ctx: Vec<Word>,
    rows: usize,
    /// Lanes of a condition operand, which the stream port takes as a
    /// slice beside the op's own row.
    cond: Vec<Word>,
}

impl<'a> Interp<'a> {
    fn new(rm: &'a mut RefMachine, kernel: &'a Kernel, bindings: &[StreamBinding]) -> Self {
        assert_eq!(
            bindings.len(),
            kernel.streams.len(),
            "kernel `{}` declares {} streams, got {} bindings",
            kernel.name,
            kernel.streams.len(),
            bindings.len()
        );
        let lanes = rm.lanes;
        let slots = kernel
            .streams
            .iter()
            .zip(bindings)
            .map(|(decl, b)| match decl.kind {
                StreamKind::IdxInRead | StreamKind::IdxCrossRead => RefSlot::IdxRead {
                    binding: *b,
                    cross: decl.kind == StreamKind::IdxCrossRead,
                    data: vec![VecDeque::new(); lanes],
                },
                StreamKind::IdxInWrite => {
                    assert_eq!(
                        b.record_words, 1,
                        "indexed write streams use word-granular addresses"
                    );
                    RefSlot::IdxWrite { binding: *b }
                }
                kind => RefSlot::Stream(Port::new(kind, *b, lanes, BUF)),
            })
            .collect();
        let max_dist = kernel
            .ops
            .iter()
            .flat_map(|o| o.operands.iter().map(|p| p.distance))
            .max()
            .unwrap_or(0);
        let rows = max_dist as usize + 1;
        Interp {
            rm,
            kernel,
            slots,
            ctx: vec![0; rows * kernel.ops.len() * lanes],
            rows,
            cond: vec![0; lanes],
        }
    }

    fn run(&mut self, iters: u64) {
        let kernel = self.kernel;
        let mut row = 0;
        for j in 0..iters {
            for (opi, op) in kernel.ops.iter().enumerate() {
                self.exec_op(j, row, opi, op);
            }
            row = if row + 1 == self.rows { 0 } else { row + 1 };
        }
    }

    /// Where the lanes of op `opi` live in context row `row`.
    fn slot_of(&self, row: usize, opi: usize) -> usize {
        (row * self.kernel.ops.len() + opi) * self.rm.lanes
    }

    /// Resolve an operand for iteration `j`, whose context row is `row` —
    /// mirror of the machine executor's rule: past-the-start distances
    /// read `init`, and `Free`-class producers are recomputed rather than
    /// looked up.
    fn arg(&self, j: u64, row: usize, operand: &Operand) -> Arg {
        let d = operand.distance as usize;
        if d as u64 > j {
            return Arg::Splat(operand.init);
        }
        match self.kernel.ops[operand.value.index()].opcode {
            Opcode::Const(w) => Arg::Splat(w),
            Opcode::LaneId => Arg::Lane,
            Opcode::LaneCount => Arg::Splat(self.rm.lanes as Word),
            Opcode::IterId => Arg::Splat((j - d as u64) as Word),
            // Iteration `j - d`'s row, `d < rows` rows back round the ring.
            _ => {
                let back = row.checked_sub(d).unwrap_or(row + self.rows - d);
                Arg::Ctx(self.slot_of(back, operand.value.index()))
            }
        }
    }

    /// Execute op `opi` for all lanes of iteration `j`, writing its lanes
    /// into its context row `row`.
    fn exec_op(&mut self, j: u64, row: usize, opi: usize, op: &Op) {
        use Opcode::*;
        let lanes = self.rm.lanes;
        let dst = self.slot_of(row, opi);
        let args: [Arg; 3] = std::array::from_fn(|k| match op.operands.get(k) {
            Some(operand) => self.arg(j, row, operand),
            None => Arg::Splat(0),
        });
        let ctx = &mut self.ctx;
        match op.opcode {
            SeqRead(s) | CondLaneRead(s) | CondRead(s) => {
                // A sequential read has no condition: every lane pops.
                let cond = match op.opcode {
                    SeqRead(_) => None,
                    _ => {
                        for (l, c) in self.cond.iter_mut().enumerate() {
                            *c = args[0].at(ctx, l);
                        }
                        Some(&self.cond[..])
                    }
                };
                let p = port(&mut self.slots[s.0 as usize]);
                p.grant(&mut self.rm.srf, BUF, false, 0);
                p.pop_row(cond, &mut ctx[dst..dst + lanes]);
            }
            SeqWrite(s) => {
                for l in 0..lanes {
                    ctx[dst + l] = args[0].at(ctx, l);
                }
                let p = port(&mut self.slots[s.0 as usize]);
                p.push_row(None, &ctx[dst..dst + lanes]);
                p.grant(&mut self.rm.srf, BUF, true, 0);
            }
            CondWrite(s) => {
                // The values stage in the op's own row, which then reads 0.
                for l in 0..lanes {
                    self.cond[l] = args[0].at(ctx, l);
                    ctx[dst + l] = args[1].at(ctx, l);
                }
                let p = port(&mut self.slots[s.0 as usize]);
                p.push_row(Some(&self.cond), &ctx[dst..dst + lanes]);
                p.grant(&mut self.rm.srf, BUF, true, 0);
                ctx[dst..dst + lanes].fill(0);
            }
            IdxAddr(s) => {
                let RefSlot::IdxRead {
                    binding,
                    cross,
                    data,
                } = &mut self.slots[s.0 as usize]
                else {
                    unreachable!("IdxAddr on a non-read slot");
                };
                let rw = binding.record_words;
                for (l, fifo) in data.iter_mut().enumerate() {
                    let record = args[0].at(ctx, l);
                    ctx[dst + l] = record;
                    for w in 0..rw {
                        let v = if *cross {
                            // Global record: record r lives in bank r mod N.
                            let bank = record as usize % lanes;
                            let off = binding.range.base + (record / lanes as u32) * rw + w;
                            self.rm.counts.crosslane_words += 1;
                            self.rm.srf.read(bank, off)
                        } else {
                            // Lane-local record index into this lane's bank.
                            let off = binding.range.base + record * rw + w;
                            self.rm.counts.inlane_words += 1;
                            self.rm.srf.read(l, off)
                        };
                        fifo.push_back(v);
                    }
                }
            }
            IdxRead(s) => {
                let RefSlot::IdxRead { data, .. } = &mut self.slots[s.0 as usize] else {
                    unreachable!();
                };
                for (l, fifo) in data.iter_mut().enumerate() {
                    ctx[dst + l] = fifo
                        .pop_front()
                        .expect("IdxRead with no issued address (machine would deadlock)");
                }
            }
            IdxWrite(s) => {
                let RefSlot::IdxWrite { binding } = &self.slots[s.0 as usize] else {
                    unreachable!();
                };
                for l in 0..lanes {
                    let (addr, v) = (args[0].at(ctx, l), args[1].at(ctx, l));
                    self.rm.srf.write(l, binding.range.base + addr, v);
                    self.rm.counts.inlane_words += 1;
                    ctx[dst + l] = v;
                }
            }
            ScratchRead => {
                for l in 0..lanes {
                    let pad = &self.rm.scratch[l];
                    ctx[dst + l] = pad[args[0].at(ctx, l) as usize % pad.len()];
                }
            }
            ScratchWrite => {
                for l in 0..lanes {
                    let pad = &mut self.rm.scratch[l];
                    let addr = args[0].at(ctx, l) as usize % pad.len();
                    let v = args[1].at(ctx, l);
                    pad[addr] = v;
                    ctx[dst + l] = v;
                }
            }
            Comm { rotate } => {
                for l in 0..lanes {
                    let src = (l as i64 + rotate as i64).rem_euclid(lanes as i64) as usize;
                    ctx[dst + l] = args[0].at(ctx, src);
                }
            }
            CommXor { mask } => {
                for l in 0..lanes {
                    ctx[dst + l] = args[0].at(ctx, (l ^ mask as usize) % lanes);
                }
            }
            // `Free`-class producers: every consumer recomputes them
            // (`Interp::arg`), so their rows are never read.
            Const(_) | LaneId | LaneCount | IterId => {}
            _ => {
                for l in 0..lanes {
                    ctx[dst + l] = ref_alu(op.opcode, |k| args[k].at(ctx, l));
                }
            }
        }
    }
}

/// The port of a sequential or conditional slot.
fn port(slot: &mut RefSlot) -> &mut Port {
    match slot {
        RefSlot::Stream(p) => p,
        _ => unreachable!("validated kind"),
    }
}

/// Evaluate a pure ALU opcode for one lane, its operand `k` being
/// `operand(k)` — definitionally identical to the machine executor's ALU
/// (wrapping two's-complement integers, IEEE `f32` bit-cast floats,
/// divide-by-zero yields zero).
fn ref_alu(opcode: Opcode, operand: impl Fn(usize) -> Word) -> Word {
    use Opcode::*;
    let a = || operand(0);
    let b = || operand(1);
    let ia = || word::as_i32(operand(0));
    let ib = || word::as_i32(operand(1));
    let fa = || word::as_f32(operand(0));
    let fb = || word::as_f32(operand(1));
    match opcode {
        Mov => a(),
        Not => !a(),
        Neg => word::from_i32(ia().wrapping_neg()),
        FNeg => word::from_f32(-fa()),
        IToF => word::from_f32(ia() as f32),
        FToI => word::from_i32(fa() as i32),
        Add => word::from_i32(ia().wrapping_add(ib())),
        Sub => word::from_i32(ia().wrapping_sub(ib())),
        Mul => word::from_i32(ia().wrapping_mul(ib())),
        Div => word::from_i32(if ib() == 0 {
            0
        } else {
            ia().wrapping_div(ib())
        }),
        Rem => word::from_i32(if ib() == 0 {
            0
        } else {
            ia().wrapping_rem(ib())
        }),
        And => a() & b(),
        Or => a() | b(),
        Xor => a() ^ b(),
        Shl => a().wrapping_shl(b() & 31),
        Shr => a().wrapping_shr(b() & 31),
        Sra => word::from_i32(ia().wrapping_shr(b() & 31)),
        Lt => word::from_bool(ia() < ib()),
        Le => word::from_bool(ia() <= ib()),
        Eq => word::from_bool(a() == b()),
        Ne => word::from_bool(a() != b()),
        ULt => word::from_bool(a() < b()),
        Min => word::from_i32(ia().min(ib())),
        Max => word::from_i32(ia().max(ib())),
        FAdd => word::from_f32(fa() + fb()),
        FSub => word::from_f32(fa() - fb()),
        FMul => word::from_f32(fa() * fb()),
        FDiv => word::from_f32(fa() / fb()),
        FLt => word::from_bool(fa() < fb()),
        FLe => word::from_bool(fa() <= fb()),
        FEq => word::from_bool(fa() == fb()),
        FMin => word::from_f32(fa().min(fb())),
        FMax => word::from_f32(fa().max(fb())),
        Select => {
            if word::as_bool(operand(0)) {
                operand(1)
            } else {
                operand(2)
            }
        }
        _ => unreachable!("non-ALU opcode {opcode:?} reached ref_alu"),
    }
}
