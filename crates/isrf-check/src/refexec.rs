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
//! * stream cursor/windowing semantics are *shared with the simulator* by
//!   reusing [`isrf_sim::stream`]'s runtime states with zero latency
//!   (inputs topped up before every read, outputs drained after every
//!   write, so no read or write ever waits);
//! * indexed reads resolve eagerly at address issue, indexed writes apply
//!   immediately, and every serviced word is counted so the totals can be
//!   checked against the machine's [`isrf_core::stats::SrfTraffic`].
//!
//! Schedules, stream buffers, arbitration, FIFO depths and latencies are
//! never consulted: any final-state difference from the cycle-accurate
//! machine on a race-free program is a simulator bug.

use std::collections::VecDeque;

use isrf_core::{word, Word};
use isrf_kernel::ir::{Kernel, Op, Opcode, Operand, StreamKind};
use isrf_mem::Memory;
use isrf_sim::machine::Machine;
use isrf_sim::program::{ProgOp, StreamProgram};
use isrf_sim::srf::Srf;
use isrf_sim::stream::{CondInState, CondOutState, SeqInState, SeqOutState, StreamBinding};

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
                ProgOp::Load { pattern, dst, .. } => {
                    let data = self.mem.gather(&pattern.to_addrs());
                    self.write_stream_words(dst, &data);
                }
                ProgOp::Store { src, pattern, .. } => {
                    let data = self.read_stream(src);
                    self.mem.scatter(&pattern.to_addrs(), &data);
                }
                ProgOp::GatherDyn {
                    index_stream,
                    base,
                    dst,
                    ..
                } => {
                    let addrs = self.dynamic_addrs(index_stream, *base);
                    let data = self.mem.gather(&addrs);
                    self.write_stream_words(dst, &data);
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

    fn write_stream_words(&mut self, dst: &StreamBinding, data: &[Word]) {
        for (k, &v) in data.iter().enumerate() {
            let (bank, off) = self.locate(dst, k as u32);
            self.srf.write(bank, off, v);
        }
    }

    fn dynamic_addrs(&self, index_stream: &StreamBinding, base: u32) -> Vec<u32> {
        let index = self.read_stream(index_stream);
        index.into_iter().map(|i| base + i).collect()
    }
}

/// Words per lane of the stream states' buffers: any depth does, since
/// they are refilled before every read and drained after every write.
const BUF: usize = 8;

/// Per-slot runtime state of the interpreter. Sequential and conditional
/// slots reuse the simulator's own stream states (zero latency, refilled
/// and drained around every access); indexed slots resolve against the
/// SRF directly.
enum RefSlot {
    SeqIn(SeqInState),
    SeqOut(SeqOutState),
    CondIn(CondInState),
    CondLaneIn(SeqInState),
    CondOut(CondOutState),
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

/// One kernel invocation of the reference executor.
struct Interp<'a> {
    rm: &'a mut RefMachine,
    kernel: &'a Kernel,
    slots: Vec<RefSlot>,
    /// Rolling value contexts: `ctxs[j - ctx_base]` holds `ops × lanes`
    /// words, windowed to the largest loop-carried distance plus one.
    ctxs: VecDeque<Vec<Word>>,
    ctx_base: u64,
    max_dist: u32,
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
                StreamKind::SeqIn => RefSlot::SeqIn(SeqInState::new(*b, lanes, BUF)),
                StreamKind::CondLaneIn => RefSlot::CondLaneIn(SeqInState::new(*b, lanes, BUF)),
                StreamKind::CondIn => RefSlot::CondIn(CondInState::new(*b, lanes, BUF)),
                StreamKind::SeqOut => RefSlot::SeqOut(SeqOutState::new(*b, lanes, BUF)),
                StreamKind::CondOut => RefSlot::CondOut(CondOutState::new(*b, lanes, BUF)),
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
            })
            .collect();
        let max_dist = kernel
            .ops
            .iter()
            .flat_map(|o| o.operands.iter().map(|p| p.distance))
            .max()
            .unwrap_or(0);
        Interp {
            rm,
            kernel,
            slots,
            ctxs: VecDeque::new(),
            ctx_base: 0,
            max_dist,
        }
    }

    fn run(&mut self, iters: u64) {
        let lanes = self.rm.lanes;
        let n_ops = self.kernel.ops.len();
        for j in 0..iters {
            self.ctxs.push_back(vec![0; n_ops * lanes]);
            while self.ctxs.len() > self.max_dist as usize + 1 {
                self.ctxs.pop_front();
                self.ctx_base += 1;
            }
            for opi in 0..n_ops {
                let op = self.kernel.ops[opi].clone();
                let vals = self.exec_op(j, &op);
                let idx = (j - self.ctx_base) as usize;
                for (lane, v) in vals.into_iter().enumerate() {
                    self.ctxs[idx][opi * lanes + lane] = v;
                }
            }
        }
    }

    /// Resolve an operand for iteration `j`, lane `lane` — mirror of the
    /// machine executor's rule: past-the-start distances read `init`, and
    /// `Free`-class producers are recomputed rather than looked up.
    fn resolve(&self, j: u64, operand: &Operand, lane: usize) -> Word {
        let d = operand.distance as u64;
        if d > j {
            return operand.init;
        }
        let pj = j - d;
        if pj < self.ctx_base {
            return operand.init; // retired far-past context (distance misuse)
        }
        match self.kernel.ops[operand.value.index()].opcode {
            Opcode::Const(w) => w,
            Opcode::LaneId => lane as Word,
            Opcode::LaneCount => self.rm.lanes as Word,
            Opcode::IterId => pj as Word,
            _ => {
                let idx = (pj - self.ctx_base) as usize;
                self.ctxs[idx][operand.value.index() * self.rm.lanes + lane]
            }
        }
    }

    /// Execute one op for all lanes of iteration `j`.
    fn exec_op(&mut self, j: u64, op: &Op) -> Vec<Word> {
        use Opcode::*;
        let lanes = self.rm.lanes;
        match op.opcode {
            Const(w) => vec![w; lanes],
            LaneId => (0..lanes).map(|l| l as Word).collect(),
            LaneCount => vec![lanes as Word; lanes],
            IterId => vec![j as Word; lanes],
            SeqRead(s) => {
                let RefSlot::SeqIn(st) = &mut self.slots[s.0 as usize] else {
                    unreachable!("validated kind");
                };
                st.grant(&self.rm.srf, BUF, 0, 0);
                let mut vals = vec![0; lanes];
                st.pop_row(None, &mut vals);
                vals
            }
            SeqWrite(s) => {
                let vals: Vec<Word> = (0..lanes)
                    .map(|l| self.resolve(j, &op.operands[0], l))
                    .collect();
                let RefSlot::SeqOut(st) = &mut self.slots[s.0 as usize] else {
                    unreachable!();
                };
                st.push_row(&vals);
                st.grant(&mut self.rm.srf, BUF, true);
                vals
            }
            CondLaneRead(s) | CondRead(s) => {
                let conds: Vec<Word> = (0..lanes)
                    .map(|l| self.resolve(j, &op.operands[0], l))
                    .collect();
                let mut vals = vec![0; lanes];
                match &mut self.slots[s.0 as usize] {
                    RefSlot::CondLaneIn(st) => {
                        st.grant(&self.rm.srf, BUF, 0, 0);
                        st.pop_row(Some(&conds), &mut vals);
                    }
                    RefSlot::CondIn(st) => {
                        st.grant(&self.rm.srf, BUF * lanes, 0, 0);
                        st.pop_row(&conds, &mut vals);
                    }
                    _ => unreachable!(),
                }
                vals
            }
            CondWrite(s) => {
                let conds: Vec<Word> = (0..lanes)
                    .map(|l| self.resolve(j, &op.operands[0], l))
                    .collect();
                let vals: Vec<Word> = (0..lanes)
                    .map(|l| self.resolve(j, &op.operands[1], l))
                    .collect();
                let RefSlot::CondOut(st) = &mut self.slots[s.0 as usize] else {
                    unreachable!();
                };
                st.push_row(&conds, &vals);
                st.grant(&mut self.rm.srf, BUF * lanes, true);
                vec![0; lanes]
            }
            IdxAddr(s) => {
                let addrs: Vec<Word> = (0..lanes)
                    .map(|l| self.resolve(j, &op.operands[0], l))
                    .collect();
                let RefSlot::IdxRead {
                    binding,
                    cross,
                    data,
                } = &mut self.slots[s.0 as usize]
                else {
                    unreachable!("IdxAddr on a non-read slot");
                };
                let rw = binding.record_words;
                for (l, &record) in addrs.iter().enumerate() {
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
                        data[l].push_back(v);
                    }
                }
                addrs
            }
            IdxRead(s) => {
                let RefSlot::IdxRead { data, .. } = &mut self.slots[s.0 as usize] else {
                    unreachable!();
                };
                (0..lanes)
                    .map(|l| {
                        data[l]
                            .pop_front()
                            .expect("IdxRead with no issued address (machine would deadlock)")
                    })
                    .collect()
            }
            IdxWrite(s) => {
                let pairs: Vec<(Word, Word)> = (0..lanes)
                    .map(|l| {
                        (
                            self.resolve(j, &op.operands[0], l),
                            self.resolve(j, &op.operands[1], l),
                        )
                    })
                    .collect();
                let RefSlot::IdxWrite { binding } = &self.slots[s.0 as usize] else {
                    unreachable!();
                };
                let base = binding.range.base;
                pairs
                    .iter()
                    .enumerate()
                    .map(|(l, &(addr, v))| {
                        self.rm.srf.write(l, base + addr, v);
                        self.rm.counts.inlane_words += 1;
                        v
                    })
                    .collect()
            }
            ScratchRead => (0..lanes)
                .map(|l| {
                    let addr =
                        self.resolve(j, &op.operands[0], l) as usize % self.rm.scratch[l].len();
                    self.rm.scratch[l][addr]
                })
                .collect(),
            ScratchWrite => (0..lanes)
                .map(|l| {
                    let addr =
                        self.resolve(j, &op.operands[0], l) as usize % self.rm.scratch[l].len();
                    let v = self.resolve(j, &op.operands[1], l);
                    self.rm.scratch[l][addr] = v;
                    v
                })
                .collect(),
            Comm { rotate } => (0..lanes)
                .map(|l| {
                    let src = (l as i64 + rotate as i64).rem_euclid(lanes as i64) as usize;
                    self.resolve(j, &op.operands[0], src)
                })
                .collect(),
            CommXor { mask } => (0..lanes)
                .map(|l| {
                    let src = (l ^ mask as usize) % lanes;
                    self.resolve(j, &op.operands[0], src)
                })
                .collect(),
            _ => (0..lanes)
                .map(|lane| ref_alu(op.opcode, |k, l| self.resolve(j, &op.operands[k], l), lane))
                .collect(),
        }
    }
}

/// Evaluate a pure ALU opcode for one lane — definitionally identical to
/// the machine executor's ALU (wrapping two's-complement integers, IEEE
/// `f32` bit-cast floats, divide-by-zero yields zero).
fn ref_alu(opcode: Opcode, resolve: impl Fn(usize, usize) -> Word, lane: usize) -> Word {
    use Opcode::*;
    let a = || resolve(0, lane);
    let b = || resolve(1, lane);
    let ia = || word::as_i32(resolve(0, lane));
    let ib = || word::as_i32(resolve(1, lane));
    let fa = || word::as_f32(resolve(0, lane));
    let fb = || word::as_f32(resolve(1, lane));
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
            if word::as_bool(resolve(0, lane)) {
                resolve(1, lane)
            } else {
                resolve(2, lane)
            }
        }
        _ => unreachable!("non-ALU opcode {opcode:?} reached ref_alu"),
    }
}
