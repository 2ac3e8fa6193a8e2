//! Kernel intermediate representation.
//!
//! A kernel is the inner loop of a stream program: a dataflow graph of
//! 32-bit word operations executed in SIMD lock-step by every compute
//! cluster, once per *iteration*. Values are in SSA form; loop-carried
//! dependences are expressed on operands as a `distance` (how many
//! iterations back the referenced value was produced) with an `init` word
//! supplying the value for iterations before the producer has run.
//!
//! Streams appear as numbered *slots* whose [`StreamKind`] mirrors the
//! paper's KernelC stream types (Table 1): sequential in/out streams,
//! conditional streams (\[16\]), in-lane indexed read/write streams
//! (`idxl_istream`/`idxl_ostream`) and cross-lane indexed read streams
//! (`idx_istream`). An indexed read is split into an address-issue op
//! ([`Opcode::IdxAddr`]) and a data-read op ([`Opcode::IdxRead`]) exactly as
//! the compiler splits them (Section 4.7), so the scheduler can separate
//! them by the configured address/data separation.

use std::fmt;

use isrf_core::Word;

/// Identifies a value (the result of an op) within a kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Index into [`Kernel::ops`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A stream slot used by kernel stream ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamSlot(pub u8);

impl fmt::Display for StreamSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Kinds of kernel streams (paper Table 1 plus sequential and conditional
/// streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Sequential input stream (`istream`).
    SeqIn,
    /// Sequential output stream (`ostream`).
    SeqOut,
    /// Conditional input stream (\[16\]): elements are distributed across
    /// lanes to the clusters asserting their condition.
    CondIn,
    /// Conditional output stream.
    CondOut,
    /// Per-lane conditional input stream: each cluster consumes its own
    /// record substream at a data-dependent rate; the conditional-stream
    /// switch routes elements from their home banks to the consuming
    /// cluster, paying network latency on every access (\[16\]).
    CondLaneIn,
    /// In-lane indexed read stream (`idxl_istream`).
    IdxInRead,
    /// In-lane indexed write stream (`idxl_ostream`).
    IdxInWrite,
    /// Cross-lane indexed read stream (`idx_istream`).
    IdxCrossRead,
}

impl StreamKind {
    /// True for the indexed kinds.
    pub fn is_indexed(self) -> bool {
        matches!(
            self,
            StreamKind::IdxInRead | StreamKind::IdxInWrite | StreamKind::IdxCrossRead
        )
    }

    /// True for the kinds whose stream the kernel writes into the SRF.
    pub fn writes(self) -> bool {
        matches!(
            self,
            StreamKind::SeqOut | StreamKind::CondOut | StreamKind::IdxInWrite
        )
    }

    /// True for cross-lane kinds.
    pub fn is_cross_lane(self) -> bool {
        matches!(self, StreamKind::IdxCrossRead)
    }
}

/// Stream declaration attached to a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDecl {
    /// Human-readable stream name (for diagnostics).
    pub name: String,
    /// What kind of stream this slot is.
    pub kind: StreamKind,
}

/// An operand: a reference to a value produced `distance` iterations ago.
///
/// `distance == 0` references the current iteration. For `distance == d > 0`
/// and iterations `0..d`, the operand evaluates to `init`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand {
    /// Producing value.
    pub value: ValueId,
    /// Loop-carried distance in iterations.
    pub distance: u32,
    /// Value used while `iteration < distance`.
    pub init: Word,
}

impl From<ValueId> for Operand {
    fn from(value: ValueId) -> Self {
        Operand {
            value,
            distance: 0,
            init: 0,
        }
    }
}

impl Operand {
    /// A loop-carried reference: the value of `value` from `distance`
    /// iterations ago, reading `init` for the first `distance` iterations.
    pub fn carried(value: ValueId, distance: u32, init: Word) -> Self {
        Operand {
            value,
            distance,
            init,
        }
    }
}

/// Kernel operation codes.
///
/// Binary integer ops interpret words as two's-complement `i32` (shifts
/// mask the amount to 5 bits); `F`-prefixed ops interpret the bit pattern
/// as IEEE-754 `f32`. Comparisons produce `1`/`0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants are described by the class comments
pub enum Opcode {
    // Nullary.
    /// Literal constant.
    Const(Word),
    /// This cluster's lane index (0-based).
    LaneId,
    /// Number of lanes in the machine.
    LaneCount,
    /// Current iteration number (0-based, per-cluster SIMD loop count).
    IterId,

    // Unary ALU.
    Mov,
    Not,
    Neg,
    FNeg,
    /// Signed integer to float.
    IToF,
    /// Float to signed integer (truncating; saturates on overflow/NaN->0).
    FToI,

    // Binary integer ALU.
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// Signed comparisons producing 0/1.
    Lt,
    Le,
    Eq,
    Ne,
    /// Unsigned less-than.
    ULt,
    Min,
    Max,

    // Binary float ALU.
    FAdd,
    FSub,
    FMul,
    FDiv,
    FLt,
    FLe,
    FEq,
    FMin,
    FMax,

    // Ternary.
    /// `select(cond, a, b)`: `a` if `cond != 0` else `b`.
    Select,

    // Stream access.
    /// Pop the next word from a sequential input stream.
    SeqRead(StreamSlot),
    /// Push a word to a sequential output stream. Operand: value.
    SeqWrite(StreamSlot),
    /// Conditionally pop from a conditional input stream. Operand:
    /// condition. Lanes asserting the condition receive consecutive
    /// elements in lane order; others receive 0.
    CondRead(StreamSlot),
    /// Conditionally pop the next element of this lane's own substream of
    /// a [`StreamKind::CondLaneIn`] stream. Operand: condition. Returns 0
    /// when the condition is false.
    CondLaneRead(StreamSlot),
    /// Conditionally push to a conditional output stream. Operands:
    /// condition, value.
    CondWrite(StreamSlot),
    /// Issue an indexed-stream record address. Operand: word offset within
    /// the stream's SRF region (in-lane) or global stream offset
    /// (cross-lane).
    IdxAddr(StreamSlot),
    /// Read the data for this iteration's matching [`Opcode::IdxAddr`].
    /// Operand: the paired address-issue value (scheduling edge carries the
    /// address/data separation).
    IdxRead(StreamSlot),
    /// Indexed write: operands are address and value.
    IdxWrite(StreamSlot),

    // Cluster-local scratchpad.
    /// Operand: address.
    ScratchRead,
    /// Operands: address, value.
    ScratchWrite,

    /// Static inter-cluster permutation: the result in lane `l` is the
    /// operand's value in lane `(l + rotate) mod N`.
    Comm {
        /// Source-lane rotation amount.
        rotate: i32,
    },
    /// Static inter-cluster exchange: the result in lane `l` is the
    /// operand's value in lane `l XOR mask` (the butterfly-exchange
    /// permutation).
    CommXor {
        /// Source-lane XOR mask.
        mask: u32,
    },
}

/// Coarse functional-unit class of an opcode (used for resource modelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Pipelined arithmetic unit.
    Alu,
    /// The unpipelined divider.
    Divider,
    /// Stream-buffer data port of a stream slot.
    StreamPort(StreamSlot),
    /// Address-FIFO issue port of an indexed stream slot.
    AddrPort(StreamSlot),
    /// Inter-cluster network send port.
    Comm,
    /// Scratchpad port.
    Scratch,
    /// Consumes no issue resource (constants are immediate fields).
    Free,
}

impl Opcode {
    /// Number of operands the opcode consumes.
    pub fn arity(self) -> usize {
        use Opcode::*;
        match self {
            Const(_) | LaneId | LaneCount | IterId | SeqRead(_) => 0,
            Mov
            | Not
            | Neg
            | FNeg
            | IToF
            | FToI
            | SeqWrite(_)
            | CondRead(_)
            | CondLaneRead(_)
            | IdxAddr(_)
            | IdxRead(_)
            | ScratchRead
            | Comm { .. }
            | CommXor { .. } => 1,
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sra | Lt | Le | Eq | Ne
            | ULt | Min | Max | FAdd | FSub | FMul | FDiv | FLt | FLe | FEq | FMin | FMax
            | CondWrite(_) | IdxWrite(_) | ScratchWrite => 2,
            Select => 3,
        }
    }

    /// Which resource class the opcode occupies at issue.
    pub fn class(self) -> OpClass {
        use Opcode::*;
        match self {
            Const(_) | LaneId | LaneCount | IterId => OpClass::Free,
            Div | Rem | FDiv => OpClass::Divider,
            SeqRead(s) | SeqWrite(s) | CondRead(s) | CondLaneRead(s) | CondWrite(s)
            | IdxRead(s) => OpClass::StreamPort(s),
            IdxAddr(s) | IdxWrite(s) => OpClass::AddrPort(s),
            Comm { .. } | CommXor { .. } => OpClass::Comm,
            ScratchRead | ScratchWrite => OpClass::Scratch,
            _ => OpClass::Alu,
        }
    }

    /// The stream slot this opcode touches, if any.
    pub fn stream(self) -> Option<StreamSlot> {
        use Opcode::*;
        match self {
            SeqRead(s) | SeqWrite(s) | CondRead(s) | CondLaneRead(s) | CondWrite(s)
            | IdxAddr(s) | IdxRead(s) | IdxWrite(s) => Some(s),
            _ => None,
        }
    }
}

/// One operation of a kernel body.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The opcode.
    pub opcode: Opcode,
    /// Operand references (length = `opcode.arity()`).
    pub operands: Vec<Operand>,
}

/// Error from [`Kernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError {
    message: String,
}

impl KernelError {
    fn new(message: impl Into<String>) -> Self {
        KernelError {
            message: message.into(),
        }
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid kernel: {}", self.message)
    }
}

impl std::error::Error for KernelError {}

/// A kernel: name, stream declarations and loop-body ops.
///
/// [`KernelBuilder::build`] walks the content once and stores its
/// [`crate::hash::kernel_hash`]; the schedule and tape memos read that value.
/// The fields stay `pub` for reading: a kernel changed after it was built no
/// longer matches its hash, which debug builds assert on every read.
pub struct Kernel {
    /// Kernel name (for reporting).
    pub name: String,
    /// Stream declarations; [`StreamSlot`] indexes this vector.
    pub streams: Vec<StreamDecl>,
    /// Loop-body operations in program order. Operands with `distance == 0`
    /// always reference earlier ops (enforced by [`KernelBuilder`]).
    pub ops: Vec<Op>,
    /// Source line per op (same length as `ops`, or empty when the kernel
    /// was hand-built). 0 means "no line known" for that op.
    pub lines: Vec<u32>,
    /// The content hash, walked once by [`KernelBuilder::build`].
    pub(crate) hash: u128,
    /// Content walks that produced a hash (debug builds; see
    /// [`Kernel::hash_walks`]).
    #[cfg(debug_assertions)]
    pub(crate) walks: std::sync::atomic::AtomicU32,
}

impl Clone for Kernel {
    fn clone(&self) -> Kernel {
        Kernel {
            hash: self.hash,
            ..Kernel::new(
                self.name.clone(),
                self.streams.clone(),
                self.ops.clone(),
                self.lines.clone(),
            )
        }
    }
}

/// The four content fields, as a derived `Debug` would print them: the
/// stored hash is not part of a kernel's text.
impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("streams", &self.streams)
            .field("ops", &self.ops)
            .field("lines", &self.lines)
            .finish()
    }
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Kernel) -> bool {
        (&self.name, &self.streams, &self.ops, &self.lines)
            == (&other.name, &other.streams, &other.ops, &other.lines)
    }
}

impl Kernel {
    fn new(name: String, streams: Vec<StreamDecl>, ops: Vec<Op>, lines: Vec<u32>) -> Kernel {
        Kernel {
            name,
            streams,
            ops,
            lines,
            hash: 0,
            #[cfg(debug_assertions)]
            walks: Default::default(),
        }
    }

    /// How many times this kernel's content was walked to produce its hash:
    /// once, by [`KernelBuilder::build`] (a clone copies the hash and walks
    /// nothing). The debug re-walk inside [`crate::hash::kernel_hash`]
    /// checks the stored value and does not count. Debug builds only.
    #[cfg(debug_assertions)]
    pub fn hash_walks(&self) -> u32 {
        self.walks.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The declaration for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn stream(&self, slot: StreamSlot) -> &StreamDecl {
        &self.streams[slot.0 as usize]
    }

    /// Source line of op `i`, when the frontend recorded one.
    pub fn source_line(&self, i: usize) -> Option<u32> {
        match self.lines.get(i) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// Check structural invariants: operand counts, forward references,
    /// stream-kind/op agreement, and IdxRead/IdxAddr pairing.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), KernelError> {
        // Address ops some `IdxRead` pairs with.
        let mut read = vec![false; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            if op.operands.len() != op.opcode.arity() {
                return Err(KernelError::new(format!(
                    "op {i} ({:?}) has {} operands, expected {}",
                    op.opcode,
                    op.operands.len(),
                    op.opcode.arity()
                )));
            }
            for o in &op.operands {
                if o.value.index() >= self.ops.len() {
                    return Err(KernelError::new(format!(
                        "op {i} references nonexistent value {:?}",
                        o.value
                    )));
                }
                if o.distance == 0 && o.value.index() >= i {
                    return Err(KernelError::new(format!(
                        "op {i} has a same-iteration reference to op {} (must be earlier)",
                        o.value.index()
                    )));
                }
            }
            if let Some(slot) = op.opcode.stream() {
                let Some(decl) = self.streams.get(slot.0 as usize) else {
                    return Err(KernelError::new(format!(
                        "op {i} uses undeclared stream {slot}"
                    )));
                };
                use Opcode::*;
                let ok = match op.opcode {
                    SeqRead(_) => decl.kind == StreamKind::SeqIn,
                    SeqWrite(_) => decl.kind == StreamKind::SeqOut,
                    CondRead(_) => decl.kind == StreamKind::CondIn,
                    CondLaneRead(_) => decl.kind == StreamKind::CondLaneIn,
                    CondWrite(_) => decl.kind == StreamKind::CondOut,
                    IdxAddr(_) | IdxRead(_) => {
                        decl.kind == StreamKind::IdxInRead || decl.kind == StreamKind::IdxCrossRead
                    }
                    IdxWrite(_) => decl.kind == StreamKind::IdxInWrite,
                    _ => true,
                };
                if !ok {
                    return Err(KernelError::new(format!(
                        "op {i} ({:?}) does not match stream {slot} kind {:?}",
                        op.opcode, decl.kind
                    )));
                }
            }
            if let Opcode::IdxRead(slot) = op.opcode {
                let target = op.operands[0].value.index();
                read[target] = true;
                if self.ops[target].opcode != Opcode::IdxAddr(slot) {
                    return Err(KernelError::new(format!(
                        "op {i} (IdxRead {slot}) must reference an IdxAddr of the same stream"
                    )));
                }
                if op.operands[0].distance != 0 {
                    return Err(KernelError::new(format!(
                        "op {i}: IdxRead/IdxAddr pairing must be same-iteration"
                    )));
                }
            }
        }
        // Each IdxAddr must be consumed by at least one IdxRead (a record
        // access expands to `record_words` single-word reads, so several
        // reads may pair with one address).
        for (i, op) in self.ops.iter().enumerate() {
            if let (Opcode::IdxAddr(slot), false) = (op.opcode, read[i]) {
                return Err(KernelError::new(format!(
                    "IdxAddr op {i} on {slot} has no paired IdxRead"
                )));
            }
        }
        Ok(())
    }

    /// Ops per iteration touching each stream's data port, in program order
    /// (used by the scheduler's ordering chains and by the executor).
    pub fn stream_data_ops(&self, slot: StreamSlot) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| {
                op.opcode.stream() == Some(slot)
                    && matches!(op.opcode.class(), OpClass::StreamPort(_))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Ops per iteration touching each stream's address port, in program
    /// order.
    pub fn stream_addr_ops(&self, slot: StreamSlot) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| {
                op.opcode.stream() == Some(slot)
                    && matches!(op.opcode.class(), OpClass::AddrPort(_))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Incremental builder for [`Kernel`] bodies.
///
/// # Example
///
/// ```
/// use isrf_kernel::ir::{KernelBuilder, StreamKind};
///
/// let mut b = KernelBuilder::new("scale");
/// let input = b.stream("in", StreamKind::SeqIn);
/// let output = b.stream("out", StreamKind::SeqOut);
/// let x = b.seq_read(input);
/// let two = b.constant(2);
/// let y = b.mul(x, two);
/// b.seq_write(output, y);
/// let kernel = b.build().unwrap();
/// assert_eq!(kernel.ops.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    streams: Vec<StreamDecl>,
    ops: Vec<Op>,
    lines: Vec<u32>,
    cur_line: u32,
}

impl KernelBuilder {
    /// Start a kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            streams: Vec::new(),
            ops: Vec::new(),
            lines: Vec::new(),
            cur_line: 0,
        }
    }

    /// Tag subsequently pushed ops with a frontend source line (0 = none).
    pub fn set_source_line(&mut self, line: u32) {
        self.cur_line = line;
    }

    /// Declare a stream and get its slot.
    pub fn stream(&mut self, name: impl Into<String>, kind: StreamKind) -> StreamSlot {
        let slot = StreamSlot(u8::try_from(self.streams.len()).expect("too many streams"));
        self.streams.push(StreamDecl {
            name: name.into(),
            kind,
        });
        slot
    }

    /// Append an op with explicit operands.
    pub fn push(&mut self, opcode: Opcode, operands: Vec<Operand>) -> ValueId {
        assert_eq!(
            operands.len(),
            opcode.arity(),
            "{opcode:?} takes {} operands",
            opcode.arity()
        );
        let id = ValueId(u32::try_from(self.ops.len()).expect("too many ops"));
        self.ops.push(Op { opcode, operands });
        self.lines.push(self.cur_line);
        id
    }

    /// Replace operand `index` of op `op` (used to patch forward
    /// loop-carried references, e.g. CBC feedback where the consumed value
    /// is only built later in the body).
    ///
    /// # Panics
    ///
    /// Panics if the op or operand index is out of range.
    pub fn set_operand(&mut self, op: ValueId, index: usize, operand: Operand) {
        self.ops[op.index()].operands[index] = operand;
    }

    /// Finish and validate the kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`Kernel::validate`] failures.
    pub fn build(self) -> Result<Kernel, KernelError> {
        let mut k = Kernel::new(self.name, self.streams, self.ops, self.lines);
        k.validate()?;
        k.hash = crate::hash::content_hash(&k);
        Ok(k)
    }

    // ---- convenience constructors ----

    /// Literal constant.
    pub fn constant(&mut self, w: Word) -> ValueId {
        self.push(Opcode::Const(w), vec![])
    }

    /// Float literal constant.
    pub fn constant_f(&mut self, v: f32) -> ValueId {
        self.constant(isrf_core::word::from_f32(v))
    }

    /// This cluster's lane index.
    pub fn lane_id(&mut self) -> ValueId {
        self.push(Opcode::LaneId, vec![])
    }

    /// Number of lanes.
    pub fn lane_count(&mut self) -> ValueId {
        self.push(Opcode::LaneCount, vec![])
    }

    /// Current iteration number.
    pub fn iter_id(&mut self) -> ValueId {
        self.push(Opcode::IterId, vec![])
    }

    /// Pop from a sequential input stream.
    pub fn seq_read(&mut self, s: StreamSlot) -> ValueId {
        self.push(Opcode::SeqRead(s), vec![])
    }

    /// Push to a sequential output stream.
    pub fn seq_write(&mut self, s: StreamSlot, v: impl Into<Operand>) -> ValueId {
        self.push(Opcode::SeqWrite(s), vec![v.into()])
    }

    /// Conditional read (lanes with a true condition receive elements).
    pub fn cond_read(&mut self, s: StreamSlot, cond: impl Into<Operand>) -> ValueId {
        self.push(Opcode::CondRead(s), vec![cond.into()])
    }

    /// Per-lane conditional read (pop this lane's substream if `cond`).
    pub fn cond_lane_read(&mut self, s: StreamSlot, cond: impl Into<Operand>) -> ValueId {
        self.push(Opcode::CondLaneRead(s), vec![cond.into()])
    }

    /// Conditional write.
    pub fn cond_write(
        &mut self,
        s: StreamSlot,
        cond: impl Into<Operand>,
        v: impl Into<Operand>,
    ) -> ValueId {
        self.push(Opcode::CondWrite(s), vec![cond.into(), v.into()])
    }

    /// Issue an indexed address; pair with [`KernelBuilder::idx_read`].
    pub fn idx_addr(&mut self, s: StreamSlot, addr: impl Into<Operand>) -> ValueId {
        self.push(Opcode::IdxAddr(s), vec![addr.into()])
    }

    /// Read the data of a previously issued [`KernelBuilder::idx_addr`].
    pub fn idx_read(&mut self, s: StreamSlot, addr_op: ValueId) -> ValueId {
        self.push(Opcode::IdxRead(s), vec![addr_op.into()])
    }

    /// Issue address and data read together; returns the data value.
    pub fn idx_load(&mut self, s: StreamSlot, addr: impl Into<Operand>) -> ValueId {
        let a = self.idx_addr(s, addr);
        self.idx_read(s, a)
    }

    /// Issue one record address and read all `record_words` words of the
    /// record (the FIFO-head counter expands the record in hardware).
    pub fn idx_load_record(
        &mut self,
        s: StreamSlot,
        addr: impl Into<Operand>,
        record_words: u32,
    ) -> Vec<ValueId> {
        let a = self.idx_addr(s, addr);
        (0..record_words).map(|_| self.idx_read(s, a)).collect()
    }

    /// Indexed write of `v` at `addr`.
    pub fn idx_write(
        &mut self,
        s: StreamSlot,
        addr: impl Into<Operand>,
        v: impl Into<Operand>,
    ) -> ValueId {
        self.push(Opcode::IdxWrite(s), vec![addr.into(), v.into()])
    }

    /// Scratchpad read.
    pub fn scratch_read(&mut self, addr: impl Into<Operand>) -> ValueId {
        self.push(Opcode::ScratchRead, vec![addr.into()])
    }

    /// Scratchpad write.
    pub fn scratch_write(&mut self, addr: impl Into<Operand>, v: impl Into<Operand>) -> ValueId {
        self.push(Opcode::ScratchWrite, vec![addr.into(), v.into()])
    }

    /// Inter-cluster rotate-by-`rotate` permutation.
    pub fn comm_rotate(&mut self, rotate: i32, v: impl Into<Operand>) -> ValueId {
        self.push(Opcode::Comm { rotate }, vec![v.into()])
    }

    /// Inter-cluster XOR-`mask` exchange (butterfly partner swap).
    pub fn comm_xor(&mut self, mask: u32, v: impl Into<Operand>) -> ValueId {
        self.push(Opcode::CommXor { mask }, vec![v.into()])
    }

    /// `select(cond, a, b)`.
    pub fn select(
        &mut self,
        cond: impl Into<Operand>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> ValueId {
        self.push(Opcode::Select, vec![cond.into(), a.into(), b.into()])
    }
}

macro_rules! binary_builders {
    ($($fn_name:ident => $opcode:ident),* $(,)?) => {
        impl KernelBuilder {
            $(
                #[doc = concat!("Binary `", stringify!($opcode), "` op.")]
                pub fn $fn_name(
                    &mut self,
                    a: impl Into<Operand>,
                    b: impl Into<Operand>,
                ) -> ValueId {
                    self.push(Opcode::$opcode, vec![a.into(), b.into()])
                }
            )*
        }
    };
}

binary_builders!(
    add => Add, sub => Sub, mul => Mul, div => Div, rem => Rem,
    and => And, or => Or, xor => Xor, shl => Shl, shr => Shr, sra => Sra,
    lt => Lt, le => Le, eq => Eq, ne => Ne, ult => ULt, min => Min, max => Max,
    fadd => FAdd, fsub => FSub, fmul => FMul, fdiv => FDiv,
    flt => FLt, fle => FLe, feq => FEq, fmin => FMin, fmax => FMax,
);

macro_rules! unary_builders {
    ($($fn_name:ident => $opcode:ident),* $(,)?) => {
        impl KernelBuilder {
            $(
                #[doc = concat!("Unary `", stringify!($opcode), "` op.")]
                pub fn $fn_name(&mut self, a: impl Into<Operand>) -> ValueId {
                    self.push(Opcode::$opcode, vec![a.into()])
                }
            )*
        }
    };
}

unary_builders!(
    mov => Mov, not => Not, neg => Neg, fneg => FNeg, itof => IToF, ftoi => FToI,
);

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_kernel() -> Kernel {
        // The Figure 10 kernel: out[i] = foo(in[i], LUT[in[i]]).
        let mut b = KernelBuilder::new("lookup");
        let sin = b.stream("in", StreamKind::SeqIn);
        let lut = b.stream("LUT", StreamKind::IdxInRead);
        let sout = b.stream("out", StreamKind::SeqOut);
        let a = b.seq_read(sin);
        let v = b.idx_load(lut, a);
        let c = b.add(a, v);
        b.seq_write(sout, c);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_kernel() {
        let k = lookup_kernel();
        assert_eq!(k.ops.len(), 5);
        assert_eq!(k.streams.len(), 3);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn arity_is_enforced() {
        for op in [Opcode::Add, Opcode::Select, Opcode::Mov, Opcode::LaneId] {
            assert!(op.arity() <= 3);
        }
        assert_eq!(Opcode::Select.arity(), 3);
        assert_eq!(Opcode::SeqRead(StreamSlot(0)).arity(), 0);
        assert_eq!(Opcode::IdxWrite(StreamSlot(0)).arity(), 2);
    }

    #[test]
    #[should_panic(expected = "takes 2 operands")]
    fn push_rejects_wrong_arity() {
        let mut b = KernelBuilder::new("bad");
        let c = b.constant(1);
        b.push(Opcode::Add, vec![c.into()]);
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let ops = vec![Op {
            opcode: Opcode::Mov,
            operands: vec![Operand::from(ValueId(0))],
        }];
        let k = Kernel::new("fwd".into(), vec![], ops, vec![]);
        assert!(k.validate().is_err());
    }

    #[test]
    fn validate_rejects_kind_mismatch() {
        let mut b = KernelBuilder::new("bad");
        let s = b.stream("in", StreamKind::SeqIn);
        let v = b.seq_read(s);
        // Writing to an input stream is invalid.
        b.push(Opcode::SeqWrite(s), vec![v.into()]);
        assert!(b.build().is_err());
    }

    #[test]
    fn validate_rejects_unpaired_idx_addr() {
        let mut b = KernelBuilder::new("bad");
        let lut = b.stream("LUT", StreamKind::IdxInRead);
        let c = b.constant(0);
        b.idx_addr(lut, c); // no matching IdxRead
        assert!(b.build().is_err());
    }

    #[test]
    fn loop_carried_operands_allow_self_reference() {
        // acc(i) = acc(i-1) + in(i): classic reduction.
        let mut b = KernelBuilder::new("reduce");
        let sin = b.stream("in", StreamKind::SeqIn);
        let x = b.seq_read(sin);
        // Forward-declare the accumulator by referencing the add op itself.
        let acc = b.push(
            Opcode::Add,
            vec![
                Operand::from(x),
                Operand::carried(ValueId(1), 1, 0), // the add op is op index 1
            ],
        );
        assert_eq!(acc.index(), 1);
        let k = b.build().unwrap();
        assert!(k.validate().is_ok());
    }

    #[test]
    fn stream_op_queries() {
        let k = lookup_kernel();
        let lut = StreamSlot(1);
        assert_eq!(k.stream_addr_ops(lut).len(), 1);
        assert_eq!(k.stream_data_ops(lut).len(), 1);
        assert_eq!(k.stream_data_ops(StreamSlot(0)).len(), 1);
        assert_eq!(k.stream(lut).kind, StreamKind::IdxInRead);
    }

    #[test]
    fn classes() {
        assert_eq!(Opcode::Add.class(), OpClass::Alu);
        assert_eq!(Opcode::Div.class(), OpClass::Divider);
        assert_eq!(Opcode::FDiv.class(), OpClass::Divider);
        assert_eq!(
            Opcode::IdxAddr(StreamSlot(2)).class(),
            OpClass::AddrPort(StreamSlot(2))
        );
        assert_eq!(Opcode::Const(5).class(), OpClass::Free);
        assert_eq!(Opcode::Comm { rotate: 1 }.class(), OpClass::Comm);
    }
}
