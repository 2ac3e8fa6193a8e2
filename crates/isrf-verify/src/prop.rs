//! Whole-program interval propagation over the SRF.
//!
//! An abstract store maps per-bank word intervals to value intervals
//! ([`AbsVal`]) plus a provenance label. Program ops are interpreted in
//! topological (issue) order — sound for verifier-clean programs, where
//! every write a read can observe is ordered before it (unordered
//! conflicts are V201's domain) and memory ops snapshot their SRF sources
//! at issue:
//!
//! * `Load`/`GatherDyn` destinations become ⊤ (memory contents are
//!   unknown) over the binding's full range — a *strong* update.
//! * Kernel outputs join the intervals of every value written to the
//!   slot. Sequential outputs that provably cover the whole binding are
//!   strong updates; conditional/indexed writes (data-dependent count or
//!   placement) are weak (join with what was there).
//! * Kernel inputs and gather index streams read back the join
//!   over their footprint, carrying provenance for diagnostics.
//!
//! Pre-existing SRF data (`VerifyEnv::filled`) is ⊤: the machine records
//! *that* words were filled, not what they hold.

use std::collections::BTreeSet;

use isrf_kernel::ir::{Kernel, Opcode, StreamKind};
use isrf_sim::program::ProgOp;

use crate::interval::{operand_interval, union, AbsVal};
use crate::{binding_footprint, range_interval, Analysis};

/// One segment of the abstract SRF store.
#[derive(Debug, Clone)]
struct Seg {
    lo: u32,
    hi: u32,
    val: AbsVal,
    /// Which op's output this interval came from (for dataflow notes).
    src: Option<String>,
}

/// The abstract SRF store: sorted disjoint segments covering one bank.
#[derive(Debug)]
struct SrfStore {
    segs: Vec<Seg>,
}

impl SrfStore {
    fn new(bank_words: u32) -> SrfStore {
        SrfStore {
            segs: vec![Seg {
                lo: 0,
                hi: bank_words.max(1),
                val: None,
                src: None,
            }],
        }
    }

    /// Join of every segment overlapping `[lo, hi)`, with the provenance
    /// labels of the narrow (non-⊤) contributors.
    fn read(&self, lo: u32, hi: u32) -> (AbsVal, Vec<String>) {
        if lo >= hi {
            return (None, Vec::new());
        }
        let mut acc: AbsVal = None;
        let mut first = true;
        let mut sources = Vec::new();
        for seg in &self.segs {
            if seg.hi <= lo || seg.lo >= hi {
                continue;
            }
            acc = if first { seg.val } else { union(acc, seg.val) };
            first = false;
            if seg.val.is_some() {
                if let Some(s) = &seg.src {
                    if !sources.contains(s) {
                        sources.push(s.clone());
                    }
                }
            }
        }
        (acc, sources)
    }

    /// Write `val` over `[lo, hi)`. `strong` replaces; weak joins with the
    /// existing contents (a partial or data-dependent write).
    fn write(&mut self, lo: u32, hi: u32, val: AbsVal, src: Option<&str>, strong: bool) {
        if lo >= hi {
            return;
        }
        let mut out: Vec<Seg> = Vec::with_capacity(self.segs.len() + 2);
        for seg in &self.segs {
            if seg.hi <= lo || seg.lo >= hi {
                out.push(seg.clone());
                continue;
            }
            if seg.lo < lo {
                let mut head = seg.clone();
                head.hi = lo;
                out.push(head);
            }
            let (olo, ohi) = (seg.lo.max(lo), seg.hi.min(hi));
            let (nval, nsrc) = if strong {
                (val, src.map(String::from))
            } else {
                let joined = union(seg.val, val);
                let nsrc = if joined.is_some() {
                    match (&seg.src, src) {
                        (Some(a), Some(b)) if a != b => Some(format!("{a}; {b}")),
                        (Some(a), _) => Some(a.clone()),
                        (None, Some(b)) => Some(b.to_string()),
                        (None, None) => None,
                    }
                } else {
                    None
                };
                (joined, nsrc)
            };
            out.push(Seg {
                lo: olo,
                hi: ohi,
                val: nval,
                src: nsrc,
            });
            if seg.hi > hi {
                let mut tail = seg.clone();
                tail.lo = hi;
                out.push(tail);
            }
        }
        self.segs = out;
    }
}

/// A propagated fact about one stream input (or a gather index
/// stream): the joined value interval over the region it reads, and where
/// those values came from.
#[derive(Debug, Clone)]
pub(crate) struct SlotIn {
    pub val: AbsVal,
    /// Per-bank `[lo, hi)` word region the fact covers.
    pub region: (u32, u32),
    /// Provenance labels of the producers.
    pub sources: Vec<String>,
}

/// The whole-program propagation result, indexed by program op.
#[derive(Debug)]
pub(crate) struct Prop {
    /// For kernel ops: one entry per stream slot (`None` for outputs and
    /// for non-kernel ops the vec is empty).
    pub kernel_in: Vec<Vec<Option<SlotIn>>>,
    /// For gather ops: the index-stream fact.
    pub mem_index: Vec<Option<SlotIn>>,
}

/// Is this stream kind read by the kernel (an input)?
fn is_input(kind: StreamKind) -> bool {
    matches!(
        kind,
        StreamKind::SeqIn
            | StreamKind::CondIn
            | StreamKind::CondLaneIn
            | StreamKind::IdxInRead
            | StreamKind::IdxCrossRead
    )
}

/// Ops writing data to `slot`, with the operand index holding the value.
fn write_value_operand(op: &isrf_kernel::ir::Op, slot: usize) -> Option<usize> {
    match op.opcode {
        Opcode::SeqWrite(s) if s.0 as usize == slot => Some(0),
        Opcode::CondWrite(s) if s.0 as usize == slot => Some(1),
        Opcode::IdxWrite(s) if s.0 as usize == slot => Some(1),
        _ => None,
    }
}

/// Interpret the analysed program over the abstract store. Pre-existing
/// fills are ⊤, the store's initial state. A kernel's transfer function is
/// [`Analysis::eval`]: evaluated once per distinct (shape, input facts).
pub(crate) fn propagate(ctx: &Analysis) -> Prop {
    let (cfg, program) = (ctx.cfg, ctx.program);
    let lanes = cfg.lanes as u32;
    let bank_words = cfg.srf.bank_words(cfg.lanes) as u32;
    let mut store = SrfStore::new(bank_words);
    let n = program.len();
    let mut kernel_in: Vec<Vec<Option<SlotIn>>> = vec![Vec::new(); n];
    let mut mem_index: Vec<Option<SlotIn>> = vec![None; n];

    for i in 0..n {
        let (op, _) = program.node(i);
        match op {
            ProgOp::Load { dst, .. } => {
                let (lo, hi) = range_interval(dst);
                store.write(lo, hi, None, Some(&format!("load (op {i})")), true);
            }
            ProgOp::Store { .. } => {}
            ProgOp::GatherDyn {
                index_stream, dst, ..
            } => {
                mem_index[i] = read_fact(&store, index_stream, false, lanes);
                let (lo, hi) = range_interval(dst);
                store.write(lo, hi, None, Some(&format!("gather (op {i})")), true);
            }
            ProgOp::Kernel {
                kernel,
                bindings,
                iters,
                ..
            } => {
                // Inputs first: a kernel's own outputs never feed its own
                // inputs within an invocation (no forwarding).
                let mut slots: Vec<Option<SlotIn>> = Vec::with_capacity(kernel.streams.len());
                for (slot, decl) in kernel.streams.iter().enumerate() {
                    if is_input(decl.kind) {
                        slots.push(read_fact(
                            &store,
                            &bindings[slot],
                            decl.kind.is_indexed(),
                            lanes,
                        ));
                    } else {
                        slots.push(None);
                    }
                }
                let stream_in: Vec<AbsVal> = slots
                    .iter()
                    .map(|s| s.as_ref().and_then(|f| f.val))
                    .collect();
                let vals = ctx.eval(i, &stream_in);

                for (slot, decl) in kernel.streams.iter().enumerate() {
                    if is_input(decl.kind) {
                        continue;
                    }
                    let b = &bindings[slot];
                    let mut joined: AbsVal = None;
                    let mut first = true;
                    let mut writes: u64 = 0;
                    for kop in &kernel.ops {
                        if let Some(vk) = write_value_operand(kop, slot) {
                            let v = operand_interval(&vals, kop, vk);
                            joined = if first { v } else { union(joined, v) };
                            first = false;
                            writes += 1;
                        }
                    }
                    if writes == 0 {
                        continue;
                    }
                    let Some((lo, hi)) = binding_footprint(b, decl.kind.is_indexed(), lanes) else {
                        continue;
                    };
                    // Strong only when the count and placement of writes is
                    // static (sequential) and provably covers every record.
                    let covered = u64::from(lanes) * iters * writes >= u64::from(b.words());
                    let strong = decl.kind == StreamKind::SeqOut && covered;
                    let src = format!("kernel `{}` (op {i}) output `{}`", kernel.name, decl.name);
                    store.write(lo, hi, joined, Some(&src), strong);
                }
                kernel_in[i] = slots;
            }
        }
    }

    Prop {
        kernel_in,
        mem_index,
    }
}

fn read_fact(
    store: &SrfStore,
    b: &isrf_sim::stream::StreamBinding,
    indexed: bool,
    lanes: u32,
) -> Option<SlotIn> {
    let region = binding_footprint(b, indexed, lanes)?;
    let (val, sources) = store.read(region.0, region.1);
    Some(SlotIn {
        val,
        region,
        sources,
    })
}

/// Which input stream slots the value of kernel op `root` (transitively)
/// depends on — the dataflow cone reported in V310/V311 notes.
pub(crate) fn input_slots_feeding(kernel: &Kernel, root: usize) -> BTreeSet<usize> {
    let mut seen = vec![false; kernel.ops.len()];
    let mut stack = vec![root];
    let mut slots = BTreeSet::new();
    while let Some(k) = stack.pop() {
        if seen[k] {
            continue;
        }
        seen[k] = true;
        let op = &kernel.ops[k];
        if let Opcode::SeqRead(s)
        | Opcode::CondRead(s)
        | Opcode::CondLaneRead(s)
        | Opcode::IdxRead(s) = op.opcode
        {
            slots.insert(s.0 as usize);
        }
        for o in &op.operands {
            stack.push(o.value.index());
        }
    }
    slots
}
