//! Whole-program interval propagation over the SRF.
//!
//! An abstract store maps per-bank word intervals to value intervals
//! ([`AbsVal`]) plus their provenance: the ids of the ops that wrote them,
//! rendered as text only when a note needs it. Program ops are interpreted in
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
use isrf_sim::program::{ProgOp, StreamProgram};

use crate::interval::{operand_interval, union, AbsVal};
use crate::{range_interval, Analysis};

/// The op whose output a segment holds, by id; its text is built only for
/// a note ([`Prop::render`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// `load (op i)`.
    Load(usize),
    /// `gather (op i)`.
    Gather(usize),
    /// ``kernel `k` (op i) output `s` ``; `slot` is the first slot of that
    /// name, so equal labels are equal text.
    Output(usize, usize),
}

/// Index of a provenance in [`Provenance`].
type Prov = u32;

/// Provenance texts as labels: entry `p` is its label, after the text of
/// the provenance it was joined onto (`"{earlier}; {label}"`), if any.
#[derive(Debug, Default)]
struct Provenance(Vec<(Option<Prov>, Label)>);

impl Provenance {
    fn push(&mut self, earlier: Option<Prov>, label: Label) -> Prov {
        self.0.push((earlier, label));
        (self.0.len() - 1) as Prov
    }

    /// Do `a` and `b` render to the same text?
    fn same(&self, a: Prov, b: Prov) -> bool {
        let ((ea, la), (eb, lb)) = (self.0[a as usize], self.0[b as usize]);
        la == lb
            && match (ea, eb) {
                (Some(ea), Some(eb)) => self.same(ea, eb),
                (ea, eb) => ea == eb,
            }
    }

    fn render(&self, program: &StreamProgram, p: Prov, out: &mut String) {
        let (earlier, label) = self.0[p as usize];
        if let Some(e) = earlier {
            self.render(program, e, out);
            out.push_str("; ");
        }
        out.push_str(&match label {
            Label::Load(i) => format!("load (op {i})"),
            Label::Gather(i) => format!("gather (op {i})"),
            Label::Output(i, slot) => {
                let ProgOp::Kernel { kernel, .. } = program.node(i).0 else {
                    unreachable!("op {i} is not a kernel invocation")
                };
                format!(
                    "kernel `{}` (op {i}) output `{}`",
                    kernel.name, kernel.streams[slot].name
                )
            }
        });
    }
}

/// One segment of the abstract SRF store.
#[derive(Debug, Clone, Copy)]
struct Seg {
    lo: u32,
    hi: u32,
    val: AbsVal,
    /// Which ops' outputs this interval came from (for dataflow notes).
    src: Option<Prov>,
}

/// The abstract SRF store: sorted disjoint segments covering one bank.
#[derive(Debug)]
struct SrfStore {
    segs: Vec<Seg>,
    provs: Provenance,
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
            provs: Provenance::default(),
        }
    }

    /// The segments overlapping `[lo, hi)`, as an index range.
    fn overlapping(&self, lo: u32, hi: u32) -> std::ops::Range<usize> {
        let a = self.segs.partition_point(|s| s.hi <= lo);
        a..a + self.segs[a..].partition_point(|s| s.lo < hi)
    }

    /// Join of every segment overlapping `[lo, hi)`, with the distinct
    /// provenances of the narrow (non-⊤) contributors.
    fn read(&self, lo: u32, hi: u32) -> (AbsVal, Vec<Prov>) {
        let mut sources: Vec<Prov> = Vec::new();
        if lo >= hi {
            return (None, sources);
        }
        let mut acc: AbsVal = None;
        for (k, seg) in self.segs[self.overlapping(lo, hi)].iter().enumerate() {
            acc = if k == 0 { seg.val } else { union(acc, seg.val) };
            if let (Some(_), Some(s)) = (seg.val, seg.src) {
                if !sources.iter().any(|&t| self.provs.same(s, t)) {
                    sources.push(s);
                }
            }
        }
        (acc, sources)
    }

    /// Write `val`, produced by `label`, over `[lo, hi)` in place. `strong`
    /// replaces: one segment then holds the range. Weak joins with each
    /// segment's contents (a partial or data-dependent write), the
    /// provenance becoming `"{old}; {label}"` unless it already is `label`.
    fn write(&mut self, lo: u32, hi: u32, val: AbsVal, label: Label, strong: bool) {
        let range = self.overlapping(lo, hi);
        if lo >= hi || range.is_empty() {
            return;
        }
        let (first, last) = (self.segs[range.start], self.segs[range.end - 1]);
        let hi = hi.min(last.hi);
        let head = (first.lo < lo).then_some(Seg { hi: lo, ..first });
        let tail = (last.hi > hi).then_some(Seg { lo: hi, ..last });
        if strong {
            let seg = Seg {
                lo,
                hi,
                val,
                src: Some(self.provs.push(None, label)),
            };
            let mut pieces = [seg; 3];
            let mut k = 0;
            for piece in [head, Some(seg), tail].into_iter().flatten() {
                pieces[k] = piece;
                k += 1;
            }
            self.segs.splice(range, pieces[..k].iter().copied());
            return;
        }
        // The label's own provenance, pushed once however many segments
        // take it.
        let mut own = None;
        for seg in &mut self.segs[range.clone()] {
            let joined = union(seg.val, val);
            let src = match seg.src {
                _ if joined.is_none() => None,
                Some(s) if self.provs.0[s as usize] == (None, label) => Some(s),
                Some(s) => Some(self.provs.push(Some(s), label)),
                None => Some(*own.get_or_insert_with(|| self.provs.push(None, label))),
            };
            *seg = Seg {
                lo: seg.lo.max(lo),
                hi: seg.hi.min(hi),
                val: joined,
                src,
            };
        }
        if let Some(tail) = tail {
            self.segs.insert(range.end, tail);
        }
        if let Some(head) = head {
            self.segs.insert(range.start, head);
        }
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
    /// Provenances of the producers ([`Prop::render`]).
    sources: Vec<Prov>,
}

/// The whole-program propagation result, indexed by program op.
#[derive(Debug)]
pub(crate) struct Prop {
    /// For kernel ops: one entry per stream slot (`None` for outputs and
    /// for non-kernel ops the vec is empty).
    pub kernel_in: Vec<Vec<Option<SlotIn>>>,
    /// For gather ops: the index-stream fact.
    pub mem_index: Vec<Option<SlotIn>>,
    /// The store after the last op: the provenances the facts name.
    store: SrfStore,
}

impl Prop {
    /// Where `f`'s values came from, as a note says it: the producers'
    /// labels joined by `"; "`, or pre-existing data.
    pub fn render(&self, program: &StreamProgram, f: &SlotIn) -> String {
        let mut out = String::new();
        for (k, &p) in f.sources.iter().enumerate() {
            if k > 0 {
                out.push_str("; ");
            }
            self.store.provs.render(program, p, &mut out);
        }
        if f.sources.is_empty() {
            out.push_str("pre-existing data");
        }
        out
    }
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
    let mut store = SrfStore::new(ctx.bank_words);
    let n = program.len();
    let mut kernel_in: Vec<Vec<Option<SlotIn>>> = vec![Vec::new(); n];
    let mut mem_index: Vec<Option<SlotIn>> = vec![None; n];

    for i in 0..n {
        let (op, _) = program.node(i);
        match op {
            ProgOp::Load { dst, .. } => {
                let (lo, hi) = range_interval(dst);
                store.write(lo, hi, None, Label::Load(i), true);
            }
            ProgOp::Store { .. } => {}
            ProgOp::GatherDyn { dst, .. } => {
                mem_index[i] = read_fact(&store, ctx.footprint(i, 0));
                let (lo, hi) = range_interval(dst);
                store.write(lo, hi, None, Label::Gather(i), true);
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
                        slots.push(read_fact(&store, ctx.footprint(i, slot)));
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
                    let Some((lo, hi)) = ctx.footprint(i, slot) else {
                        continue;
                    };
                    // Strong only when the count and placement of writes is
                    // static (sequential) and provably covers every record.
                    let covered = u64::from(lanes) * iters * writes >= u64::from(b.words());
                    let strong = decl.kind == StreamKind::SeqOut && covered;
                    let named = kernel.streams.iter().position(|d| d.name == decl.name);
                    let label = Label::Output(i, named.unwrap_or(slot));
                    store.write(lo, hi, joined, label, strong);
                }
                kernel_in[i] = slots;
            }
        }
    }

    Prop {
        kernel_in,
        mem_index,
        store,
    }
}

fn read_fact(store: &SrfStore, region: Option<(u32, u32)>) -> Option<SlotIn> {
    let region = region?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lockstep_cases;
    use crate::Analysis;

    /// The store and the propagation as they were before provenance became
    /// op ids: every segment carries its provenance text, built with a
    /// `format!` per write, and a write rebuilds the whole segment vector.
    mod reference {
        use isrf_kernel::ir::StreamKind;
        use isrf_sim::program::ProgOp;

        use super::super::{is_input, write_value_operand};
        use crate::interval::{operand_interval, union, AbsVal};
        use crate::{binding_footprint, range_interval, Analysis};

        #[derive(Debug, Clone)]
        pub struct Seg {
            pub lo: u32,
            pub hi: u32,
            pub val: AbsVal,
            pub src: Option<String>,
        }

        pub struct SrfStore {
            pub segs: Vec<Seg>,
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

        /// A fact as the notes render it: value, region, producers.
        pub type Fact = Option<(AbsVal, (u32, u32), String)>;

        fn read_fact(
            store: &SrfStore,
            b: &isrf_sim::stream::StreamBinding,
            indexed: bool,
            lanes: u32,
        ) -> Fact {
            let region = binding_footprint(b, indexed, lanes)?;
            let (val, sources) = store.read(region.0, region.1);
            let text = if sources.is_empty() {
                "pre-existing data".to_string()
            } else {
                sources.join("; ")
            };
            Some((val, region, text))
        }

        /// Every kernel input fact, every gather's index fact, and the
        /// final store.
        pub fn propagate(ctx: &Analysis) -> (Vec<Vec<Fact>>, Vec<Fact>, SrfStore) {
            let (cfg, program) = (ctx.cfg, ctx.program);
            let lanes = cfg.lanes as u32;
            let bank_words = cfg.srf.bank_words(cfg.lanes) as u32;
            let mut store = SrfStore::new(bank_words);
            let n = program.len();
            let mut kernel_in: Vec<Vec<Fact>> = vec![Vec::new(); n];
            let mut mem_index: Vec<Fact> = vec![None; n];
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
                        let mut slots: Vec<Fact> = Vec::with_capacity(kernel.streams.len());
                        for (slot, decl) in kernel.streams.iter().enumerate() {
                            if is_input(decl.kind) {
                                let indexed = decl.kind.is_indexed();
                                slots.push(read_fact(&store, &bindings[slot], indexed, lanes));
                            } else {
                                slots.push(None);
                            }
                        }
                        let stream_in: Vec<AbsVal> =
                            slots.iter().map(|s| s.as_ref().and_then(|f| f.0)).collect();
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
                            let Some((lo, hi)) =
                                binding_footprint(b, decl.kind.is_indexed(), lanes)
                            else {
                                continue;
                            };
                            let covered = u64::from(lanes) * iters * writes >= u64::from(b.words());
                            let strong = decl.kind == StreamKind::SeqOut && covered;
                            let src =
                                format!("kernel `{}` (op {i}) output `{}`", kernel.name, decl.name);
                            store.write(lo, hi, joined, Some(&src), strong);
                        }
                        kernel_in[i] = slots;
                    }
                }
            }
            (kernel_in, mem_index, store)
        }
    }

    /// Segments as `(lo, hi, value, provenance text)`, neighbours with the
    /// same value and text joined: what a read can tell apart.
    fn coalesced(
        segs: impl Iterator<Item = (u32, u32, AbsVal, Option<String>)>,
    ) -> Vec<(u32, u32, AbsVal, Option<String>)> {
        let mut out: Vec<(u32, u32, AbsVal, Option<String>)> = Vec::new();
        for seg in segs {
            match out.last_mut() {
                Some(last) if (last.2, &last.3) == (seg.2, &seg.3) && last.1 == seg.0 => {
                    last.1 = seg.1;
                }
                _ => out.push(seg),
            }
        }
        out
    }

    /// The propagation in lock-step with the one it replaced: every input
    /// fact (value, region and the note's provenance text) and the final
    /// store, over the random strip programs and every app program.
    #[test]
    fn propagation_matches_the_string_provenance_store() {
        let fact = |p: &Prop, f: &Option<SlotIn>, program| {
            f.as_ref().map(|f| (f.val, f.region, p.render(program, f)))
        };
        for case in lockstep_cases() {
            let ctx = Analysis::new(&case.cfg, &case.env, &case.program);
            let new = propagate(&ctx);
            let (kernel_in, mem_index, store) = reference::propagate(&ctx);
            let program = &case.program;
            for i in 0..program.len() {
                let slots: Vec<_> = new.kernel_in[i]
                    .iter()
                    .map(|f| fact(&new, f, program))
                    .collect();
                assert_eq!(slots, kernel_in[i], "{}: inputs of op {i}", case.name);
                let index = fact(&new, &new.mem_index[i], program);
                assert_eq!(index, mem_index[i], "{}: index stream of op {i}", case.name);
            }
            let render = |p: Prov| {
                let mut text = String::new();
                new.store.provs.render(program, p, &mut text);
                text
            };
            let got = coalesced(
                new.store
                    .segs
                    .iter()
                    .map(|s| (s.lo, s.hi, s.val, s.src.map(render))),
            );
            let want = coalesced(store.segs.into_iter().map(|s| (s.lo, s.hi, s.val, s.src)));
            assert_eq!(got, want, "{}: the store after the last op", case.name);
            if case.name == "joined provenance" {
                let note = |i: usize| kernel_in[i][0].as_ref().map(|f| f.2.clone());
                let joined = "kernel `fill` (op 0) output `o`; kernel `patch` (op 1) output `o`";
                assert_eq!(note(2).as_deref(), Some(joined));
                assert_eq!(note(4).as_deref(), Some("kernel `twice` (op 3) output `o`"));
            }
        }
    }
}
