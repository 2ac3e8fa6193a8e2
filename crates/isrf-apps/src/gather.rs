//! The cross-lane gather IG, SpMV and BFS share: the paper's "reduced
//! data replication" (Section 5.2, IG), written once.
//!
//! Each strip's kernel records read `slots` gathered records apiece. The
//! host condenses the strip's references ([`condense`]): every distinct
//! record once, in first-reference order, and a pointer per slot, a short
//! row's padding included.
//!
//! * **Indexed SRF**: only the unique records are gathered into a condensed
//!   array, which the kernel reaches with **cross-lane** indexed reads
//!   driven by the pointer stream, spread over `⌈slots/4⌉` streams so each
//!   stream's outstanding records fit its address FIFO and stream buffer.
//! * **Sequential SRF**: the memory system gathers every reference, so a
//!   record referenced twice is fetched — and parked in the SRF — twice,
//!   and the kernel reads the replicated list on one sequential stream. The
//!   pointer stream is still popped: the gather used it.
//!
//! [`Strips`] emits the double-buffered strip loop around the gather.

use std::sync::Arc;

use isrf_core::word::Word;
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind, StreamSlot, ValueId};
use isrf_kernel::sched::Schedule;
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, ProgOpId, StreamBinding, StreamProgram};

use crate::common::schedule_for;

/// A strip's references, condensed.
pub(crate) struct Condensed {
    /// The references, each row padded with the sentinel: what a
    /// sequential SRF gathers.
    refs: Vec<u32>,
    /// Per slot, the position in `unique` of the record an indexed SRF
    /// reads.
    ptrs: Vec<Word>,
    /// Each referenced record once, in first-reference order, after the
    /// sentinel when there is one.
    unique: Vec<u32>,
}

/// Condense a strip of `rows`, each padded to `pad` slots, with
/// `sentinel` as record 0 whether or not anything references it. Records
/// are small indices (nodes, columns), so positions live in a table by
/// record.
///
/// A sequential SRF gathers the sentinel for a pad. An indexed one reads
/// the last record the pad's own row reads, so pads spread over the banks
/// their rows already use; only an empty row's pads read record 0. That
/// is exact for the two kernels that pad: BFS reduces with `min`, which
/// is idempotent, and an SpMV pad adds `0.0 × x`, a zero.
///
/// # Panics
///
/// Panics if a row holds more than `pad` references, or if a row is short
/// and there is no sentinel.
pub(crate) fn condense<'r>(
    rows: impl IntoIterator<Item = &'r [u32]>,
    pad: u32,
    sentinel: Option<u32>,
) -> Condensed {
    let (pad, rows) = (pad as usize, rows.into_iter());
    // A plan keeps its strips, so hold them without growth slack.
    let slots = rows.size_hint().0 * pad;
    let (mut refs, mut ptrs) = (Vec::with_capacity(slots), Vec::with_capacity(slots));
    let (mut unique, mut pos) = (Vec::new(), Vec::new());
    let mut place = |r: u32| {
        let i = r as usize;
        if i >= pos.len() {
            pos.resize(i + 1, u32::MAX);
        }
        if pos[i] == u32::MAX {
            pos[i] = unique.len() as u32;
            unique.push(r);
        }
        pos[i]
    };
    if let Some(s) = sentinel {
        place(s);
    }
    for row in rows {
        assert!(row.len() <= pad, "a row overflows its {pad} slots");
        refs.extend_from_slice(row);
        ptrs.extend(row.iter().map(|&r| place(r)));
        if row.len() < pad {
            let s = sentinel.expect("a short row pads with the sentinel");
            let last = ptrs.last().copied().filter(|_| !row.is_empty());
            refs.resize(refs.len() + pad - row.len(), s);
            ptrs.resize(ptrs.len() + pad - row.len(), last.unwrap_or(0));
        }
    }
    Condensed { refs, ptrs, unique }
}

/// What a kernel record gathers, and through which kind of SRF.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gather {
    /// Records gathered per kernel record (one pointer each).
    slots: u32,
    /// Words per gathered record, 1 or 2.
    words: u32,
    /// Condensed behind cross-lane indexed streams, or replicated.
    indexed: bool,
}

impl Gather {
    /// `slots` records of `words` words per kernel record.
    pub fn new(slots: u32, words: u32, indexed: bool) -> Gather {
        Gather {
            slots,
            words,
            indexed,
        }
    }

    /// Kernel streams the gathered records arrive on.
    fn streams(self) -> usize {
        if self.indexed {
            (self.slots as usize).div_ceil(4)
        } else {
            1
        }
    }

    /// Declare the gather's kernel streams — `{prefix}0`, `{prefix}1`, …
    /// when indexed, `gathered` otherwise — read through pointer stream
    /// `ptr`.
    pub fn declare(self, b: &mut KernelBuilder, prefix: &str, ptr: StreamSlot) -> GatherReads {
        let vals = if self.indexed {
            (0..self.streams())
                .map(|k| b.stream(format!("{prefix}{k}"), StreamKind::IdxCrossRead))
                .collect()
        } else {
            vec![b.stream("gathered", StreamKind::SeqIn)]
        };
        GatherReads {
            gather: self,
            ptr,
            vals,
        }
    }
}

/// A kernel's gather streams, from [`Gather::declare`].
pub(crate) struct GatherReads {
    gather: Gather,
    ptr: StreamSlot,
    vals: Vec<StreamSlot>,
}

impl GatherReads {
    /// Pop slot `k`'s pointer and read its record's words.
    pub fn read(&self, b: &mut KernelBuilder, k: u32) -> Vec<ValueId> {
        let p = b.seq_read(self.ptr);
        let words = self.gather.words;
        if self.gather.indexed {
            let s = self.vals[k as usize % self.vals.len()];
            b.idx_load_record(s, p, words)
        } else {
            (0..words).map(|_| b.seq_read(self.vals[0])).collect()
        }
    }
}

/// Where an app's strips live, beside its [`Gather`].
#[derive(Clone, Copy)]
pub(crate) struct Layout {
    /// Kernel records per strip, one per lane per iteration.
    pub strip: u32,
    /// Record words of the kernel's two sequential inputs and its output.
    pub seq: [u32; 3],
    /// Memory address of strip 0's pointers; strip `s`'s follow at
    /// `s * strip * slots`.
    pub ptr_base: u32,
    /// Records the condensed buffer holds on an indexed SRF; the strips'
    /// largest unique count when `None`.
    pub cap: Option<u32>,
}

/// The double-buffered strip loop around a gather: strip `s` uses buffer
/// set `s % 2`, whose loads wait for the store that freed it (and any
/// barrier), and each kernel waits for the one before.
pub(crate) struct Strips<'a> {
    strips: &'a [Condensed],
    gather: Gather,
    layout: Layout,
    cacheable: bool,
    kernel: Arc<Kernel>,
    sched: Arc<Schedule>,
    /// Per buffer set: the two sequential inputs and the output.
    seq: [[StreamBinding; 3]; 2],
    /// Per buffer set: the gathered records.
    gathered: [StreamBinding; 2],
    /// Per record base a sweep gathered from, each strip's gather list:
    /// built by the first such sweep, shared by the later ones.
    lists: Vec<(u32, Vec<Arc<[u32]>>)>,
    buf_free: [Option<ProgOpId>; 2],
    prev_kernel: Option<ProgOpId>,
}

impl<'a> Strips<'a> {
    /// Schedule `kernel` and allocate both buffer sets: per set the two
    /// inputs and the output, then both gather buffers. The strips'
    /// pointers are the load's ([`load_pointers`]).
    pub fn new(
        m: &mut Machine,
        kernel: Arc<Kernel>,
        gather: Gather,
        layout: Layout,
        strips: &'a [Condensed],
    ) -> Strips<'a> {
        let strip = layout.strip;
        let sched = schedule_for(m, &kernel);
        let seq = [(); 2].map(|()| layout.seq.map(|words| m.alloc_stream(words, strip)));
        let (words, records) = if gather.indexed {
            let most = strips.iter().map(|c| c.unique.len() as u32).max();
            (gather.words, layout.cap.or(most).unwrap_or(1))
        } else {
            (gather.words * gather.slots, strip)
        };
        let gathered = [(); 2].map(|()| m.alloc_stream(words, records));
        Strips {
            strips,
            gather,
            layout,
            cacheable: m.config().cache.is_some(),
            kernel,
            sched,
            seq,
            gathered,
            lists: Vec::new(),
            buf_free: [None, None],
            prev_kernel: None,
        }
    }

    /// Emit one pass over every strip, gathering records that start at
    /// memory address `records_at` through the strip's list for that base,
    /// which the first pass to gather there builds; `inputs(s, ptrs)`
    /// places strip `s`'s pointer load among its two sequential loads,
    /// `output(s)` is where it stores. Returns the pass's stores, the
    /// barrier for a pass that reads what this one wrote.
    pub fn sweep(
        &mut self,
        p: &mut StreamProgram,
        barrier: &[ProgOpId],
        records_at: u32,
        inputs: impl Fn(u32, AddrPattern) -> [AddrPattern; 2],
        output: impl Fn(u32) -> AddrPattern,
    ) -> Vec<ProgOpId> {
        let (g, strip) = (self.gather, self.layout.strip);
        let known = self.lists.iter().position(|&(at, _)| at == records_at);
        let lists = match known {
            Some(i) => &self.lists[i].1,
            None => {
                let lists = (self.strips.iter())
                    .map(|c| if g.indexed { &c.unique } else { &c.refs })
                    .map(|records| record_addrs(records, records_at, g.words))
                    .collect();
                self.lists.push((records_at, lists));
                &self.lists[self.lists.len() - 1].1
            }
        };
        let mut stores = Vec::with_capacity(self.strips.len());
        for (s, c) in self.strips.iter().enumerate() {
            let pick = s % 2;
            let s = s as u32;
            let ([a, b, out], buf) = (self.seq[pick], self.gathered[pick]);
            let mut ldeps = barrier.to_vec();
            ldeps.extend(self.buf_free[pick]);
            let span = strip * g.slots;
            let ptrs = AddrPattern::contiguous(self.layout.ptr_base + s * span, span);
            let [la, lb] = inputs(s, ptrs);
            let la = p.load(la, a, false, &ldeps);
            let lb = p.load(lb, b, false, &ldeps);
            let records = c.unique.len() as u32;
            let (dst, view) = if g.indexed {
                // The kernel addresses the condensed array by record.
                let view = StreamBinding::whole(buf.range, g.words, records);
                (buf.slice(0, records), view)
            } else {
                (buf, buf)
            };
            let addrs = AddrPattern::Indexed(Arc::clone(&lists[s as usize]));
            let lg = p.load(addrs, dst, self.cacheable, &ldeps);
            let mut kdeps = vec![la, lb, lg];
            kdeps.extend(self.prev_kernel);
            let mut bindings = vec![a, b];
            bindings.extend(std::iter::repeat_n(view, g.streams()));
            bindings.push(out);
            let k = p.kernel(
                Arc::clone(&self.kernel),
                Arc::clone(&self.sched),
                bindings,
                u64::from(strip / 8),
                &kdeps,
            );
            let st = p.store(out, output(s), false, &[k]);
            self.prev_kernel = Some(k);
            self.buf_free[pick] = Some(st);
            stores.push(st);
        }
        stores
    }
}

/// The load stage of a strip loop: each strip's pointers in memory, strip
/// `s`'s at `layout.ptr_base + s * layout.strip * gather.slots`.
pub(crate) fn load_pointers(m: &mut Machine, gather: Gather, layout: Layout, strips: &[Condensed]) {
    let span = layout.strip * gather.slots;
    for (s, c) in strips.iter().enumerate() {
        let at = layout.ptr_base + s as u32 * span;
        m.mem_mut().memory_mut().write_block(at, &c.ptrs);
    }
}

/// The word addresses of `records`, `words` apiece, record 0 at `at`, as
/// maps the compiler sizes exactly and vectorises: one list a strip's
/// gathers from `at` share. A two-word record's pair goes through a `Vec`,
/// whose copy into the list costs less than indexing `records` per word.
fn record_addrs(records: &[u32], at: u32, words: u32) -> Arc<[u32]> {
    match words {
        1 => records.iter().map(|&r| at + r).collect(),
        2 => records
            .iter()
            .flat_map(|&r| [at + 2 * r, at + 2 * r + 1])
            .collect::<Vec<u32>>()
            .into(),
        _ => unreachable!("gathered records are one word (SpMV, BFS) or two (IG)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{bfs_params, spmv_params, Profile};
    use crate::{bfs, spmv};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Per strip, `(padded slots, slots, slots reading bank 0)` of a gather
    /// whose rows hold `lens` references each, padded to `pad` slots.
    /// Record `r` of a strip's condensed array lives in bank `r % 8` (the
    /// SRF interleaves records across the eight lanes' banks). Checks that
    /// a pad reads a record its own row reads, and only an empty row's pads
    /// read the sentinel, record 0.
    fn census(strips: &[Condensed], lens: &[usize], pad: usize) -> Vec<[usize; 3]> {
        let rows = lens.len() / strips.len();
        let strip = |(c, lens): (&Condensed, &[usize])| {
            let mut padded = 0;
            for (row, &len) in c.ptrs.chunks(pad).zip(lens) {
                let (real, pads) = row.split_at(len);
                padded += pads.len();
                let own = |p: &Word| if len == 0 { *p == 0 } else { real.contains(p) };
                assert!(pads.iter().all(own), "a pad reads what its row reads");
            }
            let bank0 = c.ptrs.iter().filter(|&&p| p % 8 == 0).count();
            [padded, c.ptrs.len(), bank0]
        };
        strips.iter().zip(lens.chunks(rows)).map(strip).collect()
    }

    /// The share of BFS and SpMV pointer slots that are padding, per strip
    /// at both profiles, and how many slots read bank 0. Pinned as
    /// `(strips, padded, slots, reads of bank 0, fewest and most padded
    /// slots in a strip)`. Before pads re-read their row's last record,
    /// every pad read the sentinel in bank 0, which took far more than its
    /// eighth of every strip's reads:
    /// `(8, 1975, 4096, 2219, 220, 277)`, `(8, 2318, 4096, 2540, 254, 343)`,
    /// `(32, 25515, 49152, 28472, 714, 885)`,
    /// `(32, 18947, 32768, 20714, 541, 649)`.
    #[test]
    fn a_pad_reads_a_record_its_row_reads() {
        let summary = |per_strip: Vec<[usize; 3]>| {
            let sum = |i: usize| per_strip.iter().map(|s| s[i]).sum::<usize>();
            let padded = per_strip.iter().map(|s| s[0]);
            let (min, max) = (padded.clone().min().unwrap(), padded.max().unwrap());
            (per_strip.len(), sum(0), sum(1), sum(2), min, max)
        };
        let mut got = Vec::new();
        for profile in [Profile::Small, Profile::Paper] {
            let g = bfs::graph_cached(&bfs_params(profile));
            let lens: Vec<usize> = g.adj.iter().map(Vec::len).collect();
            got.push(summary(census(&g.strips, &lens, g.pad as usize)));
            let params = spmv_params(profile);
            let (csr, _) = spmv::generate(&params);
            let pad = spmv::pad_of(&csr);
            let strips = spmv::condense_strips(&csr, params.strip_rows, pad);
            let lens: Vec<usize> = (0..csr.rows).map(|i| csr.row(i).0.len()).collect();
            got.push(summary(census(&strips, &lens, pad as usize)));
        }
        let want = [
            (8, 1975, 4096, 856, 220, 277), // bfs, Small: 48% padding, 21% to bank 0 (was 54%)
            (8, 2318, 4096, 769, 254, 343), // spmv, Small: 57%, 19% (62%)
            (32, 25515, 49152, 10417, 714, 885), // bfs, Paper: 52%, 21% (58%)
            (32, 18947, 32768, 7147, 541, 649), // spmv, Paper: 58%, 22% (63%)
        ];
        assert_eq!(got, want);
    }

    proptest! {
        /// The contract the three hosts rely on: the sentinel is record 0,
        /// `unique` lists each referenced record once in first-reference
        /// order, a sequential gather reads each row padded with the
        /// sentinel, and an indexed one reads every reference's record and,
        /// for a pad, its row's last record (the sentinel for an empty row).
        #[test]
        fn condense_keeps_its_contract(
            rows in prop::collection::vec(prop::collection::vec(0u32..40, 0..6), 0..40),
            pad in 5u32..8,
            s in 0u32..40,
        ) {
            let c = condense(rows.iter().map(Vec::as_slice), pad, Some(s));
            let mut want = vec![s];
            for &r in rows.iter().flatten() {
                if !want.contains(&r) {
                    want.push(r);
                }
            }
            prop_assert_eq!(&c.unique, &want);
            prop_assert_eq!(c.unique.iter().collect::<BTreeSet<_>>().len(), c.unique.len());
            let pad = pad as usize;
            prop_assert_eq!(c.refs.len(), rows.len() * pad);
            prop_assert_eq!(c.ptrs.len(), rows.len() * pad);
            for (i, row) in rows.iter().enumerate() {
                let (refs, ptrs) = (&c.refs[i * pad..][..pad], &c.ptrs[i * pad..][..pad]);
                for k in 0..pad {
                    let (r, read) = match row.get(k) {
                        Some(&r) => (r, r),
                        None => (s, row.last().copied().unwrap_or(s)),
                    };
                    prop_assert_eq!(refs[k], r);
                    prop_assert_eq!(c.unique[ptrs[k] as usize], read);
                }
            }
        }

        /// Rows that fill their slots need no sentinel, as IG's do.
        #[test]
        fn full_rows_condense_without_a_sentinel(
            rows in prop::collection::vec(prop::collection::vec(0u32..40, 4), 0..40),
        ) {
            let c = condense(rows.iter().map(Vec::as_slice), 4, None);
            let refs: Vec<u32> = rows.concat();
            prop_assert_eq!(&c.refs, &refs);
            for (k, &r) in refs.iter().enumerate() {
                prop_assert_eq!(c.unique[c.ptrs[k] as usize], r);
            }
        }
    }
}
