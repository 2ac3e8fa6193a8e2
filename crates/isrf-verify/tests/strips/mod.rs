//! Strip-mined stream programs for the verifier's tests, in the shape the
//! stream compiler emits: per strip a load (optionally an index load and a
//! gather beside it), one to three chained kernels and a store, over single
//! or double buffers, thousands of strips long if asked — with at most one
//! seeded defect. No machine is built: SRF ranges come from a bump allocator
//! and the [`VerifyEnv`] is written out by hand, so a 20 000-op program
//! costs what its ops cost.

#![allow(dead_code)] // each test target uses its own part of this module

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::{schedule, SchedParams, Schedule};
use isrf_lang::parse_kernel;
use isrf_mem::AddrPattern;
use isrf_sim::{ProgOpId, SrfRange, StreamBinding, StreamProgram, VerifyEnv};

/// Records a full strip carries (one word each): four per lane.
pub const RECORDS: u32 = 32;
/// Records per lane of the lookup table.
const TABLE: u32 = 4;

/// Output provably in `[1, 8]`, so a consumer's index has a propagated
/// interval (V310) while per-kernel analysis sees nothing.
const ARITH: &str = r#"
kernel arith(istream<int> in, ostream<int> out) {
  int a, c;
  while (!eos(in)) {
    in >> a;
    c = (a & 7) + 1;
    out << c;
  }
}
"#;

const ADD2: &str = r#"
kernel add2(istream<int> in, istream<int> g, ostream<int> out) {
  int a, b, c;
  while (!eos(in)) {
    in >> a;
    g >> b;
    c = (a + b) & 7;
    out << c;
  }
}
"#;

/// `{INDEX}` is `a & 3` when clean, `100` for [`Defect::BadIndex`] and
/// `a + 100` for [`Defect::BadFlow`].
const LOOKUP: &str = r#"
kernel lookup(istream<int> in, idxl_istream<int> LUT, ostream<int> out) {
  int a, b, c;
  while (!eos(in)) {
    in >> a;
    LUT[{INDEX}] >> b;
    c = a + b;
    out << c;
  }
}
"#;

/// One seeded defect. Those that strike one strip take it from
/// [`Spec::defect`]'s second field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// The strip's first kernel does not wait for its input load: V201.
    DropDep,
    /// The strip's gather does not wait for its index load (a defect only
    /// with [`Spec::gather`]): V201.
    DropGatherDep,
    /// The strip's input load is missing: V101 while the buffer is fresh.
    DropLoad,
    /// The strip's store reads a range the allocator never handed out: V102.
    PastAllocation,
    /// The strip's store reads a range past the end of the bank: V202.
    PastBank,
    /// The strip's store reads twice the records its range holds: V103.
    Overflow,
    /// The strip's store also waits for an unrelated load, so its WAR pair
    /// against the next kernel writing the buffer is no longer exempt (a
    /// defect only with [`Spec::late_drain`]): V201.
    WarNotExempt,
    /// Every lookup indexes its table with the constant 100: V303 at every
    /// invocation.
    BadIndex,
    /// Every lookup indexes its table with its input plus 100, in bounds
    /// for all per-kernel analysis knows: V310 at every invocation fed by a
    /// kernel.
    BadFlow,
}

/// What to generate.
#[derive(Debug, Clone)]
pub struct Spec {
    pub config: ConfigName,
    pub strips: usize,
    pub double_buffered: bool,
    /// Chained kernels per strip, 1 to 3.
    pub kernels: usize,
    /// An index load and a gather feed the first kernel a second input.
    pub gather: bool,
    /// The last kernel of a strip (when it is not also the gather's
    /// consumer) reads an in-lane table. Ignored without indexed hardware.
    pub lookup: bool,
    /// Odd strips carry half the records: a second shape, other footprints.
    pub ragged: bool,
    /// A store has to drain one strip later than `bfs` asks, which leaves
    /// one snapshot-exempt WAR pair per strip (the store against the next
    /// kernel writing its buffer) for V201 to clear.
    pub late_drain: bool,
    pub defect: Option<(Defect, usize)>,
}

impl Spec {
    /// `bfs`'s shape: two loads and a gather, one kernel and a store per
    /// strip, double buffered, one kernel shape throughout.
    pub fn bfs_shaped(config: ConfigName, strips: usize) -> Spec {
        Spec {
            config,
            strips,
            double_buffered: true,
            kernels: 1,
            gather: true,
            lookup: false,
            ragged: false,
            late_drain: false,
            defect: None,
        }
    }
}

/// A generated program with what the verifier needs beside it.
pub struct Generated {
    pub cfg: MachineConfig,
    pub env: VerifyEnv,
    pub program: StreamProgram,
    /// Program op of every lookup invocation with, when a kernel of the
    /// same strip produced its input, that producer's op.
    pub lookups: Vec<(usize, Option<usize>)>,
    /// The (earlier, later) op pair [`Defect::DropDep`] left unordered.
    pub dropped: Option<(usize, usize)>,
}

struct Compiled(Arc<Kernel>, Arc<Schedule>);

fn compile(src: &str, cfg: &MachineConfig) -> Compiled {
    let kernel = Arc::new(parse_kernel(src).expect("test kernel parses"));
    let sched = schedule(&kernel, &SchedParams::from_machine(cfg)).expect("test kernel schedules");
    Compiled(kernel, Arc::new(sched))
}

/// One set of strip buffers.
#[derive(Clone, Copy)]
struct Buffers {
    input: StreamBinding,
    idx: StreamBinding,
    gathered: StreamBinding,
    temp: [StreamBinding; 2],
    out: StreamBinding,
}

pub fn generate(spec: &Spec) -> Generated {
    assert!((1..=3).contains(&spec.kernels) && spec.strips > 0);
    let cfg = MachineConfig::preset(spec.config);
    let lanes = cfg.lanes as u32;
    let bank_words = cfg.srf.bank_words(cfg.lanes) as u32;
    let defect = spec.defect.map(|(d, _)| d);
    let struck = |d: Defect, s: usize| spec.defect == Some((d, s));

    let mut next = 0u32;
    let mut alloc = |records: u32| {
        let range = SrfRange {
            base: next,
            words_per_bank: records.div_ceil(lanes),
        };
        next += range.words_per_bank;
        StreamBinding::whole(range, 1, records)
    };
    let sets: Vec<Buffers> = (0..if spec.double_buffered { 2 } else { 1 })
        .map(|_| Buffers {
            input: alloc(RECORDS),
            idx: alloc(RECORDS),
            gathered: alloc(RECORDS),
            temp: [alloc(RECORDS), alloc(RECORDS)],
            out: alloc(RECORDS),
        })
        .collect();
    let table = alloc(TABLE * lanes);
    let scratch = alloc(RECORDS);
    let env = VerifyEnv {
        allocated_words_per_bank: next,
        // The table was written before the program runs.
        filled: vec![(
            table.range.base,
            table.range.base + table.range.words_per_bank,
        )],
    };

    let arith = compile(ARITH, &cfg);
    let add2 = compile(ADD2, &cfg);
    let index = match defect {
        Some(Defect::BadIndex) => "100",
        Some(Defect::BadFlow) => "a + 100",
        _ => "a & 3",
    };
    let lookup = (spec.lookup && cfg.srf.indexed.is_some())
        .then(|| compile(&LOOKUP.replace("{INDEX}", index), &cfg));

    const IN_BASE: u32 = 0;
    const IDX_BASE: u32 = 0x40_0000;
    const OUT_BASE: u32 = 0x80_0000;
    let mut p = StreamProgram::new();
    let mut lookups = Vec::new();
    let mut dropped = None;
    // Per strip, for the strips still in flight: (input load, gather, first
    // kernel, store).
    type Strip = (Option<ProgOpId>, Option<ProgOpId>, ProgOpId, ProgOpId);
    let mut done: Vec<Strip> = Vec::with_capacity(spec.strips);
    for s in 0..spec.strips {
        let b = sets[s % sets.len()];
        let records = if spec.ragged && s % 2 == 1 {
            RECORDS / 2
        } else {
            RECORDS
        };
        let at = s as u32 * RECORDS;
        // The strip that used these buffers last, and the one before it.
        let reuse = s.checked_sub(sets.len()).map(|r| done[r]);
        let drained = s.checked_sub(sets.len() + 1).map(|r| done[r].3);

        // Loads overwrite what `reuse` read. `bfs` waits for its store; with
        // `late_drain` only for the kernel (and gather) that read the
        // buffer, the store having one more strip to drain.
        let mut ldeps: Vec<ProgOpId> = Vec::new();
        let mut xdeps: Vec<ProgOpId> = Vec::new();
        if let Some((load, gather, kernel, store)) = reuse {
            if spec.late_drain {
                ldeps.push(kernel);
                xdeps.extend(gather);
                ldeps.extend(drained);
                xdeps.extend(drained);
            } else {
                ldeps.push(store);
                xdeps.push(store);
            }
            // Loads into one buffer issue in order, whatever else waits.
            ldeps.extend(load);
        }
        let load = (!struck(Defect::DropLoad, s)).then(|| {
            p.load(
                AddrPattern::contiguous(IN_BASE + at, records),
                b.input.slice(0, records),
                false,
                &ldeps,
            )
        });
        let gather = spec.gather.then(|| {
            let idx = b.idx.slice(0, records);
            let l = p.load(
                AddrPattern::contiguous(IDX_BASE + at, records),
                idx,
                false,
                &xdeps,
            );
            let mut gdeps = vec![l];
            if struck(Defect::DropGatherDep, s) {
                gdeps.clear();
            }
            if let (true, Some((_, _, kernel, _))) = (spec.late_drain, reuse) {
                gdeps.push(kernel);
            }
            p.gather_dyn(idx, 0, b.gathered.slice(0, records), false, &gdeps)
        });

        let mut src = b.input;
        let mut prev: Option<ProgOpId> = None;
        let mut first = None;
        for k in 0..spec.kernels {
            let dst = if k + 1 == spec.kernels {
                b.out
            } else {
                b.temp[k]
            };
            let (src_b, dst_b) = (src.slice(0, records), dst.slice(0, records));
            let feeds_gather = k == 0 && spec.gather;
            let (compiled, bindings) = match &lookup {
                _ if feeds_gather => (&add2, vec![src_b, b.gathered.slice(0, records), dst_b]),
                Some(l) if k + 1 == spec.kernels => (l, vec![src_b, table, dst_b]),
                _ => (&arith, vec![src_b, dst_b]),
            };
            let mut kdeps: Vec<ProgOpId> = prev.into_iter().collect();
            if k == 0 {
                kdeps.extend(gather);
                if struck(Defect::DropDep, s) {
                    dropped = load.map(|l| (l.index(), p.len()));
                } else {
                    kdeps.extend(load);
                }
            }
            let id = p.kernel(
                Arc::clone(&compiled.0),
                Arc::clone(&compiled.1),
                bindings,
                u64::from(records / lanes),
                &kdeps,
            );
            if lookup.as_ref().is_some_and(|l| std::ptr::eq(l, compiled)) {
                lookups.push((id.index(), prev.map(|q| q.index())));
            }
            first.get_or_insert(id);
            prev = Some(id);
            src = dst;
        }

        let mut sdeps = vec![prev.expect("a strip has a kernel")];
        let mut from = b.out.slice(0, records);
        if struck(Defect::WarNotExempt, s) {
            sdeps.push(p.load(
                AddrPattern::contiguous(IDX_BASE + at, RECORDS),
                scratch,
                false,
                &[],
            ));
        } else if struck(Defect::PastAllocation, s) {
            from.range.base = env.allocated_words_per_bank;
        } else if struck(Defect::PastBank, s) {
            from.range.base = bank_words - 1;
        } else if struck(Defect::Overflow, s) {
            from = StreamBinding::whole(b.out.range, 1, 2 * RECORDS);
        }
        let store = p.store(
            from,
            AddrPattern::contiguous(OUT_BASE + at, from.words()),
            false,
            &sdeps,
        );
        done.push((load, gather, first.expect("a strip has a kernel"), store));
    }

    Generated {
        cfg,
        env,
        program: p,
        lookups,
        dropped,
    }
}
