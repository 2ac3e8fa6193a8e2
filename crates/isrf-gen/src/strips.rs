//! Strip-mined programs: [`Spec`] and [`Spec::generate`].

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::{schedule, SchedParams, Schedule};
use isrf_lang::parse_kernel;
use isrf_mem::AddrPattern;
use isrf_sim::{ProgOpId, StreamBinding, StreamProgram};
use proptest::prelude::*;

use crate::{corpus, mixed, Bump, Generated};

/// Records a full strip carries (one word each): four per lane.
const RECORDS: u32 = 32;
/// Records per lane of the lookup table.
const TABLE: u32 = 4;

const IN_BASE: u32 = 0;
const IDX_BASE: u32 = 0x40_0000;
const OUT_BASE: u32 = 0x80_0000;

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
    /// The preset the program is for.
    pub config: ConfigName,
    /// Strips, at least one.
    pub strips: usize,
    /// Two sets of strip buffers, so a strip overlaps its neighbour; with
    /// one, every strip waits for the previous one.
    pub double_buffered: bool,
    /// Chained kernels per strip, 0 to 3. With none, a strip stores its
    /// load straight back.
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
    /// Every transfer goes through the cache, where the preset has one.
    pub cacheable: bool,
    /// The input load reads its addresses in runs of this many equal ones,
    /// as the padded gathers of bfs and spmv have them; 0 reads them in
    /// order.
    pub repeat: u32,
    /// Gathers per strip, in runs of 1, 2, … equal addresses, into buffers
    /// nothing reads, so three and more transfers are in service at once.
    pub side_gathers: u32,
    /// At most one seeded defect, and the strip it strikes.
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
            cacheable: false,
            repeat: 0,
            side_gathers: 0,
            defect: None,
        }
    }

    /// `n` defect-free specs of one to four strips, across all four presets
    /// and every other axis.
    pub fn corpus(n: usize) -> Vec<Spec> {
        let specs = (0usize..4, 1usize..5, 0usize..4, 0u32..64, 0u32..4, 0u32..3).prop_map(
            |(config, strips, kernels, flags, repeat, side_gathers)| Spec {
                config: ConfigName::ALL[config],
                strips,
                double_buffered: flags & 1 != 0,
                kernels,
                gather: flags & 2 != 0,
                lookup: flags & 4 != 0,
                ragged: flags & 8 != 0,
                late_drain: flags & 16 != 0,
                cacheable: flags & 32 != 0,
                repeat,
                side_gathers,
                defect: None,
            },
        );
        corpus(&specs, "isrf-gen::Spec::corpus", n)
    }

    /// The program, its inputs and its output region.
    pub fn generate(&self) -> Generated {
        assert!(self.kernels <= 3 && self.strips > 0);
        let cfg = MachineConfig::preset(self.config);
        let lanes = cfg.lanes as u32;
        let bank_words = cfg.srf.bank_words(cfg.lanes) as u32;
        let defect = self.defect.map(|(d, _)| d);
        let struck = |d: Defect, s: usize| self.defect == Some((d, s));

        let mut srf = Bump { lanes, next: 0 };
        let sets: Vec<Buffers> = (0..if self.double_buffered { 2 } else { 1 })
            .map(|_| Buffers {
                input: srf.alloc(RECORDS),
                idx: srf.alloc(RECORDS),
                gathered: srf.alloc(RECORDS),
                temp: [srf.alloc(RECORDS), srf.alloc(RECORDS)],
                out: srf.alloc(RECORDS),
            })
            .collect();
        let table = srf.alloc(TABLE * lanes);
        let scratch = srf.alloc(RECORDS);
        let sides = self.side_gathers as usize;
        let side: Vec<StreamBinding> = (0..sets.len() * sides)
            .map(|_| srf.alloc(RECORDS))
            .collect();
        // The table was written before the program runs.
        let env = srf.env(Some(table));

        let arith = compile(ARITH, &cfg);
        let add2 = compile(ADD2, &cfg);
        let index = match defect {
            Some(Defect::BadIndex) => "100",
            Some(Defect::BadFlow) => "a + 100",
            _ => "a & 3",
        };
        let lookup = (self.lookup && cfg.srf.indexed.is_some())
            .then(|| compile(&LOOKUP.replace("{INDEX}", index), &cfg));

        let mut p = StreamProgram::new();
        let mut lookups = Vec::new();
        let mut dropped = None;
        // Per strip, for the strips still in flight: (input load, gather, first
        // kernel, store); a strip without kernels counts its store as the first.
        type Strip = (Option<ProgOpId>, Option<ProgOpId>, ProgOpId, ProgOpId);
        let mut done: Vec<Strip> = Vec::with_capacity(self.strips);
        let mut side_done: Vec<ProgOpId> = Vec::new();
        for s in 0..self.strips {
            let b = sets[s % sets.len()];
            let records = if self.ragged && s % 2 == 1 {
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
                if self.late_drain {
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
                let from = match self.repeat {
                    0 => AddrPattern::contiguous(IN_BASE + at, records),
                    repeat => runs(IN_BASE + at, records, repeat),
                };
                p.load(from, b.input.slice(0, records), self.cacheable, &ldeps)
            });
            let gather = self.gather.then(|| {
                let idx = b.idx.slice(0, records);
                let l = p.load(
                    AddrPattern::contiguous(IDX_BASE + at, records),
                    idx,
                    self.cacheable,
                    &xdeps,
                );
                let mut gdeps = vec![l];
                if struck(Defect::DropGatherDep, s) {
                    gdeps.clear();
                }
                if let (true, Some((_, _, kernel, _))) = (self.late_drain, reuse) {
                    gdeps.push(kernel);
                }
                p.gather_dyn(idx, 0, b.gathered.slice(0, records), self.cacheable, &gdeps)
            });
            // Each side gather waits only for the last one into its buffer.
            for g in 0..sides {
                let last = s.checked_sub(sets.len()).map(|r| side_done[r * sides + g]);
                let dst = side[s % sets.len() * sides + g].slice(0, records);
                let from = runs(IN_BASE + at, records, 1 + g as u32);
                side_done.push(p.load(from, dst, self.cacheable, last.as_slice()));
            }

            let mut src = b.input;
            let mut prev: Option<ProgOpId> = None;
            let mut first = None;
            for k in 0..self.kernels {
                let dst = if k + 1 == self.kernels {
                    b.out
                } else {
                    b.temp[k]
                };
                let (src_b, dst_b) = (src.slice(0, records), dst.slice(0, records));
                let feeds_gather = k == 0 && self.gather;
                let (compiled, bindings) = match &lookup {
                    _ if feeds_gather => (&add2, vec![src_b, b.gathered.slice(0, records), dst_b]),
                    Some(l) if k + 1 == self.kernels => (l, vec![src_b, table, dst_b]),
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

            // The last kernel's output, or with no kernel the load itself once
            // the gather beside it has landed too.
            let mut sdeps: Vec<ProgOpId> = match prev {
                Some(k) => vec![k],
                None => load.into_iter().chain(gather).collect(),
            };
            let mut from = src.slice(0, records);
            if struck(Defect::WarNotExempt, s) {
                sdeps.push(p.load(
                    AddrPattern::contiguous(IDX_BASE + at, RECORDS),
                    scratch,
                    self.cacheable,
                    &[],
                ));
            } else if struck(Defect::PastAllocation, s) {
                from.range.base = env.allocated_words_per_bank;
            } else if struck(Defect::PastBank, s) {
                from.range.base = bank_words - 1;
            } else if struck(Defect::Overflow, s) {
                from = StreamBinding::whole(src.range, 1, 2 * RECORDS);
            }
            let store = p.store(
                from,
                AddrPattern::contiguous(OUT_BASE + at, from.words()),
                self.cacheable,
                &sdeps,
            );
            done.push((load, gather, first.unwrap_or(store), store));
        }

        let words = self.strips as u32 * RECORDS;
        let mut inputs = vec![(IN_BASE, mixed(words))];
        if self.gather {
            // Gather indices are addresses into the input.
            inputs.push((IDX_BASE, (0..words).map(|k| k * 7 % words).collect()));
        }
        Generated {
            cfg,
            env,
            program: p,
            inputs,
            outputs: vec![(OUT_BASE, words)],
            lookups,
            dropped,
        }
    }
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

struct Compiled(Arc<Kernel>, Arc<Schedule>);

fn compile(src: &str, cfg: &MachineConfig) -> Compiled {
    let kernel = Arc::new(parse_kernel(src).expect("generator kernel parses"));
    let sched =
        schedule(&kernel, &SchedParams::from_machine(cfg)).expect("generator kernel schedules");
    Compiled(kernel, Arc::new(sched))
}

/// `words` addresses from `base` in runs of `repeat` equal ones, as the
/// padded gathers of bfs and spmv have them.
fn runs(base: u32, words: u32, repeat: u32) -> AddrPattern {
    AddrPattern::Indexed(
        (0..words)
            .map(|i| base + (i / repeat * 5) % words)
            .collect(),
    )
}
