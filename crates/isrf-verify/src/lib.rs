//! Static hazard analyzer and cost model for ISRF stream programs.
//!
//! [`Verifier`] implements [`isrf_sim::ProgramVerifier`]: a dataflow
//! analysis over a [`StreamProgram`] and the kernel bodies it invokes that
//! proves, *before* a single cycle is simulated, that the program cannot
//! trip the simulator's runtime hazards. Seven check families:
//!
//! * **Liveness** ([`codes::UNFILLED_READ`], [`codes::UNALLOCATED_BINDING`])
//!   — every stream a kernel or store reads is filled by a memory load, a
//!   kernel output, or pre-existing SRF data on every path; no binding
//!   targets SRF words the allocator never handed out.
//! * **Allocation** ([`codes::BINDING_OVERFLOW`], [`codes::OVERLAP_HAZARD`],
//!   [`codes::CAPACITY_EXCEEDED`]) — bindings fit their ranges, ranges fit
//!   the bank, and no two *unordered* ops touch overlapping SRF words with
//!   at least one writer.
//! * **Indexed** ([`codes::INDEXED_ON_NON_INDEXED_CONFIG`],
//!   [`codes::CROSS_LANE_WITHOUT_NETWORK`], [`codes::INDEX_OUT_OF_BOUNDS`])
//!   — indexed streams only run on configurations with indexed-SRF
//!   hardware, cross-lane streams only where the inter-lane index network
//!   exists, and interval analysis over each kernel body flags index
//!   expressions *provably* outside their stream's record range.
//! * **Propagation** ([`codes::PROPAGATED_INDEX_OOB`],
//!   [`codes::PROPAGATED_WRITE_OOB`], [`codes::GATHER_ADDRESS_WRAP`]) —
//!   whole-program abstract interpretation flows value intervals from
//!   producer kernels through SRF streams into consumer kernels and
//!   memory ops, catching cross-kernel overruns invisible to per-kernel
//!   analysis (see the `prop` module docs for the abstract store).
//! * **Slack** ([`codes::INSUFFICIENT_SLACK`]) — every indexed data read is
//!   scheduled at least the configured address→data separation after its
//!   paired address issue.
//! * **Deadlock** ([`codes::FIFO_DEADLOCK`]) — an event-driven replay of
//!   the modulo schedule's address pushes and data pops proves the address
//!   FIFO + stream buffer can always drain; otherwise the exact blocked op
//!   and kernel cycle are reported.
//! * **Space** ([`codes::DEAD_STREAM`], [`codes::OVER_ALLOCATION`]) —
//!   SRF-space *warnings*: streams that are filled but never read, and
//!   ranges at least twice as large as the records they hold. Warnings
//!   never fail verification; they surface only through [`Verifier::report`].
//!
//! [`Verifier::report`] additionally computes a static [`CostModel`]: a
//! sound whole-program cycle lower bound with per-kernel port pressure and
//! address-FIFO occupancy bounds (see the [`cost`] module docs for the
//! formulas and their soundness arguments).
//!
//! Diagnostics carry `.isrf` source lines whenever the kernel was compiled
//! from source (the `isrf-lang` lowering records a line per op), so a
//! finding points at the offending statement, not just an IR index.
//! Propagation diagnostics also carry `notes` — the derived intervals and
//! the dataflow path (which producer filled which SRF words) that
//! triggered them.
//!
//! The analysis is sound but necessarily incomplete: stream fills are
//! tracked at range granularity, and index bounds are flagged only when
//! *definitely* out of range (a data-dependent index that merely *might*
//! overflow passes statically and is still caught by the simulator's
//! runtime assertions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval;
mod prop;

pub mod cost;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_kernel::ir::{Kernel, Opcode, StreamKind};
use isrf_kernel::sched::Schedule;
use isrf_sim::program::{ProgOp, StreamProgram};
use isrf_sim::stream::StreamBinding;
use isrf_sim::verify::{Diagnostic, ProgramVerifier, VerifyEnv};

pub use cost::{cost_model, CostModel, KernelCost, StreamCost};

use interval::{eval_intervals, operand_interval, AbsVal};
use prop::{input_slots_feeding, propagate};

/// Stable diagnostic codes, grouped by check family.
pub mod codes {
    /// A stream is read but never filled (liveness).
    pub const UNFILLED_READ: &str = "V101";
    /// A binding targets SRF words beyond what the allocator handed out.
    pub const UNALLOCATED_BINDING: &str = "V102";
    /// A binding's records do not fit inside its SRF range.
    pub const BINDING_OVERFLOW: &str = "V103";
    /// Two unordered ops touch overlapping SRF words, at least one writing.
    pub const OVERLAP_HAZARD: &str = "V201";
    /// An SRF range extends beyond the bank capacity.
    pub const CAPACITY_EXCEEDED: &str = "V202";
    /// An indexed stream on a configuration without indexed-SRF hardware.
    pub const INDEXED_ON_NON_INDEXED_CONFIG: &str = "V301";
    /// A cross-lane indexed stream where the index network is disabled.
    pub const CROSS_LANE_WITHOUT_NETWORK: &str = "V302";
    /// An index expression provably outside the stream's record range.
    pub const INDEX_OUT_OF_BOUNDS: &str = "V303";
    /// A cross-kernel index overrun: the index is in bounds under
    /// per-kernel analysis (the stream input is unknown), but the interval
    /// propagated from the producing kernel proves it out of range.
    pub const PROPAGATED_INDEX_OOB: &str = "V310";
    /// A cross-kernel indexed *write* overrun, analogous to V310.
    pub const PROPAGATED_WRITE_OOB: &str = "V311";
    /// Every index a gather/scatter reads from the SRF provably wraps the
    /// 32-bit word address space when added to the op's base.
    pub const GATHER_ADDRESS_WRAP: &str = "V312";
    /// An indexed read scheduled closer to its address issue than the
    /// configured address→data separation.
    pub const INSUFFICIENT_SLACK: &str = "V401";
    /// The address FIFO / stream buffer can wedge: the schedule demands
    /// more outstanding records than the hardware can hold.
    pub const FIFO_DEADLOCK: &str = "V501";
    /// A stream is filled but never read by any later op (warning).
    pub const DEAD_STREAM: &str = "W601";
    /// An SRF range at least twice as large as its records need (warning).
    pub const OVER_ALLOCATION: &str = "W602";
}

/// The rule behind a diagnostic code, for `--explain`-style tooling.
/// Returns `None` for unknown codes.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code {
        codes::UNFILLED_READ => {
            "Every SRF region a kernel or store reads must be filled first — by a memory \
             load, an earlier kernel's output, or pre-existing SRF data — on every path. \
             Fills are tracked at range granularity over the program's dependence order."
        }
        codes::UNALLOCATED_BINDING => {
            "A binding must stay inside the SRF words the allocator has handed out; reading \
             or writing unallocated words is undefined in hardware and panics the simulator."
        }
        codes::BINDING_OVERFLOW => {
            "A binding's records (records x record_words, laid out record-interleaved \
             across lanes) must fit inside its declared SRF range."
        }
        codes::OVERLAP_HAZARD => {
            "Two program ops with no ordering dependence between them must not touch \
             overlapping SRF words when at least one writes; the simulator may execute \
             them in either order. Memory ops snapshot their SRF sources at issue, so a \
             WAR pair whose read provably precedes the kernel's first write is exempt \
             (double-buffered strip mining relies on this)."
        }
        codes::CAPACITY_EXCEEDED => "An SRF range must fit inside the per-lane bank capacity.",
        codes::INDEXED_ON_NON_INDEXED_CONFIG => {
            "Indexed streams (in-lane or cross-lane) require indexed-SRF hardware; the \
             Base and Cache configurations have none."
        }
        codes::CROSS_LANE_WITHOUT_NETWORK => {
            "Cross-lane indexed streams require the inter-lane index network, which this \
             configuration disables."
        }
        codes::INDEX_OUT_OF_BOUNDS => {
            "Interval analysis over the kernel body (constants, lane/iteration IDs, \
             arithmetic, masking) proves every value this index expression can take is \
             outside the stream's valid records 0..=max. Per-kernel analysis treats stream \
             inputs as unknown, so only locally-provable overruns are flagged."
        }
        codes::PROPAGATED_INDEX_OOB => {
            "Whole-program propagation: value intervals flow from producer kernels through \
             SRF streams (store -> stream -> read) into this kernel's inputs, and with \
             those inputs the index is provably out of bounds — even though per-kernel \
             analysis (inputs unknown) cannot see it. The diagnostic notes list the \
             derived intervals and the producing ops on the dataflow path."
        }
        codes::PROPAGATED_WRITE_OOB => {
            "Same whole-program propagation as V310, for the index operand of an indexed \
             stream write."
        }
        codes::GATHER_ADDRESS_WRAP => {
            "The index stream this gather/scatter reads was produced by a kernel whose \
             propagated value interval proves every element, added to the op's base, \
             wraps the 32-bit word address space — a mis-built index stream, not a \
             plausible sparse access pattern."
        }
        codes::INSUFFICIENT_SLACK => {
            "An indexed data read must be scheduled at least the configured address->data \
             separation after its paired address issue, or the access cannot have \
             completed even without conflicts."
        }
        codes::FIFO_DEADLOCK => {
            "Event-driven replay of the modulo schedule's address pushes and data pops \
             against the address-FIFO and stream-buffer capacities; the schedule must \
             never demand more outstanding records than the hardware can hold, or the \
             all-or-nothing issue group wedges."
        }
        codes::DEAD_STREAM => {
            "Warning: a stream is filled (by a load or a kernel output) but no kernel, \
             store, gather, or scatter ever reads the words — wasted SRF space and \
             memory/compute bandwidth."
        }
        codes::OVER_ALLOCATION => {
            "Warning: an SRF range is at least twice as large as the records bound into \
             it need (and wastes at least 8 words per bank) — SRF capacity is the \
             paper's scarcest resource."
        }
        _ => return None,
    })
}

/// The seven independent check families. Disabling one (for triage, or in
/// the test suite to prove each check is load-bearing) drops exactly its
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// V101/V102: streams are filled before they are read and bindings
    /// stay inside allocated SRF space.
    Liveness,
    /// V103/V201/V202: bindings fit ranges, ranges fit the bank, unordered
    /// ops do not conflict.
    Allocation,
    /// V301/V302/V303: indexed streams match the hardware and index
    /// expressions stay in bounds.
    Indexed,
    /// V310/V311/V312: cross-kernel interval propagation over the SRF.
    Propagation,
    /// V401: address→data decoupling slack is respected.
    Slack,
    /// V501: address FIFOs cannot deadlock.
    Deadlock,
    /// W601/W602: SRF space warnings (report-only, never fail verify).
    Space,
}

impl Check {
    /// All checks, in reporting order.
    pub const ALL: [Check; 7] = [
        Check::Liveness,
        Check::Allocation,
        Check::Indexed,
        Check::Propagation,
        Check::Slack,
        Check::Deadlock,
        Check::Space,
    ];

    fn name(self) -> &'static str {
        match self {
            Check::Liveness => "liveness",
            Check::Allocation => "allocation",
            Check::Indexed => "indexed",
            Check::Propagation => "propagation",
            Check::Slack => "slack",
            Check::Deadlock => "deadlock",
            Check::Space => "space",
        }
    }

    fn bit(self) -> usize {
        match self {
            Check::Liveness => 0,
            Check::Allocation => 1,
            Check::Indexed => 2,
            Check::Propagation => 3,
            Check::Slack => 4,
            Check::Deadlock => 5,
            Check::Space => 6,
        }
    }
}

/// The analyzer: all checks enabled by default.
#[derive(Debug, Clone)]
pub struct Verifier {
    enabled: [bool; 7],
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

/// Everything the analyzer can say about a program: hard findings (the
/// same list [`Verifier::verify`] returns), space warnings, and the static
/// cost model.
#[derive(Debug, Clone)]
pub struct Report {
    /// Hard findings — a non-empty list fails verification.
    pub diagnostics: Vec<Diagnostic>,
    /// W6xx space warnings — advisory only.
    pub warnings: Vec<Diagnostic>,
    /// Static cycle lower bound and per-kernel pressure breakdown.
    pub cost: CostModel,
}

impl Verifier {
    /// A verifier with every check enabled.
    pub fn new() -> Self {
        Verifier { enabled: [true; 7] }
    }

    /// Disable one check family (builder-style).
    pub fn without(mut self, check: Check) -> Self {
        self.enabled[check.bit()] = false;
        self
    }

    fn on(&self, check: Check) -> bool {
        self.enabled[check.bit()]
    }

    /// Full analysis: the diagnostics [`Verifier::verify`] would return,
    /// plus space warnings and the static cost model. Warnings never
    /// appear in `diagnostics` — a warned program still verifies clean.
    pub fn report(&self, cfg: &MachineConfig, env: &VerifyEnv, program: &StreamProgram) -> Report {
        let ctx = Analysis::new(cfg, env, program);
        let diagnostics = self.hard_checks(&ctx);
        let mut warnings = Vec::new();
        if self.on(Check::Space) {
            ctx.check_space(&mut warnings);
        }
        Report {
            diagnostics,
            warnings,
            cost: cost_model(cfg, program),
        }
    }

    fn hard_checks(&self, ctx: &Analysis) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.on(Check::Liveness) {
            ctx.check_liveness(&mut out);
        }
        if self.on(Check::Allocation) {
            ctx.check_allocation(&mut out);
        }
        if self.on(Check::Indexed) {
            ctx.check_indexed(&mut out);
        }
        if self.on(Check::Propagation) {
            ctx.check_propagation(&mut out);
        }
        if self.on(Check::Slack) {
            ctx.check_slack(&mut out);
        }
        if self.on(Check::Deadlock) {
            ctx.check_deadlock(&mut out);
        }
        out
    }
}

impl ProgramVerifier for Verifier {
    fn verify(
        &self,
        cfg: &MachineConfig,
        env: &VerifyEnv,
        program: &StreamProgram,
    ) -> Vec<Diagnostic> {
        self.hard_checks(&Analysis::new(cfg, env, program))
    }
}

// ---------------------------------------------------------------------------
// Shared program model
// ---------------------------------------------------------------------------

/// One SRF access made by a program op: which binding, read or write, and
/// the words it can reach. Its human label is built only when a diagnostic
/// needs one ([`Analysis::label`]).
struct Access {
    prog_op: usize,
    binding: StreamBinding,
    write: bool,
    indexed: bool,
    /// [`binding_footprint`] of the binding, computed once.
    footprint: Option<(u32, u32)>,
}

struct Analysis<'a> {
    cfg: &'a MachineConfig,
    env: &'a VerifyEnv,
    program: &'a StreamProgram,
    /// Every access in op order: op `i` makes `accesses[first[i]..first[i + 1]]`.
    accesses: Vec<Access>,
    first: Vec<usize>,
    /// `before[i]` is the bitset of ops that must complete before op `i`
    /// starts: explicit dependences, transitively closed, plus the implicit
    /// kernel→kernel program-order chain (the machine has one sequencer).
    before: Vec<Vec<u64>>,
    /// [`shape_ids`] of the program: the per-invocation checks run once per
    /// distinct shape ([`Analysis::per_shape`]).
    shape_of: Vec<usize>,
    shapes: usize,
    /// [`eval_intervals`] results by (shape, stream inputs). The map lives
    /// and dies with this one analysis, so it holds at most two entries per
    /// kernel invocation of the program in hand.
    evals: RefCell<BTreeMap<(usize, Vec<AbsVal>), Intervals>>,
    /// Work the unit tests pin: footprint pairs V201 compared, and
    /// per-invocation analyses evaluated rather than found already done.
    #[cfg(test)]
    compared: std::cell::Cell<u64>,
    #[cfg(test)]
    evaluated: std::cell::Cell<u64>,
}

/// One [`eval_intervals`] result, shared by the invocations it holds for.
type Intervals = Rc<Vec<AbsVal>>;

fn bit_get(row: &[u64], j: usize) -> bool {
    row[j / 64] & (1 << (j % 64)) != 0
}

/// Dense ids for the distinct *shapes* among a program's kernel invocations:
/// everything a per-invocation analysis may read besides the machine — the
/// kernel and its schedule (by `Arc` identity; the program is borrowed for
/// the whole call, so an address names one allocation), the iteration count
/// and, per slot, the record width and the range size. One id per program
/// op (`usize::MAX` for memory ops), and the number of ids.
pub(crate) fn shape_ids(program: &StreamProgram) -> (Vec<usize>, usize) {
    let mut ids = BTreeMap::new();
    let shape_of = (0..program.len())
        .map(|i| match program.node(i).0 {
            ProgOp::Kernel {
                kernel,
                schedule,
                bindings,
                iters,
            } => {
                let slots: Vec<(u32, u32)> = bindings
                    .iter()
                    .map(|b| (b.record_words, b.range.words_per_bank))
                    .collect();
                let next = ids.len();
                *ids.entry((Arc::as_ptr(kernel), Arc::as_ptr(schedule), *iters, slots))
                    .or_insert(next)
            }
            _ => usize::MAX,
        })
        .collect();
    (shape_of, ids.len())
}

/// Per-bank `[lo, hi)` word interval an access through `b` can touch.
/// Indexed accesses may reach the whole range; sequential/conditional
/// accesses are bounded by the records the binding actually covers. `None`
/// for empty bindings.
pub(crate) fn binding_footprint(
    b: &StreamBinding,
    indexed: bool,
    lanes: u32,
) -> Option<(u32, u32)> {
    if indexed {
        return Some((b.range.base, b.range.base + b.range.words_per_bank));
    }
    if b.records == 0 || b.record_words == 0 {
        return None;
    }
    let min_rec = b.absolute_record(0);
    let max_rec = if b.stride_records == 0 {
        // Periodic window: every run re-reads records start..start+run.
        b.start_record + b.run_records.min(b.records) - 1
    } else {
        b.absolute_record(b.records - 1)
    };
    let lo = b.range.base + (min_rec / lanes) * b.record_words;
    let hi = b.range.base + (max_rec / lanes) * b.record_words + b.record_words;
    Some((lo, hi))
}

/// The full SRF range of a binding — the granularity at which fills are
/// tracked (matching `Machine`'s fill bookkeeping).
pub(crate) fn range_interval(b: &StreamBinding) -> (u32, u32) {
    (b.range.base, b.range.base + b.range.words_per_bank)
}

impl<'a> Analysis<'a> {
    fn new(cfg: &'a MachineConfig, env: &'a VerifyEnv, program: &'a StreamProgram) -> Self {
        let n = program.len();
        let wlen = n.div_ceil(64).max(1);
        let mut before: Vec<Vec<u64>> = Vec::with_capacity(n);
        let mut last_kernel: Option<usize> = None;
        for i in 0..n {
            let (op, deps) = program.node(i);
            let mut row = vec![0u64; wlen];
            let mut preds: Vec<usize> = deps.iter().map(|d| d.index()).collect();
            if let ProgOp::Kernel { .. } = op {
                if let Some(k) = last_kernel {
                    preds.push(k);
                }
                last_kernel = Some(i);
            }
            for j in preds {
                row[j / 64] |= 1 << (j % 64);
                // `before[j]` holds ops below `j` only.
                for (w, b) in row.iter_mut().zip(&before[j][..=j / 64]) {
                    *w |= b;
                }
            }
            before.push(row);
        }

        let lanes = cfg.lanes as u32;
        let mut accesses = Vec::new();
        let mut first = Vec::with_capacity(n + 1);
        for i in 0..n {
            first.push(accesses.len());
            let mut push = |binding: StreamBinding, write: bool, indexed: bool| {
                accesses.push(Access {
                    prog_op: i,
                    binding,
                    write,
                    indexed,
                    footprint: binding_footprint(&binding, indexed, lanes),
                });
            };
            match program.node(i).0 {
                ProgOp::Load { dst, .. } => push(*dst, true, false),
                ProgOp::Store { src, .. } => push(*src, false, false),
                ProgOp::GatherDyn {
                    index_stream, dst, ..
                } => {
                    push(*index_stream, false, false);
                    push(*dst, true, false);
                }
                ProgOp::Kernel {
                    kernel, bindings, ..
                } => {
                    for (decl, b) in kernel.streams.iter().zip(bindings) {
                        let write = matches!(
                            decl.kind,
                            StreamKind::SeqOut | StreamKind::CondOut | StreamKind::IdxInWrite
                        );
                        push(*b, write, decl.kind.is_indexed());
                    }
                }
            }
        }
        first.push(accesses.len());

        let (shape_of, shapes) = shape_ids(program);
        Analysis {
            cfg,
            env,
            program,
            accesses,
            first,
            before,
            shape_of,
            shapes,
            evals: RefCell::default(),
            #[cfg(test)]
            compared: Default::default(),
            #[cfg(test)]
            evaluated: Default::default(),
        }
    }

    /// The human label of access `k`.
    fn label(&self, k: usize) -> String {
        let i = self.accesses[k].prog_op;
        match (self.program.node(i).0, k - self.first[i]) {
            (ProgOp::Load { .. }, _) => format!("load (op {i}) destination"),
            (ProgOp::Store { .. }, _) => format!("store (op {i}) source"),
            (ProgOp::GatherDyn { .. }, 0) => format!("gather (op {i}) index stream"),
            (ProgOp::GatherDyn { .. }, _) => format!("gather (op {i}) destination"),
            (ProgOp::Kernel { kernel, .. }, slot) => {
                format!(
                    "kernel `{}` stream `{}`",
                    kernel.name, kernel.streams[slot].name
                )
            }
        }
    }

    /// Invocation `i`, taken apart.
    fn invocation(&self, i: usize) -> (&'a Kernel, &'a Schedule, &'a [StreamBinding], u64) {
        match self.program.node(i).0 {
            ProgOp::Kernel {
                kernel,
                schedule,
                bindings,
                iters,
            } => (kernel, schedule, bindings, *iters),
            _ => unreachable!("op {i} is not a kernel invocation"),
        }
    }

    /// Run a per-invocation `check` once for each distinct shape, on its
    /// first invocation, and report what it found at every invocation of
    /// that shape under that invocation's `prog_op` (nothing such a check
    /// says names the op otherwise).
    fn per_shape(&self, out: &mut Vec<Diagnostic>, check: impl Fn(usize, &mut Vec<Diagnostic>)) {
        let mut found: Vec<Option<Vec<Diagnostic>>> = vec![None; self.shapes];
        for (i, &shape) in self.shape_of.iter().enumerate() {
            if shape == usize::MAX {
                continue;
            }
            let found = found[shape].get_or_insert_with(|| {
                #[cfg(test)]
                self.evaluated.set(self.evaluated.get() + 1);
                let mut found = Vec::new();
                check(i, &mut found);
                found
            });
            out.extend(found.iter().cloned().map(|d| Diagnostic {
                prog_op: Some(i),
                ..d
            }));
        }
    }

    /// [`eval_intervals`] over invocation `i`'s kernel with its stream reads
    /// seeded from `stream_in`, evaluated once per distinct (shape, inputs).
    fn eval(&self, i: usize, stream_in: &[AbsVal]) -> Intervals {
        let (kernel, _, _, iters) = self.invocation(i);
        // `&[]` and all-⊤ inputs ask the same question.
        let seeds: &[AbsVal] = if stream_in.iter().any(|v| v.is_some()) {
            stream_in
        } else {
            &[]
        };
        let mut evals = self.evals.borrow_mut();
        let vals = evals
            .entry((self.shape_of[i], seeds.to_vec()))
            .or_insert_with(|| {
                #[cfg(test)]
                self.evaluated.set(self.evaluated.get() + 1);
                Rc::new(eval_intervals(kernel, iters, self.cfg.lanes as i64, seeds))
            });
        Rc::clone(vals)
    }

    fn bank_words(&self) -> u32 {
        self.cfg.srf.bank_words(self.cfg.lanes) as u32
    }

    fn exceeds_bank(&self, b: &StreamBinding) -> bool {
        b.range.base + b.range.words_per_bank > self.bank_words()
    }

    /// Valid record indices for an index into `slot` of `kernel` bound to
    /// `b`: `0..=max`. `None` when the binding has no records.
    fn max_valid_record(
        &self,
        kernel: &Kernel,
        slot: isrf_kernel::ir::StreamSlot,
        b: &StreamBinding,
    ) -> Option<i64> {
        if b.record_words == 0 {
            return None;
        }
        let per_lane = (b.range.words_per_bank / b.record_words) as i64;
        Some(if kernel.stream(slot).kind.is_cross_lane() {
            self.cfg.lanes as i64 * per_lane - 1
        } else {
            per_lane - 1
        })
    }

    // -----------------------------------------------------------------------
    // Liveness: V101 / V102
    // -----------------------------------------------------------------------

    fn check_liveness(&self, out: &mut Vec<Diagnostic>) {
        let check = Check::Liveness.name();
        // Fills are tracked per range and a program writes few distinct
        // ones: keep, per range, the set of ops that write it.
        let mut writers: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for w in self.accesses.iter().filter(|w| w.write) {
            let ops = writers
                .entry(range_interval(&w.binding))
                .or_insert_with(|| vec![0; self.program.len().div_ceil(64)]);
            ops[w.prog_op / 64] |= 1 << (w.prog_op % 64);
        }
        for (k, a) in self.accesses.iter().enumerate() {
            let (lo, hi) = range_interval(&a.binding);
            if self.exceeds_bank(&a.binding) {
                continue; // V202's domain (allocation check)
            }
            if hi > self.env.allocated_words_per_bank {
                out.push(pdiag(
                    codes::UNALLOCATED_BINDING,
                    check,
                    a.prog_op,
                    format!(
                        "{} is bound to SRF words [{lo}, {hi}) per bank, but only {} words \
                         have been allocated",
                        self.label(k),
                        self.env.allocated_words_per_bank
                    ),
                ));
                continue; // an unallocated stream is trivially also unfilled
            }
            if a.write {
                continue;
            }
            // A read is satisfied by pre-existing data or by writes of ops
            // ordered strictly before this one (a kernel's own outputs do
            // NOT satisfy its own inputs — the hardware provides no such
            // forwarding within an invocation): the ranges reaching into
            // `[lo, hi)` whose writer set meets `before[op]`.
            let before = &self.before[a.prog_op];
            let mut covered: Vec<(u32, u32)> = self.env.filled.clone();
            covered.extend(
                writers
                    .range(..(hi, 0))
                    .filter(|((_, wh), ops)| {
                        lo < *wh && ops.iter().zip(before).any(|(w, b)| w & b != 0)
                    })
                    .map(|(range, _)| *range),
            );
            if !interval_covers(&mut covered, lo, hi) {
                out.push(pdiag(
                    codes::UNFILLED_READ,
                    check,
                    a.prog_op,
                    format!(
                        "{} reads SRF words [{lo}, {hi}) per bank, but no memory load, \
                         prior kernel output, or pre-existing data fills them",
                        self.label(k)
                    ),
                ));
            }
        }
    }

    // -----------------------------------------------------------------------
    // Allocation: V103 / V201 / V202
    // -----------------------------------------------------------------------

    fn check_allocation(&self, out: &mut Vec<Diagnostic>) {
        let check = Check::Allocation.name();
        for (k, a) in self.accesses.iter().enumerate() {
            let b = &a.binding;
            if self.exceeds_bank(b) {
                let (lo, hi) = range_interval(b);
                out.push(pdiag(
                    codes::CAPACITY_EXCEEDED,
                    check,
                    a.prog_op,
                    format!(
                        "{} is bound to SRF words [{lo}, {hi}) per bank, beyond the bank \
                         capacity of {} words",
                        self.label(k),
                        self.bank_words()
                    ),
                ));
                continue;
            }
            // Record extent must fit the range (indexed bindings use their
            // declared addressable record count).
            if b.records > 0 && b.record_words > 0 {
                let max_rec = if !a.indexed && b.stride_records == 0 {
                    b.start_record + b.run_records.min(b.records) - 1
                } else {
                    b.absolute_record(b.records - 1)
                };
                let lanes = self.cfg.lanes as u32;
                let need = (max_rec / lanes) * b.record_words + b.record_words;
                if need > b.range.words_per_bank {
                    out.push(pdiag(
                        codes::BINDING_OVERFLOW,
                        check,
                        a.prog_op,
                        format!(
                            "{} needs {need} words per bank for its {} records of {} \
                             word(s), but its range holds only {}",
                            self.label(k),
                            b.records,
                            b.record_words,
                            b.range.words_per_bank
                        ),
                    ));
                }
            }
        }

        // Unordered-pair conflicts. Ops are topologically ordered, so the
        // ops unordered against `j` are the unset bits of `before[j]` below
        // `j`: walk those, word by word.
        for j in 0..self.program.len() {
            for (w, word) in self.before[j][..=j / 64].iter().enumerate() {
                let mut unordered = !word;
                if w == j / 64 {
                    unordered &= (1 << (j % 64)) - 1;
                }
                while unordered != 0 {
                    self.check_pair(w * 64 + unordered.trailing_zeros() as usize, j, out);
                    unordered &= unordered - 1;
                }
            }
        }
    }

    /// V201 for one unordered pair of ops `i < j`.
    fn check_pair(&self, i: usize, j: usize, out: &mut Vec<Diagnostic>) {
        // Memory ops snapshot their SRF sources at issue, and ready memory
        // ops issue before the same cycle's kernel dispatch. So a WAR pair —
        // memory op `i` reading what a later kernel `j` overwrites — is
        // benign when everything `i` waits on is also ordered before `j`:
        // the snapshot then provably precedes the kernel's first write.
        // (Double-buffered strip mining relies on exactly this.)
        let war_exempt = || {
            let (op_i, deps_i) = self.program.node(i);
            let (op_j, _) = self.program.node(j);
            !matches!(op_i, ProgOp::Kernel { .. })
                && matches!(op_j, ProgOp::Kernel { .. })
                && deps_i.iter().all(|d| bit_get(&self.before[j], d.index()))
        };
        let overlap = |a: usize, b: usize| {
            #[cfg(test)]
            self.compared.set(self.compared.get() + 1);
            match (self.accesses[a].footprint, self.accesses[b].footprint) {
                (Some((al, ah)), Some((bl, bh))) if al < bh && bl < ah => {
                    Some((al.max(bl), ah.min(bh)))
                }
                _ => None,
            }
        };
        let (of_i, of_j) = (
            self.first[i]..self.first[i + 1],
            self.first[j]..self.first[j + 1],
        );
        // Conflict when `i` writes, or `j` writes and the snapshot exemption
        // does not cover this read of `i`.
        let conflict = of_i
            .flat_map(|a| of_j.clone().map(move |b| (a, b)))
            .find_map(|(a, b)| {
                let words = overlap(a, b)?;
                let (wa, wb) = (self.accesses[a].write, self.accesses[b].write);
                (wa || (wb && !war_exempt())).then_some((a, b, words))
            });
        if let Some((a, b, (lo, hi))) = conflict {
            out.push(pdiag(
                codes::OVERLAP_HAZARD,
                Check::Allocation.name(),
                j,
                format!(
                    "{} and {} touch overlapping SRF words [{lo}, {hi}) per bank \
                     with no ordering dependence between ops {i} and {j}",
                    self.label(a),
                    self.label(b)
                ),
            ));
        }
    }

    // -----------------------------------------------------------------------
    // Indexed: V301 / V302 / V303
    // -----------------------------------------------------------------------

    fn check_indexed(&self, out: &mut Vec<Diagnostic>) {
        let check = Check::Indexed.name();
        self.per_shape(out, |i, out| {
            let (kernel, _, bindings, _) = self.invocation(i);
            let Some(idx_cfg) = &self.cfg.srf.indexed else {
                // No indexed hardware: one finding per indexed stream slot.
                for (slot, decl) in kernel.streams.iter().enumerate() {
                    if decl.kind.is_indexed() {
                        let kop = kernel
                            .ops
                            .iter()
                            .position(|o| o.opcode.stream().map(|s| s.0 as usize) == Some(slot));
                        out.push(kdiag(
                            codes::INDEXED_ON_NON_INDEXED_CONFIG,
                            check,
                            i,
                            kernel,
                            kop,
                            format!(
                                "kernel `{}` declares indexed stream `{}`, but configuration \
                                 `{:?}` has no indexed-SRF hardware",
                                kernel.name, decl.name, self.cfg.name
                            ),
                        ));
                    }
                }
                return;
            };
            for (slot, decl) in kernel.streams.iter().enumerate() {
                if decl.kind.is_cross_lane() && !idx_cfg.crosslane {
                    let kop = kernel
                        .ops
                        .iter()
                        .position(|o| o.opcode.stream().map(|s| s.0 as usize) == Some(slot));
                    out.push(kdiag(
                        codes::CROSS_LANE_WITHOUT_NETWORK,
                        check,
                        i,
                        kernel,
                        kop,
                        format!(
                            "kernel `{}` declares cross-lane indexed stream `{}`, but the \
                             configuration's cross-lane index network is disabled",
                            kernel.name, decl.name
                        ),
                    ));
                }
            }

            // Interval analysis over the kernel body: flag indices that are
            // *provably* outside the addressable records of their binding.
            let vals = self.eval(i, &[]);
            for (kop, op) in kernel.ops.iter().enumerate() {
                let (slot, iv) = match op.opcode {
                    Opcode::IdxAddr(s) => (s, vals[kop]),
                    Opcode::IdxWrite(s) => (s, operand_interval(&vals, op, 0)),
                    _ => continue,
                };
                let Some(iv) = iv else { continue };
                let Some(max_valid) =
                    self.max_valid_record(kernel, slot, &bindings[slot.0 as usize])
                else {
                    continue;
                };
                if iv.lo > max_valid || iv.hi < 0 {
                    out.push(kdiag(
                        codes::INDEX_OUT_OF_BOUNDS,
                        check,
                        i,
                        kernel,
                        Some(kop),
                        format!(
                            "index into stream `{}` is provably out of bounds: value in \
                             [{}, {}] but valid records are 0..={max_valid}",
                            kernel.stream(slot).name,
                            iv.lo,
                            iv.hi
                        ),
                    ));
                }
            }
        });
    }

    // -----------------------------------------------------------------------
    // Propagation: V310 / V311 / V312
    // -----------------------------------------------------------------------

    /// Whole-program abstract interpretation (see `prop`): re-run the
    /// per-kernel interval analysis with stream inputs seeded from the
    /// producing ops, and flag overruns the `&[]`-seeded local pass (V303)
    /// cannot see. Gather/scatter index streams are checked for guaranteed
    /// 32-bit address wrap (the simulator's address arithmetic would
    /// overflow on every element).
    fn check_propagation(&self, out: &mut Vec<Diagnostic>) {
        let check = Check::Propagation.name();
        let prop = propagate(self);
        for i in 0..self.program.len() {
            let (op, _) = self.program.node(i);
            match op {
                ProgOp::Kernel {
                    kernel, bindings, ..
                } => {
                    if self.cfg.srf.indexed.is_none() {
                        continue; // V301's domain
                    }
                    let slots_in = &prop.kernel_in[i];
                    let stream_in: Vec<AbsVal> = slots_in
                        .iter()
                        .map(|s| s.as_ref().and_then(|f| f.val))
                        .collect();
                    if stream_in.iter().all(|v| v.is_none()) {
                        continue; // nothing propagated: identical to V303
                    }
                    let (local, vals) = (self.eval(i, &[]), self.eval(i, &stream_in));
                    for (kop, op) in kernel.ops.iter().enumerate() {
                        let (slot, piv, liv, code) = match op.opcode {
                            Opcode::IdxAddr(s) => {
                                (s, vals[kop], local[kop], codes::PROPAGATED_INDEX_OOB)
                            }
                            Opcode::IdxWrite(s) => (
                                s,
                                operand_interval(&vals, op, 0),
                                operand_interval(&local, op, 0),
                                codes::PROPAGATED_WRITE_OOB,
                            ),
                            _ => continue,
                        };
                        let Some(max_valid) =
                            self.max_valid_record(kernel, slot, &bindings[slot.0 as usize])
                        else {
                            continue;
                        };
                        let viol = |v: AbsVal| v.is_some_and(|iv| iv.lo > max_valid || iv.hi < 0);
                        // Locally-provable overruns are V303's finding; here
                        // only the cross-kernel ones.
                        if !viol(piv) || viol(liv) {
                            continue;
                        }
                        let piv = piv.expect("violation implies Some");
                        let mut notes = vec![format!(
                            "propagated index interval [{}, {}]; valid records 0..={max_valid}",
                            piv.lo, piv.hi
                        )];
                        for s in input_slots_feeding(kernel, op.operands[0].value.index()) {
                            let Some(f) = slots_in.get(s).and_then(|f| f.as_ref()) else {
                                continue;
                            };
                            let Some(fv) = f.val else { continue };
                            notes.push(format!(
                                "input `{}` holds values in [{}, {}] from SRF words \
                                 [{}, {}) per bank, filled by {}",
                                kernel.streams[s].name,
                                fv.lo,
                                fv.hi,
                                f.region.0,
                                f.region.1,
                                if f.sources.is_empty() {
                                    "pre-existing data".to_string()
                                } else {
                                    f.sources.join("; ")
                                }
                            ));
                        }
                        let mut d = kdiag(
                            code,
                            check,
                            i,
                            kernel,
                            Some(kop),
                            format!(
                                "index into stream `{}` is out of bounds across kernels: \
                                 propagated value in [{}, {}] but valid records are \
                                 0..={max_valid} (per-kernel analysis cannot see this)",
                                kernel.stream(slot).name,
                                piv.lo,
                                piv.hi
                            ),
                        );
                        d.notes = notes;
                        out.push(d);
                    }
                }
                ProgOp::GatherDyn { base, .. } => {
                    let Some(f) = &prop.mem_index[i] else {
                        continue;
                    };
                    let Some(iv) = f.val else { continue };
                    let base_i = *base as i64;
                    // `base + index` is computed in u32: with every index
                    // negative the two's-complement bit pattern adds 2^32,
                    // so the sum wraps exactly when base >= -index; with
                    // every index non-negative it wraps when base + lo
                    // already exceeds u32::MAX.
                    let wraps_all = if iv.hi < 0 {
                        base_i >= -iv.lo
                    } else if iv.lo >= 0 {
                        base_i + iv.lo > u32::MAX as i64
                    } else {
                        false
                    };
                    if !wraps_all {
                        continue;
                    }
                    let message = format!(
                        "gather (op {i}): every index in the index stream provably \
                         wraps the 32-bit word address space when added to base {base}"
                    );
                    out.push(Diagnostic {
                        notes: vec![format!(
                            "index stream holds values in [{}, {}] from SRF words \
                             [{}, {}) per bank, filled by {}",
                            iv.lo,
                            iv.hi,
                            f.region.0,
                            f.region.1,
                            if f.sources.is_empty() {
                                "pre-existing data".to_string()
                            } else {
                                f.sources.join("; ")
                            }
                        )],
                        ..pdiag(codes::GATHER_ADDRESS_WRAP, check, i, message)
                    });
                }
                _ => {}
            }
        }
    }

    // -----------------------------------------------------------------------
    // Slack: V401
    // -----------------------------------------------------------------------

    fn check_slack(&self, out: &mut Vec<Diagnostic>) {
        let check = Check::Slack.name();
        if !self.cfg.has_indexed_srf() {
            return; // V301 already rejects indexed kernels here
        }
        self.per_shape(out, |i, out| {
            let (kernel, schedule, ..) = self.invocation(i);
            for (kop, op) in kernel.ops.iter().enumerate() {
                let Opcode::IdxRead(slot) = op.opcode else {
                    continue;
                };
                let addr = op.operands[0].value.index();
                let sep = if kernel.stream(slot).kind.is_cross_lane() {
                    self.cfg.sched.crosslane_addr_data_separation
                } else {
                    self.cfg.sched.inlane_addr_data_separation
                };
                let (sa, sr) = (schedule.slots[addr], schedule.slots[kop]);
                if sr < sa + sep {
                    out.push(kdiag(
                        codes::INSUFFICIENT_SLACK,
                        check,
                        i,
                        kernel,
                        Some(kop),
                        format!(
                            "indexed read of stream `{}` is scheduled at cycle {sr}, only \
                             {} cycle(s) after its address issue at cycle {sa}; the \
                             configuration requires {sep}",
                            kernel.stream(slot).name,
                            sr - sa
                        ),
                    ));
                }
            }
        });
    }

    // -----------------------------------------------------------------------
    // Deadlock: V501
    // -----------------------------------------------------------------------

    /// Replays the modulo schedule's address pushes and data pops for each
    /// indexed *read* stream and proves the all-or-nothing issue group can
    /// always make progress. The hardware wedges when, at some kernel cycle,
    /// the group's pops outrun the words the FIFO + buffer can ever deliver,
    /// or its pushes cannot fit even after the buffer drains as far as the
    /// already-popped words allow. Writes drain unconditionally (no buffer
    /// reservation), so write-only streams cannot wedge.
    fn check_deadlock(&self, out: &mut Vec<Diagnostic>) {
        let Some(idx_cfg) = &self.cfg.srf.indexed else {
            return;
        };
        let fifo_cap = idx_cfg.addr_fifo_entries as u64;
        let buf_cap = self.cfg.srf.stream_buffer_words as u64;
        self.per_shape(out, |i, out| {
            let (kernel, schedule, bindings, iters) = self.invocation(i);
            for (slot, decl) in kernel.streams.iter().enumerate() {
                if !decl.kind.is_indexed() || decl.kind == StreamKind::IdxInWrite {
                    continue;
                }
                let rw = bindings[slot].record_words.max(1) as u64;
                let slot = isrf_kernel::ir::StreamSlot(slot as u8);
                let caps = (fifo_cap, buf_cap);
                out.extend(deadlock_for_stream(
                    kernel, schedule, slot, rw, iters, caps, i,
                ));
            }
        });
    }

    // -----------------------------------------------------------------------
    // Space: W601 / W602 (warnings, report-only)
    // -----------------------------------------------------------------------

    fn check_space(&self, out: &mut Vec<Diagnostic>) {
        let check = Check::Space.name();
        // W601: a filled region no op ever reads. Any overlapping read —
        // ordered or not, kernel input, store source, or gather/scatter
        // index stream — counts as consumption, so test each fill against
        // the union of everything the program reads.
        let reads = merged(
            self.accesses
                .iter()
                .filter(|r| !r.write)
                .filter_map(|r| r.footprint),
        );
        for (k, a) in self.accesses.iter().enumerate().filter(|(_, a)| a.write) {
            let i = a.prog_op;
            let op = self.program.node(i).0;
            let region = match op {
                ProgOp::Kernel { .. } => a.footprint,
                _ => Some(range_interval(&a.binding)),
            };
            let Some((lo, hi)) = region else { continue };
            if reads.iter().any(|&(rl, rh)| rl < hi && lo < rh) {
                continue;
            }
            let fills = format!(
                "fills SRF words [{lo}, {hi}) per bank, but no kernel, store, gather, or \
                 scatter ever reads them"
            );
            out.push(match op {
                ProgOp::Kernel { kernel, .. } => {
                    let si = k - self.first[i];
                    let slot = isrf_kernel::ir::StreamSlot(si as u8);
                    let kop = kernel
                        .ops
                        .iter()
                        .position(|o| o.opcode.stream() == Some(slot));
                    let name = &kernel.streams[si].name;
                    let message = format!("kernel `{}` output `{name}` {fills}", kernel.name);
                    kdiag(codes::DEAD_STREAM, check, i, kernel, kop, message)
                }
                ProgOp::Load { .. } => pdiag(
                    codes::DEAD_STREAM,
                    check,
                    i,
                    format!("load (op {i}) {fills}"),
                ),
                _ => pdiag(
                    codes::DEAD_STREAM,
                    check,
                    i,
                    format!("gather (op {i}) {fills}"),
                ),
            });
        }

        // W602: a range at least twice what its records need, wasting at
        // least 8 words per bank. Indexed bindings address their whole
        // range by definition and are exempt. Deduplicate by range: many
        // ops bind the same buffer.
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for (k, a) in self.accesses.iter().enumerate() {
            let b = &a.binding;
            if a.indexed || b.records == 0 || b.record_words == 0 {
                continue;
            }
            let key = (b.range.base, b.range.words_per_bank);
            if seen.contains(&key) {
                continue;
            }
            let max_rec = if b.stride_records == 0 {
                b.start_record + b.run_records.min(b.records) - 1
            } else {
                b.absolute_record(b.records - 1)
            };
            let lanes = self.cfg.lanes as u32;
            let need = (max_rec / lanes) * b.record_words + b.record_words;
            if b.range.words_per_bank >= 2 * need && b.range.words_per_bank - need >= 8 {
                seen.push(key);
                out.push(pdiag(
                    codes::OVER_ALLOCATION,
                    check,
                    a.prog_op,
                    format!(
                        "{} uses {need} of the {} words per bank its range holds \
                         ({} wasted) — consider a tighter allocation",
                        self.label(k),
                        b.range.words_per_bank,
                        b.range.words_per_bank - need
                    ),
                ));
            }
        }
    }
}

/// Build a program-level diagnostic: no kernel context, no notes.
fn pdiag(code: &str, check: &str, prog_op: usize, message: String) -> Diagnostic {
    Diagnostic {
        code: code.into(),
        check: check.into(),
        message,
        prog_op: Some(prog_op),
        kernel: None,
        kernel_op: None,
        line: None,
        notes: Vec::new(),
    }
}

/// Build a kernel-scoped diagnostic, resolving the source line when known.
fn kdiag(
    code: &str,
    check: &str,
    prog_op: usize,
    kernel: &Kernel,
    kernel_op: Option<usize>,
    message: String,
) -> Diagnostic {
    Diagnostic {
        code: code.into(),
        check: check.into(),
        message,
        prog_op: Some(prog_op),
        kernel: Some(kernel.name.clone()),
        kernel_op,
        line: kernel_op.and_then(|i| kernel.source_line(i)),
        notes: Vec::new(),
    }
}

/// The union of `intervals` as sorted intervals with overlapping ones joined
/// — a handful, however many strips read the same few buffers. Touching and
/// empty intervals stay apart, so "does `[lo, hi)` meet any of them" has the
/// same answer as over the originals.
fn merged(intervals: impl Iterator<Item = (u32, u32)>) -> Vec<(u32, u32)> {
    let mut sorted: Vec<(u32, u32)> = intervals.collect();
    sorted.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (lo, hi) in sorted {
        match out.last_mut() {
            Some(last) if lo < last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Does the union of `intervals` cover `[lo, hi)`? Sorts in place.
fn interval_covers(intervals: &mut [(u32, u32)], lo: u32, hi: u32) -> bool {
    if lo >= hi {
        return true;
    }
    intervals.sort_unstable();
    let mut need = lo;
    for &(s, e) in intervals.iter() {
        if s > need {
            return false;
        }
        if e > need {
            need = e;
            if need >= hi {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// V501: address-FIFO deadlock detection
// ---------------------------------------------------------------------------

fn deadlock_for_stream(
    kernel: &Kernel,
    schedule: &Schedule,
    slot: isrf_kernel::ir::StreamSlot,
    rw: u64,
    iters: u64,
    (fifo_cap, buf_cap): (u64, u64),
    prog_op: usize,
) -> Option<Diagnostic> {
    let check = Check::Deadlock.name();
    let addr_ops = kernel.stream_addr_ops(slot);
    let data_ops = kernel.stream_data_ops(slot);
    if addr_ops.is_empty() || data_ops.is_empty() {
        return None;
    }

    // Simulate enough iterations for the FIFO/buffer interplay to reach
    // steady state: every op repeats at its slot + j*II, so occupancy is
    // eventually periodic with period II; a window comfortably larger than
    // the capacities plus the pipeline depth suffices.
    let window = fifo_cap + buf_cap + 2 * schedule.stages() as u64 + 8;
    let sim_iters = iters.min(window);
    let mut events: Vec<(u64, usize, bool)> = Vec::new();
    for j in 0..sim_iters {
        for &a in &addr_ops {
            events.push((schedule.slots[a] as u64 + j * schedule.ii as u64, a, true));
        }
        for &r in &data_ops {
            events.push((schedule.slots[r] as u64 + j * schedule.ii as u64, r, false));
        }
    }
    events.sort_unstable();

    // `pushed` counts records queued, `popped` counts words consumed, both
    // *before* the current cycle (the issue group is all-or-nothing with
    // pre-cycle state: same-cycle pushes cannot feed same-cycle pops).
    let mut pushed: u64 = 0;
    let mut popped: u64 = 0;
    let mut k = 0;
    while k < events.len() {
        let t = events[k].0;
        let mut pushes_at = 0u64;
        let mut pops_at = 0u64;
        let mut first_push = None;
        let mut first_pop = None;
        while k < events.len() && events[k].0 == t {
            let (_, op, is_push) = events[k];
            if is_push {
                pushes_at += 1;
                first_push.get_or_insert(op);
            } else {
                pops_at += 1;
                first_pop.get_or_insert(op);
            }
            k += 1;
        }
        // Words the hardware can ever deliver while the cluster is stalled
        // at cycle `t`: everything pushed so far, bounded by the buffer
        // (popped words free buffer space; stalled pops do not).
        let deliverable = (pushed * rw).min(popped + buf_cap);
        if popped + pops_at > deliverable {
            let op = first_pop.expect("pops_at > 0");
            return Some(kdiag(
                codes::FIFO_DEADLOCK,
                check,
                prog_op,
                kernel,
                Some(op),
                format!(
                    "indexed stream `{}` deadlocks at kernel cycle {t}: the schedule pops \
                     word {} but at most {deliverable} can ever arrive ({pushed} record(s) \
                     pushed, stream buffer holds {buf_cap} words)",
                    kernel.stream(slot).name,
                    popped + pops_at,
                ),
            ));
        }
        // Records the FIFO can shed while stalled: limited by the words the
        // buffer can absorb beyond what was already popped.
        let drainable = pushed.min((popped + buf_cap) / rw);
        if pushed - drainable + pushes_at > fifo_cap {
            let op = first_push.expect("pushes_at > 0");
            return Some(kdiag(
                codes::FIFO_DEADLOCK,
                check,
                prog_op,
                kernel,
                Some(op),
                format!(
                    "indexed stream `{}` deadlocks at kernel cycle {t}: {} record(s) would \
                     be outstanding but the address FIFO holds {fifo_cap} and the stream \
                     buffer {buf_cap} words ({} word(s) per record)",
                    kernel.stream(slot).name,
                    pushed - drainable + pushes_at,
                    rw
                ),
            ));
        }
        pushed += pushes_at;
        popped += pops_at;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_covers_checks_gaps() {
        let mut iv1 = vec![(0u32, 10u32), (20, 30)];
        assert!(interval_covers(&mut iv1.clone(), 0, 10));
        assert!(interval_covers(&mut iv1.clone(), 25, 30));
        assert!(!interval_covers(&mut iv1, 5, 25));
        let mut iv2 = vec![(10, 20), (0, 12)];
        assert!(interval_covers(&mut iv2, 0, 20), "unsorted overlapping");
    }

    /// The work a `bfs`-shaped program costs, as counts (ROADMAP item 2b's
    /// "checks evaluated" for this layer): 384 strips of two loads, a
    /// gather, one kernel shape and a store. The scans this replaced
    /// visited all 1 842 240 op pairs, filtered the access list twice for
    /// each unordered one, and ran five analyses at each of the 384
    /// invocations.
    #[test]
    fn work_is_proportional_to_what_the_program_contains() {
        use isrf_core::config::ConfigName;
        let g = strips::generate(&strips::Spec::bfs_shaped(ConfigName::Isrf4, 384));
        let ctx = Analysis::new(&g.cfg, &g.env, &g.program);
        assert_eq!(
            (g.program.len(), ctx.accesses.len(), ctx.shapes),
            (1920, 3072, 1)
        );
        let found = Verifier::new().hard_checks(&ctx);
        assert!(found.is_empty(), "{found:#?}");
        // A strip's ops are unordered against its own and its neighbour's
        // in the other buffer set, so the pairs V201 looks at grow with the
        // strips, not their square: a footprint comparison for each pair of
        // their accesses.
        let ordered: usize = ctx
            .before
            .iter()
            .flatten()
            .map(|w| w.count_ones() as usize)
            .sum();
        assert_eq!(1920 * 1919 / 2 - ordered, 8_422);
        assert_eq!(ctx.compared.get(), 16_464);
        // The indexed, slack and deadlock checks and one interval
        // evaluation (V303's, found again by propagation), once each for
        // the one shape.
        assert_eq!(ctx.evaluated.get(), 4);
    }

    #[test]
    fn merged_joins_only_what_overlaps() {
        let m = merged([(8, 12), (0, 4), (2, 6), (6, 8), (20, 20), (9, 10)].into_iter());
        assert_eq!(m, [(0, 6), (6, 8), (8, 12), (20, 20)]);
    }

    #[test]
    fn explain_covers_every_code() {
        for code in [
            "V101", "V102", "V103", "V201", "V202", "V301", "V302", "V303", "V310", "V311", "V312",
            "V401", "V501", "W601", "W602",
        ] {
            assert!(explain(code).is_some(), "no rule text for {code}");
        }
        assert!(explain("V999").is_none());
    }
}

/// The strip-mined program generator of `tests/`, for the unit tests above.
#[cfg(test)]
#[path = "../tests/strips/mod.rs"]
mod strips;
