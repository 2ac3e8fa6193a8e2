//! Random kernels against the reference executor, with pinned timing.
//!
//! Random verifier-clean kernels — arbitrary ALU opcodes (including the
//! divider and `Select`), loop-carried operands, folded constant /
//! lane-id / iteration-id producers, cross-lane `Comm` permutations, two
//! sequential inputs and two or three outputs (so one schedule slot holds
//! several stall checks, and with a fifth stream the SRF port cannot keep
//! up: inputs starve and output buffers fill) and, on ISRF4, an in-lane
//! indexed table lookup — are run
//! through a load → kernel → store program. Values are checked by
//! [`run_differential`] against `RefMachine`, which shares no operand
//! resolution or ALU code with the simulator; timing is checked against
//! `tests/golden/proptest_kernels.digest`, one line per case and config
//! holding the cycle count and an FNV-1a digest of the whole trace-event
//! stream. The same corpus then runs, values only, on 4- and 16-lane
//! machines, where the executor's eight-lane row chunks have a padded
//! tail or a second chunk.
//!
//! The vendored proptest seeds its generator from a name, so the corpus is
//! the same on every run. Regenerate the digest after an intentional
//! timing change with
//! `UPDATE_GOLDEN=1 cargo test -p isrf-check --test proptest_kernels`.

use std::fmt::Write;
use std::sync::Arc;

use isrf_check::{golden, run_differential};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::fnv1a;
use isrf_core::Word;
use isrf_kernel::ir::{Kernel, KernelBuilder, Opcode, Operand, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamProgram};
use isrf_trace::Tracer;
use isrf_verify::Verifier;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Every pure ALU opcode the kernel IR defines.
const ALU_OPS: &[Opcode] = &[
    Opcode::Mov,
    Opcode::Not,
    Opcode::Neg,
    Opcode::FNeg,
    Opcode::IToF,
    Opcode::FToI,
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Div,
    Opcode::Rem,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::Sra,
    Opcode::Lt,
    Opcode::Le,
    Opcode::Eq,
    Opcode::Ne,
    Opcode::ULt,
    Opcode::Min,
    Opcode::Max,
    Opcode::FAdd,
    Opcode::FSub,
    Opcode::FMul,
    Opcode::FDiv,
    Opcode::FLt,
    Opcode::FLe,
    Opcode::FEq,
    Opcode::FMin,
    Opcode::FMax,
    Opcode::Select,
];

/// Records per lane of the lookup table an indexed recipe reads.
const LUT_RECORDS: u32 = 256;

/// One generated kernel-body step. `kind` picks between an ALU op and the
/// two cross-lane communication permutations; operand selectors index
/// into the values produced so far (the two stream elements, constants,
/// lane/iter ids, and every prior step).
#[derive(Debug, Clone)]
struct Step {
    kind: u8,
    op: usize,
    a: usize,
    b: usize,
    c: usize,
    /// Loop-carry operand `a` by this distance with this initial word.
    carry: Option<(u32, Word)>,
}

/// One generated case: the kernel body, how long it runs (up to 64
/// iterations), whether it writes a third output stream, and whether it
/// looks a value up in an in-lane indexed table.
#[derive(Debug, Clone)]
struct Recipe {
    steps: Vec<Step>,
    iters: u64,
    third_out: bool,
    indexed: bool,
}

fn recipes() -> impl Strategy<Value = Recipe> {
    let step = (
        0u8..10,
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
        (any::<bool>(), 1u32..3, any::<Word>()),
    )
        .prop_map(|(kind, op, a, b, c, (carried, d, init))| Step {
            kind,
            op,
            a,
            b,
            c,
            carry: carried.then_some((d, init)),
        });
    (
        prop::collection::vec(step, 1..10),
        1u64..65,
        any::<bool>(),
        0u8..3,
    )
        .prop_map(|(steps, iters, third_out, variant)| Recipe {
            steps,
            iters,
            third_out,
            indexed: variant == 0,
        })
}

/// Assemble a kernel from the recipe for `lanes` lanes (which bound the
/// communication distances). Returns `None` when the recipe happens to
/// violate a structural kernel rule.
fn build_kernel(r: &Recipe, lanes: usize) -> Option<Arc<Kernel>> {
    let mut b = KernelBuilder::new("fuzz");
    let in0 = b.stream("in0", StreamKind::SeqIn);
    let in1 = b.stream("in1", StreamKind::SeqIn);
    let out0 = b.stream("out0", StreamKind::SeqOut);
    let out1 = b.stream("out1", StreamKind::SeqOut);
    let out2 = r.third_out.then(|| b.stream("out2", StreamKind::SeqOut));
    let lut = r.indexed.then(|| b.stream("lut", StreamKind::IdxInRead));
    let mut vals = vec![b.seq_read(in0), b.seq_read(in1)];
    vals.push(b.constant(0x2b));
    vals.push(b.constant_f(1.5));
    vals.push(b.lane_id());
    vals.push(b.iter_id());
    let mut looked_up = None;
    for st in &r.steps {
        let a = vals[st.a % vals.len()];
        let bb = vals[st.b % vals.len()];
        let c = vals[st.c % vals.len()];
        let v = match st.kind {
            // A sprinkling of cross-lane permutations among the ALU ops.
            0 => b.comm_rotate((st.a % lanes) as i32, bb),
            1 => b.comm_xor((st.b % lanes) as u32, a),
            _ => {
                let op = ALU_OPS[st.op % ALU_OPS.len()];
                let mut operands: Vec<Operand> = [a, bb, c][..op.arity()]
                    .iter()
                    .map(|&v| Operand::from(v))
                    .collect();
                if let Some((d, init)) = st.carry {
                    operands[0] = Operand::carried(a, d, init);
                }
                b.push(op, operands)
            }
        };
        vals.push(v);
        // The first step's value, masked into the table, is the lookup
        // address; later steps may consume the loaded word.
        if let (Some(lut), None) = (lut, looked_up) {
            let mask = b.constant(LUT_RECORDS - 1);
            let addr = b.and(v, mask);
            let w = b.idx_load(lut, addr);
            vals.push(w);
            looked_up = Some(w);
        }
    }
    b.seq_write(out0, *vals.last().unwrap());
    b.seq_write(out1, looked_up.unwrap_or(vals[vals.len() / 2]));
    if let Some(out2) = out2 {
        b.seq_write(out2, vals[vals.len() / 3]);
    }
    b.build().ok().map(Arc::new)
}

const IN_BASE: u32 = 0;
const OUT_BASE: u32 = 0x8000;

/// A fresh machine with the case's inputs in memory, the lookup table in
/// the SRF, the load → kernel → store program, and the memory region the
/// stores fill; `None` when the kernel does not schedule or the verifier
/// rejects the program.
fn setup(
    cfg: ConfigName,
    lanes: usize,
    kernel: &Arc<Kernel>,
    r: &Recipe,
) -> Option<(Machine, StreamProgram, (u32, u32))> {
    let mut mcfg = MachineConfig::preset(cfg);
    mcfg.lanes = lanes;
    let sched = schedule(kernel, &SchedParams::from_machine(&mcfg)).ok()?;
    let mut m = Machine::new(mcfg).unwrap();
    m.set_verifier(Some(Arc::new(Verifier::new())));
    let lanes = m.config().lanes as u32;
    let words = r.iters as u32 * lanes;
    // Deterministic mixed-pattern input: small ints, negatives, and
    // word patterns that decode to interesting floats.
    for i in 0..2 * words {
        m.mem_mut()
            .memory_mut()
            .write(IN_BASE + i, (i ^ 0x3f00_0000).wrapping_mul(2654435761));
    }
    let outs = 2 + u32::from(r.third_out);
    let mut bindings: Vec<_> = (0..2 + outs).map(|_| m.alloc_stream(1, words)).collect();
    if r.indexed {
        let table = m.alloc_stream(1, LUT_RECORDS * lanes);
        let contents: Vec<Word> = (0..LUT_RECORDS * lanes)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        m.write_stream(&table, &contents);
        bindings.push(table);
    }
    let (ib0, ib1) = (bindings[0], bindings[1]);
    let mut p = StreamProgram::new();
    let l0 = p.load(AddrPattern::contiguous(IN_BASE, words), ib0, false, &[]);
    let l1 = p.load(
        AddrPattern::contiguous(IN_BASE + words, words),
        ib1,
        false,
        &[],
    );
    let out_bindings = bindings[2..2 + outs as usize].to_vec();
    let k = p.kernel(kernel.clone(), sched, bindings, r.iters, &[l0, l1]);
    for (ob, at) in out_bindings.into_iter().zip(0..) {
        let to = AddrPattern::contiguous(OUT_BASE + at * words, words);
        p.store(ob, to, false, &[k]);
    }
    // Only verifier-clean programs count for the property.
    m.verify_program(&p).ok()?;
    Some((m, p, (OUT_BASE, outs * words)))
}

/// Run one case on one configuration: values against the reference
/// executor, then the digest line of a traced run of the same program.
fn run_case(cfg: ConfigName, kernel: &Arc<Kernel>, r: &Recipe) -> Option<String> {
    let (mut m, p, written) = setup(cfg, 8, kernel, r)?;
    let checked = run_differential(&mut m, &p, &[written])
        .unwrap_or_else(|e| panic!("{cfg}: diverged from the reference executor: {e}\n{r:?}"));

    let (mut m, p, _) = setup(cfg, 8, kernel, r).expect("same program");
    m.set_tracer(Tracer::recording(1 << 18));
    let stats = m.run(&p);
    assert_eq!(stats, checked.stats, "{cfg}: rerun is not deterministic");
    let recorder = m.take_tracer().into_recorder().expect("recording");
    let ring = recorder.ring();
    assert_eq!(ring.dropped(), 0, "{cfg}: trace ring too small");
    let mut stream = String::new();
    for (cycle, ev) in ring.iter() {
        writeln!(stream, "@{cycle} {ev:?}").expect("write to String");
    }
    Some(format!(
        "{cfg} cycles={} events={} trace={:016x}",
        stats.cycles,
        ring.len(),
        fnv1a(stream.as_bytes())
    ))
}

/// Base and ISRF4, or ISRF4 alone for an indexed recipe (Base has no
/// indexed SRF).
fn configs_of(r: &Recipe) -> &'static [ConfigName] {
    if r.indexed {
        &[ConfigName::Isrf4]
    } else {
        &[ConfigName::Base, ConfigName::Isrf4]
    }
}

/// Every generated kernel computes what the reference semantics say, on
/// Base and ISRF4, in exactly the committed number of cycles with exactly the
/// committed event stream.
#[test]
fn random_kernels_match_reference_and_pinned_timing() {
    let mut rng = TestRng::deterministic("isrf-check::proptest_kernels");
    let strategy = recipes();
    let mut got = String::new();
    for case in 0..48 {
        let r = strategy.sample(&mut rng);
        let kernel = build_kernel(&r, 8);
        for &cfg in configs_of(&r) {
            let line = kernel.as_ref().and_then(|k| run_case(cfg, k, &r));
            let line = line.unwrap_or_else(|| format!("{cfg} discarded"));
            writeln!(got, "case {case:02} iters={:02} {line}", r.iters).expect("write to String");
        }
    }
    golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/proptest_kernels.digest"
        ),
        &got,
    );
}

/// The same corpus computes what the reference semantics say on 4 lanes
/// (half a row chunk: the rest is padding no result may leak from) and on
/// 16 (two chunks: rotations and butterflies cross between them, lane ids
/// run past 7). Values only: no timing is pinned for these machines.
#[test]
fn random_kernels_match_reference_on_4_and_16_lanes() {
    let mut rng = TestRng::deterministic("isrf-check::proptest_kernels");
    let strategy = recipes();
    let mut ran = 0;
    for _ in 0..48 {
        let r = strategy.sample(&mut rng);
        for lanes in [4, 16] {
            let Some(kernel) = build_kernel(&r, lanes) else {
                continue;
            };
            for &cfg in configs_of(&r) {
                let Some((mut m, p, written)) = setup(cfg, lanes, &kernel, &r) else {
                    continue;
                };
                run_differential(&mut m, &p, &[written]).unwrap_or_else(|e| {
                    panic!("{cfg} x {lanes} lanes: diverged from the reference: {e}\n{r:?}")
                });
                ran += 1;
            }
        }
    }
    assert!(ran >= 100, "only {ran} of the corpus's points ran");
}
