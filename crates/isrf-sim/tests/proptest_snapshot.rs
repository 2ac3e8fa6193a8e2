//! Snapshot/resume property test: pausing a random verifier-clean program
//! at a random cycle, serializing the machine, restoring it into a fresh
//! machine, and resuming must be indistinguishable from an uninterrupted
//! run — identical `RunStats`, identical recorded trace streams, identical
//! output memory.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_kernel::ir::{Kernel, KernelBuilder, Opcode, Operand, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamProgram};
use isrf_trace::{TraceEvent, Tracer};
use isrf_verify::Verifier;
use proptest::prelude::*;

/// The ALU surface the generated kernel bodies draw from (a subset of the
/// engine-differential test's table is enough here: the snapshot captures
/// machine state, not ALU semantics).
const ALU_OPS: &[Opcode] = &[
    Opcode::Mov,
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Div,
    Opcode::And,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::Lt,
    Opcode::Min,
    Opcode::Max,
    Opcode::FAdd,
    Opcode::FMul,
    Opcode::Select,
];

/// One generated kernel-body step (see `isrf-check/tests/proptest_kernels.rs`).
#[derive(Debug, Clone)]
struct Step {
    kind: u8,
    op: usize,
    a: usize,
    b: usize,
    c: usize,
    carry: Option<(u32, Word)>,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
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
            }),
        1..8,
    )
}

fn build_kernel(steps: &[Step]) -> Option<Arc<Kernel>> {
    let mut b = KernelBuilder::new("fuzz");
    let si = b.stream("in", StreamKind::SeqIn);
    let so = b.stream("out", StreamKind::SeqOut);
    let mut vals = vec![b.seq_read(si)];
    vals.push(b.constant(0x2b));
    vals.push(b.lane_id());
    vals.push(b.iter_id());
    for st in steps {
        let a = vals[st.a % vals.len()];
        let bb = vals[st.b % vals.len()];
        let c = vals[st.c % vals.len()];
        let v = match st.kind {
            0 => b.comm_rotate((st.a % 8) as i32, bb),
            1 => b.comm_xor((st.b % 8) as u32, a),
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
    }
    let last = *vals.last().unwrap();
    b.seq_write(so, last);
    b.build().ok().map(Arc::new)
}

const IN_BASE: u32 = 0;
const OUT_BASE: u32 = 0x8000;

/// Build a fresh machine + program for the generated kernel. Returns
/// `None` when the recipe does not schedule or verify clean.
fn prepare(
    cfg: ConfigName,
    kernel: &Arc<Kernel>,
    iters: u64,
) -> Option<(Machine, StreamProgram, u32)> {
    let mcfg = MachineConfig::preset(cfg);
    let sched = schedule(kernel, &SchedParams::from_machine(&mcfg)).ok()?;
    let mut m = Machine::new(mcfg).unwrap();
    m.set_verifier(Some(Arc::new(Verifier::new())));
    let lanes = m.config().lanes as u32;
    let words = iters as u32 * lanes;
    for i in 0..words {
        m.mem_mut()
            .memory_mut()
            .write(IN_BASE + i, (i ^ 0x3f00_0000).wrapping_mul(2654435761));
    }
    let ib = m.alloc_stream(1, words);
    let ob = m.alloc_stream(1, words);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(IN_BASE, words), ib, false, &[]);
    let k = p.kernel(kernel.clone(), sched, vec![ib, ob], iters, &[l]);
    p.store(ob, AddrPattern::contiguous(OUT_BASE, words), false, &[k]);
    m.verify_program(&p).ok()?;
    Some((m, p, words))
}

type Observed = (
    isrf_core::stats::RunStats,
    Vec<(u64, TraceEvent)>,
    Vec<Word>,
);

fn drain_events(m: &mut Machine) -> Vec<(u64, TraceEvent)> {
    m.take_tracer()
        .into_recorder()
        .expect("recording")
        .ring()
        .iter()
        .cloned()
        .collect()
}

fn run_straight(cfg: ConfigName, kernel: &Arc<Kernel>, iters: u64) -> Option<Observed> {
    let (mut m, p, words) = prepare(cfg, kernel, iters)?;
    m.set_tracer(Tracer::recording(1 << 16));
    let stats = m.run(&p);
    let events = drain_events(&mut m);
    let out = m.mem().memory().read_block(OUT_BASE, words as usize);
    Some((stats, events, out))
}

/// Pause after `at` cycles, snapshot, restore into a *fresh* machine, and
/// resume to completion. `at` past the end degrades to a straight run.
fn run_paused(cfg: ConfigName, kernel: &Arc<Kernel>, iters: u64, at: u64) -> Option<Observed> {
    let (mut m, p, words) = prepare(cfg, kernel, iters)?;
    m.set_tracer(Tracer::recording(1 << 16));
    let Some(stats) = m.run_for(&p, at) else {
        let snapshot = m.save_state(&p);
        let mut events = drain_events(&mut m);
        let (mut r, p2, _) = prepare(cfg, kernel, iters).expect("same recipe");
        r.restore_state(&p2, &snapshot).expect("snapshot fits");
        r.set_tracer(Tracer::recording(1 << 16));
        let stats = r.run_for(&p2, u64::MAX).expect("resumed run completes");
        events.extend(drain_events(&mut r));
        let out = r.mem().memory().read_block(OUT_BASE, words as usize);
        return Some((stats, events, out));
    };
    let events = drain_events(&mut m);
    let out = m.mem().memory().read_block(OUT_BASE, words as usize);
    Some((stats, events, out))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// snapshot(c) → restore → resume == uninterrupted run, for random
    /// programs, random pause cycles, with and without indexed-SRF
    /// support in the configuration.
    #[test]
    fn snapshot_resume_is_invisible(ss in steps(), iters in 1u64..5, at in 1u64..2000) {
        let Some(kernel) = build_kernel(&ss) else { return Ok(()) };
        for cfg in [ConfigName::Base, ConfigName::Isrf4] {
            let Some((stats_s, events_s, out_s)) =
                run_straight(cfg, &kernel, iters) else { return Ok(()) };
            let (stats_p, events_p, out_p) =
                run_paused(cfg, &kernel, iters, at).expect("same recipe");
            prop_assert_eq!(stats_s, stats_p, "stats differ on {} at {}", cfg, at);
            prop_assert_eq!(&events_s, &events_p, "trace differs on {} at {}", cfg, at);
            prop_assert_eq!(&out_s, &out_p, "output memory differs on {} at {}", cfg, at);
        }
    }
}
