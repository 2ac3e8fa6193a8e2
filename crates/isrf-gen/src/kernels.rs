//! Random kernel bodies in a single-strip program: [`Recipe`].

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_kernel::ir::{Kernel, KernelBuilder, Opcode, Operand, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::StreamProgram;
use proptest::prelude::*;

use crate::{corpus, mixed, Bump, Generated};

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

const IN_BASE: u32 = 0;
const OUT_BASE: u32 = 0x8000;

/// One kernel-body step. `kind` picks between an ALU op and the two
/// cross-lane communication permutations; operand selectors index into the
/// values produced so far (the two stream elements, constants, lane/iter
/// ids, and every prior step).
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

/// One random kernel in a load → kernel → store program: up to nine body
/// steps over two sequential inputs, writing two or three outputs (with a
/// fifth stream the SRF port cannot keep up: inputs starve and output
/// buffers fill) and, in a third of the recipes, looking a value up in an
/// in-lane indexed table.
#[derive(Debug, Clone)]
pub struct Recipe {
    steps: Vec<Step>,
    /// Kernel iterations, 1 to 64.
    pub iters: u64,
    third_out: bool,
    /// Looks a value up in an in-lane table, so runs only where the SRF is
    /// indexed.
    pub indexed: bool,
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

impl Recipe {
    /// The first `n` recipes of the one corpus, whose first 48
    /// `isrf-check/tests/golden/proptest_kernels.digest` pins.
    pub fn corpus(n: usize) -> Vec<Recipe> {
        corpus(&recipes(), "isrf-check::proptest_kernels", n)
    }

    /// Base and ISRF4, or ISRF4 alone for an indexed recipe (Base has no
    /// indexed SRF).
    pub fn configs(&self) -> &'static [ConfigName] {
        if self.indexed {
            &[ConfigName::Isrf4]
        } else {
            &[ConfigName::Base, ConfigName::Isrf4]
        }
    }

    /// The program on `cfg`, the lookup table in the SRF; `None` when the
    /// kernel happens to break a structural rule or does not schedule.
    pub fn generate(&self, cfg: &MachineConfig) -> Option<Generated> {
        let kernel = self.kernel(cfg.lanes)?;
        let sched = schedule(&kernel, &SchedParams::from_machine(cfg)).ok()?;
        let lanes = cfg.lanes as u32;
        let words = self.iters as u32 * lanes;
        let mut srf = Bump { lanes, next: 0 };
        let outs = 2 + u32::from(self.third_out);
        let mut bindings: Vec<_> = (0..2 + outs).map(|_| srf.alloc(words)).collect();
        let table = self.indexed.then(|| srf.alloc(LUT_RECORDS * lanes));
        bindings.extend(table);
        let mut p = StreamProgram::new();
        let l0 = p.load(
            AddrPattern::contiguous(IN_BASE, words),
            bindings[0],
            false,
            &[],
        );
        let l1 = p.load(
            AddrPattern::contiguous(IN_BASE + words, words),
            bindings[1],
            false,
            &[],
        );
        let out_bindings = bindings[2..2 + outs as usize].to_vec();
        let k = p.kernel(kernel, sched, bindings, self.iters, &[l0, l1]);
        for (ob, at) in out_bindings.into_iter().zip(0..) {
            let to = AddrPattern::contiguous(OUT_BASE + at * words, words);
            p.store(ob, to, false, &[k]);
        }
        Some(Generated {
            cfg: cfg.clone(),
            env: srf.env(table),
            program: p,
            inputs: vec![(IN_BASE, mixed(2 * words))],
            outputs: vec![(OUT_BASE, outs * words)],
            lookups: Vec::new(),
            dropped: None,
        })
    }

    /// The kernel for `lanes` lanes, which bound the communication
    /// distances.
    fn kernel(&self, lanes: usize) -> Option<Arc<Kernel>> {
        let mut b = KernelBuilder::new("fuzz");
        let in0 = b.stream("in0", StreamKind::SeqIn);
        let in1 = b.stream("in1", StreamKind::SeqIn);
        let out0 = b.stream("out0", StreamKind::SeqOut);
        let out1 = b.stream("out1", StreamKind::SeqOut);
        let out2 = self.third_out.then(|| b.stream("out2", StreamKind::SeqOut));
        let lut = self.indexed.then(|| b.stream("lut", StreamKind::IdxInRead));
        let mut vals = vec![b.seq_read(in0), b.seq_read(in1)];
        vals.push(b.constant(0x2b));
        vals.push(b.constant_f(1.5));
        vals.push(b.lane_id());
        vals.push(b.iter_id());
        let mut looked_up = None;
        for st in &self.steps {
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
}
