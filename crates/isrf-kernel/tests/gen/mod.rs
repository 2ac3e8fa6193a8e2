//! Random dataflow kernels for the scheduler's property and lock-step
//! tests: ALU ops, unpipelined divides, indexed loads and loop-carried
//! operands over whatever values exist so far.

use isrf_kernel::ir::{Kernel, KernelBuilder, Operand, StreamKind, ValueId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
pub struct GenOp {
    code: u8,
    a: prop::sample::Index,
    b: prop::sample::Index,
    carried: bool,
}

/// Between one and `max - 1` generated ops.
pub fn ops(max: usize) -> impl Strategy<Value = Vec<GenOp>> {
    let op = (
        any::<u8>(),
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        any::<bool>(),
    )
        .prop_map(|(code, a, b, carried)| GenOp {
            code,
            a,
            b,
            carried,
        });
    prop::collection::vec(op, 1..max)
}

pub fn build(ops: &[GenOp], with_idx: bool) -> Kernel {
    let mut b = KernelBuilder::new("prop");
    let sin = b.stream("in", StreamKind::SeqIn);
    let lut = b.stream("lut", StreamKind::IdxInRead);
    let sout = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(sin);
    let mut ids: Vec<ValueId> = vec![x];
    for op in ops {
        let n = ids.len();
        let a = ids[op.a.index(n)];
        let c = ids[op.b.index(n)];
        let a = if op.carried {
            Operand::carried(a, 1 + (op.code % 3) as u32, 1)
        } else {
            Operand::from(a)
        };
        let id = match op.code % 6 {
            0 => b.add(a, c),
            1 => b.mul(a, c),
            2 => b.xor(a, c),
            3 => b.div(a, c),
            4 if with_idx => {
                let mask = b.constant(0xff);
                let masked = b.and(a, mask);
                b.idx_load(lut, masked)
            }
            _ => b.select(a, c, c),
        };
        ids.push(id);
    }
    let last = *ids.last().unwrap();
    b.seq_write(sout, last);
    b.build().expect("generated kernel validates")
}
