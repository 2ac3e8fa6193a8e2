//! The abstract domain: closed `i64` intervals over kernel values, and the
//! forward interval evaluation of a kernel body.
//!
//! `None` is ⊤ (unknown). Intervals that escape `i32` range collapse to ⊤
//! rather than model modular arithmetic. The evaluator takes a per-slot
//! `stream_in` vector so whole-program propagation (see `prop`) can seed
//! stream reads with the producing op's value interval; per-kernel
//! analysis passes an empty slice and every stream read is ⊤.

use isrf_kernel::ir::{Kernel, Op, Opcode};

/// A closed interval over `i64` (wide enough to hold any `i32` arithmetic
/// result exactly before clamping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Iv {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// Abstract value: `None` is ⊤ (unknown).
pub type AbsVal = Option<Iv>;

const I32_MIN: i64 = i32::MIN as i64;
const I32_MAX: i64 = i32::MAX as i64;

pub(crate) fn iv(lo: i64, hi: i64) -> AbsVal {
    // Anything escaping i32 range may wrap at runtime: give up rather than
    // model modular arithmetic.
    if lo < I32_MIN || hi > I32_MAX || lo > hi {
        None
    } else {
        Some(Iv { lo, hi })
    }
}

pub(crate) fn exact(v: i64) -> AbsVal {
    iv(v, v)
}

pub(crate) fn union(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (Some(a), Some(b)) => iv(a.lo.min(b.lo), a.hi.max(b.hi)),
        _ => None,
    }
}

fn lift2(a: AbsVal, b: AbsVal, f: impl Fn(Iv, Iv) -> AbsVal) -> AbsVal {
    match (a, b) {
        (Some(a), Some(b)) => f(a, b),
        _ => None,
    }
}

fn const_of(v: AbsVal) -> Option<i64> {
    v.filter(|i| i.lo == i.hi).map(|i| i.lo)
}

pub(crate) fn operand_interval(vals: &[AbsVal], op: &Op, k: usize) -> AbsVal {
    let o = &op.operands[k];
    if o.distance > 0 {
        // Loop-carried: the value from a previous iteration, or `init` on
        // early iterations. The producer's interval still bounds it, but
        // `init` must be included too.
        return union(vals[o.value.index()], exact(o.init as i32 as i64));
    }
    vals[o.value.index()]
}

/// Forward interval analysis over a kernel body (ops are in dependence
/// order, so one pass suffices; loop-carried operands fold in the
/// producer's final interval, which is sound because intervals here never
/// depend on the iteration count except through `IterId`).
///
/// `stream_in[slot]` seeds the interval returned by stream reads of that
/// slot (⊤ for slots past the end, so `&[]` means "no stream knowledge").
pub(crate) fn eval_intervals(
    kernel: &Kernel,
    iters: u64,
    lanes: i64,
    stream_in: &[AbsVal],
) -> Vec<AbsVal> {
    let slot_in = |s: isrf_kernel::ir::StreamSlot| -> AbsVal {
        stream_in.get(s.0 as usize).copied().flatten()
    };
    let mut vals: Vec<AbsVal> = Vec::with_capacity(kernel.ops.len());
    // Two passes: loop-carried operands may reference *later* ops, whose
    // interval is unknown on the first pass (treated as ⊤, which is sound);
    // the second pass tightens with every producer computed.
    for pass in 0..2 {
        for (i, op) in kernel.ops.iter().enumerate() {
            let get = |k: usize| -> AbsVal {
                let o = &op.operands[k];
                let produced = if o.distance == 0 || pass > 0 || o.value.index() < i {
                    *vals.get(o.value.index()).unwrap_or(&None)
                } else {
                    None
                };
                if o.distance > 0 {
                    union(produced, exact(o.init as i32 as i64))
                } else {
                    produced
                }
            };
            use Opcode::*;
            let v = match op.opcode {
                Const(w) => exact(w as i32 as i64),
                LaneId => iv(0, lanes - 1),
                LaneCount => exact(lanes),
                IterId => iv(0, (iters.saturating_sub(1)).min(I32_MAX as u64) as i64),
                Mov => get(0),
                Neg => get(0).and_then(|a| iv(-a.hi, -a.lo)),
                Not => get(0).and_then(|a| iv(-a.hi - 1, -a.lo - 1)),
                Add => lift2(get(0), get(1), |a, b| iv(a.lo + b.lo, a.hi + b.hi)),
                Sub => lift2(get(0), get(1), |a, b| iv(a.lo - b.hi, a.hi - b.lo)),
                Mul => lift2(get(0), get(1), |a, b| {
                    let p = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                    iv(*p.iter().min().expect("4"), *p.iter().max().expect("4"))
                }),
                Div => lift2(get(0), get(1), |a, b| {
                    // Only the easy, common case: positive constant divisor.
                    match const_of(Some(b)) {
                        Some(d) if d > 0 => iv(a.lo.div_euclid(d).min(a.lo / d), a.hi / d),
                        _ => None,
                    }
                }),
                Rem => lift2(get(0), get(1), |a, b| match const_of(Some(b)) {
                    Some(d) if d > 0 && a.lo >= 0 => iv(0, (d - 1).min(a.hi)),
                    _ => None,
                }),
                And => {
                    // Masking with a non-negative value bounds the result
                    // even when the other operand is completely unknown.
                    let nonneg = |v: AbsVal| v.filter(|i| i.lo >= 0).map(|i| i.hi);
                    match (nonneg(get(0)), nonneg(get(1))) {
                        (Some(a), Some(b)) => iv(0, a.min(b)),
                        (Some(a), None) => iv(0, a),
                        (None, Some(b)) => iv(0, b),
                        (None, None) => None,
                    }
                }
                Or => lift2(get(0), get(1), |a, b| {
                    if a.lo >= 0 && b.lo >= 0 {
                        // OR cannot clear bits: at least max(lo); cannot set
                        // bits above the highest set bit of either hi.
                        let bits = 64 - (a.hi.max(b.hi) as u64).leading_zeros();
                        iv(a.lo.max(b.lo), (1i64 << bits) - 1)
                    } else {
                        None
                    }
                }),
                Xor => lift2(get(0), get(1), |a, b| {
                    if a.lo >= 0 && b.lo >= 0 {
                        let bits = 64 - (a.hi.max(b.hi) as u64).leading_zeros();
                        iv(0, (1i64 << bits) - 1)
                    } else {
                        None
                    }
                }),
                Shl => lift2(get(0), get(1), |a, b| match const_of(Some(b)) {
                    Some(s) if (0..32).contains(&s) => iv(a.lo << s, a.hi << s),
                    _ => None,
                }),
                Shr => lift2(get(0), get(1), |a, b| match const_of(Some(b)) {
                    // Logical shift: only safe on non-negative values.
                    Some(s) if (0..32).contains(&s) && a.lo >= 0 => iv(a.lo >> s, a.hi >> s),
                    _ => None,
                }),
                Sra => lift2(get(0), get(1), |a, b| match const_of(Some(b)) {
                    Some(s) if (0..32).contains(&s) => iv(a.lo >> s, a.hi >> s),
                    _ => None,
                }),
                Lt | Le | Eq | Ne | ULt | FLt | FLe | FEq => iv(0, 1),
                Min => lift2(get(0), get(1), |a, b| iv(a.lo.min(b.lo), a.hi.min(b.hi))),
                Max => lift2(get(0), get(1), |a, b| iv(a.lo.max(b.lo), a.hi.max(b.hi))),
                Select => union(get(1), get(2)),
                // The address token of IdxAddr *is* the index value.
                IdxAddr(_) => get(0),
                // Stream reads: the propagated interval of the bound SRF
                // region, when whole-program analysis supplied one.
                SeqRead(s) | CondRead(s) | CondLaneRead(s) | IdxRead(s) => slot_in(s),
                // Everything data-dependent, floating point, or cross-lane.
                FNeg
                | IToF
                | FToI
                | FAdd
                | FSub
                | FMul
                | FDiv
                | FMin
                | FMax
                | SeqWrite(_)
                | CondWrite(_)
                | IdxWrite(_)
                | ScratchRead
                | ScratchWrite
                | Comm { .. }
                | CommXor { .. } => None,
            };
            if pass == 0 {
                vals.push(v);
            } else {
                vals[i] = v;
            }
        }
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_kernel::ir::{KernelBuilder, StreamKind};

    fn intervals_of(build: impl FnOnce(&mut KernelBuilder)) -> Vec<AbsVal> {
        let mut b = KernelBuilder::new("t");
        build(&mut b);
        let k = b.build().expect("valid kernel");
        eval_intervals(&k, 100, 8, &[])
    }

    #[test]
    fn interval_masking_bounds_index() {
        // (x & 63) is in [0, 63] even when x is unknown.
        let vals = intervals_of(|b| {
            let s = b.stream("in", StreamKind::SeqIn);
            let o = b.stream("out", StreamKind::SeqOut);
            let x = b.seq_read(s);
            let m = b.constant(63);
            let i = b.push(Opcode::And, vec![x.into(), m.into()]);
            b.seq_write(o, i);
        });
        assert_eq!(vals[2], iv(0, 63));
    }

    #[test]
    fn interval_arith_and_compare() {
        let vals = intervals_of(|b| {
            let o = b.stream("out", StreamKind::SeqOut);
            let c = b.constant(10);
            let l = b.lane_id(); // [0, 7]
            let s = b.push(Opcode::Add, vec![c.into(), l.into()]); // [10, 17]
            let m = b.push(Opcode::Mul, vec![s.into(), s.into()]); // [100, 289]
            let d = b.push(Opcode::Sub, vec![m.into(), c.into()]); // [90, 279]
            let q = b.push(Opcode::Lt, vec![d.into(), c.into()]); // [0, 1]
            b.seq_write(o, q);
        });
        assert_eq!(vals[2], iv(10, 17));
        assert_eq!(vals[3], iv(100, 289));
        assert_eq!(vals[4], iv(90, 279));
        assert_eq!(vals[5], iv(0, 1));
    }

    #[test]
    fn interval_stream_reads_default_to_top() {
        let vals = intervals_of(|b| {
            let s = b.stream("in", StreamKind::SeqIn);
            let o = b.stream("out", StreamKind::SeqOut);
            let x = b.seq_read(s);
            b.seq_write(o, x);
        });
        assert_eq!(vals[0], None);
    }

    #[test]
    fn interval_stream_reads_take_seeded_input() {
        let mut b = KernelBuilder::new("t");
        let s = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(s);
        let m = b.constant(1);
        let i = b.push(Opcode::Add, vec![x.into(), m.into()]);
        b.seq_write(o, i);
        let k = b.build().expect("valid kernel");
        let vals = eval_intervals(&k, 100, 8, &[iv(3, 9), None]);
        assert_eq!(vals[0], iv(3, 9));
        assert_eq!(vals[2], iv(4, 10));
    }

    /// `outer` contains `inner` (⊤ contains everything).
    fn contains(outer: AbsVal, inner: AbsVal) -> bool {
        match (outer, inner) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(o), Some(i)) => o.lo <= i.lo && i.hi <= o.hi,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The abstract transformer is monotone in its stream inputs:
        /// widening a seeded interval can only widen (never shrink or
        /// shift) every derived interval — the property whole-program
        /// propagation relies on to stay sound when producers are joined.
        #[test]
        fn eval_intervals_is_monotone_in_stream_inputs(
            lo in -1000i64..1000,
            len in 0i64..1000,
            dl in 0i64..1000,
            dh in 0i64..1000,
        ) {
            let mut b = KernelBuilder::new("mono");
            let s = b.stream("in", StreamKind::SeqIn);
            let o = b.stream("out", StreamKind::SeqOut);
            let x = b.seq_read(s);
            let c = b.constant(7);
            let a = b.push(Opcode::Add, vec![x.into(), c.into()]);
            let m = b.push(Opcode::Mul, vec![a.into(), x.into()]);
            let n = b.push(Opcode::And, vec![m.into(), c.into()]);
            let d = b.push(Opcode::Sub, vec![n.into(), x.into()]);
            let l = b.lane_id();
            let q = b.push(Opcode::Lt, vec![d.into(), l.into()]);
            let sel = b.push(Opcode::Select, vec![q.into(), d.into(), a.into()]);
            b.seq_write(o, sel);
            let k = b.build().expect("valid kernel");

            let narrow = eval_intervals(&k, 100, 8, &[iv(lo, lo + len), None]);
            let wide =
                eval_intervals(&k, 100, 8, &[iv(lo - dl, lo + len + dh), None]);
            let top = eval_intervals(&k, 100, 8, &[]);
            for i in 0..narrow.len() {
                proptest::prop_assert!(
                    contains(wide[i], narrow[i]),
                    "op {i}: {:?} does not contain {:?}", wide[i], narrow[i]
                );
                proptest::prop_assert!(
                    contains(top[i], narrow[i]),
                    "op {i}: ⊤-seeded {:?} does not contain {:?}", top[i], narrow[i]
                );
            }
        }
    }

    #[test]
    fn interval_carried_operand_includes_init() {
        // acc = acc<1> + 1 with init 5: producer interval is ⊤-free but the
        // union with init keeps 5 inside.
        let vals = intervals_of(|b| {
            let o = b.stream("out", StreamKind::SeqOut);
            let one = b.constant(1);
            let acc = b.push(
                Opcode::Add,
                vec![
                    isrf_kernel::ir::Operand::carried(isrf_kernel::ir::ValueId(1), 1, 5),
                    one.into(),
                ],
            );
            b.seq_write(o, acc);
        });
        // Self-referential sums are unbounded: must be ⊤, not a wrong bound.
        assert_eq!(vals[1], None);
    }
}
