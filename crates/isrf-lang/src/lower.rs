//! Lowering from the KernelC-subset AST to the kernel IR.

use std::collections::HashMap;

use isrf_kernel::ir::{Kernel, KernelBuilder, Operand, StreamKind, StreamSlot, ValueId};

use crate::lex::LangError;
use crate::parse::ast::{Expr, KernelDef, Param, Stmt, StreamTy, Ty};

fn err(msg: impl Into<String>) -> LangError {
    LangError::new(0, msg)
}

/// What a name means. Streams and variables are separate name spaces, so
/// one name may be both.
#[derive(Default)]
struct Symbol {
    stream: Option<(StreamSlot, StreamTy, Ty)>,
    /// A variable's type and its current SSA value, once assigned or read.
    var: Option<(Ty, Option<ValueId>)>,
}

struct Ctx<'a> {
    b: KernelBuilder,
    /// Every declared name, borrowed from the source.
    symbols: HashMap<&'a str, Symbol>,
    /// Variables first *read* in the loop before any assignment: their
    /// placeholder `Mov`, to be patched into a loop-carried reference to
    /// the variable's final value (the KernelC accumulator idiom).
    carried: Vec<(&'a str, ValueId)>,
    /// Source line of the statement being lowered (0 outside the body).
    cur_line: u32,
}

impl<'a> Ctx<'a> {
    /// An error attributed to the statement currently being lowered.
    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::new(self.cur_line, msg)
    }

    fn stream(&self, name: &str) -> Result<(StreamSlot, StreamTy, Ty), LangError> {
        let symbol = self.symbols.get(name);
        symbol
            .and_then(|s| s.stream)
            .ok_or_else(|| self.err(format!("unknown stream `{name}`")))
    }

    /// The type and value slot of variable `name`.
    fn var_mut(&mut self, name: &str) -> Result<&mut (Ty, Option<ValueId>), LangError> {
        let line = self.cur_line;
        let symbol = self.symbols.get_mut(name);
        symbol
            .and_then(|s| s.var.as_mut())
            .ok_or_else(|| LangError::new(line, format!("unknown variable `{name}`")))
    }

    /// Current value of `var`, creating a loop-carried placeholder on
    /// first read-before-write.
    fn var(&mut self, name: &'a str) -> Result<(ValueId, Ty), LangError> {
        if let (ty, Some(v)) = *self.var_mut(name)? {
            return Ok((v, ty));
        }
        let zero = self.b.constant(0);
        let ph = self.b.mov(zero);
        self.carried.push((name, ph));
        let var = self.var_mut(name)?;
        var.1 = Some(ph);
        Ok((ph, var.0))
    }

    fn expr(&mut self, e: &Expr<'a>) -> Result<(ValueId, Ty), LangError> {
        match e {
            Expr::Int(v) => {
                let w = i32::try_from(*v).map_err(|_| self.err("int literal out of range"))? as u32;
                Ok((self.b.constant(w), Ty::Int))
            }
            Expr::Float(v) => Ok((self.b.constant_f(*v), Ty::Float)),
            Expr::Var(n) => self.var(n),
            Expr::Cast(ty, inner) => {
                let (v, from) = self.expr(inner)?;
                let out = match (from, ty) {
                    (Ty::Int, Ty::Float) => self.b.itof(v),
                    (Ty::Float, Ty::Int) => self.b.ftoi(v),
                    _ => v,
                };
                Ok((out, *ty))
            }
            Expr::Unary(op, inner) => {
                let (v, ty) = self.expr(inner)?;
                match (op, ty) {
                    ('-', Ty::Int) => Ok((self.b.neg(v), Ty::Int)),
                    ('-', Ty::Float) => Ok((self.b.fneg(v), Ty::Float)),
                    ('~', Ty::Int) => Ok((self.b.not(v), Ty::Int)),
                    ('!', Ty::Int) => {
                        let z = self.b.constant(0);
                        Ok((self.b.eq(v, z), Ty::Int))
                    }
                    _ => Err(self.err(format!("unary `{op}` not defined for {ty:?}"))),
                }
            }
            Expr::Binary(op, sides) => {
                let (a, ta) = self.expr(&sides[0])?;
                let (b2, tb) = self.expr(&sides[1])?;
                if ta != tb {
                    return Err(self.err(format!(
                        "type mismatch in `{op}`: {ta:?} vs {tb:?} (insert a cast)"
                    )));
                }
                let b = &mut self.b;
                let (v, ty) = match (*op, ta) {
                    ("+", Ty::Int) => (b.add(a, b2), Ty::Int),
                    ("-", Ty::Int) => (b.sub(a, b2), Ty::Int),
                    ("*", Ty::Int) => (b.mul(a, b2), Ty::Int),
                    ("/", Ty::Int) => (b.div(a, b2), Ty::Int),
                    ("%", Ty::Int) => (b.rem(a, b2), Ty::Int),
                    ("&", Ty::Int) => (b.and(a, b2), Ty::Int),
                    ("|", Ty::Int) => (b.or(a, b2), Ty::Int),
                    ("^", Ty::Int) => (b.xor(a, b2), Ty::Int),
                    ("<", Ty::Int) => (b.lt(a, b2), Ty::Int),
                    ("<=", Ty::Int) => (b.le(a, b2), Ty::Int),
                    (">", Ty::Int) => (b.lt(b2, a), Ty::Int),
                    (">=", Ty::Int) => (b.le(b2, a), Ty::Int),
                    ("==", Ty::Int) => (b.eq(a, b2), Ty::Int),
                    ("!=", Ty::Int) => (b.ne(a, b2), Ty::Int),
                    ("+", Ty::Float) => (b.fadd(a, b2), Ty::Float),
                    ("-", Ty::Float) => (b.fsub(a, b2), Ty::Float),
                    ("*", Ty::Float) => (b.fmul(a, b2), Ty::Float),
                    ("/", Ty::Float) => (b.fdiv(a, b2), Ty::Float),
                    ("<", Ty::Float) => (b.flt(a, b2), Ty::Int),
                    ("<=", Ty::Float) => (b.fle(a, b2), Ty::Int),
                    (">", Ty::Float) => (b.flt(b2, a), Ty::Int),
                    (">=", Ty::Float) => (b.fle(b2, a), Ty::Int),
                    ("==", Ty::Float) => (b.feq(a, b2), Ty::Int),
                    (op, ty) => return Err(self.err(format!("`{op}` not defined for {ty:?}"))),
                };
                Ok((v, ty))
            }
            Expr::Call(name, args) => self.call(name, args),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr<'a>]) -> Result<(ValueId, Ty), LangError> {
        let argc = args.len();
        match (name, argc) {
            ("lane", 0) => Ok((self.b.lane_id(), Ty::Int)),
            ("lanes", 0) => Ok((self.b.lane_count(), Ty::Int)),
            ("iter", 0) => Ok((self.b.iter_id(), Ty::Int)),
            ("select", 3) => {
                let (c, tc) = self.expr(&args[0])?;
                if tc != Ty::Int {
                    return Err(self.err("select condition must be int"));
                }
                let (a, ta) = self.expr(&args[1])?;
                let (b2, tb) = self.expr(&args[2])?;
                if ta != tb {
                    return Err(self.err("select arms must have the same type"));
                }
                Ok((self.b.select(c, a, b2), ta))
            }
            ("min", 2) | ("max", 2) => {
                let (a, ta) = self.expr(&args[0])?;
                let (b2, tb) = self.expr(&args[1])?;
                if ta != tb {
                    return Err(self.err(format!("{name} arguments must match")));
                }
                let v = match (name, ta) {
                    ("min", Ty::Int) => self.b.min(a, b2),
                    ("max", Ty::Int) => self.b.max(a, b2),
                    ("min", Ty::Float) => self.b.fmin(a, b2),
                    _ => self.b.fmax(a, b2),
                };
                Ok((v, ta))
            }
            _ => Err(self.err(format!("unknown intrinsic `{name}` with {argc} arguments"))),
        }
    }
}

fn stream_kind(t: StreamTy) -> StreamKind {
    match t {
        StreamTy::SeqIn => StreamKind::SeqIn,
        StreamTy::SeqOut => StreamKind::SeqOut,
        StreamTy::CondIn => StreamKind::CondIn,
        StreamTy::CondOut => StreamKind::CondOut,
        StreamTy::CondLaneIn => StreamKind::CondLaneIn,
        StreamTy::IdxInRead => StreamKind::IdxInRead,
        StreamTy::IdxInWrite => StreamKind::IdxInWrite,
        StreamTy::IdxCrossRead => StreamKind::IdxCrossRead,
    }
}

/// Lower a parsed kernel to IR.
pub(crate) fn lower(def: &KernelDef) -> Result<Kernel, LangError> {
    let mut ctx = Ctx {
        b: KernelBuilder::new(def.name),
        symbols: HashMap::with_capacity(def.params.len() + def.locals.len()),
        carried: Vec::new(),
        cur_line: 0,
    };
    for &Param {
        stream_ty,
        elem,
        name,
    } in &def.params
    {
        let slot = ctx.b.stream(name, stream_kind(stream_ty));
        let stream = &mut ctx.symbols.entry(name).or_default().stream;
        if stream.replace((slot, stream_ty, elem)).is_some() {
            return Err(err(format!("duplicate stream `{name}`")));
        }
    }
    for &(name, ty) in &def.locals {
        let var = &mut ctx.symbols.entry(name).or_default().var;
        if var.replace((ty, None)).is_some() {
            return Err(err(format!("duplicate variable `{name}`")));
        }
    }
    let (_, lt, _) = ctx.stream(def.loop_stream)?;
    if matches!(
        lt,
        StreamTy::SeqOut | StreamTy::CondOut | StreamTy::IdxInWrite
    ) {
        return Err(err("`eos` stream must be an input stream"));
    }

    for s in &def.body {
        ctx.cur_line = s.line();
        ctx.b.set_source_line(s.line());
        match s {
            Stmt::Assign { var, value: e, .. } => {
                let want = ctx.var_mut(var)?.0;
                let (v, got) = ctx.expr(e)?;
                if want != got {
                    return Err(ctx.err(format!(
                        "assigning {got:?} to `{var}: {want:?}` (insert a cast)"
                    )));
                }
                ctx.var_mut(var)?.1 = Some(v);
            }
            Stmt::Read {
                stream,
                index,
                cond,
                var,
                ..
            } => {
                let (slot, st, elem) = ctx.stream(stream)?;
                let want = ctx.var_mut(var)?.0;
                if want != elem {
                    return Err(ctx.err(format!("reading {elem:?} stream into `{var}: {want:?}`")));
                }
                let v = match (st, index, cond) {
                    (StreamTy::SeqIn, None, None) => ctx.b.seq_read(slot),
                    (StreamTy::CondIn, None, Some(c)) => {
                        let (cv, ct) = ctx.expr(c)?;
                        if ct != Ty::Int {
                            return Err(ctx.err("condition must be int"));
                        }
                        ctx.b.cond_read(slot, cv)
                    }
                    (StreamTy::CondLaneIn, None, Some(c)) => {
                        let (cv, ct) = ctx.expr(c)?;
                        if ct != Ty::Int {
                            return Err(ctx.err("condition must be int"));
                        }
                        ctx.b.cond_lane_read(slot, cv)
                    }
                    (StreamTy::IdxInRead | StreamTy::IdxCrossRead, Some(i), None) => {
                        let (iv, it) = ctx.expr(i)?;
                        if it != Ty::Int {
                            return Err(ctx.err("stream index must be int"));
                        }
                        ctx.b.idx_load(slot, iv)
                    }
                    _ => {
                        return Err(ctx.err(format!(
                            "access form does not match stream type of `{stream}`"
                        )))
                    }
                };
                ctx.var_mut(var)?.1 = Some(v);
            }
            Stmt::Write {
                stream,
                index,
                cond,
                value,
                ..
            } => {
                let (slot, st, elem) = ctx.stream(stream)?;
                let (v, got) = ctx.expr(value)?;
                if got != elem {
                    return Err(ctx.err(format!("writing {got:?} to {elem:?} stream `{stream}`")));
                }
                match (st, index, cond) {
                    (StreamTy::SeqOut, None, None) => {
                        ctx.b.seq_write(slot, v);
                    }
                    (StreamTy::CondOut, None, Some(c)) => {
                        let (cv, ct) = ctx.expr(c)?;
                        if ct != Ty::Int {
                            return Err(ctx.err("condition must be int"));
                        }
                        ctx.b.cond_write(slot, cv, v);
                    }
                    (StreamTy::IdxInWrite, Some(i), None) => {
                        let (iv, it) = ctx.expr(i)?;
                        if it != Ty::Int {
                            return Err(ctx.err("stream index must be int"));
                        }
                        ctx.b.idx_write(slot, iv, v);
                    }
                    _ => {
                        return Err(ctx.err(format!(
                            "access form does not match stream type of `{stream}`"
                        )))
                    }
                }
            }
        }
    }

    // Patch read-before-write placeholders into loop-carried references.
    for (name, ph) in std::mem::take(&mut ctx.carried) {
        // If the variable was never assigned, it stays 0 (self-carry of
        // the zero-initialized placeholder).
        let last = ctx
            .var_mut(name)?
            .1
            .expect("a carried variable has a value");
        ctx.b.set_operand(ph, 0, Operand::carried(last, 1, 0));
    }
    ctx.b
        .build()
        .map_err(|e| err(format!("lowered kernel failed validation: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kernel;
    use isrf_core::config::{ConfigName, MachineConfig};
    use isrf_kernel::ir::Opcode;
    use isrf_kernel::sched::{schedule, SchedParams};

    const FIG10: &str = r#"
kernel lookup(
    istream<int> in,
    idxl_istream<int> LUT,
    ostream<int> out) {
  int a, b, c;
  while (!eos(in)) {
    in >> a;
    LUT[a] >> b;
    c = a + b;
    out << c;
  }
}
"#;

    #[test]
    fn figure_10_lowers_and_schedules() {
        let k = parse_kernel(FIG10).unwrap();
        assert_eq!(k.streams.len(), 3);
        assert_eq!(k.streams[1].kind, StreamKind::IdxInRead);
        assert!(k.ops.iter().any(|o| matches!(o.opcode, Opcode::IdxAddr(_))));
        let p = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4));
        let s = schedule(&k, &p).unwrap();
        assert!(s.ii >= 1);
    }

    #[test]
    fn source_lines_propagate_to_ops() {
        let k = parse_kernel(FIG10).unwrap();
        // `LUT[a] >> b;` sits on line 9 of FIG10 (leading newline counts).
        let (i, _) = k
            .ops
            .iter()
            .enumerate()
            .find(|(_, o)| matches!(o.opcode, Opcode::IdxAddr(_)))
            .unwrap();
        assert_eq!(k.source_line(i), Some(9));
        // Every op of a lowered kernel carries some line.
        assert!((0..k.ops.len()).all(|i| k.source_line(i).is_some()));
    }

    #[test]
    fn accumulator_becomes_loop_carried() {
        let k = parse_kernel(
            "kernel acc(istream<int> in, ostream<int> out) { int x, s; \
             while (!eos(in)) { in >> x; s = s + x; out << s; } }",
        )
        .unwrap();
        // Some operand must be loop-carried at distance 1.
        assert!(k
            .ops
            .iter()
            .flat_map(|o| o.operands.iter())
            .any(|p| p.distance == 1));
    }

    #[test]
    fn float_ops_lower_to_fp_opcodes() {
        let k = parse_kernel(
            "kernel f(istream<float> in, ostream<float> out) { float x; \
             while (!eos(in)) { in >> x; out << x * 2.0 + 1.0; } }",
        )
        .unwrap();
        assert!(k.ops.iter().any(|o| o.opcode == Opcode::FMul));
        assert!(k.ops.iter().any(|o| o.opcode == Opcode::FAdd));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let e = parse_kernel(
            "kernel f(istream<float> in, ostream<int> out) { float x; \
             while (!eos(in)) { in >> x; out << x + 1; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("type mismatch"), "{e}");
    }

    #[test]
    fn intrinsics_and_selects() {
        let k = parse_kernel(
            "kernel f(ostream<int> out) { int v; \
             while (!eos(out)) { v = select(lane() == 0, iter(), lanes()); out << v; } }",
        );
        // `eos` on an output stream is rejected.
        assert!(k.is_err());
        let k = parse_kernel(
            "kernel f(istream<int> in, ostream<int> out) { int v, x; \
             while (!eos(in)) { in >> x; v = select(lane() == 0, iter(), x); \
             out << min(v, 100); } }",
        )
        .unwrap();
        assert!(k.ops.iter().any(|o| o.opcode == Opcode::Select));
        assert!(k.ops.iter().any(|o| o.opcode == Opcode::Min));
    }

    #[test]
    fn conditional_and_indexed_writes() {
        let k = parse_kernel(
            "kernel f(istream<int> in, costream<int> co, idxl_ostream<int> w) { int x; \
             while (!eos(in)) { in >> x; if (x > 0) co << x; w[x & 63] << x; } }",
        )
        .unwrap();
        assert!(k
            .ops
            .iter()
            .any(|o| matches!(o.opcode, Opcode::CondWrite(_))));
        assert!(k
            .ops
            .iter()
            .any(|o| matches!(o.opcode, Opcode::IdxWrite(_))));
    }
}
