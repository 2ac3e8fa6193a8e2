//! Recursive-descent parser for the KernelC subset; expressions by
//! precedence climbing.

use crate::lex::{LangError, Tok, Token};

/// Abstract syntax of the subset.
pub mod ast {
    /// Element type of a variable or stream.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Ty {
        /// 32-bit signed integer.
        Int,
        /// 32-bit IEEE float.
        Float,
    }

    /// Stream parameter kinds (Table 1 plus the sequential/conditional
    /// kinds).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum StreamTy {
        /// `istream<T>`.
        SeqIn,
        /// `ostream<T>`.
        SeqOut,
        /// `cistream<T>` — conditional input (\[16\]).
        CondIn,
        /// `costream<T>` — conditional output.
        CondOut,
        /// `clistream<T>` — per-lane conditional input.
        CondLaneIn,
        /// `idxl_istream<T>` — in-lane indexed read.
        IdxInRead,
        /// `idxl_ostream<T>` — in-lane indexed write.
        IdxInWrite,
        /// `idx_istream<T>` — cross-lane indexed read.
        IdxCrossRead,
    }

    /// One stream parameter.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Param<'a> {
        /// Stream kind.
        pub stream_ty: StreamTy,
        /// Element type.
        pub elem: Ty,
        /// Parameter name.
        pub name: &'a str,
    }

    /// Expressions; names borrow from the source text.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Expr<'a> {
        /// Integer literal.
        Int(i64),
        /// Float literal.
        Float(f32),
        /// Variable reference.
        Var(&'a str),
        /// Unary op: `-`, `~`, `!`.
        Unary(char, Box<Expr<'a>>),
        /// Binary op (C spelling, e.g. "+", "<=") and its two sides.
        Binary(&'static str, Box<[Expr<'a>; 2]>),
        /// Cast to a type: `(int) e` / `(float) e`.
        Cast(Ty, Box<Expr<'a>>),
        /// Intrinsic call: `lane()`, `lanes()`, `iter()`, `select(c,a,b)`,
        /// `min(a,b)`, `max(a,b)`.
        Call(&'a str, Vec<Expr<'a>>),
    }

    /// Statements inside the loop.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Stmt<'a> {
        /// `s >> v;` or, with a condition, `if (c) s >> v;` for
        /// conditional streams.
        Read {
            /// Stream name.
            stream: &'a str,
            /// Optional index expression (`s[i] >> v`).
            index: Option<Expr<'a>>,
            /// Optional condition (conditional streams).
            cond: Option<Expr<'a>>,
            /// Destination variable.
            var: &'a str,
            /// 1-based source line of the statement.
            line: u32,
        },
        /// `s << e;`, `s[i] << e;`, or `if (c) s << e;`.
        Write {
            /// Stream name.
            stream: &'a str,
            /// Optional index expression.
            index: Option<Expr<'a>>,
            /// Optional condition.
            cond: Option<Expr<'a>>,
            /// Value written.
            value: Expr<'a>,
            /// 1-based source line of the statement.
            line: u32,
        },
        /// `v = e;`.
        Assign {
            /// Assigned variable.
            var: &'a str,
            /// Right-hand side.
            value: Expr<'a>,
            /// 1-based source line of the statement.
            line: u32,
        },
    }

    impl Stmt<'_> {
        /// The 1-based source line this statement starts on.
        pub fn line(&self) -> u32 {
            match self {
                Stmt::Read { line, .. } | Stmt::Write { line, .. } | Stmt::Assign { line, .. } => {
                    *line
                }
            }
        }
    }

    /// A parsed kernel.
    #[derive(Debug, Clone, PartialEq)]
    pub struct KernelDef<'a> {
        /// Kernel name.
        pub name: &'a str,
        /// Stream parameters in declaration order.
        pub params: Vec<Param<'a>>,
        /// Local declarations: name -> type.
        pub locals: Vec<(&'a str, Ty)>,
        /// The stream controlling `while (!eos(s))`.
        pub loop_stream: &'a str,
        /// Loop-body statements.
        pub body: Vec<Stmt<'a>>,
    }
}

use ast::*;

/// Deepest an expression may nest, parentheses, unary operators, casts,
/// call arguments and chained operators alike: the parser, `lower`'s walk
/// and the tree's own `Drop` recurse once per level, so this bounds their
/// stacks whatever the source's size. The sources of this tree nest a few
/// levels.
const MAX_NESTING: u32 = 256;

/// A cursor over the tokens (`'t`) of a source text (`'a`).
struct P<'t, 'a> {
    toks: &'t [Token<'a>],
    pos: usize,
    /// Calls of `unary` on the stack — every recursion of the parser
    /// passes through it.
    depth: u32,
}

impl<'a> P<'_, 'a> {
    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::new(self.line(), msg)
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|t| t.tok)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        self.pos += 1;
        self.toks.get(self.pos - 1).map(|t| t.tok)
    }

    /// Consume the next token when it is `t`.
    fn at(&mut self, t: Tok) -> bool {
        let found = self.peek() == Some(t);
        self.pos += usize::from(found);
        found
    }

    fn eat(&mut self, t: Tok) -> Result<(), LangError> {
        if self.at(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<&'a str, LangError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), LangError> {
        let id = self.ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found `{id}`")))
        }
    }

    /// One level on top of `depth`, of the parser's stack or of the tree
    /// it builds, while that is within [`MAX_NESTING`].
    fn nest(&self, depth: u32) -> Result<u32, LangError> {
        if depth < MAX_NESTING {
            Ok(depth + 1)
        } else {
            Err(self.err(format!("expression nests deeper than {MAX_NESTING} levels")))
        }
    }

    fn elem_ty(&mut self) -> Result<Ty, LangError> {
        match self.ident()? {
            "int" => Ok(Ty::Int),
            "float" => Ok(Ty::Float),
            other => Err(self.err(format!("unknown element type `{other}`"))),
        }
    }
}

/// Parse one kernel definition from a token stream.
pub(crate) fn parse<'a>(toks: &[Token<'a>]) -> Result<KernelDef<'a>, LangError> {
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
    };
    p.eat_kw("kernel")?;
    let name = p.ident()?;
    p.eat(Tok::LParen)?;
    let mut params = Vec::new();
    loop {
        let stream_ty = match p.ident()? {
            "istream" => StreamTy::SeqIn,
            "ostream" => StreamTy::SeqOut,
            "cistream" => StreamTy::CondIn,
            "costream" => StreamTy::CondOut,
            "clistream" => StreamTy::CondLaneIn,
            "idxl_istream" => StreamTy::IdxInRead,
            "idxl_ostream" => StreamTy::IdxInWrite,
            "idx_istream" => StreamTy::IdxCrossRead,
            other => return Err(p.err(format!("unknown stream type `{other}`"))),
        };
        p.eat(Tok::Lt)?;
        let elem = p.elem_ty()?;
        p.eat(Tok::Gt)?;
        let name = p.ident()?;
        params.push(Param {
            stream_ty,
            elem,
            name,
        });
        match p.next() {
            Some(Tok::Comma) => continue,
            Some(Tok::RParen) => break,
            other => return Err(p.err(format!("expected `,` or `)`, found {other:?}"))),
        }
    }
    p.eat(Tok::LBrace)?;

    // Local declarations: `int a, b;` / `float x;` until `while`.
    let mut locals = Vec::new();
    while matches!(p.peek(), Some(Tok::Ident(id)) if id != "while") {
        let ty = p.elem_ty()?;
        loop {
            locals.push((p.ident()?, ty));
            match p.next() {
                Some(Tok::Comma) => continue,
                Some(Tok::Semi) => break,
                other => return Err(p.err(format!("expected `,` or `;`, found {other:?}"))),
            }
        }
    }

    // while (!eos(s)) { body }
    p.eat_kw("while")?;
    p.eat(Tok::LParen)?;
    p.eat(Tok::Bang)?;
    p.eat_kw("eos")?;
    p.eat(Tok::LParen)?;
    let loop_stream = p.ident()?;
    p.eat(Tok::RParen)?;
    p.eat(Tok::RParen)?;
    p.eat(Tok::LBrace)?;

    let mut body = Vec::new();
    while p.peek() != Some(Tok::RBrace) {
        body.push(stmt(&mut p)?);
    }
    p.eat(Tok::RBrace)?;
    p.eat(Tok::RBrace)?;
    if p.pos != toks.len() {
        return Err(p.err("trailing tokens after kernel"));
    }
    Ok(KernelDef {
        name,
        params,
        locals,
        loop_stream,
        body,
    })
}

fn stmt<'a>(p: &mut P<'_, 'a>) -> Result<Stmt<'a>, LangError> {
    let line = p.line();
    // Optional `if (cond)` prefix for conditional stream access.
    let mut cond = None;
    if p.at(Tok::Ident("if")) {
        p.eat(Tok::LParen)?;
        cond = Some(expr(p)?);
        p.eat(Tok::RParen)?;
    }
    let name = p.ident()?;
    // s[expr] >> v / << e, s >> v / << e, or v = e.
    let mut index = None;
    if p.at(Tok::LBracket) {
        index = Some(expr(p)?);
        p.eat(Tok::RBracket)?;
    }
    let stmt = match p.next() {
        Some(Tok::Shr) => Stmt::Read {
            stream: name,
            index,
            cond,
            var: p.ident()?,
            line,
        },
        Some(Tok::Shl) => Stmt::Write {
            stream: name,
            index,
            cond,
            value: expr(p)?,
            line,
        },
        Some(Tok::Assign) if index.is_none() && cond.is_none() => Stmt::Assign {
            var: name,
            value: expr(p)?,
            line,
        },
        other => return Err(p.err(format!("expected `>>`, `<<` or `=`, found {other:?}"))),
    };
    p.eat(Tok::Semi)?;
    Ok(stmt)
}

/// The C spelling and binding power of a binary operator token, loosest
/// first: `|`, `^`, `&`, equality, relational, additive, multiplicative.
/// `<<` and `>>` are stream I/O only, never expression operators.
fn binary_op(tok: Tok) -> Option<(&'static str, u8)> {
    Some(match tok {
        Tok::Pipe => ("|", 1),
        Tok::Caret => ("^", 2),
        Tok::Amp => ("&", 3),
        Tok::EqEq => ("==", 4),
        Tok::Ne => ("!=", 4),
        Tok::Lt => ("<", 5),
        Tok::Le => ("<=", 5),
        Tok::Gt => (">", 5),
        Tok::Ge => (">=", 5),
        Tok::Plus => ("+", 6),
        Tok::Minus => ("-", 6),
        Tok::Star => ("*", 7),
        Tok::Slash => ("/", 7),
        Tok::Percent => ("%", 7),
        _ => return None,
    })
}

fn expr<'a>(p: &mut P<'_, 'a>) -> Result<Expr<'a>, LangError> {
    Ok(binary(p, 0)?.0)
}

/// Precedence climbing: a unary operand, then every operator binding at
/// least as tightly as `min`, each taking a tighter right-hand side (all
/// operators associate to the left). With the expression, here and below,
/// comes the depth of its tree.
fn binary<'a>(p: &mut P<'_, 'a>, min: u8) -> Result<(Expr<'a>, u32), LangError> {
    let (mut lhs, mut depth) = unary(p)?;
    while let Some((op, power)) = p.peek().and_then(binary_op) {
        if power < min {
            break;
        }
        p.pos += 1;
        let (rhs, right) = binary(p, power + 1)?;
        depth = p.nest(depth.max(right))?;
        lhs = Expr::Binary(op, Box::new([lhs, rhs]));
    }
    Ok((lhs, depth))
}

fn unary<'a>(p: &mut P<'_, 'a>) -> Result<(Expr<'a>, u32), LangError> {
    p.depth = p.nest(p.depth)?;
    let op = match p.peek() {
        Some(Tok::Minus) => Some('-'),
        Some(Tok::Tilde) => Some('~'),
        Some(Tok::Bang) => Some('!'),
        _ => None,
    };
    let out = match op {
        None => primary(p)?,
        Some(op) => {
            p.pos += 1;
            let (inner, depth) = unary(p)?;
            (Expr::Unary(op, Box::new(inner)), p.nest(depth)?)
        }
    };
    p.depth -= 1;
    Ok(out)
}

fn primary<'a>(p: &mut P<'_, 'a>) -> Result<(Expr<'a>, u32), LangError> {
    match p.next() {
        Some(Tok::Int(v)) => Ok((Expr::Int(v), 0)),
        Some(Tok::Float(v)) => Ok((Expr::Float(v), 0)),
        Some(Tok::LParen) => {
            // Cast `(int) e` / `(float) e`, or parenthesized expression.
            let cast = match p.peek() {
                Some(Tok::Ident("int")) => Some(Ty::Int),
                Some(Tok::Ident("float")) => Some(Ty::Float),
                _ => None,
            };
            if let Some(ty) = cast {
                p.pos += 1;
                p.eat(Tok::RParen)?;
                let (inner, depth) = unary(p)?;
                return Ok((Expr::Cast(ty, Box::new(inner)), p.nest(depth)?));
            }
            let e = binary(p, 0)?;
            p.eat(Tok::RParen)?;
            Ok(e)
        }
        Some(Tok::Ident(id)) => {
            if !p.at(Tok::LParen) {
                return Ok((Expr::Var(id), 0));
            }
            let (mut args, mut depth) = (Vec::new(), 0);
            if !p.at(Tok::RParen) {
                loop {
                    let (arg, below) = binary(p, 0)?;
                    args.push(arg);
                    depth = depth.max(below);
                    match p.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RParen) => break,
                        other => return Err(p.err(format!("expected `,` or `)`, found {other:?}"))),
                    }
                }
            }
            Ok((Expr::Call(id, args), p.nest(depth)?))
        }
        other => Err(p.err(format!("expected expression, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> Result<KernelDef<'_>, LangError> {
        parse(&lex(src).unwrap())
    }

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
    fn parses_figure_10() {
        let k = parse_src(FIG10).unwrap();
        assert_eq!(k.name, "lookup");
        assert_eq!(k.params.len(), 3);
        assert_eq!(k.params[1].stream_ty, StreamTy::IdxInRead);
        assert_eq!(k.locals.len(), 3);
        assert_eq!(k.loop_stream, "in");
        assert_eq!(k.body.len(), 4);
        assert!(matches!(
            &k.body[1],
            Stmt::Read {
                stream,
                index: Some(_),
                ..
            } if *stream == "LUT"
        ));
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let k = parse_src(
            "kernel k(istream<int> a, ostream<int> o) { int x; \
             while (!eos(a)) { a >> x; o << x + 2 * 3 & 7; } }",
        )
        .unwrap();
        let Stmt::Write { value, .. } = &k.body[1] else {
            panic!("expected write");
        };
        // & binds loosest: (x + (2*3)) & 7.
        assert!(matches!(value, Expr::Binary("&", _)));
    }

    #[test]
    fn parses_conditional_access_and_casts() {
        let k = parse_src(
            "kernel k(clistream<int> a, ostream<float> o) { int c; float x; \
             while (!eos(a)) { if (c == 0) a >> c; x = (float) c; o << x; } }",
        )
        .unwrap();
        assert!(matches!(&k.body[0], Stmt::Read { cond: Some(_), .. }));
        assert!(matches!(
            &k.body[1],
            Stmt::Assign {
                value: Expr::Cast(Ty::Float, _),
                ..
            }
        ));
    }

    #[test]
    fn rejects_unknown_stream_type() {
        assert!(parse_src("kernel k(wstream<int> a) { while (!eos(a)) { } }").is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse_src("kernel k(istream<int> a)\n{\nint x\n}").unwrap_err();
        assert!(e.line >= 3, "line {}", e.line);
    }
}
