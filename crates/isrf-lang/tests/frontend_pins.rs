//! What the front end produced before its lexer, parser and lowering were
//! rewritten (tokens borrowing from the source, one binding-power loop, one
//! symbol table): the `kernel_hash` of one source per statement form, and
//! the exact `LangError` text of one malformed source per error site. Every
//! value below was computed at the commit before the rewrite; a hash covers
//! the name, the stream declarations, every op and every operand, so two
//! front ends that agree here emit the same kernels.

use isrf_kernel::hash::{kernel_hash, StableHasher};
use isrf_kernel::ir::Kernel;
use isrf_lang::parse_kernel;

mod family;

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

/// The source of `examples/kernelc_saxpy.rs` (checked against the file).
const SAXPY: &str = r#"
kernel saxpy(
    istream<float> xs,
    istream<float> ys,
    ostream<float> out,
    ostream<float> peak) {
  float x, y, r, m;
  while (!eos(xs)) {
    xs >> x;
    ys >> y;
    r = 2.5 * x + y;
    m = max(m, r);     // m is read before assignment: loop-carried
    out << r;
    peak << m;
  }
}
"#;

const CONDITIONAL: &str = "kernel cond(cistream<int> ci, clistream<int> cl, costream<int> co, \
    istream<int> in, ostream<int> out) {
  int x, y, z;
  while (!eos(in)) {
    in >> x;
    if (x > 3) ci >> y;
    if (y != x) cl >> z;
    if (z <= y + x) co << z - y;
    out << z;
  }
}";

const INDEXED: &str = "kernel idx(istream<int> in, idxl_istream<int> T, idx_istream<float> G,
    idxl_ostream<int> W, ostream<float> out) {
  int x, t; float g;
  while (!eos(in)) {
    in >> x;
    T[x & 15] >> t;
    G[(t ^ x) & 127] >> g;
    W[t % 16] << x * t;
    out << g;
  }
}";

const CASTS_AND_UNARY: &str = "kernel cast(istream<int> in, istream<float> fin, \
    ostream<int> out, ostream<float> fout) {
  int i, j; float f, g;
  while (!eos(in)) {
    in >> i; fin >> f;
    j = (int) f + -i + ~i + !i + - - i;
    g = (float) i * -f + (float) (int) f - 1.5e1 / 2.0f;
    j = j + (f < g) + (f <= g) + (f > g) + (f >= g) + (f == g) + (int) (float) j;
    out << j; fout << g;
  }
}";

const INTRINSICS: &str = "kernel intr(istream<int> in, istream<float> fin, \
    ostream<int> out, ostream<float> fout) {
  int v, x; float f;
  while (!eos(in)) {
    in >> x; fin >> f;
    v = select(lane() == 0, iter(), lanes());
    v = max(min(v, 0x7fff), 0 - x);
    f = select(v < x, min(f, 1.0), max(f, 0.5));
    out << v; fout << f;
  }
}";

/// `s` and `n` are read before they are assigned (loop-carried), `u` is
/// read and never assigned (a self-carried zero).
const ACCUMULATOR: &str = "kernel acc(istream<int> in, ostream<int> out) {
  int x, s, n, u;
  while (!eos(in)) { in >> x; s = s + x; n = n + 1 + u; out << s * n; }
}";

/// Every binary operator at every precedence level, unparenthesised, then
/// the `&`/`==` pair on its own (C precedence: `a & (b == c)`).
const PRECEDENCE: &str = "kernel prec(istream<int> in, ostream<int> out) {
  int a, b, c, d;
  while (!eos(in)) {
    in >> a; in >> b; in >> c;
    d = a | b ^ c & a == b != c < a <= b > c >= a + b - c * a / b % c;
    d = d + (a & b == c) + (a == b & c) + (a | b & c ^ a) + (a - b - c) + a / b * c;
    d = d * (a + b) * (c - (a | b)) + (a < b == b < c);
    out << d;
  }
}";

/// Comments of both kinds, every literal spelling, and a variable that
/// shares its name with a stream (separate name spaces).
const LEXICAL: &str = "// leading comment
kernel lex_(istream<int> in, /* inline */ ostream<int> out, ostream<float> f_out) {
  int in, x_1; float f;   /* a local named like the stream */
  while (!eos(in)) { // the loop
    in >> in;
    x_1 = in + 42 + 0x1f + 0xABCDEF + 0 + 2147483647;
    f = 1.5 + 2.0f + 1e3 + 1.25e-2 + 3E+2 + 7f;
    /* multi
       line */ out << x_1;
    f_out << f;
  }
}
";

#[test]
fn kernel_hashes_are_what_the_replaced_front_end_produced() {
    assert!(
        include_str!("../../../examples/kernelc_saxpy.rs").contains(SAXPY),
        "SAXPY here is no longer the example's source"
    );
    let fir64 = family::source("fir", 64);
    // (name, source, ops, `kernel_hash`, digest of what that hash leaves out)
    let pinned: [(&str, &str, usize, u128, u128); 10] = [
        (
            "fig10",
            FIG10,
            5,
            0x51089adf_1c650819_28653e62_b040cc9c,
            0xde6337d5_0c93050b_e0251a17_6a213c68,
        ),
        (
            "saxpy",
            SAXPY,
            10,
            0x8def3c0d_e01c535a_72e00b37_e2642df6,
            0x307f4ba3_7350eea5_7d6889b3_1bf1d6d8,
        ),
        (
            "conditional",
            CONDITIONAL,
            11,
            0x7d33b6f9_499e26ec_e073a4cd_b305da9c,
            0xe3aaabc5_ff6c26a6_5a94f846_73be940a,
        ),
        (
            "indexed",
            INDEXED,
            15,
            0xa7faac94_8f2ea602_5937ef84_7f32a41a,
            0x5e5416c2_701ef322_65032aec_931e3282,
        ),
        (
            "casts_and_unary",
            CASTS_AND_UNARY,
            38,
            0x75de6a8c_e26c4bf2_e91c0149_f02c09e6,
            0x4da94414_2a1dfd1d_3f81751d_51d975f8,
        ),
        (
            "intrinsics",
            INTRINSICS,
            21,
            0x657e9bb2_50a6372c_fcb2a9c2_9f62746e,
            0x85d8a4ef_88cab0b7_0b6fd75e_ee195ef7,
        ),
        (
            "accumulator",
            ACCUMULATOR,
            13,
            0xd222b544_10b5f7c9_01b88a27_dce095d0,
            0x255452dc_798aafcb_4f7acfbb_0aea05e7,
        ),
        (
            "precedence",
            PRECEDENCE,
            43,
            0xe165b553_ae833b3e_99ee3d52_adb5ab86,
            0xba440d87_fd5d80a6_afa7dc99_258c694d,
        ),
        (
            "lexical",
            LEXICAL,
            24,
            0xa2b692eb_0fafd54f_1972affc_357142a2,
            0xa070f0d8_9937b2e4_7d7d5d29_a2321d83,
        ),
        (
            "fir64",
            &fir64,
            328,
            0x889ec7cc_909ee6c8_1d0ee015_4c4577e7,
            0x8f88b712_a028e6f1_28db92bc_8118eae2,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, src, ops, hash, rest) in pinned {
        let k = parse_kernel(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = (k.ops.len(), kernel_hash(&k), names_and_lines(&k));
        if got != (ops, hash, rest) {
            wrong.push(format!("{name}: {}, {:#x}, {:#x}", got.0, got.1, got.2));
        }
    }
    assert!(wrong.is_empty(), "front end moved:\n{}", wrong.join("\n"));
}

/// The fields `kernel_hash` skips as diagnostic-only: the kernel's name,
/// its streams' names and the source line of every op.
fn names_and_lines(k: &Kernel) -> u128 {
    let mut h = StableHasher::new();
    let names = std::iter::once(&k.name).chain(k.streams.iter().map(|s| &s.name));
    for name in names {
        name.bytes().for_each(|b| h.write_u8(b));
        h.write_u8(0xff);
    }
    assert_eq!(k.lines.len(), k.ops.len(), "a line for every op");
    k.lines.iter().for_each(|&l| h.write_u32(l));
    h.finish128()
}

/// Malformed sources, one per place the front end can refuse one, with the
/// `Display` of the error each must produce: line and message, to the byte.
const MALFORMED: &[(&str, &str)] = &[
    (
        "kernel k(istream<int> a) {\n while (!eos(a)) { a >> @; } }",
        "line 2: unexpected character `@`",
    ),
    (
        "kernel k(istream<int> a) { while (!eos(a)) { } }\n\n$",
        "line 3: unexpected character `$`",
    ),
    ("", "line 0: expected identifier, found None"),
    ("kernel", "line 1: expected identifier, found None"),
    (
        "kernle k(istream<int> a) { while (!eos(a)) { } }",
        "line 1: expected `kernel`, found `kernle`",
    ),
    (
        "kernel 42(istream<int> a) { while (!eos(a)) { } }",
        "line 1: expected identifier, found Some(Int(42))",
    ),
    (
        "kernel k istream<int> a) { while (!eos(a)) { } }",
        "line 1: expected LParen, found Some(Ident(\"istream\"))",
    ),
    (
        "kernel k(\nwstream<int> a) { while (!eos(a)) { } }",
        "line 2: unknown stream type `wstream`",
    ),
    (
        "kernel k(istream int> a) { while (!eos(a)) { } }",
        "line 1: expected Lt, found Some(Ident(\"int\"))",
    ),
    (
        "kernel k(istream<bool> a) { while (!eos(a)) { } }",
        "line 1: unknown element type `bool`",
    ),
    (
        "kernel k(istream<> a) { while (!eos(a)) { } }",
        "line 1: expected identifier, found Some(Gt)",
    ),
    (
        "kernel k(istream<int a) { while (!eos(a)) { } }",
        "line 1: expected Gt, found Some(Ident(\"a\"))",
    ),
    (
        "kernel k(istream<int> 7) { while (!eos(a)) { } }",
        "line 1: expected identifier, found Some(Int(7))",
    ),
    (
        "kernel k(istream<int> a; ostream<int> o) { while (!eos(a)) { } }",
        "line 1: expected `,` or `)`, found Some(Semi)",
    ),
    (
        "kernel k(istream<int> a,",
        "line 1: expected identifier, found None",
    ),
    (
        "kernel k(istream<int> a\n",
        "line 1: expected `,` or `)`, found None",
    ),
    (
        "kernel k(istream<int> a) while (!eos(a)) { } }",
        "line 1: expected LBrace, found Some(Ident(\"while\"))",
    ),
    (
        "kernel k(istream<int> a) {\n  int x y;\n  while (!eos(a)) { } }",
        "line 2: expected `,` or `;`, found Some(Ident(\"y\"))",
    ),
    (
        "kernel k(istream<int> a) {\n  bool x;\n  while (!eos(a)) { } }",
        "line 2: unknown element type `bool`",
    ),
    (
        "kernel k(istream<int> a) {\n  int 3;\n  while (!eos(a)) { } }",
        "line 2: expected identifier, found Some(Int(3))",
    ),
    (
        "kernel k(istream<int> a) {\n  int x;\n  1.5 }",
        "line 3: expected identifier, found Some(Float(1.5))",
    ),
    (
        "kernel k(istream<int> a) {\n  int x\n",
        "line 2: expected `,` or `;`, found None",
    ),
    (
        "kernel k(istream<int> a) {\n  int x;\n  whale (!eos(a)) { } }",
        "line 3: unknown element type `whale`",
    ),
    (
        "kernel k(istream<int> a) { while !eos(a)) { } }",
        "line 1: expected LParen, found Some(Bang)",
    ),
    (
        "kernel k(istream<int> a) { while (eos(a)) { } }",
        "line 1: expected Bang, found Some(Ident(\"eos\"))",
    ),
    (
        "kernel k(istream<int> a) { while (!done(a)) { } }",
        "line 1: expected `eos`, found `done`",
    ),
    (
        "kernel k(istream<int> a) { while (!eos a)) { } }",
        "line 1: expected LParen, found Some(Ident(\"a\"))",
    ),
    (
        "kernel k(istream<int> a) { while (!eos(1)) { } }",
        "line 1: expected identifier, found Some(Int(1))",
    ),
    (
        "kernel k(istream<int> a) { while (!eos(a) { } }",
        "line 1: expected RParen, found Some(LBrace)",
    ),
    (
        "kernel k(istream<int> a) { while (!eos(a))\n a >> x; }",
        "line 2: expected LBrace, found Some(Ident(\"a\"))",
    ),
    (
        "kernel k(istream<int> a) { while (!eos(a)) { }",
        "line 1: expected RBrace, found None",
    ),
    (
        "kernel k(istream<int> a) { while (!eos(a)) { } } }",
        "line 1: trailing tokens after kernel",
    ),
    (
        "kernel k(istream<int> a) { while (!eos(a)) { } }\nkernel",
        "line 2: trailing tokens after kernel",
    ),
    (
        "kernel k(istream<int> a, ostream<int> a) {\n while (!eos(a)) { } }",
        "line 0: duplicate stream `a`",
    ),
    (
        "kernel k(istream<int> a) {\n int x, y, x;\n while (!eos(a)) { } }",
        "line 0: duplicate variable `x`",
    ),
    (
        "kernel k(istream<int> a) {\n while (!eos(b)) { } }",
        "line 0: unknown stream `b`",
    ),
    (
        "kernel k(ostream<int> o) {\n while (!eos(o)) { } }",
        "line 0: `eos` stream must be an input stream",
    ),
    (
        "kernel k(costream<int> o) { while (!eos(o)) { } }",
        "line 0: `eos` stream must be an input stream",
    ),
    (
        "kernel k(idxl_ostream<int> o) { while (!eos(o)) { } }",
        "line 0: `eos` stream must be an input stream",
    ),
];

/// Statements that make [`in_body`] malformed, likewise.
const MALFORMED_STATEMENTS: &[(&str, &str)] = &[
    ("x = 1.2.3;", "line 5: bad float literal `1.2.3`"),
    ("x = 0x;", "line 5: bad hex literal `0x`"),
    (
        "x = 99999999999999999999;",
        "line 5: bad int literal `99999999999999999999`",
    ),
    ("x = 1e;", "line 5: bad float literal `1e`"),
    (
        "x = 0xfg;",
        "line 5: expected Semi, found Some(Ident(\"g\"))",
    ),
    ("f = 1e+;", "line 5: bad float literal `1e+`"),
    (
        "x + 1;",
        "line 5: expected `>>`, `<<` or `=`, found Some(Plus)",
    ),
    ("x;", "line 6: expected `>>`, `<<` or `=`, found Some(Semi)"),
    (
        "T[x] = 3;",
        "line 5: expected `>>`, `<<` or `=`, found Some(Assign)",
    ),
    (
        "if (x) y = 3;",
        "line 5: expected `>>`, `<<` or `=`, found Some(Assign)",
    ),
    (
        "if x) a >> y;",
        "line 5: expected LParen, found Some(Ident(\"x\"))",
    ),
    (
        "if (x a >> y;",
        "line 5: expected RParen, found Some(Ident(\"a\"))",
    ),
    ("T[x >> y;", "line 5: expected RBracket, found Some(Shr)"),
    ("a >> 3;", "line 5: expected identifier, found Some(Int(3))"),
    ("a >> y", "line 6: expected Semi, found Some(Ident(\"o\"))"),
    ("o << x", "line 6: expected Semi, found Some(Ident(\"o\"))"),
    ("x = y", "line 6: expected Semi, found Some(Ident(\"o\"))"),
    ("3 = x;", "line 5: expected identifier, found Some(Int(3))"),
    ("a >> y, x;", "line 5: expected Semi, found Some(Comma)"),
    ("x = ;", "line 6: expected expression, found Some(Semi)"),
    ("x = y + ;", "line 6: expected expression, found Some(Semi)"),
    ("x = (y;", "line 5: expected RParen, found Some(Semi)"),
    (
        "x = (int y;",
        "line 5: expected RParen, found Some(Ident(\"y\"))",
    ),
    (
        "x = min(x, y;",
        "line 6: expected `,` or `)`, found Some(Semi)",
    ),
    (
        "x = min(x y);",
        "line 5: expected `,` or `)`, found Some(Ident(\"y\"))",
    ),
    ("x = y << 2;", "line 5: expected Semi, found Some(Shl)"),
    ("x = y >> 2;", "line 5: expected Semi, found Some(Shr)"),
    ("x = -;", "line 6: expected expression, found Some(Semi)"),
    ("x = 1.5 2;", "line 5: expected Semi, found Some(Int(2))"),
    (
        "x = y +\n\n  * 2;",
        "line 7: expected expression, found Some(Star)",
    ),
    (
        "x = lane(;",
        "line 6: expected expression, found Some(Semi)",
    ),
    ("z = 1;", "line 5: unknown variable `z`"),
    ("a >> z;", "line 5: unknown variable `z`"),
    ("x = z + 1;", "line 5: unknown variable `z`"),
    ("q >> x;", "line 5: unknown stream `q`"),
    ("q << x;", "line 5: unknown stream `q`"),
    (
        "x = f;",
        "line 5: assigning Float to `x: Int` (insert a cast)",
    ),
    (
        "f = x;",
        "line 5: assigning Int to `f: Float` (insert a cast)",
    ),
    ("a >> f;", "line 5: reading Int stream into `f: Float`"),
    ("fa >> x;", "line 5: reading Float stream into `x: Int`"),
    ("if (f) ci >> y;", "line 5: condition must be int"),
    ("T[f] >> y;", "line 5: stream index must be int"),
    (
        "a[x] >> y;",
        "line 5: access form does not match stream type of `a`",
    ),
    (
        "if (x) a >> y;",
        "line 5: access form does not match stream type of `a`",
    ),
    (
        "T >> y;",
        "line 5: access form does not match stream type of `T`",
    ),
    (
        "ci >> y;",
        "line 5: access form does not match stream type of `ci`",
    ),
    (
        "o >> y;",
        "line 5: access form does not match stream type of `o`",
    ),
    ("o << f;", "line 5: writing Float to Int stream `o`"),
    ("fo << x;", "line 5: writing Int to Float stream `fo`"),
    ("if (f) co << x;", "line 5: condition must be int"),
    ("W[f] << x;", "line 5: stream index must be int"),
    (
        "W << x;",
        "line 5: access form does not match stream type of `W`",
    ),
    (
        "if (x) o << x;",
        "line 5: access form does not match stream type of `o`",
    ),
    (
        "a << x;",
        "line 5: access form does not match stream type of `a`",
    ),
    (
        "co << x;",
        "line 5: access form does not match stream type of `co`",
    ),
    (
        "T[x] << y;",
        "line 5: access form does not match stream type of `T`",
    ),
    ("x = 2147483648;", "line 5: int literal out of range"),
    ("x = 0xffffffff;", "line 5: int literal out of range"),
    ("x = ~f;", "line 5: unary `~` not defined for Float"),
    ("f = !f;", "line 5: unary `!` not defined for Float"),
    (
        "x = x + f;",
        "line 5: type mismatch in `+`: Int vs Float (insert a cast)",
    ),
    ("f = f % g;", "line 5: `%` not defined for Float"),
    ("f = f & g;", "line 5: `&` not defined for Float"),
    ("x = f != g;", "line 5: `!=` not defined for Float"),
    ("x = f | g;", "line 5: `|` not defined for Float"),
    ("f = f ^ g;", "line 5: `^` not defined for Float"),
    (
        "x = select(f, x, y);",
        "line 5: select condition must be int",
    ),
    (
        "x = select(x, f, y);",
        "line 5: select arms must have the same type",
    ),
    ("x = min(x, f);", "line 5: min arguments must match"),
    ("f = max(x, f);", "line 5: max arguments must match"),
    (
        "x = lane(1);",
        "line 5: unknown intrinsic `lane` with 1 arguments",
    ),
    (
        "x = foo();",
        "line 5: unknown intrinsic `foo` with 0 arguments",
    ),
    (
        "x = min(x);",
        "line 5: unknown intrinsic `min` with 1 arguments",
    ),
    (
        "x = select(x, y);",
        "line 5: unknown intrinsic `select` with 2 arguments",
    ),
    (
        "x = iter(x, y);",
        "line 5: unknown intrinsic `iter` with 2 arguments",
    ),
    (
        "x = y +\n      (f * 2);",
        "line 5: type mismatch in `*`: Float vs Int (insert a cast)",
    ),
];

/// A kernel with one stream of every kind whose fifth line is `stmt`.
fn in_body(stmt: &str) -> String {
    format!(
        "kernel k(istream<int> a, istream<float> fa, idxl_istream<int> T, cistream<int> ci,
    costream<int> co, idxl_ostream<int> W, ostream<int> o, ostream<float> fo) {{
  int x, y; float f, g;
  while (!eos(a)) {{
    {stmt}
    o << x;
  }}
}}"
    )
}

#[test]
fn error_text_is_what_the_replaced_front_end_produced() {
    let whole = MALFORMED
        .iter()
        .map(|&(src, want)| (src.to_string(), src, want));
    let stmts = MALFORMED_STATEMENTS
        .iter()
        .map(|&(stmt, want)| (in_body(stmt), stmt, want));
    let mut wrong = Vec::new();
    for (src, shown, want) in whole.chain(stmts) {
        let got = match parse_kernel(&src) {
            Ok(_) => "Ok".to_string(),
            Err(e) => e.to_string(),
        };
        if got != want {
            wrong.push(format!("    ({shown:?}, {got:?}),"));
        }
    }
    assert!(wrong.is_empty(), "messages moved:\n{}", wrong.join("\n"));
}

/// `stmt` nested `n` deep in each way an expression can nest, by name.
fn nested(n: usize) -> [(&'static str, String); 6] {
    [
        (
            "parentheses",
            format!("x = {}y{};", "(".repeat(n), ")".repeat(n)),
        ),
        ("unary operators", format!("x = {}y;", "-".repeat(n))),
        ("casts", format!("x = {}y;", "(int)".repeat(n))),
        (
            "calls",
            format!("x = {}y{};", "min(x, ".repeat(n), ")".repeat(n)),
        ),
        ("a chain to the left", format!("x = y{};", " + y".repeat(n))),
        (
            "a chain to the right",
            format!("x = {}y{};", "y + (".repeat(n), ")".repeat(n)),
        ),
    ]
}

/// A source may be megabytes long, and the parser, the lowering walk and the
/// tree's `Drop` each recurse once per level of an expression: beyond 256
/// levels the front end answers with an error instead (a 200 000-deep
/// parenthesis used to kill the process with a stack overflow). Run on a
/// 2 MiB stack, the size of a server connection thread's.
#[test]
fn a_deeply_nested_expression_is_an_error_not_a_stack_overflow() {
    let check = || {
        for (kind, stmt) in nested(100_000) {
            let got = parse_kernel(&in_body(&stmt)).map(|k| k.ops.len());
            let want = "line 5: expression nests deeper than 256 levels";
            assert_eq!(got.map_err(|e| e.to_string()), Err(want.into()), "{kind}");
        }
        // The limit counts levels of the tree, however they came about:
        // 255 of each kind parse, and the 257th is the error.
        for (kind, stmt) in nested(255) {
            assert!(parse_kernel(&in_body(&stmt)).is_ok(), "255 {kind}");
        }
        for (kind, stmt) in nested(257) {
            assert!(parse_kernel(&in_body(&stmt)).is_err(), "257 {kind}");
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(check)
        .expect("spawn")
        .join()
        .expect("the front end overflowed a 2 MiB stack");
}
