//! Error-path tests for the KernelC front-end: malformed sources must
//! come back as `Err(LangError)` with a useful message and line number —
//! never a panic, never a silently-wrong kernel.

use isrf_lang::parse_kernel;

/// A well-formed kernel the error cases below are one edit away from.
const GOOD: &str = "kernel k(istream<int> a, ostream<int> o) {
  int x;
  while (!eos(a)) { a >> x; o << x; }
}";

#[test]
fn well_formed_baseline_parses() {
    let k = parse_kernel(GOOD).expect("baseline must parse");
    assert_eq!(k.name, "k");
    assert_eq!(k.streams.len(), 2);
}

fn expect_err(src: &str) -> isrf_lang::LangError {
    match parse_kernel(src) {
        Ok(_) => panic!("malformed source parsed successfully:\n{src}"),
        Err(e) => e,
    }
}

#[test]
fn unterminated_stream_declaration() {
    // Missing `>` after the element type.
    expect_err("kernel k(istream<int a) { while (!eos(a)) { } }");
    // Missing element type entirely.
    expect_err("kernel k(istream<> a) { while (!eos(a)) { } }");
    // Declaration list never closed.
    expect_err("kernel k(istream<int> a { while (!eos(a)) { } }");
    // Source ends inside the parameter list.
    expect_err("kernel k(istream<int> a,");
}

#[test]
fn unknown_stream_kind_is_rejected() {
    let e = expect_err("kernel k(wstream<int> a) { while (!eos(a)) { } }");
    assert!(
        e.message.contains("wstream"),
        "error should name the bad stream type: {e}"
    );
    expect_err("kernel k(stream<int> a) { while (!eos(a)) { } }");
}

#[test]
fn unknown_element_type_is_rejected() {
    let e = expect_err("kernel k(istream<bool> a) { while (!eos(a)) { } }");
    assert!(
        e.message.contains("bool"),
        "error should name the bad element type: {e}"
    );
}

#[test]
fn missing_eos_guard_is_rejected() {
    // A C-style condition is outside the subset: the loop must be
    // `while (!eos(s))`.
    let e = expect_err(
        "kernel k(istream<int> a, ostream<int> o) {
           int x;
           while (x < 10) { a >> x; o << x; }
         }",
    );
    assert!(
        e.message.contains("eos") || e.message.contains('!') || e.message.contains("Bang"),
        "error should point at the missing eos guard: {e}"
    );
    expect_err(
        "kernel k(istream<int> a, ostream<int> o) {
           int x;
           while (!done(a)) { a >> x; o << x; }
         }",
    );
    expect_err(
        "kernel k(istream<int> a, ostream<int> o) {
           int x;
           while (eos(a)) { a >> x; o << x; }
         }",
    );
}

#[test]
fn truncated_bodies_error_not_panic() {
    // Chop the baseline kernel at every byte boundary: each prefix must
    // produce Ok or Err, never a panic (char_indices keeps the cuts on
    // UTF-8 boundaries; the source is ASCII anyway).
    for (cut, _) in GOOD.char_indices() {
        let _ = parse_kernel(&GOOD[..cut]);
    }
}

#[test]
fn stray_tokens_and_bad_literals_error() {
    expect_err("kernel k(istream<int> a) { while (!eos(a)) { a >> @; } }");
    expect_err(
        "kernel k(istream<int> a, ostream<int> o) {
           int x;
           while (!eos(a)) { a >> x; o << 0x; }
         }",
    );
    expect_err("kernel 42(istream<int> a) { while (!eos(a)) { } }");
}

#[test]
fn reads_and_writes_through_wrong_direction_error() {
    // Writing to an input stream / reading from an output stream must be
    // rejected during lowering.
    expect_err(
        "kernel k(istream<int> a, ostream<int> o) {
           int x;
           while (!eos(a)) { o >> x; a << x; }
         }",
    );
}

#[test]
fn errors_carry_line_numbers() {
    let e = expect_err(
        "kernel k(istream<int> a, ostream<int> o) {
           int x;
           while (!eos(a)) { a >> x; o << ; }
         }",
    );
    assert_eq!(e.line, 3, "error should land on the offending line: {e}");
}

#[test]
fn multi_byte_characters_are_named_whole_outside_comments_and_skipped_inside() {
    // The lexer indexes bytes; a character of two, three or four bytes must
    // neither split (a panic: "byte index is not a char boundary") nor be
    // reported as its first byte read as Latin-1.
    for c in ['é', '€', '𝄞'] {
        let body = |at: &str| format!("kernel k(istream<int> a) {{ while (!eos(a)) {{ {at} }} }}");
        for src in [
            body(&format!("a >> x; {c}")),
            body(&format!("a >> x{c};")),
            format!("{c}"),
            format!("{}\n\n{c}", body("")),
            format!("{} {c}", body("")),
            format!("{}{c}", body("")),
        ] {
            let e = expect_err(&src);
            assert_eq!(e.message, format!("unexpected character `{c}`"), "{src}");
            let line = 1 + src[..src.find(c).unwrap()].matches('\n').count();
            assert_eq!(e.line as usize, line, "{src}");
        }
        // Inside either kind of comment, anywhere, including at the very end.
        for src in [
            format!("// {c}{c}\n{GOOD}"),
            format!("/* {c} */ {GOOD} /* {c}*/"),
            format!("{GOOD} // {c}"),
            format!("{GOOD} /* unterminated {c}"),
            GOOD.replace("int x;", &format!("int x; /*{c}*/ //{c}")),
        ] {
            let k = parse_kernel(&src).unwrap_or_else(|e| panic!("{e}:\n{src}"));
            assert_eq!(k.ops.len(), 2);
        }
    }
}
