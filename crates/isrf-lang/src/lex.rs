//! Lexer for the KernelC subset.

use std::fmt;

/// Error produced anywhere in the front-end, with a 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl LangError {
    pub(crate) fn new(line: u32, message: impl Into<String>) -> Self {
        LangError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LangError {}

/// Token kinds of the subset; an identifier borrows its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f32),
    // Punctuation / operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Shl,    // <<  (also stream write)
    Shr,    // >>  (also stream read)
    Assign, // =
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Comma,
    Semi,
}

/// A token with its source line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// Token kind and payload.
    pub tok: Tok<'a>,
    /// 1-based source line.
    pub line: u32,
}

/// Tokenize `src`. Every branch matches on bytes and consumes whole ASCII
/// characters, so `i` is always on a character boundary and a multi-byte
/// character can only be met whole: skipped inside a comment, refused
/// outside one.
pub(crate) fn lex(src: &str) -> Result<Vec<Token<'_>>, LangError> {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 3);
    let mut line: u32 = 1;
    let mut i = 0;
    while i < b.len() {
        let two = (b[i], b.get(i + 1).copied().unwrap_or(0));
        let (tok, len) = match two {
            (b'\n', _) => {
                line += 1;
                i += 1;
                continue;
            }
            (b' ' | b'\t' | b'\r', _) => {
                i += 1;
                continue;
            }
            (b'/', b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            (b'/', b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    line += u32::from(b[i] == b'\n');
                    i += 1;
                }
                i = (i + 2).min(b.len());
                continue;
            }
            (b'a'..=b'z' | b'A'..=b'Z' | b'_', _) => {
                let word = |c: &u8| c.is_ascii_alphanumeric() || *c == b'_';
                let len = b[i..].iter().take_while(|c| word(c)).count();
                (Tok::Ident(&src[i..i + len]), len)
            }
            (b'0'..=b'9', _) => {
                let text = &src[i..i + number_len(&b[i..])];
                (
                    number(text).map_err(|m| LangError::new(line, m))?,
                    text.len(),
                )
            }
            (b'<', b'<') => (Tok::Shl, 2),
            (b'>', b'>') => (Tok::Shr, 2),
            (b'<', b'=') => (Tok::Le, 2),
            (b'>', b'=') => (Tok::Ge, 2),
            (b'=', b'=') => (Tok::EqEq, 2),
            (b'!', b'=') => (Tok::Ne, 2),
            (b'(', _) => (Tok::LParen, 1),
            (b')', _) => (Tok::RParen, 1),
            (b'{', _) => (Tok::LBrace, 1),
            (b'}', _) => (Tok::RBrace, 1),
            (b'[', _) => (Tok::LBracket, 1),
            (b']', _) => (Tok::RBracket, 1),
            (b'<', _) => (Tok::Lt, 1),
            (b'>', _) => (Tok::Gt, 1),
            (b'=', _) => (Tok::Assign, 1),
            (b'+', _) => (Tok::Plus, 1),
            (b'-', _) => (Tok::Minus, 1),
            (b'*', _) => (Tok::Star, 1),
            (b'/', _) => (Tok::Slash, 1),
            (b'%', _) => (Tok::Percent, 1),
            (b'&', _) => (Tok::Amp, 1),
            (b'|', _) => (Tok::Pipe, 1),
            (b'^', _) => (Tok::Caret, 1),
            (b'~', _) => (Tok::Tilde, 1),
            (b'!', _) => (Tok::Bang, 1),
            (b',', _) => (Tok::Comma, 1),
            (b';', _) => (Tok::Semi, 1),
            _ => {
                let other = src[i..].chars().next().expect("`i` is inside `src`");
                return Err(LangError::new(
                    line,
                    format!("unexpected character `{other}`"),
                ));
            }
        };
        out.push(Token { tok, line });
        i += len;
    }
    Ok(out)
}

/// Bytes of the numeric literal `b` starts with: digits, `.`, exponents with
/// their sign, an `f` suffix, and the digits of a `0x` literal.
fn number_len(b: &[u8]) -> usize {
    let hex = b.get(1) == Some(&b'x');
    let part = |(i, &c): (usize, &u8)| {
        c.is_ascii_digit()
            || matches!(c, b'.' | b'e' | b'E' | b'f' | b'x')
            || (matches!(c, b'+' | b'-') && i > 0 && matches!(b[i - 1], b'e' | b'E'))
            || (hex && i > 1 && c.is_ascii_hexdigit())
    };
    b.iter().enumerate().take_while(|&p| part(p)).count()
}

/// The value of numeric literal `text`, or the message refusing it. A
/// literal whose second byte is `x` is never a float, whatever follows.
fn number(text: &str) -> Result<Tok<'static>, String> {
    let b = text.as_bytes();
    if b.get(1) != Some(&b'x') && b.iter().any(|c| matches!(c, b'.' | b'e' | b'E' | b'f')) {
        let bad = |_| format!("bad float literal `{text}`");
        let digits = text.trim_end_matches('f');
        digits.parse().map(Tok::Float).map_err(bad)
    } else if let Some(digits) = text.strip_prefix("0x") {
        let bad = |_| format!("bad hex literal `{text}`");
        i64::from_str_radix(digits, 16).map(Tok::Int).map_err(bad)
    } else {
        let bad = |_| format!("bad int literal `{text}`");
        text.parse().map(Tok::Int).map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_figure_10_tokens() {
        let toks = lex("in >> a; LUT[a] >> b; out << c; // comment\n").unwrap();
        assert!(toks.contains(&Token {
            tok: Tok::Shr,
            line: 1
        }));
        assert!(toks.contains(&Token {
            tok: Tok::LBracket,
            line: 1
        }));
        assert_eq!(toks.last().unwrap().tok, Tok::Semi);
    }

    #[test]
    fn lexes_literals() {
        let toks = lex("42 0x1f 1.5 2.0f 1e3").unwrap();
        let kinds: Vec<_> = toks.into_iter().map(|t| t.tok).collect();
        assert_eq!(
            kinds,
            vec![
                Tok::Int(42),
                Tok::Int(31),
                Tok::Float(1.5),
                Tok::Float(2.0),
                Tok::Float(1000.0)
            ]
        );
    }

    #[test]
    fn tracks_lines_and_comments() {
        let toks = lex("a\n/* multi\nline */ b").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a $ b").is_err());
    }
}
