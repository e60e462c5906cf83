//! Tokenizer for the `.tirl` textual IR.
//!
//! The lexer walks the source's bytes. Every token starts with an ASCII
//! byte, so only string literals and comments can hold multi-byte
//! characters; name, identifier and string tokens borrow their text from
//! the source, and lexing allocates nothing but the token vector.

use crate::error::{IrError, Result};

/// A lexical token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// Token payload.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column of the first character (columns count
    /// characters, not bytes).
    pub col: u32,
}

/// Token payloads. Text payloads are slices of the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// `%name` — local value / object reference.
    Percent(&'a str),
    /// `@name` — global / function reference; may contain dots
    /// (`main.p`).
    At(&'a str),
    /// Bare identifier or keyword (`define`, `pipe`, `add`, `ui18`, ...).
    Ident(&'a str),
    /// Integer literal, including explicit `+`/`-` signs.
    Int(i64),
    /// Float literal (contains a `.` or exponent).
    Float(f64),
    /// Double-quoted string contents.
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `!`
    Bang,
}

impl TokenKind<'_> {
    /// Short description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Percent(n) => format!("%{n}"),
            TokenKind::At(n) => format!("@{n}"),
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Int(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("float {v}"),
            TokenKind::Str(s) => format!("\"{s}\""),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Bang => "`!`".into(),
        }
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// End of the run of bytes from `i` that satisfy `pred`.
fn run_end(bytes: &[u8], mut i: usize, pred: impl Fn(u8) -> bool) -> usize {
    while i < bytes.len() && pred(bytes[i]) {
        i += 1;
    }
    i
}

/// Tokenize a `.tirl` source. Comments run from `;` to end of line;
/// whitespace (including newlines) separates tokens.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>> {
    let bytes = src.as_bytes();
    // TIRL spends well over three bytes per token, so this seldom grows.
    let mut out = Vec::with_capacity(bytes.len() / 3 + 1);
    let mut line: u32 = 1;
    let mut line_start = 0;
    // UTF-8 continuation bytes between `line_start` and `i`: they add no
    // column. Only string literals hold them (a comment ends its line).
    let mut cont = 0;
    let mut i = 0;
    // `i` only ever stops on an ASCII byte or at the end, so it is always
    // a char boundary.
    while i < bytes.len() {
        let col = (i - line_start - cont + 1) as u32;
        let lex_err = |msg: String| IrError::Lex { line, col, msg };
        let kind = match bytes[i] {
            b'\n' => {
                i += 1;
                line += 1;
                line_start = i;
                cont = 0;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b';' => {
                // Comment to end of line; the newline is lexed as whitespace.
                i = bytes[i..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |n| i + n);
                continue;
            }
            b @ (b'(' | b')' | b'{' | b'}' | b',' | b'=' | b'!') => {
                i += 1;
                match b {
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    b',' => TokenKind::Comma,
                    b'=' => TokenKind::Eq,
                    _ => TokenKind::Bang,
                }
            }
            b'"' => {
                let body = &bytes[i + 1..];
                let n = match body.iter().position(|&b| b == b'"' || b == b'\n') {
                    Some(n) if body[n] == b'"' => n,
                    _ => return Err(lex_err("unterminated string literal".into())),
                };
                let s = &src[i + 1..i + 1 + n];
                cont += s.bytes().filter(|&b| b & 0xC0 == 0x80).count();
                i += n + 2;
                TokenKind::Str(s)
            }
            sigil @ (b'%' | b'@') => {
                let end = run_end(bytes, i + 1, is_name_byte);
                if end == i + 1 {
                    return Err(lex_err(format!("`{}` must be followed by a name", sigil as char)));
                }
                let name = &src[i + 1..end];
                i = end;
                if sigil == b'%' {
                    TokenKind::Percent(name)
                } else {
                    TokenKind::At(name)
                }
            }
            b'+' | b'-' | b'0'..=b'9' => {
                let start = i;
                if !bytes[i].is_ascii_digit() {
                    i += 1;
                    if !bytes.get(i).is_some_and(u8::is_ascii_digit) {
                        return Err(lex_err(format!(
                            "`{}` must begin a number",
                            bytes[start] as char
                        )));
                    }
                }
                let mut is_float = false;
                while let Some(&b) = bytes.get(i) {
                    if b.is_ascii_digit() {
                        i += 1;
                    } else if b == b'.' && !is_float {
                        // Only a digit after the dot makes it a float
                        // (names cannot start mid-number).
                        is_float = true;
                        i += 1;
                    } else if (b == b'e' || b == b'E') && is_float {
                        i += 1;
                        if matches!(bytes.get(i), Some(b'+' | b'-')) {
                            i += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                if is_float {
                    TokenKind::Float(
                        text.parse().map_err(|_| lex_err(format!("bad float literal `{text}`")))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| lex_err(format!("bad integer literal `{text}`")))?,
                    )
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let end = run_end(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'_');
                let name = &src[i..end];
                i = end;
                TokenKind::Ident(name)
            }
            _ => {
                let c = src[i..].chars().next().expect("a char starts at i");
                return Err(lex_err(format!("unexpected character `{c}`")));
            }
        };
        out.push(Token { kind, line, col });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_basic_instruction() {
        let k = kinds("ui18 %1 = mul ui18 %p, %cn2l");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("ui18"),
                TokenKind::Percent("1"),
                TokenKind::Eq,
                TokenKind::Ident("mul"),
                TokenKind::Ident("ui18"),
                TokenKind::Percent("p"),
                TokenKind::Comma,
                TokenKind::Percent("cn2l"),
            ]
        );
    }

    #[test]
    fn lex_offsets_and_signs() {
        let k = kinds("!offset, !+1 !-150");
        assert_eq!(
            k,
            vec![
                TokenKind::Bang,
                TokenKind::Ident("offset"),
                TokenKind::Comma,
                TokenKind::Bang,
                TokenKind::Int(1),
                TokenKind::Bang,
                TokenKind::Int(-150),
            ]
        );
    }

    #[test]
    fn lex_strings_and_dotted_names() {
        let k = kinds("@main.p = !\"istream\"");
        assert_eq!(
            k,
            vec![
                TokenKind::At("main.p"),
                TokenKind::Eq,
                TokenKind::Bang,
                TokenKind::Str("istream"),
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_counted() {
        let toks = lex("; a comment\n  add ; trailing\nmul").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[0].col, 3);
        assert_eq!(toks[1].line, 3);
        assert_eq!(toks[1].col, 1);
    }

    #[test]
    fn floats_with_exponents() {
        assert_eq!(kinds("!220.5"), vec![TokenKind::Bang, TokenKind::Float(220.5)]);
        assert_eq!(kinds("1.5e3"), vec![TokenKind::Float(1500.0)]);
        assert_eq!(kinds("2.0e-1"), vec![TokenKind::Float(0.2)]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(matches!(lex("!\"CONT"), Err(IrError::Lex { .. })));
    }

    #[test]
    fn bare_sigil_is_error() {
        assert!(matches!(lex("% "), Err(IrError::Lex { .. })));
        assert!(matches!(lex("@,"), Err(IrError::Lex { .. })));
    }

    #[test]
    fn stray_character_is_error() {
        let e = lex("add $ mul").unwrap_err();
        match e {
            IrError::Lex { line, col, .. } => {
                assert_eq!((line, col), (1, 5));
            }
            other => panic!("expected lex error, got {other}"),
        }
    }

    #[test]
    fn sign_without_digit_is_error() {
        assert!(matches!(lex("+ x"), Err(IrError::Lex { .. })));
    }
}
