//! Pins every parse error byte for byte: the `IrError` `Display` text,
//! which carries the line and column, for a table of malformed sources.
//!
//! It covers every lexical error site, one `expected …, found …` per
//! token kind the parser can report, running out of input, and columns
//! counted after multi-byte characters in a comment and in a string
//! literal (columns count characters, not bytes).

use tytra_ir::parse_unvalidated;

/// `(case, source, the error's Display)`.
const CASES: &[(&str, &str, &str)] = &[
    // ---- lexical errors ----
    (
        "unterminated string at end of input",
        "!module = !\"abc",
        "lexical error at 1:12: unterminated string literal",
    ),
    (
        "string cut by a newline",
        "!module = !\"ab\ncd\"",
        "lexical error at 1:12: unterminated string literal",
    ),
    ("bare percent", "%  = memobj", "lexical error at 1:1: `%` must be followed by a name"),
    ("bare at", "\n  @, x", "lexical error at 2:3: `@` must be followed by a name"),
    ("at before a non-ASCII letter", "@é", "lexical error at 1:1: `@` must be followed by a name"),
    ("plus without a digit", "!nki = !+x", "lexical error at 1:9: `+` must begin a number"),
    ("minus at end of input", "!nki = !-", "lexical error at 1:9: `-` must begin a number"),
    (
        "integer overflow",
        "!nki = !99999999999999999999",
        "lexical error at 1:9: bad integer literal `99999999999999999999`",
    ),
    (
        "negative integer overflow",
        "!nki = !-9223372036854775809",
        "lexical error at 1:9: bad integer literal `-9223372036854775809`",
    ),
    ("exponent without digits", "!freq = !1.5e", "lexical error at 1:10: bad float literal `1.5e`"),
    (
        "signed exponent without digits",
        "!freq = !1.5e+",
        "lexical error at 1:10: bad float literal `1.5e+`",
    ),
    ("stray dollar", "add $ mul", "lexical error at 1:5: unexpected character `$`"),
    ("stray e-acute", "\tadd é", "lexical error at 1:6: unexpected character `é`"),
    ("stray crab", "🦀", "lexical error at 1:1: unexpected character `🦀`"),
    ("ident then a non-ASCII letter", "abcé", "lexical error at 1:4: unexpected character `é`"),
    (
        "a second dot in a number",
        "!freq = !1.5.3",
        "lexical error at 1:13: unexpected character `.`",
    ),
    ("a leading dot", "!freq = !.5", "lexical error at 1:10: unexpected character `.`"),
    // ---- one `expected …, found …` per token kind ----
    ("found a percent name", "!module %x", "parse error at 1:9: expected `=`, found %x"),
    ("found an at name", "!module @main.p", "parse error at 1:9: expected `=`, found @main.p"),
    ("found an identifier", "!module name", "parse error at 1:9: expected `=`, found `name`"),
    ("found an integer", "!module -12", "parse error at 1:9: expected `=`, found integer -12"),
    ("found a float", "!module 2.50", "parse error at 1:9: expected `=`, found float 2.5"),
    ("found a string", "!module \"é€🦀\"", "parse error at 1:9: expected `=`, found \"é€🦀\""),
    ("found a left paren", "!module (", "parse error at 1:9: expected `=`, found `(`"),
    ("found a right paren", "!module )", "parse error at 1:9: expected `=`, found `)`"),
    ("found a left brace", "!module {", "parse error at 1:9: expected `=`, found `{`"),
    ("found a right brace", "!module }", "parse error at 1:9: expected `=`, found `}`"),
    ("found a comma", "!module ,", "parse error at 1:9: expected `=`, found `,`"),
    ("found an equals sign", "!=", "parse error at 1:2: expected identifier, found `=`"),
    ("found a bang", "!module !", "parse error at 1:9: expected `=`, found `!`"),
    (
        "found a bang for a string",
        "!module = !!",
        "parse error at 1:12: expected string, found `!`",
    ),
    (
        "found an integer for a name",
        "%m = 7",
        "parse error at 1:6: expected identifier, found integer 7",
    ),
    ("not a declaration", "(", "parse error at 1:1: expected a declaration, found `(`"),
    (
        "not a statement",
        "define void @f() pipe { 3 }",
        "parse error at 1:25: expected a statement, found integer 3",
    ),
    (
        "not an operand",
        "define void @f() pipe { ui8 %x = add ui8 (, %y }",
        "parse error at 1:42: expected an operand, found `(`",
    ),
    // ---- running out of input ----
    ("end after a directive's `=`", "!module =", "parse error at 1:9: unexpected end of input"),
    ("end after a bang", "!module = !", "parse error at 1:11: unexpected end of input"),
    (
        "end inside a function body",
        "define void @f() pipe {\n  ui8 %x = add ui8 %a, %b",
        "parse error at 2:24: unexpected end of input inside function body",
    ),
    ("end of a comment-only tail", "!module ; é€🦀", "parse error at 1:2: unexpected end of input"),
    // ---- columns after multi-byte characters ----
    ("after a comment", "; é€🦀 ;\n  $", "lexical error at 2:3: unexpected character `$`"),
    (
        "after a comment, then a parse error",
        ";é€🦀\n!module = !\"m\" !x = !1",
        "parse error at 2:21: unknown directive `!x`",
    ),
    ("after a string", "!module = !\"é€🦀\" $", "lexical error at 1:18: unexpected character `$`"),
    (
        "a stray character after a string",
        "!module = !\"é\" é",
        "lexical error at 1:16: unexpected character `é`",
    ),
    (
        "a parse error after a string",
        "!module = !\"é€🦀\" ,",
        "parse error at 1:18: expected a declaration, found `,`",
    ),
    (
        "a parse error after a tab and a string",
        "\t!module = !\"€\"\t!nki = !\"x\"",
        "parse error at 1:25: expected integer, found \"x\"",
    ),
];

#[test]
fn every_parse_error_keeps_its_message_line_and_column() {
    let mut wrong = Vec::new();
    for (case, src, want) in CASES {
        match parse_unvalidated(src) {
            Err(e) if e.to_string() == *want => {}
            Err(e) => wrong.push(format!("{case}: {src:?}\n   got  {e}\n   want {want}")),
            Ok(_) => wrong.push(format!("{case}: {src:?} parsed\n   want {want}")),
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} cases differ:\n{}",
        wrong.len(),
        CASES.len(),
        wrong.join("\n")
    );
}
