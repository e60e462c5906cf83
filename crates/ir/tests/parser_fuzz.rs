//! Robustness properties of the lexer/parser: arbitrary input never
//! panics, and near-miss mutations of valid sources fail cleanly with
//! positioned errors rather than being silently accepted as something
//! else.

use proptest::prelude::*;
use tytra_ir::parser::{lexer::lex, parse_unvalidated};

const VALID: &str = r#"
!module = !"m"
!ndrange = !{64}
!nki = !10
!form = !"B"
%mem_p = memobj addrSpace(1) ui18, !size, !64
%strobj_p = streamobj %mem_p, !read, !"CONT"
@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
%mem_q = memobj addrSpace(1) ui18, !size, !64
%strobj_q = streamobj %mem_q, !write, !"CONT"
@main.q = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"strobj_q"
define void @f0(ui18 %p, out ui18 %q) pipe {
  ui18 %pp1 = ui18 %p, !offset, !+1
  ui18 %t1 = add ui18 %pp1, %p
  ui18 %q__out = or ui18 %t1, 0
}
define void @main() {
  call @f0(%p, %q) pipe
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics(s in ".{0,400}") {
        let _ = lex(&s);
    }

    #[test]
    fn lexer_never_panics_on_tirl_alphabet(
        s in "[%@!{}(),=\\\"a-z0-9_+\\- \\n;.]{0,400}"
    ) {
        let _ = lex(&s);
    }

    #[test]
    fn parser_never_panics(s in ".{0,400}") {
        let _ = parse_unvalidated(&s);
    }

    #[test]
    fn truncations_of_valid_source_fail_cleanly(cut in 1usize..400) {
        // Any prefix of a valid module either parses (comment/blank
        // boundaries) or errors — no panics, no hangs.
        let src = &VALID[..cut.min(VALID.len())];
        let _ = parse_unvalidated(src);
    }

    #[test]
    fn single_character_deletions_never_panic(pos in 0usize..500) {
        if pos < VALID.len() && VALID.is_char_boundary(pos) && VALID.is_char_boundary(pos + 1) {
            let mut s = String::with_capacity(VALID.len());
            s.push_str(&VALID[..pos]);
            s.push_str(&VALID[pos + 1..]);
            let _ = parse_unvalidated(&s);
        }
    }

    #[test]
    fn random_token_injections_never_panic(
        pos in 0usize..500,
        junk in "[a-z!%@0-9]{1,8}",
    ) {
        if pos < VALID.len() && VALID.is_char_boundary(pos) {
            let mut s = String::with_capacity(VALID.len() + junk.len());
            s.push_str(&VALID[..pos]);
            s.push_str(&junk);
            s.push_str(&VALID[pos..]);
            let _ = parse_unvalidated(&s);
        }
    }
}

#[test]
fn the_reference_source_is_actually_valid() {
    // Guard: the fuzz corpus must start from a parsing module, or the
    // mutation properties are vacuous.
    tytra_ir::parse(VALID).expect("reference fuzz corpus parses");
}

#[test]
fn error_positions_point_into_the_source() {
    let src = "define void @f0(ui18 %p) pipe {\n  ui18 %x = add ui18 %p\n}";
    match parse_unvalidated(src) {
        Err(tytra_ir::IrError::Parse { line, col, .. }) => {
            assert!((1..=3).contains(&line), "{line}");
            assert!(col >= 1, "{col}");
        }
        other => panic!("expected a positioned parse error, got {other:?}"),
    }
}
