//! Recursive-descent parser for `.tirl` sources.
//!
//! The grammar mirrors [`crate::printer::print`]'s canonical output and
//! the paper's listings. See the crate documentation for an overview.

pub mod lexer;

use crate::diag::SrcLoc;
use crate::error::{IrError, Result};
use crate::function::{Call, IrFunction, OffsetDecl, ParKind, Param, PortDir, Stmt};
use crate::instr::{Dest, Instruction, Opcode, Operand};
use crate::module::{IrModule, MemForm};
use crate::stream::{AccessPattern, AddrSpace, MemObject, PortDecl, StreamDir, StreamObject};
use crate::types::ScalarType;
use crate::validate;
use lexer::{lex, Token, TokenKind};

/// Parse and validate a `.tirl` source into an [`IrModule`].
pub fn parse(src: &str) -> Result<IrModule> {
    let m = parse_unvalidated(src)?;
    validate::validate(&m)?;
    Ok(m)
}

/// Parse without running semantic validation (used by tests that need
/// deliberately invalid modules).
pub fn parse_unvalidated(src: &str) -> Result<IrModule> {
    let _sp = tytra_trace::span("ir.parse").with("bytes", src.len());
    let tokens = lex(src)?;
    Parser { tokens, pos: 0 }.module()
}

/// Tokens borrow their text from the source; the parser copies them and
/// allocates only the strings the module keeps.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<TokenKind<'a>> {
        self.tokens.get(self.pos).map(|t| t.kind)
    }

    fn here(&self) -> (u32, u32) {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| (t.line, t.col))
            .unwrap_or((1, 1))
    }

    fn err(&self, msg: impl Into<String>) -> IrError {
        let (line, col) = self.here();
        IrError::Parse { line, col, msg: msg.into() }
    }

    /// Source location of the *next* token, recorded onto the entity a
    /// declaration parse is about to produce.
    fn loc_here(&self) -> SrcLoc {
        let (line, col) = self.here();
        SrcLoc::at(line, col)
    }

    fn next(&mut self) -> Result<TokenKind<'a>> {
        let t = self.peek().ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: TokenKind<'_>) -> Result<()> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected {}, found {}", want.describe(), got.describe())))
        }
    }

    fn eat(&mut self, want: TokenKind<'_>) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        match self.next()? {
            TokenKind::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected identifier, found {}", other.describe())))
            }
        }
    }

    fn percent(&mut self) -> Result<&'a str> {
        match self.next()? {
            TokenKind::Percent(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected %name, found {}", other.describe())))
            }
        }
    }

    fn at_name(&mut self) -> Result<&'a str> {
        match self.next()? {
            TokenKind::At(n) => Ok(n),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected @name, found {}", other.describe())))
            }
        }
    }

    fn int(&mut self) -> Result<i64> {
        match self.next()? {
            TokenKind::Int(v) => Ok(v),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected integer, found {}", other.describe())))
            }
        }
    }

    fn bang_int(&mut self) -> Result<i64> {
        self.expect(TokenKind::Bang)?;
        self.int()
    }

    fn bang_str(&mut self) -> Result<&'a str> {
        self.expect(TokenKind::Bang)?;
        match self.next()? {
            TokenKind::Str(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected string, found {}", other.describe())))
            }
        }
    }

    fn scalar_type(&mut self) -> Result<ScalarType> {
        let tok = self.ident()?;
        ScalarType::parse_token(tok).ok_or_else(|| {
            self.pos -= 1;
            self.err(format!("`{tok}` is not a scalar type (ui<W>/si<W>/f32/f64)"))
        })
    }

    fn addr_space(&mut self) -> Result<AddrSpace> {
        let kw = self.ident()?;
        if kw != "addrSpace" {
            self.pos -= 1;
            return Err(self.err(format!("expected `addrSpace`, found `{kw}`")));
        }
        self.expect(TokenKind::LParen)?;
        let n = self.int()?;
        self.expect(TokenKind::RParen)?;
        if !(0..=255).contains(&n) {
            return Err(self.err(format!("address space {n} out of range")));
        }
        Ok(AddrSpace::from_number(n as u8))
    }

    fn module(mut self) -> Result<IrModule> {
        let mut m = IrModule::new("anonymous");
        while let Some(tok) = self.peek() {
            match tok {
                TokenKind::Bang => self.directive(&mut m)?,
                TokenKind::Percent(_) => self.manage_decl(&mut m)?,
                TokenKind::At(_) => self.port_decl(&mut m)?,
                TokenKind::Ident("define") => {
                    let f = self.function()?;
                    m.functions.push(f);
                }
                other => {
                    return Err(
                        self.err(format!("expected a declaration, found {}", other.describe()))
                    )
                }
            }
        }
        Ok(m)
    }

    /// `!module = !"name"`, `!ndrange = !{a, b}`, `!nki = !N`,
    /// `!form = !"B"`, `!freq = !F`.
    fn directive(&mut self, m: &mut IrModule) -> Result<()> {
        self.expect(TokenKind::Bang)?;
        let key = self.ident()?;
        self.expect(TokenKind::Eq)?;
        match key {
            "module" => m.name = self.bang_str()?.to_string(),
            "ndrange" => {
                self.expect(TokenKind::Bang)?;
                self.expect(TokenKind::LBrace)?;
                let mut dims = Vec::new();
                loop {
                    let v = self.int()?;
                    if v < 0 {
                        return Err(self.err("NDRange dimensions must be non-negative"));
                    }
                    dims.push(v as u64);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBrace)?;
                m.meta.ndrange = dims;
            }
            "nki" => {
                let v = self.bang_int()?;
                if v < 0 {
                    return Err(self.err("NKI must be non-negative"));
                }
                m.meta.nki = v as u64;
            }
            "form" => {
                let tag = self.bang_str()?;
                m.meta.form = MemForm::from_tag(tag)
                    .ok_or_else(|| self.err(format!("unknown memory-execution form `{tag}`")))?;
            }
            "vect" => {
                let v = self.bang_int()?;
                if !(1..=4096).contains(&v) {
                    return Err(self.err("vectorization degree must be in 1..=4096"));
                }
                m.meta.vect = v as u32;
            }
            "freq" => {
                self.expect(TokenKind::Bang)?;
                let v = match self.next()? {
                    TokenKind::Float(f) => f,
                    TokenKind::Int(i) => i as f64,
                    other => {
                        self.pos -= 1;
                        return Err(
                            self.err(format!("expected number, found {}", other.describe()))
                        );
                    }
                };
                m.meta.freq_mhz = Some(v);
            }
            other => return Err(self.err(format!("unknown directive `!{other}`"))),
        }
        Ok(())
    }

    /// `%m = memobj addrSpace(1) ui18, !size, !N`
    /// `%s = streamobj %m, !read, !"CONT"[, !stride]`
    fn manage_decl(&mut self, m: &mut IrModule) -> Result<()> {
        let loc = self.loc_here();
        let name = self.percent()?.to_string();
        self.expect(TokenKind::Eq)?;
        match self.ident()? {
            "memobj" => {
                let space = self.addr_space()?;
                let ty = self.scalar_type()?;
                self.expect(TokenKind::Comma)?;
                self.expect(TokenKind::Bang)?;
                let szkw = self.ident()?;
                if szkw != "size" {
                    return Err(self.err(format!("expected `size`, found `{szkw}`")));
                }
                self.expect(TokenKind::Comma)?;
                let len = self.bang_int()?;
                if len < 0 {
                    return Err(self.err("memobj size must be non-negative"));
                }
                m.mems.push(MemObject { name, space, elem_ty: ty, len: len as u64, span: loc });
            }
            "streamobj" => {
                let mem = self.percent()?.to_string();
                self.expect(TokenKind::Comma)?;
                self.expect(TokenKind::Bang)?;
                let dir = match self.ident()? {
                    "read" => StreamDir::Read,
                    "write" => StreamDir::Write,
                    other => {
                        return Err(self.err(format!("expected `read` or `write`, found `{other}`")))
                    }
                };
                self.expect(TokenKind::Comma)?;
                let pattern = self.pattern()?;
                m.streams.push(StreamObject { name, mem, dir, pattern, span: loc });
            }
            other => {
                return Err(self.err(format!("expected `memobj` or `streamobj`, found `{other}`")))
            }
        }
        Ok(())
    }

    /// `!"CONT"` or `!"STRIDED", !<stride>`.
    fn pattern(&mut self) -> Result<AccessPattern> {
        match self.bang_str()? {
            "CONT" => Ok(AccessPattern::Contiguous),
            "STRIDED" => {
                self.expect(TokenKind::Comma)?;
                let stride = self.bang_int()?;
                if stride <= 0 {
                    return Err(self.err("stride must be positive"));
                }
                Ok(AccessPattern::Strided { stride: stride as u64 })
            }
            other => Err(self.err(format!("unknown access pattern `{other}`"))),
        }
    }

    /// `@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"`
    ///
    /// For strided ports the stride is recovered from the named stream
    /// object (which must have been declared earlier).
    fn port_decl(&mut self, m: &mut IrModule) -> Result<()> {
        let loc = self.loc_here();
        let name = self.at_name()?;
        self.expect(TokenKind::Eq)?;
        let space = self.addr_space()?;
        let ty = self.scalar_type()?;
        self.expect(TokenKind::Comma)?;
        let dir = match self.bang_str()? {
            "istream" => StreamDir::Read,
            "ostream" => StreamDir::Write,
            other => return Err(self.err(format!("expected `istream`/`ostream`, found `{other}`"))),
        };
        self.expect(TokenKind::Comma)?;
        let pattern_tag = self.bang_str()?;
        self.expect(TokenKind::Comma)?;
        let base_offset = self.bang_int()?;
        self.expect(TokenKind::Comma)?;
        let stream = self.bang_str()?;
        let pattern = match pattern_tag {
            "CONT" => AccessPattern::Contiguous,
            "STRIDED" => m
                .stream(stream)
                .map(|s| s.pattern)
                .filter(|p| matches!(p, AccessPattern::Strided { .. }))
                .ok_or_else(|| {
                    self.err(format!(
                        "strided port `{name}` needs an earlier strided streamobj `{stream}`"
                    ))
                })?,
            other => return Err(self.err(format!("unknown access pattern `{other}`"))),
        };
        m.ports.push(PortDecl {
            name: name.to_string(),
            space,
            ty,
            dir,
            pattern,
            base_offset,
            stream: stream.to_string(),
            span: loc,
        });
        Ok(())
    }

    /// `define void @name(params) [kind] { stmts }`
    fn function(&mut self) -> Result<IrFunction> {
        let loc = self.loc_here();
        let kw = self.ident()?;
        debug_assert_eq!(kw, "define");
        let ret = self.ident()?;
        if ret != "void" {
            return Err(self.err(format!("functions return `void`, found `{ret}`")));
        }
        let name = self.at_name()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(TokenKind::RParen) {
            loop {
                let dir =
                    if self.eat(TokenKind::Ident("out")) { PortDir::Out } else { PortDir::In };
                let ty = self.scalar_type()?;
                let pname = self.percent()?.to_string();
                params.push(Param { name: pname, ty, dir });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let kind = match self.peek() {
            Some(TokenKind::Ident(kw)) if ParKind::from_keyword(kw).is_some() => {
                self.pos += 1;
                ParKind::from_keyword(kw).expect("checked above")
            }
            _ if name == "main" => ParKind::Seq,
            _ => {
                return Err(self.err(format!(
                    "function `@{name}` needs a parallelism keyword (pipe/par/seq/comb)"
                )))
            }
        };
        self.expect(TokenKind::LBrace)?;
        let mut body = Vec::new();
        while self.peek() != Some(TokenKind::RBrace) {
            body.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(IrFunction { name: name.to_string(), kind, params, body, span: loc })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek() {
            Some(TokenKind::Ident("call")) => self.call_stmt(),
            Some(TokenKind::Ident(_)) => self.assign_stmt(),
            Some(other) => {
                Err(self.err(format!("expected a statement, found {}", other.describe())))
            }
            None => Err(self.err("unexpected end of input inside function body")),
        }
    }

    /// `call @f(args) kind`
    fn call_stmt(&mut self) -> Result<Stmt> {
        let loc = self.loc_here();
        let kw = self.ident()?;
        debug_assert_eq!(kw, "call");
        let callee = self.at_name()?.to_string();
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(TokenKind::RParen) {
            loop {
                args.push(self.operand()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let kindkw = self.ident()?;
        let kind = ParKind::from_keyword(kindkw)
            .ok_or_else(|| self.err(format!("`{kindkw}` is not a parallelism keyword")))?;
        Ok(Stmt::Call(Call { callee, args, kind, span: loc }))
    }

    /// Either an offset declaration or an instruction:
    ///
    /// ```text
    /// ui18 %d = ui18 %src, !offset, !+1
    /// ui18 %d = add ui18 %a, %b
    /// ui18 @acc = add ui18 %x, @acc
    /// ```
    fn assign_stmt(&mut self) -> Result<Stmt> {
        let loc = self.loc_here();
        let ty = self.scalar_type()?;
        let (dest, global) = match self.next()? {
            TokenKind::Percent(n) => (n, false),
            TokenKind::At(n) => (n, true),
            other => {
                self.pos -= 1;
                return Err(self.err(format!(
                    "expected destination %name or @name, found {}",
                    other.describe()
                )));
            }
        };
        self.expect(TokenKind::Eq)?;
        // Offset declarations repeat the type right after `=`; instructions
        // start with a mnemonic.
        if matches!(self.peek(), Some(TokenKind::Ident(s)) if ScalarType::parse_token(s).is_some())
        {
            let ty2 = self.scalar_type()?;
            if ty2 != ty {
                return Err(self.err(format!("offset type mismatch: {ty} vs {ty2}")));
            }
            let src = self.percent()?;
            self.expect(TokenKind::Comma)?;
            self.expect(TokenKind::Bang)?;
            let kw = self.ident()?;
            if kw != "offset" {
                return Err(self.err(format!("expected `offset`, found `{kw}`")));
            }
            self.expect(TokenKind::Comma)?;
            let off = self.bang_int()?;
            if global {
                return Err(self.err("offset streams cannot target globals"));
            }
            return Ok(Stmt::Offset(OffsetDecl {
                dest: dest.to_string(),
                ty,
                src: src.to_string(),
                offset: off,
                span: loc,
            }));
        }
        let mnemonic = self.ident()?;
        let op = Opcode::from_mnemonic(mnemonic)
            .ok_or_else(|| self.err(format!("unknown opcode `{mnemonic}`")))?;
        let ty2 = self.scalar_type()?;
        if ty2 != ty {
            return Err(self.err(format!("instruction type mismatch: {ty} vs {ty2}")));
        }
        let mut operands = Vec::with_capacity(op.arity());
        loop {
            operands.push(self.operand()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        if operands.len() != op.arity() {
            return Err(self.err(format!(
                "`{mnemonic}` expects {} operands, got {}",
                op.arity(),
                operands.len()
            )));
        }
        let dest =
            if global { Dest::Global(dest.to_string()) } else { Dest::Local(dest.to_string()) };
        Ok(Stmt::Instr(Instruction { dest, op, ty, operands, span: loc }))
    }

    fn operand(&mut self) -> Result<Operand> {
        match self.next()? {
            TokenKind::Percent(n) => Ok(Operand::Local(n.to_string())),
            TokenKind::At(n) => Ok(Operand::Global(n.to_string())),
            TokenKind::Int(v) => Ok(Operand::Imm(v)),
            TokenKind::Float(v) => Ok(Operand::ImmF(v)),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected an operand, found {}", other.describe())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print;

    /// A faithful transcription of the paper's Fig 12 (abbreviated SOR,
    /// single pipeline lane), completed with Manage-IR and metadata.
    pub const SOR_C2_TIRL: &str = r#"
; **** abbreviated SOR kernel, single pipeline lane (paper Fig 12) ****
!module = !"sor_c2"
!ndrange = !{30, 30, 30}
!nki = !1000
!form = !"B"

; **** MANAGE-IR ****
%mem_p = memobj addrSpace(1) ui18, !size, !27000
%mem_pnew = memobj addrSpace(1) ui18, !size, !27000
%strobj_p = streamobj %mem_p, !read, !"CONT"
%strobj_pnew = streamobj %mem_pnew, !write, !"CONT"

; **** COMPUTE-IR ****
@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
@main.pnew = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"strobj_pnew"

define void @f0(ui18 %p, out ui18 %pnew) pipe {
  ;stream offsets
  ui18 %pip1 = ui18 %p, !offset, !+1
  ui18 %pin1 = ui18 %p, !offset, !-1
  ui18 %pkp1 = ui18 %p, !offset, !+900
  ui18 %pkn1 = ui18 %p, !offset, !-900
  ;datapath instructions
  ui18 %1 = add ui18 %pip1, %pin1
  ui18 %2 = add ui18 %pkp1, %pkn1
  ui18 %3 = add ui18 %1, %2
  ui18 %4 = mul ui18 %3, 2
  ;reduction operation on global variable
  ui18 @sorErrAcc = add ui18 %4, @sorErrAcc
  ui18 %pnew__out = or ui18 %4, 0
}

define void @main() {
  call @f0(%p, %pnew) pipe
}
"#;

    #[test]
    fn parses_fig12_style_source() {
        let m = parse(SOR_C2_TIRL).expect("valid");
        assert_eq!(m.name, "sor_c2");
        assert_eq!(m.meta.ndrange, vec![30, 30, 30]);
        assert_eq!(m.meta.nki, 1000);
        assert_eq!(m.meta.form, MemForm::B);
        assert_eq!(m.mems.len(), 2);
        assert_eq!(m.streams.len(), 2);
        assert_eq!(m.ports.len(), 2);
        let f0 = m.function("f0").unwrap();
        assert_eq!(f0.kind, ParKind::Pipe);
        assert_eq!(f0.offsets().count(), 4);
        assert_eq!(f0.n_instructions(), 6);
        assert_eq!(f0.max_abs_offset(), 900);
        assert!(f0.instrs().any(Instruction::is_reduction));
        let main = m.main().unwrap();
        assert_eq!(main.kind, ParKind::Seq);
        assert_eq!(main.calls().count(), 1);
    }

    #[test]
    fn round_trip_print_parse() {
        let m = parse(SOR_C2_TIRL).unwrap();
        let text = print(&m);
        let m2 = parse(&text).expect("canonical text parses");
        assert_eq!(m, m2);
    }

    #[test]
    fn strided_stream_round_trips() {
        let src = r#"
!module = !"s"
!ndrange = !{16}
!nki = !1
!form = !"A"
%mem_x = memobj addrSpace(1) ui32, !size, !256
%strobj_x = streamobj %mem_x, !read, !"STRIDED", !16
@main.x = addrSpace(12) ui32, !"istream", !"STRIDED", !0, !"strobj_x"
%mem_y = memobj addrSpace(1) ui32, !size, !256
%strobj_y = streamobj %mem_y, !write, !"CONT"
@main.y = addrSpace(12) ui32, !"ostream", !"CONT", !0, !"strobj_y"
define void @f0(ui32 %x, out ui32 %y) pipe {
  ui32 %y__out = or ui32 %x, 0
}
define void @main() {
  call @f0(%x, %y) pipe
}
"#;
        let m = parse(src).unwrap();
        assert_eq!(m.streams[0].pattern, AccessPattern::Strided { stride: 16 });
        assert_eq!(m.ports[0].pattern, AccessPattern::Strided { stride: 16 });
        let m2 = parse(&print(&m)).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn missing_kind_keyword_is_error() {
        let src = "define void @f0(ui18 %p) {\n}";
        let e = parse_unvalidated(src).unwrap_err();
        assert!(e.to_string().contains("parallelism keyword"), "{e}");
    }

    #[test]
    fn unknown_opcode_is_error() {
        let src = "define void @f0(ui18 %p) pipe {\n ui18 %x = fma ui18 %p, %p\n}";
        let e = parse_unvalidated(src).unwrap_err();
        assert!(e.to_string().contains("unknown opcode"), "{e}");
    }

    #[test]
    fn arity_mismatch_is_error() {
        let src = "define void @f0(ui18 %p) pipe {\n ui18 %x = add ui18 %p\n}";
        let e = parse_unvalidated(src).unwrap_err();
        assert!(e.to_string().contains("expects 2 operands"), "{e}");
    }

    #[test]
    fn type_mismatch_in_instruction_is_error() {
        let src = "define void @f0(ui18 %p) pipe {\n ui18 %x = add ui32 %p, %p\n}";
        let e = parse_unvalidated(src).unwrap_err();
        assert!(e.to_string().contains("type mismatch"), "{e}");
    }

    #[test]
    fn parse_reports_line_numbers() {
        let src = "!module = !\"m\"\n!nonsense = !1\n";
        match parse_unvalidated(src).unwrap_err() {
            IrError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn parse_validates_semantics() {
        // Syntactically fine, semantically missing main.
        let src = "define void @f0(ui18 %p) pipe {\n ui18 %x = add ui18 %p, 1\n}";
        assert!(matches!(parse(src), Err(IrError::Validate(_))));
        assert!(parse_unvalidated(src).is_ok());
    }

    #[test]
    fn negative_memobj_size_rejected() {
        let src = "%m = memobj addrSpace(1) ui18, !size, !-4";
        assert!(parse_unvalidated(src).is_err());
    }

    #[test]
    fn strided_port_without_stream_rejected() {
        let src = r#"@main.x = addrSpace(12) ui32, !"istream", !"STRIDED", !0, !"nope""#;
        let e = parse_unvalidated(src).unwrap_err();
        assert!(e.to_string().contains("strided port"), "{e}");
    }

    #[test]
    fn float_kernel_parses() {
        let src = r#"
!module = !"fk"
!ndrange = !{8}
!nki = !1
!form = !"C"
%mem_a = memobj addrSpace(2) f32, !size, !8
%strobj_a = streamobj %mem_a, !read, !"CONT"
@main.a = addrSpace(12) f32, !"istream", !"CONT", !0, !"strobj_a"
%mem_b = memobj addrSpace(2) f32, !size, !8
%strobj_b = streamobj %mem_b, !write, !"CONT"
@main.b = addrSpace(12) f32, !"ostream", !"CONT", !0, !"strobj_b"
define void @f0(f32 %a, out f32 %b) pipe {
  f32 %t = mul f32 %a, 0.5
  f32 %b__out = or f32 %t, 0
}
define void @main() {
  call @f0(%a, %b) pipe
}
"#;
        let m = parse(src).unwrap();
        assert_eq!(m.meta.form, MemForm::C);
        let f0 = m.function("f0").unwrap();
        let first = f0.instrs().next().unwrap();
        assert_eq!(first.operands[1], Operand::ImmF(0.5));
        let m2 = parse(&print(&m)).unwrap();
        assert_eq!(m, m2);
    }
}
