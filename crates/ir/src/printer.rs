//! Canonical textual form of TyTra-IR (`.tirl`).
//!
//! [`print()`][fn@print] emits the format of the paper's listings (Figs 12 and 14),
//! extended with explicit Manage-IR and metadata sections so a module
//! round-trips: `parse(print(m)) == m` (covered by property tests in the
//! parser module).

use crate::function::{IrFunction, PortDir, Stmt};
use crate::module::IrModule;
use std::fmt::Write;

/// Render a module in canonical `.tirl` form.
pub fn print(m: &IrModule) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "; TyTra-IR design variant");
    let _ = writeln!(s, "!module = !\"{}\"", m.name);

    // Metadata.
    if !m.meta.ndrange.is_empty() {
        let dims: Vec<String> = m.meta.ndrange.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "!ndrange = !{{{}}}", dims.join(", "));
    }
    let _ = writeln!(s, "!nki = !{}", m.meta.nki);
    let _ = writeln!(s, "!form = !\"{}\"", m.meta.form);
    if let Some(f) = m.meta.freq_mhz {
        let _ = writeln!(s, "!freq = !{f}");
    }
    if m.meta.vect != 1 {
        let _ = writeln!(s, "!vect = !{}", m.meta.vect);
    }

    if !m.mems.is_empty() || !m.streams.is_empty() {
        let _ = writeln!(s, "\n; **** MANAGE-IR ****");
        for mem in &m.mems {
            let _ = writeln!(s, "{mem}");
        }
        for st in &m.streams {
            let _ = writeln!(s, "{st}");
        }
    }

    let _ = writeln!(s, "\n; **** COMPUTE-IR ****");
    for p in &m.ports {
        let _ = writeln!(s, "{p}");
    }
    for f in &m.functions {
        let _ = write!(s, "\n{}", print_function(f));
    }
    s
}

fn print_function(f: &IrFunction) -> String {
    let mut s = String::new();
    let _ = write!(s, "define void @{}(", f.name);
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            let _ = write!(s, ", ");
        }
        if p.dir == PortDir::Out {
            let _ = write!(s, "out ");
        }
        let _ = write!(s, "{} %{}", p.ty, p.name);
    }
    let _ = write!(s, ")");
    // `main` is a plain dispatcher and carries no parallelism keyword, as
    // in the paper's listings.
    if f.name != "main" {
        let _ = write!(s, " {}", f.kind.keyword());
    }
    let _ = writeln!(s, " {{");
    for st in &f.body {
        match st {
            Stmt::Instr(i) => {
                let _ = writeln!(s, "  {i}");
            }
            Stmt::Offset(o) => {
                let _ = writeln!(s, "  {o}");
            }
            Stmt::Call(c) => {
                let _ = writeln!(s, "  {c}");
            }
        }
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Opcode;
    use crate::module::MemForm;
    use crate::types::ScalarType;

    const T: ScalarType = ScalarType::UInt(18);

    fn sample() -> IrModule {
        let mut b = ModuleBuilder::new("sor_c2");
        b.global_input("p", T, 27000);
        b.global_output("pnew", T, 27000);
        {
            let f = b.function("f0", crate::ParKind::Pipe);
            f.input("p", T);
            f.output("pnew", T);
            let a = f.offset("p", T, 1);
            let bnd = f.offset("p", T, -150);
            let x = f.instr(Opcode::Add, T, vec![a, bnd]);
            f.reduce("sorErrAcc", Opcode::Add, T, x.clone());
            f.write_out("pnew", x);
        }
        b.main_calls("f0");
        b.ndrange(&[30, 30, 30]).nki(1000).form(MemForm::B);
        b.finish().expect("valid sample")
    }

    #[test]
    fn print_contains_all_sections() {
        let text = print(&sample());
        assert!(text.contains("!module = !\"sor_c2\""));
        assert!(text.contains("!ndrange = !{30, 30, 30}"));
        assert!(text.contains("!nki = !1000"));
        assert!(text.contains("!form = !\"B\""));
        assert!(text.contains("; **** MANAGE-IR ****"));
        assert!(text.contains("%mem_p = memobj addrSpace(1) ui18, !size, !27000"));
        assert!(text.contains("%strobj_p = streamobj %mem_p, !read, !\"CONT\""));
        assert!(text.contains("; **** COMPUTE-IR ****"));
        assert!(text
            .contains("@main.p = addrSpace(12) ui18, !\"istream\", !\"CONT\", !0, !\"strobj_p\""));
        assert!(text.contains("define void @f0(ui18 %p, out ui18 %pnew) pipe {"));
        assert!(text.contains("ui18 %p_p1 = ui18 %p, !offset, !+1"));
        assert!(text.contains("ui18 @sorErrAcc = add ui18 %t1, @sorErrAcc"));
        assert!(text.contains("define void @main() {"));
        assert!(text.contains("call @f0(%p, %pnew) pipe"));
    }

    #[test]
    fn main_has_no_kind_keyword() {
        let text = print(&sample());
        assert!(!text.contains("@main() seq"));
    }

    #[test]
    fn freq_hint_printed_when_set() {
        let mut m = sample();
        m.meta.freq_mhz = Some(220.0);
        assert!(print(&m).contains("!freq = !220"));
    }
}
