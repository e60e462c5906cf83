//! Structural cost-congruence classes, as reported by `tybec analyze`.
//!
//! Two design variants whose canonical forms are structurally identical
//! are guaranteed — not heuristically likely — to receive bit-identical
//! cost reports, so a sweep over both would only need to run the
//! estimator once per class and could replicate the result to every
//! member. "Provable" is load-bearing: the class key may only erase
//! inputs the cost model provably never reads, or reads in a provably
//! value-identical way.
//!
//! # What the key erases, and why that is sound
//!
//! **Module name.** Variants lower as `{kernel}_{variant.tag()}`, so
//! form-A and form-B siblings differ in name. The name flows only into
//! `CostReport::design` (a label); no numeric pass reads it. The
//! replicated report gets the member's own name patched back in, so
//! even the label is exact.
//!
//! **Memory-execution form A vs B, only when `NKI == 1`.** The form
//! feeds exactly two places in the estimator: the throughput
//! expressions (Eqs 1–3) and the admissible bound. For forms A and B
//! those expressions differ only in which terms are divided by `NKI`
//! (form A re-transports the NDRange every kernel iteration; form B
//! amortises the host transfer over all `NKI` iterations). With
//! `NKI == 1` every such division is by `1.0`, which is exact in
//! IEEE-754 (`x / 1.0 == x` bit-for-bit, including NaN payloads
//! produced upstream), so every intermediate — and therefore the final
//! report — is bit-identical between the two forms. The replicated
//! report's `params.form` is patched to the member's own form, making
//! the replica indistinguishable from a fresh estimate. Forms C and
//! `Tiled` change which *terms* appear, not just their scaling, so they
//! are never collapsed; neither are A/B at `NKI > 1`.
//!
//! Everything else — functions, Manage-IR, NDRange, NKI, vectorization,
//! frequency constraint — stays in the key via
//! [`tytra_ir::fingerprint_module`].

use tytra_ir::{fingerprint_module, IrModule, MemForm};

/// The canonical representative of a module's cost class: name erased,
/// form A rewritten to B when (and only when) `NKI == 1`.
pub fn canonicalize(m: &IrModule) -> IrModule {
    let mut c = m.clone();
    c.name = String::new();
    if c.meta.nki == 1 && c.meta.form == MemForm::A {
        c.meta.form = MemForm::B;
    }
    c
}

/// The cost-class key: the stable fingerprint of the canonical form.
/// Equal keys ⇒ bit-identical cost reports (module name and, at
/// `NKI == 1`, the A/B form aside — both patched during replication).
pub fn cost_class_key(m: &IrModule) -> u64 {
    fingerprint_module(&canonicalize(m))
}

/// Whether two modules are provably cost-congruent.
pub fn congruent(a: &IrModule, b: &IrModule) -> bool {
    cost_class_key(a) == cost_class_key(b)
}

/// Congruence facts for one module, as reported by `tybec analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongruenceInfo {
    /// The cost-class key.
    pub key: u64,
    /// The canonical memory-execution form.
    pub canonical_form: MemForm,
    /// Whether the A/B form axis collapses for this design
    /// (`NKI == 1`): its form-A and form-B variants cost the same.
    pub form_collapses: bool,
}

/// Compute the congruence facts of one module.
pub fn analyze_congruence(m: &IrModule) -> CongruenceInfo {
    let canon = canonicalize(m);
    CongruenceInfo {
        key: fingerprint_module(&canon),
        canonical_form: canon.meta.form,
        form_collapses: m.meta.nki == 1 && matches!(m.meta.form, MemForm::A | MemForm::B),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::{ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn build(name: &str, form: MemForm, nki: u64) -> IrModule {
        let mut b = ModuleBuilder::new(name);
        b.global_input("p", T, 4096);
        b.global_output("q", T, 4096);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let ahead = f.offset("p", T, 1);
            let behind = f.offset("p", T, -1);
            let sum = f.instr(Opcode::Add, T, vec![ahead, behind]);
            f.write_out("q", sum);
        }
        b.main_calls("f0");
        b.ndrange(&[4096]);
        b.nki(nki);
        b.form(form);
        b.finish_unchecked()
    }

    #[test]
    fn name_is_erased_from_the_key() {
        let a = build("sor_a", MemForm::B, 10);
        let b = build("sor_b", MemForm::B, 10);
        assert!(congruent(&a, &b));
        assert_ne!(
            tytra_ir::fingerprint_module(&a),
            tytra_ir::fingerprint_module(&b),
            "raw fingerprints still differ — only the class key collapses names"
        );
    }

    #[test]
    fn forms_collapse_exactly_at_nki_1() {
        let a1 = build("k_A", MemForm::A, 1);
        let b1 = build("k_B", MemForm::B, 1);
        assert!(congruent(&a1, &b1), "A ≡ B at NKI == 1");
        assert!(analyze_congruence(&a1).form_collapses);
        assert_eq!(analyze_congruence(&a1).canonical_form, MemForm::B);

        let a2 = build("k_A", MemForm::A, 2);
        let b2 = build("k_B", MemForm::B, 2);
        assert!(!congruent(&a2, &b2), "A ≢ B once NKI amortisation differs");
        assert!(!analyze_congruence(&a2).form_collapses);
    }

    #[test]
    fn form_c_never_collapses() {
        let c = build("k_C", MemForm::C, 1);
        let b = build("k_B", MemForm::B, 1);
        assert!(!congruent(&c, &b));
        assert!(!analyze_congruence(&c).form_collapses);
        assert_eq!(analyze_congruence(&c).canonical_form, MemForm::C);
    }

    #[test]
    fn structural_differences_split_classes() {
        let a = build("k", MemForm::B, 1);
        let mut b = build("k", MemForm::B, 1);
        b.meta.vect = 2;
        assert!(!congruent(&a, &b), "vectorization is cost-relevant");
        let mut c = build("k", MemForm::B, 1);
        c.mems[0].len = 8192;
        assert!(!congruent(&a, &c), "memory sizes are cost-relevant");
    }

    #[test]
    fn key_is_deterministic_and_span_transparent() {
        let a = build("k", MemForm::A, 1);
        assert_eq!(cost_class_key(&a), cost_class_key(&a));
        let mut b = build("k", MemForm::A, 1);
        for f in &mut b.functions {
            f.span = tytra_ir::SrcLoc::at(42, 1);
        }
        assert_eq!(cost_class_key(&a), cost_class_key(&b));
    }

    #[test]
    fn canonicalize_does_not_mutate_the_input() {
        let a = build("k", MemForm::A, 1);
        let before = a.clone();
        let _ = canonicalize(&a);
        assert_eq!(a, before);
        assert_eq!(a.meta.form, MemForm::A);
    }
}
