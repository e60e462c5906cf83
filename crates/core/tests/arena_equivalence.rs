//! Bit-identity of copy-on-write patches: for any module the builder can
//! produce and any patch over it, the estimator's
//! `estimate_design`/`bound_design` passes must return exactly what the
//! tree entry points return for the materialized patch — not
//! approximately, but to the last mantissa bit. The tree entry points
//! build a fresh arena over the module they are given, so this pins a
//! patched design to a rebuild of its own tree: the one property the
//! four-cell patch can break.
//!
//! The strategies deliberately drive one pair of warm sessions through
//! a whole batch of sibling patches over a shared arena base, so later
//! designs replay memoized sub-results recorded under earlier ones —
//! the exact situation where a patch-dependent memo key or a
//! base-validation shortcut that reads a patched cell would surface as
//! a diverging report.

use proptest::prelude::*;
use tytra_cost::EstimatorSession;
use tytra_device::{eval_small, stratix_v_gsd8};
use tytra_ir::{
    ArenaModule, IrModule, MemForm, ModuleBuilder, Opcode, ParKind, ScalarType, TybecError,
};

/// A small stencil-shaped pipeline: `lanes` lanes over an `ngs`-point
/// range, each lane an offset/add/mul chain at `width` bits.
fn stencil_module(width: u16, lanes: u64, ngs: u64, nki: u64, form: MemForm) -> IrModule {
    let t = ScalarType::UInt(width);
    let mut b = ModuleBuilder::new(format!("arena_w{width}_l{lanes}_{form:?}"));
    for l in 0..lanes {
        b.global_input(&format!("x{l}"), t, ngs / lanes);
        b.global_output(&format!("y{l}"), t, ngs / lanes);
    }
    {
        let f = b.function("lane", ParKind::Pipe);
        f.input("x", t);
        f.output("y", t);
        let x = f.arg("x");
        let up = f.offset("x", t, 30);
        let dn = f.offset("x", t, -30);
        let s = f.instr(Opcode::Add, t, vec![up, dn]);
        let m = f.instr(Opcode::Mul, t, vec![s, f.imm(3)]);
        let out = f.instr(Opcode::Add, t, vec![m, x]);
        f.write_out("y", out);
    }
    if lanes > 1 {
        let f = b.function("wrap", ParKind::Par);
        for _ in 0..lanes {
            f.call("lane", vec![], ParKind::Pipe);
        }
        b.main_calls("wrap");
    } else {
        b.main_calls("lane");
    }
    b.ndrange(&[ngs]).nki(nki).form(form);
    b.finish().expect("valid stencil module")
}

/// One lane of [`stencil_module`]: unsuffixed arrays over the whole
/// range and a `wrap` dispatcher with one call, so a patch at `lanes`
/// lanes stands for `stencil_module(width, lanes, ..)`.
fn lane_template(width: u16, ngs: u64, nki: u64, form: MemForm) -> IrModule {
    let mut m = stencil_module(width, 2, ngs, nki, form);
    let t = ScalarType::UInt(width);
    let mut b = ModuleBuilder::new("one lane");
    b.global_input("x", t, ngs);
    b.global_output("y", t, ngs);
    let lane = b.finish_unchecked();
    (m.mems, m.streams, m.ports) = (lane.mems, lane.streams, lane.ports);
    let wrap = m.functions.iter_mut().find(|f| f.name == "wrap").expect("two lanes dispatch");
    wrap.body.truncate(1);
    m
}

fn forms() -> impl Strategy<Value = MemForm> {
    prop_oneof![
        Just(MemForm::A),
        Just(MemForm::B),
        Just(MemForm::C),
        Just(MemForm::Tiled { tiles: 4 }),
    ]
}

/// The patch sweep applied to every generated base: names, forms and
/// vectorization degrees a DSE sweep would request as siblings.
fn patches(base: &IrModule) -> Vec<(String, MemForm, u32)> {
    vec![
        (base.name.clone(), base.meta.form, base.meta.vect),
        ("p_a".to_string(), MemForm::A, 1),
        ("p_b".to_string(), MemForm::B, 1),
        ("p_b2".to_string(), MemForm::B, 2),
        ("p_t".to_string(), MemForm::Tiled { tiles: 2 }, 4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every patch materializes exactly as the equivalent mutated clone
    /// of the tree, and the identity patch as the tree itself.
    #[test]
    fn patches_materialize_as_the_tree(
        width in 8u16..40,
        lanes in prop_oneof![Just(1u64), Just(2), Just(4)],
        nki in 1u64..20,
        form in forms(),
    ) {
        let m = stencil_module(width, lanes, 1 << 12, nki, form);
        let arena = ArenaModule::build(m.clone());
        prop_assert_eq!(arena.identity().materialize(), m.clone());
        for (name, pform, vect) in patches(&m) {
            let d = arena.patched(&name, pform, vect, 1);
            let mut tree = m.clone();
            tree.name = name.clone();
            tree.meta.form = pform;
            tree.meta.vect = vect;
            prop_assert_eq!(d.materialize(), tree, "patch {}/{:?}/DV{}", name, pform, vect);
        }
        // A lane template patched to more lanes is the laned module.
        let template = ArenaModule::build(lane_template(width, 1 << 12, nki, form));
        for lanes in [2u64, 4, 16] {
            let want = stencil_module(width, lanes, 1 << 12, nki, form);
            let d = template.patched(&want.name, form, 1, lanes);
            prop_assert_eq!(d.materialize(), want, "{} lanes", lanes);
        }
    }

    /// One warm session per path, a batch of sibling patches: every
    /// estimate and every bound must match the tree path bit for bit.
    #[test]
    fn design_passes_match_tree_passes(
        width in 8u16..40,
        log_ngs in 10u32..14,
        nki in 1u64..20,
        form in forms(),
        big_dev in any::<bool>(),
    ) {
        let ngs = 1u64 << log_ngs;
        let dev = if big_dev { stratix_v_gsd8() } else { eval_small() };
        let mut via_arena = EstimatorSession::new(dev.clone());
        let mut via_tree = EstimatorSession::new(dev.clone());
        // Parsed modules at their own lane count, then one lane template
        // at several: its patches share the template's memo entries.
        let template = ArenaModule::build(lane_template(width, ngs, nki, form));
        let bases = [1u64, 2, 4, 2].map(|l| (ArenaModule::build(stencil_module(width, l, ngs, nki, form)), 1));
        for (arena, lanes) in bases.iter().map(|(a, l)| (a, *l)).chain([2u64, 4, 16, 2].map(|l| (&template, l))) {
            for (name, pform, vect) in patches(arena.template()) {
                let d = arena.patched(&name, pform, vect, lanes);
                let tree = d.materialize();
                let a = via_arena.estimate_design(&d).unwrap();
                let t = via_tree.estimate(&tree).unwrap();
                prop_assert_eq!(
                    a.throughput.ekit.to_bits(),
                    t.throughput.ekit.to_bits(),
                    "ekit diverged on {}/{:?}/DV{} ({} vs {})",
                    name, pform, vect, a.throughput.ekit, t.throughput.ekit
                );
                prop_assert_eq!(
                    format!("{a:?}"),
                    format!("{t:?}"),
                    "full report diverged on {}/{:?}/DV{}", name, pform, vect
                );
                let ab = via_arena.bound_design(&d).unwrap();
                let tb = via_tree.bound(&tree).unwrap();
                prop_assert_eq!(
                    format!("{ab:?}"),
                    format!("{tb:?}"),
                    "bound diverged on {}/{:?}/DV{}", name, pform, vect
                );
            }
        }
        // Sibling patches share schedule/resource memos through the
        // arena fingerprints, so the design path must have hit them.
        prop_assert!(via_arena.stats().hits > 0, "design path never hit its memo tables");
    }
}

/// A module the validator rejects (a duplicated input array) whose shape
/// is otherwise ordinary, so the arena still builds a configuration plan.
fn invalid_module() -> IrModule {
    let t = ScalarType::UInt(18);
    let mut b = ModuleBuilder::new("dup_input");
    b.global_input("x", t, 64);
    b.global_input("x", t, 64);
    b.global_output("y", t, 64);
    {
        let f = b.function("lane", ParKind::Pipe);
        f.input("x", t);
        f.output("y", t);
        let x = f.arg("x");
        let out = f.instr(Opcode::Add, t, vec![x, f.imm(1)]);
        f.write_out("y", out);
    }
    b.main_calls("lane");
    b.ndrange(&[64]).nki(1).form(MemForm::B);
    b.finish_unchecked()
}

#[test]
fn an_invalid_base_errors_identically_on_every_path() {
    let m = invalid_module();
    let arena = ArenaModule::build(m.clone());
    assert!(arena.config().is_ok(), "the base has a plan, so validation must reject it");
    let tree_err = EstimatorSession::new(stratix_v_gsd8()).estimate(&m).unwrap_err();
    assert_eq!(tree_err, TybecError::from(tytra_ir::validate(&m).unwrap_err()));
    // The first pass computes the arena's cached verdict; the second, in
    // fresh sessions again, must read back the very same error.
    for _ in 0..2 {
        for d in [arena.identity(), arena.patched("dup_input_v2", MemForm::A, 2, 1)] {
            let e = EstimatorSession::new(stratix_v_gsd8()).estimate_design(&d).unwrap_err();
            let b = EstimatorSession::new(stratix_v_gsd8()).bound_design(&d).unwrap_err();
            assert_eq!(e, tree_err, "estimate_design on {}", d.name);
            assert_eq!(b, tree_err, "bound_design on {}", d.name);
        }
    }
}
