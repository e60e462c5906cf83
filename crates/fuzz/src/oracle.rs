//! The differential oracles.
//!
//! Each oracle takes an input (a TIRL source, a validated module, or a
//! drawn search-space shape) and returns a [`Verdict`]. Oracles never
//! catch panics themselves — the harness wraps every case in
//! [`tytra_trace::catch_panic`] and classifies an escaped panic as
//! [`Verdict::Panic`], which is itself a finding: the hardened pipeline
//! must never panic on any input, well-formed or not.

use crate::gen::TirlGen;
use tytra_cost::EstimatorSession;
use tytra_device::TargetDevice;
use tytra_dse::{search, ExplorationConfig, SearchConfig};
use tytra_ir::{ArenaModule, Call, IrFunction, IrModule, MemForm, ParKind, Stmt, TybecError};
use tytra_kernels::{EvalKernel, Sor, StreamTriad};
use tytra_trace::json::{self, Json};
use tytra_transform::{enumerate_variants, InnerKind};

/// The outcome of running one oracle on one case.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The property held.
    Pass,
    /// The oracle could not check this case (e.g. the design does not
    /// fit the reference device). Counted separately so a generator
    /// drift that skips everything is visible in `BENCH_fuzz.json`.
    Skip(String),
    /// A panic escaped the pipeline (filled in by the harness).
    Panic(String),
    /// Two implementations that must agree did not.
    Disagreement(String),
    /// A NaN or infinity leaked into a reported metric.
    NonFinite(String),
}

impl Verdict {
    /// True for the three failing variants.
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Panic(_) | Verdict::Disagreement(_) | Verdict::NonFinite(_))
    }

    /// Stable lower-case label for JSON and corpus metadata.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Skip(_) => "skip",
            Verdict::Panic(_) => "panic",
            Verdict::Disagreement(_) => "disagreement",
            Verdict::NonFinite(_) => "non-finite",
        }
    }

    /// The attached detail message, if any.
    pub fn detail(&self) -> Option<&str> {
        match self {
            Verdict::Pass => None,
            Verdict::Skip(s)
            | Verdict::Panic(s)
            | Verdict::Disagreement(s)
            | Verdict::NonFinite(s) => Some(s),
        }
    }
}

/// Per-metric agreement bands for the estimator-vs-simulator oracle.
///
/// The fast model is *approximate* by design (the paper's Table II
/// reports CPKI within ~15% and resources within a factor on small
/// kernels), so exact equality is the wrong oracle; the bands encode
/// "close enough that a divergence means a bug, not model error". They
/// are deliberately loose — the oracle hunts for crashes, non-finite
/// leaks and order-of-magnitude breaks, not calibration drift.
#[derive(Debug, Clone, Copy)]
pub struct ToleranceBands {
    /// Max relative CPKI error vs the cycle simulator.
    pub cpki_rel: f64,
    /// Max ratio (either direction) between estimated and synthesized
    /// resource axes, after an additive slack absorbing near-zero axes.
    pub resource_factor: f64,
    /// Additive slack per resource axis before the ratio test.
    pub resource_slack: u64,
    /// Max ratio between estimated and achieved clock.
    pub clock_factor: f64,
}

impl Default for ToleranceBands {
    fn default() -> ToleranceBands {
        ToleranceBands {
            cpki_rel: 0.5,
            resource_factor: 4.0,
            resource_slack: 64,
            clock_factor: 3.0,
        }
    }
}

/// Oracle 1 — parse → print → reparse round-trip.
///
/// Any input that parses must survive `print ∘ parse` as a fixed point:
/// `print(parse(src))` reparsed and reprinted must be byte-identical.
/// Inputs that fail to parse pass the oracle (a structured rejection is
/// the correct behaviour for a mutant); only a panic or a round-trip
/// break is a finding.
pub fn roundtrip(src: &str) -> Verdict {
    let m = match tytra_ir::parse_unvalidated(src) {
        Ok(m) => m,
        Err(_) => return Verdict::Pass,
    };
    let p1 = tytra_ir::print(&m);
    let m2 = match tytra_ir::parse_unvalidated(&p1) {
        Ok(m2) => m2,
        Err(e) => {
            return Verdict::Disagreement(format!("printed module failed to reparse: {e}"));
        }
    };
    let p2 = tytra_ir::print(&m2);
    if p1 == p2 {
        Verdict::Pass
    } else {
        Verdict::Disagreement("print(parse(print(m))) is not a fixed point".into())
    }
}

fn finite(label: &str, v: f64) -> Result<(), Verdict> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(Verdict::NonFinite(format!("{label} = {v}")))
    }
}

fn within_factor(label: &str, a: f64, b: f64, factor: f64) -> Result<(), Verdict> {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if lo <= 0.0 || hi / lo <= factor {
        Ok(())
    } else {
        Err(Verdict::Disagreement(format!(
            "{label}: estimate {a} vs actual {b} beyond {factor}x band"
        )))
    }
}

/// Oracle 2 — the fast model vs the virtual toolchain + cycle simulator
/// on a valid design, within [`ToleranceBands`].
pub fn estimator_vs_sim(m: &IrModule, dev: &TargetDevice, bands: &ToleranceBands) -> Verdict {
    let est = match tytra_cost::estimate(m, dev) {
        Ok(r) => r,
        Err(e) => return Verdict::Skip(format!("estimate: {e}")),
    };
    let checks = || -> Result<(), Verdict> {
        finite("est.cpki", est.throughput.cpki)?;
        finite("est.ekit", est.throughput.ekit)?;
        finite("est.t_instance", est.throughput.t_instance)?;
        finite("est.freq_mhz", est.clock.freq_mhz)?;
        finite("est.power_w", est.power_w)?;
        Ok(())
    };
    if let Err(v) = checks() {
        return v;
    }
    if !est.fits {
        return Verdict::Skip("design does not fit the reference device".into());
    }
    let run = match tytra_sim::run_application(m, dev) {
        Ok(r) => r,
        Err(e) => {
            return Verdict::Disagreement(format!(
                "simulator rejected a design the estimator costed: {e}"
            ));
        }
    };
    let compare = || -> Result<(), Verdict> {
        finite("sim.t_total_s", run.t_total_s)?;
        finite("sim.freq_mhz", run.freq_mhz)?;
        finite("sim.delta_watts", run.power.delta_watts)?;
        finite("sim.achieved_bytes_per_s", run.cycles.achieved_bytes_per_s)?;

        let actual = run.cpki() as f64;
        if actual > 0.0 {
            let rel = (est.throughput.cpki - actual).abs() / actual;
            if rel > bands.cpki_rel {
                return Err(Verdict::Disagreement(format!(
                    "CPKI: estimate {:.0} vs simulated {:.0} ({:.0}% > {:.0}% band)",
                    est.throughput.cpki,
                    actual,
                    rel * 100.0,
                    bands.cpki_rel * 100.0
                )));
            }
        }
        within_factor("clock", est.clock.freq_mhz, run.freq_mhz, bands.clock_factor)?;
        let s = bands.resource_slack as f64;
        let e = &est.resources.total;
        let a = &run.synth.resources;
        within_factor("aluts", e.aluts as f64 + s, a.aluts as f64 + s, bands.resource_factor)?;
        within_factor("regs", e.regs as f64 + s, a.regs as f64 + s, bands.resource_factor)?;
        within_factor(
            "bram_bits",
            e.bram_bits as f64 + 8.0 * s,
            a.bram_bits as f64 + 8.0 * s,
            bands.resource_factor,
        )?;
        within_factor("dsps", e.dsps as f64 + s, a.dsps as f64 + s, bands.resource_factor)?;
        Ok(())
    };
    match compare() {
        Ok(()) => Verdict::Pass,
        Err(v) => v,
    }
}

/// Oracle 3 — the search against the per-point reference: for a
/// randomly drawn kernel, space shape and board size, the search's board
/// and infeasible set must equal what lowering every legal variant to a
/// tree and estimating it in a fresh session gives, with the fitting
/// variants ranked by EKIT and ties in generation order.
pub fn search_equivalence(g: &mut TirlGen) -> Verdict {
    let kernel: Box<dyn EvalKernel> = if *g.choose(&[true, false]) {
        let side = *g.choose(&[8u64, 12, 16]);
        Box::new(Sor::cubic(side, g.draw_u64(1..=10)))
    } else {
        Box::new(StreamTriad { n: 1 << g.draw_u64(10..=14), nki: g.draw_u64(1..=8) })
    };
    let dev = tytra_device::eval_small();

    let all_lanes = [1u64, 2, 3, 4, 8];
    let keep = g.draw_usize(1..=all_lanes.len());
    let lanes: Vec<u64> = all_lanes.iter().copied().take(keep).collect();
    let vects: Vec<u32> = if *g.choose(&[true, false]) { vec![1, 2] } else { vec![1] };
    let forms =
        if *g.choose(&[true, false]) { vec![MemForm::A, MemForm::B] } else { vec![MemForm::B] };
    let space = ExplorationConfig { lanes, vects, forms };
    // The search once drew a worker count here; the draw stays, so
    // recorded seeds replay the same spaces.
    let _ = g.draw_usize(1..=4);
    let top_k = g.draw_usize(1..=10);

    let cfg = SearchConfig { space: space.clone(), top_k, ..SearchConfig::default() };
    let outcome = search(kernel.as_ref(), &dev, &cfg);
    if outcome.stats.faulted > 0 {
        return Verdict::Disagreement(format!(
            "the search faulted on {} variants of {}",
            outcome.stats.faulted,
            kernel.name()
        ));
    }
    for e in &outcome.leaderboard {
        if !e.report.throughput.ekit.is_finite() {
            return Verdict::NonFinite(format!("EKIT for {}", e.variant.tag()));
        }
    }

    let mut fitting = Vec::new();
    let mut invalid = Vec::new();
    let variants =
        enumerate_variants(kernel.geometry().size(), &space.lanes, &space.vects, &space.forms);
    for (i, v) in variants.into_iter().filter(|v| v.inner == InnerKind::Pipe).enumerate() {
        let costed = kernel
            .lower_variant(&v)
            .map_err(TybecError::from)
            .and_then(|m| EstimatorSession::new(dev.clone()).estimate(&m));
        match costed {
            Ok(r) if r.fits => fitting.push((v.tag(), r.throughput.ekit)),
            Ok(_) => invalid.push((i as u64, v.tag())),
            Err(e) => {
                return Verdict::Disagreement(format!("{} fails per point: {e}", v.tag()));
            }
        }
    }
    // A stable sort keeps generation order among equal EKITs.
    fitting.sort_by(|a, b| b.1.total_cmp(&a.1));
    let reference: Vec<(String, u64)> =
        fitting.into_iter().take(top_k).map(|(tag, ekit)| (tag, ekit.to_bits())).collect();
    let board: Vec<(String, u64)> = outcome
        .leaderboard
        .iter()
        .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
        .collect();
    let unfit: Vec<(u64, String)> =
        outcome.invalid.iter().map(|iv| (iv.index, iv.variant.tag())).collect();
    if board != reference {
        Verdict::Disagreement(format!(
            "search board {board:?} != per-point board {reference:?} on {}",
            kernel.name()
        ))
    } else if unfit != invalid {
        Verdict::Disagreement(format!(
            "search infeasible set {unfit:?} != per-point set {invalid:?} on {}",
            kernel.name()
        ))
    } else {
        Verdict::Pass
    }
}

/// Oracle 4 — warm-vs-cold session bit-identity: a memo-warm re-estimate
/// must equal a fresh session's estimate field-for-field. `CostReport`
/// has no `PartialEq`, but Rust's float `Debug` is round-trip exact, so
/// `Debug`-string equality is bit equality.
pub fn session_determinism(m: &IrModule, dev: &TargetDevice) -> Verdict {
    let mut warm = EstimatorSession::new(dev.clone());
    let first = warm.estimate(m);
    let second = warm.estimate(m);
    let mut cold = EstimatorSession::new(dev.clone());
    let fresh = cold.estimate(m);
    match (first, second, fresh) {
        (Ok(a), Ok(b), Ok(c)) => {
            let (da, db, dc) = (format!("{a:?}"), format!("{b:?}"), format!("{c:?}"));
            if da != db {
                Verdict::Disagreement("warm re-estimate differs from first estimate".into())
            } else if db != dc {
                Verdict::Disagreement("warm session differs from cold session".into())
            } else {
                Verdict::Pass
            }
        }
        (Err(a), Err(b), Err(c)) => {
            if a == b && b == c {
                Verdict::Pass
            } else {
                Verdict::Disagreement(format!("error instability: {a} / {b} / {c}"))
            }
        }
        _ => Verdict::Disagreement("Ok/Err disagreement between warm and cold sessions".into()),
    }
}

/// Oracle 7 — the served cost model equals the offline one.
///
/// Drives the daemon's full per-request path in process — decode →
/// exact-text fast path → prepare → cache probe with single flight →
/// guarded compute → render, via [`tytra_serve::Engine::respond`] —
/// and demands the `estimate` payload be byte-identical to the direct
/// `estimate` rendering for the same design. The identical request is
/// then replayed so the fast-path answer is checked against the
/// computed one, and error inputs must carry the exact category the
/// direct path raises. This
/// is the wire-level face of the session-determinism property: no
/// daemon state (warm session, response cache) may leak into a
/// response.
pub fn serve_equivalence(m: &IrModule) -> Verdict {
    let src = tytra_ir::print(m);
    let dev = tytra_device::eval_small();
    let m2 = match tytra_ir::parse(&src) {
        Ok(m2) => m2,
        // A print→parse failure is the round-trip oracle's finding.
        Err(_) => return Verdict::Skip("printed source does not reparse".into()),
    };
    let direct = tytra_cost::estimate(&m2, &dev);

    let mut engine = tytra_serve::Engine::new();
    let shared = tytra_serve::Shared::new(64);
    let line = format!(
        "{{\"id\":1,\"kind\":\"estimate\",\"design\":\"{}\",\"target\":\"eval-small\"}}",
        json::escape(&src)
    );
    let cold = engine.respond(&line, &shared);
    let warm = engine.respond(&line, &shared);
    let (Ok(cold), Ok(warm)) = (json::parse(cold.trim_end()), json::parse(warm.trim_end())) else {
        return Verdict::Disagreement("served response is not valid JSON".into());
    };

    match direct {
        Ok(report) => {
            let expected = format!("{report}");
            for (pass, v) in [("cold", &cold), ("warm", &warm)] {
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Verdict::Disagreement(format!(
                        "{pass} served request failed where the direct estimate succeeded"
                    ));
                }
                if v.get("report").and_then(Json::as_str) != Some(expected.as_str()) {
                    return Verdict::Disagreement(format!(
                        "{pass} served payload differs from the offline cost report"
                    ));
                }
            }
            Verdict::Pass
        }
        Err(e) => {
            for (pass, v) in [("cold", &cold), ("warm", &warm)] {
                if v.get("ok").and_then(Json::as_bool) != Some(false) {
                    return Verdict::Disagreement(format!(
                        "{pass} served request succeeded where the direct estimate failed"
                    ));
                }
                let category =
                    v.get("error").and_then(|x| x.get("category")).and_then(Json::as_str);
                if category != Some(e.category.label()) {
                    return Verdict::Disagreement(format!(
                        "{pass} served error category {category:?} != direct `{}`",
                        e.category.label()
                    ));
                }
            }
            Verdict::Pass
        }
    }
}

/// Oracle 5 — static analysis totality and congruence soundness.
///
/// Part (a): `analyze_module` must be total and deterministic on any
/// validated module — two runs produce `Debug`-identical reports, and
/// both render paths complete (a panic anywhere is caught by the
/// harness and is a finding, mirroring `tybec analyze` on user input).
///
/// Part (b): the congruence key's central promise. For the module and
/// its form-flipped A/B sibling, the keys must be equal exactly when
/// `NKI == 1`; and whenever the keys ARE equal, the full cost reports
/// must be bit-identical after normalizing the one field the key
/// deliberately erases (`params.form`). This is what makes congruent
/// designs interchangeable for the cost model.
pub fn analyze_congruence(m: &IrModule, dev: &TargetDevice) -> Verdict {
    let first = tytra_analyze::analyze_module(m);
    let second = tytra_analyze::analyze_module(m);
    if format!("{first:?}") != format!("{second:?}") {
        return Verdict::Disagreement("analyze_module is not deterministic".into());
    }
    let _ = first.render_text();
    let _ = first.render_json();

    let mut sib = m.clone();
    sib.meta.form = match m.meta.form {
        MemForm::A => MemForm::B,
        MemForm::B => MemForm::A,
        other => other,
    };
    if sib.meta.form == m.meta.form {
        // Forms C/Tiled have no congruent sibling on the A/B axis.
        return Verdict::Pass;
    }
    let congruent = tytra_analyze::congruent(m, &sib);
    if congruent != (m.meta.nki == 1) {
        return Verdict::Disagreement(format!(
            "A/B congruence at NKI {} reported as {congruent}",
            m.meta.nki
        ));
    }
    if !congruent {
        return Verdict::Pass;
    }
    match (tytra_cost::estimate(m, dev), tytra_cost::estimate(&sib, dev)) {
        (Ok(mut a), Ok(mut b)) => {
            a.params.form = MemForm::B;
            b.params.form = MemForm::B;
            let (da, db) = (format!("{a:?}"), format!("{b:?}"));
            if da == db {
                Verdict::Pass
            } else {
                Verdict::Disagreement(
                    "congruent A/B siblings produced different cost reports".into(),
                )
            }
        }
        (Err(a), Err(b)) => {
            if a == b {
                Verdict::Pass
            } else {
                Verdict::Disagreement(format!("congruent siblings erred differently: {a} / {b}"))
            }
        }
        _ => Verdict::Disagreement("Ok/Err disagreement between congruent siblings".into()),
    }
}

/// Oracle 6 — arena/tree bit-identity on any validated module.
///
/// The arena ([`ArenaModule`]) carries the estimator's whole hot path,
/// so its contract is total: for any module the generator can produce,
/// (a) the identity patch materializes exactly as the tree; (b) for a
/// sweep of copy-on-write patches over the four patched cells (name,
/// form, DV, lane count), `estimate_design`/`bound_design` are
/// `Debug`-bit-identical to a tree session estimating the materialized
/// patch. The lane-count patch runs on `m` with `main`'s call moved
/// under a one-call `par` dispatcher, a lane template. The tree entry
/// points build a fresh arena over the module they are given, so (b)
/// checks each patch against a rebuild of its own tree. Float `Debug` is
/// round-trip exact, so string equality is bit equality.
pub fn arena_equivalence(m: &IrModule, dev: &TargetDevice) -> Verdict {
    let arena = ArenaModule::build(m.clone());
    if &arena.identity().materialize() != m {
        return Verdict::Disagreement(
            "arena identity materialization differs from the tree".into(),
        );
    }
    let mut via_arena = EstimatorSession::new(dev.clone());
    let mut via_tree = EstimatorSession::new(dev.clone());
    let template = lane_template(m).map(ArenaModule::build);
    let patches = [
        arena.patched(&m.name, m.meta.form, m.meta.vect, 1),
        arena.patched("fz_patch", MemForm::A, 1, 1),
        arena.patched("fz_patch", MemForm::B, 2, 1),
        arena.patched("fz_patch", MemForm::Tiled { tiles: 2 }, m.meta.vect, 1),
    ]
    .into_iter()
    .chain(template.iter().map(|t| t.patched("fz_patch", m.meta.form, m.meta.vect, 2)));
    for d in patches {
        let (name, form, vect) = (d.name, d.form, d.vect);
        let tree = d.materialize();
        match (via_arena.estimate_design(&d), via_tree.estimate(&tree)) {
            (Ok(a), Ok(t)) => {
                if format!("{a:?}") != format!("{t:?}") {
                    return Verdict::Disagreement(format!(
                        "estimate_design differs from tree estimate on patch {name}/{form:?}/DV{vect}"
                    ));
                }
            }
            (Err(a), Err(t)) => {
                if a != t {
                    return Verdict::Disagreement(format!(
                        "arena/tree estimates erred differently: {a} / {t}"
                    ));
                }
            }
            _ => {
                return Verdict::Disagreement(
                    "Ok/Err disagreement between arena and tree estimates".into(),
                );
            }
        }
        match (via_arena.bound_design(&d), via_tree.bound(&tree)) {
            (Ok(a), Ok(t)) => {
                if format!("{a:?}") != format!("{t:?}") {
                    return Verdict::Disagreement(format!(
                        "bound_design differs from tree bound on patch {name}/{form:?}/DV{vect}"
                    ));
                }
            }
            (Err(a), Err(t)) => {
                if a != t {
                    return Verdict::Disagreement(format!(
                        "arena/tree bounds erred differently: {a} / {t}"
                    ));
                }
            }
            _ => {
                return Verdict::Disagreement(
                    "Ok/Err disagreement between arena and tree bounds".into(),
                );
            }
        }
    }
    Verdict::Pass
}

/// `m` as a lane template: `m` itself when it has a
/// [lane root][IrModule::lane_root], else `m` with `main`'s only
/// statement, a call, moved under a one-call `par` dispatcher that calls
/// with no arguments, as lowering's dispatchers do. `None` when `main`
/// is not a single call.
fn lane_template(m: &IrModule) -> Option<IrModule> {
    if m.lane_root().is_some() {
        return Some(m.clone());
    }
    let mut t = m.clone();
    let main = t.functions.iter_mut().find(|f| f.name == "main")?;
    let [Stmt::Call(call)] = main.body.as_mut_slice() else { return None };
    let lane = Call { args: Vec::new(), ..call.clone() };
    *call =
        Call { callee: "fz_lanes".into(), args: Vec::new(), kind: ParKind::Par, ..lane.clone() };
    let mut dispatcher = IrFunction::new("fz_lanes", ParKind::Par);
    dispatcher.body.push(Stmt::Call(lane));
    t.functions.push(dispatcher);
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_module() -> IrModule {
        let mut g = TirlGen::new(99);
        g.valid_module()
    }

    #[test]
    fn roundtrip_accepts_rejections_and_fixed_points() {
        assert_eq!(roundtrip("not tirl at all"), Verdict::Pass);
        let src = tytra_ir::print(&sample_module());
        assert_eq!(roundtrip(&src), Verdict::Pass);
    }

    #[test]
    fn estimator_vs_sim_passes_on_a_generated_module() {
        let m = sample_module();
        let dev = tytra_device::stratix_v_gsd8();
        let v = estimator_vs_sim(&m, &dev, &ToleranceBands::default());
        assert!(!v.is_failure(), "{v:?}");
    }

    #[test]
    fn session_determinism_holds_on_a_generated_module() {
        let m = sample_module();
        let dev = tytra_device::eval_small();
        assert_eq!(session_determinism(&m, &dev), Verdict::Pass);
    }

    #[test]
    fn search_equivalence_holds_for_a_few_draws() {
        let mut g = TirlGen::new(5);
        for _ in 0..2 {
            assert_eq!(search_equivalence(&mut g), Verdict::Pass);
        }
    }

    #[test]
    fn analyze_congruence_holds_across_nki_values() {
        let dev = tytra_device::eval_small();
        let mut checked_congruent = false;
        for seed in 0..40u64 {
            let mut g = TirlGen::new(seed);
            let m = g.valid_module();
            let v = analyze_congruence(&m, &dev);
            assert!(!v.is_failure(), "seed {seed}: {v:?}");
            checked_congruent |= m.meta.nki == 1;
        }
        assert!(checked_congruent, "no NKI == 1 draw in 40 seeds; widen the loop");
    }

    #[test]
    fn analyze_congruence_flags_a_broken_key() {
        // A hand-built NKI > 1 pair with forcibly equal names would NOT
        // be congruent; the oracle must pass (keys differ as required).
        let mut g = TirlGen::new(7);
        let mut m = g.valid_module();
        m.meta.nki = 5;
        let dev = tytra_device::eval_small();
        assert_eq!(analyze_congruence(&m, &dev), Verdict::Pass);
    }

    #[test]
    fn arena_equivalence_holds_on_generated_modules() {
        let dev = tytra_device::eval_small();
        for seed in [3u64, 17, 99] {
            let mut g = TirlGen::new(seed);
            let m = g.valid_module();
            assert_eq!(arena_equivalence(&m, &dev), Verdict::Pass, "seed {seed}");
            // The lane-count patch is a valid design, so the oracle
            // compares two reports, not two errors.
            let t = ArenaModule::build(lane_template(&m).expect("main makes one call"));
            assert_eq!(t.patched("two", m.meta.form, m.meta.vect, 2).validate(), Ok(()));
        }
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(Verdict::Pass.label(), "pass");
        assert_eq!(Verdict::Skip("x".into()).label(), "skip");
        assert_eq!(Verdict::Panic("x".into()).label(), "panic");
        assert_eq!(Verdict::Disagreement("x".into()).label(), "disagreement");
        assert_eq!(Verdict::NonFinite("x".into()).label(), "non-finite");
    }
}
