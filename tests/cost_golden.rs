//! Golden cost reports: the absolute numbers the cost model prints, pinned
//! per design so that a refactor of the estimator cannot move them.
//!
//! The designs are the four `assets/*.tirl` files plus every pipelined
//! sor, hotspot and lavamd variant over lanes {1, 4, 16} × vect {1, 2} ×
//! forms {A, B, C} on `stratix_v_gsd8`. For each design the fixture
//! holds the `tybec cost` rendering (`Display` of the `CostReport`) and
//! a `StableHasher` digest of the `Debug` images of the report and of
//! the session's `bound`, which cover every field, unrounded.
//!
//! Regenerating: when a change moves the model on purpose, run
//! `cargo test --test cost_golden`. On a mismatch the test writes the
//! new image to `cost_golden.txt` under Cargo's per-target test scratch
//! directory (`target/tmp`; the panic message names the path). Review
//! its diff against `tests/golden/cost_golden.txt`, copy it over the
//! fixture, and list the moved numbers in CHANGES.md.

use std::fmt::Write as _;
use std::path::Path;
use tytra::cost::{estimate, EstimatorSession};
use tytra::device::stratix_v_gsd8;
use tytra::ir::{parse, IrModule, MemForm, StableHasher};
use tytra::kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra::transform::{enumerate_variants, InnerKind};

const FIXTURE: &str = include_str!("golden/cost_golden.txt");

fn digest(text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(text);
    h.finish()
}

/// Every golden design, labelled, in fixture order.
fn designs() -> Vec<(String, IrModule)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets");
    let mut assets: Vec<_> = std::fs::read_dir(&dir)
        .expect("assets directory")
        .map(|e| e.expect("asset entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tirl"))
        .collect();
    assets.sort();
    let mut out = Vec::new();
    for path in assets {
        let text = std::fs::read_to_string(&path).expect("asset reads");
        let label = path.file_name().expect("file name").to_string_lossy().into_owned();
        out.push((label, parse(&text).expect("asset parses")));
    }
    let kernels: [Box<dyn EvalKernel>; 3] =
        [Box::new(Sor::default()), Box::new(Hotspot::default()), Box::new(LavaMd::default())];
    for k in &kernels {
        let variants = enumerate_variants(
            k.geometry().size(),
            &[1, 4, 16],
            &[1, 2],
            &[MemForm::A, MemForm::B, MemForm::C],
        );
        for v in variants.iter().filter(|v| v.inner == InnerKind::Pipe) {
            let m = k.lower_variant(v).expect("legal variant lowers");
            out.push((format!("{} {}", k.name(), v.tag()), m));
        }
    }
    out
}

/// The fixture image: a header line with both digests, then the report.
fn render_all() -> String {
    let dev = stratix_v_gsd8();
    let mut s = String::new();
    for (label, m) in designs() {
        let report = estimate(&m, &dev).expect("golden designs cost");
        let bound = EstimatorSession::new(dev.clone()).bound(&m).expect("golden designs bound");
        let (r, b) = (digest(&format!("{report:?}")), digest(&format!("{bound:?}")));
        writeln!(s, "== {label}: report {r:016x} bound {b:016x}").expect("write to String");
        write!(s, "{report}").expect("write to String");
    }
    s
}

#[test]
fn cost_reports_match_the_golden_fixture() {
    let actual = render_all();
    if actual == FIXTURE {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cost_golden.txt");
    std::fs::write(&out, &actual).expect("write the new image");
    let first = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "cost reports differ from tests/golden/cost_golden.txt from line {}: \
         fixture {:?}, now {:?}; the new image is at {}",
        first + 1,
        FIXTURE.lines().nth(first),
        actual.lines().nth(first),
        out.display()
    );
}
