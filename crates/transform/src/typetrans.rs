//! Variant generation by type transformation.
//!
//! Applying `reshapeTo` along different dimensions and decorating the
//! resulting nested maps with `par`/`pipe`/`seq` spans the design space
//! of Fig 5 "very quickly even on the basis of a single basic reshape
//! transformation" (§II). A [`Variant`] is one such decorated reshape;
//! [`enumerate_variants`] produces the legal set for a given NDRange.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::Hash;
use tytra_ir::MemForm;

/// How the inner map (one lane's work) executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InnerKind {
    /// `mappipe` — a streaming pipeline (C2 of Fig 5).
    Pipe,
    /// `mapseq` — a sequential PE sharing functional units (C4-ish).
    Seq,
}

/// One design variant produced by type transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variant {
    /// `KNL`: number of parallel lanes (`mappar` width; 1 = no outer
    /// reshape).
    pub lanes: u64,
    /// `DV`: vectorization within a lane.
    pub vect: u32,
    /// Inner map execution style.
    pub inner: InnerKind,
    /// Memory-execution form.
    pub form: MemForm,
}

impl Variant {
    /// The baseline program: a single pipeline over the whole NDRange,
    /// data staged in device DRAM.
    pub fn baseline() -> Variant {
        Variant { lanes: 1, vect: 1, inner: InnerKind::Pipe, form: MemForm::B }
    }

    /// Short tag used in design names: `l4_v1_pipe_B`.
    pub fn tag(&self) -> String {
        let mut s = String::new();
        self.write_tag(&mut s);
        s
    }

    /// Append the tag to an existing string.
    pub fn write_tag(&self, out: &mut String) {
        let inner = match self.inner {
            InnerKind::Pipe => "pipe",
            InnerKind::Seq => "seq",
        };
        // Writing to a `String` cannot fail.
        let _ = write!(out, "l{}_v{}_{}_{}", self.lanes, self.vect, inner, self.form);
    }

    /// Is the reshape legal for this NDRange (order/size preservation
    /// requires the lane count to divide the global size, and the
    /// vector width to divide the per-lane count)?
    pub fn is_legal(&self, ngs: u64) -> bool {
        self.lanes > 0
            && self.vect > 0
            && ngs.is_multiple_of(self.lanes)
            && (ngs / self.lanes).is_multiple_of(u64::from(self.vect))
    }
}

/// Enumerate the legal variants for an NDRange of `ngs` work-items:
/// lane counts in `lanes` (filtered for divisibility), vector degrees in
/// `vects`, both inner kinds, forms in `forms`, lanes outermost. A value
/// repeated on an axis is kept once, at its first occurrence, so every
/// caller gets each variant once whatever lists it passes.
pub fn enumerate_variants(
    ngs: u64,
    lanes: &[u64],
    vects: &[u32],
    forms: &[MemForm],
) -> Vec<Variant> {
    let (vects, forms) = (first_occurrences(vects), first_occurrences(forms));
    let mut out = Vec::new();
    for l in first_occurrences(lanes) {
        for &v in &vects {
            for &form in &forms {
                for inner in [InnerKind::Pipe, InnerKind::Seq] {
                    let var = Variant { lanes: l, vect: v, inner, form };
                    if var.is_legal(ngs) {
                        out.push(var);
                    }
                }
            }
        }
    }
    out
}

/// `xs` without repeats, each value at its first occurrence.
fn first_occurrences<T: Copy + Eq + Hash>(xs: &[T]) -> Vec<T> {
    let mut seen = HashSet::new();
    xs.iter().copied().filter(|x| seen.insert(*x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_single_pipe_form_b() {
        let b = Variant::baseline();
        assert_eq!(b.lanes, 1);
        assert_eq!(b.vect, 1);
        assert_eq!(b.inner, InnerKind::Pipe);
        assert_eq!(b.form, MemForm::B);
        assert!(b.is_legal(1000));
    }

    #[test]
    fn legality_requires_divisibility() {
        let v = Variant { lanes: 4, vect: 1, inner: InnerKind::Pipe, form: MemForm::B };
        assert!(v.is_legal(1000));
        assert!(!v.is_legal(1001));
        let v2 = Variant { lanes: 4, vect: 3, inner: InnerKind::Pipe, form: MemForm::B };
        assert!(!v2.is_legal(1000), "250 per lane not divisible by 3");
        assert!(v2.is_legal(1200));
    }

    #[test]
    fn enumeration_filters_illegal() {
        let vs = enumerate_variants(1000, &[1, 3, 4], &[1, 2], &[MemForm::B]);
        assert!(vs.iter().all(|v| v.is_legal(1000)));
        assert!(!vs.iter().any(|v| v.lanes == 3), "3 does not divide 1000");
        // lanes {1,4} × vect {1,2} × inner {pipe,seq} = 16 minus vect-2
        // illegal cases (both legal here: 1000 and 250 divisible by 2).
        assert_eq!(vs.len(), 8);
    }

    #[test]
    fn growth_of_design_space() {
        // §II: "the design-space grows very quickly even on the basis of
        // a single basic reshape transformation".
        let small = enumerate_variants(1 << 12, &[1, 2], &[1], &[MemForm::B]).len();
        let large = enumerate_variants(
            1 << 12,
            &[1, 2, 4, 8, 16, 32],
            &[1, 2, 4],
            &[MemForm::A, MemForm::B, MemForm::C],
        )
        .len();
        assert!(large > 10 * small);
    }

    #[test]
    fn write_tag_appends_the_tag() {
        let vs = enumerate_variants(
            1 << 12,
            &[1, 2, 4, 8, 16, 32],
            &[1, 2, 4],
            &[MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 12 }],
        );
        for a in &vs {
            let mut s = String::from("sor_");
            a.write_tag(&mut s);
            assert_eq!(s, format!("sor_{}", a.tag()));
        }
        let v = Variant { lanes: 4, vect: 2, inner: InnerKind::Seq, form: MemForm::C };
        assert_eq!(v.tag(), "l4_v2_seq_C");
    }

    #[test]
    fn tags_are_unique_within_a_sweep() {
        let lanes: Vec<u64> = (0..=5).map(|i| 1u64 << i).collect();
        let vs = enumerate_variants(1 << 12, &lanes, &[1, 2, 4], &[MemForm::A, MemForm::B]);
        let mut tags: Vec<String> = vs.iter().map(Variant::tag).collect();
        let n = tags.len();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), n);
        assert!(vs.contains(&Variant::baseline()));
    }
}
