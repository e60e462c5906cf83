//! Variant generation by type transformation.
//!
//! Applying `reshapeTo` along different dimensions and decorating the
//! resulting nested maps with `par`/`pipe`/`seq` spans the design space
//! of Fig 5 "very quickly even on the basis of a single basic reshape
//! transformation" (§II). A [`Variant`] is one such decorated reshape;
//! [`enumerate_variants`] produces the legal set for a given NDRange.

use std::fmt::Write as _;
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
        self.tag_buf().as_str().to_string()
    }

    /// The tag formatted into a stack buffer — no heap allocation. The
    /// DSE hot path (per-variant trace fields, leaderboard tie-break
    /// comparisons) goes through this instead of [`tag`][Variant::tag].
    pub fn tag_buf(&self) -> TagBuf {
        let inner = match self.inner {
            InnerKind::Pipe => "pipe",
            InnerKind::Seq => "seq",
        };
        let mut b = TagBuf::default();
        // `MemForm`'s `Display` writes the letter forms without
        // allocating; a TagBuf never overflows (see its docs), so the
        // write cannot fail.
        let _ = write!(b, "l{}_v{}_{}_{}", self.lanes, self.vect, inner, self.form);
        b
    }

    /// Append the tag to an existing string (one buffer reserve at
    /// most, no intermediate allocation).
    pub fn write_tag(&self, out: &mut String) {
        out.push_str(self.tag_buf().as_str());
    }

    /// Compare two variants by their tag strings (byte order, exactly
    /// as comparing [`tag`][Variant::tag] results) without allocating.
    pub fn tag_cmp(&self, other: &Variant) -> std::cmp::Ordering {
        self.tag_buf().as_str().cmp(other.tag_buf().as_str())
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

/// A variant tag on the stack: `l{lanes}_v{vect}_{inner}_{form}` peaks
/// at 50 bytes (20-digit lane count, 10-digit vector degree, `pipe`,
/// 11-byte tiled form), so the 64-byte buffer always suffices.
#[derive(Debug, Clone, Copy)]
pub struct TagBuf {
    buf: [u8; 64],
    len: u8,
}

impl Default for TagBuf {
    fn default() -> TagBuf {
        TagBuf { buf: [0; 64], len: 0 }
    }
}

impl TagBuf {
    /// The formatted tag.
    pub fn as_str(&self) -> &str {
        // Only `write_str` fills the buffer, so it holds valid UTF-8.
        std::str::from_utf8(&self.buf[..usize::from(self.len)]).unwrap_or("")
    }
}

impl std::fmt::Write for TagBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let start = usize::from(self.len);
        let end = start + s.len();
        if end > self.buf.len() {
            return Err(std::fmt::Error);
        }
        self.buf[start..end].copy_from_slice(s.as_bytes());
        self.len = end as u8;
        Ok(())
    }
}

/// Enumerate the legal variants for an NDRange of `ngs` work-items:
/// lane counts in `lanes` (filtered for divisibility), vector degrees in
/// `vects`, both inner kinds, forms in `forms`.
pub fn enumerate_variants(
    ngs: u64,
    lanes: &[u64],
    vects: &[u32],
    forms: &[MemForm],
) -> Vec<Variant> {
    let mut out = Vec::new();
    for &l in lanes {
        for &v in vects {
            for &form in forms {
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
    fn tag_buf_matches_tag_and_orders_identically() {
        let vs = enumerate_variants(
            1 << 12,
            &[1, 2, 4, 8, 16, 32],
            &[1, 2, 4],
            &[MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 12 }],
        );
        for a in &vs {
            assert_eq!(a.tag_buf().as_str(), a.tag());
            let mut s = String::from("sor_");
            a.write_tag(&mut s);
            assert_eq!(s, format!("sor_{}", a.tag()));
            for b in &vs {
                // Tie-breaks by tag sort by the tag *string*; tag_cmp
                // must preserve that byte order exactly (note "l16..."
                // sorts before "l2...").
                assert_eq!(a.tag_cmp(b), a.tag().cmp(&b.tag()));
            }
        }
        let l16 = Variant { lanes: 16, vect: 1, inner: InnerKind::Pipe, form: MemForm::B };
        let l2 = Variant { lanes: 2, vect: 1, inner: InnerKind::Pipe, form: MemForm::B };
        assert_eq!(l16.tag_cmp(&l2), std::cmp::Ordering::Less, "string order, not numeric");
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
