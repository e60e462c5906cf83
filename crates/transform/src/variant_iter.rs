//! Lazy variant generation for branch-and-bound exploration.
//!
//! [`enumerate_variants`][crate::typetrans::enumerate_variants]
//! materialises the whole legal cross-product up front; a pruned search
//! never looks at most of it. [`VariantIter`] streams the same sequence
//! — identical variants, identical order — one element at a time.
//!
//! Each yielded [`IndexedVariant`] carries the variant's position in the
//! legal sequence. That index is the deterministic tie-breaker of the
//! search leaderboard: two variants with bit-equal EKIT rank by
//! generation order.

use crate::typetrans::{InnerKind, Variant};
use std::collections::HashSet;
use std::hash::Hash;
use tytra_ir::MemForm;

/// A variant plus its position in the legal enumeration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedVariant {
    /// Zero-based position among the *legal* variants (illegal reshapes
    /// are filtered before numbering, so indices are dense).
    pub index: u64,
    /// The variant itself.
    pub variant: Variant,
}

/// Streaming equivalent of
/// [`enumerate_variants`][crate::typetrans::enumerate_variants] over
/// `pipe` inner maps (the DSE space): yields the same variants in the
/// same order without collecting them.
///
/// The raw cross-product is walked lanes-outermost (lanes → vect →
/// form), filtering illegal reshapes as it goes. A value repeated on an
/// axis is kept once, at its first occurrence, so every caller of the
/// search gets each variant once whatever list it passes.
#[derive(Debug, Clone)]
pub struct VariantIter {
    ngs: u64,
    lanes: Vec<u64>,
    vects: Vec<u32>,
    forms: Vec<MemForm>,
    /// Raw cursor into the unfiltered cross-product.
    cursor: u64,
    /// Index the next legal variant will receive.
    next_index: u64,
}

/// `xs` without repeats, each value at its first occurrence.
fn first_occurrences<T: Copy + Eq + Hash>(xs: &[T]) -> Vec<T> {
    let mut seen = HashSet::new();
    xs.iter().copied().filter(|x| seen.insert(*x)).collect()
}

impl VariantIter {
    /// A lazy generator over the legal `pipe` variants for an NDRange of
    /// `ngs` work-items.
    pub fn new(ngs: u64, lanes: &[u64], vects: &[u32], forms: &[MemForm]) -> VariantIter {
        VariantIter {
            ngs,
            lanes: first_occurrences(lanes),
            vects: first_occurrences(vects),
            forms: first_occurrences(forms),
            cursor: 0,
            next_index: 0,
        }
    }

    /// Decode a raw cross-product position into its candidate variant.
    fn decode(&self, raw: u64) -> Variant {
        let nf = self.forms.len() as u64;
        let nv = self.vects.len() as u64;
        let form = self.forms[(raw % nf) as usize];
        let vect = self.vects[((raw / nf) % nv) as usize];
        let lanes = self.lanes[(raw / (nf * nv)) as usize];
        Variant { lanes, vect, inner: InnerKind::Pipe, form }
    }
}

impl Iterator for VariantIter {
    type Item = IndexedVariant;

    fn next(&mut self) -> Option<IndexedVariant> {
        let total = self.lanes.len() as u64 * self.vects.len() as u64 * self.forms.len() as u64;
        while self.cursor < total {
            let v = self.decode(self.cursor);
            self.cursor += 1;
            if v.is_legal(self.ngs) {
                let index = self.next_index;
                self.next_index += 1;
                return Some(IndexedVariant { index, variant: v });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typetrans::enumerate_variants;

    #[test]
    fn streams_exactly_the_enumerated_pipe_sequence() {
        let lanes = [1u64, 2, 3, 4, 8];
        let vects = [1u32, 2, 3];
        let forms = [MemForm::A, MemForm::B, MemForm::C];
        let mut eager = enumerate_variants(1000, &lanes, &vects, &forms);
        eager.retain(|v| v.inner == InnerKind::Pipe);
        let lazy: Vec<Variant> =
            VariantIter::new(1000, &lanes, &vects, &forms).map(|iv| iv.variant).collect();
        assert_eq!(lazy, eager);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        let it = VariantIter::new(1 << 12, &[1, 2, 4], &[1, 2], &[MemForm::A, MemForm::B]);
        let idx: Vec<u64> = it.map(|iv| iv.index).collect();
        assert_eq!(idx, (0..idx.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_axis_values_generate_once_at_their_first_occurrence() {
        let forms = [MemForm::A, MemForm::B];
        let once: Vec<IndexedVariant> = VariantIter::new(4096, &[4, 2], &[2, 1], &forms).collect();
        let repeated: Vec<IndexedVariant> = VariantIter::new(
            4096,
            &[4, 2, 4, 2, 2],
            &[2, 1, 2],
            &[MemForm::A, MemForm::B, MemForm::A],
        )
        .collect();
        assert_eq!(repeated, once);
        assert_eq!(once.len(), 8);
    }

    #[test]
    fn illegal_space_yields_nothing() {
        // 3 does not divide 4096 and vect 5 divides nothing it pairs with.
        let mut it = VariantIter::new(4096, &[3], &[5], &[MemForm::B]);
        assert_eq!(it.next(), None);
    }
}
