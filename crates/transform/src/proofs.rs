//! Executable statements of the type-transformation laws.
//!
//! The paper relies on dependent types (Idris) to prove that `reshapeTo`
//! is order- and size-preserving and that the inferred program
//! transformation computes the same function (the paper's ref. \[14\]). Here the same laws
//! are stated as checkable properties:
//!
//! 1. `reshape` preserves size and flat order;
//! 2. `map f` commutes with `reshape`;
//! 3. splitting into lanes and processing each lane equals processing
//!    the flat vector (for element-wise `f`);
//! 4. lowering a kernel under any legal variant and interpreting the
//!    datapath yields the reference semantics (checked in the
//!    integration tests with `tytra-sim`).
//!
//! Property tests in this module exercise 1–3 over random shapes.

use crate::vect::Vect;

/// Law 1: reshape preserves the flat element sequence.
pub fn reshape_preserves_order<T: Clone + PartialEq>(v: &Vect<T>, dims: &[u64]) -> bool {
    match v.clone().reshape_to(dims) {
        Ok(r) => r.flat() == v.flat(),
        // An illegal reshape is *rejected*, never mangled.
        Err(_) => dims.iter().product::<u64>() != v.shape().size(),
    }
}

/// Law 2: `map f ∘ reshape = reshape ∘ map f`.
pub fn map_commutes_with_reshape<T, U>(v: Vect<T>, dims: &[u64], f: impl Fn(T) -> U + Copy) -> bool
where
    T: Clone,
    U: PartialEq,
{
    let lhs = v.clone().reshape_to(dims).map(|r| r.map(f));
    let rhs = v.map(f).reshape_to(dims);
    match (lhs, rhs) {
        (Ok(a), Ok(b)) => a.flat() == b.flat(),
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Law 3: processing per lane equals processing flat, for element-wise
/// `f` (the `mappar (mappipe f)` ≡ `map f` guarantee).
pub fn lane_split_is_sound<T, U>(v: Vect<T>, lanes: u64, f: impl Fn(T) -> U + Copy) -> bool
where
    T: Clone,
    U: PartialEq + Clone,
{
    let flat: Vec<U> = v.flat().iter().cloned().map(f).collect();
    match v.split_lanes(lanes) {
        Ok(split) => {
            let mut out: Vec<U> = Vec::new();
            for l in 0..lanes {
                let lane = split.lane(l).expect("lane in range");
                out.extend(lane.iter().cloned().map(f));
            }
            out == flat
        }
        Err(_) => v_len_not_divisible(flat.len() as u64, lanes),
    }
}

fn v_len_not_divisible(n: u64, lanes: u64) -> bool {
    lanes == 0 || !n.is_multiple_of(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_reshape_preserves_order(
            data in proptest::collection::vec(any::<i32>(), 0..256),
            a in 1u64..16,
            b in 1u64..16,
        ) {
            let v = Vect::from_flat(data);
            prop_assert!(reshape_preserves_order(&v, &[a, b]));
        }

        #[test]
        fn prop_legal_reshape_always_round_trips(
            data in proptest::collection::vec(any::<i16>(), 1..256),
            a in 1u64..16,
        ) {
            let n = data.len() as u64;
            if n.is_multiple_of(a) {
                let v = Vect::from_flat(data.clone());
                let r = v.reshape_to(&[a, n / a]).unwrap();
                prop_assert_eq!(r.flat(), &data[..]);
                let back = r.reshape_to(&[n]).unwrap();
                prop_assert_eq!(back.into_flat(), data);
            }
        }

        #[test]
        fn prop_map_commutes(
            data in proptest::collection::vec(any::<i32>(), 0..128),
            a in 1u64..8,
            b in 1u64..8,
        ) {
            let v = Vect::from_flat(data);
            prop_assert!(map_commutes_with_reshape(v, &[a, b], |x: i32| x.wrapping_mul(3)));
        }

        #[test]
        fn prop_lane_split_sound(
            data in proptest::collection::vec(any::<i32>(), 0..256),
            lanes in 1u64..9,
        ) {
            let v = Vect::from_flat(data);
            prop_assert!(lane_split_is_sound(v, lanes, |x: i32| x.wrapping_add(7)));
        }
    }

    #[test]
    fn zero_lanes_is_rejected_not_mangled() {
        let v = Vect::from_flat(vec![1, 2, 3, 4]);
        assert!(lane_split_is_sound(v, 0, |x: i32| x));
    }
}
