//! Order statistics over samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// closest ranks (the "type 7" rule numpy and R use by default). `None`
/// for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `xs`, 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(percentile(&[7.0], q), Some(7.0));
        }
    }

    #[test]
    fn interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        // pos = 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        let p90 = percentile(&xs, 0.9).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn p90_of_one_to_ten() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = percentile(&xs, 0.9).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -1.0), Some(1.0));
        assert_eq!(percentile(&xs, 2.0), Some(2.0));
    }
}
