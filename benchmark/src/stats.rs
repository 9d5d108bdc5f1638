//! Exact order statistics over recorded samples (no histogram buckets).

/// Weighted quantile: the smallest value whose cumulative weight reaches
/// `⌈q · total⌉` (rank clamped to `[1, total]`, zero weights ignored).
/// `None` when there is no weight at all.
pub fn weighted_quantile(samples: &mut [(u64, u64)], q: f64) -> Option<u64> {
    samples.sort_unstable();
    let total: u64 = samples.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut acc = 0;
    for &(v, w) in samples.iter() {
        acc += w;
        if acc >= rank {
            return Some(v);
        }
    }
    unreachable!("cumulative weight reaches the total")
}

/// Unweighted quantile of `values` (each sample weight one).
pub fn quantile(values: &[u64], q: f64) -> Option<u64> {
    let mut s: Vec<(u64, u64)> = values.iter().map(|&v| (v, 1)).collect();
    weighted_quantile(&mut s, q)
}

/// Median of host measurements (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_quantile_follows_the_weight() {
        let mut s = vec![(300, 1), (100, 98), (200, 1)];
        assert_eq!(weighted_quantile(&mut s, 0.5), Some(100));
        assert_eq!(weighted_quantile(&mut s, 0.99), Some(200));
        assert_eq!(weighted_quantile(&mut s, 1.0), Some(300));
        assert_eq!(weighted_quantile(&mut s, 0.0), Some(100));
    }

    #[test]
    fn zero_weights_never_carry_a_quantile() {
        let mut s = vec![(5, 0), (9, 2)];
        assert_eq!(weighted_quantile(&mut s, 0.0), Some(9));
        assert_eq!(weighted_quantile(&mut [(1, 0)], 0.5), None);
        assert_eq!(weighted_quantile(&mut [], 0.5), None);
    }

    #[test]
    fn unweighted_quantile_and_median() {
        assert_eq!(quantile(&[4, 1, 3, 2], 0.5), Some(2));
        assert_eq!(quantile(&[4, 1, 3, 2], 0.75), Some(3));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
