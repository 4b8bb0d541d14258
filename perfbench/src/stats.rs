//! Summary statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Candidate tail percentiles, in per mille, highest first.
const TAILS_PERMILLE: [u32; 3] = [999, 990, 900];

/// The highest tail percentile (per mille) that has at least ten samples
/// beyond it among `n`, or `None` when even p90 has fewer.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAILS_PERMILLE
        .into_iter()
        .find(|&pm| n as u64 * u64::from(1000 - pm) / 1000 >= 10)
}

/// Nearest-rank percentile (`permille` / 1000) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(xs: &[f64], permille: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (v.len() as u64 * u64::from(permille)).div_ceil(1000).max(1);
    v[rank as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // Fewer than 100 samples: not even p90 has ten beyond it.
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(99), None);
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
    }
}
