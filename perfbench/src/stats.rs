//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)`, so exactly
//! `n - rank` samples lie beyond it. A tail percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a report may name as its tail.
pub const TAILS: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Rank (1-based) of the `p`-th percentile among `n` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Nearest-rank percentile of already sorted samples; `0.0` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile of unsorted samples; `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median (the nearest-rank 50th percentile); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of `candidates` (in percent) that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn supported_tail(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        let candidates = TAILS;
        assert_eq!(supported_tail(10_000, &candidates), Some(99.9));
        assert_eq!(supported_tail(1000, &candidates), Some(99.0));
        assert_eq!(supported_tail(999, &candidates), Some(90.0));
        assert_eq!(supported_tail(100, &candidates), Some(90.0));
        assert_eq!(supported_tail(99, &candidates), Some(50.0));
        assert_eq!(supported_tail(19, &candidates), None);
    }

    #[test]
    fn reported_tail_has_ten_larger_samples() {
        for n in [100usize, 250, 1000, 1234, 20_000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = supported_tail(n, &[90.0, 99.0]).expect("supported");
            let tail = percentile(&v, p);
            let beyond = v.iter().filter(|&&x| x > tail).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }
}
