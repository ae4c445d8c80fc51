//! Exact order statistics over per-frame samples.
//!
//! Percentiles are nearest-rank over the full sorted sample set, never read
//! back from a bucketed histogram. A percentile is only *supported* when at
//! least [`TAIL_SAMPLES`] samples lie beyond it; a p99 over 28 samples is
//! just the maximum and is not reported as a p99.

/// Minimum number of samples that must lie strictly beyond a percentile's
/// rank before the percentile is reported.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `pct` (0 < pct ≤ 100) among `n`
/// samples: the smallest rank with at least `pct`% of samples at or below
/// it. Integer arithmetic, so `rank(1000, 99)` is exactly 990.
pub fn rank(n: usize, pct: u32) -> usize {
    let pct = pct.clamp(1, 100) as usize;
    (n * pct).div_ceil(100).max(1)
}

/// Samples lying beyond the rank of percentile `pct`.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Whether `n` samples support reporting percentile `pct`.
pub fn supported(n: usize, pct: u32) -> bool {
    n > 0 && beyond(n, pct) >= TAIL_SAMPLES
}

/// Smallest sample count that supports percentile `pct`.
pub fn samples_needed(pct: u32) -> usize {
    (1..)
        .find(|&n| supported(n, pct))
        .expect("some count supports pct")
}

/// Nearest-rank percentile of ascending `sorted`, or `None` when the
/// sample count does not support it.
pub fn percentile<T: Copy>(sorted: &[T], pct: u32) -> Option<T> {
    supported(sorted.len(), pct).then(|| sorted[rank(sorted.len(), pct) - 1])
}

/// Median of an unsorted list of floats (mean of the middle pair for an
/// even count); `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_exact_at_round_counts() {
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(rank(1000, 50), 500);
        assert_eq!(rank(1, 50), 1);
        assert_eq!(rank(3, 50), 2);
        assert_eq!(rank(7, 100), 7);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50), Some(500));
        assert_eq!(percentile(&sorted, 99), Some(990));
        let odd: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&odd, 50), Some(11));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(99), 1000);
        assert_eq!(samples_needed(50), 20);
        let short: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&short, 99), None, "would be the max of the tail");
        let enough: Vec<u64> = (0..1000).collect();
        assert_eq!(beyond(enough.len(), 99), 10);
        assert_eq!(percentile(&enough, 99), Some(989));
        assert_eq!(percentile::<u64>(&[], 50), None);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[]), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
