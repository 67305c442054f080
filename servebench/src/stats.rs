//! Order statistics for latency samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it (`sorted[⌈p·n/100⌉ − 1]`). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// Samples strictly above the `p`-th percentile: how well a tail
/// percentile is supported.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(q) => samples.iter().filter(|&&x| x > q).count(),
        None => 0,
    }
}

/// Median by the midpoint rule (mean of the two middle samples when the
/// count is even) — for summaries over runs, not latency tails.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_counted_samples() {
        // 1..=10 shuffled: p50 is the 5th smallest, p90 the 9th, p99 and
        // p100 the 10th, p10 the 1st.
        let s = [7.0, 3.0, 10.0, 1.0, 9.0, 2.0, 8.0, 5.0, 4.0, 6.0];
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 99.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 10.0), Some(1.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 1000 samples 1..=1000: p99 is the 990th, with 10 samples beyond.
        let big: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(beyond(&big, 99.0), 10);
        assert_eq!(percentile(&big, 50.0), Some(500.0));
    }

    #[test]
    fn median_takes_the_midpoint() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
