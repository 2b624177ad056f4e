//! Order statistics.

/// A percentile must have at least this many samples above it to be
/// reported as an end-to-end figure.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`,
/// with the number of samples ranked above it.  `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// [`percentile`], but only when at least [`MIN_BEYOND`] samples lie
/// above it — the highest percentile a run of `sorted.len()` samples can
/// honestly report.
pub fn reportable_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    percentile(sorted, p).and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some((500, 500)));
        assert_eq!(percentile(&v, 99.0), Some((990, 10)));
        assert_eq!(percentile(&v, 100.0), Some((1000, 0)));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.0), Some((7, 0)));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let ok: Vec<u64> = (0..1000).collect();
        let short: Vec<u64> = (0..999).collect();
        assert_eq!(reportable_percentile(&ok, 99.0), Some(989));
        assert_eq!(reportable_percentile(&short, 99.0), None);
        // The median of 21 samples has ten above it; of 20, ten too.
        assert!(reportable_percentile(&(0..21).collect::<Vec<_>>(), 50.0).is_some());
        assert!(reportable_percentile(&(0..19).collect::<Vec<_>>(), 50.0).is_none());
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
