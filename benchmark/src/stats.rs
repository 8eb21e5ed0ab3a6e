//! Order statistics for the reports: medians, quartiles and guarded tails.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them, so spreads computed here
/// and by an outside checker agree. Fewer than two samples have no spread:
/// all three cut points collapse onto the single value.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Summary {
            median: x,
            q1: x,
            q3: x,
            n: m,
        };
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n: m,
    }
}

/// The `p`-quantile (0 < p < 1) of `values`, or `None` when fewer than ten
/// samples lie beyond it: a tail read off a handful of samples does not
/// repeat, so it is refused rather than printed.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(
        p > 0.0 && p < 1.0,
        "percentile must lie strictly inside (0, 1)"
    );
    let v = sorted(values);
    let idx = (v.len() as f64 * p).ceil() as usize;
    let beyond = v.len().saturating_sub(idx);
    (beyond >= 10).then(|| v[idx - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([9, 10, 11, 10], n=4) == [9.25, 10.0, 10.75]
        let s = summarize(&[9.0, 10.0, 11.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (9.25, 10.0, 10.75));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 0.95),
            None,
            "199 samples leave 9 beyond p95"
        );
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some(189.0));
        assert_eq!(tail_percentile(&[1.0, 2.0, 3.0], 0.5), None);
    }
}
