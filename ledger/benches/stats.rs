//! Sample statistics, total on hostile input: empty slices and NaN /
//! infinite samples never panic — non-finite samples are dropped and an
//! empty remainder yields `None`.

/// The finite samples of `xs`, ascending.
fn finite_sorted(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Smallest finite sample.
pub fn min(xs: &[f64]) -> Option<f64> {
    finite_sorted(xs).first().copied()
}

/// Largest finite sample.
pub fn max(xs: &[f64]) -> Option<f64> {
    finite_sorted(xs).last().copied()
}

/// Mean of the finite samples.
pub fn mean(xs: &[f64]) -> Option<f64> {
    let v = finite_sorted(xs);
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// The three quartile cut points of the finite samples, computed exactly
/// as Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method)
/// does — the rule the benchmark contract states its spreads in. Needs at
/// least two finite samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = finite_sorted(xs);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let n = 4;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Median of the finite samples (mean of the middle two when even).
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = finite_sorted(xs);
    match v.len() {
        0 => None,
        m if m % 2 == 1 => Some(v[m / 2]),
        m => Some((v[m / 2 - 1] + v[m / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the median
/// — the run-to-run spread the contract compares with a metric's bound.
/// `None` below two finite samples or on a zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_total_on_empty_and_nan_input() {
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartile_spread(&[]), None);
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        assert_eq!(min(&hostile), None);
        assert_eq!(median(&hostile), None);
        assert_eq!(quartiles(&hostile), None);
        assert_eq!(quartile_spread(&[f64::NAN, 1.0]), None, "one finite sample");
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None, "zero median");
        assert_eq!(min(&[3.0, f64::NAN, 1.0]), Some(1.0));
        assert_eq!(max(&[3.0, f64::NAN, 1.0]), Some(3.0));
        assert_eq!(median(&[3.0, f64::NAN, 1.0]), Some(2.0));
        assert_eq!(mean(&[3.0, f64::NAN, 1.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartile_spread(&xs), Some(1.0));
    }
}
