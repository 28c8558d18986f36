//! Small statistics helpers for printing the paper's series.

/// Sorted copy of the input.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on the sorted data.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q));
    let v = sorted(values);
    let idx = ((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1);
    v[idx]
}

/// Median (0.5-quantile).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty data");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// CDF sample points `(value, cumulative fraction)` — what the paper's
/// CDF figures plot.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let v = sorted(values);
    let n = v.len() as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n))
        .collect()
}

/// A CDF as `value  fraction` rows, downsampled to about `max_rows`
/// evenly spaced points with the final point always included (so the
/// series visibly reaches 1.0). Empty input gives a placeholder row, and
/// fewer than `max_rows` points give every point.
pub fn cdf_lines(values: &[f64], max_rows: usize) -> Vec<String> {
    if values.is_empty() {
        return vec!["  (no data)".to_string()];
    }
    let points = cdf(values);
    let step = (points.len() / max_rows.max(1)).max(1);
    let mut out: Vec<String> = points
        .iter()
        .step_by(step)
        .map(|(x, f)| format!("  {x:8.1}  {f:.3}"))
        .collect();
    let last = points.len() - 1;
    if !last.is_multiple_of(step) {
        let (x, f) = points[last];
        out.push(format!("  {x:8.1}  {f:.3}"));
    }
    out
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.138).abs() < 0.01);
    }

    #[test]
    fn cdf_monotone() {
        let points = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0], (1.0, 1.0 / 3.0));
        assert_eq!(points[2], (3.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_median_panics() {
        let _ = median(&[]);
    }

    #[test]
    fn cdf_lines_never_panic_and_reach_one() {
        assert_eq!(cdf_lines(&[], 12), vec!["  (no data)".to_string()]);
        for n in [1usize, 2, 5, 11, 12, 13, 100] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let lines = cdf_lines(&values, 12);
            assert!(!lines.is_empty(), "n={n}");
            assert!(
                lines.last().expect("non-empty").contains("1.000"),
                "n={n}: CDF must end at 1.0, got {lines:?}"
            );
            assert!(lines.len() <= 14, "n={n}: too many rows ({})", lines.len());
        }
    }

    #[test]
    fn nan_values_sort_last_and_do_not_panic() {
        // total_cmp regression: partial_cmp().expect() used to panic here.
        let v = [2.0, f64::NAN, 1.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 2.0, "NaN sorts after every finite value");
        let points = cdf(&v);
        assert_eq!(points.len(), 3);
        assert!(points[2].0.is_nan());
    }
}
