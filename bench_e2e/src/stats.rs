//! The one definition of "median", "quartile" and "percentile" the
//! benchmark uses.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), because that is what the acceptance driver
//! computes over repeated runs — a spread measured here is the spread it
//! will see.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exclusive method. With fewer than two
/// values both quartiles collapse onto the single value (or `NaN`).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        // statistics.quantiles: j = i*(n+1) // 4, delta = i*(n+1) - j*4,
        // clamped to the data.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(p, value)`; `None` below eleven samples, where no tail percentile
/// is supported by the data.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 11; // ten samples lie strictly beyond v[idx]
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// Nearest-rank percentile `p` in `[0, 100]`; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self { n: values.len(), median: median(values), q1, q3 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_true_median_for_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, value) = tail_percentile(&v).unwrap();
        assert_eq!(value, 190.0);
        assert_eq!(p, 95.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(percentile(&v, 95.0), 40.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
    }
}
