//! Order statistics over host timings.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it, so it never rests on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` percentile (`0 < q < 1`), or `None` unless at
/// least [`MIN_BEYOND`] samples rank beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted(values)[rank - 1])
}

/// The element-wise minimum of equally long series (the common prefix
/// when their lengths differ).
///
/// # Panics
///
/// Panics when given no series.
pub fn elementwise_min(series: &[&[f64]]) -> Vec<f64> {
    let (first, rest) = series.split_first().expect("minimum of no series");
    let mut min = first.to_vec();
    for s in rest {
        min.truncate(s.len());
        for (m, &v) in min.iter_mut().zip(s.iter()) {
            *m = m.min(v);
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn elementwise_min_takes_each_position_apart() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 6.0];
        assert_eq!(elementwise_min(&[&a, &b]), vec![2.0, 1.0, 5.0]);
        assert_eq!(elementwise_min(&[&a, &b[..2]]), vec![2.0, 1.0]);
        assert_eq!(elementwise_min(&[&a]), a.to_vec());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        assert_eq!(tail_percentile(&hundred[..10], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        // Unsorted input gives the same answer.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled, 0.9), Some(90.0));
    }
}
