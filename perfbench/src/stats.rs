//! Order statistics for reporting timings.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` with at least ten samples beyond
/// it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent of the samples at or below `value`.
    pub percentile: f64,
    /// Samples beyond `value` (10 unless there are fewer than 11
    /// samples, when the tail is the maximum and nothing lies beyond).
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The tail of `values`: the 11th-largest sample, so that ten lie beyond
/// it. With fewer than 11 samples no percentile qualifies; the maximum is
/// reported with `beyond == 0`.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let (index, beyond) = if n > 10 { (n - 11, 10) } else { (n - 1, 0) };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond,
        samples: n,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=42).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.beyond, t.samples), (32.0, 10, 42));
        assert!((t.percentile - 100.0 * 32.0 / 42.0).abs() < 1e-9);
        let few = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((few.value, few.beyond), (5.0, 0));
    }
}
