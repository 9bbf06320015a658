//! Sample statistics for the benchmark's reports.
//!
//! Timings are summarised by their median and by the highest standard
//! percentile that still has at least [`TAIL_BEYOND`] samples above it,
//! so a tail is never read off one or two outliers. Ratios keep their
//! numerator and denominator so every printed ratio shows its base.

/// Samples a tail percentile must have strictly beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0–100) of sorted `v`: the value at
/// 1-based rank `ceil(p/100 · n)`.
fn nearest_rank(v: &[f64], p: f64) -> (usize, f64) {
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (rank, v[rank - 1])
}

/// The highest percentile of [`LADDER`] with at least [`TAIL_BEYOND`]
/// samples beyond it, as `(percentile, value)`; `None` when even the
/// median lacks that many (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    LADDER.iter().find_map(|&p| {
        if v.is_empty() {
            return None;
        }
        let (rank, value) = nearest_rank(&v, p);
        (v.len() - rank >= TAIL_BEYOND).then_some((p, value))
    })
}

/// The percentile `p` of `values` if it has at least [`TAIL_BEYOND`]
/// samples beyond it (`p90` needs at least 100 samples).
pub fn percentile_with_tail(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let (rank, value) = nearest_rank(&v, p);
    (v.len() - rank >= TAIL_BEYOND).then_some(value)
}

/// A ratio that remembers its base.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// The quotient, 0 when the denominator is 0.
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `value (num/den)`, for human-readable reports.
    pub fn describe(self) -> String {
        format!("{:.4} ({}/{})", self.value(), self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median (rank 10) has only 9 beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        // 20 samples: p50 is rank 10 with 10 beyond; p75 (rank 15) has 5.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 40 samples: p75 is rank 30 with 10 beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 has 5.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }

    #[test]
    fn fixed_percentile_is_withheld_without_enough_tail() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 90.0), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 90.0), Some(90.0));
        assert_eq!(percentile_with_tail(&[], 50.0), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.describe(), "0.7500 (3/4)");
        assert_eq!(Ratio::new(1.0, 0.0).value(), 0.0);
    }
}
