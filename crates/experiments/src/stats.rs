//! Aggregation of trial measurements.

/// Summary statistics of a sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregate {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two points).
    pub stddev: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
}

impl Aggregate {
    /// Aggregate a sample.
    pub fn of(values: &[f64]) -> Aggregate {
        let count = values.len();
        if count == 0 {
            return Aggregate { count: 0, mean: 0.0, stddev: 0.0, min: 0.0, max: 0.0 };
        }
        let mean = values.iter().sum::<f64>() / count as f64;
        let stddev = if count < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64).sqrt()
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Aggregate { count, mean, stddev, min, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        let a = Aggregate::of(&[]);
        assert_eq!(a.count, 0);
        assert_eq!(a.mean, 0.0);
        assert_eq!(a.stddev, 0.0);
    }

    #[test]
    fn single_value() {
        let a = Aggregate::of(&[4.0]);
        assert_eq!(a.count, 1);
        assert_eq!(a.mean, 4.0);
        assert_eq!(a.stddev, 0.0);
        assert_eq!(a.min, 4.0);
        assert_eq!(a.max, 4.0);
    }

    #[test]
    fn known_sample() {
        let a = Aggregate::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((a.mean - 5.0).abs() < 1e-12);
        // Sample stddev with n-1 = sqrt(32/7).
        assert!((a.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(a.min, 2.0);
        assert_eq!(a.max, 9.0);
    }
}
