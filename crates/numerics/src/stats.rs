//! Small statistics helpers used by noise post-processing.

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "mean of empty slice");
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (divides by `n`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn variance(x: &[f64]) -> f64 {
    let m = mean(x);
    x.iter().map(|v| (v - m).powi(2)).sum::<f64>() / x.len() as f64
}

/// Sample variance (divides by `n − 1`).
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn sample_variance(x: &[f64]) -> f64 {
    assert!(x.len() >= 2, "sample variance needs at least two samples");
    let m = mean(x);
    x.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (x.len() - 1) as f64
}

/// Standard deviation (population).
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Running mean/variance accumulator (Welford's algorithm), used by the
/// Monte-Carlo transient-noise estimator where sample counts are large.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than one sample).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (`None` with fewer than two samples).
    pub fn sample_variance(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some(self.m2 / (self.n - 1) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&x), 2.5);
        assert_eq!(variance(&x), 1.25);
        assert!((sample_variance(&x) - 5.0 / 3.0).abs() < 1e-12);
        assert!((std_dev(&x) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_batch() {
        let x = [0.5, -1.5, 2.25, 3.0, -0.75];
        let mut rs = RunningStats::new();
        for &v in &x {
            rs.push(v);
        }
        assert_eq!(rs.count(), 5);
        assert!((rs.mean() - mean(&x)).abs() < 1e-12);
        assert!((rs.variance() - variance(&x)).abs() < 1e-12);
        assert!((rs.sample_variance().unwrap() - sample_variance(&x)).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut rs = RunningStats::new();
        assert_eq!(rs.variance(), 0.0);
        assert!(rs.sample_variance().is_none());
        rs.push(7.0);
        assert_eq!(rs.mean(), 7.0);
        assert!(rs.sample_variance().is_none());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_empty_panics() {
        let _ = mean(&[]);
    }
}
