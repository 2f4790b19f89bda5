//! Small summary-statistics helpers used by the experiment harnesses.
//!
//! The paper reports averages with min/max error bars (Figures 4, 5, 7) and
//! discusses variance of energy savings (§4.3). [`Summary`] captures exactly
//! those quantities from a set of per-client measurements.

/// Summary statistics over a sample of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean. Zero for an empty sample.
    pub mean: f64,
    /// Minimum observation. Zero for an empty sample.
    pub min: f64,
    /// Maximum observation. Zero for an empty sample.
    pub max: f64,
    /// Population standard deviation. Zero for an empty sample.
    pub std: f64,
}

impl Summary {
    /// Compute a summary from an iterator of observations.
    #[allow(clippy::should_implement_trait)] // deliberate: f64-only, not a FromIterator
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Summary {
        let mut n = 0usize;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        // Welford's online algorithm: numerically stable single pass.
        for x in iter {
            n += 1;
            let delta = x - mean;
            mean += delta / n as f64;
            m2 += delta * (x - mean);
            if x < min {
                min = x;
            }
            if x > max {
                max = x;
            }
        }
        if n == 0 {
            return Summary { n: 0, mean: 0.0, min: 0.0, max: 0.0, std: 0.0 };
        }
        Summary { n, mean, min, max, std: (m2 / n as f64).sqrt() }
    }
}

/// Linear least-squares fit `y = alpha + beta * x`.
///
/// Used by the proxy's bandwidth estimator (§3.2.2): "we executed a set of
/// microbenchmarks ... From these, we developed a linear cost function based
/// on the message size."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept (fixed per-message cost).
    pub alpha: f64,
    /// Slope (per-unit cost).
    pub beta: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
}

impl LinearFit {
    /// Fit from `(x, y)` samples. Requires at least two distinct x values;
    /// returns `None` otherwise.
    pub fn fit(samples: &[(f64, f64)]) -> Option<LinearFit> {
        let n = samples.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let sx: f64 = samples.iter().map(|s| s.0).sum();
        let sy: f64 = samples.iter().map(|s| s.1).sum();
        let mx = sx / nf;
        let my = sy / nf;
        let sxx: f64 = samples.iter().map(|s| (s.0 - mx) * (s.0 - mx)).sum();
        if sxx == 0.0 {
            return None;
        }
        let sxy: f64 = samples.iter().map(|s| (s.0 - mx) * (s.1 - my)).sum();
        let beta = sxy / sxx;
        let alpha = my - beta * mx;
        let ss_tot: f64 = samples.iter().map(|s| (s.1 - my) * (s.1 - my)).sum();
        let ss_res: f64 = samples
            .iter()
            .map(|s| {
                let pred = alpha + beta * s.0;
                (s.1 - pred) * (s.1 - pred)
            })
            .sum();
        let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
        Some(LinearFit { alpha, beta, r2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::from_iter(std::iter::empty());
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_iter([5.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn known_sample() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn exact_line_fits_perfectly() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let f = LinearFit::fit(&pts).unwrap();
        assert!((f.alpha - 3.0).abs() < 1e-9);
        assert!((f.beta - 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_fits_return_none() {
        assert!(LinearFit::fit(&[]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0)]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn noisy_line_has_reasonable_r2() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64;
                let noise = if i % 2 == 0 { 0.5 } else { -0.5 };
                (x, 10.0 + 4.0 * x + noise)
            })
            .collect();
        let f = LinearFit::fit(&pts).unwrap();
        assert!((f.beta - 4.0).abs() < 0.05);
        assert!(f.r2 > 0.99);
    }
}
