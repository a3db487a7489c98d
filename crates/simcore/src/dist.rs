//! Parametric distributions for workload and cost modelling.
//!
//! The fleet model needs heavy-tailed distributions whose quantiles can be
//! set analytically, because the catalog generator calibrates per-method
//! medians and tail ratios to the statistics published in the paper. All
//! constructors are fallible and reject non-finite or out-of-domain
//! parameters.

use crate::rng::Prng;
use std::fmt;

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError {
    what: &'static str,
}

impl DistError {
    fn new(what: &'static str) -> Self {
        DistError { what }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for DistError {}

/// A distribution over `f64` that can be sampled with a [`Prng`].
pub trait Sample: Send + Sync + fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut Prng) -> f64;

    /// The distribution mean, if it exists and is finite.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// A point mass: always returns the same value.
#[derive(Debug, Clone, Copy)]
pub struct Constant(pub f64);

impl Sample for Constant {
    fn sample(&self, _rng: &mut Prng) -> f64 {
        self.0
    }

    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the bounds are non-finite or `lo >= hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, DistError> {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(DistError::new("uniform bounds"));
        }
        Ok(Uniform { lo, hi })
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut Prng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }

    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential distribution with the given rate (1 / mean).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `rate`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Result<Self, DistError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(DistError::new("exponential rate"));
        }
        Ok(Exponential { rate })
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns an error unless `mean` is finite and positive.
    pub fn from_mean(mean: f64) -> Result<Self, DistError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(DistError::new("exponential mean"));
        }
        Self::new(1.0 / mean)
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Prng) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.rate)
    }
}

/// Log-normal distribution parameterised by `mu`/`sigma` of the underlying
/// normal.
///
/// The median is `exp(mu)` and quantile `q` is
/// `exp(mu + sigma * Phi^-1(q))`, which makes tail calibration direct: a
/// method whose P99/median latency ratio should be `r` uses
/// `sigma = ln(r) / 2.326`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal's `mu` and `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mu` is non-finite or `sigma` is negative or
    /// non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(DistError::new("lognormal mu/sigma"));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a log-normal with the given median (`exp(mu)`) and `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `median` is finite and positive and `sigma`
    /// is finite and non-negative.
    pub fn from_median_sigma(median: f64, sigma: f64) -> Result<Self, DistError> {
        if !median.is_finite() || median <= 0.0 {
            return Err(DistError::new("lognormal median"));
        }
        Self::new(median.ln(), sigma)
    }

    /// The distribution median.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The `sigma` of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The analytic quantile function.
    pub fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * inverse_normal_cdf(q)).exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut Prng) -> f64 {
        (self.mu + self.sigma * rng.next_gaussian()).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

/// Pareto distribution with scale `x_min` and shape `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are finite and positive.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self, DistError> {
        if !x_min.is_finite() || x_min <= 0.0 || !alpha.is_finite() || alpha <= 0.0 {
            return Err(DistError::new("pareto x_min/alpha"));
        }
        Ok(Pareto { x_min, alpha })
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut Prng) -> f64 {
        self.x_min / rng.next_f64_open().powf(1.0 / self.alpha)
    }

    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.x_min / (self.alpha - 1.0))
    }
}

/// Pareto distribution truncated at `x_max` (inverse-CDF sampling), used for
/// fan-out counts and message sizes where a physical cap exists.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    x_min: f64,
    x_max: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution on `[x_min, x_max]`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < x_min < x_max` and `alpha > 0`, all
    /// finite.
    pub fn new(x_min: f64, x_max: f64, alpha: f64) -> Result<Self, DistError> {
        if !x_min.is_finite() || !x_max.is_finite() || !alpha.is_finite() {
            return Err(DistError::new("bounded pareto finiteness"));
        }
        if x_min <= 0.0 || x_max <= x_min || alpha <= 0.0 {
            return Err(DistError::new("bounded pareto domain"));
        }
        Ok(BoundedPareto {
            x_min,
            x_max,
            alpha,
        })
    }
}

impl Sample for BoundedPareto {
    fn sample(&self, rng: &mut Prng) -> f64 {
        let u = rng.next_f64();
        let la = self.x_min.powf(self.alpha);
        let ha = self.x_max.powf(self.alpha);
        // Inverse CDF of the truncated Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Weibull distribution with scale `lambda` and shape `k`.
///
/// `k < 1` gives a heavier-than-exponential tail, a good fit for service
/// times with occasional very slow requests.
#[derive(Debug, Clone, Copy)]
pub struct Weibull {
    lambda: f64,
    k: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are finite and positive.
    pub fn new(lambda: f64, k: f64) -> Result<Self, DistError> {
        if !lambda.is_finite() || lambda <= 0.0 || !k.is_finite() || k <= 0.0 {
            return Err(DistError::new("weibull lambda/k"));
        }
        Ok(Weibull { lambda, k })
    }
}

impl Sample for Weibull {
    fn sample(&self, rng: &mut Prng) -> f64 {
        self.lambda * (-rng.next_f64_open().ln()).powf(1.0 / self.k)
    }
}

/// Adds a constant offset to another distribution's samples.
#[derive(Debug)]
pub struct Shifted<D> {
    inner: D,
    offset: f64,
}

impl<D: Sample> Shifted<D> {
    /// Wraps `inner`, adding `offset` to every sample.
    pub fn new(inner: D, offset: f64) -> Self {
        Shifted { inner, offset }
    }
}

impl<D: Sample> Sample for Shifted<D> {
    fn sample(&self, rng: &mut Prng) -> f64 {
        self.inner.sample(rng) + self.offset
    }

    fn mean(&self) -> Option<f64> {
        self.inner.mean().map(|m| m + self.offset)
    }
}

/// A finite mixture of component distributions with given weights.
///
/// Mixtures let the catalog model bimodal behaviour, e.g. a database method
/// that executes either a cheap point lookup or an expensive scan
/// (the paper's F1 observation, §3.3.1).
#[derive(Debug)]
pub struct Mixture {
    components: Vec<Box<dyn Sample>>,
    cumulative: Vec<f64>,
}

impl Mixture {
    /// Creates a mixture from `(weight, component)` pairs.
    ///
    /// Weights are normalised internally.
    ///
    /// # Errors
    ///
    /// Returns an error if no components are given, or any weight is
    /// negative/non-finite, or all weights are zero.
    pub fn new(parts: Vec<(f64, Box<dyn Sample>)>) -> Result<Self, DistError> {
        if parts.is_empty() {
            return Err(DistError::new("mixture needs at least one component"));
        }
        let total: f64 = parts.iter().map(|(w, _)| *w).sum();
        if !total.is_finite() || total <= 0.0 || parts.iter().any(|(w, _)| *w < 0.0) {
            return Err(DistError::new("mixture weights"));
        }
        let mut cumulative = Vec::with_capacity(parts.len());
        let mut components = Vec::with_capacity(parts.len());
        let mut acc = 0.0;
        for (w, c) in parts {
            acc += w / total;
            cumulative.push(acc);
            components.push(c);
        }
        // Guard against floating point slack at the top.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(Mixture {
            components,
            cumulative,
        })
    }
}

impl Sample for Mixture {
    fn sample(&self, rng: &mut Prng) -> f64 {
        let u = rng.next_f64();
        let idx = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.components.len() - 1);
        self.components[idx].sample(rng)
    }
}

/// Approximate inverse of the standard normal CDF (Acklam's algorithm,
/// relative error < 1.15e-9).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_n(dist: &dyn Sample, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Prng::seed_from(seed);
        (0..n).map(|_| dist.sample(&mut rng)).collect()
    }

    fn empirical_quantile(samples: &mut [f64], q: f64) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[((samples.len() - 1) as f64 * q) as usize]
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 2.0).is_err());
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::from_mean(-1.0).is_err());
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, -0.1).is_err());
        assert!(LogNormal::from_median_sigma(0.0, 1.0).is_err());
        assert!(Pareto::new(-1.0, 2.0).is_err());
        assert!(BoundedPareto::new(5.0, 5.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 10.0, 0.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(0.0, Box::new(Constant(1.0)) as Box<dyn Sample>)]).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::from_mean(250.0).unwrap();
        let samples = sample_n(&d, 100_000, 1);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 250.0).abs() / 250.0 < 0.02, "mean {mean}");
        assert_eq!(d.mean(), Some(250.0));
    }

    #[test]
    fn lognormal_median_and_tail_are_calibrated() {
        let d = LogNormal::from_median_sigma(1000.0, 1.5).unwrap();
        let mut samples = sample_n(&d, 200_000, 2);
        let med = empirical_quantile(&mut samples, 0.5);
        assert!((med - 1000.0).abs() / 1000.0 < 0.05, "median {med}");
        let p99 = empirical_quantile(&mut samples, 0.99);
        let expected_p99 = d.quantile(0.99);
        assert!(
            (p99 - expected_p99).abs() / expected_p99 < 0.1,
            "p99 {p99} expected {expected_p99}"
        );
    }

    #[test]
    fn lognormal_analytic_quantiles_are_monotone() {
        let d = LogNormal::from_median_sigma(10.0, 2.0).unwrap();
        let qs: Vec<f64> = [0.01, 0.1, 0.5, 0.9, 0.99]
            .iter()
            .map(|&q| d.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] < w[1]), "{qs:?}");
        assert!((d.quantile(0.5) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn pareto_respects_minimum_and_tail_index() {
        let d = Pareto::new(64.0, 1.2).unwrap();
        let samples = sample_n(&d, 100_000, 3);
        assert!(samples.iter().all(|&x| x >= 64.0));
        // P(X > x) = (x_min / x)^alpha: check at x = 640 -> 10^-1.2 ≈ 0.063.
        let frac = samples.iter().filter(|&&x| x > 640.0).count() as f64 / samples.len() as f64;
        assert!((frac - 0.063).abs() < 0.01, "tail fraction {frac}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(2.0, 2000.0, 0.8).unwrap();
        let samples = sample_n(&d, 50_000, 4);
        assert!(samples.iter().all(|&x| (2.0..=2000.0).contains(&x)));
        // It must actually reach toward both ends.
        assert!(samples.iter().any(|&x| x < 4.0));
        assert!(samples.iter().any(|&x| x > 1000.0));
    }

    #[test]
    fn weibull_median_matches_analytic() {
        // Median of Weibull(lambda, k) is lambda * ln(2)^(1/k).
        let d = Weibull::new(100.0, 0.7).unwrap();
        let mut samples = sample_n(&d, 100_000, 5);
        let med = empirical_quantile(&mut samples, 0.5);
        let expected = 100.0 * (2f64).ln().powf(1.0 / 0.7);
        assert!((med - expected).abs() / expected < 0.03, "median {med}");
    }

    #[test]
    fn shifted_offsets_all_samples() {
        let d = Shifted::new(Constant(5.0), 10.0);
        let mut rng = Prng::seed_from(6);
        assert_eq!(d.sample(&mut rng), 15.0);
        assert_eq!(d.mean(), Some(15.0));
    }

    #[test]
    fn mixture_honours_weights() {
        let m = Mixture::new(vec![
            (0.8, Box::new(Constant(1.0)) as Box<dyn Sample>),
            (0.2, Box::new(Constant(100.0)) as Box<dyn Sample>),
        ])
        .unwrap();
        let samples = sample_n(&m, 100_000, 7);
        let big = samples.iter().filter(|&&x| x > 50.0).count() as f64 / samples.len() as f64;
        assert!((big - 0.2).abs() < 0.01, "big fraction {big}");
    }

    #[test]
    fn inverse_normal_cdf_matches_known_points() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.99) - 2.326348).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.01) + 2.326348).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn inverse_normal_cdf_rejects_zero() {
        inverse_normal_cdf(0.0);
    }

    proptest! {
        #[test]
        fn samples_are_finite_and_in_domain(seed: u64) {
            let mut rng = Prng::seed_from(seed);
            let ln = LogNormal::from_median_sigma(100.0, 2.5).unwrap();
            let pa = Pareto::new(1.0, 0.5).unwrap();
            let we = Weibull::new(10.0, 0.5).unwrap();
            for _ in 0..200 {
                let a = ln.sample(&mut rng);
                prop_assert!(a.is_finite() && a > 0.0);
                let b = pa.sample(&mut rng);
                prop_assert!(b.is_finite() && b >= 1.0);
                let c = we.sample(&mut rng);
                prop_assert!(c.is_finite() && c >= 0.0);
            }
        }

        #[test]
        fn inverse_normal_cdf_is_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
            if p1 < p2 {
                prop_assert!(inverse_normal_cdf(p1) < inverse_normal_cdf(p2));
            }
        }

        #[test]
        fn lognormal_quantile_agrees_with_inverse_cdf(
            median in 1.0f64..1e6,
            sigma in 0.0f64..3.0,
            q in 0.01f64..0.99,
        ) {
            let d = LogNormal::from_median_sigma(median, sigma).unwrap();
            let expected = (median.ln() + sigma * inverse_normal_cdf(q)).exp();
            prop_assert!((d.quantile(q) - expected).abs() <= 1e-9 * expected.max(1.0));
        }
    }
}
