//! The three parametric laws the fleet model draws from.
//!
//! Handler times and payload sizes are log-normal, congestion jitter and
//! renewal holding times are exponential, and stalls and congestion excess
//! are bounded-Pareto. The catalog generator calibrates per-method medians
//! and tail ratios to the statistics published in the paper, so the
//! log-normal's quantiles are analytic. All constructors are fallible and
//! reject non-finite or out-of-domain parameters.

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

/// Exponential distribution with the given rate (1 / mean).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns an error unless `mean` is finite and positive, and its
    /// rate `1 / mean` is finite.
    pub fn from_mean(mean: f64) -> Result<Self, DistError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(DistError::new("exponential mean"));
        }
        let rate = 1.0 / mean;
        if !rate.is_finite() {
            return Err(DistError::new("exponential rate"));
        }
        Ok(Exponential { rate })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        -rng.next_f64_open().ln() / self.rate
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
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(DistError::new("lognormal sigma"));
        }
        Ok(LogNormal {
            mu: median.ln(),
            sigma,
        })
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

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        (self.mu + self.sigma * rng.next_gaussian()).exp()
    }
}

/// Pareto distribution truncated at `x_max` (inverse-CDF sampling), used
/// where a physical cap exists: queue stalls and congestion excess.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    /// `x_min^alpha`.
    la: f64,
    /// `x_max^alpha`.
    ha: f64,
    /// `ha * la`, the inverse CDF's divisor.
    ha_la: f64,
    /// `-1 / alpha`, the inverse CDF's outer exponent.
    neg_inv_alpha: f64,
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
        let la = x_min.powf(alpha);
        let ha = x_max.powf(alpha);
        Ok(BoundedPareto {
            la,
            ha,
            ha_la: ha * la,
            neg_inv_alpha: -1.0 / alpha,
        })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        let u = rng.next_f64();
        // Inverse CDF of the truncated Pareto.
        (-(u * self.ha - u * self.la - self.ha) / self.ha_la).powf(self.neg_inv_alpha)
    }
}

/// Approximate inverse of the standard normal CDF (Acklam's algorithm,
/// relative error < 1.15e-9).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
fn inverse_normal_cdf(p: f64) -> f64 {
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
    use crate::time::SimDuration;

    fn sample_n(mut draw: impl FnMut(&mut Prng) -> f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Prng::seed_from(seed);
        (0..n).map(|_| draw(&mut rng)).collect()
    }

    fn empirical_quantile(samples: &mut [f64], q: f64) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[((samples.len() - 1) as f64 * q) as usize]
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        assert!(Exponential::from_mean(0.0).is_err());
        assert!(Exponential::from_mean(-1.0).is_err());
        assert!(Exponential::from_mean(f64::INFINITY).is_err());
        // 1 / 1e-310 overflows to an infinite rate.
        assert!(Exponential::from_mean(1e-310).is_err());
        assert!(LogNormal::from_median_sigma(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::from_median_sigma(1.0, -0.1).is_err());
        assert!(LogNormal::from_median_sigma(1.0, f64::NAN).is_err());
        assert!(LogNormal::from_median_sigma(0.0, 1.0).is_err());
        assert!(BoundedPareto::new(5.0, 5.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 10.0, 0.0).is_err());
        assert!(BoundedPareto::new(-1.0, 10.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::from_mean(250.0).unwrap();
        let samples = sample_n(|rng| d.sample(rng), 100_000, 1);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 250.0).abs() / 250.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_median_and_tail_are_calibrated() {
        let d = LogNormal::from_median_sigma(1000.0, 1.5).unwrap();
        let mut samples = sample_n(|rng| d.sample(rng), 200_000, 2);
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
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(2.0, 2000.0, 0.8).unwrap();
        let samples = sample_n(|rng| d.sample(rng), 50_000, 4);
        assert!(samples.iter().all(|&x| (2.0..=2000.0).contains(&x)));
        // It must actually reach toward both ends.
        assert!(samples.iter().any(|&x| x < 4.0));
        assert!(samples.iter().any(|&x| x > 1000.0));
    }

    #[test]
    fn bounded_pareto_matches_its_tail_function() {
        let (lo, hi, alpha) = (64.0, 6400.0, 1.2);
        let d = BoundedPareto::new(lo, hi, alpha).unwrap();
        let samples = sample_n(|rng| d.sample(rng), 100_000, 3);
        assert!(samples.iter().all(|&x| x >= lo));
        // P(X > x) = ((lo / x)^alpha - (lo / hi)^alpha) / (1 - (lo / hi)^alpha):
        // at x = 640 that is (10^-1.2 - 100^-1.2) / (1 - 100^-1.2) ≈ 0.059.
        let floor = (lo / hi).powf(alpha);
        let expected = ((lo / 640.0).powf(alpha) - floor) / (1.0 - floor);
        let frac = samples.iter().filter(|&&x| x > 640.0).count() as f64 / samples.len() as f64;
        assert!(
            (frac - expected).abs() < 0.01,
            "tail fraction {frac}, expected {expected}"
        );
    }

    #[test]
    fn bounded_pareto_matches_the_per_draw_formula() {
        // The inverse CDF with every constant recomputed per draw; `sample`
        // must match it bit for bit.
        let reference = |x_min: f64, x_max: f64, alpha: f64, u: f64| {
            let la = x_min.powf(alpha);
            let ha = x_max.powf(alpha);
            (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
        };
        let secs = |us: u64| SimDuration::from_micros(us).as_secs_f64();
        for (x_min, x_max, alpha) in [
            (secs(300), secs(250_000), 1.05),  // rpcstack's SoftQueue stalls
            (secs(200), secs(60_000), 1.1),    // CongestionParams::fabric
            (secs(2_000), secs(900_000), 0.9), // CongestionParams::wan
            (1.0, 1e4, 0.05),
            (1.0, 1e4, 8.0),
        ] {
            let d = BoundedPareto::new(x_min, x_max, alpha).unwrap();
            let mut rng = Prng::seed_from(5);
            let mut shadow = rng.clone();
            for draw in 0..100_000 {
                let got = d.sample(&mut rng);
                let want = reference(x_min, x_max, alpha, shadow.next_f64());
                let inputs = format!("draw {draw}: x_min {x_min}, x_max {x_max}, alpha {alpha}");
                assert_eq!(got.to_bits(), want.to_bits(), "{inputs}: {got} vs {want}");
            }
        }
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

    #[test]
    fn samples_are_finite_and_in_domain() {
        let ln = LogNormal::from_median_sigma(100.0, 2.5).unwrap();
        let bp = BoundedPareto::new(1.0, 1e4, 0.5).unwrap();
        let ex = Exponential::from_mean(10.0).unwrap();
        let mut seeds = Prng::seed_from(0xD157_0001);
        let mut cases = vec![0, u64::MAX];
        cases.resize_with(64, || seeds.next_u64());
        for (case, seed) in cases.into_iter().enumerate() {
            let mut rng = Prng::seed_from(seed);
            for _ in 0..200 {
                let a = ln.sample(&mut rng);
                let b = bp.sample(&mut rng);
                let c = ex.sample(&mut rng);
                let inputs = format!("case {case}: seed {seed}, samples {a}, {b}, {c}");
                assert!(a.is_finite() && a > 0.0, "{inputs}");
                assert!(b.is_finite() && (1.0..=1e4).contains(&b), "{inputs}");
                assert!(c.is_finite() && c >= 0.0, "{inputs}");
            }
        }
    }

    #[test]
    fn inverse_normal_cdf_is_monotone() {
        let (mut rng, hi) = (Prng::seed_from(0xD157_0002), 0.999f64.next_down());
        // The range's ends and the points where the tail approximation
        // hands over to the central one.
        let mut cases = vec![(0.001, hi), (0.001, 0.02425)];
        cases.extend([(0.02425, 0.97575), (0.97575, hi)]);
        let mut p = || 0.001 + rng.next_f64() * 0.998;
        cases.resize_with(64, || (p(), p()));
        for (case, (p1, p2)) in cases.into_iter().enumerate() {
            if p1 < p2 {
                let (a, b) = (inverse_normal_cdf(p1), inverse_normal_cdf(p2));
                assert!(a < b, "case {case}: p1 {p1}, p2 {p2}");
            }
        }
    }

    #[test]
    fn lognormal_quantile_agrees_with_inverse_cdf() {
        let mut rng = Prng::seed_from(0xD157_0003);
        let hi = (1e6f64.next_down(), 3f64.next_down(), 0.99f64.next_down());
        let mut cases = vec![(1.0, 0.0, 0.01), hi, (1.0, hi.1, 0.01), (hi.0, 0.0, hi.2)];
        cases.resize_with(64, || {
            let median = 1.0 + rng.next_f64() * (1e6 - 1.0);
            (median, rng.next_f64() * 3.0, 0.01 + rng.next_f64() * 0.98)
        });
        for (case, (median, sigma, q)) in cases.into_iter().enumerate() {
            let d = LogNormal::from_median_sigma(median, sigma).unwrap();
            let expected = (median.ln() + sigma * inverse_normal_cdf(q)).exp();
            let got = d.quantile(q);
            let inputs = format!("case {case}: median {median}, sigma {sigma}, q {q}");
            assert!(
                (got - expected).abs() <= 1e-9 * expected.max(1.0),
                "{inputs}"
            );
        }
    }
}
