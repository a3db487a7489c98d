//! Markov-modulated congestion on network paths.
//!
//! The paper finds that although WAN congestion is often considered solved,
//! "network latency from congestion has a significant impact on the tail"
//! (§5.1). We model each path as alternating between a *calm* and a
//! *congested* state with exponentially distributed holding times. Calm
//! paths add small exponential queueing jitter; congested paths add
//! Pareto-tailed excess delay. Because state persists over time, tail
//! latency arrives in bursts — matching the episodic congestion the paper
//! describes rather than i.i.d. noise.

use rpclens_simcore::dist::{BoundedPareto, Exponential, Sample};
use rpclens_simcore::renewal::{AlternatingRenewal, RenewalParams};
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};

/// Congestion state of a single path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionState {
    /// Normal operation: small queueing jitter only.
    Calm,
    /// Congestion episode: heavy-tailed excess delay.
    Congested,
}

/// Parameters of the congestion process for one path class.
#[derive(Debug, Clone, Copy)]
pub struct CongestionParams {
    /// Mean duration of calm periods.
    pub calm_mean: SimDuration,
    /// Mean duration of congestion episodes.
    pub congested_mean: SimDuration,
    /// Mean queueing jitter while calm.
    pub calm_jitter_mean: SimDuration,
    /// Minimum excess delay while congested.
    pub congested_min: SimDuration,
    /// Maximum excess delay while congested.
    pub congested_max: SimDuration,
    /// Pareto tail index of congested excess delay (smaller = heavier).
    pub alpha: f64,
}

impl CongestionParams {
    /// Typical parameters for an intra-datacenter fabric path.
    pub fn fabric() -> Self {
        CongestionParams {
            calm_mean: SimDuration::from_secs(30),
            congested_mean: SimDuration::from_millis(400),
            calm_jitter_mean: SimDuration::from_micros(10),
            congested_min: SimDuration::from_micros(200),
            congested_max: SimDuration::from_millis(60),
            alpha: 1.1,
        }
    }

    /// Typical parameters for a WAN path; episodes are rarer but longer
    /// and add much larger excess delay.
    pub fn wan() -> Self {
        CongestionParams {
            calm_mean: SimDuration::from_secs(120),
            congested_mean: SimDuration::from_secs(2),
            calm_jitter_mean: SimDuration::from_micros(150),
            congested_min: SimDuration::from_millis(2),
            congested_max: SimDuration::from_millis(900),
            alpha: 0.9,
        }
    }

    /// The state trajectory's holding times: calm periods are the
    /// renewal process's up state, congestion episodes its down state.
    pub fn renewal(&self) -> RenewalParams {
        RenewalParams {
            up_mean: self.calm_mean,
            down_mean: self.congested_mean,
        }
    }

    /// Long-run fraction of time the path resides in its busy
    /// (congested) state: `congested_mean / (calm_mean + congested_mean)`,
    /// the alternating-renewal duty cycle.
    pub fn congested_duty_cycle(&self) -> f64 {
        self.renewal().duty_cycle()
    }

    /// Mean excess delay while congested, in seconds: the expectation of
    /// the truncated `Pareto(congested_min, congested_max, alpha)` draw
    /// [`CongestionProcess::queueing_delay`] samples in the busy state.
    pub fn congested_mean_excess_secs(&self) -> f64 {
        let l = self.congested_min.as_secs_f64().max(1e-9);
        let h = self.congested_max.as_secs_f64();
        let a = self.alpha;
        // Normalisation of the truncated tail.
        let c = 1.0 - (l / h).powf(a);
        if (a - 1.0).abs() < 1e-9 {
            // alpha = 1 limit of the closed form below.
            l * (h / l).ln() / c
        } else {
            a * l.powf(a) / c * (h.powf(1.0 - a) - l.powf(1.0 - a)) / (1.0 - a)
        }
    }
}

/// The lazily-evolved congestion process for one path: an
/// [`AlternatingRenewal`] trajectory (calm = up, congested = down) plus
/// the per-message delay distributions of each state.
///
/// State transitions are computed on demand when the path is queried, so
/// paths that carry no traffic cost nothing.
///
/// # Determinism contract
///
/// The process's own generator is reserved for the state *trajectory*,
/// which makes [`CongestionProcess::state_at`] a pure function of
/// `(construction seed, now)` — independent of who queries the path, how
/// often, in what order (within the trajectory's retention window), or
/// from which simulation shard. Per-message jitter is sampled from the
/// caller's generator in [`CongestionProcess::queueing_delay`], so
/// concurrent callers never perturb each other's delays either.
#[derive(Debug, Clone)]
pub struct CongestionProcess {
    trajectory: AlternatingRenewal,
    calm_jitter: Exponential,
    congested_excess: BoundedPareto,
}

impl CongestionProcess {
    /// Creates a process with its own random stream.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (zero means or an empty
    /// excess-delay range); the built-in parameter sets are always valid.
    pub fn new(params: CongestionParams, rng: Prng) -> Self {
        let calm_jitter = Exponential::from_mean(params.calm_jitter_mean.as_secs_f64())
            .expect("jitter mean must be positive");
        let congested_excess = BoundedPareto::new(
            params.congested_min.as_secs_f64().max(1e-9),
            params.congested_max.as_secs_f64(),
            params.alpha,
        )
        .expect("excess delay range must be non-empty");
        CongestionProcess {
            trajectory: AlternatingRenewal::new(params.renewal(), rng),
            calm_jitter,
            congested_excess,
        }
    }

    /// The state of the path at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` lies more than the trajectory's retention window
    /// behind the furthest instant this path was queried at (see
    /// [`AlternatingRenewal`]).
    pub fn state_at(&mut self, now: SimTime) -> CongestionState {
        if self.trajectory.is_down(now) {
            CongestionState::Congested
        } else {
            CongestionState::Calm
        }
    }

    /// Samples the queueing delay this path adds to a message sent at
    /// `now`, drawing the jitter from `rng`, and reports the state it was
    /// drawn in.
    ///
    /// The path's internal generator only advances the state trajectory
    /// (see the type-level determinism contract); the per-message jitter
    /// comes from the caller so that two callers sharing a path draw from
    /// their own independent streams.
    pub fn queueing_delay(
        &mut self,
        now: SimTime,
        rng: &mut Prng,
    ) -> (SimDuration, CongestionState) {
        let state = self.state_at(now);
        let secs = match state {
            CongestionState::Calm => self.calm_jitter.sample(rng),
            CongestionState::Congested => self.congested_excess.sample(rng),
        };
        (SimDuration::from_secs_f64(secs), state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(params: CongestionParams, seed: u64) -> CongestionProcess {
        CongestionProcess::new(params, Prng::seed_from(seed))
    }

    #[test]
    fn calm_delays_are_small_congested_are_larger() {
        let mut p = process(CongestionParams::fabric(), 1);
        let mut rng = Prng::seed_from(11);
        // Walk time forward and bucket delays by the reported state.
        let mut congested_min = SimDuration::from_secs(999);
        let mut saw_congestion = false;
        for i in 0..200_000u64 {
            let now = SimTime::from_nanos(i * 1_000_000); // 1 ms steps.
            let (d, state) = p.queueing_delay(now, &mut rng);
            assert_eq!(state, p.state_at(now));
            if state == CongestionState::Congested {
                saw_congestion = true;
                congested_min = congested_min.min(d);
            }
        }
        assert!(saw_congestion, "no congestion episode in 200 s");
        // Congested delays start above the configured minimum, which is
        // itself well above the calm mean.
        assert!(congested_min.as_nanos() >= 200_000, "{congested_min}");
    }

    #[test]
    fn mean_excess_matches_empirical_sample_mean() {
        // The analytic truncated-Pareto mean must agree with what the
        // process actually samples in the busy state — this is the number
        // the fault plane's derived brownout excess is built on.
        for (params, seed) in [
            (CongestionParams::wan(), 8),
            (CongestionParams::fabric(), 9),
        ] {
            let excess = BoundedPareto::new(
                params.congested_min.as_secs_f64(),
                params.congested_max.as_secs_f64(),
                params.alpha,
            )
            .unwrap();
            let mut rng = Prng::seed_from(seed);
            let n = 400_000;
            let sum: f64 = (0..n).map(|_| excess.sample(&mut rng)).sum();
            let empirical = sum / n as f64;
            let analytic = params.congested_mean_excess_secs();
            assert!(
                (empirical - analytic).abs() / analytic < 0.05,
                "empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn duty_cycle_accessor_matches_hand_computation() {
        let p = CongestionParams::fabric();
        let expected = 0.4 / 30.4;
        assert!((p.congested_duty_cycle() - expected).abs() < 1e-12);
        let w = CongestionParams::wan();
        assert!((w.congested_duty_cycle() - 2.0 / 122.0).abs() < 1e-12);
    }

    #[test]
    fn congested_delays_respect_bounds() {
        let params = CongestionParams::wan();
        let mut p = process(params, 4);
        let mut rng = Prng::seed_from(44);
        for i in 0..500_000u64 {
            let now = SimTime::from_nanos(i * 1_000_000);
            let (d, _) = p.queueing_delay(now, &mut rng);
            assert!(d <= SimDuration::from_millis(901), "delay {d} too large");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = process(CongestionParams::wan(), 5);
        let mut b = process(CongestionParams::wan(), 5);
        let mut ra = Prng::seed_from(55);
        let mut rb = Prng::seed_from(55);
        for i in 0..10_000u64 {
            let now = SimTime::from_nanos(i * 10_000_000);
            assert_eq!(
                a.queueing_delay(now, &mut ra),
                b.queueing_delay(now, &mut rb)
            );
        }
    }

    #[test]
    fn caller_jitter_draws_do_not_move_the_trajectory() {
        // One copy burns caller jitter draws on every query, the other
        // only reads states: both must see the same congestion episodes,
        // because the trajectory has its own generator.
        let mut noisy = process(CongestionParams::fabric(), 9);
        let mut quiet = process(CongestionParams::fabric(), 9);
        let mut jitter_rng = Prng::seed_from(99);
        for i in 0..400_000u64 {
            let now = SimTime::from_nanos(i * 250_000); // 0.25 ms grid to 100 s.
            let (_, state) = noisy.queueing_delay(now, &mut jitter_rng);
            assert_eq!(state, quiet.state_at(now), "diverged at {now}");
        }
    }
}
