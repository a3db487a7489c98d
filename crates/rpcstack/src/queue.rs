//! Soft queue models for the client-side and send-side queues.
//!
//! The server *receive* queue is modelled exactly by the worker pool
//! (`rpclens-cluster::pool`); the remaining queues in Fig. 9 — client
//! send, server send, client receive — are not worker-bound but wait for
//! CPU or network availability. They are modelled as load-coupled
//! exponential delays with a rare heavy-tail component: mostly negligible,
//! occasionally large, which is exactly the behaviour Fig. 13 reports
//! (median queueing in the hundreds of microseconds, P99 in the hundreds
//! of milliseconds for the worst methods).

use rpclens_simcore::dist::BoundedPareto;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::SimDuration;

/// Mean delay when the host is idle.
const BASE_MEAN: SimDuration = SimDuration::from_micros(10);
/// Extra mean delay per unit of utilization (scaled by `util^2`).
const UTIL_MEAN: SimDuration = SimDuration::from_micros(100);
/// Probability of a stall (GC pause, flow-control, socket backpressure).
const STALL_PROB: f64 = 0.003;
/// Minimum stall duration.
const STALL_MIN: SimDuration = SimDuration::from_micros(300);
/// Maximum stall duration.
const STALL_MAX: SimDuration = SimDuration::from_millis(250);
/// Pareto index of stall durations.
const STALL_ALPHA: f64 = 1.05;

/// A load-coupled soft queue.
#[derive(Debug, Clone)]
pub struct SoftQueue {
    stall: BoundedPareto,
}

impl SoftQueue {
    /// Samples the queueing delay for one message when the host is at
    /// `util` utilization (clamped to `[0, 1]`).
    pub fn delay(&self, util: f64, rng: &mut Prng) -> SimDuration {
        let util = util.clamp(0.0, 1.0);
        // Stall probability grows with utilization.
        let stall_prob = STALL_PROB * (1.0 + 3.0 * util * util);
        if rng.chance(stall_prob) {
            return SimDuration::from_secs_f64(self.stall.sample(rng));
        }
        let mean = BASE_MEAN.as_secs_f64() + UTIL_MEAN.as_secs_f64() * util * util;
        SimDuration::from_secs_f64(-rng.next_f64_open().ln() * mean)
    }
}

impl Default for SoftQueue {
    fn default() -> Self {
        let stall = BoundedPareto::new(
            STALL_MIN.as_secs_f64(),
            STALL_MAX.as_secs_f64(),
            STALL_ALPHA,
        )
        .expect("stall range is valid");
        SoftQueue { stall }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::stats::{percentile, sorted_finite};

    fn sample_delays(util: f64, n: usize, seed: u64) -> Vec<f64> {
        let q = SoftQueue::default();
        let mut rng = Prng::seed_from(seed);
        (0..n)
            .map(|_| q.delay(util, &mut rng).as_secs_f64())
            .collect()
    }

    #[test]
    fn idle_queues_are_fast() {
        let sorted = sorted_finite(sample_delays(0.0, 50_000, 1));
        let p50 = percentile(&sorted, 0.5).unwrap();
        assert!(p50 < 50e-6, "idle median {p50}s");
    }

    #[test]
    fn delay_grows_with_utilization() {
        let lo = sorted_finite(sample_delays(0.1, 50_000, 2));
        let hi = sorted_finite(sample_delays(0.9, 50_000, 2));
        let lo_p50 = percentile(&lo, 0.5).unwrap();
        let hi_p50 = percentile(&hi, 0.5).unwrap();
        assert!(hi_p50 > lo_p50 * 3.0, "lo {lo_p50}, hi {hi_p50}");
    }

    #[test]
    fn tail_is_orders_of_magnitude_above_median() {
        // Fig. 13's shape: tail queueing ≫ median queueing.
        let sorted = sorted_finite(sample_delays(0.6, 200_000, 3));
        let p50 = percentile(&sorted, 0.5).unwrap();
        let p999 = percentile(&sorted, 0.999).unwrap();
        let p9999 = percentile(&sorted, 0.9999).unwrap();
        assert!(p999 / p50 > 8.0, "p50 {p50}, p99.9 {p999}");
        assert!(p9999 / p50 > 40.0, "p50 {p50}, p99.99 {p9999}");
    }

    #[test]
    fn stalls_are_bounded() {
        let q = SoftQueue::default();
        let mut rng = Prng::seed_from(4);
        for _ in 0..200_000 {
            let d = q.delay(1.0, &mut rng);
            assert!(d <= SimDuration::from_millis(251), "delay {d}");
        }
    }

    #[test]
    fn out_of_range_utilization_is_clamped() {
        let q = SoftQueue::default();
        let mut rng = Prng::seed_from(5);
        // Must not panic or produce nonsense.
        let a = q.delay(-3.0, &mut rng);
        let b = q.delay(7.0, &mut rng);
        assert!(a < SimDuration::from_secs(1));
        assert!(b < SimDuration::from_secs(1));
    }

    #[test]
    fn deterministic_per_seed() {
        let q = SoftQueue::default();
        let mut a = Prng::seed_from(6);
        let mut b = Prng::seed_from(6);
        for _ in 0..1000 {
            assert_eq!(q.delay(0.5, &mut a), q.delay(0.5, &mut b));
        }
    }
}
