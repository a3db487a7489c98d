//! Retry policies with exponential backoff and retry budgets.
//!
//! The paper's error analysis (§4.4) shows that failed RPCs waste real
//! fleet capacity, and that "unavailable"-class errors are transient by
//! nature — which is exactly what client retries exist to absorb. A naive
//! retry storm, however, amplifies overload, so production stacks pair
//! per-call backoff with a *retry budget*: retries may only consume a
//! bounded fraction of a client's successful traffic.

use crate::error::ErrorKind;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Exponential backoff with full jitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: SimDuration,
    /// Multiplier applied per attempt.
    pub multiplier: f64,
    /// Cap on any single delay.
    pub max: SimDuration,
    /// Maximum number of retry attempts (0 = no retries).
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: SimDuration::from_millis(5),
            multiplier: 2.0,
            max: SimDuration::from_secs(1),
            max_attempts: 3,
        }
    }
}

impl BackoffPolicy {
    /// The jittered delay before retry `attempt` (1-based), or `None`
    /// once attempts are exhausted.
    ///
    /// Full jitter: uniform in `[0, capped_exponential]`, the AWS
    /// recommendation that best de-synchronises retry storms.
    pub fn delay(&self, attempt: u32, rng: &mut Prng) -> Option<SimDuration> {
        if attempt == 0 || attempt > self.max_attempts {
            return None;
        }
        let exp = self.base.as_secs_f64() * self.multiplier.powi(attempt as i32 - 1);
        let capped = exp.min(self.max.as_secs_f64());
        Some(SimDuration::from_secs_f64(rng.next_f64() * capped))
    }

    /// Whether an error class is worth retrying at all: transient
    /// conditions yes; semantic failures no.
    pub fn retryable(kind: ErrorKind) -> bool {
        matches!(
            kind,
            ErrorKind::Unavailable | ErrorKind::NoResource | ErrorKind::Aborted
        )
    }
}

/// A token-bucket retry budget: retries spend tokens that successful
/// requests earn, bounding retry amplification under overload.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    /// Tokens earned per successful request.
    earn_rate: f64,
    /// Tokens spent per retry.
    spend: f64,
    /// Current balance.
    balance: f64,
    /// Balance cap.
    cap: f64,
}

impl RetryBudget {
    /// Creates a budget allowing roughly `ratio` retries per success,
    /// with burst capacity `cap` retries.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1` and `cap > 0`.
    pub fn new(ratio: f64, cap: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        assert!(cap > 0.0, "cap must be positive");
        RetryBudget {
            earn_rate: ratio,
            spend: 1.0,
            balance: cap,
            cap,
        }
    }

    /// Credits one successful request.
    pub fn on_success(&mut self) {
        self.balance = (self.balance + self.earn_rate).min(self.cap);
    }

    /// Attempts to spend a retry token; `false` means the budget is
    /// exhausted and the caller must surface the error instead.
    pub fn try_spend(&mut self) -> bool {
        // Epsilon absorbs accumulated floating-point error from repeated
        // fractional earns (100 x 0.1 sums just below 10.0).
        if self.balance + 1e-9 >= self.spend {
            self.balance = (self.balance - self.spend).max(0.0);
            true
        } else {
            false
        }
    }

    /// The current token balance.
    pub fn balance(&self) -> f64 {
        self.balance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_up_to_the_cap() {
        let p = BackoffPolicy {
            base: SimDuration::from_millis(10),
            multiplier: 2.0,
            max: SimDuration::from_millis(60),
            max_attempts: 5,
        };
        let mut rng = Prng::seed_from(1);
        // Jitter is uniform in [0, cap]; sample many to find the maxima.
        let max_delay = |attempt: u32, rng: &mut Prng| {
            (0..2000)
                .filter_map(|_| p.delay(attempt, rng))
                .map(|d| d.as_secs_f64())
                .fold(0.0f64, f64::max)
        };
        let m1 = max_delay(1, &mut rng);
        let m2 = max_delay(2, &mut rng);
        let m3 = max_delay(3, &mut rng);
        let m4 = max_delay(4, &mut rng);
        assert!((m1 - 0.010).abs() < 0.001, "attempt 1 max {m1}");
        assert!((m2 - 0.020).abs() < 0.002, "attempt 2 max {m2}");
        assert!((m3 - 0.040).abs() < 0.004, "attempt 3 max {m3}");
        // Capped at 60 ms.
        assert!((m4 - 0.060).abs() < 0.006, "attempt 4 max {m4}");
    }

    #[test]
    fn attempts_are_bounded() {
        let p = BackoffPolicy {
            max_attempts: 2,
            ..BackoffPolicy::default()
        };
        let mut rng = Prng::seed_from(2);
        assert!(p.delay(0, &mut rng).is_none());
        assert!(p.delay(1, &mut rng).is_some());
        assert!(p.delay(2, &mut rng).is_some());
        assert!(p.delay(3, &mut rng).is_none());
    }

    #[test]
    fn only_transient_errors_are_retryable() {
        assert!(BackoffPolicy::retryable(ErrorKind::Unavailable));
        assert!(BackoffPolicy::retryable(ErrorKind::NoResource));
        assert!(BackoffPolicy::retryable(ErrorKind::Aborted));
        assert!(!BackoffPolicy::retryable(ErrorKind::EntityNotFound));
        assert!(!BackoffPolicy::retryable(ErrorKind::NoPermission));
        assert!(!BackoffPolicy::retryable(ErrorKind::Cancelled));
        assert!(!BackoffPolicy::retryable(ErrorKind::DeadlineExceeded));
        assert!(!BackoffPolicy::retryable(ErrorKind::Internal));
    }

    #[test]
    fn budget_bounds_retry_amplification() {
        // 10% retry ratio: under total outage, at most the burst cap plus
        // earned tokens are spent.
        let mut b = RetryBudget::new(0.1, 10.0);
        let mut retries = 0;
        for _ in 0..200 {
            if b.try_spend() {
                retries += 1;
            }
        }
        assert_eq!(retries, 10, "burst cap only, nothing earned");
        // A stream of successes re-earns budget at the configured ratio.
        for _ in 0..100 {
            b.on_success();
        }
        let mut earned_retries = 0;
        while b.try_spend() {
            earned_retries += 1;
        }
        assert_eq!(earned_retries, 10, "0.1 x 100 successes");
    }

    #[test]
    fn budget_balance_caps() {
        let mut b = RetryBudget::new(1.0, 5.0);
        for _ in 0..100 {
            b.on_success();
        }
        assert!((b.balance() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn zero_ratio_panics() {
        let _ = RetryBudget::new(0.0, 1.0);
    }

    mod properties {
        use super::*;

        // The budget invariant: the balance never dips below zero and
        // never exceeds the cap, whatever the earn/spend interleaving.
        #[test]
        fn budget_balance_stays_in_bounds() {
            let mut rng = Prng::seed_from(0xB0D6_0001);
            let mut cases = vec![(0.01, 0.1, vec![]), (1.0, 50.0, vec![true; 511])];
            cases.push((0.01, 50.0, vec![false; 511]));
            cases.resize_with(64, || {
                let ops = (0..rng.index(512)).map(|_| rng.chance(0.5)).collect();
                (
                    0.01 + rng.next_f64() * 0.99,
                    0.1 + rng.next_f64() * 49.9,
                    ops,
                )
            });
            for (case, (ratio, cap, ops)) in cases.into_iter().enumerate() {
                let inputs = format!("case {case}: ratio {ratio}, cap {cap}, ops {ops:?}");
                let mut b = RetryBudget::new(ratio, cap);
                for earn in ops {
                    if earn {
                        b.on_success();
                    } else {
                        let _ = b.try_spend();
                    }
                    assert!(b.balance() >= 0.0, "balance {}; {inputs}", b.balance());
                    assert!(
                        b.balance() <= cap + 1e-9,
                        "balance {}; {inputs}",
                        b.balance()
                    );
                }
            }
        }

        // Retry amplification is bounded: however adversarial the
        // request stream, granted retries never exceed the burst cap
        // plus ratio x successes (modulo the documented epsilon).
        #[test]
        fn retries_bounded_by_ratio_times_successes() {
            let mut rng = Prng::seed_from(0xB0D6_0002);
            let mut cases = vec![(0.01, 0.1, vec![true]), (1.0, 20.0, vec![true; 511])];
            cases.push((1.0, 0.1, vec![false; 511]));
            cases.resize_with(64, || {
                let fail = (0..1 + rng.index(511)).map(|_| rng.chance(0.5)).collect();
                (
                    0.01 + rng.next_f64() * 0.99,
                    0.1 + rng.next_f64() * 19.9,
                    fail,
                )
            });
            for (case, (ratio, cap, fail)) in cases.into_iter().enumerate() {
                let inputs = format!("case {case}: ratio {ratio}, cap {cap}, {fail:?}");
                let mut b = RetryBudget::new(ratio, cap);
                let mut successes = 0u64;
                let mut retries = 0u64;
                for failed in fail {
                    if failed {
                        if b.try_spend() {
                            retries += 1;
                        }
                    } else {
                        successes += 1;
                        b.on_success();
                    }
                }
                let bound = cap + ratio * successes as f64 + 1e-6;
                assert!(retries as f64 <= bound, "{retries} retries; {inputs}");
            }
        }

        // Backoff delays never exceed the configured cap, and retries
        // past `max_attempts` are refused outright.
        #[test]
        fn backoff_delays_respect_cap() {
            let mut rng = Prng::seed_from(0xB0D6_0003);
            let mult_hi = 4f64.next_down();
            let mut cases = vec![(1, 1.0, 1, 0, 0, 0), (199, mult_hi, 1_999, 7, 11, u64::MAX)];
            cases.push((199, mult_hi, 1, 7, 7, 0));
            cases.resize_with(64, || {
                let (base, mult, max) = (
                    1 + rng.index(199),
                    1.0 + rng.next_f64() * 3.0,
                    1 + rng.index(1_999),
                );
                (base, mult, max, rng.index(8), rng.index(12), rng.next_u64())
            });
            for (case, (base_ms, multiplier, max_ms, max_attempts, attempt, seed)) in
                cases.into_iter().enumerate()
            {
                let (max_attempts, attempt) = (max_attempts as u32, attempt as u32);
                let p = BackoffPolicy {
                    base: SimDuration::from_millis(base_ms as u64),
                    multiplier,
                    max: SimDuration::from_millis(max_ms as u64),
                    max_attempts,
                };
                let inputs = format!("case {case}: {p:?}, attempt {attempt}, seed {seed}");
                match p.delay(attempt, &mut Prng::seed_from(seed)) {
                    Some(d) => {
                        assert!(attempt >= 1 && attempt <= max_attempts, "{inputs}");
                        assert!(d <= p.max, "delay {d}; {inputs}");
                    }
                    None => assert!(attempt == 0 || attempt > max_attempts, "{inputs}"),
                }
            }
        }
    }

    #[test]
    fn steady_state_amplification_matches_ratio() {
        // 1000 requests, 20% failing transiently once: with a 10% budget,
        // retry count stays near 100, not 200.
        let mut b = RetryBudget::new(0.1, 5.0);
        let mut rng = Prng::seed_from(3);
        let mut retries = 0;
        let mut surfaced = 0;
        for _ in 0..1000 {
            if rng.chance(0.2) {
                if b.try_spend() {
                    retries += 1;
                    b.on_success(); // The retry succeeded.
                } else {
                    surfaced += 1;
                }
            } else {
                b.on_success();
            }
        }
        assert!(retries <= 110, "retries {retries}");
        assert!(surfaced > 0, "budget must have throttled some retries");
    }
}
