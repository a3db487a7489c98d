//! An exact FIFO M/G/k worker pool.
//!
//! Server receive-queue latency in the paper ("Server Recv Queue", Fig. 9)
//! is the time a request waits for a worker thread. With FIFO dispatch the
//! waiting time can be computed exactly without simulating individual
//! worker threads: track the next-free instant of each of the `k` workers
//! in a min-heap; an arrival starts on the earliest-free worker.

use rpclens_simcore::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of admitting one request to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// How long the request waited for a worker.
    pub queue_delay: SimDuration,
    /// When the request began executing.
    pub start: SimTime,
    /// When the request finished executing.
    pub finish: SimTime,
}

/// A fixed-size FIFO worker pool.
///
/// # Examples
///
/// ```
/// use rpclens_cluster::pool::WorkerPool;
/// use rpclens_simcore::time::{SimDuration, SimTime};
///
/// let mut pool = WorkerPool::new(1);
/// let a = pool.admit(SimTime::ZERO, SimDuration::from_millis(10));
/// let b = pool.admit(SimTime::ZERO, SimDuration::from_millis(10));
/// assert_eq!(a.queue_delay, SimDuration::ZERO);
/// assert_eq!(b.queue_delay, SimDuration::from_millis(10));
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    free_at: BinaryHeap<Reverse<SimTime>>,
    workers: usize,
    busy_ns: u128,
    admitted: u64,
    total_queue_ns: u128,
}

impl WorkerPool {
    /// Creates a pool with `workers` workers, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let mut free_at = BinaryHeap::with_capacity(workers);
        for _ in 0..workers {
            free_at.push(Reverse(SimTime::ZERO));
        }
        WorkerPool {
            free_at,
            workers,
            busy_ns: 0,
            admitted: 0,
            total_queue_ns: 0,
        }
    }

    /// Admits a request arriving at `now` that needs `service` time,
    /// returning when it starts and finishes.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> Admission {
        let Reverse(free) = self.free_at.pop().expect("pool is never empty");
        let start = now.max(free);
        let finish = start + service;
        self.free_at.push(Reverse(finish));
        let queue_delay = start.since(now);
        self.busy_ns += service.as_nanos() as u128;
        self.admitted += 1;
        self.total_queue_ns += queue_delay.as_nanos() as u128;
        Admission {
            queue_delay,
            start,
            finish,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total requests admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Mean queueing delay over all admissions, or `None` if none.
    pub fn mean_queue_delay(&self) -> Option<SimDuration> {
        (self.admitted > 0)
            .then(|| SimDuration::from_nanos((self.total_queue_ns / self.admitted as u128) as u64))
    }

    /// Average utilization of the pool over `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        assert!(horizon.as_nanos() > 0, "horizon must be positive");
        self.busy_ns as f64 / (self.workers as f64 * horizon.as_nanos() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::rng::Prng;

    #[test]
    fn idle_pool_starts_immediately() {
        let mut p = WorkerPool::new(4);
        let a = p.admit(SimTime::from_nanos(100), SimDuration::from_nanos(50));
        assert_eq!(a.queue_delay, SimDuration::ZERO);
        assert_eq!(a.start.as_nanos(), 100);
        assert_eq!(a.finish.as_nanos(), 150);
    }

    #[test]
    fn k_parallel_requests_do_not_queue_but_k_plus_one_does() {
        let mut p = WorkerPool::new(3);
        let t = SimTime::ZERO;
        let s = SimDuration::from_millis(1);
        for _ in 0..3 {
            assert_eq!(p.admit(t, s).queue_delay, SimDuration::ZERO);
        }
        let fourth = p.admit(t, s);
        assert_eq!(fourth.queue_delay, s);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = WorkerPool::new(1);
        let a = p.admit(SimTime::from_nanos(0), SimDuration::from_nanos(100));
        let b = p.admit(SimTime::from_nanos(10), SimDuration::from_nanos(100));
        let c = p.admit(SimTime::from_nanos(20), SimDuration::from_nanos(100));
        assert!(a.finish <= b.start && b.finish <= c.start);
        assert_eq!(c.queue_delay.as_nanos(), 180);
    }

    #[test]
    fn utilization_and_busy_time_accumulate() {
        let mut p = WorkerPool::new(2);
        p.admit(SimTime::ZERO, SimDuration::from_secs(1));
        p.admit(SimTime::ZERO, SimDuration::from_secs(1));
        assert!((p.utilization(SimDuration::from_secs(2)) - 0.5).abs() < 1e-12);
        assert_eq!(p.admitted(), 2);
    }

    #[test]
    fn queue_delay_statistics_track_extremes() {
        let mut p = WorkerPool::new(1);
        p.admit(SimTime::ZERO, SimDuration::from_millis(10));
        p.admit(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(p.mean_queue_delay().unwrap(), SimDuration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn mm1_queueing_matches_theory() {
        // M/M/1 with rho = 0.7: mean wait = rho / (mu - lambda).
        let mut p = WorkerPool::new(1);
        let mut rng = Prng::seed_from(1);
        let mu = 1000.0; // services/sec
        let lambda = 700.0;
        let mut now = SimTime::ZERO;
        let n = 200_000;
        for _ in 0..n {
            let inter = -rng.next_f64_open().ln() / lambda;
            now += SimDuration::from_secs_f64(inter);
            let service = SimDuration::from_secs_f64(-rng.next_f64_open().ln() / mu);
            p.admit(now, service);
        }
        let expected_wait_s = 0.7 / (mu - lambda);
        let got = p.mean_queue_delay().unwrap().as_secs_f64();
        assert!(
            (got - expected_wait_s).abs() / expected_wait_s < 0.1,
            "mean wait {got}, theory {expected_wait_s}"
        );
    }

    #[test]
    fn invariants_hold_for_random_arrivals() {
        let mut rng = Prng::seed_from(0x9001);
        let burst = vec![(0, 9_999); 199];
        let mut cases = vec![(vec![(0, 1)], 1), (vec![(999_999, 9_999)], 7)];
        cases.extend([(burst.clone(), 1), (burst, 7)]);
        cases.resize_with(64, || {
            let len = 1 + rng.index(199);
            let arrivals = (0..len).map(|_| (rng.next_below(1_000_000), 1 + rng.next_below(9_999)));
            (arrivals.collect(), 1 + rng.index(7))
        });
        for (case, (arrivals, workers)) in cases.into_iter().enumerate() {
            let inputs = format!("case {case}: {workers} workers, arrivals {arrivals:?}");
            let mut sorted = arrivals.clone();
            sorted.sort();
            let mut p = WorkerPool::new(workers);
            let mut last_start = SimTime::ZERO;
            for (at, svc) in sorted {
                let a = p.admit(SimTime::from_nanos(at), SimDuration::from_nanos(svc));
                // Start is never before arrival; finish = start + service.
                assert!(a.start >= SimTime::from_nanos(at), "{inputs}");
                assert_eq!(a.finish, a.start + SimDuration::from_nanos(svc), "{inputs}");
                // FIFO: starts are non-decreasing when arrivals are sorted.
                assert!(a.start >= last_start, "{inputs}");
                last_start = a.start;
            }
        }
    }
}
