//! Analytic M/G/k queue-wait sampling.
//!
//! The fleet driver simulates a *sampled* slice of production traffic: the
//! traced RPCs are a tiny fraction of the load a real server pool carries,
//! so their queueing delay is dominated by the background traffic captured
//! in the machine's utilization. This module samples the waiting time a
//! request experiences at a pool running at utilization `rho`, using the
//! Erlang-C waiting probability and the standard exponential approximation
//! of the conditional wait (Allen-Cunneen), with a heavy-tailed correction
//! for service-time variability.

use rpclens_simcore::bracket::Bracket;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::SimDuration;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Erlang-C: probability an arrival must wait in an M/M/k system with
/// `k` servers at offered utilization `rho` (per-server, in `[0, 1)`).
///
/// Returns 1.0 as `rho -> 1` and 0.0 for `rho <= 0`.
pub fn erlang_c(k: u32, rho: f64) -> f64 {
    if rho <= 0.0 {
        return 0.0;
    }
    if rho >= 1.0 {
        return 1.0;
    }
    let k = k.max(1);
    let a = rho * k as f64; // Offered load in Erlangs.
                            // Compute the Erlang-C formula in a numerically stable way via the
                            // iterative Erlang-B recursion: B(0) = 1, B(j) = a*B(j-1)/(j + a*B(j-1)).
    let mut b = 1.0;
    for j in 1..=k {
        b = a * b / (j as f64 + a * b);
    }
    // C = B / (1 - rho*(1 - B)).
    b / (1.0 - rho * (1.0 - b))
}

/// The highest utilization [`QueueModel::sample_wait`] samples at;
/// higher inputs are clamped to it.
const WAIT_RHO_CAP: f64 = 0.93;

/// Cells of the tabulated wait probability over `[0, WAIT_RHO_CAP]`.
const WAIT_CELLS: usize = 256;

/// Rounding margin of the tabulated wait probability. Erlang-C rises
/// with `rho`, so a cell's end values bound it analytically; the margin
/// covers the recursion's rounding (about `k` ulps, under 1e-14 at
/// k = 64) and the change over a few ulps of `rho` at a cell edge.
const WAIT_MARGIN: f64 = 1e-12;

/// Erlang-C of `workers` servers as a [`Bracket`] over
/// `[0, WAIT_RHO_CAP]`: [`QueueModel::sample_wait`] decides its "does
/// this request wait" draw from it and runs the recursion only when the
/// uniform lands inside a cell's bounds.
fn wait_table(workers: u32) -> Bracket {
    Bracket::tabulate(0.0, WAIT_RHO_CAP, WAIT_CELLS, WAIT_MARGIN, |rho| {
        erlang_c(workers, rho)
    })
}

/// Wait tables keyed by worker count: every [`QueueModel`] built through
/// one set shares a single table per distinct count.
#[derive(Debug, Default)]
pub struct WaitTables {
    by_workers: BTreeMap<u32, Arc<Bracket>>,
}

impl WaitTables {
    /// A queue model (see [`QueueModel::new`]) reading this set's table
    /// for `workers`, built on first use.
    ///
    /// # Panics
    ///
    /// As [`QueueModel::new`].
    pub fn model(&mut self, workers: u32, mean_service: SimDuration, scv: f64) -> QueueModel {
        assert!(workers > 0, "queue model needs at least one worker");
        assert!(
            mean_service.as_nanos() > 0,
            "mean service time must be positive"
        );
        assert!(scv.is_finite() && scv >= 0.0, "SCV must be non-negative");
        let wait_odds = self
            .by_workers
            .entry(workers)
            .or_insert_with(|| Arc::new(wait_table(workers)))
            .clone();
        QueueModel {
            workers,
            mean_service,
            scv,
            wait_odds,
        }
    }
}

/// Parameters of the queue-delay model for one server pool.
#[derive(Debug, Clone)]
pub struct QueueModel {
    /// Number of workers in the pool.
    workers: u32,
    /// Mean service time of the background traffic.
    mean_service: SimDuration,
    /// Squared coefficient of variation of service times (1 =
    /// exponential; production RPC service times are much burstier).
    scv: f64,
    /// Erlang-C of `workers` servers, tabulated ([`wait_table`]).
    wait_odds: Arc<Bracket>,
}

impl QueueModel {
    /// Creates a model with its own wait table; a fleet of pools shares
    /// one table per worker count through [`WaitTables::model`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, the mean service time is zero, or the
    /// SCV is negative or non-finite.
    pub fn new(workers: u32, mean_service: SimDuration, scv: f64) -> Self {
        WaitTables::default().model(workers, mean_service, scv)
    }

    /// The mean waiting time at utilization `rho` (Allen-Cunneen
    /// approximation for M/G/k).
    pub fn mean_wait(&self, rho: f64) -> SimDuration {
        let rho = rho.clamp(0.0, 0.98);
        if rho == 0.0 {
            return SimDuration::ZERO;
        }
        let pw = erlang_c(self.workers, rho);
        let mm_k_wait = pw * self.mean_service.as_secs_f64() / (self.workers as f64 * (1.0 - rho));
        // The (1 + SCV)/2 factor extends M/M/k to M/G/k.
        SimDuration::from_secs_f64(mm_k_wait * (1.0 + self.scv) / 2.0)
    }

    /// Samples one request's waiting time at utilization `rho`.
    ///
    /// With probability Erlang-C the request waits; the conditional wait
    /// is exponential with the M/G/k conditional mean. Bursty service
    /// (SCV > 1) mixes in a longer-tailed component, reproducing the
    /// "tail queueing far above median queueing" effect of Fig. 13.
    pub fn sample_wait(&self, rho: f64, rng: &mut Prng) -> SimDuration {
        let rho = rho.clamp(0.0, WAIT_RHO_CAP);
        // `rng.chance(erlang_c(k, rho))`, decided from the tabulated
        // bounds; the recursion runs only when the uniform lands inside.
        let u = rng.next_f64();
        let wait = self
            .wait_odds
            .compare(rho, u, || erlang_c(self.workers, rho));
        if wait != Some(Ordering::Less) {
            return SimDuration::ZERO;
        }
        // Conditional mean wait given waiting.
        let cond_mean = self.mean_service.as_secs_f64() / (self.workers as f64 * (1.0 - rho))
            * (1.0 + self.scv)
            / 2.0;
        let u = -rng.next_f64_open().ln();
        // With bursty service times, a minority of waits land behind an
        // in-progress elephant: stretch those by the burstiness factor.
        let stretch = if self.scv > 1.0 && rng.chance(0.1) {
            self.scv
        } else {
            1.0
        };
        SimDuration::from_secs_f64(u * cond_mean * stretch)
    }

    /// Samples one request's waiting time and records it into the
    /// observability plane's queue telemetry. Identical draw (and rng
    /// consumption) to [`QueueModel::sample_wait`]; the telemetry is an
    /// observer, never an input.
    pub fn sample_wait_observed(
        &self,
        rho: f64,
        rng: &mut Prng,
        telemetry: &mut rpclens_obs::QueueTelemetry,
    ) -> SimDuration {
        let wait = self.sample_wait(rho, rng);
        telemetry.record(wait.as_nanos());
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::stats::{percentile, sorted_finite};

    #[test]
    fn erlang_c_known_values() {
        // Single server: C = rho.
        for rho in [0.1, 0.5, 0.9] {
            assert!((erlang_c(1, rho) - rho).abs() < 1e-12, "rho {rho}");
        }
        // Limits.
        assert_eq!(erlang_c(4, 0.0), 0.0);
        assert_eq!(erlang_c(4, 1.0), 1.0);
        // M/M/2 at rho=0.5 (a=1): B(1)=1/2, B(2)=(1*0.5)/(2+0.5)=0.2,
        // C = 0.2/(1-0.5*0.8) = 1/3.
        assert!((erlang_c(2, 0.5) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_monotone_in_rho_and_decreasing_in_k() {
        for k in [1u32, 2, 8, 64] {
            let mut prev = 0.0;
            for i in 1..20 {
                let c = erlang_c(k, i as f64 * 0.05);
                assert!(c >= prev, "k={k} not monotone");
                prev = c;
            }
        }
        // More servers at equal utilization wait less (economy of scale).
        assert!(erlang_c(16, 0.7) < erlang_c(2, 0.7));
    }

    #[test]
    fn mean_wait_matches_mm1_theory() {
        // M/M/1 (SCV=1): W = rho/(mu(1-rho)) with E[S]=1ms, rho=0.7:
        // W = 0.7/(1000*0.3) s = 2.333 ms.
        let m = QueueModel::new(1, SimDuration::from_millis(1), 1.0);
        let w = m.mean_wait(0.7).as_secs_f64();
        assert!((w - 0.7 / (1000.0 * 0.3)).abs() < 1e-9, "wait {w}");
    }

    #[test]
    fn sampled_mean_converges_to_analytic_mean() {
        let m = QueueModel::new(4, SimDuration::from_millis(2), 1.0);
        let mut rng = Prng::seed_from(1);
        let n = 300_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_wait(0.75, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        let analytic = m.mean_wait(0.75).as_secs_f64();
        assert!(
            (mean - analytic).abs() / analytic < 0.05,
            "sampled {mean}, analytic {analytic}"
        );
    }

    #[test]
    fn wait_grows_steeply_with_utilization() {
        let m = QueueModel::new(8, SimDuration::from_millis(1), 2.0);
        let w30 = m.mean_wait(0.3).as_secs_f64();
        let w90 = m.mean_wait(0.9).as_secs_f64();
        assert!(w90 > w30 * 30.0, "w30 {w30}, w90 {w90}");
    }

    /// `sample_wait` as it was before the wait decision was bracketed:
    /// the plain `chance(erlang_c(k, rho))`.
    fn exact_sample_wait(m: &QueueModel, rho: f64, rng: &mut Prng) -> SimDuration {
        let rho = rho.clamp(0.0, 0.93);
        let pw = erlang_c(m.workers, rho);
        if !rng.chance(pw) {
            return SimDuration::ZERO;
        }
        let cond_mean =
            m.mean_service.as_secs_f64() / (m.workers as f64 * (1.0 - rho)) * (1.0 + m.scv) / 2.0;
        let u = -rng.next_f64_open().ln();
        let stretch = if m.scv > 1.0 && rng.chance(0.1) {
            m.scv
        } else {
            1.0
        };
        SimDuration::from_secs_f64(u * cond_mean * stretch)
    }

    /// The utilizations the exactness tests probe for one model: 0, every
    /// grid point and its two neighbouring floats, the clamp, and inputs
    /// above and below it.
    fn probe_rhos() -> Vec<f64> {
        let step = WAIT_RHO_CAP / WAIT_CELLS as f64;
        let mut rhos = vec![-1.0, -0.0, 0.0, WAIT_RHO_CAP, 0.95, 1.0, 1.5, f64::NAN];
        for i in 0..=WAIT_CELLS {
            let x = i as f64 * step;
            rhos.extend([x, x.next_up(), x.next_down()]);
        }
        rhos
    }

    /// Checks the bracketed wait decision against `u < erlang_c(k, rho)`
    /// at `rho` for uniforms at, and one ulp on either side of, the exact
    /// value, plus `extra` draws; then checks that `sample_wait` matches
    /// the exact sampler draw for draw, ending at the same stream position.
    fn check_decisions(m: &QueueModel, rho: f64, extra: usize, rng: &mut Prng) {
        let clamped = rho.clamp(0.0, WAIT_RHO_CAP);
        let pw = erlang_c(m.workers, clamped);
        let mut us = vec![pw, pw.next_up(), pw.next_down(), 0.0];
        us.extend((0..extra).map(|_| rng.next_f64()));
        for u in us {
            let got = m
                .wait_odds
                .compare(clamped, u, || erlang_c(m.workers, clamped));
            assert_eq!(
                got == Some(Ordering::Less),
                u < pw,
                "k {}, rho {rho}, u {u}",
                m.workers
            );
        }
        let seed = rng.next_u64();
        let (mut a, mut b) = (Prng::seed_from(seed), Prng::seed_from(seed));
        for _ in 0..8 {
            assert_eq!(
                m.sample_wait(rho, &mut a),
                exact_sample_wait(m, rho, &mut b)
            );
        }
        assert_eq!(a.next_u64(), b.next_u64(), "k {}, rho {rho}", m.workers);
    }

    #[test]
    fn bracketed_wait_decision_matches_erlang_c() {
        let mut tables = WaitTables::default();
        let mut rng = Prng::seed_from(21);
        let rhos = probe_rhos();
        for k in 1..=64 {
            let m = tables.model(k, SimDuration::from_millis(1), 4.0);
            for &rho in &rhos {
                check_decisions(&m, rho, 4, &mut rng);
            }
        }
    }

    #[test]
    #[ignore = "long exactness sweep; CI runs it with --ignored"]
    fn sweep_bracketed_wait_decision() {
        let mut rng = Prng::seed_from(22);
        for k in 1..=64 {
            let m = QueueModel::new(k, SimDuration::from_millis(1), 4.0);
            let n = 40_000;
            for i in 0..=n {
                let rho = -0.01 + 0.96 * i as f64 / n as f64;
                check_decisions(&m, rho, 16, &mut rng);
            }
        }
    }

    /// Every cell's bounds hold Erlang-C at `per_cell` points of the cell.
    fn check_containment(k: u32, per_cell: usize) {
        let table = wait_table(k);
        let step = WAIT_RHO_CAP / WAIT_CELLS as f64;
        for (i, &[lo, hi]) in table.cells().iter().enumerate() {
            for j in 0..=per_cell {
                let rho = (i as f64 + j as f64 / per_cell as f64) * step;
                let c = erlang_c(k, rho);
                assert!(
                    lo < c && c < hi || c == 0.0 && lo < 0.0,
                    "k {k}, rho {rho}: {c} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn wait_table_cells_contain_erlang_c() {
        for k in 1..=64 {
            check_containment(k, 16);
        }
    }

    #[test]
    #[ignore = "long exactness sweep; CI runs it with --ignored"]
    fn sweep_wait_table_cells_contain_erlang_c() {
        for k in 1..=64 {
            check_containment(k, 2_048);
        }
    }

    #[test]
    fn models_share_one_table_per_worker_count() {
        let mut tables = WaitTables::default();
        let a = tables.model(8, SimDuration::from_millis(1), 1.0);
        let b = tables.model(8, SimDuration::from_millis(3), 9.0);
        let c = tables.model(9, SimDuration::from_millis(1), 1.0);
        assert!(Arc::ptr_eq(&a.wait_odds, &b.wait_odds));
        assert!(!Arc::ptr_eq(&a.wait_odds, &c.wait_odds));
    }

    #[test]
    fn bursty_service_has_heavier_tail() {
        let smooth = QueueModel::new(4, SimDuration::from_millis(1), 1.0);
        let bursty = QueueModel::new(4, SimDuration::from_millis(1), 25.0);
        let mut rng = Prng::seed_from(2);
        let collect = |m: &QueueModel, rng: &mut Prng| {
            sorted_finite(
                (0..100_000)
                    .map(|_| m.sample_wait(0.6, rng).as_secs_f64())
                    .collect(),
            )
        };
        let s = collect(&smooth, &mut rng);
        let b = collect(&bursty, &mut rng);
        let p99_s = percentile(&s, 0.99).unwrap();
        let p99_b = percentile(&b, 0.99).unwrap();
        assert!(p99_b > p99_s * 5.0, "smooth {p99_s}, bursty {p99_b}");
    }

    #[test]
    fn observed_variant_matches_plain_sampling() {
        let m = QueueModel::new(4, SimDuration::from_millis(2), 4.0);
        let mut plain_rng = Prng::seed_from(11);
        let mut obs_rng = Prng::seed_from(11);
        let mut telemetry = rpclens_obs::QueueTelemetry::default();
        let mut total = 0u128;
        for _ in 0..10_000 {
            let plain = m.sample_wait(0.8, &mut plain_rng);
            let observed = m.sample_wait_observed(0.8, &mut obs_rng, &mut telemetry);
            assert_eq!(plain, observed);
            total += u128::from(plain.as_nanos());
        }
        assert_eq!(telemetry.samples, 10_000);
        assert_eq!(telemetry.total_wait_ns, total);
        assert!(telemetry.waits > 0 && telemetry.waits < 10_000);
    }

    #[test]
    fn idle_pool_never_waits() {
        let m = QueueModel::new(4, SimDuration::from_millis(1), 1.0);
        let mut rng = Prng::seed_from(3);
        for _ in 0..1000 {
            assert_eq!(m.sample_wait(0.0, &mut rng), SimDuration::ZERO);
        }
    }

    #[test]
    fn overload_is_clamped_not_infinite() {
        let m = QueueModel::new(2, SimDuration::from_millis(1), 1.0);
        let w = m.mean_wait(1.5);
        assert!(w < SimDuration::from_secs(1), "clamped wait {w}");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = QueueModel::new(0, SimDuration::from_millis(1), 1.0);
    }
}
