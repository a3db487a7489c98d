//! Trajectory-stored alternating-renewal processes.
//!
//! Every episodic cause in the workspace — congestion episodes on network
//! paths (§5.1 of the paper), machine crashes, cluster drains, WAN
//! partitions, overload surges, correlated incidents — is an entity that
//! alternates between an *up* state and a *down* state with exponentially
//! distributed holding times. [`AlternatingRenewal`] is that one
//! mechanism: it draws the trajectory lazily, remembers the flip instants,
//! and answers "which interval contains `now`?" for any instant inside a
//! bounded look-behind window.

use crate::dist::Exponential;
use crate::rng::Prng;
use crate::time::{SimDuration, SimTime};

/// Mean holding times of one alternating-renewal process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenewalParams {
    /// Mean duration of up (healthy, calm) periods.
    pub up_mean: SimDuration,
    /// Mean duration of down (failed, congested) periods.
    pub down_mean: SimDuration,
}

impl RenewalParams {
    /// The long-run fraction of time the process spends down:
    /// `down_mean / (up_mean + down_mean)`.
    pub fn duty_cycle(&self) -> f64 {
        let up = self.up_mean.as_secs_f64();
        let down = self.down_mean.as_secs_f64();
        down / (up + down)
    }
}

/// How far behind the furthest query past intervals stay queryable.
///
/// Two simulated hours: the fleet driver's look-behind is bounded by one
/// trace's wall time (seconds) plus one 30-minute control window, so this
/// margin leaves well over an hour of slack.
pub const RETENTION: SimDuration = SimDuration::from_hours(2);

/// Stored-tail length above which pruning is considered.
///
/// 512 entries exceed the flips a [`RETENTION`] window typically holds
/// for the network's congestion parameters (~475 for a fabric path, ~118
/// for a WAN path). Failure episodes with hour-scale means reach it only
/// after weeks of simulated time.
pub const PRUNE_TRIGGER_LEN: usize = 512;

/// Fewest intervals a pruning pass drops.
///
/// Above [`PRUNE_TRIGGER_LEN`], a query prunes only once at least this
/// many stored intervals end below the retention horizon — a single
/// comparison to check — so each pass's search and tail move are paid
/// for by this many appended flips, not repeated on every query. The
/// stored tail thus peaks near the retention window's flips plus this
/// batch (well under 1,024 entries, 8 KB, for a fabric path); `drain`
/// keeps the allocation, so it is never reallocated once grown.
pub const PRUNE_BATCH: usize = 32;

/// The lazily drawn trajectory of one alternating-renewal process.
///
/// Global interval `g` is up exactly when `g` is even; interval 0 starts
/// at [`SimTime::ZERO`], so every process starts up.
///
/// # Determinism contract
///
/// The process's own generator is reserved for the trajectory: it is
/// consumed exactly one draw per interval, strictly in trajectory order
/// (the first up period is drawn at construction), and the flip instants
/// are remembered. [`AlternatingRenewal::interval_at`] is therefore a pure
/// function of `(construction seed, now)` — independent of who queries
/// the process, how often, in what order, or from which simulation shard.
/// Queries never consume a caller draw.
///
/// # Bounded memory
///
/// Remembering the trajectory costs one [`SimTime`] per flip. Once the
/// stored tail exceeds [`PRUNE_TRIGGER_LEN`] entries and at least
/// [`PRUNE_BATCH`] of them end more than [`RETENTION`] before a query,
/// every interval ending that far back is discarded. Their draws were
/// already consumed in trajectory order, so every answer inside the
/// retained tail is bit-identical to the never-pruned trajectory, and
/// resident state stays at a few KB however long the simulation runs.
///
/// The price is a bounded look-behind: a query at `t` is always answered
/// when `t` is at most [`RETENTION`] behind the furthest instant ever
/// queried. A query below the retained horizon panics, loudly, rather
/// than silently misreporting a state. Callers that sample a whole run
/// (summaries, controller timelines) therefore walk time in order.
#[derive(Debug, Clone)]
pub struct AlternatingRenewal {
    /// `flip_ends[i]` is the instant global interval `pruned + i` ends.
    /// Global interval `g` covers `[end(g-1), end(g))`.
    flip_ends: Vec<SimTime>,
    /// Number of leading intervals discarded below the retention
    /// horizon. Keeps global interval numbering (and hence up/down
    /// parity) stable across pruning.
    pruned: usize,
    /// End instant of the last pruned interval: the stored trajectory
    /// now begins at this instant. Queries below it panic.
    pruned_end: SimTime,
    /// Local (post-pruning) interval index of the last answer, where
    /// the next lookup starts galloping. A lookup hint only: never
    /// affects the result.
    cursor: usize,
    rng: Prng,
    up_hold: Exponential,
    down_hold: Exponential,
}

impl AlternatingRenewal {
    /// Creates a process with its own random stream, drawing the first
    /// up period so nothing flips at t=0.
    ///
    /// # Panics
    ///
    /// Panics if either mean is zero.
    pub fn new(params: RenewalParams, rng: Prng) -> Self {
        let up_hold =
            Exponential::from_mean(params.up_mean.as_secs_f64()).expect("up mean must be positive");
        let down_hold = Exponential::from_mean(params.down_mean.as_secs_f64())
            .expect("down mean must be positive");
        let mut process = AlternatingRenewal {
            flip_ends: Vec::new(),
            pruned: 0,
            pruned_end: SimTime::ZERO,
            cursor: 0,
            rng,
            up_hold,
            down_hold,
        };
        let first = process.up_hold.sample(&mut process.rng);
        process
            .flip_ends
            .push(SimTime::ZERO + SimDuration::from_secs_f64(first.max(1e-6)));
        process
    }

    /// Extends the trajectory to cover `now` and returns the global index
    /// of the interval containing it (even = up, odd = down).
    ///
    /// # Panics
    ///
    /// Panics if `now` falls below the retained horizon (see the
    /// type-level docs).
    pub fn interval_at(&mut self, now: SimTime) -> u64 {
        while *self.flip_ends.last().expect("trajectory is never empty") <= now {
            // The global interval being appended; even indices are up.
            let next = self.pruned + self.flip_ends.len();
            let hold = if next.is_multiple_of(2) {
                self.up_hold.sample(&mut self.rng)
            } else {
                self.down_hold.sample(&mut self.rng)
            };
            let end = *self.flip_ends.last().expect("trajectory is never empty")
                + SimDuration::from_secs_f64(hold.max(1e-6));
            self.flip_ends.push(end);
        }
        if self.flip_ends.len() > PRUNE_TRIGGER_LEN
            && self.flip_ends[PRUNE_BATCH - 1] <= horizon(now)
        {
            self.prune(now);
        }
        assert!(
            now >= self.pruned_end,
            "renewal query at {now} below the retained horizon {} \
             (queries may look back at most {RETENTION} behind the furthest query)",
            self.pruned_end,
        );
        let i = self.locate(now);
        self.cursor = i;
        (self.pruned + i) as u64
    }

    /// The local interval containing `now`: the first stored end above
    /// `now` (the stored tail's `partition_point(|end| end <= now)`).
    ///
    /// Gallops from the cursor, the last answer: queries are
    /// near-monotone in practice, so the answer is usually the cursor or
    /// its successor (one or two comparisons), and a jump of `d`
    /// intervals costs `O(log d)` comparisons instead of a binary search
    /// over the whole tail. Requires `pruned_end <= now < last end`.
    fn locate(&self, now: SimTime) -> usize {
        let ends = &self.flip_ends;
        let last = ends.len() - 1;
        let c = self.cursor;
        // Bracket the answer in `lo..=hi`, knowing `ends[hi] > now` and
        // that every end below `lo` is at or before `now`.
        let (mut lo, mut hi);
        if ends[c] <= now {
            // Forward: the answer is past the cursor.
            lo = c + 1;
            hi = last;
            let mut step = 1;
            while c + step < last {
                if ends[c + step] > now {
                    hi = c + step;
                    break;
                }
                lo = c + step + 1;
                step *= 2;
            }
        } else {
            // Backward: the answer is the cursor or before it.
            lo = 0;
            hi = c;
            let mut step = 1;
            while step <= c {
                if ends[c - step] <= now {
                    lo = c - step + 1;
                    break;
                }
                hi = c - step;
                step *= 2;
            }
        }
        lo + ends[lo..hi].partition_point(|&end| end <= now)
    }

    /// Whether the process is in its down state at `now`.
    pub fn is_down(&mut self, now: SimTime) -> bool {
        self.interval_at(now) % 2 == 1
    }

    /// The ordinal of the down period containing `now` (0 for the first
    /// down period of the trajectory), or `None` while up.
    ///
    /// Lets callers classify episodes without extra generator draws — the
    /// fleet's fault planes alternate WAN blackouts and brownouts on the
    /// ordinal's parity.
    pub fn episode_at(&mut self, now: SimTime) -> Option<u64> {
        let g = self.interval_at(now);
        (g % 2 == 1).then_some(g / 2)
    }

    /// Discards stored intervals ending at or before `now - RETENTION`,
    /// keeping global numbering via the pruned-prefix count.
    fn prune(&mut self, now: SimTime) {
        let horizon = horizon(now);
        // Keep at least one interval so the trajectory stays non-empty.
        let cut = self
            .flip_ends
            .partition_point(|&end| end <= horizon)
            .min(self.flip_ends.len() - 1);
        if cut == 0 {
            return;
        }
        self.pruned_end = self.flip_ends[cut - 1];
        self.flip_ends.drain(..cut);
        self.pruned += cut;
        self.cursor = self.cursor.saturating_sub(cut);
    }
}

/// The retention horizon of a query at `now`: intervals ending at or
/// before it may be pruned.
fn horizon(now: SimTime) -> SimTime {
    SimTime::from_nanos(now.as_nanos().saturating_sub(RETENTION.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Congestion-like parameters: 30 s up, 0.4 s down (~5,700 flips per
    /// simulated day, so a day-long walk prunes many times).
    fn busy() -> RenewalParams {
        RenewalParams {
            up_mean: SimDuration::from_secs(30),
            down_mean: SimDuration::from_millis(400),
        }
    }

    /// Failure-like parameters: 300 s up, 20 s down.
    fn episodic() -> RenewalParams {
        RenewalParams {
            up_mean: SimDuration::from_secs(300),
            down_mean: SimDuration::from_secs(20),
        }
    }

    fn process(params: RenewalParams, seed: u64) -> AlternatingRenewal {
        AlternatingRenewal::new(params, Prng::seed_from(seed))
    }

    /// The local interval containing `now`, by full binary search.
    fn local(p: &AlternatingRenewal, now: SimTime) -> usize {
        p.flip_ends.partition_point(|&end| end <= now)
    }

    #[test]
    fn episodes_are_bursty_not_iid() {
        let mut p = process(busy(), 2);
        // Consecutive samples on a fine grid agree far more often than
        // independent coin flips would.
        let mut same = 0u32;
        let mut prev = p.is_down(SimTime::ZERO);
        for i in 1..100_000u64 {
            let s = p.is_down(SimTime::from_nanos(i * 100_000)); // 0.1 ms.
            same += u32::from(s == prev);
            prev = s;
        }
        assert!(same as f64 / 100_000.0 > 0.99, "state flips too often");
    }

    #[test]
    fn down_fraction_matches_duty_cycle() {
        for (params, step_ns, seed) in [(busy(), 1_000_000, 3), (episodic(), 10_000_000, 4)] {
            let mut p = process(params, seed);
            let n = 2_000_000u64;
            let down = (0..n)
                .filter(|&i| p.is_down(SimTime::from_nanos(i * step_ns)))
                .count();
            let frac = down as f64 / n as f64;
            let expected = params.duty_cycle();
            assert!(
                (frac - expected).abs() < expected,
                "duty cycle {frac}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn trajectory_is_independent_of_query_pattern() {
        // Two copies driven on completely different query patterns — one
        // dense and monotone, one advanced in a single jump and then
        // queried *backwards* — must agree at every instant. This is the
        // property the sharded fleet driver leans on: shards interleave
        // queries in arbitrary time order yet see identical trajectories.
        let mut dense = process(busy(), 9);
        let mut sparse = process(busy(), 9);
        let recorded: Vec<u64> = (0..400_000u64)
            .map(|i| dense.interval_at(SimTime::from_nanos(i * 250_000))) // 0.25 ms grid to 100 s.
            .collect();
        sparse.interval_at(SimTime::from_nanos(100_000_000_000)); // one jump.
        for i in (0..400_000u64).rev() {
            let now = SimTime::from_nanos(i * 250_000);
            assert_eq!(recorded[i as usize], sparse.interval_at(now), "at {now}");
        }
    }

    #[test]
    fn cursor_hint_matches_partition_point() {
        // A query pattern hostile to the cursor (large forward and
        // backward jumps): the chosen interval must equal the full binary
        // search's after every answer.
        let mut p = process(busy(), 7);
        let mut mix = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..50_000 {
            mix = mix
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let now = SimTime::from_nanos(mix % 200_000_000_000); // 0..200 s.
            let g = p.interval_at(now);
            assert_eq!(p.cursor, local(&p, now), "hint diverged at {now}");
            assert_eq!(g, (p.pruned + p.cursor) as u64);
        }
    }

    /// Walks a frontier forward over `days` simulated days in random
    /// steps and queries behind it at log-uniform look-backs (1 ns to
    /// just under [`RETENTION`]), so the gallop runs both ways over every
    /// distance while the tail is pruned; after each answer the cursor
    /// must equal the full binary search's.
    fn gallop_matches_partition_point(seed: u64, days: u64, queries: u64) {
        let mut p = process(busy(), seed);
        let mut rng = Prng::seed_from(seed ^ 0x6A11);
        let step_max = days * 86_400_000_000_000 / queries;
        let mut frontier = RETENTION.as_nanos();
        for _ in 0..queries {
            frontier += rng.next_u64() % (2 * step_max);
            let back = (rng.next_f64() * (RETENTION.as_nanos() as f64).ln()).exp() as u64;
            let now = SimTime::from_nanos(frontier - back.min(RETENTION.as_nanos() - 1));
            p.interval_at(SimTime::from_nanos(frontier));
            let g = p.interval_at(now);
            assert_eq!(p.cursor, local(&p, now), "gallop diverged at {now}");
            assert_eq!(g, (p.pruned + p.cursor) as u64);
        }
        assert!(p.pruned > 0, "the walk never pruned");
    }

    #[test]
    fn gallop_matches_partition_point_while_pruning() {
        gallop_matches_partition_point(31, 2, 100_000);
    }

    /// Long budget, run by CI's exactness-sweep step.
    #[test]
    #[ignore]
    fn sweep_gallop_matches_partition_point() {
        for seed in 0..8 {
            gallop_matches_partition_point(seed, 14, 4_000_000);
        }
    }

    #[test]
    fn episode_ordinals_count_down_periods() {
        let mut p = process(episodic(), 11);
        assert!(!p.is_down(SimTime::ZERO), "processes start up");
        let mut last = None;
        for i in 0..2_000_000u64 {
            let now = SimTime::from_nanos(i * 10_000_000);
            let g = p.interval_at(now);
            match p.episode_at(now) {
                Some(e) => {
                    assert_eq!(2 * e + 1, g);
                    assert!(last.is_none_or(|prev| e >= prev), "ordinal went backwards");
                    last = Some(e);
                }
                None => assert_eq!(g % 2, 0),
            }
        }
        assert!(last.unwrap_or(0) >= 1, "fewer than two episodes");
    }

    #[test]
    fn resident_trajectory_stays_bounded_over_a_simulated_week() {
        // Unpruned, a busy process stores ~5,700 flips per simulated day;
        // a monotone week-long walk must stay near the prune trigger.
        let mut p = process(busy(), 21);
        let week_ns = 7 * 24 * 3_600_000_000_000u64;
        let steps = 7 * 24 * 4u64; // One query per simulated quarter hour.
        let mut peak = 0usize;
        for i in 0..steps {
            p.interval_at(SimTime::from_nanos(i * (week_ns / steps)));
            peak = peak.max(p.flip_ends.len());
        }
        assert!(
            peak <= PRUNE_TRIGGER_LEN + 128,
            "stored tail peaked at {peak} entries"
        );
        assert!(p.pruned > 10_000, "only {} intervals pruned", p.pruned);
    }

    #[test]
    fn look_behind_of_retention_is_always_answered() {
        // Walk forward in large steps; after each step, look back almost
        // the full retention window. Pruning keys on the query, not on
        // the trajectory frontier, so the look-behind never panics.
        let mut p = process(busy(), 24);
        let reference = process(busy(), 24);
        let back = RETENTION.as_nanos() - 1;
        for i in 4..200u64 {
            let now = i * 1_800_000_000_000; // 30-minute steps over ~4 days.
            p.interval_at(SimTime::from_nanos(now));
            let behind = SimTime::from_nanos(now - back);
            assert_eq!(
                p.interval_at(behind),
                reference.clone().interval_at(behind),
                "at {behind}"
            );
        }
        assert!(p.pruned > 0);
    }

    #[test]
    #[should_panic(expected = "below the retained horizon")]
    fn query_below_the_retained_horizon_panics() {
        let mut p = process(busy(), 23);
        // Advance a simulated day (prunes everything older than the
        // retention window), then look back to the epoch.
        p.interval_at(SimTime::from_nanos(24 * 3_600_000_000_000));
        p.interval_at(SimTime::ZERO);
    }
}
