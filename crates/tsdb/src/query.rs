//! Counter queries: per-second rates and per-window deltas of a series.

use crate::store::Series;
use rpclens_simcore::time::SimTime;

impl Series {
    /// Converts the cumulative readings to per-second rates between
    /// consecutive points. Counter resets (decreases) yield a zero rate.
    pub fn rate(&self) -> Vec<(SimTime, f64)> {
        self.points()
            .windows(2)
            .filter_map(|pair| {
                let [(pt, pc), (t, c)] = [pair[0], pair[1]];
                let dt = t.since(pt).as_secs_f64();
                (dt > 0.0).then(|| (t, c.saturating_sub(pc) as f64 / dt))
            })
            .collect()
    }

    /// Converts the cumulative readings back to per-point deltas: each
    /// point's reading less the previous one (the first point's less
    /// zero). Counter resets (decreases) yield a zero delta, as in
    /// [`Series::rate`].
    pub fn deltas(&self) -> Vec<(SimTime, u64)> {
        let mut prev = 0u64;
        self.points()
            .iter()
            .map(|&(t, c)| {
                let delta = c.saturating_sub(prev);
                prev = c;
                (t, delta)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::store::TimeSeriesDb;
    use rpclens_simcore::time::{SimDuration, SimTime};

    fn mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    fn db() -> TimeSeriesDb {
        TimeSeriesDb::new(SimDuration::from_mins(30))
    }

    #[test]
    fn rate_computes_per_second_deltas() {
        let mut d = db();
        for i in 0..4u64 {
            d.write("rps", mins(i * 30), i * 1800);
        }
        let rates = d.series("rps").unwrap().rate();
        // Counter grows 1800 per 30 minutes = 1/sec.
        assert_eq!(rates.len(), 3);
        for (_, r) in &rates {
            assert!((r - 1.0).abs() < 1e-9, "rate {r}");
        }
    }

    #[test]
    fn rate_handles_counter_reset() {
        let mut d = db();
        d.write("c", mins(0), 100);
        d.write("c", mins(30), 10);
        let rates = d.series("c").unwrap().rate();
        assert_eq!(rates, [(mins(30), 0.0)]);
    }

    #[test]
    fn deltas_undo_the_cumulative_sum() {
        let mut d = db();
        for (m, reading) in [(0, 4), (30, 4), (90, 13)] {
            d.write("c", mins(m), reading);
        }
        assert_eq!(
            d.series("c").unwrap().deltas(),
            vec![(mins(0), 4), (mins(30), 0), (mins(90), 9)]
        );
        // A reset reads as a zero delta; the walk restarts from it.
        d.write("c", mins(120), 2);
        d.write("c", mins(150), 5);
        assert_eq!(
            &d.series("c").unwrap().deltas()[3..],
            [(mins(120), 0), (mins(150), 3)]
        );
    }

    #[test]
    fn rate_of_empty_and_single_point_series_is_empty() {
        let mut d = db();
        // Never written: no series exists yet.
        assert!(d.series("c").is_none());
        // One point: a rate needs two points to form a window, so the
        // result must be empty rather than a spurious zero or NaN.
        d.write("c", mins(0), 42);
        assert!(d.series("c").unwrap().rate().is_empty());
    }

    #[test]
    fn rate_skips_zero_width_window() {
        // Two writes into the same sampling window align to the same
        // timestamp and the second overwrites the first, so only the
        // cross-window pair forms a rate.
        let mut d = db();
        d.write("c", mins(0), 10);
        d.write("c", mins(10), 25);
        d.write("c", mins(30), 40);
        let rates = d.series("c").unwrap().rate();
        assert_eq!(rates.len(), 1, "only the cross-window pair rates");
        assert!(rates[0].1.is_finite());
        assert!((rates[0].1 - 15.0 / 1800.0).abs() < 1e-12, "{}", rates[0].1);
    }
}
