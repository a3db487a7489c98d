//! The time-series store.
//!
//! Each metric name owns one [`Series`] of cumulative counter readings.
//! Writes are aligned down to the database's sampling window, and the
//! last write in a window wins.

use rpclens_simcore::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// One counter series: aligned, time-ordered cumulative readings.
#[derive(Debug, Clone, Default)]
pub struct Series {
    points: Vec<(SimTime, u64)>,
}

impl Series {
    /// The points, oldest first.
    pub fn points(&self) -> &[(SimTime, u64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn push(&mut self, at: SimTime, reading: u64) {
        // Overwrite if the window already has a point (last write wins).
        if let Some(last) = self.points.last_mut() {
            if last.0 == at {
                last.1 = reading;
                return;
            }
        }
        debug_assert!(
            self.points.last().is_none_or(|(t, _)| *t < at),
            "points must be written in time order"
        );
        self.points.push((at, reading));
    }
}

/// The database: one counter series per metric name.
#[derive(Debug)]
pub struct TimeSeriesDb {
    series: HashMap<String, Series>,
    sample_period: SimDuration,
}

impl TimeSeriesDb {
    /// Creates a database sampling on the given period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(sample_period: SimDuration) -> Self {
        assert!(
            sample_period.as_nanos() > 0,
            "sample period must be positive"
        );
        TimeSeriesDb {
            series: HashMap::new(),
            sample_period,
        }
    }

    /// The sampling period.
    pub fn sample_period(&self) -> SimDuration {
        self.sample_period
    }

    /// Writes one cumulative counter reading, aligning `at` down to the
    /// sampling window. Writes to one series must arrive in time order.
    pub fn write(&mut self, name: &str, at: SimTime, reading: u64) {
        let aligned = at.align_down(self.sample_period);
        self.series
            .entry(name.to_string())
            .or_default()
            .push(aligned, reading);
    }

    /// Reads one series.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Number of live series.
    pub fn num_series(&self) -> usize {
        self.series.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TimeSeriesDb {
        TimeSeriesDb::new(SimDuration::from_mins(30))
    }

    fn mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    #[test]
    fn write_then_read_aligns_down() {
        let mut d = db();
        d.write("rpcs", mins(31), 5);
        let s = d.series("rpcs").unwrap();
        assert_eq!(s.len(), 1);
        // Aligned down to the 30-minute boundary.
        assert_eq!(s.points(), [(mins(30), 5)]);
        assert!(d.series("never-written").is_none());
    }

    #[test]
    fn same_window_write_overwrites() {
        let mut d = db();
        d.write("c", mins(5), 1);
        d.write("c", mins(20), 2);
        let s = d.series("c").unwrap();
        assert_eq!(s.points(), [(mins(0), 2)]);
    }

    #[test]
    fn series_are_keyed_by_name() {
        let mut d = db();
        d.write("a", mins(0), 1);
        d.write("b", mins(0), 2);
        d.write("a", mins(30), 3);
        assert_eq!(d.num_series(), 2);
        assert_eq!(
            d.series("a").unwrap().points(),
            [(mins(0), 1), (mins(30), 3)]
        );
        assert_eq!(d.series("b").unwrap().points(), [(mins(0), 2)]);
    }
}
