//! The time-series store.
//!
//! Each `(metric, labels)` pair owns one [`Series`] of timestamped points.
//! Writes are aligned down to the metric's sampling window and retention
//! is enforced lazily at write time, the way a streaming monitoring
//! database ages out old data.

use crate::metric::{Labels, MetricDescriptor, MetricKind, MetricValue};
use rpclens_simcore::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// One time series: aligned, time-ordered points.
#[derive(Debug, Clone, Default)]
pub struct Series {
    points: Vec<(SimTime, MetricValue)>,
}

impl Series {
    /// The points, oldest first.
    pub fn points(&self) -> &[(SimTime, MetricValue)] {
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

    /// The most recent point.
    pub fn latest(&self) -> Option<&(SimTime, MetricValue)> {
        self.points.last()
    }

    fn push(&mut self, at: SimTime, value: MetricValue) {
        // Overwrite if the window already has a point (last write wins).
        if let Some(last) = self.points.last_mut() {
            if last.0 == at {
                last.1 = value;
                return;
            }
        }
        debug_assert!(
            self.points.last().map(|(t, _)| *t < at).unwrap_or(true),
            "points must be written in time order"
        );
        self.points.push((at, value));
    }

    fn enforce_retention(&mut self, now: SimTime, retention: SimDuration) {
        let cutoff_ns = now.as_nanos().saturating_sub(retention.as_nanos());
        let cutoff = SimTime::from_nanos(cutoff_ns);
        let keep_from = self.points.partition_point(|(t, _)| *t < cutoff);
        if keep_from > 0 {
            self.points.drain(..keep_from);
        }
    }
}

/// The database: registered metrics and their series.
#[derive(Debug, Default)]
pub struct TimeSeriesDb {
    metrics: HashMap<String, MetricDescriptor>,
    series: HashMap<(String, Labels), Series>,
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
            metrics: HashMap::new(),
            series: HashMap::new(),
            sample_period,
        }
    }

    /// The sampling period.
    pub fn sample_period(&self) -> SimDuration {
        self.sample_period
    }

    /// Registers a metric. Re-registering with identical descriptor is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already registered with a
    /// different kind or retention.
    pub fn register(&mut self, desc: MetricDescriptor) -> Result<(), String> {
        if let Some(existing) = self.metrics.get(&desc.name) {
            if existing != &desc {
                return Err(format!(
                    "metric {} already registered differently",
                    desc.name
                ));
            }
            return Ok(());
        }
        self.metrics.insert(desc.name.clone(), desc);
        Ok(())
    }

    /// The descriptor of a metric, if registered.
    pub fn descriptor(&self, name: &str) -> Option<&MetricDescriptor> {
        self.metrics.get(name)
    }

    /// Writes one sample, aligning `at` down to the sampling window and
    /// enforcing retention.
    ///
    /// # Errors
    ///
    /// Returns an error if the metric is unregistered or the value kind
    /// does not match the descriptor.
    pub fn write(
        &mut self,
        name: &str,
        labels: Labels,
        at: SimTime,
        value: MetricValue,
    ) -> Result<(), String> {
        let desc = self
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} not registered"))?;
        if desc.kind != value.kind() {
            return Err(format!(
                "metric {name} is {:?}, got {:?}",
                desc.kind,
                value.kind()
            ));
        }
        let aligned = at.align_down(self.sample_period);
        let retention = desc.retention;
        let series = self.series.entry((name.to_string(), labels)).or_default();
        series.push(aligned, value);
        series.enforce_retention(aligned, retention);
        Ok(())
    }

    /// Streams one cumulative counter series from per-window deltas.
    ///
    /// Point *k* carries the running sum of all deltas up to and
    /// including window *k* — the Monarch idiom `QueryEngine::rate` and
    /// `QueryEngine::deltas` read back. Unlike per-point
    /// [`TimeSeriesDb::write`] calls, this resolves the series once and
    /// streams every `(window_index, delta)` pair into it. Point times are
    /// `window_index * sample_period`, aligned by construction, and the
    /// pairs must arrive in ascending window order. A zero delta still
    /// emits a point. An empty iterator writes nothing and does not
    /// create the series.
    ///
    /// # Errors
    ///
    /// Returns an error if the metric is unregistered or is not a
    /// counter.
    pub fn write_cumulative(
        &mut self,
        name: &str,
        labels: Labels,
        windows: impl IntoIterator<Item = (usize, u64)>,
    ) -> Result<(), String> {
        let desc = self
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} not registered"))?;
        if desc.kind != MetricKind::Counter {
            return Err(format!(
                "metric {name} is {:?}, cumulative writes need a counter",
                desc.kind
            ));
        }
        let retention = desc.retention;
        let period_ns = self.sample_period.as_nanos();
        let mut windows = windows.into_iter();
        let Some(first) = windows.next() else {
            return Ok(());
        };
        let series = self.series.entry((name.to_string(), labels)).or_default();
        let mut cum = 0u64;
        let mut last = SimTime::ZERO;
        for (w, delta) in std::iter::once(first).chain(windows) {
            cum += delta;
            last = SimTime::from_nanos(w as u64 * period_ns);
            series.push(last, MetricValue::Counter(cum));
        }
        // Retention once at the newest point: for a monotone time
        // sequence this drains exactly what per-point enforcement would.
        series.enforce_retention(last, retention);
        Ok(())
    }

    /// Reads one series.
    pub fn series(&self, name: &str, labels: &Labels) -> Option<&Series> {
        self.series.get(&(name.to_string(), labels.clone()))
    }

    /// Iterates all `(labels, series)` of one metric.
    pub fn series_of<'a>(
        &'a self,
        name: &str,
    ) -> impl Iterator<Item = (&'a Labels, &'a Series)> + 'a {
        let name = name.to_string();
        self.series
            .iter()
            .filter(move |((n, _), _)| *n == name)
            .map(|((_, l), s)| (l, s))
    }

    /// Number of live series.
    pub fn num_series(&self) -> usize {
        self.series.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::hist::LogHistogram;

    fn db() -> TimeSeriesDb {
        TimeSeriesDb::new(SimDuration::from_mins(30))
    }

    fn mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    #[test]
    fn register_then_write_and_read() {
        let mut d = db();
        d.register(MetricDescriptor::gauge("cpu", SimDuration::from_hours(24)))
            .unwrap();
        d.write("cpu", Labels::empty(), mins(31), MetricValue::Gauge(0.5))
            .unwrap();
        let s = d.series("cpu", &Labels::empty()).unwrap();
        assert_eq!(s.len(), 1);
        // Aligned down to the 30-minute boundary.
        assert_eq!(s.points()[0].0, mins(30));
        assert_eq!(s.latest().unwrap().1.as_gauge(), Some(0.5));
    }

    #[test]
    fn write_cumulative_matches_per_point_writes() {
        // The streaming flush must produce byte-identical series to the
        // write-per-point loop it replaced in the driver.
        let deltas: Vec<u64> = vec![3, 0, 7, 0, 0, 11, 2];
        let retention = SimDuration::from_hours(24);
        let mut streamed = db();
        streamed
            .register(MetricDescriptor::counter("c", retention))
            .unwrap();
        streamed
            .write_cumulative(
                "c",
                Labels::empty(),
                deltas.iter().enumerate().map(|(w, &d)| (w, d)),
            )
            .unwrap();
        let mut looped = db();
        looped
            .register(MetricDescriptor::counter("c", retention))
            .unwrap();
        let mut cum = 0u64;
        for (w, &d) in deltas.iter().enumerate() {
            cum += d;
            let at = SimTime::from_nanos(w as u64 * SimDuration::from_mins(30).as_nanos());
            looped
                .write("c", Labels::empty(), at, MetricValue::Counter(cum))
                .unwrap();
        }
        let a = streamed.series("c", &Labels::empty()).unwrap();
        let b = looped.series("c", &Labels::empty()).unwrap();
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.0, pb.0);
            assert_eq!(pa.1.as_counter(), pb.1.as_counter());
        }
        // Every listed window emitted a point, including zero deltas.
        assert_eq!(a.len(), deltas.len());
        assert_eq!(a.latest().unwrap().1.as_counter(), Some(23));
    }

    #[test]
    fn write_cumulative_skip_zero_filter_and_empty_iterator() {
        let mut d = db();
        d.register(MetricDescriptor::counter("c", SimDuration::from_hours(24)))
            .unwrap();
        // Skip-zero semantics live in the caller's filter.
        let deltas: Vec<u64> = vec![0, 5, 0, 2];
        d.write_cumulative(
            "c",
            Labels::empty(),
            deltas
                .iter()
                .enumerate()
                .filter(|(_, &d)| d != 0)
                .map(|(w, &d)| (w, d)),
        )
        .unwrap();
        let s = d.series("c", &Labels::empty()).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[0].0, mins(30));
        assert_eq!(s.points()[0].1.as_counter(), Some(5));
        assert_eq!(s.points()[1].0, mins(90));
        assert_eq!(s.points()[1].1.as_counter(), Some(7));
        // An empty stream writes nothing and creates no series.
        d.write_cumulative(
            "c",
            Labels::from_pairs([("svc", "idle")]),
            std::iter::empty(),
        )
        .unwrap();
        assert!(d
            .series("c", &Labels::from_pairs([("svc", "idle")]))
            .is_none());
    }

    #[test]
    fn write_cumulative_rejects_gauges_and_unregistered() {
        let mut d = db();
        assert!(d
            .write_cumulative("nope", Labels::empty(), [(0usize, 1u64)])
            .is_err());
        d.register(MetricDescriptor::gauge("g", SimDuration::from_hours(1)))
            .unwrap();
        assert!(d
            .write_cumulative("g", Labels::empty(), [(0usize, 1u64)])
            .is_err());
    }

    #[test]
    fn unregistered_or_mismatched_writes_fail() {
        let mut d = db();
        assert!(d
            .write("nope", Labels::empty(), mins(0), MetricValue::Gauge(1.0))
            .is_err());
        d.register(MetricDescriptor::counter("c", SimDuration::from_hours(1)))
            .unwrap();
        assert!(d
            .write("c", Labels::empty(), mins(0), MetricValue::Gauge(1.0))
            .is_err());
        assert!(d
            .write("c", Labels::empty(), mins(0), MetricValue::Counter(1))
            .is_ok());
    }

    #[test]
    fn conflicting_registration_fails() {
        let mut d = db();
        d.register(MetricDescriptor::gauge("m", SimDuration::from_hours(1)))
            .unwrap();
        assert!(d
            .register(MetricDescriptor::gauge("m", SimDuration::from_hours(1)))
            .is_ok());
        assert!(d
            .register(MetricDescriptor::counter("m", SimDuration::from_hours(1)))
            .is_err());
    }

    #[test]
    fn same_window_write_overwrites() {
        let mut d = db();
        d.register(MetricDescriptor::gauge("g", SimDuration::from_hours(1)))
            .unwrap();
        d.write("g", Labels::empty(), mins(5), MetricValue::Gauge(1.0))
            .unwrap();
        d.write("g", Labels::empty(), mins(20), MetricValue::Gauge(2.0))
            .unwrap();
        let s = d.series("g", &Labels::empty()).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.latest().unwrap().1.as_gauge(), Some(2.0));
    }

    #[test]
    fn retention_drops_old_points() {
        let mut d = db();
        d.register(MetricDescriptor::gauge("g", SimDuration::from_hours(2)))
            .unwrap();
        for i in 0..10u64 {
            d.write(
                "g",
                Labels::empty(),
                mins(i * 30),
                MetricValue::Gauge(i as f64),
            )
            .unwrap();
        }
        let s = d.series("g", &Labels::empty()).unwrap();
        // At t=270min with 120min retention, points before 150min are gone.
        assert!(s.points().iter().all(|(t, _)| *t >= mins(150)));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn series_are_keyed_by_labels() {
        let mut d = db();
        d.register(MetricDescriptor::gauge("g", SimDuration::from_hours(24)))
            .unwrap();
        let a = Labels::from_pairs([("cluster", "1")]);
        let b = Labels::from_pairs([("cluster", "2")]);
        d.write("g", a.clone(), mins(0), MetricValue::Gauge(1.0))
            .unwrap();
        d.write("g", b.clone(), mins(0), MetricValue::Gauge(2.0))
            .unwrap();
        assert_eq!(d.num_series(), 2);
        assert_eq!(d.series_of("g").count(), 2);
        assert_eq!(
            d.series("g", &a).unwrap().latest().unwrap().1.as_gauge(),
            Some(1.0)
        );
    }

    #[test]
    fn distribution_points_round_trip() {
        let mut d = db();
        d.register(MetricDescriptor::distribution(
            "lat",
            SimDuration::from_hours(24),
        ))
        .unwrap();
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        d.write(
            "lat",
            Labels::empty(),
            mins(0),
            MetricValue::Distribution(h),
        )
        .unwrap();
        let s = d.series("lat", &Labels::empty()).unwrap();
        let got = s.points()[0].1.as_distribution().unwrap();
        assert_eq!(got.count(), 3);
        assert_eq!(got.mean(), Some(200.0));
    }
}
