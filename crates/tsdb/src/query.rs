//! Query layer: selection, counter rates and per-window deltas.

use crate::metric::{Labels, MetricValue};
use crate::store::{Series, TimeSeriesDb};
use rpclens_simcore::time::SimTime;

/// A label predicate for selecting series.
#[derive(Debug, Clone, Default)]
pub struct LabelFilter {
    required: Vec<(String, String)>,
}

impl LabelFilter {
    /// Matches every series.
    pub fn any() -> Self {
        Self::default()
    }

    /// Adds an exact-match requirement.
    pub fn eq(mut self, key: &str, value: &str) -> Self {
        self.required.push((key.to_string(), value.to_string()));
        self
    }

    /// Whether a label set satisfies the filter.
    pub fn matches(&self, labels: &Labels) -> bool {
        self.required
            .iter()
            .all(|(k, v)| labels.get(k) == Some(v.as_str()))
    }
}

/// Query operations over a [`TimeSeriesDb`].
#[derive(Debug)]
pub struct QueryEngine<'a> {
    db: &'a TimeSeriesDb,
}

impl<'a> QueryEngine<'a> {
    /// Creates a query engine over a database.
    pub fn new(db: &'a TimeSeriesDb) -> Self {
        QueryEngine { db }
    }

    /// Selects all series of `metric` matching `filter`.
    pub fn select(&self, metric: &str, filter: &LabelFilter) -> Vec<(&'a Labels, &'a Series)> {
        let mut out: Vec<_> = self
            .db
            .series_of(metric)
            .filter(|(l, _)| filter.matches(l))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Converts a cumulative counter series to per-second rates between
    /// consecutive points. Counter resets (decreases) yield a zero rate.
    pub fn rate(series: &Series) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        let mut prev: Option<(SimTime, u64)> = None;
        for (t, v) in series.points() {
            if let MetricValue::Counter(c) = v {
                if let Some((pt, pc)) = prev {
                    let dt = t.since(pt).as_secs_f64();
                    if dt > 0.0 {
                        let delta = c.saturating_sub(pc);
                        out.push((*t, delta as f64 / dt));
                    }
                }
                prev = Some((*t, *c));
            }
        }
        out
    }

    /// Converts a cumulative counter series back to per-point deltas:
    /// each point's reading less the previous one (the first point's
    /// less zero). Counter resets (decreases) yield a zero delta, as in
    /// [`QueryEngine::rate`].
    pub fn deltas(series: &Series) -> Vec<(SimTime, u64)> {
        let mut prev = 0u64;
        series
            .points()
            .iter()
            .filter_map(|(t, v)| {
                let c = v.as_counter()?;
                let delta = c.saturating_sub(prev);
                prev = c;
                Some((*t, delta))
            })
            .collect()
    }

    /// Extracts gauge values as `(time, value)` pairs.
    pub fn gauges(series: &Series) -> Vec<(SimTime, f64)> {
        series
            .points()
            .iter()
            .filter_map(|(t, v)| v.as_gauge().map(|g| (*t, g)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricDescriptor;
    use rpclens_simcore::time::SimDuration;

    fn mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    fn db_with_counters() -> TimeSeriesDb {
        let mut d = TimeSeriesDb::new(SimDuration::from_mins(30));
        d.register(MetricDescriptor::counter(
            "rps",
            SimDuration::from_hours(100),
        ))
        .unwrap();
        d.register(MetricDescriptor::gauge(
            "util",
            SimDuration::from_hours(100),
        ))
        .unwrap();
        for cluster in ["a", "b"] {
            let labels = Labels::from_pairs([("cluster", cluster), ("service", "disk")]);
            for i in 0..4u64 {
                d.write(
                    "rps",
                    labels.clone(),
                    mins(i * 30),
                    MetricValue::Counter(i * 1800 * if cluster == "a" { 1 } else { 2 }),
                )
                .unwrap();
                d.write(
                    "util",
                    labels.clone(),
                    mins(i * 30),
                    MetricValue::Gauge(0.1 * i as f64),
                )
                .unwrap();
            }
        }
        d
    }

    #[test]
    fn select_filters_by_label() {
        let d = db_with_counters();
        let q = QueryEngine::new(&d);
        assert_eq!(q.select("rps", &LabelFilter::any()).len(), 2);
        assert_eq!(
            q.select("rps", &LabelFilter::any().eq("cluster", "a"))
                .len(),
            1
        );
        assert_eq!(
            q.select("rps", &LabelFilter::any().eq("cluster", "zzz"))
                .len(),
            0
        );
        assert_eq!(
            q.select(
                "rps",
                &LabelFilter::any().eq("cluster", "a").eq("service", "disk")
            )
            .len(),
            1
        );
    }

    #[test]
    fn rate_computes_per_second_deltas() {
        let d = db_with_counters();
        let q = QueryEngine::new(&d);
        let labels = Labels::from_pairs([("cluster", "a"), ("service", "disk")]);
        let series = q.select("rps", &LabelFilter::any().eq("cluster", "a"));
        assert_eq!(series.len(), 1);
        let rates = QueryEngine::rate(series[0].1);
        // Counter grows 1800 per 30 minutes = 1/sec.
        assert_eq!(rates.len(), 3);
        for (_, r) in &rates {
            assert!((r - 1.0).abs() < 1e-9, "rate {r}");
        }
        let _ = labels;
    }

    #[test]
    fn rate_handles_counter_reset() {
        let mut d = TimeSeriesDb::new(SimDuration::from_mins(30));
        d.register(MetricDescriptor::counter("c", SimDuration::from_hours(10)))
            .unwrap();
        d.write("c", Labels::empty(), mins(0), MetricValue::Counter(100))
            .unwrap();
        d.write("c", Labels::empty(), mins(30), MetricValue::Counter(10))
            .unwrap();
        let s = d.series("c", &Labels::empty()).unwrap();
        let rates = QueryEngine::rate(s);
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].1, 0.0);
    }

    #[test]
    fn deltas_undo_the_cumulative_sum() {
        let mut d = TimeSeriesDb::new(SimDuration::from_mins(30));
        d.register(MetricDescriptor::counter("c", SimDuration::from_hours(10)))
            .unwrap();
        d.write_cumulative("c", Labels::empty(), [(0, 4), (1, 0), (3, 9)])
            .unwrap();
        let s = d.series("c", &Labels::empty()).unwrap();
        assert_eq!(
            QueryEngine::deltas(s),
            vec![(mins(0), 4), (mins(30), 0), (mins(90), 9)]
        );
        // A reset reads as a zero delta; the walk restarts from it.
        d.write("c", Labels::empty(), mins(120), MetricValue::Counter(2))
            .unwrap();
        d.write("c", Labels::empty(), mins(150), MetricValue::Counter(5))
            .unwrap();
        let s = d.series("c", &Labels::empty()).unwrap();
        assert_eq!(
            &QueryEngine::deltas(s)[3..],
            [(mins(120), 0), (mins(150), 3)]
        );
    }

    #[test]
    fn rate_of_empty_and_single_point_series_is_empty() {
        let mut d = TimeSeriesDb::new(SimDuration::from_mins(30));
        d.register(MetricDescriptor::counter("c", SimDuration::from_hours(10)))
            .unwrap();
        // Registered but never written: no series exists yet.
        let q = QueryEngine::new(&d);
        assert!(q.select("c", &LabelFilter::any()).is_empty());
        // One point: a rate needs two points to form a window, so the
        // result must be empty rather than a spurious zero or NaN.
        d.write("c", Labels::empty(), mins(0), MetricValue::Counter(42))
            .unwrap();
        let s = d.series("c", &Labels::empty()).unwrap();
        assert!(QueryEngine::rate(s).is_empty());
        assert!(QueryEngine::gauges(s).is_empty());
    }

    #[test]
    fn rate_skips_zero_width_window() {
        // Two writes into the same sampling window align to the same
        // timestamp; the dt == 0 pair must not divide by zero.
        let mut d = TimeSeriesDb::new(SimDuration::from_mins(30));
        d.register(MetricDescriptor::counter("c", SimDuration::from_hours(10)))
            .unwrap();
        d.write("c", Labels::empty(), mins(0), MetricValue::Counter(10))
            .unwrap();
        d.write("c", Labels::empty(), mins(10), MetricValue::Counter(25))
            .unwrap();
        d.write("c", Labels::empty(), mins(30), MetricValue::Counter(40))
            .unwrap();
        let s = d.series("c", &Labels::empty()).unwrap();
        let rates = QueryEngine::rate(s);
        assert_eq!(rates.len(), 1, "only the cross-window pair rates");
        assert!(rates[0].1.is_finite());
        assert!((rates[0].1 - 15.0 / 1800.0).abs() < 1e-12, "{}", rates[0].1);
    }

    #[test]
    fn rate_over_retention_truncated_series_uses_surviving_points() {
        // Retention of one hour with writes spanning three: the oldest
        // points are dropped, and rates are computed over what survives —
        // no phantom delta from the evicted prefix.
        let mut d = TimeSeriesDb::new(SimDuration::from_mins(30));
        d.register(MetricDescriptor::counter("c", SimDuration::from_hours(1)))
            .unwrap();
        for i in 0..7u64 {
            d.write(
                "c",
                Labels::empty(),
                mins(i * 30),
                MetricValue::Counter(i * i * 1000),
            )
            .unwrap();
        }
        let s = d.series("c", &Labels::empty()).unwrap();
        let points = s.points();
        assert!(
            points.len() < 7,
            "retention should have evicted old points, kept {}",
            points.len()
        );
        assert_eq!(points.last().unwrap().0, mins(180));
        let rates = QueryEngine::rate(s);
        assert_eq!(rates.len(), points.len() - 1);
        // Each surviving rate is the adjacent-pair delta, not a delta
        // against any evicted point.
        for (j, ((t, r), pair)) in rates.iter().zip(points.windows(2)).enumerate() {
            let expect = match (&pair[0].1, &pair[1].1) {
                (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                    (b - a) as f64 / pair[1].0.since(pair[0].0).as_secs_f64()
                }
                other => panic!("unexpected values {other:?}"),
            };
            assert_eq!(*t, pair[1].0, "rate {j}");
            assert!((r - expect).abs() < 1e-9, "rate {j}: {r} vs {expect}");
        }
    }

    #[test]
    fn gauges_extract_values() {
        let d = db_with_counters();
        let q = QueryEngine::new(&d);
        let series = q.select("util", &LabelFilter::any().eq("cluster", "b"));
        let gs = QueryEngine::gauges(series[0].1);
        assert_eq!(gs.len(), 4);
        assert_eq!(gs[2].1, 0.2);
    }
}
