//! Shared extraction helpers used by the figure modules.

use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite, QuantileSummary};
use rpclens_trace::query::MethodQuery;
use rpclens_trace::span::{MethodId, SpanRecord, TraceData};
use serde::{Deserialize, Serialize};

/// One row of a per-method "heatmap": the method and its metric quantiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    /// The method.
    pub method: MethodId,
    /// Quantiles of the metric for this method.
    pub summary: QuantileSummary,
}

/// A per-method heatmap, sorted by the median of the metric — the layout
/// every per-method figure in the paper uses.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MethodHeatmap {
    /// Rows in ascending median order.
    pub rows: Vec<MethodRow>,
}

impl MethodHeatmap {
    /// Builds a heatmap from per-method samples produced by `metric`.
    ///
    /// Methods failing the query's sample-count gate are skipped.
    pub fn build<F>(run: &FleetRun, query: &MethodQuery, metric: F) -> MethodHeatmap
    where
        F: Fn(&TraceData, &SpanRecord) -> f64,
    {
        Self::from_groups(query.groups(&run.store, metric))
    }

    /// Builds a heatmap from precomputed per-method sample vectors.
    ///
    /// Input order does not matter: rows are keyed by method id before the
    /// median sort, so callers may pass samples straight out of a hash map
    /// and still get a deterministic layout.
    pub fn from_samples(samples: Vec<(MethodId, Vec<f64>)>, min_samples: usize) -> MethodHeatmap {
        let mut samples = samples;
        samples.sort_by_key(|(method, _)| *method);
        Self::from_groups(
            samples
                .into_iter()
                .filter(|(_, values)| values.len() >= min_samples),
        )
    }

    /// Summarises groups given in ascending method id, then stable-sorts
    /// the rows by median.
    fn from_groups(groups: impl Iterator<Item = (MethodId, Vec<f64>)>) -> MethodHeatmap {
        let mut rows: Vec<MethodRow> = groups
            .filter_map(|(method, values)| {
                QuantileSummary::from_samples(values).map(|summary| MethodRow { method, summary })
            })
            .collect();
        rows.sort_by(|a, b| a.summary.p50.partial_cmp(&b.summary.p50).expect("finite"));
        MethodHeatmap { rows }
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the heatmap is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The distribution, across methods, of one per-method quantile
    /// (`q` must be one of the stored levels). This is the "CDF" panel of
    /// the paper's per-method figures.
    pub fn across_methods(&self, q: f64) -> Vec<f64> {
        sorted_finite(
            self.rows
                .iter()
                .filter_map(|r| r.summary.get(q))
                .collect::<Vec<f64>>(),
        )
    }

    /// The fraction of methods whose quantile `q` satisfies `pred`.
    pub fn fraction_where<F: Fn(f64) -> bool>(&self, q: f64, pred: F) -> f64 {
        if self.rows.is_empty() {
            return f64::NAN;
        }
        let n = self
            .rows
            .iter()
            .filter(|r| r.summary.get(q).map(&pred).unwrap_or(false))
            .count();
        n as f64 / self.rows.len() as f64
    }

    /// The value of quantile `inner` at position `outer` across methods
    /// (e.g. "the P99 latency of the method at the 10th percentile of
    /// methods").
    pub fn quantile_of_quantiles(&self, inner: f64, outer: f64) -> Option<f64> {
        let v = self.across_methods(inner);
        percentile(&v, outer)
    }
}

/// Sums a group of latency components for a span, in seconds.
pub fn component_sum_secs(span: &SpanRecord, components: &[LatencyComponent]) -> f64 {
    components
        .iter()
        .map(|&c| span.component(c).as_secs_f64())
        .sum()
}

/// A span's completion time and its nine latency components, in seconds
/// and lifecycle order.
pub fn breakdown_row(span: &SpanRecord) -> (f64, [f64; 9]) {
    let mut comps = [0.0f64; 9];
    for (i, c) in LatencyComponent::ALL.iter().enumerate() {
        comps[i] = span.component(*c).as_secs_f64();
    }
    (span.total_latency().as_secs_f64(), comps)
}

#[cfg(test)]
pub(crate) mod testrun {
    //! A single shared small fleet run for the analysis tests: the
    //! simulation is deterministic, so one instance serves every module.

    use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
    use rpclens_simcore::time::SimDuration;
    use std::sync::OnceLock;

    static RUN: OnceLock<FleetRun> = OnceLock::new();

    /// The shared test run (~400 methods, 20k roots).
    pub fn shared() -> &'static FleetRun {
        RUN.get_or_init(|| {
            let scale = SimScale {
                name: "core-test",
                total_methods: 2_000,
                roots: 60_000,
                duration: SimDuration::from_hours(24),
                trace_sample_rate: 1,
                profiler_sample_cap: 10_000,
                seed: 7,
            };
            run_fleet(FleetConfig::at_scale(scale))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common_tests::*;

    mod common_tests {
        pub use super::super::testrun::shared;
    }

    #[test]
    fn heatmap_is_sorted_by_median() {
        let run = shared();
        let q = MethodQuery::default();
        let hm = MethodHeatmap::build(run, &q, |_, s| s.total_latency().as_secs_f64());
        assert!(hm.len() > 30, "{} methods", hm.len());
        assert!(hm
            .rows
            .windows(2)
            .all(|w| w[0].summary.p50 <= w[1].summary.p50));
    }

    #[test]
    fn across_methods_matches_rows() {
        let run = shared();
        let q = MethodQuery::default();
        let hm = MethodHeatmap::build(run, &q, |_, s| s.total_latency().as_secs_f64());
        let medians = hm.across_methods(0.5);
        assert_eq!(medians.len(), hm.len());
        // Sorted output.
        assert!(medians.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fraction_where_counts_correctly() {
        let hm = MethodHeatmap::from_samples(
            vec![
                (rpclens_trace::span::MethodId(0), vec![1.0; 200]),
                (rpclens_trace::span::MethodId(1), vec![10.0; 200]),
            ],
            100,
        );
        assert_eq!(hm.len(), 2);
        assert_eq!(hm.fraction_where(0.5, |v| v > 5.0), 0.5);
        assert_eq!(hm.fraction_where(0.5, |v| v > 0.0), 1.0);
    }

    #[test]
    fn from_samples_enforces_min() {
        let hm = MethodHeatmap::from_samples(
            vec![(rpclens_trace::span::MethodId(0), vec![1.0; 5])],
            100,
        );
        assert!(hm.is_empty());
    }
}
