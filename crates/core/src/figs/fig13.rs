//! Fig. 13: per-method queueing latency.
//!
//! Paper anchors: half of methods have median queueing under 360 µs and
//! P99 under 102 ms; the worst decile sees 1.1 ms medians and 611 ms
//! P99s — tail queueing is orders of magnitude worse than the median,
//! implicating scheduling and load balancing.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{fmt_secs, sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::LatencyComponent;

/// The four queueing components.
pub const QUEUES: [LatencyComponent; 4] = [
    LatencyComponent::ClientSendQueue,
    LatencyComponent::ServerRecvQueue,
    LatencyComponent::ServerSendQueue,
    LatencyComponent::ClientRecvQueue,
];

/// The computed figure.
#[derive(Debug)]
pub struct Fig13 {
    /// Per-method queueing-latency quantiles, sorted by median.
    pub heatmap: MethodHeatmap,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig13 {
    Fig13 {
        heatmap: heatmap(run, Column::Queues),
    }
}

/// Renders the figure.
pub fn render(fig: &Fig13) -> String {
    let hm = &fig.heatmap;
    let mut t = TextTable::new(&["method#", "P50", "P90", "P99"]);
    let step = (hm.len() / 15).max(1);
    for (i, row) in hm.rows.iter().enumerate().step_by(step) {
        t.row(vec![
            i.to_string(),
            fmt_secs(row.summary.p50),
            fmt_secs(row.summary.p90),
            fmt_secs(row.summary.p99),
        ]);
    }
    format!(
        "Fig. 13 — Per-method queueing latency ({} methods)\n{}\nCDF of per-method P99 queueing:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.99), fmt_secs),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig13) -> ExpectationSet {
    let hm = &fig.heatmap;
    let mut s = ExpectationSet::new();
    s.add(
        "fig13.median_queueing",
        "half of methods have median queueing under 360 us",
        hm.quantile_of_quantiles(0.5, 0.5).unwrap_or(f64::NAN),
        0.0,
        1.5e-3,
    );
    s.add(
        "fig13.p99_queueing_half",
        "half of methods have P99 queueing under 102 ms",
        hm.quantile_of_quantiles(0.99, 0.5).unwrap_or(f64::NAN),
        0.0,
        0.102,
    );
    // Heavy tail: P99 is >= 20x the median for most methods.
    let heavy = hm
        .rows
        .iter()
        .filter(|r| r.summary.p99 > r.summary.p50.max(1e-9) * 20.0)
        .count() as f64
        / hm.rows.len().max(1) as f64;
    s.add(
        "fig13.tail_vs_median",
        "tail queueing is much worse than median queueing",
        heavy,
        0.25,
        1.0,
    );
    // The worst methods see multi-ms medians.
    s.add(
        "fig13.worst_decile_median",
        "the worst decile's median queueing is ~1.1 ms",
        hm.quantile_of_quantiles(0.5, 0.9).unwrap_or(f64::NAN),
        0.1e-3,
        20e-3,
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
    fn hot_services_queue_more() {
        let run = shared();
        let fig = compute(run);
        // SSD cache runs with a utilization bias; its queueing medians
        // should exceed KV-Store's (reserved cores, modest load).
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
        assert!(median_of("SSDCache") > median_of("KVStore"));
    }
}
