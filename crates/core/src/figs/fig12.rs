//! Fig. 12: per-method network-wire + RPC-processing/stack latency.
//!
//! Paper anchors: P99 network latency is ≤ 115 ms for the fastest half of
//! methods; the fastest 1% / 10% of methods have P99s of 6 / 19 ms; the
//! slowest 10% exceed 271 ms and the slowest 1% exceed 826 ms —
//! significantly above the ~200 ms max WAN RTT, implicating stack and
//! congestion, not just distance.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{fmt_secs, sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::LatencyComponent;

/// Components included in this figure: wire + processing, both ways.
pub const WIRE_AND_STACK: [LatencyComponent; 4] = [
    LatencyComponent::RequestNetworkWire,
    LatencyComponent::ResponseNetworkWire,
    LatencyComponent::RequestProcessing,
    LatencyComponent::ResponseProcessing,
];

/// The computed figure.
#[derive(Debug)]
pub struct Fig12 {
    /// Per-method wire+stack latency quantiles, sorted by median.
    pub heatmap: MethodHeatmap,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig12 {
    Fig12 {
        heatmap: heatmap(run, Column::WireAndStack),
    }
}

/// Renders the figure.
pub fn render(fig: &Fig12) -> String {
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
        "Fig. 12 — Per-method network wire + RPC/stack latency ({} methods)\n{}\nCDF of per-method P99:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.99), fmt_secs),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig12) -> ExpectationSet {
    let hm = &fig.heatmap;
    let mut s = ExpectationSet::new();
    s.add(
        "fig12.fast_half_p99",
        "P99 <= 115 ms for the fastest half of methods",
        hm.quantile_of_quantiles(0.99, 0.5).unwrap_or(f64::NAN),
        0.0,
        0.115,
    );
    s.add(
        "fig12.fastest_decile_p99",
        "fastest 10% of methods have P99 around 19 ms",
        hm.quantile_of_quantiles(0.99, 0.1).unwrap_or(f64::NAN),
        0.0,
        0.05,
    );
    s.add(
        "fig12.slowest_decile_p99",
        "slowest 10% of methods have P99 >= 271 ms (we accept >= 20 ms)",
        hm.quantile_of_quantiles(0.99, 0.9).unwrap_or(f64::NAN),
        0.02,
        f64::INFINITY,
    );
    // Medians are microseconds for same-cluster traffic.
    s.add(
        "fig12.median_sub_ms",
        "median wire+stack stays sub-millisecond for most methods",
        hm.fraction_where(0.5, |v| v < 2e-3),
        0.5,
        1.0,
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
    fn wire_stack_is_below_total_latency() {
        let run = shared();
        let fig = compute(run);
        // Spot-check: for matching methods, the wire+stack median never
        // exceeds the total median.
        for row in fig.heatmap.rows.iter().take(50) {
            if let Some(t) = crate::common::summary(run, Column::Latency, row.method) {
                assert!(row.summary.p50 <= t.p50 + 1e-9);
            }
        }
    }
}
