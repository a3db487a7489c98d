//! Fig. 6: per-method request size.
//!
//! Paper anchors: the smallest RPC is a single cache line (64 B); half of
//! methods have median requests under 1530 B; P90 request sizes are
//! ~11.8 KB and P99 ~196 KB — small bodies with a heavy tail.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{fmt_bytes, sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_simcore::stats::percentile;

/// The computed figure.
#[derive(Debug)]
pub struct Fig06 {
    /// Per-method request-size quantiles (bytes), sorted by median.
    pub requests: MethodHeatmap,
    /// Per-method response-size quantiles (bytes), sorted by median.
    pub responses: MethodHeatmap,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig06 {
    Fig06 {
        requests: heatmap(run, Column::RequestBytes),
        responses: heatmap(run, Column::ResponseBytes),
    }
}

/// Renders the figure.
pub fn render(fig: &Fig06) -> String {
    let hm = &fig.requests;
    let mut t = TextTable::new(&["method#", "P10", "P50", "P90", "P99"]);
    let step = (hm.len() / 15).max(1);
    for (i, row) in hm.rows.iter().enumerate().step_by(step) {
        t.row(vec![
            i.to_string(),
            fmt_bytes(row.summary.p10),
            fmt_bytes(row.summary.p50),
            fmt_bytes(row.summary.p90),
            fmt_bytes(row.summary.p99),
        ]);
    }
    format!(
        "Fig. 6 — Per-method request size ({} methods)\n{}\nCDF of per-method median request sizes:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.5), fmt_bytes),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig06) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    let req_medians = fig.requests.across_methods(0.5);
    let resp_medians = fig.responses.across_methods(0.5);
    s.add(
        "fig6.smallest_request",
        "the smallest RPC is a single cache line (64 B)",
        req_medians.first().copied().unwrap_or(f64::NAN),
        64.0,
        512.0,
    );
    s.add(
        "fig6.median_request",
        "half of methods have median requests under 1530 B",
        percentile(&req_medians, 0.5).unwrap_or(f64::NAN),
        128.0,
        4096.0,
    );
    s.add(
        "fig6.median_response",
        "half of methods have median responses under 315 B",
        percentile(&resp_medians, 0.5).unwrap_or(f64::NAN),
        64.0,
        2048.0,
    );
    // Heavy tails: per-method P99 is an order of magnitude above the
    // median for a large fraction of methods.
    let heavy = fig
        .requests
        .rows
        .iter()
        .filter(|r| r.summary.p99 > r.summary.p50 * 8.0)
        .count() as f64
        / fig.requests.rows.len().max(1) as f64;
    s.add(
        "fig6.heavy_tail",
        "P99 sizes are an order of magnitude above medians",
        heavy,
        0.3,
        1.0,
    );
    // The P99 of per-method P99 requests reaches deep into the KB-MB
    // range (paper: 196 KB).
    let p99p99 = fig
        .requests
        .quantile_of_quantiles(0.99, 0.99)
        .unwrap_or(f64::NAN);
    s.add(
        "fig6.p99_tail_bytes",
        "P99 requests reach ~196 KB",
        p99p99,
        20.0 * 1024.0,
        4.0 * 1024.0 * 1024.0,
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
    fn sizes_respect_global_clamps() {
        let fig = compute(shared());
        for r in &fig.requests.rows {
            assert!(r.summary.p01 >= 64.0);
            assert!(r.summary.p99 <= 4.0 * 1024.0 * 1024.0);
        }
    }

    #[test]
    fn network_disk_write_requests_are_32kb_scale() {
        let run = shared();
        let fig = compute(run);
        let disk = run.catalog.service_by_name("NetworkDisk").unwrap().id;
        let write = run
            .catalog
            .methods()
            .iter()
            .find(|m| m.service == disk && m.name == "Write")
            .unwrap()
            .id;
        let row = fig
            .requests
            .rows
            .iter()
            .find(|r| r.method == write)
            .expect("Write is eligible");
        assert!(
            (8.0 * 1024.0..128.0 * 1024.0).contains(&row.summary.p50),
            "Write median {}",
            row.summary.p50
        );
    }
}
